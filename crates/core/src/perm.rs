//! The TDT permission model (§3.2, Table 1) and entry encoding.
//!
//! Each TDT entry maps a vtid to a ptid plus **4 permission bits** that
//! "allow the caller to start - stop - modify some registers - modify most
//! registers of the callee". Permissions are deliberately
//! *non-hierarchical*: B may control A, C may control B, with C having no
//! power over A — impossible in ring-based designs (§3.2).

use core::fmt;

use crate::tid::Ptid;

/// The 4-bit permission mask of a TDT entry.
///
/// Bit layout follows Table 1's `0bSSMM` reading order:
/// `0b1000` start, `0b0100` stop, `0b0010` modify-some (GPRs),
/// `0b0001` modify-most (pc and control registers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Perms(pub u8);

impl Perms {
    /// May `start` the callee.
    pub const START: Perms = Perms(0b1000);
    /// May `stop` the callee.
    pub const STOP: Perms = Perms(0b0100);
    /// May read/write the callee's general-purpose registers.
    pub const MOD_SOME: Perms = Perms(0b0010);
    /// May read/write the callee's pc and control registers.
    pub const MOD_MOST: Perms = Perms(0b0001);
    /// All four bits — Table 1's `0b1111`.
    pub const ALL: Perms = Perms(0b1111);
    /// No permissions.
    pub const NONE: Perms = Perms(0);

    /// Whether every bit of `other` is present in `self`.
    #[must_use]
    pub fn allows(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0b{:04b}", self.0 & 0xf)
    }
}

/// A decoded Thread Descriptor Table entry.
///
/// In-memory encoding (one 64-bit word per vtid, at `TDTR + vtid * 8`):
///
/// ```text
/// 63       62..36   35..32    31..0
/// +-------+--------+--------+--------+
/// | valid | unused | perms  |  ptid  |
/// +-------+--------+--------+--------+
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TdtEntry {
    /// The physical thread this vtid maps to.
    pub ptid: Ptid,
    /// Caller permissions over that thread.
    pub perms: Perms,
    /// Whether the entry is valid (Table 1 shows invalid entries).
    pub valid: bool,
}

impl TdtEntry {
    /// Creates a valid entry.
    #[must_use]
    pub fn new(ptid: Ptid, perms: Perms) -> TdtEntry {
        TdtEntry {
            ptid,
            perms,
            valid: true,
        }
    }

    /// Encodes to the in-memory word format.
    #[must_use]
    pub fn encode(self) -> u64 {
        let mut w = u64::from(self.ptid.0);
        w |= u64::from(self.perms.0 & 0xf) << 32;
        if self.valid {
            w |= 1 << 63;
        }
        w
    }

    /// Decodes from the in-memory word format.
    #[must_use]
    pub fn decode(word: u64) -> TdtEntry {
        TdtEntry {
            ptid: Ptid((word & 0xffff_ffff) as u32),
            perms: Perms(((word >> 32) & 0xf) as u8),
            valid: word >> 63 == 1,
        }
    }
}

/// The §3.2 alternative to the TDT: secret-key capabilities.
///
/// "Threads that perform thread management would need to provide the
/// target thread's secret key if they are not running in privileged
/// mode. Each thread would set its own key and share it with other
/// threads using existing software mechanisms."
///
/// This model captures the design's costs and properties for the F14
/// ablation: every check loads the target's key from memory (an L1 hit
/// in the common case) and compares, and *possession of the key grants
/// everything* — there is no per-operation granularity like the TDT's
/// 4 permission bits.
#[derive(Clone, Debug, Default)]
pub struct SecretKeyAuth {
    keys: std::collections::HashMap<u32, u64>,
}

impl SecretKeyAuth {
    /// Creates an empty key table.
    #[must_use]
    pub fn new() -> SecretKeyAuth {
        SecretKeyAuth::default()
    }

    /// A thread sets (or rotates) its own key.
    pub fn set_key(&mut self, ptid: Ptid, key: u64) {
        self.keys.insert(ptid.0, key);
    }

    /// Checks a presented key against the target's; returns
    /// `(authorized, check-cost-cycles)`. The cost is one L1-class load
    /// (~4 cycles) plus a compare.
    #[must_use]
    pub fn check(&self, target: Ptid, presented: u64) -> (bool, u64) {
        let ok = self.keys.get(&target.0).is_some_and(|&k| k == presented);
        (ok, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_key_check_works() {
        let mut auth = SecretKeyAuth::new();
        auth.set_key(Ptid(3), 0xdead_beef);
        let (ok, cost) = auth.check(Ptid(3), 0xdead_beef);
        assert!(ok);
        assert_eq!(cost, 5);
        let (bad, _) = auth.check(Ptid(3), 0x1234);
        assert!(!bad);
        let (missing, _) = auth.check(Ptid(9), 0xdead_beef);
        assert!(!missing);
    }

    #[test]
    fn allows_is_subset_check() {
        let p = Perms(Perms::START.0 | Perms::STOP.0);
        assert!(p.allows(Perms::START));
        assert!(p.allows(Perms::STOP));
        assert!(!p.allows(Perms::MOD_SOME));
        assert!(Perms::ALL.allows(p));
        assert!(p.allows(Perms::NONE));
    }

    #[test]
    fn table1_encodings() {
        // Table 1 row: vtid 0x0 -> ptid 0x01, perms 0b1000 (start only).
        let row0 = TdtEntry::new(Ptid(0x01), Perms(0b1000));
        assert!(row0.perms.allows(Perms::START));
        assert!(!row0.perms.allows(Perms::STOP));
        // Row: vtid 0x2 -> ptid 0x10, perms 0b1111 (everything).
        let row2 = TdtEntry::new(Ptid(0x10), Perms(0b1111));
        assert!(row2.perms.allows(Perms::MOD_MOST));
        // Row: vtid 0x3 -> ptid 0x11, perms 0b1110 (no modify-most).
        let row3 = TdtEntry::new(Ptid(0x11), Perms(0b1110));
        assert!(row3.perms.allows(Perms::MOD_SOME));
        assert!(!row3.perms.allows(Perms::MOD_MOST));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for ptid in [0u32, 1, 0x10, 0xffff, u32::MAX] {
            for perms in 0..=0xfu8 {
                for valid in [true, false] {
                    let e = TdtEntry {
                        ptid: Ptid(ptid),
                        perms: Perms(perms),
                        valid,
                    };
                    assert_eq!(TdtEntry::decode(e.encode()), e);
                }
            }
        }
    }

    #[test]
    fn invalid_entry_is_all_zero() {
        let zero = TdtEntry::decode(0);
        assert!(!zero.valid);
        assert_eq!((zero.ptid, zero.perms), (Ptid(0), Perms::NONE));
        assert_eq!(zero.encode(), 0);
    }

    #[test]
    fn display_matches_table_notation() {
        assert_eq!(Perms(0b1110).to_string(), "0b1110");
    }
}
