//! Architectural state of one hardware thread, with byte accounting.
//!
//! §4 of the paper sizes the hardware by the bytes of state per thread:
//! "For x86-64, a thread has 272 bytes of register state that goes up to
//! 784 bytes if SSE3 vector extensions are used." The same arithmetic for
//! *our* ISA is produced by [`ArchState::state_bytes`], and the paper's
//! x86-64 reference constants are exported for the T2 capacity table.

use core::fmt;

/// Number of general-purpose registers.
pub const NUM_GPRS: usize = 16;

/// Number of vector registers in the optional vector extension.
pub const NUM_VREGS: usize = 16;

/// Bytes per vector register (256-bit vectors).
pub const VREG_BYTES: usize = 32;

/// The paper's x86-64 reference numbers (§4).
pub mod x86_64 {
    /// Base register state of an x86-64 thread, per the paper.
    pub const STATE_BYTES: u64 = 272;
    /// Register state with SSE3 vector extensions, per the paper.
    pub const STATE_BYTES_SSE3: u64 = 784;
    /// Register file bytes in one NVIDIA V100 sub-core, per the paper.
    pub const V100_SUBCORE_RF_BYTES: u64 = 64 * 1024;
}

/// Privilege mode of a hardware thread (§3.2).
///
/// Note the paper's usage: "supervisor" is the mode the most-privileged
/// software (kernel or hypervisor) runs in; guest kernels and applications
/// both run in "user" ptids and rely on TDT permissions for the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Unprivileged.
    #[default]
    User,
    /// Privileged: may write the TDT pointer and other control state.
    Supervisor,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::User => write!(f, "user"),
            Mode::Supervisor => write!(f, "supervisor"),
        }
    }
}

/// Control registers, including the two novel ones from §3.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtrlReg {
    /// Exception-descriptor pointer: where the hardware writes an
    /// exception descriptor when this ptid becomes disabled by a fault.
    Edp,
    /// Thread-descriptor-table base register (vtid → ptid + permissions).
    Tdtr,
    /// Privilege mode (reads as 0 user / 1 supervisor).
    Mode,
    /// Scheduling priority class (0 = lowest).
    Prio,
}

impl CtrlReg {
    /// All control registers, in code order.
    pub const ALL: [CtrlReg; 4] = [CtrlReg::Edp, CtrlReg::Tdtr, CtrlReg::Mode, CtrlReg::Prio];

    /// Assembler names, in code order.
    const NAMES: [&'static str; 4] = ["edp", "tdtr", "mode", "prio"];

    /// The register's code: its index in [`CtrlReg::ALL`]. `csrr`/`csrw`
    /// carry it in `imm44`; a [`RegSel`] numbers it from 17.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// The register with code `code`, if any.
    pub(crate) fn from_code(code: u64) -> Option<CtrlReg> {
        usize::try_from(code)
            .ok()
            .and_then(|i| CtrlReg::ALL.get(i).copied())
    }

    /// The register's assembler name.
    pub(crate) fn name(self) -> &'static str {
        CtrlReg::NAMES[self as usize]
    }

    /// The register named `name`, ignoring ASCII case.
    pub(crate) fn from_name(name: &str) -> Option<CtrlReg> {
        CtrlReg::ALL
            .into_iter()
            .find(|c| name.eq_ignore_ascii_case(c.name()))
    }
}

/// Selector for `rpull`/`rpush` remote-register operands: a GPR, the
/// program counter, or a control register (§3.1 "in addition to normal
/// registers, remote-reg can be the program counter or various control
/// registers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegSel {
    /// General-purpose register 0–15.
    Gpr(u8),
    /// The program counter.
    Pc,
    /// A control register.
    Ctrl(CtrlReg),
}

impl RegSel {
    /// Encodes the selector as a small integer for the instruction format.
    #[must_use]
    pub fn encode(self) -> u8 {
        match self {
            RegSel::Gpr(n) => n,
            RegSel::Pc => 16,
            RegSel::Ctrl(c) => 17 + c.code(),
        }
    }

    /// Decodes a selector; `None` for out-of-range values.
    #[must_use]
    pub fn decode(v: u8) -> Option<RegSel> {
        match v {
            0..=15 => Some(RegSel::Gpr(v)),
            16 => Some(RegSel::Pc),
            _ => CtrlReg::from_code(u64::from(v - 17)).map(RegSel::Ctrl),
        }
    }

    /// Whether writing this register from another thread requires the
    /// "modify most registers" permission bit rather than "modify some".
    ///
    /// The TDT's 4 permission bits (§3.2, Table 1) distinguish modifying
    /// *some* registers (GPRs — enough to pass arguments) from *most*
    /// (pc and control state — enough to repurpose the thread).
    #[must_use]
    pub fn is_sensitive(self) -> bool {
        !matches!(self, RegSel::Gpr(_))
    }
}

impl fmt::Display for RegSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegSel::Gpr(n) => write!(f, "r{n}"),
            RegSel::Pc => write!(f, "pc"),
            RegSel::Ctrl(c) => f.write_str(c.name()),
        }
    }
}

/// Complete architectural state of one hardware thread.
///
/// This is exactly the state the §4 storage hierarchy must hold per
/// thread, so its size drives the capacity experiments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchState {
    /// General-purpose registers.
    pub gprs: [u64; NUM_GPRS],
    /// Program counter.
    pub pc: u64,
    /// Exception-descriptor pointer (0 = none installed).
    pub edp: u64,
    /// Thread-descriptor-table base (0 = no TDT).
    pub tdtr: u64,
    /// Privilege mode.
    pub mode: Mode,
    /// Scheduling priority class.
    pub prio: u8,
    /// Vector registers, present only when the thread uses the vector
    /// extension (the §2 "Access to All Registers in the Kernel" case).
    pub vregs: Option<Box<[[u8; VREG_BYTES]; NUM_VREGS]>>,
}

impl Default for ArchState {
    fn default() -> ArchState {
        ArchState {
            gprs: [0; NUM_GPRS],
            pc: 0,
            edp: 0,
            tdtr: 0,
            mode: Mode::User,
            prio: 0,
            vregs: None,
        }
    }
}

impl ArchState {
    /// Bytes of state the hardware must store for this thread.
    ///
    /// GPRs + pc + edp + tdtr + (mode,prio packed into one word), plus the
    /// vector file if in use. Mirrors the paper's 272 B / 784 B split for
    /// x86-64.
    #[must_use]
    pub fn state_bytes(&self) -> u64 {
        let base = (NUM_GPRS as u64) * 8 + 8 + 8 + 8 + 8;
        match self.vregs {
            Some(_) => base + (NUM_VREGS * VREG_BYTES) as u64,
            None => base,
        }
    }

    /// Base state bytes for any thread of this ISA (no vector file).
    #[must_use]
    pub fn base_state_bytes() -> u64 {
        ArchState::default().state_bytes()
    }

    /// State bytes with the vector extension in use.
    #[must_use]
    pub fn vector_state_bytes() -> u64 {
        let mut s = ArchState::default();
        s.enable_vectors();
        s.state_bytes()
    }

    /// Reads a register through a [`RegSel`].
    #[must_use]
    pub fn read(&self, sel: RegSel) -> u64 {
        match sel {
            RegSel::Gpr(n) => self.gprs[n as usize & 0xf],
            RegSel::Pc => self.pc,
            RegSel::Ctrl(CtrlReg::Edp) => self.edp,
            RegSel::Ctrl(CtrlReg::Tdtr) => self.tdtr,
            RegSel::Ctrl(CtrlReg::Mode) => match self.mode {
                Mode::User => 0,
                Mode::Supervisor => 1,
            },
            RegSel::Ctrl(CtrlReg::Prio) => u64::from(self.prio),
        }
    }

    /// Writes a register through a [`RegSel`].
    pub fn write(&mut self, sel: RegSel, value: u64) {
        match sel {
            RegSel::Gpr(n) => self.gprs[n as usize & 0xf] = value,
            RegSel::Pc => self.pc = value,
            RegSel::Ctrl(CtrlReg::Edp) => self.edp = value,
            RegSel::Ctrl(CtrlReg::Tdtr) => self.tdtr = value,
            RegSel::Ctrl(CtrlReg::Mode) => {
                self.mode = if value & 1 == 1 {
                    Mode::Supervisor
                } else {
                    Mode::User
                };
            }
            RegSel::Ctrl(CtrlReg::Prio) => self.prio = (value & 0xff) as u8,
        }
    }

    /// Allocates the vector file (first vector instruction executed).
    pub fn enable_vectors(&mut self) {
        if self.vregs.is_none() {
            self.vregs = Some(Box::new([[0; VREG_BYTES]; NUM_VREGS]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_state_is_compact() {
        // 16*8 + 8 (pc) + 8 (edp) + 8 (tdtr) + 8 (mode|prio) = 160 bytes.
        assert_eq!(ArchState::base_state_bytes(), 160);
    }

    #[test]
    fn vector_state_grows_like_the_paper_says() {
        // +16*32 = +512 bytes, the same shape as x86's 272 -> 784 jump.
        assert_eq!(
            ArchState::vector_state_bytes(),
            ArchState::base_state_bytes() + 512
        );
        assert_eq!(
            x86_64::STATE_BYTES_SSE3 - x86_64::STATE_BYTES,
            512,
            "the paper's own delta is also a 512-byte vector file"
        );
    }

    #[test]
    fn regsel_roundtrip() {
        for v in 0..=20u8 {
            let sel = RegSel::decode(v).unwrap();
            assert_eq!(sel.encode(), v);
        }
        assert!(RegSel::decode(21).is_none());
    }

    #[test]
    fn sensitive_classification() {
        assert!(!RegSel::Gpr(3).is_sensitive());
        assert!(RegSel::Pc.is_sensitive());
        assert!(RegSel::Ctrl(CtrlReg::Tdtr).is_sensitive());
    }

    #[test]
    fn read_write_all_selectors() {
        let mut s = ArchState::default();
        for v in 0..=20u8 {
            let sel = RegSel::decode(v).unwrap();
            s.write(sel, 0x55);
            let got = s.read(sel);
            match sel {
                RegSel::Ctrl(CtrlReg::Mode) => assert_eq!(got, 1),
                _ => assert_eq!(got, 0x55),
            }
        }
    }

    #[test]
    fn mode_write_is_bit0() {
        let mut s = ArchState::default();
        s.write(RegSel::Ctrl(CtrlReg::Mode), 2);
        assert_eq!(s.mode, Mode::User);
        s.write(RegSel::Ctrl(CtrlReg::Mode), 3);
        assert_eq!(s.mode, Mode::Supervisor);
    }

    #[test]
    fn v100_reference_arithmetic() {
        // §4: a 64 KB sub-core register file stores 83-224 x86-64 threads.
        let lo = x86_64::V100_SUBCORE_RF_BYTES / x86_64::STATE_BYTES_SSE3;
        let hi = x86_64::V100_SUBCORE_RF_BYTES / x86_64::STATE_BYTES;
        assert_eq!(lo, 83);
        assert_eq!(hi, 240); // 240 floor; the paper quotes 224 (alignment).
    }
}
