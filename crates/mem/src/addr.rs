//! Physical addresses and geometry constants.

use core::fmt;
use core::ops::Add;

/// Cache line size in bytes. All modeled caches use 64-byte lines.
pub const LINE_BYTES: u64 = 64;

/// Page size in bytes (4 KiB pages, the x86-64 base page size).
pub const PAGE_BYTES: u64 = 4096;

/// A physical byte address in simulated memory.
///
/// The simulator uses a single flat physical address space; device MMIO
/// windows and DMA targets are carved out of it by convention (see
/// `switchless-dev`). The paper's generalized `monitor` explicitly covers
/// *uncacheable* addresses too, so nothing in this type restricts the
/// range.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PAddr(pub u64);

impl PAddr {
    /// The address of the cache line containing this byte.
    #[must_use]
    pub fn line(self) -> PAddr {
        PAddr(self.0 & !(LINE_BYTES - 1))
    }

    /// Checked addition of a byte offset.
    #[must_use]
    pub fn checked_add(self, off: u64) -> Option<PAddr> {
        self.0.checked_add(off).map(PAddr)
    }
}

impl Add<u64> for PAddr {
    type Output = PAddr;

    fn add(self, off: u64) -> PAddr {
        PAddr(self.0 + off)
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Iterates the line-aligned addresses of every cache line touched by the
/// byte range `[addr, addr + len)`.
///
/// # Examples
///
/// ```
/// use switchless_mem::addr::{lines_covering, PAddr};
///
/// let lines: Vec<_> = lines_covering(PAddr(60), 8).collect();
/// assert_eq!(lines, vec![PAddr(0), PAddr(64)]);
/// ```
pub fn lines_covering(addr: PAddr, len: u64) -> impl Iterator<Item = PAddr> {
    let first = addr.line().0;
    let last = if len == 0 {
        first
    } else {
        PAddr(addr.0 + (len - 1)).line().0
    };
    (first..=last).step_by(LINE_BYTES as usize).map(PAddr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(PAddr(0).line(), PAddr(0));
        assert_eq!(PAddr(63).line(), PAddr(0));
        assert_eq!(PAddr(64).line(), PAddr(64));
    }

    #[test]
    fn lines_covering_spans() {
        let ls: Vec<_> = lines_covering(PAddr(0), 64).collect();
        assert_eq!(ls, vec![PAddr(0)]);
        let ls: Vec<_> = lines_covering(PAddr(0), 65).collect();
        assert_eq!(ls, vec![PAddr(0), PAddr(64)]);
        let ls: Vec<_> = lines_covering(PAddr(100), 200).collect();
        assert_eq!(ls, vec![PAddr(64), PAddr(128), PAddr(192), PAddr(256)]);
    }

    #[test]
    fn lines_covering_zero_len() {
        let ls: Vec<_> = lines_covering(PAddr(70), 0).collect();
        assert_eq!(ls, vec![PAddr(64)]);
    }
}
