//! Thread identifiers and states (§3).

use core::fmt;

/// A **physical** hardware-thread id, globally unique across the machine.
///
/// The paper names per-core physical threads with ptids; we number them
/// globally and record each thread's home core, which is equivalent and
/// simplifies cross-core `start`/`stop`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ptid(pub u32);

impl fmt::Display for Ptid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ptid{}", self.0)
    }
}

/// A **virtual** thread id: what instruction operands name; translated to
/// a [`Ptid`] through the caller's Thread Descriptor Table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vtid(pub u16);

impl fmt::Display for Vtid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vtid{}", self.0)
    }
}

/// Execution state of a hardware thread (§3: "a given ptid can be in one
/// of three states: runnable, waiting, or disabled").
///
/// `Halted` is a simulator refinement of `Disabled`: a thread that
/// executed `halt` and is finished for good, so tests can tell orderly
/// completion from being stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// May be scheduled onto a pipeline slot.
    Runnable,
    /// Parked in `mwait`, waiting for a monitored write.
    Waiting,
    /// Not executing until another thread `start`s it.
    #[default]
    Disabled,
    /// Executed `halt`; never scheduled again.
    Halted,
}

impl ThreadState {
    /// Whether `rpull`/`rpush` may access this thread's registers.
    ///
    /// §3.1 specifies register access to *disabled* ptids; `Waiting` and
    /// `Halted` threads are also quiescent, but the conservative reading
    /// (and our implementation) permits only `Disabled` and `Halted`.
    #[must_use]
    pub fn is_register_accessible(self) -> bool {
        matches!(self, ThreadState::Disabled | ThreadState::Halted)
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThreadState::Runnable => "runnable",
            ThreadState::Waiting => "waiting",
            ThreadState::Disabled => "disabled",
            ThreadState::Halted => "halted",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_disabled() {
        assert_eq!(ThreadState::default(), ThreadState::Disabled);
    }

    #[test]
    fn register_access_classification() {
        assert!(ThreadState::Disabled.is_register_accessible());
        assert!(ThreadState::Halted.is_register_accessible());
        assert!(!ThreadState::Runnable.is_register_accessible());
        assert!(!ThreadState::Waiting.is_register_accessible());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ptid(3).to_string(), "ptid3");
        assert_eq!(Vtid(7).to_string(), "vtid7");
        assert_eq!(ThreadState::Waiting.to_string(), "waiting");
    }
}
