//! Bounded in-memory event tracing.
//!
//! A [`TraceRing`] records typed, `Copy` records into a fixed ring
//! buffer. Tracing is off by default and then costs one branch per
//! record site and no memory; tests enable it to assert on ordering
//! (e.g. "the handler thread started before the second packet arrived")
//! and determinism (equal seeds produce equal traces).

use core::fmt;

/// A bounded ring of trace records.
#[derive(Clone, Debug)]
pub struct TraceRing<T> {
    events: Vec<T>,
    capacity: usize,
    head: usize,
    enabled: bool,
    dropped: u64,
}

impl<T: Copy> TraceRing<T> {
    /// Creates a disabled ring that can hold `capacity` records. Nothing
    /// is allocated until it is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TraceRing<T> {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            events: Vec::new(),
            capacity,
            head: 0,
            enabled: false,
            dropped: 0,
        }
    }

    /// Enables or disables recording; enabling reserves the whole ring.
    pub fn set_enabled(&mut self, on: bool) {
        if on {
            self.events.reserve_exact(self.capacity - self.events.len());
        }
        self.enabled = on;
    }

    /// Whether recording is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `ev` if tracing is enabled.
    ///
    /// When the ring is full the oldest record is overwritten and the
    /// `dropped` count incremented.
    #[inline]
    pub fn record(&mut self, ev: T) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Returns records oldest-first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Number of records overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears every record (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl<T: Copy + fmt::Display> TraceRing<T> {
    /// Renders the trace as one line per record, oldest first.
    #[must_use]
    pub fn dump(&self) -> String {
        self.snapshot()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = TraceRing::new(4);
        t.record(1u64);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.events.capacity(), 0, "a disabled ring allocates nothing");
    }

    #[test]
    fn records_in_order() {
        let mut t = TraceRing::new(8);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(i);
        }
        assert_eq!(t.snapshot(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraps_and_counts_drops() {
        let mut t = TraceRing::new(3);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(i);
        }
        assert_eq!(t.snapshot(), [2, 3, 4]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut t = TraceRing::new(2);
        t.set_enabled(true);
        t.record(1u64);
        t.clear();
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.enabled());
    }

    #[test]
    fn dump_format() {
        let mut t = TraceRing::new(2);
        t.set_enabled(true);
        t.record(42u64);
        t.record(7u64);
        assert_eq!(t.dump(), "42\n7");
    }
}
