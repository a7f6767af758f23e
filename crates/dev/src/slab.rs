//! Pending device records: the data a queued device event names.
//!
//! A device that schedules work keeps what the work needs here and
//! queues the record's key as its event `arg`
//! ([`switchless_core::Machine::at_device`]); its handler takes the
//! record back when the event runs.

/// Records keyed by the `arg` of the device event that will consume
/// them. A taken key is reused, so the slab is as large as the most
/// records ever pending at once.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `rec`; returns its key.
    pub fn insert(&mut self, rec: T) -> u64 {
        match self.free.pop() {
            Some(key) => {
                self.slots[key as usize] = Some(rec);
                key
            }
            None => {
                self.slots.push(Some(rec));
                self.slots.len() as u64 - 1
            }
        }
    }

    /// Removes and returns the record under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` holds no record: each queued key is taken once.
    pub fn take(&mut self, key: u64) -> T {
        let rec = self.slots[key as usize]
            .take()
            .expect("a queued key holds its record");
        self.free.push(key);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::Slab;

    #[test]
    fn taken_keys_are_reused() {
        let mut s = Slab::default();
        let (a, b) = (s.insert('a'), s.insert('b'));
        assert_eq!(s.take(a), 'a');
        assert_eq!(s.insert('c'), a, "the freed key comes back");
        assert_eq!((s.take(b), s.take(a)), ('b', 'c'));
        assert_eq!(s.slots.len(), 2, "as large as the most ever pending");
    }
}
