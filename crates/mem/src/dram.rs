//! A simple DRAM timing model: fixed access latency plus channel
//! bandwidth queueing.
//!
//! §4's key capacity argument is that thread state spilled *off-chip* pays
//! "severe performance losses", so the DRAM model only needs to be accurate
//! enough to make off-chip clearly worse than L2/L3: a fixed CAS-ish
//! latency plus a per-channel busy window that models bandwidth contention
//! under bursts (e.g. many thread-state transfers at once).

use switchless_sim::time::Cycles;

/// Configuration for the [`Dram`] model.
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Idle (unloaded) access latency. ~60 ns at 3 GHz ≈ 180 cycles.
    pub latency: Cycles,
    /// Cycles a channel stays busy per 64-byte line transferred
    /// (64 B / ~25.6 GB/s at 3 GHz ≈ 8 cycles).
    pub cycles_per_line: Cycles,
    /// Number of independent channels.
    pub channels: usize,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig {
            latency: Cycles(180),
            cycles_per_line: Cycles(8),
            channels: 4,
        }
    }
}

/// DRAM with per-channel bandwidth occupancy.
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    /// Per-channel time at which the channel becomes free.
    busy_until: Vec<Cycles>,
    accesses: u64,
    stalled: u64,
}

impl Dram {
    /// Creates an idle DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    #[must_use]
    pub fn new(config: DramConfig) -> Dram {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        Dram {
            config,
            busy_until: vec![Cycles::ZERO; config.channels],
            accesses: 0,
            stalled: 0,
        }
    }

    /// Performs a line access at time `now` on the channel selected by the
    /// line address; returns total latency including queueing.
    pub fn access_line(&mut self, now: Cycles, line_addr: u64) -> Cycles {
        self.accesses += 1;
        let ch = (line_addr / 64) as usize % self.busy_until.len();
        let start = now.max(self.busy_until[ch]);
        if start > now {
            self.stalled += 1;
        }
        let done = start + self.config.cycles_per_line;
        self.busy_until[ch] = done;
        (done - now) + self.config.latency
    }

    /// Lifetime (accesses, accesses-that-queued).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_channel() -> Dram {
        Dram::new(DramConfig {
            latency: Cycles(180),
            cycles_per_line: Cycles(8),
            channels: 1,
        })
    }

    #[test]
    fn unloaded_latency() {
        let mut d = one_channel();
        assert_eq!(d.access_line(Cycles(0), 0), Cycles(188));
    }

    #[test]
    fn back_to_back_queues() {
        let mut d = one_channel();
        let a = d.access_line(Cycles(0), 0);
        let b = d.access_line(Cycles(0), 64);
        assert_eq!(a, Cycles(188));
        assert_eq!(b, Cycles(196), "second access waits for the channel");
        assert_eq!(d.stats(), (2, 1));
    }

    #[test]
    fn channels_are_independent() {
        let mut d = Dram::new(DramConfig {
            latency: Cycles(180),
            cycles_per_line: Cycles(8),
            channels: 2,
        });
        let a = d.access_line(Cycles(0), 0);
        let b = d.access_line(Cycles(0), 64); // different channel
        assert_eq!(a, b);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut d = one_channel();
        d.access_line(Cycles(0), 0);
        let later = d.access_line(Cycles(1000), 64);
        assert_eq!(later, Cycles(188));
    }

    #[test]
    fn bulk_transfer_pipelines() {
        // 4 consecutive lines on one channel overlap their latency: the
        // last completes at 180 + 4*8 = 212, not 4 * 188.
        let mut d = one_channel();
        let last = (0..4)
            .map(|i| d.access_line(Cycles(0), i * 64))
            .max()
            .unwrap();
        assert_eq!(last, Cycles(212));
    }
}
