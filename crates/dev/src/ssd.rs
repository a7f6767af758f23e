//! An NVMe-style SSD model: submission → modeled device latency →
//! completion DMA + completion-queue tail bump.
//!
//! The kernel (or an application I/O thread) submits commands through the
//! host API; the device answers by writing a completion entry and bumping
//! the CQ tail word — the address an I/O thread `mwait`s on. This is the
//! storage-side twin of the NIC RX path and drives the "fast I/O without
//! polling" experiments for storage-like latencies (ReFlex `[49]`, i10
//! `[40]` motivate the paper's argument).

use switchless_core::machine::Machine;
use switchless_sim::error::SimError;
use switchless_sim::fault::FaultKind;
use switchless_sim::time::Cycles;

/// Bytes per completion-queue entry.
pub const CQ_ENTRY_BYTES: u64 = 16;

/// Status bit set in a completion entry's sequence word when the command
/// failed on the device (media error on a read). The low bits still hold
/// the sequence number.
pub const CQ_STATUS_ERROR: u64 = 1 << 63;

/// SSD parameters.
#[derive(Clone, Copy, Debug)]
pub struct SsdConfig {
    /// Completion-queue slots (power of two).
    pub cq_slots: u64,
    /// Device-internal latency for a read command (modern NVMe ~10 µs;
    /// fast NVM ~ 3 µs). 30_000 cycles = 10 µs at 3 GHz.
    pub read_latency: Cycles,
    /// Device-internal latency for a write command.
    pub write_latency: Cycles,
}

impl Default for SsdConfig {
    fn default() -> SsdConfig {
        SsdConfig {
            cq_slots: 256,
            read_latency: Cycles(30_000),
            write_latency: Cycles(60_000),
        }
    }
}

/// Command kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdOp {
    /// Read `len` bytes of (synthetic) data into `buf_addr`.
    Read {
        /// Destination buffer in simulated memory.
        buf_addr: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Write (data content is not modeled; only timing).
    Write,
}

/// An attached SSD.
#[derive(Clone, Copy, Debug)]
pub struct Ssd {
    config: SsdConfig,
    /// Address of the completion-queue tail counter word.
    pub cq_tail: u64,
    /// Base of the completion entries.
    pub cq_base: u64,
}

impl Ssd {
    /// Allocates queue memory and returns the device.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`SsdConfig`]; [`Ssd::try_attach`] is the
    /// non-panicking variant.
    pub fn attach(m: &mut Machine, config: SsdConfig) -> Ssd {
        Ssd::try_attach(m, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating [`Ssd::attach`] with a structured error.
    pub fn try_attach(m: &mut Machine, config: SsdConfig) -> Result<Ssd, SimError> {
        if !config.cq_slots.is_power_of_two() {
            return Err(SimError::Config {
                context: "ssd",
                detail: format!(
                    "cq_slots {} must be a nonzero power of two",
                    config.cq_slots
                ),
            });
        }
        let cq_tail = m.alloc(64);
        let cq_base = m.alloc(config.cq_slots * CQ_ENTRY_BYTES);
        Ok(Ssd {
            config,
            cq_tail,
            cq_base,
        })
    }

    /// Address of completion entry `seq`.
    #[must_use]
    pub fn cq_addr(&self, seq: u64) -> u64 {
        self.cq_base + (seq & (self.config.cq_slots - 1)) * CQ_ENTRY_BYTES
    }

    /// Submits command number `seq` with user cookie `cookie` at time
    /// `at`; the completion lands after the op's device latency.
    ///
    /// Fault injection (when a plan is installed on the machine):
    /// [`FaultKind::SsdLatencySpike`] adds a drawn pause (GC/error
    /// recovery) to the device latency. [`FaultKind::SsdReadError`] fails
    /// a read on the media: no data DMA, and the completion's sequence
    /// word carries [`CQ_STATUS_ERROR`]; so does a read whose buffer lies
    /// outside memory, whose data DMA the machine drops.
    /// [`FaultKind::SsdTornCompletion`] tears the completion entry:
    /// cookie and tail bump land on time but the sequence word lands
    /// late, so a consumer woken by the tail briefly reads a stale
    /// sequence word — which is why drivers validate it and re-read. The
    /// tail bump is monotone so delayed completions never rewind it.
    pub fn submit(&self, m: &mut Machine, at: Cycles, seq: u64, op: SsdOp, cookie: u64) {
        let dev = *self;
        // Ring conservation: every submission must complete (even a media
        // error posts its completion entry) — the SSD never drops.
        let led = m.ledger("ssd.cq");
        led.posted += 1;
        led.in_flight += 1;
        let mut latency = match op {
            SsdOp::Read { .. } => dev.config.read_latency,
            SsdOp::Write => dev.config.write_latency,
        };
        if m.fault_draw(FaultKind::SsdLatencySpike) {
            latency += m.fault_delay(FaultKind::SsdLatencySpike);
        }
        let read_error = matches!(op, SsdOp::Read { .. }) && m.fault_draw(FaultKind::SsdReadError);
        let torn_delay = if m.fault_draw(FaultKind::SsdTornCompletion) {
            Some(m.fault_delay(FaultKind::SsdTornCompletion))
        } else {
            None
        };
        m.at(at + latency, move |mach| {
            let failed = match op {
                SsdOp::Read { .. } if read_error => {
                    mach.counters_mut().inc("ssd.read_errors");
                    true
                }
                SsdOp::Read { buf_addr, len } => {
                    // Synthetic data: a repeating pattern derived from seq.
                    let data: Vec<u8> = (0..len).map(|i| ((seq + i) & 0xff) as u8).collect();
                    // A buffer outside memory drops the DMA: the read fails.
                    !mach.dma_write(buf_addr, &data)
                }
                SsdOp::Write => false,
            };
            let status_seq = if failed { seq | CQ_STATUS_ERROR } else { seq };
            match torn_delay {
                None => {
                    let mut entry = [0u8; CQ_ENTRY_BYTES as usize];
                    entry[..8].copy_from_slice(&cookie.to_le_bytes());
                    entry[8..].copy_from_slice(&status_seq.to_le_bytes());
                    mach.dma_write(dev.cq_addr(seq), &entry);
                }
                Some(d) => {
                    // Torn: cookie now, sequence word after the tear gap.
                    mach.dma_write(dev.cq_addr(seq), &cookie.to_le_bytes());
                    let heal_at = mach.now() + d;
                    mach.at(heal_at, move |inner| {
                        inner.dma_write(dev.cq_addr(seq) + 8, &status_seq.to_le_bytes());
                    });
                }
            }
            let tail = (seq + 1).max(mach.peek_u64(dev.cq_tail));
            mach.dma_write(dev.cq_tail, &tail.to_le_bytes());
            mach.counters_mut().inc("ssd.completions");
            let led = mach.ledger("ssd.cq");
            led.in_flight -= 1;
            led.completed += 1;
        });
    }

    /// Current completion tail (host-side).
    #[must_use]
    pub fn tail(&self, m: &Machine) -> u64 {
        m.peek_u64(self.cq_tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::asm::assemble;
    use switchless_sim::fault::FaultPlan;

    #[test]
    fn read_completes_with_data_and_cookie() {
        let mut m = Machine::new(MachineConfig::small());
        let ssd = Ssd::attach(&mut m, SsdConfig::default());
        let buf = m.alloc(4096);
        ssd.submit(
            &mut m,
            Cycles(0),
            0,
            SsdOp::Read {
                buf_addr: buf,
                len: 512,
            },
            0xdead,
        );
        m.run_for(Cycles(100_000));
        assert_eq!(ssd.tail(&m), 1);
        assert_eq!(m.peek_u64(ssd.cq_addr(0)), 0xdead);
        assert_eq!(m.counters().get("ssd.completions"), 1);
        // Data pattern arrived.
        let first = m.peek_u64(buf);
        assert_ne!(first, 0);
    }

    #[test]
    fn completion_latency_matches_config() {
        let mut m = Machine::new(MachineConfig::small());
        let ssd = Ssd::attach(
            &mut m,
            SsdConfig {
                read_latency: Cycles(5000),
                ..SsdConfig::default()
            },
        );
        let buf = m.alloc(512);
        ssd.submit(
            &mut m,
            Cycles(1000),
            0,
            SsdOp::Read {
                buf_addr: buf,
                len: 8,
            },
            1,
        );
        m.run_for(Cycles(5999));
        assert_eq!(ssd.tail(&m), 0, "not yet complete");
        m.run_for(Cycles(2));
        assert_eq!(ssd.tail(&m), 1);
    }

    #[test]
    fn read_error_sets_status_bit_and_skips_data() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(FaultPlan::new(4).with_rate(FaultKind::SsdReadError, 1.0));
        let ssd = Ssd::attach(&mut m, SsdConfig::default());
        let buf = m.alloc(512);
        ssd.submit(
            &mut m,
            Cycles(0),
            0,
            SsdOp::Read {
                buf_addr: buf,
                len: 64,
            },
            0xc0de,
        );
        m.run_for(Cycles(100_000));
        assert_eq!(ssd.tail(&m), 1, "errored command still completes");
        assert_eq!(m.peek_u64(buf), 0, "no data DMA on a media error");
        let seq_word = m.peek_u64(ssd.cq_addr(0) + 8);
        assert_ne!(seq_word & CQ_STATUS_ERROR, 0, "error bit set");
        assert_eq!(seq_word & !CQ_STATUS_ERROR, 0, "sequence preserved");
        assert_eq!(m.counters().get("fault.ssd.read_error"), 1);
        assert_eq!(m.counters().get("ssd.read_errors"), 1);
    }

    #[test]
    fn latency_spike_delays_completion() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(
            FaultPlan::new(5)
                .with_rate(FaultKind::SsdLatencySpike, 1.0)
                .with_delay(FaultKind::SsdLatencySpike, Cycles(100_000), Cycles(100_000)),
        );
        let ssd = Ssd::attach(
            &mut m,
            SsdConfig {
                read_latency: Cycles(5_000),
                ..SsdConfig::default()
            },
        );
        let buf = m.alloc(512);
        ssd.submit(
            &mut m,
            Cycles(0),
            0,
            SsdOp::Read {
                buf_addr: buf,
                len: 8,
            },
            1,
        );
        m.run_for(Cycles(104_000));
        assert_eq!(ssd.tail(&m), 0, "still inside the spike");
        m.run_for(Cycles(2_000));
        assert_eq!(ssd.tail(&m), 1, "completed after base + spike");
        assert_eq!(m.counters().get("fault.ssd.latency_spike"), 1);
    }

    #[test]
    fn torn_completion_heals_after_the_gap() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(
            FaultPlan::new(6)
                .with_rate(FaultKind::SsdTornCompletion, 1.0)
                .with_delay(FaultKind::SsdTornCompletion, Cycles(5_000), Cycles(5_000)),
        );
        let ssd = Ssd::attach(&mut m, SsdConfig::default());
        // A nonzero seq so the stale (zero) word is distinguishable.
        ssd.submit(&mut m, Cycles(0), 5, SsdOp::Write, 0xfeed);
        m.run_for(Cycles(61_000));
        assert_eq!(ssd.tail(&m), 6, "tail bumped on time");
        assert_eq!(m.peek_u64(ssd.cq_addr(5)), 0xfeed, "cookie on time");
        assert_eq!(m.peek_u64(ssd.cq_addr(5) + 8), 0, "sequence word torn");
        m.run_for(Cycles(6_000));
        assert_eq!(m.peek_u64(ssd.cq_addr(5) + 8), 5, "re-read sees it healed");
        assert_eq!(m.counters().get("fault.ssd.torn_completion"), 1);
    }

    #[test]
    fn io_thread_blocks_until_completion() {
        let mut m = Machine::new(MachineConfig::small());
        let ssd = Ssd::attach(&mut m, SsdConfig::default());
        let prog = assemble(&format!(
            r#"
            entry:
                monitor {tail}
                mwait
                ld r1, {tail}
                halt
            "#,
            tail = ssd.cq_tail
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        m.run_for(Cycles(2000));
        assert_eq!(m.thread_state(tid), ThreadState::Waiting);
        let now = m.now();
        ssd.submit(&mut m, now, 0, SsdOp::Write, 7);
        m.run_for(Cycles(100_000));
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
        assert_eq!(m.thread_reg(tid, 1), 1);
    }
}
