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

/// Bytes per submission-queue entry: `[op|len: u64][buf_addr: u64]`.
pub const SQ_ENTRY_BYTES: u64 = 16;

/// A driver-facing NVMe-style submission queue: the driver writes
/// entries into the SQ ring and stores the new tail to the doorbell;
/// the device consumes entries immediately (MMIO) and completes each
/// after its latency via the paired [`Ssd`]'s completion queue.
///
/// Entry encoding: word 0 = `(len << 8) | op` with op 1 = read,
/// 2 = write; word 1 = destination buffer for reads.
#[derive(Clone, Copy, Debug)]
pub struct SsdQueue {
    /// The completion side.
    pub ssd: Ssd,
    /// Submission-ring slots (power of two).
    pub sq_slots: u64,
    /// Base of the submission ring.
    pub sq_base: u64,
    /// Submission doorbell word (driver stores the new tail here).
    pub doorbell: u64,
}

impl SsdQueue {
    /// Allocates the submission ring and registers the doorbell hook.
    ///
    /// # Panics
    ///
    /// Panics if the config or `sq_slots` is invalid;
    /// [`SsdQueue::try_attach`] is the non-panicking variant.
    pub fn attach(m: &mut Machine, config: SsdConfig, sq_slots: u64) -> SsdQueue {
        SsdQueue::try_attach(m, config, sq_slots).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating [`SsdQueue::attach`] with a structured error.
    pub fn try_attach(
        m: &mut Machine,
        config: SsdConfig,
        sq_slots: u64,
    ) -> Result<SsdQueue, SimError> {
        if !sq_slots.is_power_of_two() {
            return Err(SimError::Config {
                context: "ssd queue",
                detail: format!("sq_slots {sq_slots} must be a nonzero power of two"),
            });
        }
        let ssd = Ssd::try_attach(m, config)?;
        let sq_base = m.alloc(sq_slots * SQ_ENTRY_BYTES);
        let doorbell = m.alloc(64);
        let q = SsdQueue {
            ssd,
            sq_slots,
            sq_base,
            doorbell,
        };
        let consumed = std::rc::Rc::new(std::cell::Cell::new(0u64));
        m.register_mmio(doorbell, move |mach, tail| {
            let mut seq = consumed.get();
            while seq < tail {
                let e0 = mach.peek_u64(q.sq_addr(seq));
                let buf = mach.peek_u64(q.sq_addr(seq) + 8);
                let op = match e0 & 0xff {
                    1 => SsdOp::Read {
                        buf_addr: buf,
                        len: (e0 >> 8).min(1 << 20),
                    },
                    _ => SsdOp::Write,
                };
                let now = mach.now();
                q.ssd.submit(mach, now, seq, op, seq);
                seq += 1;
            }
            consumed.set(seq);
        });
        Ok(q)
    }

    /// Address of submission entry `seq`.
    #[must_use]
    pub fn sq_addr(&self, seq: u64) -> u64 {
        self.sq_base + (seq & (self.sq_slots - 1)) * SQ_ENTRY_BYTES
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::asm::assemble;

    #[test]
    fn driver_thread_submits_read_and_blocks() {
        // The §2 storage path entirely in assembly: build the SQ entry,
        // ring the doorbell, mwait on the CQ tail, read the DMA'd data.
        let mut m = Machine::new(MachineConfig::small());
        let q = SsdQueue::attach(
            &mut m,
            SsdConfig {
                read_latency: Cycles(9_000), // 3 µs NVM-class read
                ..SsdConfig::default()
            },
            16,
        );
        let buf = m.alloc(4096);
        let prog = assemble(&format!(
            r#"
            entry:
                movi r3, {sq}
                movi r1, {e0}       ; (512 << 8) | read
                st r1, r3, 0
                movi r1, {buf}
                st r1, r3, 8
                movi r2, 1
                st r2, {bell}       ; submission doorbell
            wait:
                monitor {cq}
                ld r4, {cq}
                beq r4, r2, done
                mwait
                jmp wait
            done:
                movi r5, {buf}
                ldb r6, r5, 1       ; second byte of the DMA pattern (= 1)
                halt
            "#,
            sq = q.sq_addr(0),
            e0 = (512u64 << 8) | 1,
            buf = buf,
            bell = q.doorbell,
            cq = q.ssd.cq_tail,
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        assert!(m.run_until_state(tid, ThreadState::Waiting, Cycles(100_000)));
        assert_eq!(q.ssd.tail(&m), 0, "parked during the device latency");
        assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(200_000)));
        assert_eq!(q.ssd.tail(&m), 1);
        assert_eq!(m.thread_reg(tid, 6), 1, "driver saw the DMA'd data");
        assert_eq!(m.counters().get("ssd.completions"), 1);
    }

    #[test]
    fn guest_read_into_a_buffer_outside_memory_fails_the_read() {
        // A guest names a buffer past the end of memory: the machine
        // drops the data DMA and the read completes with an error.
        let mut m = Machine::new(MachineConfig::small());
        let q = SsdQueue::attach(&mut m, SsdConfig::default(), 16);
        let prog = assemble(&format!(
            r#"
            entry:
                movi r3, {sq}
                movi r1, {e0}       ; (512 << 8) | read
                st r1, r3, 0
                movi r1, {buf}
                st r1, r3, 8
                movi r2, 1
                st r2, {bell}       ; submission doorbell
            wait:
                monitor {cq}
                ld r4, {cq}
                beq r4, r2, done
                mwait
                jmp wait
            done:
                movi r5, {entry}
                ld r6, r5, 8        ; completion sequence word
                halt
            "#,
            sq = q.sq_addr(0),
            e0 = (512u64 << 8) | 1,
            buf = 0x7fff_0000u64,
            bell = q.doorbell,
            cq = q.ssd.cq_tail,
            entry = q.ssd.cq_addr(0),
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(200_000)));
        assert_eq!(m.thread_reg(tid, 6), CQ_STATUS_ERROR, "seq 0, error bit");
        assert_eq!(m.counters().get("dma.rejected"), 1);
        assert_eq!(m.counters().get("ssd.completions"), 1);
        assert_eq!(m.counters().get("ssd.read_errors"), 0, "not a media error");
    }

    #[test]
    fn batched_submissions_all_complete() {
        let mut m = Machine::new(MachineConfig::small());
        let q = SsdQueue::attach(&mut m, SsdConfig::default(), 16);
        for seq in 0..5u64 {
            m.poke_u64(q.sq_addr(seq), 2); // writes
        }
        m.poke_u64(q.doorbell, 5);
        m.run_for(Cycles(200_000));
        assert_eq!(q.ssd.tail(&m), 5);
    }
}
