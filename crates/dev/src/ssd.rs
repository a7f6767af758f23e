//! An NVMe-style SSD model: submission → modeled device latency →
//! completion DMA + completion-queue tail bump.
//!
//! The kernel (or an application I/O thread) submits commands through the
//! host API; the device answers by writing a completion entry and bumping
//! the CQ tail word — the address an I/O thread `mwait`s on. This is the
//! storage-side twin of the NIC RX path and drives the "fast I/O without
//! polling" experiments for storage-like latencies (ReFlex `[49]`, i10
//! `[40]` motivate the paper's argument).

use std::cell::RefCell;
use std::rc::Rc;

use switchless_core::machine::{DeviceId, Machine};
use switchless_sim::error::SimError;
use switchless_sim::fault::FaultKind;
use switchless_sim::time::Cycles;

use crate::slab::Slab;

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
///
/// Clones share one device: the same registered handlers and the same
/// pending completions.
#[derive(Clone, Debug)]
pub struct Ssd {
    config: SsdConfig,
    /// Address of the completion-queue tail counter word.
    pub cq_tail: u64,
    /// Base of the completion entries.
    pub cq_base: u64,
    cq: Cq,
    /// The completion handler, registered at attach.
    device: DeviceId,
    /// Completions submitted and not yet landed.
    pending: Rc<RefCell<Slab<Completion>>>,
}

/// What landing a completion writes to, copied into the handlers.
#[derive(Clone, Copy, Debug)]
struct Cq {
    tail: u64,
    base: u64,
    slot_mask: u64,
}

/// Command `seq`'s completion, with the faults drawn at submission.
#[derive(Clone, Copy, Debug)]
struct Completion {
    seq: u64,
    op: SsdOp,
    cookie: u64,
    read_error: bool,
    torn_delay: Option<Cycles>,
}

impl Cq {
    fn addr(&self, seq: u64) -> u64 {
        self.base + (seq & self.slot_mask) * CQ_ENTRY_BYTES
    }

    /// Lands completion `c`: read data (built in the reused `data`
    /// buffer), the entry, the monotone tail bump, then the count and
    /// the `ssd.cq` ledger. A torn entry queues an event of the `heal`
    /// device, whose `arg` is the sequence word still to land.
    fn complete(&self, mach: &mut Machine, heal: DeviceId, data: &mut Vec<u8>, c: Completion) {
        let failed = match c.op {
            SsdOp::Read { .. } if c.read_error => {
                mach.counters_mut().inc("ssd.read_errors");
                true
            }
            SsdOp::Read { buf_addr, len } => {
                // Synthetic data: a repeating pattern derived from seq.
                data.clear();
                data.extend((0..len).map(|i| ((c.seq + i) & 0xff) as u8));
                // A buffer outside memory drops the DMA: the read fails.
                !mach.dma_write(buf_addr, data)
            }
            SsdOp::Write => false,
        };
        let status_seq = if failed {
            c.seq | CQ_STATUS_ERROR
        } else {
            c.seq
        };
        match c.torn_delay {
            None => {
                let mut entry = [0u8; CQ_ENTRY_BYTES as usize];
                entry[..8].copy_from_slice(&c.cookie.to_le_bytes());
                entry[8..].copy_from_slice(&status_seq.to_le_bytes());
                mach.dma_write(self.addr(c.seq), &entry);
            }
            Some(d) => {
                // Torn: cookie now, sequence word after the tear gap.
                mach.dma_write(self.addr(c.seq), &c.cookie.to_le_bytes());
                mach.at_device(mach.now() + d, heal, status_seq);
            }
        }
        let tail = (c.seq + 1).max(mach.peek_u64(self.tail));
        mach.dma_write(self.tail, &tail.to_le_bytes());
        mach.counters_mut().inc("ssd.completions");
        let led = mach.ledger("ssd.cq");
        led.in_flight -= 1;
        led.completed += 1;
    }
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
        let cq = Cq {
            tail: cq_tail,
            base: cq_base,
            slot_mask: config.cq_slots - 1,
        };
        // A heal's whole state is the sequence word it lands: its low
        // bits name the entry (the error bit lies above the slot mask).
        let heal = m.register_device(move |mach, _, status_seq| {
            mach.dma_write(cq.addr(status_seq) + 8, &status_seq.to_le_bytes());
        });
        let pending: Rc<RefCell<Slab<Completion>>> = Rc::default();
        let store = Rc::clone(&pending);
        // The record leaves the slab before it lands, so the handler
        // holds no borrow while the machine runs.
        let mut data = Vec::new();
        let device = m.register_device(move |mach, _, key| {
            let c = store.borrow_mut().take(key);
            cq.complete(mach, heal, &mut data, c);
        });
        Ok(Ssd {
            config,
            cq_tail,
            cq_base,
            cq,
            device,
            pending,
        })
    }

    /// Address of completion entry `seq`.
    #[must_use]
    pub fn cq_addr(&self, seq: u64) -> u64 {
        self.cq.addr(seq)
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
        // Ring conservation: every submission must complete (even a media
        // error posts its completion entry) — the SSD never drops.
        let led = m.ledger("ssd.cq");
        led.posted += 1;
        led.in_flight += 1;
        let mut latency = match op {
            SsdOp::Read { .. } => self.config.read_latency,
            SsdOp::Write => self.config.write_latency,
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
        let key = self.pending.borrow_mut().insert(Completion {
            seq,
            op,
            cookie,
            read_error,
            torn_delay,
        });
        m.at_device(at + latency, self.device, key);
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

    /// The per-command completion [`Ssd::submit`] replaced, kept as the
    /// oracle the device path is diffed against: each completion, and
    /// each torn completion's heal, registers a one-shot device whose
    /// handler owns everything it lands, outside the SSD's records.
    fn submit_closure(ssd: &Ssd, m: &mut Machine, at: Cycles, seq: u64, op: SsdOp, cookie: u64) {
        let cq = ssd.cq;
        let led = m.ledger("ssd.cq");
        led.posted += 1;
        led.in_flight += 1;
        let mut latency = match op {
            SsdOp::Read { .. } => ssd.config.read_latency,
            SsdOp::Write => ssd.config.write_latency,
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
        let once = m.register_device(move |mach, _, _| {
            let failed = match op {
                SsdOp::Read { .. } if read_error => {
                    mach.counters_mut().inc("ssd.read_errors");
                    true
                }
                SsdOp::Read { buf_addr, len } => {
                    let data: Vec<u8> = (0..len).map(|i| ((seq + i) & 0xff) as u8).collect();
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
                    mach.dma_write(cq.addr(seq), &entry);
                }
                Some(d) => {
                    mach.dma_write(cq.addr(seq), &cookie.to_le_bytes());
                    let heal = mach.register_device(move |inner, _, _| {
                        inner.dma_write(cq.addr(seq) + 8, &status_seq.to_le_bytes());
                    });
                    let heal_at = mach.now() + d;
                    mach.at_device(heal_at, heal, 0);
                }
            }
            let tail = (seq + 1).max(mach.peek_u64(cq.tail));
            mach.dma_write(cq.tail, &tail.to_le_bytes());
            mach.counters_mut().inc("ssd.completions");
            let led = mach.ledger("ssd.cq");
            led.in_flight -= 1;
            led.completed += 1;
        });
        m.at_device(at + latency, once, 0);
    }

    type Submit = fn(&Ssd, &mut Machine, Cycles, u64, SsdOp, u64);

    /// Command `seq`: reads (some into a buffer outside memory) and
    /// writes, mixed.
    fn op(seq: u64, buf: u64) -> SsdOp {
        match seq % 5 {
            0 | 2 => SsdOp::Read {
                buf_addr: buf + (seq % 4) * 64,
                len: 8 + seq % 57,
            },
            3 if seq % 10 == 3 => SsdOp::Read {
                buf_addr: u64::MAX - 16,
                len: 32,
            },
            _ => SsdOp::Write,
        }
    }

    /// Everything a run can observe: clock, counters, the `ssd.cq`
    /// ledger, the CQ tail, what a tail hook saw in the entry at each
    /// bump, thread states and registers, the thread-transition trace
    /// and the whole memory image.
    fn ssd_scenario(submit: Submit) -> String {
        use std::cell::Cell;
        use std::fmt::Write as _;
        let mut m = Machine::new(MachineConfig::small());
        m.trace_mut().set_enabled(true);
        m.install_fault_plan(
            FaultPlan::new(23)
                .with_rate(FaultKind::SsdLatencySpike, 0.2)
                .with_delay(FaultKind::SsdLatencySpike, Cycles(100), Cycles(20_000))
                .with_rate(FaultKind::SsdReadError, 0.2)
                .with_rate(FaultKind::SsdTornCompletion, 0.25)
                .with_delay(FaultKind::SsdTornCompletion, Cycles(50), Cycles(4_000)),
        );
        let ssd = Ssd::attach(
            &mut m,
            SsdConfig {
                cq_slots: 16,
                read_latency: Cycles(3_000),
                write_latency: Cycles(5_000),
            },
        );
        let buf = m.alloc(512);
        // Two consumers park on the tail and read the newest entry's
        // sequence word; a compute loop keeps slot events queued, so
        // completions tie with them.
        let mut tids = Vec::new();
        for base in [0x10000u64, 0x11000] {
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r1, 0
                wait:
                    monitor {tail}
                    ld r2, {tail}
                    bne r2, r1, fresh
                    mwait
                    jmp wait
                fresh:
                    addi r1, r2, 0
                    ld r4, {entry}
                    add r5, r5, r4
                    addi r3, r3, 1
                    jmp wait
                "#,
                tail = ssd.cq_tail,
                entry = ssd.cq_addr(0) + 8,
            ))
            .unwrap();
            tids.push(m.load_program(0, &prog).unwrap());
        }
        let prog =
            assemble(".base 0x12000\nentry:\n addi r1, r1, 1\n work 7\n jmp entry\n").unwrap();
        tids.push(m.load_program(0, &prog).unwrap());
        for &t in &tids {
            m.start_thread(t);
        }
        // Pairs submitted at the same cycle complete at the same cycle
        // unless a spike parts them.
        for seq in 0..240u64 {
            let at = Cycles(2_000 + (seq / 2) * 173);
            submit(&ssd, &mut m, at, seq, op(seq, buf), 0xc0_0000 + seq);
        }
        // At each tail bump a host hook reads the entry the bump
        // publishes (it must already be there), and every seventh value
        // submits one more command from inside that completion.
        let seen: Rc<RefCell<Vec<(u64, u64, u64)>>> = Rc::default();
        let (s, hook_ssd) = (Rc::clone(&seen), ssd.clone());
        let extra = Rc::new(Cell::new(1_000u64));
        let x = Rc::clone(&extra);
        m.register_mmio(ssd.cq_tail, move |mach, tail| {
            let entry = hook_ssd.cq_addr(tail.wrapping_sub(1));
            s.borrow_mut()
                .push((mach.now().0, tail, mach.peek_u64(entry)));
            if tail % 7 == 0 && x.get() < 1_040 {
                let seq = x.get();
                x.set(seq + 1);
                let now = mach.now();
                submit(&hook_ssd, mach, now + Cycles(30), seq, op(seq, buf), seq);
            }
        });
        m.run_for(Cycles(120_000));

        let mut out = String::new();
        let _ = writeln!(out, "now={:?} tail={}", m.now(), ssd.tail(&m));
        let _ = writeln!(out, "extra={}", extra.get() - 1_000);
        for (name, v) in m.counters().iter() {
            let _ = writeln!(out, "ctr {name}={v}");
        }
        let _ = writeln!(out, "ledger {:?}", *m.ledger("ssd.cq"));
        let _ = writeln!(out, "seen {:?}", seen.borrow());
        for &t in &tids {
            let regs: Vec<u64> = (0..6).map(|r| m.thread_reg(t, r)).collect();
            let _ = writeln!(out, "thread {:?} {regs:?}", m.thread_state(t));
        }
        for r in m.trace().snapshot() {
            let _ = writeln!(out, "{r}");
        }
        let mut image = switchless_sim::chaos::Digest::new();
        for a in (0..m.config().mem_bytes).step_by(8) {
            image.push_u64(m.peek_u64(a));
        }
        let _ = writeln!(out, "memory {:#x}", image.finish());
        out
    }

    #[test]
    fn device_completion_matches_the_closure_reference() {
        let device = ssd_scenario(Ssd::submit);
        let reference = ssd_scenario(submit_closure);
        assert_eq!(device, reference);
        // The scenario exercised what it claims to.
        let ctr = |probe: &str| {
            device
                .lines()
                .find_map(|l| l.strip_prefix(probe))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        for probe in [
            "ctr fault.ssd.latency_spike=",
            "ctr fault.ssd.read_error=",
            "ctr fault.ssd.torn_completion=",
            "ctr dma.rejected=",
        ] {
            assert!(ctr(probe) > 0, "{probe} fired");
        }
        assert!(ctr("ctr ssd.completions=") > 250, "trace and hook commands");
        assert!(ctr("extra=") > 10, "completions submitted commands");
        assert!(device.contains("Wake"), "consumers woke: trace has wakes");
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
