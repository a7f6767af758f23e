//! "Fast I/O without Inefficient Polling" (§2): thread-per-request I/O
//! with blocking semantics and zero polling.
//!
//! Topology on one core:
//!
//! ```text
//! NIC --DMA--> rx tail word --wake--> dispatcher thread --wake--> worker threads
//! ```
//!
//! The dispatcher parks in `mwait` on the RX tail; on wake it drains new
//! descriptors and assigns each to an idle worker by bumping the
//! worker's mailbox word (an ordinary store — the wake mechanism is the
//! same everywhere). Workers park in `mwait` on their mailboxes and run
//! one request per wake. Nobody spins, ever; under zero load the engine
//! consumes zero cycles.
//!
//! Assignment bookkeeping and latency recording run as host services
//! (`hcall`), with the per-request service time charged to the worker
//! thread via [`Machine::charge`] — see DESIGN.md's modeling-shortcut
//! note.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use switchless_core::machine::{Machine, ThreadId};
use switchless_dev::nic::Nic;
use switchless_dev::Slab;
use switchless_isa::asm::assemble;
use switchless_sim::error::SimError;
use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;

/// Default hcall number for the dispatcher's drain service.
pub const HCALL_DISPATCH: u16 = 100;
/// Default hcall number for the worker's request service.
pub const HCALL_WORK: u16 = 101;

/// Capped-exponential retry schedule shared by the engine's descriptor
/// revalidation and the [`crate::nointr`] supervisor.
///
/// `backoff(n)` is the delay before retry number `n` (0-based):
/// `initial_backoff << n`, saturating, capped at `max_backoff`; `None`
/// once `max_retries` have been spent.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub initial_backoff: Cycles,
    /// Ceiling on any single delay.
    pub max_backoff: Cycles,
    /// Retries allowed before giving up.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            initial_backoff: Cycles(1_000), // ~333 ns
            max_backoff: Cycles(30_000),    // 10 us
            max_retries: 8,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry `retries_done` (0-based), or `None` if the
    /// budget is exhausted.
    #[must_use]
    pub fn backoff(&self, retries_done: u32) -> Option<Cycles> {
        if retries_done >= self.max_retries {
            return None;
        }
        let mult = 1u64.checked_shl(retries_done).unwrap_or(u64::MAX);
        Some(Cycles(
            self.initial_backoff
                .0
                .saturating_mul(mult)
                .min(self.max_backoff.0),
        ))
    }
}

/// Seals `payload` for [`IoEngine`] checksum validation: the last byte
/// becomes the wrapping sum of all preceding bytes.
///
/// # Panics
///
/// Panics if `payload` is shorter than 2 bytes.
pub fn checksum_seal(payload: &mut [u8]) {
    let n = payload.len();
    assert!(n >= 2, "checksummed payloads need >= 2 bytes");
    payload[n - 1] = payload[..n - 1].iter().fold(0u8, |a, &b| a.wrapping_add(b));
}

/// Whether a sealed payload still checks out. Payloads under 2 bytes
/// are vacuously valid.
#[must_use]
pub fn checksum_ok(payload: &[u8]) -> bool {
    let n = payload.len();
    if n < 2 {
        return true;
    }
    payload[..n - 1].iter().fold(0u8, |a, &b| a.wrapping_add(b)) == payload[n - 1]
}

#[derive(Clone, Copy, Debug)]
struct Packet {
    seq: u64,
    arrival: Cycles,
    service: Cycles,
    /// Descriptor-revalidation retries spent on this packet so far.
    attempt: u32,
}

#[derive(Clone, Copy, Debug)]
struct FaultHandling {
    policy: RetryPolicy,
    checksum: bool,
}

struct EngineState {
    nic: Nic,
    nic_tail: u64,
    /// Packets dispatched so far: the next packet's sequence number.
    seen: u64,
    /// Packet metadata `(seq, arrival, service)` registered by the
    /// harness, sorted by seq, one entry per seq, none below `seen`: so
    /// the head is the only entry the next dispatch can want.
    meta: VecDeque<(u64, Cycles, Cycles)>,
    /// Packets waiting for a free worker.
    backlog: VecDeque<Packet>,
    /// Per-worker assignment queues (at most one deep in practice).
    assigned: Vec<VecDeque<Packet>>,
    /// Worker mailbox addresses.
    mailboxes: Vec<u64>,
    /// Workers with no assignment in flight.
    idle: Vec<usize>,
    /// Per-packet dispatch bookkeeping cost charged to the dispatcher.
    dispatch_cost: Cycles,
    latency: Histogram,
    completed: u64,
    /// Descriptor revalidation + payload checksumming, off by default
    /// (and then the engine behaves bit-identically to before).
    fault: Option<FaultHandling>,
    /// Revalidation retries waiting out their backoff, as `(worker,
    /// packet)`, keyed by the `arg` of their `retry` device event.
    retries: Slab<(usize, Packet)>,
}

impl EngineState {
    /// Records a packet's metadata; see [`IoEngine::note_packet`].
    fn note(&mut self, seq: u64, arrival: Cycles, service: Cycles) {
        if seq < self.seen {
            return;
        }
        // Notes usually arrive in seq order and append.
        let i = match self.meta.back() {
            Some(&(last, ..)) if last >= seq => self.meta.partition_point(|e| e.0 < seq),
            _ => self.meta.len(),
        };
        if self.meta.get(i).is_some_and(|e| e.0 == seq) {
            self.meta[i] = (seq, arrival, service);
        } else {
            self.meta.insert(i, (seq, arrival, service));
        }
    }

    /// The next packet to dispatch, with its noted metadata or, unnoted,
    /// arrival `now` and a 1000-cycle service.
    fn next_packet(&mut self, now: Cycles) -> Packet {
        let seq = self.seen;
        self.seen += 1;
        let (arrival, service) = match self.meta.front() {
            Some(&(q, arrival, service)) if q == seq => {
                self.meta.pop_front();
                (arrival, service)
            }
            _ => (now, Cycles(1000)),
        };
        Packet {
            seq,
            arrival,
            service,
            attempt: 0,
        }
    }

    /// Assigns a packet to a specific worker: queue + mailbox bump.
    fn assign_to(&mut self, m: &mut Machine, worker: usize, pkt: Packet) {
        self.assigned[worker].push_back(pkt);
        let mb = self.mailboxes[worker];
        let v = m.peek_u64(mb).wrapping_add(1);
        m.poke_u64(mb, v);
    }
}

/// Charges the service time and records the completion.
fn complete(m: &mut Machine, s: &mut EngineState, pkt: Packet) {
    m.charge(pkt.service);
    let done = m.now() + pkt.service;
    s.latency.record((done - pkt.arrival).0);
    s.completed += 1;
}

/// Byte-granular read on top of the word-granular host peek.
fn peek_bytes(m: &Machine, addr: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for i in 0..len as u64 {
        let a = addr + i;
        let w = m.peek_u64(a & !7);
        out.push((w >> ((a & 7) * 8)) as u8);
    }
    out
}

/// The installed I/O engine.
pub struct IoEngine {
    /// Dispatcher thread (waits on the NIC RX tail).
    pub dispatcher: ThreadId,
    /// Worker threads (wait on per-worker mailboxes).
    pub workers: Vec<ThreadId>,
    state: Rc<RefCell<EngineState>>,
}

impl IoEngine {
    /// Builds the engine on `core` with `n_workers` worker threads.
    ///
    /// `image_base` must point at free simulated memory (each thread's
    /// program takes one 4 KiB page).
    pub fn install(
        m: &mut Machine,
        core: usize,
        nic: &Nic,
        n_workers: usize,
        image_base: u64,
    ) -> Result<IoEngine, SimError> {
        if n_workers == 0 {
            return Err(SimError::Config {
                context: "io engine",
                detail: "need at least one worker".into(),
            });
        }
        let mut mailboxes = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let mb = m.alloc(64);
            mailboxes.push(mb);
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                ; Arm-check-wait: no lost wakeups (see nointr.rs).
                entry:
                    movi r1, 0
                loop:
                    monitor {mb}
                    ld r2, {mb}
                    bne r2, r1, serve
                    mwait
                    jmp loop
                serve:
                    addi r1, r1, 1
                    hcall {work}
                    jmp loop
                "#,
                base = image_base + (w as u64 + 1) * 0x1000,
                mb = mb,
                work = HCALL_WORK,
            ))
            .map_err(|e| SimError::Assemble {
                context: "io-engine worker template",
                detail: e.to_string(),
            })?;
            let tid = m.load_program(core, &prog)?;
            m.start_thread(tid);
            workers.push(tid);
        }

        let disp_prog = assemble(&format!(
            r#"
            .base {base:#x}
            ; Arm-check-wait: no lost wakeups (see nointr.rs).
            entry:
                movi r1, 0
            loop:
                monitor {tail}
                ld r2, {tail}
                bne r2, r1, serve
                mwait
                jmp loop
            serve:
                hcall {dispatch}
                mov r1, r2
                jmp loop
            "#,
            base = image_base,
            tail = nic.rx_tail,
            dispatch = HCALL_DISPATCH,
        ))
        .map_err(|e| SimError::Assemble {
            context: "io-engine dispatcher template",
            detail: e.to_string(),
        })?;
        let dispatcher = m.load_program(core, &disp_prog)?;
        // The dispatcher is the engine's time-critical thread.
        m.set_thread_prio(dispatcher, 7);
        m.start_thread(dispatcher);

        let state = Rc::new(RefCell::new(EngineState {
            nic: nic.clone(),
            nic_tail: nic.rx_tail,
            seen: 0,
            meta: VecDeque::new(),
            backlog: VecDeque::new(),
            assigned: vec![VecDeque::new(); n_workers],
            mailboxes,
            idle: (0..n_workers).rev().collect(),
            dispatch_cost: Cycles(30),
            latency: Histogram::new(),
            completed: 0,
            fault: None,
            retries: Slab::default(),
        }));

        // Dispatcher drain service.
        let st = Rc::clone(&state);
        m.register_hcall(HCALL_DISPATCH, move |mach, _tid| {
            let mut s = st.borrow_mut();
            let tail = mach.peek_u64(s.nic_tail);
            let mut charged = Cycles::ZERO;
            while s.seen < tail {
                let pkt = s.next_packet(mach.now());
                charged += s.dispatch_cost;
                if let Some(w) = s.idle.pop() {
                    s.assign_to(mach, w, pkt);
                } else {
                    s.backlog.push_back(pkt);
                }
            }
            mach.charge(charged);
        });

        // Worker index by ptid (every worker lives on `core`), built
        // once: the handler runs per request.
        let mut worker_of = Vec::new();
        for (w, t) in workers.iter().enumerate() {
            let p = t.ptid.0 as usize;
            worker_of.resize(worker_of.len().max(p + 1), None);
            worker_of[p] = Some(w);
        }
        // A retry reassigns its packet to the worker that kept waiting.
        let st = Rc::clone(&state);
        let retry = m.register_device(move |mach, _, key| {
            let mut s = st.borrow_mut();
            let (w, pkt) = s.retries.take(key);
            s.assign_to(mach, w, pkt);
        });

        // Worker request service.
        let st = Rc::clone(&state);
        m.register_hcall(HCALL_WORK, move |mach, tid| {
            let mut s = st.borrow_mut();
            // A foreign thread issuing this hcall (misloaded image,
            // chaos-restarted stranger) is counted and ignored, never a
            // machine-killing panic.
            let w = worker_of.get(tid.ptid.0 as usize).copied().flatten();
            let Some(w) = w.filter(|_| tid.core == core) else {
                mach.counters_mut().inc("engine.foreign_hcall");
                return;
            };
            let Some(pkt) = s.assigned[w].pop_front() else {
                return; // spurious mailbox bump
            };
            if let Some(fh) = s.fault {
                // Revalidate the descriptor before trusting it: a
                // dropped or stalled packet leaves its ring slot stale
                // (zeroed, or holding an older wrap's sequence).
                let meta = mach.peek_u64(s.nic.desc_addr(pkt.seq) + 8);
                let valid = (meta >> 32) != 0 && (meta & 0xffff_ffff) == (pkt.seq & 0xffff_ffff);
                if !valid {
                    if let Some(d) = fh.policy.backoff(pkt.attempt) {
                        // Re-check after a capped backoff; the worker
                        // stays reserved for the retry (it parks, and
                        // the reassignment's mailbox bump rewakes it).
                        mach.counters_mut().inc("engine.rx.retries");
                        let again = Packet {
                            attempt: pkt.attempt + 1,
                            ..pkt
                        };
                        let key = s.retries.insert((w, again));
                        mach.at_device(mach.now() + d, retry, key);
                        return;
                    }
                    mach.counters_mut().inc("engine.rx.lost");
                } else if fh.checksum && {
                    let len = (meta >> 32) as usize;
                    let buf = s.nic.buf_addr(pkt.seq);
                    !checksum_ok(&peek_bytes(mach, buf, len))
                } {
                    // Damaged on the wire: count and drop; recovery is
                    // the sender's end-to-end concern, not the ring's.
                    mach.counters_mut().inc("engine.rx.corrupt");
                } else {
                    complete(mach, &mut s, pkt);
                }
            } else {
                complete(mach, &mut s, pkt);
            }
            // Immediately feed the next backlogged packet to this worker
            // (its post-hcall check loop picks it up without parking).
            if let Some(next) = s.backlog.pop_front() {
                s.assign_to(mach, w, next);
            } else {
                s.idle.push(w);
            }
        });

        Ok(IoEngine {
            dispatcher,
            workers,
            state,
        })
    }

    /// Turns on descriptor revalidation (and optionally payload
    /// checksumming) for every packet served from here on.
    ///
    /// Off by default — the no-fault fast path is untouched. With it
    /// on, a worker whose ring slot is stale (dropped or still-stalled
    /// packet) re-checks after `policy` backoffs and finally counts
    /// `engine.rx.lost`; with `checksum` also on, payloads sealed via
    /// [`checksum_seal`] that arrive damaged count `engine.rx.corrupt`
    /// and are not completed.
    pub fn set_fault_handling(&self, policy: RetryPolicy, checksum: bool) {
        self.state.borrow_mut().fault = Some(FaultHandling { policy, checksum });
    }

    /// Registers a packet's arrival time (tail-bump time) and service
    /// cost; call before (or when) scheduling the NIC RX. A later note
    /// for the same seq replaces the earlier one; a note for a packet
    /// already dispatched is ignored (that packet used the default).
    pub fn note_packet(&self, seq: u64, arrival: Cycles, service: Cycles) {
        self.state.borrow_mut().note(seq, arrival, service);
    }

    /// Completed-request latency histogram (arrival → service done).
    #[must_use]
    pub fn latency(&self) -> Histogram {
        self.state.borrow().latency.clone()
    }

    /// Requests completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.state.borrow().completed
    }

    /// Clears measurement state (end of warmup).
    pub fn reset_measurements(&self) {
        let mut s = self.state.borrow_mut();
        s.latency.reset();
        s.completed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_dev::nic::NicConfig;

    fn setup(n_workers: usize) -> (Machine, Nic, IoEngine) {
        let mut m = Machine::new(MachineConfig::small());
        let nic = Nic::attach(&mut m, NicConfig::default());
        let eng = IoEngine::install(&mut m, 0, &nic, n_workers, 0x40000).unwrap();
        // Let all threads park.
        m.run_for(Cycles(20_000));
        (m, nic, eng)
    }

    #[test]
    fn engine_parks_with_zero_load() {
        let (m, _nic, eng) = setup(2);
        assert_eq!(m.thread_state(eng.dispatcher), ThreadState::Waiting);
        for &w in &eng.workers {
            assert_eq!(m.thread_state(w), ThreadState::Waiting);
        }
    }

    #[test]
    fn single_packet_completes_quickly() {
        let (mut m, nic, eng) = setup(2);
        let t0 = m.now();
        let dma = Cycles(300);
        eng.note_packet(0, t0 + dma, Cycles(3000));
        nic.schedule_rx(&mut m, t0, 0, &[1; 64]);
        m.run_for(Cycles(50_000));
        assert_eq!(eng.completed(), 1);
        let lat = eng.latency();
        // Service 3000 + two wake hops (~tens of cycles each) + dispatch.
        assert!(lat.max() < 3000 + 1500, "latency {}", lat.max());
        assert!(lat.min() >= 3000);
    }

    #[test]
    fn burst_all_complete_without_loss() {
        let (mut m, nic, eng) = setup(4);
        let t0 = m.now();
        for seq in 0..20u64 {
            let at = t0 + Cycles(seq * 100);
            eng.note_packet(seq, at + Cycles(300), Cycles(2000));
            nic.schedule_rx(&mut m, at, seq, &[0; 64]);
        }
        m.run_for(Cycles(500_000));
        assert_eq!(eng.completed(), 20, "all packets served");
        assert_eq!(m.thread_state(eng.dispatcher), ThreadState::Waiting);
    }

    #[test]
    fn backlog_queues_when_workers_busy() {
        let (mut m, nic, eng) = setup(1);
        let t0 = m.now();
        for seq in 0..4u64 {
            eng.note_packet(seq, t0 + Cycles(300), Cycles(10_000));
            nic.schedule_rx(&mut m, t0, seq, &[0; 64]);
        }
        m.run_for(Cycles(300_000));
        assert_eq!(eng.completed(), 4);
        let lat = eng.latency();
        // Serialized on one worker: last ~4x service.
        assert!(lat.max() >= 30_000, "max {}", lat.max());
        assert!(lat.min() < 15_000, "min {}", lat.min());
    }

    #[test]
    fn more_workers_cut_tail_latency() {
        let run = |workers: usize| {
            let (mut m, nic, eng) = setup(workers);
            let t0 = m.now();
            for seq in 0..16u64 {
                eng.note_packet(seq, t0 + Cycles(300), Cycles(8_000));
                nic.schedule_rx(&mut m, t0, seq, &[0; 64]);
            }
            m.run_for(Cycles(1_000_000));
            assert_eq!(eng.completed(), 16);
            eng.latency().max()
        };
        let narrow = run(1);
        let wide = run(8);
        // Service here is pipeline time, so the ceiling is the core's 2
        // SMT slots: expect ~2x, assert at least 1.5x.
        assert!(
            wide * 3 < narrow * 2,
            "8 workers {wide} should beat 1 worker {narrow} by >=1.5x"
        );
    }

    #[test]
    fn retry_policy_backoff_caps_and_exhausts() {
        let p = RetryPolicy {
            initial_backoff: Cycles(1_000),
            max_backoff: Cycles(5_000),
            max_retries: 4,
        };
        assert_eq!(p.backoff(0), Some(Cycles(1_000)));
        assert_eq!(p.backoff(1), Some(Cycles(2_000)));
        assert_eq!(p.backoff(2), Some(Cycles(4_000)));
        assert_eq!(p.backoff(3), Some(Cycles(5_000)), "capped");
        assert_eq!(p.backoff(4), None, "budget spent");
        // Huge retry counts must not overflow the shift.
        let wide = RetryPolicy {
            max_retries: u32::MAX,
            ..p
        };
        assert_eq!(wide.backoff(200), Some(Cycles(5_000)));
    }

    #[test]
    fn checksum_seal_roundtrip() {
        let mut p = [0x11u8, 0x22, 0x33, 0x00];
        checksum_seal(&mut p);
        assert!(checksum_ok(&p));
        p[0] ^= 0xff;
        assert!(!checksum_ok(&p));
    }

    #[test]
    fn dropped_packet_retries_then_counts_lost() {
        use switchless_sim::fault::{FaultKind, FaultPlan};
        let (mut m, nic, eng) = setup(2);
        eng.set_fault_handling(
            RetryPolicy {
                initial_backoff: Cycles(1_000),
                max_backoff: Cycles(4_000),
                max_retries: 3,
            },
            false,
        );
        let t0 = m.now();
        // Only the first packet (scheduled inside the 1-cycle window)
        // is eaten on the wire.
        m.install_fault_plan(
            FaultPlan::new(5)
                .try_with_burst(FaultKind::NicDrop, 1.0, t0, t0 + Cycles(1))
                .expect("a one-cycle burst is valid"),
        );
        eng.note_packet(0, t0 + Cycles(300), Cycles(2_000));
        nic.schedule_rx(&mut m, t0, 0, &[1; 32]);
        m.run_for(Cycles(1));
        let t1 = m.now();
        eng.note_packet(1, t1 + Cycles(300), Cycles(2_000));
        nic.schedule_rx(&mut m, t1, 1, &[2; 32]);
        m.run_for(Cycles(100_000));
        // Packet 1's tail bump exposes slot 0's stale (zeroed)
        // descriptor; revalidation retries it to exhaustion.
        assert_eq!(eng.completed(), 1, "only the delivered packet completes");
        assert_eq!(m.counters().get("engine.rx.retries"), 3);
        assert_eq!(m.counters().get("engine.rx.lost"), 1);
        assert_eq!(m.thread_state(eng.dispatcher), ThreadState::Waiting);
    }

    #[test]
    fn stalled_packet_recovers_via_retry() {
        use switchless_sim::fault::{FaultKind, FaultPlan};
        let (mut m, nic, eng) = setup(2);
        eng.set_fault_handling(RetryPolicy::default(), false);
        let t0 = m.now();
        m.install_fault_plan(
            FaultPlan::new(6)
                .try_with_burst(FaultKind::NicStall, 1.0, t0, t0 + Cycles(1))
                .expect("a one-cycle burst is valid")
                .with_delay(FaultKind::NicStall, Cycles(20_000), Cycles(20_000)),
        );
        eng.note_packet(0, t0 + Cycles(300), Cycles(2_000));
        nic.schedule_rx(&mut m, t0, 0, &[1; 32]);
        m.run_for(Cycles(1));
        let t1 = m.now();
        eng.note_packet(1, t1 + Cycles(300), Cycles(2_000));
        nic.schedule_rx(&mut m, t1, 1, &[2; 32]);
        m.run_for(Cycles(200_000));
        // The straggler's descriptor lands mid-backoff; a later retry
        // finds it valid and the packet completes — nothing is lost.
        assert_eq!(eng.completed(), 2, "straggler served after it lands");
        assert!(m.counters().get("engine.rx.retries") >= 1);
        assert_eq!(m.counters().get("engine.rx.lost"), 0);
    }

    #[test]
    fn corrupt_payload_detected_by_checksum() {
        use switchless_sim::fault::{FaultKind, FaultPlan};
        let (mut m, nic, eng) = setup(2);
        eng.set_fault_handling(RetryPolicy::default(), true);
        let t0 = m.now();
        m.install_fault_plan(
            FaultPlan::new(7)
                .try_with_burst(FaultKind::NicCorrupt, 1.0, t0, t0 + Cycles(1))
                .expect("a one-cycle burst is valid"),
        );
        let mut payload = [0x5au8; 32];
        checksum_seal(&mut payload);
        eng.note_packet(0, t0 + Cycles(300), Cycles(2_000));
        nic.schedule_rx(&mut m, t0, 0, &payload); // first byte flipped
        m.run_for(Cycles(1));
        let t1 = m.now();
        eng.note_packet(1, t1 + Cycles(300), Cycles(2_000));
        nic.schedule_rx(&mut m, t1, 1, &payload); // clean
        m.run_for(Cycles(100_000));
        assert_eq!(eng.completed(), 1, "damaged payload not completed");
        assert_eq!(m.counters().get("engine.rx.corrupt"), 1);
        assert_eq!(m.counters().get("fault.nic.corrupt"), 1);
        assert_eq!(m.counters().get("engine.rx.lost"), 0);
    }

    /// The seq-ordered metadata queue against the map it replaced: every
    /// dispatched packet gets `map.get(seq)` or the default, under seeded
    /// mixes of in-order, out-of-order, duplicate, already-dispatched and
    /// never-noted seqs interleaved with dispatches.
    #[test]
    fn packet_metadata_matches_a_map() {
        use std::collections::HashMap;
        use switchless_sim::rng::Rng;
        for seed in 0..20 {
            let (_m, _nic, eng) = setup(1);
            let mut s = eng.state.borrow_mut();
            let mut model: HashMap<u64, (Cycles, Cycles)> = HashMap::new();
            let mut rng = Rng::seed_from(seed);
            let mut next_in_order = 0u64;
            for step in 0..3_000u64 {
                let r = rng.next_u64();
                let meta = (Cycles(step), Cycles(r >> 48));
                let seq = match r % 8 {
                    0 | 1 => {
                        next_in_order += 1;
                        next_in_order - 1
                    }
                    2 => s.seen + r % 64,
                    3 => model.keys().copied().max().unwrap_or(0),
                    4 => (r >> 8) % (s.seen + 1),
                    _ => {
                        let now = Cycles(1_000_000 + step);
                        for _ in 0..r % 4 {
                            let seq = s.seen;
                            let want = model.get(&seq).copied().unwrap_or((now, Cycles(1000)));
                            let pkt = s.next_packet(now);
                            assert_eq!(pkt.seq, seq);
                            assert_eq!((pkt.arrival, pkt.service), want, "seed {seed} seq {seq}");
                        }
                        next_in_order = next_in_order.max(s.seen);
                        continue;
                    }
                };
                s.note(seq, meta.0, meta.1);
                model.insert(seq, meta);
                let outstanding = model.keys().filter(|&&q| q >= s.seen).count();
                assert_eq!(
                    s.meta.len(),
                    outstanding,
                    "seed {seed}: one entry per outstanding seq"
                );
            }
        }
    }

    #[test]
    fn a_note_for_the_last_seq_holds_one_entry() {
        let (_m, _nic, eng) = setup(1);
        eng.note_packet(u64::MAX, Cycles(5), Cycles(7));
        eng.note_packet(u64::MAX, Cycles(6), Cycles(8));
        let mut s = eng.state.borrow_mut();
        assert_eq!(s.meta.len(), 1);
        let pkt = s.next_packet(Cycles(9));
        assert_eq!((pkt.arrival, pkt.service), (Cycles(9), Cycles(1000)));
    }

    #[test]
    fn foreign_work_hcalls_are_counted_not_served() {
        let mut m = Machine::new(MachineConfig::small());
        let stranger = |base: u64| {
            assemble(&format!(
                ".base {base:#x}\nentry:\n hcall {HCALL_WORK}\n halt"
            ))
            .expect("stranger assembles")
        };
        // One thread below the workers' ptids, one above.
        let below = m.load_program(0, &stranger(0x20000)).unwrap();
        let nic = Nic::attach(&mut m, NicConfig::default());
        let eng = IoEngine::install(&mut m, 0, &nic, 2, 0x40000).unwrap();
        let above = m.load_program(0, &stranger(0x30000)).unwrap();
        assert!(below.ptid < eng.workers[0].ptid && eng.workers[1].ptid < above.ptid);
        m.start_thread(below);
        m.start_thread(above);
        m.run_for(Cycles(20_000));
        assert_eq!(m.counters().get("engine.foreign_hcall"), 2);
        assert_eq!(m.thread_state(above), ThreadState::Halted);
        assert_eq!(eng.completed(), 0);
    }

    #[test]
    fn reset_measurements_clears_histogram() {
        let (mut m, nic, eng) = setup(1);
        let t0 = m.now();
        eng.note_packet(0, t0, Cycles(1000));
        nic.schedule_rx(&mut m, t0, 0, &[0; 8]);
        m.run_for(Cycles(50_000));
        assert_eq!(eng.completed(), 1);
        eng.reset_measurements();
        assert_eq!(eng.completed(), 0);
        assert_eq!(eng.latency().count(), 0);
    }
}
