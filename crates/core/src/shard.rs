//! Conservative core-sharded parallel engine (see DESIGN.md §9).
//!
//! [`Machine::run_until`] on [`Engine::Fast`] executes *epochs* on every
//! multi-core machine whose invariant checker is off: the host stages
//! every event strictly below a cross-core event horizon `B`, hands each
//! core's staged events to a worker running against **clones** of that
//! core's private state (scheduler, state store, L1/L2, TLB,
//! prefetch capture, threads enrolled there, and its registered memory
//! domain), and commits all of it back at an epoch barrier.
//!
//! The engine is speculative in implementation but conservative in
//! effect: a worker that would touch anything outside its shard — another
//! core's memory domain, the monitor filter, an hcall, an exception, the
//! shared L3, an MMIO doorbell — abandons the epoch (`Bail`), the clones
//! are dropped, the staged events are restored under their original
//! `(time, seq)` keys, and the window replays on the serial engine. A
//! committed epoch is **bit-identical** to the serial engine by
//! construction:
//!
//! * Workers replay the serial order *restricted to their core*: staged
//!   events in staging order (= relative seq order) and worker-created
//!   events in creation order, merged locally by `(time, key)` exactly as
//!   the global queue would order them (staged keys precede fresh keys,
//!   matching queue seq assignment).
//! * Cross-record effects — wake-latency samples, `last_wake`, `now`
//!   evolution, and queue seqs for surviving events — are reconstructed
//!   by [`switchless_sim::shard::merge_epoch`], a k-way merge on virtual
//!   sequence numbers that provably equals the serial pop order. The two
//!   cross-core ties the vseq model cannot order faithfully (equal-time
//!   survivors and equal-time wake records from different cores) are
//!   detected at commit and turned into a bail.
//! * The serial engine's burst splits (foreign-event horizon checks,
//!   `MAX_BURST`, stale deadline hints) are observably invisible — same
//!   instructions at the same start cycles, identical cost accounting,
//!   identical store-tier stamps up to relative order — so workers may
//!   place splits differently (at `B`) without divergence.
//!
//! The gain comes from per-core lookahead, not host threads: a worker's
//! burst loop sees only its own core's local queue, so it runs long
//! bursts and superblocks where the serial loop stops at the next event
//! on *any* core. [`Machine::set_machine_jobs`] only sets how many host
//! threads run the workers (1 runs them inline). Stores commit in
//! parallel only inside a window declared with
//! [`Machine::set_core_domain`]; without one they bail to serial replay.
//! Workers consume superblocks the serial replay has formed, read-only
//! (heat and formation stay serial, since `code` is shared across
//! worker threads); block execution is effect-identical to
//! single-stepping, so which engine happens to use a block is invisible.
//! [`Engine::Reference`] (the serial loop, superblocks off) is the oracle
//! this engine is diffed against.
//!
//! [`Engine::Fast`]: crate::machine::Engine::Fast
//! [`Engine::Reference`]: crate::machine::Engine::Reference

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use switchless_isa::arch::Mode;
use switchless_isa::inst::Inst;
use switchless_mem::addr::{PAddr, PAGE_BYTES};
use switchless_mem::cache::PartitionId;
use switchless_mem::hierarchy::{AccessKind, CoreCaches, HitLevel};
use switchless_mem::monitor::{MonitorFilter, WatchId};
use switchless_mem::prefetch::PrefetchView;
use switchless_mem::tlb::Tlb;
use switchless_sim::par::par_map_owned;
use switchless_sim::shard::{merge_epoch, EpochRecord, PopKey};
use switchless_sim::time::Cycles;

use crate::machine::{CodeRange, CoreState, Ev, Machine, MachineConfig, Thread, MAX_BURST};
use crate::sblock::{self, SB_DEAD, SB_FORMED};
use crate::store::Tier;
use crate::tid::{Ptid, ThreadState};

/// Epochs double up to this length while committing cleanly.
const MAX_EPOCH: u64 = 1 << 20;
/// Epochs halve down to this length while bailing.
const MIN_EPOCH: u64 = 64;

/// What became of one attempted epoch.
pub(crate) enum EpochOutcome {
    /// The whole window `[head, B)` ran in parallel and was committed.
    Committed,
    /// A worker left its shard mid-window; the staged events were
    /// restored and `[head, B)` must replay serially to make progress.
    Bailed(Cycles),
    /// The window itself ran clean but a commit-time cross-core time tie
    /// (equal-time survivors or wake samples) made the merge unsound.
    /// The window's *interior* was conflict-free, so the driver retries
    /// with a smaller window first — a different horizon shifts the
    /// burst-end survivor times and usually breaks the tie — and only
    /// falls back to serial replay of `[head, B)` on a tie streak
    /// (phase-locked cores tie at every horizon).
    Tie(Cycles),
    /// Fewer than two cores had events below `B`; nothing ran.
    TooFew(Cycles),
}

/// A worker abandoning the epoch. Carries nothing: the clones are
/// dropped wholesale and the real machine was never touched.
struct Bail;

/// Epoch-constant state shared read-only by every worker.
struct Shared<'a> {
    cfg: MachineConfig,
    /// Machine `now` at epoch start (workers evolve a local copy).
    now0: Cycles,
    /// Event horizon: workers handle events strictly below this.
    b: Cycles,
    /// Run deadline (`run_until`'s `t`): burst dispatch bound.
    t: Cycles,
    /// Number of events staged out of the real queue (key namespace
    /// split: local keys below this are staged, at/above are fresh).
    staged_total: u64,
    /// Machine memory, frozen for the epoch. Reads that land fully
    /// outside every registered domain are served from here; writes
    /// outside the worker's own domain bail.
    mem: &'a [u8],
    filter: &'a dyn MonitorFilter,
    code: &'a [CodeRange],
    code_lo: u64,
    code_hi: u64,
    /// Registered MMIO hook addresses, sorted (hit check bails).
    mmio_addrs: &'a [u64],
    /// Every core's registered domain, for the overlap check.
    domains: &'a [Option<(u64, u64)>],
    /// Per-core fresh-event horizon stagger: core `c` stops consuming
    /// its *epoch-created* events at `B - gap * c`, so burst-end
    /// continuation events land in disjoint per-core time bands instead
    /// of piling up just past a common `B` — which is what made
    /// commit-time survivor ties near-certain for compute cores with
    /// dense instruction boundaries. Purely a window-placement choice:
    /// a held-back event is a survivor exactly as if `B` were lower for
    /// that core, which per-core horizons permit because a committed
    /// epoch contains no cross-core effects at all.
    gap: u64,
}

/// One core's slice of machine state, cloned for the epoch.
struct WorkerInput {
    core: usize,
    /// `(due, staging index, slot)` for this core's staged `SlotFree`s.
    staged: Vec<(Cycles, u64, u32)>,
    cs: CoreState,
    /// Threads enrolled on this core, sorted by ptid.
    threads: Vec<(u32, Thread)>,
    caches: CoreCaches,
    tlb: Tlb,
    prefetch: PrefetchView,
    /// `(base, bytes)` scratch copy of this core's memory domain.
    domain: Option<(u64, Vec<u8>)>,
}

/// A successful worker's output, spliced back verbatim at commit.
struct WorkerOk {
    core: usize,
    /// Every pop, in local order, for the commit-time merge.
    records: Vec<PopRecord>,
    /// Fresh events still pending at epoch end:
    /// `(local creation index, due, slot)`.
    survivors: Vec<(u64, Cycles, u32)>,
    cs: CoreState,
    threads: Vec<(u32, Thread)>,
    caches: CoreCaches,
    tlb: Tlb,
    prefetch: PrefetchView,
    domain: Option<(u64, Vec<u8>)>,
    d_dispatches: u64,
    d_insts: u64,
    d_activate: [u64; 4],
    /// Store instructions that consulted the monitor filter (all were
    /// quiet — a waking store bails), folded into the filter at commit.
    quiet_stores: u64,
}

/// One event pop, as fed to [`merge_epoch`].
#[derive(Clone, Copy, Debug)]
struct PopRecord {
    time: Cycles,
    key: PopKey,
    creates: u64,
    /// Local `now` after handling the pop (burst cursor included);
    /// the committed machine `now` is the max over all records.
    now_after: Cycles,
    /// `(ptid, sample)` when this dispatch consumed a `wake_at` stamp.
    wake: Option<(u32, u64)>,
}

impl EpochRecord for PopRecord {
    fn time(&self) -> Cycles {
        self.time
    }
    fn key(&self) -> PopKey {
        self.key
    }
    fn creates(&self) -> u64 {
        self.creates
    }
}

/// A worker's private event queue: `(due, key, slot)` min-heap. Keys
/// order exactly like the global queue's seqs restricted to this core —
/// staging indices first (staged events predate the epoch), then
/// `staged_total + creation index` for fresh events.
#[derive(Default)]
struct LocalQueue {
    heap: BinaryHeap<Reverse<(Cycles, u64, u32)>>,
}

impl LocalQueue {
    fn push(&mut self, at: Cycles, key: u64, slot: u32) {
        self.heap.push(Reverse((at, key, slot)));
    }

    /// Pops the earliest event strictly below `b`.
    fn pop_below(&mut self, b: Cycles) -> Option<(Cycles, u64, u32)> {
        let &Reverse((at, _, _)) = self.heap.peek()?;
        if at >= b {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn next_deadline(&self) -> Option<Cycles> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    fn peek_slot(&self) -> Option<u32> {
        self.heap.peek().map(|&Reverse((_, _, slot))| slot)
    }

    fn pop_head(&mut self) -> Option<(Cycles, u64, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn drain_all(self) -> Vec<(Cycles, u64, u32)> {
        self.heap.into_iter().map(|Reverse(e)| e).collect()
    }
}

/// Where a worker memory access resolves.
enum Loc {
    /// Offset into the worker's own domain scratch.
    Own(usize),
    /// Fully outside every registered domain: the frozen shared image.
    Shared,
}

/// Finds `p` in a sorted enrolled-thread table.
fn find(threads: &[(u32, Thread)], p: Ptid) -> &Thread {
    let i = threads
        .binary_search_by_key(&p.0, |e| e.0)
        .expect("scheduler picked a thread enrolled on this core");
    &threads[i].1
}

/// One epoch worker: a serial machine restricted to a single core.
struct Worker<'a> {
    sh: &'a Shared<'a>,
    core: usize,
    /// This core's fresh-event horizon (`B - gap * core`): bursts stop
    /// here so continuation events land in the core's own time band.
    fresh_b: Cycles,
    cs: CoreState,
    threads: Vec<(u32, Thread)>,
    caches: CoreCaches,
    tlb: Tlb,
    prefetch: PrefetchView,
    domain: Option<(u64, Vec<u8>)>,
    q: LocalQueue,
    /// Sibling-slot events lifted mid-burst (restored at burst exit).
    stash: Vec<(Cycles, u64, u32)>,
    local_now: Cycles,
    /// Fresh events created so far (the next fresh key suffix).
    created: u64,
    /// Decoded-code range hint (mirrors `Machine::last_code`; the hint
    /// only short-circuits the range search, never changes its result).
    last_code: usize,
    records: Vec<PopRecord>,
    d_dispatches: u64,
    d_insts: u64,
    d_activate: [u64; 4],
    quiet_stores: u64,
    /// Memory-superblock probe scratch (mirrors `Machine::sbm_*`):
    /// merged fetch+data L1 line stream with write bits, data-page TLB
    /// stream, dedup-keep-last data lines for the prefetcher, applied
    /// store undo log, and the distinct store ranges already vetted
    /// against the monitor filter and MMIO table.
    sbm_lines: Vec<(PAddr, u64, bool)>,
    sbm_pages: Vec<(u64, u64)>,
    sbm_plines: Vec<PAddr>,
    sbm_undo: Vec<(u64, u64, u8)>,
    sbm_stores: Vec<(u64, u64)>,
}

fn run_worker(sh: &Shared<'_>, input: WorkerInput) -> Result<WorkerOk, Bail> {
    let mut q = LocalQueue::default();
    for &(at, idx, slot) in &input.staged {
        q.push(at, idx, slot);
    }
    // This core's fresh-event horizon (see `Shared::gap`). Staged
    // events still consume up to `B`: they are real pre-epoch events
    // and skipping one while running a later one would reorder the
    // core's serial stream.
    let fresh_b =
        Cycles(sh.b.0.saturating_sub(sh.gap * input.core as u64)).max(sh.now0 + Cycles(1));
    let mut w = Worker {
        sh,
        core: input.core,
        fresh_b,
        cs: input.cs,
        threads: input.threads,
        caches: input.caches,
        tlb: input.tlb,
        prefetch: input.prefetch,
        domain: input.domain,
        q,
        stash: Vec::new(),
        local_now: sh.now0,
        created: 0,
        last_code: 0,
        records: Vec::new(),
        d_dispatches: 0,
        d_insts: 0,
        d_activate: [0; 4],
        quiet_stores: 0,
        sbm_lines: Vec::new(),
        sbm_pages: Vec::new(),
        sbm_plines: Vec::new(),
        sbm_undo: Vec::new(),
        sbm_stores: Vec::new(),
    };
    while let Some((ts, key, slot)) = w.q.pop_below(sh.b) {
        if key >= sh.staged_total && ts >= fresh_b {
            // The core's window ends here: the event survives to the
            // next epoch, exactly as if it were due at or past `B`.
            w.q.push(ts, key, slot);
            break;
        }
        if ts > w.local_now {
            w.local_now = ts;
        }
        let created_before = w.created;
        let wake = w.dispatch(slot)?;
        let pop_key = if key < sh.staged_total {
            PopKey::Staged(key)
        } else {
            PopKey::Fresh(key - sh.staged_total)
        };
        w.records.push(PopRecord {
            time: ts,
            key: pop_key,
            creates: w.created - created_before,
            now_after: w.local_now,
            wake,
        });
    }
    let mut survivors: Vec<(u64, Cycles, u32)> = Vec::new();
    for (at, key, slot) in w.q.drain_all() {
        if key < sh.staged_total {
            // A staged event past a held-back fresh horizon: consuming
            // it would reorder this core's stream, and a staged event
            // cannot survive an epoch (its `(time, seq)` identity was
            // popped from the real queue). Settle the window serially.
            return Err(Bail);
        }
        debug_assert!(at >= fresh_b, "events below the fresh horizon are drained");
        survivors.push((key - sh.staged_total, at, slot));
    }
    // Creation order, so commit-side vseq lookup walks monotonically.
    survivors.sort_unstable_by_key(|&(local, _, _)| local);
    Ok(WorkerOk {
        core: w.core,
        records: w.records,
        survivors,
        cs: w.cs,
        threads: w.threads,
        caches: w.caches,
        tlb: w.tlb,
        prefetch: w.prefetch,
        domain: w.domain,
        d_dispatches: w.d_dispatches,
        d_insts: w.d_insts,
        d_activate: w.d_activate,
        quiet_stores: w.quiet_stores,
    })
}

impl Worker<'_> {
    /// Schedules a fresh own-core `SlotFree`; keys continue after the
    /// staged namespace in creation order.
    fn schedule_local(&mut self, at: Cycles, slot: u32) {
        let key = self.sh.staged_total + self.created;
        self.created += 1;
        self.q.push(at, key, slot);
    }

    fn th_idx(&self, ptid: Ptid) -> usize {
        self.threads
            .binary_search_by_key(&ptid.0, |e| e.0)
            .expect("scheduler picked a thread enrolled on this core")
    }

    /// Mirrors `Machine::dispatch` with `watch = None`, restricted to
    /// this core; returns the wake sample consumed, if any.
    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, slot: u32) -> Result<Option<(u32, u64)>, Bail> {
        let now = self.local_now;
        let picked = {
            let threads = &self.threads;
            self.cs.sched.pick(|p| find(threads, p).busy_until > now)
        };
        let Some(ptid) = picked else {
            let next = {
                let threads = &self.threads;
                self.cs.sched.min_over_enrolled(|p| {
                    let b = find(threads, p).busy_until;
                    (b > now).then_some(b)
                })
            };
            match next {
                Some(at) => self.schedule_local(at, slot),
                None => self.cs.idle_slot[slot as usize] = true,
            }
            return Ok(None);
        };
        self.d_dispatches += 1;
        let ti = self.th_idx(ptid);

        let mut cost = Cycles::ZERO;
        let tier = self.cs.store.tier_of(ptid);
        let needs_activation = !self.threads[ti].1.activated || tier != Tier::Rf;
        if needs_activation {
            let (bytes, prio) = {
                let t = &self.threads[ti].1;
                let bytes = if self.sh.cfg.store.dirty_tracking {
                    t.dirty_bytes()
                } else {
                    t.state_bytes()
                };
                (bytes, t.arch.prio)
            };
            let (act, from) = self.cs.store.activate(ptid, prio, bytes);
            self.d_activate[from as usize] += 1;
            cost += act;
            let t = &mut self.threads[ti].1;
            t.activated = true;
            t.touched = 0;
        } else {
            self.cs.store.touch(ptid);
        }
        let wake = if let Some(w) = self.threads[ti].1.wake_at.take() {
            let sample = (now - w + cost).0;
            let ws = &mut self.threads[ti].1.wake_stats;
            ws.0 += 1;
            ws.1 += sample;
            ws.2 = ws.2.max(sample);
            Some((ptid.0, sample))
        } else {
            None
        };

        // First instruction. `pending_charge` stays zero on every path a
        // worker is allowed to take (hcalls bail), so it is not modelled.
        cost += self.exec_inst(ti)?;
        cost = cost.max(Cycles(1));
        let mut done = now + cost;

        // Burst engine, with the core's fresh-event horizon as an extra
        // bound: no instruction may *start* at or after it (its pop
        // would belong to the next window). The serial engine may split
        // bursts at other points (foreign events, stale deadline
        // hints); splits are observably invisible, so the placement may
        // differ — which is also why the per-core stagger of this bound
        // is free (see `Shared::gap`).
        let mut burst_cost = Cycles::ZERO;
        let mut extra: u64 = 0;
        let mut qmin = self.q.next_deadline();
        // Superblock entry gate (the heat hoist, as in the serial
        // engine): entries are only reached by jumps, so the lookup is
        // skipped while the burst walks sequential code.
        let mut seq_pc = u64::MAX;
        'burst: while extra < MAX_BURST
            && done <= self.sh.t
            && done < self.fresh_b
            && self.burst_eligible(ptid, done)
        {
            while let Some(tq) = qmin {
                if tq > done {
                    break;
                }
                // The local queue holds only own-core SlotFrees; a
                // sibling slot's is consumable exactly as in the serial
                // engine, anything else ends the burst.
                if self.q.peek_slot() == Some(slot) {
                    break 'burst;
                }
                let lifted = self.q.pop_head().expect("peek/pop agree");
                self.stash.push(lifted);
                qmin = self.q.next_deadline();
            }
            // Superblock fast path — mirrors `Machine::dispatch`
            // (DESIGN.md §10). Workers only consume blocks the serial
            // engine has already formed (`sb_lookup` is read-only
            // here); the serial exactness argument carries over, with
            // the fresh-event horizon as the extra bound on the final
            // dispatch cursor. Any failed precondition single-steps —
            // never a burst exit.
            let pc = self.threads[ti].1.arch.pc;
            let via_jump = pc != seq_pc;
            seq_pc = pc + 8;
            if via_jump {
                if let Some((ri, bi)) = self.sb_lookup(pc) {
                    let (bcost, last_cost, len) = {
                        let b = &self.sh.code[ri].blocks[bi as usize];
                        // Dynamic block cost, exactly as in the serial
                        // engine: base costs plus one L1 hit per data
                        // access (the block only runs fully resident).
                        let l1 = self.sh.cfg.hierarchy.lat_l1;
                        (
                            b.cost + Cycles(b.mem_ops * l1.0),
                            b.last_cost + if b.last_is_mem { l1 } else { Cycles::ZERO },
                            b.insts.len() as u64,
                        )
                    };
                    // As in the serial engine, `extra` may overshoot
                    // `MAX_BURST` by at most one block.
                    let d_last = done + bcost - last_cost;
                    if d_last <= self.sh.t && d_last < self.fresh_b {
                        let mut clear = true;
                        while let Some(tq) = qmin {
                            if tq > d_last {
                                break;
                            }
                            if self.q.peek_slot() == Some(slot) {
                                clear = false;
                                break;
                            }
                            let lifted = self.q.pop_head().expect("peek/pop agree");
                            self.stash.push(lifted);
                            qmin = self.q.next_deadline();
                        }
                        if clear && self.exec_superblock(ri, bi as usize, ti) {
                            self.local_now = d_last;
                            done += bcost;
                            burst_cost += bcost;
                            extra += len;
                            seq_pc = u64::MAX;
                            continue 'burst;
                        }
                    }
                }
            }
            self.local_now = done;
            let c = self.exec_inst(ti)?.max(Cycles(1));
            done += c;
            burst_cost += c;
            extra += 1;
            qmin = self.q.next_deadline();
        }
        while let Some((at, key, s)) = self.stash.pop() {
            self.q.push(at, key, s);
        }

        self.cs.sched.account(ptid, cost);
        if extra > 0 {
            self.cs.sched.account_burst(ptid, burst_cost, extra);
            self.d_dispatches += extra;
        }
        {
            let t = &mut self.threads[ti].1;
            t.busy_until = t.busy_until.max(done);
        }
        self.d_insts += 1 + extra;
        self.schedule_local(done, slot);
        Ok(wake)
    }

    /// Mirrors `Machine::burst_eligible` (the machine cannot halt inside
    /// a worker — `Halt` bails).
    fn burst_eligible(&self, ptid: Ptid, done: Cycles) -> bool {
        let t = find(&self.threads, ptid);
        t.state == ThreadState::Runnable
            && t.activated
            && t.home == self.core
            && t.busy_until <= done
            && self.cs.sched.sole_runnable() == Some(ptid)
            && self.cs.store.tier_of(ptid) == Tier::Rf
    }

    /// Read-only superblock lookup: workers consume blocks the serial
    /// engine has formed, but never bump heat or form new ones (the
    /// code table is shared across worker threads).
    #[inline]
    fn sb_lookup(&mut self, pc: u64) -> Option<(usize, u32)> {
        let code = self.sh.code;
        let hint = self.last_code;
        let idx = match code.get(hint) {
            Some(r) if r.base <= pc && pc < r.end => hint,
            _ => {
                let idx = code.iter().position(|r| r.base <= pc && pc < r.end)?;
                self.last_code = idx;
                idx
            }
        };
        let off = pc - code[idx].base;
        if off & 7 != 0 {
            return None;
        }
        match code[idx].sb[(off >> 3) as usize] {
            SB_DEAD => None,
            s if s >= SB_FORMED => Some((idx, s & !SB_FORMED)),
            _ => None,
        }
    }

    /// Mirrors `Machine::exec_superblock` against the worker's private
    /// cache view and thread clone.
    fn exec_superblock(&mut self, ri: usize, bi: usize, ti: usize) -> bool {
        if self.sh.code[ri].blocks[bi].mem_ops > 0 {
            return self.exec_superblock_mem(ri, bi, ti);
        }
        let b = &self.sh.code[ri].blocks[bi];
        if !self.caches.l1_access_run(&b.lines, b.insts.len() as u64) {
            return false;
        }
        let t = &mut self.threads[ti].1;
        let entry = t.arch.pc;
        t.arch.pc = sblock::exec_regs(&b.insts, &mut t.arch.gprs, entry);
        t.touched |= b.touched;
        true
    }

    /// Mirrors `Machine::exec_superblock_mem` against the worker's
    /// private clones, with the shard discipline layered on top: loads
    /// may resolve to the worker's own domain scratch or the frozen
    /// shared image, but any store must land fully inside the own
    /// domain — everything else fails the probe, and the single-step
    /// path then bails the epoch exactly as it always did. Stores are
    /// applied to the domain scratch under an undo log so later loads
    /// in the block see them; a failed probe reverse-replays the log
    /// and mutates nothing.
    #[allow(clippy::too_many_lines)]
    fn exec_superblock_mem(&mut self, ri: usize, bi: usize, ti: usize) -> bool {
        let sh = self.sh;
        let b = &sh.code[ri].blocks[bi];
        let mem_bytes = sh.cfg.mem_bytes;
        let (code_lo, code_hi) = (sh.code_lo, sh.code_hi);
        self.sbm_lines.clear();
        self.sbm_lines
            .extend(b.lines.iter().map(|&(l, at)| (l, at, false)));
        self.sbm_pages.clear();
        self.sbm_plines.clear();
        self.sbm_stores.clear();
        self.sbm_undo.clear();

        let mut gprs = self.threads[ti].1.arch.gprs;
        let mut pc = self.threads[ti].1.arch.pc;
        let mut ok = true;
        let mut pos = 0u64; // position in the merged fetch+data stream
        let mut data_idx = 0u64; // 1-based index in the data-access stream
        let mut n_stores = 0u64;

        macro_rules! gpr {
            ($r:expr) => {
                gprs[$r.0 as usize & 0xf]
            };
        }
        macro_rules! set_gpr {
            ($r:expr, $v:expr) => {{
                let v = $v;
                gprs[$r.0 as usize & 0xf] = v;
            }};
        }
        macro_rules! data_access {
            ($addr:expr, $len:expr, $write:expr) => {{
                let addr: u64 = $addr;
                if addr.checked_add($len).is_none()
                    || addr + $len > mem_bytes
                    || !self.tlb.contains(0, addr / PAGE_BYTES)
                    || !self.caches.l1_contains(PAddr(addr).line())
                {
                    false
                } else {
                    let page = addr / PAGE_BYTES;
                    let line = PAddr(addr).line();
                    pos += 1;
                    data_idx += 1;
                    match self.sbm_lines.iter_mut().find(|e| e.0 == line) {
                        Some(e) => {
                            e.1 = e.1.max(pos);
                            e.2 |= $write;
                        }
                        None => self.sbm_lines.push((line, pos, $write)),
                    }
                    match self.sbm_pages.iter_mut().find(|e| e.0 == page) {
                        Some(e) => e.1 = data_idx,
                        None => self.sbm_pages.push((page, data_idx)),
                    }
                    if let Some(p) = self.sbm_plines.iter().position(|&l| l == line) {
                        self.sbm_plines.remove(p);
                    }
                    self.sbm_plines.push(line);
                    true
                }
            }};
        }
        macro_rules! load {
            ($d:expr, $addr:expr, $len:expr) => {{
                let addr: u64 = $addr;
                if data_access!(addr, $len, false) {
                    match self.read_bytes(addr, $len) {
                        Ok(bytes) => {
                            let v = if $len == 8 {
                                u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
                            } else {
                                u64::from(bytes[0])
                            };
                            set_gpr!($d, v);
                        }
                        Err(Bail) => ok = false,
                    }
                } else {
                    ok = false;
                }
            }};
        }
        macro_rules! store {
            ($v:expr, $addr:expr, $len:expr) => {{
                let addr: u64 = $addr;
                let end = addr + $len;
                let own_off = match &self.domain {
                    Some((base, bytes)) if addr >= *base && end <= base + bytes.len() as u64 => {
                        Some((addr - base) as usize)
                    }
                    _ => None,
                };
                match (data_access!(addr, $len, true), own_off) {
                    (true, Some(off)) => {
                        if !self.sbm_stores.contains(&(addr, $len)) {
                            // Precise code-overlap test, as in the serial
                            // probe: the hull over-approximates when
                            // unrelated data sits between two images.
                            let hits_code = addr < code_hi
                                && end > code_lo
                                && sh.code.iter().any(|r| addr < r.end && end > r.base);
                            let lo = addr.saturating_sub(7);
                            let i0 = sh.mmio_addrs.partition_point(|&a| a < lo);
                            if hits_code
                                || sh.filter.would_wake(PAddr(addr), $len)
                                || sh.mmio_addrs.get(i0).is_some_and(|&a| a < end)
                            {
                                ok = false;
                            } else {
                                self.sbm_stores.push((addr, $len));
                            }
                        }
                        if ok {
                            n_stores += 1;
                            let bytes = &mut self.domain.as_mut().expect("own offset").1;
                            if $len == 8 {
                                let old = u64::from_le_bytes(
                                    bytes[off..off + 8].try_into().expect("8 bytes"),
                                );
                                self.sbm_undo.push((addr, old, 8));
                                bytes[off..off + 8].copy_from_slice(&($v).to_le_bytes());
                            } else {
                                self.sbm_undo.push((addr, u64::from(bytes[off]), 1));
                                bytes[off] = (($v) & 0xff) as u8;
                            }
                        }
                    }
                    _ => ok = false,
                }
            }};
        }

        for i in &b.insts {
            pos += 1; // this instruction's fetch access
            let mut next = pc + 8;
            use Inst::*;
            match *i {
                Add { d, a, b } => set_gpr!(d, gpr!(a).wrapping_add(gpr!(b))),
                Sub { d, a, b } => set_gpr!(d, gpr!(a).wrapping_sub(gpr!(b))),
                And { d, a, b } => set_gpr!(d, gpr!(a) & gpr!(b)),
                Or { d, a, b } => set_gpr!(d, gpr!(a) | gpr!(b)),
                Xor { d, a, b } => set_gpr!(d, gpr!(a) ^ gpr!(b)),
                Shl { d, a, b } => set_gpr!(d, gpr!(a) << (gpr!(b) & 63)),
                Shr { d, a, b } => set_gpr!(d, gpr!(a) >> (gpr!(b) & 63)),
                Mul { d, a, b } => set_gpr!(d, gpr!(a).wrapping_mul(gpr!(b))),
                Addi { d, a, imm } => set_gpr!(d, gpr!(a).wrapping_add(imm as u64)),
                Movi { d, imm } => set_gpr!(d, imm as u64),
                Mov { d, a } => set_gpr!(d, gpr!(a)),
                Nop | Work { .. } | Fence => {}
                Ld { d, a, off } => load!(d, gpr!(a).wrapping_add(off as u64), 8),
                LdA { d, addr } => load!(d, addr, 8),
                LdB { d, a, off } => load!(d, gpr!(a).wrapping_add(off as u64), 1),
                St { s, a, off } => store!(gpr!(s), gpr!(a).wrapping_add(off as u64), 8),
                StA { s, addr } => store!(gpr!(s), addr, 8),
                StB { s, a, off } => store!(gpr!(s), gpr!(a).wrapping_add(off as u64), 1),
                Jmp { addr } => next = addr,
                Jr { a } => next = gpr!(a),
                Jal { d, addr } => {
                    set_gpr!(d, pc + 8);
                    next = addr;
                }
                Beq { a, b, addr } => {
                    if gpr!(a) == gpr!(b) {
                        next = addr;
                    }
                }
                Bne { a, b, addr } => {
                    if gpr!(a) != gpr!(b) {
                        next = addr;
                    }
                }
                Blt { a, b, addr } => {
                    if (gpr!(a) as i64) < (gpr!(b) as i64) {
                        next = addr;
                    }
                }
                Bge { a, b, addr } => {
                    if (gpr!(a) as i64) >= (gpr!(b) as i64) {
                        next = addr;
                    }
                }
                _ => unreachable!("non-admissible instruction inside a memory superblock"),
            }
            if !ok {
                break;
            }
            pc = next;
        }

        let (n_insts, mem_ops, touched) = (b.insts.len() as u64, b.mem_ops, b.touched);
        if !ok
            || !self
                .caches
                .l1_access_run_mixed(&self.sbm_lines, n_insts + mem_ops)
        {
            let bytes = self.domain.as_mut().map(|(base, bytes)| (*base, bytes));
            if let Some((base, bytes)) = bytes {
                for &(addr, old, len) in self.sbm_undo.iter().rev() {
                    let off = (addr - base) as usize;
                    if len == 8 {
                        bytes[off..off + 8].copy_from_slice(&old.to_le_bytes());
                    } else {
                        bytes[off] = old as u8;
                    }
                }
            }
            return false;
        }
        debug_assert!(data_idx == mem_ops, "every instruction executed");
        let tlb_ok = self.tlb.access_run(0, &self.sbm_pages, mem_ops);
        debug_assert!(tlb_ok, "probe checked TLB residency for every page");
        let ptid = self.threads[ti].0;
        self.prefetch
            .record_run(WatchId(u64::from(ptid)), &self.sbm_plines);
        self.quiet_stores += n_stores;
        let t = &mut self.threads[ti].1;
        t.arch.gprs = gprs;
        t.arch.pc = pc;
        t.touched |= touched;
        true
    }

    /// Resolves an access of `len` bytes at `addr`: the worker's own
    /// domain, the frozen shared image, or a bail (any overlap with a
    /// registered domain that is not full containment in our own).
    fn locate(&self, addr: u64, len: u64) -> Result<Loc, Bail> {
        let end = addr + len;
        if let Some((base, bytes)) = &self.domain {
            if addr >= *base && end <= base + bytes.len() as u64 {
                return Ok(Loc::Own((addr - base) as usize));
            }
        }
        for (b, l) in self.sh.domains.iter().flatten() {
            if addr < b + l && *b < end {
                return Err(Bail);
            }
        }
        Ok(Loc::Shared)
    }

    fn read_bytes(&self, addr: u64, len: u64) -> Result<&[u8], Bail> {
        match self.locate(addr, len)? {
            Loc::Own(off) => {
                let bytes = &self
                    .domain
                    .as_ref()
                    .expect("own location implies a domain")
                    .1;
                Ok(&bytes[off..off + len as usize])
            }
            Loc::Shared => Ok(&self.sh.mem[addr as usize..(addr + len) as usize]),
        }
    }

    fn read_u64(&self, addr: u64) -> Result<u64, Bail> {
        Ok(u64::from_le_bytes(
            self.read_bytes(addr, 8)?.try_into().expect("8 bytes"),
        ))
    }

    fn read_u8(&self, addr: u64) -> Result<u8, Bail> {
        Ok(self.read_bytes(addr, 1)?[0])
    }

    /// Writes must land fully inside the worker's own domain.
    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), Bail> {
        match self.locate(addr, data.len() as u64)? {
            Loc::Own(off) => {
                let bytes = &mut self
                    .domain
                    .as_mut()
                    .expect("own location implies a domain")
                    .1;
                bytes[off..off + data.len()].copy_from_slice(data);
                Ok(())
            }
            Loc::Shared => Err(Bail),
        }
    }

    /// The store side effects a worker may *not* have: code-image
    /// invalidation, monitor wakes, MMIO doorbells. A quiet store's only
    /// filter effect (`stores_checked`) is batched to commit.
    fn check_store(&self, addr: u64, len: u64) -> Result<(), Bail> {
        let end = addr.saturating_add(len.max(1));
        if addr < self.sh.code_hi
            && end > self.sh.code_lo
            && self.sh.code.iter().any(|r| addr < r.end && end > r.base)
        {
            // A real decoded-range overlap: the serial engine would run
            // `invalidate_code`, a shared effect. A hull hit *between*
            // images has no code effect and commits fine.
            return Err(Bail);
        }
        if self.sh.filter.would_wake(PAddr(addr), len) {
            return Err(Bail);
        }
        if !self.sh.mmio_addrs.is_empty() {
            let lo = addr.saturating_sub(7);
            let i = self.sh.mmio_addrs.partition_point(|&a| a < lo);
            if self.sh.mmio_addrs.get(i).is_some_and(|&a| a < end) {
                return Err(Bail);
            }
        }
        Ok(())
    }

    /// Mirrors `Machine::data_access`; the L1/L2-only cache view makes
    /// any access that needs the shared L3 a bail.
    fn data_access(
        &mut self,
        ti: usize,
        addr: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<Cycles, Bail> {
        if addr.checked_add(len).is_none() || addr + len > self.sh.cfg.mem_bytes {
            // Serial raises BadMemory here — an exception path.
            return Err(Bail);
        }
        let tlb_cost = self.tlb.access(0, addr / PAGE_BYTES);
        let part = self.threads[ti].1.partition;
        let Some(res) = self.caches.try_access(PAddr(addr), kind, part) else {
            return Err(Bail);
        };
        let ptid = self.threads[ti].0;
        self.prefetch
            .record_access(WatchId(u64::from(ptid)), PAddr(addr));
        Ok(tlb_cost + res.latency)
    }

    /// Mirrors `Machine::cached_inst` (the hint is worker-local; ranges
    /// never overlap, so hint hits and scans agree).
    fn cached_inst(&mut self, pc: u64) -> Option<Inst> {
        let code = self.sh.code;
        let hint = self.last_code;
        let idx = match code.get(hint) {
            Some(r) if r.base <= pc && pc < r.end => hint,
            _ => {
                let idx = code.iter().position(|r| r.base <= pc && pc < r.end)?;
                self.last_code = idx;
                idx
            }
        };
        let off = pc - code[idx].base;
        if off & 7 != 0 {
            return None;
        }
        code[idx].insts[(off >> 3) as usize]
    }

    /// Mirrors `Machine::exec_inst` over the pure-compute + core-local
    /// memory subset; anything else — exceptions, privilege traps,
    /// syscalls, hcalls, monitor/mwait, thread control, CSRs, `Halt`,
    /// L3-bound accesses, non-local stores — bails the epoch. Bailing
    /// *before* any shard-visible effect is not required (clones are
    /// discarded wholesale); bailing before any *shared* effect is, and
    /// every shared touchpoint above is read-only.
    #[allow(clippy::too_many_lines)]
    fn exec_inst(&mut self, ti: usize) -> Result<Cycles, Bail> {
        let pc = self.threads[ti].1.arch.pc;
        if pc.checked_add(8).is_none_or(|e| e > self.sh.cfg.mem_bytes) {
            return Err(Bail);
        }
        let Some(ifetch) =
            self.caches
                .try_access(PAddr(pc), AccessKind::Read, PartitionId::DEFAULT)
        else {
            return Err(Bail);
        };
        let ifetch_cost = if ifetch.level == HitLevel::L1 {
            Cycles::ZERO
        } else {
            ifetch.latency
        };
        let inst = match self.cached_inst(pc) {
            Some(i) => i,
            None => {
                let word = self.read_u64(pc)?;
                match Inst::decode(word) {
                    Ok(i) => i,
                    Err(_) => return Err(Bail),
                }
            }
        };
        if inst.is_privileged() && self.threads[ti].1.arch.mode == Mode::User {
            return Err(Bail);
        }

        let mut cost = ifetch_cost + Cycles(inst.base_cost());
        let mut next_pc = pc + 8;

        macro_rules! gpr {
            ($r:expr) => {
                self.threads[ti].1.arch.gprs[$r.0 as usize & 0xf]
            };
        }
        macro_rules! set_gpr {
            ($r:expr, $v:expr) => {{
                let v = $v;
                let t = &mut self.threads[ti].1;
                t.arch.gprs[$r.0 as usize & 0xf] = v;
                t.touched |= 1 << ($r.0 & 0xf);
            }};
        }
        use Inst::*;
        match inst {
            Add { d, a, b } => set_gpr!(d, gpr!(a).wrapping_add(gpr!(b))),
            Sub { d, a, b } => set_gpr!(d, gpr!(a).wrapping_sub(gpr!(b))),
            And { d, a, b } => set_gpr!(d, gpr!(a) & gpr!(b)),
            Or { d, a, b } => set_gpr!(d, gpr!(a) | gpr!(b)),
            Xor { d, a, b } => set_gpr!(d, gpr!(a) ^ gpr!(b)),
            Shl { d, a, b } => set_gpr!(d, gpr!(a) << (gpr!(b) & 63)),
            Shr { d, a, b } => set_gpr!(d, gpr!(a) >> (gpr!(b) & 63)),
            Mul { d, a, b } => set_gpr!(d, gpr!(a).wrapping_mul(gpr!(b))),
            Div { d, a, b } => {
                let divisor = gpr!(b);
                if divisor == 0 {
                    return Err(Bail);
                }
                set_gpr!(d, gpr!(a) / divisor);
            }
            Addi { d, a, imm } => set_gpr!(d, gpr!(a).wrapping_add(imm as u64)),
            Movi { d, imm } => set_gpr!(d, imm as u64),
            Mov { d, a } => set_gpr!(d, gpr!(a)),
            Ld { d, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                cost += self.data_access(ti, addr, 8, AccessKind::Read)?;
                let v = self.read_u64(addr)?;
                set_gpr!(d, v);
            }
            LdA { d, addr } => {
                cost += self.data_access(ti, addr, 8, AccessKind::Read)?;
                let v = self.read_u64(addr)?;
                set_gpr!(d, v);
            }
            St { s, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                cost += self.data_access(ti, addr, 8, AccessKind::Write)?;
                self.check_store(addr, 8)?;
                let v = gpr!(s);
                self.write_bytes(addr, &v.to_le_bytes())?;
                self.quiet_stores += 1;
            }
            StA { s, addr } => {
                cost += self.data_access(ti, addr, 8, AccessKind::Write)?;
                self.check_store(addr, 8)?;
                let v = gpr!(s);
                self.write_bytes(addr, &v.to_le_bytes())?;
                self.quiet_stores += 1;
            }
            LdB { d, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                cost += self.data_access(ti, addr, 1, AccessKind::Read)?;
                let v = u64::from(self.read_u8(addr)?);
                set_gpr!(d, v);
            }
            StB { s, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                cost += self.data_access(ti, addr, 1, AccessKind::Write)?;
                self.check_store(addr, 1)?;
                let v = (gpr!(s) & 0xff) as u8;
                self.write_bytes(addr, &[v])?;
                self.quiet_stores += 1;
            }
            Jmp { addr } => next_pc = addr,
            Jr { a } => next_pc = gpr!(a),
            Jal { d, addr } => {
                set_gpr!(d, pc + 8);
                next_pc = addr;
            }
            Beq { a, b, addr } => {
                if gpr!(a) == gpr!(b) {
                    next_pc = addr;
                }
            }
            Bne { a, b, addr } => {
                if gpr!(a) != gpr!(b) {
                    next_pc = addr;
                }
            }
            Blt { a, b, addr } => {
                if (gpr!(a) as i64) < (gpr!(b) as i64) {
                    next_pc = addr;
                }
            }
            Bge { a, b, addr } => {
                if (gpr!(a) as i64) >= (gpr!(b) as i64) {
                    next_pc = addr;
                }
            }
            Nop | Work { .. } | Fence => {}
            _ => return Err(Bail),
        }
        self.threads[ti].1.arch.pc = next_pc;
        Ok(cost)
    }
}

impl Machine {
    /// The sharded run loop: epochs where the event stream allows them,
    /// serial replay (via [`Machine::step_one`]) where it does not.
    pub(crate) fn run_until_sharded(&mut self, t: Cycles) {
        // Events strictly below the floor replay serially (a bailed or
        // too-thin window is settled the reference way before retrying).
        let mut serial_floor = Cycles::ZERO;
        // Consecutive commit-time tie retries from the same head.
        let mut tie_streak = 0u32;
        while self.halted.is_none() {
            let Some(head) = self.events.peek_time() else {
                break;
            };
            if head > t {
                break;
            }
            if head >= serial_floor {
                match self.try_epoch(t) {
                    EpochOutcome::Committed => {
                        self.epoch_len = Cycles((self.epoch_len.0 * 2).min(MAX_EPOCH));
                        tie_streak = 0;
                        continue;
                    }
                    EpochOutcome::Bailed(b) => {
                        self.epoch_len = Cycles((self.epoch_len.0 / 2).max(MIN_EPOCH));
                        tie_streak = 0;
                        serial_floor = b.max(Cycles(head.0 + 1));
                    }
                    EpochOutcome::Tie(b) => {
                        self.epoch_len = Cycles((self.epoch_len.0 / 2).max(MIN_EPOCH));
                        tie_streak += 1;
                        if tie_streak < 3 {
                            // The interior was clean; a shorter window
                            // moves the survivor times — retry in place.
                            continue;
                        }
                        // Phase-locked cores tie at every horizon: make
                        // progress the reference way.
                        tie_streak = 0;
                        serial_floor = b.max(Cycles(head.0 + 1));
                    }
                    EpochOutcome::TooFew(b) => {
                        tie_streak = 0;
                        serial_floor = b.max(Cycles(head.0 + 1));
                    }
                }
            }
            let bound = t.min(Cycles(serial_floor.0 - 1));
            while self.halted.is_none()
                && self
                    .events
                    .peek_time()
                    .is_some_and(|h| h < serial_floor && h <= t)
            {
                self.step_one(bound, t);
                self.shard_stats.serial_events += 1;
            }
        }
        if self.halted.is_none() && self.now < t {
            self.now = t;
        }
    }

    /// Attempts one parallel epoch over the window `[head, B)`.
    #[allow(clippy::too_many_lines)]
    fn try_epoch(&mut self, t: Cycles) -> EpochOutcome {
        let head = self.events.peek_time().expect("caller checked the head");
        // The dispatch horizon is `t`, so events can exist at `t + 1`
        // (burst-end SlotFrees); the window never reaches past them.
        let cap = if t.0 == u64::MAX { t } else { Cycles(t.0 + 1) };
        let mut b = (head + self.epoch_len).min(cap);

        // Stage every SlotFree strictly below B. A callback event
        // truncates the window to its due time: callbacks run arbitrary
        // host code and must execute on the real machine, and same-time
        // staged events are pushed back (a callback may interleave with
        // them in seq order).
        let mut staged: Vec<(Cycles, switchless_sim::event::EventToken, Ev)> = Vec::new();
        while let Some(ht) = self.events.peek_time() {
            if ht >= b {
                break;
            }
            let Some((at, tok, ev)) = self.events.pop_keyed() else {
                break;
            };
            if matches!(ev, Ev::Call(_)) {
                self.events.restore(at, tok, ev);
                while staged.last().is_some_and(|&(t2, _, _)| t2 == at) {
                    let (t2, tok2, ev2) = staged.pop().expect("non-empty");
                    self.events.restore(t2, tok2, ev2);
                }
                b = at;
                break;
            }
            staged.push((at, tok, ev));
        }

        let restore_staged =
            |m: &mut Machine, staged: Vec<(Cycles, switchless_sim::event::EventToken, Ev)>| {
                for (at, tok, ev) in staged.into_iter().rev() {
                    m.events.restore(at, tok, ev);
                }
            };

        // Group by core; staging index is the event's virtual seq.
        let mut per_core: BTreeMap<u32, Vec<(Cycles, u64, u32)>> = BTreeMap::new();
        for (i, &(at, _, ev)) in staged.iter().enumerate() {
            let Ev::SlotFree { core, slot } = ev else {
                unreachable!("calls truncate the window");
            };
            per_core.entry(core).or_default().push((at, i as u64, slot));
        }
        if per_core.len() < 2 {
            restore_staged(self, staged);
            self.shard_stats.too_few += 1;
            return EpochOutcome::TooFew(b);
        }

        let staged_total = staged.len() as u64;
        let inputs: Vec<WorkerInput> = per_core
            .into_iter()
            .map(|(core, evs)| {
                let c = core as usize;
                let mut tids: Vec<u32> = self.cores[c].sched.iter_enrolled().map(|p| p.0).collect();
                tids.sort_unstable();
                let threads: Vec<(u32, Thread)> = tids
                    .iter()
                    .map(|&i| (i, self.threads[i as usize].clone()))
                    .collect();
                let prefetch = self
                    .prefetcher
                    .core_view(tids.iter().map(|&i| WatchId(u64::from(i))));
                let domain = self.core_domains[c].map(|(base, len)| {
                    (
                        base,
                        self.mem[base as usize..(base + len) as usize].to_vec(),
                    )
                });
                WorkerInput {
                    core: c,
                    staged: evs,
                    cs: self.cores[c].clone(),
                    threads,
                    caches: self.hier.core_view(c),
                    tlb: self.tlbs[c].clone(),
                    prefetch,
                    domain,
                }
            })
            .collect();

        let jobs = self.machine_jobs.min(inputs.len());
        let results = {
            let sh = Shared {
                cfg: self.cfg,
                now0: self.now,
                b,
                t,
                staged_total,
                mem: &self.mem,
                filter: self.filter.as_ref(),
                code: &self.code,
                code_lo: self.code_lo,
                code_hi: self.code_hi,
                // Maintained sorted by `register_mmio`; no per-epoch
                // rebuild.
                mmio_addrs: &self.mmio_addrs,
                domains: &self.core_domains,
                // Wide enough to clear any common instruction cost (so
                // the per-core continuation bands stay disjoint), small
                // against the window (so the held-back tail is noise);
                // a tie from an unusually expensive instruction is
                // still caught at commit and retried.
                gap: ((b.0 - head.0) / (2 * self.cfg.cores.max(1) as u64)).min(64),
            };
            par_map_owned(jobs, inputs, |_, input| run_worker(&sh, input))
        };

        let mut oks: Vec<WorkerOk> = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(ok) => oks.push(ok),
                Err(Bail) => {
                    restore_staged(self, staged);
                    self.shard_stats.bailed += 1;
                    return EpochOutcome::Bailed(b);
                }
            }
        }

        // Cross-core ties the vseq model cannot break faithfully: two
        // surviving events due the same cycle (their queue-seq order
        // decides a future pop) or two wake samples the same cycle
        // (their order decides `last_wake`). Within one core the local
        // order is serial-faithful; across cores, bail.
        let cross_core_time_tie = |times: &mut Vec<(Cycles, usize)>| {
            times.sort_unstable();
            times
                .windows(2)
                .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
        };
        let mut surv_times: Vec<(Cycles, usize)> = oks
            .iter()
            .enumerate()
            .flat_map(|(pos, ok)| ok.survivors.iter().map(move |&(_, at, _)| (at, pos)))
            .collect();
        let mut wake_times: Vec<(Cycles, usize)> = oks
            .iter()
            .enumerate()
            .flat_map(|(pos, ok)| {
                ok.records
                    .iter()
                    .filter(|r| r.wake.is_some())
                    .map(move |r| (r.time, pos))
            })
            .collect();
        if cross_core_time_tie(&mut surv_times) || cross_core_time_tie(&mut wake_times) {
            restore_staged(self, staged);
            self.shard_stats.ties += 1;
            return EpochOutcome::Tie(b);
        }

        // ---- Commit (all-or-nothing; no bail past this point) ----
        self.shard_stats.committed += 1;

        // Reconstruct the global pop order for cross-record effects.
        let streams: Vec<Vec<PopRecord>> = oks
            .iter_mut()
            .map(|o| std::mem::take(&mut o.records))
            .collect();
        let (merged, fresh_seq) = merge_epoch(staged_total, streams);
        let mut now_max = self.now;
        for (_, r) in &merged {
            now_max = now_max.max(r.now_after);
            if let Some((p, sample)) = r.wake {
                self.wake_latency.record(sample);
                self.last_wake = Some((Ptid(p), sample));
            }
        }

        // Surviving events enter the real queue in global vseq order, so
        // their relative seqs equal the serial engine's.
        let mut to_schedule: Vec<(u64, Cycles, u32, u32)> = Vec::new();
        for (pos, ok) in oks.iter().enumerate() {
            for &(local, at, slot) in &ok.survivors {
                to_schedule.push((fresh_seq[pos][local as usize], at, ok.core as u32, slot));
            }
        }
        to_schedule.sort_unstable_by_key(|&(vseq, _, _, _)| vseq);
        for (_, at, core, slot) in to_schedule {
            self.events.schedule(at, Ev::SlotFree { core, slot });
        }

        // Serial-clock invariant: the serial engine's `now` never passes
        // a pending event (the burst gate stops first), so every pop
        // dispatches at its own due time. The max-of-cursors value can
        // pass one — a core whose fresh horizon was staggered low holds
        // a survivor *below* another core's final cursor — and an
        // unclamped `now` would re-base that survivor's dispatch and
        // drift its thread's whole future. Clamp to the earliest pending
        // event; a no-op when every survivor is at or past `B`.
        if let Some(h) = self.events.peek_time() {
            now_max = now_max.min(h);
        }
        self.now = now_max;

        // Splice each core's state back and batch the counter deltas.
        let mut quiet = 0u64;
        for ok in oks {
            let WorkerOk {
                core,
                threads,
                cs,
                caches,
                tlb,
                prefetch,
                domain,
                d_dispatches,
                d_insts,
                d_activate,
                quiet_stores,
                ..
            } = ok;
            for (p, th) in threads {
                self.threads[p as usize] = th;
            }
            self.cores[core] = cs;
            self.hier.commit_core_view(core, caches);
            self.tlbs[core] = tlb;
            self.prefetcher.absorb(prefetch);
            if let Some((base, bytes)) = domain {
                let lo = base as usize;
                self.mem[lo..lo + bytes.len()].copy_from_slice(&bytes);
            }
            self.counters.bump(self.hot.sched_dispatches, d_dispatches);
            self.counters.bump(self.hot.inst_executed, d_insts);
            for (i, &n) in d_activate.iter().enumerate() {
                self.counters.bump(self.hot.activate[i], n);
            }
            quiet += quiet_stores;
            self.shard_stats.insts_parallel += d_insts;
        }
        if quiet > 0 {
            self.filter.note_quiet_stores(quiet);
        }
        EpochOutcome::Committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_queue_orders_by_time_then_key() {
        let mut q = LocalQueue::default();
        q.push(Cycles(10), 2, 0);
        q.push(Cycles(10), 1, 1);
        q.push(Cycles(5), 7, 0);
        assert_eq!(q.pop_below(Cycles(100)), Some((Cycles(5), 7, 0)));
        assert_eq!(q.pop_below(Cycles(100)), Some((Cycles(10), 1, 1)));
        assert_eq!(q.pop_below(Cycles(100)), Some((Cycles(10), 2, 0)));
        assert_eq!(q.pop_below(Cycles(100)), None);
    }

    #[test]
    fn local_queue_pop_below_is_strict() {
        let mut q = LocalQueue::default();
        q.push(Cycles(8), 0, 0);
        assert_eq!(q.next_deadline(), Some(Cycles(8)));
        assert_eq!(q.pop_below(Cycles(8)), None);
        assert_eq!(q.pop_below(Cycles(9)), Some((Cycles(8), 0, 0)));
    }

    #[test]
    fn local_queue_drain_returns_everything() {
        let mut q = LocalQueue::default();
        q.push(Cycles(3), 0, 0);
        q.push(Cycles(1), 1, 1);
        let mut all = q.drain_all();
        all.sort_unstable();
        assert_eq!(all, vec![(Cycles(1), 1, 1), (Cycles(3), 0, 0)]);
    }
}
