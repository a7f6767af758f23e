//! Conservative core-sharded parallel engine (see DESIGN.md §9): the
//! epoch driver, and the epoch worker's execution context.
//!
//! Workers run the serial machine's own interpreter — `dispatch`, the
//! burst loop, superblocks and `exec_inst` in `machine.rs` — through
//! the worker's `ExecCtx` impl below, which confines every effect to
//! one core's cloned state and bails on anything else. This module holds
//! no instruction semantics of its own.
//!
//! [`Machine::run_until`] on [`Engine::Fast`] executes *epochs* on every
//! multi-core machine, invariant checker on or off. The window ends at a
//! cross-core horizon `B` (a device event — host code, queued with
//! [`Machine::at_device`], or an `mwait` watchdog deadline — ends it at
//! its due time). Every core with a slot due strictly below `B` (a
//! *staged* slot) is cloned into a `Shard` — that core's private state:
//! its `CoreState` with the slot table and TLB, L1/L2, prefetch capture,
//! the threads enrolled there, and its registered memory domain — and a
//! worker runs the core's dispatches against it; every shard commits
//! back at an epoch barrier. Nothing is taken out of the machine to
//! stage a window, so nothing is put back when one is refused.
//!
//! The engine is speculative in implementation but conservative in
//! effect: a worker that would touch anything outside its shard — another
//! core's memory domain, the monitor filter, an hcall, an exception, the
//! shared L3, an MMIO doorbell — abandons the epoch (`Bail`), the shards
//! are dropped, and the window replays on the serial engine. The commit
//! is meant to leave the machine bit-identical to the serial engine, by
//! the argument below; it has one known hole, described after it:
//!
//! * Workers replay the serial order *restricted to their core*: a
//!   worker takes its slots by `(time, key)`, where a staged slot's key
//!   is its real seq and a slot the worker arms gets `mark0 + creation
//!   index` (`Shared::mark0`), exactly as the serial engine would order
//!   them (staged slots predate the epoch's, matching seq issue order).
//! * Across cores, time is the only order. The one cross-core tie the
//!   simulation can read is two cores' surviving events due the same
//!   cycle (their queue-seq order decides a future pop); the commit
//!   refuses that epoch and the window replays serially, as after a
//!   bail. Everything else the commit consumes depends on times alone or
//!   on no order at all: `now` is the max of the workers' final cursors,
//!   the wake samples are a multiset recorded into a histogram, and
//!   survivors of different cores never share a due time, so they take
//!   real seqs core by core in local creation order.
//! * The serial engine's burst splits (foreign-event horizon checks,
//!   `MAX_BURST`, stale deadline hints) are observably invisible — same
//!   instructions at the same start cycles, identical cost accounting,
//!   identical store-tier stamps up to relative order — so workers may
//!   place splits differently (at `B`) without divergence.
//!
//! **The known divergence (ROADMAP item 1).** The second point assumes a
//! committed epoch has no cross-core effects. The queue's same-cycle
//! order is one. With the staggered fresh horizons (`Shared::gap`), core
//! 0 can commit a survivor due at cycle `T` that it created after the
//! time of an event core 1 held back. When core 1 later pops that event
//! and creates its own event at `T`, the real queue orders it after core
//! 0's survivor; the serial engine, which ran core 1's earlier pop first,
//! orders it before. The survivor-tie refusal cannot see this, because
//! core 1's event does not exist at commit. `build_store_race` in
//! `tests/shard_equivalence.rs`, run as `run_until(6259)` then
//! `run_until(20_000)`, ends with a different fingerprint on
//! [`Engine::Fast`] than on [`Engine::Reference`] at `machine_jobs` 1, 2
//! and 4. The committed `results/` trees and the test fixtures' cut
//! schedules do not hit it.
//!
//! The gain comes from per-core lookahead, not host threads: a worker's
//! burst loop sees only its own core's slots, so it runs long bursts and
//! superblocks where the serial loop stops at the next event on *any*
//! core. [`Machine::set_machine_jobs`] only sets how many host
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

use switchless_isa::inst::Inst;
use switchless_mem::addr::PAddr;
use switchless_mem::cache::PartitionId;
use switchless_mem::hierarchy::{AccessKind, AccessResult, CoreCaches};
use switchless_mem::monitor::{MonitorFilter, WatchId};
use switchless_mem::prefetch::Capture;
use switchless_sim::par::par_map_owned;
use switchless_sim::time::Cycles;

use crate::exception::ExceptionKind;
use crate::machine::{
    read_le, run_slots, store_is_quiet, write_le, CodeRange, CoreState, EngineStats, ExecCtx,
    Machine, MachineConfig, Probe, Slot, Thread,
};
use crate::tid::Ptid;

/// Epochs double up to this length while committing cleanly.
const MAX_EPOCH: u64 = 1 << 20;
/// Epochs halve down to this length while bailing.
const MIN_EPOCH: u64 = 64;

/// The epoch engine's host-side settings on a [`Machine`], never
/// observable in simulated state (its statistics are in
/// [`EngineStats`]).
pub(crate) struct EpochEngine {
    /// Host threads for the per-core workers; 1 runs them inline.
    /// Never selects an engine.
    jobs: usize,
    /// Host-declared per-core private data windows `(base, len)`
    /// ([`Machine::set_core_domain`]). A worker may execute loads/stores
    /// that land fully inside its own core's window; loads fully outside
    /// *every* window read the frozen epoch-start image.
    domains: Vec<Option<(u64, u64)>>,
    /// Adaptive epoch length.
    len: Cycles,
}

impl EpochEngine {
    pub(crate) fn new(cores: usize) -> EpochEngine {
        EpochEngine {
            jobs: 1,
            domains: vec![None; cores],
            len: Cycles(MIN_EPOCH),
        }
    }
}

/// A worker abandoning the epoch. Carries nothing: the clones are
/// dropped wholesale and the real machine was never touched.
struct Bail;

/// Epoch-constant state shared read-only by every worker.
struct Shared<'a> {
    cfg: MachineConfig,
    /// Machine `now` at epoch start (workers evolve a local copy).
    now0: Cycles,
    /// Event horizon: workers dispatch slots due strictly below this.
    b: Cycles,
    /// Run deadline (`run_until`'s `t`): burst dispatch bound.
    t: Cycles,
    /// The machine's seq counter at epoch start. Every slot armed before
    /// the epoch holds a real seq below it; a worker arms its fresh
    /// slots with local keys `mark0 + creation index`, so keys order a
    /// core's slots exactly as the real seqs would.
    mark0: u64,
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
    /// Per-core fresh-slot horizon stagger: core `c` stops consuming
    /// the slots it *armed in the epoch* at `B - gap * c`, so burst-end
    /// continuations land in disjoint per-core time bands instead of
    /// piling up just past a common `B` — which is what made
    /// commit-time survivor ties near-certain for compute cores with
    /// dense instruction boundaries. A held-back slot is a survivor
    /// exactly as if `B` were lower for that core, but that is not
    /// free: the same-cycle `(time, seq)` order is a cross-core effect,
    /// and a held-back slot can arm one due the same cycle as another
    /// core's committed survivor, which the real seqs then order after
    /// it where the serial engine orders it first (the known divergence
    /// in the module doc, ROADMAP item 1).
    ///
    /// The stagger cannot simply go under today's tie rule. With `gap`
    /// forced to 0, perfbench `multicore --trace 1` made 3,664 epoch
    /// attempts, 1,666 commits, 126 bails and 1,872 ties (against
    /// 1,029 / 870 / 120 / 39 with it); the parallel share of
    /// instructions fell from 0.9995 to 0.44 and `core.run.ns_per_inst`
    /// rose from about 11 to about 140 (2-vCPU x86-64 Linux host).
    gap: u64,
}

/// One core's epoch state, moved as one value: [`Machine::shard_out`]
/// clones it out of the machine, a worker runs the serial interpreter
/// against it, and [`Machine::shard_in`] commits it back.
pub(crate) struct Shard {
    core: usize,
    /// Scheduler, state store, TDT cache, TLB and slots.
    cs: CoreState,
    /// Threads enrolled on this core, sorted by ptid.
    threads: Vec<(u32, Thread)>,
    /// The private levels; an access that needs the shared L3 bails.
    caches: CoreCaches,
    /// The enrolled threads' prefetch capture.
    capture: Capture,
    /// `(base, bytes)` copy of this core's memory domain.
    domain: Option<(u64, Vec<u8>)>,
    /// Counter and [`EngineStats`] deltas, added at commit.
    stats: EngineStats,
    activate: [u64; 4],
    /// Wake-latency samples of the dispatches that consumed a `wake_at`
    /// stamp, recorded into the histogram at commit.
    wakes: Vec<u64>,
}

/// A successful worker's output.
struct WorkerOk {
    /// The worker's final `now` (burst cursor included).
    local_now: Cycles,
    /// Slots armed in the epoch and still due at its end, in creation
    /// order: `(key, due, slot)`.
    survivors: Vec<(u64, Cycles, usize)>,
    shard: Shard,
}

/// Finds `p` in a sorted enrolled-thread table.
fn find(threads: &[(u32, Thread)], p: Ptid) -> usize {
    threads
        .binary_search_by_key(&p.0, |e| e.0)
        .expect("scheduler picked a thread enrolled on this core")
}

/// One epoch worker: the serial machine's interpreter (`dispatch` in
/// `machine.rs`) run against one [`Shard`], through this context. Its
/// other fields are scratch.
struct Worker<'a> {
    sh: &'a Shared<'a>,
    s: Shard,
    local_now: Cycles,
    /// Slots armed so far in the epoch (the next fresh key suffix).
    created: u64,
    probe: Option<Box<Probe>>,
}

/// Runs `s`'s core over its slots due strictly below `B`.
fn run_worker(sh: &Shared<'_>, s: Shard) -> Result<WorkerOk, Bail> {
    // This core's fresh-event horizon (see `Shared::gap`). Staged
    // slots still consume up to `B`: they are real pre-epoch events
    // and skipping one while running a later one would reorder the
    // core's serial stream.
    let core = s.core;
    let fresh_b = Cycles(sh.b.0.saturating_sub(sh.gap * core as u64)).max(sh.now0 + Cycles(1));
    // Bursts stop at the run deadline and before the fresh horizon: no
    // instruction may *start* at or after it (its pop would belong to
    // the next window). The serial engine may split bursts at other
    // points (foreign events, stale deadline hints); splits are
    // observably invisible, so the placement may differ — which is also
    // why the per-core stagger of this bound is free.
    let horizon = sh.t.min(Cycles(fresh_b.0 - 1));
    let mut w = Worker {
        sh,
        s,
        local_now: sh.now0,
        created: 0,
        probe: None,
    };
    // The core's window ends at `B`, and a fresh slot at or past its
    // horizon survives to the next epoch, exactly as if it were due at
    // or past `B`.
    run_slots(&mut w, core, horizon, None, |_, ts, key| {
        ts < sh.b && !(key >= sh.mark0 && ts >= fresh_b)
    })?;
    let mut survivors = Vec::new();
    for (slot, &st) in w.s.cs.slots.iter().enumerate() {
        let Some((at, key)) = st.due() else { continue };
        if key >= sh.mark0 {
            debug_assert!(at >= fresh_b, "slots below the fresh horizon are drained");
            survivors.push((key, at, slot));
        } else if at < sh.b {
            // A staged slot past a held-back fresh horizon: consuming
            // it would reorder this core's stream, and leaving it would
            // let a later fresh slot dispatch first. Settle the window
            // serially.
            return Err(Bail);
        }
    }
    // Creation order is this core's serial seq order for the survivors.
    survivors.sort_unstable();
    Ok(WorkerOk {
        local_now: w.local_now,
        survivors,
        shard: w.s,
    })
}

impl Worker<'_> {
    /// Resolves an access of `len` bytes at in-memory `addr`:
    /// `Some(offset)` into the worker's own domain, `None` for the frozen
    /// shared image (fully outside every registered domain), or a bail
    /// on any other overlap with a registered domain.
    #[inline(always)]
    fn locate(&self, addr: u64, len: u64) -> Result<Option<usize>, Bail> {
        let end = addr + len;
        if let Some((base, bytes)) = &self.s.domain {
            if addr >= *base && end <= base + bytes.len() as u64 {
                return Ok(Some((addr - base) as usize));
            }
        }
        let overlaps = |&(b, l): &(u64, u64)| addr < b + l && b < end;
        if self.sh.domains.iter().flatten().any(overlaps) {
            return Err(Bail);
        }
        Ok(None)
    }
}

/// The shard discipline: a worker performs only effects confined to its
/// core. Everything else — an exception, a system instruction (privilege
/// trap, syscall, hcall, monitor/mwait, thread control, CSR, `Halt`), an
/// access that needs the shared L3, a store outside the own domain or
/// one that is not quiet — bails the epoch. Bailing before any
/// shard-visible effect is not required (clones are discarded
/// wholesale); bailing before any *shared* effect is, and every shared
/// touchpoint here is read-only.
impl ExecCtx for Worker<'_> {
    type Bail = Bail;

    fn cfg(&self) -> &MachineConfig {
        &self.sh.cfg
    }
    fn now(&self) -> Cycles {
        self.local_now
    }
    fn set_now(&mut self, t: Cycles) {
        self.local_now = t;
    }
    /// An epoch's interior has no check boundaries (DESIGN.md §7).
    fn clock_to(&mut self, ts: Cycles) {
        self.local_now = self.local_now.max(ts);
    }
    fn halted(&self) -> bool {
        false
    }
    fn superblocks(&self) -> bool {
        true
    }
    fn core_mut(&mut self, _: usize) -> &mut CoreState {
        &mut self.s.cs
    }
    fn th_index(&self, ptid: Ptid) -> usize {
        find(&self.s.threads, ptid)
    }
    fn th(&self, h: usize) -> &Thread {
        &self.s.threads[h].1
    }
    fn th_mut(&mut self, h: usize) -> &mut Thread {
        &mut self.s.threads[h].1
    }
    /// Arms a fresh slot; local keys continue after `mark0` in
    /// creation order.
    fn schedule_slot(&mut self, at: Cycles, _: usize, slot: usize) {
        let key = self.sh.mark0 + self.created;
        self.created += 1;
        self.s.cs.slots[slot] = Slot::Due(at, key);
    }
    /// Nothing: a worker cannot wake, kick or run a device, so during
    /// its burst every pending entry is a sibling slot of the same core.
    fn foreign_bound(&mut self, _: usize) -> Option<Cycles> {
        None
    }

    fn note_burst(&mut self, steps: u64, reg_block: u64, mem_block: u64) {
        self.s.stats.note_burst(steps, reg_block, mem_block);
    }
    fn stats(&mut self) -> &mut EngineStats {
        &mut self.s.stats
    }
    fn note_activation(&mut self, from: usize) {
        self.s.activate[from] += 1;
    }
    fn note_wake(&mut self, sample: u64) {
        self.s.wakes.push(sample);
    }
    /// Hcalls bail, so no charge ever accrues.
    fn take_charge(&mut self) -> Cycles {
        Cycles::ZERO
    }

    fn code(&self) -> &[CodeRange] {
        self.sh.code
    }
    fn code_hull(&self) -> (u64, u64) {
        (self.sh.code_lo, self.sh.code_hi)
    }
    /// Read-only: heat and formation stay serial.
    fn heat(&mut self, _: usize, _: usize, _: u32) -> Option<u32> {
        None
    }
    fn probe(&mut self) -> &mut Option<Box<Probe>> {
        &mut self.probe
    }

    #[inline(always)]
    fn load(&self, addr: u64, len: u64) -> Result<u64, Bail> {
        Ok(match self.locate(addr, len)? {
            Some(off) => read_le(&self.s.domain.as_ref().expect("own domain").1[off..], len),
            None => read_le(&self.sh.mem[addr as usize..], len),
        })
    }
    /// Writes must land fully inside the worker's own domain.
    #[inline(always)]
    fn write(&mut self, addr: u64, len: u64, v: u64) -> Result<u64, Bail> {
        let off = self.locate(addr, len)?.ok_or(Bail)?;
        let bytes = &mut self.s.domain.as_mut().expect("own domain").1[off..];
        let old = read_le(bytes, len);
        write_le(bytes, len, v);
        Ok(old)
    }
    /// Only a quiet store commits: code invalidation, monitor wakes and
    /// MMIO doorbells are shared effects.
    fn store_effects(&mut self, addr: u64, len: u64) -> Result<(), Bail> {
        if store_is_quiet(self, addr, len) {
            Ok(())
        } else {
            Err(Bail)
        }
    }
    fn filter(&self) -> &dyn MonitorFilter {
        self.sh.filter
    }
    fn mmio_addrs(&self) -> &[u64] {
        self.sh.mmio_addrs
    }

    /// The L1/L2-only cache view makes any access that needs the shared
    /// L3 a bail.
    fn cache_access(
        &mut self,
        _: usize,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> Result<AccessResult, Bail> {
        self.s.caches.try_access(addr, kind, part).ok_or(Bail)
    }
    fn caches(&mut self, _: usize) -> &mut CoreCaches {
        &mut self.s.caches
    }
    fn capture(&mut self) -> &mut Capture {
        &mut self.s.capture
    }

    fn raise(&mut self, _: Ptid, _: ExceptionKind, _: u64) -> Result<(), Bail> {
        Err(Bail)
    }
    fn exec_system(
        &mut self,
        _: usize,
        _: Ptid,
        _: Inst,
        _: u64,
        _: &mut Cycles,
    ) -> Result<Option<u64>, Bail> {
        Err(Bail)
    }
}

impl Machine {
    /// Sets how many host threads run the epoch engine's per-core
    /// workers; `0` or `1` runs them inline on the calling thread. It
    /// never selects an engine ([`Machine::set_engine`] does), and the
    /// simulated outcome is bit-identical for every value, so this is
    /// purely a wall-clock knob.
    pub fn set_machine_jobs(&mut self, jobs: usize) {
        self.epochs.jobs = jobs.max(1);
    }

    /// Declares `[base, base + len)` as `core`'s private data window for
    /// the epoch engine. Epoch workers may retire stores that land fully
    /// inside their own core's window; anything else bails the epoch and
    /// is replayed serially. Windows must be pairwise disjoint and inside
    /// physical memory.
    ///
    /// # Panics
    ///
    /// Panics on a bad core, an out-of-range window, or overlap with
    /// another core's window.
    pub fn set_core_domain(&mut self, core: usize, base: u64, len: u64) {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let end = base.checked_add(len).expect("domain wraps");
        assert!(end <= self.cfg.mem_bytes, "domain outside memory");
        for (c, d) in self.epochs.domains.iter().enumerate() {
            if let Some((b, l)) = *d {
                if c != core {
                    assert!(base >= b + l || b >= end, "domain overlaps core {c}");
                }
            }
        }
        self.epochs.domains[core] = Some((base, len));
    }

    /// The same as [`Machine::engine_stats`].
    #[must_use]
    pub fn shard_stats(&self) -> EngineStats {
        self.stats
    }

    /// Clones `core`'s epoch state out of the machine.
    pub(crate) fn shard_out(&self, core: usize) -> Shard {
        let mut tids: Vec<u32> = self.cores[core]
            .sched
            .iter_enrolled()
            .map(|p| p.0)
            .collect();
        tids.sort_unstable();
        let capture = self
            .prefetcher
            .core_view(tids.iter().map(|&i| WatchId(u64::from(i))));
        let domain = self.epochs.domains[core].map(|(base, len)| {
            (
                base,
                self.mem[base as usize..(base + len) as usize].to_vec(),
            )
        });
        Shard {
            core,
            cs: self.cores[core].clone(),
            threads: tids
                .into_iter()
                .map(|i| (i, self.threads[i as usize].clone()))
                .collect(),
            caches: self.hier.core_view(core),
            capture,
            domain,
            stats: EngineStats::default(),
            activate: [0; 4],
            wakes: Vec::new(),
        }
    }

    /// Commits a shard: its state replaces the core's, its counter
    /// deltas are bumped and its wake samples recorded.
    pub(crate) fn shard_in(&mut self, s: Shard) {
        let Shard {
            core,
            cs,
            threads,
            caches,
            capture,
            domain,
            stats,
            activate,
            wakes,
        } = s;
        self.cores[core] = cs;
        for (p, th) in threads {
            self.threads[p as usize] = th;
        }
        self.hier.commit_core_view(core, caches);
        self.prefetcher.absorb(capture);
        if let Some((base, bytes)) = domain {
            let lo = base as usize;
            self.mem[lo..lo + bytes.len()].copy_from_slice(&bytes);
        }
        // Every instruction is one dispatch.
        let insts = stats.insts();
        self.counters.bump(self.hot.sched_dispatches, insts);
        self.counters.bump(self.hot.inst_executed, insts);
        for (i, &n) in activate.iter().enumerate() {
            self.counters.bump(self.hot.activate[i], n);
        }
        for sample in wakes {
            self.wake_latency.record(sample);
        }
        self.stats.absorb(&stats);
        self.stats.insts_parallel += insts;
    }

    /// The sharded body of [`Machine::run_until`]: epochs where the event
    /// stream allows them, serial replay (via [`Machine::step`]) where it
    /// does not.
    pub(crate) fn run_until_sharded(&mut self, t: Cycles) {
        // Events strictly below the floor replay serially (a bailed,
        // tied or too-thin window is settled the reference way before
        // the next attempt).
        let mut serial_floor = Cycles::ZERO;
        while self.halted.is_none() {
            let Some(head) = self.next_time() else {
                break;
            };
            if head > t {
                break;
            }
            if head >= serial_floor {
                let Some(b) = self.try_epoch(t) else {
                    continue;
                };
                serial_floor = b.max(Cycles(head.0 + 1));
            }
            let bound = t.min(Cycles(serial_floor.0 - 1));
            while self.halted.is_none()
                && self.next_time().is_some_and(|h| h < serial_floor && h <= t)
            {
                self.stats.serial_events += self.step(bound, t, None);
            }
        }
    }

    /// Attempts one parallel epoch over the window `[head, B)`: `None`
    /// when it committed, or `Some(B)` when `[head, B)` must replay
    /// serially (a worker bailed, two cores' survivors tied, or fewer
    /// than two cores had work). The epoch length doubles on a commit,
    /// halves on a bail or tie, and stays put when too few cores ran.
    fn try_epoch(&mut self, t: Cycles) -> Option<Cycles> {
        let head = self.next_time().expect("caller checked the head");
        // The dispatch horizon is `t`, so slots can be due at `t + 1`
        // (burst ends); the window never reaches past them. A device
        // event (a registered handler, or the machine's own watchdog)
        // truncates the window to its due time: it runs host code
        // against the whole machine and must execute on the real one,
        // and same-time slots may interleave with it in seq order.
        let cap = if t.0 == u64::MAX { t } else { Cycles(t.0 + 1) };
        let mut b = (head + self.epochs.len).min(cap);
        if let Some(d) = self.events.peek_time() {
            b = b.min(d);
        }

        // The staged slots are those due strictly below B; every slot
        // armed so far holds a real seq below `mark0`. Nothing leaves
        // the machine: each worker finds its staged slots in its clone
        // of the core's slot table.
        let mark0 = self.events.schedule_mark();
        let staged = |cs: &CoreState| {
            cs.slots
                .iter()
                .any(|s| s.due().is_some_and(|(at, _)| at < b))
        };
        let cores: Vec<usize> = (0..self.cfg.cores)
            .filter(|&c| staged(&self.cores[c]))
            .collect();
        if cores.len() < 2 {
            self.stats.too_few += 1;
            return Some(b);
        }
        let inputs: Vec<Shard> = cores.into_iter().map(|c| self.shard_out(c)).collect();

        let jobs = self.epochs.jobs.min(inputs.len());
        let results = {
            let sh = Shared {
                cfg: self.cfg,
                now0: self.now,
                b,
                t,
                mark0,
                mem: &self.mem,
                filter: self.filter.as_ref(),
                code: &self.code,
                code_lo: self.code_lo,
                code_hi: self.code_hi,
                // Maintained sorted by `register_mmio`; no per-epoch
                // rebuild.
                mmio_addrs: &self.mmio_addrs,
                domains: &self.epochs.domains,
                // Wide enough to clear any common instruction cost (so
                // the per-core continuation bands stay disjoint), small
                // against the window (so the held-back tail is noise);
                // a tie from an unusually expensive instruction is
                // still caught at commit and replayed.
                gap: ((b.0 - head.0) / (2 * self.cfg.cores.max(1) as u64)).min(64),
            };
            par_map_owned(jobs, inputs, |_, s| run_worker(&sh, s))
        };

        let oks: Result<Vec<WorkerOk>, Bail> = results.into_iter().collect();
        let Ok(mut oks) = oks else {
            self.stats.bailed += 1;
            self.epochs.len = Cycles((self.epochs.len.0 / 2).max(MIN_EPOCH));
            return Some(b);
        };

        // The one cross-core tie the simulation reads: two cores'
        // surviving slots due the same cycle, whose seq order decides a
        // future dispatch. That order depends on where serial bursts
        // split, which workers cannot know, so the epoch is refused and
        // replays serially. With it gone, time orders every cross-core
        // effect and the commit below needs no global pop order.
        let mut surv_times: Vec<(Cycles, usize)> = oks
            .iter()
            .enumerate()
            .flat_map(|(pos, ok)| ok.survivors.iter().map(move |&(_, at, _)| (at, pos)))
            .collect();
        surv_times.sort_unstable();
        if surv_times
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
        {
            self.stats.ties += 1;
            self.epochs.len = Cycles((self.epochs.len.0 / 2).max(MIN_EPOCH));
            return Some(b);
        }

        // ---- Commit (all-or-nothing; no bail past this point) ----
        // The serial loop checks invariants when it pops the window's
        // first event, if the clock moves. Nothing the checker reads
        // changes inside the epoch (see DESIGN.md §7), so its interior
        // boundaries need no check: the next one is the first pop after
        // the commit. A refused window's serial replay checks in `step`.
        if self.invariants_on && head > self.now {
            self.check_invariants();
        }
        self.stats.committed += 1;
        self.epochs.len = Cycles((self.epochs.len.0 * 2).min(MAX_EPOCH));
        let now_max = oks
            .iter()
            .map(|ok| ok.local_now)
            .fold(self.now, Cycles::max);

        // Survivors of different cores never share a due time, so only
        // each core's local creation order reaches the real seqs, which
        // they take core by core.
        for ok in &mut oks {
            for &(_, at, slot) in &ok.survivors {
                let seq = self.events.issue_seq();
                ok.shard.cs.slots[slot] = Slot::Due(at, seq);
            }
        }
        for ok in oks {
            self.shard_in(ok.shard);
        }

        // Serial-clock invariant: the serial engine's `now` never passes
        // a pending event (the burst gate stops first), so every pop
        // dispatches at its own due time. The max-of-cursors value can
        // pass one — a core whose fresh horizon was staggered low holds
        // a survivor *below* another core's final cursor — and an
        // unclamped `now` would re-base that survivor's dispatch and
        // drift its thread's whole future. Clamp to the earliest pending
        // event; a no-op when every survivor is at or past `B`.
        self.now = self.next_time().map_or(now_max, |h| now_max.min(h));
        None
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use switchless_isa::asm::assemble;

    use super::*;
    use crate::machine::Engine;

    /// A 4-core machine whose cores loop over their own memory domains,
    /// run to mid-flight on the default engine.
    fn domain_machine() -> Machine {
        let mut cfg = MachineConfig::small();
        cfg.cores = 4;
        let mut m = Machine::new(cfg);
        m.set_engine(Engine::Fast);
        for c in 0..4u64 {
            let buf = m.alloc(4096);
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r3, {buf}
                    movi r4, {end}
                pass:
                    ld r2, r3, 0
                    addi r2, r2, {inc}
                    st r2, r3, 0
                    work {wk}
                    addi r3, r3, {stride}
                    blt r3, r4, pass
                    movi r3, {buf}
                    jmp pass
                "#,
                base = 0x10000 + c * 0x4000,
                end = buf + 4096,
                inc = c + 1,
                wk = 7 + 6 * c,
                stride = 8 * (c + 1),
            ))
            .expect("domain program");
            let tid = m.load_program(c as usize, &prog).expect("load");
            m.set_core_domain(c as usize, buf, 4096);
            m.start_thread(tid);
        }
        m.run_until(Cycles(40_000));
        m
    }

    /// Everything a shard round trip could disturb: the machine's
    /// `Debug` line, every counter, the cache and epoch statistics, and
    /// per core its state (TLB included), private caches, enrolled
    /// threads with their prefetch capture, and domain bytes.
    fn state(m: &Machine) -> String {
        let mut pf = m.prefetcher.clone();
        let mut s = format!(
            "{m:?}\n{:?} {:?} {:?}\n",
            m.hier.level_stats(),
            m.hier.writebacks(),
            m.shard_stats()
        );
        for (name, v) in m.counters.iter() {
            let _ = writeln!(s, "{name}={v}");
        }
        for c in 0..m.cfg.cores {
            let cs = &m.cores[c];
            let _ = writeln!(s, "core {c}: {cs:?}\n{:?}", m.hier.core_view(c));
            for p in cs.sched.iter_enrolled() {
                let lines = pf.wake_set(WatchId(u64::from(p.0)));
                let _ = writeln!(s, "{p:?}: {:?} {lines:?}", m.threads[p.0 as usize]);
            }
            let (base, len) = m.epochs.domains[c].expect("every core has a domain");
            let _ = writeln!(s, "{:?}", &m.mem[base as usize..(base + len) as usize]);
        }
        s
    }

    #[test]
    fn shard_out_then_shard_in_round_trips() {
        let mut m = domain_machine();
        assert!(m.shard_stats().committed > 0, "{:?}", m.shard_stats());
        assert!((0..4)
            .flat_map(|c| m.cores[c].sched.iter_enrolled())
            .all(|p| m.prefetcher.captured_len(WatchId(u64::from(p.0))) > 0));
        let before = state(&m);
        let shards: Vec<Shard> = (0..4).map(|c| m.shard_out(c)).collect();
        // Scrub what the shards hold, so only `shard_in` can restore it.
        let fresh = Machine::new(m.cfg);
        for s in &shards {
            m.cores[s.core] = fresh.cores[s.core].clone();
            m.hier
                .commit_core_view(s.core, fresh.hier.core_view(s.core));
            for &(p, _) in &s.threads {
                m.threads[p as usize] = fresh.threads[p as usize].clone();
                m.prefetcher.forget(WatchId(u64::from(p)));
            }
            let (base, bytes) = s.domain.as_ref().expect("own domain");
            m.mem[*base as usize..*base as usize + bytes.len()].fill(0);
        }
        assert_ne!(state(&m), before, "the scrub reached the machine");
        for s in shards {
            m.shard_in(s);
        }
        assert_eq!(state(&m), before);
    }

    /// The epoch engine's pinned work on the domain machine (see
    /// `tests/engine_stats.rs` for the single-core pins).
    #[test]
    fn domain_machine_engine_stats_are_pinned() {
        let m = domain_machine();
        let got = m.engine_stats();
        assert_eq!(got.insts(), m.counters.get("inst.executed"), "{got:?}");
        let want = EngineStats {
            slot_events: 6792,
            loop_pops: 4010,
            bursts: 3392,
            step_insts: 3253,
            reg_block_insts: 0,
            mem_block_insts: 15_064,
            blocks_formed: 8,
            block_runs: 322,
            block_bails: 50,
            decode_misses: 0,
            committed: 83,
            bailed: 111,
            ties: 2,
            too_few: 26,
            insts_parallel: 15_115,
            serial_events: 6324,
        };
        assert_eq!(got, want);
    }
}
