//! The machine: cores × SMT slots × many hardware threads, executing ISA
//! programs event-driven.
//!
//! # Execution model
//!
//! Each core has a small number of pipeline (SMT) **slots**. When a slot
//! is free, the core's hardware scheduler picks the next eligible runnable
//! ptid and the machine executes **one instruction** for it; the slot is
//! then busy for that instruction's cost (base cost + memory latency +
//! any thread-activation cost). This per-instruction interleaving is the
//! paper's fine-grain round-robin / processor-sharing model. When no
//! thread is runnable the slot idles and is re-kicked by the next wakeup
//! — there is no polling anywhere in the machine.
//!
//! As a host-side fast path, a dispatch may execute a **burst** of
//! instructions inline when the picked thread is provably the only
//! possible pick and no pending event could observe state in between
//! (DESIGN.md §8). Bursts never change the simulated timeline — they
//! elide run-loop round-trips whose outcome is forced.
//!
//! # The only hardware state changes
//!
//! Exactly as §3 prescribes, system calls, exceptions and external events
//! cause precisely one kind of hardware action: **blocking and unblocking
//! hardware threads** (plus a descriptor store). Stores — from CPU threads
//! and from DMA — pass through the generalized monitor filter; matching
//! waiters wake. Faults write a 32-byte descriptor through the same store
//! path (so handlers wake the same way) and disable the faulting thread.
//!
//! # Timing shortcuts (documented, deliberate)
//!
//! * Instruction semantics take effect at dispatch; the slot is then busy
//!   for the instruction's cost. ("execute-at-issue")
//! * Demotion write-backs of thread state are off the critical path and
//!   free; re-activation pays the tier cost.
//! * `hcall` invokes a registered host service — the simulation shortcut
//!   for bulk kernel logic (see DESIGN.md); handlers charge explicit
//!   cycle costs via [`Machine::charge`].

use std::convert::Infallible;

use switchless_isa::arch::{ArchState, Mode, RegSel};
use switchless_isa::asm::Program;
use switchless_isa::inst::{Inst, Reg};
use switchless_mem::addr::{PAddr, LINE_BYTES, PAGE_BYTES};
use switchless_mem::cache::PartitionId;
use switchless_mem::hierarchy::{
    AccessKind, AccessResult, CoreCaches, Hierarchy, HierarchyConfig, HitLevel,
};
use switchless_mem::monitor::{CamFilter, HashFilter, MonitorFilter, WakeEvent, WatchId};
use switchless_mem::prefetch::{Capture, WakePrefetcher};
use switchless_mem::tlb::{Tlb, TlbConfig};
use switchless_sim::error::SimError;
use switchless_sim::event::EventQueue;
use switchless_sim::fault::{FaultKind, FaultPlan};
use switchless_sim::hash::FxHashMap;
use switchless_sim::invariant::{InvariantReport, Ledger};
use switchless_sim::stats::{CounterId, Counters, Histogram};
use switchless_sim::time::Cycles;
use switchless_sim::trace::TraceRing;

use crate::exception::{Descriptor, ExceptionKind};
use crate::perm::{Perms, TdtEntry};
use crate::sblock::{self, Superblock, SB_DEAD, SB_FORMED, SB_HOT};
use crate::sched::{HwScheduler, SchedPolicy};
use crate::shard::EpochEngine;
use crate::store::{StateStore, StoreConfig, Tier};
use crate::tdt::TdtCache;
use crate::tid::{Ptid, ThreadState, Vtid};

/// Handle to one hardware thread: its home core and global ptid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThreadId {
    /// Home core index.
    pub core: usize,
    /// Global physical thread id.
    pub ptid: Ptid,
}

/// How `syscall`/`vmcall` behave — the knob experiments F4/F5 sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapMode {
    /// Today's world: the trap vectors into the *same* hardware thread
    /// after a mode-switch penalty (hundreds of cycles, `[46, 69]`).
    SameThread {
        /// Penalty charged on `syscall` entry (the handler returns with
        /// an ordinary `jr`, so the exit penalty should be folded in).
        syscall_cost: Cycles,
        /// Penalty charged on `vmcall` (VM-exit + VM-entry, `[20]`).
        vmexit_cost: Cycles,
    },
    /// The paper's world: the trap writes a descriptor at the calling
    /// thread's EDP and disables it; a service thread monitoring that
    /// address wakes and handles it.
    Descriptor,
}

/// Which monitor-filter hardware design to instantiate (experiment F12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorKind {
    /// Fully-associative exact filter with bounded capacity.
    Cam {
        /// Maximum armed ranges.
        capacity: usize,
    },
    /// Line-granular hashed filter (unbounded, false wakeups possible).
    Hash,
}

/// Full machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of physical cores.
    pub cores: usize,
    /// SMT pipeline slots per core (the small number of hyperthreads that
    /// the many hardware threads multiplex onto, §4).
    pub smt_slots: usize,
    /// Hardware threads per core (the paper: 10s to 1000s).
    pub ptids_per_core: usize,
    /// Bytes of flat physical memory.
    pub mem_bytes: u64,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// TLB parameters.
    pub tlb: TlbConfig,
    /// Thread-state storage hierarchy parameters.
    pub store: StoreConfig,
    /// Hardware scheduling policy.
    pub sched: SchedPolicy,
    /// Monitor-filter implementation.
    pub monitor: MonitorKind,
    /// System-call / VM-exit delivery mode.
    pub trap: TrapMode,
}

impl MachineConfig {
    /// One core, 64 hardware threads: fast unit-test machine.
    #[must_use]
    pub fn small() -> MachineConfig {
        MachineConfig {
            cores: 1,
            smt_slots: 2,
            ptids_per_core: 64,
            mem_bytes: 4 << 20,
            hierarchy: HierarchyConfig::server(),
            tlb: TlbConfig::default(),
            store: StoreConfig::default(),
            sched: SchedPolicy::RoundRobin,
            monitor: MonitorKind::Cam { capacity: 1024 },
            trap: TrapMode::Descriptor,
        }
    }

    /// Multi-core server-style machine (4 cores × 256 threads).
    #[must_use]
    pub fn server() -> MachineConfig {
        MachineConfig {
            cores: 4,
            smt_slots: 2,
            ptids_per_core: 256,
            mem_bytes: 64 << 20,
            ..MachineConfig::small()
        }
    }
}

/// Errors from host-level machine operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// No unused ptid left on the requested core.
    OutOfThreads,
    /// Program image overlaps previously loaded memory.
    ImageOverlap,
    /// Address outside physical memory.
    BadAddress(u64),
    /// Core index out of range.
    BadCore(usize),
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::OutOfThreads => write!(f, "no free hardware thread on core"),
            MachineError::ImageOverlap => write!(f, "program image overlaps loaded memory"),
            MachineError::BadAddress(a) => write!(f, "address {a:#x} outside memory"),
            MachineError::BadCore(c) => write!(f, "core {c} out of range"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> SimError {
        SimError::Machine {
            context: "machine",
            detail: e.to_string(),
        }
    }
}

/// One hardware thread's simulator-side context.
///
/// `Clone` + `pub(crate)` fields: the epoch engine (`shard`) snapshots
/// per-core thread state, runs workers on the clones, and commits them
/// back wholesale on success.
#[derive(Clone, Debug)]
pub(crate) struct Thread {
    pub(crate) arch: ArchState,
    pub(crate) state: ThreadState,
    /// Core this thread currently belongs to (changes on migration).
    pub(crate) home: usize,
    /// Busy executing an in-flight instruction (or a state transfer)
    /// until this time; the scheduler skips it.
    pub(crate) busy_until: Cycles,
    /// Set when a monitored write arrives between `monitor` and `mwait`
    /// (or while running), so the next `mwait` falls through.
    pub(crate) monitor_triggered: bool,
    /// Whether any watch is armed in the filter for this thread.
    pub(crate) monitor_armed: bool,
    /// Pipeline-refill (and state-transfer) cost already paid since the
    /// thread last became runnable.
    pub(crate) activated: bool,
    /// Dirty-register mask (bit i = GPR i; bit 16 = pc/control).
    pub(crate) touched: u32,
    /// Time of the last wake/start, for wake-to-dispatch latency.
    pub(crate) wake_at: Option<Cycles>,
    /// Uses the vector extension (larger state to move, §2 FP/vector).
    pub(crate) vector_state: bool,
    /// Per-thread wake-latency accounting: (samples, total, max).
    pub(crate) wake_stats: (u64, u64, u64),
    /// Cache partition this thread's data traffic is tagged with (§4
    /// fine-grain partitioning; default = unmanaged pool).
    pub(crate) partition: switchless_mem::cache::PartitionId,
    /// Per-thread watchdog: max cycles the thread may stay parked in one
    /// `mwait` before the hardware disables it with `WatchdogExpired`.
    pub(crate) watchdog: Option<Cycles>,
    /// Bumped on every `mwait` park so a stale watchdog event from an
    /// earlier park never fires on a later one.
    pub(crate) park_epoch: u32,
    /// Quarantined threads refuse every wake until restarted.
    pub(crate) quarantined: bool,
    /// First `start` pc; `restart_thread` resets the thread here.
    pub(crate) restart_pc: Option<u64>,
    /// When the thread was last disabled by an exception (recovery-latency
    /// measurement); cleared on wake.
    pub(crate) disabled_at: Option<Cycles>,
    /// Index into the machine's sorted code ranges of the range that
    /// served this thread's last fetch. Only a hint: a lookup checks the
    /// range before trusting it.
    pub(crate) code_hint: usize,
}

impl Thread {
    fn new(home: usize) -> Thread {
        Thread {
            arch: ArchState::default(),
            state: ThreadState::Disabled,
            home,
            busy_until: Cycles::ZERO,
            monitor_triggered: false,
            monitor_armed: false,
            activated: false,
            touched: 0,
            wake_at: None,
            vector_state: false,
            wake_stats: (0, 0, 0),
            partition: switchless_mem::cache::PartitionId::DEFAULT,
            watchdog: None,
            park_epoch: 0,
            quarantined: false,
            restart_pc: None,
            disabled_at: None,
            code_hint: 0,
        }
    }

    pub(crate) fn state_bytes(&self) -> u64 {
        if self.vector_state {
            ArchState::vector_state_bytes()
        } else {
            ArchState::base_state_bytes()
        }
    }

    /// Bytes an activation moves: the touched state under dirty
    /// tracking, else the whole architectural state.
    pub(crate) fn transfer_bytes(&self, dirty_tracking: bool) -> u64 {
        if !dirty_tracking {
            return self.state_bytes();
        }
        // pc + mode word always move; plus 8 bytes per touched GPR.
        let gprs = u64::from((self.touched & 0xffff).count_ones());
        (16 + gprs * 8).min(self.state_bytes())
    }

    /// Writes a GPR and marks it dirty.
    pub(crate) fn set_gpr(&mut self, r: Reg, v: u64) {
        self.arch.gprs[r.0 as usize & 0xf] = v;
        self.touched |= 1 << (r.0 & 0xf);
    }
}

/// One core's private pipeline-side state. An epoch worker runs on a
/// clone of it inside a `shard::Shard`.
#[derive(Clone, Debug)]
pub(crate) struct CoreState {
    pub(crate) sched: HwScheduler,
    pub(crate) store: StateStore,
    pub(crate) tdt: TdtCache,
    pub(crate) tlb: Tlb,
    /// Each SMT slot's next dispatch (DESIGN.md §8).
    pub(crate) slots: Vec<Slot>,
    pub(crate) next_unused: usize,
}

/// One SMT slot's next dispatch. A slot has at most one: a wake arms
/// only an idle slot, and each dispatch ends by arming its own slot at
/// most once, so the next dispatch is a field, not a queued event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Nothing was runnable: parked until a wake's `kick_core`.
    Idle,
    /// Dispatches at `(time, seq)`. The seq comes from the device
    /// queue's counter, so slots and device events share one order.
    Due(Cycles, u64),
    /// Dispatching now, or left behind by a halt: neither parked nor
    /// due, so a wake raised by the slot's own instruction does not
    /// arm it again.
    Running,
}

impl Slot {
    pub(crate) fn due(self) -> Option<(Cycles, u64)> {
        match self {
            Slot::Due(at, seq) => Some((at, seq)),
            Slot::Idle | Slot::Running => None,
        }
    }
}

/// The earliest due slot over `cores` as `(time, seq, core, slot)`.
pub(crate) fn next_slot(cores: &[CoreState]) -> Option<(Cycles, u64, usize, usize)> {
    let mut best: Option<(Cycles, u64, usize, usize)> = None;
    for (c, cs) in cores.iter().enumerate() {
        for (s, slot) in cs.slots.iter().enumerate() {
            if let Some((at, seq)) = slot.due() {
                if best.is_none_or(|(bt, bs, ..)| (at, seq) < (bt, bs)) {
                    best = Some((at, seq, c, s));
                }
            }
        }
    }
    best
}

/// A queued device event: registered device `id`'s handler runs with
/// `arg`. Device [`DeviceId::WATCHDOG`] is the machine's own `mwait`
/// watchdog, whose `arg` packs `(ptid, park_epoch)`.
type Ev = (DeviceId, u64);

// Every queued event is copied through the wheel; keep it two words.
const _: () = assert!(core::mem::size_of::<Ev>() == 16);

/// A device handler registered with [`Machine::register_device`]; an
/// event queued by [`Machine::at_device`] names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeviceId(u32);

impl DeviceId {
    /// The machine's own device: a parked thread's watchdog deadline.
    const WATCHDOG: DeviceId = DeviceId(0);
}

/// Upper bound on instructions executed inline per dispatch (the burst
/// engine, DESIGN.md §8). Purely a host-side amortisation knob: every
/// continuation is already gated on the pending-event deadline and the
/// scheduler, so the cap never changes simulated behavior — it only
/// bounds how much work one dispatch can do before returning to the
/// run loop.
const MAX_BURST: u64 = 1024;

/// Which host execution engine runs the simulation (DESIGN.md §9, §10).
/// Both produce bit-identical simulated state, so this is purely a
/// wall-clock switch; `Reference` is the oracle `Fast` is diffed against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The serial event loop: instruction bursts single-step every
    /// instruction, with no superblocks and no epochs.
    Reference,
    /// Superblocks (register and memory-inclusive) inside bursts, and,
    /// on a multi-core machine, the core-sharded epoch engine at every
    /// `machine_jobs` value.
    #[default]
    Fast,
}

impl Engine {
    /// Environment variable holding the process-wide default engine.
    pub const ENV: &'static str = "SWITCHLESS_ENGINE";

    /// Parses an engine name: `reference` or `fast`.
    ///
    /// # Errors
    ///
    /// Any other value is an error naming [`Engine::ENV`] and the
    /// rejected value, never a silent default: a typo in CI would
    /// otherwise quietly turn an engine identity diff into a no-op.
    pub fn parse(raw: &str) -> Result<Engine, String> {
        match raw.trim() {
            "reference" => Ok(Engine::Reference),
            "fast" => Ok(Engine::Fast),
            v => Err(format!(
                "{} must be `reference` or `fast`, got {v:?}",
                Engine::ENV
            )),
        }
    }

    /// The engine every new [`Machine`] starts on: [`Engine::ENV`], read
    /// once per process; [`Engine::Fast`] when unset.
    ///
    /// # Panics
    ///
    /// Panics on an unknown [`Engine::ENV`] value; front ends validate it
    /// first with [`Engine::parse`] and report the error themselves.
    #[must_use]
    pub fn process_default() -> Engine {
        static DEFAULT: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var(Engine::ENV) {
            Ok(raw) => Engine::parse(&raw).unwrap_or_else(|msg| panic!("{msg}")),
            Err(_) => Engine::default(),
        })
    }
}

/// Host-side statistics of how the engines ran a simulation
/// ([`Machine::engine_stats`]). They live outside [`Counters`]
/// deliberately: they describe how the simulation was *executed*, not
/// what the simulated machine did, so they never reach results files or
/// chaos digests that are compared across engines and `--machine-jobs`
/// settings. Each count is exact and deterministic for a given engine,
/// and identical at every `machine_jobs` value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Dispatches that ran at least one instruction; each burst's first
    /// instruction is counted here, not in a tier below.
    pub bursts: u64,
    /// Further instructions a burst single-stepped.
    pub step_insts: u64,
    /// Instructions retired inside register-only superblocks.
    pub reg_block_insts: u64,
    /// Instructions retired inside superblocks with memory instructions.
    pub mem_block_insts: u64,
    /// Superblocks formed.
    pub blocks_formed: u64,
    /// Superblock entries that committed at least one iteration; a
    /// looping block runs many iterations per entry, so
    /// `(reg_block_insts + mem_block_insts) / block_runs` is the mean
    /// instructions retired per entry.
    pub block_runs: u64,
    /// Superblock iterations whose probe failed, so the burst
    /// single-stepped from that iteration's entry.
    pub block_bails: u64,
    /// Runs of the fetch-and-decode slow path (a pc with no cached
    /// decode).
    pub decode_misses: u64,
    /// Epochs whose speculative execution was committed.
    pub committed: u64,
    /// Epochs discarded because a worker hit a non-core-local effect.
    pub bailed: u64,
    /// Epochs discarded at commit time because two cores' surviving
    /// events fell due the same cycle; the window replays serially.
    pub ties: u64,
    /// Epochs skipped because fewer than two cores had work staged.
    pub too_few: u64,
    /// Instructions executed inside committed epochs (parallel work).
    pub insts_parallel: u64,
    /// Events replayed serially (outside committed epochs).
    pub serial_events: u64,
}

impl EngineStats {
    /// Instructions retired over every tier; equals the `inst.executed`
    /// counter.
    #[must_use]
    pub fn insts(&self) -> u64 {
        self.bursts + self.step_insts + self.reg_block_insts + self.mem_block_insts
    }

    /// Counts one burst (see [`ExecCtx::note_burst`]).
    pub(crate) fn note_burst(&mut self, steps: u64, reg_block: u64, mem_block: u64) {
        self.bursts += 1;
        self.step_insts += steps;
        self.reg_block_insts += reg_block;
        self.mem_block_insts += mem_block;
    }

    /// Adds an epoch worker's deltas (the fields dispatch counts).
    pub(crate) fn absorb(&mut self, d: &EngineStats) {
        self.bursts += d.bursts;
        self.step_insts += d.step_insts;
        self.reg_block_insts += d.reg_block_insts;
        self.mem_block_insts += d.mem_block_insts;
        self.block_runs += d.block_runs;
        self.block_bails += d.block_bails;
        self.decode_misses += d.decode_misses;
    }
}

/// A thread-state transition, as [`Machine::trace`] records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Became runnable and joined its core's scheduler.
    Wake,
    /// Left the scheduler into this state.
    Block(ThreadState),
    /// Raised this exception.
    Fault(ExceptionKind),
    /// Raised this exception while its descriptor slot was still busy;
    /// the descriptor was dropped.
    FaultDropped(ExceptionKind),
    /// Quarantined by a supervisor.
    Quarantine,
    /// Restarted by a supervisor.
    Restart,
    /// Moved from one core to another.
    Migrate {
        /// The old home core.
        from: u32,
        /// The new home core.
        to: u32,
    },
}

/// One trace record: `ptid` made `transition` at cycle `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the transition.
    pub at: Cycles,
    /// The thread that made it.
    pub ptid: Ptid,
    /// What happened.
    pub transition: Transition,
}

impl core::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:>10}] {} {:?}", self.at.0, self.ptid, self.transition)
    }
}

type HostCall = Box<dyn FnMut(&mut Machine, ThreadId)>;
type MmioHook = Box<dyn FnMut(&mut Machine, u64)>;
type DeviceHandler = Box<dyn FnMut(&mut Machine, DeviceId, u64)>;
/// A registered machine-wide invariant: returns `Some(detail)` when the
/// invariant is violated. Runs at event-queue boundaries when checking is
/// enabled; must not mutate anything (it sees `&Machine`).
type InvariantFn = Box<dyn Fn(&Machine) -> Option<String>>;

/// Pre-decoded instructions for one loaded image.
///
/// `insts[i]` caches `Inst::decode` of the word at `base + 8*i`; `None`
/// marks words that do not decode (the slow path re-raises the precise
/// `BadInstruction` with the actual word). Stores that land inside
/// `[base, end)` re-decode the covered words, so self-modifying code
/// observes its writes exactly as it would with a per-fetch decode.
pub(crate) struct CodeRange {
    pub(crate) base: u64,
    pub(crate) end: u64,
    pub(crate) insts: Vec<Option<Inst>>,
    /// Per-slot superblock state: a heat count below
    /// [`sblock::SB_HOT`], [`sblock::SB_FORMED`]`| index` for a formed
    /// region entered at that slot, or [`sblock::SB_DEAD`].
    pub(crate) sb: Vec<u32>,
    /// Formed superblocks; killed entries are tombstoned in place and
    /// their indices recycled through `sb_free`.
    pub(crate) blocks: Vec<Superblock>,
    pub(crate) sb_free: Vec<u32>,
}

impl CodeRange {
    fn new(base: u64, end: u64, insts: Vec<Option<Inst>>) -> CodeRange {
        let slots = insts.len();
        CodeRange {
            base,
            end,
            insts,
            sb: vec![0; slots],
            blocks: Vec::new(),
            sb_free: Vec::new(),
        }
    }

    /// Stores a formed block, reusing a tombstoned slot when available.
    fn alloc_block(&mut self, b: Superblock) -> u32 {
        match self.sb_free.pop() {
            Some(i) => {
                self.blocks[i as usize] = b;
                i
            }
            None => {
                self.blocks.push(b);
                u32::try_from(self.blocks.len() - 1).expect("block count fits u32")
            }
        }
    }
}

/// Pre-resolved [`CounterId`]s for counters bumped on (nearly) every
/// dispatched instruction, store, DMA or park — skips the per-call string
/// hash.
pub(crate) struct HotCounters {
    pub(crate) inst_executed: CounterId,
    pub(crate) sched_dispatches: CounterId,
    pub(crate) store_external: CounterId,
    pub(crate) monitor_wakes: CounterId,
    pub(crate) monitor_false_wakes: CounterId,
    pub(crate) thread_wakes: CounterId,
    pub(crate) activate: [CounterId; 4],
    pub(crate) dma_bytes: CounterId,
    pub(crate) monitor_armed: CounterId,
    pub(crate) mwait_blocked: CounterId,
    pub(crate) mwait_fallthrough: CounterId,
    pub(crate) mwait_unarmed: CounterId,
}

impl HotCounters {
    fn new(counters: &mut Counters) -> HotCounters {
        HotCounters {
            inst_executed: counters.id("inst.executed"),
            sched_dispatches: counters.id("sched.dispatches"),
            store_external: counters.id("store.external"),
            monitor_wakes: counters.id("monitor.wakes"),
            monitor_false_wakes: counters.id("monitor.false_wakes"),
            thread_wakes: counters.id("thread.wakes"),
            activate: [
                counters.id("store.activate.rf"),
                counters.id("store.activate.l2"),
                counters.id("store.activate.l3"),
                counters.id("store.activate.dram"),
            ],
            dma_bytes: counters.id("dma.bytes"),
            monitor_armed: counters.id("monitor.armed"),
            mwait_blocked: counters.id("mwait.blocked"),
            mwait_fallthrough: counters.id("mwait.fallthrough"),
            mwait_unarmed: counters.id("mwait.unarmed"),
        }
    }
}

/// The simulated machine.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) now: Cycles,
    pub(crate) mem: Vec<u8>,
    pub(crate) threads: Vec<Thread>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) hier: Hierarchy,
    pub(crate) filter: Box<dyn MonitorFilter>,
    pub(crate) prefetcher: WakePrefetcher,
    pub(crate) events: EventQueue<Ev>,
    /// Registered device handlers, indexed by [`DeviceId`]. Slot 0 is
    /// the watchdog, which the machine runs itself, and stays `None`; a
    /// handler is also `None` while it runs.
    devices: Vec<Option<DeviceHandler>>,
    hcalls: FxHashMap<u16, HostCall>,
    /// Device doorbells: store hooks keyed by exact 8-byte-aligned
    /// address; fired after the monitor filter on any covering store.
    pub(crate) mmio_hooks: FxHashMap<u64, MmioHook>,
    pub(crate) counters: Counters,
    pub(crate) hot: HotCounters,
    trace: TraceRing<TraceRecord>,
    pub(crate) halted: Option<String>,
    /// Host allocator: grows down from the top of memory.
    alloc_top: u64,
    /// Decoded-instruction cache, one entry per loaded image, sorted by
    /// `(base, end)`; images never overlap.
    pub(crate) code: Vec<CodeRange>,
    /// Cheap store-time reject bounds: min base / max end over `code`.
    pub(crate) code_lo: u64,
    pub(crate) code_hi: u64,
    /// Reusable buffers for `after_store` (taken/restored around the
    /// loop bodies so reentrant stores fall back to a fresh `Vec`).
    scratch_wakes: Vec<WakeEvent>,
    scratch_mmio: Vec<u64>,
    syscall_vector: u64,
    vm_vector: u64,
    /// Extra cost injected by hcall handlers for the current instruction.
    pending_charge: Cycles,
    /// Wake-to-first-dispatch latency histogram (cycles).
    pub(crate) wake_latency: Histogram,
    /// Installed fault-injection plan; `None` costs one branch per query.
    fault_plan: Option<FaultPlan>,
    /// Whether the invariant checker runs at event-queue boundaries.
    /// Off by default: measured runs pay exactly one branch per event.
    pub(crate) invariants_on: bool,
    /// Registered machine-wide invariants (device ring conservation, …).
    invariant_checks: Vec<(&'static str, InvariantFn)>,
    /// Violations observed since checking was enabled (bounded).
    invariant_report: InvariantReport,
    /// Exception-descriptor conservation: every raise must end up
    /// delivered or deliberately dropped (overflow / no-EDP halt).
    exc_ledger: Ledger,
    /// Named per-device conservation ledgers ([`Machine::ledger`]).
    /// A `Vec` keeps iteration in attach order (determinism).
    device_ledgers: Vec<(&'static str, Ledger)>,
    /// The epoch engine's host-side settings.
    pub(crate) epochs: EpochEngine,
    /// How the engines ran this machine ([`Machine::engine_stats`]).
    pub(crate) stats: EngineStats,
    /// Host execution engine ([`Machine::set_engine`]).
    engine: Engine,
    /// Sorted MMIO hook addresses, maintained by [`Machine::register_mmio`].
    /// `after_store` and the superblock store probe binary-search this
    /// instead of scanning the hook map, and the shard engine borrows it
    /// per epoch.
    pub(crate) mmio_addrs: Vec<u64>,
    /// Memory-superblock probe scratch.
    probe: Option<Box<Probe>>,
}

impl Machine {
    /// Builds a machine; all hardware threads start `Disabled`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (zero cores/slots/threads/memory).
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Machine {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(cfg.smt_slots > 0, "need at least one SMT slot");
        assert!(cfg.ptids_per_core > 0, "need at least one hardware thread");
        assert!(cfg.mem_bytes >= 4096, "need some memory");
        let nthreads = cfg.cores * cfg.ptids_per_core;
        let filter: Box<dyn MonitorFilter> = match cfg.monitor {
            MonitorKind::Cam { capacity } => Box::new(CamFilter::new(capacity)),
            MonitorKind::Hash => Box::new(HashFilter::new()),
        };
        let mut counters = Counters::new();
        let hot = HotCounters::new(&mut counters);
        Machine {
            cfg,
            now: Cycles::ZERO,
            mem: vec![0; cfg.mem_bytes as usize],
            threads: (0..nthreads)
                .map(|i| Thread::new(i / cfg.ptids_per_core))
                .collect(),
            cores: (0..cfg.cores)
                .map(|_| CoreState {
                    sched: HwScheduler::new(cfg.sched),
                    store: StateStore::new(cfg.store),
                    tdt: TdtCache::new(64),
                    tlb: Tlb::new(cfg.tlb),
                    slots: vec![Slot::Idle; cfg.smt_slots],
                    next_unused: 0,
                })
                .collect(),
            hier: Hierarchy::new(cfg.cores, cfg.hierarchy),
            filter,
            prefetcher: WakePrefetcher::new(64),
            events: EventQueue::new(),
            devices: vec![None],
            hcalls: FxHashMap::default(),
            mmio_hooks: FxHashMap::default(),
            counters,
            hot,
            trace: TraceRing::new(4096),
            halted: None,
            alloc_top: cfg.mem_bytes,
            code: Vec::new(),
            code_lo: u64::MAX,
            code_hi: 0,
            scratch_wakes: Vec::new(),
            scratch_mmio: Vec::new(),
            syscall_vector: 0,
            vm_vector: 0,
            pending_charge: Cycles::ZERO,
            wake_latency: Histogram::new(),
            fault_plan: None,
            invariants_on: false,
            invariant_checks: Vec::new(),
            invariant_report: InvariantReport::new(),
            exc_ledger: Ledger::default(),
            device_ledgers: Vec::new(),
            epochs: EpochEngine::new(cfg.cores),
            stats: EngineStats::default(),
            engine: Engine::process_default(),
            mmio_addrs: Vec::new(),
            probe: None,
        }
    }

    // -----------------------------------------------------------------
    // Host-level API
    // -----------------------------------------------------------------

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Configuration this machine was built with.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Why the machine halted, if it did (triple-fault analog).
    #[must_use]
    pub fn halted_reason(&self) -> Option<&str> {
        self.halted.as_deref()
    }

    /// Statistics counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable counter access — device models and kernels add their own
    /// statistics alongside the machine's.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Selects the host execution engine. Defaults to [`Engine::ENV`]
    /// (`reference` or `fast`; [`Engine::Fast`] when unset). The
    /// simulated outcome is bit-identical for both, so this is purely a
    /// wall-clock switch.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Host-side statistics of how the engines ran this machine.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Wake-to-first-dispatch latency histogram (cycles).
    #[must_use]
    pub fn wake_latency(&self) -> &Histogram {
        &self.wake_latency
    }

    /// Clears the wake-latency histogram (end of warmup).
    pub fn reset_wake_latency(&mut self) {
        self.wake_latency.reset();
    }

    /// Per-thread wake-latency accounting: `(samples, total cycles, max)`.
    #[must_use]
    pub fn thread_wake_stats(&self, tid: ThreadId) -> (u64, u64, u64) {
        self.threads[tid.ptid.0 as usize].wake_stats
    }

    /// Clears one thread's wake-latency accounting.
    pub fn reset_thread_wake_stats(&mut self, tid: ThreadId) {
        self.thread_mut(tid.ptid).wake_stats = (0, 0, 0);
    }

    /// The thread-transition trace ring (enable for debugging and
    /// determinism tests).
    pub fn trace_mut(&mut self) -> &mut TraceRing<TraceRecord> {
        &mut self.trace
    }

    /// Read-only trace access.
    #[must_use]
    pub fn trace(&self) -> &TraceRing<TraceRecord> {
        &self.trace
    }

    /// Records `ptid`'s `transition` now, if tracing is on.
    fn trace_transition(&mut self, ptid: Ptid, transition: Transition) {
        self.trace.record(TraceRecord {
            at: self.now,
            ptid,
            transition,
        });
    }

    /// Per-core activation statistics `(rf, l2, l3, dram)`.
    #[must_use]
    pub fn store_stats(&self, core: usize) -> (u64, u64, u64, u64) {
        self.cores[core].store.activation_stats()
    }

    /// Cycles billed to a thread by the hardware accounting (§4).
    #[must_use]
    pub fn billed_cycles(&self, tid: ThreadId) -> Cycles {
        self.cores[tid.core].sched.usage_of(tid.ptid)
    }

    /// Allocates `len` bytes of free simulated memory (host convenience
    /// for mailboxes, rings, descriptor areas). 64-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if memory is exhausted.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let top = self
            .alloc_top
            .checked_sub(len)
            .expect("simulated memory exhausted");
        self.alloc_top = top & !63;
        assert!(
            self.code
                .iter()
                .all(|r| self.alloc_top >= r.end || r.base >= self.alloc_top),
            "allocator collided with a loaded image"
        );
        self.alloc_top
    }

    /// Creates (reserves) a fresh disabled hardware thread on `core`.
    pub fn create_thread(&mut self, core: usize) -> Result<ThreadId, MachineError> {
        if core >= self.cfg.cores {
            return Err(MachineError::BadCore(core));
        }
        let slot = self.cores[core].next_unused;
        if slot >= self.cfg.ptids_per_core {
            return Err(MachineError::OutOfThreads);
        }
        self.cores[core].next_unused += 1;
        let ptid = Ptid((core * self.cfg.ptids_per_core + slot) as u32);
        Ok(ThreadId { core, ptid })
    }

    /// Loads a program image and creates a supervisor thread entering it.
    pub fn load_program(&mut self, core: usize, prog: &Program) -> Result<ThreadId, MachineError> {
        self.load_image(prog)?;
        let tid = self.create_thread(core)?;
        {
            let t = self.thread_mut(tid.ptid);
            t.arch.pc = prog.entry;
            t.arch.mode = Mode::Supervisor;
        }
        Ok(tid)
    }

    /// Loads a program image and creates a **user-mode** thread.
    pub fn load_program_user(
        &mut self,
        core: usize,
        prog: &Program,
    ) -> Result<ThreadId, MachineError> {
        let tid = self.load_program(core, prog)?;
        self.thread_mut(tid.ptid).arch.mode = Mode::User;
        Ok(tid)
    }

    /// Creates a thread entering an already-loaded image at `pc`.
    pub fn spawn_at(
        &mut self,
        core: usize,
        pc: u64,
        supervisor: bool,
    ) -> Result<ThreadId, MachineError> {
        let tid = self.create_thread(core)?;
        let t = self.thread_mut(tid.ptid);
        t.arch.pc = pc;
        t.arch.mode = if supervisor {
            Mode::Supervisor
        } else {
            Mode::User
        };
        Ok(tid)
    }

    /// Writes a program image into memory without creating a thread.
    pub fn load_image(&mut self, prog: &Program) -> Result<(), MachineError> {
        let (base, end) = (prog.base, prog.end());
        if end > self.cfg.mem_bytes || end > self.alloc_top {
            return Err(MachineError::BadAddress(end));
        }
        // Sorted by `(base, end)`, disjoint ranges also have sorted ends
        // (an empty image cannot sit strictly inside another), so only
        // the two neighbours of the insertion point can overlap it.
        let at = self.code.partition_point(|r| (r.base, r.end) < (base, end));
        let overlaps = |r: &CodeRange| base < r.end && r.base < end;
        if self.code[..at].last().is_some_and(overlaps) || self.code.get(at).is_some_and(overlaps) {
            return Err(MachineError::ImageOverlap);
        }
        for (i, &w) in prog.words.iter().enumerate() {
            let at = (base + (i as u64) * 8) as usize;
            self.mem[at..at + 8].copy_from_slice(&w.to_le_bytes());
        }
        let insts = prog.words.iter().map(|&w| Inst::decode(w).ok()).collect();
        self.code.insert(at, CodeRange::new(base, end, insts));
        self.code_lo = self.code_lo.min(base);
        self.code_hi = self.code_hi.max(end);
        Ok(())
    }

    /// Re-decodes cached instruction slots covered by a store of `len`
    /// bytes at `addr`. Callers pre-filter with the `code_lo`/`code_hi`
    /// bounds so steady-state data stores pay one compare, not a scan.
    fn invalidate_code(&mut self, addr: u64, len: u64) {
        let end = addr.saturating_add(len.max(1));
        for r in &mut self.code {
            if addr >= r.end || end <= r.base {
                continue;
            }
            // Word slots live at base + 8*i; work in offsets from base.
            let lo = (addr.max(r.base) - r.base) & !7;
            let hi = end.min(r.end) - r.base;
            let mut off = lo;
            while off < hi {
                let a = (r.base + off) as usize;
                let word = u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("8 bytes"));
                r.insts[(off >> 3) as usize] = Inst::decode(word).ok();
                off += 8;
            }
            // Superblock coherence: re-decoded slots lose any heat or
            // dead-mark they accumulated, and every formed block whose
            // static footprint overlaps the modified slots is killed
            // (tombstoned; its index is recycled). A block formed later
            // re-reads the fresh decode, so stale bodies cannot run.
            let lo_slot = (lo >> 3) as usize;
            let hi_slot = ((hi + 7) >> 3) as usize;
            for s in &mut r.sb[lo_slot..hi_slot] {
                if *s < SB_FORMED || *s == SB_DEAD {
                    *s = 0;
                }
            }
            for bi in 0..r.blocks.len() {
                let b = &r.blocks[bi];
                if !b.live || b.start_slot >= hi_slot || b.start_slot + b.len_slots <= lo_slot {
                    continue;
                }
                r.blocks[bi].live = false;
                r.sb[r.blocks[bi].start_slot] = 0;
                r.sb_free
                    .push(u32::try_from(bi).expect("block count fits u32"));
            }
        }
    }

    /// Host store of a u64 — passes through the monitor filter, so it can
    /// wake waiting threads (models an external agent writing memory).
    pub fn poke_u64(&mut self, addr: u64, value: u64) {
        self.raw_write_u64(addr, value);
        self.after_store(addr, 8, true);
    }

    /// Host read of a u64.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside memory.
    #[must_use]
    pub fn peek_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("8 bytes"))
    }

    /// DMA write from a device: copies bytes, triggers the monitor
    /// filter, and deposits the lines in L3 (DDIO-style). A write that
    /// does not fit in memory — its end included, even when the sum
    /// overflows — is dropped without effect and counted in
    /// `dma.rejected`; the return value says whether the write landed.
    pub fn dma_write(&mut self, addr: u64, bytes: &[u8]) -> bool {
        if !in_mem(addr, bytes.len() as u64, self.cfg.mem_bytes) {
            self.counters.inc("dma.rejected");
            return false;
        }
        let a = addr as usize;
        self.mem[a..a + bytes.len()].copy_from_slice(bytes);
        for line in switchless_mem::addr::lines_covering(PAddr(addr), bytes.len() as u64) {
            self.hier.dma_deposit(line);
        }
        self.counters.bump(self.hot.dma_bytes, bytes.len() as u64);
        self.after_store(addr, bytes.len() as u64, true);
        true
    }

    /// Registers a device handler that [`Machine::at_device`] events
    /// run with the handler's own id and their `arg`. This is the one way
    /// host code is scheduled: a device keeps its pending state itself,
    /// as data, and queues only `(id, arg)`, so an event costs the queue
    /// 16 bytes and no allocation. A handler reschedules itself with the
    /// id it is passed.
    pub fn register_device(
        &mut self,
        handler: impl FnMut(&mut Machine, DeviceId, u64) + 'static,
    ) -> DeviceId {
        let id = u32::try_from(self.devices.len()).expect("device ids fit in u32");
        self.devices.push(Some(Box::new(handler)));
        DeviceId(id)
    }

    /// Schedules device `id`'s handler to run with `arg` at absolute
    /// time `at`. Events due at the same cycle run in the order they
    /// were scheduled.
    pub fn at_device(&mut self, at: Cycles, id: DeviceId, arg: u64) {
        self.events.schedule(at, (id, arg));
    }

    /// Runs the host code behind a device event: the watchdog or a
    /// registered handler.
    fn run_device(&mut self, id: DeviceId, arg: u64) {
        if id == DeviceId::WATCHDOG {
            return self.watchdog_expired(Ptid((arg >> 32) as u32), arg as u32);
        }
        let mut h = self.devices[id.0 as usize]
            .take()
            .expect("a device handler does not run inside itself");
        h(self, id, arg);
        self.devices[id.0 as usize] = Some(h);
    }

    /// The watchdog deadline of `ptid`'s park number `epoch` has come:
    /// if that exact park is still waiting, the thread is wedged, and it
    /// is disabled with a descriptor whose info word is the deadline
    /// instead of sleeping forever. The epoch guard makes a deadline from
    /// an earlier park harmless after a wake and re-park.
    fn watchdog_expired(&mut self, ptid: Ptid, epoch: u32) {
        let t = &self.threads[ptid.0 as usize];
        if t.state == ThreadState::Waiting && t.park_epoch == epoch {
            self.counters.inc("watchdog.fired");
            self.raise_exception(ptid, ExceptionKind::WatchdogExpired, self.now.0);
        }
    }

    /// Registers a device doorbell: `hook` runs after any store that
    /// covers `addr` (CPU, host, or DMA), receiving the stored word.
    /// This is how an MMIO-triggered device reacts immediately to a
    /// driver write.
    /// Registering an address again replaces its hook.
    pub fn register_mmio(&mut self, addr: u64, hook: impl FnMut(&mut Machine, u64) + 'static) {
        self.mmio_hooks.insert(addr, Box::new(hook));
        // Not the map's `insert` result: a hook is out of the map while
        // it runs, and one that re-registers its own address must not
        // list the address twice.
        if let Err(i) = self.mmio_addrs.binary_search(&addr) {
            self.mmio_addrs.insert(i, addr);
        }
    }

    /// Registers a host-service handler for `hcall num`.
    pub fn register_hcall(&mut self, num: u16, f: impl FnMut(&mut Machine, ThreadId) + 'static) {
        self.hcalls.insert(num, Box::new(f));
    }

    /// Adds cycles to the cost of the instruction currently executing
    /// (for hcall handlers to model their work).
    pub fn charge(&mut self, cycles: Cycles) {
        self.pending_charge += cycles;
    }

    /// Sets the legacy same-thread syscall vector.
    pub fn set_syscall_vector(&mut self, addr: u64) {
        self.syscall_vector = addr;
    }

    /// Sets the legacy same-thread VM-exit vector.
    pub fn set_vm_vector(&mut self, addr: u64) {
        self.vm_vector = addr;
    }

    // ---- thread inspection / manipulation ----

    /// A thread's GPR value.
    #[must_use]
    pub fn thread_reg(&self, tid: ThreadId, reg: usize) -> u64 {
        self.threads[tid.ptid.0 as usize].arch.gprs[reg & 0xf]
    }

    /// Sets a thread's GPR (host-level `rpush` without permission check).
    pub fn set_thread_reg(&mut self, tid: ThreadId, reg: usize, value: u64) {
        self.thread_mut(tid.ptid).arch.gprs[reg & 0xf] = value;
    }

    /// A thread's current state.
    #[must_use]
    pub fn thread_state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid.ptid.0 as usize].state
    }

    /// A thread's program counter.
    #[must_use]
    pub fn thread_pc(&self, tid: ThreadId) -> u64 {
        self.threads[tid.ptid.0 as usize].arch.pc
    }

    /// A thread's privilege mode.
    #[must_use]
    pub fn thread_mode(&self, tid: ThreadId) -> Mode {
        self.threads[tid.ptid.0 as usize].arch.mode
    }

    /// Sets a thread's priority class.
    pub fn set_thread_prio(&mut self, tid: ThreadId, prio: u8) {
        self.thread_mut(tid.ptid).arch.prio = prio;
    }

    /// Sets a thread's exception-descriptor pointer.
    pub fn set_thread_edp(&mut self, tid: ThreadId, edp: u64) {
        self.thread_mut(tid.ptid).arch.edp = edp;
    }

    /// Sets a thread's TDT base register.
    pub fn set_thread_tdtr(&mut self, tid: ThreadId, tdtr: u64) {
        self.thread_mut(tid.ptid).arch.tdtr = tdtr;
    }

    /// Marks the thread as using the vector extension (784-byte-class
    /// state instead of base state).
    pub fn set_thread_vector_state(&mut self, tid: ThreadId, on: bool) {
        self.thread_mut(tid.ptid).vector_state = on;
    }

    /// Tags a thread's data traffic with a cache partition (§4
    /// fine-grain cache partitioning; see
    /// [`Machine::set_l3_partition`]).
    pub fn set_thread_partition(
        &mut self,
        tid: ThreadId,
        part: switchless_mem::cache::PartitionId,
    ) {
        self.thread_mut(tid.ptid).partition = part;
    }

    /// Declares an L3 partition quota (fraction of the cache pinned for
    /// traffic tagged with `part`).
    pub fn set_l3_partition(&mut self, part: switchless_mem::cache::PartitionId, fraction: f64) {
        self.hier.set_l3_partition(part, fraction);
    }

    /// Per-level `(hits, misses)` of the cache hierarchy: `(l1, l2, l3)`.
    #[must_use]
    pub fn cache_stats(&self) -> ((u64, u64), (u64, u64), (u64, u64)) {
        self.hier.level_stats()
    }

    /// Dirty write-backs per cache level `(l1, l2, l3)`.
    #[must_use]
    pub fn cache_writebacks(&self) -> (u64, u64, u64) {
        self.hier.writebacks()
    }

    /// The `Debug` rendering of the whole cache hierarchy (every line's
    /// tag, LRU stamp and dirty bit, every level's statistics) and of
    /// each core's TLB. Host engines leave it byte-identical to
    /// [`Engine::Reference`]; differential tests compare it.
    #[must_use]
    pub fn cache_state(&self) -> String {
        let mut s = format!("{:?}", self.hier);
        for cs in &self.cores {
            s += &format!("\n{:?}", cs.tlb);
        }
        s
    }

    /// Host-level `start`: makes the thread runnable.
    ///
    /// The first start records the thread's entry pc as its restart point
    /// for [`Machine::restart_thread`].
    pub fn start_thread(&mut self, tid: ThreadId) {
        let t = self.thread_mut(tid.ptid);
        if t.restart_pc.is_none() {
            t.restart_pc = Some(t.arch.pc);
        }
        self.enable_thread(tid.ptid);
    }

    /// Host-level `stop`: disables the thread.
    pub fn stop_thread(&mut self, tid: ThreadId) {
        self.disable_thread(tid.ptid, ThreadState::Disabled);
    }

    // ---- fault injection & recovery ----

    /// Installs a fault-injection plan. Devices query it through
    /// [`Machine::fault_draw`]; with no plan installed every query is a
    /// single branch, so the injection layer is free when unused.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Asks whether fault `kind` fires for one device operation *now*.
    ///
    /// A firing bumps the kind's `fault.*` counter; the device expresses
    /// the failure through its normal completion protocol.
    pub fn fault_draw(&mut self, kind: FaultKind) -> bool {
        let now = self.now;
        let Some(plan) = self.fault_plan.as_mut() else {
            return false;
        };
        if !plan.draw(now, kind) {
            return false;
        }
        self.counters.inc(kind.counter_name());
        true
    }

    /// Draws the extra delay for a delay-shaped fault that just fired.
    pub fn fault_delay(&mut self, kind: FaultKind) -> Cycles {
        match self.fault_plan.as_mut() {
            Some(plan) => plan.draw_delay(kind),
            None => Cycles::ZERO,
        }
    }

    // ---- machine-wide invariant checking ----

    /// Turns the invariant checker on or off (off by default).
    ///
    /// When on, every event-queue boundary in the run loops — i.e. every
    /// time the clock is about to advance, plus once when a run loop
    /// drains; on the epoch engine, once per committed epoch, at its
    /// first boundary (DESIGN.md §7) — re-verifies the machine-wide
    /// invariants: pending-event time
    /// monotonicity, thread-state-machine legality (enrolment matches
    /// `Runnable` exactly, no armed monitors on disabled threads),
    /// no-lost-wakeup (a parked thread always holds a live filter watch),
    /// quarantine/restart liveness, exception-descriptor conservation,
    /// and every check registered via [`Machine::register_invariant`].
    /// Violations accumulate in [`Machine::invariant_report`]; they never
    /// alter simulated behavior.
    pub fn enable_invariants(&mut self, on: bool) {
        self.invariants_on = on;
    }

    /// Registers an additional machine-wide invariant (e.g. a device's
    /// descriptor-ring conservation ledger). `check` returns a diagnostic
    /// string when the invariant is violated. Devices register their
    /// ledgers at attach time; registration costs nothing until checking
    /// is enabled.
    ///
    /// A check that reads state an epoch worker changes, such as the
    /// `inst.executed` counter or a thread's registers, sees it only at
    /// boundaries: on [`Engine::Fast`] a committed epoch's interior has
    /// none, so a violation there fires at the next boundary.
    pub fn register_invariant(
        &mut self,
        name: &'static str,
        check: impl Fn(&Machine) -> Option<String> + 'static,
    ) {
        self.invariant_checks.push((name, Box::new(check)));
    }

    /// Violations (and check counts) accumulated since checking began.
    #[must_use]
    pub fn invariant_report(&self) -> &InvariantReport {
        &self.invariant_report
    }

    /// The named conservation [`Ledger`] for a device descriptor ring,
    /// created empty on first use. Devices account posted / in-flight /
    /// completed / dropped work into it from their separate code paths;
    /// [`Machine::check_invariants`] verifies every ledger stays
    /// balanced. Ledgers live outside [`Machine::counters`] so they can
    /// never leak into experiment reports.
    pub fn ledger(&mut self, name: &'static str) -> &mut Ledger {
        let i = match self.device_ledgers.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.device_ledgers.push((name, Ledger::default()));
                self.device_ledgers.len() - 1
            }
        };
        &mut self.device_ledgers[i].1
    }

    /// Runs every machine-wide invariant once, recording violations.
    ///
    /// Called automatically from the run loops when enabled; public so
    /// harnesses can force a final check after a run completes.
    pub fn check_invariants(&mut self) {
        self.invariant_report.note_check();
        let now = self.now;
        // Pending-event time monotonicity: nothing pending (a due slot
        // or a queued device event) may be behind the clock — a past-due
        // one would execute at the wrong simulated time (or never).
        if let Some(t) = self.next_time() {
            if t < now {
                self.invariant_report.record(
                    "queue.monotone",
                    now,
                    format!("pending event at {} behind now {}", t.0, now.0),
                );
            }
        }
        // Exception-descriptor conservation: raised = delivered + dropped.
        if !self.exc_ledger.balanced() {
            self.invariant_report
                .record("exception.ring", now, self.exc_ledger.describe());
        }
        // Device descriptor-ring conservation: every posted unit of work
        // must be completed, still in flight, or deliberately dropped.
        for (name, l) in &self.device_ledgers {
            if !l.balanced() {
                self.invariant_report.record(
                    "device.ring",
                    now,
                    format!("{name}: {}", l.describe()),
                );
            }
        }
        for (i, t) in self.threads.iter().enumerate() {
            let ptid = Ptid(i as u32);
            let enrolled = self.cores[t.home].sched.is_enrolled(ptid);
            // Thread-state-machine legality: scheduler enrolment must
            // mirror `Runnable` exactly, in both directions.
            if (t.state == ThreadState::Runnable) != enrolled {
                self.invariant_report.record(
                    "thread.state",
                    now,
                    format!("{ptid} {:?} but enrolled={enrolled}", t.state),
                );
            }
            // A monitor armed on a disabled/halted thread is a watch that
            // can fire on a thread that must not wake.
            if t.monitor_armed && !matches!(t.state, ThreadState::Runnable | ThreadState::Waiting) {
                self.invariant_report.record(
                    "thread.state",
                    now,
                    format!("{ptid} {:?} with armed monitor", t.state),
                );
            }
            // No-lost-wakeup: a parked, non-quarantined thread must hold a
            // live watch in the filter, or no store can ever wake it.
            if t.state == ThreadState::Waiting && !t.quarantined {
                if !t.monitor_armed {
                    self.invariant_report.record(
                        "thread.lost_wakeup",
                        now,
                        format!("{ptid} parked without an armed monitor"),
                    );
                } else if !self.filter.is_armed(WatchId(u64::from(ptid.0))) {
                    self.invariant_report.record(
                        "thread.lost_wakeup",
                        now,
                        format!("{ptid} armed flag set but filter holds no watch"),
                    );
                }
            }
            // Quarantine/restart liveness: quarantine implies Disabled
            // (only restart_thread may lift it), and a casualty timestamp
            // must be cleared the moment the thread runs again.
            if t.quarantined && t.state != ThreadState::Disabled {
                self.invariant_report.record(
                    "thread.quarantine",
                    now,
                    format!("{ptid} quarantined but {:?}", t.state),
                );
            }
            if t.disabled_at.is_some() && t.state != ThreadState::Disabled {
                self.invariant_report.record(
                    "thread.quarantine",
                    now,
                    format!("{ptid} {:?} with stale disabled_at", t.state),
                );
            }
        }
        // Registered checks (device descriptor-ring conservation, …).
        let checks = core::mem::take(&mut self.invariant_checks);
        for (name, check) in &checks {
            if let Some(detail) = check(self) {
                self.invariant_report.record(name, now, detail);
            }
        }
        self.invariant_checks = checks;
    }

    /// Arms (or disarms, with `None`) a per-thread watchdog deadline: if
    /// the thread stays parked in a single `mwait` longer than `timeout`,
    /// the hardware raises [`ExceptionKind::WatchdogExpired`] on it —
    /// turning a silently wedged thread into an ordinary descriptor a
    /// supervisor can act on.
    pub fn set_thread_watchdog(&mut self, tid: ThreadId, timeout: Option<Cycles>) {
        self.thread_mut(tid.ptid).watchdog = timeout;
    }

    /// Quarantines a thread: disables it immediately and refuses every
    /// wake until [`Machine::restart_thread`] lifts the quarantine. Used
    /// by supervisors for threads that fault repeatedly.
    pub fn quarantine_thread(&mut self, tid: ThreadId) {
        if self.threads[tid.ptid.0 as usize].state != ThreadState::Disabled {
            self.disable_thread(tid.ptid, ThreadState::Disabled);
        }
        self.thread_mut(tid.ptid).quarantined = true;
        self.counters.inc("thread.quarantines");
        self.trace_transition(tid.ptid, Transition::Quarantine);
    }

    /// Whether a thread is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, tid: ThreadId) -> bool {
        self.threads[tid.ptid.0 as usize].quarantined
    }

    /// Restarts a disabled (possibly quarantined) thread from its first
    /// `start` pc, clearing stale monitor state. Returns `false` if the
    /// thread is not currently `Disabled` (running, waiting or halted
    /// threads cannot be restarted).
    pub fn restart_thread(&mut self, tid: ThreadId) -> bool {
        let t = self.thread_mut(tid.ptid);
        if t.state != ThreadState::Disabled {
            return false;
        }
        t.quarantined = false;
        t.monitor_triggered = false;
        if let Some(pc) = t.restart_pc {
            t.arch.pc = pc;
        }
        self.counters.inc("thread.restarts");
        self.trace_transition(tid.ptid, Transition::Restart);
        self.enable_thread(tid.ptid);
        true
    }

    /// When `tid` was last disabled by an exception, if it still is.
    /// Supervisors subtract this from "now" for recovery latency.
    #[must_use]
    pub fn thread_fault_time(&self, tid: ThreadId) -> Option<Cycles> {
        self.threads[tid.ptid.0 as usize].disabled_at
    }

    /// Migrates a thread to another core (§4: the OS scheduler "will
    /// also manage the mapping of threads to cores in order to improve
    /// locality").
    ///
    /// The thread's architectural state moves through the shared L3
    /// (charged as a cross-core bulk transfer); the thread cannot be
    /// dispatched until the transfer completes. Its cached working set
    /// is *not* moved — the first accesses on the new core re-warm
    /// through the hierarchy, which is the real cost of careless
    /// migration. Returns the updated handle.
    pub fn migrate_thread(
        &mut self,
        tid: ThreadId,
        new_core: usize,
    ) -> Result<ThreadId, MachineError> {
        if new_core >= self.cfg.cores {
            return Err(MachineError::BadCore(new_core));
        }
        let ptid = tid.ptid;
        let old = self.core_of(ptid);
        if old == new_core {
            return Ok(ThreadId { core: old, ptid });
        }
        self.cores[old].sched.dequeue(ptid);
        self.cores[old].store.remove(ptid);
        let now = self.now;
        let link = self.cfg.store.link_bytes_per_cycle.max(1);
        let l3_base = self.cfg.store.l3_base.0;
        let (runnable, prio) = {
            let t = self.thread_mut(ptid);
            t.home = new_core;
            t.activated = false;
            // Cross-core path: write back to L3 on the old side, read on
            // the new side — two L3-class bulk transfers.
            let bytes = t.state_bytes();
            let xfer = Cycles(2 * (l3_base + bytes.div_ceil(link)));
            t.busy_until = t.busy_until.max(now + xfer);
            (t.state == ThreadState::Runnable, t.arch.prio)
        };
        self.counters.inc("thread.migrations");
        let (from, to) = (old as u32, new_core as u32);
        self.trace_transition(ptid, Transition::Migrate { from, to });
        if runnable {
            self.cores[new_core].sched.enqueue(ptid, prio);
            self.kick_core(new_core);
        }
        Ok(ThreadId {
            core: new_core,
            ptid,
        })
    }

    /// Writes a TDT entry into simulated memory (host convenience; the
    /// hardware TDT cache is *not* invalidated: a cached entry stays
    /// stale until the guest runs `invtid`).
    pub fn write_tdt_entry(&mut self, tdt_base: u64, vtid: Vtid, entry: TdtEntry) {
        self.poke_u64(tdt_base + u64::from(vtid.0) * 8, entry.encode());
    }

    // -----------------------------------------------------------------
    // Run loop
    // -----------------------------------------------------------------

    /// Runs until simulated time `t` (or the machine halts).
    ///
    /// On [`Engine::Fast`], a multi-core machine runs the core-sharded
    /// epoch engine in `shard.rs`, at every [`Machine::set_machine_jobs`]
    /// value, with the invariant checker on or off (a committed epoch is
    /// checked once, at its first boundary). It is meant to be
    /// bit-identical to the serial loop, but it has one known divergence
    /// that depends on where successive `run_until` calls cut the run
    /// (see the `shard.rs` module doc and ROADMAP item 1). Single-core
    /// machines and [`Engine::Reference`] take the serial loop.
    pub fn run_until(&mut self, t: Cycles) {
        if self.engine == Engine::Fast && self.cfg.cores > 1 {
            self.run_until_sharded(t);
        } else {
            while self.halted.is_none() && self.step(t, t, None) {}
        }
        if self.invariants_on {
            self.check_invariants();
        }
        if self.halted.is_none() && self.now < t {
            self.now = t;
        }
    }

    /// Handles the earliest pending event if it is due at or before
    /// `pop_bound`: a slot's dispatch, with `horizon` and `watch` (see
    /// [`dispatch`]), or a device event. Returns whether one was
    /// handled. The one event-step body of every run loop, including the
    /// epoch engine's serial replay.
    pub(crate) fn step(
        &mut self,
        pop_bound: Cycles,
        horizon: Cycles,
        watch: Option<(Ptid, ThreadState)>,
    ) -> bool {
        let Some((ts, slot)) = self.next_pending().filter(|&(ts, _)| ts <= pop_bound) else {
            return false;
        };
        if let Some((core, s)) = slot {
            self.cores[core].slots[s] = Slot::Running;
            self.clock_to(ts);
            let Ok(()) = dispatch(self, core, s, horizon, watch);
        } else {
            let (_, (id, arg)) = self.events.pop().expect("the head was peeked");
            self.clock_to(ts);
            self.run_device(id, arg);
        }
        true
    }

    /// The earliest pending `(time, seq)` over every slot table and the
    /// device queue's head: its time, and the slot `(core, slot)` when
    /// a slot's dispatch is first (`None` for the device head).
    pub(crate) fn next_pending(&self) -> Option<(Cycles, Option<(usize, usize)>)> {
        let dev = self.events.peek_key();
        match next_slot(&self.cores) {
            Some((at, seq, c, s)) if dev.is_none_or(|d| (at, seq) < d) => Some((at, Some((c, s)))),
            _ => dev.map(|(at, _)| (at, None)),
        }
    }

    /// Time of the earliest pending slot dispatch or device event.
    pub(crate) fn next_time(&self) -> Option<Cycles> {
        self.next_pending().map(|(at, _)| at)
    }

    /// Moves the clock to the time of the event being handled.
    fn clock_to(&mut self, ts: Cycles) {
        if ts > self.now {
            // Event boundary: all work at `now` has settled.
            if self.invariants_on {
                self.check_invariants();
            }
            self.now = ts;
        }
    }

    /// Runs for `d` more cycles.
    pub fn run_for(&mut self, d: Cycles) {
        self.run_until(self.now + d);
    }

    /// Runs until `tid` reaches `state` or `limit` elapses; returns
    /// whether the state was reached.
    pub fn run_until_state(&mut self, tid: ThreadId, state: ThreadState, limit: Cycles) -> bool {
        let deadline = self.now + limit;
        // Event-driven stepping: process one event at a time and check.
        // The watch pair makes bursts bail the moment `tid` reaches
        // `state`, so `now` on return is exactly the single-step value.
        while self.now <= deadline && self.halted.is_none() && self.thread_state(tid) != state {
            if !self.step(deadline, deadline, Some((tid.ptid, state))) {
                break;
            }
        }
        self.thread_state(tid) == state
    }

    // -----------------------------------------------------------------
    // Internal: threads, wakeups, exceptions
    // -----------------------------------------------------------------

    fn thread_mut(&mut self, ptid: Ptid) -> &mut Thread {
        &mut self.threads[ptid.0 as usize]
    }

    fn core_of(&self, ptid: Ptid) -> usize {
        self.threads[ptid.0 as usize].home
    }

    /// Makes a thread runnable (start or monitor wake).
    fn enable_thread(&mut self, ptid: Ptid) {
        let core = self.core_of(ptid);
        let t = &mut self.threads[ptid.0 as usize];
        match t.state {
            ThreadState::Runnable | ThreadState::Halted => return,
            ThreadState::Waiting | ThreadState::Disabled => {}
        }
        if t.quarantined {
            // Only restart_thread (which clears the flag first) may wake
            // a quarantined thread; stray monitor hits are swallowed.
            self.counters.inc("thread.quarantine_wake_refused");
            return;
        }
        t.state = ThreadState::Runnable;
        t.activated = false;
        t.wake_at = Some(self.now);
        t.disabled_at = None;
        let prio = t.arch.prio;
        if t.monitor_armed {
            t.monitor_armed = false;
            self.filter.disarm_all(WatchId(u64::from(ptid.0)));
        }
        self.counters.bump(self.hot.thread_wakes, 1);
        // Wake-prefetch (§4): begin the state transfer and cache warming
        // now, so the first dispatch pays only the pipeline refill.
        if self.cfg.store.prefetch_on_wake {
            let (bytes, prio2) = {
                let t = &self.threads[ptid.0 as usize];
                (t.transfer_bytes(self.cfg.store.dirty_tracking), t.arch.prio)
            };
            let tier = self.cores[core].store.tier_of(ptid);
            if tier != Tier::Rf {
                let (cost, from) = self.cores[core].store.activate(ptid, prio2, bytes);
                self.counters.bump(self.hot.activate[from as usize], 1);
                // Transfer overlaps with queueing: the thread cannot be
                // dispatched before the transfer completes, but other
                // threads keep the pipeline busy meanwhile.
                let done = self.now + cost - self.cfg.store.rf_start.min(cost);
                let t = self.thread_mut(ptid);
                t.busy_until = t.busy_until.max(done);
                let part = self.threads[ptid.0 as usize].partition;
                for &line in self.prefetcher.wake_set(WatchId(u64::from(ptid.0))) {
                    self.hier.warm(core, line, part);
                }
            }
        }
        self.trace_transition(ptid, Transition::Wake);
        self.cores[core].sched.enqueue(ptid, prio);
        self.kick_core(core);
    }

    /// Disables a thread (stop, mwait uses `Waiting`, halt uses `Halted`).
    fn disable_thread(&mut self, ptid: Ptid, into: ThreadState) {
        debug_assert!(into != ThreadState::Runnable);
        let core = self.core_of(ptid);
        let t = &mut self.threads[ptid.0 as usize];
        if t.state == ThreadState::Halted {
            return;
        }
        t.state = into;
        if into != ThreadState::Waiting && t.monitor_armed {
            t.monitor_armed = false;
            self.filter.disarm_all(WatchId(u64::from(ptid.0)));
        }
        self.cores[core].sched.dequeue(ptid);
        self.trace_transition(ptid, Transition::Block(into));
    }

    /// Re-arms a core's idle slots after a wakeup: each dispatches now.
    fn kick_core(&mut self, core: usize) {
        for slot in 0..self.cfg.smt_slots {
            if self.cores[core].slots[slot] == Slot::Idle {
                let seq = self.events.issue_seq();
                self.cores[core].slots[slot] = Slot::Due(self.now, seq);
            }
        }
    }

    /// Raises an exception: writes the descriptor (waking monitors) and
    /// disables the thread. EDP == 0 halts the machine (§3.2).
    ///
    /// Descriptor slots carry **backpressure**: a handler acknowledges a
    /// descriptor by zeroing its kind word (the hypervisor already does).
    /// If a second fault arrives while the kind word is still nonzero,
    /// the new descriptor is *dropped* — never silently overwritten — and
    /// `exception.descriptor_overflow` counts the loss. The faulting
    /// thread is disabled either way, so supervisors sweep for disabled
    /// threads whose descriptor was lost.
    fn raise_exception(&mut self, ptid: Ptid, kind: ExceptionKind, info: u64) {
        self.counters.inc(kind.counter_name());
        self.exc_ledger.posted += 1;
        let (edp, pc) = {
            let t = &self.threads[ptid.0 as usize];
            (t.arch.edp, t.arch.pc)
        };
        self.disable_thread(ptid, ThreadState::Disabled);
        self.thread_mut(ptid).disabled_at = Some(self.now);
        self.trace_transition(ptid, Transition::Fault(kind));
        if edp == 0 || !in_mem(edp, crate::exception::DESCRIPTOR_BYTES, self.cfg.mem_bytes) {
            self.exc_ledger.dropped += 1;
            self.halted = Some(format!(
                "unhandled {kind} in {ptid} at pc={pc:#x} (no exception descriptor \
                 pointer installed — triple-fault analog, §3.2)"
            ));
            self.counters.inc("machine.halt");
            return;
        }
        if self.peek_u64(edp) != 0 {
            // Previous descriptor not yet acknowledged: drop, count, and
            // leave the slot intact for its handler.
            self.exc_ledger.dropped += 1;
            self.counters.inc("exception.descriptor_overflow");
            self.trace_transition(ptid, Transition::FaultDropped(kind));
            return;
        }
        self.exc_ledger.completed += 1;
        let desc = Descriptor {
            kind,
            ptid: u64::from(ptid.0),
            pc,
            info,
        };
        for (i, w) in desc.encode().into_iter().enumerate() {
            self.raw_write_u64(edp + (i as u64) * 8, w);
        }
        // One filter notification for the whole descriptor.
        self.after_store(edp, crate::exception::DESCRIPTOR_BYTES, false);
    }

    // -----------------------------------------------------------------
    // Internal: memory
    // -----------------------------------------------------------------

    fn raw_write_u64(&mut self, addr: u64, value: u64) {
        let a = addr as usize;
        assert!(a + 8 <= self.mem.len(), "write outside memory {addr:#x}");
        self.mem[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Post-store hook: consult the monitor filter and wake waiters.
    fn after_store(&mut self, addr: u64, len: u64, external: bool) {
        // Keep the decoded-instruction cache coherent. The two compares
        // reject every store outside the hull of loaded images, so data
        // stores never scan `code`.
        if addr < self.code_hi && addr.saturating_add(len.max(1)) > self.code_lo {
            self.invalidate_code(addr, len);
        }
        // Reuse the wake buffer across stores; `take` leaves an empty
        // `Vec` behind so a reentrant store (from `enable_thread`-driven
        // host logic or an mmio hook) just allocates its own.
        let mut wakes = core::mem::take(&mut self.scratch_wakes);
        wakes.clear();
        let _cost = self.filter.on_store(PAddr(addr), len, &mut wakes);
        for w in &wakes {
            let ptid = Ptid(w.watcher.0 as u32);
            if !w.exact {
                self.counters.bump(self.hot.monitor_false_wakes, 1);
            }
            self.counters.bump(self.hot.monitor_wakes, 1);
            let t = &mut self.threads[ptid.0 as usize];
            match t.state {
                ThreadState::Waiting => self.enable_thread(ptid),
                // Write raced ahead of mwait: remember it.
                _ => t.monitor_triggered = true,
            }
        }
        self.scratch_wakes = wakes;
        if external {
            self.counters.bump(self.hot.store_external, 1);
        }
        // Device doorbells: fire, in address order, the hooks whose
        // address the store covered. The covered addresses are copied out
        // first, so a hook registered by a hook first fires on the next
        // store; a hook is out of the map while it runs, so a store it
        // makes to its own doorbell does not fire it again.
        if !self.mmio_addrs.is_empty() {
            let end = addr.saturating_add(len.max(1));
            let lo = self
                .mmio_addrs
                .partition_point(|&a| a < addr.saturating_sub(7));
            let hi = lo + self.mmio_addrs[lo..].partition_point(|&a| a < end);
            let mut hit = core::mem::take(&mut self.scratch_mmio);
            hit.clear();
            hit.extend_from_slice(&self.mmio_addrs[lo..hi]);
            for &a in &hit {
                if let Some(mut h) = self.mmio_hooks.remove(&a) {
                    let value = self.peek_u64(a);
                    h(self, value);
                    self.mmio_hooks.entry(a).or_insert(h);
                }
            }
            self.scratch_mmio = hit;
        }
    }

    // -----------------------------------------------------------------
    // Internal: TDT lookups and permission checks
    // -----------------------------------------------------------------

    /// Resolves a vtid through the calling thread's TDT; returns the
    /// entry and lookup cost, or the exception to raise.
    fn tdt_lookup(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
    ) -> Result<(TdtEntry, Cycles), ExceptionKind> {
        let tdtr = self.threads[caller.0 as usize].arch.tdtr;
        if tdtr == 0 {
            return Err(ExceptionKind::PermissionDenied);
        }
        if let Some((e, cost)) = self.cores[core].tdt.lookup(tdtr, vtid) {
            if !e.valid {
                return Err(ExceptionKind::PermissionDenied);
            }
            return Ok((e, cost));
        }
        // Miss: fetch the entry from memory through the hierarchy.
        let Some(addr) = tdtr
            .checked_add(u64::from(vtid.0) * 8)
            .filter(|&a| in_mem(a, 8, self.cfg.mem_bytes))
        else {
            return Err(ExceptionKind::BadMemory);
        };
        let Ok(lat) = data_access(
            self,
            core,
            caller,
            caller.0 as usize,
            addr,
            AccessKind::Read,
        );
        let entry = TdtEntry::decode(self.peek_u64(addr));
        self.cores[core].tdt.install(tdtr, vtid, entry);
        if !entry.valid {
            return Err(ExceptionKind::PermissionDenied);
        }
        Ok((entry, lat + Cycles(1)))
    }

    /// Checks that `caller` may perform `need` on the entry's target.
    /// Supervisor-mode threads bypass TDT permission bits.
    fn check_perm(&self, caller: Ptid, entry: TdtEntry, need: Perms) -> Result<(), ExceptionKind> {
        let mode = self.threads[caller.0 as usize].arch.mode;
        if mode == Mode::Supervisor || entry.perms.allows(need) {
            Ok(())
        } else {
            Err(ExceptionKind::PermissionDenied)
        }
    }

    // -----------------------------------------------------------------
    // Internal: system instructions (see `ExecCtx::exec_system`)
    // -----------------------------------------------------------------

    fn arm_monitor(&mut self, ptid: Ptid, addr: u64, cost: &mut Cycles) {
        if !in_mem(addr, 8, self.cfg.mem_bytes) {
            self.raise_exception(ptid, ExceptionKind::BadMemory, addr);
            return;
        }
        match self.filter.arm(WatchId(u64::from(ptid.0)), PAddr(addr), 8) {
            Ok(()) => {
                let t = self.thread_mut(ptid);
                t.monitor_armed = true;
                self.counters.bump(self.hot.monitor_armed, 1);
            }
            Err(_) => {
                // Filter exhausted (CAM design): deliver as a permission
                // fault so software can fall back.
                self.counters.inc("monitor.exhausted");
                self.raise_exception(ptid, ExceptionKind::PermissionDenied, addr);
                return;
            }
        }
        *cost += Cycles(1);
    }

    /// `start`/`stop` semantics with TDT translation and permissions.
    fn start_stop(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
        enable: bool,
    ) -> Result<Cycles, ExceptionKind> {
        let (entry, lookup_cost) = self.tdt_lookup(core, caller, vtid)?;
        let need = if enable { Perms::START } else { Perms::STOP };
        self.check_perm(caller, entry, need)?;
        let target = entry.ptid;
        if target.0 as usize >= self.threads.len() {
            return Err(ExceptionKind::PermissionDenied);
        }
        if enable {
            self.counters.inc("thread.starts");
            self.enable_thread(target);
        } else {
            self.counters.inc("thread.stops");
            self.disable_thread(target, ThreadState::Disabled);
        }
        Ok(lookup_cost + Cycles(1))
    }

    /// Shared `rpull`/`rpush` path. `write` = `Some(value)` for rpush.
    fn remote_reg(
        &mut self,
        core: usize,
        caller: Ptid,
        vtid: Vtid,
        remote: RegSel,
        write: Option<u64>,
    ) -> Result<(u64, Cycles), ExceptionKind> {
        let (entry, lookup_cost) = self.tdt_lookup(core, caller, vtid)?;
        let need = if remote.is_sensitive() {
            Perms::MOD_MOST
        } else {
            Perms::MOD_SOME
        };
        self.check_perm(caller, entry, need)?;
        let target = entry.ptid;
        if target.0 as usize >= self.threads.len() {
            return Err(ExceptionKind::PermissionDenied);
        }
        if !self.threads[target.0 as usize]
            .state
            .is_register_accessible()
        {
            return Err(ExceptionKind::ThreadNotStopped);
        }
        // Remote state may be parked in a lower tier: accessing it costs
        // a (partial) transfer, modeled as the tier base cost.
        let tcore = self.core_of(target);
        let tier = self.cores[tcore].store.tier_of(target);
        let tier_cost = match tier {
            Tier::Rf => Cycles::ZERO,
            Tier::L2 => self.cfg.store.l2_base,
            Tier::L3 => self.cfg.store.l3_base,
            Tier::Dram => self.cfg.store.dram_base,
        };
        let t = &mut self.threads[target.0 as usize];
        let value = match write {
            Some(v) => {
                t.arch.write(remote, v);
                v
            }
            None => t.arch.read(remote),
        };
        Ok((value, lookup_cost + tier_cost))
    }
}

// ---------------------------------------------------------------------
// The interpreter: one copy, run by the serial machine and epoch workers
// ---------------------------------------------------------------------

/// Everything that differs between the serial machine and an epoch
/// worker (`shard.rs`): where threads, memory, caches, events and
/// counters live, and what an effect outside the context's reach does.
/// `dispatch`, the burst loop, superblocks and `exec_inst` are written
/// once against this trait and monomorphised for both. A thread handle
/// `h` comes from [`ExecCtx::th_index`].
pub(crate) trait ExecCtx {
    /// Why execution stops early: never on the serial machine; a
    /// worker abandons its epoch.
    type Bail;

    fn cfg(&self) -> &MachineConfig;
    fn now(&self) -> Cycles;
    fn set_now(&mut self, t: Cycles);
    fn halted(&self) -> bool;
    /// Whether bursts may run superblocks ([`Engine::Fast`]).
    fn superblocks(&self) -> bool;
    fn core_mut(&mut self, core: usize) -> &mut CoreState;
    fn th_index(&self, ptid: Ptid) -> usize;
    fn th(&self, h: usize) -> &Thread;
    fn th_mut(&mut self, h: usize) -> &mut Thread;
    /// The scheduler's pick on `core` at `now`; when every enrolled
    /// thread is busy, the earliest time one frees up.
    fn pick(&mut self, core: usize, now: Cycles) -> Result<Ptid, Option<Cycles>>;

    /// Arms `core`'s `slot` to dispatch at `at`, after everything
    /// already pending at `at`.
    fn schedule_slot(&mut self, at: Cycles, core: usize, slot: usize);
    /// Changes whenever a slot is armed or an event is scheduled.
    fn schedule_mark(&self) -> u64;
    /// Time of the earliest pending event that is not one of `core`'s
    /// own slots: the burst gate (see [`dispatch`]).
    fn next_deadline(&mut self, core: usize) -> Option<Cycles>;

    /// One burst's instructions (each one dispatch): its first, then
    /// `steps` single-stepped and `reg_block`/`mem_block` retired in
    /// superblocks.
    fn note_burst(&mut self, steps: u64, reg_block: u64, mem_block: u64);
    fn stats(&mut self) -> &mut EngineStats;
    fn note_activation(&mut self, from: usize);
    fn note_wake(&mut self, sample: u64);
    /// Takes the charge hcall handlers added to the current instruction.
    fn take_charge(&mut self) -> Cycles;

    /// Every loaded image's decoded range, sorted by `(base, end)`.
    fn code(&self) -> &[CodeRange];
    /// `(min base, max end)` over `code`.
    fn code_hull(&self) -> (u64, u64);
    /// A superblock-table miss at `code[ri]` slot `slot` after `heat`
    /// entry visits. The serial machine bumps the heat and forms the
    /// block once hot; workers only read blocks (`code` is shared).
    fn heat(&mut self, ri: usize, slot: usize, heat: u32) -> Option<u32>;
    /// The probe scratch, boxed so a block takes it out and puts it
    /// back with one pointer move each.
    fn probe(&mut self) -> &mut Option<Box<Probe>>;

    /// Reads `len` (1 or 8) bytes at an in-memory `addr`.
    fn load(&self, addr: u64, len: u64) -> Result<u64, Self::Bail>;
    /// Writes the low `len` bytes of `v` with no side effect; returns
    /// the old value.
    fn write(&mut self, addr: u64, len: u64, v: u64) -> Result<u64, Self::Bail>;
    /// A CPU store's side effects: code coherence, monitor wakes, MMIO
    /// doorbells.
    fn store_effects(&mut self, addr: u64, len: u64) -> Result<(), Self::Bail>;
    fn filter(&self) -> &dyn MonitorFilter;
    fn mmio_addrs(&self) -> &[u64];

    fn cache_access(
        &mut self,
        core: usize,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> Result<AccessResult, Self::Bail>;
    /// `core`'s private cache levels.
    fn caches(&mut self, core: usize) -> &mut CoreCaches;
    /// The wake prefetcher's working-set capture.
    fn capture(&mut self) -> &mut Capture;

    fn raise(&mut self, ptid: Ptid, kind: ExceptionKind, info: u64) -> Result<(), Self::Bail>;
    /// Executes a system instruction — anything but ALU/branch, `Div`
    /// and local memory — adding to `cost`. Returns the next pc, or
    /// `None` when the instruction settled the pc itself.
    fn exec_system(
        &mut self,
        core: usize,
        ptid: Ptid,
        inst: Inst,
        pc: u64,
        cost: &mut Cycles,
    ) -> Result<Option<u64>, Self::Bail>;
}

/// Reusable scratch for the superblock probe: the merged fetch+data L1
/// line stream (line, last-access position, written), which opens with
/// the block's fetch lines in `Superblock::lines` order holding only
/// their data positions until the commit adds the fetches; the data-page
/// stream (page, last data-access index); the dedup-keep-last data lines
/// for the prefetcher; and the current iteration's store undo log (addr,
/// old value, width) and data accesses, one entry per run of
/// consecutive accesses to one line (line, last position, last
/// data-access index, any written), merged into the streams only once
/// the iteration completes. `li` and `pi` index the last merged line and
/// page entry; any value is safe, since a use first checks the entry.
#[derive(Default)]
pub(crate) struct Probe {
    lines: Vec<(PAddr, u64, bool)>,
    pages: Vec<(u64, u64)>,
    plines: Vec<PAddr>,
    undo: Vec<(u64, u64, u64)>,
    stage: Vec<(PAddr, u64, u64, bool)>,
    li: usize,
    pi: usize,
}

impl Probe {
    /// Stages a data access: the run it continues, or a new one.
    #[inline(always)]
    fn stage(&mut self, line: PAddr, pos: u64, di: u64, write: bool) {
        match self.stage.last_mut() {
            Some(e) if e.0 == line => {
                (e.1, e.2) = (pos, di);
                e.3 |= write;
            }
            _ => self.stage.push((line, pos, di, write)),
        }
    }

    /// Merges the staged iteration into the streams. A run on the same
    /// line or page as the previous one updates its entry in O(1).
    fn merge_stage(&mut self) {
        let Probe {
            lines,
            pages,
            plines,
            stage,
            li,
            pi,
            ..
        } = self;
        for &(line, pos, di, write) in stage.iter() {
            let page = line.0 / PAGE_BYTES;
            if lines.get(*li).is_none_or(|e| e.0 != line) {
                *li = lines.iter().position(|e| e.0 == line).unwrap_or_else(|| {
                    lines.push((line, 0, false));
                    lines.len() - 1
                });
            }
            // Positions only grow along the walk.
            let e = &mut lines[*li];
            e.1 = pos;
            e.2 |= write;
            if pages.get(*pi).is_none_or(|e| e.0 != page) {
                *pi = pages.iter().position(|e| e.0 == page).unwrap_or_else(|| {
                    pages.push((page, 0));
                    pages.len() - 1
                });
            }
            pages[*pi].1 = di;
            if plines.last() != Some(&line) {
                if let Some(at) = plines.iter().position(|&l| l == line) {
                    plines.remove(at);
                }
                plines.push(line);
            }
        }
    }
}

/// Whether `[addr, addr + len)` lies inside `mem_bytes` of memory.
#[inline(always)]
fn in_mem(addr: u64, len: u64, mem_bytes: u64) -> bool {
    addr.checked_add(len).is_some_and(|end| end <= mem_bytes)
}

/// Little-endian read of `len` (1 or 8) bytes.
#[inline(always)]
pub(crate) fn read_le(bytes: &[u8], len: u64) -> u64 {
    if len == 8 {
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    } else {
        u64::from(bytes[0])
    }
}

/// Little-endian write of the low `len` (1 or 8) bytes of `v`.
#[inline(always)]
pub(crate) fn write_le(bytes: &mut [u8], len: u64, v: u64) {
    if len == 8 {
        bytes[..8].copy_from_slice(&v.to_le_bytes());
    } else {
        bytes[0] = v as u8;
    }
}

/// [`ExecCtx::pick`] over a scheduler and a thread's `busy_until`.
pub(crate) fn pick_free(
    sched: &mut HwScheduler,
    now: Cycles,
    busy_until: impl Fn(Ptid) -> Cycles,
) -> Result<Ptid, Option<Cycles>> {
    sched
        .pick(|p| busy_until(p) > now)
        .ok_or_else(|| sched.min_over_enrolled(|p| Some(busy_until(p)).filter(|&b| b > now)))
}

/// Dispatches one pipeline slot: picks a thread, charges activation,
/// and executes an instruction **burst** — up to [`MAX_BURST`]
/// instructions inline, advancing a local cycle cursor, instead of one
/// run-loop round-trip per instruction (see DESIGN.md §8).
///
/// `horizon` is the last cycle an instruction may dispatch at (the run
/// deadline, mirroring `step`'s `pop_bound`; a worker's fresh-event horizon).
/// `watch` is `run_until_state`'s target; a burst bails the moment it
/// is reached so the caller observes the same `now` a single-step run
/// would.
pub(crate) fn dispatch<X: ExecCtx>(
    x: &mut X,
    core: usize,
    slot: usize,
    horizon: Cycles,
    watch: Option<(Ptid, ThreadState)>,
) -> Result<(), X::Bail> {
    if x.halted() {
        return Ok(());
    }
    let now = x.now();
    let ptid = match x.pick(core, now) {
        Ok(p) => p,
        // Runnable threads may exist but be busy (state transfer or an
        // in-flight instruction on the other slot): retry when the
        // earliest becomes free. Otherwise idle until a wake re-kicks.
        Err(Some(at)) => {
            x.schedule_slot(at, core, slot);
            return Ok(());
        }
        Err(None) => {
            x.core_mut(core).slots[slot] = Slot::Idle;
            return Ok(());
        }
    };
    let h = x.th_index(ptid);

    // Activation cost: pipeline refill (plus state transfer when the
    // thread's state is not RF-resident and wasn't prefetched).
    let mut cost = Cycles::ZERO;
    let tier = x.core_mut(core).store.tier_of(ptid);
    if !x.th(h).activated || tier != Tier::Rf {
        let t = x.th(h);
        let bytes = t.transfer_bytes(x.cfg().store.dirty_tracking);
        let prio = t.arch.prio;
        let (act, from) = x.core_mut(core).store.activate(ptid, prio, bytes);
        x.note_activation(from as usize);
        cost += act;
        let t = x.th_mut(h);
        t.activated = true;
        t.touched = 0;
    } else {
        x.core_mut(core).store.touch(ptid);
    }
    // Wake-to-execution latency: scheduler queueing (now - wake) plus
    // the state-activation / pipeline-refill time just charged (`cost`
    // holds exactly the activation portion at this point).
    if let Some(wake) = x.th_mut(h).wake_at.take() {
        let sample = (now - wake + cost).0;
        x.note_wake(sample);
        let ws = &mut x.th_mut(h).wake_stats;
        ws.0 += 1;
        ws.1 += sample;
        ws.2 = ws.2.max(sample);
    }

    // Execute the first instruction (the one this dispatch paid for).
    cost = (cost + exec_charged(x, core, ptid, h)?).max(Cycles(1));
    let mut done = now + cost;

    // Burst engine: while this thread is provably the next pick and
    // nothing else can observe machine state first, keep executing its
    // instructions inline. Continuation is decided *after* each
    // instruction's effects, so any cross-thread side effect (a wake
    // that enrols a second thread, a scheduled callback, an exception,
    // a halt) ends the burst exactly where single-stepping would have
    // re-arbitrated differently. The gate is the earliest pending event
    // on anything but this core's own slots: a sibling slot due inside
    // the burst is inert, because `burst_eligible` keeps this thread the
    // sole enrolled one and busy through every cursor, so the sibling's
    // pick would find nothing free and only re-arm it at this burst's
    // end. `next_deadline` is cached and only recomputed when something
    // scheduled (schedules are the only way the deadline can move
    // earlier).
    let mut burst_cost = Cycles::ZERO;
    // Instructions beyond the first, and those of them retired in
    // register-only and memory blocks.
    let mut extra: u64 = 0;
    let (mut reg_block, mut mem_block) = (0u64, 0u64);

    // Superblock entry gate (the heat hoist): a region entry is only
    // ever *reached* by a jump — straight-line continuation lands on
    // pc + 8. `seq_pc` tracks that fall-through continuation; while the
    // burst walks sequential code, the table lookup (and its
    // heat/formed bookkeeping) is skipped entirely. `u64::MAX` means
    // "provenance unknown — check": the first burst iteration and every
    // block exit.
    let mut seq_pc = u64::MAX;
    if watch.is_none_or(|(p, s)| x.th(x.th_index(p)).state != s) {
        let mut mark = x.schedule_mark();
        let mut qmin = x.next_deadline(core);
        while extra < MAX_BURST
            && done <= horizon
            && burst_eligible(x, core, ptid, h, done)
            && qmin.is_none_or(|q| q > done)
        {
            // Superblock fast path (DESIGN.md §10): a formed region
            // executes as one unit — a looping one for as many whole
            // iterations as provably stay inside this burst's window.
            // Block instructions cannot schedule events, change any
            // thread state, or incur a pending charge, so the
            // per-instruction mark/watch/eligibility re-checks are
            // constant across every iteration: the check at the loop
            // head covers every interior cursor (`busy_until <= done`
            // stays true as `done` only grows). Any failed precondition
            // single-steps — never a burst exit.
            if x.superblocks() {
                let pc = x.th(h).arch.pc;
                let via_jump = pc != seq_pc;
                seq_pc = pc.wrapping_add(8);
                if let Some((ri, bi)) = if via_jump { sb_lookup(x, h, pc) } else { None } {
                    let (bcost, last_cost, len, has_mem, loops) = {
                        // Dynamic block cost: base costs plus one L1 hit
                        // per data access. The block only executes when
                        // every fetch/data line is L1-resident and every
                        // data page is TLB-resident (a TLB hit adds
                        // zero), so the cost is known before probing.
                        let b = &x.code()[ri].blocks[bi];
                        let l1 = x.cfg().hierarchy.lat_l1;
                        (
                            b.cost.0 + b.mem_ops() * l1.0,
                            b.last_cost.0 + if b.last_is_mem { l1.0 } else { 0 },
                            b.insts.len() as u64,
                            b.mem_ops() > 0,
                            b.loops,
                        )
                    };
                    // Iterations that fit (a block that does not loop
                    // has one). Each must start below `MAX_BURST`, as a
                    // block entry would, so `extra` overshoots it by at
                    // most one iteration — burst length is observably
                    // invisible. The last one's final dispatch cursor,
                    // `done + n·bcost − last_cost`, must be inside the
                    // horizon and before the deadline gate, exactly as
                    // single-stepping checks at every interior cursor:
                    // a gate at `q` admits the iterations whose last
                    // cursor is before it.
                    let last_at = move |n: u64| done + Cycles(n * bcost - last_cost);
                    let mut n = if loops {
                        (MAX_BURST - extra).div_ceil(len)
                    } else {
                        1
                    };
                    n = n.min((horizon - done).0.saturating_add(last_cost) / bcost);
                    if let Some(q) = qmin.filter(|&q| n > 0 && q <= last_at(n)) {
                        n = ((q - done).0 - 1 + last_cost) / bcost;
                    }
                    let (iters, bailed) = if n > 0 {
                        exec_superblock(x, core, ptid, h, ri, bi, n)
                    } else {
                        (0, true)
                    };
                    if iters > 0 {
                        let run = Cycles(iters * bcost);
                        // Single-stepping leaves `now` at the last
                        // dispatch cursor, not at the completion time.
                        x.set_now(last_at(iters));
                        done += run;
                        burst_cost += run;
                        extra += iters * len;
                        if has_mem {
                            mem_block += iters * len;
                        } else {
                            reg_block += iters * len;
                        }
                    }
                    // A bail in a later iteration leaves the thread at the
                    // entry of the iteration that failed: single-step it.
                    if !bailed {
                        seq_pc = u64::MAX;
                        continue;
                    }
                }
            }
            x.set_now(done);
            let c = exec_charged(x, core, ptid, h)?.max(Cycles(1));
            done += c;
            burst_cost += c;
            extra += 1;
            if x.schedule_mark() != mark {
                mark = x.schedule_mark();
                qmin = x.next_deadline(core);
            }
            if watch.is_some_and(|(p, s)| x.th(x.th_index(p)).state == s) {
                break;
            }
        }
    }
    // Batched bookkeeping: one account/bump per burst, totals exactly
    // equal to per-instruction accounting.
    x.core_mut(core).sched.account(ptid, cost + burst_cost);
    let t = x.th_mut(h);
    t.busy_until = t.busy_until.max(done);
    x.note_burst(extra - reg_block - mem_block, reg_block, mem_block);
    // A wake this burst raised on its own core armed only idle slots.
    debug_assert_eq!(x.core_mut(core).slots[slot], Slot::Running);
    x.schedule_slot(done, core, slot);
    Ok(())
}

/// One instruction plus the charge its hcall handler added.
fn exec_charged<X: ExecCtx>(
    x: &mut X,
    core: usize,
    ptid: Ptid,
    h: usize,
) -> Result<Cycles, X::Bail> {
    x.take_charge();
    let c = exec_inst(x, core, ptid, h)?;
    Ok(c + x.take_charge())
}

/// Whether the burst may execute one more instruction for `ptid`
/// dispatching at time `done`. True only when the single-step machine
/// would provably arrive at the identical pick with identical charges:
/// the thread is still runnable on this core with RF-resident,
/// already-activated state, not made busy by anything, and it is the
/// **sole** enrolled thread (so round-robin rotation is the identity).
/// Everything an instruction's side effects can touch is re-read here,
/// which makes the bailout effect-based.
#[inline]
fn burst_eligible<X: ExecCtx>(x: &mut X, core: usize, ptid: Ptid, h: usize, done: Cycles) -> bool {
    let t = x.th(h);
    let ready = t.state == ThreadState::Runnable
        && t.activated
        && t.home == core
        && t.busy_until <= done
        && !x.halted();
    let cs = x.core_mut(core);
    ready && cs.sched.sole_runnable() == Some(ptid) && cs.store.tier_of(ptid) == Tier::Rf
}

/// `(code range, word slot)` of an aligned `pc` inside a loaded image,
/// for thread `h`. The thread's hint serves the common case (it keeps
/// running in its own image); a miss binary-searches the sorted ranges.
#[inline]
fn code_slot<X: ExecCtx>(x: &mut X, h: usize, pc: u64) -> Option<(usize, usize)> {
    let hint = x.th(h).code_hint;
    let code = x.code();
    let ri = match code.get(hint) {
        Some(r) if r.base <= pc && pc < r.end => hint,
        _ => {
            // The last range based at or below `pc` is the only one
            // that can hold it.
            let ri = code.partition_point(|r| r.base <= pc).checked_sub(1)?;
            if pc >= code[ri].end {
                return None;
            }
            x.th_mut(h).code_hint = ri;
            ri
        }
    };
    let off = pc - x.code()[ri].base;
    (off & 7 == 0).then_some((ri, (off >> 3) as usize))
}

/// Cached decode of the word at `pc`. `None` means "use the slow
/// fetch-and-decode path" (unaligned pc, pc outside every image, or a
/// non-decoding word).
#[inline]
fn cached_inst<X: ExecCtx>(x: &mut X, h: usize, pc: u64) -> Option<Inst> {
    let (ri, slot) = code_slot(x, h, pc)?;
    x.code()[ri].insts[slot]
}

/// Superblock lookup at `pc`: the (code-range, block) indices of a
/// formed, live superblock entered there. Misses go to
/// [`ExecCtx::heat`]. Formation is driven purely by observed execution
/// heat — no static configuration (cf. "Switchless Calls Made
/// Configless").
#[inline]
fn sb_lookup<X: ExecCtx>(x: &mut X, h: usize, pc: u64) -> Option<(usize, usize)> {
    let (ri, slot) = code_slot(x, h, pc)?;
    let bi = match x.code()[ri].sb[slot] {
        SB_DEAD => return None,
        s if s >= SB_FORMED => s & !SB_FORMED,
        heat => x.heat(ri, slot, heat)?,
    };
    Some((ri, bi as usize))
}

/// A local memory instruction's direction.
enum MemOp {
    /// Load into this register.
    Load(Reg),
    /// Store this value.
    Store(u64),
}

/// A local memory instruction's effective address, width and direction;
/// `None` for every other instruction.
#[inline(always)]
fn mem_op(i: Inst, gprs: &[u64; 16]) -> Option<(u64, u64, MemOp)> {
    let r = |r: Reg| gprs[r.0 as usize & 0xf];
    use Inst::*;
    Some(match i {
        Ld { d, a, off } => (r(a).wrapping_add(off as u64), 8, MemOp::Load(d)),
        LdB { d, a, off } => (r(a).wrapping_add(off as u64), 1, MemOp::Load(d)),
        LdA { d, addr } => (addr, 8, MemOp::Load(d)),
        St { s, a, off } => (r(a).wrapping_add(off as u64), 8, MemOp::Store(r(s))),
        StB { s, a, off } => (r(a).wrapping_add(off as u64), 1, MemOp::Store(r(s))),
        StA { s, addr } => (addr, 8, MemOp::Store(r(s))),
        _ => return None,
    })
}

/// Whether a store to `[addr, addr + len)` is *quiet*: it overlaps no
/// decoded code range (the hull compare is only a pre-filter: it
/// over-approximates when unrelated data sits between two images),
/// intersects no armed monitor line (`would_wake` is conservative, so no
/// wakeup is ever lost), and is outside MMIO-doorbell proximity.
pub(crate) fn store_is_quiet<X: ExecCtx>(x: &X, addr: u64, len: u64) -> bool {
    let end = addr.saturating_add(len.max(1));
    let (lo, hi) = x.code_hull();
    let mmio = x.mmio_addrs();
    let i = mmio.partition_point(|&a| a < addr.saturating_sub(7));
    let hits_code = addr < hi && end > lo && x.code().iter().any(|r| addr < r.end && end > r.base);
    !(hits_code || x.filter().would_wake(PAddr(addr), len) || mmio.get(i).is_some_and(|&a| a < end))
}

/// Executes up to `max` iterations of a formed superblock as one unit
/// (DESIGN.md §10); a block that does not loop is called with `max` 1.
/// Returns the iterations committed and whether the walk stopped at one
/// it could not batch (the caller then single-steps from that
/// iteration's entry, where the thread is left).
///
/// The walk interprets the block on a scratch register file — each
/// ALU/branch stretch in one [`sblock::exec_regs`] pass over the block's
/// slice — applies stores under an undo log (so later loads see them),
/// and *stages* each iteration's exact dynamic footprint, merging it into
/// the [`Probe`] once the iteration completes. Iterations run while the
/// branch returns to the entry. Any effect the batch cannot reproduce
/// fails the iteration — reverse-replaying its undo log and
/// restoring the registers it started with — and the iterations before
/// it commit:
///
/// - an out-of-range address (single-step raises the precise fault);
/// - a non-resident L1 line (fetch or data) or TLB page (single-step
///   charges the miss and performs the fills);
/// - a store that is not [`store_is_quiet`] — including into the
///   block's own fetch lines, whose single-step `invalidate_code` kills
///   the block;
/// - a load or store the context cannot serve (a worker's access
///   outside its own memory domain).
///
/// Nothing fills or evicts during a walk, so an access to the line or
/// page the previous access found resident skips the residency check,
/// and a store inside a line that passed `store_is_quiet(line, 64)` is
/// quiet without another check: code overlap, `would_wake` and the MMIO
/// window all shrink with the range.
///
/// The commit applies one batched, provably per-access-equal update per
/// structure over all `N` iterations: `access_run_mixed` for the L1 over
/// `N·(insts + mem_ops)` positions, with each fetch line last touched at
/// its static position plus `(N−1)·(insts + mem_ops)` unless a data
/// access came later; `access_run` for the TLB over `N·mem_ops`;
/// and `record_run` for the prefetcher. A quiet store needs no filter
/// update: a no-wake `on_store` has no effect. A block without
/// memory instructions leaves the data streams empty, and empty TLB and
/// prefetcher runs are no-ops.
fn exec_superblock<X: ExecCtx>(
    x: &mut X,
    core: usize,
    ptid: Ptid,
    h: usize,
    ri: usize,
    bi: usize,
    max: u64,
) -> (u64, bool) {
    let mut p = x.probe().take().unwrap_or_default();
    let b = &x.code()[ri].blocks[bi];
    let (n_insts, mem_ops, touched) = (b.insts.len(), b.mem_ops(), b.touched);
    // Merged-stream positions per iteration.
    let span = n_insts as u64 + mem_ops;
    p.lines.clear();
    p.lines.extend(b.lines.iter().map(|&(l, _)| (l, 0, false)));
    p.pages.clear();
    p.plines.clear();
    // The fetch lines are static: check them once, before the walk.
    let mut bailed = !p
        .lines
        .iter()
        .all(|&(l, _, _)| x.caches(core).l1_contains(l));

    let mem_bytes = x.cfg().mem_bytes;
    let entry = x.th(h).arch.pc;
    let (mut gprs, mut pc) = (x.th(h).arch.gprs, entry);
    let mut iters = 0u64;
    // Memos: the last line and page found resident, and the last line
    // found wholly quiet.
    let (mut l1_memo, mut tlb_memo, mut quiet_memo) = (PAddr(u64::MAX), u64::MAX, PAddr(u64::MAX));
    while !bailed && iters < max {
        let saved = gprs;
        p.undo.clear();
        p.stage.clear();
        let mut pos = iters * span; // position in the merged fetch+data stream
        let (mut k, mut m) = (0, 0);
        loop {
            // The ALU/branch stretch before the next memory instruction
            // (or the block's end), one fetch access each.
            let b = &x.code()[ri].blocks[bi];
            let end = b.mem_at.get(m).map_or(n_insts, |&e| e);
            pc = sblock::exec_regs(&b.insts[k..end], &mut gprs, pc);
            pos += (end - k) as u64;
            if end == n_insts {
                break;
            }
            let i = b.insts[end];
            (k, m) = (end + 1, m + 1);
            pos += 2; // the memory instruction's fetch, then its data access
            let (addr, len, op) =
                mem_op(i, &gprs).expect("a block holds ALU/branch and local memory");
            // The serial path accesses exactly the line and page containing
            // the address, regardless of width.
            let (page, line) = (addr / PAGE_BYTES, PAddr(addr).line());
            bailed = !in_mem(addr, len, mem_bytes)
                || (page != tlb_memo && !x.core_mut(core).tlb.contains(page))
                || (line != l1_memo && !x.caches(core).l1_contains(line));
            if bailed {
                break;
            }
            (tlb_memo, l1_memo) = (page, line);
            let write = match op {
                MemOp::Load(d) => match x.load(addr, len) {
                    Ok(v) => {
                        gprs[d.0 as usize & 0xf] = v;
                        false
                    }
                    Err(_) => {
                        bailed = true;
                        break;
                    }
                },
                MemOp::Store(v) => {
                    // A store inside a line found wholly quiet is quiet.
                    let in_line = (addr & (LINE_BYTES - 1)) + len <= LINE_BYTES;
                    let quiet = if in_line
                        && (line == quiet_memo || store_is_quiet(x, line.0, LINE_BYTES))
                    {
                        quiet_memo = line;
                        true
                    } else {
                        store_is_quiet(x, addr, len)
                    };
                    match quiet.then(|| x.write(addr, len, v)) {
                        Some(Ok(old)) => p.undo.push((addr, old, len)),
                        _ => {
                            bailed = true;
                            break;
                        }
                    }
                    true
                }
            };
            p.stage(line, pos, iters * mem_ops + m as u64, write);
            pc += 8;
        }
        if bailed {
            for &(addr, old, len) in p.undo.iter().rev() {
                let _ = x.write(addr, len, old);
            }
            (gprs, pc) = (saved, entry);
            break;
        }
        p.merge_stage();
        iters += 1;
        if pc != entry {
            break;
        }
    }

    if bailed {
        x.stats().block_bails += 1;
    }
    if iters == 0 {
        *x.probe() = Some(p);
        return (0, bailed);
    }
    let shift = (iters - 1) * span;
    for (e, &(_, at)) in p.lines.iter_mut().zip(&x.code()[ri].blocks[bi].lines) {
        e.1 = e.1.max(at + shift);
    }
    let l1_ok = x.caches(core).l1_access_run_mixed(&p.lines, iters * span);
    debug_assert!(l1_ok, "probe checked L1 residency for every line");
    let tlb_ok = x.core_mut(core).tlb.access_run(&p.pages, iters * mem_ops);
    debug_assert!(tlb_ok, "probe checked TLB residency for every page");
    x.capture()
        .record_run(WatchId(u64::from(ptid.0)), &p.plines);
    x.stats().block_runs += 1;
    *x.probe() = Some(p);
    let t = x.th_mut(h);
    t.arch.gprs = gprs;
    t.arch.pc = pc;
    t.touched |= touched;
    (iters, bailed)
}

/// A data access by `ptid` on `core` to an in-memory address: TLB,
/// cache hierarchy and prefetch capture; returns the latency.
#[inline(always)]
fn data_access<X: ExecCtx>(
    x: &mut X,
    core: usize,
    ptid: Ptid,
    h: usize,
    addr: u64,
    kind: AccessKind,
) -> Result<Cycles, X::Bail> {
    let tlb_cost = x.core_mut(core).tlb.access(addr / PAGE_BYTES);
    let part = x.th(h).partition;
    let res = x.cache_access(core, PAddr(addr), kind, part)?;
    x.capture()
        .record_access(WatchId(u64::from(ptid.0)), PAddr(addr));
    Ok(tlb_cost + res.latency)
}

/// Executes one instruction for `ptid`; returns its cost. All state
/// effects (including faults) happen here.
fn exec_inst<X: ExecCtx>(x: &mut X, core: usize, ptid: Ptid, h: usize) -> Result<Cycles, X::Bail> {
    let pc = x.th(h).arch.pc;
    let mem_bytes = x.cfg().mem_bytes;
    // Instruction fetch.
    if !in_mem(pc, 8, mem_bytes) {
        x.raise(ptid, ExceptionKind::BadMemory, pc)?;
        return Ok(Cycles(1));
    }
    let ifetch = x.cache_access(core, PAddr(pc), AccessKind::Read, PartitionId::DEFAULT)?;
    // A pipelined frontend hides L1-hit fetch latency entirely.
    let ifetch_cost = if ifetch.level == HitLevel::L1 {
        Cycles::ZERO
    } else {
        ifetch.latency
    };
    // Decoded-instruction cache: loaded images are pre-decoded, so the
    // steady state skips both the byte fetch and `Inst::decode`. Other
    // pcs fall back to fetch-and-decode, preserving the fault payload.
    let inst = match cached_inst(x, h, pc) {
        Some(i) => i,
        None => {
            x.stats().decode_misses += 1;
            let word = x.load(pc, 8)?;
            match Inst::decode(word) {
                Ok(i) => i,
                Err(_) => {
                    x.raise(ptid, ExceptionKind::BadInstruction, word)?;
                    return Ok(ifetch_cost + Cycles(1));
                }
            }
        }
    };
    // Privilege check (§3.2: privileged ops from user mode disable the
    // thread and write a descriptor, enabling emulation). The raw
    // encoding is the descriptor's info word.
    if inst.is_privileged() && x.th(h).arch.mode == Mode::User {
        let word = x.load(pc, 8)?;
        x.raise(ptid, ExceptionKind::PrivilegedOp, word)?;
        return Ok(ifetch_cost + Cycles(1));
    }

    let mut cost = ifetch_cost + Cycles(inst.base_cost());
    let t = x.th_mut(h);
    if let Some(next) = sblock::alu(inst, &mut t.arch.gprs, &mut t.touched, pc) {
        t.arch.pc = next;
        return Ok(cost);
    }
    let next_pc = if let Some((addr, len, op)) = mem_op(inst, &t.arch.gprs) {
        if !in_mem(addr, len, mem_bytes) {
            x.raise(ptid, ExceptionKind::BadMemory, addr)?;
            return Ok(cost);
        }
        let kind = match op {
            MemOp::Load(_) => AccessKind::Read,
            MemOp::Store(_) => AccessKind::Write,
        };
        cost += data_access(x, core, ptid, h, addr, kind)?;
        match op {
            MemOp::Load(d) => {
                let v = x.load(addr, len)?;
                x.th_mut(h).set_gpr(d, v);
            }
            MemOp::Store(v) => {
                x.write(addr, len, v)?;
                x.store_effects(addr, len)?;
            }
        }
        pc + 8
    } else if let Inst::Div { d, a, b } = inst {
        let (n, divisor) = (
            t.arch.gprs[a.0 as usize & 0xf],
            t.arch.gprs[b.0 as usize & 0xf],
        );
        if divisor == 0 {
            x.raise(ptid, ExceptionKind::DivZero, pc)?;
            return Ok(cost);
        }
        x.th_mut(h).set_gpr(d, n / divisor);
        pc + 8
    } else {
        match x.exec_system(core, ptid, inst, pc, &mut cost)? {
            Some(next) => next,
            None => return Ok(cost),
        }
    };
    x.th_mut(h).arch.pc = next_pc;
    Ok(cost)
}

impl ExecCtx for Machine {
    type Bail = Infallible;

    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }
    fn now(&self) -> Cycles {
        self.now
    }
    fn set_now(&mut self, t: Cycles) {
        self.now = t;
    }
    fn halted(&self) -> bool {
        self.halted.is_some()
    }
    fn superblocks(&self) -> bool {
        self.engine == Engine::Fast
    }
    fn core_mut(&mut self, core: usize) -> &mut CoreState {
        &mut self.cores[core]
    }
    fn th_index(&self, ptid: Ptid) -> usize {
        ptid.0 as usize
    }
    fn th(&self, h: usize) -> &Thread {
        &self.threads[h]
    }
    fn th_mut(&mut self, h: usize) -> &mut Thread {
        &mut self.threads[h]
    }
    #[inline]
    fn pick(&mut self, core: usize, now: Cycles) -> Result<Ptid, Option<Cycles>> {
        let threads = &self.threads;
        pick_free(&mut self.cores[core].sched, now, |p| {
            threads[p.0 as usize].busy_until
        })
    }

    fn schedule_slot(&mut self, at: Cycles, core: usize, slot: usize) {
        let seq = self.events.issue_seq();
        self.cores[core].slots[slot] = Slot::Due(at, seq);
    }
    fn schedule_mark(&self) -> u64 {
        self.events.schedule_mark()
    }
    /// The device queue's head or another core's due slot.
    fn next_deadline(&mut self, core: usize) -> Option<Cycles> {
        let others = self.cores.iter().enumerate().filter(|&(c, _)| c != core);
        others
            .flat_map(|(_, cs)| cs.slots.iter().filter_map(|s| s.due()))
            .map(|(at, _)| at)
            .chain(self.events.peek_time())
            .min()
    }

    fn note_burst(&mut self, steps: u64, reg_block: u64, mem_block: u64) {
        let insts = 1 + steps + reg_block + mem_block;
        self.counters.bump(self.hot.sched_dispatches, insts);
        self.counters.bump(self.hot.inst_executed, insts);
        self.stats.note_burst(steps, reg_block, mem_block);
    }
    fn stats(&mut self) -> &mut EngineStats {
        &mut self.stats
    }
    fn note_activation(&mut self, from: usize) {
        self.counters.bump(self.hot.activate[from], 1);
    }
    fn note_wake(&mut self, sample: u64) {
        self.wake_latency.record(sample);
    }
    fn take_charge(&mut self) -> Cycles {
        std::mem::take(&mut self.pending_charge)
    }

    fn code(&self) -> &[CodeRange] {
        &self.code
    }
    fn code_hull(&self) -> (u64, u64) {
        (self.code_lo, self.code_hi)
    }
    /// Bumps the entry slot's heat; crossing [`SB_HOT`] forms the region
    /// once (or marks the slot [`SB_DEAD`] when no worthwhile region
    /// starts there).
    fn heat(&mut self, ri: usize, slot: usize, heat: u32) -> Option<u32> {
        let r = &mut self.code[ri];
        if heat + 1 < SB_HOT {
            r.sb[slot] = heat + 1;
            return None;
        }
        let Some(b) = sblock::form(r.base, &r.insts, slot) else {
            r.sb[slot] = SB_DEAD;
            return None;
        };
        let bi = r.alloc_block(b);
        r.sb[slot] = SB_FORMED | bi;
        self.stats.blocks_formed += 1;
        Some(bi)
    }
    fn probe(&mut self) -> &mut Option<Box<Probe>> {
        &mut self.probe
    }

    #[inline(always)]
    fn load(&self, addr: u64, len: u64) -> Result<u64, Infallible> {
        Ok(read_le(&self.mem[addr as usize..], len))
    }
    #[inline(always)]
    fn write(&mut self, addr: u64, len: u64, v: u64) -> Result<u64, Infallible> {
        let bytes = &mut self.mem[addr as usize..];
        let old = read_le(bytes, len);
        write_le(bytes, len, v);
        Ok(old)
    }
    fn store_effects(&mut self, addr: u64, len: u64) -> Result<(), Infallible> {
        self.after_store(addr, len, false);
        Ok(())
    }
    fn filter(&self) -> &dyn MonitorFilter {
        self.filter.as_ref()
    }
    fn mmio_addrs(&self) -> &[u64] {
        &self.mmio_addrs
    }

    fn cache_access(
        &mut self,
        core: usize,
        addr: PAddr,
        kind: AccessKind,
        part: PartitionId,
    ) -> Result<AccessResult, Infallible> {
        Ok(self.hier.access(self.now, core, addr, kind, part))
    }
    fn caches(&mut self, core: usize) -> &mut CoreCaches {
        self.hier.core_mut(core)
    }
    fn capture(&mut self) -> &mut Capture {
        self.prefetcher.capture_mut()
    }

    fn raise(&mut self, ptid: Ptid, kind: ExceptionKind, info: u64) -> Result<(), Infallible> {
        self.raise_exception(ptid, kind, info);
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn exec_system(
        &mut self,
        core: usize,
        ptid: Ptid,
        inst: Inst,
        pc: u64,
        cost: &mut Cycles,
    ) -> Result<Option<u64>, Infallible> {
        let next_pc = pc + 8;
        let gpr = |m: &Machine, r: Reg| m.threads[ptid.0 as usize].arch.gprs[r.0 as usize & 0xf];
        use Inst::*;
        Ok(match inst {
            Halt => {
                self.thread_mut(ptid).arch.pc = next_pc;
                self.disable_thread(ptid, ThreadState::Halted);
                None
            }
            Syscall { num } | VmCall { num } => {
                let sys = matches!(inst, Syscall { .. });
                let (kind, vector, same_thread, descriptor) = if sys {
                    let v = self.syscall_vector;
                    (
                        ExceptionKind::SyscallTrap,
                        v,
                        "syscall.same_thread",
                        "syscall.descriptor",
                    )
                } else {
                    let v = self.vm_vector;
                    (
                        ExceptionKind::VmExit,
                        v,
                        "vmexit.same_thread",
                        "vmexit.descriptor",
                    )
                };
                match self.cfg.trap {
                    TrapMode::SameThread {
                        syscall_cost,
                        vmexit_cost,
                    } => {
                        *cost += if sys { syscall_cost } else { vmexit_cost };
                        if vector == 0 {
                            self.raise_exception(ptid, kind, u64::from(num));
                            return Ok(None);
                        }
                        let t = self.thread_mut(ptid);
                        t.arch.gprs[14] = next_pc; // link
                        t.arch.gprs[11] = u64::from(num);
                        t.arch.mode = Mode::Supervisor;
                        self.counters.inc(same_thread);
                        Some(vector)
                    }
                    TrapMode::Descriptor => {
                        self.thread_mut(ptid).arch.pc = next_pc;
                        self.raise_exception(ptid, kind, u64::from(num));
                        self.counters.inc(descriptor);
                        None
                    }
                }
            }
            HCall { num } => {
                self.thread_mut(ptid).arch.pc = next_pc;
                if let Some(mut h) = self.hcalls.remove(&num) {
                    h(self, ThreadId { core, ptid });
                    self.hcalls.entry(num).or_insert(h);
                } else {
                    self.raise_exception(ptid, ExceptionKind::BadInstruction, u64::from(num));
                }
                // The handler may have blocked/redirected the thread; do
                // not overwrite its pc.
                None
            }
            Monitor { a } => {
                self.arm_monitor(ptid, gpr(self, a), cost);
                Some(next_pc)
            }
            MonitorA { addr } => {
                self.arm_monitor(ptid, addr, cost);
                Some(next_pc)
            }
            MWait => {
                let t = self.thread_mut(ptid);
                if t.monitor_triggered {
                    // A write raced in between monitor and mwait: fall
                    // through without blocking (x86 semantics).
                    t.monitor_triggered = false;
                    t.arch.pc = next_pc;
                    if std::mem::take(&mut t.monitor_armed) {
                        self.filter.disarm_all(WatchId(u64::from(ptid.0)));
                    }
                    self.counters.bump(self.hot.mwait_fallthrough, 1);
                    return Ok(None);
                }
                if !t.monitor_armed {
                    // mwait with nothing armed would sleep forever; treat
                    // as nop (x86 behaves as such with invalid monitor).
                    self.counters.bump(self.hot.mwait_unarmed, 1);
                    return Ok(Some(next_pc));
                }
                t.arch.pc = next_pc;
                t.park_epoch = t.park_epoch.wrapping_add(1);
                let epoch = t.park_epoch;
                let watchdog = t.watchdog;
                self.disable_thread(ptid, ThreadState::Waiting);
                self.counters.bump(self.hot.mwait_blocked, 1);
                if let Some(w) = watchdog {
                    let arg = (u64::from(ptid.0) << 32) | u64::from(epoch);
                    self.at_device(self.now + w, DeviceId::WATCHDOG, arg);
                }
                None
            }
            Start { .. } | StartI { .. } | Stop { .. } | StopI { .. } => {
                let (vtid, enable) = match inst {
                    Start { vt } => (Vtid(gpr(self, vt) as u16), true),
                    StartI { vtid } => (Vtid(vtid), true),
                    Stop { vt } => (Vtid(gpr(self, vt) as u16), false),
                    StopI { vtid } => (Vtid(vtid), false),
                    _ => unreachable!(),
                };
                match self.start_stop(core, ptid, vtid, enable) {
                    Ok(extra) => {
                        *cost += extra;
                        Some(next_pc)
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        None
                    }
                }
            }
            RPull { vt, local, remote } => {
                let vtid = Vtid(gpr(self, vt) as u16);
                match self.remote_reg(core, ptid, vtid, remote, None) {
                    Ok((value, extra)) => {
                        *cost += extra;
                        self.thread_mut(ptid).set_gpr(local, value);
                        Some(next_pc)
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        None
                    }
                }
            }
            RPush { vt, remote, local } => {
                let vtid = Vtid(gpr(self, vt) as u16);
                let value = gpr(self, local);
                match self.remote_reg(core, ptid, vtid, remote, Some(value)) {
                    Ok((_, extra)) => {
                        *cost += extra;
                        Some(next_pc)
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        None
                    }
                }
            }
            InvTid { vt } => {
                let vtid = Vtid(gpr(self, vt) as u16);
                let tdtr = self.threads[ptid.0 as usize].arch.tdtr;
                self.cores[core].tdt.invalidate(tdtr, vtid);
                Some(next_pc)
            }
            CsrR { d, csr } => {
                let t = self.thread_mut(ptid);
                let v = t.arch.read(RegSel::Ctrl(csr));
                t.set_gpr(d, v);
                Some(next_pc)
            }
            CsrW { csr, a } => {
                let v = gpr(self, a);
                let t = self.thread_mut(ptid);
                t.arch.write(RegSel::Ctrl(csr), v);
                t.touched |= 1 << 16;
                Some(next_pc)
            }
            _ => unreachable!("exec_inst runs ALU/branch, Div and memory instructions"),
        })
    }
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("cores", &self.cfg.cores)
            .field("threads", &self.threads.len())
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::{DeviceId, Engine, Machine, MachineConfig, MachineError};
    use std::cell::RefCell;
    use std::rc::Rc;
    use switchless_sim::time::Cycles;

    type Log = Rc<RefCell<Vec<(u64, u32)>>>;

    /// Registers a device that logs `(now, arg)`.
    fn logger(m: &mut Machine, log: &Log) -> DeviceId {
        let log = Rc::clone(log);
        m.register_device(move |m, _, id| log.borrow_mut().push((m.now().0, id as u32)))
    }

    #[test]
    fn callbacks_run_once_in_time_then_schedule_order() {
        let mut m = Machine::new(MachineConfig::small());
        let log: Log = Rc::default();
        let child = logger(&mut m, &log);
        let l = Rc::clone(&log);
        let root = m.register_device(move |m, _, root| {
            let root = root as u32;
            l.borrow_mut().push((m.now().0, root * 10));
            // A same-time child lands behind every earlier-scheduled
            // event at this cycle; a later one behind them all.
            let now = m.now();
            m.at_device(now + Cycles(5), child, u64::from(root * 10 + 2));
            m.at_device(now, child, u64::from(root * 10 + 1));
        });
        for r in 0..3 {
            m.at_device(Cycles(10), root, r);
        }
        m.at_device(Cycles(15), child, 99);
        m.run_for(Cycles(100));
        assert_eq!(
            *log.borrow(),
            [
                (10, 0),
                (10, 10),
                (10, 20),
                (10, 1),
                (10, 11),
                (10, 21),
                (15, 99),
                (15, 2),
                (15, 12),
                (15, 22),
            ]
        );
    }

    #[test]
    fn device_events_and_callbacks_share_one_schedule_order() {
        let mut m = Machine::new(MachineConfig::small());
        let log: Log = Rc::default();
        let a = logger(&mut m, &log);
        let b = logger(&mut m, &log);
        m.at_device(Cycles(20), a, 1);
        m.at_device(Cycles(20), b, 2);
        m.at_device(Cycles(10), b, 3);
        m.at_device(Cycles(20), a, 4);
        m.at_device(Cycles(20), b, 5);
        m.run_for(Cycles(100));
        assert_eq!(*log.borrow(), [(10, 3), (20, 1), (20, 2), (20, 4), (20, 5)]);
        assert_eq!(m.devices.len(), 3, "device 0 is the watchdog");
    }

    #[test]
    fn a_self_rescheduling_callback_reuses_one_slot() {
        let mut m = Machine::new(MachineConfig::small());
        let log: Log = Rc::default();
        let l = Rc::clone(&log);
        let tick = m.register_device(move |m, me, left| {
            l.borrow_mut().push((m.now().0, left as u32));
            if left > 0 {
                let at = m.now() + Cycles(7);
                m.at_device(at, me, left - 1);
            }
        });
        m.at_device(Cycles(0), tick, 1000);
        m.run_for(Cycles(10_000));
        let got = log.borrow();
        assert_eq!(got.len(), 1001, "every tick ran exactly once");
        assert!(got.iter().all(|&(t, left)| t == u64::from(1000 - left) * 7));
        assert_eq!(m.devices.len(), 2, "one table slot, reused by every tick");
        assert!(m.devices[1].is_some(), "the handler is back in its slot");
    }

    /// A `len`-word image at `base`.
    fn image(base: u64, len: usize) -> switchless_isa::Program {
        switchless_isa::assemble(&format!(".base {base:#x}\nentry:\n{}", "nop\n".repeat(len)))
            .expect("image assembles")
    }

    #[test]
    fn image_overlap_is_refused_below_and_above_loaded_images() {
        let mut m = Machine::new(MachineConfig::small());
        m.load_image(&image(0x30000, 4)).unwrap();
        // Loaded second, below the first.
        m.load_image(&image(0x10000, 4)).unwrap();
        for (base, len) in [
            (0x10008, 1),      // inside the lower image
            (0x0fff8, 2),      // straddles the lower image's start
            (0x10018, 2),      // straddles its end
            (0x2fff8, 2),      // straddles the upper image's start
            (0x0f000, 0x4000), // covers both
        ] {
            assert_eq!(
                m.load_image(&image(base, len)),
                Err(MachineError::ImageOverlap),
                "{base:#x}+{len}"
            );
        }
        // Touching either image is no overlap.
        m.load_image(&image(0x10020, 1)).unwrap();
        m.load_image(&image(0x2fff8, 1)).unwrap();
        let ranges: Vec<(u64, u64)> = m.code.iter().map(|r| (r.base, r.end)).collect();
        assert_eq!(
            ranges,
            [
                (0x10000, 0x10020),
                (0x10020, 0x10028),
                (0x2fff8, 0x30000),
                (0x30000, 0x30020)
            ]
        );
    }

    #[test]
    fn engine_parse_accepts_both_names() {
        assert_eq!(Engine::parse("reference"), Ok(Engine::Reference));
        assert_eq!(Engine::parse("fast"), Ok(Engine::Fast));
        assert_eq!(Engine::parse(" fast\n"), Ok(Engine::Fast));
        assert_eq!(Engine::default(), Engine::Fast);
    }

    #[test]
    fn engine_parse_rejects_everything_else() {
        for bad in ["", "0", "off", "maybe", "Fast", "ref"] {
            let err = Engine::parse(bad).unwrap_err();
            assert!(err.contains(Engine::ENV), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
