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
//! elide event-queue round-trips whose outcome is forced.
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

use switchless_isa::arch::{ArchState, Mode, RegSel};
use switchless_isa::asm::Program;
use switchless_isa::inst::Inst;
use switchless_mem::addr::PAddr;
use switchless_mem::hierarchy::{AccessKind, Hierarchy, HierarchyConfig, HitLevel};
use switchless_mem::monitor::{CamFilter, HashFilter, MonitorFilter, WakeEvent, WatchId};
use switchless_mem::prefetch::WakePrefetcher;
use switchless_mem::tlb::{Tlb, TlbConfig};
use switchless_sim::error::SimError;
use switchless_sim::event::{EventQueue, EventToken};
use switchless_sim::fault::{FaultKind, FaultPlan};
use switchless_sim::hash::FxHashMap;
use switchless_sim::invariant::{InvariantReport, Ledger};
use switchless_sim::stats::{CounterId, Counters, Histogram};
use switchless_sim::time::{Cycles, Freq};
use switchless_sim::trace::TraceRing;

use crate::exception::{Descriptor, ExceptionKind};
use crate::perm::{Perms, TdtEntry};
use crate::sblock::{self, Superblock, SB_DEAD, SB_FORMED, SB_HOT};
use crate::sched::{HwScheduler, SchedPolicy};
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
    /// Clock frequency (for ns conversion in reports).
    pub freq: Freq,
    /// DMA writes install lines in L3 (DDIO-style) rather than
    /// invalidating them.
    pub dma_warms_l3: bool,
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
            freq: Freq::GHZ3,
            dma_warms_l3: true,
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
#[derive(Clone)]
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
    /// Bumped on every `mwait` park so a stale watchdog callback from an
    /// earlier park never fires on a later one.
    pub(crate) park_epoch: u64,
    /// Quarantined threads refuse every wake until restarted.
    pub(crate) quarantined: bool,
    /// First `start` pc; `restart_thread` resets the thread here.
    pub(crate) restart_pc: Option<u64>,
    /// When the thread was last disabled by an exception (recovery-latency
    /// measurement); cleared on wake.
    pub(crate) disabled_at: Option<Cycles>,
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
        }
    }

    pub(crate) fn state_bytes(&self) -> u64 {
        if self.vector_state {
            ArchState::vector_state_bytes()
        } else {
            ArchState::base_state_bytes()
        }
    }

    pub(crate) fn dirty_bytes(&self) -> u64 {
        // pc + mode word always move; plus 8 bytes per touched GPR.
        let gprs = u64::from((self.touched & 0xffff).count_ones());
        (16 + gprs * 8).min(self.state_bytes())
    }
}

#[derive(Clone)]
pub(crate) struct CoreState {
    pub(crate) sched: HwScheduler,
    pub(crate) store: StateStore,
    pub(crate) tdt: TdtCache,
    pub(crate) idle_slot: Vec<bool>,
    pub(crate) next_unused: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ev {
    // u32 fields keep the event (and thus every queue entry) small:
    // events are copied through the scheduler's wheel on every simulated
    // instruction.
    SlotFree { core: u32, slot: u32 },
    Call(u64),
}

/// Upper bound on instructions executed inline per dispatch (the burst
/// engine, DESIGN.md §8). Purely a host-side amortisation knob: every
/// continuation is already gated on the event-queue deadline and the
/// scheduler, so the cap never changes simulated behavior — it only
/// bounds how much work one `SlotFree` event can do before re-entering
/// the queue.
pub(crate) const MAX_BURST: u64 = 1024;

/// Which host execution engine runs the simulation (DESIGN.md §9, §10).
/// Both produce bit-identical simulated state, so this is purely a
/// wall-clock switch; `Reference` is the oracle `Fast` is diffed against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The serial event loop: instruction bursts single-step every
    /// instruction, with no superblocks and no epochs.
    Reference,
    /// Superblocks (register and memory-inclusive) inside bursts, and,
    /// on a multi-core machine with the invariant checker off, the
    /// core-sharded epoch engine at every `machine_jobs` value.
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

type HostCall = Box<dyn FnMut(&mut Machine, ThreadId)>;
type MmioHook = Box<dyn FnMut(&mut Machine, u64)>;
type HostEvent = Box<dyn FnOnce(&mut Machine)>;
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
/// dispatched instruction or store — skips the per-call string hash.
pub(crate) struct HotCounters {
    pub(crate) inst_executed: CounterId,
    pub(crate) sched_dispatches: CounterId,
    pub(crate) store_external: CounterId,
    pub(crate) monitor_wakes: CounterId,
    pub(crate) monitor_false_wakes: CounterId,
    pub(crate) thread_wakes: CounterId,
    pub(crate) activate: [CounterId; 4],
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
    pub(crate) tlbs: Vec<Tlb>,
    pub(crate) filter: Box<dyn MonitorFilter>,
    pub(crate) prefetcher: WakePrefetcher,
    pub(crate) events: EventQueue<Ev>,
    callbacks: FxHashMap<u64, HostEvent>,
    next_cb: u64,
    hcalls: FxHashMap<u16, HostCall>,
    /// Device doorbells: store hooks keyed by exact 8-byte-aligned
    /// address; fired after the monitor filter on any covering store.
    pub(crate) mmio_hooks: FxHashMap<u64, MmioHook>,
    pub(crate) counters: Counters,
    pub(crate) hot: HotCounters,
    trace: TraceRing,
    pub(crate) halted: Option<String>,
    /// Host allocator: grows down from the top of memory.
    alloc_top: u64,
    loaded: Vec<(u64, u64)>,
    /// Decoded-instruction cache, one entry per loaded image.
    pub(crate) code: Vec<CodeRange>,
    /// Cheap store-time reject bounds: min base / max end over `code`.
    pub(crate) code_lo: u64,
    pub(crate) code_hi: u64,
    /// Index into `code` of the range that served the last fetch.
    last_code: usize,
    /// Reusable buffers for `after_store` (taken/restored around the
    /// loop bodies so reentrant stores fall back to a fresh `Vec`).
    scratch_wakes: Vec<WakeEvent>,
    scratch_mmio: Vec<u64>,
    syscall_vector: u64,
    vm_vector: u64,
    /// Extra cost injected by hcall handlers for the current instruction.
    pending_charge: Cycles,
    /// Sibling-slot events lifted out of the queue by an in-progress
    /// burst (see `dispatch`); always drained back before it returns.
    burst_stash: Vec<(Cycles, EventToken, Ev)>,
    /// Wake-to-first-dispatch latency histogram (cycles).
    pub(crate) wake_latency: Histogram,
    /// Most recent wake-latency sample, with the woken thread.
    pub(crate) last_wake: Option<(Ptid, u64)>,
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
    /// Host threads for the epoch engine's per-core workers; 1 runs
    /// them inline. Never selects an engine.
    pub(crate) machine_jobs: usize,
    /// Host-declared per-core private data windows `(base, len)` for the
    /// epoch engine ([`Machine::set_core_domain`]). A worker may execute
    /// loads/stores that land fully inside its own core's window; loads
    /// fully outside *every* window read the frozen epoch-start image.
    pub(crate) core_domains: Vec<Option<(u64, u64)>>,
    /// Adaptive epoch length for the sharded engine (host-side knob;
    /// never observable in simulated state).
    pub(crate) epoch_len: Cycles,
    /// Host-side statistics for the sharded engine.
    pub(crate) shard_stats: ShardStats,
    /// Host execution engine ([`Machine::set_engine`]).
    engine: Engine,
    /// Sorted MMIO hook addresses, maintained by [`Machine::register_mmio`].
    /// The superblock store probe binary-searches this instead of
    /// scanning the hook map, and the shard engine borrows it per epoch.
    pub(crate) mmio_addrs: Vec<u64>,
    /// Reusable scratch for the memory-inclusive superblock probe: the
    /// merged fetch+data line footprint (line, last-access position,
    /// written), the data-page footprint (page, last data-access index),
    /// the dedup-keep-last data-line order for the prefetcher, the
    /// store undo log (addr, old value, width), and the distinct store
    /// ranges already intersection-tested against the monitor filter.
    sbm_lines: Vec<(PAddr, u64, bool)>,
    sbm_pages: Vec<(u64, u64)>,
    sbm_plines: Vec<PAddr>,
    sbm_undo: Vec<(u64, u64, u8)>,
    sbm_stores: Vec<(u64, u64)>,
}

/// Host-side statistics for the core-sharded epoch engine. These live
/// outside [`Counters`] deliberately: they describe how the simulation
/// was *executed* (epochs attempted, bailed, committed), not what the
/// simulated machine did, so they must not leak into results files or
/// chaos digests that are compared across engines and `--machine-jobs`
/// settings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Epochs whose speculative execution was committed.
    pub committed: u64,
    /// Epochs discarded because a worker hit a non-core-local effect.
    pub bailed: u64,
    /// Epochs discarded at commit time over a cross-core time tie
    /// (equal-time survivors or wake samples); retried, not replayed.
    pub ties: u64,
    /// Epochs skipped because fewer than two cores had work staged.
    pub too_few: u64,
    /// Instructions executed inside committed epochs (parallel work).
    pub insts_parallel: u64,
    /// Events replayed serially (outside committed epochs).
    pub serial_events: u64,
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
                    idle_slot: vec![true; cfg.smt_slots],
                    next_unused: 0,
                })
                .collect(),
            hier: Hierarchy::new(cfg.cores, cfg.hierarchy),
            tlbs: (0..cfg.cores).map(|_| Tlb::new(cfg.tlb)).collect(),
            filter,
            prefetcher: WakePrefetcher::new(64),
            events: EventQueue::new(),
            callbacks: FxHashMap::default(),
            next_cb: 0,
            hcalls: FxHashMap::default(),
            mmio_hooks: FxHashMap::default(),
            counters,
            hot,
            trace: TraceRing::new(4096),
            halted: None,
            alloc_top: cfg.mem_bytes,
            loaded: Vec::new(),
            code: Vec::new(),
            code_lo: u64::MAX,
            code_hi: 0,
            last_code: 0,
            scratch_wakes: Vec::new(),
            scratch_mmio: Vec::new(),
            syscall_vector: 0,
            vm_vector: 0,
            pending_charge: Cycles::ZERO,
            burst_stash: Vec::new(),
            wake_latency: Histogram::new(),
            last_wake: None,
            fault_plan: None,
            invariants_on: false,
            invariant_checks: Vec::new(),
            invariant_report: InvariantReport::new(),
            exc_ledger: Ledger::default(),
            device_ledgers: Vec::new(),
            machine_jobs: 1,
            core_domains: vec![None; cfg.cores],
            epoch_len: Cycles(64),
            shard_stats: ShardStats::default(),
            engine: Engine::process_default(),
            mmio_addrs: Vec::new(),
            sbm_lines: Vec::new(),
            sbm_pages: Vec::new(),
            sbm_plines: Vec::new(),
            sbm_undo: Vec::new(),
            sbm_stores: Vec::new(),
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

    /// Sets how many host threads run the epoch engine's per-core
    /// workers (see `shard.rs`); `0` or `1` runs them inline on the
    /// calling thread. It never selects an engine ([`Machine::set_engine`]
    /// does), and the simulated outcome is bit-identical for every value,
    /// so this is purely a wall-clock knob.
    pub fn set_machine_jobs(&mut self, jobs: usize) {
        self.machine_jobs = jobs.max(1);
    }

    /// Host threads the epoch engine's workers may use.
    #[must_use]
    pub fn machine_jobs(&self) -> usize {
        self.machine_jobs
    }

    /// Selects the host execution engine. Defaults to [`Engine::ENV`]
    /// (`reference` or `fast`; [`Engine::Fast`] when unset). The
    /// simulated outcome is bit-identical for both, so this is purely a
    /// wall-clock switch.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
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
        for (c, d) in self.core_domains.iter().enumerate() {
            if let Some((b, l)) = *d {
                if c != core {
                    assert!(base >= b + l || b >= end, "domain overlaps core {c}");
                }
            }
        }
        self.core_domains[core] = Some((base, len));
    }

    /// Host-side statistics for the core-sharded epoch engine.
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        self.shard_stats
    }

    /// Wake-to-first-dispatch latency histogram (cycles).
    #[must_use]
    pub fn wake_latency(&self) -> &Histogram {
        &self.wake_latency
    }

    /// Clears the wake-latency histogram (end of warmup).
    pub fn reset_wake_latency(&mut self) {
        self.wake_latency.reset();
        self.last_wake = None;
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

    /// The most recent wake-latency sample: `(thread, cycles)`.
    #[must_use]
    pub fn last_wake_latency(&self) -> Option<(ThreadId, u64)> {
        self.last_wake.map(|(p, c)| {
            (
                ThreadId {
                    core: self.core_of(p),
                    ptid: p,
                },
                c,
            )
        })
    }

    /// The trace ring (enable for debugging/determinism tests).
    pub fn trace_mut(&mut self) -> &mut TraceRing {
        &mut self.trace
    }

    /// Read-only trace access.
    #[must_use]
    pub fn trace(&self) -> &TraceRing {
        &self.trace
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
            self.loaded
                .iter()
                .all(|&(b, e)| self.alloc_top >= e || b >= self.alloc_top),
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
        if self.loaded.iter().any(|&(b, e)| base < e && b < end) {
            return Err(MachineError::ImageOverlap);
        }
        for (i, &w) in prog.words.iter().enumerate() {
            let at = (base + (i as u64) * 8) as usize;
            self.mem[at..at + 8].copy_from_slice(&w.to_le_bytes());
        }
        self.loaded.push((base, end));
        self.code.push(CodeRange::new(
            base,
            end,
            prog.words.iter().map(|&w| Inst::decode(w).ok()).collect(),
        ));
        self.code_lo = self.code_lo.min(base);
        self.code_hi = self.code_hi.max(end);
        Ok(())
    }

    /// Cached decode of the word at `pc`, if `pc` is an aligned slot of a
    /// loaded image. `None` means "use the slow fetch-and-decode path"
    /// (unaligned pc, pc outside every image, or a non-decoding word).
    #[inline]
    fn cached_inst(&mut self, pc: u64) -> Option<Inst> {
        let hint = self.last_code;
        let idx = match self.code.get(hint) {
            Some(r) if r.base <= pc && pc < r.end => hint,
            _ => {
                let idx = self.code.iter().position(|r| r.base <= pc && pc < r.end)?;
                self.last_code = idx;
                idx
            }
        };
        let off = pc - self.code[idx].base;
        if off & 7 != 0 {
            return None;
        }
        self.code[idx].insts[(off >> 3) as usize]
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
    /// filter, and (per config) warms or invalidates the cached lines.
    pub fn dma_write(&mut self, addr: u64, bytes: &[u8]) {
        let a = addr as usize;
        assert!(a + bytes.len() <= self.mem.len(), "DMA outside memory");
        self.mem[a..a + bytes.len()].copy_from_slice(bytes);
        for line in switchless_mem::addr::lines_covering(PAddr(addr), bytes.len() as u64) {
            if self.cfg.dma_warms_l3 {
                // DDIO-style: the device deposits lines in L3; private
                // caches lose stale copies.
                self.hier.invalidate_line(line);
                self.hier.warm_l3_only(line);
            } else {
                self.hier.invalidate_line(line);
            }
        }
        self.counters.add("dma.bytes", bytes.len() as u64);
        self.after_store(addr, bytes.len() as u64, true);
    }

    /// Schedules a host callback at absolute time `at` (device models).
    pub fn at(&mut self, at: Cycles, f: impl FnOnce(&mut Machine) + 'static) {
        let key = self.next_cb;
        self.next_cb += 1;
        self.callbacks.insert(key, Box::new(f));
        self.events.schedule(at, Ev::Call(key));
    }

    /// Registers a device doorbell: `hook` runs after any store that
    /// covers `addr` (CPU, host, or DMA), receiving the stored word.
    /// This is how MMIO-triggered devices (NIC TX doorbells, SSD
    /// submission doorbells) react immediately to driver writes.
    pub fn register_mmio(&mut self, addr: u64, hook: impl FnMut(&mut Machine, u64) + 'static) {
        if self.mmio_hooks.insert(addr, Box::new(hook)).is_none() {
            let i = self.mmio_addrs.partition_point(|&a| a < addr);
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

    /// L3 lines currently owned by a partition.
    #[must_use]
    pub fn l3_occupancy(&self, part: switchless_mem::cache::PartitionId) -> u64 {
        self.hier.l3_occupancy(part)
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
    /// A firing bumps the kind's `fault.*` counter and leaves a trace
    /// record; the device expresses the failure through its normal
    /// completion protocol.
    pub fn fault_draw(&mut self, kind: FaultKind) -> bool {
        let now = self.now;
        let Some(plan) = self.fault_plan.as_mut() else {
            return false;
        };
        if !plan.draw(now, kind) {
            return false;
        }
        self.counters.inc(kind.counter_name());
        self.trace.record_with(now, "inject", || format!("{kind}"));
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
    /// drains — re-verifies the machine-wide invariants: event-queue time
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
        // Event-queue time monotonicity: nothing pending may be behind
        // the clock — a past-due event still in the queue would execute
        // at the wrong simulated time (or never).
        if let Some(t) = self.events.peek_time() {
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
        self.trace
            .record_with(self.now, "quarantine", || format!("{}", tid.ptid));
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
        self.trace
            .record_with(self.now, "restart", || format!("{}", tid.ptid));
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
        let (runnable, prio, cost) = {
            let t = self.thread_mut(ptid);
            t.home = new_core;
            t.activated = false;
            // Cross-core path: write back to L3 on the old side, read on
            // the new side — two L3-class bulk transfers.
            let bytes = t.state_bytes();
            let xfer = Cycles(2 * (l3_base + bytes.div_ceil(link)));
            t.busy_until = t.busy_until.max(now + xfer);
            (t.state == ThreadState::Runnable, t.arch.prio, xfer)
        };
        self.counters.inc("thread.migrations");
        self.trace.record_with(self.now, "migrate", || {
            format!("{ptid} core{old} -> core{new_core} ({cost})")
        });
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
    /// hardware TDT cache is *not* invalidated — run `invtid` or use
    /// [`Machine::invalidate_tdt`]).
    pub fn write_tdt_entry(&mut self, tdt_base: u64, vtid: Vtid, entry: TdtEntry) {
        self.poke_u64(tdt_base + u64::from(vtid.0) * 8, entry.encode());
    }

    /// Host-level `invtid` for a core's TDT cache.
    pub fn invalidate_tdt(&mut self, core: usize, tdt_base: u64, vtid: Vtid) {
        self.cores[core].tdt.invalidate(tdt_base, vtid);
    }

    // -----------------------------------------------------------------
    // Run loop
    // -----------------------------------------------------------------

    /// Runs until simulated time `t` (or the machine halts).
    ///
    /// On [`Engine::Fast`], a multi-core machine with the invariant
    /// checker off (it wants to observe every event boundary) runs the
    /// core-sharded epoch engine in `shard.rs`, at every
    /// [`Machine::set_machine_jobs`] value; it is bit-identical to the
    /// serial loop by construction. Single-core machines, checked runs
    /// and [`Engine::Reference`] take the serial loop.
    pub fn run_until(&mut self, t: Cycles) {
        if self.engine == Engine::Fast && self.cfg.cores > 1 && !self.invariants_on {
            self.run_until_sharded(t);
        } else {
            self.run_until_serial(t);
        }
    }

    /// The serial event loop (the reference engine).
    pub(crate) fn run_until_serial(&mut self, t: Cycles) {
        while self.halted.is_none() {
            // pop_due folds peek+pop into one heap traversal (hot loop).
            let Some((ts, ev)) = self.events.pop_due(t) else {
                break;
            };
            if ts > self.now {
                // Event-queue boundary: all work at `now` has settled.
                if self.invariants_on {
                    self.check_invariants();
                }
                self.now = ts;
            }
            match ev {
                Ev::SlotFree { core, slot } => self.dispatch(core as usize, slot as usize, t, None),
                Ev::Call(key) => {
                    if let Some(cb) = self.callbacks.remove(&key) {
                        cb(self);
                    }
                }
            }
        }
        if self.invariants_on {
            self.check_invariants();
        }
        if self.halted.is_none() && self.now < t {
            self.now = t;
        }
    }

    /// Pops and handles one event due at or before `pop_bound`, with
    /// dispatch horizon `horizon` (the run deadline). Returns whether an
    /// event was processed. Serial-replay primitive for the epoch engine;
    /// body identical to one `run_until_serial` iteration.
    pub(crate) fn step_one(&mut self, pop_bound: Cycles, horizon: Cycles) -> bool {
        if self.halted.is_some() {
            return false;
        }
        let Some((ts, ev)) = self.events.pop_due(pop_bound) else {
            return false;
        };
        if ts > self.now {
            if self.invariants_on {
                self.check_invariants();
            }
            self.now = ts;
        }
        match ev {
            Ev::SlotFree { core, slot } => {
                self.dispatch(core as usize, slot as usize, horizon, None);
            }
            Ev::Call(key) => {
                if let Some(cb) = self.callbacks.remove(&key) {
                    cb(self);
                }
            }
        }
        true
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
        while self.now <= deadline && self.halted.is_none() {
            if self.thread_state(tid) == state {
                return true;
            }
            let Some((ts, ev)) = self.events.pop_due(deadline) else {
                break;
            };
            if ts > self.now {
                if self.invariants_on {
                    self.check_invariants();
                }
                self.now = ts;
            }
            match ev {
                // The watch pair makes bursts bail the moment `tid`
                // reaches `state`, so `now` on return is exactly the
                // single-step value.
                Ev::SlotFree { core, slot } => self.dispatch(
                    core as usize,
                    slot as usize,
                    deadline,
                    Some((tid.ptid, state)),
                ),
                Ev::Call(key) => {
                    if let Some(cb) = self.callbacks.remove(&key) {
                        cb(self);
                    }
                }
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
                let bytes = if self.cfg.store.dirty_tracking {
                    t.dirty_bytes()
                } else {
                    t.state_bytes()
                };
                (bytes, t.arch.prio)
            };
            let tier = self.cores[core].store.tier_of(ptid);
            if tier != Tier::Rf {
                let (cost, from) = self.cores[core].store.activate(ptid, prio2, bytes);
                self.counters.inc(match from {
                    Tier::Rf => "store.activate.rf",
                    Tier::L2 => "store.activate.l2",
                    Tier::L3 => "store.activate.l3",
                    Tier::Dram => "store.activate.dram",
                });
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
        self.trace
            .record_with(self.now, "wake", || format!("{ptid} runnable"));
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
        self.trace
            .record_with(self.now, "block", || format!("{ptid} -> {into}"));
    }

    /// Re-kicks idle slots on a core after a wakeup.
    fn kick_core(&mut self, core: usize) {
        for slot in 0..self.cfg.smt_slots {
            if self.cores[core].idle_slot[slot] {
                self.cores[core].idle_slot[slot] = false;
                self.events.schedule(
                    self.now,
                    Ev::SlotFree {
                        core: core as u32,
                        slot: slot as u32,
                    },
                );
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
        self.trace.record_with(self.now, "fault", || {
            format!("{ptid} {kind} info={info:#x}")
        });
        if edp == 0 || edp + crate::exception::DESCRIPTOR_BYTES > self.cfg.mem_bytes {
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
            self.trace.record_with(self.now, "fault", || {
                format!("{ptid} {kind} descriptor dropped (slot busy)")
            });
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
        // Device doorbells: fire hooks whose address the store covered.
        if !self.mmio_hooks.is_empty() {
            let end = addr.saturating_add(len.max(1));
            let mut hit = core::mem::take(&mut self.scratch_mmio);
            hit.clear();
            hit.extend(
                self.mmio_hooks
                    .keys()
                    .copied()
                    .filter(|&a| a >= addr.saturating_sub(7) && a < end),
            );
            // Map iteration order is arbitrary; fire in address order so
            // multi-hook stores behave identically run to run.
            hit.sort_unstable();
            let mut i = 0;
            while i < hit.len() {
                let a = hit[i];
                i += 1;
                if let Some(mut h) = self.mmio_hooks.remove(&a) {
                    let value = self.peek_u64(a);
                    h(self, value);
                    self.mmio_hooks.entry(a).or_insert(h);
                }
            }
            self.scratch_mmio = hit;
        }
    }

    /// Data access from a thread on `core`; returns latency or a fault.
    fn data_access(
        &mut self,
        core: usize,
        ptid: Ptid,
        addr: u64,
        len: u64,
        kind: AccessKind,
    ) -> Result<Cycles, ExceptionKind> {
        if addr.checked_add(len).is_none() || addr + len > self.cfg.mem_bytes {
            return Err(ExceptionKind::BadMemory);
        }
        let tlb_cost = self.tlbs[core].access(0, addr / switchless_mem::addr::PAGE_BYTES);
        let part = self.threads[ptid.0 as usize].partition;
        let res = self.hier.access(self.now, core, PAddr(addr), kind, part);
        self.prefetcher
            .record_access(WatchId(u64::from(ptid.0)), PAddr(addr));
        Ok(tlb_cost + res.latency)
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
        let addr = tdtr + u64::from(vtid.0) * 8;
        if addr + 8 > self.cfg.mem_bytes {
            return Err(ExceptionKind::BadMemory);
        }
        let lat = self
            .data_access(core, caller, addr, 8, AccessKind::Read)
            .map_err(|_| ExceptionKind::BadMemory)?;
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
    // Internal: dispatch & instruction execution
    // -----------------------------------------------------------------

    /// Dispatches one pipeline slot: picks a thread, charges activation,
    /// and executes an instruction **burst** — up to [`MAX_BURST`]
    /// instructions inline, advancing a local cycle cursor, instead of
    /// one event-queue round-trip per instruction (see DESIGN.md §8).
    ///
    /// `horizon` is the run deadline: no instruction may dispatch after
    /// it (mirrors `pop_due`). `watch` is `run_until_state`'s target; a
    /// burst bails the moment it is reached so the caller observes the
    /// same `now` a single-step run would.
    fn dispatch(
        &mut self,
        core: usize,
        slot: usize,
        horizon: Cycles,
        watch: Option<(Ptid, ThreadState)>,
    ) {
        if self.halted.is_some() {
            return;
        }
        let now = self.now;
        // Split borrows: scheduler vs thread table.
        let picked = {
            let threads = &self.threads;
            self.cores[core]
                .sched
                .pick(|p| threads[p.0 as usize].busy_until > now)
        };
        let Some(ptid) = picked else {
            // Runnable threads may exist but be busy (state transfer or an
            // in-flight instruction on the other slot): retry when the
            // earliest becomes free. Otherwise idle until a wake re-kicks.
            let threads = &self.threads;
            let next = self.cores[core].sched.min_over_enrolled(|p| {
                let b = threads[p.0 as usize].busy_until;
                (b > now).then_some(b)
            });
            match next {
                Some(at) => {
                    self.events.schedule(
                        at,
                        Ev::SlotFree {
                            core: core as u32,
                            slot: slot as u32,
                        },
                    );
                }
                None => self.cores[core].idle_slot[slot] = true,
            }
            return;
        };
        self.counters.bump(self.hot.sched_dispatches, 1);

        // Activation cost: pipeline refill (plus state transfer when the
        // thread's state is not RF-resident and wasn't prefetched).
        let mut cost = Cycles::ZERO;
        let tier = self.cores[core].store.tier_of(ptid);
        let needs_activation = !self.threads[ptid.0 as usize].activated || tier != Tier::Rf;
        if needs_activation {
            let (bytes, prio) = {
                let t = &self.threads[ptid.0 as usize];
                let bytes = if self.cfg.store.dirty_tracking {
                    t.dirty_bytes()
                } else {
                    t.state_bytes()
                };
                (bytes, t.arch.prio)
            };
            let (act, from) = self.cores[core].store.activate(ptid, prio, bytes);
            self.counters.bump(self.hot.activate[from as usize], 1);
            cost += act;
            let t = self.thread_mut(ptid);
            t.activated = true;
            t.touched = 0;
        } else {
            self.cores[core].store.touch(ptid);
        }
        // Wake-to-execution latency: scheduler queueing (now - wake)
        // plus the state-activation / pipeline-refill time just charged
        // (`cost` holds exactly the activation portion at this point).
        if let Some(wake) = self.threads[ptid.0 as usize].wake_at.take() {
            let sample = (now - wake + cost).0;
            self.wake_latency.record(sample);
            self.last_wake = Some((ptid, sample));
            let ws = &mut self.threads[ptid.0 as usize].wake_stats;
            ws.0 += 1;
            ws.1 += sample;
            ws.2 = ws.2.max(sample);
        }

        // Execute the first instruction (the one this SlotFree paid for).
        self.pending_charge = Cycles::ZERO;
        cost += self.exec_inst(core, ptid);
        cost += self.pending_charge;
        self.pending_charge = Cycles::ZERO;
        cost = cost.max(Cycles(1));
        let mut done = now + cost;

        // Burst engine: while this thread is provably the next pick and
        // nothing else can observe machine state first, keep executing its
        // instructions inline. Continuation is decided *after* each
        // instruction's effects, so any cross-thread side effect (a wake
        // that enrols a second thread, a scheduled callback, an exception,
        // a halt) ends the burst exactly where single-stepping would have
        // re-arbitrated differently. `next_deadline` is cached and only
        // recomputed when something scheduled (schedules are the only way
        // the deadline can move earlier).
        let mut burst_cost = Cycles::ZERO;
        let mut extra: u64 = 0; // instructions beyond the first

        // Superblock entry gate (the heat hoist): a region entry is only
        // ever *reached* by a jump — straight-line continuation lands on
        // pc + 8. `seq_pc` tracks that fall-through continuation; while
        // the burst walks sequential code, the table lookup (and its
        // heat/formed bookkeeping) is skipped entirely, so single-step
        // dispatch of non-candidate code pays nothing per instruction.
        // `u64::MAX` means "provenance unknown — check": the first burst
        // iteration and every block exit.
        let mut seq_pc = u64::MAX;
        if watch.is_none_or(|(p, s)| self.threads[p.0 as usize].state != s) {
            let mut mark = self.events.schedule_mark();
            let mut qmin = self.events.next_deadline();
            'burst: while extra < MAX_BURST
                && done <= horizon
                && self.burst_eligible(core, ptid, done)
            {
                // Event-horizon gate: nothing due at or before `done` may
                // be skipped. One exception: a pending `SlotFree` for a
                // *sibling* slot of this core. With this thread
                // sole-runnable and busy through every burst cursor,
                // single-stepping that event is provably inert — its pick
                // always loses to this slot (our pending `SlotFree` at
                // any shared timestamp carries the earlier seq) and it
                // merely reschedules itself. It is lifted out of the
                // deadline computation via `pop_keyed` and restored
                // verbatim at burst exit; because the restore preserves
                // the original `(time, seq)` key, the run loop afterwards
                // pops it exactly where single-stepping would have, and
                // it re-enters real arbitration there.
                while let Some(t) = qmin {
                    if t > done {
                        break;
                    }
                    let consumable = matches!(
                        self.events.peek(),
                        Some((_, &Ev::SlotFree { core: c, slot: s }))
                            if c as usize == core && s as usize != slot
                    );
                    if !consumable {
                        break 'burst;
                    }
                    let Some(lifted) = self.events.pop_keyed() else {
                        unreachable!("peek/pop agree on the head event");
                    };
                    self.burst_stash.push(lifted);
                    qmin = self.events.next_deadline();
                }
                // Superblock fast path (DESIGN.md §10): a formed inert
                // region executes as one unit when its whole span
                // provably stays inside this burst's window. Inert
                // instructions cannot schedule events, change any thread
                // state, touch memory, or incur a pending charge, so the
                // per-instruction mark/watch/eligibility re-checks are
                // all constant across the block: the one check already
                // done at the loop head covers every interior cursor
                // (`busy_until <= done` stays true as `done` only
                // grows). Any failed precondition falls back to the
                // single-step path below — never a burst exit.
                if self.engine == Engine::Fast {
                    let pc = self.threads[ptid.0 as usize].arch.pc;
                    let via_jump = pc != seq_pc;
                    seq_pc = pc + 8;
                    if via_jump {
                        if let Some((ri, bi)) = self.sb_lookup(pc) {
                            let (bcost, last_cost, len) = {
                                let b = &self.code[ri].blocks[bi as usize];
                                // Dynamic block cost: base costs plus one
                                // L1 hit per data access. The block only
                                // executes when every fetch/data line is
                                // L1-resident and every data page is
                                // TLB-resident (a TLB hit adds zero), so
                                // the cost is static and `d_last` is
                                // known before any probing.
                                let l1 = self.cfg.hierarchy.lat_l1;
                                (
                                    b.cost + Cycles(b.mem_ops * l1.0),
                                    b.last_cost + if b.last_is_mem { l1 } else { Cycles::ZERO },
                                    b.insts.len() as u64,
                                )
                            };
                            // Dispatch time of the block's final
                            // instruction: the burst window must reach
                            // it, exactly as the loop head would have
                            // required step by step. `extra` may
                            // overshoot `MAX_BURST` by at most one block
                            // — the cap is a host-side amortisation knob
                            // and burst length is observably invisible,
                            // so a looser bound only moves where bursts
                            // split.
                            let d_last = done + bcost - last_cost;
                            if d_last <= horizon {
                                // Extend the sibling-lift gate through
                                // `d_last`: single-stepping the block
                                // would run this gate at every interior
                                // cursor. Over-lifting on a failed
                                // attempt is harmless — lifted events
                                // are restored under their original keys
                                // either way.
                                let mut clear = true;
                                while let Some(t) = qmin {
                                    if t > d_last {
                                        break;
                                    }
                                    let consumable = matches!(
                                        self.events.peek(),
                                        Some((_, &Ev::SlotFree { core: c, slot: s }))
                                            if c as usize == core && s as usize != slot
                                    );
                                    if !consumable {
                                        // Single-stepping would stop
                                        // partway into the region; do
                                        // that instead.
                                        clear = false;
                                        break;
                                    }
                                    let Some(lifted) = self.events.pop_keyed() else {
                                        unreachable!("peek/pop agree on the head event");
                                    };
                                    self.burst_stash.push(lifted);
                                    qmin = self.events.next_deadline();
                                }
                                if clear && self.exec_superblock(core, ri, bi as usize, ptid) {
                                    // Serial single-stepping leaves
                                    // `now` at the last dispatch cursor,
                                    // not at the completion time.
                                    self.now = d_last;
                                    done += bcost;
                                    burst_cost += bcost;
                                    extra += len;
                                    // A block exit is a fresh control
                                    // transfer: re-check at the next pc.
                                    seq_pc = u64::MAX;
                                    continue 'burst;
                                }
                            }
                        }
                    }
                }
                self.now = done;
                self.pending_charge = Cycles::ZERO;
                let mut c = self.exec_inst(core, ptid);
                c += self.pending_charge;
                self.pending_charge = Cycles::ZERO;
                c = c.max(Cycles(1));
                done += c;
                burst_cost += c;
                extra += 1;
                if self.events.schedule_mark() != mark {
                    mark = self.events.schedule_mark();
                    qmin = self.events.next_deadline();
                }
                if let Some((p, s)) = watch {
                    if self.threads[p.0 as usize].state == s {
                        break;
                    }
                }
            }
        }
        // Put lifted sibling events back under their original keys: the
        // queue is now exactly what single-stepping would have pending,
        // and the run loop re-arbitrates those slots for real.
        while let Some((at, tok, ev)) = self.burst_stash.pop() {
            self.events.restore(at, tok, ev);
        }

        // Batched bookkeeping: one account/bump per burst, totals exactly
        // equal to per-instruction accounting.
        self.cores[core].sched.account(ptid, cost);
        if extra > 0 {
            self.cores[core]
                .sched
                .account_burst(ptid, burst_cost, extra);
            self.counters.bump(self.hot.sched_dispatches, extra);
        }
        {
            let t = self.thread_mut(ptid);
            t.busy_until = t.busy_until.max(done);
        }
        self.counters.bump(self.hot.inst_executed, 1 + extra);
        self.events.schedule(
            done,
            Ev::SlotFree {
                core: core as u32,
                slot: slot as u32,
            },
        );
    }

    /// Whether the burst may execute one more instruction for `ptid`
    /// dispatching at time `done`. True only when the single-step machine
    /// would provably arrive at the identical pick with identical charges:
    /// the thread is still runnable on this core with RF-resident,
    /// already-activated state (no activation cost to charge), not made
    /// busy by anything, and it is the **sole** enrolled thread (so
    /// round-robin rotation is the identity and no fairness quantum can
    /// be violated). Everything an instruction's side effects can touch
    /// is re-read here, which makes the bailout effect-based — strictly
    /// stronger than a syntactic instruction blacklist.
    #[inline]
    fn burst_eligible(&self, core: usize, ptid: Ptid, done: Cycles) -> bool {
        if self.halted.is_some() {
            return false;
        }
        let t = &self.threads[ptid.0 as usize];
        t.state == ThreadState::Runnable
            && t.activated
            && t.home == core
            && t.busy_until <= done
            && self.cores[core].sched.sole_runnable() == Some(ptid)
            && self.cores[core].store.tier_of(ptid) == Tier::Rf
    }

    /// Superblock lookup at `pc`: the (code-range, block) indices of a
    /// formed, live superblock entered there. Misses bump the entry
    /// slot's heat counter; crossing [`SB_HOT`] forms the region once
    /// (or marks the slot [`SB_DEAD`] when no worthwhile region starts
    /// there). Formation is driven purely by observed execution heat —
    /// no static configuration (cf. "Switchless Calls Made Configless").
    #[inline]
    fn sb_lookup(&mut self, pc: u64) -> Option<(usize, u32)> {
        let hint = self.last_code;
        let idx = match self.code.get(hint) {
            Some(r) if r.base <= pc && pc < r.end => hint,
            _ => {
                let idx = self.code.iter().position(|r| r.base <= pc && pc < r.end)?;
                self.last_code = idx;
                idx
            }
        };
        let off = pc - self.code[idx].base;
        if off & 7 != 0 {
            return None;
        }
        let slot = (off >> 3) as usize;
        let r = &mut self.code[idx];
        match r.sb[slot] {
            SB_DEAD => None,
            s if s >= SB_FORMED => Some((idx, s & !SB_FORMED)),
            heat if heat + 1 >= SB_HOT => match sblock::form(r.base, &r.insts, slot) {
                Some(b) => {
                    let bi = r.alloc_block(b);
                    r.sb[slot] = SB_FORMED | bi;
                    Some((idx, bi))
                }
                None => {
                    r.sb[slot] = SB_DEAD;
                    None
                }
            },
            heat => {
                r.sb[slot] = heat + 1;
                None
            }
        }
    }

    /// Executes a formed superblock as one unit. Returns `false`
    /// (having mutated nothing) when any fetch line is not L1-resident;
    /// the caller single-steps instead, charging the miss exactly as
    /// always. On success the L1 metadata (LRU stamps, tick, hit
    /// counts) and the thread's registers, pc and dirty mask are
    /// precisely what single-stepping the block would have produced.
    fn exec_superblock(&mut self, core: usize, ri: usize, bi: usize, ptid: Ptid) -> bool {
        if self.code[ri].blocks[bi].mem_ops > 0 {
            return self.exec_superblock_mem(core, ri, bi, ptid);
        }
        let b = &self.code[ri].blocks[bi];
        if !self
            .hier
            .l1_access_run(core, &b.lines, b.insts.len() as u64)
        {
            return false;
        }
        let t = &mut self.threads[ptid.0 as usize];
        let entry = t.arch.pc;
        t.arch.pc = sblock::exec_regs(&b.insts, &mut t.arch.gprs, entry);
        t.touched |= b.touched;
        true
    }

    /// Executes a memory-inclusive superblock as one unit (DESIGN.md
    /// §10, "memory-inclusive regions"). The walk interprets the block
    /// on a scratch register file, applies stores to memory under an
    /// undo log (so later loads in the block see them), and *stages* the
    /// block's exact dynamic footprint: the merged fetch+data L1 line
    /// stream, the data-page TLB stream, and the dedup-keep-last data
    /// lines for the prefetcher. Any effect the batch cannot reproduce
    /// bails — reverse-replaying the undo log, mutating nothing — and
    /// the caller single-steps, which raises/charges/invalidates/wakes
    /// exactly as always:
    ///
    /// - an out-of-range address (single-step raises the precise fault);
    /// - a non-resident L1 line or TLB page (single-step charges the
    ///   miss and performs the fills);
    /// - a store overlapping the code hull — including the block's own
    ///   fetch lines (single-step runs `invalidate_code`, which kills
    ///   the block);
    /// - a store whose range intersects an armed monitor line
    ///   (`MonitorFilter::would_wake` — conservative, so no wakeup is
    ///   ever lost or delayed);
    /// - a store within MMIO-doorbell proximity of a registered hook.
    ///
    /// On success the commit applies one batched, provably per-access-
    /// equal update per structure: `Cache::access_run_mixed` for the L1,
    /// `Tlb::access_run` for the pages, `WakePrefetcher::record_run` for
    /// the data lines, and one `note_quiet_stores` bump for the filter's
    /// store statistics (the serial store path discards `on_store`'s
    /// cost, and a no-wake `on_store` has no other observable effect).
    #[allow(clippy::too_many_lines)]
    fn exec_superblock_mem(&mut self, core: usize, ri: usize, bi: usize, ptid: Ptid) -> bool {
        const PAGE_BYTES: u64 = switchless_mem::addr::PAGE_BYTES;
        let mem_bytes = self.cfg.mem_bytes;
        let (code_lo, code_hi) = (self.code_lo, self.code_hi);
        let b = &self.code[ri].blocks[bi];
        self.sbm_lines.clear();
        self.sbm_lines
            .extend(b.lines.iter().map(|&(l, at)| (l, at, false)));
        self.sbm_pages.clear();
        self.sbm_plines.clear();
        self.sbm_stores.clear();
        self.sbm_undo.clear();

        let mut gprs = self.threads[ptid.0 as usize].arch.gprs;
        let mut pc = self.threads[ptid.0 as usize].arch.pc;
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
        // One data access: bail checks (bounds, TLB, L1), then stage the
        // line/page/prefetch bookkeeping at the current stream position.
        // The serial path accesses exactly the line and page *containing*
        // the address, regardless of width — mirror that. Expands to a
        // bool (labels cannot cross macro hygiene, so callers break on
        // `ok` after the match).
        macro_rules! data_access {
            ($addr:expr, $len:expr, $write:expr) => {{
                let addr: u64 = $addr;
                if addr.checked_add($len).is_none()
                    || addr + $len > mem_bytes
                    || !self.tlbs[core].contains(0, addr / PAGE_BYTES)
                    || !self.hier.l1_contains(core, PAddr(addr).line())
                {
                    false
                } else {
                    let page = addr / PAGE_BYTES;
                    let line = PAddr(addr).line();
                    pos += 1;
                    data_idx += 1;
                    match self.sbm_lines.iter_mut().find(|e| e.0 == line) {
                        Some(e) => {
                            // A fetch access of this line may come later
                            // in the merged stream than this data access.
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
                    let a = addr as usize;
                    let v = if $len == 8 {
                        u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("8 bytes"))
                    } else {
                        u64::from(self.mem[a])
                    };
                    set_gpr!($d, v);
                } else {
                    ok = false;
                }
            }};
        }
        // A store additionally vets — once per distinct range, since a
        // block cannot load images, arm monitors, or register hooks
        // mid-flight — the decoded-code overlap (the hull compare
        // `after_store` uses is a pre-filter that over-approximates
        // when unrelated data sits between two images; only a real
        // range overlap must single-step through `invalidate_code`,
        // which covers self-modifying stores into the block's own fetch
        // lines), the aggregated monitor test (`would_wake`), and
        // MMIO-doorbell proximity.
        macro_rules! store {
            ($v:expr, $addr:expr, $len:expr) => {{
                let addr: u64 = $addr;
                if !data_access!(addr, $len, true) {
                    ok = false;
                } else {
                    if !self.sbm_stores.contains(&(addr, $len)) {
                        let hits_code = addr < code_hi
                            && addr + $len > code_lo
                            && self
                                .code
                                .iter()
                                .any(|r| addr < r.end && addr + $len > r.base);
                        let lo = addr.saturating_sub(7);
                        let i0 = self.mmio_addrs.partition_point(|&a| a < lo);
                        if hits_code
                            || self.filter.would_wake(PAddr(addr), $len)
                            || self.mmio_addrs.get(i0).is_some_and(|&a| a < addr + $len)
                        {
                            ok = false;
                        } else {
                            self.sbm_stores.push((addr, $len));
                        }
                    }
                    if ok {
                        n_stores += 1;
                        let a = addr as usize;
                        if $len == 8 {
                            let old =
                                u64::from_le_bytes(self.mem[a..a + 8].try_into().expect("8 bytes"));
                            self.sbm_undo.push((addr, old, 8));
                            self.mem[a..a + 8].copy_from_slice(&($v).to_le_bytes());
                        } else {
                            self.sbm_undo.push((addr, u64::from(self.mem[a]), 1));
                            self.mem[a] = (($v) & 0xff) as u8;
                        }
                    }
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
        // The commit's only fallible step is the L1 batch: the walk
        // verified every *data* line, but the static fetch lines are
        // checked (without mutation) inside `access_run_mixed` itself,
        // exactly as on the pure-block path.
        if !ok
            || !self
                .hier
                .l1_access_run_mixed(core, &self.sbm_lines, n_insts + mem_ops)
        {
            for &(addr, old, len) in self.sbm_undo.iter().rev() {
                let a = addr as usize;
                if len == 8 {
                    self.mem[a..a + 8].copy_from_slice(&old.to_le_bytes());
                } else {
                    self.mem[a] = old as u8;
                }
            }
            return false;
        }
        debug_assert!(data_idx == mem_ops, "every instruction executed");
        let tlb_ok = self.tlbs[core].access_run(0, &self.sbm_pages, mem_ops);
        debug_assert!(tlb_ok, "probe checked TLB residency for every page");
        self.prefetcher
            .record_run(WatchId(u64::from(ptid.0)), &self.sbm_plines);
        if n_stores > 0 {
            self.filter.note_quiet_stores(n_stores);
        }
        let t = &mut self.threads[ptid.0 as usize];
        t.arch.gprs = gprs;
        t.arch.pc = pc;
        t.touched |= touched;
        true
    }

    /// Executes one instruction for `ptid`; returns its cost. All state
    /// effects (including faults) happen here.
    #[allow(clippy::too_many_lines)]
    fn exec_inst(&mut self, core: usize, ptid: Ptid) -> Cycles {
        let pc = self.threads[ptid.0 as usize].arch.pc;
        // Instruction fetch.
        if pc + 8 > self.cfg.mem_bytes {
            self.raise_exception(ptid, ExceptionKind::BadMemory, pc);
            return Cycles(1);
        }
        let ifetch = self.hier.access(
            self.now,
            core,
            PAddr(pc),
            AccessKind::Read,
            switchless_mem::cache::PartitionId::DEFAULT,
        );
        // A pipelined frontend hides L1-hit fetch latency entirely.
        let ifetch_cost = if ifetch.level == HitLevel::L1 {
            Cycles::ZERO
        } else {
            ifetch.latency
        };
        // Decoded-instruction cache: loaded images are pre-decoded, so the
        // steady state skips both the byte fetch and `Inst::decode`. Pcs
        // outside every image (or unaligned, or over a non-decoding word)
        // fall back to fetch-and-decode, preserving the exception payload.
        let inst = match self.cached_inst(pc) {
            Some(i) => i,
            None => {
                let word = self.peek_u64(pc);
                match Inst::decode(word) {
                    Ok(i) => i,
                    Err(_) => {
                        self.raise_exception(ptid, ExceptionKind::BadInstruction, word);
                        return ifetch_cost + Cycles(1);
                    }
                }
            }
        };

        // Privilege check (§3.2: privileged ops from user mode disable the
        // thread and write a descriptor, enabling emulation).
        if inst.is_privileged() && self.threads[ptid.0 as usize].arch.mode == Mode::User {
            // Cold path: fetch the raw encoding for the descriptor's info
            // word (the cache only holds the decoded form).
            let word = self.peek_u64(pc);
            self.raise_exception(ptid, ExceptionKind::PrivilegedOp, word);
            return ifetch_cost + Cycles(1);
        }

        let mut cost = ifetch_cost + Cycles(inst.base_cost());
        let mut next_pc = pc + 8;

        macro_rules! gpr {
            ($r:expr) => {
                self.threads[ptid.0 as usize].arch.gprs[$r.0 as usize & 0xf]
            };
        }
        macro_rules! set_gpr {
            ($r:expr, $v:expr) => {{
                let v = $v;
                let t = &mut self.threads[ptid.0 as usize];
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
                    self.raise_exception(ptid, ExceptionKind::DivZero, pc);
                    return cost;
                }
                set_gpr!(d, gpr!(a) / divisor);
            }
            Addi { d, a, imm } => set_gpr!(d, gpr!(a).wrapping_add(imm as u64)),
            Movi { d, imm } => set_gpr!(d, imm as u64),
            Mov { d, a } => set_gpr!(d, gpr!(a)),
            Ld { d, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                match self.data_access(core, ptid, addr, 8, AccessKind::Read) {
                    Ok(lat) => {
                        cost += lat;
                        set_gpr!(d, self.peek_u64(addr));
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, addr);
                        return cost;
                    }
                }
            }
            LdA { d, addr } => match self.data_access(core, ptid, addr, 8, AccessKind::Read) {
                Ok(lat) => {
                    cost += lat;
                    set_gpr!(d, self.peek_u64(addr));
                }
                Err(k) => {
                    self.raise_exception(ptid, k, addr);
                    return cost;
                }
            },
            St { s, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                match self.data_access(core, ptid, addr, 8, AccessKind::Write) {
                    Ok(lat) => {
                        cost += lat;
                        let v = gpr!(s);
                        self.raw_write_u64(addr, v);
                        self.after_store(addr, 8, false);
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, addr);
                        return cost;
                    }
                }
            }
            StA { s, addr } => match self.data_access(core, ptid, addr, 8, AccessKind::Write) {
                Ok(lat) => {
                    cost += lat;
                    let v = gpr!(s);
                    self.raw_write_u64(addr, v);
                    self.after_store(addr, 8, false);
                }
                Err(k) => {
                    self.raise_exception(ptid, k, addr);
                    return cost;
                }
            },
            LdB { d, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                match self.data_access(core, ptid, addr, 1, AccessKind::Read) {
                    Ok(lat) => {
                        cost += lat;
                        set_gpr!(d, u64::from(self.mem[addr as usize]));
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, addr);
                        return cost;
                    }
                }
            }
            StB { s, a, off } => {
                let addr = gpr!(a).wrapping_add(off as u64);
                match self.data_access(core, ptid, addr, 1, AccessKind::Write) {
                    Ok(lat) => {
                        cost += lat;
                        let v = (gpr!(s) & 0xff) as u8;
                        self.mem[addr as usize] = v;
                        self.after_store(addr, 1, false);
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, addr);
                        return cost;
                    }
                }
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
            Halt => {
                self.thread_mut(ptid).arch.pc = next_pc;
                self.disable_thread(ptid, ThreadState::Halted);
                return cost;
            }
            Nop | Work { .. } | Fence => {}
            Syscall { num } => {
                match self.cfg.trap {
                    TrapMode::SameThread { syscall_cost, .. } => {
                        cost += syscall_cost;
                        if self.syscall_vector == 0 {
                            self.raise_exception(ptid, ExceptionKind::SyscallTrap, u64::from(num));
                            return cost;
                        }
                        let t = self.thread_mut(ptid);
                        t.arch.gprs[14] = pc + 8; // link
                        t.arch.gprs[11] = u64::from(num);
                        t.arch.mode = Mode::Supervisor;
                        next_pc = self.syscall_vector;
                        self.counters.inc("syscall.same_thread");
                    }
                    TrapMode::Descriptor => {
                        self.thread_mut(ptid).arch.pc = pc + 8;
                        self.raise_exception(ptid, ExceptionKind::SyscallTrap, u64::from(num));
                        self.counters.inc("syscall.descriptor");
                        return cost;
                    }
                }
            }
            VmCall { num } => match self.cfg.trap {
                TrapMode::SameThread { vmexit_cost, .. } => {
                    cost += vmexit_cost;
                    if self.vm_vector == 0 {
                        self.raise_exception(ptid, ExceptionKind::VmExit, u64::from(num));
                        return cost;
                    }
                    let t = self.thread_mut(ptid);
                    t.arch.gprs[14] = pc + 8;
                    t.arch.gprs[11] = u64::from(num);
                    t.arch.mode = Mode::Supervisor;
                    next_pc = self.vm_vector;
                    self.counters.inc("vmexit.same_thread");
                }
                TrapMode::Descriptor => {
                    self.thread_mut(ptid).arch.pc = pc + 8;
                    self.raise_exception(ptid, ExceptionKind::VmExit, u64::from(num));
                    self.counters.inc("vmexit.descriptor");
                    return cost;
                }
            },
            HCall { num } => {
                self.thread_mut(ptid).arch.pc = next_pc;
                if let Some(mut h) = self.hcalls.remove(&num) {
                    let tid = ThreadId { core, ptid };
                    h(self, tid);
                    self.hcalls.entry(num).or_insert(h);
                } else {
                    self.raise_exception(ptid, ExceptionKind::BadInstruction, u64::from(num));
                }
                // The handler may have blocked/redirected the thread; do
                // not overwrite pc below.
                return cost;
            }
            Monitor { a } => {
                let addr = gpr!(a);
                self.arm_monitor(ptid, addr, &mut cost);
            }
            MonitorA { addr } => {
                self.arm_monitor(ptid, addr, &mut cost);
            }
            MWait => {
                let t = self.thread_mut(ptid);
                if t.monitor_triggered {
                    // A write raced in between monitor and mwait: fall
                    // through without blocking (x86 semantics).
                    t.monitor_triggered = false;
                    t.arch.pc = next_pc;
                    let armed = t.monitor_armed;
                    t.monitor_armed = false;
                    if armed {
                        self.filter.disarm_all(WatchId(u64::from(ptid.0)));
                    }
                    self.counters.inc("mwait.fallthrough");
                    return cost;
                }
                if !t.monitor_armed {
                    // mwait with nothing armed would sleep forever; treat
                    // as nop (x86 behaves as such with invalid monitor).
                    self.counters.inc("mwait.unarmed");
                } else {
                    t.arch.pc = next_pc;
                    t.park_epoch = t.park_epoch.wrapping_add(1);
                    let epoch = t.park_epoch;
                    let watchdog = t.watchdog;
                    self.disable_thread(ptid, ThreadState::Waiting);
                    self.counters.inc("mwait.blocked");
                    if let Some(w) = watchdog {
                        let at = self.now + w;
                        // Watchdog: if this exact park outlives its
                        // deadline, the thread is wedged — disable it
                        // with a descriptor instead of letting it sleep
                        // forever. The epoch guard makes a timer from an
                        // earlier park harmless after a wake/re-park.
                        self.at(at, move |mach| {
                            let t = &mach.threads[ptid.0 as usize];
                            if t.state == ThreadState::Waiting && t.park_epoch == epoch {
                                mach.counters.inc("watchdog.fired");
                                mach.raise_exception(ptid, ExceptionKind::WatchdogExpired, at.0);
                            }
                        });
                    }
                    return cost;
                }
            }
            Start { .. } | StartI { .. } | Stop { .. } | StopI { .. } => {
                let (vtid, enable) = match inst {
                    Start { vt } => (Vtid(gpr!(vt) as u16), true),
                    StartI { vtid } => (Vtid(vtid), true),
                    Stop { vt } => (Vtid(gpr!(vt) as u16), false),
                    StopI { vtid } => (Vtid(vtid), false),
                    _ => unreachable!(),
                };
                match self.start_stop(core, ptid, vtid, enable) {
                    Ok(extra) => cost += extra,
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        return cost;
                    }
                }
            }
            RPull { vt, local, remote } => {
                let vtid = Vtid(gpr!(vt) as u16);
                match self.remote_reg(core, ptid, vtid, remote, None) {
                    Ok((value, extra)) => {
                        cost += extra;
                        set_gpr!(local, value);
                    }
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        return cost;
                    }
                }
            }
            RPush { vt, remote, local } => {
                let vtid = Vtid(gpr!(vt) as u16);
                let value = gpr!(local);
                match self.remote_reg(core, ptid, vtid, remote, Some(value)) {
                    Ok((_, extra)) => cost += extra,
                    Err(k) => {
                        self.raise_exception(ptid, k, u64::from(vtid.0));
                        return cost;
                    }
                }
            }
            InvTid { vt } => {
                let vtid = Vtid(gpr!(vt) as u16);
                let tdtr = self.threads[ptid.0 as usize].arch.tdtr;
                self.cores[core].tdt.invalidate(tdtr, vtid);
            }
            CsrR { d, csr } => {
                let v = self.threads[ptid.0 as usize].arch.read(RegSel::Ctrl(csr));
                set_gpr!(d, v);
            }
            CsrW { csr, a } => {
                let v = gpr!(a);
                let t = self.thread_mut(ptid);
                t.arch.write(RegSel::Ctrl(csr), v);
                t.touched |= 1 << 16;
            }
        }

        self.thread_mut(ptid).arch.pc = next_pc;
        cost
    }

    fn arm_monitor(&mut self, ptid: Ptid, addr: u64, cost: &mut Cycles) {
        if addr + 8 > self.cfg.mem_bytes {
            self.raise_exception(ptid, ExceptionKind::BadMemory, addr);
            return;
        }
        match self.filter.arm(WatchId(u64::from(ptid.0)), PAddr(addr), 8) {
            Ok(()) => {
                let t = self.thread_mut(ptid);
                t.monitor_armed = true;
                self.counters.inc("monitor.armed");
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
    use super::Engine;

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
