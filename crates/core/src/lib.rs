//! The paper's primary contribution: **software-controlled hardware
//! threads** that eliminate (most) context switches.
//!
//! This crate implements §3 of *"A Case Against (Most) Context Switches"*
//! (HotOS '21) as an executable machine model:
//!
//! * A core supports a large, fixed number of **physical hardware
//!   threads** named by [`tid::Ptid`]s; instructions name **virtual thread
//!   ids** ([`tid::Vtid`]) translated through a per-thread **Thread
//!   Descriptor Table** ([`tdt`]) with explicit [`invtid`]-style
//!   invalidation and the 4-bit permission model of Table 1 ([`perm`]).
//! * Each ptid is [`tid::ThreadState::Runnable`], `Waiting` (parked in
//!   `mwait`), or `Disabled` — the **only** state change hardware performs
//!   on system calls, exceptions and external events is blocking and
//!   unblocking hardware threads.
//! * Exceptions do not vector into handlers: they **write an exception
//!   descriptor to memory and disable the faulting ptid** ([`exception`]);
//!   a handler thread `monitor`s the descriptor address. Faulting with no
//!   descriptor pointer installed halts the machine (the triple-fault
//!   analog of §3.2).
//! * Thread state lives in a **storage hierarchy** ([`store`]): a fast
//!   register-file tier (~20-cycle starts), L2/L3 fractions (10–50-cycle
//!   bulk transfers over 32-byte links) and DRAM spill, with the §4
//!   optimizations (dirty-register tracking, criticality placement,
//!   wake-prefetch) as switchable policies.
//! * Runnable ptids are multiplexed onto a small number of SMT pipeline
//!   slots by a **hardware scheduler** ([`sched`]) — fine-grain
//!   round-robin (processor sharing) or strict priorities.
//! * [`machine::Machine`] ties it together and executes real programs
//!   written in the `switchless-isa` instruction set, event-driven, with
//!   memory traffic charged through the `switchless-mem` hierarchy and
//!   every store filtered through the generalized monitor.
//!
//! [`invtid`]: switchless_isa::inst::Inst::InvTid

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exception;
pub mod machine;
pub mod perm;
mod sblock;
pub mod sched;
pub mod shard;
pub mod store;
pub mod tdt;
pub mod tid;

pub use machine::{
    DeviceId, Engine, EngineStats, Machine, MachineConfig, ThreadId, TraceRecord, Transition,
};
pub use perm::{Perms, TdtEntry};
pub use tid::{Ptid, ThreadState, Vtid};
