//! Discrete-event simulation substrate for the `switchless` project.
//!
//! This crate provides the foundations every other `switchless` crate builds
//! on:
//!
//! * [`time`] — a cycle-granular simulated clock ([`time::Cycles`]) and
//!   frequency conversions to wall-clock nanoseconds.
//! * [`event`] — a cancellable discrete-event queue ([`event::EventQueue`])
//!   with deterministic FIFO ordering among same-cycle events.
//! * [`rng`] — a small, fully deterministic xoshiro256\*\* random number
//!   generator ([`rng::Rng`]) so that every simulation is reproducible from
//!   a seed, independent of external crates.
//! * [`fault`] — seeded, deterministic fault-injection plans
//!   ([`fault::FaultPlan`]) that schedule device faults by component, kind
//!   and rate, with windowed bursts validated at construction
//!   ([`fault::FaultPlanError`]).
//! * [`chaos`] — seeded composed fault storms ([`chaos::ChaosPlan`]):
//!   generation, the `chaos-plan/v1` replay-artifact format, and an
//!   automatic shrinker ([`chaos::shrink`]) that reduces a failing plan to
//!   a minimal reproducer.
//! * [`invariant`] — machine-wide invariant-checking plumbing: violation
//!   reports and the descriptor-ring conservation [`invariant::Ledger`]
//!   device models account into.
//! * [`error`] — the structured [`error::SimError`] fault/recovery paths
//!   propagate instead of panicking.
//! * [`hash`] — a deterministic FxHash-style hasher ([`hash::FxHashMap`])
//!   replacing SipHash on hot-path maps keyed by trusted small integers
//!   and names.
//! * [`par`] — a dependency-free scoped-thread work pool
//!   ([`par::par_map`], [`par::for_each_ordered`]) whose results are
//!   collected in input order, so parallel runs are bit-identical to
//!   serial ones.
//! * [`stats`] — log-bucketed latency histograms with percentile queries
//!   and named counter registries.
//! * [`report`] — plain-text/CSV table rendering used by the experiment
//!   harness to regenerate the paper's tables and figures.
//! * [`trace`] — a bounded in-memory trace ring for debugging simulations.
//!
//! The event queue is deliberately *passive*: it orders and stores events
//! but does not own the dispatch loop. The machine model in
//! `switchless-core` owns its own loop, popping events and mutating the
//! world, which keeps borrow-checking simple and the control flow explicit.
//!
//! # Examples
//!
//! ```
//! use switchless_sim::event::EventQueue;
//! use switchless_sim::time::Cycles;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Tick,
//!     Tock,
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycles(10), Ev::Tock);
//! q.schedule(Cycles(5), Ev::Tick);
//! assert_eq!(q.pop().unwrap(), (Cycles(5), Ev::Tick));
//! assert_eq!(q.pop().unwrap(), (Cycles(10), Ev::Tock));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod event;
pub mod fault;
pub mod hash;
pub mod invariant;
pub mod par;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use chaos::ChaosPlan;
pub use error::SimError;
pub use event::EventQueue;
pub use fault::{FaultComponent, FaultKind, FaultPlan, FaultPlanError};
pub use invariant::{InvariantReport, Violation};
pub use rng::Rng;
pub use stats::{Counters, Histogram};
pub use time::{Cycles, Freq};
