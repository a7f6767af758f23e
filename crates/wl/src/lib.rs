//! Workload generation and queueing harnesses for the `switchless`
//! experiments.
//!
//! * [`dist`] — service-time distributions: fixed, exponential, bimodal
//!   and bounded-Pareto. Bimodal and heavy-tailed services are the
//!   regimes where the paper's processor-sharing claim (§4, citing
//!   Shinjuku `[46]` and RackSched `[80]`) separates the designs.
//! * [`arrivals`] — open-loop Poisson arrival processes (the standard
//!   load model for µs-scale service studies).
//! * [`queue`] — a discipline-parameterized multi-server queueing
//!   simulator: FCFS, preemptive round-robin with arbitrary quantum and
//!   per-dispatch overhead, which degenerates to processor sharing for a
//!   small quantum and zero overhead. The experiment harness instantiates
//!   it with per-design cost parameters (legacy interrupt+scheduler path,
//!   polling dataplane, hardware-thread wakeup) that are calibrated
//!   against the machine model.
//! * [`sweep`] — one load-sweep point: offered load → job trace, warmup
//!   trimming, and the measured row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod dist;
pub mod queue;
pub mod sweep;

pub use arrivals::poisson_arrivals;
pub use dist::ServiceDist;
pub use queue::{Discipline, QueueConfig, QueueResult, QueueSim};
