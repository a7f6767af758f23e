//! A discipline-parameterized multi-server queueing simulator.
//!
//! This is the harness behind the load-sweep experiments. Each *design*
//! from the paper maps to a parameterisation:
//!
//! | design | discipline | `dispatch_overhead` | `wakeup_overhead` |
//! |---|---|---|---|
//! | legacy interrupt + sched | `Rr{quantum≈1ms}` | context switch | IRQ entry + scheduler (+IPI) |
//! | polling dataplane (run-to-completion) | `Fcfs` | ~0 | ~0 (but burns the core) |
//! | hardware threads (§4 fine-grain RR ⇒ PS) | `Rr{quantum≈200cy}` | 0 (hardware multiplexing) | mwait wake (~tens of cycles) |
//!
//! The hardware-thread overheads are *calibrated from the machine model*
//! by the experiment harness, not invented here.

use std::collections::VecDeque;

use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;

/// Queueing discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Run to completion in arrival order.
    Fcfs,
    /// Preemptive round-robin with the given quantum. A small quantum
    /// approximates processor sharing.
    Rr {
        /// Maximum contiguous service per dispatch.
        quantum: Cycles,
    },
}

/// Simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Number of servers (cores / pipeline slots).
    pub servers: usize,
    /// Scheduling discipline.
    pub discipline: Discipline,
    /// One-time cost charged when a job first starts (the notification
    /// path: IRQ + scheduler for legacy, mwait wake for hardware
    /// threads).
    pub wakeup_overhead: Cycles,
    /// Cost charged on every (re)dispatch (software context switch for
    /// legacy threads; 0 for hardware multiplexing).
    pub dispatch_overhead: Cycles,
}

/// Results of one run.
#[derive(Clone, Debug)]
pub struct QueueResult {
    /// Sojourn (arrival → completion) times of post-warmup jobs.
    pub sojourn: Histogram,
    /// Jobs completed (including warmup jobs).
    pub completed: u64,
    /// Time the last job completed.
    pub makespan: Cycles,
    /// Total server-busy cycles (service + overheads).
    pub busy_cycles: u64,
}

struct Job {
    arrival: Cycles,
    remaining: Cycles,
    woken: bool,
}

/// A dispatched slice: it ends at `end` on `server`. `seq` numbers
/// dispatches in order, breaking ties between equal `end`s.
struct Slice {
    end: Cycles,
    seq: u64,
    server: usize,
    job: usize,
}

/// The simulator (stateless; see [`QueueSim::run`]).
pub struct QueueSim;

impl QueueSim {
    /// Runs `jobs` (`(arrival, service)` pairs, any order) to completion;
    /// jobs arriving before `warmup` are simulated but excluded from the
    /// sojourn histogram.
    ///
    /// Events are handled in time order. At equal times, arrivals come
    /// first, in job-index order, then slice ends in dispatch order.
    /// This is the order a general event queue gives when every arrival
    /// is scheduled up front and each slice end at its dispatch. So a
    /// stably sorted arrival list merged with the at most `servers`
    /// slices in flight needs no event queue.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or a quantum of zero is configured.
    #[must_use]
    pub fn run(cfg: &QueueConfig, jobs: &[(Cycles, Cycles)], warmup: Cycles) -> QueueResult {
        assert!(cfg.servers > 0, "need at least one server");
        if let Discipline::Rr { quantum } = cfg.discipline {
            assert!(quantum > Cycles::ZERO, "quantum must be positive");
        }
        let mut state: Vec<Job> = jobs
            .iter()
            .map(|&(arrival, service)| Job {
                arrival,
                remaining: service.max(Cycles(1)),
                woken: false,
            })
            .collect();
        // Stable: equal arrival times keep job-index order.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&i| state[i].arrival);
        let mut arrivals = arrivals.into_iter().peekable();

        let mut in_flight: Vec<Slice> = Vec::with_capacity(cfg.servers);
        let mut dispatched = 0u64;
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut free: Vec<usize> = (0..cfg.servers).rev().collect();
        let mut result = QueueResult {
            sojourn: Histogram::new(),
            completed: 0,
            makespan: Cycles::ZERO,
            busy_cycles: 0,
        };

        loop {
            // The earliest slice end; `(end, seq)` is unique.
            let next_end = in_flight
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.end, s.seq))
                .map(|(i, s)| (i, s.end));
            let arrival = arrivals
                .peek()
                .map(|&i| state[i].arrival)
                .filter(|&at| next_end.is_none_or(|(_, end)| at <= end));
            let now = if let Some(at) = arrival {
                ready.push_back(arrivals.next().expect("peeked"));
                at
            } else if let Some((i, end)) = next_end {
                let Slice { server, job, .. } = in_flight.swap_remove(i);
                free.push(server);
                let j = &state[job];
                if j.remaining == Cycles::ZERO {
                    result.completed += 1;
                    result.makespan = result.makespan.max(end);
                    if j.arrival >= warmup {
                        result.sojourn.record((end - j.arrival).0);
                    }
                } else {
                    ready.push_back(job);
                }
                end
            } else {
                break;
            };
            while let (Some(&job), true) = (ready.front(), !free.is_empty()) {
                ready.pop_front();
                let server = free.pop().expect("checked non-empty");
                let j = &mut state[job];
                let mut cost = cfg.dispatch_overhead;
                if !j.woken {
                    j.woken = true;
                    cost += cfg.wakeup_overhead;
                }
                let segment = match cfg.discipline {
                    Discipline::Fcfs => j.remaining,
                    Discipline::Rr { quantum } => j.remaining.min(quantum),
                };
                j.remaining -= segment;
                let total = cost + segment;
                result.busy_cycles += total.0;
                in_flight.push(Slice {
                    end: now + total,
                    seq: dispatched,
                    server,
                    job,
                });
                dispatched += 1;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::poisson_arrivals;
    use crate::dist::ServiceDist;
    use switchless_sim::rng::Rng;

    fn fcfs(servers: usize) -> QueueConfig {
        QueueConfig {
            servers,
            discipline: Discipline::Fcfs,
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        }
    }

    #[test]
    fn single_job_sojourn_is_service() {
        let r = QueueSim::run(&fcfs(1), &[(Cycles(10), Cycles(100))], Cycles::ZERO);
        assert_eq!(r.completed, 1);
        assert_eq!(r.sojourn.max(), 100);
        assert_eq!(r.makespan, Cycles(110));
    }

    #[test]
    fn fcfs_queueing_adds_wait() {
        let jobs = [(Cycles(0), Cycles(100)), (Cycles(0), Cycles(100))];
        let r = QueueSim::run(&fcfs(1), &jobs, Cycles::ZERO);
        // Second job waits 100 then serves 100.
        assert_eq!(r.sojourn.max(), 200);
        assert_eq!(r.sojourn.min(), 100);
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let jobs = [(Cycles(0), Cycles(100)), (Cycles(0), Cycles(100))];
        let r = QueueSim::run(&fcfs(2), &jobs, Cycles::ZERO);
        assert_eq!(r.sojourn.max(), 100);
        assert_eq!(r.makespan, Cycles(100));
        // Both servers busy for the whole makespan.
        assert_eq!(r.busy_cycles, 200);
    }

    #[test]
    fn wakeup_overhead_charged_once_dispatch_every_time() {
        let cfg = QueueConfig {
            servers: 1,
            discipline: Discipline::Rr {
                quantum: Cycles(50),
            },
            wakeup_overhead: Cycles(10),
            dispatch_overhead: Cycles(5),
        };
        // One 100-cycle job: 2 segments -> 10 + 2*5 + 100 = 120.
        let r = QueueSim::run(&cfg, &[(Cycles(0), Cycles(100))], Cycles::ZERO);
        assert_eq!(r.sojourn.max(), 120);
        assert_eq!(r.busy_cycles, 120);
    }

    #[test]
    fn rr_interleaves_long_jobs() {
        // Two 1000-cycle jobs under tiny-quantum RR finish almost
        // together (processor sharing): both ~2000. Under FCFS the first
        // finishes at 1000.
        let jobs = [(Cycles(0), Cycles(1000)), (Cycles(0), Cycles(1000))];
        let ps = QueueConfig {
            servers: 1,
            discipline: Discipline::Rr {
                quantum: Cycles(10),
            },
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        };
        let r_ps = QueueSim::run(&ps, &jobs, Cycles::ZERO);
        assert!(r_ps.sojourn.min() >= 1990, "PS: both finish ~2000");
        let r_fcfs = QueueSim::run(&fcfs(1), &jobs, Cycles::ZERO);
        assert_eq!(r_fcfs.sojourn.min(), 1000);
    }

    #[test]
    fn ps_beats_fcfs_p99_under_bimodal_load() {
        // The paper's §4 claim (via [46],[80]): PS + thread-per-request
        // is superior for high-variability service. Short requests under
        // FCFS get stuck behind long ones; under PS they slip through.
        let mut rng = Rng::seed_from(42);
        let dist = ServiceDist::Bimodal {
            p_short: 0.95,
            short: 1_000,
            long: 100_000,
        };
        let mean = dist.mean();
        let arrivals = poisson_arrivals(&mut rng, Cycles(0), mean / 0.7, 20_000);
        let jobs: Vec<(Cycles, Cycles)> = arrivals
            .into_iter()
            .map(|a| (a, dist.sample(&mut rng)))
            .collect();
        let warmup = jobs[2000].0;

        let r_fcfs = QueueSim::run(&fcfs(1), &jobs, warmup);
        let ps = QueueConfig {
            servers: 1,
            discipline: Discipline::Rr {
                quantum: Cycles(200),
            },
            wakeup_overhead: Cycles(50),
            dispatch_overhead: Cycles::ZERO,
        };
        let r_ps = QueueSim::run(&ps, &jobs, warmup);
        // p50 (a short request) must be far better under PS.
        assert!(
            r_ps.sojourn.p50() * 3 < r_fcfs.sojourn.p50(),
            "PS p50 {} vs FCFS p50 {}",
            r_ps.sojourn.p50(),
            r_fcfs.sojourn.p50()
        );
    }

    #[test]
    fn conservation_of_work() {
        let mut rng = Rng::seed_from(3);
        let jobs: Vec<(Cycles, Cycles)> = poisson_arrivals(&mut rng, Cycles(0), 500.0, 5_000)
            .into_iter()
            .map(|a| (a, Cycles(200)))
            .collect();
        let r = QueueSim::run(&fcfs(2), &jobs, Cycles::ZERO);
        assert_eq!(r.completed, 5_000);
        assert_eq!(r.busy_cycles, 5_000 * 200, "no overhead: busy == work");
    }

    #[test]
    fn all_jobs_complete_even_overloaded() {
        let jobs: Vec<(Cycles, Cycles)> = (0..100).map(|i| (Cycles(i), Cycles(10_000))).collect();
        let r = QueueSim::run(&fcfs(1), &jobs, Cycles::ZERO);
        assert_eq!(r.completed, 100);
        assert!(r.makespan >= Cycles(1_000_000));
    }

    #[test]
    fn warmup_excludes_early_jobs() {
        let jobs = [(Cycles(0), Cycles(10)), (Cycles(1_000), Cycles(10))];
        let r = QueueSim::run(&fcfs(1), &jobs, Cycles(500));
        assert_eq!(r.completed, 2);
        assert_eq!(r.sojourn.count(), 1);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        let cfg = QueueConfig {
            servers: 1,
            discipline: Discipline::Rr {
                quantum: Cycles::ZERO,
            },
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        };
        let _ = QueueSim::run(&cfg, &[(Cycles(0), Cycles(1))], Cycles::ZERO);
    }
}
