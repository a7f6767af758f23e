//! Differential test: [`QueueSim::run`] against the event-queue loop it
//! replaced, kept here as the reference.
//!
//! The reference schedules every arrival up front and each slice end at
//! its dispatch on a general [`EventQueue`], which pops equal times in
//! schedule order. The traces put arrivals and slice ends on a coarse
//! grid, so equal-time arrivals and arrival/completion ties are common.

use std::collections::VecDeque;

use switchless_sim::event::EventQueue;
use switchless_sim::rng::Rng;
use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;
use switchless_wl::arrivals::poisson_arrivals;
use switchless_wl::queue::{Discipline, QueueConfig, QueueResult, QueueSim};

enum Ev {
    Arrival(usize),
    Done { server: usize, job: usize },
}

fn reference(cfg: &QueueConfig, jobs: &[(Cycles, Cycles)], warmup: Cycles) -> QueueResult {
    struct Job {
        arrival: Cycles,
        remaining: Cycles,
        woken: bool,
    }
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut state: Vec<Job> = jobs
        .iter()
        .map(|&(arrival, service)| Job {
            arrival,
            remaining: service.max(Cycles(1)),
            woken: false,
        })
        .collect();
    for (i, j) in state.iter().enumerate() {
        q.schedule(j.arrival, Ev::Arrival(i));
    }
    let mut ready: VecDeque<usize> = VecDeque::new();
    let mut free: Vec<usize> = (0..cfg.servers).rev().collect();
    let mut result = QueueResult {
        sojourn: Histogram::new(),
        completed: 0,
        makespan: Cycles::ZERO,
        busy_cycles: 0,
    };
    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Arrival(job) => ready.push_back(job),
            Ev::Done { server, job } => {
                free.push(server);
                if state[job].remaining == Cycles::ZERO {
                    result.completed += 1;
                    result.makespan = result.makespan.max(now);
                    if state[job].arrival >= warmup {
                        result.sojourn.record((now - state[job].arrival).0);
                    }
                } else {
                    ready.push_back(job);
                }
            }
        }
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
            q.schedule(now + total, Ev::Done { server, job });
        }
    }
    result
}

/// `n` jobs in shuffled index order; arrival times and service times on
/// a grid of `grid` cycles (service 0 included: it runs as 1 cycle).
fn trace(rng: &mut Rng, n: usize, grid: u64) -> Vec<(Cycles, Cycles)> {
    let mut t = 0;
    let mut jobs: Vec<(Cycles, Cycles)> = (0..n)
        .map(|_| {
            // Bursts of equal-time arrivals: half the gaps are zero.
            t += grid * rng.next_below(4).saturating_sub(1);
            (Cycles(t), Cycles(grid * rng.next_below(12)))
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

fn assert_same(cfg: &QueueConfig, jobs: &[(Cycles, Cycles)], warmup: Cycles) {
    let want = reference(cfg, jobs, warmup);
    let got = QueueSim::run(cfg, jobs, warmup);
    let ctx = format!("{cfg:?} on {} jobs", jobs.len());
    assert_eq!(got.completed, want.completed, "completed: {ctx}");
    assert_eq!(got.makespan, want.makespan, "makespan: {ctx}");
    assert_eq!(got.busy_cycles, want.busy_cycles, "busy_cycles: {ctx}");
    assert_eq!(
        format!("{:?}", got.sojourn),
        format!("{:?}", want.sojourn),
        "sojourn: {ctx}"
    );
}

#[test]
fn matches_event_queue_reference_on_tied_traces() {
    let mut rng = Rng::seed_from(0x9e37);
    for round in 0..40u64 {
        let grid = [1, 25, 50][round as usize % 3];
        let n = 1 + rng.next_below(300) as usize;
        let jobs = trace(&mut rng, n, grid);
        let warmup = jobs[jobs.len() / 3].0;
        for servers in 1..=4 {
            for discipline in [
                Discipline::Fcfs,
                Discipline::Rr {
                    quantum: Cycles(grid),
                },
                Discipline::Rr {
                    quantum: Cycles(2 * grid + 25),
                },
            ] {
                for (wakeup, dispatch) in [(0, 0), (grid, 0), (0, grid), (2 * grid, grid / 2)] {
                    let cfg = QueueConfig {
                        servers,
                        discipline,
                        wakeup_overhead: Cycles(wakeup),
                        dispatch_overhead: Cycles(dispatch),
                    };
                    assert_same(&cfg, &jobs, warmup);
                }
            }
        }
    }
}

#[test]
fn matches_event_queue_reference_on_poisson_load() {
    let mut rng = Rng::seed_from(7);
    for servers in 1..=4 {
        let arrivals = poisson_arrivals(&mut rng, Cycles(0), 900.0 / servers as f64, 3_000);
        let jobs: Vec<(Cycles, Cycles)> = arrivals
            .into_iter()
            .map(|a| (a, Cycles(1 + rng.next_below(2_000))))
            .collect();
        for discipline in [
            Discipline::Fcfs,
            Discipline::Rr {
                quantum: Cycles(200),
            },
        ] {
            let cfg = QueueConfig {
                servers,
                discipline,
                wakeup_overhead: Cycles(150),
                dispatch_overhead: Cycles(40),
            };
            assert_same(&cfg, &jobs, jobs[300].0);
        }
    }
}

#[test]
fn empty_trace_matches() {
    let cfg = QueueConfig {
        servers: 2,
        discipline: Discipline::Fcfs,
        wakeup_overhead: Cycles(5),
        dispatch_overhead: Cycles(5),
    };
    assert_same(&cfg, &[], Cycles::ZERO);
}
