//! Experiment harness library: regenerates every table and figure in
//! EXPERIMENTS.md. The `experiments` binary is a thin wrapper around
//! [`run_cli`].
//!
//! ```text
//! experiments all [--quick] [--jobs N] [--out DIR]   # run everything
//! experiments f1 f7 [--quick]                        # run selected experiments
//! experiments f15 --machine-jobs 4                   # epoch-worker host threads
//! experiments list                                   # list experiment ids
//! experiments --soak 100 [--soak-seed S] [--quick]   # chaos soak, invariants on
//! experiments --replay storm.txt                     # re-execute a chaos artifact
//! ```
//!
//! Each experiment prints its table(s) and writes CSV files under
//! `results/` (or `--out DIR`).
//!
//! **Parallelism and determinism.** `--jobs N` (or `SWITCHLESS_JOBS`;
//! default: host parallelism) runs independent experiments — and the load
//! sweeps inside them — on a scoped worker pool. Output is captured per
//! experiment and flushed in registry order, and per-point RNG seeds are
//! derived from point *indices* (`switchless_sim::rng::mix_seed`), never
//! from which worker ran a point, so stdout tables and the `results/`
//! CSV tree are bit-identical for every `--jobs` value. A wall-clock
//! timing table is appended to the run log so speedups are measured, not
//! asserted; it is deliberately never written to `results/`.
//!
//! **Engines.** `SWITCHLESS_ENGINE=reference|fast` (default `fast`)
//! picks the host execution engine of every simulated machine
//! (`switchless_core::Engine`). `fast` runs superblocks and, on every
//! multi-core machine, the core-sharded epoch engine
//! (`switchless_core::shard`); `reference` is the plain serial loop the
//! fast engine is diffed against. `--machine-jobs N` sets how many host
//! threads run the epoch engine's per-core workers (default 1: inline).
//! The epoch engine is conservative: every epoch either commits
//! bit-identically to the serial loop or is discarded and replayed
//! serially, so simulated results — and therefore the CSV tree — are
//! bit-identical for either engine and every `--machine-jobs` value;
//! only wall-clock time changes. F15 is the only experiment that reads
//! `--machine-jobs`: F17 runs one-core machines with the invariant
//! checker enabled, which take the serial loop on either engine.

use std::path::PathBuf;

use switchless_core::Engine;
use switchless_sim::par;
use switchless_sim::report::{fnum, CsvSink, Table};

pub mod common;
pub mod f01_wakeup;
pub mod f02_io_throughput;
pub mod f04_syscalls;
pub mod f05_vmexits;
pub mod f06_microkernel;
pub mod f07_tail_latency;
pub mod f08_thread_state;
pub mod f09_priorities;
pub mod f10_cache;
pub mod f11_distributed;
pub mod f12_monitor_filter;
pub mod f13_store_ablation;
pub mod f14_security;
pub mod f15_multicore;
pub mod f16_fault_recovery;
pub mod f17_chaos_soak;
mod rpc_fleet;
pub mod t1_tdt;
pub mod t2_capacity;

/// Per-run settings threaded through every experiment.
#[derive(Clone, Copy, Debug)]
pub struct RunCtx {
    /// Shrink sample counts for a fast smoke run.
    pub quick: bool,
    /// Worker-thread budget for in-experiment parallelism (load sweeps).
    /// Results are bit-identical for any value; 1 means fully serial.
    pub jobs: usize,
    /// Worker-thread budget for the core-sharded machine engine (one
    /// worker per simulated core, see [`switchless_core::shard`]).
    /// Results are bit-identical for any value; 1 runs the workers
    /// inline. Only F15 reads it.
    pub machine_jobs: usize,
}

impl RunCtx {
    /// A serial context, the default for unit tests.
    #[must_use]
    pub fn serial(quick: bool) -> RunCtx {
        RunCtx {
            quick,
            jobs: 1,
            machine_jobs: 1,
        }
    }
}

/// One runnable experiment.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(ctx: &RunCtx) -> Vec<Table>,
}

pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "t1",
            title: "Table 1: TDT permission matrix, enforced",
            run: t1_tdt::run,
        },
        Experiment {
            id: "t2",
            title: "Table 2: thread-state storage arithmetic (paper s4)",
            run: t2_capacity::run,
        },
        Experiment {
            id: "f1",
            title: "F1: event wakeup latency - legacy IRQ path vs mwait",
            run: f01_wakeup::run,
        },
        Experiment {
            id: "f2",
            title: "F2/F3: I/O designs under load - throughput, latency, cores",
            run: f02_io_throughput::run,
        },
        Experiment {
            id: "f4",
            title: "F4: system-call cost by design",
            run: f04_syscalls::run,
        },
        Experiment {
            id: "f5",
            title: "F5: VM-exit handling by design",
            run: f05_vmexits::run,
        },
        Experiment {
            id: "f6",
            title: "F6: microkernel IPC round trips",
            run: f06_microkernel::run,
        },
        Experiment {
            id: "f7",
            title: "F7: tail latency vs load under service variability",
            run: f07_tail_latency::run,
        },
        Experiment {
            id: "f8",
            title: "F8: thread-start latency vs state residency",
            run: f08_thread_state::run,
        },
        Experiment {
            id: "f9",
            title: "F9: time-critical wakeups vs background threads",
            run: f09_priorities::run,
        },
        Experiment {
            id: "f10",
            title: "F10: cache interference vs thread count (partition/prefetch)",
            run: f10_cache::run,
        },
        Experiment {
            id: "f11",
            title: "F11: remote-latency hiding with blocking hardware threads",
            run: f11_distributed::run,
        },
        Experiment {
            id: "f12",
            title: "F12: monitor-filter designs (CAM vs hashed)",
            run: f12_monitor_filter::run,
        },
        Experiment {
            id: "f13",
            title: "F13: state-store policy ablation",
            run: f13_store_ablation::run,
        },
        Experiment {
            id: "f14",
            title: "F14: security-model costs and exception chains",
            run: f14_security::run,
        },
        Experiment {
            id: "f15",
            title: "F15: multi-core scaling and thread migration",
            run: f15_multicore::run,
        },
        Experiment {
            id: "f16",
            title: "F16: fault recovery - switchless supervisor vs legacy interrupts",
            run: f16_fault_recovery::run,
        },
        Experiment {
            id: "f17",
            title: "F17: chaos soak - composed fault storms with invariants checked",
            run: f17_chaos_soak::run,
        },
    ]
}

pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Parsed command line for [`run_cli`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cli {
    /// Shrink sample counts for a fast smoke run.
    pub quick: bool,
    /// Explicit `--jobs N`; `None` defers to `SWITCHLESS_JOBS`/host.
    pub jobs: Option<usize>,
    /// Explicit `--machine-jobs N`: host threads for the epoch engine's
    /// per-core workers; `None` means 1 (workers run inline). It never
    /// selects an engine (`SWITCHLESS_ENGINE` does).
    pub machine_jobs: Option<usize>,
    /// Explicit `--out DIR` for the CSV tree; `None` means `results/`.
    pub out: Option<PathBuf>,
    /// `--replay FILE`: re-execute a `chaos-plan/v1` artifact
    /// bit-identically instead of running experiments.
    pub replay: Option<PathBuf>,
    /// `--soak N`: run an N-plan chaos soak (invariants on, every plan
    /// replayed from its artifact) instead of running experiments.
    pub soak: Option<u64>,
    /// Base seed for `--soak` plans (`--soak-seed S`, default 1).
    pub soak_seed: u64,
    /// Experiment ids (or `all` / `list`) in the order given.
    pub selected: Vec<String>,
}

/// Parses harness arguments (everything after the binary name).
///
/// # Errors
///
/// Returns a human-readable message for an unknown flag or a malformed
/// flag value.
pub fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        soak_seed: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                Ok(v.to_owned())
            } else {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            }
        };
        if a == "--quick" {
            cli.quick = true;
        } else if a == "--jobs" || a.starts_with("--jobs=") {
            let v = flag_value("--jobs")?;
            let n: usize = v
                .parse()
                .map_err(|_| format!("--jobs expects a positive integer, got {v:?}"))?;
            if n == 0 {
                return Err("--jobs must be at least 1".to_owned());
            }
            cli.jobs = Some(n);
        } else if a == "--machine-jobs" || a.starts_with("--machine-jobs=") {
            let v = flag_value("--machine-jobs")?;
            let n: usize = v
                .parse()
                .map_err(|_| format!("--machine-jobs expects a positive integer, got {v:?}"))?;
            if n == 0 {
                return Err("--machine-jobs must be at least 1".to_owned());
            }
            cli.machine_jobs = Some(n);
        } else if a == "--out" || a.starts_with("--out=") {
            cli.out = Some(PathBuf::from(flag_value("--out")?));
        } else if a == "--replay" || a.starts_with("--replay=") {
            cli.replay = Some(PathBuf::from(flag_value("--replay")?));
        } else if a == "--soak" || a.starts_with("--soak=") {
            let v = flag_value("--soak")?;
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--soak expects a plan count, got {v:?}"))?;
            if n == 0 {
                return Err("--soak must run at least one plan".to_owned());
            }
            cli.soak = Some(n);
        } else if a == "--soak-seed" || a.starts_with("--soak-seed=") {
            let v = flag_value("--soak-seed")?;
            cli.soak_seed = v
                .parse()
                .map_err(|_| format!("--soak-seed expects an integer, got {v:?}"))?;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a:?}"));
        } else {
            cli.selected.push(a.clone());
        }
    }
    Ok(cli)
}

/// Validates the environment variables the harness reads: the raw
/// `SWITCHLESS_JOBS` and `SWITCHLESS_ENGINE` values (`None` when unset).
/// Malformed values are errors, never a silent default.
///
/// # Errors
///
/// Returns the offending variable's parse error.
pub fn check_env(jobs: Option<&str>, engine: Option<&str>) -> Result<(), String> {
    if let Some(raw) = jobs {
        par::parse_jobs_env(raw)?;
    }
    if let Some(raw) = engine {
        Engine::parse(raw)?;
    }
    Ok(())
}

/// Entry point of the `experiments` binary.
///
/// Runs the selected experiments on up to `--jobs` worker threads while
/// keeping stdout and the CSV tree in registry order: each experiment's
/// tables are computed in a worker, then printed/written from the main
/// thread as soon as every earlier experiment has been flushed. CSV
/// writes go through one [`CsvSink`], so slug collisions are uniquified
/// deterministically. Ends with a per-experiment wall-clock timing table
/// (stdout only, never a CSV — timings are volatile by nature).
///
/// Exits 2 on a malformed flag or environment variable, and 1 after the
/// timing table when any CSV write failed.
pub fn run_cli() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}; try `experiments list`");
            std::process::exit(2);
        }
    };
    let env = |name| std::env::var(name).ok();
    if let Err(msg) = check_env(env(par::JOBS_ENV).as_deref(), env(Engine::ENV).as_deref()) {
        eprintln!("{msg}");
        std::process::exit(2);
    }

    // Chaos modes short-circuit the experiment registry entirely.
    if let Some(path) = &cli.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("cannot read {}: {err}", path.display());
                std::process::exit(2);
            }
        };
        match f17_chaos_soak::replay_text(&text) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("replay failed: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(n) = cli.soak {
        let duration = switchless_sim::time::Cycles(if cli.quick { 1_500_000 } else { 6_000_000 });
        match f17_chaos_soak::soak(n, cli.soak_seed, duration, |line| println!("{line}")) {
            Ok(sum) => println!(
                "soak clean: {} plans, {} invariant checks, {} faults injected, \
                 {} pardons, every plan replayed bit-identically",
                sum.plans, sum.checks, sum.faults, sum.pardons
            ),
            Err(msg) => {
                eprintln!("soak failed: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    let registry = registry();
    if cli.selected.iter().any(|s| s == "list") {
        for e in &registry {
            println!("{:4}  {}", e.id, e.title);
        }
        return;
    }

    let run_all = cli.selected.is_empty() || cli.selected.iter().any(|s| s == "all");
    if !run_all {
        for s in &cli.selected {
            if !registry.iter().any(|e| e.id == *s) {
                eprintln!("unknown experiment id {s:?}; try `experiments list`");
                std::process::exit(2);
            }
        }
    }
    let to_run: Vec<&Experiment> = registry
        .iter()
        .filter(|e| run_all || cli.selected.iter().any(|s| s == e.id))
        .collect();

    let jobs = par::resolve_jobs(cli.jobs);
    let ctx = RunCtx {
        quick: cli.quick,
        jobs,
        machine_jobs: cli.machine_jobs.unwrap_or(1),
    };
    let dir = cli.out.clone().unwrap_or_else(results_dir);
    let mut sink = CsvSink::new(&dir);
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    let mut csv_failures = 0usize;
    let wall0 = std::time::Instant::now();

    par::for_each_ordered(
        jobs,
        &to_run,
        |_, e| {
            let t0 = std::time::Instant::now();
            let tables = (e.run)(&ctx);
            (tables, t0.elapsed().as_secs_f64())
        },
        |i, (tables, secs)| {
            let e = to_run[i];
            println!("\n##### {} #####", e.title);
            for table in &tables {
                print!("{}", table.render());
                match sink.write(table) {
                    Ok(path) => println!("  csv: {}", path.display()),
                    Err(err) => {
                        eprintln!("  csv write failed: {err}");
                        csv_failures += 1;
                    }
                }
            }
            println!("  ({secs:.1}s)");
            timings.push((e.id, secs));
        },
    );

    let wall = wall0.elapsed().as_secs_f64();
    let mut t = Table::new(
        "Run timing: wall-clock per experiment",
        &["experiment", "wall (s)"],
    );
    for (id, secs) in &timings {
        t.row_owned(vec![(*id).to_owned(), fnum(*secs)]);
    }
    let serial_sum: f64 = timings.iter().map(|(_, s)| s).sum();
    t.row_owned(vec!["sum of experiments".to_owned(), fnum(serial_sum)]);
    t.row_owned(vec!["whole run (wall)".to_owned(), fnum(wall)]);
    t.caption(&format!(
        "--jobs {jobs}; the gap between the sum and the wall line is the \
         measured parallel speedup (not written to results/: timings are \
         volatile, the CSV tree stays bit-identical across runs)"
    ));
    println!();
    print!("{}", t.render());
    if csv_failures > 0 {
        eprintln!("{csv_failures} CSV write(s) failed under {}", dir.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_cli(&owned)
    }

    #[test]
    fn parse_cli_flags_and_ids() {
        let cli = parse(&["f1", "--quick", "f7", "--jobs", "4", "--out=/tmp/x"]).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(cli.selected, vec!["f1", "f7"]);
    }

    #[test]
    fn parse_cli_jobs_equals_form() {
        assert_eq!(parse(&["--jobs=9"]).unwrap().jobs, Some(9));
    }

    #[test]
    fn parse_cli_machine_jobs_both_forms() {
        assert_eq!(
            parse(&["--machine-jobs", "4"]).unwrap().machine_jobs,
            Some(4)
        );
        assert_eq!(parse(&["--machine-jobs=2"]).unwrap().machine_jobs, Some(2));
        assert_eq!(parse(&["f15"]).unwrap().machine_jobs, None);
    }

    #[test]
    fn parse_cli_rejects_bad_input() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "zero"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--machine-jobs"]).is_err());
        assert!(parse(&["--machine-jobs", "0"]).is_err());
        assert!(parse(&["--machine-jobs", "four"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn check_env_accepts_unset_and_valid_values() {
        assert_eq!(check_env(None, None), Ok(()));
        assert_eq!(check_env(Some("4"), Some("fast")), Ok(()));
        assert_eq!(check_env(Some("0"), Some("reference")), Ok(()));
    }

    #[test]
    fn check_env_rejects_malformed_values() {
        let err = check_env(Some("4x"), None).unwrap_err();
        assert!(err.contains(par::JOBS_ENV) && err.contains("4x"), "{err}");
        let err = check_env(None, Some("maybe")).unwrap_err();
        assert!(err.contains(Engine::ENV) && err.contains("maybe"), "{err}");
    }

    #[test]
    fn registry_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
    }
}
