//! F17 — chaos soak: composed fault storms against the full switchless
//! stack, with the machine-wide invariant checker on.
//!
//! Each soaked plan is a seeded [`ChaosPlan`]: overlapping bursts across
//! all nine fault kinds (NIC drop/corrupt/stall, SSD spikes/errors/torn
//! completions, fabric loss/reorder, lost legacy interrupts) hitting a
//! machine that runs every device class at once — RPC clients parked in
//! `mwait` under watchdogs, a supervisor with a *finite* retry budget and
//! the quarantine→pardon fallback, NIC RX and SSD command pumps, and an
//! MSI-X bridge waking a parker. Invariant checks (descriptor-ring
//! conservation, thread-state legality, no-lost-wakeup, queue
//! monotonicity) run at every time advance and must stay silent.
//!
//! Every outcome is folded into a [`Digest`]; serializing the plan to its
//! `chaos-plan/v1` artifact, parsing it back, and re-running must
//! reproduce the digest bit-for-bit — that is the `--replay` contract.
//! A violating plan (none in a healthy tree) is auto-shrunk with
//! [`shrink`] to a minimal reproducer before being reported.

use switchless_core::machine::{Engine, Machine, MachineConfig};
use switchless_dev::msix::MsixBridge;
use switchless_dev::nic::{Nic, NicConfig};
use switchless_dev::ssd::{Ssd, SsdConfig, SsdOp};
use switchless_kern::ioengine::RetryPolicy;
use switchless_kern::nointr::Supervisor;
use switchless_sim::chaos::{shrink, ChaosConfig, ChaosPlan, Digest};
use switchless_sim::error::SimError;
use switchless_sim::fault::FaultKind;
use switchless_sim::report::{counters_table, fnum, Table};
use switchless_sim::stats::{Counters, Histogram};
use switchless_sim::time::Cycles;

use crate::rpc_fleet::{self, krps, pcts, run_legacy, BACKOFF};

/// Concurrent RPC client threads.
const CLIENTS: usize = 6;
/// Retry budget before quarantine — deliberately small so storms
/// exercise the quarantine→pardon fallback path.
const RETRIES: u32 = 3;
/// Cool-down before a quarantined ward is pardoned.
const PARDON: u64 = 90_000;
/// Background traffic periods (mutually coprime so the pumps drift
/// through every phase relationship with the storm windows).
const NIC_PERIOD: u64 = 4_001;
const SSD_PERIOD: u64 = 9_001;
const MSIX_PERIOD: u64 = 13_001;

/// Everything one storm run produces.
#[derive(Debug)]
pub struct StormOutcome {
    /// RPCs issued by the clients.
    pub issued: u64,
    /// RPCs completed end-to-end.
    pub goodput: u64,
    /// Total injected faults (sum of every `fault.*` counter).
    pub faults: u64,
    /// Watchdog-fire → client-running-again latencies.
    pub recovery: Histogram,
    /// Quarantined wards pardoned back to life.
    pub pardons: u64,
    /// Invariant checks run.
    pub checks: u64,
    /// Invariant violations recorded (0 in a healthy tree).
    pub violations: u64,
    /// First violation, for diagnostics.
    pub first_violation: Option<String>,
    /// Digest over counters, ledgers, clocks and histograms: two runs of
    /// the same plan are bit-identical iff their digests match.
    pub digest: u64,
    /// Full counter set, for the audit table.
    pub counters: Counters,
}

/// Schedules NIC RX arrivals every [`NIC_PERIOD`] cycles until `until`.
fn pump_nic(m: &mut Machine, nic: Nic, seq: u64, at: Cycles, until: Cycles) {
    if at.0 >= until.0 {
        return;
    }
    m.at(at, move |mach| {
        let payload = [(seq & 0xff) as u8; 32];
        nic.schedule_rx(mach, at, seq, &payload);
        pump_nic(mach, nic, seq + 1, at + Cycles(NIC_PERIOD), until);
    });
}

/// Submits alternating SSD reads and writes every [`SSD_PERIOD`] cycles.
fn pump_ssd(m: &mut Machine, ssd: Ssd, buf: u64, seq: u64, at: Cycles, until: Cycles) {
    if at.0 >= until.0 {
        return;
    }
    m.at(at, move |mach| {
        let op = if seq.is_multiple_of(2) {
            SsdOp::Read {
                buf_addr: buf,
                len: 64,
            }
        } else {
            SsdOp::Write
        };
        ssd.submit(mach, at, seq, op, seq);
        pump_ssd(mach, ssd, buf, seq + 1, at + Cycles(SSD_PERIOD), until);
    });
}

/// Raises a routed legacy interrupt every [`MSIX_PERIOD`] cycles.
fn pump_msix(m: &mut Machine, bridge: MsixBridge, at: Cycles, until: Cycles) {
    if at.0 >= until.0 {
        return;
    }
    m.at(at, move |mach| {
        bridge.raise(mach, 7);
        pump_msix(mach, bridge, at + Cycles(MSIX_PERIOD), until);
    });
}

/// A parker: sleeps on `watch`, counts fresh values in r3, re-parks.
fn parker_src(base: u64, watch: u64) -> String {
    format!(
        r#"
        .base {base:#x}
        entry:
            movi r1, 0
        wait:
            monitor {watch}
            ld r2, {watch}
            bne r2, r1, fresh
            mwait
            jmp wait
        fresh:
            addi r1, r2, 0
            addi r3, r3, 1
            jmp wait
        "#
    )
}

/// Runs one chaos plan on the full stack. `sabotage` registers a
/// deliberately broken invariant (test fixture for the shrinker): it
/// trips as soon as the fabric loses a single response.
///
/// # Errors
///
/// An invalid plan (degenerate window, out-of-range rate/device — e.g.
/// from a corrupted replay artifact or a hand-built plan) is a
/// structured [`SimError`], never a panic.
fn run_storm(plan: &ChaosPlan, sabotage: bool, engine: Engine) -> Result<StormOutcome, SimError> {
    let fault_plan = plan.to_fault_plan()?;
    let duration = plan.duration;
    let mut cfg = MachineConfig::small();
    cfg.ptids_per_core = CLIENTS + 8;
    let mut m = Machine::new(cfg);
    m.enable_invariants(true);
    // A one-core machine never runs epochs, so only superblocks differ
    // between engines; `digests_match_the_reference_engine` pins the
    // digests.
    m.set_engine(engine);
    if sabotage {
        m.register_invariant("fixture.fabric_never_loses", |m| {
            let n = m.counters().get("fault.fabric.loss");
            (n > 0).then(|| format!("{n} fabric losses observed"))
        });
    }
    m.install_fault_plan(fault_plan);

    let sup = Supervisor::install(
        &mut m,
        0,
        RetryPolicy {
            initial_backoff: Cycles(BACKOFF),
            max_backoff: Cycles(BACKOFF),
            max_retries: RETRIES,
        },
        0x40000,
    )
    .expect("supervisor installs");
    sup.pardon_after(Some(Cycles(PARDON)));

    // Background device traffic: NIC RX, SSD commands, MSI-X raises.
    let nic = Nic::try_attach(&mut m, NicConfig::default()).expect("nic attaches");
    let ssd = Ssd::try_attach(&mut m, SsdConfig::default()).expect("ssd attaches");
    let ssd_buf = m.alloc(64);
    let msix_word = m.alloc(8);
    let mut bridge = MsixBridge::new();
    bridge.route(7, msix_word);
    for (i, watch) in [nic.rx_tail, ssd.cq_tail, msix_word]
        .into_iter()
        .enumerate()
    {
        let prog = switchless_isa::asm::assemble(&parker_src(0x58000 + i as u64 * 0x1000, watch))
            .expect("parker template is valid");
        let tid = m.load_program(0, &prog).expect("parker loads");
        m.start_thread(tid);
    }
    pump_nic(&mut m, nic, 0, Cycles(NIC_PERIOD), duration);
    pump_ssd(&mut m, ssd, ssd_buf, 0, Cycles(SSD_PERIOD), duration);
    pump_msix(&mut m, bridge, Cycles(MSIX_PERIOD), duration);

    // RPC clients under watchdogs: the f16 fleet.
    let st = rpc_fleet::install(&mut m, &sup, CLIENTS);

    m.run_for(duration);
    m.check_invariants(); // force a final check of the end state

    let s = st.borrow();
    let recovery = sup.recovery_latency();
    let report = m.invariant_report().clone();
    let faults: u64 = m
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("fault."))
        .map(|(_, v)| v)
        .sum();

    // The run digest: every counter, every conservation ledger, the
    // final clock and the recovery histogram. Replaying a serialized
    // plan must land on exactly this value.
    let mut d = Digest::new();
    let mut all: Vec<(String, u64)> = m
        .counters()
        .iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    all.sort();
    for (k, v) in &all {
        d.push_str(k);
        d.push_u64(*v);
    }
    d.push_u64(m.now().0);
    d.push_u64(s.issued);
    d.push_u64(s.goodput);
    for name in ["nic.rx", "ssd.cq", "fabric.rpc", "msix"] {
        let l = *m.ledger(name);
        d.push_u64(l.posted);
        d.push_u64(l.completed);
        d.push_u64(l.in_flight);
        d.push_u64(l.dropped);
    }
    d.push_u64(recovery.count());
    d.push_u64(recovery.min());
    d.push_u64(recovery.p50());
    d.push_u64(recovery.p99());
    d.push_u64(recovery.max());

    Ok(StormOutcome {
        issued: s.issued,
        goodput: s.goodput,
        faults,
        recovery,
        pardons: m.counters().get("supervisor.pardoned"),
        checks: report.checks(),
        violations: report.total(),
        first_violation: report.violations().first().map(|v| v.to_string()),
        digest: d.finish(),
        counters: m.counters().clone(),
    })
}

/// Runs one chaos plan with invariants on (the soak/replay entry point).
///
/// # Errors
///
/// Returns a structured [`SimError`] for a plan that fails
/// [`ChaosPlan::to_fault_plan`] validation.
pub fn run_plan(plan: &ChaosPlan) -> Result<StormOutcome, SimError> {
    run_storm(plan, false, Engine::process_default())
}

/// The strongest active fabric-loss rate at time `t` under `plan`.
fn loss_rate_at(plan: &ChaosPlan, t: u64) -> f64 {
    plan.bursts
        .iter()
        .filter(|b| b.kind == FaultKind::FabricLoss && b.from.0 <= t && t < b.to.0)
        .map(|b| b.rate)
        .fold(0.0, f64::max)
}

/// Verifies the `--replay` contract for one plan: serialize with the
/// recorded digest, parse the artifact back, re-run, compare digests.
fn replay_round_trip(plan: &ChaosPlan, digest: u64) -> Result<(), String> {
    let mut stamped = plan.clone();
    stamped.digest = Some(digest);
    let parsed = ChaosPlan::parse(&stamped.to_text())
        .map_err(|e| format!("serialized plan failed to parse: {e}"))?;
    let rerun = run_plan(&parsed).map_err(|e| format!("replayed plan failed to run: {e}"))?;
    if rerun.digest != digest {
        return Err(format!(
            "replay digest {:016x} != recorded {:016x}",
            rerun.digest, digest
        ));
    }
    Ok(())
}

/// What a clean soak reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoakSummary {
    /// Plans executed (each also replayed from its artifact).
    pub plans: u64,
    /// Invariant checks run across all plans.
    pub checks: u64,
    /// Faults injected across all plans.
    pub faults: u64,
    /// Quarantined wards pardoned across all plans.
    pub pardons: u64,
}

/// Soaks `n` seeded chaos plans of `duration` cycles, invariants on,
/// replaying each from its serialized artifact.
///
/// # Errors
///
/// A violating plan is auto-shrunk to a minimal reproducer; the error
/// carries the shrunk `chaos-plan/v1` artifact so it can be saved and
/// handed to `--replay`. Replay digest mismatches also error.
pub fn soak(
    n: u64,
    base_seed: u64,
    duration: Cycles,
    mut progress: impl FnMut(&str),
) -> Result<SoakSummary, String> {
    let cfg = ChaosConfig::new(duration);
    let mut sum = SoakSummary::default();
    for i in 0..n {
        let seed = base_seed.wrapping_add(i);
        let plan = ChaosPlan::generate(seed, &cfg);
        let out = run_plan(&plan).map_err(|e| format!("plan seed={seed}: {e}"))?;
        if out.violations > 0 {
            let (min, stats) = shrink(&plan, |p| run_plan(p).is_ok_and(|o| o.violations > 0));
            let mut artifact = min.clone();
            artifact.digest = None;
            return Err(format!(
                "plan seed={seed} violated invariants ({}); shrunk to {} bursts \
                 in {} oracle calls — minimal reproducer:\n{}",
                out.first_violation.unwrap_or_default(),
                min.bursts.len(),
                stats.oracle_calls,
                artifact.to_text(),
            ));
        }
        replay_round_trip(&plan, out.digest).map_err(|e| format!("plan seed={seed}: {e}"))?;
        sum.plans += 1;
        sum.checks += out.checks;
        sum.faults += out.faults;
        sum.pardons += out.pardons;
        progress(&format!(
            "plan seed={seed} bursts={} faults={} goodput={} checks={} digest={:016x} replay=ok",
            plan.bursts.len(),
            out.faults,
            out.goodput,
            out.checks,
            out.digest
        ));
    }
    Ok(sum)
}

/// Replays a `chaos-plan/v1` artifact (the `--replay` CLI path).
///
/// # Errors
///
/// Returns a structured [`SimError`] — never panics — for a malformed or
/// corrupted artifact ([`SimError::Parse`] names the offending line and
/// field, [`SimError::FaultPlan`] the invalid burst), or a
/// [`SimError::Verdict`] for an invariant violation or — when the
/// artifact records a digest — a digest mismatch.
pub fn replay_text(text: &str) -> Result<String, SimError> {
    let plan = ChaosPlan::parse(text)?;
    let out = run_plan(&plan)?;
    let fail = |detail: String| SimError::Verdict {
        context: "chaos replay",
        detail,
    };
    if out.violations > 0 {
        return Err(fail(format!(
            "{} invariant violations; first: {}",
            out.violations,
            out.first_violation.unwrap_or_default()
        )));
    }
    let verdict = match plan.digest {
        Some(d) if d == out.digest => " digest=match",
        Some(d) => {
            return Err(fail(format!(
                "digest mismatch: run {:016x}, artifact {d:016x}",
                out.digest
            )))
        }
        None => "",
    };
    Ok(format!(
        "replayed seed={} bursts={} faults={} goodput={} checks={} violations=0 \
         digest={:016x}{verdict}",
        plan.seed,
        plan.bursts.len(),
        out.faults,
        out.goodput,
        out.checks,
        out.digest
    ))
}

/// Runs F17.
pub fn run(ctx: &crate::RunCtx) -> Vec<Table> {
    let quick = ctx.quick;
    let duration = Cycles(if quick { 4_000_000 } else { 12_000_000 });
    let seeds: u64 = if quick { 4 } else { 10 };
    let cfg = ChaosConfig::new(duration);

    let mut t_soak = Table::new(
        "F17: chaos soak - goodput and recovery under composed fault storms",
        &[
            "plan",
            "bursts",
            "faults",
            "sw goodput (kRPC/s)",
            "legacy goodput (kRPC/s)",
            "sw/legacy",
            "sw rec p50 (cy)",
            "sw rec p99 (cy)",
            "legacy rec p50 (cy)",
            "pardons",
            "violations",
        ],
    );
    let mut t_replay = Table::new(
        "F17b: replay fidelity - serialized plans re-execute bit-identically",
        &["plan", "checks", "digest", "replay"],
    );
    let mut stormiest: Option<(u64, Counters)> = None;
    for i in 0..seeds {
        let seed = 1700 + i;
        let plan = ChaosPlan::generate(seed, &cfg);
        let sw = run_plan(&plan).expect("generated chaos plans always validate");
        let lg = run_legacy(CLIENTS, plan.seed, plan.duration, |t| {
            loss_rate_at(&plan, t)
        });
        let (p50, p99) = pcts(&sw.recovery);
        let (lp50, _) = pcts(&lg.recovery);
        let swg = krps(sw.goodput, duration);
        let lgg = krps(lg.goodput, duration);
        t_soak.row_owned(vec![
            seed.to_string(),
            plan.bursts.len().to_string(),
            sw.faults.to_string(),
            fnum(swg),
            fnum(lgg),
            fnum(swg / lgg),
            p50,
            p99,
            lp50,
            sw.pardons.to_string(),
            sw.violations.to_string(),
        ]);
        let replay = match replay_round_trip(&plan, sw.digest) {
            Ok(()) => "bit-identical".to_owned(),
            Err(e) => e,
        };
        t_replay.row_owned(vec![
            seed.to_string(),
            sw.checks.to_string(),
            format!("{:016x}", sw.digest),
            replay,
        ]);
        if stormiest.as_ref().is_none_or(|(f, _)| sw.faults > *f) {
            stormiest = Some((sw.faults, sw.counters));
        }
    }
    t_soak.caption(
        "Seeded composed storms (all nine fault kinds, overlapping burst \
         windows) against the full stack: RPC clients under watchdogs, a \
         finite-retry supervisor with the quarantine->pardon fallback, \
         NIC/SSD/MSI-X background traffic. Machine-wide invariants \
         (descriptor-ring conservation, thread-state legality, \
         no-lost-wakeup, queue monotonicity) are checked at every time \
         advance: the violations column must read 0. Goodput holds near \
         the legacy-free ratio of F16 because recovery stays on the \
         watchdog path - storms cost legacy a ~100us timer tick per loss.",
    );
    t_replay.caption(
        "Each plan is serialized to its chaos-plan/v1 artifact (f64 rate \
         bits preserved exactly), parsed back, and re-run: the outcome \
         digest (all counters, ring ledgers, final clock, recovery \
         histogram) must match bit-for-bit. `experiments --replay FILE` \
         runs the same check on a saved artifact.",
    );
    let (_, counters) = stormiest.expect("at least one plan soaked");
    let audit = counters_table(
        "F17c: fault-injection audit (stormiest plan)",
        &counters,
        "fault.",
    );
    vec![t_soak, t_replay, audit]
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_sim::chaos::ChaosBurst;

    const TEST_DURATION: Cycles = Cycles(600_000);

    fn test_cfg() -> ChaosConfig {
        ChaosConfig::new(TEST_DURATION)
    }

    #[test]
    fn calm_plan_is_fault_free_and_deterministic() {
        let plan = ChaosPlan {
            seed: 3,
            duration: TEST_DURATION,
            devices: 1,
            bursts: Vec::new(),
            digest: None,
        };
        let a = run_plan(&plan).expect("calm plan runs");
        let b = run_plan(&plan).expect("calm plan runs");
        assert_eq!(a.faults, 0, "no bursts, no faults");
        assert_eq!(a.violations, 0);
        assert!(a.checks > 0, "invariants actually ran");
        assert!(a.goodput > 50, "clients actually ran: {}", a.goodput);
        assert_eq!(a.digest, b.digest, "same plan, same digest");
    }

    #[test]
    fn digests_match_the_reference_engine() {
        let plan = ChaosPlan::generate(23, &test_cfg());
        let reference =
            run_storm(&plan, false, Engine::Reference).expect("plan runs on the reference engine");
        let fast = run_storm(&plan, false, Engine::Fast).expect("plan runs on the fast engine");
        assert_eq!(
            reference.digest, fast.digest,
            "chaos digests must match the reference engine"
        );
        assert_eq!(reference.violations, fast.violations);
        assert_eq!(reference.goodput, fast.goodput);
    }

    #[test]
    fn soak_of_100_plans_is_violation_free_and_replays() {
        let mut lines = 0u64;
        let sum = soak(100, 42, TEST_DURATION, |_| lines += 1)
            .expect("soak must be violation-free and replay bit-identically");
        assert_eq!(sum.plans, 100);
        assert_eq!(lines, 100);
        assert!(sum.checks > 100, "invariants ran in every plan");
        assert!(sum.faults > 0, "the storms actually stormed");
    }

    #[test]
    fn replay_text_round_trips_with_digest() {
        let plan = ChaosPlan::generate(7, &test_cfg());
        let out = run_plan(&plan).expect("generated plan runs");
        let mut stamped = plan.clone();
        stamped.digest = Some(out.digest);
        let msg = replay_text(&stamped.to_text()).expect("replay succeeds");
        assert!(msg.contains("digest=match"), "{msg}");
        // A corrupted digest must be rejected.
        stamped.digest = Some(out.digest ^ 1);
        let err = replay_text(&stamped.to_text()).unwrap_err();
        assert!(matches!(err, SimError::Verdict { .. }), "{err}");
        assert!(err.to_string().contains("digest mismatch"), "{err}");
    }

    #[test]
    fn replay_rejects_truncated_artifact_with_line_info() {
        let mut plan = ChaosPlan::generate(11, &test_cfg());
        plan.digest = Some(0xabcd);
        let text = plan.to_text();
        // Cut the artifact mid-way through its last burst line: keep
        // "burst <kind> <device> <from>" and drop the window end and rate.
        let burst_at = text.rfind("burst ").expect("plan has bursts");
        let kept: Vec<&str> = text[burst_at..].split_ascii_whitespace().take(4).collect();
        let truncated = format!("{}{}", &text[..burst_at], kept.join(" "));
        let err = replay_text(&truncated).unwrap_err();
        let line = 1 + text[..burst_at].matches('\n').count();
        match err {
            SimError::Parse {
                line: l,
                ref detail,
            } => {
                assert_eq!(l, line, "error names the truncated line: {detail}");
            }
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn replay_rejects_bit_flipped_rate_without_panicking() {
        let plan = ChaosPlan::generate(13, &test_cfg());
        let text = plan.to_text();
        // Flip the f64 sign bit of the first burst's rate: the artifact
        // still parses field-wise but now encodes a negative probability.
        let line_start = text.find("burst ").expect("plan has bursts");
        let line_end = text[line_start..].find('\n').unwrap() + line_start;
        let line = &text[line_start..line_end];
        let mut fields: Vec<&str> = line
            .split('#')
            .next()
            .unwrap()
            .split_ascii_whitespace()
            .collect();
        let bits = u64::from_str_radix(fields[5], 16).unwrap();
        let corrupt = format!("{:016x}", bits ^ (1 << 63));
        fields[5] = &corrupt;
        let mut flipped = text.clone();
        flipped.replace_range(line_start..line_end, &fields.join(" "));
        let err = replay_text(&flipped).unwrap_err();
        assert!(
            matches!(err, SimError::FaultPlan(_)),
            "negative rate must surface as a fault-plan error: {err}"
        );
    }

    #[test]
    fn replay_rejects_wrong_version_header() {
        let plan = ChaosPlan::generate(17, &test_cfg());
        let text = plan.to_text().replace("chaos-plan/v1", "chaos-plan/v2");
        let err = replay_text(&text).unwrap_err();
        match err {
            SimError::Parse {
                line: 1,
                ref detail,
            } => {
                assert!(detail.contains("chaos-plan/v1"), "{detail}");
            }
            other => panic!("expected a line-1 parse error, got {other}"),
        }
    }

    #[test]
    fn invalid_hand_built_plan_is_an_error_not_a_panic() {
        // Pre-fix, run_plan unwrapped to_fault_plan and panicked here.
        let plan = ChaosPlan {
            seed: 1,
            duration: TEST_DURATION,
            devices: 1,
            bursts: vec![ChaosBurst {
                kind: FaultKind::NicDrop,
                device: 0,
                rate: 0.5,
                from: Cycles(100),
                to: Cycles(100), // degenerate window
            }],
            digest: None,
        };
        let err = run_plan(&plan).unwrap_err();
        assert!(matches!(err, SimError::FaultPlan(_)), "{err}");
    }

    #[test]
    fn intentional_violation_shrinks_to_minimal_reproducer() {
        // A broad six-burst storm; the sabotage fixture trips on the
        // first fabric loss, so only the FabricLoss burst matters.
        let burst = |kind, rate, from: u64, to: u64| ChaosBurst {
            kind,
            device: 0,
            rate,
            from: Cycles(from),
            to: Cycles(to),
        };
        let plan = ChaosPlan {
            seed: 99,
            duration: TEST_DURATION,
            devices: 1,
            bursts: vec![
                burst(FaultKind::NicDrop, 0.5, 0, 600_000),
                burst(FaultKind::NicStall, 0.2, 300_000, 600_000),
                burst(FaultKind::SsdLatencySpike, 0.5, 100_000, 400_000),
                burst(FaultKind::FabricReorder, 0.3, 0, 300_000),
                burst(FaultKind::FabricLoss, 0.8, 200_000, 500_000),
                burst(FaultKind::MsixLostInterrupt, 0.5, 0, 600_000),
            ],
            digest: None,
        };
        let fails = |p: &ChaosPlan| {
            run_storm(p, true, Engine::process_default()).is_ok_and(|o| o.violations > 0)
        };
        assert!(fails(&plan), "fixture trips on the full storm");
        let healthy = run_plan(&plan).expect("plan validates");
        assert_eq!(healthy.violations, 0, "healthy invariants stay silent");
        let (min, stats) = shrink(&plan, fails);
        assert!(fails(&min), "shrunk plan still reproduces");
        assert_eq!(min.bursts.len(), 1, "only the loss burst survives: {min:?}");
        assert_eq!(min.bursts[0].kind, FaultKind::FabricLoss);
        assert!(
            min.bursts[0].to.0 - min.bursts[0].from.0 <= 300_000,
            "window never grows"
        );
        assert!(stats.oracle_calls > 0 && stats.removed == 5);
    }

    #[test]
    fn storms_exercise_quarantine_and_pardon() {
        // A sustained heavy loss storm exhausts the 3-retry budget and
        // the supervisor falls back to quarantine -> pardon.
        let plan = ChaosPlan {
            seed: 5,
            duration: Cycles(3_000_000),
            devices: 1,
            bursts: vec![ChaosBurst {
                kind: FaultKind::FabricLoss,
                device: 0,
                rate: 0.9,
                from: Cycles(0),
                to: Cycles(2_500_000),
            }],
            digest: None,
        };
        let out = run_plan(&plan).expect("plan validates");
        assert!(out.faults > 0);
        assert_eq!(out.violations, 0, "{:?}", out.first_violation);
        assert!(out.pardons > 0, "pardon fallback exercised");
        assert!(out.goodput > 0, "clients recover and make progress");
    }

    #[test]
    fn switchless_recovery_beats_legacy_under_storms() {
        let plan = ChaosPlan::generate(1701, &ChaosConfig::new(Cycles(4_000_000)));
        let sw = run_plan(&plan).expect("generated plan validates");
        let lg = run_legacy(CLIENTS, plan.seed, plan.duration, |t| {
            loss_rate_at(&plan, t)
        });
        if sw.recovery.count() == 0 || lg.recovery.count() == 0 {
            return; // this seed's storm never hit the fabric
        }
        assert!(
            sw.recovery.p99() < lg.recovery.p50(),
            "sw p99 {} should beat legacy p50 {}",
            sw.recovery.p99(),
            lg.recovery.p50()
        );
    }
}
