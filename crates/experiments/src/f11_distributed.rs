//! F11 — "Simpler Distributed Programming" (§2): blocking
//! thread-per-request hides remote latency when hardware threads are
//! plentiful.
//!
//! A fixed batch of RPCs (12 µs RTT + 1 µs remote service) is pushed
//! through K in-flight request threads, measured on the machine. The
//! comparison column shows the software-thread cost of the same
//! concurrency: every block/unblock pays the scheduler path, so the
//! per-RPC CPU cost is ~an order of magnitude higher.

use switchless_core::machine::{Machine, MachineConfig};
use switchless_dev::fabric::FabricConfig;
use switchless_kern::distrt::{DistRt, DistRtConfig};
use switchless_legacy::costs::LegacyCosts;
use switchless_sim::report::{fnum, Table};
use switchless_sim::time::Cycles;

use crate::common::FREQ;

const TOTAL_RPCS: u32 = 128;
const LOCAL_WORK: u32 = 2_000;
const REMOTE: u64 = 3_000;

struct Outcome {
    elapsed: Cycles,
    krps: f64,
    cpu_per_rpc: f64,
}

fn measure(threads: usize) -> Outcome {
    let mut cfg = MachineConfig::small();
    cfg.ptids_per_core = threads + 8;
    let mut m = Machine::new(cfg);
    let rt = DistRt::install(
        &mut m,
        0,
        DistRtConfig {
            threads,
            iters: TOTAL_RPCS / threads as u32,
            local_work: LOCAL_WORK,
            remote_service: Cycles(REMOTE),
            fabric: FabricConfig::default(), // 12 µs RTT
        },
        0x40000,
    )
    .expect("install");
    let elapsed = rt
        .run_to_completion(&mut m, Cycles(1_000_000_000))
        .expect("completes");
    let cpu: u64 = rt.threads.iter().map(|&t| m.billed_cycles(t).0).sum();
    Outcome {
        elapsed,
        krps: TOTAL_RPCS as f64 / (elapsed.0 as f64 / FREQ.hz()) / 1e3,
        cpu_per_rpc: cpu as f64 / f64::from(TOTAL_RPCS),
    }
}

/// Runs F11.
pub fn run(_ctx: &crate::RunCtx) -> Vec<Table> {
    let costs = LegacyCosts::default();
    // Software thread-per-request CPU cost per RPC: issue + local work +
    // blocked wakeup on response + a context switch per block.
    let sw_cpu_per_rpc = 100.0
        + f64::from(LOCAL_WORK)
        + costs.blocked_wakeup_path(false).0 as f64
        + costs.ctx_switch_direct.0 as f64;

    let mut t = Table::new(
        "F11: remote-latency hiding vs in-flight hardware threads",
        &[
            "threads",
            "elapsed (kcy)",
            "throughput (kRPC/s)",
            "speedup",
            "hwt CPU/RPC",
            "sw-threads CPU/RPC",
        ],
    );
    let base = measure(1);
    for &k in &[1usize, 2, 4, 8, 16, 32] {
        let o = measure(k);
        t.row_owned(vec![
            k.to_string(),
            fnum(o.elapsed.0 as f64 / 1e3),
            fnum(o.krps),
            fnum(base.elapsed.0 as f64 / o.elapsed.0 as f64),
            fnum(o.cpu_per_rpc),
            fnum(sw_cpu_per_rpc),
        ]);
    }
    t.caption(
        "128 RPCs, 12us RTT + 1us remote + 0.7us local; expected shape: \
         throughput scales ~linearly with in-flight threads until the \
         local work saturates the 2 pipeline slots; hwt CPU/RPC stays \
         ~2.2k cycles while software threads would burn ~10k in \
         scheduling alone — the §2 claim that blocking becomes affordable",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_scales_throughput() {
        let one = measure(1);
        let sixteen = measure(16);
        assert!(
            sixteen.elapsed.0 * 4 < one.elapsed.0,
            "16 threads {} vs 1 thread {}",
            sixteen.elapsed.0,
            one.elapsed.0
        );
    }

    #[test]
    fn hwt_cpu_per_rpc_far_below_software_threads() {
        let o = measure(8);
        let costs = LegacyCosts::default();
        let sw = 100.0
            + f64::from(LOCAL_WORK)
            + costs.blocked_wakeup_path(false).0 as f64
            + costs.ctx_switch_direct.0 as f64;
        assert!(
            o.cpu_per_rpc * 2.0 < sw,
            "hwt {} vs sw {}",
            o.cpu_per_rpc,
            sw
        );
    }
}
