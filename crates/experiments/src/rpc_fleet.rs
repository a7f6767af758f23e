//! The RPC client fleet F16 and F17 share, and its legacy comparator.
//!
//! Each client issues a blocking RPC into a lossy fabric and parks in
//! `mwait` on its response word under a per-thread watchdog; a lost
//! response is recovered by the supervisor that owns the client. The
//! legacy comparator models the same clients on interrupts: a lost
//! response is only noticed at the next software timer tick, then pays
//! the full IRQ + scheduler wakeup path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use switchless_core::machine::Machine;
use switchless_dev::fabric::Fabric;
use switchless_kern::nointr::Supervisor;
use switchless_legacy::costs::LegacyCosts;
use switchless_sim::rng::Rng;
use switchless_sim::stats::Histogram;
use switchless_sim::time::Cycles;

use crate::common::FREQ;

/// Remote service time per RPC (1 us).
const REMOTE: u64 = 3_000;
/// Per-thread response deadline (10 us): the watchdog timeout, and the
/// legacy request timeout armed for the same RPC.
const DEADLINE: u64 = 30_000;
/// Supervisor restart backoff (fixed).
pub(crate) const BACKOFF: u64 = 3_000;
/// Legacy software-timer tick (100 us): timeout detection granularity.
const TICK: u64 = 300_000;

const HCALL_ISSUE: u16 = 130;
const HCALL_DONE: u16 = 131;

/// The fleet's tallies, updated by its hcall handlers.
pub(crate) struct Clients {
    resp: Vec<u64>,
    by_ptid: HashMap<u32, usize>,
    /// RPCs issued.
    pub(crate) issued: u64,
    /// RPCs completed end-to-end.
    pub(crate) goodput: u64,
}

/// Loads and starts `n` RPC clients on core 0, each supervised by `sup`
/// under a [`DEADLINE`] watchdog, and registers the fleet's hcalls.
pub(crate) fn install(m: &mut Machine, sup: &Supervisor, n: usize) -> Rc<RefCell<Clients>> {
    let fabric = Fabric::default();
    let st = Rc::new(RefCell::new(Clients {
        resp: Vec::new(),
        by_ptid: HashMap::new(),
        issued: 0,
        goodput: 0,
    }));
    for c in 0..n {
        let resp = m.alloc(64);
        let prog = switchless_isa::asm::assemble(&format!(
            r#"
            .base {base:#x}
            ; Issue an RPC, park on the response word, report completion.
            ; A lost response leaves the client in mwait: the watchdog
            ; descriptor + supervisor restart re-enter at `entry`, which
            ; simply issues the next RPC.
            entry:
                movi r1, 0
            loop:
                hcall {issue}
            wait:
                monitor {resp}
                ld r2, {resp}
                bne r2, r1, got
                mwait
                jmp wait
            got:
                hcall {done}
                jmp loop
            "#,
            base = 0x50000 + (c as u64) * 0x1000,
            issue = HCALL_ISSUE,
            resp = resp,
            done = HCALL_DONE,
        ))
        .expect("client template is valid");
        let tid = m.load_program(0, &prog).expect("client loads");
        sup.supervise(m, tid);
        m.set_thread_watchdog(tid, Some(Cycles(DEADLINE)));
        let mut s = st.borrow_mut();
        s.resp.push(resp);
        s.by_ptid.insert(tid.ptid.0, c);
        drop(s);
        m.start_thread(tid);
    }

    let st2 = Rc::clone(&st);
    m.register_hcall(HCALL_ISSUE, move |mach, tid| {
        let mut s = st2.borrow_mut();
        let c = s.by_ptid[&tid.ptid.0];
        let resp = s.resp[c];
        s.issued += 1;
        mach.poke_u64(resp, 0);
        let now = mach.now();
        fabric.rpc(mach, now, Cycles(REMOTE), resp, 1);
    });
    let st2 = Rc::clone(&st);
    m.register_hcall(HCALL_DONE, move |_mach, _tid| {
        st2.borrow_mut().goodput += 1;
    });
    st
}

/// What the legacy comparator measures.
pub(crate) struct LegacyOutcome {
    pub(crate) goodput: u64,
    pub(crate) recovery: Histogram,
}

/// The legacy comparator for `n` clients over `duration`, modeled from
/// [`LegacyCosts`] with a forked stream of `seed`: an RPC issued at `t`
/// is lost with probability `rate_at(t)`.
pub(crate) fn run_legacy(
    n: usize,
    seed: u64,
    duration: Cycles,
    rate_at: impl Fn(u64) -> f64,
) -> LegacyOutcome {
    let costs = LegacyCosts::default();
    let wake = costs.blocked_wakeup_path(false).0;
    let rtt = Fabric::default().rtt().0;
    let mut rng = Rng::seed_from(seed).fork(99);
    let mut recovery = Histogram::new();
    let mut goodput = 0u64;
    for _ in 0..n {
        let mut t = 0u64;
        while t < duration.0 {
            let rate = rate_at(t);
            if rate > 0.0 && rng.chance(rate) {
                // Deadline passes unseen; the next tick lands uniformly
                // within the tick period, then the wakeup path runs.
                let gap = rng.next_range(0, TICK - 1);
                recovery.record(gap + wake);
                t = t.saturating_add(DEADLINE + gap + wake);
            } else {
                goodput += 1;
                t = t.saturating_add(rtt + REMOTE + wake + 2 * costs.syscall_mode_switch.0);
            }
        }
    }
    LegacyOutcome { goodput, recovery }
}

/// Completions per second over `duration`, in thousands.
pub(crate) fn krps(completed: u64, duration: Cycles) -> f64 {
    completed as f64 / (duration.0 as f64 / FREQ.hz()) / 1e3
}

/// `(p50, p99)` cells of a latency histogram; `-` when it is empty.
pub(crate) fn pcts(h: &Histogram) -> (String, String) {
    if h.count() == 0 {
        ("-".to_owned(), "-".to_owned())
    } else {
        (h.p50().to_string(), h.p99().to_string())
    }
}
