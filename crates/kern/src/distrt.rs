//! "Simpler Distributed Programming" (§2): thread-per-request with
//! blocking RPC.
//!
//! Each request gets its own hardware thread, which issues a remote call
//! and **blocks** in `mwait` on its response word — "simple blocking I/O
//! semantics without suffering from significant thread scheduling
//! overheads". With enough in-flight hardware threads, remote latency is
//! fully hidden and the core stays busy on useful work. The baseline
//! comparison (few threads + software multiplexing) runs through the
//! queueing models in `switchless-legacy`.

use std::cell::RefCell;
use std::rc::Rc;

use switchless_core::machine::{Machine, MachineError, ThreadId};
use switchless_dev::fabric::Fabric;
use switchless_isa::asm::assemble;
use switchless_sim::time::Cycles;

/// Default hcall for RPC issue.
pub const HCALL_RPC: u16 = 130;

/// The installed thread-per-request runtime.
pub struct DistRt {
    /// Request threads.
    pub threads: Vec<ThreadId>,
    /// Per-thread response words.
    pub resp_words: Vec<u64>,
    issued: Rc<RefCell<u64>>,
}

/// Configuration for [`DistRt::install`].
#[derive(Clone, Copy, Debug)]
pub struct DistRtConfig {
    /// Number of request threads (in-flight requests).
    pub threads: usize,
    /// RPC round-trips each thread performs before halting.
    pub iters: u32,
    /// Local compute cycles per response.
    pub local_work: u32,
    /// Remote service time per RPC.
    pub remote_service: Cycles,
    /// Fabric latency model.
    pub fabric: Fabric,
}

impl DistRt {
    /// Installs `cfg.threads` request threads on `core`.
    pub fn install(
        m: &mut Machine,
        core: usize,
        cfg: DistRtConfig,
        image_base: u64,
    ) -> Result<DistRt, MachineError> {
        assert!(cfg.threads > 0, "need at least one request thread");
        let mut threads = Vec::with_capacity(cfg.threads);
        let mut resp_words = Vec::with_capacity(cfg.threads);
        for i in 0..cfg.threads {
            let resp = m.alloc(64);
            resp_words.push(resp);
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r1, 0          ; rpc seq
                    movi r6, {iters}
                    movi r7, 0          ; completed
                loop:
                    addi r1, r1, 1
                    hcall {rpc}         ; host issues the remote call
                wait:
                    monitor {resp}
                    ld r2, {resp}
                    beq r2, r1, got
                    mwait
                    jmp wait
                got:
                    work {lwork}
                    addi r7, r7, 1
                    bne r7, r6, loop
                    halt
                "#,
                base = image_base + (i as u64) * 0x1000,
                iters = cfg.iters,
                rpc = HCALL_RPC,
                resp = resp,
                lwork = cfg.local_work,
            ))
            .expect("request-thread template is valid");
            let tid = m.load_program_user(core, &prog)?;
            threads.push(tid);
        }

        let issued = Rc::new(RefCell::new(0u64));
        let st = Rc::clone(&issued);
        let thread_ids = threads.clone();
        let resp_copy = resp_words.clone();
        m.register_hcall(HCALL_RPC, move |mach, tid| {
            // `hcall` is unprivileged: any other thread may issue it. It
            // is counted and ignored, never a machine-killing panic.
            let Some(idx) = thread_ids.iter().position(|&t| t == tid) else {
                mach.counters_mut().inc("distrt.foreign_hcall");
                return;
            };
            let seq = mach.thread_reg(tid, 1);
            let now = mach.now();
            cfg.fabric
                .rpc(mach, now, cfg.remote_service, resp_copy[idx], seq);
            *st.borrow_mut() += 1;
            mach.charge(Cycles(100)); // serialize + send cost
        });

        for &t in &threads {
            m.start_thread(t);
        }
        Ok(DistRt {
            threads,
            resp_words,
            issued,
        })
    }

    /// RPCs issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        *self.issued.borrow()
    }

    /// Runs until all request threads halt (or `limit`); returns the
    /// elapsed cycles, or `None` on timeout.
    pub fn run_to_completion(&self, m: &mut Machine, limit: Cycles) -> Option<Cycles> {
        let t0 = m.now();
        for &t in &self.threads {
            if !m.run_until_state(t, switchless_core::tid::ThreadState::Halted, limit) {
                return None;
            }
        }
        Some(m.now() - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;

    fn cfg(threads: usize, iters: u32) -> DistRtConfig {
        DistRtConfig {
            threads,
            iters,
            local_work: 2_000,
            remote_service: Cycles(3_000),
            fabric: Fabric {
                one_way: Cycles(6_000),
            },
        }
    }

    #[test]
    fn single_thread_bounded_by_rtt() {
        let mut m = Machine::new(MachineConfig::small());
        let rt = DistRt::install(&mut m, 0, cfg(1, 10), 0x40000).unwrap();
        let elapsed = rt
            .run_to_completion(&mut m, Cycles(10_000_000))
            .expect("completes");
        // Each iteration >= rtt (12k) + remote (3k) + local (2k) = 17k.
        assert!(elapsed.0 >= 10 * 17_000, "{elapsed}");
        assert_eq!(rt.issued(), 10);
    }

    #[test]
    fn many_threads_hide_remote_latency() {
        // Fixed total work: 64 RPCs. 1 thread serializes them; 16
        // threads overlap the remote legs.
        let total = 64u32;
        let run = |threads: usize| {
            let mut m = Machine::new(MachineConfig::small());
            let rt =
                DistRt::install(&mut m, 0, cfg(threads, total / threads as u32), 0x40000).unwrap();
            rt.run_to_completion(&mut m, Cycles(100_000_000))
                .expect("completes")
                .0
        };
        let serial = run(1);
        let parallel = run(16);
        assert!(
            parallel * 4 < serial,
            "16 threads ({parallel}) should be >=4x faster than 1 ({serial})"
        );
    }

    #[test]
    fn blocking_threads_consume_no_cycles_while_waiting() {
        let mut m = Machine::new(MachineConfig::small());
        let rt = DistRt::install(&mut m, 0, cfg(4, 5), 0x40000).unwrap();
        rt.run_to_completion(&mut m, Cycles(10_000_000)).unwrap();
        // Billed cycles per thread ≈ issue + local work, not RTT.
        for &t in &rt.threads {
            let billed = m.billed_cycles(t).0;
            // 5 iters * (100 issue + 2000 local + loop overhead+act).
            assert!(billed < 40_000, "thread billed {billed} cycles");
        }
    }
}
