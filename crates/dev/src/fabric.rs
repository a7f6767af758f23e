//! A network fabric model for distributed-programming experiments
//! (§2 "Simpler Distributed Programming").
//!
//! Remote nodes are modeled by their response behaviour: an RPC issued
//! into the fabric completes after `rtt + remote service time` by writing
//! the response word the calling thread `mwait`s on. This captures
//! exactly what the paper's argument needs — many blocking threads hiding
//! inter-node latency — without simulating a second machine.

use std::cell::RefCell;
use std::rc::Rc;

use switchless_core::machine::{DeviceId, Machine};
use switchless_sim::fault::FaultKind;
use switchless_sim::time::Cycles;

use crate::slab::Slab;

/// Fabric latency parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// One-way wire+switch latency. 2 µs at 3 GHz = 6000 cycles.
    pub one_way: Cycles,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            one_way: Cycles(6_000),
        }
    }
}

impl FabricConfig {
    /// Round-trip time excluding remote service.
    #[must_use]
    pub fn rtt(&self) -> Cycles {
        self.one_way * 2
    }
}

/// An RPC response in flight: the word it writes and where.
#[derive(Clone, Copy, Debug)]
struct Response {
    addr: u64,
    value: u64,
}

/// An attached fabric.
///
/// Clones share one device: the same registered response handler and
/// the same responses in flight.
#[derive(Clone, Debug)]
pub struct Fabric {
    config: FabricConfig,
    /// The response handler, registered at attach.
    device: DeviceId,
    /// Responses issued and not yet landed.
    pending: Rc<RefCell<Slab<Response>>>,
}

impl Fabric {
    /// Registers the fabric's response handler on the machine.
    pub fn attach(m: &mut Machine, config: FabricConfig) -> Fabric {
        let pending: Rc<RefCell<Slab<Response>>> = Rc::default();
        let store = Rc::clone(&pending);
        let device = m.register_device(move |mach, _, key| {
            let r = store.borrow_mut().take(key);
            mach.dma_write(r.addr, &r.value.to_le_bytes());
            mach.counters_mut().inc("fabric.rpc.completed");
            let led = mach.ledger("fabric.rpc");
            led.in_flight -= 1;
            led.completed += 1;
        });
        Fabric {
            config,
            device,
            pending,
        }
    }

    /// Issues an RPC at `at`: after `2 * one_way + remote_service`, the
    /// fabric DMA-writes `response_value` to `response_addr`.
    ///
    /// Fault injection (when a plan is installed on the machine):
    /// [`FaultKind::FabricLoss`] loses the response outright — the caller
    /// never hears back, which is what makes per-thread watchdogs
    /// necessary. [`FaultKind::FabricReorder`] delays the response by a
    /// drawn skew, so it lands after later responses.
    pub fn rpc(
        &self,
        m: &mut Machine,
        at: Cycles,
        remote_service: Cycles,
        response_addr: u64,
        response_value: u64,
    ) {
        // RPC conservation: every issue is answered or deliberately lost.
        let led = m.ledger("fabric.rpc");
        led.posted += 1;
        led.in_flight += 1;
        if m.fault_draw(FaultKind::FabricLoss) {
            let led = m.ledger("fabric.rpc");
            led.in_flight -= 1;
            led.dropped += 1;
            return;
        }
        let one_way = self.config.one_way;
        let mut done = at + one_way + remote_service + one_way;
        if m.fault_draw(FaultKind::FabricReorder) {
            done += m.fault_delay(FaultKind::FabricReorder);
        }
        let key = self.pending.borrow_mut().insert(Response {
            addr: response_addr,
            value: response_value,
        });
        m.at_device(done, self.device, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::asm::assemble;
    use switchless_sim::fault::FaultPlan;

    #[test]
    fn rpc_completes_after_rtt_plus_service() {
        let mut m = Machine::new(MachineConfig::small());
        let f = Fabric::attach(
            &mut m,
            FabricConfig {
                one_way: Cycles(1000),
            },
        );
        let resp = m.alloc(8);
        f.rpc(&mut m, Cycles(0), Cycles(500), resp, 42);
        m.run_for(Cycles(2_499));
        assert_eq!(m.peek_u64(resp), 0);
        m.run_for(Cycles(2));
        assert_eq!(m.peek_u64(resp), 42);
        assert_eq!(m.counters().get("fabric.rpc.completed"), 1);
    }

    #[test]
    fn lost_response_never_arrives() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(FaultPlan::new(7).with_rate(FaultKind::FabricLoss, 1.0));
        let f = Fabric::attach(&mut m, FabricConfig::default());
        let resp = m.alloc(8);
        f.rpc(&mut m, Cycles(0), Cycles(500), resp, 42);
        m.run_for(Cycles(1_000_000));
        assert_eq!(m.peek_u64(resp), 0, "response lost on the wire");
        assert_eq!(m.counters().get("fabric.rpc.completed"), 0);
        assert_eq!(m.counters().get("fault.fabric.loss"), 1);
    }

    #[test]
    fn reordered_response_arrives_late() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(
            FaultPlan::new(8)
                .with_rate(FaultKind::FabricReorder, 1.0)
                .with_delay(FaultKind::FabricReorder, Cycles(20_000), Cycles(20_000)),
        );
        let f = Fabric::attach(
            &mut m,
            FabricConfig {
                one_way: Cycles(1_000),
            },
        );
        let resp = m.alloc(8);
        f.rpc(&mut m, Cycles(0), Cycles(500), resp, 42);
        m.run_for(Cycles(10_000));
        assert_eq!(m.peek_u64(resp), 0, "still skewed");
        m.run_for(Cycles(15_000));
        assert_eq!(m.peek_u64(resp), 42);
        assert_eq!(m.counters().get("fault.fabric.reorder"), 1);
    }

    #[test]
    fn blocking_thread_hides_latency_with_mwait() {
        let mut m = Machine::new(MachineConfig::small());
        let f = Fabric::attach(&mut m, FabricConfig::default());
        let resp = m.alloc(8);
        let prog = assemble(&format!(
            r#"
            entry:
                monitor {resp}
                mwait
                ld r1, {resp}
                halt
            "#,
            resp = resp
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        m.run_for(Cycles(1_000));
        let now = m.now();
        f.rpc(&mut m, now, Cycles(3_000), resp, 7);
        m.run_for(Cycles(50_000));
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
        assert_eq!(m.thread_reg(tid, 1), 7);
    }
}
