//! The legacy-interrupt bridge (§4): "since future hardware should be
//! compatible with legacy devices, hardware must translate external
//! interrupts to memory writes (similar to PCIe MSI-x functionality)".
//!
//! [`MsixBridge`] owns a table mapping interrupt vectors to memory
//! addresses; raising a vector performs the corresponding write. Legacy
//! device models call [`MsixBridge::raise`] where they would have pulled
//! an interrupt wire.

use std::collections::HashMap;

use switchless_core::machine::Machine;
use switchless_sim::fault::FaultKind;

/// Vector → memory-write translation table.
#[derive(Clone, Debug, Default)]
pub struct MsixBridge {
    table: HashMap<u32, u64>,
}

impl MsixBridge {
    /// Creates an empty bridge.
    #[must_use]
    pub fn new() -> MsixBridge {
        MsixBridge::default()
    }

    /// Routes `vector` to an increment of the word at `addr`.
    pub fn route(&mut self, vector: u32, addr: u64) {
        self.table.insert(vector, addr);
    }

    /// Raises a legacy interrupt: translated to an increment of the
    /// routed word (waking any monitoring thread). Unrouted vectors are
    /// counted and dropped — exactly what masked interrupts do.
    ///
    /// Fault injection (when a plan is installed on the machine):
    /// [`FaultKind::MsixLostInterrupt`] loses a *routed* interrupt — the
    /// classic legacy failure a driver only survives via a periodic
    /// software timeout, which is exactly the recovery gap the f16
    /// experiment measures against the switchless watchdog.
    pub fn raise(&self, m: &mut Machine, vector: u32) {
        // Translation is synchronous, so the conservation ledger never
        // holds anything in flight: raised = translated + dropped.
        m.ledger("msix").posted += 1;
        match self.table.get(&vector) {
            Some(&addr) => {
                if m.fault_draw(FaultKind::MsixLostInterrupt) {
                    m.ledger("msix").dropped += 1;
                    return;
                }
                let v = m.peek_u64(addr).wrapping_add(1);
                m.dma_write(addr, &v.to_le_bytes());
                m.counters_mut().inc("msix.translated");
                m.ledger("msix").completed += 1;
            }
            None => {
                m.counters_mut().inc("msix.dropped");
                m.ledger("msix").dropped += 1;
            }
        }
    }

    /// Number of routed vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no vectors are routed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::asm::assemble;
    use switchless_sim::time::Cycles;

    #[test]
    fn raise_translates_to_memory_write() {
        let mut m = Machine::new(MachineConfig::small());
        let addr = m.alloc(8);
        let mut bridge = MsixBridge::new();
        bridge.route(33, addr);
        bridge.raise(&mut m, 33);
        bridge.raise(&mut m, 33);
        assert_eq!(m.peek_u64(addr), 2);
        assert_eq!(m.counters().get("msix.translated"), 2);
    }

    #[test]
    fn unrouted_vector_dropped() {
        let mut m = Machine::new(MachineConfig::small());
        let mut bridge = MsixBridge::new();
        bridge.raise(&mut m, 99);
        assert_eq!(m.counters().get("msix.dropped"), 1);
        assert!(bridge.is_empty());
        bridge.route(1, 0x100);
        assert!(!bridge.is_empty());
    }

    #[test]
    fn lost_interrupt_skips_routed_write() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(
            switchless_sim::fault::FaultPlan::new(10).with_rate(FaultKind::MsixLostInterrupt, 1.0),
        );
        let addr = m.alloc(8);
        let mut bridge = MsixBridge::new();
        bridge.route(33, addr);
        bridge.raise(&mut m, 33);
        assert_eq!(m.peek_u64(addr), 0, "interrupt lost before translation");
        assert_eq!(m.counters().get("msix.translated"), 0);
        assert_eq!(m.counters().get("fault.msix.lost"), 1);
        // Unrouted vectors are a config condition, not an injected fault.
        bridge.raise(&mut m, 99);
        assert_eq!(m.counters().get("fault.msix.lost"), 1);
        assert_eq!(m.counters().get("msix.dropped"), 1);
    }

    #[test]
    fn legacy_device_wakes_hardware_thread() {
        let mut m = Machine::new(MachineConfig::small());
        let addr = m.alloc(8);
        let mut bridge = MsixBridge::new();
        bridge.route(7, addr);
        let prog = assemble(&format!("entry:\n monitor {addr}\n mwait\n halt\n")).unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        m.run_for(Cycles(2000));
        assert_eq!(m.thread_state(tid), ThreadState::Waiting);
        bridge.raise(&mut m, 7);
        m.run_for(Cycles(5000));
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
    }
}
