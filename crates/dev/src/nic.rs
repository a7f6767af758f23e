//! A NIC model with an RX descriptor ring.
//!
//! Memory layout (all allocated from simulated memory by
//! [`Nic::attach`]):
//!
//! ```text
//! tail word:   u64 count of packets ever received (the mwait target —
//!              §3.1: "a network thread can wait on the RX queue tail
//!              until packet arrival")
//! desc ring:   slots of 16 bytes: [payload_addr: u64][len|seq: u64]
//! buffers:     per-slot payload buffers
//! ```
//!
//! On packet arrival the device DMAs the payload into the slot buffer,
//! writes the descriptor, and finally bumps the tail word — the write
//! order real NICs use so that a consumer woken by the tail bump always
//! observes a complete descriptor.

use switchless_core::machine::Machine;
use switchless_sim::error::SimError;
use switchless_sim::fault::FaultKind;
use switchless_sim::stats::CounterId;
use switchless_sim::time::Cycles;

/// Bytes per RX descriptor slot.
pub const RX_DESC_BYTES: u64 = 16;

/// NIC geometry.
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    /// Number of RX descriptor slots (must be a power of two).
    pub rx_slots: u64,
    /// Bytes per packet buffer.
    pub buf_bytes: u64,
    /// DMA latency from wire arrival to tail bump.
    pub dma_latency: Cycles,
}

impl Default for NicConfig {
    fn default() -> NicConfig {
        NicConfig {
            rx_slots: 256,
            buf_bytes: 256,
            dma_latency: Cycles(300), // ~100ns PCIe/DMA at 3GHz
        }
    }
}

/// An attached NIC instance.
///
/// The struct is plain data: all activity happens through scheduled
/// machine callbacks, so a `Nic` can be freely copied into closures.
#[derive(Clone, Copy, Debug)]
pub struct Nic {
    config: NicConfig,
    /// Address of the RX tail counter word.
    pub rx_tail: u64,
    /// Base of the descriptor ring.
    pub ring_base: u64,
    /// Base of the packet buffers.
    pub buf_base: u64,
    /// `nic.rx.packets`, resolved once at attach on the machine's
    /// registry; delivery bumps it per packet without a name lookup.
    rx_packets: CounterId,
}

impl Nic {
    /// Allocates ring memory on the machine and returns the device.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`NicConfig`]; [`Nic::try_attach`] is the
    /// non-panicking variant chaos harnesses use.
    pub fn attach(m: &mut Machine, config: NicConfig) -> Nic {
        Nic::try_attach(m, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating [`Nic::attach`]: rejects a ring size that is not a
    /// nonzero power of two or an empty packet buffer with a structured
    /// error instead of panicking.
    pub fn try_attach(m: &mut Machine, config: NicConfig) -> Result<Nic, SimError> {
        if !config.rx_slots.is_power_of_two() {
            return Err(SimError::Config {
                context: "nic",
                detail: format!(
                    "rx_slots {} must be a nonzero power of two",
                    config.rx_slots
                ),
            });
        }
        if config.buf_bytes == 0 {
            return Err(SimError::Config {
                context: "nic",
                detail: "buf_bytes must be nonzero".into(),
            });
        }
        let rx_tail = m.alloc(64); // own cache line: no false sharing
        let ring_base = m.alloc(config.rx_slots * RX_DESC_BYTES);
        let buf_base = m.alloc(config.rx_slots * config.buf_bytes);
        Ok(Nic {
            config,
            rx_tail,
            ring_base,
            buf_base,
            rx_packets: m.counters_mut().id("nic.rx.packets"),
        })
    }

    /// Address of descriptor slot `seq`.
    #[must_use]
    pub fn desc_addr(&self, seq: u64) -> u64 {
        self.ring_base + (seq & (self.config.rx_slots - 1)) * RX_DESC_BYTES
    }

    /// Address of the payload buffer for slot `seq`.
    #[must_use]
    pub fn buf_addr(&self, seq: u64) -> u64 {
        self.buf_base + (seq & (self.config.rx_slots - 1)) * self.config.buf_bytes
    }

    /// Schedules arrival of packet number `seq` (the caller keeps the
    /// monotone sequence) with `payload` at absolute time `at`.
    ///
    /// The DMA completes (and the tail bumps) at `at + dma_latency`.
    ///
    /// Fault injection (when a plan is installed on the machine):
    /// [`FaultKind::NicDrop`] eats the packet on the wire — no DMA, no
    /// descriptor, no tail bump, only a sequence gap the driver can
    /// detect. [`FaultKind::NicCorrupt`] flips the first payload byte, so
    /// a checksumming driver sees the damage. [`FaultKind::NicStall`]
    /// delays delivery; because a stalled packet may land after its
    /// successors, the tail bump is monotone (never rewound), and the
    /// stalled slot briefly holds a stale descriptor — exactly the
    /// mismatch a seq-validating driver retries on.
    pub fn schedule_rx(&self, m: &mut Machine, at: Cycles, seq: u64, payload: &[u8]) {
        let nic = *self;
        let len = payload.len().min(nic.config.buf_bytes as usize);
        let mut payload: Vec<u8> = payload[..len].to_vec();
        // Ring conservation: posted here; the other side of the ledger
        // is booked on the drop path below or at delivery.
        let led = m.ledger("nic.rx");
        led.posted += 1;
        led.in_flight += 1;
        if m.fault_draw(FaultKind::NicDrop) {
            let led = m.ledger("nic.rx");
            led.in_flight -= 1;
            led.dropped += 1;
            return;
        }
        if m.fault_draw(FaultKind::NicCorrupt) {
            if let Some(b) = payload.first_mut() {
                *b ^= 0xff;
            }
        }
        let mut deliver_at = at + nic.config.dma_latency;
        if m.fault_draw(FaultKind::NicStall) {
            deliver_at += m.fault_delay(FaultKind::NicStall);
        }
        m.at(deliver_at, move |mach| {
            // 1. payload
            mach.dma_write(nic.buf_addr(seq), &payload);
            // 2. descriptor: [buf addr][len<<32 | seq low bits]
            let mut desc = [0u8; RX_DESC_BYTES as usize];
            desc[..8].copy_from_slice(&nic.buf_addr(seq).to_le_bytes());
            desc[8..].copy_from_slice(
                &(((payload.len() as u64) << 32) | (seq & 0xffff_ffff)).to_le_bytes(),
            );
            mach.dma_write(nic.desc_addr(seq), &desc);
            // 3. tail bump — the consumer's wakeup. Monotone so a stalled
            // straggler never rewinds the tail past delivered successors.
            let tail = (seq + 1).max(mach.peek_u64(nic.rx_tail));
            mach.dma_write(nic.rx_tail, &tail.to_le_bytes());
            // Stats.
            mach.counters_mut().bump(nic.rx_packets, 1);
            let led = mach.ledger("nic.rx");
            led.in_flight -= 1;
            led.completed += 1;
        });
    }

    /// Reads the current tail value (host-side, for tests).
    #[must_use]
    pub fn tail(&self, m: &Machine) -> u64 {
        m.peek_u64(self.rx_tail)
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
    fn rx_bumps_tail_and_writes_descriptor() {
        let mut m = Machine::new(MachineConfig::small());
        let nic = Nic::attach(&mut m, NicConfig::default());
        nic.schedule_rx(&mut m, Cycles(100), 0, b"hello");
        nic.schedule_rx(&mut m, Cycles(200), 1, b"world");
        m.run_for(Cycles(10_000));
        assert_eq!(nic.tail(&m), 2);
        let d0 = m.peek_u64(nic.desc_addr(0));
        assert_eq!(d0, nic.buf_addr(0));
        let meta = m.peek_u64(nic.desc_addr(0) + 8);
        assert_eq!(meta >> 32, 5); // len("hello")
        assert_eq!(m.counters().get("nic.rx.packets"), 2);
    }

    #[test]
    fn waiting_thread_wakes_on_packet() {
        let mut m = Machine::new(MachineConfig::small());
        let nic = Nic::attach(&mut m, NicConfig::default());
        let prog = assemble(&format!(
            r#"
            entry:
                monitor {tail}
                mwait
                ld r1, {tail}
                halt
            "#,
            tail = nic.rx_tail
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        m.run_for(Cycles(2_000));
        assert_eq!(m.thread_state(tid), ThreadState::Waiting);
        let now = m.now();
        nic.schedule_rx(&mut m, now, 0, &[0xab; 64]);
        m.run_for(Cycles(10_000));
        assert_eq!(m.thread_state(tid), ThreadState::Halted);
        assert_eq!(m.thread_reg(tid, 1), 1, "saw tail = 1");
    }

    #[test]
    fn drop_fault_leaves_no_trace_but_a_gap() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(FaultPlan::new(1).with_rate(FaultKind::NicDrop, 1.0));
        let nic = Nic::attach(&mut m, NicConfig::default());
        for seq in 0..3 {
            nic.schedule_rx(&mut m, Cycles(100 * (seq + 1)), seq, b"gone");
        }
        m.run_for(Cycles(10_000));
        assert_eq!(nic.tail(&m), 0, "dropped packets never bump the tail");
        assert_eq!(m.counters().get("nic.rx.packets"), 0);
        assert_eq!(m.counters().get("fault.nic.drop"), 3);
    }

    #[test]
    fn corrupt_fault_flips_first_payload_byte() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(FaultPlan::new(2).with_rate(FaultKind::NicCorrupt, 1.0));
        let nic = Nic::attach(&mut m, NicConfig::default());
        nic.schedule_rx(&mut m, Cycles(100), 0, &[0x11, 0x22, 0x33]);
        m.run_for(Cycles(10_000));
        assert_eq!(nic.tail(&m), 1, "corrupt packets still deliver");
        let word = m.peek_u64(nic.buf_addr(0));
        assert_eq!(word & 0xff, 0x11 ^ 0xff, "first byte flipped");
        assert_eq!((word >> 8) & 0xff, 0x22, "rest untouched");
        assert_eq!(m.counters().get("fault.nic.corrupt"), 1);
    }

    #[test]
    fn stalled_straggler_cannot_rewind_tail() {
        let mut m = Machine::new(MachineConfig::small());
        // Stall only draws in cycle [0,1): packet 0 stalls, packet 1 is
        // scheduled at cycle 1 and sails through.
        m.install_fault_plan(
            FaultPlan::new(3)
                .with_rate(FaultKind::NicStall, 1.0)
                .with_window(FaultKind::NicStall, Cycles(0), Cycles(1))
                .with_delay(FaultKind::NicStall, Cycles(10_000), Cycles(10_000)),
        );
        let nic = Nic::attach(&mut m, NicConfig::default());
        nic.schedule_rx(&mut m, Cycles(0), 0, b"late");
        m.run_for(Cycles(1));
        let now = m.now();
        nic.schedule_rx(&mut m, now, 1, b"ontime");
        m.run_for(Cycles(2_000));
        assert_eq!(nic.tail(&m), 2, "on-time successor delivered");
        assert_eq!(m.counters().get("nic.rx.packets"), 1);
        m.run_for(Cycles(20_000));
        assert_eq!(nic.tail(&m), 2, "straggler did not rewind the tail");
        assert_eq!(m.counters().get("nic.rx.packets"), 2, "straggler landed");
        assert_eq!(m.counters().get("fault.nic.stall"), 1);
    }

    #[test]
    fn zero_rate_plan_is_invisible() {
        // An installed plan with rate 0 must be byte-identical to no plan.
        let run = |plan: bool| -> (u64, u64, u64) {
            let mut m = Machine::new(MachineConfig::small());
            if plan {
                m.install_fault_plan(FaultPlan::new(9));
            }
            let nic = Nic::attach(&mut m, NicConfig::default());
            for seq in 0..16 {
                nic.schedule_rx(&mut m, Cycles(500 * seq), seq, &[seq as u8; 32]);
            }
            m.run_for(Cycles(100_000));
            (
                nic.tail(&m),
                m.counters().get("nic.rx.packets"),
                m.peek_u64(nic.buf_addr(7)),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn bad_config_is_a_structured_error() {
        let mut m = Machine::new(MachineConfig::small());
        let err = Nic::try_attach(
            &mut m,
            NicConfig {
                rx_slots: 3,
                ..NicConfig::default()
            },
        );
        assert!(err.is_err());
        let msg = err.err().map(|e| e.to_string()).unwrap_or_default();
        assert!(msg.contains("rx_slots 3"), "{msg}");
    }

    #[test]
    fn ring_ledger_balances_under_drops_and_stalls() {
        // Every posted packet must end up completed, in flight, or
        // deliberately dropped — the machine-wide checker verifies the
        // ledger at every boundary while faults eat and delay packets.
        let mut m = Machine::new(MachineConfig::small());
        m.enable_invariants(true);
        m.install_fault_plan(
            FaultPlan::new(11)
                .with_rate(FaultKind::NicDrop, 0.3)
                .with_rate(FaultKind::NicStall, 0.3)
                .with_delay(FaultKind::NicStall, Cycles(5_000), Cycles(50_000)),
        );
        let nic = Nic::attach(&mut m, NicConfig::default());
        for seq in 0..64 {
            nic.schedule_rx(&mut m, Cycles(200 * seq), seq, &[seq as u8; 16]);
        }
        m.run_for(Cycles(500_000));
        m.check_invariants();
        assert!(
            m.invariant_report().is_clean(),
            "violations: {:?}",
            m.invariant_report().violations()
        );
        let led = m.ledger("nic.rx");
        assert_eq!(led.posted, 64);
        assert!(led.dropped > 0, "the drop rate did fire");
        assert_eq!(led.in_flight, 0, "everything settled");
        assert!(led.balanced());
    }

    #[test]
    fn ring_wraps() {
        let mut m = Machine::new(MachineConfig::small());
        let nic = Nic::attach(
            &mut m,
            NicConfig {
                rx_slots: 4,
                ..NicConfig::default()
            },
        );
        assert_eq!(nic.desc_addr(0), nic.desc_addr(4));
        assert_eq!(nic.buf_addr(1), nic.buf_addr(5));
        assert_ne!(nic.desc_addr(1), nic.desc_addr(2));
    }
}

/// Bytes per TX descriptor slot: `[payload_addr: u64][len|seq: u64]`.
pub const TX_DESC_BYTES: u64 = 16;

/// The transmit half of the NIC: the driver writes descriptors into the
/// TX ring and stores the new tail to the **doorbell** (an MMIO write —
/// the device reacts immediately); after the wire latency the device
/// bumps the TX-completion word, which a driver thread can `mwait` on.
#[derive(Clone, Copy, Debug)]
pub struct NicTx {
    /// Number of TX descriptor slots (power of two).
    pub tx_slots: u64,
    /// Base of the TX descriptor ring (driver writes descriptors here).
    pub ring_base: u64,
    /// Doorbell word: the driver stores the new ring tail here.
    pub doorbell: u64,
    /// Completion counter word: packets fully transmitted (mwait here).
    pub tx_done: u64,
    /// Wire + serialization latency per packet.
    pub tx_latency: Cycles,
}

impl NicTx {
    /// Allocates the TX ring and registers the doorbell MMIO hook.
    ///
    /// # Panics
    ///
    /// Panics if `tx_slots` is not a power of two; [`NicTx::try_attach`]
    /// is the non-panicking variant.
    pub fn attach(m: &mut Machine, tx_slots: u64, tx_latency: Cycles) -> NicTx {
        NicTx::try_attach(m, tx_slots, tx_latency).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating [`NicTx::attach`] with a structured error.
    pub fn try_attach(
        m: &mut Machine,
        tx_slots: u64,
        tx_latency: Cycles,
    ) -> Result<NicTx, SimError> {
        if !tx_slots.is_power_of_two() {
            return Err(SimError::Config {
                context: "nic tx",
                detail: format!("tx_slots {tx_slots} must be a nonzero power of two"),
            });
        }
        let ring_base = m.alloc(tx_slots * TX_DESC_BYTES);
        let doorbell = m.alloc(64);
        let tx_done = m.alloc(64);
        let tx = NicTx {
            tx_slots,
            ring_base,
            doorbell,
            tx_done,
            tx_latency,
        };
        // The device state: how far it has consumed the ring.
        let consumed = std::rc::Rc::new(std::cell::Cell::new(0u64));
        m.register_mmio(doorbell, move |mach, tail| {
            let mut seq = consumed.get();
            while seq < tail {
                // Consume one descriptor; completion lands after the
                // wire latency, in ring order.
                let gap = seq - consumed.get();
                let done_at = mach.now() + tx.tx_latency * (gap + 1);
                let done_word = tx.tx_done;
                let this = seq + 1;
                let led = mach.ledger("nic.tx");
                led.posted += 1;
                led.in_flight += 1;
                mach.at(done_at, move |inner| {
                    inner.dma_write(done_word, &this.to_le_bytes());
                    inner.counters_mut().inc("nic.tx.packets");
                    let led = inner.ledger("nic.tx");
                    led.in_flight -= 1;
                    led.completed += 1;
                });
                seq += 1;
            }
            consumed.set(seq);
        });
        Ok(tx)
    }

    /// Address of TX descriptor slot `seq`.
    #[must_use]
    pub fn desc_addr(&self, seq: u64) -> u64 {
        self.ring_base + (seq & (self.tx_slots - 1)) * TX_DESC_BYTES
    }

    /// Completed-transmission count (host-side).
    #[must_use]
    pub fn done(&self, m: &Machine) -> u64 {
        m.peek_u64(self.tx_done)
    }
}

#[cfg(test)]
mod tx_tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::asm::assemble;

    #[test]
    fn doorbell_store_transmits_and_completes() {
        let mut m = Machine::new(MachineConfig::small());
        let tx = NicTx::attach(&mut m, 16, Cycles(1_000));
        // Host-side driver: publish 3 descriptors, ring the doorbell.
        for seq in 0..3u64 {
            m.poke_u64(tx.desc_addr(seq), 0xbeef);
        }
        m.poke_u64(tx.doorbell, 3);
        m.run_for(Cycles(500));
        assert_eq!(tx.done(&m), 0, "wire latency not yet elapsed");
        m.run_for(Cycles(5_000));
        assert_eq!(tx.done(&m), 3);
        assert_eq!(m.counters().get("nic.tx.packets"), 3);
    }

    #[test]
    fn driver_thread_sends_and_blocks_for_completion() {
        // The full §2 send path in assembly: write descriptor, ring the
        // doorbell (an ordinary store), mwait on the completion word.
        let mut m = Machine::new(MachineConfig::small());
        let tx = NicTx::attach(&mut m, 16, Cycles(2_000));
        let prog = assemble(&format!(
            r#"
            entry:
                movi r3, {desc}
                movi r1, 0xab
                st r1, r3, 0        ; descriptor: payload addr
                st r1, r3, 8        ; descriptor: len|seq
                movi r2, 1
                st r2, {bell}       ; doorbell: tail = 1 (device reacts)
            wait:
                monitor {done}
                ld r4, {done}
                beq r4, r2, sent
                mwait
                jmp wait
            sent:
                halt
            "#,
            desc = tx.desc_addr(0),
            bell = tx.doorbell,
            done = tx.tx_done,
        ))
        .unwrap();
        let tid = m.load_program(0, &prog).unwrap();
        m.start_thread(tid);
        // After issuing the send the driver parks rather than spinning.
        assert!(m.run_until_state(tid, ThreadState::Waiting, Cycles(100_000)));
        assert_eq!(tx.done(&m), 0, "parked before the wire latency elapsed");
        assert!(m.run_until_state(tid, ThreadState::Halted, Cycles(100_000)));
        assert_eq!(tx.done(&m), 1);
        // Billed cycles are setup costs (cold caches), not busy-waiting:
        // well under send setup + wire latency.
        assert!(
            m.billed_cycles(tid).0 < 2_000,
            "driver burned {} cycles",
            m.billed_cycles(tid).0
        );
    }

    #[test]
    fn completions_arrive_in_ring_order() {
        let mut m = Machine::new(MachineConfig::small());
        let tx = NicTx::attach(&mut m, 8, Cycles(500));
        m.poke_u64(tx.doorbell, 2);
        m.run_for(Cycles(600));
        assert_eq!(tx.done(&m), 1, "first completion after one latency");
        m.run_for(Cycles(500));
        assert_eq!(tx.done(&m), 2);
        // A later doorbell continues the sequence.
        m.poke_u64(tx.doorbell, 3);
        m.run_for(Cycles(1_000));
        assert_eq!(tx.done(&m), 3);
    }
}
