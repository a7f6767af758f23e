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
//!
//! A scheduled packet waits as data: its sequence number and payload sit
//! in NIC-owned pending storage, and the machine queues one 16-byte
//! device event naming it (see [`Machine::at_device`]). The NIC's one
//! registered handler lands it.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use switchless_core::machine::{DeviceId, Machine};
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
/// Clones share one device: the same registered RX handler and the same
/// pending storage.
#[derive(Clone, Debug)]
pub struct Nic {
    config: NicConfig,
    /// Address of the RX tail counter word.
    pub rx_tail: u64,
    /// Base of the descriptor ring.
    pub ring_base: u64,
    /// Base of the packet buffers.
    pub buf_base: u64,
    ring: Ring,
    /// The RX handler, registered at attach.
    device: DeviceId,
    /// Packets scheduled and not yet landed.
    pending: Rc<RefCell<RxPending>>,
}

/// What landing a packet writes to, copied into the RX handler.
#[derive(Clone, Copy, Debug)]
struct Ring {
    slot_mask: u64,
    buf_bytes: u64,
    rx_tail: u64,
    ring_base: u64,
    buf_base: u64,
    /// `nic.rx.packets`, resolved once at attach on the machine's
    /// registry; delivery bumps it per packet without a name lookup.
    rx_packets: CounterId,
}

impl Ring {
    fn desc_addr(&self, seq: u64) -> u64 {
        self.ring_base + (seq & self.slot_mask) * RX_DESC_BYTES
    }

    fn buf_addr(&self, seq: u64) -> u64 {
        self.buf_base + (seq & self.slot_mask) * self.buf_bytes
    }

    /// Lands packet `seq`: payload, descriptor, monotone tail bump, then
    /// the packet count and the `nic.rx` ledger.
    fn deliver(&self, m: &mut Machine, seq: u64, payload: &[u8]) {
        // 1. payload
        m.dma_write(self.buf_addr(seq), payload);
        // 2. descriptor: [buf addr][len<<32 | seq low bits]
        let mut desc = [0u8; RX_DESC_BYTES as usize];
        desc[..8].copy_from_slice(&self.buf_addr(seq).to_le_bytes());
        desc[8..]
            .copy_from_slice(&(((payload.len() as u64) << 32) | (seq & 0xffff_ffff)).to_le_bytes());
        m.dma_write(self.desc_addr(seq), &desc);
        // 3. tail bump — the consumer's wakeup. Monotone so a stalled
        // straggler never rewinds the tail past delivered successors.
        let tail = (seq + 1).max(m.peek_u64(self.rx_tail));
        m.dma_write(self.rx_tail, &tail.to_le_bytes());
        m.counters_mut().bump(self.rx_packets, 1);
        let led = m.ledger("nic.rx");
        led.in_flight -= 1;
        led.completed += 1;
    }
}

/// Bytes of a pending packet's header in [`RxPending::bytes`]:
/// `[seq: u64][len: u32][record: u32]`.
const HEADER: usize = 16;
/// A record with no packet.
const FREE: u32 = u32::MAX;

/// Pending RX packets. Each is a header plus payload appended to one
/// byte arena; its record (the index its device event carries) holds the
/// arena offset. A landed packet frees its record at once; its bytes are
/// reclaimed by sliding the live packets down once dead bytes outweigh
/// live ones, so the arena stays under twice the live bytes and the
/// storage is bounded by packets in flight. Scheduling costs no
/// allocation beyond amortised growth.
#[derive(Default)]
struct RxPending {
    /// Headers and payloads, live and landed, in schedule order.
    bytes: Vec<u8>,
    /// Bytes of live packets (headers included).
    live: usize,
    /// Arena offset of each record's packet, or [`FREE`].
    recs: Vec<u32>,
    /// Free record indices.
    free: Vec<u32>,
}

impl fmt::Debug for RxPending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RxPending")
            .field("packets", &(self.recs.len() - self.free.len()))
            .field("live_bytes", &self.live)
            .field("arena_bytes", &self.bytes.len())
            .finish()
    }
}

impl RxPending {
    fn u32_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Stores packet `seq`, first byte flipped when `corrupt`; returns
    /// its record index.
    fn push(&mut self, seq: u64, payload: &[u8], corrupt: bool) -> u32 {
        let off = u32::try_from(self.bytes.len())
            .ok()
            .filter(|&o| o != FREE)
            .expect("pending NIC RX bytes fit in u32 offsets");
        let rec = match self.free.pop() {
            Some(r) => r,
            None => {
                self.recs.push(FREE);
                u32::try_from(self.recs.len() - 1).expect("records fit in u32")
            }
        };
        self.recs[rec as usize] = off;
        let len = u32::try_from(payload.len()).expect("payload fits in u32");
        self.bytes.extend_from_slice(&seq.to_le_bytes());
        self.bytes.extend_from_slice(&len.to_le_bytes());
        self.bytes.extend_from_slice(&rec.to_le_bytes());
        self.bytes.extend_from_slice(payload);
        if corrupt && !payload.is_empty() {
            self.bytes[off as usize + HEADER] ^= 0xff;
        }
        self.live += HEADER + payload.len();
        rec
    }

    /// Removes record `rec`'s packet, copying its payload into `out`;
    /// returns its seq.
    fn take(&mut self, rec: u32, out: &mut Vec<u8>) -> u64 {
        let off = self.recs[rec as usize] as usize;
        self.recs[rec as usize] = FREE;
        self.free.push(rec);
        let seq = u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"));
        let len = self.u32_at(off + 8) as usize;
        out.clear();
        out.extend_from_slice(&self.bytes[off + HEADER..off + HEADER + len]);
        self.live -= HEADER + len;
        if self.live == 0 {
            self.bytes.clear();
        } else if self.bytes.len() - self.live > self.live {
            self.compact();
        }
        seq
    }

    /// Slides every live packet down over the landed ones, in arena
    /// order. A chunk is live when its record still points at it.
    /// Linear in the arena, which is under twice the dead bytes.
    fn compact(&mut self) {
        let (mut rd, mut wr) = (0, 0);
        while rd < self.bytes.len() {
            let len = HEADER + self.u32_at(rd + 8) as usize;
            let rec = self.u32_at(rd + 12) as usize;
            if self.recs[rec] as usize == rd {
                self.bytes.copy_within(rd..rd + len, wr);
                self.recs[rec] = wr as u32;
                wr += len;
            }
            rd += len;
        }
        self.bytes.truncate(wr);
    }

    fn host_bytes(&self) -> usize {
        self.bytes.capacity() + 4 * (self.recs.capacity() + self.free.capacity())
    }
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
        let ring = Ring {
            slot_mask: config.rx_slots - 1,
            buf_bytes: config.buf_bytes,
            rx_tail,
            ring_base,
            buf_base,
            rx_packets: m.counters_mut().id("nic.rx.packets"),
        };
        let pending = Rc::new(RefCell::new(RxPending::default()));
        let store = Rc::clone(&pending);
        // The payload is copied out before landing, so the handler holds
        // no borrow while the machine runs: a hook that schedules more
        // packets from inside a delivery is fine.
        let mut payload = Vec::new();
        let device = m.register_device(move |mach, _, rec| {
            let seq = store.borrow_mut().take(rec as u32, &mut payload);
            ring.deliver(mach, seq, &payload);
        });
        Ok(Nic {
            config,
            rx_tail,
            ring_base,
            buf_base,
            ring,
            device,
            pending,
        })
    }

    /// Address of descriptor slot `seq`.
    #[must_use]
    pub fn desc_addr(&self, seq: u64) -> u64 {
        self.ring.desc_addr(seq)
    }

    /// Address of the payload buffer for slot `seq`.
    #[must_use]
    pub fn buf_addr(&self, seq: u64) -> u64 {
        self.ring.buf_addr(seq)
    }

    /// Schedules arrival of packet number `seq` (the caller keeps the
    /// monotone sequence) with `payload` at absolute time `at`.
    ///
    /// The DMA completes (and the tail bumps) at `at + dma_latency`.
    /// The payload (cut to `buf_bytes`) waits in the NIC's pending
    /// storage until then; no per-packet allocation.
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
        let payload = &payload[..payload.len().min(self.config.buf_bytes as usize)];
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
        let corrupt = m.fault_draw(FaultKind::NicCorrupt);
        let mut deliver_at = at + self.config.dma_latency;
        if m.fault_draw(FaultKind::NicStall) {
            deliver_at += m.fault_delay(FaultKind::NicStall);
        }
        let rec = self.pending.borrow_mut().push(seq, payload, corrupt);
        m.at_device(deliver_at, self.device, u64::from(rec));
    }

    /// Reads the current tail value (host-side, for tests).
    #[must_use]
    pub fn tail(&self, m: &Machine) -> u64 {
        m.peek_u64(self.rx_tail)
    }

    /// Packets scheduled and not yet landed or dropped.
    #[must_use]
    pub fn rx_pending(&self) -> usize {
        let p = self.pending.borrow();
        p.recs.len() - p.free.len()
    }

    /// Host bytes the pending storage holds (capacity, not use).
    #[must_use]
    pub fn rx_pending_host_bytes(&self) -> usize {
        self.pending.borrow().host_bytes()
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
                .try_with_burst(FaultKind::NicStall, 1.0, Cycles(0), Cycles(1))
                .expect("a one-cycle burst is valid")
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

    /// The per-packet delivery [`Nic::schedule_rx`] replaced, kept as
    /// the oracle the device path is diffed against: each packet
    /// registers a one-shot device whose handler owns a copy of the ring
    /// and its own payload `Vec`, outside the NIC's pending storage.
    fn schedule_rx_closure(nic: &Nic, m: &mut Machine, at: Cycles, seq: u64, payload: &[u8]) {
        let ring = nic.ring;
        let len = payload.len().min(ring.buf_bytes as usize);
        let mut payload: Vec<u8> = payload[..len].to_vec();
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
        let once = m.register_device(move |mach, _, _| {
            mach.dma_write(ring.buf_addr(seq), &payload);
            let mut desc = [0u8; RX_DESC_BYTES as usize];
            desc[..8].copy_from_slice(&ring.buf_addr(seq).to_le_bytes());
            desc[8..].copy_from_slice(
                &(((payload.len() as u64) << 32) | (seq & 0xffff_ffff)).to_le_bytes(),
            );
            mach.dma_write(ring.desc_addr(seq), &desc);
            let tail = (seq + 1).max(mach.peek_u64(ring.rx_tail));
            mach.dma_write(ring.rx_tail, &tail.to_le_bytes());
            mach.counters_mut().bump(ring.rx_packets, 1);
            let led = mach.ledger("nic.rx");
            led.in_flight -= 1;
            led.completed += 1;
        });
        m.at_device(deliver_at, once, 0);
    }

    type Rx = fn(&Nic, &mut Machine, Cycles, u64, &[u8]);

    /// F17's shape: a periodic device schedules each packet (its `arg`
    /// is the seq, from 500 to 559) and then its own next event.
    fn pump(m: &mut Machine, rx: Rx, nic: Nic, at: Cycles) {
        let dev = m.register_device(move |mach, me, seq| {
            let at = mach.now();
            rx(&nic, mach, at, seq, &[seq as u8; 20]);
            if seq + 1 < 560 {
                mach.at_device(at + Cycles(437), me, seq + 1);
            }
        });
        m.at_device(at, dev, 500);
    }

    /// Everything a run can observe: clock, counters, the `nic.rx`
    /// ledger, host-side tail reads, thread states and registers, the
    /// thread-transition trace (wake order) and the whole memory image.
    fn rx_scenario(rx: Rx) -> String {
        use std::cell::RefCell;
        use std::fmt::Write as _;
        use std::rc::Rc;
        let mut m = Machine::new(MachineConfig::small());
        m.trace_mut().set_enabled(true);
        m.install_fault_plan(
            FaultPlan::new(21)
                .with_rate(FaultKind::NicDrop, 0.15)
                .with_rate(FaultKind::NicCorrupt, 0.2)
                .with_rate(FaultKind::NicStall, 0.2)
                .with_delay(FaultKind::NicStall, Cycles(100), Cycles(3_000)),
        );
        let nic = Nic::attach(
            &mut m,
            NicConfig {
                rx_slots: 16,
                ..NicConfig::default()
            },
        );
        // Two consumers park on the tail; a compute loop keeps slot
        // events queued at most cycles, so deliveries tie with them.
        let mut tids = Vec::new();
        for base in [0x10000u64, 0x11000] {
            let prog = assemble(&format!(
                r#"
                .base {base:#x}
                entry:
                    movi r1, 0
                wait:
                    monitor {tail}
                    ld r2, {tail}
                    bne r2, r1, fresh
                    mwait
                    jmp wait
                fresh:
                    addi r1, r2, 0
                    ld r4, {buf}
                    add r5, r5, r4
                    addi r3, r3, 1
                    jmp wait
                "#,
                tail = nic.rx_tail,
                buf = nic.buf_addr(0),
            ))
            .unwrap();
            tids.push(m.load_program(0, &prog).unwrap());
        }
        let prog =
            assemble(".base 0x12000\nentry:\n addi r1, r1, 1\n work 7\n jmp entry\n").unwrap();
        tids.push(m.load_program(0, &prog).unwrap());
        for &t in &tids {
            m.start_thread(t);
        }
        // Host observers due in the same cycle as each on-time delivery,
        // scheduled after it: they must see it landed.
        let seen: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        let (s, tail) = (Rc::clone(&seen), nic.rx_tail);
        let observer = m.register_device(move |mach, _, _| {
            s.borrow_mut().push((mach.now().0, mach.peek_u64(tail)));
        });
        for seq in 0..300u64 {
            let at = Cycles(2_000 + seq * 151);
            let len = 1 + (seq as usize * 7) % 40;
            rx(&nic, &mut m, at, seq, &vec![seq as u8; len]);
            m.at_device(at + nic.config.dma_latency, observer, 0);
        }
        // Re-entrancy: the tail write of a delivery schedules another
        // packet (a duplicate of the newest slot, so the tail does not
        // jump) from inside that delivery, once per new tail value.
        let hook_nic = nic.clone();
        let hooked = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let h = Rc::clone(&hooked);
        m.register_mmio(nic.rx_tail, move |mach, tail| {
            let (last, n) = h.get();
            if tail % 5 == 0 && tail != last {
                h.set((tail, n + 1));
                let now = mach.now();
                rx(&hook_nic, mach, now + Cycles(40), tail - 1, &[0x5a; 12]);
            }
        });
        pump(&mut m, rx, nic.clone(), Cycles(50_000));
        m.run_for(Cycles(120_000));

        let mut out = String::new();
        let _ = writeln!(out, "now={:?} tail={}", m.now(), nic.tail(&m));
        let _ = writeln!(out, "hooked={}", hooked.get().1);
        for (name, v) in m.counters().iter() {
            let _ = writeln!(out, "ctr {name}={v}");
        }
        let _ = writeln!(out, "ledger {:?}", *m.ledger("nic.rx"));
        let _ = writeln!(out, "seen {:?}", seen.borrow());
        for &t in &tids {
            let regs: Vec<u64> = (0..6).map(|r| m.thread_reg(t, r)).collect();
            let _ = writeln!(out, "thread {:?} {regs:?}", m.thread_state(t));
        }
        for r in m.trace().snapshot() {
            let _ = writeln!(out, "{r}");
        }
        let mut image = switchless_sim::chaos::Digest::new();
        for a in (0..m.config().mem_bytes).step_by(8) {
            image.push_u64(m.peek_u64(a));
        }
        let _ = writeln!(out, "memory {:#x}", image.finish());
        out
    }

    #[test]
    fn device_delivery_matches_the_closure_reference() {
        let device = rx_scenario(Nic::schedule_rx);
        let reference = rx_scenario(schedule_rx_closure);
        assert_eq!(device, reference);
        // The scenario exercised what it claims to.
        for probe in [
            "ctr fault.nic.drop=",
            "ctr fault.nic.corrupt=",
            "ctr fault.nic.stall=",
        ] {
            let line = device.lines().find(|l| l.starts_with(probe));
            assert!(
                line.is_some_and(|l| !l.ends_with("=0")),
                "{probe} fired: {line:?}"
            );
        }
        let m_rx = device
            .lines()
            .find_map(|l| l.strip_prefix("ctr nic.rx.packets="))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        assert!(m_rx > 330, "trace, pump and hook packets landed: {m_rx}");
        let hooked = device
            .lines()
            .find_map(|l| l.strip_prefix("hooked="))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        assert!(hooked > 10, "deliveries scheduled packets: {hooked}");
        assert!(device.contains("Wake"), "consumers woke: trace has wakes");
    }

    #[test]
    fn pending_storage_drains_and_reuses_records() {
        let mut m = Machine::new(MachineConfig::small());
        m.install_fault_plan(
            FaultPlan::new(5)
                .with_rate(FaultKind::NicStall, 0.3)
                .with_delay(FaultKind::NicStall, Cycles(1), Cycles(20_000)),
        );
        let nic = Nic::attach(&mut m, NicConfig::default());
        for seq in 0..64 {
            nic.schedule_rx(&mut m, Cycles(100 * seq), seq, &[seq as u8; 48]);
        }
        assert_eq!(nic.rx_pending(), 64);
        let records = nic.pending.borrow().recs.len();
        m.run_for(Cycles(50_000));
        assert_eq!(nic.rx_pending(), 0);
        assert_eq!(m.counters().get("nic.rx.packets"), 64);
        assert!(nic.pending.borrow().bytes.is_empty(), "arena emptied");
        let now = m.now();
        for seq in 64..128 {
            nic.schedule_rx(&mut m, now + Cycles(seq), seq, &[1; 48]);
        }
        assert_eq!(nic.pending.borrow().recs.len(), records, "records reused");
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
