//! Property tests on the core data structures and invariants.
//!
//! Each property runs over a fixed range of seeds of `sim::rng` (the
//! seeded-loop pattern of `crates/sim/tests/event_fuzz.rs`), so a
//! failure names its seed and replays exactly.

use std::collections::HashSet;

use switchless::core::perm::{Perms, TdtEntry};
use switchless::core::store::{StateStore, StoreConfig, Tier};
use switchless::core::tid::Ptid;
use switchless::isa::asm::assemble;
use switchless::isa::disasm::disassemble;
use switchless::isa::inst::Inst;
use switchless::mem::monitor::{CamFilter, HashFilter, MonitorFilter, WatchId};
use switchless::mem::PAddr;
use switchless::sim::rng::Rng;
use switchless::sim::stats::Histogram;
use switchless::sim::time::Cycles;
use switchless::wl::queue::{Discipline, QueueConfig, QueueSim};

/// Seeds per cheap property.
const SEEDS: u64 = 256;

/// A random instruction word: all 64 bits random, or a random word with
/// an opcode byte below 0x50, where every defined opcode lives (most of
/// those decode).
fn random_word(rng: &mut Rng) -> u64 {
    let w = rng.next_u64();
    if rng.chance(0.5) {
        w
    } else {
        (w & !(0xff << 56)) | (rng.next_below(0x50) << 56)
    }
}

/// `len` in `lo..=hi` watches `(addr, len)` in `[0, 10_000) x [1, 64)`.
fn random_watches(rng: &mut Rng, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    (0..rng.next_range(lo, hi))
        .map(|_| (rng.next_below(10_000), rng.next_range(1, 63)))
        .collect()
}

/// Every decodable instruction word re-encodes to itself.
#[test]
fn inst_decode_encode_roundtrip() {
    let mut rng = Rng::seed_from(0x1d0c);
    for _ in 0..64 * SEEDS {
        let word = random_word(&mut rng);
        if let Ok(inst) = Inst::decode(word) {
            let back = Inst::decode(inst.encode()).expect("re-encoded word decodes");
            assert_eq!(inst, back, "word {word:#x}");
        }
    }
}

/// Disassembling any decodable instruction produces text the assembler
/// accepts and that round-trips to the same instruction.
#[test]
fn disasm_reassembles() {
    let mut rng = Rng::seed_from(0xd15a);
    for _ in 0..16 * SEEDS {
        let word = random_word(&mut rng);
        if let Ok(inst) = Inst::decode(word) {
            let text = disassemble(inst);
            let p = assemble(&format!("entry: {text}\n"))
                .unwrap_or_else(|e| panic!("'{text}' failed to assemble: {e}"));
            let back = Inst::decode(p.words[0]).expect("assembled word decodes");
            assert_eq!(inst, back, "word {word:#x}: '{text}'");
        }
    }
}

/// FNV-1a digest of everything the ISA derives from an instruction word,
/// pinned so that a change to the encoder, decoder or disassembler that
/// moves a single byte fails here. Every opcode byte 0..=255 is paired
/// with the all-zero and all-one low 56 bits and 64 seeded random
/// patterns; each word contributes the `Debug` of its decode and, when
/// it decodes, the re-encoded word and the disassembly. The all-one and
/// random patterns pin the field masking: u16 operands keep the low 16
/// bits, `work` the low 32, a `RegSel` the low 8 (`BadOperand` of those
/// 8 bits) and a CSR the whole `imm44` (`BadOperand` of its low byte).
#[test]
fn isa_golden_digest() {
    const LOW56: u64 = (1 << 56) - 1;
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut rng = Rng::seed_from(0x150_601d);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for opc in 0..=255u64 {
        let mut lows = vec![0, LOW56];
        lows.extend((0..64).map(|_| rng.next_u64() & LOW56));
        for low in lows {
            let decoded = Inst::decode(opc << 56 | low);
            fnv(&mut h, format!("{decoded:?}").as_bytes());
            if let Ok(inst) = decoded {
                fnv(&mut h, &inst.encode().to_le_bytes());
                fnv(&mut h, disassemble(inst).as_bytes());
            }
        }
    }
    assert_eq!(h, 0x0689_558c_98c4_621a, "ISA golden digest moved");
}

/// TDT entries survive the memory encoding.
#[test]
fn tdt_entry_roundtrip() {
    let mut rng = Rng::seed_from(0x7d7);
    for _ in 0..SEEDS {
        let e = TdtEntry {
            ptid: Ptid(rng.next_u64() as u32),
            perms: Perms(rng.next_below(16) as u8),
            valid: rng.chance(0.5),
        };
        assert_eq!(TdtEntry::decode(e.encode()), e);
    }
}

/// Histogram quantiles are within 3% of an exact sorted reference.
#[test]
fn histogram_quantiles_match_reference() {
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from(0x4157_0000 + seed);
        let mut values: Vec<u64> = (0..rng.next_range(50, 399))
            .map(|_| rng.next_range(1, 999_999))
            .collect();
        let q = 0.01 + 0.989 * rng.next_f64();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let got = h.quantile(q);
        let err = (got as f64 - exact as f64).abs() / exact as f64;
        assert!(err < 0.03, "seed {seed}: q={q} got={got} exact={exact}");
    }
}

/// The CAM monitor filter never misses an armed write (no lost
/// wakeups), and never wakes a watcher whose range is disjoint.
#[test]
fn cam_filter_exact_semantics() {
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from(0xca40_0000 + seed);
        let watches = random_watches(&mut rng, 1, 49);
        let (store_addr, store_len) = (rng.next_below(10_064), rng.next_range(1, 63));
        let mut f = CamFilter::new(256);
        for (i, &(a, l)) in watches.iter().enumerate() {
            f.arm(WatchId(i as u64), PAddr(a), l)
                .expect("capacity is sufficient");
        }
        let mut out = Vec::new();
        f.on_store(PAddr(store_addr), store_len, &mut out);
        for (i, &(a, l)) in watches.iter().enumerate() {
            let overlap = store_addr < a + l && a < store_addr + store_len;
            let woken = out.iter().any(|w| w.watcher == WatchId(i as u64));
            assert_eq!(overlap, woken, "seed {seed}: watch {i} at ({a},{l})");
        }
    }
}

/// The hashed filter is *conservative*: it may false-wake, but every
/// genuinely overlapping watch is woken (no lost wakeups).
#[test]
fn hash_filter_never_loses_wakeups() {
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from(0x4a54_0000 + seed);
        let watches = random_watches(&mut rng, 1, 49);
        let (store_addr, store_len) = (rng.next_below(10_064), rng.next_range(1, 63));
        let mut f = HashFilter::new();
        for (i, &(a, l)) in watches.iter().enumerate() {
            f.arm(WatchId(i as u64), PAddr(a), l).expect("unbounded");
        }
        let mut out = Vec::new();
        f.on_store(PAddr(store_addr), store_len, &mut out);
        for (i, &(a, l)) in watches.iter().enumerate() {
            if store_addr < a + l && a < store_addr + store_len {
                assert!(
                    out.iter().any(|w| w.watcher == WatchId(i as u64)),
                    "seed {seed}: lost wakeup for watch {i} at ({a},{l})"
                );
            }
        }
    }
}

/// State-store tier accounting is conserved: every registered thread is
/// in exactly one tier and occupancies sum correctly.
#[test]
fn state_store_conservation() {
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from(0x5707_0000 + seed);
        let mut s = StateStore::new(StoreConfig {
            rf_threads: 4,
            l2_threads: 8,
            l3_threads: 16,
            ..StoreConfig::default()
        });
        let mut registered = HashSet::new();
        for _ in 0..rng.next_range(1, 199) {
            let t = rng.next_below(40) as u32;
            s.activate(Ptid(t), rng.next_below(8) as u8, 160);
            registered.insert(t);
        }
        let total = [Tier::Rf, Tier::L2, Tier::L3, Tier::Dram]
            .iter()
            .map(|&t| s.occupancy(t))
            .sum::<usize>();
        assert_eq!(total, registered.len(), "seed {seed}");
        assert!(s.occupancy(Tier::Rf) <= 4, "seed {seed}");
        assert!(s.occupancy(Tier::L2) <= 8, "seed {seed}");
        assert!(s.occupancy(Tier::L3) <= 16, "seed {seed}");
    }
}

/// Queueing simulator conserves work: with no overheads, busy cycles
/// equal total service, and every job completes.
#[test]
fn queue_sim_conserves_work() {
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from(0x9e9e_0000 + seed);
        let jobs: Vec<(Cycles, Cycles)> = (0..rng.next_range(1, 199))
            .map(|_| {
                (
                    Cycles(rng.next_below(100_000)),
                    Cycles(rng.next_range(1, 4_999)),
                )
            })
            .collect();
        let cfg = QueueConfig {
            servers: rng.next_range(1, 4) as usize,
            discipline: if rng.chance(0.5) {
                Discipline::Fcfs
            } else {
                Discipline::Rr {
                    quantum: Cycles(500),
                }
            },
            wakeup_overhead: Cycles::ZERO,
            dispatch_overhead: Cycles::ZERO,
        };
        let r = QueueSim::run(&cfg, &jobs, Cycles::ZERO);
        assert_eq!(r.completed, jobs.len() as u64, "seed {seed}");
        let total: u64 = jobs.iter().map(|&(_, s)| s.0).sum();
        assert_eq!(r.busy_cycles, total, "seed {seed}");
        // Sojourn of any job is at least the shortest service time.
        let min_service = jobs.iter().map(|&(_, s)| s.0).min().unwrap_or(0);
        assert!(r.sojourn.min() >= min_service, "seed {seed}");
    }
}

/// Assembler: labels always resolve to 8-byte-aligned addresses inside
/// the image, and the entry point is within the image.
#[test]
fn assembler_label_invariants() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(0xa5e0_0000 + seed);
        let n_words = rng.next_range(1, 29);
        let mut src = String::new();
        for i in 0..n_words {
            src.push_str(&format!("l{i}: .word {i}\n"));
        }
        src.push_str("entry: halt\n");
        let p = assemble(&src).expect("assembles");
        let target = rng.next_below(n_words);
        let addr = p.symbol(&format!("l{target}")).expect("symbol exists");
        assert_eq!(addr % 8, 0, "seed {seed}");
        assert!(addr >= p.base && addr < p.end(), "seed {seed}");
        assert!(p.entry >= p.base && p.entry < p.end(), "seed {seed}");
    }
}
