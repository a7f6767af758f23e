//! Machine soundness under arbitrary programs.
//!
//! Property: feeding the machine *any* sequence of decodable instruction
//! words — including privileged ops from user mode, stores to arbitrary
//! addresses, jumps and CSR writes with huge register values,
//! `start`/`stop` through garbage TDTs, huge `work` bursts and
//! self-jumps — must never panic the simulator, corrupt accounting, or
//! break determinism. Faults must land as descriptors (or deliberate
//! machine halts), exactly like real hardware containing bad software.
//! And the garbage must run identically on both engines: the fast
//! engine may change wall-clock time, never the outcome.
//!
//! Each property runs over a fixed range of seeds of `sim::rng`, so a
//! failure names its seed and replays exactly.

use switchless::core::machine::{Engine, Machine, MachineConfig, ThreadId};
use switchless::core::tid::ThreadState;
use switchless::isa::asm::{assemble, Program};
use switchless::isa::inst::Inst;
use switchless::sim::chaos::Digest;
use switchless::sim::rng::Rng;
use switchless::sim::time::Cycles;

/// Seeds per property.
const SEEDS: u64 = 64;

/// Defined opcode bytes.
const OPCODES: [std::ops::RangeInclusive<u64>; 5] = [
    0x01..=0x0c,
    0x10..=0x15,
    0x20..=0x29,
    0x30..=0x32,
    0x40..=0x4c,
];

/// A garbage program: raw words plus every thread's starting registers.
struct Garbage {
    words: Vec<u64>,
    regs: [u64; 16],
}

/// `1..=max` random words and random registers. Half the words keep all
/// 64 random bits; the other half are shaped like instructions — a
/// defined opcode, registers r0–r3, and an immediate that is small,
/// small negative, a slot of the low program image, or wide — so they
/// decode. Half the registers start near the top of the address space,
/// so jumps, control-register writes, monitors and TDT lookups meet
/// addresses whose arithmetic overflows.
fn garbage(seed: u64, max: u64) -> Garbage {
    let mut rng = Rng::seed_from(seed);
    let words = (0..rng.next_range(1, max))
        .map(|_| {
            if rng.chance(0.5) {
                return rng.next_u64();
            }
            let ops = rng.choose(&OPCODES).expect("non-empty").clone();
            let imm = match rng.next_below(4) {
                0 => rng.next_below(8),
                1 => (1 << 44) - 1 - rng.next_below(16),
                2 => 0x10000 + 8 * rng.next_below(64),
                _ => rng.next_below(1 << 44),
            };
            (rng.next_range(*ops.start(), *ops.end()) << 56)
                | (rng.next_below(4) << 52)
                | (rng.next_below(4) << 48)
                | (rng.next_below(4) << 44)
                | imm
        })
        .collect();
    let regs = std::array::from_fn(|_| {
        if rng.chance(0.5) {
            u64::MAX - rng.next_below(64)
        } else {
            rng.next_below(0x20000)
        }
    });
    Garbage { words, regs }
}

/// Builds a program image from arbitrary words, keeping only ones that
/// decode, and capping `work` bursts so runs stay fast.
fn sanitize(words: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = words
        .iter()
        .filter_map(|&w| {
            Inst::decode(w).ok().map(|i| match i {
                Inst::Work { cycles } => Inst::Work {
                    cycles: cycles % 10_000,
                }
                .encode(),
                _ => w,
            })
        })
        .collect();
    if out.is_empty() {
        out.push(Inst::Nop.encode());
    }
    out.push(Inst::Halt.encode());
    out
}

/// Loads the garbage at `base` and starts one thread on `core` at every
/// word — a fault ends only its own thread, so every instruction gets
/// executed — each with the garbage registers and a descriptor slot.
fn spawn(m: &mut Machine, core: usize, base: u64, g: &Garbage, user: bool) -> Vec<ThreadId> {
    let prog = Program::from_words(base, sanitize(&g.words));
    m.load_image(&prog).expect("image fits");
    (0..prog.words.len() as u64)
        .map(|i| {
            let tid = m
                .spawn_at(core, base + 8 * i, !user)
                .expect("a free thread");
            for (r, &v) in g.regs.iter().enumerate() {
                m.set_thread_reg(tid, r, v);
            }
            let edp = m.alloc(32);
            m.set_thread_edp(tid, edp);
            m.start_thread(tid);
            tid
        })
        .collect()
}

fn run_machine(g: &Garbage, user: bool) -> (u64, u64, Option<String>) {
    let mut m = Machine::new(MachineConfig::small());
    let tids = spawn(&mut m, 0, 0x10000, g, user);
    m.run_for(Cycles(200_000));
    (
        m.counters().get("inst.executed"),
        tids.iter().map(|&t| m.billed_cycles(t).0).sum(),
        m.halted_reason().map(str::to_owned),
    )
}

/// The machine never panics on arbitrary user-mode programs, and two
/// identical runs are identical.
#[test]
fn arbitrary_user_programs_are_contained() {
    for seed in 0..SEEDS {
        let g = garbage(0x05e0_0000 + seed, 60);
        let a = run_machine(&g, true);
        let b = run_machine(&g, true);
        assert_eq!(a, b, "seed {seed}: determinism violated");
        // Accounting sanity: billed cycles only if instructions ran.
        if a.1 > 0 {
            assert!(a.0 > 0, "seed {seed}: billed cycles without instructions");
        }
    }
}

/// Supervisor-mode garbage is also contained (it can halt the machine
/// via an unhandled fault — that is deliberate — but must never panic
/// the simulator).
#[test]
fn arbitrary_supervisor_programs_are_contained() {
    for seed in 0..SEEDS {
        let _ = run_machine(&garbage(0x5e50_0000 + seed, 60), false);
    }
}

/// A garbage program can never disturb a healthy sibling thread: the
/// sibling's result is bit-identical with and without the intruder,
/// unless the intruder legitimately halts the machine first.
#[test]
fn garbage_cannot_corrupt_sibling_results() {
    let healthy = assemble(
        r#"
        .base 0x40000
        entry:
            movi r1, 100
            movi r2, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        "#,
    )
    .unwrap();
    let run = |g: Option<&Garbage>| -> (bool, u64, bool) {
        let mut m = Machine::new(MachineConfig::small());
        let ht = m.load_program(0, &healthy).unwrap();
        if let Some(g) = g {
            spawn(&mut m, 0, 0x10000, g, true);
        }
        m.start_thread(ht);
        m.run_for(Cycles(500_000));
        let done = m.thread_state(ht) == ThreadState::Halted;
        (done, m.thread_reg(ht, 2), m.halted_reason().is_some())
    };
    let clean = run(None);
    assert!(clean.0, "healthy thread finishes alone");
    assert_eq!(clean.1, 5050);
    for seed in 0..SEEDS {
        let dirty = run(Some(&garbage(0x51b0_0000 + seed, 40)));
        if !dirty.2 {
            // Machine survived the garbage: the sibling's answer must be
            // untouched (the garbage is user-mode and cannot write the
            // sibling's registers; it CAN write shared memory, but the
            // healthy program keeps everything in registers).
            assert!(dirty.0, "seed {seed}: sibling starved by garbage thread");
            assert_eq!(dirty.1, 5050, "seed {seed}: sibling result corrupted");
        }
    }
}

/// Garbage on a 2-core machine, one copy per core, digests identically
/// on the reference and fast engines (the fast engine runs the epoch
/// engine on every multi-core machine).
#[test]
fn garbage_digests_identically_on_both_engines() {
    for seed in 0..SEEDS {
        let g = garbage(0xe9e0_0000 + seed, 60);
        let user = seed % 2 == 1;
        let run = |engine: Engine| -> u64 {
            let mut m = Machine::new(MachineConfig {
                cores: 2,
                ..MachineConfig::small()
            });
            m.set_engine(engine);
            let mut tids = spawn(&mut m, 0, 0x10000, &g, user);
            tids.extend(spawn(&mut m, 1, 0x20000, &g, user));
            m.run_for(Cycles(200_000));
            let mut d = Digest::new();
            d.push_u64(m.now().0);
            d.push_str(m.halted_reason().unwrap_or("running"));
            for (name, v) in m.counters().iter() {
                d.push_str(name);
                d.push_u64(v);
            }
            for tid in tids {
                for r in 0..16 {
                    d.push_u64(m.thread_reg(tid, r));
                }
                d.push_u64(m.thread_pc(tid));
                d.push_u64(m.thread_state(tid) as u64);
            }
            for addr in (0..0x40000).step_by(8) {
                d.push_u64(m.peek_u64(addr));
            }
            d.finish()
        };
        assert_eq!(
            run(Engine::Reference),
            run(Engine::Fast),
            "seed {seed}: digests diverged between the reference and fast engines"
        );
    }
}
