//! Differential fuzz for the superblock engine: seeded random guest
//! programs — inert ALU runs, bounded loops (the shape that forms
//! superblocks), data stores, and self-modifying stores that splat
//! random words over the program's own first slots — run on two
//! machines that differ *only* in the engine: `Engine::Reference`
//! (single-step) and `Engine::Fast` (superblocks). Final machine
//! digests (every architectural register, pc, thread state, `now`,
//! executed-instruction count, and the full code + data memory) must
//! be bit-identical: superblocks may change wall-clock time, never
//! simulated state.
//!
//! The generator deliberately includes programs that decode garbage
//! (a random word stored over upcoming code can fail to decode, fault
//! the thread, and — with no exception descriptor installed — halt the
//! machine): every such path must still digest identically.

use switchless_core::machine::{Engine, Machine, MachineConfig};
use switchless_isa::asm::assemble;
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

/// Builds a random guest program: a handful of counted loops whose
/// bodies mix inert ALU ops, data stores through `r7`, and occasional
/// random-word stores into the program's own low slots.
fn random_program(rng: &mut Rng) -> String {
    let mut src = String::from(
        ".base 0x10000\n\
         entry: movi r7, 0x20000\n\
         movi r6, ",
    );
    // Loop trip counts comfortably past the heat threshold, so blocks
    // form mid-run and keep executing after they do.
    src.push_str(&format!("{}\n", 24 + rng.next_below(200)));
    let nloops = 2 + rng.next_below(4);
    for l in 0..nloops {
        src.push_str(&format!("movi r5, 0\nl{l}:\n"));
        let body = 2 + rng.next_below(6);
        for _ in 0..body {
            let d = 1 + rng.next_below(4);
            let a = 1 + rng.next_below(4);
            let b = 1 + rng.next_below(4);
            match rng.next_below(12) {
                0..=2 => src.push_str(&format!("addi r{d}, r{a}, {}\n", rng.next_below(64))),
                3 => src.push_str(&format!("add r{d}, r{a}, r{b}\n")),
                4 => src.push_str(&format!("xor r{d}, r{a}, r{b}\n")),
                5 => src.push_str(&format!("mul r{d}, r{a}, r{b}\n")),
                6 => src.push_str(&format!("shl r{d}, r{a}, r{b}\n")),
                7 => src.push_str(&format!("movi r{d}, {}\n", rng.next_below(1024))),
                8 => src.push_str(&format!("mov r{d}, r{a}\n")),
                9 => src.push_str("nop\n"),
                // A data store: not inert, so it caps any region formed
                // from the slots before it.
                10 => src.push_str(&format!("st r{a}, r7, {}\n", 8 * rng.next_below(8))),
                // A self-modifying store: splat a random small word over
                // one of the program's first slots. The overwritten
                // word may decode to anything (or nothing — a fault);
                // both machines must agree exactly.
                _ => {
                    src.push_str(&format!("movi r4, {}\n", rng.next_below(0xffff)));
                    src.push_str(&format!("movi r8, {}\n", 0x10000 + 8 * rng.next_below(16)));
                    src.push_str("st r4, r8, 0\n");
                }
            }
        }
        src.push_str(&format!("addi r5, r5, 1\nblt r5, r6, l{l}\n"));
    }
    src.push_str("halt\n");
    src
}

/// Full observable digest of a machine after a run.
fn digest(m: &Machine, tid: switchless_core::machine::ThreadId, code_end: u64) -> Vec<u64> {
    let mut d = Vec::new();
    for r in 0..16 {
        d.push(m.thread_reg(tid, r));
    }
    d.push(m.thread_pc(tid));
    d.push(m.thread_state(tid) as u64);
    d.push(m.now().0);
    d.push(m.counters().get("inst.executed"));
    d.push(u64::from(m.halted_reason().is_some()));
    let mut addr = 0x10000;
    while addr < code_end {
        d.push(m.peek_u64(addr));
        addr += 8;
    }
    for i in 0..16 {
        d.push(m.peek_u64(0x20000 + 8 * i));
    }
    d
}

fn fuzz_once(seed: u64, run: Cycles) {
    let mut rng = Rng::seed_from(seed);
    let src = random_program(&mut rng);
    let prog = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: bad program: {e:?}\n{src}"));
    let run_one = |engine: Engine| {
        let mut m = Machine::new(MachineConfig::small());
        m.set_engine(engine);
        let tid = m.load_program(0, &prog).expect("load");
        m.start_thread(tid);
        m.run_for(run);
        digest(&m, tid, prog.end())
    };
    assert_eq!(
        run_one(Engine::Fast),
        run_one(Engine::Reference),
        "seed {seed}: digests diverged between the fast and reference engines\n{src}"
    );
}

#[test]
fn random_programs_digest_identically_with_and_without_superblocks() {
    for seed in 0..24 {
        fuzz_once(seed, Cycles(100_000));
    }
}

#[test]
fn long_run_digests_identically() {
    fuzz_once(0xb10c, Cycles(2_000_000));
}

/// Builds a random per-core program for the epoch engine: counted loops
/// whose bodies mix ALU ops with loads and stores inside the core's own
/// memory domain (through `r7`), plus occasional loads and stores to a
/// shared word outside every domain (through `r9`) — a load there reads
/// the frozen epoch image, a store there bails the epoch.
fn random_domain_program(rng: &mut Rng, base: u64, buf: u64, shared: u64) -> String {
    let mut src = format!(
        ".base {base:#x}\nentry: movi r7, {buf:#x}\nmovi r9, {shared:#x}\nmovi r6, {}\n",
        24 + rng.next_below(200)
    );
    for l in 0..2 + rng.next_below(3) {
        src.push_str(&format!("movi r5, 0\nl{l}:\n"));
        for _ in 0..2 + rng.next_below(6) {
            let d = 1 + rng.next_below(4);
            let a = 1 + rng.next_below(4);
            let b = 1 + rng.next_below(4);
            let off = 8 * rng.next_below(16);
            match rng.next_below(16) {
                0..=2 => src.push_str(&format!("addi r{d}, r{a}, {}\n", rng.next_below(64))),
                3 => src.push_str(&format!("add r{d}, r{a}, r{b}\n")),
                4 => src.push_str(&format!("xor r{d}, r{a}, r{b}\n")),
                5 => src.push_str(&format!("mul r{d}, r{a}, r{b}\n")),
                6 => src.push_str(&format!("work {}\n", rng.next_below(32))),
                7..=9 => src.push_str(&format!("ld r{d}, r7, {off}\n")),
                10..=12 => src.push_str(&format!("st r{a}, r7, {off}\n")),
                13 => src.push_str(&format!("ldb r{d}, r7, {}\n", rng.next_below(128))),
                14 => src.push_str(&format!("ld r{d}, r9, 0\n")),
                _ => src.push_str(&format!("st r{a}, r9, 0\n")),
            }
        }
        src.push_str(&format!("addi r5, r5, 1\nblt r5, r6, l{l}\n"));
    }
    src.push_str("halt\n");
    src
}

/// The epoch workers' side of the one interpreter: four cores, each
/// running its own random program against its own memory domain, digest
/// identically on `Engine::Reference` and on `Engine::Fast` (epoch
/// workers, superblocks consumed read-only) at one and two worker
/// threads.
#[test]
fn multicore_domain_programs_digest_identically_on_epoch_workers() {
    const CORES: usize = 4;
    for seed in 0..12 {
        let mut rng = Rng::seed_from(0xe90c_0000 + seed);
        let bases: Vec<u64> = (0..CORES as u64).map(|c| 0x10000 + c * 0x4000).collect();
        let (bufs, shared): (Vec<u64>, u64) = {
            let mut m = Machine::new(MachineConfig::small());
            let bufs = (0..CORES).map(|_| m.alloc(4096)).collect();
            (bufs, m.alloc(64))
        };
        let progs: Vec<_> = (0..CORES)
            .map(|c| {
                let src = random_domain_program(&mut rng, bases[c], bufs[c], shared);
                assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{src}"))
            })
            .collect();
        let run_one = |engine: Engine, jobs: usize| {
            let mut m = Machine::new(MachineConfig {
                cores: CORES,
                ..MachineConfig::small()
            });
            m.set_engine(engine);
            m.set_machine_jobs(jobs);
            let tids: Vec<_> = (0..CORES)
                .map(|c| {
                    assert_eq!(m.alloc(4096), bufs[c], "same layout on every machine");
                    let tid = m.load_program(c, &progs[c]).expect("load");
                    m.set_core_domain(c, bufs[c], 4096);
                    tid
                })
                .collect();
            assert_eq!(m.alloc(64), shared);
            for &tid in &tids {
                m.start_thread(tid);
            }
            m.run_for(Cycles(150_000));
            let mut d = Vec::new();
            for (c, &tid) in tids.iter().enumerate() {
                d.extend(digest(&m, tid, progs[c].end()));
                d.extend((0..512).map(|i| m.peek_u64(bufs[c] + 8 * i)));
            }
            d.push(m.peek_u64(shared));
            let ((l1h, l1m), (l2h, l2m), (l3h, l3m)) = m.cache_stats();
            let (wb1, wb2, wb3) = m.cache_writebacks();
            d.extend([l1h, l1m, l2h, l2m, l3h, l3m, wb1, wb2, wb3]);
            let stats = m.engine_stats();
            assert_eq!(
                stats.insts(),
                m.counters().get("inst.executed"),
                "seed {seed}"
            );
            (d, stats)
        };
        let (reference, ref_stats) = run_one(Engine::Reference, 1);
        assert_eq!(
            (
                ref_stats.reg_block_insts + ref_stats.mem_block_insts,
                ref_stats.blocks_formed
            ),
            (0, 0),
            "seed {seed}: {ref_stats:?}"
        );
        assert_eq!(ref_stats.committed + ref_stats.bailed + ref_stats.ties, 0);
        let mut first = None;
        for jobs in [1, 2, 4] {
            let (fast, stats) = run_one(Engine::Fast, jobs);
            assert_eq!(
                fast, reference,
                "seed {seed}: machine_jobs {jobs}: the epoch engine diverged from the reference"
            );
            assert!(
                stats.committed > 0,
                "seed {seed}: no epoch committed: {stats:?}"
            );
            assert_eq!(
                *first.get_or_insert(stats),
                stats,
                "seed {seed}: machine_jobs {jobs}"
            );
        }
    }
}
