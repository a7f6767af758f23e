//! Decode-cache invalidation: self-modifying and externally-modified
//! code must execute the *new* instruction, never a stale pre-decoded
//! one. Every mutation route into a loaded image is covered: a thread
//! storing over its own code, a thread storing over another thread's
//! image, a host `poke_u64`, and a `dma_write`. Decode-cache lookup:
//! many threads over images loaded out of base order must each fetch
//! their own image's instructions.

use switchless_core::exception::{Descriptor, ExceptionKind};
use switchless_core::machine::{Engine, Machine, MachineConfig, MachineError};
use switchless_core::tid::ThreadState;
use switchless_core::ThreadId;
use switchless_isa::asm::assemble;
use switchless_isa::Inst;
use switchless_sim::time::Cycles;

fn small() -> Machine {
    Machine::new(MachineConfig::small())
}

/// Encoded word for `movi r2, 42`, produced by the real assembler so the
/// tests never hand-roll encodings.
fn movi_r2_42() -> u64 {
    let donor = assemble("entry: movi r2, 42\nhalt").unwrap();
    donor.words[0]
}

#[test]
fn thread_patches_its_own_code() {
    let mut m = small();
    // The program loads a replacement instruction word (prepared by the
    // host in its `newinst` data cell) and stores it over `patchme`
    // before reaching it.
    let p = assemble(
        r#"
        entry:
            ld r1, newinst
            st r1, patchme
        patchme:
            movi r2, 1
            halt
        newinst: .word 0
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.poke_u64(p.symbol("newinst").unwrap(), movi_r2_42());
    m.start_thread(tid);
    m.run_for(Cycles(10_000));
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(
        m.thread_reg(tid, 2),
        42,
        "the store over `patchme` must invalidate the decoded copy"
    );
}

#[test]
fn thread_patches_another_threads_image() {
    let mut m = small();
    // Patchee: parks on a monitored mailbox; the instruction after the
    // wake is the patch target.
    let victim = assemble(
        r#"
        .base 0x30000
        mailbox: .word 0
        entry:
            monitor mailbox
            mwait
        patchme:
            movi r2, 1
            halt
        "#,
    )
    .unwrap();
    // Patcher: overwrites the victim's `patchme`, then wakes it. Target
    // addresses come in via registers so the two images stay independent.
    let patcher = assemble(
        r#"
        .base 0x10000
        entry:
            ld r1, newinst
            st r1, r3, 0
            movi r4, 1
            st r4, r5, 0
            halt
        newinst: .word 0
        "#,
    )
    .unwrap();
    let victim_tid = m.load_program(0, &victim).unwrap();
    m.start_thread(victim_tid);
    m.run_for(Cycles(5_000));
    assert_eq!(m.thread_state(victim_tid), ThreadState::Waiting);

    let patcher_tid = m.load_program(0, &patcher).unwrap();
    m.poke_u64(patcher.symbol("newinst").unwrap(), movi_r2_42());
    m.set_thread_reg(patcher_tid, 3, victim.symbol("patchme").unwrap());
    m.set_thread_reg(patcher_tid, 5, victim.symbol("mailbox").unwrap());
    m.start_thread(patcher_tid);
    m.run_for(Cycles(20_000));
    assert_eq!(m.thread_state(patcher_tid), ThreadState::Halted);
    assert_eq!(m.thread_state(victim_tid), ThreadState::Halted);
    assert_eq!(
        m.thread_reg(victim_tid, 2),
        42,
        "a cross-image store must invalidate the other image's decode cache"
    );
}

#[test]
fn host_poke_invalidates_code() {
    let mut m = small();
    let p = assemble(
        r#"
        mailbox: .word 0
        entry:
            monitor mailbox
            mwait
        patchme:
            movi r2, 1
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(5_000));
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);

    m.poke_u64(p.symbol("patchme").unwrap(), movi_r2_42());
    m.poke_u64(p.symbol("mailbox").unwrap(), 1); // wake
    m.run_for(Cycles(10_000));
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(
        m.thread_reg(tid, 2),
        42,
        "a host poke over code must invalidate the decoded copy"
    );
}

#[test]
fn dma_write_invalidates_code() {
    let mut m = small();
    let p = assemble(
        r#"
        mailbox: .word 0
        entry:
            monitor mailbox
            mwait
        patchme:
            movi r2, 1
            movi r3, 2
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(5_000));
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);

    // DMA a two-instruction patch: `movi r2, 42` twice, so both the
    // first and a subsequent word of the burst are re-decoded.
    let word = movi_r2_42();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&word.to_le_bytes());
    bytes.extend_from_slice(&word.to_le_bytes());
    m.dma_write(p.symbol("patchme").unwrap(), &bytes);
    m.poke_u64(p.symbol("mailbox").unwrap(), 1); // wake
    m.run_for(Cycles(10_000));
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 2), 42);
    assert_eq!(
        m.thread_reg(tid, 3),
        0,
        "the second patched word must also have been re-decoded (it no \
         longer writes r3)"
    );
}

/// Load order of the eight loop images (image `k` sits at
/// `LOOP_BASE + k * 0x1000`): deliberately not base order.
const LOOP_ORDER: [usize; 8] = [0, 3, 6, 1, 4, 7, 2, 5];
const LOOP_BASE: u64 = 0x21000;
const PING_BASE: u64 = 0x29000;
const PONG_BASE: u64 = 0x2a000;
/// Loaded last and lowest, the way `IoEngine::install` loads its
/// dispatcher below its workers.
const GAP_BASE: u64 = 0x20000;
/// Inside neither `GAP_BASE`'s image nor the first worker's.
const GAP_PC: u64 = 0x20800;
/// Loaded mid-run, below every other image.
const LATE_BASE: u64 = 0x18000;
/// A word that decodes to no instruction (checked in [`lookup_run`]).
const BAD_WORD: u64 = u64::MAX;

fn loop_limit(k: usize) -> u64 {
    300 + 37 * k as u64
}

/// A counted loop (`r1` counts to `r3`, `r2` sums `r1 + k`) that ends
/// by jumping to `r9`, another image's `tail`, which tags `r4` with that
/// image's `k + 100` and halts.
fn loop_image(base: u64, k: usize) -> switchless_isa::Program {
    assemble(&format!(
        r#"
        .base {base:#x}
        entry:
            movi r1, 0
            movi r2, 0
        loop:
            addi r1, r1, 1
            add r2, r2, r1
            addi r2, r2, {k}
            blt r1, r3, loop
            jr r9
        tail:
            addi r4, r4, {tag}
            halt
        "#,
        tag = k + 100,
    ))
    .expect("loop image")
}

struct Lookup {
    m: Machine,
    /// `(thread, loop index, index of the image its final jump enters)`,
    /// the late image's thread last.
    loops: Vec<(ThreadId, usize, usize)>,
    ping: ThreadId,
    gap: ThreadId,
    gap_edp: u64,
}

/// Eight loop threads round-robin over their own images, each ending
/// with a jump into the next one's image; a ping thread bounces between
/// two images every iteration, alone at the end so its jumps land
/// mid-burst; a thread jumps into the gap between two images, runs one
/// word there through fetch-and-decode and faults on the next; and an
/// image loaded below all others after blocks have formed shifts every
/// range's index while the other threads still run.
fn lookup_run(cores: usize, engine: Engine, jobs: usize) -> Lookup {
    let mut cfg = MachineConfig::small();
    cfg.cores = cores;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m.set_machine_jobs(jobs);
    let images: Vec<_> = (0..8)
        .map(|k| loop_image(LOOP_BASE + k as u64 * 0x1000, k))
        .collect();
    let mut loops = Vec::new();
    for k in LOOP_ORDER {
        let tid = m.load_program(k % cores, &images[k]).expect("load loop");
        let next = (k + 1) % 8;
        m.set_thread_reg(tid, 3, loop_limit(k));
        m.set_thread_reg(tid, 9, images[next].symbol("tail").expect("tail"));
        loops.push((tid, k, next));
    }

    let ping = assemble(&format!(
        r#"
        .base {PING_BASE:#x}
        entry:
            movi r1, 0
        ping:
            addi r1, r1, 1
            jr r9
        back:
            blt r1, r3, ping
            halt
        "#
    ))
    .expect("ping image");
    let pong = assemble(&format!(
        r#"
        .base {PONG_BASE:#x}
        entry:
            halt
        pong:
            addi r2, r2, 3
            jr r10
        "#
    ))
    .expect("pong image");
    let ping_tid = m.load_program(0, &ping).expect("load ping");
    m.load_image(&pong).expect("load pong");
    m.set_thread_reg(ping_tid, 3, 3000);
    m.set_thread_reg(ping_tid, 9, pong.symbol("pong").expect("pong"));
    m.set_thread_reg(ping_tid, 10, ping.symbol("back").expect("back"));

    let gap = assemble(&format!(
        r#"
        .base {GAP_BASE:#x}
        entry:
            movi r1, 5
            addi r1, r1, 1
            jr r9
        "#
    ))
    .expect("gap image");
    let gap_tid = m.load_program(cores - 1, &gap).expect("load gap");
    m.set_thread_reg(gap_tid, 9, GAP_PC);
    let gap_edp = m.alloc(64);
    m.set_thread_edp(gap_tid, gap_edp);
    m.poke_u64(GAP_PC, movi_r2_42());
    assert!(Inst::decode(BAD_WORD).is_err());
    m.poke_u64(GAP_PC + 8, BAD_WORD);

    for &(tid, ..) in &loops {
        m.start_thread(tid);
    }
    m.start_thread(ping_tid);
    m.start_thread(gap_tid);
    for t in [1_000, 2_000, 3_000] {
        m.run_until(Cycles(t));
    }
    assert!(
        loops
            .iter()
            .all(|&(t, ..)| m.thread_state(t) != ThreadState::Halted),
        "the late image must land while every loop still runs"
    );

    let late = loop_image(LATE_BASE, 8);
    let late_tid = m.load_program(0, &late).expect("load late image");
    m.set_thread_reg(late_tid, 3, loop_limit(8));
    m.set_thread_reg(late_tid, 9, images[2].symbol("tail").expect("tail"));
    m.start_thread(late_tid);
    loops.push((late_tid, 8, 2));
    for t in [10_000, 40_000, 200_000] {
        m.run_until(Cycles(t));
    }
    Lookup {
        m,
        loops,
        ping: ping_tid,
        gap: gap_tid,
        gap_edp,
    }
}

/// Every thread's outcome, checked against the programs' arithmetic,
/// then folded with the machine's counters and cache statistics into
/// one string for cross-engine comparison.
fn check_lookup(r: &Lookup) -> String {
    let m = &r.m;
    let sum = |k: usize| {
        let l = loop_limit(k);
        l * (l + 1) / 2 + l * k as u64
    };
    let mut out = String::new();
    for &(tid, k, next) in &r.loops {
        assert_eq!(m.thread_state(tid), ThreadState::Halted, "loop {k}");
        assert_eq!(m.thread_reg(tid, 1), loop_limit(k), "loop {k} count");
        assert_eq!(m.thread_reg(tid, 2), sum(k), "loop {k} sum");
        assert_eq!(m.thread_reg(tid, 4), next as u64 + 100, "loop {k} tail");
        out += &format!("{k}: {} {:?}\n", m.thread_pc(tid), m.billed_cycles(tid));
    }
    assert_eq!(m.thread_state(r.ping), ThreadState::Halted);
    assert_eq!(m.thread_reg(r.ping, 1), 3000);
    assert_eq!(m.thread_reg(r.ping, 2), 9000);

    // The gap word ran through fetch-and-decode; the next one faults
    // with the exact word as its payload.
    assert_eq!(m.thread_reg(r.gap, 2), 42);
    assert_eq!(m.thread_state(r.gap), ThreadState::Disabled);
    let words: [u64; 4] = std::array::from_fn(|i| m.peek_u64(r.gap_edp + 8 * i as u64));
    assert_eq!(
        Descriptor::decode(words),
        Some(Descriptor {
            kind: ExceptionKind::BadInstruction,
            ptid: u64::from(r.gap.ptid.0),
            pc: GAP_PC + 8,
            info: BAD_WORD,
        })
    );

    out += &format!(
        "now={:?}\ncache={:?}\n{:?}\n",
        m.now(),
        m.cache_stats(),
        m.counters().iter().collect::<Vec<_>>()
    );
    out
}

/// The ranges stay disjoint however they were loaded: an image one
/// word into any loaded one is refused.
fn assert_overlaps_refused(m: &mut Machine) {
    let loop_bases = (0..8).map(|k| LOOP_BASE + k * 0x1000);
    for base in loop_bases.chain([PING_BASE, PONG_BASE, GAP_BASE, LATE_BASE]) {
        let p = assemble(&format!(".base {:#x}\nentry: halt", base + 8)).expect("probe");
        assert_eq!(
            m.load_image(&p),
            Err(MachineError::ImageOverlap),
            "image at {base:#x}"
        );
    }
}

/// Only the gap thread leaves the loaded images, so only its two words
/// (the poked `movi` and the bad word) take the fetch-and-decode path:
/// any other miss is a lookup that failed to find a loaded range.
const DECODE_MISSES: u64 = 2;

fn lookup_matches_reference(cores: usize, jobs: &[usize]) {
    let mut reference = lookup_run(cores, Engine::Reference, 1);
    let want = check_lookup(&reference);
    let st = reference.m.engine_stats();
    assert_eq!(st.decode_misses, DECODE_MISSES, "reference: {st:?}");
    assert_overlaps_refused(&mut reference.m);
    for &j in jobs {
        let mut fast = lookup_run(cores, Engine::Fast, j);
        assert_eq!(check_lookup(&fast), want, "{cores} cores, machine-jobs {j}");
        let st = fast.m.engine_stats();
        assert_eq!(st.decode_misses, DECODE_MISSES, "machine-jobs {j}: {st:?}");
        // Epoch workers must run part of it, through their own lookups.
        assert!(cores == 1 || st.insts_parallel > 0, "{st:?}");
        assert_overlaps_refused(&mut fast.m);
    }
}

#[test]
fn code_lookup_across_unsorted_images_matches_reference() {
    lookup_matches_reference(1, &[1]);
}

#[test]
fn code_lookup_on_two_cores_matches_reference() {
    lookup_matches_reference(2, &[1, 2]);
}
