//! End-to-end machine tests: real assembled programs executed by the
//! event-driven machine model.

use std::cell::RefCell;
use std::rc::Rc;

use switchless_core::exception::{Descriptor, ExceptionKind};
use switchless_core::machine::{Engine, EngineStats, Machine, MachineConfig, ThreadId, TrapMode};
use switchless_core::perm::{Perms, TdtEntry};
use switchless_core::tid::{ThreadState, Vtid};
use switchless_isa::asm::{assemble, Program};
use switchless_sim::rng::Rng;
use switchless_sim::time::Cycles;

fn small() -> Machine {
    Machine::new(MachineConfig::small())
}

fn run(m: &mut Machine, cycles: u64) {
    m.run_for(Cycles(cycles));
}

#[test]
fn straight_line_arithmetic() {
    let mut m = small();
    let p = assemble(
        r#"
        entry:
            movi r1, 6
            movi r2, 7
            mul r3, r1, r2
            addi r3, r3, -2
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 3), 40);
}

#[test]
fn loop_and_memory() {
    let mut m = small();
    let p = assemble(
        r#"
        sum: .word 0
        entry:
            movi r1, 10     ; counter
            movi r2, 0      ; acc
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            st r2, sum
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.peek_u64(p.symbol("sum").unwrap()), 55);
}

#[test]
fn mwait_blocks_until_poke() {
    let mut m = small();
    let p = assemble(
        r#"
        mailbox: .word 0
        entry:
            monitor mailbox
            mwait
            ld r1, mailbox
            addi r1, r1, 1
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 5_000);
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);
    m.poke_u64(p.symbol("mailbox").unwrap(), 41);
    run(&mut m, 5_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 1), 42);
    assert_eq!(m.counters().get("mwait.blocked"), 1);
    assert_eq!(m.counters().get("monitor.wakes"), 1);
}

#[test]
fn store_racing_monitor_falls_through() {
    // Write arrives between monitor and mwait: mwait must not sleep.
    let mut m = small();
    let p = assemble(
        r#"
        mailbox: .word 0
        entry:
            monitor mailbox
            work 2000          ; window for the racing store
            mwait
            movi r9, 1
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 600); // thread arms the monitor, then sits in `work`
    m.poke_u64(p.symbol("mailbox").unwrap(), 1);
    run(&mut m, 50_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 9), 1);
    assert_eq!(m.counters().get("mwait.fallthrough"), 1);
    assert_eq!(m.counters().get("mwait.blocked"), 0);
}

#[test]
fn one_thread_wakes_another_by_store() {
    let mut m = small();
    let waiter = assemble(
        r#"
        .base 0x10000
        flag: .word 0
        entry:
            monitor flag
            mwait
            ld r1, flag
            halt
        "#,
    )
    .unwrap();
    let writer = assemble(
        r#"
        .base 0x20000
        entry:
            work 3000
            movi r1, 99
            st r1, 0x10000    ; the flag address
            halt
        "#,
    )
    .unwrap();
    let twait = m.load_program(0, &waiter).unwrap();
    let twrite = m.load_program(0, &writer).unwrap();
    m.start_thread(twait);
    run(&mut m, 1_000);
    assert_eq!(m.thread_state(twait), ThreadState::Waiting);
    m.start_thread(twrite);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(twait), ThreadState::Halted);
    assert_eq!(m.thread_reg(twait, 1), 99);
}

fn setup_tdt(m: &mut Machine, owner: ThreadId, entries: &[(u16, ThreadId, Perms)]) -> u64 {
    let base = m.alloc(8 * 64);
    for &(vtid, target, perms) in entries {
        m.write_tdt_entry(base, Vtid(vtid), TdtEntry::new(target.ptid, perms));
    }
    m.set_thread_tdtr(owner, base);
    base
}

#[test]
fn start_via_tdt_wakes_target() {
    let mut m = small();
    let starter = assemble(
        r#"
        .base 0x10000
        entry:
            start 1
            halt
        "#,
    )
    .unwrap();
    let target = assemble(
        r#"
        .base 0x20000
        entry:
            movi r5, 123
            halt
        "#,
    )
    .unwrap();
    let t_start = m.load_program(0, &starter).unwrap();
    let t_tgt = m.load_program(0, &target).unwrap();
    setup_tdt(&mut m, t_start, &[(1, t_tgt, Perms::START)]);
    m.start_thread(t_start);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(t_tgt), ThreadState::Halted);
    assert_eq!(m.thread_reg(t_tgt, 5), 123);
    assert_eq!(m.counters().get("thread.starts"), 1);
}

#[test]
fn user_mode_start_without_permission_faults() {
    let mut m = small();
    let starter = assemble(
        r#"
        .base 0x10000
        entry:
            start 1
            movi r9, 1      ; must never run
            halt
        "#,
    )
    .unwrap();
    let target = assemble(".base 0x20000\nentry: halt\n").unwrap();
    let t_start = m.load_program_user(0, &starter).unwrap();
    let t_tgt = m.load_program(0, &target).unwrap();
    // TDT grants STOP but not START.
    setup_tdt(&mut m, t_start, &[(1, t_tgt, Perms::STOP)]);
    let edp = m.alloc(32);
    m.set_thread_edp(t_start, edp);
    m.start_thread(t_start);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(t_start), ThreadState::Disabled);
    assert_eq!(
        m.thread_state(t_tgt),
        ThreadState::Disabled,
        "target must not start"
    );
    assert_eq!(m.thread_reg(t_start, 9), 0);
    let desc = Descriptor::decode([
        m.peek_u64(edp),
        m.peek_u64(edp + 8),
        m.peek_u64(edp + 16),
        m.peek_u64(edp + 24),
    ])
    .unwrap();
    assert_eq!(desc.kind, ExceptionKind::PermissionDenied);
    assert_eq!(desc.ptid, u64::from(t_start.ptid.0));
}

#[test]
fn supervisor_bypasses_tdt_permissions() {
    let mut m = small();
    let starter = assemble(".base 0x10000\nentry: start 1\nhalt\n").unwrap();
    let target = assemble(".base 0x20000\nentry: movi r5, 7\nhalt\n").unwrap();
    let t_start = m.load_program(0, &starter).unwrap(); // supervisor
    let t_tgt = m.load_program(0, &target).unwrap();
    setup_tdt(&mut m, t_start, &[(1, t_tgt, Perms::NONE)]);
    m.start_thread(t_start);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(t_tgt), ThreadState::Halted);
}

#[test]
fn non_hierarchical_permissions_b_over_a_c_over_b_only() {
    // §3.2: B may stop A, C may stop B, C has no power over A.
    let mut m = small();
    let prog_a = assemble(".base 0x10000\nentry: jmp entry\n").unwrap(); // spins
    let prog_b = assemble(
        r#"
        .base 0x20000
        entry:
            stop 0          ; stops A
            jmp entry
        "#,
    )
    .unwrap();
    let prog_c = assemble(
        r#"
        .base 0x30000
        entry:
            stop 0          ; C's vtid 0 maps to B
            start 1         ; C tries to touch A -> fault
            halt
        "#,
    )
    .unwrap();
    let a = m.load_program_user(0, &prog_a).unwrap();
    let b = m.load_program_user(0, &prog_b).unwrap();
    let c = m.load_program_user(0, &prog_c).unwrap();
    setup_tdt(&mut m, b, &[(0, a, Perms::STOP)]);
    // C's TDT: vtid0 -> B (stop allowed), vtid1 -> A (no permissions).
    let base = m.alloc(8 * 64);
    m.write_tdt_entry(base, Vtid(0), TdtEntry::new(b.ptid, Perms::STOP));
    m.write_tdt_entry(base, Vtid(1), TdtEntry::new(a.ptid, Perms::NONE));
    m.set_thread_tdtr(c, base);
    let edp = m.alloc(32);
    m.set_thread_edp(c, edp);

    m.start_thread(a);
    m.start_thread(b);
    run(&mut m, 2_000);
    assert_eq!(m.thread_state(a), ThreadState::Disabled, "B stopped A");
    m.start_thread(c);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(b), ThreadState::Disabled, "C stopped B");
    // C faulted on `start 1` (no START permission over A).
    assert_eq!(m.thread_state(c), ThreadState::Disabled);
    assert_eq!(
        Descriptor::decode([
            m.peek_u64(edp),
            m.peek_u64(edp + 8),
            m.peek_u64(edp + 16),
            m.peek_u64(edp + 24),
        ])
        .unwrap()
        .kind,
        ExceptionKind::PermissionDenied
    );
}

#[test]
fn rpush_passes_arguments_rpull_reads_results() {
    let mut m = small();
    let driver = assemble(
        r#"
        .base 0x10000
        entry:
            movi r1, 1      ; vtid of worker
            movi r2, 21
            rpush r1, r3, r2   ; worker.r3 = 21
            start 1
        spin:
            jmp spin
        "#,
    )
    .unwrap();
    let worker = assemble(
        r#"
        .base 0x20000
        entry:
            add r4, r3, r3
            halt
        "#,
    )
    .unwrap();
    let d = m.load_program(0, &driver).unwrap();
    let w = m.load_program(0, &worker).unwrap();
    setup_tdt(&mut m, d, &[(1, w, Perms::ALL)]);
    m.start_thread(d);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(w), ThreadState::Halted);
    assert_eq!(m.thread_reg(w, 4), 42);
}

#[test]
fn rpull_on_running_thread_faults() {
    let mut m = small();
    let driver = assemble(
        r#"
        .base 0x10000
        entry:
            movi r1, 1
            rpull r1, r2, pc
            halt
        "#,
    )
    .unwrap();
    let spinner = assemble(".base 0x20000\nentry: jmp entry\n").unwrap();
    let d = m.load_program(0, &driver).unwrap();
    let s = m.load_program(0, &spinner).unwrap();
    setup_tdt(&mut m, d, &[(1, s, Perms::ALL)]);
    let edp = m.alloc(32);
    m.set_thread_edp(d, edp);
    m.start_thread(s);
    run(&mut m, 1000);
    m.start_thread(d);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(d), ThreadState::Disabled);
    assert_eq!(
        m.counters().get("exception.thread_not_stopped"),
        1,
        "rpull on a runnable thread must fault"
    );
}

#[test]
fn mod_some_does_not_allow_pc_writes() {
    let mut m = small();
    let driver = assemble(
        r#"
        .base 0x10000
        entry:
            movi r1, 1
            movi r2, 0x20000
            rpush r1, pc, r2   ; needs MOD_MOST
            halt
        "#,
    )
    .unwrap();
    let target = assemble(".base 0x20000\nentry: halt\n").unwrap();
    let d = m.load_program_user(0, &driver).unwrap();
    let t = m.load_program(0, &target).unwrap();
    setup_tdt(&mut m, d, &[(1, t, Perms::MOD_SOME)]);
    let edp = m.alloc(32);
    m.set_thread_edp(d, edp);
    m.start_thread(d);
    run(&mut m, 100_000);
    assert_eq!(m.counters().get("exception.permission_denied"), 1);
}

#[test]
fn stale_tdt_entry_used_until_invtid() {
    // Load-bearing §3.1 semantics: TDT updates require invtid.
    let mut m = small();
    let starter = assemble(
        r#"
        .base 0x10000
        entry:
            start 1        ; caches vtid1 -> old target
            hcall 1        ; host swaps the TDT entry in memory (no invtid)
            start 1        ; still starts the OLD target (stale cache)
            movi r1, 1
            invtid r1      ; now invalidate
            start 1        ; starts the NEW target
            halt
        "#,
    )
    .unwrap();
    let old_t = assemble(".base 0x20000\nentry: movi r5, 1\nhalt\n").unwrap();
    let new_t = assemble(".base 0x30000\nentry: movi r5, 2\nhalt\n").unwrap();
    let s = m.load_program(0, &starter).unwrap();
    let o = m.load_program(0, &old_t).unwrap();
    let n = m.load_program(0, &new_t).unwrap();
    let base = setup_tdt(&mut m, s, &[(1, o, Perms::ALL)]);
    let new_entry = TdtEntry::new(n.ptid, Perms::ALL);
    let mut starts_of_old = Vec::new();
    m.register_hcall(1, move |mach, _tid| {
        // Rewrite memory only; deliberately no cache invalidation.
        mach.poke_u64(base + 8, new_entry.encode());
        starts_of_old.push(());
    });
    m.start_thread(s);
    run(&mut m, 200_000);
    assert_eq!(m.thread_state(s), ThreadState::Halted);
    assert_eq!(m.thread_reg(o, 5), 1, "old target ran (stale entry)");
    assert_eq!(m.thread_reg(n, 5), 2, "new target ran after invtid");
    // The stale `start 1` re-started the old (already halted) target: a
    // no-op on a Halted thread, so old target ran exactly once.
    assert_eq!(m.counters().get("thread.starts"), 3);
}

#[test]
fn div_zero_writes_descriptor_and_wakes_handler() {
    let mut m = small();
    let edp = 0x8000u64;
    let faulter = assemble(
        r#"
        .base 0x10000
        entry:
            movi r1, 10
            movi r2, 0
            div r3, r1, r2     ; fault
            movi r9, 1         ; must not run
            halt
        "#,
    )
    .unwrap();
    let handler = assemble(&format!(
        r#"
        .base 0x20000
        entry:
            monitor {edp}
            mwait
            ld r1, {edp}        ; kind
            ld r2, {edp_pc}     ; faulting pc
            halt
        "#,
        edp = edp,
        edp_pc = edp + 16,
    ))
    .unwrap();
    let f = m.load_program(0, &faulter).unwrap();
    let h = m.load_program(0, &handler).unwrap();
    m.set_thread_edp(f, edp);
    m.start_thread(h);
    run(&mut m, 2_000);
    assert_eq!(m.thread_state(h), ThreadState::Waiting);
    m.start_thread(f);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(f), ThreadState::Disabled);
    assert_eq!(m.thread_state(h), ThreadState::Halted);
    assert_eq!(m.thread_reg(h, 1), ExceptionKind::DivZero.code());
    assert_eq!(m.thread_reg(h, 2), 0x10000 + 16, "pc of the div");
    assert_eq!(m.thread_reg(f, 9), 0);
}

#[test]
fn fault_without_edp_halts_machine() {
    let mut m = small();
    let p = assemble(
        r#"
        entry:
            movi r2, 0
            div r1, r1, r2
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 100_000);
    let reason = m.halted_reason().expect("machine must halt");
    assert!(reason.contains("triple-fault"), "{reason}");
    assert_eq!(m.counters().get("machine.halt"), 1);
}

#[test]
fn consecutive_exceptions_chain_through_handlers() {
    // A faults -> B (A's handler) itself faults -> C handles B's fault.
    let mut m = small();
    let edp_a = 0x8000u64;
    let edp_b = 0x8100u64;
    let a = assemble(
        r#"
        .base 0x10000
        entry:
            movi r2, 0
            div r1, r1, r2
            halt
        "#,
    )
    .unwrap();
    let b = assemble(&format!(
        r#"
        .base 0x20000
        entry:
            monitor {edp_a}
            mwait
            movi r2, 0
            div r1, r1, r2    ; handler faults too (§3.2's example)
            halt
        "#
    ))
    .unwrap();
    let c = assemble(&format!(
        r#"
        .base 0x30000
        entry:
            monitor {edp_b}
            mwait
            ld r1, {edp_b}
            halt
        "#
    ))
    .unwrap();
    let ta = m.load_program(0, &a).unwrap();
    let tb = m.load_program(0, &b).unwrap();
    let tc = m.load_program(0, &c).unwrap();
    m.set_thread_edp(ta, edp_a);
    m.set_thread_edp(tb, edp_b);
    m.start_thread(tb);
    m.start_thread(tc);
    run(&mut m, 5_000);
    m.start_thread(ta);
    run(&mut m, 200_000);
    assert!(
        m.halted_reason().is_none(),
        "chain ends at C, no machine halt"
    );
    assert_eq!(m.thread_state(tc), ThreadState::Halted);
    assert_eq!(m.thread_reg(tc, 1), ExceptionKind::DivZero.code());
    assert_eq!(m.counters().get("exception.div_zero"), 2);
}

#[test]
fn syscall_descriptor_mode_disables_and_delivers() {
    let mut m = small();
    let edp = 0x8000u64;
    let app = assemble(
        r#"
        .base 0x10000
        entry:
            syscall 7
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program_user(0, &app).unwrap();
    m.set_thread_edp(tid, edp);
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(m.thread_state(tid), ThreadState::Disabled);
    let d = Descriptor::decode([
        m.peek_u64(edp),
        m.peek_u64(edp + 8),
        m.peek_u64(edp + 16),
        m.peek_u64(edp + 24),
    ])
    .unwrap();
    assert_eq!(d.kind, ExceptionKind::SyscallTrap);
    assert_eq!(d.info, 7);
    // The saved pc points past the syscall: restarting resumes after it.
    assert_eq!(
        m.thread_pc(ThreadId {
            core: 0,
            ptid: tid.ptid
        }),
        0x10000 + 8
    );
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
}

#[test]
fn syscall_same_thread_mode_vectors_and_returns() {
    let mut cfg = MachineConfig::small();
    cfg.trap = TrapMode::SameThread {
        syscall_cost: Cycles(300),
        vmexit_cost: Cycles(1000),
    };
    let mut m = Machine::new(cfg);
    let image = assemble(
        r#"
        .base 0x10000
        entry:
            syscall 5
            movi r9, 1       ; runs after return
            halt
        kernel:
            mov r10, r11      ; observe syscall number
            movi r13, 0
            csrw mode, r13    ; drop back to user
            jr r14
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &image).unwrap();
    m.set_syscall_vector(image.symbol("kernel").unwrap());
    m.start_thread(tid);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 10), 5);
    assert_eq!(m.thread_reg(tid, 9), 1);
    assert_eq!(m.counters().get("syscall.same_thread"), 1);
    // The 300-cycle entry penalty was billed to the thread.
    assert!(m.billed_cycles(tid) >= Cycles(300));
}

#[test]
fn vmcall_descriptor_mode_counts_vm_exit() {
    let mut m = small();
    let edp = 0x8000u64;
    let guest = assemble(".base 0x10000\nentry: vmcall 3\nhalt\n").unwrap();
    let tid = m.load_program_user(0, &guest).unwrap();
    m.set_thread_edp(tid, edp);
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(m.counters().get("exception.vm_exit"), 1);
    assert_eq!(m.peek_u64(edp + 24), 3);
}

#[test]
fn privileged_op_from_user_faults() {
    let mut m = small();
    let edp = 0x8000u64;
    let p = assemble(
        r#"
        entry:
            movi r1, 1
            csrw mode, r1    ; privileged
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program_user(0, &p).unwrap();
    m.set_thread_edp(tid, edp);
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(m.thread_state(tid), ThreadState::Disabled);
    assert_eq!(m.peek_u64(edp), ExceptionKind::PrivilegedOp.code());
}

#[test]
fn bad_memory_access_faults() {
    let mut m = small();
    let edp = 0x8000u64;
    let p = assemble(
        r#"
        entry:
            movi r1, 0x3ff0000
            ld r2, r1, 0      ; beyond 4 MiB memory
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.set_thread_edp(tid, edp);
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(m.peek_u64(edp), ExceptionKind::BadMemory.code());
}

#[test]
fn dma_write_wakes_waiting_thread() {
    let mut m = small();
    let p = assemble(
        r#"
        ring: .word 0
        entry:
            monitor ring
            mwait
            ld r1, ring
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 5_000);
    let ring = p.symbol("ring").unwrap();
    // Device DMA at a future time: a registered device's event.
    let dev = m.register_device(move |mach, _, v| {
        mach.dma_write(ring, &v.to_le_bytes());
    });
    m.at_device(Cycles(20_000), dev, 77);
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 1), 77);
    assert_eq!(m.counters().get("dma.bytes"), 8);
}

#[test]
fn hcall_invokes_host_service_with_charge() {
    let mut m = small();
    let p = assemble("entry: hcall 9\nhalt\n").unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.register_hcall(9, |mach, t| {
        mach.set_thread_reg(t, 1, 0xabc);
        mach.charge(Cycles(5_000));
    });
    m.start_thread(tid);
    let t0 = m.now();
    run(&mut m, 100_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid, 1), 0xabc);
    assert!(m.billed_cycles(tid) >= Cycles(5_000), "charge was billed");
    let _ = t0;
}

/// A handler that registers its own hcall number while it runs hands
/// every later call to its successor and is dropped itself; a call to
/// a number nobody registered still faults.
#[test]
fn hcall_that_re_registers_its_number_keeps_the_new_handler() {
    let mut m = small();
    let p = assemble("entry: hcall 9\nhcall 9\nhcall 9\nhcall 10\nhalt\n").unwrap();
    let tid = m.load_program(0, &p).unwrap();
    let edp = m.alloc(64);
    m.set_thread_edp(tid, edp);
    let calls: Rc<RefCell<Vec<&str>>> = Rc::default();
    let log = Rc::clone(&calls);
    m.register_hcall(9, move |mach, _| {
        log.borrow_mut().push("first");
        let log = Rc::clone(&log);
        mach.register_hcall(9, move |_, _| log.borrow_mut().push("second"));
    });
    m.start_thread(tid);
    run(&mut m, 10_000);
    assert_eq!(*calls.borrow(), ["first", "second", "second"]);
    assert_eq!(
        m.counters()
            .get(ExceptionKind::BadInstruction.counter_name()),
        1,
        "hcall 10 has no handler"
    );
    assert_eq!(m.thread_state(tid), ThreadState::Disabled);
}

#[test]
fn round_robin_shares_pipeline_between_spinners() {
    let mut m = small();
    let a = assemble(".base 0x10000\nentry: jmp entry\n").unwrap();
    let b = assemble(".base 0x20000\nentry: jmp entry\n").unwrap();
    let ta = m.load_program(0, &a).unwrap();
    let tb = m.load_program(0, &b).unwrap();
    m.start_thread(ta);
    m.start_thread(tb);
    run(&mut m, 50_000);
    let ua = m.billed_cycles(ta).0 as f64;
    let ub = m.billed_cycles(tb).0 as f64;
    assert!(ua > 0.0 && ub > 0.0);
    let ratio = ua / ub;
    assert!((0.8..1.25).contains(&ratio), "unfair split: {ua} vs {ub}");
}

#[test]
fn halted_thread_cannot_be_restarted() {
    let mut m = small();
    let p = assemble("entry: halt\n").unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 1_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    m.start_thread(tid);
    run(&mut m, 1_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
}

#[test]
fn image_overlap_rejected() {
    let mut m = small();
    let p1 = assemble(".base 0x10000\nentry: halt\nnop\nnop\n").unwrap();
    let p2 = assemble(".base 0x10008\nentry: halt\n").unwrap();
    m.load_program(0, &p1).unwrap();
    let err = m.load_program(0, &p2).unwrap_err();
    assert_eq!(format!("{err}"), "program image overlaps loaded memory");
}

#[test]
fn out_of_threads_reported() {
    let mut cfg = MachineConfig::small();
    cfg.ptids_per_core = 1;
    let mut m = Machine::new(cfg);
    m.create_thread(0).unwrap();
    assert!(m.create_thread(0).is_err());
    assert!(m.create_thread(5).is_err(), "bad core index");
}

#[test]
fn deterministic_across_runs() {
    let run_once = || {
        let mut m = small();
        let p = assemble(
            r#"
            box1: .word 0
            entry:
                monitor box1
                mwait
                ld r1, box1
                addi r1, r1, 5
                st r1, box1
                halt
            "#,
        )
        .unwrap();
        let tid = m.load_program(0, &p).unwrap();
        m.start_thread(tid);
        let dev = m.register_device(|mach, _, v| {
            let a = 0x10000u64; // box1
            mach.poke_u64(a, v);
        });
        m.at_device(Cycles(7_777), dev, 10);
        run(&mut m, 100_000);
        (
            m.now().0,
            m.peek_u64(0x10000),
            m.counters().get("inst.executed"),
            m.billed_cycles(tid).0,
        )
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn wake_latency_is_nanosecond_scale_for_rf_resident_thread() {
    // The paper's headline: resuming a hardware thread is nanosecond
    // scale (~20 cycles pipeline refill when RF-resident).
    let mut m = small();
    let p = assemble(
        r#"
        mbox: .word 0
        entry:
            monitor mbox
            mwait
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    run(&mut m, 5_000);
    m.reset_wake_latency();
    m.poke_u64(p.symbol("mbox").unwrap(), 1);
    run(&mut m, 10_000);
    assert_eq!(m.thread_state(tid), ThreadState::Halted);
    let h = m.wake_latency();
    assert_eq!(h.count(), 1);
    // RF-resident: ~20 cycles = ~7ns at 3GHz. Allow generous slack for
    // slot contention.
    assert!(h.max() <= 100, "wake-to-dispatch took {} cycles", h.max());
}

#[test]
fn migration_moves_execution_to_new_core() {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    let p = assemble(
        r#"
        entry:
        loop:
            work 1000
            jmp loop
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(50_000));
    let billed_before = m.billed_cycles(tid);
    assert!(billed_before > Cycles(10_000), "ran on core 0");
    let tid2 = m.migrate_thread(tid, 1).unwrap();
    assert_eq!(tid2.core, 1);
    m.run_for(Cycles(50_000));
    // Billing is per-core: progress after migration accrues on core 1.
    let on_new_core = m.billed_cycles(tid2);
    assert!(
        on_new_core > Cycles(10_000),
        "thread kept running on core 1: {on_new_core}"
    );
    assert_eq!(m.counters().get("thread.migrations"), 1);
}

#[test]
fn migration_charges_transfer_and_preserves_state() {
    let mut cfg = MachineConfig::small();
    cfg.cores = 2;
    let mut m = Machine::new(cfg);
    let p = assemble(
        r#"
        mbox: .word 0
        entry:
            movi r5, 777
        loop:
            monitor mbox
            ld r2, mbox
            bne r2, r0, done
            mwait
            jmp loop
        done:
            halt
        "#,
    )
    .unwrap();
    let tid = m.load_program(0, &p).unwrap();
    m.start_thread(tid);
    m.run_for(Cycles(10_000));
    assert_eq!(m.thread_state(tid), ThreadState::Waiting);
    // Migrate while parked; registers must survive; the wake happens on
    // the new core.
    let tid2 = m.migrate_thread(tid, 1).unwrap();
    m.poke_u64(p.symbol("mbox").unwrap(), 1);
    m.run_for(Cycles(100_000));
    assert_eq!(m.thread_state(tid2), ThreadState::Halted);
    assert_eq!(m.thread_reg(tid2, 5), 777, "registers survived migration");
}

#[test]
fn migration_to_bad_core_rejected_and_same_core_noop() {
    let mut m = Machine::new(MachineConfig::small());
    let p = assemble("entry: jmp entry\n").unwrap();
    let tid = m.load_program(0, &p).unwrap();
    assert!(m.migrate_thread(tid, 9).is_err());
    let same = m.migrate_thread(tid, 0).unwrap();
    assert_eq!(same.core, 0);
    assert_eq!(m.counters().get("thread.migrations"), 0);
}

/// Runs `program` in supervisor mode, with its exception descriptor at
/// 0x8000, on a fresh small machine on each engine, and hands every
/// machine to `check`.
fn on_both_engines(program: &str, check: impl Fn(&Machine, ThreadId)) {
    let p = assemble(program).unwrap();
    for engine in [Engine::Reference, Engine::Fast] {
        let mut m = small();
        m.set_engine(engine);
        let tid = m.load_program(0, &p).unwrap();
        m.set_thread_edp(tid, 0x8000);
        m.start_thread(tid);
        run(&mut m, 10_000);
        check(&m, tid);
    }
}

#[test]
fn jump_to_the_top_of_the_address_space_faults_bad_memory() {
    // pc + 8 overflows: the fetch is out of memory, not a host panic.
    let src = "entry:\n movi r1, -4\n jr r1\n";
    on_both_engines(src, |m, tid| {
        assert_eq!(m.halted_reason(), None);
        assert_eq!(m.thread_state(tid), ThreadState::Disabled);
        assert_eq!(m.peek_u64(0x8000), ExceptionKind::BadMemory.code());
        assert_eq!(m.peek_u64(0x8000 + 24), u64::MAX - 3, "info: the fetch pc");
    });
}

#[test]
fn descriptor_pointer_at_the_top_of_memory_halts_like_no_pointer() {
    // edp + 32 overflows: the descriptor cannot be written anywhere.
    let src = "entry:\n movi r1, -8\n csrw edp, r1\n movi r2, 0\n div r3, r1, r2\n halt\n";
    on_both_engines(src, |m, tid| {
        let reason = m.halted_reason().expect("machine must halt");
        assert!(reason.contains("triple-fault"), "{reason}");
        assert_eq!(m.thread_state(tid), ThreadState::Disabled);
    });
}

#[test]
fn thread_table_at_the_top_of_memory_faults_bad_memory() {
    // tdtr + 8 * vtid overflows: the entry address is out of memory,
    // not a wrapped read of low memory.
    let src = "entry:\n movi r1, -8\n csrw tdtr, r1\n start 4\n halt\n";
    on_both_engines(src, |m, tid| {
        assert_eq!(m.halted_reason(), None);
        assert_eq!(m.thread_state(tid), ThreadState::Disabled);
        assert_eq!(m.peek_u64(0x8000), ExceptionKind::BadMemory.code());
        assert_eq!(m.peek_u64(0x8000 + 24), 4, "info: the vtid");
    });
}

/// Doorbell firings as `(doorbell, stored word)`, shared with the hooks.
type Rings = Rc<RefCell<Vec<(u64, u64)>>>;

/// Registers a hook at `addr` that logs each firing into `rings`.
fn log_doorbell(m: &mut Machine, addr: u64, rings: &Rings) {
    let rings = Rc::clone(rings);
    m.register_mmio(addr, move |_, v| rings.borrow_mut().push((addr, v)));
}

#[test]
fn store_covering_two_doorbells_fires_both_in_address_order() {
    let mut m = small();
    let d = m.alloc(64);
    let rings = Rings::default();
    // Registered high address first: firing order is address order.
    log_doorbell(&mut m, d + 8, &rings);
    log_doorbell(&mut m, d, &rings);
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&1u64.to_le_bytes());
    bytes[8..].copy_from_slice(&2u64.to_le_bytes());
    assert!(m.dma_write(d, &bytes));
    assert_eq!(*rings.borrow(), vec![(d, 1), (d + 8, 2)]);
    // An 8-byte store straddling the two words covers both.
    rings.borrow_mut().clear();
    m.poke_u64(d + 4, 0);
    assert_eq!(*rings.borrow(), vec![(d, 1), (d + 8, 0)]);
    // One that ends where a doorbell starts covers none.
    rings.borrow_mut().clear();
    m.poke_u64(d - 8, 7);
    assert!(rings.borrow().is_empty());
}

#[test]
fn doorbell_store_from_its_own_hook_does_not_refire() {
    let mut m = small();
    let d = m.alloc(64);
    let fired = Rc::new(RefCell::new(0u32));
    let f = Rc::clone(&fired);
    m.register_mmio(d, move |mach, v| {
        *f.borrow_mut() += 1;
        mach.poke_u64(d, v + 100);
    });
    m.poke_u64(d, 1);
    assert_eq!(*fired.borrow(), 1);
    assert_eq!(m.peek_u64(d), 101);
    m.poke_u64(d, 2);
    assert_eq!(*fired.borrow(), 2, "the hook is back in place");
}

#[test]
fn doorbell_registered_during_a_store_fires_from_the_next_store() {
    let mut m = small();
    let d = m.alloc(64);
    let rings = Rings::default();
    let r = Rc::clone(&rings);
    let armed = Rc::new(RefCell::new(false));
    m.register_mmio(d, move |mach, v| {
        r.borrow_mut().push((d, v));
        if !armed.replace(true) {
            log_doorbell(mach, d + 8, &r);
        }
    });
    // The first store covers both words, but `d + 8` has no hook yet.
    assert!(m.dma_write(d, &[1; 16]));
    let w = u64::from_le_bytes([1; 8]);
    assert_eq!(*rings.borrow(), vec![(d, w)]);
    rings.borrow_mut().clear();
    assert!(m.dma_write(d, &[2; 16]));
    let w = u64::from_le_bytes([2; 8]);
    assert_eq!(*rings.borrow(), vec![(d, w), (d + 8, w)]);
}

#[test]
fn registering_a_doorbell_again_replaces_its_hook() {
    let mut m = small();
    let d = m.alloc(64);
    let rings = Rings::default();
    m.register_mmio(d, |_, _| panic!("replaced before any store"));
    log_doorbell(&mut m, d, &rings);
    m.poke_u64(d, 1);
    assert_eq!(*rings.borrow(), vec![(d, 1)]);
    // A hook that replaces itself while it runs: the replacement fires
    // from the next store on, once per store.
    let r = Rc::clone(&rings);
    m.register_mmio(d, move |mach, _| log_doorbell(mach, d, &r));
    rings.borrow_mut().clear();
    m.poke_u64(d, 2);
    assert!(rings.borrow().is_empty());
    m.poke_u64(d, 3);
    m.poke_u64(d, 4);
    assert_eq!(*rings.borrow(), vec![(d, 3), (d, 4)]);
}

/// A hot store loop whose 8-byte stores walk byte by byte across a
/// doorbell word: once its memory superblock forms, each store that
/// overlaps the word — starting from 7 bytes below the doorbell to 7
/// bytes above it — makes the block's store check refuse the pass, and
/// single-stepping rings the bell. Both engines must ring it at the
/// same cycles with the same words, and end with the same counters.
#[test]
fn superblock_stores_around_a_doorbell_ring_it_like_the_reference() {
    let run = |engine: Engine| {
        let mut m = small();
        m.set_engine(engine);
        let buf = m.alloc(4096);
        let d = buf + 2048;
        let rings = Rc::new(RefCell::new(Vec::new()));
        let r = Rc::clone(&rings);
        m.register_mmio(d, move |mach, v| r.borrow_mut().push((mach.now(), v)));
        let p = assemble(&format!(
            r#"
            .base 0x10000
            entry:
                movi r2, 0
                movi r4, {end}
            pass:
                movi r3, {lo}
            loop:
                addi r2, r2, 1
                st r2, r3, 0
                addi r3, r3, 1
                blt r3, r4, loop
                addi r7, r7, 1
                jmp pass
            "#,
            lo = d - 64,
            end = d + 16,
        ))
        .unwrap();
        let tid = m.load_program(0, &p).unwrap();
        m.start_thread(tid);
        run(&mut m, 200_000);
        let counters: Vec<(String, u64)> = m
            .counters()
            .iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let rings = rings.borrow().clone();
        let passes = m.thread_reg(tid, 7);
        (rings, counters, m.now(), m.engine_stats(), passes)
    };
    let (want_rings, want_ctrs, want_now, _, passes) = run(Engine::Reference);
    let (rings, ctrs, now, st, _) = run(Engine::Fast);
    assert!(st.mem_block_insts > 0 && st.block_bails > 0, "{st:?}");
    // Fifteen stores a pass overlap the word: at `d - 7 ..= d + 7`.
    assert!(passes >= 4, "{passes}");
    let n = want_rings.len() as u64;
    assert!((15 * passes..=15 * passes + 15).contains(&n), "{n} rings");
    assert_eq!(rings, want_rings);
    assert_eq!(ctrs, want_ctrs);
    assert_eq!(now, want_now);
}

// ---------------------------------------------------------------------
// Looping superblocks against the reference engine
// ---------------------------------------------------------------------

/// The loop closes of the differential scenarios: each keeps iterating
/// while `r3` (advanced by the stride) is below the loop's end.
const LOOP_BRANCHES: [&str; 3] = ["blt", "bge", "bne"];

/// A one-core machine with small caches (so `Machine::cache_state`
/// stays short) and the default TLB.
fn loop_machine(engine: Engine) -> Machine {
    let mut cfg = MachineConfig::small();
    cfg.hierarchy.l1.size_bytes = 4096;
    cfg.hierarchy.l2.size_bytes = 16 * 1024;
    cfg.hierarchy.l3.size_bytes = 64 * 1024;
    let mut m = Machine::new(cfg);
    m.set_engine(engine);
    m
}

/// The F15c loop body at `base` over `[lo, hi)`: load, add `inc`, store
/// back, work, advance by `stride`, count iterations in `r6`, and close
/// with `branch` back to the body; each fall-through counts a pass in
/// `r7` and restarts at `lo`.
fn loop_program(base: u64, lo: u64, hi: u64, stride: u64, inc: u64, branch: &str) -> Program {
    let close = match branch {
        "blt" => "blt r3, r4, body",
        "bge" => "bge r4, r3, body",
        "bne" => "bne r3, r4, body",
        _ => unreachable!("a loop branch"),
    };
    // `bge r4, r3` continues while r3 <= r4: the last start is hi - stride.
    let end = if branch == "bge" { hi - stride } else { hi };
    assemble(&format!(
        r#"
        .base {base:#x}
        entry:
            movi r3, {lo}
            movi r4, {end}
        body:
            ld r2, r3, 0
            addi r2, r2, {inc}
            st r2, r3, 0
            work 3
            addi r3, r3, {stride}
            addi r6, r6, 1
            {close}
            addi r7, r7, 1
            jmp entry
        "#
    ))
    .unwrap()
}

/// Everything a differential loop scenario compares: `now`, every
/// counter, each thread's state, pc and registers, the words of `span`,
/// and the cache hierarchy and TLB `Debug` bytes.
fn loop_state(m: &Machine, tids: &[ThreadId], (base, len): (u64, u64)) -> String {
    let mut s = format!("now={:?} halted={:?}\n", m.now(), m.halted_reason());
    for (name, v) in m.counters().iter() {
        s += &format!("{name}={v}\n");
    }
    for &t in tids {
        let regs: Vec<u64> = (0..16).map(|r| m.thread_reg(t, r)).collect();
        s += &format!(
            "{:?} pc={:#x} {regs:?}\n",
            m.thread_state(t),
            m.thread_pc(t)
        );
    }
    let words: Vec<u64> = (base..base + len)
        .step_by(8)
        .map(|a| m.peek_u64(a))
        .collect();
    s += &format!("mem={words:?}\n{}", m.cache_state());
    s
}

/// Runs `build`'s machine on both engines through the same `run_until`
/// cut points — one call to `end`, then two seeded random schedules —
/// and requires identical [`loop_state`]s at every cut. Returns the fast
/// engine's stats over all three runs.
fn assert_loops_like_reference(
    name: &str,
    end: u64,
    build: impl Fn(&mut Machine) -> (Vec<ThreadId>, (u64, u64)),
) -> EngineStats {
    let mut rng = Rng::seed_from(end);
    let mut schedules = vec![vec![end]];
    for _ in 0..2 {
        let mut cuts: Vec<u64> = (0..6).map(|_| 1 + rng.next_below(end)).collect();
        cuts.push(end);
        cuts.sort_unstable();
        schedules.push(cuts);
    }
    let mut stats = EngineStats::default();
    for cuts in &schedules {
        let states = [Engine::Reference, Engine::Fast].map(|engine| {
            let mut m = loop_machine(engine);
            let (tids, span) = build(&mut m);
            let states: Vec<String> = cuts
                .iter()
                .map(|&c| {
                    m.run_until(Cycles(c));
                    loop_state(&m, &tids, span)
                })
                .collect();
            if engine == Engine::Fast {
                let s = m.engine_stats();
                stats.mem_block_insts += s.mem_block_insts;
                stats.block_runs += s.block_runs;
                stats.block_bails += s.block_bails;
            }
            states
        });
        for (i, (want, got)) in states[0].iter().zip(&states[1]).enumerate() {
            let line = want.lines().zip(got.lines()).position(|(a, b)| a != b);
            assert!(
                want == got,
                "{name}: cuts {cuts:?}: state at cut {i} diverged from the reference \
                 at line {line:?}:\n{want}\n---\n{got}"
            );
        }
    }
    stats
}

/// Asserts that blocks ran several iterations per entry and that some
/// iteration bailed.
fn assert_iterated_and_bailed(name: &str, st: EngineStats) {
    assert!(
        st.block_runs > 0 && st.mem_block_insts > 7 * 2 * st.block_runs,
        "{name}: {st:?}"
    );
    assert!(st.block_bails > 0, "{name}: {st:?}");
}

/// A store hits an armed monitor line mid-pass: a waiter on the same
/// core watches a word 27 iterations into the pass and counts its wakes.
#[test]
fn loop_block_store_to_an_armed_monitor_line_wakes_like_the_reference() {
    for branch in LOOP_BRANCHES {
        let st = assert_loops_like_reference(branch, 60_000, |m| {
            let lo = 0x20000;
            let t = m
                .load_program(0, &loop_program(0x10000, lo, lo + 1024, 8, 1, branch))
                .unwrap();
            let waiter = assemble(
                ".base 0x30000\n\
                 entry: monitor r1\n\
                 mwait\n\
                 addi r5, r5, 1\n\
                 jmp entry\n",
            )
            .unwrap();
            let w = m.load_program(0, &waiter).unwrap();
            m.set_thread_reg(w, 1, lo + 27 * 8);
            m.start_thread(w);
            m.start_thread(t);
            (vec![t, w], (lo, 1024))
        });
        assert_iterated_and_bailed(branch, st);
    }
}

/// The stride walks from a data area up into the loop's own code,
/// storing each word back unchanged: the first store into the image
/// must bail that iteration and kill the block, as single-stepping
/// invalidates the code it covers.
#[test]
fn loop_block_store_into_its_own_code_kills_it_like_the_reference() {
    for branch in LOOP_BRANCHES {
        let st = assert_loops_like_reference(branch, 60_000, |m| {
            let base = 0x10000;
            let lo = base - 512;
            let t = m
                .load_program(0, &loop_program(base, lo, base + 72, 8, 0, branch))
                .unwrap();
            m.start_thread(t);
            (vec![t], (lo, 1024))
        });
        assert_iterated_and_bailed(branch, st);
    }
}

/// A doorbell word 4 bytes below a line boundary: the stores of two
/// lines overlap it, one in each line, so a line-wide quiet check fails
/// for both lines and the exact check must still pass the other stores.
/// The hook adds the cycle it rings at to a word the loop does not touch.
#[test]
fn loop_block_store_near_a_doorbell_rings_it_like_the_reference() {
    for branch in LOOP_BRANCHES {
        let st = assert_loops_like_reference(branch, 60_000, |m| {
            let lo = 0x20000;
            let log = lo + 2048;
            m.register_mmio(lo + 3 * 64 + 60, move |m, _| {
                let at = m.peek_u64(log) + m.now().0;
                m.poke_u64(log, at);
            });
            let t = m
                .load_program(0, &loop_program(0x10000, lo, lo + 1024, 8, 1, branch))
                .unwrap();
            m.start_thread(t);
            (vec![t], (lo, 4096))
        });
        assert_iterated_and_bailed(branch, st);
    }
}

/// A 24 KiB pass with a four-entry TLB: every eighth iteration reaches a
/// line the 4 KiB L1 no longer holds, and every 512th a page the TLB
/// does not, so iterations bail on misses mid-entry.
#[test]
fn loop_block_reaching_cold_lines_and_pages_matches_the_reference() {
    for branch in LOOP_BRANCHES {
        let st = assert_loops_like_reference(branch, 80_000, |m| {
            let lo = 0x20000;
            let t = m
                .load_program(0, &loop_program(0x10000, lo, lo + 24 * 1024, 8, 1, branch))
                .unwrap();
            m.start_thread(t);
            (vec![t], (lo, 24 * 1024))
        });
        assert_iterated_and_bailed(branch, st);
    }
}

/// A device that rewrites a loop word at irregular intervals: its
/// events fall due mid-iteration, so the iteration budget must stop
/// each block entry before them.
#[test]
fn loop_block_with_device_events_due_mid_iteration_matches_the_reference() {
    for branch in LOOP_BRANCHES {
        let st = assert_loops_like_reference(branch, 60_000, |m| {
            let lo = 0x20000;
            let dev = m.register_device(move |m, id, arg| {
                m.poke_u64(lo + 8 * (arg % 128), arg);
                let next = m.now() + Cycles(37 + (arg * 13) % 50);
                m.at_device(next, id, arg + 1);
            });
            m.at_device(Cycles(500), dev, 0);
            let t = m
                .load_program(0, &loop_program(0x10000, lo, lo + 1024, 8, 1, branch))
                .unwrap();
            m.start_thread(t);
            (vec![t], (lo, 1024))
        });
        assert!(
            st.mem_block_insts > 7 * 2 * st.block_runs,
            "{branch}: {st:?}"
        );
    }
}

/// Two threads share the core's two slots until one halts; from then on
/// the halted thread's slot keeps a pending retry that each burst of the
/// loop runs past.
#[test]
fn loop_block_lifting_a_sibling_slot_event_matches_the_reference() {
    for branch in LOOP_BRANCHES {
        let st = assert_loops_like_reference(branch, 60_000, |m| {
            let lo = 0x20000;
            let t = m
                .load_program(0, &loop_program(0x10000, lo, lo + 1024, 8, 1, branch))
                .unwrap();
            let short = assemble(
                ".base 0x30000\n\
                 entry: movi r1, 300\n\
                 spin: addi r1, r1, -1\n\
                 bne r1, r0, spin\n\
                 halt\n",
            )
            .unwrap();
            let s = m.load_program(0, &short).unwrap();
            m.start_thread(t);
            m.start_thread(s);
            (vec![t, s], (lo, 1024))
        });
        assert!(
            st.mem_block_insts > 7 * 2 * st.block_runs,
            "{branch}: {st:?}"
        );
    }
}
