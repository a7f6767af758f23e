//! "No VM-Exits" + "Untrusted Hypervisors" (§2).
//!
//! The guest runs in a user-mode hardware thread. A `vmcall` does not
//! mode-switch: the hardware writes a VM-exit descriptor at the guest's
//! EDP and **disables the guest thread**. The hypervisor — itself an
//! *unprivileged, user-mode* hardware thread — monitors the descriptor
//! area, services the exit, and restarts the guest using nothing but a
//! TDT entry granting it `start` rights over the guest. For I/O exits it
//! chains to a privileged kernel thread through an ordinary mailbox.
//!
//! That is the paper's claim made executable: the hypervisor provides
//! full functionality "without privileged access to the kernel or the
//! hardware".

use switchless_core::exception::DESCRIPTOR_BYTES;
use switchless_core::machine::{Machine, MachineError, ThreadId};
use switchless_core::perm::{Perms, TdtEntry};
use switchless_core::tid::Vtid;
use switchless_isa::asm::assemble;
#[cfg(test)]
use switchless_sim::time::Cycles;

/// VM-exit numbers used by the guest.
pub mod exits {
    /// A cpuid-like exit the hypervisor handles locally.
    pub const CPUID: u16 = 1;
    /// An I/O exit that chains to the kernel thread.
    pub const IO: u16 = 2;
}

/// The installed hypervisor stack.
#[derive(Clone, Copy, Debug)]
pub struct Hypervisor {
    /// The guest thread (user mode).
    pub guest: ThreadId,
    /// The hypervisor thread (user mode — the point).
    pub hv: ThreadId,
    /// The kernel I/O thread (supervisor).
    pub kernel: ThreadId,
    /// Exits-handled counter word.
    pub exits_word: u64,
    /// Kernel-chained I/O counter word.
    pub io_word: u64,
}

/// Configuration for [`install`].
#[derive(Clone, Copy, Debug)]
pub struct HvConfig {
    /// Guest compute cycles between exits.
    pub guest_work: u32,
    /// Hypervisor cycles per exit.
    pub hv_work: u32,
    /// Kernel cycles per chained I/O exit.
    pub kernel_work: u32,
    /// Number of exits the guest performs before halting.
    pub iters: u32,
    /// Exit number the guest raises ([`exits::CPUID`] or [`exits::IO`]).
    pub exit_num: u16,
}

/// Builds the guest + unprivileged hypervisor + kernel trio on `core`.
///
/// The machine must be in `TrapMode::Descriptor` (the default for
/// `MachineConfig::small`), or the `vmcall` would mode-switch instead.
pub fn install(m: &mut Machine, core: usize, cfg: HvConfig) -> Result<Hypervisor, MachineError> {
    let guest_edp = m.alloc(DESCRIPTOR_BYTES);
    let exits_word = m.alloc(64);
    let io_word = m.alloc(64);
    let kreq = m.alloc(64);
    let kresp = m.alloc(64);

    // Guest: work, vmcall, repeat. After each exit it is restarted by
    // the hypervisor and resumes at the instruction after the vmcall.
    let guest_prog = assemble(&format!(
        r#"
        .base 0x40000
        entry:
            movi r6, {iters}
            movi r7, 0
        loop:
            work {gwork}
            vmcall {exit}
            addi r7, r7, 1
            bne r7, r6, loop
            halt
        "#,
        iters = cfg.iters,
        gwork = cfg.guest_work,
        exit = cfg.exit_num,
    ))
    .expect("guest template is valid");
    let guest = m.load_program_user(core, &guest_prog)?;
    m.set_thread_edp(guest, guest_edp);

    // Kernel I/O thread: ordinary supervisor mailbox service.
    let kernel_prog = assemble(&format!(
        r#"
        .base 0x48000
        entry:
            movi r1, 0
        loop:
            monitor {kreq}
            ld r2, {kreq}
            bne r2, r1, serve
            mwait
            jmp loop
        serve:
            mov r1, r2
            work {kwork}
            st r2, {kresp}
            ld r4, {iow}
            addi r4, r4, 1
            st r4, {iow}
            jmp loop
        "#,
        kreq = kreq,
        kresp = kresp,
        kwork = cfg.kernel_work,
        iow = io_word,
    ))
    .expect("kernel template is valid");
    let kernel = m.load_program(core, &kernel_prog)?;
    m.set_thread_prio(kernel, 6);
    m.start_thread(kernel);

    // Hypervisor: user mode. Monitors the guest's descriptor kind word;
    // r0 is never written and serves as constant zero.
    let hv_prog = assemble(&format!(
        r#"
        .base 0x50000
        entry:
            movi r9, 0           ; kernel request seq
            movi r10, 0          ; exits handled
        loop:
            monitor {kind}
            ld r2, {kind}
            bne r2, r0, handle
            mwait
            jmp loop
        handle:
            ld r3, {info}        ; exit number
            work {hvwork}
            movi r4, {io_exit}
            bne r3, r4, finish
            ; chain the I/O request to the kernel thread
            addi r9, r9, 1
            st r9, {kreq}
        kwait:
            monitor {kresp}
            ld r5, {kresp}
            beq r5, r9, finish
            mwait
            jmp kwait
        finish:
            st r0, {kind}        ; clear BEFORE restarting the guest
            addi r10, r10, 1
            st r10, {exits}
            start 0              ; vtid 0 -> guest (TDT grants START)
            jmp loop
        "#,
        kind = guest_edp,
        info = guest_edp + 24,
        hvwork = cfg.hv_work,
        io_exit = exits::IO,
        kreq = kreq,
        kresp = kresp,
        exits = exits_word,
    ))
    .expect("hypervisor template is valid");
    let hv = m.load_program_user(core, &hv_prog)?;
    m.set_thread_prio(hv, 6);

    // The hypervisor's TDT: vtid 0 -> guest, start rights only. It can
    // wake the guest but cannot, say, rewrite the kernel's registers.
    let tdt = m.alloc(8 * 16);
    m.write_tdt_entry(tdt, Vtid(0), TdtEntry::new(guest.ptid, Perms::START));
    m.set_thread_tdtr(hv, tdt);

    m.start_thread(hv);
    m.start_thread(guest);
    Ok(Hypervisor {
        guest,
        hv,
        kernel,
        exits_word,
        io_word,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_core::machine::MachineConfig;
    use switchless_core::tid::ThreadState;
    use switchless_isa::arch::Mode;

    fn cfg() -> HvConfig {
        HvConfig {
            guest_work: 2_000,
            hv_work: 500,
            kernel_work: 800,
            iters: 10,
            exit_num: exits::CPUID,
        }
    }

    #[test]
    fn guest_completes_with_unprivileged_hypervisor() {
        let mut m = Machine::new(MachineConfig::small());
        let h = install(&mut m, 0, cfg()).unwrap();
        assert_eq!(m.thread_mode(h.hv), Mode::User, "hypervisor is untrusted");
        m.run_for(Cycles(2_000_000));
        assert_eq!(m.thread_state(h.guest), ThreadState::Halted);
        assert_eq!(m.peek_u64(h.exits_word), 10);
        assert_eq!(m.counters().get("exception.vm_exit"), 10);
        // No same-thread VM-exit round trips happened anywhere.
        assert_eq!(m.counters().get("vmexit.same_thread"), 0);
    }

    #[test]
    fn io_exits_chain_to_kernel_thread() {
        let mut m = Machine::new(MachineConfig::small());
        let h = install(
            &mut m,
            0,
            HvConfig {
                exit_num: exits::IO,
                iters: 5,
                ..cfg()
            },
        )
        .unwrap();
        m.run_for(Cycles(3_000_000));
        assert_eq!(m.thread_state(h.guest), ThreadState::Halted);
        assert_eq!(m.peek_u64(h.exits_word), 5);
        assert_eq!(m.peek_u64(h.io_word), 5, "kernel served each I/O exit");
    }

    #[test]
    fn hypervisor_cannot_touch_kernel_thread() {
        // The TDT maps only the guest; a hostile hypervisor trying to
        // stop the kernel (vtid 1, unmapped) faults.
        let mut m = Machine::new(MachineConfig::small());
        let h = install(&mut m, 0, cfg()).unwrap();
        // Give the hv thread its own EDP so the fault is observable.
        let hv_edp = m.alloc(32);
        m.set_thread_edp(h.hv, hv_edp);
        // Patch: drive a fresh hostile thread with the same TDT instead.
        let hostile = assemble(
            r#"
            .base 0x60000
            entry:
                stop 1
                halt
            "#,
        )
        .unwrap();
        let bad = m.load_program_user(0, &hostile).unwrap();
        let tdt = m.alloc(8 * 16);
        m.write_tdt_entry(tdt, Vtid(0), TdtEntry::new(h.guest.ptid, Perms::START));
        m.set_thread_tdtr(bad, tdt);
        let bad_edp = m.alloc(32);
        m.set_thread_edp(bad, bad_edp);
        m.start_thread(bad);
        m.run_for(Cycles(100_000));
        assert_eq!(m.thread_state(bad), ThreadState::Disabled, "faulted");
        assert!(m.counters().get("exception.permission_denied") >= 1);
        // The kernel thread is unharmed.
        assert_ne!(m.thread_state(h.kernel), ThreadState::Disabled);
    }

    #[test]
    fn exit_handling_latency_beats_legacy_roundtrip_budget() {
        // One cpuid exit round trip (guest -> hv -> guest) measured
        // end-to-end, compared with the legacy ~1500-cycle VM-exit
        // hardware cost *alone* (before any hypervisor work).
        let mut m = Machine::new(MachineConfig::small());
        let h = install(
            &mut m,
            0,
            HvConfig {
                guest_work: 1,
                hv_work: 1,
                kernel_work: 1,
                iters: 100,
                exit_num: exits::CPUID,
            },
        )
        .unwrap();
        let t0 = m.now();
        assert!(m.run_until_state(h.guest, ThreadState::Halted, Cycles(3_000_000)));
        let elapsed = (m.now() - t0).0;
        let per_exit = elapsed / 100;
        // Whole exit round trip (two wakes + bookkeeping) should be a
        // few hundred cycles — same order as the bare legacy VM-exit
        // penalty, while also buying isolation.
        assert!(per_exit < 1500, "per-exit {per_exit} cycles");
    }
}
