//! Superblock translation: decode once, execute pre-costed regions
//! (DESIGN.md §10).
//!
//! A *superblock* is a straight-line run of [inert] instructions in a
//! loaded image, optionally closed by one pure-control-flow terminal,
//! pre-decoded once and summarised (total cycle cost, registers
//! written, the exact L1 fetch-stream footprint). The burst loop in
//! `dispatch` (in `machine.rs`) executes a formed superblock as **one unit**
//! whenever its whole span provably fits inside the current burst; the
//! summary makes every entry check O(1) instead of O(instructions).
//!
//! Formation is driven by observed execution heat, not static
//! configuration: an entry pc must be dispatched [`SB_HOT`] times from
//! the burst loop before its region is walked and formed, so cold code
//! pays one table read and nothing else. Regions end at the first
//! instruction that could raise, trap, or otherwise schedule/observe
//! anything ([`Inst::is_inert`] is the whitelist, extended by
//! local-effect loads/stores — [`Inst::is_local_mem`] — when
//! memory-inclusive formation is enabled); an unconditional jump back
//! to the region's own entry — the shape of every spin/compute loop —
//! is unrolled up to [`SB_MAX_LEN`] instructions, since its interior
//! control flow is statically known.
//!
//! [inert]: Inst::is_inert

use switchless_isa::inst::Inst;
use switchless_mem::addr::PAddr;
use switchless_sim::time::Cycles;

/// Hard cap on instructions in one superblock, after unrolling. Kept
/// well under `MAX_BURST` so a block is never the reason a burst ends.
pub(crate) const SB_MAX_LEN: usize = 256;

/// Regions shorter than this (after unrolling) are not worth the entry
/// checks; their entry slot is marked dead instead.
pub(crate) const SB_MIN_LEN: usize = 4;

/// Executions of an entry pc observed by the burst loop before its
/// region is formed — the adaptive, heat-driven knob.
pub(crate) const SB_HOT: u32 = 16;

/// Per-slot state word in `CodeRange::sb`: a formed region was walked
/// and found not worth caching (too short, or opens with a non-inert
/// instruction).
pub(crate) const SB_DEAD: u32 = u32::MAX;

/// Per-slot state word flag: low bits index `CodeRange::blocks`.
/// Values below the flag are heat counts.
pub(crate) const SB_FORMED: u32 = 0x8000_0000;

/// A formed superblock: the pre-decoded execution sequence plus the
/// summary that makes whole-region execution checks O(1).
pub(crate) struct Superblock {
    /// Entry word slot in the owning `CodeRange`.
    pub(crate) start_slot: usize,
    /// Static footprint in word slots (the un-unrolled region): any
    /// code mutation overlapping `[start_slot, start_slot + len_slots)`
    /// kills the block.
    pub(crate) len_slots: usize,
    /// The full (possibly unrolled) instruction sequence; every element
    /// executes unconditionally.
    pub(crate) insts: Vec<Inst>,
    /// Total cycle cost: sum of base costs. The fetch stream must be
    /// fully L1-resident to execute as a block, and L1-hit fetches cost
    /// zero (pipelined frontend), so base costs are the whole story.
    pub(crate) cost: Cycles,
    /// Base cost of the final instruction — the serial engine leaves
    /// `now` at the *dispatch* time of the last executed instruction,
    /// i.e. block-end minus this.
    pub(crate) last_cost: Cycles,
    /// Union of `Thread::touched` bits the sequence writes.
    pub(crate) touched: u32,
    /// Indices in `insts` of the local-effect memory instructions, in
    /// order (each performs exactly one data access); empty for pure
    /// register blocks. Every block runs through the one executor
    /// (`exec_superblock` in `machine.rs`), which runs the ALU/branch
    /// stretch before each of them with `exec_regs` and resolves the data
    /// access at run time.
    pub(crate) mem_at: Vec<usize>,
    /// Whether the final instruction is a memory access — its dynamic
    /// dispatch cost is `last_cost` plus one L1 hit, which the engines
    /// need to place `now` at the last instruction's dispatch time.
    pub(crate) last_is_mem: bool,
    /// Distinct L1 lines of the fetch stream, each with the 1-based
    /// index of its last access (see `Cache::access_run_mixed`). For
    /// memory-inclusive blocks the indices are positions in the *merged*
    /// fetch+data access stream (each instruction fetches, then memory
    /// instructions immediately perform their one data access), so the
    /// executing engine can splice dynamically-resolved data lines into
    /// the same numbering.
    pub(crate) lines: Vec<(PAddr, u64)>,
    /// Cleared when a code mutation kills the block; the `blocks` slot
    /// is recycled through `CodeRange::sb_free`.
    pub(crate) live: bool,
}

impl Superblock {
    /// Number of data accesses the block performs.
    pub(crate) fn mem_ops(&self) -> u64 {
        self.mem_at.len() as u64
    }
}

/// Walks the decoded image from `slot` and forms a superblock, or
/// returns `None` when the region is not worth caching. `base` is the
/// image base address; `insts` its decoded words.
///
/// Local-effect loads and stores ([`Inst::is_local_mem`]) are admitted
/// alongside inert instructions — the memory-inclusive regions of
/// DESIGN.md §10. Their effective addresses are data-dependent, so the
/// block records only the *count* of data accesses; the executing engine
/// resolves the data footprint at run time and bails to single-step on
/// any non-local effect.
pub(crate) fn form(base: u64, insts: &[Option<Inst>], slot: usize) -> Option<Superblock> {
    let entry_pc = base + 8 * slot as u64;
    let mut seq: Vec<Inst> = Vec::new();
    let mut terminal: Option<Inst> = None;
    for w in &insts[slot..] {
        if seq.len() == SB_MAX_LEN {
            break;
        }
        // A non-decoding word ends the region (the slow path re-raises
        // the precise exception; it can never be inside a block).
        let Some(i) = *w else { break };
        if i.is_inert() || i.is_local_mem() {
            seq.push(i);
        } else if i.is_region_terminal() {
            terminal = Some(i);
            seq.push(i);
            break;
        } else {
            break;
        }
    }
    let len_slots = seq.len();
    if len_slots == 0 {
        return None;
    }
    // Unroll an unconditional self-loop: with the jump target equal to
    // the entry pc, the whole unrolled sequence executes
    // unconditionally, so it is still a single straight-line unit.
    if matches!(terminal, Some(Inst::Jmp { addr }) if addr == entry_pc) {
        let copies = SB_MAX_LEN / len_slots;
        let body = seq.clone();
        for _ in 1..copies {
            seq.extend_from_slice(&body);
        }
    }
    if seq.len() < SB_MIN_LEN {
        return None;
    }

    let mut cost = 0u64;
    let mut touched = 0u32;
    for i in &seq {
        cost += i.base_cost();
        if let Some(d) = i.dest_reg() {
            touched |= 1 << (d.0 & 0xf);
        }
    }
    let last = seq.last().expect("checked non-empty");
    let last_cost = Cycles(last.base_cost());
    let last_is_mem = last.is_local_mem();
    let mem_at = (0..seq.len()).filter(|&k| seq[k].is_local_mem()).collect();

    // Fetch-stream footprint: walk the pc sequence (interior control
    // flow is only ever the unrolled self-jump, whose target is static)
    // and record each distinct line with its last-access index. Indices
    // are positions in the merged fetch+data stream: each instruction's
    // fetch access is followed immediately by its data access when it
    // has one, so a memory instruction advances the position by two.
    // For pure blocks this reduces to plain instruction numbering.
    let mut lines: Vec<(PAddr, u64)> = Vec::new();
    let mut pc = entry_pc;
    let mut pos = 0u64;
    for i in &seq {
        pos += 1;
        let line = PAddr(pc).line();
        match lines.iter_mut().find(|(l, _)| *l == line) {
            Some((_, at)) => *at = pos,
            None => lines.push((line, pos)),
        }
        if i.is_local_mem() {
            pos += 1;
        }
        pc = match i {
            Inst::Jmp { addr } => *addr,
            _ => pc + 8,
        };
    }

    Some(Superblock {
        start_slot: slot,
        len_slots,
        insts: seq,
        cost: Cycles(cost),
        last_cost,
        touched,
        mem_at,
        last_is_mem,
        lines,
        live: true,
    })
}

/// Executes an ALU/branch-only stretch of a superblock's instruction
/// sequence over one thread's registers; returns the exit pc. The
/// caller folds the block's pre-computed `touched` mask into the thread.
#[inline]
pub(crate) fn exec_regs(insts: &[Inst], gprs: &mut [u64; 16], entry_pc: u64) -> u64 {
    let (mut pc, mut touched) = (entry_pc, 0);
    for &i in insts {
        pc = alu(i, gprs, &mut touched, pc).expect("a stretch holds only ALU/branch instructions");
    }
    pc
}

/// The ALU/branch semantics, the one copy every interpreter path shares
/// (`exec_regs`, which the superblock walk runs, and `exec_inst`): executes
/// `i` at `pc` over `gprs`, marking written registers in `touched`
/// (the `Thread::touched` mask), and returns the next pc, or `None` when
/// `i` is not a register or branch instruction (`Div`, which can fault,
/// is not one). `pc + 8` must not overflow; every caller fetched `i`
/// from inside memory.
#[inline(always)]
pub(crate) fn alu(i: Inst, gprs: &mut [u64; 16], touched: &mut u32, pc: u64) -> Option<u64> {
    macro_rules! gpr {
        ($r:expr) => {
            gprs[$r.0 as usize & 0xf]
        };
    }
    macro_rules! set {
        ($d:expr, $v:expr) => {{
            gprs[$d.0 as usize & 0xf] = $v;
            *touched |= 1 << ($d.0 & 0xf);
        }};
    }
    let mut next = pc + 8;
    use Inst::*;
    match i {
        Add { d, a, b } => set!(d, gpr!(a).wrapping_add(gpr!(b))),
        Sub { d, a, b } => set!(d, gpr!(a).wrapping_sub(gpr!(b))),
        And { d, a, b } => set!(d, gpr!(a) & gpr!(b)),
        Or { d, a, b } => set!(d, gpr!(a) | gpr!(b)),
        Xor { d, a, b } => set!(d, gpr!(a) ^ gpr!(b)),
        Shl { d, a, b } => set!(d, gpr!(a) << (gpr!(b) & 63)),
        Shr { d, a, b } => set!(d, gpr!(a) >> (gpr!(b) & 63)),
        Mul { d, a, b } => set!(d, gpr!(a).wrapping_mul(gpr!(b))),
        Addi { d, a, imm } => set!(d, gpr!(a).wrapping_add(imm as u64)),
        Movi { d, imm } => set!(d, imm as u64),
        Mov { d, a } => set!(d, gpr!(a)),
        Nop | Work { .. } | Fence => {}
        Jmp { addr } => next = addr,
        Jr { a } => next = gpr!(a),
        Jal { d, addr } => {
            set!(d, pc + 8);
            next = addr;
        }
        Beq { a, b, addr } if gpr!(a) == gpr!(b) => next = addr,
        Bne { a, b, addr } if gpr!(a) != gpr!(b) => next = addr,
        Blt { a, b, addr } if (gpr!(a) as i64) < (gpr!(b) as i64) => next = addr,
        Bge { a, b, addr } if (gpr!(a) as i64) >= (gpr!(b) as i64) => next = addr,
        Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } => {}
        _ => return None,
    }
    Some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchless_isa::asm::assemble;

    fn decoded(src: &str) -> (u64, Vec<Option<Inst>>) {
        let p = assemble(src).expect("test program");
        (
            p.base,
            p.words.iter().map(|&w| Inst::decode(w).ok()).collect(),
        )
    }

    #[test]
    fn region_stops_before_monitor_and_trap_ops() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 2\n\
             xor r3, r1, r2\n\
             mul r4, r3, r3\n\
             monitor r5\n\
             halt\n",
        );
        let b = form(base, &insts, 0).expect("four inert insts form");
        assert_eq!(b.len_slots, 4);
        assert_eq!(b.insts.len(), 4);
        // 1 + 1 + 1 + 3 (mul).
        assert_eq!(b.cost, Cycles(6));
        assert_eq!(b.last_cost, Cycles(3));
        assert_eq!(b.touched, 0b11110);
        // Starting *at* the monitor: not a region.
        assert!(form(base, &insts, 4).is_none());
    }

    #[test]
    fn too_short_regions_are_rejected() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 2\n\
             halt\n",
        );
        assert!(form(base, &insts, 0).is_none(), "2 < SB_MIN_LEN");
    }

    #[test]
    fn self_loop_unrolls_to_the_cap() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             loop: addi r1, r1, 1\n\
             addi r2, r1, 3\n\
             xor r3, r2, r1\n\
             jmp loop\n",
        );
        let b = form(base, &insts, 0).expect("self-loop forms");
        assert_eq!(b.len_slots, 4);
        assert_eq!(b.insts.len(), 256, "unrolled to SB_MAX_LEN / 4 copies");
        assert_eq!(b.cost, Cycles(256));
        // All four instructions live on one 64-byte line; its last
        // access is the final unrolled instruction.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 256)]);
        // Executing the block loops back to the entry.
        let mut gprs = [0u64; 16];
        let exit = exec_regs(&b.insts, &mut gprs, base);
        assert_eq!(exit, base);
        assert_eq!(gprs[1], 64, "64 unrolled iterations of addi r1");
    }

    #[test]
    fn non_self_jump_is_terminal_not_unrolled() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 1\n\
             addi r3, r3, 1\n\
             jmp entry2\n\
             entry2: halt\n",
        );
        let b = form(base, &insts, 0).expect("jmp-closed region forms");
        assert_eq!(b.insts.len(), 4);
        let mut gprs = [0u64; 16];
        let exit = exec_regs(&b.insts, &mut gprs, base);
        assert_eq!(exit, base + 32);
    }

    #[test]
    fn branch_terminal_follows_register_state() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             addi r2, r2, 0\n\
             nop\n\
             bne r1, r4, entry\n\
             halt\n",
        );
        let b = form(base, &insts, 0).expect("branch-closed region forms");
        assert_eq!(b.insts.len(), 4);
        let mut gprs = [0u64; 16];
        // r1 becomes 1 != r4 (0): branch taken, back to entry.
        assert_eq!(exec_regs(&b.insts, &mut gprs, base), base);
        gprs[4] = 2;
        // r1 becomes 2 == r4: fall through.
        assert_eq!(exec_regs(&b.insts, &mut gprs, base), base + 32);
    }

    #[test]
    fn fetch_lines_track_multi_line_regions() {
        // 9 inert instructions starting at a line boundary span two
        // 64-byte lines (8 insts per line).
        let mut src = String::from(".base 0x1000\nentry: ");
        for _ in 0..9 {
            src.push_str("addi r1, r1, 1\n");
        }
        src.push_str("halt\n");
        let (base, insts) = decoded(&src);
        let b = form(base, &insts, 0).expect("9 inert insts form");
        assert_eq!(
            b.lines.as_slice(),
            &[(PAddr(0x1000), 8), (PAddr(0x1040), 9)]
        );
    }

    #[test]
    fn form_admits_loads_and_stores() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             entry: addi r1, r1, 1\n\
             ld r2, r5, 0\n\
             add r2, r2, r1\n\
             st r2, r5, 0\n\
             halt\n",
        );
        let b = form(base, &insts, 0).expect("mem region forms");
        assert_eq!(b.len_slots, 4);
        assert_eq!(b.mem_ops(), 2);
        assert!(b.last_is_mem, "final instruction is the store");
        assert_eq!(b.cost, Cycles(4), "base costs only; latency is dynamic");
        assert_eq!(b.last_cost, Cycles(1));
        // touched: r1 (addi), r2 (ld, add). Stores touch nothing.
        assert_eq!(b.touched, 0b110);
        // Merged-stream numbering: fetches at 1, 2, 4, 5 (the load's
        // data access occupies 3, the store's 6); one fetch line.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 5)]);
        // The load and the store sit at indices 1 and 3.
        assert_eq!(b.mem_at, [1, 3]);
    }

    #[test]
    fn mem_self_loop_unrolls_with_merged_positions() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             loop: st r1, r5, 0\n\
             st r1, r5, 8\n\
             jmp loop\n",
        );
        let b = form(base, &insts, 0).expect("store loop forms");
        assert_eq!(b.len_slots, 3);
        assert_eq!(b.insts.len(), 255, "85 copies of 3");
        assert_eq!(b.mem_ops(), 170);
        assert!(!b.last_is_mem, "final instruction is the jump");
        // Merged stream: 255 fetches + 170 data accesses = 425
        // positions; the last access of the single fetch line is the
        // final jump's fetch at position 425.
        assert_eq!(b.lines.as_slice(), &[(PAddr(0x1000), 425)]);
    }

    #[test]
    fn pure_blocks_have_no_mem_ops() {
        let (base, insts) = decoded(
            ".base 0x1000\n\
             loop: addi r1, r1, 1\n\
             addi r2, r1, 3\n\
             xor r3, r2, r1\n\
             jmp loop\n",
        );
        let b = form(base, &insts, 0).expect("forms");
        assert_eq!(b.mem_ops(), 0);
        assert!(!b.last_is_mem);
    }
}
