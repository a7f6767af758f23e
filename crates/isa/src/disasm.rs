//! Disassembler: the inverse of the assembler, for debugging and tests.

use crate::inst::Inst;

/// Renders one instruction in assembler syntax.
#[must_use]
pub fn disassemble(inst: Inst) -> String {
    use Inst::*;
    match inst {
        Add { d, a, b } => format!("add {d}, {a}, {b}"),
        Sub { d, a, b } => format!("sub {d}, {a}, {b}"),
        And { d, a, b } => format!("and {d}, {a}, {b}"),
        Or { d, a, b } => format!("or {d}, {a}, {b}"),
        Xor { d, a, b } => format!("xor {d}, {a}, {b}"),
        Shl { d, a, b } => format!("shl {d}, {a}, {b}"),
        Shr { d, a, b } => format!("shr {d}, {a}, {b}"),
        Mul { d, a, b } => format!("mul {d}, {a}, {b}"),
        Div { d, a, b } => format!("div {d}, {a}, {b}"),
        Addi { d, a, imm } => format!("addi {d}, {a}, {imm}"),
        Movi { d, imm } => format!("movi {d}, {imm}"),
        Mov { d, a } => format!("mov {d}, {a}"),
        Ld { d, a, off } => format!("ld {d}, {a}, {off}"),
        St { s, a, off } => format!("st {s}, {a}, {off}"),
        LdB { d, a, off } => format!("ldb {d}, {a}, {off}"),
        StB { s, a, off } => format!("stb {s}, {a}, {off}"),
        LdA { d, addr } => format!("ld {d}, {addr:#x}"),
        StA { s, addr } => format!("st {s}, {addr:#x}"),
        Jmp { addr } => format!("jmp {addr:#x}"),
        Jr { a } => format!("jr {a}"),
        Jal { d, addr } => format!("jal {d}, {addr:#x}"),
        Beq { a, b, addr } => format!("beq {a}, {b}, {addr:#x}"),
        Bne { a, b, addr } => format!("bne {a}, {b}, {addr:#x}"),
        Blt { a, b, addr } => format!("blt {a}, {b}, {addr:#x}"),
        Bge { a, b, addr } => format!("bge {a}, {b}, {addr:#x}"),
        Halt => "halt".to_owned(),
        Nop => "nop".to_owned(),
        Work { cycles } => format!("work {cycles}"),
        Syscall { num } => format!("syscall {num}"),
        VmCall { num } => format!("vmcall {num}"),
        HCall { num } => format!("hcall {num}"),
        Monitor { a } => format!("monitor {a}"),
        MonitorA { addr } => format!("monitor {addr:#x}"),
        MWait => "mwait".to_owned(),
        Start { vt } => format!("start {vt}"),
        Stop { vt } => format!("stop {vt}"),
        StartI { vtid } => format!("start {vtid}"),
        StopI { vtid } => format!("stop {vtid}"),
        RPull { vt, local, remote } => format!("rpull {vt}, {local}, {remote}"),
        RPush { vt, remote, local } => format!("rpush {vt}, {remote}, {local}"),
        InvTid { vt } => format!("invtid {vt}"),
        CsrR { d, csr } => format!("csrr {d}, {}", csr_name(csr)),
        CsrW { csr, a } => format!("csrw {}, {a}", csr_name(csr)),
        Fence => "fence".to_owned(),
    }
}

fn csr_name(c: crate::arch::CtrlReg) -> &'static str {
    match c {
        crate::arch::CtrlReg::Edp => "edp",
        crate::arch::CtrlReg::Tdtr => "tdtr",
        crate::arch::CtrlReg::Mode => "mode",
        crate::arch::CtrlReg::Prio => "prio",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn disassembly_reassembles_to_same_words() {
        let src = r#"
            data: .word 9
            entry:
                movi r1, 42
                addi r1, r1, -1
                ld r2, data
                st r2, r3, 8
                monitor data
                mwait
                start 5
                rpull r1, r2, pc
                csrw mode, r4
                work 100
                beq r1, r2, entry
                halt
        "#;
        let p1 = assemble(src).unwrap();
        // Round-trip every instruction word through the disassembler and
        // a fresh assembly.
        for (i, &w) in p1.words.iter().enumerate().skip(1) {
            let inst = Inst::decode(w).unwrap();
            let text = disassemble(inst);
            let re = assemble(&format!(".base {:#x}\nentry: {text}\n", p1.base))
                .unwrap_or_else(|e| panic!("reassembling '{text}': {e}"));
            assert_eq!(re.words[0], w, "word {i}: '{text}'");
        }
    }
}
