//! Disassembler: the inverse of the assembler, for debugging and tests.

use crate::arch::{CtrlReg, RegSel};
use crate::inst::{Field, Inst, Spec};

/// Renders one instruction in assembler syntax: its table row's
/// mnemonic, then each operand read back from the encoded word.
#[must_use]
pub fn disassemble(inst: Inst) -> String {
    let word = inst.encode();
    let spec = Spec::of(word).expect("every instruction has a table row");
    let operands: Vec<String> = spec
        .operands
        .iter()
        .map(|&(_, field)| {
            let v = field.get(word);
            match field {
                Field::Rd | Field::Rs1 | Field::Rs2 => format!("r{v}"),
                Field::Simm => (v as i64).to_string(),
                Field::Addr => format!("{v:#x}"),
                Field::U16 | Field::U32 => v.to_string(),
                Field::Csr => CtrlReg::from_code(v).expect("valid CSR").name().to_owned(),
                // An out-of-range `RegSel::Gpr` has no selector code.
                Field::Sel => RegSel::decode(v as u8)
                    .unwrap_or(RegSel::Gpr(v as u8))
                    .to_string(),
            }
        })
        .collect();
    if operands.is_empty() {
        spec.mnemonic.to_owned()
    } else {
        format!("{} {}", spec.mnemonic, operands.join(", "))
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
