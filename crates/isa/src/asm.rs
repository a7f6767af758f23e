//! A two-pass assembler for the `switchless` ISA.
//!
//! The assembler exists so that kernels and test programs in this
//! repository are *real programs* executed instruction-by-instruction by
//! the machine model, not hand-woven event scripts. Syntax is
//! deliberately small:
//!
//! ```text
//! ; comment        (also # and //)
//! .base 0x10000    ; load address (default 0x10000)
//! .equ TEN, 10     ; named constant
//! tail: .word 0    ; 8-byte initialised data
//! buf:  .zero 64   ; zero-filled bytes (rounded up to 8)
//! entry:
//!     movi r1, TEN
//!     addi r1, r1, -1
//!     ld   r2, tail        ; absolute (label) load
//!     st   r2, r3, 8       ; register+offset store
//!     monitor tail
//!     mwait
//!     beq  r1, r2, entry
//!     halt
//! ```
//!
//! Execution starts at the `entry` label if defined, else at `.base`.
//! Every instruction and `.word` occupies 8 bytes.

use std::collections::HashMap;

use crate::arch::{CtrlReg, RegSel};
use crate::inst::{opcode_bits, Field, Inst, Reg, Spec, IMM44_MAX, TABLE};

/// A fully assembled, loadable program image.
#[derive(Clone, Debug)]
pub struct Program {
    /// Load address of the first word.
    pub base: u64,
    /// Image contents (code and data), one 64-bit word per 8 bytes.
    pub words: Vec<u64>,
    /// Address execution starts at.
    pub entry: u64,
    symbols: HashMap<String, u64>,
}

impl Program {
    /// Builds a raw image from pre-encoded words (fuzzers, generated
    /// code). Execution starts at `base`; the symbol table is empty.
    #[must_use]
    pub fn from_words(base: u64, words: Vec<u64>) -> Program {
        Program {
            base,
            entry: base,
            words,
            symbols: HashMap::new(),
        }
    }

    /// Address of a label or `.equ` constant.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// First address past the image.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + (self.words.len() as u64) * 8
    }

    /// Decodes the instruction at an (8-byte aligned) address, if the
    /// address is inside the image and holds a valid instruction.
    #[must_use]
    pub fn inst_at(&self, addr: u64) -> Option<Inst> {
        if addr < self.base || addr >= self.end() || !addr.is_multiple_of(8) {
            return None;
        }
        let idx = ((addr - self.base) / 8) as usize;
        Inst::decode(self.words[idx]).ok()
    }
}

/// An assembly error, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// Default load address when no `.base` directive is present.
pub const DEFAULT_BASE: u64 = 0x10000;

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, _) in line.match_indices([';', '#']) {
        end = end.min(i);
    }
    if let Some(i) = line.find("//") {
        end = end.min(i);
    }
    &line[..end]
}

/// One parsed source line that emits words; text fields are slices of
/// the source.
#[derive(Clone, Debug)]
enum Item<'a> {
    Inst {
        line: usize,
        /// As written: matched against the table case-insensitively.
        mnemonic: &'a str,
        /// The comma-separated operands as written; empty for none.
        operands: &'a str,
    },
    Word {
        line: usize,
        value: &'a str,
    },
    Zero {
        words: u64,
    },
    Ascii {
        bytes: &'a [u8],
    },
}

struct Parsed<'a> {
    base: u64,
    items: Vec<Item<'a>>,
    symbols: HashMap<String, u64>,
}

/// A decimal or `0x` hex number with an optional `-`. Underscores are
/// separators anywhere, and the digits may carry one more sign, as
/// [`i64::from_str_radix`] reads them.
fn parse_number(tok: &str) -> Option<i64> {
    let mut chars = tok.bytes().filter(|&b| b != b'_').peekable();
    let neg = chars.next_if_eq(&b'-').is_some();
    let mut ahead = chars.clone();
    let radix = if ahead.next() == Some(b'0') && matches!(ahead.next(), Some(b'x' | b'X')) {
        chars = ahead;
        16
    } else {
        10
    };
    let minus = chars.next_if_eq(&b'-').is_some();
    if !minus {
        chars.next_if_eq(&b'+');
    }
    // Accumulating towards the sign reaches `i64::MIN` without overflow.
    let mut v: Option<i64> = None;
    for b in chars {
        let d = i64::from(char::from(b).to_digit(radix)?);
        let acc = v.unwrap_or(0).checked_mul(i64::from(radix))?;
        v = Some(if minus {
            acc.checked_sub(d)
        } else {
            acc.checked_add(d)
        }?);
    }
    let v = v?;
    Some(if neg { -v } else { v })
}

fn is_ident(tok: &str) -> bool {
    let mut chars = tok.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn parse_source(src: &str) -> Result<Parsed<'_>, AsmError> {
    let mut base: Option<u64> = None;
    let mut items: Vec<Item> = Vec::new();
    let mut labels: Vec<(&str, u64, usize)> = Vec::new(); // (name, word-offset, line)
    let mut equs: Vec<(&str, i64, usize)> = Vec::new();
    let mut offset_words: u64 = 0;

    for (lineno, raw) in src.lines().enumerate() {
        let line_number = lineno + 1;
        let mut text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        // Peel off any leading labels ("name: rest").
        while let Some(colon) = text.find(':') {
            let (head, rest) = text.split_at(colon);
            let head = head.trim();
            if !is_ident(head) {
                return Err(err(line_number, format!("invalid label name '{head}'")));
            }
            labels.push((head, offset_words, line_number));
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (word, rest) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        match word {
            ".base" => {
                let v = parse_number(rest)
                    .ok_or_else(|| err(line_number, format!("bad .base value '{rest}'")))?;
                if offset_words != 0 {
                    return Err(err(line_number, ".base must precede code/data"));
                }
                if v < 0 || v as u64 > IMM44_MAX {
                    return Err(err(line_number, ".base out of 44-bit range"));
                }
                if v % 8 != 0 {
                    return Err(err(line_number, ".base must be 8-byte aligned"));
                }
                base = Some(v as u64);
            }
            ".equ" => {
                let parts: Vec<&str> = rest.splitn(2, ',').map(str::trim).collect();
                if parts.len() != 2 || !is_ident(parts[0]) {
                    return Err(err(line_number, "usage: .equ NAME, VALUE"));
                }
                let v = parse_number(parts[1])
                    .ok_or_else(|| err(line_number, format!("bad .equ value '{}'", parts[1])))?;
                equs.push((parts[0], v, line_number));
            }
            ".word" => {
                if rest.is_empty() {
                    return Err(err(line_number, ".word needs a value"));
                }
                items.push(Item::Word {
                    line: line_number,
                    value: rest,
                });
                offset_words += 1;
            }
            ".ascii" => {
                if rest.len() < 2 || !rest.starts_with('"') || !rest.ends_with('"') {
                    return Err(err(line_number, r#"usage: .ascii "text""#));
                }
                let bytes = &rest.as_bytes()[1..rest.len() - 1];
                let words = (bytes.len() as u64).div_ceil(8).max(1);
                items.push(Item::Ascii { bytes });
                offset_words += words;
            }
            ".zero" => {
                let v = parse_number(rest)
                    .filter(|&v| v >= 0)
                    .ok_or_else(|| err(line_number, format!("bad .zero size '{rest}'")))?;
                let words = (v as u64).div_ceil(8).max(1);
                items.push(Item::Zero { words });
                offset_words += words;
            }
            m if m.starts_with('.') => {
                return Err(err(line_number, format!("unknown directive '{m}'")));
            }
            mnemonic => {
                if operand_list(rest).any(str::is_empty) {
                    return Err(err(line_number, "empty operand"));
                }
                items.push(Item::Inst {
                    line: line_number,
                    mnemonic,
                    operands: rest,
                });
                offset_words += 1;
            }
        }
    }

    let base = base.unwrap_or(DEFAULT_BASE);
    let mut symbols: HashMap<String, u64> = HashMap::new();
    for (name, off, line) in labels {
        if symbols.insert(name.to_owned(), base + off * 8).is_some() {
            return Err(err(line, format!("duplicate label '{name}'")));
        }
    }
    for (name, v, line) in equs {
        if v < 0 {
            return Err(err(line, format!(".equ '{name}' must be non-negative")));
        }
        if symbols.insert(name.to_owned(), v as u64).is_some() {
            return Err(err(line, format!("duplicate symbol '{name}'")));
        }
    }
    Ok(Parsed {
        base,
        items,
        symbols,
    })
}

/// The trimmed operands of a comma-separated list; none for an empty
/// list.
fn operand_list(ops: &str) -> impl Iterator<Item = &str> {
    (!ops.is_empty())
        .then(|| ops.split(',').map(str::trim))
        .into_iter()
        .flatten()
}

/// Pseudo-instructions: each names the instruction it assembles to and
/// the operands it supplies ahead of the written ones.
const ALIASES: [(&str, &str, &[&str]); 3] = [
    ("call", "jal", &["r14"]),
    ("ret", "jr", &["r14"]),
    ("li", "movi", &[]),
];

fn parse_reg(tok: &str) -> Option<Reg> {
    let n: u8 = tok.strip_prefix(['r', 'R'])?.parse().ok()?;
    (n < 16).then_some(Reg(n))
}

struct Ctx<'a> {
    symbols: &'a HashMap<String, u64>,
    line: usize,
}

impl Ctx<'_> {
    fn reg(&self, tok: &str) -> Result<Reg, AsmError> {
        parse_reg(tok).ok_or_else(|| err(self.line, format!("expected register, got '{tok}'")))
    }

    /// A signed immediate or symbol value.
    fn imm(&self, tok: &str) -> Result<i64, AsmError> {
        if let Some(v) = parse_number(tok) {
            return Ok(v);
        }
        if let Some(&v) = self.symbols.get(tok) {
            return Ok(v as i64);
        }
        Err(err(
            self.line,
            format!("undefined symbol or bad number '{tok}'"),
        ))
    }

    /// The raw value of operand `tok` for `field`, range-checked.
    fn operand(&self, field: Field, tok: &str) -> Result<u64, AsmError> {
        let ranged = |lo: i64, hi: i64, what: &str| {
            let v = self.imm(tok)?;
            if (lo..=hi).contains(&v) {
                Ok(v as u64)
            } else {
                Err(err(self.line, format!("{what} '{tok}' out of range")))
            }
        };
        match field {
            Field::Rd | Field::Rs1 | Field::Rs2 => Ok(u64::from(self.reg(tok)?.0)),
            Field::Simm => ranged(-(1 << 43), (1 << 43) - 1, "signed 44-bit immediate"),
            Field::Addr => ranged(0, IMM44_MAX as i64, "44-bit address"),
            Field::U16 => ranged(0, 0xffff, "u16 immediate"),
            Field::U32 => ranged(0, 0xffff_ffff, "u32 immediate"),
            Field::Csr => match CtrlReg::from_name(tok) {
                Some(c) => Ok(u64::from(c.code())),
                None => Err(err(
                    self.line,
                    format!("expected control register, got '{tok}'"),
                )),
            },
            Field::Sel => {
                let sel = if tok.eq_ignore_ascii_case("pc") {
                    RegSel::Pc
                } else if let Some(c) = CtrlReg::from_name(tok) {
                    RegSel::Ctrl(c)
                } else {
                    RegSel::Gpr(self.reg(tok)?.0)
                };
                Ok(u64::from(sel.encode()))
            }
        }
    }
}

/// Assembles one instruction line to its word. Of the mnemonic's table
/// rows, it takes the one whose operand count matches and whose register
/// operands are exactly the register tokens; failing that, the last row
/// with the right count reports what is wrong.
fn encode_item(mnemonic: &str, ops: &str, ctx: &Ctx<'_>) -> Result<u64, AsmError> {
    let (name, fixed) = ALIASES
        .iter()
        .find(|a| a.0.eq_ignore_ascii_case(mnemonic))
        .map_or((mnemonic, &[][..]), |a| (a.1, a.2));
    // No row has more than three operands: tokens past the array are
    // counted, not kept, so an over-long list still gets its error.
    let mut toks = [""; 3];
    let mut n = 0;
    for tok in fixed.iter().copied().chain(operand_list(ops)) {
        if let Some(slot) = toks.get_mut(n) {
            *slot = tok;
        }
        n += 1;
    }
    let toks = &toks[..n.min(toks.len())];
    let rows = || {
        TABLE
            .iter()
            .filter(|s| s.mnemonic.eq_ignore_ascii_case(name))
    };
    let fits = || rows().filter(|s| s.operands.len() == n);
    let regs_match = |s: &&Spec| {
        s.operands
            .iter()
            .zip(toks)
            .all(|(o, t)| o.1.is_reg() == parse_reg(t).is_some())
    };
    let Some(spec) = fits().find(regs_match).or_else(|| fits().next_back()) else {
        if rows().next().is_none() {
            let mnemonic = mnemonic.to_ascii_lowercase();
            return Err(err(ctx.line, format!("unknown mnemonic '{mnemonic}'")));
        }
        let forms: Vec<String> = rows()
            .map(|s| {
                let names: Vec<&str> = s.operands[fixed.len()..].iter().map(|o| o.0).collect();
                format!("{} operand(s): {}", names.len(), names.join(", "))
            })
            .collect();
        return Err(err(ctx.line, format!("expected {}", forms.join("  or  "))));
    };
    let mut word = opcode_bits(spec.opcode);
    for (&(_, field), tok) in spec.operands.iter().zip(toks) {
        word |= field.put(ctx.operand(field, tok)?);
    }
    Ok(word)
}

/// Assembles source text into a [`Program`].
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered, with its source line.
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let parsed = parse_source(src)?;
    let mut words: Vec<u64> = Vec::new();
    for item in &parsed.items {
        match item {
            Item::Zero { words: n } => words.extend(std::iter::repeat_n(0u64, *n as usize)),
            Item::Ascii { bytes } => {
                for chunk in bytes.chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    words.push(u64::from_le_bytes(w));
                }
                if bytes.is_empty() {
                    words.push(0);
                }
            }
            Item::Word { line, value } => {
                let ctx = Ctx {
                    symbols: &parsed.symbols,
                    line: *line,
                };
                let v = ctx.imm(value)?;
                words.push(v as u64);
            }
            Item::Inst {
                line,
                mnemonic,
                operands,
            } => {
                let ctx = Ctx {
                    symbols: &parsed.symbols,
                    line: *line,
                };
                words.push(encode_item(mnemonic, operands, &ctx)?);
            }
        }
    }
    let entry = parsed.symbols.get("entry").copied().unwrap_or(parsed.base);
    Ok(Program {
        base: parsed.base,
        words,
        entry,
        symbols: parsed.symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_minimal_program() {
        let p = assemble(
            r#"
            ; a counter loop
            count: .word 0
            entry:
                movi r1, 5
            loop:
                addi r1, r1, -1
                bne r1, r0, loop
                st r1, count
                halt
            "#,
        )
        .unwrap();
        assert_eq!(p.base, DEFAULT_BASE);
        assert_eq!(p.symbol("count"), Some(DEFAULT_BASE));
        assert_eq!(p.entry, DEFAULT_BASE + 8);
        assert_eq!(p.words.len(), 6);
        assert_eq!(p.inst_at(p.entry), Some(Inst::Movi { d: Reg(1), imm: 5 }));
        // The branch targets `loop` = base + 16.
        assert_eq!(
            p.inst_at(DEFAULT_BASE + 24),
            Some(Inst::Bne {
                a: Reg(1),
                b: Reg(0),
                addr: DEFAULT_BASE + 16
            })
        );
    }

    #[test]
    fn base_directive_relocates() {
        let p = assemble(".base 0x40000\nentry: halt\n").unwrap();
        assert_eq!(p.base, 0x40000);
        assert_eq!(p.entry, 0x40000);
        assert_eq!(p.inst_at(0x40000), Some(Inst::Halt));
    }

    #[test]
    fn equ_constants_work() {
        let p = assemble(
            r#"
            .equ ANSWER, 42
            entry: movi r2, ANSWER
                   halt
            "#,
        )
        .unwrap();
        assert_eq!(p.inst_at(p.entry), Some(Inst::Movi { d: Reg(2), imm: 42 }));
    }

    #[test]
    fn zero_directive_reserves_space() {
        let p = assemble("buf: .zero 100\nentry: halt\n").unwrap();
        // 100 bytes -> 13 words + 1 halt.
        assert_eq!(p.words.len(), 14);
        assert_eq!(p.entry, p.base + 13 * 8);
    }

    #[test]
    fn word_can_reference_label() {
        let p = assemble(
            r#"
            ptr: .word target
            target: .word 7
            "#,
        )
        .unwrap();
        assert_eq!(p.words[0], p.symbol("target").unwrap());
        assert_eq!(p.words[1], 7);
    }

    #[test]
    fn monitor_label_form() {
        let p = assemble("m: .word 0\nentry: monitor m\nmwait\nhalt\n").unwrap();
        assert_eq!(
            p.inst_at(p.entry),
            Some(Inst::MonitorA {
                addr: p.symbol("m").unwrap()
            })
        );
    }

    #[test]
    fn start_stop_immediate_and_register() {
        let p = assemble("entry: start 3\nstop r2\nhalt\n").unwrap();
        assert_eq!(p.inst_at(p.entry), Some(Inst::StartI { vtid: 3 }));
        assert_eq!(p.inst_at(p.entry + 8), Some(Inst::Stop { vt: Reg(2) }));
    }

    #[test]
    fn rpull_rpush_selectors() {
        use crate::arch::{CtrlReg, RegSel};
        let p = assemble("entry: rpull r1, r2, pc\nrpush r1, tdtr, r3\nhalt\n").unwrap();
        assert_eq!(
            p.inst_at(p.entry),
            Some(Inst::RPull {
                vt: Reg(1),
                local: Reg(2),
                remote: RegSel::Pc
            })
        );
        assert_eq!(
            p.inst_at(p.entry + 8),
            Some(Inst::RPush {
                vt: Reg(1),
                remote: RegSel::Ctrl(CtrlReg::Tdtr),
                local: Reg(3)
            })
        );
    }

    #[test]
    fn error_reports_line() {
        let e = assemble("entry:\n  nop\n  frobnicate r1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn undefined_symbol_errors() {
        let e = assemble("entry: jmp nowhere\n").unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_errors() {
        let e = assemble("a: nop\na: nop\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn wrong_operand_count_errors() {
        let e = assemble("entry: add r1, r2\n").unwrap_err();
        assert!(e.msg.contains("3 operand"));
    }

    #[test]
    fn base_after_code_errors() {
        let e = assemble("entry: nop\n.base 0x2000\n").unwrap_err();
        assert!(e.msg.contains("precede"));
    }

    #[test]
    fn misaligned_base_errors() {
        let e = assemble(".base 0x1004\nentry: halt\n").unwrap_err();
        assert!(e.msg.contains("aligned"));
    }

    #[test]
    fn comments_all_styles() {
        let p = assemble("entry: nop ; semicolon\nnop # hash\nnop // slashes\nhalt\n").unwrap();
        assert_eq!(p.words.len(), 4);
    }

    #[test]
    fn negative_and_hex_numbers() {
        let p = assemble("entry: movi r1, -0x10\naddi r1, r1, 1_000\nhalt\n").unwrap();
        assert_eq!(
            p.inst_at(p.entry),
            Some(Inst::Movi {
                d: Reg(1),
                imm: -16
            })
        );
        assert_eq!(
            p.inst_at(p.entry + 8),
            Some(Inst::Addi {
                d: Reg(1),
                a: Reg(1),
                imm: 1000
            })
        );
    }

    #[test]
    fn entry_defaults_to_base() {
        let p = assemble("nop\nhalt\n").unwrap();
        assert_eq!(p.entry, p.base);
    }

    #[test]
    fn label_on_own_line() {
        let p = assemble("entry:\n    halt\n").unwrap();
        assert_eq!(p.inst_at(p.entry), Some(Inst::Halt));
    }

    #[test]
    fn inst_at_out_of_range() {
        let p = assemble("entry: halt\n").unwrap();
        assert_eq!(p.inst_at(p.base - 8), None);
        assert_eq!(p.inst_at(p.end()), None);
        assert_eq!(p.inst_at(p.base + 3), None);
    }

    /// `parse_number` as it was first written, copying the token to drop
    /// its underscores: the oracle for the allocation-free version.
    fn parse_number_by_copy(tok: &str) -> Option<i64> {
        let tok = tok.replace('_', "");
        let (neg, rest) = match tok.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, tok.as_str()),
        };
        let v = if let Some(hex) = rest.strip_prefix("0x").or_else(|| rest.strip_prefix("0X")) {
            i64::from_str_radix(hex, 16).ok()?
        } else {
            rest.parse::<i64>().ok()?
        };
        Some(if neg { -v } else { v })
    }

    #[test]
    fn parse_number_accepts_what_the_copying_version_did() {
        // Signs, prefixes, separators, overflow edges and non-numbers.
        let fixed = "+5 -5 --5 -+5 +-5 _ - + 1_000 _1_ 0x 0x_ 0x1f 0X1F -0x1f 0x-5 0x+5 -0x+5 \
                     0x0x1 5x 0b1 r1 label é 1é 9223372036854775807 9223372036854775808 \
                     -9223372036854775807 -9223372036854775808 0x7fff_ffff_ffff_ffff \
                     0x8000000000000000 0x-8000000000000000 00000000000000000000000000042 -0x_0";
        for tok in fixed.split_whitespace().chain([""]) {
            assert_eq!(parse_number(tok), parse_number_by_copy(tok), "{tok:?}");
        }
        // Seeded random tokens: mostly sign, prefix and digit runs with
        // separators, some arbitrary bytes from the same alphabet.
        let alphabet = [
            "0", "1", "7", "9", "a", "f", "F", "g", "x", "X", "_", "-", "+", " ", "é",
        ];
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..20_000 {
            let mut tok = String::new();
            if next(2) == 0 {
                for _ in 0..next(24) {
                    tok.push_str(alphabet[next(alphabet.len())]);
                }
            } else {
                tok.push_str(["", "-", "+", "_-", "--", "-+"][next(6)]);
                tok.push_str(["", "0x", "0X", "0_x", "x"][next(5)]);
                let digits = if tok.contains(['x', 'X']) {
                    "0123456789abcdefABCDEF"
                } else {
                    "0123456789"
                };
                for _ in 0..next(22) {
                    if next(6) == 0 {
                        tok.push('_');
                    }
                    let i = next(digits.len());
                    tok.push_str(&digits[i..=i]);
                }
            }
            assert_eq!(parse_number(&tok), parse_number_by_copy(&tok), "{tok:?}");
        }
    }
}

#[cfg(test)]
mod pseudo_tests {
    use super::*;

    #[test]
    fn call_ret_li_pseudo_ops() {
        let p = assemble(
            r#"
            entry:
                li r1, 5
                call helper
                halt
            helper:
                addi r1, r1, 1
                ret
            "#,
        )
        .unwrap();
        assert_eq!(p.inst_at(p.entry), Some(Inst::Movi { d: Reg(1), imm: 5 }));
        let helper = p.symbol("helper").unwrap();
        assert_eq!(
            p.inst_at(p.entry + 8),
            Some(Inst::Jal {
                d: Reg(14),
                addr: helper
            })
        );
        assert_eq!(p.inst_at(helper + 8), Some(Inst::Jr { a: Reg(14) }));
    }

    #[test]
    fn ascii_directive_packs_bytes() {
        let p = assemble(
            r#"
            msg: .ascii "hello, hw threads"
            entry: halt
            "#,
        )
        .unwrap();
        // 17 bytes -> 3 words.
        assert_eq!(p.entry, p.base + 3 * 8);
        let first = p.words[0].to_le_bytes();
        assert_eq!(&first, b"hello, h");
        let last = p.words[2].to_le_bytes();
        assert_eq!(&last[..1], b"s");
    }

    #[test]
    fn bad_ascii_errors() {
        assert!(assemble("x: .ascii hello\n").is_err());
    }
}
