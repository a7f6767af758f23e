//! The `switchless` instruction set: a compact RISC-style ISA carrying the
//! paper's §3.1 extensions as first-class opcodes.
//!
//! The paper proposes extending an ISA with:
//!
//! * `monitor <addr>` / `mwait` — arm a watch on any address (any
//!   privilege level, cacheable or not) and block until a write;
//! * `start <vtid>` / `stop <vtid>` — enable/disable the hardware thread a
//!   virtual thread id maps to;
//! * `rpull <vtid>, <local>, <remote>` / `rpush <vtid>, <remote>, <local>`
//!   — read/write another (disabled) hardware thread's registers,
//!   including its program counter and novel control registers;
//! * `invtid <vtid>` — invalidate a cached Thread Descriptor Table entry.
//!
//! Rather than model x86-64 (whose encoding would drown the semantics),
//! this crate defines a small fixed-width ISA with those extensions plus
//! enough conventional instructions to write real kernels: ALU ops, loads
//! and stores, branches, calls, `syscall`/`vmcall`, and control-register
//! access. `switchless-core` gives the instructions their operational
//! semantics; this crate owns the *representation*:
//!
//! * [`arch`] — architectural state ([`arch::ArchState`]) with
//!   byte-accurate size accounting (the §4 storage arithmetic), plus the
//!   paper's x86-64 reference constants (272 B / 784 B). The control
//!   registers' names and codes are defined once here, on
//!   [`arch::CtrlReg`].
//! * [`inst`] — the [`inst::Inst`] enum and the instruction table where
//!   every instruction is defined: one row per opcode byte, with its
//!   mnemonic and operand fields. Binary encode/decode are derived from
//!   the table; per-opcode base costs and privilege classification sit
//!   beside it.
//! * [`asm`] — a two-pass assembler with labels, `.word`/`.zero`/`.equ`
//!   directives and symbol tables, producing a loadable [`asm::Program`].
//!   It parses instructions from the table; only the `call`/`ret`/`li`
//!   aliases are its own.
//! * [`disasm`] — the inverse of the assembler, read off the same table.
//!
//! # Examples
//!
//! ```
//! use switchless_isa::asm::assemble;
//! use switchless_isa::inst::Inst;
//!
//! let p = assemble(
//!     r#"
//!     counter: .word 0
//!     entry:
//!         monitor counter
//!         mwait
//!         halt
//!     "#,
//! )
//! .unwrap();
//! assert!(p.symbol("counter").is_some());
//! assert!(matches!(p.inst_at(p.entry).unwrap(), Inst::MonitorA { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod asm;
pub mod disasm;
pub mod inst;

pub use arch::{ArchState, CtrlReg, Mode, RegSel};
pub use asm::{assemble, AsmError, Program};
pub use inst::{DecodeError, Inst, Reg};
