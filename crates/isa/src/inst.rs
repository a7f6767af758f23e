//! Instruction definitions, the instruction table, binary encoding, and
//! base cost model.
//!
//! Instructions are fixed-width 64-bit words:
//!
//! ```text
//! 63      56 55  52 51  48 47  44 43                                   0
//! +--------+------+------+------+--------------------------------------+
//! | opcode |  rd  | rs1  | rs2  |                imm44                 |
//! +--------+------+------+------+--------------------------------------+
//! ```
//!
//! `imm44` is sign-extended where an instruction treats it as signed
//! (register offsets) and zero-extended where it is an absolute address
//! or count. `rpull`/`rpush` carry their [`RegSel`] remote-register
//! selector in the low bits of `imm44` because selectors (0–20) do not
//! fit a 4-bit register field.
//!
//! Each instruction is one row of the `instructions!` table below: its
//! opcode byte, mnemonic, [`Inst`] variant and operands in assembler
//! source order, each naming the field it fills. [`Inst::encode`],
//! [`Inst::decode`], the assembler's instruction parsing and the
//! disassembler are all derived from that table.

use core::fmt;

use crate::arch::{CtrlReg, RegSel};

/// A general-purpose register index, 0–15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Maximum value of an unsigned 44-bit immediate (absolute addresses).
pub const IMM44_MAX: u64 = (1 << 44) - 1;

/// One instruction.
///
/// The `...A` variants take absolute 44-bit addresses (what the assembler
/// emits for label operands); the register-indirect forms cover computed
/// addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inst {
    // ---- conventional ALU ----
    /// `d = a + b`.
    Add {
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d = a - b`.
    Sub {
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d = a & b`.
    And {
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d = a | b`.
    Or {
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d = a ^ b`.
    Xor {
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d = a << (b & 63)`.
    Shl {
        /// Destination.
        d: Reg,
        /// Value.
        a: Reg,
        /// Shift amount register.
        b: Reg,
    },
    /// `d = a >> (b & 63)` (logical).
    Shr {
        /// Destination.
        d: Reg,
        /// Value.
        a: Reg,
        /// Shift amount register.
        b: Reg,
    },
    /// `d = a * b` (wrapping).
    Mul {
        /// Destination.
        d: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `d = a / b`; division by zero raises an exception (§3.2's example).
    Div {
        /// Destination.
        d: Reg,
        /// Dividend.
        a: Reg,
        /// Divisor.
        b: Reg,
    },
    /// `d = a + imm` (imm sign-extended).
    Addi {
        /// Destination.
        d: Reg,
        /// Source.
        a: Reg,
        /// Signed immediate.
        imm: i64,
    },
    /// `d = imm` (sign-extended 44-bit immediate).
    Movi {
        /// Destination.
        d: Reg,
        /// Signed immediate.
        imm: i64,
    },
    /// `d = a`.
    Mov {
        /// Destination.
        d: Reg,
        /// Source.
        a: Reg,
    },

    // ---- memory ----
    /// `d = mem64[a + off]`.
    Ld {
        /// Destination.
        d: Reg,
        /// Base address register.
        a: Reg,
        /// Signed byte offset.
        off: i64,
    },
    /// `mem64[a + off] = s`.
    St {
        /// Source value register.
        s: Reg,
        /// Base address register.
        a: Reg,
        /// Signed byte offset.
        off: i64,
    },
    /// `d = mem64[addr]` (absolute).
    LdA {
        /// Destination.
        d: Reg,
        /// Absolute address.
        addr: u64,
    },
    /// `mem64[addr] = s` (absolute).
    StA {
        /// Source value register.
        s: Reg,
        /// Absolute address.
        addr: u64,
    },
    /// `d = zero_extend(mem8[a + off])` — byte load, for parsing packet
    /// headers and other byte-granular structures.
    LdB {
        /// Destination.
        d: Reg,
        /// Base address register.
        a: Reg,
        /// Signed byte offset.
        off: i64,
    },
    /// `mem8[a + off] = s & 0xff` — byte store.
    StB {
        /// Source value register (low byte is stored).
        s: Reg,
        /// Base address register.
        a: Reg,
        /// Signed byte offset.
        off: i64,
    },

    // ---- control flow ----
    /// Unconditional jump to absolute address.
    Jmp {
        /// Target address.
        addr: u64,
    },
    /// Jump to the address in a register.
    Jr {
        /// Register holding the target.
        a: Reg,
    },
    /// Call: `d = return address; pc = addr`.
    Jal {
        /// Link register receiving the return address.
        d: Reg,
        /// Target address.
        addr: u64,
    },
    /// Branch to `addr` if `a == b`.
    Beq {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Target address.
        addr: u64,
    },
    /// Branch to `addr` if `a != b`.
    Bne {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Target address.
        addr: u64,
    },
    /// Branch to `addr` if `a < b` (signed).
    Blt {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Target address.
        addr: u64,
    },
    /// Branch to `addr` if `a >= b` (signed).
    Bge {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
        /// Target address.
        addr: u64,
    },
    /// Stop executing this thread permanently (test/bench epilogue).
    Halt,
    /// No operation.
    Nop,
    /// Consume `cycles` cycles of pipeline time (models a compute burst
    /// without interpreting that many instructions).
    Work {
        /// Burst length in cycles.
        cycles: u32,
    },

    // ---- system ----
    /// Trap to the system-call path with call number `num`.
    Syscall {
        /// System-call number.
        num: u16,
    },
    /// Trap to the hypervisor path with call number `num` (the x86
    /// `vmcall` analog from §2).
    VmCall {
        /// Hypercall number.
        num: u16,
    },
    /// Invoke a registered host service (simulation shortcut; see
    /// DESIGN.md "modeling shortcut").
    HCall {
        /// Host-service number.
        num: u16,
    },

    // ---- §3.1 extensions ----
    /// Arm a watch on the address held in `a` (any privilege level).
    Monitor {
        /// Register holding the watched address.
        a: Reg,
    },
    /// Arm a watch on an absolute address (assembler label form).
    MonitorA {
        /// Watched absolute address.
        addr: u64,
    },
    /// Block until any armed watch observes a write; may wake spuriously
    /// on line-granular filters. Clears armed watches on wake.
    MWait,
    /// Enable the ptid that `vtid` (in register `vt`) maps to.
    Start {
        /// Register holding the vtid.
        vt: Reg,
    },
    /// Disable the ptid that `vtid` (in register `vt`) maps to.
    Stop {
        /// Register holding the vtid.
        vt: Reg,
    },
    /// `start` with an immediate vtid.
    StartI {
        /// Virtual thread id.
        vtid: u16,
    },
    /// `stop` with an immediate vtid.
    StopI {
        /// Virtual thread id.
        vtid: u16,
    },
    /// Read remote register `remote` of the (disabled) thread `vtid` in
    /// `vt` into local register `local`.
    RPull {
        /// Register holding the vtid.
        vt: Reg,
        /// Local destination register.
        local: Reg,
        /// Remote register selector.
        remote: RegSel,
    },
    /// Write local register `local` into remote register `remote` of the
    /// (disabled) thread `vtid` in `vt`.
    RPush {
        /// Register holding the vtid.
        vt: Reg,
        /// Remote destination selector.
        remote: RegSel,
        /// Local source register.
        local: Reg,
    },
    /// Invalidate the cached TDT entry for the vtid in `vt` (§3.1: "any
    /// update to a ptid's TDT must be followed by an invtid").
    InvTid {
        /// Register holding the vtid.
        vt: Reg,
    },
    /// Read control register `csr` into `d`.
    CsrR {
        /// Destination.
        d: Reg,
        /// Source control register.
        csr: CtrlReg,
    },
    /// Write register `a` into control register `csr` (privileged for
    /// all control registers; from user mode this raises an exception,
    /// which is exactly how §3.2 lets a supervisor emulate privileged
    /// instructions for guests).
    CsrW {
        /// Destination control register.
        csr: CtrlReg,
        /// Source register.
        a: Reg,
    },
    /// Full memory fence (orders stores before monitor wakeups).
    Fence,
}

/// Error decoding an instruction word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Operand field held an invalid value (e.g. RegSel out of range).
    BadOperand(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadOperand(v) => write!(f, "invalid operand field {v:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where an operand lives in the instruction word, and how its bits
/// read: one of the three register fields, or `imm44` read as a signed
/// value, an address, a u16, a u32, a control-register code or a
/// [`RegSel`] code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Field {
    /// `rd`, bits 55–52.
    Rd,
    /// `rs1`, bits 51–48.
    Rs1,
    /// `rs2`, bits 47–44.
    Rs2,
    /// `imm44` sign-extended.
    Simm,
    /// `imm44` zero-extended (absolute addresses).
    Addr,
    /// The low 16 bits of `imm44`.
    U16,
    /// The low 32 bits of `imm44`.
    U32,
    /// All of `imm44`: a [`CtrlReg`] code.
    Csr,
    /// The low 8 bits of `imm44`: a [`RegSel`] code.
    Sel,
}

impl Field {
    /// Whether the operand is a general-purpose register.
    pub(crate) fn is_reg(self) -> bool {
        matches!(self, Field::Rd | Field::Rs1 | Field::Rs2)
    }

    /// The operand's raw value in `word` (sign-extended for `Simm`).
    pub(crate) fn get(self, word: u64) -> u64 {
        let imm = word & IMM44_MAX;
        match self {
            Field::Rd => (word >> 52) & 0xf,
            Field::Rs1 => (word >> 48) & 0xf,
            Field::Rs2 => (word >> 44) & 0xf,
            Field::Simm => (((imm as i64) << 20) >> 20) as u64,
            Field::Addr | Field::Csr => imm,
            Field::U16 => imm & 0xffff,
            Field::U32 => imm & 0xffff_ffff,
            Field::Sel => imm & 0xff,
        }
    }

    /// The word bits that hold raw value `v` in this field.
    pub(crate) fn put(self, v: u64) -> u64 {
        debug_assert!(!self.is_reg() || v < 16, "register index out of range");
        match self {
            Field::Rd => (v & 0xf) << 52,
            Field::Rs1 => (v & 0xf) << 48,
            Field::Rs2 => (v & 0xf) << 44,
            Field::Simm => v & IMM44_MAX,
            _ => {
                debug_assert!(v <= IMM44_MAX, "immediate exceeds 44 bits");
                v
            }
        }
    }
}

/// An operand's Rust type, converted to and from its field's raw value.
trait Operand: Sized {
    fn raw(self) -> u64;
    fn from_raw(raw: u64) -> Result<Self, DecodeError>;
}

macro_rules! plain_operand {
    ($($t:ty),*) => {$(
        impl Operand for $t {
            fn raw(self) -> u64 {
                self as u64
            }
            fn from_raw(raw: u64) -> Result<$t, DecodeError> {
                Ok(raw as $t)
            }
        }
    )*};
}
plain_operand!(i64, u64, u16, u32);

impl Operand for Reg {
    fn raw(self) -> u64 {
        u64::from(self.0)
    }
    fn from_raw(raw: u64) -> Result<Reg, DecodeError> {
        Ok(Reg(raw as u8))
    }
}

impl Operand for CtrlReg {
    fn raw(self) -> u64 {
        u64::from(self.code())
    }
    fn from_raw(raw: u64) -> Result<CtrlReg, DecodeError> {
        CtrlReg::from_code(raw).ok_or(DecodeError::BadOperand(raw as u8))
    }
}

impl Operand for RegSel {
    fn raw(self) -> u64 {
        u64::from(self.encode())
    }
    fn from_raw(raw: u64) -> Result<RegSel, DecodeError> {
        RegSel::decode(raw as u8).ok_or(DecodeError::BadOperand(raw as u8))
    }
}

/// One row of the instruction table.
pub(crate) struct Spec {
    pub(crate) opcode: u8,
    pub(crate) mnemonic: &'static str,
    /// Operands in assembler source order: field name and encoding.
    pub(crate) operands: &'static [(&'static str, Field)],
}

impl Spec {
    /// The row of `word`'s opcode, if it has one.
    pub(crate) fn of(word: u64) -> Option<&'static Spec> {
        TABLE.iter().find(|s| s.opcode == (word >> 56) as u8)
    }
}

/// The word bits that hold `opcode`.
pub(crate) fn opcode_bits(opcode: u8) -> u64 {
    u64::from(opcode) << 56
}

/// Defines [`TABLE`], [`Inst::encode`] and [`Inst::decode`] from one
/// row per instruction: opcode byte, mnemonic, variant, and operands in
/// source order, each with the [`Field`] it fills.
macro_rules! instructions {
    ($($opcode:literal $mnemonic:literal $variant:ident { $($f:ident: $field:ident),* })*) => {
        /// Every instruction, in opcode order. The assembler and the
        /// disassembler read it; a mnemonic with two forms has two rows.
        pub(crate) const TABLE: &[Spec] = &[$(Spec {
            opcode: $opcode,
            mnemonic: $mnemonic,
            operands: &[$((stringify!($f), Field::$field)),*],
        }),*];

        impl Inst {
            /// Encodes to a 64-bit instruction word.
            ///
            /// # Panics
            ///
            /// Panics (debug assertions) if an unsigned immediate exceeds
            /// 44 bits; the assembler range-checks before encoding.
            #[must_use]
            pub fn encode(self) -> u64 {
                match self {
                    $(Inst::$variant { $($f),* } => {
                        opcode_bits($opcode) $(| Field::$field.put($f.raw()))*
                    })*
                }
            }

            /// Decodes a 64-bit instruction word.
            pub fn decode(word: u64) -> Result<Inst, DecodeError> {
                Ok(match (word >> 56) as u8 {
                    $($opcode => Inst::$variant {
                        $($f: Operand::from_raw(Field::$field.get(word))?),*
                    },)*
                    other => return Err(DecodeError::BadOpcode(other)),
                })
            }
        }
    };
}

// Grouped by function; gaps left for extensions.
instructions! {
    0x01 "add"     Add      { d: Rd, a: Rs1, b: Rs2 }
    0x02 "sub"     Sub      { d: Rd, a: Rs1, b: Rs2 }
    0x03 "and"     And      { d: Rd, a: Rs1, b: Rs2 }
    0x04 "or"      Or       { d: Rd, a: Rs1, b: Rs2 }
    0x05 "xor"     Xor      { d: Rd, a: Rs1, b: Rs2 }
    0x06 "shl"     Shl      { d: Rd, a: Rs1, b: Rs2 }
    0x07 "shr"     Shr      { d: Rd, a: Rs1, b: Rs2 }
    0x08 "mul"     Mul      { d: Rd, a: Rs1, b: Rs2 }
    0x09 "div"     Div      { d: Rd, a: Rs1, b: Rs2 }
    0x0a "addi"    Addi     { d: Rd, a: Rs1, imm: Simm }
    0x0b "movi"    Movi     { d: Rd, imm: Simm }
    0x0c "mov"     Mov      { d: Rd, a: Rs1 }

    0x10 "ld"      Ld       { d: Rd, a: Rs1, off: Simm }
    0x11 "st"      St       { s: Rd, a: Rs1, off: Simm }
    0x12 "ld"      LdA      { d: Rd, addr: Addr }
    0x13 "st"      StA      { s: Rd, addr: Addr }
    0x14 "ldb"     LdB      { d: Rd, a: Rs1, off: Simm }
    0x15 "stb"     StB      { s: Rd, a: Rs1, off: Simm }

    0x20 "jmp"     Jmp      { addr: Addr }
    0x21 "jr"      Jr       { a: Rs1 }
    0x22 "jal"     Jal      { d: Rd, addr: Addr }
    0x23 "beq"     Beq      { a: Rs1, b: Rs2, addr: Addr }
    0x24 "bne"     Bne      { a: Rs1, b: Rs2, addr: Addr }
    0x25 "blt"     Blt      { a: Rs1, b: Rs2, addr: Addr }
    0x26 "bge"     Bge      { a: Rs1, b: Rs2, addr: Addr }
    0x27 "halt"    Halt     {}
    0x28 "nop"     Nop      {}
    0x29 "work"    Work     { cycles: U32 }

    0x30 "syscall" Syscall  { num: U16 }
    0x31 "vmcall"  VmCall   { num: U16 }
    0x32 "hcall"   HCall    { num: U16 }

    0x40 "monitor" Monitor  { a: Rs1 }
    0x41 "monitor" MonitorA { addr: Addr }
    0x42 "mwait"   MWait    {}
    0x43 "start"   Start    { vt: Rs1 }
    0x44 "stop"    Stop     { vt: Rs1 }
    0x45 "start"   StartI   { vtid: U16 }
    0x46 "stop"    StopI    { vtid: U16 }
    0x47 "rpull"   RPull    { vt: Rs1, local: Rd, remote: Sel }
    0x48 "rpush"   RPush    { vt: Rs1, remote: Sel, local: Rd }
    0x49 "invtid"  InvTid   { vt: Rs1 }
    0x4a "csrr"    CsrR     { d: Rd, csr: Csr }
    0x4b "csrw"    CsrW     { csr: Csr, a: Rs1 }
    0x4c "fence"   Fence    {}
}

impl Inst {
    /// Base pipeline cost in cycles, before memory latency is added.
    ///
    /// Memory instructions add the hierarchy latency; `mwait` adds the
    /// blocked time; `start`/`stop` add TDT-lookup and state-tier costs —
    /// all charged by the machine, not here.
    #[must_use]
    pub fn base_cost(&self) -> u64 {
        use Inst::*;
        match self {
            Mul { .. } => 3,
            Div { .. } => 20,
            Work { cycles } => u64::from(*cycles).max(1),
            Fence => 3,
            Monitor { .. } | MonitorA { .. } => 2,
            RPull { .. } | RPush { .. } => 3,
            _ => 1,
        }
    }

    /// Whether this instruction requires supervisor mode.
    ///
    /// Executing a privileged instruction from a user-mode ptid does not
    /// trap into the same thread (there is no trap in this model): it
    /// disables the ptid and writes an exception descriptor (§3.2).
    #[must_use]
    pub fn is_privileged(&self) -> bool {
        matches!(self, Inst::CsrW { .. })
    }

    /// Whether this instruction is *inert*: it reads and writes only its
    /// own thread's registers. No memory access, no exception possible
    /// (which excludes `Div` — divide-by-zero — and every trap), no
    /// monitor-visible effect, nothing that can schedule an event or
    /// change a thread state, not privileged. Straight-line runs of
    /// inert instructions are the raw material of superblocks: executing
    /// one cannot change any burst-continuation decision.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Add { .. }
                | Sub { .. }
                | And { .. }
                | Or { .. }
                | Xor { .. }
                | Shl { .. }
                | Shr { .. }
                | Mul { .. }
                | Addi { .. }
                | Movi { .. }
                | Mov { .. }
                | Nop
                | Work { .. }
                | Fence
        )
    }

    /// Whether this instruction is a *local-effect* memory access: a
    /// plain load or store whose only effects are its own thread's
    /// registers, the accessed bytes, and the per-core memory metadata
    /// (cache/TLB/prefetcher state) — no trap, no thread-state change,
    /// no event. These are admissible inside memory-inclusive
    /// superblocks: every effect that could escape the thread (a store
    /// hitting an armed monitor line, an MMIO doorbell, the code image,
    /// or an address fault) is detected by the executing engine, which
    /// conservatively falls back to single-stepping.
    #[must_use]
    pub fn is_local_mem(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Ld { .. } | LdA { .. } | LdB { .. } | St { .. } | StA { .. } | StB { .. }
        )
    }

    /// Whether this instruction may close a superblock: pure control
    /// flow whose only effects are the next pc and (for `Jal`) the link
    /// register. Branch direction is data-dependent, so a terminal ends
    /// the region rather than extending it — except an unconditional
    /// jump back to the region's entry, which formation unrolls.
    #[must_use]
    pub fn is_region_terminal(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Jmp { .. } | Jr { .. } | Jal { .. } | Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. }
        )
    }

    /// The general-purpose register this instruction writes, if any —
    /// used to pre-compute a superblock's registers-written summary.
    #[must_use]
    pub fn dest_reg(&self) -> Option<Reg> {
        use Inst::*;
        match self {
            Add { d, .. }
            | Sub { d, .. }
            | And { d, .. }
            | Or { d, .. }
            | Xor { d, .. }
            | Shl { d, .. }
            | Shr { d, .. }
            | Mul { d, .. }
            | Div { d, .. }
            | Addi { d, .. }
            | Movi { d, .. }
            | Mov { d, .. }
            | Ld { d, .. }
            | LdA { d, .. }
            | LdB { d, .. }
            | Jal { d, .. }
            | CsrR { d, .. } => Some(*d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_representative() -> Vec<Inst> {
        use Inst::*;
        vec![
            Add {
                d: Reg(1),
                a: Reg(2),
                b: Reg(3),
            },
            Sub {
                d: Reg(15),
                a: Reg(0),
                b: Reg(7),
            },
            And {
                d: Reg(4),
                a: Reg(5),
                b: Reg(6),
            },
            Or {
                d: Reg(4),
                a: Reg(5),
                b: Reg(6),
            },
            Xor {
                d: Reg(4),
                a: Reg(5),
                b: Reg(6),
            },
            Shl {
                d: Reg(1),
                a: Reg(1),
                b: Reg(2),
            },
            Shr {
                d: Reg(1),
                a: Reg(1),
                b: Reg(2),
            },
            Mul {
                d: Reg(9),
                a: Reg(10),
                b: Reg(11),
            },
            Div {
                d: Reg(9),
                a: Reg(10),
                b: Reg(11),
            },
            Addi {
                d: Reg(1),
                a: Reg(2),
                imm: -12345,
            },
            Movi {
                d: Reg(3),
                imm: 1 << 40,
            },
            Movi {
                d: Reg(3),
                imm: -(1 << 40),
            },
            Mov {
                d: Reg(3),
                a: Reg(4),
            },
            Ld {
                d: Reg(1),
                a: Reg(2),
                off: -8,
            },
            St {
                s: Reg(1),
                a: Reg(2),
                off: 16,
            },
            LdA {
                d: Reg(1),
                addr: 0xdead_beef,
            },
            StA {
                s: Reg(1),
                addr: 0xbeef,
            },
            LdB {
                d: Reg(2),
                a: Reg(3),
                off: 13,
            },
            StB {
                s: Reg(2),
                a: Reg(3),
                off: -13,
            },
            Jmp { addr: 0x10000 },
            Jr { a: Reg(5) },
            Jal {
                d: Reg(14),
                addr: 0x2000,
            },
            Beq {
                a: Reg(1),
                b: Reg(2),
                addr: 0x3000,
            },
            Bne {
                a: Reg(1),
                b: Reg(2),
                addr: 0x3000,
            },
            Blt {
                a: Reg(1),
                b: Reg(2),
                addr: 0x3000,
            },
            Bge {
                a: Reg(1),
                b: Reg(2),
                addr: 0x3000,
            },
            Halt,
            Nop,
            Work { cycles: 1000 },
            Syscall { num: 7 },
            VmCall { num: 3 },
            HCall { num: 42 },
            Monitor { a: Reg(2) },
            MonitorA { addr: 0xfe0 },
            MWait,
            Start { vt: Reg(1) },
            Stop { vt: Reg(1) },
            StartI { vtid: 9 },
            StopI { vtid: 9 },
            RPull {
                vt: Reg(1),
                local: Reg(2),
                remote: RegSel::Pc,
            },
            RPush {
                vt: Reg(1),
                remote: RegSel::Ctrl(CtrlReg::Tdtr),
                local: Reg(2),
            },
            InvTid { vt: Reg(3) },
            CsrR {
                d: Reg(1),
                csr: CtrlReg::Edp,
            },
            CsrW {
                csr: CtrlReg::Mode,
                a: Reg(1),
            },
            Fence,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for inst in all_representative() {
            let word = inst.encode();
            let back = Inst::decode(word).unwrap_or_else(|e| panic!("{inst:?}: {e}"));
            assert_eq!(back, inst, "word {word:#018x}");
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(Inst::decode(0xff << 56), Err(DecodeError::BadOpcode(0xff)));
        assert_eq!(Inst::decode(0), Err(DecodeError::BadOpcode(0)));
    }

    #[test]
    fn bad_regsel_rejected() {
        // RPULL with selector 99.
        let word = (u64::from(0x47u8) << 56) | 99;
        assert_eq!(Inst::decode(word), Err(DecodeError::BadOperand(99)));
    }

    #[test]
    fn bad_csr_rejected() {
        let word = (u64::from(0x4au8) << 56) | 9;
        assert!(Inst::decode(word).is_err());
    }

    #[test]
    fn negative_imm_sign_extends() {
        let w = Inst::Addi {
            d: Reg(1),
            a: Reg(1),
            imm: -1,
        }
        .encode();
        match Inst::decode(w).unwrap() {
            Inst::Addi { imm, .. } => assert_eq!(imm, -1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn privileged_classification() {
        assert!(Inst::CsrW {
            csr: CtrlReg::Tdtr,
            a: Reg(0)
        }
        .is_privileged());
        assert!(!Inst::CsrR {
            d: Reg(0),
            csr: CtrlReg::Tdtr
        }
        .is_privileged());
        assert!(!Inst::StartI { vtid: 0 }.is_privileged());
        assert!(!Inst::MWait.is_privileged());
    }

    #[test]
    fn base_costs() {
        assert_eq!(Inst::Nop.base_cost(), 1);
        assert_eq!(
            Inst::Div {
                d: Reg(0),
                a: Reg(0),
                b: Reg(0)
            }
            .base_cost(),
            20
        );
        assert_eq!(Inst::Work { cycles: 500 }.base_cost(), 500);
        assert_eq!(Inst::Work { cycles: 0 }.base_cost(), 1);
    }
}
