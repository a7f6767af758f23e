//! Instruction definitions, binary encoding, and base cost model.
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

use core::fmt;

use crate::arch::{CtrlReg, RegSel};

/// A general-purpose register index, 0–15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    fn check(self) -> Reg {
        debug_assert!(self.0 < 16, "register index out of range");
        Reg(self.0 & 0xf)
    }
}

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

// Opcode bytes. Grouped by function; gaps left for extensions.
mod op {
    pub const ADD: u8 = 0x01;
    pub const SUB: u8 = 0x02;
    pub const AND: u8 = 0x03;
    pub const OR: u8 = 0x04;
    pub const XOR: u8 = 0x05;
    pub const SHL: u8 = 0x06;
    pub const SHR: u8 = 0x07;
    pub const MUL: u8 = 0x08;
    pub const DIV: u8 = 0x09;
    pub const ADDI: u8 = 0x0a;
    pub const MOVI: u8 = 0x0b;
    pub const MOV: u8 = 0x0c;

    pub const LD: u8 = 0x10;
    pub const ST: u8 = 0x11;
    pub const LDA: u8 = 0x12;
    pub const STA: u8 = 0x13;
    pub const LDB: u8 = 0x14;
    pub const STB: u8 = 0x15;

    pub const JMP: u8 = 0x20;
    pub const JR: u8 = 0x21;
    pub const JAL: u8 = 0x22;
    pub const BEQ: u8 = 0x23;
    pub const BNE: u8 = 0x24;
    pub const BLT: u8 = 0x25;
    pub const BGE: u8 = 0x26;
    pub const HALT: u8 = 0x27;
    pub const NOP: u8 = 0x28;
    pub const WORK: u8 = 0x29;

    pub const SYSCALL: u8 = 0x30;
    pub const VMCALL: u8 = 0x31;
    pub const HCALL: u8 = 0x32;

    pub const MONITOR: u8 = 0x40;
    pub const MONITORA: u8 = 0x41;
    pub const MWAIT: u8 = 0x42;
    pub const START: u8 = 0x43;
    pub const STOP: u8 = 0x44;
    pub const STARTI: u8 = 0x45;
    pub const STOPI: u8 = 0x46;
    pub const RPULL: u8 = 0x47;
    pub const RPUSH: u8 = 0x48;
    pub const INVTID: u8 = 0x49;
    pub const CSRR: u8 = 0x4a;
    pub const CSRW: u8 = 0x4b;
    pub const FENCE: u8 = 0x4c;
}

fn csr_code(c: CtrlReg) -> u64 {
    match c {
        CtrlReg::Edp => 0,
        CtrlReg::Tdtr => 1,
        CtrlReg::Mode => 2,
        CtrlReg::Prio => 3,
    }
}

fn csr_from(code: u64) -> Option<CtrlReg> {
    match code {
        0 => Some(CtrlReg::Edp),
        1 => Some(CtrlReg::Tdtr),
        2 => Some(CtrlReg::Mode),
        3 => Some(CtrlReg::Prio),
        _ => None,
    }
}

fn pack(opc: u8, rd: u8, rs1: u8, rs2: u8, imm: u64) -> u64 {
    debug_assert!(imm <= IMM44_MAX);
    (u64::from(opc) << 56)
        | (u64::from(rd & 0xf) << 52)
        | (u64::from(rs1 & 0xf) << 48)
        | (u64::from(rs2 & 0xf) << 44)
        | (imm & IMM44_MAX)
}

fn imm_signed(word: u64) -> i64 {
    // Sign-extend 44 bits.
    ((word & IMM44_MAX) as i64) << 20 >> 20
}

fn imm_unsigned(word: u64) -> u64 {
    word & IMM44_MAX
}

fn to_imm44(v: i64) -> u64 {
    (v as u64) & IMM44_MAX
}

impl Inst {
    /// Encodes to a 64-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if an immediate exceeds 44 bits; the
    /// assembler range-checks before encoding.
    #[must_use]
    pub fn encode(self) -> u64 {
        use Inst::*;
        match self {
            Add { d, a, b } => pack(op::ADD, d.check().0, a.check().0, b.check().0, 0),
            Sub { d, a, b } => pack(op::SUB, d.0, a.0, b.0, 0),
            And { d, a, b } => pack(op::AND, d.0, a.0, b.0, 0),
            Or { d, a, b } => pack(op::OR, d.0, a.0, b.0, 0),
            Xor { d, a, b } => pack(op::XOR, d.0, a.0, b.0, 0),
            Shl { d, a, b } => pack(op::SHL, d.0, a.0, b.0, 0),
            Shr { d, a, b } => pack(op::SHR, d.0, a.0, b.0, 0),
            Mul { d, a, b } => pack(op::MUL, d.0, a.0, b.0, 0),
            Div { d, a, b } => pack(op::DIV, d.0, a.0, b.0, 0),
            Addi { d, a, imm } => pack(op::ADDI, d.0, a.0, 0, to_imm44(imm)),
            Movi { d, imm } => pack(op::MOVI, d.0, 0, 0, to_imm44(imm)),
            Mov { d, a } => pack(op::MOV, d.0, a.0, 0, 0),
            Ld { d, a, off } => pack(op::LD, d.0, a.0, 0, to_imm44(off)),
            St { s, a, off } => pack(op::ST, s.0, a.0, 0, to_imm44(off)),
            LdA { d, addr } => pack(op::LDA, d.0, 0, 0, addr),
            StA { s, addr } => pack(op::STA, s.0, 0, 0, addr),
            LdB { d, a, off } => pack(op::LDB, d.0, a.0, 0, to_imm44(off)),
            StB { s, a, off } => pack(op::STB, s.0, a.0, 0, to_imm44(off)),
            Jmp { addr } => pack(op::JMP, 0, 0, 0, addr),
            Jr { a } => pack(op::JR, 0, a.0, 0, 0),
            Jal { d, addr } => pack(op::JAL, d.0, 0, 0, addr),
            Beq { a, b, addr } => pack(op::BEQ, 0, a.0, b.0, addr),
            Bne { a, b, addr } => pack(op::BNE, 0, a.0, b.0, addr),
            Blt { a, b, addr } => pack(op::BLT, 0, a.0, b.0, addr),
            Bge { a, b, addr } => pack(op::BGE, 0, a.0, b.0, addr),
            Halt => pack(op::HALT, 0, 0, 0, 0),
            Nop => pack(op::NOP, 0, 0, 0, 0),
            Work { cycles } => pack(op::WORK, 0, 0, 0, u64::from(cycles)),
            Syscall { num } => pack(op::SYSCALL, 0, 0, 0, u64::from(num)),
            VmCall { num } => pack(op::VMCALL, 0, 0, 0, u64::from(num)),
            HCall { num } => pack(op::HCALL, 0, 0, 0, u64::from(num)),
            Monitor { a } => pack(op::MONITOR, 0, a.0, 0, 0),
            MonitorA { addr } => pack(op::MONITORA, 0, 0, 0, addr),
            MWait => pack(op::MWAIT, 0, 0, 0, 0),
            Start { vt } => pack(op::START, 0, vt.0, 0, 0),
            Stop { vt } => pack(op::STOP, 0, vt.0, 0, 0),
            StartI { vtid } => pack(op::STARTI, 0, 0, 0, u64::from(vtid)),
            StopI { vtid } => pack(op::STOPI, 0, 0, 0, u64::from(vtid)),
            RPull { vt, local, remote } => {
                pack(op::RPULL, local.0, vt.0, 0, u64::from(remote.encode()))
            }
            RPush { vt, remote, local } => {
                pack(op::RPUSH, local.0, vt.0, 0, u64::from(remote.encode()))
            }
            InvTid { vt } => pack(op::INVTID, 0, vt.0, 0, 0),
            CsrR { d, csr } => pack(op::CSRR, d.0, 0, 0, csr_code(csr)),
            CsrW { csr, a } => pack(op::CSRW, 0, a.0, 0, csr_code(csr)),
            Fence => pack(op::FENCE, 0, 0, 0, 0),
        }
    }

    /// Decodes a 64-bit instruction word.
    pub fn decode(word: u64) -> Result<Inst, DecodeError> {
        let opc = (word >> 56) as u8;
        let rd = Reg(((word >> 52) & 0xf) as u8);
        let rs1 = Reg(((word >> 48) & 0xf) as u8);
        let rs2 = Reg(((word >> 44) & 0xf) as u8);
        let si = imm_signed(word);
        let ui = imm_unsigned(word);
        use Inst::*;
        Ok(match opc {
            op::ADD => Add {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::SUB => Sub {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::AND => And {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::OR => Or {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::XOR => Xor {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::SHL => Shl {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::SHR => Shr {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::MUL => Mul {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::DIV => Div {
                d: rd,
                a: rs1,
                b: rs2,
            },
            op::ADDI => Addi {
                d: rd,
                a: rs1,
                imm: si,
            },
            op::MOVI => Movi { d: rd, imm: si },
            op::MOV => Mov { d: rd, a: rs1 },
            op::LD => Ld {
                d: rd,
                a: rs1,
                off: si,
            },
            op::ST => St {
                s: rd,
                a: rs1,
                off: si,
            },
            op::LDA => LdA { d: rd, addr: ui },
            op::STA => StA { s: rd, addr: ui },
            op::LDB => LdB {
                d: rd,
                a: rs1,
                off: si,
            },
            op::STB => StB {
                s: rd,
                a: rs1,
                off: si,
            },
            op::JMP => Jmp { addr: ui },
            op::JR => Jr { a: rs1 },
            op::JAL => Jal { d: rd, addr: ui },
            op::BEQ => Beq {
                a: rs1,
                b: rs2,
                addr: ui,
            },
            op::BNE => Bne {
                a: rs1,
                b: rs2,
                addr: ui,
            },
            op::BLT => Blt {
                a: rs1,
                b: rs2,
                addr: ui,
            },
            op::BGE => Bge {
                a: rs1,
                b: rs2,
                addr: ui,
            },
            op::HALT => Halt,
            op::NOP => Nop,
            op::WORK => Work {
                cycles: (ui & 0xffff_ffff) as u32,
            },
            op::SYSCALL => Syscall {
                num: (ui & 0xffff) as u16,
            },
            op::VMCALL => VmCall {
                num: (ui & 0xffff) as u16,
            },
            op::HCALL => HCall {
                num: (ui & 0xffff) as u16,
            },
            op::MONITOR => Monitor { a: rs1 },
            op::MONITORA => MonitorA { addr: ui },
            op::MWAIT => MWait,
            op::START => Start { vt: rs1 },
            op::STOP => Stop { vt: rs1 },
            op::STARTI => StartI {
                vtid: (ui & 0xffff) as u16,
            },
            op::STOPI => StopI {
                vtid: (ui & 0xffff) as u16,
            },
            op::RPULL => RPull {
                vt: rs1,
                local: rd,
                remote: RegSel::decode((ui & 0xff) as u8)
                    .ok_or(DecodeError::BadOperand((ui & 0xff) as u8))?,
            },
            op::RPUSH => RPush {
                vt: rs1,
                remote: RegSel::decode((ui & 0xff) as u8)
                    .ok_or(DecodeError::BadOperand((ui & 0xff) as u8))?,
                local: rd,
            },
            op::INVTID => InvTid { vt: rs1 },
            op::CSRR => CsrR {
                d: rd,
                csr: csr_from(ui).ok_or(DecodeError::BadOperand(ui as u8))?,
            },
            op::CSRW => CsrW {
                csr: csr_from(ui).ok_or(DecodeError::BadOperand(ui as u8))?,
                a: rs1,
            },
            op::FENCE => Fence,
            other => return Err(DecodeError::BadOpcode(other)),
        })
    }

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

    /// Whether this instruction can write memory (consults the monitor
    /// filter).
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::St { .. } | Inst::StA { .. } | Inst::StB { .. })
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

    #[test]
    fn store_classification() {
        assert!(Inst::St {
            s: Reg(0),
            a: Reg(0),
            off: 0
        }
        .is_store());
        assert!(Inst::StA { s: Reg(0), addr: 0 }.is_store());
        assert!(!Inst::Ld {
            d: Reg(0),
            a: Reg(0),
            off: 0
        }
        .is_store());
    }
}
