//! The EVM instruction set used by this reproduction.
//!
//! The subset covers everything the `mufuzz-lang` compiler emits plus every
//! instruction the nine bug oracles and the path-prefix analysis inspect
//! (`CALL`, `DELEGATECALL`, `SELFDESTRUCT`, `BALANCE`, `TIMESTAMP`, `NUMBER`,
//! `ORIGIN`, `INVALID`, comparison and arithmetic instructions, `JUMPI`).

/// A decoded EVM opcode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // the variants are the standard EVM mnemonics
pub enum Opcode {
    Stop,
    Add,
    Mul,
    Sub,
    Div,
    Sdiv,
    Mod,
    Smod,
    AddMod,
    MulMod,
    Exp,
    SignExtend,

    Lt,
    Gt,
    Slt,
    Sgt,
    Eq,
    IsZero,
    And,
    Or,
    Xor,
    Not,
    Byte,
    Shl,
    Shr,
    Sar,

    Sha3,

    Address,
    Balance,
    Origin,
    Caller,
    CallValue,
    CallDataLoad,
    CallDataSize,
    CallDataCopy,
    CodeSize,
    CodeCopy,
    GasPrice,
    ExtCodeSize,
    ExtCodeCopy,
    ReturnDataSize,
    ReturnDataCopy,
    ExtCodeHash,

    BlockHash,
    Coinbase,
    Timestamp,
    Number,
    Difficulty,
    GasLimit,
    ChainId,
    SelfBalance,
    BaseFee,

    Pop,
    MLoad,
    MStore,
    MStore8,
    SLoad,
    SStore,
    Jump,
    JumpI,
    Pc,
    MSize,
    Gas,
    JumpDest,

    /// `PUSH1`..`PUSH32`; the payload length is stored in the variant.
    Push(u8),
    /// `DUP1`..`DUP16`; the depth is stored in the variant.
    Dup(u8),
    /// `SWAP1`..`SWAP16`; the depth is stored in the variant.
    Swap(u8),
    /// `LOG0`..`LOG4`; the topic count is stored in the variant.
    Log(u8),

    Create,
    Call,
    CallCode,
    Return,
    DelegateCall,
    Create2,
    StaticCall,
    Revert,
    Invalid,
    SelfDestruct,

    /// Any byte that does not decode to a supported instruction.
    Unknown(u8),
}

impl Opcode {
    /// Decode a single opcode byte.
    pub fn from_byte(byte: u8) -> Opcode {
        use Opcode::*;
        match byte {
            0x00 => Stop,
            0x01 => Add,
            0x02 => Mul,
            0x03 => Sub,
            0x04 => Div,
            0x05 => Sdiv,
            0x06 => Mod,
            0x07 => Smod,
            0x08 => AddMod,
            0x09 => MulMod,
            0x0a => Exp,
            0x0b => SignExtend,
            0x10 => Lt,
            0x11 => Gt,
            0x12 => Slt,
            0x13 => Sgt,
            0x14 => Eq,
            0x15 => IsZero,
            0x16 => And,
            0x17 => Or,
            0x18 => Xor,
            0x19 => Not,
            0x1a => Byte,
            0x1b => Shl,
            0x1c => Shr,
            0x1d => Sar,
            0x20 => Sha3,
            0x30 => Address,
            0x31 => Balance,
            0x32 => Origin,
            0x33 => Caller,
            0x34 => CallValue,
            0x35 => CallDataLoad,
            0x36 => CallDataSize,
            0x37 => CallDataCopy,
            0x38 => CodeSize,
            0x39 => CodeCopy,
            0x3a => GasPrice,
            0x3b => ExtCodeSize,
            0x3c => ExtCodeCopy,
            0x3d => ReturnDataSize,
            0x3e => ReturnDataCopy,
            0x3f => ExtCodeHash,
            0x40 => BlockHash,
            0x41 => Coinbase,
            0x42 => Timestamp,
            0x43 => Number,
            0x44 => Difficulty,
            0x45 => GasLimit,
            0x46 => ChainId,
            0x47 => SelfBalance,
            0x48 => BaseFee,
            0x50 => Pop,
            0x51 => MLoad,
            0x52 => MStore,
            0x53 => MStore8,
            0x54 => SLoad,
            0x55 => SStore,
            0x56 => Jump,
            0x57 => JumpI,
            0x58 => Pc,
            0x59 => MSize,
            0x5a => Gas,
            0x5b => JumpDest,
            0x60..=0x7f => Push(byte - 0x5f),
            0x80..=0x8f => Dup(byte - 0x7f),
            0x90..=0x9f => Swap(byte - 0x8f),
            0xa0..=0xa4 => Log(byte - 0xa0),
            0xf0 => Create,
            0xf1 => Call,
            0xf2 => CallCode,
            0xf3 => Return,
            0xf4 => DelegateCall,
            0xf5 => Create2,
            0xfa => StaticCall,
            0xfd => Revert,
            0xfe => Invalid,
            0xff => SelfDestruct,
            other => Unknown(other),
        }
    }

    /// Encode to the opcode byte.
    pub fn to_byte(self) -> u8 {
        use Opcode::*;
        match self {
            Stop => 0x00,
            Add => 0x01,
            Mul => 0x02,
            Sub => 0x03,
            Div => 0x04,
            Sdiv => 0x05,
            Mod => 0x06,
            Smod => 0x07,
            AddMod => 0x08,
            MulMod => 0x09,
            Exp => 0x0a,
            SignExtend => 0x0b,
            Lt => 0x10,
            Gt => 0x11,
            Slt => 0x12,
            Sgt => 0x13,
            Eq => 0x14,
            IsZero => 0x15,
            And => 0x16,
            Or => 0x17,
            Xor => 0x18,
            Not => 0x19,
            Byte => 0x1a,
            Shl => 0x1b,
            Shr => 0x1c,
            Sar => 0x1d,
            Sha3 => 0x20,
            Address => 0x30,
            Balance => 0x31,
            Origin => 0x32,
            Caller => 0x33,
            CallValue => 0x34,
            CallDataLoad => 0x35,
            CallDataSize => 0x36,
            CallDataCopy => 0x37,
            CodeSize => 0x38,
            CodeCopy => 0x39,
            GasPrice => 0x3a,
            ExtCodeSize => 0x3b,
            ExtCodeCopy => 0x3c,
            ReturnDataSize => 0x3d,
            ReturnDataCopy => 0x3e,
            ExtCodeHash => 0x3f,
            BlockHash => 0x40,
            Coinbase => 0x41,
            Timestamp => 0x42,
            Number => 0x43,
            Difficulty => 0x44,
            GasLimit => 0x45,
            ChainId => 0x46,
            SelfBalance => 0x47,
            BaseFee => 0x48,
            Pop => 0x50,
            MLoad => 0x51,
            MStore => 0x52,
            MStore8 => 0x53,
            SLoad => 0x54,
            SStore => 0x55,
            Jump => 0x56,
            JumpI => 0x57,
            Pc => 0x58,
            MSize => 0x59,
            Gas => 0x5a,
            JumpDest => 0x5b,
            Push(n) => 0x5f + n,
            Dup(n) => 0x7f + n,
            Swap(n) => 0x8f + n,
            Log(n) => 0xa0 + n,
            Create => 0xf0,
            Call => 0xf1,
            CallCode => 0xf2,
            Return => 0xf3,
            DelegateCall => 0xf4,
            Create2 => 0xf5,
            StaticCall => 0xfa,
            Revert => 0xfd,
            Invalid => 0xfe,
            SelfDestruct => 0xff,
            Unknown(b) => b,
        }
    }

    /// Size of the immediate payload following the opcode in the bytecode.
    pub fn immediate_size(self) -> usize {
        match self {
            Opcode::Push(n) => n as usize,
            _ => 0,
        }
    }

    /// Number of stack items consumed.
    pub fn stack_inputs(self) -> usize {
        use Opcode::*;
        match self {
            Stop | JumpDest | Pc | MSize | Gas | Address | Origin | Caller | CallValue
            | CallDataSize | CodeSize | GasPrice | Coinbase | Timestamp | Number | Difficulty
            | GasLimit | ChainId | SelfBalance | BaseFee | ReturnDataSize | Push(_) => 0,
            IsZero | Not | Balance | CallDataLoad | MLoad | SLoad | BlockHash | Pop | Jump
            | ExtCodeSize | ExtCodeHash | SelfDestruct => 1,
            Add | Mul | Sub | Div | Sdiv | Mod | Smod | Exp | SignExtend | Lt | Gt | Slt | Sgt
            | Eq | And | Or | Xor | Byte | Shl | Shr | Sar | Sha3 | MStore | MStore8 | SStore
            | JumpI | Return | Revert => 2,
            AddMod | MulMod | CallDataCopy | CodeCopy | ReturnDataCopy | Create => 3,
            ExtCodeCopy | Create2 => 4,
            Log(n) => 2 + n as usize,
            DelegateCall | StaticCall => 6,
            Call | CallCode => 7,
            Dup(n) => n as usize,
            Swap(n) => n as usize + 1,
            Invalid | Unknown(_) => 0,
        }
    }

    /// Number of stack items produced.
    pub fn stack_outputs(self) -> usize {
        use Opcode::*;
        match self {
            Stop | JumpDest | Pop | Jump | JumpI | MStore | MStore8 | SStore | CallDataCopy
            | CodeCopy | ReturnDataCopy | ExtCodeCopy | Return | Revert | SelfDestruct | Log(_)
            | Invalid | Unknown(_) => 0,
            Swap(n) => n as usize + 1,
            Dup(n) => n as usize + 1,
            Call | CallCode | DelegateCall | StaticCall | Create | Create2 => 1,
            _ => 1,
        }
    }

    /// True for instructions that terminate a basic block.
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Stop
                | Opcode::Jump
                | Opcode::JumpI
                | Opcode::Return
                | Opcode::Revert
                | Opcode::Invalid
                | Opcode::SelfDestruct
        )
    }

    /// True for the instructions the paper treats as *vulnerable instructions*
    /// during path-prefix analysis (§IV-C): external calls, block state
    /// accesses, self-destruct, delegatecall and balance reads.
    pub fn is_vulnerable_instruction(self) -> bool {
        matches!(
            self,
            Opcode::Call
                | Opcode::CallCode
                | Opcode::DelegateCall
                | Opcode::SelfDestruct
                | Opcode::Timestamp
                | Opcode::Number
                | Opcode::Balance
                | Opcode::Origin
        )
    }

    /// Human-readable mnemonic.
    pub fn mnemonic(self) -> String {
        use Opcode::*;
        match self {
            Push(n) => format!("PUSH{n}"),
            Dup(n) => format!("DUP{n}"),
            Swap(n) => format!("SWAP{n}"),
            Log(n) => format!("LOG{n}"),
            Unknown(b) => format!("UNKNOWN(0x{b:02x})"),
            other => format!("{other:?}").to_uppercase(),
        }
    }
}

/// A disassembled instruction: program counter, opcode and optional
/// push payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instruction {
    /// Byte offset of the opcode in the code.
    pub pc: usize,
    /// Decoded opcode.
    pub opcode: Opcode,
    /// Immediate bytes for `PUSH*` instructions.
    pub immediate: Vec<u8>,
}

/// Walk bytecode without allocating: the pc, opcode and immediate bytes of
/// each instruction, in code order. A push truncated by the end of the code
/// yields the bytes present.
///
/// ```
/// use mufuzz_evm::{instructions, Opcode};
///
/// // PUSH1 0x2a, then a PUSH2 cut short after one byte.
/// let code = [0x60, 0x2a, 0x61, 0x01];
/// let walked: Vec<_> = instructions(&code).collect();
/// assert_eq!(walked[0], (0, Opcode::Push(1), &[0x2a][..]));
/// assert_eq!(walked[1], (2, Opcode::Push(2), &[0x01][..]));
/// ```
pub fn instructions(code: &[u8]) -> impl Iterator<Item = (usize, Opcode, &[u8])> {
    let mut pc = 0usize;
    std::iter::from_fn(move || {
        let opcode = Opcode::from_byte(*code.get(pc)?);
        let start = pc;
        pc += 1 + opcode.immediate_size();
        Some((start, opcode, &code[start + 1..pc.min(code.len())]))
    })
}

/// Disassemble bytecode into a list of instructions.
pub fn disassemble(code: &[u8]) -> Vec<Instruction> {
    instructions(code)
        .map(|(pc, opcode, immediate)| Instruction {
            pc,
            opcode,
            immediate: immediate.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_all_known_opcodes() {
        for byte in 0u8..=255 {
            let op = Opcode::from_byte(byte);
            assert_eq!(op.to_byte(), byte, "roundtrip failed for 0x{byte:02x}");
        }
    }

    #[test]
    fn push_immediate_sizes() {
        assert_eq!(Opcode::from_byte(0x60), Opcode::Push(1));
        assert_eq!(Opcode::from_byte(0x7f), Opcode::Push(32));
        assert_eq!(Opcode::Push(5).immediate_size(), 5);
        assert_eq!(Opcode::Add.immediate_size(), 0);
    }

    #[test]
    fn dup_swap_ranges() {
        assert_eq!(Opcode::from_byte(0x80), Opcode::Dup(1));
        assert_eq!(Opcode::from_byte(0x8f), Opcode::Dup(16));
        assert_eq!(Opcode::from_byte(0x90), Opcode::Swap(1));
        assert_eq!(Opcode::from_byte(0x9f), Opcode::Swap(16));
    }

    #[test]
    fn stack_arity() {
        assert_eq!(Opcode::Add.stack_inputs(), 2);
        assert_eq!(Opcode::Add.stack_outputs(), 1);
        assert_eq!(Opcode::Call.stack_inputs(), 7);
        assert_eq!(Opcode::DelegateCall.stack_inputs(), 6);
        assert_eq!(Opcode::JumpI.stack_inputs(), 2);
        assert_eq!(Opcode::JumpI.stack_outputs(), 0);
        assert_eq!(Opcode::Sar.stack_inputs(), 2);
        assert_eq!(Opcode::Sar.stack_outputs(), 1);
        assert_eq!(Opcode::Push(4).stack_inputs(), 0);
        assert_eq!(Opcode::Push(4).stack_outputs(), 1);
    }

    #[test]
    fn terminators_and_vulnerable_instructions() {
        assert!(Opcode::JumpI.is_terminator());
        assert!(Opcode::Return.is_terminator());
        assert!(!Opcode::Add.is_terminator());
        assert!(Opcode::Call.is_vulnerable_instruction());
        assert!(Opcode::Timestamp.is_vulnerable_instruction());
        assert!(!Opcode::Add.is_vulnerable_instruction());
    }

    #[test]
    fn disassemble_simple_program() {
        // PUSH1 0x02 PUSH1 0x03 ADD STOP
        let code = vec![0x60, 0x02, 0x60, 0x03, 0x01, 0x00];
        let instrs = disassemble(&code);
        assert_eq!(instrs.len(), 4);
        assert_eq!(instrs[0].opcode, Opcode::Push(1));
        assert_eq!(instrs[0].immediate, vec![0x02]);
        assert_eq!(instrs[2].opcode, Opcode::Add);
        assert_eq!(instrs[2].pc, 4);
        assert_eq!(instrs[3].opcode, Opcode::Stop);
    }

    #[test]
    fn disassemble_truncated_push() {
        // PUSH32 with only 2 payload bytes available.
        let code = vec![0x7f, 0xaa, 0xbb];
        let instrs = disassemble(&code);
        assert_eq!(instrs.len(), 1);
        assert_eq!(instrs[0].immediate, vec![0xaa, 0xbb]);
    }

    #[test]
    fn conformance_surface_decodes() {
        assert_eq!(Opcode::from_byte(0x39), Opcode::CodeCopy);
        assert_eq!(Opcode::from_byte(0x3b), Opcode::ExtCodeSize);
        assert_eq!(Opcode::from_byte(0x3c), Opcode::ExtCodeCopy);
        assert_eq!(Opcode::from_byte(0x3d), Opcode::ReturnDataSize);
        assert_eq!(Opcode::from_byte(0x3e), Opcode::ReturnDataCopy);
        assert_eq!(Opcode::from_byte(0x3f), Opcode::ExtCodeHash);
        assert_eq!(Opcode::from_byte(0x46), Opcode::ChainId);
        assert_eq!(Opcode::from_byte(0x48), Opcode::BaseFee);
        assert_eq!(Opcode::from_byte(0xf5), Opcode::Create2);
        assert_eq!(Opcode::ReturnDataCopy.stack_inputs(), 3);
        assert_eq!(Opcode::ExtCodeCopy.stack_inputs(), 4);
        assert_eq!(Opcode::Create2.stack_inputs(), 4);
        assert_eq!(Opcode::Create2.stack_outputs(), 1);
        assert_eq!(Opcode::ChainId.stack_inputs(), 0);
        assert_eq!(Opcode::ChainId.mnemonic(), "CHAINID");
        assert_eq!(Opcode::Create2.mnemonic(), "CREATE2");
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Opcode::Push(1).mnemonic(), "PUSH1");
        assert_eq!(Opcode::Sha3.mnemonic(), "SHA3");
        assert_eq!(Opcode::Unknown(0xef).mnemonic(), "UNKNOWN(0xef)");
    }
}
