//! # mufuzz-evm
//!
//! A from-scratch, fully instrumented Ethereum Virtual Machine substrate for
//! the MuFuzz reproduction.
//!
//! The crate provides:
//!
//! * [`U256`] — 256-bit arithmetic with explicit overflow reporting,
//! * [`keccak256`] — Keccak-256 (function selectors, mapping slots, `SHA3`),
//! * [`Opcode`] / [`disassemble`] / [`instructions`] — the instruction set,
//!   a disassembler and an allocation-free instruction walk,
//! * [`WorldState`] / [`Account`] — accounts, balances and persistent storage,
//!   with an undo journal for transaction rollback,
//! * [`Evm`] — the interpreter, producing an [`ExecutionTrace`] per
//!   transaction with branch decisions, coverage edges, taint-annotated
//!   events and everything the bug oracles need.
//!
//! ## Example
//!
//! ```
//! use mufuzz_evm::{Account, Address, BlockEnv, Evm, Message, U256, WorldState};
//!
//! // PUSH1 2, PUSH1 40, ADD, PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN
//! let code = vec![0x60, 0x02, 0x60, 0x28, 0x01, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3];
//! let sender = Address::from_low_u64(1);
//! let contract = Address::from_low_u64(0x42);
//!
//! let mut world = WorldState::new();
//! world.put_account(sender, Account::eoa(U256::from_u64(1_000_000)));
//! world.put_account(contract, Account::contract(code, U256::ZERO));
//!
//! let mut evm = Evm::new(&mut world, BlockEnv::default());
//! let result = evm.execute(&Message::new(sender, contract, U256::ZERO, vec![]));
//! assert!(result.success);
//! assert_eq!(U256::from_be_slice(&result.output), U256::from_u64(42));
//! ```

#![warn(missing_docs)]

pub mod env;
mod fxhash;
pub mod gas;
pub mod interpreter;
pub mod keccak;
pub mod opcode;
pub mod program;
pub mod state;
mod threaded;
pub mod trace;
pub mod types;
pub mod u256;

pub use env::{BlockEnv, ExecutionResult, Message};
pub use gas::{static_gas, AccessCheckpoint, AccessSets};
pub use interpreter::{Evm, EvmConfig, ExecFrame};
pub use keccak::{keccak256, selector};
pub use opcode::{disassemble, instructions, Instruction, Opcode};
pub use program::{
    BlockInfo, BlockProgram, BlockUnit, DecodedInstr, DecodedProgram, Fused, ProgramCache,
};
pub use state::{Account, HostBehaviour, WorldCheckpoint, WorldState};
pub use trace::{
    ArithEvent, BranchEdge, BranchRecord, CallEvent, CallKind, CmpKind, Comparison,
    ConformanceEvent, ExecutionTrace, HaltReason, SelfDestructEvent, StorageWrite, Taint,
};
pub use types::{ether, finney, Address};
pub use u256::U256;
