//! Trace records the conformance vectors cannot see, pinned by absolute
//! value on both dispatch disciplines (block settlement and one instruction
//! at a time):
//!
//! * the [`Comparison`] a `JUMPI`'s [`BranchRecord`] carries after each
//!   comparison opcode and after `ISZERO`, which keeps a comparison whose
//!   boolean it negates and otherwise becomes an `IsZero` comparison
//!   itself (the branch-distance feedback reads these);
//! * the stack-overflow deopt: a block entered at stack height `1024 - k`
//!   whose growth exceeds `k` cannot be settled at its leader, and the
//!   frame must fault on the exact push that overflows.

use mufuzz_evm::{
    Account, Address, BlockEnv, BranchRecord, CmpKind, Comparison, DecodedProgram, Evm,
    ExecutionResult, HaltReason, Message, Opcode, ProgramCache, Taint, WorldState, U256,
};
use std::sync::Arc;

const SENDER: u64 = 0x1000;
const CONTRACT: u64 = 0xc0de;

/// Run `code` with the blob cached, on the block discipline and on the
/// per-instruction one; assert the two results equal and return one.
fn run_both(code: &[u8], value: u64, gas: u64) -> ExecutionResult {
    let sender = Address::from_low_u64(SENDER);
    let contract = Address::from_low_u64(CONTRACT);
    let mut base = WorldState::new();
    base.put_account(sender, Account::eoa(U256::from_u64(1_000_000)));
    base.put_account(contract, Account::contract(code.to_vec(), U256::ZERO));
    let runtime = base.code(contract);
    let mut cache = ProgramCache::new();
    cache.insert(
        Arc::clone(runtime),
        Arc::new(DecodedProgram::decode(runtime)),
    );
    let mut msg = Message::new(sender, contract, U256::from_u64(value), vec![]);
    msg.gas = gas;
    let run = |block_lowering: bool| {
        let mut world = base.snapshot();
        let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
        evm.config.block_lowering = block_lowering;
        evm.execute(&msg)
    };
    let blocks = run(true);
    let instructions = run(false);
    assert_eq!(blocks, instructions, "the two disciplines diverge");
    blocks
}

/// The single branch record of a run.
fn only_branch(result: &ExecutionResult) -> &BranchRecord {
    assert!(result.success, "halt: {:?}", result.halt);
    assert_eq!(result.trace.branches.len(), 1);
    &result.trace.branches[0]
}

/// `CALLVALUE; PUSH1 rhs; SWAP1; <prefix ops>; PUSH1 dest; JUMPI; STOP;
/// JUMPDEST; STOP`: the call value is the first operand popped by the
/// first op of `prefix`, `rhs` the second. Returns the code and the pc of
/// the `JUMPI`.
fn branch_after(rhs: u8, prefix: &[u8]) -> (Vec<u8>, usize) {
    let mut code = vec![0x34, 0x60, rhs, 0x90];
    code.extend_from_slice(prefix);
    let jumpi = code.len() + 2;
    let dest = (jumpi + 2) as u8;
    code.extend_from_slice(&[0x60, dest, 0x57, 0x00, 0x5b, 0x00]);
    (code, jumpi)
}

#[test]
fn each_comparison_reaches_the_branch_record() {
    // (opcode, call value, rhs, kind, outcome). The comparison's pc is 4,
    // right after `CALLVALUE; PUSH1 rhs; SWAP1`.
    let word = U256::from_u64;
    let minus_one = U256::MAX;
    let cases = [
        (0x10, 3, 5, CmpKind::Lt, true),
        (0x10, 5, 3, CmpKind::Lt, false),
        (0x11, 5, 3, CmpKind::Gt, true),
        (0x11, 3, 5, CmpKind::Gt, false),
        (0x14, 7, 7, CmpKind::Eq, true),
        (0x14, 7, 8, CmpKind::Eq, false),
    ];
    for (op, value, rhs, kind, taken) in cases {
        let (code, jumpi) = branch_after(rhs, &[op]);
        let result = run_both(&code, value, 100_000);
        let branch = only_branch(&result);
        assert_eq!(branch.pc, jumpi);
        assert_eq!(branch.dest, jumpi + 2);
        assert_eq!(branch.taken, taken, "opcode 0x{op:02x}");
        assert_eq!(branch.cond_taint, Taint::CALLVALUE);
        assert_eq!(
            branch.comparison,
            Some(Comparison {
                pc: 4,
                kind,
                lhs: word(value),
                rhs: word(u64::from(rhs)),
                taint: Taint::CALLVALUE,
            }),
            "opcode 0x{op:02x}"
        );
    }

    // SLT and SGT record their operands unsigned, under the `Lt` and `Gt`
    // kinds: `-1 SLT 1` is taken, `-1 SGT 1` is not.
    for (op, kind, taken) in [(0x12, CmpKind::Lt, true), (0x13, CmpKind::Gt, false)] {
        // PUSH1 1; PUSH1 0; NOT (-1, the first operand popped); op; ...
        let code = [
            0x60, 0x01, 0x60, 0x00, 0x19, op, 0x60, 0x0a, 0x57, 0x00, 0x5b, 0x00,
        ];
        let result = run_both(&code, 0, 100_000);
        let branch = only_branch(&result);
        assert_eq!(branch.taken, taken, "opcode 0x{op:02x}");
        assert_eq!(branch.cond_taint, Taint::empty());
        assert_eq!(
            branch.comparison,
            Some(Comparison {
                pc: 5,
                kind,
                lhs: minus_one,
                rhs: U256::ONE,
                taint: Taint::empty(),
            }),
            "opcode 0x{op:02x}"
        );
    }
}

#[test]
fn iszero_keeps_a_comparison_and_replaces_a_value() {
    let lt = |value: u64| Comparison {
        pc: 4,
        kind: CmpKind::Lt,
        lhs: U256::from_u64(value),
        rhs: U256::from_u64(5),
        taint: Taint::CALLVALUE,
    };

    // `LT; ISZERO` before the branch: the negation keeps LT's record (the
    // block discipline fuses `ISZERO; PUSH; JUMPI`).
    let (code, _) = branch_after(5, &[0x10, 0x15]);
    let result = run_both(&code, 3, 100_000);
    let branch = only_branch(&result);
    assert!(!branch.taken);
    assert_eq!(branch.comparison, Some(lt(3)));

    // `LT; ISZERO; ISZERO`: the plain ISZERO handler keeps it too.
    let (code, _) = branch_after(5, &[0x10, 0x15, 0x15]);
    let result = run_both(&code, 3, 100_000);
    let branch = only_branch(&result);
    assert!(branch.taken);
    assert_eq!(branch.comparison, Some(lt(3)));

    // `ISZERO` of a non-boolean value is the comparison: value == 0.
    // CALLVALUE; ISZERO; PUSH1 6; JUMPI; STOP; JUMPDEST; STOP.
    let code = [0x34, 0x15, 0x60, 0x06, 0x57, 0x00, 0x5b, 0x00];
    for value in [7, 0] {
        let result = run_both(&code, value, 100_000);
        let branch = only_branch(&result);
        assert_eq!(branch.taken, value == 0);
        assert_eq!(branch.cond_taint, Taint::CALLVALUE);
        // A zero call value is a boolean, but no comparison is pending, so
        // ISZERO records itself in both cases.
        assert_eq!(
            branch.comparison,
            Some(Comparison {
                pc: 1,
                kind: CmpKind::IsZero,
                lhs: U256::from_u64(value),
                rhs: U256::ZERO,
                taint: Taint::CALLVALUE,
            })
        );
    }

    // Through the plain handler: CALLVALUE; ISZERO; ISZERO; PUSH1 7; JUMPI.
    // The first ISZERO records the value 7; the second sees a boolean with
    // a comparison pending and keeps the first's record.
    let code = [0x34, 0x15, 0x15, 0x60, 0x07, 0x57, 0x00, 0x5b, 0x00];
    let result = run_both(&code, 7, 100_000);
    let branch = only_branch(&result);
    assert!(branch.taken);
    assert_eq!(
        branch.comparison,
        Some(Comparison {
            pc: 1,
            kind: CmpKind::IsZero,
            lhs: U256::from_u64(7),
            rhs: U256::ZERO,
            taint: Taint::CALLVALUE,
        })
    );
}

/// `(1024 - k) × PUSH1 1; JUMPDEST; growth × PUSH1 2; STOP`: the second
/// block is entered at stack height `1024 - k`.
fn push_to_the_limit(k: usize, growth: usize) -> Vec<u8> {
    let mut code = Vec::new();
    for _ in 0..1024 - k {
        code.extend_from_slice(&[0x60, 0x01]);
    }
    code.push(0x5b);
    for _ in 0..growth {
        code.extend_from_slice(&[0x60, 0x02]);
    }
    code.push(0x00);
    code
}

#[test]
fn a_block_that_would_overflow_the_stack_faults_on_the_exact_push() {
    let gas = 100_000;
    for k in 0..=4 {
        // Growth of k + 1 cannot be settled at the leader: the frame
        // continues one instruction at a time and faults on the push that
        // would make the 1025th item. Every push up to and including it is
        // recorded and billed (2 gas each), and so is the JUMPDEST (1).
        let result = run_both(&push_to_the_limit(k, k + 1), 0, gas);
        assert_eq!(
            result.halt,
            HaltReason::Fault("stack overflow".into()),
            "k = {k}"
        );
        assert_eq!(result.trace.instr_count, 1026, "k = {k}");
        assert!(result.trace.contains_opcode(Opcode::Push(1)));
        assert!(result.trace.contains_opcode(Opcode::JumpDest));
        assert!(!result.trace.contains_opcode(Opcode::Stop));
        assert_eq!(result.gas_used, 2 * 1025 + 1, "k = {k}");

        // Growth of exactly k fills the stack and stops normally.
        let result = run_both(&push_to_the_limit(k, k), 0, gas);
        assert_eq!(result.halt, HaltReason::Normal, "k = {k}");
        assert_eq!(result.trace.instr_count, 1026, "k = {k}");
        assert!(result.trace.contains_opcode(Opcode::Stop));
        assert_eq!(result.gas_used, 2 * 1024 + 1 + 1, "k = {k}");
    }
}
