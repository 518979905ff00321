//! Property-based tests for the basic-block lowering: on arbitrary byte
//! blobs, the blocks must partition the decoded stream, every `JUMPDEST`
//! must lead a block, the precomputed per-block envelope must equal an
//! independent instruction-by-instruction fold, and the dispatch units must
//! tile the stream exactly; the unfused lowering has one instruction per
//! unit and per block. A final property executes random code under both
//! billing disciplines (block settlement, and one instruction at a time
//! over the unfused lowering) and demands bit-identical results, and
//! targeted gas sweeps drive every fused storage arm through each possible
//! mid-pattern halt and deopt hand-off.

use mufuzz_evm::{
    static_gas, Account, Address, BlockEnv, BlockProgram, DecodedProgram, Evm, Fused, Message,
    Opcode, ProgramCache, WorldState, U256,
};
use proptest::prelude::*;
use std::sync::Arc;

fn lowered(code: &[u8]) -> BlockProgram {
    BlockProgram::lower(Arc::new(DecodedProgram::decode(code)))
}

proptest! {
    #[test]
    fn blocks_partition_the_instruction_stream(code in proptest::collection::vec(any::<u8>(), 0..600)) {
        let program = lowered(&code);
        let n = program.base().instructions().len() as u32;
        if n == 0 {
            prop_assert!(program.blocks().is_empty());
            return;
        }
        // Contiguous, non-empty, covering [0, n): each block starts where
        // the previous one ended.
        let mut expected_start = 0u32;
        for block in program.blocks() {
            prop_assert_eq!(block.instr_start, expected_start);
            prop_assert!(block.instr_end > block.instr_start);
            expected_start = block.instr_end;
        }
        prop_assert_eq!(expected_start, n);
    }

    #[test]
    fn every_jumpdest_starts_a_block(code in proptest::collection::vec(any::<u8>(), 0..600)) {
        let program = lowered(&code);
        let instrs = program.base().instructions();
        let starts: Vec<u32> = program.blocks().iter().map(|b| b.instr_start).collect();
        for (i, instr) in instrs.iter().enumerate() {
            if instr.op == Opcode::JumpDest {
                prop_assert!(
                    starts.binary_search(&(i as u32)).is_ok(),
                    "JUMPDEST at instruction {} is not a block leader", i
                );
            }
        }
    }

    #[test]
    fn block_envelopes_equal_an_instruction_fold(code in proptest::collection::vec(any::<u8>(), 0..600)) {
        let program = lowered(&code);
        let instrs = program.base().instructions();
        for block in program.blocks() {
            // Independent re-derivation of the envelope, straight from the
            // public opcode metadata.
            let mut gas = 0u64;
            let (mut height, mut needed, mut peak) = (0i64, 0i64, 0i64);
            for instr in &instrs[block.instr_start as usize..block.instr_end as usize] {
                gas += static_gas(instr.op);
                let ins = instr.op.stack_inputs() as i64;
                let outs = instr.op.stack_outputs() as i64;
                needed = needed.max(ins - height);
                height += outs - ins;
                peak = peak.max(height);
            }
            prop_assert_eq!(block.static_gas, gas);
            prop_assert_eq!(i64::from(block.stack_needed), needed.max(0));
            prop_assert_eq!(i64::from(block.max_growth), peak.max(0));
            prop_assert_eq!(i64::from(block.stack_delta), height);
        }
    }

    #[test]
    fn units_tile_the_stream_and_leaders_line_up(code in proptest::collection::vec(any::<u8>(), 0..600)) {
        let program = lowered(&code);
        let instrs = program.base().instructions();
        // Units are contiguous, non-empty and cover every instruction.
        let mut expected_start = 0u32;
        for unit in program.units() {
            prop_assert_eq!(unit.instr_start, expected_start);
            prop_assert!(unit.instr_count > 0);
            prop_assert_eq!(unit.pc, instrs[unit.instr_start as usize].pc);
            expected_start += unit.instr_count;
        }
        prop_assert_eq!(expected_start as usize, instrs.len());
        // Exactly the first unit of each block carries that block's index,
        // and fused patterns never straddle a block boundary.
        let mut leaders = Vec::new();
        for unit in program.units() {
            if unit.leader != u32::MAX {
                leaders.push((unit.leader, unit.instr_start));
            }
        }
        let blocks: Vec<(u32, u32)> = program
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u32, b.instr_start))
            .collect();
        prop_assert_eq!(leaders, blocks);
        for (unit, block) in program.units().iter().filter(|u| u.leader != u32::MAX).zip(program.blocks()) {
            prop_assert!(unit.instr_start + unit.instr_count <= block.instr_end);
        }
    }

    #[test]
    fn unfused_lowering_is_one_instruction_per_unit_and_block(code in proptest::collection::vec(any::<u8>(), 0..600)) {
        let base = Arc::new(DecodedProgram::decode(&code));
        let program = BlockProgram::unfused(Arc::clone(&base));
        prop_assert!(program.is_unfused());
        prop_assert!(!lowered(&code).is_unfused());
        let instrs = base.instructions();
        prop_assert_eq!(program.units().len(), instrs.len());
        prop_assert_eq!(program.blocks().len(), instrs.len());
        for (i, (unit, instr)) in program.units().iter().zip(instrs).enumerate() {
            prop_assert_eq!(unit.fused, Fused::None);
            prop_assert_eq!(unit.op, instr.op);
            prop_assert_eq!(unit.instr_start as usize, i);
            prop_assert_eq!(unit.instr_count, 1);
            prop_assert_eq!(unit.leader as usize, i);
            // The per-instruction discipline charges `head` before the
            // handler and nothing is pre-paid for a `tail` to cover.
            prop_assert_eq!(unit.head, static_gas(instr.op));
            prop_assert_eq!(unit.tail, 0);
        }
        for dest in 0..=code.len() {
            prop_assert_eq!(program.jump_unit(dest), base.jump_cursor(dest));
        }
    }

    #[test]
    fn jump_unit_agrees_with_jump_cursor(code in proptest::collection::vec(any::<u8>(), 0..600)) {
        let program = lowered(&code);
        for dest in 0..=code.len() {
            match (program.base().jump_cursor(dest), program.jump_unit(dest)) {
                (None, None) => {}
                (Some(instr), Some(unit)) => {
                    // The destination is a JUMPDEST, hence a block leader,
                    // hence the first constituent of its unit.
                    prop_assert_eq!(program.units()[unit].instr_start as usize, instr);
                }
                (a, b) => prop_assert!(false, "jump_cursor {:?} vs jump_unit {:?} at {}", a, b, dest),
            }
        }
    }

    #[test]
    fn random_code_executes_identically_on_both_tiers(
        code in proptest::collection::vec(any::<u8>(), 0..300),
        calldata in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let sender = Address::from_low_u64(1);
        let contract = Address::from_low_u64(0x42);
        let mut base = WorldState::new();
        base.put_account(sender, Account::eoa(U256::from_u64(1_000_000)));
        base.put_account(contract, Account::contract(code.clone(), U256::ZERO));
        let runtime = base.code(contract);
        let mut cache = ProgramCache::new();
        cache.insert(Arc::clone(&runtime), Arc::new(DecodedProgram::decode(&runtime)));
        base.freeze();
        let msg = Message::new(sender, contract, U256::ZERO, calldata);

        let run = |block_lowering: bool| {
            let mut world = base.snapshot();
            let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
            evm.config.block_lowering = block_lowering;
            (evm.execute(&msg), world)
        };
        let (threaded, world_threaded) = run(true);
        let (pre, world_pre) = run(false);

        prop_assert_eq!(threaded.gas_used, pre.gas_used);
        prop_assert_eq!(&threaded, &pre);
        prop_assert_eq!(&world_threaded, &world_pre);
    }
}

/// Run `code` with the given gas limit and call value block by block and
/// one instruction at a time, and demand bit-identical results (including
/// the trace, hence the instruction count) and committed state.
fn assert_tiers_agree_at_gas(code: &[u8], gas: u64, value: u64) {
    let sender = Address::from_low_u64(1);
    let contract = Address::from_low_u64(0x42);
    let mut base = WorldState::new();
    base.put_account(sender, Account::eoa(U256::from_u64(1_000_000)));
    base.put_account(contract, Account::contract(code.to_vec(), U256::ZERO));
    let runtime = base.code(contract);
    let mut cache = ProgramCache::new();
    cache.insert(
        Arc::clone(&runtime),
        Arc::new(DecodedProgram::decode(&runtime)),
    );
    base.freeze();
    let mut msg = Message::new(sender, contract, U256::from_u64(value), vec![]);
    msg.gas = gas;
    let run = |block_lowering: bool| {
        let mut world = base.snapshot();
        let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
        evm.config.block_lowering = block_lowering;
        (evm.execute(&msg), world)
    };
    let (threaded, world_threaded) = run(true);
    let (pre, world_pre) = run(false);
    assert_eq!(threaded, pre, "block-tier divergence at gas {gas}");
    assert_eq!(
        world_threaded, world_pre,
        "block-tier state divergence at gas {gas}"
    );
}

/// [`assert_tiers_agree_at_gas`] at the default transaction gas limit.
fn assert_tiers_agree(code: Vec<u8>) {
    assert_tiers_agree_at_gas(&code, 10_000_000, 0);
}

/// Sweep the transaction gas limit from zero past the full cost of `code`,
/// demanding tier agreement at every level. Each level lands the
/// out-of-gas (or deopt) point on a different constituent, so one sweep
/// exercises every mid-pattern halt a fused arm can take.
fn assert_tiers_agree_at_every_gas_level(code: &[u8], value: u64) {
    let sender = Address::from_low_u64(1);
    let contract = Address::from_low_u64(0x42);
    let mut base = WorldState::new();
    base.put_account(sender, Account::eoa(U256::from_u64(1_000_000)));
    base.put_account(contract, Account::contract(code.to_vec(), U256::ZERO));
    base.freeze();
    let msg = Message::new(sender, contract, U256::from_u64(value), vec![]);
    let mut world = base.snapshot();
    let full = Evm::new(&mut world, BlockEnv::default()).execute(&msg);
    // An out-of-gas halt reports the whole limit as used; cap the sweep so a
    // faulting vector still sweeps its interesting prefix, not 10M levels.
    for gas in 0..=full.gas_used.min(20_000) + 2 {
        assert_tiers_agree_at_gas(code, gas, value);
    }
}

/// A fused memory arm whose mid-unit MLOAD faults must leave the same trace
/// as running one instruction at a time, which records only the
/// constituents up to and including the faulting op — not the trailing
/// binop.
#[test]
fn mid_unit_mload_fault_keeps_the_trace_exact() {
    // PUSH1 0; PUSH32 <huge>; MLOAD; ADD; STOP — fuses to
    // `PushPushMLoadBinop`, and the out-of-range offset faults the MLOAD.
    let mut code = vec![0x60, 0x00, 0x7f];
    code.extend([0xff; 32]);
    code.extend([0x51, 0x01, 0x00]);
    assert_tiers_agree(code);

    // PUSH1 0; PUSH32 <huge>; MLOAD; PUSH1 1; ADD; STOP — the MLOAD faults
    // as the last constituent of a `PushMLoad` unit.
    let mut code = vec![0x60, 0x00, 0x7f];
    code.extend([0xff; 32]);
    code.extend([0x51, 0x60, 0x01, 0x01, 0x00]);
    assert_tiers_agree(code);

    // CALLVALUE; PUSH32 <huge>; MLOAD; ADD; STOP — the stack operand keeps
    // the longer patterns from matching; `PushMLoad` again.
    let mut code = vec![0x34, 0x7f];
    code.extend([0xff; 32]);
    code.extend([0x51, 0x01, 0x00]);
    assert_tiers_agree(code);
}

// The mapping-slot idiom with the key taken from the call value:
//   CALLVALUE; PUSH1 0; MSTORE; PUSH1 1; PUSH1 0x20; MSTORE;
//   PUSH1 0x40; PUSH1 0; SHA3
// which fuses the nine-instruction window into `MapSlotSLoad` /
// `MapSlotSStore` when a storage op follows, and into shorter units ending
// in `PushPushSha3` when none does.
const MAP_SLOT_PREFIX: [u8; 14] = [
    0x34, 0x60, 0x00, 0x52, 0x60, 0x01, 0x60, 0x20, 0x52, 0x60, 0x40, 0x60, 0x00, 0x20,
];

/// Every fused storage arm, swept across all gas levels: each level lands
/// the out-of-gas point on a different constituent, so the sweeps cover
/// the mid-pattern deopt at the block settle, the per-constituent charge
/// replay in the `MapSlot*` arms, and the post-arm tail recharge.
#[test]
fn fused_storage_arms_agree_at_every_gas_level() {
    // PUSH1 5; SLOAD; STOP — `PushSLoad`.
    assert_tiers_agree_at_every_gas_level(&[0x60, 0x05, 0x54, 0x00], 0);

    // CALLVALUE; PUSH1 5; SSTORE; STOP — `PushSStore`; the 5000-gas SSTORE
    // at the end of the pattern is the mid-pattern out-of-gas candidate.
    assert_tiers_agree_at_every_gas_level(&[0x34, 0x60, 0x05, 0x55, 0x00], 7);

    // PUSH1 3; PUSH1 0; SLOAD; ADD; PUSH1 0; SSTORE; STOP — the
    // read-modify-write `StorageExprStore`.
    assert_tiers_agree_at_every_gas_level(
        &[0x60, 0x03, 0x60, 0x00, 0x54, 0x01, 0x60, 0x00, 0x55, 0x00],
        0,
    );

    // The mapping-slot idiom ending in SLOAD, SSTORE (with CALLDATASIZE as
    // the stored value) and bare SHA3 (POP; STOP afterwards).
    let mut sload = MAP_SLOT_PREFIX.to_vec();
    sload.extend([0x54, 0x00]);
    assert_tiers_agree_at_every_gas_level(&sload, 9);

    let mut sstore = vec![0x36];
    sstore.extend(MAP_SLOT_PREFIX);
    sstore.extend([0x55, 0x00]);
    assert_tiers_agree_at_every_gas_level(&sstore, 9);

    let mut sha3 = MAP_SLOT_PREFIX.to_vec();
    sha3.extend([0x50, 0x00]);
    assert_tiers_agree_at_every_gas_level(&sha3, 9);
}

/// Faulting constituents *inside* a fused storage pattern: the trace must
/// record exactly the executed prefix (per-instruction semantics), and the
/// fault message and remaining gas must match the slower tiers bit for bit.
#[test]
fn mid_pattern_storage_faults_keep_the_trace_exact() {
    // MapSlot whose first MSTORE offset is a PUSH32 beyond the address
    // space: faults "mstore out of bounds" at constituent 1.
    let mut code = vec![0x34, 0x7f];
    code.extend([0xff; 32]);
    code.extend([
        0x52, 0x60, 0x01, 0x60, 0x20, 0x52, 0x60, 0x40, 0x60, 0x00, 0x20, 0x54, 0x00,
    ]);
    assert_tiers_agree(code);

    // MapSlot whose SHA3 offset is a PUSH32 beyond the address space:
    // everything up to the hash executes, then constituent 7 faults.
    let mut code = vec![
        0x34, 0x60, 0x00, 0x52, 0x60, 0x01, 0x60, 0x20, 0x52, 0x60, 0x40, 0x7f,
    ];
    code.extend([0xff; 32]);
    code.extend([0x20, 0x54, 0x00]);
    assert_tiers_agree(code);

    // MapSlot whose SHA3 offset fits a machine word but overflows the
    // memory span / expansion bill: the dynamic memory charge at
    // constituent 7 is the halt point. Swept to also hit the charges
    // before it.
    let mut code = vec![
        0x34, 0x60, 0x00, 0x52, 0x60, 0x01, 0x60, 0x20, 0x52, 0x60, 0x40, 0x67,
    ];
    code.extend([0xff; 8]);
    code.extend([0x20, 0x54, 0x00]);
    assert_tiers_agree_at_every_gas_level(&code, 0);

    // `PushSStore` under exact-gas starvation: enough for the block settle
    // minus one, then every level below — the arm must deopt untouched and
    // replay per-instruction, out-of-gassing on the SSTORE itself.
    assert_tiers_agree_at_every_gas_level(&[0x34, 0x60, 0x05, 0x55, 0x00], 0);
}
