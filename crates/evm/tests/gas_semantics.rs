//! Gas-accounting regression suite for the three dynamic charges the static
//! schedule used to miss:
//!
//! 1. `EXP` costs 50 gas per significant exponent byte on top of its base
//!    cost (EIP-160-style pricing), so the charge scales with the exponent's
//!    magnitude instead of being flat.
//! 2. Memory expansion is charged quadratically (`C_mem(w) = 3·w + w²/512`
//!    per 32-byte word) on growth, so huge `MLOAD`/`MSTORE`/`CALLDATACOPY`
//!    offsets halt with `OutOfGas` instead of relying only on the
//!    `max_memory` fault cap.
//! 3. `CALL`-family forwarding follows the EIP-150 all-but-one-64th rule and
//!    the caller pays the callee's actual consumption, so a draining callee
//!    always leaves the outer frame at least `gas_left / 64` to finish.
//!
//! Every vector executes under both billing disciplines (block settlement
//! and one instruction at a time, through the same handlers) and asserts
//! bit-identical results; the decoder differential suite covers the corpus
//! contracts, this file covers the gas-edge programs.

use mufuzz_evm::{
    Account, Address, BlockEnv, DecodedProgram, Evm, ExecutionResult, HaltReason, Message,
    ProgramCache, WorldState, U256,
};
use std::sync::Arc;

fn addr(n: u64) -> Address {
    Address::from_low_u64(n)
}

/// A program cache holding every code blob deployed at `addresses`, so both
/// disciplines run them (an uncached blob always runs one instruction at a
/// time).
fn cache_code(world: &WorldState, addresses: &[Address]) -> ProgramCache {
    let mut cache = ProgramCache::new();
    for &address in addresses {
        let blob = world.code(address);
        cache.insert(Arc::clone(blob), Arc::new(DecodedProgram::decode(blob)));
    }
    cache
}

/// Run `code` at address 0x100 from a funded sender with the given gas
/// budget, on both tiers, asserting they agree bit for bit.
fn run_with_gas(code: &[u8], gas: u64) -> ExecutionResult {
    let exec = |block_lowering: bool| {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u128(1 << 100)));
        world.put_account(addr(0x100), Account::contract(code.to_vec(), U256::ZERO));
        let cache = cache_code(&world, &[addr(0x100)]);
        let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
        evm.config.block_lowering = block_lowering;
        let mut msg = Message::new(addr(1), addr(0x100), U256::ZERO, vec![]);
        msg.gas = gas;
        evm.execute(&msg)
    };
    let threaded = exec(true);
    let reference = exec(false);
    assert_eq!(threaded, reference, "tier divergence on a gas vector");
    threaded
}

/// `C_mem(words)`: the interpreter's quadratic memory schedule.
fn memory_cost(words: u64) -> u64 {
    3 * words + (words * words) / 512
}

// ---------------------------------------------------------------------------
// 1. EXP: per-exponent-byte pricing
// ---------------------------------------------------------------------------

/// PUSH the exponent, PUSH the base, EXP, POP, STOP.
fn exp_program(base: u8, exponent_be: &[u8]) -> Vec<u8> {
    assert!(!exponent_be.is_empty() && exponent_be.len() <= 32);
    let mut code = vec![0x60 + (exponent_be.len() as u8 - 1)]; // PUSH<n>
    code.extend_from_slice(exponent_be);
    code.extend_from_slice(&[0x60, base, 0x0a, 0x50, 0x00]); // PUSH1 base, EXP, POP, STOP
    code
}

#[test]
fn exp_gas_scales_with_exponent_byte_length() {
    // Fixed instruction overhead: PUSH (2) + PUSH1 (2) + EXP base (50) +
    // POP (2) + STOP (1) = 57 gas.
    let zero = run_with_gas(&exp_program(2, &[0x00]), 1_000_000);
    assert!(zero.success);
    assert_eq!(zero.gas_used, 57, "a zero exponent has no dynamic cost");

    let one_byte = run_with_gas(&exp_program(2, &[0x0a]), 1_000_000);
    assert!(one_byte.success);
    assert_eq!(one_byte.gas_used, 57 + 50);

    let two_bytes = run_with_gas(&exp_program(2, &[0x01, 0x00]), 1_000_000);
    assert!(two_bytes.success);
    assert_eq!(two_bytes.gas_used, 57 + 2 * 50);

    let max = [0xffu8; 32];
    let full_word = run_with_gas(&exp_program(2, &max), 1_000_000);
    assert!(full_word.success);
    assert_eq!(full_word.gas_used, 57 + 32 * 50);
}

#[test]
fn exp_dynamic_charge_can_out_of_gas() {
    // 57 + 32·50 = 1657 needed; 1600 is enough for the base charge but not
    // the per-byte part.
    let max = [0xffu8; 32];
    let result = run_with_gas(&exp_program(2, &max), 1_600);
    assert!(!result.success);
    assert_eq!(result.halt, HaltReason::OutOfGas);
}

// ---------------------------------------------------------------------------
// 2. Memory expansion: quadratic word cost, charged on growth
// ---------------------------------------------------------------------------

/// PUSH1 1, PUSH<offset>, MSTORE, STOP.
fn mstore_program(offset_be: &[u8]) -> Vec<u8> {
    let mut code = vec![0x60, 0x01, 0x60 + (offset_be.len() as u8 - 1)];
    code.extend_from_slice(offset_be);
    code.extend_from_slice(&[0x52, 0x00]);
    code
}

#[test]
fn memory_growth_is_charged_quadratically() {
    // MSTORE at offset 0 grows to 1 word; at offset 65536 to 2049 words.
    let small = run_with_gas(&mstore_program(&[0x00]), 10_000_000);
    assert!(small.success);
    let big = run_with_gas(&mstore_program(&[0x01, 0x00, 0x00]), 10_000_000);
    assert!(big.success);
    assert_eq!(
        big.gas_used - small.gas_used,
        memory_cost(2049) - memory_cost(1),
        "growth must be billed by the quadratic word schedule"
    );
}

#[test]
fn unaffordable_memory_growth_halts_out_of_gas() {
    // The 2049-word expansion costs C(2049) = 14347 gas; a 10k budget cannot
    // pay it even though the offset is far below the max_memory fault cap.
    let result = run_with_gas(&mstore_program(&[0x01, 0x00, 0x00]), 10_000);
    assert!(!result.success);
    assert_eq!(result.halt, HaltReason::OutOfGas);
}

#[test]
fn huge_offsets_out_of_gas_rather_than_hitting_the_cap() {
    // Offset 2^40: the expansion charge saturates long before the simulator
    // cap is consulted, so the halt is OutOfGas, exactly like a real EVM.
    let result = run_with_gas(
        &mstore_program(&[0x01, 0x00, 0x00, 0x00, 0x00, 0x00]),
        10_000_000,
    );
    assert!(!result.success);
    assert_eq!(result.halt, HaltReason::OutOfGas);
}

#[test]
fn calldatacopy_expansion_is_charged() {
    // CALLDATACOPY len 32 to offset 65536: same expansion charge as MSTORE.
    // PUSH1 32 (len), PUSH1 0 (src), PUSH3 0x010000 (dst), CALLDATACOPY, STOP
    let code = vec![0x60, 0x20, 0x60, 0x00, 0x62, 0x01, 0x00, 0x00, 0x37, 0x00];
    let ok = run_with_gas(&code, 10_000_000);
    assert!(ok.success);
    assert!(ok.gas_used > memory_cost(2049), "expansion must be billed");
    let broke = run_with_gas(&code, 10_000);
    assert!(!broke.success);
    assert_eq!(broke.halt, HaltReason::OutOfGas);
}

// ---------------------------------------------------------------------------
// 3. CALL forwarding: 63/64 retention + actual consumption accounting
// ---------------------------------------------------------------------------

/// Outer contract at 0x100: CALL 0x200 with a u64::MAX gas request and no
/// value, POP the flag, then SSTORE 42 at slot 1 and STOP.
fn outer_caller() -> Vec<u8> {
    let mut code = vec![
        0x60, 0x00, // ret len
        0x60, 0x00, // ret offset
        0x60, 0x00, // arg len
        0x60, 0x00, // arg offset
        0x60, 0x00, // value
        0x61, 0x02, 0x00, // PUSH2 0x0200 (callee)
        0x7f, // PUSH32 gas request
    ];
    code.extend_from_slice(&[0xff; 32]);
    code.extend_from_slice(&[
        0xf1, // CALL
        0x50, // POP
        0x60, 0x2a, // PUSH1 42
        0x60, 0x01, // PUSH1 1
        0x55, // SSTORE
        0x00, // STOP
    ]);
    code
}

fn run_call_pair(callee_code: Vec<u8>, gas: u64) -> (ExecutionResult, WorldState) {
    let exec = |block_lowering: bool| {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u128(1 << 100)));
        world.put_account(addr(0x100), Account::contract(outer_caller(), U256::ZERO));
        world.put_account(
            addr(0x200),
            Account::contract(callee_code.clone(), U256::ZERO),
        );
        let cache = cache_code(&world, &[addr(0x100), addr(0x200)]);
        let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
        evm.config.block_lowering = block_lowering;
        let mut msg = Message::new(addr(1), addr(0x100), U256::ZERO, vec![]);
        msg.gas = gas;
        (evm.execute(&msg), world)
    };
    let (threaded, world_threaded) = exec(true);
    let (reference, world_reference) = exec(false);
    assert_eq!(threaded, reference, "tier divergence on a call vector");
    assert_eq!(world_threaded, world_reference);
    (threaded, world_threaded)
}

/// Gas remaining in the outer frame at the moment of forwarding: the message
/// budget minus the six pushes (2 gas each), the PUSH32 (2), the CALL base
/// cost (700) and the EIP-2929 cold surcharge for the first touch of the
/// callee account (2200).
fn gas_at_forwarding(msg_gas: u64) -> u64 {
    msg_gas - 7 * 2 - 700 - 2_200
}

#[test]
fn call_forwards_all_but_one_64th() {
    // The callee is an empty STOP contract; the trace records exactly what
    // was forwarded.
    let msg_gas = 1_000_000u64;
    let (result, world) = run_call_pair(vec![0x00], msg_gas);
    assert!(result.success);
    let gl = gas_at_forwarding(msg_gas);
    assert_eq!(result.trace.calls.len(), 1);
    assert_eq!(
        result.trace.calls[0].gas,
        gl - gl / 64,
        "a max gas request must be capped at 63/64 of the remaining gas"
    );
    assert!(result.trace.calls[0].success);
    // The caller finished its postlude: slot 1 was written.
    assert_eq!(world.storage(addr(0x100), U256::ONE), U256::from_u64(42));
}

#[test]
fn draining_callee_leaves_the_caller_a_64th() {
    // The callee burns everything it was forwarded in an SSTORE loop:
    // JUMPDEST, PUSH1 1, PUSH1 0, SSTORE, PUSH1 0, JUMP.
    let drain = vec![0x5b, 0x60, 0x01, 0x60, 0x00, 0x55, 0x60, 0x00, 0x56];
    let msg_gas = 1_000_000u64;
    let (result, world) = run_call_pair(drain, msg_gas);

    // The callee ran out of gas...
    assert_eq!(result.trace.calls.len(), 1);
    assert!(!result.trace.calls[0].success);
    assert!(result.trace.calls[0].callee_exception);

    // ...but the outer frame kept its 1/64 retention and completed: the
    // transaction succeeds and the post-call SSTORE is committed.
    assert!(
        result.success,
        "caller must survive a draining callee: {:?}",
        result.halt
    );
    assert_eq!(world.storage(addr(0x100), U256::ONE), U256::from_u64(42));
    // A failed subcall undoes only its access-set entries, refunds and call
    // value, not its storage writes: the callee's loop left slot 0 set.
    assert_eq!(world.storage(addr(0x200), U256::ZERO), U256::ONE);

    // Exact accounting: the callee consumed all forwarded gas, the caller
    // paid its own instructions on top, and what is left is the retention
    // minus the postlude (POP + 2 pushes + cold SSTORE + STOP = 6907).
    let gl = gas_at_forwarding(msg_gas);
    let retained = gl / 64;
    assert_eq!(msg_gas - result.gas_used, retained - 6_907);
}

#[test]
fn successful_callee_refunds_unspent_gas() {
    // A STOP callee consumes nothing: the only costs are the caller's own
    // instructions, so nearly the whole budget comes back.
    let msg_gas = 1_000_000u64;
    let (result, _world) = run_call_pair(vec![0x00], msg_gas);
    assert!(result.success);
    // Caller instructions: 7 pushes (14) + CALL (700 + 2200 cold account) +
    // callee STOP (1, charged inside the callee frame) + POP (2) + 2 pushes
    // (4) + SSTORE (5000 + 1900 cold slot) + STOP (1).
    assert_eq!(
        result.gas_used,
        14 + 700 + 2_200 + 1 + 2 + 4 + 5_000 + 1_900 + 1
    );
}
