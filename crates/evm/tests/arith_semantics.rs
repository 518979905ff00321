//! EVM-semantics regression suite for the signed and wide arithmetic
//! opcodes: `SDIV`, `SMOD`, `SIGNEXTEND`, `ADDMOD`, `MULMOD` and `SAR`.
//!
//! Two layers of checks:
//!
//! 1. Bytecode-level tests that execute each opcode through the interpreter
//!    and compare the returned word against hand-checked EVM vectors
//!    (min-int wrap, negative operands, overflowing intermediates).
//! 2. Property tests comparing the `U256` implementations against
//!    independent reference models: an `i128`-range two's-complement model
//!    for the signed opcodes, and a limb-wise `% u64` reduction for the
//!    wide modular opcodes.

use mufuzz_evm::{
    Account, Address, BlockEnv, DecodedProgram, Evm, Message, ProgramCache, WorldState, U256,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Bytecode-level execution
// ---------------------------------------------------------------------------

const SDIV: u8 = 0x05;
const SMOD: u8 = 0x07;
const ADDMOD: u8 = 0x08;
const MULMOD: u8 = 0x09;
const SIGNEXTEND: u8 = 0x0b;
const SAR: u8 = 0x1d;

/// Execute `op` on operands pushed so the first listed operand ends on top
/// of the stack, and return the single result word. Runs on both
/// interpreter tiers (direct-threaded block tier and pre-decoded reference)
/// and asserts they agree before returning the value.
fn eval_op(op: u8, operands: &[U256]) -> U256 {
    let threaded = eval_op_with(op, operands, true);
    let reference = eval_op_with(op, operands, false);
    assert_eq!(
        threaded, reference,
        "tier divergence on opcode 0x{op:02x} over {operands:?}"
    );
    threaded
}

fn eval_op_with(op: u8, operands: &[U256], block_lowering: bool) -> U256 {
    let mut code = Vec::new();
    // Push in reverse so operands[0] is popped first.
    for word in operands.iter().rev() {
        code.push(0x7f); // PUSH32
        code.extend_from_slice(&word.to_be_bytes());
    }
    code.push(op);
    code.extend_from_slice(&[
        0x60, 0x00, // PUSH1 0
        0x52, // MSTORE
        0x60, 0x20, // PUSH1 32
        0x60, 0x00, // PUSH1 0
        0xf3, // RETURN
    ]);

    let sender = Address::from_low_u64(1);
    let contract = Address::from_low_u64(0x100);
    let mut world = WorldState::new();
    world.put_account(sender, Account::eoa(U256::from_u64(1)));
    world.put_account(contract, Account::contract(code, U256::ZERO));
    // Cache the blob: an uncached one always runs one instruction at a time.
    let blob = world.code(contract);
    let mut cache = ProgramCache::new();
    cache.insert(Arc::clone(&blob), Arc::new(DecodedProgram::decode(&blob)));
    let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
    evm.config.block_lowering = block_lowering;
    let result = evm.execute(&Message::new(sender, contract, U256::ZERO, vec![]));
    assert!(
        result.success,
        "opcode 0x{op:02x} faulted: {:?}",
        result.halt
    );
    U256::from_be_slice(&result.output)
}

/// Two's-complement encoding of an `i128` as a 256-bit word.
fn word(v: i128) -> U256 {
    if v < 0 {
        U256::from_u128(v.unsigned_abs()).wrapping_neg()
    } else {
        U256::from_u128(v as u128)
    }
}

/// The most negative signed 256-bit value, -2^255.
fn min_signed() -> U256 {
    U256::ONE.shl_bits(255)
}

#[test]
fn sdiv_executes_signed_division() {
    assert_eq!(eval_op(SDIV, &[word(-8), word(2)]), word(-4));
    assert_eq!(eval_op(SDIV, &[word(8), word(-2)]), word(-4));
    assert_eq!(eval_op(SDIV, &[word(-8), word(-2)]), word(4));
    assert_eq!(eval_op(SDIV, &[word(-7), word(2)]), word(-3)); // truncates toward zero
    assert_eq!(eval_op(SDIV, &[word(-5), word(0)]), U256::ZERO);
    // The EVM-mandated overflow wrap: MIN / -1 == MIN.
    assert_eq!(eval_op(SDIV, &[min_signed(), word(-1)]), min_signed());
}

#[test]
fn smod_takes_the_sign_of_the_dividend() {
    assert_eq!(eval_op(SMOD, &[word(-8), word(3)]), word(-2));
    assert_eq!(eval_op(SMOD, &[word(8), word(-3)]), word(2));
    assert_eq!(eval_op(SMOD, &[word(-8), word(-3)]), word(-2));
    assert_eq!(eval_op(SMOD, &[word(-5), word(0)]), U256::ZERO);
    assert_eq!(eval_op(SMOD, &[min_signed(), word(-1)]), U256::ZERO);
}

#[test]
fn signextend_extends_the_chosen_byte() {
    assert_eq!(eval_op(SIGNEXTEND, &[word(0), word(0xff)]), word(-1));
    assert_eq!(eval_op(SIGNEXTEND, &[word(0), word(0x7f)]), word(0x7f));
    assert_eq!(eval_op(SIGNEXTEND, &[word(1), word(0xff7f)]), word(-0x81));
    assert_eq!(eval_op(SIGNEXTEND, &[word(0), word(0x1234)]), word(0x34));
    // Indices >= 31 (including absurdly large ones) leave x unchanged.
    assert_eq!(eval_op(SIGNEXTEND, &[word(31), word(0xff)]), word(0xff));
    assert_eq!(eval_op(SIGNEXTEND, &[U256::MAX, word(0xff)]), word(0xff));
}

#[test]
fn addmod_uses_a_257_bit_intermediate() {
    assert_eq!(
        eval_op(ADDMOD, &[word(10), word(10), word(8)]),
        U256::from_u64(4)
    );
    // MAX + 1 == 2^256 ≡ 1 (mod 2^256 - 1): wrapping addition would give 0.
    assert_eq!(eval_op(ADDMOD, &[U256::MAX, word(1), U256::MAX]), U256::ONE);
    // MAX + MAX ≡ 0 (mod 5) while the wrapped sum (2^256 - 2) ≡ 4.
    assert_eq!(
        eval_op(ADDMOD, &[U256::MAX, U256::MAX, word(5)]),
        U256::ZERO
    );
    assert_eq!(eval_op(ADDMOD, &[word(3), word(4), word(0)]), U256::ZERO);
}

#[test]
fn mulmod_uses_a_512_bit_intermediate() {
    assert_eq!(
        eval_op(MULMOD, &[word(7), word(6), word(5)]),
        U256::from_u64(2)
    );
    // 2^255 * 2 == 2^256 ≡ 1 (mod 2^256 - 1): wrapping product is 0.
    assert_eq!(
        eval_op(MULMOD, &[min_signed(), word(2), U256::MAX]),
        U256::ONE
    );
    // MAX ≡ 1 (mod MAX - 1), so MAX * MAX ≡ 1.
    assert_eq!(
        eval_op(MULMOD, &[U256::MAX, U256::MAX, U256::MAX - U256::ONE]),
        U256::ONE
    );
    assert_eq!(eval_op(MULMOD, &[word(3), word(4), word(0)]), U256::ZERO);
}

#[test]
fn sar_shifts_arithmetically() {
    // Stack order: eval_op(SAR, &[shift, value]).
    // Non-negative values degrade to a logical shift.
    assert_eq!(eval_op(SAR, &[word(1), word(8)]), word(4));
    assert_eq!(eval_op(SAR, &[word(4), word(0x7f)]), word(0x07));
    assert_eq!(eval_op(SAR, &[word(300), word(7)]), U256::ZERO);
    // Negative values keep their sign: -8 >> 1 == -4, -8 >> 3 == -1 and the
    // result saturates at -1 (rounding toward negative infinity).
    assert_eq!(eval_op(SAR, &[word(1), word(-8)]), word(-4));
    assert_eq!(eval_op(SAR, &[word(3), word(-8)]), word(-1));
    assert_eq!(eval_op(SAR, &[word(4), word(-8)]), word(-1));
    // Shift 0 is the identity; shifts >= 256 (including ones that do not
    // even fit in 64 bits) yield 0 or -1 depending on the sign.
    assert_eq!(eval_op(SAR, &[word(0), word(-8)]), word(-8));
    assert_eq!(eval_op(SAR, &[word(256), word(-8)]), word(-1));
    assert_eq!(eval_op(SAR, &[word(256), word(8)]), U256::ZERO);
    assert_eq!(eval_op(SAR, &[U256::MAX, word(-8)]), word(-1));
    assert_eq!(eval_op(SAR, &[U256::MAX, word(8)]), U256::ZERO);
    // MIN >> 255 == -1; MIN >> 1 == -2^254.
    assert_eq!(eval_op(SAR, &[word(255), min_signed()]), word(-1));
    assert_eq!(
        eval_op(SAR, &[word(1), min_signed()]),
        U256::ONE.shl_bits(254).wrapping_neg()
    );
}

// ---------------------------------------------------------------------------
// Property tests against reference models
// ---------------------------------------------------------------------------

fn arb_u256() -> impl Strategy<Value = U256> {
    proptest::array::uniform32(any::<u8>()).prop_map(U256::from_be_bytes)
}

/// `value % n` computed limb-by-limb, independent of `div_rem`.
fn mod_u64(value: U256, n: u64) -> u64 {
    let mut r: u128 = 0;
    for limb in value.0.iter().rev() {
        r = ((r << 64) | *limb as u128) % n as u128;
    }
    r as u64
}

proptest! {
    #[test]
    fn sdiv_smod_match_i128_reference(a in any::<i128>(), b in any::<i128>()) {
        let (q, r) = word(a).signed_div_rem(word(b));
        if b == 0 {
            prop_assert_eq!(q, U256::ZERO);
            prop_assert_eq!(r, U256::ZERO);
        } else if a == i128::MIN && b == -1 {
            // The true quotient 2^127 exceeds i128 but fits easily in the
            // 256-bit word (no 256-bit wrap is involved at this magnitude).
            prop_assert_eq!(q, U256::from_u128(1u128 << 127));
            prop_assert_eq!(r, U256::ZERO);
        } else {
            prop_assert_eq!(q, word(a / b));
            prop_assert_eq!(r, word(a % b));
        }
    }

    #[test]
    fn signextend_matches_i128_reference(x in any::<i128>(), index in 0usize..16) {
        // Arithmetic shifts sign-extend the low 8*(index+1) bits within i128.
        let bits = 8 * (index as u32 + 1);
        let expected = (x << (128 - bits)) >> (128 - bits);
        prop_assert_eq!(word(x).sign_extend(index), word(expected));
    }

    #[test]
    fn sar_matches_i128_reference(x in any::<i128>(), shift in 0u32..512) {
        // Arithmetic right shift of an i128 saturates to 0 / -1 beyond 127
        // bits, exactly like the 256-bit shift does for a value that fits in
        // i128 (the sign extension above bit 127 is uniform).
        let expected = x >> shift.min(127);
        prop_assert_eq!(word(x).sar_bits(shift), word(expected));
    }

    #[test]
    fn sar_of_nonnegative_equals_logical_shift(x in any::<u128>(), shift in 0u32..300) {
        let v = U256::from_u128(x);
        prop_assert_eq!(v.sar_bits(shift), v.shr_bits(shift.min(256)));
    }

    #[test]
    fn signed_div_rem_reconstructs_the_dividend(a in arb_u256(), b in arb_u256()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.signed_div_rem(b);
        // a == q * b + r in wrapping 256-bit arithmetic, for every sign mix.
        prop_assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
    }

    #[test]
    fn addmod_matches_limbwise_reference(a in arb_u256(), b in arb_u256(), n in 1u64..u64::MAX) {
        let expected = (mod_u64(a, n) as u128 + mod_u64(b, n) as u128) % n as u128;
        prop_assert_eq!(a.add_mod(b, U256::from_u64(n)), U256::from_u128(expected));
    }

    #[test]
    fn mulmod_matches_limbwise_reference(a in arb_u256(), b in arb_u256(), n in 1u64..u64::MAX) {
        let expected = (mod_u64(a, n) as u128 * mod_u64(b, n) as u128) % n as u128;
        prop_assert_eq!(a.mul_mod(b, U256::from_u64(n)), U256::from_u128(expected));
    }

    #[test]
    fn mulmod_agrees_with_div_rem_when_the_product_fits(a in any::<u128>(), b in any::<u128>(), n in arb_u256()) {
        prop_assume!(!n.is_zero());
        // u128 * u128 < 2^256, so the wrapping product is exact here.
        let (a, b) = (U256::from_u128(a), U256::from_u128(b));
        prop_assert_eq!(a.mul_mod(b, n), a.wrapping_mul(b).div_rem(n).1);
    }
}
