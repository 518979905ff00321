//! Seeded random byte strings for the set-up analyses' tests.
//!
//! Shared by `tests/setup_pins.rs`, which pins the CFG and value-pool
//! digests of 200 of them, and by the edge-index table test of
//! `mufuzz-analysis`, which checks every pc of the same 200 strings.

use rand::rngs::SmallRng;
use rand::Rng;

/// A byte string biased toward the instructions the CFG cares about:
/// pushes of in-range and out-of-range jump targets, `JUMP`, `JUMPI`,
/// `JUMPDEST`, terminators and vulnerable instructions. Cutting it to its
/// drawn length leaves a truncated push at the end about as often as not.
pub fn random_code(rng: &mut SmallRng) -> Vec<u8> {
    const TERMINATORS: [u8; 5] = [0x00, 0xf3, 0xfd, 0xfe, 0xff];
    const VULNERABLE: [u8; 8] = [0xf1, 0xf2, 0xf4, 0xff, 0x42, 0x43, 0x31, 0x32];
    let len = rng.gen_range(0..=192usize);
    let mut code = Vec::with_capacity(len + 33);
    while code.len() < len {
        match rng.gen_range(0..12u32) {
            // A likely jump target: PUSH1 or PUSH2 of a pc inside the code.
            0..=2 => {
                let target = rng.gen_range(0..=len);
                if target < 256 && rng.gen_bool(0.7) {
                    code.extend_from_slice(&[0x60, target as u8]);
                } else {
                    code.extend_from_slice(&[0x61, (target >> 8) as u8, target as u8]);
                }
            }
            // Any push width with random bytes (targets past the end, or
            // too wide for a pc).
            3 => {
                let width = rng.gen_range(1..=32u8);
                code.push(0x5f + width);
                for _ in 0..width {
                    code.push(rng.gen());
                }
            }
            4 => code.push(0x56),
            5 => code.push(0x57),
            6 => code.push(0x5b),
            7 => code.push(TERMINATORS[rng.gen_range(0..TERMINATORS.len())]),
            8 => code.push(VULNERABLE[rng.gen_range(0..VULNERABLE.len())]),
            _ => code.push(rng.gen()),
        }
    }
    code.truncate(len);
    code
}
