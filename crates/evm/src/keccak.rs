//! Keccak-256 implemented from scratch.
//!
//! The EVM uses Keccak-256 (the original Keccak padding, not NIST SHA3-256)
//! for the `SHA3` opcode, function selectors and mapping storage slots.
//! Mapping-heavy contracts hash on almost every storage access, so the
//! implementation allocates nothing: the permutation runs on a flat
//! `[u64; 25]` state, full 136-byte blocks are absorbed straight from the
//! input and only the padded final block is staged, in a stack buffer.
//!
//! The round constants and the rho/pi lane walk are `const` tables. The
//! tests re-derive them from the Keccak specification (the round-constant
//! LFSR and the `(x, y) → (y, 2x + 3y)` lane walk) and pin every digest
//! against the original 5×5-state, byte-copying implementation.
//!
//! The interpreter's `SHA3` hashes through a `KeccakMemo` that each
//! execution frame owns, so a lane hashes each mapping slot it keeps
//! revisiting once.

use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// Output size in bytes of Keccak-256.
pub const KECCAK256_OUTPUT: usize = 32;

/// Rate in bytes for Keccak-256 (1088 bits).
const RATE: usize = 136;

/// Iota round constants, one per Keccak-f[1600] round.
const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rho rotation of each lane along the pi walk: step `t` rotates the lane
/// it carries by `(t + 1)(t + 2) / 2 mod 64`.
const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

/// Pi destinations along the lane walk starting at lane `(1, 0)`: step `t`
/// writes the lane it carries to flat index `PI[t]` (lane `(x, y)` lives at
/// `x + 5y`).
const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// The Keccak-f[1600] permutation on a flat state (lane `(x, y)` at
/// `x + 5y`).
fn keccak_f(a: &mut [u64; 25]) {
    for &rc in &ROUND_CONSTANTS {
        // Theta
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                a[x + 5 * y] ^= d;
            }
        }
        // Rho and Pi: one in-place walk over the 24 moving lanes.
        let mut carried = a[1];
        for (&dest, &rot) in PI.iter().zip(&RHO) {
            let next = a[dest];
            a[dest] = carried.rotate_left(rot);
            carried = next;
        }
        // Chi
        for y in 0..5 {
            let row = [
                a[5 * y],
                a[5 * y + 1],
                a[5 * y + 2],
                a[5 * y + 3],
                a[5 * y + 4],
            ];
            for x in 0..5 {
                a[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // Iota
        a[0] ^= rc;
    }
}

/// XOR one rate-sized block into the state (input lane `i` is lane `i` of
/// the flat state) and permute.
#[inline]
fn absorb_block(state: &mut [u64; 25], block: &[u8]) {
    for (lane, bytes) in state.iter_mut().zip(block.chunks_exact(8)) {
        *lane ^= u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    }
    keccak_f(state);
}

/// Compute the Keccak-256 digest of `data`.
pub fn keccak256(data: &[u8]) -> [u8; KECCAK256_OUTPUT] {
    let mut state = [0u64; 25];
    let mut blocks = data.chunks_exact(RATE);
    for block in &mut blocks {
        absorb_block(&mut state, block);
    }

    // Keccak padding (0x01 .. 0x80) of the tail; a 135-byte tail gets the
    // single byte 0x81, an empty one a whole padding block.
    let tail = blocks.remainder();
    let mut last = [0u8; RATE];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] ^= 0x01;
    last[RATE - 1] ^= 0x80;
    absorb_block(&mut state, &last);

    // Squeeze: 32 bytes fit in the first four lanes of one rate block.
    let mut out = [0u8; KECCAK256_OUTPUT];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(&state) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out
}

/// Compute the 4-byte function selector of a canonical signature string,
/// e.g. `invest(uint256)`.
pub fn selector(signature: &str) -> [u8; 4] {
    let digest = keccak256(signature.as_bytes());
    [digest[0], digest[1], digest[2], digest[3]]
}

/// Entries in a [`KeccakMemo`]; a power of two.
const MEMO_SLOTS: usize = 256;

/// One memo entry: a 64-byte preimage and its digest.
#[derive(Clone, Copy)]
struct MemoSlot {
    preimage: [u8; 64],
    digest: [u8; KECCAK256_OUTPUT],
}

/// An exact memo of 64-byte Keccak-256 preimages: a direct-mapped table of
/// [`MEMO_SLOTS`] entries, indexed by an Fx hash of the preimage.
///
/// A mapping slot is `keccak(key ‖ slot)`, 64 bytes, and a campaign hashes
/// the same few keys over and over. A lookup compares the whole preimage,
/// so a hit returns the digest `keccak256` would compute; a miss hashes and
/// overwrites its entry. Every entry always holds a true pair (the table
/// starts out filled with the all-zero preimage and its digest), so no
/// input can read a stale or foreign digest. Inputs of any other length
/// bypass the table. The table is allocated on the first 64-byte hash
/// (about 25 KB) and never grows.
#[derive(Default)]
pub(crate) struct KeccakMemo {
    slots: Vec<MemoSlot>,
}

impl KeccakMemo {
    /// The Keccak-256 digest of `data`, equal to [`keccak256`]`(data)`.
    pub(crate) fn hash(&mut self, data: &[u8]) -> [u8; KECCAK256_OUTPUT] {
        let Ok(preimage) = <&[u8; 64]>::try_from(data) else {
            return keccak256(data);
        };
        if self.slots.is_empty() {
            let zero = [0u8; 64];
            let filler = MemoSlot {
                preimage: zero,
                digest: keccak256(&zero),
            };
            self.slots = vec![filler; MEMO_SLOTS];
        }
        let slot = &mut self.slots[memo_index(preimage)];
        if slot.preimage != *preimage {
            slot.preimage = *preimage;
            slot.digest = keccak256(preimage);
        }
        slot.digest
    }
}

/// The memo entry of a 64-byte preimage.
fn memo_index(preimage: &[u8; 64]) -> usize {
    let mut hasher = FxHasher::default();
    hasher.write(preimage);
    hasher.finish() as usize % MEMO_SLOTS
}

impl std::fmt::Debug for KeccakMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeccakMemo")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The Keccak specification's definitions, kept as the reference the
    /// `const` tables and the flat-state permutation are checked against.
    mod spec {
        use super::super::RATE;

        /// The 24 round constants from the LFSR `x^8 + x^6 + x^5 + x^4 + 1`.
        pub fn round_constants() -> [u64; 24] {
            let mut rc = [0u64; 24];
            let mut lfsr: u8 = 0x01;
            for constant in rc.iter_mut() {
                let mut c: u64 = 0;
                for j in 0..7 {
                    // Bit position 2^j - 1.
                    let bit_pos = (1u32 << j) - 1;
                    if lfsr & 1 == 1 {
                        c |= 1u64 << bit_pos;
                    }
                    let high = lfsr & 0x80 != 0;
                    lfsr <<= 1;
                    if high {
                        lfsr ^= 0x71;
                    }
                }
                *constant = c;
            }
            rc
        }

        /// The rho rotation offset of every lane, indexed `[x][y]`.
        pub fn rotation_offsets() -> [[u32; 5]; 5] {
            let mut offsets = [[0u32; 5]; 5];
            let (mut x, mut y) = (1usize, 0usize);
            for t in 0..24u32 {
                offsets[x][y] = ((t + 1) * (t + 2) / 2) % 64;
                let new_x = y;
                let new_y = (2 * x + 3 * y) % 5;
                x = new_x;
                y = new_y;
            }
            offsets
        }

        /// The lane walk `(x, y) → (y, 2x + 3y)` from `(1, 0)`: the rho
        /// offset applied at each step and the flat index it lands on.
        pub fn rho_pi_walk() -> ([u32; 24], [usize; 24]) {
            let offsets = rotation_offsets();
            let (mut rho, mut pi) = ([0u32; 24], [0usize; 24]);
            let (mut x, mut y) = (1usize, 0usize);
            for (r, p) in rho.iter_mut().zip(pi.iter_mut()) {
                *r = offsets[x][y];
                let (nx, ny) = (y, (2 * x + 3 * y) % 5);
                *p = nx + 5 * ny;
                x = nx;
                y = ny;
            }
            (rho, pi)
        }

        fn keccak_f(state: &mut [[u64; 5]; 5]) {
            let rc = round_constants();
            let rot = rotation_offsets();
            for round in rc.iter() {
                let mut c = [0u64; 5];
                for (x, cx) in c.iter_mut().enumerate() {
                    *cx = state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4];
                }
                let mut d = [0u64; 5];
                for x in 0..5 {
                    d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
                }
                for (plane, dx) in state.iter_mut().zip(&d) {
                    for lane in plane.iter_mut() {
                        *lane ^= dx;
                    }
                }
                let mut b = [[0u64; 5]; 5];
                for x in 0..5 {
                    for y in 0..5 {
                        b[y][(2 * x + 3 * y) % 5] = state[x][y].rotate_left(rot[x][y]);
                    }
                }
                for x in 0..5 {
                    for y in 0..5 {
                        state[x][y] = b[x][y] ^ ((!b[(x + 1) % 5][y]) & b[(x + 2) % 5][y]);
                    }
                }
                state[0][0] ^= round;
            }
        }

        /// The original implementation: a `[x][y]` state and a heap copy of
        /// the padded message.
        pub fn keccak256(data: &[u8]) -> [u8; 32] {
            let mut state = [[0u64; 5]; 5];
            let mut padded = data.to_vec();
            padded.push(0x01);
            while !padded.len().is_multiple_of(RATE) {
                padded.push(0x00);
            }
            let last = padded.len() - 1;
            padded[last] |= 0x80;
            for block in padded.chunks(RATE) {
                for (i, lane_bytes) in block.chunks(8).enumerate() {
                    let mut lane = [0u8; 8];
                    lane.copy_from_slice(lane_bytes);
                    state[i % 5][i / 5] ^= u64::from_le_bytes(lane);
                }
                keccak_f(&mut state);
            }
            let mut out = [0u8; 32];
            for (i, chunk) in out.chunks_mut(8).enumerate() {
                let lane = state[i % 5][i / 5].to_le_bytes();
                chunk.copy_from_slice(&lane[..chunk.len()]);
            }
            out
        }
    }

    #[test]
    fn const_tables_match_the_spec_derivation() {
        assert_eq!(ROUND_CONSTANTS, spec::round_constants());
        let (rho, pi) = spec::rho_pi_walk();
        assert_eq!(RHO, rho);
        assert_eq!(PI, pi);
    }

    #[test]
    fn digests_match_the_reference_across_rate_boundaries() {
        // Seeded splitmix64 bytes; lengths 0..=409 cross the 136-, 272- and
        // 408-byte rate boundaries.
        let mut seed = 0x6d75_6675_7a7a_u64;
        let mut next_byte = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        };
        for len in 0..=409usize {
            let data: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            assert_eq!(keccak256(&data), spec::keccak256(&data), "length {len}");
        }
    }

    #[test]
    fn empty_input_known_vector() {
        // Well-known Keccak-256 of the empty string.
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_known_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn transfer_selector_known_vector() {
        // The ERC-20 transfer(address,uint256) selector is a widely published constant.
        assert_eq!(hex(&selector("transfer(address,uint256)")), "a9059cbb");
    }

    #[test]
    fn deterministic_and_collision_resistant_smoke() {
        assert_eq!(keccak256(b"mufuzz"), keccak256(b"mufuzz"));
        assert_ne!(keccak256(b"mufuzz"), keccak256(b"mufuzy"));
    }

    #[test]
    fn long_input_spans_multiple_blocks() {
        let data = vec![0xabu8; 1000];
        let d1 = keccak256(&data);
        let mut data2 = data.clone();
        data2[999] = 0xac;
        assert_ne!(d1, keccak256(&data2));
        assert_eq!(d1, spec::keccak256(&data));
    }

    /// Seeded splitmix64 words for the memo tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A 64-byte preimage: every other one a mapping slot (a 20-byte key
    /// and a small slot number, zero-padded words), the rest random bytes.
    fn preimage(state: &mut u64) -> [u8; 64] {
        let mut out = [0u8; 64];
        if splitmix(state).is_multiple_of(2) {
            for byte in &mut out[12..32] {
                *byte = splitmix(state) as u8;
            }
            out[63] = (splitmix(state) % 8) as u8;
        } else {
            for byte in &mut out {
                *byte = splitmix(state) as u8;
            }
        }
        out
    }

    #[test]
    fn memo_digests_equal_keccak_on_repeating_preimages() {
        let mut state = 0x6d65_6d6f_u64;
        let pool: Vec<[u8; 64]> = (0..300).map(|_| preimage(&mut state)).collect();
        let mut memo = KeccakMemo::default();
        for call in 0..20_000 {
            let input = &pool[splitmix(&mut state) as usize % pool.len()];
            assert_eq!(memo.hash(input), keccak256(input), "call {call}");
        }
        assert_eq!(memo.slots.len(), MEMO_SLOTS, "the table never grows");
    }

    #[test]
    fn memo_preimages_sharing_a_slot_stay_exact() {
        // Bucket preimages by entry until several entries hold two or more,
        // the all-zero filler's entry among them, then alternate each
        // bucket's members so every lookup evicts the previous one.
        let zero = [0u8; 64];
        let mut buckets: Vec<Vec<[u8; 64]>> = vec![Vec::new(); MEMO_SLOTS];
        buckets[memo_index(&zero)].push(zero);
        let mut state = 0x636f_6c6c_u64;
        while buckets.iter().filter(|b| b.len() >= 2).count() < 16
            || buckets[memo_index(&zero)].len() < 3
        {
            let p = preimage(&mut state);
            buckets[memo_index(&p)].push(p);
        }
        // Neighbours: for every byte position, two preimages that differ
        // only there and share an entry, so a lookup that compared less
        // than the whole preimage would return the other's digest.
        for at in 0..64 {
            let neighbours = loop {
                let base = preimage(&mut state);
                let twin = (1..=255u8).map(|flip| {
                    let mut twin = base;
                    twin[at] ^= flip;
                    twin
                });
                if let Some(twin) = twin
                    .into_iter()
                    .find(|t| memo_index(t) == memo_index(&base))
                {
                    break vec![base, twin];
                }
            };
            buckets.push(neighbours);
        }
        let mut memo = KeccakMemo::default();
        for bucket in buckets.iter().filter(|b| b.len() >= 2) {
            for round in 0..4 {
                for p in bucket {
                    assert_eq!(memo.hash(p), keccak256(p), "round {round}");
                }
                for p in bucket.iter().rev() {
                    assert_eq!(memo.hash(p), keccak256(p), "round {round}");
                }
            }
        }
    }

    #[test]
    fn memo_hashes_every_length_exactly() {
        let mut state = 0x6c65_6e73_u64;
        let mut memo = KeccakMemo::default();
        for len in 0..=160usize {
            let data: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
            for _ in 0..2 {
                assert_eq!(memo.hash(&data), keccak256(&data), "length {len}");
            }
        }
    }

    #[test]
    fn rate_boundary_inputs() {
        // Inputs right at and around the 136-byte rate boundary exercise the
        // padding logic.
        for len in [135usize, 136, 137, 271, 272, 273] {
            let data = vec![0x5au8; len];
            let digest = keccak256(&data);
            assert_eq!(digest.len(), 32);
            // Changing a single byte must change the digest.
            let mut other = data.clone();
            other[len / 2] ^= 0xff;
            assert_ne!(digest, keccak256(&other));
        }
    }
}
