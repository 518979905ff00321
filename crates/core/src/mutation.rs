//! Mutation operators and the mutation mask.
//!
//! MuFuzz mutates the byte stream of each transaction with four operators
//! (paper §IV-B): **O**verwrite, **I**nsert, **R**eplace-with-interesting and
//! **D**elete. The *mutation mask* records, per stream position and operator,
//! whether mutating there is allowed — positions critical for reaching a
//! nested branch are frozen (Algorithm 2). This implementation applies the
//! mask at 32-byte word granularity, which matches the ABI encoding where one
//! word is one argument.

use mufuzz_evm::{ether, finney, instructions, Opcode, U256};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;

/// The four mutation operators of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutationOp {
    /// O: overwrite bytes in place with random data.
    Overwrite,
    /// I: insert new bytes.
    Insert,
    /// R: replace bytes with an interesting value.
    Replace,
    /// D: delete bytes.
    Delete,
}

impl MutationOp {
    /// All four operators.
    pub const ALL: [MutationOp; 4] = [
        MutationOp::Overwrite,
        MutationOp::Insert,
        MutationOp::Replace,
        MutationOp::Delete,
    ];

    fn bit(self) -> u8 {
        match self {
            MutationOp::Overwrite => 1,
            MutationOp::Insert => 2,
            MutationOp::Replace => 4,
            MutationOp::Delete => 8,
        }
    }
}

/// Per-word, per-operator mutation permissions for one transaction stream.
#[derive(Debug, PartialEq, Eq)]
pub struct MutationMask {
    /// One bit set per allowed operator, per 32-byte word of the stream.
    words: Vec<u8>,
}

impl Clone for MutationMask {
    fn clone(&self) -> MutationMask {
        MutationMask {
            words: self.words.clone(),
        }
    }

    /// Reuses this mask's buffer.
    fn clone_from(&mut self, source: &MutationMask) {
        self.words.clone_from(&source.words);
    }
}

impl MutationMask {
    /// A mask allowing every operator at every word (the behaviour when mask
    /// guidance is disabled).
    pub fn allow_all(stream_len: usize) -> MutationMask {
        MutationMask {
            words: vec![0x0f; word_count(stream_len)],
        }
    }

    /// A mask forbidding everything (the starting point of Algorithm 2).
    pub fn deny_all(stream_len: usize) -> MutationMask {
        MutationMask {
            words: vec![0; word_count(stream_len)],
        }
    }

    /// Allow `op` at word `index`.
    pub fn allow(&mut self, index: usize, op: MutationOp) {
        if let Some(w) = self.words.get_mut(index) {
            *w |= op.bit();
        }
    }

    /// Is `op` allowed at word `index`? (`OKTOMUTATE` in Algorithm 1.)
    pub fn ok_to_mutate(&self, index: usize, op: MutationOp) -> bool {
        self.words
            .get(index)
            .map(|w| w & op.bit() != 0)
            .unwrap_or(false)
    }

    /// Number of words the mask covers.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the mask covers no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// All `(word, op)` pairs that are allowed, word-major with the
    /// operators in [`MutationOp::ALL`] order.
    pub fn allowed_sites(&self) -> Vec<(usize, MutationOp)> {
        self.sites().collect()
    }

    /// The allowed sites in [`MutationMask::allowed_sites`] order, without
    /// collecting them.
    fn sites(&self) -> impl Iterator<Item = (usize, MutationOp)> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            MutationOp::ALL
                .into_iter()
                .filter(move |op| bits & op.bit() != 0)
                .map(move |op| (word, op))
        })
    }

    /// Number of allowed `(word, op)` sites.
    pub(crate) fn allowed_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Draw one allowed site uniformly: `allowed_sites()[k]` for one draw of
    /// `k`, without building the list. `None`, and no draw, when the mask
    /// forbids everything.
    pub(crate) fn pick_site(&self, rng: &mut SmallRng) -> Option<(usize, MutationOp)> {
        let count = self.allowed_count();
        if count == 0 {
            return None;
        }
        self.sites().nth(rng.gen_range(0..count))
    }

    /// The raw per-word permission bytes (one bit per operator), for
    /// checkpoint serialization.
    pub fn as_bytes(&self) -> &[u8] {
        &self.words
    }

    /// Rebuild a mask from raw permission bytes previously returned by
    /// [`MutationMask::as_bytes`]. Bits outside the four operator bits are
    /// cleared.
    pub fn from_bytes(words: Vec<u8>) -> MutationMask {
        MutationMask {
            words: words.into_iter().map(|w| w & 0x0f).collect(),
        }
    }

    /// Fraction of (word, op) sites that are frozen.
    pub fn frozen_fraction(&self) -> f64 {
        if self.words.is_empty() {
            return 0.0;
        }
        let total = self.words.len() * 4;
        (total - self.allowed_count()) as f64 / total as f64
    }
}

/// Number of 32-byte words needed to cover a stream.
pub fn word_count(stream_len: usize) -> usize {
    stream_len.div_ceil(32).max(1)
}

/// The pool of interesting values used by the Replace operator: boundary
/// values, common ether denominations and every constant pushed by the
/// contract's own bytecode (the latter is what lets equality guards like
/// `msg.value == 88 finney` be satisfied).
#[derive(Clone, Debug)]
pub struct InterestingValues {
    values: Vec<U256>,
}

impl InterestingValues {
    /// Default boundary values only.
    pub fn defaults() -> InterestingValues {
        InterestingValues {
            values: vec![
                U256::ZERO,
                U256::ONE,
                U256::from_u64(2),
                U256::from_u64(100),
                U256::from_u64(255),
                U256::from_u64(256),
                U256::from_u64(1_000),
                U256::from_u64(u32::MAX as u64),
                U256::from_u64(u64::MAX),
                finney(1),
                finney(88),
                ether(1),
                ether(100),
                U256::MAX,
                U256::MAX.wrapping_sub(U256::ONE),
            ],
        }
    }

    /// Defaults plus every PUSH constant harvested from the runtime bytecode,
    /// each once, in order of first occurrence.
    pub fn harvest(runtime_code: &[u8]) -> InterestingValues {
        let mut pool = Self::defaults();
        let mut seen: HashSet<U256> = pool.values.iter().copied().collect();
        for (_, opcode, immediate) in instructions(runtime_code) {
            if let Opcode::Push(_) = opcode {
                let value = U256::from_be_slice(immediate);
                if seen.insert(value) {
                    pool.values.push(value);
                }
            }
        }
        pool
    }

    /// Add a value to the pool (used for the fuzzing world's well-known
    /// addresses: senders, the attacker, the sink and the contract itself).
    pub fn add(&mut self, value: U256) {
        if !self.values.contains(&value) {
            self.values.push(value);
        }
    }

    /// Pick a random interesting value.
    pub fn pick(&self, rng: &mut SmallRng) -> U256 {
        self.values[rng.gen_range(0..self.values.len())]
    }

    /// Number of values in the pool.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the pool is empty (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Apply one mutation operator to a byte stream at the given word index,
/// returning the mutated stream (a copy mutated by `apply_op_in_place`).
pub fn apply_op(
    stream: &[u8],
    op: MutationOp,
    word_index: usize,
    rng: &mut SmallRng,
    interesting: &InterestingValues,
) -> Vec<u8> {
    let mut out = stream.to_vec();
    apply_op_in_place(&mut out, op, word_index, rng, interesting);
    out
}

/// Apply one mutation operator to a byte stream at the given word index, in
/// place. Draws from `rng` exactly as often as the operator needs.
pub(crate) fn apply_op_in_place(
    out: &mut Vec<u8>,
    op: MutationOp,
    word_index: usize,
    rng: &mut SmallRng,
    interesting: &InterestingValues,
) {
    let start = word_index * 32;
    match op {
        MutationOp::Overwrite => {
            // Either flip a handful of bytes or rewrite the whole word.
            if start >= out.len() {
                return;
            }
            let end = (start + 32).min(out.len());
            if rng.gen_bool(0.5) {
                let count = rng.gen_range(1..=4usize);
                for _ in 0..count {
                    let pos = rng.gen_range(start..end);
                    out[pos] = rng.gen();
                }
            } else {
                for byte in &mut out[start..end] {
                    *byte = rng.gen();
                }
            }
        }
        MutationOp::Insert => {
            let insert_at = start.min(out.len());
            let word = interesting.pick(rng).to_be_bytes();
            out.splice(insert_at..insert_at, word);
        }
        MutationOp::Replace => {
            let word = interesting.pick(rng).to_be_bytes();
            if start >= out.len() {
                // Replacing past the end appends a word instead.
                out.extend_from_slice(&word);
                return;
            }
            let end = (start + 32).min(out.len());
            let len = end - start;
            out[start..end].copy_from_slice(&word[32 - len..]);
        }
        MutationOp::Delete => {
            if out.len() <= 32 {
                // Never delete the value word entirely; clear it instead.
                out.fill(0);
                return;
            }
            if start < out.len() {
                let end = (start + 32).min(out.len());
                out.drain(start..end);
            }
        }
    }
}

/// Apply a random allowed mutation according to the mask, returning the
/// mutated copy. Returns `None` when the mask forbids everything.
pub fn mutate_masked(
    stream: &[u8],
    mask: &MutationMask,
    rng: &mut SmallRng,
    interesting: &InterestingValues,
) -> Option<Vec<u8>> {
    let (word, op) = mask.pick_site(rng)?;
    Some(apply_op(stream, op, word, rng, interesting))
}

/// Apply a random allowed mutation to `stream` in place: the draws and the
/// bytes of [`mutate_masked`]. `None` for `mask` allows every site of the
/// stream, like [`MutationMask::allow_all`]. Returns `false`, with the
/// stream untouched, when the mask forbids everything.
pub(crate) fn mutate_in_place(
    stream: &mut Vec<u8>,
    mask: Option<&MutationMask>,
    rng: &mut SmallRng,
    interesting: &InterestingValues,
) -> bool {
    let site = match mask {
        Some(mask) => mask.pick_site(rng),
        None => {
            let k = rng.gen_range(0..4 * word_count(stream.len()));
            Some((k / 4, MutationOp::ALL[k % 4]))
        }
    };
    let Some((word, op)) = site else {
        return false;
    };
    apply_op_in_place(stream, op, word, rng, interesting);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn word_count_rounds_up() {
        assert_eq!(word_count(0), 1);
        assert_eq!(word_count(31), 1);
        assert_eq!(word_count(32), 1);
        assert_eq!(word_count(33), 2);
        assert_eq!(word_count(96), 3);
    }

    #[test]
    fn mask_allow_and_deny() {
        let mut mask = MutationMask::deny_all(64);
        assert_eq!(mask.len(), 2);
        assert!(!mask.ok_to_mutate(0, MutationOp::Overwrite));
        mask.allow(0, MutationOp::Overwrite);
        assert!(mask.ok_to_mutate(0, MutationOp::Overwrite));
        assert!(!mask.ok_to_mutate(0, MutationOp::Delete));
        assert!(!mask.ok_to_mutate(1, MutationOp::Overwrite));
        let all = MutationMask::allow_all(64);
        assert_eq!(all.allowed_sites().len(), 8);
        assert_eq!(all.frozen_fraction(), 0.0);
        assert_eq!(MutationMask::deny_all(64).frozen_fraction(), 1.0);
    }

    #[test]
    fn interesting_values_include_harvested_constants() {
        // PUSH3 0x04c4b4 (314548) somewhere in the code.
        let code = vec![0x62, 0x04, 0xc4, 0xb4, 0x00];
        let pool = InterestingValues::harvest(&code);
        assert!(pool.len() > InterestingValues::defaults().len());
        let mut r = rng();
        // Sampling repeatedly must eventually return only pool members.
        for _ in 0..50 {
            let _ = pool.pick(&mut r);
        }
    }

    #[test]
    fn overwrite_keeps_length() {
        let stream = vec![0u8; 96];
        let out = apply_op(
            &stream,
            MutationOp::Overwrite,
            1,
            &mut rng(),
            &InterestingValues::defaults(),
        );
        assert_eq!(out.len(), 96);
        assert_ne!(out, stream);
        // Only the second word may differ.
        assert_eq!(&out[..32], &stream[..32]);
        assert_eq!(&out[64..], &stream[64..]);
    }

    #[test]
    fn insert_grows_and_delete_shrinks() {
        let stream = vec![1u8; 96];
        let grown = apply_op(
            &stream,
            MutationOp::Insert,
            1,
            &mut rng(),
            &InterestingValues::defaults(),
        );
        assert_eq!(grown.len(), 128);
        let shrunk = apply_op(
            &stream,
            MutationOp::Delete,
            1,
            &mut rng(),
            &InterestingValues::defaults(),
        );
        assert_eq!(shrunk.len(), 64);
    }

    #[test]
    fn delete_never_removes_the_last_word() {
        let stream = vec![9u8; 32];
        let out = apply_op(
            &stream,
            MutationOp::Delete,
            0,
            &mut rng(),
            &InterestingValues::defaults(),
        );
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn replace_injects_interesting_values() {
        let stream = vec![0u8; 64];
        let mut r = rng();
        let pool = InterestingValues::defaults();
        let out = apply_op(&stream, MutationOp::Replace, 1, &mut r, &pool);
        assert_eq!(out.len(), 64);
        let injected = U256::from_be_slice(&out[32..]);
        // The injected word must come from the pool.
        assert!(pool.values.contains(&injected));
    }

    #[test]
    fn out_of_range_word_indices_are_safe() {
        let stream = vec![0u8; 32];
        let pool = InterestingValues::defaults();
        let mut r = rng();
        let a = apply_op(&stream, MutationOp::Overwrite, 9, &mut r, &pool);
        assert_eq!(a, stream);
        let b = apply_op(&stream, MutationOp::Replace, 9, &mut r, &pool);
        assert_eq!(b.len(), 64);
        let c = apply_op(&stream, MutationOp::Delete, 9, &mut r, &pool);
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn masked_mutation_respects_the_mask() {
        let stream = vec![0u8; 64];
        let pool = InterestingValues::defaults();
        let mut r = rng();
        let mut mask = MutationMask::deny_all(64);
        assert!(mutate_masked(&stream, &mask, &mut r, &pool).is_none());
        // Only allow Replace on word 1: the first word must stay untouched and
        // the length stays the same.
        mask.allow(1, MutationOp::Replace);
        for _ in 0..20 {
            let out = mutate_masked(&stream, &mask, &mut r, &pool).unwrap();
            assert_eq!(out.len(), 64);
            assert_eq!(&out[..32], &stream[..32]);
        }
    }

    /// `apply_op` as it was before the operators mutated in place: the
    /// oracle the in-place operators are checked against.
    fn apply_op_copying(
        stream: &[u8],
        op: MutationOp,
        word_index: usize,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) -> Vec<u8> {
        let mut out = stream.to_vec();
        let start = word_index * 32;
        match op {
            MutationOp::Overwrite => {
                if out.is_empty() {
                    return out;
                }
                let end = (start + 32).min(out.len());
                if start >= out.len() {
                    return out;
                }
                if rng.gen_bool(0.5) {
                    let count = rng.gen_range(1..=4usize);
                    for _ in 0..count {
                        let pos = rng.gen_range(start..end);
                        out[pos] = rng.gen();
                    }
                } else {
                    for byte in out.iter_mut().take(end).skip(start) {
                        *byte = rng.gen();
                    }
                }
            }
            MutationOp::Insert => {
                let insert_at = start.min(out.len());
                let word = interesting.pick(rng).to_be_bytes();
                out.splice(insert_at..insert_at, word.iter().copied());
            }
            MutationOp::Replace => {
                let end = (start + 32).min(out.len());
                if start >= out.len() {
                    out.extend_from_slice(&interesting.pick(rng).to_be_bytes());
                    return out;
                }
                let word = interesting.pick(rng).to_be_bytes();
                let len = end - start;
                out[start..end].copy_from_slice(&word[32 - len..]);
            }
            MutationOp::Delete => {
                if out.len() <= 32 {
                    for b in out.iter_mut() {
                        *b = 0;
                    }
                    return out;
                }
                let end = (start + 32).min(out.len());
                if start < out.len() {
                    out.drain(start..end);
                }
            }
        }
        out
    }

    /// The site pick of the list-building `mutate_masked`: collect every
    /// allowed site, then index it with one draw.
    fn pick_from_list(mask: &MutationMask, rng: &mut SmallRng) -> Option<(usize, MutationOp)> {
        let sites = mask.allowed_sites();
        (!sites.is_empty()).then(|| sites[rng.gen_range(0..sites.len())])
    }

    /// Two copies of one seeded stream.
    fn twin_rngs(seed: u64) -> (SmallRng, SmallRng) {
        (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn in_place_mutation_matches_the_copying_operators() {
        let pool = InterestingValues::defaults();
        let mut gen = SmallRng::seed_from_u64(0x1A5E_0F0F);
        for _ in 0..3_000 {
            // Streams from empty through shorter than the value word to
            // several words; masks from no words (and all-denied words) to
            // more words than the stream has.
            let len = gen.gen_range(0..160usize);
            let stream: Vec<u8> = (0..len).map(|_| gen.gen()).collect();
            let words = gen.gen_range(0..7usize);
            let mask = MutationMask::from_bytes((0..words).map(|_| gen.gen()).collect());

            // The pick: same site, same draw.
            let (mut a, mut b) = twin_rngs(gen.gen());
            assert_eq!(mask.pick_site(&mut a), pick_from_list(&mask, &mut b));
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());

            // A masked mutation: same bytes, RNG left at the same position.
            let (mut a, mut b) = twin_rngs(gen.gen());
            let mut in_place = stream.clone();
            let mutated = mutate_in_place(&mut in_place, Some(&mask), &mut a, &pool);
            let copied = pick_from_list(&mask, &mut b)
                .map(|(word, op)| apply_op_copying(&stream, op, word, &mut b, &pool));
            assert_eq!(mutated, copied.is_some());
            assert_eq!(in_place, copied.unwrap_or_else(|| stream.clone()));
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());

            // No mask allows every site, exactly like `allow_all`.
            let (mut a, mut b) = twin_rngs(gen.gen());
            let mut in_place = stream.clone();
            assert!(mutate_in_place(&mut in_place, None, &mut a, &pool));
            let all = MutationMask::allow_all(stream.len());
            let (word, op) = pick_from_list(&all, &mut b).unwrap();
            assert_eq!(in_place, apply_op_copying(&stream, op, word, &mut b, &pool));
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());

            // Every operator at every word, through one past the end (an
            // Insert or a Delete at the end of the stream).
            for op in MutationOp::ALL {
                for word in 0..=word_count(len) + 1 {
                    let (mut a, mut b) = twin_rngs(gen.gen());
                    let mut in_place = stream.clone();
                    apply_op_in_place(&mut in_place, op, word, &mut a, &pool);
                    assert_eq!(
                        in_place,
                        apply_op_copying(&stream, op, word, &mut b, &pool),
                        "{op:?} at word {word} of a {len}-byte stream"
                    );
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>());
                }
            }
        }
        // An empty mask forbids everything and draws nothing.
        let (mut a, mut b) = twin_rngs(9);
        let mut stream = vec![7u8; 40];
        assert!(!mutate_in_place(
            &mut stream,
            Some(&MutationMask::from_bytes(vec![])),
            &mut a,
            &pool
        ));
        assert_eq!(stream, vec![7u8; 40]);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn mutation_is_deterministic_for_a_seed() {
        let stream: Vec<u8> = (0..96).map(|i| i as u8).collect();
        let pool = InterestingValues::defaults();
        let a = apply_op(
            &stream,
            MutationOp::Overwrite,
            0,
            &mut SmallRng::seed_from_u64(99),
            &pool,
        );
        let b = apply_op(
            &stream,
            MutationOp::Overwrite,
            0,
            &mut SmallRng::seed_from_u64(99),
            &pool,
        );
        assert_eq!(a, b);
    }
}
