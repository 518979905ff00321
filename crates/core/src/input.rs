//! Transaction inputs, sequences and seeds.
//!
//! A test case for a stateful contract is a *sequence* of transactions, each
//! with a callee function, a sender, an ether value and ABI-encoded argument
//! bytes. MuFuzz internally represents the mutable part of every transaction
//! as a byte stream (`value ‖ args`), which is what the mask-guided mutation
//! operates on (paper §IV-B).

use crate::mutation::MutationMask;
use mufuzz_evm::U256;
use mufuzz_lang::FunctionAbi;

/// Number of leading bytes of the mutable stream that encode the ether value.
pub const VALUE_BYTES: usize = 32;

/// One transaction in a sequence.
///
/// `Clone::clone_from` is field-wise and reuses the target's buffers (so do
/// [`Sequence`]'s and [`Seed`]'s): the campaign refills one candidate per
/// lane from each seed instead of allocating a copy per mutant.
#[derive(Debug, PartialEq, Eq)]
pub struct TxInput {
    /// Name of the called function (resolved against the contract ABI).
    pub function: String,
    /// Index into the fuzzer's sender pool.
    pub sender_index: usize,
    /// Mutable byte stream: the first 32 bytes are the ether value, the rest
    /// are the ABI-encoded arguments (without the selector).
    pub stream: Vec<u8>,
}

impl Clone for TxInput {
    fn clone(&self) -> TxInput {
        TxInput {
            function: self.function.clone(),
            sender_index: self.sender_index,
            stream: self.stream.clone(),
        }
    }

    fn clone_from(&mut self, source: &TxInput) {
        let TxInput {
            function,
            sender_index,
            stream,
        } = self;
        function.clone_from(&source.function);
        *sender_index = source.sender_index;
        stream.clone_from(&source.stream);
    }
}

impl TxInput {
    /// Build a transaction with the given value and argument words.
    pub fn new(function: &str, sender_index: usize, value: U256, arg_words: &[U256]) -> TxInput {
        let mut stream = value.to_be_bytes().to_vec();
        for w in arg_words {
            stream.extend_from_slice(&w.to_be_bytes());
        }
        TxInput {
            function: function.to_string(),
            sender_index,
            stream,
        }
    }

    /// Build a zero-argument, zero-value transaction.
    pub fn simple(function: &str) -> TxInput {
        TxInput::new(function, 0, U256::ZERO, &[])
    }

    /// The ether value encoded in the stream.
    pub fn value(&self) -> U256 {
        if self.stream.len() >= VALUE_BYTES {
            U256::from_be_slice(&self.stream[..VALUE_BYTES])
        } else {
            U256::from_be_slice(&self.stream)
        }
    }

    /// Overwrite the encoded ether value.
    pub fn set_value(&mut self, value: U256) {
        if self.stream.len() < VALUE_BYTES {
            self.stream.resize(VALUE_BYTES, 0);
        }
        self.stream[..VALUE_BYTES].copy_from_slice(&value.to_be_bytes());
    }

    /// The argument bytes (after the value prefix).
    pub fn arg_bytes(&self) -> &[u8] {
        if self.stream.len() > VALUE_BYTES {
            &self.stream[VALUE_BYTES..]
        } else {
            &[]
        }
    }

    /// Build the full calldata for this transaction given its ABI entry.
    ///
    /// ABIs whose parameters are all static one-word types (every
    /// toy-language contract) use the raw word layout — selector followed by
    /// argument words, padded/truncated to the declared parameter count — so
    /// mutated bytes land in calldata verbatim. ABIs with wider types
    /// (ingested real contracts) interpret the same stream as 32-byte lanes
    /// and shape them into typed, canonically encoded arguments, so mutants
    /// stay type-shaped: dynamic `bytes`/`string` get real length prefixes,
    /// arrays get element counts, addresses are masked to 160 bits.
    pub fn calldata(&self, abi: &FunctionAbi) -> Vec<u8> {
        let mut data = Vec::new();
        self.calldata_into(abi, &mut data);
        data
    }

    /// [`TxInput::calldata`] written into `data`, replacing its contents and
    /// reusing its buffer.
    pub(crate) fn calldata_into(&self, abi: &FunctionAbi, data: &mut Vec<u8>) {
        data.clear();
        if abi.all_static_words() {
            let args = self.arg_bytes();
            let wanted = 32 * abi.inputs.len();
            data.extend_from_slice(&abi.selector);
            data.extend_from_slice(&args[..wanted.min(args.len())]);
            data.resize(abi.selector.len() + wanted, 0);
            return;
        }
        let lanes: Vec<U256> = (0..abi.lane_count()).map(|i| self.arg_word(i)).collect();
        data.extend_from_slice(&abi.encode_call(&abi.values_from_lanes(&lanes)));
    }

    /// Read the i-th argument word.
    pub fn arg_word(&self, index: usize) -> U256 {
        let args = self.arg_bytes();
        let start = index * 32;
        if start >= args.len() {
            return U256::ZERO;
        }
        let end = (start + 32).min(args.len());
        U256::from_be_slice(&args[start..end])
    }

    /// Overwrite the i-th argument word (growing the stream if needed).
    pub fn set_arg_word(&mut self, index: usize, value: U256) {
        let needed = VALUE_BYTES + 32 * (index + 1);
        if self.stream.len() < needed {
            self.stream.resize(needed, 0);
        }
        let start = VALUE_BYTES + 32 * index;
        self.stream[start..start + 32].copy_from_slice(&value.to_be_bytes());
    }
}

/// A transaction sequence: the unit the fuzzer executes and mutates.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Sequence {
    /// Transactions in execution order (the constructor is implicit).
    pub txs: Vec<TxInput>,
}

impl Clone for Sequence {
    fn clone(&self) -> Sequence {
        Sequence {
            txs: self.txs.clone(),
        }
    }

    /// Reuses the target's transactions position by position.
    fn clone_from(&mut self, source: &Sequence) {
        self.txs.clone_from(&source.txs);
    }
}

impl Sequence {
    /// Build a sequence from transactions.
    pub fn new(txs: Vec<TxInput>) -> Sequence {
        Sequence { txs }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True if the sequence has no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Total length of all mutable byte streams.
    pub fn total_stream_len(&self) -> usize {
        self.txs.iter().map(|t| t.stream.len()).sum()
    }

    /// Function-name fingerprint, e.g. `invest->refund->invest->withdraw`.
    pub fn shape(&self) -> String {
        self.txs
            .iter()
            .map(|t| t.function.as_str())
            .collect::<Vec<_>>()
            .join("->")
    }
}

/// A seed: a sequence plus the feedback recorded when it was executed.
#[derive(Debug, PartialEq)]
pub struct Seed {
    /// Stable corpus identity, assigned at admission. Unlike the seed's
    /// position in the corpus vector, the uid survives corpus culling, so
    /// deferred work (mask probe write-back) can find its seed again.
    pub uid: u64,
    /// The input sequence.
    pub sequence: Sequence,
    /// Branch edges this seed covered when executed, as sorted dense ids from
    /// the harness's [`mufuzz_analysis::EdgeIndex`].
    pub covered_edge_ids: Vec<u32>,
    /// Number of new edges it contributed when it was admitted to the queue.
    pub new_edges: usize,
    /// Whether the seed reached a deeply nested branch.
    pub hits_nested_branch: bool,
    /// Energy weight from the pre-fuzz branch-weighting pass (Algorithm 3).
    pub weight: f64,
    /// Best (smallest) normalised distance this seed achieved to any
    /// still-uncovered branch edge.
    pub best_distance: Option<f64>,
    /// Number of times this seed has been selected for mutation.
    pub selections: usize,
    /// Lazily computed mutation masks, one per transaction (Algorithm 2).
    pub masks: Option<Vec<MutationMask>>,
    /// Set while a worker is probing this seed's masks so concurrent workers
    /// do not duplicate the (expensive) probe executions.
    pub masks_pending: bool,
}

impl Clone for Seed {
    fn clone(&self) -> Seed {
        Seed {
            uid: self.uid,
            sequence: self.sequence.clone(),
            covered_edge_ids: self.covered_edge_ids.clone(),
            new_edges: self.new_edges,
            hits_nested_branch: self.hits_nested_branch,
            weight: self.weight,
            best_distance: self.best_distance,
            selections: self.selections,
            masks: self.masks.clone(),
            masks_pending: self.masks_pending,
        }
    }

    fn clone_from(&mut self, source: &Seed) {
        // Destructured so that a new field cannot be left uncopied.
        let Seed {
            uid,
            sequence,
            covered_edge_ids,
            new_edges,
            hits_nested_branch,
            weight,
            best_distance,
            selections,
            masks,
            masks_pending,
        } = self;
        *uid = source.uid;
        sequence.clone_from(&source.sequence);
        covered_edge_ids.clone_from(&source.covered_edge_ids);
        *new_edges = source.new_edges;
        *hits_nested_branch = source.hits_nested_branch;
        *weight = source.weight;
        *best_distance = source.best_distance;
        *selections = source.selections;
        masks.clone_from(&source.masks);
        *masks_pending = source.masks_pending;
    }
}

impl Seed {
    /// Wrap a sequence with empty feedback.
    pub fn new(sequence: Sequence) -> Seed {
        Seed {
            uid: 0,
            sequence,
            covered_edge_ids: Vec::new(),
            new_edges: 0,
            hits_nested_branch: false,
            weight: 1.0,
            best_distance: None,
            selections: 0,
            masks: None,
            masks_pending: false,
        }
    }

    /// Corpus-culling domination check: `self` is dominated by `other` when
    /// its covered-edge set is a subset of `other`'s and it has no better
    /// (smaller) branch-distance score. A dominated seed can be dropped from
    /// the corpus without shrinking the reachable coverage frontier.
    ///
    /// The relation is deliberately a *strict* partial order: when two seeds
    /// are equivalent (same edges, same distance), only the earlier-admitted
    /// one (smaller uid) dominates, so culling can never drop both of a pair.
    pub fn is_dominated_by(&self, other: &Seed) -> bool {
        if !sorted_subset(&self.covered_edge_ids, &other.covered_edge_ids) {
            return false;
        }
        // Smaller distance-to-uncovered is better; a seed with no distance
        // signal is never better than one with it.
        let mine = self.best_distance.unwrap_or(f64::INFINITY);
        let theirs = other.best_distance.unwrap_or(f64::INFINITY);
        if mine < theirs {
            return false;
        }
        // Strictness tie-break for fully equivalent seeds.
        self.covered_edge_ids.len() < other.covered_edge_ids.len()
            || theirs < mine
            || other.uid < self.uid
    }
}

/// True when sorted id slice `a` is a subset of sorted id slice `b`.
fn sorted_subset(a: &[u32], b: &[u32]) -> bool {
    let mut b_iter = b.iter();
    'outer: for x in a {
        for y in b_iter.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {}
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_lang::ParamType;

    fn abi2() -> FunctionAbi {
        FunctionAbi {
            name: "f".into(),
            inputs: vec![ParamType::Uint256, ParamType::Address],
            payable: true,
            selector: [0xde, 0xad, 0xbe, 0xef],
        }
    }

    #[test]
    fn value_and_args_roundtrip() {
        let tx = TxInput::new(
            "f",
            1,
            U256::from_u64(555),
            &[U256::from_u64(7), U256::from_u64(9)],
        );
        assert_eq!(tx.value(), U256::from_u64(555));
        assert_eq!(tx.arg_word(0), U256::from_u64(7));
        assert_eq!(tx.arg_word(1), U256::from_u64(9));
        assert_eq!(tx.arg_word(5), U256::ZERO);
        assert_eq!(tx.stream.len(), 32 * 3);
    }

    #[test]
    fn setters_extend_short_streams() {
        let mut tx = TxInput::simple("f");
        assert_eq!(tx.stream.len(), 32);
        tx.set_arg_word(1, U256::from_u64(11));
        assert_eq!(tx.arg_word(1), U256::from_u64(11));
        assert_eq!(tx.arg_word(0), U256::ZERO);
        tx.set_value(U256::from_u64(3));
        assert_eq!(tx.value(), U256::from_u64(3));
    }

    #[test]
    fn calldata_pads_and_truncates_to_abi_arity() {
        let abi = abi2();
        // Too few argument bytes: padded with zeros.
        let short = TxInput::new("f", 0, U256::ZERO, &[U256::from_u64(1)]);
        let data = short.calldata(&abi);
        assert_eq!(data.len(), 4 + 64);
        assert_eq!(&data[..4], &abi.selector);
        // Too many argument bytes: truncated.
        let long = TxInput::new(
            "f",
            0,
            U256::ZERO,
            &[U256::from_u64(1), U256::from_u64(2), U256::from_u64(3)],
        );
        assert_eq!(long.calldata(&abi).len(), 4 + 64);
    }

    #[test]
    fn truncated_value_stream_still_decodes() {
        let mut tx = TxInput::simple("f");
        tx.stream.truncate(5);
        // value() falls back to interpreting whatever is left.
        assert_eq!(tx.value(), U256::ZERO);
        assert!(tx.arg_bytes().is_empty());
    }

    #[test]
    fn sequence_shape_and_lengths() {
        let seq = Sequence::new(vec![
            TxInput::simple("invest"),
            TxInput::simple("refund"),
            TxInput::simple("invest"),
            TxInput::simple("withdraw"),
        ]);
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.shape(), "invest->refund->invest->withdraw");
        assert_eq!(seq.total_stream_len(), 4 * 32);
        assert!(!seq.is_empty());
    }

    #[test]
    fn seed_defaults() {
        let seed = Seed::new(Sequence::new(vec![TxInput::simple("f")]));
        assert_eq!(seed.uid, 0);
        assert_eq!(seed.new_edges, 0);
        assert!(seed.covered_edge_ids.is_empty());
        assert!(!seed.hits_nested_branch);
        assert_eq!(seed.weight, 1.0);
        assert!(seed.best_distance.is_none());
    }

    fn seed_with(uid: u64, ids: &[u32], distance: Option<f64>) -> Seed {
        let mut seed = Seed::new(Sequence::new(vec![TxInput::simple("f")]));
        seed.uid = uid;
        seed.covered_edge_ids = ids.to_vec();
        seed.best_distance = distance;
        seed
    }

    #[test]
    fn subset_with_worse_distance_is_dominated() {
        let small = seed_with(1, &[2, 5], Some(0.8));
        let big = seed_with(2, &[1, 2, 5, 9], Some(0.3));
        assert!(small.is_dominated_by(&big));
        assert!(!big.is_dominated_by(&small));
    }

    #[test]
    fn better_distance_protects_a_subset_seed() {
        let close = seed_with(1, &[2, 5], Some(0.1));
        let big = seed_with(2, &[1, 2, 5, 9], Some(0.3));
        assert!(!close.is_dominated_by(&big));
        // ...and a seed with *no* distance signal never protects itself.
        let blind = seed_with(3, &[2, 5], None);
        assert!(blind.is_dominated_by(&big));
    }

    #[test]
    fn non_subset_edge_sets_never_dominate() {
        let a = seed_with(1, &[1, 3], Some(0.5));
        let b = seed_with(2, &[1, 2, 4, 5], Some(0.1));
        assert!(!a.is_dominated_by(&b));
        assert!(!b.is_dominated_by(&a));
    }

    #[test]
    fn equivalent_seeds_cannot_drop_each_other() {
        let a = seed_with(1, &[1, 2], Some(0.5));
        let b = seed_with(2, &[1, 2], Some(0.5));
        // Only the earlier seed dominates, never both ways.
        assert!(b.is_dominated_by(&a));
        assert!(!a.is_dominated_by(&b));
        // No seed dominates itself.
        assert!(!a.is_dominated_by(&a));
    }

    #[test]
    fn empty_edge_set_is_dominated_by_anything_no_closer() {
        let empty = seed_with(5, &[], None);
        let any = seed_with(6, &[1], None);
        assert!(empty.is_dominated_by(&any));
        assert!(!any.is_dominated_by(&empty));
    }
}
