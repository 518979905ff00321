//! Initial seed generation and sequence-level (structural) mutation.
//!
//! With sequence-aware mutation enabled (paper §IV-A) the initial sequences
//! follow the data-flow-derived ordering, including the RAW-based repetition
//! of critical transactions; structural mutations preserve that ordering and
//! only vary senders, argument seeds and extra repetitions. With the component
//! disabled (the sFuzz-style baseline and the ablation variant) sequences are
//! random permutations of the callable functions and structural mutation
//! shuffles them freely.

use crate::input::{Sequence, TxInput, VALUE_BYTES};
use crate::mutation::InterestingValues;
use mufuzz_analysis::SequencePlan;
use mufuzz_evm::U256;
use mufuzz_lang::ContractAbi;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates whole sequences.
#[derive(Clone, Debug)]
pub struct SequenceGenerator {
    /// Callable function names in ABI order.
    pub callable: Vec<String>,
    /// The analysis-derived plan (ignored when sequence-aware mutation is
    /// disabled).
    pub plan: SequencePlan,
    /// Whether the plan ordering is honoured.
    pub sequence_aware: bool,
    /// Number of senders available.
    pub sender_count: usize,
}

impl SequenceGenerator {
    /// Build a generator from the ABI and the analysis plan.
    pub fn new(
        abi: &ContractAbi,
        plan: SequencePlan,
        sequence_aware: bool,
        sender_count: usize,
    ) -> SequenceGenerator {
        SequenceGenerator {
            callable: abi.functions.iter().map(|f| f.name.clone()).collect(),
            plan,
            sequence_aware,
            sender_count: sender_count.max(1),
        }
    }

    fn random_tx(
        &self,
        function: &str,
        abi: &ContractAbi,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) -> TxInput {
        let mut tx = TxInput {
            function: function.to_string(),
            sender_index: 0,
            stream: Vec::new(),
        };
        self.randomize_tx(&mut tx, abi, rng, interesting);
        tx
    }

    /// Give `tx` fresh random arguments, value and sender for a call of
    /// `tx.function`, reusing its stream buffer.
    fn randomize_tx(
        &self,
        tx: &mut TxInput,
        abi: &ContractAbi,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) {
        // Seed one word per mutable *lane*: static params take one lane,
        // dynamic params (ingested ABIs) take length + content lanes, so
        // every shaped byte of the calldata starts from fuzz-chosen data.
        let (arity, payable) = abi
            .function(&tx.function)
            .map(|f| (f.lane_count(), f.payable))
            .unwrap_or((0, false));
        // The value word leads the stream but is drawn after the arguments.
        tx.stream.clear();
        tx.stream.resize(VALUE_BYTES, 0);
        for _ in 0..arity {
            // Bias towards small values and interesting constants.
            let word = match rng.gen_range(0..4u8) {
                0 => U256::from_u64(rng.gen_range(0..256u64)),
                1 => U256::from_u64(rng.gen()),
                _ => interesting.pick(rng),
            };
            tx.stream.extend_from_slice(&word.to_be_bytes());
        }
        // Ether is only attached to payable functions (non-payable ones revert
        // on any value, which every practical smart-contract fuzzer avoids by
        // reading payability from the ABI).
        let value = if payable {
            match rng.gen_range(0..4u8) {
                0 => U256::ZERO,
                1 => U256::from_u64(rng.gen_range(0..1_000u64)),
                _ => interesting.pick(rng),
            }
        } else {
            U256::ZERO
        };
        tx.stream[..VALUE_BYTES].copy_from_slice(&value.to_be_bytes());
        tx.sender_index = rng.gen_range(0..self.sender_count);
    }

    /// Generate one fresh sequence.
    pub fn generate(
        &self,
        abi: &ContractAbi,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) -> Sequence {
        if self.callable.is_empty() {
            return Sequence::default();
        }
        let order: Vec<String> = if self.sequence_aware && !self.plan.mutated_order.is_empty() {
            // Alternate between the mutated (with repetition) and base orders,
            // and occasionally extend the planned sequence with extra trailing
            // calls (sequence extension, §IV-A).
            let mut order = if rng.gen_bool(0.7) {
                self.plan.mutated_order.clone()
            } else {
                self.plan.base_order.clone()
            };
            if rng.gen_bool(0.35) {
                // Replay the whole planned cycle a second time: the second
                // pass starts from the state the first pass established, which
                // is how deeper persistent states are reached.
                let again = order.clone();
                order.extend(again);
            } else if rng.gen_bool(0.3) {
                for _ in 0..rng.gen_range(1..=2usize) {
                    order.push(self.callable[rng.gen_range(0..self.callable.len())].clone());
                }
            }
            order
        } else {
            // Random order, random length between 1 and 2x the function count.
            let len = rng.gen_range(1..=self.callable.len() * 2);
            (0..len)
                .map(|_| self.callable[rng.gen_range(0..self.callable.len())].clone())
                .collect()
        };
        let txs = order
            .iter()
            .map(|name| self.random_tx(name, abi, rng, interesting))
            .collect();
        Sequence::new(txs)
    }

    /// Generate the initial corpus: plan-derived sequences plus one
    /// single-transaction sequence per callable function (so every function is
    /// exercised at least once).
    pub fn initial_sequences(
        &self,
        abi: &ContractAbi,
        count: usize,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) -> Vec<Sequence> {
        if self.callable.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for name in &self.callable {
            out.push(Sequence::new(vec![self.random_tx(
                name,
                abi,
                rng,
                interesting,
            )]));
        }
        while out.len() < count.max(self.callable.len()) {
            out.push(self.generate(abi, rng, interesting));
        }
        out
    }

    /// Structurally mutate a sequence (ordering / senders / repetition); the
    /// byte-level argument mutation is handled separately by the mask-guided
    /// mutator. Returns a mutated copy (see `mutate_structure_in_place`).
    pub fn mutate_structure(
        &self,
        sequence: &Sequence,
        abi: &ContractAbi,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) -> Sequence {
        let mut seq = sequence.clone();
        self.mutate_structure_in_place(&mut seq, abi, rng, interesting);
        seq
    }

    /// [`SequenceGenerator::mutate_structure`] in place: the same draws and
    /// the same result, reusing the sequence's buffers. Only a transaction
    /// added to the sequence allocates.
    pub(crate) fn mutate_structure_in_place(
        &self,
        seq: &mut Sequence,
        abi: &ContractAbi,
        rng: &mut SmallRng,
        interesting: &InterestingValues,
    ) {
        if seq.is_empty() {
            *seq = self.generate(abi, rng, interesting);
            return;
        }
        if self.sequence_aware {
            match rng.gen_range(0..4u8) {
                // Change the sender of one transaction.
                0 => {
                    let i = rng.gen_range(0..seq.txs.len());
                    seq.txs[i].sender_index = rng.gen_range(0..self.sender_count);
                }
                // Extend the sequence with a trailing call (ordering of the
                // planned prefix is preserved).
                3 => {
                    let name = &self.callable[rng.gen_range(0..self.callable.len())];
                    let fresh = self.random_tx(name, abi, rng, interesting);
                    seq.txs.push(fresh);
                }
                // Duplicate a repetition candidate once more (sequence
                // extension, §IV-A).
                1 => {
                    let candidate = seq
                        .txs
                        .iter()
                        .position(|t| self.plan.repeat_candidates.contains(&t.function));
                    if let Some(i) = candidate {
                        let copy = seq.txs[i].clone();
                        let at = rng.gen_range(i + 1..=seq.txs.len());
                        seq.txs.insert(at, copy);
                    } else {
                        let i = rng.gen_range(0..seq.txs.len());
                        seq.txs[i].sender_index = rng.gen_range(0..self.sender_count);
                    }
                }
                // Re-randomise the arguments of one transaction.
                _ => {
                    let i = rng.gen_range(0..seq.txs.len());
                    self.randomize_tx(&mut seq.txs[i], abi, rng, interesting);
                }
            }
        } else {
            match rng.gen_range(0..4u8) {
                // Shuffle the order.
                0 => seq.txs.shuffle(rng),
                // Replace one call with a random function.
                1 => {
                    let i = rng.gen_range(0..seq.txs.len());
                    let name = &self.callable[rng.gen_range(0..self.callable.len())];
                    seq.txs[i].function.clone_from(name);
                    self.randomize_tx(&mut seq.txs[i], abi, rng, interesting);
                }
                // Drop a call.
                2 => {
                    if seq.txs.len() > 1 {
                        let i = rng.gen_range(0..seq.txs.len());
                        seq.txs.remove(i);
                    }
                }
                // Append a random call.
                _ => {
                    let name = &self.callable[rng.gen_range(0..self.callable.len())];
                    seq.txs.push(self.random_tx(name, abi, rng, interesting));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_analysis::{analyze_contract, plan_sequence};
    use mufuzz_lang::compile_source;
    use rand::SeedableRng;

    const SRC: &str = r#"
        contract Crowdsale {
            uint256 phase = 0;
            uint256 goal;
            uint256 invested;
            mapping(address => uint256) invests;
            constructor() public { goal = 100 ether; }
            function invest(uint256 donations) public payable {
                if (invested < goal) { invested += donations; phase = 0; } else { phase = 1; }
            }
            function refund() public { if (phase == 0) { invests[msg.sender] = 0; } }
            function withdraw() public { if (phase == 1) { bug(); } }
        }
    "#;

    fn generator(sequence_aware: bool) -> (SequenceGenerator, mufuzz_lang::ContractAbi) {
        let compiled = compile_source(SRC).unwrap();
        let plan = plan_sequence(&analyze_contract(&compiled.contract));
        let generator = SequenceGenerator::new(&compiled.abi, plan, sequence_aware, 3);
        (generator, compiled.abi)
    }

    #[test]
    fn sequence_aware_generation_follows_the_plan() {
        let (generator, abi) = generator(true);
        let mut rng = SmallRng::seed_from_u64(1);
        let pool = InterestingValues::defaults();
        let mut saw_repeated_invest = false;
        for _ in 0..20 {
            let seq = generator.generate(&abi, &mut rng, &pool);
            let shape = seq.shape();
            // The ordering always starts with invest (the writer).
            assert!(shape.starts_with("invest"));
            if seq.txs.iter().filter(|t| t.function == "invest").count() >= 2 {
                saw_repeated_invest = true;
            }
        }
        assert!(saw_repeated_invest);
    }

    #[test]
    fn random_generation_varies_order_and_length() {
        let (generator, abi) = generator(false);
        let mut rng = SmallRng::seed_from_u64(2);
        let pool = InterestingValues::defaults();
        let shapes: std::collections::BTreeSet<String> = (0..30)
            .map(|_| generator.generate(&abi, &mut rng, &pool).shape())
            .collect();
        assert!(shapes.len() > 5, "only {} distinct shapes", shapes.len());
    }

    #[test]
    fn initial_sequences_cover_every_function() {
        let (generator, abi) = generator(true);
        let mut rng = SmallRng::seed_from_u64(3);
        let pool = InterestingValues::defaults();
        let seeds = generator.initial_sequences(&abi, 8, &mut rng, &pool);
        assert!(seeds.len() >= 8);
        for name in ["invest", "refund", "withdraw"] {
            assert!(seeds
                .iter()
                .any(|s| s.txs.iter().any(|t| t.function == name)));
        }
    }

    #[test]
    fn sequence_aware_structural_mutation_preserves_order() {
        let (generator, abi) = generator(true);
        let mut rng = SmallRng::seed_from_u64(4);
        let pool = InterestingValues::defaults();
        let base = generator.generate(&abi, &mut rng, &pool);
        for _ in 0..20 {
            let mutated = generator.mutate_structure(&base, &abi, &mut rng, &pool);
            // The relative order of distinct functions is preserved: invest
            // always precedes withdraw.
            let first_invest = mutated
                .txs
                .iter()
                .position(|t| t.function == "invest")
                .unwrap();
            let withdraw = mutated.txs.iter().position(|t| t.function == "withdraw");
            if let Some(w) = withdraw {
                assert!(first_invest < w);
            }
        }
    }

    #[test]
    fn random_structural_mutation_changes_shapes() {
        let (generator, abi) = generator(false);
        let mut rng = SmallRng::seed_from_u64(5);
        let pool = InterestingValues::defaults();
        let base = generator.generate(&abi, &mut rng, &pool);
        let mut changed = false;
        for _ in 0..20 {
            let mutated = generator.mutate_structure(&base, &abi, &mut rng, &pool);
            if mutated.shape() != base.shape() {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn empty_contract_is_handled() {
        let compiled = compile_source("contract Empty { uint256 x; }").unwrap();
        let plan = plan_sequence(&analyze_contract(&compiled.contract));
        let generator = SequenceGenerator::new(&compiled.abi, plan, true, 2);
        let mut rng = SmallRng::seed_from_u64(6);
        let pool = InterestingValues::defaults();
        assert!(generator
            .generate(&compiled.abi, &mut rng, &pool)
            .is_empty());
        assert!(generator
            .initial_sequences(&compiled.abi, 4, &mut rng, &pool)
            .is_empty());
    }
}
