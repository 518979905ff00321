//! Prefix records: a mutant resumes from its seed's frozen world.
//!
//! Sequence-aware mutation (§IV-A) keeps a seed's transaction order and
//! changes one or two of its transactions; a mask probe changes one word of
//! one transaction. Every transaction before the first changed one runs
//! exactly as it did in the seed, because a sequence execution is a pure
//! function of the sequence (see [`crate::executor`]). So a lane executes
//! each seed it draws once more, and keeps a [`PrefixRecord`] of what every
//! transaction left behind: the frozen world, the trace and the running
//! success count. An execution given the record restores the world after
//! the leading transactions the candidate shares with the seed, and
//! executes only the rest.
//!
//! The record's execution is not charged to any budget and no oracle
//! observes it: every observer sees the same outcomes as without records.
//! Records are lane-local and built lazily at the draw. Nothing is shared
//! between lanes or serialised, so seeds, snapshots and round views carry
//! none, and a resumed campaign rebuilds them as it draws. A lane keeps at
//! most [`MAX_RECORDS`] and evicts the least recently drawn; a dropped
//! record only costs a rebuild.

use crate::executor::{ContractHarness, SequenceOutcome};
use crate::input::{Seed, Sequence};
use mufuzz_evm::{ExecFrame, ExecutionTrace, WorldState};

/// Records one lane keeps at most: about twice the largest corpus the
/// benchmark workloads build.
const MAX_RECORDS: usize = 64;

/// One execution of a seed's sequence, position by position.
#[derive(Debug, Default)]
pub(crate) struct PrefixRecord {
    /// Uid of the seed the record was built from.
    uid: u64,
    /// The seed's sequence.
    sequence: Sequence,
    /// `worlds[i]`: the world after transaction `i`, frozen, so restoring
    /// it is one `Arc` clone. A transaction that left the world unchanged
    /// shares the previous position's frozen map.
    worlds: Vec<WorldState>,
    /// `traces[i]`: transaction `i`'s trace.
    traces: Vec<ExecutionTrace>,
    /// `successes[i]`: how many of transactions `0..=i` succeeded.
    successes: Vec<usize>,
    /// The lane's draw count when the record was last used.
    last_used: u64,
}

impl PrefixRecord {
    /// The number of leading transactions `sequence` shares with the
    /// recorded sequence.
    pub(crate) fn shared_len(&self, sequence: &Sequence) -> usize {
        self.sequence
            .txs
            .iter()
            .zip(&sequence.txs)
            .take_while(|(recorded, tx)| recorded == tx)
            .count()
    }

    /// Start `outcome` where the first `k` recorded transactions left off
    /// (`1 <= k <= len`): their world, copies of their traces in traces
    /// taken from `frame`'s pool, and their success count.
    pub(crate) fn restore(&self, k: usize, frame: &mut ExecFrame, outcome: &mut SequenceOutcome) {
        outcome.final_world = self.worlds[k - 1].snapshot();
        outcome.successes = self.successes[k - 1];
        for recorded in &self.traces[..k] {
            let mut trace = frame.take_trace();
            trace.clone_from(recorded);
            outcome.traces.push(trace);
        }
    }

    /// Refill the record from one execution of `seed`'s sequence.
    fn build(&mut self, harness: &ContractHarness, seed: &Seed, frame: &mut ExecFrame) {
        let PrefixRecord {
            uid,
            sequence,
            worlds,
            traces,
            successes,
            last_used: _,
        } = self;
        *uid = seed.uid;
        sequence.clone_from(&seed.sequence);
        for trace in traces.drain(..) {
            frame.recycle_trace(trace);
        }
        worlds.clear();
        successes.clear();
        let mut world = harness.base_world().snapshot();
        let mut succeeded = 0;
        harness.run_txs(
            &seed.sequence.txs,
            &mut world,
            harness.base_block(),
            frame,
            |world, trace| {
                succeeded += usize::from(trace.success());
                world.freeze();
                worlds.push(world.snapshot());
                traces.push(trace);
                successes.push(succeeded);
            },
        );
    }
}

/// The prefix records of one lane, by seed uid.
#[derive(Debug, Default)]
pub(crate) struct PrefixRecords {
    records: Vec<PrefixRecord>,
    /// Draws so far; stamps each record's last use.
    draws: u64,
}

impl PrefixRecords {
    /// The slot of `seed`'s record. The lane builds it by executing the
    /// seed once when it holds no record of the uid, or one of a different
    /// sequence. A new record past [`MAX_RECORDS`] replaces the least
    /// recently used one.
    pub(crate) fn prepare(
        &mut self,
        harness: &ContractHarness,
        seed: &Seed,
        frame: &mut ExecFrame,
    ) -> usize {
        self.draws += 1;
        let slot = match self.records.iter().position(|r| r.uid == seed.uid) {
            Some(slot) => slot,
            None if self.records.len() < MAX_RECORDS => {
                self.records.push(PrefixRecord::default());
                self.records.len() - 1
            }
            None => (0..self.records.len())
                .min_by_key(|&slot| self.records[slot].last_used)
                .expect("a full record set is not empty"),
        };
        let record = &mut self.records[slot];
        record.last_used = self.draws;
        if record.uid != seed.uid || record.sequence != seed.sequence {
            record.build(harness, seed, frame);
        }
        slot
    }

    /// The record in `slot`, as [`PrefixRecords::prepare`] returned it.
    pub(crate) fn get(&self, slot: usize) -> &PrefixRecord {
        &self.records[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::CROWDSALE;
    use crate::config::FuzzerConfig;
    use crate::input::TxInput;
    use mufuzz_evm::{ether, U256};
    use mufuzz_lang::compile_source;
    use std::sync::Arc;

    fn harness(block_lowering: bool) -> ContractHarness {
        let config = FuzzerConfig::default().with_block_lowering(block_lowering);
        ContractHarness::new(compile_source(CROWDSALE).unwrap(), &config).unwrap()
    }

    fn seed(uid: u64, txs: Vec<TxInput>) -> Seed {
        let mut seed = Seed::new(Sequence::new(txs));
        seed.uid = uid;
        seed
    }

    fn invest(sender: usize, amount: U256) -> TxInput {
        TxInput::new("invest", sender, amount, &[amount])
    }

    /// Transactions that write storage, move ether and branch on what the
    /// earlier ones wrote.
    fn crowdsale_seed() -> Seed {
        seed(
            1,
            vec![
                invest(0, ether(60)),
                invest(1, ether(50)),
                TxInput::simple("refund"),
                TxInput::simple("withdraw"),
            ],
        )
    }

    /// Execute `candidate` through `seed`'s record on both tiers, assert the
    /// outcome equals a full run's, and return how many transactions it
    /// resumed past.
    fn resume(seed: &Seed, candidate: &Sequence) -> usize {
        let mut shared = None;
        for block_lowering in [true, false] {
            let harness = harness(block_lowering);
            let mut records = PrefixRecords::default();
            let mut frame = ExecFrame::new();
            let slot = records.prepare(&harness, seed, &mut frame);
            let record = records.get(slot);
            let mut outcome = SequenceOutcome::default();
            // Twice through the same buffers: the second run starts from
            // the first one's recycled traces.
            for _ in 0..2 {
                harness.execute_sequence_into(candidate, Some(record), &mut frame, &mut outcome);
                let full = harness.execute_sequence(candidate);
                assert_eq!(outcome.traces, full.traces);
                assert_eq!(outcome.successes, full.successes);
                assert_eq!(outcome.covered_edge_ids, full.covered_edge_ids);
                assert!(outcome.final_world == full.final_world);
            }
            shared = Some(record.shared_len(candidate));
        }
        shared.expect("two tiers ran")
    }

    #[test]
    fn nothing_shared_runs_from_the_deployed_world() {
        let seed = crowdsale_seed();
        let mut candidate = seed.sequence.clone();
        candidate.txs[0].set_value(ether(1));
        assert_eq!(resume(&seed, &candidate), 0);
    }

    #[test]
    fn a_byte_identical_mutant_executes_nothing() {
        let seed = crowdsale_seed();
        assert_eq!(resume(&seed, &seed.sequence), 4);
    }

    #[test]
    fn a_mutant_resumes_after_its_last_unchanged_transaction() {
        let seed = crowdsale_seed();
        let mut candidate = seed.sequence.clone();
        candidate.txs[2].sender_index = 2;
        assert_eq!(resume(&seed, &candidate), 2);
        // A longer mutant resumes after the whole seed.
        candidate.txs[2].sender_index = 0;
        candidate.txs.push(invest(2, ether(5)));
        assert_eq!(resume(&seed, &candidate), 4);
    }

    #[test]
    fn an_insertion_at_position_zero_shares_nothing() {
        let seed = crowdsale_seed();
        let mut candidate = seed.sequence.clone();
        candidate.txs.insert(0, TxInput::simple("refund"));
        assert_eq!(resume(&seed, &candidate), 0);
    }

    #[test]
    fn an_unknown_function_in_the_prefix_is_resumed_past() {
        let seed = seed(
            2,
            vec![
                invest(0, ether(80)),
                TxInput::simple("doesNotExist"),
                invest(1, ether(30)),
                TxInput::simple("withdraw"),
            ],
        );
        let mut candidate = seed.sequence.clone();
        candidate.txs[3] = TxInput::simple("refund");
        assert_eq!(resume(&seed, &candidate), 3);
    }

    #[test]
    fn frozen_worlds_keep_the_cached_code_blob() {
        // The program cache is keyed by the code blob's pointer: a frozen
        // world with a copied blob would decode every frame afresh.
        let harness = harness(true);
        let mut frame = ExecFrame::new();
        let mut records = PrefixRecords::default();
        let slot = records.prepare(&harness, &crowdsale_seed(), &mut frame);
        let record = records.get(slot);
        let deployed = harness.base_world().code(harness.contract_address);
        assert_eq!(record.worlds.len(), 4);
        for world in &record.worlds {
            let code = world.code(harness.contract_address);
            assert!(Arc::ptr_eq(&code, &deployed));
            assert!(harness.programs().get_block(&code).is_some());
        }
    }

    #[test]
    fn a_stale_record_is_rebuilt() {
        let harness = harness(true);
        let mut frame = ExecFrame::new();
        let mut records = PrefixRecords::default();
        let first = crowdsale_seed();
        records.prepare(&harness, &first, &mut frame);
        // The same uid with another sequence: the record must follow it.
        let mut second = first.clone();
        second.sequence.txs[0] = invest(2, ether(100));
        let slot = records.prepare(&harness, &second, &mut frame);
        let record = records.get(slot);
        assert_eq!(record.sequence, second.sequence);
        assert_eq!(records.records.len(), 1);
        let mut candidate = second.sequence.clone();
        candidate.txs[3] = TxInput::simple("refund");
        assert_eq!(record.shared_len(&candidate), 3);
        let mut outcome = SequenceOutcome::default();
        harness.execute_sequence_into(&candidate, Some(record), &mut frame, &mut outcome);
        let full = harness.execute_sequence(&candidate);
        assert_eq!(outcome.traces, full.traces);
        assert!(outcome.final_world == full.final_world);
    }

    #[test]
    fn records_are_bounded_and_evict_the_least_recently_drawn() {
        let harness = harness(true);
        let mut frame = ExecFrame::new();
        let mut records = PrefixRecords::default();
        let seeds: Vec<Seed> = (0..=MAX_RECORDS as u64)
            .map(|uid| seed(uid, vec![invest(0, U256::from_u64(uid + 1))]))
            .collect();
        for seed in &seeds[..MAX_RECORDS] {
            records.prepare(&harness, seed, &mut frame);
        }
        // Draw uid 0 again, so uid 1 is now the least recently drawn.
        records.prepare(&harness, &seeds[0], &mut frame);
        records.prepare(&harness, &seeds[MAX_RECORDS], &mut frame);
        assert_eq!(records.records.len(), MAX_RECORDS);
        let uids: Vec<u64> = records.records.iter().map(|r| r.uid).collect();
        assert!(uids.contains(&0));
        assert!(!uids.contains(&1));
        assert!(uids.contains(&(MAX_RECORDS as u64)));
    }
}
