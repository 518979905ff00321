//! Prefix reuse changes no outcome.
//!
//! Real campaign batches run here the way a free-running lane runs them
//! (`Worker::draw`, then `run_batch`), but every execution they settle is
//! checked first: the outcome the batch produced through its seed's prefix
//! record must equal the outcome of the same sequence run from the
//! constructor world, in traces, success count, edge ids and final world.
//! The campaigns cover the crowdsale at three seeds, every hand-written D2
//! contract and one D1-large contract, on both interpreter tiers.

use super::*;
use crate::input::TxInput;
use mufuzz_corpus::{all_handwritten, d1_large};
use mufuzz_evm::U256;
use mufuzz_lang::compile_source;

/// What the checked executions looked like.
#[derive(Debug, Default)]
struct Tally {
    /// Executions checked against a full run.
    checked: usize,
    /// Executions that shared at least their first transaction with their
    /// seed, so resumed from a recorded world.
    resumed: usize,
    /// Executions byte-identical to their seed: nothing left to execute.
    identical: usize,
}

/// A [`Ledger`] that checks each settled execution against a full run
/// before handing it on to the lane's own ledger.
struct FullRunCheck<'a, L> {
    inner: L,
    label: &'a str,
    /// The drawn seed's sequence, to count how much each execution shares.
    seed: Sequence,
    frame: ExecFrame,
    tally: &'a mut Tally,
}

impl<L: Ledger> Ledger for FullRunCheck<'_, L> {
    fn reserve(&mut self) -> bool {
        self.inner.reserve()
    }

    fn covers(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        self.inner.covers(edge, index)
    }

    fn settle(
        &mut self,
        exec: &Executor,
        sequence: &Sequence,
        outcome: &SequenceOutcome,
        seed_uid: u64,
    ) {
        let full = exec
            .harness
            .execute_sequence_with(sequence, &mut self.frame);
        let label = self.label;
        let n = self.tally.checked;
        assert_eq!(
            outcome.traces, full.traces,
            "{label}, execution {n}: traces"
        );
        assert_eq!(
            outcome.successes, full.successes,
            "{label}, execution {n}: successes"
        );
        assert_eq!(
            outcome.covered_edge_ids, full.covered_edge_ids,
            "{label}, execution {n}: edge ids"
        );
        assert!(
            outcome.final_world == full.final_world,
            "{label}, execution {n}: final world"
        );
        let shared = self
            .seed
            .txs
            .iter()
            .zip(&sequence.txs)
            .take_while(|(a, b)| a == b)
            .count();
        self.tally.checked += 1;
        self.tally.resumed += usize::from(shared > 0);
        self.tally.identical += usize::from(*sequence == self.seed);
        self.inner.settle(exec, sequence, outcome, seed_uid);
    }

    fn keep_world(&mut self, world: &mut WorldState) {
        self.inner.keep_world(world);
    }
}

/// Run a one-lane campaign of `config` on `source` to its budget, checking
/// every mask probe and mutant against a full run.
fn check_campaign(label: &str, source: &str, config: FuzzerConfig, tally: &mut Tally) {
    let compiled = compile_source(source).expect("benchmark contract compiles");
    let ctx = Arc::new(CampaignContext::prepare(compiled, config.with_workers(1)).unwrap());
    let shared = CampaignShared::new(ctx.harness.edge_index().len());
    let params = RunParams::new(&ctx, 0);
    let rng = SmallRng::seed_from_u64(ctx.config.rng_seed);
    let mut worker = Worker::new(Arc::clone(&ctx), rng);
    worker.run_initial(&shared, &params);
    let max_executions = ctx.config.max_executions();
    while shared.executions() < max_executions {
        let (energy, compute) = worker.draw(&shared);
        let mut ledger = FullRunCheck {
            inner: SharedLedger {
                shared: &shared,
                params: &params,
                max_executions,
                monitor: &mut worker.monitor,
                last_world: &mut worker.last_world,
                slot: 0,
            },
            label,
            seed: worker.seed.sequence.clone(),
            frame: ExecFrame::new(),
            tally,
        };
        let batch = run_batch(
            &mut worker.exec,
            &mut worker.rng,
            &mut worker.seed,
            energy,
            compute,
            &shared,
            &mut ledger,
        );
        if batch.is_break() {
            break;
        }
    }
    assert_eq!(shared.executions(), max_executions, "{label}: budget");
}

/// Every listed campaign on one interpreter tier.
fn check_tier(block_lowering: bool) -> Tally {
    let tier = if block_lowering {
        "block"
    } else {
        "predecoded"
    };
    let config = |budget: usize, seed: u64| {
        FuzzerConfig::mufuzz(budget)
            .with_rng_seed(seed)
            .with_block_lowering(block_lowering)
    };
    let mut tally = Tally::default();
    for seed in [3, 11, 42] {
        let label = format!("crowdsale seed {seed}, {tier} tier");
        check_campaign(&label, tests::CROWDSALE, config(1_500, seed), &mut tally);
    }
    for contract in all_handwritten() {
        let label = format!("{}, {tier} tier", contract.name);
        check_campaign(&label, &contract.source, config(1_200, 101), &mut tally);
    }
    for contract in d1_large(1).contracts {
        let label = format!("{}, {tier} tier", contract.name);
        check_campaign(&label, &contract.source, config(800, 101), &mut tally);
    }
    tally
}

#[test]
fn resumed_outcomes_equal_full_runs_on_the_block_tier() {
    let tally = check_tier(true);
    // Most executions resume, and some are byte-identical to their seed:
    // the check exercises both ends of the resume point.
    assert!(tally.resumed * 2 > tally.checked, "{tally:?}");
    assert!(tally.identical > 0, "{tally:?}");
}

#[test]
fn resumed_outcomes_equal_full_runs_on_the_predecoded_tier() {
    let tally = check_tier(false);
    assert!(tally.resumed * 2 > tally.checked, "{tally:?}");
    assert!(tally.identical > 0, "{tally:?}");
}

/// A free-running probe and mutant pass over a hand-built seed, checked the
/// same way: the seed's first transaction is the attacker's, so the world
/// every mutant resumes from holds the attacker's callback bytes, and the
/// later payout re-enters with them.
#[test]
fn resumed_outcomes_keep_the_attackers_callback() {
    let source = r#"
        contract Payout {
            address payee;
            uint256 pokes;
            function register() public payable { payee = msg.sender; }
            function poke(uint256 n) public { pokes += n; }
            function pay() public { payee.call.value(1)(); }
        }
    "#;
    let compiled = compile_source(source).unwrap();
    let config = FuzzerConfig::mufuzz(400).with_workers(1);
    let ctx = Arc::new(CampaignContext::prepare(compiled, config).unwrap());
    let attacker = ctx.harness.senders.len() - 1;
    assert_eq!(
        Some(ctx.harness.senders[attacker]),
        ctx.harness.attacker,
        "the attacker is the last sender"
    );
    let mut seed = Seed::new(Sequence::new(vec![
        TxInput::new("register", attacker, U256::from_u64(10), &[]),
        TxInput::new("poke", 0, U256::ZERO, &[U256::ONE]),
        TxInput::simple("pay"),
    ]));
    seed.uid = 1;
    let shared = CampaignShared::new(ctx.harness.edge_index().len());
    let params = RunParams::new(&ctx, 0);
    let mut worker = Worker::new(Arc::clone(&ctx), SmallRng::seed_from_u64(5));
    let mut tally = Tally::default();
    let mut ledger = FullRunCheck {
        inner: SharedLedger {
            shared: &shared,
            params: &params,
            max_executions: 400,
            monitor: &mut worker.monitor,
            last_world: &mut worker.last_world,
            slot: 0,
        },
        label: "payout",
        seed: seed.sequence.clone(),
        frame: ExecFrame::new(),
        tally: &mut tally,
    };
    let masks = worker
        .exec
        .compute_masks(&mut worker.rng, &seed, &mut ledger);
    seed.masks = Some(masks);
    let _ = worker
        .exec
        .run_mutants(&mut worker.rng, &seed, 200, &mut ledger);
    assert!(tally.resumed > 0, "{tally:?}");
    // The seed itself re-enters: its payout calls back into the contract.
    let outcome = ctx.harness.execute_sequence(&seed.sequence);
    assert!(outcome.traces[2].reentered);
}
