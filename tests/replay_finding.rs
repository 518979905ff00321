//! Replay regression tests: a `FindingRecord` captured by a round-mode
//! campaign re-executes bit-identically from a `CampaignSnapshot` — the
//! outcome digest and the oracle verdict both reproduce — and a tampered
//! mutation trace is rejected with a clear error.
//!
//! The acceptance-criteria scenario is exercised directly: records are
//! captured at one worker count and replayed against a snapshot checkpointed
//! at a *different* worker count, which round mode makes equivalent.

use corrupt::corrupt;
use mufuzz::{
    replay_finding, CampaignProgress, CampaignReport, CampaignService, CampaignSnapshot,
    DeterminismProfile, FindingRecord, FuzzerConfig, ReplayError, SubmitOptions,
};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::catch_unwind;

#[path = "support/corrupt.rs"]
mod corrupt;

/// A PiggyBank in the style of the classic reentrancy example: `smash` sends
/// the whole balance through a raw call before zeroing the savings.
const PIGGY_BANK: &str = "contract PiggyBank {
    uint256 savings;
    function deposit() public payable { savings += msg.value; }
    function smash() public {
        msg.sender.call.value(address(this).balance)();
        savings = 0;
    }
}";

fn round_config(seed: u64, workers: usize) -> FuzzerConfig {
    // Small rounds so the 400-execution campaign crosses several barriers:
    // the mid-campaign checkpoint then lands at a genuine round boundary.
    FuzzerConfig::mufuzz(400)
        .with_rng_seed(seed)
        .with_workers(workers)
        .with_determinism(DeterminismProfile::Round)
        .with_round_slots(4)
        .with_round_batch(16)
}

/// Run a round-mode campaign to completion and return its report.
fn run_campaign(source: &str, config: FuzzerConfig) -> CampaignReport {
    let compiled = compile_source(source).unwrap();
    let service = CampaignService::new(2);
    service.submit(compiled, config).unwrap().wait()
}

/// Pause a round-mode campaign at (the barrier after) `pause_at` executions
/// and checkpoint it.
fn checkpoint_campaign(source: &str, config: FuzzerConfig, pause_at: usize) -> CampaignSnapshot {
    let compiled = compile_source(source).unwrap();
    let service = CampaignService::new(2);
    let handle = service
        .submit_with(compiled, config, SubmitOptions::pause_at(pause_at))
        .unwrap();
    handle.join();
    match handle.poll() {
        CampaignProgress::Paused { .. } => {}
        other => panic!("expected a paused campaign, got {other:?}"),
    }
    handle.checkpoint().expect("paused campaign checkpoints")
}

/// Record → snapshot → replay for one contract: every record the campaign
/// captured replays from the snapshot with a matching outcome digest and a
/// reproduced oracle verdict. The campaign that produced the records runs
/// with a different worker count than the campaign that produced the
/// snapshot — round mode guarantees they describe the same state.
fn assert_records_replay(source: &str, seed: u64) -> usize {
    let report = run_campaign(source, round_config(seed, 2));
    assert!(
        !report.finding_records.is_empty(),
        "campaign captures replayable records"
    );

    // Snapshot from a *different* worker count, paused mid-campaign; the
    // records reference early seed uids, so they predate the checkpoint.
    let snapshot = checkpoint_campaign(source, round_config(seed, 4), 200);
    let bytes = snapshot.to_bytes();
    let snapshot = CampaignSnapshot::from_bytes(&bytes).expect("snapshot round-trips");

    for record in &report.finding_records {
        assert_eq!(record.workers, 2, "records carry their origin worker count");
        let compiled = compile_source(source).unwrap();
        let outcome = replay_finding(compiled, &round_config(seed, 4), &snapshot, record)
            .expect("recorded finding replays from the snapshot");
        assert!(
            outcome.verdict_reproduced,
            "oracle verdict reproduces for {:?}",
            record.finding.class
        );
        assert!(
            outcome
                .findings
                .iter()
                .any(|f| f.class == record.finding.class),
            "replay raises the recorded bug class"
        );
    }
    report.finding_records.len()
}

#[test]
fn piggy_bank_findings_replay_from_a_snapshot() {
    // Seed 9 reliably smashes the piggy bank: one record in round 1.
    assert!(assert_records_replay(PIGGY_BANK, 9) >= 1);
}

#[test]
fn crowdsale_findings_replay_from_a_snapshot() {
    // Seed 42 is a known finding-bearing crowdsale campaign (record in
    // round 1, so it predates any mid-campaign checkpoint).
    assert!(assert_records_replay(&contracts::crowdsale().source, 42) >= 1);
}

/// Tampering with the serialized mutation trace breaks the record's
/// integrity hash: deserialization fails with a clear `Tampered` error.
#[test]
fn tampered_record_bytes_are_rejected() {
    let report = run_campaign(PIGGY_BANK, round_config(9, 2));
    let record = report.finding_records.first().expect("a record");
    let mut bytes = record.to_bytes();
    // Flip one bit in the middle of the payload (the sequence encoding).
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    match FindingRecord::from_bytes(&bytes) {
        Err(ReplayError::Tampered(reason)) => {
            assert!(!reason.is_empty(), "tampering error explains itself");
        }
        other => panic!("expected Tampered, got {other:?}"),
    }
}

/// Hostile bytes: 300 seeded corruptions each of a real checkpoint (taken
/// after the round that recorded the campaign's first finding, so it nests
/// that record's encoding) and of a real finding record. Every stream that
/// differs from the original is rejected, and neither decoder panics.
#[test]
fn corrupted_snapshot_and_record_bytes_are_rejected() {
    let report = run_campaign(PIGGY_BANK, round_config(9, 2));
    let record = report.finding_records.first().expect("a record").to_bytes();
    let snapshot = checkpoint_campaign(PIGGY_BANK, round_config(9, 2), 200).to_bytes();
    let mut rng = SmallRng::seed_from_u64(0x0BAD_B17E);
    for case in 0..300 {
        let bad = corrupt(&snapshot, &mut rng);
        if bad != snapshot {
            let decoded = catch_unwind(|| CampaignSnapshot::from_bytes(&bad).is_ok());
            assert_eq!(decoded.ok(), Some(false), "snapshot case {case}");
        }
        let bad = corrupt(&record, &mut rng);
        if bad != record {
            let decoded = catch_unwind(|| FindingRecord::from_bytes(&bad).is_ok());
            assert_eq!(decoded.ok(), Some(false), "record case {case}");
        }
    }
}

/// A record whose in-memory mutation trace was altered after capture fails
/// replay with an outcome mismatch instead of silently "reproducing".
#[test]
fn altered_mutation_trace_fails_the_outcome_check() {
    let report = run_campaign(PIGGY_BANK, round_config(9, 2));
    let record = report.finding_records.first().expect("a record").clone();
    let snapshot = checkpoint_campaign(PIGGY_BANK, round_config(9, 2), 200);

    let mut altered = record;
    // Drop the final transaction of the trace: the replayed execution can
    // no longer produce the recorded outcome digest.
    altered.sequence.txs.pop().expect("non-empty trace");
    let compiled = compile_source(PIGGY_BANK).unwrap();
    match replay_finding(compiled, &round_config(9, 2), &snapshot, &altered) {
        Err(ReplayError::OutcomeMismatch { expected, actual }) => {
            assert_ne!(expected, actual);
        }
        other => panic!("expected OutcomeMismatch, got {other:?}"),
    }
}

/// A record naming a seed uid the snapshot never assigned is rejected: it
/// cannot have been produced by a prefix of the snapshotted campaign.
#[test]
fn record_from_an_unknown_seed_is_rejected() {
    let report = run_campaign(PIGGY_BANK, round_config(9, 2));
    let record = report.finding_records.first().expect("a record").clone();
    let snapshot = checkpoint_campaign(PIGGY_BANK, round_config(9, 2), 200);

    let mut future = record;
    future.seed_uid = u64::MAX / 2;
    let compiled = compile_source(PIGGY_BANK).unwrap();
    match replay_finding(compiled, &round_config(9, 2), &snapshot, &future) {
        Err(ReplayError::UnknownSeed { seed_uid, .. }) => {
            assert_eq!(seed_uid, u64::MAX / 2);
        }
        other => panic!("expected UnknownSeed, got {other:?}"),
    }
}

/// Replaying against the wrong contract fails loudly.
#[test]
fn replay_validates_the_contract_fingerprint() {
    let report = run_campaign(PIGGY_BANK, round_config(9, 2));
    let record = report.finding_records.first().expect("a record");
    let snapshot = checkpoint_campaign(PIGGY_BANK, round_config(9, 2), 200);

    let other = compile_source(&contracts::game().source).unwrap();
    match replay_finding(other, &round_config(9, 2), &snapshot, record) {
        Err(ReplayError::ContractMismatch) => {}
        other => panic!("expected ContractMismatch, got {other:?}"),
    }
}
