//! Integration tests for the campaign service: checkpoint/resume
//! bit-identity, snapshot validation, event streaming and cross-campaign
//! concurrency.
//!
//! The checkpoint contract (satellite of the fleet-mode redesign): pausing a
//! `workers == 1` campaign at a deterministic execution mark, serializing it
//! to a [`CampaignSnapshot`], restoring from bytes and resuming must produce
//! exactly the report an uninterrupted run produces — same coverage, same
//! executions, same corpus, same findings, same interesting shapes.

use mufuzz::{
    CampaignEvent, CampaignProgress, CampaignReport, CampaignService, CampaignSnapshot,
    DeterminismProfile, FuzzerConfig, SnapshotError, SubmitOptions,
};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;

fn crowdsale_config(seed: u64) -> FuzzerConfig {
    FuzzerConfig::mufuzz(400)
        .with_rng_seed(seed)
        .with_workers(1)
}

fn uninterrupted_run(seed: u64) -> CampaignReport {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let handle = service.submit(compiled, crowdsale_config(seed)).unwrap();
    handle.wait()
}

/// Pause a campaign at `pause_at` executions and checkpoint it.
fn checkpoint_at(seed: u64, pause_at: usize) -> CampaignSnapshot {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let handle = service
        .submit_with(
            compiled,
            crowdsale_config(seed),
            SubmitOptions::pause_at(pause_at),
        )
        .unwrap();
    handle.join();
    match handle.poll() {
        CampaignProgress::Paused { executions } => {
            assert!(
                executions >= pause_at && executions < 400,
                "paused at {executions}, expected in [{pause_at}, 400)"
            );
        }
        other => panic!("expected a paused campaign, got {other:?}"),
    }
    handle.checkpoint().expect("paused campaign checkpoints")
}

/// The headline guarantee: pause -> snapshot -> byte round-trip -> resume
/// reproduces the uninterrupted campaign bit for bit, for several seeds.
#[test]
fn resumed_campaign_is_bit_identical_to_uninterrupted_run() {
    for seed in [11, 42, 7] {
        let baseline = uninterrupted_run(seed);
        let snapshot = checkpoint_at(seed, 150);
        assert!(snapshot.executions() >= 150);

        // Serialize / deserialize before resuming, so the test also proves
        // the binary format carries the full campaign state.
        let bytes = snapshot.to_bytes();
        let restored = CampaignSnapshot::from_bytes(&bytes).expect("snapshot parses");
        assert_eq!(restored, snapshot);

        let compiled = compile_source(&contracts::crowdsale().source).unwrap();
        let service = CampaignService::new(1);
        let resumed = service
            .resume(compiled, crowdsale_config(seed), &restored)
            .expect("snapshot resumes")
            .wait();

        assert_eq!(resumed.covered_edges, baseline.covered_edges, "seed {seed}");
        assert_eq!(resumed.executions, baseline.executions, "seed {seed}");
        assert_eq!(resumed.corpus_size, baseline.corpus_size, "seed {seed}");
        assert_eq!(resumed.culled_seeds, baseline.culled_seeds, "seed {seed}");
        assert_eq!(
            resumed.interesting_shapes, baseline.interesting_shapes,
            "seed {seed}"
        );
        assert_eq!(
            resumed.detected_classes(),
            baseline.detected_classes(),
            "seed {seed}"
        );
        // The timeline matches in every execution-indexed dimension (wall
        // clock stamps legitimately differ across process runs).
        assert_eq!(resumed.timeline.len(), baseline.timeline.len());
        for (r, b) in resumed.timeline.iter().zip(&baseline.timeline) {
            assert_eq!(r.executions, b.executions, "seed {seed}");
            assert_eq!(r.covered_edges, b.covered_edges, "seed {seed}");
        }
    }
}

/// The seed-11 snapshot constants from `parallel_campaign.rs`, reproduced
/// through a pause/checkpoint/resume cycle: the fleet service's resume path
/// still replays the historical sequential engine exactly.
#[test]
fn resume_reproduces_the_historical_snapshot_constants() {
    let snapshot = checkpoint_at(11, 150);
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let report = service
        .resume(compiled, crowdsale_config(11), &snapshot)
        .unwrap()
        .wait();
    assert_eq!(report.covered_edges, 18);
    assert_eq!(report.total_edges, 20);
    assert_eq!(report.executions, 400);
    assert_eq!(report.corpus_size, 14);
    assert!(report.findings.is_empty());
    assert_eq!(
        report.interesting_shapes.first().map(String::as_str),
        Some("invest->refund->withdraw")
    );
}

/// Pause a one-lane crowdsale campaign at each mark in `pauses` in turn,
/// round-tripping every checkpoint through bytes before resuming it, and
/// return the report of the final segment.
fn run_in_segments(config: FuzzerConfig, pauses: &[usize]) -> CampaignReport {
    let compiled = || compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let mut snapshot: Option<CampaignSnapshot> = None;
    for &mark in pauses {
        let options = SubmitOptions::pause_at(mark);
        let handle = match &snapshot {
            None => service
                .submit_with(compiled(), config.clone(), options)
                .unwrap(),
            Some(s) => service
                .resume_with(compiled(), config.clone(), s, options)
                .unwrap(),
        };
        handle.join();
        assert!(
            matches!(handle.poll(), CampaignProgress::Paused { .. }),
            "expected a pause at {mark}"
        );
        let bytes = handle.checkpoint().unwrap().to_bytes();
        snapshot = Some(CampaignSnapshot::from_bytes(&bytes).expect("snapshot parses"));
    }
    let last = snapshot.expect("at least one pause");
    service
        .resume(compiled(), config, &last)
        .expect("snapshot resumes")
        .wait()
}

/// Culling reorders and shrinks the corpus, which is where a lane's drawn
/// seed copy, uid-keyed mask write-back and checkpointed selection counts
/// meet a reshuffled corpus. A culling campaign paused twice and resumed
/// from bytes each time still ends bit-identical to the uninterrupted run.
#[test]
fn culling_campaign_resumes_bit_identically() {
    for seed in [3, 11, 42] {
        let config = FuzzerConfig::mufuzz(600)
            .with_rng_seed(seed)
            .with_workers(1)
            .with_corpus_culling(4);
        let compiled = compile_source(&contracts::crowdsale().source).unwrap();
        let baseline = CampaignService::new(1)
            .submit(compiled, config.clone())
            .unwrap()
            .wait();
        assert_eq!(baseline.culled_seeds, 7, "seed {seed}: culling ran");
        let resumed = run_in_segments(config, &[150, 300]);
        assert_eq!(resumed.executions, baseline.executions, "seed {seed}");
        assert_eq!(resumed.corpus_digest, baseline.corpus_digest, "seed {seed}");
        assert_eq!(
            resumed.coverage_digest, baseline.coverage_digest,
            "seed {seed}"
        );
        assert_eq!(resumed.corpus_size, baseline.corpus_size, "seed {seed}");
        assert_eq!(resumed.culled_seeds, baseline.culled_seeds, "seed {seed}");
        assert_eq!(
            resumed.interesting_shapes, baseline.interesting_shapes,
            "seed {seed}"
        );
        assert_eq!(resumed.findings, baseline.findings, "seed {seed}");
    }
}

/// A snapshot with a flipped version tag is rejected outright.
#[test]
fn mismatched_snapshot_version_is_rejected() {
    let snapshot = checkpoint_at(11, 100);
    let mut bytes = snapshot.to_bytes();
    bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
    match CampaignSnapshot::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion(9)) => {}
        other => panic!("expected UnsupportedVersion(9), got {other:?}"),
    }
}

/// Resuming against the wrong contract or the wrong lane count fails
/// loudly instead of corrupting a campaign. A free-running snapshot is one
/// lane; resumed with more workers the configuration runs rounds, so the
/// engines do not match.
#[test]
fn resume_validates_contract_and_lane_count() {
    let snapshot = checkpoint_at(11, 100);
    let service = CampaignService::new(1);

    let other = compile_source(&contracts::game().source).unwrap();
    match service.resume(other, crowdsale_config(11), &snapshot) {
        Err(SnapshotError::ContractMismatch) => {}
        other => panic!("expected ContractMismatch, got {:?}", other.err()),
    }

    let same = compile_source(&contracts::crowdsale().source).unwrap();
    match service.resume(same, crowdsale_config(11).with_workers(4), &snapshot) {
        Err(SnapshotError::ProfileMismatch {
            snapshot: 0,
            config: 1,
        }) => {}
        other => panic!("expected ProfileMismatch, got {:?}", other.err()),
    }
}

/// A snapshot that has already run more executions than the resume budget
/// allows is rejected up front. Resumed, it would overshoot the budget
/// inside a pool lane, and `wait()` would never return — so this test never
/// calls it.
#[test]
fn resume_rejects_a_snapshot_past_the_budget() {
    let snapshot = checkpoint_at(11, 305);
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let config = FuzzerConfig::mufuzz(200).with_rng_seed(11).with_workers(1);
    match service.resume(compiled, config, &snapshot) {
        Err(err @ SnapshotError::BudgetExceeded { executions, budget }) => {
            assert_eq!(executions, snapshot.executions());
            assert_eq!(budget, 200);
            assert!(err.to_string().contains("budget of 200"), "{err}");
        }
        other => panic!("expected BudgetExceeded, got {:?}", other.err()),
    }
}

/// Checkpointing a running or completed campaign is an error.
#[test]
fn checkpoint_requires_a_paused_campaign() {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let handle = service.submit(compiled, crowdsale_config(3)).unwrap();
    handle.join();
    assert_eq!(handle.poll(), CampaignProgress::Completed);
    match handle.checkpoint() {
        Err(SnapshotError::NotPaused) => {}
        other => panic!("expected NotPaused, got {:?}", other.err()),
    }
}

/// The event stream carries the campaign lifecycle: Started first, coverage
/// points in execution order, Completed last.
#[test]
fn event_stream_reports_the_campaign_lifecycle() {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    let handle = service.submit(compiled, crowdsale_config(11)).unwrap();
    handle.join();
    let events = handle.events();
    assert!(
        matches!(events.first(), Some(CampaignEvent::Started { contract }) if contract == "Crowdsale")
    );
    assert!(matches!(events.last(), Some(CampaignEvent::Completed)));
    let coverage: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::Coverage {
                executions,
                covered_edges,
                ..
            } => Some((*executions, *covered_edges)),
            _ => None,
        })
        .collect();
    assert!(
        coverage.len() >= 2,
        "expected several coverage events, got {coverage:?}"
    );
    for pair in coverage.windows(2) {
        assert!(
            pair[0].0 <= pair[1].0,
            "executions out of order: {coverage:?}"
        );
        assert!(
            pair[0].1 <= pair[1].1,
            "coverage not monotone: {coverage:?}"
        );
    }
    let report = handle.wait();
    assert_eq!(report.covered_edges, 18);
}

/// A finding-rich contract streams Finding events that match the final
/// report's deduplicated findings, on both engines: the one free-running
/// lane (one worker) and rounds (two workers).
#[test]
fn finding_events_match_the_final_report() {
    for workers in [1, 2] {
        let compiled = compile_source(&contracts::reentrant_bank().source).unwrap();
        let service = CampaignService::new(workers);
        let config = FuzzerConfig::mufuzz(400)
            .with_rng_seed(9)
            .with_workers(workers);
        let handle = service.submit(compiled, config).unwrap();
        handle.join();
        let events = handle.events();
        let streamed: usize = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::Finding(_)))
            .count();
        let report = handle.wait();
        assert!(
            !report.findings.is_empty(),
            "reentrant bank finds bugs at {workers} workers"
        );
        assert!(
            streamed >= report.findings.len(),
            "{workers} workers: streamed {streamed} findings, report has {}",
            report.findings.len()
        );
    }
}

/// Round-mode config used by the multi-worker checkpoint tests: small
/// rounds so a 400-execution campaign crosses several barriers and the
/// pause lands at a genuine mid-campaign round boundary.
fn round_config(seed: u64, workers: usize) -> FuzzerConfig {
    FuzzerConfig::mufuzz(400)
        .with_rng_seed(seed)
        .with_workers(workers)
        .with_determinism(DeterminismProfile::Round)
        .with_round_slots(4)
        .with_round_batch(16)
}

/// Pause a round-mode crowdsale campaign at the barrier after `pause_at`
/// executions and checkpoint it.
fn round_checkpoint_at(seed: u64, workers: usize, pause_at: usize) -> CampaignSnapshot {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(2);
    let handle = service
        .submit_with(
            compiled,
            round_config(seed, workers),
            SubmitOptions::pause_at(pause_at),
        )
        .unwrap();
    handle.join();
    match handle.poll() {
        CampaignProgress::Paused { executions } => {
            assert!(
                executions >= pause_at && executions < 400,
                "paused at {executions}, expected in [{pause_at}, 400)"
            );
        }
        other => panic!("expected a paused campaign, got {other:?}"),
    }
    handle
        .checkpoint()
        .expect("paused round campaign checkpoints")
}

/// Every worker-count-independent dimension of two round-mode reports is
/// bit-identical (wall-clock stamps and the `workers` field may differ).
fn assert_round_reports_identical(a: &CampaignReport, b: &CampaignReport, label: &str) {
    assert_eq!(a.executions, b.executions, "{label}: executions");
    assert_eq!(a.covered_edges, b.covered_edges, "{label}: covered_edges");
    assert_eq!(a.corpus_size, b.corpus_size, "{label}: corpus_size");
    assert_eq!(a.culled_seeds, b.culled_seeds, "{label}: culled_seeds");
    assert_eq!(a.corpus_digest, b.corpus_digest, "{label}: corpus digest");
    assert_eq!(
        a.coverage_digest, b.coverage_digest,
        "{label}: coverage digest"
    );
    assert_eq!(a.findings, b.findings, "{label}: findings");
    assert_eq!(
        a.interesting_shapes, b.interesting_shapes,
        "{label}: shapes"
    );
    assert_eq!(a.timeline.len(), b.timeline.len(), "{label}: timeline");
    for (ra, rb) in a.timeline.iter().zip(&b.timeline) {
        assert_eq!(ra.executions, rb.executions, "{label}: timeline executions");
        assert_eq!(
            ra.covered_edges, rb.covered_edges,
            "{label}: timeline coverage"
        );
    }
    assert_eq!(
        a.finding_records.len(),
        b.finding_records.len(),
        "{label}: finding records"
    );
    for (ra, rb) in a.finding_records.iter().zip(&b.finding_records) {
        assert_eq!(ra.seed_uid, rb.seed_uid, "{label}: record uid");
        assert_eq!(ra.round, rb.round, "{label}: record round");
        assert_eq!(ra.slot, rb.slot, "{label}: record slot");
        assert_eq!(ra.sequence, rb.sequence, "{label}: record trace");
        assert_eq!(
            ra.outcome_digest, rb.outcome_digest,
            "{label}: record digest"
        );
    }
}

/// The multi-worker checkpoint contract: pausing a `workers == 4` round-mode
/// campaign at a round barrier, round-tripping the snapshot through bytes
/// and resuming reproduces the uninterrupted run bit for bit — including
/// when the resumed campaign runs at a *different* worker count than the
/// one that was paused.
#[test]
fn round_mode_pause_resume_is_bit_identical_at_four_workers() {
    for seed in [11, 42] {
        let compiled = compile_source(&contracts::crowdsale().source).unwrap();
        let service = CampaignService::new(2);
        let baseline = service
            .submit(compiled, round_config(seed, 4))
            .unwrap()
            .wait();
        assert_eq!(baseline.executions, 400, "seed {seed}: full budget");

        let snapshot = round_checkpoint_at(seed, 4, 200);
        let bytes = snapshot.to_bytes();
        let restored = CampaignSnapshot::from_bytes(&bytes).expect("round snapshot parses");
        assert_eq!(restored, snapshot);

        // Resume at the original worker count and at a different one: the
        // round profile makes the lane count irrelevant to the result.
        for workers in [4usize, 2] {
            let compiled = compile_source(&contracts::crowdsale().source).unwrap();
            let service = CampaignService::new(2);
            let resumed = service
                .resume(compiled, round_config(seed, workers), &restored)
                .expect("round snapshot resumes at any worker count")
                .wait();
            assert_round_reports_identical(
                &baseline,
                &resumed,
                &format!("seed {seed} resumed at {workers} workers"),
            );
        }
    }
}

/// A round-mode snapshot only resumes under the round profile (and vice
/// versa): the determinism contract would silently break if a free-running
/// resume continued a round campaign.
#[test]
fn resume_rejects_a_determinism_profile_mismatch() {
    let snapshot = round_checkpoint_at(11, 4, 200);
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let service = CampaignService::new(1);
    match service.resume(compiled, crowdsale_config(11), &snapshot) {
        Err(SnapshotError::ProfileMismatch {
            snapshot: 1,
            config: 0,
        }) => {}
        other => panic!("expected ProfileMismatch, got {:?}", other.err()),
    }

    let free_snapshot = checkpoint_at(11, 150);
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    match service.resume(compiled, round_config(11, 1), &free_snapshot) {
        Err(SnapshotError::ProfileMismatch {
            snapshot: 0,
            config: 1,
        }) => {}
        other => panic!("expected ProfileMismatch, got {:?}", other.err()),
    }
}

/// Many campaigns on one service: all complete, each is deterministic, and
/// polling reports sensible progress states throughout.
#[test]
fn concurrent_campaigns_on_one_pool_stay_deterministic() {
    let sources = [
        contracts::crowdsale().source,
        contracts::game().source,
        contracts::reentrant_bank().source,
    ];
    let service = CampaignService::new(2);
    let handles: Vec<_> = sources
        .iter()
        .map(|s| {
            let compiled = compile_source(s).unwrap();
            service
                .submit(
                    compiled,
                    FuzzerConfig::mufuzz(250).with_rng_seed(5).with_workers(1),
                )
                .unwrap()
        })
        .collect();
    let concurrent: Vec<CampaignReport> = handles.into_iter().map(|h| h.wait()).collect();

    // A fresh single-thread service produces the same reports: the
    // `workers == 1` determinism contract is independent of pool size and
    // co-tenants.
    let serial_service = CampaignService::new(1);
    for (source, parallel_report) in sources.iter().zip(&concurrent) {
        let compiled = compile_source(source).unwrap();
        let serial = serial_service
            .submit(
                compiled,
                FuzzerConfig::mufuzz(250).with_rng_seed(5).with_workers(1),
            )
            .unwrap()
            .wait();
        assert_eq!(serial.contract, parallel_report.contract);
        assert_eq!(serial.covered_edges, parallel_report.covered_edges);
        assert_eq!(serial.executions, parallel_report.executions);
        assert_eq!(serial.corpus_size, parallel_report.corpus_size);
        assert_eq!(
            serial.interesting_shapes,
            parallel_report.interesting_shapes
        );
    }
}
