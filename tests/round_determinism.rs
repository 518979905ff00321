//! Cross-worker-count determinism suite for round mode.
//!
//! The round-mode contract: with [`DeterminismProfile::Round`] — and for
//! every campaign with more than one worker, whatever its profile — the
//! campaign advances in barrier-synchronized rounds of fixed work slots, so
//! **any** worker count produces the bit-identical `CampaignReport` — same
//! coverage bitmap, same corpus (by uid), same findings, same replayable
//! finding records, same timeline. This suite is the multi-worker analogue
//! of the `workers == 1` snapshot test in `tests/fleet_service.rs`: 4 seeds
//! x 3 contracts, compared across `workers in {1, 2, 4, 8}`, each
//! multi-worker count under both the round and the default profile.
//!
//! CI runs this file once per worker count with `MUFUZZ_ROUND_WORKERS=<n>`
//! set, which narrows the comparison to `{1, n}` so the matrix legs stay
//! fast while still covering 2, 4 and 8 workers between them.

use mufuzz::{CampaignReport, CampaignService, DeterminismProfile, FuzzerConfig};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;

const SEEDS: [u64; 4] = [3, 11, 29, 42];

fn bench_contracts() -> Vec<(&'static str, String)> {
    vec![
        ("crowdsale", contracts::crowdsale().source),
        ("game", contracts::game().source),
        ("reentrant_bank", contracts::reentrant_bank().source),
    ]
}

/// Worker counts to compare: `{1, 2, 4, 8}` by default, `{1, n}` when the CI
/// matrix pins `MUFUZZ_ROUND_WORKERS=n`.
fn worker_counts() -> Vec<usize> {
    match std::env::var("MUFUZZ_ROUND_WORKERS") {
        Ok(v) => {
            let n: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("bad MUFUZZ_ROUND_WORKERS: {v:?}"));
            if n == 1 {
                vec![1]
            } else {
                vec![1, n]
            }
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn round_config(seed: u64, workers: usize) -> FuzzerConfig {
    // Small rounds (4 slots x 16 executions) so a 300-execution campaign
    // spans several barriers — the suite exercises multi-round freezing and
    // commit, not just a single jumbo round.
    FuzzerConfig::mufuzz(300)
        .with_rng_seed(seed)
        .with_workers(workers)
        .with_determinism(DeterminismProfile::Round)
        .with_round_slots(4)
        .with_round_batch(16)
}

fn run_round(source: &str, config: FuzzerConfig) -> CampaignReport {
    let compiled = compile_source(source).unwrap();
    let service = CampaignService::new(2);
    service.submit(compiled, config).unwrap().wait()
}

/// Assert two reports are bit-identical in every worker-count-independent
/// dimension. `workers`, wall-clock stamps and the informational
/// `FindingRecord::workers` field legitimately differ; everything else —
/// including the corpus and coverage digests — must match exactly.
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, label: &str) {
    assert_eq!(a.contract, b.contract, "{label}: contract");
    assert_eq!(a.executions, b.executions, "{label}: executions");
    assert_eq!(a.covered_edges, b.covered_edges, "{label}: covered_edges");
    assert_eq!(a.total_edges, b.total_edges, "{label}: total_edges");
    assert_eq!(a.coverage, b.coverage, "{label}: coverage");
    assert_eq!(a.corpus_size, b.corpus_size, "{label}: corpus_size");
    assert_eq!(a.culled_seeds, b.culled_seeds, "{label}: culled_seeds");
    assert_eq!(a.corpus_digest, b.corpus_digest, "{label}: corpus digest");
    assert_eq!(
        a.coverage_digest, b.coverage_digest,
        "{label}: coverage bitmap digest"
    );
    assert_eq!(a.findings, b.findings, "{label}: findings");
    assert_eq!(
        a.interesting_shapes, b.interesting_shapes,
        "{label}: interesting shapes"
    );
    assert_eq!(
        a.timeline.len(),
        b.timeline.len(),
        "{label}: timeline length"
    );
    for (pa, pb) in a.timeline.iter().zip(&b.timeline) {
        assert_eq!(pa.executions, pb.executions, "{label}: timeline executions");
        assert_eq!(
            pa.covered_edges, pb.covered_edges,
            "{label}: timeline coverage"
        );
    }
    assert_eq!(
        a.finding_records.len(),
        b.finding_records.len(),
        "{label}: finding record count"
    );
    for (ra, rb) in a.finding_records.iter().zip(&b.finding_records) {
        assert_eq!(
            ra.contract_hash, rb.contract_hash,
            "{label}: record contract"
        );
        assert_eq!(ra.seed_uid, rb.seed_uid, "{label}: record seed uid");
        assert_eq!(ra.round, rb.round, "{label}: record round");
        assert_eq!(ra.slot, rb.slot, "{label}: record slot");
        assert_eq!(ra.finding, rb.finding, "{label}: record finding");
        assert_eq!(ra.sequence, rb.sequence, "{label}: record sequence");
        assert_eq!(
            ra.outcome_digest, rb.outcome_digest,
            "{label}: record outcome digest"
        );
    }
}

/// The headline property: round mode yields the bit-identical report at every
/// worker count, across 4 seeds x 3 contracts. A multi-worker campaign under
/// the default profile runs the same rounds, so it joins the comparison too.
#[test]
fn round_mode_reports_are_identical_across_worker_counts() {
    let workers = worker_counts();
    for (name, source) in bench_contracts() {
        for seed in SEEDS {
            let baseline = run_round(&source, round_config(seed, workers[0]));
            assert_eq!(baseline.executions, 300, "{name} seed {seed}: full budget");
            for &w in &workers[1..] {
                for profile in [DeterminismProfile::Round, DeterminismProfile::FreeRunning] {
                    let config = round_config(seed, w).with_determinism(profile);
                    let report = run_round(&source, config);
                    assert_eq!(report.workers, w);
                    assert_reports_identical(
                        &baseline,
                        &report,
                        &format!("{name} seed {seed} workers {w} {profile:?} profile"),
                    );
                }
            }
        }
    }
}

/// An absolute pin on one round-mode campaign (crowdsale, seed 11, 400
/// executions, one worker, default rounds): the cross-worker comparisons
/// above hold for any trajectory, this one holds the trajectory itself. A
/// default-profile campaign with more than one worker runs the same rounds,
/// so at 2 and 4 workers it is this campaign — same digests, findings and
/// finding records.
#[test]
fn round_mode_reproduces_the_pinned_crowdsale_campaign() {
    let source = contracts::crowdsale().source;
    let config = |workers| {
        FuzzerConfig::mufuzz(400)
            .with_rng_seed(11)
            .with_workers(workers)
    };
    let report = run_round(
        &source,
        config(1).with_determinism(DeterminismProfile::Round),
    );
    assert_eq!(report.executions, 400);
    assert_eq!(report.corpus_digest, 0x1722_99bc_8fa0_fa21);
    assert_eq!(report.coverage_digest, 0x5ae8_fe98_7139_df1c);
    for workers in [2, 4] {
        let default_profile = run_round(&source, config(workers));
        assert_reports_identical(
            &report,
            &default_profile,
            &format!("default profile at {workers} workers"),
        );
    }
}

/// Round-mode runs are also reproducible run-to-run at the *same* worker
/// count — the trivial half of the contract, but the one that catches
/// time-dependent state leaking into the report.
#[test]
fn round_mode_is_reproducible_at_a_fixed_worker_count() {
    let (_, source) = &bench_contracts()[0];
    let first = run_round(source, round_config(11, 4));
    let second = run_round(source, round_config(11, 4));
    assert_reports_identical(&first, &second, "crowdsale seed 11 rerun");
}

/// Round mode enables corpus culling by default (the uid re-keying removed
/// the bit-identity objection that keeps it off for the one free-running
/// lane); the free-running default and explicit overrides are unchanged.
#[test]
fn round_mode_enables_culling_by_default() {
    use mufuzz::DEFAULT_ROUND_CULL_INTERVAL;
    let round = FuzzerConfig::mufuzz(100).with_determinism(DeterminismProfile::Round);
    assert_eq!(
        round.effective_cull_interval(),
        Some(DEFAULT_ROUND_CULL_INTERVAL)
    );
    let free = FuzzerConfig::mufuzz(100).with_workers(1);
    assert_eq!(free.effective_cull_interval(), None);
    // An explicit setting always wins over the profile default.
    assert_eq!(
        round
            .clone()
            .with_corpus_culling(8)
            .effective_cull_interval(),
        Some(8)
    );
    assert_eq!(
        round.without_corpus_culling().effective_cull_interval(),
        Some(usize::MAX)
    );
}

/// Default-on culling is invariant: a round campaign with the default cull
/// interval produces exactly the report an explicitly-unculled campaign
/// produces — turning culling on by default did not perturb the round-mode
/// trajectory of existing campaigns.
#[test]
fn default_culling_is_invariant_for_round_mode_findings() {
    for (name, source) in bench_contracts() {
        for seed in [11, 29] {
            let culled = run_round(&source, round_config(seed, 2));
            let unculled = run_round(&source, round_config(seed, 2).without_corpus_culling());
            let label = format!("{name} seed {seed}");
            assert_eq!(unculled.culled_seeds, 0, "{label}: culling disabled");
            assert_eq!(culled.findings, unculled.findings, "{label}: findings");
            assert_eq!(
                culled.covered_edges, unculled.covered_edges,
                "{label}: coverage"
            );
            assert_eq!(
                culled.coverage_digest, unculled.coverage_digest,
                "{label}: coverage bitmap"
            );
            assert!(
                culled.corpus_size <= unculled.corpus_size,
                "{label}: culling never grows the corpus"
            );
        }
    }
}

/// An aggressive cull interval that demonstrably fires still preserves the
/// finding set and the coverage on campaigns where only dominated seeds get
/// dropped — and the culled campaign stays bit-identical across worker
/// counts, since culling runs at the barrier in stable order.
#[test]
fn active_culling_preserves_findings_and_worker_count_identity() {
    let source = contracts::game().source;
    for seed in [11, 29] {
        let config = |workers| {
            FuzzerConfig::mufuzz(600)
                .with_rng_seed(seed)
                .with_workers(workers)
                .with_determinism(DeterminismProfile::Round)
                .with_round_slots(4)
                .with_round_batch(16)
                .with_corpus_culling(8)
        };
        let culled = run_round(&source, config(2));
        assert!(culled.culled_seeds > 0, "seed {seed}: culling fired");
        let unculled = run_round(&source, config(2).without_corpus_culling());
        assert_eq!(culled.findings, unculled.findings, "seed {seed}: findings");
        assert_eq!(
            culled.covered_edges, unculled.covered_edges,
            "seed {seed}: coverage"
        );
        // Culling at the barrier is part of the determinism contract: the
        // same culled campaign is bit-identical at any worker count.
        for workers in [1, 4] {
            let other = run_round(&source, config(workers));
            assert_reports_identical(&culled, &other, &format!("seed {seed} workers {workers}"));
        }
    }
}

/// The reentrant bank yields replayable finding records under round mode,
/// and each record round-trips through its integrity-hashed byte encoding.
#[test]
fn round_mode_records_findings_with_provenance() {
    let report = run_round(&contracts::reentrant_bank().source, round_config(9, 2));
    assert!(
        !report.finding_records.is_empty(),
        "reentrant bank produces replayable records"
    );
    for record in &report.finding_records {
        assert_eq!(record.workers, 2);
        let bytes = record.to_bytes();
        let parsed = mufuzz::FindingRecord::from_bytes(&bytes).expect("record parses");
        assert_eq!(&parsed, record);
    }
}
