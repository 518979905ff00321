//! Integration tests for the parallel campaign engine.
//!
//! The contract: `workers == 1` replays the historical single-threaded
//! engine bit for bit (the snapshot constants below were captured from the
//! sequential implementation before the worker refactor), multi-worker
//! campaigns stay functionally equivalent (coverage, corpus growth, oracle
//! findings), and oracle results merge correctly across workers.

use mufuzz::{CampaignReport, Fuzzer, FuzzerConfig};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;
use mufuzz_oracles::BugClass;

fn run_crowdsale(seed: u64, workers: usize) -> CampaignReport {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let config = FuzzerConfig::mufuzz(400)
        .with_rng_seed(seed)
        .with_workers(workers);
    Fuzzer::new(compiled, config).unwrap().run()
}

/// Snapshot test: a single worker must reproduce the exact campaign the
/// sequential engine produced for the same seed. The expected values were
/// recorded by running the pre-refactor implementation (400 executions on
/// the Crowdsale benchmark contract); the corpus and coverage digests were
/// recorded before both determinism profiles shared one mask-probe pass and
/// one mutant loop, and pin every seed the corpus ends with.
#[test]
fn workers_one_reproduces_the_sequential_baseline() {
    let report = run_crowdsale(11, 1);
    assert_eq!(report.covered_edges, 18);
    assert_eq!(report.total_edges, 20);
    assert_eq!(report.executions, 400);
    assert_eq!(report.corpus_size, 14);
    assert!(report.findings.is_empty());
    assert_eq!(
        report.interesting_shapes.first().map(String::as_str),
        Some("invest->refund->withdraw")
    );
    assert_eq!(report.corpus_digest, 0x3917_44de_5034_5069);
    assert_eq!(report.coverage_digest, 0x7635_dd01_01ab_ad54);

    let report = run_crowdsale(42, 1);
    assert_eq!(report.covered_edges, 18);
    assert_eq!(report.corpus_size, 11);
    assert_eq!(
        report.interesting_shapes.first().map(String::as_str),
        Some("invest->refund->withdraw->invest->refund->withdraw")
    );
    assert_eq!(report.corpus_digest, 0xd42c_1291_0385_75ba);
    assert_eq!(report.coverage_digest, 0x7635_dd01_01ab_ad54);
}

/// Every execution counts on the coverage-over-time curve, mask probes
/// included: a single-worker campaign records a point at every multiple of
/// the snapshot interval plus the final point, exactly as round mode does.
#[test]
fn workers_one_timeline_has_a_point_at_every_snapshot_boundary() {
    for seed in [11, 42] {
        let report = run_crowdsale(seed, 1);
        // 400 executions over the default 64 timeline points: one point every
        // 6 executions (66 of them), then the final point at 400.
        let every = 400 / FuzzerConfig::mufuzz(400).timeline_points;
        let expected: Vec<usize> = (1..=400 / every)
            .map(|k| k * every)
            .chain(std::iter::once(400))
            .collect();
        let got: Vec<usize> = report.timeline.iter().map(|p| p.executions).collect();
        assert_eq!(got, expected, "seed {seed}: timeline executions");
    }
}

/// Two single-worker runs with the same seed are identical in every
/// reported dimension, including the timeline.
#[test]
fn single_worker_campaigns_are_fully_deterministic() {
    let a = run_crowdsale(7, 1);
    let b = run_crowdsale(7, 1);
    assert_eq!(a.covered_edges, b.covered_edges);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.corpus_size, b.corpus_size);
    assert_eq!(a.interesting_shapes, b.interesting_shapes);
    assert_eq!(a.detected_classes(), b.detected_classes());
    assert_eq!(a.timeline.len(), b.timeline.len());
    for (pa, pb) in a.timeline.iter().zip(&b.timeline) {
        assert_eq!(pa.executions, pb.executions);
        assert_eq!(pa.covered_edges, pb.covered_edges);
    }
}

/// The concurrent engine reaches the same coverage plateau as the
/// sequential one on the benchmark contract and respects the budget.
#[test]
fn four_workers_match_sequential_coverage_on_crowdsale() {
    let sequential = run_crowdsale(11, 1);
    let parallel = run_crowdsale(11, 4);
    assert_eq!(parallel.workers, 4);
    // Exact budget: execution slots are reserved atomically before every
    // execution (including mask probes), so a multi-worker campaign consumes
    // the budget exactly — no more overshoot by in-flight mutants.
    assert_eq!(parallel.executions, 400);
    // 400 executions saturate this contract from many seeds; the parallel
    // schedule must find (nearly) the same plateau regardless of interleaving.
    assert!(
        parallel.covered_edges + 2 >= sequential.covered_edges,
        "parallel {} vs sequential {}",
        parallel.covered_edges,
        sequential.covered_edges
    );
    assert!(parallel.corpus_size >= 3);
}

/// Oracle findings survive the per-worker monitor merge: the reentrant bank
/// is detected with a multi-worker campaign too.
#[test]
fn parallel_campaign_detects_reentrancy() {
    let compiled = compile_source(&contracts::reentrant_bank().source).unwrap();
    let config = FuzzerConfig::mufuzz(600).with_rng_seed(5).with_workers(4);
    let report = Fuzzer::new(compiled, config).unwrap().run();
    assert!(
        report.detected_classes().contains(&BugClass::Reentrancy),
        "findings: {:?}",
        report.findings
    );
}

/// Exact-budget invariant: `report.executions <= max_executions` at every
/// worker count. Before the atomic reservation counter, workers checked the
/// budget and executed afterwards, overshooting by up to `workers - 1`
/// in-flight mutants plus outstanding mask-probe passes.
#[test]
fn budget_is_exact_at_any_worker_count() {
    for workers in [1, 2, 4, 8] {
        let compiled = compile_source(&contracts::crowdsale().source).unwrap();
        let config = FuzzerConfig::mufuzz(150)
            .with_rng_seed(11)
            .with_workers(workers);
        let report = Fuzzer::new(compiled, config).unwrap().run();
        assert!(
            report.executions <= 150,
            "workers={workers}: {} executions overshoot the budget of 150",
            report.executions
        );
        // With no wall-clock budget and a non-empty corpus the campaign also
        // consumes the whole budget.
        assert_eq!(
            report.executions, 150,
            "workers={workers}: budget left unconsumed"
        );
    }
}

/// Corpus culling drops provably dominated seeds without changing what the
/// campaign achieves: same coverage plateau, same detections, smaller
/// corpus. Culling is opt-in (it reshuffles corpus indices, breaking the
/// `workers == 1` bit-identity contract), so the baseline run here is the
/// exact snapshot campaign from above.
#[test]
fn culling_drops_dominated_seeds_without_losing_coverage_or_detections() {
    let baseline = run_crowdsale(3, 1);
    assert_eq!(baseline.culled_seeds, 0, "culling must be off by default");
    assert!(!baseline.detected_classes().is_empty());

    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let config = FuzzerConfig::mufuzz(400)
        .with_rng_seed(3)
        .with_workers(1)
        .with_corpus_culling(8);
    let culled = Fuzzer::new(compiled, config).unwrap().run();

    assert!(
        culled.culled_seeds > 0,
        "no dominated seed was dropped (corpus {})",
        culled.corpus_size
    );
    assert!(
        culled.corpus_size < baseline.corpus_size + culled.culled_seeds,
        "culling did not shrink the live corpus"
    );
    assert_eq!(
        culled.covered_edges, baseline.covered_edges,
        "culling changed the coverage plateau"
    );
    assert_eq!(
        culled.detected_classes(),
        baseline.detected_classes(),
        "culling changed the detections"
    );
    assert_eq!(culled.executions, 400);
}
