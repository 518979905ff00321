//! Experiment runners for the paper's tables and figures.
//!
//! Every experiment follows the same pattern: build (or receive) a corpus
//! dataset, run one or more fuzzing strategies / static analyzers on every
//! contract, and aggregate coverage or detection statistics the way the paper
//! reports them. Campaigns on different contracts are independent: each
//! experiment submits them all to one [`CampaignService`] — a single fleet
//! pool whose campaigns take turns on one run queue — and collects the
//! reports in submission order.
//! Campaigns stay single-lane, so per-contract results are deterministic for
//! a seed no matter how many pool threads the service has.

use mufuzz::{default_workers, CampaignHandle, CampaignReport, CampaignService, FuzzerConfig};
use mufuzz_baselines::{
    all_static_analyzers, coverage_baselines, FuzzRequest, FuzzingStrategy, MuFuzzStrategy,
};
use mufuzz_corpus::{BenchContract, Dataset};
use mufuzz_lang::compile_source;
use mufuzz_oracles::{score_contract, BugClass, DetectionScore};
use std::collections::BTreeMap;

/// Cap on the auto-sized fleet pool (`workers == 0`).
const MAX_WORKERS: usize = 8;

/// Resolve a `--workers` value to a fleet pool size: `0` means auto (the
/// machine's available parallelism, [`default_workers`], capped at 8),
/// anything else is taken literally.
pub fn fleet_threads(workers: usize) -> usize {
    if workers == 0 {
        default_workers().min(MAX_WORKERS)
    } else {
        workers
    }
}

/// Submit one strategy's campaign for every contract and collect the reports
/// in submission order (contracts that fail to compile or deploy yield
/// `None`). Submissions are non-blocking, so every campaign is in flight
/// before the first wait.
fn run_strategy_on(
    service: &CampaignService,
    strategy: &dyn FuzzingStrategy,
    contracts: &[BenchContract],
    budget: usize,
    rng_seed: u64,
) -> Vec<Option<CampaignReport>> {
    let req = FuzzRequest::new(budget, rng_seed);
    let handles: Vec<Option<CampaignHandle>> = contracts
        .iter()
        .map(|c| {
            let compiled = compile_source(&c.source).ok()?;
            strategy.submit(service, compiled, &req).ok()
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.map(CampaignHandle::wait))
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5: branch coverage over time
// ---------------------------------------------------------------------------

/// Averaged coverage-over-time curves for several tools on one dataset.
#[derive(Clone, Debug)]
pub struct CoverageSeries {
    /// Dataset label (`small` / `large`).
    pub dataset: String,
    /// Per-tool series of `(fraction of budget, mean coverage)` checkpoints.
    pub per_tool: Vec<(String, Vec<(f64, f64)>)>,
    /// Per-tool final mean coverage.
    pub final_coverage: Vec<(String, f64)>,
    /// Total sequence executions across every campaign (throughput numerator
    /// for the figure binaries' execs/sec reporting).
    pub total_executions: usize,
}

/// Sample a campaign's timeline at fixed budget fractions.
fn sample_timeline(report: &CampaignReport, budget: usize, checkpoints: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(checkpoints);
    for c in 1..=checkpoints {
        let target = budget * c / checkpoints;
        let coverage = report
            .timeline
            .iter()
            .filter(|p| p.executions <= target)
            .map(|p| p.coverage)
            .fold(0.0f64, f64::max);
        samples.push(coverage);
    }
    // The curve is monotone by construction of the filter + max.
    samples
}

/// Reproduce one panel of Figure 5: run MuFuzz, IR-Fuzz, ConFuzzius and sFuzz
/// on every contract of the dataset and average coverage at fixed fractions
/// of the execution budget.
pub fn coverage_over_time(
    dataset_label: &str,
    contracts: &[BenchContract],
    budget: usize,
    rng_seed: u64,
    checkpoints: usize,
    workers: usize,
) -> CoverageSeries {
    let service = CampaignService::new(fleet_threads(workers));
    let mut per_tool = Vec::new();
    let mut final_coverage = Vec::new();
    let mut total_executions = 0usize;
    for strategy in coverage_baselines() {
        let reports = run_strategy_on(&service, strategy.as_ref(), contracts, budget, rng_seed);
        let valid: Vec<&CampaignReport> = reports.iter().flatten().collect();
        total_executions += valid.iter().map(|r| r.executions).sum::<usize>();
        let mut curve = vec![0.0f64; checkpoints];
        for report in &valid {
            for (i, v) in sample_timeline(report, budget, checkpoints)
                .iter()
                .enumerate()
            {
                curve[i] += v;
            }
        }
        let n = valid.len().max(1) as f64;
        let points: Vec<(f64, f64)> = curve
            .iter()
            .enumerate()
            .map(|(i, total)| ((i + 1) as f64 / checkpoints as f64, total / n))
            .collect();
        let final_mean = valid.iter().map(|r| r.coverage).sum::<f64>() / valid.len().max(1) as f64;
        per_tool.push((strategy.name().to_string(), points));
        final_coverage.push((strategy.name().to_string(), final_mean));
    }
    CoverageSeries {
        dataset: dataset_label.to_string(),
        per_tool,
        final_coverage,
        total_executions,
    }
}

// ---------------------------------------------------------------------------
// Figure 6: overall coverage
// ---------------------------------------------------------------------------

/// Final mean coverage per tool on small and large contracts (Figure 6).
#[derive(Clone, Debug)]
pub struct OverallCoverage {
    /// Rows `(tool, mean coverage on small, mean coverage on large)`.
    pub rows: Vec<(String, f64, f64)>,
}

/// Reproduce Figure 6.
pub fn overall_coverage(
    small: &[BenchContract],
    large: &[BenchContract],
    budget: usize,
    rng_seed: u64,
    workers: usize,
) -> OverallCoverage {
    let service = CampaignService::new(fleet_threads(workers));
    let mut rows = Vec::new();
    for strategy in coverage_baselines() {
        let mean = |contracts: &[BenchContract]| -> f64 {
            let reports = run_strategy_on(&service, strategy.as_ref(), contracts, budget, rng_seed);
            let valid: Vec<&CampaignReport> = reports.iter().flatten().collect();
            if valid.is_empty() {
                return 0.0;
            }
            valid.iter().map(|r| r.coverage).sum::<f64>() / valid.len() as f64
        };
        rows.push((strategy.name().to_string(), mean(small), mean(large)));
    }
    OverallCoverage { rows }
}

// ---------------------------------------------------------------------------
// Table III: bug detection (true positives / false negatives)
// ---------------------------------------------------------------------------

/// Aggregated detection scores per tool over the D2 dataset (Table III).
#[derive(Clone, Debug)]
pub struct BugDetectionResult {
    /// `(tool name, is_fuzzer, aggregated score)` rows.
    pub rows: Vec<(String, bool, DetectionScore)>,
    /// Total number of annotations in the dataset.
    pub total_annotations: usize,
}

/// Reproduce Table III: run the static analyzers and all fuzzing strategies
/// on the annotated D2 corpus and score TP/FN/FP per bug class.
pub fn bug_detection(
    dataset: &Dataset,
    budget: usize,
    rng_seed: u64,
    workers: usize,
) -> BugDetectionResult {
    let service = CampaignService::new(fleet_threads(workers));
    let mut rows = Vec::new();

    // Static analyzers: pure pattern matching, cheap enough to run inline.
    for tool in all_static_analyzers() {
        let mut total = DetectionScore::default();
        for c in &dataset.contracts {
            let Ok(compiled) = compile_source(&c.source) else {
                continue;
            };
            let findings = tool.analyze(&compiled);
            total.merge(&score_contract(&findings, &c.annotations));
        }
        rows.push((tool.name().to_string(), false, total));
    }

    // Fuzzers: fan every contract's campaign out on the fleet.
    for strategy in mufuzz_baselines::all_fuzzers() {
        let reports = run_strategy_on(
            &service,
            strategy.as_ref(),
            &dataset.contracts,
            budget,
            rng_seed,
        );
        let mut total = DetectionScore::default();
        for (c, report) in dataset.contracts.iter().zip(&reports) {
            if let Some(report) = report {
                total.merge(&score_contract(&report.findings, &c.annotations));
            }
        }
        rows.push((strategy.name().to_string(), true, total));
    }

    BugDetectionResult {
        rows,
        total_annotations: dataset.total_annotations(),
    }
}

// ---------------------------------------------------------------------------
// Figure 7: ablation study
// ---------------------------------------------------------------------------

/// Ablation results (Figure 7): absolute coverage and alarm counts per
/// variant on small and large contracts.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Rows `(variant, mean coverage small, mean coverage large,
    /// alarms small, alarms large)`.
    pub rows: Vec<(String, f64, f64, usize, usize)>,
    /// Total sequence executions across every campaign (throughput numerator
    /// for the figure binaries' execs/sec reporting).
    pub total_executions: usize,
}

impl AblationResult {
    /// Coverage of a variant relative to the full system, on small contracts.
    pub fn relative_small(&self, variant: &str) -> Option<f64> {
        let full = self.rows.first()?.1;
        let row = self.rows.iter().find(|r| r.0 == variant)?;
        Some(if full > 0.0 { row.1 / full } else { 0.0 })
    }
}

/// Reproduce Figure 7: the full system against the three single-component
/// ablations, on samples of small and large contracts. Every campaign is one
/// free-running lane, so the rows are the same at any pool size.
pub fn ablation(
    small: &[BenchContract],
    large: &[BenchContract],
    budget: usize,
    rng_seed: u64,
    workers: usize,
) -> AblationResult {
    let full = FuzzerConfig::mufuzz(budget).with_workers(1);
    let variants: Vec<(String, FuzzerConfig)> = vec![
        ("MuFuzz (full)".into(), full.clone()),
        (
            "w/o sequence-aware mutation".into(),
            full.clone().without_sequence_aware(),
        ),
        (
            "w/o mask-guided mutation".into(),
            full.clone().without_mask_guidance(),
        ),
        ("w/o dynamic energy".into(), full.without_dynamic_energy()),
    ];
    let service = CampaignService::new(fleet_threads(workers));
    let mut rows = Vec::new();
    let mut total_executions = 0usize;
    for (name, config) in variants {
        let mut run_set = |contracts: &[BenchContract]| -> (f64, usize) {
            let handles: Vec<Option<CampaignHandle>> = contracts
                .iter()
                .map(|c| {
                    let compiled = compile_source(&c.source).ok()?;
                    let variant = config.clone().with_rng_seed(rng_seed);
                    service.submit(compiled, variant).ok()
                })
                .collect();
            let results: Vec<(f64, usize, usize)> = handles
                .into_iter()
                .map(|handle| match handle {
                    Some(handle) => {
                        let report = handle.wait();
                        (report.coverage, report.findings.len(), report.executions)
                    }
                    None => (0.0, 0, 0),
                })
                .collect();
            let n = results.len().max(1) as f64;
            let coverage = results.iter().map(|(c, _, _)| c).sum::<f64>() / n;
            let alarms = results.iter().map(|(_, a, _)| a).sum();
            total_executions += results.iter().map(|(_, _, e)| e).sum::<usize>();
            (coverage, alarms)
        };
        let (cov_small, alarms_small) = run_set(small);
        let (cov_large, alarms_large) = run_set(large);
        rows.push((name, cov_small, cov_large, alarms_small, alarms_large));
    }
    AblationResult {
        rows,
        total_executions,
    }
}

// ---------------------------------------------------------------------------
// Table IV: real-world case study
// ---------------------------------------------------------------------------

/// Results of the D3 real-world case study (Table IV).
#[derive(Clone, Debug, Default)]
pub struct RealWorldResult {
    /// Per bug class: `(reported alarms, true positives, false positives)`.
    pub per_class: BTreeMap<BugClass, (usize, usize, usize)>,
    /// Number of contracts with at least one alarm.
    pub flagged_contracts: usize,
    /// Number of contracts analysed.
    pub total_contracts: usize,
    /// Mean branch coverage across all contracts.
    pub average_coverage: f64,
}

impl RealWorldResult {
    /// Total reported alarms.
    pub fn total_reported(&self) -> usize {
        self.per_class.values().map(|(r, _, _)| r).sum()
    }

    /// Total true positives.
    pub fn total_tp(&self) -> usize {
        self.per_class.values().map(|(_, tp, _)| tp).sum()
    }

    /// Total false positives.
    pub fn total_fp(&self) -> usize {
        self.per_class.values().map(|(_, _, fp)| fp).sum()
    }
}

/// Reproduce Table IV: run full MuFuzz on the D3 dataset, count alarms per
/// class, and classify them as TP/FP against the injected ground truth.
pub fn real_world(
    dataset: &Dataset,
    budget: usize,
    rng_seed: u64,
    workers: usize,
) -> RealWorldResult {
    let service = CampaignService::new(fleet_threads(workers));
    let reports = run_strategy_on(
        &service,
        &MuFuzzStrategy,
        &dataset.contracts,
        budget,
        rng_seed,
    );
    let outcomes: Vec<Option<(CampaignReport, DetectionScore)>> = dataset
        .contracts
        .iter()
        .zip(reports)
        .map(|(c, report)| {
            report.map(|report| {
                let score = score_contract(&report.findings, &c.annotations);
                (report, score)
            })
        })
        .collect();

    let mut result = RealWorldResult {
        total_contracts: dataset.len(),
        ..Default::default()
    };
    let mut coverage_sum = 0.0;
    let mut analysed = 0usize;
    for outcome in outcomes.into_iter().flatten() {
        let (report, score) = outcome;
        analysed += 1;
        coverage_sum += report.coverage;
        if !report.findings.is_empty() {
            result.flagged_contracts += 1;
        }
        for class in BugClass::ALL {
            let cs = score.class(class);
            let reported = cs.true_positives + cs.false_positives;
            if reported == 0 {
                continue;
            }
            let entry = result.per_class.entry(class).or_insert((0, 0, 0));
            entry.0 += reported;
            entry.1 += cs.true_positives;
            entry.2 += cs.false_positives;
        }
    }
    result.average_coverage = if analysed > 0 {
        coverage_sum / analysed as f64
    } else {
        0.0
    };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_corpus::{contracts, d1_small, d2, d3, generate_contract, GeneratorConfig};

    fn tiny_small() -> Vec<BenchContract> {
        vec![
            contracts::crowdsale(),
            generate_contract("T1", &GeneratorConfig::small(77)),
        ]
    }

    #[test]
    fn fleet_threads_resolves_auto_and_literal_values() {
        assert!(fleet_threads(0) >= 1);
        assert!(fleet_threads(0) <= MAX_WORKERS);
        assert_eq!(fleet_threads(3), 3);
    }

    #[test]
    fn coverage_over_time_produces_monotone_curves_for_all_tools() {
        let series = coverage_over_time("small", &tiny_small(), 120, 5, 6, 1);
        assert_eq!(series.per_tool.len(), 4);
        for (tool, points) in &series.per_tool {
            assert_eq!(points.len(), 6, "{tool}");
            let mut prev = 0.0;
            for (_, cov) in points {
                assert!(*cov >= prev - 1e-9, "{tool} not monotone");
                prev = *cov;
            }
        }
        // MuFuzz final coverage is positive.
        assert!(series.final_coverage[0].1 > 0.0);
    }

    #[test]
    fn overall_coverage_reports_all_four_tools() {
        let small = tiny_small();
        let large = vec![generate_contract("L1", &GeneratorConfig::large(5))];
        let result = overall_coverage(&small, &large, 100, 9, 1);
        assert_eq!(result.rows.len(), 4);
        for (tool, s, l) in &result.rows {
            assert!(*s > 0.0, "{tool} small");
            assert!(*l > 0.0, "{tool} large");
        }
    }

    #[test]
    fn bug_detection_scores_mufuzz_above_zero_tp() {
        // A tiny D2-like dataset: three handwritten vulnerable contracts.
        let dataset = Dataset {
            name: "mini-D2".into(),
            contracts: vec![
                contracts::reentrant_bank(),
                contracts::tx_origin_auth(),
                contracts::suicidal_wallet(),
            ],
            historical_txs_per_contract: 0,
        };
        let result = bug_detection(&dataset, 250, 13, 1);
        assert_eq!(result.rows.len(), 10); // 5 static + 5 fuzzers
        let mufuzz = result
            .rows
            .iter()
            .find(|(name, is_fuzzer, _)| name == "MuFuzz" && *is_fuzzer)
            .unwrap();
        assert!(mufuzz.2.total_tp() >= 2, "tp = {}", mufuzz.2.total_tp());
        assert!(result.total_annotations >= 4);
    }

    #[test]
    fn ablation_contains_four_variants_with_positive_coverage() {
        let small = tiny_small();
        let large = vec![generate_contract("L2", &GeneratorConfig::large(6))];
        let result = ablation(&small, &large, 100, 17, 1);
        assert_eq!(result.rows.len(), 4);
        for (name, cs, cl, _, _) in &result.rows {
            assert!(*cs > 0.0, "{name}");
            assert!(*cl > 0.0, "{name}");
        }
        assert!(result.relative_small("MuFuzz (full)").unwrap() > 0.99);
        // Figure campaigns are one lane each: the pool size moves nothing.
        assert_eq!(ablation(&small, &large, 100, 17, 2).rows, result.rows);
        // The full row is the mean of one-lane campaigns on the same seed.
        let one_lane: Vec<f64> = small
            .iter()
            .map(|c| {
                let compiled = compile_source(&c.source).unwrap();
                let config = FuzzerConfig::mufuzz(100).with_rng_seed(17).with_workers(1);
                mufuzz::Fuzzer::new(compiled, config)
                    .unwrap()
                    .run()
                    .coverage
            })
            .collect();
        let mean = one_lane.iter().sum::<f64>() / one_lane.len() as f64;
        assert_eq!(result.rows[0].1, mean);
    }

    #[test]
    fn real_world_study_reports_coverage_and_flags() {
        let dataset = d3(4);
        let result = real_world(&dataset, 150, 23, 1);
        assert_eq!(result.total_contracts, 4);
        assert!(result.average_coverage > 0.0);
        assert!(result.total_reported() >= result.total_tp());
    }

    #[test]
    fn dataset_builders_integrate_with_experiments() {
        // Smoke test: a one-contract slice of each generated dataset runs
        // through the coverage experiment.
        let d1 = d1_small(1);
        let series = coverage_over_time("d1", &d1.contracts, 60, 3, 4, 1);
        assert_eq!(series.per_tool.len(), 4);
        let d2set = d2(0);
        assert!(d2set.len() >= 12);
    }
}
