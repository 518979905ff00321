//! Campaign benchmark for the MuFuzz reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <d1-sweep|d2-detect|one-contract|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload first runs untraced through the public campaign API
//! (`compile_source`, `Fuzzer`, `CampaignReport`): a warm-up repetition of
//! a set-up phase and a campaign phase, then timed repetitions until
//! `--seconds` have passed, reporting medians over the timed repetitions.
//! The seed fixes every count a repetition produces (coverage, corpus,
//! findings), so every repetition is checked against the warm-up.
//!
//! With `--trace 1` it then runs the same campaigns once more through the
//! benchmark's traced runner, which times every call into each layer, and
//! reports per-layer metrics instead of the end-to-end ones; the spans are
//! written to `perfbench/out/`.
//!
//! Human-readable lines come first, among them all eight end-to-end
//! metrics; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Its end-to-end metrics
//! are the four that never read 0; detection counts and `failed_share` go
//! to the per-layer set.

mod spans;
mod stats;
mod traced;
mod untraced;
mod workload;

use mufuzz_evm::keccak256;
use mufuzz_oracles::{score_contract, DetectionScore};
use spans::{Layer, LayerTimes};
use stats::{median, percentile, ratio, RunRecord};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Campaign, Workload};

/// Timed repetitions every untraced phase runs after its warm-up, however
/// short `--seconds` is.
const MIN_TIMED_REPS: usize = 3;
/// Campaigns still running this long after their workload started count
/// as failed, so a hung campaign cannot keep the benchmark from reporting.
const WORKLOAD_DEADLINE: Duration = Duration::from_secs(150);
/// `keccak256` timing: rounds of calls on distinct 64-byte preimages.
const KECCAK_ROUNDS: usize = 5;
const KECCAK_CALLS: usize = 20_000;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::from_name(&workload).ok_or(format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Metrics and failure accounting collected over the workloads of a run.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn push(&mut self, prefix: &str, name: &str, value: f64, unit: &'static str) {
        println!("  {name:<36} {value:>16.4} {unit}");
        self.metrics.push(Metric {
            name: format!("{prefix}{name}"),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    stats::json_string(&m.name),
                    m.value,
                    stats::json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload <d1-sweep|d2-detect|one-contract|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let record = RunRecord::collect();
    println!("{}", record.to_json());
    let mut report = Report::default();
    for &workload in &args.workloads {
        let prefix = if args.workloads.len() > 1 {
            format!("{}/", workload.name())
        } else {
            String::new()
        };
        let hung = run_workload(workload, &args, record.nproc, &prefix, &mut report);
        if hung {
            break;
        }
    }
    println!("{}", report.to_json());
    let _ = std::io::stdout().flush();
    // A campaign that missed its deadline may still hold a runner thread;
    // exiting ends it with the process.
    std::process::exit(0);
}

/// Run one workload and add its metrics to `report`. Returns true when a
/// campaign missed the completion deadline.
fn run_workload(
    workload: Workload,
    args: &Args,
    nproc: usize,
    prefix: &str,
    report: &mut Report,
) -> bool {
    let deadline = Instant::now() + WORKLOAD_DEADLINE;
    let campaigns = workload.campaigns(args.seed, nproc);
    // The first repetition warms the allocator and caches (on d1-sweep it
    // ran a third slower than the rest) and is the reference the others
    // must repeat; only the repetitions after it are timed.
    let mut reps = vec![untraced::run_rep(&campaigns, nproc, deadline)];
    let timed_start = Instant::now();
    while !reps[reps.len() - 1].deadline_missed {
        let mut rep = untraced::run_rep(&campaigns, nproc, deadline);
        untraced::check_repeat(&reps[0], &mut rep);
        reps.push(rep);
        let timed = reps.len() - 1;
        let elapsed = timed_start.elapsed();
        if (timed >= MIN_TIMED_REPS && elapsed.as_secs_f64() >= args.seconds)
            || Instant::now() + elapsed / timed as u32 > deadline
        {
            break;
        }
    }
    let hung = reps.iter().any(|r| r.deadline_missed);
    let timed = &reps[1..];
    report.attempted += reps.len() * campaigns.len();
    let failures: Vec<&String> = reps
        .iter()
        .flat_map(|r| r.results.iter().filter_map(|res| res.as_ref().err()))
        .collect();
    report.failed += failures.len();
    for reason in failures.iter().take(5) {
        eprintln!("{}: failed campaign: {reason}", workload.name());
    }

    let first = &reps[0];
    let ok: Vec<&mufuzz::CampaignReport> = first.results.iter().flatten().collect();
    let mut score = DetectionScore::default();
    for (campaign, result) in campaigns.iter().zip(&first.results) {
        if let Ok(r) = result {
            score.merge(&score_contract(&r.findings, &campaign.contract.annotations));
        }
    }
    let untraced_eps = median_by(timed, untraced::Rep::execs_per_sec);
    let attempted = (reps.len() * campaigns.len()) as f64;

    println!(
        "{}: {} timed repetitions of {} campaigns after a warm-up, nproc {nproc}, seed {}, \
         {:.1}% of wall time stolen",
        workload.name(),
        timed.len(),
        campaigns.len(),
        args.seed,
        100.0 * median_by(timed, |r| r.stolen_share)
    );
    let per_rep: Vec<String> = timed
        .iter()
        .map(|r| format!("{:.0}", r.execs_per_sec()))
        .collect();
    println!("  execs/s per repetition: {}", per_rep.join(" "));
    let mut end_to_end = Report::default();
    end_to_end.push(prefix, "execs_per_sec", untraced_eps, "execs/s");
    end_to_end.push(prefix, "setup_s", median_by(timed, |r| r.setup_s), "s");
    end_to_end.push(
        prefix,
        "coverage_pct",
        ratio(
            ok.iter().map(|r| r.coverage_percent()).sum(),
            ok.len() as f64,
        ),
        "%",
    );
    end_to_end.push(
        prefix,
        "peak_rss_mb",
        median_by(timed, |r| r.peak_rss_mb),
        "MB",
    );
    // Detection and failure counts can read 0, so they are reported here
    // and in the traced run's per-layer metrics, not as bounded metrics.
    let mut counts = Report::default();
    counts.push(prefix, "findings_tp", score.total_tp() as f64, "count");
    counts.push(prefix, "findings_fp", score.total_fp() as f64, "count");
    counts.push(prefix, "findings_fn", score.total_fn() as f64, "count");
    counts.push(
        prefix,
        "failed_share",
        failures.len() as f64 / attempted,
        "fraction",
    );

    if !args.trace {
        report.metrics.extend(end_to_end.metrics);
        return hung;
    }

    let cpu_s: f64 = timed.iter().map(|r| r.cpu_s).sum();
    let executions: usize = timed.iter().map(|r| r.executions).sum();
    let mut layers = Report::default();
    layers.metrics.extend(counts.metrics);
    layers.push(
        prefix,
        "fleet.cpu_util",
        median_by(timed, |r| r.cpu_s / (r.campaign_s * nproc as f64)),
        "fraction",
    );
    layers.push(
        prefix,
        "campaign.corpus_size",
        ok.iter().map(|r| r.corpus_size).sum::<usize>() as f64,
        "count",
    );
    layers.push(
        prefix,
        "campaign.culled_seeds",
        ok.iter().map(|r| r.culled_seeds).sum::<usize>() as f64,
        "count",
    );
    if !hung {
        let untraced = UntracedSummary {
            first,
            execs_per_sec: untraced_eps,
            cpu_ns_per_exec: cpu_s * 1e9 / executions.max(1) as f64,
        };
        traced_metrics(
            workload,
            args,
            nproc,
            &campaigns,
            &untraced,
            prefix,
            &mut layers,
        );
        report.attempted += campaigns.len();
        report.failed += layers.failed;
    }
    report.metrics.extend(layers.metrics);
    hung
}

/// Median of `f` over `reps`.
fn median_by(reps: &[untraced::Rep], f: impl Fn(&untraced::Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// What the per-layer metrics take from the untraced run.
struct UntracedSummary<'a> {
    first: &'a untraced::Rep,
    execs_per_sec: f64,
    cpu_ns_per_exec: f64,
}

/// Run the traced runner on `campaigns` and push the per-layer metrics.
fn traced_metrics(
    workload: Workload,
    args: &Args,
    nproc: usize,
    campaigns: &[Campaign],
    untraced: &UntracedSummary,
    prefix: &str,
    out: &mut Report,
) {
    let origin = Instant::now();
    let run = traced::run(campaigns, nproc, origin);
    let mut times = LayerTimes::default();
    for trace in run.campaigns.iter().flatten() {
        for spans in &trace.spans {
            times.add(spans);
        }
    }
    let failed = run.campaigns.iter().filter(|c| c.is_err()).count();
    out.failed += failed;
    for reason in run
        .campaigns
        .iter()
        .filter_map(|c| c.as_ref().err())
        .take(5)
    {
        eprintln!("{}: failed traced campaign: {reason}", workload.name());
    }
    let same_coverage = run
        .campaigns
        .iter()
        .zip(&untraced.first.results)
        .filter(|(t, u)| match (t, u) {
            (Ok(t), Ok(u)) => t.covered_edges == u.covered_edges && t.findings == u.findings,
            _ => false,
        })
        .count();
    // A single-lane traced campaign replays the library's decisions, so it
    // ends where the untraced one did; round-form campaigns need not.
    println!(
        "{}: traced runner, {} campaigns ({failed} failed); {same_coverage} ended with the \
         untraced run's coverage and findings",
        workload.name(),
        run.campaigns.len()
    );

    let c = &run.counts;
    let execs = c.executions as f64;
    let txs = c.txs as f64;
    let seeds = c.seeds_built as f64;
    let ms = |layer| times.self_ns(layer) / 1e6;
    let per_exec = |layer| ratio(times.self_ns(layer), execs);
    let traced_eps = ratio(execs, run.campaign_s);
    let exec_ns: Vec<f64> = times.executor_ns.iter().map(|&ns| ns as f64).collect();

    out.push(prefix, "lang.compile_ms", ms(Layer::Compile), "ms");
    out.push(prefix, "analysis.cfg_ms", ms(Layer::Cfg), "ms");
    out.push(prefix, "analysis.dataflow_ms", ms(Layer::Dataflow), "ms");
    out.push(prefix, "mutation.harvest_ms", ms(Layer::Harvest), "ms");
    out.push(prefix, "executor.deploy_ms", ms(Layer::Deploy), "ms");
    out.push(
        prefix,
        "seedgen.ns_per_exec",
        per_exec(Layer::Seedgen),
        "ns",
    );
    out.push(
        prefix,
        "mutation.ns_per_exec",
        per_exec(Layer::Mutation),
        "ns",
    );
    out.push(
        prefix,
        "executor.ns_per_exec",
        per_exec(Layer::Executor),
        "ns",
    );
    out.push(
        prefix,
        "executor.ns_per_tx",
        ratio(times.self_ns(Layer::Executor), txs),
        "ns",
    );
    out.push(
        prefix,
        "executor.exec_us_p50",
        percentile(&exec_ns, 50.0) / 1e3,
        "us",
    );
    out.push(
        prefix,
        "executor.exec_us_p99",
        percentile(&exec_ns, 99.0) / 1e3,
        "us",
    );
    out.push(
        prefix,
        "executor.exec_samples",
        exec_ns.len() as f64,
        "count",
    );
    out.push(
        prefix,
        "executor.ns_per_instr",
        ratio(times.self_ns(Layer::Executor), c.instrs as f64),
        "ns",
    );
    out.push(prefix, "executor.txs_per_exec", ratio(txs, execs), "count");
    out.push(
        prefix,
        "executor.instrs_per_tx",
        ratio(c.instrs as f64, txs),
        "count",
    );
    out.push(
        prefix,
        "executor.tx_success_ratio",
        ratio(c.tx_successes as f64, txs),
        "fraction",
    );
    out.push(
        prefix,
        "executor.sha3_tx_share",
        ratio(c.sha3_txs as f64, txs),
        "fraction",
    );
    out.push(prefix, "evm.keccak256_ns", keccak256_ns(args.seed), "ns");
    out.push(
        prefix,
        "oracles.ns_per_exec",
        per_exec(Layer::Oracles),
        "ns",
    );
    out.push(
        prefix,
        "coverage.ns_per_exec",
        per_exec(Layer::Coverage),
        "ns",
    );
    out.push(
        prefix,
        "coverage.new_edge_ratio",
        ratio(c.merges_with_new_edges as f64, c.merges as f64),
        "fraction",
    );
    out.push(
        prefix,
        "energy.ns_per_admit",
        ratio(times.self_ns(Layer::Energy), seeds),
        "ns",
    );
    out.push(
        prefix,
        "analysis.distance_ns_per_admit",
        ratio(times.self_ns(Layer::Distance), seeds),
        "ns",
    );
    out.push(
        prefix,
        "campaign.admit_ratio",
        ratio(c.admissions as f64, execs),
        "fraction",
    );
    out.push(
        prefix,
        "mask.probe_share",
        ratio(c.probe_executions as f64, execs),
        "fraction",
    );
    out.push(
        prefix,
        "mask.frozen_fraction",
        ratio(c.frozen_fraction_sum, c.masks as f64),
        "fraction",
    );
    out.push(
        prefix,
        "campaign.glue_ns_per_exec",
        untraced.cpu_ns_per_exec - ratio(times.loop_self_ns(), execs),
        "ns",
    );
    out.push(
        prefix,
        "trace.untraced_execs_per_sec",
        untraced.execs_per_sec,
        "execs/s",
    );
    out.push(prefix, "trace.traced_execs_per_sec", traced_eps, "execs/s");
    out.push(
        prefix,
        "trace.overhead",
        1.0 - ratio(traced_eps, untraced.execs_per_sec),
        "fraction",
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.csv", workload.name()));
    let lanes = run.campaigns.iter().flatten().map(|t| t.spans.as_slice());
    match spans::write_csv(&path, lanes) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Median time of one `keccak256` call on a 64-byte `(key ‖ slot)` mapping
/// preimage, over several rounds of distinct preimages.
fn keccak256_ns(seed: u64) -> f64 {
    let mut preimage = [0u8; 64];
    preimage[..8].copy_from_slice(&seed.to_be_bytes());
    let rounds: Vec<f64> = (0..KECCAK_ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..KECCAK_CALLS {
                preimage[56..].copy_from_slice(&(i as u64).to_be_bytes());
                let digest = keccak256(std::hint::black_box(&preimage));
                preimage[8] ^= digest[0];
            }
            start.elapsed().as_nanos() as f64 / KECCAK_CALLS as f64
        })
        .collect();
    median(&rounds)
}
