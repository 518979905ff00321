//! Throughput benchmark of the campaign engine: fuzz the quickstart
//! PiggyBank contract with 1 worker (the free-running lane) and with N
//! workers (barrier-synchronized rounds), then sweep three corpus contracts
//! through one `CampaignService` fleet pool, sequentially and concurrently. A
//! raw-harness interpreter A/B isolates the execution tiers from scheduler
//! effects: four kernels — a straight-line local-arithmetic mixer, a
//! branchy unrolled Collatz-style router, a storage-heavy mapping ledger
//! and the ingested real-bytecode fixture — each executed through
//! `ContractHarness` directly under both billing disciplines (the same
//! threaded handlers one instruction at a time, reported as `predecoded`,
//! and block settlement with fused superinstructions, as `threaded`), each
//! tier's rate the median of 12 interleaved chunks, so one disturbed chunk
//! moves neither side. Each
//! campaign rate (1 worker, N workers) is the median of
//! [`SAMPLES`] campaigns run in alternation, and each side of the fleet
//! sweep the median of as many alternating sweeps, so one descheduled
//! thread moves one sample rather than a gated rate. Reports execs/sec for
//! each and emits a machine-readable `BENCH_throughput.json` so CI can track
//! the performance trajectory, the scaling claim, the fleet-concurrency
//! claim and the block-tier speedup across PRs.
//!
//! Run with:
//! ```text
//! cargo run --release --example throughput            # N = 4 workers
//! MUFUZZ_WORKERS=8 cargo run --release --example throughput
//! MUFUZZ_EXECS=100000 cargo run --release --example throughput
//! cargo run --release --example throughput -- --kernel branchy
//! ```
//!
//! `--kernel <straight_line|branchy|storage|ingested|all>` restricts the
//! interpreter A/B to one kernel (default: all four).

use mufuzz::{
    CampaignReport, CampaignService, ContractHarness, Fuzzer, FuzzerConfig, Sequence, TxInput,
};
use mufuzz_corpus::{contracts, ingest};
use mufuzz_evm::{ExecFrame, U256};
use mufuzz_lang::{compile_source, CompiledContract};
use std::time::Instant;

const SOURCE: &str = r#"
contract PiggyBank {
    address owner;
    uint256 total;
    mapping(address => uint256) deposits;

    constructor() public { owner = msg.sender; }

    function deposit() public payable {
        require(msg.value > 0);
        deposits[msg.sender] += msg.value;
        total += msg.value;
    }

    function withdraw(uint256 amount) public {
        require(deposits[msg.sender] >= amount);
        deposits[msg.sender] -= amount;
        total -= amount;
        msg.sender.transfer(amount);
    }

    function smash() public {
        if (total > 10 ether) {
            bug();
            selfdestruct(msg.sender);
        }
    }
}
"#;

/// Campaigns per measured rate. Odd, so the median is one of the runs.
const SAMPLES: usize = 5;

/// A rate measured [`SAMPLES`] times (campaigns or fleet sweeps): the
/// median run, its rate, and every run's rate.
struct Rate<T> {
    median: T,
    rate: f64,
    samples: Vec<f64>,
}

impl<T> Rate<T> {
    fn of(mut runs: Vec<T>, rate_of: fn(&T) -> f64) -> Rate<T> {
        let samples: Vec<f64> = runs.iter().map(rate_of).collect();
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
        let median = runs.swap_remove(order[runs.len() / 2]);
        Rate {
            rate: rate_of(&median),
            median,
            samples,
        }
    }

    fn execs_per_sec(&self) -> f64 {
        self.rate
    }
}

fn campaign(workers: usize, executions: usize) -> CampaignReport {
    let compiled = compile_source(SOURCE).expect("contract should compile");
    let config = FuzzerConfig::mufuzz(executions)
        .with_rng_seed(42)
        .with_workers(workers);
    Fuzzer::new(compiled, config)
        .expect("deployment should succeed")
        .run()
}

/// The interpreter-A/B kernels, each stressing a different part of the
/// dispatcher. The first three are toy-language sources; `ingested` is the
/// committed real-bytecode fixture (ABI JSON + runtime hex, no source) and
/// measures the full ingestion execution path including per-transaction
/// typed calldata encoding for its dynamic `uint256[]` parameter.
const KERNELS: [&str; 4] = ["straight_line", "branchy", "storage", "ingested"];

/// Kernel source for the interpreter A/B. Scheduler, corpus and
/// branch-record costs are identical across the tiers, so a mixed campaign
/// workload buries the dispatch difference in symmetric overhead — these
/// kernels isolate it, each from a different angle:
///
/// * `straight_line` — an unrolled run of `x = x * c1 + c2` over
///   memory-resident locals: pure arithmetic throughput, the best case for
///   block settlement.
/// * `branchy` — an unrolled Collatz-style router whose every step takes a
///   data-dependent branch: short blocks and dense `JUMPI`s, the workload
///   where per-instruction dispatch mispredicts most.
/// * `storage` — a mapping-and-counter ledger dominated by
///   `balances[msg.sender] +=` / `total +=` idioms: the `MapSlot*`,
///   `PushSLoad`/`PushSStore` and `StorageExprStore` fusion arms.
fn kernel_source(kernel: &str) -> String {
    match kernel {
        "straight_line" => {
            let mut body = String::new();
            for k in 0..48u64 {
                body.push_str(&format!(
                    "        x = x * {} + {};\n",
                    3 + k % 7,
                    11 + k % 13
                ));
                if k % 4 == 3 {
                    body.push_str("        y = y + x;\n");
                }
            }
            format!(
                "contract Mixer {{\n    uint256 acc;\n    function mix(uint256 seed) public returns (uint256) {{\n        uint256 x = seed;\n        uint256 y = 1;\n{body}        acc = y;\n        return y;\n    }}\n}}\n"
            )
        }
        "branchy" => {
            let mut body = String::new();
            for k in 0..24u64 {
                body.push_str(&format!(
                    "        if (x % 2 == 0) {{ x = x / 2; y = y + {}; }} else {{ x = x * 3 + 1; y = y + {}; }}\n",
                    3 + k % 5,
                    7 + k % 11
                ));
                if k % 6 == 5 {
                    body.push_str(
                        "        if (x > 1000000) { x = x % 1000003; } else { y = y * 2 + 1; }\n",
                    );
                }
            }
            format!(
                "contract Router {{\n    uint256 acc;\n    function route(uint256 seed) public returns (uint256) {{\n        uint256 x = seed + 27;\n        uint256 y = 0;\n{body}        acc = y;\n        return y;\n    }}\n}}\n"
            )
        }
        "storage" => {
            let mut body = String::new();
            for k in 0..8u64 {
                body.push_str(&format!(
                    "        balances[msg.sender] += amount + {k};\n        cells[{}] += amount;\n        total += amount + {};\n        checksum += total + balances[msg.sender];\n",
                    k % 4,
                    k + 1
                ));
            }
            format!(
                "contract Ledger {{\n    uint256 total;\n    uint256 checksum;\n    mapping(address => uint256) balances;\n    mapping(uint256 => uint256) cells;\n    function churn(uint256 amount) public returns (uint256) {{\n{body}        return total;\n    }}\n}}\n"
            )
        }
        other => panic!("unknown kernel {other:?} (expected straight_line|branchy|storage)"),
    }
}

/// The compiled form of a kernel: toy-language sources compile, the
/// `ingested` kernel goes through the ABI + bytecode front door instead.
fn kernel_compiled(kernel: &str) -> CompiledContract {
    if kernel == "ingested" {
        let root = env!("CARGO_MANIFEST_DIR");
        let abi = std::fs::read_to_string(format!("{root}/tests/fixtures/vault_token.abi.json"))
            .expect("fixture ABI should be readable");
        let hex = std::fs::read_to_string(format!("{root}/tests/fixtures/vault_token.hex"))
            .expect("fixture bytecode should be readable");
        ingest("VaultToken", &abi, &hex)
            .expect("fixture should ingest")
            .compiled
    } else {
        compile_source(&kernel_source(kernel)).expect("kernel should compile")
    }
}

/// The entry-point transaction of a kernel.
fn kernel_tx(kernel: &str) -> TxInput {
    if kernel == "ingested" {
        // `sum(uint256[])`: lane 0 selects a 4-element array, lanes 1..5
        // are the elements — every transaction walks the dispatcher, the
        // calldata loop and the head/tail ABI encoder.
        let lanes: Vec<U256> = [4u64, 11, 22, 33, 44]
            .iter()
            .map(|&v| U256::from_u64(v))
            .collect();
        return TxInput::new("sum", 0, U256::ZERO, &lanes);
    }
    let function = match kernel {
        "straight_line" => "mix",
        "branchy" => "route",
        _ => "churn",
    };
    TxInput::new(function, 0, U256::ZERO, &[U256::from_u64(12345)])
}

/// One timed chunk of the interpreter A/B: `iters` transactions of the
/// kernel through `ContractHarness` pinned to one tier. Returns tx/sec.
fn tier_chunk(kernel: &str, block_lowering: bool, iters: usize) -> f64 {
    let compiled = kernel_compiled(kernel);
    let config = FuzzerConfig::default().with_block_lowering(block_lowering);
    let harness = ContractHarness::new(compiled, &config).expect("kernel should deploy");
    let seq = Sequence::new(vec![kernel_tx(kernel)]);
    let mut frame = ExecFrame::new();
    let start = Instant::now();
    let mut successes = 0usize;
    for _ in 0..iters {
        successes += harness.execute_sequence_with(&seq, &mut frame).successes;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(successes == iters, "kernel transactions should all succeed");
    iters as f64 / elapsed
}

/// Median rates for one kernel on both tiers over `rounds` chunks each,
/// interleaved so a machine-noise spike hits both sides instead of biasing
/// one, and one lucky or unlucky chunk moves neither. Returns
/// `(predecoded, threaded)` tx/sec.
fn kernel_rates(kernel: &str, rounds: usize, iters: usize) -> (f64, f64) {
    tier_chunk(kernel, true, iters / 2); // warm-up: page in both tiers
    tier_chunk(kernel, false, iters / 2);
    let (mut pre, mut thr) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        pre.push(tier_chunk(kernel, false, iters));
        thr.push(tier_chunk(kernel, true, iters));
    }
    (median(pre), median(thr))
}

/// The median of `samples`: the mean of the middle two for an even count.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn print_rate(label: &str, rate: &Rate<CampaignReport>) {
    let report = &rate.median;
    let samples: Vec<String> = rate.samples.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "{label} workers={}: median of {} runs {:.0} execs/sec, {} execs in {} ms \
         ({:.1}% coverage; runs: {})",
        report.workers,
        rate.samples.len(),
        report.execs_per_sec(),
        report.executions,
        report.elapsed_ms,
        report.coverage_percent(),
        samples.join(" ")
    );
}

/// One JSON record per measured configuration: the median run, plus every
/// run's rate under `samples`.
fn json_entry(rate: &Rate<CampaignReport>) -> String {
    let report = &rate.median;
    let samples: Vec<String> = rate.samples.iter().map(|r| format!("{r:.1}")).collect();
    format!(
        concat!(
            "{{\"workers\": {}, \"executions\": {}, ",
            "\"elapsed_ms\": {}, \"execs_per_sec\": {:.1}, \"coverage_percent\": {:.2}, ",
            "\"samples\": [{}]}}"
        ),
        report.workers,
        report.executions,
        report.elapsed_ms,
        report.execs_per_sec(),
        report.coverage_percent(),
        samples.join(", ")
    )
}

/// JSON record for one interpreter tier of the block-lowering A/B (the
/// historical top-level keys CI tracks across PRs).
fn tier_json(block_lowering: bool, rate: f64) -> String {
    format!(
        "{{\"block_lowering\": {}, \"benchmark\": \"local-arithmetic kernel\", \"execs_per_sec\": {:.1}}}",
        block_lowering, rate
    )
}

/// JSON record for one kernel: both tiers side by side.
fn kernel_json(kernel: &str, pre: f64, thr: f64) -> String {
    format!(
        "\"{}\": {{\"predecoded\": {:.1}, \"threaded\": {:.1}}}",
        kernel, pre, thr
    )
}

/// Sweep three corpus contracts through one fleet pool of `threads`
/// threads. `concurrent` submits all three up front (the fleet case);
/// otherwise each campaign is waited out before the next is submitted (the
/// sequential baseline). Each campaign keeps the default single lane, so the
/// concurrent sweep's parallelism is the three campaigns running at once.
fn fleet_sweep(threads: usize, executions: usize, concurrent: bool) -> Sweep {
    let sources = [
        contracts::crowdsale().source,
        contracts::game().source,
        contracts::reentrant_bank().source,
    ];
    let service = CampaignService::new(threads);
    let config = || FuzzerConfig::mufuzz(executions).with_rng_seed(42);
    let start = Instant::now();
    let total: usize = if concurrent {
        let handles: Vec<_> = sources
            .iter()
            .map(|s| {
                let compiled = compile_source(s).expect("corpus contract compiles");
                service.submit(compiled, config()).expect("deploys")
            })
            .collect();
        handles.into_iter().map(|h| h.wait().executions).sum()
    } else {
        sources
            .iter()
            .map(|s| {
                let compiled = compile_source(s).expect("corpus contract compiles");
                service
                    .submit(compiled, config())
                    .expect("deploys")
                    .wait()
                    .executions
            })
            .sum()
    };
    Sweep {
        threads,
        total,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// One fleet sweep: pool threads, total executions and wall time.
struct Sweep {
    threads: usize,
    total: usize,
    elapsed_s: f64,
}

impl Sweep {
    fn execs_per_sec(&self) -> f64 {
        self.total as f64 / self.elapsed_s
    }
}

/// JSON record for one side of the fleet sweep: the median sweep, plus
/// every sweep's rate under `samples`.
fn fleet_json(rate: &Rate<Sweep>) -> String {
    let sweep = &rate.median;
    let samples: Vec<String> = rate.samples.iter().map(|r| format!("{r:.1}")).collect();
    format!(
        concat!(
            "{{\"threads\": {}, \"executions\": {}, \"elapsed_ms\": {:.3}, ",
            "\"execs_per_sec\": {:.1}, \"samples\": [{}]}}"
        ),
        sweep.threads,
        sweep.total,
        sweep.elapsed_s * 1000.0,
        rate.execs_per_sec(),
        samples.join(", ")
    )
}

fn main() {
    let executions = std::env::var("MUFUZZ_EXECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let workers = std::env::var("MUFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let args: Vec<String> = std::env::args().collect();
    let kernel_filter = args
        .iter()
        .position(|a| a == "--kernel")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let kernels: Vec<&str> = if kernel_filter == "all" {
        KERNELS.to_vec()
    } else {
        let name = KERNELS
            .iter()
            .find(|k| **k == kernel_filter)
            .unwrap_or_else(|| {
                panic!(
                    "unknown --kernel {kernel_filter:?} \
                     (expected straight_line|branchy|storage|ingested|all)"
                )
            });
        vec![name]
    };

    // Warm-up run so page faults and lazy allocations do not skew the
    // single-worker number.
    campaign(1, executions / 10);

    // The scaling A/B, two campaigns per sample in alternation so drift in
    // the host's speed reaches both rates alike: one free-running lane, and
    // the same campaign on N workers, which runs barrier-synchronized rounds
    // (bit-identical at any worker count).
    let (mut singles, mut parallels) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        singles.push(campaign(1, executions));
        parallels.push(campaign(workers, executions));
    }
    let single = Rate::of(singles, CampaignReport::execs_per_sec);
    let parallel = Rate::of(parallels, CampaignReport::execs_per_sec);
    print_rate("free-running", &single);
    print_rate("rounds", &parallel);
    println!(
        "speedup vs single: {:.2}x",
        parallel.execs_per_sec() / single.execs_per_sec()
    );

    // The interpreter A/B: each kernel through the raw harness on both
    // tiers. Every per-instruction gas charge, stack bounds check and
    // dispatch decision the lowering, its superinstructions and the
    // threaded handler chain remove shows up directly here.
    let mut kernel_entries = Vec::new();
    let mut legacy_keys: Option<(f64, f64)> = None;
    let mut block_tier_rates: Vec<(&str, f64)> = Vec::new();
    for kernel in &kernels {
        let (pre, thr) = kernel_rates(kernel, 12, 5000);
        println!(
            "interpreter A/B ({kernel}): predecoded {pre:.0}, threaded {thr:.0} ({:.2}x)",
            thr / pre
        );
        kernel_entries.push(kernel_json(kernel, pre, thr));
        block_tier_rates.push((kernel, thr));
        // The historical top-level keys track the straight-line kernel
        // (falling back to whatever ran when the suite is filtered).
        if *kernel == "straight_line" || legacy_keys.is_none() {
            legacy_keys = Some((pre, thr));
        }
    }
    let (predecoded, block_lowered) = legacy_keys.expect("at least one kernel runs");

    // Ingestion guardrail: the real-bytecode kernel pays for per-transaction
    // head/tail ABI encoding on top of dispatch, but its block-tier
    // throughput must stay within 5% of the storage kernel's — the encoding
    // layer is not allowed to become the bottleneck of ingested campaigns
    // (asserted after the JSON record is written).
    let rate_of = |name: &str| {
        block_tier_rates
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, r)| *r)
    };
    let ingested_ratio = match (rate_of("storage"), rate_of("ingested")) {
        (Some(storage), Some(ingested)) => {
            println!(
                "ingested vs storage (block tier): {ingested:.0} vs {storage:.0} tx/sec ({:.2}x)",
                ingested / storage
            );
            Some(ingested / storage)
        }
        _ => None,
    };

    // The fleet sweep: three corpus contracts through one CampaignService,
    // sequentially on one pool thread vs concurrently on `workers` threads.
    // A sweep lasts a few tens of milliseconds, so each side is the median
    // of SAMPLES sweeps run in alternation.
    let fleet_budget = (executions / 10).max(500);
    let (mut seq_sweeps, mut conc_sweeps) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        seq_sweeps.push(fleet_sweep(1, fleet_budget, false));
        conc_sweeps.push(fleet_sweep(workers, fleet_budget, true));
    }
    let fleet_seq = Rate::of(seq_sweeps, Sweep::execs_per_sec);
    let fleet_conc = Rate::of(conc_sweeps, Sweep::execs_per_sec);
    let runs = |rate: &Rate<Sweep>| -> String {
        let samples: Vec<String> = rate.samples.iter().map(|r| format!("{r:.0}")).collect();
        samples.join(" ")
    };
    println!(
        "fleet sweep (3 contracts x {fleet_budget} execs, median of {SAMPLES}): \
         sequential {:.0} execs/sec (runs: {}), concurrent x{workers} {:.0} execs/sec \
         (runs: {}) ({:.2}x)",
        fleet_seq.execs_per_sec(),
        runs(&fleet_seq),
        fleet_conc.execs_per_sec(),
        runs(&fleet_conc),
        fleet_conc.execs_per_sec() / fleet_seq.execs_per_sec()
    );

    // Machine-readable record for the CI perf-smoke artifact, written
    // before the in-process checks so one noisy sample cannot lose it.
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"piggybank\",\n  \"budget\": {},\n",
            "  \"single\": {},\n  \"parallel\": {},\n",
            "  \"predecoded\": {},\n  \"block_lowered\": {},\n",
            "  \"kernels\": {{{}}},\n",
            "  \"fleet_sequential\": {},\n  \"fleet_concurrent\": {}\n}}\n"
        ),
        executions,
        json_entry(&single),
        json_entry(&parallel),
        tier_json(false, predecoded),
        tier_json(true, block_lowered),
        kernel_entries.join(", "),
        fleet_json(&fleet_seq),
        fleet_json(&fleet_conc)
    );
    let path =
        std::env::var("MUFUZZ_BENCH_JSON").unwrap_or_else(|_| "BENCH_throughput.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if let Some(ratio) = ingested_ratio {
        assert!(
            ratio >= 0.95,
            "ingested kernel runs at {ratio:.2}x the storage kernel's block-tier \
             throughput (floor is 0.95x)"
        );
    }
}
