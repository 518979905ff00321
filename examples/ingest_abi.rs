//! Ingestion quickstart: fuzz a contract that exists only as deployment
//! artefacts — an ABI JSON array plus a runtime-bytecode hex blob — with no
//! toy-language source at all.
//!
//! Run with:
//! ```text
//! cargo run --example ingest_abi [abi.json] [bytecode.hex]
//! ```
//!
//! With no arguments it fuzzes the committed `tests/fixtures/vault_token`
//! pair: a hand-assembled 164-byte runtime with a 4-function dispatcher
//! (`set(uint256)`, `get()`, `sum(uint256[])`, `echo(bytes)`) whose
//! data-dependent branches only open for well-typed calldata — which is
//! exactly what the lane-shaped mutation layer produces for dynamic
//! `uint256[]`/`bytes` parameters.

use mufuzz::{Fuzzer, FuzzerConfig};
use mufuzz_corpus::ingest;

fn main() {
    let mut args = std::env::args().skip(1);
    let abi_path = args
        .next()
        .unwrap_or_else(|| "tests/fixtures/vault_token.abi.json".into());
    let hex_path = args
        .next()
        .unwrap_or_else(|| "tests/fixtures/vault_token.hex".into());

    // 1. Ingest: ABI JSON + bytecode hex -> the same `CompiledContract`
    //    shape the toy-language compiler emits.
    let abi_json = std::fs::read_to_string(&abi_path)
        .unwrap_or_else(|e| panic!("cannot read {abi_path}: {e}"));
    let bytecode_hex = std::fs::read_to_string(&hex_path)
        .unwrap_or_else(|e| panic!("cannot read {hex_path}: {e}"));
    let ingested =
        ingest("Ingested", &abi_json, &bytecode_hex).expect("ABI + bytecode should ingest");
    println!(
        "ingested `{}`: {} bytecode bytes, {} callable functions ({} skipped)",
        ingested.compiled.name,
        ingested.compiled.runtime.len(),
        ingested.compiled.abi.functions.len(),
        ingested.skipped.len(),
    );
    for f in &ingested.compiled.abi.functions {
        let sel: String = f.selector.iter().map(|b| format!("{b:02x}")).collect();
        println!("  0x{sel} {}", f.signature());
    }
    for skipped in &ingested.skipped {
        println!("  (skipped {skipped}: unsupported parameter type)");
    }

    // 2. Fuzz exactly like a compiled contract: the ingested blob feeds the
    //    same edge index, program cache and block-lowered interpreter. One
    //    lane by default; `MUFUZZ_WORKERS` opts in to rounds.
    let mut config = FuzzerConfig::mufuzz(1_000).with_rng_seed(42);
    if let Some(workers) = std::env::var("MUFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        config = config.with_workers(workers);
    }
    let mut fuzzer = Fuzzer::new(ingested.compiled, config).expect("deployment should succeed");
    let report = fuzzer.run();

    // 3. Inspect the results.
    println!(
        "coverage: {:.1}% ({} of {} branch edges) after {} executions in {} ms \
         ({:.0} execs/sec on {} worker(s))",
        report.coverage_percent(),
        report.covered_edges,
        report.total_edges,
        report.executions,
        report.elapsed_ms,
        report.execs_per_sec(),
        report.workers
    );
    println!("corpus size: {} seeds", report.corpus_size);
    if report.findings.is_empty() {
        println!("no vulnerabilities reported");
    } else {
        println!("findings:");
        for finding in &report.findings {
            println!("  - {finding}");
        }
    }
    assert!(
        report.covered_edges > 0,
        "an ingested campaign must cover at least one branch edge"
    );
}
