//! Fast CI smoke test: one bounded fuzzing campaign through the whole
//! pipeline — compile → deploy → sequence generation → mutation → oracles —
//! in a couple of seconds. CI runs this first (`cargo test --test smoke`) so
//! a broken pipeline fails in seconds rather than after the full suite.

use mufuzz::{Fuzzer, FuzzerConfig};
use mufuzz_analysis::{analyze_contract, plan_sequence};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;

#[test]
fn bounded_campaign_exercises_the_whole_pipeline() {
    // Compile the paper's Figure 1 running example (Crowdsale).
    let crowdsale = contracts::crowdsale();
    let compiled = compile_source(&crowdsale.source).expect("crowdsale should compile");
    assert!(
        !compiled.runtime.is_empty(),
        "compiler produced empty runtime bytecode"
    );
    assert!(
        !compiled.abi.functions.is_empty(),
        "ABI should expose public functions"
    );

    // The sequence planner must produce an ordering over the public functions.
    let flow = analyze_contract(&compiled.contract);
    let plan = plan_sequence(&flow);
    assert!(
        !plan.base_order.is_empty(),
        "sequence plan should order at least one function"
    );

    // A small, seeded campaign: deploy + mutate + execute + oracle checks.
    // `MUFUZZ_WORKERS` lets CI exercise round mode (a dedicated job runs
    // this test with 4 workers); the default is the one free-running lane.
    let workers = std::env::var("MUFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let config = FuzzerConfig::mufuzz(200)
        .with_rng_seed(7)
        .with_workers(workers);
    let mut fuzzer = Fuzzer::new(compiled, config).expect("deployment should succeed");
    let report = fuzzer.run();
    assert_eq!(report.workers, workers.max(1));

    assert!(report.executions > 0, "campaign executed no sequences");
    assert!(
        report.covered_edges > 0,
        "campaign covered no branch edges out of {}",
        report.total_edges
    );
    assert!(report.corpus_size > 0, "campaign retained no seeds");
}
