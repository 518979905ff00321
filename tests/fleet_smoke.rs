//! Fleet smoke test: several campaigns share ONE pool and take turns on its
//! run queue.
//!
//! This file holds exactly one `#[test]` on purpose: the assertion below
//! reads the process-global pool-thread counter, and a sibling test spawning
//! its own pool in parallel would race the delta.

use mufuzz::{pool_threads_spawned, CampaignService, FuzzerConfig};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;

/// The acceptance check for fleet mode: submitting a whole sweep of
/// contracts to a 4-thread service spawns exactly 4 OS threads — campaigns
/// (one lane each, the default) run as lane tasks on the shared pool's
/// queue, not as nested per-campaign worker threads.
#[test]
fn sweep_runs_on_one_shared_pool_with_no_nested_spawns() {
    let before = pool_threads_spawned();
    let service = CampaignService::new(4);
    assert_eq!(service.thread_count(), 4);

    let budget = 300;
    let handles: Vec<_> = [
        contracts::crowdsale().source,
        contracts::game().source,
        contracts::reentrant_bank().source,
    ]
    .iter()
    .map(|source| {
        let compiled = compile_source(source).expect("corpus contract compiles");
        service
            .submit(compiled, FuzzerConfig::mufuzz(budget).with_rng_seed(11))
            .expect("deployment succeeds")
    })
    .collect();

    for handle in handles {
        let report = handle.wait();
        assert_eq!(
            report.executions, budget,
            "{}: budget not consumed exactly",
            report.contract
        );
        assert!(report.covered_edges > 0, "{}: no coverage", report.contract);
    }

    assert_eq!(
        pool_threads_spawned() - before,
        4,
        "campaigns must run on the service's pool threads only — \
         a larger delta means a nested thread spawn survived the redesign"
    );
}
