//! Fleet-mode quickstart: several contracts fuzzed concurrently on one
//! `CampaignService`, with live event streaming and a checkpoint/resume
//! round trip.
//!
//! Run with:
//! ```text
//! cargo run --example fleet_campaigns
//! MUFUZZ_WORKERS=8 cargo run --example fleet_campaigns
//! ```

use mufuzz::prelude::*;
use mufuzz_corpus::contracts;
use std::thread;
use std::time::Duration;

fn main() {
    let threads = std::env::var("MUFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // One pool for the whole fleet; every campaign's lane takes turns on
    // the pool's run queue, a few mutant batches at a time. Each campaign
    // keeps the default single lane, so the pool's parallelism comes from
    // fuzzing the contracts side by side.
    let service = CampaignService::new(threads);
    println!("fleet pool: {} thread(s)\n", service.thread_count());

    // Submit the sweep up front — submit() never blocks.
    let handles: Vec<CampaignHandle> = [
        contracts::crowdsale().source,
        contracts::game().source,
        contracts::reentrant_bank().source,
    ]
    .iter()
    .map(|source| {
        let compiled = compile_source(source).expect("corpus contract compiles");
        service
            .submit(compiled, FuzzerConfig::mufuzz(2_000).with_rng_seed(7))
            .expect("deployment succeeds")
    })
    .collect();

    // Poll and stream events while the fleet runs.
    loop {
        let mut running = 0;
        for handle in &handles {
            for event in handle.events() {
                match event {
                    CampaignEvent::Started { contract } => {
                        println!("[{contract}] started");
                    }
                    CampaignEvent::Coverage {
                        executions,
                        covered_edges,
                        coverage,
                        ..
                    } => println!(
                        "[{}] {executions} execs, {covered_edges} edges ({:.1}%)",
                        handle.contract(),
                        coverage * 100.0
                    ),
                    CampaignEvent::Finding(finding) => {
                        println!("[{}] FOUND {:?}", handle.contract(), finding.class);
                    }
                    CampaignEvent::Paused { executions } => {
                        println!("[{}] paused at {executions}", handle.contract());
                    }
                    CampaignEvent::Completed => println!("[{}] done", handle.contract()),
                    CampaignEvent::Failed { message } => {
                        println!("[{}] failed: {message}", handle.contract());
                    }
                }
            }
            if matches!(handle.poll(), CampaignProgress::Running { .. }) {
                running += 1;
            }
        }
        if running == 0 {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }

    println!();
    for handle in handles {
        let report = handle.wait();
        println!(
            "{:<14} {:>5.1}% coverage, {} seeds, {} finding(s)",
            report.contract,
            report.coverage_percent(),
            report.corpus_size,
            report.findings.len()
        );
    }

    // Checkpoint/resume: pause a fresh campaign mid-flight, serialize it,
    // and finish it later from the snapshot bytes.
    println!("\ncheckpoint/resume round trip:");
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let config = FuzzerConfig::mufuzz(2_000).with_rng_seed(7).with_workers(1);
    let handle = service
        .submit_with(compiled, config.clone(), SubmitOptions::pause_at(500))
        .unwrap();
    handle.join();
    let snapshot = handle.checkpoint().expect("paused campaign checkpoints");
    let bytes = snapshot.to_bytes();
    println!(
        "  paused at {} execs, snapshot is {} bytes",
        snapshot.executions(),
        bytes.len()
    );

    let restored = CampaignSnapshot::from_bytes(&bytes).expect("snapshot parses");
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let report = service
        .resume(compiled, config, &restored)
        .expect("snapshot resumes")
        .wait();
    println!(
        "  resumed to completion: {} execs, {:.1}% coverage (bit-identical \
         to an uninterrupted run at workers=1)",
        report.executions,
        report.coverage_percent()
    );
}
