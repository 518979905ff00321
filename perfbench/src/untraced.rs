//! The untraced run: the public campaign API, timed end to end.
//!
//! Each repetition has two phases. Set-up compiles every contract and builds
//! its `Fuzzer` (deploy, static analysis, decode and lowering) on the main
//! thread, with nothing else running. The campaign phase then runs every
//! prepared campaign to completion on runner threads that keep at most
//! `nproc` pool threads busy. Every report is checked, and a campaign that
//! fails to set up, fails a check or misses the completion deadline counts
//! as failed.
//!
//! The campaign phase is timed as wall time less what the hypervisor stole
//! from the machine's CPUs, so idle and barrier waits still count but other
//! tenants' load does not: on a shared virtual machine they took 3–30% of
//! the CPU per run, and the same seed's raw execs/sec moved with that share
//! (90k–109k over nine repetitions, against 106k–114k once the stolen time
//! was taken out).

use crate::stats::{self, process_cpu, stolen_per_cpu};
use crate::workload::Campaign;
use mufuzz::{CampaignReport, Fuzzer};
use mufuzz_lang::compile_source;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One repetition of a workload.
pub struct Rep {
    /// Wall time of the set-up phase.
    pub setup_s: f64,
    /// Wall time of the campaign phase less the time the hypervisor stole.
    pub campaign_s: f64,
    /// Share of the campaign phase's wall time the hypervisor stole.
    pub stolen_share: f64,
    /// Process CPU time during the campaign phase.
    pub cpu_s: f64,
    /// Executions of the campaigns that completed.
    pub executions: usize,
    /// Peak resident set size during the repetition (`VmHWM`).
    pub peak_rss_mb: f64,
    /// Per campaign: the checked report, or why the campaign failed. After
    /// [`check_repeat`] a later repetition keeps only its failures.
    pub results: Vec<Result<CampaignReport, String>>,
    /// True when a campaign missed the completion deadline; its runner
    /// thread may still be blocked, so no further repetition can start.
    pub deadline_missed: bool,
}

impl Rep {
    pub fn execs_per_sec(&self) -> f64 {
        self.executions as f64 / self.campaign_s.max(1e-9)
    }
}

/// Run one repetition: set up every campaign, then run them all, giving up
/// on any campaign still running at `deadline`.
pub fn run_rep(campaigns: &[Campaign], nproc: usize, deadline: Instant) -> Rep {
    stats::reset_peak_rss();
    let setup_start = Instant::now();
    let prepared: Vec<Result<Fuzzer, String>> = campaigns
        .iter()
        .map(|c| {
            let compiled =
                compile_source(&c.contract.source).map_err(|e| format!("compile: {e}"))?;
            Fuzzer::new(compiled, c.config.clone()).map_err(|e| format!("deploy: {e}"))
        })
        .collect();
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut results: Vec<Result<CampaignReport, String>> = Vec::with_capacity(campaigns.len());
    let mut queue = VecDeque::new();
    for (index, fuzzer) in prepared.into_iter().enumerate() {
        match fuzzer {
            Ok(fuzzer) => {
                queue.push_back((index, fuzzer));
                results.push(Err("missed the completion deadline".into()));
            }
            Err(reason) => results.push(Err(reason)),
        }
    }
    let pending = queue.len();
    // Each campaign's `Fuzzer::run` blocks its runner thread while the
    // campaign's own pool runs its lanes, so `nproc / lanes` runner threads
    // keep `nproc` pool threads busy.
    let max_lanes = campaigns.iter().map(Campaign::lanes).max().unwrap_or(1);
    let runners = (nproc / max_lanes).clamp(1, pending.max(1));
    let queue = Arc::new(Mutex::new(queue));
    let (sender, receiver) = channel();

    let cpu_start = process_cpu();
    let stolen_start = stolen_per_cpu();
    let start = Instant::now();
    let handles: Vec<_> = (0..runners)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let sender = sender.clone();
            std::thread::spawn(move || loop {
                let job = queue.lock().expect("campaign queue poisoned").pop_front();
                let Some((index, mut fuzzer)) = job else {
                    break;
                };
                let report = catch_unwind(AssertUnwindSafe(|| fuzzer.run()))
                    .map_err(|_| "campaign panicked".to_string());
                if sender.send((index, report)).is_err() {
                    break;
                }
            })
        })
        .collect();
    drop(sender);

    let mut received = 0;
    let mut deadline_missed = false;
    while received < pending {
        let wait = deadline.saturating_duration_since(Instant::now());
        match receiver.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok((index, report)) => {
                results[index] = report.and_then(|r| check(&campaigns[index], r));
                received += 1;
            }
            Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
            Err(_) => {
                deadline_missed = true;
                break;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (process_cpu() - cpu_start).as_secs_f64();
    let stolen_s = (stolen_per_cpu() - stolen_start).as_secs_f64();
    if !deadline_missed {
        for handle in handles {
            let _ = handle.join();
        }
    }
    let executions = results
        .iter()
        .flatten()
        .map(|report| report.executions)
        .sum();
    Rep {
        setup_s,
        campaign_s: wall_s - stolen_s,
        stolen_share: stolen_s / wall_s,
        cpu_s,
        peak_rss_mb: stats::peak_rss_mb(),
        executions,
        results,
        deadline_missed,
    }
}

/// The output checks every campaign report must pass.
fn check(campaign: &Campaign, report: CampaignReport) -> Result<CampaignReport, String> {
    let budget = campaign.config.max_executions();
    if report.executions != budget {
        return Err(format!(
            "{}: {} executions for a budget of {budget}",
            report.contract, report.executions
        ));
    }
    if report.covered_edges > report.total_edges {
        return Err(format!(
            "{}: {} covered edges of {}",
            report.contract, report.covered_edges, report.total_edges
        ));
    }
    let monotone = report
        .timeline
        .windows(2)
        .all(|w| w[0].executions <= w[1].executions && w[0].covered_edges <= w[1].covered_edges);
    if !monotone {
        return Err(format!("{}: timeline is not monotone", report.contract));
    }
    Ok(report)
}

/// Check a later repetition against the first: a seed fixes each
/// campaign's corpus, coverage and findings, so a campaign whose digests or
/// findings differ counts as failed. Only the failures are kept.
pub fn check_repeat(first: &Rep, rep: &mut Rep) {
    for (reference, result) in first.results.iter().zip(rep.results.iter_mut()) {
        let (Ok(reference), Ok(report)) = (reference, &*result) else {
            continue;
        };
        let same = reference.corpus_digest == report.corpus_digest
            && reference.coverage_digest == report.coverage_digest
            && reference.findings == report.findings;
        if !same {
            *result = Err(format!(
                "{}: corpus, coverage or findings differ between repetitions",
                report.contract
            ));
        }
    }
    rep.results.retain(Result::is_err);
}
