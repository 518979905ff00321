//! The resumable campaign service: many contracts, one fleet pool.
//!
//! [`CampaignService`] owns a pool of threads and schedules every submitted
//! campaign on it as a set of *lanes* — sequential strands that run one seed
//! batch at a time. `submit` is non-blocking and returns a
//! [`CampaignHandle`] for polling progress ([`CampaignHandle::poll`]),
//! draining coverage/finding events ([`CampaignHandle::events`]), pausing,
//! checkpointing ([`CampaignHandle::checkpoint`]) and waiting for the final
//! [`CampaignReport`].
//!
//! Campaigns take turns: the pool serves one FIFO run queue, and a lane runs
//! a short slice of batches on a pool thread, then re-enqueues itself at the
//! back of the queue. The lanes of every campaign interleave, and none —
//! a fresh submission's included — waits more than one pass of the queue.
//!
//! Determinism: a lane's batches run in order no matter which pool thread
//! picks them up, and there is one engine per lane count. A one-lane
//! free-running campaign is bit-for-bit the historical sequential engine;
//! every campaign with more than one lane runs barrier-synchronized rounds
//! and is bit-identical at any worker count. Either way the report is the
//! same at *any* pool size, and a checkpoint taken at a deterministic pause
//! point resumes bit-identically (`tests/fleet_service.rs`). Lanes keep no
//! scheduling state of their own, so a paused campaign's scheduling state
//! is exactly the shared state a checkpoint serializes, plus one lane state
//! (lane 0's RNG and the campaign's monitor): pausing flushes nothing.

use crate::campaign::{
    build_report, CampaignContext, CampaignReport, CampaignShared, CoveragePoint, LaneStep,
    PauseState, RunParams, SharedCampaignState, Worker,
};
use crate::config::FuzzerConfig;
use crate::coverage::CoverageMap;
use crate::executor::HarnessError;
use crate::fleet::{FleetPool, WorkerCtx};
use crate::replay::FindingRecord;
use crate::round::RoundRt;
use crate::snapshot::{
    contract_fingerprint, CampaignSnapshot, SnapshotError, PROFILE_FREE_RUNNING, PROFILE_ROUND,
};
use mufuzz_lang::CompiledContract;
use mufuzz_oracles::{BugClass, BugFinding};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Batches a lane runs per turn on a pool thread before it re-enqueues
/// itself at the back of the pool's queue.
const SLICE_STEPS: usize = 8;

/// Options attached to a campaign submission.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Pause the campaign once this many executions have been reserved,
    /// instead of running to the budget. A free-running campaign stops at
    /// the first batch boundary at or after the mark, a round campaign at the
    /// first round barrier at or after it. Either way the pause point is
    /// deterministic, which makes it the checkpoint/resume anchor.
    pub pause_at: Option<usize>,
}

impl SubmitOptions {
    /// Pause after (at least) `executions` executions.
    pub fn pause_at(executions: usize) -> SubmitOptions {
        SubmitOptions {
            pause_at: Some(executions),
        }
    }
}

/// A campaign progress event, streamed to the [`CampaignHandle`].
#[derive(Debug, Clone)]
pub enum CampaignEvent {
    /// The campaign was accepted and its lanes are being scheduled.
    Started {
        /// Contract name.
        contract: String,
    },
    /// A coverage timeline point was recorded.
    Coverage {
        /// Executions reserved when the point was taken.
        executions: usize,
        /// Distinct branch edges covered so far.
        covered_edges: usize,
        /// Fraction of the contract's branch edges covered.
        coverage: f64,
        /// Campaign wall-clock at the point (including pre-resume segments).
        elapsed_ms: u64,
    },
    /// A new (class, function) bug finding surfaced.
    Finding(BugFinding),
    /// The campaign stopped at a pause point with budget remaining.
    Paused {
        /// Executions reserved at the pause.
        executions: usize,
    },
    /// The campaign ran to its budget; the report is ready.
    Completed,
    /// A lane panicked. The campaign's other lanes stopped at their next
    /// step, and there is no report.
    Failed {
        /// The panic message.
        message: String,
    },
}

/// A snapshot answer to "how is this campaign doing right now?".
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignProgress {
    /// Lanes are running (or queued on the pool).
    Running {
        /// Executions reserved so far.
        executions: usize,
        /// Distinct branch edges covered so far.
        covered_edges: usize,
        /// Fraction of the contract's branch edges covered.
        coverage: f64,
    },
    /// The campaign is paused; it can be checkpointed.
    Paused {
        /// Executions reserved at the pause.
        executions: usize,
    },
    /// The report is ready to collect.
    Completed,
    /// A lane panicked and the campaign stopped without a report.
    Failed {
        /// The panic message.
        message: String,
    },
}

#[derive(Clone, Copy, PartialEq)]
enum JobStatus {
    Running,
    Paused,
    Completed,
    Failed,
}

/// Completion state, guarded by `CampaignJob::done` and signalled through
/// `done_cv`.
struct JobState {
    status: JobStatus,
    report: Option<CampaignReport>,
    /// Lane 0's RNG after completion — handed back to [`crate::Fuzzer`] so
    /// consecutive `run()` calls continue one RNG stream, exactly like the
    /// historical sequential engine.
    rng: Option<SmallRng>,
}

/// Event emission state. `Sender` is single-consumer plumbing; the mutex
/// also serialises "what has been reported" bookkeeping so events are not
/// duplicated across lanes.
struct EventSink {
    sender: Sender<CampaignEvent>,
    /// Timeline points already emitted as [`CampaignEvent::Coverage`].
    timeline_sent: usize,
    /// Findings already emitted, by (class, function).
    reported: BTreeSet<(BugClass, Option<String>)>,
}

/// One submitted campaign: the immutable context, the shared mutable state,
/// the lane workers, and the scheduling/eventing glue. Owned by an `Arc`
/// shared between the handle and every queued lane task.
struct CampaignJob {
    ctx: Arc<CampaignContext>,
    shared: CampaignShared,
    params: RunParams,
    pause: PauseState,
    /// One slot per lane: exactly one for a free-running campaign,
    /// `config.workers` for a round campaign. A slot holds the lane's
    /// [`Worker`] whenever the lane is not mid-batch; finalisation takes them
    /// out, a paused campaign leaves them in place for
    /// [`CampaignHandle::checkpoint`].
    lanes: Vec<Mutex<Option<Worker>>>,
    /// Lanes still scheduled (running or queued).
    active: AtomicUsize,
    /// Lanes that stopped because the budget was exhausted (as opposed to
    /// pausing). If any lane finished, the campaign finalises even when the
    /// others stopped at the pause mark — the budget is simply gone.
    finished_lanes: AtomicUsize,
    /// True when the job continues a checkpoint: skip the seeding prologue.
    resumed: bool,
    /// Round index to restart from (zero for a fresh campaign); only
    /// meaningful under the round profile.
    resume_round: u64,
    /// Replayable finding records restored from a checkpoint, handed to the
    /// round runtime at bootstrap (round profile only).
    resume_records: Mutex<Vec<FindingRecord>>,
    /// Campaign wall-clock frozen at the pause (what the checkpoint stores,
    /// so post-pause idle time never counts against the time budget).
    paused_elapsed_ms: AtomicU64,
    /// The message of the first panic in one of the campaign's pool tasks.
    /// Once set, every lane stops at its next step and the campaign fails.
    failure: OnceLock<String>,
    sink: Mutex<EventSink>,
    done: Mutex<JobState>,
    done_cv: Condvar,
}

impl CampaignJob {
    /// The recorded panic message of a failed campaign.
    fn failure_message(&self) -> String {
        self.failure.get().cloned().unwrap_or_default()
    }
}

/// A handle on one submitted campaign.
///
/// Dropping the handle does not cancel the campaign; it keeps running on the
/// service's pool (events are discarded once the receiver is gone).
pub struct CampaignHandle {
    job: Arc<CampaignJob>,
    events: Receiver<CampaignEvent>,
}

/// A fleet of fuzzing campaigns over one thread pool, taking turns on its
/// run queue.
///
/// ```no_run
/// # use mufuzz::{CampaignService, FuzzerConfig};
/// # let contracts: Vec<mufuzz_lang::CompiledContract> = vec![];
/// let service = CampaignService::new(4);
/// let handles: Vec<_> = contracts
///     .into_iter()
///     .map(|c| service.submit(c, FuzzerConfig::default()).unwrap())
///     .collect();
/// for handle in handles {
///     let report = handle.wait();
///     println!("{}: {:.1}% coverage", report.contract, report.coverage_percent());
/// }
/// ```
pub struct CampaignService {
    pool: Arc<FleetPool>,
}

impl CampaignService {
    /// A service over a fresh pool of `threads` worker threads (clamped to
    /// at least one).
    pub fn new(threads: usize) -> CampaignService {
        CampaignService {
            pool: Arc::new(FleetPool::new(threads)),
        }
    }

    /// Number of pool threads serving this fleet.
    pub fn thread_count(&self) -> usize {
        self.pool.thread_count()
    }

    /// Submit a campaign; returns immediately with a handle.
    ///
    /// The campaign runs `config.workers` lanes on the shared pool.
    /// Deployment and static analysis happen on the calling thread so setup
    /// errors surface here rather than inside the pool.
    pub fn submit(
        &self,
        compiled: CompiledContract,
        config: FuzzerConfig,
    ) -> Result<CampaignHandle, HarnessError> {
        self.submit_with(compiled, config, SubmitOptions::default())
    }

    /// [`CampaignService::submit`] with explicit [`SubmitOptions`].
    pub fn submit_with(
        &self,
        compiled: CompiledContract,
        config: FuzzerConfig,
        options: SubmitOptions,
    ) -> Result<CampaignHandle, HarnessError> {
        let ctx = Arc::new(CampaignContext::prepare(compiled, config)?);
        let rng = SmallRng::seed_from_u64(ctx.config.rng_seed);
        Ok(self.submit_prepared(ctx, rng, options))
    }

    /// Submit a campaign from an already-prepared context (the path
    /// [`crate::Fuzzer::run`] uses, threading its own RNG through).
    pub(crate) fn submit_prepared(
        &self,
        ctx: Arc<CampaignContext>,
        rng0: SmallRng,
        options: SubmitOptions,
    ) -> CampaignHandle {
        let lanes = campaign_lanes(&ctx, Worker::new(Arc::clone(&ctx), rng0));
        let shared = CampaignShared::new(ctx.harness.edge_index().len());
        let params = RunParams::new(&ctx, 0);
        self.launch(ctx, shared, params, lanes, options, ResumeInfo::fresh())
    }

    /// Resume a checkpointed campaign; returns immediately with a handle.
    ///
    /// The contract must fingerprint-match the snapshot, the configuration
    /// must run the snapshot's engine, and its budget must cover the
    /// executions the snapshot has already run. A free-running snapshot
    /// resumes only as one free-running lane (with `workers > 1` the
    /// configuration runs rounds, and the resume fails with
    /// [`SnapshotError::ProfileMismatch`]); an unchanged configuration then
    /// continues bit-for-bit where the checkpoint left off. A round snapshot
    /// is worker-count independent: it can resume at *any* `config.workers`
    /// and still produce the bit-identical campaign.
    pub fn resume(
        &self,
        compiled: CompiledContract,
        config: FuzzerConfig,
        snapshot: &CampaignSnapshot,
    ) -> Result<CampaignHandle, SnapshotError> {
        self.resume_with(compiled, config, snapshot, SubmitOptions::default())
    }

    /// [`CampaignService::resume`] with explicit [`SubmitOptions`].
    pub fn resume_with(
        &self,
        compiled: CompiledContract,
        config: FuzzerConfig,
        snapshot: &CampaignSnapshot,
        options: SubmitOptions,
    ) -> Result<CampaignHandle, SnapshotError> {
        if contract_fingerprint(&compiled) != snapshot.contract_hash {
            return Err(SnapshotError::ContractMismatch);
        }
        let config_profile = if config.round_mode() {
            PROFILE_ROUND
        } else {
            PROFILE_FREE_RUNNING
        };
        if snapshot.profile != config_profile {
            return Err(SnapshotError::ProfileMismatch {
                snapshot: snapshot.profile,
                config: config_profile,
            });
        }
        if snapshot.executions() > config.max_executions() {
            return Err(SnapshotError::BudgetExceeded {
                executions: snapshot.executions(),
                budget: config.max_executions(),
            });
        }
        let ctx = Arc::new(CampaignContext::prepare(compiled, config)?);
        let edges = ctx.harness.edge_index().len();
        if snapshot.coverage_edges as usize != edges {
            return Err(SnapshotError::ContractMismatch);
        }
        let lane0 = Worker::restore(Arc::clone(&ctx), snapshot.rng, snapshot.monitor.clone());
        let lanes = campaign_lanes(&ctx, lane0);
        let shared = CampaignShared {
            state: Mutex::new(SharedCampaignState {
                corpus: snapshot.corpus.clone(),
                timeline: snapshot.timeline.clone(),
                interesting_shapes: snapshot.shapes.clone(),
                next_uid: snapshot.next_uid,
                admitted_since_cull: snapshot.admitted_since_cull as usize,
                culled: snapshot.culled as usize,
            }),
            coverage: CoverageMap::restore(edges, &snapshot.coverage_words),
            reserved: AtomicUsize::new(snapshot.executions()),
            round: Mutex::new(None),
        };
        let params = RunParams::new(&ctx, snapshot.elapsed_ms());
        Ok(self.launch(
            ctx,
            shared,
            params,
            lanes,
            options,
            ResumeInfo {
                resumed: true,
                round: snapshot.round,
                records: snapshot.records.clone(),
            },
        ))
    }

    fn launch(
        &self,
        ctx: Arc<CampaignContext>,
        shared: CampaignShared,
        params: RunParams,
        workers: Vec<Worker>,
        options: SubmitOptions,
        resume: ResumeInfo,
    ) -> CampaignHandle {
        let (sender, events) = channel();
        let _ = sender.send(CampaignEvent::Started {
            contract: ctx.harness.compiled.name.clone(),
        });
        let job = Arc::new(CampaignJob {
            ctx,
            shared,
            params,
            pause: PauseState::new(options.pause_at),
            lanes: workers.into_iter().map(|w| Mutex::new(Some(w))).collect(),
            active: AtomicUsize::new(1),
            finished_lanes: AtomicUsize::new(0),
            resumed: resume.resumed,
            resume_round: resume.round,
            resume_records: Mutex::new(resume.records),
            paused_elapsed_ms: AtomicU64::new(0),
            failure: OnceLock::new(),
            sink: Mutex::new(EventSink {
                sender,
                timeline_sent: 0,
                reported: BTreeSet::new(),
            }),
            done: Mutex::new(JobState {
                status: JobStatus::Running,
                report: None,
                rng: None,
            }),
            done_cv: Condvar::new(),
        });
        let bootstrap_job = Arc::clone(&job);
        self.pool.spawn(move |wctx| bootstrap(bootstrap_job, wctx));
        CampaignHandle { job, events }
    }
}

/// A campaign's lanes: `lane0`, then one fresh lane per further worker. Only
/// a round campaign has further workers (with `workers > 1` the campaign
/// runs rounds), and round slots draw from RNGs derived from
/// `(rng_seed, round, slot)` and observe into slot monitors, so the fresh
/// lanes' own RNG and monitor are never used.
fn campaign_lanes(ctx: &Arc<CampaignContext>, lane0: Worker) -> Vec<Worker> {
    let mut lanes = vec![lane0];
    for _ in 1..ctx.config.workers {
        let rng = SmallRng::seed_from_u64(ctx.config.rng_seed);
        lanes.push(Worker::new(Arc::clone(ctx), rng));
    }
    lanes
}

/// Where a launched campaign starts from: fresh, or mid-round with the
/// records a checkpoint carried.
struct ResumeInfo {
    resumed: bool,
    round: u64,
    records: Vec<FindingRecord>,
}

impl ResumeInfo {
    fn fresh() -> ResumeInfo {
        ResumeInfo {
            resumed: false,
            round: 0,
            records: Vec::new(),
        }
    }
}

impl CampaignHandle {
    /// Name of the contract this campaign fuzzes.
    pub fn contract(&self) -> &str {
        &self.job.ctx.harness.compiled.name
    }

    /// A non-blocking progress snapshot.
    pub fn poll(&self) -> CampaignProgress {
        let done = self.job.done.lock().expect("campaign done state poisoned");
        match done.status {
            JobStatus::Completed => CampaignProgress::Completed,
            JobStatus::Failed => CampaignProgress::Failed {
                message: self.job.failure_message(),
            },
            JobStatus::Paused => CampaignProgress::Paused {
                executions: self.job.shared.executions(),
            },
            JobStatus::Running => {
                let covered = self.job.shared.coverage.covered_count();
                CampaignProgress::Running {
                    executions: self.job.shared.executions(),
                    covered_edges: covered,
                    coverage: covered as f64 / self.job.params.total_edges as f64,
                }
            }
        }
    }

    /// Drain every event queued since the last call (non-blocking).
    pub fn events(&self) -> Vec<CampaignEvent> {
        self.events.try_iter().collect()
    }

    /// Ask the campaign to pause at the next batch boundary. The lanes stop
    /// with budget remaining; poll for [`CampaignProgress::Paused`], then
    /// [`CampaignHandle::checkpoint`].
    pub fn pause(&self) {
        self.job.pause.requested.store(true, Ordering::Relaxed);
    }

    /// Block until the campaign completes, pauses or fails.
    pub fn join(&self) {
        let mut done = self.job.done.lock().expect("campaign done state poisoned");
        while done.status == JobStatus::Running {
            done = self
                .job
                .done_cv
                .wait(done)
                .expect("campaign done state poisoned");
        }
    }

    /// Block until the campaign finishes and return its report.
    ///
    /// # Panics
    ///
    /// Panics if the campaign pauses instead of completing (a paused
    /// campaign has no final report — checkpoint and resume it), and with
    /// the lane's panic message if the campaign failed.
    pub fn wait(self) -> CampaignReport {
        let (report, _) = self.wait_inner();
        report
    }

    /// Like [`CampaignHandle::wait`], additionally handing back lane 0's
    /// RNG so [`crate::Fuzzer`] can continue its stream across runs.
    pub(crate) fn wait_internal(self) -> (CampaignReport, SmallRng) {
        let (report, rng) = self.wait_inner();
        (
            report,
            rng.expect("completed campaign always stores lane 0's rng"),
        )
    }

    fn wait_inner(&self) -> (CampaignReport, Option<SmallRng>) {
        self.join();
        let mut done = self.job.done.lock().expect("campaign done state poisoned");
        match done.status {
            JobStatus::Completed => (
                done.report.take().expect("campaign report already taken"),
                done.rng.take(),
            ),
            JobStatus::Failed => panic!(
                "campaign '{}' failed: {}",
                self.job.ctx.harness.compiled.name,
                self.job.failure_message()
            ),
            _ => panic!(
                "campaign '{}' paused instead of completing; checkpoint() and resume it",
                self.job.ctx.harness.compiled.name
            ),
        }
    }

    /// Freeze a paused campaign into a [`CampaignSnapshot`].
    ///
    /// Errors with [`SnapshotError::NotPaused`] unless the campaign is
    /// paused.
    pub fn checkpoint(&self) -> Result<CampaignSnapshot, SnapshotError> {
        {
            let done = self.job.done.lock().expect("campaign done state poisoned");
            if done.status != JobStatus::Paused {
                return Err(SnapshotError::NotPaused);
            }
        }
        let job = &self.job;
        let (corpus, timeline, shapes, next_uid, admitted_since_cull, culled) = {
            let s = job.shared.state.lock().expect("campaign state poisoned");
            (
                s.corpus.clone(),
                s.timeline.clone(),
                s.interesting_shapes.clone(),
                s.next_uid,
                s.admitted_since_cull,
                s.culled,
            )
        };
        // Every checkpoint freezes lane 0's RNG and the monitor that holds
        // the campaign's observations: the round runtime's master monitor in
        // round mode (with the round index and record list), else the lane's
        // own. A round snapshot can then resume at any worker count.
        let round_state = {
            let guard = job.shared.round.lock().expect("round state poisoned");
            guard
                .as_ref()
                .map(|rt| (rt.round, rt.monitor.export_state(), rt.records.clone()))
        };
        let slot = job.lanes[0].lock().expect("campaign lane poisoned");
        let worker = slot.as_ref().ok_or(SnapshotError::NotPaused)?;
        let (profile, round, monitor, records) = match round_state {
            Some((round, monitor, records)) => (PROFILE_ROUND, round, monitor, records),
            None => (PROFILE_FREE_RUNNING, 0, worker.monitor_state(), Vec::new()),
        };
        let rng = worker.rng_state();
        drop(slot);
        Ok(CampaignSnapshot {
            contract_hash: contract_fingerprint(&job.ctx.harness.compiled),
            rng_seed: job.ctx.config.rng_seed,
            profile,
            round,
            max_executions: job.ctx.config.max_executions() as u64,
            executions: job.shared.executions() as u64,
            elapsed_ms: job.paused_elapsed_ms.load(Ordering::Relaxed),
            coverage_edges: job.ctx.harness.edge_index().len() as u64,
            coverage_words: job.shared.coverage.snapshot_words(),
            next_uid,
            admitted_since_cull: admitted_since_cull as u64,
            culled: culled as u64,
            corpus,
            timeline,
            shapes,
            rng,
            monitor,
            records,
        })
    }
}

/// First task of every campaign: run the seeding prologue (unless resumed),
/// then fan the lanes out onto the pool. Lane 0 continues on this thread;
/// the others queue behind every task already submitted. The prologue counts
/// as lane 0's first step: if it panics, lane 0 leaves the pool and the
/// campaign fails.
fn bootstrap(job: Arc<CampaignJob>, wctx: &WorkerCtx) {
    match guarded(&job, || prologue(&job)) {
        Some(true) => {}
        Some(false) => return,
        None => {
            lane_done(&job);
            return;
        }
    }
    let lane_count = job.lanes.len();
    job.active.store(lane_count, Ordering::SeqCst);
    for lane in 1..lane_count {
        let lane_job = Arc::clone(&job);
        wctx.respawn(move |w| drive_lane(&lane_job, lane, w));
    }
    drive_lane(&job, 0, wctx);
}

/// The seeding prologue: execute the initial corpus (unless resumed) and,
/// in round mode, install the round runtime. Returns whether the lanes have
/// work; a contract with no callable functions finalises here instead.
fn prologue(job: &Arc<CampaignJob>) -> bool {
    if !job.resumed {
        let mut slot = job.lanes[0].lock().expect("campaign lane poisoned");
        let worker = slot.as_mut().expect("lane worker missing");
        worker.run_initial(&job.shared, &job.params);
    }
    pump_events(job);
    let corpus_empty = job
        .shared
        .state
        .lock()
        .expect("campaign state poisoned")
        .corpus
        .is_empty();
    if corpus_empty {
        // Contract with no callable functions: report immediately.
        finalize(job, true);
        return false;
    }
    if job.ctx.config.round_mode() {
        // Promote lane 0's monitor (seeding-prologue and, on resume,
        // checkpointed observations) to the round runtime's master monitor
        // and freeze the first round before any lane starts claiming slots.
        let master = {
            let mut slot = job.lanes[0].lock().expect("campaign lane poisoned");
            slot.as_mut().expect("lane worker missing").take_monitor()
        };
        let records = std::mem::take(
            &mut *job
                .resume_records
                .lock()
                .expect("campaign resume records poisoned"),
        );
        let rt = RoundRt::install(
            master,
            job.resume_round,
            records,
            &job.ctx,
            &job.shared,
            &job.params,
            &job.pause,
        );
        *job.shared.round.lock().expect("round state poisoned") = Some(rt);
    }
    true
}

/// Run up to [`SLICE_STEPS`] batches of `lane`, then re-enqueue it at the
/// back of the pool's queue, behind every other campaign's waiting lanes. A
/// lane of a failed campaign stops instead, and a lane that panics fails its
/// campaign.
fn drive_lane(job: &Arc<CampaignJob>, lane: usize, wctx: &WorkerCtx) {
    for _ in 0..SLICE_STEPS {
        if job.failure.get().is_some() {
            lane_done(job);
            return;
        }
        let step = guarded(job, || {
            let step = {
                let mut slot = job.lanes[lane].lock().expect("campaign lane poisoned");
                let worker = slot.as_mut().expect("lane worker missing");
                worker.step(&job.shared, &job.params, &job.pause)
            };
            pump_events(job);
            step
        });
        match step {
            Some(LaneStep::Continue) => continue,
            Some(LaneStep::Finished) => {
                job.finished_lanes.fetch_add(1, Ordering::SeqCst);
            }
            Some(LaneStep::Paused) | None => {}
        }
        lane_done(job);
        return;
    }
    let lane_job = Arc::clone(job);
    wctx.respawn(move |w| drive_lane(&lane_job, lane, w));
}

/// A lane left the pool. The last lane out settles the campaign: if a lane
/// panicked the campaign fails, else if any lane saw the budget exhausted
/// the campaign finalises, otherwise every lane stopped at the pause mark
/// and the campaign parks as paused.
fn lane_done(job: &Arc<CampaignJob>) {
    if job.active.fetch_sub(1, Ordering::SeqCst) != 1 {
        return;
    }
    if job.failure.get().is_none() {
        let settled = guarded(job, || {
            if job.finished_lanes.load(Ordering::SeqCst) > 0 {
                finalize(job, false);
            } else {
                mark_paused(job);
            }
        });
        if settled.is_some() {
            return;
        }
    }
    mark_failed(job);
}

/// Run `task`, a share of the campaign's pool work. A panic is contained
/// here: its message becomes the campaign's failure (the first one wins)
/// and the result is `None`.
fn guarded<R>(job: &CampaignJob, task: impl FnOnce() -> R) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(task)) {
        Ok(result) => Some(result),
        Err(payload) => {
            let _ = job.failure.set(panic_message(payload.as_ref()));
            None
        }
    }
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "a campaign lane panicked".to_string()
    }
}

/// Publish the campaign's failure. The panic may have poisoned any of the
/// campaign's locks, so this takes only the sink and the done state, and
/// takes them through a poisoning: it only sends one event and sets the
/// status, which is valid whatever a panic left half-updated there.
fn mark_failed(job: &CampaignJob) {
    let message = job.failure_message();
    {
        let sink = job.sink.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = sink.sender.send(CampaignEvent::Failed { message });
    }
    let mut done = job.done.lock().unwrap_or_else(PoisonError::into_inner);
    done.status = JobStatus::Failed;
    job.done_cv.notify_all();
}

/// Take the campaign's observations — the free-running lane's monitor, or
/// the round runtime's master state — run the campaign-level oracles, build
/// the report and publish completion.
fn finalize(job: &Arc<CampaignJob>, empty_corpus: bool) {
    let round_rt = job
        .shared
        .round
        .lock()
        .expect("round state poisoned")
        .take();
    let mut lanes = job.lanes.iter().map(|slot| {
        slot.lock()
            .expect("campaign lane poisoned")
            .take()
            .expect("lane worker missing at finalisation")
    });
    let (lane_monitor, lane_world, rng0) = lanes.next().expect("campaign has lane 0").into_parts();
    // The other lanes are round lanes, which hold nothing finalisation
    // needs: drop them and their harness clones now.
    lanes.for_each(drop);
    // Round mode keeps its observations in the runtime's master monitor —
    // committed in slot order, so they are identical at any worker count —
    // while the lane monitors stay empty.
    let (mut monitor, last_world, finding_records) = match round_rt {
        Some(rt) => (rt.monitor, rt.last_world, rt.records),
        None => (lane_monitor, lane_world, Vec::new()),
    };
    monitor.finalize(
        &job.ctx.harness.compiled,
        last_world.as_ref().or(Some(job.ctx.harness.base_world())),
    );
    let report = build_report(
        &job.ctx,
        &job.shared,
        monitor,
        &job.params,
        job.lanes.len(),
        empty_corpus,
        finding_records,
    );
    {
        let mut sink = job.sink.lock().expect("campaign sink poisoned");
        drain_timeline(&mut sink, job);
        for finding in &report.findings {
            if sink
                .reported
                .insert((finding.class, finding.function.clone()))
            {
                let _ = sink.sender.send(CampaignEvent::Finding(finding.clone()));
            }
        }
        let _ = sink.sender.send(CampaignEvent::Completed);
    }
    let mut done = job.done.lock().expect("campaign done state poisoned");
    done.status = JobStatus::Completed;
    done.report = Some(report);
    done.rng = Some(rng0);
    job.done_cv.notify_all();
}

/// Park the campaign as paused: freeze the campaign clock, flush events,
/// publish the paused status.
fn mark_paused(job: &Arc<CampaignJob>) {
    job.paused_elapsed_ms
        .store(job.params.elapsed_ms(), Ordering::Relaxed);
    let executions = job.shared.executions();
    {
        let mut sink = job.sink.lock().expect("campaign sink poisoned");
        drain_timeline(&mut sink, job);
        let _ = sink.sender.send(CampaignEvent::Paused { executions });
    }
    let mut done = job.done.lock().expect("campaign done state poisoned");
    done.status = JobStatus::Paused;
    job.done_cv.notify_all();
}

/// Emit fresh timeline points and fresh findings as events.
///
/// Lock order within a job is sink → state and sink → lane is never needed
/// (the lane lock is released before the sink lock is taken), so lane tasks
/// and the handle can pump concurrently without deadlock.
fn pump_events(job: &Arc<CampaignJob>) {
    let findings = if job.ctx.config.round_mode() {
        // Round-mode findings live in the runtime's master monitor (lane
        // monitors stay empty); they become visible at round commits.
        let mut guard = job.shared.round.lock().expect("round state poisoned");
        guard
            .as_mut()
            .map(RoundRt::fresh_findings)
            .unwrap_or_default()
    } else {
        // A free-running campaign is lane 0 alone.
        let mut slot = job.lanes[0].lock().expect("campaign lane poisoned");
        match slot.as_mut() {
            Some(worker) => worker.fresh_findings(),
            None => Vec::new(),
        }
    };
    let mut sink = job.sink.lock().expect("campaign sink poisoned");
    drain_timeline(&mut sink, job);
    for finding in findings {
        if sink
            .reported
            .insert((finding.class, finding.function.clone()))
        {
            let _ = sink.sender.send(CampaignEvent::Finding(finding));
        }
    }
}

/// Send every timeline point not yet emitted. Called with the sink lock
/// held; takes the state lock briefly to copy the fresh points.
fn drain_timeline(sink: &mut EventSink, job: &CampaignJob) {
    let fresh: Vec<CoveragePoint> = {
        let s = job.shared.state.lock().expect("campaign state poisoned");
        s.timeline.get(sink.timeline_sent..).unwrap_or(&[]).to_vec()
    };
    sink.timeline_sent += fresh.len();
    for point in fresh {
        let _ = sink.sender.send(CampaignEvent::Coverage {
            executions: point.executions,
            covered_edges: point.covered_edges,
            coverage: point.coverage,
            elapsed_ms: point.elapsed_ms,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::CROWDSALE;
    use mufuzz_lang::compile_source;
    use std::time::{Duration, Instant};

    /// Occupy every thread of `service`'s pool until the returned senders
    /// are dropped, so a submitted campaign waits in the queue.
    fn hold_pool(service: &CampaignService) -> Vec<Sender<()>> {
        (0..service.thread_count())
            .map(|_| {
                let (release, gate) = channel::<()>();
                service.pool.spawn(move |_| {
                    let _ = gate.recv();
                });
                release
            })
            .collect()
    }

    /// Poison `lock` the way a panicking lane would.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = lock.lock().unwrap();
                panic!("a lane panicked while holding this lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    /// Poll until the campaign stops running or `limit` passes, so a
    /// campaign that never settles fails the test instead of hanging it.
    fn settle(handle: &CampaignHandle, limit: Duration) -> CampaignProgress {
        let start = Instant::now();
        loop {
            let progress = handle.poll();
            if !matches!(progress, CampaignProgress::Running { .. }) || start.elapsed() > limit {
                return progress;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn assert_failed_with(handle: CampaignHandle, expected: &str) {
        match settle(&handle, Duration::from_secs(30)) {
            CampaignProgress::Failed { message } => {
                assert!(message.contains(expected), "{message}")
            }
            other => panic!("the campaign did not fail: {other:?}"),
        }
        let failed = handle.events().into_iter().find_map(|event| match event {
            CampaignEvent::Failed { message } => Some(message),
            _ => None,
        });
        assert!(failed.is_some_and(|message| message.contains(expected)));
        let panic = catch_unwind(AssertUnwindSafe(|| handle.wait()))
            .expect_err("waiting on a failed campaign panics");
        let message = panic_message(panic.as_ref());
        assert!(
            message.contains("failed") && message.contains(expected),
            "{message}"
        );
    }

    #[test]
    fn a_panic_in_the_prologue_fails_the_campaign() {
        let service = CampaignService::new(1);
        let held = hold_pool(&service);
        let config = FuzzerConfig::mufuzz(500).with_workers(1);
        let handle = service
            .submit(compile_source(CROWDSALE).unwrap(), config)
            .unwrap();
        poison(&handle.job.shared.state);
        drop(held);
        assert_failed_with(handle, "campaign state poisoned");
    }

    #[test]
    fn a_panicking_lane_stops_the_other_lanes() {
        let service = CampaignService::new(2);
        let held = hold_pool(&service);
        // A budget the healthy lane would take minutes to spend.
        let config = FuzzerConfig::mufuzz(100_000_000).with_workers(2);
        let handle = service
            .submit(compile_source(CROWDSALE).unwrap(), config)
            .unwrap();
        poison(&handle.job.lanes[1]);
        drop(held);
        let job = Arc::clone(&handle.job);
        assert_failed_with(handle, "campaign lane poisoned");
        assert!(job.shared.executions() < 100_000_000);
    }

    /// Lanes of different campaigns take turns on the pool's queue: on one
    /// thread, a long campaign submitted behind a short one has run by the
    /// time the short one completes, and still answers a pause.
    #[test]
    fn campaigns_on_one_thread_take_turns() {
        let service = CampaignService::new(1);
        let held = hold_pool(&service);
        let submit = |budget| {
            let config = FuzzerConfig::mufuzz(budget).with_workers(1);
            service
                .submit(compile_source(CROWDSALE).unwrap(), config)
                .unwrap()
        };
        let short = submit(2_000);
        let long = submit(100_000_000);
        drop(held);
        assert_eq!(short.wait().executions, 2_000);
        match long.poll() {
            CampaignProgress::Running { executions, .. } => assert!(executions > 0),
            other => panic!("the long campaign is not running: {other:?}"),
        }
        long.pause();
        assert!(matches!(
            settle(&long, Duration::from_secs(30)),
            CampaignProgress::Paused { .. }
        ));
    }
}
