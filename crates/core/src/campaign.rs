//! The fuzzing campaign: seed scheduling, mask computation, mutation,
//! execution, coverage accounting and bug reporting.
//!
//! This is the driver that ties the three MuFuzz components together
//! (paper Figure 2): the sequence-aware generator supplies transaction
//! orderings, the mask-guided mutator evolves the per-transaction byte
//! streams, and the dynamic energy scheduler decides how many mutants each
//! seed receives.
//!
//! # Fleet engine
//!
//! The mutate→execute→evaluate inner loop runs as `FuzzerConfig::workers`
//! *lanes* — sequential strands of batch tasks scheduled on a shared
//! work-stealing [`crate::fleet::FleetPool`] by the
//! [`crate::service::CampaignService`]. A lane's batches run one at a time
//! in order, so a single-lane campaign is deterministic at any pool size.
//! The shared campaign state is split by contention profile (the full
//! locking model is documented in `docs/ARCHITECTURE.md`):
//!
//! * **Coverage** lives in a lock-free [`CoverageMap`] — an atomic bitmap
//!   over the dense edge ids assigned by the harness's
//!   [`mufuzz_analysis::EdgeIndex`]. Workers merge every execution's edges
//!   with `fetch_or` word updates and never touch the state mutex for it.
//! * **The execution budget** is an atomic reservation counter: a worker
//!   reserves a slot *before* executing, so a campaign can never overshoot
//!   `max_executions`, at any worker count.
//! * **Seed scheduling** runs off per-lane **corpus shards**: each lane
//!   mirrors the corpus (seed refs plus cached weights) locally and draws
//!   seeds / allocates energy from the mirror with no lock at all. A
//!   [`SchedulerEpoch`] counter, bumped on every admission and culling pass,
//!   tells stale mirrors to resync before their next draw, so every draw
//!   still sees the full Algorithm 3 corpus view.
//! * **Scheduling state** — the corpus, the timeline and the diagnostic
//!   shape log — stays in a `SharedCampaignState` behind one mutex, held
//!   only to admit new seeds (and periodically cull dominated ones), to
//!   resync shard mirrors, to claim mask-probe passes, and to append
//!   timeline points.
//!
//! Sequence executions run unlocked against lane-local [`ContractHarness`]
//! clones, and bug oracles observe into lane-local [`CampaignMonitor`]s
//! that are merged before finalisation.
//!
//! Lane 0 inherits the campaign RNG, and every merge happens at the same
//! point of the per-mutant cycle as in the historical sequential engine, so
//! `workers == 1` reproduces the single-threaded campaign bit for bit for a
//! fixed `rng_seed` — and, through [`crate::snapshot::CampaignSnapshot`],
//! across a checkpoint/resume boundary. Additional lanes draw decorrelated
//! `SmallRng` streams derived from `rng_seed`.

use crate::config::FuzzerConfig;
use crate::coverage::{CoverageMap, SchedulerEpoch};
use crate::energy::{allocate_energy, corpus_mean_weight, seed_weight};
use crate::executor::{ContractHarness, HarnessError, SequenceOutcome};
use crate::input::{Seed, Sequence};
use crate::mutation::{apply_op, mutate_masked, InterestingValues, MutationMask, MutationOp};
use crate::replay::FindingRecord;
use crate::round::RoundRt;
use crate::seedgen::SequenceGenerator;
use crate::service::{CampaignService, SubmitOptions};
use crate::snapshot::{put_seed, Digest};
use mufuzz_analysis::{analyze_contract, plan_sequence, ControlFlowGraph, DistanceMap};
use mufuzz_evm::{BranchEdge, ExecFrame, WorldState};
use mufuzz_lang::CompiledContract;
use mufuzz_oracles::{BugFinding, CampaignMonitor, MonitorState};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How deep a branch must sit (static nesting) before a seed that reaches it
/// is treated as "hitting a deeply nested branch" for mask purposes.
pub(crate) const NESTED_BRANCH_DEPTH: usize = 3;

/// Maximum number of 32-byte words probed per transaction when computing a
/// mutation mask (bounds the cost of Algorithm 2 on long inputs). The first
/// words of the stream are the ether value and the leading arguments — the
/// positions strict guards almost always constrain. Words beyond the probed
/// prefix stay freely mutable.
pub(crate) const MAX_MASK_WORDS: usize = 3;

/// Maximum number of transactions probed per seed when computing masks; later
/// transactions of very long sequences stay freely mutable. Keeps the probe
/// cost of Algorithm 2 bounded for the large-contract datasets.
pub(crate) const MAX_MASK_TXS: usize = 6;

/// One point of the coverage-over-time curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoveragePoint {
    /// Number of sequence executions so far.
    pub executions: usize,
    /// Elapsed wall-clock milliseconds.
    pub elapsed_ms: u64,
    /// Distinct branch edges covered.
    pub covered_edges: usize,
    /// Covered edges / total edges.
    pub coverage: f64,
}

/// The result of a fuzzing campaign on one contract.
///
/// ```
/// use mufuzz::{Fuzzer, FuzzerConfig};
/// use mufuzz_lang::compile_source;
///
/// let compiled = compile_source(
///     "contract Toggle { uint256 on; function flip() public { if (on == 0) { on = 1; } else { on = 0; } } }",
/// )
/// .unwrap();
/// let report = Fuzzer::new(compiled, FuzzerConfig::mufuzz(60).with_workers(1))
///     .unwrap()
///     .run();
/// assert_eq!(report.executions, 60); // the budget is exact
/// assert!(report.covered_edges <= report.total_edges);
/// assert!(report.coverage_percent() <= 100.0);
/// assert!(report.execs_per_sec() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Contract name.
    pub contract: String,
    /// Distinct branch edges covered.
    pub covered_edges: usize,
    /// Total branch edges in the contract (2 per `JUMPI`).
    pub total_edges: usize,
    /// Branch coverage in `[0, 1]`.
    pub coverage: f64,
    /// Number of sequence executions performed.
    pub executions: usize,
    /// Deduplicated bug findings.
    pub findings: Vec<BugFinding>,
    /// Coverage-over-time curve.
    pub timeline: Vec<CoveragePoint>,
    /// Number of seeds in the final corpus.
    pub corpus_size: usize,
    /// Number of dominated seeds dropped by corpus culling (zero unless
    /// [`SchedulerConfig::corpus_cull_interval`](crate::config::SchedulerConfig::corpus_cull_interval)
    /// is set).
    pub culled_seeds: usize,
    /// Wall-clock duration of the campaign.
    pub elapsed_ms: u64,
    /// Example sequence shapes that contributed new coverage (diagnostics).
    pub interesting_shapes: Vec<String>,
    /// Number of worker threads the campaign ran with.
    pub workers: usize,
    /// FNV-1a digest of the final corpus (every seed's snapshot encoding, in
    /// corpus order). Two campaigns with equal digests ended with
    /// bit-identical corpora — the round-mode determinism suite compares
    /// this across worker counts.
    pub corpus_digest: u64,
    /// FNV-1a digest of the final coverage bitmap words.
    pub coverage_digest: u64,
    /// Replayable finding records (round mode only; empty under the
    /// free-running profile). Each pins the mutant sequence that triggered a
    /// finding to its `(seed uid, round, slot)` provenance — see
    /// [`FindingRecord`] and [`crate::replay::replay_finding`].
    pub finding_records: Vec<FindingRecord>,
}

impl CampaignReport {
    /// Coverage as a percentage.
    pub fn coverage_percent(&self) -> f64 {
        self.coverage * 100.0
    }

    /// Campaign throughput in sequence executions per second.
    pub fn execs_per_sec(&self) -> f64 {
        self.executions as f64 * 1_000.0 / (self.elapsed_ms.max(1) as f64)
    }

    /// Bug classes found.
    pub fn detected_classes(&self) -> BTreeSet<mufuzz_oracles::BugClass> {
        self.findings.iter().map(|f| f.class).collect()
    }
}

/// Scheduling state shared by every worker, guarded by one mutex.
///
/// Seed selection and energy allocation read the *global* corpus here, so
/// Algorithm 3 stays a single scheduler even with many workers. Coverage and
/// the execution budget deliberately live *outside* this struct (see
/// [`CampaignShared`]): they are merged/reserved with atomics so the mutex
/// only serialises corpus admissions, culling and timeline appends.
pub(crate) struct SharedCampaignState {
    pub(crate) corpus: Vec<Seed>,
    pub(crate) timeline: Vec<CoveragePoint>,
    pub(crate) interesting_shapes: Vec<String>,
    /// Next seed uid to hand out at admission.
    pub(crate) next_uid: u64,
    /// Corpus admissions since the last culling pass.
    pub(crate) admitted_since_cull: usize,
    /// Total dominated seeds dropped so far.
    pub(crate) culled: usize,
}

impl SharedCampaignState {
    /// Add a seed to the corpus, assigning its stable uid.
    pub(crate) fn admit(&mut self, mut seed: Seed) {
        seed.uid = self.next_uid;
        self.next_uid += 1;
        self.corpus.push(seed);
        self.admitted_since_cull += 1;
    }

    /// Periodic corpus culling: when enabled and due, drop every seed that
    /// is dominated by a kept seed (covered edges a subset, branch-distance
    /// score no better — see [`Seed::is_dominated_by`]). Seeds with a mask
    /// probe in flight are exempt so the probe investment is not wasted.
    /// Runs under the state lock; the corpus is small (tens of seeds), so the
    /// quadratic scan is cheap next to a single sequence execution.
    pub(crate) fn maybe_cull(&mut self, interval: Option<usize>) {
        let Some(every) = interval else { return };
        if self.admitted_since_cull < every || self.corpus.len() < 2 {
            return;
        }
        self.admitted_since_cull = 0;
        let n = self.corpus.len();
        let mut dropped = vec![false; n];
        for i in 0..n {
            if self.corpus[i].masks_pending && self.corpus[i].masks.is_none() {
                continue;
            }
            for j in 0..n {
                if i == j || dropped[j] {
                    continue;
                }
                if self.corpus[i].is_dominated_by(&self.corpus[j]) {
                    dropped[i] = true;
                    break;
                }
            }
        }
        let mut keep = dropped.iter().map(|d| !d);
        let before = self.corpus.len();
        self.corpus.retain(|_| keep.next().unwrap());
        self.culled += before - self.corpus.len();
    }
}

/// Everything the workers share, split by contention profile: the atomic
/// coverage bitmap and budget counter (merged/reserved lock-free on every
/// execution) and the mutex-guarded scheduling state (touched only for seed
/// draws, admissions and timeline points).
pub(crate) struct CampaignShared {
    pub(crate) state: Mutex<SharedCampaignState>,
    pub(crate) coverage: CoverageMap,
    /// Execution slots handed out. A worker reserves a slot *before* every
    /// execution and always performs the execution after a successful
    /// reservation, so this counter equals the number of executions
    /// performed and can never exceed `max_executions`.
    pub(crate) reserved: AtomicUsize,
    /// Scheduling-state generation: bumped (under the state lock) on every
    /// corpus admission and culling pass so stale worker shards resync
    /// before their next draw. Steady-state draws compare against it with a
    /// single atomic load and touch no lock.
    pub(crate) epoch: SchedulerEpoch,
    /// Round-mode runtime: the current round's frozen view, slot ledger and
    /// master monitor. `None` under the free-running profile and until the
    /// service bootstrap installs the first round. Lock order when combined
    /// with the others: `round` → event sink → `state`.
    pub(crate) round: Mutex<Option<RoundRt>>,
}

impl CampaignShared {
    /// Fresh shared state for a new campaign over `edges` branch edges.
    pub(crate) fn new(edges: usize) -> CampaignShared {
        CampaignShared {
            state: Mutex::new(SharedCampaignState {
                corpus: Vec::new(),
                timeline: Vec::new(),
                interesting_shapes: Vec::new(),
                next_uid: 0,
                admitted_since_cull: 0,
                culled: 0,
            }),
            coverage: CoverageMap::new(edges),
            reserved: AtomicUsize::new(0),
            epoch: SchedulerEpoch::new(),
            round: Mutex::new(None),
        }
    }

    /// Reserve one execution slot against the budget. Returns the 1-based
    /// slot number (the value the execution counter reaches with this
    /// execution), or `None` when the budget is exhausted.
    fn try_reserve(&self, max_executions: usize) -> Option<usize> {
        self.reserved
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max_executions).then_some(n + 1)
            })
            .ok()
            .map(|previous| previous + 1)
    }

    /// Executions performed (equivalently: slots reserved) so far.
    pub(crate) fn executions(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }
}

/// Immutable per-campaign parameters shared by all workers.
#[derive(Clone, Copy)]
pub(crate) struct RunParams {
    pub(crate) start: Instant,
    pub(crate) snapshot_every: usize,
    pub(crate) total_edges: usize,
    /// Wall-clock milliseconds accumulated by earlier segments of a resumed
    /// campaign; zero for a fresh submission. Added to every elapsed-time
    /// reading so time budgets and timeline stamps span the whole campaign.
    pub(crate) base_elapsed_ms: u64,
}

impl RunParams {
    /// Derive the campaign's run parameters from its context.
    pub(crate) fn new(ctx: &CampaignContext, base_elapsed_ms: u64) -> RunParams {
        let snapshot_every =
            (ctx.config.max_executions() / ctx.config.timeline_points.max(1)).max(1);
        RunParams {
            start: Instant::now(),
            snapshot_every,
            total_edges: ctx.total_edges,
            base_elapsed_ms,
        }
    }

    /// Total campaign wall-clock time, including pre-resume segments.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.base_elapsed_ms + self.start.elapsed().as_millis() as u64
    }
}

/// The pause signal a lane checks at every batch boundary: an optional fixed
/// execution count (deterministic for single-lane campaigns, the
/// checkpoint/resume anchor) plus an asynchronous user request.
pub(crate) struct PauseState {
    pub(crate) at: Option<usize>,
    pub(crate) requested: AtomicBool,
}

impl PauseState {
    pub(crate) fn new(at: Option<usize>) -> PauseState {
        PauseState {
            at,
            requested: AtomicBool::new(false),
        }
    }

    pub(crate) fn engaged(&self, executions: usize) -> bool {
        self.requested.load(Ordering::Relaxed) || self.at.is_some_and(|at| executions >= at)
    }
}

/// What a lane did in one scheduling step.
pub(crate) enum LaneStep {
    /// Ran a batch; the lane has more work.
    Continue,
    /// The campaign budget (executions or wall clock) is exhausted.
    Finished,
    /// The lane stopped at a pause point with budget remaining.
    Paused,
}

/// Seed selection: prefer seeds close to uncovered branches (branch-distance
/// feedback), fall back to weight-proportional choice.
///
/// A free function over any corpus view — the mutex-guarded global corpus, a
/// worker's shard mirror, or a round slot's frozen view — so every draw path
/// consumes the RNG identically and makes the same choice over the same view.
pub(crate) fn select_seed(config: &FuzzerConfig, rng: &mut SmallRng, corpus: &[Seed]) -> usize {
    debug_assert!(!corpus.is_empty());
    if config.enable_branch_distance && rng.gen_bool(0.5) {
        let best = corpus
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.best_distance.map(|d| (i, d + 0.01 * s.selections as f64)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some((i, _)) = best {
            return i;
        }
    }
    // Weight-proportional roulette (uniform when dynamic energy is off).
    if config.enable_dynamic_energy {
        let total: f64 = corpus.iter().map(|s| s.weight).sum();
        let mut target = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, seed) in corpus.iter().enumerate() {
            if target < seed.weight {
                return i;
            }
            target -= seed.weight;
        }
    }
    rng.gen_range(0..corpus.len())
}

/// Mutate a seed into a fresh candidate sequence: byte-level mask-guided
/// mutation on one transaction, occasionally combined with a structural
/// sequence mutation. A free function over an explicit RNG so the
/// free-running lanes (worker RNG) and round-mode slots (slot RNG) consume
/// randomness identically for the same seed.
pub(crate) fn mutate_sequence(ctx: &CampaignContext, rng: &mut SmallRng, seed: &Seed) -> Sequence {
    let mut sequence = seed.sequence.clone();
    if sequence.is_empty() {
        return ctx
            .generator
            .generate(&ctx.harness.compiled.abi, rng, &ctx.interesting);
    }

    // Structural mutation with 30% probability (ordering is preserved when
    // sequence-aware mutation is on).
    if rng.gen_bool(0.3) {
        sequence = ctx.generator.mutate_structure(
            &sequence,
            &ctx.harness.compiled.abi,
            rng,
            &ctx.interesting,
        );
    }

    // Byte-level mutation of one (or a few) transactions.
    let mutations = 1 + rng.gen_range(0..2usize);
    for _ in 0..mutations {
        let idx = rng.gen_range(0..sequence.txs.len());
        let stream = sequence.txs[idx].stream.clone();
        // The mask biases mutation away from the frozen critical words; a
        // small fraction of mutants still ignores it so the frozen positions
        // themselves can eventually be explored (flipping the guarded branch
        // needs exactly that).
        let use_mask = ctx.config.enable_mask_guidance && rng.gen_bool(0.8);
        let mask = seed
            .masks
            .as_ref()
            .and_then(|m| m.get(idx))
            .cloned()
            .filter(|_| use_mask)
            .unwrap_or_else(|| MutationMask::allow_all(stream.len()));
        if let Some(mutated) = mutate_masked(&stream, &mask, rng, &ctx.interesting) {
            sequence.txs[idx].stream = mutated;
        }
    }
    sequence
}

/// Build seed metadata from an execution outcome, resolving "is this edge
/// covered?" through the supplied predicate — the shared atomic bitmap for
/// free-running lanes, a slot's frozen local view in round mode. The
/// coverage view must already include the outcome's own edges (merge first,
/// then admit).
pub(crate) fn make_seed(
    ctx: &CampaignContext,
    sequence: Sequence,
    outcome: &SequenceOutcome,
    new_edges: usize,
    covered: &dyn Fn(&BranchEdge) -> bool,
) -> Seed {
    let mut seed = Seed::new(sequence);
    seed.covered_edge_ids = outcome.covered_edge_ids.clone();
    seed.new_edges = new_edges;
    seed.weight = seed_weight(&outcome.traces, &ctx.cfg_graph);
    seed.hits_nested_branch = outcome.traces.iter().any(|t| {
        t.branches.iter().any(|b| {
            ctx.cfg_graph
                .branches
                .get(&b.pc)
                .map(|site| site.nesting_depth >= NESTED_BRANCH_DEPTH)
                .unwrap_or(false)
        })
    });
    seed.best_distance = distance_to_uncovered(ctx, outcome, covered);
    seed
}

/// Smallest normalised distance from an outcome to any branch edge the
/// supplied coverage view reports uncovered (branch-distance feedback,
/// §IV-B).
pub(crate) fn distance_to_uncovered(
    ctx: &CampaignContext,
    outcome: &SequenceOutcome,
    covered: &dyn Fn(&BranchEdge) -> bool,
) -> Option<f64> {
    if !ctx.config.enable_branch_distance {
        return None;
    }
    let mut best: Option<f64> = None;
    for trace in &outcome.traces {
        let map = DistanceMap::from_trace(trace);
        for (edge, d) in &map.distances {
            if covered(edge) {
                continue;
            }
            best = Some(match best {
                Some(b) if b <= *d => b,
                _ => *d,
            });
        }
    }
    best
}

/// Program counters of the deeply nested branches an outcome covers (the
/// mask-probe baseline comparison of Algorithm 2).
pub(crate) fn outcome_nested_pcs(
    ctx: &CampaignContext,
    outcome: &SequenceOutcome,
) -> BTreeSet<usize> {
    outcome
        .traces
        .iter()
        .flat_map(|t| t.branches.iter())
        .filter(|b| {
            ctx.cfg_graph
                .branches
                .get(&b.pc)
                .map(|s| s.nesting_depth >= NESTED_BRANCH_DEPTH)
                .unwrap_or(false)
        })
        .map(|b| b.pc)
        .collect()
}

/// Program counters of the deeply nested branches a seed covers.
pub(crate) fn seed_nested_pcs(ctx: &CampaignContext, seed: &Seed) -> BTreeSet<usize> {
    let index = ctx.harness.edge_index();
    seed.covered_edge_ids
        .iter()
        .filter_map(|id| index.edge_of(*id))
        .filter(|e| {
            ctx.cfg_graph
                .branches
                .get(&e.pc)
                .map(|s| s.nesting_depth >= NESTED_BRANCH_DEPTH)
                .unwrap_or(false)
        })
        .map(|e| e.pc)
        .collect()
}

/// A decorrelated per-worker RNG seed (SplitMix64 over the campaign seed and
/// the worker index). Worker 0 does not use this: it inherits the campaign
/// RNG directly so single-worker runs replay the sequential engine.
pub(crate) fn derive_worker_seed(rng_seed: u64, index: usize) -> u64 {
    let mut z = rng_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A worker's local mirror of the scheduling state: the corpus's seeds with
/// their cached weights, stamped with the [`SchedulerEpoch`] generation it
/// was synced at.
///
/// Steady-state seed draws and energy allocation run entirely off this
/// mirror — no lock. The mirror is rebuilt (under the state lock) whenever
/// the published epoch differs from the stamp, i.e. before any draw that
/// would otherwise miss an admission or a culling pass, and every
/// `FuzzerConfig::shard_resync_draws` draws so locally accumulated selection
/// counts flow back into the global corpus at bounded staleness.
#[derive(Default)]
struct CorpusShard {
    /// Epoch generation this mirror reflects.
    epoch: u64,
    /// The mirrored corpus (same order as the global corpus vector).
    seeds: Vec<Seed>,
    /// Selection counts at the last sync, parallel to `seeds`; the per-seed
    /// difference is the delta flushed at the next resync.
    synced_selections: Vec<usize>,
    /// Draws since the last resync.
    draws: usize,
}

/// The immutable setup of one campaign, shared by all of its lanes:
/// configuration, static analyses, the sequence generator, the interesting
/// value pool and the deployed harness prototype (each lane clones its own
/// working copy). Built once by [`CampaignContext::prepare`] and passed
/// around in an `Arc`, so lane tasks on the fleet pool can own it without
/// borrowing from a driver thread.
pub(crate) struct CampaignContext {
    pub(crate) config: FuzzerConfig,
    pub(crate) cfg_graph: ControlFlowGraph,
    pub(crate) generator: SequenceGenerator,
    pub(crate) interesting: InterestingValues,
    pub(crate) harness: ContractHarness,
    pub(crate) total_edges: usize,
}

impl CampaignContext {
    /// Deploy the contract, run the static analyses and prepare the mutation
    /// value pool (the campaign setup that used to live in `Fuzzer::new`).
    pub(crate) fn prepare(
        compiled: CompiledContract,
        config: FuzzerConfig,
    ) -> Result<CampaignContext, HarnessError> {
        let cfg_graph = ControlFlowGraph::build(&compiled.runtime);
        let flow = analyze_contract(&compiled.contract);
        let mut plan = plan_sequence(&flow);
        if !config.enable_sequence_repetition {
            plan.mutated_order = plan.base_order.clone();
            plan.repeat_candidates.clear();
        }
        let mut interesting = if config.harvest_constants {
            InterestingValues::harvest(&compiled.runtime)
        } else {
            InterestingValues::defaults()
        };
        let harness = ContractHarness::new(compiled, &config)?;
        for addr in harness.interesting_addresses() {
            interesting.add(addr.to_u256());
        }
        let generator = SequenceGenerator::new(
            &harness.compiled.abi,
            plan,
            config.enable_sequence_aware,
            harness.senders.len(),
        );
        let total_edges = cfg_graph.total_branch_edges().max(1);
        Ok(CampaignContext {
            config,
            cfg_graph,
            generator,
            interesting,
            harness,
            total_edges,
        })
    }
}

/// One campaign lane: a lane-local harness, RNG and bug monitor plus a
/// shared handle on the immutable campaign context. A lane is a sequential
/// strand — the service runs its batches one at a time, in order — so a
/// single-lane campaign is deterministic no matter how many fleet threads
/// execute it.
pub(crate) struct Worker {
    pub(crate) ctx: Arc<CampaignContext>,
    pub(crate) harness: ContractHarness,
    pub(crate) rng: SmallRng,
    pub(crate) monitor: CampaignMonitor,
    /// Reusable interpreter scratch (stacks, memory buffers, trace capacity
    /// hints); threaded through every execution so the hot loop allocates
    /// nothing per transaction.
    pub(crate) frame: ExecFrame,
    /// Final world of the last mutant this worker executed (feeds the
    /// campaign-level oracles at finalisation).
    pub(crate) last_world: Option<WorldState>,
    /// Local mirror of the scheduling state that seed draws read.
    shard: CorpusShard,
}

impl Worker {
    /// A fresh lane over `ctx`, drawing from `rng`.
    pub(crate) fn new(ctx: Arc<CampaignContext>, rng: SmallRng) -> Worker {
        Worker {
            harness: ctx.harness.clone(),
            ctx,
            rng,
            monitor: CampaignMonitor::new(),
            frame: ExecFrame::new(),
            last_world: None,
            shard: CorpusShard::default(),
        }
    }

    /// Rebuild a lane from checkpointed state: the exact RNG stream position
    /// and the monitor's accumulated observations.
    pub(crate) fn restore(
        ctx: Arc<CampaignContext>,
        rng_state: [u64; 4],
        monitor: MonitorState,
    ) -> Worker {
        let mut worker = Worker::new(ctx, SmallRng::from_state(rng_state));
        worker.monitor = CampaignMonitor::from_state(monitor);
        worker
    }

    /// The lane's RNG stream position (for checkpointing).
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.to_state()
    }

    /// The lane's accumulated oracle observations (for checkpointing).
    pub(crate) fn monitor_state(&self) -> MonitorState {
        self.monitor.export_state()
    }

    /// The lane's current deduplicated findings (for event streaming).
    pub(crate) fn findings(&self) -> Vec<BugFinding> {
        self.monitor.findings()
    }

    /// Tear the lane down into the pieces finalisation needs.
    pub(crate) fn into_parts(self) -> (CampaignMonitor, Option<WorldState>, SmallRng) {
        (self.monitor, self.last_world, self.rng)
    }

    /// Move the lane's monitor out, leaving a fresh one behind. The round
    /// bootstrap promotes lane 0's monitor (which holds the initial-corpus
    /// and, on resume, the checkpointed observations) to the round runtime's
    /// master monitor.
    pub(crate) fn take_monitor(&mut self) -> CampaignMonitor {
        std::mem::replace(&mut self.monitor, CampaignMonitor::new())
    }

    pub(crate) fn time_exhausted(&self, params: &RunParams) -> bool {
        self.ctx
            .config
            .time_budget_ms()
            .is_some_and(|ms| params.elapsed_ms() >= ms)
    }

    /// Record a sequence outcome in the thread-local bug monitor.
    fn observe(&mut self, outcome: &SequenceOutcome) {
        for trace in &outcome.traces {
            self.monitor.observe(&self.harness.compiled, trace);
        }
        self.monitor
            .observe_world(outcome.final_world.balance(self.harness.contract_address));
    }

    /// Build seed metadata from an execution outcome. `coverage` must
    /// already include the outcome's own edges (merge first, then admit).
    fn admit_seed(
        &self,
        sequence: Sequence,
        outcome: &SequenceOutcome,
        new_edges: usize,
        coverage: &CoverageMap,
    ) -> Seed {
        let index = self.harness.edge_index();
        make_seed(&self.ctx, sequence, outcome, new_edges, &|edge| {
            coverage.contains_edge(edge, index)
        })
    }

    /// Smallest normalised distance from this outcome to any branch edge that
    /// is still uncovered globally (branch-distance feedback, §IV-B). Reads
    /// the atomic coverage bitmap, so no lock is required.
    fn best_distance_to_uncovered(
        &self,
        outcome: &SequenceOutcome,
        coverage: &CoverageMap,
    ) -> Option<f64> {
        let index = self.harness.edge_index();
        distance_to_uncovered(&self.ctx, outcome, &|edge| {
            coverage.contains_edge(edge, index)
        })
    }

    /// Mutate a seed: byte-level mask-guided mutation on one transaction,
    /// occasionally combined with a structural sequence mutation.
    fn mutate_seed(&mut self, seed: &Seed) -> Sequence {
        mutate_sequence(&self.ctx, &mut self.rng, seed)
    }

    /// Program counters of the deeply nested branches a seed covers.
    fn nested_branch_pcs(&self, seed: &Seed) -> BTreeSet<usize> {
        seed_nested_pcs(&self.ctx, seed)
    }

    /// Execute the initial plan-derived corpus (the lane-0 prologue, run
    /// before the other lanes start).
    pub(crate) fn run_initial(&mut self, shared: &CampaignShared, params: &RunParams) {
        let initial = self.ctx.generator.initial_sequences(
            &self.harness.compiled.abi,
            self.ctx.config.initial_seeds,
            &mut self.rng,
            &self.ctx.interesting,
        );
        for sequence in initial {
            if self.time_exhausted(params) {
                break;
            }
            let Some(slot) = shared.try_reserve(self.ctx.config.max_executions()) else {
                break;
            };
            let outcome = self
                .harness
                .execute_sequence_with(&sequence, &mut self.frame);
            self.observe(&outcome);
            let new_edges = shared.coverage.merge_ids(&outcome.covered_edge_ids);
            // Initial seeds always join the corpus, new coverage or not, and
            // are never subject to culling here (the corpus is still being
            // seeded).
            let seed = self.admit_seed(sequence, &outcome, new_edges, &shared.coverage);
            let mut s = shared.state.lock().expect("campaign state poisoned");
            s.admit(seed);
            shared.epoch.bump();
            Self::snapshot_locked(&mut s, shared, params, slot);
        }
    }

    /// Append a timeline point if the reserved execution slot sits on a
    /// snapshot boundary. Must be called with the state lock held, after the
    /// slot's coverage has been merged.
    fn snapshot_locked(
        s: &mut SharedCampaignState,
        shared: &CampaignShared,
        params: &RunParams,
        slot: usize,
    ) {
        if slot.is_multiple_of(params.snapshot_every) {
            let covered = shared.coverage.covered_count();
            s.timeline.push(CoveragePoint {
                executions: slot,
                elapsed_ms: params.elapsed_ms(),
                covered_edges: covered,
                coverage: covered as f64 / params.total_edges as f64,
            });
        }
    }

    /// One lane scheduling step — the unit of fleet-pool work: check the
    /// stop and pause conditions, then draw a seed batch off-lock from the
    /// local shard, optionally probe its mutation mask, and
    /// generate and execute the allotted mutants, merging feedback after
    /// every execution. The historical `run_loop` was exactly this body
    /// iterated to exhaustion; splitting it at the draw boundary lets the
    /// pool interleave many campaigns without changing any lane's RNG
    /// stream, and gives pause a deterministic anchor.
    pub(crate) fn step(
        &mut self,
        shared: &CampaignShared,
        params: &RunParams,
        pause: &PauseState,
    ) -> LaneStep {
        if self.ctx.config.round_mode() {
            return crate::round::round_step(self, shared, params, pause);
        }
        if shared.executions() >= self.ctx.config.max_executions() || self.time_exhausted(params) {
            self.retire(shared);
            return LaneStep::Finished;
        }
        if pause.engaged(shared.executions()) {
            self.retire(shared);
            return LaneStep::Paused;
        }
        let (seed_snapshot, seed_uid, energy, compute) = self.draw_sharded(shared);
        if self
            .run_batch(shared, params, seed_snapshot, seed_uid, energy, compute)
            .is_break()
        {
            self.retire(shared);
            return LaneStep::Finished;
        }
        LaneStep::Continue
    }

    /// Leave no locally accumulated scheduling feedback behind: flush the
    /// shard's selection-count deltas and drop the mirror. Called when the
    /// lane finishes or pauses; after a pause the flushed global corpus is
    /// the complete scheduling state, which is what the checkpoint
    /// serializes. Dropping the mirror is RNG-neutral — resyncs never
    /// consume randomness — so a resumed lane rebuilding it from the global
    /// corpus continues the exact same campaign.
    fn retire(&mut self, shared: &CampaignShared) {
        if !self.shard.seeds.is_empty() {
            let mut s = shared.state.lock().expect("campaign state poisoned");
            self.flush_selections_locked(&mut s);
        }
        self.shard = CorpusShard::default();
    }

    /// Draw a seed batch from the worker's corpus shard: selection, energy
    /// allocation and the mask-probe gate all read the local mirror, so a
    /// steady-state draw takes no lock at all. The lock is touched only to
    /// resync a stale mirror (the epoch moved, or the forced interval
    /// elapsed) and to claim a mask-probe pass against the global view.
    ///
    /// Because every corpus change bumps the epoch *before* the changing
    /// worker's next draw, a fresh mirror is always content-identical to the
    /// global corpus, so a draw decides exactly what a draw from the global
    /// corpus would from the same RNG stream. That is what keeps `workers ==
    /// 1` campaigns bit-identical to the historical engine (the snapshot
    /// test pins it).
    fn draw_sharded(&mut self, shared: &CampaignShared) -> (Seed, u64, usize, bool) {
        if self.shard.epoch != shared.epoch.current()
            || self.shard.draws >= self.ctx.config.scheduler.shard_resync_draws
        {
            self.resync_shard(shared);
        }
        self.shard.draws += 1;
        let seed_index = select_seed(&self.ctx.config, &mut self.rng, &self.shard.seeds);
        self.shard.seeds[seed_index].selections += 1;

        // Energy allocation (Algorithm 3) against the mirrored corpus.
        let mean_weight = corpus_mean_weight(&self.shard.seeds);
        let energy = allocate_energy(
            self.shard.seeds[seed_index].weight,
            mean_weight,
            self.ctx.config.scheduler.base_energy,
            self.ctx.config.enable_dynamic_energy,
        );

        let remaining = self
            .ctx
            .config
            .max_executions()
            .saturating_sub(shared.executions());
        let seed = &self.shard.seeds[seed_index];
        let seed_uid = seed.uid;
        let wants = Self::wants_masks(&self.ctx.config, seed, remaining);
        // Claiming a probe pass needs the global view: another worker may
        // have claimed — or finished — the same seed's masks since this
        // mirror was synced.
        let compute = if wants {
            let claimed = {
                let mut s = shared.state.lock().expect("campaign state poisoned");
                match s.corpus.iter_mut().find(|g| g.uid == seed_uid) {
                    Some(global) if global.masks.is_none() && !global.masks_pending => {
                        global.masks_pending = true;
                        None
                    }
                    Some(global) => Some((global.masks.clone(), global.masks_pending)),
                    // Culled since the last resync: draw it one last time
                    // without probing; the stale mirror retires at the next
                    // epoch check.
                    None => Some((None, false)),
                }
            };
            match claimed {
                None => {
                    self.shard.seeds[seed_index].masks_pending = true;
                    true
                }
                Some((masks, pending)) => {
                    // Adopt the fresher global mask state so the batch
                    // mutates with it and the mirror stops re-claiming.
                    let seed = &mut self.shard.seeds[seed_index];
                    seed.masks = masks;
                    seed.masks_pending = pending;
                    false
                }
            }
        } else {
            false
        };
        // Snapshot only the fields the batch reads: the covered-edges list
        // (the potentially large part) is needed solely as the
        // nested-branch baseline of a probe pass.
        let seed = &self.shard.seeds[seed_index];
        let snapshot = Seed {
            uid: seed.uid,
            sequence: seed.sequence.clone(),
            covered_edge_ids: if compute {
                seed.covered_edge_ids.clone()
            } else {
                Vec::new()
            },
            new_edges: seed.new_edges,
            hits_nested_branch: seed.hits_nested_branch,
            weight: seed.weight,
            best_distance: seed.best_distance,
            selections: seed.selections,
            masks: seed.masks.clone(),
            masks_pending: seed.masks_pending,
        };
        (snapshot, seed_uid, energy, compute)
    }

    /// The mask-probe gate (Algorithm 2 scheduling): compute masks once per
    /// seed, only for seeds the paper considers worth masking — those
    /// hitting deeply nested branches or improving branch distance. The
    /// probe executions are real executions — they consume budget but also
    /// contribute coverage and can be admitted as seeds — so masking is
    /// deferred until a seed has proven interesting (selected more than
    /// once) and enough budget remains to amortise the probes.
    pub(crate) fn wants_masks(config: &FuzzerConfig, seed: &Seed, remaining: usize) -> bool {
        let probe_cost_estimate = 4 * MAX_MASK_WORDS * seed.sequence.len().clamp(1, MAX_MASK_TXS);
        config.enable_mask_guidance
            && seed.masks.is_none()
            && !seed.masks_pending
            && seed.selections >= 2
            && remaining > 2 * probe_cost_estimate
            && (seed.hits_nested_branch || seed.best_distance.is_some())
    }

    /// Rebuild the worker's corpus mirror from the global scheduling state,
    /// first flushing the selection counts accumulated locally since the
    /// previous sync. The epoch stamp is read under the same lock, so a
    /// mirror is never stamped fresher than its contents.
    ///
    /// The corpus clone does run under the lock — that is what makes the
    /// mirror a consistent snapshot — but resyncs fire only on admissions
    /// and at the forced interval, the corpus is tens of seeds, and the
    /// clone replaces what used to be a lock acquisition plus a sequence
    /// clone on *every* draw.
    fn resync_shard(&mut self, shared: &CampaignShared) {
        let mut s = shared.state.lock().expect("campaign state poisoned");
        self.flush_selections_locked(&mut s);
        self.shard.epoch = shared.epoch.current();
        self.shard.seeds = s.corpus.clone();
        drop(s);
        self.shard.synced_selections = self.shard.seeds.iter().map(|x| x.selections).collect();
        self.shard.draws = 0;
    }

    /// Push the shard's selection-count deltas into the global corpus
    /// (matching seeds by uid — culling may have dropped or reshuffled
    /// them). Must be called with the state lock held.
    fn flush_selections_locked(&self, s: &mut SharedCampaignState) {
        for (mirror, &synced) in self.shard.seeds.iter().zip(&self.shard.synced_selections) {
            let delta = mirror.selections - synced;
            if delta > 0 {
                if let Some(global) = s.corpus.iter_mut().find(|g| g.uid == mirror.uid) {
                    global.selections += delta;
                }
            }
        }
    }

    /// Run one drawn batch: optionally probe the seed's mutation mask, then
    /// mutate→execute→evaluate `energy` mutants, merging feedback after
    /// every execution. Returns `Break` when the campaign budget (execution
    /// or wall-clock) ends inside the batch.
    fn run_batch(
        &mut self,
        shared: &CampaignShared,
        params: &RunParams,
        mut seed_snapshot: Seed,
        seed_uid: u64,
        energy: usize,
        compute: bool,
    ) -> ControlFlow<()> {
        if compute {
            let masks = self.compute_masks(&seed_snapshot, shared);
            seed_snapshot.masks = Some(masks.clone());
            {
                let mut s = shared.state.lock().expect("campaign state poisoned");
                // Look the seed up by uid, not index: culling may have
                // reshuffled (or dropped) it while the probes ran.
                if let Some(seed) = s.corpus.iter_mut().find(|x| x.uid == seed_uid) {
                    seed.masks = Some(masks.clone());
                }
            }
            // Keep the local mirror fresh too; no epoch bump needed — other
            // workers re-check mask state under the lock when they claim.
            if let Some(seed) = self.shard.seeds.iter_mut().find(|x| x.uid == seed_uid) {
                seed.masks = Some(masks);
            }
        }

        // ---- the mutate→execute→evaluate batch (executions unlocked) ----
        for _ in 0..energy {
            if self.time_exhausted(params) {
                return ControlFlow::Break(());
            }
            // Exact budget: reserve the slot before mutating/executing;
            // a successful reservation is always followed by exactly one
            // execution, so the campaign can never overshoot.
            let Some(slot) = shared.try_reserve(self.ctx.config.max_executions()) else {
                return ControlFlow::Break(());
            };
            let candidate = self.mutate_seed(&seed_snapshot);
            let outcome = self
                .harness
                .execute_sequence_with(&candidate, &mut self.frame);
            self.observe(&outcome);

            // Coverage merge: atomic bitmap only, no state lock.
            let new_edges = shared.coverage.merge_ids(&outcome.covered_edge_ids);
            if new_edges > 0 {
                let shape = candidate.shape();
                let seed = self.admit_seed(candidate, &outcome, new_edges, &shared.coverage);
                let mut s = shared.state.lock().expect("campaign state poisoned");
                if s.interesting_shapes.len() < 16 {
                    s.interesting_shapes.push(shape);
                }
                s.admit(seed);
                s.maybe_cull(self.ctx.config.effective_cull_interval());
                // Publish the corpus change so every shard resyncs before
                // its next draw (bumped while the lock is held).
                shared.epoch.bump();
            }
            self.last_world = Some(outcome.final_world);
            if slot.is_multiple_of(params.snapshot_every) {
                let mut s = shared.state.lock().expect("campaign state poisoned");
                Self::snapshot_locked(&mut s, shared, params, slot);
            }
        }
        ControlFlow::Continue(())
    }

    /// Algorithm 2: probe each (word, operator) site of every transaction in
    /// the seed; a site stays mutable only if mutating it keeps the nested
    /// branch covered or brings the input closer to an uncovered branch.
    /// Probe executions are real executions: each reserves a budget slot,
    /// merges its coverage and can be admitted as a seed. Under the exact
    /// budget, a probe that cannot reserve a slot is skipped and its site is
    /// left mutable (the safe default); with one worker this cannot happen —
    /// the scheduling gate only starts a pass when more than twice its
    /// worst-case cost remains in the budget.
    fn compute_masks(&mut self, seed: &Seed, shared: &CampaignShared) -> Vec<MutationMask> {
        let baseline_nested: BTreeSet<usize> = self.nested_branch_pcs(seed);
        let baseline_distance = seed.best_distance.unwrap_or(1.0);
        let mut masks = Vec::with_capacity(seed.sequence.len());

        for (tx_index, tx) in seed.sequence.txs.iter().enumerate() {
            if tx_index >= MAX_MASK_TXS {
                masks.push(MutationMask::allow_all(tx.stream.len()));
                continue;
            }
            let total_words = crate::mutation::word_count(tx.stream.len());
            let probed_words = total_words.min(MAX_MASK_WORDS);
            let mut mask = MutationMask::deny_all(tx.stream.len());
            // Words beyond the probed prefix stay freely mutable.
            for word in probed_words..total_words {
                for op in MutationOp::ALL {
                    mask.allow(word, op);
                }
            }
            for word in 0..probed_words {
                for op in MutationOp::ALL {
                    if shared
                        .try_reserve(self.ctx.config.max_executions())
                        .is_none()
                    {
                        // Budget exhausted mid-pass (only possible with
                        // concurrent workers draining it): leave the
                        // unprobed site mutable.
                        mask.allow(word, op);
                        continue;
                    }
                    let probe_stream =
                        apply_op(&tx.stream, op, word, &mut self.rng, &self.ctx.interesting);
                    let mut probe_seq = seed.sequence.clone();
                    probe_seq.txs[tx_index].stream = probe_stream;
                    let outcome = self
                        .harness
                        .execute_sequence_with(&probe_seq, &mut self.frame);
                    self.observe(&outcome);

                    // Does the probe still hit the nested branches the seed hit?
                    let probe_nested = outcome_nested_pcs(&self.ctx, &outcome);
                    let keeps_nested = baseline_nested.is_subset(&probe_nested);

                    // Merge the probe's coverage (atomic bitmap, no lock) and
                    // admit it as a seed when it found new edges.
                    let new_edges = shared.coverage.merge_ids(&outcome.covered_edge_ids);
                    if new_edges > 0 {
                        let admitted = self.admit_seed(
                            probe_seq.clone(),
                            &outcome,
                            new_edges,
                            &shared.coverage,
                        );
                        let mut s = shared.state.lock().expect("campaign state poisoned");
                        s.admit(admitted);
                        s.maybe_cull(self.ctx.config.effective_cull_interval());
                        shared.epoch.bump();
                    }
                    // Or does it reduce the distance to an uncovered branch?
                    let probe_distance = self
                        .best_distance_to_uncovered(&outcome, &shared.coverage)
                        .unwrap_or(1.0);
                    if keeps_nested || probe_distance < baseline_distance {
                        mask.allow(word, op);
                    }
                }
            }
            // Never leave a transaction completely frozen: that would make the
            // seed sterile.
            if mask.allowed_sites().is_empty() {
                mask = MutationMask::allow_all(tx.stream.len());
            }
            masks.push(mask);
        }
        masks
    }
}

/// Assemble the final report from the shared campaign state, enforcing the
/// exact-budget invariant. Reads the state through its locks (the campaign's
/// lanes have all retired by the time this runs, so there is no contention).
pub(crate) fn build_report(
    ctx: &CampaignContext,
    shared: &CampaignShared,
    monitor: CampaignMonitor,
    params: &RunParams,
    workers: usize,
    empty_corpus: bool,
    finding_records: Vec<FindingRecord>,
) -> CampaignReport {
    let s = shared.state.lock().expect("campaign state poisoned");
    let executions = shared.executions();
    let total_edges = params.total_edges;
    assert!(
        executions <= ctx.config.max_executions(),
        "budget overshoot: {executions} executions for a budget of {}",
        ctx.config.max_executions()
    );
    let covered = shared.coverage.covered_count();
    let elapsed_ms = params.elapsed_ms();
    let mut timeline = s.timeline.clone();
    if !empty_corpus {
        timeline.push(CoveragePoint {
            executions,
            elapsed_ms,
            covered_edges: covered,
            coverage: covered as f64 / total_edges as f64,
        });
    }
    // Concurrent lanes append snapshot points in lock-acquisition order,
    // which can trail the slot order (a lane may stall between reserving its
    // slot and appending its point, and the late append reads the
    // then-current covered count). Restore the sequential engine's contract
    // — execution-ordered points with monotone coverage — by sorting on the
    // slot and carrying the running maximum forward; both passes are no-ops
    // for `workers == 1`.
    timeline.sort_by_key(|point| point.executions);
    let mut running_max = 0usize;
    for point in &mut timeline {
        if point.covered_edges < running_max {
            point.covered_edges = running_max;
            point.coverage = running_max as f64 / total_edges as f64;
        } else {
            running_max = point.covered_edges;
        }
    }
    // Content digests: every seed's snapshot encoding in corpus order, and
    // the raw coverage bitmap words. Cheap (one pass over state that is
    // already resident) and profile-independent; the round-mode determinism
    // suite compares them across worker counts.
    let mut corpus_digest = Digest::new();
    let mut encoded = Vec::new();
    for seed in &s.corpus {
        encoded.clear();
        put_seed(&mut encoded, seed);
        corpus_digest.eat(&encoded);
    }
    let mut coverage_digest = Digest::new();
    for word in shared.coverage.snapshot_words() {
        coverage_digest.eat_u64(word);
    }
    CampaignReport {
        contract: ctx.harness.compiled.name.clone(),
        covered_edges: covered,
        total_edges,
        coverage: covered as f64 / total_edges as f64,
        executions,
        findings: monitor.findings(),
        timeline,
        corpus_size: s.corpus.len(),
        culled_seeds: s.culled,
        elapsed_ms,
        interesting_shapes: s.interesting_shapes.clone(),
        workers,
        corpus_digest: corpus_digest.finish(),
        coverage_digest: coverage_digest.finish(),
        finding_records,
    }
}

/// The MuFuzz fuzzer bound to one compiled contract.
///
/// `Fuzzer` is the single-campaign convenience driver: it owns a prepared
/// campaign context and a campaign RNG, and [`Fuzzer::run`] submits the
/// campaign to an ephemeral single-campaign [`CampaignService`] and waits
/// for the report. To fuzz several contracts concurrently on one thread
/// pool — or to poll progress, stream events and checkpoint mid-flight —
/// use a [`CampaignService`] directly.
pub struct Fuzzer {
    ctx: Arc<CampaignContext>,
    rng: SmallRng,
}

impl Fuzzer {
    /// Set up a fuzzer: deploys the contract, runs the static analyses and
    /// prepares the mutation value pool.
    pub fn new(compiled: CompiledContract, config: FuzzerConfig) -> Result<Fuzzer, HarnessError> {
        let ctx = CampaignContext::prepare(compiled, config)?;
        let rng = SmallRng::seed_from_u64(ctx.config.rng_seed);
        Ok(Fuzzer {
            ctx: Arc::new(ctx),
            rng,
        })
    }

    /// Access the underlying harness (used by integration tests and benches).
    pub fn harness(&self) -> &ContractHarness {
        &self.ctx.harness
    }

    /// Run the campaign to completion and produce a report.
    ///
    /// The campaign runs as `config.workers` lanes on a fleet pool of the
    /// same size, spun up for this call and torn down with it. The report
    /// upholds the exact-budget invariant
    /// `report.executions <= config.max_executions()` at any worker count:
    /// execution slots are reserved atomically before each execution, so the
    /// campaign stops at the budget instead of overshooting by in-flight
    /// mutants (asserted before returning). With `workers == 1` the campaign
    /// — and the RNG stream this fuzzer carries across runs — is bit-for-bit
    /// identical to the historical sequential engine.
    pub fn run(&mut self) -> CampaignReport {
        let service = CampaignService::new(self.ctx.config.workers.max(1));
        let handle = service.submit_prepared(
            Arc::clone(&self.ctx),
            self.rng.clone(),
            SubmitOptions::default(),
        );
        let (report, rng) = handle.wait_internal();
        self.rng = rng;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_lang::compile_source;
    use mufuzz_oracles::BugClass;

    const CROWDSALE: &str = r#"
        contract Crowdsale {
            uint256 phase = 0;
            uint256 goal;
            uint256 invested;
            address owner;
            mapping(address => uint256) invests;
            constructor() public { goal = 100 ether; invested = 0; owner = msg.sender; }
            function invest(uint256 donations) public payable {
                if (invested < goal) {
                    invests[msg.sender] += donations;
                    invested += donations;
                    phase = 0;
                } else { phase = 1; }
            }
            function refund() public {
                if (phase == 0) {
                    msg.sender.transfer(invests[msg.sender]);
                    invests[msg.sender] = 0;
                }
            }
            function withdraw() public {
                if (phase == 1) { bug(); owner.transfer(invested); }
            }
        }
    "#;

    /// Run a campaign pinned to one worker: these tests assert seeded,
    /// deterministic expectations.
    fn run_with(config: FuzzerConfig) -> CampaignReport {
        let compiled = compile_source(CROWDSALE).unwrap();
        let mut fuzzer = Fuzzer::new(compiled, config.with_workers(1)).unwrap();
        fuzzer.run()
    }

    #[test]
    fn campaign_produces_monotone_timeline_and_coverage() {
        let report = run_with(FuzzerConfig::mufuzz(300));
        assert!(report.executions >= 300);
        assert!(report.covered_edges > 0);
        assert!(report.coverage > 0.0 && report.coverage <= 1.0);
        assert!(report.total_edges >= report.covered_edges);
        let mut prev = 0;
        for point in &report.timeline {
            assert!(point.covered_edges >= prev);
            prev = point.covered_edges;
        }
        assert!(report.corpus_size >= 3);
        assert_eq!(report.workers, 1);
        assert!(report.execs_per_sec() > 0.0);
    }

    #[test]
    fn campaigns_are_deterministic_for_a_seed() {
        let a = run_with(FuzzerConfig::mufuzz(200).with_rng_seed(11));
        let b = run_with(FuzzerConfig::mufuzz(200).with_rng_seed(11));
        assert_eq!(a.covered_edges, b.covered_edges);
        assert_eq!(a.corpus_size, b.corpus_size);
        assert_eq!(a.detected_classes(), b.detected_classes());
        assert_eq!(a.timeline.len(), b.timeline.len());
        assert_eq!(a.interesting_shapes, b.interesting_shapes);
    }

    #[test]
    fn parallel_campaign_covers_and_reports() {
        let compiled = compile_source(CROWDSALE).unwrap();
        let mut fuzzer = Fuzzer::new(
            compiled,
            FuzzerConfig::mufuzz(400).with_rng_seed(5).with_workers(4),
        )
        .unwrap();
        let report = fuzzer.run();
        assert_eq!(report.workers, 4);
        assert_eq!(report.executions, 400);
        assert!(report.covered_edges > 0);
        assert!(report.corpus_size >= 3);
        let mut prev_covered = 0;
        let mut prev_executions = 0;
        for point in &report.timeline {
            assert!(
                point.covered_edges >= prev_covered,
                "parallel timeline coverage not monotone"
            );
            assert!(
                point.executions >= prev_executions,
                "parallel timeline not execution-ordered"
            );
            prev_covered = point.covered_edges;
            prev_executions = point.executions;
        }
    }

    #[test]
    fn worker_seed_streams_are_decorrelated() {
        let s1 = derive_worker_seed(0x5EED, 1);
        let s2 = derive_worker_seed(0x5EED, 2);
        let other = derive_worker_seed(0x5EEE, 1);
        assert_ne!(s1, s2);
        assert_ne!(s1, other);
        // Deterministic: the same campaign seed derives the same streams.
        assert_eq!(s1, derive_worker_seed(0x5EED, 1));
    }

    #[test]
    fn motivating_example_deep_branch_is_reached() {
        // The paper's motivating example: the bug guarded by `phase == 1`
        // requires calling invest twice before withdraw. MuFuzz with the
        // sequence-aware mutation reaches it within a small budget.
        let report = run_with(FuzzerConfig::mufuzz(600).with_rng_seed(3));
        // The bug marker branch produces high coverage; the guarded bug
        // region accounts for the last few edges.
        assert!(
            report.coverage > 0.7,
            "coverage too low: {:.2}",
            report.coverage_percent()
        );
    }

    #[test]
    fn sequence_aware_outperforms_random_ordering_on_crowdsale() {
        let full = run_with(FuzzerConfig::mufuzz(400).with_rng_seed(7));
        let ablated = run_with(
            FuzzerConfig::mufuzz(400)
                .with_rng_seed(7)
                .without_sequence_aware(),
        );
        assert!(
            full.covered_edges >= ablated.covered_edges,
            "full {} < ablated {}",
            full.covered_edges,
            ablated.covered_edges
        );
    }

    #[test]
    fn findings_include_unhandled_exception_for_crowdsale_refund() {
        // refund() sends ether with transfer (checked), so no UE there; but
        // the withdraw transfer to the owner is also checked. The campaign
        // should not report UE for this contract.
        let report = run_with(FuzzerConfig::mufuzz(300));
        assert!(!report
            .detected_classes()
            .contains(&BugClass::UnhandledException));
        // No reentrancy either: transfer() only forwards the stipend.
        assert!(!report.detected_classes().contains(&BugClass::Reentrancy));
    }

    #[test]
    fn reentrancy_bank_is_detected_by_the_campaign() {
        let src = r#"
            contract Bank {
                mapping(address => uint256) balances;
                function deposit() public payable { balances[msg.sender] += msg.value; }
                function withdraw() public {
                    if (balances[msg.sender] > 0) {
                        msg.sender.call.value(balances[msg.sender])();
                        balances[msg.sender] = 0;
                    }
                }
            }
        "#;
        let compiled = compile_source(src).unwrap();
        let mut fuzzer = Fuzzer::new(
            compiled,
            FuzzerConfig::mufuzz(600).with_rng_seed(5).with_workers(1),
        )
        .unwrap();
        let report = fuzzer.run();
        assert!(
            report.detected_classes().contains(&BugClass::Reentrancy),
            "findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn contract_without_functions_reports_empty_campaign() {
        let compiled = compile_source("contract Empty { uint256 x; }").unwrap();
        let mut fuzzer = Fuzzer::new(compiled, FuzzerConfig::mufuzz(50)).unwrap();
        let report = fuzzer.run();
        assert_eq!(report.corpus_size, 0);
        assert_eq!(report.covered_edges, 0);
    }

    #[test]
    fn time_budget_stops_the_campaign() {
        let compiled = compile_source(CROWDSALE).unwrap();
        let mut fuzzer = Fuzzer::new(
            compiled,
            FuzzerConfig::mufuzz(usize::MAX).with_time_budget_ms(50),
        )
        .unwrap();
        let report = fuzzer.run();
        assert!(report.elapsed_ms >= 50);
        assert!(report.executions > 0);
    }
}
