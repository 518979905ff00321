//! The fuzzing campaign: seed scheduling, mask computation, mutation,
//! execution, coverage accounting and bug reporting.
//!
//! This is the driver that ties the three MuFuzz components together
//! (paper Figure 2): the sequence-aware generator supplies transaction
//! orderings, the mask-guided mutator evolves the per-transaction byte
//! streams, and the dynamic energy scheduler decides how many mutants each
//! seed receives.
//!
//! # One engine per lane count
//!
//! A campaign runs as `FuzzerConfig::workers` *lanes* — sequential strands
//! of batch tasks that the [`crate::service::CampaignService`] queues on its
//! shared thread pool, where the lanes of every campaign take turns. A
//! lane's batches run one at a time in order, so a campaign's result never
//! depends on which pool thread ran a batch. There is one engine per lane
//! count:
//!
//! * **One free-running lane** (`workers == 1`, the default profile) is the
//!   sequential engine. It draws each seed batch from the live corpus and
//!   settles every execution as it lands, so it is bit-for-bit the
//!   historical single-threaded campaign for a fixed `rng_seed` — and,
//!   through [`crate::snapshot::CampaignSnapshot`], across a
//!   checkpoint/resume boundary.
//! * **Rounds** (every campaign with `workers > 1`, and a one-lane campaign
//!   under [`crate::DeterminismProfile::Round`]): lanes claim fixed-size
//!   slots of a round against a frozen view of the corpus and coverage, and
//!   the round barrier commits their results in slot order (`round.rs`).
//!   The report is bit-identical at every worker count.
//!
//! The shared campaign state is split by contention profile (the full
//! locking model is documented in `docs/ARCHITECTURE.md`):
//!
//! * **Coverage** lives in a lock-free [`CoverageMap`] — an atomic bitmap
//!   over the dense edge ids assigned by the harness's
//!   [`mufuzz_analysis::EdgeIndex`].
//! * **The execution budget** is an atomic reservation counter: the
//!   free-running lane reserves a slot *before* executing, and a round
//!   charges its slot quotas at the barrier, so a campaign can never
//!   overshoot `max_executions`.
//! * **Scheduling state** — the corpus, the timeline and the diagnostic
//!   shape log — stays in a `SharedCampaignState` behind one mutex, held
//!   to draw a seed batch, to admit new seeds (and periodically cull
//!   dominated ones), to publish probed masks, to append timeline points and
//!   to freeze and commit rounds.
//!
//! Sequence executions run against lane-local [`ContractHarness`] clones.
//! The free-running lane observes bugs into its own [`CampaignMonitor`];
//! round slots observe into slot monitors that the barrier merges into the
//! round runtime's master monitor in slot order.
//!
//! # One probe pass, one mutant loop
//!
//! Algorithm 2's mask-probe pass and the energy-driven mutant loop are
//! written once (`Executor::compute_masks` and `Executor::run_mutants`) and
//! shared by both engines. They are generic over a `Ledger`: the budget
//! every execution is charged to and the state its result feeds. The
//! free-running lane's ledger reserves slots from the shared budget and the
//! wall clock, merges into the atomic [`CoverageMap`], admits seeds under
//! the state lock and records a timeline point at every snapshot boundary.
//! A round slot's ledger (see `round.rs`) charges the slot quota, merges
//! into a slot-local bitmap and stages candidates for the round commit.
//! Only seed drawing differs between the engines.

use crate::config::FuzzerConfig;
use crate::coverage::CoverageMap;
use crate::energy::{allocate_energy, corpus_mean_weight, seed_weight};
use crate::executor::{ContractHarness, HarnessError, SequenceOutcome};
use crate::input::{Seed, Sequence};
use crate::mutation::{
    apply_op_in_place, mutate_in_place, word_count, InterestingValues, MutationMask, MutationOp,
};
use crate::prefix::PrefixRecords;
use crate::replay::FindingRecord;
use crate::round::RoundRt;
use crate::seedgen::SequenceGenerator;
use crate::service::{CampaignService, SubmitOptions};
use crate::snapshot::{put_seed, Digest};
use mufuzz_analysis::{
    analyze_contract, plan_sequence, untaken_distance, ControlFlowGraph, EdgeIndex,
};
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
const NESTED_BRANCH_DEPTH: usize = 3;

/// Maximum number of 32-byte words probed per transaction when computing a
/// mutation mask (bounds the cost of Algorithm 2 on long inputs). The first
/// words of the stream are the ether value and the leading arguments — the
/// positions strict guards almost always constrain. Words beyond the probed
/// prefix stay freely mutable.
const MAX_MASK_WORDS: usize = 3;

/// Maximum number of transactions probed per seed when computing masks; later
/// transactions of very long sequences stay freely mutable. Keeps the probe
/// cost of Algorithm 2 bounded for the large-contract datasets.
const MAX_MASK_TXS: usize = 6;

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
    /// Replayable finding records of a round-mode campaign (every campaign
    /// with `workers > 1`); empty for the free-running lane. Each pins the
    /// mutant sequence that triggered a finding to its `(seed uid, round,
    /// slot)` provenance — see [`FindingRecord`] and
    /// [`crate::replay::replay_finding`].
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

/// Scheduling state shared by every lane, guarded by one mutex.
///
/// Seed selection and energy allocation read the one corpus here (directly
/// in the free-running lane, through a frozen copy in round mode), so
/// Algorithm 3 stays a single scheduler at any worker count. Coverage and
/// the execution budget deliberately live *outside* this struct (see
/// [`CampaignShared`]): they are merged/reserved with atomics so the mutex
/// only serialises seed draws, corpus admissions, culling, timeline appends
/// and round freezes and commits.
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

/// Everything the lanes share, split by contention profile: the atomic
/// coverage bitmap and budget counter and the mutex-guarded scheduling
/// state (touched only for seed draws, admissions, timeline points and
/// round barriers).
pub(crate) struct CampaignShared {
    pub(crate) state: Mutex<SharedCampaignState>,
    pub(crate) coverage: CoverageMap,
    /// Executions charged to the budget. The free-running lane reserves a
    /// slot *before* every execution and always performs the execution after
    /// a successful reservation; a round charges its slots' executions at the
    /// barrier. Either way this counter equals the number of executions
    /// performed and can never exceed `max_executions`.
    pub(crate) reserved: AtomicUsize,
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
    /// The campaign's wall-clock budget, if any.
    time_budget_ms: Option<u64>,
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
            time_budget_ms: ctx.config.time_budget_ms(),
        }
    }

    /// Total campaign wall-clock time, including pre-resume segments.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.base_elapsed_ms + self.start.elapsed().as_millis() as u64
    }

    /// Whether the wall-clock budget is spent.
    pub(crate) fn out_of_time(&self) -> bool {
        self.time_budget_ms
            .is_some_and(|ms| self.elapsed_ms() >= ms)
    }

    /// A timeline point for `covered` edges after `executions`, stamped now.
    pub(crate) fn point(&self, executions: usize, covered: usize) -> CoveragePoint {
        CoveragePoint {
            executions,
            elapsed_ms: self.elapsed_ms(),
            covered_edges: covered,
            coverage: covered as f64 / self.total_edges as f64,
        }
    }
}

/// The pause signal checked at every free-running batch boundary and every
/// round barrier: an optional fixed execution count (a deterministic pause
/// point, the checkpoint/resume anchor) plus an asynchronous user request.
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
/// A free function over any corpus view — the mutex-guarded global corpus or
/// a round slot's frozen view — so both draw paths consume the RNG
/// identically and make the same choice over the same view.
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

/// Mutate a seed into the candidate sequence `out`: byte-level mask-guided
/// mutation on one transaction, occasionally combined with a structural
/// sequence mutation. `out` is refilled from the seed with `clone_from` and
/// mutated in place, so a warm candidate allocates nothing unless the
/// mutant grows. Draws from the caller's RNG: the free-running lane's stream
/// or a round slot's.
fn mutate_sequence(ctx: &CampaignContext, rng: &mut SmallRng, seed: &Seed, out: &mut Sequence) {
    let abi = &ctx.harness.compiled.abi;
    if seed.sequence.is_empty() {
        *out = ctx.generator.generate(abi, rng, &ctx.interesting);
        return;
    }
    out.clone_from(&seed.sequence);

    // Structural mutation with 30% probability (ordering is preserved when
    // sequence-aware mutation is on).
    if rng.gen_bool(0.3) {
        ctx.generator
            .mutate_structure_in_place(out, abi, rng, &ctx.interesting);
    }

    // Byte-level mutation of one (or a few) transactions.
    let mutations = 1 + rng.gen_range(0..2usize);
    for _ in 0..mutations {
        let idx = rng.gen_range(0..out.txs.len());
        // The mask biases mutation away from the frozen critical words; a
        // small fraction of mutants still ignores it so the frozen positions
        // themselves can eventually be explored (flipping the guarded branch
        // needs exactly that). Without a mask every site is allowed.
        let use_mask = ctx.config.enable_mask_guidance && rng.gen_bool(0.8);
        let mask = seed
            .masks
            .as_ref()
            .and_then(|m| m.get(idx))
            .filter(|_| use_mask);
        mutate_in_place(&mut out.txs[idx].stream, mask, rng, &ctx.interesting);
    }
}

/// Build seed metadata from an execution outcome, resolving "is this edge
/// covered?" through the supplied predicate — the shared atomic bitmap for
/// the free-running lane, a slot's frozen local view in round mode. The
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
    seed.hits_nested_branch = outcome
        .traces
        .iter()
        .any(|t| t.branches.iter().any(|b| ctx.is_nested(b.pc)));
    seed.best_distance = distance_to_uncovered(ctx, outcome, covered);
    seed
}

/// Smallest normalised distance from an outcome to any branch edge the
/// supplied coverage view reports uncovered (branch-distance feedback,
/// §IV-B): the minimum over every executed branch whose other edge is
/// uncovered, the same minimum
/// [`DistanceMap::from_trace`](mufuzz_analysis::DistanceMap::from_trace) keeps
/// per edge.
fn distance_to_uncovered(
    ctx: &CampaignContext,
    outcome: &SequenceOutcome,
    covered: &dyn Fn(&BranchEdge) -> bool,
) -> Option<f64> {
    if !ctx.config.enable_branch_distance {
        return None;
    }
    outcome
        .traces
        .iter()
        .flat_map(|trace| &trace.branches)
        .filter(|branch| !covered(&branch.untaken_edge()))
        .map(untaken_distance)
        .reduce(f64::min)
}

/// Whether an outcome covers every deeply nested branch in `baseline` (the
/// mask-probe comparison of Algorithm 2). Every baseline pc is nested, so
/// it only has to appear among the outcome's branch records.
fn covers_nested(baseline: &BTreeSet<usize>, outcome: &SequenceOutcome) -> bool {
    baseline.iter().all(|&pc| {
        outcome
            .traces
            .iter()
            .any(|t| t.branches.iter().any(|b| b.pc == pc))
    })
}

/// Program counters of the deeply nested branches a seed covers.
fn seed_nested_pcs(ctx: &CampaignContext, seed: &Seed) -> BTreeSet<usize> {
    let index = ctx.harness.edge_index();
    seed.covered_edge_ids
        .iter()
        .filter_map(|id| index.edge_of(*id))
        .map(|e| e.pc)
        .filter(|&pc| ctx.is_nested(pc))
        .collect()
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
    /// The runtime code is decoded once, by the harness; the CFG is built
    /// from the harness's program.
    pub(crate) fn prepare(
        compiled: CompiledContract,
        config: FuzzerConfig,
    ) -> Result<CampaignContext, HarnessError> {
        let harness = ContractHarness::new(compiled, &config)?;
        let compiled = &harness.compiled;
        let cfg_graph = ControlFlowGraph::from_program(harness.runtime_program());
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

    /// Whether the `JUMPI` at `pc` sits at least [`NESTED_BRANCH_DEPTH`]
    /// deep.
    fn is_nested(&self, pc: usize) -> bool {
        self.cfg_graph
            .branches
            .get(&pc)
            .is_some_and(|site| site.nesting_depth >= NESTED_BRANCH_DEPTH)
    }
}

/// `monitor`'s findings if its count moved since `streamed` was last set,
/// else nothing. A monitor only gains findings, so an unchanged count means
/// there is nothing new to stream and nothing is cloned.
pub(crate) fn fresh_findings(monitor: &CampaignMonitor, streamed: &mut usize) -> Vec<BugFinding> {
    if monitor.len() == *streamed {
        return Vec::new();
    }
    *streamed = monitor.len();
    monitor.findings()
}

/// Feed one execution to a bug monitor: every transaction's trace, then the
/// contract's final balance.
pub(crate) fn observe(
    monitor: &mut CampaignMonitor,
    harness: &ContractHarness,
    outcome: &SequenceOutcome,
) {
    for trace in &outcome.traces {
        monitor.observe(&harness.compiled, trace);
    }
    monitor.observe_world(outcome.final_world.balance(harness.contract_address));
}

/// What a batch charges its executions to and feeds their results into.
///
/// The probe pass ([`Executor::compute_masks`]) and the mutant loop
/// ([`Executor::run_mutants`]) are written once over this trait. A
/// free-running lane's [`SharedLedger`] charges the shared budget and writes
/// straight into the shared campaign state; a round slot's ledger
/// (`round::SlotCtx`) charges the slot quota and stages its results for the
/// round commit.
pub(crate) trait Ledger {
    /// Claim the next execution; `false` once the budget is spent.
    fn reserve(&mut self) -> bool;

    /// Whether `edge` is covered in this ledger's view of coverage.
    fn covers(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool;

    /// Account one reserved execution of `sequence`, a mutant or probe of
    /// the seed with uid `seed_uid`: observe it for bugs, merge its coverage,
    /// admit it when it found new edges, and record the timeline point or
    /// finding record it is due. `sequence` and `outcome` are the lane's
    /// reused buffers: whatever outlives the call is copied out.
    fn settle(
        &mut self,
        exec: &Executor,
        sequence: &Sequence,
        outcome: &SequenceOutcome,
        seed_uid: u64,
    );

    /// Keep the final world of the latest execution (the campaign-level
    /// oracles read the last one at finalisation). The ledger swaps it with
    /// the world it kept before, which the next execution overwrites.
    fn keep_world(&mut self, world: &mut WorldState);
}

/// Swap `world` into `kept`, the slot a ledger keeps the last world in.
pub(crate) fn swap_world(kept: &mut Option<WorldState>, world: &mut WorldState) {
    std::mem::swap(kept.get_or_insert_with(WorldState::new), world);
}

/// The execution side of a lane: the shared campaign context, the lane's
/// harness clone and its reusable buffers. Runs Algorithm 2 and the mutant
/// loop for both determinism profiles; the caller supplies the RNG and the
/// [`Ledger`].
///
/// Every execution reuses the same candidate sequence, outcome and
/// interpreter scratch, so once they have grown to the lane's high-water
/// marks an execution that admits nothing allocates only the world-state
/// copies its transactions write. A buffer's contents escape only by copy:
/// into the corpus on admission, into a round slot's candidate or finding
/// record.
///
/// Every probe and mutant executes through its seed's prefix record (see
/// [`crate::prefix`]), so only the transactions from the first one it
/// changed run again.
pub(crate) struct Executor {
    pub(crate) ctx: Arc<CampaignContext>,
    pub(crate) harness: ContractHarness,
    /// Interpreter scratch: stacks, memory, the call stack, calldata and
    /// the pool of recycled traces.
    frame: ExecFrame,
    /// The sequence under execution: a mutant or a mask probe, refilled
    /// from its seed before each execution.
    candidate: Sequence,
    /// The latest execution's outcome; its traces return to `frame` when
    /// the next execution refills it.
    outcome: SequenceOutcome,
    /// A round slot's private copy of the frozen corpus, refilled with
    /// `clone_from` at the start of every slot this lane runs.
    pub(crate) slot_corpus: Vec<Seed>,
    /// The prefix records of the seeds this lane drew, by uid.
    prefixes: PrefixRecords,
}

impl Executor {
    fn new(ctx: Arc<CampaignContext>) -> Executor {
        Executor {
            harness: ctx.harness.clone(),
            ctx,
            frame: ExecFrame::new(),
            candidate: Sequence::default(),
            outcome: SequenceOutcome::default(),
            slot_corpus: Vec::new(),
            prefixes: PrefixRecords::default(),
        }
    }

    /// Algorithm 2: probe each (word, operator) site of the seed's leading
    /// transactions; a site stays mutable only if mutating it keeps the
    /// nested branches the seed covers or brings the input closer to an
    /// uncovered branch. Probes are real executions: each is reserved and
    /// settled in `ledger` like a mutant. A site whose probe the ledger
    /// refuses is left mutable (the safe default); without a wall-clock
    /// budget this cannot happen, because the scheduling gate only starts a
    /// pass when more than twice its worst-case cost remains in the budget
    /// (or the slot quota).
    pub(crate) fn compute_masks(
        &mut self,
        rng: &mut SmallRng,
        seed: &Seed,
        ledger: &mut impl Ledger,
    ) -> Vec<MutationMask> {
        let slot = self.prefixes.prepare(&self.harness, seed, &mut self.frame);
        let prefix = self.prefixes.get(slot);
        let ctx = &*self.ctx;
        let baseline_nested = seed_nested_pcs(ctx, seed);
        let baseline_distance = seed.best_distance.unwrap_or(1.0);
        let mut masks = Vec::with_capacity(seed.sequence.len());
        for (tx_index, tx) in seed.sequence.txs.iter().enumerate() {
            if tx_index >= MAX_MASK_TXS {
                masks.push(MutationMask::allow_all(tx.stream.len()));
                continue;
            }
            let total_words = word_count(tx.stream.len());
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
                    if !ledger.reserve() {
                        mask.allow(word, op);
                        continue;
                    }
                    self.candidate.clone_from(&seed.sequence);
                    apply_op_in_place(
                        &mut self.candidate.txs[tx_index].stream,
                        op,
                        word,
                        rng,
                        &ctx.interesting,
                    );
                    self.harness.execute_sequence_into(
                        &self.candidate,
                        Some(prefix),
                        &mut self.frame,
                        &mut self.outcome,
                    );
                    ledger.settle(self, &self.candidate, &self.outcome, seed.uid);
                    // Does the probe still hit the nested branches the seed
                    // hit, or come closer to a branch still uncovered?
                    let keeps_nested = covers_nested(&baseline_nested, &self.outcome);
                    let index = self.harness.edge_index();
                    let probe_distance = distance_to_uncovered(ctx, &self.outcome, &|edge| {
                        ledger.covers(edge, index)
                    })
                    .unwrap_or(1.0);
                    if keeps_nested || probe_distance < baseline_distance {
                        mask.allow(word, op);
                    }
                    ledger.keep_world(&mut self.outcome.final_world);
                }
            }
            // Never leave a transaction completely frozen: that would make the
            // seed sterile.
            if mask.allowed_count() == 0 {
                mask = MutationMask::allow_all(tx.stream.len());
            }
            masks.push(mask);
        }
        masks
    }

    /// The mutant loop: derive `energy` mutants from `seed` (Algorithm 3's
    /// allotment), executing and settling each in `ledger`. Returns `Break`
    /// when the ledger refuses a reservation.
    pub(crate) fn run_mutants(
        &mut self,
        rng: &mut SmallRng,
        seed: &Seed,
        energy: usize,
        ledger: &mut impl Ledger,
    ) -> ControlFlow<()> {
        let slot = self.prefixes.prepare(&self.harness, seed, &mut self.frame);
        let prefix = self.prefixes.get(slot);
        for _ in 0..energy {
            // Reserve before mutating: a granted reservation is always
            // followed by exactly one execution, so the budget is exact.
            if !ledger.reserve() {
                return ControlFlow::Break(());
            }
            mutate_sequence(&self.ctx, rng, seed, &mut self.candidate);
            self.harness.execute_sequence_into(
                &self.candidate,
                Some(prefix),
                &mut self.frame,
                &mut self.outcome,
            );
            ledger.settle(self, &self.candidate, &self.outcome, seed.uid);
            ledger.keep_world(&mut self.outcome.final_world);
        }
        ControlFlow::Continue(())
    }
}

/// The free-running lane's [`Ledger`]: slots come from the shared budget
/// until it or the wall-clock budget runs out, coverage merges into the
/// shared atomic bitmap (no lock), novel executions join the corpus under
/// the state lock, and every slot on a snapshot boundary appends a timeline
/// point. Observations and the last world go to the lane's own monitor.
struct SharedLedger<'a> {
    shared: &'a CampaignShared,
    params: &'a RunParams,
    max_executions: usize,
    monitor: &'a mut CampaignMonitor,
    last_world: &'a mut Option<WorldState>,
    /// The 1-based budget slot of the latest reservation.
    slot: usize,
}

impl Ledger for SharedLedger<'_> {
    fn reserve(&mut self) -> bool {
        if self.params.out_of_time() {
            return false;
        }
        let Some(slot) = self.shared.try_reserve(self.max_executions) else {
            return false;
        };
        self.slot = slot;
        true
    }

    fn covers(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        self.shared.coverage.contains_edge(edge, index)
    }

    fn settle(
        &mut self,
        exec: &Executor,
        sequence: &Sequence,
        outcome: &SequenceOutcome,
        _seed_uid: u64,
    ) {
        observe(self.monitor, &exec.harness, outcome);
        let shared = self.shared;
        let new_edges = shared.coverage.merge_ids(&outcome.covered_edge_ids);
        if new_edges > 0 {
            let index = exec.harness.edge_index();
            let seed = make_seed(&exec.ctx, sequence.clone(), outcome, new_edges, &|edge| {
                shared.coverage.contains_edge(edge, index)
            });
            let mut s = shared.state.lock().expect("campaign state poisoned");
            if s.interesting_shapes.len() < 16 {
                s.interesting_shapes.push(sequence.shape());
            }
            s.admit(seed);
            s.maybe_cull(exec.ctx.config.effective_cull_interval());
        }
        if self.slot.is_multiple_of(self.params.snapshot_every) {
            let point = self
                .params
                .point(self.slot, shared.coverage.covered_count());
            let mut s = shared.state.lock().expect("campaign state poisoned");
            s.timeline.push(point);
        }
    }

    fn keep_world(&mut self, world: &mut WorldState) {
        swap_world(self.last_world, world);
    }
}

/// One campaign lane: a lane-local executor, RNG and bug monitor. A lane is
/// a sequential strand — the service runs its batches one at a time, in
/// order — so a campaign is deterministic no matter how many fleet threads
/// execute it. The RNG, monitor and last world matter on lane 0 only: they
/// are the free-running engine's state, and in round mode the prologue's
/// RNG and the stream position a checkpoint freezes. Round slots carry
/// their own RNGs and monitors, so the other lanes use only their executor.
pub(crate) struct Worker {
    pub(crate) exec: Executor,
    rng: SmallRng,
    monitor: CampaignMonitor,
    /// Final world of the last sequence this lane executed after the seeding
    /// prologue (feeds the campaign-level oracles at finalisation).
    last_world: Option<WorldState>,
    /// The seed of the current batch, copied out of the corpus at the draw.
    seed: Seed,
    /// The monitor's finding count when findings were last streamed.
    findings_streamed: usize,
}

impl Worker {
    /// A fresh lane over `ctx`, drawing from `rng`.
    pub(crate) fn new(ctx: Arc<CampaignContext>, rng: SmallRng) -> Worker {
        Worker {
            exec: Executor::new(ctx),
            rng,
            monitor: CampaignMonitor::new(),
            last_world: None,
            seed: Seed::new(Sequence::default()),
            findings_streamed: 0,
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

    /// The lane's deduplicated findings if any arrived since the previous
    /// call, else nothing (for event streaming, which runs after every
    /// batch).
    pub(crate) fn fresh_findings(&mut self) -> Vec<BugFinding> {
        fresh_findings(&self.monitor, &mut self.findings_streamed)
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
        self.findings_streamed = 0;
        std::mem::replace(&mut self.monitor, CampaignMonitor::new())
    }

    /// Execute the initial plan-derived corpus (the lane-0 prologue, run
    /// before the other lanes start).
    pub(crate) fn run_initial(&mut self, shared: &CampaignShared, params: &RunParams) {
        let exec = &mut self.exec;
        let ctx = &*exec.ctx;
        let initial = ctx.generator.initial_sequences(
            &exec.harness.compiled.abi,
            ctx.config.initial_seeds,
            &mut self.rng,
            &ctx.interesting,
        );
        for sequence in initial {
            if params.out_of_time() {
                break;
            }
            let Some(slot) = shared.try_reserve(ctx.config.max_executions()) else {
                break;
            };
            let outcome = exec
                .harness
                .execute_sequence_with(&sequence, &mut exec.frame);
            observe(&mut self.monitor, &exec.harness, &outcome);
            let new_edges = shared.coverage.merge_ids(&outcome.covered_edge_ids);
            // Initial seeds always join the corpus, new coverage or not, and
            // are never subject to culling here (the corpus is still being
            // seeded).
            let index = exec.harness.edge_index();
            let seed = make_seed(ctx, sequence, &outcome, new_edges, &|edge| {
                shared.coverage.contains_edge(edge, index)
            });
            let mut s = shared.state.lock().expect("campaign state poisoned");
            s.admit(seed);
            if slot.is_multiple_of(params.snapshot_every) {
                s.timeline
                    .push(params.point(slot, shared.coverage.covered_count()));
            }
        }
    }

    /// One lane scheduling step — the unit of fleet-pool work: check the
    /// stop and pause conditions, then draw a seed batch from the corpus,
    /// optionally probe its mutation mask, and generate and execute the
    /// allotted mutants, merging feedback after every execution. The
    /// historical `run_loop` was exactly this body iterated to exhaustion;
    /// splitting it at the draw boundary lets the pool interleave many
    /// campaigns without changing any lane's RNG stream, and gives pause a
    /// deterministic anchor.
    pub(crate) fn step(
        &mut self,
        shared: &CampaignShared,
        params: &RunParams,
        pause: &PauseState,
    ) -> LaneStep {
        let max_executions = self.exec.ctx.config.max_executions();
        if self.exec.ctx.config.round_mode() {
            return crate::round::round_step(self, shared, params, pause);
        }
        if shared.executions() >= max_executions || params.out_of_time() {
            return LaneStep::Finished;
        }
        if pause.engaged(shared.executions()) {
            return LaneStep::Paused;
        }
        let (energy, compute) = self.draw(shared);
        let mut ledger = SharedLedger {
            shared,
            params,
            max_executions,
            monitor: &mut self.monitor,
            last_world: &mut self.last_world,
            slot: 0,
        };
        let batch = run_batch(
            &mut self.exec,
            &mut self.rng,
            &mut self.seed,
            energy,
            compute,
            shared,
            &mut ledger,
        );
        if batch.is_break() {
            return LaneStep::Finished;
        }
        LaneStep::Continue
    }

    /// Draw a seed batch in one critical section under the state lock:
    /// select a seed from the corpus, count the selection, allocate its
    /// energy (Algorithm 3) and claim its mask-probe pass when one is due.
    /// The seed is copied into the lane's buffer with `clone_from`, because
    /// admissions and culling may reorder the corpus while the batch runs
    /// unlocked. Returns the seed's energy and whether this lane claimed the
    /// probe pass.
    fn draw(&mut self, shared: &CampaignShared) -> (usize, bool) {
        let config = &self.exec.ctx.config;
        let remaining = config.max_executions().saturating_sub(shared.executions());
        let mut s = shared.state.lock().expect("campaign state poisoned");
        let index = select_seed(config, &mut self.rng, &s.corpus);
        let mean_weight = corpus_mean_weight(&s.corpus);
        let seed = &mut s.corpus[index];
        seed.selections += 1;
        let energy = allocate_energy(
            seed.weight,
            mean_weight,
            config.scheduler.base_energy,
            config.enable_dynamic_energy,
        );
        let compute = Self::wants_masks(config, seed, remaining);
        seed.masks_pending |= compute;
        self.seed.clone_from(seed);
        (energy, compute)
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
}

/// One free-running batch of the drawn `seed`: its mask-probe pass when the
/// lane claimed it, then its `energy` mutants, every execution settled in
/// `ledger`. Returns `Break` when the ledger refuses a reservation.
fn run_batch(
    exec: &mut Executor,
    rng: &mut SmallRng,
    seed: &mut Seed,
    energy: usize,
    compute: bool,
    shared: &CampaignShared,
    ledger: &mut impl Ledger,
) -> ControlFlow<()> {
    if compute {
        let masks = exec.compute_masks(rng, seed, ledger);
        // Publish by uid, not index: culling may have reshuffled (or
        // dropped) the seed while the probes ran.
        {
            let mut s = shared.state.lock().expect("campaign state poisoned");
            if let Some(global) = s.corpus.iter_mut().find(|x| x.uid == seed.uid) {
                global.masks = Some(masks.clone());
            }
        }
        seed.masks = Some(masks);
    }
    exec.run_mutants(rng, seed, energy, ledger)
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
    let last = params.point(executions, covered);
    let elapsed_ms = last.elapsed_ms;
    // The one free-running lane and the round barrier both append points in
    // execution order with the coverage after every merge so far, so the
    // timeline is already ordered and monotone.
    let mut timeline = s.timeline.clone();
    if !empty_corpus {
        timeline.push(last);
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
mod prefix_reuse_tests;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mufuzz_lang::compile_source;
    use mufuzz_oracles::BugClass;

    /// The paper's motivating contract (Figure 1).
    pub(crate) const CROWDSALE: &str = r#"
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
