//! The traced run: the same campaigns, driven from the benchmark through
//! the layers' public entry points with a span around every call.
//!
//! A single-lane campaign follows the order `Worker::run_batch` uses —
//! draw with the energy functions, seed generation, mutation, execute,
//! observe, merge, and on new edges weight plus distance — including
//! Algorithm 2's mask probes, so it makes the same decisions from the same
//! RNG stream as the untraced campaign. A multi-lane campaign runs in round
//! form: every round freezes the corpus and coverage, lanes claim slots
//! whose work depends only on `(rng_seed, round, slot)` and judge novelty
//! against a slot-local bitmap, and admissions are staged and committed in
//! slot order, so its counts are the same at any thread count.

use crate::spans::{Layer, Recorder, Span};
use crate::stats::stolen_per_cpu;
use crate::workload::{mix, Campaign};
use mufuzz::coverage::{CoverageMap, LocalCoverage};
use mufuzz::energy::{allocate_energy, corpus_mean_weight, seed_weight};
use mufuzz::mutation::{apply_op, mutate_masked, word_count};
use mufuzz::{
    ContractHarness, FuzzerConfig, InterestingValues, MutationMask, MutationOp, Seed, Sequence,
    SequenceGenerator, SequenceOutcome,
};
use mufuzz_analysis::{analyze_contract, plan_sequence, ControlFlowGraph, DistanceMap, EdgeIndex};
use mufuzz_evm::{BranchEdge, ExecFrame, Opcode, WorldState};
use mufuzz_lang::compile_source;
use mufuzz_oracles::{BugFinding, CampaignMonitor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Static nesting depth from which a branch counts as deeply nested, and
/// the probe limits of Algorithm 2 (the campaign engine's constants).
const NESTED_BRANCH_DEPTH: usize = 3;
const MAX_MASK_WORDS: usize = 3;
const MAX_MASK_TXS: usize = 6;

/// Work counters gathered at the layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub executions: u64,
    pub probe_executions: u64,
    pub txs: u64,
    pub instrs: u64,
    pub tx_successes: u64,
    pub sha3_txs: u64,
    pub merges: u64,
    pub merges_with_new_edges: u64,
    /// Seeds built from an outcome (weight and distance computed).
    pub seeds_built: u64,
    /// Seeds that joined the corpus.
    pub admissions: u64,
    pub masks: u64,
    pub frozen_fraction_sum: f64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.executions += other.executions;
        self.probe_executions += other.probe_executions;
        self.txs += other.txs;
        self.instrs += other.instrs;
        self.tx_successes += other.tx_successes;
        self.sha3_txs += other.sha3_txs;
        self.merges += other.merges;
        self.merges_with_new_edges += other.merges_with_new_edges;
        self.seeds_built += other.seeds_built;
        self.admissions += other.admissions;
        self.masks += other.masks;
        self.frozen_fraction_sum += other.frozen_fraction_sum;
    }
}

/// What one traced campaign produced.
pub struct CampaignTrace {
    pub covered_edges: usize,
    pub findings: Vec<BugFinding>,
    pub counts: Counts,
    /// One span list per recorder (per lane).
    pub spans: Vec<Vec<Span>>,
}

/// The traced run of one workload repetition.
pub struct TracedRun {
    /// Per campaign: the trace, or why it failed.
    pub campaigns: Vec<Result<CampaignTrace, String>>,
    pub counts: Counts,
    /// Wall time of the campaign phase (set-up runs before it, alone), less
    /// the time the hypervisor stole.
    pub campaign_s: f64,
}

/// Set up every campaign on this thread, then run them all through the
/// traced runner on `nproc` threads — the phases of the untraced run.
pub fn run(campaigns: &[Campaign], nproc: usize, origin: Instant) -> TracedRun {
    let mut results: Vec<Result<CampaignTrace, String>> = Vec::with_capacity(campaigns.len());
    let mut jobs = VecDeque::new();
    for (index, campaign) in campaigns.iter().enumerate() {
        let mut rec = Recorder::new(origin, index as u32);
        match Ctx::prepare(campaign, &mut rec) {
            Ok(ctx) => {
                jobs.push_back((index, ctx, rec));
                results.push(Err("traced campaign did not run".into()));
            }
            Err(reason) => results.push(Err(reason)),
        }
    }
    let max_lanes = campaigns.iter().map(Campaign::lanes).max().unwrap_or(1);
    let threads = (nproc / max_lanes).clamp(1, jobs.len().max(1));
    let jobs = Mutex::new(jobs);
    let done = Mutex::new(Vec::new());
    let stolen_start = stolen_per_cpu();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = jobs.lock().expect("job queue poisoned").pop_front();
                let Some((index, ctx, rec)) = job else {
                    break;
                };
                let result =
                    catch_unwind(AssertUnwindSafe(|| run_campaign(&ctx, rec, origin, index)))
                        .map_err(|_| "traced campaign panicked".to_string());
                done.lock().expect("results poisoned").push((index, result));
            });
        }
    });
    let campaign_s =
        start.elapsed().as_secs_f64() - (stolen_per_cpu() - stolen_start).as_secs_f64();
    for (index, result) in done.into_inner().expect("results poisoned") {
        results[index] = result;
    }
    let mut counts = Counts::default();
    for trace in results.iter().flatten() {
        counts.add(&trace.counts);
    }
    TracedRun {
        campaigns: results,
        counts,
        campaign_s,
    }
}

fn run_campaign(ctx: &Ctx, rec: Recorder, origin: Instant, index: usize) -> CampaignTrace {
    let lanes = ctx.config.workers;
    if lanes > 1 {
        let others = (1..lanes)
            .map(|_| Recorder::new(origin, index as u32))
            .collect();
        run_rounds(ctx, rec, others)
    } else {
        run_single_lane(ctx, rec)
    }
}

/// One campaign's set-up, built from the layers' public calls.
struct Ctx {
    config: FuzzerConfig,
    cfg: ControlFlowGraph,
    generator: SequenceGenerator,
    interesting: InterestingValues,
    harness: ContractHarness,
}

impl Ctx {
    fn prepare(campaign: &Campaign, rec: &mut Recorder) -> Result<Ctx, String> {
        let config = campaign.config.clone();
        let compiled = rec
            .time(Layer::Compile, || compile_source(&campaign.contract.source))
            .map_err(|e| format!("compile: {e}"))?;
        let cfg = rec.time(Layer::Cfg, || ControlFlowGraph::build(&compiled.runtime));
        let plan = rec.time(Layer::Dataflow, || {
            plan_sequence(&analyze_contract(&compiled.contract))
        });
        let mut interesting = rec.time(Layer::Harvest, || {
            InterestingValues::harvest(&compiled.runtime)
        });
        let harness = rec
            .time(Layer::Deploy, || ContractHarness::new(compiled, &config))
            .map_err(|e| format!("deploy: {e}"))?;
        for address in harness.interesting_addresses() {
            interesting.add(address.to_u256());
        }
        let generator = SequenceGenerator::new(
            &harness.compiled.abi,
            plan,
            config.enable_sequence_aware,
            harness.senders.len(),
        );
        Ok(Ctx {
            config,
            cfg,
            generator,
            interesting,
            harness,
        })
    }

    fn is_nested(&self, pc: usize) -> bool {
        self.cfg
            .branches
            .get(&pc)
            .is_some_and(|site| site.nesting_depth >= NESTED_BRANCH_DEPTH)
    }

    fn nested_pcs(&self, outcome: &SequenceOutcome) -> BTreeSet<usize> {
        outcome
            .traces
            .iter()
            .flat_map(|t| t.branches.iter())
            .filter(|b| self.is_nested(b.pc))
            .map(|b| b.pc)
            .collect()
    }

    fn seed_nested_pcs(&self, seed: &Seed) -> BTreeSet<usize> {
        let index = self.harness.edge_index();
        seed.covered_edge_ids
            .iter()
            .filter_map(|id| index.edge_of(*id))
            .filter(|e| self.is_nested(e.pc))
            .map(|e| e.pc)
            .collect()
    }

    /// Seed selection: nearest to an uncovered branch half the time, else
    /// weight-proportional.
    fn select_seed(&self, rng: &mut SmallRng, corpus: &[Seed]) -> usize {
        if self.config.enable_branch_distance && rng.gen_bool(0.5) {
            let best = corpus
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.best_distance.map(|d| (i, d + 0.01 * s.selections as f64)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((i, _)) = best {
                return i;
            }
        }
        if self.config.enable_dynamic_energy {
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

    /// Algorithm 2's gate: probe a seed once, after it proved interesting,
    /// while enough budget remains to amortise the probes.
    fn wants_masks(&self, seed: &Seed, remaining: usize) -> bool {
        let probe_cost_estimate = 4 * MAX_MASK_WORDS * seed.sequence.len().clamp(1, MAX_MASK_TXS);
        self.config.enable_mask_guidance
            && seed.masks.is_none()
            && !seed.masks_pending
            && seed.selections >= 2
            && remaining > 2 * probe_cost_estimate
            && (seed.hits_nested_branch || seed.best_distance.is_some())
    }
}

/// The coverage a lane merges into: the shared atomic bitmap of a
/// single-lane campaign, or a round slot's local bitmap.
trait Coverage {
    fn merge_ids(&mut self, ids: &[u32]) -> usize;
    fn contains_edge(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool;
}

impl Coverage for &CoverageMap {
    fn merge_ids(&mut self, ids: &[u32]) -> usize {
        CoverageMap::merge_ids(self, ids)
    }
    fn contains_edge(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        CoverageMap::contains_edge(self, edge, index)
    }
}

impl Coverage for LocalCoverage {
    fn merge_ids(&mut self, ids: &[u32]) -> usize {
        LocalCoverage::merge_ids(self, ids)
    }
    fn contains_edge(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        LocalCoverage::contains_edge(self, edge, index)
    }
}

/// One lane: a harness clone, interpreter scratch, a bug monitor and the
/// span recorder.
struct Lane<'c> {
    ctx: &'c Ctx,
    harness: ContractHarness,
    frame: ExecFrame,
    monitor: CampaignMonitor,
    last_world: Option<WorldState>,
    rec: Recorder,
    counts: Counts,
}

impl<'c> Lane<'c> {
    fn new(ctx: &'c Ctx, rec: Recorder) -> Lane<'c> {
        Lane {
            ctx,
            harness: ctx.harness.clone(),
            frame: ExecFrame::new(),
            monitor: CampaignMonitor::new(),
            last_world: None,
            rec,
            counts: Counts::default(),
        }
    }

    /// Execute and observe one sequence.
    fn execute(&mut self, sequence: &Sequence, probe: bool) -> SequenceOutcome {
        let outcome = self.rec.time(Layer::Executor, || {
            self.harness
                .execute_sequence_with(sequence, &mut self.frame)
        });
        let counts = &mut self.counts;
        counts.executions += 1;
        counts.probe_executions += u64::from(probe);
        for trace in &outcome.traces {
            counts.txs += 1;
            counts.instrs += trace.instruction_count() as u64;
            counts.tx_successes += u64::from(trace.success());
            counts.sha3_txs += u64::from(trace.contains_opcode(Opcode::Sha3));
        }
        self.rec.time(Layer::Oracles, || {
            for trace in &outcome.traces {
                self.monitor.observe(&self.harness.compiled, trace);
            }
            self.monitor
                .observe_world(outcome.final_world.balance(self.harness.contract_address));
        });
        outcome
    }

    fn merge(&mut self, coverage: &mut impl Coverage, outcome: &SequenceOutcome) -> usize {
        let new_edges = self.rec.time(Layer::Coverage, || {
            coverage.merge_ids(&outcome.covered_edge_ids)
        });
        self.counts.merges += 1;
        self.counts.merges_with_new_edges += u64::from(new_edges > 0);
        new_edges
    }

    /// Seed metadata for an outcome whose edges are already merged.
    fn make_seed(
        &mut self,
        sequence: Sequence,
        outcome: &SequenceOutcome,
        new_edges: usize,
        coverage: &impl Coverage,
    ) -> Seed {
        let ctx = self.ctx;
        let mut seed = Seed::new(sequence);
        seed.covered_edge_ids = outcome.covered_edge_ids.clone();
        seed.new_edges = new_edges;
        seed.weight = self
            .rec
            .time(Layer::Energy, || seed_weight(&outcome.traces, &ctx.cfg));
        seed.hits_nested_branch = outcome
            .traces
            .iter()
            .any(|t| t.branches.iter().any(|b| ctx.is_nested(b.pc)));
        seed.best_distance = self.distance_to_uncovered(outcome, coverage);
        self.counts.seeds_built += 1;
        seed
    }

    fn distance_to_uncovered(
        &mut self,
        outcome: &SequenceOutcome,
        coverage: &impl Coverage,
    ) -> Option<f64> {
        if !self.ctx.config.enable_branch_distance {
            return None;
        }
        let index = self.harness.edge_index();
        self.rec.time(Layer::Distance, || {
            let mut best: Option<f64> = None;
            for trace in &outcome.traces {
                let map = DistanceMap::from_trace(trace);
                for (edge, d) in &map.distances {
                    if coverage.contains_edge(edge, index) {
                        continue;
                    }
                    best = Some(match best {
                        Some(b) if b <= *d => b,
                        _ => *d,
                    });
                }
            }
            best
        })
    }

    /// A mutant of `seed`: occasionally a structural mutation, then
    /// mask-guided byte mutation of one or two transactions.
    fn mutate(&mut self, seed: &Seed, rng: &mut SmallRng) -> Sequence {
        let ctx = self.ctx;
        let abi = &self.harness.compiled.abi;
        let interesting = &ctx.interesting;
        let mut sequence = seed.sequence.clone();
        if sequence.is_empty() {
            return self.rec.time(Layer::Seedgen, || {
                ctx.generator.generate(abi, rng, interesting)
            });
        }
        if rng.gen_bool(0.3) {
            sequence = self.rec.time(Layer::Seedgen, || {
                ctx.generator
                    .mutate_structure(&sequence, abi, rng, interesting)
            });
        }
        let mutations = 1 + rng.gen_range(0..2usize);
        for _ in 0..mutations {
            let idx = rng.gen_range(0..sequence.txs.len());
            let stream = sequence.txs[idx].stream.clone();
            let use_mask = ctx.config.enable_mask_guidance && rng.gen_bool(0.8);
            let mask = seed
                .masks
                .as_ref()
                .and_then(|m| m.get(idx))
                .cloned()
                .filter(|_| use_mask)
                .unwrap_or_else(|| MutationMask::allow_all(stream.len()));
            if let Some(mutated) = self.rec.time(Layer::Mutation, || {
                mutate_masked(&stream, &mask, rng, interesting)
            }) {
                sequence.txs[idx].stream = mutated;
            }
        }
        sequence
    }

    /// Algorithm 2: probe each (word, operator) site of the seed's leading
    /// transactions; a site stays mutable if mutating it keeps the nested
    /// branches covered or moves closer to an uncovered branch. Probes are
    /// real executions: each takes a budget slot from `budget` and can be
    /// admitted through `admit`.
    fn compute_masks(
        &mut self,
        seed: &Seed,
        rng: &mut SmallRng,
        coverage: &mut impl Coverage,
        budget: &mut usize,
        admit: &mut dyn FnMut(Seed),
    ) -> Vec<MutationMask> {
        let ctx = self.ctx;
        let baseline_nested = ctx.seed_nested_pcs(seed);
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
            for word in probed_words..total_words {
                for op in MutationOp::ALL {
                    mask.allow(word, op);
                }
            }
            for word in 0..probed_words {
                for op in MutationOp::ALL {
                    if *budget == 0 {
                        mask.allow(word, op);
                        continue;
                    }
                    *budget -= 1;
                    self.rec.set_exec(self.counts.executions as u32 + 1);
                    self.rec.enter(Layer::Exec);
                    let probe_stream = self.rec.time(Layer::Mutation, || {
                        apply_op(&tx.stream, op, word, rng, &ctx.interesting)
                    });
                    let mut probe_seq = seed.sequence.clone();
                    probe_seq.txs[tx_index].stream = probe_stream;
                    let outcome = self.execute(&probe_seq, true);
                    let keeps_nested = baseline_nested.is_subset(&ctx.nested_pcs(&outcome));
                    let new_edges = self.merge(coverage, &outcome);
                    if new_edges > 0 {
                        let admitted =
                            self.make_seed(probe_seq.clone(), &outcome, new_edges, coverage);
                        admit(admitted);
                    }
                    let probe_distance = self
                        .distance_to_uncovered(&outcome, coverage)
                        .unwrap_or(1.0);
                    if keeps_nested || probe_distance < baseline_distance {
                        mask.allow(word, op);
                    }
                    self.rec.exit();
                }
            }
            if mask.allowed_sites().is_empty() {
                mask = MutationMask::allow_all(tx.stream.len());
            }
            self.counts.masks += 1;
            self.counts.frozen_fraction_sum += mask.frozen_fraction();
            masks.push(mask);
        }
        masks
    }

    /// Draw a seed and its energy from `corpus` (Algorithm 3).
    fn draw(&mut self, rng: &mut SmallRng, corpus: &mut [Seed]) -> (usize, usize) {
        let ctx = self.ctx;
        self.rec.time(Layer::Energy, || {
            let index = ctx.select_seed(rng, corpus);
            corpus[index].selections += 1;
            let mean_weight = corpus_mean_weight(corpus);
            let energy = allocate_energy(
                corpus[index].weight,
                mean_weight,
                ctx.config.scheduler.base_energy,
                ctx.config.enable_dynamic_energy,
            );
            (index, energy)
        })
    }

    /// Draw one seed, probe its masks when due, and run its mutants,
    /// spending at most `budget` executions. New seeds go to `admit`.
    fn run_batch(
        &mut self,
        rng: &mut SmallRng,
        corpus: &mut [Seed],
        coverage: &mut impl Coverage,
        budget: &mut usize,
        admit: &mut dyn FnMut(Seed),
    ) {
        let (index, energy) = self.draw(rng, corpus);
        let mut parent = corpus[index].clone();
        if self.ctx.wants_masks(&parent, *budget) {
            corpus[index].masks_pending = true;
            let masks = self.compute_masks(&parent, rng, coverage, budget, admit);
            corpus[index].masks = Some(masks.clone());
            parent.masks = Some(masks);
        }
        for _ in 0..energy {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            self.rec.set_exec(self.counts.executions as u32 + 1);
            self.rec.enter(Layer::Exec);
            let candidate = self.mutate(&parent, rng);
            let outcome = self.execute(&candidate, false);
            let new_edges = self.merge(coverage, &outcome);
            if new_edges > 0 {
                let seed = self.make_seed(candidate, &outcome, new_edges, coverage);
                admit(seed);
            }
            self.last_world = Some(outcome.final_world);
            self.rec.exit();
        }
    }

    /// Execute the plan-derived initial corpus, admitting every sequence.
    fn run_initial(
        &mut self,
        rng: &mut SmallRng,
        coverage: &mut impl Coverage,
        budget: &mut usize,
        admit: &mut dyn FnMut(Seed),
    ) {
        let ctx = self.ctx;
        let abi = &self.harness.compiled.abi;
        let initial = self.rec.time(Layer::Seedgen, || {
            ctx.generator
                .initial_sequences(abi, ctx.config.initial_seeds, rng, &ctx.interesting)
        });
        for sequence in initial {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            self.rec.set_exec(self.counts.executions as u32 + 1);
            self.rec.enter(Layer::Exec);
            let outcome = self.execute(&sequence, false);
            let new_edges = self.merge(coverage, &outcome);
            let seed = self.make_seed(sequence, &outcome, new_edges, coverage);
            admit(seed);
            self.rec.exit();
        }
    }
}

/// Append `seed` to the corpus with the next uid.
fn admit_to(corpus: &mut Vec<Seed>, counts: &mut u64, mut seed: Seed) {
    seed.uid = corpus.last().map_or(0, |s| s.uid + 1);
    corpus.push(seed);
    *counts += 1;
}

fn finish(
    ctx: &Ctx,
    mut lanes: Vec<Lane<'_>>,
    last_world: Option<WorldState>,
    coverage: &CoverageMap,
) -> CampaignTrace {
    let mut monitor = CampaignMonitor::new();
    let mut counts = Counts::default();
    let mut spans = Vec::with_capacity(lanes.len());
    for lane in lanes.iter_mut() {
        monitor.merge(std::mem::take(&mut lane.monitor));
        counts.add(&lane.counts);
        spans.push(lane.rec.take_spans());
    }
    monitor.finalize(
        &ctx.harness.compiled,
        last_world.as_ref().or(Some(ctx.harness.base_world())),
    );
    CampaignTrace {
        covered_edges: coverage.covered_count(),
        findings: monitor.findings(),
        counts,
        spans,
    }
}

fn run_single_lane(ctx: &Ctx, rec: Recorder) -> CampaignTrace {
    let mut lane = Lane::new(ctx, rec);
    let mut rng = SmallRng::seed_from_u64(ctx.config.rng_seed);
    let map = CoverageMap::new(ctx.harness.edge_index().len());
    let mut coverage = &map;
    let mut budget = ctx.config.max_executions();
    let mut corpus: Vec<Seed> = Vec::new();
    let mut admissions = 0u64;
    lane.run_initial(&mut rng, &mut coverage, &mut budget, &mut |seed| {
        admit_to(&mut corpus, &mut admissions, seed)
    });
    while budget > 0 && !corpus.is_empty() {
        let mut staged = Vec::new();
        lane.run_batch(
            &mut rng,
            &mut corpus,
            &mut coverage,
            &mut budget,
            &mut |seed| staged.push(seed),
        );
        for seed in staged {
            admit_to(&mut corpus, &mut admissions, seed);
        }
    }
    lane.counts.admissions = admissions;
    let last_world = lane.last_world.take();
    finish(ctx, vec![lane], last_world, &map)
}

/// What one round slot hands to the commit.
struct SlotOut {
    candidates: Vec<Seed>,
    /// Selection counts and masks the slot added, keyed by seed uid.
    selections: Vec<(u64, usize)>,
    masks: Vec<(u64, Vec<MutationMask>)>,
    last_world: Option<WorldState>,
}

/// A multi-lane campaign in round form: lane 0 runs the initial corpus,
/// then every lane claims round slots on its own thread.
fn run_rounds(ctx: &Ctx, rec: Recorder, others: Vec<Recorder>) -> CampaignTrace {
    let slots_per_round = ctx.config.scheduler.round_slots;
    let batch = ctx.config.scheduler.round_batch;
    let edges = ctx.harness.edge_index().len();
    let mut lanes = vec![Lane::new(ctx, rec)];
    let map = CoverageMap::new(edges);
    let mut budget = ctx.config.max_executions();
    let mut corpus: Vec<Seed> = Vec::new();
    let mut admissions = 0u64;
    {
        let mut rng = SmallRng::seed_from_u64(ctx.config.rng_seed);
        let mut coverage = &map;
        lanes[0].run_initial(&mut rng, &mut coverage, &mut budget, &mut |seed| {
            admit_to(&mut corpus, &mut admissions, seed)
        });
    }
    lanes.extend(others.into_iter().map(|rec| Lane::new(ctx, rec)));
    let mut last_world = None;
    let mut round = 0u64;
    while budget > 0 && !corpus.is_empty() {
        let round_budget = budget.min(slots_per_round * batch);
        let slots = round_budget.div_ceil(batch);
        let view_words = map.snapshot_words();
        let view = &corpus;
        let next_slot = AtomicUsize::new(0);
        let outs: Vec<Mutex<Option<SlotOut>>> = (0..slots).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for lane in lanes.iter_mut() {
                let (next_slot, outs, view_words) = (&next_slot, &outs, &view_words);
                scope.spawn(move || loop {
                    let slot = next_slot.fetch_add(1, Ordering::Relaxed);
                    if slot >= slots {
                        break;
                    }
                    let slot_budget = batch.min(round_budget - slot * batch);
                    let out = lane.run_slot(
                        view,
                        view_words.clone(),
                        edges,
                        mix(ctx.config.rng_seed, (round << 16) | slot as u64),
                        slot_budget,
                    );
                    *outs[slot].lock().expect("slot output poisoned") = Some(out);
                });
            }
        });
        // Commit in slot order: re-gate candidates against the live
        // bitmap, then write back selection counts and masks by uid.
        for out in outs {
            let out = out
                .into_inner()
                .expect("slot output poisoned")
                .expect("every slot ran");
            for (uid, delta) in out.selections {
                if let Some(seed) = corpus.iter_mut().find(|s| s.uid == uid) {
                    seed.selections += delta;
                }
            }
            for (uid, masks) in out.masks {
                if let Some(seed) = corpus.iter_mut().find(|s| s.uid == uid) {
                    if seed.masks.is_none() {
                        seed.masks = Some(masks);
                    }
                }
            }
            for candidate in out.candidates {
                if map.merge_ids(&candidate.covered_edge_ids) > 0 {
                    admit_to(&mut corpus, &mut admissions, candidate);
                }
            }
            if out.last_world.is_some() {
                last_world = out.last_world;
            }
        }
        budget -= round_budget;
        round += 1;
    }
    lanes[0].counts.admissions = admissions;
    finish(ctx, lanes, last_world, &map)
}

impl Lane<'_> {
    /// One round slot: `slot_budget` executions against a private copy of
    /// the frozen view, judging novelty with a slot-local bitmap.
    fn run_slot(
        &mut self,
        view: &[Seed],
        view_words: Vec<u64>,
        edges: usize,
        slot_seed: u64,
        slot_budget: usize,
    ) -> SlotOut {
        let mut rng = SmallRng::seed_from_u64(slot_seed);
        let mut corpus = view.to_vec();
        let mut coverage = LocalCoverage::from_words(edges, view_words);
        let mut candidates = Vec::new();
        let mut budget = slot_budget;
        self.last_world = None;
        while budget > 0 {
            self.run_batch(
                &mut rng,
                &mut corpus,
                &mut coverage,
                &mut budget,
                &mut |seed| candidates.push(seed),
            );
        }
        SlotOut {
            candidates,
            selections: corpus
                .iter()
                .zip(view)
                .filter(|(now, then)| now.selections > then.selections)
                .map(|(now, then)| (now.uid, now.selections - then.selections))
                .collect(),
            masks: corpus
                .iter()
                .zip(view)
                .filter(|(now, then)| now.masks.is_some() && then.masks.is_none())
                .map(|(now, _)| (now.uid, now.masks.clone().expect("filtered on is_some")))
                .collect(),
            last_world: self.last_world.take(),
        }
    }
}
