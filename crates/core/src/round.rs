//! Barrier-synchronized **round mode**: the engine of every multi-lane
//! campaign.
//!
//! Under [`DeterminismProfile::Round`](crate::config::DeterminismProfile),
//! and whenever `FuzzerConfig::workers > 1`, a campaign advances in
//! *rounds*. Each round freezes an immutable
//! [`RoundView`] of the scheduling state — the corpus, the coverage bitmap
//! and the corpus mean weight — and splits the next chunk of the execution
//! budget into `SchedulerConfig::round_slots` fixed-size *slots* of
//! `SchedulerConfig::round_batch` executions. Lanes claim slots dynamically
//! (any lane may run any slot, in any interleaving), but a slot's work is a
//! pure function of `(rng_seed, round, slot, view)`:
//!
//! * the slot RNG is [`derive_slot_seed`]`(rng_seed, round, slot)`;
//! * seed selection, energy allocation and the mask-probe gate all read the
//!   slot's private copy of the frozen view, never the live shared state;
//! * coverage novelty is judged against a [`LocalCoverage`] bitmap seeded
//!   from the frozen words, so an admission decision cannot depend on what a
//!   concurrently running slot discovered.
//!
//! A slot runs the same mask-probe pass and mutant loop as the free-running
//! lane (`Executor::compute_masks` and `Executor::run_mutants` in
//! `campaign.rs`); its ledger, `SlotCtx`, charges the slot quota instead of
//! the shared budget and stages every result for the commit.
//!
//! The lane that finishes the round's last slot *commits* it: slot outcomes
//! are applied to the shared state **in slot order** — selection-count
//! deltas and mask write-backs keyed by stable seed uid, candidate seeds
//! re-gated against the live coverage bitmap (a mutant whose edges were all
//! committed by an earlier slot is dropped; this is lossless, because a
//! mutant with no new edges against the frozen view plus its own slot's
//! prefix cannot be new against the commit-time superset), monitor merges,
//! replayable [`FindingRecord`]s deduplicated by `(class, function)`, and
//! timeline points at every snapshot boundary the slot's executions crossed.
//! Pause requests and the wall-clock budget are honoured only at this
//! barrier. The result: **any worker count produces the bit-identical
//! campaign** — same report digests, same corpus (by uid), same findings.

use crate::campaign::{
    fresh_findings, make_seed, observe, select_seed, swap_world, CampaignContext, CampaignShared,
    Executor, LaneStep, Ledger, PauseState, RunParams, Worker,
};
use crate::coverage::LocalCoverage;
use crate::energy::{allocate_energy, corpus_mean_weight};
use crate::executor::SequenceOutcome;
use crate::input::{Seed, Sequence};
use crate::mutation::MutationMask;
use crate::replay::{outcome_digest, FindingRecord};
use crate::snapshot::contract_fingerprint;
use mufuzz_analysis::EdgeIndex;
use mufuzz_evm::{BranchEdge, WorldState};
use mufuzz_oracles::{BugClass, BugFinding, CampaignMonitor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A finding's deduplication identity, matching
/// [`CampaignMonitor`]'s `(class, function)` keying.
type RecordKey = (BugClass, Option<String>);

/// The decorrelated RNG seed of one round slot: two chained SplitMix64
/// finalizer rounds over the campaign seed, salted with the round and slot
/// indices. Worker count never enters, so the slot's randomness — and with
/// it the whole campaign — is identical at any parallelism.
pub(crate) fn derive_slot_seed(rng_seed: u64, round: u64, slot: u64) -> u64 {
    let mut z = rng_seed;
    for salt in [
        round.wrapping_mul(2).wrapping_add(0x9E37_79B9_7F4A_7C15),
        slot.wrapping_mul(2).wrapping_add(0xD1B5_4A32_D192_ED03),
    ] {
        z = z.wrapping_add(salt);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// The frozen scheduling view every slot of a round draws from.
struct RoundView {
    /// Corpus snapshot (each slot selects from its own copy so selection
    /// tie-breaking sees slot-local selection counts only).
    corpus: Vec<Seed>,
    /// Coverage bitmap words at the round barrier.
    coverage: Vec<u64>,
    /// Edge capacity of the coverage bitmap.
    edges: usize,
    /// Corpus mean weight at the barrier (Algorithm 3's denominator).
    mean_weight: f64,
}

/// A candidate corpus admission produced inside a slot: locally novel
/// against the frozen view, re-gated against live coverage at commit.
struct Candidate {
    shape: String,
    seed: Seed,
}

/// A finding record captured inside a slot, with the key commit uses to
/// deduplicate across slots and rounds.
struct PendingRecord {
    key: RecordKey,
    record: FindingRecord,
}

/// Everything one slot hands to the commit step.
struct SlotOutcome {
    /// Executions the slot performed (charged to the budget at commit).
    executed: usize,
    /// Selection-count deltas by seed uid.
    sel_deltas: Vec<(u64, usize)>,
    /// Mask-probe results by seed uid (first writer in slot order wins).
    mask_writes: Vec<(u64, Vec<MutationMask>)>,
    /// Locally novel mutants, in discovery order.
    candidates: Vec<Candidate>,
    /// The slot's private bug monitor (merged into the master at commit).
    monitor: CampaignMonitor,
    /// Final world of the slot's last execution.
    last_world: Option<WorldState>,
    /// Replayable records for findings first observed in this slot.
    records: Vec<PendingRecord>,
}

impl SlotOutcome {
    fn empty() -> SlotOutcome {
        SlotOutcome {
            executed: 0,
            sel_deltas: Vec::new(),
            mask_writes: Vec::new(),
            candidates: Vec::new(),
            monitor: CampaignMonitor::new(),
            last_world: None,
            records: Vec::new(),
        }
    }
}

/// Provenance stamped onto every [`FindingRecord`] a slot captures (the
/// contract hash is computed when a record is, which is rare).
struct SlotProvenance {
    round: u64,
    slot: u32,
    workers: u32,
}

/// The round-mode runtime: the current round's frozen view and slot ledger,
/// plus the campaign-lifetime master monitor, finding records and last
/// world. Lives in [`CampaignShared::round`]; installed by the service
/// bootstrap, consumed by finalisation.
pub(crate) struct RoundRt {
    /// Index of the round currently running (checkpointed and restored).
    pub(crate) round: u64,
    /// The frozen view shared by this round's slots.
    view: Arc<RoundView>,
    /// Slots in this round.
    slots: usize,
    /// Next slot to hand out.
    next_slot: usize,
    /// Slots handed out but not yet returned.
    outstanding: usize,
    /// Returned slot outcomes, indexed by slot.
    results: Vec<Option<SlotOutcome>>,
    /// Executions charged when the round started.
    start_execs: usize,
    /// Master bug monitor: lane 0's prologue observations plus every
    /// committed slot monitor, in slot order.
    pub(crate) monitor: CampaignMonitor,
    /// Final world of the last committed slot (feeds the campaign-level
    /// oracles at finalisation).
    pub(crate) last_world: Option<WorldState>,
    /// Replayable finding records, in commit order.
    pub(crate) records: Vec<FindingRecord>,
    /// Finding keys already recorded (or already known to the master
    /// monitor when the runtime was installed).
    recorded: BTreeSet<RecordKey>,
    /// The master monitor's finding count when findings were last streamed.
    findings_streamed: usize,
    /// The budget (executions or wall clock) ran out at a barrier.
    finished: bool,
    /// The campaign stopped at a barrier with budget remaining.
    paused: bool,
}

impl RoundRt {
    /// Install the round runtime: promote `master` (lane 0's monitor, which
    /// holds the seeding prologue's — and, on resume, the checkpoint's —
    /// observations) and freeze the first view. `round` is zero and
    /// `records` empty for a fresh campaign; a resume passes the
    /// checkpointed round index and record list. Keys the master monitor
    /// already knows are never re-recorded, so a resumed campaign's record
    /// list continues exactly where the checkpoint's left off.
    pub(crate) fn install(
        master: CampaignMonitor,
        round: u64,
        records: Vec<FindingRecord>,
        ctx: &CampaignContext,
        shared: &CampaignShared,
        params: &RunParams,
        pause: &PauseState,
    ) -> RoundRt {
        let recorded = master
            .findings()
            .into_iter()
            .map(|f| (f.class, f.function))
            .collect();
        let mut rt = RoundRt {
            round,
            view: Arc::new(RoundView {
                corpus: Vec::new(),
                coverage: Vec::new(),
                edges: 0,
                mean_weight: 0.0,
            }),
            slots: 0,
            next_slot: 0,
            outstanding: 0,
            results: Vec::new(),
            start_execs: 0,
            monitor: master,
            last_world: None,
            records,
            recorded,
            findings_streamed: 0,
            finished: false,
            paused: false,
        };
        rt.prepare(ctx, shared, params, pause);
        rt
    }

    /// The master monitor's findings if any arrived since the previous call
    /// (for event streaming; see `campaign::fresh_findings`).
    pub(crate) fn fresh_findings(&mut self) -> Vec<BugFinding> {
        fresh_findings(&self.monitor, &mut self.findings_streamed)
    }

    /// Open the next round: check the stop and pause conditions, then freeze
    /// a fresh view and size the slot ledger to the remaining budget.
    fn prepare(
        &mut self,
        ctx: &CampaignContext,
        shared: &CampaignShared,
        params: &RunParams,
        pause: &PauseState,
    ) {
        self.start_execs = shared.executions();
        self.next_slot = 0;
        self.outstanding = 0;
        let remaining = ctx.config.max_executions().saturating_sub(self.start_execs);
        if remaining == 0 || params.out_of_time() {
            self.finished = true;
            return;
        }
        if pause.engaged(self.start_execs) {
            self.paused = true;
            return;
        }
        let batch = ctx.config.scheduler.round_batch.max(1);
        let slots = ctx
            .config
            .scheduler
            .round_slots
            .max(1)
            .min(remaining.div_ceil(batch));
        let s = shared.state.lock().expect("campaign state poisoned");
        // Every lane drops its handle on the view before it returns its
        // slot, so the view is unique here and is refilled in place.
        let view = Arc::get_mut(&mut self.view).expect("a lane kept the round view past its slot");
        view.corpus.clone_from(&s.corpus);
        view.coverage.clear();
        view.coverage.extend(shared.coverage.snapshot_words_iter());
        view.edges = shared.coverage.capacity();
        view.mean_weight = corpus_mean_weight(&s.corpus);
        drop(s);
        self.slots = slots;
        self.results = (0..slots).map(|_| None).collect();
    }

    /// Apply the round's slot outcomes to the shared state, in slot order,
    /// then charge the budget and open the next round. Runs with the round
    /// lock held (lock order `round` → `state`).
    fn commit_round(
        &mut self,
        ctx: &CampaignContext,
        shared: &CampaignShared,
        params: &RunParams,
        pause: &PauseState,
    ) {
        let results: Vec<SlotOutcome> = self
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("round slot missing at commit"))
            .collect();
        let mut committed = 0usize;
        {
            let mut s = shared.state.lock().expect("campaign state poisoned");
            for result in results {
                let low = self.start_execs + committed;
                committed += result.executed;
                let high = self.start_execs + committed;
                for (uid, delta) in result.sel_deltas {
                    if let Some(global) = s.corpus.iter_mut().find(|g| g.uid == uid) {
                        global.selections += delta;
                    }
                }
                for (uid, masks) in result.mask_writes {
                    if let Some(global) = s.corpus.iter_mut().find(|g| g.uid == uid) {
                        if global.masks.is_none() {
                            global.masks = Some(masks);
                            global.masks_pending = true;
                        }
                    }
                }
                for candidate in result.candidates {
                    let new_edges = shared.coverage.merge_ids(&candidate.seed.covered_edge_ids);
                    if new_edges == 0 {
                        // Everything it found was already committed by an
                        // earlier slot of this round.
                        continue;
                    }
                    let mut seed = candidate.seed;
                    seed.new_edges = new_edges;
                    if s.interesting_shapes.len() < 16 {
                        s.interesting_shapes.push(candidate.shape);
                    }
                    s.admit(seed);
                    s.maybe_cull(ctx.config.effective_cull_interval());
                }
                self.monitor.merge(result.monitor);
                for pending in result.records {
                    if self.recorded.insert(pending.key) {
                        self.records.push(pending.record);
                    }
                }
                if result.last_world.is_some() {
                    self.last_world = result.last_world;
                }
                // Timeline points at every snapshot boundary this slot's
                // executions crossed, stamped with the coverage after its
                // merges.
                let covered = shared.coverage.covered_count();
                let every = params.snapshot_every;
                let mut mark = (low / every + 1) * every;
                while mark <= high {
                    s.timeline.push(params.point(mark, covered));
                    mark += every;
                }
            }
        }
        shared.reserved.fetch_add(committed, Ordering::Relaxed);
        self.round += 1;
        self.prepare(ctx, shared, params, pause);
    }
}

/// One round-mode lane step: claim the next slot of the current round and
/// run it, or yield while other lanes drain theirs. The lane returning the
/// round's last slot commits the round inline.
pub(crate) fn round_step(
    worker: &mut Worker,
    shared: &CampaignShared,
    params: &RunParams,
    pause: &PauseState,
) -> LaneStep {
    let claim = {
        let mut guard = shared.round.lock().expect("round state poisoned");
        let Some(rt) = guard.as_mut() else {
            // No runtime installed (empty corpus): nothing to run.
            return LaneStep::Finished;
        };
        if rt.finished {
            return LaneStep::Finished;
        }
        if rt.paused {
            return LaneStep::Paused;
        }
        if rt.next_slot < rt.slots {
            let slot = rt.next_slot;
            rt.next_slot += 1;
            rt.outstanding += 1;
            let batch = worker.exec.ctx.config.scheduler.round_batch.max(1);
            let remaining = worker
                .exec
                .ctx
                .config
                .max_executions()
                .saturating_sub(rt.start_execs);
            let quota = batch.min(remaining.saturating_sub(slot * batch));
            Some((slot, quota, rt.round, Arc::clone(&rt.view)))
        } else {
            None
        }
    };
    let Some((slot, quota, round, view)) = claim else {
        // Every slot of this round is claimed; the round advances when the
        // lanes running them return. Yield so the lane's next step doesn't
        // spin the pool hot.
        std::thread::yield_now();
        return LaneStep::Continue;
    };
    let outcome = run_slot(&mut worker.exec, &view, slot, quota, round);
    drop(view);
    let mut guard = shared.round.lock().expect("round state poisoned");
    let rt = guard.as_mut().expect("round runtime vanished mid-round");
    rt.results[slot] = Some(outcome);
    rt.outstanding -= 1;
    if rt.next_slot == rt.slots && rt.outstanding == 0 {
        rt.commit_round(&worker.exec.ctx, shared, params, pause);
    }
    LaneStep::Continue
}

/// Run one slot: `quota` mutate→execute→evaluate steps (including any mask
/// probes) against the frozen view, with the slot's derived RNG. Pure in
/// `(rng_seed, round, slot, view)` — the lane contributes only its harness
/// clone, reusable buffers and prefix records, none of which changes an
/// outcome. The slot draws from its own copy of the frozen corpus, refilled
/// into the executor's buffer.
fn run_slot(
    exec: &mut Executor,
    view: &RoundView,
    slot: usize,
    quota: usize,
    round: u64,
) -> SlotOutcome {
    let ctx = Arc::clone(&exec.ctx);
    let mut rng =
        SmallRng::seed_from_u64(derive_slot_seed(ctx.config.rng_seed, round, slot as u64));
    let mut corpus = std::mem::take(&mut exec.slot_corpus);
    corpus.clone_from(&view.corpus);
    let mut ledger = SlotCtx {
        quota,
        local: LocalCoverage::from_words(view.edges, view.coverage.clone()),
        out: SlotOutcome::empty(),
        prov: SlotProvenance {
            round,
            slot: slot as u32,
            workers: ctx.config.workers.max(1) as u32,
        },
    };
    while !corpus.is_empty() && ledger.out.executed < quota {
        let i = select_seed(&ctx.config, &mut rng, &corpus);
        corpus[i].selections += 1;
        bump_delta(&mut ledger.out.sel_deltas, corpus[i].uid);
        let energy = allocate_energy(
            corpus[i].weight,
            view.mean_weight,
            ctx.config.scheduler.base_energy,
            ctx.config.enable_dynamic_energy,
        );
        if Worker::wants_masks(&ctx.config, &corpus[i], quota - ledger.out.executed) {
            corpus[i].masks_pending = true;
            let masks = exec.compute_masks(&mut rng, &corpus[i], &mut ledger);
            ledger.out.mask_writes.push((corpus[i].uid, masks.clone()));
            corpus[i].masks = Some(masks);
        }
        if exec
            .run_mutants(&mut rng, &corpus[i], energy, &mut ledger)
            .is_break()
        {
            break;
        }
    }
    exec.slot_corpus = corpus;
    ledger.out
}

/// A round slot's [`Ledger`]: executions are charged to the slot quota,
/// coverage novelty is judged against the slot-local bitmap, novel
/// executions are staged as admission candidates for the commit, and the
/// slot monitor pins a replayable [`FindingRecord`] to the first execution
/// that triggers each finding.
struct SlotCtx {
    quota: usize,
    local: LocalCoverage,
    out: SlotOutcome,
    prov: SlotProvenance,
}

impl Ledger for SlotCtx {
    fn reserve(&mut self) -> bool {
        let granted = self.out.executed < self.quota;
        self.out.executed += usize::from(granted);
        granted
    }

    fn covers(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        self.local.contains_edge(edge, index)
    }

    fn settle(
        &mut self,
        exec: &Executor,
        sequence: &Sequence,
        outcome: &SequenceOutcome,
        seed_uid: u64,
    ) {
        let harness = &exec.harness;
        let out = &mut self.out;
        let known = out.monitor.len();
        observe(&mut out.monitor, harness, outcome);
        if out.monitor.len() > known {
            // This execution triggered at least one finding the slot had not
            // seen; pin every fresh key to it.
            for finding in out.monitor.findings() {
                let key = (finding.class, finding.function.clone());
                if out.records.iter().any(|pending| pending.key == key) {
                    continue;
                }
                let prov = &self.prov;
                out.records.push(PendingRecord {
                    key,
                    record: FindingRecord {
                        contract_hash: contract_fingerprint(&harness.compiled),
                        seed_uid,
                        round: prov.round,
                        slot: prov.slot,
                        workers: prov.workers,
                        finding,
                        sequence: sequence.clone(),
                        outcome_digest: outcome_digest(outcome, harness.contract_address),
                    },
                });
            }
        }
        let new_local = self.local.merge_ids(&outcome.covered_edge_ids);
        if new_local > 0 {
            let index = harness.edge_index();
            let local = &self.local;
            let seed = make_seed(&exec.ctx, sequence.clone(), outcome, new_local, &|edge| {
                local.contains_edge(edge, index)
            });
            out.candidates.push(Candidate {
                shape: sequence.shape(),
                seed,
            });
        }
    }

    fn keep_world(&mut self, world: &mut WorldState) {
        swap_world(&mut self.out.last_world, world);
    }
}

/// Accumulate one selection into a slot's per-uid delta list.
fn bump_delta(deltas: &mut Vec<(u64, usize)>, uid: u64) {
    if let Some(entry) = deltas.iter_mut().find(|(u, _)| *u == uid) {
        entry.1 += 1;
    } else {
        deltas.push((uid, 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_seeds_decorrelate_rounds_slots_and_campaigns() {
        let mut seen = BTreeSet::new();
        for round in 0..16u64 {
            for slot in 0..16u64 {
                assert!(
                    seen.insert(derive_slot_seed(42, round, slot)),
                    "slot seed collision at round {round} slot {slot}"
                );
            }
        }
        // A different campaign seed lands elsewhere entirely.
        assert!(seen.insert(derive_slot_seed(43, 0, 0)));
        // (round, slot) is not symmetric.
        assert_ne!(derive_slot_seed(7, 1, 0), derive_slot_seed(7, 0, 1));
    }

    #[test]
    fn selection_deltas_accumulate_by_uid() {
        let mut deltas = Vec::new();
        bump_delta(&mut deltas, 3);
        bump_delta(&mut deltas, 5);
        bump_delta(&mut deltas, 3);
        assert_eq!(deltas, vec![(3, 2), (5, 1)]);
    }
}
