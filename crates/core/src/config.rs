//! Fuzzer configuration.
//!
//! Knobs are grouped by concern: [`BudgetConfig`] bounds how long a campaign
//! runs, [`SchedulerConfig`] tunes how the seed scheduler spends that budget,
//! and the remaining [`FuzzerConfig`] fields select the paper's components
//! and the shape of the fuzzing world. Every knob keeps a chainable
//! `with_*`/`without_*` builder on [`FuzzerConfig`] itself, so driver code
//! never has to construct the sub-structs by hand.

/// Which reproducibility contract a campaign runs under.
///
/// One engine per lane count, both reproducible for a given `rng_seed`; a
/// campaign with `workers > 1` runs rounds under either profile (see
/// [`FuzzerConfig::round_mode`]).
///
/// * [`DeterminismProfile::FreeRunning`] (the default) is the sequential
///   engine, always one lane: bit-for-bit the historical single-threaded
///   engine.
/// * [`DeterminismProfile::Round`] runs the campaign as barrier-synchronized
///   *rounds*: workers claim fixed-size mutant slots against a frozen view of
///   the corpus and coverage, and a round barrier applies admissions,
///   coverage merges, finding records and timeline points in stable slot
///   order. Every slot's RNG derives from `(rng_seed, round, slot)` — never
///   from which thread ran it — so **any worker count produces the
///   bit-identical report, corpus and findings**, and recorded findings can
///   be replayed from a [`crate::CampaignSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeterminismProfile {
    /// The sequential engine; one lane.
    #[default]
    FreeRunning,
    /// Barrier-synchronized rounds; bit-identical at any worker count.
    Round,
}

/// The campaign's stopping conditions: an execution budget and an optional
/// wall-clock budget (whichever is hit first stops the campaign).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Maximum number of transaction-sequence executions.
    pub max_executions: usize,
    /// Optional wall-clock budget in milliseconds.
    pub time_budget_ms: Option<u64>,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            max_executions: 2_000,
            time_budget_ms: None,
        }
    }
}

/// Seed-scheduler tuning: corpus culling, the base mutation energy and the
/// round shape.
///
/// The free-running lane draws every seed batch from the live corpus;
/// round-mode slots draw from the corpus frozen at the round barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Corpus culling: every `n` admissions (counted inside the campaign
    /// state lock), drop seeds whose covered-edge set is a subset of another
    /// seed's with no better branch-distance score. `None` (the default)
    /// leaves the choice to the engine: the free-running lane runs without
    /// culling — dropping seeds reshuffles corpus indices and thus the
    /// seed-selection RNG stream of the pinned `workers == 1` campaigns —
    /// while round mode enables it at [`DEFAULT_ROUND_CULL_INTERVAL`] (round
    /// mode keys every write-back by stable seed uid and freezes the draw
    /// view per round, so culling cannot perturb determinism there). Set an
    /// explicit interval
    /// with [`FuzzerConfig::with_corpus_culling`], or pin culling off with
    /// [`FuzzerConfig::without_corpus_culling`].
    pub corpus_cull_interval: Option<usize>,
    /// Base mutation energy per selected seed (number of mutants generated).
    pub base_energy: usize,
    /// Round mode: how many mutant slots each round schedules. Workers claim
    /// slots dynamically, so any `workers` count drains the same slots; a
    /// slot count divisible by the worker count leaves no barrier tail.
    pub round_slots: usize,
    /// Round mode: how many executions one slot performs against the round's
    /// frozen corpus/coverage view. `round_slots * round_batch` executions
    /// per round bound how stale the frozen view can get.
    pub round_batch: usize,
}

/// Culling cadence round mode defaults to when
/// [`SchedulerConfig::corpus_cull_interval`] is `None`.
pub const DEFAULT_ROUND_CULL_INTERVAL: usize = 32;

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            corpus_cull_interval: None,
            base_energy: 8,
            round_slots: 8,
            round_batch: 64,
        }
    }
}

/// Configuration of a fuzzing campaign.
///
/// The three `enable_*` switches correspond to the paper's three components
/// and drive the ablation study (Figure 7): sequence-aware mutation (§IV-A),
/// mask-guided seed mutation (§IV-B) and dynamic-adaptive energy adjustment
/// (§IV-C).
///
/// Configurations are built from [`FuzzerConfig::mufuzz`] (everything on)
/// with chained builders:
///
/// ```
/// use mufuzz::FuzzerConfig;
///
/// let config = FuzzerConfig::mufuzz(50_000)
///     .with_rng_seed(7)
///     .with_workers(4)
///     .with_corpus_culling(64);
/// assert_eq!(config.budget.max_executions, 50_000);
/// assert_eq!(config.workers, 4);
/// assert_eq!(config.scheduler.corpus_cull_interval, Some(64));
/// // Ablations switch one component off at a time.
/// assert!(!config.without_mask_guidance().enable_mask_guidance);
/// ```
#[derive(Clone, Debug)]
pub struct FuzzerConfig {
    /// RNG seed: a campaign is fully deterministic for a given seed at any
    /// worker count.
    pub rng_seed: u64,
    /// Number of worker lanes running the mutate→execute→evaluate loop.
    /// Defaults to the machine's available parallelism. With `workers == 1`
    /// the free-running campaign is bit-for-bit identical to the historical
    /// single-threaded engine for a given `rng_seed`; more workers run
    /// rounds, whose report is the same at every worker count.
    pub workers: usize,
    /// Stopping conditions (execution and wall-clock budgets).
    pub budget: BudgetConfig,
    /// Seed-scheduler tuning: corpus culling, base energy and round shape.
    pub scheduler: SchedulerConfig,
    /// The engine of a one-lane campaign; `workers > 1` always runs rounds.
    pub determinism: DeterminismProfile,
    /// Use the data-flow-derived transaction ordering and RAW-based sequence
    /// repetition. When disabled, sequences are randomly ordered.
    pub enable_sequence_aware: bool,
    /// Allow the RAW-based *repetition* of critical transactions within the
    /// planned ordering. Disabling this while keeping `enable_sequence_aware`
    /// models data-dependency fuzzers (ConFuzzius/Smartian) that order but
    /// never repeat transactions.
    pub enable_sequence_repetition: bool,
    /// Use the mutation mask (Algorithm 1/2). When disabled, every byte is
    /// mutable and mutation sites are chosen uniformly.
    pub enable_mask_guidance: bool,
    /// Use dynamic branch-weighted energy allocation (Algorithm 3). When
    /// disabled, every selected seed receives the same energy.
    pub enable_dynamic_energy: bool,
    /// Use branch-distance feedback for seed selection (on in MuFuzz and the
    /// sFuzz-style baselines).
    pub enable_branch_distance: bool,
    /// Harvest `PUSH` constants from the contract bytecode into the
    /// interesting-value pool (MuFuzz, ConFuzzius and IR-Fuzz style tools do
    /// this through their static/symbolic components; plain AFL-style fuzzers
    /// such as sFuzz use a fixed boundary-value pool only).
    pub harvest_constants: bool,
    /// Number of externally-owned sender accounts in the fuzzing world.
    pub sender_count: usize,
    /// How many initial seeds to generate from the sequence plan.
    pub initial_seeds: usize,
    /// How many coverage snapshots to keep for the coverage-over-time curve.
    pub timeline_points: usize,
    /// Install a re-entrant attacker account in the fuzzing world so the
    /// reentrancy oracle can observe actual re-entrant executions.
    pub install_attacker: bool,
    /// Install a rejecting sink account so failing external calls can be
    /// observed (exercises the unhandled-exception oracle).
    pub install_rejecting_sink: bool,
    /// Execute through the block-lowered interpreter fast path (per-block
    /// static gas and stack validation, fused superinstructions, direct
    /// threaded dispatch). On by default; execution is bit-identical either
    /// way, so turning it off selects the pre-decoded reference tier for the
    /// decoder differential suite and A/B throughput comparisons. Maps to
    /// `EvmConfig::block_lowering`.
    pub block_lowering: bool,
}

impl Default for FuzzerConfig {
    fn default() -> Self {
        FuzzerConfig {
            rng_seed: 0x5EED,
            workers: default_workers(),
            budget: BudgetConfig::default(),
            scheduler: SchedulerConfig::default(),
            determinism: DeterminismProfile::FreeRunning,
            enable_sequence_aware: true,
            enable_sequence_repetition: true,
            enable_mask_guidance: true,
            enable_dynamic_energy: true,
            enable_branch_distance: true,
            harvest_constants: true,
            sender_count: 3,
            initial_seeds: 8,
            timeline_points: 64,
            install_attacker: true,
            install_rejecting_sink: true,
            block_lowering: true,
        }
    }
}

impl FuzzerConfig {
    /// Full MuFuzz configuration with a given budget.
    pub fn mufuzz(max_executions: usize) -> Self {
        FuzzerConfig {
            budget: BudgetConfig {
                max_executions,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The execution budget (shorthand for `self.budget.max_executions`).
    pub fn max_executions(&self) -> usize {
        self.budget.max_executions
    }

    /// The wall-clock budget (shorthand for `self.budget.time_budget_ms`).
    pub fn time_budget_ms(&self) -> Option<u64> {
        self.budget.time_budget_ms
    }

    /// Whether the campaign runs barrier-synchronized rounds: under the
    /// round profile, and whenever `workers > 1`.
    pub fn round_mode(&self) -> bool {
        self.determinism == DeterminismProfile::Round || self.workers > 1
    }

    /// The corpus-culling interval actually in effect: an explicit setting
    /// wins; otherwise round mode culls at [`DEFAULT_ROUND_CULL_INTERVAL`]
    /// and the free-running lane leaves culling off (see
    /// [`SchedulerConfig::corpus_cull_interval`]).
    pub fn effective_cull_interval(&self) -> Option<usize> {
        match self.scheduler.corpus_cull_interval {
            Some(every) => Some(every),
            None if self.round_mode() => Some(DEFAULT_ROUND_CULL_INTERVAL),
            None => None,
        }
    }

    /// Ablation: disable the sequence-aware mutation only.
    pub fn without_sequence_aware(mut self) -> Self {
        self.enable_sequence_aware = false;
        self
    }

    /// Keep the data-flow ordering but disable transaction repetition
    /// (models ConFuzzius/Smartian-style sequence handling).
    pub fn without_sequence_repetition(mut self) -> Self {
        self.enable_sequence_repetition = false;
        self
    }

    /// Ablation: disable the mask-guided seed mutation only.
    pub fn without_mask_guidance(mut self) -> Self {
        self.enable_mask_guidance = false;
        self
    }

    /// Ablation: disable the dynamic energy adjustment only.
    pub fn without_dynamic_energy(mut self) -> Self {
        self.enable_dynamic_energy = false;
        self
    }

    /// Set the RNG seed (builder style).
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Set the wall-clock budget (builder style).
    pub fn with_time_budget_ms(mut self, ms: u64) -> Self {
        self.budget.time_budget_ms = Some(ms);
        self
    }

    /// Set the number of worker lanes (builder style). Clamped to at
    /// least one; more than one runs rounds.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Choose the interpreter tier (builder style): `true` (the default)
    /// executes through the block-lowered fast path, `false` restores
    /// instruction-at-a-time billing over the pre-decoded stream. Both
    /// tiers halt, trace and bill identically; the knob exists for the
    /// decoder differential suite and A/B throughput comparisons.
    pub fn with_block_lowering(mut self, block_lowering: bool) -> Self {
        self.block_lowering = block_lowering;
        self
    }

    /// Enable periodic corpus culling (builder style): every `admissions`
    /// corpus admissions, dominated seeds — covered edges a subset of another
    /// seed's, branch-distance score no better — are dropped. Clamped to at
    /// least one. See [`SchedulerConfig::corpus_cull_interval`] for why this
    /// is off by default.
    pub fn with_corpus_culling(mut self, admissions: usize) -> Self {
        self.scheduler.corpus_cull_interval = Some(admissions.max(1));
        self
    }

    /// Pin corpus culling off (builder style), overriding the round-mode
    /// default. Implemented as an explicit interval that can never elapse,
    /// so [`FuzzerConfig::effective_cull_interval`] still reports the
    /// explicit choice.
    pub fn without_corpus_culling(mut self) -> Self {
        self.scheduler.corpus_cull_interval = Some(usize::MAX);
        self
    }

    /// Select the determinism profile (builder style): the engine of a
    /// one-lane campaign.
    pub fn with_determinism(mut self, profile: DeterminismProfile) -> Self {
        self.determinism = profile;
        self
    }

    /// Run the campaign in barrier-synchronized round mode (builder style):
    /// bit-identical reports, corpus and findings at any worker count. See
    /// [`DeterminismProfile::Round`].
    pub fn with_round_mode(mut self) -> Self {
        self.determinism = DeterminismProfile::Round;
        self
    }

    /// Set how many mutant slots each round schedules (builder style).
    /// Clamped to at least one.
    pub fn with_round_slots(mut self, slots: usize) -> Self {
        self.scheduler.round_slots = slots.max(1);
        self
    }

    /// Set how many executions one round slot performs (builder style).
    /// Clamped to at least one.
    pub fn with_round_batch(mut self, executions: usize) -> Self {
        self.scheduler.round_batch = executions.max(1);
        self
    }
}

/// The default worker count: the machine's available parallelism (1 when it
/// cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_components() {
        let cfg = FuzzerConfig::default();
        assert!(cfg.enable_sequence_aware);
        assert!(cfg.enable_mask_guidance);
        assert!(cfg.enable_dynamic_energy);
        assert!(cfg.enable_branch_distance);
    }

    #[test]
    fn ablation_builders_disable_one_component_each() {
        let a = FuzzerConfig::mufuzz(100).without_sequence_aware();
        assert!(!a.enable_sequence_aware && a.enable_mask_guidance && a.enable_dynamic_energy);
        let b = FuzzerConfig::mufuzz(100).without_mask_guidance();
        assert!(b.enable_sequence_aware && !b.enable_mask_guidance && b.enable_dynamic_energy);
        let c = FuzzerConfig::mufuzz(100).without_dynamic_energy();
        assert!(c.enable_sequence_aware && c.enable_mask_guidance && !c.enable_dynamic_energy);
    }

    #[test]
    fn builders_chain() {
        let cfg = FuzzerConfig::mufuzz(500)
            .with_rng_seed(42)
            .with_time_budget_ms(1_000)
            .with_workers(4);
        assert_eq!(cfg.budget.max_executions, 500);
        assert_eq!(cfg.max_executions(), 500);
        assert_eq!(cfg.rng_seed, 42);
        assert_eq!(cfg.budget.time_budget_ms, Some(1_000));
        assert_eq!(cfg.time_budget_ms(), Some(1_000));
        assert_eq!(cfg.workers, 4);
    }

    #[test]
    fn worker_count_defaults_to_parallelism_and_clamps_to_one() {
        assert_eq!(FuzzerConfig::default().workers, default_workers());
        assert!(default_workers() >= 1);
        assert_eq!(FuzzerConfig::mufuzz(10).with_workers(0).workers, 1);
    }

    #[test]
    fn block_lowering_defaults_on_and_toggles() {
        assert!(FuzzerConfig::default().block_lowering);
        let off = FuzzerConfig::mufuzz(10).with_block_lowering(false);
        assert!(!off.block_lowering);
        assert!(off.with_block_lowering(true).block_lowering);
    }

    #[test]
    fn corpus_culling_is_opt_in_and_clamps_to_one() {
        assert_eq!(FuzzerConfig::default().scheduler.corpus_cull_interval, None);
        let cfg = FuzzerConfig::mufuzz(10).with_corpus_culling(0);
        assert_eq!(cfg.scheduler.corpus_cull_interval, Some(1));
        let cfg = FuzzerConfig::mufuzz(10).with_corpus_culling(32);
        assert_eq!(cfg.scheduler.corpus_cull_interval, Some(32));
    }

    #[test]
    fn determinism_defaults_free_running_and_round_mode_toggles() {
        let cfg = FuzzerConfig::default().with_workers(1);
        assert_eq!(cfg.determinism, DeterminismProfile::FreeRunning);
        assert!(!cfg.round_mode());
        // More than one worker runs rounds under either profile.
        assert!(cfg.clone().with_workers(2).round_mode());
        let round = FuzzerConfig::mufuzz(10).with_workers(1).with_round_mode();
        assert!(round.round_mode());
        let back = round.with_determinism(DeterminismProfile::FreeRunning);
        assert!(!back.round_mode());
    }

    #[test]
    fn round_geometry_defaults_and_clamps() {
        let cfg = FuzzerConfig::default();
        assert_eq!(cfg.scheduler.round_slots, 8);
        assert_eq!(cfg.scheduler.round_batch, 64);
        let cfg = FuzzerConfig::mufuzz(10)
            .with_round_slots(0)
            .with_round_batch(0);
        assert_eq!(cfg.scheduler.round_slots, 1);
        assert_eq!(cfg.scheduler.round_batch, 1);
        let cfg = FuzzerConfig::mufuzz(10)
            .with_round_slots(3)
            .with_round_batch(16);
        assert_eq!(cfg.scheduler.round_slots, 3);
        assert_eq!(cfg.scheduler.round_batch, 16);
    }

    #[test]
    fn effective_cull_interval_is_profile_aware() {
        // One free-running lane, unset: culling stays off.
        assert_eq!(
            FuzzerConfig::default()
                .with_workers(1)
                .effective_cull_interval(),
            None
        );
        // Several workers run rounds, so culling defaults on.
        assert_eq!(
            FuzzerConfig::mufuzz(10)
                .with_workers(2)
                .effective_cull_interval(),
            Some(DEFAULT_ROUND_CULL_INTERVAL)
        );
        // Round mode, unset: culling defaults on.
        assert_eq!(
            FuzzerConfig::mufuzz(10)
                .with_round_mode()
                .effective_cull_interval(),
            Some(DEFAULT_ROUND_CULL_INTERVAL)
        );
        // An explicit interval wins in either profile.
        assert_eq!(
            FuzzerConfig::mufuzz(10)
                .with_round_mode()
                .with_corpus_culling(7)
                .effective_cull_interval(),
            Some(7)
        );
        // `without_corpus_culling` pins the never-elapsing sentinel even
        // under round mode.
        assert_eq!(
            FuzzerConfig::mufuzz(10)
                .with_round_mode()
                .without_corpus_culling()
                .effective_cull_interval(),
            Some(usize::MAX)
        );
    }
}
