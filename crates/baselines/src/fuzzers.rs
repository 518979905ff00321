//! Baseline fuzzing strategies.
//!
//! The paper compares MuFuzz against sFuzz, ConFuzzius, Smartian and IR-Fuzz
//! (§V-A). We re-implement each tool's *strategy* on top of the shared
//! EVM/compiler substrate, so differences in the results isolate exactly the
//! algorithmic choices the paper attributes its gains to:
//!
//! | Tool            | sequence ordering | repetition | mask | distance | energy |
//! |-----------------|-------------------|------------|------|----------|--------|
//! | sFuzz-like      | random            | no         | no   | yes      | fixed  |
//! | ConFuzzius-like | data-flow         | no         | no   | yes      | fixed  |
//! | Smartian-like   | data-flow         | no         | no   | no       | fixed  |
//! | IR-Fuzz-like    | data-flow         | yes        | no   | yes      | dynamic|
//! | MuFuzz          | data-flow         | yes        | yes  | yes      | dynamic|

use mufuzz::{CampaignHandle, CampaignReport, CampaignService, Fuzzer, FuzzerConfig, HarnessError};
use mufuzz_lang::CompiledContract;

/// One campaign request: the budget, the RNG seed and the lane count.
///
/// A request is strategy-agnostic — the [`FuzzingStrategy`] supplies the
/// configuration, the request supplies the per-run knobs. Every request is
/// deterministic for a given seed.
#[derive(Clone, Copy, Debug)]
pub struct FuzzRequest {
    /// Execution budget (`FuzzerConfig::max_executions()`).
    pub budget: usize,
    /// Campaign RNG seed.
    pub rng_seed: u64,
    /// Campaign lanes (`FuzzerConfig::workers`). One lane (the default) runs
    /// the free-running sequential engine; more lanes run barrier-synchronized
    /// rounds, which give the same result at every lane count above one.
    /// Experiments get their parallelism by submitting many one-lane
    /// campaigns to one [`CampaignService`] instead.
    pub lanes: usize,
}

impl FuzzRequest {
    /// A single-lane request.
    pub fn new(budget: usize, rng_seed: u64) -> FuzzRequest {
        FuzzRequest {
            budget,
            rng_seed,
            lanes: 1,
        }
    }

    /// Set the lane count. More than one lane runs the campaign in rounds.
    pub fn with_lanes(mut self, lanes: usize) -> FuzzRequest {
        self.lanes = lanes.max(1);
        self
    }
}

/// A named fuzzing strategy that can be run on a compiled contract.
///
/// Strategies are stateless descriptions (the RNG seed is passed per run), so
/// they are `Send + Sync` and experiments can fan campaigns out over a
/// [`CampaignService`].
pub trait FuzzingStrategy: Send + Sync {
    /// Display name used in tables and figures.
    fn name(&self) -> &'static str;

    /// The configuration this strategy uses for a given budget and RNG seed.
    fn config(&self, max_executions: usize, rng_seed: u64) -> FuzzerConfig;

    /// Run one campaign to completion on the calling thread.
    fn fuzz(
        &self,
        compiled: CompiledContract,
        req: &FuzzRequest,
    ) -> Result<CampaignReport, HarnessError> {
        let config = self
            .config(req.budget, req.rng_seed)
            .with_workers(req.lanes);
        let mut fuzzer = Fuzzer::new(compiled, config)?;
        Ok(fuzzer.run())
    }

    /// Submit one campaign to a shared [`CampaignService`] without blocking;
    /// the returned handle yields the report. This is how experiments fan
    /// many contracts out over one pool.
    fn submit(
        &self,
        service: &CampaignService,
        compiled: CompiledContract,
        req: &FuzzRequest,
    ) -> Result<CampaignHandle, HarnessError> {
        let config = self
            .config(req.budget, req.rng_seed)
            .with_workers(req.lanes);
        service.submit(compiled, config)
    }
}

/// The full MuFuzz system.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuFuzzStrategy;

impl FuzzingStrategy for MuFuzzStrategy {
    fn name(&self) -> &'static str {
        "MuFuzz"
    }

    fn config(&self, max_executions: usize, rng_seed: u64) -> FuzzerConfig {
        FuzzerConfig::mufuzz(max_executions).with_rng_seed(rng_seed)
    }
}

/// sFuzz-style baseline: random transaction ordering, AFL-style unrestricted
/// mutation, branch-distance seed selection, fixed energy.
#[derive(Clone, Copy, Debug, Default)]
pub struct SFuzzStrategy;

impl FuzzingStrategy for SFuzzStrategy {
    fn name(&self) -> &'static str {
        "sFuzz"
    }

    fn config(&self, max_executions: usize, rng_seed: u64) -> FuzzerConfig {
        let mut config = FuzzerConfig::mufuzz(max_executions)
            .with_rng_seed(rng_seed)
            .without_sequence_aware()
            .without_mask_guidance()
            .without_dynamic_energy();
        // sFuzz mutates with AFL's fixed interesting values; it has no
        // component that extracts comparison constants from the contract.
        config.harvest_constants = false;
        config
    }
}

/// ConFuzzius-style baseline: data-dependency transaction ordering (but no
/// consecutive repetition), unrestricted mutation, branch-distance feedback.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConFuzziusStrategy;

impl FuzzingStrategy for ConFuzziusStrategy {
    fn name(&self) -> &'static str {
        "ConFuzzius"
    }

    fn config(&self, max_executions: usize, rng_seed: u64) -> FuzzerConfig {
        FuzzerConfig::mufuzz(max_executions)
            .with_rng_seed(rng_seed)
            .without_sequence_repetition()
            .without_mask_guidance()
            .without_dynamic_energy()
    }
}

/// Smartian-style baseline: static + dynamic data-flow ordering, no branch
/// distance feedback, no repetition, no masking.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmartianStrategy;

impl FuzzingStrategy for SmartianStrategy {
    fn name(&self) -> &'static str {
        "Smartian"
    }

    fn config(&self, max_executions: usize, rng_seed: u64) -> FuzzerConfig {
        let mut config = FuzzerConfig::mufuzz(max_executions)
            .with_rng_seed(rng_seed)
            .without_sequence_repetition()
            .without_mask_guidance()
            .without_dynamic_energy();
        config.enable_branch_distance = false;
        config
    }
}

/// IR-Fuzz-style baseline: invocation ordering with prolongation (repetition)
/// and branch-revisiting energy, but no mutation masking.
#[derive(Clone, Copy, Debug, Default)]
pub struct IrFuzzStrategy;

impl FuzzingStrategy for IrFuzzStrategy {
    fn name(&self) -> &'static str {
        "IR-Fuzz"
    }

    fn config(&self, max_executions: usize, rng_seed: u64) -> FuzzerConfig {
        FuzzerConfig::mufuzz(max_executions)
            .with_rng_seed(rng_seed)
            .without_mask_guidance()
    }
}

/// The four baseline fuzzers the coverage figures compare against, in the
/// order the paper plots them.
pub fn coverage_baselines() -> Vec<Box<dyn FuzzingStrategy>> {
    vec![
        Box::new(MuFuzzStrategy),
        Box::new(IrFuzzStrategy),
        Box::new(ConFuzziusStrategy),
        Box::new(SFuzzStrategy),
    ]
}

/// All fuzzing strategies, including Smartian (which the paper only compares
/// on bug finding because it reports no branch coverage).
pub fn all_fuzzers() -> Vec<Box<dyn FuzzingStrategy>> {
    vec![
        Box::new(MuFuzzStrategy),
        Box::new(IrFuzzStrategy),
        Box::new(SmartianStrategy),
        Box::new(ConFuzziusStrategy),
        Box::new(SFuzzStrategy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_corpus::contracts;
    use mufuzz_lang::compile_source;

    #[test]
    fn strategy_configs_differ_as_documented() {
        let sfuzz = SFuzzStrategy.config(100, 1);
        assert!(!sfuzz.enable_sequence_aware && !sfuzz.enable_mask_guidance);
        assert!(sfuzz.enable_branch_distance);

        let confuzzius = ConFuzziusStrategy.config(100, 1);
        assert!(confuzzius.enable_sequence_aware && !confuzzius.enable_sequence_repetition);

        let smartian = SmartianStrategy.config(100, 1);
        assert!(!smartian.enable_branch_distance);

        let irfuzz = IrFuzzStrategy.config(100, 1);
        assert!(irfuzz.enable_sequence_repetition && !irfuzz.enable_mask_guidance);
        assert!(irfuzz.enable_dynamic_energy);

        let mufuzz = MuFuzzStrategy.config(100, 1);
        assert!(mufuzz.enable_mask_guidance && mufuzz.enable_sequence_repetition);
    }

    #[test]
    fn all_strategies_run_on_the_crowdsale_contract() {
        let source = contracts::crowdsale().source;
        for strategy in all_fuzzers() {
            let compiled = compile_source(&source).unwrap();
            let report = strategy.fuzz(compiled, &FuzzRequest::new(120, 9)).unwrap();
            assert!(
                report.covered_edges > 0,
                "{} covered nothing",
                strategy.name()
            );
        }
    }

    #[test]
    fn mufuzz_matches_or_beats_sfuzz_on_the_motivating_example() {
        let source = contracts::crowdsale().source;
        let req = FuzzRequest::new(400, 21);
        let mufuzz = MuFuzzStrategy
            .fuzz(compile_source(&source).unwrap(), &req)
            .unwrap();
        let sfuzz = SFuzzStrategy
            .fuzz(compile_source(&source).unwrap(), &req)
            .unwrap();
        assert!(
            mufuzz.covered_edges >= sfuzz.covered_edges,
            "MuFuzz {} < sFuzz {}",
            mufuzz.covered_edges,
            sfuzz.covered_edges
        );
    }
}
