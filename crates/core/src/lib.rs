//! # mufuzz
//!
//! A reproduction of **MuFuzz: Sequence-Aware Mutation and Seed Mask Guidance
//! for Blockchain Smart Contract Fuzzing** (ICDE 2024).
//!
//! MuFuzz is a coverage-guided greybox fuzzer for Ethereum smart contracts
//! built around three components:
//!
//! 1. **Sequence-aware mutation** (§IV-A) — transaction orderings derived from
//!    state-variable data flow, with RAW-based repetition of critical
//!    transactions ([`seedgen`], [`mufuzz_analysis::plan_sequence`]).
//! 2. **Mask-guided seed mutation** (§IV-B) — branch-distance seed selection
//!    plus a per-position mutation mask that freezes the input bytes critical
//!    for reaching deeply nested branches ([`mutation`], Algorithm 1/2).
//! 3. **Dynamic-adaptive energy adjustment** (§IV-C) — branch-weighted energy
//!    allocation from a pre-fuzz path analysis ([`energy`], Algorithm 3).
//!
//! Bugs are reported through the nine trace-based oracles of
//! [`mufuzz_oracles`].
//!
//! Campaigns run in **fleet mode**: a [`CampaignService`] schedules every
//! submitted contract's campaign — as [`FuzzerConfig::workers`] sequential
//! *lanes* — on one thread pool with a single FIFO run queue, where the
//! lanes of every campaign take turns a short slice of batches at a time.
//! Lanes share one corpus and energy scheduler per campaign (see
//! [`campaign`]); branch coverage is
//! merged into a lock-free atomic bitmap ([`coverage::CoverageMap`]) keyed
//! by the dense edge ids of [`mufuzz_analysis::EdgeIndex`], and the
//! execution budget is exact, so `report.executions` never exceeds
//! `max_executions()`.
//!
//! There is one engine per lane count, and every campaign is deterministic
//! for its `rng_seed`. A one-lane campaign (`workers == 1`) is the
//! free-running sequential engine. Every campaign with more lanes — and a
//! one-lane campaign under [`DeterminismProfile::Round`] — advances in
//! barrier-synchronized rounds of fixed work slots: any worker count
//! produces the bit-identical report, corpus and findings, and each finding
//! carries a replayable [`FindingRecord`] ([`replay_finding`]). Either way a
//! campaign can be paused, checkpointed to a versioned [`CampaignSnapshot`]
//! and resumed bit-identically. The full concurrency model is documented in
//! `docs/ARCHITECTURE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use mufuzz::{Fuzzer, FuzzerConfig};
//! use mufuzz_lang::compile_source;
//!
//! let compiled = compile_source(
//!     "contract Counter {
//!          uint256 total;
//!          function add(uint256 x) public { total += x; }
//!          function check() public { if (total > 100) { bug(); } }
//!      }",
//! )
//! .unwrap();
//!
//! let mut fuzzer = Fuzzer::new(compiled, FuzzerConfig::mufuzz(200)).unwrap();
//! let report = fuzzer.run();
//! assert!(report.coverage > 0.0);
//! assert!(report.executions <= 200); // exact budget, at any worker count
//! println!("covered {}/{} branch edges", report.covered_edges, report.total_edges);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub mod coverage;
pub mod energy;
pub mod executor;
mod fleet;
pub mod input;
pub mod mutation;
mod prefix;
pub mod replay;
mod round;
pub mod seedgen;
pub mod service;
pub mod snapshot;

pub use campaign::{CampaignReport, CoveragePoint, Fuzzer};
pub use config::{
    default_workers, BudgetConfig, DeterminismProfile, FuzzerConfig, SchedulerConfig,
    DEFAULT_ROUND_CULL_INTERVAL,
};
pub use coverage::{CoverageMap, LocalCoverage};
pub use executor::{ContractHarness, HarnessError, SequenceOutcome};
pub use fleet::pool_threads_spawned;
pub use input::{Seed, Sequence, TxInput};
pub use mutation::{InterestingValues, MutationMask, MutationOp};
pub use replay::{replay_finding, FindingRecord, ReplayError, ReplayOutcome};
pub use seedgen::SequenceGenerator;
pub use service::{
    CampaignEvent, CampaignHandle, CampaignProgress, CampaignService, SubmitOptions,
};
pub use snapshot::{CampaignSnapshot, SnapshotError};

// Re-export the sibling crates so downstream users can depend on `mufuzz`
// alone.
pub use mufuzz_analysis as analysis;
pub use mufuzz_evm as evm;
pub use mufuzz_lang as lang;
pub use mufuzz_oracles as oracles;

/// Everything a driver needs in one import: the fuzzer, the campaign
/// service, configuration, reports, snapshots, and the compiler entry
/// point.
pub mod prelude {
    pub use crate::campaign::{CampaignReport, CoveragePoint, Fuzzer};
    pub use crate::config::{
        default_workers, BudgetConfig, DeterminismProfile, FuzzerConfig, SchedulerConfig,
    };
    pub use crate::replay::{replay_finding, FindingRecord, ReplayError, ReplayOutcome};
    pub use crate::service::{
        CampaignEvent, CampaignHandle, CampaignProgress, CampaignService, SubmitOptions,
    };
    pub use crate::snapshot::{CampaignSnapshot, SnapshotError};
    pub use mufuzz_lang::{compile_source, CompiledContract};
    pub use mufuzz_oracles::{BugClass, BugFinding};
}
