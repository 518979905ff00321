//! The three workloads and the inputs each one builds from the seed.
//!
//! Every workload is a closed-loop batch job: the benchmark hands out every
//! campaign up front and waits for all of them. The seed picks every
//! campaign's `rng_seed` and the D1 sweep's generated contracts; the fuzzer
//! only ever sees the generated source text and configuration.

use mufuzz::FuzzerConfig;
use mufuzz_corpus::{d1_large, d2, generate_contract, BenchContract, GeneratorConfig};

/// D1 contracts per repetition: small and large at about 2:1.
const D1_SMALL: usize = 192;
const D1_LARGE: usize = 96;
/// fig5's default budgets: large contracts get twice the small budget.
const D1_SMALL_BUDGET: usize = 400;
const D1_LARGE_BUDGET: usize = 800;
/// Generated D2 contracts per bug class (on top of the 12 hand-written ones).
const D2_GENERATED_PER_CLASS: usize = 1;
/// Executions per D2 campaign: long enough that steady state dominates.
const D2_BUDGET: usize = 10_000;
/// Campaigns per D2 contract, each with its own `rng_seed`. A seed's
/// campaign path sets a D2 campaign's cost (one contract's campaign took
/// 108–688 ms across four seeds, and the set's total 3.4–4.5 s), so a
/// repetition averages several paths per contract.
const D2_PATHS: usize = 3;
/// One-contract campaigns per repetition, run one after another, and the
/// executions of each. A seed's campaign path sets its cost per execution
/// (transactions per execution differed by 15% between two seeds) and its
/// coverage (with eight campaigns a repetition's mean still ranged 53–58%
/// over ten seeds), so a repetition averages many paths.
const ONE_CONTRACT_CAMPAIGNS: usize = 16;
const ONE_CONTRACT_BUDGET: usize = 40_000;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A few hundred seed-generated D1 contracts, one short single-lane
    /// campaign each: the paper's coverage-benchmark traffic.
    D1Sweep,
    /// The D2 vulnerability set, several long single-lane campaigns per
    /// contract, scored against the contracts' annotations.
    D2Detect,
    /// One D1-large contract fuzzed by long round-mode campaigns, each with
    /// a lane per core. The contract is the D1-large dataset's first, not a
    /// seed-picked one: across five seed-picked contracts execs/sec ranged
    /// 38k–211k and coverage 45–85%, a spread no bound could hold.
    OneContract,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::D1Sweep, Workload::D2Detect, Workload::OneContract];

    pub fn name(self) -> &'static str {
        match self {
            Workload::D1Sweep => "d1-sweep",
            Workload::D2Detect => "d2-detect",
            Workload::OneContract => "one-contract",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaigns of one repetition of this workload.
    pub fn campaigns(self, seed: u64, nproc: usize) -> Vec<Campaign> {
        match self {
            Workload::D1Sweep => {
                let mut small = (0..D1_SMALL).map(|i| {
                    let gen = GeneratorConfig::small(mix(seed, i as u64));
                    Campaign::new(
                        generate_contract(&format!("D1Small{i}"), &gen),
                        single_lane(D1_SMALL_BUDGET, mix(seed, 0x5EED_0000 + i as u64)),
                    )
                });
                let mut large = (0..D1_LARGE).map(|i| {
                    let gen = GeneratorConfig::large(mix(seed, 0x1A46_0000 + i as u64));
                    Campaign::new(
                        generate_contract(&format!("D1Large{i}"), &gen),
                        single_lane(D1_LARGE_BUDGET, mix(seed, 0x5EED_1A46_0000 + i as u64)),
                    )
                });
                // Interleave two small with one large so the pool never ends
                // on a run of large campaigns.
                let mut out = Vec::with_capacity(D1_SMALL + D1_LARGE);
                loop {
                    let before = out.len();
                    out.extend(small.next());
                    out.extend(small.next());
                    out.extend(large.next());
                    if out.len() == before {
                        break out;
                    }
                }
            }
            Workload::D2Detect => {
                // Path-major order: each pass covers every contract once,
                // so the pool ends on one contract's campaign, not three.
                let contracts = d2(D2_GENERATED_PER_CLASS).contracts;
                let mut out = Vec::with_capacity(D2_PATHS * contracts.len());
                for _ in 0..D2_PATHS {
                    for contract in &contracts {
                        let rng_seed = mix(seed, out.len() as u64);
                        out.push(Campaign::new(
                            contract.clone(),
                            single_lane(D2_BUDGET, rng_seed),
                        ));
                    }
                }
                out
            }
            Workload::OneContract => {
                let contract = d1_large(1).contracts.remove(0);
                (0..ONE_CONTRACT_CAMPAIGNS)
                    .map(|i| {
                        let config = FuzzerConfig::mufuzz(ONE_CONTRACT_BUDGET)
                            .with_rng_seed(mix(seed, i as u64))
                            .with_workers(nproc)
                            .with_round_mode();
                        Campaign::new(contract.clone(), config)
                    })
                    .collect()
            }
        }
    }
}

/// One campaign: a contract's source, its ground-truth annotations and the
/// fuzzer configuration.
#[derive(Clone)]
pub struct Campaign {
    pub contract: BenchContract,
    pub config: FuzzerConfig,
}

impl Campaign {
    fn new(contract: BenchContract, config: FuzzerConfig) -> Campaign {
        Campaign { contract, config }
    }

    /// Worker lanes this campaign runs.
    pub fn lanes(&self) -> usize {
        self.config.workers
    }
}

/// A free-running single-lane campaign: deterministic for its `rng_seed`.
fn single_lane(budget: usize, rng_seed: u64) -> FuzzerConfig {
    FuzzerConfig::mufuzz(budget)
        .with_rng_seed(rng_seed)
        .with_workers(1)
}

/// SplitMix64 over the workload seed and a per-input salt: decorrelated
/// generator and campaign seeds from one benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
