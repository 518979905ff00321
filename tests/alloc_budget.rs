//! Heap allocations per steady-state execution, counted.
//!
//! A counting global allocator tallies every allocation this test binary
//! makes, so the binary holds a single test: nothing else allocates while it
//! runs. Two one-worker campaigns with the same seed and budgets `B1 < B2`
//! share their set-up and seeding prologue, so the difference of their
//! counts over `B2 - B1` is what one execution of the steady-state loop
//! allocates: mutating, executing, observing and merging a candidate that
//! is mostly not admitted.
//!
//! The counts are deterministic (one lane, a fixed seed), and the ceilings
//! sit a little above the measured values: a change that adds an allocation
//! to every execution fails here.

use mufuzz::{Fuzzer, FuzzerConfig};
use mufuzz_lang::compile_source;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The paper's running example (Fig. 1).
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

const B1: usize = 1_000;
const B2: usize = 3_000;

/// Ceilings on allocations per execution, set from the measured 6.39
/// (free-running) and 6.22 (round mode) plus a little headroom. Before the
/// lane reused its mutant, outcome and interpreter buffers the same
/// campaigns measured 48.01 and 51.66; since probes and mutants resume from
/// their seed's prefix record they measured 5.10 and 5.27, and since a lane
/// boxes one pool task per slice of batches instead of one per batch they
/// measure 5.00 and 5.26.
const FREE_RUNNING_CEILING: f64 = 7.0;
const ROUND_MODE_CEILING: f64 = 7.0;

/// Allocations made by one campaign of `config`, set-up excluded.
fn campaign_allocations(config: FuzzerConfig) -> u64 {
    let budget = config.max_executions();
    let mut fuzzer = Fuzzer::new(compile_source(CROWDSALE).unwrap(), config).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = fuzzer.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.executions, budget);
    allocations
}

/// Allocations per execution between budgets `B1` and `B2`, after checking
/// that the larger campaign's count repeats exactly.
fn per_execution(config: impl Fn(usize) -> FuzzerConfig) -> f64 {
    let small = campaign_allocations(config(B1));
    let large = campaign_allocations(config(B2));
    assert_eq!(
        campaign_allocations(config(B2)),
        large,
        "a seeded one-lane campaign allocates the same every run"
    );
    (large - small) as f64 / (B2 - B1) as f64
}

#[test]
fn steady_state_executions_allocate_almost_nothing() {
    let config = |budget| {
        FuzzerConfig::mufuzz(budget)
            .with_rng_seed(11)
            .with_workers(1)
    };
    let free_running = per_execution(config);
    let round_mode = per_execution(|budget| config(budget).with_round_mode());
    println!(
        "allocations per execution: free-running {free_running:.2}, round mode {round_mode:.2}"
    );
    // What is left is mostly the world state: each execution copies the
    // accounts its transactions write into a fresh overlay and journal.
    assert!(
        free_running <= FREE_RUNNING_CEILING,
        "free-running: {free_running:.2} allocations per execution"
    );
    assert!(
        round_mode <= ROUND_MODE_CEILING,
        "round mode: {round_mode:.2} allocations per execution"
    );
}
