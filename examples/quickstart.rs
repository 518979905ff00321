//! Quickstart: compile a small contract from source, fuzz it with MuFuzz and
//! print the campaign report.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use mufuzz::{Fuzzer, FuzzerConfig};
use mufuzz_lang::compile_source;

const SOURCE: &str = r#"
contract PiggyBank {
    address owner;
    uint256 total;
    mapping(address => uint256) deposits;

    constructor() public { owner = msg.sender; }

    function deposit() public payable {
        require(msg.value > 0);
        deposits[msg.sender] += msg.value;
        total += msg.value;
    }

    function withdraw(uint256 amount) public {
        require(deposits[msg.sender] >= amount);
        deposits[msg.sender] -= amount;
        total -= amount;
        msg.sender.transfer(amount);
    }

    function smash() public {
        if (total > 10 ether) {
            bug();
            selfdestruct(msg.sender);
        }
    }
}
"#;

fn main() {
    // 1. Compile: source -> bytecode + ABI + AST (the three artefacts MuFuzz
    //    consumes).
    let compiled = compile_source(SOURCE).expect("contract should compile");
    println!(
        "compiled `{}`: {} instructions, {} public functions",
        compiled.name,
        compiled.instruction_count(),
        compiled.abi.functions.len()
    );

    // 2. Fuzz with the full MuFuzz configuration for 1,000 sequence
    //    executions on one worker, the free-running sequential engine: the
    //    same seed prints the same report on any machine. `MUFUZZ_WORKERS`
    //    overrides the worker count; more than one worker runs
    //    barrier-synchronized rounds, which print one (different) report at
    //    every worker count above one.
    let workers = std::env::var("MUFUZZ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let config = FuzzerConfig::mufuzz(1_000)
        .with_rng_seed(42)
        .with_workers(workers);
    let mut fuzzer = Fuzzer::new(compiled, config).expect("deployment should succeed");
    let report = fuzzer.run();

    // 3. Inspect the results.
    println!(
        "coverage: {:.1}% ({} of {} branch edges) after {} executions in {} ms \
         ({:.0} execs/sec on {} worker(s))",
        report.coverage_percent(),
        report.covered_edges,
        report.total_edges,
        report.executions,
        report.elapsed_ms,
        report.execs_per_sec(),
        report.workers
    );
    println!("corpus size: {} seeds", report.corpus_size);
    if report.findings.is_empty() {
        println!("no vulnerabilities reported");
    } else {
        println!("findings:");
        for finding in &report.findings {
            println!("  - {finding}");
        }
    }
}
