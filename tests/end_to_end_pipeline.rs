//! End-to-end pipeline tests over the whole hand-written corpus: every
//! contract compiles, deploys, fuzzes, and the oracles detect the annotated
//! vulnerability classes for the canonical representatives.

use mufuzz::{ContractHarness, Fuzzer, FuzzerConfig, Sequence, TxInput};
use mufuzz_corpus::{all_handwritten, contracts};
use mufuzz_lang::compile_source;
use mufuzz_oracles::BugClass;

fn detected_classes(
    source: &str,
    budget: usize,
    seed: u64,
) -> std::collections::BTreeSet<BugClass> {
    let compiled = compile_source(source).unwrap();
    let mut fuzzer = Fuzzer::new(
        compiled,
        FuzzerConfig::mufuzz(budget)
            .with_rng_seed(seed)
            .with_workers(1),
    )
    .unwrap();
    fuzzer.run().detected_classes()
}

#[test]
fn every_handwritten_contract_survives_a_short_campaign() {
    for contract in all_handwritten() {
        let compiled = compile_source(&contract.source).unwrap();
        let mut fuzzer = Fuzzer::new(
            compiled,
            FuzzerConfig::mufuzz(80).with_rng_seed(1).with_workers(1),
        )
        .unwrap();
        let report = fuzzer.run();
        assert!(
            report.covered_edges > 0,
            "{} covered nothing",
            contract.name
        );
        assert!(report.executions >= 80, "{}", contract.name);
    }
}

#[test]
fn reentrancy_bank_detected() {
    let classes = detected_classes(&contracts::reentrant_bank().source, 500, 3);
    assert!(classes.contains(&BugClass::Reentrancy), "{classes:?}");
}

#[test]
fn timestamp_lottery_detected_as_block_dependency() {
    let classes = detected_classes(&contracts::timestamp_lottery().source, 300, 3);
    assert!(classes.contains(&BugClass::BlockDependency), "{classes:?}");
}

#[test]
fn delegatecall_proxy_detected_only_for_the_unguarded_function() {
    let compiled = compile_source(&contracts::delegatecall_proxy().source).unwrap();
    let mut fuzzer = Fuzzer::new(
        compiled,
        FuzzerConfig::mufuzz(400).with_rng_seed(3).with_workers(1),
    )
    .unwrap();
    let report = fuzzer.run();
    let ud: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.class == BugClass::UnprotectedDelegatecall)
        .collect();
    assert!(!ud.is_empty());
    assert!(ud.iter().all(|f| f.function.as_deref() == Some("forward")));
}

#[test]
fn suicidal_wallet_and_frozen_vault_detected() {
    let classes = detected_classes(&contracts::suicidal_wallet().source, 300, 5);
    assert!(
        classes.contains(&BugClass::UnprotectedSelfDestruct),
        "{classes:?}"
    );
    let classes = detected_classes(&contracts::frozen_vault().source, 200, 5);
    assert!(classes.contains(&BugClass::EtherFreezing), "{classes:?}");
}

#[test]
fn strict_equality_and_tx_origin_detected() {
    let classes = detected_classes(&contracts::strict_equality_game().source, 300, 7);
    assert!(
        classes.contains(&BugClass::StrictEtherEquality),
        "{classes:?}"
    );
    let classes = detected_classes(&contracts::tx_origin_auth().source, 300, 7);
    assert!(classes.contains(&BugClass::TxOriginUse), "{classes:?}");
}

#[test]
fn unchecked_send_detected_as_unhandled_exception() {
    let classes = detected_classes(&contracts::unchecked_send().source, 400, 9);
    assert!(
        classes.contains(&BugClass::UnhandledException),
        "{classes:?}"
    );
}

#[test]
fn overflow_token_detected_as_integer_overflow() {
    let classes = detected_classes(&contracts::overflow_token().source, 600, 11);
    assert!(classes.contains(&BugClass::IntegerOverflow), "{classes:?}");
}

#[test]
fn benign_ledger_produces_no_spurious_findings_for_guarded_patterns() {
    let classes = detected_classes(&contracts::benign_ledger().source, 400, 13);
    // The guarded selfdestruct and the checked transfer must not be reported.
    assert!(
        !classes.contains(&BugClass::UnprotectedSelfDestruct),
        "{classes:?}"
    );
    assert!(
        !classes.contains(&BugClass::UnhandledException),
        "{classes:?}"
    );
    assert!(!classes.contains(&BugClass::Reentrancy), "{classes:?}");
}

/// A 29-byte runtime with one `JUMPI` of its own, which it never takes, and
/// a `CREATE2` of the 7-byte init code `PUSH1 1 PUSH1 5 JUMPI JUMPDEST STOP`,
/// which takes a `JUMPI` in the created account's code.
const SPAWNER_RUNTIME: &str = "6660016005575b006000526042600760196000f5506000601b57005b00";
const SPAWNER_ABI: &str = r#"[{"type":"function","name":"spawn","inputs":[]}]"#;

/// Coverage is the target contract's `JUMPI` edges and nothing else: a
/// branch executed in `CREATE2` init code stays in the trace but is not
/// coverage, under either determinism profile.
#[test]
fn branches_in_foreign_code_are_not_coverage() {
    let spawner = || {
        mufuzz_corpus::ingest("Spawner", SPAWNER_ABI, SPAWNER_RUNTIME)
            .unwrap()
            .compiled
    };
    let harness = ContractHarness::new(spawner(), &FuzzerConfig::default()).unwrap();
    let outcome = harness.execute_sequence(&Sequence::new(vec![TxInput::simple("spawn")]));
    assert!(outcome.traces[0]
        .branches
        .iter()
        .any(|b| b.code_address != harness.contract_address));
    assert_eq!(outcome.covered_edge_ids, vec![0]);

    for config in [
        FuzzerConfig::mufuzz(200),
        FuzzerConfig::mufuzz(200).with_round_mode(),
    ] {
        let round = config.round_mode();
        let report = Fuzzer::new(spawner(), config.with_workers(1))
            .unwrap()
            .run();
        assert_eq!(report.covered_edges, 1, "round mode: {round}");
        assert_eq!(report.total_edges, 2, "round mode: {round}");
    }
}
