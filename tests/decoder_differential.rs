//! Billing differential suite: block settlement must be observably
//! identical to running one instruction at a time.
//!
//! Both disciplines run the same threaded handlers over the decoded
//! program. The production one (the default) settles gas and stack block
//! by block over the fused lowering and deopts near the limits; the
//! reference (`block_lowering = false`) runs the unfused lowering one
//! instruction at a time. So the suite checks block settlement, fusion and
//! the deopt hand-off, not each opcode's effect, which the conformance
//! vectors and the EVM crate's semantics tests pin by absolute value.
//! Decoding itself is pinned against
//! `opcode::disassemble` by the unit tests in `program.rs` and by
//! [`corpus_runtimes_decode_like_the_disassembler`].
//!
//! Two input sources drive the comparison:
//!
//! * for every corpus contract (and one ingested real-bytecode contract),
//!   256 seeded calldata inputs — a mix of valid selectors with random
//!   argument words and entirely random byte strings — each executed from
//!   an identical post-constructor world snapshot;
//! * transaction sequences generated the way a campaign generates them:
//!   the initial corpus, structural mutation and mask-guided byte mutation.
//!
//! The full [`ExecutionResult`] (success, output, gas remaining, halt reason
//! and the complete instrumentation trace with its branch records) and the
//! resulting world state must match bit for bit. A third sweep re-runs
//! seeded calls under every instruction cap that can land inside them.

use mufuzz::mutation::mutate_masked;
use mufuzz::{
    ContractHarness, FuzzerConfig, InterestingValues, MutationMask, Sequence, SequenceGenerator,
};
use mufuzz_analysis::{analyze_contract, plan_sequence};
use mufuzz_corpus::contracts;
use mufuzz_evm::{
    disassemble, DecodedProgram, Evm, EvmConfig, ExecFrame, ExecutionResult, Message, Opcode,
    ProgramCache, WorldState, U256,
};
use mufuzz_lang::{compile_source, CompiledContract};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

const INPUTS_PER_CONTRACT: usize = 256;

/// Mutants generated per contract by the campaign-shaped sequence sweep.
const MUTANTS_PER_CONTRACT: usize = 96;

/// Seeded calls per contract in the instruction-cap sweep.
const CAP_SWEEP_CALLS: usize = 24;

/// Derive one fuzzed calldata input: either a valid function selector with
/// random argument words, or raw random bytes.
fn random_calldata(harness: &ContractHarness, rng: &mut SmallRng) -> Vec<u8> {
    let functions = &harness.compiled.abi.functions;
    if !functions.is_empty() && rng.gen_bool(0.7) {
        let f = &functions[rng.gen_range(0..functions.len())];
        let mut data = f.selector.to_vec();
        let words = rng.gen_range(0..=f.inputs.len() + 1);
        for _ in 0..words {
            let mut word = [0u8; 32];
            match rng.gen_range(0..3u32) {
                // Small values exercise the happy paths.
                0 => word[31] = rng.gen_range(0..8u32) as u8,
                // Full-width randomness exercises bounds checks.
                1 => rng.fill_bytes(&mut word),
                // High-bit patterns exercise signed/overflow paths.
                _ => {
                    word[0] = 0xff;
                    word[31] = rng.gen_range(0..256u32) as u8;
                }
            }
            data.extend_from_slice(&word);
        }
        data
    } else {
        let len = rng.gen_range(0..68usize);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }
}

/// A seeded call to the harness's contract: fuzzed calldata from a random
/// sender with a small ether value.
fn random_message(harness: &ContractHarness, rng: &mut SmallRng) -> Message {
    let calldata = random_calldata(harness, rng);
    let sender = harness.senders[rng.gen_range(0..harness.senders.len())];
    let value = U256::from_u64(rng.gen_range(0..4u64) * 1_000_000_000);
    Message::new(sender, harness.contract_address, value, calldata)
}

/// The production cache shape: the deployed runtime blob, pre-decoded and
/// block-lowered on insert.
fn runtime_cache(harness: &ContractHarness) -> ProgramCache {
    let runtime = harness.base_world().code(harness.contract_address);
    let mut cache = ProgramCache::new();
    cache.insert(
        Arc::clone(runtime),
        Arc::new(DecodedProgram::decode(runtime)),
    );
    cache
}

/// Execute one message from a fresh snapshot of the harness base world,
/// block by block (`block_lowering`) or one instruction at a time, under an
/// instruction cap of `max_instructions`. Returns the result and the
/// post-execution world.
fn run_once(
    harness: &ContractHarness,
    cache: &ProgramCache,
    msg: &Message,
    block_lowering: bool,
    max_instructions: usize,
) -> (ExecutionResult, WorldState) {
    let mut world = harness.base_world().snapshot();
    let mut block = harness.base_block();
    block.advance();
    let mut evm = Evm::new(&mut world, block).with_programs(cache);
    evm.config.block_lowering = block_lowering;
    evm.config.max_instructions = max_instructions;
    let result = evm.execute(msg);
    (result, world)
}

/// A deterministic per-contract RNG seed, derived from the contract's name.
fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xD1FFu64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    })
}

/// Run the two-tier × [`INPUTS_PER_CONTRACT`] bit-identity sweep over one
/// compiled (or ingested) contract.
fn sweep_both_tiers(name: &str, compiled: CompiledContract) {
    let harness =
        ContractHarness::new(compiled, &FuzzerConfig::default()).expect("contract must deploy");
    let cache = runtime_cache(&harness);
    let cap = EvmConfig::default().max_instructions;

    let mut rng = SmallRng::seed_from_u64(name_seed(name));
    for case in 0..INPUTS_PER_CONTRACT {
        let msg = random_message(&harness, &mut rng);

        let (block, world_block) = run_once(&harness, &cache, &msg, true, cap);
        let (decoded, world_decoded) = run_once(&harness, &cache, &msg, false, cap);

        // Gas first: with a fixed gas limit, equal `gas_used` is equal
        // gas remaining — the sharpest signal when block settlement or a
        // fused arm misbills, so it gets its own assertion.
        assert_eq!(
            block.gas_used, decoded.gas_used,
            "{name}: block-tier gas divergence on input #{case}"
        );
        assert_eq!(
            block,
            decoded,
            "{name}: block-tier divergence on input #{case} ({} calldata bytes)",
            msg.data.len()
        );
        assert_eq!(
            world_block, world_decoded,
            "{name}: block-tier committed state divergence on input #{case}"
        );
    }
}

#[test]
fn threaded_pipeline_is_bit_identical_to_the_predecoded_reference() {
    for bench in contracts::all_handwritten() {
        let compiled = compile_source(&bench.source).expect("corpus contract must compile");
        sweep_both_tiers(&bench.name, compiled);
    }
}

/// The instruction cap halts both tiers at the same instruction. Each seeded
/// call re-runs with `max_instructions` at every value from 0 to one past
/// its reference instruction count, so the cap lands on every instruction
/// of the run: block leaders, the middle of fused units, the instruction
/// after a call returns, and the implicit stop at the end of the code.
#[test]
fn instruction_cap_halts_identically_on_both_tiers() {
    let (mut cases, mut inside) = (0usize, 0usize);
    for bench in contracts::all_handwritten() {
        let compiled = compile_source(&bench.source).expect("corpus contract must compile");
        let harness =
            ContractHarness::new(compiled, &FuzzerConfig::default()).expect("contract must deploy");
        let cache = runtime_cache(&harness);
        let mut rng = SmallRng::seed_from_u64(name_seed(&bench.name) ^ 0xCA9);
        for call in 0..CAP_SWEEP_CALLS {
            let msg = random_message(&harness, &mut rng);
            let unlimited = EvmConfig::default().max_instructions;
            let n = run_once(&harness, &cache, &msg, false, unlimited)
                .0
                .trace
                .instruction_count();
            for cap in 0..=n + 1 {
                let (block, world_block) = run_once(&harness, &cache, &msg, true, cap);
                let (decoded, world_decoded) = run_once(&harness, &cache, &msg, false, cap);
                let name = &bench.name;
                assert_eq!(block, decoded, "{name}: call #{call} at cap {cap} of {n}");
                assert_eq!(
                    world_block, world_decoded,
                    "{name}: call #{call} world at cap {cap} of {n}"
                );
                cases += 1;
                inside += usize::from(cap < n);
            }
        }
    }
    assert!(
        inside * 2 > cases,
        "most caps must land inside their run: {inside} of {cases}"
    );
}

/// The committed real-bytecode fixture (ABI JSON + runtime hex).
fn vault_token() -> CompiledContract {
    let abi_json = std::fs::read_to_string("tests/fixtures/vault_token.abi.json").unwrap();
    let bytecode_hex = std::fs::read_to_string("tests/fixtures/vault_token.hex").unwrap();
    let ingested =
        mufuzz_corpus::ingest("VaultToken", &abi_json, &bytecode_hex).expect("fixture must ingest");
    assert!(ingested.skipped.is_empty());
    ingested.compiled
}

/// An ingested real-bytecode contract (ABI JSON + runtime hex, no
/// toy-language source) goes through the identical two-tier × 256-input
/// sweep: the conformance surface added for arbitrary bytecode must stay
/// bit-identical on both tiers too.
#[test]
fn ingested_real_bytecode_is_bit_identical_across_all_tiers() {
    sweep_both_tiers("VaultToken", vault_token());
}

/// Every hand-written corpus contract, compiled, plus the ingested fixture.
fn corpus_and_fixture() -> Vec<(String, CompiledContract)> {
    let mut out: Vec<(String, CompiledContract)> = contracts::all_handwritten()
        .into_iter()
        .map(|bench| {
            let compiled = compile_source(&bench.source).expect("corpus contract must compile");
            (bench.name, compiled)
        })
        .collect();
    out.push(("VaultToken".into(), vault_token()));
    out
}

/// The decoder every tier shares, checked instruction by instruction against
/// the disassembler on every corpus runtime and the ingested fixture: same
/// opcode, pc and immediate, and `jump_cursor` accepts exactly the
/// `JUMPDEST`s the disassembler finds.
#[test]
fn corpus_runtimes_decode_like_the_disassembler() {
    for (name, compiled) in corpus_and_fixture() {
        let code = &compiled.runtime;
        let program = DecodedProgram::decode(code);
        let reference = disassemble(code);
        assert_eq!(program.instructions().len(), reference.len(), "{name}");
        for (index, (decoded, instr)) in program.instructions().iter().zip(&reference).enumerate() {
            assert_eq!(decoded.op, instr.opcode, "{name}: opcode #{index}");
            assert_eq!(decoded.pc as usize, instr.pc, "{name}: pc #{index}");
            assert_eq!(
                decoded.imm,
                U256::from_be_slice(&instr.immediate),
                "{name}: immediate #{index}"
            );
        }
        let jumpdests: Vec<usize> = reference
            .iter()
            .filter(|instr| instr.opcode == Opcode::JumpDest)
            .map(|instr| instr.pc)
            .collect();
        let accepted: Vec<usize> = (0..=code.len())
            .filter(|&pc| program.jump_cursor(pc).is_some())
            .collect();
        assert_eq!(accepted, jumpdests, "{name}: jump destinations");
    }
}

/// Assert that two harness outcomes of the same sequence agree in every
/// field a campaign consumes.
fn assert_outcomes_agree(
    name: &str,
    case: usize,
    threaded: &mufuzz::SequenceOutcome,
    reference: &mufuzz::SequenceOutcome,
) {
    assert_eq!(
        threaded.traces, reference.traces,
        "{name}: trace divergence on sequence #{case}"
    );
    assert_eq!(
        threaded.successes, reference.successes,
        "{name}: success count divergence on sequence #{case}"
    );
    assert_eq!(
        threaded.covered_edge_ids, reference.covered_edge_ids,
        "{name}: coverage divergence on sequence #{case}"
    );
    assert_eq!(
        threaded.final_world, reference.final_world,
        "{name}: final world divergence on sequence #{case}"
    );
}

/// Campaign-shaped inputs: the plan-derived initial corpus, then mutants
/// built the way a campaign builds them (an occasional structural mutation,
/// then mask-guided byte mutation of one or two transactions), each run
/// through a default harness and a `with_block_lowering(false)` harness.
#[test]
fn fuzzer_generated_sequences_are_bit_identical_on_both_tiers() {
    let config = FuzzerConfig::default();
    for (name, compiled) in corpus_and_fixture() {
        let threaded = ContractHarness::new(compiled.clone(), &config).unwrap();
        let reference =
            ContractHarness::new(compiled, &config.clone().with_block_lowering(false)).unwrap();

        let abi = &threaded.compiled.abi;
        let plan = plan_sequence(&analyze_contract(&threaded.compiled.contract));
        let mut interesting = InterestingValues::harvest(&threaded.compiled.runtime);
        for address in threaded.interesting_addresses() {
            interesting.add(address.to_u256());
        }
        let generator = SequenceGenerator::new(abi, plan, true, threaded.senders.len());
        let mut rng = SmallRng::seed_from_u64(name_seed(&name));
        let (mut frame_a, mut frame_b) = (ExecFrame::new(), ExecFrame::new());
        let mut run = |case: usize, sequence: &Sequence| {
            let a = threaded.execute_sequence_with(sequence, &mut frame_a);
            let b = reference.execute_sequence_with(sequence, &mut frame_b);
            assert_outcomes_agree(&name, case, &a, &b);
        };

        let mut pool =
            generator.initial_sequences(abi, config.initial_seeds, &mut rng, &interesting);
        for (case, sequence) in pool.iter().enumerate() {
            run(case, sequence);
        }
        for case in pool.len()..pool.len() + MUTANTS_PER_CONTRACT {
            let parent = &pool[rng.gen_range(0..pool.len())];
            let mut sequence = if rng.gen_bool(0.3) {
                generator.mutate_structure(parent, abi, &mut rng, &interesting)
            } else {
                parent.clone()
            };
            if !sequence.txs.is_empty() {
                for _ in 0..1 + rng.gen_range(0..2usize) {
                    let idx = rng.gen_range(0..sequence.txs.len());
                    let stream = &sequence.txs[idx].stream;
                    let mask = MutationMask::allow_all(stream.len());
                    if let Some(mutated) = mutate_masked(stream, &mask, &mut rng, &interesting) {
                        sequence.txs[idx].stream = mutated;
                    }
                }
            }
            run(case, &sequence);
            pool.push(sequence);
        }
    }
}

/// Whole-sequence equivalence: the harness's production path (block-lowered,
/// cached, frame-reusing) produces the same traces as a manual re-execution
/// of the same transactions one instruction at a time.
#[test]
fn harness_sequences_replay_identically_on_the_predecoded_tier() {
    use mufuzz::TxInput;

    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let harness = ContractHarness::new(compiled, &FuzzerConfig::default()).unwrap();
    let sequence = Sequence::new(vec![
        TxInput::new("invest", 0, U256::from_u64(7), &[U256::from_u64(7)]),
        TxInput::simple("refund"),
        TxInput::simple("withdraw"),
    ]);
    let outcome = harness.execute_sequence(&sequence);

    // Replay the same messages manually, one instruction at a time.
    let mut world = harness.base_world().snapshot();
    let mut block = harness.base_block();
    for (tx, trace) in sequence.txs.iter().zip(&outcome.traces) {
        block.advance();
        let abi = harness.compiled.abi.function(&tx.function).unwrap();
        let sender = harness.senders[tx.sender_index % harness.senders.len()];
        let mut evm = Evm::new(&mut world, block);
        evm.config.block_lowering = false;
        let result = evm.execute(&Message::new(
            sender,
            harness.contract_address,
            tx.value(),
            tx.calldata(abi),
        ));
        assert_eq!(&result.trace, trace, "sequence trace divergence");
    }
    assert_eq!(&outcome.final_world, &world, "sequence state divergence");
}
