//! Micro-benchmarks of the substrate: U256 arithmetic, Keccak-256, the
//! compiler pipeline, the EVM interpreter and the static analyses.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mufuzz_analysis::ControlFlowGraph;
use mufuzz_corpus::contracts;
use mufuzz_evm::{
    keccak256, Account, Address, BlockEnv, DecodedProgram, Evm, ExecFrame, Message, ProgramCache,
    WorldState, U256,
};
use mufuzz_lang::{compile_source, AbiValue};
use std::sync::Arc;

fn bench_u256(c: &mut Criterion) {
    let a = U256::from_hex("0x1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef")
        .unwrap();
    let b = U256::from_hex("0xfedcba0987654321fedcba0987654321").unwrap();
    let mut group = c.benchmark_group("u256");
    group.bench_function("mul", |bencher| {
        bencher.iter(|| black_box(a).overflowing_mul(black_box(b)))
    });
    group.bench_function("div_rem", |bencher| {
        bencher.iter(|| black_box(a).div_rem(black_box(b)))
    });
    group.bench_function("to_dec_string", |bencher| {
        bencher.iter(|| black_box(a).to_dec_string())
    });
    group.finish();
}

fn bench_keccak(c: &mut Criterion) {
    let mut group = c.benchmark_group("keccak256");
    for size in [32usize, 136, 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |bencher| {
            bencher.iter(|| keccak256(black_box(&data)))
        });
    }
    group.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let source = contracts::crowdsale().source;
    let mut group = c.benchmark_group("compiler");
    group.bench_function("compile_crowdsale", |bencher| {
        bencher.iter(|| compile_source(black_box(&source)).unwrap())
    });
    let compiled = compile_source(&source).unwrap();
    group.bench_function("cfg_build", |bencher| {
        bencher.iter(|| ControlFlowGraph::build(black_box(&compiled.runtime)))
    });
    group.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let sender = Address::from_low_u64(1);
    let target = Address::from_low_u64(2);
    let mut world = WorldState::new();
    world.put_account(sender, Account::eoa(mufuzz_evm::ether(1_000_000)));
    {
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        evm.deploy(
            sender,
            target,
            &compiled.constructor,
            compiled.runtime.clone(),
            U256::ZERO,
            vec![],
        );
    }
    let invest = compiled.abi.function("invest").unwrap();
    let calldata = invest.encode_call(&[AbiValue::Uint(mufuzz_evm::ether(10))]);

    // Freeze the deployed world: each iteration then resets one reused
    // world to it in place, as the fuzzing harness does.
    world.freeze();
    let msg = Message::new(sender, target, mufuzz_evm::ether(10), calldata);

    // The production pipeline: decode-once program cache + reusable frame.
    let blob = Arc::clone(world.code(target));
    let mut cache = ProgramCache::new();
    cache.insert(Arc::clone(&blob), Arc::new(DecodedProgram::decode(&blob)));
    let mut frame = ExecFrame::new();
    let mut w = world.snapshot();
    c.bench_function("evm_execute_invest_tx_predecoded", |bencher| {
        bencher.iter(|| {
            w.reset_to(&world);
            let mut evm = Evm::new(&mut w, BlockEnv::default()).with_programs(&cache);
            let result = evm.execute_in(&msg, &mut frame);
            black_box(result.trace.instruction_count())
        })
    });
}

criterion_group!(
    benches,
    bench_u256,
    bench_keccak,
    bench_compiler,
    bench_interpreter
);
criterion_main!(benches);
