//! Mapping slots hashed through the execution frame's `SHA3` memo, on both
//! tiers. One contract stores under 600 mapping keys drawn from a pool of
//! 200 addresses in two mappings, so slots repeat within a transaction and
//! more distinct preimages exist than the memo has entries. Each store
//! takes one of three shapes, so the block tier runs each of its hashing
//! handlers (the fused mapping store, a fused `PUSH PUSH SHA3` and a plain
//! `SHA3`); one instruction at a time, only the plain one runs. Every write must land
//! on `keccak256(key ‖ slot)`, on both tiers, in every run of a frame that
//! is reused so later runs hit the memo.

use mufuzz_evm::{
    keccak256, Account, Address, BlockEnv, BlockProgram, DecodedProgram, Evm, ExecFrame, Fused,
    Message, Opcode, ProgramCache, WorldState, U256,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage slots of the contract's two mappings.
const SLOTS: [u8; 2] = [3, 7];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn push32(code: &mut Vec<u8>, word: U256) {
    code.push(0x7f);
    code.extend_from_slice(&word.to_be_bytes());
}

/// Emit `mapping[slot][key] = value`: the key and the slot number go to
/// memory words 0 and 1, the 64 bytes are hashed and the value is stored
/// under the digest. `shape` picks how the hash is written.
fn emit_store(code: &mut Vec<u8>, key: U256, slot: u8, value: U256, shape: usize) {
    push32(code, value);
    push32(code, key);
    // PUSH1 0 MSTORE PUSH1 slot PUSH1 32 MSTORE PUSH1 64 PUSH1 0
    code.extend_from_slice(&[
        0x60, 0x00, 0x52, 0x60, slot, 0x60, 0x20, 0x52, 0x60, 0x40, 0x60, 0x00,
    ]);
    match shape {
        // SHA3 SSTORE: the fused mapping store.
        0 => code.extend_from_slice(&[0x20, 0x55]),
        // SHA3 JUMPDEST SSTORE: a fused PUSH PUSH SHA3, then a new block.
        1 => code.extend_from_slice(&[0x20, 0x5b, 0x55]),
        // SWAP1 SWAP1 SHA3 SSTORE: a plain SHA3.
        _ => code.extend_from_slice(&[0x90, 0x90, 0x20, 0x55]),
    }
}

/// The contract and the `(key, slot, value)` of each store, in order.
fn mapping_contract() -> (Vec<u8>, Vec<(U256, u8, U256)>) {
    let mut state = 0x6d61_7070_u64;
    let pool: Vec<U256> = (0..200)
        .map(|_| {
            let mut word = [0u8; 32];
            for byte in &mut word[12..] {
                *byte = splitmix(&mut state) as u8;
            }
            U256::from_be_bytes(word)
        })
        .collect();
    let mut code = Vec::new();
    let mut stores = Vec::new();
    for i in 0..600u64 {
        let key = pool[splitmix(&mut state) as usize % pool.len()];
        let slot = SLOTS[splitmix(&mut state) as usize % SLOTS.len()];
        let value = U256::from_u64(i + 1);
        emit_store(&mut code, key, slot, value, i as usize % 3);
        stores.push((key, slot, value));
    }
    code.push(0x00);
    (code, stores)
}

fn slot_of(key: U256, slot: u8) -> U256 {
    let mut preimage = [0u8; 64];
    preimage[..32].copy_from_slice(&key.to_be_bytes());
    preimage[63] = slot;
    U256::from_be_bytes(keccak256(&preimage))
}

#[test]
fn mapping_slots_equal_keccak_of_key_and_slot_on_both_tiers() {
    let (code, stores) = mapping_contract();
    let program = Arc::new(DecodedProgram::decode(&code));
    let units = BlockProgram::lower(Arc::clone(&program));
    for (fused, op) in [
        (Fused::MapSlotSStore, Opcode::SStore),
        (Fused::PushPushSha3, Opcode::Sha3),
        (Fused::None, Opcode::Sha3),
    ] {
        assert!(
            units.units().iter().any(|u| u.fused == fused && u.op == op),
            "no {fused:?} unit ending in {op:?}"
        );
    }

    let sender = Address::from_low_u64(1);
    let contract = Address::from_low_u64(0x42);
    let mut base = WorldState::new();
    base.put_account(sender, Account::eoa(U256::from_u64(1_000_000)));
    base.put_account(contract, Account::contract(code, U256::ZERO));
    let runtime = base.code(contract);
    let mut cache = ProgramCache::new();
    cache.insert(Arc::clone(runtime), program);
    base.freeze();
    let mut msg = Message::new(sender, contract, U256::ZERO, vec![]);
    msg.gas = 30_000_000;

    let mut last = BTreeMap::new();
    for &(key, slot, value) in &stores {
        last.insert((key, slot), value);
    }
    assert!(
        last.len() > 256,
        "more distinct preimages than memo entries"
    );
    assert!(last.len() < stores.len(), "some slots are written twice");

    let mut frames = [ExecFrame::new(), ExecFrame::new()];
    for run in 0..3 {
        let mut results = Vec::new();
        for (frame, block_lowering) in frames.iter_mut().zip([true, false]) {
            let mut world = base.snapshot();
            let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
            evm.config.block_lowering = block_lowering;
            let result = evm.execute_in(&msg, frame);
            assert!(result.success, "run {run}, block lowering {block_lowering}");
            let writes = &result.trace.storage_writes;
            assert_eq!(writes.len(), stores.len());
            for (write, &(key, slot, value)) in writes.iter().zip(&stores) {
                assert_eq!(
                    write.slot,
                    slot_of(key, slot),
                    "run {run}, {block_lowering}"
                );
                assert_eq!(write.new, value);
            }
            for (&(key, slot), &value) in &last {
                assert_eq!(world.storage(contract, slot_of(key, slot)), value);
            }
            results.push((result, world));
        }
        assert_eq!(results[0], results[1], "tiers diverge in run {run}");
    }
}
