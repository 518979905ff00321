//! Conformance vectors: fixture-driven VM tests executed on both
//! interpreter tiers.
//!
//! Each JSON file under `tests/fixtures/conformance/` holds an array of
//! vectors. A vector describes a pre-state (accounts with code, balance and
//! storage), one top-level message, and the expected outcome: halt
//! classification, exact `gas_used`, return data, post-storage and the
//! number of conformance events (unimplemented-opcode halts). Every vector
//! is executed block by block and one instruction at a time; the two
//! results and post-worlds must be bit-identical *and* match the committed
//! expectations.
//!
//! The committed vectors pin the semantics the ingestion path depends on:
//! EIP-2929 warm/cold account and storage-slot pricing, EIP-3529
//! refund-cap accounting, the RETURNDATA* buffer rules (EIP-211 faults
//! included), EXTCODE* introspection, CREATE2 address derivation and the
//! conformance-tagged unknown-opcode halt. `opcodes.json` pins, by
//! absolute value, each opcode the other files and the EVM crate's
//! semantics tests leave unpinned: arithmetic, comparison, bitwise and
//! shift ops, the environment and block getters, memory, jumps, pushes,
//! `DUP`/`SWAP` at both depths, `LOG0`–`LOG4`, the `CREATE` stub, the
//! call variants, `REVERT`, `INVALID` and `SELFDESTRUCT`. Both tiers run
//! the same handlers, so these expectations, not the tier comparison, are
//! what checks each opcode's effect.
//!
//! Updating vectors: run with `MUFUZZ_CONFORMANCE_PRINT=1` to print the
//! observed gas/output/storage for every vector (tier identity is still
//! asserted) instead of failing on stale expectations.

use mufuzz_corpus::{parse_hex_bytecode, JsonValue};
use mufuzz_evm::{
    Account, Address, BlockEnv, DecodedProgram, Evm, ExecutionResult, HaltReason, Message,
    ProgramCache, Taint, WorldState, U256,
};
use std::sync::Arc;

/// Every committed fixture file. A new themed file only needs to be added
/// here to join the suite.
const FIXTURE_FILES: &[&str] = &[
    "tests/fixtures/conformance/gas_eip2929.json",
    "tests/fixtures/conformance/refunds.json",
    "tests/fixtures/conformance/returndata.json",
    "tests/fixtures/conformance/extcode.json",
    "tests/fixtures/conformance/env_create2.json",
    "tests/fixtures/conformance/faults.json",
    "tests/fixtures/conformance/opcodes.json",
];

/// One parsed vector: pre-state, message, expectations.
struct Vector {
    name: String,
    world: WorldState,
    msg: Message,
    expect: Expect,
}

/// The committed expectations for a vector. `halt` and `gas_used` are
/// mandatory (they are the conformance signal); the rest assert only when
/// present.
struct Expect {
    halt: String,
    gas_used: u64,
    output: Option<Vec<u8>>,
    /// `(account, slot, value)` triples checked via `WorldState::storage`,
    /// so `0x0` expectations hold for both cleared and never-written slots.
    storage: Vec<(Address, U256, U256)>,
    conformance_events: Option<u64>,
}

/// Collapse a [`HaltReason`] to the stable tag fixtures use. `Fault`
/// carries a free-form message that vectors must not depend on.
fn halt_tag(halt: &HaltReason) -> &'static str {
    match halt {
        HaltReason::Normal => "normal",
        HaltReason::Revert => "revert",
        HaltReason::Invalid => "invalid",
        HaltReason::OutOfGas => "out_of_gas",
        HaltReason::Fault(_) => "fault",
    }
}

fn parse_address(text: &str) -> Address {
    Address::from_u256(U256::from_hex(text).unwrap_or_else(|| panic!("bad address {text:?}")))
}

fn parse_word(text: &str) -> U256 {
    U256::from_hex(text).unwrap_or_else(|| panic!("bad hex word {text:?}"))
}

fn parse_bytes(text: &str) -> Vec<u8> {
    if text == "0x" || text.is_empty() {
        return vec![];
    }
    parse_hex_bytecode(text).unwrap_or_else(|e| panic!("bad hex bytes {text:?}: {e}"))
}

fn hex_of(bytes: &[u8]) -> String {
    let digits: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    format!("0x{digits}")
}

/// Parse one fixture file into its vectors.
fn load_vectors(path: &str) -> Vec<Vector> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let json = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let vectors = json
        .as_array()
        .unwrap_or_else(|| panic!("{path}: top level must be an array"));
    vectors.iter().map(|v| parse_vector(path, v)).collect()
}

fn parse_vector(path: &str, v: &JsonValue) -> Vector {
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{path}: vector without a name"))
        .to_string();
    let ctx = format!("{path}: {name}");

    let mut world = WorldState::new();
    if let Some(accounts) = v.get("accounts").and_then(JsonValue::entries) {
        for (addr_text, spec) in accounts {
            let address = parse_address(addr_text);
            let code = spec
                .get("code")
                .and_then(JsonValue::as_str)
                .map(parse_bytes)
                .unwrap_or_default();
            let balance = spec
                .get("balance")
                .and_then(JsonValue::as_str)
                .map(parse_word)
                .unwrap_or(U256::ZERO);
            let account = if code.is_empty() {
                Account::eoa(balance)
            } else {
                Account::contract(code, balance)
            };
            world.put_account(address, account);
            if let Some(slots) = spec.get("storage").and_then(JsonValue::entries) {
                for (slot_text, value) in slots {
                    let value_text = value
                        .as_str()
                        .unwrap_or_else(|| panic!("{ctx}: storage value must be a hex string"));
                    world.set_storage(
                        address,
                        parse_word(slot_text),
                        parse_word(value_text),
                        Taint::NONE,
                    );
                }
            }
        }
    }

    let caller = parse_address(
        v.get("caller")
            .and_then(JsonValue::as_str)
            .unwrap_or("0x1000"),
    );
    // The caller participates in the value transfer; give it funds unless
    // the fixture pinned its own account.
    if world.account(caller).is_none() {
        world.put_account(caller, Account::eoa(mufuzz_evm::ether(1)));
    }
    let to = parse_address(
        v.get("to")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{ctx}: vector without a `to` address")),
    );
    let value = v
        .get("value")
        .and_then(JsonValue::as_str)
        .map(parse_word)
        .unwrap_or(U256::ZERO);
    let calldata = v
        .get("calldata")
        .and_then(JsonValue::as_str)
        .map(parse_bytes)
        .unwrap_or_default();
    let mut msg = Message::new(caller, to, value, calldata);
    if let Some(gas) = v.get("gas").and_then(JsonValue::as_u64) {
        msg.gas = gas;
    }

    let expect = v
        .get("expect")
        .unwrap_or_else(|| panic!("{ctx}: vector without `expect`"));
    let halt = expect
        .get("halt")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{ctx}: expect.halt is mandatory"))
        .to_string();
    let gas_used = expect
        .get("gas_used")
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{ctx}: expect.gas_used is mandatory"));
    let output = expect
        .get("output")
        .and_then(JsonValue::as_str)
        .map(parse_bytes);
    let mut storage = Vec::new();
    if let Some(accounts) = expect.get("storage").and_then(JsonValue::entries) {
        for (addr_text, slots) in accounts {
            let address = parse_address(addr_text);
            for (slot_text, value) in slots
                .entries()
                .unwrap_or_else(|| panic!("{ctx}: expect.storage accounts must be objects"))
            {
                let value_text = value
                    .as_str()
                    .unwrap_or_else(|| panic!("{ctx}: expected storage value must be hex"));
                storage.push((address, parse_word(slot_text), parse_word(value_text)));
            }
        }
    }
    let conformance_events = expect.get("conformance_events").and_then(JsonValue::as_u64);

    Vector {
        name,
        world,
        msg,
        expect: Expect {
            halt,
            gas_used,
            output,
            storage,
            conformance_events,
        },
    }
}

/// Execute `vector` block by block (`block_lowering`, the default) or one
/// instruction at a time.
fn run_tier(
    vector: &Vector,
    cache: &ProgramCache,
    block_lowering: bool,
) -> (ExecutionResult, WorldState) {
    let mut world = vector.world.snapshot();
    let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(cache);
    evm.config.block_lowering = block_lowering;
    let result = evm.execute(&vector.msg);
    (result, world)
}

/// Execute one vector on both tiers: assert bit-identity between the
/// tiers, then check the committed expectations (or print the observed
/// values under `MUFUZZ_CONFORMANCE_PRINT=1`).
fn check_vector(file: &str, vector: &Vector, print_mode: bool) {
    // Pre-decode every code blob present in the pre-state, mirroring the
    // production cache shape.
    let mut cache = ProgramCache::new();
    let addresses: Vec<Address> = vector.world.accounts().map(|(a, _)| a).collect();
    for address in addresses {
        let code = vector.world.code(address);
        if !code.is_empty() {
            cache.insert(Arc::clone(code), Arc::new(DecodedProgram::decode(code)));
        }
    }

    let ctx = format!("{file}: {}", vector.name);
    let (block, world_block) = run_tier(vector, &cache, true);
    let (result, world) = run_tier(vector, &cache, false);
    assert_eq!(
        block.gas_used, result.gas_used,
        "{ctx}: gas divergence between the two billing disciplines"
    );
    assert_eq!(
        block, result,
        "{ctx}: result divergence between the two billing disciplines"
    );
    assert_eq!(
        world_block, world,
        "{ctx}: post-state divergence between the two billing disciplines"
    );

    if print_mode {
        println!("{ctx}:");
        println!(
            "  halt: {}  gas_used: {}",
            halt_tag(&block.halt),
            block.gas_used
        );
        println!("  output: {}", hex_of(&block.output));
        println!("  conformance_events: {}", block.trace.conformance.len());
        for (address, slot, _) in &vector.expect.storage {
            println!(
                "  storage[{address}][{}] = {}",
                slot.to_hex_string(),
                world_block.storage(*address, *slot).to_hex_string()
            );
        }
        return;
    }

    assert_eq!(
        halt_tag(&block.halt),
        vector.expect.halt,
        "{ctx}: halt {:?}",
        block.halt
    );
    assert_eq!(block.gas_used, vector.expect.gas_used, "{ctx}: gas_used");
    if let Some(expected) = &vector.expect.output {
        assert_eq!(
            hex_of(&block.output),
            hex_of(expected),
            "{ctx}: return data"
        );
    }
    for (address, slot, expected) in &vector.expect.storage {
        assert_eq!(
            world_block.storage(*address, *slot),
            *expected,
            "{ctx}: post-storage {address}[{}]",
            slot.to_hex_string()
        );
    }
    if let Some(expected) = vector.expect.conformance_events {
        assert_eq!(
            block.trace.conformance.len() as u64,
            expected,
            "{ctx}: conformance event count"
        );
    }
}

/// Emit the per-opcode support matrix: a 16x16 markdown grid of the byte
/// space, mnemonics for implemented opcodes and `·` for bytes that raise
/// the conformance-tagged unknown-opcode halt. Printed to stdout (CI runs
/// with `--nocapture`) and appended to `$GITHUB_STEP_SUMMARY` when set, so
/// every CI run publishes the current conformance surface.
#[test]
fn per_opcode_support_matrix() {
    use mufuzz_evm::Opcode;

    let mut supported = 0usize;
    let mut lines = vec![
        "### EVM opcode support matrix".to_string(),
        String::new(),
        format!(
            "| |{}|",
            (0..16).map(|lo| format!(" _{lo:x} |")).collect::<String>()
        ),
        format!("|---|{}", "---|".repeat(16)),
    ];
    for hi in 0..16u16 {
        let mut row = format!("| **{hi:x}_** |");
        for lo in 0..16u16 {
            let byte = (hi * 16 + lo) as u8;
            match Opcode::from_byte(byte) {
                Opcode::Unknown(_) => row.push_str(" · |"),
                op => {
                    supported += 1;
                    row.push_str(&format!(" {} |", op.mnemonic()));
                }
            }
        }
        lines.push(row);
    }
    lines.push(String::new());
    lines.push(format!(
        "{supported} of 256 byte values implemented; the rest halt with a \
         conformance-tagged trace event."
    ));
    let matrix = lines.join("\n");
    println!("{matrix}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&path) {
            let _ = writeln!(f, "{matrix}");
        }
    }
    // The implemented surface can only grow: this floor covers the opcode
    // families the ingestion path depends on (PUSH/DUP/SWAP, arithmetic,
    // storage, calls, EXTCODE*, RETURNDATA*, CREATE2, environment).
    assert!(supported >= 130, "opcode surface shrank to {supported}");
}

#[test]
fn all_committed_vectors_pass_on_every_tier() {
    let print_mode = std::env::var("MUFUZZ_CONFORMANCE_PRINT").is_ok();
    let mut total = 0;
    for file in FIXTURE_FILES {
        let vectors = load_vectors(file);
        assert!(!vectors.is_empty(), "{file}: fixture file with no vectors");
        for vector in &vectors {
            check_vector(file, vector, print_mode);
        }
        total += vectors.len();
    }
    assert!(
        total >= 10,
        "expected at least 10 committed vectors, found {total}"
    );
}
