//! Hostile ingestion input: seeded corruptions of a real ABI JSON file and
//! a real runtime-bytecode hex file. Every decoder either accepts the bytes
//! or returns an `IngestError`; none panics, and `ingest` fails exactly
//! when one of its two parsers does or finds nothing to fuzz.

use corrupt::corrupt;
use mufuzz_corpus::ingest::{ingest, parse_abi_json, parse_hex_bytecode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::catch_unwind;

#[path = "support/corrupt.rs"]
mod corrupt;

const ABI: &str = include_str!("fixtures/vault_token.abi.json");
const HEX: &str = include_str!("fixtures/vault_token.hex");

/// 300 seeded 1–2 edit corruptions (bit flips, overwrites, truncations,
/// insertions) of each file. Bytes that are no longer UTF-8 reach the
/// parsers as lossily decoded text, the way a caller reading a file with
/// `from_utf8_lossy` would pass them on.
#[test]
fn corrupted_abi_json_and_bytecode_hex_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x1A6E_5700);
    let (mut abi_rejected, mut hex_rejected) = (0, 0);
    for case in 0..300 {
        let abi = String::from_utf8_lossy(&corrupt(ABI.as_bytes(), &mut rng)).into_owned();
        let parsed = catch_unwind(|| parse_abi_json(&abi))
            .unwrap_or_else(|_| panic!("parse_abi_json panicked on case {case}: {abi:?}"));
        let ingested = catch_unwind(|| ingest("Corrupt", &abi, HEX))
            .unwrap_or_else(|_| panic!("ingest panicked on ABI case {case}: {abi:?}"));
        let usable = parsed.is_ok_and(|(abi, _)| !abi.functions.is_empty());
        assert_eq!(ingested.is_ok(), usable, "ABI case {case}: {abi:?}");
        abi_rejected += usize::from(!usable);

        let hex = String::from_utf8_lossy(&corrupt(HEX.as_bytes(), &mut rng)).into_owned();
        let parsed = catch_unwind(|| parse_hex_bytecode(&hex))
            .unwrap_or_else(|_| panic!("parse_hex_bytecode panicked on case {case}: {hex:?}"));
        let ingested = catch_unwind(|| ingest("Corrupt", ABI, &hex))
            .unwrap_or_else(|_| panic!("ingest panicked on hex case {case}: {hex:?}"));
        let usable = parsed.is_ok_and(|code| !code.is_empty());
        assert_eq!(ingested.is_ok(), usable, "hex case {case}: {hex:?}");
        hex_rejected += usize::from(!usable);
    }
    // The corruptions must bite: most break the JSON or the hex.
    assert!(
        abi_rejected > 100,
        "only {abi_rejected} of 300 ABI cases rejected"
    );
    assert!(
        hex_rejected > 100,
        "only {hex_rejected} of 300 hex cases rejected"
    );
}
