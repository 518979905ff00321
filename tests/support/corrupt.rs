//! Seeded byte corruptions for the hostile-input tests
//! (`tests/replay_finding.rs`, `tests/ingest_corruption.rs`).

use rand::rngs::SmallRng;
use rand::Rng;

/// One seeded corruption of `bytes`: one or two edits, each a bit flip, a
/// byte overwrite, a truncation or an inserted byte.
pub fn corrupt(bytes: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..3usize) {
        if out.is_empty() {
            break;
        }
        let at = rng.gen_range(0..out.len());
        match rng.gen_range(0..4u32) {
            0 => out[at] ^= 1 << rng.gen_range(0..8u32),
            1 => out[at] = rng.gen(),
            2 => out.truncate(at),
            _ => out.insert(at, rng.gen()),
        }
    }
    out
}
