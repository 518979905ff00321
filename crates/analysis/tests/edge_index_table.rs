//! The edge index's dense `pc → rank` table against the binary search over
//! the sorted `JUMPI` sites that it replaced. On the D2 and D1 corpora and
//! on 200 seeded random byte strings, every pc of the code and two past its
//! end, taken and not taken, at the indexed address and a foreign one, must
//! get the id the search gives, from all three constructors.

#[path = "../../../tests/support/random_code.rs"]
mod random_code;

use mufuzz_analysis::{ControlFlowGraph, EdgeIndex};
use mufuzz_corpus::{d1_large, d1_small, d2, BenchContract};
use mufuzz_evm::{Address, BlockProgram, BranchEdge, DecodedProgram};
use mufuzz_lang::compile_source;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use random_code::random_code;
use std::sync::Arc;

const INDEXED: Address = Address([0xC0; 20]);
const FOREIGN: Address = Address([0xF0; 20]);

/// The id a binary search over `sites` assigns to `edge`.
fn searched_id(sites: &[usize], edge: &BranchEdge) -> Option<u32> {
    if edge.code_address != INDEXED {
        return None;
    }
    let rank = sites.binary_search(&edge.pc).ok()?;
    Some(rank as u32 * 2 + u32::from(edge.taken))
}

/// Check every constructor's table on `code`; returns the number of sites.
fn check(code: &[u8]) -> usize {
    let program = Arc::new(DecodedProgram::decode(code));
    let blocks = BlockProgram::lower(Arc::clone(&program));
    let cfg = ControlFlowGraph::from_program(&program);
    let indexes = [
        EdgeIndex::from_blocks(&blocks, INDEXED),
        EdgeIndex::from_program(&program, INDEXED),
        EdgeIndex::build(&cfg, INDEXED),
    ];
    let sites: Vec<usize> = (0..indexes[0].len() as u32)
        .step_by(2)
        .map(|id| indexes[0].edge_of(id).expect("id in range").pc)
        .collect();
    assert!(sites.windows(2).all(|w| w[0] < w[1]), "sites out of order");
    for index in &indexes {
        assert_eq!(index.len(), sites.len() * 2);
        for pc in 0..code.len() + 2 {
            for code_address in [INDEXED, FOREIGN] {
                for taken in [false, true] {
                    let edge = BranchEdge {
                        code_address,
                        pc,
                        taken,
                    };
                    assert_eq!(index.id_of(&edge), searched_id(&sites, &edge), "{edge:?}");
                }
            }
        }
    }
    sites.len()
}

fn check_contracts(contracts: &[BenchContract]) {
    let mut sites = 0;
    for bench in contracts {
        let compiled = compile_source(&bench.source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
        sites += check(&compiled.runtime);
    }
    assert!(sites > 0, "the corpus has branches");
}

#[test]
fn table_ids_equal_the_binary_search_on_d2() {
    check_contracts(&d2(1).contracts);
}

#[test]
fn table_ids_equal_the_binary_search_on_d1() {
    check_contracts(&d1_small(4).contracts);
    check_contracts(&d1_large(2).contracts);
}

/// The 200 byte strings `tests/setup_pins.rs` digests (same generator and
/// seed): truncated pushes, jumps into push data and `JUMPI` at the last pc.
#[test]
fn table_ids_equal_the_binary_search_on_random_code() {
    let mut rng = SmallRng::seed_from_u64(0x5e70_9175);
    let sites: usize = (0..200).map(|_| check(&random_code(&mut rng))).sum();
    assert!(sites > 0, "the random strings have branches");
}
