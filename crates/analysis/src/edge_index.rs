//! Dense numbering of CFG branch edges.
//!
//! The campaign engine tracks branch coverage in a fixed-size atomic bitmap
//! (see `mufuzz::coverage`), which needs every possible branch edge of the
//! contract under test to have a small, stable integer id. [`EdgeIndex`]
//! assigns those ids at harness build time — from the [`ControlFlowGraph`],
//! from the pre-decoded instruction stream ([`EdgeIndex::from_program`]), or
//! from the block-lowered program the interpreter executes
//! ([`EdgeIndex::from_blocks`], what the harness uses). Each collects the
//! contract's `JUMPI` pcs in ascending order; the site of rank `r`
//! contributes two consecutive ids — `2 * r` for the fall-through edge and
//! `2 * r + 1` for the taken edge. Every `JUMPI` terminates exactly one
//! basic block, so the three numberings are identical by construction (and
//! asserted identical in the tests below).
//!
//! Because the numbering is a pure function of the bytecode, two harnesses
//! built from the same compiled contract always agree on every id, which is
//! what lets per-worker execution results be merged without translating
//! edges through a shared dictionary.

use crate::cfg::ControlFlowGraph;
use mufuzz_evm::{Address, BlockProgram, BranchEdge, DecodedProgram, Opcode};

/// A stable, dense `u32` numbering of the branch edges of one contract.
///
/// Ids are dense in `0..len()`, so a bitmap of `len()` bits can represent any
/// subset of the contract's branch edges.
///
/// Every branch record an execution logs is mapped to its id, so
/// [`EdgeIndex::id_of`] reads a dense `pc → rank` table built with the index
/// instead of searching the sites: one bounds-checked load, for a table of
/// 4 bytes per code byte up to the last `JUMPI`.
///
/// ```
/// use mufuzz_analysis::{ControlFlowGraph, EdgeIndex};
/// use mufuzz_evm::Address;
/// use mufuzz_lang::compile_source;
///
/// let compiled = compile_source(
///     "contract C { uint256 x; function f(uint256 v) public { if (v > 3) { x = v; } } }",
/// )
/// .unwrap();
/// let cfg = ControlFlowGraph::build(&compiled.runtime);
/// let index = EdgeIndex::build(&cfg, Address::from_low_u64(0xC0DE));
///
/// // Two ids per conditional branch, dense in 0..len().
/// assert_eq!(index.len(), cfg.total_branch_edges());
/// let edge = index.edge_of(0).unwrap();
/// assert_eq!(index.id_of(&edge), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    code_address: Address,
    /// The `JUMPI` pcs in ascending order; a site's position is its rank.
    sites: Vec<usize>,
    /// `ranks[pc]` is the rank of the site at `pc`, [`NO_SITE`] for a pc
    /// that is not a site; the table ends at the last site.
    ranks: Vec<u32>,
}

/// The rank table's entry for a pc that is not a `JUMPI` site.
const NO_SITE: u32 = u32::MAX;

impl EdgeIndex {
    /// Number the branch edges of `cfg`, attributing them to the contract
    /// deployed at `code_address`.
    pub fn build(cfg: &ControlFlowGraph, code_address: Address) -> EdgeIndex {
        EdgeIndex::from_sites(code_address, cfg.branches.keys().copied())
    }

    /// Number the branch edges from a pre-decoded instruction stream (code
    /// order), without re-scanning the bytecode or building a CFG.
    pub fn from_program(program: &DecodedProgram, code_address: Address) -> EdgeIndex {
        let sites = program
            .instructions()
            .iter()
            .filter(|i| i.op == Opcode::JumpI)
            .map(|i| i.pc as usize);
        EdgeIndex::from_sites(code_address, sites)
    }

    /// Number the branch edges at block granularity: one site per basic
    /// block that ends in a `JUMPI`, in block (= code) order.
    pub fn from_blocks(program: &BlockProgram, code_address: Address) -> EdgeIndex {
        let instrs = program.base().instructions();
        let sites = program
            .blocks()
            .iter()
            .map(|block| &instrs[block.instr_end as usize - 1])
            .filter(|last| last.op == Opcode::JumpI)
            .map(|last| last.pc as usize);
        EdgeIndex::from_sites(code_address, sites)
    }

    fn from_sites(code_address: Address, sites: impl Iterator<Item = usize>) -> EdgeIndex {
        let sites: Vec<usize> = sites.collect();
        debug_assert!(sites.windows(2).all(|w| w[0] < w[1]), "sites out of order");
        let mut ranks = vec![NO_SITE; sites.last().map_or(0, |&pc| pc + 1)];
        for (rank, &pc) in sites.iter().enumerate() {
            ranks[pc] = rank as u32;
        }
        EdgeIndex {
            code_address,
            sites,
            ranks,
        }
    }

    /// The dense id of `edge`, or `None` when the edge does not belong to the
    /// indexed contract (wrong address, or a pc that is not a `JUMPI` site).
    pub fn id_of(&self, edge: &BranchEdge) -> Option<u32> {
        if edge.code_address != self.code_address {
            return None;
        }
        let rank = *self.ranks.get(edge.pc)?;
        (rank != NO_SITE).then(|| rank * 2 + u32::from(edge.taken))
    }

    /// The edge behind a dense id (inverse of [`EdgeIndex::id_of`]).
    pub fn edge_of(&self, id: u32) -> Option<BranchEdge> {
        let pc = *self.sites.get(id as usize / 2)?;
        Some(BranchEdge {
            code_address: self.code_address,
            pc,
            taken: id % 2 == 1,
        })
    }

    /// Total number of branch edges (two per `JUMPI`); ids are `0..len()`.
    pub fn len(&self) -> usize {
        self.sites.len() * 2
    }

    /// True when the contract has no conditional branches.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The contract address the index attributes edges to.
    pub fn code_address(&self) -> Address {
        self.code_address
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_lang::compile_source;

    const SOURCE: &str = r#"
        contract C {
            uint256 total;
            function pay(uint256 v) public payable {
                if (v < 10) {
                    if (v % 2 == 0) { total += v; }
                }
            }
            function check() public { if (total > 5) { bug(); } }
        }
    "#;

    fn index() -> (ControlFlowGraph, EdgeIndex) {
        let compiled = compile_source(SOURCE).unwrap();
        let cfg = ControlFlowGraph::build(&compiled.runtime);
        let idx = EdgeIndex::build(&cfg, Address::from_low_u64(0xC0DE));
        (cfg, idx)
    }

    #[test]
    fn ids_are_dense_and_cover_every_edge() {
        let (cfg, idx) = index();
        assert_eq!(idx.len(), cfg.total_branch_edges());
        assert!(!idx.is_empty());
        // Every (pc, taken) pair maps to a distinct id in range, and the
        // mapping round-trips.
        let mut seen = vec![false; idx.len()];
        for pc in cfg.branches.keys() {
            for taken in [false, true] {
                let edge = BranchEdge {
                    code_address: idx.code_address(),
                    pc: *pc,
                    taken,
                };
                let id = idx.id_of(&edge).unwrap();
                assert!((id as usize) < idx.len());
                assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
                assert_eq!(idx.edge_of(id), Some(edge));
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn sibling_edges_share_a_branch_slot() {
        let (cfg, idx) = index();
        for pc in cfg.branches.keys() {
            let mk = |taken| BranchEdge {
                code_address: idx.code_address(),
                pc: *pc,
                taken,
            };
            let fall = idx.id_of(&mk(false)).unwrap();
            let taken = idx.id_of(&mk(true)).unwrap();
            assert_eq!(taken, fall + 1);
            assert_eq!(fall % 2, 0);
        }
    }

    #[test]
    fn program_numbering_matches_the_cfg_numbering() {
        // The decoded-stream constructor must assign exactly the ids the
        // CFG-based constructor assigns — the campaign's coverage bitmap
        // depends on the numbering being a pure function of the bytecode.
        let compiled = compile_source(SOURCE).unwrap();
        let cfg = ControlFlowGraph::build(&compiled.runtime);
        let program = DecodedProgram::decode(&compiled.runtime);
        let addr = Address::from_low_u64(0xC0DE);
        let from_cfg = EdgeIndex::build(&cfg, addr);
        let from_program = EdgeIndex::from_program(&program, addr);
        assert_eq!(from_cfg.len(), from_program.len());
        assert!(!from_program.is_empty());
        for id in 0..from_cfg.len() as u32 {
            assert_eq!(from_cfg.edge_of(id), from_program.edge_of(id));
        }
        for edge in (0..from_cfg.len() as u32).filter_map(|id| from_cfg.edge_of(id)) {
            assert_eq!(from_cfg.id_of(&edge), from_program.id_of(&edge));
        }
    }

    #[test]
    fn block_numbering_matches_the_program_and_cfg_numberings() {
        // The block-granular constructor (what the harness uses now) must
        // assign exactly the ids of the per-`JUMPI` constructors — coverage
        // bitmaps sized and indexed by block edges stay bit-compatible with
        // the historical numbering.
        use std::sync::Arc;
        let compiled = compile_source(SOURCE).unwrap();
        let cfg = ControlFlowGraph::build(&compiled.runtime);
        let program = Arc::new(DecodedProgram::decode(&compiled.runtime));
        let blocks = BlockProgram::lower(Arc::clone(&program));
        let addr = Address::from_low_u64(0xC0DE);
        let from_cfg = EdgeIndex::build(&cfg, addr);
        let from_program = EdgeIndex::from_program(&program, addr);
        let from_blocks = EdgeIndex::from_blocks(&blocks, addr);
        assert_eq!(from_blocks.len(), from_program.len());
        assert_eq!(from_blocks.len(), cfg.total_branch_edges());
        assert_eq!(
            from_blocks.len(),
            cfg.branch_blocks().count() * 2,
            "one branch site per JUMPI-terminated CFG block"
        );
        assert!(!from_blocks.is_empty());
        for id in 0..from_blocks.len() as u32 {
            assert_eq!(from_blocks.edge_of(id), from_program.edge_of(id));
            assert_eq!(from_blocks.edge_of(id), from_cfg.edge_of(id));
        }
        for edge in (0..from_blocks.len() as u32).filter_map(|id| from_blocks.edge_of(id)) {
            assert_eq!(from_blocks.id_of(&edge), from_program.id_of(&edge));
            assert_eq!(from_blocks.id_of(&edge), from_cfg.id_of(&edge));
        }
    }

    #[test]
    fn numbering_is_stable_across_builds() {
        let (cfg, idx) = index();
        let again = EdgeIndex::build(&cfg, idx.code_address());
        for id in 0..idx.len() as u32 {
            assert_eq!(idx.edge_of(id), again.edge_of(id));
        }
    }

    #[test]
    fn foreign_edges_have_no_id() {
        let (cfg, idx) = index();
        let pc = *cfg.branches.keys().next().unwrap();
        let foreign = BranchEdge {
            code_address: Address::from_low_u64(0xBEEF),
            pc,
            taken: true,
        };
        assert_eq!(idx.id_of(&foreign), None);
        let unknown_pc = BranchEdge {
            code_address: idx.code_address(),
            pc: usize::MAX,
            taken: false,
        };
        assert_eq!(idx.id_of(&unknown_pc), None);
        assert_eq!(idx.edge_of(u32::MAX), None);
    }

    #[test]
    fn branchless_code_yields_an_empty_index() {
        let cfg = ControlFlowGraph::build(&[]);
        let idx = EdgeIndex::build(&cfg, Address::from_low_u64(1));
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.edge_of(0), None);
    }
}
