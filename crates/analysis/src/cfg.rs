//! Control-flow graph over compiled bytecode.
//!
//! The CFG provides:
//! * enumeration of all conditional branches (`JUMPI`) and therefore the
//!   total number of branch edges — the denominator of the paper's branch
//!   coverage metric,
//! * per-branch static nesting depth (how many conditional branches dominate
//!   the path from the function entry), used to identify "deeply nested"
//!   branches for the mask-guided mutation,
//! * forward reachability of *vulnerable instructions* (`CALL`,
//!   `DELEGATECALL`, `SELFDESTRUCT`, `TIMESTAMP`, ...) from each branch, used
//!   by the dynamic energy adjustment (paper §IV-C, Algorithm 3).
//!
//! Jump targets are recovered with a peephole over the `PUSH`/`JUMP(I)`
//! pattern the `mufuzz-lang` compiler emits.
//!
//! [`ControlFlowGraph::from_program`] does linear, allocation-free work per
//! instruction, plus a binary search per static jump target and per
//! successor edge. It reads the code as the interpreter's decoder
//! ([`DecodedProgram`]) left it — a campaign passes the program its harness
//! already decoded, and [`ControlFlowGraph::build`] decodes a code blob
//! first — marks block leaders in one pass over the
//! instructions and cuts the blocks in a second. Blocks tile the code, so a
//! fall-through successor is the next block. Nesting depths come from a 0-1
//! breadth-first search over block indices. Reachability gives every block
//! one bitset over the contract's vulnerable instructions and repeats a
//! linear pass over the blocks, unioning each successor's set into its
//! predecessor's, until a pass changes nothing; each chain of back edges
//! can cost one more pass.

use mufuzz_evm::{DecodedInstr, DecodedProgram, Opcode};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A basic block of the CFG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// Program counter of the first instruction.
    pub start: usize,
    /// Program counter one past the last instruction.
    pub end: usize,
    /// Successor block start pcs.
    pub successors: Vec<usize>,
    /// Whether the block ends in a conditional branch.
    pub is_branch: bool,
}

/// A conditional branch site in the code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchSite {
    /// Program counter of the `JUMPI`.
    pub pc: usize,
    /// Taken-edge destination, if statically known.
    pub taken_target: Option<usize>,
    /// Fall-through destination.
    pub fallthrough: usize,
    /// Static nesting depth: number of conditional branches on the shortest
    /// path from the code entry to this branch.
    pub nesting_depth: usize,
    /// Vulnerable instruction pcs reachable from this branch.
    pub reachable_vulnerable: BTreeSet<usize>,
}

impl BranchSite {
    /// The paper calls a branch *nested* when it sits under at least two
    /// conditional statements.
    pub fn is_nested(&self) -> bool {
        self.nesting_depth >= 2
    }
}

/// Control-flow graph of one contract's runtime code.
#[derive(Clone, Debug, Default)]
pub struct ControlFlowGraph {
    /// Basic blocks keyed by start pc.
    pub blocks: BTreeMap<usize, BasicBlock>,
    /// Conditional branch sites keyed by `JUMPI` pc.
    pub branches: BTreeMap<usize, BranchSite>,
    /// All vulnerable-instruction pcs in the code.
    pub vulnerable_pcs: BTreeSet<usize>,
}

/// The statically known target of the jump at `instrs[i]`: the value the
/// instruction right before it pushes. `None` for a jump with no push before
/// it, a target too wide for a pc, or an instruction that is not a jump.
fn static_target(instrs: &[DecodedInstr], i: usize) -> Option<usize> {
    if !matches!(instrs[i].op, Opcode::Jump | Opcode::JumpI) {
        return None;
    }
    let push = &instrs[i.checked_sub(1)?];
    match push.op {
        Opcode::Push(_) => push.imm.to_usize(),
        _ => None,
    }
}

/// Successor block indices in compressed-row form: block `b`'s successors
/// are `to[from[b]..from[b + 1]]`.
struct Edges {
    from: Vec<usize>,
    to: Vec<usize>,
}

impl Edges {
    fn of(&self, block: usize) -> &[usize] {
        &self.to[self.from[block]..self.from[block + 1]]
    }
}

impl ControlFlowGraph {
    /// Build the CFG for a code blob.
    pub fn build(code: &[u8]) -> ControlFlowGraph {
        ControlFlowGraph::from_program(&DecodedProgram::decode(code))
    }

    /// Build the CFG from already-decoded code: equal to
    /// [`ControlFlowGraph::build`] over the bytes `program` was decoded from.
    pub fn from_program(program: &DecodedProgram) -> ControlFlowGraph {
        let instrs = program.instructions();
        if instrs.is_empty() {
            return ControlFlowGraph::default();
        }

        // Block leaders, by instruction index: the first instruction, static
        // jump targets, jump destinations and the instruction after a jump or
        // a terminator. A target inside push data or past the end of the
        // code is no instruction's pc and marks nothing.
        let mut leader = vec![false; instrs.len() + 1];
        leader[0] = true;
        for (i, instr) in instrs.iter().enumerate() {
            if instr.op.is_terminator() {
                leader[i + 1] = true;
            }
            if instr.op == Opcode::JumpDest {
                leader[i] = true;
            }
            if let Some(target) = static_target(instrs, i) {
                if let Ok(t) = instrs.binary_search_by_key(&target, |x| x.pc as usize) {
                    leader[t] = true;
                }
            }
        }

        // Cut the blocks: `firsts[b]` is block `b`'s first instruction, and
        // the last entry closes the final block.
        let mut firsts: Vec<usize> = (0..instrs.len()).filter(|&i| leader[i]).collect();
        firsts.push(instrs.len());
        let block_count = firsts.len() - 1;
        let starts: Vec<usize> = firsts[..block_count]
            .iter()
            .map(|&i| instrs[i].pc as usize)
            .collect();

        let mut blocks = Vec::with_capacity(block_count);
        let mut edges = Edges {
            from: Vec::with_capacity(block_count + 1),
            to: Vec::with_capacity(2 * block_count),
        };
        for b in 0..block_count {
            let last_index = firsts[b + 1] - 1;
            let last = &instrs[last_index];
            let next = starts.get(b + 1).copied();
            let mut successors = Vec::with_capacity(2);
            match last.op {
                Opcode::Jump => successors.extend(static_target(instrs, last_index)),
                Opcode::JumpI => {
                    successors.extend(static_target(instrs, last_index));
                    successors.extend(next);
                }
                Opcode::Stop
                | Opcode::Return
                | Opcode::Revert
                | Opcode::Invalid
                | Opcode::SelfDestruct => {}
                _ => successors.extend(next),
            }
            edges.from.push(edges.to.len());
            edges.to.extend(
                successors
                    .iter()
                    .filter_map(|pc| starts.binary_search(pc).ok()),
            );
            blocks.push(BasicBlock {
                start: starts[b],
                end: last.pc as usize + 1 + last.op.immediate_size(),
                successors,
                is_branch: last.op == Opcode::JumpI,
            });
        }
        edges.from.push(edges.to.len());

        let depth = nesting_depths(&blocks, &edges);
        let vulnerable: Vec<usize> = instrs
            .iter()
            .filter(|i| i.op.is_vulnerable_instruction())
            .map(|i| i.pc as usize)
            .collect();
        let words = vulnerable.len().div_ceil(64);
        let reach = reachable_vulnerable(instrs, &firsts, &edges, words);

        let mut branches = BTreeMap::new();
        let mut union = vec![0u64; words];
        for (b, block) in blocks.iter().enumerate().filter(|(_, b)| b.is_branch) {
            union.fill(0);
            for &s in edges.of(b) {
                for (u, r) in union.iter_mut().zip(&reach[s * words..(s + 1) * words]) {
                    *u |= r;
                }
            }
            let jumpi = firsts[b + 1] - 1;
            let pc = instrs[jumpi].pc as usize;
            branches.insert(
                pc,
                BranchSite {
                    pc,
                    taken_target: static_target(instrs, jumpi),
                    fallthrough: block.end,
                    nesting_depth: depth[b] + 1,
                    reachable_vulnerable: set_bits(&union).map(|k| vulnerable[k]).collect(),
                },
            );
        }

        ControlFlowGraph {
            blocks: blocks.into_iter().map(|b| (b.start, b)).collect(),
            branches,
            vulnerable_pcs: vulnerable.into_iter().collect(),
        }
    }

    /// Total number of branch edges (two per `JUMPI`) — the coverage
    /// denominator. Coverage is block-edge granular: every `JUMPI`
    /// terminates exactly one basic block, so this equals two edges per
    /// [`ControlFlowGraph::branch_blocks`] entry and matches the bitmap
    /// sizing derived from the interpreter's block-lowered program
    /// (`EdgeIndex::from_blocks`).
    pub fn total_branch_edges(&self) -> usize {
        self.branches.len() * 2
    }

    /// The basic blocks that end in a conditional branch, in code order —
    /// one per `JUMPI` site, the block-granular view of the branch map.
    pub fn branch_blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.values().filter(|b| b.is_branch)
    }

    /// Branches whose static nesting depth marks them as deeply nested.
    pub fn nested_branches(&self) -> impl Iterator<Item = &BranchSite> {
        self.branches.values().filter(|b| b.is_nested())
    }

    /// Branches from which at least one vulnerable instruction is reachable.
    pub fn vulnerable_branches(&self) -> impl Iterator<Item = &BranchSite> {
        self.branches
            .values()
            .filter(|b| !b.reachable_vulnerable.is_empty())
    }
}

/// Each block's depth: the fewest branch blocks on a path from the entry
/// block to it, 0 for a block the entry does not reach. A 0-1 breadth-first
/// search, since leaving a branch block costs one and leaving any other
/// block costs nothing.
fn nesting_depths(blocks: &[BasicBlock], edges: &Edges) -> Vec<usize> {
    let mut depth = vec![usize::MAX; blocks.len()];
    let mut queue = VecDeque::from([0]);
    depth[0] = 0;
    while let Some(b) = queue.pop_front() {
        let cost = usize::from(blocks[b].is_branch);
        let next = depth[b] + cost;
        for &s in edges.of(b) {
            if next < depth[s] {
                depth[s] = next;
                if cost == 0 {
                    queue.push_front(s);
                } else {
                    queue.push_back(s);
                }
            }
        }
    }
    for d in &mut depth {
        if *d == usize::MAX {
            *d = 0;
        }
    }
    depth
}

/// Per block, `words` bits over the code's vulnerable instructions (bit `k`
/// for the `k`-th in code order): those in the block or in any block it
/// reaches. Starts from each block's own instructions and unions every
/// successor's set into its predecessor's, last block first, until a pass
/// changes nothing: the least fixed point, which is unique.
fn reachable_vulnerable(
    instrs: &[DecodedInstr],
    firsts: &[usize],
    edges: &Edges,
    words: usize,
) -> Vec<u64> {
    let block_count = firsts.len() - 1;
    let mut reach = vec![0u64; block_count * words];
    if words == 0 {
        return reach;
    }
    let mut k = 0;
    for b in 0..block_count {
        for instr in &instrs[firsts[b]..firsts[b + 1]] {
            if instr.op.is_vulnerable_instruction() {
                reach[b * words + k / 64] |= 1 << (k % 64);
                k += 1;
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..block_count).rev() {
            for &s in edges.of(b) {
                for w in 0..words {
                    let merged = reach[b * words + w] | reach[s * words + w];
                    if merged != reach[b * words + w] {
                        reach[b * words + w] = merged;
                        changed = true;
                    }
                }
            }
        }
    }
    reach
}

/// Indices of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(w * 64 + bit)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_lang::compile_source;

    const NESTED: &str = r#"
        contract Nested {
            uint256 total;
            mapping(address => uint256) balance;
            function play(uint256 number) public payable {
                require(msg.value == 88);
                if (number < 100) {
                    if (number % 2 == 0) {
                        balance[msg.sender] += msg.value * 10;
                    } else {
                        balance[msg.sender] += msg.value * 5;
                    }
                }
                total += 1;
            }
            function drain() public {
                if (total > 3) {
                    msg.sender.transfer(total);
                }
            }
        }
    "#;

    fn cfg() -> ControlFlowGraph {
        ControlFlowGraph::build(&compile_source(NESTED).unwrap().runtime)
    }

    #[test]
    fn blocks_tile_the_code_from_zero() {
        let compiled = compile_source(NESTED).unwrap();
        let cfg = ControlFlowGraph::build(&compiled.runtime);
        assert!(!cfg.blocks.is_empty());
        // Each block starts where the previous one ended, the first at pc 0,
        // and the last ends at the end of the code.
        let mut next = 0;
        for (&start, block) in &cfg.blocks {
            assert_eq!(start, block.start);
            assert_eq!(block.start, next);
            assert!(block.end > block.start);
            next = block.end;
        }
        assert_eq!(next, compiled.runtime.len());
    }

    #[test]
    fn finds_all_conditional_branches() {
        let cfg = cfg();
        // Dispatcher: 2 selector comparisons. play: value-guard on require +
        // require + 2 ifs. drain: non-payable guard + if. At least 7 JUMPIs.
        assert!(cfg.branches.len() >= 7, "found {}", cfg.branches.len());
        assert_eq!(cfg.total_branch_edges(), cfg.branches.len() * 2);
    }

    #[test]
    fn branch_successors_are_recorded() {
        let cfg = cfg();
        for branch in cfg.branches.values() {
            assert!(branch.taken_target.is_some());
            assert!(branch.fallthrough > branch.pc);
        }
    }

    #[test]
    fn nesting_depth_increases_for_inner_branches() {
        let cfg = cfg();
        let depths: Vec<usize> = cfg.branches.values().map(|b| b.nesting_depth).collect();
        let max = depths.iter().copied().max().unwrap();
        let min = depths.iter().copied().min().unwrap();
        // The innermost if in `play` is much deeper than dispatcher branches.
        assert!(max >= 4, "max depth {max}");
        assert_eq!(min, 1);
        assert!(cfg.nested_branches().count() >= 1);
    }

    #[test]
    fn vulnerable_reachability_covers_transfer_branch() {
        let cfg = cfg();
        // The CALL inside drain() must be reachable from at least one branch.
        assert!(!cfg.vulnerable_pcs.is_empty());
        assert!(cfg.vulnerable_branches().count() >= 1);
        // Some branch (e.g. inside play after the transfer-free paths) should
        // not reach every vulnerable instruction — reachability is not a
        // constant map.
        let reach_sizes: BTreeSet<usize> = cfg
            .branches
            .values()
            .map(|b| b.reachable_vulnerable.len())
            .collect();
        assert!(reach_sizes.len() > 1);
    }

    #[test]
    fn straight_line_code_has_no_branches() {
        let compiled = compile_source(
            "contract Line { uint256 x; function set(uint256 v) public payable { x = v; } }",
        )
        .unwrap();
        let cfg = ControlFlowGraph::build(&compiled.runtime);
        // Only the dispatcher selector comparison remains.
        assert_eq!(cfg.branches.len(), 1);
    }

    #[test]
    fn empty_code_produces_empty_cfg() {
        let cfg = ControlFlowGraph::build(&[]);
        assert!(cfg.blocks.is_empty());
        assert_eq!(cfg.total_branch_edges(), 0);
    }
}
