//! # mufuzz-analysis
//!
//! Static analyses powering the three MuFuzz components:
//!
//! * [`dataflow`] — state-variable read/write sets, branch-condition reads and
//!   read-after-write detection over the AST (feeds the sequence-aware
//!   mutation, paper §IV-A),
//! * [`depgraph`] — the write-before-read function dependency order and the
//!   [`SequencePlan`] (base ordering + repetition candidates),
//! * [`cfg`](mod@cfg) — a bytecode control-flow graph with branch
//!   enumeration, static
//!   nesting depth and vulnerable-instruction reachability (feeds the
//!   mask-guided mutation and the dynamic energy adjustment, §IV-B/C),
//! * [`edge_index`] — a dense, stable `u32` numbering of the CFG's branch
//!   edges, the basis of the campaign engine's lock-free atomic coverage
//!   bitmap,
//! * [`distance`] — sFuzz-style branch-distance feedback extracted from
//!   execution traces (§IV-B).
//!
//! ```
//! use mufuzz_analysis::{analyze_contract, plan_sequence, ControlFlowGraph};
//! use mufuzz_lang::compile_source;
//!
//! let compiled = compile_source(
//!     "contract C {
//!          uint256 total;
//!          function add(uint256 x) public { total += x; }
//!          function check() public { if (total > 10) { bug(); } }
//!      }",
//! )
//! .unwrap();
//! let flow = analyze_contract(&compiled.contract);
//! let plan = plan_sequence(&flow);
//! assert_eq!(plan.base_order[0], "add");
//! let cfg = ControlFlowGraph::build(&compiled.runtime);
//! assert!(cfg.total_branch_edges() > 0);
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod depgraph;
pub mod distance;
pub mod edge_index;

pub use cfg::{BasicBlock, BranchSite, ControlFlowGraph};
pub use dataflow::{analyze_contract, analyze_function, DataFlowInfo, FunctionAccess};
pub use depgraph::{plan_sequence, SequencePlan};
pub use distance::{normalize, untaken_distance, DistanceMap};
pub use edge_index::EdgeIndex;
