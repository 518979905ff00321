//! Execution traces.
//!
//! The interpreter is fully instrumented: every branch decision, basic-block
//! transition, storage write, external call, arithmetic truncation and
//! self-destruct is recorded. The trace is the single source of truth for
//! branch coverage, branch-distance feedback, the dynamic energy adjustment
//! pre-fuzz pass, and all nine bug oracles.

use crate::opcode::Opcode;
use crate::types::Address;
use crate::u256::U256;
use std::collections::BTreeSet;
use std::fmt;

/// Lightweight taint labels propagated through the EVM stack.
///
/// Each stack word carries a small bit set describing which *sources of
/// interest* influenced it. The oracles consume these labels, e.g. the block
/// dependency oracle flags a `JUMPI`/`CALL` whose inputs carry [`Taint::BLOCK`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Taint(u16);

impl Taint {
    /// No taint.
    pub const NONE: Taint = Taint(0);
    /// Value derived from `TIMESTAMP` or `NUMBER`.
    pub const BLOCK: Taint = Taint(1 << 0);
    /// Value derived from `BALANCE`/`SELFBALANCE`.
    pub const BALANCE: Taint = Taint(1 << 1);
    /// Value derived from `CALLER` (`msg.sender`).
    pub const CALLER: Taint = Taint(1 << 2);
    /// Value derived from `ORIGIN` (`tx.origin`).
    pub const ORIGIN: Taint = Taint(1 << 3);
    /// Value derived from calldata (function arguments).
    pub const CALLDATA: Taint = Taint(1 << 4);
    /// Value derived from `CALLVALUE` (`msg.value`).
    pub const CALLVALUE: Taint = Taint(1 << 5);
    /// Value derived from the success flag or return data of an external call.
    pub const CALL_RESULT: Taint = Taint(1 << 6);
    /// Value loaded from persistent storage.
    pub const STORAGE: Taint = Taint(1 << 7);
    /// Value produced by an arithmetic instruction whose exact result was
    /// truncated to 256 bits (overflow/underflow). Lets the interpreter tell
    /// whether a truncated value later reaches persistent storage.
    pub const TRUNCATED: Taint = Taint(1 << 8);

    /// The empty taint set.
    pub const fn empty() -> Taint {
        Taint(0)
    }

    /// True if no labels are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two taint sets.
    pub const fn union(self, other: Taint) -> Taint {
        Taint(self.0 | other.0)
    }

    /// True if every label in `other` is present in `self`.
    pub const fn contains(self, other: Taint) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if `self` and `other` share at least one label.
    pub const fn intersects(self, other: Taint) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for Taint {
    type Output = Taint;
    fn bitor(self, rhs: Taint) -> Taint {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for Taint {
    fn bitor_assign(&mut self, rhs: Taint) {
        *self = self.union(rhs);
    }
}

impl fmt::Debug for Taint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Taint(none)");
        }
        let mut labels = Vec::new();
        for (bit, name) in [
            (Taint::BLOCK, "BLOCK"),
            (Taint::BALANCE, "BALANCE"),
            (Taint::CALLER, "CALLER"),
            (Taint::ORIGIN, "ORIGIN"),
            (Taint::CALLDATA, "CALLDATA"),
            (Taint::CALLVALUE, "CALLVALUE"),
            (Taint::CALL_RESULT, "CALL_RESULT"),
            (Taint::STORAGE, "STORAGE"),
        ] {
            if self.contains(bit) {
                labels.push(name);
            }
        }
        write!(f, "Taint({})", labels.join("|"))
    }
}

/// The comparison operator feeding a conditional branch, used for
/// branch-distance computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpKind {
    /// `LT` / `SLT`
    Lt,
    /// `GT` / `SGT`
    Gt,
    /// `EQ`
    Eq,
    /// `ISZERO` applied to a non-comparison value.
    IsZero,
}

/// The most recent comparison observed before a `JUMPI`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Comparison {
    /// Program counter of the comparison instruction.
    pub pc: usize,
    /// Kind of comparison.
    pub kind: CmpKind,
    /// Left operand.
    pub lhs: U256,
    /// Right operand.
    pub rhs: U256,
    /// Taint of both operands combined.
    pub taint: Taint,
}

impl Comparison {
    /// sFuzz-style branch distance: how far the operands are from flipping
    /// the comparison outcome. Zero means the comparison is exactly on the
    /// boundary; larger means further away.
    pub fn flip_distance(&self) -> U256 {
        match self.kind {
            CmpKind::Eq => self.lhs.abs_diff(self.rhs),
            CmpKind::Lt | CmpKind::Gt => self.lhs.abs_diff(self.rhs),
            CmpKind::IsZero => self.lhs,
        }
    }
}

/// A conditional branch (`JUMPI`) decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchRecord {
    /// Program counter of the `JUMPI` instruction.
    pub pc: usize,
    /// Jump destination on the taken edge.
    pub dest: usize,
    /// Whether the branch was taken (condition non-zero).
    pub taken: bool,
    /// Taint of the condition word.
    pub cond_taint: Taint,
    /// The comparison that produced the condition, when one was observed.
    pub comparison: Option<Comparison>,
    /// Call depth at which the branch executed.
    pub depth: usize,
    /// Address of the executing contract.
    pub code_address: Address,
}

impl BranchRecord {
    /// Identifier of the branch edge that executed: `(pc, taken)`.
    pub fn edge(&self) -> BranchEdge {
        BranchEdge {
            code_address: self.code_address,
            pc: self.pc,
            taken: self.taken,
        }
    }

    /// Identifier of the edge that did *not* execute.
    pub fn untaken_edge(&self) -> BranchEdge {
        BranchEdge {
            code_address: self.code_address,
            pc: self.pc,
            taken: !self.taken,
        }
    }

    /// Distance to flipping this branch outcome, from the comparison operands.
    pub fn flip_distance(&self) -> U256 {
        self.comparison
            .map(|c| c.flip_distance())
            .unwrap_or(U256::ONE)
    }
}

/// A branch edge: one of the two outcomes of a `JUMPI` in a given contract.
/// Branch coverage counts distinct executed edges, which is the paper's
/// "basic block transition" metric.
///
/// The derived `Ord` sorts by `(code_address, pc, taken)`; for a single
/// contract this matches the dense edge numbering the analysis layer assigns
/// (`mufuzz_analysis::EdgeIndex`), so sorted edge sets map to sorted id
/// lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchEdge {
    /// Contract whose code contains the branch.
    pub code_address: Address,
    /// Program counter of the `JUMPI`.
    pub pc: usize,
    /// Which outcome the edge denotes.
    pub taken: bool,
}

impl fmt::Display for BranchEdge {
    /// Compact `pc→outcome` rendering for coverage diagnostics, e.g.
    /// `jumpi@42↷taken` / `jumpi@42↓fallthrough`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jumpi@{}{}",
            self.pc,
            if self.taken {
                "↷taken"
            } else {
                "↓fallthrough"
            }
        )
    }
}

/// An arithmetic operation whose wrapped result differs from the exact
/// mathematical result (used by the integer overflow/underflow oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArithEvent {
    /// Program counter of the instruction.
    pub pc: usize,
    /// The arithmetic opcode (`ADD`, `SUB`, `MUL`, `EXP`).
    pub opcode: Opcode,
    /// Whether the exact result was truncated to 256 bits (over- or
    /// under-flow).
    pub truncated: bool,
    /// Taint of the operands.
    pub taint: Taint,
    /// Whether the wrapped result was subsequently written to storage within
    /// the same transaction (filled in lazily by the interpreter when an
    /// `SSTORE` consumes a truncated value).
    pub reached_storage: bool,
    /// Call depth at which the operation executed.
    pub depth: usize,
}

/// Kind of message call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Ordinary `CALL`.
    Call,
    /// `CALLCODE`.
    CallCode,
    /// `DELEGATECALL`.
    DelegateCall,
    /// `STATICCALL`.
    StaticCall,
}

/// An external call observed during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallEvent {
    /// Program counter of the call instruction.
    pub pc: usize,
    /// Which call instruction was used.
    pub kind: CallKind,
    /// Caller contract.
    pub from: Address,
    /// Callee address.
    pub to: Address,
    /// Value transferred.
    pub value: U256,
    /// Gas forwarded to the callee.
    pub gas: u64,
    /// Whether the callee completed successfully.
    pub success: bool,
    /// Whether the callee hit an `INVALID` instruction or other exception.
    pub callee_exception: bool,
    /// Whether the success flag was later consumed by a `JUMPI`
    /// (filled in lazily; `false` means the result was ignored).
    pub result_checked: bool,
    /// Call depth of the *caller* frame.
    pub depth: usize,
    /// Function selector of the caller frame, when known.
    pub caller_selector: Option<[u8; 4]>,
    /// Taint of the callee address / argument words.
    pub arg_taint: Taint,
    /// Whether a guard on `msg.sender` (a `JUMPI` consuming CALLER taint) was
    /// executed in the caller frame before this call.
    pub caller_guarded: bool,
}

/// A self-destruct observed during execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfDestructEvent {
    /// Program counter of the `SELFDESTRUCT`.
    pub pc: usize,
    /// Contract that destroyed itself.
    pub contract: Address,
    /// Beneficiary of the remaining balance.
    pub beneficiary: Address,
    /// Whether a guard on `msg.sender` was executed before the instruction.
    pub caller_guarded: bool,
    /// Taint of the beneficiary word.
    pub beneficiary_taint: Taint,
}

/// A persistent storage write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageWrite {
    /// Program counter of the `SSTORE`.
    pub pc: usize,
    /// Contract whose storage was written.
    pub contract: Address,
    /// Storage slot.
    pub slot: U256,
    /// Previous value.
    pub old: U256,
    /// New value.
    pub new: U256,
    /// Taint of the stored value.
    pub taint: Taint,
}

/// Why an execution frame stopped.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum HaltReason {
    /// `STOP` or `RETURN`.
    #[default]
    Normal,
    /// `REVERT` was executed.
    Revert,
    /// `INVALID` was executed.
    Invalid,
    /// Out of gas.
    OutOfGas,
    /// Stack underflow/overflow or bad jump destination.
    Fault(String),
}

impl HaltReason {
    /// True if the frame completed without exception.
    pub fn is_success(&self) -> bool {
        matches!(self, HaltReason::Normal)
    }
}

/// 256-bit presence set over opcode bytes: which opcodes a transaction
/// executed, at any call depth. Two words of bit arithmetic per membership
/// operation — cheap enough to update on every dispatched instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpcodeSet([u64; 4]);

impl OpcodeSet {
    /// Mark `op` as executed.
    #[inline(always)]
    pub fn insert(&mut self, op: Opcode) {
        let byte = op.to_byte() as usize;
        self.0[byte >> 6] |= 1 << (byte & 63);
    }

    /// True if `op` was marked.
    #[inline]
    pub fn contains(&self, op: Opcode) -> bool {
        let byte = op.to_byte() as usize;
        self.0[byte >> 6] & (1 << (byte & 63)) != 0
    }

    /// OR another set into this one (bulk insert). Four word ORs — what a
    /// fused dispatch arm pays to mark a whole superinstruction's opcodes,
    /// precomputed at lowering time, instead of one [`OpcodeSet::insert`]
    /// per constituent.
    #[inline(always)]
    pub fn merge(&mut self, other: OpcodeSet) {
        self.0[0] |= other.0[0];
        self.0[1] |= other.0[1];
        self.0[2] |= other.0[2];
        self.0[3] |= other.0[3];
    }
}

/// An executed opcode byte the interpreter does not implement. The frame
/// halts exceptionally (consuming its remaining gas budget like `INVALID`),
/// and the event records where the conformance surface fell short so
/// ingested real-bytecode campaigns can report unsupported instructions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConformanceEvent {
    /// Program counter of the unimplemented byte.
    pub pc: usize,
    /// The raw opcode byte.
    pub byte: u8,
    /// Call depth of the halting frame.
    pub depth: usize,
}

/// Instrumentation record of a single top-level transaction execution.
///
/// `PartialEq` compares every recorded event — the tier differential suite
/// relies on it to assert that the block tier traces bit-identically to the
/// pre-decoded reference.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Number of executed instructions across all frames. A plain counter:
    /// nothing downstream replays the instruction stream, so the interpreter
    /// does not materialise it — the heavy analysis data lives in the
    /// dedicated event vectors below.
    pub instr_count: u64,
    /// Presence set of every opcode executed at any depth.
    pub ops_seen: OpcodeSet,
    /// Conditional branch decisions in execution order.
    pub branches: Vec<BranchRecord>,
    /// Distinct branch edges exercised.
    pub covered_edges: BTreeSet<BranchEdge>,
    /// Arithmetic truncation events.
    pub arith_events: Vec<ArithEvent>,
    /// External calls.
    pub calls: Vec<CallEvent>,
    /// Self-destructs.
    pub self_destructs: Vec<SelfDestructEvent>,
    /// Storage writes.
    pub storage_writes: Vec<StorageWrite>,
    /// Selectors of the functions entered in this transaction (outermost frame).
    pub entered_selector: Option<[u8; 4]>,
    /// Maximum call depth reached.
    pub max_depth: usize,
    /// Whether a re-entrant call (callee calling back into an ancestor frame's
    /// contract) occurred.
    pub reentered: bool,
    /// Total gas consumed.
    pub gas_used: u64,
    /// Why the outermost frame halted.
    pub halt: HaltReason,
    /// Conformance-tagged events: opcode bytes outside the implemented
    /// surface that were executed (each one is an exceptional halt of its
    /// frame).
    pub conformance: Vec<ConformanceEvent>,
}

impl ExecutionTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        ExecutionTrace {
            halt: HaltReason::Normal,
            ..Default::default()
        }
    }

    /// True if the outermost frame completed successfully.
    pub fn success(&self) -> bool {
        self.halt.is_success()
    }

    /// Number of executed instructions across all frames.
    pub fn instruction_count(&self) -> usize {
        self.instr_count as usize
    }

    /// True if any executed instruction at any depth matches the opcode.
    pub fn contains_opcode(&self, op: Opcode) -> bool {
        self.ops_seen.contains(op)
    }

    /// Record one executed instruction: bump the count and mark the opcode.
    #[inline(always)]
    pub fn record_instr(&mut self, op: Opcode) {
        self.instr_count += 1;
        self.ops_seen.insert(op);
    }

    /// Record a whole dispatch unit at once: `count` constituent
    /// instructions whose opcodes are `mask` (precomputed at lowering time).
    /// Equivalent to `count` [`ExecutionTrace::record_instr`] calls over the
    /// unit's constituents, in one counter bump and four word ORs.
    #[inline(always)]
    pub fn record_unit(&mut self, mask: OpcodeSet, count: u32) {
        self.instr_count += u64::from(count);
        self.ops_seen.merge(mask);
    }

    /// Iterate over the branch records belonging to a particular contract.
    pub fn branches_of(&self, address: Address) -> impl Iterator<Item = &BranchRecord> {
        self.branches
            .iter()
            .filter(move |b| b.code_address == address)
    }

    /// Merge the coverage of another trace into an accumulated edge set.
    pub fn merge_edges_into(&self, acc: &mut BTreeSet<BranchEdge>) -> usize {
        let before = acc.len();
        acc.extend(self.covered_edges.iter().copied());
        acc.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taint_set_operations() {
        let t = Taint::BLOCK | Taint::CALLER;
        assert!(t.contains(Taint::BLOCK));
        assert!(t.contains(Taint::CALLER));
        assert!(!t.contains(Taint::BALANCE));
        assert!(t.intersects(Taint::CALLER | Taint::ORIGIN));
        assert!(!t.intersects(Taint::ORIGIN));
        assert!(Taint::empty().is_empty());
        assert!(!t.is_empty());
    }

    #[test]
    fn taint_debug_lists_labels() {
        let t = Taint::BLOCK | Taint::STORAGE;
        let s = format!("{t:?}");
        assert!(s.contains("BLOCK"));
        assert!(s.contains("STORAGE"));
        assert_eq!(format!("{:?}", Taint::empty()), "Taint(none)");
    }

    #[test]
    fn comparison_flip_distance() {
        let c = Comparison {
            pc: 0,
            kind: CmpKind::Eq,
            lhs: U256::from_u64(100),
            rhs: U256::from_u64(88),
            taint: Taint::empty(),
        };
        assert_eq!(c.flip_distance(), U256::from_u64(12));
        let z = Comparison {
            kind: CmpKind::IsZero,
            lhs: U256::from_u64(7),
            rhs: U256::ZERO,
            ..c
        };
        assert_eq!(z.flip_distance(), U256::from_u64(7));
    }

    #[test]
    fn branch_edges_distinguish_outcomes() {
        let rec = BranchRecord {
            pc: 10,
            dest: 40,
            taken: true,
            cond_taint: Taint::empty(),
            comparison: None,
            depth: 0,
            code_address: Address::from_low_u64(1),
        };
        assert_ne!(rec.edge(), rec.untaken_edge());
        assert_eq!(rec.edge().pc, rec.untaken_edge().pc);
        assert_eq!(rec.flip_distance(), U256::ONE);
        assert_eq!(format!("{}", rec.edge()), "jumpi@10↷taken");
        assert_eq!(format!("{}", rec.untaken_edge()), "jumpi@10↓fallthrough");
    }

    #[test]
    fn branch_edge_ordering_groups_siblings() {
        let edge = |pc, taken| BranchEdge {
            code_address: Address::from_low_u64(1),
            pc,
            taken,
        };
        // (pc, fallthrough) sorts immediately before (pc, taken), and both
        // before any higher pc — the property the dense edge numbering
        // relies on.
        let mut edges = vec![edge(9, false), edge(4, true), edge(9, true), edge(4, false)];
        edges.sort();
        assert_eq!(
            edges,
            vec![edge(4, false), edge(4, true), edge(9, false), edge(9, true)]
        );
    }

    #[test]
    fn halt_reason_success() {
        assert!(HaltReason::Normal.is_success());
        assert!(!HaltReason::Revert.is_success());
        assert!(!HaltReason::Fault("stack underflow".into()).is_success());
    }

    #[test]
    fn trace_edge_merging_counts_new_edges() {
        let mut trace = ExecutionTrace::new();
        let edge = |pc, taken| BranchEdge {
            code_address: Address::from_low_u64(1),
            pc,
            taken,
        };
        trace.covered_edges.insert(edge(1, true));
        trace.covered_edges.insert(edge(1, false));
        let mut acc = BTreeSet::new();
        acc.insert(edge(1, true));
        let added = trace.merge_edges_into(&mut acc);
        assert_eq!(added, 1);
        assert_eq!(acc.len(), 2);
    }
}
