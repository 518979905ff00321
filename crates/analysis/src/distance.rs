//! Branch-distance feedback (sFuzz-style, adopted by MuFuzz §IV-B).
//!
//! For every conditional branch a test input reaches but does not flip, the
//! distance measures how far the comparison operands are from flipping the
//! outcome. Smaller distance = closer to covering the missing edge. Distances
//! are normalised to `[0, 1)` so they compose across branches.

use mufuzz_evm::{BranchEdge, BranchRecord, ExecutionTrace, U256};
use std::collections::HashMap;

/// Normalise a raw distance to `[0, 1)`: `d / (d + 1)`.
pub fn normalize(distance: U256) -> f64 {
    let d = distance.to_f64_lossy();
    d / (d + 1.0)
}

/// The normalised distance an executed branch reports for its untaken edge.
/// [`DistanceMap::from_trace`] keeps the minimum per edge; a caller that
/// needs only the overall minimum can fold this over the branch records.
pub fn untaken_distance(branch: &BranchRecord) -> f64 {
    normalize(branch.flip_distance())
}

/// The per-uncovered-edge distance information extracted from one execution.
#[derive(Clone, Debug, Default)]
pub struct DistanceMap {
    /// For each branch edge that was *not* taken while its sibling edge was
    /// executed, the normalised distance to flipping the branch.
    pub distances: HashMap<BranchEdge, f64>,
}

impl DistanceMap {
    /// Extract distances from a trace: every executed `JUMPI` contributes a
    /// distance for its untaken edge.
    pub fn from_trace(trace: &ExecutionTrace) -> DistanceMap {
        let mut distances: HashMap<BranchEdge, f64> = HashMap::new();
        for branch in &trace.branches {
            let edge = branch.untaken_edge();
            let d = untaken_distance(branch);
            distances
                .entry(edge)
                .and_modify(|cur| {
                    if d < *cur {
                        *cur = d;
                    }
                })
                .or_insert(d);
        }
        DistanceMap { distances }
    }

    /// Distance to a specific uncovered edge; `None` when the branch was never
    /// reached by this execution.
    pub fn to_edge(&self, edge: &BranchEdge) -> Option<f64> {
        self.distances.get(edge).copied()
    }

    /// Minimum distance to any of the given uncovered edges. Unreached edges
    /// contribute nothing; if none are reached the result is `None`.
    pub fn min_distance<'a>(&self, edges: impl IntoIterator<Item = &'a BranchEdge>) -> Option<f64> {
        edges
            .into_iter()
            .filter_map(|e| self.to_edge(e))
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Number of edges with distance information.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// True if no branch was reached.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_evm::{Address, BranchRecord, CmpKind, Comparison, Taint};

    fn record(pc: usize, taken: bool, lhs: u64, rhs: u64) -> BranchRecord {
        BranchRecord {
            pc,
            dest: pc + 100,
            taken,
            cond_taint: Taint::empty(),
            comparison: Some(Comparison {
                pc: pc.saturating_sub(1),
                kind: CmpKind::Eq,
                lhs: U256::from_u64(lhs),
                rhs: U256::from_u64(rhs),
                taint: Taint::empty(),
            }),
            depth: 0,
            code_address: Address::from_low_u64(1),
        }
    }

    #[test]
    fn normalization_is_monotone_and_bounded() {
        assert_eq!(normalize(U256::ZERO), 0.0);
        let near = normalize(U256::from_u64(1));
        let far = normalize(U256::from_u64(1_000_000));
        assert!(near < far);
        assert!(far < 1.0);
        assert!(normalize(U256::MAX) <= 1.0);
    }

    #[test]
    fn closer_comparison_produces_smaller_distance() {
        let mut trace = ExecutionTrace::new();
        trace.branches.push(record(10, false, 100, 88));
        let close = DistanceMap::from_trace(&trace);

        let mut trace2 = ExecutionTrace::new();
        trace2.branches.push(record(10, false, 1000, 88));
        let far = DistanceMap::from_trace(&trace2);

        let edge = trace.branches[0].untaken_edge();
        assert!(close.to_edge(&edge).unwrap() < far.to_edge(&edge).unwrap());
    }

    #[test]
    fn keeps_minimum_distance_across_repeated_visits() {
        let mut trace = ExecutionTrace::new();
        trace.branches.push(record(10, false, 1000, 88));
        trace.branches.push(record(10, false, 90, 88));
        let map = DistanceMap::from_trace(&trace);
        let edge = trace.branches[0].untaken_edge();
        assert_eq!(map.len(), 1);
        assert!(map.to_edge(&edge).unwrap() < normalize(U256::from_u64(912)) + 1e-12);
        assert!((map.to_edge(&edge).unwrap() - normalize(U256::from_u64(2))).abs() < 1e-12);
    }

    #[test]
    fn unreached_branches_have_no_distance() {
        let trace = ExecutionTrace::new();
        let map = DistanceMap::from_trace(&trace);
        assert!(map.is_empty());
        let edge = BranchEdge {
            code_address: Address::from_low_u64(1),
            pc: 99,
            taken: true,
        };
        assert_eq!(map.to_edge(&edge), None);
        assert_eq!(map.min_distance([&edge]), None);
    }

    #[test]
    fn min_distance_over_multiple_targets() {
        let mut trace = ExecutionTrace::new();
        trace.branches.push(record(10, false, 90, 88));
        trace.branches.push(record(20, true, 500, 88));
        let map = DistanceMap::from_trace(&trace);
        let e1 = trace.branches[0].untaken_edge();
        let e2 = trace.branches[1].untaken_edge();
        let min = map.min_distance([&e1, &e2]).unwrap();
        assert!((min - normalize(U256::from_u64(2))).abs() < 1e-12);
    }
}
