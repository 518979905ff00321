//! Dynamic-adaptive energy adjustment (paper §IV-C, Algorithm 3).
//!
//! During a pre-fuzz pass every executed path is weighted: each conditional
//! branch along the path contributes its nesting score, and branches from
//! which a *vulnerable instruction* (external call, delegatecall,
//! self-destruct, block-state read, ...) is reachable receive an extra bonus.
//! Seeds whose paths carry more weight receive proportionally more mutation
//! energy in later rounds, so deep and security-relevant branches get a fair
//! share of the fuzzing budget.

use crate::input::Seed;
use mufuzz_analysis::ControlFlowGraph;
use mufuzz_evm::ExecutionTrace;

/// Extra weight for a branch from which a vulnerable instruction is reachable.
pub const VULNERABLE_BONUS: f64 = 2.0;

/// Weight of a single executed path (Algorithm 3): the running nested score
/// plus vulnerability bonuses, averaged over the branches on the path so long
/// paths do not dominate purely by length.
pub fn path_weight(trace: &ExecutionTrace, cfg: &ControlFlowGraph) -> f64 {
    if trace.branches.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    let mut nested_score = 0usize;
    let mut max_branch_weight: f64 = 0.0;
    for branch in &trace.branches {
        nested_score += 1;
        let static_depth = cfg
            .branches
            .get(&branch.pc)
            .map(|site| site.nesting_depth)
            .unwrap_or(nested_score);
        let vulnerable = cfg
            .branches
            .get(&branch.pc)
            .map(|site| !site.reachable_vulnerable.is_empty())
            .unwrap_or(false);
        let w = static_depth as f64 + if vulnerable { VULNERABLE_BONUS } else { 0.0 };
        total += w;
        max_branch_weight = max_branch_weight.max(w);
    }
    let avg = total / trace.branches.len() as f64;
    // Reward both the typical depth of the path and the deepest branch it
    // reached.
    (avg + max_branch_weight) / 2.0
}

/// Weight of a seed = mean path weight over its transaction traces.
pub fn seed_weight(traces: &[ExecutionTrace], cfg: &ControlFlowGraph) -> f64 {
    if traces.is_empty() {
        return 1.0;
    }
    let sum: f64 = traces.iter().map(|t| path_weight(t, cfg)).sum();
    (sum / traces.len() as f64).max(1.0)
}

/// Mean seed weight of a corpus view — Algorithm 3's normalisation base.
///
/// The "view" may be a free-running worker's shard mirror of the corpus, or
/// the global corpus a round barrier freezes into a
/// [`RoundView`](crate::config::DeterminismProfile::Round) — both paths call
/// this so the normalisation arithmetic — a plain
/// sum-then-divide, kept deliberately order-dependent-free — is identical to
/// the bit. Round mode computes the mean once per round at the barrier and
/// freezes it into the view, so every slot allocates energy from the same
/// denominator no matter which admissions other slots are staging.
pub fn corpus_mean_weight(seeds: &[Seed]) -> f64 {
    if seeds.is_empty() {
        return 1.0;
    }
    seeds.iter().map(|s| s.weight).sum::<f64>() / seeds.len() as f64
}

/// Energy (number of mutants) allocated to a seed.
///
/// With dynamic adjustment the allocation is proportional to the seed's weight
/// relative to the corpus mean, clamped to `[base/2, 4*base]`; without it,
/// every seed receives the base energy (the sFuzz-style default scheme used in
/// the ablation).
pub fn allocate_energy(weight: f64, mean_weight: f64, base: usize, dynamic: bool) -> usize {
    if !dynamic {
        return base.max(1);
    }
    let mean = if mean_weight <= 0.0 { 1.0 } else { mean_weight };
    let ratio = (weight / mean).clamp(0.5, 4.0);
    ((base as f64 * ratio).round() as usize).max(1)
}

/// Cross-campaign scheduling priority: the exponentially smoothed marginal
/// coverage per execution.
///
/// The fleet scheduler ranks campaigns by how much new coverage each recent
/// execution bought (`new_edges / executions` over the window since the last
/// refresh) and smooths it against the previous score so one lucky batch does
/// not monopolise the pool. Campaigns that stopped discovering edges decay
/// toward zero and yield their slots to fresher submissions.
pub fn marginal_coverage_priority(previous: f64, new_edges: usize, executions: usize) -> f64 {
    if executions == 0 {
        return previous;
    }
    let marginal = new_edges as f64 / executions as f64;
    0.5 * previous + 0.5 * marginal
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_evm::{Address, BranchRecord, Taint};

    fn branch(pc: usize) -> BranchRecord {
        BranchRecord {
            pc,
            dest: pc + 10,
            taken: true,
            cond_taint: Taint::empty(),
            comparison: None,
            depth: 0,
            code_address: Address::from_low_u64(1),
        }
    }

    fn trace_with_branches(pcs: &[usize]) -> ExecutionTrace {
        let mut t = ExecutionTrace::new();
        for &pc in pcs {
            t.branches.push(branch(pc));
        }
        t
    }

    #[test]
    fn empty_trace_has_unit_weight() {
        let cfg = ControlFlowGraph::default();
        assert_eq!(path_weight(&ExecutionTrace::new(), &cfg), 1.0);
        assert_eq!(seed_weight(&[], &cfg), 1.0);
    }

    #[test]
    fn deeper_paths_weigh_more() {
        let cfg = ControlFlowGraph::default();
        let shallow = trace_with_branches(&[1]);
        let deep = trace_with_branches(&[1, 2, 3, 4, 5]);
        assert!(path_weight(&deep, &cfg) > path_weight(&shallow, &cfg));
    }

    #[test]
    fn vulnerable_reachability_adds_bonus() {
        use mufuzz_analysis::BranchSite;
        use std::collections::BTreeSet;
        let mut cfg = ControlFlowGraph::default();
        cfg.branches.insert(
            10,
            BranchSite {
                pc: 10,
                taken_target: Some(20),
                fallthrough: 12,
                nesting_depth: 1,
                reachable_vulnerable: BTreeSet::from([42]),
            },
        );
        cfg.branches.insert(
            30,
            BranchSite {
                pc: 30,
                taken_target: Some(40),
                fallthrough: 32,
                nesting_depth: 1,
                reachable_vulnerable: BTreeSet::new(),
            },
        );
        let vulnerable = trace_with_branches(&[10]);
        let benign = trace_with_branches(&[30]);
        assert!(path_weight(&vulnerable, &cfg) > path_weight(&benign, &cfg));
    }

    #[test]
    fn energy_allocation_scales_with_weight_when_dynamic() {
        let heavy = allocate_energy(8.0, 2.0, 10, true);
        let light = allocate_energy(1.0, 2.0, 10, true);
        let fixed = allocate_energy(8.0, 2.0, 10, false);
        assert!(heavy > light);
        assert_eq!(fixed, 10);
        assert_eq!(heavy, 40); // clamped at 4x
        assert_eq!(light, 5); // clamped at 0.5x
    }

    #[test]
    fn corpus_mean_weight_matches_the_arithmetic_mean() {
        use crate::input::{Seed, Sequence};
        let mut seeds: Vec<Seed> = (0..4).map(|_| Seed::new(Sequence::default())).collect();
        for (i, seed) in seeds.iter_mut().enumerate() {
            seed.weight = (i + 1) as f64;
        }
        assert_eq!(corpus_mean_weight(&seeds), 2.5);
        assert_eq!(corpus_mean_weight(&[]), 1.0);
    }

    #[test]
    fn marginal_priority_rewards_discovery_and_decays_without_it() {
        // A productive window raises the score toward its marginal rate...
        let hot = marginal_coverage_priority(0.0, 50, 100);
        assert!(hot > 0.2);
        // ...a dry window halves the previous score...
        let cooling = marginal_coverage_priority(hot, 0, 100);
        assert_eq!(cooling, hot / 2.0);
        // ...and an empty window (no executions yet) changes nothing.
        assert_eq!(marginal_coverage_priority(0.75, 9, 0), 0.75);
    }

    #[test]
    fn energy_is_always_at_least_one() {
        assert!(allocate_energy(0.0, 0.0, 0, true) >= 1);
        assert!(allocate_energy(1.0, 1.0, 0, false) >= 1);
    }
}
