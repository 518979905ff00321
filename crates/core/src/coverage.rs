//! The campaign's shared coverage map: a fixed-size atomic bitmap over the
//! dense branch-edge ids assigned by [`mufuzz_analysis::EdgeIndex`].
//!
//! Since the interpreter was lowered to basic blocks, the bitmap is sized
//! from the block-granular edge numbering (`EdgeIndex::from_blocks`): two
//! bits per `JUMPI`-terminated block. Every `JUMPI` terminates exactly one
//! block, so the count — and each edge's id — is provably identical to the
//! historical per-`JUMPI` numbering, and snapshots taken before the lowering
//! remain comparable bit for bit.
//!
//! Workers merge the edges covered by every execution with plain
//! `AtomicU64::fetch_or` word updates — no mutex, no allocation — so the
//! coverage bookkeeping of the feedback loop scales with the worker count
//! instead of serialising on the campaign state lock. Each bit transitions
//! from 0 to 1 exactly once, and `fetch_or` returns the previous word, so
//! the worker whose merge flips a bit is the unique observer of that
//! transition: per-execution "new edge" counts are exact even under
//! arbitrary interleaving, and their sum equals the global covered count.
//!
//! Edges that the index cannot number (in practice none: the index is built
//! from the same bytecode the interpreter executes) fall back to a tiny
//! mutex-guarded overflow set so no coverage is ever silently dropped.
//!
//! The module also hosts [`SchedulerEpoch`], the atomic generation counter
//! the seed scheduler uses to publish corpus changes to the workers'
//! local shard mirrors — the other half of keeping the campaign's per-batch
//! feedback loop lock-free.

use mufuzz_analysis::EdgeIndex;
use mufuzz_evm::BranchEdge;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotone generation counter publishing scheduling-state changes to the
/// workers' corpus shards.
///
/// The campaign bumps the epoch (while holding the state lock) whenever the
/// corpus changes in a way shard mirrors must observe — a seed admission or
/// a culling pass. Workers compare the published epoch against their shard's
/// stamp with a single atomic load before every draw; steady-state draws
/// (no corpus change since the last resync) therefore touch no lock at all.
///
/// Publication uses `Release` and reads use `Acquire` so a worker that
/// observes a bumped epoch also observes every write that preceded the bump.
/// (Shard resyncs re-read the corpus under the mutex anyway; the ordering
/// makes the fast-path check independently sound.)
///
/// ```
/// use mufuzz::coverage::SchedulerEpoch;
///
/// let epoch = SchedulerEpoch::new();
/// let stamp = epoch.current();
/// assert_eq!(stamp, 0);
/// epoch.bump();
/// assert!(epoch.current() > stamp); // stale shards resync before drawing
/// ```
#[derive(Debug, Default)]
pub struct SchedulerEpoch(AtomicU64);

impl SchedulerEpoch {
    /// A fresh counter at epoch zero.
    pub fn new() -> SchedulerEpoch {
        SchedulerEpoch::default()
    }

    /// Publish a new generation; returns the bumped epoch value.
    pub fn bump(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Release) + 1
    }

    /// The current generation.
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A concurrent branch-edge coverage bitmap.
///
/// Bit `i` records whether the edge with dense id `i` has been covered by
/// any execution of the campaign. All operations are lock-free on the bitmap
/// path and safe to call from any number of worker threads.
///
/// ```
/// use mufuzz::coverage::CoverageMap;
///
/// let map = CoverageMap::new(130); // ids 0..130, i.e. three 64-bit words
/// assert_eq!(map.merge_ids(&[0, 1, 129]), 3); // three new edges
/// assert_eq!(map.merge_ids(&[1, 129]), 0);    // nothing new the second time
/// assert!(map.is_covered(129));
/// assert!(!map.is_covered(2));
/// assert_eq!(map.covered_count(), 3);
/// ```
#[derive(Debug)]
pub struct CoverageMap {
    /// One bit per dense edge id, packed into 64-bit words.
    words: Vec<AtomicU64>,
    /// Number of addressable edge ids (bits).
    edges: usize,
    /// Edges the index could not number. Expected to stay empty; kept so a
    /// surprising edge (e.g. from foreign code) is still counted rather than
    /// silently lost.
    overflow: Mutex<BTreeSet<BranchEdge>>,
}

impl CoverageMap {
    /// Create an empty map able to track `edges` dense ids (`0..edges`).
    pub fn new(edges: usize) -> CoverageMap {
        let words = (0..edges.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        CoverageMap {
            words,
            edges,
            overflow: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of addressable edge ids.
    pub fn capacity(&self) -> usize {
        self.edges
    }

    /// Merge a batch of covered edge ids and return how many were new.
    ///
    /// `ids` is expected sorted (as produced by the execution harness); runs
    /// of ids falling in the same 64-bit word are coalesced into a single
    /// `fetch_or`. Ids outside `0..capacity()` are ignored.
    pub fn merge_ids(&self, ids: &[u32]) -> usize {
        let mut new_edges = 0usize;
        let mut i = 0;
        while i < ids.len() {
            let word_index = (ids[i] / 64) as usize;
            let mut mask = 0u64;
            while i < ids.len() && (ids[i] / 64) as usize == word_index {
                if (ids[i] as usize) < self.edges {
                    mask |= 1u64 << (ids[i] % 64);
                }
                i += 1;
            }
            if mask != 0 {
                let previous = self.words[word_index].fetch_or(mask, Ordering::Relaxed);
                new_edges += (mask & !previous).count_ones() as usize;
            }
        }
        new_edges
    }

    /// True if the edge with dense id `id` has been covered.
    pub fn is_covered(&self, id: u32) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        (id as usize) < self.edges && self.words[word].load(Ordering::Relaxed) & (1u64 << bit) != 0
    }

    /// True if `edge` has been covered, resolving it through `index` (and the
    /// overflow set for edges the index cannot number).
    pub fn contains_edge(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        match index.id_of(edge) {
            Some(id) => self.is_covered(id),
            None => self
                .overflow
                .lock()
                .expect("coverage overflow poisoned")
                .contains(edge),
        }
    }

    /// Merge the edges of `covered` that the index cannot number into the
    /// overflow set, returning how many were new. Indexed edges are skipped —
    /// they are expected to arrive through [`CoverageMap::merge_ids`].
    pub fn merge_unindexed(&self, covered: &BTreeSet<BranchEdge>, index: &EdgeIndex) -> usize {
        let mut overflow = self.overflow.lock().expect("coverage overflow poisoned");
        let before = overflow.len();
        overflow.extend(
            covered
                .iter()
                .filter(|edge| index.id_of(edge).is_none())
                .copied(),
        );
        overflow.len() - before
    }

    /// Export the packed bitmap words for checkpoint serialization.
    ///
    /// Only the dense bitmap is exported; callers that need lossless
    /// snapshots must check [`CoverageMap::has_overflow`] first (the overflow
    /// set is expected to stay empty — see the module docs).
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Rebuild a map of `edges` ids from words previously exported by
    /// [`CoverageMap::snapshot_words`]. Missing words are zero-filled and
    /// excess words are dropped, so a capacity mismatch degrades to partial
    /// coverage instead of a panic.
    pub fn restore(edges: usize, snapshot: &[u64]) -> CoverageMap {
        let map = CoverageMap::new(edges);
        for (word, &value) in map.words.iter().zip(snapshot) {
            word.store(value, Ordering::Relaxed);
        }
        map
    }

    /// True if any covered edge had to detour through the overflow set (and
    /// would therefore be lost by [`CoverageMap::snapshot_words`]).
    pub fn has_overflow(&self) -> bool {
        !self
            .overflow
            .lock()
            .expect("coverage overflow poisoned")
            .is_empty()
    }

    /// Total number of distinct covered edges (bitmap population plus any
    /// overflow edges).
    pub fn covered_count(&self) -> usize {
        let bits: usize = self
            .words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum();
        bits + self
            .overflow
            .lock()
            .expect("coverage overflow poisoned")
            .len()
    }
}

/// A single-threaded coverage bitmap for round mode's frozen slot views.
///
/// Each round slot mutates against the coverage state frozen at the round
/// barrier plus its own discoveries; nothing is shared, so the atomic
/// machinery of [`CoverageMap`] is unnecessary. The bit numbering matches
/// `CoverageMap` word for word — a slot view is seeded directly from
/// [`CoverageMap::snapshot_words`].
///
/// Edges the index cannot number are deliberately *not* tracked: a slot only
/// uses its local map to decide candidacy, and the round barrier re-merges
/// candidates into the shared map (which does track overflow), so nothing is
/// lost — an unindexed edge simply cannot make a mutant a candidate.
///
/// ```
/// use mufuzz::coverage::{CoverageMap, LocalCoverage};
///
/// let shared = CoverageMap::new(130);
/// shared.merge_ids(&[0, 129]);
/// let mut local = LocalCoverage::from_words(130, shared.snapshot_words());
/// assert_eq!(local.merge_ids(&[0, 1, 129]), 1); // only id 1 is new locally
/// assert!(local.is_covered(1));
/// assert_eq!(local.covered_count(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct LocalCoverage {
    /// One bit per dense edge id, packed into 64-bit words.
    words: Vec<u64>,
    /// Number of addressable edge ids (bits).
    edges: usize,
}

impl LocalCoverage {
    /// Build a local map of `edges` ids seeded from packed bitmap words (as
    /// exported by [`CoverageMap::snapshot_words`]). Missing words are
    /// zero-filled and excess words dropped, mirroring
    /// [`CoverageMap::restore`].
    pub fn from_words(edges: usize, mut words: Vec<u64>) -> LocalCoverage {
        words.resize(edges.div_ceil(64), 0);
        LocalCoverage { words, edges }
    }

    /// Merge a batch of covered edge ids and return how many were new to
    /// this local map. `ids` is expected sorted; out-of-range ids are
    /// ignored — the same contract as [`CoverageMap::merge_ids`].
    pub fn merge_ids(&mut self, ids: &[u32]) -> usize {
        let mut new_edges = 0usize;
        for &id in ids {
            if (id as usize) < self.edges {
                let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
                if self.words[word] & bit == 0 {
                    self.words[word] |= bit;
                    new_edges += 1;
                }
            }
        }
        new_edges
    }

    /// True if the edge with dense id `id` is covered in this local view.
    pub fn is_covered(&self, id: u32) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        (id as usize) < self.edges && self.words[word] & (1u64 << bit) != 0
    }

    /// True if `edge` is covered in this local view, resolving it through
    /// `index`. Unindexed edges report uncovered (see the type docs).
    pub fn contains_edge(&self, edge: &BranchEdge, index: &EdgeIndex) -> bool {
        index.id_of(edge).is_some_and(|id| self.is_covered(id))
    }

    /// Number of covered edges in this local view.
    pub fn covered_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_analysis::ControlFlowGraph;
    use mufuzz_evm::Address;
    use std::thread;

    #[test]
    fn epoch_bumps_are_monotone_and_observable_across_threads() {
        let epoch = SchedulerEpoch::new();
        assert_eq!(epoch.current(), 0);
        assert_eq!(epoch.bump(), 1);
        assert_eq!(epoch.bump(), 2);
        assert_eq!(epoch.current(), 2);
        // Concurrent bumps never lose a generation.
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        epoch.bump();
                    }
                });
            }
        });
        assert_eq!(epoch.current(), 402);
    }

    #[test]
    fn merge_counts_only_new_bits() {
        let map = CoverageMap::new(200);
        assert_eq!(map.merge_ids(&[0, 63, 64, 199]), 4);
        assert_eq!(map.merge_ids(&[0, 63, 64, 199]), 0);
        assert_eq!(map.merge_ids(&[1, 63, 198, 199]), 2);
        assert_eq!(map.covered_count(), 6);
        assert!(map.is_covered(198));
        assert!(!map.is_covered(100));
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let map = CoverageMap::new(10);
        assert_eq!(map.capacity(), 10);
        assert_eq!(map.merge_ids(&[9, 10, 11, 5_000]), 1);
        assert!(!map.is_covered(10));
        assert!(!map.is_covered(5_000));
        assert_eq!(map.covered_count(), 1);
    }

    #[test]
    fn empty_map_accepts_merges() {
        let map = CoverageMap::new(0);
        assert_eq!(map.merge_ids(&[]), 0);
        assert_eq!(map.merge_ids(&[0, 1]), 0);
        assert_eq!(map.covered_count(), 0);
    }

    #[test]
    fn concurrent_merges_produce_the_exact_union() {
        // 8 threads repeatedly merge overlapping id slices; the per-merge
        // "new edge" counts must sum to exactly the final population, i.e.
        // every 0→1 transition is observed exactly once.
        let map = CoverageMap::new(1024);
        let total_new: usize = thread::scope(|scope| {
            let handles: Vec<_> = (0..8u32)
                .map(|t| {
                    let map = &map;
                    scope.spawn(move || {
                        let mut new_edges = 0usize;
                        for round in 0..50u32 {
                            let ids: Vec<u32> =
                                (0..1024).filter(|id| (id + t + round) % 3 != 0).collect();
                            new_edges += map.merge_ids(&ids);
                        }
                        new_edges
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total_new, map.covered_count());
        assert_eq!(map.covered_count(), 1024);
    }

    #[test]
    fn snapshot_words_round_trip_restores_the_bitmap() {
        let map = CoverageMap::new(200);
        map.merge_ids(&[0, 63, 64, 130, 199]);
        assert!(!map.has_overflow());
        let restored = CoverageMap::restore(200, &map.snapshot_words());
        assert_eq!(restored.covered_count(), map.covered_count());
        for id in [0u32, 63, 64, 130, 199] {
            assert!(restored.is_covered(id));
        }
        assert!(!restored.is_covered(1));
        // Restoring into a larger capacity zero-fills the missing words.
        let grown = CoverageMap::restore(300, &map.snapshot_words());
        assert_eq!(grown.covered_count(), 5);
    }

    #[test]
    fn local_coverage_mirrors_the_shared_bitmap_semantics() {
        let shared = CoverageMap::new(200);
        shared.merge_ids(&[0, 63, 64, 199]);
        let mut local = LocalCoverage::from_words(200, shared.snapshot_words());
        assert_eq!(local.covered_count(), 4);
        // Only locally-new bits count; out-of-range ids are ignored.
        assert_eq!(local.merge_ids(&[0, 1, 199, 200, 5_000]), 1);
        assert!(local.is_covered(1));
        assert!(!local.is_covered(2));
        assert!(!local.is_covered(5_000));
        assert_eq!(local.covered_count(), 5);
        // Local merges never leak back into the shared map.
        assert_eq!(shared.covered_count(), 4);
        // Growing the capacity zero-fills; a fresh slot view from the
        // updated shared words sees exactly the shared population.
        let grown = LocalCoverage::from_words(300, shared.snapshot_words());
        assert_eq!(grown.covered_count(), 4);
    }

    #[test]
    fn local_coverage_reports_unindexed_edges_uncovered() {
        let cfg = ControlFlowGraph::build(&[]);
        let index = EdgeIndex::build(&cfg, Address::from_low_u64(1));
        let local = LocalCoverage::from_words(index.len(), Vec::new());
        let edge = BranchEdge {
            code_address: Address::from_low_u64(2),
            pc: 7,
            taken: true,
        };
        assert!(!local.contains_edge(&edge, &index));
    }

    #[test]
    fn unindexed_edges_flow_into_the_overflow_set() {
        let cfg = ControlFlowGraph::build(&[]);
        let index = EdgeIndex::build(&cfg, Address::from_low_u64(1));
        let map = CoverageMap::new(index.len());
        let edge = BranchEdge {
            code_address: Address::from_low_u64(2),
            pc: 7,
            taken: true,
        };
        let covered: BTreeSet<BranchEdge> = [edge].into_iter().collect();
        assert!(!map.contains_edge(&edge, &index));
        assert_eq!(map.merge_unindexed(&covered, &index), 1);
        assert_eq!(map.merge_unindexed(&covered, &index), 0);
        assert!(map.contains_edge(&edge, &index));
        assert_eq!(map.covered_count(), 1);
    }
}
