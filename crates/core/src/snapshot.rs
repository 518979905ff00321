//! Versioned campaign checkpoints.
//!
//! A [`CampaignSnapshot`] freezes a paused campaign — corpus, coverage
//! bitmap, timeline, per-lane RNG streams and oracle monitors, and the
//! execution/time budget already spent — into a self-contained value that
//! round-trips through a compact binary encoding ([`CampaignSnapshot::to_bytes`]
//! / [`CampaignSnapshot::from_bytes`]). Resuming a single-lane snapshot on the
//! same contract and configuration continues the campaign bit-for-bit where it
//! left off (see `tests/fleet_service.rs`).
//!
//! The encoding is deliberately hand-rolled: a `b"MUFZ"` magic, a `u32`
//! format version, then length-prefixed little-endian fields. Every read is
//! bounds-checked, unknown versions are rejected outright, and the snapshot
//! carries an FNV-1a fingerprint of the contract's runtime bytecode and name
//! so a snapshot cannot silently resume against the wrong contract.

use crate::campaign::CoveragePoint;
use crate::executor::HarnessError;
use crate::input::{Seed, Sequence, TxInput};
use crate::mutation::MutationMask;
use crate::replay::FindingRecord;
use mufuzz_lang::CompiledContract;
use mufuzz_oracles::{BugClass, BugFinding, MonitorState};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Magic bytes opening every serialized snapshot.
const MAGIC: [u8; 4] = *b"MUFZ";
/// Current snapshot format version. Version 2 added the determinism profile
/// tag and the round counter; version-1 streams (pre-round-mode) are rejected
/// rather than guessed at.
const VERSION: u32 = 2;

/// Wire tag for [`DeterminismProfile::FreeRunning`](crate::DeterminismProfile).
pub(crate) const PROFILE_FREE_RUNNING: u8 = 0;
/// Wire tag for [`DeterminismProfile::Round`](crate::DeterminismProfile).
pub(crate) const PROFILE_ROUND: u8 = 1;

/// Everything needed to resume a paused campaign.
///
/// Produced by `CampaignHandle::checkpoint` on a paused campaign and consumed
/// by `CampaignService::resume`. The struct is opaque; use
/// [`CampaignSnapshot::to_bytes`] to persist it and
/// [`CampaignSnapshot::from_bytes`] to load it back.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSnapshot {
    pub(crate) contract_hash: u64,
    pub(crate) rng_seed: u64,
    pub(crate) lanes: u32,
    pub(crate) profile: u8,
    pub(crate) round: u64,
    pub(crate) max_executions: u64,
    pub(crate) executions: u64,
    pub(crate) elapsed_ms: u64,
    pub(crate) coverage_edges: u64,
    pub(crate) coverage_words: Vec<u64>,
    pub(crate) next_uid: u64,
    pub(crate) admitted_since_cull: u64,
    pub(crate) culled: u64,
    pub(crate) corpus: Vec<Seed>,
    pub(crate) timeline: Vec<CoveragePoint>,
    pub(crate) shapes: Vec<String>,
    pub(crate) lane_states: Vec<LaneState>,
    /// Replayable finding records accumulated so far (round mode only;
    /// empty under the free-running profile). Carried so a resumed round
    /// campaign finishes with the same record list as an uninterrupted one.
    pub(crate) records: Vec<FindingRecord>,
}

/// Frozen per-lane state: the lane's RNG stream and oracle monitor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneState {
    pub(crate) rng: [u64; 4],
    pub(crate) monitor: MonitorState,
}

impl CampaignSnapshot {
    /// Executions already spent when the snapshot was taken.
    pub fn executions(&self) -> usize {
        self.executions as usize
    }

    /// Number of campaign lanes the snapshot was taken with. A free-running
    /// snapshot resumes only at this lane count (`config.workers`); a
    /// round-mode snapshot resumes at any worker count.
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Corpus size at the pause point.
    pub fn corpus_size(&self) -> usize {
        self.corpus.len()
    }

    /// Wall-clock milliseconds already spent when the snapshot was taken
    /// (resumed campaigns count their time budget from here).
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ms
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(256 + self.coverage_words.len() * 8);
        w.extend_from_slice(&MAGIC);
        put_u32(&mut w, VERSION);
        put_u64(&mut w, self.contract_hash);
        put_u64(&mut w, self.rng_seed);
        put_u32(&mut w, self.lanes);
        w.push(self.profile);
        put_u64(&mut w, self.round);
        put_u64(&mut w, self.max_executions);
        put_u64(&mut w, self.executions);
        put_u64(&mut w, self.elapsed_ms);
        put_u64(&mut w, self.coverage_edges);
        put_u64(&mut w, self.coverage_words.len() as u64);
        for word in &self.coverage_words {
            put_u64(&mut w, *word);
        }
        put_u64(&mut w, self.next_uid);
        put_u64(&mut w, self.admitted_since_cull);
        put_u64(&mut w, self.culled);
        put_u64(&mut w, self.corpus.len() as u64);
        for seed in &self.corpus {
            put_seed(&mut w, seed);
        }
        put_u64(&mut w, self.timeline.len() as u64);
        for point in &self.timeline {
            put_u64(&mut w, point.executions as u64);
            put_u64(&mut w, point.elapsed_ms);
            put_u64(&mut w, point.covered_edges as u64);
            put_u64(&mut w, point.coverage.to_bits());
        }
        put_u64(&mut w, self.shapes.len() as u64);
        for shape in &self.shapes {
            put_str(&mut w, shape);
        }
        put_u64(&mut w, self.lane_states.len() as u64);
        for lane in &self.lane_states {
            for word in lane.rng {
                put_u64(&mut w, word);
            }
            put_monitor(&mut w, &lane.monitor);
        }
        put_u64(&mut w, self.records.len() as u64);
        for record in &self.records {
            put_bytes(&mut w, &record.to_bytes());
        }
        w
    }

    /// Parse a snapshot from its binary form, rejecting bad magic, unknown
    /// versions, truncated input, and input that decodes to a state no
    /// campaign can be in (see `check_consistency`).
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignSnapshot, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let contract_hash = r.u64()?;
        let rng_seed = r.u64()?;
        let lanes = r.u32()?;
        let profile = r.u8()?;
        if profile > PROFILE_ROUND {
            return Err(SnapshotError::Corrupt(format!(
                "bad determinism profile tag {profile}"
            )));
        }
        let round = r.u64()?;
        let max_executions = r.u64()?;
        let executions = r.u64()?;
        let elapsed_ms = r.u64()?;
        let coverage_edges = r.u64()?;
        let n_words = r.len()?;
        let mut coverage_words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            coverage_words.push(r.u64()?);
        }
        let next_uid = r.u64()?;
        let admitted_since_cull = r.u64()?;
        let culled = r.u64()?;
        let n_seeds = r.len()?;
        let mut corpus = Vec::with_capacity(n_seeds);
        for _ in 0..n_seeds {
            corpus.push(take_seed(&mut r)?);
        }
        let n_points = r.len()?;
        let mut timeline = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            timeline.push(CoveragePoint {
                executions: r.u64()? as usize,
                elapsed_ms: r.u64()?,
                covered_edges: r.u64()? as usize,
                coverage: f64::from_bits(r.u64()?),
            });
        }
        let n_shapes = r.len()?;
        let mut shapes = Vec::with_capacity(n_shapes);
        for _ in 0..n_shapes {
            shapes.push(r.string()?);
        }
        let n_lanes = r.len()?;
        let mut lane_states = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            let monitor = take_monitor(&mut r)?;
            lane_states.push(LaneState { rng, monitor });
        }
        let n_records = r.len()?;
        let mut records = Vec::with_capacity(n_records);
        for _ in 0..n_records {
            let raw = r.byte_vec()?;
            records.push(
                FindingRecord::from_bytes(&raw)
                    .map_err(|e| SnapshotError::Corrupt(format!("bad finding record: {e}")))?,
            );
        }
        if r.pos != bytes.len() {
            return Err(SnapshotError::Corrupt("trailing bytes".into()));
        }
        let snapshot = CampaignSnapshot {
            contract_hash,
            rng_seed,
            lanes,
            profile,
            round,
            max_executions,
            executions,
            elapsed_ms,
            coverage_edges,
            coverage_words,
            next_uid,
            admitted_since_cull,
            culled,
            corpus,
            timeline,
            shapes,
            lane_states,
            records,
        };
        snapshot.check_consistency()?;
        Ok(snapshot)
    }

    /// The invariants every checkpoint of a real campaign satisfies: the
    /// coverage bitmap has exactly the words its edge count needs and no bit
    /// past the last edge, every seed's edges are in range, seed uids are
    /// distinct and below the next uid to hand out, the budget covers the
    /// executions spent, and the lane states fit the profile (one per lane
    /// when free-running, one master state in round mode).
    fn check_consistency(&self) -> Result<(), SnapshotError> {
        let corrupt = |what: String| Err(SnapshotError::Corrupt(what));
        let edges = self.coverage_edges;
        if self.coverage_words.len() as u64 != edges.div_ceil(64) {
            return corrupt(format!(
                "{} coverage words for {edges} edges",
                self.coverage_words.len()
            ));
        }
        if let Some(&last) = self.coverage_words.last() {
            let used = edges % 64;
            if used != 0 && last >> used != 0 {
                return corrupt(format!("coverage bit set past edge {edges}"));
            }
        }
        let mut uids = BTreeSet::new();
        for seed in &self.corpus {
            if let Some(id) = seed.covered_edge_ids.iter().find(|&&id| id as u64 >= edges) {
                return corrupt(format!("seed {} covers edge {id} of {edges}", seed.uid));
            }
            if seed.uid >= self.next_uid || !uids.insert(seed.uid) {
                return corrupt(format!(
                    "seed uid {} duplicated or not below the next uid {}",
                    seed.uid, self.next_uid
                ));
            }
        }
        if self.executions > self.max_executions {
            return corrupt(format!(
                "{} executions past the budget of {}",
                self.executions, self.max_executions
            ));
        }
        let expected = if self.profile == PROFILE_ROUND {
            1
        } else {
            self.lanes()
        };
        if self.lane_states.len() != expected {
            return corrupt(format!(
                "{} lane states for {} lane(s) (expected {expected})",
                self.lane_states.len(),
                self.lanes
            ));
        }
        Ok(())
    }
}

/// Why a snapshot could not be taken, parsed, or resumed.
#[derive(Debug)]
pub enum SnapshotError {
    /// The byte stream ended before the encoded fields did.
    Truncated,
    /// The stream does not open with the `MUFZ` magic.
    BadMagic,
    /// The stream's format version is not one this build can read.
    UnsupportedVersion(u32),
    /// The snapshot was taken from a different contract than the one
    /// offered for resume.
    ContractMismatch,
    /// The snapshot was taken under a different determinism profile than
    /// the resume configuration selects.
    ProfileMismatch {
        /// Profile tag frozen in the snapshot (`0` free-running, `1` round).
        snapshot: u8,
        /// Profile tag the resume configuration selects.
        config: u8,
    },
    /// The resume configuration's lane count differs from the snapshot's.
    LaneMismatch {
        /// Lanes frozen in the snapshot.
        snapshot: usize,
        /// Lanes requested by `config.workers`.
        config: usize,
    },
    /// The snapshot has already spent more executions than the resume
    /// configuration's budget allows.
    BudgetExceeded {
        /// Executions frozen in the snapshot.
        executions: usize,
        /// The resume configuration's `max_executions()`.
        budget: usize,
    },
    /// Checkpoint was requested while the campaign was not paused.
    NotPaused,
    /// The contract failed to deploy while rebuilding the campaign.
    Harness(HarnessError),
    /// The stream decoded to structurally invalid data.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a campaign snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::ContractMismatch => {
                write!(f, "snapshot was taken from a different contract")
            }
            SnapshotError::ProfileMismatch { snapshot, config } => {
                let name = |tag: &u8| match *tag {
                    PROFILE_ROUND => "round",
                    _ => "free-running",
                };
                write!(
                    f,
                    "snapshot was taken under the {} profile but the config selects {}",
                    name(snapshot),
                    name(config)
                )
            }
            SnapshotError::LaneMismatch { snapshot, config } => write!(
                f,
                "snapshot has {snapshot} lane(s) but the config asks for {config} worker(s)"
            ),
            SnapshotError::BudgetExceeded { executions, budget } => write!(
                f,
                "snapshot has run {executions} executions, beyond the budget of {budget}"
            ),
            SnapshotError::NotPaused => {
                write!(f, "campaign is not paused; pause it before checkpointing")
            }
            SnapshotError::Harness(e) => write!(f, "harness error during resume: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<HarnessError> for SnapshotError {
    fn from(e: HarnessError) -> SnapshotError {
        SnapshotError::Harness(e)
    }
}

/// FNV-1a fingerprint of a contract's runtime bytecode and name — the
/// identity a snapshot is bound to.
pub(crate) fn contract_fingerprint(compiled: &CompiledContract) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&compiled.runtime);
    eat(compiled.name.as_bytes());
    hash
}

/// An incremental FNV-1a hasher over the snapshot wire encoding — the digest
/// primitive behind `CampaignReport`'s corpus/coverage digests and the
/// finding-record integrity hash. Same offset basis and prime as
/// [`contract_fingerprint`], kept tiny and dependency-free on purpose.
#[derive(Debug, Clone)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// writer helpers (shared with the finding-record encoding in `replay`)
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(w: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(w, bytes.len() as u64);
    w.extend_from_slice(bytes);
}

pub(crate) fn put_str(w: &mut Vec<u8>, s: &str) {
    put_bytes(w, s.as_bytes());
}

pub(crate) fn put_seed(w: &mut Vec<u8>, seed: &Seed) {
    put_u64(w, seed.uid);
    put_u64(w, seed.sequence.txs.len() as u64);
    for tx in &seed.sequence.txs {
        put_str(w, &tx.function);
        put_u64(w, tx.sender_index as u64);
        put_bytes(w, &tx.stream);
    }
    put_u64(w, seed.covered_edge_ids.len() as u64);
    for id in &seed.covered_edge_ids {
        put_u32(w, *id);
    }
    put_u64(w, seed.new_edges as u64);
    w.push(seed.hits_nested_branch as u8);
    put_u64(w, seed.weight.to_bits());
    match seed.best_distance {
        Some(d) => {
            w.push(1);
            put_u64(w, d.to_bits());
        }
        None => w.push(0),
    }
    put_u64(w, seed.selections as u64);
    match &seed.masks {
        Some(masks) => {
            w.push(1);
            put_u64(w, masks.len() as u64);
            for mask in masks {
                put_bytes(w, mask.as_bytes());
            }
        }
        None => w.push(0),
    }
    w.push(seed.masks_pending as u8);
}

fn put_monitor(w: &mut Vec<u8>, state: &MonitorState) {
    put_u64(w, state.findings.len() as u64);
    for finding in &state.findings {
        let class_index = BugClass::ALL
            .iter()
            .position(|c| *c == finding.class)
            .expect("bug class missing from BugClass::ALL") as u8;
        w.push(class_index);
        match &finding.function {
            Some(name) => {
                w.push(1);
                put_str(w, name);
            }
            None => w.push(0),
        }
        put_u64(w, finding.pc as u64);
        put_str(w, &finding.detail);
    }
    put_u64(w, state.call_value_invocations.len() as u64);
    for (function, count) in &state.call_value_invocations {
        put_str(w, function);
        put_u64(w, *count as u64);
    }
    w.push(state.held_balance as u8);
}

// ---------------------------------------------------------------------------
// reader helpers
// ---------------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bad bool tag {other}"))),
        }
    }

    /// A length prefix, sanity-bounded by the bytes actually remaining so a
    /// corrupt length cannot drive a huge allocation.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    pub(crate) fn byte_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> Result<String, SnapshotError> {
        let raw = self.byte_vec()?;
        String::from_utf8(raw).map_err(|_| SnapshotError::Corrupt("invalid utf-8".into()))
    }
}

pub(crate) fn take_seed(r: &mut Reader<'_>) -> Result<Seed, SnapshotError> {
    let uid = r.u64()?;
    let n_txs = r.len()?;
    let mut txs = Vec::with_capacity(n_txs);
    for _ in 0..n_txs {
        let function = r.string()?;
        let sender_index = r.u64()? as usize;
        let stream = r.byte_vec()?;
        txs.push(TxInput {
            function,
            sender_index,
            stream,
        });
    }
    let n_ids = r.len()?;
    let mut covered_edge_ids = Vec::with_capacity(n_ids);
    for _ in 0..n_ids {
        covered_edge_ids.push(r.u32()?);
    }
    let new_edges = r.u64()? as usize;
    let hits_nested_branch = r.bool()?;
    let weight = f64::from_bits(r.u64()?);
    let best_distance = if r.bool()? {
        Some(f64::from_bits(r.u64()?))
    } else {
        None
    };
    let selections = r.u64()? as usize;
    let masks = if r.bool()? {
        let n_masks = r.len()?;
        let mut masks = Vec::with_capacity(n_masks);
        for _ in 0..n_masks {
            masks.push(MutationMask::from_bytes(r.byte_vec()?));
        }
        Some(masks)
    } else {
        None
    };
    let masks_pending = r.bool()?;
    Ok(Seed {
        uid,
        sequence: Sequence { txs },
        covered_edge_ids,
        new_edges,
        hits_nested_branch,
        weight,
        best_distance,
        selections,
        masks,
        masks_pending,
    })
}

fn take_monitor(r: &mut Reader<'_>) -> Result<MonitorState, SnapshotError> {
    let n_findings = r.len()?;
    let mut findings = Vec::with_capacity(n_findings);
    for _ in 0..n_findings {
        let class_index = r.u8()? as usize;
        let class = *BugClass::ALL
            .get(class_index)
            .ok_or_else(|| SnapshotError::Corrupt(format!("bad bug class {class_index}")))?;
        let function = if r.bool()? { Some(r.string()?) } else { None };
        let pc = r.u64()? as usize;
        let detail = r.string()?;
        findings.push(BugFinding {
            class,
            function,
            pc,
            detail,
        });
    }
    let n_invocations = r.len()?;
    let mut call_value_invocations = Vec::with_capacity(n_invocations);
    for _ in 0..n_invocations {
        let function = r.string()?;
        let count = r.u64()? as usize;
        call_value_invocations.push((function, count));
    }
    let held_balance = r.bool()?;
    Ok(MonitorState {
        findings,
        call_value_invocations,
        held_balance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::CROWDSALE;
    use crate::config::FuzzerConfig;
    use crate::service::{CampaignService, SubmitOptions};
    use mufuzz_lang::compile_source;

    fn sample_snapshot() -> CampaignSnapshot {
        let seed = Seed {
            uid: 7,
            sequence: Sequence {
                txs: vec![TxInput {
                    function: "invest".into(),
                    sender_index: 2,
                    stream: vec![1, 2, 3, 4],
                }],
            },
            covered_edge_ids: vec![3, 9, 11],
            new_edges: 2,
            hits_nested_branch: true,
            weight: 2.25,
            best_distance: Some(17.5),
            selections: 4,
            masks: Some(vec![MutationMask::allow_all(4)]),
            masks_pending: false,
        };
        CampaignSnapshot {
            contract_hash: 0xDEAD_BEEF,
            rng_seed: 11,
            lanes: 1,
            profile: PROFILE_ROUND,
            round: 5,
            max_executions: 400,
            executions: 150,
            elapsed_ms: 1234,
            coverage_edges: 20,
            coverage_words: vec![0b1011],
            next_uid: 8,
            admitted_since_cull: 3,
            culled: 1,
            corpus: vec![seed],
            timeline: vec![CoveragePoint {
                executions: 100,
                elapsed_ms: 900,
                covered_edges: 12,
                coverage: 0.6,
            }],
            shapes: vec!["invest->refund->withdraw".into()],
            lane_states: vec![LaneState {
                rng: [1, 2, 3, 4],
                monitor: MonitorState {
                    findings: vec![BugFinding {
                        class: BugClass::ALL[0],
                        function: Some("withdraw".into()),
                        pc: 42,
                        detail: "sample".into(),
                    }],
                    call_value_invocations: vec![("invest".into(), 5)],
                    held_balance: true,
                },
            }],
            records: vec![FindingRecord {
                contract_hash: 0xDEAD_BEEF,
                seed_uid: 7,
                round: 4,
                slot: 2,
                workers: 4,
                finding: BugFinding {
                    class: BugClass::ALL[1],
                    function: None,
                    pc: 7,
                    detail: "sample record".into(),
                },
                sequence: Sequence {
                    txs: vec![TxInput {
                        function: "invest".into(),
                        sender_index: 0,
                        stream: vec![9, 9],
                    }],
                },
                outcome_digest: 0x0123_4567_89AB_CDEF,
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.to_bytes();
        let restored = CampaignSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(restored, snapshot);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            CampaignSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn bad_profile_tag_is_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.profile = 7;
        assert!(matches!(
            CampaignSnapshot::from_bytes(&snapshot.to_bytes()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn digest_is_order_sensitive_and_matches_the_fingerprint_basis() {
        let mut a = Digest::new();
        a.eat(b"ab");
        let mut b = Digest::new();
        b.eat(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.eat_u64(0x0102_0304_0506_0708);
        let mut d = Digest::new();
        d.eat(&[8, 7, 6, 5, 4, 3, 2, 1]); // little-endian byte order
        assert_eq!(c.finish(), d.finish());
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CampaignSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CampaignSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes should not parse"
            );
        }
    }

    /// A real checkpoint: the one-lane crowdsale campaign (seed 11) paused
    /// at 200 of its 400 executions. It decodes cleanly, so each rejection
    /// test below breaks exactly one invariant of it.
    fn crowdsale_checkpoint() -> CampaignSnapshot {
        let compiled = compile_source(CROWDSALE).unwrap();
        let config = FuzzerConfig::mufuzz(400).with_rng_seed(11).with_workers(1);
        let handle = CampaignService::new(1)
            .submit_with(compiled, config, SubmitOptions::pause_at(200))
            .unwrap();
        handle.join();
        let snapshot = handle.checkpoint().expect("paused campaign checkpoints");
        assert_eq!(snapshot.coverage_edges, 20);
        assert!(snapshot.corpus.len() >= 2);
        let decoded = CampaignSnapshot::from_bytes(&snapshot.to_bytes());
        assert_eq!(decoded.expect("a real checkpoint decodes"), snapshot);
        snapshot
    }

    fn assert_corrupt(snapshot: &CampaignSnapshot) {
        match CampaignSnapshot::from_bytes(&snapshot.to_bytes()) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn coverage_word_count_must_fit_the_edge_count() {
        let mut extra = crowdsale_checkpoint();
        extra.coverage_words.push(0);
        assert_corrupt(&extra);
        let mut missing = crowdsale_checkpoint();
        missing.coverage_words.clear();
        assert_corrupt(&missing);
    }

    #[test]
    fn coverage_bits_past_the_last_edge_are_rejected() {
        // Resumed, this word would report 22 of 20 edges covered.
        let mut snapshot = crowdsale_checkpoint();
        snapshot.coverage_words[0] |= 0xF << 60;
        assert_corrupt(&snapshot);
    }

    #[test]
    fn seed_edge_ids_must_be_below_the_edge_count() {
        let mut snapshot = crowdsale_checkpoint();
        snapshot.corpus[0].covered_edge_ids.push(20);
        assert_corrupt(&snapshot);
    }

    #[test]
    fn seed_uids_must_be_distinct_and_below_the_next_uid() {
        let mut duplicate = crowdsale_checkpoint();
        duplicate.corpus[1].uid = duplicate.corpus[0].uid;
        assert_corrupt(&duplicate);
        let mut unissued = crowdsale_checkpoint();
        unissued.corpus[0].uid = unissued.next_uid;
        assert_corrupt(&unissued);
    }

    #[test]
    fn executions_past_the_budget_are_rejected() {
        let mut snapshot = crowdsale_checkpoint();
        snapshot.executions = snapshot.max_executions + 1;
        assert_corrupt(&snapshot);
    }

    #[test]
    fn lane_state_count_must_fit_the_profile() {
        // Free-running: one lane state per lane.
        let mut free = crowdsale_checkpoint();
        free.lane_states.push(free.lane_states[0].clone());
        assert_corrupt(&free);
        // Round mode: one master lane state, whatever the lane count.
        let mut round = free.clone();
        round.profile = PROFILE_ROUND;
        round.lanes = 2;
        assert_corrupt(&round);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes.push(0);
        assert!(matches!(
            CampaignSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
