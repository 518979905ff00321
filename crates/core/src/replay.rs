//! Finding replay: re-demonstrate a recorded bug from a campaign snapshot.
//!
//! Round-mode campaigns record a [`FindingRecord`] for every finding the
//! first time a mutant triggers it: the exact mutant [`Sequence`], its
//! `(seed uid, round, slot)` provenance, the worker count of the producing
//! campaign and a digest of the triggering execution's outcome. Because every
//! sequence executes against the harness's frozen constructor world — never
//! against mutable campaign state — re-executing the
//! recorded sequence on a fresh harness reproduces the original execution
//! bit for bit, at any worker count and on any machine.
//!
//! [`replay_finding`] anchors the replay to a [`CampaignSnapshot`]: the
//! snapshot and the record must both belong to the offered contract, and the
//! record's seed uid must already have been handed out when the snapshot was
//! taken. The record's binary encoding carries a trailing FNV-1a integrity
//! hash, so a tampered mutation trace is rejected with a clear error instead
//! of silently replaying something else.

use crate::campaign::observe;
use crate::config::FuzzerConfig;
use crate::executor::{ContractHarness, HarnessError, SequenceOutcome};
use crate::input::{Sequence, TxInput};
use crate::snapshot::{
    contract_fingerprint, put_bytes, put_str, put_u32, put_u64, CampaignSnapshot, Digest, Reader,
    SnapshotError,
};
use mufuzz_evm::Address;
use mufuzz_lang::CompiledContract;
use mufuzz_oracles::{BugClass, BugFinding, CampaignMonitor};
use std::error::Error;
use std::fmt;

/// Magic bytes opening every serialized finding record.
const MAGIC: [u8; 4] = *b"MUFR";
/// Finding-record format version.
const VERSION: u32 = 1;

/// A replayable bug finding: the mutant that first triggered it, pinned to
/// its campaign provenance.
///
/// Produced by round-mode campaigns in
/// [`CampaignReport::finding_records`](crate::CampaignReport::finding_records)
/// and consumed by [`replay_finding`]. Persist with
/// [`FindingRecord::to_bytes`] / [`FindingRecord::from_bytes`].
#[derive(Clone, Debug, PartialEq)]
pub struct FindingRecord {
    /// Fingerprint of the contract the finding was made on.
    pub contract_hash: u64,
    /// Uid of the corpus seed the triggering mutant was derived from.
    pub seed_uid: u64,
    /// Round in which the finding was first triggered.
    pub round: u64,
    /// Slot within that round (the round's deterministic work unit).
    pub slot: u32,
    /// Worker count of the campaign that produced the record. Informational:
    /// round mode produces the same records at any worker count, which is
    /// exactly what the replay suite exercises.
    pub workers: u32,
    /// The finding itself.
    pub finding: BugFinding,
    /// The exact mutant sequence that triggered the finding.
    pub sequence: Sequence,
    /// Digest of the triggering execution's outcome (successes, covered
    /// edge ids, final contract balance); replay must reproduce it exactly.
    pub outcome_digest: u64,
}

impl FindingRecord {
    /// Serialize to the versioned binary format with a trailing integrity
    /// hash.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(128);
        w.extend_from_slice(&MAGIC);
        put_u32(&mut w, VERSION);
        put_u64(&mut w, self.contract_hash);
        put_u64(&mut w, self.seed_uid);
        put_u64(&mut w, self.round);
        put_u32(&mut w, self.slot);
        put_u32(&mut w, self.workers);
        let class_index = BugClass::ALL
            .iter()
            .position(|c| *c == self.finding.class)
            .expect("bug class missing from BugClass::ALL") as u8;
        w.push(class_index);
        match &self.finding.function {
            Some(name) => {
                w.push(1);
                put_str(&mut w, name);
            }
            None => w.push(0),
        }
        put_u64(&mut w, self.finding.pc as u64);
        put_str(&mut w, &self.finding.detail);
        put_u64(&mut w, self.sequence.txs.len() as u64);
        for tx in &self.sequence.txs {
            put_str(&mut w, &tx.function);
            put_u64(&mut w, tx.sender_index as u64);
            put_bytes(&mut w, &tx.stream);
        }
        put_u64(&mut w, self.outcome_digest);
        let mut integrity = Digest::new();
        integrity.eat(&w);
        put_u64(&mut w, integrity.finish());
        w
    }

    /// Parse a record from its binary form. Truncation, bad magic, unknown
    /// versions and — most importantly — any byte flip in the mutation trace
    /// (the trailing integrity hash no longer matches) are rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<FindingRecord, ReplayError> {
        let bad = |what: &str| ReplayError::Tampered(what.to_string());
        if bytes.len() < 12 {
            return Err(bad("record truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut integrity = Digest::new();
        integrity.eat(body);
        if integrity.finish() != u64::from_le_bytes(tail.try_into().expect("8-byte slice")) {
            return Err(bad("integrity hash mismatch (record was modified)"));
        }
        let mut r = Reader {
            bytes: body,
            pos: 0,
        };
        let parse = (|| -> Result<FindingRecord, SnapshotError> {
            if r.take(4)? != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            let version = r.u32()?;
            if version != VERSION {
                return Err(SnapshotError::UnsupportedVersion(version));
            }
            let contract_hash = r.u64()?;
            let seed_uid = r.u64()?;
            let round = r.u64()?;
            let slot = r.u32()?;
            let workers = r.u32()?;
            let class_index = r.u8()? as usize;
            let class = *BugClass::ALL
                .get(class_index)
                .ok_or_else(|| SnapshotError::Corrupt(format!("bad bug class {class_index}")))?;
            let function = if r.bool()? { Some(r.string()?) } else { None };
            let pc = r.u64()? as usize;
            let detail = r.string()?;
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
            let outcome_digest = r.u64()?;
            if r.pos != body.len() {
                return Err(SnapshotError::Corrupt("trailing bytes".into()));
            }
            Ok(FindingRecord {
                contract_hash,
                seed_uid,
                round,
                slot,
                workers,
                finding: BugFinding {
                    class,
                    function,
                    pc,
                    detail,
                },
                sequence: Sequence { txs },
                outcome_digest,
            })
        })();
        parse.map_err(|e| ReplayError::Tampered(e.to_string()))
    }
}

/// Digest of the observable outcome of one sequence execution: transaction
/// successes, the sorted covered-edge ids, and the contract's final balance.
/// This is what ties a replayed execution to the recorded one.
pub(crate) fn outcome_digest(outcome: &SequenceOutcome, contract: Address) -> u64 {
    let mut d = Digest::new();
    d.eat_u64(outcome.successes as u64);
    d.eat_u64(outcome.covered_edge_ids.len() as u64);
    for &id in &outcome.covered_edge_ids {
        d.eat(&id.to_le_bytes());
    }
    d.eat(&outcome.final_world.balance(contract).to_be_bytes());
    d.finish()
}

/// Why a finding could not be replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// The anchoring snapshot failed to parse or validate.
    Snapshot(SnapshotError),
    /// The record's bytes failed their integrity check (or did not parse):
    /// the mutation trace was modified since it was recorded.
    Tampered(String),
    /// The record or snapshot belongs to a different contract than the one
    /// offered for replay.
    ContractMismatch,
    /// The record references a seed uid the snapshot has not handed out yet
    /// — the record cannot have been produced by (a prefix of) the
    /// snapshotted campaign.
    UnknownSeed {
        /// Seed uid named by the record.
        seed_uid: u64,
        /// First unassigned uid in the snapshot.
        next_uid: u64,
    },
    /// The re-executed sequence produced a different outcome than the
    /// recorded one.
    OutcomeMismatch {
        /// Digest stored in the record.
        expected: u64,
        /// Digest of the replayed execution.
        actual: u64,
    },
    /// The contract failed to deploy for replay.
    Harness(HarnessError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ReplayError::Tampered(what) => {
                write!(f, "finding record rejected: {what}")
            }
            ReplayError::ContractMismatch => {
                write!(f, "finding record belongs to a different contract")
            }
            ReplayError::UnknownSeed { seed_uid, next_uid } => write!(
                f,
                "record references seed uid {seed_uid} but the snapshot has only assigned uids below {next_uid}"
            ),
            ReplayError::OutcomeMismatch { expected, actual } => write!(
                f,
                "replayed execution diverged from the record (outcome digest {actual:#x}, recorded {expected:#x})"
            ),
            ReplayError::Harness(e) => write!(f, "harness error during replay: {e}"),
        }
    }
}

impl Error for ReplayError {}

impl From<SnapshotError> for ReplayError {
    fn from(e: SnapshotError) -> ReplayError {
        ReplayError::Snapshot(e)
    }
}

impl From<HarnessError> for ReplayError {
    fn from(e: HarnessError) -> ReplayError {
        ReplayError::Harness(e)
    }
}

/// What a successful replay reproduced.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Digest of the replayed execution (equals the record's by contract).
    pub digest: u64,
    /// Findings a fresh oracle monitor raises on the replayed execution.
    pub findings: Vec<BugFinding>,
    /// Transactions that completed successfully.
    pub successes: usize,
    /// Distinct branch edges the replayed execution covered.
    pub covered_edges: usize,
    /// True if the recorded finding (class, function, pc and detail) is
    /// among the fresh monitor's findings — the oracle verdict reproduced.
    pub verdict_reproduced: bool,
}

/// Re-execute a recorded finding from a campaign snapshot and verify it
/// reproduces bit-identically.
///
/// Validates that record and snapshot belong to `compiled`, that the
/// record's seed uid was already assigned when the snapshot was taken, then
/// executes the recorded mutant sequence on a fresh harness (sequences
/// always start from the frozen constructor world, so the replay is a
/// standalone re-execution of the original) and checks the
/// outcome digest and oracle verdict against the record.
pub fn replay_finding(
    compiled: CompiledContract,
    config: &FuzzerConfig,
    snapshot: &CampaignSnapshot,
    record: &FindingRecord,
) -> Result<ReplayOutcome, ReplayError> {
    let fingerprint = contract_fingerprint(&compiled);
    if snapshot.contract_hash != fingerprint || record.contract_hash != fingerprint {
        return Err(ReplayError::ContractMismatch);
    }
    if record.seed_uid >= snapshot.next_uid {
        return Err(ReplayError::UnknownSeed {
            seed_uid: record.seed_uid,
            next_uid: snapshot.next_uid,
        });
    }
    let harness = ContractHarness::new(compiled, config)?;
    let outcome = harness.execute_sequence(&record.sequence);
    let digest = outcome_digest(&outcome, harness.contract_address);
    if digest != record.outcome_digest {
        return Err(ReplayError::OutcomeMismatch {
            expected: record.outcome_digest,
            actual: digest,
        });
    }
    let mut monitor = CampaignMonitor::new();
    observe(&mut monitor, &harness, &outcome);
    let findings = monitor.findings();
    let verdict_reproduced = findings.contains(&record.finding);
    Ok(ReplayOutcome {
        digest,
        findings,
        successes: outcome.successes,
        covered_edges: outcome.covered_edge_ids.len(),
        verdict_reproduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> FindingRecord {
        FindingRecord {
            contract_hash: 0xFEED,
            seed_uid: 3,
            round: 2,
            slot: 5,
            workers: 4,
            finding: BugFinding {
                class: BugClass::ALL[0],
                function: Some("withdraw".into()),
                pc: 42,
                detail: "sample".into(),
            },
            sequence: Sequence {
                txs: vec![TxInput {
                    function: "withdraw".into(),
                    sender_index: 1,
                    stream: vec![9, 8, 7],
                }],
            },
            outcome_digest: 0xABCD,
        }
    }

    #[test]
    fn record_round_trips_through_bytes() {
        let record = sample_record();
        let restored = FindingRecord::from_bytes(&record.to_bytes()).expect("round trip");
        assert_eq!(restored, record);
    }

    #[test]
    fn any_byte_flip_is_rejected() {
        let bytes = sample_record().to_bytes();
        for i in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[i] ^= 0x01;
            assert!(
                FindingRecord::from_bytes(&tampered).is_err(),
                "flip at byte {i} should be rejected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_record().to_bytes();
        for cut in 0..bytes.len() {
            assert!(FindingRecord::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn tampered_error_is_descriptive() {
        let mut bytes = sample_record().to_bytes();
        let last = bytes.len() - 20;
        bytes[last] ^= 0xFF;
        match FindingRecord::from_bytes(&bytes) {
            Err(ReplayError::Tampered(msg)) => {
                assert!(msg.contains("modified"), "message: {msg}")
            }
            other => panic!("expected Tampered, got {other:?}"),
        }
    }
}
