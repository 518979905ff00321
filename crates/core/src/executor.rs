//! The execution harness: deploys a compiled contract into a synthetic world
//! and replays transaction sequences against a snapshot of that world.
//!
//! The world contains a pool of funded senders, an optional re-entrant
//! attacker account (so the reentrancy oracle can observe actual re-entrant
//! executions) and an optional rejecting sink (so failing external calls are
//! observable). Every sequence execution is a pure function of the
//! sequence: it runs from the freshly deployed state, with the block
//! advanced once per transaction, which matches how the paper's fuzzer
//! replays sequences. So the world and traces after a run of leading
//! transactions are fixed by those transactions alone, and an execution
//! given a prefix record of a sequence it starts with resumes from the
//! recorded world after that run instead of executing it again. Its outcome
//! equals a full run's.

use crate::config::FuzzerConfig;
use crate::input::{Sequence, TxInput};
use crate::prefix::PrefixRecord;
use mufuzz_analysis::EdgeIndex;
use mufuzz_evm::{
    ether, Account, Address, BlockEnv, DecodedProgram, Evm, ExecFrame, ExecutionTrace,
    HostBehaviour, Message, ProgramCache, WorldState, U256,
};
use mufuzz_lang::CompiledContract;
use std::fmt;
use std::sync::Arc;

/// Errors raised while setting up or driving the harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessError(pub String);

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "harness error: {}", self.0)
    }
}

impl std::error::Error for HarnessError {}

/// Upper bound applied to mutated `msg.value` fields so transactions do not
/// trivially fail the balance check: 1,000 ether in wei.
const VALUE_CAP: U256 = U256::from_u128(1_000 * 1_000_000_000_000_000_000);

/// The outcome of executing one transaction sequence.
#[derive(Clone, Debug, Default)]
pub struct SequenceOutcome {
    /// Per-transaction execution traces (same order as the sequence).
    pub traces: Vec<ExecutionTrace>,
    /// Dense ids (from the harness's [`EdgeIndex`]) of the target contract's
    /// branch edges that any transaction executed, sorted and deduplicated.
    /// Derived from the traces' `branches`; branches in other code have no
    /// id and are not coverage. The campaign merges this list into its
    /// atomic coverage bitmap without taking any lock.
    pub covered_edge_ids: Vec<u32>,
    /// World state after the whole sequence.
    pub final_world: WorldState,
    /// Number of transactions that completed successfully.
    pub successes: usize,
}

impl SequenceOutcome {
    /// True if at least one transaction executed successfully.
    pub fn any_success(&self) -> bool {
        self.successes > 0
    }
}

/// A deployed contract plus the synthetic world used for fuzzing.
#[derive(Clone, Debug)]
pub struct ContractHarness {
    /// The compiled contract under test.
    pub compiled: CompiledContract,
    /// Address the contract is deployed at.
    pub contract_address: Address,
    /// Funded sender pool (the last entry is the attacker when installed).
    pub senders: Vec<Address>,
    /// Re-entrant attacker account, when installed.
    pub attacker: Option<Address>,
    /// Rejecting sink account, when installed.
    pub sink: Option<Address>,
    /// Dense numbering of the contract's branch edges, assigned once at
    /// harness build time and shared by every clone of the harness (workers
    /// clone the harness, so ids agree across threads by construction).
    edge_index: Arc<EdgeIndex>,
    /// The runtime bytecode pre-decoded once at build time; shared by every
    /// clone and handed to the interpreter as a [`ProgramCache`] so
    /// executions skip byte-at-a-time decoding entirely.
    programs: Arc<ProgramCache>,
    /// Whether executions run through the block-lowered interpreter tier
    /// (mirrors [`FuzzerConfig::block_lowering`]).
    block_lowering: bool,
    base_world: WorldState,
    base_block: BlockEnv,
}

impl ContractHarness {
    /// Deploy the contract and build the fuzzing world.
    pub fn new(compiled: CompiledContract, config: &FuzzerConfig) -> Result<Self, HarnessError> {
        let contract_address = Address::from_low_u64(0xC0DE);
        let deployer = Address::from_low_u64(0x1000);
        let mut senders = vec![deployer];
        for i in 1..config.sender_count.max(1) {
            senders.push(Address::from_low_u64(0x1000 + i as u64));
        }

        let mut world = WorldState::new();
        for sender in &senders {
            world.put_account(*sender, Account::eoa(ether(1_000_000)));
        }

        let attacker = if config.install_attacker {
            let attacker = Address::from_low_u64(0xA77A);
            world.put_account(
                attacker,
                Account {
                    balance: ether(1_000_000),
                    behaviour: HostBehaviour::ReentrantAttacker {
                        callback_data: vec![],
                        max_depth: 3,
                    },
                    ..Default::default()
                },
            );
            senders.push(attacker);
            Some(attacker)
        } else {
            None
        };

        let sink = if config.install_rejecting_sink {
            let sink = Address::from_low_u64(0x5117);
            world.put_account(
                sink,
                Account {
                    behaviour: HostBehaviour::RejectingSink,
                    ..Default::default()
                },
            );
            Some(sink)
        } else {
            None
        };

        let base_block = BlockEnv::default();
        let mut evm = Evm::new(&mut world, base_block);
        let deployment = evm.deploy(
            deployer,
            contract_address,
            &compiled.constructor,
            compiled.runtime.clone(),
            U256::ZERO,
            vec![],
        );
        if !deployment.success {
            return Err(HarnessError(format!(
                "constructor execution failed: {:?}",
                deployment.halt
            )));
        }

        // Decode and block-lower the runtime bytecode once; the lowered
        // program feeds both the interpreter fast path (via the program
        // cache, keyed on the deployed code blob) and the dense edge
        // numbering — block-granular, provably identical to the per-`JUMPI`
        // numbering — with no re-scan.
        let runtime_code = world.code(contract_address);
        let program = Arc::new(DecodedProgram::decode(&runtime_code));
        let mut programs = ProgramCache::new();
        programs.insert(Arc::clone(&runtime_code), program);
        let edge_index = Arc::new(EdgeIndex::from_blocks(
            programs
                .get_block(&runtime_code)
                .expect("runtime program was just inserted"),
            contract_address,
        ));

        // Freeze the post-constructor world: every sequence execution
        // restores this constructor snapshot with one Arc clone instead of
        // copying (or re-deploying) the whole world.
        world.freeze();

        Ok(ContractHarness {
            compiled,
            contract_address,
            senders,
            attacker,
            sink,
            edge_index,
            programs: Arc::new(programs),
            block_lowering: config.block_lowering,
            base_world: world,
            base_block,
        })
    }

    /// The dense branch-edge numbering of the contract under test.
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.edge_index
    }

    /// The shared program cache (decoded + block-lowered runtime bytecode).
    /// Clones of a harness hand out the same cache, so decoding and lowering
    /// happen exactly once per deployment.
    pub fn programs(&self) -> &Arc<ProgramCache> {
        &self.programs
    }

    /// Addresses worth injecting into address-typed arguments.
    pub fn interesting_addresses(&self) -> Vec<Address> {
        let mut out = self.senders.clone();
        out.push(self.contract_address);
        if let Some(s) = self.sink {
            out.push(s);
        }
        out.push(Address::ZERO);
        out
    }

    /// Execute a transaction sequence against a fresh snapshot of the
    /// deployed world.
    ///
    /// Allocates a transient [`ExecFrame`]; campaign workers should prefer
    /// [`ContractHarness::execute_sequence_with`] with a long-lived frame so
    /// interpreter scratch buffers are reused across executions.
    pub fn execute_sequence(&self, sequence: &Sequence) -> SequenceOutcome {
        self.execute_sequence_with(sequence, &mut ExecFrame::new())
    }

    /// Like [`ContractHarness::execute_sequence`], reusing the caller's
    /// [`ExecFrame`] scratch buffers (operand stacks, memory, the call stack,
    /// calldata) instead of allocating fresh ones per execution.
    pub fn execute_sequence_with(
        &self,
        sequence: &Sequence,
        frame: &mut ExecFrame,
    ) -> SequenceOutcome {
        let mut outcome = SequenceOutcome::default();
        self.execute_sequence_into(sequence, None, frame, &mut outcome);
        outcome
    }

    /// Like [`ContractHarness::execute_sequence_with`], writing the result
    /// into `outcome` in place: its previous traces go back to `frame` for
    /// reuse, and its vectors keep their capacity. The previous final world
    /// is dropped.
    ///
    /// With a `prefix` record, the `k` leading transactions `sequence`
    /// shares with the recorded sequence are not executed again: the
    /// outcome starts from the recorded world after them (one `Arc` clone),
    /// copies of their recorded traces and their success count, with the
    /// block advanced `k` times, and execution continues from transaction
    /// `k`. Without a record, or when nothing is shared, `k` is zero and
    /// the whole sequence runs from the deployed world. The outcome is the
    /// same either way.
    pub(crate) fn execute_sequence_into(
        &self,
        sequence: &Sequence,
        prefix: Option<&PrefixRecord>,
        frame: &mut ExecFrame,
        outcome: &mut SequenceOutcome,
    ) {
        for trace in outcome.traces.drain(..) {
            frame.recycle_trace(trace);
        }
        let shared = prefix.map_or(0, |record| record.shared_len(sequence));
        let mut block = self.base_block;
        match prefix.filter(|_| shared > 0) {
            Some(record) => {
                record.restore(shared, frame, outcome);
                for _ in 0..shared {
                    block.advance();
                }
            }
            None => {
                outcome.final_world = self.base_world.snapshot();
                outcome.successes = 0;
            }
        }
        let SequenceOutcome {
            traces,
            final_world,
            successes,
            ..
        } = outcome;
        self.run_txs(
            &sequence.txs[shared..],
            final_world,
            block,
            frame,
            |_, trace| {
                *successes += usize::from(trace.success());
                traces.push(trace);
            },
        );

        let ids = &mut outcome.covered_edge_ids;
        ids.clear();
        ids.extend(
            outcome
                .traces
                .iter()
                .flat_map(|trace| &trace.branches)
                .filter_map(|branch| self.edge_index.id_of(&branch.edge())),
        );
        ids.sort_unstable();
        ids.dedup();
    }

    /// Execute `txs` in order against `world`, advancing `block` once before
    /// each, and hand every transaction's trace to `each` together with the
    /// world it left behind.
    pub(crate) fn run_txs(
        &self,
        txs: &[TxInput],
        world: &mut WorldState,
        mut block: BlockEnv,
        frame: &mut ExecFrame,
        mut each: impl FnMut(&mut WorldState, ExecutionTrace),
    ) {
        for tx in txs {
            block.advance();
            let trace = self.execute_tx(world, block, tx, frame);
            each(world, trace);
        }
    }

    /// Execute one transaction against the given world.
    fn execute_tx(
        &self,
        world: &mut WorldState,
        block: BlockEnv,
        tx: &TxInput,
        frame: &mut ExecFrame,
    ) -> ExecutionTrace {
        let Some(abi) = self.compiled.abi.function(&tx.function) else {
            // Unknown function (e.g. after a corpus merge): skip by returning
            // an empty trace, taken from the pool like every other.
            return frame.take_trace();
        };
        let sender = self.senders[tx.sender_index % self.senders.len()];
        let mut calldata = frame.take_calldata();
        tx.calldata_into(abi, &mut calldata);

        // The re-entrant attacker, when it is the sender, re-invokes the same
        // function on the contract when it receives ether.
        if Some(sender) == self.attacker {
            if let HostBehaviour::ReentrantAttacker { callback_data, .. } =
                &mut world.account_mut(sender).behaviour
            {
                callback_data.clone_from(&calldata);
            }
        }

        let mut value = tx.value();
        if value > VALUE_CAP {
            value = value.div_rem(VALUE_CAP).1;
        }

        let mut evm = Evm::new(world, block).with_programs(&self.programs);
        evm.config.block_lowering = self.block_lowering;
        let message = Message::new(sender, self.contract_address, value, calldata);
        let result = evm.execute_in(&message, frame);
        frame.recycle_calldata(message.data);
        result.trace
    }

    /// The world state immediately after deployment (before any fuzzing).
    pub fn base_world(&self) -> &WorldState {
        &self.base_world
    }

    /// The block environment sequence executions start from (advanced once
    /// per transaction).
    pub fn base_block(&self) -> BlockEnv {
        self.base_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_lang::compile_source;

    const CROWDSALE: &str = r#"
        contract Crowdsale {
            uint256 phase = 0;
            uint256 goal;
            uint256 invested;
            address owner;
            mapping(address => uint256) invests;
            constructor() public { goal = 100 ether; invested = 0; owner = msg.sender; }
            function invest(uint256 donations) public payable {
                if (invested < goal) {
                    invests[msg.sender] += donations;
                    invested += donations;
                    phase = 0;
                } else { phase = 1; }
            }
            function refund() public {
                if (phase == 0) {
                    msg.sender.transfer(invests[msg.sender]);
                    invests[msg.sender] = 0;
                }
            }
            function withdraw() public {
                if (phase == 1) { bug(); owner.transfer(invested); }
            }
        }
    "#;

    fn harness() -> ContractHarness {
        ContractHarness::new(compile_source(CROWDSALE).unwrap(), &FuzzerConfig::default()).unwrap()
    }

    #[test]
    fn value_cap_is_a_thousand_ether() {
        assert_eq!(VALUE_CAP, ether(1_000));
    }

    #[test]
    fn harness_deploys_and_funds_senders() {
        let h = harness();
        assert!(h.senders.len() >= 3);
        for s in &h.senders {
            assert!(!h.base_world().balance(*s).is_zero());
        }
        // Constructor ran: goal (slot 1) is 100 ether.
        assert_eq!(
            h.base_world().storage(h.contract_address, U256::ONE),
            ether(100)
        );
        assert!(h.attacker.is_some());
        assert!(h.sink.is_some());
        assert!(h.interesting_addresses().contains(&Address::ZERO));
    }

    #[test]
    fn sequence_execution_accumulates_coverage() {
        let h = harness();
        let single = Sequence::new(vec![TxInput::simple("withdraw")]);
        let outcome_single = h.execute_sequence(&single);
        let full = Sequence::new(vec![
            TxInput::new("invest", 0, ether(100), &[ether(100)]),
            TxInput::new("invest", 0, U256::ONE, &[U256::ONE]),
            TxInput::simple("withdraw"),
        ]);
        let outcome_full = h.execute_sequence(&full);
        assert!(outcome_full.covered_edge_ids.len() > outcome_single.covered_edge_ids.len());
        assert_eq!(outcome_full.traces.len(), 3);
        assert!(outcome_full.any_success());
    }

    #[test]
    fn sequence_executions_are_isolated() {
        let h = harness();
        let seq = Sequence::new(vec![TxInput::new("invest", 0, ether(1), &[ether(100)])]);
        let first = h.execute_sequence(&seq);
        // invested (slot 2) is updated in the outcome world...
        assert_eq!(
            first
                .final_world
                .storage(h.contract_address, U256::from_u64(2)),
            ether(100)
        );
        // ...but the harness base world is untouched, so a later run starts fresh.
        assert_eq!(
            h.base_world()
                .storage(h.contract_address, U256::from_u64(2)),
            U256::ZERO
        );
        let second = h.execute_sequence(&seq);
        assert_eq!(
            second
                .final_world
                .storage(h.contract_address, U256::from_u64(2)),
            ether(100)
        );
    }

    #[test]
    fn outcome_edge_ids_mirror_the_branch_log() {
        let h = harness();
        let outcome = h.execute_sequence(&Sequence::new(vec![
            TxInput::new("invest", 0, ether(100), &[ether(100)]),
            TxInput::simple("refund"),
            TxInput::simple("withdraw"),
        ]));
        // Every executed edge is indexable, and the id list is the exact
        // sorted, deduplicated image of the branch log.
        let edges: std::collections::BTreeSet<_> = outcome
            .traces
            .iter()
            .flat_map(|t| t.branches.iter().map(|b| b.edge()))
            .collect();
        assert_eq!(outcome.covered_edge_ids.len(), edges.len());
        assert!(outcome.covered_edge_ids.windows(2).all(|w| w[0] < w[1]));
        for edge in &edges {
            let id = h.edge_index().id_of(edge).expect("edge must be indexed");
            assert!(outcome.covered_edge_ids.binary_search(&id).is_ok());
            assert_eq!(h.edge_index().edge_of(id), Some(*edge));
        }
    }

    #[test]
    fn harness_clones_share_one_program_cache_entry() {
        let h = harness();
        let clone = h.clone();
        // Workers clone the harness; the cache itself is one shared Arc, so
        // the runtime code is decoded and block-lowered exactly once.
        assert!(Arc::ptr_eq(h.programs(), clone.programs()));
        let code = h.base_world().code(h.contract_address);
        assert_eq!(h.programs().len(), 1);
        let program = h.programs().get(&code).expect("runtime code is cached");
        let from_clone = clone.programs().get(&code).expect("clone sees the entry");
        assert!(Arc::ptr_eq(program, from_clone));
        let blocks = h.programs().get_block(&code).expect("lowering is cached");
        assert!(Arc::ptr_eq(blocks.base(), program));
    }

    #[test]
    fn rebuilt_harness_does_not_hit_a_stale_cache_entry() {
        // Two independent builds of the same source produce byte-identical
        // runtime code in distinct allocations. Pointer-identity keying must
        // keep the caches disjoint — a rebuilt harness can never be served a
        // stale entry from an older build, and vice versa.
        let h1 = harness();
        let h2 = harness();
        let code1 = h1.base_world().code(h1.contract_address);
        let code2 = h2.base_world().code(h2.contract_address);
        assert_eq!(*code1, *code2);
        assert!(!Arc::ptr_eq(&code1, &code2));
        assert!(h1.programs().get(&code2).is_none());
        assert!(h2.programs().get(&code1).is_none());
        // Both harnesses still execute correctly through their own entries.
        let seq = Sequence::new(vec![
            TxInput::new("invest", 0, ether(100), &[ether(100)]),
            TxInput::simple("withdraw"),
        ]);
        let o1 = h1.execute_sequence(&seq);
        let o2 = h2.execute_sequence(&seq);
        assert_eq!(o1.successes, o2.successes);
        assert_eq!(o1.covered_edge_ids, o2.covered_edge_ids);
    }

    #[test]
    fn unknown_functions_are_skipped() {
        let h = harness();
        let seq = Sequence::new(vec![TxInput::simple("doesNotExist")]);
        let outcome = h.execute_sequence(&seq);
        assert_eq!(outcome.traces[0].instruction_count(), 0);
        assert_eq!(outcome.successes, 1); // an empty trace reports success
    }

    #[test]
    fn huge_values_are_capped_not_rejected() {
        let h = harness();
        let mut tx = TxInput::simple("invest");
        tx.set_value(U256::MAX);
        tx.set_arg_word(0, U256::from_u64(1));
        let outcome = h.execute_sequence(&Sequence::new(vec![tx]));
        assert!(outcome.any_success());
    }

    #[test]
    fn broken_constructor_reports_harness_error() {
        let src = "contract Broken { uint256 x; constructor() public { require(false); } }";
        let err = ContractHarness::new(compile_source(src).unwrap(), &FuzzerConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn sender_rotation_uses_all_accounts() {
        let h = harness();
        let seq = Sequence::new(vec![
            TxInput::new("invest", 0, U256::ONE, &[U256::ONE]),
            TxInput::new("invest", 1, U256::ONE, &[U256::ONE]),
            TxInput::new("invest", 99, U256::ONE, &[U256::ONE]),
        ]);
        let outcome = h.execute_sequence(&seq);
        assert_eq!(outcome.successes, 3);
    }
}
