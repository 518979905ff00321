//! The execution harness: deploys a compiled contract into a synthetic world
//! and replays transaction sequences against a snapshot of that world.
//!
//! The world contains a pool of funded senders, an optional re-entrant
//! attacker account (so the reentrancy oracle can observe actual re-entrant
//! executions) and an optional rejecting sink (so failing external calls are
//! observable). Every sequence execution starts from the freshly deployed
//! state, which matches how the paper's fuzzer replays sequences.

use crate::config::FuzzerConfig;
use crate::input::{Sequence, TxInput};
use mufuzz_analysis::EdgeIndex;
use mufuzz_evm::{
    ether, Account, Address, BlockEnv, BranchEdge, DecodedProgram, Evm, ExecFrame, ExecutionTrace,
    HostBehaviour, Message, ProgramCache, WorldState, U256,
};
use mufuzz_lang::CompiledContract;
use std::collections::BTreeSet;
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
/// trivially fail the balance check.
fn value_cap() -> U256 {
    ether(1_000)
}

/// The outcome of executing one transaction sequence.
#[derive(Clone, Debug)]
pub struct SequenceOutcome {
    /// Per-transaction execution traces (same order as the sequence).
    pub traces: Vec<ExecutionTrace>,
    /// Union of branch edges covered by all transactions.
    pub covered_edges: BTreeSet<BranchEdge>,
    /// The same edges as dense ids from the harness's [`EdgeIndex`], sorted
    /// ascending. This is what the campaign merges into its atomic coverage
    /// bitmap without taking any lock. Edges the index cannot number (none in
    /// practice) appear only in `covered_edges`, so a length mismatch between
    /// the two collections flags them.
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
    /// [`ExecFrame`] scratch buffers (operand stacks, memory, trace capacity
    /// hints) instead of allocating fresh ones per execution.
    pub fn execute_sequence_with(
        &self,
        sequence: &Sequence,
        frame: &mut ExecFrame,
    ) -> SequenceOutcome {
        let mut world = self.base_world.snapshot();
        let mut block = self.base_block;
        let mut traces = Vec::with_capacity(sequence.len());
        let mut covered = BTreeSet::new();
        let mut successes = 0usize;

        for tx in &sequence.txs {
            block.advance();
            let trace = self.execute_tx(&mut world, block, tx, frame);
            if trace.success() {
                successes += 1;
            }
            trace.merge_edges_into(&mut covered);
            traces.push(trace);
        }

        // Dense ids for the atomic coverage bitmap. `covered` iterates in
        // ascending (address, pc, taken) order, which the index maps to
        // ascending ids for the single contract under test; the defensive
        // sort is a no-op then and keeps the contract documented on
        // `covered_edge_ids` honest if that ever changes.
        let mut covered_edge_ids: Vec<u32> = covered
            .iter()
            .filter_map(|edge| self.edge_index.id_of(edge))
            .collect();
        covered_edge_ids.sort_unstable();

        SequenceOutcome {
            traces,
            covered_edges: covered,
            covered_edge_ids,
            final_world: world,
            successes,
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
            // an empty trace.
            return ExecutionTrace::new();
        };
        let sender = self.senders[tx.sender_index % self.senders.len()];
        let calldata = tx.calldata(abi);

        // The re-entrant attacker, when it is the sender, re-invokes the same
        // function on the contract when it receives ether.
        if Some(sender) == self.attacker {
            world.account_mut(sender).behaviour = HostBehaviour::ReentrantAttacker {
                callback_data: calldata.clone(),
                max_depth: 3,
            };
        }

        let mut value = tx.value();
        let cap = value_cap();
        if value > cap {
            value = value.div_rem(cap).1;
        }

        let mut evm = Evm::new(world, block).with_programs(&self.programs);
        evm.config.block_lowering = self.block_lowering;
        let result = evm.execute_in(
            &Message::new(sender, self.contract_address, value, calldata),
            frame,
        );
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
        assert!(outcome_full.covered_edges.len() > outcome_single.covered_edges.len());
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
    fn outcome_edge_ids_mirror_the_edge_set() {
        let h = harness();
        let outcome = h.execute_sequence(&Sequence::new(vec![
            TxInput::new("invest", 0, ether(100), &[ether(100)]),
            TxInput::simple("refund"),
            TxInput::simple("withdraw"),
        ]));
        // Every covered edge is indexable, and the id list is its exact
        // sorted image.
        assert_eq!(outcome.covered_edge_ids.len(), outcome.covered_edges.len());
        assert!(outcome.covered_edge_ids.windows(2).all(|w| w[0] < w[1]));
        for edge in &outcome.covered_edges {
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
