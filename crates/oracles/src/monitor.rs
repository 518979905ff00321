//! The bug oracles: trace- and campaign-level detectors for the nine bug
//! classes (paper §IV-D).
//!
//! Each executed transaction produces an instrumented [`ExecutionTrace`];
//! [`CampaignMonitor::observe`] inspects it and accumulates deduplicated
//! [`BugFinding`]s. A few oracles (ether freezing, the repeated-invocation
//! variant of reentrancy) need campaign-wide context and are evaluated in
//! [`CampaignMonitor::finalize`].

use crate::bugs::{BugClass, BugFinding};
use mufuzz_evm::{CallKind, ExecutionTrace, Opcode, Taint, WorldState, U256};
use mufuzz_lang::CompiledContract;
use std::collections::{BTreeMap, BTreeSet};

/// A plain-data export of a [`CampaignMonitor`]'s accumulated state, used by
/// the campaign checkpoint/resume machinery to serialize a monitor and
/// rebuild it exactly (same findings, same invocation counts, same
/// held-balance flag) in a later process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorState {
    /// The deduplicated findings, in the monitor's canonical
    /// `(class, function)` order.
    pub findings: Vec<BugFinding>,
    /// Per-function `call.value` invocation counts.
    pub call_value_invocations: Vec<(String, usize)>,
    /// Whether the contract ever held a positive balance.
    pub held_balance: bool,
}

/// Accumulates bug findings over a fuzzing campaign for one contract.
#[derive(Clone, Debug, Default)]
pub struct CampaignMonitor {
    findings: BTreeMap<(BugClass, Option<String>), BugFinding>,
    /// How many times each function that contains a `call.value`-style call
    /// has been invoked (for the repeated-invocation reentrancy signal).
    call_value_invocations: BTreeMap<String, usize>,
    /// Whether the contract ever held a positive balance during the campaign.
    held_balance: bool,
}

impl CampaignMonitor {
    /// Create an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a finding unless one with the same `(class, function)` key is
    /// already held. The finding is built only when it is new: oracles fire
    /// on every execution that repeats a known bug.
    fn record(
        &mut self,
        class: BugClass,
        function: Option<&str>,
        pc: usize,
        detail: impl Into<String>,
    ) {
        if !self.holds(class, function) {
            let function = function.map(str::to_owned);
            let finding = BugFinding::new(class, function.clone(), pc, detail);
            self.findings.insert((class, function), finding);
        }
    }

    /// Whether a finding with the key `(class, function)` is held, found
    /// without building an owned key.
    fn holds(&self, class: BugClass, function: Option<&str>) -> bool {
        self.findings
            .range((class, None)..)
            .take_while(|((c, _), _)| *c == class)
            .any(|((_, f), _)| f.as_deref() == function)
    }

    /// Attribute a pc in the outermost frame to a source function.
    fn function_of<'c>(
        compiled: &'c CompiledContract,
        trace: &ExecutionTrace,
        pc: usize,
    ) -> Option<&'c str> {
        compiled
            .function_at_pc(pc)
            .map(|f| f.name.as_str())
            .or_else(|| {
                trace
                    .entered_selector
                    .and_then(|sel| compiled.abi.by_selector(sel))
                    .map(|f| f.name.as_str())
            })
    }

    /// Inspect a single transaction execution.
    pub fn observe(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        self.observe_block_dependency(compiled, trace);
        self.observe_delegatecall(compiled, trace);
        self.observe_integer_overflow(compiled, trace);
        self.observe_reentrancy(compiled, trace);
        self.observe_selfdestruct(compiled, trace);
        self.observe_strict_equality(compiled, trace);
        self.observe_tx_origin(compiled, trace);
        self.observe_unhandled_exception(compiled, trace);
    }

    /// Record world-level observations (balance held by the contract).
    pub fn observe_world(&mut self, compiled_address_balance: U256) {
        if !compiled_address_balance.is_zero() {
            self.held_balance = true;
        }
    }

    fn observe_block_dependency(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // BD: a block-state value (TIMESTAMP/NUMBER) contaminates a JUMPI or a
        // CALL.
        for branch in &trace.branches {
            if branch.cond_taint.contains(Taint::BLOCK) {
                let function = Self::function_of(compiled, trace, branch.pc);
                self.record(
                    BugClass::BlockDependency,
                    function,
                    branch.pc,
                    "block timestamp/number influences a branch condition",
                );
            }
        }
        for call in &trace.calls {
            if call.arg_taint.contains(Taint::BLOCK) {
                let function = call
                    .caller_selector
                    .and_then(|sel| compiled.abi.by_selector(sel))
                    .map(|f| f.name.as_str())
                    .or_else(|| Self::function_of(compiled, trace, call.pc));
                self.record(
                    BugClass::BlockDependency,
                    function,
                    call.pc,
                    "block timestamp/number influences an external call",
                );
            }
        }
    }

    fn observe_delegatecall(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // UD: a DELEGATECALL whose target/arguments are attacker influenced
        // (calldata taint) and whose surrounding function performed no caller
        // check before the call.
        for call in &trace.calls {
            if call.kind != CallKind::DelegateCall {
                continue;
            }
            let attacker_influenced = call.arg_taint.contains(Taint::CALLDATA);
            if attacker_influenced && !call.caller_guarded {
                let function = Self::function_of(compiled, trace, call.pc);
                self.record(
                    BugClass::UnprotectedDelegatecall,
                    function,
                    call.pc,
                    "delegatecall with attacker-controlled target and no access control",
                );
            }
        }
    }

    fn observe_integer_overflow(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // IO: an ADD/SUB/MUL/EXP whose exact result was truncated in the EVM.
        for event in &trace.arith_events {
            if !event.truncated {
                continue;
            }
            // Require attacker influence or persistence so constant-folding
            // artefacts do not fire the oracle.
            let interesting = event.reached_storage
                || event
                    .taint
                    .intersects(Taint::CALLDATA | Taint::CALLVALUE | Taint::STORAGE);
            if interesting {
                let function = Self::function_of(compiled, trace, event.pc);
                // Format the detail only for a finding that is new.
                if self.holds(BugClass::IntegerOverflow, function) {
                    continue;
                }
                self.record(
                    BugClass::IntegerOverflow,
                    function,
                    event.pc,
                    format!("{} result truncated to 256 bits", event.opcode.mnemonic()),
                );
            }
        }
    }

    fn observe_reentrancy(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // RE (strong signal): an external call forwarding more than the 2300
        // gas stipend with value attached, and the trace shows the contract
        // being re-entered.
        for call in &trace.calls {
            if call.kind == CallKind::Call && call.gas > 2_300 && !call.value.is_zero() {
                let function = Self::function_of(compiled, trace, call.pc);
                if let Some(name) = function {
                    match self.call_value_invocations.get_mut(name) {
                        Some(count) => *count += 1,
                        None => {
                            self.call_value_invocations.insert(name.to_owned(), 1);
                        }
                    }
                }
                if trace.reentered {
                    self.record(
                        BugClass::Reentrancy,
                        function,
                        call.pc,
                        "contract re-entered through a call.value invocation",
                    );
                }
            }
        }
    }

    fn observe_selfdestruct(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // US: SELFDESTRUCT reachable without any caller check.
        for event in &trace.self_destructs {
            if !event.caller_guarded {
                let function = Self::function_of(compiled, trace, event.pc);
                self.record(
                    BugClass::UnprotectedSelfDestruct,
                    function,
                    event.pc,
                    "selfdestruct executed without a msg.sender/tx.origin guard",
                );
            }
        }
    }

    fn observe_strict_equality(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // SE: a BALANCE value used in an equality comparison that guards a
        // branch.
        for branch in &trace.branches {
            if !branch.cond_taint.contains(Taint::BALANCE) {
                continue;
            }
            let is_equality = branch
                .comparison
                .map(|c| c.kind == mufuzz_evm::CmpKind::Eq)
                .unwrap_or(false);
            if is_equality {
                let function = Self::function_of(compiled, trace, branch.pc);
                self.record(
                    BugClass::StrictEtherEquality,
                    function,
                    branch.pc,
                    "contract balance compared for strict equality in a branch",
                );
            }
        }
    }

    fn observe_tx_origin(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // TO: tx.origin used in a branch condition (authentication pattern).
        for branch in &trace.branches {
            if branch.cond_taint.contains(Taint::ORIGIN) {
                let function = Self::function_of(compiled, trace, branch.pc);
                self.record(
                    BugClass::TxOriginUse,
                    function,
                    branch.pc,
                    "tx.origin used in a branch condition",
                );
            }
        }
    }

    fn observe_unhandled_exception(&mut self, compiled: &CompiledContract, trace: &ExecutionTrace) {
        // UE: a low-level call whose result never flows into a conditional
        // jump, while the callee failed or the call is a gas-stipend send.
        for call in &trace.calls {
            if call.kind != CallKind::Call || call.result_checked {
                continue;
            }
            let failed = !call.success || call.callee_exception;
            let unchecked_send = call.gas <= 2_300 && !call.value.is_zero();
            if failed || unchecked_send {
                let function = Self::function_of(compiled, trace, call.pc);
                self.record(
                    BugClass::UnhandledException,
                    function,
                    call.pc,
                    "return value of a low-level call is never checked",
                );
            }
        }
    }

    /// Campaign-level checks that need global context: ether freezing and the
    /// repeated-invocation reentrancy signal.
    pub fn finalize(&mut self, compiled: &CompiledContract, world: Option<&WorldState>) {
        // EF: the contract can receive ether (a payable function exists) but
        // its runtime code contains no instruction that can ever move value
        // out (CALL/CALLCODE/DELEGATECALL/SELFDESTRUCT).
        let accepts_ether = compiled.abi.functions.iter().any(|f| f.payable)
            || compiled.contract.constructor_payable;
        if accepts_ether {
            let can_release = mufuzz_evm::instructions(&compiled.runtime).any(|(_, op, _)| {
                matches!(
                    op,
                    Opcode::Call | Opcode::CallCode | Opcode::DelegateCall | Opcode::SelfDestruct
                )
            });
            if !can_release {
                self.record(
                    BugClass::EtherFreezing,
                    None,
                    0,
                    "contract accepts ether but has no instruction that can release it",
                );
            }
        }
        if let Some(world) = world {
            for (_, account) in world.accounts() {
                if !account.code.is_empty() && !account.balance.is_zero() {
                    self.held_balance = true;
                }
            }
        }
        // RE (weak signal): a function containing a call.value invocation was
        // exercised repeatedly during the campaign.
        let repeated: Vec<(String, usize)> = self
            .call_value_invocations
            .iter()
            .filter(|(_, &count)| count >= 2)
            .map(|(name, &count)| (name.clone(), count))
            .collect();
        for (name, count) in repeated {
            self.record(
                BugClass::Reentrancy,
                Some(&name),
                0,
                format!("call.value function invoked {count} times during the campaign"),
            );
        }
    }

    /// Merge another monitor's observations into this one.
    ///
    /// Used by the parallel campaign engine: every worker observes traces
    /// into a thread-local monitor — oracle bookkeeping, like the atomic
    /// coverage bitmap, never touches the shared campaign-state mutex — and
    /// the per-worker monitors are merged (in worker order) before
    /// [`CampaignMonitor::finalize`]. Findings deduplicate by
    /// `(class, function)` exactly as sequential observation does,
    /// invocation counts add up, and the held-balance flag ors.
    ///
    /// ```
    /// use mufuzz_oracles::CampaignMonitor;
    /// use mufuzz_evm::U256;
    ///
    /// let mut main = CampaignMonitor::new();
    /// let mut worker = CampaignMonitor::new();
    /// worker.observe_world(U256::from_u64(5)); // the contract held ether
    /// main.merge(worker);
    /// // World observations merge silently; they only become findings (e.g.
    /// // ether freezing) at finalisation.
    /// assert!(main.findings().is_empty());
    /// ```
    pub fn merge(&mut self, other: CampaignMonitor) {
        for (key, finding) in other.findings {
            self.findings.entry(key).or_insert(finding);
        }
        for (name, count) in other.call_value_invocations {
            *self.call_value_invocations.entry(name).or_insert(0) += count;
        }
        self.held_balance |= other.held_balance;
    }

    /// All deduplicated findings so far.
    pub fn findings(&self) -> Vec<BugFinding> {
        self.findings.values().cloned().collect()
    }

    /// Findings restricted to one bug class.
    pub fn findings_of(&self, class: BugClass) -> Vec<BugFinding> {
        self.findings
            .values()
            .filter(|f| f.class == class)
            .cloned()
            .collect()
    }

    /// The set of bug classes observed.
    pub fn detected_classes(&self) -> BTreeSet<BugClass> {
        self.findings.keys().map(|(c, _)| *c).collect()
    }

    /// Export the monitor's full accumulated state for checkpointing.
    pub fn export_state(&self) -> MonitorState {
        MonitorState {
            findings: self.findings(),
            call_value_invocations: self
                .call_value_invocations
                .iter()
                .map(|(name, &count)| (name.clone(), count))
                .collect(),
            held_balance: self.held_balance,
        }
    }

    /// Rebuild a monitor from an exported state. The round trip is exact:
    /// `CampaignMonitor::from_state(m.export_state())` observes, merges and
    /// finalizes identically to `m`.
    pub fn from_state(state: MonitorState) -> CampaignMonitor {
        let mut monitor = CampaignMonitor::new();
        for finding in state.findings {
            let key = (finding.class, finding.function.clone());
            monitor.findings.entry(key).or_insert(finding);
        }
        monitor.call_value_invocations = state.call_value_invocations.into_iter().collect();
        monitor.held_balance = state.held_balance;
        monitor
    }

    /// Number of deduplicated findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// True if nothing has been found.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_evm::{ether, Account, Address, BlockEnv, Evm, HostBehaviour, Message, WorldState};
    use mufuzz_lang::{compile_source, AbiValue};

    struct Rig {
        world: WorldState,
        compiled: CompiledContract,
        contract: Address,
        sender: Address,
        monitor: CampaignMonitor,
    }

    impl Rig {
        fn new(src: &str) -> Rig {
            let compiled = compile_source(src).unwrap();
            let sender = Address::from_low_u64(0xAA);
            let contract = Address::from_low_u64(0xC0DE);
            let mut world = WorldState::new();
            world.put_account(sender, Account::eoa(ether(1_000)));
            let mut evm = Evm::new(&mut world, BlockEnv::default());
            let deployed = evm.deploy(
                sender,
                contract,
                &compiled.constructor,
                compiled.runtime.clone(),
                U256::ZERO,
                vec![],
            );
            assert!(deployed.success, "{:?}", deployed.halt);
            Rig {
                world,
                compiled,
                contract,
                sender,
                monitor: CampaignMonitor::new(),
            }
        }

        fn call(&mut self, function: &str, args: &[AbiValue], value: U256) {
            let abi = self.compiled.abi.function(function).unwrap().clone();
            let data = abi.encode_call(args);
            let mut evm = Evm::new(&mut self.world, BlockEnv::default());
            let result = evm.execute(&Message::new(self.sender, self.contract, value, data));
            self.monitor.observe(&self.compiled, &result.trace);
        }

        fn classes(&mut self) -> BTreeSet<BugClass> {
            self.monitor.finalize(&self.compiled, Some(&self.world));
            self.monitor.detected_classes()
        }
    }

    #[test]
    fn detects_block_dependency() {
        let mut rig = Rig::new(
            r#"contract Lottery {
                mapping(address => uint256) wins;
                function play() public payable {
                    if (block.timestamp % 2 == 0) {
                        wins[msg.sender] += msg.value;
                    }
                }
            }"#,
        );
        rig.call("play", &[], U256::from_u64(10));
        let classes = rig.classes();
        assert!(classes.contains(&BugClass::BlockDependency));
    }

    #[test]
    fn detects_unprotected_delegatecall_and_ignores_guarded_one() {
        let mut rig = Rig::new(
            r#"contract Proxy {
                address owner;
                constructor() public { owner = msg.sender; }
                function open(address target, uint256 data) public { target.delegatecall(data); }
                function guarded(address target, uint256 data) public {
                    require(msg.sender == owner);
                    target.delegatecall(data);
                }
            }"#,
        );
        rig.call(
            "open",
            &[
                AbiValue::Address(Address::from_low_u64(0x99)),
                AbiValue::Uint(U256::from_u64(1)),
            ],
            U256::ZERO,
        );
        rig.call(
            "guarded",
            &[
                AbiValue::Address(Address::from_low_u64(0x99)),
                AbiValue::Uint(U256::from_u64(1)),
            ],
            U256::ZERO,
        );
        rig.monitor.finalize(&rig.compiled, Some(&rig.world));
        let findings = rig.monitor.findings_of(BugClass::UnprotectedDelegatecall);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].function.as_deref(), Some("open"));
    }

    #[test]
    fn detects_integer_overflow_reaching_storage() {
        let mut rig = Rig::new(
            r#"contract Token {
                mapping(address => uint256) balance;
                function mint(uint256 amount) public {
                    balance[msg.sender] += amount * 1000000000000000000;
                }
            }"#,
        );
        rig.call("mint", &[AbiValue::Uint(U256::MAX)], U256::ZERO);
        assert!(rig.classes().contains(&BugClass::IntegerOverflow));
    }

    #[test]
    fn no_overflow_for_small_values() {
        let mut rig = Rig::new(
            r#"contract Token {
                mapping(address => uint256) balance;
                function mint(uint256 amount) public {
                    balance[msg.sender] += amount;
                }
            }"#,
        );
        rig.call("mint", &[AbiValue::Uint(U256::from_u64(5))], U256::ZERO);
        assert!(!rig.classes().contains(&BugClass::IntegerOverflow));
    }

    #[test]
    fn detects_reentrancy_with_attacker_account() {
        let mut rig = Rig::new(
            r#"contract Bank {
                mapping(address => uint256) balances;
                function deposit() public payable { balances[msg.sender] += msg.value; }
                function withdraw() public {
                    if (balances[msg.sender] > 0) {
                        msg.sender.call.value(balances[msg.sender])();
                        balances[msg.sender] = 0;
                    }
                }
            }"#,
        );
        // Make the sender a re-entrant attacker that calls withdraw() again.
        let withdraw_selector = rig.compiled.abi.function("withdraw").unwrap().selector;
        rig.world.account_mut(rig.sender).behaviour = HostBehaviour::ReentrantAttacker {
            callback_data: withdraw_selector.to_vec(),
            max_depth: 3,
        };
        rig.call("deposit", &[], ether(1));
        rig.call("withdraw", &[], U256::ZERO);
        assert!(rig.classes().contains(&BugClass::Reentrancy));
    }

    #[test]
    fn detects_unprotected_selfdestruct_only_without_guard() {
        let mut rig = Rig::new(
            r#"contract Killable {
                address owner;
                constructor() public { owner = msg.sender; }
                function boom() public { selfdestruct(msg.sender); }
            }"#,
        );
        rig.call("boom", &[], U256::ZERO);
        assert!(rig.classes().contains(&BugClass::UnprotectedSelfDestruct));

        let mut guarded = Rig::new(
            r#"contract Killable {
                address owner;
                constructor() public { owner = msg.sender; }
                function boom() public {
                    require(msg.sender == owner);
                    selfdestruct(msg.sender);
                }
            }"#,
        );
        guarded.call("boom", &[], U256::ZERO);
        assert!(!guarded
            .classes()
            .contains(&BugClass::UnprotectedSelfDestruct));
    }

    #[test]
    fn detects_strict_ether_equality() {
        let mut rig = Rig::new(
            r#"contract Strict {
                uint256 prize;
                function check() public payable {
                    if (address(this).balance == 1 ether) { prize = 1; }
                }
            }"#,
        );
        rig.call("check", &[], U256::from_u64(5));
        assert!(rig.classes().contains(&BugClass::StrictEtherEquality));
    }

    #[test]
    fn detects_tx_origin_use() {
        let mut rig = Rig::new(
            r#"contract Auth {
                address owner;
                uint256 flag;
                constructor() public { owner = msg.sender; }
                function sensitive() public {
                    require(tx.origin == owner);
                    flag = 1;
                }
            }"#,
        );
        rig.call("sensitive", &[], U256::ZERO);
        assert!(rig.classes().contains(&BugClass::TxOriginUse));
    }

    #[test]
    fn detects_unhandled_exception_for_unchecked_send() {
        let mut rig = Rig::new(
            r#"contract Pay {
                uint256 sent;
                function payout(address to, uint256 amount) public payable {
                    to.send(amount);
                    sent += amount;
                }
            }"#,
        );
        rig.call(
            "payout",
            &[
                AbiValue::Address(Address::from_low_u64(0x55)),
                AbiValue::Uint(U256::from_u64(1)),
            ],
            U256::from_u64(10),
        );
        assert!(rig.classes().contains(&BugClass::UnhandledException));
    }

    #[test]
    fn checked_send_is_not_reported() {
        let mut rig = Rig::new(
            r#"contract Pay {
                uint256 sent;
                function payout(address to, uint256 amount) public payable {
                    require(to.send(amount));
                    sent += amount;
                }
            }"#,
        );
        rig.call(
            "payout",
            &[
                AbiValue::Address(Address::from_low_u64(0x55)),
                AbiValue::Uint(U256::from_u64(1)),
            ],
            U256::from_u64(10),
        );
        assert!(!rig.classes().contains(&BugClass::UnhandledException));
    }

    #[test]
    fn detects_ether_freezing_statically() {
        let mut rig = Rig::new(
            r#"contract Vault {
                uint256 total;
                function lock() public payable { total += msg.value; }
            }"#,
        );
        rig.call("lock", &[], ether(1));
        assert!(rig.classes().contains(&BugClass::EtherFreezing));

        // A contract with a withdraw path is not frozen.
        let mut ok = Rig::new(
            r#"contract Vault {
                uint256 total;
                function lock() public payable { total += msg.value; }
                function release() public { msg.sender.transfer(total); }
            }"#,
        );
        ok.call("lock", &[], ether(1));
        assert!(!ok.classes().contains(&BugClass::EtherFreezing));
    }

    #[test]
    fn ether_freezing_skips_call_bytes_inside_push_data() {
        // 241 is 0xf1, the CALL opcode, but here it is a PUSH1 immediate: the
        // code still has no instruction that can release ether.
        let mut rig = Rig::new(
            r#"contract Vault {
                uint256 total;
                function lock() public payable { total += msg.value + 241; }
            }"#,
        );
        assert!(rig.compiled.runtime.contains(&0xf1));
        rig.call("lock", &[], ether(1));
        assert!(rig.classes().contains(&BugClass::EtherFreezing));
    }

    #[test]
    fn merged_monitors_deduplicate_and_accumulate() {
        let src = r#"contract Bank {
            mapping(address => uint256) balances;
            function deposit() public payable { balances[msg.sender] += msg.value; }
            function withdraw() public {
                if (balances[msg.sender] > 0) {
                    msg.sender.call.value(balances[msg.sender])();
                    balances[msg.sender] = 0;
                }
            }
        }"#;
        // Two "workers" each observe one deposit+withdraw round; neither sees
        // the repeated call.value invocation on its own.
        let mut a = Rig::new(src);
        a.call("deposit", &[], ether(1));
        a.call("withdraw", &[], U256::ZERO);
        let mut b = Rig::new(src);
        b.call("deposit", &[], ether(1));
        b.call("withdraw", &[], U256::ZERO);

        let compiled = a.compiled.clone();
        let mut merged = a.monitor;
        merged.merge(b.monitor);
        merged.finalize(&compiled, None);
        // The weak repeated-invocation reentrancy signal only fires once the
        // per-worker invocation counts are summed.
        assert!(merged.detected_classes().contains(&BugClass::Reentrancy));

        // Merging the same findings twice does not duplicate them.
        let before = merged.len();
        merged.merge(CampaignMonitor::new());
        assert_eq!(merged.len(), before);
    }

    #[test]
    fn monitor_state_round_trip_is_exact() {
        let src = r#"contract Bank {
            mapping(address => uint256) balances;
            function deposit() public payable { balances[msg.sender] += msg.value; }
            function withdraw() public {
                if (balances[msg.sender] > 0) {
                    msg.sender.call.value(balances[msg.sender])();
                    balances[msg.sender] = 0;
                }
            }
        }"#;
        let mut rig = Rig::new(src);
        rig.call("deposit", &[], ether(1));
        rig.call("withdraw", &[], U256::ZERO);
        rig.call("deposit", &[], ether(1));
        rig.call("withdraw", &[], U256::ZERO);
        rig.monitor.observe_world(U256::from_u64(3));

        let exported = rig.monitor.export_state();
        let mut restored = CampaignMonitor::from_state(exported.clone());
        assert_eq!(restored.export_state(), exported);

        // The restored monitor finalizes to the same detections as the
        // original (the repeated call.value signal survives the round trip).
        let compiled = rig.compiled.clone();
        rig.monitor.finalize(&compiled, None);
        restored.finalize(&compiled, None);
        assert_eq!(restored.findings(), rig.monitor.findings());
        assert!(restored.detected_classes().contains(&BugClass::Reentrancy));
    }

    #[test]
    fn findings_are_deduplicated_across_transactions() {
        let mut rig = Rig::new(
            r#"contract Lottery {
                uint256 wins;
                function play() public payable {
                    if (block.timestamp % 2 == 0) { wins += 1; }
                }
            }"#,
        );
        rig.call("play", &[], U256::ZERO);
        rig.call("play", &[], U256::ZERO);
        rig.call("play", &[], U256::ZERO);
        rig.monitor.finalize(&rig.compiled, Some(&rig.world));
        assert_eq!(rig.monitor.findings_of(BugClass::BlockDependency).len(), 1);
    }
}
