//! The EVM interpreter.
//!
//! A fully instrumented 256-bit stack machine. It supports the opcode subset
//! emitted by the `mufuzz-lang` compiler plus the instructions the bug
//! oracles and path-prefix analysis inspect. Every transaction execution
//! produces an [`ExecutionTrace`] with branch decisions, coverage edges,
//! arithmetic truncation events, call events and storage writes.
//!
//! # Execution pipeline
//!
//! Every frame runs through one dispatcher, the direct-threaded handler
//! chain in `threaded.rs`, over a lowering of the frame's
//! [`DecodedProgram`] (bytecode decoded once per harness into a dense
//! instruction stream with materialised `PUSH` immediates and O(1) `JUMP`
//! resolution, shared via a [`ProgramCache`]). Each unit of a lowering
//! carries a handler pointer resolved at lowering time, and that handler is
//! the only code that gives its opcode, or its fused idiom, its effect. The
//! lowering decides how gas is billed:
//!
//! * a cached program's **block lowering** ([`BlockProgram::lower`], the
//!   default, [`EvmConfig::block_lowering`]) splits the stream into basic
//!   blocks with a pre-summed static gas cost and stack envelope, validated
//!   once per block instead of per instruction, and fuses common compiler
//!   idioms into superinstructions. A block whose envelope cannot be
//!   settled (near-OOG, stack near the limits, a possible instruction-cap
//!   crossing) *deopts*: the frame continues, with the same machine state,
//!   one instruction at a time from the block's first instruction, so faults
//!   and out-of-gas halts are those of per-instruction billing by
//!   construction;
//! * an **unfused lowering** ([`BlockProgram::unfused`]) has one instruction
//!   per unit and per block and runs one instruction at a time: cap check,
//!   static gas, handler. It serves block lowering turned off (cached, so
//!   the differential suites compare block settlement, fusion and deopt
//!   against it), blobs the cache does not hold (constructors, `CREATE2`
//!   init code; lowered per frame) and the rest of a deopting frame
//!   (lowered per frame).
//!
//! The two disciplines share every plain handler, so their comparison
//! checks settlement and fusion, not each opcode's effect: the conformance
//! vectors and the EVM crate's semantics tests pin those by absolute value.
//!
//! Per-execution scratch (operand stacks, memory buffers, call-argument
//! staging, the call stack, calldata, recycled traces and the `SHA3` memo)
//! lives in a reusable [`ExecFrame`] so a fuzzing campaign executes without
//! per-transaction heap churn; see its documentation.

use crate::env::{BlockEnv, ExecutionResult, Message};
use crate::gas::{AccessSets, MAX_REFUND_QUOTIENT};
use crate::keccak::{keccak256, KeccakMemo};
use crate::program::{BlockProgram, DecodedProgram, ProgramCache};
use crate::state::{HostBehaviour, WorldState};
use crate::trace::{CallKind, ExecutionTrace, HaltReason, Taint};
use crate::types::Address;
use crate::u256::U256;
use std::sync::Arc;

/// Configuration knobs for the interpreter.
#[derive(Clone, Copy, Debug)]
pub struct EvmConfig {
    /// Maximum nested call depth.
    pub max_call_depth: usize,
    /// Maximum memory size per frame in bytes.
    pub max_memory: usize,
    /// Hard cap on executed instructions per transaction (loop guard in
    /// addition to gas).
    pub max_instructions: usize,
    /// Gas stipend forwarded on value-bearing `transfer`/`send` style calls.
    pub call_stipend: u64,
    /// Bill cached programs block by block: static gas and the stack
    /// envelope validated once per basic block, with fused superinstructions
    /// for common idioms. Execution semantics are identical to
    /// instruction-at-a-time billing (blocks that cannot be settled deopt to
    /// it). Turning the knob off runs cached programs one instruction at a
    /// time through the same handlers over an unfused lowering: the
    /// discipline the differential suites and A/B benchmarks compare block
    /// settlement and fusion against.
    pub block_lowering: bool,
}

impl Default for EvmConfig {
    fn default() -> Self {
        EvmConfig {
            max_call_depth: 16,
            max_memory: 1 << 20,
            max_instructions: 400_000,
            call_stipend: 2_300,
            block_lowering: true,
        }
    }
}

/// The result of running a single call frame.
pub(crate) struct FrameResult {
    pub(crate) halt: HaltReason,
    pub(crate) output: Vec<u8>,
    pub(crate) gas_left: u64,
}

/// One entry on the interpreter's internal call stack: which contract's code
/// is executing at which depth. Used to detect re-entrancy.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameInfo {
    pub(crate) code_address: Address,
}

/// Per-call-depth scratch buffers.
#[derive(Debug, Default)]
pub(crate) struct DepthScratch {
    pub(crate) stack: Vec<(U256, Taint)>,
    pub(crate) memory: Vec<u8>,
    /// Staging buffer for the argument bytes of an outgoing call.
    pub(crate) args: Vec<u8>,
    /// Indices into `trace.calls` for calls made by this frame whose result
    /// has not yet been consumed by a `JUMPI`.
    pub(crate) unchecked_calls: Vec<usize>,
    /// Indices of truncated arithmetic events produced in this frame.
    pub(crate) truncated_events: Vec<usize>,
}

/// Reusable per-execution scratch space: operand stacks, memory buffers and
/// call-argument staging for every call depth, the interpreter's call stack,
/// a calldata buffer, a pool of cleared [`ExecutionTrace`]s and a memo of
/// `SHA3` digests.
///
/// Buffers are taken for the duration of a call frame or a transaction,
/// cleared (capacity retained) and returned when it ends, so once they have
/// grown to a campaign's high-water marks, executing through a long-lived
/// `ExecFrame` allocates only for what escapes or is new: world-state
/// copies, return data, fault messages, and a trace when the pool is empty.
///
/// Every `SHA3` hashes its input through the frame's keccak memo: a fixed
/// table of 256 entries, each a 64-byte preimage (a mapping slot is
/// `keccak(key ‖ slot)`) and its digest, allocated on the first 64-byte
/// `SHA3` (about 25 KB) and direct-mapped by an Fx hash of the preimage. A
/// hit compares the whole preimage, so it returns exactly the digest
/// hashing would; other lengths are hashed every time.
///
/// A trace leaves
/// in the [`ExecutionResult`]; a caller that hands it back through
/// [`ExecFrame::recycle_trace`] gets it reissued, cleared, by the next
/// transaction. The fuzzing harness keeps one frame per worker and threads
/// it through `execute_sequence_into`; one-shot callers can ignore the type
/// — [`Evm::execute`] creates a transient frame internally.
///
/// ```
/// use mufuzz_evm::{Account, Address, BlockEnv, Evm, ExecFrame, Message, U256, WorldState};
///
/// let mut world = WorldState::new();
/// world.put_account(Address::from_low_u64(1), Account::eoa(U256::from_u64(10)));
/// world.put_account(
///     Address::from_low_u64(2),
///     Account::contract(vec![0x60, 0x01, 0x60, 0x00, 0x55, 0x00], U256::ZERO),
/// );
/// let mut frame = ExecFrame::new();
/// let msg = Message::new(Address::from_low_u64(1), Address::from_low_u64(2), U256::ZERO, vec![]);
/// for _ in 0..3 {
///     // Buffer reuse across executions; results are unaffected.
///     let result = Evm::new(&mut world, BlockEnv::default()).execute_in(&msg, &mut frame);
///     assert!(result.success);
///     frame.recycle_trace(result.trace);
/// }
/// ```
#[derive(Debug, Default)]
pub struct ExecFrame {
    depths: Vec<DepthScratch>,
    /// High-water mark of the branch vector, used to pre-reserve a trace
    /// the pool cannot supply.
    branch_hint: usize,
    /// Per-transaction EIP-2929 warm/cold access sets and the EIP-3529
    /// refund counter, reset at the start of each top-level message.
    pub(crate) access: AccessSets,
    /// Cleared traces handed back through [`ExecFrame::recycle_trace`].
    traces: Vec<ExecutionTrace>,
    /// The interpreter's call stack, empty between transactions.
    frames: Vec<FrameInfo>,
    /// The buffer [`ExecFrame::take_calldata`] hands out.
    calldata: Vec<u8>,
    /// Digests of recent 64-byte `SHA3` preimages.
    pub(crate) keccak: KeccakMemo,
}

impl ExecFrame {
    /// An empty frame. Buffers grow to the campaign's high-water marks over
    /// the first executions and are reused afterwards.
    pub fn new() -> ExecFrame {
        ExecFrame::default()
    }

    /// Hand a trace back for reuse: it is cleared, keeping its capacity,
    /// and issued to a later transaction through this frame.
    pub fn recycle_trace(&mut self, mut trace: ExecutionTrace) {
        trace.clear();
        self.traces.push(trace);
    }

    /// An empty buffer for a message's calldata, with the capacity of
    /// earlier ones once [`ExecFrame::recycle_calldata`] has returned them.
    pub fn take_calldata(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.calldata)
    }

    /// Return a calldata buffer for the next [`ExecFrame::take_calldata`].
    pub fn recycle_calldata(&mut self, mut calldata: Vec<u8>) {
        calldata.clear();
        self.calldata = calldata;
    }

    fn slot(&mut self, depth: usize) -> &mut DepthScratch {
        while self.depths.len() <= depth {
            self.depths.push(DepthScratch::default());
        }
        &mut self.depths[depth]
    }

    /// Borrow the scratch of a call depth by value for the duration of a
    /// frame (the slot is left empty, so re-entrant executions at deeper
    /// depths take their own buffers).
    fn take(&mut self, depth: usize) -> DepthScratch {
        std::mem::take(self.slot(depth))
    }

    /// Return a depth's scratch, cleared but with its capacity retained.
    fn put(&mut self, depth: usize, mut scratch: DepthScratch) {
        scratch.stack.clear();
        scratch.memory.clear();
        scratch.args.clear();
        scratch.unchecked_calls.clear();
        scratch.truncated_events.clear();
        *self.slot(depth) = scratch;
    }

    /// An empty trace: a recycled one, or a fresh one pre-reserved from the
    /// high-water mark of earlier executions. The interpreter takes one per
    /// transaction; a caller that fills a trace itself (say, by copying a
    /// recorded one with `clone_from`) takes it here and hands it back
    /// through [`ExecFrame::recycle_trace`] like any other.
    pub fn take_trace(&mut self) -> ExecutionTrace {
        self.traces.pop().unwrap_or_else(|| {
            let mut trace = ExecutionTrace::new();
            trace.branches.reserve(self.branch_hint);
            trace
        })
    }

    /// Update the high-water marks after an execution.
    fn note(&mut self, trace: &ExecutionTrace) {
        self.branch_hint = self.branch_hint.max(trace.branches.len());
    }
}

/// The execution context of one call frame.
#[derive(Clone, Copy)]
pub(crate) struct FrameCtx<'a> {
    pub(crate) code_address: Address,
    pub(crate) storage_address: Address,
    pub(crate) caller: Address,
    pub(crate) origin: Address,
    pub(crate) value: U256,
    pub(crate) calldata: &'a [u8],
    /// The executing code blob (`CODECOPY`'s source; `CODESIZE` reads the
    /// program's length, which is the same bytes).
    pub(crate) code: &'a [u8],
    pub(crate) gas: u64,
    pub(crate) depth: usize,
}

/// The per-call mutable environment threaded through every frame: the
/// interpreter's internal call stack, the transaction trace, and the
/// reusable scratch frame (depth buffers plus the transaction's EIP-2929
/// access sets).
pub(crate) struct ExecEnv<'e> {
    pub(crate) frames: &'e mut Vec<FrameInfo>,
    pub(crate) trace: &'e mut ExecutionTrace,
    pub(crate) scratch: &'e mut ExecFrame,
}

/// Everything identifying one `CREATE2` site: who creates, with what value
/// and salt, from which depth.
pub(crate) struct CreateSite {
    pub(crate) creator: Address,
    pub(crate) origin: Address,
    pub(crate) value: U256,
    pub(crate) salt: U256,
    pub(crate) depth: usize,
}

/// The EVM: executes messages against a mutable world state.
pub struct Evm<'w> {
    /// World state mutated by execution (committed only on success).
    pub world: &'w mut WorldState,
    /// Block environment.
    pub block: BlockEnv,
    /// Configuration.
    pub config: EvmConfig,
    /// Pre-decoded programs for known code blobs (decode-once fast path).
    programs: Option<&'w ProgramCache>,
}

impl<'w> Evm<'w> {
    /// Create an interpreter over a world state with the given block env.
    pub fn new(world: &'w mut WorldState, block: BlockEnv) -> Self {
        Evm {
            world,
            block,
            config: EvmConfig::default(),
            programs: None,
        }
    }

    /// Attach a cache of pre-decoded programs. Code blobs found in the cache
    /// execute through their decoded instruction stream without re-decoding;
    /// everything else is decoded on the fly.
    pub fn with_programs(mut self, programs: &'w ProgramCache) -> Self {
        self.programs = Some(programs);
        self
    }

    /// Deploy a contract: create the account with `runtime_code`, endow it
    /// with `value` from the deployer and execute `constructor_code` in the
    /// context of the new account so storage initialisation takes effect.
    pub fn deploy(
        &mut self,
        deployer: Address,
        address: Address,
        constructor_code: &[u8],
        runtime_code: Vec<u8>,
        value: U256,
        constructor_args: Vec<u8>,
    ) -> ExecutionResult {
        self.world.set_code(address, Arc::new(runtime_code));
        if !self.world.transfer(deployer, address, value) {
            return ExecutionResult {
                success: false,
                output: vec![],
                gas_used: 0,
                halt: HaltReason::Fault("insufficient deployer balance".into()),
                trace: ExecutionTrace::new(),
            };
        }
        // Run the constructor against the freshly created account, but with
        // the constructor code rather than the runtime code.
        let msg = Message {
            caller: deployer,
            origin: deployer,
            to: address,
            value: U256::ZERO,
            data: constructor_args,
            gas: 10_000_000,
        };
        let mut scratch = ExecFrame::new();
        self.execute_with_code(&msg, Arc::new(constructor_code.to_vec()), &mut scratch)
    }

    /// Execute a top-level transaction. State changes are committed only if
    /// the outermost frame succeeds; otherwise the world is rolled back.
    pub fn execute(&mut self, msg: &Message) -> ExecutionResult {
        let mut scratch = ExecFrame::new();
        self.execute_in(msg, &mut scratch)
    }

    /// Like [`Evm::execute`], reusing the caller's [`ExecFrame`] scratch
    /// buffers instead of allocating fresh ones.
    pub fn execute_in(&mut self, msg: &Message, scratch: &mut ExecFrame) -> ExecutionResult {
        let code = self.world.code(msg.to);
        self.execute_with_code(msg, code, scratch)
    }

    fn execute_with_code(
        &mut self,
        msg: &Message,
        code: Arc<Vec<u8>>,
        scratch: &mut ExecFrame,
    ) -> ExecutionResult {
        // Undo point for the whole transaction: every world write below is
        // journaled and rolled back unless the outermost frame succeeds.
        let checkpoint = self.world.checkpoint();
        let mut trace = scratch.take_trace();
        trace.entered_selector = msg.selector();

        // Fresh per-transaction access sets (EIP-2929): the sender and the
        // target are warm from the first instruction.
        scratch.access.reset();
        scratch.access.prewarm(msg.caller);
        scratch.access.prewarm(msg.to);

        // Value transfer first; a failed transfer aborts the transaction.
        if !self.world.transfer(msg.caller, msg.to, msg.value) {
            self.world.revert_to(checkpoint);
            trace.halt = HaltReason::Fault("insufficient balance for value transfer".into());
            return ExecutionResult {
                success: false,
                output: vec![],
                gas_used: 0,
                halt: trace.halt.clone(),
                trace,
            };
        }

        let result = if code.is_empty() {
            // Plain transfer to an EOA.
            FrameResult {
                halt: HaltReason::Normal,
                output: vec![],
                gas_left: msg.gas,
            }
        } else {
            let mut frames = std::mem::take(&mut scratch.frames);
            frames.push(FrameInfo {
                code_address: msg.to,
            });
            let ctx = FrameCtx {
                code_address: msg.to,
                storage_address: msg.to,
                caller: msg.caller,
                origin: msg.origin,
                value: msg.value,
                calldata: &msg.data,
                code: &code,
                gas: msg.gas,
                depth: 0,
            };
            let result = self.dispatch_frame(&code, ctx, &mut frames, &mut trace, scratch);
            frames.clear();
            scratch.frames = frames;
            result
        };

        let mut gas_used = msg.gas.saturating_sub(result.gas_left);
        let success = result.halt.is_success();
        if success {
            // EIP-3529 settlement: refunds earned by `SSTORE` clears are
            // applied against the final bill, capped to a fifth of the gas
            // actually consumed. Failed transactions forfeit their refunds.
            let refund = scratch.access.refund().min(gas_used / MAX_REFUND_QUOTIENT);
            gas_used -= refund;
        }
        trace.gas_used = gas_used;
        trace.halt = result.halt.clone();
        if success {
            self.world.commit(checkpoint);
        } else {
            self.world.revert_to(checkpoint);
        }
        scratch.note(&trace);
        ExecutionResult {
            success,
            output: result.output,
            gas_used,
            halt: result.halt,
            trace,
        }
    }

    /// Run a call frame through the threaded dispatcher: a cached blob's
    /// block lowering by default, its unfused lowering when block lowering
    /// is off, and an unfused lowering built for this frame when the blob is
    /// uncached (constructors, `CREATE2` init code). The depth's scratch
    /// buffers are borrowed for the frame and returned for reuse whatever
    /// way it halts.
    fn dispatch_frame(
        &mut self,
        code: &Arc<Vec<u8>>,
        ctx: FrameCtx<'_>,
        frames: &mut Vec<FrameInfo>,
        trace: &mut ExecutionTrace,
        scratch: &mut ExecFrame,
    ) -> FrameResult {
        let cached = self.programs.and_then(|cache| {
            if self.config.block_lowering {
                cache.get_block(code).map(Arc::as_ref)
            } else {
                cache.get_unfused(code)
            }
        });
        let uncached;
        let program = match cached {
            Some(program) => program,
            None => {
                uncached = BlockProgram::unfused(Arc::new(DecodedProgram::decode(code)));
                &uncached
            }
        };
        let mut owned = scratch.take(ctx.depth);
        if owned.stack.capacity() == 0 {
            owned.stack.reserve(64);
        }
        let env = ExecEnv {
            frames,
            trace,
            scratch: &mut *scratch,
        };
        let result = crate::threaded::run(self, program, ctx, env, &mut owned);
        scratch.put(ctx.depth, owned);
        result
    }

    /// Perform a nested message call (CALL/CALLCODE/DELEGATECALL/STATICCALL).
    /// Returns `(success, callee_exception, output, gas_spent)`, where
    /// `gas_spent` is how much of the forwarded gas the callee consumed (all
    /// of it on an exceptional halt, the used portion on success or revert,
    /// nothing for EOA transfers and host-behaviour stubs).
    pub(crate) fn do_call(
        &mut self,
        call: CallContext,
        args: &[u8],
        frames: &mut Vec<FrameInfo>,
        trace: &mut ExecutionTrace,
        scratch: &mut ExecFrame,
    ) -> (bool, bool, Vec<u8>, u64) {
        let CallContext {
            kind,
            code_address,
            storage_address,
            caller,
            origin,
            current_value,
            to,
            call_value,
            gas,
            depth,
        } = call;
        if depth + 1 >= self.config.max_call_depth {
            return (false, false, vec![], 0);
        }

        // Value transfer for plain CALLs.
        if kind == CallKind::Call && !call_value.is_zero() {
            let from = storage_address;
            if !self.world.transfer(from, to, call_value) {
                return (false, false, vec![], 0);
            }
        }

        match self.world.account(to).map(|a| &a.behaviour) {
            Some(HostBehaviour::RejectingSink) => {
                // The sink rejects: undo the transfer and report failure with
                // an exception in the callee.
                if kind == CallKind::Call && !call_value.is_zero() {
                    self.world.transfer(to, storage_address, call_value);
                }
                (false, true, vec![], 0)
            }
            Some(&HostBehaviour::ReentrantAttacker { max_depth, .. }) => {
                // The attacker immediately calls back into the calling
                // contract, provided it still has gas and depth budget.
                let mut gas_spent = 0u64;
                if depth + 2 < self.config.max_call_depth && depth < max_depth && gas > 10_000 {
                    trace.reentered = true;
                    let callee_code = self.world.code(code_address);
                    if !callee_code.is_empty() {
                        // The attacker stub runs no frame at its own depth,
                        // so that depth's argument buffer stages the
                        // callback bytes (the interpreter needs the world
                        // mutably while they are read).
                        let mut stub = scratch.take(depth + 1);
                        if let Some(HostBehaviour::ReentrantAttacker { callback_data, .. }) =
                            self.world.account(to).map(|a| &a.behaviour)
                        {
                            stub.args.extend_from_slice(callback_data);
                        }
                        frames.push(FrameInfo { code_address: to });
                        let callback_gas = gas.saturating_sub(5_000);
                        let ctx = FrameCtx {
                            code_address,
                            storage_address,
                            caller: to,
                            origin,
                            value: U256::ZERO,
                            calldata: &stub.args,
                            code: &callee_code,
                            gas: callback_gas,
                            depth: depth + 2,
                        };
                        let cp = scratch.access.checkpoint();
                        let result = self.dispatch_frame(&callee_code, ctx, frames, trace, scratch);
                        if !result.halt.is_success() {
                            scratch.access.revert_to(cp);
                        }
                        gas_spent = callback_gas.saturating_sub(result.gas_left);
                        frames.pop();
                        scratch.put(depth + 1, stub);
                    }
                }
                (true, false, vec![], gas_spent)
            }
            Some(HostBehaviour::None) | None => {
                let code = match self.world.account(to) {
                    Some(account) if !account.code.is_empty() => Arc::clone(&account.code),
                    // Plain transfer to an EOA succeeds.
                    _ => return (true, false, vec![], 0),
                };
                // Determine execution context per call kind.
                let (exec_code_addr, exec_storage_addr, exec_caller, exec_value) = match kind {
                    CallKind::Call | CallKind::StaticCall => (to, to, code_address, call_value),
                    CallKind::CallCode => (to, storage_address, code_address, call_value),
                    CallKind::DelegateCall => (to, storage_address, caller, current_value),
                };
                frames.push(FrameInfo { code_address: to });
                let ctx = FrameCtx {
                    code_address: exec_code_addr,
                    storage_address: exec_storage_addr,
                    caller: exec_caller,
                    origin,
                    value: exec_value,
                    calldata: args,
                    code: &code,
                    gas,
                    depth: depth + 1,
                };
                // Journal checkpoint: a reverting callee must not leave warm
                // access entries or refunds behind (EIP-2929/3529 semantics).
                let cp = scratch.access.checkpoint();
                let result = self.dispatch_frame(&code, ctx, frames, trace, scratch);
                frames.pop();
                let success = result.halt.is_success();
                if !success {
                    scratch.access.revert_to(cp);
                }
                let exception = matches!(
                    result.halt,
                    HaltReason::Invalid | HaltReason::Fault(_) | HaltReason::OutOfGas
                );
                if !success && kind == CallKind::Call && !call_value.is_zero() {
                    // Undo the value transfer of a failed call.
                    self.world.transfer(to, storage_address, call_value);
                }
                // Exceptional halts consume everything that was forwarded;
                // success and revert refund the unused remainder.
                let gas_spent = if exception {
                    gas
                } else {
                    gas.saturating_sub(result.gas_left)
                };
                (success, exception, result.output, gas_spent)
            }
        }
    }

    /// Deploy a contract via `CREATE2`: derive the deterministic address
    /// (`keccak(0xff ‖ creator ‖ salt ‖ keccak(init))[12..]`), run the init
    /// code, and install its return data as the new account's runtime code.
    ///
    /// Returns `(created_address_or_zero, return_data)`; `gas_left` is
    /// debited in place for the child frame's consumption (all forwarded gas
    /// on an exceptional halt, EIP-150 style). Depth exhaustion, an
    /// unpayable endowment and address collisions push zero without spending
    /// gas, like a failed call. No [`CallEvent`](crate::trace::CallEvent) is
    /// recorded: creations are not message calls, and the reentrancy oracle
    /// keys off call events.
    pub(crate) fn do_create2(
        &mut self,
        site: CreateSite,
        init: &[u8],
        frames: &mut Vec<FrameInfo>,
        trace: &mut ExecutionTrace,
        scratch: &mut ExecFrame,
        gas_left: &mut u64,
    ) -> (U256, Vec<u8>) {
        let CreateSite {
            creator,
            origin,
            value,
            salt,
            depth,
        } = site;
        if depth + 1 >= self.config.max_call_depth {
            return (U256::ZERO, vec![]);
        }

        let mut preimage = Vec::with_capacity(1 + 20 + 32 + 32);
        preimage.push(0xff);
        preimage.extend_from_slice(&creator.0);
        preimage.extend_from_slice(&salt.to_be_bytes());
        preimage.extend_from_slice(&keccak256(init));
        let digest = keccak256(&preimage);
        let mut raw = [0u8; 20];
        raw.copy_from_slice(&digest[12..32]);
        let created = Address(raw);

        // Address collision (an account with code or a used nonce already
        // lives there) fails the creation outright.
        if let Some(acct) = self.world.account(created) {
            if !acct.code.is_empty() || acct.nonce != 0 {
                return (U256::ZERO, vec![]);
            }
        }

        // The journal checkpoint is taken *before* the new account is
        // touched, so a failed creation leaves it cold again.
        let cp = scratch.access.checkpoint();
        scratch.access.touch_address(created);

        // Endowment transfer; an unpayable value fails the creation.
        if !self.world.transfer(creator, created, value) {
            scratch.access.revert_to(cp);
            return (U256::ZERO, vec![]);
        }

        // EIP-150: forward all but one 64th of the remaining gas.
        let forwarded = *gas_left - *gas_left / 64;
        let init_arc = Arc::new(init.to_vec());
        frames.push(FrameInfo {
            code_address: created,
        });
        let ctx = FrameCtx {
            code_address: created,
            storage_address: created,
            caller: creator,
            origin,
            value,
            calldata: &[],
            code: &init_arc,
            gas: forwarded,
            depth: depth + 1,
        };
        let result = self.dispatch_frame(&init_arc, ctx, frames, trace, scratch);
        frames.pop();
        let success = result.halt.is_success();
        let exception = matches!(
            result.halt,
            HaltReason::Invalid | HaltReason::Fault(_) | HaltReason::OutOfGas
        );
        let gas_spent = if exception {
            forwarded
        } else {
            forwarded.saturating_sub(result.gas_left)
        };
        *gas_left = gas_left.saturating_sub(gas_spent);
        if success {
            self.world.set_code(created, Arc::new(result.output));
            self.world.set_nonce(created, 1);
            (created.to_u256(), vec![])
        } else {
            // Undo the endowment, the access-set entries and any refunds the
            // init frame earned; a REVERT's output becomes the caller's
            // RETURNDATA buffer.
            self.world.transfer(created, creator, value);
            scratch.access.revert_to(cp);
            let output = if exception { vec![] } else { result.output };
            (U256::ZERO, output)
        }
    }
}

/// Everything identifying one outgoing message call.
pub(crate) struct CallContext {
    pub(crate) kind: CallKind,
    pub(crate) code_address: Address,
    pub(crate) storage_address: Address,
    pub(crate) caller: Address,
    pub(crate) origin: Address,
    pub(crate) current_value: U256,
    pub(crate) to: Address,
    pub(crate) call_value: U256,
    pub(crate) gas: u64,
    pub(crate) depth: usize,
}

/// Read a 32-byte word from calldata with zero padding.
pub(crate) fn calldata_word(calldata: &[u8], offset: U256) -> U256 {
    let offset = match offset.to_usize() {
        Some(o) => o,
        None => return U256::ZERO,
    };
    let mut word = [0u8; 32];
    for (i, byte) in word.iter_mut().enumerate() {
        *byte = calldata.get(offset + i).copied().unwrap_or(0);
    }
    U256::from_be_bytes(word)
}

/// End offset of a `[offset, offset + len)` memory span, rejecting
/// address-space overflow (the memory cap would reject any such span anyway;
/// this keeps the arithmetic well-defined instead of panicking).
pub(crate) fn mem_span(offset: usize, len: usize) -> Result<usize, &'static str> {
    offset.checked_add(len).ok_or("memory span overflows")
}

/// Why a memory request was rejected.
#[derive(Debug)]
pub(crate) enum MemFail {
    /// Structurally invalid or above the configured hard cap — a frame fault.
    Fault(&'static str),
    /// The quadratic expansion cost exceeds the remaining gas.
    OutOfGas,
}

impl From<&'static str> for MemFail {
    fn from(msg: &'static str) -> MemFail {
        MemFail::Fault(msg)
    }
}

/// Total gas cost of a memory footprint of `words` 32-byte words (the EVM's
/// `C_mem`): `3·w + w²/512`. Computed in `u128` so absurd word counts
/// saturate into a guaranteed out-of-gas instead of wrapping.
fn memory_cost(words: u64) -> u128 {
    3 * words as u128 + (words as u128 * words as u128) / 512
}

/// Grow memory to hold `size` bytes, charging the quadratic word cost of the
/// expansion against `gas_left` and enforcing the configured cap. Growth is
/// word-granular (32-byte multiples, the EVM's `MSIZE` unit); the `resize`
/// performs a single amortised reservation followed by one zero-fill, so
/// each growth event is at most one allocation — and none at all once a
/// reused [`ExecFrame`] buffer has reached its high-water capacity.
///
/// Gas is charged before the cap is checked, mirroring the EVM (where the
/// expansion charge is what stops huge offsets): a request the remaining gas
/// cannot pay halts with `OutOfGas`, while a payable request above the
/// simulator's hard cap faults.
pub(crate) fn ensure_memory(
    memory: &mut Vec<u8>,
    size: usize,
    max: usize,
    gas_left: &mut u64,
) -> Result<(), MemFail> {
    if memory.len() < size {
        let old_words = (memory.len() / 32) as u64;
        let new_words = (size as u64).div_ceil(32);
        let cost = memory_cost(new_words) - memory_cost(old_words);
        if cost > *gas_left as u128 {
            return Err(MemFail::OutOfGas);
        }
        if size > max {
            return Err(MemFail::Fault("memory limit exceeded"));
        }
        *gas_left -= cost as u64;
        memory.resize(size.next_multiple_of(32), 0);
    } else if size > max {
        // No growth needed (the request lands in the word-granular padding
        // of an earlier expansion), but the hard cap still applies: with a
        // non-32-multiple cap the padding bytes are not addressable.
        return Err(MemFail::Fault("memory limit exceeded"));
    }
    Ok(())
}

/// Read a `[offset, offset+len)` range of memory, growing (and charging for)
/// it as needed.
pub(crate) fn read_memory_range(
    memory: &mut Vec<u8>,
    offset: U256,
    len: U256,
    max: usize,
    gas_left: &mut u64,
) -> Result<Vec<u8>, MemFail> {
    let offset = offset.to_usize().ok_or("memory offset out of range")?;
    let len = len.to_usize().ok_or("memory length out of range")?;
    if len == 0 {
        return Ok(vec![]);
    }
    ensure_memory(memory, mem_span(offset, len)?, max, gas_left)?;
    Ok(memory[offset..offset + len].to_vec())
}

/// Like [`read_memory_range`], but appending into a reusable buffer instead
/// of allocating (the call-argument staging path).
pub(crate) fn read_memory_into(
    memory: &mut Vec<u8>,
    offset: U256,
    len: U256,
    max: usize,
    gas_left: &mut u64,
    out: &mut Vec<u8>,
) -> Result<(), MemFail> {
    let offset = offset.to_usize().ok_or("memory offset out of range")?;
    let len = len.to_usize().ok_or("memory length out of range")?;
    if len == 0 {
        return Ok(());
    }
    ensure_memory(memory, mem_span(offset, len)?, max, gas_left)?;
    out.extend_from_slice(&memory[offset..offset + len]);
    Ok(())
}

/// 256-bit exponentiation by squaring, reporting whether any intermediate
/// multiplication truncated.
pub(crate) fn exp_u256(base: U256, exponent: U256) -> (U256, bool) {
    let mut result = U256::ONE;
    let mut overflowed = false;
    let mut base_acc = base;
    let bits = exponent.bits();
    for i in 0..bits {
        if exponent.bit(i as usize) {
            let (r, o) = result.overflowing_mul(base_acc);
            result = r;
            overflowed |= o;
        }
        if i + 1 < bits {
            let (b, o) = base_acc.overflowing_mul(base_acc);
            base_acc = b;
            overflowed |= o;
        }
    }
    (result, overflowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Account;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    /// Build a world with a single contract at address 0x100 and a funded
    /// sender at 0x1.
    fn world_with_code(code: Vec<u8>) -> WorldState {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u128(1u128 << 100)));
        world.put_account(addr(0x100), Account::contract(code, U256::ZERO));
        world
    }

    fn run(code: Vec<u8>, data: Vec<u8>, value: U256) -> ExecutionResult {
        let mut world = world_with_code(code);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        evm.execute(&Message::new(addr(1), addr(0x100), value, data))
    }

    /// Assemble: push a constant and return it as a 32-byte word.
    fn return_word_program(ops: &[u8]) -> Vec<u8> {
        // ops should leave one value on stack; then MSTORE at 0, RETURN 32.
        let mut code = ops.to_vec();
        code.extend_from_slice(&[
            0x60, 0x00, // PUSH1 0
            0x52, // MSTORE
            0x60, 0x20, // PUSH1 32
            0x60, 0x00, // PUSH1 0
            0xf3, // RETURN
        ]);
        code
    }

    fn output_as_u256(result: &ExecutionResult) -> U256 {
        U256::from_be_slice(&result.output)
    }

    #[test]
    fn add_and_return() {
        // PUSH1 2, PUSH1 3, ADD
        let result = run(
            return_word_program(&[0x60, 0x02, 0x60, 0x03, 0x01]),
            vec![],
            U256::ZERO,
        );
        assert!(result.success);
        assert_eq!(output_as_u256(&result), U256::from_u64(5));
    }

    #[test]
    fn overflow_recorded_in_trace() {
        // PUSH1 1, PUSH32 MAX, ADD -> wraps to 0 and records an arith event.
        let mut ops = vec![0x60, 0x01, 0x7f];
        ops.extend_from_slice(&[0xff; 32]);
        ops.push(0x01);
        let result = run(return_word_program(&ops), vec![], U256::ZERO);
        assert!(result.success);
        assert_eq!(output_as_u256(&result), U256::ZERO);
        assert_eq!(result.trace.arith_events.len(), 1);
        assert!(result.trace.arith_events[0].truncated);
    }

    #[test]
    fn storage_roundtrip_through_sstore_sload() {
        // PUSH1 42, PUSH1 7, SSTORE, PUSH1 7, SLOAD, return
        let code = return_word_program(&[0x60, 0x2a, 0x60, 0x07, 0x55, 0x60, 0x07, 0x54]);
        let result = run(code, vec![], U256::ZERO);
        assert!(result.success);
        assert_eq!(output_as_u256(&result), U256::from_u64(42));
        assert_eq!(result.trace.storage_writes.len(), 1);
        assert_eq!(result.trace.storage_writes[0].slot, U256::from_u64(7));
    }

    #[test]
    fn jumpi_taken_and_branch_recorded() {
        // PUSH1 1, PUSH1 7, JUMPI, INVALID, JUMPDEST, STOP
        // pc: 0:PUSH1, 2:PUSH1, 4:JUMPI, 5:INVALID, 6:JUMPDEST, 7:STOP
        let code = vec![0x60, 0x01, 0x60, 0x06, 0x57, 0xfe, 0x5b, 0x00];
        let result = run(code, vec![], U256::ZERO);
        assert!(result.success, "halt: {:?}", result.halt);
        assert_eq!(result.trace.branches.len(), 1);
        assert!(result.trace.branches[0].taken);
    }

    #[test]
    fn jumpi_not_taken_falls_through_to_invalid() {
        let code = vec![0x60, 0x00, 0x60, 0x06, 0x57, 0xfe, 0x5b, 0x00];
        let result = run(code, vec![], U256::ZERO);
        assert!(!result.success);
        assert_eq!(result.halt, HaltReason::Invalid);
        assert!(!result.trace.branches[0].taken);
    }

    #[test]
    fn invalid_jump_destination_faults() {
        // JUMP to a non-JUMPDEST position.
        let code = vec![0x60, 0x00, 0x56];
        let result = run(code, vec![], U256::ZERO);
        assert!(!result.success);
        assert!(matches!(result.halt, HaltReason::Fault(_)));
    }

    #[test]
    fn jump_into_push_data_faults() {
        // PUSH1 0x03, JUMP — pc 3 would be inside the PUSH2 immediate that
        // follows, where a 0x5b byte is data, not a JUMPDEST.
        let code = vec![0x60, 0x03, 0x56, 0x61, 0x5b, 0x5b, 0x00];
        let result = run(code, vec![], U256::ZERO);
        assert!(!result.success);
        assert!(matches!(result.halt, HaltReason::Fault(_)));
    }

    #[test]
    fn revert_rolls_back_state() {
        // Store then revert: the storage write must not persist.
        // PUSH1 1, PUSH1 0, SSTORE, PUSH1 0, PUSH1 0, REVERT
        let code = vec![0x60, 0x01, 0x60, 0x00, 0x55, 0x60, 0x00, 0x60, 0x00, 0xfd];
        let mut world = world_with_code(code);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert!(!result.success);
        assert_eq!(result.halt, HaltReason::Revert);
        assert_eq!(world.storage(addr(0x100), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn successful_execution_commits_state() {
        let code = vec![0x60, 0x01, 0x60, 0x00, 0x55, 0x00];
        let mut world = world_with_code(code);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert!(result.success);
        assert_eq!(world.storage(addr(0x100), U256::ZERO), U256::ONE);
    }

    #[test]
    fn value_transfer_updates_balances() {
        let code = vec![0x00];
        let mut world = world_with_code(code);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(
            addr(1),
            addr(0x100),
            U256::from_u64(1234),
            vec![],
        ));
        assert!(result.success);
        assert_eq!(world.balance(addr(0x100)), U256::from_u64(1234));
    }

    #[test]
    fn insufficient_balance_rejected() {
        let code = vec![0x00];
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(10)));
        world.put_account(addr(0x100), Account::contract(code, U256::ZERO));
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(
            addr(1),
            addr(0x100),
            U256::from_u64(100),
            vec![],
        ));
        assert!(!result.success);
        assert_eq!(world.balance(addr(0x100)), U256::ZERO);
    }

    #[test]
    fn calldataload_reads_arguments() {
        // PUSH1 0, CALLDATALOAD, return it
        let code = return_word_program(&[0x60, 0x00, 0x35]);
        let mut data = vec![0u8; 32];
        data[31] = 0x99;
        let result = run(code, data, U256::ZERO);
        assert!(result.success);
        assert_eq!(output_as_u256(&result), U256::from_u64(0x99));
    }

    #[test]
    fn caller_taint_reaches_branch_guard() {
        // CALLER, PUSH1 0, EQ, PUSH1 dest, JUMPI ... (the comparison taints the condition)
        // Layout: 0:CALLER 1:PUSH1 0 3:EQ 4:PUSH1 8 6:JUMPI 7:STOP 8:JUMPDEST 9:STOP
        let code = vec![0x33, 0x60, 0x00, 0x14, 0x60, 0x08, 0x57, 0x00, 0x5b, 0x00];
        let result = run(code, vec![], U256::ZERO);
        assert!(result.success);
        let branch = &result.trace.branches[0];
        assert!(branch.cond_taint.contains(Taint::CALLER));
        assert!(branch.comparison.is_some());
    }

    #[test]
    fn timestamp_taint_propagates() {
        // TIMESTAMP, PUSH1 0, GT, push dest, JUMPI
        let code = vec![0x42, 0x60, 0x00, 0x11, 0x60, 0x08, 0x57, 0x00, 0x5b, 0x00];
        let result = run(code, vec![], U256::ZERO);
        assert!(result.success);
        assert!(result.trace.branches[0].cond_taint.contains(Taint::BLOCK));
    }

    #[test]
    fn call_to_eoa_succeeds_and_moves_value() {
        // Contract sends 5 wei to address 0x2 via CALL.
        // PUSH1 0 (retLen) PUSH1 0 (retOff) PUSH1 0 (argLen) PUSH1 0 (argOff)
        // PUSH1 5 (value) PUSH1 0x02 (to) PUSH2 0x0fff (gas) CALL, POP, STOP
        let code = vec![
            0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x05, 0x60, 0x02, 0x61, 0x0f,
            0xff, 0xf1, 0x50, 0x00,
        ];
        let mut world = world_with_code(code);
        world.account_mut(addr(0x100)).balance = U256::from_u64(100);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert!(result.success);
        assert_eq!(result.trace.calls.len(), 1);
        assert!(result.trace.calls[0].success);
        assert_eq!(world.balance(addr(2)), U256::from_u64(5));
        assert_eq!(world.balance(addr(0x100)), U256::from_u64(95));
    }

    #[test]
    fn call_to_rejecting_sink_fails() {
        let code = vec![
            0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x05, 0x60, 0x02, 0x61, 0x0f,
            0xff, 0xf1, 0x50, 0x00,
        ];
        let mut world = world_with_code(code);
        world.account_mut(addr(0x100)).balance = U256::from_u64(100);
        world.account_mut(addr(2)).behaviour = HostBehaviour::RejectingSink;
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert!(result.success);
        assert!(!result.trace.calls[0].success);
        assert!(result.trace.calls[0].callee_exception);
        assert_eq!(world.balance(addr(2)), U256::ZERO);
        assert_eq!(world.balance(addr(0x100)), U256::from_u64(100));
    }

    #[test]
    fn selfdestruct_transfers_balance_and_records_event() {
        // PUSH1 0x02, SELFDESTRUCT
        let code = vec![0x60, 0x02, 0xff];
        let mut world = world_with_code(code);
        world.account_mut(addr(0x100)).balance = U256::from_u64(77);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert!(result.success);
        assert_eq!(result.trace.self_destructs.len(), 1);
        assert!(!result.trace.self_destructs[0].caller_guarded);
        assert_eq!(world.balance(addr(2)), U256::from_u64(77));
        assert!(world.account(addr(0x100)).unwrap().destroyed);
    }

    #[test]
    fn out_of_gas_halts() {
        // Infinite loop: JUMPDEST, PUSH1 0, JUMP
        let code = vec![0x5b, 0x60, 0x00, 0x56];
        let mut world = world_with_code(code);
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let mut msg = Message::new(addr(1), addr(0x100), U256::ZERO, vec![]);
        msg.gas = 10_000;
        let result = evm.execute(&msg);
        assert!(!result.success);
        assert_eq!(result.halt, HaltReason::OutOfGas);
    }

    #[test]
    fn stack_underflow_faults() {
        let code = vec![0x01]; // ADD on empty stack
        let result = run(code, vec![], U256::ZERO);
        assert!(!result.success);
        assert!(matches!(result.halt, HaltReason::Fault(_)));
    }

    #[test]
    fn sha3_hashes_memory() {
        // MSTORE 0 <- 0x01, SHA3(31,1) should hash the byte 0x01.
        // PUSH1 1, PUSH1 0, MSTORE, PUSH1 1, PUSH1 31, SHA3, return
        let code =
            return_word_program(&[0x60, 0x01, 0x60, 0x00, 0x52, 0x60, 0x01, 0x60, 0x1f, 0x20]);
        let result = run(code, vec![], U256::ZERO);
        assert!(result.success);
        let expected = U256::from_be_bytes(keccak256(&[0x01]));
        assert_eq!(output_as_u256(&result), expected);
    }

    #[test]
    fn exp_helper_detects_overflow() {
        let (v, o) = exp_u256(U256::from_u64(2), U256::from_u64(10));
        assert_eq!(v, U256::from_u64(1024));
        assert!(!o);
        let (_, o2) = exp_u256(U256::from_u64(2), U256::from_u64(300));
        assert!(o2);
        let (one, o3) = exp_u256(U256::from_u64(9), U256::ZERO);
        assert_eq!(one, U256::ONE);
        assert!(!o3);
    }

    #[test]
    fn deploy_runs_constructor_against_new_account() {
        // Constructor: store 11 at slot 0.
        let ctor = vec![0x60, 0x0b, 0x60, 0x00, 0x55, 0x00];
        let runtime = vec![0x00];
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(1000)));
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.deploy(
            addr(1),
            addr(0x200),
            &ctor,
            runtime.clone(),
            U256::ZERO,
            vec![],
        );
        assert!(result.success);
        assert_eq!(world.storage(addr(0x200), U256::ZERO), U256::from_u64(11));
        assert_eq!(*world.code(addr(0x200)), runtime);
    }

    #[test]
    fn reentrant_attacker_reenters_caller() {
        // Victim: CALL to attacker (0x2) with value 5, then STOP.
        let code = vec![
            0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x05, 0x60, 0x02, 0x62, 0x0f,
            0xff, 0xff, 0xf1, 0x50, 0x00,
        ];
        let mut world = world_with_code(code);
        world.account_mut(addr(0x100)).balance = U256::from_u64(100);
        world.account_mut(addr(2)).behaviour = HostBehaviour::ReentrantAttacker {
            callback_data: vec![],
            max_depth: 3,
        };
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert!(result.success);
        assert!(result.trace.reentered);
        // The victim was re-entered, so more than one call event exists.
        assert!(result.trace.calls.len() > 1);
    }

    #[test]
    fn block_tier_matches_the_predecoded_reference() {
        // A program exercising pushes, jumps, storage, memory and a call.
        let code = vec![
            0x60, 0x2a, 0x60, 0x01, 0x55, // SSTORE slot 1 <- 42
            0x60, 0x01, 0x60, 0x0b, 0x57, // JUMPI taken to 0x0b
            0xfe, // INVALID (skipped)
            0x5b, // JUMPDEST
            0x60, 0x01, 0x54, // SLOAD slot 1
            0x60, 0x00, 0x52, // MSTORE
            0x60, 0x20, 0x60, 0x00, 0xf3, // RETURN 32 bytes
        ];
        let exec = |block_lowering: bool| {
            let mut world = world_with_code(code.clone());
            // Cache the blob: without a cache entry both settings run it
            // one instruction at a time.
            let blob = world.code(addr(0x100));
            let mut cache = ProgramCache::new();
            cache.insert(Arc::clone(&blob), Arc::new(DecodedProgram::decode(&blob)));
            let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
            evm.config.block_lowering = block_lowering;
            let result = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
            (result, world)
        };
        let (threaded, world_threaded) = exec(true);
        let (reference, world_reference) = exec(false);
        assert_eq!(threaded, reference);
        assert_eq!(world_threaded, world_reference);
        assert!(threaded.success);
        assert_eq!(output_as_u256(&threaded), U256::from_u64(42));
    }

    #[test]
    fn exec_frame_reuse_is_transparent() {
        // A trace-rich program (a storage write, a truncating ADD, a taken
        // branch) alternates with a plain one, so every trace the frame
        // reissues was last filled by a different program.
        let mut rich = vec![0x60, 0x01, 0x60, 0x00, 0x55, 0x7f];
        rich.extend_from_slice(&[0xff; 32]);
        rich.extend_from_slice(&[
            0x60, 0x02, 0x01, 0x50, // ADD overflows, POP
            0x60, 0x01, 0x60, 0x30, 0x57, // JUMPI to 0x30, taken
            0xfe, 0x5b, 0x00, // INVALID, JUMPDEST, STOP
        ]);
        let plain = return_word_program(&[0x60, 0x02, 0x60, 0x03, 0x01]);
        let mut frame = ExecFrame::new();
        for round in 0..3 {
            for code in [&rich, &plain] {
                let fresh = run(code.clone(), vec![], U256::ZERO);
                let mut world = world_with_code(code.clone());
                let mut evm = Evm::new(&mut world, BlockEnv::default());
                let reused = evm.execute_in(
                    &Message::new(addr(1), addr(0x100), U256::ZERO, vec![]),
                    &mut frame,
                );
                // The whole result, trace included, equals a fresh frame's.
                assert_eq!(reused, fresh);
                if round > 0 {
                    // The trace really is a recycled one.
                    assert!(reused.trace.branches.capacity() > 0);
                }
                frame.recycle_trace(reused.trace);
            }
        }
        assert_eq!(frame.traces.len(), 1, "one transaction, one pooled trace");
        let trace = run(rich, vec![], U256::ZERO).trace;
        assert!(!trace.branches.is_empty());
        assert!(!trace.storage_writes.is_empty());
        assert!(!trace.arith_events.is_empty());
    }

    #[test]
    fn program_cache_fast_path_matches_uncached_execution() {
        let code = return_word_program(&[0x60, 0x07, 0x60, 0x06, 0x02]);
        let uncached = run(code.clone(), vec![], U256::ZERO);

        let mut world = world_with_code(code);
        let blob = world.code(addr(0x100));
        let mut cache = ProgramCache::new();
        cache.insert(Arc::clone(&blob), Arc::new(DecodedProgram::decode(&blob)));
        let mut evm = Evm::new(&mut world, BlockEnv::default()).with_programs(&cache);
        let cached = evm.execute(&Message::new(addr(1), addr(0x100), U256::ZERO, vec![]));
        assert_eq!(cached, uncached);
        assert_eq!(output_as_u256(&cached), U256::from_u64(42));
    }

    #[test]
    fn ensure_memory_grows_in_words_with_a_single_reservation() {
        let mut memory = Vec::new();
        let mut gas = u64::MAX;
        ensure_memory(&mut memory, 1, 1 << 20, &mut gas).unwrap();
        assert_eq!(memory.len(), 32);
        ensure_memory(&mut memory, 33, 1 << 20, &mut gas).unwrap();
        assert_eq!(memory.len(), 64);
        // No shrink on smaller requests.
        ensure_memory(&mut memory, 5, 1 << 20, &mut gas).unwrap();
        assert_eq!(memory.len(), 64);
        // The quadratic schedule charged exactly C(2) = 3·2 + 2²/512 = 6.
        assert_eq!(u64::MAX - gas, 6);
    }

    #[test]
    fn ensure_memory_rejects_exactly_above_the_cap() {
        let max = 1 << 20; // the default cap, a 32-byte multiple
        let mut memory = Vec::new();
        let mut gas = u64::MAX;
        assert!(ensure_memory(&mut memory, max, max, &mut gas).is_ok());
        assert_eq!(memory.len(), max);
        let mut memory = Vec::new();
        let mut gas = u64::MAX;
        assert!(matches!(
            ensure_memory(&mut memory, max + 1, max, &mut gas),
            Err(MemFail::Fault("memory limit exceeded"))
        ));
        assert!(memory.is_empty(), "a rejected request must not grow memory");
        assert_eq!(gas, u64::MAX, "a rejected request must not charge gas");
    }

    #[test]
    fn cap_applies_even_inside_word_padding() {
        // A non-32-multiple cap: growing to 100 bytes pads memory to 128,
        // but requests for 101..=128 must still fault — the padding is not
        // addressable space.
        let mut memory = Vec::new();
        let mut gas = u64::MAX;
        assert!(ensure_memory(&mut memory, 100, 100, &mut gas).is_ok());
        assert_eq!(memory.len(), 128);
        assert!(matches!(
            ensure_memory(&mut memory, 101, 100, &mut gas),
            Err(MemFail::Fault("memory limit exceeded"))
        ));
    }

    #[test]
    fn ensure_memory_charges_the_expansion_before_the_cap() {
        // A request the remaining gas cannot pay is out-of-gas even when it
        // also exceeds the cap (huge offsets OOG rather than fault), and it
        // neither grows memory nor consumes the insufficient gas here (the
        // dispatch loop zeroes the frame's gas on the OutOfGas halt path).
        let mut memory = Vec::new();
        let mut gas = 100;
        assert!(matches!(
            ensure_memory(&mut memory, usize::MAX - 31, 1 << 20, &mut gas),
            Err(MemFail::OutOfGas)
        ));
        assert!(memory.is_empty());
        assert_eq!(gas, 100);
    }

    #[test]
    fn huge_mload_offset_faults_instead_of_panicking() {
        // PUSH8 0xffffffffffffffff, MLOAD: offset + 32 would overflow the
        // address space; the frame must fault, not crash.
        let mut code = vec![0x67];
        code.extend_from_slice(&[0xff; 8]);
        code.push(0x51);
        let result = run(code, vec![], U256::ZERO);
        assert!(!result.success);
        assert!(matches!(result.halt, HaltReason::Fault(_)));
    }
}
