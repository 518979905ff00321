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
//! Two tiers execute code, and both read the same lowered program:
//!
//! * the **block** tier walks a [`BlockProgram`] — the decoded stream
//!   lowered into basic blocks with a pre-summed static gas cost and stack
//!   envelope, validated once per block instead of per instruction, plus
//!   fused superinstructions for common compiler idioms. Every unit carries
//!   a handler pointer resolved at lowering time, and `threaded.rs` runs the
//!   units as a chain of indirect calls. This is the default fuzzing fast
//!   path ([`EvmConfig::block_lowering`]). A block whose envelope cannot be
//!   prevalidated (near-OOG, stack near the limits) *deopts*: the frame
//!   resumes per-instruction from the block entry, so faults and
//!   out-of-gas halts are bit-identical to per-instruction billing by
//!   construction.
//! * the **pre-decoded** tier walks a [`DecodedProgram`] — bytecode is
//!   lowered once (per harness, shared via a [`ProgramCache`]) into a dense
//!   instruction stream with materialised `PUSH` immediates and O(1)
//!   `JUMP` resolution, one `match` arm per opcode with instruction-at-a-time
//!   billing. It is the deopt target of the block tier, runs every blob the
//!   cache does not hold, and is the reference the block tier is checked
//!   against: `tests/decoder_differential.rs` and the conformance vectors
//!   assert bit-identical results (including gas remaining) on both.
//!
//! Per-execution scratch (operand stacks, memory buffers, call-argument
//! staging) lives in a reusable [`ExecFrame`] so a fuzzing campaign executes
//! without per-transaction heap churn; see its documentation.

use crate::env::{BlockEnv, ExecutionResult, Message};
use crate::gas::{
    static_gas, AccessSets, COPY_WORD_GAS, EXP_BYTE_GAS, MAX_REFUND_QUOTIENT, SHA3_WORD_GAS,
    SSTORE_CLEAR_REFUND,
};
use crate::keccak::keccak256;
use crate::opcode::Opcode;
use crate::program::{BlockProgram, DecodedProgram, ProgramCache};
use crate::state::{HostBehaviour, WorldState};
use crate::trace::{
    ArithEvent, BranchRecord, CallEvent, CallKind, CmpKind, Comparison, ConformanceEvent,
    ExecutionTrace, HaltReason, SelfDestructEvent, StorageWrite, Taint,
};
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
    /// Execute cached programs through the block-lowered fast path: static
    /// gas and the stack envelope validated once per basic block, fused
    /// superinstructions for common idioms, dispatched direct-threaded.
    /// Execution semantics are identical to instruction-at-a-time billing
    /// (blocks that cannot be prevalidated deopt to it); turning the knob off
    /// selects the pre-decoded per-instruction tier, the reference the
    /// differential suites and A/B benchmarks compare against.
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

/// Resumable state of the dispatch loop: everything live across a deopt from
/// the block-billed fast path to per-instruction execution. Stack, memory
/// and call-argument buffers live in the frame's [`DepthScratch`] and carry
/// over untouched.
pub(crate) struct LoopState {
    pub(crate) cursor: usize,
    pub(crate) gas_left: u64,
    pub(crate) last_cmp: Option<Comparison>,
    pub(crate) caller_guard_seen: bool,
    /// Indices into `trace.calls` for calls made by this frame whose result
    /// has not yet been consumed by a `JUMPI`.
    pub(crate) unchecked_calls: Vec<usize>,
    /// Indices of truncated arithmetic events produced in this frame.
    pub(crate) truncated_events: Vec<usize>,
    /// The frame's RETURNDATA buffer (EIP-211): output of the most recent
    /// completed call or create, empty at frame entry and after an
    /// exceptional callee halt.
    pub(crate) return_data: Vec<u8>,
}

impl LoopState {
    /// Fresh state at frame entry.
    fn start(gas: u64) -> LoopState {
        LoopState {
            cursor: 0,
            gas_left: gas,
            last_cmp: None,
            caller_guard_seen: false,
            unchecked_calls: Vec::new(),
            truncated_events: Vec::new(),
            return_data: Vec::new(),
        }
    }
}

/// How a pass of the block dispatcher ended.
pub(crate) enum FrameOutcome {
    /// The frame halted (normally or otherwise).
    Done(FrameResult),
    /// The block dispatcher reached code whose gas or stack bounds it could
    /// not settle in advance (near-OOG or near the stack limits); resume
    /// per-instruction at the state's cursor.
    Deopt(LoopState),
}

/// One entry on the interpreter's internal call stack: which contract's code
/// is executing at which depth. Used to detect re-entrancy.
#[derive(Clone, Copy)]
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
}

/// Reusable per-execution scratch space: operand stacks, memory buffers and
/// call-argument staging for every call depth, plus capacity hints for the
/// trace vectors.
///
/// The interpreter allocates nothing per execution when driven through a
/// long-lived `ExecFrame`: buffers are taken for the duration of a call
/// frame, cleared (capacity retained) and returned when it ends. The fuzzing
/// harness keeps one frame per worker and threads it through
/// `execute_sequence_with`; one-shot callers can ignore the type —
/// [`Evm::execute`] creates a transient frame internally.
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
/// }
/// ```
#[derive(Debug, Default)]
pub struct ExecFrame {
    depths: Vec<DepthScratch>,
    /// High-water mark of the branch vector, used to pre-reserve the next
    /// trace's capacity.
    branch_hint: usize,
    /// Per-transaction EIP-2929 warm/cold access sets and the EIP-3529
    /// refund counter, reset at the start of each top-level message.
    pub(crate) access: AccessSets,
}

impl ExecFrame {
    /// An empty frame. Buffers grow to the campaign's high-water marks over
    /// the first executions and are reused afterwards.
    pub fn new() -> ExecFrame {
        ExecFrame::default()
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
        *self.slot(depth) = scratch;
    }

    /// Pre-reserve a fresh trace's hot vectors from the high-water marks of
    /// previous executions through this frame.
    fn prime(&self, trace: &mut ExecutionTrace) {
        trace.branches.reserve(self.branch_hint);
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

/// The per-call mutable environment threaded through every dispatch tier:
/// the interpreter's internal call stack, the transaction trace, and the
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
        let mut trace = ExecutionTrace::new();
        scratch.prime(&mut trace);
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
            let mut frames = vec![FrameInfo {
                code_address: msg.to,
            }];
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
            self.dispatch_frame(&code, ctx, &mut frames, &mut trace, scratch)
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

    /// Run a call frame on the right tier: the block-lowered program through
    /// the direct-threaded dispatcher on a cache hit (default), the
    /// pre-decoded stream when block lowering is off or the blob is uncached.
    fn dispatch_frame(
        &mut self,
        code: &Arc<Vec<u8>>,
        ctx: FrameCtx<'_>,
        frames: &mut Vec<FrameInfo>,
        trace: &mut ExecutionTrace,
        scratch: &mut ExecFrame,
    ) -> FrameResult {
        let programs = self.programs;
        if self.config.block_lowering {
            if let Some(blocks) = programs.and_then(|cache| cache.get_block(code)) {
                return self.run_block_frame(blocks.as_ref(), ctx, frames, trace, scratch);
            }
        } else if let Some(program) = programs.and_then(|cache| cache.get(code)) {
            return self.run_frame(program.as_ref(), ctx, frames, trace, scratch);
        }
        let program = DecodedProgram::decode(code);
        self.run_frame(&program, ctx, frames, trace, scratch)
    }

    /// Execute one call frame on the per-instruction tier: borrow the depth's
    /// scratch buffers, run the dispatch loop, and return the buffers for
    /// reuse whatever way the frame halts.
    fn run_frame(
        &mut self,
        program: &DecodedProgram,
        ctx: FrameCtx<'_>,
        frames: &mut Vec<FrameInfo>,
        trace: &mut ExecutionTrace,
        scratch: &mut ExecFrame,
    ) -> FrameResult {
        let mut owned = scratch.take(ctx.depth);
        if owned.stack.capacity() == 0 {
            owned.stack.reserve(64);
        }
        let env = ExecEnv {
            frames: &mut *frames,
            trace: &mut *trace,
            scratch: &mut *scratch,
        };
        let result = self.run_frame_inner(program, ctx, env, &mut owned, LoopState::start(ctx.gas));
        scratch.put(ctx.depth, owned);
        result
    }

    /// Execute one call frame through the direct-threaded block dispatcher,
    /// falling back to per-instruction execution mid-frame if a block's
    /// envelope cannot be prevalidated. The scratch buffers are borrowed once
    /// around both passes (returning them in between would clear live frame
    /// state).
    fn run_block_frame(
        &mut self,
        program: &BlockProgram,
        ctx: FrameCtx<'_>,
        frames: &mut Vec<FrameInfo>,
        trace: &mut ExecutionTrace,
        scratch: &mut ExecFrame,
    ) -> FrameResult {
        let mut owned = scratch.take(ctx.depth);
        if owned.stack.capacity() == 0 {
            owned.stack.reserve(64);
        }
        let env = ExecEnv {
            frames: &mut *frames,
            trace: &mut *trace,
            scratch: &mut *scratch,
        };
        let outcome = crate::threaded::run(
            self,
            program,
            ctx,
            env,
            &mut owned,
            LoopState::start(ctx.gas),
        );
        let result = match outcome {
            FrameOutcome::Done(result) => result,
            FrameOutcome::Deopt(state) => {
                // The deopt state points at the instruction where block
                // billing bailed — a leader whose envelope failed to settle,
                // or a mid-block unit whose pre-validation or dynamic
                // billing fell through. The per-instruction loop replays
                // from there (through the rest of the frame), reproducing
                // the exact fault or out-of-gas point the block's envelope
                // could not rule out.
                let env = ExecEnv {
                    frames: &mut *frames,
                    trace: &mut *trace,
                    scratch: &mut *scratch,
                };
                self.run_frame_inner(program.base(), ctx, env, &mut owned, state)
            }
        };
        scratch.put(ctx.depth, owned);
        result
    }

    /// The per-instruction dispatch loop over a [`DecodedProgram`]. `state`
    /// is fresh at frame entry and carries the live loop variables across a
    /// deopt from the block dispatcher (its cursor is an instruction index).
    fn run_frame_inner(
        &mut self,
        program: &DecodedProgram,
        ctx: FrameCtx<'_>,
        env: ExecEnv<'_>,
        owned: &mut DepthScratch,
        state: LoopState,
    ) -> FrameResult {
        let ExecEnv {
            frames,
            trace,
            scratch,
        } = env;
        let FrameCtx {
            code_address,
            storage_address,
            caller,
            origin,
            value,
            calldata,
            code,
            gas: _,
            depth,
        } = ctx;
        trace.max_depth = trace.max_depth.max(depth);
        let DepthScratch {
            stack,
            memory,
            args: args_buf,
        } = owned;
        let LoopState {
            mut cursor,
            mut gas_left,
            mut last_cmp,
            mut caller_guard_seen,
            mut unchecked_calls,
            mut truncated_events,
            mut return_data,
        } = state;
        let instrs = program.instructions();

        macro_rules! fault {
            ($msg:expr) => {
                return FrameResult {
                    halt: HaltReason::Fault($msg.to_string()),
                    output: vec![],
                    gas_left,
                }
            };
        }

        macro_rules! out_of_gas {
            () => {
                return FrameResult {
                    halt: HaltReason::OutOfGas,
                    output: vec![],
                    gas_left: 0,
                }
            };
        }

        // Unwrap a memory operation: expansion the remaining gas cannot pay
        // halts the frame with `OutOfGas`, structural violations fault.
        macro_rules! mem_try {
            ($res:expr) => {
                match $res {
                    Ok(value) => value,
                    Err(MemFail::Fault(msg)) => fault!(msg),
                    Err(MemFail::OutOfGas) => out_of_gas!(),
                }
            };
        }

        macro_rules! pop {
            () => {
                match stack.pop() {
                    Some(v) => v,
                    None => fault!("stack underflow"),
                }
            };
        }

        macro_rules! push {
            ($val:expr, $taint:expr) => {{
                if stack.len() >= 1024 {
                    fault!("stack overflow");
                }
                stack.push(($val, $taint));
            }};
        }

        loop {
            if trace.instr_count as usize >= self.config.max_instructions {
                out_of_gas!();
            }
            let Some(instr) = instrs.get(cursor) else {
                // Running off the end of the code is an implicit STOP.
                return FrameResult {
                    halt: HaltReason::Normal,
                    output: vec![],
                    gas_left,
                };
            };
            let op = instr.op;
            let pc = instr.pc as usize;
            trace.record_instr(op);
            let cost = static_gas(op);
            if gas_left < cost {
                out_of_gas!();
            }
            gas_left -= cost;

            match op {
                Opcode::Stop => {
                    return FrameResult {
                        halt: HaltReason::Normal,
                        output: vec![],
                        gas_left,
                    }
                }
                Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Exp => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    let taint = ta | tb;
                    if op == Opcode::Exp {
                        // Dynamic EXP pricing: 50 gas per significant byte of
                        // the exponent on top of the static base, so the cost
                        // scales with the exponent's magnitude as in the EVM.
                        let exp_bytes = u64::from(b.bits().div_ceil(8));
                        let dynamic = EXP_BYTE_GAS * exp_bytes;
                        if gas_left < dynamic {
                            out_of_gas!();
                        }
                        gas_left -= dynamic;
                    }
                    let (result, truncated) = match op {
                        Opcode::Add => a.overflowing_add(b),
                        Opcode::Sub => a.overflowing_sub(b),
                        Opcode::Mul => a.overflowing_mul(b),
                        Opcode::Exp => exp_u256(a, b),
                        _ => unreachable!(),
                    };
                    if truncated {
                        truncated_events.push(trace.arith_events.len());
                        trace.arith_events.push(ArithEvent {
                            pc,
                            opcode: op,
                            truncated: true,
                            taint,
                            reached_storage: false,
                            depth,
                        });
                    }
                    let result_taint = if truncated {
                        taint | Taint::TRUNCATED
                    } else {
                        taint
                    };
                    push!(result, result_taint);
                }
                Opcode::Div | Opcode::Mod => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    let (q, r) = a.div_rem(b);
                    push!(if op == Opcode::Div { q } else { r }, ta | tb);
                }
                Opcode::Sdiv | Opcode::Smod => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    let (q, r) = a.signed_div_rem(b);
                    push!(if op == Opcode::Sdiv { q } else { r }, ta | tb);
                }
                Opcode::AddMod => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    let (n, tn) = pop!();
                    push!(a.add_mod(b, n), ta | tb | tn);
                }
                Opcode::MulMod => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    let (n, tn) = pop!();
                    push!(a.mul_mod(b, n), ta | tb | tn);
                }
                Opcode::SignExtend => {
                    let (b, tb) = pop!();
                    let (x, tx) = pop!();
                    // Byte indices >= 31 (or beyond usize) leave x unchanged.
                    let extended = match b.to_usize() {
                        Some(i) => x.sign_extend(i),
                        None => x,
                    };
                    push!(extended, tb | tx);
                }
                Opcode::Lt | Opcode::Gt | Opcode::Slt | Opcode::Sgt | Opcode::Eq => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    let taint = ta | tb;
                    let result = match op {
                        Opcode::Lt => a < b,
                        Opcode::Gt => a > b,
                        Opcode::Slt => a.signed_cmp(&b) == std::cmp::Ordering::Less,
                        Opcode::Sgt => a.signed_cmp(&b) == std::cmp::Ordering::Greater,
                        Opcode::Eq => a == b,
                        _ => unreachable!(),
                    };
                    let kind = match op {
                        Opcode::Lt | Opcode::Slt => CmpKind::Lt,
                        Opcode::Gt | Opcode::Sgt => CmpKind::Gt,
                        _ => CmpKind::Eq,
                    };
                    last_cmp = Some(Comparison {
                        pc,
                        kind,
                        lhs: a,
                        rhs: b,
                        taint,
                    });
                    push!(U256::from(result), taint);
                }
                Opcode::IsZero => {
                    let (a, ta) = pop!();
                    // Keep the previous comparison if the operand is already a
                    // boolean produced by it (ISZERO is just a negation then);
                    // otherwise treat ISZERO itself as the comparison.
                    let is_bool = a.is_zero() || a == U256::ONE;
                    if !(is_bool && last_cmp.is_some()) {
                        last_cmp = Some(Comparison {
                            pc,
                            kind: CmpKind::IsZero,
                            lhs: a,
                            rhs: U256::ZERO,
                            taint: ta,
                        });
                    }
                    push!(U256::from(a.is_zero()), ta);
                }
                Opcode::And => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    push!(a & b, ta | tb);
                }
                Opcode::Or => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    push!(a | b, ta | tb);
                }
                Opcode::Xor => {
                    let (a, ta) = pop!();
                    let (b, tb) = pop!();
                    push!(a ^ b, ta | tb);
                }
                Opcode::Not => {
                    let (a, ta) = pop!();
                    push!(!a, ta);
                }
                Opcode::Byte => {
                    let (i, ti) = pop!();
                    let (x, tx) = pop!();
                    let byte = i
                        .to_usize()
                        .filter(|&i| i < 32)
                        .map(|i| U256::from_u64(x.to_be_bytes()[i] as u64))
                        .unwrap_or(U256::ZERO);
                    push!(byte, ti | tx);
                }
                Opcode::Shl => {
                    let (shift, ts) = pop!();
                    let (x, tx) = pop!();
                    let shifted = shift
                        .to_u64()
                        .map(|s| x.shl_bits(s.min(256) as u32))
                        .unwrap_or(U256::ZERO);
                    push!(shifted, ts | tx);
                }
                Opcode::Shr => {
                    let (shift, ts) = pop!();
                    let (x, tx) = pop!();
                    let shifted = shift
                        .to_u64()
                        .map(|s| x.shr_bits(s.min(256) as u32))
                        .unwrap_or(U256::ZERO);
                    push!(shifted, ts | tx);
                }
                Opcode::Sar => {
                    let (shift, ts) = pop!();
                    let (x, tx) = pop!();
                    // Shift amounts >= 256 (or beyond u64) saturate to the
                    // sign: zero for non-negative values, -1 for negative.
                    let shifted = match shift.to_u64() {
                        Some(s) => x.sar_bits(s.min(256) as u32),
                        None if x.is_negative_signed() => U256::MAX,
                        None => U256::ZERO,
                    };
                    push!(shifted, ts | tx);
                }
                Opcode::Sha3 => {
                    let (offset, to) = pop!();
                    let (len, tl) = pop!();
                    let (offset, len) = match (offset.to_usize(), len.to_usize()) {
                        (Some(o), Some(l)) if l <= self.config.max_memory => (o, l),
                        _ => fault!("sha3 out of bounds"),
                    };
                    let span = match mem_span(offset, len) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    let digest = keccak256(&memory[offset..offset + len]);
                    push!(U256::from_be_bytes(digest), to | tl);
                }
                Opcode::Address => push!(code_address.to_u256(), Taint::empty()),
                Opcode::Balance => {
                    let (who, _t) = pop!();
                    let who = Address::from_u256(who);
                    // EIP-2929: the first touch of the account this
                    // transaction pays the cold surcharge.
                    let surcharge = scratch.access.address_surcharge(who);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    let bal = self.world.balance(who);
                    push!(bal, Taint::BALANCE);
                }
                Opcode::ExtCodeSize => {
                    let (who, _t) = pop!();
                    let who = Address::from_u256(who);
                    let surcharge = scratch.access.address_surcharge(who);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    let size = self.world.code(who).len();
                    push!(U256::from_u64(size as u64), Taint::empty());
                }
                Opcode::ExtCodeHash => {
                    let (who, _t) = pop!();
                    let who = Address::from_u256(who);
                    let surcharge = scratch.access.address_surcharge(who);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    // Zero for a non-existent account, the code hash (of the
                    // empty blob for an EOA) otherwise.
                    let hash = match self.world.account(who) {
                        None => U256::ZERO,
                        Some(account) => U256::from_be_bytes(keccak256(&account.code)),
                    };
                    push!(hash, Taint::empty());
                }
                Opcode::ExtCodeCopy => {
                    let (who, _t) = pop!();
                    let (dst, _) = pop!();
                    let (src, _) = pop!();
                    let (len, _) = pop!();
                    let who = Address::from_u256(who);
                    let surcharge = scratch.access.address_surcharge(who);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
                        (Some(d), Some(s), Some(l)) if l <= self.config.max_memory => (d, s, l),
                        _ => fault!("extcodecopy out of bounds"),
                    };
                    let dynamic = COPY_WORD_GAS * (len as u64).div_ceil(32);
                    if gas_left < dynamic {
                        out_of_gas!();
                    }
                    gas_left -= dynamic;
                    let span = match mem_span(dst, len) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    let ext = self.world.code(who);
                    for i in 0..len {
                        memory[dst + i] = ext.get(src.saturating_add(i)).copied().unwrap_or(0);
                    }
                }
                Opcode::SelfBalance => {
                    push!(self.world.balance(storage_address), Taint::BALANCE);
                }
                Opcode::Origin => push!(origin.to_u256(), Taint::ORIGIN),
                Opcode::Caller => push!(caller.to_u256(), Taint::CALLER),
                Opcode::CallValue => push!(value, Taint::CALLVALUE),
                Opcode::CallDataLoad => {
                    let (offset, _t) = pop!();
                    let word = calldata_word(calldata, offset);
                    push!(word, Taint::CALLDATA);
                }
                Opcode::CallDataSize => {
                    push!(U256::from_u64(calldata.len() as u64), Taint::CALLDATA)
                }
                Opcode::CallDataCopy => {
                    let (dst, _td) = pop!();
                    let (src, _ts) = pop!();
                    let (len, _tl) = pop!();
                    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
                        (Some(d), Some(s), Some(l)) if l <= self.config.max_memory => (d, s, l),
                        _ => fault!("calldatacopy out of bounds"),
                    };
                    let span = match mem_span(dst, len) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    for i in 0..len {
                        memory[dst + i] = calldata.get(src + i).copied().unwrap_or(0);
                    }
                }
                Opcode::CodeSize => {
                    push!(U256::from_u64(program.code_len() as u64), Taint::empty())
                }
                Opcode::CodeCopy => {
                    let (dst, _) = pop!();
                    let (src, _) = pop!();
                    let (len, _) = pop!();
                    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
                        (Some(d), Some(s), Some(l)) if l <= self.config.max_memory => (d, s, l),
                        _ => fault!("codecopy out of bounds"),
                    };
                    let dynamic = COPY_WORD_GAS * (len as u64).div_ceil(32);
                    if gas_left < dynamic {
                        out_of_gas!();
                    }
                    gas_left -= dynamic;
                    let span = match mem_span(dst, len) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    // Reads past the end of the code are zero-padded (the
                    // EVM's implicit trailing STOP region).
                    for i in 0..len {
                        memory[dst + i] = code.get(src.saturating_add(i)).copied().unwrap_or(0);
                    }
                }
                Opcode::ReturnDataSize => {
                    push!(U256::from_u64(return_data.len() as u64), Taint::empty())
                }
                Opcode::ReturnDataCopy => {
                    let (dst, _) = pop!();
                    let (src, _) = pop!();
                    let (len, _) = pop!();
                    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
                        (Some(d), Some(s), Some(l)) if l <= self.config.max_memory => (d, s, l),
                        _ => fault!("returndatacopy out of bounds"),
                    };
                    // Unlike CALLDATACOPY's zero padding, reading past the
                    // end of the return buffer is an exceptional halt
                    // (EIP-211).
                    match src.checked_add(len) {
                        Some(end) if end <= return_data.len() => {}
                        _ => fault!("returndatacopy out of bounds"),
                    }
                    let dynamic = COPY_WORD_GAS * (len as u64).div_ceil(32);
                    if gas_left < dynamic {
                        out_of_gas!();
                    }
                    gas_left -= dynamic;
                    let span = match mem_span(dst, len) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    memory[dst..dst + len].copy_from_slice(&return_data[src..src + len]);
                }
                Opcode::GasPrice => push!(U256::from_u64(1_000_000_000), Taint::empty()),
                Opcode::BlockHash => {
                    let (n, _t) = pop!();
                    let hash = keccak256(&n.to_be_bytes());
                    push!(U256::from_be_bytes(hash), Taint::BLOCK);
                }
                Opcode::Coinbase => push!(self.block.coinbase.to_u256(), Taint::BLOCK),
                Opcode::Timestamp => push!(U256::from_u64(self.block.timestamp), Taint::BLOCK),
                Opcode::Number => push!(U256::from_u64(self.block.number), Taint::BLOCK),
                Opcode::Difficulty => push!(self.block.difficulty, Taint::BLOCK),
                Opcode::GasLimit => push!(U256::from_u64(self.block.gas_limit), Taint::empty()),
                Opcode::ChainId => push!(U256::from_u64(self.block.chain_id), Taint::BLOCK),
                Opcode::BaseFee => push!(self.block.base_fee, Taint::BLOCK),
                Opcode::Pop => {
                    pop!();
                }
                Opcode::MLoad => {
                    let (offset, to) = pop!();
                    let offset = match offset.to_usize() {
                        Some(o) => o,
                        None => fault!("mload out of bounds"),
                    };
                    let span = match mem_span(offset, 32) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    let mut word = [0u8; 32];
                    word.copy_from_slice(&memory[offset..offset + 32]);
                    push!(U256::from_be_bytes(word), to);
                }
                Opcode::MStore => {
                    let (offset, _to) = pop!();
                    let (val, _tv) = pop!();
                    let offset = match offset.to_usize() {
                        Some(o) => o,
                        None => fault!("mstore out of bounds"),
                    };
                    let span = match mem_span(offset, 32) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    memory[offset..offset + 32].copy_from_slice(&val.to_be_bytes());
                }
                Opcode::MStore8 => {
                    let (offset, _to) = pop!();
                    let (val, _tv) = pop!();
                    let offset = match offset.to_usize() {
                        Some(o) => o,
                        None => fault!("mstore8 out of bounds"),
                    };
                    let span = match mem_span(offset, 1) {
                        Ok(s) => s,
                        Err(e) => fault!(e),
                    };
                    mem_try!(ensure_memory(
                        memory,
                        span,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    memory[offset] = val.low_u64() as u8;
                }
                Opcode::SLoad => {
                    let (slot, _ts) = pop!();
                    // EIP-2929: cold slots pay the surcharge on first touch.
                    let surcharge = scratch.access.slot_surcharge(storage_address, slot);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    let (val, stored_taint) = self.world.storage_entry(storage_address, slot);
                    push!(val, Taint::STORAGE | stored_taint);
                }
                Opcode::SStore => {
                    let (slot, _ts) = pop!();
                    let (val, tv) = pop!();
                    let surcharge = scratch.access.slot_surcharge(storage_address, slot);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    let old = self.world.set_storage(storage_address, slot, val, tv);
                    if !old.is_zero() && val.is_zero() {
                        // EIP-3529: clearing a slot earns a (journaled,
                        // settlement-capped) refund.
                        scratch.access.add_refund(SSTORE_CLEAR_REFUND);
                    }
                    trace.storage_writes.push(StorageWrite {
                        pc,
                        contract: storage_address,
                        slot,
                        old,
                        new: val,
                        taint: tv,
                    });
                    if tv.contains(Taint::TRUNCATED) {
                        for &idx in &truncated_events {
                            if let Some(ev) = trace.arith_events.get_mut(idx) {
                                ev.reached_storage = true;
                            }
                        }
                    }
                }
                Opcode::Jump => {
                    let (dest, _t) = pop!();
                    let target = dest.to_usize().and_then(|d| program.jump_cursor(d));
                    match target {
                        Some(t) => {
                            cursor = t;
                            continue;
                        }
                        None => fault!("invalid jump destination"),
                    }
                }
                Opcode::JumpI => {
                    let (dest, _td) = pop!();
                    let (cond, tc) = pop!();
                    let taken = !cond.is_zero();
                    let dest_usize = dest.to_usize().unwrap_or(usize::MAX);
                    if tc.intersects(Taint::CALLER | Taint::ORIGIN) {
                        caller_guard_seen = true;
                    }
                    if tc.contains(Taint::CALL_RESULT) {
                        if let Some(idx) = unchecked_calls.pop() {
                            if let Some(ev) = trace.calls.get_mut(idx) {
                                ev.result_checked = true;
                            }
                        }
                    }
                    let record = BranchRecord {
                        pc,
                        dest: dest_usize,
                        taken,
                        cond_taint: tc,
                        comparison: last_cmp,
                        depth,
                        code_address,
                    };
                    trace.covered_edges.insert(record.edge());
                    trace.branches.push(record);
                    last_cmp = None;
                    if taken {
                        match program.jump_cursor(dest_usize) {
                            Some(t) => {
                                cursor = t;
                                continue;
                            }
                            None => fault!("invalid jump destination"),
                        }
                    }
                }
                Opcode::Pc => push!(U256::from_u64(pc as u64), Taint::empty()),
                Opcode::MSize => push!(U256::from_u64(memory.len() as u64), Taint::empty()),
                Opcode::Gas => push!(U256::from_u64(gas_left), Taint::empty()),
                Opcode::JumpDest => {}
                Opcode::Push(_) => {
                    push!(instr.imm, Taint::empty());
                }
                Opcode::Dup(n) => {
                    let n = n as usize;
                    if stack.len() < n {
                        fault!("stack underflow");
                    }
                    let item = stack[stack.len() - n];
                    push!(item.0, item.1);
                }
                Opcode::Swap(n) => {
                    let n = n as usize;
                    if stack.len() < n + 1 {
                        fault!("stack underflow");
                    }
                    let top = stack.len() - 1;
                    stack.swap(top, top - n);
                }
                Opcode::Log(n) => {
                    // Topics and data are popped and discarded; logs are not
                    // needed by the oracles.
                    let (_offset, _) = pop!();
                    let (_len, _) = pop!();
                    for _ in 0..n {
                        pop!();
                    }
                }
                Opcode::Call | Opcode::CallCode | Opcode::DelegateCall | Opcode::StaticCall => {
                    let (gas_req, _tg) = pop!();
                    let (to_word, t_to) = pop!();
                    let (call_value, tv) = if matches!(op, Opcode::Call | Opcode::CallCode) {
                        pop!()
                    } else {
                        (U256::ZERO, Taint::empty())
                    };
                    let (args_offset, _) = pop!();
                    let (args_len, _) = pop!();
                    let (ret_offset, _) = pop!();
                    let (ret_len, _) = pop!();

                    let to = Address::from_u256(to_word);
                    let kind = match op {
                        Opcode::Call => CallKind::Call,
                        Opcode::CallCode => CallKind::CallCode,
                        Opcode::DelegateCall => CallKind::DelegateCall,
                        _ => CallKind::StaticCall,
                    };
                    args_buf.clear();
                    mem_try!(read_memory_into(
                        memory,
                        args_offset,
                        args_len,
                        self.config.max_memory,
                        &mut gas_left,
                        args_buf,
                    ));
                    // EIP-2929: the first touch of the callee account this
                    // transaction pays the cold surcharge, before any gas is
                    // forwarded.
                    let surcharge = scratch.access.address_surcharge(to);
                    if gas_left < surcharge {
                        out_of_gas!();
                    }
                    gas_left -= surcharge;
                    // EIP-150 all-but-one-64th: the caller always retains at
                    // least 1/64 of its remaining gas, so an outer frame can
                    // finish (and e.g. persist state) even when the callee
                    // burns everything it was forwarded.
                    let available = gas_left - gas_left / 64;
                    let forwarded_gas = gas_req.to_u64().unwrap_or(u64::MAX).min(available);

                    let call_idx = trace.calls.len();
                    trace.calls.push(CallEvent {
                        pc,
                        kind,
                        from: code_address,
                        to,
                        value: call_value,
                        gas: forwarded_gas,
                        success: false,
                        callee_exception: false,
                        result_checked: false,
                        depth,
                        caller_selector: trace.entered_selector,
                        arg_taint: t_to | tv,
                        caller_guarded: caller_guard_seen,
                    });

                    // Re-entrancy detection: callee already on the frame stack.
                    if frames.iter().any(|f| f.code_address == to) {
                        trace.reentered = true;
                    }

                    let (success, callee_exception, output, gas_spent) = self.do_call(
                        CallContext {
                            kind,
                            code_address,
                            storage_address,
                            caller,
                            origin,
                            current_value: value,
                            to,
                            call_value,
                            gas: forwarded_gas,
                            depth,
                        },
                        args_buf,
                        frames,
                        trace,
                        scratch,
                    );
                    // The caller pays what the callee actually consumed;
                    // unspent forwarded gas is refunded. Combined with the
                    // 63/64 forwarding cap above this bounds the damage a
                    // draining callee can do to `gas_left / 64`.
                    gas_left = gas_left.saturating_sub(gas_spent);
                    if let Some(ev) = trace.calls.get_mut(call_idx) {
                        ev.success = success;
                        ev.callee_exception = callee_exception;
                    }
                    unchecked_calls.push(call_idx);
                    // The callee's output becomes this frame's RETURNDATA
                    // buffer (empty after an exceptional halt), and the part
                    // that fits is copied into the caller's return region.
                    return_data = output;
                    let ret_n = ret_len.to_usize().unwrap_or(0).min(return_data.len());
                    if ret_n > 0 {
                        let offset = match ret_offset.to_usize() {
                            Some(o) => o,
                            None => fault!("return region out of bounds"),
                        };
                        let span = match mem_span(offset, ret_n) {
                            Ok(s) => s,
                            Err(e) => fault!(e),
                        };
                        mem_try!(ensure_memory(
                            memory,
                            span,
                            self.config.max_memory,
                            &mut gas_left
                        ));
                        memory[offset..offset + ret_n].copy_from_slice(&return_data[..ret_n]);
                    }
                    push!(U256::from(success), Taint::CALL_RESULT);
                }
                Opcode::Create => {
                    // Contract creation from within contracts is not emitted
                    // by the compiler; treat it as pushing a zero address.
                    let (_value, _) = pop!();
                    let (_offset, _) = pop!();
                    let (_len, _) = pop!();
                    push!(U256::ZERO, Taint::empty());
                }
                Opcode::Create2 => {
                    let (create_value, _tv) = pop!();
                    let (offset, _) = pop!();
                    let (len, _) = pop!();
                    let (salt, _) = pop!();
                    let init = mem_try!(read_memory_range(
                        memory,
                        offset,
                        len,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    // Hashing the init code for the deterministic address
                    // derivation costs the Keccak word price.
                    let dynamic = SHA3_WORD_GAS * (init.len() as u64).div_ceil(32);
                    if gas_left < dynamic {
                        out_of_gas!();
                    }
                    gas_left -= dynamic;
                    let site = CreateSite {
                        creator: storage_address,
                        origin,
                        value: create_value,
                        salt,
                        depth,
                    };
                    let (created, out) =
                        self.do_create2(site, &init, frames, trace, scratch, &mut gas_left);
                    return_data = out;
                    push!(created, Taint::CALL_RESULT);
                }
                Opcode::Return => {
                    let (offset, _) = pop!();
                    let (len, _) = pop!();
                    let out = mem_try!(read_memory_range(
                        memory,
                        offset,
                        len,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    return FrameResult {
                        halt: HaltReason::Normal,
                        output: out,
                        gas_left,
                    };
                }
                Opcode::Revert => {
                    let (offset, _) = pop!();
                    let (len, _) = pop!();
                    let out = mem_try!(read_memory_range(
                        memory,
                        offset,
                        len,
                        self.config.max_memory,
                        &mut gas_left
                    ));
                    return FrameResult {
                        halt: HaltReason::Revert,
                        output: out,
                        gas_left,
                    };
                }
                Opcode::Invalid => {
                    return FrameResult {
                        halt: HaltReason::Invalid,
                        output: vec![],
                        gas_left: 0,
                    };
                }
                Opcode::SelfDestruct => {
                    let (beneficiary_word, tb) = pop!();
                    let beneficiary = Address::from_u256(beneficiary_word);
                    let balance = self.world.balance(storage_address);
                    self.world.transfer(storage_address, beneficiary, balance);
                    self.world.mark_destroyed(storage_address);
                    trace.self_destructs.push(SelfDestructEvent {
                        pc,
                        contract: storage_address,
                        beneficiary,
                        caller_guarded: caller_guard_seen,
                        beneficiary_taint: tb,
                    });
                    return FrameResult {
                        halt: HaltReason::Normal,
                        output: vec![],
                        gas_left,
                    };
                }
                Opcode::Unknown(b) => {
                    // Conformance-tagged exceptional halt: record which byte
                    // at which pc fell outside the implemented surface, so
                    // vector runs and ingested-blob campaigns can separate
                    // "unsupported opcode" from "interpreter bug".
                    trace
                        .conformance
                        .push(ConformanceEvent { pc, byte: b, depth });
                    fault!(format!("unknown opcode 0x{b:02x}"));
                }
            }
            cursor += 1;
        }
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

        let behaviour = self
            .world
            .account(to)
            .map(|a| a.behaviour.clone())
            .unwrap_or_default();

        match behaviour {
            HostBehaviour::RejectingSink => {
                // The sink rejects: undo the transfer and report failure with
                // an exception in the callee.
                if kind == CallKind::Call && !call_value.is_zero() {
                    self.world.transfer(to, storage_address, call_value);
                }
                (false, true, vec![], 0)
            }
            HostBehaviour::ReentrantAttacker {
                callback_data,
                max_depth,
            } => {
                // The attacker immediately calls back into the calling
                // contract, provided it still has gas and depth budget.
                let mut gas_spent = 0u64;
                if depth + 2 < self.config.max_call_depth && depth < max_depth && gas > 10_000 {
                    trace.reentered = true;
                    let callee_code = self.world.code(code_address);
                    if !callee_code.is_empty() {
                        frames.push(FrameInfo { code_address: to });
                        let callback_gas = gas.saturating_sub(5_000);
                        let ctx = FrameCtx {
                            code_address,
                            storage_address,
                            caller: to,
                            origin,
                            value: U256::ZERO,
                            calldata: &callback_data,
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
                    }
                }
                (true, false, vec![], gas_spent)
            }
            HostBehaviour::None => {
                let code = self.world.code(to);
                if code.is_empty() {
                    // Plain transfer to an EOA succeeds.
                    return (true, false, vec![], 0);
                }
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
        assert_eq!(result.trace.covered_edges.len(), 1);
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
            // Cache the blob: without a cache entry both settings fall
            // through to the pre-decoded tier.
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
        let code = return_word_program(&[0x60, 0x02, 0x60, 0x03, 0x01]);
        let mut frame = ExecFrame::new();
        let fresh = run(code.clone(), vec![], U256::ZERO);
        for _ in 0..3 {
            let mut world = world_with_code(code.clone());
            let mut evm = Evm::new(&mut world, BlockEnv::default());
            let reused = evm.execute_in(
                &Message::new(addr(1), addr(0x100), U256::ZERO, vec![]),
                &mut frame,
            );
            assert_eq!(reused, fresh);
        }
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
