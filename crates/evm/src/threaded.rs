//! Direct-threaded dispatch: the interpreter's only dispatcher, and the one
//! place each opcode's effect is written.
//!
//! [`select_handler`] resolves every `(fused, opcode)` pair of a
//! [`BlockProgram`] to a handler function pointer *once at lowering time*
//! (stored in [`BlockUnit::handler`]), and [`run`] drives the units through
//! those pointers under one of two billing disciplines:
//!
//! * **block settlement**, over a cached program's fused lowering: at each
//!   block leader the block's pre-summed static gas, its stack envelope and
//!   the instruction cap are settled in one test, then the block's units run
//!   as a tight chain of indirect calls with no per-unit bookkeeping;
//! * **one instruction at a time**, over an unfused lowering
//!   ([`BlockProgram::unfused`]): before each instruction the cap is
//!   checked and the instruction's static gas charged, or the frame halts
//!   `OutOfGas` with the instruction recorded.
//!
//! A block whose envelope cannot be settled (near out-of-gas, near the
//! stack limits, possibly crossing the cap) *deopts*: the frame keeps its
//! [`Machine`] — stack, memory, gas, pending comparison, return data — and
//! continues one instruction at a time on an unfused lowering of the same
//! decoded program, at the same instruction index, so faults and
//! out-of-gas halts land exactly where per-instruction billing puts them.
//!
//! Each call site's target correlates with the unit stream, so the
//! indirect-branch predictor learns the program's shape, and handlers for
//! fused binops and `DUP`/`SWAP` depths are monomorphized so their operands
//! constant-fold. Plain handlers serve both disciplines; a fused handler
//! must equal its constituents run one at a time — the same trace records
//! (bulk per-unit masks, prefix records on mid-pattern faults), the same
//! gas (block pre-charge, tail un-charge/re-charge around gas-exact ops,
//! per-constituent replay in the storage-statement and `MapSlot*` arms) and
//! the same fault messages. `tests/decoder_differential.rs` and the
//! conformance vectors pin the two disciplines bit-identical.

use crate::gas::{static_gas, COPY_WORD_GAS, EXP_BYTE_GAS, SHA3_WORD_GAS, SSTORE_CLEAR_REFUND};
use crate::interpreter::{
    calldata_word, ensure_memory, exp_u256, mem_span, read_memory_into, read_memory_range,
    CallContext, CreateSite, DepthScratch, Evm, ExecEnv, ExecFrame, FrameCtx, FrameInfo,
    FrameResult, MemFail,
};
use crate::keccak::keccak256;
use crate::opcode::Opcode;
use crate::program::{BlockProgram, BlockUnit, DecodedInstr, Fused};
use crate::trace::{
    ArithEvent, BranchRecord, CallEvent, CallKind, CmpKind, Comparison, ConformanceEvent,
    ExecutionTrace, HaltReason, SelfDestructEvent, Taint,
};
use crate::types::Address;
use crate::u256::U256;
use std::sync::Arc;

/// How one handler invocation ended.
///
/// Deliberately two words wide so every indirect call returns in registers
/// instead of through a stack slot: a halting handler stashes its
/// [`FrameResult`] in [`Machine::halt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Continue with the next unit in sequence.
    Next,
    /// Control transfer: continue at this *unit* cursor (always a block
    /// leader — jump destinations are `JUMPDEST`s).
    Jump(u32),
    /// The frame halted; the result is in [`Machine::halt`].
    Done,
    /// Continue one instruction at a time from this *instruction* cursor:
    /// a dynamic bill ate into gas the block had pre-paid.
    Deopt(u32),
}

/// A pre-resolved unit handler, selected at lowering time by
/// [`select_handler`].
pub(crate) type UnitHandler = fn(&mut Machine<'_, '_>, &BlockUnit) -> Step;

/// The interpreter state a handler operates on: the frame context by value,
/// everything shared (world, trace, scratch buffers) by disjoint `&mut`
/// fields so a handler can touch several at once without borrow conflicts.
pub(crate) struct Machine<'m, 'w> {
    evm: &'m mut Evm<'w>,
    program: &'m BlockProgram,
    code_address: Address,
    storage_address: Address,
    caller: Address,
    origin: Address,
    value: U256,
    calldata: &'m [u8],
    /// The frame's executing bytecode (for `CODECOPY`).
    code: &'m [u8],
    depth: usize,
    frames: &'m mut Vec<FrameInfo>,
    trace: &'m mut ExecutionTrace,
    scratch: &'m mut ExecFrame,
    stack: &'m mut Vec<(U256, Taint)>,
    memory: &'m mut Vec<u8>,
    args_buf: &'m mut Vec<u8>,
    unchecked_calls: &'m mut Vec<usize>,
    truncated_events: &'m mut Vec<usize>,
    gas_left: u64,
    last_cmp: Option<Comparison>,
    caller_guard_seen: bool,
    /// The frame's RETURNDATA buffer (EIP-211): output of the most recent
    /// completed call or create, empty at frame entry and after an
    /// exceptional callee halt.
    return_data: Vec<u8>,
    /// Halt payload parked by a handler returning [`Step::Done`].
    halt: Option<FrameResult>,
}

/// The unit's constituent instructions. Borrowed from the program (not the
/// machine), so handlers keep the slice across mutations of `m`.
fn unit_parts<'m>(m: &Machine<'m, '_>, u: &BlockUnit) -> &'m [DecodedInstr] {
    let start = u.instr_start as usize;
    &m.program.base().instructions()[start..start + u.instr_count as usize]
}

macro_rules! t_fault {
    ($m:expr, $msg:expr) => {{
        $m.halt = Some(FrameResult {
            halt: HaltReason::Fault($msg.to_string()),
            output: vec![],
            gas_left: $m.gas_left,
        });
        return Step::Done;
    }};
}

macro_rules! t_oog {
    ($m:expr) => {{
        $m.halt = Some(FrameResult {
            halt: HaltReason::OutOfGas,
            output: vec![],
            gas_left: 0,
        });
        return Step::Done;
    }};
}

macro_rules! t_mem {
    ($m:expr, $res:expr) => {
        match $res {
            Ok(value) => value,
            Err(MemFail::Fault(msg)) => t_fault!($m, msg),
            Err(MemFail::OutOfGas) => t_oog!($m),
        }
    };
}

macro_rules! t_pop {
    ($m:expr) => {
        match $m.stack.pop() {
            Some(v) => v,
            None => t_fault!($m, "stack underflow"),
        }
    };
}

macro_rules! t_push {
    ($m:expr, $val:expr, $taint:expr) => {{
        if $m.stack.len() >= 1024 {
            t_fault!($m, "stack overflow");
        }
        $m.stack.push(($val, $taint));
    }};
}

/// Re-charge a gas-exact unit's tail residual after its arm, deopting to the
/// next instruction if a dynamic bill ate into the block's pre-payment.
macro_rules! t_recharge {
    ($m:expr, $u:expr) => {{
        if $m.gas_left < $u.tail {
            return Step::Deopt($u.instr_start + $u.instr_count);
        }
        $m.gas_left -= $u.tail;
    }};
}

/// Record the whole unit's constituents with one bulk OR of the precomputed
/// mask.
macro_rules! t_bulk {
    ($m:expr, $u:expr) => {
        $m.trace.record_unit($u.mask, $u.instr_count)
    };
}

/// Record the executed prefix `[0..=$k]` on a cold mid-pattern halt.
macro_rules! t_prefix {
    ($m:expr, $parts:expr, $k:expr) => {
        for di in &$parts[..=$k] {
            $m.trace.record_instr(di.op);
        }
    };
}

macro_rules! t_unit_fault {
    ($m:expr, $parts:expr, $k:expr, $msg:expr) => {{
        t_prefix!($m, $parts, $k);
        t_fault!($m, $msg);
    }};
}

macro_rules! t_unit_mem {
    ($m:expr, $parts:expr, $k:expr, $res:expr) => {
        match $res {
            Ok(value) => value,
            Err(MemFail::Fault(msg)) => {
                t_prefix!($m, $parts, $k);
                t_fault!($m, msg)
            }
            Err(MemFail::OutOfGas) => {
                t_prefix!($m, $parts, $k);
                t_oog!($m)
            }
        }
    };
}

/// Per-constituent static charge for arms that replay billing exactly from
/// the unit's `head` (the `MapSlot*` family).
macro_rules! t_charge {
    ($m:expr, $parts:expr, $k:expr) => {{
        let cost = static_gas($parts[$k].op);
        if $m.gas_left < cost {
            t_prefix!($m, $parts, $k);
            t_oog!($m);
        }
        $m.gas_left -= cost;
    }};
}

/// The shared fused-binop core, bound to the machine's bookkeeping.
macro_rules! t_binop {
    ($m:expr, $op:expr, $pc:expr, $a:expr, $b:expr, $taint:expr) => {
        fused_binop_eval(
            $op,
            $a,
            $b,
            $taint,
            BinopSite {
                pc: $pc,
                depth: $m.depth,
                trace: &mut *$m.trace,
                last_cmp: &mut $m.last_cmp,
                truncated_events: &mut *$m.truncated_events,
            },
        )
    };
}

/// Run one call frame on `program`: block by block if it is a fused
/// lowering, one instruction at a time if it is unfused. A fused block that
/// cannot be settled hands the frame, machine and all, to an unfused
/// lowering of the same decoded program, built for this frame (deopts are
/// rare enough that caching one beside every program would cost memory for
/// nothing), which continues at the instruction where settling failed.
pub(crate) fn run(
    evm: &mut Evm<'_>,
    program: &BlockProgram,
    ctx: FrameCtx<'_>,
    env: ExecEnv<'_>,
    owned: &mut DepthScratch,
) -> FrameResult {
    let ExecEnv {
        frames,
        trace,
        scratch,
    } = env;
    trace.max_depth = trace.max_depth.max(ctx.depth);
    let DepthScratch {
        stack,
        memory,
        args,
        unchecked_calls,
        truncated_events,
    } = owned;
    // Declared before the machine so it outlives the machine's borrow.
    let unfused;
    let mut m = Machine {
        evm,
        program,
        code_address: ctx.code_address,
        storage_address: ctx.storage_address,
        caller: ctx.caller,
        origin: ctx.origin,
        value: ctx.value,
        calldata: ctx.calldata,
        code: ctx.code,
        depth: ctx.depth,
        frames,
        trace,
        scratch,
        stack,
        memory,
        args_buf: args,
        unchecked_calls,
        truncated_events,
        gas_left: ctx.gas,
        last_cmp: None,
        caller_guard_seen: false,
        return_data: Vec::new(),
        halt: None,
    };
    let mut cursor = 0;
    if !program.is_unfused() {
        match run_blocks(&mut m) {
            Ok(result) => return result,
            Err(deopt) => {
                unfused = BlockProgram::unfused(Arc::clone(program.base()));
                m.program = &unfused;
                cursor = deopt;
            }
        }
    }
    run_instructions(&mut m, cursor)
}

/// The block discipline, as two nested loops: the outer loop runs once per
/// *block* (control only enters at leaders: frame entry, jump targets and
/// block fall-through all land on one), where the instruction cap and the
/// envelope are settled; the inner loop then drives the block's units
/// through their pre-resolved handlers with the unit cursor in a register
/// and no per-unit bookkeeping beyond the indirect call itself. Returns the
/// frame's result, or the instruction cursor to continue from one
/// instruction at a time.
fn run_blocks(m: &mut Machine<'_, '_>) -> Result<FrameResult, usize> {
    let max_instructions = m.evm.config.max_instructions;
    let units = m.program.units();
    let blocks = m.program.blocks();
    let mut cursor = 0;
    'blocks: loop {
        // The cap check that no block envelope covers: running off the end
        // of the code, and a block entered after a call's child frames
        // (calls end blocks) spent the rest of the cap.
        if m.trace.instr_count as usize >= max_instructions {
            return Ok(FrameResult {
                halt: HaltReason::OutOfGas,
                output: vec![],
                gas_left: 0,
            });
        }
        let Some(unit) = units.get(cursor) else {
            // Running off the end of the code is an implicit STOP.
            return Ok(FrameResult {
                halt: HaltReason::Normal,
                output: vec![],
                gas_left: m.gas_left,
            });
        };
        if unit.leader == u32::MAX {
            // Unreachable by construction (entry, jumps and fall-through all
            // land on leaders); continue one instruction at a time if not.
            return Err(unit.instr_start as usize);
        }
        // Settle the whole block at its leader: pre-summed static gas, the
        // stack envelope and the instruction cap, validated once, deopting
        // when any part could fail mid-block. Within the cap, no unit of the
        // block can start at or past it; the per-instruction discipline
        // checks the cap before every instruction of a block that might
        // cross it. Control flow only lands on leaders, so this runs once
        // per block.
        let block = &blocks[unit.leader as usize];
        let block_instrs = (block.instr_end - block.instr_start) as usize;
        if m.gas_left < block.static_gas
            || m.stack.len() < block.stack_needed as usize
            || m.stack.len() + block.max_growth as usize > 1024
            || m.trace.instr_count as usize + block_instrs > max_instructions
        {
            return Err(block.instr_start as usize);
        }
        m.gas_left -= block.static_gas;
        let end = block.unit_end as usize;
        // Slice iteration: no per-unit bounds check, and the only way out of
        // the block mid-flight is through a handler's non-`Next` step.
        for unit in &units[cursor..end] {
            match (unit.handler)(m, unit) {
                Step::Next => {}
                Step::Jump(target) => {
                    cursor = target as usize;
                    continue 'blocks;
                }
                Step::Done => return Ok(m.halt.take().expect("Step::Done parks a result")),
                Step::Deopt(instr_cursor) => return Err(instr_cursor as usize),
            }
        }
        cursor = end;
    }
}

/// The per-instruction discipline over an unfused lowering, whose unit
/// cursors are instruction indices, from `cursor`: before each instruction,
/// the instruction cap, then its static gas (the unit's `head`).
fn run_instructions(m: &mut Machine<'_, '_>, mut cursor: usize) -> FrameResult {
    debug_assert!(m.program.is_unfused());
    let max_instructions = m.evm.config.max_instructions;
    let units = m.program.units();
    loop {
        if m.trace.instr_count as usize >= max_instructions {
            return FrameResult {
                halt: HaltReason::OutOfGas,
                output: vec![],
                gas_left: 0,
            };
        }
        let Some(unit) = units.get(cursor) else {
            // Running off the end of the code is an implicit STOP.
            return FrameResult {
                halt: HaltReason::Normal,
                output: vec![],
                gas_left: m.gas_left,
            };
        };
        if m.gas_left < unit.head {
            m.trace.record_instr(unit.op);
            return FrameResult {
                halt: HaltReason::OutOfGas,
                output: vec![],
                gas_left: 0,
            };
        }
        m.gas_left -= unit.head;
        cursor = match (unit.handler)(m, unit) {
            Step::Next => cursor + 1,
            Step::Jump(target) | Step::Deopt(target) => target as usize,
            Step::Done => return m.halt.take().expect("Step::Done parks a result"),
        };
    }
}

/// Branch bookkeeping shared by `JUMPI` and the fused jump handlers: guard /
/// unchecked-call accounting, the branch record, and `last_cmp` consumption.
fn note_branch(m: &mut Machine<'_, '_>, pc: usize, dest: usize, taken: bool, tc: Taint) {
    if tc.intersects(Taint::CALLER | Taint::ORIGIN) {
        m.caller_guard_seen = true;
    }
    if tc.contains(Taint::CALL_RESULT) {
        if let Some(idx) = m.unchecked_calls.pop() {
            if let Some(ev) = m.trace.calls.get_mut(idx) {
                ev.result_checked = true;
            }
        }
    }
    let record = BranchRecord {
        pc,
        dest,
        taken,
        cond_taint: tc,
        comparison: m.last_cmp,
        depth: m.depth,
        code_address: m.code_address,
    };
    m.trace.branches.push(record);
    m.last_cmp = None;
}

/// `SSTORE` bookkeeping shared by the plain handler and every fused storage
/// arm, after the gas checks: the write itself (which hands back the value
/// it overwrote), the EIP-3529 clear refund, the write record and
/// truncation-reached-storage marking.
fn store_slot(m: &mut Machine<'_, '_>, pc: usize, slot: U256, val: U256, tv: Taint) {
    let old = m.evm.world.set_storage(m.storage_address, slot, val, tv);
    if !old.is_zero() && val.is_zero() {
        // EIP-3529: clearing a slot earns a refund, journaled so a
        // reverting frame forfeits it.
        m.scratch.access.add_refund(SSTORE_CLEAR_REFUND);
    }
    m.trace.storage_writes.push(crate::trace::StorageWrite {
        pc,
        contract: m.storage_address,
        slot,
        old,
        new: val,
        taint: tv,
    });
    if tv.contains(Taint::TRUNCATED) {
        for &idx in m.truncated_events.iter() {
            if let Some(ev) = m.trace.arith_events.get_mut(idx) {
                ev.reached_storage = true;
            }
        }
    }
}

/// The frame-local bookkeeping a fused binop mutates: where the op sits
/// (pc/depth, for events) and the trace / comparison / truncation state it
/// writes into, bundled for [`fused_binop_eval`].
struct BinopSite<'a> {
    pc: usize,
    depth: usize,
    trace: &'a mut ExecutionTrace,
    last_cmp: &'a mut Option<Comparison>,
    truncated_events: &'a mut Vec<usize>,
}

/// The binop core shared by every fused pattern ending in an arithmetic /
/// comparison / bitwise op: replicates the plain handlers' truncation
/// events and comparison bookkeeping and evaluates to `(result, taint)`.
/// Operand roles mirror the plain handlers: `a` is the first pop (the later
/// push), `b` the second.
#[inline(always)]
fn fused_binop_eval(
    op: Opcode,
    a: U256,
    b: U256,
    taint: Taint,
    site: BinopSite<'_>,
) -> (U256, Taint) {
    match op {
        Opcode::Add | Opcode::Sub | Opcode::Mul => {
            let (result, truncated) = match op {
                Opcode::Add => a.overflowing_add(b),
                Opcode::Sub => a.overflowing_sub(b),
                _ => a.overflowing_mul(b),
            };
            if truncated {
                site.truncated_events.push(site.trace.arith_events.len());
                site.trace.arith_events.push(ArithEvent {
                    pc: site.pc,
                    opcode: op,
                    truncated: true,
                    taint,
                    reached_storage: false,
                    depth: site.depth,
                });
            }
            let result_taint = if truncated {
                taint | Taint::TRUNCATED
            } else {
                taint
            };
            (result, result_taint)
        }
        Opcode::Div | Opcode::Mod => {
            let (q, r) = a.div_rem(b);
            (if op == Opcode::Div { q } else { r }, taint)
        }
        Opcode::Sdiv | Opcode::Smod => {
            let (q, r) = a.signed_div_rem(b);
            (if op == Opcode::Sdiv { q } else { r }, taint)
        }
        Opcode::Lt | Opcode::Gt | Opcode::Slt | Opcode::Sgt | Opcode::Eq => {
            let result = match op {
                Opcode::Lt => a < b,
                Opcode::Gt => a > b,
                Opcode::Slt => a.signed_cmp(&b) == std::cmp::Ordering::Less,
                Opcode::Sgt => a.signed_cmp(&b) == std::cmp::Ordering::Greater,
                _ => a == b,
            };
            let kind = match op {
                Opcode::Lt | Opcode::Slt => CmpKind::Lt,
                Opcode::Gt | Opcode::Sgt => CmpKind::Gt,
                _ => CmpKind::Eq,
            };
            *site.last_cmp = Some(Comparison {
                pc: site.pc,
                kind,
                lhs: a,
                rhs: b,
                taint,
            });
            (U256::from(result), taint)
        }
        Opcode::And => (a & b, taint),
        Opcode::Or => (a | b, taint),
        Opcode::Xor => (a ^ b, taint),
        _ => unreachable!("non-fusable binop"),
    }
}

/// Expand one lowering-time selector for a fused shape whose body takes the
/// constituent binop as a parameter: `$select(op)` returns a wrapper
/// monomorphized for that op, so [`fused_binop_eval`]'s dispatch — and the
/// arithmetic behind it — constant-folds inside the handler.
macro_rules! binop_specialized {
    ($select:ident, $body:ident) => {
        fn $select(op: Opcode) -> UnitHandler {
            fn add(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Add)
            }
            fn sub(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Sub)
            }
            fn mul(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Mul)
            }
            fn div(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Div)
            }
            fn sdiv(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Sdiv)
            }
            fn rem(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Mod)
            }
            fn srem(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Smod)
            }
            fn lt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Lt)
            }
            fn gt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Gt)
            }
            fn slt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Slt)
            }
            fn sgt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Sgt)
            }
            fn eq(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Eq)
            }
            fn and(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::And)
            }
            fn or(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Or)
            }
            fn xor(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
                $body(m, u, Opcode::Xor)
            }
            match op {
                Opcode::Add => add,
                Opcode::Sub => sub,
                Opcode::Mul => mul,
                Opcode::Div => div,
                Opcode::Sdiv => sdiv,
                Opcode::Mod => rem,
                Opcode::Smod => srem,
                Opcode::Lt => lt,
                Opcode::Gt => gt,
                Opcode::Slt => slt,
                Opcode::Sgt => sgt,
                Opcode::Eq => eq,
                Opcode::And => and,
                Opcode::Or => or,
                Opcode::Xor => xor,
                other => unreachable!("non-fusable binop {other:?}"),
            }
        }
    };
}

binop_specialized!(sel_push_push_mload_binop, hf_push_push_mload_binop);
binop_specialized!(sel_binop_push_mstore, hf_binop_push_mstore);
binop_specialized!(sel_push_binop, hf_push_binop);
binop_specialized!(sel_storage_expr_store, hf_storage_expr_store);

/// Resolve a `DUP` to a depth-monomorphized handler.
fn sel_dup(n: u8) -> UnitHandler {
    match n {
        1 => h_dup_n::<1>,
        2 => h_dup_n::<2>,
        3 => h_dup_n::<3>,
        4 => h_dup_n::<4>,
        5 => h_dup_n::<5>,
        6 => h_dup_n::<6>,
        7 => h_dup_n::<7>,
        8 => h_dup_n::<8>,
        9 => h_dup_n::<9>,
        10 => h_dup_n::<10>,
        11 => h_dup_n::<11>,
        12 => h_dup_n::<12>,
        13 => h_dup_n::<13>,
        14 => h_dup_n::<14>,
        15 => h_dup_n::<15>,
        _ => h_dup_n::<16>,
    }
}

/// Resolve a `SWAP` to a depth-monomorphized handler.
fn sel_swap(n: u8) -> UnitHandler {
    match n {
        1 => h_swap_n::<1>,
        2 => h_swap_n::<2>,
        3 => h_swap_n::<3>,
        4 => h_swap_n::<4>,
        5 => h_swap_n::<5>,
        6 => h_swap_n::<6>,
        7 => h_swap_n::<7>,
        8 => h_swap_n::<8>,
        9 => h_swap_n::<9>,
        10 => h_swap_n::<10>,
        11 => h_swap_n::<11>,
        12 => h_swap_n::<12>,
        13 => h_swap_n::<13>,
        14 => h_swap_n::<14>,
        15 => h_swap_n::<15>,
        _ => h_swap_n::<16>,
    }
}

/// Resolve one dispatch unit to its handler, at lowering time. Fused tags
/// dispatch to their dedicated handler; plain units dispatch on the opcode.
/// This is the *only* place the two-level decision is made — the hot loop
/// just calls through the stored pointer.
///
/// `parts` is the unit's constituent instruction window, so the selector can
/// specialize on operands once instead of at every execution: the binop
/// inside a fused pattern, or a DUP/SWAP depth.
pub(crate) fn select_handler(fused: Fused, parts: &[DecodedInstr]) -> UnitHandler {
    use Opcode::*;
    let op = parts[parts.len() - 1].op;
    match fused {
        Fused::None => match op {
            Stop => h_stop,
            Add => h_add,
            Sub => h_sub,
            Mul => h_mul,
            Exp => h_exp,
            Div => h_div,
            Mod => h_mod,
            Sdiv => h_sdiv,
            Smod => h_smod,
            AddMod => h_addmod,
            MulMod => h_mulmod,
            SignExtend => h_signextend,
            Lt => h_lt,
            Gt => h_gt,
            Slt => h_slt,
            Sgt => h_sgt,
            Eq => h_eq,
            IsZero => h_iszero,
            And => h_and,
            Or => h_or,
            Xor => h_xor,
            Not => h_not,
            Byte => h_byte,
            Shl => h_shl,
            Shr => h_shr,
            Sar => h_sar,
            Sha3 => h_sha3,
            Address => h_address,
            Balance => h_balance,
            SelfBalance => h_selfbalance,
            Origin => h_origin,
            Caller => h_caller,
            CallValue => h_callvalue,
            CallDataLoad => h_calldataload,
            CallDataSize => h_calldatasize,
            CallDataCopy => h_calldatacopy,
            CodeSize => h_codesize,
            CodeCopy => h_codecopy,
            ReturnDataSize => h_returndatasize,
            ReturnDataCopy => h_returndatacopy,
            ExtCodeSize => h_extcodesize,
            ExtCodeCopy => h_extcodecopy,
            ExtCodeHash => h_extcodehash,
            GasPrice => h_gasprice,
            BlockHash => h_blockhash,
            Coinbase => h_coinbase,
            Timestamp => h_timestamp,
            Number => h_number,
            Difficulty => h_difficulty,
            GasLimit => h_gaslimit,
            ChainId => h_chainid,
            BaseFee => h_basefee,
            Pop => h_pop,
            MLoad => h_mload,
            MStore => h_mstore,
            MStore8 => h_mstore8,
            SLoad => h_sload,
            SStore => h_sstore,
            Jump => h_jump,
            JumpI => h_jumpi,
            Pc => h_pc,
            MSize => h_msize,
            Gas => h_gas,
            JumpDest => h_jumpdest,
            Push(_) => h_push,
            Dup(n) => sel_dup(n),
            Swap(n) => sel_swap(n),
            Log(_) => h_log,
            Call | CallCode | DelegateCall | StaticCall => h_call,
            Create => h_create,
            Create2 => h_create2,
            Return => h_return,
            Revert => h_revert,
            Invalid => h_invalid,
            SelfDestruct => h_selfdestruct,
            Unknown(_) => h_unknown,
        },
        Fused::PushJump { .. } => hf_push_jump,
        Fused::PushJumpI { .. } => hf_push_jumpi,
        Fused::IsZeroPushJumpI { .. } => hf_iszero_push_jumpi,
        Fused::PushPush => hf_push_push,
        Fused::PushMLoad => hf_push_mload,
        Fused::PushMStore => hf_push_mstore,
        Fused::PushCallDataLoad => hf_push_calldataload,
        Fused::PushPushSha3 => hf_push_push_sha3,
        Fused::PushPushMLoadBinop => sel_push_push_mload_binop(parts[3].op),
        Fused::BinopPushMStore => sel_binop_push_mstore(parts[0].op),
        Fused::PushBinop => sel_push_binop(parts[1].op),
        Fused::PushSLoad => hf_push_sload,
        Fused::PushSStore => hf_push_sstore,
        Fused::StorageExprStore => sel_storage_expr_store(parts[3].op),
        Fused::MapSlotSLoad | Fused::MapSlotSStore => hf_map_slot,
    }
}

// ---------------------------------------------------------------------------
// Plain handlers: one per opcode, serving both disciplines. Each starts by
// recording its instruction (before it can fault); gas-exact ops un-charge
// their tail around the body (zero in an unfused lowering).
// ---------------------------------------------------------------------------

fn h_stop(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.halt = Some(FrameResult {
        halt: HaltReason::Normal,
        output: vec![],
        gas_left: m.gas_left,
    });
    Step::Done
}

/// Overflowing arithmetic shared by ADD / SUB / MUL: the op arrives as a
/// compile-time constant from the per-op wrappers, so the inner `match` and
/// the overflow path specialize away. EXP lives in its own handler (dynamic
/// gas), which also means the tail un/re-charge disappears here — a plain
/// arithmetic unit always carries `tail == 0`.
#[inline(always)]
fn arith_body(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    m.trace.record_instr(u.op);
    debug_assert_eq!(u.tail, 0);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let taint = ta | tb;
    let (result, truncated) = match op {
        Opcode::Add => a.overflowing_add(b),
        Opcode::Sub => a.overflowing_sub(b),
        _ => a.overflowing_mul(b),
    };
    if truncated {
        m.truncated_events.push(m.trace.arith_events.len());
        m.trace.arith_events.push(ArithEvent {
            pc: u.pc as usize,
            opcode: op,
            truncated: true,
            taint,
            reached_storage: false,
            depth: m.depth,
        });
    }
    let result_taint = if truncated {
        taint | Taint::TRUNCATED
    } else {
        taint
    };
    t_push!(m, result, result_taint);
    Step::Next
}

fn h_add(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    arith_body(m, u, Opcode::Add)
}

fn h_sub(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    arith_body(m, u, Opcode::Sub)
}

fn h_mul(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    arith_body(m, u, Opcode::Mul)
}

fn h_exp(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let taint = ta | tb;
    let exp_bytes = u64::from(b.bits().div_ceil(8));
    let dynamic = EXP_BYTE_GAS * exp_bytes;
    if m.gas_left < dynamic {
        t_oog!(m);
    }
    m.gas_left -= dynamic;
    let (result, truncated) = exp_u256(a, b);
    if truncated {
        m.truncated_events.push(m.trace.arith_events.len());
        m.trace.arith_events.push(ArithEvent {
            pc: u.pc as usize,
            opcode: u.op,
            truncated: true,
            taint,
            reached_storage: false,
            depth: m.depth,
        });
    }
    let result_taint = if truncated {
        taint | Taint::TRUNCATED
    } else {
        taint
    };
    t_push!(m, result, result_taint);
    t_recharge!(m, u);
    Step::Next
}

fn h_div(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (q, _) = a.div_rem(b);
    t_push!(m, q, ta | tb);
    Step::Next
}

fn h_mod(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (_, r) = a.div_rem(b);
    t_push!(m, r, ta | tb);
    Step::Next
}

fn h_sdiv(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (q, _) = a.signed_div_rem(b);
    t_push!(m, q, ta | tb);
    Step::Next
}

fn h_smod(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (_, r) = a.signed_div_rem(b);
    t_push!(m, r, ta | tb);
    Step::Next
}

fn h_addmod(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (n, tn) = t_pop!(m);
    t_push!(m, a.add_mod(b, n), ta | tb | tn);
    Step::Next
}

fn h_mulmod(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (n, tn) = t_pop!(m);
    t_push!(m, a.mul_mod(b, n), ta | tb | tn);
    Step::Next
}

fn h_signextend(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (b, tb) = t_pop!(m);
    let (x, tx) = t_pop!(m);
    let extended = match b.to_usize() {
        Some(i) => x.sign_extend(i),
        None => x,
    };
    t_push!(m, extended, tb | tx);
    Step::Next
}

/// Comparison shared by LT / GT / SLT / SGT / EQ; `op` is a compile-time
/// constant from the per-op wrappers, so the predicate and `CmpKind`
/// selection fold away.
#[inline(always)]
fn cmp_body(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let taint = ta | tb;
    let result = match op {
        Opcode::Lt => a < b,
        Opcode::Gt => a > b,
        Opcode::Slt => a.signed_cmp(&b) == std::cmp::Ordering::Less,
        Opcode::Sgt => a.signed_cmp(&b) == std::cmp::Ordering::Greater,
        _ => a == b,
    };
    let kind = match op {
        Opcode::Lt | Opcode::Slt => CmpKind::Lt,
        Opcode::Gt | Opcode::Sgt => CmpKind::Gt,
        _ => CmpKind::Eq,
    };
    m.last_cmp = Some(Comparison {
        pc: u.pc as usize,
        kind,
        lhs: a,
        rhs: b,
        taint,
    });
    t_push!(m, U256::from(result), taint);
    Step::Next
}

fn h_lt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    cmp_body(m, u, Opcode::Lt)
}

fn h_gt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    cmp_body(m, u, Opcode::Gt)
}

fn h_slt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    cmp_body(m, u, Opcode::Slt)
}

fn h_sgt(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    cmp_body(m, u, Opcode::Sgt)
}

fn h_eq(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    cmp_body(m, u, Opcode::Eq)
}

fn h_iszero(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let is_bool = a.is_zero() || a == U256::ONE;
    if !(is_bool && m.last_cmp.is_some()) {
        m.last_cmp = Some(Comparison {
            pc: u.pc as usize,
            kind: CmpKind::IsZero,
            lhs: a,
            rhs: U256::ZERO,
            taint: ta,
        });
    }
    t_push!(m, U256::from(a.is_zero()), ta);
    Step::Next
}

#[inline(always)]
fn bit_body(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let result = match op {
        Opcode::And => a & b,
        Opcode::Or => a | b,
        _ => a ^ b,
    };
    t_push!(m, result, ta | tb);
    Step::Next
}

fn h_and(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    bit_body(m, u, Opcode::And)
}

fn h_or(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    bit_body(m, u, Opcode::Or)
}

fn h_xor(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    bit_body(m, u, Opcode::Xor)
}

fn h_not(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (a, ta) = t_pop!(m);
    t_push!(m, !a, ta);
    Step::Next
}

fn h_byte(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (i, ti) = t_pop!(m);
    let (x, tx) = t_pop!(m);
    let byte = i
        .to_usize()
        .filter(|&i| i < 32)
        .map(|i| U256::from_u64(x.to_be_bytes()[i] as u64))
        .unwrap_or(U256::ZERO);
    t_push!(m, byte, ti | tx);
    Step::Next
}

fn h_shl(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (shift, ts) = t_pop!(m);
    let (x, tx) = t_pop!(m);
    let shifted = shift
        .to_u64()
        .map(|s| x.shl_bits(s.min(256) as u32))
        .unwrap_or(U256::ZERO);
    t_push!(m, shifted, ts | tx);
    Step::Next
}

fn h_shr(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (shift, ts) = t_pop!(m);
    let (x, tx) = t_pop!(m);
    let shifted = shift
        .to_u64()
        .map(|s| x.shr_bits(s.min(256) as u32))
        .unwrap_or(U256::ZERO);
    t_push!(m, shifted, ts | tx);
    Step::Next
}

fn h_sar(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (shift, ts) = t_pop!(m);
    let (x, tx) = t_pop!(m);
    let shifted = match shift.to_u64() {
        Some(s) => x.sar_bits(s.min(256) as u32),
        None if x.is_negative_signed() => U256::MAX,
        None => U256::ZERO,
    };
    t_push!(m, shifted, ts | tx);
    Step::Next
}

fn h_sha3(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (offset, to) = t_pop!(m);
    let (len, tl) = t_pop!(m);
    let (offset, len) = match (offset.to_usize(), len.to_usize()) {
        (Some(o), Some(l)) if l <= m.evm.config.max_memory => (o, l),
        _ => t_fault!(m, "sha3 out of bounds"),
    };
    let span = match mem_span(offset, len) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    let digest = m.scratch.keccak.hash(&m.memory[offset..offset + len]);
    t_push!(m, U256::from_be_bytes(digest), to | tl);
    t_recharge!(m, u);
    Step::Next
}

fn h_address(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.code_address.to_u256(), Taint::empty());
    Step::Next
}

fn h_balance(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (who, _t) = t_pop!(m);
    let who = Address::from_u256(who);
    // EIP-2929: the first touch of the account this transaction pays the
    // cold surcharge, billed on the exact counter the tail anchor exposes.
    let surcharge = m.scratch.access.address_surcharge(who);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let bal = m.evm.world.balance(who);
    t_push!(m, bal, Taint::BALANCE);
    t_recharge!(m, u);
    Step::Next
}

fn h_extcodesize(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (who, _t) = t_pop!(m);
    let who = Address::from_u256(who);
    let surcharge = m.scratch.access.address_surcharge(who);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let size = m.evm.world.code(who).len();
    t_push!(m, U256::from_u64(size as u64), Taint::empty());
    t_recharge!(m, u);
    Step::Next
}

fn h_extcodehash(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (who, _t) = t_pop!(m);
    let who = Address::from_u256(who);
    let surcharge = m.scratch.access.address_surcharge(who);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let hash = if m.evm.world.exists(who) {
        U256::from_be_bytes(keccak256(m.evm.world.code(who)))
    } else {
        U256::ZERO
    };
    t_push!(m, hash, Taint::empty());
    t_recharge!(m, u);
    Step::Next
}

fn h_extcodecopy(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (who, _t) = t_pop!(m);
    let (dst, _) = t_pop!(m);
    let (src, _) = t_pop!(m);
    let (len, _) = t_pop!(m);
    let who = Address::from_u256(who);
    let surcharge = m.scratch.access.address_surcharge(who);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
        (Some(d), Some(s), Some(l)) if l <= m.evm.config.max_memory => (d, s, l),
        _ => t_fault!(m, "extcodecopy out of bounds"),
    };
    let dynamic = COPY_WORD_GAS * (len as u64).div_ceil(32);
    if m.gas_left < dynamic {
        t_oog!(m);
    }
    m.gas_left -= dynamic;
    let span = match mem_span(dst, len) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    let ext = m.evm.world.code(who);
    for i in 0..len {
        m.memory[dst + i] = ext.get(src.saturating_add(i)).copied().unwrap_or(0);
    }
    t_recharge!(m, u);
    Step::Next
}

fn h_selfbalance(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let bal = m.evm.world.balance(m.storage_address);
    t_push!(m, bal, Taint::BALANCE);
    Step::Next
}

fn h_origin(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.origin.to_u256(), Taint::ORIGIN);
    Step::Next
}

fn h_caller(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.caller.to_u256(), Taint::CALLER);
    Step::Next
}

fn h_callvalue(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.value, Taint::CALLVALUE);
    Step::Next
}

fn h_calldataload(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (offset, _t) = t_pop!(m);
    let word = calldata_word(m.calldata, offset);
    t_push!(m, word, Taint::CALLDATA);
    Step::Next
}

fn h_calldatasize(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(m.calldata.len() as u64), Taint::CALLDATA);
    Step::Next
}

fn h_calldatacopy(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (dst, _td) = t_pop!(m);
    let (src, _ts) = t_pop!(m);
    let (len, _tl) = t_pop!(m);
    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
        (Some(d), Some(s), Some(l)) if l <= m.evm.config.max_memory => (d, s, l),
        _ => t_fault!(m, "calldatacopy out of bounds"),
    };
    let span = match mem_span(dst, len) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    for i in 0..len {
        m.memory[dst + i] = m.calldata.get(src + i).copied().unwrap_or(0);
    }
    t_recharge!(m, u);
    Step::Next
}

fn h_codesize(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let len = m.program.base().code_len();
    t_push!(m, U256::from_u64(len as u64), Taint::empty());
    Step::Next
}

fn h_codecopy(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (dst, _) = t_pop!(m);
    let (src, _) = t_pop!(m);
    let (len, _) = t_pop!(m);
    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
        (Some(d), Some(s), Some(l)) if l <= m.evm.config.max_memory => (d, s, l),
        _ => t_fault!(m, "codecopy out of bounds"),
    };
    let dynamic = COPY_WORD_GAS * (len as u64).div_ceil(32);
    if m.gas_left < dynamic {
        t_oog!(m);
    }
    m.gas_left -= dynamic;
    let span = match mem_span(dst, len) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    // Reads past the end of the code are zero-padded (the EVM's implicit
    // trailing STOP region).
    for i in 0..len {
        m.memory[dst + i] = m.code.get(src.saturating_add(i)).copied().unwrap_or(0);
    }
    t_recharge!(m, u);
    Step::Next
}

fn h_returndatasize(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(
        m,
        U256::from_u64(m.return_data.len() as u64),
        Taint::empty()
    );
    Step::Next
}

fn h_returndatacopy(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (dst, _) = t_pop!(m);
    let (src, _) = t_pop!(m);
    let (len, _) = t_pop!(m);
    let (dst, src, len) = match (dst.to_usize(), src.to_usize(), len.to_usize()) {
        (Some(d), Some(s), Some(l)) if l <= m.evm.config.max_memory => (d, s, l),
        _ => t_fault!(m, "returndatacopy out of bounds"),
    };
    // Unlike CALLDATACOPY's zero padding, reading past the end of the
    // return buffer is an exceptional halt (EIP-211).
    match src.checked_add(len) {
        Some(end) if end <= m.return_data.len() => {}
        _ => t_fault!(m, "returndatacopy out of bounds"),
    }
    let dynamic = COPY_WORD_GAS * (len as u64).div_ceil(32);
    if m.gas_left < dynamic {
        t_oog!(m);
    }
    m.gas_left -= dynamic;
    let span = match mem_span(dst, len) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[dst..dst + len].copy_from_slice(&m.return_data[src..src + len]);
    t_recharge!(m, u);
    Step::Next
}

fn h_gasprice(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(1_000_000_000), Taint::empty());
    Step::Next
}

fn h_blockhash(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (n, _t) = t_pop!(m);
    let hash = keccak256(&n.to_be_bytes());
    t_push!(m, U256::from_be_bytes(hash), Taint::BLOCK);
    Step::Next
}

fn h_coinbase(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.evm.block.coinbase.to_u256(), Taint::BLOCK);
    Step::Next
}

fn h_timestamp(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(m.evm.block.timestamp), Taint::BLOCK);
    Step::Next
}

fn h_number(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(m.evm.block.number), Taint::BLOCK);
    Step::Next
}

fn h_difficulty(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.evm.block.difficulty, Taint::BLOCK);
    Step::Next
}

fn h_gaslimit(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(m.evm.block.gas_limit), Taint::empty());
    Step::Next
}

fn h_chainid(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(m.evm.block.chain_id), Taint::BLOCK);
    Step::Next
}

fn h_basefee(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, m.evm.block.base_fee, Taint::BLOCK);
    Step::Next
}

fn h_pop(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_pop!(m);
    Step::Next
}

fn h_mload(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (offset, to) = t_pop!(m);
    let offset = match offset.to_usize() {
        Some(o) => o,
        None => t_fault!(m, "mload out of bounds"),
    };
    let span = match mem_span(offset, 32) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    let mut word = [0u8; 32];
    word.copy_from_slice(&m.memory[offset..offset + 32]);
    t_push!(m, U256::from_be_bytes(word), to);
    t_recharge!(m, u);
    Step::Next
}

fn h_mstore(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (offset, _to) = t_pop!(m);
    let (val, _tv) = t_pop!(m);
    let offset = match offset.to_usize() {
        Some(o) => o,
        None => t_fault!(m, "mstore out of bounds"),
    };
    let span = match mem_span(offset, 32) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[offset..offset + 32].copy_from_slice(&val.to_be_bytes());
    t_recharge!(m, u);
    Step::Next
}

fn h_mstore8(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (offset, _to) = t_pop!(m);
    let (val, _tv) = t_pop!(m);
    let offset = match offset.to_usize() {
        Some(o) => o,
        None => t_fault!(m, "mstore8 out of bounds"),
    };
    let span = match mem_span(offset, 1) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[offset] = val.low_u64() as u8;
    t_recharge!(m, u);
    Step::Next
}

fn h_sload(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (slot, _ts) = t_pop!(m);
    // EIP-2929: cold slots pay the surcharge on first touch.
    let surcharge = m.scratch.access.slot_surcharge(m.storage_address, slot);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let (val, stored_taint) = m.evm.world.storage_entry(m.storage_address, slot);
    t_push!(m, val, Taint::STORAGE | stored_taint);
    t_recharge!(m, u);
    Step::Next
}

fn h_sstore(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.gas_left += u.tail;
    let (slot, _ts) = t_pop!(m);
    let (val, tv) = t_pop!(m);
    let surcharge = m.scratch.access.slot_surcharge(m.storage_address, slot);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    store_slot(m, u.pc as usize, slot, val, tv);
    t_recharge!(m, u);
    Step::Next
}

fn h_jump(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (dest, _t) = t_pop!(m);
    let target = dest.to_usize().and_then(|d| m.program.jump_unit(d));
    match target {
        Some(t) => Step::Jump(t as u32),
        None => t_fault!(m, "invalid jump destination"),
    }
}

fn h_jumpi(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (dest, _td) = t_pop!(m);
    let (cond, tc) = t_pop!(m);
    let taken = !cond.is_zero();
    let dest_usize = dest.to_usize().unwrap_or(usize::MAX);
    note_branch(m, u.pc as usize, dest_usize, taken, tc);
    if taken {
        match m.program.jump_unit(dest_usize) {
            Some(t) => return Step::Jump(t as u32),
            None => t_fault!(m, "invalid jump destination"),
        }
    }
    Step::Next
}

fn h_pc(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(u.pc as u64), Taint::empty());
    Step::Next
}

fn h_msize(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, U256::from_u64(m.memory.len() as u64), Taint::empty());
    Step::Next
}

fn h_gas(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    // GAS is gas-exact: un-charge the tail so the pushed value is the
    // per-instruction counter, then re-charge.
    m.gas_left += u.tail;
    t_push!(m, U256::from_u64(m.gas_left), Taint::empty());
    t_recharge!(m, u);
    Step::Next
}

fn h_jumpdest(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    Step::Next
}

fn h_push(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    t_push!(m, u.imm, Taint::empty());
    Step::Next
}

/// `DUP<N>` with the depth resolved at lowering time.
fn h_dup_n<const N: usize>(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    if m.stack.len() < N {
        t_fault!(m, "stack underflow");
    }
    let item = m.stack[m.stack.len() - N];
    t_push!(m, item.0, item.1);
    Step::Next
}

/// `SWAP<N>` with the depth resolved at lowering time.
fn h_swap_n<const N: usize>(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    if m.stack.len() < N + 1 {
        t_fault!(m, "stack underflow");
    }
    let top = m.stack.len() - 1;
    m.stack.swap(top, top - N);
    Step::Next
}

fn h_log(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let n = match u.op {
        Opcode::Log(n) => n,
        _ => unreachable!("h_log dispatches LOG"),
    };
    let (_offset, _) = t_pop!(m);
    let (_len, _) = t_pop!(m);
    for _ in 0..n {
        t_pop!(m);
    }
    Step::Next
}

fn h_call(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let op = u.op;
    let pc = u.pc as usize;
    m.trace.record_instr(op);
    let (gas_req, _tg) = t_pop!(m);
    let (to_word, t_to) = t_pop!(m);
    let (call_value, tv) = if matches!(op, Opcode::Call | Opcode::CallCode) {
        t_pop!(m)
    } else {
        (U256::ZERO, Taint::empty())
    };
    let (args_offset, _) = t_pop!(m);
    let (args_len, _) = t_pop!(m);
    let (ret_offset, _) = t_pop!(m);
    let (ret_len, _) = t_pop!(m);

    let to = Address::from_u256(to_word);
    let kind = match op {
        Opcode::Call => CallKind::Call,
        Opcode::CallCode => CallKind::CallCode,
        Opcode::DelegateCall => CallKind::DelegateCall,
        _ => CallKind::StaticCall,
    };
    m.args_buf.clear();
    t_mem!(
        m,
        read_memory_into(
            m.memory,
            args_offset,
            args_len,
            m.evm.config.max_memory,
            &mut m.gas_left,
            m.args_buf,
        )
    );
    // EIP-2929: the first touch of the callee account this transaction pays
    // the cold surcharge, before any gas is forwarded.
    let surcharge = m.scratch.access.address_surcharge(to);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let available = m.gas_left - m.gas_left / 64;
    let forwarded_gas = gas_req.to_u64().unwrap_or(u64::MAX).min(available);

    let call_idx = m.trace.calls.len();
    m.trace.calls.push(CallEvent {
        pc,
        kind,
        from: m.code_address,
        to,
        value: call_value,
        gas: forwarded_gas,
        success: false,
        callee_exception: false,
        result_checked: false,
        depth: m.depth,
        caller_selector: m.trace.entered_selector,
        arg_taint: t_to | tv,
        caller_guarded: m.caller_guard_seen,
    });

    if m.frames.iter().any(|f| f.code_address == to) {
        m.trace.reentered = true;
    }

    let (success, callee_exception, output, gas_spent) = m.evm.do_call(
        CallContext {
            kind,
            code_address: m.code_address,
            storage_address: m.storage_address,
            caller: m.caller,
            origin: m.origin,
            current_value: m.value,
            to,
            call_value,
            gas: forwarded_gas,
            depth: m.depth,
        },
        m.args_buf,
        m.frames,
        m.trace,
        m.scratch,
    );
    m.gas_left = m.gas_left.saturating_sub(gas_spent);
    if let Some(ev) = m.trace.calls.get_mut(call_idx) {
        ev.success = success;
        ev.callee_exception = callee_exception;
    }
    m.unchecked_calls.push(call_idx);
    // The callee's output becomes this frame's RETURNDATA buffer (empty
    // after an exceptional halt), and the part that fits is copied into the
    // caller's return region.
    m.return_data = output;
    let ret_n = ret_len.to_usize().unwrap_or(0).min(m.return_data.len());
    if ret_n > 0 {
        let offset = match ret_offset.to_usize() {
            Some(o) => o,
            None => t_fault!(m, "return region out of bounds"),
        };
        let span = match mem_span(offset, ret_n) {
            Ok(s) => s,
            Err(e) => t_fault!(m, e),
        };
        t_mem!(
            m,
            ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
        );
        m.memory[offset..offset + ret_n].copy_from_slice(&m.return_data[..ret_n]);
    }
    t_push!(m, U256::from(success), Taint::CALL_RESULT);
    Step::Next
}

fn h_create(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (_value, _) = t_pop!(m);
    let (_offset, _) = t_pop!(m);
    let (_len, _) = t_pop!(m);
    t_push!(m, U256::ZERO, Taint::empty());
    Step::Next
}

fn h_create2(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (create_value, _tv) = t_pop!(m);
    let (offset, _) = t_pop!(m);
    let (len, _) = t_pop!(m);
    let (salt, _) = t_pop!(m);
    let init = t_mem!(
        m,
        read_memory_range(
            m.memory,
            offset,
            len,
            m.evm.config.max_memory,
            &mut m.gas_left
        )
    );
    // Hashing the init code for the deterministic address derivation costs
    // the Keccak word price.
    let dynamic = SHA3_WORD_GAS * (init.len() as u64).div_ceil(32);
    if m.gas_left < dynamic {
        t_oog!(m);
    }
    m.gas_left -= dynamic;
    let site = CreateSite {
        creator: m.storage_address,
        origin: m.origin,
        value: create_value,
        salt,
        depth: m.depth,
    };
    let (created, out) =
        m.evm
            .do_create2(site, &init, m.frames, m.trace, m.scratch, &mut m.gas_left);
    m.return_data = out;
    t_push!(m, created, Taint::CALL_RESULT);
    Step::Next
}

fn h_return(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (offset, _) = t_pop!(m);
    let (len, _) = t_pop!(m);
    let out = t_mem!(
        m,
        read_memory_range(
            m.memory,
            offset,
            len,
            m.evm.config.max_memory,
            &mut m.gas_left
        )
    );
    m.halt = Some(FrameResult {
        halt: HaltReason::Normal,
        output: out,
        gas_left: m.gas_left,
    });
    Step::Done
}

fn h_revert(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (offset, _) = t_pop!(m);
    let (len, _) = t_pop!(m);
    let out = t_mem!(
        m,
        read_memory_range(
            m.memory,
            offset,
            len,
            m.evm.config.max_memory,
            &mut m.gas_left
        )
    );
    m.halt = Some(FrameResult {
        halt: HaltReason::Revert,
        output: out,
        gas_left: m.gas_left,
    });
    Step::Done
}

fn h_invalid(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    m.halt = Some(FrameResult {
        halt: HaltReason::Invalid,
        output: vec![],
        gas_left: 0,
    });
    Step::Done
}

fn h_selfdestruct(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let (beneficiary_word, tb) = t_pop!(m);
    let beneficiary = Address::from_u256(beneficiary_word);
    let balance = m.evm.world.balance(m.storage_address);
    m.evm
        .world
        .transfer(m.storage_address, beneficiary, balance);
    m.evm.world.mark_destroyed(m.storage_address);
    m.trace.self_destructs.push(SelfDestructEvent {
        pc: u.pc as usize,
        contract: m.storage_address,
        beneficiary,
        caller_guarded: m.caller_guard_seen,
        beneficiary_taint: tb,
    });
    m.halt = Some(FrameResult {
        halt: HaltReason::Normal,
        output: vec![],
        gas_left: m.gas_left,
    });
    Step::Done
}

fn h_unknown(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    m.trace.record_instr(u.op);
    let b = match u.op {
        Opcode::Unknown(b) => b,
        _ => unreachable!("h_unknown dispatches Unknown"),
    };
    // Conformance-tagged exceptional halt: record which byte at which pc fell
    // outside the implemented surface, so vector runs and ingested-blob
    // campaigns can separate "unsupported opcode" from "interpreter bug".
    m.trace.conformance.push(ConformanceEvent {
        pc: u.pc as usize,
        byte: b,
        depth: m.depth,
    });
    t_fault!(m, format!("unknown opcode 0x{b:02x}"));
}

// ---------------------------------------------------------------------------
// Fused handlers: one per superinstruction tag. Each records the whole unit
// with one bulk OR, or only the executed prefix when a constituent halts
// before the unit's last.
// ---------------------------------------------------------------------------

fn hf_push_jump(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    t_bulk!(m, u);
    let Fused::PushJump { target } = u.fused else {
        unreachable!("hf_push_jump dispatches PushJump");
    };
    if target == u32::MAX {
        t_fault!(m, "invalid jump destination");
    }
    Step::Jump(target)
}

fn hf_push_jumpi(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    let Fused::PushJumpI { target } = u.fused else {
        unreachable!("hf_push_jumpi dispatches PushJumpI");
    };
    let (cond, tc) = t_pop!(m);
    let taken = !cond.is_zero();
    let pc = parts[1].pc as usize;
    let dest_usize = parts[0].imm.to_usize().unwrap_or(usize::MAX);
    note_branch(m, pc, dest_usize, taken, tc);
    if taken {
        if target == u32::MAX {
            t_fault!(m, "invalid jump destination");
        }
        return Step::Jump(target);
    }
    Step::Next
}

fn hf_iszero_push_jumpi(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    let Fused::IsZeroPushJumpI { target } = u.fused else {
        unreachable!("hf_iszero_push_jumpi dispatches IsZeroPushJumpI");
    };
    let (x, tx) = t_pop!(m);
    let is_bool = x.is_zero() || x == U256::ONE;
    if !(is_bool && m.last_cmp.is_some()) {
        m.last_cmp = Some(Comparison {
            pc: parts[0].pc as usize,
            kind: CmpKind::IsZero,
            lhs: x,
            rhs: U256::ZERO,
            taint: tx,
        });
    }
    let taken = x.is_zero();
    let pc = parts[2].pc as usize;
    let dest_usize = parts[1].imm.to_usize().unwrap_or(usize::MAX);
    note_branch(m, pc, dest_usize, taken, tx);
    if taken {
        if target == u32::MAX {
            t_fault!(m, "invalid jump destination");
        }
        return Step::Jump(target);
    }
    Step::Next
}

fn hf_push_push(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    t_push!(m, parts[0].imm, Taint::empty());
    t_push!(m, parts[1].imm, Taint::empty());
    Step::Next
}

fn hf_push_mload(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    m.gas_left += u.tail;
    let offset = match parts[0].imm.to_usize() {
        Some(o) => o,
        None => t_fault!(m, "mload out of bounds"),
    };
    let span = match mem_span(offset, 32) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    let mut word = [0u8; 32];
    word.copy_from_slice(&m.memory[offset..offset + 32]);
    t_push!(m, U256::from_be_bytes(word), Taint::empty());
    t_recharge!(m, u);
    Step::Next
}

fn hf_push_mstore(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    m.gas_left += u.tail;
    let (val, _tv) = t_pop!(m);
    let offset = match parts[0].imm.to_usize() {
        Some(o) => o,
        None => t_fault!(m, "mstore out of bounds"),
    };
    let span = match mem_span(offset, 32) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[offset..offset + 32].copy_from_slice(&val.to_be_bytes());
    t_recharge!(m, u);
    Step::Next
}

fn hf_push_calldataload(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    let word = calldata_word(m.calldata, parts[0].imm);
    t_push!(m, word, Taint::CALLDATA);
    Step::Next
}

fn hf_push_push_sha3(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    m.gas_left += u.tail;
    let (offset, len) = (parts[1].imm, parts[0].imm);
    let (offset, len) = match (offset.to_usize(), len.to_usize()) {
        (Some(o), Some(l)) if l <= m.evm.config.max_memory => (o, l),
        _ => t_fault!(m, "sha3 out of bounds"),
    };
    let span = match mem_span(offset, len) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    let digest = m.scratch.keccak.hash(&m.memory[offset..offset + len]);
    t_push!(m, U256::from_be_bytes(digest), Taint::empty());
    t_recharge!(m, u);
    Step::Next
}

#[inline(always)]
fn hf_push_push_mload_binop(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    let parts = unit_parts(m, u);
    m.gas_left += u.tail;
    let offset = match parts[1].imm.to_usize() {
        Some(o) => o,
        None => t_unit_fault!(m, parts, 2, "mload out of bounds"),
    };
    let span = match mem_span(offset, 32) {
        Ok(s) => s,
        Err(e) => t_unit_fault!(m, parts, 2, e),
    };
    t_unit_mem!(
        m,
        parts,
        2,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    t_bulk!(m, u);
    let mut word = [0u8; 32];
    word.copy_from_slice(&m.memory[offset..offset + 32]);
    let (result, taint) = t_binop!(
        m,
        op,
        parts[3].pc as usize,
        U256::from_be_bytes(word),
        parts[0].imm,
        Taint::empty()
    );
    t_push!(m, result, taint);
    t_recharge!(m, u);
    Step::Next
}

#[inline(always)]
fn hf_binop_push_mstore(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    let (a, ta) = t_pop!(m);
    let (b, tb) = t_pop!(m);
    let (val, _tv) = t_binop!(m, op, parts[0].pc as usize, a, b, ta | tb);
    m.gas_left += u.tail;
    let offset = match parts[1].imm.to_usize() {
        Some(o) => o,
        None => t_fault!(m, "mstore out of bounds"),
    };
    let span = match mem_span(offset, 32) {
        Ok(s) => s,
        Err(e) => t_fault!(m, e),
    };
    t_mem!(
        m,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[offset..offset + 32].copy_from_slice(&val.to_be_bytes());
    t_recharge!(m, u);
    Step::Next
}

#[inline(always)]
fn hf_push_binop(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    let (b, tb) = t_pop!(m);
    let (result, taint) = t_binop!(m, op, parts[1].pc as usize, parts[0].imm, b, tb);
    t_push!(m, result, taint);
    Step::Next
}

fn hf_push_sload(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    t_bulk!(m, u);
    m.gas_left += u.tail;
    // The pushed slot is the unit's first constituent: its immediate is the
    // unit's `imm`.
    let slot = u.imm;
    // EIP-2929: the first touch of the slot this transaction pays the cold
    // surcharge, billed on the exact counter the tail anchor exposes.
    let surcharge = m.scratch.access.slot_surcharge(m.storage_address, slot);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let (val, stored_taint) = m.evm.world.storage_entry(m.storage_address, slot);
    t_push!(m, val, Taint::STORAGE | stored_taint);
    t_recharge!(m, u);
    Step::Next
}

fn hf_push_sstore(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    t_bulk!(m, u);
    m.gas_left += u.tail;
    let slot = parts[0].imm;
    let (val, tv) = t_pop!(m);
    let surcharge = m.scratch.access.slot_surcharge(m.storage_address, slot);
    if m.gas_left < surcharge {
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    store_slot(m, parts[1].pc as usize, slot, val, tv);
    t_recharge!(m, u);
    Step::Next
}

#[inline(always)]
fn hf_storage_expr_store(m: &mut Machine<'_, '_>, u: &BlockUnit, op: Opcode) -> Step {
    let parts = unit_parts(m, u);
    // A whole `storage_var = storage_var ⊕ c` statement: load, fold, store
    // back with no stack traffic. Both storage ops carry a dynamic EIP-2929
    // surcharge, so (like the `MapSlot*` family) the arm rewinds to the exact
    // per-instruction counter at the unit's start and replays every
    // constituent's billing in order.
    m.gas_left += u.head;
    t_charge!(m, parts, 0);
    t_charge!(m, parts, 1);
    t_charge!(m, parts, 2);
    let slot = parts[1].imm;
    let surcharge = m.scratch.access.slot_surcharge(m.storage_address, slot);
    if m.gas_left < surcharge {
        t_prefix!(m, parts, 2);
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    let (loaded, stored_taint) = m.evm.world.storage_entry(m.storage_address, slot);
    t_charge!(m, parts, 3);
    let (val, tv) = t_binop!(
        m,
        op,
        parts[3].pc as usize,
        loaded,
        parts[0].imm,
        Taint::STORAGE | stored_taint
    );
    t_charge!(m, parts, 4);
    t_charge!(m, parts, 5);
    let out_slot = parts[4].imm;
    let surcharge = m.scratch.access.slot_surcharge(m.storage_address, out_slot);
    if m.gas_left < surcharge {
        t_prefix!(m, parts, 5);
        t_oog!(m);
    }
    m.gas_left -= surcharge;
    store_slot(m, parts[5].pc as usize, out_slot, val, tv);
    t_bulk!(m, u);
    // Restore block billing exactly as `MapSlot*` does: re-charge the
    // statics of the block's instructions after this unit, deopting with the
    // exact counter if the surcharges drained what the block had pre-paid.
    let unit_statics: u64 = parts.iter().map(|di| static_gas(di.op)).sum();
    let after = u.head - unit_statics;
    if m.gas_left < after {
        return Step::Deopt(u.instr_start + u.instr_count);
    }
    m.gas_left -= after;
    Step::Next
}

fn hf_map_slot(m: &mut Machine<'_, '_>, u: &BlockUnit) -> Step {
    let parts = unit_parts(m, u);
    // Mapping-slot addressing: stage the key and the mapping's slot constant
    // in memory, hash the window, then read or write the derived slot. The
    // pattern carries several dynamic bills (two MSTORE expansions plus the
    // SHA3 span), so one tail anchor cannot make them all exact: instead the
    // arm rewinds to the exact per-instruction counter at the unit's start
    // (re-charging `head`) and replays every constituent's billing in order,
    // recording the executed prefix on any mid-pattern halt.
    m.gas_left += u.head;
    t_charge!(m, parts, 0);
    t_charge!(m, parts, 1);
    let (key, _tk) = t_pop!(m);
    let off1 = match parts[0].imm.to_usize() {
        Some(o) => o,
        None => t_unit_fault!(m, parts, 1, "mstore out of bounds"),
    };
    let span = match mem_span(off1, 32) {
        Ok(s) => s,
        Err(e) => t_unit_fault!(m, parts, 1, e),
    };
    t_unit_mem!(
        m,
        parts,
        1,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[off1..off1 + 32].copy_from_slice(&key.to_be_bytes());
    t_charge!(m, parts, 2);
    t_charge!(m, parts, 3);
    t_charge!(m, parts, 4);
    let off2 = match parts[3].imm.to_usize() {
        Some(o) => o,
        None => t_unit_fault!(m, parts, 4, "mstore out of bounds"),
    };
    let span = match mem_span(off2, 32) {
        Ok(s) => s,
        Err(e) => t_unit_fault!(m, parts, 4, e),
    };
    t_unit_mem!(
        m,
        parts,
        4,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    m.memory[off2..off2 + 32].copy_from_slice(&parts[2].imm.to_be_bytes());
    t_charge!(m, parts, 5);
    t_charge!(m, parts, 6);
    t_charge!(m, parts, 7);
    let (sha_off, sha_len) = match (parts[6].imm.to_usize(), parts[5].imm.to_usize()) {
        (Some(o), Some(l)) if l <= m.evm.config.max_memory => (o, l),
        _ => t_unit_fault!(m, parts, 7, "sha3 out of bounds"),
    };
    let span = match mem_span(sha_off, sha_len) {
        Ok(s) => s,
        Err(e) => t_unit_fault!(m, parts, 7, e),
    };
    t_unit_mem!(
        m,
        parts,
        7,
        ensure_memory(m.memory, span, m.evm.config.max_memory, &mut m.gas_left)
    );
    let digest = U256::from_be_bytes(m.scratch.keccak.hash(&m.memory[sha_off..sha_off + sha_len]));
    t_charge!(m, parts, 8);
    match u.fused {
        Fused::MapSlotSLoad => {
            let surcharge = m.scratch.access.slot_surcharge(m.storage_address, digest);
            if m.gas_left < surcharge {
                t_prefix!(m, parts, 8);
                t_oog!(m);
            }
            m.gas_left -= surcharge;
            let (val, stored_taint) = m.evm.world.storage_entry(m.storage_address, digest);
            t_push!(m, val, Taint::STORAGE | stored_taint);
        }
        _ => {
            let (val, tv) = t_pop!(m);
            let surcharge = m.scratch.access.slot_surcharge(m.storage_address, digest);
            if m.gas_left < surcharge {
                t_prefix!(m, parts, 8);
                t_oog!(m);
            }
            m.gas_left -= surcharge;
            store_slot(m, parts[8].pc as usize, digest, val, tv);
        }
    }
    t_bulk!(m, u);
    // Restore block billing: re-charge the statics of the block's
    // instructions after this unit, deopting to the next instruction if the
    // dynamic bills drained the block's pre-payment.
    let unit_statics: u64 = parts.iter().map(|di| static_gas(di.op)).sum();
    let after = u.head - unit_statics;
    if m.gas_left < after {
        return Step::Deopt(u.instr_start + u.instr_count);
    }
    m.gas_left -= after;
    Step::Next
}
