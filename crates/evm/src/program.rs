//! Pre-decoded instruction streams.
//!
//! The fuzzer executes the same runtime bytecode tens of thousands of times
//! per second. Decoding a byte at a time on every execution — opcode match,
//! `PUSH` immediate materialisation, `JUMPDEST` scan per call frame — is pure
//! overhead after the first run, so [`DecodedProgram`] lowers a code blob
//! once into a dense instruction stream:
//!
//! * one [`DecodedInstr`] per instruction with the opcode tag and the
//!   `PUSH` immediate already materialised as a [`U256`],
//! * a pc → instruction-index table so `JUMP`/`JUMPI` destinations resolve
//!   in O(1) without scanning,
//! * a `JUMPDEST` validity bitmap (a destination is valid only when the
//!   `0x5b` byte is an instruction start, not push data).
//!
//! The sequential successor of an instruction is pre-resolved too: it is
//! simply the next index in the stream, so the dispatch loop never computes
//! `pc + 1 + immediate_size` again.
//!
//! [`BlockProgram`] lowers one step further: the decoded stream is split
//! into basic blocks (leaders at entry, at every `JUMPDEST`, and at the
//! fall-through of every block-ending instruction) and each block carries
//! its pre-summed static gas cost and stack envelope, so the dispatch loop
//! charges gas and bounds-checks the stack once per block instead of per
//! instruction. Within a block, common compiler idioms are fused into
//! superinstructions ([`Fused`]) with dedicated dispatch arms. The
//! *unfused* lowering ([`BlockProgram::unfused`]) is the same program with
//! one instruction per unit and per block and nothing fused: the form the
//! interpreter runs one instruction at a time.
//!
//! [`ProgramCache`] maps code blobs (by `Arc` pointer identity — the world
//! state shares code blobs across snapshots, so the pointer is stable) to
//! their decoded and block-lowered programs, and to an unfused lowering
//! built on first request. The fuzzing harness decodes the contract under
//! test once at build time and shares the cache `Arc`-style across worker
//! harness clones, exactly like the dense edge index.

use crate::gas::static_gas;
use crate::opcode::Opcode;
use crate::threaded::{select_handler, UnitHandler};
use crate::trace::OpcodeSet;
use crate::u256::U256;
use std::sync::{Arc, OnceLock};

/// One pre-decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedInstr {
    /// The opcode.
    pub op: Opcode,
    /// Byte offset of the opcode in the original code (what traces record).
    pub pc: u32,
    /// Pre-materialised immediate for `PUSH*` (zero for everything else; a
    /// push truncated by the end of the code takes the bytes present as a
    /// big-endian number, the immediate [`crate::disassemble`] reports).
    pub imm: U256,
}

/// A code blob lowered into a dense instruction stream with O(1) jump
/// resolution.
///
/// ```
/// use mufuzz_evm::{DecodedProgram, Opcode};
///
/// // PUSH1 0x03, JUMP, INVALID, JUMPDEST, STOP
/// let program = DecodedProgram::decode(&[0x60, 0x03, 0x56, 0x5b, 0x00]);
/// assert_eq!(program.instructions().len(), 4);
/// assert_eq!(program.instructions()[0].op, Opcode::Push(1));
/// // pc 3 is a valid JUMPDEST and resolves to instruction index 2.
/// assert_eq!(program.jump_cursor(3), Some(2));
/// // pc 1 is push data, not a jump destination.
/// assert_eq!(program.jump_cursor(1), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    code_len: usize,
    instrs: Vec<DecodedInstr>,
    /// pc → index into `instrs` (`u32::MAX` for bytes inside push data).
    pc_to_instr: Vec<u32>,
    /// Valid `JUMPDEST` positions, one bit per code byte.
    jumpdests: Vec<u64>,
}

impl DecodedProgram {
    /// Decode a code blob. One linear pass; every later execution reuses the
    /// result.
    pub fn decode(code: &[u8]) -> DecodedProgram {
        let mut instrs = Vec::with_capacity(code.len());
        let mut pc_to_instr = vec![u32::MAX; code.len()];
        let mut jumpdests = vec![0u64; code.len().div_ceil(64)];
        let mut pc = 0usize;
        while pc < code.len() {
            let op = Opcode::from_byte(code[pc]);
            let imm_len = op.immediate_size();
            let imm = if imm_len > 0 {
                let end = (pc + 1 + imm_len).min(code.len());
                U256::from_be_slice(&code[pc + 1..end])
            } else {
                U256::ZERO
            };
            pc_to_instr[pc] = instrs.len() as u32;
            if op == Opcode::JumpDest {
                jumpdests[pc / 64] |= 1 << (pc % 64);
            }
            instrs.push(DecodedInstr {
                op,
                pc: pc as u32,
                imm,
            });
            pc += 1 + imm_len;
        }
        DecodedProgram {
            code_len: code.len(),
            instrs,
            pc_to_instr,
            jumpdests,
        }
    }

    /// Release the instruction capacity [`DecodedProgram::decode`] reserves
    /// for its worst case, one instruction per code byte. Push data makes
    /// the real count smaller, so a program that is kept — a cache entry —
    /// is worth shrinking once; a program decoded for one frame is not.
    pub fn shrink_to_fit(&mut self) {
        self.instrs.shrink_to_fit();
    }

    /// Byte length of the original code (`CODESIZE`).
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// The instruction stream, in code order.
    pub fn instructions(&self) -> &[DecodedInstr] {
        &self.instrs
    }

    /// Resolve a jump destination: the instruction index of `dest` when it
    /// is a valid `JUMPDEST` (an instruction start carrying `0x5b`), `None`
    /// otherwise.
    #[inline]
    pub fn jump_cursor(&self, dest: usize) -> Option<usize> {
        if dest >= self.code_len || (self.jumpdests[dest / 64] >> (dest % 64)) & 1 == 0 {
            return None;
        }
        Some(self.pc_to_instr[dest] as usize)
    }
}

/// True for opcodes that end a basic block.
///
/// Control-flow terminators end a block by definition. The call family,
/// `CREATE` and `CREATE2` also end theirs: they forward a fraction of the
/// *exact* counter into another frame, so the block's accounting must be
/// fully settled before them. `Unknown` faults while gas remains; keeping it
/// block-final keeps the reported `gas_left` exact without a residual.
///
/// Every other opcode — including the dynamically billed memory / `SHA3` /
/// `EXP` ops, the EIP-2929 warm/cold storage and account accesses and the
/// gas-observing `GAS` — stays inside its block: its unit carries a
/// [`BlockUnit::tail`] residual that the dispatch loop un-charges around the
/// arm, so the arm observes, bills and faults against the exact
/// per-instruction gas value even though the whole block was pre-charged.
fn ends_block(op: Opcode) -> bool {
    use Opcode::*;
    op.is_terminator()
        || matches!(
            op,
            Call | CallCode | DelegateCall | StaticCall | Create | Create2 | Unknown(_)
        )
}

/// Ops whose dispatch arm must see the exact per-instruction gas counter
/// mid-block: dynamic billing (memory expansion, `EXP`, `SHA3`, the copy
/// family), EIP-2929 warm/cold surcharges (`SLOAD`/`SSTORE`/`BALANCE`/
/// `EXTCODE*`), gas observation (`GAS`), or faults that report `gas_left`
/// (the memory ops again). Their units carry a non-zero [`BlockUnit::tail`].
fn needs_exact_gas(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Exp | Sha3
            | CallDataCopy
            | MLoad
            | MStore
            | MStore8
            | Gas
            | SLoad
            | SStore
            | Balance
            | CodeCopy
            | ReturnDataCopy
            | ExtCodeSize
            | ExtCodeCopy
            | ExtCodeHash
    )
}

/// Binops eligible for fusion: pure two-operand stack ops whose dispatch arm
/// touches nothing but the stack and the comparison / arithmetic trace.
/// `EXP` is excluded (dynamic gas).
fn fusable_binop(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Add | Sub | Mul | Div | Sdiv | Mod | Smod | Lt | Gt | Slt | Sgt | Eq | And | Or | Xor
    )
}

/// Static execution envelope of one basic block, precomputed at lowering
/// time so the dispatch loop validates it once at block entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockInfo {
    /// Sum of the static gas costs of every instruction in the block.
    pub static_gas: u64,
    /// Stack items the block consumes below the entry height (the dispatch
    /// loop underflows somewhere in the block iff fewer are available).
    pub stack_needed: u32,
    /// Peak stack growth above the entry height (the dispatch loop
    /// overflows somewhere in the block iff `entry + max_growth > 1024`).
    pub max_growth: u32,
    /// Net stack-height change across the block.
    pub stack_delta: i32,
    /// First instruction of the block (index into the decoded stream).
    pub instr_start: u32,
    /// One past the last instruction of the block.
    pub instr_end: u32,
    /// One past the last dispatch unit of the block (the block's units are
    /// `[leader unit .. unit_end)`; the leader unit's own index is recorded
    /// on the unit itself). Lets the direct-threaded driver run a block's
    /// units in a tight inner loop with the per-unit checks hoisted out.
    pub unit_end: u32,
}

impl BlockInfo {
    /// Fold the envelope over `instrs` (the block's slice of the decoded
    /// stream starting at index `start`). This instruction-by-instruction
    /// fold is exact: every dispatch arm pops its inputs before pushing its
    /// outputs, so the intra-instruction stack peak equals the
    /// post-instruction height.
    fn fold(instrs: &[DecodedInstr], start: usize) -> BlockInfo {
        let mut static_sum = 0u64;
        let (mut height, mut needed, mut peak) = (0i64, 0i64, 0i64);
        for instr in instrs {
            static_sum += static_gas(instr.op);
            let ins = instr.op.stack_inputs() as i64;
            let outs = instr.op.stack_outputs() as i64;
            needed = needed.max(ins - height);
            height += outs - ins;
            peak = peak.max(height);
        }
        BlockInfo {
            static_gas: static_sum,
            stack_needed: needed.max(0) as u32,
            max_growth: peak as u32,
            stack_delta: height as i32,
            instr_start: start as u32,
            instr_end: (start + instrs.len()) as u32,
            unit_end: 0, // filled once the block's units are fused
        }
    }
}

/// A superinstruction tag: which fused idiom a [`BlockUnit`] stands for.
///
/// The payload is deliberately slim — immediates and constituent opcodes are
/// read back from the unit's slice of the decoded stream — except for
/// pre-resolved jump targets, which are *unit* cursors (`u32::MAX` marks an
/// invalid destination that faults at runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fused {
    /// Not a superinstruction: dispatch the unit's single opcode generically.
    None,
    /// `PUSH dest; JUMP` — unconditional jump with a static destination.
    PushJump {
        /// Unit cursor of the destination block leader.
        target: u32,
    },
    /// `PUSH dest; JUMPI` — conditional jump with a static destination.
    PushJumpI {
        /// Unit cursor of the destination block leader.
        target: u32,
    },
    /// `ISZERO; PUSH dest; JUMPI` — the dominant compiled branch idiom.
    IsZeroPushJumpI {
        /// Unit cursor of the destination block leader.
        target: u32,
    },
    /// `PUSH a; PUSH b` — two adjacent immediates, one dispatch.
    PushPush,
    /// `PUSH offset; MLOAD` — memory read at a static offset.
    PushMLoad,
    /// `PUSH offset; MSTORE` — memory write at a static offset.
    PushMStore,
    /// `PUSH offset; CALLDATALOAD` — calldata word at a static offset.
    PushCallDataLoad,
    /// `PUSH len; PUSH offset; SHA3` — static-span keccak (the compiler's
    /// mapping-slot idiom).
    PushPushSha3,
    /// `PUSH b; PUSH offset; MLOAD; binop` — "constant ⊕ local", the
    /// compiler's dominant expression step for memory-resident locals.
    PushPushMLoadBinop,
    /// `binop; PUSH offset; MSTORE` — compute and store a statement result
    /// to a static local slot.
    BinopPushMStore,
    /// `PUSH a; binop` — fold a constant into the running operand.
    PushBinop,
    /// `PUSH slot; SLOAD` — storage read at a static slot (the compiler's
    /// scalar-storage-variable read idiom).
    PushSLoad,
    /// `PUSH slot; SSTORE` — storage write at a static slot.
    PushSStore,
    /// `PUSH c; PUSH slot; SLOAD; binop; PUSH slot; SSTORE` — a whole
    /// `storage_var = storage_var ⊕ c` read-modify-write statement: load the
    /// slot, fold the constant, store back, with no stack traffic at all.
    StorageExprStore,
    /// `PUSH o1; MSTORE; PUSH slot; PUSH o2; MSTORE; PUSH len; PUSH off;
    /// SHA3; SLOAD` — a whole mapping read: stage the key (already on the
    /// stack) and the mapping's slot constant in memory, hash the window and
    /// load the derived slot. Contains several dynamic bills, so the arm
    /// replays per-constituent gas exactly from the unit's `head`.
    MapSlotSLoad,
    /// The [`Fused::MapSlotSLoad`] addressing tail followed by `SSTORE`
    /// instead — a whole mapping write.
    MapSlotSStore,
}

/// One dispatch unit of a [`BlockProgram`]: either a single instruction
/// (`fused == Fused::None`) or a superinstruction covering several.
#[derive(Clone, Copy, Debug)]
pub struct BlockUnit {
    /// Opcode of the unit's *last* constituent (the dispatch opcode for
    /// plain units; fused units dispatch on `fused` instead).
    pub op: Opcode,
    /// Byte offset of the unit's *first* constituent.
    pub pc: u32,
    /// `PUSH` immediate of the first constituent (zero otherwise).
    pub imm: U256,
    /// Block index when this unit starts a basic block, `u32::MAX` otherwise.
    pub leader: u32,
    /// First constituent instruction (index into the decoded stream).
    pub instr_start: u32,
    /// Number of constituent instructions.
    pub instr_count: u32,
    /// Static gas of the block's instructions *after* this unit's last
    /// gas-exact constituent — already pre-charged at block entry. Non-zero
    /// only for units containing an op whose arm needs the exact
    /// per-instruction counter (see `needs_exact_gas`): the dispatch loop
    /// un-charges this residual before that op bills and re-charges it
    /// after the arm, deopting if a dynamic bill ate into it.
    pub tail: u64,
    /// Static gas of the block's instructions from this unit (inclusive) to
    /// the block's end — already pre-charged at block entry. Arms with
    /// several dynamic bills (`StorageExprStore` and the `MapSlot*` pair)
    /// re-charge it up front and replay per-constituent billing exactly.
    pub head: u64,
    /// Superinstruction tag.
    pub fused: Fused,
    /// Opcode-presence mask of every constituent, precomputed so fused
    /// dispatch arms bulk-OR the trace bitset once per unit (see
    /// [`crate::trace::ExecutionTrace::record_unit`]).
    pub mask: OpcodeSet,
    /// Pre-resolved dispatch handler for the direct-threaded tier, selected
    /// once at lowering time from `(fused, op)` so the hot loop is an
    /// indirect call instead of a two-level `match`.
    pub(crate) handler: UnitHandler,
}

/// A [`DecodedProgram`] lowered to basic blocks with fused idioms.
///
/// ```
/// use mufuzz_evm::{BlockProgram, DecodedProgram, Fused};
/// use std::sync::Arc;
///
/// // PUSH1 0x04, JUMP, INVALID, JUMPDEST, STOP
/// let base = Arc::new(DecodedProgram::decode(&[0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00]));
/// let program = BlockProgram::lower(base);
/// // Three blocks: [PUSH JUMP], [INVALID], [JUMPDEST STOP].
/// assert_eq!(program.blocks().len(), 3);
/// // The PUSH+JUMP pair fuses with its target pre-resolved to a unit cursor.
/// assert!(matches!(program.units()[0].fused, Fused::PushJump { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct BlockProgram {
    base: Arc<DecodedProgram>,
    blocks: Vec<BlockInfo>,
    units: Vec<BlockUnit>,
    /// Instruction index → unit index (every instruction belongs to exactly
    /// one unit).
    instr_to_unit: Vec<u32>,
    /// One instruction per unit and per block, nothing fused.
    unfused: bool,
}

impl BlockProgram {
    /// Lower a decoded program: split at block leaders (entry, `JUMPDEST`s,
    /// fall-throughs of block-ending instructions), fold the per-block
    /// static-gas/stack envelope, and fuse idioms into superinstructions.
    pub fn lower(base: Arc<DecodedProgram>) -> BlockProgram {
        BlockProgram::lower_with(base, true)
    }

    /// The unfused lowering: every instruction is its own unit and its own
    /// block, so each unit's `head` is its instruction's static gas and its
    /// `tail` is zero. The interpreter runs this form one instruction at a
    /// time — with block lowering off, for code the cache does not hold,
    /// and for the rest of a frame whose block could not be settled.
    ///
    /// ```
    /// use mufuzz_evm::{BlockProgram, DecodedProgram, Fused};
    /// use std::sync::Arc;
    ///
    /// // PUSH1 0x04, JUMP, INVALID, JUMPDEST, STOP
    /// let base = Arc::new(DecodedProgram::decode(&[0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00]));
    /// let program = BlockProgram::unfused(base);
    /// assert!(program.is_unfused());
    /// assert_eq!(program.units().len(), 5);
    /// assert_eq!(program.blocks().len(), 5);
    /// assert!(program.units().iter().all(|u| u.fused == Fused::None && u.tail == 0));
    /// // Unit cursors are instruction indices.
    /// assert_eq!(program.jump_unit(4), Some(3));
    /// ```
    pub fn unfused(base: Arc<DecodedProgram>) -> BlockProgram {
        BlockProgram::lower_with(base, false)
    }

    /// True for [`BlockProgram::unfused`]'s form.
    pub fn is_unfused(&self) -> bool {
        self.unfused
    }

    fn lower_with(base: Arc<DecodedProgram>, fuse: bool) -> BlockProgram {
        let instrs = base.instructions();
        let n = instrs.len();

        // 1. Mark leaders. Jump targets are always `JUMPDEST`s, so every
        //    reachable control transfer lands on a leader by construction.
        //    Unfused, every instruction leads its own block.
        let mut leader = vec![!fuse; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, instr) in instrs.iter().enumerate() {
            if instr.op == Opcode::JumpDest {
                leader[i] = true;
            }
            if ends_block(instr.op) && i + 1 < n {
                leader[i + 1] = true;
            }
        }

        // 2. Fold the envelope of each [leader, next leader) range.
        let starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        let mut blocks = Vec::with_capacity(starts.len());
        for (bi, &start) in starts.iter().enumerate() {
            let end = starts.get(bi + 1).copied().unwrap_or(n);
            blocks.push(BlockInfo::fold(&instrs[start..end], start));
        }

        // 3. Fuse within each block. Patterns never straddle a block
        //    boundary, so a jump can never land mid-superinstruction.
        let mut units = Vec::with_capacity(n);
        let mut instr_to_unit = vec![u32::MAX; n];
        let mut unit_ends = Vec::with_capacity(blocks.len());
        for (bi, block) in blocks.iter().enumerate() {
            let (start, end) = (block.instr_start as usize, block.instr_end as usize);
            let mut i = start;
            // Static gas of the block's instructions at and after `i`; after
            // subtracting a unit's constituents it is that unit's tail.
            let mut remaining = block.static_gas;
            while i < end {
                let (count, fused) = if fuse {
                    Self::match_fusion(&instrs[i..end], &base)
                } else {
                    (1, Fused::None)
                };
                let unit_idx = units.len() as u32;
                for slot in &mut instr_to_unit[i..i + count] {
                    *slot = unit_idx;
                }
                // The tail residual is anchored at the unit's *last*
                // gas-exact constituent: pure constituents after it
                // contribute their statics back. A pattern may contain an
                // *earlier* gas-exact constituent only if its arm replays
                // per-constituent billing exactly from the unit's `head`
                // (`StorageExprStore` and the `MapSlot*` pair).
                let head = remaining;
                let mut tail_extra = 0u64;
                let mut has_exact = false;
                let mut mask = OpcodeSet::default();
                for instr in &instrs[i..i + count] {
                    remaining -= static_gas(instr.op);
                    mask.insert(instr.op);
                    if needs_exact_gas(instr.op) {
                        has_exact = true;
                        tail_extra = 0;
                    } else if has_exact {
                        tail_extra += static_gas(instr.op);
                    }
                }
                let op = instrs[i + count - 1].op;
                units.push(BlockUnit {
                    op,
                    pc: instrs[i].pc,
                    imm: instrs[i].imm,
                    leader: if i == start { bi as u32 } else { u32::MAX },
                    instr_start: i as u32,
                    instr_count: count as u32,
                    tail: if has_exact { remaining + tail_extra } else { 0 },
                    head,
                    fused,
                    mask,
                    handler: select_handler(fused, &instrs[i..i + count]),
                });
                i += count;
            }
            unit_ends.push(units.len() as u32);
        }
        for (block, unit_end) in blocks.iter_mut().zip(unit_ends) {
            block.unit_end = unit_end;
        }

        // 4. Remap fused jump targets from instruction cursors to unit
        //    cursors (destinations are `JUMPDEST` leaders, so they always
        //    start a unit).
        for unit in &mut units {
            match &mut unit.fused {
                Fused::PushJump { target }
                | Fused::PushJumpI { target }
                | Fused::IsZeroPushJumpI { target }
                    if *target != u32::MAX =>
                {
                    *target = instr_to_unit[*target as usize];
                }
                _ => {}
            }
        }

        BlockProgram {
            base,
            blocks,
            units,
            instr_to_unit,
            unfused: !fuse,
        }
    }

    /// Match the longest fused idiom at the head of `window` (one block's
    /// remaining instructions). Returns the constituent count and the tag;
    /// jump targets are *instruction* cursors here, remapped to unit cursors
    /// by the caller once all units exist.
    fn match_fusion(window: &[DecodedInstr], base: &DecodedProgram) -> (usize, Fused) {
        use Opcode::*;
        let resolve = |imm: U256| -> u32 {
            imm.to_usize()
                .and_then(|dest| base.jump_cursor(dest))
                .map(|i| i as u32)
                .unwrap_or(u32::MAX)
        };
        match window {
            [a, b, c, ..] if a.op == IsZero && matches!(b.op, Push(_)) && c.op == JumpI => (
                3,
                Fused::IsZeroPushJumpI {
                    target: resolve(b.imm),
                },
            ),
            [a, b, c, d, e, f, g, h, i, ..]
                if matches!(a.op, Push(_))
                    && b.op == MStore
                    && matches!(c.op, Push(_))
                    && matches!(d.op, Push(_))
                    && e.op == MStore
                    && matches!(f.op, Push(_))
                    && matches!(g.op, Push(_))
                    && h.op == Sha3
                    && matches!(i.op, SLoad | SStore) =>
            {
                (
                    9,
                    if i.op == SLoad {
                        Fused::MapSlotSLoad
                    } else {
                        Fused::MapSlotSStore
                    },
                )
            }
            [a, b, c, d, e, f, ..]
                if matches!(a.op, Push(_))
                    && matches!(b.op, Push(_))
                    && c.op == SLoad
                    && fusable_binop(d.op)
                    && matches!(e.op, Push(_))
                    && f.op == SStore =>
            {
                (6, Fused::StorageExprStore)
            }
            [a, b, c, d, ..]
                if matches!(a.op, Push(_))
                    && matches!(b.op, Push(_))
                    && c.op == MLoad
                    && fusable_binop(d.op) =>
            {
                (4, Fused::PushPushMLoadBinop)
            }
            [a, b, c, ..] if matches!(a.op, Push(_)) && matches!(b.op, Push(_)) && c.op == Sha3 => {
                (3, Fused::PushPushSha3)
            }
            [a, b, c, ..] if fusable_binop(a.op) && matches!(b.op, Push(_)) && c.op == MStore => {
                (3, Fused::BinopPushMStore)
            }
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == Jump => (
                2,
                Fused::PushJump {
                    target: resolve(a.imm),
                },
            ),
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == JumpI => (
                2,
                Fused::PushJumpI {
                    target: resolve(a.imm),
                },
            ),
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == MLoad => (2, Fused::PushMLoad),
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == MStore => (2, Fused::PushMStore),
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == SLoad => (2, Fused::PushSLoad),
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == SStore => (2, Fused::PushSStore),
            [a, b, ..] if matches!(a.op, Push(_)) && b.op == CallDataLoad => {
                (2, Fused::PushCallDataLoad)
            }
            [a, b, ..] if matches!(a.op, Push(_)) && fusable_binop(b.op) => (2, Fused::PushBinop),
            // Catch-all immediate pair — unless the *second* push feeds one
            // of the patterns above, which pair tighter (pre-resolved jump
            // target, no offset round trip through the stack).
            [a, b, rest @ ..]
                if matches!(a.op, Push(_))
                    && matches!(b.op, Push(_))
                    && !matches!(
                        rest.first().map(|i| i.op),
                        Some(Jump | JumpI | MLoad | MStore | CallDataLoad | SLoad | SStore)
                    ) =>
            {
                (2, Fused::PushPush)
            }
            _ => (1, Fused::None),
        }
    }

    /// The decoded program this lowering was built from.
    pub fn base(&self) -> &Arc<DecodedProgram> {
        &self.base
    }

    /// The basic blocks, in instruction order.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The dispatch units, in instruction order.
    pub fn units(&self) -> &[BlockUnit] {
        &self.units
    }

    /// Resolve a jump destination to a *unit* cursor (the block-program
    /// analogue of [`DecodedProgram::jump_cursor`]).
    #[inline]
    pub fn jump_unit(&self, dest: usize) -> Option<usize> {
        self.base
            .jump_cursor(dest)
            .map(|i| self.instr_to_unit[i] as usize)
    }
}

/// Decoded and block-lowered programs keyed by code-blob identity.
///
/// Lookup is by `Arc` pointer equality: the world state hands out clones of
/// the same `Arc<Vec<u8>>` for an account's code across snapshots, so the
/// pointer is a stable identity for "the same deployed code". The cache is
/// built once by the harness and then only read (it is shared across worker
/// threads behind an `Arc`); the one exception is each entry's unfused
/// lowering, set once on the first frame that runs with block lowering off.
/// Campaigns with block lowering on (the default) never build it: a frame
/// whose block cannot be settled lowers its own unfused copy, and on the
/// benchmark workloads no frame does.
///
/// Pointer identity alone is a footgun: an entry pins its blob alive, but a
/// cache that outlives its blob's other owners — or an entry constructed
/// against a blob that was dropped and reallocated at the same address —
/// would silently serve a stale program for different bytes. Every lookup
/// therefore also checks a `BlobFingerprint` captured at insert time; a
/// mismatch is treated as a miss, and the caller falls back to decoding on
/// the fly.
#[derive(Clone, Debug, Default)]
pub struct ProgramCache {
    entries: Vec<CacheEntry>,
}

/// Identity fingerprint of a code blob, captured when it is inserted into
/// the cache and re-checked on every lookup. Length plus the packed first
/// and last eight bytes is enough to reject any aliased reallocation the
/// fuzzer could plausibly produce at a cost of a few loads per lookup; debug
/// builds additionally verify a full FNV-1a content hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlobFingerprint {
    len: usize,
    head: u64,
    tail: u64,
    #[cfg(debug_assertions)]
    content: u64,
}

impl BlobFingerprint {
    fn of(code: &[u8]) -> BlobFingerprint {
        let pack = |bytes: &[u8]| bytes.iter().fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        BlobFingerprint {
            len: code.len(),
            head: pack(&code[..code.len().min(8)]),
            tail: pack(&code[code.len().saturating_sub(8)..]),
            #[cfg(debug_assertions)]
            content: fnv1a(code),
        }
    }
}

/// 64-bit FNV-1a over a byte slice (debug-build content check).
#[cfg(debug_assertions)]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One cached code blob with its decoded program and its lowerings.
#[derive(Clone, Debug)]
struct CacheEntry {
    code: Arc<Vec<u8>>,
    fingerprint: BlobFingerprint,
    decoded: Arc<DecodedProgram>,
    lowered: Arc<BlockProgram>,
    /// The unfused lowering, built on the first request.
    unfused: OnceLock<BlockProgram>,
}

impl CacheEntry {
    /// Pointer identity plus the insert-time fingerprint. A pointer match
    /// with a fingerprint mismatch means the blob behind the address is not
    /// the one that was decoded — report a miss rather than a stale program.
    #[inline]
    fn matches(&self, code: &Arc<Vec<u8>>) -> bool {
        Arc::ptr_eq(&self.code, code) && self.fingerprint == BlobFingerprint::of(code)
    }
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Register the decoded program of a code blob. The block lowering is
    /// derived here, once; the unfused lowering waits for its first use.
    pub fn insert(&mut self, code: Arc<Vec<u8>>, program: Arc<DecodedProgram>) {
        let lowered = Arc::new(BlockProgram::lower(Arc::clone(&program)));
        let fingerprint = BlobFingerprint::of(&code);
        self.entries.push(CacheEntry {
            code,
            fingerprint,
            decoded: program,
            lowered,
            unfused: OnceLock::new(),
        });
    }

    /// The cache's own handle on a blob it holds (the same allocation as
    /// `code`), for running the blob without changing its reference count.
    #[inline]
    pub fn code(&self, code: &Arc<Vec<u8>>) -> Option<&Arc<Vec<u8>>> {
        self.entries
            .iter()
            .find(|e| e.matches(code))
            .map(|e| &e.code)
    }

    /// Look up the decoded program of a code blob by pointer identity. The
    /// handful of entries (one per deployed contract under test) makes a
    /// linear scan faster than hashing.
    #[inline]
    pub fn get(&self, code: &Arc<Vec<u8>>) -> Option<&Arc<DecodedProgram>> {
        self.entries
            .iter()
            .find(|e| e.matches(code))
            .map(|e| &e.decoded)
    }

    /// Look up the block-lowered program of a code blob by pointer identity.
    #[inline]
    pub fn get_block(&self, code: &Arc<Vec<u8>>) -> Option<&Arc<BlockProgram>> {
        self.entries
            .iter()
            .find(|e| e.matches(code))
            .map(|e| &e.lowered)
    }

    /// Look up the unfused lowering of a code blob, lowering it on the
    /// first request.
    pub(crate) fn get_unfused(&self, code: &Arc<Vec<u8>>) -> Option<&BlockProgram> {
        let entry = self.entries.iter().find(|e| e.matches(code))?;
        Some(
            entry
                .unfused
                .get_or_init(|| BlockProgram::unfused(Arc::clone(&entry.decoded))),
        )
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no program is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::disassemble;

    /// Check `decode` against the disassembler instruction by instruction —
    /// opcode, pc and immediate — and check that `jump_cursor` accepts
    /// exactly the `JUMPDEST`s the disassembler finds.
    fn assert_decodes_like_disassembler(code: &[u8]) {
        let program = DecodedProgram::decode(code);
        let reference = disassemble(code);
        assert_eq!(program.code_len(), code.len());
        assert_eq!(program.instructions().len(), reference.len(), "{code:02x?}");
        for (decoded, instr) in program.instructions().iter().zip(&reference) {
            assert_eq!(decoded.op, instr.opcode, "{code:02x?}");
            assert_eq!(decoded.pc as usize, instr.pc, "{code:02x?}");
            assert_eq!(
                decoded.imm,
                U256::from_be_slice(&instr.immediate),
                "{code:02x?}"
            );
        }
        for pc in 0..=code.len() + 1 {
            let expected = reference
                .iter()
                .position(|instr| instr.pc == pc && instr.opcode == Opcode::JumpDest);
            assert_eq!(program.jump_cursor(pc), expected, "{code:02x?} at {pc}");
        }
    }

    #[test]
    fn decode_matches_disassembler() {
        // PUSH1 2, PUSH2 0x0304, ADD, JUMPDEST, PUSH32 (truncated), implicit end
        let mut code = vec![0x60, 0x02, 0x61, 0x03, 0x04, 0x01, 0x5b];
        code.push(0x7f);
        code.extend_from_slice(&[0xaa, 0xbb]);
        assert_decodes_like_disassembler(&code);
        // 0x5b inside push data is data; the one after the immediate is a
        // JUMPDEST.
        assert_decodes_like_disassembler(&[0x61, 0x5b, 0x5b, 0x5b, 0x00]);
        // A truncated trailing PUSH swallows a 0x5b that would otherwise be
        // a JUMPDEST.
        assert_decodes_like_disassembler(&[0x5b, 0x62, 0x5b]);

        // Seeded random byte strings (xorshift64), biased toward JUMPDEST and
        // PUSH bytes so push data hides 0x5b bytes and strings often end in
        // a truncated PUSH.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let len = (next() % 160) as usize;
            let code: Vec<u8> = (0..len)
                .map(|_| {
                    let r = next();
                    match r % 4 {
                        0 => 0x5b,
                        1 => 0x60 + (r >> 8) as u8 % 32,
                        _ => (r >> 16) as u8,
                    }
                })
                .collect();
            assert_decodes_like_disassembler(&code);
        }
    }

    #[test]
    fn jumpdest_inside_push_data_is_invalid() {
        // PUSH1 0x5b: the 0x5b byte at pc 1 is data, not a JUMPDEST.
        let program = DecodedProgram::decode(&[0x60, 0x5b, 0x5b, 0x00]);
        assert_eq!(program.jump_cursor(1), None);
        assert_eq!(program.jump_cursor(2), Some(1));
        assert_eq!(program.jump_cursor(3), None); // STOP, not JUMPDEST
        assert_eq!(program.jump_cursor(400), None); // out of range
    }

    #[test]
    fn empty_code_decodes_to_empty_program() {
        let program = DecodedProgram::decode(&[]);
        assert!(program.instructions().is_empty());
        assert_eq!(program.code_len(), 0);
        assert_eq!(program.jump_cursor(0), None);
    }

    #[test]
    fn cache_hits_by_pointer_identity_only() {
        let code_a = Arc::new(vec![0x60, 0x01, 0x00]);
        let code_b = Arc::new(vec![0x60, 0x01, 0x00]); // equal bytes, new blob
        let mut cache = ProgramCache::new();
        assert!(cache.is_empty());
        cache.insert(
            Arc::clone(&code_a),
            Arc::new(DecodedProgram::decode(&code_a)),
        );
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&code_a).is_some());
        assert!(cache.get(&Arc::clone(&code_a)).is_some());
        assert!(cache.get(&code_b).is_none());
    }

    #[test]
    fn poisoned_entry_is_a_miss_not_a_stale_hit() {
        // Simulate the aliasing hazard directly: an entry whose pointer
        // matches the probe but whose insert-time fingerprint belongs to
        // different bytes (a blob that was dropped and reallocated at the
        // same address). The lookup must treat it as a miss.
        let original = vec![0x60, 0x01, 0x00];
        let reallocated = Arc::new(vec![0x60, 0x02, 0x00]);
        let cache = ProgramCache {
            entries: vec![CacheEntry {
                code: Arc::clone(&reallocated),
                fingerprint: BlobFingerprint::of(&original),
                decoded: Arc::new(DecodedProgram::decode(&original)),
                lowered: Arc::new(BlockProgram::lower(Arc::new(DecodedProgram::decode(
                    &original,
                )))),
                unfused: OnceLock::new(),
            }],
        };
        assert!(cache.get(&reallocated).is_none());
        assert!(cache.get_block(&reallocated).is_none());
        assert!(cache.get_unfused(&reallocated).is_none());
    }

    #[test]
    fn dropped_and_recreated_blobs_never_serve_stale_programs() {
        // Churn blobs through drop/recreate cycles the way a long campaign
        // redeploys contracts: the allocator is free to reuse addresses, and
        // no probe may ever come back with a program decoded from different
        // bytes.
        for round in 0..64u8 {
            let code = Arc::new(vec![0x60, round, 0x00]);
            let mut cache = ProgramCache::new();
            cache.insert(Arc::clone(&code), Arc::new(DecodedProgram::decode(&code)));
            let hit = cache.get(&code).expect("own blob must hit");
            assert_eq!(hit.instructions()[0].imm, U256::from_u64(u64::from(round)));
            drop(code);
            // The entry's own Arc keeps the blob pinned, so a fresh
            // allocation with different bytes can never alias a live entry.
            let probe = Arc::new(vec![0x60, round.wrapping_add(1), 0x00]);
            assert!(cache.get(&probe).is_none());
            assert!(cache.get_block(&probe).is_none());
        }
    }
}
