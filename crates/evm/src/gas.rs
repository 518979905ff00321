//! The interpreter's gas schedule and per-transaction access accounting.
//!
//! The *static* per-opcode costs live here so the dispatch loop, the
//! basic-block lowering (which pre-sums them per block, see
//! [`crate::program::BlockProgram`]) and the block-splitting tests all bill
//! from one table. Dynamic costs — memory expansion, the per-byte `EXP`
//! surcharge, call-gas forwarding, the EIP-2929 cold-access surcharges
//! tracked by [`AccessSets`] — are charged by the dispatch loop at the
//! instruction that incurs them and are *not* part of the static schedule.

use crate::fxhash::FxHashSet;
use crate::opcode::Opcode;
use crate::types::Address;
use crate::u256::U256;

/// Gas added per significant byte of an `EXP` exponent (dynamic part of the
/// `EXP` price, charged on top of the static base cost).
pub const EXP_BYTE_GAS: u64 = 50;

/// Gas per 32-byte word copied by `CODECOPY` / `RETURNDATACOPY` /
/// `EXTCODECOPY` (the dynamic part of the copy price, charged on top of the
/// static base cost).
pub const COPY_WORD_GAS: u64 = 3;

/// Gas per 32-byte word hashed when `CREATE2` derives the deterministic
/// address from the init code (the Keccak word price).
pub const SHA3_WORD_GAS: u64 = 6;

/// EIP-2929 surcharge for the first `SLOAD`/`SSTORE` touch of a storage slot
/// in a transaction. Warm `SLOAD` stays at the schedule's 200, so a cold
/// load costs the canonical 2100.
pub const COLD_SLOAD_SURCHARGE: u64 = 1_900;

/// EIP-2929 surcharge for the first touch of an account in a transaction
/// (`BALANCE`, `EXTCODESIZE`/`EXTCODECOPY`/`EXTCODEHASH` and the call
/// family). Warm account reads stay at the schedule's 400, so a cold access
/// costs the canonical 2600.
pub const COLD_ACCOUNT_SURCHARGE: u64 = 2_200;

/// EIP-3529 refund granted when an `SSTORE` clears a non-zero slot to zero.
pub const SSTORE_CLEAR_REFUND: u64 = 4_800;

/// EIP-3529 refund cap: at most `gas_used / MAX_REFUND_QUOTIENT` is
/// refunded at transaction settlement.
pub const MAX_REFUND_QUOTIENT: u64 = 5;

/// The static gas cost of one opcode (the EVM-flavoured schedule every
/// execution path charges; dynamic surcharges come on top).
#[inline]
pub fn static_gas(op: Opcode) -> u64 {
    use Opcode::*;
    match op {
        Stop | JumpDest => 1,
        Push(_) | Dup(_) | Swap(_) | Pop | Pc | MSize | Gas | Address | Origin | Caller
        | CallValue | CallDataSize | CodeSize | GasPrice | Coinbase | Timestamp | Number
        | Difficulty | GasLimit | ChainId | SelfBalance | BaseFee | ReturnDataSize => 2,
        Add | Sub | Not | Lt | Gt | Slt | Sgt | Eq | IsZero | And | Or | Xor | Byte | Shl | Shr
        | Sar | CallDataLoad | MLoad | MStore | MStore8 | CodeCopy | ReturnDataCopy => 3,
        Mul | Div | Sdiv | Mod | Smod | SignExtend => 5,
        AddMod | MulMod | Jump => 8,
        JumpI => 10,
        // Base cost only: the dispatch loop adds 50 gas per significant
        // exponent byte once the operands are popped (EIP-160-style dynamic
        // pricing), so `2 EXP 2^255` costs 50 + 50·32 while `2 EXP 2` costs
        // 50 + 50·1.
        Exp => 50,
        Sha3 => 36,
        // Warm-access base cost; the dispatch loop adds
        // [`COLD_ACCOUNT_SURCHARGE`] on the first touch of the account in a
        // transaction (EIP-2929, tracked by [`AccessSets`]).
        Balance | ExtCodeSize | ExtCodeCopy | ExtCodeHash => 400,
        BlockHash => 400,
        SLoad => 200,
        SStore => 5_000,
        Log(n) => 375 * (n as u64 + 1),
        Call | CallCode | DelegateCall | StaticCall => 700,
        Create | Create2 => 32_000,
        Return | Revert => 0,
        Invalid | SelfDestruct | CallDataCopy | Unknown(_) => 2,
    }
}

/// One undoable entry in the [`AccessSets`] journal.
#[derive(Clone, Debug)]
enum JournalEntry {
    /// An address became warm.
    Address(Address),
    /// A storage slot became warm.
    Slot(Address, U256),
    /// The refund counter grew by this much.
    Refund(u64),
}

/// An undo point into the [`AccessSets`] journal, taken before entering a
/// child frame and replayed backwards if that frame reverts.
#[derive(Clone, Copy, Debug)]
pub struct AccessCheckpoint(usize);

/// Per-transaction warm/cold access tracking (EIP-2929) plus the `SSTORE`
/// refund counter (EIP-3529).
///
/// Accesses recorded after a [`AccessSets::checkpoint`] can be undone with
/// [`AccessSets::revert_to`], so a reverted child frame leaves neither warm
/// entries nor refunds behind — exactly the journaled semantics real clients
/// implement. Pre-warmed addresses ([`AccessSets::prewarm`], used for the
/// transaction's sender and target) are not journaled: they stay warm for
/// the whole transaction.
#[derive(Clone, Debug, Default)]
pub struct AccessSets {
    warm_addresses: FxHashSet<Address>,
    warm_slots: FxHashSet<(Address, U256)>,
    journal: Vec<JournalEntry>,
    refund: u64,
}

impl AccessSets {
    /// Clear everything: called once at the start of each top-level
    /// transaction.
    pub fn reset(&mut self) {
        self.warm_addresses.clear();
        self.warm_slots.clear();
        self.journal.clear();
        self.refund = 0;
    }

    /// Mark an address warm without journaling (transaction-scope warmth:
    /// the sender and the target are warm from the first instruction).
    pub fn prewarm(&mut self, address: Address) {
        self.warm_addresses.insert(address);
    }

    /// Touch an address; returns `true` when this is the first (cold) touch.
    pub fn touch_address(&mut self, address: Address) -> bool {
        let cold = self.warm_addresses.insert(address);
        if cold {
            self.journal.push(JournalEntry::Address(address));
        }
        cold
    }

    /// Touch a storage slot of an address; returns `true` when cold.
    pub fn touch_slot(&mut self, address: Address, slot: U256) -> bool {
        let cold = self.warm_slots.insert((address, slot));
        if cold {
            self.journal.push(JournalEntry::Slot(address, slot));
        }
        cold
    }

    /// The EIP-2929 surcharge for touching an account: the cold surcharge on
    /// the first touch of the transaction, zero afterwards.
    #[inline]
    pub fn address_surcharge(&mut self, address: Address) -> u64 {
        if self.touch_address(address) {
            COLD_ACCOUNT_SURCHARGE
        } else {
            0
        }
    }

    /// The EIP-2929 surcharge for touching a storage slot: the cold
    /// surcharge on the first touch of the transaction, zero afterwards.
    #[inline]
    pub fn slot_surcharge(&mut self, address: Address, slot: U256) -> u64 {
        if self.touch_slot(address, slot) {
            COLD_SLOAD_SURCHARGE
        } else {
            0
        }
    }

    /// Grow the refund counter (journaled, so a reverting frame cannot keep
    /// refunds it earned).
    pub fn add_refund(&mut self, amount: u64) {
        self.refund += amount;
        self.journal.push(JournalEntry::Refund(amount));
    }

    /// The accumulated (uncapped) refund counter.
    pub fn refund(&self) -> u64 {
        self.refund
    }

    /// Take an undo point before entering a child frame.
    pub fn checkpoint(&self) -> AccessCheckpoint {
        AccessCheckpoint(self.journal.len())
    }

    /// Undo every access and refund recorded after `cp` (the child frame
    /// reverted).
    pub fn revert_to(&mut self, cp: AccessCheckpoint) {
        while self.journal.len() > cp.0 {
            match self.journal.pop().expect("journal length checked") {
                JournalEntry::Address(address) => {
                    self.warm_addresses.remove(&address);
                }
                JournalEntry::Slot(address, slot) => {
                    self.warm_slots.remove(&(address, slot));
                }
                JournalEntry::Refund(amount) => {
                    self.refund -= amount;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm_accesses() {
        let mut access = AccessSets::default();
        let a = Address::from_low_u64(1);
        assert_eq!(access.address_surcharge(a), COLD_ACCOUNT_SURCHARGE);
        assert_eq!(access.address_surcharge(a), 0);
        assert_eq!(
            access.slot_surcharge(a, U256::from_u64(7)),
            COLD_SLOAD_SURCHARGE
        );
        assert_eq!(access.slot_surcharge(a, U256::from_u64(7)), 0);
        // Distinct slots are tracked independently.
        assert_eq!(
            access.slot_surcharge(a, U256::from_u64(8)),
            COLD_SLOAD_SURCHARGE
        );
    }

    #[test]
    fn prewarmed_addresses_are_never_cold() {
        let mut access = AccessSets::default();
        let a = Address::from_low_u64(2);
        access.prewarm(a);
        assert_eq!(access.address_surcharge(a), 0);
    }

    #[test]
    fn revert_undoes_warmth_and_refunds() {
        let mut access = AccessSets::default();
        let a = Address::from_low_u64(3);
        let pre = Address::from_low_u64(4);
        access.prewarm(pre);
        assert!(access.touch_address(a));
        let cp = access.checkpoint();
        let b = Address::from_low_u64(5);
        assert!(access.touch_address(b));
        assert!(access.touch_slot(a, U256::from_u64(1)));
        access.add_refund(SSTORE_CLEAR_REFUND);
        assert_eq!(access.refund(), SSTORE_CLEAR_REFUND);
        access.revert_to(cp);
        // Everything after the checkpoint is cold again and the refund is
        // gone; accesses before the checkpoint survive.
        assert_eq!(access.refund(), 0);
        assert!(access.touch_address(b));
        assert!(access.touch_slot(a, U256::from_u64(1)));
        assert!(!access.touch_address(a));
        assert!(!access.touch_address(pre));
    }

    #[test]
    fn reset_clears_all_state() {
        let mut access = AccessSets::default();
        let a = Address::from_low_u64(6);
        access.prewarm(a);
        access.add_refund(10);
        access.reset();
        assert!(access.touch_address(a));
        assert_eq!(access.refund(), 0);
    }

    #[test]
    fn schedule_spot_checks() {
        assert_eq!(static_gas(Opcode::Stop), 1);
        assert_eq!(static_gas(Opcode::Push(32)), 2);
        assert_eq!(static_gas(Opcode::Add), 3);
        assert_eq!(static_gas(Opcode::JumpI), 10);
        assert_eq!(static_gas(Opcode::Exp), 50);
        assert_eq!(static_gas(Opcode::SStore), 5_000);
        assert_eq!(static_gas(Opcode::Log(2)), 1_125);
        assert_eq!(static_gas(Opcode::Return), 0);
        assert_eq!(static_gas(Opcode::ChainId), 2);
        assert_eq!(static_gas(Opcode::BaseFee), 2);
        assert_eq!(static_gas(Opcode::ReturnDataSize), 2);
        assert_eq!(static_gas(Opcode::CodeCopy), 3);
        assert_eq!(static_gas(Opcode::ReturnDataCopy), 3);
        assert_eq!(static_gas(Opcode::ExtCodeSize), 400);
        assert_eq!(static_gas(Opcode::ExtCodeHash), 400);
        assert_eq!(static_gas(Opcode::Create2), 32_000);
        // Cold accesses land on the canonical EIP-2929 totals.
        assert_eq!(static_gas(Opcode::SLoad) + COLD_SLOAD_SURCHARGE, 2_100);
        assert_eq!(static_gas(Opcode::Balance) + COLD_ACCOUNT_SURCHARGE, 2_600);
    }
}
