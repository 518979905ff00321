//! World state: accounts, balances, code and persistent storage.
//!
//! Smart contracts are stateful programs; the fuzzer replays transaction
//! sequences against the deployed world millions of times, so two kinds of
//! rollback have to be cheap: restoring the deployed world before every
//! sequence execution, and undoing a failed transaction inside one.
//!
//! **Per-execution restore: a frozen base plus an overlay.** The state is
//! copy-on-write: a frozen **base** map of accounts (shared behind an `Arc`
//! by every snapshot) plus a small **overlay** of accounts created or
//! modified since. Reads consult the overlay first; the first write to an
//! account copies it from the base into the overlay. The harness
//! [freezes](WorldState::freeze) the post-constructor world once, so every
//! sequence execution starts from an O(1) [`WorldState::snapshot`] of it:
//! one `Arc` clone and an empty overlay. The fuzzer freezes the world after
//! each transaction of a seed the same way, so an execution that shares the
//! seed's leading transactions starts from an O(1) snapshot of the world
//! they left.
//!
//! **Per-transaction revert: an undo journal.** [`WorldState::checkpoint`]
//! opens an undo point. While one is open, every write through the
//! journaled setters ([`set_storage`](WorldState::set_storage),
//! [`transfer`](WorldState::transfer), [`set_balance`](WorldState::set_balance),
//! [`mark_destroyed`](WorldState::mark_destroyed),
//! [`set_code`](WorldState::set_code), [`set_nonce`](WorldState::set_nonce))
//! logs the value it overwrote, and an account's arrival in the overlay is
//! logged too. [`WorldState::revert_to`] replays the log backwards;
//! [`WorldState::commit`] keeps the changes. A transaction's revert point
//! therefore costs one log entry per field it writes, where a snapshot
//! would copy every account changed so far in the sequence. Checkpoints
//! nest and close in LIFO order. Field writes made through
//! [`WorldState::account_mut`] are not logged, so code that runs under a
//! checkpoint uses the setters; the set-up calls
//! ([`put_account`](WorldState::put_account),
//! [`freeze`](WorldState::freeze)) refuse to run under one.
//!
//! Storage is one map per account from slot to `(value, taint)`, so an
//! `SLOAD` is one lookup and an `SSTORE` gets the overwritten entry back from
//! its insert. Every map here hashes with the crate's multiply-rotate Fx
//! hasher instead of SipHash.

use crate::fxhash::FxHashMap;
use crate::trace::Taint;
use crate::types::Address;
use crate::u256::U256;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

/// Host-implemented behaviour for accounts that are not plain bytecode
/// contracts. Used to model the attacker harness required by the reentrancy
/// oracle without having to compile an attacker contract for every target.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum HostBehaviour {
    /// A plain externally-owned account (or bytecode contract if code is set).
    #[default]
    None,
    /// When this account receives a call carrying value, it re-enters the
    /// caller with the given calldata, up to `max_depth` nested times.
    ReentrantAttacker {
        /// Calldata to send back to the calling contract on re-entry.
        callback_data: Vec<u8>,
        /// Maximum re-entrancy depth.
        max_depth: usize,
    },
    /// An account that rejects every incoming transfer (its fallback reverts).
    /// Useful for exercising unhandled-exception paths.
    RejectingSink,
}

/// Persistent storage of one account: slot → `(value, taint)`.
///
/// The taint is the label set of the last value stored (analysis-only
/// metadata; it does not affect execution semantics). A slot is present
/// while its value is non-zero or its taint non-empty.
pub type StorageMap = FxHashMap<U256, (U256, Taint)>;

/// A single account in the world state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Account {
    /// Ether balance in wei.
    pub balance: U256,
    /// Deployed runtime bytecode (empty for externally-owned accounts).
    pub code: Arc<Vec<u8>>,
    /// Persistent storage with each slot's taint label.
    pub storage: StorageMap,
    /// Transaction count / deployment nonce.
    pub nonce: u64,
    /// Host behaviour override (attacker harness, rejecting sink, ...).
    pub behaviour: HostBehaviour,
    /// Whether the account has self-destructed during the current transaction.
    pub destroyed: bool,
}

impl Account {
    /// A plain externally-owned account with the given balance.
    pub fn eoa(balance: U256) -> Self {
        Account {
            balance,
            ..Default::default()
        }
    }

    /// A contract account with the given runtime code and balance.
    pub fn contract(code: Vec<u8>, balance: U256) -> Self {
        Account {
            balance,
            code: Arc::new(code),
            ..Default::default()
        }
    }

    /// True if the account carries executable code or host behaviour.
    pub fn is_callable(&self) -> bool {
        !self.code.is_empty() || self.behaviour != HostBehaviour::None
    }
}

/// One entry of the undo journal: what a journaled write overwrote.
#[derive(Clone, Debug)]
enum Change {
    /// The account entered the overlay: copied from the base or created
    /// empty.
    Entered {
        address: Address,
    },
    /// A storage entry (`None`: the slot was absent).
    Storage {
        address: Address,
        slot: U256,
        prev: Option<(U256, Taint)>,
    },
    Balance {
        address: Address,
        prev: U256,
    },
    Destroyed {
        address: Address,
        prev: bool,
    },
    Code {
        address: Address,
        prev: Arc<Vec<u8>>,
    },
    Nonce {
        address: Address,
        prev: u64,
    },
}

/// An undo point returned by [`WorldState::checkpoint`] and closed by
/// [`WorldState::commit`] or [`WorldState::revert_to`]. Both take it by
/// value, so a checkpoint closes exactly once.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a checkpoint must be committed or reverted"]
pub struct WorldCheckpoint(usize);

/// The full world state: a copy-on-write map from address to account, with
/// an undo journal for transaction-scoped rollback.
///
/// See the [module documentation](self) for the base/overlay split, the
/// journal and their cost model. The external API is a plain address →
/// account map; all bookkeeping is internal.
#[derive(Clone, Debug, Default)]
pub struct WorldState {
    /// Accounts frozen at the last [`WorldState::freeze`], shared by every
    /// snapshot taken since.
    base: Arc<FxHashMap<Address, Account>>,
    /// Accounts created or modified since the freeze; shadows `base`.
    overlay: FxHashMap<Address, Account>,
    /// Undo log of the writes made since the outermost open checkpoint.
    journal: Vec<Change>,
    /// Number of open checkpoints; writes are logged only while it is
    /// non-zero.
    open: usize,
}

impl WorldState {
    /// An empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace an account. A set-up call: panics under an open
    /// checkpoint.
    pub fn put_account(&mut self, address: Address, account: Account) {
        self.assert_no_checkpoint("put_account");
        self.overlay.insert(address, account);
    }

    /// Immutable access to an account.
    pub fn account(&self, address: Address) -> Option<&Account> {
        self.overlay
            .get(&address)
            .or_else(|| self.base.get(&address))
    }

    /// Mutable access, creating an empty account on demand. The first write
    /// to a frozen account copies it into the overlay (copy-on-write).
    ///
    /// Under an open checkpoint the account's arrival in the overlay is
    /// journaled, but field writes through the returned reference are not:
    /// use the journaled setters there.
    pub fn account_mut(&mut self, address: Address) -> &mut Account {
        match self.overlay.entry(address) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let seed = self.base.get(&address).cloned().unwrap_or_default();
                if self.open > 0 {
                    self.journal.push(Change::Entered { address });
                }
                entry.insert(seed)
            }
        }
    }

    /// Balance of an account (zero if absent).
    pub fn balance(&self, address: Address) -> U256 {
        self.account(address)
            .map(|a| a.balance)
            .unwrap_or(U256::ZERO)
    }

    /// Code of an account (empty if absent). Every absent account shares
    /// one empty blob, so `EXTCODESIZE`/`EXTCODECOPY` on an address with no
    /// account allocate nothing.
    pub fn code(&self, address: Address) -> Arc<Vec<u8>> {
        static NO_CODE: LazyLock<Arc<Vec<u8>>> = LazyLock::new(Arc::default);
        Arc::clone(self.account(address).map_or(&*NO_CODE, |a| &a.code))
    }

    /// Storage slot value of an account (zero if absent).
    pub fn storage(&self, address: Address, slot: U256) -> U256 {
        self.storage_entry(address, slot).0
    }

    /// Storage slot value and the taint label recorded with it, in one
    /// lookup (zero and untainted if absent).
    #[inline]
    pub fn storage_entry(&self, address: Address, slot: U256) -> (U256, Taint) {
        self.account(address)
            .and_then(|a| a.storage.get(&slot).copied())
            .unwrap_or((U256::ZERO, Taint::NONE))
    }

    /// Write a storage slot with its taint label and return the value it
    /// overwrote. A zero value with an empty taint removes the slot.
    /// Journaled.
    #[inline]
    pub fn set_storage(&mut self, address: Address, slot: U256, value: U256, taint: Taint) -> U256 {
        let storage = &mut self.account_mut(address).storage;
        let prev = if value.is_zero() && taint.is_empty() {
            storage.remove(&slot)
        } else {
            storage.insert(slot, (value, taint))
        };
        self.record(Change::Storage {
            address,
            slot,
            prev,
        });
        prev.map_or(U256::ZERO, |(old, _)| old)
    }

    /// Set an account's balance. Journaled.
    pub fn set_balance(&mut self, address: Address, balance: U256) {
        let prev = std::mem::replace(&mut self.account_mut(address).balance, balance);
        self.record(Change::Balance { address, prev });
    }

    /// Flag an account as self-destructed. Journaled.
    pub fn mark_destroyed(&mut self, address: Address) {
        let prev = std::mem::replace(&mut self.account_mut(address).destroyed, true);
        self.record(Change::Destroyed { address, prev });
    }

    /// Install an account's code. Journaled.
    pub fn set_code(&mut self, address: Address, code: Arc<Vec<u8>>) {
        let prev = std::mem::replace(&mut self.account_mut(address).code, code);
        self.record(Change::Code { address, prev });
    }

    /// Set an account's nonce. Journaled.
    pub fn set_nonce(&mut self, address: Address, nonce: u64) {
        let prev = std::mem::replace(&mut self.account_mut(address).nonce, nonce);
        self.record(Change::Nonce { address, prev });
    }

    /// Transfer value between two accounts. Returns false (and leaves the
    /// state untouched) if the sender balance is insufficient. Journaled.
    pub fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        let from_balance = self.balance(from);
        if from_balance < value {
            return false;
        }
        self.set_balance(from, from_balance.wrapping_sub(value));
        let to_balance = self.balance(to);
        self.set_balance(to, to_balance.wrapping_add(value));
        true
    }

    /// Open an undo point. Every journaled write from here on can be undone
    /// with [`WorldState::revert_to`] or kept with [`WorldState::commit`].
    /// Checkpoints nest and must be closed in LIFO order.
    pub fn checkpoint(&mut self) -> WorldCheckpoint {
        self.open += 1;
        WorldCheckpoint(self.journal.len())
    }

    /// Keep every change made since `checkpoint`. Closing the outermost
    /// checkpoint drops the journal; closing a nested one leaves its entries
    /// for the enclosing checkpoint to undo.
    pub fn commit(&mut self, checkpoint: WorldCheckpoint) {
        self.close(&checkpoint);
        if self.open == 0 {
            self.journal.clear();
        }
    }

    /// Undo every change made since `checkpoint`, newest first, leaving the
    /// world logically equal to what it was when the checkpoint was taken.
    pub fn revert_to(&mut self, checkpoint: WorldCheckpoint) {
        self.close(&checkpoint);
        while self.journal.len() > checkpoint.0 {
            let change = self.journal.pop().expect("journal length checked");
            self.undo(change);
        }
    }

    fn close(&mut self, checkpoint: &WorldCheckpoint) {
        assert!(
            self.open > 0 && checkpoint.0 <= self.journal.len(),
            "world checkpoint closed twice or out of order"
        );
        self.open -= 1;
    }

    #[inline]
    fn record(&mut self, change: Change) {
        if self.open > 0 {
            self.journal.push(change);
        }
    }

    fn undo(&mut self, change: Change) {
        match change {
            Change::Entered { address } => {
                self.overlay.remove(&address);
            }
            Change::Storage {
                address,
                slot,
                prev,
            } => {
                let storage = &mut self.journaled_account(address).storage;
                match prev {
                    Some(entry) => storage.insert(slot, entry),
                    None => storage.remove(&slot),
                };
            }
            Change::Balance { address, prev } => self.journaled_account(address).balance = prev,
            Change::Destroyed { address, prev } => {
                self.journaled_account(address).destroyed = prev;
            }
            Change::Code { address, prev } => self.journaled_account(address).code = prev,
            Change::Nonce { address, prev } => self.journaled_account(address).nonce = prev,
        }
    }

    /// The overlay copy of an account a journal entry refers to. A
    /// journaled write always lands in the overlay, and the account stays
    /// there until its own `Entered` entry (older than the write) is undone.
    fn journaled_account(&mut self, address: Address) -> &mut Account {
        self.overlay
            .get_mut(&address)
            .expect("a journaled account stays in the overlay until its arrival is undone")
    }

    fn assert_no_checkpoint(&self, call: &str) {
        assert!(
            self.open == 0,
            "WorldState::{call} is a set-up call and cannot run under an open checkpoint"
        );
    }

    /// Iterate over all accounts (overlay entries shadow frozen ones).
    pub fn accounts(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.overlay.iter().chain(
            self.base
                .iter()
                .filter(|(a, _)| !self.overlay.contains_key(a)),
        )
    }

    /// Number of accounts in the world.
    pub fn len(&self) -> usize {
        self.overlay.len()
            + self
                .base
                .keys()
                .filter(|a| !self.overlay.contains_key(a))
                .count()
    }

    /// True if the world is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the whole world: one `Arc` clone of the frozen base plus a
    /// copy of the overlay, i.e. O(accounts changed since the last
    /// [`WorldState::freeze`]). The harness restores the post-constructor
    /// world this way once per sequence execution; transactions inside an
    /// execution roll back through [`WorldState::checkpoint`] instead.
    pub fn snapshot(&self) -> WorldState {
        self.clone()
    }

    /// Compact every account into a new frozen base shared by all future
    /// snapshots, making [`WorldState::snapshot`] on the frozen state O(1).
    /// The harness calls this once on the post-constructor world so each
    /// sequence execution restarts from the constructor snapshot without
    /// copying (or re-executing) anything. A world with an empty overlay
    /// already is its base, so freezing it copies nothing and keeps sharing
    /// that base. A set-up call: panics under an open checkpoint.
    pub fn freeze(&mut self) {
        self.assert_no_checkpoint("freeze");
        // Take the overlay rather than draining it: a drained map keeps its
        // table, and every snapshot would copy that empty table again.
        let overlay = std::mem::take(&mut self.overlay);
        if overlay.is_empty() {
            return;
        }
        let mut merged = (*self.base).clone();
        merged.extend(overlay);
        self.base = Arc::new(merged);
    }
}

/// Logical equality: two worlds are equal when they map the same addresses
/// to equal accounts, regardless of how the accounts are split between the
/// frozen base and the overlay, and of any open checkpoints. Used by the
/// decoder differential suite to assert that both billing disciplines
/// commit identical state.
impl PartialEq for WorldState {
    fn eq(&self, other: &WorldState) -> bool {
        let view = |w: &'_ WorldState| -> BTreeMap<Address, Account> {
            w.accounts().map(|(a, acct)| (*a, acct.clone())).collect()
        };
        view(self) == view(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    #[test]
    fn missing_accounts_read_as_zero() {
        let world = WorldState::new();
        assert_eq!(world.balance(addr(1)), U256::ZERO);
        assert_eq!(world.storage(addr(1), U256::ONE), U256::ZERO);
        assert!(world.code(addr(1)).is_empty());
    }

    #[test]
    fn absent_accounts_share_one_empty_code_blob() {
        let world = WorldState::new();
        assert!(Arc::ptr_eq(&world.code(addr(1)), &world.code(addr(2))));
    }

    #[test]
    fn storage_roundtrip_and_zero_deletion() {
        let mut world = WorldState::new();
        let a = addr(7);
        world.set_storage(a, U256::from_u64(3), U256::from_u64(99), Taint::empty());
        assert_eq!(world.storage(a, U256::from_u64(3)), U256::from_u64(99));
        world.set_storage(a, U256::from_u64(3), U256::ZERO, Taint::empty());
        assert_eq!(world.storage(a, U256::from_u64(3)), U256::ZERO);
        assert!(world.account(a).unwrap().storage.is_empty());
    }

    #[test]
    fn transfer_moves_balance() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(100)));
        assert!(world.transfer(addr(1), addr(2), U256::from_u64(40)));
        assert_eq!(world.balance(addr(1)), U256::from_u64(60));
        assert_eq!(world.balance(addr(2)), U256::from_u64(40));
    }

    #[test]
    fn transfer_fails_on_insufficient_balance() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(10)));
        assert!(!world.transfer(addr(1), addr(2), U256::from_u64(40)));
        assert_eq!(world.balance(addr(1)), U256::from_u64(10));
        assert_eq!(world.balance(addr(2)), U256::ZERO);
    }

    #[test]
    fn zero_value_transfer_always_succeeds() {
        let mut world = WorldState::new();
        assert!(world.transfer(addr(1), addr(2), U256::ZERO));
    }

    #[test]
    fn snapshot_is_independent() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        let snap = world.snapshot();
        world.account_mut(addr(1)).balance = U256::from_u64(500);
        assert_eq!(snap.balance(addr(1)), U256::from_u64(5));
    }

    #[test]
    fn snapshot_of_frozen_world_is_independent() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        world.set_storage(addr(1), U256::ONE, U256::from_u64(7), Taint::empty());
        world.freeze();
        let snap = world.snapshot();
        // The frozen world keeps no overlay table for snapshots to copy.
        assert_eq!(world.overlay.capacity(), 0);
        assert_eq!(snap.overlay.capacity(), 0);
        // Writes after the freeze go to the overlay and leave the shared
        // base (and therefore the snapshot) untouched.
        world.account_mut(addr(1)).balance = U256::from_u64(500);
        world.set_storage(addr(1), U256::ONE, U256::from_u64(8), Taint::empty());
        assert_eq!(snap.balance(addr(1)), U256::from_u64(5));
        assert_eq!(snap.storage(addr(1), U256::ONE), U256::from_u64(7));
        assert_eq!(world.balance(addr(1)), U256::from_u64(500));
    }

    #[test]
    fn freeze_preserves_the_logical_world() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        world.put_account(addr(2), Account::contract(vec![0x00], U256::from_u64(9)));
        world.set_storage(addr(2), U256::ONE, U256::from_u64(42), Taint::BLOCK);
        let before = world.snapshot();
        world.freeze();
        assert_eq!(world, before);
        assert_eq!(world.len(), 2);
        // Frozen accounts stay readable and writable.
        assert_eq!(world.storage(addr(2), U256::ONE), U256::from_u64(42));
        assert!(world.transfer(addr(1), addr(2), U256::from_u64(5)));
        assert_eq!(world.balance(addr(2)), U256::from_u64(14));
    }

    #[test]
    fn freezing_an_unchanged_world_shares_its_base() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        world.freeze();
        let before = world.snapshot();
        // A reverted write leaves the overlay empty, so there is nothing to
        // merge and the frozen base stays shared.
        let cp = world.checkpoint();
        world.set_balance(addr(1), U256::from_u64(6));
        world.revert_to(cp);
        world.freeze();
        assert!(Arc::ptr_eq(&world.base, &before.base));
        assert_eq!(world.overlay.capacity(), 0);
        assert_eq!(world, before);
    }

    #[test]
    fn accounts_iteration_merges_base_and_overlay() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(1)));
        world.put_account(addr(2), Account::eoa(U256::from_u64(2)));
        world.freeze();
        world.put_account(addr(2), Account::eoa(U256::from_u64(20))); // shadowed
        world.put_account(addr(3), Account::eoa(U256::from_u64(3))); // overlay-only
        let merged: BTreeMap<Address, U256> = world
            .accounts()
            .map(|(a, acct)| (*a, acct.balance))
            .collect();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[&addr(1)], U256::from_u64(1));
        assert_eq!(merged[&addr(2)], U256::from_u64(20));
        assert_eq!(merged[&addr(3)], U256::from_u64(3));
        assert_eq!(world.len(), 3);
    }

    #[test]
    fn callable_accounts() {
        let contract = Account::contract(vec![0x00], U256::ZERO);
        assert!(contract.is_callable());
        assert!(!Account::eoa(U256::ZERO).is_callable());
        let attacker = Account {
            behaviour: HostBehaviour::ReentrantAttacker {
                callback_data: vec![],
                max_depth: 2,
            },
            ..Default::default()
        };
        assert!(attacker.is_callable());
    }

    #[test]
    fn storage_taint_tracking() {
        let mut world = WorldState::new();
        let a = addr(9);
        world.set_storage(a, U256::ONE, U256::from_u64(5), Taint::BLOCK);
        assert!(world.storage_entry(a, U256::ONE).1.contains(Taint::BLOCK));
        assert!(world.storage_entry(a, U256::from_u64(2)).1.is_empty());
    }

    #[test]
    fn zero_value_with_taint_keeps_its_slot() {
        let mut world = WorldState::new();
        let a = addr(9);
        let slot = U256::from_u64(4);
        assert_eq!(
            world.set_storage(a, slot, U256::from_u64(5), Taint::BLOCK),
            U256::ZERO
        );
        // A tainted zero is remembered; the value it overwrote comes back.
        assert_eq!(
            world.set_storage(a, slot, U256::ZERO, Taint::CALLER),
            U256::from_u64(5)
        );
        assert_eq!(world.storage_entry(a, slot), (U256::ZERO, Taint::CALLER));
        assert_eq!(world.account(a).unwrap().storage.len(), 1);
        // An untainted zero removes the slot.
        world.set_storage(a, slot, U256::ZERO, Taint::NONE);
        assert!(world.account(a).unwrap().storage.is_empty());
    }

    #[test]
    fn revert_undoes_writes_and_new_accounts() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(100)));
        world.set_storage(addr(1), U256::ONE, U256::from_u64(7), Taint::NONE);
        world.freeze();
        let before = world.snapshot();
        let cp = world.checkpoint();
        world.set_storage(addr(1), U256::ONE, U256::from_u64(8), Taint::BLOCK);
        assert!(world.transfer(addr(1), addr(2), U256::from_u64(40)));
        world.mark_destroyed(addr(1));
        world.set_code(addr(3), Arc::new(vec![0x00]));
        world.set_nonce(addr(3), 1);
        assert_eq!(world.len(), 3);
        world.revert_to(cp);
        assert_eq!(world, before);
        assert_eq!(world.len(), 1);
        assert!(world.account(addr(2)).is_none());
        // Nothing stays in the overlay: the next write copies from the base
        // again.
        assert!(world.overlay.is_empty());
        assert!(world.journal.is_empty());
    }

    #[test]
    #[should_panic(expected = "set-up call")]
    fn set_up_calls_refuse_an_open_checkpoint() {
        let mut world = WorldState::new();
        let _cp = world.checkpoint();
        world.put_account(addr(1), Account::eoa(U256::ONE));
    }

    /// Frozen accounts (one with a tainted zero slot), an overlay-only
    /// account (4) and absent ones (3, 5, 6).
    fn seeded_world() -> WorldState {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(100)));
        world.put_account(addr(2), Account::contract(vec![0x00], U256::from_u64(50)));
        world.set_storage(addr(2), U256::ONE, U256::from_u64(7), Taint::BLOCK);
        world.set_storage(addr(2), U256::from_u64(2), U256::ZERO, Taint::CALLER);
        world.freeze();
        world.put_account(addr(4), Account::eoa(U256::from_u64(20)));
        world
    }

    /// Apply the world op encoded in `word`'s low bits.
    fn apply(world: &mut WorldState, word: u64) {
        let a = addr(1 + word % 6);
        let b = addr(1 + (word >> 3) % 6);
        let n = (word >> 6) % 4;
        let taint = [Taint::NONE, Taint::BLOCK, Taint::CALLER][((word >> 9) % 3) as usize];
        match (word >> 12) % 6 {
            0 => {
                // Values 0..3, so zero values with a non-empty taint occur.
                let value = U256::from_u64((word >> 16) % 3);
                world.set_storage(a, U256::from_u64(n), value, taint);
            }
            1 => {
                world.transfer(a, b, U256::from_u64(n * 7));
            }
            2 => world.mark_destroyed(a),
            3 => world.set_code(a, Arc::new(vec![n as u8])),
            4 => world.set_nonce(a, n),
            _ => {
                world.account_mut(a);
            }
        }
    }

    proptest! {
        /// Random world ops under randomly nested checkpoints, each closed
        /// by a commit or a revert, against a model that never checkpoints:
        /// a revert restores the clone the model saved at the checkpoint,
        /// and a commit leaves the model as it is. So after every step
        /// `revert_to` must equal a clone taken at the checkpoint, and
        /// committed work must equal running the same ops with no
        /// checkpoint open.
        #[test]
        fn journal_matches_clone_and_restore(
            script in proptest::collection::vec(any::<u64>(), 1..64)
        ) {
            let mut world = seeded_world();
            let mut model = seeded_world();
            let mut open: Vec<(WorldCheckpoint, WorldState)> = Vec::new();
            for &word in &script {
                match word >> 61 {
                    0 => open.push((world.checkpoint(), model.clone())),
                    1 => {
                        if let Some((cp, saved)) = open.pop() {
                            if word & 1 == 0 {
                                world.commit(cp);
                            } else {
                                world.revert_to(cp);
                                model = saved;
                            }
                        }
                    }
                    _ => {
                        apply(&mut world, word);
                        apply(&mut model, word);
                    }
                }
                prop_assert_eq!(&world, &model);
            }
            while let Some((cp, _)) = open.pop() {
                world.commit(cp);
            }
            prop_assert_eq!(&world, &model);
            // Closing the outermost checkpoint drops the journal, and
            // writes with none open are never journaled.
            prop_assert!(world.journal.is_empty());
            prop_assert!(model.journal.is_empty());
        }
    }

    #[test]
    fn world_equality_is_logical() {
        let mut frozen = WorldState::new();
        frozen.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        frozen.freeze();
        let mut flat = WorldState::new();
        flat.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        assert_eq!(frozen, flat);
        flat.account_mut(addr(1)).balance = U256::from_u64(6);
        assert_ne!(frozen, flat);
    }
}
