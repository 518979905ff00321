//! World state: accounts, balances, code and persistent storage.
//!
//! Smart contracts are stateful programs; the fuzzer replays transaction
//! sequences against the deployed world millions of times, so two kinds of
//! rollback have to be cheap: restoring the deployed world before every
//! sequence execution, and undoing a failed transaction inside one.
//!
//! **A frozen base under pending changes.** A world is a frozen **base** map
//! of accounts, shared behind an `Arc` by every snapshot, under the changes
//! made since the last [freeze](WorldState::freeze). Those come in two kinds:
//!
//! * **field overrides**, one table of balances by address and one of
//!   storage entries by `(address, slot)`, where `None` marks a removed
//!   slot. Every balance or storage write lands here, so a transaction that
//!   moves value and writes a slot copies no account, only the values it
//!   writes;
//! * **whole-account copies** in an overlay: accounts created since the
//!   freeze, and accounts whose code, nonce or destroyed flag changed or
//!   that [`put_account`](WorldState::put_account) replaced. Those writes
//!   come from deployment, `CREATE2`, `SELFDESTRUCT` and set-up.
//!
//! Every reader sees the overrides over the copies over the base:
//! [`balance`](WorldState::balance), [`storage_entry`](WorldState::storage_entry),
//! [`account`](WorldState::account) (an owned view only when an override
//! shadows the account), [`accounts`](WorldState::accounts), `==`, and
//! [`freeze`](WorldState::freeze), which folds everything into a new base.
//! Overrides exist only for accounts that exist: a write to an absent
//! address creates an empty account in the overlay first.
//!
//! **Per-execution restore, in place.** The harness freezes the
//! post-constructor world once, and the fuzzer freezes the world after each
//! transaction of a seed it keeps a prefix record of. An execution starts by
//! [resetting](WorldState::reset_to) its world to one of those frozen
//! worlds: the pending tables are cleared, keeping their capacity, and the
//! base `Arc` is cloned only when it is not already the one the world
//! holds. Restoring therefore allocates nothing and, when the base is
//! unchanged, touches no reference count. [`WorldState::snapshot`] copies a
//! world instead: one `Arc` clone plus the pending changes.
//!
//! **Per-transaction revert: an undo journal.** [`WorldState::checkpoint`]
//! opens an undo point. While one is open, every write
//! ([`set_storage`](WorldState::set_storage),
//! [`transfer`](WorldState::transfer), [`set_balance`](WorldState::set_balance),
//! [`mark_destroyed`](WorldState::mark_destroyed),
//! [`set_code`](WorldState::set_code), [`set_nonce`](WorldState::set_nonce))
//! logs what it overwrote: the override it replaced (or that there was
//! none), a copied account's previous field value, and an account's arrival
//! in the overlay. [`WorldState::revert_to`] replays the log backwards;
//! [`WorldState::commit`] keeps the changes. A transaction that moves value
//! and writes one slot costs three override inserts and three log entries,
//! and its revert three removals. Checkpoints nest and close in LIFO order.
//! The set-up calls ([`put_account`](WorldState::put_account),
//! [`freeze`](WorldState::freeze), [`reset_to`](WorldState::reset_to))
//! refuse to run under one.
//!
//! Storage is one map per account from slot to `(value, taint)`, so an
//! `SLOAD` of a slot no transaction wrote is one lookup in the overrides and
//! one in the account's map. Every map here hashes with the crate's
//! multiply-rotate Fx hasher instead of SipHash.

use crate::fxhash::FxHashMap;
use crate::trace::Taint;
use crate::types::Address;
use crate::u256::U256;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::hash::Hash;
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
    /// caller with the calldata of the executing
    /// [`ExecFrame`](crate::ExecFrame)'s
    /// [attacker callback](crate::ExecFrame::attacker_callback_mut), up to
    /// `max_depth` nested times.
    ReentrantAttacker {
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

/// One storage entry as the world keeps it: `None` for an absent slot.
type SlotEntry = Option<(U256, Taint)>;

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

    /// Write one storage entry: `None` removes the slot.
    fn put_slot(&mut self, slot: U256, entry: SlotEntry) {
        match entry {
            Some(entry) => self.storage.insert(slot, entry),
            None => self.storage.remove(&slot),
        };
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
    /// A balance override (`None`: there was none).
    Balance {
        address: Address,
        prev: Option<U256>,
    },
    /// A storage override (`None`: there was none).
    Storage {
        key: (Address, U256),
        prev: Option<SlotEntry>,
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

/// The full world state: a frozen base map from address to account under
/// field overrides and whole-account copies, with an undo journal for
/// transaction-scoped rollback.
///
/// See the [module documentation](self) for the layers, the journal and
/// their cost model. The external API is a plain address → account map;
/// all bookkeeping is internal.
#[derive(Debug, Default)]
pub struct WorldState {
    /// Accounts frozen at the last [`WorldState::freeze`], shared by every
    /// snapshot taken since.
    base: Arc<FxHashMap<Address, Account>>,
    /// Whole accounts created or copied since the freeze; shadows `base`.
    overlay: FxHashMap<Address, Account>,
    /// Balance overrides; shadow the overlay and the base.
    balances: FxHashMap<Address, U256>,
    /// Storage overrides; shadow the overlay and the base.
    slots: FxHashMap<(Address, U256), SlotEntry>,
    /// Undo log of the writes made since the outermost open checkpoint.
    journal: Vec<Change>,
    /// Number of open checkpoints; writes are logged only while it is
    /// non-zero.
    open: usize,
}

/// Copy a table, without carrying over the capacity of an empty one: a
/// world keeps its tables' capacity across resets, and a snapshot of a
/// frozen world would otherwise allocate that many empty buckets.
fn copy_table<K: Clone + Eq + Hash, V: Clone>(table: &FxHashMap<K, V>) -> FxHashMap<K, V> {
    if table.is_empty() {
        FxHashMap::default()
    } else {
        table.clone()
    }
}

/// Put back a table entry a journaled write replaced (`None`: remove it).
fn restore<K: Eq + Hash, V>(table: &mut FxHashMap<K, V>, key: K, prev: Option<V>) {
    match prev {
        Some(value) => table.insert(key, value),
        None => table.remove(&key),
    };
}

impl Clone for WorldState {
    fn clone(&self) -> WorldState {
        WorldState {
            base: Arc::clone(&self.base),
            overlay: copy_table(&self.overlay),
            balances: copy_table(&self.balances),
            slots: copy_table(&self.slots),
            journal: self.journal.clone(),
            open: self.open,
        }
    }
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
        self.balances.remove(&address);
        self.slots.retain(|&(owner, _), _| owner != address);
        self.overlay.insert(address, account);
    }

    /// The stored account, before any field override.
    #[inline]
    fn stored(&self, address: Address) -> Option<&Account> {
        self.overlay
            .get(&address)
            .or_else(|| self.base.get(&address))
    }

    /// True if an account exists at `address`.
    pub fn exists(&self, address: Address) -> bool {
        self.stored(address).is_some()
    }

    /// An account as every reader sees it: borrowed when no field override
    /// shadows it, otherwise an owned copy with the overrides applied.
    pub fn account(&self, address: Address) -> Option<Cow<'_, Account>> {
        self.stored(address)
            .map(|account| self.view(address, account))
    }

    /// `account` at `address` with its field overrides applied.
    fn view<'a>(&'a self, address: Address, account: &'a Account) -> Cow<'a, Account> {
        let balance = self.balances.get(&address);
        let mut slots = self
            .slots
            .iter()
            .filter(|((owner, _), _)| *owner == address)
            .peekable();
        if balance.is_none() && slots.peek().is_none() {
            return Cow::Borrowed(account);
        }
        let mut view = account.clone();
        if let Some(&balance) = balance {
            view.balance = balance;
        }
        for (&(_, slot), &entry) in slots {
            view.put_slot(slot, entry);
        }
        Cow::Owned(view)
    }

    /// Balance of an account (zero if absent).
    #[inline]
    pub fn balance(&self, address: Address) -> U256 {
        match self.balances.get(&address) {
            Some(&balance) => balance,
            None => self.stored(address).map_or(U256::ZERO, |a| a.balance),
        }
    }

    /// Code of an account (empty if absent). Every absent account shares
    /// one empty blob, so `EXTCODESIZE`/`EXTCODECOPY` on an address with no
    /// account allocate nothing.
    pub fn code(&self, address: Address) -> &Arc<Vec<u8>> {
        static NO_CODE: LazyLock<Arc<Vec<u8>>> = LazyLock::new(Arc::default);
        self.stored(address).map_or(&*NO_CODE, |a| &a.code)
    }

    /// Nonce of an account (zero if absent).
    pub fn nonce(&self, address: Address) -> u64 {
        self.stored(address).map_or(0, |a| a.nonce)
    }

    /// Host behaviour of an account ([`HostBehaviour::None`] if absent).
    pub fn behaviour(&self, address: Address) -> &HostBehaviour {
        static NONE: HostBehaviour = HostBehaviour::None;
        self.stored(address).map_or(&NONE, |a| &a.behaviour)
    }

    /// Storage slot value of an account (zero if absent).
    pub fn storage(&self, address: Address, slot: U256) -> U256 {
        self.storage_entry(address, slot).0
    }

    /// Storage slot value and the taint label recorded with it (zero and
    /// untainted if absent).
    #[inline]
    pub fn storage_entry(&self, address: Address, slot: U256) -> (U256, Taint) {
        let entry = match self.slots.get(&(address, slot)) {
            Some(&entry) => entry,
            None => self
                .stored(address)
                .and_then(|a| a.storage.get(&slot).copied()),
        };
        entry.unwrap_or((U256::ZERO, Taint::NONE))
    }

    /// Write a storage slot with its taint label and return the value it
    /// overwrote. A zero value with an empty taint removes the slot.
    /// Journaled.
    #[inline]
    pub fn set_storage(&mut self, address: Address, slot: U256, value: U256, taint: Taint) -> U256 {
        let entry = (!value.is_zero() || !taint.is_empty()).then_some((value, taint));
        let key = (address, slot);
        let prev = self.slots.insert(key, entry);
        let overwritten = match prev {
            Some(entry) => entry,
            None => match self.stored(address) {
                Some(account) => account.storage.get(&slot).copied(),
                None => {
                    self.create(address);
                    None
                }
            },
        };
        self.record(Change::Storage { key, prev });
        overwritten.map_or(U256::ZERO, |(old, _)| old)
    }

    /// Set an account's balance. Journaled.
    #[inline]
    pub fn set_balance(&mut self, address: Address, balance: U256) {
        self.update_balance(address, |_| Some(balance));
    }

    /// Replace an account's balance with `update(balance)`, creating the
    /// account if it is absent; when `update` returns `None` nothing is
    /// written and the result is false. Looks the address up once in each
    /// table. Journaled.
    #[inline]
    fn update_balance(
        &mut self,
        address: Address,
        update: impl FnOnce(U256) -> Option<U256>,
    ) -> bool {
        let (prev, absent) = match self.balances.entry(address) {
            Entry::Occupied(mut entry) => {
                let Some(balance) = update(*entry.get()) else {
                    return false;
                };
                (Some(std::mem::replace(entry.get_mut(), balance)), false)
            }
            Entry::Vacant(entry) => {
                let stored = self
                    .overlay
                    .get(&address)
                    .or_else(|| self.base.get(&address));
                let Some(balance) = update(stored.map_or(U256::ZERO, |a| a.balance)) else {
                    return false;
                };
                entry.insert(balance);
                (None, stored.is_none())
            }
        };
        if absent {
            self.create(address);
        }
        self.record(Change::Balance { address, prev });
        true
    }

    /// Flag an account as self-destructed. Journaled.
    pub fn mark_destroyed(&mut self, address: Address) {
        let prev = std::mem::replace(&mut self.copy_mut(address).destroyed, true);
        self.record(Change::Destroyed { address, prev });
    }

    /// Install an account's code. Journaled.
    pub fn set_code(&mut self, address: Address, code: Arc<Vec<u8>>) {
        let prev = std::mem::replace(&mut self.copy_mut(address).code, code);
        self.record(Change::Code { address, prev });
    }

    /// Set an account's nonce. Journaled.
    pub fn set_nonce(&mut self, address: Address, nonce: u64) {
        let prev = std::mem::replace(&mut self.copy_mut(address).nonce, nonce);
        self.record(Change::Nonce { address, prev });
    }

    /// Transfer value between two accounts, creating the recipient if it
    /// does not exist. Returns false (and leaves the state untouched) if
    /// the sender balance is insufficient. Journaled.
    pub fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        self.update_balance(from, |balance| balance.checked_sub(value))
            && self.update_balance(to, |balance| Some(balance.wrapping_add(value)))
    }

    /// Create an empty account at an absent address. Journaled ahead of
    /// the write that needed the account, so that write's undo runs first.
    fn create(&mut self, address: Address) {
        self.overlay.insert(address, Account::default());
        self.record(Change::Entered { address });
    }

    /// The overlay copy of an account, made on first use from the base (or
    /// created empty). Its balance and storage may be shadowed by
    /// overrides; only its other fields are written through it.
    fn copy_mut(&mut self, address: Address) -> &mut Account {
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
            Change::Balance { address, prev } => restore(&mut self.balances, address, prev),
            Change::Storage { key, prev } => restore(&mut self.slots, key, prev),
            Change::Destroyed { address, prev } => self.copied(address).destroyed = prev,
            Change::Code { address, prev } => self.copied(address).code = prev,
            Change::Nonce { address, prev } => self.copied(address).nonce = prev,
        }
    }

    /// The overlay copy of an account a journal entry refers to. A
    /// journaled field write always lands in the overlay, and the account
    /// stays there until its own `Entered` entry (older than the write) is
    /// undone.
    fn copied(&mut self, address: Address) -> &mut Account {
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

    /// Iterate over all accounts as [`WorldState::account`] reads them
    /// (copies shadow frozen accounts, and overrides shadow both).
    pub fn accounts(&self) -> impl Iterator<Item = (Address, Cow<'_, Account>)> {
        self.overlay
            .iter()
            .chain(
                self.base
                    .iter()
                    .filter(|(a, _)| !self.overlay.contains_key(a)),
            )
            .map(|(&address, account)| (address, self.view(address, account)))
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

    /// True if nothing changed since the last freeze: the world is its
    /// base.
    fn is_frozen(&self) -> bool {
        self.overlay.is_empty() && self.balances.is_empty() && self.slots.is_empty()
    }

    /// Snapshot the whole world: one `Arc` clone of the frozen base plus a
    /// copy of the changes pending since the last
    /// [`WorldState::freeze`]. A snapshot of a frozen world allocates
    /// nothing. To restore a frozen world into a world that already exists,
    /// [`WorldState::reset_to`] keeps that world's tables instead.
    pub fn snapshot(&self) -> WorldState {
        self.clone()
    }

    /// Make this world equal to `frozen`, a world with nothing changed
    /// since its last [`WorldState::freeze`], in place: the pending tables
    /// are cleared, keeping their capacity, and `frozen`'s base is cloned
    /// only when it is not already this world's. The harness starts every
    /// sequence execution this way. A set-up call: panics under an open
    /// checkpoint, or when `frozen` has changes pending.
    pub fn reset_to(&mut self, frozen: &WorldState) {
        self.assert_no_checkpoint("reset_to");
        assert!(
            frozen.is_frozen(),
            "WorldState::reset_to needs a frozen world"
        );
        if !Arc::ptr_eq(&self.base, &frozen.base) {
            self.base = Arc::clone(&frozen.base);
        }
        self.overlay.clear();
        self.balances.clear();
        self.slots.clear();
    }

    /// Fold every pending change into a new frozen base shared by all
    /// future snapshots, making [`WorldState::snapshot`] on the frozen
    /// state O(1) and the world a target for [`WorldState::reset_to`]. The
    /// pending tables keep their capacity. A world with nothing pending
    /// already is its base, so freezing it copies nothing and keeps sharing
    /// that base. A set-up call: panics under an open checkpoint.
    pub fn freeze(&mut self) {
        self.assert_no_checkpoint("freeze");
        if self.is_frozen() {
            return;
        }
        fn shadowed(merged: &mut FxHashMap<Address, Account>, address: Address) -> &mut Account {
            merged
                .get_mut(&address)
                .expect("an override shadows an account that exists")
        }
        let mut merged = (*self.base).clone();
        merged.extend(self.overlay.drain());
        for (address, balance) in self.balances.drain() {
            shadowed(&mut merged, address).balance = balance;
        }
        for ((address, slot), entry) in self.slots.drain() {
            shadowed(&mut merged, address).put_slot(slot, entry);
        }
        self.base = Arc::new(merged);
    }
}

/// Logical equality: two worlds are equal when they map the same addresses
/// to equal accounts, regardless of how the accounts are split between the
/// frozen base, the copies and the overrides, and of any open checkpoints.
/// Used by the decoder differential suite to assert that both billing
/// disciplines commit identical state.
impl PartialEq for WorldState {
    fn eq(&self, other: &WorldState) -> bool {
        let view = |w: &'_ WorldState| -> BTreeMap<Address, Account> {
            w.accounts()
                .map(|(address, account)| (address, account.into_owned()))
                .collect()
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
        assert!(!world.exists(addr(1)));
        assert_eq!(world.behaviour(addr(1)), &HostBehaviour::None);
    }

    #[test]
    fn absent_accounts_share_one_empty_code_blob() {
        let world = WorldState::new();
        assert!(Arc::ptr_eq(world.code(addr(1)), world.code(addr(2))));
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
        // The recipient did not exist: the transfer created it.
        assert!(world.exists(addr(2)));
        assert_eq!(world.len(), 2);
    }

    #[test]
    fn transfer_fails_on_insufficient_balance() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(10)));
        assert!(!world.transfer(addr(1), addr(2), U256::from_u64(40)));
        assert_eq!(world.balance(addr(1)), U256::from_u64(10));
        assert_eq!(world.balance(addr(2)), U256::ZERO);
        assert!(!world.exists(addr(2)));
    }

    #[test]
    fn zero_value_transfer_always_succeeds() {
        let mut world = WorldState::new();
        assert!(world.transfer(addr(1), addr(2), U256::ZERO));
        assert!(world.is_empty());
    }

    #[test]
    fn snapshot_is_independent() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        let snap = world.snapshot();
        world.set_balance(addr(1), U256::from_u64(500));
        assert_eq!(snap.balance(addr(1)), U256::from_u64(5));
    }

    #[test]
    fn snapshot_of_frozen_world_is_independent() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        world.set_storage(addr(1), U256::ONE, U256::from_u64(7), Taint::empty());
        world.freeze();
        let snap = world.snapshot();
        // A snapshot of a frozen world copies no table.
        assert_eq!(snap.overlay.capacity(), 0);
        assert_eq!(snap.balances.capacity(), 0);
        assert_eq!(snap.slots.capacity(), 0);
        // Writes after the freeze land in the overrides and leave the
        // shared base (and therefore the snapshot) untouched.
        world.set_balance(addr(1), U256::from_u64(500));
        world.set_storage(addr(1), U256::ONE, U256::from_u64(8), Taint::empty());
        assert_eq!(snap.balance(addr(1)), U256::from_u64(5));
        assert_eq!(snap.storage(addr(1), U256::ONE), U256::from_u64(7));
        assert_eq!(world.balance(addr(1)), U256::from_u64(500));
        assert_eq!(world.storage(addr(1), U256::ONE), U256::from_u64(8));
        // Neither write copied the account.
        assert!(world.overlay.is_empty());
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
        // Freezing with overrides pending folds them into the new base.
        let before = world.snapshot();
        world.freeze();
        assert!(world.is_frozen());
        assert_eq!(world, before);
        assert_eq!(world.base[&addr(2)].balance, U256::from_u64(14));
    }

    #[test]
    fn freezing_an_unchanged_world_shares_its_base() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        world.freeze();
        let before = world.snapshot();
        // A reverted write leaves nothing pending, so there is nothing to
        // merge and the frozen base stays shared.
        let cp = world.checkpoint();
        world.set_balance(addr(1), U256::from_u64(6));
        world.set_code(addr(1), Arc::new(vec![0x00]));
        world.revert_to(cp);
        world.freeze();
        assert!(Arc::ptr_eq(&world.base, &before.base));
        assert_eq!(world, before);
    }

    #[test]
    fn reset_restores_a_frozen_world_in_place() {
        let mut deployed = WorldState::new();
        deployed.put_account(addr(1), Account::eoa(U256::from_u64(100)));
        deployed.set_storage(addr(1), U256::ONE, U256::from_u64(7), Taint::NONE);
        deployed.freeze();
        let mut world = deployed.snapshot();
        for round in 0..3u64 {
            world.reset_to(&deployed);
            assert!(Arc::ptr_eq(&world.base, &deployed.base));
            assert_eq!(world, deployed);
            world.set_storage(addr(1), U256::ONE, U256::from_u64(round), Taint::NONE);
            assert!(world.transfer(addr(1), addr(2), U256::from_u64(10)));
            world.mark_destroyed(addr(1));
        }
        // The pending tables keep their capacity across resets.
        let capacities = (
            world.overlay.capacity(),
            world.balances.capacity(),
            world.slots.capacity(),
        );
        world.reset_to(&deployed);
        assert_eq!(world, deployed);
        assert_eq!(
            (
                world.overlay.capacity(),
                world.balances.capacity(),
                world.slots.capacity(),
            ),
            capacities
        );
    }

    #[test]
    #[should_panic(expected = "needs a frozen world")]
    fn reset_refuses_a_world_with_changes_pending() {
        let mut pending = WorldState::new();
        pending.set_balance(addr(1), U256::ONE);
        WorldState::new().reset_to(&pending);
    }

    #[test]
    fn overrides_show_through_every_reader() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::contract(vec![0x00], U256::from_u64(5)));
        world.set_storage(addr(1), U256::ONE, U256::from_u64(7), Taint::NONE);
        world.freeze();
        world.set_balance(addr(1), U256::from_u64(6));
        world.set_storage(addr(1), U256::ONE, U256::ZERO, Taint::NONE);
        world.set_storage(addr(1), U256::from_u64(2), U256::from_u64(9), Taint::CALLER);
        let account = world.account(addr(1)).unwrap();
        assert_eq!(account.balance, U256::from_u64(6));
        assert!(!account.storage.contains_key(&U256::ONE));
        assert_eq!(
            account.storage[&U256::from_u64(2)],
            (U256::from_u64(9), Taint::CALLER)
        );
        let (_, listed) = world.accounts().next().unwrap();
        assert_eq!(listed, account);
        // A copy made after the overrides stays shadowed by them.
        world.mark_destroyed(addr(1));
        assert_eq!(world.balance(addr(1)), U256::from_u64(6));
        assert_eq!(world.storage(addr(1), U256::ONE), U256::ZERO);
        assert!(world.account(addr(1)).unwrap().destroyed);
        let mut flat = WorldState::new();
        let mut expected = Account::contract(vec![0x00], U256::from_u64(6));
        expected
            .storage
            .insert(U256::from_u64(2), (U256::from_u64(9), Taint::CALLER));
        expected.destroyed = true;
        flat.put_account(addr(1), expected);
        assert_eq!(world, flat);
    }

    #[test]
    fn put_account_replaces_pending_overrides() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(5)));
        world.freeze();
        world.set_balance(addr(1), U256::from_u64(6));
        world.set_storage(addr(1), U256::ONE, U256::ONE, Taint::NONE);
        world.put_account(addr(1), Account::eoa(U256::from_u64(50)));
        assert_eq!(world.balance(addr(1)), U256::from_u64(50));
        assert_eq!(world.storage(addr(1), U256::ONE), U256::ZERO);
    }

    #[test]
    fn accounts_iteration_merges_base_and_overlay() {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(1)));
        world.put_account(addr(2), Account::eoa(U256::from_u64(2)));
        world.freeze();
        world.put_account(addr(2), Account::eoa(U256::from_u64(20))); // copied
        world.put_account(addr(3), Account::eoa(U256::from_u64(3))); // overlay-only
        world.set_balance(addr(1), U256::from_u64(10)); // overridden
        let merged: BTreeMap<Address, U256> = world
            .accounts()
            .map(|(a, acct)| (a, acct.balance))
            .collect();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[&addr(1)], U256::from_u64(10));
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
            behaviour: HostBehaviour::ReentrantAttacker { max_depth: 2 },
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
        // Nothing stays pending: the world is its base again.
        assert!(world.is_frozen());
        assert!(world.journal.is_empty());
    }

    #[test]
    #[should_panic(expected = "set-up call")]
    fn set_up_calls_refuse_an_open_checkpoint() {
        let mut world = WorldState::new();
        let _cp = world.checkpoint();
        world.put_account(addr(1), Account::eoa(U256::ONE));
    }

    /// Addresses 1..=6 and storage slots 0..4 cover every account the world
    /// model test touches.
    const ADDRESSES: u64 = 6;
    const SLOTS: u64 = 4;

    /// The reference the world model test checks against: a flat map from
    /// address to account, written the obvious way.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Model {
        accounts: BTreeMap<Address, Account>,
    }

    impl Model {
        fn account(&mut self, address: Address) -> &mut Account {
            self.accounts.entry(address).or_default()
        }

        fn balance(&self, address: Address) -> U256 {
            self.accounts
                .get(&address)
                .map_or(U256::ZERO, |a| a.balance)
        }

        fn set_storage(&mut self, address: Address, slot: U256, value: U256, taint: Taint) -> U256 {
            let storage = &mut self.account(address).storage;
            let prev = if value.is_zero() && taint.is_empty() {
                storage.remove(&slot)
            } else {
                storage.insert(slot, (value, taint))
            };
            prev.map_or(U256::ZERO, |(old, _)| old)
        }

        fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
            if value.is_zero() {
                return true;
            }
            let from_balance = self.balance(from);
            if from_balance < value {
                return false;
            }
            self.account(from).balance = from_balance.wrapping_sub(value);
            let to_balance = self.balance(to);
            self.account(to).balance = to_balance.wrapping_add(value);
            true
        }
    }

    /// Frozen accounts (one with a tainted zero slot), an account pending
    /// in the overlay (4), overrides pending on a frozen account (2) and
    /// absent ones (3, 5, 6), with the model of the same.
    fn seeded_world() -> (WorldState, Model) {
        let mut world = WorldState::new();
        world.put_account(addr(1), Account::eoa(U256::from_u64(100)));
        world.put_account(addr(2), Account::contract(vec![0x00], U256::from_u64(50)));
        world.set_storage(addr(2), U256::ONE, U256::from_u64(7), Taint::BLOCK);
        world.set_storage(addr(2), U256::from_u64(2), U256::ZERO, Taint::CALLER);
        world.freeze();
        world.put_account(addr(4), Account::eoa(U256::from_u64(20)));
        world.set_storage(addr(2), U256::from_u64(3), U256::from_u64(9), Taint::NONE);
        world.set_balance(addr(2), U256::from_u64(51));
        let mut contract = Account::contract(vec![0x00], U256::from_u64(51));
        contract
            .storage
            .insert(U256::ONE, (U256::from_u64(7), Taint::BLOCK));
        contract
            .storage
            .insert(U256::from_u64(2), (U256::ZERO, Taint::CALLER));
        contract
            .storage
            .insert(U256::from_u64(3), (U256::from_u64(9), Taint::NONE));
        let model = Model {
            accounts: BTreeMap::from([
                (addr(1), Account::eoa(U256::from_u64(100))),
                (addr(2), contract),
                (addr(4), Account::eoa(U256::from_u64(20))),
            ]),
        };
        (world, model)
    }

    /// Apply the world op encoded in `word`'s low bits to the world and the
    /// model; `frozen` holds worlds frozen earlier in the script, with
    /// their models. Set-up ops (`put_account`, `freeze`, `reset_to`) only
    /// run with no checkpoint open.
    fn apply(
        world: &mut WorldState,
        model: &mut Model,
        frozen: &mut Vec<(WorldState, Model)>,
        word: u64,
    ) {
        let a = addr(1 + word % ADDRESSES);
        let b = addr(1 + (word >> 3) % ADDRESSES);
        let n = (word >> 6) % SLOTS;
        let taint = [Taint::NONE, Taint::BLOCK, Taint::CALLER][((word >> 9) % 3) as usize];
        let set_up = world.open == 0;
        match (word >> 12) % 10 {
            0 => {
                // Values 0..3, so zero values with a non-empty taint occur.
                let value = U256::from_u64((word >> 16) % 3);
                let slot = U256::from_u64(n);
                let old = world.set_storage(a, slot, value, taint);
                assert_eq!(old, model.set_storage(a, slot, value, taint));
            }
            1 => {
                let value = U256::from_u64(n * 7);
                assert_eq!(world.transfer(a, b, value), model.transfer(a, b, value));
            }
            2 => {
                world.mark_destroyed(a);
                model.account(a).destroyed = true;
            }
            3 => {
                world.set_code(a, Arc::new(vec![n as u8]));
                model.account(a).code = Arc::new(vec![n as u8]);
            }
            4 => {
                world.set_nonce(a, n);
                model.account(a).nonce = n;
            }
            5 => {
                let balance = U256::from_u64((word >> 16) % 100);
                world.set_balance(a, balance);
                model.account(a).balance = balance;
            }
            6 if set_up => {
                let mut account = Account::eoa(U256::from_u64(n));
                account
                    .storage
                    .insert(U256::ONE, (U256::from_u64(n), taint));
                account.behaviour = HostBehaviour::RejectingSink;
                world.put_account(a, account.clone());
                model.accounts.insert(a, account);
            }
            7 if set_up => {
                world.freeze();
                frozen.push((world.snapshot(), model.clone()));
            }
            8 | 9 if set_up && !frozen.is_empty() => {
                let (target, target_model) = &frozen[(word >> 16) as usize % frozen.len()];
                world.reset_to(target);
                *model = target_model.clone();
            }
            _ => {}
        }
    }

    /// Every public reader of `world` against the model.
    fn check_readers(world: &WorldState, model: &Model) {
        for n in 1..=ADDRESSES {
            let a = addr(n);
            let expected = model.accounts.get(&a);
            prop_assert_eq!(world.exists(a), expected.is_some());
            prop_assert_eq!(world.account(a).map(Cow::into_owned).as_ref(), expected);
            prop_assert_eq!(world.balance(a), model.balance(a));
            let code = expected.map_or(&[][..], |e| &e.code[..]);
            prop_assert_eq!(&world.code(a)[..], code);
            prop_assert_eq!(world.nonce(a), expected.map_or(0, |e| e.nonce));
            let behaviour = expected.map_or(&HostBehaviour::None, |e| &e.behaviour);
            prop_assert_eq!(world.behaviour(a), behaviour);
            for slot in (0..SLOTS).map(U256::from_u64) {
                let entry = expected
                    .and_then(|e| e.storage.get(&slot).copied())
                    .unwrap_or((U256::ZERO, Taint::NONE));
                prop_assert_eq!(world.storage_entry(a, slot), entry);
            }
        }
        let listed: BTreeMap<Address, Account> = world
            .accounts()
            .map(|(address, account)| (address, account.into_owned()))
            .collect();
        prop_assert_eq!(
            listed.len(),
            world.accounts().count(),
            "no account listed twice"
        );
        prop_assert_eq!(&listed, &model.accounts);
        prop_assert_eq!(world.len(), model.accounts.len());
        prop_assert_eq!(world.is_empty(), model.accounts.is_empty());
    }

    proptest! {
        /// Random world ops under randomly nested checkpoints, each closed
        /// by a commit or a revert, against a flat model that never
        /// checkpoints: a revert restores the model saved at the
        /// checkpoint, and a commit leaves the model as it is. The ops
        /// include the set-up calls (replacing an account, freezing with
        /// overrides pending, resetting in place to the seeded frozen world
        /// or to one frozen during the script) and writes to absent
        /// addresses. After every step each public reader must agree with
        /// the model, and `==` with a world rebuilt from it.
        #[test]
        fn journal_matches_clone_and_restore(
            script in proptest::collection::vec(any::<u64>(), 1..96)
        ) {
            let (mut world, mut model) = seeded_world();
            let mut base = world.snapshot();
            base.freeze();
            let mut frozen = vec![(base, model.clone())];
            let mut open: Vec<(WorldCheckpoint, Model)> = Vec::new();
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
                    _ => apply(&mut world, &mut model, &mut frozen, word),
                }
                check_readers(&world, &model);
                let mut flat = WorldState::new();
                for (&address, account) in &model.accounts {
                    flat.put_account(address, account.clone());
                }
                prop_assert_eq!(&world, &flat);
            }
            while let Some((cp, _)) = open.pop() {
                world.commit(cp);
            }
            check_readers(&world, &model);
            // Closing the outermost checkpoint drops the journal.
            prop_assert!(world.journal.is_empty());
            // Every frozen world kept what it held when it was frozen.
            for (target, target_model) in &frozen {
                check_readers(target, target_model);
            }
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
        flat.set_balance(addr(1), U256::from_u64(6));
        assert_ne!(frozen, flat);
        frozen.set_balance(addr(1), U256::from_u64(6));
        assert_eq!(frozen, flat);
    }
}
