//! Stable-key slab storage for in-flight transfers.
//!
//! The pre-slab `FluidNetwork` kept its transfer slots in a `Vec` and
//! removed completions with `swap_remove`, which renumbered every
//! surviving slot — so a completion batch invalidated the *identity* of
//! the whole cached population and the `PenaltyCache` had to rebuild from
//! scratch. This slab hands out [`FlowKey`]s that survive arbitrary
//! insert/remove churn: survivors keep their keys, and a key's slot index
//! is the [`netbw_core::FlowId`] the models' keyed scratches know the
//! flow by, so a completion batch hands the model only the departed ids.
//!
//! Keys are *generational*: a slot freed by a completion can be re-used by
//! a later arrival, but the new occupant gets a fresh generation, so a
//! stale key can never silently alias a new flow. Lookups with a stale key
//! return `None`.
//!
//! Iteration order is slot order, not insertion order: an arrival re-using
//! a freed low slot appears *before* older survivors. Nothing depends on
//! the order, and it keeps every operation O(1).

/// Stable handle to an entry in a [`Slab`].
///
/// Packs the slot index (low 32 bits) and the slot's generation at
/// insertion time (high 32 bits). Two keys are equal iff they name the
/// same occupancy of the same slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(u64);

impl FlowKey {
    fn new(index: u32, generation: u32) -> Self {
        FlowKey(u64::from(generation) << 32 | u64::from(index))
    }

    /// The slot index — the slab's iteration order. Distinct live keys
    /// never share an index, so sorting live keys by `slot_index` yields
    /// exactly the order [`Slab::iter`] would visit them in.
    #[inline]
    pub(crate) fn slot_index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    /// The flow's id in the models' keyed scratches: its slot index. An
    /// id is unique among live flows; a later flow reuses it only after
    /// this one's departure.
    #[inline]
    pub fn id(self) -> netbw_core::FlowId {
        self.0 as u32
    }

    #[inline]
    fn index(self) -> usize {
        self.slot_index()
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow#{}.{}", self.index(), self.generation())
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    /// Bumped on every removal, so stale keys miss.
    generation: u32,
    /// Bumped by [`Slab::bump_epoch`] while the slot is occupied; reset on
    /// insert. The event timeline stamps its heap entries with this, so a
    /// re-anchored flow's older entries become recognizably stale without
    /// the heap ever being searched.
    epoch: u64,
    /// The owner stamp of the penalty cache that answers for the occupant
    /// ([`Slab::set_owner`]); 0 on insert. Written only outside settle
    /// barriers, so a barrier job reads it race-free, like `generation`.
    owner: u32,
    value: Option<T>,
}

/// A generational slab: O(1) insert/remove/lookup with stable keys and
/// slot-ordered iteration. Cloning deep-copies every slot verbatim —
/// generations, epochs and free-list included — so a clone hands out the
/// exact same key sequence the original would.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> Clone for Slab<T> {
    fn clone(&self) -> Self {
        let mut slab = Slab::default();
        slab.clone_from(self);
        slab
    }

    /// Field-wise, so a copy into a warm slab reuses its slot storage.
    fn clone_from(&mut self, source: &Self) {
        let Slab { entries, free, len } = source;
        self.entries.clone_from(entries);
        self.free.clone_from(free);
        self.len = *len;
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab::default()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Removes every entry while keeping the allocated capacity, leaving
    /// the slab indistinguishable from a freshly built one (generations
    /// restart at zero, so reused slabs hand out the same key sequence a
    /// new slab would — which is what keeps network reuse bit-for-bit
    /// reproducible). All previously issued keys become stale.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        self.len = 0;
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning its stable key. Freed slots are re-used
    /// (with a fresh generation) before the slab grows.
    pub fn insert(&mut self, value: T) -> FlowKey {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let entry = &mut self.entries[index as usize];
            debug_assert!(entry.value.is_none());
            entry.value = Some(value);
            entry.epoch = 0;
            entry.owner = 0;
            FlowKey::new(index, entry.generation)
        } else {
            let index = u32::try_from(self.entries.len()).expect("slab capacity exceeds u32");
            self.entries.push(Entry {
                generation: 0,
                epoch: 0,
                owner: 0,
                value: Some(value),
            });
            FlowKey::new(index, 0)
        }
    }

    /// Removes and returns the entry named by `key`; `None` if the key is
    /// stale (already removed, or its slot re-used by a newer entry).
    pub fn remove(&mut self, key: FlowKey) -> Option<T> {
        let entry = self.entries.get_mut(key.index())?;
        if entry.generation != key.generation() {
            return None;
        }
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(key.index() as u32);
        self.len -= 1;
        Some(value)
    }

    /// Shared access to the entry named by `key`, if current.
    pub fn get(&self, key: FlowKey) -> Option<&T> {
        let entry = self.entries.get(key.index())?;
        if entry.generation != key.generation() {
            return None;
        }
        entry.value.as_ref()
    }

    /// Mutable access to the entry named by `key`, if current.
    pub fn get_mut(&mut self, key: FlowKey) -> Option<&mut T> {
        let entry = self.entries.get_mut(key.index())?;
        if entry.generation != key.generation() {
            return None;
        }
        entry.value.as_mut()
    }

    /// True when `key` names a live entry.
    pub fn contains(&self, key: FlowKey) -> bool {
        self.get(key).is_some()
    }

    /// The entry's current epoch stamp, `None` for stale keys. Fresh
    /// occupancies start at epoch 0.
    pub fn epoch(&self, key: FlowKey) -> Option<u64> {
        let entry = self.entries.get(key.index())?;
        if entry.generation != key.generation() || entry.value.is_none() {
            return None;
        }
        Some(entry.epoch)
    }

    /// Bumps and returns the entry's epoch stamp, invalidating every
    /// previously issued `(key, epoch)` pair for this occupancy; `None`
    /// for stale keys. The event timeline calls this exactly when a flow's
    /// cached finish time changes, so heap entries carrying older epochs
    /// can be discarded lazily on pop.
    pub fn bump_epoch(&mut self, key: FlowKey) -> Option<u64> {
        let entry = self.entries.get_mut(key.index())?;
        if entry.generation != key.generation() || entry.value.is_none() {
            return None;
        }
        entry.epoch += 1;
        Some(entry.epoch)
    }

    /// Stamps the live entry named by `key` with the owner stamp of the
    /// penalty cache that answers for it: a settle re-anchors an answered
    /// flow only if its entry carries the settling cache's stamp
    /// ([`SlotAccess::member`]). A stale key is ignored.
    pub(crate) fn set_owner(&mut self, key: FlowKey, owner: u32) {
        if let Some(entry) = self.entries.get_mut(key.index()) {
            if entry.generation == key.generation() {
                entry.owner = owner;
            }
        }
    }

    /// Iterates occupied slots in slot order. Survivors keep their
    /// relative order across any sequence of removals.
    pub fn iter(&self) -> impl Iterator<Item = (FlowKey, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            e.value
                .as_ref()
                .map(|v| (FlowKey::new(i as u32, e.generation), v))
        })
    }

    /// Mutable variant of [`Self::iter`].
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FlowKey, &mut T)> {
        self.entries.iter_mut().enumerate().filter_map(|(i, e)| {
            let generation = e.generation;
            e.value
                .as_mut()
                .map(move |v| (FlowKey::new(i as u32, generation), v))
        })
    }

    /// Keys of the occupied slots, in slot order.
    pub fn keys(&self) -> impl Iterator<Item = FlowKey> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// A raw, thread-shareable view of the slab's entries for the sharded
    /// engine's parallel settle barrier. The view is `Copy`: every settle
    /// job captures its own copy and works through it unchecked.
    ///
    /// The borrow handed in here is consumed immediately (the view carries
    /// no lifetime), so the *caller* is responsible for the aliasing
    /// discipline the borrow checker would otherwise enforce — see
    /// [`RawSlots`].
    pub(crate) fn raw(&mut self) -> RawSlots<T> {
        RawSlots {
            entries: self.entries.as_mut_ptr(),
            len: self.entries.len(),
        }
    }
}

/// The entry access one shard's settle needs. The single-shard engine
/// settles straight through its [`Slab`]; the sharded engine's parallel
/// barrier jobs go through a [`JobSlots`] view instead — so the one settle
/// body serves both without the safe path ever touching a raw pointer.
pub(crate) trait SlotAccess<T> {
    /// The key of the current occupancy of slot `id`, a flow a model
    /// answered for the settling cache whose owner stamp is `owner`.
    ///
    /// # Panics
    /// Unless slot `id` exists and carries the stamp `owner`: the model
    /// answered a flow outside the settling shard.
    fn member(&self, id: netbw_core::FlowId, owner: u32) -> FlowKey;
    /// Mutable access to the live entry named by `key`.
    fn get_mut(&mut self, key: FlowKey) -> Option<&mut T>;
    /// Bumps and returns the live entry's epoch stamp.
    fn bump_epoch(&mut self, key: FlowKey) -> Option<u64>;
}

impl<T> SlotAccess<T> for Slab<T> {
    fn member(&self, id: netbw_core::FlowId, owner: u32) -> FlowKey {
        match self.entries.get(id as usize) {
            Some(entry) if entry.owner == owner => FlowKey::new(id, entry.generation),
            _ => not_a_member(id),
        }
    }
    fn get_mut(&mut self, key: FlowKey) -> Option<&mut T> {
        Slab::get_mut(self, key)
    }
    fn bump_epoch(&mut self, key: FlowKey) -> Option<u64> {
        Slab::bump_epoch(self, key)
    }
}

/// Panics for an answered flow outside the settling shard.
#[cold]
fn not_a_member(id: netbw_core::FlowId) -> ! {
    panic!("answered flow {id} is not a member of the settling shard")
}

/// One parallel settle job's [`SlotAccess`]: a [`RawSlots`] view whose
/// user touches only its own shard's member keys. Those keys come from
/// [`SlotAccess::member`], which checks each answered id's range and
/// owner stamp before any unchecked access, so no model answer can reach
/// another job's slots.
pub(crate) struct JobSlots<T>(RawSlots<T>);

impl<T> JobSlots<T> {
    /// Scopes `raw` to one settle job.
    ///
    /// # Safety
    /// For the job's whole lifetime the slab stays structurally frozen
    /// and its owner stamps unchanged; the job passes its own shard's
    /// cache stamp to [`SlotAccess::member`], a stamp no other concurrent
    /// job's shard carries, and only the keys `member` returned to the
    /// other methods (see [`RawSlots`]).
    pub(crate) unsafe fn new(raw: RawSlots<T>) -> Self {
        JobSlots(raw)
    }
}

impl<T> SlotAccess<T> for JobSlots<T> {
    fn member(&self, id: netbw_core::FlowId, owner: u32) -> FlowKey {
        // SAFETY: the constructor's contract; generation and owner stamps
        // are frozen for the whole barrier.
        unsafe { self.0.member(id, owner) }
    }
    fn get_mut(&mut self, key: FlowKey) -> Option<&mut T> {
        // SAFETY: the constructor's contract; the borrow is scoped to
        // `&mut self`, so no two borrows of one entry coexist.
        unsafe { self.0.get_mut(key) }
    }
    fn bump_epoch(&mut self, key: FlowKey) -> Option<u64> {
        // SAFETY: the constructor's contract — the job owns `key`.
        unsafe { self.0.bump_epoch(key) }
    }
}

/// Unchecked entry access into a [`Slab`] from concurrently running settle
/// jobs, justified by partition disjointness: the sharded engine's jobs
/// each touch only the keys of their own shard's members, and distinct
/// live keys never share a slot, so no two jobs ever touch the same entry.
///
/// # Safety contract (callers)
///
/// * The source slab must outlive every use of the view, with no
///   structural mutation (insert/remove/clear/grow) while any view is
///   live — generations and the entry array are frozen for the duration.
/// * Two concurrent users must never pass the same live key — entry
///   *contents* (value and epoch) are accessed without synchronization.
/// * Generation and owner stamps are frozen, so reading one is always
///   safe: liveness is derived from the generation alone, never from the
///   value discriminant, whose bytes may alias in-flight writes to a
///   slot's occupant by its owning job, and membership from the owner
///   stamp, which each job checks before touching a slot.
pub(crate) struct RawSlots<T> {
    entries: *mut Entry<T>,
    len: usize,
}

impl<T> Clone for RawSlots<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RawSlots<T> {}
// SAFETY: a RawSlots is just an unchecked window into the slab; the
// aliasing rules above make cross-thread use sound exactly when T's
// values may be sent between threads.
unsafe impl<T: Send> Send for RawSlots<T> {}
unsafe impl<T: Send> Sync for RawSlots<T> {}

impl<T> RawSlots<T> {
    /// The entry for `key` if its occupancy is live, by generation stamp
    /// alone.
    ///
    /// # Safety
    ///
    /// See the type-level contract: the slab must be structurally frozen
    /// and no other thread may concurrently access this *live* key.
    unsafe fn entry(&self, key: FlowKey) -> Option<*mut Entry<T>> {
        let i = key.index();
        if i >= self.len {
            return None;
        }
        let e = unsafe { self.entries.add(i) };
        // `Slab::remove` always bumps the generation, so a generation
        // match for an issued key implies the occupancy is live — checked
        // WITHOUT reading the value discriminant, which (niche-packed)
        // may alias bytes another job is writing to a reused slot.
        if unsafe { (*e).generation } != key.generation() {
            return None;
        }
        Some(e)
    }

    /// The key of slot `id`'s current occupancy, read from its generation
    /// stamp, after checking that `id` is in range and that the slot
    /// carries the owner stamp `owner`.
    ///
    /// # Panics
    /// Like [`SlotAccess::member`], before touching anything out of range
    /// or owned by another stamp.
    ///
    /// # Safety
    ///
    /// The slab must be structurally frozen, with no concurrent generation
    /// or owner-stamp writes.
    pub(crate) unsafe fn member(&self, id: netbw_core::FlowId, owner: u32) -> FlowKey {
        let i = id as usize;
        if i >= self.len {
            not_a_member(id);
        }
        let e = unsafe { self.entries.add(i) };
        // Both stamps are frozen for the barrier, so reading them is
        // race-free even in a slot another job owns.
        let (generation, stamp) = unsafe { ((*e).generation, (*e).owner) };
        if stamp != owner {
            not_a_member(id);
        }
        FlowKey::new(id, generation)
    }

    /// Mutable access to the entry named by `key`, if live. The returned
    /// lifetime is unbounded — the caller scopes it.
    ///
    /// # Safety
    ///
    /// See the type-level contract; additionally the caller must not hold
    /// two returned borrows of the same entry at once.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut<'a>(&self, key: FlowKey) -> Option<&'a mut T> {
        let e = unsafe { self.entry(key) }?;
        // generation matched, so the value is Some — but go through the
        // checked path anyway; the owner is the only writer, so reading
        // the discriminant here is race-free.
        unsafe { (*e).value.as_mut() }
    }

    /// Bumps and returns the entry's epoch stamp, if live — the raw twin
    /// of [`Slab::bump_epoch`].
    ///
    /// # Safety
    ///
    /// See the type-level contract: this writes the entry, so the caller
    /// must own `key`.
    pub(crate) unsafe fn bump_epoch(&self, key: FlowKey) -> Option<u64> {
        let e = unsafe { self.entry(key) }?;
        unsafe {
            (*e).epoch += 1;
            Some((*e).epoch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn survivor_keys_are_stable_across_removals() {
        let mut slab = Slab::new();
        let keys: Vec<FlowKey> = (0..8).map(|i| slab.insert(i)).collect();
        slab.remove(keys[0]);
        slab.remove(keys[3]);
        slab.remove(keys[7]);
        for (i, &k) in keys.iter().enumerate() {
            if [0, 3, 7].contains(&i) {
                assert!(!slab.contains(k));
            } else {
                assert_eq!(slab.get(k), Some(&i));
            }
        }
        // iteration preserves the survivors' relative order
        let survivors: Vec<usize> = slab.iter().map(|(_, &v)| v).collect();
        assert_eq!(survivors, vec![1, 2, 4, 5, 6]);
    }

    #[test]
    fn stale_keys_never_alias_reused_slots() {
        let mut slab = Slab::new();
        let old = slab.insert("old");
        slab.remove(old);
        let new = slab.insert("new");
        // the slot is re-used but the generation differs
        assert_ne!(old, new);
        assert_eq!(slab.get(old), None);
        assert_eq!(slab.remove(old), None);
        assert_eq!(slab.get(new), Some(&"new"));
    }

    #[test]
    fn iter_mut_and_keys_agree_with_iter() {
        let mut slab = Slab::new();
        let _a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(b);
        let _c = slab.insert(3);
        for (_, v) in slab.iter_mut() {
            *v *= 10;
        }
        let via_iter: Vec<(FlowKey, i32)> = slab.iter().map(|(k, &v)| (k, v)).collect();
        let keys: Vec<FlowKey> = slab.keys().collect();
        assert_eq!(via_iter.iter().map(|&(k, _)| k).collect::<Vec<_>>(), keys);
        let mut values: Vec<i32> = via_iter.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![10, 30]);
    }

    #[test]
    fn epochs_start_fresh_per_occupancy_and_bump_monotonically() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        assert_eq!(slab.epoch(a), Some(0));
        assert_eq!(slab.bump_epoch(a), Some(1));
        assert_eq!(slab.bump_epoch(a), Some(2));
        assert_eq!(slab.epoch(a), Some(2));
        // removal stales the key for epochs too
        slab.remove(a);
        assert_eq!(slab.epoch(a), None);
        assert_eq!(slab.bump_epoch(a), None);
        // a re-used slot starts at epoch 0 again, and the old key still
        // misses
        let b = slab.insert("b");
        assert_eq!(b.slot_index(), a.slot_index());
        assert_eq!(slab.epoch(b), Some(0));
        assert_eq!(slab.epoch(a), None);
    }

    #[test]
    fn raw_view_agrees_with_checked_access() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        let c = slab.insert(3); // reuses a's slot under a new generation
        let raw = slab.raw();
        unsafe {
            assert_eq!(
                raw.member(a.id(), 0),
                c,
                "a reused slot names its new occupant"
            );
            assert_eq!(raw.member(b.id(), 0), b);
            *raw.get_mut(b).unwrap() = 20;
            assert_eq!(raw.bump_epoch(c), Some(1));
            assert!(raw.get_mut(a).is_none());
            assert!(raw.bump_epoch(a).is_none());
        }
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.epoch(c), Some(1));
        assert_eq!(slab.epoch(b), Some(0));
    }

    #[test]
    fn member_checks_range_and_owner_stamp() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.set_owner(b, 7);
        assert_eq!(SlotAccess::member(&slab, a.id(), 0), a);
        assert_eq!(SlotAccess::member(&slab, b.id(), 7), b);
        // a reused slot starts unstamped; a stale key stamps nothing
        slab.remove(b);
        slab.set_owner(b, 9);
        let c = slab.insert(3);
        assert_eq!(SlotAccess::member(&slab, c.id(), 0), c);
        let raw = slab.raw();
        // an id out of range or stamped for another owner panics on both
        // paths, before any unchecked access
        for (id, owner) in [(a.id(), 7), (c.id(), 9), (2, 0), (u32::MAX, 0)] {
            let checked = catch_unwind(AssertUnwindSafe(|| SlotAccess::member(&slab, id, owner)));
            assert!(checked.is_err(), "slab: flow {id} for owner {owner}");
            let unchecked = catch_unwind(AssertUnwindSafe(|| unsafe { raw.member(id, owner) }));
            assert!(unchecked.is_err(), "raw view: flow {id} for owner {owner}");
        }
    }

    #[test]
    fn display_shows_slot_and_generation() {
        let mut slab = Slab::new();
        let a = slab.insert(());
        slab.remove(a);
        let b = slab.insert(());
        assert_eq!(a.to_string(), "flow#0.0");
        assert_eq!(b.to_string(), "flow#0.1");
    }
}
