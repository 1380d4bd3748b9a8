//! Hash-consing of device states and memoized collective application.
//!
//! The synthesizer explores a DAG whose nodes are *tuples* of device
//! [`State`]s. After collectives on symmetric groups most devices share
//! identical states, so hash-consing each device state to a dense `u32` id
//! turns a synthesis-space state into a flat `[u32]` slice: interning hashes
//! a few words instead of k×k bit matrices, equality is a word compare, and
//! devices sharing a state share its storage. The [`ApplyCache`] layers a
//! transposition table on top: the semantics of a collective depend only on
//! the ordered participant states, so one `(collective, participant ids)`
//! key memoizes [`apply_collective_refs`] across every grouping and every
//! synthesis state that reproduces the same participants — the cache-hit
//! path allocates nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::collective::Collective;
use crate::semantics::{apply_collective_refs, SemanticsError};
use crate::state::State;

// The word-folding hasher these tables key through lives in `p2_hash` (it is
// also the core of the plan service's persisted content addresses); the
// re-export keeps the long-standing `p2_collectives::{FxHasher, FxHashMap}`
// paths working.
pub use p2_hash::{FxHashMap, FxHasher};

/// The [`SharedTables`] transposition map: `[collective tag, participant
/// ids...]` → interned post-state ids or the memoized semantic error.
type SharedApplyMap = FxHashMap<Box<[u32]>, Result<Arc<[u32]>, SemanticsError>>;

/// An arena hash-consing device [`State`]s to dense `u32` ids.
///
/// # Examples
///
/// ```
/// use p2_collectives::{State, StateInterner};
/// let mut interner = StateInterner::new();
/// let a = interner.intern(State::initial(4, 0));
/// let b = interner.intern(State::initial(4, 1));
/// assert_ne!(a, b);
/// assert_eq!(interner.intern(State::initial(4, 0)), a);
/// assert_eq!(interner.len(), 2);
/// assert_eq!(*interner.get(a), State::initial(4, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StateInterner {
    /// Id-indexed view; each `Arc` is shared with the map key below, so every
    /// distinct state owns exactly one word buffer.
    states: Vec<Arc<State>>,
    ids: FxHashMap<Arc<State>, u32>,
}

impl StateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        StateInterner::default()
    }

    /// Interns a state, returning its dense id (allocating a new id only for
    /// states never seen before).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct states are interned.
    pub fn intern(&mut self, state: State) -> u32 {
        // `Arc<State>: Borrow<State>`, so the lookup needs no allocation.
        if let Some(&id) = self.ids.get(&state) {
            return id;
        }
        let id = u32::try_from(self.states.len()).expect("more than u32::MAX distinct states");
        let state = Arc::new(state);
        self.states.push(Arc::clone(&state));
        self.ids.insert(state, id);
        id
    }

    /// The state an id was assigned to.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this interner.
    pub fn get(&self, id: u32) -> &State {
        self.states[id as usize].as_ref()
    }

    /// A shared handle to the state an id was assigned to, for callers that
    /// must outlive a lock on the interner.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this interner.
    pub fn get_arc(&self, id: u32) -> Arc<State> {
        Arc::clone(&self.states[id as usize])
    }

    /// The id of an already-interned state, without interning it.
    pub fn lookup(&self, state: &State) -> Option<u32> {
        self.ids.get(state).copied()
    }

    /// Number of distinct states interned.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The interned states in id order (state `i` has id `i`): ids *are*
    /// positions in the arena, so this is the dense serialization order and
    /// re-interning the list into an empty interner reassigns identical ids.
    pub fn states_in_id_order(&self) -> &[Arc<State>] {
        &self.states
    }
}

/// A memoized application result: the members' interned post-state ids, or
/// the semantic error the collective raised.
type CachedApply = Result<Box<[u32]>, SemanticsError>;

/// A transposition cache for [`apply_collective_refs`] over interned states.
///
/// Keyed by the collective and the ordered participant ids (the only inputs
/// the semantics sees), so symmetric groupings and convergent search paths
/// re-deriving the same participants hit the cache instead of re-running the
/// pre-condition checks. Both successful post-states and semantic errors are
/// memoized. Lookups reuse an internal key buffer: a hit performs no
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct ApplyCache {
    /// `[collective tag, participant ids...]` → interned post-state ids.
    map: FxHashMap<Box<[u32]>, CachedApply>,
    key: Vec<u32>,
    hits: usize,
    misses: usize,
}

impl ApplyCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ApplyCache::default()
    }

    /// Applies `collective` to the devices holding the interned states
    /// `members` (in group order), memoized. Returns the members'
    /// post-condition state ids, in the same order.
    ///
    /// # Errors
    ///
    /// The [`SemanticsError`] of the violated pre-condition, exactly as
    /// [`apply_collective_refs`] reports it (and memoized just the same).
    ///
    /// # Panics
    ///
    /// Panics if any id in `members` was not produced by `interner`.
    pub fn apply(
        &mut self,
        interner: &mut StateInterner,
        collective: Collective,
        members: &[u32],
    ) -> Result<&[u32], SemanticsError> {
        self.key.clear();
        self.key.push(collective as u32);
        self.key.extend_from_slice(members);
        // `contains_key` first sidesteps the borrow checker's refusal to let
        // a conditionally-returned `get` borrow coexist with the insert below.
        if self.map.contains_key(self.key.as_slice()) {
            self.hits += 1;
            return self.map[self.key.as_slice()]
                .as_deref()
                .map_err(|e| e.clone());
        }
        self.misses += 1;
        let result = {
            let states: Vec<&State> = members.iter().map(|&id| interner.get(id)).collect();
            apply_collective_refs(collective, &states)
        };
        let entry = result.map(|after| {
            after
                .into_iter()
                .map(|s| interner.intern(s))
                .collect::<Box<[u32]>>()
        });
        self.map
            .entry(self.key.as_slice().into())
            .or_insert(entry)
            .as_deref()
            .map_err(|e| e.clone())
    }

    /// Number of memoized lookups served.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of lookups that ran the semantics.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of distinct `(collective, participants)` keys cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Number of shards in each [`SharedTables`] map (state → id and apply). A
/// power of two so the shard index is the hash's top bits; 64 is comfortably
/// above any worker count this workspace runs, so two workers rarely contend
/// on one shard lock.
const SHARD_BITS: u32 = 6;
/// `1 << SHARD_BITS`.
const SHARDS: usize = 1 << SHARD_BITS;
/// Capacity of the first [`StateArena`] chunk; chunk `c` holds
/// `ARENA_CHUNK0 << c` slots, so 32 doubling chunks cover the entire `u32`
/// id space.
const ARENA_CHUNK0: usize = 1024;
/// Number of doubling chunks in a [`StateArena`].
const ARENA_CHUNKS: usize = 32;

/// Lock-free append-only id → state storage: a sequence of doubling chunks,
/// each allocated at most once, with every slot written at most once.
///
/// Chunks never move once allocated, so `get` takes no lock: readers walk
/// `chunks[c][offset]` through two [`OnceLock`]s (acquire loads) while
/// writers fill slots they own exclusively (each id is handed out by one
/// `fetch_add`). This is what keeps [`SharedTables::apply`]'s participant
/// fetch off the interner locks entirely — the hottest read path of the
/// parallel DAG build.
///
/// [`OnceLock`]: std::sync::OnceLock
#[derive(Debug)]
struct StateArena {
    #[allow(clippy::type_complexity)]
    chunks: [std::sync::OnceLock<Box<[std::sync::OnceLock<Arc<State>>]>>; ARENA_CHUNKS],
    /// The next unassigned id; slots below this are set or about to be set by
    /// the worker that claimed them.
    len: AtomicUsize,
}

impl Default for StateArena {
    fn default() -> Self {
        StateArena {
            chunks: std::array::from_fn(|_| std::sync::OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }
}

impl StateArena {
    /// `(chunk, offset)` of an id: chunk `c` covers ids
    /// `[ARENA_CHUNK0 * (2^c - 1), ARENA_CHUNK0 * (2^(c+1) - 1))`.
    fn locate(id: u32) -> (usize, usize) {
        let n = id as usize / ARENA_CHUNK0 + 1;
        let chunk = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let base = ARENA_CHUNK0 * ((1usize << chunk) - 1);
        (chunk, id as usize - base)
    }

    /// Claims the next id. The caller must follow up with `set`.
    fn claim_id(&self) -> u32 {
        let id = self.len.fetch_add(1, Ordering::Relaxed);
        u32::try_from(id).expect("more than u32::MAX distinct states")
    }

    /// Publishes the state for an id claimed by this thread.
    fn set(&self, id: u32, state: Arc<State>) {
        let (chunk, offset) = Self::locate(id);
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..ARENA_CHUNK0 << chunk)
                .map(|_| std::sync::OnceLock::new())
                .collect()
        });
        slots[offset]
            .set(state)
            .expect("arena slot published twice");
    }

    /// The state an id was assigned to, without taking any lock.
    ///
    /// Ids only reach other threads *after* their slot is published (the
    /// publishing thread sets the slot before releasing the shard lock that
    /// makes the id visible), so the spin below only covers the sliver where
    /// an id raced here through a relaxed counter read; it cannot spin on an
    /// id that was never claimed — that panics instead.
    fn get(&self, id: u32) -> Arc<State> {
        assert!(
            (id as usize) < self.len.load(Ordering::Acquire),
            "unknown state id {id}"
        );
        let (chunk, offset) = Self::locate(id);
        loop {
            if let Some(slots) = self.chunks[chunk].get() {
                if let Some(state) = slots[offset].get() {
                    return Arc::clone(state);
                }
            }
            std::hint::spin_loop();
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// Sweep-wide hash-consing tables: one device-state interner and one
/// collective transposition table shared by every concurrent worker — across
/// placements of a sweep *and* across the intra-placement expanders of a
/// parallel DAG build.
///
/// Every placement of one sweep reduces over the same k×k device-state
/// universe, so sharing the tables means the second placement onward mostly
/// *reads*: states and `(collective, participants)` entries discovered by one
/// worker are reused by all. Both maps are split into 64 independent
/// `RwLock`ed shards keyed by the hash's top bits, and the id → state arena
/// is lock-free (an append-only chunked `OnceLock` arena), so concurrent
/// expanders don't serialize on
/// a single lock. Ids are assigned in thread-arrival order and are therefore
/// nondeterministic under parallelism — which is sound, because every
/// consumer uses ids only for equality and memoization, never for ordering.
/// The final table *sizes* are deterministic: they are set unions over the
/// (deterministic) per-placement universes.
#[derive(Debug)]
pub struct SharedTables {
    /// state → id, sharded by state hash. Each distinct state lives in
    /// exactly one shard, so that shard's write lock serializes its id
    /// assignment.
    state_shards: Vec<RwLock<FxHashMap<Arc<State>, u32>>>,
    arena: StateArena,
    /// `[collective tag, participant ids...]` → interned post-state ids
    /// (`Arc`ed so a hit clones a pointer, not the slice) or the memoized
    /// semantic error; sharded by key hash.
    apply_shards: Vec<RwLock<SharedApplyMap>>,
    apply_hits: AtomicUsize,
    apply_misses: AtomicUsize,
}

impl Default for SharedTables {
    fn default() -> Self {
        SharedTables {
            state_shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            arena: StateArena::default(),
            apply_shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            apply_hits: AtomicUsize::new(0),
            apply_misses: AtomicUsize::new(0),
        }
    }
}

impl SharedTables {
    /// Creates empty shared tables.
    pub fn new() -> Self {
        SharedTables::default()
    }

    /// The shard a state's map entry lives in (top hash bits).
    fn state_shard(state: &State) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = FxHasher::default();
        state.hash(&mut hasher);
        (hasher.finish() >> (64 - SHARD_BITS)) as usize
    }

    /// The shard an apply key's entry lives in (top hash bits).
    fn apply_shard(key: &[u32]) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() >> (64 - SHARD_BITS)) as usize
    }

    /// Interns a state, returning `(id, was_present)`: `was_present` is true
    /// when the state was already in the table (interned by this or any other
    /// worker).
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned or the interner overflows `u32` ids.
    pub fn intern(&self, state: State) -> (u32, bool) {
        let shard = &self.state_shards[Self::state_shard(&state)];
        if let Some(&id) = shard.read().expect("interner shard lock").get(&state) {
            return (id, true);
        }
        let mut map = shard.write().expect("interner shard lock");
        // Double-checked: another worker may have interned it since the read.
        if let Some(&id) = map.get(&state) {
            return (id, true);
        }
        let id = self.arena.claim_id();
        let state = Arc::new(state);
        // Publish the arena slot *before* the map insert makes the id
        // visible to other workers.
        self.arena.set(id, Arc::clone(&state));
        map.insert(state, id);
        (id, false)
    }

    /// A shared handle to the state an id was assigned to. Lock-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: u32) -> Arc<State> {
        self.arena.get(id)
    }

    /// Applies `collective` to the devices holding the interned states
    /// `members` (in group order), memoized across all workers. Returns the
    /// members' post-condition state ids in order, plus whether the entry was
    /// already cached (`hit`).
    ///
    /// # Errors
    ///
    /// The [`SemanticsError`] of the violated pre-condition, memoized exactly
    /// like a success.
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned or any id in `members` was not produced
    /// by this table.
    #[allow(clippy::type_complexity)]
    pub fn apply(
        &self,
        collective: Collective,
        members: &[u32],
    ) -> (Result<Arc<[u32]>, SemanticsError>, bool) {
        let mut key = Vec::with_capacity(members.len() + 1);
        key.push(collective as u32);
        key.extend_from_slice(members);
        let shard = &self.apply_shards[Self::apply_shard(&key)];
        if let Some(entry) = shard.read().expect("apply shard lock").get(key.as_slice()) {
            self.apply_hits.fetch_add(1, Ordering::Relaxed);
            return (entry.clone(), true);
        }
        self.apply_misses.fetch_add(1, Ordering::Relaxed);
        // Run the semantics outside every lock; the participant fetch is
        // lock-free through the arena.
        let states: Vec<Arc<State>> = members.iter().map(|&id| self.arena.get(id)).collect();
        let refs: Vec<&State> = states.iter().map(Arc::as_ref).collect();
        let result = apply_collective_refs(collective, &refs);
        let entry: Result<Arc<[u32]>, SemanticsError> =
            result.map(|after| after.into_iter().map(|s| self.intern(s).0).collect());
        // Racing workers compute identical entries (same interner), so
        // keeping the first insert is purely cosmetic.
        let out = shard
            .write()
            .expect("apply shard lock")
            .entry(key.into_boxed_slice())
            .or_insert(entry)
            .clone();
        (out, false)
    }

    /// Number of distinct device states interned so far. Deterministic once a
    /// sweep has drained, for any worker count.
    pub fn num_states(&self) -> usize {
        self.arena.len()
    }

    /// Number of distinct `(collective, participants)` entries memoized.
    pub fn num_apply_entries(&self) -> usize {
        self.apply_shards
            .iter()
            .map(|shard| shard.read().expect("apply shard lock").len())
            .sum()
    }

    /// Total applications answered from the shared cache, across all workers.
    pub fn apply_hits(&self) -> usize {
        self.apply_hits.load(Ordering::Relaxed)
    }

    /// Total applications that ran the semantics, across all workers.
    pub fn apply_misses(&self) -> usize {
        self.apply_misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::apply_collective;

    #[test]
    fn interner_dedups_and_roundtrips() {
        let mut interner = StateInterner::new();
        assert!(interner.is_empty());
        let ids: Vec<u32> = (0..3)
            .map(|d| interner.intern(State::initial(3, d)))
            .collect();
        assert_eq!(interner.len(), 3);
        for (d, &id) in ids.iter().enumerate() {
            assert_eq!(*interner.get(id), State::initial(3, d));
            assert_eq!(interner.intern(State::initial(3, d)), id);
        }
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn apply_cache_matches_direct_semantics() {
        let mut interner = StateInterner::new();
        let mut cache = ApplyCache::new();
        let states: Vec<State> = (0..4).map(|d| State::initial(4, d)).collect();
        let ids: Vec<u32> = states.iter().map(|s| interner.intern(s.clone())).collect();
        for collective in Collective::ALL {
            let direct = apply_collective(collective, &states);
            let cached = cache
                .apply(&mut interner, collective, &ids)
                .map(|out| out.to_vec());
            match (direct, cached) {
                (Ok(direct), Ok(out_ids)) => {
                    let via_cache: Vec<State> =
                        out_ids.iter().map(|&id| interner.get(id).clone()).collect();
                    assert_eq!(direct, via_cache, "{collective} diverged through the cache");
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("{collective}: direct {a:?} vs cached {b:?}"),
            }
        }
        assert_eq!(cache.misses(), Collective::ALL.len());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn apply_cache_hits_on_repeats_and_memoizes_errors() {
        let mut interner = StateInterner::new();
        let mut cache = ApplyCache::new();
        let ids: Vec<u32> = (0..2)
            .map(|d| interner.intern(State::initial(2, d)))
            .collect();
        let first = cache
            .apply(&mut interner, Collective::AllReduce, &ids)
            .unwrap()
            .to_vec();
        let again = cache
            .apply(&mut interner, Collective::AllReduce, &ids)
            .unwrap()
            .to_vec();
        assert_eq!(first, again);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Reducing the already-reduced pair double-counts; the error is
        // memoized like any other result.
        let err = cache
            .apply(&mut interner, Collective::AllReduce, &first)
            .unwrap_err();
        assert_eq!(err, SemanticsError::OverlappingContributions);
        let err2 = cache
            .apply(&mut interner, Collective::AllReduce, &first)
            .unwrap_err();
        assert_eq!(err, err2);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn shared_tables_match_local_apply_cache() {
        let shared = SharedTables::new();
        let mut interner = StateInterner::new();
        let mut cache = ApplyCache::new();
        let states: Vec<State> = (0..4).map(|d| State::initial(4, d)).collect();
        let local_ids: Vec<u32> = states.iter().map(|s| interner.intern(s.clone())).collect();
        let shared_ids: Vec<u32> = states.iter().map(|s| shared.intern(s.clone()).0).collect();
        for collective in Collective::ALL {
            let local = cache
                .apply(&mut interner, collective, &local_ids)
                .map(|out| {
                    out.iter()
                        .map(|&id| interner.get(id).clone())
                        .collect::<Vec<_>>()
                });
            let (result, hit) = shared.apply(collective, &shared_ids);
            assert!(!hit);
            let via_shared =
                result.map(|out| out.iter().map(|&id| (*shared.get(id)).clone()).collect());
            assert_eq!(
                local, via_shared,
                "{collective} diverged through SharedTables"
            );
            // Repeats hit.
            let (_, hit) = shared.apply(collective, &shared_ids);
            assert!(hit);
        }
        assert_eq!(shared.apply_misses(), Collective::ALL.len());
        assert_eq!(shared.apply_hits(), Collective::ALL.len());
        assert!(shared.num_apply_entries() > 0);
    }

    #[test]
    fn shared_tables_report_presence_on_intern() {
        let shared = SharedTables::new();
        let (a, present) = shared.intern(State::initial(2, 0));
        assert!(!present);
        let (b, present) = shared.intern(State::initial(2, 0));
        assert!(present);
        assert_eq!(a, b);
        assert_eq!(shared.num_states(), 1);
    }

    #[test]
    fn shared_tables_are_consistent_under_concurrency() {
        let shared = Arc::new(SharedTables::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let ids: Vec<u32> = (0..4)
                        .map(|d| shared.intern(State::initial(4, d)).0)
                        .collect();
                    let (result, _) = shared.apply(Collective::AllReduce, &ids);
                    let out = result.unwrap();
                    out.iter()
                        .map(|&id| (*shared.get(id)).clone())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outputs: Vec<Vec<State>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        // 4 initial states + 1 shared post-AllReduce state.
        assert_eq!(shared.num_states(), 5);
        assert_eq!(shared.num_apply_entries(), 1);
    }

    #[test]
    fn interner_lookup_and_get_arc() {
        let mut interner = StateInterner::new();
        assert_eq!(interner.lookup(&State::initial(2, 0)), None);
        let id = interner.intern(State::initial(2, 0));
        assert_eq!(interner.lookup(&State::initial(2, 0)), Some(id));
        assert_eq!(*interner.get_arc(id), State::initial(2, 0));
    }

    #[test]
    fn distinct_collectives_do_not_collide() {
        let mut interner = StateInterner::new();
        let mut cache = ApplyCache::new();
        let ids: Vec<u32> = (0..2)
            .map(|d| interner.intern(State::initial(2, d)))
            .collect();
        let reduced = cache
            .apply(&mut interner, Collective::Reduce, &ids)
            .unwrap()
            .to_vec();
        let all = cache
            .apply(&mut interner, Collective::AllReduce, &ids)
            .unwrap()
            .to_vec();
        assert_ne!(reduced, all);
        assert_eq!(cache.misses(), 2);
    }
}
