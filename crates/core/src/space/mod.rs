//! Hash-consed state spaces: one [`Arena`] of dense [`StateId`]s over a
//! model's reachable states, with CSR-packed successor adjacency, a sharded
//! concurrent intern table, packed state storage and deterministic parallel
//! layer expansion.
//!
//! Every exact engine in this crate (valence, connectivity, layering, the
//! consensus checker) explores the same graded state graph. Keying those
//! explorations on full cloned model states makes each hash, clone and
//! equality test cost `O(|state|)` — the direct cause of the n≤3 enumeration
//! ceiling this module removes. An [`Arena`] interns each distinct state
//! exactly once and hands out a dense `u32` [`StateId`]; the engines then
//! memoize in flat `Vec`s indexed by id and walk successor lists that are
//! computed once and packed into a single flat edge array (compressed sparse
//! row layout).
//!
//! # Canonicalization strategies
//!
//! The arena is generic over a [`Canonicalization`] strategy, which decides
//! what gets interned in place of each raw state ([`canon`]):
//!
//! * [`Identity`] interns states as they are — the full state graph. Its
//!   per-edge witness and per-state orbit size are zero-sized, so the
//!   identity arena pays nothing for the quotient's bookkeeping.
//! * [`OrbitMin`] interns one canonical representative per
//!   process-renaming orbit of a [`Symmetric`] model — the quotient graph.
//!   Each cached edge `c → c'` additionally stores a permutation `σ` with
//!   `σ · y = c'` for the raw successor `y ∈ S(c)` it came from, and each
//!   representative its orbit size; [`Arena::dequotient_path`] folds the
//!   witnesses back into a genuine execution. The construction is a
//!   quotient only over an equivariant layering (`S(π·x) = π·S(x)`), so
//!   orbit arenas panic unless [`Symmetric::symmetric_layering`] holds.
//!
//! [`StateSpace`] and [`QuotientSpace`] name the two instantiations.
//!
//! # Packed storage
//!
//! When the model provides a [`StatePacker`]
//! ([`LayeredModel::state_packer`]), [`Arena::new`] stores each state as a
//! single `u128` word instead of the boxed model struct: hashing, equality
//! and lookup all operate on the word, and states are only unpacked at the
//! [`resolve`](Arena::resolve) boundary. States the codec cannot represent
//! *spill* into a side vector (tagged via [`pack::SPILL_TAG`]), so packing
//! is always a pure representation change — ids, layers and every derived
//! report are identical to the boxed arena's ([`Arena::new_boxed`]).
//!
//! # Sharded interning
//!
//! The intern index is split into [`SHARD_COUNT`] shards keyed by state
//! hash, each behind its own mutex. During bulk expansion worker threads
//! canonicalize, probe and *stage* new states concurrently: a previously
//! unseen state is appended to its shard's pending list and identified by a
//! provisional id. No dense id is assigned concurrently — after the workers
//! join, the calling thread walks the frontier's successor lists **in
//! frontier order** and renumbers every provisional id in first-touch order
//! ([`ProvMap`]), which is exactly the order the sequential path would have
//! interned them in. The staged states are then published into the dense
//! store and the shard buckets rewritten. Parallelism changes how fast
//! successor lists are produced, never which states exist, their ids, or
//! the contents of any layer, so sequential and parallel expansion are
//! bit-identical.
//!
//! # Id layout and determinism
//!
//! Ids are assigned in *interning order*: the first distinct representative
//! presented to [`Arena::intern`] gets id 0, the next distinct one id 1, and
//! so on. All exploration routines here present states in a canonical order
//! (roots in the order given, then successor lists in model order, level by
//! level), so for a fixed model and entry point the id assignment — and
//! everything derived from it — is deterministic.
//!
//! # Persistence
//!
//! Arenas serialize to versioned, integrity-hashed snapshots (see
//! [`snapshot`]): the state arena (packed words or boxed states), intern
//! index, CSR successor cache, per-state successor fingerprints and the
//! strategy's orbit sizes and edge witnesses round-trip byte-identically,
//! so a scan can be resumed — deepened, re-budgeted, or differentially
//! re-verified after a protocol change via [`Arena::refresh_differential`]
//! — instead of recomputed.

pub mod canon;
pub mod pack;
pub mod snapshot;
mod sweep;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::sync::{Mutex, MutexGuard, TryLockError};

use fxhash::{FxHashMap, FxHasher};

pub use self::canon::{Canonicalization, Identity, OrbitMin};
use self::pack::{word_hash, StatePacker, SPILL_TAG};
pub use self::sweep::{sweep, NextLevel};
use crate::sym::{PidPerm, Symmetric};
use crate::telemetry::{
    clock, trace, Heartbeat, MemoryBreakdown, MemoryFootprint, Observer, Span, NOOP,
};
use crate::LayeredModel;

/// Number of bits of the state hash that select an intern shard.
const SHARD_BITS: u32 = 4;

/// Number of independently locked shards in the intern index. A fixed
/// power of two: the shard of a state is the low [`SHARD_BITS`] bits of its
/// hash, so shard assignment is a pure function of the state and identical
/// at every thread count.
pub const SHARD_COUNT: usize = 1 << SHARD_BITS;

/// Bucket entries with this bit set index a shard's pending (staged) list
/// instead of the dense store. Caps dense ids at `2^31`.
const PENDING_BIT: u32 = 1 << 31;

/// Provisional ids with this bit set refer to a staged state
/// (`shard << 32 | pending index`); without it they are dense ids.
const PROV_PENDING: u64 = 1 << 63;

/// The shard owning hash `h`.
fn shard_of(h: u64) -> usize {
    (h & (SHARD_COUNT as u64 - 1)) as usize
}

/// FxHash of a full model state (the boxed-store / spill-path hash).
fn fx_hash<S: Hash>(s: &S) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

/// Dense identifier of an interned state within one [`Arena`].
///
/// Ids are only meaningful relative to the space that produced them; they
/// are assigned contiguously from 0 in interning order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(u32);

impl StateId {
    /// The id as a dense `usize` index (`0..space.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Range of a state's successor list inside the packed edge array.
#[derive(Clone, Copy, Debug)]
struct SuccRange {
    start: u32,
    len: u32,
}

/// How a state probes the intern index: its shard-selecting hash, plus the
/// packed word when the store is packed and the state fits the codec
/// (`None` means boxed comparison — the boxed store, or a spilled state).
struct ProbeKey {
    hash: u64,
    word: Option<u128>,
}

/// A staged (not yet dense) state held in a shard's pending list.
enum PendKey<S> {
    /// Packed representation (packed store, codec fits).
    Word(u128),
    /// Boxed representation (boxed store, or a spilled state).
    State(S),
}

/// The arena's state storage: boxed model structs, or packed `u128` words
/// with a spill vector for states the codec cannot represent. Word slots
/// with [`SPILL_TAG`] set index the spill vector.
enum Store<S> {
    /// One boxed state per id.
    Boxed(Vec<S>),
    /// One word per id; spilled states live in `spill`.
    Packed {
        /// The model's codec.
        packer: StatePacker<S>,
        /// Per-id packed word, or `SPILL_TAG | spill index`.
        words: Vec<u128>,
        /// States the codec could not represent.
        spill: Vec<S>,
    },
}

/// A read-only view of one store slot (used by snapshot encoding and index
/// rebuilding).
enum Slot<'a, S> {
    /// A packed word (never has [`SPILL_TAG`] set).
    Word(u128),
    /// A boxed or spilled state.
    State(&'a S),
}

impl<S: Clone + Eq + Hash> Store<S> {
    fn boxed() -> Self {
        Store::Boxed(Vec::new())
    }

    fn packed(packer: StatePacker<S>) -> Self {
        Store::Packed {
            packer,
            words: Vec::new(),
            spill: Vec::new(),
        }
    }

    fn is_packed(&self) -> bool {
        matches!(self, Store::Packed { .. })
    }

    fn len(&self) -> usize {
        match self {
            Store::Boxed(v) => v.len(),
            Store::Packed { words, .. } => words.len(),
        }
    }

    fn spill_len(&self) -> usize {
        match self {
            Store::Boxed(_) => 0,
            Store::Packed { spill, .. } => spill.len(),
        }
    }

    /// The probe key of `s` under this store's representation.
    fn key_of(&self, s: &S) -> ProbeKey {
        match self {
            Store::Boxed(_) => ProbeKey {
                hash: fx_hash(s),
                word: None,
            },
            Store::Packed { packer, .. } => match packer.pack(s) {
                Some(w) => ProbeKey {
                    hash: word_hash(w),
                    word: Some(w),
                },
                None => ProbeKey {
                    hash: fx_hash(s),
                    word: None,
                },
            },
        }
    }

    /// The state behind slot `i`, owned (unpacked or cloned).
    fn get(&self, i: usize) -> S {
        match self {
            Store::Boxed(v) => v[i].clone(),
            Store::Packed {
                packer,
                words,
                spill,
            } => {
                let w = words[i];
                if w & SPILL_TAG == 0 {
                    packer.unpack(w)
                } else {
                    spill[(w ^ SPILL_TAG) as usize].clone()
                }
            }
        }
    }

    /// Whether slot `i` holds the state with probe key `key` / value `s`.
    /// Packed slots compare by word; packability is equality-invariant
    /// (codec contract), so a packed slot can never equal a spilled probe.
    fn slot_matches(&self, i: usize, key: &ProbeKey, s: &S) -> bool {
        match self {
            Store::Boxed(v) => v[i] == *s,
            Store::Packed { words, spill, .. } => {
                let w = words[i];
                if w & SPILL_TAG == 0 {
                    key.word == Some(w)
                } else {
                    key.word.is_none() && spill[(w ^ SPILL_TAG) as usize] == *s
                }
            }
        }
    }

    /// Whether slots `i` and `j` hold equal states (index rebuilding).
    fn slots_equal(&self, i: usize, j: usize) -> bool {
        match self {
            Store::Boxed(v) => v[i] == v[j],
            Store::Packed { words, spill, .. } => {
                let (a, b) = (words[i], words[j]);
                if a & SPILL_TAG == 0 || b & SPILL_TAG == 0 {
                    a == b
                } else {
                    spill[(a ^ SPILL_TAG) as usize] == spill[(b ^ SPILL_TAG) as usize]
                }
            }
        }
    }

    /// Appends `s` (with its already-computed probe key) as the next dense
    /// slot.
    fn push(&mut self, key: &ProbeKey, s: &S) {
        match self {
            Store::Boxed(v) => v.push(s.clone()),
            Store::Packed { words, spill, .. } => match key.word {
                Some(w) => words.push(w),
                None => {
                    let idx = spill.len() as u128;
                    spill.push(s.clone());
                    words.push(SPILL_TAG | idx);
                }
            },
        }
    }

    /// Publishes a staged state as the next dense slot.
    fn push_pend(&mut self, key: PendKey<S>) {
        match (self, key) {
            (Store::Boxed(v), PendKey::State(s)) => v.push(s),
            (Store::Packed { words, .. }, PendKey::Word(w)) => words.push(w),
            (Store::Packed { words, spill, .. }, PendKey::State(s)) => {
                let idx = spill.len() as u128;
                spill.push(s);
                words.push(SPILL_TAG | idx);
            }
            (Store::Boxed(_), PendKey::Word(_)) => {
                unreachable!("boxed stores never stage packed words")
            }
        }
    }

    /// Appends a decoded packed word (snapshot loading; packed stores only).
    fn push_word(&mut self, w: u128) {
        match self {
            Store::Packed { words, .. } => words.push(w),
            Store::Boxed(_) => unreachable!("boxed stores hold no words"),
        }
    }

    /// Appends a decoded boxed/spilled state (snapshot loading).
    fn push_spilled(&mut self, s: S) {
        match self {
            Store::Boxed(v) => v.push(s),
            Store::Packed { words, spill, .. } => {
                let idx = spill.len() as u128;
                spill.push(s);
                words.push(SPILL_TAG | idx);
            }
        }
    }

    /// Whether `s` fits this store's codec (always false for boxed stores).
    fn packs(&self, s: &S) -> bool {
        matches!(self, Store::Packed { packer, .. } if packer.pack(s).is_some())
    }

    /// A read-only view of slot `i`.
    fn slot(&self, i: usize) -> Slot<'_, S> {
        match self {
            Store::Boxed(v) => Slot::State(&v[i]),
            Store::Packed { words, spill, .. } => {
                let w = words[i];
                if w & SPILL_TAG == 0 {
                    Slot::Word(w)
                } else {
                    Slot::State(&spill[(w ^ SPILL_TAG) as usize])
                }
            }
        }
    }

    /// The intern hash of slot `i` (identical to `key_of(get(i)).hash`).
    fn hash_of_slot(&self, i: usize) -> u64 {
        match self.slot(i) {
            Slot::Word(w) => word_hash(w),
            Slot::State(s) => fx_hash(s),
        }
    }

    /// Shallow capacity-based byte accounting of the state payloads.
    fn state_bytes(&self) -> u64 {
        match self {
            Store::Boxed(v) => v.capacity() as u64 * std::mem::size_of::<S>() as u64,
            Store::Packed { words, spill, .. } => {
                words.capacity() as u64 * 16
                    + spill.capacity() as u64 * std::mem::size_of::<S>() as u64
            }
        }
    }

    /// Bytes the packed representation saves over boxing every state
    /// (0 for boxed stores; spilled states save nothing).
    fn bytes_saved(&self) -> u64 {
        let per_state = std::mem::size_of::<S>().saturating_sub(16) as u64;
        per_state * (self.len() - self.spill_len()) as u64
    }
}

/// One intern shard: hash-bucketed candidate entries plus the pending list
/// of states staged during the current bulk expansion. Bucket entries are
/// dense ids, or `PENDING_BIT | pending index` while staged; dense entries
/// are kept in ascending id order (== interning order).
struct Shard<S, O> {
    buckets: FxHashMap<u64, Vec<u32>>,
    /// Staged states: `(hash, key, orbit size)` — the orbit size is the
    /// strategy's ([`Canonicalization::Orbit`]), `()` under [`Identity`].
    pending: Vec<(u64, PendKey<S>, O)>,
}

impl<S, O> Default for Shard<S, O> {
    fn default() -> Self {
        Shard {
            buckets: FxHashMap::default(),
            pending: Vec::new(),
        }
    }
}

/// Aggregated interning statistics from one bulk expansion. `hits` and
/// `misses` are thread-count-invariant (each raw successor is probed
/// exactly once; misses count distinct new states); `contention` and
/// `retries` measure lock pressure and are inherently nondeterministic.
#[derive(Clone, Copy, Default, Debug)]
struct InternStats {
    hits: u64,
    misses: u64,
    contention: u64,
    retries: u64,
}

impl InternStats {
    fn merge(&mut self, o: &InternStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.contention += o.contention;
        self.retries += o.retries;
    }
}

/// Locks a shard, counting contention: a failed `try_lock` bumps
/// `contention`, each spin retry bumps `retries`, and after a bounded spin
/// the caller parks on the blocking lock.
fn lock_counting<'a, S, O>(
    m: &'a Mutex<Shard<S, O>>,
    stats: &mut InternStats,
) -> MutexGuard<'a, Shard<S, O>> {
    match m.try_lock() {
        Ok(g) => return g,
        Err(TryLockError::WouldBlock) => stats.contention += 1,
        Err(TryLockError::Poisoned(_)) => panic!("intern shard poisoned: a worker panicked"),
    }
    for _ in 0..64 {
        std::hint::spin_loop();
        match m.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::WouldBlock) => stats.retries += 1,
            Err(TryLockError::Poisoned(_)) => panic!("intern shard poisoned: a worker panicked"),
        }
    }
    match m.lock() {
        Ok(g) => g,
        Err(_) => panic!("intern shard poisoned: a worker panicked"),
    }
}

/// The sharded concurrent intern index behind every [`Arena`].
struct ShardedIndex<S, O> {
    shards: Vec<Mutex<Shard<S, O>>>,
}

impl<S: Clone + Eq + Hash, O: Copy> ShardedIndex<S, O> {
    fn new() -> Self {
        ShardedIndex {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }

    /// Exclusive access to the shard owning `h` (single-threaded paths).
    fn shard_mut(&mut self, h: u64) -> &mut Shard<S, O> {
        match self.shards[shard_of(h)].get_mut() {
            Ok(g) => g,
            Err(_) => panic!("intern shard poisoned: a worker panicked"),
        }
    }

    /// Locked access to the shard owning `h` (shared-borrow paths).
    fn shard(&self, h: u64) -> MutexGuard<'_, Shard<S, O>> {
        match self.shards[shard_of(h)].lock() {
            Ok(g) => g,
            Err(_) => panic!("intern shard poisoned: a worker panicked"),
        }
    }

    /// Concurrent probe: returns the provisional id of `s` — its dense id
    /// if already interned, the id of an earlier staging if another probe
    /// already staged it this bulk round, or a fresh staging otherwise.
    fn probe_or_stage(
        &self,
        store: &Store<S>,
        key: &ProbeKey,
        s: &S,
        orbit: O,
        stats: &mut InternStats,
    ) -> u64 {
        let shard_no = shard_of(key.hash);
        let mut guard = lock_counting(&self.shards[shard_no], stats);
        let Shard { buckets, pending } = &mut *guard;
        let bucket = buckets.entry(key.hash).or_default();
        for &entry in bucket.iter() {
            if entry & PENDING_BIT != 0 {
                let idx = (entry & !PENDING_BIT) as usize;
                let hit = match (&pending[idx].1, &key.word) {
                    (PendKey::Word(w), Some(k)) => w == k,
                    (PendKey::State(t), None) => t == s,
                    _ => false,
                };
                if hit {
                    stats.hits += 1;
                    return PROV_PENDING | ((shard_no as u64) << 32) | idx as u64;
                }
            } else if store.slot_matches(entry as usize, key, s) {
                stats.hits += 1;
                return u64::from(entry);
            }
        }
        let idx = u32::try_from(pending.len()).expect("more than u32::MAX staged states");
        assert!(idx < PENDING_BIT, "shard pending list overflow");
        let pend = match key.word {
            Some(w) => PendKey::Word(w),
            None => PendKey::State(s.clone()),
        };
        pending.push((key.hash, pend, orbit));
        bucket.push(PENDING_BIT | idx);
        stats.misses += 1;
        PROV_PENDING | ((shard_no as u64) << 32) | u64::from(idx)
    }

    /// Per-shard pending-list lengths (sized for [`ProvMap::new`]).
    fn pending_lens(&mut self) -> Vec<usize> {
        self.shards
            .iter_mut()
            .map(|m| match m.get_mut() {
                Ok(g) => g.pending.len(),
                Err(_) => panic!("intern shard poisoned: a worker panicked"),
            })
            .collect()
    }

    /// Publishes every staged state into the dense store under the ids
    /// `map` assigned, rewriting the affected buckets (and restoring their
    /// ascending-id order). Returns the staged orbit sizes in dense id
    /// order.
    fn publish(&mut self, store: &mut Store<S>, map: &ProvMap) -> Vec<O> {
        let mut staged: Vec<(u32, PendKey<S>, O)> = Vec::new();
        for (shard_no, m) in self.shards.iter_mut().enumerate() {
            let shard = match m.get_mut() {
                Ok(g) => g,
                Err(_) => panic!("intern shard poisoned: a worker panicked"),
            };
            if shard.pending.is_empty() {
                continue;
            }
            let mut hashes: Vec<u64> = shard.pending.iter().map(|p| p.0).collect();
            hashes.sort_unstable();
            hashes.dedup();
            for h in hashes {
                let bucket = shard
                    .buckets
                    .get_mut(&h)
                    .expect("staged entry always has a bucket");
                for e in bucket.iter_mut() {
                    if *e & PENDING_BIT != 0 {
                        let id = map.assigned[shard_no][(*e & !PENDING_BIT) as usize];
                        debug_assert_ne!(id, u32::MAX, "staged state never renumbered");
                        *e = id;
                    }
                }
                bucket.sort_unstable();
            }
            for (idx, (_, key, orbit)) in shard.pending.drain(..).enumerate() {
                staged.push((map.assigned[shard_no][idx], key, orbit));
            }
        }
        staged.sort_unstable_by_key(|(id, _, _)| *id);
        let mut orbits = Vec::with_capacity(staged.len());
        for (id, key, orbit) in staged {
            debug_assert_eq!(id as usize, store.len(), "dense ids are contiguous");
            store.push_pend(key);
            orbits.push(orbit);
        }
        orbits
    }

    /// Inserts dense slot `i` of `store` into the index (snapshot
    /// rebuilding; slots must arrive in id order). Returns `false` if an
    /// equal state is already indexed.
    fn insert_slot(&mut self, store: &Store<S>, i: usize) -> bool {
        let h = store.hash_of_slot(i);
        let shard = self.shard_mut(h);
        let bucket = shard.buckets.entry(h).or_default();
        if bucket.iter().any(|&e| store.slots_equal(e as usize, i)) {
            return false;
        }
        bucket.push(u32::try_from(i).expect("more than u32::MAX states"));
        true
    }

    /// All buckets merged across shards, sorted by hash (snapshot
    /// encoding). Bucket hashes are disjoint across shards by construction.
    fn bucket_snapshot(&self) -> BTreeMap<u64, Vec<StateId>> {
        let mut out = BTreeMap::new();
        for m in &self.shards {
            let g = match m.lock() {
                Ok(g) => g,
                Err(_) => panic!("intern shard poisoned: a worker panicked"),
            };
            for (h, bucket) in &g.buckets {
                debug_assert!(
                    bucket.iter().all(|e| e & PENDING_BIT == 0),
                    "staging drained before snapshot"
                );
                out.insert(*h, bucket.iter().map(|&e| StateId(e)).collect());
            }
        }
        out
    }
}

/// The canonical renumbering pass: maps provisional ids to dense ids in
/// first-touch order. The caller resolves every successor list in frontier
/// order, so the first touch of each staged state happens in exactly the
/// order the sequential path would have interned it — dense ids are
/// therefore identical at every thread count.
struct ProvMap {
    /// Per shard, per pending index: the assigned dense id (`u32::MAX`
    /// until first touch).
    assigned: Vec<Vec<u32>>,
    next: u32,
}

impl ProvMap {
    fn new(pending_lens: &[usize], base: u32) -> Self {
        ProvMap {
            assigned: pending_lens.iter().map(|&l| vec![u32::MAX; l]).collect(),
            next: base,
        }
    }

    fn resolve(&mut self, prov: u64) -> StateId {
        if prov & PROV_PENDING == 0 {
            return StateId(prov as u32);
        }
        let shard = ((prov & !PROV_PENDING) >> 32) as usize;
        let idx = (prov & 0xFFFF_FFFF) as usize;
        let slot = &mut self.assigned[shard][idx];
        if *slot == u32::MAX {
            *slot = self.next;
            self.next = self.next.checked_add(1).expect("more than u32::MAX states");
        }
        StateId(*slot)
    }
}

/// Outcome of probing one dense bucket for a state: found (with the number
/// of equality comparisons it took) or absent (with the number of
/// candidates that were ruled out).
enum Probe {
    /// The state is interned as `.0`; `.1` candidates were compared.
    Hit(StateId, u64),
    /// The state is absent; `.0` candidates were compared and ruled out.
    Miss(u64),
}

/// Probes a dense bucket for a state equal to `s`. Only valid outside bulk
/// expansion (staged entries are always drained before direct interning).
fn probe_dense<S: Clone + Eq + Hash>(
    store: &Store<S>,
    bucket: Option<&Vec<u32>>,
    key: &ProbeKey,
    s: &S,
) -> Probe {
    match bucket {
        Some(b) => {
            for (probed, &e) in b.iter().enumerate() {
                debug_assert_eq!(e & PENDING_BIT, 0, "staging drained before direct probe");
                if store.slot_matches(e as usize, key, s) {
                    return Probe::Hit(StateId(e), probed as u64 + 1);
                }
            }
            Probe::Miss(b.len() as u64)
        }
        None => Probe::Miss(0),
    }
}

/// FxHash fingerprint of a raw successor list (length plus every element,
/// in order). Stored per state so a re-scan after a protocol change can
/// tell which successor lists moved ([`Arena::refresh_differential`])
/// without diffing the lists themselves. Fingerprint equality is treated
/// as list equality — a deliberate 64-bit-collision trade-off, identical
/// to the one the intern index already makes per bucket.
fn successor_fingerprint<S: Hash>(succs: &[S]) -> u64 {
    let mut h = FxHasher::default();
    succs.len().hash(&mut h);
    for s in succs {
        s.hash(&mut h);
    }
    h.finish()
}

/// What a differential refresh did: how many cached successor lists were
/// reused verbatim (fingerprint unchanged), how many were re-expanded, and
/// how many previously unseen states the re-expansion interned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DiffReport {
    /// Cached rows whose successor fingerprint was unchanged — their CSR
    /// and witness slices were copied verbatim.
    pub reused: usize,
    /// Cached rows whose fingerprint moved — re-expanded under the new
    /// model.
    pub recomputed: usize,
    /// States interned during re-expansion that the old arena had not seen.
    pub new_states: usize,
}

/// One row of a bulk expansion: per raw successor its provisional id and
/// witness, then the raw list's fingerprint.
type ProvRow<W> = (Vec<(u64, W)>, u64);

/// A [`ProvRow`] after renumbering: dense ids in place of provisional ones.
type IdRow<W> = (Vec<(StateId, W)>, u64);

/// One chunk's output from [`expand_chunk`]: rows in chunk order plus the
/// chunk's interning statistics.
type ChunkOutput<W> = (Vec<ProvRow<W>>, InternStats);

/// Expands one chunk of the frontier against the shared store and index:
/// per frontier state, the raw successor list is computed and fingerprinted,
/// and every successor canonicalized and its representative
/// probed-or-staged. Pure with respect to the dense arena — all novelty is
/// staged in the shards.
fn expand_chunk<M: LayeredModel, C: Canonicalization<M>>(
    model: &M,
    store: &Store<M::State>,
    index: &ShardedIndex<M::State, C::Orbit>,
    part: &[StateId],
) -> ChunkOutput<C::Witness> {
    let mut stats = InternStats::default();
    let rows = part
        .iter()
        .map(|&id| {
            let x = store.get(id.index());
            let raw = model.successors(&x);
            let fp = successor_fingerprint(&raw);
            let entries = raw
                .iter()
                .map(|y| {
                    let (rep, witness, orbit) = C::canonicalize(model, y);
                    let key = store.key_of(&rep);
                    let prov = index.probe_or_stage(store, &key, &rep, orbit, &mut stats);
                    (prov, witness)
                })
                .collect();
            (entries, fp)
        })
        .collect();
    (rows, stats)
}

/// A hash-consing arena over a model's states, canonicalized by the
/// strategy `C` ([`Identity`] or [`OrbitMin`]; see the [module docs](self)).
///
/// Interning deduplicates representatives structurally: `intern` returns
/// the same [`StateId`] for states with equal representatives and stores
/// each distinct representative exactly once. Successor lists are computed
/// lazily (or eagerly, in parallel, via [`Arena::prefetch_successors`]) and
/// cached in CSR form, so each `model.successors` call happens at most once
/// per state per arena.
///
/// # Examples
///
/// ```
/// use layered_core::space::StateSpace;
/// use layered_core::testkit::CounterModel;
/// use layered_core::LayeredModel;
///
/// let m = CounterModel::new(2, 4);
/// let x0 = m.initial_states().remove(0);
/// let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
/// let (id, ()) = space.intern(&m, &x0);
/// assert_eq!(space.intern(&m, &x0).0, id); // double-intern: same id
/// assert_eq!(space.resolve(id), x0); // round-trip
/// ```
pub struct Arena<M: LayeredModel, C: Canonicalization<M>> {
    /// Representatives, packed or boxed, indexed by [`StateId`].
    store: Store<M::State>,
    index: ShardedIndex<M::State, C::Orbit>,
    /// Orbit size of each representative (zero-sized under [`Identity`]).
    orbits: Vec<C::Orbit>,
    succ: Vec<Option<SuccRange>>,
    edges: Vec<StateId>,
    /// Per-edge witness, parallel to `edges`: for the edge at position `e`
    /// from `c` to `c'`, `witnesses[e] · y = c'` where `y ∈ S(c)` is the raw
    /// successor the edge was computed from (zero-sized under [`Identity`]).
    witnesses: Vec<C::Witness>,
    /// FxHash fingerprint of each state's *raw* (pre-canonicalization)
    /// successor list (0 until cached) — the differential-refresh change
    /// detector.
    succ_fp: Vec<u64>,
    strategy: PhantomData<C>,
}

/// The full-space arena: [`Arena`] under [`Identity`]. An alias kept for
/// existing callers.
pub type StateSpace<M> = Arena<M, Identity>;

/// The symmetry-quotient arena: [`Arena`] under [`OrbitMin`]. An alias
/// kept for existing callers.
pub type QuotientSpace<M> = Arena<M, OrbitMin>;

impl<M: LayeredModel, C: Canonicalization<M>> Arena<M, C> {
    /// An empty arena for `model`, storing states packed when the model
    /// provides a [`StatePacker`] ([`LayeredModel::state_packer`]), boxed
    /// otherwise. Packing is a pure representation change: ids, layers and
    /// every derived report are identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the strategy rejects `model` ([`OrbitMin`] over a
    /// non-equivariant layering would silently prune reachable orbits).
    #[must_use]
    pub fn new(model: &M) -> Self {
        let store = match model.state_packer() {
            Some(p) => Store::packed(p),
            None => Store::boxed(),
        };
        Self::with_store(model, store)
    }

    /// An empty arena with boxed storage even when the model packs (the
    /// consensus checker's store and the packed-vs-boxed cross-check path).
    ///
    /// # Panics
    ///
    /// Panics like [`Arena::new`].
    #[must_use]
    pub fn new_boxed(model: &M) -> Self {
        Self::with_store(model, Store::boxed())
    }

    fn with_store(model: &M, store: Store<M::State>) -> Self {
        C::check_model(model);
        Arena {
            store,
            index: ShardedIndex::new(),
            orbits: Vec::new(),
            succ: Vec::new(),
            edges: Vec::new(),
            witnesses: Vec::new(),
            succ_fp: Vec::new(),
            strategy: PhantomData,
        }
    }

    /// Number of distinct representatives interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Total successor edges cached so far (with multiplicity).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Appends the bookkeeping of `new` freshly interned representatives.
    fn grow(&mut self, new: impl IntoIterator<Item = C::Orbit>) {
        for orbit in new {
            self.orbits.push(orbit);
            self.succ.push(None);
            self.succ_fp.push(0);
        }
    }

    /// Interns a state that is *already* a representative with a known
    /// orbit size.
    fn intern_canonical(&mut self, rep: &M::State, orbit: C::Orbit, obs: &dyn Observer) -> StateId {
        let key = self.store.key_of(rep);
        let shard = self.index.shard_mut(key.hash);
        match probe_dense(&self.store, shard.buckets.get(&key.hash), &key, rep) {
            Probe::Hit(id, compared) => {
                C::count_hits(obs, 1);
                C::count_probe(obs, compared);
                return id;
            }
            Probe::Miss(compared) => C::count_probe(obs, compared),
        }
        let id = u32::try_from(self.store.len()).expect("more than u32::MAX states");
        self.store.push(&key, rep);
        shard.buckets.entry(key.hash).or_default().push(id);
        self.grow([orbit]);
        C::count_new(obs, 1, &[orbit]);
        obs.gauge("space.states", self.store.len() as u64);
        C::report_orbits(obs, &self.orbits);
        StateId(id)
    }

    /// Interns `x`'s representative, returning its id and the witness `π`
    /// with `π · x` = the representative.
    pub fn intern(&mut self, model: &M, x: &M::State) -> (StateId, C::Witness) {
        self.intern_with(model, x, &NOOP)
    }

    /// [`Arena::intern`] with telemetry: the strategy's intern counters
    /// (`space.intern.hits` / `space.intern.misses` and the
    /// `space.intern.probe_len` histogram under [`Identity`];
    /// `space.canon.hits` / `space.canon.orbit_states`, the
    /// `space.canonicalize` span and the `space.quotient.mean_orbit_x1000`
    /// gauge under [`OrbitMin`]) plus the `space.states` gauge.
    pub fn intern_with(
        &mut self,
        model: &M,
        x: &M::State,
        obs: &dyn Observer,
    ) -> (StateId, C::Witness) {
        let (rep, witness, orbit) = C::canonicalize_traced(model, x, obs);
        (self.intern_canonical(&rep, orbit, obs), witness)
    }

    /// [`Arena::intern_with`] for each of `xs`, in order: their ids.
    pub fn intern_all(&mut self, model: &M, xs: &[M::State], obs: &dyn Observer) -> Vec<StateId> {
        xs.iter()
            .map(|x| self.intern_with(model, x, obs).0)
            .collect()
    }

    /// The id of `x`'s representative if it has been interned, without
    /// interning it.
    #[must_use]
    pub fn get(&self, model: &M, x: &M::State) -> Option<StateId> {
        let (rep, _, _) = C::canonicalize(model, x);
        let key = self.store.key_of(&rep);
        let shard = self.index.shard(key.hash);
        match probe_dense(&self.store, shard.buckets.get(&key.hash), &key, &rep) {
            Probe::Hit(id, _) => Some(id),
            Probe::Miss(_) => None,
        }
    }

    /// The representative behind `id`, owned: unpacked from the packed
    /// word, or cloned out of the boxed store.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    #[must_use]
    pub fn resolve(&self, id: StateId) -> M::State {
        self.store.get(id.index())
    }

    /// The representatives behind `ids`, owned.
    #[must_use]
    pub fn materialize(&self, ids: &[StateId]) -> Vec<M::State> {
        ids.iter().map(|&id| self.resolve(id)).collect()
    }

    /// Maps an id path along cached edges back to model states: the
    /// interned states under [`Identity`], the de-quotiented execution
    /// ([`Arena::dequotient_path`]) under [`OrbitMin`]. `None` if an orbit
    /// path leaves the cached edges.
    #[must_use]
    pub fn resolve_path(&self, model: &M, path: &[StateId]) -> Option<Vec<M::State>> {
        C::resolve_path(self, model, path)
    }

    /// The cached successor list of `id`, or `None` if it has not been
    /// computed yet.
    #[must_use]
    pub fn cached_successors(&self, id: StateId) -> Option<&[StateId]> {
        self.succ[id.index()].map(|r| {
            let start = r.start as usize;
            self.edges
                .get(start..start + r.len as usize)
                .expect("SuccRange lies within the edge array by construction")
        })
    }

    /// Packs resolved successor entries of `id` into the edge arrays. When
    /// the strategy collapses successors, entries are deduplicated by id
    /// (first witness wins). No-op if `id`'s successors are already cached.
    fn record_row(
        &mut self,
        id: StateId,
        entries: Vec<(StateId, C::Witness)>,
        fp: u64,
        obs: &dyn Observer,
    ) {
        if self.succ[id.index()].is_some() {
            return;
        }
        let start = u32::try_from(self.edges.len()).expect("more than u32::MAX edges");
        for (yid, witness) in entries {
            if C::COLLAPSES
                && self
                    .edges
                    .get(start as usize..)
                    .expect("the row starts at the old edge count")
                    .contains(&yid)
            {
                continue;
            }
            self.edges.push(yid);
            self.witnesses.push(witness);
        }
        let len = u32::try_from(self.edges.len()).expect("more than u32::MAX edges") - start;
        self.succ[id.index()] = Some(SuccRange { start, len });
        self.succ_fp[id.index()] = fp;
        obs.histogram("space.succ_fanout", len.into());
    }

    /// Canonicalizes and interns the raw successors of `id` (fingerprint
    /// `fp`) and records them as its row.
    fn record_successors(
        &mut self,
        model: &M,
        id: StateId,
        raw: &[M::State],
        fp: u64,
        obs: &dyn Observer,
    ) {
        let entries = raw
            .iter()
            .map(|y| {
                let (rep, witness, orbit) = C::canonicalize(model, y);
                (self.intern_canonical(&rep, orbit, obs), witness)
            })
            .collect();
        self.record_row(id, entries, fp, obs);
    }

    /// The fingerprint of `id`'s cached raw successor list, or `None` if
    /// the list has not been computed yet.
    #[must_use]
    pub fn successor_fingerprint_of(&self, id: StateId) -> Option<u64> {
        self.succ[id.index()].map(|_| self.succ_fp[id.index()])
    }

    /// Differential re-verification after a model change: recomputes the
    /// raw successor list of every state whose successors were cached,
    /// but re-canonicalizes and re-interns only the lists whose fingerprint
    /// moved under `model` — unchanged rows have their CSR and witness
    /// slices copied verbatim (for orbits this skips the `n!` work that
    /// dominates quotient expansion).
    ///
    /// The arena afterwards is *exactly* what caching every old row's new
    /// successor list would produce, modulo edge-array packing order (ids,
    /// states and per-row successor lists are identical; only `SuccRange`
    /// offsets may differ — invisible through [`cached_successors`]).
    /// States interned during re-expansion that the old arena had not seen
    /// start uncached, like any freshly interned state.
    ///
    /// Telemetry: runs under a `space.resume.refresh` span and reports the
    /// strategy's counters (`space.resume.rows_reused` /
    /// `space.resume.rows_recomputed` under [`Identity`],
    /// `space.resume.orbits_reused` / `space.resume.orbits_recomputed`
    /// under [`OrbitMin`]).
    ///
    /// [`cached_successors`]: Arena::cached_successors
    pub fn refresh_differential(&mut self, model: &M, obs: &dyn Observer) -> DiffReport {
        let _span = Span::enter(obs, "space.resume.refresh");
        let old_len = self.store.len();
        let old_succ = std::mem::take(&mut self.succ);
        let old_edges = std::mem::take(&mut self.edges);
        let old_witnesses = std::mem::take(&mut self.witnesses);
        let old_fp = std::mem::take(&mut self.succ_fp);
        self.succ = vec![None; old_len];
        self.succ_fp = vec![0; old_len];
        let mut report = DiffReport::default();
        for k in 0..old_len {
            let Some(range) = old_succ[k] else { continue };
            let x = self.store.get(k);
            let raw = model.successors(&x);
            let fp = successor_fingerprint(&raw);
            if fp == old_fp[k] {
                let start = u32::try_from(self.edges.len()).expect("more than u32::MAX edges");
                let (s, e) = (range.start as usize, (range.start + range.len) as usize);
                self.edges.extend_from_slice(
                    old_edges
                        .get(s..e)
                        .expect("resumed SuccRange lies within the loaded edge array"),
                );
                self.witnesses.extend_from_slice(
                    old_witnesses
                        .get(s..e)
                        .expect("witnesses run parallel to the loaded edge array"),
                );
                self.succ[k] = Some(SuccRange {
                    start,
                    len: range.len,
                });
                self.succ_fp[k] = fp;
                report.reused += 1;
            } else {
                self.record_successors(model, StateId(k as u32), &raw, fp, obs);
                report.recomputed += 1;
            }
        }
        report.new_states = self.store.len() - old_len;
        C::report_refresh(obs, &report);
        report
    }

    /// The successor ids of `id` under `model`'s layering, computing,
    /// canonicalizing and caching the list on first use. Under a collapsing
    /// strategy, raw successors with one representative share one edge.
    pub fn successor_ids(&mut self, model: &M, id: StateId, obs: &dyn Observer) -> Vec<StateId> {
        if self.succ[id.index()].is_none() {
            let x = self.store.get(id.index());
            let raw = model.successors(&x);
            let fp = successor_fingerprint(&raw);
            self.record_successors(model, id, &raw, fp, obs);
        }
        self.cached_successors(id)
            .expect("successors just recorded")
            .to_vec()
    }

    /// The subset of `ids` whose successor lists are not cached yet.
    fn pending_of(&self, ids: &[StateId]) -> Vec<StateId> {
        ids.iter()
            .copied()
            .filter(|id| self.succ[id.index()].is_none())
            .collect()
    }

    /// Renumbers, publishes and records the results of one bulk expansion:
    /// provisional ids are resolved in frontier order ([`ProvMap`] — the
    /// canonical renumbering pass), staged representatives and their orbit
    /// sizes are published into the dense store, and every frontier row's
    /// CSR slice is packed.
    fn finish_bulk(
        &mut self,
        pending: &[StateId],
        rows: Vec<ProvRow<C::Witness>>,
        stats: InternStats,
        obs: &dyn Observer,
    ) {
        let base = u32::try_from(self.store.len()).expect("more than u32::MAX states");
        let mut map = ProvMap::new(&self.index.pending_lens(), base);
        let resolved: Vec<IdRow<C::Witness>> = rows
            .into_iter()
            .map(|(entries, fp)| {
                let ids = entries
                    .into_iter()
                    .map(|(prov, witness)| (map.resolve(prov), witness))
                    .collect();
                (ids, fp)
            })
            .collect();
        let new = self.index.publish(&mut self.store, &map);
        C::count_hits(obs, stats.hits);
        C::count_new(obs, stats.misses, &new);
        obs.counter("space.shard.contention", stats.contention);
        obs.counter("space.intern.cas_retries", stats.retries);
        self.grow(new);
        obs.gauge("space.states", self.store.len() as u64);
        C::report_orbits(obs, &self.orbits);
        for (&id, (entries, fp)) in pending.iter().zip(resolved) {
            self.record_row(id, entries, fp, obs);
        }
    }

    /// Bulk expansion of `ids` inline on the calling thread (no `Sync`
    /// bounds): the exact probe-stage-renumber-publish path the parallel
    /// variant uses.
    fn bulk_seq(&mut self, model: &M, ids: &[StateId], obs: &dyn Observer) {
        let pending = self.pending_of(ids);
        if pending.is_empty() {
            return;
        }
        let (rows, stats) = expand_chunk::<M, C>(model, &self.store, &self.index, &pending);
        self.finish_bulk(&pending, rows, stats, obs);
    }

    /// Eagerly computes, canonicalizes and caches the successor lists of
    /// `ids`, fanning the per-state work (`model.successors` plus the
    /// canonicalization of every raw successor) out across up to `threads`
    /// scoped workers that intern through the sharded index as they expand.
    ///
    /// Determinism: workers probe and stage concurrently, but no dense id
    /// is assigned until the renumbering pass on the calling thread walks
    /// the results in the order of `ids` — the exact order the sequential
    /// path would have used. The resulting interning order — and therefore
    /// every id, layer and report derived from it — is identical to calling
    /// [`Arena::successor_ids`] sequentially over `ids`.
    pub fn prefetch_successors(
        &mut self,
        model: &M,
        ids: &[StateId],
        threads: usize,
        obs: &dyn Observer,
    ) where
        M: Sync,
        M::State: Send + Sync,
    {
        let pending = self.pending_of(ids);
        if pending.is_empty() {
            return;
        }
        let threads = threads.max(1).min(pending.len());
        if threads == 1 {
            self.bulk_seq(model, &pending, obs);
            return;
        }
        let (store, index) = (&self.store, &self.index);
        let parent = trace::current_span_id();
        let chunked: Vec<ChunkOutput<C::Witness>> = std::thread::scope(|scope| {
            let handles: Vec<_> = balanced_chunks(&pending, threads)
                .map(|part| {
                    scope.spawn(move || {
                        let _span = Span::enter_under(
                            obs,
                            "space.prefetch_chunk",
                            parent,
                            &[("chunk_len", part.len() as u64)],
                        );
                        expand_chunk::<M, C>(model, store, index, part)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("successor worker panicked"))
                .collect()
        });
        let mut rows = Vec::with_capacity(pending.len());
        let mut stats = InternStats::default();
        for (r, s) in chunked {
            rows.extend(r);
            stats.merge(&s);
        }
        self.finish_bulk(&pending, rows, stats, obs);
    }

    /// Breadth-first expansion of the layered graph from `roots` for
    /// `horizon` layers, interning every root's representative and caching
    /// every successor list. Returns the interned levels (`levels[d]` =
    /// distinct representatives at depth `d` relative to the roots, in
    /// first-seen order).
    ///
    /// Telemetry: the sweep runs under a `space.build` span and reports
    /// `engine.states_visited`, `engine.dedup_hits` and the
    /// `engine.frontier_width` gauge alongside the interning counters.
    pub fn expand_layers(
        &mut self,
        model: &M,
        roots: &[M::State],
        horizon: usize,
        obs: &dyn Observer,
    ) -> Vec<Vec<StateId>> {
        self.expand_with(model, roots, horizon, obs, |space, frontier| {
            space.bulk_seq(model, frontier, obs);
        })
    }

    /// [`Arena::expand_layers`] with the per-level successor computation
    /// and canonicalization fanned out across up to `threads` scoped
    /// workers.
    ///
    /// Bit-identical to the sequential path (see
    /// [`Arena::prefetch_successors`] for why).
    pub fn expand_layers_parallel(
        &mut self,
        model: &M,
        roots: &[M::State],
        horizon: usize,
        threads: usize,
        obs: &dyn Observer,
    ) -> Vec<Vec<StateId>>
    where
        M: Sync,
        M::State: Send + Sync,
    {
        self.expand_with(model, roots, horizon, obs, |space, frontier| {
            space.prefetch_successors(model, frontier, threads, obs);
        })
    }

    fn expand_with(
        &mut self,
        model: &M,
        roots: &[M::State],
        horizon: usize,
        obs: &dyn Observer,
        mut prefetch: impl FnMut(&mut Self, &[StateId]),
    ) -> Vec<Vec<StateId>> {
        let _span = Span::enter(obs, "space.build");
        obs.gauge("space.shard.count", SHARD_COUNT as u64);
        let root_ids = self.intern_all(model, roots, obs);
        let mut levels: Vec<Vec<StateId>> = Vec::with_capacity(horizon + 1);
        let mut heartbeat = Heartbeat::new();
        let _: ControlFlow<()> = sweep(root_ids.iter().copied(), obs, |depth, level, next| {
            levels.push(level.to_vec());
            if depth == horizon {
                return ControlFlow::Continue(());
            }
            let _layer_span = Span::enter_with(
                obs,
                "space.layer",
                &[
                    ("depth", depth as u64 + 1),
                    ("frontier", level.len() as u64),
                ],
            );
            let layer_started = if obs.enabled() {
                clock::monotonic_ns()
            } else {
                0
            };
            prefetch(self, level);
            for &id in level {
                obs.counter("engine.states_visited", 1);
                next.extend(self.successor_ids(model, id, obs));
            }
            if obs.enabled() {
                obs.histogram(
                    "space.layer_expand_ns",
                    clock::monotonic_ns().saturating_sub(layer_started),
                );
            }
            heartbeat.tick(obs, depth + 1, next.len(), self.len());
            ControlFlow::Continue(())
        });
        levels.resize(horizon + 1, Vec::new());
        // Unlike the sweep driver, expansion counts duplicate roots.
        let dup_roots = root_ids.len() - levels[0].len();
        if dup_roots > 0 {
            obs.counter("engine.dedup_hits", dup_roots as u64);
        }
        levels
    }
}

impl<M: Symmetric> Arena<M, OrbitMin> {
    /// Total full-space states covered by the interned orbits (the sum of
    /// their orbit sizes) — the denominator-free form of the compression
    /// the quotient achieves.
    #[must_use]
    pub fn covered_states(&self) -> u64 {
        self.orbits.iter().sum()
    }

    /// The orbit size of the representative behind `id`.
    #[must_use]
    pub fn orbit_size_of(&self, id: StateId) -> u64 {
        self.orbits[id.index()]
    }

    /// The cached successor list of `id` together with the per-edge
    /// witnessing permutations.
    #[must_use]
    pub fn cached_successors_with_perms(&self, id: StateId) -> Option<(&[StateId], &[PidPerm])> {
        self.succ[id.index()].map(|r| {
            let (start, end) = (r.start as usize, r.start as usize + r.len as usize);
            (&self.edges[start..end], &self.witnesses[start..end])
        })
    }

    /// De-quotients an id path into a genuine execution of the model.
    ///
    /// Given representatives `c₀ → c₁ → ⋯ → c_k` along cached quotient
    /// edges with witnesses `σᵢ` (`σᵢ · yᵢ = cᵢ` for a raw successor
    /// `yᵢ ∈ S(cᵢ₋₁)`), the recurrence
    ///
    /// ```text
    ///     ρ₀ = id,   ρᵢ = ρᵢ₋₁ ∘ σᵢ⁻¹,   xᵢ = ρᵢ · cᵢ
    /// ```
    ///
    /// produces states with `x₀ = c₀` and `xᵢ ∈ S(xᵢ₋₁)`: indeed
    /// `xᵢ = ρᵢ₋₁ · yᵢ` with `yᵢ ∈ S(cᵢ₋₁)`, and equivariance gives
    /// `ρᵢ₋₁ · S(cᵢ₋₁) = S(ρᵢ₋₁ · cᵢ₋₁) = S(xᵢ₋₁)`. Since canonical
    /// representatives of initial-state orbits are themselves initial
    /// states (the initial set is closed under renaming), the returned
    /// sequence is a genuine `S`-execution whenever `c₀` is initial.
    ///
    /// Returns `None` if some consecutive pair is not a cached quotient
    /// edge (successors never computed, or not actually adjacent).
    #[must_use]
    pub fn dequotient_path(&self, model: &M, path: &[StateId]) -> Option<Vec<M::State>> {
        let first = path.first()?;
        let mut out = vec![self.resolve(*first)];
        let mut rho = PidPerm::identity(model.num_processes());
        for pair in path.windows(2) {
            let (succs, perms) = self.cached_successors_with_perms(pair[0])?;
            let pos = succs.iter().position(|&s| s == pair[1])?;
            rho = rho.compose(&perms[pos].inverse());
            out.push(model.permute_state(&self.resolve(pair[1]), &rho));
        }
        Some(out)
    }
}

/// Shared estimate of the sharded intern index's bytes: each shard map's
/// own capacity plus every bucket vector's. Shallow (allocator headers and
/// the drained pending scratch excluded), but deterministic — capacities
/// depend only on per-shard entry counts, which are a pure function of the
/// interned set.
fn index_bytes<S, O>(index: &ShardedIndex<S, O>) -> u64 {
    index
        .shards
        .iter()
        .map(|m| {
            let g = match m.lock() {
                Ok(g) => g,
                Err(_) => panic!("intern shard poisoned: a worker panicked"),
            };
            let table = g.buckets.capacity() as u64 * std::mem::size_of::<(u64, Vec<u32>)>() as u64;
            let buckets: u64 = g
                .buckets
                .values()
                .map(|b| b.capacity() as u64 * std::mem::size_of::<u32>() as u64)
                .sum();
            table + buckets
        })
        .sum()
}

/// Intern-table load factor in fixed-point thousandths
/// (`distinct hashes / table capacity × 1000`, summed across shards).
fn index_load_x1000<S, O>(index: &ShardedIndex<S, O>) -> u64 {
    let (mut len, mut cap) = (0u64, 0u64);
    for m in &index.shards {
        let g = match m.lock() {
            Ok(g) => g,
            Err(_) => panic!("intern shard poisoned: a worker panicked"),
        };
        len += g.buckets.len() as u64;
        cap += g.buckets.capacity() as u64;
    }
    len * 1000 / cap.max(1)
}

impl<M: LayeredModel, C: Canonicalization<M>> MemoryFootprint for Arena<M, C> {
    /// Shallow, capacity-based accounting (see
    /// [`telemetry::mem`](crate::telemetry::mem)): state payloads that own
    /// further heap (e.g. vectors inside `M::State`) are counted at their
    /// inline size only, so every figure is a deterministic lower bound.
    /// Packed stores count 16 bytes per word plus the spill vector; orbit
    /// arenas add their orbit sizes and per-edge permutations (counted at
    /// their inline size plus their permutation maps).
    fn memory_footprint(&self) -> MemoryBreakdown {
        let mut b = MemoryBreakdown::new();
        b.push("mem.space.states_bytes", self.store.state_bytes());
        b.push("mem.space.index_bytes", index_bytes(&self.index));
        b.push(
            "mem.space.edges_bytes",
            self.edges.capacity() as u64 * std::mem::size_of::<StateId>() as u64
                + self.succ.capacity() as u64 * std::mem::size_of::<Option<SuccRange>>() as u64,
        );
        C::extra_footprint(self, &mut b);
        b
    }

    /// Adds the `space.intern.load_x1000` and `space.pack.bytes_saved`
    /// gauges next to the byte gauges.
    fn report_memory(&self, obs: &dyn Observer) {
        self.memory_footprint().report(obs);
        obs.gauge("space.intern.load_x1000", index_load_x1000(&self.index));
        obs.gauge("space.pack.bytes_saved", self.store.bytes_saved());
    }
}

/// Splits `items` into at most `parts` contiguous chunks whose lengths
/// differ by at most one (the first `len % parts` chunks get the extra
/// element). Unlike `chunks(len.div_ceil(parts))`, this never produces a
/// degenerate tail chunk — 9 items over 8 workers yield chunks of
/// 2,1,1,1,1,1,1,1 instead of four chunks of 2 and one of 1 on 5 workers.
fn balanced_chunks<T>(items: &[T], parts: usize) -> impl Iterator<Item = &[T]> {
    let parts = parts.clamp(1, items.len().max(1));
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut start = 0;
    (0..parts).map(move |k| {
        let len = base + usize::from(k < extra);
        let part = items
            .get(start..start + len)
            .expect("chunk arithmetic partitions the slice exactly");
        start += len;
        part
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsRegistry;
    use crate::testkit::CounterModel;

    #[test]
    fn intern_round_trips_and_deduplicates() {
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
        let states = m.initial_states();
        let ids: Vec<StateId> = states.iter().map(|s| space.intern(&m, s).0).collect();
        // Dense, contiguous, in interning order.
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), k);
            assert_eq!(space.resolve(*id), states[k]);
        }
        // Double interning returns the same ids and allocates nothing.
        let before = space.len();
        for (k, s) in states.iter().enumerate() {
            assert_eq!(space.intern(&m, s).0, ids[k]);
        }
        assert_eq!(space.len(), before);
        assert_eq!(space.get(&m, &states[0]), Some(ids[0]));
    }

    #[test]
    fn successor_lists_are_cached_once() {
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
        let x0 = m.initial_states().remove(0);
        let (id, ()) = space.intern(&m, &x0);
        assert!(space.cached_successors(id).is_none());
        let a = space.successor_ids(&m, id, &NOOP);
        let edges_after_first = space.edge_count();
        let b = space.successor_ids(&m, id, &NOOP);
        assert_eq!(a, b);
        assert_eq!(space.edge_count(), edges_after_first, "no recompute");
        assert_eq!(space.materialize(&a), m.successors(&x0));
    }

    #[test]
    fn expand_layers_matches_model_exploration() {
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
        let levels = space.expand_layers(&m, &roots, 3, &NOOP);
        let reference = crate::explore(&m, &roots, 3);
        assert_eq!(levels.len(), reference.levels.len());
        for (ids, states) in levels.iter().zip(&reference.levels) {
            assert_eq!(&space.materialize(ids), states);
        }
    }

    #[test]
    fn parallel_expansion_is_bit_identical() {
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut seq: StateSpace<CounterModel> = StateSpace::new(&m);
        let seq_levels = seq.expand_layers(&m, &roots, 3, &NOOP);
        for threads in [2, 3, 8] {
            let mut par: StateSpace<CounterModel> = StateSpace::new(&m);
            let par_levels = par.expand_layers_parallel(&m, &roots, 3, threads, &NOOP);
            assert_eq!(seq_levels, par_levels, "threads={threads}");
            assert_eq!(seq.len(), par.len());
            for k in 0..seq.len() {
                let id = StateId(k as u32);
                assert_eq!(seq.resolve(id), par.resolve(id));
                assert_eq!(seq.cached_successors(id), par.cached_successors(id));
            }
        }
    }

    #[test]
    fn packed_and_boxed_arenas_agree() {
        // Packing is a pure representation change: the packed arena (what
        // `for_model` picks for CounterModel) and a boxed arena assign
        // identical ids, levels and successor lists.
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut packed: StateSpace<CounterModel> = StateSpace::new(&m);
        let mut boxed: StateSpace<CounterModel> = StateSpace::new_boxed(&m);
        assert!(packed.store.is_packed());
        assert!(!boxed.store.is_packed());
        let a = packed.expand_layers(&m, &roots, 3, &NOOP);
        let b = boxed.expand_layers(&m, &roots, 3, &NOOP);
        assert_eq!(a, b);
        assert_eq!(packed.len(), boxed.len());
        for k in 0..packed.len() {
            let id = StateId(k as u32);
            assert_eq!(packed.resolve(id), boxed.resolve(id));
            assert_eq!(packed.cached_successors(id), boxed.cached_successors(id));
        }
        assert!(packed.store.bytes_saved() > 0, "counter states shrink");
    }

    #[test]
    fn packed_arena_spills_wide_states() {
        // Value 9 exceeds the 2-bit input lane, so the state spills — and
        // still round-trips through the arena.
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
        let wide = m.initial_state(&[crate::Value::new(9), crate::Value::ZERO]);
        let narrow = m.initial_state(&[crate::Value::ONE, crate::Value::ZERO]);
        let (wid, ()) = space.intern(&m, &wide);
        let (nid, ()) = space.intern(&m, &narrow);
        assert_eq!(space.store.spill_len(), 1, "only the wide state spills");
        assert_eq!(space.resolve(wid), wide);
        assert_eq!(space.resolve(nid), narrow);
        assert_eq!(space.intern(&m, &wide).0, wid, "spilled states dedup too");
        assert_eq!(space.get(&m, &wide), Some(wid));
    }

    #[test]
    fn prefetch_marks_all_requested_states() {
        let m = CounterModel::new(2, 4);
        let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
        let ids: Vec<StateId> = m
            .initial_states()
            .iter()
            .map(|s| space.intern(&m, s).0)
            .collect();
        space.prefetch_successors(&m, &ids, 4, &NOOP);
        for &id in &ids {
            assert!(space.cached_successors(id).is_some());
        }
        // Prefetching again is a no-op.
        let edges = space.edge_count();
        space.prefetch_successors(&m, &ids, 4, &NOOP);
        assert_eq!(space.edge_count(), edges);
    }

    #[test]
    fn balanced_chunks_never_degenerate() {
        let items: Vec<u32> = (0..9).collect();
        let parts: Vec<&[u32]> = balanced_chunks(&items, 8).collect();
        assert_eq!(parts.len(), 8);
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![2, 1, 1, 1, 1, 1, 1, 1]);
        let flat: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(flat, items, "chunks cover the slice in order");
        // More workers than items: one chunk per item.
        assert_eq!(balanced_chunks(&items[..2], 8).count(), 2);
    }

    #[test]
    fn quotient_interning_collapses_orbits() {
        let m = CounterModel::new(3, 2);
        let mut q: QuotientSpace<CounterModel> = QuotientSpace::new(&m);
        // All single-one input vectors are one orbit.
        let mut ids = Vec::new();
        for inputs in crate::binary_input_vectors(3) {
            if inputs.iter().filter(|&&v| v == crate::Value::ONE).count() == 1 {
                let (id, perm) = q.intern(&m, &m.initial_state(&inputs));
                // The witness maps the state onto the stored representative.
                assert_eq!(
                    m.permute_state(&m.initial_state(&inputs), &perm),
                    q.resolve(id)
                );
                ids.push(id);
            }
        }
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "one orbit, one id");
        assert_eq!(q.len(), 1);
        assert_eq!(q.orbit_size_of(ids[0]), 3);
        assert_eq!(q.covered_states(), 3);
    }

    #[test]
    fn quotient_expansion_parity_and_dequotient() {
        let m = CounterModel::new(3, 3);
        let roots = m.initial_states();
        let mut q: QuotientSpace<CounterModel> = QuotientSpace::new(&m);
        let levels = q.expand_layers(&m, &roots, 2, &NOOP);
        // 2^3 = 8 input vectors collapse to 4 orbits (0..=3 ones).
        assert_eq!(levels[0].len(), 4);
        // Parallel expansion is bit-identical; so is the boxed arena.
        for threads in [2, 3, 8] {
            let mut par: QuotientSpace<CounterModel> = QuotientSpace::new(&m);
            let par_levels = par.expand_layers_parallel(&m, &roots, 2, threads, &NOOP);
            assert_eq!(levels, par_levels, "threads={threads}");
            assert_eq!(q.len(), par.len());
        }
        let mut boxed: QuotientSpace<CounterModel> = QuotientSpace::new_boxed(&m);
        let boxed_levels = boxed.expand_layers(&m, &roots, 2, &NOOP);
        assert_eq!(levels, boxed_levels);
        for k in 0..q.len() {
            let id = StateId(k as u32);
            assert_eq!(q.resolve(id), boxed.resolve(id));
            assert_eq!(q.orbit_size_of(id), boxed.orbit_size_of(id));
        }
        // Any root-to-leaf id path de-quotients into a genuine execution.
        let path = vec![levels[0][0], q.cached_successors(levels[0][0]).unwrap()[1]];
        let path = {
            let mut p = path;
            let last = *p.last().unwrap();
            p.push(q.cached_successors(last).unwrap()[0]);
            p
        };
        let genuine = q.dequotient_path(&m, &path).expect("cached edges");
        let trace = crate::ExecutionTrace::new(genuine);
        assert!(trace.validate(&m).is_ok());
    }

    #[test]
    fn quotient_telemetry_reports_canon_counters() {
        let m = CounterModel::new(3, 2);
        let reg = MetricsRegistry::new();
        let mut q: QuotientSpace<CounterModel> = QuotientSpace::new(&m);
        let x = m.initial_state(&[crate::Value::ONE, crate::Value::ZERO, crate::Value::ZERO]);
        let y = m.initial_state(&[crate::Value::ZERO, crate::Value::ZERO, crate::Value::ONE]);
        q.intern_with(&m, &x, &reg);
        q.intern_with(&m, &y, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("space.canon.hits"), 1, "same orbit twice");
        assert_eq!(snap.counter("space.canon.orbit_states"), 3);
        // One interned orbit covering 3 full states → a mean of 3.000 full
        // states per orbit, reported in fixed-point thousandths.
        assert_eq!(snap.gauge_max("space.quotient.mean_orbit_x1000"), 3000);
    }

    #[test]
    fn interning_telemetry_counts_hits_and_misses() {
        let m = CounterModel::new(2, 4);
        let reg = MetricsRegistry::new();
        let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
        let x0 = m.initial_states().remove(0);
        space.intern_with(&m, &x0, &reg);
        space.intern_with(&m, &x0, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("space.intern.misses"), 1);
        assert_eq!(snap.counter("space.intern.hits"), 1);
        assert_eq!(snap.gauge_max("space.states"), 1);
    }

    #[test]
    fn bulk_interning_counts_match_sequential_interning() {
        // hits/misses from the bulk path are thread-count-invariant.
        let m = CounterModel::new(3, 4);
        let roots = m.initial_states();
        let mut counts = Vec::new();
        for threads in [1, 2, 8] {
            let reg = MetricsRegistry::new();
            let mut space: StateSpace<CounterModel> = StateSpace::new(&m);
            space.expand_layers_parallel(&m, &roots, 3, threads, &reg);
            let snap = reg.snapshot();
            counts.push((
                snap.counter("space.intern.hits"),
                snap.counter("space.intern.misses"),
            ));
        }
        assert_eq!(counts[0], counts[1], "1 vs 2 threads");
        assert_eq!(counts[0], counts[2], "1 vs 8 threads");
    }
}
