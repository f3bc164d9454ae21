//! The shared bounded-cache machinery behind [`SolveCache`] and
//! [`OptCache`], plus the one content digest every instance key uses.
//!
//! Both engine caches are content-addressed maps from an instance (plus the
//! engine composition and budgets that determine the answer) to the
//! engine's full output, so a hit replays a cold run exactly and caching
//! never changes results — only skips work.
//!
//! **Keys.** A [`CacheKey`] has two parts. The *slot* is small: the engine
//! fingerprint (method tags and budget bytes, a few dozen bytes) plus the
//! instance's [`InstanceKey`], a word-wise digest of its canonical content.
//! The slot is what the index hashes, with std's randomly keyed hasher, so
//! clients cannot steer instances into one bucket of the index. The second
//! part is the instance itself, borrowed: a hit is confirmed by full
//! canonical-content equality against the stored copy, so a digest
//! collision can only cost a miss, never a wrong answer. Two instances that
//! share a slot simply share a bucket.
//!
//! **Bound.** One generic [`BoundedCache`], least-recently-used: at
//! capacity, inserting a new entry evicts the least-recently-*used* entry
//! (lookups refresh recency) and counts it in [`CacheStats::evictions`]. A
//! long-lived server therefore keeps a hot working set warm under an
//! unbounded request stream without unbounded memory growth, and a batch
//! sweep, whose working set stays far below the default cap, never evicts.
//!
//! Eviction can never change an answer — an evicted instance is simply
//! re-solved on its next miss, and re-solving is deterministic — so the
//! capacity is purely a memory/throughput trade-off.
//!
//! [`SolveCache`]: crate::solvers::cache::SolveCache
//! [`OptCache`]: crate::opt::cache::OptCache

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::model::EffectiveGame;
use crate::numeric::canonical_bits;
use crate::strategy::LinkLoads;

/// Hit/miss/eviction counters of a cache, read via `stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold run.
    pub misses: u64,
    /// Distinct entries currently stored.
    pub entries: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lane seeds and the per-word multiplier of [`ContentHasher`].
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn absorb(lane: u64, word: u64) -> u64 {
    // xor, odd multiply, rotate: a bijection of the lane for every word, so
    // two streams that differ in one word never meet in that lane.
    (lane ^ word).wrapping_mul(WORD_MUL).rotate_left(27)
}

/// A deterministic word-wise streaming digest: four interleaved lanes
/// (word `k` feeds lane `k mod 4`), so the dependency chains overlap and
/// the digest costs about a cycle per word.
///
/// The digest depends only on the sequence of words fed, never on how the
/// sequence was split across calls — a matrix fed row by row digests like
/// the same matrix fed flat. Floats are fed as their [`canonical_bits`].
/// Not collision-resistant against an adversary: every user of a digest
/// here confirms equality on the full content, or only exposes the digest
/// as an identifier.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lanes: [u64; 4],
    words: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// An empty digest.
    pub fn new() -> Self {
        ContentHasher {
            lanes: LANE_SEEDS,
            words: 0,
        }
    }

    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, word: u64) {
        let lane = (self.words % 4) as usize;
        self.lanes[lane] = absorb(self.lanes[lane], word);
        self.words += 1;
    }

    /// Feeds the canonical bits of every float, one word each (no length
    /// prefix: callers frame variable-length fields themselves).
    pub fn f64s(&mut self, values: &[f64]) {
        let mut rest = values;
        while !self.words.is_multiple_of(4) {
            let Some((&x, tail)) = rest.split_first() else {
                return;
            };
            self.word(canonical_bits(x));
            rest = tail;
        }
        let mut chunks = rest.chunks_exact(4);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for chunk in &mut chunks {
            a = absorb(a, canonical_bits(chunk[0]));
            b = absorb(b, canonical_bits(chunk[1]));
            c = absorb(c, canonical_bits(chunk[2]));
            d = absorb(d, canonical_bits(chunk[3]));
        }
        self.lanes = [a, b, c, d];
        self.words += 4 * (rest.len() / 4) as u64;
        for &x in chunks.remainder() {
            self.word(canonical_bits(x));
        }
    }

    /// Feeds a byte string: its length, then its bytes packed eight to a
    /// word (little-endian, zero-padded).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.words.wrapping_mul(WORD_MUL);
        for &lane in &self.lanes {
            h = absorb(h, lane);
        }
        // murmur3's 64-bit finaliser.
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The content digest of one instance: user and link counts, weights,
/// capacity matrix and initial loads, as canonical bits ([`canonical_bits`]
/// folds `±0.0` and NaN payloads, so semantically identical instances share
/// a digest).
///
/// One digest serves every instance-keyed table: the solve and opt warm
/// tiers key on it, and the serve layer derives its reply key from it. A
/// caller that already holds the digest (the serve layer computes it once
/// per request) passes it to `SolverEngine::open` / `OptEngine::open`
/// instead of paying the pass again; a wrong
/// digest can only cause misses, because hits compare the full content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceKey(u64);

impl InstanceKey {
    /// The digest of `game` with initial loads `initial`.
    pub fn of(game: &EffectiveGame, initial: &LinkLoads) -> Self {
        InstanceKey::of_rows(
            game.users(),
            game.links(),
            game.weights(),
            [game.capacities().as_slice()],
            initial.as_slice(),
        )
    }

    /// The same digest over an instance whose capacity matrix arrives as
    /// separate rows (a wire instance): equal to [`InstanceKey::of`] for the
    /// game those rows build.
    pub fn of_rows<'r>(
        users: usize,
        links: usize,
        weights: &[f64],
        rows: impl IntoIterator<Item = &'r [f64]>,
        initial: &[f64],
    ) -> Self {
        let mut h = ContentHasher::new();
        h.word(users as u64);
        h.word(links as u64);
        h.f64s(weights);
        for row in rows {
            h.f64s(row);
        }
        h.word(initial.len() as u64);
        h.f64s(initial);
        InstanceKey(h.finish())
    }

    /// The digest value.
    pub fn digest(self) -> u64 {
        self.0
    }
}

/// The hashed part of a cache key: the engine fingerprint plus the
/// instance digest. Small, so the index and the recency order can copy it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Slot {
    engine: Vec<u8>,
    instance: InstanceKey,
}

/// One engine call's warm-tier key: the engine fingerprint (method tags and
/// budgets), the instance digest, and the instance itself for the equality
/// check that confirms a hit. Built by `solvers::cache::cache_key` /
/// `opt::cache::cache_key`.
#[derive(Debug, Clone)]
pub struct CacheKey<'a> {
    slot: Slot,
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
}

impl<'a> CacheKey<'a> {
    /// A key for `game` under the engine fingerprint `engine`, filed under
    /// `instance` (normally [`InstanceKey::of`] the same game).
    pub fn new(
        engine: Vec<u8>,
        instance: InstanceKey,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
    ) -> Self {
        CacheKey {
            slot: Slot { engine, instance },
            game,
            initial,
        }
    }

    /// Whether the stored instance `(game, initial)` is canonically equal
    /// to this key's instance.
    fn holds(&self, game: &EffectiveGame, initial: &LinkLoads) -> bool {
        game.users() == self.game.users()
            && game.links() == self.game.links()
            && same_bits(game.weights(), self.game.weights())
            && same_bits(
                game.capacities().as_slice(),
                self.game.capacities().as_slice(),
            )
            && same_bits(initial.as_slice(), self.initial.as_slice())
    }
}

/// Equal slots and canonically equal instances: exactly when two keys
/// address the same entry.
impl PartialEq for CacheKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot && self.holds(other.game, other.initial)
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| x.to_bits() == y.to_bits() || canonical_bits(x) == canonical_bits(y))
}

/// One stored entry: its own copy of the instance (the equality check's
/// reference), the value, and its recency stamp.
#[derive(Debug)]
struct Entry<V> {
    game: EffectiveGame,
    initial: LinkLoads,
    value: V,
    tick: u64,
}

/// The interior map: buckets of entries by slot, plus a recency index
/// (`tick -> slot`) that makes LRU eviction `O(log n)`. Ticks come from a
/// monotone counter, so every entry's stamp is unique and names it within
/// its bucket.
#[derive(Debug)]
struct Table<V> {
    map: HashMap<Slot, Vec<Entry<V>>>,
    recency: BTreeMap<u64, Slot>,
    next_tick: u64,
    len: usize,
}

impl<V> Table<V> {
    /// Restamps the entry `key` addresses, if stored, as most recently used
    /// and returns it.
    fn touch(&mut self, key: &CacheKey<'_>) -> Option<&mut Entry<V>> {
        let entry = self
            .map
            .get_mut(&key.slot)?
            .iter_mut()
            .find(|entry| key.holds(&entry.game, &entry.initial))?;
        let tick = self.next_tick;
        self.next_tick += 1;
        self.recency
            .remove(&std::mem::replace(&mut entry.tick, tick));
        self.recency.insert(tick, key.slot.clone());
        Some(entry)
    }

    /// Drops the least-recently-used entry; `false` when nothing is stored.
    fn evict_oldest(&mut self) -> bool {
        let Some((oldest, slot)) = self.recency.pop_first() else {
            return false;
        };
        if let Some(bucket) = self.map.get_mut(&slot) {
            bucket.retain(|entry| entry.tick != oldest);
            if bucket.is_empty() {
                self.map.remove(&slot);
            }
        }
        self.len -= 1;
        true
    }
}

/// Entry cap of a [`BoundedCache::new`] cache: enough for any in-process
/// sweep while bounding a million-instance, mostly-miss workload to a few GB
/// at worst. Use [`BoundedCache::lru`] to tighten or loosen it.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A thread-safe content-addressed memoisation table with an LRU capacity
/// bound.
///
/// See the [module docs](self) for the key discipline and the bound. Values
/// must be `Clone` (hits hand out copies) and the whole cache is `Sync`,
/// shared as `Arc<...>` across threads and engines. Only the engines read
/// and write entries (`lookup`/`insert` are crate-private): a warm tier
/// holds nothing but complete cold runs.
#[derive(Debug)]
pub struct BoundedCache<V> {
    table: Mutex<Table<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> Default for BoundedCache<V> {
    fn default() -> Self {
        BoundedCache::lru(DEFAULT_CAPACITY)
    }
}

impl<V: Clone> BoundedCache<V> {
    /// An empty cache holding at most [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> Self {
        BoundedCache::default()
    }

    /// An empty cache holding at most `capacity` entries; at capacity, the
    /// least-recently-used entry is evicted to admit a new one (lookups
    /// refresh recency). Evictions are counted in [`CacheStats::evictions`]
    /// and can never change results — an evicted instance is simply
    /// recomputed on its next miss.
    pub fn lru(capacity: usize) -> Self {
        BoundedCache {
            table: Mutex::new(Table {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                next_tick: 0,
                len: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The entry cap this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current hit/miss/entry/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct entries stored.
    pub fn len(&self) -> usize {
        self.table.lock().expect("cache lock poisoned").len
    }

    /// Whether nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a key, counting the outcome as a hit or a miss. A hit also
    /// refreshes the entry's recency.
    pub(crate) fn lookup(&self, key: &CacheKey<'_>) -> Option<V> {
        let mut table = self.table.lock().expect("cache lock poisoned");
        let found = table.touch(key).map(|entry| entry.value.clone());
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a cold run's output under its key, copying the key's instance
    /// into the entry.
    ///
    /// At capacity the least-recently-used entry is evicted to admit it.
    /// Re-inserting a stored key updates it in place and never evicts. Two
    /// threads may race to insert the same key; both computed the same
    /// deterministic value, so either insert is correct.
    pub(crate) fn insert(&self, key: &CacheKey<'_>, value: V) {
        let mut table = self.table.lock().expect("cache lock poisoned");
        if let Some(entry) = table.touch(key) {
            entry.value = value;
            return;
        }
        if table.len >= self.capacity {
            // capacity == 0: nothing to evict, nothing admitted.
            if !table.evict_oldest() {
                return;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let tick = table.next_tick;
        table.next_tick += 1;
        table.recency.insert(tick, key.slot.clone());
        table.len += 1;
        table.map.entry(key.slot.clone()).or_default().push(Entry {
            game: key.game.clone(),
            initial: key.initial.clone(),
            value,
            tick,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinct 2-user, 2-link game per `seed`.
    fn game(seed: u64) -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![1.0 + seed as f64, 2.0],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        )
        .unwrap()
    }

    fn zero() -> LinkLoads {
        LinkLoads::zero(2)
    }

    /// Owns the games the keys of a test borrow.
    struct Keys {
        games: Vec<EffectiveGame>,
        zero: LinkLoads,
    }

    impl Keys {
        fn new(count: u64) -> Self {
            Keys {
                games: (0..count).map(game).collect(),
                zero: zero(),
            }
        }

        fn key(&self, i: usize) -> CacheKey<'_> {
            let game = &self.games[i];
            CacheKey::new(
                b"test".to_vec(),
                InstanceKey::of(game, &self.zero),
                game,
                &self.zero,
            )
        }
    }

    #[test]
    fn lru_bound_evicts_the_least_recently_used_entry() {
        let keys = Keys::new(4);
        let cache = BoundedCache::lru(2);
        cache.insert(&keys.key(1), "a");
        cache.insert(&keys.key(2), "b");
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(cache.lookup(&keys.key(1)), Some("a"));
        cache.insert(&keys.key(3), "c");
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.lookup(&keys.key(2)),
            None,
            "LRU entry must be evicted"
        );
        assert_eq!(cache.lookup(&keys.key(1)), Some("a"));
        assert_eq!(cache.lookup(&keys.key(3)), Some("c"));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn lru_eviction_follows_insert_order_without_lookups() {
        let keys = Keys::new(5);
        let cache = BoundedCache::lru(2);
        for i in 1..=4 {
            cache.insert(&keys.key(i), i);
        }
        assert_eq!(cache.lookup(&keys.key(1)), None);
        assert_eq!(cache.lookup(&keys.key(2)), None);
        assert_eq!(cache.lookup(&keys.key(3)), Some(3));
        assert_eq!(cache.lookup(&keys.key(4)), Some(4));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinserting_a_stored_key_never_evicts() {
        let keys = Keys::new(3);
        let cache = BoundedCache::lru(2);
        cache.insert(&keys.key(1), 1);
        cache.insert(&keys.key(2), 2);
        cache.insert(&keys.key(1), 10);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lookup(&keys.key(1)), Some(10));
        assert_eq!(cache.lookup(&keys.key(2)), Some(2));
    }

    #[test]
    fn a_zero_capacity_lru_cache_admits_nothing() {
        let keys = Keys::new(2);
        let cache = BoundedCache::lru(0);
        cache.insert(&keys.key(1), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&keys.key(1)), None);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn colliding_digests_share_a_bucket_but_never_an_answer() {
        // Two different instances forced under one digest: both are
        // stored, each lookup confirms content and returns its own value,
        // and a third instance under the same digest misses.
        let keys = Keys::new(3);
        let forced =
            |i: usize| CacheKey::new(b"test".to_vec(), InstanceKey(7), &keys.games[i], &keys.zero);
        let cache = BoundedCache::lru(4);
        cache.insert(&forced(0), "first");
        cache.insert(&forced(1), "second");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&forced(0)), Some("first"));
        assert_eq!(cache.lookup(&forced(1)), Some("second"));
        assert_eq!(cache.lookup(&forced(2)), None);
        // The same instance under its true digest is another slot.
        assert_eq!(cache.lookup(&keys.key(0)), None);
        // Eviction removes exactly the victim from a shared bucket.
        let cache = BoundedCache::lru(2);
        cache.insert(&forced(0), "first");
        cache.insert(&forced(1), "second");
        cache.insert(&forced(2), "third");
        assert_eq!(cache.lookup(&forced(0)), None);
        assert_eq!(cache.lookup(&forced(1)), Some("second"));
        assert_eq!(cache.lookup(&forced(2)), Some("third"));
    }

    #[test]
    fn signed_zero_loads_address_one_entry() {
        let game = game(0);
        let pos = LinkLoads::new(vec![0.0, 1.0]).unwrap();
        let neg = LinkLoads::new(vec![-0.0, 1.0]).unwrap();
        assert_eq!(InstanceKey::of(&game, &pos), InstanceKey::of(&game, &neg));
        let key =
            |initial| CacheKey::new(Vec::new(), InstanceKey::of(&game, initial), &game, initial);
        assert_eq!(key(&pos), key(&neg));
        let cache = BoundedCache::lru(1);
        cache.insert(&key(&pos), 1);
        assert_eq!(cache.lookup(&key(&neg)), Some(1));
    }

    #[test]
    fn digests_ignore_call_boundaries_but_not_content() {
        let values: Vec<f64> = (0..11).map(|i| i as f64 * 0.5 + 1.0).collect();
        let mut flat = ContentHasher::new();
        flat.word(3);
        flat.f64s(&values);
        let mut split = ContentHasher::new();
        split.word(3);
        split.f64s(&values[..2]);
        split.f64s(&values[2..7]);
        split.f64s(&values[7..]);
        assert_eq!(flat.finish(), split.finish());
        let mut moved = values.clone();
        moved.swap(3, 4);
        let mut other = ContentHasher::new();
        other.word(3);
        other.f64s(&moved);
        assert_ne!(flat.finish(), other.finish());
        // The row form of an instance digests like the game it builds.
        let game = game(4);
        let rows = [[1.0, 2.0], [3.0, 4.0]];
        assert_eq!(
            InstanceKey::of(&game, &zero()),
            InstanceKey::of_rows(2, 2, &[5.0, 2.0], rows.iter().map(|r| &r[..]), &[0.0, 0.0])
        );
    }

    #[test]
    fn idle_stats_report_zero_hit_rate() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
