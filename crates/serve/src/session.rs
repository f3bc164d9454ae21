//! The bounded resident-session store behind the `Upload`/`Edit`/`Release`
//! verbs.
//!
//! A session pins one instance server-side: the current game, its fixed
//! initial traffic, and the **last certified profile** — the warm state an
//! `Edit` request repairs from without the client re-shipping the instance
//! each frame. The store is bounded the same way the warm tiers are: a
//! capacity in entries, least-recently-used eviction, and eviction really
//! *releases* the pinned game and profile (the entry is dropped, not
//! tombstoned).
//!
//! Each session sits behind its own lock ([`SessionHandle`]). An `Edit`
//! resolves the id under the store lock, releases it, then locks the one
//! session and repairs its pinned game **in place**: nothing is cloned out
//! or copied back, and concurrent edits to one session serialise, each
//! repairing from the state the previous one left.
//!
//! Staleness is typed, never silent. Session ids are allocated
//! sequentially, so a missing id tells its own history: an id below the
//! allocation watermark was once live and has since been evicted or
//! released ([`SessionLookup::Evicted`] →
//! [`ErrorKind::SessionEvicted`](crate::protocol::ErrorKind::SessionEvicted)),
//! while an id at or above the watermark never existed
//! ([`SessionLookup::Unknown`] →
//! [`ErrorKind::UnknownSession`](crate::protocol::ErrorKind::UnknownSession)).
//! That distinction costs two `u64`s of state, not a tombstone per dead
//! session.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use netuncert_core::prelude::{EffectiveGame, LinkLoads, PureProfile};

/// One session's pinned state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The current game (the original upload with every accepted edit
    /// applied in order).
    pub game: EffectiveGame,
    /// The fixed initial link traffic the instance was uploaded with.
    pub initial: LinkLoads,
    /// The last certified pure Nash profile on `game`.
    pub profile: PureProfile,
    /// How many edits have been accepted since the upload.
    pub edits: u64,
}

/// A live session: its pinned state behind the session's own lock.
pub type SessionHandle = Arc<Mutex<SessionSnapshot>>;

/// How a session id resolved against the store: to a copy of the pinned
/// state ([`SessionStore::lookup`]) or to the live session
/// ([`SessionStore::resolve`]).
#[derive(Debug)]
pub enum SessionLookup<T = SessionSnapshot> {
    /// The session is live; here is its pinned state.
    Found(T),
    /// The id was once allocated but its session has been evicted (or
    /// explicitly released) since.
    Evicted,
    /// The id was never allocated by this store.
    Unknown,
}

/// How a [`SessionStore::remove`] resolved.
#[derive(Debug, PartialEq, Eq)]
pub enum SessionRemoval {
    /// The session was live and is now released; `edits` edits had been
    /// accepted over its lifetime.
    Released {
        /// Edits accepted since the upload.
        edits: u64,
    },
    /// The id was once allocated but already evicted or released.
    Evicted,
    /// The id was never allocated by this store.
    Unknown,
}

struct Entry {
    session: SessionHandle,
    /// Key into `recency`; rewritten on every touch.
    tick: u64,
}

struct StoreInner {
    entries: HashMap<u64, Entry>,
    /// LRU order: tick → session id, oldest tick first. Ticks are unique
    /// (one per touch), so the first entry is always the eviction victim.
    recency: BTreeMap<u64, u64>,
    next_tick: u64,
    /// The allocation watermark: ids below it were once live.
    next_id: u64,
}

impl StoreInner {
    fn touch(&mut self, id: u64) {
        let entry = self.entries.get_mut(&id).expect("touched id is live");
        self.recency.remove(&entry.tick);
        entry.tick = self.next_tick;
        self.recency.insert(self.next_tick, id);
        self.next_tick += 1;
    }
}

/// A bounded LRU store of resident sessions. All methods take `&self`; one
/// internal mutex serialises metadata updates, and each session has its own
/// lock, which no method holds while it waits for the store's.
pub struct SessionStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

impl SessionStore {
    /// A store bounded to `capacity` live sessions (floored at 1).
    pub fn new(capacity: usize) -> Self {
        SessionStore {
            inner: Mutex::new(StoreInner {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                next_tick: 0,
                next_id: 1,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Pins a fresh session and returns `(id, evicted)`, where `evicted` is
    /// the id of the least-recently-used session this insert pushed out (its
    /// pinned game and profile are dropped here and now), if any.
    pub fn insert(
        &self,
        game: EffectiveGame,
        initial: LinkLoads,
        profile: PureProfile,
    ) -> (u64, Option<u64>) {
        let mut inner = self.inner.lock().expect("session store lock poisoned");
        let evicted = if inner.entries.len() >= self.capacity {
            let (&tick, &victim) = inner.recency.iter().next().expect("non-empty at capacity");
            inner.recency.remove(&tick);
            inner.entries.remove(&victim);
            Some(victim)
        } else {
            None
        };
        let id = inner.next_id;
        inner.next_id += 1;
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.entries.insert(
            id,
            Entry {
                session: Arc::new(Mutex::new(SessionSnapshot {
                    game,
                    initial,
                    profile,
                    edits: 0,
                })),
                tick,
            },
        );
        inner.recency.insert(tick, id);
        (id, evicted)
    }

    /// Resolves a session id to the live session, marking it most recently
    /// used. The store lock is released on return; lock the handle to read
    /// or edit the session in place.
    pub fn resolve(&self, id: u64) -> SessionLookup<SessionHandle> {
        let mut inner = self.inner.lock().expect("session store lock poisoned");
        if !inner.entries.contains_key(&id) {
            return if id != 0 && id < inner.next_id {
                SessionLookup::Evicted
            } else {
                SessionLookup::Unknown
            };
        }
        inner.touch(id);
        SessionLookup::Found(Arc::clone(&inner.entries[&id].session))
    }

    /// Resolves a session id, cloning its pinned state out and marking it
    /// most recently used.
    pub fn lookup(&self, id: u64) -> SessionLookup {
        match self.resolve(id) {
            SessionLookup::Found(session) => {
                SessionLookup::Found(session.lock().expect("session lock poisoned").clone())
            }
            SessionLookup::Evicted => SessionLookup::Evicted,
            SessionLookup::Unknown => SessionLookup::Unknown,
        }
    }

    /// Replaces a session's game and certified profile after an accepted
    /// edit, bumping its edit count. Returns `false` (and stores nothing)
    /// when the session was evicted or released in the meantime.
    pub fn update(&self, id: u64, game: EffectiveGame, profile: PureProfile) -> bool {
        let SessionLookup::Found(session) = self.resolve(id) else {
            return false;
        };
        let mut pinned = session.lock().expect("session lock poisoned");
        pinned.game = game;
        pinned.profile = profile;
        pinned.edits += 1;
        true
    }

    /// Releases a session, dropping its pinned state once an edit still
    /// running on it has finished.
    pub fn remove(&self, id: u64) -> SessionRemoval {
        let mut inner = self.inner.lock().expect("session store lock poisoned");
        let Some(entry) = inner.entries.remove(&id) else {
            return if id != 0 && id < inner.next_id {
                SessionRemoval::Evicted
            } else {
                SessionRemoval::Unknown
            };
        };
        inner.recency.remove(&entry.tick);
        drop(inner);
        let edits = entry.session.lock().expect("session lock poisoned").edits;
        SessionRemoval::Released { edits }
    }

    /// Live sessions right now.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("session store lock poisoned")
            .entries
            .len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netuncert_core::prelude::LinkLoads;

    fn pinned(tag: f64) -> (EffectiveGame, LinkLoads, PureProfile) {
        let game =
            EffectiveGame::from_rows(vec![1.0 + tag, 2.0], vec![vec![1.0, 2.0], vec![2.0, 1.0]])
                .unwrap();
        (game, LinkLoads::zero(2), PureProfile::new(vec![0, 1]))
    }

    fn insert(store: &SessionStore, tag: f64) -> (u64, Option<u64>) {
        let (game, initial, profile) = pinned(tag);
        store.insert(game, initial, profile)
    }

    #[test]
    fn ids_are_sequential_and_lookup_round_trips() {
        let store = SessionStore::new(4);
        let (a, _) = insert(&store, 0.0);
        let (b, _) = insert(&store, 1.0);
        assert_eq!((a, b), (1, 2));
        let SessionLookup::Found(snapshot) = store.lookup(a) else {
            panic!("session {a} must be live");
        };
        assert_eq!(snapshot.edits, 0);
        assert_eq!(snapshot.game.weights()[0], 1.0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn eviction_is_lru_and_lookup_refreshes_recency() {
        let store = SessionStore::new(2);
        let (a, _) = insert(&store, 0.0);
        let (b, _) = insert(&store, 1.0);
        // Touch a so b becomes the LRU victim.
        assert!(matches!(store.lookup(a), SessionLookup::Found(_)));
        let (c, evicted) = insert(&store, 2.0);
        assert_eq!(evicted, Some(b));
        assert!(matches!(store.lookup(b), SessionLookup::Evicted));
        assert!(matches!(store.lookup(a), SessionLookup::Found(_)));
        assert!(matches!(store.lookup(c), SessionLookup::Found(_)));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn evicted_and_unknown_ids_are_distinguished() {
        let store = SessionStore::new(1);
        let (a, _) = insert(&store, 0.0);
        let (_b, evicted) = insert(&store, 1.0);
        assert_eq!(evicted, Some(a));
        assert!(matches!(store.lookup(a), SessionLookup::Evicted));
        assert!(matches!(store.lookup(999), SessionLookup::Unknown));
        assert!(matches!(store.lookup(0), SessionLookup::Unknown));
        assert_eq!(store.remove(a), SessionRemoval::Evicted);
        assert_eq!(store.remove(999), SessionRemoval::Unknown);
    }

    #[test]
    fn update_bumps_the_edit_count_and_release_reports_it() {
        let store = SessionStore::new(2);
        let (id, _) = insert(&store, 0.0);
        let (game, _, profile) = pinned(3.0);
        assert!(store.update(id, game.clone(), profile.clone()));
        assert!(store.update(id, game.clone(), profile.clone()));
        let SessionLookup::Found(snapshot) = store.lookup(id) else {
            panic!("live");
        };
        assert_eq!(snapshot.edits, 2);
        assert_eq!(snapshot.game.weights()[0], 4.0);
        assert_eq!(store.remove(id), SessionRemoval::Released { edits: 2 });
        // Released ids answer Evicted from now on, and updates are ignored.
        assert!(matches!(store.lookup(id), SessionLookup::Evicted));
        assert!(!store.update(id, game, profile));
        assert!(store.is_empty());
    }

    #[test]
    fn capacity_is_floored_at_one() {
        let store = SessionStore::new(0);
        assert_eq!(store.capacity(), 1);
        let (a, _) = insert(&store, 0.0);
        let (b, evicted) = insert(&store, 1.0);
        assert_eq!(evicted, Some(a));
        assert!(matches!(store.lookup(b), SessionLookup::Found(_)));
    }
}
