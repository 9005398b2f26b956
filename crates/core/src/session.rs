//! Session bookkeeping: one personalized view per analysis session.
//!
//! The [`SessionManager`] is the piece of engine state touched by *every*
//! request of *every* decision maker, so it is sharded: session ids map
//! round-robin onto independent `RwLock`-protected maps. Two sessions on
//! different shards never contend, and readers of the same shard share the
//! lock. All operations take `&self`, which is what lets
//! [`crate::PersonalizationEngine`] serve many web sessions from one
//! shared instance.

use crate::error::CoreError;
use parking_lot::RwLock;
use sdwp_obs::{ClassId, Counter, Gauge};
use sdwp_olap::InstanceView;
use sdwp_prml::RuleEffect;
use sdwp_user::{Session, SessionId, SessionStatus};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The per-session state kept by the engine: the user-model session object,
/// the personalized instance view built by instance rules, and the effects
/// of every rule that fired during the session.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The SUS «Session» instance (events, location context, status).
    pub session: Session,
    /// The personalized view every query of this session goes through.
    /// Copy-on-write: the engine replaces the `Arc` when rules restrict
    /// the view, so readers clone a pointer, never the selection sets.
    pub view: Arc<InstanceView>,
    /// Effects of the rules that fired during this session, in firing order.
    pub effects: Vec<RuleEffect>,
    /// Read-your-writes floor: queries of this session refuse (after a
    /// bounded wait) snapshots older than this generation. `0` means no
    /// pin — any snapshot serves.
    pub min_generation: u64,
    /// The session class latency samples of this session are keyed by
    /// in the metrics registry ([`ClassId::DEFAULT`] when the login did
    /// not name one).
    pub class: ClassId,
}

impl SessionState {
    /// Creates the state for a freshly started session in the default
    /// session class.
    pub fn new(session: Session) -> Self {
        SessionState::with_class(session, ClassId::DEFAULT)
    }

    /// Creates the state for a freshly started session in an explicit
    /// session class.
    pub fn with_class(session: Session, class: ClassId) -> Self {
        SessionState {
            session,
            view: Arc::new(InstanceView::unrestricted()),
            effects: Vec::new(),
            min_generation: 0,
            class,
        }
    }

    /// Returns `true` while the session is active.
    pub fn is_active(&self) -> bool {
        self.session.status == SessionStatus::Active
    }
}

/// How many independent shards the session map is split into. Ids are
/// assigned sequentially, so consecutive logins land on consecutive shards.
const SHARD_COUNT: usize = 16;

/// Allocates session ids and stores per-session state, concurrently.
///
/// Reads and writes to *different* sessions proceed in parallel (modulo
/// shard collisions); id allocation is a single atomic increment.
#[derive(Debug)]
pub struct SessionManager {
    next_id: AtomicU64,
    shards: Vec<RwLock<HashMap<SessionId, SessionState>>>,
    /// Sessions currently stored across all shards — the observable
    /// complement of [`Self::reclaimed`] (PR 7 added logout reclamation;
    /// this pair is how operators watch it work).
    active: Gauge,
    /// Sessions removed (reclaimed at logout) over the manager's lifetime.
    reclaimed: Counter,
}

impl Default for SessionManager {
    fn default() -> Self {
        SessionManager::new()
    }
}

impl SessionManager {
    /// Creates an empty manager with the default shard count.
    pub fn new() -> Self {
        SessionManager::with_shards(SHARD_COUNT)
    }

    /// Creates an empty manager with an explicit shard count (≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        SessionManager {
            next_id: AtomicU64::new(1),
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            active: Gauge::new(),
            reclaimed: Counter::new(),
        }
    }

    fn shard(&self, id: SessionId) -> &RwLock<HashMap<SessionId, SessionState>> {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Allocates the next session id (wait-free).
    pub fn allocate_id(&self) -> SessionId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a new session state.
    pub fn insert(&self, state: SessionState) -> SessionId {
        let id = state.session.id;
        if self.shard(id).write().insert(id, state).is_none() {
            self.active.inc();
        }
        id
    }

    /// Removes a session's state from the map, returning it when present.
    ///
    /// The engine calls this at logout, after the SessionEnd rules fired:
    /// an ended session's view and effect log would otherwise be retained
    /// forever, growing the shards without bound with state no query can
    /// reach any more.
    pub fn remove(&self, id: SessionId) -> Option<SessionState> {
        let removed = self.shard(id).write().remove(&id);
        if removed.is_some() {
            self.active.dec();
            self.reclaimed.inc();
        }
        removed
    }

    /// Sessions currently stored (the `sessions_active` gauge).
    pub fn sessions_active(&self) -> i64 {
        self.active.get()
    }

    /// Sessions reclaimed at logout over the manager's lifetime (the
    /// `sessions_reclaimed` counter).
    pub fn sessions_reclaimed(&self) -> u64 {
        self.reclaimed.get()
    }

    /// Runs `f` over a shared borrow of a session's state.
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&SessionState) -> R,
    ) -> Result<R, CoreError> {
        self.shard(id)
            .read()
            .get(&id)
            .map(f)
            .ok_or(CoreError::UnknownSession { session: id })
    }

    /// Runs `f` over an exclusive borrow of a session's state.
    pub fn with_session_mut<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut SessionState) -> R,
    ) -> Result<R, CoreError> {
        self.shard(id)
            .write()
            .get_mut(&id)
            .map(f)
            .ok_or(CoreError::UnknownSession { session: id })
    }

    /// Returns an owned copy of a session's state.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionState, CoreError> {
        self.with_session(id, Clone::clone)
    }

    /// Number of tracked sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Returns `true` when no session has been started yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Ids of the active sessions, in ascending order.
    fn active_sessions(manager: &SessionManager) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = manager
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .filter(|(_, s)| s.is_active())
                    .map(|(id, _)| *id)
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn lifecycle() {
        let manager = SessionManager::new();
        assert!(manager.is_empty());
        let id = manager.allocate_id();
        assert_eq!(id, 1);
        let state = SessionState::new(Session::start(id, "u1"));
        assert!(state.is_active());
        assert!(state.view.is_unrestricted());
        manager.insert(state);
        assert_eq!(manager.len(), 1);
        assert_eq!(active_sessions(&manager), vec![1]);
        assert!(manager.with_session(1, |_| ()).is_ok());
        assert!(manager.with_session(2, |_| ()).is_err());
        manager
            .with_session_mut(1, |state| state.session.end())
            .unwrap();
        assert!(active_sessions(&manager).is_empty());
        assert_eq!(manager.allocate_id(), 2);
        let snapshot = manager.snapshot(1).unwrap();
        assert!(!snapshot.is_active());
        assert_eq!(manager.sessions_active(), 1);
        assert_eq!(manager.sessions_reclaimed(), 0);
        let removed = manager.remove(1).expect("session state is present");
        assert!(!removed.is_active());
        assert!(manager.is_empty());
        assert!(manager.remove(1).is_none());
        assert!(manager.with_session(1, |_| ()).is_err());
        // The gauge pair observes the reclamation exactly once — the
        // second (no-op) remove above must not double-count.
        assert_eq!(manager.sessions_active(), 0);
        assert_eq!(manager.sessions_reclaimed(), 1);
    }

    #[test]
    fn sessions_spread_over_shards() {
        let manager = SessionManager::with_shards(4);
        for _ in 0..8 {
            let id = manager.allocate_id();
            manager.insert(SessionState::new(Session::start(id, "u")));
        }
        assert_eq!(manager.len(), 8);
        assert_eq!(manager.shards.len(), 4);
        assert!(manager.shards.iter().all(|shard| shard.read().len() == 2));
        assert_eq!(active_sessions(&manager), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let manager = Arc::new(SessionManager::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let manager = Arc::clone(&manager);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let id = manager.allocate_id();
                        manager.insert(SessionState::new(Session::start(id, "u")));
                        manager
                            .with_session(id, |s| assert!(s.is_active()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(manager.len(), 400);
        // Ids are unique: the active list has no duplicates.
        let ids = active_sessions(&manager);
        assert_eq!(ids.len(), 400);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}
