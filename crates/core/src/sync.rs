//! Shared-state primitives for the concurrent engine core.
//!
//! The engine publishes its personalized cube and its compiled rule set as
//! immutable snapshots behind [`VersionedSwap`]: readers (`query`,
//! `WebFacade::handle`) grab an `Arc` and work on a consistent snapshot
//! without blocking writers; writers build the next snapshot off to the
//! side and swap it in atomically — the hot-swap pattern rule engines such
//! as Cerberus use for their `ArcSwap<RuleSet>`.

use parking_lot::RwLock;
use std::sync::Arc;

/// An atomically swappable `Arc<T>` that tags every published snapshot
/// with a monotonically increasing generation number.
///
/// Implemented over a [`parking_lot::RwLock`] (the offline stand-in):
/// loads take a brief read lock to clone the `Arc` (no `T` clone, no
/// waiting on writers' snapshot construction), `store` swaps the pointer
/// under the write lock. Readers therefore never observe a half-updated
/// value and never block while a writer *builds* a new snapshot — only
/// during the pointer swap itself.
///
/// The engine keys its query-result cache by the cube snapshot the result
/// was computed from. Reading the snapshot and its generation must be
/// atomic — loading them from two separate cells could pair a new cube
/// with an old generation and poison the cache with results attributed to
/// the wrong snapshot — so both live under one lock and
/// [`VersionedSwap::load_versioned`] returns them as a consistent pair.
#[derive(Debug)]
pub struct VersionedSwap<T> {
    inner: RwLock<(u64, Arc<T>)>,
}

impl<T> VersionedSwap<T> {
    /// Wraps an already-allocated snapshot as generation 0.
    pub fn new(value: Arc<T>) -> Self {
        VersionedSwap {
            inner: RwLock::new((0, value)),
        }
    }

    /// Allocates the initial (generation 0) snapshot from a plain value.
    pub fn from_pointee(value: T) -> Self {
        VersionedSwap::new(Arc::new(value))
    }

    /// Returns the current snapshot.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.inner.read().1)
    }

    /// Returns the current `(generation, snapshot)` pair, read atomically.
    pub fn load_versioned(&self) -> (u64, Arc<T>) {
        let guard = self.inner.read();
        (guard.0, Arc::clone(&guard.1))
    }

    /// The generation of the currently published snapshot.
    pub fn generation(&self) -> u64 {
        self.inner.read().0
    }

    /// Publishes a new snapshot, bumping the generation; returns the new
    /// generation. Current readers keep the pair they loaded.
    pub fn store(&self, value: Arc<T>) -> u64 {
        let mut guard = self.inner.write();
        guard.0 += 1;
        guard.1 = value;
        guard.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn load_store_round_trip() {
        let swap = VersionedSwap::from_pointee(1);
        assert_eq!(*swap.load(), 1);
        let old = swap.load();
        swap.store(Arc::new(2));
        assert_eq!(*swap.load(), 2);
        // The snapshot loaded before the store is unaffected.
        assert_eq!(*old, 1);
    }

    #[test]
    fn versioned_swap_pairs_generation_with_snapshot() {
        let swap = VersionedSwap::from_pointee("a");
        assert_eq!(swap.generation(), 0);
        let (gen0, first) = swap.load_versioned();
        assert_eq!((gen0, *first), (0, "a"));
        assert_eq!(swap.store(Arc::new("b")), 1);
        assert_eq!(swap.store(Arc::new("c")), 2);
        let (generation, value) = swap.load_versioned();
        assert_eq!((generation, *value), (2, "c"));
        assert_eq!(*swap.load(), "c");
        // The pair loaded before the stores is unaffected.
        assert_eq!(*first, "a");
    }

    #[test]
    fn versioned_swap_loads_are_atomic_pairs() {
        let swap = Arc::new(VersionedSwap::from_pointee(0u64));
        let writer = {
            let swap = Arc::clone(&swap);
            thread::spawn(move || {
                for i in 1..=500u64 {
                    swap.store(Arc::new(i));
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let swap = Arc::clone(&swap);
                thread::spawn(move || {
                    for _ in 0..500 {
                        // Every publish stores generation == value, so a
                        // torn read would break this invariant.
                        let (generation, value) = swap.load_versioned();
                        assert_eq!(generation, *value);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
    }

    #[test]
    fn concurrent_readers_see_consistent_snapshots() {
        let swap = Arc::new(VersionedSwap::from_pointee((0u64, 0u64)));
        let writer = {
            let swap = Arc::clone(&swap);
            thread::spawn(move || {
                for i in 1..=1_000u64 {
                    swap.store(Arc::new((i, i * 2)));
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let swap = Arc::clone(&swap);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        let snapshot = swap.load();
                        // Invariant of every published snapshot.
                        assert_eq!(snapshot.1, snapshot.0 * 2);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
    }
}
