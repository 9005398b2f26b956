//! A snapshot-keyed query-result cache.
//!
//! Repeated OLAP queries are common in BI sessions (dashboards refresh,
//! several users share a role's view), so the serving layer can reuse a
//! result as long as nothing it depends on changed. An entry is keyed by
//! the *cube snapshot generation* (bumped every time the personalization
//! engine publishes a new cube), the *canonical form of the query* and the
//! *instance view* it ran through — so a publish automatically misses every
//! stale entry, and two sessions with different personalized views can
//! never observe each other's results.
//!
//! Capacity eviction is LRU: every hit refreshes an entry's recency, and
//! the least-recently-used entry is dropped when the cache overflows.
//!
//! Invalidation is *scoped* where the publisher can prove the scope: a
//! snapshot publish that only changed some fact tables (an ingest epoch)
//! calls [`QueryCache::publish`] with the changed fact names — entries over
//! those facts are dropped, while entries over untouched facts are re-keyed
//! to the new generation and keep hitting. Publishes whose effect cannot be
//! scoped (schema personalization) use the all-or-nothing
//! [`QueryCache::invalidate_generations_below`].

use crate::query::{Query, QueryResult};
use crate::view::InstanceView;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// The identity of one cached result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Generation of the cube snapshot the result was computed from.
    pub generation: u64,
    /// The fact the query aggregates — the unit of scoped invalidation: an
    /// ingest epoch drops exactly the entries whose fact it changed.
    pub fact: String,
    /// Canonical text of the query (see [`Query::canonical_key`]).
    pub query: String,
    /// The exact instance view the query ran through. Compared and hashed
    /// by content (so distinct views can never collide into one entry) but
    /// held behind an `Arc`: sessions already keep their view in an `Arc`,
    /// so building a key is a refcount bump, not a deep clone of the
    /// selection sets.
    pub view: Arc<InstanceView>,
}

impl CacheKey {
    /// Builds the key of a `(snapshot, query, view)` execution.
    pub fn new(generation: u64, query: &Query, view: Arc<InstanceView>) -> Self {
        CacheKey {
            generation,
            fact: query.fact.clone(),
            query: query.canonical_key(),
            view,
        }
    }
}

/// Counters describing a cache's behaviour so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to execute the query.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries dropped because their snapshot generation became stale.
    pub invalidations: u64,
    /// Entries dropped by capacity (LRU) eviction.
    pub evictions: u64,
}

#[derive(Debug)]
struct CacheEntry {
    result: Arc<QueryResult>,
    /// Recency tick of the last hit (or the insert); the minimum is the
    /// LRU victim.
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    /// Recency index: `last_used` tick → key. Ticks are unique, so this
    /// is a total order; the first entry is the LRU victim. Kept in
    /// lock-step with `map` (every `map` mutation updates it), so both
    /// hits and evictions stay O(log n) instead of O(capacity) scans
    /// under the mutex the query hot path shares.
    recency: BTreeMap<u64, CacheKey>,
    /// Monotonic recency clock; bumped on every touch.
    tick: u64,
    /// Lowest generation still admissible: a query that was in flight
    /// across a publish must not park its stale result in the cache.
    generation_floor: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
}

impl CacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// One lookup: counts the hit or miss, and a hit moves the entry to
    /// the newest recency slot.
    fn probe(&mut self, key: &CacheKey) -> Option<Arc<QueryResult>> {
        let tick = self.next_tick();
        let Some(entry) = self.map.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        let previous = std::mem::replace(&mut entry.last_used, tick);
        let result = Arc::clone(&entry.result);
        // Move the already-stored key to its new recency slot — the hit
        // path allocates nothing under the shared mutex.
        if let Some(stored) = self.recency.remove(&previous) {
            self.recency.insert(tick, stored);
        }
        self.hits += 1;
        Some(result)
    }

    /// Evicts least-recently-used entries until `len <= capacity`.
    fn evict_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            match self.recency.pop_first() {
                Some((_, victim)) => {
                    // Count (and thereby require) only real removals: a
                    // recency tick with no map entry would otherwise both
                    // inflate the counter and evict an extra live entry —
                    // this makes any index divergence self-healing.
                    if self.map.remove(&victim).is_some() {
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }
}

/// A bounded, thread-safe result cache. `capacity == 0` disables it: every
/// lookup misses and nothing is stored.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl QueryCache {
    /// Creates a cache holding up to `capacity` results.
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Looks a result up, counting the hit or miss. A hit refreshes the
    /// entry's LRU recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<QueryResult>> {
        self.inner.lock().expect("query cache poisoned").probe(key)
    }

    /// Looks up a whole batch of keys under one lock acquisition,
    /// counting one hit or miss per key. Hits refresh recency exactly as
    /// [`QueryCache::get`] would; the returned vector is positional
    /// (`result[i]` answers `keys[i]`), so the batch executor can scan
    /// only the `None` slots. Duplicate keys in one batch all hit once
    /// the first occurrence would.
    pub fn get_batch(&self, keys: &[CacheKey]) -> Vec<Option<Arc<QueryResult>>> {
        let mut inner = self.inner.lock().expect("query cache poisoned");
        keys.iter().map(|key| inner.probe(key)).collect()
    }

    /// Stores a result, evicting the least-recently-used entry when full.
    /// Results whose generation fell below the invalidation floor (the
    /// query was in flight while a new cube was published) are dropped: no
    /// future lookup could ever read them, so admitting them would only
    /// burn capacity.
    pub fn insert(&self, key: CacheKey, result: Arc<QueryResult>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("query cache poisoned");
        if key.generation < inner.generation_floor {
            return;
        }
        let tick = inner.next_tick();
        if let Some(previous) = inner.map.insert(
            key.clone(),
            CacheEntry {
                result,
                last_used: tick,
            },
        ) {
            inner.recency.remove(&previous.last_used);
        }
        inner.recency.insert(tick, key);
        let capacity = self.capacity;
        inner.evict_to(capacity);
    }

    /// Scoped invalidation for a snapshot publish whose only difference
    /// from the previous snapshot is the content of `changed_facts`' fact
    /// tables (an ingest epoch: appends, cell upserts, retractions —
    /// dimension tables and the schema untouched). Entries over a changed
    /// fact are dropped; entries over untouched facts are still correct,
    /// so they are re-keyed to `generation` and keep hitting. An empty
    /// `changed_facts` set leaves every entry live.
    ///
    /// The caller owns that proof — publishes with unscopable effects
    /// (schema personalization) must use
    /// [`QueryCache::invalidate_generations_below`] instead.
    pub fn publish(&self, generation: u64, changed_facts: &BTreeSet<String>) {
        let mut inner = self.inner.lock().expect("query cache poisoned");
        inner.generation_floor = inner.generation_floor.max(generation);
        // Single-pass rebuild: no intermediate key Vec, no per-key double
        // lookups — the mutex is shared with the query hot path, so the
        // sweep must stay as short as possible.
        let old_map = std::mem::take(&mut inner.map);
        inner.map.reserve(old_map.len());
        for (mut key, entry) in old_map {
            if key.generation < generation {
                if changed_facts.contains(&key.fact) {
                    inner.recency.remove(&entry.last_used);
                    inner.invalidations += 1;
                    continue;
                }
                // Still valid against the new snapshot: migrate in place,
                // preserving recency. The recency index already holds a
                // copy of this key at `last_used`; bump its generation in
                // place rather than cloning a fresh one.
                key.generation = generation;
                if let Some(stored) = inner.recency.get_mut(&entry.last_used) {
                    stored.generation = generation;
                }
            }
            // A reader racing this publish may have inserted the same
            // query at the new generation already; dropping the
            // overwritten entry must also drop its recency tick, or the
            // index leaks a dangling tick that later mis-targets LRU
            // eviction.
            if let Some(overwritten) = inner.map.insert(key, entry) {
                inner.recency.remove(&overwritten.last_used);
            }
        }
    }

    /// Drops every entry computed from a snapshot generation older than
    /// `generation`. Called for publishes whose effect on existing results
    /// cannot be scoped (rule-driven schema personalization), so stale
    /// results are reclaimed eagerly instead of lingering until capacity
    /// eviction.
    pub fn invalidate_generations_below(&self, generation: u64) {
        let mut inner = self.inner.lock().expect("query cache poisoned");
        inner.generation_floor = inner.generation_floor.max(generation);
        // Single pass: collect only the (cheap) recency ticks of dropped
        // entries, never cloning keys.
        let mut dropped_ticks = Vec::new();
        inner.map.retain(|key, entry| {
            if key.generation >= generation {
                true
            } else {
                dropped_ticks.push(entry.last_used);
                false
            }
        });
        for tick in dropped_ticks {
            inner.recency.remove(&tick);
            inner.invalidations += 1;
        }
    }

    /// Removes every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("query cache poisoned");
        inner.map.clear();
        inner.recency.clear();
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("query cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            invalidations: inner.invalidations,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ResultRow;
    use crate::value::CellValue;

    fn result(tag: f64) -> Arc<QueryResult> {
        Arc::new(QueryResult {
            key_names: vec![],
            value_names: vec!["sum(UnitSales)".into()],
            rows: vec![ResultRow {
                keys: vec![],
                values: vec![CellValue::Float(tag)],
            }],
            facts_scanned: 1,
            facts_matched: 1,
        })
    }

    fn key(generation: u64, fact: &str, view: &InstanceView) -> CacheKey {
        CacheKey::new(
            generation,
            &Query::over(fact).measure("UnitSales"),
            Arc::new(view.clone()),
        )
    }

    fn facts(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = QueryCache::new(4);
        let view = InstanceView::unrestricted();
        let k = key(1, "Sales", &view);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), result(1.0));
        assert_eq!(
            cache.get(&k).unwrap().rows[0].values[0],
            CellValue::Float(1.0)
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn different_views_never_collide() {
        let cache = QueryCache::new(4);
        let mut a = InstanceView::unrestricted();
        a.select_dimension_members("Store", vec![0]);
        let mut b = InstanceView::unrestricted();
        b.select_dimension_members("Store", vec![1]);
        cache.insert(key(1, "Sales", &a), result(1.0));
        assert!(cache.get(&key(1, "Sales", &b)).is_none());
        assert!(cache.get(&key(1, "Sales", &a)).is_some());
    }

    #[test]
    fn generation_bump_invalidates_stale_entries() {
        let cache = QueryCache::new(8);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "Sales", &view), result(1.0));
        cache.insert(key(2, "Sales", &view), result(2.0));
        cache.invalidate_generations_below(2);
        assert!(cache.get(&key(1, "Sales", &view)).is_none());
        assert!(cache.get(&key(2, "Sales", &view)).is_some());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let cache = QueryCache::new(2);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "A", &view), result(1.0));
        cache.insert(key(1, "B", &view), result(2.0));
        // Touch A: B becomes the least recently used.
        assert!(cache.get(&key(1, "A", &view)).is_some());
        cache.insert(key(1, "C", &view), result(3.0));
        assert!(
            cache.get(&key(1, "B", &view)).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.get(&key(1, "A", &view)).is_some(), "hit kept A alive");
        assert!(cache.get(&key(1, "C", &view)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn scoped_publish_drops_changed_facts_and_rekeys_the_rest() {
        let cache = QueryCache::new(8);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "Sales", &view), result(1.0));
        cache.insert(key(1, "Returns", &view), result(2.0));
        // An ingest epoch publishes generation 2, changing only Sales.
        cache.publish(2, &facts(&["Sales"]));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidations), (1, 1));
        // The Sales entry is gone at both generations.
        assert!(cache.get(&key(1, "Sales", &view)).is_none());
        assert!(cache.get(&key(2, "Sales", &view)).is_none());
        // The Returns entry migrated to the new generation.
        assert!(cache.get(&key(1, "Returns", &view)).is_none());
        assert_eq!(
            cache.get(&key(2, "Returns", &view)).unwrap().rows[0].values[0],
            CellValue::Float(2.0)
        );
    }

    #[test]
    fn recency_survives_scoped_publish() {
        let cache = QueryCache::new(2);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "A", &view), result(1.0));
        cache.insert(key(1, "B", &view), result(2.0));
        // Touch A so B is the LRU, then re-key both via a scoped publish.
        assert!(cache.get(&key(1, "A", &view)).is_some());
        cache.publish(2, &BTreeSet::new());
        // A new insert must still evict B (recency carried across the
        // re-key), not A.
        cache.insert(key(2, "C", &view), result(3.0));
        assert!(cache.get(&key(2, "B", &view)).is_none());
        assert!(cache.get(&key(2, "A", &view)).is_some());
        assert!(cache.get(&key(2, "C", &view)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn rekey_collision_does_not_leak_recency() {
        let cache = QueryCache::new(2);
        let view = InstanceView::unrestricted();
        // The same query cached at the old generation and (by a reader
        // racing the publish) at the new one: the re-key collides.
        cache.insert(key(1, "Sales", &view), result(1.0));
        cache.insert(key(2, "Sales", &view), result(2.0));
        cache.publish(2, &BTreeSet::new());
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.get(&key(2, "Sales", &view)).is_some());
        // The overwritten entry's recency tick must be gone too: filling
        // past capacity evicts exactly one live entry, not a phantom.
        cache.insert(key(2, "A", &view), result(3.0));
        cache.insert(key(2, "B", &view), result(4.0));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn empty_publish_flushes_nothing() {
        let cache = QueryCache::new(8);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "Sales", &view), result(1.0));
        cache.publish(2, &BTreeSet::new());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidations), (1, 0));
        assert!(cache.get(&key(2, "Sales", &view)).is_some());
    }

    #[test]
    fn stale_in_flight_results_are_not_admitted() {
        let cache = QueryCache::new(8);
        let view = InstanceView::unrestricted();
        // A publish raises the floor to generation 2 …
        cache.invalidate_generations_below(2);
        // … so a result computed from generation 1 (a query that was in
        // flight across the publish) must be refused.
        cache.insert(key(1, "Sales", &view), result(1.0));
        assert_eq!(cache.stats().entries, 0);
        cache.insert(key(2, "Sales", &view), result(2.0));
        assert_eq!(cache.stats().entries, 1);
        // A scoped publish raises the floor too.
        cache.publish(3, &facts(&["Other"]));
        cache.insert(key(2, "Sales", &view), result(2.0));
        assert_eq!(cache.stats().entries, 1, "floor refuses generation 2 now");
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = QueryCache::new(0);
        let view = InstanceView::unrestricted();
        let k = key(1, "Sales", &view);
        cache.insert(k.clone(), result(1.0));
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn batch_lookup_answers_hits_positionally_under_one_lock() {
        let cache = QueryCache::new(4);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "A", &view), result(1.0));
        cache.insert(key(1, "C", &view), result(3.0));
        let keys = vec![key(1, "A", &view), key(1, "B", &view), key(1, "C", &view)];
        let found = cache.get_batch(&keys);
        assert_eq!(
            found[0].as_ref().unwrap().rows[0].values[0],
            CellValue::Float(1.0)
        );
        assert!(found[1].is_none());
        assert_eq!(
            found[2].as_ref().unwrap().rows[0].values[0],
            CellValue::Float(3.0)
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn batch_lookup_refreshes_recency() {
        let cache = QueryCache::new(2);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "A", &view), result(1.0));
        cache.insert(key(1, "B", &view), result(2.0));
        // Batch-touch A: B becomes the LRU victim.
        cache.get_batch(&[key(1, "A", &view)]);
        cache.insert(key(1, "C", &view), result(3.0));
        assert!(cache.get(&key(1, "B", &view)).is_none());
        assert!(cache.get(&key(1, "A", &view)).is_some());
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = QueryCache::new(4);
        let view = InstanceView::unrestricted();
        cache.insert(key(1, "Sales", &view), result(1.0));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }
}
