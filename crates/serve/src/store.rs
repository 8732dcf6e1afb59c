//! Resident-trace store: the daemon's working-set memory.
//!
//! Each loaded trace becomes an [`Entry`] keyed by a content hash of the
//! flat layout, holding the immutable base [`FlatTrace`] plus the warm
//! state a request stream accretes: the [`IncrementalRun`] engine (edit
//! overlay, carried solver state, cost ledger). Entries live behind their
//! own mutex so two workers can service different traces concurrently;
//! the store-level mutex only guards the key map and the byte accounting.
//!
//! **Lock ordering:** the store lock and an entry lock are never held at
//! the same time. Lookups lock the store, clone the entry `Arc`, bump
//! the LRU stamp and unlock before the entry is locked; byte accounting
//! after a mutation ([`TraceStore::record_bytes`]) passes a plain number
//! computed while the entry lock was held. That makes deadlock
//! impossible by construction and keeps the store lock held only for
//! map-sized critical sections.
//!
//! **Eviction** is LRU by a monotonic touch clock under a byte budget.
//! A trace whose base alone exceeds the budget is refused up front
//! ([`ServeError::TooLarge`]) rather than flushing the whole working
//! set. Evicting an entry another worker still holds an `Arc` to is
//! safe: the worker finishes against the detached entry and the memory
//! is reclaimed when the last `Arc` drops.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pim_sched::incremental::IncrementalRun;
use pim_sched::{MemoryPolicy, Method};
use pim_trace::FlatTrace;

use crate::error::ServeError;

/// Content hash of a flat trace (FNV-1a 64 over dims + span records).
/// This is the wire identity of a resident trace: `load` returns it and
/// every later request names the trace by its 16-hex rendering.
pub fn trace_key(flat: &FlatTrace) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    eat(flat.grid().width());
    eat(flat.grid().height());
    eat(flat.num_windows() as u32);
    eat(flat.num_data() as u32);
    for d in 0..flat.num_data() {
        for r in flat.span(pim_trace::DataId(d as u32)) {
            eat(r.window);
            eat(r.x);
            eat(r.y);
            eat(r.count);
        }
    }
    h
}

/// Render a trace key as the fixed-width lowercase hex used on the wire.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parse a wire trace key (16 lowercase/uppercase hex digits).
pub fn parse_key(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Estimated resident bytes of one flat trace (refs dominate; offsets
/// and headers are noise but counted so empty traces aren't free).
pub fn flat_bytes(flat: &FlatTrace) -> u64 {
    (flat.num_refs() * 16 + flat.num_data() * 16 + 64) as u64
}

/// One resident trace and its warm per-trace state: the base as loaded
/// and, once a `schedule` request built one, the engine. The engine's
/// trace is the current edit version and its [`IncrementalRun::cost`]
/// answers `schedule`, so the entry keeps no materialized copy and no
/// cached cost of its own.
pub struct Entry {
    /// Content key (wire identity).
    pub key: u64,
    /// The immutable flat trace as loaded.
    pub base: Arc<FlatTrace>,
    /// Resident scheduling engine, if a `schedule` request built one.
    pub engine: Option<IncrementalRun>,
}

impl Entry {
    fn new(key: u64, base: Arc<FlatTrace>) -> Entry {
        Entry {
            key,
            base,
            engine: None,
        }
    }

    /// True when the resident engine already runs `method` + `policy`
    /// (a `schedule` request can be served warm).
    pub fn engine_matches(&self, method: Method, policy: MemoryPolicy) -> bool {
        self.engine
            .as_ref()
            .is_some_and(|e| e.method() == method && e.policy() == policy)
    }

    /// The trace a new engine must start from: the resident engine's
    /// current version (materialized only when it was edited), else the
    /// base.
    pub fn current_trace(&self) -> Arc<FlatTrace> {
        match &self.engine {
            None => Arc::clone(&self.base),
            Some(e) if e.version() == 0 => Arc::clone(e.trace().base()),
            Some(e) => Arc::new(e.trace().materialize()),
        }
    }

    /// Estimated resident bytes of this entry right now. The engine is
    /// costed at 3× the base flat (edit overlay, carried solver state
    /// and cost ledger all scale with the trace).
    pub fn resident_bytes(&self) -> u64 {
        let base = flat_bytes(&self.base);
        let engine = if self.engine.is_some() { 3 * base } else { 0 };
        base + engine
    }
}

struct Slot {
    entry: Arc<Mutex<Entry>>,
    bytes: u64,
    last_used: u64,
}

struct StoreInner {
    slots: HashMap<u64, Slot>,
    clock: u64,
    bytes: u64,
    evictions: u64,
}

/// Byte-budgeted LRU map of resident traces.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    budget: u64,
}

/// Point-in-time store occupancy for the `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Resident traces.
    pub traces: usize,
    /// Estimated resident bytes across all entries.
    pub bytes: u64,
    /// Configured byte budget.
    pub budget: u64,
    /// Entries evicted to make room since startup.
    pub evictions: u64,
}

impl TraceStore {
    /// An empty store with the given byte budget (≥ 1).
    pub fn new(budget: u64) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner {
                slots: HashMap::new(),
                clock: 0,
                bytes: 0,
                evictions: 0,
            }),
            budget: budget.max(1),
        }
    }

    /// Configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Admit a freshly parsed trace. Returns its key and whether it was
    /// newly inserted (`false` = already resident; the parsed copy is
    /// dropped and the resident entry keeps its warm state).
    pub fn insert(&self, flat: FlatTrace) -> Result<(u64, bool), ServeError> {
        let key = trace_key(&flat);
        let bytes = flat_bytes(&flat);
        if bytes > self.budget {
            return Err(ServeError::TooLarge {
                bytes,
                budget: self.budget,
            });
        }
        let mut inner = self.inner.lock().expect("store lock");
        inner.clock += 1;
        let now = inner.clock;
        if let Some(slot) = inner.slots.get_mut(&key) {
            slot.last_used = now;
            return Ok((key, false));
        }
        Self::evict_until(&mut inner, self.budget.saturating_sub(bytes), key);
        let entry = Arc::new(Mutex::new(Entry::new(key, Arc::new(flat))));
        inner.slots.insert(
            key,
            Slot {
                entry,
                bytes,
                last_used: now,
            },
        );
        inner.bytes += bytes;
        Ok((key, true))
    }

    /// Look up a resident trace, bumping its LRU stamp. The returned
    /// `Arc` must be locked *after* this call returns (never under the
    /// store lock).
    pub fn get(&self, key: u64) -> Option<Arc<Mutex<Entry>>> {
        let mut inner = self.inner.lock().expect("store lock");
        inner.clock += 1;
        let now = inner.clock;
        let slot = inner.slots.get_mut(&key)?;
        slot.last_used = now;
        Some(Arc::clone(&slot.entry))
    }

    /// Remove a trace entirely. Returns `false` if it was not resident.
    pub fn remove(&self, key: u64) -> bool {
        let mut inner = self.inner.lock().expect("store lock");
        match inner.slots.remove(&key) {
            Some(slot) => {
                inner.bytes -= slot.bytes;
                true
            }
            None => false,
        }
    }

    /// Update a key's byte accounting after its entry was mutated
    /// (engine built or dropped, edits applied). `bytes` must have been
    /// computed via [`Entry::resident_bytes`] with the entry lock held —
    /// and released — before calling this. May evict *other* entries if
    /// the growth pushed the store over budget.
    pub fn record_bytes(&self, key: u64, bytes: u64) {
        let mut inner = self.inner.lock().expect("store lock");
        let old = match inner.slots.get_mut(&key) {
            Some(slot) => {
                let old = slot.bytes;
                slot.bytes = bytes;
                old
            }
            None => return, // evicted concurrently; nothing to account
        };
        inner.bytes = inner.bytes - old + bytes;
        Self::evict_until(&mut inner, self.budget, key);
    }

    /// Evict least-recently-used entries (never `keep`) until resident
    /// bytes fit in `limit`.
    fn evict_until(inner: &mut StoreInner, limit: u64, keep: u64) {
        while inner.bytes > limit {
            let victim = inner
                .slots
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let slot = inner.slots.remove(&k).expect("victim resident");
                    inner.bytes -= slot.bytes;
                    inner.evictions += 1;
                }
                None => break, // only `keep` is left; over-budget growth is tolerated
            }
        }
    }

    /// Current occupancy snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            traces: inner.slots.len(),
            bytes: inner.bytes,
            budget: self.budget,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_array::grid::Grid;
    use pim_trace::{DataId, FlatRecord};

    fn tiny_flat(seed: u32) -> FlatTrace {
        let grid = Grid::new(4, 4);
        let records: Vec<FlatRecord> = (0..8)
            .map(|i| FlatRecord {
                datum: DataId(i % 4),
                window: i / 4,
                proc: grid.proc_xy((i + seed) % 4, i % 4),
                count: 1 + seed,
            })
            .collect();
        FlatTrace::from_records(grid, 2, 4, records).expect("valid records")
    }

    #[test]
    fn key_is_content_addressed() {
        let a = trace_key(&tiny_flat(0));
        let b = trace_key(&tiny_flat(0));
        let c = trace_key(&tiny_flat(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let hex = key_hex(a);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_key(&hex), Some(a));
        assert_eq!(parse_key("zzzz"), None);
        assert_eq!(parse_key(""), None);
    }

    #[test]
    fn insert_dedupes_and_get_touches() {
        let store = TraceStore::new(1 << 20);
        let (k1, fresh1) = store.insert(tiny_flat(0)).unwrap();
        let (k2, fresh2) = store.insert(tiny_flat(0)).unwrap();
        assert_eq!(k1, k2);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(store.stats().traces, 1);
        assert!(store.get(k1).is_some());
        assert!(store.get(k1 ^ 1).is_none());
    }

    #[test]
    fn over_budget_single_trace_is_refused() {
        let flat = tiny_flat(0);
        let store = TraceStore::new(flat_bytes(&flat) - 1);
        match store.insert(flat) {
            Err(ServeError::TooLarge { bytes, budget }) => assert!(bytes > budget),
            other => panic!(
                "expected TooLarge, got {other:?}",
                other = other.map(|_| ())
            ),
        }
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let one = flat_bytes(&tiny_flat(0));
        // Budget fits two tiny traces but not three.
        let store = TraceStore::new(2 * one + one / 2);
        let (k0, _) = store.insert(tiny_flat(0)).unwrap();
        let (k1, _) = store.insert(tiny_flat(1)).unwrap();
        store.get(k0); // k1 is now coldest
        let (k2, _) = store.insert(tiny_flat(2)).unwrap();
        assert!(store.get(k0).is_some());
        assert!(store.get(k1).is_none(), "cold entry should be evicted");
        assert!(store.get(k2).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn record_bytes_growth_can_evict_others() {
        let one = flat_bytes(&tiny_flat(0));
        let store = TraceStore::new(3 * one);
        let (k0, _) = store.insert(tiny_flat(0)).unwrap();
        let (k1, _) = store.insert(tiny_flat(1)).unwrap();
        store.get(k1);
        // k1 "grows an engine": now needs the whole budget minus one slot.
        store.record_bytes(k1, 5 * one / 2);
        assert!(store.get(k1).is_some());
        assert!(store.get(k0).is_none(), "growth evicts the cold entry");
        let stats = store.stats();
        assert!(stats.bytes <= stats.budget);
    }

    #[test]
    fn remove_frees_bytes() {
        let store = TraceStore::new(1 << 20);
        let (k, _) = store.insert(tiny_flat(0)).unwrap();
        assert!(store.remove(k));
        assert!(!store.remove(k));
        assert_eq!(store.stats().traces, 0);
        assert_eq!(store.stats().bytes, 0);
    }
}
