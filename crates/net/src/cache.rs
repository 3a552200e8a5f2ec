//! A sharded cache of compiled analyses, keyed two ways: by program
//! source text (so a repeat [`crate::WireMsg::AnalyzeProgram`] skips the
//! whole pipeline) and by analysis fingerprint (so
//! [`crate::WireMsg::DispatchBatch`] frames resolve their plan without
//! retransmitting the program).
//!
//! Sharding keeps the dispatch hot path contention-free under the
//! thread-pool server: a lookup locks one shard for a [`HashMap`] probe
//! and clones an [`Arc`]. The *analyze* path intentionally holds its
//! source shard's lock across [`Analysis::from_source`] — concurrent
//! requests for the same new program then collapse into one analysis
//! (the losers find the entry on wake) instead of a thundering herd.
//! A source entry keeps its source text: the 64-bit key only picks the
//! slot, and a hit requires the text to match, so two programs whose
//! keys collide never share an analysis.

use crate::protocol::fingerprint;
use offload_core::{Analysis, AnalysisOptions, AnalyzeError};
use offload_obs::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing how the cache has been used since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// `AnalyzeProgram` requests answered from the cache.
    pub analyze_hits: u64,
    /// `AnalyzeProgram` requests that ran the full analysis pipeline.
    pub analyze_misses: u64,
    /// `DispatchBatch` fingerprint lookups that found their plan.
    pub dispatch_hits: u64,
    /// `DispatchBatch` fingerprint lookups that found nothing.
    pub dispatch_misses: u64,
    /// Distinct analyses currently resident.
    pub entries: u64,
}

struct Shard<K> {
    map: HashMap<u64, K>,
}

impl<K> Default for Shard<K> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
        }
    }
}

/// A source-cache entry: the program text it was compiled from, and the
/// analysis.
type SourceEntry = (Box<str>, Arc<Analysis>);

/// The sharded plan cache. Cheap to share: clone the [`Arc`] it is
/// handed out in.
pub struct PlanCache {
    /// Keyed by FNV-1a of the source text; guards the analyze path.
    by_source: Vec<Mutex<Shard<SourceEntry>>>,
    /// Keyed by analysis fingerprint; guards the dispatch path.
    by_fp: Vec<Mutex<Shard<Arc<Analysis>>>>,
    analyze_hits: AtomicU64,
    analyze_misses: AtomicU64,
    dispatch_hits: AtomicU64,
    dispatch_misses: AtomicU64,
    entries: AtomicU64,
    // Registry handles cached at construction: the dispatch lookup is on
    // the server hot path and must not take the registry mutex per call.
    m_analyze_hits: Arc<Counter>,
    m_analyze_misses: Arc<Counter>,
    m_dispatch_hits: Arc<Counter>,
    m_dispatch_misses: Arc<Counter>,
    m_entries: Arc<Gauge>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.by_source.len())
            .field("stats", &self.stats())
            .finish()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl PlanCache {
    /// Creates a cache with `shards` independent lock domains per index
    /// (clamped to at least 1).
    pub fn new(shards: usize) -> PlanCache {
        let n = shards.max(1);
        PlanCache {
            by_source: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            by_fp: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            analyze_hits: AtomicU64::new(0),
            analyze_misses: AtomicU64::new(0),
            dispatch_hits: AtomicU64::new(0),
            dispatch_misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            m_analyze_hits: offload_obs::counter("net.plan_cache.hits"),
            m_analyze_misses: offload_obs::counter("net.plan_cache.misses"),
            m_dispatch_hits: offload_obs::counter("net.plan_cache.dispatch_hits"),
            m_dispatch_misses: offload_obs::counter("net.plan_cache.dispatch_misses"),
            m_entries: offload_obs::gauge("net.plan_cache.entries"),
        }
    }

    fn source_shard(&self, key: u64) -> &Mutex<Shard<SourceEntry>> {
        &self.by_source[(key % self.by_source.len() as u64) as usize]
    }

    fn fp_shard(&self, key: u64) -> &Mutex<Shard<Arc<Analysis>>> {
        &self.by_fp[(key % self.by_fp.len() as u64) as usize]
    }

    /// Registers an already-compiled analysis (the server's primary
    /// program) under its fingerprint, returning that fingerprint.
    pub fn register(&self, analysis: Arc<Analysis>) -> u64 {
        let fp = fingerprint(&analysis);
        let mut shard = self.fp_shard(fp).lock().unwrap();
        if shard.map.insert(fp, analysis).is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.m_entries.add(1);
        }
        fp
    }

    /// Returns the cached analysis for `source`, running the pipeline on
    /// a miss. The boolean is true on a cache hit.
    ///
    /// # Errors
    ///
    /// [`AnalyzeError`] if the program fails to parse, solve or compile;
    /// failures are not cached.
    pub fn analyze(
        &self,
        source: &str,
        options: AnalysisOptions,
    ) -> Result<(Arc<Analysis>, u64, bool), AnalyzeError> {
        let key = fnv1a(source.as_bytes());
        // Lock held across `from_source` on purpose: see module docs.
        let mut shard = self.source_shard(key).lock().unwrap();
        if let Some((text, found)) = shard.map.get(&key) {
            // A key collision with a different program is a miss; the new
            // program's analysis then takes over the slot.
            if **text == *source {
                self.analyze_hits.fetch_add(1, Ordering::Relaxed);
                self.m_analyze_hits.inc();
                let fp = fingerprint(found);
                return Ok((Arc::clone(found), fp, true));
            }
        }
        self.analyze_misses.fetch_add(1, Ordering::Relaxed);
        self.m_analyze_misses.inc();
        let analysis = Arc::new(Analysis::from_source(source, options)?);
        shard
            .map
            .insert(key, (source.into(), Arc::clone(&analysis)));
        // Source shards and fingerprint shards are separate lock pools
        // and always taken in this order, so no cycle is possible.
        let fp = self.register(Arc::clone(&analysis));
        Ok((analysis, fp, false))
    }

    /// Resolves a dispatch fingerprint to its resident analysis.
    pub fn lookup(&self, fp: u64) -> Option<Arc<Analysis>> {
        let shard = self.fp_shard(fp).lock().unwrap();
        match shard.map.get(&fp) {
            Some(found) => {
                self.dispatch_hits.fetch_add(1, Ordering::Relaxed);
                self.m_dispatch_hits.inc();
                Some(Arc::clone(found))
            }
            None => {
                self.dispatch_misses.fetch_add(1, Ordering::Relaxed);
                self.m_dispatch_misses.inc();
                None
            }
        }
    }

    /// A snapshot of the usage counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            analyze_hits: self.analyze_hits.load(Ordering::Relaxed),
            analyze_misses: self.analyze_misses.load(Ordering::Relaxed),
            dispatch_hits: self.dispatch_hits.load(Ordering::Relaxed),
            dispatch_misses: self.dispatch_misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int f(int k) { return k * k; }
        void main(int n) { output(f(n)); }";

    #[test]
    fn analyze_caches_by_source_and_fingerprint() {
        let cache = PlanCache::new(4);
        let (a1, fp1, hit1) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(!hit1);
        let (a2, fp2, hit2) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        assert!(hit2);
        assert_eq!(fp1, fp2);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(cache.lookup(fp1).is_some());
        assert!(cache.lookup(fp1.wrapping_add(1)).is_none());
        let s = cache.stats();
        assert_eq!((s.analyze_hits, s.analyze_misses), (1, 1));
        assert_eq!((s.dispatch_hits, s.dispatch_misses), (1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn colliding_source_key_is_a_miss_not_a_foreign_plan() {
        const OTHER: &str = "int g(int k) { return k + 1; }
            void main(int n) { output(g(n)); }";
        let cache = PlanCache::new(2);
        let (planted, planted_fp, _) = cache.analyze(SRC, AnalysisOptions::default()).unwrap();
        // Plant SRC's entry under OTHER's key, as a hash collision would.
        let key = fnv1a(OTHER.as_bytes());
        cache
            .source_shard(key)
            .lock()
            .unwrap()
            .map
            .insert(key, (SRC.into(), planted));
        let (got, fp, hit) = cache.analyze(OTHER, AnalysisOptions::default()).unwrap();
        let want = Analysis::from_source(OTHER, AnalysisOptions::default()).unwrap();
        assert!(!hit, "a colliding key must not count as a hit");
        assert_ne!(fp, planted_fp);
        assert_eq!(fp, fingerprint(&want));
        assert_eq!(fingerprint(&got), fingerprint(&want));
    }

    #[test]
    fn register_is_idempotent() {
        let cache = PlanCache::new(1);
        let analysis = Arc::new(Analysis::from_source(SRC, AnalysisOptions::default()).unwrap());
        let fp = cache.register(Arc::clone(&analysis));
        assert_eq!(cache.register(analysis), fp);
        assert_eq!(cache.stats().entries, 1);
    }
}
