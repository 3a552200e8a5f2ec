//! The unified pipeline work-counter record and the per-thread sink
//! that fills it.
//!
//! [`PipelineStats`] is the one flat record every layer reports into;
//! `offload-core` re-exports it. The producing layers (Dinic in
//! `offload-flow`, LP and projection in `offload-poly`, the engine in
//! `offload-core`) add their work with [`record`] at the site where it
//! happens, into an accumulator owned by the calling thread. A caller
//! that wants one unit of work's share wraps it in [`measure`]. Work that
//! crosses threads is merged back by the one scoped fan-out helper in
//! `offload-poly`, which runs each worker under [`measure`] and records
//! the worker's share into its caller's scope after join.

use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// This thread's open work record: [`record`] adds into it and
    /// [`measure`] carves out one scope's share.
    static SINK: RefCell<PipelineStats> = RefCell::new(PipelineStats::default());
}

/// Adds work done on this thread to the innermost open [`measure`] scope
/// (or to the thread's outermost record when none is open).
///
/// `f` must not itself call [`record`] or [`measure`].
pub fn record(f: impl FnOnce(&mut PipelineStats)) {
    SINK.with(|s| f(&mut s.borrow_mut()));
}

/// Runs `f` and returns exactly the work recorded on this thread while it
/// ran, including worker records merged back into this thread by
/// [`record`]. The share is then added to the enclosing scope too, so
/// nested measurements stay inclusive. Work done by other threads is
/// never included, so the result is exact under any concurrency.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, PipelineStats) {
    /// Restores the enclosing scope with this scope's share added, also
    /// when `f` unwinds.
    struct Restore(PipelineStats);
    impl Drop for Restore {
        fn drop(&mut self) {
            SINK.with(|s| {
                let mut s = s.borrow_mut();
                let inner = std::mem::replace(&mut *s, self.0);
                s.add(&inner);
            });
        }
    }
    let restore = Restore(SINK.with(|s| s.take()));
    let out = f();
    let inner = SINK.with(|s| *s.borrow());
    drop(restore);
    (out, inner)
}

/// Unified work counters across every layer of the parametric solve
/// pipeline: Dinic effort in `offload-flow`, LP / projection effort in
/// `offload-poly`, and engine-level counters (rounds, cache behaviour,
/// timings) in `offload-core`.
///
/// All fields are plain integers so the struct travels unchanged through
/// bench reports and the net protocol's varint wire format. A solve's
/// record is exact: every counter is recorded by the thread that did the
/// work, into that solve's [`measure`] scope, so concurrent solves in one
/// process never see each other's work. Counter values may legitimately
/// differ between runs with different thread counts or cache settings;
/// the *partitioning output* never does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Max-flow solves performed (concrete min-cuts at sample points).
    pub flow_solves: u64,
    /// Dinic BFS level phases.
    pub flow_phases: u64,
    /// Dinic augmenting paths pushed.
    pub flow_augmenting_paths: u64,
    /// Simplex LP solves.
    pub lp_solves: u64,
    /// Simplex pivots.
    pub lp_pivots: u64,
    /// Variables eliminated by polyhedral projection.
    pub fm_vars_eliminated: u64,
    /// Constraints generated by Fourier–Motzkin combination.
    pub fm_constraints: u64,
    /// LP solves answered from the poly layer's thread-local result cache
    /// without re-running the simplex. Cached solves still contribute
    /// their stored pivot counts to `lp_solves`/`lp_pivots`, so those stay
    /// scheduling-independent; the hit count itself depends on thread
    /// scheduling and is excluded from [`Self::work_counters`].
    pub lp_cache_hits: u64,
    /// `BigInt` results that outgrew the inline `i64` representation and
    /// allocated heap limbs. Scheduling-dependent for the same reason as
    /// `lp_cache_hits` (cached LP solves skip the arithmetic entirely).
    pub small_int_promotions: u64,
    /// Cuts accepted by the region-exploration engine.
    pub regions_explored: u64,
    /// Worklist rounds of the parallel engine.
    pub rounds: u64,
    /// Cut-signature cache hits.
    pub cache_hits: u64,
    /// Cut-signature cache misses (projections actually performed).
    pub cache_misses: u64,
    /// Worker threads the engine was configured with (the resolved
    /// count, uniform across strategies).
    pub threads_used: u32,
    /// Exact syntactic duplicates dropped by the redundancy pipeline's
    /// canonical-form hashing pre-filter.
    pub prefilter_dedup: u64,
    /// Parallel half-spaces dropped by the syntactic dominance sweep
    /// (same canonical direction, provably weaker bound).
    pub prefilter_dominance: u64,
    /// Implication checks discharged by interval/bound propagation
    /// without touching the LP.
    pub prefilter_interval: u64,
    /// Implication checks answered "not implied" by evaluating the
    /// candidate at a cached vertex of the kept set (a negative value at
    /// any feasible point disproves implication without an LP).
    pub prefilter_witness: u64,
    /// Implication checks answered by the warm-started incremental LP
    /// (primal phase-2 re-solved from the previous feasible basis instead
    /// of a from-scratch two-phase solve). Deterministic across thread
    /// counts.
    pub lp_warm_starts: u64,
    /// Dual-simplex pivots spent restoring feasibility after pushing a
    /// kept constraint into the incremental LP. Deterministic across
    /// thread counts.
    pub dual_pivots: u64,
    /// Wall-clock microseconds inside redundancy elimination (pre-filters
    /// + warm-started implication checks), summed across worker threads.
    pub prune_micros: u64,
    /// Wall-clock microseconds inside polyhedron emptiness LPs (the
    /// region-subtraction hot path), summed across worker threads.
    pub region_lp_micros: u64,
    /// Entering-column proposals made by the f64 shadow simplex (one per
    /// shadow-guided pivot search). Deterministic across thread counts:
    /// the shadow is a pure function of the exact tableau, and cached LP
    /// solves replay their stored shadow counts.
    pub shadow_proposals: u64,
    /// Shadow proposals the exact engine certified (the proposed column
    /// really had a positive exact reduced cost, or the shadow's
    /// optimality claim was confirmed). Deterministic across thread
    /// counts.
    pub shadow_certified: u64,
    /// Shadow proposals that failed exact certification, forcing a
    /// Bland's-rule fallback and a shadow resync. Deterministic across
    /// thread counts.
    pub shadow_fallbacks: u64,
    /// Wall-clock microseconds inside shadow-enabled simplex runs,
    /// summed across worker threads. A timing, not a work counter:
    /// masked from determinism comparisons.
    pub certify_micros: u64,
    /// Wall-clock microseconds of the §5.4 simplification.
    pub simplify_micros: u64,
    /// Wall-clock microseconds of the region exploration (everything
    /// after simplification).
    pub solve_micros: u64,
}

impl PipelineStats {
    /// Adds `other` into this record field by field (`threads_used`
    /// takes the larger value: it is a configuration, not work). Sums
    /// commute, so merging worker records never depends on join order.
    pub fn add(&mut self, other: &PipelineStats) {
        self.flow_solves += other.flow_solves;
        self.flow_phases += other.flow_phases;
        self.flow_augmenting_paths += other.flow_augmenting_paths;
        self.lp_solves += other.lp_solves;
        self.lp_pivots += other.lp_pivots;
        self.fm_vars_eliminated += other.fm_vars_eliminated;
        self.fm_constraints += other.fm_constraints;
        self.lp_cache_hits += other.lp_cache_hits;
        self.small_int_promotions += other.small_int_promotions;
        self.regions_explored += other.regions_explored;
        self.rounds += other.rounds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.prefilter_dedup += other.prefilter_dedup;
        self.prefilter_dominance += other.prefilter_dominance;
        self.prefilter_interval += other.prefilter_interval;
        self.prefilter_witness += other.prefilter_witness;
        self.lp_warm_starts += other.lp_warm_starts;
        self.dual_pivots += other.dual_pivots;
        self.prune_micros += other.prune_micros;
        self.region_lp_micros += other.region_lp_micros;
        self.shadow_proposals += other.shadow_proposals;
        self.shadow_certified += other.shadow_certified;
        self.shadow_fallbacks += other.shadow_fallbacks;
        self.certify_micros += other.certify_micros;
        self.simplify_micros += other.simplify_micros;
        self.solve_micros += other.solve_micros;
    }

    /// Implication checks the pre-filter ladder discharged without an LP
    /// solve (dedup + dominance + interval + witness points).
    /// Deterministic across thread counts.
    pub fn prefilter_hits(&self) -> u64 {
        self.prefilter_dedup
            + self.prefilter_dominance
            + self.prefilter_interval
            + self.prefilter_witness
    }

    /// Cache hit rate in `[0, 1]` (zero when the cache was never
    /// consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// This record with every non-deterministic field zeroed: wall-clock
    /// times, the configured thread count, and the cache/representation
    /// counters that legitimately vary with thread scheduling
    /// (`lp_cache_hits`, `small_int_promotions`). What remains are pure
    /// work counters, which the engine's determinism contract requires to
    /// be identical for every thread count.
    pub fn work_counters(&self) -> PipelineStats {
        PipelineStats {
            threads_used: 0,
            simplify_micros: 0,
            solve_micros: 0,
            prune_micros: 0,
            region_lp_micros: 0,
            certify_micros: 0,
            lp_cache_hits: 0,
            small_int_promotions: 0,
            ..*self
        }
    }

    /// Publishes every field into the process-wide metrics registry
    /// under `pipeline.*` counters/gauges, so metric consumers see the
    /// same numbers as [`PipelineStats`] readers.
    pub fn publish_metrics(&self) {
        crate::counter("pipeline.flow_solves").add(self.flow_solves);
        crate::counter("pipeline.flow_phases").add(self.flow_phases);
        crate::counter("pipeline.flow_augmenting_paths").add(self.flow_augmenting_paths);
        crate::counter("pipeline.lp_solves").add(self.lp_solves);
        crate::counter("pipeline.lp_pivots").add(self.lp_pivots);
        crate::counter("pipeline.fm_vars_eliminated").add(self.fm_vars_eliminated);
        crate::counter("pipeline.fm_constraints").add(self.fm_constraints);
        crate::counter("pipeline.lp_cache_hits").add(self.lp_cache_hits);
        crate::counter("pipeline.small_int_promotions").add(self.small_int_promotions);
        crate::counter("pipeline.prefilter_hits").add(self.prefilter_hits());
        crate::counter("pipeline.lp_warm_starts").add(self.lp_warm_starts);
        crate::counter("pipeline.dual_pivots").add(self.dual_pivots);
        crate::counter("pipeline.shadow_proposals").add(self.shadow_proposals);
        crate::counter("pipeline.shadow_certified").add(self.shadow_certified);
        crate::counter("pipeline.shadow_fallbacks").add(self.shadow_fallbacks);
        crate::counter("pipeline.regions_explored").add(self.regions_explored);
        crate::counter("pipeline.rounds").add(self.rounds);
        crate::counter("pipeline.cache_hits").add(self.cache_hits);
        crate::counter("pipeline.cache_misses").add(self.cache_misses);
        crate::gauge("pipeline.threads_used").set(self.threads_used as i64);
        crate::histogram("pipeline.simplify_us").record(self.simplify_micros);
        crate::histogram("pipeline.solve_us").record(self.solve_micros);
        crate::histogram("pipeline.prune_us").record(self.prune_micros);
        crate::histogram("pipeline.region_lp_us").record(self.region_lp_micros);
        crate::histogram("pipeline.certify_us").record(self.certify_micros);
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flow: {} solves, {} phases, {} augmenting paths",
            self.flow_solves, self.flow_phases, self.flow_augmenting_paths
        )?;
        writeln!(
            f,
            "poly: {} LP solves ({} cached), {} pivots, {} vars eliminated, {} FM constraints, {} bigint promotions",
            self.lp_solves,
            self.lp_cache_hits,
            self.lp_pivots,
            self.fm_vars_eliminated,
            self.fm_constraints,
            self.small_int_promotions
        )?;
        writeln!(
            f,
            "prune: {} prefilter hits, {} warm starts, {} dual pivots",
            self.prefilter_hits(),
            self.lp_warm_starts,
            self.dual_pivots
        )?;
        writeln!(
            f,
            "shadow: {} proposals ({} certified, {} fallbacks), {} us certifying",
            self.shadow_proposals,
            self.shadow_certified,
            self.shadow_fallbacks,
            self.certify_micros
        )?;
        writeln!(
            f,
            "core: {} regions in {} rounds on {} thread(s), cache {}/{} ({:.0}% hit)",
            self.regions_explored,
            self.rounds,
            self.threads_used,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate() * 100.0
        )?;
        write!(
            f,
            "time: simplify {} us, solve {} us (prune {} us, region LPs {} us)",
            self.simplify_micros, self.solve_micros, self.prune_micros, self.region_lp_micros
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_isolates_and_nests_inclusively() {
        let (_, outer) = measure(|| {
            record(|s| s.lp_solves += 1);
            let ((), inner) = measure(|| record(|s| s.lp_solves += 2));
            assert_eq!(inner.lp_solves, 2);
            record(|s| s.flow_solves += 1);
        });
        assert_eq!((outer.lp_solves, outer.flow_solves), (3, 1));
    }

    #[test]
    fn other_threads_never_leak_in() {
        let ((), mine) = measure(|| {
            std::thread::scope(|s| {
                s.spawn(|| record(|s| s.lp_pivots += 100));
            });
            record(|s| s.lp_pivots += 1);
        });
        assert_eq!(mine.lp_pivots, 1);
    }

    #[test]
    fn unwinding_restores_the_enclosing_scope() {
        let ((), outer) = measure(|| {
            let caught = std::panic::catch_unwind(|| {
                measure(|| {
                    record(|s| s.dual_pivots += 5);
                    panic!("boom");
                })
            });
            assert!(caught.is_err());
            record(|s| s.dual_pivots += 1);
        });
        assert_eq!(outer.dual_pivots, 6);
    }

    #[test]
    fn add_sums_and_keeps_the_larger_thread_count() {
        let mut a = PipelineStats {
            prefilter_dedup: 1,
            prefilter_witness: 2,
            threads_used: 4,
            ..PipelineStats::default()
        };
        a.add(&PipelineStats {
            prefilter_interval: 3,
            threads_used: 1,
            ..PipelineStats::default()
        });
        assert_eq!(a.prefilter_hits(), 6);
        assert_eq!(a.threads_used, 4);
    }
}
