//! The `runtime.dispatch.*` counters are always on: every selection, on
//! either dispatcher, counts as exactly one match or one fallback with
//! tracing disabled. A test binary of its own, so no neighbouring test
//! moves the process-wide registry while this one reads it.

use offload_core::{Analysis, AnalysisOptions};

const WORK_LOOP: &str = "
    int work(int k) {
        int j; int acc;
        acc = 0;
        for (j = 0; j < k; j++) { acc = acc + j * j; }
        return acc;
    }
    void main(int n) { output(work(n)); }";

fn count(name: &'static str) -> u64 {
    offload_obs::counter(name).get()
}

#[test]
fn every_selection_counts_once_with_tracing_off() {
    offload_obs::set_enabled(false);
    let analysis = Analysis::from_source(WORK_LOOP, AnalysisOptions::default()).unwrap();
    // The declared space is n >= 0, so -7 lies outside every region.
    let points: [i64; 6] = [0, 1, 10, 1000, 100_000, -7];
    let names = [
        "runtime.dispatch.compiled_matches",
        "runtime.dispatch.compiled_fallbacks",
        "runtime.dispatch.region_matches",
        "runtime.dispatch.fallbacks",
    ];
    let before = names.map(count);
    for p in points {
        let compiled = analysis.compiled.select(&[p]).unwrap();
        let linear = analysis
            .dispatcher
            .select_linear(&analysis.network, &analysis.partition, &[p])
            .unwrap();
        assert_eq!(compiled, linear, "n={p}");
    }
    let d: Vec<u64> = names
        .iter()
        .zip(before)
        .map(|(n, b)| count(n) - b)
        .collect();
    let n = points.len() as u64;
    assert_eq!(d[0] + d[1], n, "compiled: matches + fallbacks");
    assert_eq!(d[2] + d[3], n, "linear scan: matches + fallbacks");
    assert!(d[1] >= 1 && d[3] >= 1, "the out-of-region point falls back");
}
