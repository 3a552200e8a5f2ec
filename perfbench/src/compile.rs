//! The `compile` workload, and the traced compile every workload's
//! set-up uses.
//!
//! One op compiles all six Table 3 programs from source to compiled
//! dispatcher, back to back, in an order drawn from the seed. Untraced
//! ops call [`Benchmark::analyze`]; traced ops replay the same pipeline
//! through its public pieces — `offload_lang::frontend`,
//! `offload_ir::lower`, and the nine `passes::*Pass` structs in standard
//! order — timing each call.

use crate::stats::{self, Rng};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Report};
use offload_benchmarks::Benchmark;
use offload_core::passes::{self, keys, Pass, PassContext, PassReport};
use offload_core::{
    Analysis, AnalysisOptions, AnalyzeError, Partition, PipelineStats, SolveOptions,
};
use std::time::{Duration, Instant};

/// Choice the dispatcher picks at each program's default parameters,
/// in Table 3 order.
const DEFAULT_CHOICES: [(&str, usize); 6] = [
    ("rawcaudio", 1),
    ("rawdaudio", 1),
    ("encode", 2),
    ("decode", 2),
    ("fft", 3),
    ("susan", 0),
];

/// In-bounds points per program on which compiled `select` must agree
/// with the linear scan after every op.
const PROBES_PER_PROGRAM: usize = 64;

/// Span names of the front end and the nine standard passes, in
/// pipeline order, with the per-layer metric each one feeds.
pub const LAYERS: [(&str, &str); 11] = [
    ("lang.frontend", "lang.frontend_ms"),
    ("ir.lower", "ir.lower_ms"),
    ("points-to", "pta.points_to_ms"),
    ("tcfg", "tcfg.build_ms"),
    ("modref", "pta.modref_ms"),
    ("symbolic", "symbolic.analyze_ms"),
    ("annotate", "core.annotate_ms"),
    ("items", "core.items_ms"),
    ("netbuild", "core.netbuild_ms"),
    ("solve", "core.solve_ms"),
    ("compile", "core.compile_dag_ms"),
];

const PROGRAM_METRICS: [(&str, &str); 6] = [
    ("rawcaudio", "compile.rawcaudio_ms"),
    ("rawdaudio", "compile.rawdaudio_ms"),
    ("encode", "compile.encode_ms"),
    ("decode", "compile.decode_ms"),
    ("fft", "compile.fft_ms"),
    ("susan", "compile.susan_ms"),
];

/// The options [`Benchmark::analyze`] uses, with default solver threads.
fn options(b: &Benchmark) -> AnalysisOptions {
    AnalysisOptions::builder()
        .bounds(b.bounds.clone())
        .annotate_with(b.annotate)
        .solve(SolveOptions {
            region_strategy: b.region_strategy(),
            ..SolveOptions::default()
        })
        .build()
}

/// Compiles `b`, traced when `tracer` is given: a span named after the
/// program, with one child per front-end call and pass.
pub fn compile(
    b: &Benchmark,
    tracer: Option<(&mut Tracer, u64, Option<SpanId>)>,
) -> Result<Analysis, AnalyzeError> {
    let Some((tr, op, parent)) = tracer else {
        return b.analyze();
    };
    let start = Instant::now();
    let root = tr.open(b.name, "", op, parent, start);
    let t0 = Instant::now();
    let checked = offload_lang::frontend(&b.source)?;
    let t1 = Instant::now();
    tr.span("lang.frontend", b.name, op, Some(root), t0, t1);
    let module = offload_ir::lower(&checked);
    let t2 = Instant::now();
    tr.span("ir.lower", b.name, op, Some(root), t1, t2);

    let mut cx = PassContext::new();
    cx.put(keys::MODULE, module);
    cx.put(keys::OPTIONS, options(b));
    let pipeline: [&dyn Pass; 9] = [
        &passes::PointsToPass,
        &passes::TcfgPass,
        &passes::ModRefPass,
        &passes::SymbolicPass,
        &passes::AnnotatePass,
        &passes::ItemsPass,
        &passes::NetBuildPass,
        &passes::SolvePass,
        &passes::CompilePass,
    ];
    let mut reports = Vec::with_capacity(pipeline.len());
    for pass in pipeline {
        let mut report = PassReport {
            pass: pass.name(),
            ..PassReport::default()
        };
        let t = Instant::now();
        pass.run(&mut cx, &mut report)?;
        let end = Instant::now();
        report.micros = (end - t).as_micros() as u64;
        tr.span(pass.name(), b.name, op, Some(root), t, end);
        reports.push(report);
    }
    let analysis = Analysis {
        module: cx.take(keys::MODULE)?,
        tcfg: cx.take(keys::TCFG)?,
        pta: cx.take(keys::POINTS_TO)?,
        modref: cx.take(keys::MODREF)?,
        symbolic: cx.take(keys::SYMBOLIC)?,
        items: cx.take(keys::ITEMS)?,
        network: cx.take(keys::NETWORK)?,
        partition: cx.take(keys::PARTITION)?,
        dispatcher: cx.take(keys::DISPATCHER)?,
        compiled: cx.take(keys::COMPILED)?,
        reports,
        analysis_time: start.elapsed(),
    };
    tr.close(b.name, root, start, Instant::now());
    Ok(analysis)
}

/// Compile-plane per-layer metrics from a tracer holding `per` traced
/// compiles (suites, or set-ups), whose mean wall time is `total_ms`.
/// The eleven layer timers plus `compile.unattributed_ms` sum to it.
pub fn layer_metrics(report: &mut Report, tr: &Tracer, per: f64, total_ms: f64) {
    let mut attributed = 0.0;
    for (span, metric) in LAYERS {
        let v = stats::ms(tr.total(span).1) / per;
        attributed += v;
        report.set(metric, v);
    }
    report.set("compile.unattributed_ms", total_ms - attributed);
    for (span, metric) in PROGRAM_METRICS {
        report.set(metric, stats::ms(tr.total(span).1) / per);
    }
}

/// Solver work counters, summed over the analyses of `per` compiles.
/// Exact because the benchmark runs one analysis at a time.
pub fn counter_metrics(report: &mut Report, all: &[PipelineStats], per: f64) {
    let sum = |f: fn(&PipelineStats) -> u64| all.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.set("flow.solves", sum(|s| s.flow_solves) / per);
    report.set(
        "flow.augmenting_paths",
        sum(|s| s.flow_augmenting_paths) / per,
    );
    report.set("poly.lp_solves", sum(|s| s.lp_solves) / per);
    report.set("poly.lp_pivots", sum(|s| s.lp_pivots) / per);
    report.set(
        "poly.lp_cache_hit_ratio",
        ratio(sum(|s| s.lp_cache_hits), sum(|s| s.lp_solves)),
    );
    report.set("poly.fm_constraints", sum(|s| s.fm_constraints) / per);
    report.set(
        "poly.shadow_certified_ratio",
        ratio(sum(|s| s.shadow_certified), sum(|s| s.shadow_proposals)),
    );
    report.set("poly.prune_ms", sum(|s| s.prune_micros) / per / 1e3);
    report.set("poly.region_lp_ms", sum(|s| s.region_lp_micros) / per / 1e3);
    report.set(
        "core.cut_cache_hit_ratio",
        ratio(
            sum(|s| s.cache_hits),
            sum(|s| s.cache_hits) + sum(|s| s.cache_misses),
        ),
    );
    report.set("core.regions_explored", sum(|s| s.regions_explored) / per);
    report.set(
        "core.threads_used",
        all.iter().map(|s| s.threads_used).max().unwrap_or(0) as f64,
    );
}

/// The checks run on every op's output, outside the timed window.
/// Returns a description of the first failure.
fn check(
    b: &Benchmark,
    a: &Analysis,
    reference: &[Partition],
    probes: &[Vec<i64>],
) -> Option<String> {
    if a.partition.choices != reference {
        return Some(format!(
            "{}: partitions differ from the set-up's reference",
            b.name
        ));
    }
    let want = DEFAULT_CHOICES
        .iter()
        .find(|(n, _)| *n == b.name)
        .map(|p| p.1);
    match a.select(&b.default_params) {
        Ok(c) if Some(c) == want => {}
        other => {
            return Some(format!(
                "{}: default choice {other:?}, want {want:?}",
                b.name
            ))
        }
    }
    for p in probes {
        let compiled = a.select(p);
        let linear = a.dispatcher.select_linear(&a.network, &a.partition, p);
        match (compiled, linear) {
            (Ok(c), Ok(l)) if c == l => {}
            (c, l) => {
                return Some(format!(
                    "{}: select {c:?} != select_linear {l:?} at {p:?}",
                    b.name
                ))
            }
        }
    }
    None
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed, 0);
    // Set-up: load the six programs (build their sources and check that
    // each passes the front end), draw the seeded probe sets, and compile
    // the suite once for the reference partitions every later op must
    // reproduce. That compile is also the run's warm-up op, outside the
    // timed window.
    let mut analyze_ms = Vec::with_capacity(crate::SETUP_REPS);
    let (loaded, setup_s) = crate::repeat_setup(crate::SETUP_REPS, || {
        let benches = offload_benchmarks::all();
        for b in &benches {
            offload_lang::frontend(&b.source).map_err(|e| format!("{}: {e}", b.name))?;
        }
        let mut probe_rng = Rng::new(args.seed, 1);
        let probes: Vec<Vec<Vec<i64>>> = benches
            .iter()
            .map(|b| {
                (0..PROBES_PER_PROGRAM)
                    .map(|_| stats::in_bounds_point(&b.bounds, b.param_names.len(), &mut probe_rng))
                    .collect()
            })
            .collect();
        let analyze_start = Instant::now();
        let reference = benches
            .iter()
            .map(|b| {
                b.analyze()
                    .map(|a| a.partition.choices)
                    .map_err(|e| format!("{}: reference analysis failed: {e}", b.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        analyze_ms.push(stats::ms(analyze_start.elapsed()));
        Ok::<_, String>((benches, probes, reference))
    });
    let (benches, probes, reference) = match loaded {
        Ok(l) => l,
        Err(e) => {
            report.attempted = 1;
            report.fail(1, format!("set-up failed: {e}"));
            return report;
        }
    };

    let mut tracer = args.trace.then(Tracer::default);
    let mut times = Vec::new();
    let mut traced_times = Vec::new();
    let mut untraced_times = Vec::new();
    let mut counters = Vec::new();
    let end = Instant::now() + Duration::from_secs(args.seconds);
    let mut op = 0u64;
    while crate::more_ops(args, end, op) {
        let mut order: Vec<usize> = (0..benches.len()).collect();
        rng.shuffle(&mut order);
        // In a traced run, every other op is left untraced, so the
        // tracer's own cost can be measured.
        let traced = args.trace && op.is_multiple_of(2);
        let start = Instant::now();
        let root = tracer
            .as_mut()
            .filter(|_| traced)
            .map(|t| t.open("suite", "", op, None, start));
        let mut results = Vec::with_capacity(order.len());
        for &i in &order {
            let tr = tracer.as_mut().filter(|_| traced).map(|t| (t, op, root));
            results.push((i, compile(&benches[i], tr)));
        }
        let elapsed = start.elapsed();
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close("suite", root, start, start + elapsed);
        }
        op += 1;
        report.attempted += 1;
        let mut failure = None;
        for (i, r) in &results {
            match r {
                Ok(a) => {
                    if traced {
                        counters.push(a.pipeline_stats());
                    }
                    report.threads_used = report.threads_used.max(a.pipeline_stats().threads_used);
                    failure =
                        failure.or_else(|| check(&benches[*i], a, &reference[*i], &probes[*i]));
                }
                Err(e) => failure = failure.or(Some(format!("{}: {e}", benches[*i].name))),
            }
        }
        if let Some(why) = failure {
            report.fail(1, format!("op {op}: {why}"));
            continue;
        }
        times.push(stats::ms(elapsed));
        if args.trace {
            if traced {
                &mut traced_times
            } else {
                &mut untraced_times
            }
            .push(stats::ms(elapsed));
        }
    }

    if let Some(tr) = tracer {
        let per = traced_times.len().max(1) as f64;
        let total_ms = stats::mean(&traced_times);
        layer_metrics(&mut report, &tr, per, total_ms);
        counter_metrics(&mut report, &counters, per);
        report.set("setup.analyze_ms", stats::median(&analyze_ms));
        report.set("trace.latency_ms", total_ms);
        report.set(
            "trace.overhead_pct",
            (stats::median(&traced_times) / stats::median(&untraced_times) - 1.0) * 100.0,
        );
        report.tracer = Some(tr);
    } else {
        let total: f64 = times.iter().sum();
        report.set("setup_s", setup_s);
        report.set("latency_ms", stats::median(&times));
        report.set("p99_ms", stats::percentile(&times, 0.99));
        report.set(
            "ops_per_s",
            (times.len() * benches.len()) as f64 / (total / 1e3),
        );
    }
    report.notes.push(format!(
        "compile: {} suites of {} programs, {} probes per program checked per suite",
        report.attempted,
        benches.len(),
        PROBES_PER_PROGRAM
    ));
    report
}
