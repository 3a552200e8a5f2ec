//! perfbench — one same-host benchmark for the compile, serve and
//! execute planes.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|dispatch-io|dispatch-select|offload-run> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying every end-to-end metric; with `--trace 1` it carries every
//! per-layer metric instead, and the spans are written as JSON lines
//! under the build directory. `perfbench/README.md` defines each
//! workload and metric.

mod compile;
mod dispatch;
mod offload;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    // Compile plane, per suite (per setup compile on the other workloads).
    ("lang.frontend_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("pta.points_to_ms", "ms"),
    ("tcfg.build_ms", "ms"),
    ("pta.modref_ms", "ms"),
    ("symbolic.analyze_ms", "ms"),
    ("core.annotate_ms", "ms"),
    ("core.items_ms", "ms"),
    ("core.netbuild_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.compile_dag_ms", "ms"),
    ("compile.unattributed_ms", "ms"),
    ("compile.rawcaudio_ms", "ms"),
    ("compile.rawdaudio_ms", "ms"),
    ("compile.encode_ms", "ms"),
    ("compile.decode_ms", "ms"),
    ("compile.fft_ms", "ms"),
    ("compile.susan_ms", "ms"),
    ("flow.solves", "count"),
    ("flow.augmenting_paths", "count"),
    ("poly.lp_solves", "count"),
    ("poly.lp_pivots", "count"),
    ("poly.lp_cache_hit_ratio", "ratio"),
    ("poly.fm_constraints", "count"),
    ("poly.shadow_certified_ratio", "ratio"),
    ("poly.prune_ms", "ms"),
    ("poly.region_lp_ms", "ms"),
    ("core.cut_cache_hit_ratio", "ratio"),
    ("core.regions_explored", "count"),
    ("core.threads_used", "count"),
    // Execute plane, per cycle.
    ("core.plan_for_us", "us"),
    ("runtime.sim_run_ms", "ms"),
    ("runtime.local_run_ms", "ms"),
    ("net.session_overhead_ms", "ms"),
    ("runtime.messages", "count"),
    ("runtime.slots_transferred", "count"),
    ("runtime.instructions", "count"),
    // Set-up and the tracer itself.
    ("setup.analyze_ms", "ms"),
    ("setup.bind_ms", "ms"),
    ("trace.latency_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Serve-plane per-layer metrics, per batch, printed after `PER_LAYER`
/// by traced runs of the dispatch workloads only.
const SERVE_LAYER: &[(&str, &str)] = &[
    ("net.client_send_us", "us"),
    ("net.client_recv_us", "us"),
    ("core.select_us", "us"),
    ("net.codec_us", "us"),
    ("net.frame_bytes", "bytes"),
    ("dispatch.unattributed_us", "us"),
    ("net.server.queue_us_p50", "us"),
    ("net.server.select_us_p50", "us"),
    ("net.server.reply_us_p50", "us"),
    ("net.reactor.frames_per_wakeup", "count"),
    ("net.reactor.wakeups_per_batch", "count"),
    ("net.reactor.coalesced_writes_per_batch", "count"),
    ("net.reactor.spurious_wakeup_ratio", "ratio"),
];

/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload measured. `metrics` holds end-to-end values in an
/// untraced run and per-layer values in a traced one.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// Solver threads the run's analyses were configured with.
    pub threads_used: u32,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts `n` failed ops, with the reason shown ahead of the result.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.notes.push(format!("FAILED: {}", why.into()));
    }
}

/// Runs `setup` `reps` times, keeping the last result. Returns it with
/// the median wall time of one set-up in seconds.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first, so servers and sockets do not
        // pile up across repetitions.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Runs `f` on a freshly spawned thread and returns its result with the
/// start and end of the call there. `offload-run` times every engine run
/// and replay through here: where a thread's stack and heap land moves
/// one interpreter run of rawcaudio between about 50 and 100 ms, and one
/// process can keep the slow placement throughout, so a fresh thread per
/// call lets a run's median average over placements. (`compile` stays on
/// one thread: on fresh threads its suite ran 20% slower and spread 16%
/// instead of 8% over five runs.)
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> (T, Instant, Instant) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let start = Instant::now();
            let out = f();
            (out, start, Instant::now())
        })
        .join()
        .expect("benchmark thread panicked")
    })
}

/// Whether a window that ends at `end` wants another op after `done`
/// ops: a traced run needs at least one traced and one untraced op.
pub fn more_ops(args: &Args, end: Instant, done: u64) -> bool {
    Instant::now() < end || done < if args.trace { 2 } else { 1 }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Where a traced run writes its spans: `perfbench/` beside the
/// `release/` directory the binary was built into.
fn trace_path(args: &Args) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let target = exe.parent()?.parent()?;
    Some(
        target
            .join("perfbench")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut report = match args.workload.as_str() {
        "compile" => compile::run(&args),
        "dispatch-io" => dispatch::run(&args, dispatch::IO),
        "dispatch-select" => dispatch::run(&args, dispatch::SELECT),
        "offload-run" => offload::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let serve = if args.workload.starts_with("dispatch-") {
        SERVE_LAYER
    } else {
        &[]
    };
    let wanted: Vec<_> = if args.trace {
        PER_LAYER.iter().chain(serve).collect()
    } else {
        END_TO_END.iter().collect()
    };
    if !args.trace {
        report.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    }
    println!(
        "# host: cpu={:?} nproc={} rustc={:?} core.threads_used={} backend={} seed={} workload={} seconds={} trace={}",
        stats::cpu_model(),
        stats::nproc(),
        env!("PERFBENCH_RUSTC"),
        report.threads_used,
        offload_net::ServerConfig::default().resolved_backend().name(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let mut fields = Vec::new();
    let mut bad = Vec::new();
    for &&(name, unit) in &wanted {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            bad.push(name);
        }
        println!("# {name:<40} {value:>16.4} {unit}");
        // `{}` on f64 prints the shortest string that reads back exactly.
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !bad.is_empty() {
        report.fail(0, format!("non-finite metrics: {}", bad.join(", ")));
    }
    if let (Some(tracer), Some(path)) = (&report.tracer, trace_path(&args)) {
        match tracer.write(&path, epoch) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    let correct = report.failed == 0 && bad.is_empty() && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
