//! The `offload-run` workload.
//!
//! One op is a cycle of `OffloadEngine::run` over rawcaudio, rawdaudio,
//! encode and decode at their default parameters, in an order drawn
//! from the seed. Each program has its own server with the default
//! `ServerConfig`, and every run selects a partitioned plan, so each one
//! crosses the socket through the session turn protocol.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Report};
use offload_benchmarks::Benchmark;
use offload_core::Analysis;
use offload_net::{ClientConfig, OffloadEngine, OffloadServer, ServerConfig, ServerHandle};
use offload_runtime::{DeviceModel, Simulator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Programs of a cycle, with the choice each must select at its
/// default parameters.
const PROGRAMS: [(fn() -> Benchmark, usize); 4] = [
    (offload_benchmarks::rawcaudio, 1),
    (offload_benchmarks::rawdaudio, 1),
    (offload_benchmarks::encode, 2),
    (offload_benchmarks::decode, 2),
];

/// `plan_for` calls per replay (one call takes a few microseconds).
const PLAN_FOR_CALLS: u32 = 1000;

struct Program {
    bench: Benchmark,
    expected_choice: usize,
    analysis: Arc<Analysis>,
    input: Vec<i64>,
    server: ServerHandle,
}

fn setup(tracer: &mut Option<Tracer>, times: &mut Vec<(f64, f64)>) -> Result<Vec<Program>, String> {
    let mut analyze_ms = 0.0;
    let mut bind_ms = 0.0;
    let mut out = Vec::with_capacity(PROGRAMS.len());
    for (make, expected_choice) in PROGRAMS {
        let start = Instant::now();
        let bench = make();
        let input = (bench.make_input)(&bench.default_params);
        let analysis = crate::compile::compile(&bench, tracer.as_mut().map(|t| (t, 0, None)))
            .map_err(|e| format!("{}: {e}", bench.name))?;
        let analysis = Arc::new(analysis);
        let bind_start = Instant::now();
        let server = OffloadServer::bind(
            "127.0.0.1:0",
            Arc::clone(&analysis),
            DeviceModel::ipaq_testbed(),
            ServerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        analyze_ms += stats::ms(bind_start - start);
        bind_ms += stats::ms(bind_start.elapsed());
        out.push(Program {
            bench,
            expected_choice,
            analysis,
            input,
            server,
        });
    }
    times.push((analyze_ms, bind_ms));
    Ok(out)
}

/// Replays one program of a traced cycle in process, right after the
/// cycle, as spans under the cycle's op: `plan_for`, then the chosen
/// plan through `Simulator::run_choice` (both halves, no sockets), then
/// the all-local interpreter baseline through `run_local`.
fn replay(p: &Program, sim: &Simulator<'_>, tr: &mut Tracer, op: u64) {
    let params = &p.bench.default_params;
    let t0 = Instant::now();
    for _ in 0..PLAN_FOR_CALLS {
        std::hint::black_box(p.analysis.plan_for(std::hint::black_box(params)).is_ok());
    }
    let t1 = Instant::now();
    tr.span("core.plan_for", p.bench.name, op, None, t0, t1);
    std::hint::black_box(sim.run_choice(p.expected_choice, params, &p.input).is_ok());
    let t2 = Instant::now();
    tr.span("runtime.run_choice", p.bench.name, op, None, t1, t2);
    std::hint::black_box(sim.run_local(params, &p.input).is_ok());
    tr.span(
        "runtime.run_local",
        p.bench.name,
        op,
        None,
        t2,
        Instant::now(),
    );
}

/// What one cycle's runs reported, kept for the checks.
struct CycleRun {
    program: usize,
    choice: usize,
    offloaded: bool,
    fell_back: bool,
    outputs: Vec<i64>,
    stats: offload_runtime::RunStats,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = args.trace.then(Tracer::default);
    let mut setup_times = Vec::new();
    let (made, setup_s) =
        crate::repeat_setup(crate::SETUP_REPS, || setup(&mut tracer, &mut setup_times));
    let programs = match made {
        Ok(p) => p,
        Err(e) => {
            report.attempted = 1;
            report.fail(1, format!("set-up failed: {e}"));
            return report;
        }
    };
    report.threads_used = programs
        .iter()
        .map(|p| p.analysis.pipeline_stats().threads_used)
        .max()
        .unwrap_or(0);
    let device = DeviceModel::ipaq_testbed();
    let engines: Vec<OffloadEngine<'_>> = programs
        .iter()
        .map(|p| {
            OffloadEngine::new(
                &p.analysis,
                device.clone(),
                ClientConfig::new(p.server.addr().to_string()),
            )
        })
        .collect();

    let sims: Vec<Simulator<'_>> = programs
        .iter()
        .map(|p| Simulator::new(&p.analysis, device.clone()))
        .collect();

    let mut rng = Rng::new(args.seed, 0);
    // A cycle's time is the sum of its runs' times, each taken on the
    // run's own fresh thread.
    let mut cycle = |op: u64, mut tracer: Option<&mut Tracer>| {
        let mut order: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut order);
        let mut elapsed = Duration::ZERO;
        let mut runs = Vec::with_capacity(order.len());
        let mut spans = Vec::with_capacity(order.len());
        for &i in &order {
            let p = &programs[i];
            let engine = &engines[i];
            let (r, t0, t1) =
                crate::on_fresh_thread(|| engine.run(&p.bench.default_params, &p.input));
            elapsed += t1 - t0;
            spans.push((p.bench.name, t0, t1));
            runs.push((i, r));
        }
        if let (Some(t), Some(&(_, start, _)), Some(&(_, _, end))) =
            (tracer.as_mut(), spans.first(), spans.last())
        {
            let root = t.open("cycle", "", op, None, start);
            for (name, t0, t1) in spans {
                t.span("engine.run", name, op, Some(root), t0, t1);
            }
            t.close("cycle", root, start, end);
        }
        (elapsed, runs)
    };

    // Warm-up cycle, untimed; a run that fails here counts as a failed op.
    let (warm_time, warm) = cycle(u64::MAX, None);
    report
        .notes
        .push(format!("warm-up cycle: {:.1} ms", stats::ms(warm_time)));
    for (i, r) in &warm {
        if let Err(e) = r {
            report.attempted += 1;
            report.fail(1, format!("warm-up {}: {e}", programs[*i].bench.name));
        }
    }

    let mut times = Vec::new();
    let mut traced_times = Vec::new();
    let mut untraced_times = Vec::new();
    let mut cycles: Vec<Vec<CycleRun>> = Vec::new();
    let end = Instant::now() + Duration::from_secs(args.seconds);
    let mut op = 0u64;
    while crate::more_ops(args, end, op) {
        let traced = args.trace && op.is_multiple_of(2);
        let (elapsed, runs) = cycle(op, tracer.as_mut().filter(|_| traced));
        op += 1;
        report.attempted += 1;
        let mut kept = Vec::with_capacity(runs.len());
        let mut failure = None;
        for (i, r) in runs {
            match r {
                Ok(rep) => kept.push(CycleRun {
                    program: i,
                    choice: rep.choice,
                    offloaded: rep.offloaded,
                    fell_back: rep.fell_back,
                    outputs: rep.result.outputs,
                    stats: rep.result.stats,
                }),
                Err(e) => failure = failure.or(Some(format!("{}: {e}", programs[i].bench.name))),
            }
        }
        if let Some(why) = failure {
            report.fail(1, format!("cycle {op}: {why}"));
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
        if let (Some(tr), true) = (tracer.as_mut(), traced) {
            for (p, sim) in programs.iter().zip(&sims) {
                crate::on_fresh_thread(|| replay(p, sim, tr, op - 1));
            }
        }
        cycles.push(kept);
    }

    // Outputs: every run offloaded, without falling back, under the
    // expected choice, and wrote what the all-local interpreter writes.
    let mut expected = Vec::with_capacity(programs.len());
    for (p, sim) in programs.iter().zip(&sims) {
        match sim.run_local(&p.bench.default_params, &p.input) {
            Ok(r) => expected.push(Some(r.outputs)),
            Err(e) => {
                report.fail(0, format!("{}: run_local: {e}", p.bench.name));
                expected.push(None);
            }
        }
    }
    let mut bad_cycles = 0u64;
    for (c, runs) in cycles.iter().enumerate() {
        let why = runs.iter().find_map(|r| {
            let p = &programs[r.program];
            if r.choice != p.expected_choice {
                Some(format!(
                    "{}: choice {} != {}",
                    p.bench.name, r.choice, p.expected_choice
                ))
            } else if !r.offloaded || r.fell_back {
                Some(format!(
                    "{}: offloaded={} fell_back={}",
                    p.bench.name, r.offloaded, r.fell_back
                ))
            } else if expected[r.program].as_ref() != Some(&r.outputs) {
                Some(format!("{}: outputs differ from run_local", p.bench.name))
            } else {
                None
            }
        });
        if let Some(why) = why {
            bad_cycles += 1;
            if bad_cycles == 1 {
                report.fail(0, format!("cycle {c}: {why}"));
            }
        }
    }
    report.failed += bad_cycles;
    report.notes.push(format!(
        "offload-run: {} cycles of {} offloaded runs, each checked against run_local",
        report.attempted,
        programs.len()
    ));

    if let Some(tr) = tracer.take() {
        let per_setup = crate::SETUP_REPS as f64;
        let analyze: Vec<f64> = setup_times.iter().map(|t| t.0).collect();
        let bind: Vec<f64> = setup_times.iter().map(|t| t.1).collect();
        crate::compile::layer_metrics(&mut report, &tr, per_setup, stats::mean(&analyze));
        let counters: Vec<_> = programs
            .iter()
            .map(|p| p.analysis.pipeline_stats())
            .collect();
        crate::compile::counter_metrics(&mut report, &counters, 1.0);
        report.set("setup.analyze_ms", stats::median(&analyze));
        report.set("setup.bind_ms", stats::median(&bind));

        let cycle_ms = stats::mean(&traced_times);
        let per = traced_times.len().max(1) as f64;
        let plan_us = stats::us(tr.total("core.plan_for").1) / per / f64::from(PLAN_FOR_CALLS);
        let sim_ms = stats::ms(tr.total("runtime.run_choice").1) / per;
        report.set("core.plan_for_us", plan_us);
        report.set("runtime.sim_run_ms", sim_ms);
        report.set(
            "runtime.local_run_ms",
            stats::ms(tr.total("runtime.run_local").1) / per,
        );
        report.set("net.session_overhead_ms", cycle_ms - sim_ms - plan_us / 1e3);
        let per_cycle = |f: fn(&offload_runtime::RunStats) -> u64| {
            let total: u64 = cycles.iter().flatten().map(|r| f(&r.stats)).sum();
            total as f64 / cycles.len().max(1) as f64
        };
        report.set("runtime.messages", per_cycle(|s| s.messages));
        report.set(
            "runtime.slots_transferred",
            per_cycle(|s| s.slots_transferred),
        );
        report.set("runtime.instructions", per_cycle(|s| s.instructions));
        report.set("trace.latency_ms", cycle_ms);
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
            (times.len() * programs.len()) as f64 / (total / 1e3),
        );
    }
    report
}
