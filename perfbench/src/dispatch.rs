//! The `dispatch-io` and `dispatch-select` workloads.
//!
//! A server with the default `ServerConfig` is bound to one compiled
//! program. Each of up to `nproc` (at most two) connections runs a
//! closed loop that keeps a fixed number of `DispatchBatch` frames of
//! in-bounds points in flight, sending the next batch only when the
//! oldest reply has arrived. A batch's latency runs from the start of
//! `send_dispatch` to the return of its `recv_choices`.

use crate::stats::{self, Rng, Slices};
use crate::trace::Tracer;
use crate::{Args, Report};
use offload_benchmarks::Benchmark;
use offload_core::Analysis;
use offload_net::protocol::{decode_frame, encode_frame};
use offload_net::{
    ClientConfig, DispatchClient, OffloadServer, ServerConfig, ServerHandle, WireFrame, WireMsg,
};
use offload_runtime::DeviceModel;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One dispatch workload's shape.
pub struct Spec {
    program: fn() -> Benchmark,
    /// Batches each connection keeps in flight.
    inflight: usize,
    /// Points per batch.
    batch: usize,
}

/// Cheap selects, many frames in flight: framing, wakeups and the
/// reactor's multi-frame drain and coalesced writes do the work.
pub const IO: Spec = Spec {
    program: offload_benchmarks::rawcaudio,
    inflight: 8,
    batch: 16,
};

/// Expensive selects (12 parameters), one frame in flight.
pub const SELECT: Spec = Spec {
    program: offload_benchmarks::susan,
    inflight: 1,
    batch: 16,
};

/// Distinct batches generated per connection; the loop cycles them.
const POOL: usize = 1024;
/// Every this many batches, a connection keeps the answer for checking.
const SAMPLE_EVERY: u64 = 61;
/// Sampled answers kept per connection.
const SAMPLE_CAP: usize = 256;
/// Batches replayed through `select` and the codec in a traced run.
const REPLAY: usize = 2048;
/// Untimed closed-loop traffic before the window opens.
const WARMUP: Duration = Duration::from_millis(300);

struct Setup {
    analysis: Arc<Analysis>,
    fingerprint: u64,
    clients: Vec<DispatchClient>,
    // Dropped after the clients (fields drop in declaration order).
    _server: ServerHandle,
    analyze_ms: f64,
    bind_ms: f64,
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    /// Round trips of the batches answered inside the window.
    slices: Option<Slices>,
    points: u64,
    batches: u64,
    errors: Vec<String>,
    /// (pool index, choices) of sampled batches.
    samples: Vec<(usize, Vec<u32>)>,
    tracer: Option<Tracer>,
}

fn setup(b: &Benchmark, conns: usize, tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    let start = Instant::now();
    let analysis = crate::compile::compile(b, tracer.map(|t| (t, 0, None)))
        .map_err(|e| format!("{}: {e}", b.name))?;
    let analysis = Arc::new(analysis);
    let bind_start = Instant::now();
    let server = OffloadServer::bind(
        "127.0.0.1:0",
        Arc::clone(&analysis),
        DeviceModel::ipaq_testbed(),
        ServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let config = ClientConfig::new(server.addr().to_string());
    let clients = (0..conns)
        .map(|_| {
            DispatchClient::connect(&config).map(|mut c| {
                c.set_trace_interval(0);
                c
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        fingerprint: offload_net::fingerprint(&analysis),
        analysis,
        clients,
        _server: server,
        analyze_ms: stats::ms(bind_start - start),
        bind_ms: stats::ms(bind_start.elapsed()),
    })
}

/// Runs one connection's closed loop until `end`, then drains the
/// batches still in flight. Traces every other batch when `tracer` is on.
/// A wire failure ends the loop early; the error is kept and the slices
/// measured so far are still returned.
fn drive(
    client: &mut DispatchClient,
    fingerprint: u64,
    pool: &[Vec<Vec<i64>>],
    inflight: usize,
    (start, seconds): (Instant, Duration),
    mut tracer: Option<Tracer>,
) -> ConnResult {
    let end = start + seconds;
    let mut out = ConnResult::default();
    let mut slices = Slices::new(start, seconds.as_secs(), pool.len() as u64 ^ fingerprint);
    let mut queue: VecDeque<(u64, u64, Instant, Option<crate::trace::SpanId>)> = VecDeque::new();
    let mut seq = 0u64;
    'conn: loop {
        while queue.len() < inflight && Instant::now() < end {
            let points = &pool[seq as usize % pool.len()];
            let traced = tracer.is_some() && seq.is_multiple_of(2);
            let start = Instant::now();
            match client.send_dispatch(fingerprint, points) {
                Ok(id) => {
                    let root = tracer.as_mut().filter(|_| traced).map(|t| {
                        let root = t.open("batch", "", seq, None, start);
                        t.span("net.send", "", seq, Some(root), start, Instant::now());
                        root
                    });
                    queue.push_back((id, seq, start, root));
                }
                Err(e) => {
                    out.errors.push(format!("batch {seq}: send: {e}"));
                    break 'conn;
                }
            }
            seq += 1;
        }
        let Some((id, s, start, root)) = queue.pop_front() else {
            break;
        };
        let recv_start = Instant::now();
        let reply = client.recv_choices(id);
        let done = Instant::now();
        out.batches += 1;
        let idx = s as usize % pool.len();
        match reply {
            Ok(choices) if choices.len() == pool[idx].len() => {
                out.points += choices.len() as u64;
                slices.record(
                    done,
                    stats::ms(done - start),
                    root.is_some(),
                    choices.len() as u64,
                );
                if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                    t.span("net.recv", "", s, Some(root), recv_start, done);
                    t.close("batch", root, start, done);
                }
                if s % SAMPLE_EVERY == 0 && out.samples.len() < SAMPLE_CAP {
                    out.samples.push((idx, choices));
                }
            }
            Ok(choices) => {
                out.errors.push(format!(
                    "batch {s}: {} answers for {} points",
                    choices.len(),
                    pool[idx].len()
                ));
                break;
            }
            Err(e) => {
                out.errors.push(format!("batch {s}: recv: {e}"));
                break;
            }
        }
    }
    out.tracer = tracer;
    out.slices = Some(slices);
    out
}

/// Replays the first batches a connection sent through `select` and
/// the frame codec, as per-batch means: (select µs, codec µs, bytes).
fn replay(
    analysis: &Analysis,
    fingerprint: u64,
    pool: &[Vec<Vec<i64>>],
    batches: usize,
    tr: &mut Tracer,
) -> (f64, f64, f64) {
    let n = batches.clamp(1, REPLAY);
    let mut bytes = 0usize;
    for k in 0..n {
        let points = &pool[k % pool.len()];
        let op = k as u64;
        let t0 = Instant::now();
        let choices: Vec<u32> = points
            .iter()
            .map(|p| analysis.select(p).map_or(u32::MAX, |c| c as u32))
            .collect();
        let t1 = Instant::now();
        tr.span("core.select", "", op, None, t0, t1);
        let request = WireFrame {
            request_id: op,
            msg: WireMsg::DispatchBatch {
                fingerprint,
                points: points.clone(),
                trace: Default::default(),
            },
        };
        let reply = WireFrame {
            request_id: op,
            msg: WireMsg::DispatchChoices { choices },
        };
        let t2 = Instant::now();
        for frame in [&request, &reply] {
            let wire = encode_frame(frame);
            bytes += wire.len();
            // The payload follows the varint length prefix.
            let prefix = wire.iter().position(|b| b & 0x80 == 0).map_or(0, |i| i + 1);
            let decoded = decode_frame(&wire[prefix..]);
            std::hint::black_box(decoded.map(|f| f.request_id).ok());
        }
        tr.span("net.codec", "", op, None, t2, Instant::now());
    }
    let per = |name| stats::us(tr.total(name).1) / n as f64;
    (
        per("core.select"),
        per("net.codec"),
        bytes as f64 / n as f64,
    )
}

/// A server counter's value in a scrape (0 when absent).
fn counter(view: &offload_net::StatsView, name: &str) -> f64 {
    view.snapshot.counter(name).unwrap_or(0) as f64
}

pub fn run(args: &Args, spec: Spec) -> Report {
    let mut report = Report::default();
    let b = (spec.program)();
    let conns = stats::nproc().min(2);
    let mut tracer = args.trace.then(Tracer::default);
    let mut setups = Vec::new();
    let (made, setup_s) = crate::repeat_setup(crate::SETUP_REPS, || {
        let s = setup(&b, conns, tracer.as_mut());
        if let Ok(s) = &s {
            setups.push((s.analyze_ms, s.bind_ms));
        }
        s
    });
    let mut s = match made {
        Ok(s) => s,
        Err(e) => {
            report.attempted = 1;
            report.fail(1, format!("set-up failed: {e}"));
            return report;
        }
    };
    report.threads_used = s.analysis.pipeline_stats().threads_used;

    let arity = b.param_names.len();
    let pools: Vec<Vec<Vec<Vec<i64>>>> = (0..conns)
        .map(|c| {
            let mut rng = Rng::new(args.seed, 10 + c as u64);
            (0..POOL)
                .map(|_| {
                    (0..spec.batch)
                        .map(|_| stats::in_bounds_point(&b.bounds, arity, &mut rng))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Warm-up, then the measured window, each with every connection on
    // its own thread.
    let fp = s.fingerprint;
    let run_window = |clients: &mut [DispatchClient], seconds: Duration, traced: bool| {
        let start = Instant::now();
        let barrier = Barrier::new(clients.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&pools)
                .map(|(client, pool)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drive(
                            client,
                            fp,
                            pool,
                            spec.inflight,
                            (start, seconds),
                            traced.then(Tracer::default),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dispatch client thread panicked"))
                .collect::<Vec<_>>()
        })
    };
    let warm = run_window(&mut s.clients, WARMUP, false);
    let before = args.trace.then(|| s.clients[0].stats());
    let window_start = Instant::now();
    let mut results = run_window(
        &mut s.clients,
        Duration::from_secs(args.seconds),
        args.trace,
    );
    let window = window_start.elapsed();
    let after = args.trace.then(|| s.clients[0].stats());

    // Outputs: every sampled wire answer must equal the linear scan.
    let mut mismatches = 0u64;
    let mut checked = 0u64;
    for (r, pool) in warm.iter().chain(&results).zip(pools.iter().cycle()) {
        for (idx, choices) in &r.samples {
            checked += 1;
            let ok = pool[*idx].iter().zip(choices).all(|(p, &c)| {
                s.analysis
                    .dispatcher
                    .select_linear(&s.analysis.network, &s.analysis.partition, p)
                    .is_ok_and(|l| l as u32 == c)
            });
            if !ok {
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        report.fail(
            mismatches,
            format!("{mismatches} of {checked} sampled batches differ from select_linear"),
        );
    }
    for r in warm.iter().chain(&results) {
        for e in &r.errors {
            report.fail(1, e.clone());
        }
    }
    // Warm-up batches count as attempted too: their answers are checked
    // and their errors are failed ops.
    let batches: u64 = results.iter().map(|r| r.batches).sum();
    let warm_batches: u64 = warm.iter().map(|r| r.batches).sum();
    report.attempted = (warm_batches + batches).max(1);
    let points: u64 = results.iter().map(|r| r.points).sum();
    let mut slices = Slices::new(window_start, args.seconds, 0);
    for r in &mut results {
        slices.merge(r.slices.take().expect("drive returns its slices"));
    }
    report.notes.push(format!(
        "{}: {} connections x {} in flight x {} points; {} batches, {} points in {:.3} s after {} warm-up batches; {} sampled batches checked",
        b.name,
        conns,
        spec.inflight,
        spec.batch,
        batches,
        points,
        window.as_secs_f64(),
        warm_batches,
        checked
    ));

    if let Some(mut tr) = tracer.take() {
        for r in &mut results {
            if let Some(t) = r.tracer.take() {
                tr.merge(t);
            }
        }
        let (traced, untraced) = slices.split_traced();
        let per_setup = crate::SETUP_REPS as f64;
        let analyze_ms: Vec<f64> = setups.iter().map(|x| x.0).collect();
        let bind_ms: Vec<f64> = setups.iter().map(|x| x.1).collect();
        crate::compile::layer_metrics(&mut report, &tr, per_setup, stats::mean(&analyze_ms));
        crate::compile::counter_metrics(&mut report, &[s.analysis.pipeline_stats()], 1.0);
        report.set("setup.analyze_ms", stats::median(&analyze_ms));
        report.set("setup.bind_ms", stats::median(&bind_ms));

        let (send_n, send_t) = tr.total("net.send");
        let (recv_n, recv_t) = tr.total("net.recv");
        report.set(
            "net.client_send_us",
            stats::us(send_t) / send_n.max(1) as f64,
        );
        report.set(
            "net.client_recv_us",
            stats::us(recv_t) / recv_n.max(1) as f64,
        );
        let batches0 = results.first().map_or(0, |r| r.batches as usize);
        let (select_us, codec_us, frame_bytes) =
            replay(&s.analysis, fp, &pools[0], batches0, &mut tr);
        let traced_us = stats::mean(&traced) * 1e3;
        report.set("core.select_us", select_us);
        report.set("net.codec_us", codec_us);
        report.set("net.frame_bytes", frame_bytes);
        report.set("dispatch.unattributed_us", traced_us - select_us - codec_us);
        report.set("trace.latency_ms", traced_us / 1e3);
        report.set(
            "trace.overhead_pct",
            (stats::median(&traced) / stats::median(&untraced) - 1.0) * 100.0,
        );
        match (before, after) {
            (Some(Ok(before)), Some(Ok(after))) => {
                let delta = |name| counter(&after, name) - counter(&before, name);
                let p50 = |name| after.snapshot.histogram(name).map_or(0.0, |h| h.p50 as f64);
                let batches = delta("net.server.batches").max(1.0);
                let wakeups = delta("net.reactor.wakeups");
                report.set("net.server.queue_us_p50", p50("net.server.queue_us"));
                report.set("net.server.select_us_p50", p50("net.server.select_us"));
                report.set("net.server.reply_us_p50", p50("net.server.reply_us"));
                let fpw = |v: &offload_net::StatsView| {
                    v.snapshot
                        .histogram("net.reactor.frames_per_wakeup")
                        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
                };
                let (s1, c1) = fpw(&after);
                let (s0, c0) = fpw(&before);
                report.set(
                    "net.reactor.frames_per_wakeup",
                    if c1 > c0 { (s1 - s0) / (c1 - c0) } else { 0.0 },
                );
                report.set("net.reactor.wakeups_per_batch", wakeups / batches);
                report.set(
                    "net.reactor.coalesced_writes_per_batch",
                    delta("net.reactor.coalesced_writes") / batches,
                );
                report.set(
                    "net.reactor.spurious_wakeup_ratio",
                    if wakeups > 0.0 {
                        delta("net.reactor.spurious_wakeups") / wakeups
                    } else {
                        0.0
                    },
                );
            }
            _ => report.fail(1, "server stats scrape failed"),
        }
        report.tracer = Some(tr);
    } else {
        let (p50, p99, rate) = slices.summary();
        report.set("setup_s", setup_s);
        report.set("latency_ms", p50);
        report.set("p99_ms", p99);
        report.set("ops_per_s", rate);
    }
    report
}
