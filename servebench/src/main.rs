//! End-to-end serving benchmark.
//!
//! Seeded tenants (`fides_api::Session`) drive a `NetServer` over
//! loopback TCP; every response is decrypted and checked against its
//! plaintext reference, and a seeded sample of response frames is
//! byte-compared with an unloaded serial `Server`.
//!
//! ```text
//! servebench --workload <score-steady|score-open|tenant-churn> --seed N --seconds S --trace 0|1
//! servebench compare A.json B.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` measures the
//! same window twice, untraced then with spans recorded around every call
//! the benchmark makes, checks that each request's spans sum to its
//! latency, replays the kept requests in-process for the server-side
//! split, and reports the per-layer metrics and the tracing overhead.
//! Result files (host metadata, sample counts) and spans go to
//! `.bench_results/`. The last line of standard output is a JSON summary.

mod drive;
mod inproc;
mod inputs;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use fides_gpu_sim::SimStats;
use fides_serve::{ServeStats, Server};

use crate::drive::{Live, Outcome, Spec};
use crate::inproc::{Arrivals, InProc};
use crate::inputs::{
    churn_tenants, poisson_schedule, score_tenants, Tenant, BATCH, CHURN_RESIDENT, SCORE_TENANTS,
};
use crate::report::{nproc, Host, Metric, RunResult};
use crate::stats::{chunked_percentile, median, samples_needed};
use crate::trace::Trace;

const USAGE: &str = "usage: servebench --workload <score-steady|score-open|tenant-churn> \
--seed N --seconds S --trace 0|1\n       servebench compare A.json B.json";

/// Set-ups per window, half before it and half after; `setup_s` is their
/// median. On the score workloads each uploads every tenant, so the
/// set-ups give 400 session opens from two moments of the run: two
/// chunks for the p95.
const SETUP_REPS: usize = 50;
/// Untimed traffic before each window: plan caches fill, lazy set-up
/// finishes.
const WARMUP_S: f64 = 1.0;
/// `score-open` arrival rate, requests per second, fixed and never derived
/// at run time: about a quarter of `score-steady`'s 30–39 req/s on a
/// 2-core Xeon host. Queueing amplifies a change in host speed in the
/// open-loop latency; at 12 req/s, host speed that drifted by a quarter
/// between runs moved the p95 from 75 to 136 ms.
const OPEN_RATE: f64 = 8.0;
/// Generator threads and connections at most (and never above `nproc`).
const MAX_GENERATORS: usize = 2;
/// Open-loop lateness bounds: a run whose generator fell further behind
/// its schedule is invalid.
const LATE_P50_MS: f64 = 2.0;
const LATE_MAX_MS: f64 = 250.0;
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    ScoreSteady,
    ScoreOpen,
    TenantChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "score-steady" => Some(Self::ScoreSteady),
            "score-open" => Some(Self::ScoreOpen),
            "tenant-churn" => Some(Self::TenantChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ScoreSteady => "score-steady",
            Self::ScoreOpen => "score-open",
            Self::TenantChurn => "tenant-churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A workload's seeded inputs, built once per run before any timing.
struct Inputs {
    tenants: Vec<Tenant>,
    schedule: Vec<(f64, usize)>,
    /// The resident churn tenants' snapshot.
    snapshot: Vec<u8>,
}

/// Builds the inputs of a run whose windows (with warm-up) last
/// `seconds` each.
fn prepare(w: Workload, seed: u64, seconds: f64) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        tenants: Vec::new(),
        schedule: Vec::new(),
        snapshot: Vec::new(),
    };
    match w {
        Workload::ScoreSteady => inputs.tenants = score_tenants(seed),
        Workload::ScoreOpen => {
            inputs.tenants = score_tenants(seed);
            inputs.schedule = poisson_schedule(seed, OPEN_RATE, seconds, SCORE_TENANTS);
        }
        Workload::TenantChurn => {
            inputs.tenants = churn_tenants(seed);
            let server = Server::new(drive::config(CHURN_RESIDENT)).map_err(|e| e.to_string())?;
            for t in &inputs.tenants[..CHURN_RESIDENT] {
                server
                    .open_session(t.upload.clone())
                    .map_err(|e| e.to_string())?;
            }
            server
                .snapshot(&mut inputs.snapshot)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(inputs)
}

/// One measured window on a freshly set-up server.
struct Measured {
    out: Outcome,
    setup_s: Vec<f64>,
    /// Session-open latencies: the set-up uploads (score) or the window's
    /// arrivals (churn), ms.
    opens_ms: Vec<f64>,
    /// Server counters over the timed window.
    delta: ServeStats,
    /// Simulated-device statistics over the timed window.
    sim: SimStats,
    /// Frames of the sample that differ from the serial server's.
    mismatches: Vec<String>,
    /// Timed window start.
    start: Instant,
}

fn start(w: Workload, inputs: &Inputs, opens: &mut Vec<f64>) -> Result<(Live, f64), String> {
    match w {
        Workload::TenantChurn => drive::start_restored(&inputs.snapshot, CHURN_RESIDENT),
        _ => drive::start_uploaded(&inputs.tenants, opens),
    }
}

fn measure(
    w: Workload,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<Measured, String> {
    let mut opens_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS / 2 {
        drop(live.take());
        let (l, s) = start(w, inputs, &mut opens_ms)?;
        setup_s.push(s);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    let conns = MAX_GENERATORS.min(nproc());
    let generators = if w == Workload::ScoreSteady { conns } else { 1 };
    assert!(
        generators <= nproc() && generators <= MAX_GENERATORS,
        "{generators} generator threads and connections on {} cores",
        nproc()
    );

    let warm = Instant::now();
    let win = Spec {
        warm,
        start: warm + Duration::from_secs_f64(WARMUP_S),
        end: warm + Duration::from_secs_f64(WARMUP_S + seconds),
        seed,
        traced,
    };
    let (mut out, before) = std::thread::scope(|s| {
        let marker = s.spawn(|| {
            std::thread::sleep(win.start.saturating_duration_since(Instant::now()));
            let before = live.server.stats();
            live.server.reset_sim_stats();
            before
        });
        let out = match w {
            Workload::ScoreSteady => drive::closed_loop(
                live.addr,
                &inputs.tenants,
                &live.sids,
                conns,
                BATCH / conns,
                &win,
            ),
            Workload::ScoreOpen => drive::open_loop(
                live.addr,
                &inputs.tenants,
                &live.sids,
                &inputs.schedule,
                &win,
            ),
            Workload::TenantChurn => drive::churn(live.addr, &inputs.tenants, &win),
        };
        (out, marker.join().expect("window marker"))
    });
    let after = live.server.stats();
    let sim = live.server.sim_stats().unwrap_or_default();
    drop(live);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        setup_s.push(start(w, inputs, &mut opens_ms)?.1);
    }

    out.kept.sort_by_key(|k| k.id);
    out.latencies.sort_by_key(|l| l.2);
    opens_ms.extend(&out.opens_ms);
    let mismatches = drive::serial_mismatches(&inputs.tenants, &out.sampled);
    let delta = ServeStats {
        requests: after.requests - before.requests,
        batches: after.batches - before.batches,
        shed: after.shed - before.shed,
        sessions_evicted: after.sessions_evicted - before.sessions_evicted,
        recorded_kernels: after.recorded_kernels - before.recorded_kernels,
        planned_launches: after.planned_launches - before.planned_launches,
        fused_kernels: after.fused_kernels - before.fused_kernels,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
        plan_cache_misses: after.plan_cache_misses - before.plan_cache_misses,
        ..ServeStats::default()
    };
    Ok(Measured {
        out,
        setup_s,
        opens_ms,
        delta,
        sim,
        mismatches,
        start: win.start,
    })
}

/// VmHWM of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a window, further readings for the result
/// file, and the reasons the window is invalid (if any).
fn end_to_end(w: Workload, m: &Measured) -> (Vec<Metric>, Vec<Metric>, Vec<String>) {
    let lat: Vec<f64> = m.out.latencies.iter().map(|l| l.1).collect();
    let n = lat.len();
    let wall = m
        .out
        .last_done
        .map_or(f64::NAN, |t| t.duration_since(m.start).as_secs_f64());
    let opens = m.opens_ms.len();
    let metrics = vec![
        Metric::new("setup_s", median(&m.setup_s), "s", m.setup_s.len()),
        Metric::new("throughput_rps", n as f64 / wall, "1/s", n),
        Metric::new("latency_p50_ms", median(&lat), "ms", n),
        Metric::new("latency_p95_ms", chunked_percentile(&lat, 0.95), "ms", n),
        Metric::new("session_open_p50_ms", median(&m.opens_ms), "ms", opens),
        Metric::new(
            "session_open_p95_ms",
            chunked_percentile(&m.opens_ms, 0.95),
            "ms",
            opens,
        ),
        Metric::new(
            "sim_ms_per_req",
            m.sim.makespan_us / 1e3 / m.delta.requests as f64,
            "ms",
            m.delta.requests as usize,
        ),
        Metric::new(
            "sim_peak_device_mb",
            m.sim.peak_alloc_bytes as f64 / MIB,
            "MiB",
            1,
        ),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB", 1),
    ];
    let failed = m.out.failed + m.mismatches.len() as u64;
    let mut extra = vec![Metric::new(
        "fail_ratio",
        ratio(failed, m.out.attempted),
        "ratio",
        m.out.attempted as usize,
    )];
    let mut invalid = Vec::new();
    if n < samples_needed(0.95) {
        invalid.push(format!(
            "{n} latency samples; p95 needs {}",
            samples_needed(0.95)
        ));
    }
    if w == Workload::ScoreOpen {
        let (p50, max) = lateness(&m.out);
        let sends = m.out.lateness_ms.len();
        extra.push(Metric::new("lateness_p50_ms", p50, "ms", sends));
        extra.push(Metric::new("lateness_max_ms", max, "ms", sends));
        if p50 > LATE_P50_MS || max > LATE_MAX_MS {
            invalid.push(format!(
                "generator lateness p50 {p50:.3} ms / max {max:.1} ms exceeds {LATE_P50_MS} / {LATE_MAX_MS} ms"
            ));
        }
    }
    (metrics, extra, invalid)
}

fn lateness(out: &Outcome) -> (f64, f64) {
    let max = out.lateness_ms.iter().copied().fold(0.0, f64::max);
    (median(&out.lateness_ms), max)
}

fn med_of(trace: &Trace, name: &str) -> (f64, usize) {
    let d = trace.durations(name);
    (median(&d), d.len())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b as f64
}

/// The per-layer metrics of a traced window and its in-process replay.
fn per_layer(inputs: &Inputs, m: &Measured, ip: &InProc) -> Vec<Metric> {
    let tr = &m.out.trace;
    let d = &m.delta;
    let (enc, enc_n) = med_of(tr, "client.encrypt");
    let (dec, dec_n) = med_of(tr, "client.decrypt");
    let (wenc, wenc_n) = med_of(tr, "wire.encode");
    let (wdec, wdec_n) = med_of(tr, "wire.decode");
    let (roundtrip, rt_n) = med_of(tr, "net.roundtrip");
    let inproc_latency = median(&ip.latency_ms);
    let ticks = ip.ticks.len();
    let tick_mean = |f: fn(&inproc::Tick) -> f64| mean(&ip.ticks.iter().map(f).collect::<Vec<_>>());
    let (kb_out, kb_in) = &m.out.frame_kb;
    let upload_kb = inputs.tenants[0].upload.to_bytes().len() as f64 / 1024.0;
    vec![
        Metric::new("client.encrypt_ms", enc, "ms", enc_n),
        Metric::new("client.decrypt_ms", dec, "ms", dec_n),
        Metric::new("wire.request_kb", mean(kb_out), "KiB", kb_out.len()),
        Metric::new("wire.response_kb", mean(kb_in), "KiB", kb_in.len()),
        Metric::new("wire.upload_kb", upload_kb, "KiB", 1),
        Metric::new("wire.encode_ms", wenc, "ms", wenc_n),
        Metric::new("wire.decode_ms", wdec, "ms", wdec_n),
        Metric::new("net.roundtrip_ms", roundtrip, "ms", rt_n),
        Metric::new("net.self_ms", roundtrip - inproc_latency, "ms", rt_n),
        Metric::new(
            "qos.queue_wait_ms",
            median(&ip.queue_wait_ms),
            "ms",
            ip.queue_wait_ms.len(),
        ),
        Metric::new("qos.shed", d.shed as f64, "count", 1),
        Metric::new("tick.count", d.batches as f64, "count", 1),
        Metric::new(
            "tick.batch_mean",
            ratio(d.requests, d.batches),
            "count",
            d.batches as usize,
        ),
        Metric::new("tick.wall_ms", tick_mean(|t| t.wall_ms), "ms", ticks),
        Metric::new(
            "tick.capture_ms",
            tick_mean(|t| t.capture_ms()),
            "ms",
            ticks,
        ),
        Metric::new("tick.plan_ms", tick_mean(|t| t.plan_ms), "ms", ticks),
        Metric::new("tick.replay_ms", tick_mean(|t| t.replay_ms), "ms", ticks),
        Metric::new("tick.flush_ms", tick_mean(|t| t.flush_ms), "ms", ticks),
        Metric::new(
            "sched.plan_hit_ratio",
            ratio(d.plan_cache_hits, d.plan_cache_hits + d.plan_cache_misses),
            "ratio",
            (d.plan_cache_hits + d.plan_cache_misses) as usize,
        ),
        Metric::new("sched.plan_misses", d.plan_cache_misses as f64, "count", 1),
        Metric::new(
            "sched.fused_ratio",
            ratio(d.fused_kernels, d.recorded_kernels),
            "ratio",
            d.recorded_kernels as usize,
        ),
        Metric::new(
            "core.program_ms",
            median(&ip.program_ms),
            "ms",
            ip.program_ms.len(),
        ),
        Metric::new(
            "core.recorded_kernels_per_req",
            ratio(d.recorded_kernels, d.requests),
            "count",
            d.requests as usize,
        ),
        Metric::new(
            "gpu.launches_per_req",
            ratio(d.planned_launches, d.requests),
            "count",
            d.requests as usize,
        ),
        Metric::new("gpu.stream_occupancy", m.sim.stream_occupancy(), "ratio", 1),
        Metric::new(
            "registry.open_ms",
            median(&ip.open_ms),
            "ms",
            ip.open_ms.len(),
        ),
        Metric::new("registry.evictions", d.sessions_evicted as f64, "count", 1),
        Metric::new(
            "persist.restore_ms",
            median(&ip.restore_ms),
            "ms",
            ip.restore_ms.len(),
        ),
        Metric::new(
            "persist.snapshot_mb",
            ip.snapshot_bytes as f64 / MIB,
            "MiB",
            1,
        ),
    ]
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("\n== {title} ==");
    println!(
        "{:<32} {:>14}  {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<32} {:>14.4}  {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn write_results(result: &RunResult, spans: Option<&str>) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_results");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let stem = format!(
        "{}-seed{}-trace{}",
        result.workload, result.seed, result.trace as u8
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, result.to_json()).map_err(|e| e.to_string())?;
    println!("result file: {}", path.display());
    if let Some(spans) = spans {
        let path = dir.join(format!("{stem}-spans.jsonl"));
        std::fs::write(&path, spans).map_err(|e| e.to_string())?;
        println!("spans: {}", path.display());
    }
    Ok(())
}

fn report_outcome(name: &str, m: &Measured) {
    let o = &m.out;
    println!(
        "{name}: {} attempted, {} failed; {} sampled frames byte-compared with a serial server, {} differ",
        o.attempted,
        o.failed + m.mismatches.len() as u64,
        o.sampled.len(),
        m.mismatches.len()
    );
    for e in o.errors.iter().chain(&m.mismatches) {
        println!("{name}: FAILURE {e}");
    }
}

/// The traced window's checks and per-layer metrics; `untraced` is the
/// untraced window's end-to-end metrics, for the overhead.
fn traced_run(
    w: Workload,
    inputs: &Inputs,
    traced: &Measured,
    untraced: &[Metric],
    traced_e2e: &[Metric],
) -> Result<(Vec<Metric>, InProc, bool, String), String> {
    let latencies: Vec<(u64, f64)> = traced.out.latencies.iter().map(|l| (l.0, l.1)).collect();
    let (ratios, open) = traced.out.trace.check_closure(&latencies);
    let worst = ratios.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max);
    println!(
        "closure: {} requests, spans sum to latency within {:.4} % (tolerance {} %)",
        ratios.len(),
        worst * 100.0,
        stats::CLOSURE_TOL * 100.0
    );
    if !open.is_empty() {
        eprintln!(
            "CLOSURE FAILED: {} requests' spans miss their latency by more than {} % (first ids {:?})",
            open.len(),
            stats::CLOSURE_TOL * 100.0,
            &open[..open.len().min(8)]
        );
    }

    let (arrivals, snapshot, max_sessions) = match w {
        Workload::ScoreSteady => (Arrivals::Closed, None, 64),
        Workload::ScoreOpen => (Arrivals::Open(&inputs.schedule), None, 64),
        Workload::TenantChurn => (
            Arrivals::Churn,
            Some(inputs.snapshot.as_slice()),
            CHURN_RESIDENT,
        ),
    };
    let ip = inproc::replay(
        &inputs.tenants,
        &traced.out.kept,
        arrivals,
        snapshot,
        max_sessions,
    )?;
    for e in &ip.mismatches {
        println!("in-process: FAILURE {e}");
    }
    println!(
        "in-process: {} requests replayed, {} ticks, {} frames differ from the socket run",
        traced.out.kept.len(),
        ip.ticks.len(),
        ip.mismatches.len()
    );

    let mut layers = per_layer(inputs, traced, &ip);
    layers.push(Metric::new(
        "trace.closure_worst",
        worst,
        "ratio",
        ratios.len(),
    ));
    for (t, u) in traced_e2e.iter().zip(untraced) {
        layers.push(Metric::new(
            format!("overhead.{}", t.name),
            t.value - u.value,
            &t.unit,
            t.samples.min(u.samples),
        ));
    }
    let mut spans = traced.out.trace.to_jsonl();
    for (i, t) in ip.ticks.iter().enumerate() {
        spans.push_str(&format!(
            "{{\"tick\": {i}, \"batch\": {}, \"wall_ms\": {:.4}, \"plan_ms\": {:.4}, \"replay_ms\": {:.4}, \"flush_ms\": {:.4}, \"capture_ms\": {:.4}, \"sim_ms\": {:.4}}}\n",
            t.batch, t.wall_ms, t.plan_ms, t.replay_ms, t.flush_ms, t.capture_ms(), t.sim_ms
        ));
    }
    Ok((layers, ip, open.is_empty(), spans))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let host = Host::detect();
    println!(
        "servebench {} seed {} seconds {} trace {} | nproc {} | {} | {} | features [{}] | commit {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.features,
        host.commit
    );
    let w = a.workload;
    let inputs = prepare(w, a.seed, WARMUP_S + a.seconds)?;
    let plain = measure(w, &inputs, a.seconds, a.seed, false)?;
    report_outcome("untraced", &plain);
    let (e2e, mut extra, mut invalid) = end_to_end(w, &plain);
    print_metrics("end-to-end (untraced)", &e2e);
    let mut result = RunResult {
        host,
        workload: w.name().into(),
        seed: a.seed,
        trace: a.trace,
        correct: true,
        attempted: plain.out.attempted,
        failed: plain.out.failed + plain.mismatches.len() as u64,
        metrics: e2e,
        extra: Vec::new(),
    };
    let mut spans = None;
    if a.trace {
        let traced = measure(w, &inputs, a.seconds, a.seed, true)?;
        report_outcome("traced", &traced);
        let (traced_e2e, traced_extra, inv) = end_to_end(w, &traced);
        invalid.extend(inv);
        print_metrics("end-to-end (traced)", &traced_e2e);
        let (layers, ip, closed, text) =
            traced_run(w, &inputs, &traced, &result.metrics, &traced_e2e)?;
        print_metrics("per-layer (traced)", &layers);
        result.attempted += traced.out.attempted + traced.out.kept.len() as u64;
        result.failed += traced.out.failed + (traced.mismatches.len() + ip.mismatches.len()) as u64;
        result.correct = closed;
        extra.extend(std::mem::replace(&mut result.metrics, layers));
        extra.extend(traced_extra.into_iter().chain(traced_e2e).map(|m| Metric {
            name: format!("traced.{}", m.name),
            ..m
        }));
        spans = Some(text);
    }
    print_metrics("further readings", &extra);
    result.extra = extra;
    result.correct &= result.failed == 0;
    for why in &invalid {
        eprintln!("INVALID RUN: {why}");
    }
    write_results(&result, spans.as_deref())?;
    println!("{}", result.summary_line());
    Ok(if result.correct && invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| RunResult::from_json(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match report::compare(&ra, &rb) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_files(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
