//! The in-process pass: the requests a traced socket run kept, replayed
//! straight into a `Server` with the same batch size and arrival
//! discipline, timing the calls the socket front hides —
//! `Server::open_session`, `submit`, `run_tick`, `snapshot`/`restore` —
//! and the tick-phase counters of every tick.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fides_client::wire::EvalResponse;
use fides_serve::{Server, Ticket};

use crate::drive::{config, ms, Kept, STALL};
use crate::inputs::{Task, Tenant, BATCH};

/// One batch tick, from `ServeStats`/`SimStats` deltas around `run_tick`.
#[derive(Clone, Debug)]
pub struct Tick {
    /// Requests executed.
    pub batch: usize,
    /// `run_tick` wall time, ms.
    pub wall_ms: f64,
    /// Planning (fingerprint, cache lookup, planning passes), ms.
    pub plan_ms: f64,
    /// Replay onto the simulated devices, ms.
    pub replay_ms: f64,
    /// Response flush, ms.
    pub flush_ms: f64,
    /// Simulated device time, ms.
    pub sim_ms: f64,
}

impl Tick {
    /// What the phase timers do not cover: capture, the functional CKKS
    /// math recorded per request.
    pub fn capture_ms(&self) -> f64 {
        self.wall_ms - self.plan_ms - self.replay_ms - self.flush_ms
    }
}

/// What the in-process pass measured.
#[derive(Debug, Default)]
pub struct InProc {
    /// `Server::open_session` wall times, ms.
    pub open_ms: Vec<f64>,
    /// Submit to the start of the tick that served the request, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Submit to the end of that tick, ms.
    pub latency_ms: Vec<f64>,
    /// Every tick.
    pub ticks: Vec<Tick>,
    /// `Server::restore` wall times, ms.
    pub restore_ms: Vec<f64>,
    /// Snapshot size, bytes.
    pub snapshot_bytes: usize,
    /// `CkksEngine::eval_program` wall times, ms.
    pub program_ms: Vec<f64>,
    /// Responses that differ from the socket run's bytes.
    pub mismatches: Vec<String>,
}

struct Waiting {
    id: u64,
    submitted: Instant,
    ticket: Ticket,
}

struct Done {
    id: u64,
    submitted: Instant,
    tick: (Instant, Instant),
    resp: EvalResponse,
}

/// How the kept requests arrive.
pub enum Arrivals<'a> {
    /// Keep `BATCH` requests outstanding.
    Closed,
    /// Submit request `i` at `schedule[i].0` seconds.
    Open(&'a [(f64, usize)]),
    /// A session open per arrival, then its requests, at most a batch
    /// outstanding.
    Churn,
}

/// Replays `kept` on a fresh server. Score tenants are uploaded first;
/// churn starts from `snapshot` (the resident tenants).
pub fn replay(
    tenants: &[Tenant],
    kept: &[Kept],
    arrivals: Arrivals,
    snapshot: Option<&[u8]>,
    max_sessions: usize,
) -> Result<InProc, String> {
    let mut ip = InProc::default();
    let server = Server::new(config(max_sessions)).map_err(|e| e.to_string())?;
    if let Some(snap) = snapshot {
        server.restore(snap).map_err(|e| e.to_string())?;
    }
    let mut sids: HashMap<usize, u64> = HashMap::new();
    if !matches!(arrivals, Arrivals::Churn) {
        for (t, tenant) in tenants.iter().enumerate() {
            let t0 = Instant::now();
            let sid = server
                .open_session(tenant.upload.clone())
                .map_err(|e| e.to_string())?;
            ip.open_ms.push(ms(t0, Instant::now()));
            sids.insert(t, sid);
        }
    }

    let waiting: Mutex<Vec<Waiting>> = Mutex::new(Vec::new());
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let mut results: Vec<Done> = Vec::new();
    std::thread::scope(|s| -> Result<(), String> {
        let ticker = s.spawn(|| tick_loop(&server, &waiting, &done, &stop));
        let submit = |k: &Kept, sid: u64| -> Result<(), String> {
            let mut req = k.req.clone();
            req.session_id = sid;
            let submitted = Instant::now();
            let ticket = server.submit(req).map_err(|e| e.to_string())?;
            waiting.lock().unwrap().push(Waiting {
                id: k.id,
                submitted,
                ticket,
            });
            Ok(())
        };
        // Collects finished requests until fewer than `limit` of the
        // `sent` are outstanding.
        let deadline = Instant::now() + STALL;
        let drain = |results: &mut Vec<Done>, sent: usize, limit: usize| loop {
            results.append(&mut done.lock().unwrap());
            if sent - results.len() < limit {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "in-process replay stalled with {} outstanding",
                    sent - results.len()
                ));
            }
            std::thread::sleep(Duration::from_micros(20));
        };
        let run = (|| -> Result<(), String> {
            match arrivals {
                Arrivals::Closed => {
                    for (i, k) in kept.iter().enumerate() {
                        drain(&mut results, i, BATCH)?;
                        submit(k, sids[&k.tenant])?;
                    }
                }
                Arrivals::Open(schedule) => {
                    let t0 = Instant::now();
                    let d0 = kept.first().map_or(0.0, |k| schedule[k.id as usize].0);
                    for k in kept {
                        let d = schedule[k.id as usize].0 - d0;
                        let at = t0 + Duration::from_secs_f64(d);
                        std::thread::sleep(at.saturating_duration_since(Instant::now()));
                        submit(k, sids[&k.tenant])?;
                    }
                }
                Arrivals::Churn => {
                    let mut current = usize::MAX;
                    for (i, k) in kept.iter().enumerate() {
                        if k.tenant != current {
                            current = k.tenant;
                            let t0 = Instant::now();
                            let sid = server
                                .open_session(tenants[k.tenant].upload.clone())
                                .map_err(|e| e.to_string())?;
                            ip.open_ms.push(ms(t0, Instant::now()));
                            sids.insert(k.tenant, sid);
                        }
                        drain(&mut results, i, BATCH)?;
                        submit(k, sids[&k.tenant])?;
                    }
                }
            }
            drain(&mut results, kept.len(), 1)
        })();
        stop.store(true, Ordering::SeqCst);
        ip.ticks = ticker.join().expect("tick thread");
        run
    })?;

    let by_id: HashMap<u64, &Kept> = kept.iter().map(|k| (k.id, k)).collect();
    for d in &results {
        ip.queue_wait_ms.push(ms(d.submitted, d.tick.0));
        ip.latency_ms.push(ms(d.submitted, d.tick.1));
        if d.resp.to_bytes() != by_id[&d.id].resp {
            ip.mismatches.push(format!(
                "request {}: in-process frame differs from the socket run's",
                d.id
            ));
        }
    }

    // Churn restores the resident tenants' snapshot; the score
    // workloads snapshot the replay server.
    let snap = match snapshot {
        Some(snap) => snap.to_vec(),
        None => {
            let mut snap = Vec::new();
            server.snapshot(&mut snap).map_err(|e| e.to_string())?;
            snap
        }
    };
    ip.snapshot_bytes = snap.len();
    for _ in 0..3 {
        ip.restore_ms.push(timed_restore(&snap, max_sessions)?);
    }
    ip.program_ms = program_times(&tenants[kept.first().map_or(0, |k| k.tenant)])?;
    Ok(ip)
}

/// Mirrors the socket front's loop: tick while work is queued, then hand
/// finished tickets back.
fn tick_loop(
    server: &Server,
    waiting: &Mutex<Vec<Waiting>>,
    done: &Mutex<Vec<Done>>,
    stop: &AtomicBool,
) -> Vec<Tick> {
    let mut ticks = Vec::new();
    loop {
        if server.queued() == 0 {
            if stop.load(Ordering::SeqCst) {
                return ticks;
            }
            std::thread::sleep(Duration::from_micros(50));
            continue;
        }
        let s0 = server.stats();
        let sim0 = server.sync_us().unwrap_or(0.0);
        let t0 = Instant::now();
        let batch = server.run_tick();
        let t1 = Instant::now();
        let s1 = server.stats();
        let us = |a: u64, b: u64| (b - a) as f64 / 1e3;
        ticks.push(Tick {
            batch,
            wall_ms: ms(t0, t1),
            plan_ms: us(s0.plan_us, s1.plan_us),
            replay_ms: us(s0.replay_us, s1.replay_us),
            flush_ms: us(s0.flush_us, s1.flush_us),
            sim_ms: (server.sync_us().unwrap_or(0.0) - sim0) / 1e3,
        });
        let mut finished = Vec::new();
        waiting
            .lock()
            .unwrap()
            .retain(|w| match w.ticket.try_take() {
                Some(resp) => {
                    finished.push(Done {
                        id: w.id,
                        submitted: w.submitted,
                        tick: (t0, t1),
                        resp,
                    });
                    false
                }
                None => true,
            });
        done.lock().unwrap().append(&mut finished);
    }
}

fn timed_restore(snap: &[u8], max_sessions: usize) -> Result<f64, String> {
    let fresh = Server::new(config(max_sessions)).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    fresh.restore(snap).map_err(|e| e.to_string())?;
    Ok(ms(t0, Instant::now()))
}

/// `CkksEngine::eval_program` on the tenant's own engine: the request's
/// program, with no server around it.
fn program_times(tenant: &Tenant) -> Result<Vec<f64>, String> {
    let engine = tenant.session.engine();
    let ct = engine
        .encrypt(&tenant.inputs(0))
        .map_err(|e| e.to_string())?;
    let plains = match &tenant.task {
        Task::Score(model) => vec![engine
            .preload_plain(&model.weights, engine.max_level())
            .map_err(|e| e.to_string())?],
        Task::Light { .. } => Vec::new(),
    };
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            engine
                .eval_program(std::slice::from_ref(&ct), &plains, &tenant.program)
                .map_err(|e| e.to_string())?;
            Ok(ms(t0, Instant::now()))
        })
        .collect()
}
