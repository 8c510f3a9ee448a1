//! Socket-side load generators: a loopback `NetServer` driven by tenant
//! clients, every response decrypted and checked.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fides_client::net::NetClient;
use fides_client::wire::{EvalRequest, EvalResponse, Frame, FrameDecoder, FrameKind, Reject};
use fides_serve::net::NetShutdown;
use fides_serve::{NetServer, NetServerConfig, Server, ServerConfig};

use crate::inputs::{churn_rounds, params, sampled, Tenant, BATCH, CHURN_K};
use crate::trace::{Trace, REQUEST};

/// Largest allowed gap between a decrypted value and its reference.
pub const TOL: f64 = 1e-3;
/// A run gives up when a response is this late.
pub const STALL: Duration = Duration::from_secs(60);
/// Requests each generator of a traced run keeps (with their responses)
/// for the in-process pass.
pub const KEEP: usize = 48;
/// Sampled response frames per generator byte-compared against a serial
/// server.
const MAX_SAMPLED: usize = 12;
/// Span-id offset of session opens, apart from request ids.
const OPEN_IDS: u64 = 1 << 40;

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The server configuration every run uses.
pub fn config(max_sessions: usize) -> ServerConfig {
    ServerConfig::new(params())
        .batch_size(BATCH)
        .max_sessions(max_sessions)
}

/// A request with its response, kept for a later replay or comparison.
#[derive(Clone, Debug)]
pub struct Kept {
    /// Request id within the run.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// The request as sent.
    pub req: EvalRequest,
    /// The response payload as received.
    pub resp: Vec<u8>,
}

/// What one generator saw.
#[derive(Debug)]
pub struct Outcome {
    /// (request id, latency ms, completion) of verified requests inside
    /// the window.
    pub latencies: Vec<(u64, f64, Instant)>,
    /// Session-open latencies inside the window, ms.
    pub opens_ms: Vec<f64>,
    /// Open-loop lateness (actual send minus due time), ms.
    pub lateness_ms: Vec<f64>,
    /// Requests and session opens attempted.
    pub attempted: u64,
    /// Attempts rejected, errored or wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// When the last verified window request finished.
    pub last_done: Option<Instant>,
    /// The seeded sample for the serial-server comparison.
    pub sampled: Vec<Kept>,
    /// The first requests, kept on traced runs for the in-process pass.
    pub kept: Vec<Kept>,
    /// Request and response frame sizes (KiB), traced runs only.
    pub frame_kb: (Vec<f64>, Vec<f64>),
    /// Spans.
    pub trace: Trace,
    /// The run's seed (picks the sampled requests).
    seed: u64,
}

impl Outcome {
    fn new(spec: &Spec) -> Self {
        Self {
            latencies: Vec::new(),
            opens_ms: Vec::new(),
            lateness_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            last_done: None,
            sampled: Vec::new(),
            kept: Vec::new(),
            frame_kb: (Vec::new(), Vec::new()),
            trace: Trace::new(spec.traced, spec.warm),
            seed: spec.seed,
        }
    }

    /// Counts a failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg.into());
        }
    }

    /// Folds another generator's outcome into this one.
    pub fn absorb(&mut self, o: Outcome) {
        self.latencies.extend(o.latencies);
        self.opens_ms.extend(o.opens_ms);
        self.lateness_ms.extend(o.lateness_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.last_done = self.last_done.max(o.last_done);
        self.sampled.extend(o.sampled);
        self.kept.extend(o.kept);
        self.frame_kb.0.extend(o.frame_kb.0);
        self.frame_kb.1.extend(o.frame_kb.1);
        self.trace.absorb(o.trace);
    }

    /// Keeps a finished request when it is sampled or, on traced runs,
    /// among the first [`KEEP`].
    fn keep(&mut self, p: &Pending, req: Option<EvalRequest>, resp: &[u8]) {
        let Some(req) = req else { return };
        let kept = Kept {
            id: p.id,
            tenant: p.tenant,
            req,
            resp: resp.to_vec(),
        };
        if sampled(self.seed, p.sample_key) && self.sampled.len() < MAX_SAMPLED {
            self.sampled.push(kept.clone());
        }
        if self.trace.on() && self.kept.len() < KEEP {
            self.kept.push(kept);
        }
    }

    fn wants(&self, key: u64) -> bool {
        (sampled(self.seed, key) && self.sampled.len() < MAX_SAMPLED)
            || (self.trace.on() && self.kept.len() < KEEP)
    }
}

/// A request on its way.
struct Pending {
    id: u64,
    tenant: usize,
    /// (tenant, request index): the seeded-sample key.
    sample_key: u64,
    x: Vec<f64>,
    /// Latency origin: the due time (open loop) or encrypt start.
    start: Instant,
    /// When the frame went to the socket.
    sent: Instant,
    /// Inside the timed window (after warm-up).
    counted: bool,
    /// A copy of the request when it must be kept.
    req: Option<EvalRequest>,
}

fn check(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} values decrypted, {} expected",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        let close = (g - w).abs() <= TOL; // false for NaN
        if !close {
            return Err(format!("decrypted {g} where {w} was expected"));
        }
    }
    Ok(())
}

/// Decrypts and verifies a response that arrived (decoded) at `t`.
fn settle(
    out: &mut Outcome,
    tenant: &Tenant,
    p: &Pending,
    resp: Result<&EvalResponse, &str>,
    t: Instant,
) {
    let resp = match resp {
        Ok(r) => r,
        Err(e) => return out.fail(e),
    };
    let vals = tenant
        .session
        .decrypt_response(resp, &[tenant.output_len()]);
    let decrypted = Instant::now();
    out.trace
        .span(p.id, "client.decrypt", REQUEST, t, decrypted);
    let ok = match vals {
        Ok(v) => check(&v[0], &tenant.expected(&p.x)),
        Err(e) => Err(e.to_string()),
    };
    let done = Instant::now();
    out.trace
        .span(p.id, "client.verify", REQUEST, decrypted, done);
    match ok {
        Err(e) => out.fail(format!("request {}: {e}", p.id)),
        Ok(()) if p.counted => {
            out.latencies.push((p.id, ms(p.start, done), done));
            out.last_done = Some(done);
        }
        Ok(()) => {}
    }
}

/// How often a non-blocking connection checks for a response.
const POLL: Duration = Duration::from_micros(200);

/// A frame-level connection for requests. A non-blocking one polls, so a
/// single thread can send on schedule and read in between (socket read
/// timeouts round to kernel ticks, too coarse to keep a schedule); a
/// blocking one keeps a window of requests in flight while the thread
/// encrypts the next. [`NetClient`] sends a burst only once every request
/// in it is encrypted.
struct FrameConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_seq: u64,
    chunk: Vec<u8>,
    nonblocking: bool,
}

impl FrameConn {
    fn connect(addr: SocketAddr, nonblocking: bool) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if nonblocking {
            stream.set_nonblocking(true)?;
        } else {
            stream.set_read_timeout(Some(STALL))?;
        }
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            next_seq: 0,
            chunk: vec![0; 64 * 1024],
            nonblocking,
        })
    }

    fn send(&mut self, kind: FrameKind, payload: Vec<u8>) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = Frame::new(kind, seq, payload).encode();
        let mut sent = 0;
        while sent < frame.len() {
            match self.stream.write(&frame[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(20))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(seq)
    }

    /// The next complete frame, or `None` if none is complete by `until`
    /// (a blocking connection waits up to its 60 s stall limit instead).
    fn recv_until(&mut self, until: Instant) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?
            {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.decoder.feed(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    let now = Instant::now();
                    if !self.nonblocking || now >= until {
                        return Ok(None);
                    }
                    std::thread::sleep((until - now).min(POLL));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Encrypts, encodes and sends request `r` of `tenant`. `due` is the
/// open-loop due time; closed loops time from the encrypt start.
fn send(
    conn: &mut FrameConn,
    out: &mut Outcome,
    tenants: &[Tenant],
    sids: &[u64],
    (id, t, r): (u64, usize, u64),
    due: Option<Instant>,
    counted: bool,
) -> io::Result<(u64, Pending)> {
    let t0 = Instant::now();
    let start = due.unwrap_or(t0);
    if let Some(due) = due {
        out.trace.span(id, "gen.late", REQUEST, due, t0);
    }
    let (req, x) = tenants[t].request(sids[t], r);
    let t1 = Instant::now();
    out.trace.span(id, "client.encrypt", REQUEST, t0, t1);
    let bytes = req.to_bytes();
    let t2 = Instant::now();
    out.trace.span(id, "wire.encode", REQUEST, t1, t2);
    out.attempted += 1;
    if out.trace.on() {
        out.frame_kb.0.push(bytes.len() as f64 / 1024.0);
    }
    let seq = conn.send(FrameKind::Eval, bytes)?;
    let sample_key = ((t as u64) << 32) | r;
    let keep = out.wants(sample_key);
    Ok((
        seq,
        Pending {
            id,
            tenant: t,
            sample_key,
            x,
            start,
            sent: t2,
            counted,
            req: keep.then_some(req),
        },
    ))
}

/// Decodes, decrypts and verifies one response frame.
fn receive(out: &mut Outcome, tenants: &[Tenant], mut p: Pending, frame: Frame) {
    let got = Instant::now();
    out.trace.span(p.id, "net.roundtrip", REQUEST, p.sent, got);
    let resp = match frame.kind {
        FrameKind::EvalDone => EvalResponse::from_bytes(&frame.payload).map_err(|e| e.to_string()),
        FrameKind::Reject => Err(match Reject::from_bytes(&frame.payload) {
            Ok(rej) => format!("rejected ({:?}): {}", rej.code, rej.message),
            Err(e) => e.to_string(),
        }),
        k => Err(format!("unexpected {k:?} frame")),
    };
    let decoded = Instant::now();
    out.trace.span(p.id, "wire.decode", REQUEST, got, decoded);
    settle(
        out,
        &tenants[p.tenant],
        &p,
        resp.as_ref().map_err(String::as_str),
        decoded,
    );
    if out.trace.on() {
        out.frame_kb.1.push(frame.payload.len() as f64 / 1024.0);
    }
    let req = p.req.take();
    out.keep(&p, req, &frame.payload);
}

/// One measured window: its timing, the seed and whether spans are
/// recorded.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Generators start here; the warm-up runs until `start`.
    pub warm: Instant,
    /// Timed window start: requests begun before it are not counted.
    pub start: Instant,
    /// No request begins after this.
    pub end: Instant,
    /// Input seed.
    pub seed: u64,
    /// Record spans.
    pub traced: bool,
}

/// Closed loop: `conns` connections (one thread each), each keeping
/// `window` requests in flight; tenant `t` rides connection `t % conns`.
pub fn closed_loop(
    addr: SocketAddr,
    tenants: &[Tenant],
    sids: &[u64],
    conns: usize,
    window: usize,
    w: &Spec,
) -> Outcome {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Outcome::new(w);
                    if let Err(e) =
                        closed_conn(&mut out, addr, tenants, sids, (c, conns), window, w)
                    {
                        out.fail(format!("connection {c}: {e}"));
                    }
                    out
                })
            })
            .collect();
        let mut all = Outcome::new(w);
        for h in handles {
            all.absorb(h.join().expect("generator thread"));
        }
        all
    })
}

fn closed_conn(
    out: &mut Outcome,
    addr: SocketAddr,
    tenants: &[Tenant],
    sids: &[u64],
    (c, conns): (usize, usize),
    window: usize,
    w: &Spec,
) -> io::Result<()> {
    let owned: Vec<usize> = (0..tenants.len()).filter(|t| t % conns == c).collect();
    let mut conn = FrameConn::connect(addr, false)?;
    let mut inflight: HashMap<u64, Pending> = HashMap::new();
    let mut next_r = vec![0u64; tenants.len()];
    let mut k = 0u64;
    loop {
        while inflight.len() < window && Instant::now() < w.end {
            let t = owned[k as usize % owned.len()];
            let id = k * conns as u64 + c as u64;
            k += 1;
            let counted = Instant::now() >= w.start;
            let (seq, p) = send(
                &mut conn,
                out,
                tenants,
                sids,
                (id, t, next_r[t]),
                None,
                counted,
            )?;
            next_r[t] += 1;
            inflight.insert(seq, p);
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let Some(frame) = conn.recv_until(Instant::now() + STALL)? else {
            for _ in 0..inflight.len() {
                out.fail("no response within 60 s");
            }
            return Ok(());
        };
        match inflight.remove(&frame.seq) {
            Some(p) => receive(out, tenants, p, frame),
            None => out.fail(format!("response for unknown seq {}", frame.seq)),
        }
    }
}

/// Open loop: one thread sends request `i` to `schedule[i].1` when it is
/// due (`schedule[i].0` s after `w.warm`) and reads responses in between.
/// Latency runs from the due time.
pub fn open_loop(
    addr: SocketAddr,
    tenants: &[Tenant],
    sids: &[u64],
    schedule: &[(f64, usize)],
    w: &Spec,
) -> Outcome {
    let mut out = Outcome::new(w);
    if let Err(e) = open_conn(&mut out, addr, tenants, sids, schedule, w) {
        out.fail(format!("open loop: {e}"));
    }
    out
}

fn open_conn(
    out: &mut Outcome,
    addr: SocketAddr,
    tenants: &[Tenant],
    sids: &[u64],
    schedule: &[(f64, usize)],
    w: &Spec,
) -> io::Result<()> {
    let mut conn = FrameConn::connect(addr, true)?;
    let mut inflight: HashMap<u64, Pending> = HashMap::new();
    let mut next_r = vec![0u64; tenants.len()];
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        let due = schedule
            .get(i)
            .map(|&(d, _)| w.warm + Duration::from_secs_f64(d))
            .filter(|&due| due < w.end);
        match due {
            Some(due) if now >= due => {
                let t = schedule[i].1;
                let counted = due >= w.start;
                if counted {
                    out.lateness_ms.push(ms(due, now));
                }
                let (seq, p) = send(
                    &mut conn,
                    out,
                    tenants,
                    sids,
                    (i as u64, t, next_r[t]),
                    Some(due),
                    counted,
                )?;
                next_r[t] += 1;
                inflight.insert(seq, p);
                i += 1;
                continue;
            }
            None if inflight.is_empty() => return Ok(()),
            _ => {}
        }
        match conn.recv_until(due.unwrap_or(now + STALL))? {
            Some(frame) => match inflight.remove(&frame.seq) {
                Some(p) => receive(out, tenants, p, frame),
                None => out.fail(format!("response for unknown seq {}", frame.seq)),
            },
            None if due.is_none() => {
                for _ in 0..inflight.len() {
                    out.fail("no response within 60 s");
                }
                return Ok(());
            }
            None => {}
        }
    }
}

/// Tenant churn: rounds of [`crate::inputs::CHURN_RESIDENT`] tenants
/// drawn from `pool` arrive together. [`NetClient::open_session`] uploads
/// their keys one after another, each evicting the least-recently-used
/// tenant; once all are open, each sends [`CHURN_K`] light requests over a
/// second connection, the round's requests pipelined. A session open's
/// latency runs from the round's start to its reply.
pub fn churn(addr: SocketAddr, pool: &[Tenant], w: &Spec) -> Outcome {
    let mut out = Outcome::new(w);
    if let Err(e) = churn_conns(&mut out, addr, pool, w) {
        out.fail(format!("churn: {e}"));
    }
    out
}

fn churn_conns(out: &mut Outcome, addr: SocketAddr, pool: &[Tenant], w: &Spec) -> io::Result<()> {
    let mut client = NetClient::connect(addr).map_err(|e| io::Error::other(e.to_string()))?;
    let mut conn = FrameConn::connect(addr, false)?;
    let mut sids = vec![0u64; pool.len()];
    let mut next_r = vec![0u64; pool.len()];
    let mut id = 0u64;
    let mut arrival = OPEN_IDS;
    for round in churn_rounds(w.seed) {
        let t0 = Instant::now();
        if t0 >= w.end {
            return Ok(());
        }
        let counted = t0 >= w.start;
        let mut ready = Vec::new();
        for &t in &round {
            out.attempted += 1;
            let o0 = Instant::now();
            let opened = client.open_session(&pool[t].upload);
            let at = Instant::now();
            out.trace
                .span(arrival, "net.open_session", "session", o0, at);
            arrival += 1;
            match opened {
                Ok(sid) => {
                    if counted {
                        out.opens_ms.push(ms(t0, at));
                    }
                    sids[t] = sid;
                    ready.push(t);
                }
                Err(e) => out.fail(format!("session open: {e}")),
            }
        }
        let mut inflight: HashMap<u64, Pending> = HashMap::new();
        for &t in &ready {
            for _ in 0..CHURN_K {
                let (seq, p) = send(
                    &mut conn,
                    out,
                    pool,
                    &sids,
                    (id, t, next_r[t]),
                    None,
                    counted,
                )?;
                next_r[t] += 1;
                id += 1;
                inflight.insert(seq, p);
            }
        }
        while !inflight.is_empty() {
            let Some(frame) = conn.recv_until(Instant::now() + STALL)? else {
                for _ in 0..inflight.len() {
                    out.fail("no response within 60 s");
                }
                return Ok(());
            };
            match inflight.remove(&frame.seq) {
                Some(p) => receive(out, pool, p, frame),
                None => out.fail(format!("response for unknown seq {}", frame.seq)),
            }
        }
    }
    Ok(())
}

/// A running loopback server.
pub struct Live {
    /// The served server (shares state with the front's copy).
    pub server: Server,
    /// Listen address.
    pub addr: SocketAddr,
    /// Session ids of the uploaded tenants, in tenant order.
    pub sids: Vec<u64>,
    shutdown: NetShutdown,
    join: Option<JoinHandle<()>>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Serves `server` on a loopback port.
fn serve(server: Server) -> Result<Live, String> {
    let (addr, shutdown, join) =
        NetServer::spawn(server.clone(), "127.0.0.1:0", NetServerConfig::default())
            .map_err(|e| e.to_string())?;
    Ok(Live {
        server,
        addr,
        sids: Vec::new(),
        shutdown,
        join: Some(join),
    })
}

/// Score set-up: `Server::new`, bind, every tenant's key upload over one
/// connection. Returns the server and the set-up seconds. The tenants
/// arrive together and [`NetClient::open_session`] uploads their keys one
/// after another; each open's latency, from the first upload to its
/// reply, goes to `opens_ms`.
pub fn start_uploaded(tenants: &[Tenant], opens_ms: &mut Vec<f64>) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let mut live = serve(Server::new(config(64)).map_err(|e| e.to_string())?)?;
    let mut client = NetClient::connect(live.addr).map_err(|e| e.to_string())?;
    let o0 = Instant::now();
    for t in tenants {
        let sid = client
            .open_session(&t.upload)
            .map_err(|e| format!("set-up upload: {e}"))?;
        opens_ms.push(ms(o0, Instant::now()));
        live.sids.push(sid);
    }
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// Churn set-up: `Server::new`, restore the resident tenants from
/// `snapshot`, bind.
pub fn start_restored(snapshot: &[u8], max_sessions: usize) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let server = Server::new(config(max_sessions)).map_err(|e| e.to_string())?;
    server.restore(snapshot).map_err(|e| e.to_string())?;
    let live = serve(server)?;
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// Replays `kept` requests one at a time on an unloaded server and
/// byte-compares each response with the one received under load.
/// Returns one description per mismatch.
pub fn serial_mismatches(tenants: &[Tenant], kept: &[Kept]) -> Vec<String> {
    let server = match Server::new(config(64)) {
        Ok(s) => s,
        Err(e) => return vec![format!("reference server: {e}")],
    };
    let mut sids: HashMap<usize, u64> = HashMap::new();
    let mut bad = Vec::new();
    for k in kept {
        let sid = match sids.get(&k.tenant) {
            Some(&sid) => sid,
            None => match server.open_session(tenants[k.tenant].upload.clone()) {
                Ok(sid) => *sids.entry(k.tenant).or_insert(sid),
                Err(e) => {
                    bad.push(format!("reference open: {e}"));
                    continue;
                }
            },
        };
        let mut req = k.req.clone();
        req.session_id = sid;
        match server.eval(req) {
            Ok(resp) if resp.to_bytes() == k.resp => {}
            Ok(_) => bad.push(format!(
                "request {} (tenant {}): frame differs from the serial server's",
                k.id, k.tenant
            )),
            Err(e) => bad.push(format!("reference eval: {e}")),
        }
    }
    bad
}
