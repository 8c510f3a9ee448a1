//! In-memory spans around each public call the benchmark makes, written
//! out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{closes, closure};

/// Parent of the spans that tile a request's latency.
pub const REQUEST: &str = "request";

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request (or session-open) id the call served.
    pub req: u64,
    /// Layer and call, e.g. `client.encrypt`.
    pub name: &'static str,
    /// The span this one is part of: [`REQUEST`] for the calls that
    /// together make up the request's latency, or the enclosing span.
    pub parent: &'static str,
    /// Start, µs since the trace origin.
    pub start_us: f64,
    /// End, µs since the trace origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A span recorder; records nothing when tracing is off.
#[derive(Clone, Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Trace {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a call of request `req` that ran from `start` to `end`.
    pub fn span(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                req,
                name,
                parent,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            });
        }
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Appends another recorder's spans.
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Checks that each request's [`REQUEST`]-level spans sum to its
    /// measured latency (`latencies`: id → ms). Returns the closure
    /// ratios and the ids that fall outside the tolerance.
    pub fn check_closure(&self, latencies: &[(u64, f64)]) -> (Vec<f64>, Vec<u64>) {
        let mut sums: HashMap<u64, f64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == REQUEST) {
            *sums.entry(s.req).or_default() += s.ms();
        }
        let mut ratios = Vec::with_capacity(latencies.len());
        let mut open = Vec::new();
        for &(id, latency) in latencies {
            let r = closure(sums.get(&id).copied().unwrap_or(0.0), latency);
            if !closes(r) {
                open.push(id);
            }
            ratios.push(r);
        }
        (ratios, open)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"req\": {}, \"span\": \"{}\", \"parent\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.req, s.name, s.parent, s.start_us, s.end_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn closure_sums_only_request_level_spans() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Trace::new(true, t0);
        tr.span(1, "client.encrypt", REQUEST, at(0), at(2));
        tr.span(1, "net.roundtrip", REQUEST, at(2), at(9));
        tr.span(1, "wire.encode", "net.roundtrip", at(2), at(3));
        tr.span(2, "client.encrypt", REQUEST, at(0), at(2));
        let (ratios, open) = tr.check_closure(&[(1, 10.0), (2, 10.0)]);
        assert!((ratios[0] - 0.9).abs() < 1e-9);
        assert_eq!(open, vec![2]);
        assert_eq!(tr.durations("wire.encode"), vec![1.0]);
        assert_eq!(tr.to_jsonl().lines().count(), 4);
        let mut off = Trace::new(false, t0);
        off.span(1, "client.encrypt", REQUEST, at(0), at(2));
        assert!(off.spans.is_empty());
    }
}
