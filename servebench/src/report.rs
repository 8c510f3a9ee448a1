//! Result files: host metadata, metrics with units and sample counts, and
//! the host check that guards every comparison.

use std::fmt::Write as _;
use std::process::Command;

use fides_bench::json::Json;

/// Where the benchmark host and build came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string (`/proc/cpuinfo`).
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Cargo features the benchmark was built with.
    pub features: String,
    /// Source commit (`git rev-parse HEAD` inside a git checkout).
    pub commit: String,
}

impl Host {
    /// Reads the running host's metadata.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        };
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            features: if cfg!(feature = "simd") { "simd" } else { "" }.into(),
            commit,
        }
    }

    /// Two results are comparable only when measured on the same kind of
    /// host: the same CPU model and core count.
    pub fn same_host(&self, other: &Host) -> bool {
        self.nproc == other.nproc && self.cpu_model == other.cpu_model
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `KiB`, `MiB`, `count`, `ratio`).
    pub unit: String,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
            samples,
        }
    }
}

/// Everything one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Where it ran.
    pub host: Host,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub trace: bool,
    /// Every output verified and every check passed.
    pub correct: bool,
    /// Requests attempted (evaluations plus session opens).
    pub attempted: u64,
    /// Requests rejected, errored or wrong.
    pub failed: u64,
    /// The metrics the summary line reports.
    pub metrics: Vec<Metric>,
    /// Further readings kept in the result file only: the fail ratio,
    /// open-loop lateness and, on traced runs, both windows' end-to-end
    /// metrics.
    pub extra: Vec<Metric>,
}

impl RunResult {
    /// The full result file: metadata, metrics with sample counts.
    pub fn to_json(&self) -> String {
        let h = &self.host;
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"features\": {}, \"commit\": {}}},",
            h.nproc,
            quote(&h.cpu_model),
            quote(&h.rustc),
            quote(&h.features),
            quote(&h.commit)
        );
        let _ = writeln!(
            s,
            "  \"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            quote(&self.workload),
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed
        );
        s.push_str("  \"metrics\": ");
        s.push_str(&metric_list(&self.metrics));
        s.push_str(",\n  \"extra\": ");
        s.push_str(&metric_list(&self.extra));
        s.push_str("\n}\n");
        s
    }

    /// Parses a file written by [`RunResult::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let host = field(&doc, "host")?;
        let metrics = parse_metric_list(field(&doc, "metrics")?)?;
        let extra = parse_metric_list(field(&doc, "extra")?)?;
        Ok(Self {
            host: Host {
                nproc: number(host, "nproc")? as usize,
                cpu_model: string(host, "cpu_model")?,
                rustc: string(host, "rustc")?,
                features: string(host, "features")?,
                commit: string(host, "commit")?,
            },
            workload: string(&doc, "workload")?,
            seed: number(&doc, "seed")? as u64,
            trace: boolean(&doc, "trace")?,
            correct: boolean(&doc, "correct")?,
            attempted: number(&doc, "attempted")? as u64,
            failed: number(&doc, "failed")? as u64,
            metrics,
            extra,
        })
    }

    /// The one-line summary the benchmark contract reads: `correct`,
    /// `attempted`, `failed` and each metric's value and unit.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Compares two result files metric by metric.
///
/// # Errors
///
/// A "different host" error when the files come from different hosts:
/// their numbers are not comparable.
pub fn compare(a: &RunResult, b: &RunResult) -> Result<String, String> {
    if !a.host.same_host(&b.host) {
        return Err(format!(
            "different host: {} × {} vs {} × {}; re-run both sides on one host",
            a.host.nproc, a.host.cpu_model, b.host.nproc, b.host.cpu_model
        ));
    }
    let mut out = format!(
        "{:<28} {:>14} {:>14} {:>8}  unit\n",
        "metric", a.host.commit, b.host.commit, "b/a"
    );
    for ma in &a.metrics {
        if let Some(mb) = b.metrics.iter().find(|m| m.name == ma.name) {
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:>14.4} {:>8.3}  {}",
                ma.name,
                ma.value,
                mb.value,
                mb.value / ma.value,
                ma.unit
            );
        }
    }
    Ok(out)
}

fn metric_list(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(&m.unit),
                m.samples
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn parse_metric_list(list: &Json) -> Result<Vec<Metric>, String> {
    let Json::Arr(items) = list else {
        return Err("metric list is not an array".into());
    };
    items
        .iter()
        .map(|m| {
            Ok(Metric {
                name: string(m, "name")?,
                value: number(m, "value")?,
                unit: string(m, "unit")?,
                samples: number(m, "samples")? as usize,
            })
        })
        .collect()
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 || (c as u32) > 0x7e => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    match doc {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key}")),
        _ => Err(format!("expected an object holding {key}")),
    }
}

fn string(doc: &Json, key: &str) -> Result<String, String> {
    match field(doc, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("{key} is not a string")),
    }
}

fn number(doc: &Json, key: &str) -> Result<f64, String> {
    match field(doc, key)? {
        Json::Num(v) => Ok(*v),
        Json::Null => Ok(f64::NAN),
        _ => Err(format!("{key} is not a number")),
    }
}

fn boolean(doc: &Json, key: &str) -> Result<bool, String> {
    match field(doc, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{key} is not a boolean")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cpu: &str) -> RunResult {
        RunResult {
            host: Host {
                nproc: 2,
                cpu_model: cpu.into(),
                rustc: "rustc 1.82.0".into(),
                features: String::new(),
                commit: "abc123".into(),
            },
            workload: "score-open".into(),
            seed: 7,
            trace: true,
            correct: true,
            attempted: 250,
            failed: 0,
            metrics: vec![
                Metric::new("latency_p50_ms", 31.254_817, "ms", 250),
                Metric::new("throughput_rps", 17.000_1, "1/s", 250),
                Metric::new("wire.upload_kb", 2_560.5, "KiB", 1),
            ],
            extra: vec![Metric::new("fail_ratio", 0.0, "ratio", 250)],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample("Xeon \"E5\" — µarch");
        let back = RunResult::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn summary_line_is_one_json_object() {
        let line = sample("x").summary_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn comparing_across_hosts_is_refused() {
        let a = sample("Xeon");
        assert!(compare(&a, &sample("Xeon")).is_ok());
        let err = compare(&a, &sample("EPYC")).unwrap_err();
        assert!(err.starts_with("different host"), "{err}");
        let mut wider = sample("Xeon");
        wider.host.nproc = 8;
        assert!(compare(&a, &wider).is_err());
    }
}
