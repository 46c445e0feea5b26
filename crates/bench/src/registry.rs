//! The unified benchmark registry: one versioned record schema for every
//! committed measurement, plus the CI performance gate.
//!
//! The repo-root `BENCH_*.json` files each wrap their measurement in the
//! same [`BenchRecord`] envelope (schema tag, bench name, regeneration
//! command, git revision, host fingerprint, spec digest, gateable
//! metrics, and the full measurement payload), so history stays
//! machine-comparable as benches accumulate. Records append to a JSONL
//! registry file one canonical-JSON line per run ([`append_record`] /
//! [`load_registry`]); [`BenchRecord::from_json`] is strict — unknown or
//! missing envelope fields are an error, so a schema drift fails the
//! validation test instead of parsing as garbage.
//!
//! The gate ([`gate_check`]) compares a current record's metrics against
//! a committed baseline: deterministic metrics (any key naming `cycles`
//! or `instructions`) must match *exactly* — the simulator is
//! deterministic, so any drift is a real behavior change — while host
//! wall-clock metrics (keys naming `wall`, `seconds`, `ms`, or `nanos`)
//! get a tolerance band generous enough for CI host variance. Everything
//! else is informational. `obs_diff --gate` drives this in CI.

use std::io::Write as _;
use std::path::Path;

use sim_engine::StableHasher;
use sim_stats::Json;

/// The envelope schema version every committed record declares.
pub const BENCH_SCHEMA: &str = "ppc-bench-record-v1";

/// The envelope fields, in serialization order.
const FIELDS: [&str; 9] =
    ["schema", "bench", "title", "command", "git_rev", "host", "spec_digest", "metrics", "payload"];

/// One benchmark measurement in the unified envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Schema tag; must be [`BENCH_SCHEMA`].
    pub schema: String,
    /// Short bench name: the `<name>` of its `BENCH_<name>.json` file.
    pub bench: String,
    /// One-line human description of what was measured.
    pub title: String,
    /// The command that regenerates the measurement.
    pub command: String,
    /// `git rev-parse --short HEAD` at record time ("unknown" outside a
    /// checkout).
    pub git_rev: String,
    /// Host fingerprint (OS, architecture, available parallelism, free
    /// note). Informational: records from different hosts still parse.
    pub host: Json,
    /// Stable digest of the run spec (kernel, procs, scale, protocol
    /// axis) — two records gate against each other only when equal.
    pub spec_digest: String,
    /// Flat `name -> number` object of the gateable headline numbers;
    /// see the module docs for how names classify (exact / band / info).
    pub metrics: Json,
    /// The full measurement document (the legacy per-bench shape).
    pub payload: Json,
}

impl BenchRecord {
    /// Serializes the envelope, fields in [`FIELDS`] order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(self.schema.as_str())),
            ("bench", Json::from(self.bench.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("command", Json::from(self.command.as_str())),
            ("git_rev", Json::from(self.git_rev.as_str())),
            ("host", self.host.clone()),
            ("spec_digest", Json::from(self.spec_digest.as_str())),
            ("metrics", self.metrics.clone()),
            ("payload", self.payload.clone()),
        ])
    }

    /// Parses an envelope strictly: the value must be an object carrying
    /// *exactly* the envelope fields (no extras, none missing) and the
    /// schema tag must match [`BENCH_SCHEMA`]. Strictness is the point —
    /// it is what lets the validation test prove every committed
    /// `BENCH_*.json` really is on the unified schema.
    pub fn from_json(v: &Json) -> Result<BenchRecord, String> {
        let Json::Obj(pairs) = v else { return Err("bench record must be a JSON object".to_string()) };
        for (k, _) in pairs {
            if !FIELDS.contains(&k.as_str()) {
                return Err(format!("unknown bench-record field {k:?}"));
            }
        }
        let get = |k: &str| v.get(k).ok_or_else(|| format!("missing bench-record field {k:?}"));
        let get_str = |k: &str| {
            get(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("bench-record field {k:?} must be a string"))
        };
        let schema = get_str("schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!("unsupported bench-record schema {schema:?} (expected {BENCH_SCHEMA:?})"));
        }
        let metrics = get("metrics")?.clone();
        if !matches!(metrics, Json::Obj(_)) {
            return Err("bench-record field \"metrics\" must be an object".to_string());
        }
        for (name, value) in metric_pairs(&metrics) {
            if value.is_none() {
                return Err(format!("metric {name:?} must be a number"));
            }
        }
        Ok(BenchRecord {
            schema,
            bench: get_str("bench")?,
            title: get_str("title")?,
            command: get_str("command")?,
            git_rev: get_str("git_rev")?,
            host: get("host")?.clone(),
            spec_digest: get_str("spec_digest")?,
            metrics,
            payload: get("payload")?.clone(),
        })
    }

    /// Reads and strictly parses one record from a pretty or compact
    /// JSON file (the committed `BENCH_*.json` form).
    pub fn from_file(path: &Path) -> Result<BenchRecord, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Renders the committed-file form: canonical (recursively sorted
    /// keys), pretty-printed, trailing newline.
    pub fn render_file(&self) -> String {
        self.to_json().canonical().render_pretty()
    }
}

/// The `(name, number)` view of a record's metrics object; a non-numeric
/// value yields `(name, None)`.
fn metric_pairs(metrics: &Json) -> Vec<(&str, Option<f64>)> {
    match metrics {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                let n = match v {
                    Json::U64(u) => Some(*u as f64),
                    Json::F64(f) => Some(*f),
                    _ => None,
                };
                (k.as_str(), n)
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// How the gate treats one metric, classified from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Simulated determinism: must match the baseline exactly.
    Exact,
    /// Host wall time: current must stay within the tolerance band.
    WallBand,
    /// Recorded but not gated.
    Info,
}

/// Classifies a metric name (see the module docs for the rule).
pub fn metric_kind(name: &str) -> MetricKind {
    if name.contains("cycles") || name.contains("instructions") {
        MetricKind::Exact
    } else if ["wall", "seconds", "_ms", "nanos"].iter().any(|n| name.contains(n)) {
        MetricKind::WallBand
    } else {
        MetricKind::Info
    }
}

/// One gate comparison: a metric of the baseline vs the current record.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// The metric name.
    pub metric: String,
    /// How the metric was gated.
    pub kind: MetricKind,
    /// The baseline value.
    pub baseline: f64,
    /// The current value (`None`: the current record lacks the metric,
    /// which fails the gate).
    pub current: Option<f64>,
    /// Whether the check passed.
    pub pass: bool,
}

impl GateCheck {
    /// One stdout line, e.g. `GATE ok    cycles_wi: 6400777 == 6400777`.
    pub fn render(&self, band: f64) -> String {
        let verdict = if self.pass { "ok  " } else { "FAIL" };
        let cur = self.current.map(|c| format!("{c}")).unwrap_or_else(|| "missing".to_string());
        match self.kind {
            MetricKind::Exact => {
                format!("GATE {verdict} {}: {} (exact) baseline {}", self.metric, cur, self.baseline)
            }
            MetricKind::WallBand => format!(
                "GATE {verdict} {}: {} (band {:.0}%) baseline {}",
                self.metric,
                cur,
                band * 100.0,
                self.baseline
            ),
            MetricKind::Info => format!("GATE info {}: {} baseline {}", self.metric, cur, self.baseline),
        }
    }
}

/// Gates `current` against `baseline`: every baseline metric is checked
/// per its [`metric_kind`] — exact metrics must be equal, wall metrics
/// must satisfy `current <= baseline * (1 + band)` (a *slowdown* gate;
/// getting faster always passes), info metrics always pass. A metric the
/// current record dropped fails its check. Records with different spec
/// digests are incomparable and every check fails.
pub fn gate_check(baseline: &BenchRecord, current: &BenchRecord, band: f64) -> Vec<GateCheck> {
    let comparable = baseline.spec_digest == current.spec_digest;
    let current_metrics = metric_pairs(&current.metrics);
    metric_pairs(&baseline.metrics)
        .into_iter()
        .map(|(name, base)| {
            let base = base.unwrap_or(f64::NAN);
            let kind = metric_kind(name);
            let cur = current_metrics.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v);
            let pass = comparable
                && match (kind, cur) {
                    (MetricKind::Info, _) => true,
                    (_, None) => false,
                    (MetricKind::Exact, Some(c)) => c == base,
                    (MetricKind::WallBand, Some(c)) => c <= base * (1.0 + band),
                };
            GateCheck { metric: name.to_string(), kind, baseline: base, current: cur, pass }
        })
        .collect()
}

/// Whether every check in a [`gate_check`] result passed.
pub fn gate_passes(checks: &[GateCheck]) -> bool {
    checks.iter().all(|c| c.pass)
}

/// Appends `record` to the JSONL registry at `path` (one canonical
/// compact-JSON line per record; the file is created on first use).
pub fn append_record(path: &Path, record: &BenchRecord) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", record.to_json().canonical().render())
}

/// Loads every record of a JSONL registry, strictly parsed; blank lines
/// are skipped, anything else malformed is an error naming the line.
pub fn load_registry(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let v = Json::parse(l).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
            BenchRecord::from_json(&v).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Stable hex digest over the parts of a run spec that make two records
/// comparable (kernel, procs, protocol axis, workload scale).
pub fn spec_digest(parts: &[&str]) -> String {
    let mut h = StableHasher::new();
    h.write_str("ppc-bench-spec-v1");
    for p in parts {
        h.write_str(p);
    }
    h.finish_hex()
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The recording host's fingerprint object. Keys are already in
/// canonical (sorted) order so records round-trip unchanged through the
/// canonical on-disk form.
pub fn host_json() -> Json {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Json::obj([
        ("arch", Json::from(std::env::consts::ARCH)),
        ("available_parallelism", Json::from(cpus)),
        ("os", Json::from(std::env::consts::OS)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(metrics: Json) -> BenchRecord {
        BenchRecord {
            schema: BENCH_SCHEMA.to_string(),
            bench: "gate".to_string(),
            title: "test record".to_string(),
            command: "obs_diff --gate".to_string(),
            git_rev: "deadbee".to_string(),
            host: host_json(),
            spec_digest: spec_digest(&["mcs-lock", "8"]),
            metrics,
            payload: Json::obj([("detail", Json::U64(1))]),
        }
    }

    #[test]
    fn envelope_round_trips_strictly() {
        let r = record(Json::obj([("cycles_wi", Json::U64(123)), ("wall_seconds", Json::F64(1.5))]));
        let parsed = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        let reparsed = BenchRecord::from_json(&Json::parse(&r.render_file()).unwrap()).unwrap();
        assert_eq!(reparsed, r);
    }

    #[test]
    fn unknown_and_missing_fields_are_rejected() {
        let r = record(Json::obj([("cycles", Json::U64(1))]));
        let Json::Obj(mut pairs) = r.to_json() else { unreachable!() };
        pairs.push(("extra".to_string(), Json::Null));
        assert!(BenchRecord::from_json(&Json::Obj(pairs.clone())).unwrap_err().contains("unknown"));
        pairs.pop();
        pairs.retain(|(k, _)| k != "host");
        assert!(BenchRecord::from_json(&Json::Obj(pairs)).unwrap_err().contains("missing"));
        let Json::Obj(mut bad_schema) = r.to_json() else { unreachable!() };
        bad_schema[0].1 = Json::from("ppc-bench-record-v0");
        assert!(BenchRecord::from_json(&Json::Obj(bad_schema)).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn metric_names_classify() {
        assert_eq!(metric_kind("cycles_wi"), MetricKind::Exact);
        assert_eq!(metric_kind("instructions_pu"), MetricKind::Exact);
        assert_eq!(metric_kind("wall_seconds"), MetricKind::WallBand);
        assert_eq!(metric_kind("serial_wall_ms"), MetricKind::WallBand);
        assert_eq!(metric_kind("events_per_sec"), MetricKind::Info);
        assert_eq!(metric_kind("overhead_ratio"), MetricKind::Info);
    }

    #[test]
    fn gate_exact_and_band_semantics() {
        let base = record(Json::obj([
            ("cycles_wi", Json::U64(100)),
            ("wall_seconds", Json::F64(1.0)),
            ("events_per_sec", Json::F64(5.0)),
        ]));
        // Identical record passes.
        assert!(gate_passes(&gate_check(&base, &base, 0.5)));
        // A one-cycle regression fails the exact metric.
        let worse = record(Json::obj([
            ("cycles_wi", Json::U64(101)),
            ("wall_seconds", Json::F64(1.0)),
            ("events_per_sec", Json::F64(5.0)),
        ]));
        let checks = gate_check(&base, &worse, 0.5);
        assert!(!gate_passes(&checks));
        assert!(checks.iter().any(|c| c.metric == "cycles_wi" && !c.pass));
        // Wall time inside the band passes, outside fails; info never fails.
        let slow = record(Json::obj([
            ("cycles_wi", Json::U64(100)),
            ("wall_seconds", Json::F64(1.4)),
            ("events_per_sec", Json::F64(0.1)),
        ]));
        assert!(gate_passes(&gate_check(&base, &slow, 0.5)));
        let too_slow = record(Json::obj([
            ("cycles_wi", Json::U64(100)),
            ("wall_seconds", Json::F64(1.6)),
            ("events_per_sec", Json::F64(0.1)),
        ]));
        assert!(!gate_passes(&gate_check(&base, &too_slow, 0.5)));
        // A dropped metric fails; different spec digests fail everything.
        let dropped = record(Json::obj([("wall_seconds", Json::F64(1.0))]));
        assert!(!gate_passes(&gate_check(&base, &dropped, 0.5)));
        let mut other_spec = base.clone();
        other_spec.spec_digest = spec_digest(&["other"]);
        assert!(!gate_passes(&gate_check(&base, &other_spec, 0.5)));
    }

    #[test]
    fn registry_appends_and_loads() {
        let path = std::env::temp_dir().join(format!("ppc-registry-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let r1 = record(Json::obj([("cycles", Json::U64(1))]));
        let mut r2 = r1.clone();
        r2.bench = "sweep".to_string();
        append_record(&path, &r1).unwrap();
        append_record(&path, &r2).unwrap();
        let loaded = load_registry(&path).unwrap();
        assert_eq!(loaded, vec![r1, r2]);
        std::fs::write(&path, "{\"schema\":\"nope\"}\n").unwrap();
        assert!(load_registry(&path).unwrap_err().contains("line 1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spec_digest_is_stable_and_order_sensitive() {
        assert_eq!(spec_digest(&["a", "b"]), spec_digest(&["a", "b"]));
        assert_ne!(spec_digest(&["a", "b"]), spec_digest(&["b", "a"]));
        assert_eq!(spec_digest(&["a"]).len(), 32);
    }
}
