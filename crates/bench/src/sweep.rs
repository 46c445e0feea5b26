//! Parallel sweep harness with memoized runs.
//!
//! Every figure of the paper is a sweep over *independent* simulations
//! (kernel × protocol × machine size). This module expresses one cell as
//! a declarative [`RunSpec`], executes a batch of them across host threads
//! (each simulation stays single-threaded and bit-deterministic), and
//! memoizes completed outcomes twice over:
//!
//! * an in-process table, so e.g. `all_figures`' traffic tables at 32
//!   processors reuse the cells its latency tables already simulated;
//! * an on-disk cache (`target/sweep-cache` by default), so re-running a
//!   figure binary re-simulates only cells whose inputs changed.
//!
//! The cache key is a stable 128-bit content hash of the full
//! [`MachineConfig`], the [`ExperimentSpec`] (kernel and its parameters),
//! the installed-program digest ([`kernel_fingerprint`]), the crate
//! version, and a schema version — see docs/HARNESS.md for the
//! invalidation rules and their limits.
//!
//! Environment knobs (all optional):
//!
//! * `PPC_WORKERS` — worker threads (default: available parallelism);
//! * `PPC_SWEEP_CACHE` — cache directory, or `off`/`0` to disable.
//!
//! Results are returned in spec order regardless of worker scheduling, so
//! table output is byte-identical across worker counts, against a warm or
//! cold cache, and against the old serial harness.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use kernels::runner::{kernel_fingerprint, run_experiment_configured, ExperimentOutcome, ExperimentSpec};
use sim_engine::snapshot::{open, SnapReader, SnapWriter};
use sim_engine::StableHasher;
use sim_machine::MachineConfig;
use sim_stats::{ChromeTrace, Json};

/// The entry-format version. Bump when the entry format or the key
/// derivation changes: it feeds every key, so old entries then miss, and
/// it is the version of every entry's sealed frame.
const SCHEMA: u32 = 2;

/// One simulation cell of a sweep: an experiment plus the full machine
/// configuration it runs under.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The experiment (machine size, protocol, kernel parameters).
    pub spec: ExperimentSpec,
    /// The machine configuration (defaults to the paper machine; ablation
    /// sweeps override fields like `cu_threshold` or `wb_entries`).
    pub cfg: MachineConfig,
}

impl RunSpec {
    /// A cell on the paper's machine. The spec is the cell's whole input:
    /// nothing in the environment changes the machine it runs on (host
    /// profiling, fingerprints and checkpoints are [`MachineConfig`]
    /// fields, set through [`RunSpec::with_config`]).
    pub fn paper(procs: usize, protocol: sim_proto::Protocol, kernel: kernels::runner::KernelSpec) -> Self {
        RunSpec {
            spec: ExperimentSpec { procs, protocol, kernel },
            cfg: MachineConfig::paper(procs, protocol),
        }
    }

    /// A cell with an explicit machine configuration.
    pub fn with_config(spec: ExperimentSpec, cfg: MachineConfig) -> Self {
        RunSpec { spec, cfg }
    }

    /// The memoization key: 32 hex characters, stable across runs and
    /// toolchains for identical inputs.
    pub fn cache_key(&self) -> String {
        let mut h = StableHasher::new();
        h.write_str(&format!("ppc-sweep-v{SCHEMA}"));
        h.write_str(env!("CARGO_PKG_VERSION"));
        // Debug formatting of the config and spec enumerates every field
        // (new fields change the string, hence the key — fail-safe).
        h.write_str(&format!("{:?}", self.cfg));
        h.write_str(&format!("{:?}", self.spec));
        h.write_u64(kernel_fingerprint(&self.spec, &self.cfg));
        h.finish_hex()
    }
}

/// How a batch of [`RunSpec`]s executes.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads claiming cells from the shared batch (≥ 1; each
    /// cell's simulation itself stays single-threaded).
    pub workers: usize,
    /// On-disk result cache directory; `None` disables disk memoization
    /// (the in-process table is always active).
    pub disk_cache: Option<PathBuf>,
}

impl SweepOptions {
    /// Options from the environment: `PPC_WORKERS`, `PPC_SWEEP_CACHE`.
    /// A `PPC_WORKERS` value that is not a count aborts with a clear error
    /// (see [`crate::env_cfg`]).
    pub fn from_env() -> Self {
        let workers = crate::env_cfg::env_or_else("PPC_WORKERS", || {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        });
        let disk_cache = match std::env::var("PPC_SWEEP_CACHE") {
            Ok(s) if s == "off" || s == "0" => None,
            Ok(s) if !s.is_empty() => Some(PathBuf::from(s)),
            _ => Some(PathBuf::from("target/sweep-cache")),
        };
        SweepOptions { workers: workers.max(1), disk_cache }
    }

    /// Serial execution with no disk cache (the in-process memo table
    /// still applies) — the reference path for equivalence tests.
    pub fn serial_uncached() -> Self {
        SweepOptions { workers: 1, disk_cache: None }
    }
}

/// Where each outcome of a sweep came from, counted from its
/// [`CellRecord`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells simulated from scratch in this batch.
    pub simulated: usize,
    /// Cells served by the in-process memo table.
    pub from_memory: usize,
    /// Cells loaded from the on-disk cache.
    pub from_disk: usize,
    /// Disk entries that were present but failed verification (a frame
    /// that does not open, a stale key, or a payload that does not decode)
    /// and forced re-simulation.
    /// Included in `simulated`, counted separately here so a corrupted
    /// cache directory is visible instead of silently slow.
    pub disk_poisoned: usize,
}

impl SweepStats {
    /// Counts each record's source and poisoned disk entry.
    fn of(cells: &[CellRecord]) -> Self {
        let mut stats = SweepStats::default();
        for c in cells {
            match c.source {
                CellSource::Simulated => stats.simulated += 1,
                CellSource::Memory => stats.from_memory += 1,
                CellSource::Disk => stats.from_disk += 1,
            }
            stats.disk_poisoned += usize::from(c.disk_poisoned);
        }
        stats
    }
}

/// Where one sweep cell's outcome came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Simulated from scratch (including after a poisoned disk entry).
    Simulated,
    /// Served by the in-process memo table.
    Memory,
    /// Loaded from the on-disk cache.
    Disk,
}

impl CellSource {
    /// Stable label for traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CellSource::Simulated => "simulated",
            CellSource::Memory => "memo",
            CellSource::Disk => "disk",
        }
    }
}

/// One cell's execution record inside a profiled sweep.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Index into the sweep's spec slice.
    pub index: usize,
    /// Worker thread that claimed the cell (0-based).
    pub worker: usize,
    /// Start offset from the sweep's start, host nanoseconds.
    pub start_ns: u64,
    /// End offset from the sweep's start, host nanoseconds.
    pub end_ns: u64,
    /// How the outcome was obtained.
    pub source: CellSource,
    /// A disk entry was present but failed verification, so the cell was
    /// re-simulated.
    pub disk_poisoned: bool,
}

impl CellRecord {
    /// Cell duration in host nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The host-side profile of one sweep: what each worker did when. The
/// sweep-pool half of the harness-observability layer; pairs with the
/// per-run [`sim_stats::HostObsReport`].
#[derive(Debug, Clone)]
pub struct SweepProfile {
    /// Whole-sweep wall time in host nanoseconds.
    pub wall_ns: u64,
    /// Worker threads the pool actually ran.
    pub workers: usize,
    /// Per-cell records, in spec order.
    pub cells: Vec<CellRecord>,
}

impl SweepProfile {
    /// Busy nanoseconds per worker (sum of its cell durations).
    pub fn worker_busy_ns(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.workers];
        for c in &self.cells {
            busy[c.worker] += c.duration_ns();
        }
        busy
    }

    /// Pool utilization: busy worker-time over available worker-time.
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.worker_busy_ns().iter().sum();
        busy as f64 / (self.wall_ns.max(1) as f64 * self.workers.max(1) as f64)
    }

    /// The sweep as a Chrome trace: one track per worker, one slice per
    /// cell (`label_of(index)` names the slice), timestamps in
    /// microseconds. Load in `chrome://tracing` / Perfetto like the
    /// simulated-machine traces from `chrome_export`.
    pub fn chrome_trace(&self, label_of: impl Fn(usize) -> String) -> ChromeTrace {
        /// Track-id base for the sweep pool, clear of the simulated
        /// machine's pid 1 tracks so merged traces don't collide.
        const SWEEP_PID: u64 = 100;
        let mut t = ChromeTrace::new();
        t.process_name(SWEEP_PID, "sweep pool");
        for w in 0..self.workers {
            t.thread_name(SWEEP_PID, w as u64, &format!("worker {w}"));
        }
        for c in &self.cells {
            t.complete(
                SWEEP_PID,
                c.worker as u64,
                &label_of(c.index),
                c.source.name(),
                c.start_ns / 1_000,
                c.duration_ns() / 1_000,
                vec![
                    ("source".to_string(), Json::from(c.source.name())),
                    ("cell".to_string(), Json::U64(c.index as u64)),
                ],
            );
        }
        t
    }

    /// The profile as a JSON value (per-worker busy times and per-cell
    /// durations, not the raw trace).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_ms", Json::F64(self.wall_ns as f64 / 1e6)),
            ("workers", Json::U64(self.workers as u64)),
            ("utilization", Json::F64(self.utilization())),
            (
                "worker_busy_ms",
                Json::Arr(self.worker_busy_ns().iter().map(|&ns| Json::F64(ns as f64 / 1e6)).collect()),
            ),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("cell", Json::U64(c.index as u64)),
                                ("worker", Json::U64(c.worker as u64)),
                                ("ms", Json::F64(c.duration_ns() as f64 / 1e6)),
                                ("source", Json::from(c.source.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs every spec (with environment-default [`SweepOptions`]) and
/// returns the outcomes in spec order.
pub fn run_specs(specs: &[RunSpec]) -> Vec<ExperimentOutcome> {
    run_specs_with(specs, &SweepOptions::from_env()).0
}

/// Runs every spec under explicit options; outcomes come back in spec
/// order regardless of worker scheduling.
pub fn run_specs_with(specs: &[RunSpec], opts: &SweepOptions) -> (Vec<ExperimentOutcome>, SweepStats) {
    let (outcomes, stats, _) = run_specs_profiled(specs, opts);
    (outcomes, stats)
}

/// [`run_specs_with`] plus a [`SweepProfile`] of the pool itself. The
/// profile costs two `Instant` reads per cell — nothing next to a
/// simulation — so the unprofiled entry points share this implementation.
pub fn run_specs_profiled(
    specs: &[RunSpec],
    opts: &SweepOptions,
) -> (Vec<ExperimentOutcome>, SweepStats, SweepProfile) {
    let slots: Vec<Mutex<Option<ExperimentOutcome>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = opts.workers.clamp(1, specs.len().max(1));
    let sweep_start = std::time::Instant::now();
    let worker_logs: Vec<Mutex<Vec<CellRecord>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for (w, log) in worker_logs.iter().enumerate() {
            let slots = &slots;
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let start_ns = sweep_start.elapsed().as_nanos() as u64;
                let (out, source, disk_poisoned) = run_one(&specs[i], opts);
                let end_ns = sweep_start.elapsed().as_nanos() as u64;
                *slots[i].lock().unwrap() = Some(out);
                log.lock().unwrap().push(CellRecord {
                    index: i,
                    worker: w,
                    start_ns,
                    end_ns,
                    source,
                    disk_poisoned,
                });
            });
        }
    });
    let outcomes =
        slots.into_iter().map(|slot| slot.into_inner().unwrap().expect("every sweep slot filled")).collect();
    let mut cells: Vec<CellRecord> =
        worker_logs.into_iter().flat_map(|log| log.into_inner().unwrap()).collect();
    cells.sort_by_key(|c| c.index);
    let stats = SweepStats::of(&cells);
    let profile = SweepProfile { wall_ns: sweep_start.elapsed().as_nanos() as u64, workers, cells };
    (outcomes, stats, profile)
}

/// The process-wide memo table shared by every sweep in this process.
fn memo() -> &'static Mutex<HashMap<String, ExperimentOutcome>> {
    static MEMO: OnceLock<Mutex<HashMap<String, ExperimentOutcome>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Empties the in-process memo table. The equivalence tests and timing
/// harnesses call this to force the next sweep down the disk-cache (or
/// full re-simulation) path; figure binaries never need it.
pub fn clear_memo() {
    memo().lock().unwrap().clear();
}

/// Runs one cell: its outcome, where it came from, and whether a disk
/// entry was present but poisoned.
fn run_one(rs: &RunSpec, opts: &SweepOptions) -> (ExperimentOutcome, CellSource, bool) {
    let key = rs.cache_key();
    if let Some(hit) = memo().lock().unwrap().get(&key).cloned() {
        return (hit, CellSource::Memory, false);
    }
    let mut poisoned = false;
    if let Some(dir) = &opts.disk_cache {
        match load_entry(&entry_path(dir, &key), &key) {
            DiskLookup::Hit(out) => {
                memo().lock().unwrap().insert(key, (*out).clone());
                return (*out, CellSource::Disk, false);
            }
            DiskLookup::Poisoned => poisoned = true,
            DiskLookup::Miss => {}
        }
    }
    let out = run_experiment_configured(&rs.spec, rs.cfg.clone());
    if let Some(dir) = &opts.disk_cache {
        if let Err(e) = store_entry(dir, &key, &out) {
            eprintln!("warning: could not write sweep-cache entry {key}: {e}");
        }
    }
    memo().lock().unwrap().insert(key, out.clone());
    (out, CellSource::Simulated, poisoned)
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.run"))
}

// ---------------------------------------------------------------------
// On-disk entry format
// ---------------------------------------------------------------------
//
// One sealed snapshot frame (`sim_engine::snapshot`: magic, `SCHEMA`,
// payload, digest) whose payload is the entry's key, then the outcome as
// `ExperimentOutcome::encode` writes it. The latency is stored as its bit
// pattern, so a table printed from a cached outcome is byte-identical to
// one printed from a fresh simulation. An entry is served only if its
// frame opens, its key matches, and the payload decodes to the last byte;
// a poisoned or stale entry is a cache miss and the cell is re-simulated
// (and the entry rewritten).

fn entry_blob(key: &str, out: &ExperimentOutcome) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.str(key);
    out.encode(&mut w);
    w.seal(SCHEMA)
}

fn decode_entry(blob: &[u8], key: &str) -> Option<ExperimentOutcome> {
    let mut r = SnapReader::new(open(blob, SCHEMA).ok()?);
    if r.str().ok()? != key {
        return None;
    }
    let out = ExperimentOutcome::decode(&mut r).ok()?;
    r.finish().ok()?;
    Some(out)
}

/// Result of probing the on-disk cache for one cell.
enum DiskLookup {
    /// The entry verified and decoded; serve it.
    Hit(Box<ExperimentOutcome>),
    /// No entry on disk (or unreadable): the expected cold-cache case.
    Miss,
    /// An entry exists but failed verification (frame, key, or decode):
    /// re-simulate, and count the corruption.
    Poisoned,
}

/// Loads a cache entry, verifying its frame, key and payload. Any failure
/// is a [`DiskLookup::Poisoned`] miss: the caller re-simulates and
/// overwrites.
fn load_entry(path: &Path, key: &str) -> DiskLookup {
    let Ok(blob) = std::fs::read(path) else {
        return DiskLookup::Miss;
    };
    match decode_entry(&blob, key) {
        Some(out) => DiskLookup::Hit(Box::new(out)),
        None => DiskLookup::Poisoned,
    }
}

/// Writes an entry atomically (temp file + rename), so concurrent workers
/// and interrupted runs never leave a half-written entry to parse.
fn store_entry(dir: &Path, key: &str, out: &ExperimentOutcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{key}.tmp{}", std::process::id()));
    std::fs::write(&tmp, entry_blob(key, out))?;
    std::fs::rename(&tmp, entry_path(dir, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::runner::KernelSpec;
    use kernels::workloads::{LockKind, LockWorkload, PostRelease};
    use sim_proto::Protocol;

    fn tiny_spec(acquires: u32) -> RunSpec {
        RunSpec::paper(
            2,
            Protocol::WriteInvalidate,
            KernelSpec::Lock(LockWorkload {
                kind: LockKind::Ticket,
                total_acquires: acquires,
                cs_cycles: 5,
                post_release: PostRelease::None,
            }),
        )
    }

    #[test]
    fn cache_key_is_stable_and_input_sensitive() {
        let a = tiny_spec(64).cache_key();
        assert_eq!(a, tiny_spec(64).cache_key(), "same inputs, same key");
        assert_eq!(a.len(), 32);
        assert_ne!(a, tiny_spec(65).cache_key(), "workload params feed the key");
        let mut other = tiny_spec(64);
        other.cfg.cu_threshold += 1;
        assert_ne!(a, other.cache_key(), "machine config feeds the key");
    }

    /// A hostobs cell of a lock kernel: registered structures and a
    /// fingerprint, so every optional part of the entry is present.
    fn hostobs_outcome() -> (String, ExperimentOutcome) {
        let mut rs = tiny_spec(64);
        rs.cfg.hostobs = sim_stats::HostObsConfig::enabled();
        let out = run_experiment_configured(&rs.spec, rs.cfg.clone());
        assert!(!out.traffic.by_structure.is_empty(), "the lock registers its structures");
        assert!(out.traffic.by_structure.iter().any(|s| s.misses.total_misses() > 0));
        assert!(out.traffic.shared_reads > 0 && out.net.local_messages > 0);
        (rs.cache_key(), out)
    }

    #[test]
    fn outcome_roundtrips_through_entry_format() {
        let (key, out) = hostobs_outcome();
        let decoded = decode_entry(&entry_blob(&key, &out), &key).expect("decodes");
        // Every field: structure names and counts, the shared reference
        // counts, all four network counters, both histograms and the
        // fingerprint; the latency to the bit.
        assert_eq!(decoded, out);
        assert_eq!(decoded.avg_latency.to_bits(), out.avg_latency.to_bits());
        assert!(decode_entry(&entry_blob(&key, &out), &tiny_spec(65).cache_key()).is_none(), "key checked");
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("ppc-sweep-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rs = tiny_spec(64);
        let out = run_experiment_configured(&rs.spec, rs.cfg.clone());
        let key = rs.cache_key();
        store_entry(&dir, &key, &out).unwrap();
        let path = entry_path(&dir, &key);
        assert!(matches!(load_entry(&path, &key), DiskLookup::Hit(_)), "intact entry loads");
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(
            matches!(load_entry(&path, &key), DiskLookup::Poisoned),
            "truncated entry is poisoned, not served"
        );
        assert!(
            matches!(load_entry(&dir.join("absent.run"), &key), DiskLookup::Miss),
            "absent entry is a plain miss"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_rides_the_entry_format() {
        let (key, out) = hostobs_outcome();
        let fp = out.fingerprint.clone().expect("hostobs run carries a fingerprint");
        assert!(fp.total_events > 0 && !fp.epochs.is_empty());
        let decoded = decode_entry(&entry_blob(&key, &out), &key).expect("decodes");
        assert_eq!(decoded.fingerprint, Some(fp), "fingerprint chain round-trips exactly");

        // A plain run has no fingerprint, and the field stays absent.
        let rs = tiny_spec(64);
        let out = run_experiment_configured(&rs.spec, rs.cfg.clone());
        assert!(out.fingerprint.is_none());
        let key = rs.cache_key();
        assert_eq!(decode_entry(&entry_blob(&key, &out), &key).expect("decodes").fingerprint, None);
    }
}
