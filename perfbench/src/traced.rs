//! The traced run: per-layer metrics of one workload.
//!
//! Spans go around the benchmark's calls into each crate (`sweep.key`,
//! `sweep.pass`, then per repetition `machine.new`, `kernels.install`,
//! `machine.run`, `kernels.verify`). Inside `machine.run` the layers are
//! read from the opt-in hostobs report (fingerprint off), and allocations
//! from the counting allocator. Every repetition must reproduce the
//! untraced outcome exactly.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use ppc_bench::sweep::{self, RunSpec, SweepOptions, SweepStats};
use sim_stats::{HostObsConfig, Json, ObsConfig};

use crate::cells::{canonical, compare, compare_exp, guarded, run_rep, Outcome, Rep, Tally};
use crate::host::Host;
use crate::spans::Spans;
use crate::{alloc, figures, median, out_dir, Metric, Workload};

/// Each round runs every cell under these configurations, in order:
/// `(name, hostobs on, MachineConfig::obs flipped)`.
const VARIANTS: [(&str, bool, bool); 4] = [
    ("plain", false, false),
    ("hostobs", true, false),
    ("obs-flipped", false, true),
    ("obs-flipped-hostobs", true, true),
];

/// Hostobs dispatch categories and the per-layer names they report under.
const CATEGORIES: [(&str, &str); 7] = [
    ("engine.pop", "event-pop"),
    ("machine.cpu_step", "cpu-step"),
    ("proto.deliver", "proto-deliver"),
    ("proto.home", "proto-home"),
    ("mem.wb_issue", "wb-issue"),
    ("net.route", "net-route"),
    ("stats.sample", "stats-sample"),
];

/// Sums over one pass through the workload's distinct cells.
#[derive(Default)]
struct Pass {
    new_s: f64,
    install_s: f64,
    run_s: f64,
    verify_s: f64,
    wall_s: f64,
    events: u64,
    instructions: u64,
    setup_allocs: u64,
    run_allocs: u64,
    run_bytes: u64,
    /// Hostobs category name → (calls, self nanoseconds).
    cats: BTreeMap<&'static str, (u64, u64)>,
    host_wall_ns: u64,
    peak_depth: u64,
    far_spills: u64,
    cycles: u64,
    misses: [u64; 6],
    updates: [u64; 6],
    messages: u64,
    flits: u64,
    hops: u64,
}

impl Pass {
    fn add(&mut self, r: &Rep) {
        self.new_s += r.new_s;
        self.install_s += r.install_s;
        self.run_s += r.run_s;
        self.verify_s += r.verify_s;
        self.wall_s += r.wall_s();
        self.events += r.events;
        self.instructions += r.outcome.instructions;
        self.setup_allocs += r.setup_allocs;
        self.run_allocs += r.run_allocs.0;
        self.run_bytes += r.run_allocs.1;
        if let Some(h) = &r.result.host {
            for c in &h.cats {
                let e = self.cats.entry(c.name).or_default();
                e.0 += c.calls;
                e.1 += c.nanos;
            }
            self.host_wall_ns += h.wall_nanos;
            self.peak_depth = self.peak_depth.max(h.queue.peak_depth);
            self.far_spills += h.queue.far_spills;
        }
        let (t, n) = (&r.result.traffic, &r.result.net);
        self.cycles += r.result.cycles;
        let (m, u) = (&t.misses, &t.updates);
        let misses = [m.cold, m.true_sharing, m.false_sharing, m.eviction, m.drop, m.exclusive_requests];
        let updates =
            [u.true_sharing, u.false_sharing, u.proliferation, u.replacement, u.termination, u.drop];
        for (acc, v) in self.misses.iter_mut().zip(misses) {
            *acc += v;
        }
        for (acc, v) in self.updates.iter_mut().zip(updates) {
            *acc += v;
        }
        self.messages += n.messages;
        self.flits += n.flits;
        self.hops += n.total_hops;
    }

    fn cat(&self, name: &str) -> (u64, u64) {
        self.cats.get(name).copied().unwrap_or_default()
    }
}

/// `rs` under one of the [`VARIANTS`].
fn variant(rs: &RunSpec, hostobs: bool, flip_obs: bool) -> RunSpec {
    let mut rs = rs.clone();
    if hostobs {
        rs.cfg.hostobs = HostObsConfig { enabled: true, fingerprint: false, ..HostObsConfig::default() };
    }
    if flip_obs {
        rs.cfg.obs = if rs.cfg.obs.enabled { ObsConfig::default() } else { ObsConfig::enabled() };
    }
    rs
}

/// One pass of the sweep over `batches`, as a span: canonical outcomes in
/// request order, where they came from, and the pass's seconds.
fn sweep_pass(
    batches: &[Vec<RunSpec>],
    opts: &SweepOptions,
    kind: &str,
    spans: &mut Spans,
) -> (Vec<String>, SweepStats, f64) {
    spans.begin("sweep.pass");
    let t = Instant::now();
    let mut outs = Vec::new();
    let mut stats = SweepStats::default();
    for batch in batches {
        let (o, s) = sweep::run_specs_with(batch, opts);
        outs.extend(o.iter().map(canonical));
        stats.simulated += s.simulated;
        stats.from_memory += s.from_memory;
        stats.from_disk += s.from_disk;
        stats.disk_poisoned += s.disk_poisoned;
    }
    let secs = t.elapsed().as_secs_f64();
    spans.end_with(vec![
        ("kind".into(), Json::from(kind)),
        ("simulated".into(), Json::U64(stats.simulated as u64)),
        ("from_memory".into(), Json::U64(stats.from_memory as u64)),
        ("from_disk".into(), Json::U64(stats.from_disk as u64)),
    ]);
    (outs, stats, secs)
}

fn same_outcomes(got: &[String], want: &[String]) -> Result<(), String> {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None if got.len() == want.len() => Ok(()),
        None => Err("outcome counts differ".into()),
        Some(i) => Err(format!("request {i}: {}", compare_exp(&got[i], &want[i]).unwrap_err())),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs the traced measurement of `workload` for about `seconds` (always at
/// least one round) and returns its per-layer metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    host: &mut Host,
) -> Result<(Tally, Vec<Metric>), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    alloc::activate();
    let mut spans = Spans::on();
    let mut tally = Tally::default();
    let (batches, tables, reference, base_observed) = match workload {
        Workload::Figures => {
            let tables = figures::tables();
            (figures::batches(&tables), Some(tables), None, false)
        }
        Workload::Cell(w) => (vec![vec![w.spec(seed)]], None, w.reference(seed), w.observed),
    };
    let specs: Vec<&RunSpec> = batches.iter().flatten().collect();

    // The sweep layer: key derivation, then a cold, a memo-warm and a
    // disk-warm pass over the workload's requests.
    spans.begin("sweep.key");
    let t = Instant::now();
    let keys: Vec<String> = specs.iter().map(|rs| rs.cache_key()).collect();
    let key_s = t.elapsed().as_secs_f64();
    spans.end();
    let dir = out_dir()?.join(format!("cache-{}-traced", std::process::id()));
    let opts = SweepOptions { workers: 1, disk_cache: Some(dir.clone()) };
    sweep::clear_memo();
    let (cold, cold_stats, _) = sweep_pass(&batches, &opts, "cold", &mut spans);
    let (memo, _, memo_s) = sweep_pass(&batches, &opts, "memo", &mut spans);
    if let Some(tables) = &tables {
        let golden = std::fs::read_to_string(figures::golden_path()).map_err(|e| format!("golden: {e}"))?;
        let text = figures::render_all(tables, &opts);
        tally.record("figures vs golden", crate::check_golden(&text, &golden));
    }
    sweep::clear_memo();
    let (disk, disk_stats, disk_s) = sweep_pass(&batches, &opts, "disk", &mut spans);
    let _ = std::fs::remove_dir_all(&dir);
    tally.record("sweep memo pass", same_outcomes(&memo, &cold));
    tally.record("sweep disk pass", same_outcomes(&disk, &cold));
    if let Some(r) = &reference {
        tally.record("sweep cold pass vs reference", compare_exp(&cold[0], &r.exp));
    }

    // The workload's distinct cells, each with the outcome the sweep
    // produced for it, then an untimed warm-up pass that pins down each
    // cell's full outcome (instructions included).
    let mut seen = HashSet::new();
    let cells: Vec<(&RunSpec, &String)> = specs
        .iter()
        .zip(&keys)
        .zip(&cold)
        .filter(|((_, k), _)| seen.insert(*k))
        .map(|((rs, _), o)| (*rs, o))
        .collect();
    let mut expected: Vec<Option<Outcome>> = Vec::new();
    for (rs, exp) in &cells {
        let depth = spans.depth();
        spans.begin("rep");
        let rep = guarded(|| run_rep(rs, &mut spans));
        spans.unwind_to(depth + 1);
        spans.end_with(vec![("variant".into(), Json::from("warm-up"))]);
        let check = rep.and_then(|r| {
            compare_exp(&r.outcome.exp, exp)?;
            if let Some(want) = &reference {
                compare(&r.outcome, want)?;
            }
            Ok(r.outcome)
        });
        expected.push(check.as_ref().ok().cloned());
        tally.record("warm-up", check.map(|_| ()));
    }

    let mut passes: [Vec<Pass>; 4] = Default::default();
    loop {
        for (v, (name, hostobs, flip)) in VARIANTS.iter().enumerate() {
            let mut pass = Pass::default();
            spans.begin("pass");
            for (i, ((rs, _), want)) in cells.iter().zip(&expected).enumerate() {
                let rs = variant(rs, *hostobs, *flip);
                let depth = spans.depth();
                spans.begin("rep");
                let rep = guarded(|| run_rep(&rs, &mut spans));
                spans.unwind_to(depth + 1);
                let mut args = vec![
                    ("variant".to_string(), Json::from(*name)),
                    ("cell".to_string(), Json::U64(i as u64)),
                ];
                if let Some(h) = rep.as_ref().ok().and_then(|r| r.result.host.as_ref()) {
                    args.extend(h.cats.iter().map(|c| (format!("{}_ns", c.name), Json::U64(c.nanos))));
                }
                spans.end_with(args);
                let check = rep.and_then(|r| match want {
                    Some(w) => compare(&r.outcome, w).map(|_| r),
                    None => Err("no expected outcome: the warm-up failed".into()),
                });
                if let Ok(r) = &check {
                    pass.add(r);
                }
                tally.record(name, check.map(|_| ()));
            }
            spans.end_with(vec![("variant".into(), Json::from(*name))]);
            passes[v].push(pass);
        }
        host.calibrate();
        if Instant::now() >= deadline {
            break;
        }
    }

    print_self_times(&spans);
    let trace = out_dir()?.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&trace, spans.chrome_trace(workload.name()).render())
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    println!("trace: {}", trace.display());

    let med = |v: usize, f: &dyn Fn(&Pass) -> f64| median(&passes[v].iter().map(f).collect::<Vec<_>>());
    let (obs_plain, obs_host, unobs_plain) = if base_observed { (0, 1, 2) } else { (2, 3, 0) };
    let p = &passes[0][0];
    let events = p.events as f64;
    let run_s = med(0, &|p| p.run_s);
    let cells_n = specs.len() as f64;
    let mut m: Vec<Metric> = vec![
        ("sweep.key_s".into(), key_s, "s"),
        ("sweep.pass_memo_s".into(), memo_s, "s"),
        ("sweep.pass_disk_s".into(), disk_s, "s"),
        ("sweep.cells".into(), cells_n, "count"),
        ("sweep.cells_simulated".into(), cold_stats.simulated as f64, "count"),
        ("sweep.cells_from_memory".into(), cold_stats.from_memory as f64, "count"),
        ("sweep.cells_from_disk".into(), disk_stats.from_disk as f64, "count"),
        ("sweep.memo_hit_ratio".into(), ratio(cold_stats.from_memory as f64, cells_n), "ratio"),
        ("kernels.install_s".into(), med(0, &|p| p.install_s), "s"),
        ("kernels.verify_s".into(), med(0, &|p| p.verify_s), "s"),
        ("machine.new_s".into(), med(0, &|p| p.new_s), "s"),
        ("setup.allocs".into(), p.setup_allocs as f64, "count"),
        ("machine.run_s".into(), run_s, "s"),
        ("machine.events".into(), events, "count"),
        ("machine.events_per_s".into(), ratio(events, run_s), "1/s"),
        ("machine.ns_per_event".into(), ratio(run_s * 1e9, events), "ns"),
        ("machine.sim_instr_per_s".into(), ratio(p.instructions as f64, run_s), "1/s"),
        ("machine.allocs_per_event".into(), ratio(p.run_allocs as f64, events), "ratio"),
        ("machine.alloc_bytes_per_event".into(), ratio(p.run_bytes as f64, events), "B"),
    ];
    for (layer, cat) in CATEGORIES {
        let v = if layer == "stats.sample" { obs_host } else { 1 };
        let h = &passes[v][0];
        m.push((format!("{layer}.calls"), h.cat(cat).0 as f64, "count"));
        m.push((format!("{layer}.ns"), med(v, &|p| p.cat(cat).1 as f64), "ns"));
        if layer != "stats.sample" {
            m.push((
                format!("{layer}.share"),
                med(v, &|p| ratio(p.cat(cat).1 as f64, p.host_wall_ns as f64)),
                "ratio",
            ));
        }
    }
    let obs_run = med(obs_plain, &|p| p.run_s);
    let unobs_run = med(unobs_plain, &|p| p.run_s);
    let mut walls: Vec<f64> = passes[0].iter().map(|p| p.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let p90 = walls[((walls.len() as f64 * 0.9).ceil() as usize).clamp(1, walls.len()) - 1];
    let (misses, updates) = (p.misses, p.updates);
    let total_updates: u64 = updates.iter().sum();
    m.extend([
        ("engine.peak_depth".into(), passes[1][0].peak_depth as f64, "count"),
        ("engine.far_spills".into(), passes[1][0].far_spills as f64, "count"),
        ("net.messages".into(), p.messages as f64, "count"),
        ("net.flits".into(), p.flits as f64, "count"),
        ("net.hops_per_message".into(), ratio(p.hops as f64, p.messages as f64), "ratio"),
        ("stats.obs_ratio".into(), ratio(obs_run, unobs_run), "ratio"),
        ("stats.obs_ns_per_event".into(), ratio((obs_run - unobs_run) * 1e9, events), "ns"),
        (
            "stats.obs_allocs_per_event".into(),
            ratio(passes[obs_plain][0].run_allocs as f64 - passes[unobs_plain][0].run_allocs as f64, events),
            "ratio",
        ),
        ("trace.hostobs_ratio".into(), ratio(med(1, &|p| p.run_s), run_s), "ratio"),
        ("rep.wall_p90_s".into(), p90, "s"),
        ("rep.samples".into(), walls.len() as f64, "count"),
        ("sim.cycles".into(), p.cycles as f64, "count"),
        ("sim.instructions".into(), p.instructions as f64, "count"),
    ]);
    for (name, v) in ["cold", "true", "false", "evict", "drop", "excl"].iter().zip(misses) {
        m.push((format!("proto.misses.{name}"), v as f64, "count"));
    }
    for (name, v) in ["useful", "false", "prolif", "repl", "end", "drop"].iter().zip(updates) {
        m.push((format!("proto.updates.{name}"), v as f64, "count"));
    }
    m.push(("proto.useful_update_ratio".into(), ratio(updates[0] as f64, total_updates as f64), "ratio"));
    Ok((tally, m))
}

fn print_self_times(spans: &Spans) {
    println!("{:<16}{:>8}{:>14}{:>14}", "span", "count", "total_ms", "self_ms");
    for (name, (count, total, own)) in spans.self_times() {
        println!("{name:<16}{count:>8}{:>14.3}{:>14.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
}
