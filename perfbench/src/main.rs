//! The repository benchmark: four workloads from the paper's §4
//! experiments, timed end to end with one thread, every repetition checked
//! against a reference; `--trace 1` instead prints per-layer metrics from a
//! separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wi-ticket --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod alloc;
mod cells;
mod figures;
mod host;
mod spans;
mod traced;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use cells::{compare, guarded, run_rep, CellWorkload, Outcome, Tally};
use host::Host;
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use spans::Spans;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// What one benchmark run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 8–16 as `all_figures --quick` renders them.
    Figures,
    /// One paper cell, many times over.
    Cell(CellWorkload),
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("figures-quick", Workload::Figures),
    ("wi-ticket", Workload::Cell(CellWorkload { cell: "wi-ticket", observed: false })),
    ("pu-central-barrier", Workload::Cell(CellWorkload { cell: "pu-central-barrier", observed: false })),
    ("wi-ticket-observed", Workload::Cell(CellWorkload { cell: "wi-ticket", observed: true })),
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        WORKLOADS.iter().find(|(_, w)| *w == self).map(|(n, _)| *n).expect("every workload is listed")
    }
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perfbench --workload <cell workload> --seed <n> --print-reference
workloads: figures-quick, wi-ticket, pu-central-barrier, wi-ticket-observed";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut print_reference) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            print_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number of seconds"))?;
                seconds = Some(if s.is_finite() && s >= 0.0 { s } else { return Err(bad("seconds >= 0")) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if print_reference {
        return Ok(Args { workload, seed, seconds: 0.0, trace: false, print_reference });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        print_reference,
    })
}

/// `PPC_*` variables set in the environment. The harness reads several of
/// them when it builds a cell (`PPC_SCALE`, `PPC_HOSTOBS`, `PPC_SHARDS`,
/// `PPC_FP_EPOCH`, `PPC_CHECKPOINT_EVERY`, `PPC_PAROBS`, ...), which would
/// silently change what is measured, so the benchmark refuses them all.
fn ppc_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.to_str().filter(|k| k.starts_with("PPC_")).map(str::to_string))
        .collect()
}

/// Where the benchmark writes its trace and its private sweep caches.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `Ok` when `text` is byte-identical to `golden`, else the first line
/// that differs.
pub fn check_golden(text: &str, golden: &str) -> Result<(), String> {
    if text == golden {
        return Ok(());
    }
    let (n, got, want) = text
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| (i + 1, g, w))
        .unwrap_or((text.lines().count().min(golden.lines().count()) + 1, "<end>", "<end>"));
    Err(format!("figures differ from the golden at line {n}: {got:?} != {want:?}"))
}

/// Samples from the timed repetitions.
#[derive(Default)]
struct Timed {
    tally: Tally,
    wall: Vec<f64>,
    setup: Vec<f64>,
}

/// Records the untimed `warm_up`, then runs `rep` (returning wall and
/// set-up seconds) until `seconds` have passed, at least once, with the
/// calibration loop after each repetition.
fn timed(
    seconds: f64,
    host: &mut Host,
    warm_up: Result<(), String>,
    mut rep: impl FnMut() -> Result<(f64, f64), String>,
) -> Timed {
    let mut t = Timed::default();
    t.tally.record("warm-up", warm_up);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let r = rep();
        if let Ok((wall, setup)) = r {
            t.wall.push(wall);
            t.setup.push(setup);
        }
        t.tally.record("repetition", r.map(|_| ()));
        host.calibrate();
        if Instant::now() >= deadline {
            return t;
        }
    }
}

/// Times `rs`. Each repetition is checked against `reference`, or,
/// without one, against the warm-up's outcome after the warm-up itself
/// passed `verify`.
fn timed_cell(rs: &RunSpec, reference: Option<Outcome>, seconds: f64, host: &mut Host) -> Timed {
    let mut spans = Spans::off();
    let mut expected = reference;
    let warm = guarded(|| run_rep(rs, &mut spans)).and_then(|rep| match &expected {
        Some(want) => compare(&rep.outcome, want),
        None => {
            expected = Some(rep.outcome);
            Ok(())
        }
    });
    timed(seconds, host, warm, || {
        let rep = guarded(|| run_rep(rs, &mut spans))?;
        match &expected {
            Some(want) => compare(&rep.outcome, want).map(|_| (rep.wall_s(), rep.setup_s())),
            None => Err("no expected outcome: the warm-up failed".into()),
        }
    })
}

/// One figures repetition: a cold render into a fresh private disk cache
/// after clearing the memo table (wall), then a memo-warm re-render
/// (set-up), both byte-compared with the golden.
fn figures_rep(tables: &[figures::Table], golden: &str, n: usize) -> Result<(f64, f64), String> {
    let dir = out_dir()?.join(format!("cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions { workers: 1, disk_cache: Some(dir.clone()) };
    sweep::clear_memo();
    let r = guarded(|| {
        let t0 = Instant::now();
        let cold = figures::render_all(tables, &opts);
        let wall = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let warm = figures::render_all(tables, &opts);
        (cold, warm, wall, t1.elapsed().as_secs_f64())
    });
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm, wall, setup) = r?;
    check_golden(&cold, golden)?;
    check_golden(&warm, golden)?;
    Ok((wall, setup))
}

fn timed_figures(seconds: f64, host: &mut Host) -> Result<Timed, String> {
    let golden = std::fs::read_to_string(figures::golden_path())
        .map_err(|e| format!("{}: {e}", figures::golden_path().display()))?;
    let tables = figures::tables();
    let warm = figures_rep(&tables, &golden, 0).map(|_| ());
    let mut n = 0;
    Ok(timed(seconds, host, warm, || {
        n += 1;
        figures_rep(&tables, &golden, n)
    }))
}

fn print_result(tally: Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    exit(2)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")));
    let set = ppc_env();
    if !set.is_empty() {
        fail(&format!(
            "refusing to run with {} set: PPC_* variables change what the harness simulates",
            set.join(", ")
        ));
    }
    if args.print_reference {
        let Workload::Cell(w) = args.workload else { fail("--print-reference needs a single-cell workload") };
        let rep = run_rep(&w.spec(args.seed), &mut Spans::off());
        println!("{}", w.reference_line(args.seed, &rep.outcome));
        return;
    }

    let mut host = Host::start();
    let (tally, metrics) = if args.trace {
        let (tally, mut m) =
            traced::run(args.workload, args.seed, args.seconds, &mut host).unwrap_or_else(|e| fail(&e));
        m.extend(host.metrics());
        (tally, m)
    } else {
        let t = match args.workload {
            Workload::Figures => timed_figures(args.seconds, &mut host).unwrap_or_else(|e| fail(&e)),
            Workload::Cell(w) => {
                timed_cell(&w.spec(args.seed), w.reference(args.seed), args.seconds, &mut host)
            }
        };
        let m: Vec<Metric> = vec![
            ("wall_s".into(), median(&t.wall), "s"),
            ("setup_s".into(), median(&t.setup), "s"),
            ("peak_rss_mb".into(), host::peak_rss_mb(), "MB"),
        ];
        for (name, value, unit) in host.metrics() {
            println!("{name}: {value} {unit}");
        }
        println!("repetitions timed: {}", t.wall.len());
        (t.tally, m)
    };
    print_result(tally, &metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_reference_fails_every_op_without_a_crash() {
        let rs = cells::tiny_spec();
        let mut reference = run_rep(&rs, &mut Spans::off()).outcome;
        let mut host = Host::start();
        let t = timed_cell(&rs, Some(reference.clone()), 0.0, &mut host);
        assert_eq!((t.tally.attempted, t.tally.failed), (2, 0));
        reference.exp = reference.exp.replacen("cycles=", "cycles=9", 1);
        let t = timed_cell(&rs, Some(reference), 0.0, &mut host);
        assert_eq!((t.tally.attempted, t.tally.failed), (2, 2));
        assert!(t.wall.is_empty());
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload wi-ticket --seed 3 --seconds 10 --trace 1").unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 10.0);
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload wi-ticket --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload wi-ticket --seed 3 --trace 0").is_err());
        for (name, _) in WORKLOADS {
            assert_eq!(Workload::parse(name).unwrap().name(), name);
        }
    }

    #[test]
    fn golden_mismatch_names_the_line() {
        assert_eq!(check_golden("a\nb\n", "a\nb\n"), Ok(()));
        let err = check_golden("a\nx\n", "a\nb\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
