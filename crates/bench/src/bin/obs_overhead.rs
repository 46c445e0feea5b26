//! Host-side cost of the observability layer: runs every diagnostic kernel
//! under all three protocols twice — once bare (`MachineConfig::paper`)
//! and once fully observed (`MachineConfig::paper_observed`: stall
//! accounting, sampling, lineage, and the episode profiler) — and reports
//! the wall-clock overhead ratio as JSON.
//!
//! Along the way it asserts the zero-cost contract: every cell must
//! simulate the identical cycle and instruction counts with observability
//! on and off (the markers and collectors may not perturb timing).
//!
//! Usage: `obs_overhead [procs] [max_ratio]` (defaults: `8`, no limit).
//! With `max_ratio` set, exits nonzero when obs-on wall-clock exceeds
//! `max_ratio` × obs-off — the CI regression guard. The threshold can also
//! come from `PPC_OBS_MAX_RATIO` (the CLI argument wins), and
//! `PPC_OBS_REPEATS` repeats each timing cell, keeping the fastest of N —
//! both validated through [`ppc_bench::env_cfg`]. Workloads honor
//! `PPC_SCALE`. The committed `BENCH_obs.json` records a measured run.
//!
//! The run also measures the time-travel layer: every cell re-runs
//! obs-off with periodic deterministic checkpoints at each cadence in
//! [`CHECKPOINT_CADENCES`], reporting the wall-clock ratio against the
//! bare runs plus snapshot counts and sizes. Cycle/instruction equality
//! is asserted for these cells too (checkpointing may not perturb the
//! simulation). `PPC_CHECKPOINT_MAX_RATIO` gates the *densest* cadence's
//! ratio the same way `max_ratio` gates obs-on.

use std::process::ExitCode;
use std::time::Instant;

use ppc_bench::env_cfg;
use ppc_bench::observed::{kernel_by_name, protocol_name, run_kernel, DiagArgs, KERNEL_NAMES};
use ppc_bench::PROTOCOLS;
use sim_machine::{Machine, MachineConfig};
use sim_stats::Json;

/// Checkpoint cadences measured, in dispatched events (epoch-aligned:
/// multiples of the default 8192-event fingerprint epoch). Densest first
/// so the gated worst case is the first row.
const CHECKPOINT_CADENCES: [u64; 3] = [8192, 32768, 131072];

fn main() -> ExitCode {
    let args = match DiagArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}; usage: obs_overhead [procs] [max_ratio]");
            return ExitCode::FAILURE;
        }
    };
    let procs = match args.count_or(0, 8) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Threshold precedence: CLI argument, then PPC_OBS_MAX_RATIO, then no
    // limit. Both sources reject garbage instead of ignoring it.
    let cli_ratio = match args.positional.get(1) {
        None => None,
        Some(s) => match env_cfg::parse_positive_f64("max_ratio", Some(s)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let env_ratio = match env_cfg::parse_positive_f64(
        "PPC_OBS_MAX_RATIO",
        std::env::var("PPC_OBS_MAX_RATIO").ok().as_deref(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let max_ratio = cli_ratio.or(env_ratio);
    let repeats =
        match env_cfg::parse_count("PPC_OBS_REPEATS", std::env::var("PPC_OBS_REPEATS").ok().as_deref()) {
            Ok(n) => n.unwrap_or(1),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };

    let mut rows = Vec::new();
    let (mut off_total, mut on_total) = (0.0_f64, 0.0_f64);
    for name in KERNEL_NAMES {
        let kernel = kernel_by_name(name).expect("listed kernel resolves");
        for protocol in PROTOCOLS {
            // Best-of-N timing: repeats damp scheduler noise on loaded CI
            // hosts; the simulated results are identical each time.
            let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
            let (mut bare, mut observed) = (None, None);
            for _ in 0..repeats {
                let t0 = Instant::now();
                let b = run_kernel(&mut Machine::new(MachineConfig::paper(procs, protocol)), &kernel);
                off_s = off_s.min(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                let o =
                    run_kernel(&mut Machine::new(MachineConfig::paper_observed(procs, protocol)), &kernel);
                on_s = on_s.min(t1.elapsed().as_secs_f64());
                bare = Some(b);
                observed = Some(o);
            }
            let (bare, observed) = (bare.expect("repeats >= 1"), observed.expect("repeats >= 1"));
            assert_eq!(
                (bare.cycles, bare.instructions),
                (observed.cycles, observed.instructions),
                "{name}/{}: observability must not perturb the simulation",
                protocol_name(protocol)
            );
            off_total += off_s;
            on_total += on_s;
            rows.push(Json::obj([
                ("kernel", Json::from(name)),
                ("protocol", Json::from(protocol_name(protocol))),
                ("cycles", Json::U64(bare.cycles)),
                ("obs_off_ms", Json::from(off_s * 1e3)),
                ("obs_on_ms", Json::from(on_s * 1e3)),
            ]));
        }
    }

    // Checkpoint overhead: the same cells, obs-off, with periodic
    // deterministic snapshots at each cadence. Best-of-N like the obs
    // timing; snapshot counts and sizes are identical each repeat.
    let checkpoint_max_ratio = match env_cfg::parse_positive_f64(
        "PPC_CHECKPOINT_MAX_RATIO",
        std::env::var("PPC_CHECKPOINT_MAX_RATIO").ok().as_deref(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cadence_rows = Vec::new();
    let mut densest_ratio = None;
    for every in CHECKPOINT_CADENCES {
        let mut wall = 0.0_f64;
        let (mut count, mut bytes_total, mut bytes_max) = (0u64, 0u64, 0u64);
        for name in KERNEL_NAMES {
            let kernel = kernel_by_name(name).expect("listed kernel resolves");
            for protocol in PROTOCOLS {
                let mut cell_s = f64::INFINITY;
                let mut cell_sizes: Vec<u64> = Vec::new();
                for _ in 0..repeats {
                    let cfg = MachineConfig::paper(procs, protocol).with_checkpoints(every);
                    let mut m = Machine::new(cfg);
                    let t = Instant::now();
                    let r = run_kernel(&mut m, &kernel);
                    cell_s = cell_s.min(t.elapsed().as_secs_f64());
                    let bare = rows
                        .iter()
                        .find(|row| {
                            row.get("kernel").and_then(Json::as_str) == Some(name)
                                && row.get("protocol").and_then(Json::as_str) == Some(protocol_name(protocol))
                        })
                        .and_then(|row| row.get("cycles"))
                        .and_then(Json::as_u64)
                        .expect("bare cell was measured");
                    assert_eq!(
                        r.cycles,
                        bare,
                        "{name}/{}: checkpointing must not perturb the simulation",
                        protocol_name(protocol)
                    );
                    cell_sizes = m.take_checkpoints().iter().map(|c| c.blob.len() as u64).collect();
                }
                wall += cell_s;
                count += cell_sizes.len() as u64;
                bytes_total += cell_sizes.iter().sum::<u64>();
                bytes_max = bytes_max.max(cell_sizes.iter().copied().max().unwrap_or(0));
            }
        }
        let ratio = wall / off_total.max(1e-9);
        densest_ratio.get_or_insert(ratio);
        cadence_rows.push(Json::obj([
            ("checkpoint_every", Json::U64(every)),
            ("wall_seconds", Json::from(wall)),
            ("ratio_vs_off", Json::from(ratio)),
            ("checkpoints", Json::U64(count)),
            ("snapshot_bytes_total", Json::U64(bytes_total)),
            ("snapshot_bytes_max", Json::U64(bytes_max)),
            (
                "snapshot_bytes_mean",
                Json::from(if count == 0 { 0.0 } else { bytes_total as f64 / count as f64 }),
            ),
        ]));
    }

    let ratio = on_total / off_total.max(1e-9);
    let doc = Json::obj([
        ("procs", Json::from(procs)),
        ("cells", Json::from(rows.len())),
        ("repeats", Json::from(repeats)),
        ("obs_off_seconds", Json::from(off_total)),
        ("obs_on_seconds", Json::from(on_total)),
        ("overhead_ratio", Json::from(ratio)),
        ("max_ratio", max_ratio.map(Json::from).unwrap_or(Json::Null)),
        (
            "checkpoint",
            Json::obj([
                ("baseline_off_seconds", Json::from(off_total)),
                ("max_ratio", checkpoint_max_ratio.map(Json::from).unwrap_or(Json::Null)),
                ("cadences", Json::Arr(cadence_rows)),
            ]),
        ),
        ("runs", Json::Arr(rows)),
    ]);
    println!("{}", doc.canonical().render_pretty());
    let mut failed = false;
    if let Some(max) = max_ratio {
        if ratio > max {
            eprintln!("obs-on overhead {ratio:.2}x exceeds the {max:.2}x threshold");
            failed = true;
        } else {
            eprintln!("obs-on overhead {ratio:.2}x within the {max:.2}x threshold");
        }
    }
    if let (Some(max), Some(densest)) = (checkpoint_max_ratio, densest_ratio) {
        if densest > max {
            eprintln!(
                "checkpoint overhead {densest:.2}x at the densest cadence exceeds the {max:.2}x threshold"
            );
            failed = true;
        } else {
            eprintln!("checkpoint overhead {densest:.2}x within the {max:.2}x threshold");
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
