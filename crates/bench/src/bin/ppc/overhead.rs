//! `ppc overhead [procs] [--max-ratio R] [--checkpoint-max-ratio R]`:
//! host-side cost of the observability layer. Runs every diagnostic
//! kernel under all three protocols twice — once bare
//! (`MachineConfig::paper`) and once fully observed
//! (`MachineConfig::paper_observed`: stall accounting, sampling, lineage,
//! and the episode profiler) — and reports the wall-clock overhead ratio
//! as JSON. Each cell is timed once.
//!
//! Along the way it asserts the zero-cost contract: every cell must
//! simulate the identical cycle and instruction counts with observability
//! on and off (the markers and collectors may not perturb timing), and
//! dispatch exactly as many events (samples are not events, so both runs
//! share one event stream).
//!
//! The run also measures the time-travel layer: every cell re-runs
//! obs-off with periodic deterministic checkpoints at each cadence in
//! [`CHECKPOINT_CADENCES`], reporting the wall-clock ratio against the
//! bare runs plus snapshot counts and sizes. Cycle and event-count
//! equality are asserted for these cells too (checkpointing may not
//! perturb the simulation).
//!
//! `--max-ratio` fails the run when obs-on wall-clock exceeds that
//! multiple of obs-off; `--checkpoint-max-ratio` gates the *densest*
//! cadence's ratio the same way.

use std::time::Instant;

use kernels::runner::install_run_verify;
use ppc_bench::observed::{kernel_by_name, protocol_name, KERNEL_NAMES};
use ppc_bench::PROTOCOLS;
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_stats::Json;

use crate::Ctx;

/// Checkpoint cadences measured, in dispatched events (epoch-aligned:
/// multiples of the default 8192-event fingerprint epoch). Densest first
/// so the gated worst case is the first row.
const CHECKPOINT_CADENCES: [u64; 3] = [8192, 32768, 131072];

/// Builds a machine from `cfg` and runs kernel `name` on it, timing both.
fn timed(name: &str, cfg: MachineConfig) -> (RunResult, f64, Machine) {
    let kernel = kernel_by_name(name).expect("listed kernel resolves");
    let t = Instant::now();
    let mut m = Machine::new(cfg);
    let r = install_run_verify(&mut m, &kernel, true, Machine::run);
    (r, t.elapsed().as_secs_f64(), m)
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let procs = ctx.procs;
    let max_ratio = ctx.args.ratio_opt("--max-ratio")?;
    let checkpoint_max_ratio = ctx.args.ratio_opt("--checkpoint-max-ratio")?;

    let mut rows = Vec::new();
    // Each bare cell's cycles and dispatched events, in cell order.
    let mut bare_runs = Vec::new();
    let (mut off_total, mut on_total) = (0.0_f64, 0.0_f64);
    for name in KERNEL_NAMES {
        for protocol in PROTOCOLS {
            let (bare, off_s, bare_m) = timed(name, MachineConfig::paper(procs, protocol));
            let (observed, on_s, observed_m) = timed(name, MachineConfig::paper_observed(procs, protocol));
            assert_eq!(
                (bare.cycles, bare.instructions, bare_m.events_dispatched()),
                (observed.cycles, observed.instructions, observed_m.events_dispatched()),
                "{name}/{}: observability must not perturb the simulation or its event stream",
                protocol_name(protocol)
            );
            off_total += off_s;
            on_total += on_s;
            bare_runs.push((bare.cycles, bare_m.events_dispatched()));
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
    // deterministic snapshots at each cadence.
    let mut cadence_rows = Vec::new();
    let mut densest_ratio = None;
    for every in CHECKPOINT_CADENCES {
        let mut wall = 0.0_f64;
        let (mut count, mut bytes_total, mut bytes_max) = (0u64, 0u64, 0u64);
        let cells = KERNEL_NAMES.iter().flat_map(|&name| PROTOCOLS.map(|protocol| (name, protocol)));
        for ((name, protocol), &bare) in cells.zip(&bare_runs) {
            let cfg = MachineConfig::paper(procs, protocol).with_checkpoints(every);
            let (r, cell_s, mut m) = timed(name, cfg);
            assert_eq!(
                (r.cycles, m.events_dispatched()),
                bare,
                "{name}/{}: checkpointing must not perturb the simulation or its event stream",
                protocol_name(protocol)
            );
            let sizes: Vec<u64> = m.take_checkpoints().iter().map(|c| c.blob.len() as u64).collect();
            wall += cell_s;
            count += sizes.len() as u64;
            bytes_total += sizes.iter().sum::<u64>();
            bytes_max = bytes_max.max(sizes.iter().copied().max().unwrap_or(0));
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
    let mut failed = Vec::new();
    if let Some(max) = max_ratio {
        if ratio > max {
            failed.push(format!("obs-on overhead {ratio:.2}x exceeds the {max:.2}x threshold"));
        } else {
            eprintln!("obs-on overhead {ratio:.2}x within the {max:.2}x threshold");
        }
    }
    if let (Some(max), Some(densest)) = (checkpoint_max_ratio, densest_ratio) {
        if densest > max {
            failed.push(format!(
                "checkpoint overhead {densest:.2}x at the densest cadence exceeds the {max:.2}x threshold"
            ));
        } else {
            eprintln!("checkpoint overhead {densest:.2}x within the {max:.2}x threshold");
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("\n"))
    }
}
