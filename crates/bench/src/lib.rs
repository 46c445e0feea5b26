//! Experiment harness shared by the two bench binaries.
//!
//! `all_figures` prints every table and figure of the paper's evaluation
//! section; with no argument it prints Figures 8–16, and
//! `all_figures <table>...` prints the named tables:
//!
//! | table | reproduces |
//! |---|---|
//! | `fig08_lock_latency` | Figure 8: lock acquire–release latency vs. P |
//! | `fig09_lock_misses` | Figure 9: lock miss traffic at 32 processors |
//! | `fig10_lock_updates` | Figure 10: lock update traffic at 32 processors |
//! | `fig11_barrier_latency` | Figure 11: barrier episode latency vs. P |
//! | `fig12_barrier_misses` | Figure 12: barrier miss traffic at 32 |
//! | `fig13_barrier_updates` | Figure 13: barrier update traffic at 32 |
//! | `fig14_reduction_latency` | Figure 14: reduction latency vs. P |
//! | `fig15_reduction_misses` | Figure 15: reduction miss traffic at 32 |
//! | `fig16_reduction_updates` | Figure 16: reduction update traffic at 32 |
//! | `text_lock_random_delay` | §4.1 reduced-contention lock variant |
//! | `text_lock_proportional` | §4.1 proportional-work lock variant |
//! | `text_reduction_imbalance` | §4.3 load-imbalance reduction variant |
//! | `ablation_*` | design-choice studies listed in DESIGN.md |
//! | `ext_lock_family` | the lock family with TAS, TTAS and Anderson |
//! | `latency_distribution` | stall-time histograms behind Figure 8 |
//! | `traffic_by_structure` | traffic per shared data structure |
//!
//! An unknown table name lists them all. The `ppc` binary is the
//! diagnostics front door: observed-run views, the harness self-profile,
//! protocol diffs, replay, and observation overhead, all documented in
//! docs/OBSERVABILITY.md.
//!
//! Run with `cargo run --release -p ppc-bench --bin all_figures [table...]`.
//! Set `PPC_SCALE` (e.g. `0.1`) to scale iteration counts down for a quick
//! pass; the default is the paper's full workload (32000 lock acquisitions,
//! 5000 barrier/reduction episodes).

pub mod diff;
pub mod env_cfg;
pub mod observed;
pub mod replay;
pub mod sweep;

use kernels::runner::KernelSpec;
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, ReductionKind, ReductionWorkload,
};
use sim_proto::Protocol;
use sweep::{RunSpec, SweepOptions};

/// The protocols in the paper's label order (i, u, c).
pub const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

/// Machine sizes swept by the latency figures.
pub const PROC_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Machine size used by the traffic figures.
pub const TRAFFIC_PROCS: usize = 32;

/// Workload scale factor from the `PPC_SCALE` environment variable
/// (default 1.0 = the paper's full iteration counts). A value that is not
/// a positive finite number is a configuration error, not a silent
/// full-scale run (see [`env_cfg::parse_positive_f64`]).
pub fn scale() -> f64 {
    match env_cfg::parse_positive_f64("PPC_SCALE", std::env::var("PPC_SCALE").ok().as_deref()) {
        Ok(s) => s.unwrap_or(1.0),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// `n` scaled by [`scale`], with a sane floor.
pub fn scaled(n: u32) -> u32 {
    ((n as f64 * scale()) as u32).max(64)
}

/// The paper's lock workload at the current scale.
pub fn lock_workload(kind: LockKind) -> LockWorkload {
    LockWorkload { total_acquires: scaled(32_000), ..LockWorkload::paper(kind) }
}

/// The paper's barrier workload at the current scale.
pub fn barrier_workload(kind: BarrierKind) -> BarrierWorkload {
    BarrierWorkload { episodes: scaled(5_000), ..BarrierWorkload::paper(kind) }
}

/// The paper's reduction workload at the current scale.
pub fn reduction_workload(kind: ReductionKind) -> ReductionWorkload {
    ReductionWorkload { episodes: scaled(5_000), ..ReductionWorkload::paper(kind) }
}

/// Writes `rows` (first row = header) as CSV into `$PPC_CSV_DIR/<name>.csv`
/// when that environment variable is set; otherwise does nothing. Lets the
/// latency tables feed plotting scripts without changing their stdout.
pub fn maybe_csv(name: &str, rows: &[Vec<String>]) {
    let Ok(dir) = std::env::var("PPC_CSV_DIR") else { return };
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    let body: String = rows.iter().map(|r| r.join(",") + "\n").collect();
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Renders a latency table and its CSV rows: one table row per
/// (algorithm, protocol) combination, one column per entry of `procs`.
/// All cells are submitted to the sweep harness as one batch, so worker
/// threads fan out across them; the rendered text is byte-identical to
/// the historical serial `print!` output.
pub fn render_latency_table(
    title: &str,
    rows: &[(String, KernelSpec, Protocol)],
    procs: &[usize],
    opts: &SweepOptions,
) -> (String, Vec<Vec<String>>) {
    let specs: Vec<RunSpec> = rows
        .iter()
        .flat_map(|(_, kernel, protocol)| procs.iter().map(|&p| RunSpec::paper(p, *protocol, *kernel)))
        .collect();
    let outs = sweep::run_specs_with(&specs, opts).0;
    let mut text = format!("\n{title}\n");
    text.push_str(&format!("{:<10}", "combo"));
    for p in procs {
        text.push_str(&format!("{p:>10}"));
    }
    text.push('\n');
    let mut csv: Vec<Vec<String>> =
        vec![std::iter::once("combo".to_string()).chain(procs.iter().map(|p| p.to_string())).collect()];
    for ((label, _, _), outs) in rows.iter().zip(outs.chunks(procs.len())) {
        text.push_str(&format!("{label:<10}"));
        let mut csv_row = vec![label.clone()];
        for out in outs {
            text.push_str(&format!("{:>10.1}", out.avg_latency));
            csv_row.push(format!("{:.1}", out.avg_latency));
        }
        text.push('\n');
        csv.push(csv_row);
    }
    (text, csv)
}

/// Lower-cases and hyphenates a table title into a file stem.
pub fn slug(title: &str) -> String {
    title
        .chars()
        .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

/// Renders a miss-classification table at `procs` processors — the data
/// behind Figures 9, 12, and 15. One sweep batch per table.
pub fn render_miss_table(
    title: &str,
    rows: &[(String, KernelSpec, Protocol)],
    procs: usize,
    opts: &SweepOptions,
) -> String {
    let specs: Vec<RunSpec> =
        rows.iter().map(|(_, kernel, protocol)| RunSpec::paper(procs, *protocol, *kernel)).collect();
    let outs = sweep::run_specs_with(&specs, opts).0;
    let mut text = format!("\n{title}\n");
    text.push_str(&format!(
        "{:<10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "combo", "total", "cold", "true", "false", "evict", "drop", "excl-req"
    ));
    for ((label, _, _), out) in rows.iter().zip(&outs) {
        let m = out.traffic.misses;
        text.push_str(&format!(
            "{:<10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
            label,
            m.total_misses(),
            m.cold,
            m.true_sharing,
            m.false_sharing,
            m.eviction,
            m.drop,
            m.exclusive_requests
        ));
    }
    text
}

/// Renders an update-classification table at `procs` processors — the
/// data behind Figures 10, 13, and 16. (Replacement updates are reported
/// but, as in the paper, never observed.)
pub fn render_update_table(
    title: &str,
    rows: &[(String, KernelSpec, Protocol)],
    procs: usize,
    opts: &SweepOptions,
) -> String {
    let specs: Vec<RunSpec> =
        rows.iter().map(|(_, kernel, protocol)| RunSpec::paper(procs, *protocol, *kernel)).collect();
    let outs = sweep::run_specs_with(&specs, opts).0;
    let mut text = format!("\n{title}\n");
    text.push_str(&format!(
        "{:<10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "combo", "total", "useful", "false", "prolif", "repl", "end", "drop"
    ));
    for ((label, _, _), out) in rows.iter().zip(&outs) {
        let u = out.traffic.updates;
        text.push_str(&format!(
            "{:<10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
            label,
            u.total(),
            u.true_sharing,
            u.false_sharing,
            u.proliferation,
            u.replacement,
            u.termination,
            u.drop
        ));
    }
    text
}

/// Rows for the lock figures: {tk, MCS, uc} × {i, u, c}.
pub fn lock_rows() -> Vec<(String, KernelSpec, Protocol)> {
    let mut rows = Vec::new();
    for kind in [LockKind::Ticket, LockKind::Mcs, LockKind::McsUpdateConscious] {
        for proto in PROTOCOLS {
            rows.push((
                format!("{} {}", kind.label(), proto.label()),
                KernelSpec::Lock(lock_workload(kind)),
                proto,
            ));
        }
    }
    rows
}

/// Rows for the lock figures restricted to the update protocols (Fig 10).
pub fn lock_update_rows() -> Vec<(String, KernelSpec, Protocol)> {
    lock_rows().into_iter().filter(|(_, _, p)| p.is_update_based()).collect()
}

/// Rows for the barrier figures: {cb, db, tb} × {i, u, c}.
pub fn barrier_rows() -> Vec<(String, KernelSpec, Protocol)> {
    let mut rows = Vec::new();
    for kind in [BarrierKind::Centralized, BarrierKind::Dissemination, BarrierKind::Tree] {
        for proto in PROTOCOLS {
            rows.push((
                format!("{} {}", kind.label(), proto.label()),
                KernelSpec::Barrier(barrier_workload(kind)),
                proto,
            ));
        }
    }
    rows
}

/// Barrier rows restricted to the update protocols (Fig 13).
pub fn barrier_update_rows() -> Vec<(String, KernelSpec, Protocol)> {
    barrier_rows().into_iter().filter(|(_, _, p)| p.is_update_based()).collect()
}

/// Rows for the reduction figures: {sr, pr} × {i, u, c}.
pub fn reduction_rows() -> Vec<(String, KernelSpec, Protocol)> {
    let mut rows = Vec::new();
    for kind in [ReductionKind::Sequential, ReductionKind::Parallel] {
        for proto in PROTOCOLS {
            rows.push((
                format!("{} {}", kind.label(), proto.label()),
                KernelSpec::Reduction(reduction_workload(kind)),
                proto,
            ));
        }
    }
    rows
}

/// Reduction rows restricted to the update protocols (Fig 16).
pub fn reduction_update_rows() -> Vec<(String, KernelSpec, Protocol)> {
    reduction_rows().into_iter().filter(|(_, _, p)| p.is_update_based()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builders_cover_all_combinations() {
        assert_eq!(lock_rows().len(), 9);
        assert_eq!(lock_update_rows().len(), 6);
        assert_eq!(barrier_rows().len(), 9);
        assert_eq!(barrier_update_rows().len(), 6);
        assert_eq!(reduction_rows().len(), 6);
        assert_eq!(reduction_update_rows().len(), 4);
    }

    #[test]
    fn scaled_has_floor() {
        // Without PPC_SCALE set the full counts come through.
        assert!(scaled(32_000) >= 64);
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("Figure 8: spin-lock latency (cycles)"), "figure-8-spin-lock-latency-cycles");
        assert_eq!(slug("---"), "");
    }

    #[test]
    fn maybe_csv_writes_when_dir_set() {
        let dir = std::env::temp_dir().join(format!("ppc-csv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("PPC_CSV_DIR", &dir);
        maybe_csv("t", &[vec!["a".into(), "b".into()], vec!["1".into(), "2".into()]]);
        std::env::remove_var("PPC_CSV_DIR");
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
