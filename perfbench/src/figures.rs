//! Figures 8–16 exactly as `all_figures --quick` renders them at
//! `PPC_SCALE=0.25`: latency tables over 1/2/4 processors, traffic tables
//! at 4. The rendered text is byte-compared with the repository's golden.

use std::path::{Path, PathBuf};

use kernels::runner::KernelSpec;
use ppc_bench::sweep::{RunSpec, SweepOptions};
use sim_proto::Protocol;

type Rows = Vec<(String, KernelSpec, Protocol)>;

const PROCS: [usize; 3] = [1, 2, 4];
const TRAFFIC_AT: usize = 4;

/// The golden output every rendering must match byte for byte.
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden/all_figures_quick.txt")
}

/// One figure's table.
pub enum Table {
    Latency(String, Rows),
    Miss(String, Rows),
    Update(String, Rows),
}

/// `n` at a quarter of the paper's count, with the harness's floor
/// (`ppc_bench::scaled` under `PPC_SCALE=0.25`).
fn quarter(n: u32) -> u32 {
    ((n as f64 * 0.25) as u32).max(64)
}

/// The row builders give full-scale workloads when `PPC_SCALE` is unset,
/// which the benchmark ensures; scale them to the golden's quarter.
fn quarter_rows(rows: Rows) -> Rows {
    rows.into_iter()
        .map(|(label, kernel, proto)| {
            let kernel = match kernel {
                KernelSpec::Lock(mut w) => {
                    w.total_acquires = quarter(w.total_acquires);
                    KernelSpec::Lock(w)
                }
                KernelSpec::Barrier(mut w) => {
                    w.episodes = quarter(w.episodes);
                    KernelSpec::Barrier(w)
                }
                KernelSpec::Reduction(mut w) => {
                    w.episodes = quarter(w.episodes);
                    KernelSpec::Reduction(w)
                }
            };
            (label, kernel, proto)
        })
        .collect()
}

/// The nine tables in `all_figures` order.
pub fn tables() -> Vec<Table> {
    use ppc_bench::*;
    let at = TRAFFIC_AT;
    vec![
        Table::Latency(
            "Figure 8: spin-lock acquire-release latency (cycles)".into(),
            quarter_rows(lock_rows()),
        ),
        Table::Miss(
            format!("Figure 9: spin-lock miss traffic at {at} processors"),
            quarter_rows(lock_rows()),
        ),
        Table::Update(
            format!("Figure 10: spin-lock update traffic at {at} processors"),
            quarter_rows(lock_update_rows()),
        ),
        Table::Latency("Figure 11: barrier episode latency (cycles)".into(), quarter_rows(barrier_rows())),
        Table::Miss(
            format!("Figure 12: barrier miss traffic at {at} processors"),
            quarter_rows(barrier_rows()),
        ),
        Table::Update(
            format!("Figure 13: barrier update traffic at {at} processors"),
            quarter_rows(barrier_update_rows()),
        ),
        Table::Latency("Figure 14: reduction latency (cycles)".into(), quarter_rows(reduction_rows())),
        Table::Miss(
            format!("Figure 15: reduction miss traffic at {at} processors"),
            quarter_rows(reduction_rows()),
        ),
        Table::Update(
            format!("Figure 16: reduction update traffic at {at} processors"),
            quarter_rows(reduction_update_rows()),
        ),
    ]
}

/// Renders every table through the sweep harness, as `all_figures` does.
pub fn render_all(tables: &[Table], opts: &SweepOptions) -> String {
    tables
        .iter()
        .map(|t| match t {
            Table::Latency(title, rows) => ppc_bench::render_latency_table(title, rows, &PROCS, opts).0,
            Table::Miss(title, rows) => ppc_bench::render_miss_table(title, rows, TRAFFIC_AT, opts),
            Table::Update(title, rows) => ppc_bench::render_update_table(title, rows, TRAFFIC_AT, opts),
        })
        .collect()
}

/// The cell requests of each table, in the order its renderer submits
/// them as one sweep batch.
pub fn batches(tables: &[Table]) -> Vec<Vec<RunSpec>> {
    tables
        .iter()
        .map(|t| match t {
            Table::Latency(_, rows) => rows
                .iter()
                .flat_map(|(_, kernel, proto)| PROCS.iter().map(|&p| RunSpec::paper(p, *proto, *kernel)))
                .collect(),
            Table::Miss(_, rows) | Table::Update(_, rows) => {
                rows.iter().map(|(_, kernel, proto)| RunSpec::paper(TRAFFIC_AT, *proto, *kernel)).collect()
            }
        })
        .collect()
}
