//! `all_figures` — the evaluation front door. With no argument it prints
//! Figures 8–16 of the paper in sequence; `all_figures <table>...` prints
//! the named tables in the order given instead: the figures, the paper's
//! §4.1/§4.3 text variants, the design-choice ablations listed in
//! DESIGN.md, and three extensions. An unknown name exits 2 and lists
//! every table with a one-line description.
//!
//! `PPC_SCALE=0.1` makes a quick pass; `--quick` additionally caps the
//! figures' machine-size sweep at 4 processors and runs their traffic
//! tables at 4 (the configuration the CI `figures` job diffs against
//! `tests/golden/all_figures_quick.txt` — see docs/HARNESS.md). It
//! applies to the figures only. The latency tables also write
//! `$PPC_CSV_DIR/<title-slug>.csv` when that variable is set.

mod ablations;
mod breakdowns;
mod variants;

use std::process::ExitCode;

use kernels::runner::KernelSpec;
use ppc_bench::sweep::SweepOptions;
use ppc_bench::{
    barrier_rows, barrier_update_rows, lock_rows, lock_update_rows, maybe_csv, reduction_rows,
    reduction_update_rows, render_latency_table, render_miss_table, render_update_table, slug, PROC_SWEEP,
    TRAFFIC_PROCS,
};
use sim_proto::Protocol;

/// Table rows: label, kernel, protocol.
type Rows = Vec<(String, KernelSpec, Protocol)>;

/// How a table is computed and printed.
enum Print {
    /// Latency per row over the machine-size sweep, given the title and
    /// the row builder; also written as `$PPC_CSV_DIR/<title-slug>.csv`.
    Latency(&'static str, fn() -> Rows),
    /// Classified misses per row at the traffic machine size, which the
    /// title gains as " at N processors".
    Misses(&'static str, fn() -> Rows),
    /// Classified updates per row, likewise.
    Updates(&'static str, fn() -> Rows),
    /// A table with a layout of its own.
    Custom(fn(&SweepOptions)),
}

/// One table, asked for by name.
struct Table {
    name: &'static str,
    /// One-line description, for the list of tables.
    about: &'static str,
    print: Print,
}

/// The first `FIGURES` tables are Figures 8–16: what a run with no name
/// prints, and all that `--quick` applies to.
const FIGURES: usize = 9;

const TABLES: [Table; 20] = [
    Table {
        name: "fig08_lock_latency",
        about: "Figure 8: ticket, MCS and update-conscious MCS lock latency vs. P",
        print: Print::Latency("Figure 8: spin-lock acquire-release latency (cycles)", lock_rows),
    },
    Table {
        name: "fig09_lock_misses",
        about: "Figure 9: classified lock miss traffic at 32 processors",
        print: Print::Misses("Figure 9: spin-lock miss traffic", lock_rows),
    },
    Table {
        name: "fig10_lock_updates",
        about: "Figure 10: classified lock update traffic at 32 processors",
        print: Print::Updates("Figure 10: spin-lock update traffic", lock_update_rows),
    },
    Table {
        name: "fig11_barrier_latency",
        about: "Figure 11: centralized, dissemination and tree barrier latency vs. P",
        print: Print::Latency("Figure 11: barrier episode latency (cycles)", barrier_rows),
    },
    Table {
        name: "fig12_barrier_misses",
        about: "Figure 12: classified barrier miss traffic at 32 processors",
        print: Print::Misses("Figure 12: barrier miss traffic", barrier_rows),
    },
    Table {
        name: "fig13_barrier_updates",
        about: "Figure 13: classified barrier update traffic at 32 processors",
        print: Print::Updates("Figure 13: barrier update traffic", barrier_update_rows),
    },
    Table {
        name: "fig14_reduction_latency",
        about: "Figure 14: parallel and sequential reduction latency vs. P",
        print: Print::Latency("Figure 14: reduction latency (cycles)", reduction_rows),
    },
    Table {
        name: "fig15_reduction_misses",
        about: "Figure 15: classified reduction miss traffic at 32 processors",
        print: Print::Misses("Figure 15: reduction miss traffic", reduction_rows),
    },
    Table {
        name: "fig16_reduction_updates",
        about: "Figure 16: classified reduction update traffic at 32 processors",
        print: Print::Updates("Figure 16: reduction update traffic", reduction_update_rows),
    },
    Table {
        name: "text_lock_random_delay",
        about: "§4.1 variant: lock latency with a random post-release delay",
        print: Print::Latency(
            "Section 4.1 variant: lock latency with random post-release delay (cycles)",
            variants::random_delay_rows,
        ),
    },
    Table {
        name: "text_lock_proportional",
        about: "§4.1 variant: lock latency with outside/inside work ratio = P (±10%)",
        print: Print::Custom(variants::proportional),
    },
    Table {
        name: "text_reduction_imbalance",
        about: "§4.3 variant: reduction latency under load imbalance",
        print: Print::Latency(
            "Section 4.3 variant: reduction latency under load imbalance (cycles)",
            variants::imbalance_rows,
        ),
    },
    Table {
        name: "ablation_cu_threshold",
        about: "A1: competitive-update drop threshold (the paper fixes 4)",
        print: Print::Custom(ablations::cu_threshold),
    },
    Table {
        name: "ablation_pu_private",
        about: "A2: pure-update private-data optimization on and off (§3.1)",
        print: Print::Custom(ablations::pu_private),
    },
    Table {
        name: "ablation_write_buffer",
        about: "A3: write-buffer depth (the paper uses 4 entries)",
        print: Print::Custom(ablations::write_buffer),
    },
    Table {
        name: "ablation_uc_flush",
        about: "A4: which side of the update-conscious MCS flush matters",
        print: Print::Custom(ablations::uc_flush),
    },
    Table {
        name: "ablation_counter_layout",
        about: "A6: ticket-lock counters in one cache block vs. one block each",
        print: Print::Custom(ablations::counter_layout),
    },
    Table {
        name: "ext_lock_family",
        about: "extension: latency of the full lock family, with TAS, TTAS and Anderson",
        print: Print::Latency(
            "Extension: full lock family acquire-release latency (cycles)",
            variants::lock_family_rows,
        ),
    },
    Table {
        name: "latency_distribution",
        about: "extension: read-miss and atomic stall histograms behind Figure 8",
        print: Print::Custom(breakdowns::latency_distribution),
    },
    Table {
        name: "traffic_by_structure",
        about: "extension: misses and updates per shared data structure under PU",
        print: Print::Custom(breakdowns::traffic_by_structure),
    },
];

/// Prints `table`: a latency table sweeps `procs`, a traffic table runs
/// at `at` processors, and a custom table picks its own sizes.
fn print(table: &Table, procs: &[usize], at: usize, opts: &SweepOptions) {
    match table.print {
        Print::Latency(title, rows) => {
            let (text, csv) = render_latency_table(title, &rows(), procs, opts);
            print!("{text}");
            maybe_csv(&slug(title), &csv);
        }
        Print::Misses(title, rows) => {
            print!("{}", render_miss_table(&format!("{title} at {at} processors"), &rows(), at, opts));
        }
        Print::Updates(title, rows) => {
            print!("{}", render_update_table(&format!("{title} at {at} processors"), &rows(), at, opts));
        }
        Print::Custom(custom) => custom(opts),
    }
}

fn usage() -> String {
    let mut s = String::from(
        "usage: all_figures [--quick] [table...]\n\n\
         With no table, prints Figures 8-16 (the first nine below). --quick caps\n\
         their latency sweep at 4 processors and their traffic tables at 4.\n\ntables:\n",
    );
    for t in &TABLES {
        s.push_str(&format!("  {:<26}{}\n", t.name, t.about));
    }
    s.push_str("\nworkloads honor PPC_SCALE (fraction of the paper's iteration counts)\n");
    s
}

fn main() -> ExitCode {
    let (quick, names): (Vec<String>, Vec<String>) = std::env::args().skip(1).partition(|a| a == "--quick");
    let mut picked = Vec::new();
    for name in &names {
        let Some(i) = TABLES.iter().position(|t| t.name == name) else {
            eprint!("unknown table {name:?}\n\n{}", usage());
            return ExitCode::from(2);
        };
        picked.push(i);
    }
    if picked.is_empty() {
        picked.extend(0..FIGURES);
    }
    let (procs, at): (&[usize], usize) = if quick.is_empty() {
        (&PROC_SWEEP, TRAFFIC_PROCS)
    } else {
        if let Some(&i) = picked.iter().find(|&&i| i >= FIGURES) {
            eprintln!("--quick applies to Figures 8-16 only, not to {}", TABLES[i].name);
            return ExitCode::from(2);
        }
        (&[1, 2, 4], 4)
    };
    let opts = SweepOptions::from_env();
    for i in picked {
        print(&TABLES[i], procs, at, &opts);
    }
    ExitCode::SUCCESS
}
