//! Design-choice ablations (the A-numbers of DESIGN.md), all at 32
//! processors except where a table sweeps the machine size.

use kernels::runner::{ExperimentOutcome, ExperimentSpec, KernelSpec};
use kernels::workloads::{BarrierKind, LockKind};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use ppc_bench::{barrier_workload, lock_workload, PROTOCOLS};
use sim_machine::MachineConfig;
use sim_proto::Protocol;
use sim_stats::TrafficReport;

/// The latency, misses and updates columns most ablations end with.
fn columns(latency: f64, traffic: &TrafficReport) -> String {
    format!("{latency:>12.1}{:>12}{:>12}", traffic.misses.total_misses(), traffic.updates.total())
}

/// Runs the labelled cells as one sweep batch, then prints `title`, the
/// column `head`, and one row per cell: its label followed by `tail` of
/// its outcome.
fn sweep_table(
    opts: &SweepOptions,
    title: &str,
    head: String,
    cells: Vec<(String, RunSpec)>,
    tail: impl Fn(&ExperimentOutcome) -> String,
) {
    let (labels, specs): (Vec<String>, Vec<RunSpec>) = cells.into_iter().unzip();
    let outs = sweep::run_specs_with(&specs, opts).0;
    println!("\n{title}");
    println!("{head}");
    for (label, out) in labels.iter().zip(&outs) {
        println!("{label}{}", tail(out));
    }
}

/// A1: sensitivity of the competitive-update protocol to its drop
/// threshold (the paper fixes it at 4 updates).
pub fn cu_threshold(opts: &SweepOptions) {
    let workloads = [
        ("ticket lock", KernelSpec::Lock(lock_workload(LockKind::Ticket))),
        ("MCS lock", KernelSpec::Lock(lock_workload(LockKind::Mcs))),
        ("dissemination barrier", KernelSpec::Barrier(barrier_workload(BarrierKind::Dissemination))),
    ];
    let mut cells = Vec::new();
    for threshold in [1u32, 2, 4, 8, 16] {
        for (name, kernel) in workloads {
            let mut cfg = MachineConfig::paper(32, Protocol::CompetitiveUpdate);
            cfg.cu_threshold = threshold;
            let spec = ExperimentSpec { procs: 32, protocol: Protocol::CompetitiveUpdate, kernel };
            cells.push((format!("{name:<22}{threshold:>8}"), RunSpec::with_config(spec, cfg)));
        }
    }
    sweep_table(
        opts,
        "Ablation A1: CU drop threshold (32 processors)",
        format!("{:<22}{:>8}{:>12}{:>12}{:>12}", "workload", "thresh", "latency", "misses", "updates"),
        cells,
        |out| columns(out.avg_latency, &out.traffic),
    );
}

/// A2: effect of the pure-update private-data optimization (Section 3.1,
/// optimization 1).
///
/// Contended lock blocks always have many sharers, so private mode never
/// engages there; the interesting regimes are uncontended (1-processor)
/// runs, where a processor's working blocks would otherwise write through
/// on every store.
pub fn pu_private(opts: &SweepOptions) {
    let mut cells = Vec::new();
    for procs in [1usize, 2, 32] {
        for kind in [LockKind::Ticket, LockKind::Mcs] {
            for opt in [true, false] {
                let mut cfg = MachineConfig::paper(procs, Protocol::PureUpdate);
                cfg.pu_private_opt = opt;
                let kernel = KernelSpec::Lock(lock_workload(kind));
                let spec = ExperimentSpec { procs, protocol: Protocol::PureUpdate, kernel };
                cells.push((
                    format!("{procs:<8}{:<8}{opt:>10}", kind.label()),
                    RunSpec::with_config(spec, cfg),
                ));
            }
        }
    }
    sweep_table(
        opts,
        "Ablation A2: PU private-data optimization",
        format!(
            "{:<8}{:<8}{:>10}{:>12}{:>12}{:>12}",
            "procs", "lock", "private", "latency", "misses", "updates"
        ),
        cells,
        |out| columns(out.avg_latency, &out.traffic),
    );
}

/// A3: effect of the write-buffer depth (the paper uses 4 entries).
///
/// The lock kernels issue at most one store between fences, so they are
/// insensitive to depth; the tree barrier re-arms up to four child flags
/// back to back and then signals its parent, which is exactly the burst a
/// deeper buffer absorbs.
pub fn write_buffer(opts: &SweepOptions) {
    let workloads = [
        ("tree barrier", KernelSpec::Barrier(barrier_workload(BarrierKind::Tree))),
        ("ticket lock", KernelSpec::Lock(lock_workload(LockKind::Ticket))),
    ];
    let mut cells = Vec::new();
    for (name, kernel) in workloads {
        for proto in PROTOCOLS {
            for entries in [1usize, 2, 4, 8] {
                let mut cfg = MachineConfig::paper(32, proto);
                cfg.wb_entries = entries;
                let spec = ExperimentSpec { procs: 32, protocol: proto, kernel };
                cells.push((
                    format!("{name:<22}{:<10}{entries:>8}", proto.label()),
                    RunSpec::with_config(spec, cfg),
                ));
            }
        }
    }
    sweep_table(
        opts,
        "Ablation A3: write-buffer depth (32 processors)",
        format!("{:<22}{:<10}{:>8}{:>12}", "workload", "protocol", "entries", "latency"),
        cells,
        |out| format!("{:>12.1}", out.avg_latency),
    );
}

/// A4: which side of the update-conscious MCS flush matters — flushing
/// only the predecessor's queue node, only the successor's, or both (the
/// paper's variant). The "none" and "both" rows are Figures 8–10's `MCS u`
/// and `uc u` cells.
pub fn uc_flush(opts: &SweepOptions) {
    let cells = [
        ("none (plain MCS)", LockKind::Mcs),
        ("pred only", LockKind::McsFlushPred),
        ("succ only", LockKind::McsFlushSucc),
        ("both (paper uc)", LockKind::McsUpdateConscious),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let kernel = KernelSpec::Lock(lock_workload(kind));
        (format!("{name:<18}"), RunSpec::paper(32, Protocol::PureUpdate, kernel))
    })
    .collect();
    sweep_table(
        opts,
        "Ablation A4: update-conscious MCS flush sides (32 processors, PU)",
        format!("{:<18}{:>12}{:>12}{:>12}", "flush", "latency", "misses", "updates"),
        cells,
        |out| columns(out.avg_latency, &out.traffic),
    );
}

/// A6: colocating the ticket lock's two counters in one cache block (one
/// record, as Figure 1 declares them, and the layout the experiments use)
/// versus giving each its own block (a protocol-conscious layout). The
/// colocated rows are Figures 8–10's `tk` cells.
pub fn counter_layout(opts: &SweepOptions) {
    let mut cells = Vec::new();
    for proto in PROTOCOLS {
        for (layout, kind) in [("padded", LockKind::TicketPadded), ("colocated", LockKind::Ticket)] {
            let kernel = KernelSpec::Lock(lock_workload(kind));
            cells.push((format!("{:<10}{layout:>12}", proto.label()), RunSpec::paper(32, proto, kernel)));
        }
    }
    sweep_table(
        opts,
        "Ablation A6: ticket-counter layout (32 processors)",
        format!("{:<10}{:>12}{:>12}{:>12}{:>12}", "protocol", "layout", "latency", "misses", "updates"),
        cells,
        |out| columns(out.avg_latency, &out.traffic),
    );
}
