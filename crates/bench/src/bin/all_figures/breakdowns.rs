//! What the figures' averages and totals hide: stall-time distributions
//! and traffic per shared data structure.

use std::collections::HashMap;

use kernels::runner::KernelSpec;
use kernels::workloads::{BarrierKind, LockKind, ReductionKind};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use ppc_bench::{barrier_workload, lock_rows, lock_workload, reduction_workload};
use sim_proto::Protocol;
use sim_stats::{LatencyHist, MissStats, TrafficReport, UpdateStats};

fn print_hist(name: &str, h: &LatencyHist) {
    println!(
        "  {name:<22} n={:<8} mean={:<8.1} p50≤{:<6} p99≤{:<6} max={}",
        h.count(),
        h.mean(),
        h.quantile_bound(0.5),
        h.quantile_bound(0.99),
        h.max()
    );
    let total = h.count().max(1);
    for (lo, n) in h.nonempty_buckets() {
        let bar = "#".repeat((60 * n / total).max(1) as usize);
        println!("    {lo:>7}+ {n:>9} {bar}");
    }
}

/// Figure 8 reports average acquire–release latency; the averages hide
/// the tail behavior that distinguishes the protocols. This table prints
/// the log₂-bucketed distribution of individual read-miss and atomic
/// stall times for the lock kernels at 32 processors. The nine cells run
/// as one sweep batch, so they share the memo cache with Figures 8–10.
pub fn latency_distribution(opts: &SweepOptions) {
    let rows = lock_rows();
    let specs: Vec<RunSpec> =
        rows.iter().map(|&(_, kernel, proto)| RunSpec::paper(32, proto, kernel)).collect();
    let outs = sweep::run_specs_with(&specs, opts).0;
    for ((label, ..), out) in rows.iter().zip(&outs) {
        println!("\n{label} (32 processors):");
        print_hist("read-miss stalls", &out.read_latency);
        print_hist("atomic stalls", &out.atomic_latency);
    }
}

fn print_breakdown(title: &str, traffic: &TrafficReport) {
    println!("\n{title}");
    println!(
        "{:<22}{:>10}{:>10}{:>10}{:>12}{:>10}",
        "structure", "misses", "updates", "useful", "useless", "share%"
    );
    let grand: u64 = traffic.updates.total() + traffic.misses.total_misses();
    // Aggregate per-processor instances (qnode[3] → qnode[*]) for brevity,
    // keyed by base name so the pass is linear in the structure count.
    let mut by_base: HashMap<String, (MissStats, UpdateStats)> = HashMap::new();
    for s in &traffic.by_structure {
        let base = match s.name.find('[') {
            Some(i) => format!("{}[*]", &s.name[..i]),
            None => s.name.clone(),
        };
        let (m, u) = by_base.entry(base).or_default();
        m.merge(&s.misses);
        u.merge(&s.updates);
    }
    // Rows print worst offender first: useless traffic (useless misses +
    // useless updates) descending, ties broken by name so the table is
    // deterministic.
    let mut agg: Vec<(String, MissStats, UpdateStats)> =
        by_base.into_iter().map(|(n, (m, u))| (n, m, u)).collect();
    agg.sort_by(|a, b| {
        let ua = a.1.useless() + a.2.useless();
        let ub = b.1.useless() + b.2.useless();
        ub.cmp(&ua).then_with(|| a.0.cmp(&b.0))
    });
    for (name, m, u) in agg {
        let sub = u.total() + m.total_misses();
        if sub == 0 {
            continue;
        }
        println!(
            "{:<22}{:>10}{:>10}{:>10}{:>12}{:>10.1}",
            name,
            m.total_misses(),
            u.total(),
            u.useful(),
            u.useless(),
            100.0 * sub as f64 / grand.max(1) as f64
        );
    }
}

/// Per-structure traffic attribution — the paper's analysis style applied
/// systematically. Section 4.2 asserts, for example, that "the vast
/// majority of this useless traffic corresponds to changes in the
/// centralized counter"; this table prints the update and miss breakdown
/// *per shared data structure* under PU at 32 processors, so such
/// statements can be read directly off it. The five cells run as one
/// sweep batch.
pub fn traffic_by_structure(opts: &SweepOptions) {
    let cases: [(&str, KernelSpec); 5] = [
        ("ticket lock, 32p, PU", KernelSpec::Lock(lock_workload(LockKind::Ticket))),
        ("MCS lock, 32p, PU", KernelSpec::Lock(lock_workload(LockKind::Mcs))),
        ("centralized barrier, 32p, PU", KernelSpec::Barrier(barrier_workload(BarrierKind::Centralized))),
        ("tree barrier, 32p, PU", KernelSpec::Barrier(barrier_workload(BarrierKind::Tree))),
        (
            "sequential reduction, 32p, PU",
            KernelSpec::Reduction(reduction_workload(ReductionKind::Sequential)),
        ),
    ];
    let specs: Vec<RunSpec> =
        cases.iter().map(|&(_, kernel)| RunSpec::paper(32, Protocol::PureUpdate, kernel)).collect();
    let outs = sweep::run_specs_with(&specs, opts).0;
    for ((name, _), out) in cases.iter().zip(&outs) {
        print_breakdown(name, &out.traffic);
    }
}
