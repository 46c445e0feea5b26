//! `ppc crit [kernel] [procs] [--json]`: synchronization-aware
//! critical-path profile. Runs one kernel under all three protocols with
//! the episode profiler enabled and prints, per protocol:
//!
//! * **per-lock handoff analytics** — acquire/handoff counts, hold time,
//!   and the release→acquire latency split into release-visibility,
//!   remote-miss, and unclassified cycles (plus queue wait), with the
//!   slowest recorded handoffs;
//! * **per-barrier episode tables** — one `last-arriver` line per episode
//!   (arrival window, imbalance, release fanout) and the per-node
//!   last-arriver tally;
//! * **critical-path composition** — the causal chain ending at the
//!   last-halting node, decomposed by stall class, program phase,
//!   structure label, and causal-edge kind, with the retained segment
//!   tail.
//!
//! This is the paper's Sections 4.1–4.3 story per construct: under WI the
//! MCS handoff is dominated by remote-miss chains (the successor re-loads
//! its flag), the update protocols shorten it to release visibility, and
//! once there is real work between episodes (the reductions) barrier time
//! is arrival imbalance, not release broadcast — while the back-to-back
//! spin-barrier microbenchmarks expose the WI release-broadcast cost
//! directly in the fanout column.

use ppc_bench::observed::{protocol_name, run_observed, summary_line};
use ppc_bench::PROTOCOLS;
use sim_stats::{BarrierReport, ChainReport, CritReport, LockReport, ObsReport, CPU_CLASSES};

use crate::Ctx;

/// Episode rows printed per barrier before truncating.
const EPISODE_ROWS: usize = 24;
/// Handoff rows printed per lock before truncating.
const HANDOFF_ROWS: usize = 5;

fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

fn avg(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

fn print_lock(l: &LockReport) {
    let lat = l.handoff_cycles();
    println!(
        "lock {}: {} acquires, {} handoffs | hold avg {:.1} | handoff latency avg {:.1} (max {})",
        l.lock,
        l.acquires,
        l.handoffs,
        avg(l.hold_cycles, l.acquires),
        avg(lat, l.handoffs),
        l.max_latency,
    );
    println!(
        "  split: release-visibility {} ({:.0}%), remote-miss {} ({:.0}%), other {} ({:.0}%); queue-wait {} (avg {:.1})",
        l.release_visibility,
        pct(l.release_visibility, lat),
        l.remote_miss,
        pct(l.remote_miss, lat),
        l.other,
        pct(l.other, lat),
        l.queue_wait,
        avg(l.queue_wait, l.handoffs),
    );
    let mut slowest: Vec<_> = l.records.iter().collect();
    slowest.sort_by_key(|h| std::cmp::Reverse(h.latency()));
    for h in slowest.iter().take(HANDOFF_ROWS) {
        println!(
            "  handoff n{} -> n{}: latency {} (vis {}, miss {}, other {}) queue {} released@{}",
            h.from,
            h.to,
            h.latency(),
            h.release_visibility,
            h.remote_miss,
            h.other,
            h.queue_wait,
            h.released_at,
        );
    }
    if l.records_dropped > 0 {
        println!("  ({} handoff records past cap)", l.records_dropped);
    }
}

fn print_barrier(b: &BarrierReport) {
    println!(
        "barrier {}: {} episodes ({} incomplete) | imbalance {} cyc (avg {:.1}, max {}) | fanout {} cyc (avg {:.1}, max {})",
        b.barrier,
        b.episodes,
        b.incomplete,
        b.imbalance_cycles,
        avg(b.imbalance_cycles, b.episodes),
        b.max_imbalance,
        b.fanout_cycles,
        avg(b.fanout_cycles, b.episodes),
        b.max_fanout,
    );
    let tally: Vec<String> = b
        .last_arriver_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(n, c)| format!("n{n} x{c}"))
        .collect();
    println!("  last-arriver tally: {}", if tally.is_empty() { "-".into() } else { tally.join(" ") });
    for e in b.records.iter().take(EPISODE_ROWS) {
        println!(
            "  episode {:>4}: last-arriver n{}  arrive [{}..{}] depart {}  imbalance {}  fanout {}",
            e.epoch,
            e.last_arriver,
            e.first_arrive,
            e.last_arrive,
            e.last_depart,
            e.imbalance(),
            e.fanout(),
        );
    }
    let shown = b.records.len().min(EPISODE_ROWS);
    let total = b.records.len() as u64 + b.records_dropped;
    if (shown as u64) < total {
        println!("  ... {} more episodes not shown", total - shown as u64);
    }
}

fn print_chain(c: &ChainReport, obs: &ObsReport) {
    println!("critical path: ends on node {}, covers {} wall cycles", c.node, c.wall);
    let class_line: Vec<String> = CPU_CLASSES
        .iter()
        .map(|&cl| (cl, c.by_class.get(cl)))
        .filter(|&(_, v)| v > 0)
        .map(|(cl, v)| format!("{} {} ({:.1}%)", cl.name(), v, pct(v, c.wall)))
        .collect();
    println!("  by class: {}", class_line.join("  "));
    let phase_line: Vec<String> = c
        .by_phase
        .iter()
        .filter(|&(_, &v)| v > 0)
        .map(|(&p, &v)| format!("{} {} ({:.1}%)", obs.phase_label(p), v, pct(v, c.wall)))
        .collect();
    println!("  by phase: {}", phase_line.join("  "));
    if !c.by_label.is_empty() {
        let label_line: Vec<String> =
            c.by_label.iter().map(|(l, &v)| format!("{l} {v} ({:.1}%)", pct(v, c.wall))).collect();
        println!("  by structure: {}", label_line.join("  "));
    }
    let edge_line: Vec<String> =
        c.by_edge.iter().map(|(&e, &v)| format!("{e} {v} ({:.1}%)", pct(v, c.wall))).collect();
    println!(
        "  by edge: {} | {} cross-node edges",
        if edge_line.is_empty() { "-".into() } else { edge_line.join("  ") },
        c.cross_edges,
    );
    println!(
        "  tail: {} retained segments, {} cycles compacted into the composition totals",
        c.segments.len(),
        c.elided_cycles,
    );
    for s in c.segments.iter().rev().take(8).collect::<Vec<_>>().into_iter().rev() {
        let edge = match (s.edge, s.from) {
            (Some(e), Some(f)) => format!("  <- {e} from n{f}"),
            _ => String::new(),
        };
        let label = s.label.as_deref().map(|l| format!(" [{l}]")).unwrap_or_default();
        println!(
            "    [{:>9}..{:>9}] n{} {} {}{}{}",
            s.start,
            s.end,
            s.node,
            s.class.name(),
            obs.phase_label(s.phase),
            label,
            edge,
        );
    }
}

fn print_report(crit: &CritReport, obs: &ObsReport) {
    for l in &crit.locks {
        print_lock(l);
    }
    for b in &crit.barriers {
        print_barrier(b);
    }
    print_chain(&crit.critical_path, obs);
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    if ctx.args.json {
        ctx.print_observed_json();
        return Ok(());
    }

    println!("critical-path profile: {}, {} procs", ctx.kernel_name, ctx.procs);
    for protocol in PROTOCOLS {
        let (r, _) = run_observed(ctx.procs, protocol, ctx.kernel(), false);
        let obs = r.obs.as_ref().expect("machine ran observed");
        println!("\n{}", summary_line(protocol_name(protocol), r.cycles, std::iter::empty::<&str>()));
        print_report(&obs.crit, obs);
    }
    Ok(())
}
