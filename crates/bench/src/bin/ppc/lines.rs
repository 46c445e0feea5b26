//! `ppc lines [kernel] [procs] [top_n] [--json]`: per-cache-line hot-spot
//! profile. Runs one kernel under all three protocols with line
//! provenance enabled and prints, per protocol, the top-N hottest blocks
//! (most classified traffic) with their observed sharing pattern,
//! classified miss/update counts, useless-traffic share, and the last
//! miss's provenance chain, followed by the per-structure aggregation
//! (`qnode[3]` → `qnode[*]`).
//!
//! This is the paper's Sections 4.1–4.3 argument made mechanical: the MCS
//! qnodes show up migratory (ownership hops requester to requester), the
//! centralized barrier counter wide-shared (every write fans out to the
//! whole spin crowd), and the useless-traffic column names the structure
//! responsible.

use ppc_bench::observed::{protocol_name, run_observed, summary_line};
use ppc_bench::PROTOCOLS;

use crate::Ctx;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let top_n = ctx.args.count_or(ctx.rest_at, 8).map_err(|e| format!("invalid top-N: {e}"))?;
    if ctx.args.json {
        ctx.print_observed_json();
        return Ok(());
    }

    println!("line profile: {}, {} procs", ctx.kernel_name, ctx.procs);
    for protocol in PROTOCOLS {
        let (r, _) = run_observed(ctx.procs, protocol, ctx.kernel(), false);
        let obs = r.obs.as_ref().expect("machine ran observed");
        let lineage = &obs.lineage;
        let phase_label = |p: u16| obs.phase_names.get(&p).cloned().unwrap_or_else(|| format!("phase{p}"));

        println!(
            "\n{}",
            summary_line(
                protocol_name(protocol),
                r.cycles,
                [
                    format!("{} blocks touched", lineage.blocks.len()),
                    format!(
                        "{} provenance events{}",
                        lineage.events.len(),
                        if lineage.events_dropped > 0 {
                            format!(" (+{} past cap)", lineage.events_dropped)
                        } else {
                            String::new()
                        }
                    ),
                ],
            )
        );
        println!(
            "{:<12}{:<18}{:<18}{:>8}{:>9}{:>9}{:>10}{:>8}",
            "block", "label", "pattern", "misses", "updates", "inval", "useless%", "fanout"
        );
        for b in lineage.blocks.iter().take(top_n) {
            let traffic = b.traffic();
            println!(
                "{:<12}{:<18}{:<18}{:>8}{:>9}{:>9}{:>10.1}{:>8.2}",
                format!("{:#x}", b.block.0),
                b.label.as_deref().unwrap_or("-"),
                b.pattern.name(),
                b.misses.total_misses(),
                b.updates.total(),
                b.invalidations,
                100.0 * b.useless_traffic() as f64 / traffic.max(1) as f64,
                b.fanout_per_write,
            );
            if let Some(p) = b.provenance_string(&phase_label) {
                println!("            └─ {p}");
            }
        }

        println!(
            "\n{:<22}{:>7}{:<18}{:>8}{:>9}{:>10}{:>10}",
            "structure", "blocks", "  pattern", "misses", "updates", "useless", "useless%"
        );
        for s in &lineage.by_structure {
            let traffic = s.misses.total_misses() + s.updates.total();
            if traffic == 0 {
                continue;
            }
            println!(
                "{:<22}{:>7}  {:<16}{:>8}{:>9}{:>10}{:>10.1}",
                s.name,
                s.blocks,
                s.pattern.name(),
                s.misses.total_misses(),
                s.updates.total(),
                s.useless_traffic(),
                100.0 * s.useless_traffic() as f64 / traffic.max(1) as f64,
            );
        }
    }
    Ok(())
}
