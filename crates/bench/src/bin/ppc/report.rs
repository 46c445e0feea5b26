//! `ppc report [kernel] [procs] [out_dir] [--json]`: runs one kernel under
//! all three protocols with cycle accounting, periodic sampling, and
//! message tracing enabled, then writes two artifacts into the output
//! directory:
//!
//! * `report.json` — the shared observed-run document: classified traffic
//!   and the full observability report (per-node stall accounts,
//!   per-phase splits, component gauges, message counts/latencies, link
//!   flits, time series) per protocol;
//! * `trace.json` — a Chrome `trace_event` array (open in Perfetto or
//!   `chrome://tracing`) with one process per protocol: CPU state
//!   timelines as tracks, one async flow per message from injection to
//!   delivery, halt markers.
//!
//! Each protocol's status line names every layer that reached its record
//! cap and how much it dropped (trace events, timeline slices, samples,
//! lineage events, lock and barrier records, link samples). With `--json`
//! the report document is also printed to stdout (the per-protocol status
//! lines move to stderr).

use ppc_bench::observed::{observed_doc, protocol_name, run_observed, summary_line};
use ppc_bench::PROTOCOLS;
use sim_machine::export_run;
use sim_stats::ChromeTrace;

use crate::Ctx;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let out_dir = ctx.rest_or(0, "obs-out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;

    let mut runs = Vec::new();
    let mut trace = ChromeTrace::new();
    let mut next_flow_id = 0;
    for (i, protocol) in PROTOCOLS.into_iter().enumerate() {
        let (r, traced) = run_observed(ctx.procs, protocol, ctx.kernel(), true);
        let traced = traced.expect("the run was traced");
        let pid = i as u64 + 1;
        let label = protocol_name(protocol);
        let stats = export_run(&mut trace, pid, label, &r, traced.events(), next_flow_id);
        next_flow_id = stats.next_flow_id;
        // Every layer that filled up says how much it dropped.
        let obs = r.obs.as_ref().expect("the run was observed");
        let dropped = [("trace events", traced.dropped())].into_iter().chain(obs.dropped());
        let status = summary_line(
            label,
            r.cycles,
            [format!("{} flow pairs", stats.flow_pairs), format!("{} state slices", stats.slices)]
                .into_iter()
                .chain(dropped.filter(|&(_, n)| n > 0).map(|(layer, n)| format!("{n} {layer} dropped"))),
        );
        if ctx.args.json {
            eprintln!("{status}");
        } else {
            println!("{status}");
        }
        runs.push((protocol, r));
    }

    let report = observed_doc(&ctx.kernel_name, ctx.procs, &runs);
    let report_path = format!("{out_dir}/report.json");
    let trace_path = format!("{out_dir}/trace.json");
    std::fs::write(&report_path, report.render_pretty())
        .map_err(|e| format!("cannot write {report_path}: {e}"))?;
    std::fs::write(&trace_path, trace.render()).map_err(|e| format!("cannot write {trace_path}: {e}"))?;
    let wrote = format!("wrote {report_path} and {trace_path} ({} trace events)", trace.len());
    if ctx.args.json {
        eprintln!("{wrote}");
        println!("{}", report.render_pretty());
    } else {
        println!("{wrote}");
    }
    Ok(())
}
