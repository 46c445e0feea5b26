//! `ppc net [kernel] [procs] [--json]`: network-telemetry profile. Runs
//! one kernel under all three protocols with message-journey tracing,
//! physical-link attribution, and hot-home profiling enabled, and prints,
//! per protocol, the journey-stage decomposition by message class and by
//! structure, the mesh heatmap with the busiest physical links, and a
//! per-home table joining memory-module occupancy, port utilisation, and
//! per-home update classification.
//!
//! This makes the paper's contention argument mechanical (Section 4.2):
//! under PU the centralized barrier counter's *home node* carries the
//! peak rx-port traffic (its addresses account for most of the flits
//! occupying rx ports machine-wide) with a majority-useless update mix,
//! while CU cuts the useless updates homed at that same node. Two
//! grep-able summary lines state exactly that, and a third (`journey
//! accounting closes`) confirms the journey-stage sums reconcile exactly
//! against the network cycle accounting.

use ppc_bench::observed::{protocol_name, run_observed, summary_line};
use ppc_bench::PROTOCOLS;
use sim_proto::Protocol;
use sim_stats::{check_net_reconciliation, JourneyTotals, NetObsReport};

use crate::Ctx;

fn stage_row(label: &str, t: &JourneyTotals) {
    println!(
        "{:<22}{:>8}{:>10}{:>11}{:>9}{:>11}{:>8}{:>9}{:>9.1}",
        label,
        t.count,
        t.flits,
        t.tx_wait,
        t.tx_service,
        t.wire,
        t.rx_wait,
        t.total.max(),
        t.total.mean(),
    );
}

fn journey_tables(net: &NetObsReport) {
    println!(
        "{:<22}{:>8}{:>10}{:>11}{:>9}{:>11}{:>8}{:>9}{:>9}",
        "message class", "msgs", "flits", "tx-wait", "tx-srv", "wire", "rx-wait", "max", "mean"
    );
    for (class, t) in &net.by_class {
        stage_row(class, t);
    }
    stage_row("(all)", &net.totals());
    println!("local (mesh bypassed): {} messages, {} cycles", net.local_messages, net.local_cycles);

    println!(
        "\n{:<22}{:>8}{:>10}{:>11}{:>9}{:>11}{:>8}{:>9}{:>9}",
        "structure", "msgs", "flits", "tx-wait", "tx-srv", "wire", "rx-wait", "max", "mean"
    );
    for (name, t) in &net.by_structure {
        stage_row(name, t);
    }
}

fn home_table(net: &NetObsReport) {
    let wall = net.wall_cycles.max(1) as f64;
    println!(
        "{:<6}{:>9}{:>9}{:>8}{:>9}{:>7}{:>7}{:>11}{:>10}{:>8}{:>10}",
        "home",
        "word-ops",
        "blk-ops",
        "mem %",
        "mem-qw",
        "tx %",
        "rx %",
        "homed-rx",
        "upd-deliv",
        "drops",
        "useless%"
    );
    for h in &net.homes {
        println!(
            "n{:<5}{:>9}{:>9}{:>8.1}{:>9}{:>7.1}{:>7.1}{:>11}{:>10}{:>8}{:>10}",
            h.node,
            h.word_ops,
            h.block_ops,
            100.0 * h.mem_busy as f64 / wall,
            h.mem_queue_wait,
            100.0 * h.tx_busy as f64 / wall,
            100.0 * h.rx_busy as f64 / wall,
            h.homed_rx_flits,
            h.update_deliveries,
            h.update_drops,
            h.useless_share().map(|s| format!("{:.1}", 100.0 * s)).unwrap_or_else(|| "-".into()),
        );
    }
}

/// The home whose addresses put the most flits onto rx ports — the
/// "whose traffic is it" hot spot (a hot home's update storm lands on
/// *other* nodes' rx ports, so ranking by local `rx_busy` would name the
/// victims, not the cause). Ties break toward the lower node id.
fn hottest_home(net: &NetObsReport) -> usize {
    net.homes
        .iter()
        .max_by_key(|h| (h.homed_rx_flits, std::cmp::Reverse(h.node)))
        .map(|h| h.node)
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    if ctx.args.json {
        ctx.print_observed_json();
        return Ok(());
    }

    println!("network profile: {}, {} procs", ctx.kernel_name, ctx.procs);
    // (node, useless updates homed there) under PU, for the CU comparison.
    let mut pu_hot: Option<(usize, u64)> = None;
    for protocol in PROTOCOLS {
        let (r, _) = run_observed(ctx.procs, protocol, ctx.kernel(), false);
        let obs = r.obs.as_ref().expect("machine ran observed");
        let net = &obs.netobs;
        let tag = protocol_name(protocol);

        println!("\n{}", summary_line(tag, r.cycles, std::iter::empty::<&str>()));
        journey_tables(net);
        println!();
        print!("{}", net.heatmap());
        println!("\nbusiest physical links:");
        for l in net.worst_links(5) {
            if l.flits == 0 {
                continue;
            }
            println!("  n{:02} -> n{:02}: {} flits", l.src, l.dst, l.flits);
        }
        println!();
        home_table(net);

        check_net_reconciliation(net, obs)
            .map_err(|e| format!("\n{tag}: journey accounting FAILED to close: {e}"))?;
        println!("\n{tag}: journey accounting closes");

        let hot = hottest_home(net);
        if protocol == Protocol::PureUpdate {
            let share = net.homes[hot].useless_share().unwrap_or(0.0);
            let total_flits = net.totals().flits.max(1);
            println!(
                "PU hot home: node {hot} carries peak rx-port traffic ({:.1}% of all rx flit-cycles are for its addresses); useless update share {:.1}% (majority-useless: {})",
                100.0 * net.homes[hot].homed_rx_flits as f64 / total_flits as f64,
                100.0 * share,
                if share > 0.5 { "yes" } else { "no" }
            );
            pu_hot = Some((hot, net.homes[hot].updates.useless()));
        }
        if protocol == Protocol::CompetitiveUpdate {
            if let Some((n, pu)) = pu_hot {
                let cu = net.homes[n].updates.useless();
                println!(
                    "CU useless updates at node {n}: {cu} vs PU {pu} (reduced: {})",
                    if cu < pu { "yes" } else { "no" }
                );
            }
        }
    }
    println!(
        "\nCentralized structures concentrate traffic on their home node's\n\
         rx port and memory module; distributed ones spread it — the\n\
         scalability boundary the paper's barrier and lock recommendations\n\
         draw, now visible per physical link."
    );
    Ok(())
}
