//! `ppc replay`: time-travel replay, in two modes.
//!
//! * **Divergence** — `ppc replay <kernel> <protoA> <protoB> [procs]`
//!   runs both sides cheaply (fingerprint chains + periodic checkpoints,
//!   deep obs off), localizes the first divergent epoch from the chains,
//!   restores the last common checkpoint, and lock-step replays the
//!   window with the event recorder on. Prints the exact first divergent
//!   event with decoded payload, the shared event context before it, each
//!   side's continuation, and each side's window obs summary.
//! * **Window zoom** — `ppc replay <kernel> <proto> [procs] --window
//!   <c1>:<c2>` replays the cycle window of an obs-off run with full
//!   observability on, from the nearest checkpoint, and proves the
//!   restored run still reaches the original cycle count.
//!
//! `--json` prints the machine-readable document (canonical keys —
//! byte-identical across identical replays). `PPC_FP_EPOCH` sets the
//! epoch grid; the recording runs checkpoint once per epoch.

use ppc_bench::observed::{protocol_name, summary_line};
use ppc_bench::replay::{
    divergence_json, divergence_replay, event_line, window_json, window_replay, DivergenceReplay,
    WindowReplay,
};

use crate::Ctx;

/// Parses the `--window` value (`<c1>:<c2>`, both cycle numbers).
fn parse_window(v: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = v.split_once(':').ok_or_else(|| format!("invalid --window {v:?}; expected <c1>:<c2>"))?;
    let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("invalid --window cycle {s:?}"));
    Ok((parse(lo)?, parse(hi)?))
}

fn print_divergence(kernel: &str, procs: usize, d: &DivergenceReplay, json: bool) {
    if json {
        println!("{}", divergence_json(kernel, procs, d).render_pretty());
        return;
    }
    println!("divergence replay: {kernel}, {procs} procs, {} vs {}", d.label_a, d.label_b);
    println!("{}", summary_line(&d.label_a, d.cycles.0, std::iter::empty::<&str>()));
    println!("{}", summary_line(&d.label_b, d.cycles.1, std::iter::empty::<&str>()));
    println!("fingerprint: {}", d.sentence);
    let Some(first) = &d.first else {
        if d.detail.is_some() {
            println!("lock-step replay found no visible difference inside the divergent epoch");
        }
        return;
    };
    println!("replayed both sides from checkpoint at event {}", d.replayed_from);
    if !d.prefix.is_empty() {
        println!("shared context (identical on both sides):");
        for e in &d.prefix {
            println!("  {}", event_line(e));
        }
    }
    println!("first divergent event: index {}", first.index);
    match &first.a {
        Some(e) => println!("  {}: {}", d.label_a, event_line(e)),
        None => println!("  {}: (stream ended — no more events)", d.label_a),
    }
    match &first.b {
        Some(e) => println!("  {}: {}", d.label_b, event_line(e)),
        None => println!("  {}: (stream ended — no more events)", d.label_b),
    }
    if d.after_a.len() > 1 || d.after_b.len() > 1 {
        println!("{} continues:", d.label_a);
        for e in &d.after_a {
            println!("  {}", event_line(e));
        }
        println!("{} continues:", d.label_b);
        for e in &d.after_b {
            println!("  {}", event_line(e));
        }
    }
    println!("window obs {}: {}", d.label_a, d.obs_a);
    println!("window obs {}: {}", d.label_b, d.obs_b);
}

fn print_window(kernel: &str, procs: usize, proto: &str, w: &WindowReplay, json: bool) {
    if json {
        println!("{}", window_json(kernel, procs, proto, w).render_pretty());
        return;
    }
    println!("window replay: {kernel} under {proto}, {procs} procs");
    println!(
        "{}",
        summary_line(
            "original",
            w.original_cycles,
            [format!("restored at cycle {} (event {})", w.replayed_from_cycle, w.replayed_from_events)]
        )
    );
    let check = if w.revalidated_cycles == w.original_cycles {
        "matches the original run".to_string()
    } else {
        format!("MISMATCH vs original {}", w.original_cycles)
    };
    println!("{}", summary_line("replayed-to-end", w.revalidated_cycles, [check]));
    println!("window [{}, {}] observed:", w.window.0, w.window.1);
    match w.window_result.obs.as_ref() {
        Some(o) => print!("{}", o.summary()),
        None => println!("(no obs report)"),
    }
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let (kernel_name, procs) = (ctx.kernel_name.as_str(), ctx.procs);
    if let Some(v) = ctx.args.opt("--window") {
        let (c1, c2) = parse_window(v)?;
        let [proto] = ctx.protocols()?;
        let w = window_replay(procs, proto, ctx.kernel(), c1, c2)?;
        print_window(kernel_name, procs, protocol_name(proto), &w, ctx.args.json);
        if w.revalidated_cycles != w.original_cycles {
            return Err("restored run did not reproduce the original cycle count".to_string());
        }
        return Ok(());
    }

    let [proto_a, proto_b] = ctx.protocols()?;
    let d = divergence_replay(procs, proto_a, proto_b, ctx.kernel())?;
    print_divergence(kernel_name, procs, &d, ctx.args.json);
    Ok(())
}
