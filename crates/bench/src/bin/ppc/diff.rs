//! `ppc diff`: differential observability, in two modes.
//!
//! * **A-vs-B** — `ppc diff <kernel> <protoA> <protoB> [procs]` runs the
//!   kernel under both protocols with every instrument on and prints the
//!   section-by-section [`ReportDelta`](sim_stats::ReportDelta):
//!   stall-class and phase cycles, crit-path composition, per-lock
//!   handoff splits, sharing patterns, journey stages, host dispatch,
//!   fingerprint divergence, and the ranked attribution. Each side's
//!   exact closure is asserted in-process before anything prints, so
//!   every section delta closes by subtraction.
//! * **Comparative sweep** — `ppc diff <kernel> --sweep [procs]` runs the
//!   whole WI/PU/CU axis: pairwise deltas against the WI baseline plus a
//!   cycles-by-machine-size table from the memoized sweep harness.
//!
//! `--json` prints the machine-readable document (canonical key order).

use ppc_bench::diff::{comparative, protocol_delta};
use ppc_bench::observed::{protocol_name, summary_line};
use sim_stats::Json;

use crate::Ctx;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let (kernel_name, procs) = (ctx.kernel_name.as_str(), ctx.procs);
    if ctx.args.has("--sweep") {
        ctx.protocols::<0>()?;
        let (text, doc) = comparative(kernel_name, procs, ctx.kernel());
        if ctx.args.json {
            println!("{}", doc.canonical().render_pretty());
        } else {
            print!("{text}");
        }
        return Ok(());
    }

    let [proto_a, proto_b] = ctx.protocols()?;
    let (a, b, delta) = protocol_delta(procs, proto_a, proto_b, ctx.kernel());
    if ctx.args.json {
        let doc = Json::obj([
            ("kernel", Json::from(kernel_name)),
            ("procs", Json::from(procs)),
            ("delta", delta.to_json()),
        ]);
        println!("{}", doc.canonical().render_pretty());
    } else {
        println!("differential profile: {kernel_name}, {procs} procs");
        println!("{}", summary_line(protocol_name(proto_a), a.cycles, std::iter::empty::<&str>()));
        println!("{}", summary_line(protocol_name(proto_b), b.cycles, std::iter::empty::<&str>()));
        println!();
        print!("{}", delta.render_text());
    }
    Ok(())
}
