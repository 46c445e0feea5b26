//! Differential-run driver behind `ppc diff`.
//!
//! Three entry points, all testable in-process:
//!
//! * [`run_diff`] — one fully-instrumented run (cycle accounting,
//!   lineage, crit path, netobs, host profile, fingerprint chain), the
//!   raw material of every comparison.
//! * [`protocol_delta`] — A-vs-B: two runs of the same kernel under two
//!   protocols and their [`ReportDelta`], exact-closure asserted.
//! * [`comparative`] — the sweep-level mode: one kernel across the whole
//!   protocol axis, pairwise deltas against the WI baseline plus a
//!   machine-size cycle table from the (memoized) sweep harness.

use kernels::runner::{install_run_verify, KernelSpec};
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_proto::Protocol;
use sim_stats::{HostObsConfig, Json, ObsConfig, ReportDelta};

use crate::observed::protocol_name;
use crate::sweep::{self, RunSpec};
use crate::{PROC_SWEEP, PROTOCOLS};

/// Parses a protocol label as the CLI accepts it (`wi`/`pu`/`cu`, any
/// case, or the paper's one-letter `i`/`u`/`c`).
pub fn parse_protocol(s: &str) -> Option<Protocol> {
    Some(match s.to_ascii_lowercase().as_str() {
        "wi" | "i" => Protocol::WriteInvalidate,
        "pu" | "u" => Protocol::PureUpdate,
        "cu" | "c" => Protocol::CompetitiveUpdate,
        _ => None?,
    })
}

/// Runs `kernel` with every instrument on — cycle accounting, lineage,
/// crit path, netobs (via `ObsConfig::enabled`), host self-profile, and
/// the determinism fingerprint chain — so the resulting [`ReportDelta`]
/// has every section to compare. `PPC_FP_EPOCH=n` overrides the
/// fingerprint-epoch length, which sets how tightly a divergence is
/// localized before replay zooms to the exact event.
pub fn run_diff(procs: usize, protocol: Protocol, kernel: &KernelSpec) -> RunResult {
    let mut hostobs = HostObsConfig::enabled();
    if let Some(epoch) = crate::env_cfg::env_fp_epoch() {
        hostobs.fingerprint_epoch = epoch;
    }
    let cfg = MachineConfig { obs: ObsConfig::enabled(), hostobs, ..MachineConfig::paper(procs, protocol) };
    let mut r = install_run_verify(&mut Machine::new(cfg), kernel, true, Machine::run);
    if let Some(obs) = r.obs.as_mut() {
        obs.set_phase_names(kernels::phase::names());
    }
    r
}

/// Builds the delta of two runs and asserts each side's exact-closure
/// equations in-process — a diff that does not reconcile is a bug in the
/// instruments, not a result.
pub fn checked_delta(a: &RunResult, label_a: &str, b: &RunResult, label_b: &str) -> ReportDelta {
    let side_a = a.delta_side(label_a).expect("side A ran observed");
    let side_b = b.delta_side(label_b).expect("side B ran observed");
    let delta = ReportDelta::between(&side_a, &side_b);
    if let Err(e) = delta.check_closure() {
        panic!("delta closure violated ({label_a} vs {label_b}): {e}");
    }
    delta
}

/// A-vs-B: the kernel under two protocols and their checked delta.
pub fn protocol_delta(
    procs: usize,
    proto_a: Protocol,
    proto_b: Protocol,
    kernel: &KernelSpec,
) -> (RunResult, RunResult, ReportDelta) {
    let a = run_diff(procs, proto_a, kernel);
    let b = run_diff(procs, proto_b, kernel);
    let delta = checked_delta(&a, protocol_name(proto_a), &b, protocol_name(proto_b));
    (a, b, delta)
}

/// The sweep-level comparative mode: runs `kernel` under every protocol
/// at `procs`, emits the checked delta of each update protocol against
/// the WI baseline, and a cycles-by-machine-size table over
/// [`PROC_SWEEP`] from the sweep harness (memoized, so warm reruns are
/// nearly free). Returns the rendered text and the `--json` document.
pub fn comparative(kernel_name: &str, procs: usize, kernel: &KernelSpec) -> (String, Json) {
    let runs: Vec<(Protocol, RunResult)> =
        PROTOCOLS.into_iter().map(|p| (p, run_diff(procs, p, kernel))).collect();
    let baseline = &runs[0].1;
    let deltas: Vec<ReportDelta> = runs[1..]
        .iter()
        .map(|(p, r)| checked_delta(baseline, protocol_name(runs[0].0), r, protocol_name(*p)))
        .collect();

    let axis: Vec<usize> = PROC_SWEEP.into_iter().filter(|&p| p <= procs).collect();
    let specs: Vec<RunSpec> = PROTOCOLS
        .into_iter()
        .flat_map(|proto| axis.iter().map(move |&p| RunSpec::paper(p, proto, *kernel)))
        .collect();
    let outs = sweep::run_specs(&specs);

    let mut text = format!("comparative: {kernel_name} across WI/PU/CU at {procs} procs\n");
    text.push_str(&format!("{:<6}", "proto"));
    for p in &axis {
        text.push_str(&format!("{p:>12}"));
    }
    text.push('\n');
    let mut table = Vec::new();
    for (i, proto) in PROTOCOLS.into_iter().enumerate() {
        let row = &outs[i * axis.len()..(i + 1) * axis.len()];
        text.push_str(&format!("{:<6}", protocol_name(proto)));
        for out in row {
            text.push_str(&format!("{:>12}", out.cycles));
        }
        text.push('\n');
        table.push(Json::obj([
            ("protocol", Json::from(protocol_name(proto))),
            ("cycles", Json::Arr(row.iter().map(|o| Json::U64(o.cycles)).collect())),
        ]));
    }
    text.push('\n');
    for delta in &deltas {
        text.push_str(&delta.render_text());
        text.push('\n');
    }
    let doc = Json::obj([
        ("kernel", Json::from(kernel_name)),
        ("procs", Json::from(procs)),
        ("procs_axis", Json::Arr(axis.iter().map(|&p| Json::from(p)).collect())),
        ("cycles_by_procs", Json::Arr(table)),
        ("deltas", Json::Arr(deltas.iter().map(ReportDelta::to_json).collect())),
    ]);
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_labels_parse() {
        assert_eq!(parse_protocol("WI"), Some(Protocol::WriteInvalidate));
        assert_eq!(parse_protocol("pu"), Some(Protocol::PureUpdate));
        assert_eq!(parse_protocol("c"), Some(Protocol::CompetitiveUpdate));
        assert_eq!(parse_protocol("moesi"), None);
    }
}
