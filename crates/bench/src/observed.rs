//! Fully-observed single runs, shared by the `ppc` diagnostic
//! subcommands: the command-line shape, name → kernel lookup, and a run
//! helper that enables cycle accounting, line provenance and network
//! telemetry, and message tracing when the caller reads the trace.

use kernels::runner::install_run_verify;
use kernels::runner::KernelSpec;
use kernels::workloads::{BarrierKind, LockKind, ReductionKind};
use sim_machine::{Machine, MachineConfig, RunResult, Trace};
use sim_proto::Protocol;
use sim_stats::Json;

use crate::{barrier_workload, lock_workload, reduction_workload, PROTOCOLS};

/// Command-line shape shared by the `ppc` subcommands: positional
/// arguments, an optional `--json` flag anywhere on the line, and any
/// switches and value-taking options the subcommand declares (e.g.
/// `--sweep`, `--window <c1>:<c2>`).
#[derive(Debug, Clone, Default)]
pub struct DiagArgs {
    /// Whether `--json` was passed (machine-readable output to stdout).
    pub json: bool,
    /// The remaining positional arguments, in order.
    pub positional: Vec<String>,
    /// The declared switches that were passed (read via [`DiagArgs::has`]).
    pub switches: Vec<String>,
    /// Raw values of the declared value-taking options, keyed by flag
    /// name, in the order passed (read via [`DiagArgs::opt`]).
    pub options: Vec<(String, String)>,
}

impl DiagArgs {
    /// Parses an argument list, accepting `--json`, the given switches,
    /// and the given value-taking options (each consumes the following
    /// argument as its value). Unknown `--flags` are an error so a typo
    /// (`--jsno`) fails loudly instead of being read as a kernel name.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        value_flags: &[&str],
    ) -> Result<DiagArgs, String> {
        let mut out = DiagArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => out.json = true,
                s if switches.contains(&s) => out.switches.push(a),
                s if value_flags.contains(&s) => {
                    let v = it.next().ok_or_else(|| format!("{s} needs a value"))?;
                    out.options.push((a, v));
                }
                s if s.starts_with("--") => return Err(format!("unknown flag {s:?}")),
                _ => out.positional.push(a),
            }
        }
        Ok(out)
    }

    /// Whether declared switch `name` was passed.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of value-taking option `name` (last one wins when
    /// repeated), or `None` when it was not passed.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Option `name` as a threshold ratio: `None` when it was not passed;
    /// `0`, negatives, `NaN`, `inf` and garbage are errors naming the
    /// flag (see [`crate::env_cfg::parse_positive_f64`]).
    pub fn ratio_opt(&self, name: &str) -> Result<Option<f64>, String> {
        crate::env_cfg::parse_positive_f64(name, self.opt(name))
    }

    /// Positional argument `i`, or `default` when absent.
    pub fn pos_or<'a>(&'a self, i: usize, default: &'a str) -> &'a str {
        self.positional.get(i).map(String::as_str).unwrap_or(default)
    }

    /// Positional argument `i` parsed as a count `>= 1`.
    pub fn count_or(&self, i: usize, default: usize) -> Result<usize, String> {
        match self.positional.get(i) {
            None => Ok(default),
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("invalid count {s:?}; expected an integer >= 1")),
            },
        }
    }
}

/// Runs `kernel` under every protocol and assembles the full
/// machine-readable document the `report`, `lines`, `crit` and `net`
/// subcommands share for `--json`; see [`observed_doc`].
pub fn observed_json(kernel_name: &str, procs: usize, kernel: &KernelSpec) -> Json {
    let runs: Vec<(Protocol, RunResult)> = PROTOCOLS
        .into_iter()
        .map(|protocol| (protocol, run_observed(procs, protocol, kernel, false).0))
        .collect();
    observed_doc(kernel_name, procs, &runs)
}

/// The shared observed-run document: per-protocol cycles, instructions,
/// classified traffic, and the complete
/// observability report (stall accounts, lineage, critical path, network
/// telemetry). The document is canonical (recursively sorted keys), so
/// two runs of the same spec emit byte-identical output.
pub fn observed_doc(kernel_name: &str, procs: usize, runs: &[(Protocol, RunResult)]) -> Json {
    let runs = runs
        .iter()
        .map(|(protocol, r)| {
            let obs = r.obs.as_ref().expect("machine ran observed");
            Json::obj([
                ("protocol", Json::from(protocol_name(*protocol))),
                ("cycles", Json::U64(r.cycles)),
                ("instructions", Json::U64(r.instructions)),
                ("traffic", r.traffic.to_json()),
                ("obs", obs.to_json()),
            ])
        })
        .collect();
    Json::obj([("kernel", Json::from(kernel_name)), ("procs", Json::from(procs)), ("runs", Json::Arr(runs))])
        .canonical()
}

/// Builds a kernel's workload at the current `PPC_SCALE`.
type KernelFn = fn() -> KernelSpec;

/// The kernels the diagnostic subcommands accept, by name.
const KERNELS: [(&str, KernelFn); 11] = [
    ("ticket-lock", || KernelSpec::Lock(lock_workload(LockKind::Ticket))),
    ("mcs-lock", || KernelSpec::Lock(lock_workload(LockKind::Mcs))),
    ("uc-mcs-lock", || KernelSpec::Lock(lock_workload(LockKind::McsUpdateConscious))),
    ("tas-lock", || KernelSpec::Lock(lock_workload(LockKind::TestAndSet))),
    ("ttas-lock", || KernelSpec::Lock(lock_workload(LockKind::TestAndTestAndSet))),
    ("anderson-lock", || KernelSpec::Lock(lock_workload(LockKind::AndersonQueue))),
    ("central-barrier", || KernelSpec::Barrier(barrier_workload(BarrierKind::Centralized))),
    ("dissemination-barrier", || KernelSpec::Barrier(barrier_workload(BarrierKind::Dissemination))),
    ("tree-barrier", || KernelSpec::Barrier(barrier_workload(BarrierKind::Tree))),
    ("par-reduction", || KernelSpec::Reduction(reduction_workload(ReductionKind::Parallel))),
    ("seq-reduction", || KernelSpec::Reduction(reduction_workload(ReductionKind::Sequential))),
];

/// The kernel named `name`, at the current `PPC_SCALE` workload.
pub fn kernel_by_name(name: &str) -> Option<KernelSpec> {
    KERNELS.iter().find(|(n, _)| *n == name).map(|(_, kernel)| kernel())
}

/// The kernel names [`kernel_by_name`] accepts, in table order (for usage
/// messages).
pub const KERNEL_NAMES: [&str; KERNELS.len()] = {
    let mut names = [""; KERNELS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = KERNELS[i].0;
        i += 1;
    }
    names
};

/// Runs `kernel` on an observed machine; returns the result (phase names
/// installed) and, when `trace` is set, the message trace (up to
/// [`Trace::MAX_CAPACITY`] events).
pub fn run_observed(
    procs: usize,
    protocol: Protocol,
    kernel: &KernelSpec,
    trace: bool,
) -> (RunResult, Option<Trace>) {
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    if trace {
        m.enable_trace(Trace::new(Trace::MAX_CAPACITY));
    }
    let mut r = install_run_verify(&mut m, kernel, true, Machine::run);
    if let Some(obs) = r.obs.as_mut() {
        obs.set_phase_names(kernels::phase::names());
    }
    (r, m.take_trace())
}

/// The grep-able per-run summary line every `ppc` subcommand prints:
/// `== tag == N cycles, detail, detail`. One format across the views, so
/// scripts can match `^== ` regardless of which view produced the output.
/// Empty detail strings are skipped, which lets callers pass conditional
/// suffixes unconditionally.
pub fn summary_line<I>(tag: &str, cycles: u64, details: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut s = format!("== {tag} == {cycles} cycles");
    for d in details {
        let d = d.as_ref();
        if !d.is_empty() {
            s.push_str(", ");
            s.push_str(d);
        }
    }
    s
}

/// Long protocol label ("WI"/"PU"/"CU") used by the diagnostic outputs.
pub fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::WriteInvalidate => "WI",
        Protocol::PureUpdate => "PU",
        Protocol::CompetitiveUpdate => "CU",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diag_args_parse_flags_and_positionals() {
        let a = DiagArgs::parse(["mcs-lock".into(), "--json".into(), "8".into()], &[], &[]).unwrap();
        assert!(a.json);
        assert_eq!(a.pos_or(0, "x"), "mcs-lock");
        assert_eq!(a.count_or(1, 4).unwrap(), 8);
        assert_eq!(a.pos_or(2, "fallback"), "fallback");
        assert_eq!(a.count_or(2, 7).unwrap(), 7);
        assert!(DiagArgs::parse(["--jsno".into()], &[], &[]).is_err());
        assert!(DiagArgs::parse(["k".into(), "0".into()], &[], &[]).unwrap().count_or(1, 4).is_err());
    }

    #[test]
    fn diag_args_value_flags_consume_their_value() {
        let a = DiagArgs::parse(
            ["mcs-lock".into(), "--window".into(), "100:200".into(), "--json".into()],
            &[],
            &["--window"],
        )
        .unwrap();
        assert!(a.json);
        assert_eq!(a.opt("--window"), Some("100:200"));
        assert_eq!(a.opt("--record"), None);
        assert_eq!(a.positional, vec!["mcs-lock".to_string()]);
        // A declared flag with no value fails loudly.
        let err = DiagArgs::parse(["--window".into()], &[], &["--window"]).unwrap_err();
        assert!(err.contains("--window"), "{err}");
        // Undeclared value flags are still unknown flags.
        assert!(DiagArgs::parse(["--window".into(), "1:2".into()], &[], &[]).is_err());
        // Last repeat wins.
        let a = DiagArgs::parse(
            ["--window".into(), "1:2".into(), "--window".into(), "3:4".into()],
            &[],
            &["--window"],
        )
        .unwrap();
        assert_eq!(a.opt("--window"), Some("3:4"));
    }

    #[test]
    fn diag_args_declared_switches_and_ratio_options() {
        let a =
            DiagArgs::parse(["mcs-lock".into(), "--sweep".into(), "4".into()], &["--sweep"], &[]).unwrap();
        assert!(a.has("--sweep"));
        assert!(!a.has("--json"));
        assert_eq!(a.positional, vec!["mcs-lock".to_string(), "4".to_string()]);
        assert!(
            DiagArgs::parse(["--sweep".into()], &[], &[]).is_err(),
            "undeclared switches are unknown flags"
        );
        let a = DiagArgs::parse(["--max-ratio".into(), "0".into()], &[], &["--max-ratio"]).unwrap();
        assert!(a.ratio_opt("--max-ratio").unwrap_err().contains("--max-ratio"));
        assert_eq!(DiagArgs::default().ratio_opt("--max-ratio"), Ok(None));
    }

    #[test]
    fn summary_line_is_uniform_and_skips_empty_details() {
        assert_eq!(summary_line("WI", 1234, std::iter::empty::<&str>()), "== WI == 1234 cycles");
        assert_eq!(
            summary_line("PU", 99, ["3 flow pairs", "", "7 slices"]),
            "== PU == 99 cycles, 3 flow pairs, 7 slices"
        );
    }

    #[test]
    fn every_listed_kernel_resolves() {
        for name in KERNEL_NAMES {
            assert!(kernel_by_name(name).is_some(), "{name}");
        }
        assert!(kernel_by_name("no-such-kernel").is_none());
    }
}
