//! `ppc` — the diagnostics front door. Each subcommand turns one part of
//! the paper's classified-traffic argument (Sections 4.1–4.3) into
//! tables, or profiles the simulator itself:
//!
//! | subcommand | view |
//! |---|---|
//! | `report` | stall accounts per protocol; writes `report.json` and a Chrome `trace.json` |
//! | `lines` | hottest cache lines and structures with their sharing patterns |
//! | `crit` | lock handoffs, barrier episodes, and the critical path |
//! | `net` | message journeys, the mesh heatmap, and hot homes |
//! | `harness` | host self-profile, determinism fingerprints, and the sweep pool |
//! | `diff` | two protocols side by side, or the whole protocol axis (`--sweep`) |
//! | `replay` | the first divergent event of two runs, or one cycle window (`--window`) |
//! | `overhead` | wall-clock cost of observation and checkpoints, every kernel |
//!
//! One prologue serves them all: it parses the shared [`DiagArgs`]
//! shape, resolves the kernel name (and any protocol labels after it)
//! and the processor count, and hands the rest to the subcommand.
//! `report`, `lines`, `crit` and `net` print one shared `--json`
//! document. Workloads honor `PPC_SCALE`; `ppc help` lists the arguments
//! and defaults of every subcommand.

mod crit;
mod diff;
mod harness;
mod lines;
mod net;
mod overhead;
mod replay;
mod report;

use std::process::ExitCode;

use kernels::runner::KernelSpec;
use ppc_bench::diff::parse_protocol;
use ppc_bench::observed::{kernel_by_name, observed_json, DiagArgs, KERNEL_NAMES};
use sim_proto::Protocol;

/// The kernel positional a subcommand takes.
#[derive(Clone, Copy)]
enum KernelArg {
    /// No kernel (`overhead` runs every kernel).
    None,
    /// The first positional names the kernel; there is no default.
    Required,
    /// The first positional names the kernel, defaulting to this one.
    Default(&'static str),
}

/// One subcommand: its argument shape, defaults, and entry point.
struct Sub {
    name: &'static str,
    /// Arguments after the subcommand name, for the usage text.
    synopsis: &'static str,
    /// One-line description, for the usage text.
    about: &'static str,
    kernel: KernelArg,
    /// Whether protocol labels (`wi`/`pu`/`cu`) may follow the kernel.
    protocols: bool,
    default_procs: usize,
    switches: &'static [&'static str],
    value_flags: &'static [&'static str],
    run: fn(&Ctx) -> Result<(), String>,
}

const SUBS: [Sub; 8] = [
    Sub {
        name: "report",
        synopsis: "[kernel] [procs] [out_dir] [--json]",
        about: "stall accounts; writes report.json and trace.json (mcs-lock 8 obs-out)",
        kernel: KernelArg::Default("mcs-lock"),
        protocols: false,
        default_procs: 8,
        switches: &[],
        value_flags: &[],
        run: report::run,
    },
    Sub {
        name: "lines",
        synopsis: "[kernel] [procs] [top_n] [--json]",
        about: "hottest lines and structures, sharing patterns (mcs-lock 8 8)",
        kernel: KernelArg::Default("mcs-lock"),
        protocols: false,
        default_procs: 8,
        switches: &[],
        value_flags: &[],
        run: lines::run,
    },
    Sub {
        name: "crit",
        synopsis: "[kernel] [procs] [--json]",
        about: "lock handoffs, barrier episodes, critical path (mcs-lock 8)",
        kernel: KernelArg::Default("mcs-lock"),
        protocols: false,
        default_procs: 8,
        switches: &[],
        value_flags: &[],
        run: crit::run,
    },
    Sub {
        name: "net",
        synopsis: "[kernel] [procs] [--json]",
        about: "message journeys, mesh heatmap, hot homes (central-barrier 16)",
        kernel: KernelArg::Default("central-barrier"),
        protocols: false,
        default_procs: 16,
        switches: &[],
        value_flags: &[],
        run: net::run,
    },
    Sub {
        name: "harness",
        synopsis: "[kernel] [procs] [out_dir] [--json]",
        about: "host self-profile, fingerprints, sweep pool (mcs-lock 8 harness-out)",
        kernel: KernelArg::Default("mcs-lock"),
        protocols: false,
        default_procs: 8,
        switches: &[],
        value_flags: &[],
        run: harness::run,
    },
    Sub {
        name: "diff",
        synopsis: "<kernel> <protoA> <protoB> [procs] [--json] | <kernel> --sweep [procs] [--json]",
        about: "checked report delta of two protocols, or of WI/PU/CU (procs 8)",
        kernel: KernelArg::Required,
        protocols: true,
        default_procs: 8,
        switches: &["--sweep"],
        value_flags: &[],
        run: diff::run,
    },
    Sub {
        name: "replay",
        synopsis: "<kernel> <protoA> <protoB> [procs] [--json] | <kernel> <proto> [procs] --window <c1>:<c2> [--json]",
        about: "first divergent event, or one observed cycle window (procs 8)",
        kernel: KernelArg::Required,
        protocols: true,
        default_procs: 8,
        switches: &[],
        value_flags: &["--window"],
        run: replay::run,
    },
    Sub {
        name: "overhead",
        synopsis: "[procs] [--max-ratio R] [--checkpoint-max-ratio R]",
        about: "observation and checkpoint wall-clock ratios, every kernel (procs 8)",
        kernel: KernelArg::None,
        protocols: false,
        default_procs: 8,
        switches: &[],
        value_flags: &["--max-ratio", "--checkpoint-max-ratio"],
        run: overhead::run,
    },
];

/// What the prologue resolved from the command line.
struct Ctx {
    args: DiagArgs,
    kernel_name: String,
    /// `None` only for subcommands without a kernel argument.
    kernel: Option<KernelSpec>,
    /// Protocol labels that followed the kernel, in order.
    protocols: Vec<Protocol>,
    procs: usize,
    /// Index of the first positional argument after the processor count.
    rest_at: usize,
    /// `usage: ppc <name> <synopsis>`, for the subcommand's own errors.
    usage: String,
}

impl Ctx {
    fn kernel(&self) -> &KernelSpec {
        self.kernel.as_ref().expect("subcommand takes a kernel")
    }

    /// Positional argument `i` after the processor count, or `default`.
    fn rest_or<'a>(&'a self, i: usize, default: &'a str) -> &'a str {
        self.args.pos_or(self.rest_at + i, default)
    }

    /// Exactly `N` protocol labels after the kernel, or a usage error.
    fn protocols<const N: usize>(&self) -> Result<[Protocol; N], String> {
        <[Protocol; N]>::try_from(self.protocols.as_slice()).map_err(|_| {
            let what = if N == 1 { "a protocol" } else { "protocols" };
            format!("expected {what} (wi/pu/cu) after the kernel\n{}", self.usage)
        })
    }

    /// Prints the shared observed-run document (the `--json` output of
    /// `report`, `lines`, `crit` and `net`).
    fn print_observed_json(&self) {
        println!("{}", observed_json(&self.kernel_name, self.procs, self.kernel()).render_pretty());
    }
}

fn prologue(sub: &Sub, argv: Vec<String>) -> Result<Ctx, String> {
    let usage = format!("usage: ppc {} {}", sub.name, sub.synopsis);
    let args = DiagArgs::parse(argv, sub.switches, sub.value_flags).map_err(|e| format!("{e}\n{usage}"))?;
    let mut i = 0;
    let (kernel_name, kernel) = match sub.kernel {
        KernelArg::None => (String::new(), None),
        KernelArg::Required | KernelArg::Default(_) => {
            let name = match (args.positional.first(), sub.kernel) {
                (Some(name), _) => {
                    i = 1;
                    name.clone()
                }
                (None, KernelArg::Default(name)) => name.to_string(),
                _ => return Err(format!("missing kernel name\n{usage}")),
            };
            let kernel = kernel_by_name(&name)
                .ok_or_else(|| format!("unknown kernel {name:?}; one of: {}", KERNEL_NAMES.join(", ")))?;
            (name, Some(kernel))
        }
    };
    let mut protocols = Vec::new();
    while let Some(p) = args.positional.get(i).filter(|_| sub.protocols).and_then(|s| parse_protocol(s)) {
        protocols.push(p);
        i += 1;
    }
    let procs = args.count_or(i, sub.default_procs).map_err(|e| format!("invalid processor count: {e}"))?;
    Ok(Ctx { args, kernel_name, kernel, protocols, procs, rest_at: i + 1, usage })
}

fn usage() -> String {
    let mut s = String::from("usage: ppc <subcommand> [args]\n\nsubcommands (defaults in parentheses):\n");
    for sub in &SUBS {
        s.push_str(&format!("  {:<9}{}\n  {:<9}  {}\n", sub.name, sub.synopsis, "", sub.about));
    }
    s.push_str(&format!("\nkernels: {}\n", KERNEL_NAMES.join(", ")));
    s.push_str("workloads honor PPC_SCALE (fraction of the paper's iteration counts)\n");
    s
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next();
    let Some(sub) = SUBS.iter().find(|s| Some(s.name) == name.as_deref()) else {
        match name.as_deref() {
            Some("help" | "-h" | "--help") => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            Some(other) => eprintln!("unknown subcommand {other:?}\n"),
            None => eprintln!("missing subcommand\n"),
        }
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    match prologue(sub, argv.collect()).and_then(|ctx| (sub.run)(&ctx)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
