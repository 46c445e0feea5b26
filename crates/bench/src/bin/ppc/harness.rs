//! `ppc harness [kernel] [procs] [out_dir] [--json]`: profiles the
//! simulator *as a program*. Three views, all produced in one invocation:
//!
//! 1. **Host self-profile** — per-protocol runs of one kernel with
//!    `MachineConfig::paper_hostobs`: wall-time breakdown by dispatch
//!    category (event pops, CPU interpretation, protocol handlers,
//!    network routing, stats hooks), event-queue analytics (bucket-wheel
//!    occupancy, far-heap spills, peak depth), and events/sec throughput.
//! 2. **Determinism fingerprints** — each run's epoch-digest chain, plus
//!    two enforcement passes: an identical re-run must produce the
//!    identical chain, and a hostobs-*off* run must produce identical
//!    simulated results (cycles and instructions) — profiling never
//!    perturbs the machine.
//! 3. **Sweep-pool profile** — a small kernel×protocol sweep run cold and
//!    then warm: per-worker utilization, per-cell durations and sources,
//!    cache hit counters, a Chrome trace of the pool
//!    (`<out>/sweep_trace.json`), and proof that fingerprints survive the
//!    memo cache byte-identically.
//!
//! The sweep takes its worker count from `PPC_WORKERS` (default: the
//! host's available parallelism) and never touches the disk cache. The
//! machine-readable document is always written to `<out>/harness.json`;
//! `--json` also prints it to stdout and moves the text report to stderr.

use kernels::runner::{install_run_verify, ExperimentSpec};
use ppc_bench::observed::{protocol_name, summary_line};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use ppc_bench::PROTOCOLS;
use sim_machine::{Machine, MachineConfig};
use sim_stats::{FingerprintChain, HostObsReport, Json, LatencyHist};

use crate::Ctx;

fn hist_line(h: &LatencyHist) -> String {
    format!("mean {:.1}, max {}", h.mean(), h.max())
}

fn host_report(r: &HostObsReport) -> String {
    let wall_ms = r.wall_nanos as f64 / 1e6;
    let mut s = format!("dispatch breakdown (wall {wall_ms:.1} ms):\n");
    for c in &r.cats {
        if c.calls == 0 {
            continue;
        }
        s.push_str(&format!(
            "  {:<14}{:>10} calls{:>9.1} ms{:>6.1}%\n",
            c.name,
            c.calls,
            c.nanos as f64 / 1e6,
            c.nanos as f64 / r.wall_nanos.max(1) as f64 * 100.0
        ));
    }
    let q = &r.queue;
    s.push_str(&format!(
        "queue: {} scheduled, peak depth {}, {} far spills, {} far merged\n",
        q.scheduled, q.peak_depth, q.far_spills, q.far_merged
    ));
    s.push_str(&format!(
        "queue samples: depth {}; occupied slots {}; far depth {}\n",
        hist_line(&q.depth),
        hist_line(&q.occupied_slots),
        hist_line(&q.far_depth)
    ));
    s.push_str(&format!(
        "throughput: {} events in {wall_ms:.1} ms -> {:.0} events/sec, {:.2} events/cycle",
        r.events,
        r.events_per_sec(),
        r.events_per_cycle()
    ));
    s
}

fn fingerprint_line(fp: &FingerprintChain) -> String {
    format!(
        "fingerprint: {} ({} epochs x {} events, state {:016x}{:016x})",
        fp.chain_digest_hex(),
        fp.epochs.len(),
        fp.epoch_events,
        fp.state_digest.0,
        fp.state_digest.1
    )
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let (kernel_name, kernel, procs) = (ctx.kernel_name.as_str(), *ctx.kernel(), ctx.procs);
    let out_dir = ctx.rest_or(0, "harness-out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    // The text report; under `--json` stdout carries only the document.
    let say = |line: String| {
        if ctx.args.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let run_cell =
        |cfg: MachineConfig| install_run_verify(&mut Machine::new(cfg), &kernel, true, Machine::run);

    say(format!("harness profile: {kernel_name}, {procs} procs"));

    // ---- 1. Host self-profile, one run per protocol -------------------
    let mut runs = Vec::new();
    let mut chains = Vec::new();
    for protocol in PROTOCOLS {
        let tag = protocol_name(protocol);
        let r = run_cell(MachineConfig::paper_hostobs(procs, protocol));
        let host = r.host.as_ref().expect("hostobs run carries a host profile");
        let fp = r.fingerprint.as_ref().expect("hostobs run carries a fingerprint");
        say(format!(
            "\n{}",
            summary_line(
                tag,
                r.cycles,
                [format!("{} instructions", r.instructions), format!("{} events", host.events)],
            )
        ));
        say(host_report(host));
        say(fingerprint_line(fp));
        runs.push(Json::obj([
            ("protocol", Json::from(tag)),
            ("cycles", Json::U64(r.cycles)),
            ("instructions", Json::U64(r.instructions)),
            ("host", host.to_json()),
            ("fingerprint", fp.to_json()),
        ]));
        chains.push((protocol, r.cycles, r.instructions, fp.clone()));
    }

    // ---- 2. Determinism: re-run and hostobs-off golden guard ----------
    let (protocol0, _, _, chain0) = &chains[0];
    let rerun = run_cell(MachineConfig::paper_hostobs(procs, *protocol0));
    let rerun_fp = rerun.fingerprint.expect("hostobs re-run carries a fingerprint");
    if let Some(d) = chain0.first_divergence(&rerun_fp) {
        return Err(format!("re-run fingerprint diverged: {d:?}"));
    }
    say(format!("\ndeterminism: {} re-run fingerprint chain identical", protocol_name(*protocol0)));
    for (protocol, cycles, instructions, _) in &chains {
        let bare = run_cell(MachineConfig::paper(procs, *protocol));
        if (bare.cycles, bare.instructions) != (*cycles, *instructions) {
            return Err(format!(
                "{}: hostobs perturbed the simulation (off: {} cycles, on: {cycles} cycles)",
                protocol_name(*protocol),
                bare.cycles
            ));
        }
    }
    say(format!("golden guard: hostobs on/off simulated results identical ({} protocols)", chains.len()));

    // ---- 3. Sweep-pool profile: cold, then memo-warm ------------------
    let sweep_procs: Vec<usize> = if procs > 1 { vec![procs, (procs / 2).max(1)] } else { vec![procs] };
    let specs: Vec<RunSpec> = sweep_procs
        .iter()
        .flat_map(|&p| PROTOCOLS.into_iter().map(move |protocol| (p, protocol)))
        .map(|(p, protocol)| {
            RunSpec::with_config(
                ExperimentSpec { procs: p, protocol, kernel },
                MachineConfig::paper_hostobs(p, protocol),
            )
        })
        .collect();
    let opts = SweepOptions { disk_cache: None, ..SweepOptions::from_env() };
    sweep::clear_memo();
    let (cold_out, cold_stats, cold_prof) = sweep::run_specs_profiled(&specs, &opts);
    let label_of = |i: usize| {
        format!("{kernel_name} p{} {}", specs[i].spec.procs, protocol_name(specs[i].spec.protocol))
    };
    say(format!(
        "\nsweep (cold): {} cells, {} workers: {} simulated, {} memo, {} disk, {} poisoned; wall {:.1} ms, utilization {:.0}%",
        specs.len(),
        cold_prof.workers,
        cold_stats.simulated,
        cold_stats.from_memory,
        cold_stats.from_disk,
        cold_stats.disk_poisoned,
        cold_prof.wall_ns as f64 / 1e6,
        cold_prof.utilization() * 100.0
    ));
    for (w, busy) in cold_prof.worker_busy_ns().iter().enumerate() {
        let cells = cold_prof.cells.iter().filter(|c| c.worker == w).count();
        say(format!("  worker {w}: {cells} cells, {:.1} ms busy", *busy as f64 / 1e6));
    }
    let (warm_out, warm_stats, _) = sweep::run_specs_profiled(&specs, &opts);
    say(format!(
        "sweep (warm): {} simulated, {} memo, {} disk",
        warm_stats.simulated, warm_stats.from_memory, warm_stats.from_disk
    ));
    if warm_stats.from_memory != specs.len() {
        return Err(format!("warm sweep did not come from the memo table: {warm_stats:?}"));
    }
    for (i, (c, w)) in cold_out.iter().zip(&warm_out).enumerate() {
        if c.fingerprint != w.fingerprint {
            return Err(format!("cell {i} ({}) fingerprint changed across memo replay", label_of(i)));
        }
    }
    // Cells matching the direct runs of section 1 must carry the very
    // same chains: worker scheduling and memoization are pure plumbing.
    for (i, spec) in specs.iter().enumerate() {
        if spec.spec.procs != procs {
            continue;
        }
        let direct =
            &chains.iter().find(|(p, ..)| *p == spec.spec.protocol).expect("all protocols ran directly").3;
        let swept = cold_out[i].fingerprint.as_ref().expect("hostobs sweep cell carries a fingerprint");
        if let Some(d) = direct.first_divergence(swept) {
            return Err(format!("cell {i} ({}) diverged from its direct run: {d:?}", label_of(i)));
        }
    }
    say("determinism: sweep fingerprints match direct-run chains".to_string());

    let trace = cold_prof.chrome_trace(label_of);
    let trace_path = format!("{out_dir}/sweep_trace.json");
    std::fs::write(&trace_path, trace.render()).map_err(|e| format!("cannot write {trace_path}: {e}"))?;
    say(format!("sweep trace: {trace_path} ({} events)", trace.len()));

    // ---- 4. Machine-readable document ---------------------------------
    let doc = Json::obj([
        ("kernel", Json::from(kernel_name)),
        ("procs", Json::from(procs)),
        ("runs", Json::Arr(runs)),
        (
            "sweep",
            Json::obj([
                ("cells", Json::from(specs.len())),
                ("cold", cold_prof.to_json()),
                (
                    "cold_stats",
                    Json::obj([
                        ("simulated", Json::from(cold_stats.simulated)),
                        ("from_memory", Json::from(cold_stats.from_memory)),
                        ("from_disk", Json::from(cold_stats.from_disk)),
                        ("disk_poisoned", Json::from(cold_stats.disk_poisoned)),
                    ]),
                ),
                ("warm_from_memory", Json::from(warm_stats.from_memory)),
            ]),
        ),
    ])
    .canonical()
    .render_pretty();
    let doc_path = format!("{out_dir}/harness.json");
    std::fs::write(&doc_path, &doc).map_err(|e| format!("cannot write {doc_path}: {e}"))?;
    say(format!("wrote {doc_path}"));
    if ctx.args.json {
        print!("{doc}");
    }
    Ok(())
}
