//! Harness observability report: profiles the simulator *as a program*.
//!
//! Three views, all produced in one invocation:
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
//! Usage: `harness_profile [kernel] [procs] [out_dir] [--json]`
//! (defaults: `mcs-lock 8 harness-out`). Workloads honor `PPC_SCALE`;
//! the sweep honors `PPC_WORKERS`. The machine-readable document — a
//! `BenchRecord` envelope on the unified registry schema — is always
//! written to `<out>/BENCH_harness.json`; `--json` also prints it to
//! stdout. The committed `BENCH_harness.json` records a measured run.

use std::process::ExitCode;

use ppc_bench::observed::{kernel_by_name, protocol_name, run_kernel, summary_line, DiagArgs, KERNEL_NAMES};
use ppc_bench::registry::{self, BenchRecord, BENCH_SCHEMA};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use ppc_bench::{env_cfg, PROTOCOLS};
use sim_machine::{Machine, MachineConfig};
use sim_stats::{FingerprintChain, HostObsReport, Json, LatencyHist};

fn hist_line(h: &LatencyHist) -> String {
    format!("mean {:.1}, max {}", h.mean(), h.max())
}

fn print_host_report(r: &HostObsReport) {
    let wall_ms = r.wall_nanos as f64 / 1e6;
    let accounted = r.accounted_nanos();
    println!(
        "dispatch breakdown (wall {wall_ms:.1} ms, {:.1}% accounted):",
        accounted as f64 / r.wall_nanos.max(1) as f64 * 100.0
    );
    for c in &r.cats {
        if c.calls == 0 {
            continue;
        }
        println!(
            "  {:<14}{:>10} calls{:>9.1} ms{:>6.1}%",
            c.name,
            c.calls,
            c.nanos as f64 / 1e6,
            c.nanos as f64 / r.wall_nanos.max(1) as f64 * 100.0
        );
    }
    println!(
        "  {:<14}{:>10}      {:>9.1} ms{:>6.1}%",
        "loop overhead",
        "",
        r.wall_nanos.saturating_sub(accounted) as f64 / 1e6,
        r.wall_nanos.saturating_sub(accounted) as f64 / r.wall_nanos.max(1) as f64 * 100.0
    );
    let q = &r.queue;
    println!(
        "queue: {} scheduled, peak depth {}, {} far spills, {} far merged",
        q.scheduled, q.peak_depth, q.far_spills, q.far_merged
    );
    println!(
        "queue samples: depth {}; occupied slots {}; far depth {}",
        hist_line(&q.depth),
        hist_line(&q.occupied_slots),
        hist_line(&q.far_depth)
    );
    println!(
        "throughput: {} events in {wall_ms:.1} ms -> {:.0} events/sec, {:.2} events/cycle",
        r.events,
        r.events_per_sec(),
        r.events_per_cycle()
    );
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

fn main() -> ExitCode {
    let args = match DiagArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}; usage: harness_profile [kernel] [procs] [out_dir] [--json]");
            return ExitCode::FAILURE;
        }
    };
    let kernel_name = args.pos_or(0, "mcs-lock");
    let procs = match args.count_or(1, 8) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = args.pos_or(2, "harness-out");
    let Some(kernel) = kernel_by_name(kernel_name) else {
        eprintln!("unknown kernel {kernel_name:?}; one of: {}", KERNEL_NAMES.join(", "));
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }

    println!("harness profile: {kernel_name}, {procs} procs");

    // ---- 1. Host self-profile, one run per protocol -------------------
    let mut runs = Vec::new();
    let mut chains = Vec::new();
    for protocol in PROTOCOLS {
        let tag = protocol_name(protocol);
        let r = run_kernel(&mut Machine::new(MachineConfig::paper_hostobs(procs, protocol)), &kernel);
        let host = r.host.as_ref().expect("hostobs run carries a host profile");
        let fp = r.fingerprint.as_ref().expect("hostobs run carries a fingerprint");
        println!(
            "\n{}",
            summary_line(
                tag,
                r.cycles,
                [format!("{} instructions", r.instructions), format!("{} events", host.events)],
            )
        );
        print_host_report(host);
        println!("{}", fingerprint_line(fp));
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
    let rerun = run_kernel(&mut Machine::new(MachineConfig::paper_hostobs(procs, *protocol0)), &kernel);
    let rerun_fp = rerun.fingerprint.expect("hostobs re-run carries a fingerprint");
    match chain0.first_divergence(&rerun_fp) {
        None => println!("\ndeterminism: {} re-run fingerprint chain identical", protocol_name(*protocol0)),
        Some(d) => {
            eprintln!("re-run fingerprint diverged: {d:?}");
            return ExitCode::FAILURE;
        }
    }
    for (protocol, cycles, instructions, _) in &chains {
        let bare = run_kernel(&mut Machine::new(MachineConfig::paper(procs, *protocol)), &kernel);
        if (bare.cycles, bare.instructions) != (*cycles, *instructions) {
            eprintln!(
                "{}: hostobs perturbed the simulation (off: {} cycles, on: {cycles} cycles)",
                protocol_name(*protocol),
                bare.cycles
            );
            return ExitCode::FAILURE;
        }
    }
    println!("golden guard: hostobs on/off simulated results identical ({} protocols)", chains.len());

    // ---- 3. Sweep-pool profile: cold, then memo-warm ------------------
    let sweep_procs: Vec<usize> = if procs > 1 { vec![procs, (procs / 2).max(1)] } else { vec![procs] };
    let specs: Vec<RunSpec> = sweep_procs
        .iter()
        .flat_map(|&p| PROTOCOLS.into_iter().map(move |protocol| (p, protocol)))
        .map(|(p, protocol)| {
            RunSpec::with_config(
                kernels::runner::ExperimentSpec { procs: p, protocol, kernel },
                MachineConfig::paper_hostobs(p, protocol),
            )
        })
        .collect();
    let opts = SweepOptions { workers: env_cfg::env_or("PPC_WORKERS", 4usize).max(1), disk_cache: None };
    sweep::clear_memo();
    let (cold_out, cold_stats, cold_prof) = sweep::run_specs_profiled(&specs, &opts);
    let label_of = |i: usize| {
        format!("{kernel_name} p{} {}", specs[i].spec.procs, protocol_name(specs[i].spec.protocol))
    };
    println!(
        "\nsweep (cold): {} cells, {} workers: {} simulated, {} memo, {} disk, {} poisoned; wall {:.1} ms, utilization {:.0}%",
        specs.len(),
        cold_prof.workers,
        cold_stats.simulated,
        cold_stats.from_memory,
        cold_stats.from_disk,
        cold_stats.disk_poisoned,
        cold_prof.wall_ns as f64 / 1e6,
        cold_prof.utilization() * 100.0
    );
    for (w, busy) in cold_prof.worker_busy_ns().iter().enumerate() {
        let cells = cold_prof.cells.iter().filter(|c| c.worker == w).count();
        println!("  worker {w}: {cells} cells, {:.1} ms busy", *busy as f64 / 1e6);
    }
    let (warm_out, warm_stats, _) = sweep::run_specs_profiled(&specs, &opts);
    println!(
        "sweep (warm): {} simulated, {} memo, {} disk",
        warm_stats.simulated, warm_stats.from_memory, warm_stats.from_disk
    );
    if warm_stats.from_memory != specs.len() {
        eprintln!("warm sweep did not come from the memo table: {warm_stats:?}");
        return ExitCode::FAILURE;
    }
    for (i, (c, w)) in cold_out.iter().zip(&warm_out).enumerate() {
        if c.fingerprint != w.fingerprint {
            eprintln!("cell {i} ({}) fingerprint changed across memo replay", label_of(i));
            return ExitCode::FAILURE;
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
            eprintln!("cell {i} ({}) diverged from its direct run: {d:?}", label_of(i));
            return ExitCode::FAILURE;
        }
    }
    println!("determinism: sweep fingerprints match direct-run chains");

    let trace = cold_prof.chrome_trace(label_of);
    let trace_path = format!("{out_dir}/sweep_trace.json");
    if let Err(e) = std::fs::write(&trace_path, trace.render()) {
        eprintln!("cannot write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("sweep trace: {trace_path} ({} events)", trace.len());

    // ---- 4. Machine-readable document ---------------------------------
    let payload = Json::obj([
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
    ]);
    let mut metrics = Vec::new();
    for (protocol, cycles, instructions, _) in &chains {
        let tag = protocol_name(*protocol).to_ascii_lowercase();
        metrics.push((format!("cycles_{tag}"), Json::U64(*cycles)));
        metrics.push((format!("instructions_{tag}"), Json::U64(*instructions)));
    }
    let record = BenchRecord {
        schema: BENCH_SCHEMA.to_string(),
        bench: "harness".to_string(),
        title: format!("harness self-profile: {kernel_name} at {procs} procs across WI/PU/CU"),
        command: format!("harness_profile {kernel_name} {procs}"),
        git_rev: registry::git_rev(),
        host: registry::host_json(),
        spec_digest: registry::spec_digest(&[
            "harness",
            kernel_name,
            &procs.to_string(),
            &format!("{:.6}", ppc_bench::scale()),
        ]),
        metrics: Json::Obj(metrics),
        payload,
    };
    let bench_path = format!("{out_dir}/BENCH_harness.json");
    if let Err(e) = std::fs::write(&bench_path, record.render_file()) {
        eprintln!("cannot write {bench_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {bench_path}");
    if args.json {
        println!("{}", record.render_file());
    }
    ExitCode::SUCCESS
}
