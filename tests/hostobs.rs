//! Enforcement layer for harness observability (host self-profiling and
//! determinism fingerprints).
//!
//! Two promises are on trial:
//!
//! * **Zero perturbation** — running with `hostobs` enabled measures the
//!   harness but may not change the simulated machine by a single cycle,
//!   instruction, or traffic event.
//! * **Fingerprint invariance** — the epoch-digest chain is a property of
//!   the *simulated run*, not of the plumbing around it: worker count,
//!   the in-process memo table, and the on-disk sweep cache must all
//!   replay it byte-identically, and genuinely different runs must
//!   produce chains that diff to a concrete first divergence.
//!
//! Workloads are deliberately small so the whole file runs in a
//! debug-mode tier-1 pass; neither promise depends on scale.

use kernels::runner::{install_run_verify, ExperimentSpec, KernelSpec};
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionWorkload,
};
use ppc_bench::observed::{kernel_by_name, KERNEL_NAMES};
use ppc_bench::sweep::{self, RunSpec, SweepOptions};
use sim_machine::{Machine, MachineConfig};
use sim_proto::Protocol;
use sim_stats::{FingerprintChain, HostObsReport, ObsConfig, QUEUE_SAMPLE_EVERY, SAMPLE_INTERVAL};

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

/// Workload sizes are unique to this file so its memo/disk cache keys
/// never collide with other test binaries sharing the scratch space.
fn small_lock() -> KernelSpec {
    KernelSpec::Lock(LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: 192,
        cs_cycles: 40,
        post_release: PostRelease::None,
    })
}

fn small_barrier() -> KernelSpec {
    KernelSpec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 36 })
}

fn run(cfg: MachineConfig, kernel: &KernelSpec) -> sim_machine::RunResult {
    install_run_verify(&mut Machine::new(cfg), kernel, true, Machine::run)
}

/// The stopwatch's promises on one host-profiled run that dispatched
/// `events` events: every nanosecond is charged to exactly one category,
/// the profile counts the machine's events, and `event-pop` is entered
/// once at the start and once after each dispatched event (the last slice
/// holds the final, empty poll).
fn assert_stopwatch_accounts(host: &HostObsReport, events: u64, cell: &str) {
    let nanos: u64 = host.cats.iter().map(|c| c.nanos).sum();
    assert_eq!(nanos, host.wall_nanos, "{cell}: the categories sum to the wall time");
    assert_eq!(host.events, events, "{cell}: the profile's event count");
    let pops = host.cats.iter().find(|c| c.name == "event-pop").expect("pop category present");
    assert_eq!(pops.calls, events + 1, "{cell}: event-pop calls");
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppc-hostobs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six cells (2 proc counts × 3 protocols), all carrying fingerprints.
fn fingerprint_specs(kernel: &KernelSpec) -> Vec<RunSpec> {
    [2usize, 4]
        .into_iter()
        .flat_map(|procs| PROTOCOLS.into_iter().map(move |protocol| (procs, protocol)))
        .map(|(procs, protocol)| {
            RunSpec::with_config(
                ExperimentSpec { procs, protocol, kernel: *kernel },
                MachineConfig::paper_hostobs(procs, protocol),
            )
        })
        .collect()
}

fn chains(outs: &[kernels::runner::ExperimentOutcome]) -> Vec<FingerprintChain> {
    outs.iter().map(|o| o.fingerprint.clone().expect("hostobs cell carries a fingerprint")).collect()
}

#[test]
fn hostobs_never_perturbs_the_simulation() {
    for kernel in [small_lock(), small_barrier()] {
        for protocol in PROTOCOLS {
            let bare = run(MachineConfig::paper(4, protocol), &kernel);
            let obs = run(MachineConfig::paper_hostobs(4, protocol), &kernel);
            assert!(bare.host.is_none() && bare.fingerprint.is_none());
            assert_eq!(bare.cycles, obs.cycles, "{protocol:?}: cycles moved under hostobs");
            assert_eq!(bare.instructions, obs.instructions, "{protocol:?}");
            assert_eq!(
                format!("{:?}", bare.traffic),
                format!("{:?}", obs.traffic),
                "{protocol:?}: traffic classification moved under hostobs"
            );
            assert_eq!(format!("{:?}", bare.net), format!("{:?}", obs.net), "{protocol:?}");
        }
    }
}

/// Fig. 13's update storm at full width: under pure update each arrival
/// at a 32-processor centralized barrier sends its update to 31 sharers,
/// one after another from the home's transmit port, so deliveries land
/// up to ~8,000 cycles ahead. The event wheel grows to cover them: no
/// schedule reaches the far heap, and hostobs still moves no cycle.
#[test]
fn update_storm_at_32_processors_never_spills_to_the_far_heap() {
    let kernel = KernelSpec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 40 });
    let bare = run(MachineConfig::paper(32, Protocol::PureUpdate), &kernel);
    let obs = run(MachineConfig::paper_hostobs(32, Protocol::PureUpdate), &kernel);
    assert_eq!(bare.cycles, obs.cycles, "cycles moved under hostobs");
    let q = obs.host.expect("hostobs run carries a host profile").queue;
    assert!(q.scheduled > 50_000, "the storm ran: {} events scheduled", q.scheduled);
    assert_eq!((q.far_spills, q.far_merged), (0, 0), "far-heap traffic under the storm");
}

#[test]
fn host_report_accounts_for_the_run() {
    let mut m = Machine::new(MachineConfig::paper_hostobs(4, Protocol::WriteInvalidate));
    let r = install_run_verify(&mut m, &small_lock(), true, Machine::run);
    let host = r.host.expect("hostobs run carries a host profile");
    assert_eq!(host.cycles, r.cycles);
    assert!(host.events > 0, "no events popped?");
    assert_stopwatch_accounts(&host, m.events_dispatched(), "WI/4");
    assert!(host.events_per_cycle() > 0.0);

    let q = &host.queue;
    assert!(q.scheduled >= host.events, "every popped event was scheduled");
    assert!(q.peak_depth >= 1);
    assert_eq!(
        q.depth.count(),
        host.events.div_ceil(QUEUE_SAMPLE_EVERY),
        "queue occupancy is sampled at the first event and every period after"
    );

    let fp = r.fingerprint.expect("hostobs run carries a fingerprint");
    assert_eq!(fp.total_events, host.events, "fingerprint saw every event");
    assert_eq!(
        fp.epochs.len() as u64,
        host.events.div_ceil(fp.epoch_events),
        "one digest per (possibly partial) epoch"
    );
}

#[test]
fn fingerprints_are_identical_across_worker_counts() {
    let specs = fingerprint_specs(&small_lock());
    sweep::clear_memo();
    let serial = SweepOptions { workers: 1, disk_cache: None };
    let (outs, _) = sweep::run_specs_with(&specs, &serial);
    let reference = chains(&outs);
    for workers in [2, 8] {
        sweep::clear_memo();
        let (outs, _) = sweep::run_specs_with(&specs, &SweepOptions { workers, disk_cache: None });
        for (i, (got, want)) in chains(&outs).iter().zip(&reference).enumerate() {
            assert_eq!(want.first_divergence(got), None, "cell {i} diverged under {workers} workers");
            assert_eq!(got, want, "cell {i}: chains compare unequal under {workers} workers");
        }
    }
}

#[test]
fn fingerprints_survive_the_disk_cache_byte_identically() {
    let specs = fingerprint_specs(&small_barrier());
    let dir = scratch_dir("disk");
    let opts = SweepOptions { workers: 2, disk_cache: Some(dir.clone()) };

    sweep::clear_memo();
    let (cold, stats) = sweep::run_specs_with(&specs, &opts);
    assert_eq!(stats.simulated, specs.len(), "cold pass must simulate, got {stats:?}");
    let reference = chains(&cold);

    // Drop the in-process table so the warm pass exercises the on-disk
    // entry decoder (the `fp=` line), not a memory lookup.
    sweep::clear_memo();
    let (warm, stats) = sweep::run_specs_with(&specs, &opts);
    assert_eq!(stats.from_disk, specs.len(), "warm pass must replay from disk, got {stats:?}");
    assert_eq!(chains(&warm), reference, "fingerprints decoded from disk differ");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn different_runs_diff_to_a_concrete_divergence() {
    let kernel = small_lock();
    let a = run(MachineConfig::paper_hostobs(4, Protocol::WriteInvalidate), &kernel)
        .fingerprint
        .expect("fingerprint present");
    let b = run(MachineConfig::paper_hostobs(4, Protocol::PureUpdate), &kernel)
        .fingerprint
        .expect("fingerprint present");
    let d = a.first_divergence(&b).expect("different protocols must diverge");
    // Protocols diverge in the very first event epoch, and the reported
    // divergence must point there — not merely at the final state.
    assert_eq!(d, sim_stats::FingerprintDivergence::Epoch(0));
}

/// `ppc` kernel `name` at a size a debug build runs in moments.
fn tiny(name: &str) -> KernelSpec {
    match kernel_by_name(name).expect("listed kernel resolves") {
        KernelSpec::Lock(w) => KernelSpec::Lock(LockWorkload { total_acquires: 64, ..w }),
        KernelSpec::Barrier(w) => KernelSpec::Barrier(BarrierWorkload { episodes: 16, ..w }),
        KernelSpec::Reduction(w) => KernelSpec::Reduction(ReductionWorkload { episodes: 8, ..w }),
    }
}

/// Observation samples ride the run loop, not the event queue: an
/// observed run dispatches exactly the plain run's events, so pop indices
/// and fingerprint chains mean the same on both. Host profiling, with and
/// without observation, and periodic checkpoints are held to the same
/// promise: all five runs of each cell agree on every simulated result
/// and on the event stream, at 1, 2 and 4 processors.
#[test]
fn observed_and_plain_runs_dispatch_one_event_stream() {
    for procs in [1, 2, 4] {
        // Small enough that every tiny run takes a checkpoint (they are
        // cut on epoch seams, so the epoch shrinks with the cadence): the
        // shortest 1-processor cells dispatch 25 events, the shortest
        // 2-processor ones 184.
        let every = if procs == 1 { 8 } else { 64 };
        for name in KERNEL_NAMES {
            let kernel = tiny(name);
            for protocol in PROTOCOLS {
                let mut plain = MachineConfig::paper(procs, protocol);
                plain.hostobs.fingerprint = true;
                plain.hostobs.fingerprint_epoch = every;
                let observed = MachineConfig { obs: ObsConfig::enabled(), ..plain.clone() };
                let mut profiled = plain.clone();
                profiled.hostobs.enabled = true;
                let observed_profiled = MachineConfig { obs: ObsConfig::enabled(), ..profiled.clone() };
                let checkpointed = plain.clone().with_checkpoints(every);
                let runs = [plain, observed, profiled, observed_profiled, checkpointed].map(|cfg| {
                    let mut m = Machine::new(cfg);
                    let r = install_run_verify(&mut m, &kernel, true, Machine::run);
                    (r, m.events_dispatched(), m.take_checkpoints().len())
                });
                let cell = format!("{name}/{protocol:?}/{procs}");
                let [(p, p_events, _), (o, ..), (h, ..), (oh, ..), (_, _, checkpoints)] = &runs;
                let samples = o.obs.as_ref().expect("observed").samples.len() as u64;
                assert!(
                    samples > 0 || p.cycles <= SAMPLE_INTERVAL,
                    "{cell}: the observed run took no sample in {} cycles",
                    p.cycles
                );
                for (r, tag, samples) in [(h, "profiled", 0), (oh, "observed and profiled", samples)] {
                    let cell = format!("{cell}/{tag}");
                    let host = r.host.as_ref().expect("the profiled run carries a host profile");
                    assert_stopwatch_accounts(host, *p_events, &cell);
                    let sample =
                        host.cats.iter().find(|c| c.name == "stats-sample").expect("sample category");
                    assert_eq!(sample.calls, samples, "{cell}: one stats-sample call per sample");
                }
                assert!(*checkpoints > 0, "{cell}: the checkpointed run took no checkpoint");
                let p_total = p.fingerprint.as_ref().expect("fingerprinted").total_events;
                assert_eq!(p_total, *p_events, "{cell}: the fingerprint counts the events dispatched");
                let tags = ["observed", "profiled", "observed and profiled", "checkpointed"];
                for ((r, events, _), tag) in runs[1..].iter().zip(tags) {
                    let cell = format!("{cell}/{tag}");
                    assert_eq!(r.cycles, p.cycles, "{cell}: cycles");
                    assert_eq!(r.instructions, p.instructions, "{cell}: instructions");
                    assert_eq!(r.traffic, p.traffic, "{cell}: traffic report");
                    assert_eq!(r.net, p.net, "{cell}: network counters");
                    assert_eq!(r.read_latency, p.read_latency, "{cell}: read-latency histogram");
                    assert_eq!(r.atomic_latency, p.atomic_latency, "{cell}: atomic-latency histogram");
                    assert_eq!(events, p_events, "{cell}: events dispatched");
                    assert_eq!(r.fingerprint, p.fingerprint, "{cell}: fingerprint chains");
                }
            }
        }
    }
}
