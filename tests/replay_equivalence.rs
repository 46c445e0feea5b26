//! Time-travel acceptance: restore-and-run-to-end is byte-identical to an
//! uninterrupted run for **every** diagnostic kernel under every protocol.
//!
//! Each cell runs a small-but-real workload twice — once plain, once with
//! epoch-aligned checkpoints — then restores the *last* checkpoint into a
//! fresh machine and drives it to completion. The resumed run must
//! reproduce the full run's figures exactly (cycles, classified traffic,
//! network counters, instructions, latency histograms), pass the kernel's
//! own correctness verifier, and extend the fingerprint chain with the
//! identical epoch digests and final state digest.

use kernels::runner::{install_run_verify, KernelSpec};
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionKind, ReductionWorkload,
};
use ppc_bench::observed::{protocol_name, KERNEL_NAMES};
use ppc_bench::PROTOCOLS;
use sim_machine::{Checkpoint, Machine, MachineConfig, RunResult, Trace, TraceEvent};
use sim_proto::Protocol;
use sim_stats::{ObsConfig, SAMPLE_INTERVAL};

const PROCS: usize = 4;
/// Small fingerprint epoch = checkpoint cadence, so even these short
/// workloads cross several checkpoint boundaries.
const EPOCH: u64 = 128;

/// A scaled-down (but still contended) workload for each kernel the
/// diagnostic binaries accept — independent of `PPC_SCALE` so the test is
/// deterministic under any environment.
fn tiny_spec(name: &str) -> KernelSpec {
    let lock = |kind| {
        KernelSpec::Lock(LockWorkload {
            kind,
            total_acquires: 96,
            cs_cycles: 5,
            post_release: PostRelease::None,
        })
    };
    let barrier = |kind| KernelSpec::Barrier(BarrierWorkload { kind, episodes: 24 });
    let reduction = |kind| KernelSpec::Reduction(ReductionWorkload { kind, episodes: 24, skew: 0 });
    match name {
        "ticket-lock" => lock(LockKind::Ticket),
        "mcs-lock" => lock(LockKind::Mcs),
        "uc-mcs-lock" => lock(LockKind::McsUpdateConscious),
        "tas-lock" => lock(LockKind::TestAndSet),
        "ttas-lock" => lock(LockKind::TestAndTestAndSet),
        "anderson-lock" => lock(LockKind::AndersonQueue),
        "central-barrier" => barrier(BarrierKind::Centralized),
        "dissemination-barrier" => barrier(BarrierKind::Dissemination),
        "tree-barrier" => barrier(BarrierKind::Tree),
        "par-reduction" => reduction(ReductionKind::Parallel),
        "seq-reduction" => reduction(ReductionKind::Sequential),
        _ => panic!("unknown kernel {name}"),
    }
}

/// Every figure a run produces, as one comparable string.
fn digest(r: &RunResult) -> String {
    format!(
        "{} {:?} {:?} {} {:?} {:?}",
        r.cycles,
        r.traffic,
        r.net,
        r.instructions,
        r.read_latency.to_raw_parts(),
        r.atomic_latency.to_raw_parts()
    )
}

fn round_trip_cell(name: &str) {
    let kernel = tiny_spec(name);
    for protocol in PROTOCOLS {
        let mut cfg = MachineConfig::paper(PROCS, protocol);
        cfg.hostobs.fingerprint = true;
        cfg.hostobs.fingerprint_epoch = EPOCH;

        // Uninterrupted reference run (fingerprints on, checkpoints off).
        let mut full_m = Machine::new(cfg.clone());
        let full = install_run_verify(&mut full_m, &kernel, true, Machine::run);

        // Checkpointed run: identical figures, plus snapshots mid-flight.
        let mut ck_m = Machine::new(cfg.clone().with_checkpoints(EPOCH));
        let ck_run = install_run_verify(&mut ck_m, &kernel, true, Machine::run);
        let tag = format!("{name}/{}", protocol_name(protocol));
        assert_eq!(digest(&ck_run), digest(&full), "{tag}: checkpointing perturbed the run");
        let checkpoints = ck_m.take_checkpoints();
        assert!(!checkpoints.is_empty(), "{tag}: workload too short — no checkpoint fired");

        // Restore the deepest checkpoint and run to the end.
        assert_resumes_identically(&cfg, &kernel, checkpoints.last().unwrap(), &full, &tag);
    }
}

/// Restores `ck` into a fresh machine and runs it to the end: the resumed
/// run must reproduce the uninterrupted run `full` byte for byte and
/// extend the fingerprint chain with its tail and final state digest.
fn assert_resumes_identically(
    cfg: &MachineConfig,
    kernel: &KernelSpec,
    ck: &Checkpoint,
    full: &RunResult,
    tag: &str,
) {
    let mut resumed_m = Machine::new(cfg.clone());
    let resumed = install_run_verify(&mut resumed_m, kernel, true, |m| {
        m.restore(&ck.blob).expect("restore failed");
        assert_eq!(m.events_dispatched(), ck.events);
        m.run()
    });
    assert_eq!(
        digest(&resumed),
        digest(full),
        "{tag}: resumed run diverged from checkpoint at event {} (cycle {})",
        ck.events,
        ck.cycle
    );
    let full_chain = full.fingerprint.as_ref().expect("fingerprints on");
    let tail = resumed.fingerprint.as_ref().expect("fingerprints on");
    assert_eq!(tail.total_events, full_chain.total_events, "{tag}");
    assert!(tail.epochs.len() < full_chain.epochs.len(), "{tag}: checkpoint was at event 0");
    let offset = full_chain.epochs.len() - tail.epochs.len();
    assert_eq!(&full_chain.epochs[offset..], &tail.epochs[..], "{tag}: fingerprint tail diverged");
    assert_eq!(tail.state_digest, full_chain.state_digest, "{tag}: final state digest diverged");
}

#[test]
fn every_kernel_resumes_byte_identically_serial() {
    for name in KERNEL_NAMES {
        round_trip_cell(name);
    }
}

/// Fig. 13's update storm, 32 processors under pure update, resumes
/// byte-identically from a checkpoint taken while the event wheel is
/// grown. The wheel starts at 1,024 cycles, grows when a delivery is
/// scheduled further ahead and never shrinks; the message trace shows such
/// a delivery before the checkpoint, so the checkpoint captures a grown
/// queue and the restore rebuilds one.
#[test]
fn update_storm_resumes_byte_identically_from_a_grown_wheel() {
    let kernel = KernelSpec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 40 });
    let epoch = 4096;
    let mut cfg = MachineConfig::paper(32, Protocol::PureUpdate);
    cfg.hostobs.fingerprint = true;
    cfg.hostobs.fingerprint_epoch = epoch;

    let mut full_m = Machine::new(cfg.clone());
    let full = install_run_verify(&mut full_m, &kernel, true, Machine::run);

    let mut ck_m = Machine::new(cfg.clone().with_checkpoints(epoch));
    ck_m.enable_trace(Trace::new(Trace::MAX_CAPACITY));
    let ck_run = install_run_verify(&mut ck_m, &kernel, true, Machine::run);
    assert_eq!(digest(&ck_run), digest(&full), "checkpointing or tracing perturbed the run");
    let trace = ck_m.take_trace().expect("trace on");
    assert_eq!(trace.dropped(), 0, "trace capacity too small");
    let grown_at = trace
        .events()
        .iter()
        .find_map(|ev| match *ev {
            TraceEvent::Send { at, delivered, .. } if delivered - at >= 1024 => Some(at),
            _ => None,
        })
        .expect("a delivery 1,024+ cycles ahead");
    let checkpoints = ck_m.take_checkpoints();
    let ck = checkpoints.iter().find(|ck| ck.cycle > grown_at).expect("a checkpoint after the growth");
    assert_resumes_identically(&cfg, &kernel, ck, &full, &format!("32p PU barrier, growth at {grown_at}"));
}

#[test]
fn windowed_replay_reproduces_the_original_run() {
    // The driver-level zoom: replay a cycle window of an obs-off ticket
    // lock run with full observability, and prove the restored run still
    // reaches the original cycle count with a non-empty window report.
    let kernel = tiny_spec("ticket-lock");
    let mut probe_m = Machine::new(MachineConfig::paper(PROCS, sim_proto::Protocol::WriteInvalidate));
    let probe = install_run_verify(&mut probe_m, &kernel, true, Machine::run);
    let (c1, c2) = (probe.cycles / 3, 2 * probe.cycles / 3);
    let w = ppc_bench::replay::window_replay(PROCS, sim_proto::Protocol::WriteInvalidate, &kernel, c1, c2)
        .expect("window replays");
    assert_eq!(w.original_cycles, probe.cycles, "recording pass matches a plain run");
    assert_eq!(w.revalidated_cycles, w.original_cycles, "restored run reaches the original end");
    assert_eq!(w.window_result.cycles, c2, "window run stops at the requested end");
    let obs = w.window_result.obs.as_ref().expect("window ran observed");
    assert!(obs.per_node.iter().any(|n| n.cycles.total() > 0), "window obs report is empty");
}

/// A window report counts from its restore point, its samples too: the
/// last sample reports no more messages than the window sent, and no node
/// more port or memory busy cycles than its window gauges.
#[test]
fn window_samples_count_from_the_restore_point() {
    let kernel = tiny_spec("ticket-lock");
    let mut cfg = MachineConfig::paper(PROCS, Protocol::WriteInvalidate);
    cfg.hostobs.fingerprint = true;
    cfg.hostobs.fingerprint_epoch = EPOCH;
    let mut ck_m = Machine::new(cfg.clone().with_checkpoints(EPOCH));
    let full = install_run_verify(&mut ck_m, &kernel, true, Machine::run);
    let checkpoints = ck_m.take_checkpoints();
    let ck = &checkpoints[checkpoints.len() / 2];
    let end = ck.cycle + 3 * SAMPLE_INTERVAL;
    assert!(ck.cycle > 0 && end < full.cycles, "the window lies inside the run");
    cfg.obs = ObsConfig::enabled();
    let window = install_run_verify(&mut Machine::new(cfg), &kernel, false, |m| {
        m.restore(&ck.blob).expect("restore failed");
        m.run_to_cycle(end)
    });
    let obs = window.obs.as_ref().expect("window ran observed");
    let samples = obs.samples.samples();
    let last = samples.last().expect("the window took samples");
    let sent: u64 = obs.msg_counts.values().sum();
    assert!(last.msgs_sent <= sent, "sampled {} messages, the window sent {sent}", last.msgs_sent);
    for (n, node) in obs.per_node.iter().enumerate() {
        let (s, g) = (last.nodes[n], node.gauges);
        assert!(
            s.tx_busy <= g.tx_busy && s.rx_busy <= g.rx_busy && s.mem_busy <= g.mem_busy,
            "node {n}: sampled tx/rx/mem busy {}/{}/{} exceed the window gauges {}/{}/{}",
            s.tx_busy,
            s.rx_busy,
            s.mem_busy,
            g.tx_busy,
            g.rx_busy,
            g.mem_busy
        );
    }
}
