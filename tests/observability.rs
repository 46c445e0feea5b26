//! End-to-end checks of the observability subsystem: cycle accounting
//! closes exactly against the wall clock, sampling is on-cadence and
//! deterministic, phases attribute where the kernels say they do, and the
//! Chrome-trace export is well-formed.

use kernels::runner::{install_run_verify, KernelSpec};
use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionKind, ReductionWorkload,
};
use kernels::{locks, phase};
use sim_machine::{export_run, Machine, MachineConfig, RunResult, Trace, TraceEvent};
use sim_proto::Protocol;
use sim_stats::{ChromeTrace, CpuClass, Json, ObsReport, CPU_CLASSES};

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

fn lock_workload(total: u32) -> LockWorkload {
    LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: total,
        cs_cycles: 20,
        post_release: PostRelease::None,
    }
}

fn run_observed_lock(procs: usize, protocol: Protocol) -> RunResult {
    let w = lock_workload(64);
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    let layout = locks::install(&mut m, &w);
    let r = m.run();
    locks::verify(&mut m, &w, &layout);
    r
}

#[test]
fn per_node_accounts_sum_to_wall_clock_under_every_protocol() {
    for protocol in PROTOCOLS {
        let r = run_observed_lock(4, protocol);
        let obs = r.obs.as_ref().expect("observed run");
        assert_eq!(obs.wall_cycles, r.cycles, "{protocol:?}");
        for (n, node) in obs.per_node.iter().enumerate() {
            assert_eq!(
                node.cycles.total(),
                r.cycles,
                "{protocol:?} node {n}: classes must cover every cycle exactly once"
            );
            let phase_sum: u64 = node.by_phase.values().map(|a| a.total()).sum();
            assert_eq!(phase_sum, r.cycles, "{protocol:?} node {n}: phase split covers the run");
        }
        let grand: u64 = obs.phase_totals.values().map(|a| a.total()).sum();
        assert_eq!(grand, r.cycles * obs.per_node.len() as u64, "{protocol:?}");
    }
}

#[test]
fn lock_phases_attribute_where_expected() {
    let r = run_observed_lock(4, Protocol::WriteInvalidate);
    let obs = r.obs.as_ref().unwrap();
    // Every processor ran 16 critical sections of 20 cycles; the `hold`
    // phase is pure delay, so its machine-wide total is exact.
    assert_eq!(obs.phase_totals[&phase::HOLD].total(), 64 * 20);
    // Contended MCS: waiting dominates inside `acquire`, and the spin wait
    // lands in BarrierWait there, not in `hold` or `setup`.
    let acquire = &obs.phase_totals[&phase::ACQUIRE];
    assert!(acquire.get(CpuClass::BarrierWait) > 0, "spin wait shows up in acquire");
    assert_eq!(obs.phase_totals[&phase::HOLD].get(CpuClass::BarrierWait), 0);
}

#[test]
fn sampler_runs_on_cadence() {
    let r = run_observed_lock(4, Protocol::WriteInvalidate);
    let obs = r.obs.as_ref().unwrap();
    let samples = obs.samples.samples();
    assert!(!samples.is_empty(), "run is long enough to sample");
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.at, (i as u64 + 1) * obs.sample_interval, "sample {i} on the grid");
        assert_eq!(s.nodes.len(), 4);
    }
    assert!(samples.last().unwrap().at <= r.cycles, "sampling stops once every processor halted");
}

#[test]
fn zero_length_run_observes_cleanly() {
    // No programs: the machine halts at cycle 0 and the sampler never
    // fires, but the report is still complete and serializable.
    let mut m = Machine::new(MachineConfig::paper_observed(2, Protocol::WriteInvalidate));
    let r = m.run();
    assert_eq!(r.cycles, 0);
    let obs = r.obs.as_ref().expect("observed config");
    assert_eq!(obs.wall_cycles, 0);
    assert!(obs.samples.is_empty(), "nothing to sample in a zero-cycle run");
    for node in &obs.per_node {
        assert_eq!(node.cycles.total(), 0);
    }
    assert!(obs.lineage.blocks.is_empty(), "no accesses, no traced blocks");
    Json::parse(&obs.to_json().render()).expect("empty report serializes");
}

#[test]
fn single_cycle_run_accounts_fully_without_samples() {
    let mut m = Machine::new(MachineConfig::paper_observed(2, Protocol::WriteInvalidate));
    let mut b = sim_isa::ProgramBuilder::new();
    b.delay(1).halt();
    m.set_program(0, b.build());
    let r = m.run();
    assert!(r.cycles >= 1, "the delay costs at least one cycle");
    let obs = r.obs.as_ref().unwrap();
    assert_eq!(obs.wall_cycles, r.cycles);
    // Far below the sampling interval: the series stays empty rather than
    // emitting a partial tick.
    assert!(r.cycles < obs.sample_interval);
    assert!(obs.samples.is_empty());
    for (n, node) in obs.per_node.iter().enumerate() {
        assert_eq!(node.cycles.total(), r.cycles, "node {n} covers the whole run");
    }
}

#[test]
fn observed_reruns_are_deterministic() {
    let a = run_observed_lock(4, Protocol::CompetitiveUpdate);
    let b = run_observed_lock(4, Protocol::CompetitiveUpdate);
    assert_eq!(a.cycles, b.cycles);
    let (oa, ob) = (a.obs.as_ref().unwrap(), b.obs.as_ref().unwrap());
    assert_eq!(oa.samples.len(), ob.samples.len());
    for (sa, sb) in oa.samples.samples().iter().zip(ob.samples.samples()) {
        assert_eq!(sa.at, sb.at);
        assert_eq!(sa.nodes, sb.nodes);
        assert_eq!(sa.msgs_sent, sb.msgs_sent);
        assert_eq!(sa.flits_sent, sb.flits_sent);
    }
    for (na, nb) in oa.per_node.iter().zip(&ob.per_node) {
        assert_eq!(na.cycles, nb.cycles);
        assert_eq!(na.timeline, nb.timeline);
    }
}

/// A tiny fixed workload for each of the 11 kernels the `ppc`
/// subcommands accept by name (every lock, barrier and reduction kind).
fn every_kernel() -> Vec<KernelSpec> {
    let lock = |kind| KernelSpec::Lock(LockWorkload { kind, ..lock_workload(64) });
    let barrier = |kind| KernelSpec::Barrier(BarrierWorkload { kind, episodes: 16 });
    let reduction = |kind| KernelSpec::Reduction(ReductionWorkload { kind, episodes: 16, skew: 0 });
    vec![
        lock(LockKind::Ticket),
        lock(LockKind::Mcs),
        lock(LockKind::McsUpdateConscious),
        lock(LockKind::TestAndSet),
        lock(LockKind::TestAndTestAndSet),
        lock(LockKind::AndersonQueue),
        barrier(BarrierKind::Centralized),
        barrier(BarrierKind::Dissemination),
        barrier(BarrierKind::Tree),
        reduction(ReductionKind::Parallel),
        reduction(ReductionKind::Sequential),
    ]
}

#[test]
fn observing_does_not_change_results() {
    for kernel in every_kernel() {
        for protocol in PROTOCOLS {
            let run = |cfg| install_run_verify(&mut Machine::new(cfg), &kernel, true, Machine::run);
            let rp = run(MachineConfig::paper(4, protocol));
            let ro = run(MachineConfig::paper_observed(4, protocol));
            let tag = format!("{kernel:?} {protocol:?}");
            assert_eq!(rp.cycles, ro.cycles, "{tag}: observation is passive");
            assert_eq!(rp.instructions, ro.instructions, "{tag}");
            assert_eq!(rp.traffic.misses, ro.traffic.misses, "{tag}: per-class miss counts");
            assert_eq!(rp.traffic.updates, ro.traffic.updates, "{tag}: per-class update counts");
        }
    }
}

#[test]
fn message_counts_match_net_counters() {
    let r = run_observed_lock(4, Protocol::PureUpdate);
    let obs = r.obs.as_ref().unwrap();
    let counted: u64 = obs.msg_counts.values().sum();
    assert_eq!(counted, r.net.messages + r.net.local_messages);
    assert_eq!(obs.msg_latency.count(), counted);
    let flits: u64 = obs.endpoint_pair_flits.iter().map(|l| l.flits).sum();
    assert_eq!(flits, r.net.flits, "per-endpoint-pair flits sum to the global counter");
}

/// A 2-node WI ping-pong whose Chrome trace must draw exactly one matched
/// flow per traced send (the golden-shape check for the flow exporter).
#[test]
fn chrome_trace_flow_pairs_match_for_ping_pong() {
    let mut m = Machine::new(MachineConfig::paper_observed(2, Protocol::WriteInvalidate));
    m.enable_trace(Trace::new(Trace::MAX_CAPACITY));
    let w = lock_workload(32);
    let layout = locks::install(&mut m, &w);
    let mut r = m.run();
    locks::verify(&mut m, &w, &layout);
    if let Some(obs) = r.obs.as_mut() {
        obs.set_phase_names(phase::names());
    }
    let events = m.take_trace().unwrap();
    assert_eq!(events.dropped(), 0, "trace buffer held the whole run");
    let sends = events.events().iter().filter(|e| matches!(e, TraceEvent::Send { .. })).count() as u64;

    let mut trace = ChromeTrace::new();
    let stats = export_run(&mut trace, 1, "WI", &r, events.events(), 0);
    assert!(stats.flow_pairs > 0);
    assert_eq!(stats.flow_pairs, sends, "one flow per traced send");

    let parsed = Json::parse(&trace.render()).expect("trace renders as valid JSON");
    let events = parsed.as_arr().unwrap();
    let begins: Vec<_> = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("b")).collect();
    let ends: Vec<_> = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("e")).collect();
    // Message flows plus the lineage exporter's invalidation→miss flows:
    // every consumed flow id produced exactly one begin/end pair.
    assert!(stats.next_flow_id >= stats.flow_pairs);
    assert_eq!(begins.len() as u64, stats.next_flow_id);
    assert_eq!(begins.len(), ends.len());
    for (b, e) in begins.iter().zip(&ends) {
        assert_eq!(b.get("id"), e.get("id"), "pairs are emitted adjacently");
        assert_eq!(b.get("cat"), e.get("cat"));
        assert!(
            b.get("ts").and_then(Json::as_u64) <= e.get("ts").and_then(Json::as_u64),
            "flow ends at or after its begin"
        );
    }
    // Phase names flowed through to the slice args.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("args").and_then(|a| a.get("phase")).and_then(Json::as_str) == Some("acquire")
    }));
}

/// Under contention a WI home defers requests for a busy block and handles
/// each again once the block frees, so a traced ticket-lock run records
/// more handles than sends. The Chrome export draws exactly one `msg`
/// arrow per send all the same, from the sender at injection to the
/// receiver at network delivery.
#[test]
fn contended_trace_draws_one_arrow_per_send_despite_deferred_handles() {
    let w = LockWorkload {
        kind: LockKind::Ticket,
        total_acquires: 800,
        cs_cycles: 50,
        post_release: PostRelease::None,
    };
    let mut m = Machine::new(MachineConfig::paper(8, Protocol::WriteInvalidate));
    m.enable_trace(Trace::new(Trace::MAX_CAPACITY));
    let layout = locks::install(&mut m, &w);
    let r = m.run();
    locks::verify(&mut m, &w, &layout);
    let traced = m.take_trace().unwrap();
    assert_eq!(traced.dropped(), 0, "trace buffer held the whole run");
    let sends: Vec<_> = traced
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Send { at, delivered, src, dst, .. } => Some((src as u64, dst as u64, at, delivered)),
            _ => None,
        })
        .collect();
    let handles = traced.events().iter().filter(|e| matches!(e, TraceEvent::Handle { .. })).count();
    assert!(
        handles > sends.len(),
        "deferred requests are handled twice: {handles} handles, {} sends",
        sends.len()
    );

    let mut trace = ChromeTrace::new();
    let stats = export_run(&mut trace, 1, "WI", &r, traced.events(), 0);
    assert_eq!(stats.flow_pairs, sends.len() as u64, "one arrow per traced send");
    let exported = Json::parse(&trace.render()).expect("the rendered trace parses");
    let msg = |ph: &str| -> Vec<(u64, u64, u64)> {
        let events = exported.as_arr().unwrap().iter();
        events
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some(ph)
                    && e.get("cat").and_then(Json::as_str) == Some("msg")
            })
            .map(|e| {
                let field = |k| e.get(k).and_then(Json::as_u64).unwrap();
                (field("id"), field("tid"), field("ts"))
            })
            .collect()
    };
    let (begins, ends) = (msg("b"), msg("e"));
    assert_eq!((begins.len(), ends.len()), (sends.len(), sends.len()));
    for ((b, e), &(src, dst, at, delivered)) in begins.iter().zip(&ends).zip(&sends) {
        assert_eq!(b.0, e.0, "begin and end share an id");
        assert_eq!((b.1, b.2), (src, at), "the arrow leaves the sender at injection");
        assert_eq!((e.1, e.2), (dst, delivered), "the arrow ends at the send's delivery");
    }
}

#[test]
fn report_json_is_complete_and_parses() {
    let mut r = run_observed_lock(4, Protocol::WriteInvalidate);
    r.obs.as_mut().unwrap().set_phase_names(phase::names());
    let obs: &ObsReport = r.obs.as_ref().unwrap();
    let rendered = obs.to_json().render_pretty();
    let parsed = Json::parse(&rendered).expect("report parses");
    assert_eq!(parsed.get("wall_cycles").and_then(Json::as_u64), Some(r.cycles));
    let per_node = parsed.get("per_node").unwrap().as_arr().unwrap();
    assert_eq!(per_node.len(), 4);
    for node in per_node {
        let sum: u64 = CPU_CLASSES
            .iter()
            .map(|c| node.get("cycles").unwrap().get(c.name()).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(sum, r.cycles);
    }
    assert!(parsed.get("phase_totals").unwrap().get("acquire").is_some(), "names installed");
    assert!(parsed.get("endpoint_pair_flits").is_some(), "renamed from the pre-netobs link_flits key");
    assert!(parsed.get("link_flits").is_none(), "old key is gone from the schema");
    let netobs = parsed.get("netobs").expect("observed runs embed the network-telemetry report");
    assert!(netobs.get("journeys").is_some());
    assert!(netobs.get("homes").is_some());
}
