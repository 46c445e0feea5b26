//! End-to-end checks of the synchronization-aware critical-path profiler:
//! the causal chain reconciles exactly against the stall accounting under
//! every protocol, lock handoff records are internally consistent, and the
//! episode analytics mechanically reproduce the paper's claims — MCS
//! handoff latency is remote-miss dominated under write-invalidate and
//! collapses to release visibility under the update protocols, and
//! reduction barrier time is arrival imbalance, not release broadcast.

use kernels::workloads::{
    BarrierKind, BarrierWorkload, LockKind, LockWorkload, PostRelease, ReductionKind, ReductionWorkload,
};
use kernels::{barriers, locks, reductions};
use sim_machine::{Machine, MachineConfig, RunResult};
use sim_proto::Protocol;
use sim_stats::{check_reconciliation, CritReport, Json};

const PROTOCOLS: [Protocol; 3] =
    [Protocol::WriteInvalidate, Protocol::PureUpdate, Protocol::CompetitiveUpdate];

/// The magic lock/barrier id space (`machine::MAGIC_SYNC_BASE`): magic
/// episodes report clear of the kernel marker ids, which start at 0.
const MAGIC_SYNC_BASE: u32 = 0x100;

#[derive(Clone, Copy)]
enum Spec {
    Lock(LockWorkload),
    Barrier(BarrierWorkload),
    Reduction(ReductionWorkload),
}

fn mcs(total: u32) -> Spec {
    Spec::Lock(LockWorkload {
        kind: LockKind::Mcs,
        total_acquires: total,
        cs_cycles: 20,
        post_release: PostRelease::None,
    })
}

fn run_observed(procs: usize, protocol: Protocol, spec: Spec) -> RunResult {
    let mut m = Machine::new(MachineConfig::paper_observed(procs, protocol));
    match spec {
        Spec::Lock(w) => {
            let layout = locks::install(&mut m, &w);
            let r = m.run();
            locks::verify(&mut m, &w, &layout);
            r
        }
        Spec::Barrier(w) => {
            let layout = barriers::install(&mut m, &w);
            let r = m.run();
            barriers::verify(&mut m, &w, &layout);
            r
        }
        Spec::Reduction(w) => {
            let layout = reductions::install(&mut m, &w);
            let r = m.run();
            reductions::verify(&mut m, &w, &layout);
            r
        }
    }
}

fn crit(r: &RunResult) -> &CritReport {
    &r.obs.as_ref().expect("observed run").crit
}

#[test]
fn chain_reconciles_against_stall_accounting_everywhere() {
    let specs: [(&str, Spec); 6] = [
        ("mcs-lock", mcs(64)),
        (
            "ticket-lock",
            Spec::Lock(LockWorkload {
                kind: LockKind::Ticket,
                total_acquires: 64,
                cs_cycles: 20,
                post_release: PostRelease::None,
            }),
        ),
        ("central-barrier", Spec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 24 })),
        (
            "dissemination-barrier",
            Spec::Barrier(BarrierWorkload { kind: BarrierKind::Dissemination, episodes: 24 }),
        ),
        (
            "par-reduction",
            Spec::Reduction(ReductionWorkload { kind: ReductionKind::Parallel, episodes: 20, skew: 0 }),
        ),
        (
            "seq-reduction",
            Spec::Reduction(ReductionWorkload { kind: ReductionKind::Sequential, episodes: 20, skew: 0 }),
        ),
    ];
    for (name, spec) in specs {
        for protocol in PROTOCOLS {
            let r = run_observed(4, protocol, spec);
            let obs = r.obs.as_ref().unwrap();
            check_reconciliation(crit(&r), r.cycles, &obs.phase_totals)
                .unwrap_or_else(|e| panic!("{name} under {protocol:?}: {e}"));
        }
    }
}

#[test]
fn critical_path_tail_is_a_contiguous_suffix_of_the_run() {
    let r = run_observed(4, Protocol::WriteInvalidate, mcs(64));
    let c = &crit(&r).critical_path;
    assert!(!c.segments.is_empty());
    let retained: u64 = c.segments.iter().map(|s| s.end - s.start).sum();
    assert_eq!(retained + c.elided_cycles, c.wall, "tail + compacted prefix covers the run");
    for w in c.segments.windows(2) {
        assert_eq!(w[1].start, w[0].end, "retained tail is contiguous");
    }
    assert_eq!(c.segments.last().unwrap().end, c.wall, "chain ends at the wall clock");
}

#[test]
fn mcs_handoff_records_are_internally_consistent() {
    for protocol in PROTOCOLS {
        let r = run_observed(8, protocol, mcs(64));
        let report = crit(&r);
        let l = report.lock(0).unwrap_or_else(|| panic!("{protocol:?}: kernel lock id 0 reported"));
        assert_eq!(l.acquires, 64, "{protocol:?}");
        assert_eq!(l.handoffs, 63, "{protocol:?}: every acquire after the first is a handoff");
        assert_eq!(l.records.len(), 63, "{protocol:?}: under the cap, every handoff is retained");
        assert_eq!(l.records_dropped, 0, "{protocol:?}");
        let (mut rv, mut rm, mut other, mut queue) = (0, 0, 0, 0);
        for h in &l.records {
            assert!(h.acquired_at >= h.released_at, "{protocol:?}");
            assert_eq!(
                h.release_visibility + h.remote_miss + h.other,
                h.latency(),
                "{protocol:?}: the split covers the release→acquire window exactly"
            );
            rv += h.release_visibility;
            rm += h.remote_miss;
            other += h.other;
            queue += h.queue_wait;
        }
        assert_eq!(rv, l.release_visibility, "{protocol:?}");
        assert_eq!(rm, l.remote_miss, "{protocol:?}");
        assert_eq!(other, l.other, "{protocol:?}");
        assert_eq!(queue, l.queue_wait, "{protocol:?}");
        assert_eq!(l.handoff_cycles(), rv + rm + other, "{protocol:?}");
    }
}

/// The paper's Section 4.1 claim, mechanically: under write-invalidate the
/// MCS handoff is dominated by the successor's remote miss re-fetching its
/// spin flag; the update protocols deliver the release in place, so the
/// miss component vanishes and the handoff gets cheaper.
#[test]
fn mcs_handoff_is_remote_miss_dominated_under_wi_and_cheaper_under_updates() {
    let wi = run_observed(8, Protocol::WriteInvalidate, mcs(64));
    let pu = run_observed(8, Protocol::PureUpdate, mcs(64));
    let cu = run_observed(8, Protocol::CompetitiveUpdate, mcs(64));
    let (wi, pu, cu) = (crit(&wi), crit(&pu), crit(&cu));
    let (lwi, lpu, lcu) = (wi.lock(0).unwrap(), pu.lock(0).unwrap(), cu.lock(0).unwrap());
    assert!(
        lwi.remote_miss > lwi.release_visibility,
        "WI handoff is remote-miss dominated: miss {} vs visibility {}",
        lwi.remote_miss,
        lwi.release_visibility
    );
    assert_eq!(lpu.remote_miss, 0, "pure update delivers the release in place");
    assert_eq!(lcu.remote_miss, 0, "the spin keeps the flag line above the competitive threshold");
    let avg = |l: &sim_stats::LockReport| l.handoff_cycles() as f64 / l.handoffs as f64;
    assert!(
        avg(lwi) > avg(lpu) && avg(lwi) > avg(lcu),
        "updates shorten the handoff: WI {:.1} vs PU {:.1} / CU {:.1}",
        avg(lwi),
        avg(lpu),
        avg(lcu)
    );
}

/// The paper's Section 4.2/4.3 claim, mechanically: with real (serialized)
/// work between episodes, barrier time is arrival imbalance, not release
/// broadcast — under every protocol.
#[test]
fn reduction_barrier_time_is_arrival_imbalance_not_release_broadcast() {
    for protocol in PROTOCOLS {
        let r = run_observed(
            8,
            protocol,
            Spec::Reduction(ReductionWorkload { kind: ReductionKind::Parallel, episodes: 20, skew: 0 }),
        );
        let report = crit(&r);
        let b = report
            .barrier(MAGIC_SYNC_BASE)
            .unwrap_or_else(|| panic!("{protocol:?}: magic barrier reported under the magic id space"));
        // The parallel reduction crosses the magic barrier twice per
        // episode (before and after combining).
        assert_eq!(b.episodes, 40, "{protocol:?}");
        assert_eq!(b.incomplete, 0, "{protocol:?}");
        assert!(
            b.imbalance_cycles > b.fanout_cycles,
            "{protocol:?}: imbalance {} should dominate fanout {}",
            b.imbalance_cycles,
            b.fanout_cycles
        );
        assert!(report.lock(MAGIC_SYNC_BASE).is_some(), "{protocol:?}: combining lock reported too");
    }
}

/// The flip side on the pure spin-barrier microbenchmark: with no work
/// between episodes arrivals are synchronized, so what's left is the
/// release broadcast — and write-invalidate pays more for it than pure
/// update (the spin crowd re-faults the sense word).
#[test]
fn central_barrier_release_broadcast_costs_more_under_wi() {
    let spec = Spec::Barrier(BarrierWorkload { kind: BarrierKind::Centralized, episodes: 24 });
    let wi = run_observed(8, Protocol::WriteInvalidate, spec);
    let pu = run_observed(8, Protocol::PureUpdate, spec);
    let (bwi, bpu) = (crit(&wi).barrier(0).unwrap().clone(), crit(&pu).barrier(0).unwrap().clone());
    assert_eq!(bwi.episodes, 24);
    assert_eq!(bwi.incomplete, 0);
    for e in &bwi.records {
        assert!(e.first_arrive <= e.last_arrive && e.last_arrive <= e.last_depart);
    }
    assert!(
        bwi.fanout_cycles > bpu.fanout_cycles,
        "WI fanout {} should exceed PU fanout {}",
        bwi.fanout_cycles,
        bpu.fanout_cycles
    );
}

/// The full `obs_report`-shaped trace (three protocols sharing one trace,
/// cpu timelines + lineage lanes + the new sync-episode lanes) is valid
/// Chrome JSON: every async begin has exactly one matching end at a later
/// or equal timestamp, and every track's slices appear in non-negative,
/// monotonically non-decreasing timestamp order.
#[test]
fn exported_trace_is_well_formed_across_all_lanes() {
    use sim_machine::{export_run, Trace, CRIT_TRACK_BASE, NET_TRACK_BASE};
    use sim_stats::ChromeTrace;
    use std::collections::HashMap;

    let mut trace = ChromeTrace::new();
    let mut next_flow_id = 0;
    for (i, protocol) in PROTOCOLS.into_iter().enumerate() {
        let mut m = Machine::new(MachineConfig::paper_observed(4, protocol));
        m.enable_trace(Trace::new(Trace::MAX_CAPACITY));
        let Spec::Lock(w) = mcs(48) else { unreachable!() };
        let layout = locks::install(&mut m, &w);
        let r = m.run();
        locks::verify(&mut m, &w, &layout);
        let events = m.take_trace().unwrap();
        let stats = export_run(&mut trace, i as u64 + 1, "p", &r, events.events(), next_flow_id);
        next_flow_id = stats.next_flow_id;
    }

    let parsed = Json::parse(&trace.render()).expect("trace renders as valid JSON");
    let events = parsed.as_arr().expect("trace is a JSON array");
    assert!(!events.is_empty());

    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64);
    let mut last_ts: HashMap<(u64, u64), u64> = HashMap::new();
    // (pid, cat, id) -> (begin count, end count, begin ts, end ts).
    type FlowEnds = (u64, u64, Option<u64>, Option<u64>);
    let mut flows: HashMap<(u64, String, u64), FlowEnds> = HashMap::new();
    let mut crit_tracks = 0;
    let mut net_tracks = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("every event has a phase");
        let pid = field(e, "pid").expect("every event has a pid");
        let tid = field(e, "tid").expect("every event has a tid");
        let ts = field(e, "ts").expect("timestamps are non-negative integers");
        match ph {
            "X" => {
                field(e, "dur").expect("complete events carry a non-negative dur");
                let prev = last_ts.insert((pid, tid), ts).unwrap_or(0);
                assert!(ts >= prev, "track ({pid},{tid}): slice at {ts} after one at {prev}");
            }
            "b" | "e" => {
                let cat = e.get("cat").and_then(Json::as_str).unwrap_or("").to_string();
                let id = field(e, "id").expect("async events carry an id");
                let slot = flows.entry((pid, cat, id)).or_insert((0, 0, None, None));
                if ph == "b" {
                    slot.0 += 1;
                    slot.2 = Some(ts);
                } else {
                    slot.1 += 1;
                    slot.3 = Some(ts);
                }
            }
            "i" | "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
        if ph == "M" && (CRIT_TRACK_BASE..NET_TRACK_BASE).contains(&tid) {
            crit_tracks += 1;
        }
        if ph == "M" && tid >= NET_TRACK_BASE {
            net_tracks += 1;
        }
    }
    for ((pid, cat, id), (b, e, bts, ets)) in &flows {
        assert_eq!((b, e), (&1, &1), "flow {pid}/{cat}/{id} must be a matched begin/end pair");
        assert!(ets.unwrap() >= bts.unwrap(), "flow {pid}/{cat}/{id} ends before it begins");
    }
    assert_eq!(crit_tracks, 3, "each protocol contributes its lock-ownership track");
    assert!(net_tracks >= 3, "each protocol contributes per-link utilisation tracks");
    assert!(
        flows.keys().any(|(_, cat, _)| cat == "crit"),
        "the critical-path tail contributes causal arrows"
    );
}

#[test]
fn crit_report_serializes_to_valid_json() {
    let r = run_observed(4, Protocol::WriteInvalidate, mcs(64));
    let doc = crit(&r).to_json(&|p| format!("phase{p}"));
    let parsed = Json::parse(&doc.render_pretty()).expect("valid JSON");
    assert!(parsed.get("wall_cycles").is_some());
    assert!(parsed.get("critical_path").and_then(|c| c.get("by_class")).is_some());
}
