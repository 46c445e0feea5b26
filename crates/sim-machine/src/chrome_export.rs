//! Chrome-trace export of a finished run.
//!
//! Glues a [`RunResult`]'s observability data and the machine's message
//! trace into one `sim_stats::ChromeTrace`:
//!
//! - each node's state timeline becomes a track of `"X"` slices (track id =
//!   node id) named by [`sim_stats::CpuClass`], with the program phase as an
//!   argument;
//! - every traced send becomes one `"b"`/`"e"` async flow in category
//!   `"msg"` from the sender's cpu track at injection to the receiver's at
//!   network delivery (the send carries both cycles, so a truncated trace
//!   never produces a dangling arrow; handles are not drawn);
//! - processor halts become `"i"` instant markers;
//! - when the run carried line provenance (`ObsReport::lineage`), the
//!   hottest blocks each get their own track (ids from
//!   [`LINE_TRACK_BASE`]) of directory-state slices, and every miss whose
//!   provenance chains back to a remote write becomes a writer→victim
//!   `"b"`/`"e"` flow in category `"inval"`;
//! - when the run carried the episode profiler (`ObsReport::crit`), each
//!   lock gets an ownership track (ids from [`CRIT_TRACK_BASE`]) of hold
//!   and handoff slices (the handoff slice's args carry the
//!   visibility/miss split), each barrier gets an episode-span track
//!   annotated with the last arriver, and every cross-node causal edge in
//!   the retained critical-path tail becomes a `"b"`/`"e"` flow in
//!   category `"crit"` from the source cpu track to the dependent one;
//! - when the run carried network telemetry (`ObsReport::netobs`), the
//!   busiest physical mesh links each get a utilisation track (ids from
//!   [`NET_TRACK_BASE`]) of per-sample-interval flit slices.
//!
//! Several runs (e.g. the three protocols on the same kernel) can share one
//! trace by exporting each under a distinct `pid` — the viewer shows them
//! as separate processes with aligned clocks.

use std::collections::HashMap;

use sim_engine::Cycle;
use sim_mem::BlockAddr;
use sim_stats::{ChromeTrace, CritReport, Json, LineEventKind, LineageReport};

use crate::result::RunResult;
use crate::trace::TraceEvent;

/// First track id used for per-line directory-state tracks (clear of any
/// plausible `cpu<N>` track id).
pub const LINE_TRACK_BASE: u64 = 1000;

/// How many of the hottest blocks get their own provenance track.
pub const LINE_TRACKS_MAX: usize = 8;

/// First track id used for lock-ownership and barrier-episode tracks
/// (clear of the per-line tracks above).
pub const CRIT_TRACK_BASE: u64 = 2000;

/// First track id used for physical-link utilisation tracks (clear of the
/// crit tracks above).
pub const NET_TRACK_BASE: u64 = 3000;

/// How many of the busiest physical links get their own utilisation track.
pub const NET_TRACKS_MAX: usize = 8;

/// What one [`export_run`] call contributed to the trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExportStats {
    /// CPU state and directory-state slices emitted as `"X"` events.
    pub slices: usize,
    /// Message flows emitted: one per traced send.
    pub flow_pairs: u64,
    /// First flow id not used, to pass as the next export's `first_flow_id`.
    pub next_flow_id: u64,
}

/// Exports one run into `trace` as process `pid` labeled `label`.
///
/// `result` supplies the per-node state timelines and the lineage,
/// critical-path and network layers (recorded only when the machine ran
/// with `MachineConfig::obs` enabled — without them only message flows and
/// halts are emitted). `events` is the machine's message trace (see
/// `Machine::take_trace`): each `Send` becomes one `msg` flow from
/// injection to delivery, each `Halt` an instant, and `Handle`s are not
/// drawn. `first_flow_id` offsets async-flow ids so multiple exports into
/// one trace cannot collide.
pub fn export_run(
    trace: &mut ChromeTrace,
    pid: u64,
    label: &str,
    result: &RunResult,
    events: &[TraceEvent],
    first_flow_id: u64,
) -> ExportStats {
    trace.process_name(pid, label);
    let mut stats = ExportStats { next_flow_id: first_flow_id, ..Default::default() };

    if let Some(obs) = &result.obs {
        for (n, node) in obs.per_node.iter().enumerate() {
            trace.thread_name(pid, n as u64, &format!("cpu{n}"));
            for s in &node.timeline {
                let phase =
                    obs.phase_names.get(&s.phase).cloned().unwrap_or_else(|| format!("phase{}", s.phase));
                trace.complete(
                    pid,
                    n as u64,
                    s.class.name(),
                    "cpu",
                    s.start,
                    s.end - s.start,
                    vec![("phase".to_string(), Json::from(phase))],
                );
                stats.slices += 1;
            }
        }
    }

    for ev in events {
        match *ev {
            TraceEvent::Send { at, delivered, src, dst, kind, addr } => {
                let name = format!("{kind} @{addr:#x}");
                let id = stats.next_flow_id;
                stats.next_flow_id += 1;
                stats.flow_pairs += 1;
                trace.async_begin(pid, src as u64, &name, "msg", id, at);
                trace.async_end(pid, dst as u64, &name, "msg", id, delivered);
            }
            TraceEvent::Handle { .. } => {}
            TraceEvent::Halt { at, node } => trace.instant(pid, node as u64, "halt", at),
        }
    }

    if let Some(obs) = &result.obs {
        export_lineage(trace, pid, &obs.lineage, result.cycles, &mut stats);
        export_crit(trace, pid, &obs.crit, &mut stats);
        export_netobs(trace, pid, &obs.netobs, result.cycles, &mut stats);
    }
    stats
}

/// Adds the per-line provenance layer: one directory-state track per hottest
/// block and a writer→victim flow for every provenance-chained miss.
fn export_lineage(
    trace: &mut ChromeTrace,
    pid: u64,
    lineage: &LineageReport,
    run_end: Cycle,
    stats: &mut ExportStats,
) {
    // One track per hottest block (the report is already traffic-sorted).
    let mut tids: HashMap<BlockAddr, u64> = HashMap::new();
    for (i, b) in lineage.blocks.iter().take(LINE_TRACKS_MAX).enumerate() {
        let tid = LINE_TRACK_BASE + i as u64;
        let what = b.label.clone().unwrap_or_else(|| format!("{:#x}", b.block.0));
        trace.thread_name(pid, tid, &format!("line {what} [{}]", b.pattern.name()));
        tids.insert(b.block, tid);
    }

    // Directory-state slices: each transition closes the previous state's
    // slice and opens the next; the state in force at the run's end closes
    // against `run_end`. The stretch before a block's first transition is
    // drawn too, so the track covers the whole run.
    let mut open: HashMap<BlockAddr, (&'static str, Cycle)> = HashMap::new();
    let mut emit = |trace: &mut ChromeTrace, tid, state, start: Cycle, end: Cycle| {
        trace.complete(pid, tid, state, "dir", start, end.saturating_sub(start), vec![]);
        stats.slices += 1;
    };
    for ev in &lineage.events {
        let Some(&tid) = tids.get(&ev.block) else { continue };
        if let LineEventKind::DirTransition { from, to, .. } = ev.kind {
            let (state, start) = open.insert(ev.block, (to, ev.at)).unwrap_or((from, 0));
            emit(trace, tid, state, start, ev.at);
        }
    }
    for b in lineage.blocks.iter().take(LINE_TRACKS_MAX) {
        let tid = tids[&b.block];
        let (state, start) = open.get(&b.block).copied().unwrap_or(("Uncached", 0));
        emit(trace, tid, state, start, run_end);
    }

    // Causal arrows: each provenance-chained miss links the invalidating
    // writer's track to the missing node's track.
    for ev in &lineage.events {
        if !tids.contains_key(&ev.block) {
            continue;
        }
        if let LineEventKind::Miss { node, caused_by: Some(cause), .. } = ev.kind {
            let name = format!("inval→miss @{:#x}", ev.block.0);
            let id = stats.next_flow_id;
            stats.next_flow_id += 1;
            trace.async_begin(pid, cause.writer as u64, &name, "inval", id, cause.at);
            trace.async_end(pid, node as u64, &name, "inval", id, ev.at.max(cause.at));
        }
    }
}

/// Adds the synchronization-episode layer: lock-ownership tracks, barrier
/// episode spans, and critical-path causal arrows between cpu tracks.
fn export_crit(trace: &mut ChromeTrace, pid: u64, crit: &CritReport, stats: &mut ExportStats) {
    let mut tid = CRIT_TRACK_BASE;

    // One ownership track per lock: the previous holder's hold interval
    // followed by the release→acquire handoff gap, both taken from the
    // retained handoff records (chronological, so slices never overlap).
    for l in &crit.locks {
        trace.thread_name(pid, tid, &format!("lock {} ownership", l.lock));
        for h in &l.records {
            let hold_start = h.released_at.saturating_sub(h.hold);
            trace.complete(pid, tid, &format!("n{} holds", h.from), "crit", hold_start, h.hold, vec![]);
            trace.complete(
                pid,
                tid,
                &format!("handoff n{}→n{}", h.from, h.to),
                "crit",
                h.released_at,
                h.latency(),
                vec![
                    ("release_visibility".to_string(), Json::U64(h.release_visibility)),
                    ("remote_miss".to_string(), Json::U64(h.remote_miss)),
                    ("other".to_string(), Json::U64(h.other)),
                    ("queue_wait".to_string(), Json::U64(h.queue_wait)),
                ],
            );
            stats.slices += 2;
        }
        tid += 1;
    }

    // One span track per barrier: each completed episode from first arrival
    // to last departure, annotated with the last arriver and the
    // imbalance/fanout split (episodes are sequential on a barrier).
    for b in &crit.barriers {
        trace.thread_name(pid, tid, &format!("barrier {} episodes", b.barrier));
        for e in &b.records {
            trace.complete(
                pid,
                tid,
                &format!("epoch {} (last n{})", e.epoch, e.last_arriver),
                "crit",
                e.first_arrive,
                e.last_depart.saturating_sub(e.first_arrive),
                vec![
                    ("last_arriver".to_string(), Json::from(format!("n{}", e.last_arriver))),
                    ("imbalance".to_string(), Json::U64(e.imbalance())),
                    ("fanout".to_string(), Json::U64(e.fanout())),
                ],
            );
            stats.slices += 1;
        }
        tid += 1;
    }

    // Critical-path arrows: every cross-node causal edge in the retained
    // chain tail links the source node's cpu track to the dependent one at
    // the moment the chain switches nodes.
    for s in &crit.critical_path.segments {
        if let (Some(edge), Some(from)) = (s.edge, s.from) {
            let name = format!("crit:{edge}");
            let id = stats.next_flow_id;
            stats.next_flow_id += 1;
            trace.async_begin(pid, from as u64, &name, "crit", id, s.start);
            trace.async_end(pid, s.node as u64, &name, "crit", id, s.start);
        }
    }
}

/// Adds the network-telemetry layer: per-physical-link utilisation tracks
/// (flits moved per sample interval on the busiest links).
fn export_netobs(
    trace: &mut ChromeTrace,
    pid: u64,
    netobs: &sim_stats::NetObsReport,
    run_end: Cycle,
    stats: &mut ExportStats,
) {
    let index: HashMap<(usize, usize), usize> =
        netobs.phys_links.iter().enumerate().map(|(i, l)| ((l.src, l.dst), i)).collect();
    for (k, l) in netobs.worst_links(NET_TRACKS_MAX).into_iter().enumerate() {
        if l.flits == 0 {
            break;
        }
        let tid = NET_TRACK_BASE + k as u64;
        trace.thread_name(pid, tid, &format!("link n{}→n{}", l.src, l.dst));
        let li = index[&(l.src, l.dst)];
        // One slice per sampling interval with traffic; the counters are
        // cumulative, so each sample's delta is the interval's flits. One
        // flit occupies the link for one cycle, so delta/interval is the
        // link's utilisation.
        let (mut prev_at, mut prev_flits) = (0, 0);
        let mut emit = |trace: &mut ChromeTrace, start: Cycle, end: Cycle, delta: u64| {
            if end > start && delta > 0 {
                let util = 100.0 * delta as f64 / (end - start) as f64;
                trace.complete(
                    pid,
                    tid,
                    &format!("{delta} flits"),
                    "net",
                    start,
                    end - start,
                    vec![("util_pct".to_string(), Json::F64(util))],
                );
                stats.slices += 1;
            }
        };
        for (at, flits) in netobs.link_samples.iter() {
            emit(trace, prev_at, at, flits[li].saturating_sub(prev_flits));
            (prev_at, prev_flits) = (at, flits[li]);
        }
        emit(trace, prev_at, run_end, l.flits.saturating_sub(prev_flits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;
    use crate::trace::Trace;
    use sim_isa::ProgramBuilder;
    use sim_proto::Protocol;

    /// Each traced send's `(src, dst, injection, delivery)`, in trace order.
    fn sends(events: &[TraceEvent]) -> Vec<(usize, usize, Cycle, Cycle)> {
        events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Send { at, delivered, src, dst, .. } => Some((src, dst, at, delivered)),
                _ => None,
            })
            .collect()
    }

    /// The `ph` events of category `cat`, in trace order.
    fn of<'a>(events: &'a [Json], ph: &str, cat: &str) -> Vec<&'a Json> {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some(ph)
                    && e.get("cat").and_then(Json::as_str) == Some(cat)
            })
            .collect()
    }

    #[test]
    fn exports_timelines_flows_and_halts() {
        let mut m = Machine::new(MachineConfig::paper_observed(2, Protocol::WriteInvalidate));
        m.enable_trace(Trace::new(10_000));
        let addr = m.alloc().alloc_block_on(0, 1);
        let mut b = ProgramBuilder::new();
        b.imm(0, addr).imm(1, 7).store(0, 0, 1).fence().halt();
        m.set_program(0, b.build());
        let mut b1 = ProgramBuilder::new();
        b1.imm(0, addr).imm(1, 7).spin_while_ne(0, 1).halt();
        m.set_program(1, b1.build());
        let r = m.run();
        let events = m.take_trace().unwrap();

        let mut trace = ChromeTrace::new();
        let stats = export_run(&mut trace, 1, "WI", &r, events.events(), 0);
        assert!(stats.slices > 0, "observed run has state slices");
        assert!(stats.flow_pairs > 0, "the handoff sent messages");
        assert_eq!(stats.flow_pairs, sends(events.events()).len() as u64, "one flow per traced send");
        assert!(stats.next_flow_id >= stats.flow_pairs, "inval flows extend the id space");

        let parsed = Json::parse(&trace.render()).expect("valid JSON array");
        let events = parsed.as_arr().unwrap();
        let count =
            |ph: &str| events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).count();
        assert_eq!(count("X"), stats.slices);
        assert_eq!(count("b"), count("e"), "flows are matched");
        assert_eq!(count("i"), 2, "one halt marker per cpu");
        assert!(count("M") >= 3, "process + one thread name per cpu");

        // The observed run carries lineage: per-line tracks appear.
        let line_tracks = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= LINE_TRACK_BASE
            })
            .count();
        assert!(line_tracks > 0, "hottest blocks get provenance tracks");
        let dir_slices = events.iter().filter(|e| e.get("cat").and_then(Json::as_str) == Some("dir")).count();
        assert!(dir_slices > 0, "directory-state slices drawn on line tracks");
    }

    #[test]
    fn exports_crit_lanes_for_sync_episodes() {
        let mut m = Machine::new(MachineConfig::paper_observed(2, Protocol::WriteInvalidate));
        m.enable_trace(Trace::new(10_000));
        for n in 0..2 {
            let mut b = ProgramBuilder::new();
            for _ in 0..3 {
                b.magic_acquire(0);
                b.magic_release(0);
                b.magic_barrier();
            }
            b.halt();
            m.set_program(n, b.build());
        }
        let r = m.run();
        let events = m.take_trace().unwrap();
        let crit = &r.obs.as_ref().expect("observed run").crit;
        assert!(crit.locks.iter().any(|l| l.handoffs > 0), "magic lock recorded handoffs");
        assert!(crit.barriers.iter().any(|b| b.episodes == 3), "magic barrier recorded episodes");

        let mut trace = ChromeTrace::new();
        export_run(&mut trace, 1, "WI", &r, events.events(), 0);
        let parsed = Json::parse(&trace.render()).expect("valid JSON array");
        let events = parsed.as_arr().unwrap();
        let crit_tracks = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= CRIT_TRACK_BASE
            })
            .count();
        assert_eq!(crit_tracks, 2, "one lock-ownership track and one barrier-episode track");
        let crit_slices = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("cat").and_then(Json::as_str) == Some("crit")
            })
            .count();
        // 2 slices per retained handoff + 1 per retained episode.
        let handoffs: usize = crit.locks.iter().map(|l| l.records.len()).sum();
        let episodes: usize = crit.barriers.iter().map(|b| b.records.len()).sum();
        assert_eq!(crit_slices, 2 * handoffs + episodes);
        let crit_flows = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("b")
                    && e.get("cat").and_then(Json::as_str) == Some("crit")
            })
            .count();
        let cross: usize =
            crit.critical_path.segments.iter().filter(|s| s.edge.is_some() && s.from.is_some()).count();
        assert_eq!(crit_flows, cross, "one arrow per retained cross-node edge");
    }

    #[test]
    fn exports_net_link_tracks_and_journey_arrows() {
        let mut m = Machine::new(MachineConfig::paper_observed(4, Protocol::PureUpdate));
        m.enable_trace(Trace::new(10_000));
        let addr = m.alloc().alloc_block_on(0, 1);
        let mut b = ProgramBuilder::new();
        b.imm(0, addr).imm(1, 7).store(0, 0, 1).fence().halt();
        m.set_program(1, b.build());
        let mut b2 = ProgramBuilder::new();
        b2.imm(0, addr).imm(1, 7).spin_while_ne(0, 1).halt();
        m.set_program(2, b2.build());
        let r = m.run();
        let traced = m.take_trace().unwrap();
        let sent = sends(traced.events());
        let netobs = &r.obs.as_ref().expect("observed run").netobs;
        let remote = sent.iter().filter(|(src, dst, ..)| src != dst).count() as u64;
        assert!(remote > 0, "the run crossed the mesh");
        assert_eq!(netobs.totals().count, remote, "the journeys are the traced remote sends");

        let mut trace = ChromeTrace::new();
        export_run(&mut trace, 1, "PU", &r, traced.events(), 0);
        let parsed = Json::parse(&trace.render()).expect("valid JSON array");
        let events = parsed.as_arr().unwrap();
        let net_tracks = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= NET_TRACK_BASE
            })
            .count();
        assert!(net_tracks > 0, "busiest links get utilisation tracks");
        assert!(net_tracks <= NET_TRACKS_MAX);
        let net_slices = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("cat").and_then(Json::as_str) == Some("net")
            })
            .count();
        assert!(net_slices > 0, "nonzero links draw at least the tail slice");
        assert!(of(events, "b", "net").is_empty() && of(events, "e", "net").is_empty(), "no journey arrows");
        // Each message's journey is its `msg` arrow: injection to delivery.
        let (begins, ends) = (of(events, "b", "msg"), of(events, "e", "msg"));
        assert_eq!(begins.len(), sent.len(), "one arrow per traced send");
        assert_eq!(ends.len(), sent.len());
        for ((b, e), &(src, dst, at, delivered)) in begins.iter().zip(&ends).zip(&sent) {
            assert_eq!(b.get("id"), e.get("id"));
            assert_eq!(
                (b.get("tid").and_then(Json::as_u64), b.get("ts").and_then(Json::as_u64)),
                (Some(src as u64), Some(at))
            );
            assert_eq!(
                (e.get("tid").and_then(Json::as_u64), e.get("ts").and_then(Json::as_u64)),
                (Some(dst as u64), Some(delivered))
            );
        }
        let count =
            |ph: &str| events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).count();
        assert_eq!(count("b"), count("e"), "every arrow is matched");
    }

    #[test]
    fn unobserved_run_still_exports_flows() {
        let mut m = Machine::new(MachineConfig::paper(2, Protocol::WriteInvalidate));
        m.enable_trace(Trace::new(10_000));
        let addr = m.alloc().alloc_block_on(0, 1);
        let mut b = ProgramBuilder::new();
        b.imm(0, addr).imm(1, 3).store(0, 0, 1).fence().halt();
        m.set_program(0, b.build());
        let r = m.run();
        let events = m.take_trace().unwrap();
        assert!(r.obs.is_none());
        let mut trace = ChromeTrace::new();
        let stats = export_run(&mut trace, 0, "bare", &r, events.events(), 0);
        assert_eq!(stats.slices, 0);
        assert!(stats.flow_pairs > 0);
        assert_eq!(stats.flow_pairs, sends(events.events()).len() as u64, "one flow per traced send");
    }
}
