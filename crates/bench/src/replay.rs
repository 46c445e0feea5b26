//! Time-travel replay driver behind `ppc replay`.
//!
//! Two entry points, both testable in-process:
//!
//! * [`divergence_replay`] — given a kernel and two protocols, runs both
//!   sides cheaply (fingerprint chains + periodic checkpoints, full obs
//!   *off*), localizes the first divergent epoch from the chains, restores
//!   the last checkpoint common to both event streams, and lock-step
//!   replays the divergent window with the event recorder on — naming the
//!   exact first divergent event with its decoded payload, surrounding
//!   event context, and each side's window-scoped obs summary.
//! * [`window_replay`] — single-run zoom: re-executes a cycle window of an
//!   obs-off run with every instrument enabled, from the nearest
//!   checkpoint, and proves the restored run still reaches the original
//!   cycle count.
//!
//! Both lean on the determinism contract: a restored machine re-executes
//! the exact event stream of the original run (see
//! `tests/replay_equivalence.rs`), so anything measured inside the window
//! is a faithful measurement of the original run.

use kernels::runner::{install_run_verify, KernelSpec};
use sim_engine::Cycle;
use sim_machine::{Checkpoint, Machine, MachineConfig, RecordedEvent, RunResult};
use sim_proto::Protocol;
use sim_stats::{DivergenceDetail, FingerprintCompare, HostObsConfig, Json, ObsConfig, CPU_CLASSES};

/// Events of shared context recorded before the divergent epoch.
const CONTEXT_BEFORE: u64 = 8;
/// Events shown from each side after the divergence point.
const CONTEXT_AFTER: usize = 4;

/// The fingerprint-epoch length in effect (`PPC_FP_EPOCH` or the 8192
/// default) — also the checkpoint alignment grid.
pub fn fp_epoch() -> u64 {
    crate::env_cfg::env_fp_epoch().unwrap_or_else(|| HostObsConfig::default().fingerprint_epoch)
}

/// The cheap first-pass configuration: fingerprint chain on, one
/// checkpoint per fingerprint epoch (dense enough that the divergent
/// epoch is never far from one), deep observability *off* (the run costs
/// ~1x).
fn recording_cfg(procs: usize, protocol: Protocol) -> MachineConfig {
    let epoch = fp_epoch();
    let mut cfg = MachineConfig::paper(procs, protocol);
    cfg.hostobs.fingerprint = true;
    cfg.hostobs.fingerprint_epoch = epoch;
    cfg.checkpoint_every = Some(epoch);
    cfg
}

/// The replay configuration: same machine identity as [`recording_cfg`]
/// (so checkpoints restore into it), full obs on for window context, no
/// further checkpointing.
fn replay_cfg(procs: usize, protocol: Protocol) -> MachineConfig {
    let mut cfg = recording_cfg(procs, protocol);
    cfg.obs = ObsConfig::enabled();
    cfg.checkpoint_every = None;
    cfg
}

/// One side's cheap recording pass: full run plus its checkpoints.
fn record_side(procs: usize, protocol: Protocol, kernel: &KernelSpec) -> (RunResult, Vec<Checkpoint>) {
    let mut m = Machine::new(recording_cfg(procs, protocol));
    let r = install_run_verify(&mut m, kernel, true, Machine::run);
    (r, m.take_checkpoints())
}

/// Restores `ck` into a freshly installed replay machine. The checkpoint
/// came from an identically built machine in this process, so a failure
/// is a snapshot bug, not an input error.
fn restore(m: &mut Machine, ck: &Checkpoint) {
    if let Err(e) = m.restore(&ck.blob) {
        panic!("checkpoint at event {} failed to restore: {e:?}", ck.events);
    }
}

/// Sums a window-scoped obs report into one `class=cycles ...` line.
fn obs_class_line(r: &RunResult) -> String {
    let Some(obs) = &r.obs else { return "(no obs)".to_string() };
    let mut s = String::new();
    for c in CPU_CLASSES {
        let v: u64 = obs.per_node.iter().map(|n| n.cycles.get(c)).sum();
        if v > 0 {
            s.push_str(&format!("{}={v} ", c.name()));
        }
    }
    let msgs: u64 = obs.msg_counts.values().sum();
    s.push_str(&format!("msgs={msgs}"));
    s
}

/// The first event at which the two replayed streams differ.
#[derive(Debug, Clone)]
pub struct FirstDivergentEvent {
    /// Global dispatch index of the event.
    pub index: u64,
    /// Side A's event at that index (`None` when A's stream ended first).
    pub a: Option<RecordedEvent>,
    /// Side B's event at that index (`None` when B's stream ended first).
    pub b: Option<RecordedEvent>,
}

/// Everything [`divergence_replay`] found.
#[derive(Debug, Clone)]
pub struct DivergenceReplay {
    /// Side labels ("WI"/"PU"/"CU").
    pub label_a: String,
    /// Side B's label.
    pub label_b: String,
    /// Wall cycles of the two original (cheap) runs.
    pub cycles: (Cycle, Cycle),
    /// The chain-level comparison sentence ([`FingerprintCompare::describe`]).
    pub sentence: String,
    /// Event-level chain localization, when the divergence is epoch-shaped.
    pub detail: Option<DivergenceDetail>,
    /// Dispatch index of the checkpoint both replays restored from
    /// (0 = replayed from the initial state).
    pub replayed_from: u64,
    /// The exact first divergent event, from lock-step replay.
    pub first: Option<FirstDivergentEvent>,
    /// Shared event context preceding the divergence (identical on both
    /// sides, so recorded once).
    pub prefix: Vec<RecordedEvent>,
    /// Side A's events from the divergence point.
    pub after_a: Vec<RecordedEvent>,
    /// Side B's events from the divergence point.
    pub after_b: Vec<RecordedEvent>,
    /// Side A's window obs summary (stall classes + message count over the
    /// replayed tail).
    pub obs_a: String,
    /// Side B's window obs summary.
    pub obs_b: String,
}

/// Locates the first divergence between `proto_a` and `proto_b` running
/// `kernel`, then replays both sides from the last common checkpoint with
/// the event recorder on to pin the exact divergent event.
pub fn divergence_replay(
    procs: usize,
    proto_a: Protocol,
    proto_b: Protocol,
    kernel: &KernelSpec,
) -> Result<DivergenceReplay, String> {
    let label_a = crate::observed::protocol_name(proto_a).to_string();
    let label_b = crate::observed::protocol_name(proto_b).to_string();
    let (ra, cks_a) = record_side(procs, proto_a, kernel);
    let (rb, cks_b) = record_side(procs, proto_b, kernel);
    let fa = ra.fingerprint.as_ref().ok_or("side A produced no fingerprint chain")?;
    let fb = rb.fingerprint.as_ref().ok_or("side B produced no fingerprint chain")?;

    let mut out = DivergenceReplay {
        label_a,
        label_b,
        cycles: (ra.cycles, rb.cycles),
        sentence: String::new(),
        detail: None,
        replayed_from: 0,
        first: None,
        prefix: Vec::new(),
        after_a: Vec::new(),
        after_b: Vec::new(),
        obs_a: String::new(),
        obs_b: String::new(),
    };
    let compare = match fa.first_divergence(fb) {
        None => FingerprintCompare::Identical,
        Some(at) => FingerprintCompare::Diverged { at, detail: fa.divergence_detail(fb) },
    };
    out.sentence = compare.describe();
    let FingerprintCompare::Diverged { detail: Some(d), .. } = compare else {
        // Identical chains, or a divergence with no event window
        // (state-only / parameters): nothing to replay into.
        return Ok(out);
    };
    out.detail = Some(d);

    // The last checkpoint at or before the divergent epoch's first event,
    // present in BOTH runs (the streams are identical up to `event_lo`,
    // so equal dispatch counts mean equivalent machine states).
    let common = |cks: &[Checkpoint]| -> Vec<u64> {
        cks.iter().map(|c| c.events).filter(|&e| e <= d.event_lo).collect()
    };
    let (ea, eb) = (common(&cks_a), common(&cks_b));
    let start = ea.iter().rev().find(|e| eb.contains(e)).copied().unwrap_or(0);
    out.replayed_from = start;

    let window_lo = d.event_lo.saturating_sub(CONTEXT_BEFORE).max(start);
    let window_hi = d.event_hi.max(window_lo + 1);
    let replay_side = |protocol: Protocol, cks: &[Checkpoint]| -> (RunResult, Vec<RecordedEvent>) {
        let mut m = Machine::new(replay_cfg(procs, protocol));
        let r = install_run_verify(&mut m, kernel, true, |m| {
            if start > 0 {
                let ck = cks.iter().find(|c| c.events == start).expect("common checkpoint exists");
                restore(m, ck);
            }
            m.record_events(window_lo, window_hi);
            m.run()
        });
        (r, m.take_recorded())
    };
    let (wa, ev_a) = replay_side(proto_a, &cks_a);
    let (wb, ev_b) = replay_side(proto_b, &cks_b);
    out.obs_a = obs_class_line(&wa);
    out.obs_b = obs_class_line(&wb);

    // Lock-step comparison of the recorded streams: the first index where
    // cycle or decoded payload differ (or where one stream ends).
    let n = ev_a.len().min(ev_b.len());
    let mut split = (0..n).find(|&i| ev_a[i].cycle != ev_b[i].cycle || ev_a[i].label != ev_b[i].label);
    if split.is_none() && ev_a.len() != ev_b.len() {
        split = Some(n);
    }
    if let Some(i) = split {
        out.first = Some(FirstDivergentEvent {
            index: window_lo + i as u64,
            a: ev_a.get(i).cloned(),
            b: ev_b.get(i).cloned(),
        });
        out.prefix = ev_a[i.saturating_sub(CONTEXT_BEFORE as usize)..i].to_vec();
        out.after_a = ev_a[i..(i + CONTEXT_AFTER).min(ev_a.len())].to_vec();
        out.after_b = ev_b[i..(i + CONTEXT_AFTER).min(ev_b.len())].to_vec();
    }
    Ok(out)
}

/// Everything [`window_replay`] produced.
#[derive(Debug)]
pub struct WindowReplay {
    /// Wall cycles of the original obs-off run.
    pub original_cycles: Cycle,
    /// Cycle of the checkpoint the replay restored from (0 = initial state).
    pub replayed_from_cycle: Cycle,
    /// Dispatch index of that checkpoint.
    pub replayed_from_events: u64,
    /// The requested window.
    pub window: (Cycle, Cycle),
    /// The windowed replay run (obs on, stopped at the window end); its
    /// `obs` report covers `[replayed_from_cycle, window.1]`.
    pub window_result: RunResult,
    /// Cycles of a second restored run driven to completion — must equal
    /// `original_cycles` (the determinism proof, printed by `ppc replay`).
    pub revalidated_cycles: Cycle,
}

/// Replays the cycle window `[c1, c2]` of an obs-off run of `kernel`
/// with full observability on, restoring from the last checkpoint at or
/// before `c1`.
pub fn window_replay(
    procs: usize,
    protocol: Protocol,
    kernel: &KernelSpec,
    c1: Cycle,
    c2: Cycle,
) -> Result<WindowReplay, String> {
    if c2 <= c1 {
        return Err(format!("empty window [{c1}, {c2}]"));
    }
    let (original, cks) = record_side(procs, protocol, kernel);
    let ck = cks.iter().rev().find(|c| c.cycle <= c1);
    let (from_cycle, from_events) = ck.map(|c| (c.cycle, c.events)).unwrap_or((0, 0));

    // Only the run driven to the end has a final memory image to verify.
    let replay = |to_end: bool| -> RunResult {
        install_run_verify(&mut Machine::new(replay_cfg(procs, protocol)), kernel, to_end, |m| {
            if let Some(ck) = ck {
                restore(m, ck);
            }
            if to_end {
                m.run()
            } else {
                m.run_to_cycle(c2)
            }
        })
    };
    let mut window_result = replay(false);
    if let Some(obs) = window_result.obs.as_mut() {
        obs.set_phase_names(kernels::phase::names());
    }
    let revalidated = replay(true);
    Ok(WindowReplay {
        original_cycles: original.cycles,
        replayed_from_cycle: from_cycle,
        replayed_from_events: from_events,
        window: (c1, c2),
        window_result,
        revalidated_cycles: revalidated.cycles,
    })
}

/// Display line for one recorded event (shared by `ppc replay`'s text
/// output and test assertions).
pub fn event_line(e: &RecordedEvent) -> String {
    format!("event {:>8} @ cycle {:>10}: {}", e.index, e.cycle, e.label)
}

fn event_json(e: &RecordedEvent) -> Json {
    Json::obj([
        ("index", Json::U64(e.index)),
        ("cycle", Json::U64(e.cycle)),
        ("label", Json::from(e.label.as_str())),
    ])
}

/// The canonical machine-readable document for a divergence replay (what
/// `ppc replay --json` prints). Canonical keys, so two identical replays
/// render byte-identically.
pub fn divergence_json(kernel: &str, procs: usize, d: &DivergenceReplay) -> Json {
    Json::obj([
        ("kernel", Json::from(kernel)),
        ("procs", Json::from(procs)),
        ("side_a", Json::from(d.label_a.as_str())),
        ("side_b", Json::from(d.label_b.as_str())),
        ("cycles_a", Json::U64(d.cycles.0)),
        ("cycles_b", Json::U64(d.cycles.1)),
        ("fingerprint", Json::from(d.sentence.as_str())),
        ("replayed_from", Json::U64(d.replayed_from)),
        (
            "first_divergent_event",
            match &d.first {
                None => Json::Null,
                Some(f) => Json::obj([
                    ("index", Json::U64(f.index)),
                    ("a", f.a.as_ref().map(event_json).unwrap_or(Json::Null)),
                    ("b", f.b.as_ref().map(event_json).unwrap_or(Json::Null)),
                ]),
            },
        ),
        ("context", Json::Arr(d.prefix.iter().map(event_json).collect())),
        ("after_a", Json::Arr(d.after_a.iter().map(event_json).collect())),
        ("after_b", Json::Arr(d.after_b.iter().map(event_json).collect())),
        ("window_obs_a", Json::from(d.obs_a.as_str())),
        ("window_obs_b", Json::from(d.obs_b.as_str())),
    ])
    .canonical()
}

/// The canonical machine-readable document for a window replay (what
/// `ppc replay --window ... --json` prints).
pub fn window_json(kernel: &str, procs: usize, protocol: &str, w: &WindowReplay) -> Json {
    let obs = w.window_result.obs.as_ref();
    Json::obj([
        ("kernel", Json::from(kernel)),
        ("procs", Json::from(procs)),
        ("protocol", Json::from(protocol)),
        ("original_cycles", Json::U64(w.original_cycles)),
        ("revalidated_cycles", Json::U64(w.revalidated_cycles)),
        ("replayed_from_cycle", Json::U64(w.replayed_from_cycle)),
        ("replayed_from_events", Json::U64(w.replayed_from_events)),
        ("window_lo", Json::U64(w.window.0)),
        ("window_hi", Json::U64(w.window.1)),
        ("window_cycles", Json::U64(w.window_result.cycles)),
        ("obs", obs.map(|o| o.to_json()).unwrap_or(Json::Null)),
    ])
    .canonical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::workloads::{LockKind, LockWorkload, PostRelease};

    fn tiny_lock() -> KernelSpec {
        KernelSpec::Lock(LockWorkload {
            kind: LockKind::Ticket,
            total_acquires: 64,
            cs_cycles: 5,
            post_release: PostRelease::None,
        })
    }

    #[test]
    fn cross_protocol_divergence_names_a_concrete_event() {
        let kernel = tiny_lock();
        let d = divergence_replay(4, Protocol::WriteInvalidate, Protocol::PureUpdate, &kernel)
            .expect("replay runs");
        assert!(d.sentence.contains("diverged"), "{}", d.sentence);
        let first = d.first.expect("lock-step replay pins the first divergent event");
        let (a, b) = (first.a.expect("side A event"), first.b.expect("side B event"));
        assert_eq!(a.index, first.index);
        assert_eq!(b.index, first.index);
        assert!(a.cycle != b.cycle || a.label != b.label, "events actually differ");
        // The decoded labels carry payloads (kind, endpoints, address).
        assert!(!a.label.is_empty() && !b.label.is_empty());
        assert!(d.obs_a.contains("msgs="), "{}", d.obs_a);
    }

    /// PU and CU run a ticket lock identically until CU's first drop, deep
    /// in the chain's third epoch. The window is found on plain runs and
    /// replayed observed; both dispatch one event stream, so the lock-step
    /// replay names the divergent event inside that window.
    #[test]
    fn divergence_found_on_plain_runs_is_named_in_the_observed_replay() {
        let kernel = KernelSpec::Lock(LockWorkload {
            kind: LockKind::Ticket,
            total_acquires: 800,
            cs_cycles: 50,
            post_release: PostRelease::None,
        });
        let d = divergence_replay(4, Protocol::PureUpdate, Protocol::CompetitiveUpdate, &kernel)
            .expect("replay runs");
        let window = d.detail.as_ref().expect("the chains diverge inside an epoch");
        let first = d.first.expect("lock-step replay names the first divergent event");
        assert_eq!(first.index, 24003, "{}", d.sentence);
        assert!((window.event_lo..window.event_hi).contains(&first.index), "{}", d.sentence);
    }

    #[test]
    fn same_protocol_runs_are_identical() {
        let kernel = tiny_lock();
        let d = divergence_replay(2, Protocol::WriteInvalidate, Protocol::WriteInvalidate, &kernel)
            .expect("replay runs");
        assert!(d.sentence.contains("identical"), "{}", d.sentence);
        assert!(d.first.is_none());
        assert_eq!(d.cycles.0, d.cycles.1);
    }

    #[test]
    fn window_replay_reproduces_the_original_cycle_count() {
        let kernel = tiny_lock();
        let mut m = Machine::new(MachineConfig::paper(2, Protocol::WriteInvalidate));
        let probe = install_run_verify(&mut m, &kernel, true, Machine::run);
        let (c1, c2) = (probe.cycles / 4, probe.cycles / 2);
        let w = window_replay(2, Protocol::WriteInvalidate, &kernel, c1, c2).expect("window replays");
        assert_eq!(w.original_cycles, probe.cycles, "recording pass matches a plain run");
        assert_eq!(w.revalidated_cycles, w.original_cycles, "restored run reaches the same end");
        assert_eq!(w.window_result.cycles, c2, "window run stops at the window end");
        let obs = w.window_result.obs.as_ref().expect("window ran observed");
        assert!(obs.per_node.iter().any(|n| n.cycles.total() > 0), "window report is non-empty");
        assert!(window_replay(2, Protocol::WriteInvalidate, &kernel, 10, 10).is_err(), "empty window");
    }

    #[test]
    fn replay_json_documents_are_canonical_and_byte_identical_across_runs() {
        let kernel = tiny_lock();
        let run = || {
            divergence_replay(2, Protocol::WriteInvalidate, Protocol::PureUpdate, &kernel)
                .expect("replay runs")
        };
        let (d1, d2) = (run(), run());
        let j1 = divergence_json("ticket-lock", 2, &d1).render();
        let j2 = divergence_json("ticket-lock", 2, &d2).render();
        assert_eq!(j1, j2, "divergence JSON is byte-identical across runs");
        assert_eq!(
            j1,
            divergence_json("ticket-lock", 2, &d1).canonical().render(),
            "document is already canonical"
        );
        assert!(j1.contains("\"first_divergent_event\""), "{j1}");

        let mut m = Machine::new(MachineConfig::paper(2, Protocol::WriteInvalidate));
        let probe = install_run_verify(&mut m, &kernel, true, Machine::run);
        let (c1, c2) = (probe.cycles / 4, probe.cycles / 2);
        let wrun = || window_replay(2, Protocol::WriteInvalidate, &kernel, c1, c2).expect("window replays");
        let (w1, w2) = (wrun(), wrun());
        let k1 = window_json("ticket-lock", 2, "WI", &w1).render();
        let k2 = window_json("ticket-lock", 2, "WI", &w2).render();
        assert_eq!(k1, k2, "window JSON is byte-identical across runs");
        assert_eq!(k1, window_json("ticket-lock", 2, "WI", &w1).canonical().render());
        assert!(k1.contains("\"window_cycles\""), "{k1}");
    }
}
