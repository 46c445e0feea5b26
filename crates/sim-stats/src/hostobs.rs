//! Host-side self-profiling and determinism fingerprints: the instruments
//! turned on the instrument.
//!
//! Everything else in this crate measures the *simulated* machine; this
//! module measures the simulator as a host program, so a claimed speedup
//! can be quantified layer by layer. Three instruments share the
//! [`HostObsConfig`] opt-in:
//!
//! * [`HostProfiler`] — wall-time breakdown of the event loop by dispatch
//!   category (queue pops, CPU interpretation, protocol handlers, network
//!   hop routing, stats hooks), plus sampled event-queue analytics: queue
//!   depth, bucket-wheel slot occupancy, and far-future-heap depth
//!   histograms. The machine switches the stopwatch between categories;
//!   this module owns the accumulators and the report.
//! * [`FingerprintRecorder`] — a streaming [`StableHasher`] digest of the
//!   popped `(cycle, seq, event-kind)` stream, sealed into per-epoch
//!   digests. Events are fed in pop order, which *is* `(cycle, seq)`
//!   order, so the running hash covers `seq` without materializing it.
//! * [`FingerprintChain`] — the sealed chain plus an end-of-run
//!   machine-state digest. Two runs that were supposed to be identical
//!   diff to their *first divergent epoch*
//!   ([`FingerprintChain::first_divergence`]) — the audit tool that proves
//!   exact-order equivalence.
//!
//! Like the simulated-machine observability, everything here is off by
//! default and must not perturb the simulation: a hostobs-on run produces
//! byte-identical simulated results to a hostobs-off run (enforced by
//! `tests/hostobs.rs` and the `ppc harness` golden in `tests/ppc_cli.rs`).

use std::time::Instant;

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::{Cycle, QueueStats, StableHasher};

use crate::hist::LatencyHist;
use crate::json::Json;

/// Host-observability switches. All off by default; the default path pays
/// a few `Option` checks per dispatched event and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostObsConfig {
    /// Master switch for the host self-profiler: a stopwatch charging the
    /// run loop's wall time to dispatch categories (two clock reads per
    /// dispatched event, two per network send, one per observation
    /// sample), and event-queue analytics.
    pub enabled: bool,
    /// Record a streaming determinism fingerprint of the event stream.
    /// Independent of `enabled`, so a fingerprint-only run reads no clock.
    pub fingerprint: bool,
    /// Events per fingerprint epoch (the diff granularity). A checkpoint
    /// cadence must be a multiple of it, so checkpoints sit on epoch seams.
    pub fingerprint_epoch: u64,
}

impl Default for HostObsConfig {
    fn default() -> Self {
        HostObsConfig { enabled: false, fingerprint: false, fingerprint_epoch: 8192 }
    }
}

/// Queue-analytics sampling period, in dispatched events: the queue is
/// sampled before each event whose pop index is a multiple of it.
pub const QUEUE_SAMPLE_EVERY: u64 = 1024;

impl HostObsConfig {
    /// Everything on, default periods (mirrors `ObsConfig::enabled`).
    pub fn enabled() -> Self {
        HostObsConfig { enabled: true, fingerprint: true, ..Default::default() }
    }
}

/// The dispatch category a slice of host wall-time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostCat {
    /// `EventQueue::pop` (bitmap scan, window advance, far-heap merge) and
    /// the run loop's work between events: the halt, sample and
    /// checkpoint checks, the fingerprint and event-recorder feeds,
    /// queue-analytics samples, any checkpoint taken, and undispatched
    /// pops (the drain's stale processor wakes). Entered once at the start
    /// of the run and once after each dispatched event, so its calls are
    /// the events dispatched plus one.
    Pop,
    /// Processor interpretation (`Ev::CpuStep` handling).
    CpuStep,
    /// Protocol message handling at the destination (`Ev::Deliver`),
    /// minus the nested network routing charged to [`HostCat::NetRoute`].
    Deliver,
    /// Home-side handling after memory service (`Ev::HomeHandle`).
    HomeHandle,
    /// Write-buffer head issue (`Ev::WbIssue`).
    WbIssue,
    /// Periodic observability sampling (the stats hooks): one call per
    /// sample, which the run loop takes before dispatching the first event
    /// at or past its cycle — samples are not events, so they are not
    /// popped, counted or fingerprinted.
    Sample,
    /// Network hop routing and port occupancy (`Network::send`), a slice
    /// nested inside whichever handler sent: the handler's category
    /// resumes, without a new call, once the send returns. An observed
    /// run files the returned journey (its endpoint-pair and link walk)
    /// after that, so the sending handler's category is charged for it.
    NetRoute,
}

/// Every category, in report order.
pub const HOST_CATS: [HostCat; 7] = [
    HostCat::Pop,
    HostCat::CpuStep,
    HostCat::Deliver,
    HostCat::HomeHandle,
    HostCat::WbIssue,
    HostCat::Sample,
    HostCat::NetRoute,
];

impl HostCat {
    /// Stable label used in text reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            HostCat::Pop => "event-pop",
            HostCat::CpuStep => "cpu-step",
            HostCat::Deliver => "proto-deliver",
            HostCat::HomeHandle => "proto-home",
            HostCat::WbIssue => "wb-issue",
            HostCat::Sample => "stats-sample",
            HostCat::NetRoute => "net-route",
        }
    }

    /// Position in [`HOST_CATS`], which lists the categories in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// The host self-profile of a run, kept as a stopwatch: one category is
/// open at a time, and each switch reads the clock once and charges the
/// time since the previous switch to the category it closes. The run loop
/// enters [`HostCat::Pop`] before each pop, the event's category before
/// its dispatch and [`HostCat::Sample`] before each sample; a network send
/// enters [`HostCat::NetRoute`] and then resumes the handler it is nested
/// in. So every nanosecond from [`HostProfiler::start`] to
/// [`HostProfiler::finish`] is charged to exactly one category. Queue
/// analytics are sampled every [`QUEUE_SAMPLE_EVERY`] dispatched events
/// into the report's histograms.
#[derive(Debug)]
pub struct HostProfiler {
    cats: [HostCatReport; HOST_CATS.len()],
    /// The category the clock is running for, and when it was opened.
    open: HostCat,
    since: Instant,
    /// The queue analytics; the queue's own lifetime counters are filled
    /// in at the end.
    queue: QueueReport,
}

impl HostProfiler {
    /// Starts the clock in `cat`, counting one call of it.
    pub fn start(cat: HostCat) -> Self {
        let mut p = HostProfiler {
            cats: HOST_CATS.map(|c| HostCatReport { name: c.name(), calls: 0, nanos: 0 }),
            open: cat,
            since: Instant::now(),
            queue: QueueReport::default(),
        };
        p.cats[cat.index()].calls = 1;
        p
    }

    /// Charges the time since the last switch to the open category, counts
    /// one call of `cat` and opens it. Returns the category it closed, for
    /// [`HostProfiler::resume`] once a nested slice ends.
    pub fn enter(&mut self, cat: HostCat) -> HostCat {
        self.cats[cat.index()].calls += 1;
        self.switch(cat)
    }

    /// Charges the time since the last switch to the open category and
    /// reopens `cat` without counting a call: the enclosing category, after
    /// a nested slice.
    pub fn resume(&mut self, cat: HostCat) {
        self.switch(cat);
    }

    fn switch(&mut self, cat: HostCat) -> HostCat {
        let now = Instant::now();
        self.cats[self.open.index()].nanos += now.duration_since(self.since).as_nanos() as u64;
        self.since = now;
        std::mem::replace(&mut self.open, cat)
    }

    /// Records one queue-analytics sample (pending events, occupied wheel
    /// slots, far-future-heap entries).
    pub fn sample_queue(&mut self, depth: usize, occupied_slots: usize, far_depth: usize) {
        self.queue.depth.record(depth as u64);
        self.queue.occupied_slots.record(occupied_slots as u64);
        self.queue.far_depth.record(far_depth as u64);
    }

    /// Stops the clock and seals the profile into a report, whose
    /// `wall_nanos` is the sum of the categories. `events` is the number of
    /// events the run dispatched; `queue` the event queue's lifetime
    /// counters.
    pub fn finish(mut self, cycles: Cycle, events: u64, queue: QueueStats) -> HostObsReport {
        self.switch(self.open);
        HostObsReport {
            wall_nanos: self.cats.iter().map(|c| c.nanos).sum(),
            events,
            cycles,
            cats: Vec::from(self.cats),
            queue: QueueReport {
                scheduled: queue.scheduled,
                far_spills: queue.far_spills,
                far_merged: queue.far_merged,
                peak_depth: queue.peak_len,
                ..self.queue
            },
        }
    }
}

/// One dispatch category's share of the host wall time.
#[derive(Debug, Clone)]
pub struct HostCatReport {
    /// [`HostCat::name`].
    pub name: &'static str,
    /// Timed invocations.
    pub calls: u64,
    /// Total host nanoseconds.
    pub nanos: u64,
}

/// Event-queue analytics: lifetime counters from the queue itself plus
/// histograms sampled by the profiler.
#[derive(Debug, Clone, Default)]
pub struct QueueReport {
    /// Events scheduled over the run.
    pub scheduled: u64,
    /// Schedules 16,384 (`MAX_WHEEL`) or more cycles ahead, which go to
    /// the far-future heap instead of the bucket wheel.
    pub far_spills: u64,
    /// Far-heap entries merged into the wheel as its window advanced or
    /// grew.
    pub far_merged: u64,
    /// Peak pending-event count.
    pub peak_depth: u64,
    /// Sampled pending-event counts.
    pub depth: LatencyHist,
    /// Sampled occupied bucket-wheel slot counts (the wheel starts at
    /// 1,024 slots and grows up to 16,384).
    pub occupied_slots: LatencyHist,
    /// Sampled far-future-heap depths.
    pub far_depth: LatencyHist,
}

/// The host self-profile of one run: where the simulator's own wall time
/// went, and how the event queue behaved.
#[derive(Debug, Clone)]
pub struct HostObsReport {
    /// Wall time of the run loop, in host nanoseconds: the sum of the
    /// categories' nanoseconds.
    pub wall_nanos: u64,
    /// Events this run dispatched (including the post-halt drain; a run
    /// restored from a checkpoint counts from its restore point).
    pub events: u64,
    /// Simulated execution time (the last halt).
    pub cycles: Cycle,
    /// Per-category wall-time breakdown, in [`HOST_CATS`] order.
    pub cats: Vec<HostCatReport>,
    /// Event-queue analytics.
    pub queue: QueueReport,
}

impl HostObsReport {
    /// Host throughput in simulated events per wall second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_nanos.max(1) as f64 / 1e9)
    }

    /// Event density: events dispatched per simulated cycle.
    pub fn events_per_cycle(&self) -> f64 {
        self.events as f64 / self.cycles.max(1) as f64
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_ms", Json::F64(self.wall_nanos as f64 / 1e6)),
            ("events", Json::U64(self.events)),
            ("cycles", Json::U64(self.cycles)),
            ("events_per_sec", Json::F64(self.events_per_sec())),
            ("events_per_cycle", Json::F64(self.events_per_cycle())),
            (
                "dispatch",
                Json::Arr(
                    self.cats
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("cat", Json::from(c.name)),
                                ("calls", Json::U64(c.calls)),
                                ("ms", Json::F64(c.nanos as f64 / 1e6)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "queue",
                Json::obj([
                    ("scheduled", Json::U64(self.queue.scheduled)),
                    ("far_spills", Json::U64(self.queue.far_spills)),
                    ("far_merged", Json::U64(self.queue.far_merged)),
                    ("peak_depth", Json::U64(self.queue.peak_depth)),
                    ("depth", self.queue.depth.to_json()),
                    ("occupied_slots", self.queue.occupied_slots.to_json()),
                    ("far_depth", self.queue.far_depth.to_json()),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Determinism fingerprints
// ---------------------------------------------------------------------

/// Streams the popped event sequence into per-epoch digests. Feed with
/// [`FingerprintRecorder::record`] *in pop order*; seal with
/// [`FingerprintRecorder::finish`].
#[derive(Debug)]
pub struct FingerprintRecorder {
    epoch_events: u64,
    hasher: StableHasher,
    in_epoch: u64,
    epochs: Vec<(u64, u64)>,
    /// Epochs that ran before this recorder took over (checkpoint resume).
    /// Epoch hashers are seeded with the *global* epoch index, so a resumed
    /// recorder's sealed digests line up with the uninterrupted run's
    /// `epochs[epoch_offset..]`.
    epoch_offset: u64,
}

impl FingerprintRecorder {
    /// A recorder sealing a digest every `epoch_events` events (min 1).
    pub fn new(epoch_events: u64) -> Self {
        Self::resume(epoch_events, 0)
    }

    /// A recorder resuming at global epoch `epoch_offset` — used when a run
    /// restarts from a checkpoint taken at an epoch boundary. The recorder
    /// only seals the tail epochs, but seeds each with its global index, so
    /// a full run's chain and a resumed run's chain satisfy
    /// `full.epochs[epoch_offset..] == resumed.epochs` when the replayed
    /// event stream is identical.
    pub fn resume(epoch_events: u64, epoch_offset: u64) -> Self {
        let epoch_events = epoch_events.max(1);
        FingerprintRecorder {
            epoch_events,
            hasher: epoch_hasher(epoch_offset),
            in_epoch: 0,
            epochs: Vec::new(),
            epoch_offset,
        }
    }

    /// The global epoch index this recorder started at (0 for a fresh run).
    pub fn epoch_offset(&self) -> u64 {
        self.epoch_offset
    }

    /// Absorbs one popped event: its cycle, a kind tag, and two
    /// kind-specific words (node id, src/dst packing, address — whatever
    /// pins the event's identity). Insertion order supplies `seq`.
    pub fn record(&mut self, cycle: Cycle, kind: &str, a: u64, b: u64) {
        self.hasher.write_u64(cycle);
        self.hasher.write_str(kind);
        self.hasher.write_u64(a);
        self.hasher.write_u64(b);
        self.in_epoch += 1;
        if self.in_epoch == self.epoch_events {
            self.seal_epoch();
        }
    }

    fn seal_epoch(&mut self) {
        self.epochs.push(self.hasher.finish128());
        self.hasher = epoch_hasher(self.epoch_offset + self.epochs.len() as u64);
        self.in_epoch = 0;
    }

    /// Seals the trailing partial epoch (if any) and attaches the run's
    /// event count (the global pop index at its end, so a resumed run
    /// counts the events before its checkpoint too) and the end-of-run
    /// machine-state digest.
    pub fn finish(mut self, total_events: u64, state_digest: (u64, u64)) -> FingerprintChain {
        if self.in_epoch > 0 {
            self.seal_epoch();
        }
        FingerprintChain { epoch_events: self.epoch_events, epochs: self.epochs, total_events, state_digest }
    }
}

/// Each epoch's hasher is seeded with the epoch index, so identical event
/// content in different epochs still yields distinct digests.
fn epoch_hasher(epoch: u64) -> StableHasher {
    let mut h = StableHasher::new();
    h.write_u64(epoch);
    h
}

/// Where two fingerprint chains first part ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintDivergence {
    /// The chains were recorded with different epoch sizes and cannot be
    /// compared epoch-by-epoch.
    Parameters,
    /// Epoch `i` is the first whose digests differ (or the first epoch one
    /// chain has and the other lacks): the first divergent event lies in
    /// event range `[i * epoch_events, (i + 1) * epoch_events)`.
    Epoch(usize),
    /// The event streams match but the end-of-run machine-state digests
    /// differ (state outside the event stream diverged).
    StateOnly,
}

/// Localization of an [`FingerprintDivergence::Epoch`] divergence: the
/// divergent epoch's global event-index range.
///
/// Epoch digests are opaque, so the chains bound the first divergent event
/// to the epoch's range and no tighter — even when one stream is shorter
/// and ends inside the epoch, the streams may differ at any earlier event
/// of it. Replay (`ppc replay`) resolves the exact event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceDetail {
    /// Index of the first divergent epoch.
    pub epoch: usize,
    /// Global index of the epoch's first event.
    pub event_lo: u64,
    /// One past the epoch's last event index covered by either run.
    pub event_hi: u64,
}

/// The sealed fingerprint of one run: per-epoch event-stream digests plus
/// the end-of-run machine-state digest. Two chains from runs that should
/// be identical compare with [`FingerprintChain::first_divergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintChain {
    /// Events per epoch.
    pub epoch_events: u64,
    /// Per-epoch 128-bit digests as `(low, high)` lanes; the last epoch
    /// may cover fewer than `epoch_events` events.
    pub epochs: Vec<(u64, u64)>,
    /// Events recorded in total.
    pub total_events: u64,
    /// Digest of the final machine state (processor registers and
    /// counters, traffic classification, network counters).
    pub state_digest: (u64, u64),
}

impl FingerprintChain {
    /// Writes the chain in declaration order: the epoch length, the epoch
    /// count and digests, the event total and the state digest.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.epoch_events);
        w.usize(self.epochs.len());
        for &(lo, hi) in &self.epochs {
            w.u64(lo);
            w.u64(hi);
        }
        w.u64(self.total_events);
        w.u64(self.state_digest.0);
        w.u64(self.state_digest.1);
    }

    /// Reads a chain written by [`FingerprintChain::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let epoch_events = r.u64()?;
        let epochs = (0..r.usize()?).map(|_| Ok((r.u64()?, r.u64()?))).collect::<Result<_, SnapError>>()?;
        Ok(FingerprintChain {
            epoch_events,
            epochs,
            total_events: r.u64()?,
            state_digest: (r.u64()?, r.u64()?),
        })
    }

    /// A 32-hex-character digest of the whole chain (every epoch, the
    /// event count, and the state digest) — the one-line summary form.
    pub fn chain_digest_hex(&self) -> String {
        let mut h = StableHasher::new();
        h.write_u64(self.epoch_events);
        h.write_u64(self.total_events);
        for &(lo, hi) in &self.epochs {
            h.write_u64(lo);
            h.write_u64(hi);
        }
        h.write_u64(self.state_digest.0);
        h.write_u64(self.state_digest.1);
        h.finish_hex()
    }

    /// The first point where `self` and `other` diverge, or `None` when
    /// the chains are identical.
    pub fn first_divergence(&self, other: &FingerprintChain) -> Option<FingerprintDivergence> {
        if self.epoch_events != other.epoch_events {
            return Some(FingerprintDivergence::Parameters);
        }
        let common = self.epochs.len().min(other.epochs.len());
        for i in 0..common {
            if self.epochs[i] != other.epochs[i] {
                return Some(FingerprintDivergence::Epoch(i));
            }
        }
        if self.epochs.len() != other.epochs.len() || self.total_events != other.total_events {
            // One stream is longer: it diverges at the first epoch the
            // shorter chain lacks (a same-epoch length difference shows up
            // as a digest mismatch above, since the digest covers every
            // event in the epoch).
            return Some(FingerprintDivergence::Epoch(common));
        }
        if self.state_digest != other.state_digest {
            return Some(FingerprintDivergence::StateOnly);
        }
        None
    }

    /// Localizes an epoch divergence against `other` to its event-index
    /// range. `None` when the chains are identical or the divergence is
    /// not epoch-shaped ([`FingerprintDivergence::Parameters`] /
    /// `StateOnly`).
    pub fn divergence_detail(&self, other: &FingerprintChain) -> Option<DivergenceDetail> {
        match self.first_divergence(other)? {
            FingerprintDivergence::Epoch(i) => {
                let event_lo = i as u64 * self.epoch_events;
                let event_hi = (event_lo + self.epoch_events).min(self.total_events.max(other.total_events));
                Some(DivergenceDetail { epoch: i, event_lo, event_hi })
            }
            _ => None,
        }
    }

    /// The chain as a JSON value (epoch digests as 32-hex strings).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch_events", Json::U64(self.epoch_events)),
            ("total_events", Json::U64(self.total_events)),
            ("chain", Json::from(self.chain_digest_hex())),
            ("state", Json::from(format!("{:016x}{:016x}", self.state_digest.0, self.state_digest.1))),
            (
                "epochs",
                Json::Arr(
                    self.epochs.iter().map(|&(lo, hi)| Json::from(format!("{lo:016x}{hi:016x}"))).collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic synthetic event stream: `n` events over a fixed
    /// cycle ramp.
    fn feed(rec: &mut FingerprintRecorder, n: u64, perturb_at: Option<u64>) {
        for i in 0..n {
            let cycle = i / 3;
            let cycle = if perturb_at == Some(i) { cycle + 1 } else { cycle };
            rec.record(cycle, "ev", i % 7, i % 5);
        }
    }

    #[test]
    fn identical_streams_yield_identical_chains() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, None);
        let (a, b) = (a.finish(640, (1, 2)), b.finish(640, (1, 2)));
        assert_eq!(a, b);
        assert_eq!(a.first_divergence(&b), None);
        assert_eq!(a.epochs.len(), 10);
        assert_eq!(a.chain_digest_hex(), b.chain_digest_hex());
    }

    #[test]
    fn single_event_perturbation_localizes_to_its_epoch() {
        // 10 epochs of 64 events; flip one event's cycle inside epoch 7.
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, Some(7 * 64 + 13));
        let (a, b) = (a.finish(640, (1, 2)), b.finish(640, (1, 2)));
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::Epoch(7)));
        // Epochs before the perturbation are untouched; the one holding it
        // differs (later epochs are independent by construction).
        assert_eq!(a.epochs[..7], b.epochs[..7]);
        assert_ne!(a.epochs[7], b.epochs[7]);
        assert_eq!(a.epochs[8..], b.epochs[8..]);
    }

    #[test]
    fn extra_tail_events_diverge_at_the_first_missing_epoch() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640 + 100, None);
        let (a, b) = (a.finish(640, (1, 2)), b.finish(640 + 100, (1, 2)));
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::Epoch(10)));
    }

    #[test]
    fn partial_epoch_length_difference_is_caught() {
        // Same epoch count, different totals within the last (partial)
        // epoch: the last digest covers different event sets.
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 100, None);
        feed(&mut b, 101, None);
        let (a, b) = (a.finish(100, (1, 2)), b.finish(101, (1, 2)));
        assert_eq!(a.epochs.len(), b.epochs.len());
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::Epoch(1)));
    }

    #[test]
    fn state_only_divergence() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, None);
        let (a, b) = (a.finish(640, (1, 2)), b.finish(640, (9, 9)));
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::StateOnly));
        assert_ne!(a.chain_digest_hex(), b.chain_digest_hex());
    }

    #[test]
    fn mismatched_epoch_sizes_are_not_comparable() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(32);
        feed(&mut a, 128, None);
        feed(&mut b, 128, None);
        let (a, b) = (a.finish(128, (1, 2)), b.finish(128, (1, 2)));
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::Parameters));
    }

    #[test]
    fn resumed_recorder_matches_full_chain_tail() {
        let mut full = FingerprintRecorder::new(64);
        feed(&mut full, 640, None);
        // Resume at epoch 4 (event 256) and feed the identical tail.
        let mut tail = FingerprintRecorder::resume(64, 4);
        assert_eq!(tail.epoch_offset(), 4);
        for i in 256..640 {
            tail.record(i / 3, "ev", i % 7, i % 5);
        }
        let (full, tail) = (full.finish(640, (1, 2)), tail.finish(640, (1, 2)));
        assert_eq!(full.epochs[4..], tail.epochs, "tail epochs line up globally");
    }

    #[test]
    fn divergence_detail_bounds_common_epoch_mismatch() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, Some(7 * 64 + 13));
        let (a, b) = (a.finish(640, (1, 2)), b.finish(640, (1, 2)));
        let d = a.divergence_detail(&b).expect("diverged");
        assert_eq!(d.epoch, 7);
        assert_eq!(d.event_lo, 7 * 64);
        assert_eq!(d.event_hi, 8 * 64);
    }

    #[test]
    fn divergence_detail_pins_prefix_end() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 100, None);
        feed(&mut b, 101, None);
        let (a, b) = (a.finish(100, (1, 2)), b.finish(101, (1, 2)));
        let d = a.divergence_detail(&b).expect("diverged");
        assert_eq!((d.epoch, d.event_lo, d.event_hi), (1, 64, 101), "the epoch's range, to the longer end");
        assert_eq!(b.divergence_detail(&a), Some(d), "symmetric");
    }

    #[test]
    fn early_divergence_in_a_shorter_stream_names_no_event() {
        // The streams differ at event 70 and one ends at 100, inside the
        // same epoch: the shorter stream's length is not the first
        // divergent event, and the sentence names only the epoch's range.
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 128, None);
        feed(&mut b, 100, Some(70));
        let (a, b) = (a.finish(128, (1, 2)), b.finish(100, (1, 2)));
        let d = a.divergence_detail(&b).expect("diverged");
        assert_eq!((d.epoch, d.event_lo, d.event_hi), (1, 64, 128));
        let at = a.first_divergence(&b).expect("diverged");
        let s = crate::FingerprintCompare::Diverged { at, detail: Some(d) }.describe();
        assert_eq!(s, "diverged: first at epoch 1 (events [64, 128))");
    }

    #[test]
    fn divergence_detail_absent_for_non_epoch_shapes() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, None);
        let (a, b2) = (a.finish(640, (1, 2)), b.finish(640, (9, 9)));
        assert_eq!(a.first_divergence(&b2), Some(FingerprintDivergence::StateOnly));
        assert_eq!(a.divergence_detail(&b2), None, "state-only has no epoch range");
        assert_eq!(a.divergence_detail(&a.clone()), None, "identical chains");
    }

    /// A scripted run: the stopwatch counts one call per `enter`, none per
    /// `resume`, charges a nested slice to the nested category alone, and
    /// its categories sum exactly to the wall time.
    #[test]
    fn stopwatch_charges_every_slice_to_one_category() {
        let nap = std::time::Duration::from_millis(2);
        let mut p = HostProfiler::start(HostCat::Pop);
        p.sample_queue(5, 3, 1);
        assert_eq!(p.enter(HostCat::Deliver), HostCat::Pop);
        let outer = p.enter(HostCat::NetRoute);
        assert_eq!(outer, HostCat::Deliver, "enter names the category it closed");
        std::thread::sleep(nap);
        p.resume(outer);
        p.enter(HostCat::Pop);
        p.enter(HostCat::Sample);
        p.enter(HostCat::Sample);
        p.enter(HostCat::CpuStep);
        let outer = p.enter(HostCat::NetRoute);
        p.resume(outer);
        p.enter(HostCat::Pop);
        std::thread::sleep(nap);
        let r = p.finish(1_000, 2, QueueStats::default());
        let cat = |n: &str| r.cats.iter().find(|c| c.name == n).unwrap();
        let calls: Vec<(&str, u64)> = r.cats.iter().map(|c| (c.name, c.calls)).collect();
        assert_eq!(
            calls,
            [
                ("event-pop", 3),
                ("cpu-step", 1),
                ("proto-deliver", 1),
                ("proto-home", 0),
                ("wb-issue", 0),
                ("stats-sample", 2),
                ("net-route", 2),
            ],
            "one call per enter, none per resume"
        );
        assert_eq!(
            r.wall_nanos,
            r.cats.iter().map(|c| c.nanos).sum::<u64>(),
            "categories partition the wall"
        );
        let nap = nap.as_nanos() as u64;
        assert!(cat("net-route").nanos >= nap, "the nested nap is net-route's");
        assert!(cat("event-pop").nanos >= nap, "finish charges the open category its last slice");
        assert!(r.wall_nanos >= 2 * nap);
        assert_eq!(r.events, 2);
        assert_eq!(r.queue.depth.count(), 1);
        assert!(r.events_per_sec() > 0.0);
        let rendered = r.to_json().render_pretty();
        assert!(rendered.contains("events_per_sec"));
        assert!(rendered.contains("net-route"));
    }

    #[test]
    fn categories_index_in_report_order() {
        for (i, c) in HOST_CATS.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
    }
}
