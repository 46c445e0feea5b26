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
//!   histograms. The machine drives the scoped timers; this module owns
//!   the accumulators and the report.
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

use sim_engine::{Cycle, QueueStats, StableHasher};

use crate::hist::LatencyHist;
use crate::json::Json;

/// Host-observability switches. All off by default; the default path pays
/// one `Option` check per popped event and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostObsConfig {
    /// Master switch for the host self-profiler (dispatch-category wall
    /// timers and event-queue analytics).
    pub enabled: bool,
    /// Record a streaming determinism fingerprint of the event stream.
    /// Independent of `enabled`, so a fingerprint-only run skips the
    /// per-event `Instant` calls.
    pub fingerprint: bool,
    /// Events per fingerprint epoch (the diff granularity).
    pub fingerprint_epoch: u64,
}

impl Default for HostObsConfig {
    fn default() -> Self {
        HostObsConfig { enabled: false, fingerprint: false, fingerprint_epoch: 8192 }
    }
}

/// Queue-analytics sampling period, in popped events.
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
    /// `EventQueue::pop` (bitmap scan, window advance, far-heap merge).
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
    /// Periodic observability sampling (`Ev::Sample` — the stats hooks).
    Sample,
    /// Network hop routing and port occupancy (`Network::send`), timed
    /// inside whichever handler sent and subtracted from its category so
    /// the breakdown partitions instead of double-counting.
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

/// Wall-time accumulator for one dispatch category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatAcct {
    /// Timed invocations.
    pub calls: u64,
    /// Total host nanoseconds.
    pub nanos: u64,
}

/// Accumulates the host self-profile during a run. The machine calls
/// [`HostProfiler::add`] around each dispatched event and
/// [`HostProfiler::add_inner`] around nested network routing; queue
/// analytics are sampled every [`QUEUE_SAMPLE_EVERY`] pops.
#[derive(Debug, Default)]
pub struct HostProfiler {
    cats: [CatAcct; HOST_CATS.len()],
    /// Nanos charged to nested categories since the last
    /// [`HostProfiler::take_inner`], subtracted from the enclosing
    /// handler's slice so categories partition the loop's wall time.
    inner_nanos: u64,
    pops: u64,
    depth: LatencyHist,
    occupied_slots: LatencyHist,
    far_depth: LatencyHist,
}

impl HostProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        HostProfiler::default()
    }

    /// Charges `nanos` (one call) to `cat`.
    pub fn add(&mut self, cat: HostCat, nanos: u64) {
        let a = &mut self.cats[cat.index()];
        a.calls += 1;
        a.nanos += nanos;
    }

    /// Charges a *nested* slice: counted under `cat` and remembered so the
    /// enclosing handler can subtract it via [`HostProfiler::take_inner`].
    pub fn add_inner(&mut self, cat: HostCat, nanos: u64) {
        self.add(cat, nanos);
        self.inner_nanos += nanos;
    }

    /// Takes the nested nanos accumulated since the last call.
    pub fn take_inner(&mut self) -> u64 {
        std::mem::take(&mut self.inner_nanos)
    }

    /// Counts one popped event; returns `true` when a queue-analytics
    /// sample is due (every [`QUEUE_SAMPLE_EVERY`] pops, first pop
    /// included so short runs still produce a sample).
    pub fn note_pop(&mut self) -> bool {
        let due = self.pops % QUEUE_SAMPLE_EVERY == 0;
        self.pops += 1;
        due
    }

    /// Records one queue-analytics sample (pending events, occupied wheel
    /// slots, far-future-heap entries).
    pub fn sample_queue(&mut self, depth: usize, occupied_slots: usize, far_depth: usize) {
        self.depth.record(depth as u64);
        self.occupied_slots.record(occupied_slots as u64);
        self.far_depth.record(far_depth as u64);
    }

    /// Seals the profile into a report. `wall_nanos` is the whole `run()`
    /// wall time; `queue` the event queue's lifetime counters.
    pub fn finish(self, cycles: Cycle, wall_nanos: u64, queue: QueueStats) -> HostObsReport {
        HostObsReport {
            wall_nanos,
            events: self.pops,
            cycles,
            cats: HOST_CATS
                .iter()
                .map(|&c| HostCatReport {
                    name: c.name(),
                    calls: self.cats[c.index()].calls,
                    nanos: self.cats[c.index()].nanos,
                })
                .collect(),
            queue: QueueReport {
                scheduled: queue.scheduled,
                far_spills: queue.far_spills,
                far_merged: queue.far_merged,
                peak_depth: queue.peak_len,
                depth: self.depth,
                occupied_slots: self.occupied_slots,
                far_depth: self.far_depth,
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
#[derive(Debug, Clone)]
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
    /// Wall time of the whole `run()` call, in host nanoseconds.
    pub wall_nanos: u64,
    /// Events popped and dispatched (including the post-halt drain).
    pub events: u64,
    /// Simulated execution time (the last halt).
    pub cycles: Cycle,
    /// Per-category wall-time breakdown, in [`HOST_CATS`] order.
    pub cats: Vec<HostCatReport>,
    /// Event-queue analytics.
    pub queue: QueueReport,
}

impl HostObsReport {
    /// Nanoseconds accounted to some dispatch category; the remainder up
    /// to [`HostObsReport::wall_nanos`] is loop overhead plus timer cost.
    pub fn accounted_nanos(&self) -> u64 {
        self.cats.iter().map(|c| c.nanos).sum()
    }

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
                    ("depth", hist_json(&self.queue.depth)),
                    ("occupied_slots", hist_json(&self.queue.occupied_slots)),
                    ("far_depth", hist_json(&self.queue.far_depth)),
                ]),
            ),
        ])
    }
}

fn hist_json(h: &LatencyHist) -> Json {
    Json::obj([
        ("count", Json::U64(h.count())),
        ("mean", Json::F64(h.mean())),
        ("max", Json::U64(h.max())),
        (
            "buckets",
            Json::Arr(
                h.nonempty_buckets().map(|(lo, n)| Json::Arr(vec![Json::U64(lo), Json::U64(n)])).collect(),
            ),
        ),
    ])
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
    total: u64,
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
    /// event stream is identical. `total_events` counts the skipped events
    /// as recorded, keeping end-of-run totals comparable.
    pub fn resume(epoch_events: u64, epoch_offset: u64) -> Self {
        let epoch_events = epoch_events.max(1);
        FingerprintRecorder {
            epoch_events,
            hasher: epoch_hasher(epoch_offset),
            in_epoch: 0,
            total: epoch_offset * epoch_events,
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
        self.total += 1;
        if self.in_epoch == self.epoch_events {
            self.seal_epoch();
        }
    }

    fn seal_epoch(&mut self) {
        self.epochs.push(self.hasher.finish128());
        self.hasher = epoch_hasher(self.epoch_offset + self.epochs.len() as u64);
        self.in_epoch = 0;
    }

    /// Events absorbed so far.
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Seals the trailing partial epoch (if any) and attaches the
    /// end-of-run machine-state digest.
    pub fn finish(mut self, state_digest: (u64, u64)) -> FingerprintChain {
        if self.in_epoch > 0 {
            self.seal_epoch();
        }
        FingerprintChain {
            epoch_events: self.epoch_events,
            epochs: self.epochs,
            total_events: self.total,
            state_digest,
        }
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

/// Fine-grained localization of an [`FingerprintDivergence::Epoch`]
/// divergence: the divergent epoch's global event-index range, plus the
/// exact first divergent event when the chain metadata pins it.
///
/// Epoch digests are opaque, so a content mismatch inside a common epoch
/// only bounds the divergence to the epoch's event range — replay
/// (`ppc replay`) resolves the exact event. But when one stream is shorter
/// and ends *inside* the divergent epoch, the earliest possible divergence
/// is the first event the shorter stream lacks, and that index (global and
/// in-epoch) is reported here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceDetail {
    /// Index of the first divergent epoch.
    pub epoch: usize,
    /// Global index of the epoch's first event.
    pub event_lo: u64,
    /// One past the epoch's last event index covered by either run.
    pub event_hi: u64,
    /// Exact global index of the first event the chains can pin the
    /// divergence to (`None` when only replay can resolve it).
    pub first_event: Option<u64>,
    /// `first_event` relative to the epoch start (the recorder's `in_epoch`
    /// counter at that event).
    pub in_epoch: Option<u64>,
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
    /// range, pinning the exact first divergent event when one stream is a
    /// prefix ending inside the divergent epoch. `None` when the chains are
    /// identical or the divergence is not epoch-shaped
    /// ([`FingerprintDivergence::Parameters`] / `StateOnly`).
    pub fn divergence_detail(&self, other: &FingerprintChain) -> Option<DivergenceDetail> {
        match self.first_divergence(other)? {
            FingerprintDivergence::Epoch(i) => {
                let event_lo = i as u64 * self.epoch_events;
                let event_hi = (event_lo + self.epoch_events).min(self.total_events.max(other.total_events));
                let min_total = self.total_events.min(other.total_events);
                // The shorter stream ends inside the divergent epoch: the
                // first event it lacks is the earliest the chains can pin.
                let first_event = (self.total_events != other.total_events
                    && (event_lo..event_hi).contains(&min_total))
                .then_some(min_total);
                Some(DivergenceDetail {
                    epoch: i,
                    event_lo,
                    event_hi,
                    first_event,
                    in_epoch: first_event.map(|e| e - event_lo),
                })
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
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
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
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
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
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
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
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
        assert_eq!(a.epochs.len(), b.epochs.len());
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::Epoch(1)));
    }

    #[test]
    fn state_only_divergence() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, None);
        let (a, b) = (a.finish((1, 2)), b.finish((9, 9)));
        assert_eq!(a.first_divergence(&b), Some(FingerprintDivergence::StateOnly));
        assert_ne!(a.chain_digest_hex(), b.chain_digest_hex());
    }

    #[test]
    fn mismatched_epoch_sizes_are_not_comparable() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(32);
        feed(&mut a, 128, None);
        feed(&mut b, 128, None);
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
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
        let (full, tail) = (full.finish((1, 2)), tail.finish((1, 2)));
        assert_eq!(full.epochs[4..], tail.epochs, "tail epochs line up globally");
        assert_eq!(full.total_events, tail.total_events, "skipped events counted as recorded");
    }

    #[test]
    fn divergence_detail_bounds_common_epoch_mismatch() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, Some(7 * 64 + 13));
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
        let d = a.divergence_detail(&b).expect("diverged");
        assert_eq!(d.epoch, 7);
        assert_eq!(d.event_lo, 7 * 64);
        assert_eq!(d.event_hi, 8 * 64);
        assert_eq!(d.first_event, None, "content mismatch needs replay to pin");
        assert_eq!(d.in_epoch, None);
    }

    #[test]
    fn divergence_detail_pins_prefix_end() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 100, None);
        feed(&mut b, 101, None);
        let (a, b) = (a.finish((1, 2)), b.finish((1, 2)));
        let d = a.divergence_detail(&b).expect("diverged");
        assert_eq!(d.epoch, 1);
        assert_eq!(d.first_event, Some(100), "shorter stream ends mid-epoch");
        assert_eq!(d.in_epoch, Some(100 - 64));
        assert_eq!(b.divergence_detail(&a), Some(d), "symmetric");
    }

    #[test]
    fn divergence_detail_absent_for_non_epoch_shapes() {
        let mut a = FingerprintRecorder::new(64);
        let mut b = FingerprintRecorder::new(64);
        feed(&mut a, 640, None);
        feed(&mut b, 640, None);
        let (a, b2) = (a.finish((1, 2)), b.finish((9, 9)));
        assert_eq!(a.first_divergence(&b2), Some(FingerprintDivergence::StateOnly));
        assert_eq!(a.divergence_detail(&b2), None, "state-only has no epoch range");
        assert_eq!(a.divergence_detail(&a.clone()), None, "identical chains");
    }

    #[test]
    fn profiler_partitions_nested_time() {
        let mut p = HostProfiler::new();
        p.add_inner(HostCat::NetRoute, 30);
        let inner = p.take_inner();
        assert_eq!(inner, 30);
        p.add(HostCat::Deliver, 100 - inner);
        assert_eq!(p.take_inner(), 0, "inner scratch resets");
        p.add(HostCat::Pop, 10);
        assert!(p.note_pop(), "first pop samples");
        p.sample_queue(5, 3, 1);
        let r = p.finish(1_000, 200, QueueStats::default());
        assert_eq!(r.accounted_nanos(), 110, "net-route + deliver + pop partition");
        let by_name = |n: &str| r.cats.iter().find(|c| c.name == n).unwrap().nanos;
        assert_eq!(by_name("net-route"), 30);
        assert_eq!(by_name("proto-deliver"), 70);
        assert_eq!(r.events, 1);
        assert_eq!(r.queue.depth.count(), 1);
        assert!(r.events_per_sec() > 0.0);
        let rendered = r.to_json().render_pretty();
        assert!(rendered.contains("events_per_sec"));
        assert!(rendered.contains("net-route"));
    }

    #[test]
    fn queue_sampling_period_is_honored() {
        let mut p = HostProfiler::new();
        let due: Vec<u64> = (0..3 * QUEUE_SAMPLE_EVERY + 1).filter(|_| p.note_pop()).collect();
        assert_eq!(due, [0, 1, 2, 3].map(|k| k * QUEUE_SAMPLE_EVERY), "first pop, then every period");
    }

    #[test]
    fn categories_index_in_report_order() {
        for (i, c) in HOST_CATS.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
    }
}
