//! Phase-aware periodic sampling: an in-memory time series of gauge
//! snapshots taken every `sample_interval` cycles.
//!
//! The machine's run loop takes a sample every `sample_interval` cycles,
//! before it dispatches the first event at or past the sample's cycle (a
//! sample is not an event: it is never queued, popped or fingerprinted).
//! Each snapshots per-node instantaneous state (CPU class, write buffer
//! depth) and cumulative component counters (memory/port busy cycles,
//! messages sent) into a [`Sample`] appended here. The counters run from
//! the run's start: a run restored from a checkpoint counts from its
//! restore point, like the rest of its report. Samples are plain data
//! with `PartialEq`, so two identical runs can assert their series are
//! identical — sampling is part of the deterministic simulation, not a
//! wall-clock profiler.

use sim_engine::Cycle;

use crate::json::Json;
use crate::obs::CpuClass;

/// Cap on stored samples (about 8 MiB of samples for a 16-node machine;
/// overflow is counted, not stored).
pub const SAMPLE_CAP: usize = 1 << 18;

/// Rows per storage chunk of [`SampleRows`].
pub const SAMPLE_CHUNK: usize = 256;

/// Fixed-width rows — a head plus `width` values each — stored in chunks of
/// [`SAMPLE_CHUNK`] rows. Appending allocates once per chunk, never once
/// per row, and a full chunk is never moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRows<H, V> {
    width: usize,
    chunks: Vec<RowChunk<H, V>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RowChunk<H, V> {
    heads: Vec<H>,
    values: Vec<V>,
}

impl<H: Copy, V: Copy> SampleRows<H, V> {
    /// No rows, each of `width` values.
    pub fn new(width: usize) -> Self {
        SampleRows { width, chunks: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        // Every chunk but the last is full.
        self.chunks.last().map_or(0, |c| (self.chunks.len() - 1) * SAMPLE_CHUNK + c.heads.len())
    }

    /// True when no row was appended.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Appends one row; `values` must yield exactly `width` values.
    pub fn push(&mut self, head: H, values: impl IntoIterator<Item = V>) {
        if self.chunks.last().map_or(true, |c| c.heads.len() == SAMPLE_CHUNK) {
            self.chunks.push(RowChunk {
                heads: Vec::with_capacity(SAMPLE_CHUNK),
                values: Vec::with_capacity(SAMPLE_CHUNK * self.width),
            });
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        chunk.heads.push(head);
        chunk.values.extend(values);
        assert_eq!(chunk.values.len(), chunk.heads.len() * self.width, "a row has `width` values");
    }

    /// The last row's head.
    pub fn last_head(&self) -> Option<H> {
        self.chunks.last().and_then(|c| c.heads.last().copied())
    }

    /// Every row as `(head, values)`, in append order.
    pub fn iter(&self) -> impl Iterator<Item = (H, &[V])> + '_ {
        let w = self.width;
        self.chunks.iter().flat_map(move |c| {
            c.heads.iter().enumerate().map(move |(i, &h)| (h, &c.values[i * w..(i + 1) * w]))
        })
    }
}

/// One node's slice of a periodic snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSample {
    /// The class the processor was in when the sample fired.
    pub class: CpuClass,
    /// Program phase the processor was in.
    pub phase: u16,
    /// Write-buffer entries outstanding.
    pub wb_len: usize,
    /// Cumulative memory-module busy cycles.
    pub mem_busy: Cycle,
    /// Cumulative transmit-port busy cycles.
    pub tx_busy: Cycle,
    /// Cumulative receive-port busy cycles.
    pub rx_busy: Cycle,
}

/// One periodic snapshot of the whole machine, viewed in its
/// [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample<'a> {
    /// Cycle the sample fired at.
    pub at: Cycle,
    /// Per-node state.
    pub nodes: &'a [NodeSample],
    /// Cumulative protocol messages sent machine-wide.
    pub msgs_sent: u64,
    /// Cumulative flits injected machine-wide.
    pub flits_sent: u64,
}

/// A sample's machine-wide part: `(at, msgs_sent, flits_sent)`.
type SampleHead = (Cycle, u64, u64);

/// The ordered series of samples from one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval: Cycle,
    rows: SampleRows<SampleHead, NodeSample>,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series of `nodes`-node samples at the given interval.
    pub fn new(interval: Cycle, nodes: usize) -> Self {
        TimeSeries { interval, rows: SampleRows::new(nodes), dropped: 0 }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Appends the sample taken at `at` (drops it past [`SAMPLE_CAP`],
    /// counting the drop); `nodes` yields one entry per node.
    pub fn push(
        &mut self,
        at: Cycle,
        msgs_sent: u64,
        flits_sent: u64,
        nodes: impl IntoIterator<Item = NodeSample>,
    ) {
        debug_assert!(
            !self.rows.last_head().is_some_and(|(prev, _, _)| prev >= at),
            "samples must arrive in increasing cycle order"
        );
        if self.rows.len() < SAMPLE_CAP {
            self.rows.push((at, msgs_sent, flits_sent), nodes);
        } else {
            self.dropped += 1;
        }
    }

    /// The stored samples, in cycle order.
    pub fn samples(&self) -> Vec<Sample<'_>> {
        self.rows
            .iter()
            .map(|((at, msgs_sent, flits_sent), nodes)| Sample { at, nodes, msgs_sent, flits_sent })
            .collect()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Samples dropped once [`SAMPLE_CAP`] was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes as `{interval, dropped, samples: [...]}`; per-sample node
    /// arrays are kept compact (parallel arrays) to keep reports small.
    pub fn to_json(&self) -> Json {
        let samples = self
            .samples()
            .iter()
            .map(|s| {
                Json::obj([
                    ("at", Json::U64(s.at)),
                    ("msgs_sent", Json::U64(s.msgs_sent)),
                    ("flits_sent", Json::U64(s.flits_sent)),
                    ("class", Json::Arr(s.nodes.iter().map(|n| Json::from(n.class.name())).collect())),
                    ("phase", Json::Arr(s.nodes.iter().map(|n| Json::from(n.phase)).collect())),
                    ("wb_len", Json::Arr(s.nodes.iter().map(|n| Json::from(n.wb_len)).collect())),
                    ("mem_busy", Json::Arr(s.nodes.iter().map(|n| Json::U64(n.mem_busy)).collect())),
                    ("tx_busy", Json::Arr(s.nodes.iter().map(|n| Json::U64(n.tx_busy)).collect())),
                    ("rx_busy", Json::Arr(s.nodes.iter().map(|n| Json::U64(n.rx_busy)).collect())),
                ])
            })
            .collect();
        Json::obj([
            ("interval", Json::U64(self.interval)),
            ("dropped", Json::U64(self.dropped)),
            ("samples", Json::Arr(samples)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(at: Cycle) -> NodeSample {
        NodeSample { class: CpuClass::Busy, phase: 0, wb_len: 1, mem_busy: at / 2, tx_busy: 0, rx_busy: 0 }
    }

    fn push(ts: &mut TimeSeries, at: Cycle) {
        ts.push(at, at / 10, at / 5, [node(at)]);
    }

    #[test]
    fn stores_in_order_and_serializes() {
        let mut ts = TimeSeries::new(1000, 1);
        push(&mut ts, 1000);
        push(&mut ts, 2000);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.samples()[1].at, 2000);
        let j = ts.to_json();
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed.get("interval").and_then(Json::as_u64), Some(1000));
        assert_eq!(parsed.get("samples").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn empty_series_serializes_and_reports_nothing() {
        let ts = TimeSeries::new(250, 4);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.dropped(), 0);
        let parsed = Json::parse(&ts.to_json().render()).unwrap();
        assert_eq!(parsed.get("interval").and_then(Json::as_u64), Some(250));
        assert_eq!(parsed.get("samples").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn equality_supports_determinism_checks() {
        let mut a = TimeSeries::new(500, 1);
        let mut b = TimeSeries::new(500, 1);
        push(&mut a, 500);
        push(&mut b, 500);
        assert_eq!(a, b);
        push(&mut b, 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn rows_span_chunks_in_order() {
        let mut rows = SampleRows::new(3);
        let n = 2 * SAMPLE_CHUNK as u64 + 5;
        for i in 0..n {
            rows.push(i, [i, i + 1, i + 2]);
        }
        assert_eq!(rows.len(), n as usize);
        assert_eq!(rows.last_head(), Some(n - 1));
        for (i, (head, values)) in rows.iter().enumerate() {
            let i = i as u64;
            assert_eq!((head, values), (i, &[i, i + 1, i + 2][..]));
        }
        let mut empty = SampleRows::<u64, u64>::new(0);
        assert!(empty.is_empty());
        empty.push(7, []);
        assert_eq!(empty.iter().collect::<Vec<_>>(), vec![(7, &[][..])], "zero-width rows keep their heads");
    }
}
