//! Spans around the benchmark's calls into each layer, kept in memory and
//! written at exit as a Chrome trace (opens in Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use sim_stats::{ChromeTrace, Json};

struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
    args: Vec<(String, Json)>,
}

/// An in-memory span recorder. A recorder made by [`Spans::off`] records
/// nothing, so the timed runs share the traced code path.
pub struct Spans {
    on: bool,
    t0: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records.
    pub fn on() -> Self {
        Spans { on: true, t0: Instant::now(), open: Vec::new(), spans: Vec::new() }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans { on: false, ..Self::on() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span, nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let span = Span {
                name,
                start_ns: self.now_ns(),
                dur_ns: 0,
                parent: self.open.last().copied(),
                args: vec![],
            };
            self.open.push(self.spans.len());
            self.spans.push(span);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        self.end_with(vec![]);
    }

    /// Closes the innermost open span, attaching `args` to it.
    pub fn end_with(&mut self, args: Vec<(String, Json)>) {
        if let Some(i) = self.open.pop() {
            let now = self.now_ns();
            let span = &mut self.spans[i];
            span.dur_ns = now - span.start_ns;
            span.args = args;
        }
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is a
    /// span's duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(child);
        }
        out
    }

    /// The spans as a Chrome trace on one track, timestamps in microseconds.
    pub fn chrome_trace(&self, process: &str) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(1, process);
        t.thread_name(1, 0, "benchmark thread");
        for s in &self.spans {
            t.complete(1, 0, s.name, "perfbench", s.start_ns / 1_000, s.dur_ns / 1_000, s.args.clone());
        }
        t
    }
}
