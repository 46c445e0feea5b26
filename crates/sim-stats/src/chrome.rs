//! Chrome `trace_event` export (viewable in Perfetto / `chrome://tracing`).
//!
//! Builds the JSON-array flavor of the trace format: `"X"` complete events
//! for CPU state slices (one track per processor), `"b"`/`"e"` async pairs
//! for flows between tracks (a protocol message from injection to
//! delivery, a causal edge), `"i"` instants for one-shot markers, and
//! `"M"` metadata records naming processes and threads. Timestamps are
//! simulated cycles written into the format's microsecond field — absolute
//! units don't matter to the viewers, only ordering and duration do.

use sim_engine::Cycle;

use crate::json::Json;

/// Builder for a Chrome trace (the JSON-array format).
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, ph: &str, pid: u64, tid: u64, ts: Cycle, extra: Vec<(String, Json)>) {
        let mut pairs = vec![
            ("ph".to_string(), Json::from(ph)),
            ("pid".to_string(), Json::U64(pid)),
            ("tid".to_string(), Json::U64(tid)),
            ("ts".to_string(), Json::U64(ts)),
        ];
        pairs.extend(extra);
        self.events.push(Json::Obj(pairs));
    }

    /// Adds a complete (`"X"`) event: a named slice on track `tid`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &str,
        start: Cycle,
        dur: Cycle,
        args: Vec<(String, Json)>,
    ) {
        let mut extra = vec![
            ("name".to_string(), Json::from(name)),
            ("cat".to_string(), Json::from(cat)),
            ("dur".to_string(), Json::U64(dur)),
        ];
        if !args.is_empty() {
            extra.push(("args".to_string(), Json::Obj(args)));
        }
        self.push("X", pid, tid, start, extra);
    }

    /// Adds an async begin (`"b"`). Viewers match it to the async end with
    /// the same `(cat, id)`; emit the two together, once both ends are
    /// known, so no begin is left dangling.
    pub fn async_begin(&mut self, pid: u64, tid: u64, name: &str, cat: &str, id: u64, ts: Cycle) {
        self.push(
            "b",
            pid,
            tid,
            ts,
            vec![
                ("name".to_string(), Json::from(name)),
                ("cat".to_string(), Json::from(cat)),
                ("id".to_string(), Json::U64(id)),
            ],
        );
    }

    /// Adds the async end (`"e"`) matching [`ChromeTrace::async_begin`].
    pub fn async_end(&mut self, pid: u64, tid: u64, name: &str, cat: &str, id: u64, ts: Cycle) {
        self.push(
            "e",
            pid,
            tid,
            ts,
            vec![
                ("name".to_string(), Json::from(name)),
                ("cat".to_string(), Json::from(cat)),
                ("id".to_string(), Json::U64(id)),
            ],
        );
    }

    /// Adds an instant (`"i"`) marker on track `tid`.
    pub fn instant(&mut self, pid: u64, tid: u64, name: &str, ts: Cycle) {
        self.push(
            "i",
            pid,
            tid,
            ts,
            vec![("name".to_string(), Json::from(name)), ("s".to_string(), Json::from("t"))],
        );
    }

    /// Names a process in the viewer.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.push(
            "M",
            pid,
            0,
            0,
            vec![
                ("name".to_string(), Json::from("process_name")),
                ("args".to_string(), Json::obj([("name", Json::from(name))])),
            ],
        );
    }

    /// Names a thread (track) in the viewer.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.push(
            "M",
            pid,
            tid,
            0,
            vec![
                ("name".to_string(), Json::from("thread_name")),
                ("args".to_string(), Json::obj([("name", Json::from(name))])),
            ],
        );
    }

    /// The trace as a JSON array value.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.events.clone())
    }

    /// Renders the trace (compact; one JSON array).
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_well_formed_events() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "WI");
        t.thread_name(1, 0, "cpu0");
        t.complete(1, 0, "Busy", "cpu", 0, 50, vec![("phase".to_string(), Json::from("hold"))]);
        t.instant(1, 0, "halt", 50);
        let parsed = Json::parse(&t.render()).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[2].get("dur").and_then(Json::as_u64), Some(50));
        assert_eq!(events[2].get("args").unwrap().get("phase").and_then(Json::as_str), Some("hold"));
    }
}
