//! Message-level tracing.
//!
//! When enabled (see [`crate::Machine::enable_trace`]), the machine records
//! every protocol message injection (with the cycle the network delivers
//! it) and every handling, plus processor halts, into a bounded buffer —
//! the first tool to reach for when a protocol interaction looks wrong.
//! Rendering is one line per event:
//!
//! ```text
//!      12  0->2  send   ReadShared       @0x800040 -> 40
//!      61  0->2  handle ReadShared       @0x800040
//!      96  2->0  send   Data             @0x800040 -> 136
//! ```

use std::fmt;

use sim_engine::{Cycle, NodeId};
use sim_mem::Addr;

/// One traced event. Each message has exactly one `Send`, which carries
/// its delivery cycle; a message may have several `Handle`s, since a home
/// re-handles a request it deferred while the block was busy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message entered the network.
    Send {
        /// Injection cycle.
        at: Cycle,
        /// Cycle the network delivers the message at its destination.
        delivered: Cycle,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Message kind name.
        kind: &'static str,
        /// Word address of the transaction.
        addr: Addr,
    },
    /// A message was handled at its destination: after memory service for
    /// home-side messages, and once more each time a home re-runs a request
    /// it deferred.
    Handle {
        /// Handling cycle.
        at: Cycle,
        /// Sender.
        src: NodeId,
        /// Destination (handler).
        dst: NodeId,
        /// Message kind name.
        kind: &'static str,
        /// Word address of the transaction.
        addr: Addr,
    },
    /// A processor halted.
    Halt {
        /// Halt cycle.
        at: Cycle,
        /// The processor.
        node: NodeId,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Send { at, delivered, src, dst, kind, addr } => {
                write!(f, "{at:>8}  {src}->{dst}  send   {kind:<16} @{addr:#x} -> {delivered}")
            }
            TraceEvent::Handle { at, src, dst, kind, addr } => {
                write!(f, "{at:>8}  {src}->{dst}  handle {kind:<16} @{addr:#x}")
            }
            TraceEvent::Halt { at, node } => write!(f, "{at:>8}  cpu {node} halt"),
        }
    }
}

/// A bounded trace buffer. Once full, further events are counted but not
/// stored (the `dropped` counter says how many).
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Restrict recording to transactions on this word address.
    filter_addr: Option<Addr>,
}

impl Trace {
    /// Hard upper bound on trace capacity. [`Trace::new`] clamps larger
    /// requests to this, bounding trace memory at roughly 48 MiB; longer
    /// histories should use the address filter or the `dropped` counter.
    pub const MAX_CAPACITY: usize = 1 << 20;

    /// Creates a buffer holding up to `capacity` events (clamped to
    /// [`Trace::MAX_CAPACITY`]). Storage grows lazily from a small initial
    /// allocation, so huge capacities cost nothing until events arrive.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.min(Self::MAX_CAPACITY);
        Trace { events: Vec::with_capacity(capacity.min(4096)), capacity, dropped: 0, filter_addr: None }
    }

    /// The (clamped) event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Only record events whose transaction targets `addr`'s word.
    pub fn filter_addr(mut self, addr: Addr) -> Self {
        self.filter_addr = Some(addr);
        self
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if let Some(want) = self.filter_addr {
            let addr = match &ev {
                TraceEvent::Send { addr, .. } | TraceEvent::Handle { addr, .. } => Some(*addr),
                TraceEvent::Halt { .. } => None,
            };
            if addr.is_some_and(|a| a != want) {
                return;
            }
        }
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that arrived after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the whole trace, one event per line.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for ev in &self.events {
            let _ = writeln!(out, "{ev}");
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} further events dropped (buffer full)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(at: Cycle, addr: Addr) -> TraceEvent {
        TraceEvent::Send { at, delivered: at + 10, src: 0, dst: 1, kind: "ReadShared", addr }
    }

    #[test]
    fn huge_capacity_requests_are_clamped() {
        let t = Trace::new(usize::MAX);
        assert_eq!(t.capacity(), Trace::MAX_CAPACITY);
        let t = Trace::new(16);
        assert_eq!(t.capacity(), 16);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let mut t = Trace::new(2);
        t.push(send(1, 0x40));
        t.push(send(2, 0x40));
        t.push(send(3, 0x40));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert!(t.render().contains("further events dropped"));
    }

    #[test]
    fn address_filter_selects() {
        let mut t = Trace::new(10).filter_addr(0x80);
        t.push(send(1, 0x40));
        t.push(send(2, 0x80));
        t.push(TraceEvent::Halt { at: 3, node: 0 });
        assert_eq!(t.events().len(), 2, "matching send + halt (unaddressed)");
    }

    #[test]
    fn rendering_is_one_line_per_event() {
        let mut t = Trace::new(10);
        t.push(send(12, 0x800040));
        t.push(TraceEvent::Halt { at: 99, node: 3 });
        let r = t.render();
        assert_eq!(r.lines().count(), 2);
        assert!(r.contains("ReadShared"));
        assert!(r.contains("cpu 3 halt"));
    }
}
