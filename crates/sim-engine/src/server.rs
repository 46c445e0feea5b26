//! Earliest-free-time FIFO resource servers.

use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::Cycle;

/// A single-occupancy FIFO resource.
///
/// The paper models contention at exactly three places: the memory module of
/// each node, and the transmit/receive ports of each network interface. All
/// three serve one request at a time in arrival order, which is captured by
/// a single "earliest free time" scalar: a request arriving at `now` that
/// needs `service` cycles begins at `max(now, free_at)` and completes
/// `service` cycles later.
///
/// ```
/// use sim_engine::FifoServer;
///
/// let mut mem = FifoServer::new();
/// // Two block reads arrive back to back; the second queues behind the first.
/// assert_eq!(mem.occupy(100, 35), 135);
/// assert_eq!(mem.occupy(101, 35), 170);
/// // Once the module drains, service starts immediately again.
/// assert_eq!(mem.occupy(500, 20), 520);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    free_at: Cycle,
    busy_cycles: Cycle,
    wait_cycles: Cycle,
    requests: u64,
}

impl FifoServer {
    /// Creates a server that is free at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a request arriving at `now` needing `service` cycles and
    /// returns its completion cycle.
    pub fn occupy(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let start = self.free_at.max(now);
        self.wait_cycles += start - now;
        self.free_at = start + service;
        self.busy_cycles += service;
        self.requests += 1;
        self.free_at
    }

    /// The first cycle at which the server would start a request arriving at
    /// `now`, without enqueueing anything.
    pub fn next_start(&self, now: Cycle) -> Cycle {
        self.free_at.max(now)
    }

    /// Total cycles of service performed so far (a utilization numerator).
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Total cycles requests spent queued before service began (a
    /// contention measure: zero means every request found the server idle).
    pub fn wait_cycles(&self) -> Cycle {
        self.wait_cycles
    }

    /// Number of requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Writes the server's state to a checkpoint: free time, then the busy,
    /// wait and request counters.
    pub fn encode(&self, w: &mut SnapWriter) {
        for v in [self.free_at, self.busy_cycles, self.wait_cycles, self.requests] {
            w.u64(v);
        }
    }

    /// Reads a server written by [`FifoServer::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FifoServer { free_at: r.u64()?, busy_cycles: r.u64()?, wait_cycles: r.u64()?, requests: r.u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        assert_eq!(s.occupy(42, 10), 52);
    }

    #[test]
    fn queued_requests_serialize() {
        let mut s = FifoServer::new();
        let a = s.occupy(0, 20);
        let b = s.occupy(0, 20);
        let c = s.occupy(0, 20);
        assert_eq!((a, b, c), (20, 40, 60));
    }

    #[test]
    fn gap_resets_start_time() {
        let mut s = FifoServer::new();
        s.occupy(0, 5);
        assert_eq!(s.occupy(1000, 5), 1005);
    }

    #[test]
    fn accounting() {
        let mut s = FifoServer::new();
        s.occupy(0, 7);
        s.occupy(0, 3);
        assert_eq!(s.busy_cycles(), 10);
        assert_eq!(s.requests(), 2);
        // The second request queued for the first's full 7-cycle service.
        assert_eq!(s.wait_cycles(), 7);
        s.occupy(100, 5);
        assert_eq!(s.wait_cycles(), 7, "an idle-server request adds no wait");
    }

    #[test]
    fn zero_service_is_allowed() {
        let mut s = FifoServer::new();
        assert_eq!(s.occupy(9, 0), 9);
        assert_eq!(s.requests(), 1);
    }
}
