//! Handler outcomes.

use sim_mem::{BlockAddr, Word};

use crate::msg::Msg;

/// What a protocol handler wants the machine to do.
///
/// Handlers are pure state transitions over one node; everything with a
/// time dimension is expressed here and scheduled by `sim-machine`.
/// Observability stays out of this struct by design: handlers report
/// classification and line-provenance facts straight into the
/// [`sim_stats::Classifier`] they are handed, which is a passive sink —
/// recording never feeds back into the effects, so simulated time and
/// traffic are identical whether provenance capture is on or off.
///
/// # The buffer contract
///
/// A handler takes `fx: &mut Effects` and only *appends* to it: it pushes
/// onto the vectors and sets the scalar fields, and never reads or clears
/// what is already there. The machine hands every handler an empty buffer,
/// applies the effects in field order, and leaves the buffer empty again
/// (see [`Effects::is_empty`]), so one buffer serves every event and its
/// vectors' capacity is reused instead of reallocated.
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to inject into the network now.
    pub sends: Vec<Msg>,
    /// Requests to re-process at this node's home memory (directory
    /// transactions deferred while the block was busy). Each passes through
    /// the memory server again.
    pub requeue_home: Vec<Msg>,
    /// A pending CPU read completed with this value.
    pub read_done: Option<Word>,
    /// The in-flight write-buffer head transaction completed; the machine
    /// retires the entry and issues the next.
    pub write_retired: bool,
    /// A pending CPU atomic completed, returning the old value.
    pub atomic_done: Option<Word>,
    /// Cache lines of this node that changed (filled, updated, invalidated):
    /// the machine wakes any processor spin-parked on them.
    pub touched_blocks: Vec<BlockAddr>,
    /// Ack bookkeeping advanced; the machine re-checks a pending fence.
    pub sync_progress: bool,
}

impl Effects {
    /// Whether the buffer holds no effect (a drained buffer, ready for the
    /// next handler).
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.requeue_home.is_empty()
            && self.read_done.is_none()
            && !self.write_retired
            && self.atomic_done.is_none()
            && self.touched_blocks.is_empty()
            && !self.sync_progress
    }
}
