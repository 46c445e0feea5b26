//! The per-processor write buffer.

use std::collections::VecDeque;

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};

use crate::geometry::{Addr, Word};

/// A write waiting in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingWrite {
    /// Word-aligned target address.
    pub addr: Addr,
    /// Value to store.
    pub val: Word,
}

/// A FIFO write buffer (paper: 4 entries).
///
/// Writes retire into it in one cycle unless it is full, in which case the
/// processor stalls. Reads are allowed to bypass queued writes; a read of an
/// address with a queued write forwards the newest queued value
/// (store-to-load forwarding), preserving single-thread program order.
///
/// Entries drain head-first: the protocol layer issues the head entry's
/// coherence transaction and calls [`WriteBuffer::pop_head`] when it
/// completes (WI: ownership obtained; PU/CU: update message handed to the
/// network interface).
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    entries: VecDeque<PendingWrite>,
    /// Whether the head entry's transaction has been issued to the protocol
    /// and is in flight.
    head_issued: bool,
    /// Deepest occupancy ever reached.
    high_water: usize,
}

impl WriteBuffer {
    /// Creates an empty buffer with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        WriteBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            head_issued: false,
            high_water: 0,
        }
    }

    /// Whether a new write would stall the processor.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Whether the buffer has drained completely.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Enqueues a write.
    ///
    /// # Panics
    ///
    /// Panics when full — the caller must check [`WriteBuffer::is_full`]
    /// first and stall the processor instead.
    pub fn push(&mut self, w: PendingWrite) {
        assert!(!self.is_full(), "write buffer overflow");
        self.entries.push_back(w);
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Deepest occupancy the buffer ever reached (an observability gauge:
    /// reaching `capacity` means writes stalled behind a full buffer).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The head entry, if any and not yet issued.
    pub fn head_to_issue(&self) -> Option<PendingWrite> {
        if self.head_issued {
            None
        } else {
            self.entries.front().copied()
        }
    }

    /// Marks the head entry as issued (its transaction is in flight).
    pub fn mark_head_issued(&mut self) {
        debug_assert!(!self.entries.is_empty() && !self.head_issued);
        self.head_issued = true;
    }

    /// Whether the head transaction is in flight.
    pub fn head_issued(&self) -> bool {
        self.head_issued
    }

    /// Retires the head entry after its transaction completes.
    pub fn pop_head(&mut self) -> PendingWrite {
        let head = self.entries.pop_front().expect("pop_head on empty write buffer");
        self.head_issued = false;
        head
    }

    /// Store-to-load forwarding: the newest queued value for `addr`.
    pub fn forward(&self, addr: Addr) -> Option<Word> {
        self.entries.iter().rev().find(|w| w.addr == addr).map(|w| w.val)
    }

    /// Whether any queued write targets the given block (prefix match on the
    /// block-aligned address range).
    pub fn has_write_in_block(&self, block_base: Addr, block_bytes: u32) -> bool {
        self.entries.iter().any(|w| w.addr & !(block_bytes - 1) == block_base)
    }

    /// Writes the buffer to a checkpoint: the queued writes in FIFO order,
    /// the head-issued flag and the high-water mark.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.entries.len());
        for e in &self.entries {
            w.u32(e.addr);
            w.u32(e.val);
        }
        w.bool(self.head_issued);
        w.usize(self.high_water);
    }

    /// Reads a buffer of `capacity` entries written by
    /// [`WriteBuffer::encode`], bypassing [`WriteBuffer::push`] so the
    /// high-water mark is reinstated, not recomputed.
    pub fn decode(r: &mut SnapReader<'_>, capacity: usize) -> Result<Self, SnapError> {
        let len = r.usize()?;
        if len > capacity {
            return Err(SnapError::Corrupt("write-buffer entry count overflows capacity"));
        }
        let mut wb = WriteBuffer::new(capacity);
        for _ in 0..len {
            wb.entries.push_back(PendingWrite { addr: r.u32()?, val: r.u32()? });
        }
        wb.head_issued = r.bool()?;
        wb.high_water = r.usize()?;
        if wb.head_issued && wb.entries.is_empty() {
            return Err(SnapError::Corrupt("head_issued without a head entry"));
        }
        Ok(wb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(addr: Addr, val: Word) -> PendingWrite {
        PendingWrite { addr, val }
    }

    #[test]
    fn fifo_order() {
        let mut b = WriteBuffer::new(4);
        b.push(w(0, 1));
        b.push(w(4, 2));
        assert_eq!(b.head_to_issue(), Some(w(0, 1)));
        b.mark_head_issued();
        assert_eq!(b.head_to_issue(), None, "issued head is not re-issued");
        assert_eq!(b.pop_head(), w(0, 1));
        assert_eq!(b.head_to_issue(), Some(w(4, 2)));
    }

    #[test]
    fn capacity_enforced() {
        let mut b = WriteBuffer::new(4);
        for i in 0..4 {
            assert!(!b.is_full());
            b.push(w(i * 4, i));
        }
        assert!(b.is_full());
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut b = WriteBuffer::new(4);
        assert_eq!(b.high_water(), 0);
        b.push(w(0, 1));
        b.push(w(4, 2));
        b.pop_head();
        b.pop_head();
        assert_eq!(b.high_water(), 2, "peak persists after draining");
        b.push(w(8, 3));
        assert_eq!(b.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = WriteBuffer::new(1);
        b.push(w(0, 0));
        b.push(w(4, 0));
    }

    #[test]
    fn forwarding_returns_newest() {
        let mut b = WriteBuffer::new(4);
        b.push(w(8, 1));
        b.push(w(12, 2));
        b.push(w(8, 3));
        assert_eq!(b.forward(8), Some(3));
        assert_eq!(b.forward(12), Some(2));
        assert_eq!(b.forward(16), None);
    }

    #[test]
    fn block_membership() {
        let mut b = WriteBuffer::new(4);
        b.push(w(0x44, 9));
        assert!(b.has_write_in_block(0x40, 64));
        assert!(!b.has_write_in_block(0x80, 64));
    }

    #[test]
    fn pop_resets_issue_flag() {
        let mut b = WriteBuffer::new(2);
        b.push(w(0, 1));
        b.push(w(4, 2));
        b.mark_head_issued();
        assert!(b.head_issued());
        b.pop_head();
        assert!(!b.head_issued());
        assert_eq!(b.head_to_issue(), Some(w(4, 2)));
    }
}
