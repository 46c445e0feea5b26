//! Full-map directory state.

use std::collections::VecDeque;

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::{FastMap, NodeId};

use crate::geometry::BlockAddr;

/// A full-map sharer set (bitmap over nodes; the paper's machine has 32).
/// It holds node ids below [`SharerSet::CAPACITY`]; the machine refuses
/// larger configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// Nodes the bitmap can name: ids `0..CAPACITY`.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// A singleton set.
    pub fn only(n: NodeId) -> Self {
        let mut s = SharerSet(0);
        s.insert(n);
        s
    }

    /// Adds a node.
    pub fn insert(&mut self, n: NodeId) {
        debug_assert!(n < Self::CAPACITY);
        self.0 |= 1 << n;
    }

    /// Removes a node.
    pub fn remove(&mut self, n: NodeId) {
        self.0 &= !(1 << n);
    }

    /// Membership test.
    pub fn contains(&self, n: NodeId) -> bool {
        self.0 & (1 << n) != 0
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates member node ids in ascending order, walking the set bits.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let n = bits.trailing_zeros() as NodeId;
                bits &= bits - 1;
                n
            })
        })
    }
}

/// Directory state for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the block; memory is the only copy.
    Uncached,
    /// One or more caches hold clean copies; memory is up to date.
    ///
    /// Under the update protocols this is the normal state for every cached
    /// block: the sharer set names the caches to multicast updates to.
    Shared,
    /// Exactly one cache holds a dirty copy (WI `Modified`, or PU/CU
    /// private-update mode); `owner` names it.
    Owned,
}

impl DirState {
    /// Stable name used in provenance events and trace tracks.
    pub fn name(self) -> &'static str {
        match self {
            DirState::Uncached => "Uncached",
            DirState::Shared => "Shared",
            DirState::Owned => "Owned",
        }
    }
}

/// A queued request deferred while the block is in a transient transaction.
///
/// The payload is opaque to the directory; the protocol layer stores the
/// message it will re-process once the block leaves its busy state.
pub type Deferred<M> = VecDeque<M>;

/// Per-block directory entry.
#[derive(Debug, Clone)]
pub struct DirEntry<M> {
    /// Stable state of the block.
    pub state: DirState,
    /// Caches holding the block (meaningful in `Shared`).
    pub sharers: SharerSet,
    /// Owning cache (meaningful in `Owned`).
    pub owner: NodeId,
    /// When `true`, a multi-message transaction (e.g. an ownership recall)
    /// is in flight and new requests for the block must wait.
    pub busy: bool,
    /// Requests deferred while `busy`.
    pub waiting: Deferred<M>,
}

impl<M> Default for DirEntry<M> {
    fn default() -> Self {
        DirEntry {
            state: DirState::Uncached,
            sharers: SharerSet::empty(),
            owner: 0,
            busy: false,
            waiting: VecDeque::new(),
        }
    }
}

/// The directory of one home node: block address → entry.
///
/// Entries are created on demand; an absent entry means `Uncached`.
#[derive(Debug, Clone)]
pub struct Directory<M> {
    entries: FastMap<BlockAddr, DirEntry<M>>,
}

impl<M> Default for Directory<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Directory<M> {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory { entries: FastMap::default() }
    }

    /// Mutable entry for `block`, created as `Uncached` if absent.
    pub fn entry(&mut self, block: BlockAddr) -> &mut DirEntry<M> {
        self.entries.entry(block).or_default()
    }

    /// Read-only view (None ⇒ `Uncached`, never busy).
    pub fn get(&self, block: BlockAddr) -> Option<&DirEntry<M>> {
        self.entries.get(&block)
    }

    /// Iterates all materialized entries (diagnostics / invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (&BlockAddr, &DirEntry<M>)> {
        self.entries.iter()
    }

    /// Writes every materialized entry to a checkpoint in ascending block
    /// order (the map iterates in arbitrary order): block, state, sharers,
    /// owner, busy flag, and the deferred requests, each written by
    /// `encode_msg`.
    pub fn encode(&self, w: &mut SnapWriter, encode_msg: impl Fn(&M, &mut SnapWriter)) {
        let mut entries: Vec<(&BlockAddr, &DirEntry<M>)> = self.entries.iter().collect();
        entries.sort_unstable_by_key(|&(b, _)| *b);
        w.usize(entries.len());
        for (block, e) in entries {
            w.u32(block.0);
            w.u8(match e.state {
                DirState::Uncached => 0,
                DirState::Shared => 1,
                DirState::Owned => 2,
            });
            w.u64(e.sharers.0);
            w.usize(e.owner);
            w.bool(e.busy);
            w.usize(e.waiting.len());
            for m in &e.waiting {
                encode_msg(m, w);
            }
        }
    }

    /// Reads a directory written by [`Directory::encode`], its deferred
    /// requests read by `decode_msg`.
    pub fn decode(
        r: &mut SnapReader<'_>,
        decode_msg: impl Fn(&mut SnapReader<'_>) -> Result<M, SnapError>,
    ) -> Result<Self, SnapError> {
        let mut dir = Directory::new();
        for _ in 0..r.usize()? {
            let block = BlockAddr(r.u32()?);
            let state = match r.u8()? {
                0 => DirState::Uncached,
                1 => DirState::Shared,
                2 => DirState::Owned,
                _ => return Err(SnapError::Corrupt("unknown DirState tag")),
            };
            let sharers = SharerSet(r.u64()?);
            let owner = r.usize()?;
            let busy = r.bool()?;
            let waiting = (0..r.usize()?).map(|_| decode_msg(r)).collect::<Result<_, _>>()?;
            dir.entries.insert(block, DirEntry { state, sharers, owner, busy, waiting });
        }
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(31);
        assert!(s.contains(0) && s.contains(31) && !s.contains(5));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 31]);
        s.remove(0);
        assert_eq!(s.len(), 1);
        s.remove(0); // removing twice is a no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn only_constructor() {
        let s = SharerSet::only(7);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
    }

    #[test]
    fn dir_state_names_are_stable() {
        assert_eq!(DirState::Uncached.name(), "Uncached");
        assert_eq!(DirState::Shared.name(), "Shared");
        assert_eq!(DirState::Owned.name(), "Owned");
    }

    #[test]
    fn absent_entry_is_uncached() {
        let d: Directory<()> = Directory::new();
        assert!(d.get(BlockAddr(0x40)).is_none());
    }

    #[test]
    fn entry_materializes_default() {
        let mut d: Directory<u32> = Directory::new();
        let e = d.entry(BlockAddr(0x40));
        assert_eq!(e.state, DirState::Uncached);
        assert!(!e.busy);
        e.state = DirState::Shared;
        e.sharers.insert(3);
        assert_eq!(d.get(BlockAddr(0x40)).unwrap().sharers.len(), 1);
    }

    #[test]
    fn deferred_queue_is_fifo() {
        let mut d: Directory<u32> = Directory::new();
        let e = d.entry(BlockAddr(0));
        e.busy = true;
        e.waiting.push_back(1);
        e.waiting.push_back(2);
        assert_eq!(e.waiting.pop_front(), Some(1));
        assert_eq!(e.waiting.pop_front(), Some(2));
    }
}
