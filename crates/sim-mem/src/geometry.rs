//! Address-space geometry: words, blocks, and home-node mapping.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::NodeId;

/// A shared-memory byte address.
pub type Addr = u32;

/// The value held in one memory word (the machine is 32-bit-word based, so
/// a 64-byte block holds 16 words).
pub type Word = u32;

/// Cache-block size in bytes (paper: 64). Every machine uses it.
pub const BLOCK_BYTES: u32 = 64;

/// Words in one block.
pub const BLOCK_WORDS: usize = (BLOCK_BYTES / 4) as usize;

/// The contents of one cache block, held inline by caches and memory.
pub type Block = [Word; BLOCK_WORDS];

/// Writes a block to a snapshot: its word count, then the words. Caches,
/// memories and block-carrying messages all store blocks this way.
pub fn encode_block(w: &mut SnapWriter, data: &[Word]) {
    w.usize(data.len());
    w.u32_slice(data);
}

/// Reads a block written by [`encode_block`], refusing any length but one
/// block.
pub fn decode_block(r: &mut SnapReader<'_>) -> Result<Block, SnapError> {
    if r.usize()? != BLOCK_WORDS {
        return Err(SnapError::Corrupt("stored block length is not one block"));
    }
    let mut data = [0; BLOCK_WORDS];
    for word in &mut data {
        *word = r.u32()?;
    }
    Ok(data)
}

/// The base address of a cache block (aligned to the block size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr(pub Addr);

/// Static address-space parameters shared by every component.
///
/// The shared address space is divided into fixed-size *regions*, each owned
/// (homed) by one node. The paper interleaves shared data across memories at
/// block level but also states (Section 4) that "shared data are mapped to
/// the processors that use them most frequently"; the allocator in
/// [`crate::alloc`] implements that placement by carving each data structure
/// out of its intended home's region. See DESIGN.md for the deviation note.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Number of nodes in the machine.
    pub num_nodes: usize,
    /// Cache-block size in bytes (paper: 64).
    pub block_bytes: u32,
    /// log2 of the per-node home region size in bytes.
    pub region_shift: u32,
}

impl Geometry {
    /// Creates the geometry used throughout the paper: 64-byte blocks,
    /// 4 MB home regions.
    pub fn new(num_nodes: usize) -> Self {
        Geometry { num_nodes, block_bytes: BLOCK_BYTES, region_shift: 22 }
    }

    /// Number of words in one block.
    pub fn words_per_block(&self) -> u32 {
        self.block_bytes / 4
    }

    /// The block containing `addr`.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        BlockAddr(addr & !(self.block_bytes - 1))
    }

    /// Word index of `addr` within its block.
    pub fn word_index(&self, addr: Addr) -> usize {
        ((addr & (self.block_bytes - 1)) / 4) as usize
    }

    /// The node whose memory module is home for `addr`.
    pub fn home_of(&self, addr: Addr) -> NodeId {
        ((addr >> self.region_shift) as usize) % self.num_nodes
    }

    /// The lowest address of node `n`'s first home region.
    pub fn region_base(&self, n: NodeId) -> Addr {
        debug_assert!(n < self.num_nodes);
        (n as Addr) << self.region_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math() {
        let g = Geometry::new(32);
        assert_eq!(g.words_per_block(), 16);
        assert_eq!(g.block_of(0x1234), BlockAddr(0x1200));
        assert_eq!(g.word_index(0x1200), 0);
        assert_eq!(g.word_index(0x123c), 15);
    }

    #[test]
    fn homes_cover_all_nodes() {
        let g = Geometry::new(32);
        for n in 0..32 {
            assert_eq!(g.home_of(g.region_base(n)), n);
            assert_eq!(g.home_of(g.region_base(n) + 0x1000), n);
        }
    }

    #[test]
    fn home_wraps_past_node_count() {
        let g = Geometry::new(4);
        // Region index 5 wraps to node 1.
        assert_eq!(g.home_of(5u32 << 22), 1);
    }

    #[test]
    fn block_of_is_idempotent_and_aligned() {
        let mut rng = sim_engine::SplitMix64::new(0x9e0);
        let g = Geometry::new(32);
        for _ in 0..4096 {
            let addr = rng.next_below(0x4000_0000) as u32;
            let b = g.block_of(addr);
            assert_eq!(b.0 % g.block_bytes, 0);
            assert_eq!(g.block_of(b.0), b);
            assert!(addr - b.0 < g.block_bytes);
        }
    }

    #[test]
    fn word_index_in_range() {
        let mut rng = sim_engine::SplitMix64::new(0x9e1);
        let g = Geometry::new(32);
        for _ in 0..4096 {
            let addr = rng.next_below(0x4000_0000) as u32 & !3;
            assert!(g.word_index(addr) < g.words_per_block() as usize);
            // Address reconstructs from block base + word index.
            let b = g.block_of(addr);
            assert_eq!(b.0 + (g.word_index(addr) as u32) * 4, addr);
        }
    }
}
