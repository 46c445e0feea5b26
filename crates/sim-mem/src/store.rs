//! Backing store for shared memory.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};
use sim_engine::FastMap;

use crate::geometry::{decode_block, encode_block, Addr, Block, BlockAddr, Geometry, Word, BLOCK_WORDS};

/// The machine's main memory contents, kept at block granularity.
///
/// The simulated address space is sparse (each node owns a multi-megabyte
/// home region but kernels touch a few kilobytes), so blocks materialize on
/// first touch, zero-filled — matching the usual zero-initialized shared
/// segment the paper's kernels assume. Blocks are stored inline in the map.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    blocks: FastMap<BlockAddr, Block>,
}

impl MemStore {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn block_mut(&mut self, block: BlockAddr) -> &mut Block {
        self.blocks.entry(block).or_insert([0; BLOCK_WORDS])
    }

    /// Reads the word at `addr`.
    pub fn read_word(&self, geom: &Geometry, addr: Addr) -> Word {
        let block = geom.block_of(addr);
        self.blocks.get(&block).map_or(0, |b| b[geom.word_index(addr)])
    }

    /// Writes the word at `addr`.
    pub fn write_word(&mut self, geom: &Geometry, addr: Addr, val: Word) {
        let idx = geom.word_index(addr);
        self.block_mut(geom.block_of(addr))[idx] = val;
    }

    /// A boxed copy of the whole block, ready to travel in a message (for
    /// cache fills).
    pub fn read_block(&mut self, block: BlockAddr) -> Box<[Word]> {
        Box::new(*self.block_mut(block))
    }

    /// Overwrites the whole block (writebacks).
    ///
    /// # Panics
    ///
    /// Panics unless `data` holds exactly one block.
    pub fn write_block(&mut self, block: BlockAddr, data: &[Word]) {
        self.block_mut(block).copy_from_slice(data);
    }

    /// Number of materialized blocks (diagnostics).
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Writes every materialized block to a checkpoint in ascending address
    /// order (the map iterates in arbitrary order): the block count, then
    /// each block's address and data.
    pub fn encode(&self, w: &mut SnapWriter) {
        let mut blocks: Vec<(&BlockAddr, &Block)> = self.blocks.iter().collect();
        blocks.sort_unstable_by_key(|&(b, _)| *b);
        w.usize(blocks.len());
        for (block, data) in blocks {
            w.u32(block.0);
            encode_block(w, data);
        }
    }

    /// Reads a memory written by [`MemStore::encode`].
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut mem = MemStore::new();
        for _ in 0..r.usize()? {
            let block = BlockAddr(r.u32()?);
            mem.blocks.insert(block, decode_block(r)?);
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let g = Geometry::new(4);
        let m = MemStore::new();
        assert_eq!(m.read_word(&g, 0x1234 & !3), 0);
    }

    #[test]
    fn word_roundtrip() {
        let g = Geometry::new(4);
        let mut m = MemStore::new();
        m.write_word(&g, 0x100, 42);
        assert_eq!(m.read_word(&g, 0x100), 42);
        assert_eq!(m.read_word(&g, 0x104), 0, "neighbors untouched");
    }

    #[test]
    fn block_roundtrip() {
        let g = Geometry::new(4);
        let mut m = MemStore::new();
        m.write_word(&g, 0x40, 1);
        m.write_word(&g, 0x7c, 2);
        let blk = m.read_block(g.block_of(0x40));
        assert_eq!(blk[0], 1);
        assert_eq!(blk[15], 2);
        let mut new = blk.clone();
        new[3] = 9;
        m.write_block(g.block_of(0x40), &new);
        assert_eq!(m.read_word(&g, 0x4c), 9);
    }
}
