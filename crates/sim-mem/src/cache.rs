//! Direct-mapped data cache.

use sim_engine::snapshot::{SnapError, SnapReader, SnapWriter};

use crate::geometry::{
    decode_block, encode_block, Addr, Block, BlockAddr, Geometry, Word, BLOCK_BYTES, BLOCK_WORDS,
};

/// Coherence state of a cache line.
///
/// The three protocols use subsets of these states:
///
/// * **WI** uses `Shared` (clean, read-only) and `Modified` (dirty,
///   exclusive), as in the DASH protocol.
/// * **PU/CU** are write-through, so cached blocks are normally `Shared`
///   (memory is up to date). The pure-update private-data optimization puts
///   a block that only its writer caches into `PrivateUpd`, where writes
///   stay local (dirty) until another node's access recalls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineState {
    /// Clean copy; reads hit.
    Shared,
    /// Dirty exclusive copy (WI after a write).
    Modified,
    /// Update-protocol private mode: dirty, home has promised no other
    /// sharers exist and updates may be retained locally.
    PrivateUpd,
}

/// One cache line, its block held inline: a cache is one flat array, and
/// filling or invalidating a line copies words instead of allocating.
#[derive(Debug, Clone)]
struct Line {
    tag: Addr,
    valid: bool,
    state: LineState,
    /// Competitive-update counter: arriving updates increment it, local
    /// references reset it; at the protocol threshold the line is dropped.
    update_ctr: u32,
    data: Block,
}

/// Cache sizing (default follows the paper: 64 KB direct-mapped). The block
/// size is the machine-wide [`BLOCK_BYTES`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity_bytes: 64 * 1024 }
    }
}

/// What [`Cache::fill`] displaced, if anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// Block address of the displaced line.
    pub block: BlockAddr,
    /// Its state at eviction (a `Modified`/`PrivateUpd` victim must be
    /// written back by the protocol).
    pub state: LineState,
    /// The displaced data.
    pub data: Block,
}

/// A direct-mapped, block-organized data cache.
///
/// Purely structural: it stores blocks, reports hits/misses and evictions,
/// and leaves every coherence decision to the protocol layer.
#[derive(Debug, Clone)]
pub struct Cache {
    index_mask: u32,
    lines: Vec<Line>,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is a power of two holding at least one
    /// block.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.capacity_bytes.is_power_of_two());
        assert!(cfg.capacity_bytes >= BLOCK_BYTES);
        let num_lines = (cfg.capacity_bytes / BLOCK_BYTES) as usize;
        let empty =
            Line { tag: 0, valid: false, state: LineState::Shared, update_ctr: 0, data: [0; BLOCK_WORDS] };
        Cache { index_mask: num_lines as u32 - 1, lines: vec![empty; num_lines] }
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    fn index_of(&self, block: BlockAddr) -> usize {
        ((block.0 / BLOCK_BYTES) & self.index_mask) as usize
    }

    fn line(&self, block: BlockAddr) -> Option<&Line> {
        let l = &self.lines[self.index_of(block)];
        (l.valid && l.tag == block.0).then_some(l)
    }

    fn line_mut(&mut self, block: BlockAddr) -> Option<&mut Line> {
        let idx = self.index_of(block);
        let l = &mut self.lines[idx];
        (l.valid && l.tag == block.0).then_some(l)
    }

    /// Coherence state of `block` if present.
    pub fn state_of(&self, block: BlockAddr) -> Option<LineState> {
        self.line(block).map(|l| l.state)
    }

    /// Whether `block` is present (any state).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.line(block).is_some()
    }

    /// Reads the word at `addr` if its block is cached.
    pub fn read_word(&self, geom: &Geometry, addr: Addr) -> Option<Word> {
        let block = geom.block_of(addr);
        self.line(block).map(|l| l.data[geom.word_index(addr)])
    }

    /// The local processor's read of the word at `addr`: the word if its
    /// block is cached, and, as a local reference, a reset of the line's
    /// competitive-update counter, in one line lookup.
    pub fn reference_word(&mut self, geom: &Geometry, addr: Addr) -> Option<Word> {
        let idx = geom.word_index(addr);
        self.line_mut(geom.block_of(addr)).map(|l| {
            l.update_ctr = 0;
            l.data[idx]
        })
    }

    /// Writes the word at `addr` if its block is cached; returns whether it
    /// hit. Does **not** change the line state — protocols decide that.
    pub fn write_word(&mut self, geom: &Geometry, addr: Addr, val: Word) -> bool {
        let block = geom.block_of(addr);
        let idx = geom.word_index(addr);
        match self.line_mut(block) {
            Some(l) => {
                l.data[idx] = val;
                true
            }
            None => false,
        }
    }

    /// Installs `block` with a copy of `data` and `state`, returning any
    /// displaced line (the victim of a direct-mapped conflict).
    ///
    /// # Panics
    ///
    /// Panics unless `data` holds exactly one block.
    pub fn fill(&mut self, block: BlockAddr, data: &[Word], state: LineState) -> Option<Evicted> {
        assert_eq!(data.len(), BLOCK_WORDS);
        let idx = self.index_of(block);
        let l = &mut self.lines[idx];
        let evicted = (l.valid && l.tag != block.0).then_some(Evicted {
            block: BlockAddr(l.tag),
            state: l.state,
            data: l.data,
        });
        l.tag = block.0;
        l.valid = true;
        l.state = state;
        l.data.copy_from_slice(data);
        l.update_ctr = 0;
        evicted
    }

    /// Changes the state of a present block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached (protocol bug).
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) {
        self.line_mut(block).expect("set_state on absent block").state = state;
    }

    /// Removes `block` (invalidation, drop, or flush), returning its state
    /// and data if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<(LineState, Block)> {
        self.line_mut(block).map(|l| {
            l.valid = false;
            (l.state, l.data)
        })
    }

    /// Copy of the block's data (protocol writebacks / forwards).
    pub fn block_data(&self, block: BlockAddr) -> Option<Block> {
        self.line(block).map(|l| l.data)
    }

    /// Increments the competitive-update counter; returns the new value.
    pub fn bump_update_ctr(&mut self, block: BlockAddr) -> u32 {
        let l = self.line_mut(block).expect("bump_update_ctr on absent block");
        l.update_ctr += 1;
        l.update_ctr
    }

    /// Resets the competitive-update counter (a local reference).
    pub fn reset_update_ctr(&mut self, block: BlockAddr) {
        if let Some(l) = self.line_mut(block) {
            l.update_ctr = 0;
        }
    }

    /// Iterates over all present blocks (diagnostics, final-state checks).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.lines.iter().filter(|l| l.valid).map(|l| (BlockAddr(l.tag), l.state))
    }

    /// Writes every valid line to a checkpoint in cache-index order (one
    /// slot per block, so the order is a function of the cache state): the
    /// line count, then per line its block, state, competitive-update
    /// counter and data.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.resident_blocks().count());
        for l in self.lines.iter().filter(|l| l.valid) {
            w.u32(l.tag);
            w.u8(match l.state {
                LineState::Shared => 0,
                LineState::Modified => 1,
                LineState::PrivateUpd => 2,
            });
            w.u32(l.update_ctr);
            encode_block(w, &l.data);
        }
    }

    /// Restores this cache to exactly the line set [`Cache::encode`] wrote:
    /// every other line is invalidated, and, unlike [`Cache::fill`], the
    /// competitive-update counters are reinstated rather than reset.
    pub fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for l in &mut self.lines {
            l.valid = false;
        }
        for _ in 0..r.usize()? {
            let block = BlockAddr(r.u32()?);
            let state = match r.u8()? {
                0 => LineState::Shared,
                1 => LineState::Modified,
                2 => LineState::PrivateUpd,
                _ => return Err(SnapError::Corrupt("unknown LineState tag")),
            };
            let update_ctr = r.u32()?;
            let data = decode_block(r)?;
            let idx = self.index_of(block);
            let l = &mut self.lines[idx];
            if l.valid {
                return Err(SnapError::Corrupt("two cache lines map to one cache index"));
            }
            *l = Line { tag: block.0, valid: true, state, update_ctr, data };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(4)
    }

    fn block_data(fill: Word) -> Block {
        [fill; BLOCK_WORDS]
    }

    #[test]
    fn sized_like_the_paper() {
        let c = Cache::new(CacheConfig::default());
        assert_eq!(c.num_lines(), 1024);
    }

    #[test]
    fn fill_then_hit() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        let b = g.block_of(0x40);
        assert!(!c.contains(b));
        assert!(c.fill(b, &block_data(7), LineState::Shared).is_none());
        assert_eq!(c.read_word(&g, 0x44), Some(7));
        assert_eq!(c.state_of(b), Some(LineState::Shared));
    }

    #[test]
    fn write_word_updates_data() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        let b = g.block_of(0x80);
        c.fill(b, &block_data(0), LineState::Modified);
        assert!(c.write_word(&g, 0x84, 99));
        assert_eq!(c.read_word(&g, 0x84), Some(99));
        assert_eq!(c.read_word(&g, 0x80), Some(0));
        assert!(!c.write_word(&g, 0x1000, 1), "absent block is a write miss");
    }

    #[test]
    fn conflict_eviction() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        let b1 = g.block_of(0);
        // Same index, different tag: 64 KB apart.
        let b2 = g.block_of(64 * 1024);
        c.fill(b1, &block_data(1), LineState::Modified);
        let ev = c.fill(b2, &block_data(2), LineState::Shared).expect("conflict evicts");
        assert_eq!(ev.block, b1);
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.data[0], 1);
        assert!(!c.contains(b1));
        assert!(c.contains(b2));
    }

    #[test]
    fn refill_same_block_does_not_evict() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        let b = g.block_of(0x140);
        c.fill(b, &block_data(1), LineState::Shared);
        assert!(c.fill(b, &block_data(2), LineState::Modified).is_none());
        assert_eq!(c.read_word(&g, 0x140), Some(2));
    }

    #[test]
    fn invalidate_returns_data() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        let b = g.block_of(0x200);
        c.fill(b, &block_data(5), LineState::Modified);
        let (state, data) = c.invalidate(b).unwrap();
        assert_eq!(state, LineState::Modified);
        assert_eq!(data[0], 5);
        assert!(!c.contains(b));
        assert!(c.invalidate(b).is_none());
    }

    #[test]
    fn update_counter_lifecycle() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        let b = g.block_of(0x300);
        c.fill(b, &block_data(0), LineState::Shared);
        assert_eq!(c.bump_update_ctr(b), 1);
        assert_eq!(c.bump_update_ctr(b), 2);
        c.reset_update_ctr(b);
        assert_eq!(c.bump_update_ctr(b), 1);
        // Refill resets the counter too.
        c.fill(b, &block_data(0), LineState::Shared);
        assert_eq!(c.bump_update_ctr(b), 1);
        let _ = g;
    }

    #[test]
    fn resident_blocks_enumerates() {
        let g = geom();
        let mut c = Cache::new(CacheConfig::default());
        c.fill(g.block_of(0x0), &block_data(0), LineState::Shared);
        c.fill(g.block_of(0x40), &block_data(0), LineState::Modified);
        let mut blocks: Vec<_> = c.resident_blocks().collect();
        blocks.sort();
        assert_eq!(blocks, vec![(BlockAddr(0x0), LineState::Shared), (BlockAddr(0x40), LineState::Modified)]);
    }

    /// A checkpoint holding two lines for one cache index is refused as
    /// corrupt; the same hand-written layout with distinct indices restores.
    #[test]
    fn decode_refuses_two_lines_on_one_index() {
        let payload = |tags: [u32; 2]| {
            let mut w = SnapWriter::new();
            w.usize(tags.len());
            for tag in tags {
                w.u32(tag);
                w.u8(0); // Shared
                w.u32(0);
                encode_block(&mut w, &block_data(tag));
            }
            w.into_vec()
        };
        let mut c = Cache::new(CacheConfig::default());
        let distinct = payload([0, 0x40]);
        c.decode(&mut SnapReader::new(&distinct)).unwrap();
        assert!(c.contains(BlockAddr(0)) && c.contains(BlockAddr(0x40)));
        // Same index, different tag: 64 KB apart.
        let clashing = payload([0, 64 * 1024]);
        let err = c.decode(&mut SnapReader::new(&clashing)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }
}
