//! DRAM service timing (paper: first word after 20 processor cycles,
//! remaining words streamed at one per cycle).
//!
//! Directory manipulation happens in the memory module, so directory-only
//! transactions (e.g. recording a new sharer, posting invalidations) cost a
//! first-word access as well.

use sim_engine::Cycle;

/// Cycles until the first word of a request is available; also the service
/// time of a single-word access (updates, atomic operations, directory
/// bookkeeping).
pub const FIRST_WORD_CYCLES: Cycle = 20;

/// Cycles per additional word of a block access.
const PER_WORD_CYCLES: Cycle = 1;

/// Service time for a whole-block access of `words` words.
pub fn block_service(words: u32) -> Cycle {
    debug_assert!(words > 0);
    FIRST_WORD_CYCLES + PER_WORD_CYCLES * (words as Cycle - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_block_timing() {
        // A 64-byte block of 16 words: 20 + 15 = 35 cycles.
        assert_eq!(block_service(16), 35);
        assert_eq!(FIRST_WORD_CYCLES, 20);
    }

    #[test]
    fn single_word_block() {
        assert_eq!(block_service(1), 20);
    }
}
