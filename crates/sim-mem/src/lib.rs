//! Node memory hierarchy: caches, write buffers, directories, DRAM timing,
//! and the shared-memory backing store and allocator.
//!
//! Reproduces the per-node memory system of the paper's simulated machine
//! (Section 3.1): a 64 KB direct-mapped data cache with 64-byte blocks, a
//! 4-entry write buffer, local memory with a full-map directory, and DRAM
//! that delivers the first word 20 cycles after a request and one word per
//! cycle thereafter.
//!
//! All structures here are *mechanism*; the coherence *policy* (when to
//! invalidate, update, forward, ack) lives in `sim-proto`.

pub mod alloc;
pub mod cache;
pub mod dir;
pub mod dram;
pub mod geometry;
pub mod store;
pub mod wbuf;

pub use alloc::SharedAlloc;
pub use cache::{Cache, CacheConfig, LineState};
pub use dir::{DirEntry, DirState, Directory, SharerSet};
pub use geometry::{
    decode_block, encode_block, Addr, Block, BlockAddr, Geometry, Word, BLOCK_BYTES, BLOCK_WORDS,
};
pub use store::MemStore;
pub use wbuf::{PendingWrite, WriteBuffer};
