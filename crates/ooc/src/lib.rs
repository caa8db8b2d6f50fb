//! # qsim-ooc
//!
//! Out-of-core (disk-backed) state-vector execution — the paper's §5
//! outlook made concrete:
//!
//! > "While the memory requirements to simulate such a large circuit are
//! > beyond what is possible today, the low amount of communication may
//! > allow the use of, e.g., solid-state drives."
//!
//! The enabling observation is the scheduler's: a depth-25 supremacy
//! circuit needs only **two** global-to-local swaps, so a state vector
//! that does not fit in DRAM touches the slow tier a constant number of
//! times. This crate plays the rank structure of `qsim-core::dist` onto a
//! directory of chunk files:
//!
//! * the *chunk index* takes the role of the rank id (the "global" bits);
//! * stage clusters stream chunk-by-chunk through a DRAM-sized window
//!   (load → fused kernels → store);
//! * a global-to-local swap becomes an **external all-to-all** over the
//!   chunk files, whose scatter closes the streaming pass before it and
//!   whose gather-unpermute opens the pass after it.
//!
//! The engine is a *pipelined data path*: consecutive swap-free stages
//! batch into a single traversal ([`qsim_sched::plan_runs`]), which is
//! the only kind of pass there is — the start state is synthesised, not
//! written, so `S` swaps cost `2S + 1` state transfers — each pass
//! overlaps prefetch/compute/writeback on dedicated threads with pooled
//! aligned buffers, and per-chunk compute runs through the compiled
//! tiled stage executor.
//!
//! [`ChunkStore`] is the storage substrate with byte-level IO accounting;
//! [`OocSimulator`] executes any [`qsim_sched::Schedule`] against it and
//! must produce bit-identical amplitudes to the in-memory engines (tested
//! against both). [`ScratchDir`] keeps test/bench stores self-cleaning.

pub mod backend;
pub mod chunkstore;
pub mod exec;
mod pipeline;
pub mod scratch;

pub use backend::OocBackend;
pub use chunkstore::{BufferPool, ChunkReader, ChunkStore, ChunkWriter, IoStats};
pub use exec::{OocConfig, OocSimulator};
pub use qsim_compress::Codec;
pub use scratch::ScratchDir;
