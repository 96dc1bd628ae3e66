#![warn(missing_docs)]

//! # redsim-mem
//!
//! Cache and memory-hierarchy timing models for the redsim stack.
//!
//! The paper's simulation platform (SimpleScalar `sim-outorder`) models a
//! two-level hierarchy: split L1 instruction/data caches over a unified
//! L2, over a fixed-latency DRAM. This crate reproduces that structure:
//!
//! * [`Cache`] — a generic set-associative, write-back/write-allocate
//!   cache with LRU replacement and per-cache [`CacheStats`].
//! * [`Hierarchy`] — L1I + L1D + unified L2 + memory, returning an access
//!   *latency* per reference. Timing is compositional: an L1 miss pays
//!   the L1 latency plus the L2 access, and so on down to memory.
//!
//! The hierarchy is a timing model, not a data store — the functional
//! values live in the emulator's memory (`redsim-isa`). This mirrors
//! trace-driven simulator practice and is sufficient for the paper's
//! question, which is about ALU bandwidth rather than memory behaviour
//! (the DIE design accesses the data cache only *once* per duplicated
//! load/store pair, so the hierarchies seen by SIE and DIE are
//! identical).
//!
//! # Examples
//!
//! ```
//! use redsim_mem::{CacheConfig, Hierarchy, HierarchyConfig};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::paper_baseline());
//! let cold = h.read_data(0x8000);
//! let warm = h.read_data(0x8000);
//! assert!(cold > warm, "second access must hit in L1");
//! ```

mod cache;
mod hierarchy;

pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats};
pub use hierarchy::{Hierarchy, HierarchyConfig, Level};
