#![warn(missing_docs)]

//! # redsim-util
//!
//! The zero-dependency support library every other redsim crate leans
//! on. The workspace builds fully offline — no registry, no network —
//! so the small pieces usually imported from `rand`, `serde_json` and
//! `criterion` live here instead:
//!
//! * [`rng`] — seedable, deterministic PRNGs: [`SplitMix64`] (the
//!   workload-input generator stream) and [`Rng`] (xoshiro256**, the
//!   general-purpose generator used for fault injection, cache
//!   replacement and generative tests).
//! * [`json`] — a minimal JSON value model and writer ([`Json`]) for the
//!   machine-readable output of the bench harness (`--json`).
//! * [`hash`] — a deterministic non-cryptographic hasher
//!   ([`FxHashMap`]) for integer-keyed maps probed per simulated
//!   instruction.
//! * [`timer`] — a wall-clock micro-benchmark timer ([`fn@bench`]) backing
//!   the `cargo bench` targets.
//! * [`io`] — the fallible filesystem shim ([`Io`]/[`RealIo`]) durable
//!   campaign state flows through, with a deterministic fault-injecting
//!   [`ChaosIo`] (EINTR, short/torn writes, ENOSPC, fsync failure,
//!   kill-after-N-ops) for chaos testing the recovery paths.
//! * [`framed_log`] — the crash-consistent record log both the campaign
//!   manifest and the serve journal are: checksummed JSONL frames, a
//!   reader that skips a torn last line and refuses earlier damage, an
//!   atomic rewrite, and an error-latching appender.
//!
//! Everything in this crate is deterministic given its inputs; nothing
//! except the explicit [`io`] backends touches the filesystem or the
//! environment.

pub mod framed_log;
pub mod hash;
pub mod io;
pub mod json;
pub mod rng;
pub mod timer;

pub use hash::FxHashMap;
pub use io::{ChaosConfig, ChaosIo, FsyncPolicy, Io, IoFile, RealIo};
pub use json::{Json, JsonParseError, JsonTypeError};
pub use rng::{Rng, SplitMix64};
pub use timer::{bench, BenchResult};
