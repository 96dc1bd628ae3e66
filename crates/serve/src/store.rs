//! A content-addressed trace store.
//!
//! This generalizes the bench harness's per-process `Arc<Trace>`
//! trace cache into a store addressed by *content*, not identity: the
//! key is the fx64 fingerprint of the workload's generated assembly
//! source, its resolved parameters, the emulation budget and
//! [`TRACE_STORE_VERSION`] (standing in for the assembler/emulator
//! revision — bump it whenever their semantics change and every old
//! entry silently misses). Two requests that would emulate the same
//! instruction stream therefore share one trace, within a process via
//! an in-memory map and across processes via `.rtrp` entry files
//! persisted with [`redsim_util::io::atomic_write`]. Deriving a key
//! generates the kernel's whole source, so each store remembers the key
//! of every (workload, scale, seed, budget) it has been asked for.
//!
//! Both tiers hold a [`Trace`] recipe, the program and its committed
//! count, never the records. The memory tier keeps each recipe as built
//! or decoded; [`TraceStore::resident_bytes`] reports the bytes of its
//! programs. A disk entry is the recipe in a checksummed frame (all
//! integers little-endian):
//!
//! ```text
//! "RTSE" | version u32 | budget u64 | count u64 | RSIM program container | fx64 u64
//! ```
//!
//! where the version is [`TRACE_STORE_VERSION`] and the fx64 checksum
//! covers every byte before it. An entry that fails to read (torn by a
//! crash mid-persist, any bit flipped, a foreign version, a budget other
//! than the one asked for, or a count past it) is treated as a miss and
//! rebuilt over — the store is a cache, never an authority.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use redsim_isa::container;
use redsim_isa::trace::Trace;
use redsim_util::hash::fx64;
use redsim_util::io::{atomic_write, Io};
use redsim_workloads::{Workload, WorkloadError};

use crate::spec::JobSpec;

/// Version of the key derivation *and* of the toolchain whose output
/// the store caches. Part of every key, so bumping it invalidates all
/// prior entries without touching them.
pub const TRACE_STORE_VERSION: u32 = 2;

/// Magic of a disk entry.
const ENTRY_MAGIC: &[u8; 4] = b"RTSE";
/// Magic, version, budget and count.
const ENTRY_HEADER_BYTES: usize = 24;
/// The trailing fx64 checksum.
const CHECKSUM_BYTES: usize = 8;

/// Where a requested trace came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOrigin {
    /// Served from the in-process map.
    Memory,
    /// Deserialized from a persisted `.rtrp` entry.
    Disk,
    /// Assembled and emulated from source (then persisted).
    Built,
}

/// Cumulative store counters — the cache-effectiveness test asserts
/// on `builds` staying flat across repeat submissions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Hits served from the in-process map.
    pub mem_hits: u64,
    /// Hits deserialized from disk.
    pub disk_hits: u64,
    /// Full assemble-and-emulate builds.
    pub builds: u64,
    /// Best-effort persists that failed (the trace is still served).
    pub persist_failures: u64,
}

/// What a trace key is derived from besides the store version:
/// workload, scale, input seed and budget.
type KeyInput = (Workload, u32, u64, u64);

struct StoreState {
    mem: HashMap<u64, Arc<Trace>>,
    keys: HashMap<KeyInput, u64>,
    stats: StoreStats,
}

/// The content-addressed trace store. Shared by the engine's worker
/// threads; all state sits behind one mutex, but the expensive build
/// path runs outside it so distinct traces build concurrently.
pub struct TraceStore {
    dir: PathBuf,
    io: Arc<dyn Io>,
    sync: bool,
    state: Mutex<StoreState>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl TraceStore {
    /// Opens (creating) the store directory. `sync` controls whether
    /// persisted entries get a durability barrier before their rename.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from creating the directory.
    pub fn open(io: Arc<dyn Io>, dir: PathBuf, sync: bool) -> io::Result<Self> {
        io.create_dir_all(&dir)?;
        Ok(TraceStore {
            dir,
            io,
            sync,
            state: Mutex::new(StoreState {
                mem: HashMap::new(),
                keys: HashMap::new(),
                stats: StoreStats::default(),
            }),
        })
    }

    /// The content address of the trace a spec needs: a fingerprint of
    /// the generated assembly source, the resolved parameters, the
    /// budget and the store version. Execution mode and faults are
    /// deliberately absent — they shape the timing run, not the
    /// committed-path trace.
    #[must_use]
    pub fn trace_key(spec: &JobSpec, budget: u64) -> u64 {
        let params = spec.params();
        let pre_image = format!(
            "redsim-trace-store v{TRACE_STORE_VERSION}\nworkload={}\nscale={}\nseed={}\nbudget={budget}\n--- source ---\n{}",
            spec.workload.name(),
            params.scale,
            params.seed,
            spec.workload.source(params),
        );
        fx64(pre_image.as_bytes())
    }

    /// [`trace_key`](Self::trace_key), derived once per (workload,
    /// scale, seed, budget) this store is asked for.
    fn key(&self, spec: &JobSpec, budget: u64) -> u64 {
        let params = spec.params();
        let input = (spec.workload, params.scale, params.seed, budget);
        let known = self.lock().keys.get(&input).copied();
        known.unwrap_or_else(|| {
            let key = Self::trace_key(spec, budget);
            self.lock().keys.insert(input, key);
            key
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreState> {
        self.state.lock().expect("trace store lock")
    }

    /// The on-disk path of a key's entry.
    #[must_use]
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.rtrp"))
    }

    /// Store counters so far.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// The trace for a spec: in-memory map, then disk, then a full
    /// assemble-and-emulate build (persisted best-effort for the next
    /// process). Two workers racing on the same key both build; the
    /// first insert wins and both serve identical bytes, so the race
    /// costs time, never correctness.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when the workload fails to assemble or to
    /// halt within `budget` — a deterministic property of the spec.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned by a panicking thread.
    pub fn get(
        &self,
        spec: &JobSpec,
        budget: u64,
    ) -> Result<(Arc<Trace>, TraceOrigin), WorkloadError> {
        let key = self.key(spec, budget);
        {
            let mut st = self.lock();
            if let Some(t) = st.mem.get(&key) {
                let t = Arc::clone(t);
                st.stats.mem_hits += 1;
                return Ok((t, TraceOrigin::Memory));
            }
        }
        let path = self.path_for(key);
        if self.io.exists(&path) {
            if let Some(trace) = read_entry(&path, budget) {
                let trace = Arc::new(trace);
                let mut st = self.lock();
                st.mem.insert(key, Arc::clone(&trace));
                st.stats.disk_hits += 1;
                return Ok((trace, TraceOrigin::Disk));
            }
        }
        let trace = Arc::new(spec.workload.trace(spec.params(), budget)?);
        let persisted = self.persist(&path, &trace).is_ok();
        let mut st = self.lock();
        st.mem.insert(key, Arc::clone(&trace));
        st.stats.builds += 1;
        if !persisted {
            st.stats.persist_failures += 1;
        }
        Ok((trace, TraceOrigin::Built))
    }

    fn persist(&self, path: &Path, trace: &Trace) -> io::Result<()> {
        atomic_write(self.io.as_ref(), path, &encode_entry(trace), self.sync)
    }

    /// Heap bytes of the programs the memory tier holds.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.lock()
            .mem
            .values()
            .map(|t| t.heap_bytes() as u64)
            .sum()
    }
}

/// A trace's disk entry (layout in the module docs).
fn encode_entry(trace: &Trace) -> Vec<u8> {
    let program = container::to_bytes(trace.program());
    let mut out = Vec::with_capacity(ENTRY_HEADER_BYTES + program.len() + CHECKSUM_BYTES);
    out.extend_from_slice(ENTRY_MAGIC);
    out.extend_from_slice(&TRACE_STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&trace.budget().to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    out.extend_from_slice(&program);
    let checksum = fx64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The trace a disk entry holds, or `None` unless the checksum matches,
/// the magic and version are this store's, the budget is `budget`, the
/// count fits within it and the program container decodes.
fn decode_entry(bytes: &[u8], budget: u64) -> Option<Trace> {
    let (body, checksum) = bytes.split_at_checked(bytes.len().checked_sub(CHECKSUM_BYTES)?)?;
    if checksum != fx64(body).to_le_bytes() {
        return None;
    }
    let (header, program) = body.split_at_checked(ENTRY_HEADER_BYTES)?;
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let len = u64_at(16);
    let valid = &header[..4] == ENTRY_MAGIC
        && header[4..8] == TRACE_STORE_VERSION.to_le_bytes()
        && u64_at(8) == budget
        && len <= budget;
    if !valid {
        return None;
    }
    let program = container::from_bytes(program).ok()?;
    Some(Trace::from_parts(program, budget, len))
}

/// Reads a persisted entry, treating any failure — a torn or corrupt
/// file, a foreign version — as a miss. Reads go through `std::fs`
/// directly: the [`Io`] fault seam covers the durability path, and
/// chaos backends pass reads through untouched anyway.
fn read_entry(path: &Path, budget: u64) -> Option<Trace> {
    decode_entry(&std::fs::read(path).ok()?, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_core::ExecMode;
    use redsim_util::io::RealIo;
    use redsim_workloads::Workload;

    fn store_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("redsim-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn keys_depend_on_source_params_and_budget_but_not_mode() {
        let a = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let mut b = a.clone();
        b.mode = ExecMode::DieIrb;
        assert_eq!(
            TraceStore::trace_key(&a, 1000),
            TraceStore::trace_key(&b, 1000),
            "mode shapes the timing run, not the trace"
        );
        let mut c = a.clone();
        c.input_seed = Some(99);
        assert_ne!(
            TraceStore::trace_key(&a, 1000),
            TraceStore::trace_key(&c, 1000)
        );
        let mut d = a.clone();
        d.quick = false;
        assert_ne!(
            TraceStore::trace_key(&a, 1000),
            TraceStore::trace_key(&d, 1000)
        );
        assert_ne!(
            TraceStore::trace_key(&a, 1000),
            TraceStore::trace_key(&a, 2000)
        );
    }

    #[test]
    fn memory_then_disk_then_build_and_a_torn_entry_is_a_miss() {
        let dir = store_dir("tiers");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let io: Arc<dyn Io> = Arc::new(RealIo);

        let store = TraceStore::open(Arc::clone(&io), dir.clone(), false).expect("open");
        let (t1, o1) = store.get(&spec, 2_000_000).expect("build");
        assert_eq!(store.resident_bytes(), t1.program().heap_bytes() as u64);
        assert_eq!(o1, TraceOrigin::Built);
        let (t2, o2) = store.get(&spec, 2_000_000).expect("mem hit");
        assert_eq!(o2, TraceOrigin::Memory);
        assert!(Arc::ptr_eq(&t1, &t2), "the in-memory entry is shared");
        assert_eq!(
            store.stats(),
            StoreStats {
                mem_hits: 1,
                builds: 1,
                ..StoreStats::default()
            }
        );

        // A fresh store (new process) finds the persisted entry.
        let store2 = TraceStore::open(Arc::clone(&io), dir.clone(), false).expect("reopen");
        let (t3, o3) = store2.get(&spec, 2_000_000).expect("disk hit");
        assert_eq!(o3, TraceOrigin::Disk);
        assert_eq!(*t3, *t1);
        assert_eq!(store2.stats().builds, 0, "no re-emulation");

        // Tear the entry: the store rebuilds over it instead of failing.
        let path = store2.path_for(TraceStore::trace_key(&spec, 2_000_000));
        let full = std::fs::read(&path).expect("entry exists");
        std::fs::write(&path, &full[..full.len() / 2]).expect("tear");
        let store3 = TraceStore::open(io, dir, false).expect("reopen");
        let (_, o4) = store3.get(&spec, 2_000_000).expect("rebuild");
        assert_eq!(o4, TraceOrigin::Built);
        assert_eq!(
            std::fs::read(&path).expect("entry repaired"),
            full,
            "the rebuilt entry is byte-identical (deterministic emulation)"
        );
    }

    /// Writes `bytes` as the spec's entry and asks a fresh store (a
    /// new process) for the trace: it must rebuild, restore the entry
    /// byte for byte and serve the built trace.
    fn assert_rebuilds(dir: &Path, spec: &JobSpec, bytes: &[u8], full: &[u8], built: &Trace) {
        let io: Arc<dyn Io> = Arc::new(RealIo);
        let store = TraceStore::open(io, dir.to_path_buf(), false).expect("open");
        let path = store.path_for(TraceStore::trace_key(spec, BUDGET));
        std::fs::write(&path, bytes).expect("write entry");
        let (rebuilt, origin) = store.get(spec, BUDGET).expect("rebuild");
        assert_eq!(origin, TraceOrigin::Built);
        assert_eq!(*rebuilt, *built);
        assert_eq!(std::fs::read(&path).expect("entry repaired"), full);
    }

    const BUDGET: u64 = 2_000_000;

    /// A built entry of the spec, with the trace it holds.
    fn built_entry(dir: &Path, spec: &JobSpec) -> (Vec<u8>, Arc<Trace>) {
        let io: Arc<dyn Io> = Arc::new(RealIo);
        let store = TraceStore::open(io, dir.to_path_buf(), false).expect("open");
        let (built, _) = store.get(spec, BUDGET).expect("build");
        let path = store.path_for(TraceStore::trace_key(spec, BUDGET));
        (std::fs::read(path).expect("entry exists"), built)
    }

    fn with_checksum(mut body: Vec<u8>) -> Vec<u8> {
        body.truncate(body.len() - CHECKSUM_BYTES);
        let sum = fx64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    #[test]
    fn an_entry_holds_the_program_budget_and_count() {
        let dir = store_dir("entry");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let (full, built) = built_entry(&dir, &spec);
        assert_eq!(decode_entry(&full, BUDGET).as_ref(), Some(&*built));
        assert_eq!(
            full.len(),
            ENTRY_HEADER_BYTES + container::to_bytes(built.program()).len() + CHECKSUM_BYTES
        );
        assert_eq!(
            decode_entry(&full, BUDGET + 1),
            None,
            "an entry for another budget"
        );
    }

    #[test]
    fn an_entry_cut_at_any_byte_is_a_miss_and_rebuilds() {
        let dir = store_dir("cut");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let (full, built) = built_entry(&dir, &spec);
        // Every cut fails the decoder the store reads entries with; a
        // sample of them goes through the store itself.
        for cut in 0..full.len() {
            assert_eq!(decode_entry(&full[..cut], BUDGET), None, "cut at {cut}");
        }
        let header = ENTRY_HEADER_BYTES;
        for cut in [0, 3, 8, header - 1, header, header + 1, full.len() / 2] {
            assert_rebuilds(&dir, &spec, &full[..cut], &full, &built);
        }
        for cut in full.len() - CHECKSUM_BYTES..full.len() {
            assert_rebuilds(&dir, &spec, &full[..cut], &full, &built);
        }
    }

    #[test]
    fn an_entry_with_a_flipped_bit_is_a_miss_and_rebuilds() {
        let dir = store_dir("flip");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let (full, built) = built_entry(&dir, &spec);
        let flipped = |at: usize| {
            let mut bad = full.clone();
            bad[at] ^= 1 << (at % 8);
            bad
        };
        for at in 0..full.len() {
            assert_eq!(
                decode_entry(&flipped(at), BUDGET),
                None,
                "bit flipped at {at}"
            );
        }
        for at in [
            0,
            4,
            8,
            16,
            ENTRY_HEADER_BYTES,
            full.len() / 2,
            full.len() - 1,
        ] {
            assert_rebuilds(&dir, &spec, &flipped(at), &full, &built);
        }
    }

    #[test]
    fn an_entry_of_a_foreign_version_is_a_miss_and_rebuilds() {
        let dir = store_dir("version");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let (full, built) = built_entry(&dir, &spec);
        for version in [0, 1, TRACE_STORE_VERSION + 1, u32::MAX] {
            let mut bad = full.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            let bad = with_checksum(bad);
            assert_eq!(decode_entry(&bad, BUDGET), None, "version {version}");
            assert_rebuilds(&dir, &spec, &bad, &full, &built);
        }
        // Packed `.rtrc` v2 bytes, as the previous store wrote them.
        let mut rtrc = Vec::new();
        redsim_isa::trace_io::write_trace(&mut rtrc, &[]).expect("writes");
        assert_rebuilds(&dir, &spec, &rtrc, &full, &built);
    }

    #[test]
    fn an_entry_whose_count_disagrees_with_its_checksum_is_a_miss_and_rebuilds() {
        let dir = store_dir("count");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let (full, built) = built_entry(&dir, &spec);
        let n = built.len() as u64;
        for count in [0, n - 1, n + 1, BUDGET, u64::MAX] {
            let mut bad = full.clone();
            bad[16..24].copy_from_slice(&count.to_le_bytes());
            assert_eq!(decode_entry(&bad, BUDGET), None, "count {count}");
            assert_rebuilds(&dir, &spec, &bad, &full, &built);
        }
        // Re-checksummed, a count past the budget is still refused.
        let mut past = full.clone();
        past[16..24].copy_from_slice(&(BUDGET + 1).to_le_bytes());
        assert_eq!(decode_entry(&with_checksum(past), BUDGET), None);
    }

    #[test]
    fn the_key_is_derived_once_per_input_and_matches_trace_key() {
        let store = TraceStore::open(Arc::new(RealIo), store_dir("keys"), false).expect("open");
        let mut specs = Vec::new();
        for w in [Workload::Gzip, Workload::Mcf] {
            for seed in [None, Some(7)] {
                let mut spec = JobSpec::new(w, ExecMode::Die);
                spec.input_seed = seed;
                specs.push(spec);
            }
        }
        for _ in 0..2 {
            for spec in &specs {
                for budget in [1000, 2000] {
                    assert_eq!(store.key(spec, budget), TraceStore::trace_key(spec, budget));
                }
            }
        }
        assert_eq!(store.lock().keys.len(), specs.len() * 2);
    }
}
