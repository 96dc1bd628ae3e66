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
//! an in-memory map and across processes via `.rtrc` files persisted
//! with [`redsim_util::io::atomic_write`].
//!
//! Both tiers hold the packed 48-byte-per-instruction form: the memory
//! tier keeps each [`Trace`] as built or decoded, and a disk entry is
//! its [`trace_io`] v2 encoding, byte for byte the same records.
//! [`TraceStore::resident_bytes`] reports what the memory tier holds.
//!
//! A disk entry that fails to read (torn by a crash mid-persist, a
//! corrupt header or record, or a foreign format version such as v1) is
//! treated as a miss and rebuilt over — the store is a cache, never an
//! authority.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use redsim_isa::trace::Trace;
use redsim_isa::trace_io;
use redsim_util::hash::fx64;
use redsim_util::io::{atomic_write, Io};
use redsim_workloads::WorkloadError;

use crate::spec::JobSpec;

/// Version of the key derivation *and* of the toolchain whose output
/// the store caches. Part of every key, so bumping it invalidates all
/// prior entries without touching them.
pub const TRACE_STORE_VERSION: u32 = 1;

/// Where a requested trace came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOrigin {
    /// Served from the in-process map.
    Memory,
    /// Deserialized from a persisted `.rtrc` entry.
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

struct StoreState {
    mem: HashMap<u64, Arc<Trace>>,
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

    /// The on-disk path of a key's entry.
    #[must_use]
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.rtrc"))
    }

    /// Store counters so far.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.state.lock().expect("trace store lock").stats
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
        let key = Self::trace_key(spec, budget);
        {
            let mut st = self.state.lock().expect("trace store lock");
            if let Some(t) = st.mem.get(&key) {
                let t = Arc::clone(t);
                st.stats.mem_hits += 1;
                return Ok((t, TraceOrigin::Memory));
            }
        }
        let path = self.path_for(key);
        if self.io.exists(&path) {
            if let Some(trace) = read_entry(&path) {
                let trace = Arc::new(trace);
                let mut st = self.state.lock().expect("trace store lock");
                st.mem.insert(key, Arc::clone(&trace));
                st.stats.disk_hits += 1;
                return Ok((trace, TraceOrigin::Disk));
            }
        }
        let trace = Arc::new(spec.workload.trace(spec.params(), budget)?);
        let persisted = self.persist(&path, &trace).is_ok();
        let mut st = self.state.lock().expect("trace store lock");
        st.mem.insert(key, Arc::clone(&trace));
        st.stats.builds += 1;
        if !persisted {
            st.stats.persist_failures += 1;
        }
        Ok((trace, TraceOrigin::Built))
    }

    fn persist(&self, path: &Path, trace: &Trace) -> io::Result<()> {
        atomic_write(self.io.as_ref(), path, &trace_io::encode(trace), self.sync)
    }

    /// Heap bytes the memory tier's traces occupy.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let st = self.state.lock().expect("trace store lock");
        st.mem.values().map(|t| t.heap_bytes() as u64).sum()
    }
}

/// Reads a persisted entry, treating any failure — a torn file, a
/// corrupt header or record, a foreign format version — as a miss.
/// Reads go through `std::fs` directly: the [`Io`] fault seam covers the
/// durability path, and chaos backends pass reads through untouched
/// anyway.
fn read_entry(path: &Path) -> Option<Trace> {
    trace_io::decode(&std::fs::read(path).ok()?).ok()
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
        assert_eq!(t3.len(), t1.len());
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

    #[test]
    fn a_corrupt_entry_is_a_miss_and_rebuilds_byte_identically() {
        let dir = store_dir("corrupt");
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let io: Arc<dyn Io> = Arc::new(RealIo);
        let store = TraceStore::open(Arc::clone(&io), dir.clone(), false).expect("open");
        let (built, _) = store.get(&spec, 2_000_000).expect("build");
        assert_eq!(store.resident_bytes(), built.len() as u64 * 48);
        let path = store.path_for(TraceStore::trace_key(&spec, 2_000_000));
        let full = std::fs::read(&path).expect("entry exists");
        // Offsets: version at 4, record count at 6, record i at 14 + 48i
        // (its instruction word first, its flag word at +12).
        let load = built
            .iter()
            .position(|d| d.inst.op.is_load())
            .expect("a load");
        let load_flags = 14 + 48 * load + 12;
        let corruptions: [(usize, &[u8]); 7] = [
            (4, &1u16.to_le_bytes()),
            (6, &u64::MAX.to_le_bytes()),
            (6, &(1u64 << 40).to_le_bytes()),
            (26, &(1u32 << 4).to_le_bytes()),
            (26, &0b110u32.to_le_bytes()),
            (14, &[0xff]),
            // A load that keeps its result but loses its effective address.
            (load_flags, &1u32.to_le_bytes()),
        ];
        for (at, bytes) in corruptions {
            let mut bad = full.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&path, &bad).expect("corrupt");
            let fresh = TraceStore::open(Arc::clone(&io), dir.clone(), false).expect("reopen");
            let (rebuilt, origin) = fresh.get(&spec, 2_000_000).expect("rebuild");
            assert_eq!(origin, TraceOrigin::Built, "corruption at {at}");
            assert_eq!(*rebuilt, *built);
            assert_eq!(std::fs::read(&path).expect("entry repaired"), full);
        }
    }
}
