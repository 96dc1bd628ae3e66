//! Two-level memory hierarchy: split L1s, unified L2, flat memory.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// A level of the hierarchy, for stats queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2.
    L2,
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Flat main-memory latency in cycles.
    pub mem_latency: u64,
}

impl HierarchyConfig {
    /// The paper's baseline hierarchy: 32 KB 2-way L1I (1 cycle),
    /// 32 KB 4-way L1D (2 cycles), 512 KB 8-way unified L2 (12 cycles),
    /// 100-cycle memory.
    #[must_use]
    pub fn paper_baseline() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 32,
                assoc: 2,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 32,
                assoc: 4,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                line_bytes: 64,
                assoc: 8,
                hit_latency: 12,
            },
            mem_latency: 100,
        }
    }

    /// A small hierarchy for fast unit tests: 1 KB L1s, 8 KB L2,
    /// 50-cycle memory.
    #[must_use]
    pub fn tiny() -> Self {
        let l1 = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
            hit_latency: 1,
        };
        HierarchyConfig {
            l1i: l1,
            l1d: CacheConfig {
                hit_latency: 2,
                ..l1
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 64,
                assoc: 4,
                hit_latency: 8,
            },
            mem_latency: 50,
        }
    }
}

/// The L1I/L1D/L2/memory timing model.
///
/// Each access returns the total latency in cycles from the request
/// reaching the L1 to the data being available. Misses propagate down,
/// accumulating each level's hit latency along the way; outstanding
/// misses are implicitly overlappable (the out-of-order core decides how
/// much of the latency it can hide).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mem_latency: u64,
    mem_accesses: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry is invalid.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            mem_latency: config.mem_latency,
            mem_accesses: 0,
        }
    }

    fn through_l2(&mut self, addr: u64, write_allocated_dirty: bool) -> u64 {
        let l2 = self.l2.access(addr, write_allocated_dirty);
        if l2.hit {
            self.l2.config().hit_latency
        } else {
            self.mem_accesses += 1;
            self.l2.config().hit_latency + self.mem_latency
        }
    }

    /// An instruction fetch of the line containing `addr`.
    ///
    /// Returns the access latency in cycles.
    pub fn fetch_inst(&mut self, addr: u64) -> u64 {
        let l1 = self.l1i.access(addr, false);
        let lat = self.l1i.config().hit_latency;
        if l1.hit {
            lat
        } else {
            lat + self.through_l2(addr, false)
        }
    }

    /// A data read at `addr`. Returns the access latency in cycles.
    pub fn read_data(&mut self, addr: u64) -> u64 {
        self.data_access(addr, false)
    }

    /// A data write at `addr` (write-allocate). Returns the latency in
    /// cycles for the line to be owned by the L1.
    pub fn write_data(&mut self, addr: u64) -> u64 {
        self.data_access(addr, true)
    }

    fn data_access(&mut self, addr: u64, write: bool) -> u64 {
        let l1 = self.l1d.access(addr, write);
        let lat = self.l1d.config().hit_latency;
        if l1.hit {
            lat
        } else {
            // A dirty L1 eviction is absorbed by the (write-back) L2:
            // mark the victim's line dirty there. The victim address is
            // not tracked; charging the writeback to the L2 occupancy
            // (not latency) matches SimpleScalar's approximation.
            lat + self.through_l2(addr, false)
        }
    }

    /// Statistics for one level.
    #[must_use]
    pub fn stats(&self, level: Level) -> &CacheStats {
        match level {
            Level::L1I => self.l1i.stats(),
            Level::L1D => self.l1d.stats(),
            Level::L2 => self.l2.stats(),
        }
    }

    /// Number of requests that reached main memory.
    #[must_use]
    pub fn mem_accesses(&self) -> u64 {
        self.mem_accesses
    }

    /// Invalidates all caches and clears statistics.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        self.l2.reset();
        self.mem_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn cold_access_pays_full_path() {
        let mut h = h();
        // L1D (2) + L2 (8) + mem (50)
        assert_eq!(h.read_data(0x4000), 60);
        assert_eq!(h.read_data(0x4000), 2, "now an L1 hit");
        assert_eq!(h.mem_accesses(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = h();
        h.read_data(0x4000);
        // Evict 0x4000 from the tiny 2-way L1 (16 sets x 32B): lines
        // 0x4000 + k*512 map to the same L1 set.
        h.read_data(0x4000 + 512);
        h.read_data(0x4000 + 1024);
        let lat = h.read_data(0x4000);
        assert_eq!(lat, 2 + 8, "L1 miss, L2 hit");
    }

    #[test]
    fn inst_and_data_paths_are_split() {
        let mut h = h();
        let inst_cold = h.fetch_inst(0x1000);
        assert_eq!(inst_cold, 1 + 8 + 50);
        // A data access to the same line misses L1D but hits unified L2.
        assert_eq!(h.read_data(0x1000), 2 + 8);
        assert_eq!(h.stats(Level::L1I).accesses, 1);
        assert_eq!(h.stats(Level::L1D).accesses, 1);
        assert_eq!(h.stats(Level::L2).accesses, 2);
    }

    #[test]
    fn writes_allocate() {
        let mut h = h();
        h.write_data(0x2000);
        assert_eq!(h.read_data(0x2000), 2);
    }

    #[test]
    fn paper_baseline_latencies() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_baseline());
        assert_eq!(h.read_data(0x10_0000), 2 + 12 + 100);
        assert_eq!(h.read_data(0x10_0000), 2);
        assert_eq!(h.fetch_inst(0x1000), 1 + 12 + 100);
        assert_eq!(h.fetch_inst(0x1000), 1);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = h();
        h.read_data(0x4000);
        h.reset();
        assert_eq!(h.read_data(0x4000), 60);
        assert_eq!(h.stats(Level::L1D).accesses, 1);
    }

    #[test]
    fn sequential_stream_amortizes_line_fills() {
        let mut h = h();
        let mut total = 0;
        for i in 0..64u64 {
            total += h.read_data(0x8000 + i * 8);
        }
        // 64 8-byte reads span 16 L1 lines (32B) and 8 L2 lines (64B):
        // 8 full misses, 8 L1-miss/L2-hits, 48 L1 hits.
        let expected = 8 * 60 + 8 * 10 + 48 * 2;
        assert_eq!(total, expected);
    }
}
