//! Generic set-associative LRU cache model.

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Cycles for a hit in this cache.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.validate();
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// Checks the geometry: power-of-two line size and set count,
    /// capacity divisible by `line × assoc`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on an invalid geometry.
    pub fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.assoc),
            "capacity {} not divisible by line {} x assoc {}",
            self.size_bytes,
            self.line_bytes,
            self.assoc
        );
        let sets = self.size_bytes / (self.line_bytes * self.assoc);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room (miss only).
    pub writeback: bool,
}

/// Hit/miss/writeback counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// LRU stamp: the tick of the last access.
    order: u64,
}

/// A set-associative, write-back/write-allocate cache with LRU
/// replacement.
///
/// # Examples
///
/// ```
/// use redsim_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024,
///     line_bytes: 32,
///     assoc: 2,
///     hit_latency: 1,
/// });
/// assert!(!c.access(0x40, false).hit);
/// assert!(c.access(0x40, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    /// Geometry cached at construction — `set_index`/`tag` run on every
    /// access, and re-deriving (and re-validating) the set count there
    /// dominated the access cost.
    set_mask: u64,
    line_shift: u32,
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid ([`CacheConfig::validate`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.num_sets();
        let total = (sets * config.assoc) as usize;
        let line_shift = config.line_bytes.trailing_zeros();
        Cache {
            config,
            lines: vec![Line::default(); total],
            stats: CacheStats::default(),
            tick: 0,
            set_mask: sets - 1,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Performs one access, allocating on miss.
    ///
    /// `write` marks the line dirty (write-allocate, write-back).
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let assoc = self.config.assoc as usize;
        let base = set * assoc;

        // Probe.
        for way in 0..assoc {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                self.stats.hits += 1;
                if write {
                    line.dirty = true;
                }
                line.order = self.tick;
                return AccessOutcome {
                    hit: true,
                    writeback: false,
                };
            }
        }

        // Miss: choose a victim.
        let victim = self.choose_victim(base, assoc);
        let line = &mut self.lines[base + victim];
        let writeback = line.valid && line.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *line = Line {
            valid: true,
            dirty: write,
            tag,
            order: self.tick,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    fn choose_victim(&self, base: usize, assoc: usize) -> usize {
        // Prefer an invalid way.
        for way in 0..assoc {
            if !self.lines[base + way].valid {
                return way;
            }
        }
        (0..assoc)
            .min_by_key(|&w| self.lines[base + w].order)
            .expect("assoc >= 1")
    }

    /// Probes for a line without updating any state (for tests/debug).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let assoc = self.config.assoc as usize;
        (0..assoc).any(|w| {
            let l = &self.lines[set * assoc + w];
            l.valid && l.tag == tag
        })
    }

    /// Invalidates everything and clears statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(assoc: u64) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 64 * assoc,
            line_bytes: 32,
            assoc,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x11f, false).hit, "same line");
        assert!(!c.access(0x120, false).hit, "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 sets x 2 ways; lines mapping to set 0: 0x00, 0x40, 0x80...
        let mut c = small(2);
        c.access(0x00, false);
        c.access(0x40, false);
        c.access(0x00, false); // touch 0x00, making 0x40 the LRU
        c.access(0x80, false); // evicts 0x40
        assert!(c.contains(0x00));
        assert!(!c.contains(0x40));
        assert!(c.contains(0x80));
    }

    #[test]
    fn writeback_on_dirty_eviction_only() {
        let mut c = small(1);
        c.access(0x00, true); // dirty fill
        let out = c.access(0x40, false); // evicts dirty 0x00
        assert!(out.writeback);
        let out = c.access(0x80, false); // evicts clean 0x40
        assert!(!out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small(1);
        c.access(0x00, false); // clean fill
        c.access(0x00, true); // dirty it
        let out = c.access(0x40, false);
        assert!(out.writeback);
    }

    #[test]
    fn miss_rate_math() {
        let mut c = small(2);
        for _ in 0..3 {
            c.access(0x0, false);
        }
        c.access(0x1000, false);
        assert_eq!(c.stats().misses(), 2);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = small(2);
        c.access(0x0, true);
        c.reset();
        assert!(!c.contains(0x0));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            line_bytes: 24,
            assoc: 1,
            hit_latency: 1,
        });
    }

    #[test]
    fn fully_associative_never_conflicts_within_capacity() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32 * 8,
            line_bytes: 32,
            assoc: 8,
            hit_latency: 1,
        });
        for i in 0..8u64 {
            c.access(i * 0x40, false);
        }
        for i in 0..8u64 {
            assert!(c.contains(i * 0x40), "line {i} was evicted prematurely");
        }
    }
}

#[cfg(test)]
mod generative {
    //! Seeded generative tests: inputs drawn from a fixed-seed
    //! [`redsim_util::Rng`], so failures replay exactly.

    use super::*;
    use redsim_util::Rng;

    /// Re-accessing an address immediately after it was accessed
    /// always hits (LRU never evicts the line it just touched).
    #[test]
    fn immediate_reaccess_hits() {
        let mut rng = Rng::new(0xCA_0001);
        for assoc in 1u64..=4 {
            for _ in 0..16 {
                let mut c = Cache::new(CacheConfig {
                    size_bytes: 4096 * assoc,
                    line_bytes: 64,
                    assoc,
                    hit_latency: 1,
                });
                for _ in 0..rng.range_u64(1, 200) {
                    let a = rng.below(0x10_0000);
                    c.access(a, false);
                    assert!(c.access(a, false).hit, "assoc={assoc} addr={a:#x}");
                }
            }
        }
    }

    /// hits + misses == accesses, for any access pattern.
    #[test]
    fn stats_are_consistent() {
        let mut rng = Rng::new(0xCA_0002);
        for _ in 0..64 {
            let ops: Vec<(u64, bool)> = (0..rng.index(300))
                .map(|_| (rng.below(0x4000), rng.flip()))
                .collect();
            let mut c = Cache::new(CacheConfig {
                size_bytes: 2048,
                line_bytes: 32,
                assoc: 2,
                hit_latency: 1,
            });
            for (a, w) in &ops {
                c.access(*a, *w);
            }
            assert_eq!(c.stats().hits + c.stats().misses(), ops.len() as u64);
            assert!(c.stats().writebacks <= c.stats().misses());
        }
    }

    /// A working set no larger than one set's associativity never
    /// conflict-misses after the cold fill.
    #[test]
    fn small_working_set_stays_resident() {
        let mut rng = Rng::new(0xCA_0003);
        for _ in 0..32 {
            let reps = rng.range_u64(1, 20);
            let mut c = Cache::new(CacheConfig {
                size_bytes: 1024,
                line_bytes: 32,
                assoc: 2,
                hit_latency: 1,
            });
            // Two lines in the same set (set count = 16).
            let a = 0x0;
            let b = 32 * 16;
            c.access(a, false);
            c.access(b, false);
            for _ in 0..reps {
                assert!(c.access(a, false).hit);
                assert!(c.access(b, false).hit);
            }
        }
    }
}
