//! Branch direction predictors.

use crate::counter::Counter2;

fn index(pc: u64, entries: usize) -> usize {
    // Instruction addresses are 8-byte aligned; drop the low bits.
    ((pc >> 3) as usize) & (entries - 1)
}

fn assert_pow2(entries: usize) {
    assert!(
        entries.is_power_of_two() && entries > 0,
        "predictor table size {entries} must be a power of two"
    );
}

/// Bimodal predictor: a PC-indexed table of two-bit counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert_pow2(entries);
        Bimodal {
            table: vec![Counter2::default(); entries],
        }
    }

    /// Predicts whether the branch at `pc` is taken.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[index(pc, self.table.len())].predict()
    }

    /// Trains on a resolved outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = index(pc, self.table.len());
        self.table[i].train(taken);
    }
}

/// Gshare: global history XOR PC indexes a counter table.
#[derive(Debug, Clone)]
pub(crate) struct Gshare {
    table: Vec<Counter2>,
    history: u64,
    hist_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two and
    /// `hist_bits <= log2(entries)`.
    #[must_use]
    pub(crate) fn new(entries: usize, hist_bits: u32) -> Self {
        assert_pow2(entries);
        assert!(
            hist_bits <= entries.trailing_zeros(),
            "history bits {hist_bits} exceed index width"
        );
        Gshare {
            table: vec![Counter2::default(); entries],
            history: 0,
            hist_bits,
        }
    }

    fn idx(&self, pc: u64) -> usize {
        let h = self.history & ((1 << self.hist_bits) - 1);
        (((pc >> 3) ^ h) as usize) & (self.table.len() - 1)
    }

    pub(crate) fn predict(&self, pc: u64) -> bool {
        self.table[self.idx(pc)].predict()
    }

    pub(crate) fn update(&mut self, pc: u64, taken: bool) {
        let i = self.idx(pc);
        self.table[i].train(taken);
        self.history = self.history << 1 | u64::from(taken);
    }
}

/// Tournament predictor: a chooser table arbitrates between a bimodal
/// and a gshare component (the paper's baseline front end).
#[derive(Debug)]
pub struct Tournament {
    chooser: Vec<Counter2>,
    bimodal: Bimodal,
    gshare: Gshare,
}

impl Tournament {
    /// Creates a tournament predictor; each component gets `entries`
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    #[must_use]
    pub fn new(entries: usize, hist_bits: u32) -> Self {
        assert_pow2(entries);
        Tournament {
            chooser: vec![Counter2::default(); entries],
            bimodal: Bimodal::new(entries),
            gshare: Gshare::new(entries, hist_bits),
        }
    }

    /// Predicts whether the branch at `pc` is taken.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        // Chooser state >= 2 selects gshare.
        if self.chooser[index(pc, self.chooser.len())].predict() {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Trains on a resolved outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let b = self.bimodal.predict(pc);
        let g = self.gshare.predict(pc);
        if b != g {
            // Train the chooser toward whichever component was right.
            let i = index(pc, self.chooser.len());
            self.chooser[i].train(g == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }
}

/// Declarative direction-predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionConfig {
    /// Bimodal with the given table size.
    Bimodal {
        /// Counter-table entries (power of two).
        entries: usize,
    },
    /// Tournament of bimodal + gshare with a chooser.
    Tournament {
        /// Per-component table entries (power of two).
        entries: usize,
        /// Gshare history bits.
        hist_bits: u32,
    },
}

impl DirectionConfig {
    /// The paper's baseline: a 4K-entry tournament predictor with
    /// 12 bits of global history.
    #[must_use]
    pub fn paper_baseline() -> Self {
        DirectionConfig::Tournament {
            entries: 4096,
            hist_bits: 12,
        }
    }
}

/// The direction predictor a [`DirectionConfig`] describes.
///
/// `predict` is a pure query; `update` trains on the resolved outcome.
/// Timing models call `update` at branch resolution.
///
/// # Examples
///
/// ```
/// use redsim_predictor::{Direction, DirectionConfig};
///
/// let mut p = Direction::new(DirectionConfig::paper_baseline());
/// p.update(0x1000, true);
/// p.update(0x1000, true);
/// assert!(p.predict(0x1000));
/// ```
#[derive(Debug)]
pub enum Direction {
    /// See [`Bimodal`].
    Bimodal(Bimodal),
    /// See [`Tournament`].
    Tournament(Tournament),
}

impl Direction {
    /// Instantiates the predictor `config` describes.
    #[must_use]
    pub fn new(config: DirectionConfig) -> Self {
        match config {
            DirectionConfig::Bimodal { entries } => Direction::Bimodal(Bimodal::new(entries)),
            DirectionConfig::Tournament { entries, hist_bits } => {
                Direction::Tournament(Tournament::new(entries, hist_bits))
            }
        }
    }

    /// Predicts whether the branch at `pc` is taken.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        match self {
            Direction::Bimodal(p) => p.predict(pc),
            Direction::Tournament(p) => p.predict(pc),
        }
    }

    /// Trains on a resolved outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        match self {
            Direction::Bimodal(p) => p.update(pc, taken),
            Direction::Tournament(p) => p.update(pc, taken),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<P>(
        p: &mut P,
        predict: fn(&P, u64) -> bool,
        update: fn(&mut P, u64, bool),
        stream: &[(u64, bool)],
    ) -> f64 {
        let mut right = 0usize;
        for &(pc, taken) in stream {
            if predict(p, pc) == taken {
                right += 1;
            }
            update(p, pc, taken);
        }
        right as f64 / stream.len() as f64
    }

    /// A loop branch: taken 15 times, then not taken, repeated.
    fn loop_stream(pc: u64, trips: usize, iters: usize) -> Vec<(u64, bool)> {
        let mut v = Vec::new();
        for _ in 0..iters {
            for i in 0..trips {
                v.push((pc, i != trips - 1));
            }
        }
        v
    }

    /// Two branches with perfectly correlated outcomes (second equals
    /// the first) — global history should nail the second branch.
    fn correlated_stream(iters: usize) -> Vec<(u64, bool)> {
        let mut v = Vec::new();
        let mut flip = false;
        for _ in 0..iters {
            flip = !flip;
            v.push((0x1000, flip));
            v.push((0x2000, flip));
        }
        v
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut p = Bimodal::new(256);
        let acc = accuracy(
            &mut p,
            Bimodal::predict,
            Bimodal::update,
            &loop_stream(0x1000, 16, 100),
        );
        assert!(acc > 0.9, "bimodal on a 16-trip loop: {acc}");
    }

    #[test]
    fn gshare_beats_bimodal_on_correlated_branches() {
        let stream = correlated_stream(500);
        let mut bim = Bimodal::new(1024);
        let mut gsh = Gshare::new(1024, 8);
        let acc_b = accuracy(&mut bim, Bimodal::predict, Bimodal::update, &stream);
        let acc_g = accuracy(&mut gsh, Gshare::predict, Gshare::update, &stream);
        assert!(
            acc_g > acc_b + 0.2,
            "gshare {acc_g} should beat bimodal {acc_b} by a wide margin"
        );
        assert!(acc_g > 0.9);
    }

    #[test]
    fn tournament_tracks_the_better_component() {
        let stream = correlated_stream(500);
        let mut t = Tournament::new(1024, 8);
        let acc = accuracy(&mut t, Tournament::predict, Tournament::update, &stream);
        assert!(acc > 0.85, "tournament on correlated stream: {acc}");
    }

    #[test]
    fn new_constructs_each_variant() {
        assert!(matches!(
            Direction::new(DirectionConfig::Bimodal { entries: 64 }),
            Direction::Bimodal(_)
        ));
        assert!(matches!(
            Direction::new(DirectionConfig::Tournament {
                entries: 64,
                hist_bits: 4,
            }),
            Direction::Tournament(_)
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_table_panics() {
        let _ = Bimodal::new(100);
    }

    #[test]
    fn aliasing_distinct_pcs_share_counters() {
        let mut p = Bimodal::new(4);
        // PCs 8 bytes apart with a 4-entry table: pc>>3 mod 4 collides
        // every 4 instructions.
        p.update(0x1000, true);
        p.update(0x1000, true);
        assert!(
            p.predict(0x1000 + 4 * 8),
            "aliased pc shares the trained counter"
        );
    }
}

#[cfg(test)]
mod generative {
    //! Seeded generative tests: inputs drawn from a fixed-seed
    //! [`redsim_util::Rng`], so failures replay exactly.

    use super::*;
    use redsim_util::Rng;

    const CONFIGS: [DirectionConfig; 2] = [
        DirectionConfig::Bimodal { entries: 64 },
        DirectionConfig::Tournament {
            entries: 64,
            hist_bits: 5,
        },
    ];

    /// Any predictor, fed any branch stream, stays deterministic:
    /// the same stream yields the same prediction sequence.
    #[test]
    fn predictors_are_deterministic() {
        let mut rng = Rng::new(0xD1_0001);
        for cfg in CONFIGS {
            for _ in 0..8 {
                let stream: Vec<(u64, bool)> = (0..rng.range_u64(1, 200))
                    .map(|_| (rng.below(1 << 16) & !7, rng.flip()))
                    .collect();
                let run = || {
                    let mut p = Direction::new(cfg);
                    stream
                        .iter()
                        .map(|&(pc, t)| {
                            let pred = p.predict(pc);
                            p.update(pc, t);
                            pred
                        })
                        .collect::<Vec<bool>>()
                };
                assert_eq!(run(), run(), "{cfg:?}");
            }
        }
    }

    /// A perfectly biased branch converges: after a burst of
    /// training, every dynamic predictor agrees with the bias.
    #[test]
    fn biased_branch_converges() {
        let mut rng = Rng::new(0xD1_0002);
        for cfg in CONFIGS {
            for taken in [false, true] {
                for _ in 0..8 {
                    let pc = rng.below(1 << 12) << 3;
                    let mut p = Direction::new(cfg);
                    for _ in 0..8 {
                        p.update(pc, taken);
                    }
                    assert_eq!(p.predict(pc), taken, "{cfg:?} pc={pc:#x}");
                }
            }
        }
    }
}
