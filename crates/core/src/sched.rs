//! Event-driven scheduling structures: the ready bitset and the
//! completion calendar.
//!
//! Together these replace the O(window) per-cycle scans the pipeline
//! originally performed: instead of filtering every RUU entry for
//! `Ready` candidates at issue and `complete_at == cycle` entries at
//! writeback, the pipeline *marks* a ring slot exactly when the
//! corresponding transition happens and *walks* exactly the work due.
//! `DESIGN.md` ("The event-driven scheduling core" and §12) documents
//! the invariants that keep these structures in sync with the RUU's
//! per-entry `EntryState`. Debug builds still run the scans every
//! cycle, as an oracle the pipeline checks both structures against.
//!
//! Both structures have fixed backing storage sized at construction:
//! the steady-state cycle loop of a release build is allocation-free.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A set of ready-to-issue RUU entries, stored as one bit per ring
/// slot and read in ring (= age) order.
///
/// The pipeline keeps one set per stream so the §3.1 primary-first
/// selection policy becomes a read order (primary set before duplicate
/// set) instead of a per-cycle sort.
///
/// Entries that lose issue arbitration stay ready for many consecutive
/// cycles; here a still-ready entry costs nothing at all between
/// cycles — its bit simply stays set. Wakeup ([`ReadySet::insert`]) and
/// issue ([`ReadySet::remove`]) are single branchless word updates, and
/// candidate collection ([`ReadySet::append_ring`]) walks whole words
/// with trailing-zeros iteration, touching 1 bit of state per window
/// slot instead of a word per queued entry.
///
/// Because the RUU ring is a power of two and its live window never
/// exceeds the ring size, slot order walked from the window base *is*
/// ascending sequence order — the same oldest-first order the previous
/// sorted queue produced.
///
/// # Examples
///
/// ```
/// use redsim_core::sched::ReadySet;
///
/// let mut s = ReadySet::new(64);
/// s.insert(7);
/// s.insert(3);
/// let mut out = Vec::new();
/// // Window of 16 entries starting at slot 0 == seq 100.
/// s.append_ring(0, 16, 100, &mut out);
/// assert_eq!(out, [103, 107], "oldest (smallest seq) first");
/// s.remove(3); // seq 103 issued; 107 is still ready
/// out.clear();
/// s.append_ring(0, 16, 100, &mut out);
/// assert_eq!(out, [107]);
/// ```
#[derive(Debug, Default)]
pub struct ReadySet {
    /// One bit per ring slot.
    words: Vec<u64>,
}

impl ReadySet {
    /// Creates an empty set over a ring of `slots` slots (a power of
    /// two, at least 64 — the RUU ring guarantees both).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(
            slots >= 64 && slots.is_power_of_two(),
            "ring size must be a power of two >= 64"
        );
        ReadySet {
            words: vec![0; slots / 64],
        }
    }

    /// Marks `slot` ready (idempotent).
    #[inline]
    pub fn insert(&mut self, slot: usize) {
        self.words[slot >> 6] |= 1 << (slot & 63);
    }

    /// Clears `slot` (idempotent).
    #[inline]
    pub fn remove(&mut self, slot: usize) {
        self.words[slot >> 6] &= !(1 << (slot & 63));
    }

    /// `true` when no slot is marked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Marked slot count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends the seq of every marked slot inside the live window to
    /// `out`, in ring order from the window base (= ascending seq).
    ///
    /// The window starts at ring slot `base_slot` (holding seq
    /// `base_seq`) and spans `len` slots, wrapping modulo the ring
    /// size.
    pub fn append_ring(&self, base_slot: usize, len: usize, base_seq: u64, out: &mut Vec<u64>) {
        walk_ring(
            base_slot,
            len,
            self.words.len(),
            |w| self.words[w],
            |offset| {
                out.push(base_seq + offset);
            },
        );
    }

    /// Appends the seqs marked in `a` *or* `b` over the shared live
    /// window, in ring order (the symmetric oldest-first selection
    /// policy across both streams). Both sets keep their contents.
    pub fn append_union_ring(
        a: &ReadySet,
        b: &ReadySet,
        base_slot: usize,
        len: usize,
        base_seq: u64,
        out: &mut Vec<u64>,
    ) {
        debug_assert_eq!(a.words.len(), b.words.len());
        walk_ring(
            base_slot,
            len,
            a.words.len(),
            |w| a.words[w] | b.words[w],
            |offset| out.push(base_seq + offset),
        );
    }
}

/// Walks the marked slots of a wrapped window `[base_slot, base_slot +
/// len)` over a ring of `words * 64` slots, calling `emit` with each
/// marked slot's offset from the window base, in window order.
///
/// The window is at most one wrap, so it splits into at most two
/// linear spans; each span is scanned a word at a time with the
/// out-of-window bits masked off and the survivors drained by
/// trailing-zeros iteration.
#[inline]
fn walk_ring(
    base_slot: usize,
    len: usize,
    words: usize,
    fetch: impl Fn(usize) -> u64,
    mut emit: impl FnMut(u64),
) {
    let slots = words * 64;
    debug_assert!(len <= slots);
    let mut span = |lo: usize, hi: usize| {
        if lo >= hi {
            return;
        }
        let slot_mask = slots as u64 - 1;
        for w in (lo >> 6)..=((hi - 1) >> 6) {
            let mut bits = fetch(w);
            if w == lo >> 6 {
                bits &= !0 << (lo & 63);
            }
            if w == (hi - 1) >> 6 {
                bits &= !0 >> (63 - ((hi - 1) & 63));
            }
            while bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                emit((slot as u64).wrapping_sub(base_slot as u64) & slot_mask);
                bits &= bits - 1;
            }
        }
    };
    let end = base_slot + len;
    span(base_slot, end.min(slots));
    span(0, end.saturating_sub(slots));
}

/// Near-horizon bucket count of the calendar's timing wheel. Must be a
/// power of two. The default machine's worst completion delta (an
/// unpipelined FP sqrt plus a full L1→L2→memory miss chain) is far
/// below this, so in practice every event lands in the wheel; deltas
/// beyond the horizon (pathological user-configured latencies) spill
/// into an overflow heap.
const WHEEL: usize = 512;

/// A completion calendar: a timing wheel keyed by completion cycle.
///
/// [`Calendar::schedule`] files a sequence number under its
/// `complete_at` cycle; [`Calendar::pop_due`] returns exactly the seqs
/// completing *this* cycle, in ascending seq order — the order the
/// original full-window writeback scan produced. The wheel relies on
/// the cycle loop popping every cycle (cycles never skip), so a bucket
/// is always empty by the time the wheel wraps back onto it.
///
/// # Examples
///
/// ```
/// use redsim_core::sched::Calendar;
///
/// let mut c = Calendar::new();
/// c.schedule(5, 1, 40);
/// c.schedule(5, 2, 12);
/// c.schedule(6, 2, 7);
/// let mut due = Vec::new();
/// c.pop_due(5, &mut due);
/// assert_eq!(due, [12, 40], "due this cycle, ascending seq");
/// c.pop_due(6, &mut due);
/// assert_eq!(due, [7]);
/// ```
#[derive(Debug)]
pub struct Calendar {
    wheel: Vec<Vec<u64>>,
    /// `(cycle, seq)` events scheduled beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<(u64, u64)>>,
    pending: usize,
}

impl Default for Calendar {
    fn default() -> Self {
        Self::new()
    }
}

impl Calendar {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Calendar {
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            pending: 0,
        }
    }

    /// Schedules `seq` to complete at cycle `at` (`now` is the current
    /// cycle; `at` must not be in the past).
    pub fn schedule(&mut self, at: u64, now: u64, seq: u64) {
        debug_assert!(at > now, "completions are strictly in the future");
        self.pending += 1;
        if at - now < WHEEL as u64 {
            self.wheel[at as usize & (WHEEL - 1)].push(seq);
        } else {
            self.overflow.push(Reverse((at, seq)));
        }
    }

    /// Replaces `out` with every seq due at cycle `now`, ascending.
    #[inline]
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.pending == 0 {
            return;
        }
        out.append(&mut self.wheel[now as usize & (WHEEL - 1)]);
        while let Some(&Reverse((c, s))) = self.overflow.peek() {
            debug_assert!(c >= now, "overflow events cannot be missed");
            if c != now {
                break;
            }
            self.overflow.pop();
            out.push(s);
        }
        self.pending -= out.len();
        out.sort_unstable();
    }

    /// Events filed and not yet popped.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_orders_by_ring_position_not_insertion() {
        let mut s = ReadySet::new(64);
        for slot in [9, 2, 5, 11, 3] {
            s.insert(slot);
        }
        assert_eq!(s.len(), 5);
        let mut out = Vec::new();
        s.append_ring(0, 64, 0, &mut out);
        assert_eq!(out, [2, 3, 5, 9, 11]);
        assert_eq!(s.len(), 5, "append_ring keeps slots marked");
    }

    #[test]
    fn ready_set_survivors_persist_across_cycles() {
        let mut s = ReadySet::new(64);
        for slot in [4, 8, 6] {
            s.insert(slot);
        }
        let mut out = Vec::new();
        s.append_ring(0, 64, 0, &mut out);
        assert_eq!(out, [4, 6, 8]);
        // Cycle issues 4 and 8; 6 lost arbitration and stays ready.
        s.remove(4);
        s.remove(8);
        // A younger entry wakes up next cycle, plus one older than the
        // survivor (a replayed entry).
        s.insert(10);
        s.insert(5);
        out.clear();
        s.append_ring(0, 64, 0, &mut out);
        assert_eq!(out, [5, 6, 10]);
    }

    #[test]
    fn ring_walk_wraps_and_translates_to_seqs() {
        let mut s = ReadySet::new(64);
        // Window of 8 slots starting at slot 61: ring order is
        // 61, 62, 63, 0, 1, 2, 3, 4.
        for slot in [62, 1, 61, 4] {
            s.insert(slot);
        }
        // A marked slot *outside* the window must not be reported.
        s.insert(40);
        let mut out = Vec::new();
        s.append_ring(61, 8, 500, &mut out);
        assert_eq!(out, [500, 501, 504, 507], "ring order, window only");
    }

    #[test]
    fn union_interleaves_two_streams_by_ring_order() {
        let mut p = ReadySet::new(64);
        let mut d = ReadySet::new(64);
        for slot in [0, 4, 6] {
            p.insert(slot);
        }
        for slot in [1, 5, 7] {
            d.insert(slot);
        }
        let mut out = Vec::new();
        ReadySet::append_union_ring(&p, &d, 0, 64, 0, &mut out);
        assert_eq!(out, [0, 1, 4, 5, 6, 7]);
        assert_eq!(p.len(), 3);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn union_handles_empty_sides() {
        let mut p = ReadySet::new(64);
        let d = ReadySet::new(64);
        p.insert(3);
        let mut out = Vec::new();
        ReadySet::append_union_ring(&p, &d, 0, 64, 0, &mut out);
        assert_eq!(out, [3]);
        p.remove(3);
        out.clear();
        ReadySet::append_union_ring(&p, &d, 0, 64, 0, &mut out);
        assert!(out.is_empty());
        assert!(p.is_empty() && d.is_empty());
    }

    #[test]
    fn multi_word_windows_visit_every_word() {
        let mut s = ReadySet::new(256);
        for slot in [0, 63, 64, 127, 128, 200, 255] {
            s.insert(slot);
        }
        let mut out = Vec::new();
        s.append_ring(0, 256, 0, &mut out);
        assert_eq!(out, [0, 63, 64, 127, 128, 200, 255]);
        // A wrapped window starting mid-word in the last word.
        out.clear();
        s.append_ring(250, 100, 1000, &mut out);
        // Offsets: 255-250=5, then 0→6, 63→69, 64→70.
        assert_eq!(out, [1005, 1006, 1069, 1070]);
    }

    #[test]
    fn calendar_pops_exactly_the_due_cycle() {
        let mut c = Calendar::new();
        c.schedule(10, 0, 1);
        c.schedule(12, 0, 2);
        c.schedule(10, 3, 3);
        let mut out = Vec::new();
        for cycle in 0..10 {
            c.pop_due(cycle, &mut out);
            assert!(out.is_empty(), "nothing due at {cycle}");
        }
        c.pop_due(10, &mut out);
        assert_eq!(out, [1, 3]);
        c.pop_due(11, &mut out);
        assert!(out.is_empty());
        c.pop_due(12, &mut out);
        assert_eq!(out, [2]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn calendar_routes_far_events_through_the_overflow_heap() {
        let mut c = Calendar::new();
        let far = WHEEL as u64 * 3 + 17;
        c.schedule(far, 0, 42);
        c.schedule(far, 1, 7);
        c.schedule(2, 1, 9);
        let mut out = Vec::new();
        c.pop_due(2, &mut out);
        assert_eq!(out, [9]);
        // Walk the clock to the far cycle; buckets must stay clean as
        // the wheel wraps several times.
        for cycle in 3..far {
            c.pop_due(cycle, &mut out);
            assert!(out.is_empty(), "spurious event at {cycle}");
        }
        c.pop_due(far, &mut out);
        assert_eq!(out, [7, 42], "overflow events fire at their cycle");
    }

    #[test]
    fn calendar_recycles_bucket_storage() {
        let mut c = Calendar::new();
        let mut out = Vec::new();
        for round in 0..4u64 {
            let at = round * WHEEL as u64 + 5;
            if at > round * WHEEL as u64 {
                c.schedule(at, round * WHEEL as u64, round);
            }
            c.pop_due(at, &mut out);
            assert_eq!(out, [round]);
        }
    }
}

#[cfg(test)]
mod generative {
    //! Seeded model test: the bitset walk must agree with a sorted-set
    //! reference across random windows and churn.

    use super::*;
    use redsim_util::Rng;

    #[test]
    fn ring_walk_matches_sorted_reference() {
        let mut rng = Rng::new(0x5c4e_d001);
        for _ in 0..200 {
            let slots = *rng.pick(&[64usize, 128, 512]);
            let mut s = ReadySet::new(slots);
            let mut model: Vec<usize> = Vec::new();
            for _ in 0..rng.range_u64(1, 60) {
                let slot = rng.index(slots);
                if rng.flip() {
                    s.insert(slot);
                    if !model.contains(&slot) {
                        model.push(slot);
                    }
                } else {
                    s.remove(slot);
                    model.retain(|&m| m != slot);
                }
            }
            // Random live window, possibly wrapping, possibly full.
            let base_slot = rng.index(slots);
            let len = rng.index(slots + 1);
            let base_seq = rng.below(1 << 40);
            let mut got = Vec::new();
            s.append_ring(base_slot, len, base_seq, &mut got);
            let mut want: Vec<u64> = model
                .iter()
                .map(|&m| (m + slots - base_slot) % slots)
                .filter(|&off| off < len)
                .map(|off| base_seq + off as u64)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "slots={slots} base={base_slot} len={len}");
        }
    }
}
