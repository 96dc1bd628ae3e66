//! The Register Update Unit: SimpleScalar's unified ROB + issue window.
//!
//! Stored structure-of-arrays: the scheduling loops (issue selection,
//! writeback, the commit comparator) are the simulator's hottest code,
//! and they each read only a few bytes per entry. Splitting the former
//! monolithic `Entry` record into parallel arrays keyed by ring slot
//! means a selection probe touches a one-byte state lane instead of
//! dragging a whole ~200-byte record through the cache, and the commit
//! stage can test "how many entries from the head are done?" on packed
//! bit words instead of chasing per-entry pointers. `DESIGN.md` §12
//! documents the layout and its invariants.

use redsim_irb::IrbEntry;
use redsim_isa::trace::DynInst;
use redsim_isa::OpClass;

/// Which redundant stream a RUU entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// The primary stream — always executes on the functional units.
    Primary,
    /// The duplicate stream — the candidate for IRB service.
    Dup,
}

/// Scheduling state of one RUU entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryState {
    /// Waiting for `deps_remaining` producers to broadcast.
    Waiting,
    /// All operands available; contending for issue (or for the reuse
    /// test, for IRB-hit duplicates).
    Ready,
    /// Executing; completes at `complete_at`.
    Issued,
    /// A duplicate load whose address work is done (or bypassed) but
    /// whose data awaits the pair's single shared memory access.
    WaitingPair,
    /// Result produced (broadcast done, for producers).
    Done,
}

/// The IRB interaction of a duplicate entry, as the pipeline and the
/// IRB unit exchange it. Inside the RUU the discriminant and the hit
/// payload live in separate arrays ([`ReuseTag`] + a packed
/// [`IrbEntry`] lane) so the issue loop's eligibility probe reads one
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseState {
    /// Not a candidate (SIE/DIE entry, or ineligible opcode).
    NotEligible,
    /// Lookup performed, PC missed.
    PcMiss,
    /// Lookup could not get an IRB read port this cycle.
    PortStarved,
    /// PC hit; entry rides along awaiting the reuse test.
    Hit(IrbEntry),
    /// Reuse test passed — the entry bypassed the functional units.
    Passed,
    /// Reuse test failed — executed on the functional units.
    Failed,
}

/// The discriminant of [`ReuseState`], stored one byte per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReuseTag {
    /// See [`ReuseState::NotEligible`].
    NotEligible,
    /// See [`ReuseState::PcMiss`].
    PcMiss,
    /// See [`ReuseState::PortStarved`].
    PortStarved,
    /// See [`ReuseState::Hit`] — the payload sits in the hit lane.
    Hit,
    /// See [`ReuseState::Passed`].
    Passed,
    /// See [`ReuseState::Failed`].
    Failed,
}

// The hot lanes are laid out for density; accidental field growth here
// silently de-packs the scheduling loops, so the sizes are locked at
// compile time (the satellite size test re-asserts them with context).
const _: () = assert!(std::mem::size_of::<EntryState>() == 1);
const _: () = assert!(std::mem::size_of::<ReuseTag>() == 1);
const _: () = assert!(std::mem::size_of::<OpClass>() == 1);

/// Per-entry boolean lanes, packed into one 16-bit word.
mod flag {
    /// Entry belongs to the duplicate stream.
    pub const DUP: u16 = 1 << 0;
    /// Entry has consumed a functional unit.
    pub const EXECUTED_ON_FU: u16 = 1 << 1;
    /// A fault was injected somewhere on this copy's path.
    pub const FAULT_TAINTED: u16 = 1 << 2;
    /// Mispredict resolution already reported to the front end.
    pub const RESOLUTION_REPORTED: u16 = 1 << 3;
    /// The `out_bits` lane holds a comparator word.
    pub const HAS_OUT: u16 = 1 << 4;
    /// The instruction is a load.
    pub const IS_LOAD: u16 = 1 << 5;
    /// The instruction is a store.
    pub const IS_STORE: u16 = 1 << 6;
    /// The record carries a control-flow outcome (branch/jump).
    pub const IS_CONTROL: u16 = 1 << 7;
    /// The entry's `di` lane is unwritten: the record lives in the
    /// previous slot (the pair's primary). Set only by
    /// [`super::Ruu::push_dup_shared`].
    pub const SHARED_DI: u16 = 1 << 8;

    /// Every defined flag. Locked below to a contiguous low-bit run so
    /// two flags can't silently share a bit and the lane provably holds
    /// them all.
    pub const ALL: u16 = DUP
        | EXECUTED_ON_FU
        | FAULT_TAINTED
        | RESOLUTION_REPORTED
        | HAS_OUT
        | IS_LOAD
        | IS_STORE
        | IS_CONTROL
        | SHARED_DI;
}

const _: () = assert!(flag::ALL == (1 << 9) - 1);

/// Sentinel for "no completion cycle scheduled".
const NO_CYCLE: u64 = u64::MAX;

/// The architectural check value of a dynamic instruction, as the DIE
/// commit comparator sees it (§2.1).
///
/// Memory instructions are checked on the redundantly-computed piece —
/// the effective address (the single shared data-cache access is outside
/// the comparison; stores additionally fold the data value in). Control
/// instructions are checked on their encoded outcome; everything else on
/// the destination value.
#[must_use]
pub fn checked_bits(di: &DynInst) -> Option<u64> {
    if di.inst.op.is_load() {
        return di.ea;
    }
    if di.inst.op.is_store() {
        // Fold address and store data into one comparator word.
        return di.ea.map(|ea| ea ^ di.src2.rotate_left(32));
    }
    if let Some(c) = di.control {
        return Some(c.target | u64::from(c.taken) << 63);
    }
    di.result
}

/// The RUU: a bounded FIFO addressed by absolute sequence number
/// (entries never leave out of order — the committed-path trace
/// contains no wrong-path work to squash), stored as parallel arrays
/// over a power-of-two ring.
///
/// Slot addressing: entry `seq` lives at slot `seq & mask`. Because the
/// live window `[base, base + len)` never exceeds the ring size, slot
/// assignment is collision-free and ring order equals seq order.
#[derive(Debug, Default)]
pub struct Ruu {
    /// Absolute seq of the oldest entry.
    base: u64,
    /// Live entries.
    len: usize,
    /// Configured capacity (`free` counts against this).
    capacity: usize,
    /// Ring size: `capacity.next_power_of_two()`.
    cap: usize,
    /// `cap - 1`.
    mask: u64,

    // ---- per-slot lanes (each `cap` long) --------------------------
    /// The committed-path record each entry is a copy of (cold: the
    /// scheduling loops read the scalar lanes below instead).
    di: Vec<DynInst>,
    /// Scheduling state.
    state: Vec<EntryState>,
    /// Packed boolean lanes ([`flag`]).
    flags: Vec<u16>,
    /// Functional-unit class, cached at dispatch.
    class: Vec<OpClass>,
    /// Producers still outstanding.
    deps_remaining: Vec<u32>,
    /// Completion (result broadcast) cycle; [`NO_CYCLE`] when unknown.
    complete_at: Vec<u64>,
    /// Cycle the entry last became [`EntryState::Ready`] (drives the
    /// non-data-capture reuse-test timing).
    ready_at: Vec<u64>,
    /// Earliest cycle the IRB lookup result is available.
    lookup_done_at: Vec<u64>,
    /// Comparator word this copy produced (valid iff
    /// [`flag::HAS_OUT`]).
    out_bits: Vec<u64>,
    /// XOR mask accumulated from corrupted operand forwarding.
    input_corrupt: Vec<u64>,
    /// IRB interaction discriminant.
    reuse: Vec<ReuseTag>,
    /// IRB hit payload (valid iff the reuse tag is [`ReuseTag::Hit`]).
    hit: Vec<IrbEntry>,
    /// Absolute seqs of in-flight consumers to wake on broadcast.
    consumers: Vec<Vec<u64>>,
    /// Ids of the faults riding on each copy; resolved to a terminal
    /// outcome at commit or rewind. Empty in fault-free runs, so it
    /// never allocates on the common path.
    fault_ids: Vec<Vec<u32>>,

    /// One bit per slot, set while the slot's entry is
    /// [`EntryState::Done`] — the commit stage counts its retirement
    /// window with word-parallel trailing-ones instead of a per-entry
    /// state walk.
    done_words: Vec<u64>,
}

impl Ruu {
    /// Creates an empty RUU with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "RUU needs at least one entry");
        let cap = capacity.next_power_of_two().max(64);
        Ruu {
            base: 0,
            len: 0,
            capacity,
            cap,
            mask: cap as u64 - 1,
            di: vec![
                DynInst {
                    seq: 0,
                    pc: 0,
                    inst: redsim_isa::Inst::NOP,
                    src1: 0,
                    src2: 0,
                    result: None,
                    ea: None,
                    control: None,
                    next_pc: 0,
                };
                cap
            ],
            state: vec![EntryState::Waiting; cap],
            flags: vec![0; cap],
            class: vec![OpClass::IntAlu; cap],
            deps_remaining: vec![0; cap],
            complete_at: vec![NO_CYCLE; cap],
            ready_at: vec![0; cap],
            lookup_done_at: vec![0; cap],
            out_bits: vec![0; cap],
            input_corrupt: vec![0; cap],
            reuse: vec![ReuseTag::NotEligible; cap],
            hit: vec![IrbEntry::default(); cap],
            consumers: (0..cap).map(|_| Vec::new()).collect(),
            fault_ids: (0..cap).map(|_| Vec::new()).collect(),
            done_words: vec![0; cap.div_ceil(64)],
        }
    }

    // ---- ring bookkeeping ------------------------------------------

    /// Free slots.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute seq the next pushed entry will receive.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.base + self.len as u64
    }

    /// Absolute seq of the oldest entry.
    #[must_use]
    pub fn head_seq(&self) -> u64 {
        self.base
    }

    /// Ring size (power of two) — sizes the per-stream ready bitsets.
    #[must_use]
    pub fn slot_capacity(&self) -> usize {
        self.cap
    }

    /// Ring slot of an absolute seq (collision-free for live seqs).
    #[inline]
    #[must_use]
    pub fn slot_of(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// `true` while `seq` is in flight.
    #[inline]
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.base) < self.len as u64
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        debug_assert!(self.contains(seq), "seq {seq} not in flight");
        (seq & self.mask) as usize
    }

    #[inline]
    fn set_done_bit(&mut self, slot: usize, done: bool) {
        let w = slot >> 6;
        let b = slot & 63;
        self.done_words[w] = (self.done_words[w] & !(1 << b)) | (u64::from(done) << b);
    }

    /// Pushes a freshly dispatched copy, returning its absolute seq.
    ///
    /// # Panics
    ///
    /// Panics if the RUU is full — dispatch must check [`Ruu::free`].
    #[inline]
    pub fn push(&mut self, di: DynInst, stream: Stream) -> u64 {
        assert!(self.len < self.capacity, "RUU overflow");
        let seq = self.next_seq();
        let s = (seq & self.mask) as usize;
        let op = di.inst.op;
        let mut flags = 0u16;
        flags |= u16::from(stream == Stream::Dup) * flag::DUP;
        flags |= u16::from(op.is_load()) * flag::IS_LOAD;
        flags |= u16::from(op.is_store()) * flag::IS_STORE;
        flags |= u16::from(di.control.is_some()) * flag::IS_CONTROL;
        self.class[s] = di.class();
        self.di[s] = di;
        self.init_slot(s, flags);
        seq
    }

    /// Pushes the duplicate copy of a DIE pair, sharing the record the
    /// immediately preceding push (the pair's primary) already wrote
    /// instead of storing a second identical `DynInst`. [`Ruu::di`]
    /// redirects reads through the pairing, which stays valid for the
    /// dup's whole lifetime: pairs enter together and commit pops them
    /// together, so the primary's slot is never recycled first.
    ///
    /// # Panics
    ///
    /// Panics if the RUU is full — dispatch must check [`Ruu::free`].
    #[inline]
    pub fn push_dup_shared(&mut self) -> u64 {
        assert!(self.len < self.capacity, "RUU overflow");
        let seq = self.next_seq();
        let s = (seq & self.mask) as usize;
        let p = (seq.wrapping_sub(1) & self.mask) as usize;
        debug_assert!(
            self.len > 0 && self.flags[p] & flag::DUP == 0,
            "a shared dup must directly follow its primary"
        );
        let inherited = self.flags[p] & (flag::IS_LOAD | flag::IS_STORE | flag::IS_CONTROL);
        self.class[s] = self.class[p];
        self.init_slot(s, inherited | flag::DUP | flag::SHARED_DI);
        seq
    }

    /// Shared tail of the push paths: resets every scheduling lane of
    /// slot `s`. `ready_at`, `lookup_done_at` and `out_bits` are left
    /// stale on purpose — each is written before its first read
    /// (`ready_at` whenever an entry turns `Ready`, `lookup_done_at`
    /// alongside the `Hit` tag that gates its readers, `out_bits`
    /// behind [`flag::HAS_OUT`], cleared here).
    #[inline]
    fn init_slot(&mut self, s: usize, flags: u16) {
        self.state[s] = EntryState::Waiting;
        self.flags[s] = flags;
        self.deps_remaining[s] = 0;
        self.complete_at[s] = NO_CYCLE;
        self.input_corrupt[s] = 0;
        self.reuse[s] = ReuseTag::NotEligible;
        self.set_done_bit(s, false);
        debug_assert!(self.consumers[s].is_empty(), "slot recycled clean");
        debug_assert!(self.fault_ids[s].is_empty(), "slot recycled clean");
        self.len += 1;
    }

    /// Pops the oldest entry (commit).
    ///
    /// # Panics
    ///
    /// Panics if the RUU is empty.
    pub fn pop(&mut self) {
        assert!(self.len > 0, "RUU underflow");
        let s = (self.base & self.mask) as usize;
        self.set_done_bit(s, false);
        self.base += 1;
        self.len -= 1;
    }

    // ---- lane accessors --------------------------------------------

    /// The committed-path record of a live entry. A shared dup
    /// ([`Ruu::push_dup_shared`]) reads through to its primary's slot.
    #[inline]
    #[must_use]
    pub fn di(&self, seq: u64) -> &DynInst {
        let s = self.slot(seq);
        let s = if self.flags[s] & flag::SHARED_DI != 0 {
            (seq.wrapping_sub(1) & self.mask) as usize
        } else {
            s
        };
        &self.di[s]
    }

    /// Scheduling state.
    #[inline]
    #[must_use]
    pub fn state(&self, seq: u64) -> EntryState {
        self.state[self.slot(seq)]
    }

    /// Sets the scheduling state (also maintains the done-bit word the
    /// commit stage scans).
    #[inline]
    pub fn set_state(&mut self, seq: u64, state: EntryState) {
        let s = self.slot(seq);
        self.state[s] = state;
        self.set_done_bit(s, state == EntryState::Done);
    }

    /// `true` while `seq` is live and [`EntryState::Done`].
    #[inline]
    #[must_use]
    pub fn is_done(&self, seq: u64) -> bool {
        self.contains(seq) && self.state[(seq & self.mask) as usize] == EntryState::Done
    }

    /// Which stream the entry belongs to.
    #[inline]
    #[must_use]
    pub fn stream(&self, seq: u64) -> Stream {
        if self.is_dup(seq) {
            Stream::Dup
        } else {
            Stream::Primary
        }
    }

    /// `true` for duplicate-stream entries.
    #[inline]
    #[must_use]
    pub fn is_dup(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::DUP != 0
    }

    /// Functional-unit class, cached at dispatch.
    #[inline]
    #[must_use]
    pub fn class(&self, seq: u64) -> OpClass {
        self.class[self.slot(seq)]
    }

    /// `true` for loads.
    #[inline]
    #[must_use]
    pub fn is_load(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::IS_LOAD != 0
    }

    /// `true` for stores.
    #[inline]
    #[must_use]
    pub fn is_store(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::IS_STORE != 0
    }

    /// `true` for loads and stores.
    #[inline]
    #[must_use]
    pub fn is_mem(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & (flag::IS_LOAD | flag::IS_STORE) != 0
    }

    /// `true` when the entry's record carries a control-flow outcome —
    /// a flag read, so branch resolution can skip the `DynInst` lane
    /// for the (majority) non-control entries.
    #[inline]
    #[must_use]
    pub fn is_control(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::IS_CONTROL != 0
    }

    /// Producers still outstanding.
    #[inline]
    #[must_use]
    pub fn deps_remaining(&self, seq: u64) -> u32 {
        self.deps_remaining[self.slot(seq)]
    }

    /// Sets the outstanding-producer count.
    #[inline]
    pub fn set_deps_remaining(&mut self, seq: u64, deps: u32) {
        let s = self.slot(seq);
        self.deps_remaining[s] = deps;
    }

    /// Decrements the outstanding-producer count (which must be
    /// non-zero), returning the new value.
    #[inline]
    pub fn dec_deps(&mut self, seq: u64) -> u32 {
        let s = self.slot(seq);
        self.deps_remaining[s] -= 1;
        self.deps_remaining[s]
    }

    /// Completion cycle, once known.
    #[inline]
    #[must_use]
    pub fn complete_at(&self, seq: u64) -> Option<u64> {
        let at = self.complete_at[self.slot(seq)];
        (at != NO_CYCLE).then_some(at)
    }

    /// `true` if the entry is scheduled to complete exactly at `cycle`.
    #[inline]
    #[must_use]
    pub fn completes_at(&self, seq: u64, cycle: u64) -> bool {
        self.complete_at[self.slot(seq)] == cycle
    }

    /// Schedules the completion cycle.
    #[inline]
    pub fn set_complete_at(&mut self, seq: u64, at: u64) {
        let s = self.slot(seq);
        self.complete_at[s] = at;
    }

    /// Clears the completion cycle (rewind).
    #[inline]
    pub fn clear_complete_at(&mut self, seq: u64) {
        let s = self.slot(seq);
        self.complete_at[s] = NO_CYCLE;
    }

    /// Cycle the entry last became ready.
    #[inline]
    #[must_use]
    pub fn ready_at(&self, seq: u64) -> u64 {
        self.ready_at[self.slot(seq)]
    }

    /// Records the ready transition cycle.
    #[inline]
    pub fn set_ready_at(&mut self, seq: u64, cycle: u64) {
        let s = self.slot(seq);
        self.ready_at[s] = cycle;
    }

    /// Earliest cycle the IRB lookup result is available.
    #[inline]
    #[must_use]
    pub fn lookup_done_at(&self, seq: u64) -> u64 {
        self.lookup_done_at[self.slot(seq)]
    }

    /// Sets the lookup-availability cycle.
    #[inline]
    pub fn set_lookup_done_at(&mut self, seq: u64, cycle: u64) {
        let s = self.slot(seq);
        self.lookup_done_at[s] = cycle;
    }

    /// Comparator word this copy produced, if any.
    #[inline]
    #[must_use]
    pub fn out_bits(&self, seq: u64) -> Option<u64> {
        let s = self.slot(seq);
        (self.flags[s] & flag::HAS_OUT != 0).then(|| self.out_bits[s])
    }

    /// Sets (or clears, with `None`) the produced comparator word.
    #[inline]
    pub fn set_out_bits(&mut self, seq: u64, out: Option<u64>) {
        let s = self.slot(seq);
        self.out_bits[s] = out.unwrap_or(0);
        self.flags[s] =
            (self.flags[s] & !flag::HAS_OUT) | (u16::from(out.is_some()) * flag::HAS_OUT);
    }

    /// Accumulated operand-corruption mask.
    #[inline]
    #[must_use]
    pub fn input_corrupt(&self, seq: u64) -> u64 {
        self.input_corrupt[self.slot(seq)]
    }

    /// XORs a forwarding-bus strike into the operand-corruption mask.
    #[inline]
    pub fn xor_input_corrupt(&mut self, seq: u64, mask: u64) {
        let s = self.slot(seq);
        self.input_corrupt[s] ^= mask;
    }

    /// Clears the operand-corruption mask (rewind).
    #[inline]
    pub fn clear_input_corrupt(&mut self, seq: u64) {
        let s = self.slot(seq);
        self.input_corrupt[s] = 0;
    }

    /// `true` once a fault was injected anywhere on this copy's path.
    #[inline]
    #[must_use]
    pub fn fault_tainted(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::FAULT_TAINTED != 0
    }

    /// Sets or clears the fault taint.
    #[inline]
    pub fn set_fault_tainted(&mut self, seq: u64, tainted: bool) {
        let s = self.slot(seq);
        self.flags[s] =
            (self.flags[s] & !flag::FAULT_TAINTED) | (u16::from(tainted) * flag::FAULT_TAINTED);
    }

    /// `true` once the entry has consumed a functional unit.
    #[inline]
    #[must_use]
    pub fn executed_on_fu(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::EXECUTED_ON_FU != 0
    }

    /// Sets or clears the executed-on-FU mark.
    #[inline]
    pub fn set_executed_on_fu(&mut self, seq: u64, executed: bool) {
        let s = self.slot(seq);
        self.flags[s] =
            (self.flags[s] & !flag::EXECUTED_ON_FU) | (u16::from(executed) * flag::EXECUTED_ON_FU);
    }

    /// `true` once mispredict resolution was reported for this entry.
    #[inline]
    #[must_use]
    pub fn resolution_reported(&self, seq: u64) -> bool {
        self.flags[self.slot(seq)] & flag::RESOLUTION_REPORTED != 0
    }

    /// Marks mispredict resolution as reported.
    #[inline]
    pub fn set_resolution_reported(&mut self, seq: u64) {
        let s = self.slot(seq);
        self.flags[s] |= flag::RESOLUTION_REPORTED;
    }

    /// IRB interaction discriminant (one-byte probe for the issue
    /// loop's eligibility and the stall classifier).
    #[inline]
    #[must_use]
    pub fn reuse_tag(&self, seq: u64) -> ReuseTag {
        self.reuse[self.slot(seq)]
    }

    /// The buffered execution of a PC-hit entry.
    ///
    /// Valid only while [`Ruu::reuse_tag`] is [`ReuseTag::Hit`].
    #[inline]
    #[must_use]
    pub fn reuse_hit(&self, seq: u64) -> IrbEntry {
        let s = self.slot(seq);
        debug_assert_eq!(self.reuse[s], ReuseTag::Hit);
        self.hit[s]
    }

    /// Stores the full IRB interaction, splitting tag and payload.
    #[inline]
    pub fn set_reuse(&mut self, seq: u64, reuse: ReuseState) {
        let s = self.slot(seq);
        self.reuse[s] = match reuse {
            ReuseState::NotEligible => ReuseTag::NotEligible,
            ReuseState::PcMiss => ReuseTag::PcMiss,
            ReuseState::PortStarved => ReuseTag::PortStarved,
            ReuseState::Hit(entry) => {
                self.hit[s] = entry;
                ReuseTag::Hit
            }
            ReuseState::Passed => ReuseTag::Passed,
            ReuseState::Failed => ReuseTag::Failed,
        };
    }

    /// Registers `consumer` with a live producer for wakeup on its
    /// broadcast. `spare` supplies a recycled vector so a producer's
    /// first consumer never allocates in steady state; it is consumed
    /// only when used. Returns `true` if the edge was recorded (the
    /// producer is live and not yet done).
    #[inline]
    pub fn push_consumer(
        &mut self,
        producer: u64,
        consumer: u64,
        spare: &mut Option<Vec<u64>>,
    ) -> bool {
        if !self.contains(producer) {
            return false;
        }
        let s = (producer & self.mask) as usize;
        if self.state[s] == EntryState::Done {
            return false;
        }
        if self.consumers[s].capacity() == 0 {
            if let Some(v) = spare.take() {
                self.consumers[s] = v;
            }
        }
        self.consumers[s].push(consumer);
        true
    }

    /// Takes the consumer list for broadcast (leaves an empty one).
    #[inline]
    #[must_use]
    pub fn take_consumers(&mut self, seq: u64) -> Vec<u64> {
        let s = self.slot(seq);
        std::mem::take(&mut self.consumers[s])
    }

    /// `true` when no consumers are registered.
    #[inline]
    #[must_use]
    pub fn consumers_is_empty(&self, seq: u64) -> bool {
        self.consumers[self.slot(seq)].is_empty()
    }

    /// Appends a fault id to the copy's ledger.
    #[inline]
    pub fn push_fault_id(&mut self, seq: u64, id: u32) {
        let s = self.slot(seq);
        self.fault_ids[s].push(id);
    }

    /// `true` when no faults ride on the copy.
    #[inline]
    #[must_use]
    pub fn fault_ids_is_empty(&self, seq: u64) -> bool {
        self.fault_ids[self.slot(seq)].is_empty()
    }

    /// Takes the copy's fault ledger for terminal resolution.
    #[inline]
    #[must_use]
    pub fn take_fault_ids(&mut self, seq: u64) -> Vec<u32> {
        let s = self.slot(seq);
        std::mem::take(&mut self.fault_ids[s])
    }

    /// The clean (fault-free) architectural check value of a copy.
    #[must_use]
    pub fn clean_check_bits(&self, seq: u64) -> Option<u64> {
        checked_bits(self.di(seq))
    }

    // ---- window scans ----------------------------------------------

    /// Consecutive [`EntryState::Done`] entries from the head, capped
    /// at `max`: the commit stage's retirement window, computed with
    /// word-parallel trailing-ones over the done-bit words instead of
    /// an early-exit per-entry walk.
    #[must_use]
    pub fn done_run_from_head(&self, max: usize) -> usize {
        let limit = max.min(self.len);
        let mut run = 0usize;
        let mut slot = (self.base & self.mask) as usize;
        while run < limit {
            let bit = slot & 63;
            // Bits of this word at and above `bit`, complemented and
            // masked to the word (the shift pulls in zeros that belong
            // to the next word): a set bit marks a not-done entry.
            let not_done = !(self.done_words[slot >> 6] >> bit) & (!0 >> bit);
            if not_done == 0 {
                let span = 64 - bit;
                run += span;
                slot = (slot + span) & (self.cap - 1);
            } else {
                run += not_done.trailing_zeros() as usize;
                break;
            }
        }
        run.min(limit)
    }

    /// The live seqs in `state`, oldest first: the full-window scan the
    /// debug-build scheduler oracle checks the ready bitsets and the
    /// completion calendar against.
    #[cfg(debug_assertions)]
    pub fn scan(&self, state: EntryState) -> impl Iterator<Item = u64> + Clone + '_ {
        (self.base..self.base + self.len as u64)
            .filter(move |&s| self.state[(s & self.mask) as usize] == state)
    }

    /// Live entries currently [`EntryState::Ready`] (metrics snapshot).
    #[must_use]
    pub fn ready_count(&self) -> u64 {
        let mut n = 0;
        for i in 0..self.len as u64 {
            let seq = self.base + i;
            n += u64::from(self.state[(seq & self.mask) as usize] == EntryState::Ready);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_isa::trace::ControlOutcome;
    use redsim_isa::Inst;

    fn di(seq: u64) -> DynInst {
        DynInst {
            seq,
            pc: 0x1000 + seq * 8,
            inst: Inst::NOP,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
            next_pc: 0x1008 + seq * 8,
        }
    }

    #[test]
    fn soa_lane_footprint_is_locked() {
        // The scheduling loops are packed around these widths; growing
        // a lane element de-packs them (more cache lines per window
        // walk) without failing any behavioral test. Each entry below
        // names the lane it sizes.
        assert_eq!(std::mem::size_of::<EntryState>(), 1, "state lane");
        assert_eq!(std::mem::size_of::<u16>(), 2, "flags lane");
        assert_eq!(std::mem::size_of::<OpClass>(), 1, "class lane");
        assert_eq!(std::mem::size_of::<u32>(), 4, "deps_remaining lane");
        assert_eq!(std::mem::size_of::<ReuseTag>(), 1, "reuse lane");
        assert_eq!(std::mem::size_of::<IrbEntry>(), 32, "hit lane");
        // The five u64 timing/comparator lanes plus the scalar lanes
        // above: the whole hot record, excluding the cold `di` lane and
        // the rarely-touched consumer/fault vectors.
        let hot = std::mem::size_of::<EntryState>()
            + std::mem::size_of::<u16>()
            + std::mem::size_of::<OpClass>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<ReuseTag>()
            + std::mem::size_of::<IrbEntry>()
            + 5 * std::mem::size_of::<u64>();
        assert_eq!(hot, 81, "hot SoA bytes per slot");
    }

    #[test]
    fn seq_addressing_survives_pops() {
        let mut r = Ruu::new(4);
        let s0 = r.push(di(0), Stream::Primary);
        let s1 = r.push(di(1), Stream::Primary);
        assert_eq!((s0, s1), (0, 1));
        r.set_state(s0, EntryState::Done);
        r.pop();
        assert!(!r.contains(s0), "committed entries are gone");
        assert_eq!(r.di(s1).seq, 1);
        let s2 = r.push(di(2), Stream::Primary);
        assert_eq!(s2, 2);
        assert_eq!(r.head_seq(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut r = Ruu::new(2);
        r.push(di(0), Stream::Primary);
        assert_eq!(r.free(), 1);
        r.push(di(1), Stream::Dup);
        assert_eq!(r.free(), 0);
        assert!(r.is_dup(1));
        assert!(!r.is_dup(0));
    }

    #[test]
    #[should_panic(expected = "RUU overflow")]
    fn overflow_panics() {
        let mut r = Ruu::new(1);
        r.push(di(0), Stream::Primary);
        r.push(di(1), Stream::Primary);
    }

    #[test]
    fn checked_bits_covers_each_instruction_kind() {
        use redsim_isa::{IntReg, Opcode};
        let mut d = di(0);
        assert_eq!(checked_bits(&d), None, "nop checks nothing");
        d.control = Some(ControlOutcome {
            taken: true,
            target: 0x2000,
        });
        assert_eq!(checked_bits(&d), Some(0x2000 | 1 << 63));
        d.control = None;
        d.result = Some(42);
        assert_eq!(checked_bits(&d), Some(42), "alu checks the result");

        // Control outcome takes precedence over a link-register result
        // (jal is checked on its encoded outcome, like the pipeline).
        d.control = Some(ControlOutcome {
            taken: true,
            target: 0x40,
        });
        assert_eq!(checked_bits(&d), Some(0x40 | 1 << 63));

        // A load is checked on its redundantly computed address, not on
        // the singly-fetched data value.
        let mut ld = di(1);
        ld.inst = Inst::load_int(Opcode::Ld, IntReg::new(1), IntReg::new(2), 0);
        ld.ea = Some(0x3000);
        ld.result = Some(777);
        assert_eq!(checked_bits(&ld), Some(0x3000));

        // A store folds address and data.
        let mut st = di(2);
        st.inst = Inst::store_int(Opcode::Sd, IntReg::new(1), IntReg::new(2), 0);
        st.ea = Some(0x3000);
        st.src2 = 5;
        assert_eq!(checked_bits(&st), Some(0x3000 ^ 5u64.rotate_left(32)));
    }

    #[test]
    fn lanes_round_trip_through_accessors() {
        let mut r = Ruu::new(4);
        let s = r.push(di(0), Stream::Dup);
        assert_eq!(r.state(s), EntryState::Waiting);
        assert_eq!(r.complete_at(s), None);
        assert_eq!(r.out_bits(s), None);
        assert_eq!(r.reuse_tag(s), ReuseTag::NotEligible);

        r.set_state(s, EntryState::Ready);
        r.set_ready_at(s, 7);
        r.set_complete_at(s, 12);
        r.set_out_bits(s, Some(0xDEAD));
        r.set_fault_tainted(s, true);
        r.set_executed_on_fu(s, true);
        r.xor_input_corrupt(s, 0b101);
        let hit = IrbEntry {
            pc: 0x1000,
            op1: 1,
            op2: 2,
            result: 3,
        };
        r.set_reuse(s, ReuseState::Hit(hit));

        assert_eq!(r.state(s), EntryState::Ready);
        assert_eq!(r.ready_at(s), 7);
        assert_eq!(r.complete_at(s), Some(12));
        assert!(r.completes_at(s, 12));
        assert_eq!(r.out_bits(s), Some(0xDEAD));
        assert!(r.fault_tainted(s));
        assert!(r.executed_on_fu(s));
        assert_eq!(r.input_corrupt(s), 0b101);
        assert_eq!(r.reuse_tag(s), ReuseTag::Hit);
        assert_eq!(r.reuse_hit(s), hit);

        // Clearing paths (the rewind sequence).
        r.clear_complete_at(s);
        r.set_out_bits(s, None);
        r.set_fault_tainted(s, false);
        r.clear_input_corrupt(s);
        r.set_reuse(s, ReuseState::NotEligible);
        assert_eq!(r.complete_at(s), None);
        assert_eq!(r.out_bits(s), None);
        assert!(!r.fault_tainted(s));
        assert_eq!(r.input_corrupt(s), 0);
        assert_eq!(r.reuse_tag(s), ReuseTag::NotEligible);
    }

    #[test]
    fn out_bits_zero_is_distinct_from_none() {
        let mut r = Ruu::new(2);
        let s = r.push(di(0), Stream::Primary);
        assert_eq!(r.out_bits(s), None);
        r.set_out_bits(s, Some(0));
        assert_eq!(r.out_bits(s), Some(0), "a produced zero is a value");
    }

    #[test]
    fn done_run_counts_the_retirement_window() {
        let mut r = Ruu::new(8);
        for i in 0..6 {
            r.push(di(i), Stream::Primary);
        }
        assert_eq!(r.done_run_from_head(8), 0);
        for s in [0u64, 1, 2, 4] {
            r.set_state(s, EntryState::Done);
        }
        assert_eq!(r.done_run_from_head(8), 3, "stops at the first hole");
        assert_eq!(r.done_run_from_head(2), 2, "capped by the budget");
        r.set_state(3, EntryState::Done);
        assert_eq!(r.done_run_from_head(8), 5);
        // A state change away from Done clears the bit.
        r.set_state(1, EntryState::Ready);
        assert_eq!(r.done_run_from_head(8), 1);
    }

    #[test]
    fn done_run_crosses_word_and_ring_boundaries() {
        // Walk the ring so the live window wraps: the word-parallel
        // count must follow ring order, not raw slot order.
        let cap = 64; // Ruu::new rounds up to at least 64 slots
        let mut r = Ruu::new(cap);
        // Advance base to cap - 8, leaving the ring empty.
        for i in 0..cap as u64 - 8 {
            r.push(di(i), Stream::Primary);
            r.set_state(i, EntryState::Done);
            r.pop();
        }
        // Live window now spans the wrap point.
        for i in 0..16u64 {
            let seq = r.push(di(cap as u64 - 8 + i), Stream::Primary);
            r.set_state(seq, EntryState::Done);
        }
        assert_eq!(r.done_run_from_head(64), 16);
        let hole = r.head_seq() + 9; // just past the wrap
        r.set_state(hole, EntryState::Waiting);
        assert_eq!(r.done_run_from_head(64), 9);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn scan_collectors_walk_oldest_first() {
        let mut r = Ruu::new(8);
        for i in 0..5 {
            r.push(di(i), Stream::Primary);
        }
        r.set_state(1, EntryState::Ready);
        r.set_state(3, EntryState::Ready);
        r.set_state(2, EntryState::Issued);
        r.set_complete_at(2, 9);
        r.set_state(4, EntryState::Issued);
        r.set_complete_at(4, 10);
        assert!(r.scan(EntryState::Ready).eq([1, 3]));
        assert_eq!(r.ready_count(), 2);
        assert!(r.scan(EntryState::Issued).eq([2, 4]));
    }

    #[test]
    fn consumer_pooling_hands_out_spares() {
        let mut r = Ruu::new(4);
        let p = r.push(di(0), Stream::Primary);
        let c = r.push(di(1), Stream::Primary);
        let mut spare = Some(Vec::with_capacity(8));
        assert!(r.push_consumer(p, c, &mut spare));
        assert!(spare.is_none(), "first consumer takes the spare");
        let taken = r.take_consumers(p);
        assert_eq!(taken, [c]);
        assert!(taken.capacity() >= 8, "recycled storage");
        assert!(r.consumers_is_empty(p));
        // A done producer rejects new edges.
        r.set_state(p, EntryState::Done);
        let mut none = None;
        assert!(!r.push_consumer(p, c, &mut none));
        // A dead producer rejects new edges.
        assert!(!r.push_consumer(99, c, &mut none));
    }
}

#[cfg(test)]
mod generative {
    //! Seeded generative tests: inputs drawn from a fixed-seed
    //! [`redsim_util::Rng`], so failures replay exactly.

    use super::*;
    use redsim_isa::Inst;
    use redsim_util::Rng;

    fn di(seq: u64) -> DynInst {
        DynInst {
            seq,
            pc: 0x1000 + seq * 8,
            inst: Inst::NOP,
            src1: 0,
            src2: 0,
            result: None,
            ea: None,
            control: None,
            next_pc: 0x1008 + seq * 8,
        }
    }

    /// Any interleaving of pushes and pops keeps absolute-sequence
    /// addressing consistent: `contains(seq)` answers for exactly the
    /// live window, and lane reads return what the seq-th push wrote.
    #[test]
    fn seq_addressing_is_stable() {
        let mut rng = Rng::new(0x2100_0001);
        for _ in 0..64 {
            let nops = rng.range_u64(1, 200);
            let mut r = Ruu::new(16);
            let mut pushed: u64 = 0;
            let mut popped: u64 = 0;
            for _ in 0..nops {
                let push = rng.flip();
                if push && r.free() > 0 {
                    let seq = r.push(di(pushed), Stream::Primary);
                    assert_eq!(seq, pushed);
                    pushed += 1;
                } else if !push && !r.is_empty() {
                    assert_eq!(r.di(popped).seq, popped);
                    r.pop();
                    popped += 1;
                }
                assert_eq!(r.head_seq(), popped);
                assert_eq!(r.next_seq(), pushed);
                assert_eq!(r.len() as u64, pushed - popped);
                // Every live seq resolves, every dead one does not.
                if pushed > popped {
                    assert!(r.contains(popped));
                }
                if popped > 0 {
                    assert!(!r.contains(popped - 1));
                }
                assert!(!r.contains(pushed));
            }
        }
    }

    /// The word-parallel done-run always equals the naive per-entry
    /// walk, across random fills, holes, pops, and ring wrap.
    #[test]
    fn done_run_matches_naive_walk() {
        let mut rng = Rng::new(0x2100_0002);
        for _ in 0..128 {
            let mut r = Ruu::new(16); // 64-slot ring exercises wrap
            let mut next = 0u64;
            for _ in 0..rng.range_u64(1, 300) {
                match rng.index(3) {
                    0 if r.free() > 0 => {
                        let s = r.push(di(next), Stream::Primary);
                        if rng.flip() {
                            r.set_state(s, EntryState::Done);
                        }
                        next += 1;
                    }
                    // Pops model commit: only done heads retire.
                    1 if !r.is_empty() && r.is_done(r.head_seq()) => {
                        r.pop();
                    }
                    2 if !r.is_empty() => {
                        let seq = r.head_seq() + rng.below(r.len() as u64);
                        let s = *rng.pick(&[
                            EntryState::Waiting,
                            EntryState::Ready,
                            EntryState::Issued,
                            EntryState::Done,
                        ]);
                        r.set_state(seq, s);
                    }
                    _ => {}
                }
                let max = rng.index(20);
                let naive = (0..r.len() as u64)
                    .take_while(|&i| r.state(r.head_seq() + i) == EntryState::Done)
                    .count()
                    .min(max);
                assert_eq!(r.done_run_from_head(max), naive);
            }
        }
    }
}
