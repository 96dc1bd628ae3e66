//! Committed-path instruction sources for the timing models.

use redsim_isa::emu::Emulator;
use redsim_isa::trace::{DynInst, Trace};
use redsim_isa::{EmuError, Program};

/// A stream of committed dynamic instructions.
///
/// The timing models are trace-driven: they pull the committed path from
/// a source and decide *when* each instruction moves through the
/// machine. [`EmulatorSource`] runs the functional emulator lazily;
/// [`TraceSource`] replays a [`Trace`] recipe (running many machine
/// configurations over the identical instruction stream), and
/// [`SliceSource`] a slice of decoded records, such as an `.rtrc` file's.
pub trait InstructionSource {
    /// The next committed instruction, or `None` at end of program.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution faults (bad memory access,
    /// runaway program exceeding its budget).
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError>;
}

/// Drives the functional emulator on demand.
#[derive(Debug)]
pub struct EmulatorSource {
    emu: Emulator,
    budget: u64,
    drawn: u64,
}

impl EmulatorSource {
    /// Creates a source executing `program` with an instruction budget
    /// (a runaway-loop backstop).
    #[must_use]
    pub fn new(program: &Program, budget: u64) -> Self {
        EmulatorSource {
            emu: Emulator::new(program),
            budget,
            drawn: 0,
        }
    }

    /// The wrapped emulator (e.g. to read program output afterwards).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }
}

impl InstructionSource for EmulatorSource {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        if self.emu.halted() {
            return Ok(None);
        }
        if self.drawn >= self.budget {
            return Err(EmuError::BudgetExhausted {
                executed: self.drawn,
            });
        }
        self.drawn += 1;
        self.emu.step()
    }
}

/// Replays a borrowed slice of decoded records without copying it.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    trace: &'a [DynInst],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Creates a source replaying `trace` in order.
    #[must_use]
    pub fn new(trace: &'a [DynInst]) -> Self {
        SliceSource { trace, pos: 0 }
    }

    /// Number of instructions remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.pos
    }
}

impl InstructionSource for SliceSource<'_> {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        let item = self.trace.get(self.pos).copied();
        if item.is_some() {
            self.pos += 1;
        }
        Ok(item)
    }
}

/// Replays a [`Trace`] recipe: drives a fresh emulator over the
/// trace's program, as [`EmulatorSource`] does, and fails with
/// [`EmuError::TraceLength`] unless exactly `trace.len()` instructions
/// commit before `halt`.
///
/// The emulator is deterministic, so every replay of one trace yields
/// the same records; a sweep runs many machine configurations over one
/// shared `Arc<Trace>`, each with its own source.
#[derive(Debug, Clone)]
pub struct TraceSource {
    emu: Emulator,
    len: u64,
}

impl TraceSource {
    /// Creates a source replaying `trace` from its first instruction.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        TraceSource {
            emu: Emulator::new(trace.program()),
            len: trace.len() as u64,
        }
    }

    /// Number of instructions remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.len.saturating_sub(self.emu.committed()) as usize
    }
}

impl InstructionSource for TraceSource {
    fn next_inst(&mut self) -> Result<Option<DynInst>, EmuError> {
        let done = self.emu.committed();
        if done == self.len {
            return if self.emu.halted() {
                Ok(None)
            } else {
                Err(EmuError::TraceLength {
                    declared: self.len,
                    halted_at: None,
                })
            };
        }
        match self.emu.step()? {
            Some(d) => Ok(Some(d)),
            None => Err(EmuError::TraceLength {
                declared: self.len,
                halted_at: Some(done),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_isa::asm::assemble;

    #[test]
    fn emulator_source_streams_until_halt() {
        let p = assemble("main: li a0, 1\n li a1, 2\n halt\n").unwrap();
        let mut s = EmulatorSource::new(&p, 100);
        let mut n = 0;
        while let Some(d) = s.next_inst().unwrap() {
            assert_eq!(d.seq, n);
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(s.next_inst().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn emulator_source_enforces_budget() {
        let p = assemble("spin: j spin\n").unwrap();
        let mut s = EmulatorSource::new(&p, 10);
        for _ in 0..10 {
            assert!(s.next_inst().unwrap().is_some());
        }
        assert!(s.next_inst().is_err());
    }

    #[test]
    fn trace_source_replays_in_order() {
        let p = assemble("main: li a0, 1\n add a1, a0, a0\n halt\n").unwrap();
        let trace = Trace::record(p.clone(), 100).unwrap();
        let mut s = TraceSource::new(&trace);
        assert_eq!(s.remaining(), 3);
        for want in Emulator::new(&p).run_trace(100).unwrap() {
            assert_eq!(s.next_inst().unwrap(), Some(want));
        }
        assert!(s.next_inst().unwrap().is_none());
        assert!(s.next_inst().unwrap().is_none(), "stays exhausted");
        assert_eq!(s.remaining(), 0);
    }

    fn drain(s: &mut dyn InstructionSource) -> Vec<DynInst> {
        let mut out = Vec::new();
        while let Some(d) = s.next_inst().unwrap() {
            out.push(d);
        }
        out
    }

    #[test]
    fn trace_and_slice_sources_stream_what_the_emulator_ran() {
        let p = assemble("main: li a0, 5\nloop: addi a0, a0, -1\n bnez a0, loop\n halt\n").unwrap();
        let want = Emulator::new(&p).run_trace(100).unwrap();
        let trace = Trace::record(p.clone(), 100).unwrap();
        assert_eq!(drain(&mut TraceSource::new(&trace)), want);
        assert_eq!(drain(&mut SliceSource::new(&want)), want);
        assert_eq!(drain(&mut EmulatorSource::new(&p, 100)), want);
    }

    #[test]
    fn slice_source_tracks_remaining() {
        let p = assemble("main: li a0, 1\n halt\n").unwrap();
        let trace = Emulator::new(&p).run_trace(100).unwrap();
        let mut s = SliceSource::new(&trace);
        assert_eq!(s.remaining(), 2);
        s.next_inst().unwrap();
        assert_eq!(s.remaining(), 1);
        drain(&mut s);
        assert_eq!(s.remaining(), 0);
        assert!(s.next_inst().unwrap().is_none(), "stays exhausted");
    }
}
