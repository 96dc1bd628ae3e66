//! The durable job journal: a [`framed_log`] under the header
//! `{"kind":"serve-journal","version":1}`, one file per state directory.
//! A `job` record is an *acknowledged* submission, a `done` record its
//! result. A torn last line (a job never acknowledged, or a result that
//! re-runs) is skipped on [`load`]; damage before it is a typed
//! [`ServeError::Corrupt`].
//!
//! Result payloads are integers, bools and strings only — no floats, no
//! wall-clock — so `parse → to_string` is byte-exact and a [`compact`]ed
//! journal is a deterministic function of the state it encodes.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use redsim_util::framed_log::{self, LogError};
use redsim_util::io::Io;
use redsim_util::Json;

use crate::spec::JobSpec;
use crate::ServeError;

/// The journal's appender. Its first failed append latches, and the
/// engine then stops accepting work.
pub use redsim_util::framed_log::Appender as JournalSink;

/// Journal format version; a mismatch is a typed refusal, never a
/// half-parse.
pub const JOURNAL_VERSION: u64 = 1;

/// The journal's first line.
#[must_use]
pub fn header_line() -> String {
    Json::obj()
        .field("kind", "serve-journal")
        .field("version", JOURNAL_VERSION)
        .to_string()
}

/// The (unframed) payload of a job record.
#[must_use]
pub fn job_record(id: u64, spec: &JobSpec) -> String {
    format!(
        "{{\"kind\":\"job\",\"id\":{id},\"spec\":{}}}",
        spec.canonical()
    )
}

/// The (unframed) payload of a done record. `res` must be the
/// result's canonical JSON object.
#[must_use]
pub fn done_record(id: u64, res: &str) -> String {
    format!("{{\"kind\":\"done\",\"id\":{id},\"res\":{res}}}")
}

/// Everything a journal encodes: acknowledged jobs, their results,
/// and the next id to assign.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Acknowledged submissions, by id.
    pub specs: BTreeMap<u64, JobSpec>,
    /// Completed results (canonical JSON objects), by id.
    pub results: BTreeMap<u64, String>,
    /// The next job id to assign.
    pub next_id: u64,
}

impl JournalState {
    /// The compacted record order: job records in id order, then done
    /// records in id order — a pure function of the state, so two
    /// drained servers with the same history compact to identical bytes
    /// regardless of worker count or append interleaving.
    fn payloads(&self) -> impl Iterator<Item = String> + '_ {
        let jobs = self.specs.iter().map(|(&id, spec)| job_record(id, spec));
        let dones = self.results.iter().map(|(&id, res)| done_record(id, res));
        jobs.chain(dones)
    }
}

/// Rewrites the journal at `path` as the compacted rendering of
/// `state` (header, then [`JournalState`]'s record order), atomically.
///
/// # Errors
///
/// Any `io::Error` from the atomic rewrite; the old journal is then
/// untouched.
pub fn compact(io: &dyn Io, path: &Path, state: &JournalState, sync: bool) -> io::Result<()> {
    framed_log::rewrite(io, path, &header_line(), state.payloads(), sync)
}

/// Loads a journal, tolerating a torn tail and refusing interior
/// damage. A missing file is an empty state. A result without its job
/// record cannot occur under the append discipline (the job record is
/// acknowledged first), so it is reported as corruption, as is a job
/// id of `u64::MAX`, which the engine never assigns.
///
/// # Errors
///
/// [`ServeError::Mismatch`] on a foreign header,
/// [`ServeError::Corrupt`] on interior damage, [`ServeError::Io`] when
/// the file exists but cannot be read.
pub fn load(io: &dyn Io, path: &Path) -> Result<JournalState, ServeError> {
    let mut state = JournalState::default();
    framed_log::read(io, path, &header_line(), |payload| {
        parse_record(payload, &mut state)
    })
    .map_err(|e| match e {
        LogError::Io(e) => ServeError::Io(e),
        LogError::ForeignHeader(h) => ServeError::Mismatch(format!(
            "header {h:?} is not a v{JOURNAL_VERSION} serve journal"
        )),
        LogError::Corrupt { line, detail } => ServeError::Corrupt { line, detail },
    })?;
    state.next_id = state.specs.keys().next_back().map_or(0, |&id| id + 1);
    Ok(state)
}

/// Folds one record payload into the state, or returns the defect
/// (leaving the state untouched).
fn parse_record(payload: &str, state: &mut JournalState) -> Result<(), String> {
    let j = Json::parse(payload).map_err(|e| format!("payload is not valid JSON: {e}"))?;
    let id = |j: &Json| -> Result<u64, String> {
        j.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "record has no id".to_owned())
    };
    match j.get("kind").and_then(Json::as_str) {
        Some("job") => {
            let id = id(&j)?;
            // The engine assigns ids upward from 0 and never this one:
            // the id after it would wrap to 0 and reuse an acknowledged
            // job's id.
            if id == u64::MAX {
                return Err(format!("job id {id} is out of range"));
            }
            let spec = j.get("spec").ok_or("job record has no spec")?;
            let spec = JobSpec::parse(spec).map_err(|e| e.to_string())?;
            state.specs.insert(id, spec);
            Ok(())
        }
        Some("done") => {
            let id = id(&j)?;
            if !state.specs.contains_key(&id) {
                return Err(format!("result for unknown job id {id}"));
            }
            let res = j.get("res").ok_or("done record has no res")?;
            // Result payloads are integer/bool/string only, so this
            // re-rendering is byte-exact.
            state.results.insert(id, res.to_string());
            Ok(())
        }
        // A checksummed record of an unknown kind is a format
        // extension written by a newer build, not damage.
        Some(_) => Ok(()),
        None => Err("record has no kind".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_core::ExecMode;
    use redsim_util::io::RealIo;
    use redsim_workloads::Workload;
    use std::path::PathBuf;

    /// The compacted journal text of `state`, as [`compact`] writes it.
    fn render(state: &JournalState) -> String {
        framed_log::render(&header_line(), state.payloads())
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("redsim-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("test dir");
        d.join("jobs.progress.jsonl")
    }

    fn sample_state() -> JournalState {
        let mut state = JournalState::default();
        state
            .specs
            .insert(0, JobSpec::new(Workload::Gzip, ExecMode::Sie));
        state
            .specs
            .insert(1, JobSpec::new(Workload::Mcf, ExecMode::DieIrb));
        state.results.insert(
            0,
            r#"{"ok":true,"fp":"00000000000000aa","cycles":10}"#.to_owned(),
        );
        state.next_id = 2;
        state
    }

    #[test]
    fn render_load_round_trip_is_byte_exact() {
        let path = tmp("roundtrip");
        let text = render(&sample_state());
        std::fs::write(&path, &text).expect("write");
        let loaded = load(&RealIo, &path).expect("load");
        assert_eq!(loaded.next_id, 2);
        assert_eq!(render(&loaded), text);
    }

    #[test]
    fn torn_tail_is_tolerated_interior_damage_is_typed() {
        let path = tmp("torn");
        let text = render(&sample_state());
        // Tear the final line mid-frame.
        std::fs::write(&path, &text[..text.len() - 10]).expect("write");
        let loaded = load(&RealIo, &path).expect("torn tail tolerated");
        assert_eq!(loaded.specs.len(), 2);
        assert!(loaded.results.is_empty(), "the torn result re-runs");

        // The same damage on an interior line refuses with the line.
        let lines: Vec<&str> = text.lines().collect();
        let damaged = format!("{}\n{}\n{}\n", lines[0], &lines[1][..20], lines[2]);
        match load(&RealIo, &{
            std::fs::write(&path, damaged).expect("write");
            path.clone()
        }) {
            Err(ServeError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_job_id_of_u64_max_is_damage() {
        let path = tmp("max-id");
        let max = framed_log::frame(&job_record(
            u64::MAX,
            &JobSpec::new(Workload::Mcf, ExecMode::Sie),
        ));
        let zero = framed_log::frame(&job_record(0, &JobSpec::new(Workload::Gcc, ExecMode::Sie)));
        let header = header_line();

        // Interior: refused with the line, never a wrapped next id.
        std::fs::write(&path, format!("{header}\n{max}\n{zero}\n")).expect("write");
        match load(&RealIo, &path) {
            Err(ServeError::Corrupt { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("out of range"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Last line: skipped like a torn one, so ids continue after 0.
        std::fs::write(&path, format!("{header}\n{zero}\n{max}\n")).expect("write");
        let loaded = load(&RealIo, &path).expect("a bad tail is skipped");
        assert_eq!(loaded.specs.keys().copied().collect::<Vec<_>>(), [0]);
        assert_eq!(loaded.next_id, 1);
    }

    #[test]
    fn foreign_headers_are_refused_and_missing_files_are_empty() {
        let path = tmp("header");
        assert!(load(&RealIo, &path).expect("missing file").specs.is_empty());
        std::fs::write(&path, "{\"kind\":\"header\",\"version\":2}\n").expect("write");
        assert!(matches!(load(&RealIo, &path), Err(ServeError::Mismatch(_))));
    }

    #[test]
    fn sink_latches_its_first_error() {
        use redsim_util::io::{ChaosConfig, ChaosIo};
        use std::sync::Arc;
        let path = tmp("latch");
        std::fs::write(&path, format!("{}\n", header_line())).expect("seed");
        let io = ChaosIo::new(
            Arc::new(RealIo),
            ChaosConfig {
                kill_after_ops: Some(2), // open + first write survive
                ..ChaosConfig::quiet(0)
            },
        );
        let sink = JournalSink::open(&io, &path, false).expect("open");
        assert!(
            sink.append(r#"{"kind":"job","id":0}"#),
            "first append lands"
        );
        assert!(
            !sink.append(r#"{"kind":"job","id":1}"#),
            "killed append fails"
        );
        assert!(sink.error().is_some());
        assert!(
            !sink.append(r#"{"kind":"job","id":2}"#),
            "the sink stays latched"
        );
    }
}
