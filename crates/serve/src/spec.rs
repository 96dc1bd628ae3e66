//! The canonical job description and its fingerprint.
//!
//! A [`JobSpec`] is everything that determines a job's result:
//! workload, execution mode, sizing, input seed, watchdog and fault
//! schedule. Its [`JobSpec::canonical`] JSON rendering has a fixed
//! field order, so [`JobSpec::fingerprint`] — the fx64 hash of those
//! bytes — is a stable identity. The engine deduplicates submissions
//! on it, which is what makes blind re-submission after a crash
//! idempotent.

use redsim_bench::Job;
use redsim_core::{ExecMode, FaultConfig, MachineConfig};
use redsim_util::hash::fx64;
use redsim_util::Json;
use redsim_workloads::{Params, Workload};

/// Instruction budget handed to the functional emulator when a trace
/// is materialized — the same ceiling the bench harness uses.
pub const DEFAULT_TRACE_BUDGET: u64 = 200_000_000;

/// A complete, deterministic description of one simulation job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload to simulate.
    pub workload: Workload,
    /// The execution mode.
    pub mode: ExecMode,
    /// Tiny (`true`) or default workload sizing.
    pub quick: bool,
    /// Input-seed override for the workload's data, if any.
    pub input_seed: Option<u64>,
    /// Simulated-cycle watchdog ceiling, if any.
    pub watchdog: Option<u64>,
    /// Deterministic fault-injection schedule, if any.
    pub faults: Option<FaultConfig>,
    /// Reuse attribution: when `true` the result payload carries the
    /// opcode-class × PC × loop breakdown. Rendered in the canonical
    /// form only when set, so pre-attribution fingerprints are
    /// unchanged.
    pub attribution: bool,
}

impl JobSpec {
    /// A quick job with no seed override, watchdog or faults.
    #[must_use]
    pub fn new(workload: Workload, mode: ExecMode) -> Self {
        JobSpec {
            workload,
            mode,
            quick: true,
            input_seed: None,
            watchdog: None,
            faults: None,
            attribution: false,
        }
    }

    /// The workload parameters this spec resolves to: tiny or default
    /// sizing, with the input seed applied.
    #[must_use]
    pub fn params(&self) -> Params {
        let mut p = if self.quick {
            self.workload.tiny_params()
        } else {
            self.workload.default_params()
        };
        if let Some(seed) = self.input_seed {
            p.seed = seed;
        }
        p
    }

    /// The canonical JSON rendering: fixed field order, optional
    /// fields omitted when absent. This is both the wire format and
    /// the fingerprint pre-image, so it must never change shape for
    /// an unchanged spec.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut j = Json::obj()
            .field("workload", self.workload.name())
            .field("mode", self.mode.name())
            .field("quick", self.quick);
        if let Some(seed) = self.input_seed {
            j = j.field("seed", seed);
        }
        if let Some(w) = self.watchdog {
            j = j.field("watchdog", w);
        }
        if let Some(fc) = self.faults {
            j = j.field(
                "faults",
                Json::obj()
                    .field("fu", fc.fu_rate)
                    .field("bus", fc.forward_rate)
                    .field("irb", fc.irb_rate)
                    .field("seed", fc.seed),
            );
        }
        if self.attribution {
            j = j.field("attribution", true);
        }
        j.to_string()
    }

    /// The job's identity: the fx64 hash of its canonical rendering.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fx64(self.canonical().as_bytes())
    }

    /// The fingerprint as the 16-hex-digit spelling used in result
    /// payloads.
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Lowers the spec onto the bench harness [`Job`] the supervisor
    /// executes, against the paper-baseline machine.
    #[must_use]
    pub fn to_job(&self) -> Job {
        let cfg = MachineConfig::paper_baseline();
        let mut job = Job::new(self.workload, self.mode, &cfg);
        if let Some(seed) = self.input_seed {
            job = job.with_input_seed(seed);
        }
        if let Some(w) = self.watchdog {
            job = job.with_watchdog(w);
        }
        if let Some(fc) = self.faults {
            job = job.with_faults(fc);
        }
        if self.attribution {
            job = job.with_attribution();
        }
        job
    }

    /// Parses a spec from its JSON object form (the `"spec"` field of
    /// a submit request, or a journaled job record).
    ///
    /// # Errors
    ///
    /// The first defect: missing or unknown workload/mode, or a
    /// malformed optional field.
    pub fn parse(j: &Json) -> Result<JobSpec, SpecError> {
        let name = |key| {
            j.get(key)
                .and_then(Json::as_str)
                .ok_or(SpecError::Missing(key))
        };
        let workload = name("workload")?;
        let workload = Workload::from_name(workload)
            .ok_or_else(|| SpecError::UnknownWorkload(workload.to_owned()))?;
        let mode = name("mode")?;
        let mode =
            ExecMode::from_name(mode).ok_or_else(|| SpecError::UnknownMode(mode.to_owned()))?;
        let quick = optional(j, "quick", BOOL, Json::as_bool)?.unwrap_or(true);
        let input_seed = optional(j, "seed", UNSIGNED, Json::as_u64)?;
        let watchdog = optional(j, "watchdog", UNSIGNED, Json::as_u64)?;
        let faults = match j.get("faults") {
            None => None,
            Some(f) => Some(FaultConfig {
                fu_rate: optional(f, "faults.fu", NUMBER, Json::as_f64)?.unwrap_or(0.0),
                forward_rate: optional(f, "faults.bus", NUMBER, Json::as_f64)?.unwrap_or(0.0),
                irb_rate: optional(f, "faults.irb", NUMBER, Json::as_f64)?.unwrap_or(0.0),
                seed: optional(f, "faults.seed", UNSIGNED, Json::as_u64)?.unwrap_or(0),
            }),
        };
        Ok(JobSpec {
            workload,
            mode,
            quick,
            input_seed,
            watchdog,
            faults,
            attribution: optional(j, "attribution", BOOL, Json::as_bool)?.unwrap_or(false),
        })
    }
}

const BOOL: &str = "a bool";
const NUMBER: &str = "a number";
const UNSIGNED: &str = "an unsigned integer";

/// Reads the optional field `path` (a key of `obj`, the last segment of
/// a dotted path) through `conv`: absent is `None`, present must convert.
fn optional<T>(
    obj: &Json,
    path: &'static str,
    want: &'static str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, SpecError> {
    let key = path.rsplit_once('.').map_or(path, |(_, key)| key);
    let wrong = SpecError::WrongType { field: path, want };
    obj.get(key).map(|v| conv(v).ok_or(wrong)).transpose()
}

/// Why a JSON object is not a [`JobSpec`]. The `Display` text is the
/// error a client gets back for a bad submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A required field is absent.
    Missing(&'static str),
    /// The workload name is not one of the twelve.
    UnknownWorkload(String),
    /// The mode name is not one of [`ExecMode::name`]'s spellings.
    UnknownMode(String),
    /// A field has the wrong JSON type.
    WrongType {
        /// The field, as a dotted path (`faults.seed`).
        field: &'static str,
        /// What it must be ("a bool", "an unsigned integer").
        want: &'static str,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Missing(field) => write!(f, "spec is missing \"{field}\""),
            SpecError::UnknownWorkload(w) => write!(f, "unknown workload {w:?}"),
            SpecError::UnknownMode(m) => write!(f, "unknown mode {m:?}"),
            SpecError::WrongType { field, want } => {
                write!(f, "\"{}\" must be {want}", field.replace('.', "\".\""))
            }
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_round_trips_through_parse() {
        let spec = JobSpec {
            workload: Workload::Gzip,
            mode: ExecMode::DieIrb,
            quick: true,
            input_seed: Some(7),
            watchdog: Some(1_000_000),
            faults: Some(FaultConfig {
                fu_rate: 2e-4,
                forward_rate: 0.0,
                irb_rate: 1e-5,
                seed: 11,
            }),
            attribution: true,
        };
        let text = spec.canonical();
        let parsed = JobSpec::parse(&Json::parse(&text).expect("canonical form is JSON"))
            .expect("canonical form parses");
        assert_eq!(parsed.canonical(), text, "round trip is byte-identical");
        assert_eq!(parsed.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprints_separate_distinct_specs() {
        let a = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        let mut b = a.clone();
        b.mode = ExecMode::Die;
        let mut c = a.clone();
        c.input_seed = Some(1);
        let mut d = a.clone();
        d.quick = false;
        let mut e = a.clone();
        e.attribution = true;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn attribution_off_keeps_pre_attribution_canonical_shape() {
        // The canonical form is the fingerprint pre-image: a spec that
        // never asked for attribution must render exactly as it did
        // before the field existed, or every stored fingerprint would
        // silently change.
        let spec = JobSpec::new(Workload::Gzip, ExecMode::Sie);
        assert!(!spec.canonical().contains("attribution"));
        let mut on = spec.clone();
        on.attribution = true;
        assert!(on.canonical().contains("\"attribution\":true"));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            r#"{"mode":"sie"}"#,
            r#"{"workload":"gzip"}"#,
            r#"{"workload":"nope","mode":"sie"}"#,
            r#"{"workload":"gzip","mode":"nope"}"#,
            r#"{"workload":"gzip","mode":"sie","quick":3}"#,
            r#"{"workload":"gzip","mode":"sie","seed":-1}"#,
            r#"{"workload":"gzip","mode":"sie","faults":{"fu":"x"}}"#,
        ] {
            let j = Json::parse(bad).expect("test input is JSON");
            assert!(JobSpec::parse(&j).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn parse_errors_keep_their_wire_text() {
        for (bad, text) in [
            (r#"{"mode":"sie"}"#, r#"spec is missing "workload""#),
            (r#"{"workload":"gzip"}"#, r#"spec is missing "mode""#),
            (
                r#"{"workload":"nope","mode":"sie"}"#,
                r#"unknown workload "nope""#,
            ),
            (
                r#"{"workload":"gzip","mode":"nope"}"#,
                r#"unknown mode "nope""#,
            ),
            (
                r#"{"workload":"gzip","mode":"sie","quick":3}"#,
                r#""quick" must be a bool"#,
            ),
            (
                r#"{"workload":"gzip","mode":"sie","seed":-1}"#,
                r#""seed" must be an unsigned integer"#,
            ),
            (
                r#"{"workload":"gzip","mode":"sie","watchdog":"x"}"#,
                r#""watchdog" must be an unsigned integer"#,
            ),
            (
                r#"{"workload":"gzip","mode":"sie","faults":{"bus":"x"}}"#,
                r#""faults"."bus" must be a number"#,
            ),
            (
                r#"{"workload":"gzip","mode":"sie","faults":{"seed":1.5}}"#,
                r#""faults"."seed" must be an unsigned integer"#,
            ),
            (
                r#"{"workload":"gzip","mode":"sie","attribution":1}"#,
                r#""attribution" must be a bool"#,
            ),
        ] {
            let j = Json::parse(bad).expect("test input is JSON");
            let err = JobSpec::parse(&j).expect_err(bad);
            assert_eq!(err.to_string(), text, "{bad}");
        }
    }
}
