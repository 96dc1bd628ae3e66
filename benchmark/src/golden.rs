//! Golden digests of the simulated outputs at seed 0 and the measured
//! size. A digest covers only simulated, host-independent results, so
//! it changes only when the model's behaviour does; `--bless` rewrites
//! the file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use redsim_util::Json;

/// The golden file beside this crate's manifest.
#[must_use]
pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/seed0.json")
}

/// Workload name → digest, as stored (empty when the file is absent).
///
/// # Errors
///
/// A file that exists but does not parse.
pub fn load() -> Result<BTreeMap<String, String>, String> {
    let p = path();
    let Ok(text) = std::fs::read_to_string(&p) else {
        return Ok(BTreeMap::new());
    };
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    let Json::Obj(fields) = j else {
        return Err(format!("{}: not a JSON object", p.display()));
    };
    Ok(fields
        .into_iter()
        .filter_map(|(k, v)| v.as_str().map(|d| (k, d.to_owned())))
        .collect())
}

/// Writes the digests, one workload per line.
///
/// # Errors
///
/// Any `io::Error` from writing the file.
pub fn store(digests: &BTreeMap<String, String>) -> std::io::Result<()> {
    let body: Vec<String> = digests
        .iter()
        .map(|(k, v)| format!("  {}: {}", Json::from(k.as_str()), Json::from(v.as_str())))
        .collect();
    std::fs::write(path(), format!("{{\n{}\n}}\n", body.join(",\n")))
}
