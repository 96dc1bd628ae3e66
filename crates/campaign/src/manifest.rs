//! The campaign progress manifest: a [`framed_log`] whose header names
//! the campaign, with one `shard` record per completed shard.
//!
//! ```text
//! {"kind":"header","version":2,"fingerprint":"00ab…","shards":28}
//! {"crc":"9f3c21d07a5e448b","rec":{"kind":"shard","id":0,…}}
//! ```
//!
//! A torn last line is discarded on resume and its shard re-runs;
//! earlier damage is a typed [`CampaignError::Corrupt`].

use std::collections::BTreeMap;
use std::path::Path;

use redsim_util::framed_log::{self, LogError};
use redsim_util::io::Io;
use redsim_util::Json;

use crate::{CampaignError, Shard};

/// Manifest format version. Bumped to 2 when record frames gained
/// per-record checksums; a version-1 manifest fails the header match
/// and is reported as a mismatch, never half-parsed.
pub const MANIFEST_VERSION: u64 = 2;

/// The manifest header line for a campaign.
#[must_use]
pub fn header_line(fingerprint: u64, shards: usize) -> String {
    Json::obj()
        .field("kind", "header")
        .field("version", MANIFEST_VERSION)
        .field("fingerprint", format!("{fingerprint:016x}").as_str())
        .field("shards", shards)
        .to_string()
}

/// Checks a parsed shard record against the shard its id names: the
/// record's `scenario` and `rep` must be that shard's, `ok` a boolean,
/// and a successful record must carry its `lifecycle` object. Every
/// record that reaches the report's fold has passed this check, so the
/// fold indexes by the shard list and never by a record's own fields.
///
/// # Errors
///
/// The first defect found, as the manifest's corruption detail.
pub fn check_record(j: &Json, shard: &Shard) -> Result<(), String> {
    for (key, want) in [("scenario", shard.scenario as u64), ("rep", shard.rep)] {
        let got = j.get(key).and_then(Json::as_u64);
        if got != Some(want) {
            return Err(format!(
                "shard {} record has {key} {got:?}, expected {want}",
                shard.id
            ));
        }
    }
    match j.get("ok").and_then(Json::as_bool) {
        None => Err(format!("shard {} record has no boolean ok", shard.id)),
        Some(true) if !matches!(j.get("lifecycle"), Some(Json::Obj(_))) => Err(format!(
            "shard {} record is ok but has no lifecycle object",
            shard.id
        )),
        Some(_) => Ok(()),
    }
}

/// Loads a progress manifest into `id → verbatim payload line`. A
/// missing manifest has no records.
///
/// A shard record whose payload is not JSON, has no id, or fails
/// [`check_record`] against `shards[id]` is damage (tolerated only as
/// the last line, whose shard then re-runs). A checksummed record of
/// another kind is a format extension and is skipped. Duplicate ids
/// keep the last record, so a shard recorded again after a torn first
/// attempt settles on the complete record.
///
/// # Errors
///
/// [`CampaignError::Mismatch`] when the header belongs to a different
/// campaign or a record's id is out of range;
/// [`CampaignError::Corrupt`] on a damaged interior record;
/// [`CampaignError::Io`] when the manifest exists but cannot be read.
pub fn load(
    io: &dyn Io,
    path: &Path,
    expect_header: &str,
    shards: &[Shard],
) -> Result<BTreeMap<usize, String>, CampaignError> {
    let mut done = BTreeMap::new();
    let mut out_of_range = None;
    framed_log::read(io, path, expect_header, |payload| {
        let j = Json::parse(payload).map_err(|e| format!("payload is not valid JSON: {e}"))?;
        if j.get("kind").and_then(Json::as_str) != Some("shard") {
            return Ok(());
        }
        let id = j
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("shard record has no id")? as usize;
        match shards.get(id) {
            Some(shard) => {
                check_record(&j, shard)?;
                done.insert(id, payload.to_owned());
            }
            None => {
                out_of_range.get_or_insert(id);
            }
        }
        Ok(())
    })
    .map_err(|e| match e {
        LogError::Io(e) => CampaignError::Io(e),
        LogError::ForeignHeader(h) => CampaignError::Mismatch(format!(
            "header {h:?} does not match this campaign (expected {expect_header:?})"
        )),
        LogError::Corrupt { line, detail } => CampaignError::Corrupt { line, detail },
    })?;
    match out_of_range {
        Some(id) => Err(CampaignError::Mismatch(format!(
            "record id {id} out of range for {} shards",
            shards.len()
        ))),
        None => Ok(done),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_util::framed_log::frame as frame_record;
    use redsim_util::io::RealIo;
    use redsim_workloads::Workload;

    /// `n` shards of scenario 0, replica 0.
    fn shard_list(n: usize) -> Vec<Shard> {
        (0..n)
            .map(|id| Shard {
                id,
                scenario: 0,
                workload: Workload::Gzip,
                rep: 0,
            })
            .collect()
    }

    /// Loads `text` as a manifest file, the way resume reads one.
    fn parse_manifest(
        text: &str,
        expect_header: &str,
        shards: usize,
    ) -> Result<BTreeMap<usize, String>, CampaignError> {
        let dir = std::env::temp_dir().join(format!("redsim-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join(format!(
            "{:016x}.progress.jsonl",
            redsim_util::hash::fx64(text.as_bytes())
        ));
        std::fs::write(&path, text).expect("write manifest");
        load(&RealIo, &path, expect_header, &shard_list(shards))
    }

    const REC0: &str =
        r#"{"kind":"shard","id":0,"scenario":0,"rep":0,"label":"l","ok":true,"lifecycle":{}}"#;
    const REC2: &str =
        r#"{"kind":"shard","id":2,"scenario":0,"rep":0,"label":"l","ok":false,"error":"x"}"#;

    #[test]
    fn torn_tail_is_tolerated_but_interior_damage_is_typed() {
        let header = header_line(0xabcd, 4);
        let good = frame_record(REC2);
        let torn = &frame_record(REC0)[..25];

        // Torn last line: skipped, the good record survives.
        let text = format!("{header}\n{good}\n{torn}");
        let done = parse_manifest(&text, &header, 4).expect("parses");
        assert_eq!(done.len(), 1);
        assert_eq!(done[&2], REC2);

        // The same damage on an interior line names line 2 (1-based).
        let text = format!("{header}\n{torn}\n{good}\n");
        match parse_manifest(&text, &header, 4) {
            Err(CampaignError::Corrupt { line, detail }) => {
                assert_eq!(line, 2);
                assert!(!detail.is_empty());
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A bit-flip in an interior payload is equally fatal.
        let flipped = frame_record(REC0).replace("\"ok\":true", "\"ok\":felse");
        let text = format!("{header}\n{flipped}\n{good}\n");
        assert!(matches!(
            parse_manifest(&text, &header, 4),
            Err(CampaignError::Corrupt { line: 2, .. })
        ));
    }

    #[test]
    fn foreign_headers_and_out_of_range_ids_are_mismatches() {
        let header = header_line(0xabcd, 4);
        let text = format!("{header}\n{}\n", frame_record(REC2));
        let foreign = header_line(0x1234, 4);
        assert!(matches!(
            parse_manifest(&text, &foreign, 4),
            Err(CampaignError::Mismatch(_))
        ));
        assert!(matches!(
            parse_manifest(&text, &header_line(0xabcd, 2), 2),
            Err(CampaignError::Mismatch(_))
        ));
    }

    #[test]
    fn duplicate_ids_keep_the_last_record() {
        let header = header_line(1, 4);
        let first = r#"{"kind":"shard","id":1,"scenario":0,"rep":0,"ok":false,"error":"first"}"#;
        let second = r#"{"kind":"shard","id":1,"scenario":0,"rep":0,"ok":true,"lifecycle":{}}"#;
        let text = format!(
            "{header}\n{}\n{}\n",
            frame_record(first),
            frame_record(second)
        );
        let done = parse_manifest(&text, &header, 4).expect("parses");
        assert_eq!(done[&1], second);
    }

    #[test]
    fn records_that_do_not_match_their_shard_are_damage() {
        let header = header_line(0xabcd, 4);
        let good = frame_record(REC2);
        for bad in [
            REC0.replace("\"scenario\":0", "\"scenario\":99"),
            REC0.replace("\"rep\":0", "\"rep\":7"),
            REC0.replace("\"ok\":true,", ""),
            REC0.replace("\"ok\":true", "\"ok\":\"yes\""),
            REC0.replace(",\"lifecycle\":{}", ""),
        ] {
            // Checksum-valid, so only the record check can refuse it.
            let bad = frame_record(&bad);
            match parse_manifest(&format!("{header}\n{bad}\n{good}\n"), &header, 4) {
                Err(CampaignError::Corrupt { line: 2, detail }) => {
                    assert!(detail.contains("shard 0"), "{detail}");
                }
                other => panic!("expected Corrupt at line 2 for {bad}, got {other:?}"),
            }
            // As the last line it is dropped, and its shard re-runs.
            let done = parse_manifest(&format!("{header}\n{good}\n{bad}\n"), &header, 4)
                .expect("a bad last record is skipped");
            assert_eq!(done.keys().copied().collect::<Vec<_>>(), [2]);
        }
    }

    #[test]
    fn version_1_manifests_are_rejected_at_the_header() {
        let v1 = r#"{"kind":"header","fingerprint":"000000000000abcd","shards":4}"#;
        let header = header_line(0xabcd, 4);
        assert!(matches!(
            parse_manifest(&format!("{v1}\n"), &header, 4),
            Err(CampaignError::Mismatch(_))
        ));
    }
}
