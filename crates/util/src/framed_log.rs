//! A crash-consistent record log: a header line naming the log's owner,
//! then one checksummed frame per record, appended as JSONL:
//!
//! ```text
//! {"kind":"header",…}
//! {"crc":"9f3c21d07a5e448b","rec":{"kind":"shard","id":0,…}}
//! ```
//!
//! `crc` is the [`fx64`] of the exact payload bytes, as 16 lowercase
//! hex digits in a fixed-width prefix: checking a frame is slice, hash,
//! compare, and each frame stays valid JSON. The [`Appender`] latches
//! its first IO error, so only the last line can tear. The reader
//! ([`read`] / [`parse`]) therefore skips a damaged last line (the kill
//! window of an append) and refuses the same damage on an earlier line
//! as [`LogError::Corrupt`]: that file was damaged at rest.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::hash::fx64;
use crate::io::{atomic_write, write_all_retrying, Io, IoFile};

/// Wraps a record payload in its checksummed frame (no newline).
#[must_use]
pub fn frame(payload: &str) -> String {
    format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{payload}}}",
        fx64(payload.as_bytes())
    )
}

/// Validates one frame and returns its payload.
///
/// # Errors
///
/// What is wrong with the frame: prefix, checksum spelling or value.
pub fn unframe(line: &str) -> Result<&str, String> {
    let Some(rest) = line.strip_prefix("{\"crc\":\"") else {
        return Err("frame does not start with {\"crc\":\"".to_owned());
    };
    if rest.len() < 16 + 8 + 1 {
        return Err("frame truncated before the payload".to_owned());
    }
    // Lowercase hex only: `from_str_radix` alone would also take
    // uppercase digits and a leading `+`, letting a damaged frame pass.
    let Some((hex, rest)) = rest
        .split_at_checked(16)
        .filter(|(hex, _)| hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
    else {
        return Err("checksum field is not 16 lowercase hex digits".to_owned());
    };
    let want = u64::from_str_radix(hex, 16).expect("16 hex digits fit a u64");
    let Some(payload) = rest
        .strip_prefix("\",\"rec\":")
        .and_then(|r| r.strip_suffix('}'))
    else {
        return Err("frame missing \",\"rec\": or its closing brace".to_owned());
    };
    let got = fx64(payload.as_bytes());
    if got != want {
        return Err(format!(
            "checksum mismatch: header says {want:016x}, payload hashes to {got:016x}"
        ));
    }
    Ok(payload)
}

/// Why a log could not be read.
#[derive(Debug)]
pub enum LogError {
    /// The file exists but could not be read.
    Io(io::Error),
    /// The first line is not the expected header; this is the line found.
    ForeignHeader(String),
    /// A line before the last is damaged or was rejected by the fold.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// The frame defect or the fold's reason.
        detail: String,
    },
}

/// [`parse`]s the log at `path`; a missing file is an empty log.
///
/// # Errors
///
/// [`LogError::Io`] when the file cannot be read, otherwise as [`parse`].
pub fn read(
    io: &dyn Io,
    path: &Path,
    header: &str,
    fold: impl FnMut(&str) -> Result<(), String>,
) -> Result<(), LogError> {
    match io.read_to_string(path) {
        Ok(text) => parse(&text, header, fold),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(LogError::Io(e)),
    }
}

/// Checks the header line, then passes each record payload in order to
/// `fold`, which returns `Err(reason)` to reject one (leaving its state
/// untouched). A damaged or rejected last line is skipped; empty text
/// is an empty log.
///
/// # Errors
///
/// [`LogError::ForeignHeader`], or [`LogError::Corrupt`] for the first
/// damaged or rejected line before the last.
pub fn parse(
    text: &str,
    header: &str,
    mut fold: impl FnMut(&str) -> Result<(), String>,
) -> Result<(), LogError> {
    let mut lines = text.lines().enumerate().peekable();
    match lines.next() {
        None => return Ok(()),
        Some((_, h)) if h == header => {}
        Some((_, h)) => return Err(LogError::ForeignHeader(h.to_owned())),
    }
    while let Some((idx, line)) = lines.next() {
        if let Err(detail) = unframe(line).and_then(&mut fold) {
            if lines.peek().is_some() {
                return Err(LogError::Corrupt {
                    line: idx + 1,
                    detail,
                });
            }
        }
    }
    Ok(())
}

/// The text of a log holding `header` and one frame per payload.
#[must_use]
pub fn render<P: AsRef<str>>(header: &str, payloads: impl IntoIterator<Item = P>) -> String {
    let mut text = format!("{header}\n");
    for payload in payloads {
        text.push_str(&frame(payload.as_ref()));
        text.push('\n');
    }
    text
}

/// Replaces the log at `path` with its [`render`]ing through
/// [`atomic_write`] (`sync`: fsync before the rename).
///
/// # Errors
///
/// Any `io::Error` of the rewrite; the old log is then untouched.
pub fn rewrite<P: AsRef<str>>(
    io: &dyn Io,
    path: &Path,
    header: &str,
    payloads: impl IntoIterator<Item = P>,
    sync: bool,
) -> io::Result<()> {
    atomic_write(io, path, render(header, payloads).as_bytes(), sync)
}

/// The error-latching appender: one whole frame per record through
/// [`write_all_retrying`], synced when `sync` is set. After the first
/// IO error every append refuses, so only that write can leave a torn
/// frame, and it is the last line of the file.
pub struct Appender {
    sync: bool,
    file: Mutex<Result<Box<dyn IoFile>, io::Error>>,
}

impl fmt::Debug for Appender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Appender").finish_non_exhaustive()
    }
}

impl Appender {
    /// Opens `path` for appending.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from opening the file.
    pub fn open(io: &dyn Io, path: &Path, sync: bool) -> io::Result<Self> {
        let file = Mutex::new(Ok(io.open_append(path)?));
        Ok(Appender { sync, file })
    }

    /// Appends one framed payload; `false` once an error has latched.
    ///
    /// # Panics
    ///
    /// If another thread panicked while appending.
    pub fn append(&self, payload: &str) -> bool {
        let mut slot = self.file.lock().expect("appender lock");
        let Ok(file) = slot.as_mut() else {
            return false;
        };
        let line = format!("{}\n", frame(payload));
        let written = write_all_retrying(file.as_mut(), line.as_bytes());
        match written.and_then(|()| if self.sync { file.sync() } else { Ok(()) }) {
            Ok(()) => true,
            Err(e) => {
                *slot = Err(e); // drops the file handle
                false
            }
        }
    }

    /// The latched error, if any: the same OS error code when it had
    /// one, otherwise the same kind and message.
    ///
    /// # Panics
    ///
    /// If another thread panicked while appending.
    #[must_use]
    pub fn error(&self) -> Option<io::Error> {
        let slot = self.file.lock().expect("appender lock");
        let e = slot.as_ref().err()?;
        Some(match e.raw_os_error() {
            Some(code) => io::Error::from_raw_os_error(code),
            None => io::Error::new(e.kind(), e.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ChaosConfig, ChaosIo, RealIo};
    use crate::Json;
    use std::path::PathBuf;
    use std::sync::Arc;

    const REC0: &str = r#"{"kind":"shard","id":0,"scenario":0,"rep":0,"label":"l","ok":true}"#;
    const REC2: &str =
        r#"{"kind":"shard","id":2,"scenario":0,"rep":0,"label":"l","ok":false,"error":"x"}"#;
    const HEADER: &str = r#"{"kind":"header","version":2}"#;

    fn collect(text: &str) -> Result<Vec<String>, LogError> {
        let mut out = Vec::new();
        parse(text, HEADER, |p| {
            out.push(p.to_owned());
            Ok(())
        })
        .map(|()| out)
    }

    fn tmp(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("redsim-framed-log-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("test dir");
        d.join("log.jsonl")
    }

    #[test]
    fn frames_round_trip_and_stay_valid_json() {
        let framed = frame(REC0);
        assert_eq!(unframe(&framed).expect("valid frame"), REC0);
        let j = Json::parse(&framed).expect("frame is itself JSON");
        assert_eq!(
            j.get("rec")
                .and_then(|r| r.get("id"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn a_flipped_payload_byte_fails_the_checksum() {
        let framed = frame(REC0).replace("\"ok\":true", "\"ok\":false");
        let err = unframe(&framed).expect_err("corrupt");
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn a_checksum_spelled_other_than_lowercase_hex_is_damage() {
        // Uppercase digits and a `+` in place of a leading zero parse to
        // the same number, so only the spelling check catches them.
        let framed = (0..)
            .map(|n| frame(&format!("{{\"n\":{n}}}")))
            .find(|f| f.as_bytes()[8] == b'0' && f[8..24].bytes().any(|b| b.is_ascii_lowercase()))
            .expect("some payload hashes to a leading zero and a letter");
        let upper = format!(
            "{}{}{}",
            &framed[..8],
            framed[8..24].to_uppercase(),
            &framed[24..]
        );
        let plus = format!("{}+{}", &framed[..8], &framed[9..]);
        assert!(unframe(&framed).is_ok());
        assert!(unframe(&upper).is_err(), "{upper} must not unframe");
        assert!(unframe(&plus).is_err(), "{plus} must not unframe");
        // A two-byte char straddling the end of the checksum field is
        // damage too, not a panic on a non-char-boundary split.
        let straddle = format!("{}\u{e9}{}", &framed[..23], &framed[25..]);
        assert!(unframe(&straddle).is_err(), "{straddle} must not unframe");
    }

    #[test]
    fn foreign_headers_are_reported_and_missing_or_empty_logs_are_empty() {
        let text = format!("{{\"kind\":\"other\"}}\n{}\n", frame(REC0));
        match collect(&text) {
            Err(LogError::ForeignHeader(h)) => assert_eq!(h, "{\"kind\":\"other\"}"),
            other => panic!("expected ForeignHeader, got {other:?}"),
        }
        assert!(collect("").expect("empty text").is_empty());
        let path = tmp("missing");
        let mut n = 0;
        read(&RealIo, &path, HEADER, |_| {
            n += 1;
            Ok(())
        })
        .expect("a missing file is an empty log");
        assert_eq!(n, 0);
    }

    #[test]
    fn rewrite_then_read_round_trips() {
        let path = tmp("rewrite");
        rewrite(&RealIo, &path, HEADER, [REC0, REC2], false).expect("rewrite");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            text,
            format!("{HEADER}\n{}\n{}\n", frame(REC0), frame(REC2))
        );
        assert_eq!(text, render(HEADER, [REC0, REC2]));
        let mut got = Vec::new();
        read(&RealIo, &path, HEADER, |p| {
            got.push(p.to_owned());
            Ok(())
        })
        .expect("read");
        assert_eq!(got, [REC0, REC2]);
    }

    #[test]
    fn the_appender_latches_its_first_error() {
        let path = tmp("latch");
        std::fs::write(&path, format!("{HEADER}\n")).expect("seed");
        let io = ChaosIo::new(
            Arc::new(RealIo),
            ChaosConfig {
                kill_after_ops: Some(2), // open + first write survive
                ..ChaosConfig::quiet(0)
            },
        );
        let log = Appender::open(&io, &path, false).expect("open");
        assert!(log.append(REC0), "first append lands");
        assert!(log.error().is_none());
        assert!(!log.append(REC2), "killed append fails");
        assert!(log.error().is_some());
        assert!(!log.append(REC0), "the appender stays latched");

        // The killed append tore the tail; the reader skips it.
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(collect(&text).expect("torn tail tolerated"), [REC0]);
    }
}
