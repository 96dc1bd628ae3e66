//! Seeded, structure-aware fuzzing of the record-log reader that the
//! campaign manifest and the serve journal share.
//!
//! Each iteration writes a valid log, damages it one or two ways
//! (a truncation, a byte flip, a dropped line, a duplicated line or an
//! inserted garbage line) and checks the reader against an oracle that
//! knows which lines were written whole. The oracle calls a line
//! *damaged* when it is not byte-equal to a frame the writer produced,
//! or when it carries a payload the fold rejects. Then:
//!
//! * the reader never panics;
//! * damage on the last line alone yields `Ok` with the earlier records;
//! * earlier damage yields `Corrupt` naming the first damaged line;
//! * a damaged header is reported as the header found.
//!
//! A dropped or duplicated whole record is not damage: a log carries no
//! sequence numbers, so the reader must return exactly the records the
//! mutated file holds.

use std::collections::HashMap;
use std::panic;

use redsim_util::framed_log::{frame, parse, render, LogError};
use redsim_util::Rng;

const SEED: u64 = 0x0f1a_6e11_05ee_d001;
const ITERATIONS: usize = 20_000;
const HEADER: &str = r#"{"kind":"fuzz-log","version":1}"#;
/// Payloads carrying this marker are refused by the fold.
const REJECT: &str = r#""reject":true"#;

/// What the reader returned, in comparable form.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Records(Vec<String>),
    Foreign(String),
    Corrupt(usize),
}

fn read(text: &str) -> Outcome {
    let mut records = Vec::new();
    let result = parse(text, HEADER, |payload| {
        if payload.contains(REJECT) {
            return Err("rejected by the fold".to_owned());
        }
        records.push(payload.to_owned());
        Ok(())
    });
    match result {
        Ok(()) => Outcome::Records(records),
        Err(LogError::ForeignHeader(h)) => Outcome::Foreign(h),
        Err(LogError::Corrupt { line, .. }) => Outcome::Corrupt(line),
        Err(LogError::Io(e)) => unreachable!("parse reads no file: {e}"),
    }
}

/// The outcome the reader owes for `text`, given every accepted frame
/// the writer produced (frame line → payload).
fn expected(text: &str, written: &HashMap<String, String>) -> Outcome {
    let lines: Vec<&str> = text.lines().collect();
    let Some((&first, records)) = lines.split_first() else {
        return Outcome::Records(Vec::new());
    };
    if first != HEADER {
        return Outcome::Foreign(first.to_owned());
    }
    let mut out = Vec::new();
    for (i, line) in records.iter().enumerate() {
        match written.get(*line) {
            Some(payload) => out.push(payload.clone()),
            None if i + 1 == records.len() => break, // torn tail
            None => return Outcome::Corrupt(i + 2),  // 1-based, after the header
        }
    }
    Outcome::Records(out)
}

/// A short payload word: mostly ASCII, sometimes a multi-byte char so
/// truncations and flips meet UTF-8 boundaries.
fn word(rng: &mut Rng) -> String {
    (0..rng.index(12))
        .map(|_| match rng.index(16) {
            0 => 'é',
            _ => (b'a' + rng.below(26) as u8) as char,
        })
        .collect()
}

fn payload(rng: &mut Rng, id: usize) -> String {
    if rng.index(8) == 0 {
        format!(r#"{{"id":{id},{REJECT}}}"#)
    } else {
        format!(r#"{{"id":{id},"v":"{}"}}"#, word(rng))
    }
}

/// A line that must never pass as a record: random bytes, a frame with
/// a wrong checksum, or the prefix of a real frame.
fn garbage(rng: &mut Rng) -> String {
    match rng.index(3) {
        0 => (0..rng.index(40))
            .map(|_| match rng.below(95) as u8 {
                0 => '\t',
                b => (b' ' + b) as char, // printable ASCII
            })
            .collect(),
        1 => {
            let good = frame(&format!(r#"{{"id":999,"v":"{}"}}"#, word(rng)));
            let crc = format!("{:016x}", rng.next_u64());
            format!("{}{crc}{}", &good[..8], &good[24..])
        }
        _ => {
            let good = frame(&format!(r#"{{"id":998,"v":"{}"}}"#, word(rng)));
            let mut cut = rng.index(good.len());
            while !good.is_char_boundary(cut) {
                cut -= 1;
            }
            good[..cut].to_owned()
        }
    }
}

/// Applies one structure-aware mutation to `text`.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    match rng.index(5) {
        0 => {
            let mut cut = rng.index(text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
        1 => {
            // Flip one ASCII byte to another ASCII byte that is not a
            // line break, so the line structure stays as it was.
            let ascii: Vec<usize> = text
                .bytes()
                .enumerate()
                .filter(|&(_, b)| b.is_ascii() && b != b'\n')
                .map(|(i, _)| i)
                .collect();
            if ascii.is_empty() {
                return text.to_owned();
            }
            let at = *rng.pick(&ascii);
            let mut bytes = text.as_bytes().to_vec();
            let old = bytes[at];
            let new = loop {
                let b = old ^ (1 << rng.below(7));
                if b != b'\n' && b != b'\r' {
                    break b;
                }
            };
            bytes[at] = new;
            return String::from_utf8(bytes).expect("an ASCII flip keeps UTF-8");
        }
        2 => {
            let at = rng.index(lines.len());
            lines.remove(at);
        }
        3 => {
            let at = rng.index(lines.len());
            let copy = lines[at].clone();
            lines.insert(at + 1, copy);
        }
        _ => {
            let at = rng.index(lines.len() + 1);
            lines.insert(at, garbage(rng));
        }
    }
    lines.join("\n")
}

#[test]
fn damaged_logs_read_as_the_oracle_says() {
    let mut rng = Rng::new(SEED);
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for it in 0..ITERATIONS {
        let payloads: Vec<String> = (0..rng.index(8)).map(|id| payload(&mut rng, id)).collect();
        let written: HashMap<String, String> = payloads
            .iter()
            .filter(|p| !p.contains(REJECT))
            .map(|p| (frame(p), p.clone()))
            .collect();
        let mut text = render(HEADER, &payloads);
        for _ in 0..1 + rng.index(2) {
            text = mutate(&mut rng, &text);
        }

        let want = expected(&text, &written);
        let got = panic::catch_unwind(|| read(&text))
            .unwrap_or_else(|_| panic!("iteration {it}: the reader panicked on {text:?}"));
        assert_eq!(got, want, "iteration {it}: {text:?}");

        let lines = text.lines().count();
        let kind = match &got {
            Outcome::Records(r) if lines > 1 && r.len() + 1 < lines => "torn tail skipped",
            Outcome::Records(_) => "read whole",
            Outcome::Foreign(_) => "foreign header",
            Outcome::Corrupt(_) => "interior damage",
        };
        *seen.entry(kind).or_default() += 1;
    }
    // Every verdict the reader can reach from text was exercised.
    for kind in [
        "torn tail skipped",
        "read whole",
        "foreign header",
        "interior damage",
    ] {
        assert!(
            seen.get(kind).copied().unwrap_or(0) >= ITERATIONS / 50,
            "too few {kind:?} cases: {seen:?}"
        );
    }
}
