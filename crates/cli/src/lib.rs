#![warn(missing_docs)]

//! # redsim-cli
//!
//! Shared pieces of the command-line tools (`redsim-asm`, `redsim-emu`,
//! `redsim-sim`, `redsim-workload`, which live in the root `redsim`
//! package, and `redsim-serve`): program loading by file extension and
//! the exit helpers. The tools parse their flags with
//! `redsim_util::flags`.

use std::path::Path;

use redsim_isa::asm::assemble;
use redsim_isa::container;
use redsim_isa::Program;

/// Loads a program from `.s` assembly source or a `.rprog` container,
/// keyed on the file extension (anything that is not `.rprog` is
/// treated as source).
///
/// # Errors
///
/// Returns a human-readable message on I/O, assembly or container
/// failures.
pub fn load_program(path: &str) -> Result<Program, String> {
    let is_container = Path::new(path).extension().is_some_and(|e| e == "rprog");
    if is_container {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        container::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        assemble(&src).map_err(|e| format!("{path}: {e}"))
    }
}

/// A minimal argument scanner: positional arguments plus `--flag` and
/// `--key value` options. It refuses nothing, so no binary of this
/// workspace uses it (they use `redsim_util::flags`); it stays only
/// because `benchmark/src/main.rs` imports it, and goes when that file
/// next changes.
///
/// # Examples
///
/// ```
/// use redsim_cli::Args;
///
/// let a = Args::parse(["prog.s", "--budget", "500", "--stats"].map(String::from));
/// assert_eq!(a.positional(), ["prog.s"]);
/// assert_eq!(a.value_of("--budget"), Some("500"));
/// assert!(a.has("--stats"));
/// assert!(!a.has("--nope"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses an iterator of arguments (not including the binary name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(_name) = a.strip_prefix("--") {
                // `--key value` when the next token is not another flag.
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => Some(iter.next().expect("peeked")),
                    _ => None,
                };
                out.options.push((a, value));
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// The positional arguments, in order.
    #[must_use]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// `true` if `flag` was given (with or without a value).
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.options.iter().any(|(k, _)| k == flag)
    }

    /// The value of `--key value`, if present.
    #[must_use]
    pub fn value_of(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parses the value of `key` or returns `default`.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but unparseable.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value_of(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: `{v}`")),
        }
    }
}

/// Prints a usage message and exits with status 2.
pub fn usage(text: &str) -> ! {
    eprintln!("{text}");
    std::process::exit(2);
}

/// Exits with an error message and status 1.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn positional_and_flags_separate() {
        let a = args(&["a.s", "--list", "b.s"]);
        // `--list b.s` consumes b.s as its value in this grammar...
        assert!(a.has("--list"));
        assert_eq!(a.value_of("--list"), Some("b.s"));
        assert_eq!(a.positional(), ["a.s"]);
    }

    #[test]
    fn flag_followed_by_flag_has_no_value() {
        let a = args(&["--stats", "--budget", "100"]);
        assert!(a.has("--stats"));
        assert_eq!(a.value_of("--stats"), None);
        assert_eq!(a.value_of("--budget"), Some("100"));
    }

    #[test]
    fn parsed_or_defaults_and_errors() {
        let a = args(&["--n", "42"]);
        assert_eq!(a.parsed_or("--n", 0u64).unwrap(), 42);
        assert_eq!(a.parsed_or("--m", 7u64).unwrap(), 7);
        let b = args(&["--n", "notanumber"]);
        assert!(b.parsed_or("--n", 0u64).is_err());
    }

    #[test]
    fn load_program_dispatches_on_extension() {
        let dir = std::env::temp_dir().join("redsim-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src_path = dir.join("t.s");
        std::fs::write(&src_path, "main: li a0, 1\n halt\n").unwrap();
        let p = load_program(src_path.to_str().unwrap()).unwrap();
        assert_eq!(p.text().len(), 2);
        let bin_path = dir.join("t.rprog");
        std::fs::write(&bin_path, redsim_isa::container::to_bytes(&p)).unwrap();
        let q = load_program(bin_path.to_str().unwrap()).unwrap();
        assert_eq!(p, q);
        assert!(load_program("/nonexistent/x.s").is_err());
    }
}
