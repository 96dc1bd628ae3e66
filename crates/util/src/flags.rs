//! The one command-line parser every redsim binary uses.
//!
//! A binary declares a [`FlagTable`]: a synopsis, how many positional
//! arguments it takes, and one [`Flag`] row per option. [`FlagTable::parse`]
//! returns the positionals and typed lookups ([`Parsed`]); an unknown
//! flag, a flag missing its value, a repeated flag or a surplus
//! positional is a [`FlagError`]. [`FlagTable::parse_or_exit`] prints
//! the error and the usage rendered from the table and exits 2, or
//! prints the usage and exits 0 after `--help`.
//!
//! A value is the next argument unless that starts with `--`: so
//! `--irb-rate -1` reads `-1`, and `--budget --stats` lacks a value.

use std::fmt;
use std::str::FromStr;

/// One row of a [`FlagTable`]: the flag, its value placeholder (`None`
/// for a switch) and one line of help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--threads`.
    pub name: &'static str,
    /// The placeholder of its value, shown as `--threads <N>`.
    pub value: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Flag {
    /// A switch: present or absent, no value.
    #[must_use]
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag followed by one value.
    #[must_use]
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value: Some(value),
            help,
        }
    }
}

/// A binary's command line. Rows come in groups so tables can share
/// them.
#[derive(Debug, Clone, Copy)]
pub struct FlagTable {
    /// What follows the program name on the usage line.
    pub synopsis: &'static str,
    /// The most positional arguments the binary takes.
    pub positionals: usize,
    /// The declared flags, in usage order.
    pub flags: &'static [&'static [Flag]],
}

/// A refused command line; each variant names the offending argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// `--help` was given.
    Help,
    /// A flag the table does not declare.
    Unknown(String),
    /// A value flag came last, or before another flag.
    MissingValue(&'static str),
    /// A flag given twice.
    Repeated(&'static str),
    /// A positional argument past the table's count.
    Unexpected(String),
    /// A flag or positional the binary needs is missing.
    Required(&'static str),
    /// A value the binary cannot use: the flag, the value and why.
    Invalid {
        /// The flag.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What was expected instead.
        reason: String,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Help => write!(f, "help requested"),
            FlagError::Unknown(a) => write!(f, "unknown flag `{a}`"),
            FlagError::MissingValue(a) => write!(f, "`{a}` needs a value"),
            FlagError::Repeated(a) => write!(f, "`{a}` is given more than once"),
            FlagError::Unexpected(a) => write!(f, "unexpected argument `{a}`"),
            FlagError::Required(a) => write!(f, "missing {a}"),
            FlagError::Invalid {
                flag,
                value,
                reason,
            } => {
                write!(f, "invalid value `{value}` for `{flag}`: {reason}")
            }
        }
    }
}

impl std::error::Error for FlagError {}

/// The process arguments after the program name.
#[must_use]
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

impl FlagTable {
    /// A table from its synopsis, positional count and flag groups.
    #[must_use]
    pub const fn new(
        synopsis: &'static str,
        positionals: usize,
        flags: &'static [&'static [Flag]],
    ) -> Self {
        FlagTable {
            synopsis,
            positionals,
            flags,
        }
    }

    fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|g| g.iter())
    }

    /// Parses `args` (without the program name) against the table.
    ///
    /// # Errors
    ///
    /// The first argument the table refuses, or [`FlagError::Help`].
    pub fn parse(&self, args: &[String]) -> Result<Parsed, FlagError> {
        let mut out = Parsed {
            table: *self,
            positionals: Vec::new(),
            given: Vec::new(),
        };
        let mut iter = args.iter().peekable();
        while let Some(a) = iter.next() {
            if !a.starts_with("--") {
                if out.positionals.len() == self.positionals {
                    return Err(FlagError::Unexpected(a.clone()));
                }
                out.positionals.push(a.clone());
                continue;
            }
            if a == "--help" {
                return Err(FlagError::Help);
            }
            let flag = self.rows().find(|f| f.name == a);
            let flag = flag.ok_or_else(|| FlagError::Unknown(a.clone()))?;
            if out.has(flag.name) {
                return Err(FlagError::Repeated(flag.name));
            }
            let value = match flag.value {
                None => None,
                Some(_) => match iter.next_if(|v| !v.starts_with("--")) {
                    Some(v) => Some(v.clone()),
                    None => return Err(FlagError::MissingValue(flag.name)),
                },
            };
            out.given.push((flag.name, value));
        }
        Ok(out)
    }

    /// Parses `args`, or exits through [`FlagTable::fail`].
    #[must_use]
    pub fn parse_or_exit(&self, args: &[String]) -> Parsed {
        self.parse(args).unwrap_or_else(|e| self.fail(&e))
    }

    /// The usage of program `prog`: the synopsis, then one line per flag
    /// and one for `--help`.
    #[must_use]
    pub fn usage(&self, prog: &str) -> String {
        const HELP: Flag = Flag::switch("--help", "print this help and exit");
        let rows: Vec<(String, &str)> = (self.rows().chain([&HELP]))
            .map(|f| match f.value {
                Some(v) => (format!("{} <{v}>", f.name), f.help),
                None => (f.name.to_owned(), f.help),
            })
            .collect();
        let width = rows.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
        let mut out = format!("usage: {prog} {}\n\noptions:\n", self.synopsis);
        for (spelling, help) in rows {
            out += &format!("  {spelling:<width$}  {help}\n");
        }
        out
    }

    /// Prints the usage and exits: on stdout with 0 for
    /// [`FlagError::Help`], else on stderr after the error with 2.
    pub fn fail(&self, e: &FlagError) -> ! {
        let argv0 = std::env::args().next().unwrap_or_default();
        let usage = self.usage(argv0.rsplit('/').next().unwrap_or_default());
        if *e == FlagError::Help {
            print!("{usage}");
            std::process::exit(0);
        }
        eprint!("error: {e}\n\n{usage}");
        std::process::exit(2);
    }
}

/// An accepted command line: the positionals and the declared flags
/// given, each once.
#[derive(Debug, Clone)]
pub struct Parsed {
    table: FlagTable,
    positionals: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Parsed {
    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The flags given, in order, with their values.
    pub fn given(&self) -> impl Iterator<Item = (&'static str, Option<&str>)> {
        self.given.iter().map(|(n, v)| (*n, v.as_deref()))
    }

    /// Whether `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.given().any(|(n, _)| n == name)
    }

    /// The value given to `name`, if any.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given().find(|&(n, _)| n == name).and_then(|(_, v)| v)
    }

    /// The value of `name` through `convert`, whose error is the reason
    /// of a [`FlagError::Invalid`].
    ///
    /// # Errors
    ///
    /// [`FlagError::Invalid`] when `convert` refuses the value.
    pub fn map<T>(
        &self,
        name: &'static str,
        convert: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, FlagError> {
        let Some(value) = self.value(name) else {
            return Ok(None);
        };
        let invalid = |reason| FlagError::Invalid {
            flag: name,
            value: value.to_owned(),
            reason,
        };
        convert(value).map(Some).map_err(invalid)
    }

    /// The value of `name` parsed as a `T`; `Err` as [`Parsed::map`].
    pub fn get<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, FlagError>
    where
        T::Err: fmt::Display,
    {
        self.map(name, |v| v.parse().map_err(|e: T::Err| e.to_string()))
    }

    /// The value of `name` parsed as a number above zero; `Err` as
    /// [`Parsed::map`].
    pub fn positive<T>(&self, name: &'static str) -> Result<Option<T>, FlagError>
    where
        T: FromStr + PartialOrd + Default,
    {
        self.map(name, |v| match v.parse() {
            Ok(n) if n > T::default() => Ok(n),
            _ => Err("expects a positive integer".to_owned()),
        })
    }

    /// `result`'s value, or the exit of [`Parsed::fail`] on its error.
    pub fn or_exit<T>(&self, result: Result<T, FlagError>) -> T {
        result.unwrap_or_else(|e| self.fail(&e))
    }

    /// [`FlagTable::fail`] for the table this was parsed against.
    pub fn fail(&self, e: &FlagError) -> ! {
        self.table.fail(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: FlagTable = FlagTable {
        synopsis: "<input> [options]",
        positionals: 1,
        flags: &[
            &[Flag::switch("--list", "print a listing")],
            &[Flag::value("--budget", "N", "instruction budget")],
        ],
    };

    fn parse(args: &[&str]) -> Result<Parsed, FlagError> {
        T.parse(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn switches_values_and_positionals_separate() {
        let p = parse(&["--list", "a.s", "--budget", "-5"]).expect("valid");
        assert_eq!(p.positionals(), ["a.s"]);
        assert!(p.has("--list"));
        assert_eq!(p.value("--list"), None);
        assert_eq!(p.get::<i64>("--budget"), Ok(Some(-5)));
        assert_eq!(p.get::<u64>("--nope"), Ok(None));
    }

    #[test]
    fn each_refusal_is_typed() {
        assert_eq!(
            parse(&["--bogus"]).err(),
            Some(FlagError::Unknown("--bogus".into()))
        );
        assert_eq!(
            parse(&["--budget"]).err(),
            Some(FlagError::MissingValue("--budget"))
        );
        assert_eq!(
            parse(&["--budget", "--list"]).err(),
            Some(FlagError::MissingValue("--budget"))
        );
        assert_eq!(
            parse(&["--list", "--list"]).err(),
            Some(FlagError::Repeated("--list"))
        );
        assert_eq!(
            parse(&["a", "b"]).err(),
            Some(FlagError::Unexpected("b".into()))
        );
        assert_eq!(parse(&["x", "--help"]).err(), Some(FlagError::Help));
    }

    #[test]
    fn typed_lookups_name_the_flag_and_value() {
        let p = parse(&["--budget", "0"]).expect("valid");
        let e = p.positive::<u64>("--budget").unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid value `0` for `--budget`: expects a positive integer"
        );
        assert!(p.get::<f64>("--budget").is_ok());
        let p = parse(&["--budget", "many"]).expect("valid");
        assert!(p.get::<u64>("--budget").is_err());
    }

    #[test]
    fn usage_lists_every_row_and_help() {
        let u = T.usage("prog");
        assert!(u.starts_with("usage: prog <input> [options]\n"), "{u}");
        for row in ["--list ", "--budget <N>", "--help "] {
            assert!(u.contains(row), "{row} missing from {u}");
        }
    }
}
