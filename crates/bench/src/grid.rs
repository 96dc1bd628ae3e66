//! Figures declared as grids, and the one runner behind them.
//!
//! A [`Figure`] is what a figure binary would otherwise spell out by
//! hand: the `(mode, config)` runs every workload goes through, in
//! order, and the table columns computed from one workload's runs.
//! [`main`] owns the rest — the shared command line, the [`Job`] list
//! over [`Workload::ALL`], [`Harness::try_sweep`], one row per workload
//! plus the mean row, [`finish`] and the exit code — so a grid figure
//! binary is its declaration in [`crate::figures`] plus one line.

use redsim_core::{ExecMode, MachineConfig, SimStats};
use redsim_workloads::Workload;

use crate::{finish, ipc, mean, pct, Cli, Harness, Job, Table};

/// How a column prints its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Three decimals, as [`ipc`].
    Ipc,
    /// A percentage with one decimal, as [`pct`].
    Pct,
    /// A whole number.
    Count,
}

impl Format {
    fn cell(self, x: f64) -> String {
        match self {
            Format::Ipc => ipc(x),
            Format::Pct => pct(x),
            Format::Count => format!("{x:.0}"),
        }
    }
}

/// A column's value, computed from one workload's runs.
type Value = Box<dyn Fn(&[SimStats]) -> f64>;

struct Column {
    header: String,
    format: Format,
    in_mean: bool,
    value: Value,
}

/// A figure's declaration: the function that builds its [`Figure`].
pub type Declaration = fn() -> Figure;

/// A figure as data: title, note, the runs per workload and the
/// columns. Build one with [`Figure::new`] and the chaining methods.
pub struct Figure {
    title: &'static str,
    note: String,
    runs: Vec<(ExecMode, MachineConfig)>,
    columns: Vec<Column>,
}

impl Figure {
    /// A figure with no runs, no columns and an empty note.
    #[must_use]
    pub fn new(title: &'static str) -> Self {
        Figure {
            title,
            note: String::new(),
            runs: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// Sets the note printed in parentheses under the title.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Adds a run every workload goes through; runs are numbered in the
    /// order they are added.
    #[must_use]
    pub fn run(mut self, mode: ExecMode, config: &MachineConfig) -> Self {
        self.runs.push((mode, config.clone()));
        self
    }

    /// Adds a column computed from one workload's runs (indexed in the
    /// order of [`Figure::run`]). The mean row shows its mean unless
    /// [`Figure::no_mean`] follows.
    #[must_use]
    pub fn col(
        mut self,
        header: impl Into<String>,
        format: Format,
        value: impl Fn(&[SimStats]) -> f64 + 'static,
    ) -> Self {
        self.columns.push(Column {
            header: header.into(),
            format,
            in_mean: true,
            value: Box::new(value),
        });
        self
    }

    /// Adds a column computed from the run added last.
    ///
    /// # Panics
    ///
    /// Panics if no run has been added yet.
    #[must_use]
    pub fn run_col(
        self,
        header: impl Into<String>,
        format: Format,
        value: impl Fn(&SimStats) -> f64 + 'static,
    ) -> Self {
        let i = self.runs.len().checked_sub(1).expect("a run to read");
        self.col(header, format, move |r| value(&r[i]))
    }

    /// Adds a run and a column showing its IPC.
    #[must_use]
    pub fn ipc_run(
        self,
        header: impl Into<String>,
        mode: ExecMode,
        config: &MachineConfig,
    ) -> Self {
        self.run(mode, config)
            .run_col(header, Format::Ipc, SimStats::ipc)
    }

    /// Leaves the column added last blank in the mean row.
    ///
    /// # Panics
    ///
    /// Panics if no column has been added yet.
    #[must_use]
    pub fn no_mean(mut self) -> Self {
        self.columns.last_mut().expect("a column").in_mean = false;
        self
    }

    /// The figure's jobs: every run for each workload in turn.
    #[must_use]
    pub fn jobs(&self, workloads: &[Workload]) -> Vec<Job> {
        workloads
            .iter()
            .flat_map(|&w| self.runs.iter().map(move |(m, c)| Job::new(w, *m, c)))
            .collect()
    }

    /// The table of `results` (in [`Figure::jobs`] order): one row per
    /// workload, then the mean row.
    #[must_use]
    pub fn table(&self, workloads: &[Workload], results: &[SimStats]) -> Table {
        let mut header = vec!["app".to_owned()];
        header.extend(self.columns.iter().map(|c| c.header.clone()));
        let mut table = Table::new(header);
        let mut values = vec![Vec::new(); self.columns.len()];
        for (w, runs) in workloads.iter().zip(results.chunks_exact(self.runs.len())) {
            let mut cells = vec![w.name().to_owned()];
            for (c, v) in self.columns.iter().zip(&mut values) {
                let x = (c.value)(runs);
                v.push(x);
                cells.push(c.format.cell(x));
            }
            table.row(cells);
        }
        let mut cells = vec!["mean".to_owned()];
        cells.extend(self.columns.iter().zip(&values).map(|(c, v)| {
            if c.in_mean {
                c.format.cell(mean(v))
            } else {
                String::new()
            }
        }));
        table.row(cells);
        table
    }
}

/// The shared flag `cli` sets that a figure honouring only `honours`
/// cannot: `--seeds` above 1 or any `--metrics-window`. A grid honours
/// neither: it runs each declared job once, on default inputs, and
/// reports no windowed series.
fn unsupported_flag(cli: &Cli, honours: &[&str]) -> Option<&'static str> {
    [
        ("--seeds", cli.seeds > 1),
        ("--metrics-window", cli.metrics_window.is_some()),
    ]
    .into_iter()
    .find(|&(flag, set)| set && !honours.contains(&flag))
    .map(|(flag, _)| flag)
}

/// Parses the shared command line of a figure that honours only
/// `honours` of `--seeds` and `--metrics-window`; either of the others,
/// when set, is refused with exit 2.
#[must_use]
pub fn parse_cli(honours: &[&str]) -> Cli {
    let cli = Cli::parse();
    if let Some(flag) = unsupported_flag(&cli, honours) {
        eprintln!("error: this figure does not support {flag}");
        std::process::exit(2);
    }
    cli
}

/// The whole of a grid figure binary: parse the shared command line,
/// sweep `figure`'s runs over every workload, print the table and exit
/// 1 if any job failed. `--seeds` above 1 and `--metrics-window` are
/// refused with exit 2.
pub fn main(figure: Declaration) {
    let cli = parse_cli(&[]);
    let fig = figure();
    let mut h = Harness::new(cli.quick);
    let (results, errors) = h.try_sweep(&fig.jobs(&Workload::ALL), cli.threads);
    let table = fig.table(&Workload::ALL, &results);
    finish(&cli, fig.title, &fig.note, &table, None, &h, &errors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::ALL;

    #[test]
    fn every_column_reads_a_declared_run() {
        for (name, figure) in ALL {
            let fig = figure();
            let w = [Workload::Gzip];
            let results = vec![SimStats::default(); fig.jobs(&w).len()];
            let table = fig.table(&w, &results);
            assert_eq!(table.rows.len(), 2, "{name}: one workload row and the mean");
        }
    }

    #[test]
    fn flags_a_grid_cannot_honour_are_named() {
        let refused = |a: &[&str], honours: &[&str]| {
            let cli = Cli::from_vec(a.iter().map(|s| (*s).to_owned()).collect());
            unsupported_flag(&cli, honours)
        };
        assert_eq!(refused(&["--quick", "--seeds", "1"], &[]), None);
        assert_eq!(refused(&["--seeds", "3"], &[]), Some("--seeds"));
        assert_eq!(
            refused(&["--metrics-window", "100"], &[]),
            Some("--metrics-window")
        );
        // fig_recovery and fig_faults replicate across seeds but still
        // report no windowed series.
        assert_eq!(refused(&["--seeds", "3"], &["--seeds"]), None);
        assert_eq!(
            refused(&["--seeds", "3", "--metrics-window", "9"], &["--seeds"]),
            Some("--metrics-window")
        );
    }

    #[test]
    fn every_grid_figure_has_its_one_line_binary() {
        let bin = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for (name, _) in ALL {
            let src = std::fs::read_to_string(bin.join(format!("{name}.rs")))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                src.contains(&format!("grid::main(redsim_bench::figures::{name})")),
                "{name}.rs must run its declaration"
            );
        }
    }
}
