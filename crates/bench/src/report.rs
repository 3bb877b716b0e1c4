//! Reporting: markdown/CSV tables and the [`ReportSink`] every figure
//! binary emits through.
//!
//! A `ReportSink` is the single place harness output flows: headers and
//! notes via [`ReportSink::line`], tables via [`ReportSink::table`]
//! (markdown to stdout, CSV to `results/<name>.csv`). Every byte is also
//! captured in-memory, which is what the serial-vs-parallel determinism
//! test compares: because figure code formats *after* the [`Runner`]
//! returns order-preserved results, the captured bytes are identical at
//! any worker count.
//!
//! [`Runner`]: crate::runner::Runner

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A markdown/CSV table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column names.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders github-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        let _ = writeln!(s, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        let _ = writeln!(s, "{sep}");
        for r in &self.rows {
            let _ = writeln!(s, "{}", fmt_row(r, &widths));
        }
        s
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let esc = |c: &String| {
            if c.contains(',') {
                format!("\"{c}\"")
            } else {
                c.clone()
            }
        };
        let _ = writeln!(
            s,
            "{}",
            self.header.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        s
    }

    /// Prints the markdown and writes `results/<name>.csv` (the legacy
    /// single-shot path; harness code goes through [`ReportSink`]).
    pub fn emit(&self, name: &str) {
        let mut sink = ReportSink::stdout();
        sink.table(name, self);
    }
}

/// Where harness output goes: stdout + `results/` CSVs for the binaries,
/// or silent in-memory capture for tests and timing harnesses. All bytes
/// are captured either way.
#[derive(Clone, Debug)]
pub struct ReportSink {
    echo: bool,
    results_dir: Option<PathBuf>,
    captured: String,
    csvs: Vec<(String, String)>,
}

impl ReportSink {
    /// A sink that prints to stdout and writes CSVs under `results/`.
    pub fn stdout() -> Self {
        ReportSink {
            echo: true,
            results_dir: Some(PathBuf::from("results")),
            captured: String::new(),
            csvs: Vec::new(),
        }
    }

    /// A silent sink: captures everything, prints and writes nothing.
    /// The determinism tests and the timing harness run figures through
    /// this.
    pub fn capture() -> Self {
        ReportSink {
            echo: false,
            results_dir: None,
            captured: String::new(),
            csvs: Vec::new(),
        }
    }

    /// Emits one line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        self.captured.push_str(s);
        self.captured.push('\n');
        if self.echo {
            println!("{s}");
        }
    }

    /// Emits a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Emits a table: markdown (followed by a blank line, as the legacy
    /// binaries printed) plus the CSV, which is written to
    /// `results/<name>.csv` when a results directory is configured and
    /// always retained for [`ReportSink::csv`].
    pub fn table(&mut self, name: &str, t: &Table) {
        let md = t.to_markdown();
        self.captured.push_str(&md);
        self.captured.push('\n');
        if self.echo {
            println!("{md}");
        }
        let csv = t.to_csv();
        if let Some(dir) = &self.results_dir {
            if fs::create_dir_all(dir).is_ok() {
                let path = dir.join(format!("{name}.csv"));
                if let Err(e) = fs::write(&path, &csv) {
                    eprintln!("note: could not write {}: {e}", path.display());
                } else {
                    self.line(format!("(csv written to {})", path.display()));
                    self.blank();
                }
            }
        }
        self.csvs.push((name.to_string(), csv));
    }

    /// Every byte emitted so far (markdown, notes, headers).
    pub fn captured(&self) -> &str {
        &self.captured
    }

    /// The CSV bytes of a table emitted under `name`.
    pub fn csv(&self, name: &str) -> Option<&str> {
        self.csvs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }

    /// Names of all tables emitted, in order.
    pub fn table_names(&self) -> Vec<&str> {
        self.csvs.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Arithmetic-mean helper used for the headline averages.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_and_csv() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "hello,world"]);
        let md = t.to_markdown();
        assert!(md.contains("| a"));
        assert!(md.lines().count() == 3);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello,world\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn capture_sink_collects_everything_silently() {
        let mut sink = ReportSink::capture();
        sink.line("# header");
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1"]);
        sink.table("unit_capture", &t);
        assert!(sink.captured().starts_with("# header\n"));
        assert!(sink.captured().contains("| x"));
        assert_eq!(sink.csv("unit_capture"), Some("x\n1\n"));
        assert_eq!(sink.table_names(), vec!["unit_capture"]);
        assert!(sink.csv("missing").is_none());
        // Nothing was written to disk.
        assert!(sink.results_dir.is_none());
    }

    #[test]
    fn mean_of_values() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
