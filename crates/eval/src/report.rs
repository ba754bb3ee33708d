//! CSV reporting: rows go to stdout and are mirrored into
//! `results/<name>.csv` so EXPERIMENTS.md can cite stable artifacts.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::PathBuf;

/// A CSV report tee.
pub struct Report {
    file: Option<File>,
    columns: usize,
}

impl Report {
    /// Creates `results/<name>.csv` (directory created on demand) and
    /// writes the header. Falls back to stdout-only when the filesystem is
    /// read-only.
    #[must_use]
    pub fn new(name: &str, header: &[&str]) -> Self {
        let file = Self::open(name).ok();
        let mut report = Self {
            file,
            columns: header.len(),
        };
        report.row_str(header);
        report
    }

    fn open(name: &str) -> io::Result<File> {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        File::create(dir.join(format!("{name}.csv")))
    }

    fn emit(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{line}");
        }
    }

    /// Writes a row of preformatted cells.
    ///
    /// # Panics
    ///
    /// Panics when the arity differs from the header's.
    pub fn row_str(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.columns, "column arity mismatch");
        self.emit(&cells.join(","));
    }

    /// Writes a row of displayable cells.
    ///
    /// # Panics
    ///
    /// Panics when the arity differs from the header's.
    pub fn row(&mut self, cells: &[String]) {
        let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
        self.row_str(&refs);
    }

    /// Writes a free-form comment line (prefixed `#`, ignored by CSV
    /// consumers).
    pub fn comment(&mut self, text: &str) {
        self.emit(&format!("# {text}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_csv_file() {
        let name = format!("report-test-{}", std::process::id());
        {
            let mut r = Report::new(&name, &["a", "b"]);
            r.row(&["1".into(), "2".into()]);
            r.comment("note");
        }
        let content = std::fs::read_to_string(format!("results/{name}.csv")).expect("file written");
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
        assert!(content.contains("# note"));
        std::fs::remove_file(format!("results/{name}.csv")).ok();
    }

    #[test]
    #[should_panic(expected = "column arity mismatch")]
    fn arity_checked() {
        // Stdout only: the panic below would skip any file cleanup.
        let mut r = Report {
            file: None,
            columns: 2,
        };
        r.row(&["only-one".into()]);
    }
}
