//! Table rendering for the experiment harness.
//!
//! Every reproduced table/figure is emitted both as an aligned plain-text
//! table (human inspection) and as CSV (plotting). [`Table`] is a tiny,
//! dependency-free formatter shared by all experiments.

use core::fmt::Write as _;

/// A simple column-aligned table with a title and optional caption.
///
/// # Examples
///
/// ```
/// use switchless_sim::report::Table;
///
/// let mut t = Table::new("F1: wakeup latency", &["design", "p50 (ns)", "p99 (ns)"]);
/// t.row(&["legacy-irq", "2100", "4800"]);
/// t.row(&["hwt-mwait", "15", "40"]);
/// let text = t.render();
/// assert!(text.contains("legacy-irq"));
/// let csv = t.to_csv();
/// assert!(csv.starts_with("design,p50 (ns),p99 (ns)\n"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    caption: Option<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            caption: None,
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// allowed (extra cells render but get no header).
    pub fn row(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(|s| (*s).to_owned()).collect());
    }

    /// Appends a row of already-owned strings (convenient with `format!`).
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Sets a caption rendered under the table.
    pub fn caption(&mut self, text: &str) {
        self.caption = Some(text.to_owned());
    }

    /// Table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned plain-text form.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }

        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w - cell.chars().count();
                // Right-align numeric-looking cells, left-align text.
                let numeric = !cell.is_empty()
                    && cell
                        .chars()
                        .all(|ch| ch.is_ascii_digit() || ".-+e%x".contains(ch));
                if numeric {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        if let Some(c) = &self.caption {
            let _ = writeln!(out, "  note: {c}");
        }
        out
    }

    /// Renders the CSV form (RFC-4180 quoting for cells that need it).
    ///
    /// The output is always rectangular: every line is padded with empty
    /// cells to the widest of the header and any data row, matching the
    /// padding promise [`Table::row`] makes for the rendered form.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let line = |cells: &[String]| {
            let mut csv: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            csv.resize(ncols, String::new());
            csv.join(",")
        };
        let _ = writeln!(out, "{}", line(&self.headers));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r));
        }
        out
    }

    /// The file-name slug derived from the title: lowercased, runs of
    /// non-alphanumerics collapsed to `_`.
    ///
    /// Distinct titles can share a slug (they may differ only in
    /// punctuation); [`CsvSink`] detects and uniquifies such collisions
    /// within a run.
    #[must_use]
    pub fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }

    /// Writes the CSV form to `dir/<slug>.csv`, creating the directory.
    ///
    /// Returns the written path. Note this overwrites whatever is at that
    /// path; when emitting many tables in one run, prefer [`CsvSink`],
    /// which detects slug collisions between distinct titles.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.slug()));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Writes a run's tables into one directory, uniquifying slug collisions.
///
/// Two titles differing only in punctuation (`"F9: x!"` vs `"F9; x?"`)
/// map to the same [`Table::slug`]; writing both through
/// [`Table::write_csv`] would silently clobber the first. A sink tracks
/// every file name it has produced and gives later colliders a `_2`,
/// `_3`, ... suffix, so each table in a run lands in its own file.
///
/// File-name assignment depends only on the order of [`CsvSink::write`]
/// calls, so a harness that writes tables in a fixed (registry) order
/// produces identical trees regardless of how the tables were computed.
#[derive(Clone, Debug)]
pub struct CsvSink {
    dir: std::path::PathBuf,
    used: std::collections::BTreeSet<String>,
}

impl CsvSink {
    /// Creates a sink writing into `dir` (created on first write).
    #[must_use]
    pub fn new(dir: &std::path::Path) -> CsvSink {
        CsvSink {
            dir: dir.to_owned(),
            used: std::collections::BTreeSet::new(),
        }
    }

    /// Writes `table` to `<dir>/<slug>.csv`, appending `_2`, `_3`, ... to
    /// the slug if a previous write in this run already took it. Returns
    /// the written path.
    pub fn write(&mut self, table: &Table) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let base = table.slug();
        let mut slug = base.clone();
        let mut n = 1u32;
        while !self.used.insert(slug.clone()) {
            n += 1;
            slug = format!("{base}_{n}");
        }
        let path = self.dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.to_csv())?;
        Ok(path)
    }
}

/// Builds a two-column table from every counter whose name starts with
/// `prefix`, in name order.
///
/// Used by fault-injection experiments to report per-fault-kind totals
/// (e.g. every `fault.*` counter) without hand-listing the names.
#[must_use]
pub fn counters_table(title: &str, counters: &crate::stats::Counters, prefix: &str) -> Table {
    let mut t = Table::new(title, &["counter", "count"]);
    for (name, value) in counters.iter() {
        if name.starts_with(prefix) {
            t.row_owned(vec![name.to_owned(), value.to_string()]);
        }
    }
    t
}

/// Formats a float with engineering-friendly precision.
///
/// Values ≥ 100 get no decimals, ≥ 10 one decimal, otherwise two.
#[must_use]
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a >= 100.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short", "1"]);
        t.row(&["much-longer-name", "23456"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[3].starts_with("short"));
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["has,comma", "has\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn csv_quotes_carriage_returns() {
        // RFC 4180: a field holding CR (alone or in CRLF) must be quoted,
        // or a reader splits the record there.
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["cr\rhere", "crlf\r\nhere"]);
        t.row(&["plain", "lf\nhere"]);
        assert_eq!(
            t.to_csv(),
            "a,b\n\"cr\rhere\",\"crlf\r\nhere\"\nplain,\"lf\nhere\"\n"
        );
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("switchless_report_test");
        let mut t = Table::new("F9: Priority vs RR!", &["n", "lat"]);
        t.row(&["1", "2"]);
        let path = t.write_csv(&dir).unwrap();
        assert!(path.ends_with("f9_priority_vs_rr.csv"));
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "n,lat\n1,2\n");
    }

    #[test]
    fn short_rows_pad() {
        let mut t = Table::new("p", &["a", "b", "c"]);
        t.row(&["only-one"]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn csv_is_rectangular_with_short_and_long_rows() {
        let mut t = Table::new("p", &["a", "b", "c"]);
        t.row(&["only-one"]);
        t.row(&["1", "2", "3", "4"]); // longer than the header
        let csv = t.to_csv();
        let widths: Vec<usize> = csv.lines().map(|l| l.split(',').count()).collect();
        assert_eq!(widths, vec![4, 4, 4], "every line padded to the widest");
        assert!(csv.contains("only-one,,,"));
        assert!(csv.starts_with("a,b,c,\n"));
    }

    #[test]
    fn csv_sink_uniquifies_colliding_slugs() {
        let dir = std::env::temp_dir().join("switchless_csv_sink_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = CsvSink::new(&dir);
        let mut a = Table::new("F9: priority, vs RR!", &["n"]);
        a.row(&["1"]);
        let mut b = Table::new("F9; priority vs RR?", &["n"]);
        b.row(&["2"]);
        let pa = sink.write(&a).unwrap();
        let pb = sink.write(&b).unwrap();
        assert_eq!(a.slug(), b.slug(), "titles collide by construction");
        assert_ne!(pa, pb);
        assert!(pa.ends_with("f9_priority_vs_rr.csv"));
        assert!(pb.ends_with("f9_priority_vs_rr_2.csv"));
        assert_eq!(std::fs::read_to_string(&pa).unwrap(), "n\n1\n");
        assert_eq!(std::fs::read_to_string(&pb).unwrap(), "n\n2\n");
    }

    #[test]
    fn csv_sink_suffix_skips_taken_names() {
        let dir = std::env::temp_dir().join("switchless_csv_sink_suffix_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = CsvSink::new(&dir);
        // "x 2" claims the slug "x_2" before "x" ever collides.
        for title in ["x 2", "x", "x!"] {
            let mut t = Table::new(title, &["h"]);
            t.row(&["v"]);
            sink.write(&t).unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, vec!["x.csv", "x_2.csv", "x_3.csv"]);
    }

    #[test]
    fn fnum_precision() {
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(42.25), "42.2");
        assert_eq!(fnum(3.21987), "3.22");
        assert_eq!(fnum(0.5), "0.50");
    }

    #[test]
    fn counters_table_filters_by_prefix() {
        let mut c = crate::stats::Counters::default();
        c.add("fault.nic.drop", 3);
        c.add("fault.ssd.read_error", 1);
        c.add("nic.rx.packets", 500);
        let t = counters_table("faults", &c, "fault.");
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert!(csv.contains("fault.nic.drop,3"));
        assert!(!csv.contains("nic.rx.packets"));
    }

    #[test]
    fn caption_rendered() {
        let mut t = Table::new("t", &["h"]);
        t.row(&["v"]);
        t.caption("hello");
        assert!(t.render().contains("note: hello"));
    }
}
