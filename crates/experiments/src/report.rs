//! The one result schema: every experiment returns a [`Report`], which the
//! runner prints and writes to `results/<name>.json`. [`Report::render`] is
//! the one printer: the runner's stdout and EXPERIMENTS.md's measured blocks
//! are both its output.
//!
//! A report is an ordered list of [`Item`]s: headlines, lines of text with
//! named scalars in them, and tables whose columns are numbers with a
//! display format. The numbers are kept at full precision; the format only
//! decides how they print, so the JSON pins every bit the run produced.

use ms_data::metrics::{format_flops, format_params};
use serde::{Deserialize, Serialize};

/// How a number prints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fmt {
    /// Fixed-point with this many decimals.
    Dec(usize),
    /// A fraction as a percentage with two decimals (the paper's accuracy
    /// style).
    Pct,
    /// A whole number.
    Int,
    /// Per-sample MACs, scaled to `K`/`M`/`G`.
    Flops,
    /// A parameter count, scaled to `K`/`M`.
    Params,
}

impl Fmt {
    /// `v` as this format prints it.
    pub fn show(self, v: f64) -> String {
        match self {
            Fmt::Dec(d) => format!("{v:.d$}"),
            Fmt::Pct => format!("{:.2}", v * 100.0),
            Fmt::Int => format!("{v}"),
            Fmt::Flops => format_flops(v as u64),
            Fmt::Params => format_params(v as u64),
        }
    }
}

/// A named number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scalar {
    /// What the number is.
    pub name: String,
    /// The value, at full precision.
    pub value: f64,
    /// How it prints.
    pub fmt: Fmt,
}

/// Shorthand for a [`Scalar`].
pub fn scalar(name: &str, value: f64, fmt: Fmt) -> Scalar {
    Scalar {
        name: name.into(),
        value,
        fmt,
    }
}

/// One column of a [`Table`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Header.
    pub name: String,
    /// How the cells print.
    pub fmt: Fmt,
    /// One value per row.
    pub values: Vec<f64>,
}

/// Rows with a label each, and numeric columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Caption printed above the table (with a colon), if any.
    pub title: Option<String>,
    /// Header of the row-label column.
    pub key: String,
    /// Row labels.
    pub rows: Vec<String>,
    /// The data.
    pub columns: Vec<Column>,
}

impl Table {
    /// An untitled table with these row labels and no columns yet.
    pub fn new(key: &str, rows: Vec<String>) -> Self {
        Table {
            title: None,
            key: key.into(),
            rows,
            columns: Vec::new(),
        }
    }

    /// Sets the caption.
    pub fn titled(mut self, title: &str) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a column; it must have one value per row.
    pub fn col(mut self, name: &str, fmt: Fmt, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), self.rows.len(), "column {name}: ragged");
        self.columns.push(Column {
            name: name.into(),
            fmt,
            values,
        });
        self
    }

    /// The rows in reverse order (the paper lists rates descending).
    pub fn rev(mut self) -> Self {
        self.rows.reverse();
        for c in &mut self.columns {
            c.values.reverse();
        }
        self
    }

    fn render(&self, out: &mut String) {
        if let Some(title) = &self.title {
            *out += &format!("{title}:\n");
        }
        let mut headers = vec![self.key.as_str()];
        headers.extend(self.columns.iter().map(|c| c.name.as_str()));
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let mut row = vec![label.clone()];
                row.extend(self.columns.iter().map(|c| c.fmt.show(c.values[i])));
                row
            })
            .collect();
        render_table(&headers, &rows, out);
    }
}

/// One element of a [`Report`], printed in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// A headline, set off by a blank line above and below.
    Title(String),
    /// One line of text; each `{}` in it is replaced by the next scalar.
    Line { text: String, scalars: Vec<Scalar> },
    /// A table.
    Table(Table),
    /// A heat map (paper Fig. 6): row `g` is one value per epoch, printed
    /// as shades of the largest value of the map, then the row's last value.
    Heat(Vec<Vec<f64>>),
    /// A table kept in the JSON but not printed (curves the printout
    /// samples).
    Record(Table),
}

/// What an experiment returns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The contents, in print order.
    pub items: Vec<Item>,
}

impl Report {
    /// Appends a headline.
    pub fn title(&mut self, text: &str) {
        self.items.push(Item::Title(text.into()));
    }

    /// Appends a line of text with `scalars` in its `{}` marks.
    pub fn line(&mut self, text: &str, scalars: Vec<Scalar>) {
        assert_eq!(text.matches("{}").count(), scalars.len(), "{text}");
        self.items.push(Item::Line {
            text: text.into(),
            scalars,
        });
    }

    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.items.push(Item::Table(table));
    }

    /// The report as plain text, one `\n`-terminated line at a time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Title(text) => out += &format!("\n{text}\n\n"),
                Item::Line { text, scalars } => {
                    let mut parts = text.split("{}");
                    out += parts.next().unwrap_or_default();
                    for (part, s) in parts.zip(scalars) {
                        out += &s.fmt.show(s.value);
                        out += part;
                    }
                    out.push('\n');
                }
                Item::Table(table) => table.render(&mut out),
                Item::Heat(rows) => {
                    let max = rows.iter().flatten().cloned().fold(0.0f64, f64::max);
                    for (g, row) in rows.iter().enumerate() {
                        let shades: String = row.iter().map(|&v| shade(v, max)).collect();
                        let last = row.last().copied().unwrap_or(0.0);
                        out += &format!("  G{:<2} |{shades}| final {last:.3}\n", g + 1);
                    }
                }
                Item::Record(_) => {}
            }
        }
        out
    }
}

/// `v` on the ASCII ramp ` .:-=+#@`, scaled by `max`.
fn shade(v: f64, max: f64) -> char {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
    let idx = ((v / max.max(1e-9)) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

/// Appends a fixed-width table to `out`: a header row, a rule, then data
/// rows. Column widths adapt to content.
fn render_table(headers: &[&str], rows: &[Vec<String>], out: &mut String) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), widths.len(), "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |out: &mut String, cells: Vec<&str>| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &width)| format!("{c:>width$}"))
            .collect();
        *out += &format!("{}\n", cells.join("  "));
    };
    line(out, headers.to_vec());
    let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    *out += &format!("{}\n", "-".repeat(rule));
    for row in rows {
        line(out, row.iter().map(String::as_str).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(Fmt::Pct.show(0.9431), "94.31");
        assert_eq!(Fmt::Dec(2).show(1.23456), "1.23");
        assert_eq!(Fmt::Int.show(8329.0), "8329");
        assert_eq!(Fmt::Flops.show(1_600_000.0), "1.6M");
        assert_eq!(Fmt::Params.show(15_600.0), "15.6K");
    }

    /// One item of every kind, the `Record` last.
    fn sample() -> Report {
        let mut r = Report::default();
        r.title("T");
        r.line(
            "x {} y {}",
            vec![scalar("a", 0.1, Fmt::Pct), scalar("b", 3.0, Fmt::Int)],
        );
        r.table(Table::new("rate", vec!["1.0".into()]).titled("t").col(
            "acc",
            Fmt::Pct,
            vec![1.0 / 3.0],
        ));
        r.items.push(Item::Heat(vec![vec![0.5, 1.0]]));
        let record = Table::new("epoch", vec!["1".into()]).col("err", Fmt::Dec(2), vec![7.0]);
        r.items.push(Item::Record(record));
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let back: Report = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    /// EXPERIMENTS.md's blocks are this text, so its layout is pinned.
    #[test]
    fn render_lays_out_every_item_and_skips_records() {
        let lines = [
            "",
            "T",
            "",
            "x 10.00 y 3",
            "t:",
            "rate    acc",
            "-----------",
            " 1.0  33.33",
            "  G1  |=@| final 1.000",
        ];
        assert_eq!(
            sample().render(),
            lines.map(|l| l.to_string() + "\n").concat()
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_columns() {
        let _ = Table::new("a", vec!["1".into()]).col("b", Fmt::Int, vec![]);
    }
}
