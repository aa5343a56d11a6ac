//! Plain-text table printing for experiment output.

/// Prints a fixed-width table: a header row, a rule, then data rows. Column
/// widths adapt to content.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        s
    };
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats a float with `d` decimals.
pub fn fmt(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Formats a percentage with two decimals (the paper's accuracy style).
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(pct(0.9431), "94.31");
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            &["rate", "acc"],
            &[
                vec!["1.0".into(), "94.31".into()],
                vec!["0.5".into(), "93.90".into()],
            ],
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
