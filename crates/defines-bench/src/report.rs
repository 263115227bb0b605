//! Plain-text table / heatmap rendering and JSON dumps for the experiment
//! binaries.

use serde::Serialize;
use std::fmt::Display;
use std::fs;
use std::path::Path;

/// Renders a simple aligned table.
///
/// `header` and every row must have the same number of columns.
pub fn table<H: Display, C: Display>(header: &[H], rows: &[Vec<C>]) -> String {
    let header_strings: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let row_strings: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let cols = header_strings.len();
    let mut widths: Vec<usize> = header_strings.iter().map(|s| s.len()).collect();
    for row in &row_strings {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&header_strings, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
    out.push('\n');
    for row in &row_strings {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a heatmap-style matrix (Fig. 12): row labels down the side, column
/// labels across the top, one numeric cell per combination.
pub fn heatmap<L: Display>(
    title: &str,
    col_labels: &[L],
    row_labels: &[L],
    values: &[Vec<f64>],
    unit: &str,
) -> String {
    let mut out = format!("{title} [{unit}]\n");
    let mut header: Vec<String> = vec!["Ty \\ Tx".to_string()];
    header.extend(col_labels.iter().map(|c| c.to_string()));
    let rows: Vec<Vec<String>> = row_labels
        .iter()
        .zip(values)
        .map(|(label, row)| {
            let mut cells = vec![label.to_string()];
            cells.extend(row.iter().map(|v| format!("{v:.1}")));
            cells
        })
        .collect();
    out.push_str(&table(&header, &rows));
    out
}

/// Formats a ratio ("10.2x") between a baseline and an improved value.
pub fn ratio(baseline: f64, improved: f64) -> String {
    if improved <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.1}x", baseline / improved)
}

/// Writes a serializable result to a JSON file, creating parent directories.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json<T: Serialize>(
    path: impl AsRef<Path>,
    value: &T,
) -> Result<(), Box<dyn std::error::Error>> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, serde_json::to_string_pretty(value)?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[vec!["a".to_string(), "1".to_string()]],
        );
        assert!(t.contains("name"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    fn heatmap_contains_all_cells() {
        let h = heatmap(
            "test",
            &[1, 2],
            &[10, 20],
            &[vec![1.0, 2.0], vec![3.0, 4.0]],
            "mJ",
        );
        assert!(h.contains("test"));
        assert!(h.contains("3.0"));
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(10.0, 1.0), "10.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("defines_bench_test");
        let path = dir.join("out.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('2'));
        let _ = std::fs::remove_dir_all(dir);
    }
}
