//! Plain-text table rendering and CSV output for the study registry.

use std::fmt::Write as _;
use std::path::Path;

/// Render rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(
                out,
                "{:<w$}  ",
                cell,
                w = widths.get(i).copied().unwrap_or(0)
            );
        }
        out.push('\n');
    }
    out
}

/// Rows as CSV text: the header line, then one line per row. Cells
/// containing commas or quotes are quoted per RFC 4180.
pub fn csv_text(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut body = String::new();
    let escape = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    body.push_str(
        &headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    body.push('\n');
    for row in rows {
        body.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        body.push('\n');
    }
    body
}

/// Write [`csv_text`] to `<dir>/<name>.csv` (creating the directory),
/// returning the path written.
pub fn write_csv(
    dir: &Path,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, csv_text(headers, rows))?;
    Ok(path.display().to_string())
}

/// Format seconds with 2 decimal places.
///
/// The value is quantized to a fixed 1 ns grid before `{:.2}` rounding.
/// Model outputs sit arbitrarily close to a rounding knife-edge (the
/// nvm_study Ideal-direct cell lands on exactly 20.025 s), where
/// ulp-level event-ordering noise between engine implementations
/// (~1e-13 relative) flips the printed cell between 20.02 and 20.03.
/// Snapping to the nanosecond grid first absorbs that noise — the grid
/// point is many orders of magnitude wider than the noise — so committed
/// CSVs are byte-stable across engine refactors.
pub fn secs(t: f64) -> String {
    format!("{:.2}", quantize(t))
}

/// Format a ratio with 2 decimal places and an `x` suffix.
pub fn ratio(r: f64) -> String {
    format!("{:.2}x", quantize(r))
}

/// Snap a model output to a stable 1e-9 grid (see [`secs`]).
fn quantize(t: f64) -> f64 {
    (t * 1e9).round() / 1e9
}

/// Format bytes/s as decimal GB/s.
pub fn gbps(b: f64) -> String {
    format!("{:.1} GB/s", b / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let t = render_table(
            &["alg", "time"],
            &[
                vec!["GNU-flat".into(), "11.92".into()],
                vec!["MLM".into(), "8.09".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("alg"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("GNU-flat"));
        // Columns align: "time" header starts at the same offset in all rows.
        let col = lines[0].find("time").unwrap();
        assert_eq!(&lines[2][col..col + 5], "11.92");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let dir = std::env::temp_dir().join(format!("mlmbench-test-{}", std::process::id()));
        let rows = [vec!["x,y".into(), "he said \"hi\"".into()]];
        let path = write_csv(&dir, "escape_test", &["a", "b"], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(content, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(11.917), "11.92");
        assert_eq!(ratio(1.618), "1.62x");
        assert_eq!(gbps(90e9), "90.0 GB/s");
    }

    /// The nvm_study knife-edge: 20.025 s, which `{:.2}` alone renders
    /// differently depending on which side of the tie ulp noise lands.
    /// After nanosecond quantization, everything within the noise band
    /// around the knife-edge formats identically.
    #[test]
    fn knife_edge_values_format_stably() {
        let edge = 20.025_f64;
        // 2.7e-14 relative noise (PR 6's measured engine-order delta) in
        // both directions, plus a few wider margins well under 0.5 ns.
        for noise in [0.0, 2.7e-14 * edge, -2.7e-14 * edge, 1e-11, -1e-11] {
            assert_eq!(secs(edge + noise), "20.02", "noise {noise:e}");
        }
        // Values clearly off the edge still round normally.
        assert_eq!(secs(20.0251), "20.03");
        assert_eq!(secs(20.0249), "20.02");
    }
}
