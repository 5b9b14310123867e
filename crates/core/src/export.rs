//! Machine-readable export of every result: one CSV per paper table,
//! Table 10 half, Figure 6 and robustness sweep, with measured and
//! published values side by side. Each file is the CSV rendering of a
//! [`crate::report`] table.
//!
//! `nonstrict paper csv [dir]` drives this; downstream
//! plotting or regression tooling can diff the files across runs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::experiment::Suite;
use crate::report::csv_tables;

/// Writes every table and figure as CSV into `dir` (created if needed).
///
/// Returns the paths written, in table order.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_csv(suite: &Suite, dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for table in csv_tables(suite) {
        if let Some(file) = table.file {
            let path = dir.join(file);
            fs::write(&path, table.render_csv())?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Session;

    #[test]
    fn export_writes_all_files_with_headers() {
        let session = Session::new(nonstrict_workloads::hanoi::build()).unwrap();
        let suite = Suite {
            sessions: vec![session],
        };
        let dir = std::env::temp_dir().join(format!("nonstrict-export-{}", std::process::id()));
        let files = export_csv(&suite, &dir).unwrap();
        assert_eq!(files.len(), 18);
        for f in &files {
            let content = fs::read_to_string(f).unwrap();
            let mut lines = content.lines();
            let header = lines.next().unwrap();
            assert!(header.contains(','), "{f:?} header");
            assert!(lines.count() >= 1, "{f:?} must carry at least one row");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
