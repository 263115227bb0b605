//! An append-only JSONL journal: the one on-disk format behind every file
//! that must survive the process dying at an arbitrary instant (matrix
//! checkpoints in `defines-core`, the mapping-cache store in
//! `defines-mapping`).
//!
//! # Format and contract
//!
//! * One compact JSON value per line. The first non-empty line is a
//!   **header object**; what it must contain (a format key, a version) is the
//!   consumer's business.
//! * **Append** is one `write_all(json + "\n")` followed by `flush` — no
//!   per-line `fsync`. The contract is survival of *process* death (a kill
//!   loses at most the line it interrupted), not of power loss.
//! * **Torn tail**: an unparseable *last* non-empty line is what a kill
//!   mid-append leaves behind. [`Journal::read`] drops and reports it; an
//!   unparseable line anywhere else — or an unparseable header — is an error
//!   naming the file and the 1-based line.
//! * **Rewrite** ([`Journal::rewrite`]) produces the new content in a
//!   `<name>.tmp` sibling, `flush`es and `sync_all`s it, then `rename`s it
//!   over the original: a crash at any instant leaves either the old or the
//!   new file, never a hybrid, and the renamed file's data is on disk before
//!   the name points at it. The handle keeps appending to the new file. A
//!   `.tmp` left behind by a rewrite that died before its rename is garbage
//!   (the original is intact) and is removed by [`Journal::open`].
//!
//! The `journal.*` failpoints sit on every step a kill can separate; the
//! campaign in `tests/failpoint_journal.rs` drives them.

use defines_telemetry::failpoint;
use serde::Value;
use std::borrow::Borrow;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// An error reading or writing a journal file. The message names the file
/// and, for content errors, the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError(String);

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JournalError {}

/// An open journal file, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    /// What the file is, for error messages (`"checkpoint"`, `"store"`).
    what: &'static str,
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens `path` for appending, creating it when missing, and removes a
    /// stale `.tmp` sibling left by a rewrite that died before its rename.
    pub fn open(what: &'static str, path: &Path) -> Result<Self, JournalError> {
        let tmp = tmp_path(path);
        if tmp.exists() {
            std::fs::remove_file(&tmp).map_err(|e| {
                JournalError(format!("cannot remove stale '{}': {e}", tmp.display()))
            })?;
        }
        let file = File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| JournalError(format!("cannot open {what} '{}': {e}", path.display())))?;
        Ok(Journal {
            what,
            path: path.to_path_buf(),
            file,
        })
    }

    /// The file this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams the file's non-empty lines, in order, to
    /// `visit(line number, value, is_last)` — line numbers are 1-based file
    /// lines, and the first call is the header. Returns whether a torn tail
    /// (see the module docs) was dropped. An `Err(why)` from `visit` aborts
    /// the read with an error naming the file and line; a consumer that
    /// wants to tolerate a content-broken record in last position checks
    /// `is_last` and returns `Ok`.
    ///
    /// A file without any non-empty line yields no call and `Ok(false)`.
    pub fn read(
        what: &'static str,
        path: &Path,
        mut visit: impl FnMut(usize, Value, bool) -> Result<(), String>,
    ) -> Result<bool, JournalError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| JournalError(format!("cannot read {what} '{}': {e}", path.display())))?;
        let bad = |line_no: usize, why: String| {
            JournalError(format!("{what} '{}' line {line_no}: {why}", path.display()))
        };
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .peekable();
        let mut header = true;
        while let Some((index, line)) = lines.next() {
            let is_last = lines.peek().is_none();
            match serde_json::from_str(line) {
                Ok(value) => visit(index + 1, value, is_last).map_err(|why| bad(index + 1, why))?,
                Err(_) if is_last && !header => return Ok(true),
                Err(e) => return Err(bad(index + 1, format!("invalid JSON: {e}"))),
            }
            header = false;
        }
        Ok(false)
    }

    /// Appends one line and flushes, so a kill right after loses at most the
    /// line it interrupted.
    pub fn append(&mut self, value: &Value) -> Result<(), JournalError> {
        failpoint!("journal.append");
        let mut line = value.to_json();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| {
                JournalError(format!(
                    "cannot append to {} '{}': {e}",
                    self.what,
                    self.path.display()
                ))
            })
    }

    /// Atomically replaces the file's content with `lines` (header first) and
    /// keeps appending after them — see the module docs for the crash
    /// contract.
    pub fn rewrite<V: Borrow<Value>>(
        &mut self,
        lines: impl IntoIterator<Item = V>,
    ) -> Result<(), JournalError> {
        failpoint!("journal.rewrite.begin");
        let tmp = tmp_path(&self.path);
        let mut file = File::create(&tmp)
            .map_err(|e| JournalError(format!("cannot create '{}': {e}", tmp.display())))?;
        for (i, value) in lines.into_iter().enumerate() {
            if i > 0 {
                failpoint!("journal.rewrite.mid");
            }
            let mut line = value.borrow().to_json();
            line.push('\n');
            file.write_all(line.as_bytes())
                .map_err(|e| JournalError(format!("cannot write '{}': {e}", tmp.display())))?;
        }
        file.flush()
            .and_then(|()| file.sync_all())
            .map_err(|e| JournalError(format!("cannot flush '{}': {e}", tmp.display())))?;
        failpoint!("journal.rewrite.rename");
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            JournalError(format!(
                "cannot replace {} '{}': {e}",
                self.what,
                self.path.display()
            ))
        })?;
        // The handle followed the rename (same inode) and sits at its end.
        self.file = file;
        Ok(())
    }
}

/// The `<name>.tmp` sibling a rewrite stages its content in.
fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("journal");
    path.with_file_name(format!("{name}.tmp"))
}

/// Looks a required key up in a JSON object.
pub fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// A required unsigned-integer field.
pub fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("'{key}' is not an unsigned integer"))
}

/// A required numeric field.
pub fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("'{key}' is not a number"))
}

/// A required string field.
pub fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("'{key}' is not a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("defines-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{test}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn record(n: u64) -> Value {
        Value::Object(vec![("n".into(), Value::U64(n))])
    }

    /// Every line as `(line number, n, is_last)`, and the torn-tail flag.
    type Lines = (Vec<(usize, u64, bool)>, bool);

    fn read_all(path: &Path) -> Result<Lines, JournalError> {
        let mut seen = Vec::new();
        let torn = Journal::read("test", path, |line, value, last| {
            seen.push((line, u64_field(&value, "n")?, last));
            Ok(())
        })?;
        Ok((seen, torn))
    }

    #[test]
    fn torn_last_line_is_dropped_and_flagged() {
        let path = scratch("torn");
        std::fs::write(&path, "{\"n\":0}\n{\"n\":1}\n{\"n\":").unwrap();
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen, vec![(1, 0, false), (2, 1, false)]);
        assert!(torn);
        // A trailing newline after the partial line changes nothing.
        std::fs::write(&path, "{\"n\":0}\n{\"n\":1}\n{\"n\":\n\n").unwrap();
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen.len(), 2);
        assert!(torn);
    }

    #[test]
    fn corrupt_interior_line_and_header_are_errors_naming_path_and_line() {
        let path = scratch("corrupt");
        std::fs::write(&path, "{\"n\":0}\n\noops\n{\"n\":2}\n").unwrap();
        let err = read_all(&path).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("line 3"), "{err}");
        // An unparseable header is never a torn tail, even as the only line.
        std::fs::write(&path, "{\"n\":").unwrap();
        let err = read_all(&path).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        // A visitor's own complaint is decorated the same way.
        std::fs::write(&path, "{\"n\":0}\n{\"m\":1}\n").unwrap();
        let err = read_all(&path).unwrap_err().to_string();
        assert!(err.contains("line 2: missing field 'n'"), "{err}");
    }

    #[test]
    fn empty_file_yields_nothing_and_missing_newline_loses_nothing() {
        let path = scratch("empty");
        std::fs::write(&path, "").unwrap();
        assert_eq!(read_all(&path).unwrap(), (Vec::new(), false));
        std::fs::write(&path, "\n  \n").unwrap();
        assert_eq!(read_all(&path).unwrap(), (Vec::new(), false));
        std::fs::write(&path, "{\"n\":0}\n{\"n\":1}").unwrap();
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen, vec![(1, 0, false), (2, 1, true)]);
        assert!(!torn);
        assert!(Journal::read("test", &scratch("missing"), |_, _, _| Ok(())).is_err());
    }

    #[test]
    fn open_removes_a_stale_tmp_and_appends_after_existing_content() {
        let path = scratch("stale");
        let tmp = tmp_path(&path);
        std::fs::write(&path, "{\"n\":0}\n").unwrap();
        std::fs::write(&tmp, "garbage").unwrap();
        let mut journal = Journal::open("test", &path).unwrap();
        assert!(!tmp.exists());
        journal.append(&record(1)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":0}\n{\"n\":1}\n"
        );
    }

    #[test]
    fn rewrite_leaves_no_tmp_and_the_handle_appends_after_the_new_content() {
        let path = scratch("rewrite");
        let mut journal = Journal::open("test", &path).unwrap();
        for n in 0..4 {
            journal.append(&record(n)).unwrap();
        }
        let kept = [record(0), record(3)];
        journal.rewrite(&kept).unwrap();
        assert!(!tmp_path(&path).exists());
        journal.append(&record(9)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":0}\n{\"n\":3}\n{\"n\":9}\n"
        );
    }
}
