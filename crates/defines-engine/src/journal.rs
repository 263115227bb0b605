//! An append-only JSONL journal: the one on-disk format behind every file
//! that must survive the process dying at an arbitrary instant (matrix
//! checkpoints in `defines-core`, the mapping-cache store in
//! `defines-mapping`).
//!
//! # Format and contract
//!
//! * One compact JSON value per line, written by the value's
//!   [`Serialize`] impl into a buffer the journal reuses. The first non-empty
//!   line is a **header object**; what it must contain (a format key, a
//!   version) is the consumer's business.
//! * **Append** is one `write_all(json + "\n")` followed by `flush` — no
//!   per-line `fsync`. The contract is survival of *process* death (a kill
//!   loses at most the line it interrupted), not of power loss.
//! * **Batch append** ([`Journal::append_all`]) renders every line of the
//!   batch into the same buffer and issues one `write_all` + `flush` for
//!   all of them. A kill inside that write leaves the file as a kill
//!   between per-line appends at the same byte would: a prefix of whole
//!   lines plus at most one torn tail, which [`Journal::read`] drops. A
//!   batch is not atomic: the lines after the cut are lost with it.
//! * **Read** streams the file through one buffered reader, a line and its
//!   lookahead at a time, and hands each line to the consumer as a borrowed
//!   [`ValueRef`] on one [`Tape`] reused across lines, so reading holds
//!   neither the whole file nor an owned tree.
//! * **Torn tail**: a *last* non-empty line that is not valid UTF-8 or not
//!   valid JSON is what a kill mid-append leaves behind (the cut can land
//!   inside a multi-byte character). [`Journal::read`] drops and reports it;
//!   such a line anywhere else — or as the header — is an error naming the
//!   file and the 1-based line.
//! * **Rewrite** ([`Journal::rewrite`]) produces the new content in a
//!   `<name>.tmp` sibling through one buffered writer (one `write` per
//!   buffer, not per line), `flush`es and `sync_all`s it, then `rename`s it
//!   over the original: a crash at any instant leaves either the old or the
//!   new file, never a hybrid, and the renamed file's data is on disk before
//!   the name points at it. The handle keeps appending to the new file. A
//!   `.tmp` left behind by a rewrite that died before its rename is garbage
//!   (the original is intact) and is removed by [`Journal::open`].
//!
//! The `journal.*` failpoints sit on every step a kill can separate; the
//! campaign in `tests/failpoint_journal.rs` drives them.

use defines_telemetry::failpoint;
use serde::{Serialize, Tape, ValueRef, Writer};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Bytes a rewrite buffers before each `write` to its `.tmp` file.
const REWRITE_BUFFER: usize = 1 << 16;

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
    /// The line being written, reused across appends and rewrites.
    line: String,
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
            line: String::new(),
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
        mut visit: impl FnMut(usize, ValueRef<'_>, bool) -> Result<(), String>,
    ) -> Result<bool, JournalError> {
        let cannot_read = |e: std::io::Error| {
            JournalError(format!("cannot read {what} '{}': {e}", path.display()))
        };
        let bad = |line_no: usize, why: String| {
            JournalError(format!("{what} '{}' line {line_no}: {why}", path.display()))
        };
        let mut lines = Lines {
            reader: BufReader::new(File::open(path).map_err(cannot_read)?),
            line_no: 0,
        };
        // The line being visited and its lookahead, which says whether it is
        // the last.
        let (mut line, mut next) = (Vec::new(), Vec::new());
        let mut current = lines.next_non_blank(&mut line).map_err(cannot_read)?;
        let mut tape = Tape::new();
        let mut header = true;
        while let Some(line_no) = current {
            let following = lines.next_non_blank(&mut next).map_err(cannot_read)?;
            let is_last = following.is_none();
            let parsed = match std::str::from_utf8(&line) {
                Ok(text) => tape.parse(text).map_err(|e| format!("invalid JSON: {e}")),
                Err(e) => Err(format!("invalid UTF-8: {e}")),
            };
            match parsed {
                Ok(value) => visit(line_no, value, is_last).map_err(|why| bad(line_no, why))?,
                Err(_) if is_last && !header => return Ok(true),
                Err(why) => return Err(bad(line_no, why)),
            }
            header = false;
            std::mem::swap(&mut line, &mut next);
            current = following;
        }
        Ok(false)
    }

    /// Appends one line and flushes, so a kill right after loses at most the
    /// line it interrupted.
    pub fn append(&mut self, value: &(impl Serialize + ?Sized)) -> Result<(), JournalError> {
        failpoint!("journal.append");
        render_line(&mut self.line, value);
        self.write_line_buffer()
    }

    /// Appends `lines` with one write and one flush: the lines of a batch
    /// cost one system call, not one each. A kill inside the write keeps the
    /// whole lines before the cut (see the module docs). An empty batch
    /// writes nothing.
    pub fn append_all<V: Serialize>(
        &mut self,
        lines: impl IntoIterator<Item = V>,
    ) -> Result<(), JournalError> {
        self.line.clear();
        for value in lines {
            push_line(&mut self.line, &value);
        }
        if self.line.is_empty() {
            return Ok(());
        }
        failpoint!("journal.append");
        self.write_line_buffer()
    }

    /// Writes and flushes the line buffer.
    fn write_line_buffer(&mut self) -> Result<(), JournalError> {
        self.file
            .write_all(self.line.as_bytes())
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
    pub fn rewrite<V: Serialize>(
        &mut self,
        lines: impl IntoIterator<Item = V>,
    ) -> Result<(), JournalError> {
        failpoint!("journal.rewrite.begin");
        let tmp = tmp_path(&self.path);
        let file = File::create(&tmp)
            .map_err(|e| JournalError(format!("cannot create '{}': {e}", tmp.display())))?;
        let mut out = BufWriter::with_capacity(REWRITE_BUFFER, file);
        for (i, value) in lines.into_iter().enumerate() {
            if i > 0 {
                failpoint!("journal.rewrite.mid");
            }
            render_line(&mut self.line, &value);
            out.write_all(self.line.as_bytes())
                .map_err(|e| JournalError(format!("cannot write '{}': {e}", tmp.display())))?;
        }
        let cannot_flush = |e| JournalError(format!("cannot flush '{}': {e}", tmp.display()));
        let file = out.into_inner().map_err(|e| cannot_flush(e.into_error()))?;
        file.sync_all().map_err(cannot_flush)?;
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

/// A journal file's lines, read through one buffer, with their 1-based
/// numbers.
struct Lines {
    reader: BufReader<File>,
    /// The number of the line read last.
    line_no: usize,
}

impl Lines {
    /// Reads the next non-blank line, without its `\n`, into `line` and
    /// returns its number; `None` at the end of the file.
    fn next_non_blank(&mut self, line: &mut Vec<u8>) -> std::io::Result<Option<usize>> {
        loop {
            line.clear();
            if self.reader.read_until(b'\n', line)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            if !is_blank(line) {
                return Ok(Some(self.line_no));
            }
        }
    }
}

/// Renders `value` as one compact line, newline included, into `line`.
fn render_line(line: &mut String, value: &(impl Serialize + ?Sized)) {
    line.clear();
    push_line(line, value);
}

/// Appends `value` as one compact line, newline included, to `buffer`.
fn push_line(buffer: &mut String, value: &(impl Serialize + ?Sized)) {
    value.serialize(&mut Writer::compact(buffer));
    buffer.push('\n');
}

/// Whether a line holds only whitespace (as `str::trim` counts it).
fn is_blank(line: &[u8]) -> bool {
    // Any ASCII byte that is not whitespace settles it without decoding.
    if line
        .iter()
        .any(|&b| b.is_ascii() && !char::from(b).is_whitespace())
    {
        return false;
    }
    std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty())
}

/// The `<name>.tmp` sibling a rewrite stages its content in.
fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("journal");
    path.with_file_name(format!("{name}.tmp"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Fields, Value};

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
            seen.push((line, Fields::root(&value)?.req("n")?, last));
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
    fn a_tail_cut_inside_a_multi_byte_character_is_torn_not_an_error() {
        let path = scratch("torn-utf8");
        let mut journal = Journal::open("test", &path).unwrap();
        let named = |n: u64| {
            Value::Object(vec![
                ("n".into(), Value::U64(n)),
                ("w".into(), Value::Str("café".into())),
            ])
        };
        for n in 0..3 {
            journal.append(&named(n)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Cut the last line between the two bytes of its `é`.
        let cut = bytes.len() - "é\"}\n".len() + 1;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen, vec![(1, 0, false), (2, 1, false)]);
        assert!(torn);
        // The same bytes on an interior line are an error naming the line.
        let mut interior = bytes[..cut].to_vec();
        interior.extend_from_slice(b"\n{\"n\":3}\n");
        std::fs::write(&path, &interior).unwrap();
        let err = read_all(&path).unwrap_err().to_string();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("line 3: invalid UTF-8"), "{err}");
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
    fn a_blank_lookahead_line_does_not_end_the_file() {
        let path = scratch("blank-lookahead");
        // Each record is followed by blank lines, whitespace-only ones
        // included: the lookahead skips them to find whether one is last.
        std::fs::write(&path, "{\"n\":0}\n\n \t\n{\"n\":1}\n\n{\"n\":2}\n  \n\n").unwrap();
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen, vec![(1, 0, false), (4, 1, false), (6, 2, true)]);
        assert!(!torn);
        // A torn tail stays torn with blank lines after it, and an interior
        // line followed only by blank lines and a torn tail is not last.
        std::fs::write(&path, "{\"n\":0}\n\n{\"n\":1}\n \n{\"n\":\n\n  ").unwrap();
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen, vec![(1, 0, false), (3, 1, false)]);
        assert!(torn);
    }

    #[test]
    fn lines_longer_than_the_read_buffer_arrive_whole() {
        let path = scratch("long-lines");
        let long = |n: u64| {
            Value::Object(vec![
                ("n".into(), Value::U64(n)),
                ("pad".into(), Value::Str("x".repeat(20_000))),
            ])
        };
        let mut journal = Journal::open("test", &path).unwrap();
        for n in 0..3 {
            journal.append(&long(n)).unwrap();
        }
        let (seen, torn) = read_all(&path).unwrap();
        assert_eq!(seen, vec![(1, 0, false), (2, 1, false), (3, 2, true)]);
        assert!(!torn);
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
