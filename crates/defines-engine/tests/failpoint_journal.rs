//! Fault-injection campaign against the journal primitive: a deterministic
//! kill at every step a process death can separate — before an append,
//! before a rewrite creates its `.tmp`, between rewritten lines, between the
//! `sync_all` and the rename — must leave a file that reads back as a prefix
//! of what was written (old content *or* new content, never a hybrid), and
//! reopening must remove whatever the kill left beside it. Matrix
//! checkpoints and the mapping-cache store are both this file, so this is
//! where both are killed — and, for a batch append's one write, cut at every
//! byte a kill inside the write could leave; their own campaigns
//! (`defines-core/tests/failpoint_matrix.rs`,
//! `defines-mapping/tests/persist_faults.rs`) check what each builds on top.
#![cfg(feature = "failpoints")]

use defines_engine::Journal;
use defines_telemetry::fault;
use serde::{Fields, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn record(n: u64) -> Value {
    Value::Object(vec![("n".into(), Value::U64(n))])
}

fn read_back(path: &Path) -> (Vec<u64>, bool) {
    let mut seen = Vec::new();
    let torn = Journal::read("test", path, |_, value, _| {
        seen.push(Fields::root(&value)?.req("n")?);
        Ok(())
    })
    .expect("a killed journal must stay readable");
    (seen, torn)
}

/// The scripted life: four appends, a rewrite keeping the even records, two
/// more appends.
fn life(journal: &mut Journal) {
    for n in 0..4 {
        journal.append(&record(n)).expect("append");
    }
    journal.rewrite([record(0), record(2)]).expect("rewrite");
    for n in 4..6 {
        journal.append(&record(n)).expect("append");
    }
}

/// One sequential campaign (the fault registry is process-global).
#[test]
fn a_kill_at_any_journal_site_leaves_old_or_new_content_never_a_hybrid() {
    let dir = std::env::temp_dir().join(format!("defines-journal-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tmp_of = |path: &Path| -> PathBuf {
        path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_str().unwrap()
        ))
    };
    let before_rewrite = [0, 1, 2, 3];
    let after_rewrite = [0, 2, 4, 5];

    let mut injections = 0;
    for site in [
        "journal.append",
        "journal.rewrite.begin",
        "journal.rewrite.mid",
        "journal.rewrite.rename",
    ] {
        for fire_at in [1u64, 2, 3, 5] {
            let path = dir.join(format!("{}-{fire_at}.jsonl", site.replace('.', "-")));
            let _ = std::fs::remove_file(&path);
            let mut journal = Journal::open("test", &path).expect("open");
            let guard = fault::arm(site, fire_at);
            let outcome = catch_unwind(AssertUnwindSafe(|| life(&mut journal)));
            let fired = fault::hits(site) >= fire_at;
            drop(guard);
            drop(journal);
            assert_eq!(outcome.is_err(), fired, "{site}@{fire_at}");
            injections += u64::from(fired);

            // Whatever was on disk at the kill is a clean prefix of one of
            // the two generations; no line was half-written by *us* (the
            // failpoints sit between syscalls), so nothing reads as torn.
            let (seen, torn) = read_back(&path);
            assert!(!torn, "{site}@{fire_at}");
            assert!(
                before_rewrite.starts_with(&seen) || after_rewrite.starts_with(&seen),
                "{site}@{fire_at}: hybrid content {seen:?}"
            );
            if !fired {
                assert_eq!(seen, after_rewrite, "{site}@{fire_at}");
            }

            // Second life: reopening clears the stale `.tmp`, and the handle
            // appends after whatever survived.
            let mut journal = Journal::open("test", &path).expect("reopen");
            assert!(!tmp_of(&path).exists(), "{site}@{fire_at}: stale .tmp");
            journal.append(&record(9)).expect("append after reopen");
            let (healed, _) = read_back(&path);
            assert_eq!(healed[..seen.len()], seen[..], "{site}@{fire_at}");
            assert_eq!(healed[seen.len()..], [9], "{site}@{fire_at}");
            let _ = std::fs::remove_file(&path);
        }
    }
    assert!(
        injections >= 7,
        "campaign only injected {injections} kills — sites are not being exercised"
    );

    // Runs here, not as a test of its own: its batch append passes the
    // `journal.append` site, which must not count while the campaign arms it.
    every_cut_inside_a_batch_keeps_its_whole_lines(&dir);
}

/// A kill inside a batch append's one `write` leaves any prefix of the
/// batch's bytes on disk. Every such cut must read back as the lines before
/// the batch plus the batch's whole lines before the cut, with at most one
/// torn tail dropped; a rewrite of what was read heals the file.
fn every_cut_inside_a_batch_keeps_its_whole_lines(dir: &Path) {
    let path = dir.join("batch.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open("test", &path).expect("open");
    journal.append(&record(0)).expect("append");
    journal
        .append_all((1..5).map(record))
        .expect("batch append");
    journal
        .append_all(Vec::<Value>::new())
        .expect("empty batch");
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let (all, torn) = read_back(&path);
    assert_eq!((all.as_slice(), torn), ([0, 1, 2, 3, 4].as_slice(), false));

    let cut_path = dir.join("batch-cut.jsonl");
    let mut torn_cuts = 0;
    for cut in header_end..=bytes.len() {
        let kept = &bytes[..cut];
        std::fs::write(&cut_path, kept).expect("write the cut file");
        // Whole lines, and a tail that is a record without its newline.
        let tail_start = kept.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let tail = &kept[tail_start..];
        let whole = kept.iter().filter(|&&b| b == b'\n').count();
        let tail_is_record = !tail.is_empty() && bytes.get(cut) == Some(&b'\n');
        let (seen, torn) = read_back(&cut_path);
        let expected = whole + usize::from(tail_is_record);
        assert_eq!(seen, all[..expected], "cut at byte {cut}");
        assert_eq!(
            torn,
            !tail.is_empty() && !tail_is_record,
            "cut at byte {cut}"
        );
        torn_cuts += usize::from(torn);

        // The reader of a torn file rewrites what it read, then appends.
        let mut journal = Journal::open("test", &cut_path).expect("reopen the cut file");
        journal
            .rewrite(seen.iter().map(|&n| record(n)))
            .expect("rewrite");
        journal
            .append(&record(9))
            .expect("append after the rewrite");
        let (healed, torn) = read_back(&cut_path);
        assert!(!torn, "cut at byte {cut}");
        assert_eq!(healed[..seen.len()], seen[..], "cut at byte {cut}");
        assert_eq!(healed[seen.len()..], [9], "cut at byte {cut}");
    }
    assert!(torn_cuts > 0, "no cut tore a line");
    let _ = std::fs::remove_file(&cut_path);
    let _ = std::fs::remove_file(&path);
}
