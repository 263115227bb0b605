//! Fault-injection campaign against the journal primitive: a deterministic
//! kill at every step a process death can separate — before an append,
//! before a rewrite creates its `.tmp`, between rewritten lines, between the
//! `sync_all` and the rename — must leave a file that reads back as a prefix
//! of what was written (old content *or* new content, never a hybrid), and
//! reopening must remove whatever the kill left beside it. Matrix
//! checkpoints and the mapping-cache store are both this file, so this is
//! where both are killed; their own campaigns
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
}
