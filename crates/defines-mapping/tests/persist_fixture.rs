//! On-disk compatibility pin for the mapping-cache store (format version 1).
//!
//! `fixtures/store-v1-log.jsonl` and `fixtures/store-v1.jsonl` were written
//! by the commit *before* the store moved onto `defines_engine::journal`:
//! the append log of `persist_faults.rs`'s three-batch history (eight
//! entries, two `touch` lines) and its compacted form. Their keys are
//! hand-built and every fingerprint in them is FNV-1a, so the bytes do not
//! depend on the toolchain. Nobody's persisted cache may be orphaned: both
//! must load completely and compact to the committed bytes.

use defines_mapping::{CacheStore, MappingCache};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn stores_written_before_the_journal_load_and_recompact_byte_identically() {
    let compacted = std::fs::read(fixture("store-v1.jsonl")).expect("read fixture");
    let dir = std::env::temp_dir().join(format!("defines-persist-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in ["store-v1-log.jsonl", "store-v1.jsonl"] {
        let path = dir.join(name);
        std::fs::copy(fixture(name), &path).expect("copy fixture");
        let cache = MappingCache::new();
        let mut store = CacheStore::open(&path, cache.clone(), 0).expect("open fixture");
        assert_eq!(store.stats().loaded, 8, "{name}: every entry loads");
        assert_eq!(cache.entries().len(), 8, "{name}");
        assert_eq!(
            store.stats().compactions,
            0,
            "{name}: an intact file must not be rewritten on open"
        );
        store.compact_now().expect("compact");
        assert_eq!(
            std::fs::read(&path).expect("read back"),
            compacted,
            "{name}: compaction must reproduce the committed bytes"
        );
        let _ = std::fs::remove_file(&path);
    }
}
