//! Guard for `.github/workflows/*.yml`: no mapping key may repeat under the
//! same parent.
//!
//! GitHub rejects a workflow with duplicate keys outright, while a
//! last-key-wins YAML parser silently drops the first value — which is how a
//! job whose header line was lost ran another job's steps under the wrong
//! name for several PRs. The scan below is line-based (no YAML dependency):
//! it tracks indentation, opens a fresh mapping at every `- ` sequence item,
//! and skips block-scalar bodies (`run: |` heredocs contain `key:`-looking
//! shell and Python).

use std::collections::BTreeSet;
use std::path::Path;

/// The mapping key a line starts with (`name: x`, `runs-on:`), if any.
fn mapping_key(content: &str) -> Option<(&str, &str)> {
    let end = content.find(|c: char| !(c.is_ascii_alphanumeric() || "_-.".contains(c)))?;
    let rest = content[end..].strip_prefix(':')?;
    (end > 0 && (rest.is_empty() || rest.starts_with(' '))).then(|| (&content[..end], rest.trim()))
}

/// `(line, key)` of every mapping key repeated under the same parent.
fn duplicate_keys(text: &str) -> Vec<(usize, String)> {
    let mut duplicates = Vec::new();
    // Open mappings, innermost last: (column of their keys, keys seen).
    let mut open: Vec<(usize, BTreeSet<String>)> = Vec::new();
    // Key column of the mapping entry whose block scalar is being skipped.
    let mut block_scalar: Option<usize> = None;
    for (number, line) in text.lines().enumerate() {
        let mut content = line.trim_start();
        if content.is_empty() || content.starts_with('#') {
            continue;
        }
        let mut column = line.len() - content.len();
        if block_scalar.is_some_and(|parent| column > parent) {
            continue;
        }
        block_scalar = None;
        // `- key: value` starts a new mapping whose keys sit after the dash.
        while let Some(item) = content.strip_prefix("- ") {
            open.retain(|(col, _)| *col <= column);
            let item = item.trim_start();
            column += content.len() - item.len();
            content = item;
        }
        let Some((key, value)) = mapping_key(content) else {
            continue;
        };
        open.retain(|(col, _)| *col <= column);
        if open.last().is_none_or(|(col, _)| *col < column) {
            open.push((column, BTreeSet::new()));
        }
        let (_, seen) = open.last_mut().expect("pushed above");
        if !seen.insert(key.to_string()) {
            duplicates.push((number + 1, key.to_string()));
        }
        if value.starts_with('|') || value.starts_with('>') {
            block_scalar = Some(column);
        }
    }
    duplicates
}

/// The shape `ci.yml` had after the `perf-smoke:` header line was lost: the
/// next job's `runs-on` / `needs` / `steps` land in the previous job.
const EATEN_JOB_HEADER: &str = "\
jobs:
  serve-smoke:
    name: scheduling daemon smoke
    runs-on: ubuntu-latest
    needs: lint
    steps:
      - uses: actions/checkout@v4
      - name: Daemon lifecycle smoke
        run: |
          python3 - <<'PY'
          name: not a key, heredoc body
          name: still not a key
          PY
    runs-on: ubuntu-latest
    needs: lint
    steps:
      - uses: actions/checkout@v4
";

/// Repeats that are fine: the same key in sibling jobs, in sibling sequence
/// items, and inside block-scalar bodies.
const UNIQUE_KEYS: &str = "\
on:
  push:
    branches: [main]
jobs:
  lint:
    name: lint
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: one
        run: echo one
      - name: two
        uses: actions/cache@v4
        with:
          path: |
            name: cache path that looks like a key
            name: twice
          key: ${{ runner.os }}-cargo
  check:
    name: check
    runs-on: ubuntu-latest
    steps:
      - name: one
        run: |
          python3 - <<'PY'
          name: heredoc
          name: heredoc
          PY
";

#[test]
fn duplicate_job_keys_are_reported_and_unique_ones_are_not() {
    assert_eq!(
        duplicate_keys(EATEN_JOB_HEADER),
        vec![
            (14, "runs-on".to_string()),
            (15, "needs".to_string()),
            (16, "steps".to_string()),
        ]
    );
    assert_eq!(duplicate_keys(UNIQUE_KEYS), vec![]);
}

#[test]
fn live_workflows_have_no_duplicate_keys() {
    let root = defines_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("defines-lint must live inside the workspace");
    let dir = root.join(".github/workflows");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("workflow directory") {
        let path = entry.expect("directory entry").path();
        if path
            .extension()
            .is_some_and(|ext| ext == "yml" || ext == "yaml")
        {
            let text = std::fs::read_to_string(&path).expect("workflow file");
            assert_eq!(duplicate_keys(&text), vec![], "{}", path.display());
            checked += 1;
        }
    }
    assert!(checked > 0, "no workflow under {}", dir.display());
}
