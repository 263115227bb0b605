//! Workspace policy the lints cannot state, checked with cargo's own view of
//! the manifests: every member inherits `[workspace.lints]`, every dependency
//! (of this workspace and of `benchmark/`) is a path inside the repository,
//! no workflow file repeats a mapping key, the documents cite code by item
//! path, never by line number, and program code builds no JSON tree.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root")
}

/// `cargo metadata --no-deps` for the workspace of `manifest`: its members
/// with their declared dependencies, workspace inheritance resolved by cargo.
/// `--no-deps` never rewrites a lockfile, so the frozen benchmark's stays as
/// committed.
fn metadata(manifest: &Path) -> Value {
    let output = Command::new(env!("CARGO"))
        .args(["metadata", "--offline", "--no-deps"])
        .args(["--format-version", "1", "--manifest-path"])
        .arg(manifest)
        .output()
        .expect("run cargo metadata");
    assert!(
        output.status.success(),
        "cargo metadata failed for {}:\n{}",
        manifest.display(),
        String::from_utf8_lossy(&output.stderr)
    );
    serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("metadata JSON")
}

fn packages(metadata: &Value) -> &[Value] {
    metadata
        .get("packages")
        .and_then(Value::as_array)
        .expect("metadata lists packages")
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key).and_then(Value::as_str)
}

/// Whether the manifest text has a `[lints]` table with `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let metadata = metadata(&repo_root().join("Cargo.toml"));
    let members = packages(&metadata);
    assert!(!members.is_empty(), "no workspace members");
    for package in members {
        let manifest = field(package, "manifest_path").expect("manifest_path");
        let text = std::fs::read_to_string(manifest).expect("member manifest");
        assert!(
            inherits_workspace_lints(&text),
            "{manifest} must opt into the workspace lints with `[lints] workspace = true`"
        );
    }
}

#[test]
fn every_dependency_is_a_path_inside_the_repository() {
    let root = repo_root();
    let allowed = ["crates", "vendor", "benchmark"].map(|dir| root.join(dir));
    let inside = |path: &str| {
        let path = Path::new(path);
        let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
        allowed.iter().any(|dir| path.starts_with(dir))
    };
    let mut violations = Vec::new();
    for manifest in [root.join("Cargo.toml"), root.join("benchmark/Cargo.toml")] {
        let metadata = metadata(&manifest);
        for package in packages(&metadata) {
            let name = field(package, "name").expect("package name");
            let manifest_path = field(package, "manifest_path").expect("manifest_path");
            if !package.get("source").is_some_and(Value::is_null) || !inside(manifest_path) {
                violations.push(format!("package {name} at {manifest_path}"));
            }
            let dependencies = package
                .get("dependencies")
                .and_then(Value::as_array)
                .expect("dependencies");
            for dependency in dependencies {
                let dep = field(dependency, "name").expect("dependency name");
                let path = field(dependency, "path");
                let local = dependency.get("source").is_some_and(Value::is_null);
                if !local || !path.is_some_and(inside) {
                    violations.push(format!(
                        "{name} depends on {dep} from {}",
                        field(dependency, "source").or(path).unwrap_or("?")
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "dependencies must be paths under crates/, vendor/ or benchmark/ \
         (there is no registry):\n{}",
        violations.join("\n")
    );
}

// No mapping key may repeat under the same parent in
// `.github/workflows/*.yml`. GitHub rejects a workflow with duplicate keys
// outright, while a last-key-wins YAML parser silently drops the first value
// — which is how a job whose header line was lost ran another job's steps
// under the wrong name for several PRs. The scan below is line-based (no YAML
// dependency): it tracks indentation, opens a fresh mapping at every `- `
// sequence item, and skips block-scalar bodies (`run: |` heredocs contain
// `key:`-looking shell and Python).

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
    let dir = repo_root().join(".github/workflows");
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

/// The code anchors of a document: every backticked `path.rs::item` or
/// `path.rs::{item, item}`, as (path, item paths).
fn code_anchors(text: &str) -> Vec<(String, Vec<String>)> {
    let mut anchors = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        let Some((path, items)) = span.split_once(".rs::") else {
            continue;
        };
        let items = items.trim_start_matches('{').trim_end_matches('}');
        anchors.push((
            format!("{path}.rs"),
            items.split(", ").map(str::to_string).collect(),
        ));
    }
    anchors
}

/// Whether `source` defines an item (function, type, static, ...) named
/// `name`.
fn defines(source: &str, name: &str) -> bool {
    [
        "fn", "struct", "enum", "trait", "type", "static", "const", "mod",
    ]
    .iter()
    .any(|keyword| {
        source
            .match_indices(&format!("{keyword} {name}"))
            .any(|(at, found)| {
                let before = source[..at].chars().next_back();
                let after = source[at + found.len()..].chars().next();
                !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
    })
}

/// Documents cite code by file and item path, never by line number: a line
/// number drifts with every edit above it and nothing notices. Every cited
/// item path must resolve to a definition in the cited file.
#[test]
fn docs_cite_code_by_item_path_not_line() {
    let root = repo_root();
    let mut checked = 0;
    for entry in std::fs::read_dir(root.join("docs")).expect("docs directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|ext| ext != "md") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("document");
        for (n, line) in text.lines().enumerate() {
            let line_anchor = line
                .match_indices(".rs:")
                .any(|(at, _)| line[at + 4..].starts_with(|c: char| c.is_ascii_digit()));
            assert!(
                !line_anchor,
                "{}:{}: cite the item path, not a line: {line}",
                path.display(),
                n + 1
            );
        }
        for (file, items) in code_anchors(&text) {
            let source = std::fs::read_to_string(root.join(&file))
                .unwrap_or_else(|e| panic!("{}: {file}: {e}", path.display()));
            for item in items {
                for name in item.split("::") {
                    assert!(
                        defines(&source, name),
                        "{}: {file} defines no `{name}` (of `{item}`)",
                        path.display()
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no code anchors under docs/");
}

// One JSON path in the program: it writes through `serde::Serialize` /
// `serde::Writer` and reads through `serde::Tape` / `serde::Fields`. The
// owned tree `serde::Value` stays for the frozen benchmark harness, which
// builds and inspects trees itself and calls two program entry points that
// take or return one. Tests may use trees freely.

/// The files allowed to name `Value` outside tests, each with the harness
/// call that keeps it; the file must say so in a comment.
const VALUE_ENTRY_POINTS: [(&str, &str); 2] = [
    (
        "crates/defines-telemetry/src/export.rs",
        "defines_telemetry::chrome_trace",
    ),
    (
        "crates/defines-serve/src/protocol.rs",
        "ScheduleRequest::from_value",
    ),
];

/// The lines of `source` outside `#[cfg(test)]` items, numbered from 1.
/// rustfmt closes an item at the indentation its attribute sits at: with a
/// `}` line, or with `;` or `,` on a one-line item.
fn non_test_lines(source: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    let mut test_item: Option<&str> = None;
    for (n, line) in source.lines().enumerate() {
        let code = line.trim_start();
        let indent = &line[..line.len() - code.len()];
        if let Some(open) = test_item {
            let same_level = indent == open && !code.starts_with("#[");
            if same_level && (code.starts_with('}') || code.ends_with([';', ','])) {
                test_item = None;
            }
        } else if code.starts_with("#[cfg(test)]") || code.starts_with("#[cfg(all(test") {
            test_item = Some(indent);
        } else {
            lines.push((n + 1, line));
        }
    }
    lines
}

/// Whether a line of code names the tree type, calls `.to_value()`, or
/// parses text into a tree. Comments are prose, not code.
fn builds_a_tree(line: &str) -> bool {
    let code = line.trim_start();
    if code.starts_with("//") {
        return false;
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let names_value = code.match_indices("Value").any(|(at, word)| {
        !code[..at].chars().next_back().is_some_and(ident)
            && !code[at + word.len()..].chars().next().is_some_and(ident)
    });
    names_value
        || code.contains(".to_value()")
        || code.contains("serde_json::from_str")
        || code.contains("serde::from_str")
}

fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

#[test]
fn test_items_are_told_apart_from_program_code() {
    let source = "\
use serde::Value;
#[cfg(test)]
use serde::Value;
fn program() {}
#[cfg(test)]
#[expect(dead_code, reason = \"x\")]
fn helper() {
    let v: Value;
}
impl A {
    #[cfg(test)]
    fn in_impl() {
        x.to_value();
    }
    fn kept() {}
}
#[cfg(test)]
mod tests {
    fn inner() {}
}
";
    let kept: Vec<usize> = non_test_lines(source).iter().map(|(n, _)| *n).collect();
    assert_eq!(kept, [1, 4, 10, 15, 16]);
    assert!(builds_a_tree("use serde::{Fields, Value};"));
    assert!(builds_a_tree("    let v = report.to_value();"));
    assert!(!builds_a_tree("use serde::{Fields, ValueRef};"));
    assert!(!builds_a_tree("pub struct MetricValue {"));
    assert!(!builds_a_tree("/// Reads a [`Value`] tree."));
}

#[test]
fn only_the_harness_entry_points_build_json_trees() {
    let root = repo_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut violations = Vec::new();
    for path in files {
        let relative = path.strip_prefix(&root).expect("under the root");
        let relative = relative.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(&path).expect("source file");
        if let Some((_, call)) = VALUE_ENTRY_POINTS
            .iter()
            .find(|(file, _)| *file == relative)
        {
            let says_why = source.lines().any(|line| {
                let line = line.trim_start();
                line.starts_with("//") && line.contains("benchmark") && line.contains(call)
            });
            assert!(
                says_why,
                "{relative} must say in a comment that the benchmark harness calls `{call}`"
            );
            continue;
        }
        for (n, line) in non_test_lines(&source) {
            if builds_a_tree(line) {
                violations.push(format!("{relative}:{n}: {}", line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "program code writes JSON through `Serialize` and reads it through \
         `Tape`/`Fields`; `serde::Value` is the benchmark harness's:\n{}",
        violations.join("\n")
    );
}

// One in-memory hasher: every `HashMap` / `HashSet` in the program code of
// the model's crates names `defines_engine::FxBuildHasher`, so that no hot
// path slides back to std's SipHash (it cost 13 % of a warm sweep in
// `backcalc::merge_equal` alone). The tables are keyed by the program's own
// values — layer tiles, tile analyses, store fingerprints — never by a
// client, so a hash-flooding attack has nothing to aim at. `defines-arch`
// and `defines-workload` sit below the engine and hold no hash table. The
// daemon (`defines-serve`) is not covered: its response memo and failure map
// are keyed by client request text, and stay on std's randomly keyed SipHash
// so a client cannot pick colliding keys.

/// The crates whose program code must hash with `FxBuildHasher`.
const FX_ONLY_CRATES: [&str; 5] = [
    "defines-core",
    "defines-mapping",
    "defines-engine",
    "defines-arch",
    "defines-workload",
];

/// Constructors that fix std's default hasher whatever the annotation says.
const DEFAULT_HASHER_CONSTRUCTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

/// Every place in `code` where a `HashMap` or `HashSet` gets std's default
/// hasher: a generic use whose arguments do not name `FxBuildHasher`, or a
/// constructor that fixes the default hasher. Imports and other bare
/// mentions pass; `code` is program code with comments removed.
fn default_hasher_uses(code: &str) -> Vec<String> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for name in ["HashMap", "HashSet"] {
        for (at, _) in code.match_indices(name) {
            let rest = &code[at + name.len()..];
            let whole_word = !code[..at].chars().next_back().is_some_and(ident)
                && !rest.chars().next().is_some_and(ident);
            if !whole_word {
                continue;
            }
            if rest.starts_with('<') {
                // The balanced generic arguments (`->` is not a closer).
                let mut depth = 0;
                let mut end = rest.len();
                let bytes = rest.as_bytes();
                for (i, &b) in bytes.iter().enumerate() {
                    match b {
                        b'<' => depth += 1,
                        b'>' if i == 0 || bytes[i - 1] != b'-' => {
                            depth -= 1;
                            if depth == 0 {
                                end = i + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let generics = &rest[..end];
                if !generics.contains("FxBuildHasher") {
                    found.push(format!(
                        "{name}{}",
                        generics.split_whitespace().collect::<Vec<_>>().join(" ")
                    ));
                }
            } else if let Some(call) = rest.strip_prefix("::") {
                let method: String = call.chars().take_while(|&c| ident(c)).collect();
                if DEFAULT_HASHER_CONSTRUCTORS.contains(&method.as_str()) {
                    found.push(format!("{name}::{method}"));
                }
            }
        }
    }
    found
}

#[test]
fn default_hasher_uses_are_found() {
    let code = "\
use std::collections::{HashMap, HashSet};
type Shard<K, V> = HashMap<K, V, FxBuildHasher>;
let seen: HashSet<_, FxBuildHasher> = HashSet::default();
let map: HashMap<
    Key,
    Vec<u64>,
    FxBuildHasher,
> = HashMap::with_capacity_and_hasher(8, FxBuildHasher::default());
let f: HashMap<u8, Box<dyn Fn() -> u8>, FxBuildHasher> = HashMap::default();
let slow: HashMap<u64, Vec<u64>> = HashMap::new();
let set = HashSet::with_capacity(4);
let counts = xs.collect::<HashMap<_, _>>();
struct MyHashMap;
";
    assert_eq!(
        default_hasher_uses(code),
        [
            "HashMap<u64, Vec<u64>>",
            "HashMap::new",
            "HashMap<_, _>",
            "HashSet::with_capacity",
        ]
    );
}

#[test]
fn model_crates_hash_only_with_the_fx_hasher() {
    let root = repo_root();
    let mut violations = Vec::new();
    let mut checked = 0;
    for krate in FX_ONLY_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
        for path in files {
            let source = std::fs::read_to_string(&path).expect("source file");
            let code: Vec<&str> = non_test_lines(&source)
                .into_iter()
                .map(|(_, line)| line)
                .filter(|line| !line.trim_start().starts_with("//"))
                .collect();
            let code = code.join("\n");
            checked += code.matches("FxBuildHasher").count();
            for found in default_hasher_uses(&code) {
                let relative = path.strip_prefix(&root).expect("under the root");
                violations.push(format!("{}: {found}", relative.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "name `defines_engine::FxBuildHasher` as the hasher of every hash table \
         (`HashMap<K, V, FxBuildHasher>`, built with `default()` or \
         `with_capacity_and_hasher`):\n{}",
        violations.join("\n")
    );
    assert!(checked > 5, "found only {checked} FxBuildHasher uses");
}
