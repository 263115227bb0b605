//! Fixture corpus for every lint rule: one passing and one failing fixture
//! per rule, checked through the same entry points the binary uses.
//!
//! The fixture files live under `tests/fixtures/`, which the workspace walker
//! deliberately skips — the failing fixtures would otherwise make the real
//! tree lint-dirty. The tests therefore feed each fixture to [`lint_source`]
//! under a *virtual* workspace path, chosen so the rule under test is in
//! scope (e.g. `crates/defines-core/...` for float-order, a non-test path for
//! unordered-iter).

use defines_lint::{check_crate_root_attr, lint_manifest, lint_source, Rule, WorkspaceDeps};
use std::path::Path;

/// A plain library path where the determinism and hygiene rules apply.
const LIB_PATH: &str = "crates/demo/src/lib.rs";
/// A cost-model path where float reductions escalate to `float-order`.
const CORE_PATH: &str = "crates/defines-core/src/fixture.rs";

fn rules_of(findings: &[defines_lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

fn lines_of(findings: &[defines_lint::Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn unordered_iter_bad_fixture_is_flagged() {
    let findings = lint_source(
        Path::new(LIB_PATH),
        include_str!("fixtures/unordered_iter_bad.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec![Rule::UnorderedIter],
        "{findings:?}"
    );
    assert_eq!(lines_of(&findings), vec![6]);
}

#[test]
fn unordered_iter_good_fixture_is_clean() {
    let findings = lint_source(
        Path::new(LIB_PATH),
        include_str!("fixtures/unordered_iter_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_bad_fixture_is_flagged() {
    let findings = lint_source(
        Path::new(LIB_PATH),
        include_str!("fixtures/wall_clock_bad.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule == Rule::WallClock),
        "{findings:?}"
    );
    // The `use` line, `Instant::now`, the `SystemTime` return type, and
    // `SystemTime::now` — strict containment flags the type by name.
    assert_eq!(lines_of(&findings), vec![2, 5, 9, 10], "{findings:?}");
}

#[test]
fn wall_clock_good_fixture_is_clean() {
    let findings = lint_source(
        Path::new(LIB_PATH),
        include_str!("fixtures/wall_clock_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_is_in_scope_only_outside_telemetry_and_bench() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    for exempt in [
        "crates/defines-telemetry/src/fixture.rs",
        "crates/defines-bench/src/fixture.rs",
        "crates/demo/tests/fixture.rs",
        "vendor/proptest/src/fixture.rs",
    ] {
        let findings = lint_source(Path::new(exempt), src);
        assert!(findings.is_empty(), "{exempt}: {findings:?}");
    }
}

#[test]
fn unsafe_bad_fixture_is_flagged() {
    let findings = lint_source(Path::new(LIB_PATH), include_str!("fixtures/unsafe_bad.rs"));
    assert_eq!(
        rules_of(&findings),
        vec![Rule::UnsafeHygiene; 3],
        "{findings:?}"
    );
    assert_eq!(lines_of(&findings), vec![2, 3, 7]);
}

#[test]
fn unsafe_good_fixture_is_clean() {
    let findings = lint_source(Path::new(LIB_PATH), include_str!("fixtures/unsafe_good.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn float_order_bad_fixture_is_flagged() {
    let findings = lint_source(
        Path::new(CORE_PATH),
        include_str!("fixtures/float_order_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec![Rule::FloatOrder], "{findings:?}");
    assert_eq!(lines_of(&findings), vec![5]);
}

#[test]
fn float_order_good_fixture_is_clean() {
    let findings = lint_source(
        Path::new(CORE_PATH),
        include_str!("fixtures/float_order_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn float_order_demotes_to_unordered_iter_outside_cost_crates() {
    // The same reduction in a non-cost crate is still unordered iteration,
    // just not the stricter float-order finding.
    let findings = lint_source(
        Path::new(LIB_PATH),
        include_str!("fixtures/float_order_bad.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec![Rule::UnorderedIter],
        "{findings:?}"
    );
}

#[test]
fn bad_allow_fixture_is_flagged() {
    let findings = lint_source(Path::new(LIB_PATH), include_str!("fixtures/bad_allow.rs"));
    assert_eq!(
        rules_of(&findings),
        vec![Rule::BadAllow, Rule::BadAllow],
        "{findings:?}"
    );
    assert_eq!(lines_of(&findings), vec![3, 6]);
}

#[test]
fn crate_root_good_fixture_is_clean() {
    let finding = check_crate_root_attr(
        Path::new(LIB_PATH),
        include_str!("fixtures/crate_root_good.rs"),
    );
    assert!(finding.is_none(), "{finding:?}");
}

#[test]
fn crate_root_bad_fixture_is_flagged() {
    let finding = check_crate_root_attr(
        Path::new(LIB_PATH),
        include_str!("fixtures/crate_root_bad.rs"),
    )
    .expect("missing posture attribute must be flagged");
    assert_eq!(finding.rule, Rule::UnsafeHygiene);
    assert_eq!(finding.line, 1);
}

/// Root-manifest stand-in for the vendoring fixtures: one known workspace
/// dependency, resolved into vendor/.
const ROOT_MANIFEST: &str = r#"
[workspace]
members = ["crates/demo"]

[workspace.dependencies]
serde = { path = "vendor/serde" }
"#;

#[test]
fn vendoring_bad_fixture_is_flagged() {
    let ws = WorkspaceDeps::from_root_manifest(ROOT_MANIFEST);
    let findings = lint_manifest(
        Path::new("crates/demo/Cargo.toml"),
        include_str!("fixtures/vendoring_bad.toml"),
        &ws,
    );
    // rand (registry version), leftpad (git), outside (path escapes the
    // workspace), ghost (workspace = true with no root entry).
    assert_eq!(
        rules_of(&findings),
        vec![Rule::Vendoring; 4],
        "{findings:?}"
    );
    assert_eq!(lines_of(&findings), vec![7, 8, 9, 10]);
}

#[test]
fn vendoring_good_fixture_is_clean() {
    let ws = WorkspaceDeps::from_root_manifest(ROOT_MANIFEST);
    let findings = lint_manifest(
        Path::new("crates/demo/Cargo.toml"),
        include_str!("fixtures/vendoring_good.toml"),
        &ws,
    );
    assert!(findings.is_empty(), "{findings:?}");
}
