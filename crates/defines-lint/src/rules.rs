//! The invariant rules applied to Rust sources, plus the `lint:allow`
//! annotation machinery shared by all of them.
//!
//! Every rule is named, reports `file:line`, and can be silenced per site
//! with a justified annotation:
//!
//! ```text
//! // lint:allow(wall-clock, elapsed feeds the stats report only)
//! let start = Instant::now();
//! ```
//!
//! The annotation covers its own line and the next code line; the reason is
//! mandatory (an empty reason or an unknown rule name is itself a finding,
//! so a typo cannot silently disable enforcement).

use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The named rules. `Rule::name()` is the public identifier used in reports
/// and in `lint:allow(...)` annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over a `HashMap`/`HashSet`-typed binding outside test code,
    /// without feeding a sort and without an annotation. Map order is
    /// nondeterministic per process, so any such site can leak iteration
    /// order into reports and break byte-identical output.
    UnorderedIter,
    /// `Instant::now` / `SystemTime` outside `defines-telemetry`,
    /// `defines-bench` and bench/test targets. Wall-clock reads in cost,
    /// search or engine paths are how timing sneaks into results.
    WallClock,
    /// `unsafe` without an immediately preceding `// SAFETY:` comment, or a
    /// `crates/` crate root missing `#![forbid(unsafe_code)]` /
    /// `#![deny(unsafe_op_in_unsafe_fn)]`.
    UnsafeHygiene,
    /// A floating-point reduction (`sum`/`fold`/`product`) over an unordered
    /// iterator in `defines-core`/`defines-mapping`: float addition is not
    /// associative, so reduction order changes the bits of the result.
    FloatOrder,
    /// A `Cargo.toml` dependency that does not resolve to a `vendor/` path
    /// or a workspace crate.
    Vendoring,
    /// A malformed `lint:allow` annotation (unknown rule or missing reason).
    BadAllow,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 6] = [
        Rule::UnorderedIter,
        Rule::WallClock,
        Rule::UnsafeHygiene,
        Rule::FloatOrder,
        Rule::Vendoring,
        Rule::BadAllow,
    ];

    /// The public rule identifier used in reports and annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::WallClock => "wall-clock",
            Rule::UnsafeHygiene => "unsafe-hygiene",
            Rule::FloatOrder => "float-order",
            Rule::Vendoring => "vendoring",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule identifier as used in `lint:allow(...)`.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description of what the rule enforces, for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnorderedIter => {
                "no iteration over HashMap/HashSet bindings in non-test code \
                 unless the site feeds a sort or carries an annotation"
            }
            Rule::WallClock => {
                "Instant::now/SystemTime only in defines-telemetry, \
                 defines-bench and bench/test targets"
            }
            Rule::UnsafeHygiene => {
                "every unsafe block/fn/impl preceded by a // SAFETY: comment; \
                 crates/ roots declare #![forbid(unsafe_code)] or \
                 #![deny(unsafe_op_in_unsafe_fn)]"
            }
            Rule::FloatOrder => {
                "no f64 sum/fold/product over unordered iterators in \
                 defines-core / defines-mapping"
            }
            Rule::Vendoring => {
                "every Cargo.toml dependency resolves to vendor/ or a \
                 workspace crate path"
            }
            Rule::BadAllow => "lint:allow annotations name a known rule and give a reason",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line of the offending site.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// What is wrong at the site.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (fix: {})",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message,
            self.hint
        )
    }
}

/// Where a source file sits in the workspace — drives per-rule scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceContext {
    /// Crate name for files under `crates/<name>/` or `vendor/<name>/`.
    pub crate_name: Option<String>,
    /// Whether the file lives under `vendor/`.
    pub in_vendor: bool,
    /// Whether the file is test-shaped by location: under a `tests/`,
    /// `benches/` or `examples/` directory anywhere in its path.
    pub is_test_path: bool,
}

impl SourceContext {
    /// Derives the context from a workspace-relative path.
    pub fn from_path(rel: &Path) -> SourceContext {
        let comps: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let crate_name = comps
            .iter()
            .position(|c| c == "crates" || c == "vendor")
            .and_then(|i| comps.get(i + 1))
            .cloned();
        SourceContext {
            crate_name,
            in_vendor: comps.first().is_some_and(|c| c == "vendor")
                || comps.iter().any(|c| c == "vendor"),
            is_test_path: comps
                .iter()
                .any(|c| c == "tests" || c == "benches" || c == "examples"),
        }
    }

    fn is_crate(&self, name: &str) -> bool {
        self.crate_name.as_deref() == Some(name)
    }
}

/// A parsed `lint:allow(rule, reason)` annotation.
struct Allow {
    rule: Rule,
    /// Lines the annotation covers: its own comment lines plus the next code
    /// line after the comment.
    covers: (u32, u32),
}

/// Extracts `lint:allow` annotations (and findings for malformed ones).
///
/// An annotation is a plain (non-doc) comment whose content *starts with*
/// `lint:allow` — documentation that merely mentions the syntax does not
/// count, so the linter can describe itself without silencing itself.
fn collect_allows(rel: &Path, lexed: &Lexed) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        let trimmed = c.text.trim_start();
        // `///` and `//!` comments lex with a leading `/` or `!` — doc text,
        // never an annotation.
        if trimmed.starts_with('/') || trimmed.starts_with('!') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("lint:allow") {
            let Some(body) = rest
                .strip_prefix('(')
                .and_then(|r| r.find(')').map(|end| &r[..end]))
            else {
                findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: c.start_line,
                    rule: Rule::BadAllow,
                    message: "malformed lint:allow annotation".into(),
                    hint: "write // lint:allow(<rule>, <reason>)".into(),
                });
                continue;
            };
            let (rule_name, reason) = match body.split_once(',') {
                Some((r, why)) => (r.trim(), why.trim()),
                None => (body.trim(), ""),
            };
            match Rule::from_name(rule_name) {
                Some(_) if reason.is_empty() => findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: c.start_line,
                    rule: Rule::BadAllow,
                    message: format!("lint:allow({rule_name}) has no reason"),
                    hint: "state why the site is sound: lint:allow(<rule>, <reason>)".into(),
                }),
                Some(rule) => {
                    // A trailing comment on a code line covers that line
                    // itself; a standalone comment covers the next code line.
                    let covers = if lexed.is_code_line(c.start_line) {
                        (c.start_line, c.start_line)
                    } else {
                        let last = lexed.next_code_line(c.end_line).unwrap_or(c.end_line);
                        (c.start_line.min(last), last)
                    };
                    allows.push(Allow { rule, covers });
                }
                None => findings.push(Finding {
                    file: rel.to_path_buf(),
                    line: c.start_line,
                    rule: Rule::BadAllow,
                    message: format!("lint:allow names unknown rule `{rule_name}`"),
                    hint: format!("known rules: {}", Rule::ALL.map(Rule::name).join(", ")),
                }),
            }
        }
    }
    (allows, findings)
}

/// Line ranges covered by `#[test]` / `#[cfg(test)]` items.
fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !matches!(tokens[i].kind, TokenKind::Punct('#')) {
            i += 1;
            continue;
        }
        let Some(Token {
            kind: TokenKind::Punct('['),
            ..
        }) = tokens.get(i + 1)
        else {
            i += 1;
            continue;
        };
        // Scan the attribute body for the ident `test` (covers #[test],
        // #[cfg(test)], #[cfg(all(test, …))]).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut is_test_attr = false;
        while let Some(t) = tokens.get(j) {
            match &t.kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) if s == "test" => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // The attribute's item extends to the matching `}` of its first
        // brace, or to the first `;` before any brace opens.
        let start_line = tokens[i].line;
        let mut k = j + 1;
        let mut brace_depth = 0i32;
        let mut end_line = start_line;
        while let Some(t) = tokens.get(k) {
            match t.kind {
                TokenKind::Punct('{') => brace_depth += 1,
                TokenKind::Punct('}') => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                TokenKind::Punct(';') if brace_depth == 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
            k += 1;
        }
        ranges.push((start_line, end_line));
        i = k + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| a <= line && line <= b)
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
}

/// `::` at position `i` (two consecutive colon puncts).
fn path_sep_at(tokens: &[Token], i: usize) -> bool {
    punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':')
}

/// Single `:` at position `i` that is not part of `::`.
fn single_colon_at(tokens: &[Token], i: usize) -> bool {
    punct_at(tokens, i, ':')
        && !punct_at(tokens, i + 1, ':')
        && !(i > 0 && punct_at(tokens, i - 1, ':'))
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
];

/// Identifiers that prove the iteration feeds an order-restoring boundary.
const SORT_MARKERS: [&str; 9] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Float reductions whose result depends on operand order.
const FLOAT_REDUCERS: [&str; 3] = ["sum", "fold", "product"];

/// Skips leading `&`, `mut` and lifetimes in a type position; returns the
/// final identifier of the leading type path (`std::collections::HashMap<…`
/// → `HashMap`, `Vec<…` → `Vec`).
fn leading_type_ident(tokens: &[Token], mut i: usize) -> Option<&str> {
    loop {
        match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct('&')) | Some(TokenKind::Lifetime) => i += 1,
            Some(TokenKind::Ident(s)) if s == "mut" || s == "dyn" => i += 1,
            _ => break,
        }
    }
    let mut last = ident_at(tokens, i)?;
    i += 1;
    while path_sep_at(tokens, i) {
        let next = ident_at(tokens, i + 2)?;
        last = next;
        i += 3;
    }
    Some(last)
}

/// Whether the expression starting at `i` is a `HashMap`/`HashSet`
/// constructor call (`HashMap::new()`, `std::collections::HashSet::with_capacity(…)`).
fn rhs_constructs_hash(tokens: &[Token], mut i: usize) -> bool {
    loop {
        match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct('&')) => i += 1,
            Some(TokenKind::Ident(s)) if s == "mut" => i += 1,
            _ => break,
        }
    }
    let mut saw_hash = false;
    while let Some(seg) = ident_at(tokens, i) {
        saw_hash |= HASH_TYPES.contains(&seg);
        // Step over optional turbofish generics between path segments.
        let mut j = i + 1;
        if punct_at(tokens, j, '<') {
            let mut depth = 0i32;
            while let Some(t) = tokens.get(j) {
                match t.kind {
                    TokenKind::Punct('<') => depth += 1,
                    TokenKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    TokenKind::Punct(';') | TokenKind::Punct('{') => return saw_hash,
                    _ => {}
                }
                j += 1;
            }
        }
        if path_sep_at(tokens, j) {
            i = j + 2;
        } else {
            return saw_hash;
        }
    }
    saw_hash
}

/// A tracked binding: a name known (heuristically) to hold a
/// `HashMap`/`HashSet`, valid within a line range (whole file for ordinary
/// bindings; the impl block for `self` in `impl … for HashMap`).
struct Tracked {
    name: String,
    range: (u32, u32),
}

/// Collects hash-typed binding names: `let`/field/parameter declarations
/// with a `HashMap`/`HashSet` leading type, `let` initializers calling a
/// hash constructor, and `self` inside `impl … for HashMap/HashSet`.
fn tracked_hash_bindings(tokens: &[Token]) -> Vec<Tracked> {
    let mut tracked: Vec<Tracked> = Vec::new();
    let whole_file = (0u32, u32::MAX);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let track =
        |tracked: &mut Vec<Tracked>, seen: &mut BTreeSet<String>, name: &str, range: (u32, u32)| {
            if name != "_" && (range != whole_file || seen.insert(name.to_string())) {
                tracked.push(Tracked {
                    name: name.to_string(),
                    range,
                });
            }
        };

    for i in 0..tokens.len() {
        // `name: HashMap<…>` — let ascriptions, struct fields, fn params.
        if let Some(name) = ident_at(tokens, i) {
            if single_colon_at(tokens, i + 1) {
                if let Some(ty) = leading_type_ident(tokens, i + 2) {
                    if HASH_TYPES.contains(&ty) {
                        track(&mut tracked, &mut seen, name, whole_file);
                    }
                }
            }
        }
        // `let [mut] name = HashMap::new()` — constructor inference.
        if ident_at(tokens, i) == Some("let") {
            let mut j = i + 1;
            if ident_at(tokens, j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident_at(tokens, j) {
                if punct_at(tokens, j + 1, '=')
                    && !punct_at(tokens, j + 2, '=')
                    && rhs_constructs_hash(tokens, j + 2)
                {
                    track(&mut tracked, &mut seen, name, whole_file);
                }
            }
        }
        // `impl … for HashMap<…> { … }` — `self` is hash-typed inside.
        if ident_at(tokens, i) == Some("impl") {
            let mut j = i + 1;
            let mut target = None;
            while let Some(t) = tokens.get(j) {
                match &t.kind {
                    TokenKind::Punct('{') | TokenKind::Punct(';') => break,
                    TokenKind::Ident(s) if s == "for" => {
                        target = leading_type_ident(tokens, j + 1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
                if j > i + 120 {
                    break;
                }
            }
            if target.is_some_and(|t| HASH_TYPES.contains(&t)) {
                // Find the impl block's brace extent.
                let mut k = j;
                while k < tokens.len() && !punct_at(tokens, k, '{') {
                    k += 1;
                }
                let start_line = tokens.get(k).map_or(0, |t| t.line);
                let mut depth = 0i32;
                let mut end_line = u32::MAX;
                while let Some(t) = tokens.get(k) {
                    match t.kind {
                        TokenKind::Punct('{') => depth += 1,
                        TokenKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                end_line = t.line;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                tracked.push(Tracked {
                    name: "self".to_string(),
                    range: (start_line, end_line),
                });
            }
        }
    }
    tracked
}

/// Scans forward from token `i` to the end of the statement (`;` at paren/
/// brace depth zero, capped), collecting identifiers.
fn statement_idents(tokens: &[Token], i: usize) -> Vec<&str> {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    for t in tokens.iter().skip(i).take(400) {
        match &t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Punct(';') if depth == 0 => break,
            TokenKind::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
    }
    idents
}

/// Index of the token after the statement containing token `i` ends (the
/// token following the `;` at depth zero), if within the cap.
fn statement_end(tokens: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(i).take(400) {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            TokenKind::Punct(';') if depth == 0 => return Some(k + 1),
            _ => {}
        }
    }
    None
}

/// Start-of-statement index for the statement containing token `i`: the
/// token after the previous `;`, `{` or `}`.
fn statement_start(tokens: &[Token], i: usize) -> usize {
    let mut k = i;
    while k > 0 {
        match tokens[k - 1].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
            _ => k -= 1,
        }
    }
    k
}

/// The collect-then-sort pattern: the flagged chain is the initializer of
/// `let [mut] NAME = …;` and the very next statement starts `NAME.sort…`.
fn collect_then_sort(tokens: &[Token], flag_idx: usize) -> bool {
    let start = statement_start(tokens, flag_idx);
    let mut j = start;
    if ident_at(tokens, j) != Some("let") {
        return false;
    }
    j += 1;
    if ident_at(tokens, j) == Some("mut") {
        j += 1;
    }
    let Some(name) = ident_at(tokens, j) else {
        return false;
    };
    let Some(next) = statement_end(tokens, flag_idx) else {
        return false;
    };
    ident_at(tokens, next) == Some(name)
        && punct_at(tokens, next + 1, '.')
        && ident_at(tokens, next + 2).is_some_and(|m| m.starts_with("sort"))
}

/// Rules 1 and 4: unordered iteration and float reductions over it.
fn check_unordered_iteration(
    rel: &Path,
    ctx: &SourceContext,
    tokens: &[Token],
    test_ranges: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    let tracked = tracked_hash_bindings(tokens);
    let is_tracked = |name: &str, line: u32| {
        tracked
            .iter()
            .any(|t| t.name == name && t.range.0 <= line && line <= t.range.1)
    };
    let float_scope = ctx.is_crate("defines-core") || ctx.is_crate("defines-mapping");

    let flag = |findings: &mut Vec<Finding>, idx: usize, name: &str, what: &str| {
        let line = tokens[idx].line;
        let idents = statement_idents(tokens, idx);
        if idents.iter().any(|s| SORT_MARKERS.contains(s)) || collect_then_sort(tokens, idx) {
            return;
        }
        let reduces = idents.iter().any(|s| FLOAT_REDUCERS.contains(s));
        if reduces && float_scope {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::FloatOrder,
                message: format!(
                    "float reduction over unordered {what} of hash-typed binding `{name}` — \
                     f64 addition is order-sensitive, so the result bits depend on map order"
                ),
                hint: "collect and sort before reducing, use a BTreeMap/BTreeSet, or annotate \
                       with // lint:allow(float-order, <reason>)"
                    .into(),
            });
        } else {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::UnorderedIter,
                message: format!(
                    "{what} of hash-typed binding `{name}` leaks nondeterministic map order"
                ),
                hint: "iterate a sorted collection (BTreeMap/BTreeSet or collect-then-sort) \
                       or annotate with // lint:allow(unordered-iter, <reason>)"
                    .into(),
            });
        }
    };

    for i in 0..tokens.len() {
        let line = tokens[i].line;
        if in_ranges(test_ranges, line) {
            continue;
        }
        // `binding.iter()` / `.keys()` / `.values()` / …
        if let Some(name) = ident_at(tokens, i) {
            if is_tracked(name, line)
                && punct_at(tokens, i + 1, '.')
                && ident_at(tokens, i + 2).is_some_and(|m| ITER_METHODS.contains(&m))
            {
                // `into_iter`/`iter` may be part of a turbofish-less call
                // chain; require the call parens (possibly after `::<…>`).
                let mut j = i + 3;
                if punct_at(tokens, j, ':') && punct_at(tokens, j + 1, ':') {
                    // Skip `::<T>` turbofish.
                    j += 2;
                    if punct_at(tokens, j, '<') {
                        let mut depth = 0i32;
                        while let Some(t) = tokens.get(j) {
                            match t.kind {
                                TokenKind::Punct('<') => depth += 1,
                                TokenKind::Punct('>') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        j += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                }
                if punct_at(tokens, j, '(') {
                    let method = ident_at(tokens, i + 2).unwrap_or_default();
                    flag(findings, i, name, &format!("`.{method}()` iteration"));
                }
            }
        }
        // `for pat in [&mut] binding { … }`
        if ident_at(tokens, i) == Some("for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut found_in = None;
            while let Some(t) = tokens.get(j) {
                match &t.kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Punct('{') | TokenKind::Punct(';') => break,
                    TokenKind::Ident(s) if s == "in" && depth == 0 => {
                        found_in = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
                if j > i + 40 {
                    break;
                }
            }
            if let Some(mut j) = found_in {
                j += 1;
                while punct_at(tokens, j, '&') || ident_at(tokens, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(tokens, j) {
                    if is_tracked(name, line) && punct_at(tokens, j + 1, '{') {
                        flag(findings, j, name, "`for` loop iteration");
                    }
                }
            }
        }
    }
}

/// Rule 2: wall-clock reads outside the crates allowed to tell time.
fn check_wall_clock(
    rel: &Path,
    ctx: &SourceContext,
    tokens: &[Token],
    test_ranges: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    // Vendored stand-ins for external crates, the telemetry crate and the
    // experiment harness (`ablation_mapper` times the mapper presets) may
    // read clocks; bench/test targets may too.
    if ctx.in_vendor
        || ctx.is_test_path
        || ctx.is_crate("defines-telemetry")
        || ctx.is_crate("defines-bench")
    {
        return;
    }
    for i in 0..tokens.len() {
        let line = tokens[i].line;
        if in_ranges(test_ranges, line) {
            continue;
        }
        let hit = match ident_at(tokens, i) {
            Some("Instant") => path_sep_at(tokens, i + 1) && ident_at(tokens, i + 3) == Some("now"),
            Some("SystemTime") => true,
            _ => false,
        };
        if hit {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::WallClock,
                message: format!(
                    "wall-clock read (`{}`) outside defines-telemetry / defines-bench — \
                     timing must never feed cost, search or engine results",
                    ident_at(tokens, i).unwrap_or_default()
                ),
                hint: "move the measurement into defines-telemetry spans or a bench target, \
                       or annotate with // lint:allow(wall-clock, <reason>)"
                    .into(),
            });
        }
    }
}

/// Rule 3 (comment half): every `unsafe` token preceded by `// SAFETY:`.
fn check_unsafe_comments(rel: &Path, lexed: &Lexed, findings: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if !matches!(&t.kind, TokenKind::Ident(s) if s == "unsafe") {
            continue;
        }
        let line = t.line;
        let covered = lexed.comments_on_line(line).contains("SAFETY:")
            || lexed
                .comment_block_ending_at(line.saturating_sub(1))
                .contains("SAFETY:");
        if !covered {
            let what = match ident_at(&lexed.tokens, i + 1) {
                Some("impl") => "unsafe impl",
                Some("fn") => "unsafe fn",
                _ => "unsafe block",
            };
            findings.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule: Rule::UnsafeHygiene,
                message: format!("{what} without an immediately preceding `// SAFETY:` comment"),
                hint: "state the contract the site relies on in a // SAFETY: comment on the \
                       line(s) directly above"
                    .into(),
            });
        }
    }
}

/// Lints one Rust source file. `rel_path` must be workspace-relative — the
/// per-rule scoping (crate names, vendor/, test directories) is derived from
/// it, so fixtures can exercise any scope by choosing a virtual path.
pub fn lint_source(rel_path: &Path, source: &str) -> Vec<Finding> {
    let ctx = SourceContext::from_path(rel_path);
    let lexed = lex(source);
    let (allows, mut findings) = collect_allows(rel_path, &lexed);
    let test_ranges = test_line_ranges(&lexed.tokens);

    if !ctx.is_test_path {
        check_unordered_iteration(rel_path, &ctx, &lexed.tokens, &test_ranges, &mut findings);
    }
    check_wall_clock(rel_path, &ctx, &lexed.tokens, &test_ranges, &mut findings);
    check_unsafe_comments(rel_path, &lexed, &mut findings);

    findings.retain(|f| {
        f.rule == Rule::BadAllow
            || !allows
                .iter()
                .any(|a| a.rule == f.rule && a.covers.0 <= f.line && f.line <= a.covers.1)
    });
    findings.sort();
    findings
}

/// Checks a `crates/` crate-root file for the mandatory unsafe-code posture
/// attribute. Returns a finding if neither `#![forbid(unsafe_code)]` nor
/// `#![deny(unsafe_op_in_unsafe_fn)]` is present.
pub fn check_crate_root_attr(rel_path: &Path, source: &str) -> Option<Finding> {
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        let lint_name = match ident_at(tokens, i) {
            Some("forbid") => "unsafe_code",
            Some("deny") => "unsafe_op_in_unsafe_fn",
            _ => continue,
        };
        if punct_at(tokens, i + 1, '(') && ident_at(tokens, i + 2) == Some(lint_name) {
            return None;
        }
    }
    Some(Finding {
        file: rel_path.to_path_buf(),
        line: 1,
        rule: Rule::UnsafeHygiene,
        message: "crate root missing an unsafe-code posture attribute".into(),
        hint: "add #![forbid(unsafe_code)] (or #![deny(unsafe_op_in_unsafe_fn)] where unsafe \
               is load-bearing)"
            .into(),
    })
}
