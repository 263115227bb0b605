//! The daemon's wire protocol: line-delimited JSON requests and responses.
//!
//! One connection carries one request line and receives one response line —
//! deliberately the simplest possible framing over `std::net` TCP. Requests
//! are either *commands* (`{"cmd": "ping" | "stats" | "shutdown"}`) or
//! *schedule requests* naming a workload, an accelerator and the design-space
//! axes, with exactly the `sweep` CLI's keyword vocabulary (one parser,
//! in `defines-core`, beside the types it names):
//!
//! ```json
//! {"workload": "fsrcnn", "accelerator": "meta-proto-like-df",
//!  "dfmode": "3", "target": "energy", "fuse": "full",
//!  "tilex": [60], "tiley": [72]}
//! ```
//!
//! `dfmode`, `target` and `fuse` are optional (defaults `"123"`, `"energy"`,
//! `"auto"`); `tilex`/`tiley` must be given together or both omitted (the
//! explorer's default grid; an empty list counts as omitted). Any other key
//! is rejected, and so is a command carrying a key besides `cmd`: a typo'd
//! optional key would otherwise fall back to its default and silently answer
//! a different request.
//!
//! # Canonical form and byte-identity
//!
//! A request serializes in canonical form — fixed field order, defaults
//! filled in — so textually different request lines that mean the same
//! thing coalesce under one [`ScheduleRequest::canonical_key`]. Responses
//! ([`render_outcome`], written straight into the response string) embed
//! that canonical form and contain no timestamps, elapsed times or other
//! run-relative state: a response is a pure function of the request, which
//! is what lets the cross-process test harness byte-compare daemon answers
//! against standalone runs.

use defines_core::{BatchItem, FusePolicy, OptimizeTarget, OverlapMode};
use serde::{Fields, Items, Serialize, Value, ValueRef, Writer};

/// A validated schedule request in canonical (defaults-resolved) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRequest {
    /// Workload spec (builtin name or file path, resolver-interpreted).
    pub workload: String,
    /// Accelerator spec (builtin name or file path, resolver-interpreted).
    pub accelerator: String,
    /// Overlap modes, in first-mention order without repeats.
    pub dfmode: Vec<OverlapMode>,
    /// Optimization target.
    pub target: OptimizeTarget,
    /// Fuse policy.
    pub fuse: FusePolicy,
    /// Tile x extents; empty together with `tiley` means the default grid.
    pub tilex: Vec<u64>,
    /// Tile y extents.
    pub tiley: Vec<u64>,
}

/// The keys a schedule request may carry.
const SCHEDULE_KEYS: [&str; 7] = [
    "workload",
    "accelerator",
    "dfmode",
    "target",
    "fuse",
    "tilex",
    "tiley",
];

/// Reads the command name of a command request (`{"cmd": …}`, no other
/// key), or `None` when the line is a schedule request.
pub(crate) fn command<'v>(v: &ValueRef<'v>) -> Result<Option<&'v str>, String> {
    let fields = Fields::root(v)?;
    if fields.get("cmd").is_none() {
        return Ok(None);
    }
    fields.only(&["cmd"])?;
    fields.req("cmd").map(Some)
}

/// Reads a tile axis; an empty list means the same as an omitted one, so
/// the canonical form of a default-grid request is itself a valid request.
fn tile_axis(fields: &Fields<'_>, key: &str) -> Result<Vec<u64>, String> {
    let Some(items) = fields.opt::<Items<'_>>(key)? else {
        return Ok(Vec::new());
    };
    items
        .map(|item| item.as_u64().ok_or_else(|| positive_entries(key)))
        .collect()
}

fn positive_entries(key: &str) -> String {
    format!("'{key}' entries must be positive integers")
}

impl ScheduleRequest {
    /// Validates a request given in the protocol's vocabulary: `dfmode`
    /// digits, `target` and `fuse` keywords, and tile axes that are both
    /// empty (the explorer's default grid) or both given. Repeated `dfmode`
    /// digits are dropped. Keywords are checked here so a malformed request
    /// fails at the protocol boundary, not inside a batch.
    pub fn new(
        workload: &str,
        accelerator: &str,
        dfmode: &str,
        target: &str,
        fuse: &str,
        tilex: Vec<u64>,
        tiley: Vec<u64>,
    ) -> Result<Self, String> {
        for (key, axis) in [("tilex", &tilex), ("tiley", &tiley)] {
            if axis.contains(&0) {
                return Err(positive_entries(key));
            }
        }
        let dfmode = OverlapMode::parse_digits(dfmode).map_err(|why| format!("'dfmode': {why}"))?;
        let target = OptimizeTarget::from_keyword(target)?;
        let fuse = FusePolicy::from_keyword(fuse)?;
        if tilex.is_empty() != tiley.is_empty() {
            return Err(
                "'tilex' and 'tiley' must be given together (or both omitted for the \
                 default grid)"
                    .into(),
            );
        }
        Ok(Self {
            workload: workload.to_string(),
            accelerator: accelerator.to_string(),
            dfmode,
            target,
            fuse,
            tilex,
            tiley,
        })
    }

    /// Parses and validates a request object.
    // Kept for the frozen harness: `benchmark/` calls `ScheduleRequest::from_value`
    // on the request lines it parses into a `Value`.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        v.read(|v| Self::read(&v))
    }

    /// Reads a parsed request line: the fields with their defaults, then
    /// [`ScheduleRequest::new`].
    pub(crate) fn read(v: &ValueRef<'_>) -> Result<Self, String> {
        let fields = Fields::root(v)?;
        fields.only(&SCHEDULE_KEYS)?;
        let keyword =
            |key, default| -> Result<&str, String> { Ok(fields.opt(key)?.unwrap_or(default)) };
        Self::new(
            fields.req("workload")?,
            fields.req("accelerator")?,
            keyword("dfmode", "123")?,
            keyword("target", "energy")?,
            keyword("fuse", "auto")?,
            tile_axis(&fields, "tilex")?,
            tile_axis(&fields, "tiley")?,
        )
    }

    /// The coalescing key: the canonical form as compact JSON.
    pub fn canonical_key(&self) -> String {
        serde::to_json(self)
    }

    /// The tile grid, y-major like the `sweep` CLI, or `None` for the
    /// explorer's default grid.
    pub(crate) fn tile_grid(&self) -> Option<Vec<(u64, u64)>> {
        if self.tilex.is_empty() {
            return None;
        }
        let mut grid = Vec::with_capacity(self.tilex.len() * self.tiley.len());
        for &ty in &self.tiley {
            for &tx in &self.tilex {
                grid.push((tx, ty));
            }
        }
        Some(grid)
    }

    /// Builds the batch item for this request against resolved inputs. The
    /// item label is the canonical key, so engine telemetry names the
    /// request and the daemon and standalone paths label identically (run
    /// labels appear in the response's stats block — they must match for
    /// byte-identity).
    pub fn to_batch_item(
        &self,
        accelerator: defines_arch::Accelerator,
        network: defines_workload::Network,
    ) -> BatchItem {
        BatchItem {
            label: self.canonical_key(),
            accelerator,
            network,
            tile_grid: self.tile_grid(),
            modes: self.dfmode.clone(),
            target: self.target,
            policy: self.fuse,
        }
    }
}

/// The canonical JSON form: fixed field order, defaults resolved. Two
/// requests with equal canonical forms are the same request.
impl Serialize for ScheduleRequest {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.field("workload", &self.workload);
        w.field("accelerator", &self.accelerator);
        let digits: String = self.dfmode.iter().map(OverlapMode::digit).collect();
        w.field("dfmode", &digits);
        w.field("target", self.target.keyword());
        w.field("fuse", self.fuse.keyword());
        w.field("tilex", &self.tilex);
        w.field("tiley", &self.tiley);
        w.end_object();
    }
}

/// Renders the response line for a completed schedule request: the canonical
/// request echoed back, the objective value, and the full schedule (or the
/// error). Deterministic — see the module docs.
pub fn render_outcome(request: &ScheduleRequest, outcome: &defines_core::BatchOutcome) -> String {
    let mut out = String::new();
    let w = &mut Writer::compact(&mut out);
    w.begin_object();
    w.field("ok", &outcome.error.is_none());
    w.field("request", request);
    match (&outcome.schedule, &outcome.error) {
        (Some(schedule), None) => {
            w.field("value", &outcome.value);
            w.field("result", schedule);
        }
        (_, Some(error)) => w.field("error", error),
        (None, None) => w.field("error", "request produced no result"),
    }
    w.end_object();
    out
}

/// Renders an error response for a request that never reached a batch
/// (parse or resolution failure).
pub(crate) fn render_error(error: &str) -> String {
    let mut out = String::new();
    let w = &mut Writer::compact(&mut out);
    w.begin_object();
    w.field("ok", &false);
    w.field("error", error);
    w.end_object();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<ScheduleRequest, String> {
        let mut tape = serde::Tape::new();
        let v = tape.parse(json).map_err(|e| e.to_string())?;
        ScheduleRequest::read(&v)
    }

    #[test]
    fn defaults_are_resolved_and_canonicalized() {
        let r = parse(r#"{"workload":"fsrcnn","accelerator":"tpu-like"}"#).unwrap();
        assert_eq!(r.dfmode, OverlapMode::ALL);
        assert_eq!(r.target, OptimizeTarget::Energy);
        assert_eq!(r.fuse, FusePolicy::Auto);
        assert!(r.tile_grid().is_none());
    }

    #[test]
    fn textually_different_equal_requests_share_a_key() {
        let a = parse(
            r#"{"accelerator":"tpu-like","workload":"fsrcnn","dfmode":"331","target":"energy"}"#,
        )
        .unwrap();
        let b = parse(r#"{"workload":"fsrcnn","accelerator":"tpu-like","dfmode":"31"}"#).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    /// Canonical keys are coalescing keys and run labels, and responses echo
    /// them: each must stay byte-for-byte what earlier builds wrote.
    #[test]
    fn canonical_keys_are_pinned() {
        let base = r#""workload":"fsrcnn","accelerator":"tpu-like""#;
        let key = |dfmode: &str, target: &str, fuse: &str, tiles: &str| {
            format!(r#"{{{base},"dfmode":"{dfmode}","target":"{target}","fuse":"{fuse}",{tiles}}}"#)
        };
        let no_tiles = r#""tilex":[],"tiley":[]"#;
        let mut table = vec![
            (
                format!("{{{base}}}"),
                key("123", "energy", "auto", no_tiles),
            ),
            (
                format!(r#"{{{base},"dfmode":"3311"}}"#),
                key("31", "energy", "auto", no_tiles),
            ),
            (
                format!(r#"{{{base},"dfmode":"2122"}}"#),
                key("21", "energy", "auto", no_tiles),
            ),
            (
                format!(r#"{{"tiley":[8,4],"tilex":[16],{base},"dfmode":"321"}}"#),
                key("321", "energy", "auto", r#""tilex":[16],"tiley":[8,4]"#),
            ),
        ];
        for target in ["energy", "latency", "edp", "dram", "activation"] {
            let line = format!(r#"{{{base},"target":"{target}"}}"#);
            table.push((line, key("123", target, "auto", no_tiles)));
        }
        for fuse in ["auto", "full", "single", "search"] {
            let line = format!(r#"{{{base},"fuse":"{fuse}"}}"#);
            table.push((line, key("123", "energy", fuse, no_tiles)));
        }
        for (line, expected) in table {
            assert_eq!(parse(&line).unwrap().canonical_key(), expected, "{line}");
        }
    }

    /// The canonical form is a request line that reads back to the same
    /// request, so a client may send it as is.
    #[test]
    fn canonical_keys_read_back_to_their_request() {
        let base = r#""workload":"fsrcnn","accelerator":"tpu-like""#;
        let mut lines = vec![
            format!("{{{base}}}"),
            format!(r#"{{{base},"tilex":[16,8],"tiley":[4]}}"#),
            format!(r#"{{{base},"dfmode":"2122","tilex":[60],"tiley":[72]}}"#),
        ];
        for target in ["energy", "latency", "edp", "dram", "activation"] {
            lines.push(format!(r#"{{{base},"target":"{target}"}}"#));
        }
        for fuse in ["auto", "full", "single", "search"] {
            lines.push(format!(r#"{{{base},"fuse":"{fuse}"}}"#));
        }
        for line in lines {
            let request = parse(&line).unwrap();
            assert_eq!(parse(&request.canonical_key()), Ok(request), "{line}");
        }
    }

    #[test]
    fn tile_axes_must_come_together() {
        let err = parse(r#"{"workload":"w","accelerator":"a","tilex":[8]}"#).unwrap_err();
        assert!(err.contains("together"), "{err}");
        let err =
            parse(r#"{"workload":"w","accelerator":"a","tilex":[],"tiley":[8]}"#).unwrap_err();
        assert!(err.contains("together"), "{err}");
        let r = parse(r#"{"workload":"w","accelerator":"a","tilex":[8,16],"tiley":[4]}"#).unwrap();
        assert_eq!(r.tile_grid().unwrap(), vec![(8, 4), (16, 4)]);
    }

    #[test]
    fn bad_keywords_fail_at_the_boundary() {
        for json in [
            r#"{"workload":"w","accelerator":"a","dfmode":"4"}"#,
            r#"{"workload":"w","accelerator":"a","target":"speed"}"#,
            r#"{"workload":"w","accelerator":"a","fuse":"everything"}"#,
            r#"{"workload":"w","accelerator":"a","tilex":[0],"tiley":[1]}"#,
        ] {
            assert!(parse(json).is_err(), "{json} should fail");
        }
    }

    #[test]
    fn unknown_request_keys_are_rejected() {
        let err = parse(r#"{"workload":"w","accelerator":"a","targte":"latency"}"#).unwrap_err();
        assert!(err.contains("targte"), "{err}");
    }

    #[test]
    fn commands_carry_only_cmd() {
        let mut tape = serde::Tape::new();
        let v = tape.parse(r#"{"cmd":"ping"}"#).unwrap();
        assert_eq!(command(&v), Ok(Some("ping")));
        let v = tape.parse(r#"{"workload":"w"}"#).unwrap();
        assert_eq!(command(&v), Ok(None));
        let v = tape.parse(r#"{"cmd":"stats","verbose":true}"#).unwrap();
        let err = command(&v).unwrap_err();
        assert!(err.contains("verbose"), "{err}");
    }
}
