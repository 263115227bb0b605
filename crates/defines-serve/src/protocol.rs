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
//! explorer's default grid).
//!
//! # Canonical form and byte-identity
//!
//! [`ScheduleRequest::canonical_value`] renders a request with fixed field
//! order and defaults filled in, so textually different request lines that
//! mean the same thing coalesce under one [`ScheduleRequest::canonical_key`].
//! Responses ([`render_outcome`]) embed that canonical form and contain no
//! timestamps, elapsed times or other run-relative state: a response is a
//! pure function of the request, which is what lets the cross-process test
//! harness byte-compare daemon answers against standalone runs.

use defines_core::{BatchItem, FusePolicy, OptimizeTarget, OverlapMode};
use defines_engine::journal::str_field;
use serde::{Serialize, Value};

/// A validated schedule request in canonical (defaults-resolved) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRequest {
    /// Workload spec (builtin name or file path, resolver-interpreted).
    pub workload: String,
    /// Accelerator spec (builtin name or file path, resolver-interpreted).
    pub accelerator: String,
    /// Overlap-mode digits (validated, duplicates removed).
    pub dfmode: String,
    /// Optimization-target keyword (validated).
    pub target: String,
    /// Fuse-policy keyword (validated).
    pub fuse: String,
    /// Tile x extents; empty together with `tiley` means the default grid.
    pub tilex: Vec<u64>,
    /// Tile y extents.
    pub tiley: Vec<u64>,
}

fn optional_string(v: &Value, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(s) => s
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("'{key}' is not a string")),
    }
}

fn tile_axis(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    let Some(axis) = v.get(key) else {
        return Ok(Vec::new());
    };
    if axis.is_null() {
        return Ok(Vec::new());
    }
    let items = axis
        .as_array()
        .ok_or_else(|| format!("'{key}' is not an array"))?;
    if items.is_empty() {
        return Err(format!("'{key}' needs at least one entry"));
    }
    items
        .iter()
        .map(|item| match item.as_u64() {
            Some(n) if n > 0 => Ok(n),
            _ => Err(format!("'{key}' entries must be positive integers")),
        })
        .collect()
}

impl ScheduleRequest {
    /// Parses and validates a request object. Keywords are checked here so a
    /// malformed request fails at the protocol boundary, not inside a batch.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let request = Self {
            workload: str_field(v, "workload")?.to_string(),
            accelerator: str_field(v, "accelerator")?.to_string(),
            dfmode: optional_string(v, "dfmode", "123")?,
            target: optional_string(v, "target", "energy")?,
            fuse: optional_string(v, "fuse", "auto")?,
            tilex: tile_axis(v, "tilex")?,
            tiley: tile_axis(v, "tiley")?,
        };
        // Validate the axes eagerly; also canonicalizes dfmode (dedup).
        let modes =
            OverlapMode::parse_digits(&request.dfmode).map_err(|why| format!("'dfmode': {why}"))?;
        OptimizeTarget::from_keyword(&request.target)?;
        FusePolicy::from_keyword(&request.fuse)?;
        if request.tilex.is_empty() != request.tiley.is_empty() {
            return Err(
                "'tilex' and 'tiley' must be given together (or both omitted for the \
                 default grid)"
                    .into(),
            );
        }
        let dfmode = modes.iter().map(OverlapMode::digit).collect();
        Ok(Self { dfmode, ..request })
    }

    /// The canonical JSON form: fixed field order, defaults resolved. Two
    /// requests with equal canonical forms are the same request.
    pub fn canonical_value(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("accelerator".into(), Value::Str(self.accelerator.clone())),
            ("dfmode".into(), Value::Str(self.dfmode.clone())),
            ("target".into(), Value::Str(self.target.clone())),
            ("fuse".into(), Value::Str(self.fuse.clone())),
            (
                "tilex".into(),
                Value::Array(self.tilex.iter().map(|&n| Value::U64(n)).collect()),
            ),
            (
                "tiley".into(),
                Value::Array(self.tiley.iter().map(|&n| Value::U64(n)).collect()),
            ),
        ])
    }

    /// The coalescing key: the canonical form as compact JSON.
    pub fn canonical_key(&self) -> String {
        self.canonical_value().to_json()
    }

    /// The tile grid, y-major like the `sweep` CLI, or `None` for the
    /// explorer's default grid.
    pub fn tile_grid(&self) -> Option<Vec<(u64, u64)>> {
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
            modes: OverlapMode::parse_digits(&self.dfmode)
                .expect("dfmode was validated at parse time"),
            target: OptimizeTarget::from_keyword(&self.target)
                .expect("target was validated at parse time"),
            policy: FusePolicy::from_keyword(&self.fuse).expect("fuse was validated at parse time"),
        }
    }
}

/// Renders the response line for a completed schedule request: the canonical
/// request echoed back, the objective value, and the full schedule (or the
/// error). Deterministic — see the module docs.
pub fn render_outcome(request: &ScheduleRequest, outcome: &defines_core::BatchOutcome) -> String {
    let mut fields = vec![("ok".to_string(), Value::Bool(outcome.error.is_none()))];
    fields.push(("request".into(), request.canonical_value()));
    match (&outcome.schedule, &outcome.error) {
        (Some(schedule), None) => {
            fields.push(("value".into(), Value::F64(outcome.value)));
            fields.push(("result".into(), schedule.to_value()));
        }
        (_, Some(error)) => {
            fields.push(("error".into(), Value::Str(error.clone())));
        }
        (None, None) => {
            fields.push((
                "error".into(),
                Value::Str("request produced no result".into()),
            ));
        }
    }
    Value::Object(fields).to_json()
}

/// Renders an error response for a request that never reached a batch
/// (parse or resolution failure).
pub fn render_error(error: &str) -> String {
    Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(error.to_string())),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<ScheduleRequest, String> {
        let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
        ScheduleRequest::from_value(&v)
    }

    #[test]
    fn defaults_are_resolved_and_canonicalized() {
        let r = parse(r#"{"workload":"fsrcnn","accelerator":"tpu-like"}"#).unwrap();
        assert_eq!(r.dfmode, "123");
        assert_eq!(r.target, "energy");
        assert_eq!(r.fuse, "auto");
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

    #[test]
    fn tile_axes_must_come_together() {
        let err = parse(r#"{"workload":"w","accelerator":"a","tilex":[8]}"#).unwrap_err();
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
}
