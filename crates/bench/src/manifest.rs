//! Sweep failure manifests: the checkpoint/resume format.
//!
//! A fail-soft sweep writes `<out>.manifest.json` next to its CSV: the
//! grid's content hash, the document's column gates, and one outcome per
//! cell — finished cells carry their **fully rendered CSV row**, failed
//! cells their diagnosis and attempt count. `--resume <manifest>`
//! re-runs only the cells that produced no row and splices stored and
//! fresh rows back together in cell-index order ([`splice`]); because
//! the CSV's column gates are a pure function of the grid (see
//! [`CsvGates`]), the spliced document is byte-identical to an
//! uninterrupted run.
//!
//! The manifest is parsed by a hand-rolled, std-only JSON reader (the
//! workspace is hermetic — no serde), which reports malformed input with
//! a line number and stale input (wrong grid hash, unknown cell index)
//! with a field-level diagnostic. Neither ever panics: the CLI maps both
//! onto its typed usage errors.

use crate::sha256::sha256_hex;
use crate::sweep::{CellExecution, CellOutcome, CsvGates, SweepCell};
use parcache_core::metrics::json_escape;
use parcache_disk::FaultPlan;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Schema tag of the manifest format this module reads and writes.
pub const MANIFEST_SCHEMA: &str = "parcache-sweep-manifest-v1";

/// Why a manifest was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The bytes are not well-formed JSON; `line` is 1-based.
    Parse {
        /// Line the reader choked on.
        line: usize,
        /// What it expected or found.
        msg: String,
    },
    /// Well-formed JSON that is not a manifest (wrong schema tag,
    /// missing or mistyped field). Names the offending field.
    Schema(String),
    /// A valid manifest for a *different* sweep: grid hash mismatch,
    /// cell count mismatch, unknown or duplicate cell index, or gates
    /// that disagree with the requested output flavor.
    Stale(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ManifestError::Schema(msg) => write!(f, "not a sweep manifest: {msg}"),
            ManifestError::Stale(msg) => write!(f, "manifest does not match this sweep: {msg}"),
        }
    }
}

/// One cell's recorded ending.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestStatus {
    /// Finished: the rendered CSV row (no trailing newline) and, for
    /// audited sweeps, whether its audit came back clean.
    Ok {
        /// The cell's CSV row as the run's gates rendered it.
        row: String,
        /// `Some(clean)` when the run was audited.
        audit_clean: Option<bool>,
    },
    /// Every attempt panicked.
    Panicked {
        /// The rendered panic payload.
        panic: String,
    },
    /// Every attempt overran the watchdog.
    TimedOut {
        /// The deadline, in milliseconds.
        timeout_ms: u64,
    },
    /// Never dispatched (fail-fast halt).
    Skipped,
}

impl ManifestStatus {
    /// The stored row, for finished cells.
    pub fn row(&self) -> Option<&str> {
        match self {
            ManifestStatus::Ok { row, .. } => Some(row),
            _ => None,
        }
    }
}

/// One cell's manifest entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestCell {
    /// Grid index.
    pub index: usize,
    /// Attempts consumed.
    pub attempts: u32,
    /// How the cell ended.
    pub status: ManifestStatus,
}

/// A sweep's failure manifest: enough to decide what to re-run and to
/// splice a byte-identical document once the re-run finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Content hash of the grid + fault plan (see [`grid_hash`]).
    pub grid_hash: String,
    /// Total cells in the grid.
    pub cells: usize,
    /// The column gates the rows were rendered under.
    pub gates: CsvGates,
    /// Whether the sweep ran audited.
    pub audited: bool,
    /// Per-cell outcomes, in index order as written (order is not
    /// trusted on read).
    pub outcomes: Vec<ManifestCell>,
}

impl ManifestCell {
    /// The manifest entry of one fail-soft execution; a finished cell
    /// stores its gate-rendered row (without the trailing newline).
    pub fn from_execution(e: &CellExecution, gates: CsvGates) -> ManifestCell {
        ManifestCell {
            index: e.index,
            attempts: e.attempts,
            status: match &e.outcome {
                CellOutcome::Ok(row) => ManifestStatus::Ok {
                    row: gates.row(row).trim_end_matches('\n').to_string(),
                    audit_clean: e.audit.as_ref().map(|a| a.violations.is_empty()),
                },
                CellOutcome::Panicked { msg } => ManifestStatus::Panicked { panic: msg.clone() },
                CellOutcome::TimedOut { limit } => ManifestStatus::TimedOut {
                    timeout_ms: limit.as_millis() as u64,
                },
                CellOutcome::Skipped => ManifestStatus::Skipped,
            },
        }
    }
}

impl SweepManifest {
    /// How many entries finished.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status.row().is_some())
            .count()
    }

    /// The manifest as its on-disk JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.outcomes.len() * 160 + 256);
        let _ = write!(
            out,
            r#"{{"schema":"{}","grid_hash":"{}","cells":{},"explain":{},"faulted":{},"hinted":{},"audited":{},"completed":{},"outcomes":["#,
            MANIFEST_SCHEMA,
            self.grid_hash,
            self.cells,
            self.gates.explain,
            self.gates.faulted,
            self.gates.hinted,
            self.audited,
            self.completed(),
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            let _ = write!(out, r#"{{"index":{},"attempts":{},"#, o.index, o.attempts);
            match &o.status {
                ManifestStatus::Ok { row, audit_clean } => {
                    let _ = write!(out, r#""status":"ok","row":"{}""#, json_escape(row));
                    if let Some(clean) = audit_clean {
                        let _ = write!(out, r#","audit_clean":{clean}"#);
                    }
                }
                ManifestStatus::Panicked { panic } => {
                    let _ = write!(
                        out,
                        r#""status":"panicked","panic":"{}""#,
                        json_escape(panic)
                    );
                }
                ManifestStatus::TimedOut { timeout_ms } => {
                    let _ = write!(out, r#""status":"timed_out","timeout_ms":{timeout_ms}"#);
                }
                ManifestStatus::Skipped => out.push_str(r#""status":"skipped""#),
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a manifest document. Malformed JSON is a
    /// [`ManifestError::Parse`] with the line it went wrong on;
    /// well-formed JSON missing the contract is a
    /// [`ManifestError::Schema`] naming the field.
    pub fn parse(text: &str) -> Result<SweepManifest, ManifestError> {
        let value = JsonParser::new(text).document()?;
        let doc = value.as_object("manifest root")?;
        let schema = get(doc, "schema")?.as_str("schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(ManifestError::Schema(format!(
                "schema is {schema:?}, expected {MANIFEST_SCHEMA:?}"
            )));
        }
        let manifest = SweepManifest {
            grid_hash: get(doc, "grid_hash")?.as_str("grid_hash")?.to_string(),
            cells: get(doc, "cells")?.as_usize("cells")?,
            gates: CsvGates {
                explain: get(doc, "explain")?.as_bool("explain")?,
                faulted: get(doc, "faulted")?.as_bool("faulted")?,
                hinted: get(doc, "hinted")?.as_bool("hinted")?,
            },
            audited: get(doc, "audited")?.as_bool("audited")?,
            outcomes: get(doc, "outcomes")?
                .as_array("outcomes")?
                .iter()
                .map(parse_outcome)
                .collect::<Result<_, _>>()?,
        };
        Ok(manifest)
    }
}

fn parse_outcome(value: &Json) -> Result<ManifestCell, ManifestError> {
    let obj = value.as_object("outcomes[] entry")?;
    let index = get(obj, "index")?.as_usize("index")?;
    let attempts = get(obj, "attempts")?.as_usize("attempts")? as u32;
    let status = match get(obj, "status")?.as_str("status")? {
        "ok" => ManifestStatus::Ok {
            row: get(obj, "row")?.as_str("row")?.to_string(),
            audit_clean: match find(obj, "audit_clean") {
                Some(v) => Some(v.as_bool("audit_clean")?),
                None => None,
            },
        },
        "panicked" => ManifestStatus::Panicked {
            panic: get(obj, "panic")?.as_str("panic")?.to_string(),
        },
        "timed_out" => ManifestStatus::TimedOut {
            timeout_ms: get(obj, "timeout_ms")?.as_usize("timeout_ms")? as u64,
        },
        "skipped" => ManifestStatus::Skipped,
        other => {
            return Err(ManifestError::Schema(format!(
                "status: unknown value {other:?}"
            )))
        }
    };
    Ok(ManifestCell {
        index,
        attempts,
        status,
    })
}

/// The resume plan a validated manifest yields: which rows are already
/// on disk, and which cells still need to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumePlan {
    /// Carried-forward manifest entries (clean, finished cells), keyed
    /// by cell index. Each holds its rendered row and attempt count.
    pub stored: HashMap<usize, ManifestCell>,
    /// Cell indices that must (re-)run, ascending.
    pub to_run: Vec<usize>,
    /// Cells whose recorded audit came back dirty; they re-run rather
    /// than carry a known-bad result forward.
    pub stale_audit_failures: Vec<usize>,
}

/// Validates `manifest` against the grid the caller is about to run
/// (its cell count and [`grid_hash`]) and plans the resume. Any
/// disagreement — hash, cell count, flavor, audit mode, out-of-range or
/// duplicate index — is a [`ManifestError::Stale`] naming what
/// differed; a manifest entry the grid lacks can only mean the flags
/// changed between runs.
pub fn plan_resume(
    manifest: &SweepManifest,
    cells: usize,
    expected_hash: &str,
    gates: CsvGates,
    audited: bool,
) -> Result<ResumePlan, ManifestError> {
    if manifest.grid_hash != expected_hash {
        return Err(ManifestError::Stale(format!(
            "grid_hash is {}…, this sweep's grid hashes to {}… (different traces, algorithms, disks, hints, or fault plan)",
            &manifest.grid_hash[..manifest.grid_hash.len().min(12)],
            &expected_hash[..expected_hash.len().min(12)],
        )));
    }
    if manifest.cells != cells {
        return Err(ManifestError::Stale(format!(
            "cells is {}, this sweep expands to {cells}",
            manifest.cells,
        )));
    }
    if manifest.gates != gates {
        return Err(ManifestError::Stale(format!(
            "gates are {:?}, this invocation renders {:?} (check --explain and fault/hint flags)",
            manifest.gates, gates
        )));
    }
    if manifest.audited != audited {
        return Err(ManifestError::Stale(format!(
            "audited is {}, this invocation's is {} (check --audit)",
            manifest.audited, audited
        )));
    }
    let mut stored = HashMap::with_capacity(manifest.outcomes.len());
    let mut stale_audit_failures = Vec::new();
    let mut seen = vec![false; cells];
    for o in &manifest.outcomes {
        if o.index >= cells {
            return Err(ManifestError::Stale(format!(
                "outcome index {} is outside the {cells}-cell grid",
                o.index,
            )));
        }
        if seen[o.index] {
            return Err(ManifestError::Stale(format!(
                "outcome index {} appears twice",
                o.index
            )));
        }
        seen[o.index] = true;
        if let ManifestStatus::Ok { audit_clean, .. } = &o.status {
            if *audit_clean == Some(false) {
                stale_audit_failures.push(o.index);
            } else {
                stored.insert(o.index, o.clone());
            }
        }
    }
    // Failed, skipped, dirty-audit, *and missing* cells all re-run: a
    // truncated-but-valid outcome list is indistinguishable from a skip,
    // and re-running is always safe.
    let to_run = (0..cells).filter(|i| !stored.contains_key(i)).collect();
    Ok(ResumePlan {
        stored,
        to_run,
        stale_audit_failures,
    })
}

/// Splices a run into the grid's manifest entries, in cell-index order:
/// a cell this run executed gets its fresh entry, any other cell the
/// entry `stored` carried forward from a resumed manifest, and a cell
/// with neither gets none. A run without `--resume` passes nothing
/// stored. The CSV document ([`csv_document`]) and the manifest written
/// beside it both come from these entries, and the row gates are a pure
/// function of the grid, so a resumed document is byte-identical to an
/// uninterrupted one.
pub fn splice(
    cells: usize,
    gates: CsvGates,
    mut stored: HashMap<usize, ManifestCell>,
    executions: &[CellExecution],
) -> Vec<ManifestCell> {
    let mut fresh: Vec<Option<&CellExecution>> = vec![None; cells];
    for e in executions {
        fresh[e.index] = Some(e);
    }
    fresh
        .into_iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Some(e) => Some(ManifestCell::from_execution(e, gates)),
            None => stored.remove(&i),
        })
        .collect()
}

/// The CSV document of spliced entries: the gates' header, then the row
/// of every finished entry. A failed cell leaves no row — the document is
/// the partial result, and the manifest records why.
pub fn csv_document(gates: CsvGates, outcomes: &[ManifestCell]) -> String {
    let per_row = if gates.explain { 128 } else { 96 };
    let mut doc = String::with_capacity(outcomes.len() * per_row + 160);
    doc.push_str(&gates.header());
    for row in outcomes.iter().filter_map(|o| o.status.row()) {
        doc.push_str(row);
        doc.push('\n');
    }
    doc
}

/// Content hash identifying a sweep: every cell's trace (by content
/// digest), algorithm, array size, and hint source, plus the fault plan.
/// Two invocations agree on this hash exactly when their grids simulate
/// the same work, which is what makes a stored row safe to splice.
pub fn grid_hash(cells: &[SweepCell], faults: &FaultPlan) -> String {
    let mut traces: HashMap<*const parcache_trace::Trace, String> = HashMap::new();
    let mut desc = String::with_capacity(cells.len() * 96 + 64);
    for c in cells {
        let digest = traces
            .entry(Arc::as_ptr(&c.trace))
            .or_insert_with(|| trace_digest(&c.trace));
        let _ = writeln!(
            desc,
            "{}|{}|{}|{}|{}",
            c.index,
            digest,
            c.algo.name(),
            c.disks,
            c.hints.name()
        );
    }
    let _ = writeln!(desc, "faults|{faults:?}");
    sha256_hex(desc.as_bytes())
}

/// Content digest of one trace: name, cache size, and the full request
/// stream. Computed once per distinct trace of a grid.
fn trace_digest(t: &parcache_trace::Trace) -> String {
    let mut bytes = Vec::with_capacity(t.requests.len() * 16 + t.name.len() + 16);
    bytes.extend_from_slice(t.name.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&(t.cache_blocks as u64).to_le_bytes());
    for r in &t.requests {
        bytes.extend_from_slice(&r.block.0.to_le_bytes());
        bytes.extend_from_slice(&r.compute.0.to_le_bytes());
    }
    sha256_hex(&bytes)
}

// ---------------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order; numbers stay `f64`
/// (manifest integers are far below 2^53, checked on conversion).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    fn as_object(&self, field: &str) -> Result<&[(String, Json)], ManifestError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            v => Err(schema_mismatch(field, "an object", v)),
        }
    }

    fn as_array(&self, field: &str) -> Result<&[Json], ManifestError> {
        match self {
            Json::Arr(items) => Ok(items),
            v => Err(schema_mismatch(field, "an array", v)),
        }
    }

    fn as_str(&self, field: &str) -> Result<&str, ManifestError> {
        match self {
            Json::Str(s) => Ok(s),
            v => Err(schema_mismatch(field, "a string", v)),
        }
    }

    fn as_bool(&self, field: &str) -> Result<bool, ManifestError> {
        match self {
            Json::Bool(b) => Ok(*b),
            v => Err(schema_mismatch(field, "a boolean", v)),
        }
    }

    fn as_usize(&self, field: &str) -> Result<usize, ManifestError> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Ok(*n as usize),
            v => Err(schema_mismatch(field, "a non-negative integer", v)),
        }
    }
}

fn schema_mismatch(field: &str, wanted: &str, got: &Json) -> ManifestError {
    ManifestError::Schema(format!(
        "{field}: expected {wanted}, got {}",
        got.type_name()
    ))
}

fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, ManifestError> {
    find(obj, key).ok_or_else(|| ManifestError::Schema(format!("{key}: missing field")))
}

/// Recursive-descent JSON reader over raw bytes, tracking the current
/// line for diagnostics. Handles exactly standard JSON; escapes cover
/// everything [`json_escape`] emits plus the remaining standard ones.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> JsonParser<'a> {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ManifestError> {
        Err(ManifestError::Parse {
            line: self.line,
            msg: msg.into(),
        })
    }

    /// Parses the whole input as one value (trailing garbage rejected).
    fn document(mut self) -> Result<Json, ManifestError> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return self.err("trailing characters after the document");
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ManifestError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ManifestError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected {text:?}"))
        }
    }

    fn value(&mut self) -> Result<Json, ManifestError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character {:?}", c as char)),
        }
    }

    fn object(&mut self) -> Result<Json, ManifestError> {
        self.eat(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':' after object key")?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ManifestError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ManifestError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                // Surrogate pairs never appear: the
                                // writer only \u-escapes control bytes.
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(b'\n') => return self.err("unterminated string"),
                Some(_) => {
                    // Copy the full UTF-8 scalar, not just one byte.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| ManifestError::Parse {
                        line: self.line,
                        msg: "invalid UTF-8 in string".to_string(),
                    })?;
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ManifestError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err(format!("bad number {text:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepManifest {
        SweepManifest {
            grid_hash: "deadbeef".into(),
            cells: 4,
            gates: CsvGates {
                faulted: false,
                hinted: true,
                explain: false,
            },
            audited: true,
            outcomes: vec![
                ManifestCell {
                    index: 0,
                    attempts: 1,
                    status: ManifestStatus::Ok {
                        row: "synth,demand,1,0.123".into(),
                        audit_clean: Some(true),
                    },
                },
                ManifestCell {
                    index: 1,
                    attempts: 2,
                    status: ManifestStatus::Panicked {
                        panic: "index out of bounds: \"quoted\"\nsecond line".into(),
                    },
                },
                ManifestCell {
                    index: 2,
                    attempts: 1,
                    status: ManifestStatus::TimedOut { timeout_ms: 250 },
                },
                ManifestCell {
                    index: 3,
                    attempts: 0,
                    status: ManifestStatus::Skipped,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let parsed = SweepManifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.completed(), 1);
    }

    #[test]
    fn truncated_json_reports_the_line() {
        let text = sample().to_json();
        let cut = &text[..text.len() * 2 / 3];
        match SweepManifest::parse(cut) {
            Err(ManifestError::Parse { line, .. }) => assert!(line > 1, "line {line}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_schema_and_missing_fields_are_schema_errors() {
        let err = SweepManifest::parse(r#"{"schema":"something-else"}"#).unwrap_err();
        assert!(matches!(err, ManifestError::Schema(ref m) if m.contains("something-else")));
        let err = SweepManifest::parse(r#"{"schema":"parcache-sweep-manifest-v1"}"#).unwrap_err();
        assert!(
            matches!(err, ManifestError::Schema(ref m) if m.contains("grid_hash")),
            "{err:?}"
        );
        let err = SweepManifest::parse("[1,2,3]").unwrap_err();
        assert!(matches!(err, ManifestError::Schema(_)), "{err:?}");
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let m = sample();
        let parsed = SweepManifest::parse(&m.to_json()).unwrap();
        match &parsed.outcomes[1].status {
            ManifestStatus::Panicked { panic } => {
                assert_eq!(panic, "index out of bounds: \"quoted\"\nsecond line");
            }
            other => panic!("{other:?}"),
        }
        for bad in ["", "{", "nul", r#"{"a" 1}"#, "{}trailing"] {
            assert!(
                matches!(SweepManifest::parse(bad), Err(ManifestError::Parse { .. })),
                "{bad:?}"
            );
        }
    }
}
