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
//! The manifest is written and read through [`parcache_core::json`],
//! whose reader reports malformed input with a line number; stale input
//! (wrong grid hash, unknown cell index) gets a field-level diagnostic.
//! Neither ever panics: the CLI maps both onto its typed usage errors.

use crate::sha256::sha256_hex;
use crate::sweep::{CellExecution, CellOutcome, CsvGates, SweepCell};
use parcache_core::json::{self, Json, ParseError, SchemaError};
use parcache_disk::FaultPlan;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Schema tag of the manifest format this module reads and writes.
pub(crate) const MANIFEST_SCHEMA: &str = "parcache-sweep-manifest-v1";

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

impl From<ParseError> for ManifestError {
    fn from(e: ParseError) -> ManifestError {
        ManifestError::Parse {
            line: e.line,
            msg: e.msg,
        }
    }
}

impl From<SchemaError> for ManifestError {
    fn from(e: SchemaError) -> ManifestError {
        ManifestError::Schema(e.0)
    }
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
    pub(crate) fn row(&self) -> Option<&str> {
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
    pub(crate) fn from_execution(e: &CellExecution, gates: CsvGates) -> ManifestCell {
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

    /// The manifest as its on-disk JSON document: one line per outcome.
    pub fn to_json(&self) -> String {
        let outcomes = self.outcomes.iter().map(|o| {
            let entry = json::object()
                .field("index", o.index)
                .field("attempts", o.attempts);
            match &o.status {
                ManifestStatus::Ok { row, audit_clean } => entry
                    .field("status", "ok")
                    .field("row", row)
                    .opt("audit_clean", *audit_clean),
                ManifestStatus::Panicked { panic } => {
                    entry.field("status", "panicked").field("panic", panic)
                }
                ManifestStatus::TimedOut { timeout_ms } => entry
                    .field("status", "timed_out")
                    .field("timeout_ms", *timeout_ms),
                ManifestStatus::Skipped => entry.field("status", "skipped"),
            }
        });
        json::object()
            .field("schema", MANIFEST_SCHEMA)
            .field("grid_hash", &self.grid_hash)
            .field("cells", self.cells)
            .field("explain", self.gates.explain)
            .field("faulted", self.gates.faulted)
            .field("hinted", self.gates.hinted)
            .field("audited", self.audited)
            .field("completed", self.completed())
            .lines("outcomes", outcomes)
            .finish()
            + "\n"
    }

    /// Parses a manifest document. Malformed JSON is a
    /// [`ManifestError::Parse`] with the line it went wrong on;
    /// well-formed JSON missing the contract is a
    /// [`ManifestError::Schema`] naming the field.
    pub fn parse(text: &str) -> Result<SweepManifest, ManifestError> {
        let value = json::parse(text)?;
        let doc: &Json = value.expect("manifest root")?;
        let schema: &str = doc.field("schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(ManifestError::Schema(format!(
                "schema is {schema:?}, expected {MANIFEST_SCHEMA:?}"
            )));
        }
        Ok(SweepManifest {
            grid_hash: doc.field::<&str>("grid_hash")?.to_string(),
            cells: doc.field("cells")?,
            gates: CsvGates {
                explain: doc.field("explain")?,
                faulted: doc.field("faulted")?,
                hinted: doc.field("hinted")?,
            },
            audited: doc.field("audited")?,
            outcomes: doc
                .field::<&[Json]>("outcomes")?
                .iter()
                .map(parse_outcome)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn parse_outcome(value: &Json) -> Result<ManifestCell, ManifestError> {
    let obj: &Json = value.expect("outcomes[] entry")?;
    let index = obj.field("index")?;
    let attempts = obj.field("attempts")?;
    let status = match obj.field("status")? {
        "ok" => ManifestStatus::Ok {
            row: obj.field::<&str>("row")?.to_string(),
            audit_clean: obj
                .member("audit_clean")
                .map(|v| v.expect("audit_clean"))
                .transpose()?,
        },
        "panicked" => ManifestStatus::Panicked {
            panic: obj.field::<&str>("panic")?.to_string(),
        },
        "timed_out" => ManifestStatus::TimedOut {
            timeout_ms: obj.field("timeout_ms")?,
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
}
