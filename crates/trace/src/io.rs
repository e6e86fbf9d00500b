//! Reading and writing traces as plain text.
//!
//! The original study replayed traces collected with kernel
//! instrumentation; anyone adopting this simulator will want to feed it
//! their own. The format is deliberately trivial — one header line, then
//! one `block compute_ns` pair per read request, `#` comments ignored —
//! so any collector can emit it with a printf:
//!
//! ```text
//! parcache-trace v1 name=myapp cache_blocks=1280
//! # block  compute_ns
//! 17 1500000
//! 18 900000
//! ```

use crate::{Request, Trace};
use parcache_types::{BlockId, Nanos};
use std::fmt;
use std::io::{BufRead, BufReader, Read};
#[cfg(test)]
use std::io::{BufWriter, Write};
use std::path::Path;

/// Errors from parsing a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content, with a line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> TraceIoError {
    TraceIoError::Parse {
        line,
        message: message.into(),
    }
}

/// Writes `trace` in the text format to `w`.
#[cfg(test)]
pub(crate) fn write_trace(trace: &Trace, w: impl Write) -> Result<(), TraceIoError> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "parcache-trace v1 name={} cache_blocks={}",
        trace.name, trace.cache_blocks
    )?;
    writeln!(w, "# block compute_ns")?;
    for r in &trace.requests {
        writeln!(w, "{} {}", r.block.raw(), r.compute.as_nanos())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a trace in the text format from `r`.
pub(crate) fn read_trace(r: impl Read) -> Result<Trace, TraceIoError> {
    let mut lines = BufReader::new(r).lines().enumerate();

    // Header.
    let (idx, header) = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty input"))
        .and_then(|(i, l)| Ok((i, l?)))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("parcache-trace") || parts.next() != Some("v1") {
        return Err(parse_err(idx + 1, "missing `parcache-trace v1` header"));
    }
    let mut name = String::from("unnamed");
    let mut cache_blocks: usize = 1280;
    for field in parts {
        match field.split_once('=') {
            Some(("name", v)) => name = v.to_string(),
            Some(("cache_blocks", v)) => {
                cache_blocks = v
                    .parse()
                    .map_err(|_| parse_err(idx + 1, format!("bad cache_blocks `{v}`")))?;
            }
            _ => {
                return Err(parse_err(
                    idx + 1,
                    format!("unknown header field `{field}`"),
                ))
            }
        }
    }
    if cache_blocks == 0 {
        return Err(parse_err(idx + 1, "cache_blocks must be positive"));
    }

    // Body.
    let mut requests = Vec::new();
    for (i, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split_whitespace();
        // A trimmed non-empty line always yields a first column, but a
        // malformed file must never be able to panic the loader.
        let block: u64 = cols
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing block column"))?
            .parse()
            .map_err(|_| parse_err(i + 1, "bad block number"))?;
        let compute: u64 = cols
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing compute_ns column"))?
            .parse()
            .map_err(|_| parse_err(i + 1, "bad compute_ns"))?;
        if cols.next().is_some() {
            return Err(parse_err(i + 1, "trailing columns"));
        }
        requests.push(Request {
            block: BlockId(block),
            compute: Nanos(compute),
        });
    }
    Ok(Trace::new(name, requests, cache_blocks))
}

/// Saves `trace` to `path`.
#[cfg(test)]
pub(crate) fn save(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    write_trace(trace, std::fs::File::create(path)?)
}

/// Loads a trace from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    read_trace(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_trace;

    fn round_trip(t: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(t, &mut buf).expect("write");
        read_trace(&buf[..]).expect("read")
    }

    #[test]
    fn round_trips_exactly() {
        let t = synth_trace(3, 50, 7);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn round_trips_paper_trace() {
        let t = crate::trace_by_name("ld", 1).expect("known");
        let back = round_trip(&t);
        assert_eq!(back, t);
        assert_eq!(back.stats(), t.stats());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "parcache-trace v1 name=x cache_blocks=8\n\n# c\n1 1000\n\n2 2000\n";
        let t = read_trace(text.as_bytes()).expect("parse");
        assert_eq!(t.name, "x");
        assert_eq!(t.cache_blocks, 8);
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[1].block, BlockId(2));
        assert_eq!(t.requests[1].compute, Nanos(2000));
    }

    #[test]
    fn header_defaults_apply() {
        let t = read_trace("parcache-trace v1\n5 1\n".as_bytes()).expect("parse");
        assert_eq!(t.name, "unnamed");
        assert_eq!(t.cache_blocks, 1280);
    }

    #[test]
    fn rejects_bad_input() {
        let cases: &[(&str, &str)] = &[
            ("", "empty input"),
            ("nope v1\n", "header"),
            ("parcache-trace\n", "header"),
            ("parcache-trace v2\n", "header"),
            ("parcache-trace v1 bogus=1\n", "unknown header field"),
            ("parcache-trace v1 cache_blocks=0\n", "positive"),
            ("parcache-trace v1 cache_blocks=many\n", "bad cache_blocks"),
            ("parcache-trace v1\nx 1\n", "bad block"),
            ("parcache-trace v1\n-1 1\n", "bad block"),
            ("parcache-trace v1\n1\n", "missing compute_ns"),
            ("parcache-trace v1\n1 soon\n", "bad compute_ns"),
            ("parcache-trace v1\n1 -5\n", "bad compute_ns"),
            ("parcache-trace v1\n1 2 3\n", "trailing"),
        ];
        for (text, needle) in cases {
            let err = read_trace(text.as_bytes()).expect_err(text);
            let msg = err.to_string();
            assert!(msg.contains(needle), "{text:?}: {msg}");
        }
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("parcache-io-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.trace");
        let t = synth_trace(2, 25, 3);
        save(&t, &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let err = read_trace("parcache-trace v1\nx 1\n".as_bytes()).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("line 2"), "{s}");
    }
}
