//! Round-trip checks of the machine-readable report formats: the CSV
//! row must line up column-for-column with the header, and the JSON
//! document must carry the same numbers the report does.

use parcache::core::json::{self, Json};
use parcache::prelude::*;
use parcache::trace::synth::synth_trace;

fn sample_report() -> Report {
    let trace = synth_trace(2, 150, 11);
    let config = SimConfig::for_trace(3, &trace);
    simulate(&trace, PolicyKind::Forestall, &config)
}

/// Every header column has exactly one value in the row, in the same
/// order, and the values parse back to the report's fields.
#[test]
fn csv_row_round_trips_against_header() {
    let r = sample_report();
    let header: Vec<&str> = Report::csv_header().split(',').collect();
    let row: Vec<String> = r.to_csv_row().split(',').map(str::to_string).collect();
    assert_eq!(header.len(), row.len(), "column count mismatch");

    let field = |name: &str| -> &str {
        let i = header
            .iter()
            .position(|&h| h == name)
            .unwrap_or_else(|| panic!("missing column {name}"));
        &row[i]
    };

    assert_eq!(field("trace"), r.trace);
    assert_eq!(field("policy"), r.policy);
    assert_eq!(field("disks").parse::<usize>().unwrap(), r.disks);
    assert_eq!(field("fetches").parse::<u64>().unwrap(), r.fetches);
    assert_eq!(field("writes").parse::<u64>().unwrap(), r.writes);
    let close = |s: &str, v: f64, tol: f64| {
        let got: f64 = s.parse().unwrap();
        assert!((got - v).abs() <= tol, "{got} vs {v}");
    };
    close(field("elapsed_s"), r.elapsed.as_secs_f64(), 1e-6);
    close(field("compute_s"), r.compute.as_secs_f64(), 1e-6);
    close(field("driver_s"), r.driver.as_secs_f64(), 1e-6);
    close(field("stall_s"), r.stall.as_secs_f64(), 1e-6);
    close(
        field("avg_fetch_ms"),
        r.avg_fetch_time.as_millis_f64(),
        1e-4,
    );
    close(field("avg_disk_utilization"), r.avg_disk_utilization, 1e-4);

    // The breakdown identity survives the round trip within print
    // precision.
    let elapsed: f64 = field("elapsed_s").parse().unwrap();
    let parts: f64 = ["compute_s", "driver_s", "stall_s"]
        .iter()
        .map(|c| field(c).parse::<f64>().unwrap())
        .sum();
    assert!((elapsed - parts).abs() < 1e-5);
}

/// The JSON report parses, carries every header field with the CSV
/// row's value (same name, same printed precision), and has one per-disk
/// object per drive.
#[test]
fn json_report_mirrors_csv_fields() {
    let r = sample_report();
    let doc = json::parse(&r.to_json()).expect("report JSON parses");
    let row = r.to_csv_row();
    for (name, csv) in Report::csv_header().split(',').zip(row.split(',')) {
        let value = match doc.member(name) {
            Some(Json::Str(s) | Json::Num(s)) => s,
            other => panic!("{name}: expected a string or number, got {other:?}"),
        };
        assert_eq!(value, csv, "{name}");
    }
    let per_disk: &[Json] = doc.get("per_disk").expect("per_disk array");
    assert_eq!(per_disk.len(), r.disks);
    for d in per_disk {
        assert!(d.get::<u64>("served").is_some(), "{d:?}");
    }
}
