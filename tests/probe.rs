//! Cross-policy invariants of the probe layer: the event stream must
//! agree with the report, and attaching a probe must not change the
//! simulation.

use parcache::core::config::DiskModelKind;
use parcache::core::metrics::MetricsProbe;
use parcache::prelude::*;
use parcache::trace::synth::synth_trace;

/// For every policy: elapsed decomposes exactly, the probe's
/// fetch-issued count equals the report's fetch count, every stall that
/// begins also ends, and the probed run reports exactly what the
/// unprobed run does.
#[test]
fn event_counts_match_reports_across_policies() {
    let trace = synth_trace(3, 400, 9);
    for kind in PolicyKind::ALL {
        let config = SimConfig::for_trace(3, &trace);
        let base = simulate(&trace, kind, &config);

        let (mut fetches, mut writes, mut begun, mut ended) = (0u64, 0u64, 0u64, 0u64);
        let mut stalled_total = Nanos::ZERO;
        let mut probe = |e: &Event| match *e {
            Event::FetchIssued { .. } => fetches += 1,
            Event::WriteIssued { .. } => writes += 1,
            Event::StallBegin { .. } => begun += 1,
            Event::StallEnd { stalled, .. } => {
                ended += 1;
                stalled_total += stalled;
            }
            _ => {}
        };
        let probed = simulate_probed(&trace, kind, &config, &mut probe);

        assert_eq!(probed, base, "{kind}: probe changed the simulation");
        assert_eq!(
            probed.elapsed,
            probed.compute + probed.driver + probed.stall,
            "{kind}"
        );
        assert_eq!(fetches, probed.fetches, "{kind}: fetch-issued events");
        assert_eq!(writes, probed.writes, "{kind}: write-issued events");
        assert_eq!(begun, ended, "{kind}: unbalanced stall events");
        // Stall intervals cover at least the accounted stall: driver work
        // issued during a wait is inside the interval but accounted to
        // driver time, never the reverse.
        assert!(
            stalled_total >= probed.stall,
            "{kind}: {stalled_total} < {}",
            probed.stall
        );
    }
}

/// The metrics probe sees every drive completion, and on a multi-disk
/// demand run (which must stall) the latency histograms are populated
/// with non-zero quantiles.
#[test]
fn metrics_probe_populates_histograms() {
    let trace = synth_trace(2, 300, 4);
    let disks = 4;
    let config = SimConfig::for_trace(disks, &trace);
    let mut probe = MetricsProbe::for_disks(disks);
    let report = simulate_probed(&trace, PolicyKind::Demand, &config, &mut probe);
    let m = probe.finish();

    assert_eq!(m.totals.counters.fetches_issued, report.fetches);
    assert_eq!(
        m.totals.counters.demand_fetches, report.fetches,
        "demand never prefetches"
    );
    assert_eq!(m.totals.counters.services_completed, report.fetches);
    assert_eq!(m.totals.fetch_service.count(), report.fetches);
    assert_eq!(
        m.totals.counters.stalls_begun,
        m.totals.counters.stalls_ended
    );
    assert!(
        m.totals.counters.stalls_begun > 0,
        "demand fetching must stall"
    );
    assert!(m.totals.stall_duration.quantile(0.5) > 0);
    let per_disk_served: u64 = m.per_disk.iter().map(|d| d.service.count()).sum();
    assert_eq!(per_disk_served, report.fetches);
    for (i, d) in m.per_disk.iter().enumerate() {
        if d.service.count() > 0 {
            assert!(d.service.quantile(0.50) > 0, "disk {i} p50");
            assert!(d.service.quantile(0.99) > 0, "disk {i} p99");
        }
    }
    assert!(!m.timeline.is_empty());
    // The timeline's total busy time matches the report's per-disk stats.
    let timeline_busy: f64 = m
        .timeline
        .rows()
        .iter()
        .flat_map(|(_, util, _)| util.iter())
        .sum::<f64>()
        * m.timeline.slice_width().as_nanos() as f64;
    let stats_busy: f64 = report
        .per_disk
        .iter()
        .map(|d| d.busy.as_nanos() as f64)
        .sum();
    assert!(
        (timeline_busy - stats_busy).abs() < 1.0,
        "{timeline_busy} vs {stats_busy}"
    );
}

/// Write-behind flushes appear in the event stream as write events at
/// the drive level too.
#[test]
fn write_behind_events_are_tagged() {
    let trace = synth_trace(1, 100, 2);
    let mut config = SimConfig::for_trace(2, &trace);
    config.write_behind_period = Some(10);
    let (mut issued, mut completed_writes) = (0u64, 0u64);
    let mut probe = |e: &Event| match *e {
        Event::WriteIssued { .. } => issued += 1,
        Event::FetchCompleted { write: true, .. } => completed_writes += 1,
        _ => {}
    };
    let report = simulate_probed(&trace, PolicyKind::Aggressive, &config, &mut probe);
    assert_eq!(issued, report.writes);
    // Flushes still queued when the application finishes never complete:
    // the simulation ends at the last reference.
    assert!(completed_writes <= report.writes);
    assert!(report.writes > 0);
}

/// The JSONL event representation stays parseable in shape: one object
/// per line with the kind tag first.
#[test]
fn event_json_is_line_shaped() {
    let trace = synth_trace(1, 50, 3);
    let config = SimConfig::for_trace(2, &trace);
    let mut lines = Vec::new();
    let mut probe = |e: &Event| lines.push(e.to_json());
    simulate_probed(&trace, PolicyKind::Forestall, &config, &mut probe);
    assert!(!lines.is_empty());
    for l in &lines {
        assert!(l.starts_with(r#"{"event":""#), "{l}");
        assert!(l.ends_with('}'), "{l}");
        assert!(!l.contains('\n'), "{l}");
        assert!(l.contains(r#""t_ns":"#), "{l}");
    }
}

/// Probed simulation under the uniform model is still exact: the event
/// stream's completions all carry the configured fetch time.
#[test]
fn uniform_model_events_carry_exact_service_times() {
    let trace = synth_trace(1, 64, 5);
    let mut config = SimConfig::for_trace(2, &trace);
    let f = Nanos::from_millis(7);
    config.disk_model = DiskModelKind::Uniform(f);
    let mut services = Vec::new();
    let mut probe = |e: &Event| {
        if let Event::FetchCompleted { service, .. } = *e {
            services.push(service);
        }
    };
    simulate_probed(&trace, PolicyKind::FixedHorizon, &config, &mut probe);
    assert!(!services.is_empty());
    assert!(services.iter().all(|&s| s == f));
}
