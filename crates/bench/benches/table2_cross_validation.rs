//! Table 2: cross-simulator validation.
//!
//! The paper validated its results across two independently-written
//! simulators (UW's detailed HP 97560 model and CMU's RaidSim with IBM
//! Lightning drives) on the xds and synth traces, for fixed horizon and
//! aggressive at 1-4 disks, and found "remaining differences between the
//! simulators are consistent with the differences in the disk models".
//! This bench reproduces the methodology with the detailed and coarse
//! drive models.

use parcache_bench::{trace, Algo};
use parcache_core::config::{DiskModelKind, SimConfig};

fn main() {
    println!("== Table 2: cross-simulator (cross-model) validation ==");
    println!(
        "{:<8} {:<6} {:<15} {:>14} {:>14} {:>8}",
        "trace", "disks", "policy", "detailed(s)", "coarse(s)", "ratio"
    );
    for trace_name in ["xds", "synth"] {
        let t = trace(trace_name);
        for disks in 1..=4usize {
            for algo in [Algo::FixedHorizon, Algo::Aggressive] {
                let detailed_cfg = SimConfig::for_trace(disks, &t);
                let coarse_cfg =
                    SimConfig::for_trace(disks, &t).with_disk_model(DiskModelKind::Coarse);
                let a = algo.run(&t, &detailed_cfg).elapsed.as_secs_f64();
                let b = algo.run(&t, &coarse_cfg).elapsed.as_secs_f64();
                println!(
                    "{:<8} {:<6} {:<15} {:>14.3} {:>14.3} {:>8.3}",
                    trace_name,
                    disks,
                    algo.name(),
                    a,
                    b,
                    b / a
                );
            }
        }
    }
    println!();
    println!("paper (Table 2): agreement within the disk models' differences;");
    println!("e.g. synth 1-disk FH: CMU 213.0s vs UW 201.4s (ratio 1.06).");
}
