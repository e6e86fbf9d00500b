//! Prints the paper's tables and figures: every entry of
//! `parcache_bench::figures::FIGURES`, in table order, or the named ids
//! in the order given:
//!
//! ```sh
//! cargo bench -p parcache-bench --bench figures
//! cargo bench -p parcache-bench --bench figures -- fig2_postgres_select fig4_ld
//! ```
//!
//! An unknown id exits 2 and lists the valid ids.

use parcache_bench::figures::FIGURES;
use std::process::ExitCode;

fn main() -> ExitCode {
    // `cargo bench` appends `--bench` to the arguments it passes on.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let mut chosen = Vec::new();
    for id in &ids {
        let Some(figure) = FIGURES.iter().find(|f| f.id == id) else {
            let valid: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            eprintln!(
                "unknown figure id {id}; valid ids:\n  {}",
                valid.join("\n  ")
            );
            return ExitCode::from(2);
        };
        chosen.push(figure);
    }
    if ids.is_empty() {
        chosen = FIGURES.iter().collect();
    }
    for figure in chosen {
        print!("{}", (figure.render)());
    }
    ExitCode::SUCCESS
}
