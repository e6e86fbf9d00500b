//! Registry of the paper's ten traces.

use crate::apps::{cscope, dinero, glimpse, ld, postgres, xds};
use crate::synth;
use crate::Trace;

/// Names of the ten traces, in the paper's Table 3 order.
pub const TRACE_NAMES: [&str; 10] = [
    "dinero",
    "cscope1",
    "cscope2",
    "cscope3",
    "glimpse",
    "ld",
    "postgres-join",
    "postgres-select",
    "xds",
    "synth",
];

/// Generates the trace with the given name, or `None` for unknown names.
///
/// The same `seed` always yields the same trace; different traces use the
/// seed independently.
pub fn trace_by_name(name: &str, seed: u64) -> Option<Trace> {
    let t = match name {
        "dinero" => dinero::dinero(seed),
        "cscope1" => cscope::cscope1(seed),
        "cscope2" => cscope::cscope2(seed),
        "cscope3" => cscope::cscope3(seed),
        "glimpse" => glimpse::glimpse(seed),
        "ld" => ld::ld(seed),
        "postgres-join" => postgres::postgres_join(seed),
        "postgres-select" => postgres::postgres_select(seed),
        "xds" => xds::xds(seed),
        "synth" => synth::paper_synth(seed),
        _ => return None,
    };
    Some(t)
}

/// Generates all ten traces with the given seed, in Table 3 order.
#[cfg(test)]
pub(crate) fn standard_traces(seed: u64) -> Vec<Trace> {
    TRACE_NAMES
        .iter()
        .map(|n| trace_by_name(n, seed).expect("registry names are valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve() {
        for n in TRACE_NAMES {
            let t = trace_by_name(n, 1).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(t.name, n);
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(trace_by_name("nope", 1).is_none());
    }

    #[test]
    fn standard_traces_match_table_3() {
        // Table 3 of the paper, with one correction: the compute totals of
        // postgres-join and postgres-select are swapped relative to the
        // published table, following the paper's own appendix tables and
        // figures (see the erratum note in `apps::postgres`).
        let expected: [(&str, usize, usize, f64); 10] = [
            ("dinero", 8867, 986, 103.5),
            ("cscope1", 8673, 1073, 24.9),
            ("cscope2", 20206, 2462, 37.1),
            ("cscope3", 30200, 3910, 74.1),
            ("glimpse", 27981, 5247, 38.7),
            ("ld", 5881, 2882, 8.2),
            ("postgres-join", 8896, 3793, 79.2),
            ("postgres-select", 5044, 3085, 11.5),
            ("xds", 10435, 5392, 30.8),
            ("synth", 100_000, 2000, 99.9),
        ];
        for (t, (name, reads, distinct, secs)) in standard_traces(1).iter().zip(expected) {
            let s = t.stats();
            assert_eq!(t.name, name);
            assert_eq!(s.reads, reads, "{name} reads");
            assert_eq!(s.distinct_blocks, distinct, "{name} distinct");
            assert!(
                (s.compute.as_secs_f64() - secs).abs() < 1e-9,
                "{name} compute {} vs {secs}",
                s.compute.as_secs_f64()
            );
        }
    }

    #[test]
    fn cache_sizes_follow_the_paper() {
        for t in standard_traces(1) {
            let expected = if t.name == "dinero" || t.name == "cscope1" {
                512
            } else {
                1280
            };
            assert_eq!(t.cache_blocks, expected, "{}", t.name);
        }
    }

    #[test]
    fn traces_fit_one_hp97560() {
        // The single-disk configuration must hold every referenced block.
        for t in standard_traces(1) {
            let max = t.max_block().expect("non-empty").raw();
            assert!(max < 167_751, "{} references block {max}", t.name);
        }
    }
}
