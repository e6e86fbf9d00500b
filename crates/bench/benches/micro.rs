//! Micro-benchmarks for the simulator's building blocks: drive-model
//! service computation, oracle queries, cache operations, position-set
//! queries, and end-to-end engine throughput.
//!
//! Uses a minimal self-contained timing harness (median of several timed
//! repetitions) so the workspace carries no external bench dependencies
//! and builds offline. Run with `cargo bench --bench micro`; a first
//! argument that is not a flag, as in `cargo bench --bench micro --
//! oracle_build`, times only the cases whose name contains it. Each
//! group builds its inputs on the first timed call, in the warm-up, so
//! a group with no case to time builds nothing.

use parcache_core::algs::reverse::ReverseAggressive;
use parcache_core::cache::{Cache, Knowledge};
use parcache_core::engine::Prepared;
use parcache_core::oracle::{NextUseCursors, Oracle};
use parcache_core::policy::PolicyKind;
use parcache_core::{simulate, SimConfig};
use parcache_disk::geometry::SectorSpan;
use parcache_disk::model::DiskModel;
use parcache_disk::{Hp97560, Layout};
use parcache_trace::synth::synth_trace;
use parcache_types::rng::Rng;
use parcache_types::{BlockId, Nanos, PosSet};
use std::cell::LazyCell;
use std::hint::black_box;
use std::sync::LazyLock;
use std::time::{Duration, Instant};

/// The case filter: the first argument that is not a flag (cargo passes
/// `--bench` to a bench binary without a harness), or `None`.
static FILTER: LazyLock<Option<String>> =
    LazyLock::new(|| std::env::args().skip(1).find(|a| !a.starts_with('-')));

/// Times `f` repeatedly and prints the median per-iteration cost, unless
/// the filter leaves case `name` out.
fn bench(name: &str, mut f: impl FnMut()) {
    if FILTER
        .as_ref()
        .is_some_and(|filter| !name.contains(filter.as_str()))
    {
        return;
    }
    // Warm up, then collect enough samples for a stable median.
    for _ in 0..3 {
        f();
    }
    let mut samples: Vec<Duration> = Vec::with_capacity(15);
    for _ in 0..15 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed());
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!(
        "{name:<44} {median:>12.2?} / iter (median of {})",
        samples.len()
    );
}

fn bench_disk_model() {
    let blocks = LazyCell::new(|| {
        let mut rng = Rng::seed_from_u64(1);
        (0..1024)
            .map(|_| rng.gen_range(0..160_000u64))
            .collect::<Vec<u64>>()
    });
    bench("hp97560_random_service (1024 accesses)", || {
        let mut disk = Hp97560::new();
        let mut now = Nanos::ZERO;
        for &blk in blocks.iter() {
            now = disk.service(now, &SectorSpan::for_block(blk));
        }
        black_box(now);
    });
}

fn bench_oracle() {
    let setup = LazyCell::new(|| {
        let oracle = Oracle::new(&synth_trace(10, 2000, 3), Layout::striped(4));
        let mut rng = Rng::seed_from_u64(2);
        let queries: Vec<(u32, usize)> = (0..4096)
            .map(|_| {
                (
                    oracle
                        .index_of(BlockId(rng.gen_range(0..2000u64)))
                        .expect("every loop block is referenced"),
                    rng.gen_range(0..20_000usize),
                )
            })
            .collect();
        (oracle, queries)
    });
    bench("oracle_next_occurrence_idx (4096 queries)", || {
        let (oracle, queries) = &*setup;
        for &(idx, at) in queries {
            black_box(oracle.next_occurrence_idx(idx, at));
        }
    });
    // Every run over the engine-stress trace (60 passes over a
    // 4,000-block loop, 4 disks) builds this oracle once.
    let t = LazyCell::new(|| synth_trace(60, 4000, 5));
    bench("oracle_build/engine-stress shape", || {
        black_box(Oracle::new(&t, Layout::striped(4)));
    });
}

/// Next-use lookups as one run asks them: the cursor never moves
/// backwards, and each step asks about the block at it and one up to 64
/// references ahead, the way fetch completions and issues do. The
/// binary search is the spec; the run-local cursors are what a run uses:
/// one set, owned by the cache, answers every next-use query of the run.
/// `synth` has long occurrence rows, `cscope1` short ones. A case's name
/// counts its queries, two per position, so each trace is generated
/// before the filter is asked.
fn bench_next_use() {
    for name in ["synth", "cscope1"] {
        let t = parcache_trace::trace_by_name(name, 1996).expect("paper trace");
        let setup = LazyCell::new(|| {
            let oracle = Oracle::new(&t, Layout::striped(4));
            let mut rng = Rng::seed_from_u64(3);
            let n = oracle.len();
            let queries: Vec<(u32, usize)> = (0..n)
                .flat_map(|at| {
                    let ahead = (at + rng.gen_range(0..64usize)).min(n - 1);
                    let block = |p: usize| oracle.index_at(p).expect("disclosed");
                    [(block(ahead), at), (block(at), at)]
                })
                .collect();
            (oracle, queries)
        });
        let what = format!("({name}, {} monotone queries)", 2 * t.len());
        bench(&format!("next_use/binary-search {what}"), || {
            let (oracle, queries) = &*setup;
            for &(idx, at) in queries {
                black_box(oracle.next_occurrence_idx(idx, at));
            }
        });
        bench(&format!("next_use/cursor {what}"), || {
            let (oracle, queries) = &*setup;
            let mut cursors = NextUseCursors::new(oracle);
            for &(idx, at) in queries {
                black_box(cursors.next(oracle, idx, at));
            }
        });
    }
}

/// The reverse passes of one tuned search: the schedules of the eight
/// grid configurations over a paper cell's reversed oracle, built once
/// outside the timed loop. The completion queue, next-use lookups and
/// candidate scans are the pass's bookkeeping, so running this case on
/// two checkouts compares them whole.
fn bench_reverse_pass() {
    for name in ["cscope3", "glimpse", "ld"] {
        let t = LazyCell::new(|| parcache_trace::trace_by_name(name, 1996).expect("paper trace"));
        for disks in [1, 4, 16] {
            let setup = LazyCell::new(|| {
                let base = SimConfig::for_trace(disks, &t);
                let grid: Vec<SimConfig> = [1u64, 4, 16, 64]
                    .into_iter()
                    .flat_map(|f| [4usize, 40].map(|b| base.clone().with_reverse_params(f, b)))
                    .collect();
                (Prepared::new(&t, &base), grid)
            });
            bench(
                &format!("reverse_pass ({name}, {disks} disks, 8 configs)"),
                || {
                    let (prepared, grid) = &*setup;
                    let reversed = prepared.reversed_oracle();
                    for cfg in grid {
                        black_box(ReverseAggressive::with_reversed(reversed, cfg));
                    }
                },
            );
        }
    }
}

fn bench_cache() {
    let oracle = LazyCell::new(|| {
        let oracle = Oracle::new(&synth_trace(10, 2000, 3), Layout::striped(1));
        assert!(
            oracle.num_blocks() >= 1024,
            "need at least 1024 distinct blocks"
        );
        oracle
    });
    // One case per key regime on the next-use index: exact keys, and
    // LRU estimates as under incomplete hints.
    for (name, knowledge) in [
        ("cache_evict_cycle/exact (512 evictions)", Knowledge::Exact),
        (
            "cache_evict_cycle/lru-estimate (512 evictions)",
            Knowledge::LruEstimate,
        ),
    ] {
        bench(name, || {
            let mut cache = Cache::new(512, &oracle, knowledge);
            for idx in 0..512u32 {
                cache.start_fetch(idx, None);
                cache.complete_fetch(idx, 0, &oracle);
            }
            for idx in 512..1024u32 {
                let (victim, _) = cache.furthest_resident(0, &oracle).expect("resident");
                cache.start_fetch(idx, Some(victim));
                cache.complete_fetch(idx, 0, &oracle);
            }
            black_box(cache.resident_count());
        });
    }
    // The engine-stress shape: the next-use index spans about 245,000
    // slots while its members sit in a window of 1,280 positions just
    // ahead of the cursor. Each step asks for the victim, evicts the
    // block the cursor consumes and lands the block 1,280 positions
    // ahead, keyed at that position.
    let oracle = LazyCell::new(|| Oracle::new(&synth_trace(60, 4000, 5), Layout::striped(1)));
    let frames = 1280;
    let block_at = |pos: usize| oracle.index_at(pos).expect("every position is disclosed");
    bench("cache_evict_cycle/engine-stress shape", || {
        let mut cache = Cache::new(frames, &oracle, Knowledge::Exact);
        for pos in 0..frames {
            cache.start_fetch(block_at(pos), None);
            cache.complete_fetch(block_at(pos), 0, &oracle);
        }
        let mut sum = 0;
        for c in 0..oracle.len() - frames {
            let (victim, _) = cache.furthest_resident(c, &oracle).expect("resident");
            sum += victim as usize;
            cache.start_fetch(block_at(c + frames), Some(block_at(c)));
            cache.complete_fetch(block_at(c + frames), c + 1, &oracle);
        }
        black_box(sum);
    });
}

/// `PosSet` on a set larger than any workload builds: 2^20 positions,
/// about 1,280 members in a 32,768-position window that slides up the
/// range the way the next-use index's keys do. Each step consumes the
/// cursor's position; a consumed member comes back at a random offset
/// ahead, as a block's key moves to its next use. The first case times
/// the updates alone; the others add a successor query from the cursor
/// or a predecessor query from the top of the range per step. The Belady
/// victim query starts from a bound just above its members instead
/// (`cache_evict_cycle/engine-stress shape`); the query from the top is
/// kept as `PosSet`'s worst case.
fn bench_posset() {
    const CAP: usize = 1 << 20;
    const WINDOW: usize = 32_768;
    let setup = LazyCell::new(|| {
        let mut rng = Rng::seed_from_u64(4);
        let mut start = PosSet::new(CAP);
        for _ in 0..1280 {
            start.insert(rng.gen_range(0..WINDOW));
        }
        let ahead: Vec<usize> = (0..CAP - WINDOW)
            .map(|c| c + 1 + rng.gen_range(0..WINDOW))
            .collect();
        (start, ahead)
    });
    let what = format!("({} steps)", CAP - WINDOW);
    bench(&format!("posset/updates {what}"), || {
        let (start, ahead) = &*setup;
        black_box(slide(start, ahead, |_, _| None));
    });
    bench(&format!("posset/successor {what}"), || {
        let (start, ahead) = &*setup;
        black_box(slide(start, ahead, |set, c| set.next_at_or_after(c)));
    });
    bench(&format!("posset/predecessor {what}"), || {
        let (start, ahead) = &*setup;
        black_box(slide(start, ahead, |set, _| {
            set.prev_at_or_before(usize::MAX)
        }));
    });
}

/// One pass of [`bench_posset`]'s window from `start`: step `c` moves a
/// member at `c` to `ahead[c]`, then asks `query`. Returns the answers'
/// sum, so no query can be optimized away.
fn slide(
    start: &PosSet,
    ahead: &[usize],
    query: impl Fn(&PosSet, usize) -> Option<usize>,
) -> usize {
    let mut set = start.clone();
    let mut sum = 0;
    for (c, &to) in ahead.iter().enumerate() {
        if set.remove(c) {
            set.insert(to);
        }
        sum += query(&set, c).unwrap_or(0);
    }
    sum
}

fn bench_engine() {
    let t = LazyCell::new(|| synth_trace(5, 1000, 4));
    let cfg = LazyCell::new(|| SimConfig::for_trace(2, &t));
    bench("engine_aggressive_5k_refs", || {
        black_box(simulate(&t, PolicyKind::Aggressive, &cfg));
    });
    bench("engine_reverse_build_and_run_5k_refs", || {
        black_box(simulate(&t, PolicyKind::ReverseAggressive, &cfg));
    });
}

/// Whole forestall runs on paper traces: the stall predictor's scans
/// and certificate checks, plus the engine around them. Running this
/// case on two checkouts compares the predictor and the engine's
/// per-event index work together.
fn bench_forestall() {
    for name in ["cscope1", "ld", "synth"] {
        let t = LazyCell::new(|| parcache_trace::trace_by_name(name, 1996).expect("paper trace"));
        for disks in [1, 4, 16] {
            let cfg = LazyCell::new(|| SimConfig::for_trace(disks, &t));
            bench(&format!("forestall ({name}, {disks} disks)"), || {
                black_box(simulate(&t, PolicyKind::Forestall, &cfg));
            });
        }
    }
}

/// The whole tuned reverse-aggressive search of one appendix-A cell on
/// one thread: eight reverse passes and the forward replays the cutoff
/// and the duplicate-schedule rules leave to run.
fn bench_tuned_search() {
    for name in ["cscope2", "glimpse", "synth"] {
        let t = LazyCell::new(|| parcache_trace::trace_by_name(name, 1996).expect("paper trace"));
        for disks in [1, 8] {
            let cfg = LazyCell::new(|| SimConfig::for_trace(disks, &t));
            bench(&format!("tuned_search ({name}, {disks} disks)"), || {
                black_box(parcache_bench::best_reverse_search(&t, &cfg, 1));
            });
        }
    }
}

fn main() {
    bench_disk_model();
    bench_oracle();
    bench_next_use();
    bench_reverse_pass();
    bench_forestall();
    bench_tuned_search();
    bench_cache();
    bench_posset();
    bench_engine();
}
