//! Online hint prediction: oracle-free [`HintSource`]s.
//!
//! Everything else in this crate consumes the paper's *disclosed* hints —
//! the application announces its future accesses, and the oracle indexes
//! them with perfect knowledge. A [`HintSource`] decouples hint delivery
//! from that omniscience: it observes the demand stream as it arrives and
//! emits *predicted* future blocks, which the engine materializes into the
//! same compact-index [`Oracle`] the policies already consume. Fixed
//! horizon, aggressive, and forestall then run unchanged on predicted
//! hints, and the gap between their stall time here and under disclosed
//! hints prices "not knowing the future" directly.
//!
//! Three predictors are provided, in rough order of model power:
//!
//! * `SequentialPredictor` — stride run detection, the classic
//!   readahead heuristic: after seeing the same inter-block delta twice,
//!   extrapolate it forward.
//! * `MarkovPredictor` — a first-order next-block model: count
//!   successors per block and walk the argmax chain forward.
//! * `MithrilPredictor` — a MITHRIL-style sporadic-association miner:
//!   count co-occurrences at distances *beyond* the immediate successor,
//!   catching recurring patterns the Markov chain's one-step view misses.
//!
//! # Causality and determinism
//!
//! Predictions are produced by an **epoch pre-pass**
//! ([`predicted_oracle`]): at each epoch boundary `p` the source, having
//! observed exactly the references before `p`, predicts the next epoch's
//! blocks; then the epoch's true references are fed to `observe`. Every
//! prediction therefore uses only information available before the
//! predicted positions — the source never peeks — while the materialized
//! oracle stays an immutable pre-computed structure, so runs remain
//! byte-identical at any sweep thread count. A `rollout` must be a pure
//! function of the observation history (the `&mut self` receiver permits
//! internal caching, never nondeterminism).
//!
//! # Wrong predictions are kept
//!
//! A misprediction is *not* filtered out: the engine builds the oracle
//! from the predicted `(position, block)` pairs as a self-consistent
//! alternative future, so policies prefetch the predicted block and pay
//! the wasted-bandwidth cost a real system would. A hint that is not
//! consumed at its predicted position simply lapses: the true reference
//! at that position resolves through the demand path (the true trace, not
//! the predictions, drives the reference stream), so progress never
//! depends on prediction accuracy.

use crate::json::{self, Fixed};
use crate::oracle::Oracle;
use parcache_disk::Layout;
use parcache_trace::Trace;
use parcache_types::{BlockId, FastMap};

/// A source of (possibly predicted) hints: observes the demand stream and
/// emits expected future blocks.
///
/// Contract: `rollout` must be a deterministic pure function of the
/// sequence of blocks passed to `observe` so far. It may emit *fewer*
/// than `k` blocks — including none at all — when it has nothing
/// confident to say; an exhausted or silent source simply leaves the
/// corresponding positions undisclosed (they surface as demand misses),
/// it is never treated as "everything is disclosed".
pub trait HintSource {
    /// Short stable name ("oracle", "seq", "markov", "mithril").
    fn name(&self) -> &'static str;

    /// Feeds one demand reference to the model.
    fn observe(&mut self, block: BlockId);

    /// Appends up to `k` predicted next blocks to `out`, in positional
    /// order starting immediately after the last observed reference.
    fn rollout(&mut self, k: usize, out: &mut Vec<BlockId>);
}

/// The disclosed-hint path expressed as a [`HintSource`]: replays the
/// application's own future. A [`predicted_oracle`] pre-pass over it
/// reproduces the full-knowledge oracle exactly (pinned by test), which
/// is what makes the trait a refactoring of the existing path rather
/// than a parallel implementation.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct OracleHints {
    future: Vec<BlockId>,
    cursor: usize,
}

#[cfg(test)]
impl OracleHints {
    /// Wraps a trace's disclosed access sequence.
    pub(crate) fn new(trace: &Trace) -> OracleHints {
        OracleHints {
            future: trace.requests.iter().map(|r| r.block).collect(),
            cursor: 0,
        }
    }
}

#[cfg(test)]
impl HintSource for OracleHints {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn observe(&mut self, block: BlockId) {
        debug_assert_eq!(
            self.future.get(self.cursor),
            Some(&block),
            "disclosed hints replay the trace itself"
        );
        self.cursor += 1;
    }

    fn rollout(&mut self, k: usize, out: &mut Vec<BlockId>) {
        let end = self.cursor.saturating_add(k).min(self.future.len());
        out.extend_from_slice(&self.future[self.cursor..end]);
    }
}

/// Consecutive equal inter-block deltas required before the sequential
/// predictor commits to a stride (two deltas = three references in
/// arithmetic progression).
const SEQ_MIN_RUN: u32 = 2;

/// Stride run detection: tracks the delta between consecutive references
/// and, once the same nonzero delta repeats `SEQ_MIN_RUN` times,
/// extrapolates it forward. Exactly the shape of classic file-system
/// readahead, generalized to arbitrary strides.
#[derive(Debug, Default)]
pub(crate) struct SequentialPredictor {
    last: Option<u64>,
    /// Current inter-block delta (i128: a u64 difference always fits).
    stride: i128,
    /// Consecutive observations of `stride`.
    run: u32,
}

impl SequentialPredictor {
    /// A fresh model with no observations.
    pub(crate) fn new() -> SequentialPredictor {
        SequentialPredictor::default()
    }
}

impl HintSource for SequentialPredictor {
    fn name(&self) -> &'static str {
        "seq"
    }

    fn observe(&mut self, block: BlockId) {
        let b = block.raw();
        if let Some(prev) = self.last {
            let delta = b as i128 - prev as i128;
            if delta == self.stride && delta != 0 {
                self.run = self.run.saturating_add(1);
            } else {
                self.stride = delta;
                self.run = 1;
            }
        }
        self.last = Some(b);
    }

    fn rollout(&mut self, k: usize, out: &mut Vec<BlockId>) {
        if self.run < SEQ_MIN_RUN || self.stride == 0 {
            return;
        }
        let Some(last) = self.last else { return };
        let mut next = last as i128;
        for _ in 0..k {
            next += self.stride;
            // A stride running off either end of the block-id space stops
            // predicting rather than wrapping.
            if next < 0 || next > u64::MAX as i128 {
                break;
            }
            out.push(BlockId(next as u64));
        }
    }
}

/// Successor counts for one block, in first-seen order (the order breaks
/// argmax ties deterministically).
type Successors = Vec<(u64, u32)>;

/// First-order Markov next-block model: per observed block, count which
/// block follows it; predict by walking the most-frequent-successor chain
/// forward from the last reference. Ties break toward the first-seen
/// successor, so predictions are a pure function of the history.
#[derive(Debug, Default)]
pub(crate) struct MarkovPredictor {
    succ: FastMap<u64, Successors>,
    last: Option<u64>,
}

impl MarkovPredictor {
    /// A fresh model with no observations.
    pub(crate) fn new() -> MarkovPredictor {
        MarkovPredictor::default()
    }
}

/// The heaviest-count entry, first-seen winning ties (`>` not `>=`).
fn argmax(counts: &[(u64, u32)]) -> Option<u64> {
    let mut best: Option<(u64, u32)> = None;
    for &(b, c) in counts {
        if best.is_none_or(|(_, bc)| c > bc) {
            best = Some((b, c));
        }
    }
    best.map(|(b, _)| b)
}

impl HintSource for MarkovPredictor {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn observe(&mut self, block: BlockId) {
        let b = block.raw();
        if let Some(prev) = self.last {
            let counts = self.succ.entry(prev).or_default();
            match counts.iter_mut().find(|e| e.0 == b) {
                Some(e) => e.1 = e.1.saturating_add(1),
                None => counts.push((b, 1)),
            }
        }
        self.last = Some(b);
    }

    fn rollout(&mut self, k: usize, out: &mut Vec<BlockId>) {
        let Some(mut cur) = self.last else { return };
        for _ in 0..k {
            let Some(next) = self.succ.get(&cur).and_then(|c| argmax(c)) else {
                break;
            };
            out.push(BlockId(next));
            cur = next;
        }
    }
}

/// How far back the association miner looks when pairing an arriving
/// block with its recent predecessors.
const MITHRIL_SPAN: usize = 4;

/// How many recent references seed a Mithril rollout.
const MITHRIL_SEEDS: usize = 4;

/// Minimum co-occurrence count before an association is trusted
/// ("sporadic" still means *recurring*: one coincidence is noise).
const MITHRIL_MIN_SUPPORT: u32 = 2;

/// MITHRIL-style sporadic-association mining (Yang et al., PAPERS.md):
/// count pairs of blocks that recur close together in time at distances
/// **2..=`MITHRIL_SPAN`** — deliberately excluding the immediate
/// successor, which is the Markov model's territory — and predict the
/// strongest associations of the last few references. This catches
/// recurring loose patterns (metadata-then-data, header-then-footer)
/// that stride and one-step-chain models both miss.
#[derive(Debug, Default)]
pub(crate) struct MithrilPredictor {
    /// Most recent `MITHRIL_SPAN` references, oldest first.
    recent: Vec<u64>,
    /// `assoc[a]` counts blocks seen 2..=SPAN references after `a`.
    assoc: FastMap<u64, Successors>,
}

impl MithrilPredictor {
    /// A fresh model with no observations.
    pub(crate) fn new() -> MithrilPredictor {
        MithrilPredictor::default()
    }
}

impl HintSource for MithrilPredictor {
    fn name(&self) -> &'static str {
        "mithril"
    }

    fn observe(&mut self, block: BlockId) {
        let b = block.raw();
        // `recent` is oldest-first: the entry `distance` slots from the
        // back preceded `b` by `distance + 1` references.
        for (back, &p) in self.recent.iter().rev().enumerate() {
            let distance = back + 1;
            if distance < 2 {
                continue; // the immediate successor belongs to Markov
            }
            let counts = self.assoc.entry(p).or_default();
            match counts.iter_mut().find(|e| e.0 == b) {
                Some(e) => e.1 = e.1.saturating_add(1),
                None => counts.push((b, 1)),
            }
        }
        self.recent.push(b);
        if self.recent.len() > MITHRIL_SPAN {
            self.recent.remove(0);
        }
    }

    fn rollout(&mut self, k: usize, out: &mut Vec<BlockId>) {
        // Merge the supported associations of the last few references
        // into one candidate list (first-seen order, scores summed), then
        // emit by descending score with first-seen tie-break.
        let mut candidates: Vec<(u64, u64)> = Vec::new();
        for &seed in self.recent.iter().rev().take(MITHRIL_SEEDS) {
            let Some(counts) = self.assoc.get(&seed) else {
                continue;
            };
            for &(b, c) in counts {
                if c < MITHRIL_MIN_SUPPORT {
                    continue;
                }
                match candidates.iter_mut().find(|e| e.0 == b) {
                    Some(e) => e.1 += c as u64,
                    None => candidates.push((b, c as u64)),
                }
            }
        }
        for _ in 0..k {
            let mut best: Option<usize> = None;
            for (i, &(_, score)) in candidates.iter().enumerate() {
                if score > 0 && best.is_none_or(|j| score > candidates[j].1) {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            out.push(BlockId(candidates[i].0));
            candidates[i].1 = 0; // each candidate is emitted once
        }
    }
}

/// The online predictor families, for configuration and CLI selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Stride run detection (`SequentialPredictor`).
    Sequential,
    /// First-order Markov chain (`MarkovPredictor`).
    Markov,
    /// Sporadic-association mining (`MithrilPredictor`).
    Mithril,
}

impl PredictorKind {
    /// Every predictor, in display order.
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::Sequential,
        PredictorKind::Markov,
        PredictorKind::Mithril,
    ];

    /// The short stable name (matches the built source's
    /// [`HintSource::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Sequential => "seq",
            PredictorKind::Markov => "markov",
            PredictorKind::Mithril => "mithril",
        }
    }

    /// Parses a [`name`](PredictorKind::name).
    #[cfg(test)]
    pub(crate) fn by_name(name: &str) -> Option<PredictorKind> {
        PredictorKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds a fresh (observation-free) source of this kind.
    pub fn build(&self) -> Box<dyn HintSource> {
        match self {
            PredictorKind::Sequential => Box::new(SequentialPredictor::new()),
            PredictorKind::Markov => Box::new(MarkovPredictor::new()),
            PredictorKind::Mithril => Box::new(MithrilPredictor::new()),
        }
    }
}

/// Where a run's hints come from: the paper's disclosed oracle (the
/// default, byte-identical to the pre-`HintSource` engine) or an online
/// predictor. In `Predicted` mode the [`HintSpec`](crate::hints::HintSpec)
/// disclosure mask is ignored — prediction replaces disclosure entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HintMode {
    /// Disclosed hints through the full-knowledge oracle (the paper).
    #[default]
    Oracle,
    /// Hints predicted online by the given model.
    Predicted(PredictorKind),
}

impl HintMode {
    /// Every mode, oracle first.
    pub const ALL: [HintMode; 4] = [
        HintMode::Oracle,
        HintMode::Predicted(PredictorKind::Sequential),
        HintMode::Predicted(PredictorKind::Markov),
        HintMode::Predicted(PredictorKind::Mithril),
    ];

    /// The mode's stable name (`oracle`, `seq`, `markov`, `mithril`).
    pub fn name(&self) -> &'static str {
        match self {
            HintMode::Oracle => "oracle",
            HintMode::Predicted(kind) => kind.name(),
        }
    }

    /// Parses a [`name`](HintMode::name).
    pub fn by_name(name: &str) -> Option<HintMode> {
        HintMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Prediction accuracy accounting for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintStats {
    /// The source that produced the hints.
    pub source: &'static str,
    /// Positions the source ventured a prediction for.
    pub predicted: u64,
    /// Predictions matching the true reference at their position.
    pub correct: u64,
    /// Trace length (the denominator for recall).
    pub references: u64,
}

impl HintStats {
    /// Fraction of predictions that were right (0 when none were made).
    pub fn precision(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }

    /// Fraction of references correctly predicted.
    pub fn recall(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.correct as f64 / self.references as f64
        }
    }

    /// These statistics as a JSON object.
    pub(crate) fn to_json(&self) -> String {
        json::object()
            .field("source", self.source)
            .field("predicted", self.predicted)
            .field("correct", self.correct)
            .field("references", self.references)
            .field("precision", Fixed(self.precision(), 6))
            .field("recall", Fixed(self.recall(), 6))
            .finish()
    }
}

/// Epoch length of the prediction pre-pass: how many positions ahead a
/// source predicts before its observations catch up. Long enough for the
/// policies' prefetch lookahead, short enough that the model adapts
/// within a trace.
pub const DEFAULT_EPOCH: usize = 256;

/// Runs the causal epoch pre-pass and materializes the predictions as an
/// [`Oracle`] the engine and policies consume unchanged.
///
/// For each epoch starting at position `p`, the source — having observed
/// exactly the references before `p` — predicts the epoch's blocks; each
/// prediction becomes a `(position, block)` hint entry (wrong ones
/// included, see the module docs), and positions the source declined to
/// predict stay undisclosed. Every *true* trace block keeps a compact
/// index via the universe, so demand misses on unpredicted references
/// always resolve.
pub fn predicted_oracle(
    trace: &Trace,
    layout: Layout,
    source: &mut dyn HintSource,
    epoch: usize,
) -> (Oracle, HintStats) {
    assert!(epoch > 0, "the prediction epoch must be positive");
    let n = trace.requests.len();
    let mut entries: Vec<(usize, BlockId)> = Vec::new();
    let mut out: Vec<BlockId> = Vec::with_capacity(epoch);
    let (mut predicted, mut correct) = (0u64, 0u64);
    let mut p = 0usize;
    while p < n {
        let len = epoch.min(n - p);
        out.clear();
        source.rollout(len, &mut out);
        for (j, &b) in out.iter().take(len).enumerate() {
            entries.push((p + j, b));
            predicted += 1;
            if b == trace.requests[p + j].block {
                correct += 1;
            }
        }
        for req in &trace.requests[p..p + len] {
            source.observe(req.block);
        }
        p += len;
    }
    let universe: Vec<BlockId> = trace.requests.iter().map(|r| r.block).collect();
    let oracle = Oracle::from_positions_with_universe(n, entries, &universe, layout);
    let stats = HintStats {
        source: source.name(),
        predicted,
        correct,
        references: n as u64,
    };
    (oracle, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NEVER;
    use parcache_trace::Request;
    use parcache_types::Nanos;

    fn trace_of(blocks: &[u64]) -> Trace {
        Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(1),
                })
                .collect(),
            4,
        )
    }

    fn rollout(src: &mut dyn HintSource, k: usize) -> Vec<u64> {
        let mut out = Vec::new();
        src.rollout(k, &mut out);
        out.into_iter().map(|b| b.raw()).collect()
    }

    fn observe_all(src: &mut dyn HintSource, blocks: &[u64]) {
        for &b in blocks {
            src.observe(BlockId(b));
        }
    }

    #[test]
    fn oracle_hints_replay_the_future() {
        let t = trace_of(&[3, 1, 4, 1, 5]);
        let mut src = OracleHints::new(&t);
        assert_eq!(rollout(&mut src, 3), vec![3, 1, 4]);
        src.observe(BlockId(3));
        src.observe(BlockId(1));
        assert_eq!(rollout(&mut src, 10), vec![4, 1, 5]);
    }

    #[test]
    fn oracle_hints_prepass_reproduces_the_full_oracle() {
        // The refactoring contract: the disclosed path expressed as a
        // HintSource yields an oracle indistinguishable (by every query
        // the policies make) from the one built with full knowledge.
        let t = trace_of(&[0, 7, 2, 7, 0, 3, 2, 0, 1, 7, 3, 3, 0]);
        for disks in [1, 3] {
            let layout = Layout::striped(disks);
            let full = Oracle::new(&t, layout);
            let mut src = OracleHints::new(&t);
            let (pred, stats) = predicted_oracle(&t, layout, &mut src, 4);
            assert_eq!(stats.predicted, t.requests.len() as u64);
            assert_eq!(stats.correct, stats.predicted);
            assert_eq!(stats.precision(), 1.0);
            assert_eq!(stats.recall(), 1.0);
            assert_eq!(pred.len(), full.len());
            for pos in 0..t.requests.len() {
                assert_eq!(pred.block_at(pos), full.block_at(pos), "pos {pos}");
            }
            // The two oracles number blocks differently, so each query
            // goes through that oracle's own compact index.
            let next = |o: &Oracle, b: u64, pos| {
                o.index_of(BlockId(b))
                    .map_or(NEVER, |i| o.next_occurrence_idx(i, pos))
            };
            for b in 0..8u64 {
                for pos in 0..=t.requests.len() {
                    assert_eq!(
                        next(&pred, b, pos),
                        next(&full, b, pos),
                        "block {b} from {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_learns_a_stride_and_extrapolates() {
        let mut s = SequentialPredictor::new();
        observe_all(&mut s, &[10, 12, 14]);
        assert_eq!(rollout(&mut s, 4), vec![16, 18, 20, 22]);
        // A broken stride withdraws the prediction...
        s.observe(BlockId(5));
        assert_eq!(rollout(&mut s, 4), Vec::<u64>::new());
        // ...until a new run re-establishes confidence.
        observe_all(&mut s, &[6, 7]);
        assert_eq!(rollout(&mut s, 2), vec![8, 9]);
    }

    #[test]
    fn sequential_ignores_repeats_and_respects_bounds() {
        let mut s = SequentialPredictor::new();
        observe_all(&mut s, &[9, 9, 9, 9]);
        assert_eq!(rollout(&mut s, 3), Vec::<u64>::new(), "zero stride");
        let mut d = SequentialPredictor::new();
        observe_all(&mut d, &[10, 6, 2]);
        // Descending run stops at the bottom of the id space, no wrap.
        assert_eq!(rollout(&mut d, 5), Vec::<u64>::new());
        let mut d = SequentialPredictor::new();
        observe_all(&mut d, &[13, 9, 5]);
        assert_eq!(rollout(&mut d, 5), vec![1]);
    }

    #[test]
    fn markov_walks_the_argmax_chain_with_first_seen_ties() {
        let mut m = MarkovPredictor::new();
        // 1 -> 2 twice, 1 -> 3 once; 2 -> 1 always.
        observe_all(&mut m, &[1, 2, 1, 3, 1, 2, 1]);
        assert_eq!(rollout(&mut m, 4), vec![2, 1, 2, 1]);
        // After one more 1 -> 3, the successors of 1 tie at 2 apiece;
        // the chain keeps the first-seen successor, deterministically.
        m.observe(BlockId(3));
        assert_eq!(rollout(&mut m, 3), vec![1, 2, 1]);
    }

    #[test]
    fn markov_is_silent_without_an_edge() {
        let mut m = MarkovPredictor::new();
        assert_eq!(rollout(&mut m, 3), Vec::<u64>::new());
        m.observe(BlockId(1));
        assert_eq!(rollout(&mut m, 3), Vec::<u64>::new(), "no successor yet");
    }

    #[test]
    fn mithril_mines_recurring_sporadic_pairs() {
        let mut m = MithrilPredictor::new();
        // B=9 recurs two references after A=4, with varying filler —
        // exactly the pattern the span-2..4 miner exists for. The Markov
        // chain would see only the noisy immediate successors.
        observe_all(&mut m, &[4, 100, 9, 4, 101, 9, 4, 102]);
        let predicted = rollout(&mut m, 3);
        assert!(predicted.contains(&9), "association 4 => 9: {predicted:?}");
        // One co-occurrence is below MIN_SUPPORT: a fresh model that saw
        // the pair once stays silent.
        let mut one = MithrilPredictor::new();
        observe_all(&mut one, &[4, 100, 9, 4]);
        assert_eq!(rollout(&mut one, 3), Vec::<u64>::new());
    }

    #[test]
    fn mithril_rollout_is_deterministic() {
        let seq = [1u64, 2, 3, 1, 2, 3, 1, 2, 3, 1];
        let mut a = MithrilPredictor::new();
        let mut b = MithrilPredictor::new();
        observe_all(&mut a, &seq);
        observe_all(&mut b, &seq);
        let ra = rollout(&mut a, 5);
        assert_eq!(ra, rollout(&mut b, 5));
        assert!(!ra.is_empty(), "a periodic loop is minable");
    }

    #[test]
    fn kinds_build_and_name_consistently() {
        for kind in PredictorKind::ALL {
            let src = kind.build();
            assert_eq!(src.name(), kind.name());
            assert_eq!(PredictorKind::by_name(kind.name()), Some(kind));
        }
        assert_eq!(PredictorKind::by_name("nope"), None);
        for mode in HintMode::ALL {
            assert_eq!(HintMode::by_name(mode.name()), Some(mode));
        }
        assert_eq!(HintMode::by_name("oracle"), Some(HintMode::Oracle));
        assert_eq!(HintMode::default(), HintMode::Oracle);
    }

    #[test]
    fn prepass_is_causal() {
        // A source that predicts the last block it observed; on a trace
        // that changes at an epoch boundary, the first epoch must get no
        // prediction (nothing observed yet) and later epochs only the
        // past — never the epoch's own data.
        struct Parrot(Option<BlockId>);
        impl HintSource for Parrot {
            fn name(&self) -> &'static str {
                "parrot"
            }
            fn observe(&mut self, b: BlockId) {
                self.0 = Some(b);
            }
            fn rollout(&mut self, k: usize, out: &mut Vec<BlockId>) {
                if let Some(b) = self.0 {
                    out.extend((0..k).map(|_| b));
                }
            }
        }
        let t = trace_of(&[1, 1, 2, 2]);
        let mut src = Parrot(None);
        let (oracle, stats) = predicted_oracle(&t, Layout::striped(1), &mut src, 2);
        // Epoch [0,2) predicted nothing; epoch [2,4) predicted 1,1 from
        // the first epoch's tail — both wrong.
        assert_eq!(stats.predicted, 2);
        assert_eq!(stats.correct, 0);
        assert_eq!(oracle.block_at(0), crate::oracle::UNKNOWN_BLOCK);
        assert_eq!(oracle.block_at(2), BlockId(1));
    }

    #[test]
    fn prepass_stats_count_partial_predictions() {
        // Sequential on one long ascending run: silent for the first
        // epoch's head, near-perfect afterwards.
        let blocks: Vec<u64> = (0..64).collect();
        let t = trace_of(&blocks);
        let mut s = SequentialPredictor::new();
        let (_, stats) = predicted_oracle(&t, Layout::striped(1), &mut s, 8);
        assert_eq!(stats.references, 64);
        assert_eq!(stats.predicted, 56, "every epoch after the first");
        assert_eq!(stats.correct, 56);
        assert!(stats.precision() == 1.0 && stats.recall() < 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_epoch_rejected() {
        let t = trace_of(&[1]);
        let mut s = SequentialPredictor::new();
        predicted_oracle(&t, Layout::striped(1), &mut s, 0);
    }

    #[test]
    fn stats_edge_cases() {
        let s = HintStats {
            source: "x",
            predicted: 0,
            correct: 0,
            references: 0,
        };
        assert_eq!(s.precision(), 0.0);
        assert_eq!(s.recall(), 0.0);
        let j = s.to_json();
        assert!(j.contains(r#""source":"x""#), "{j}");
    }
}
