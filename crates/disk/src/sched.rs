//! Disk-head scheduling disciplines.
//!
//! The paper's results use CSCAN (chosen over SCAN because the HP 97560's
//! readahead buffer favors always scanning in the read direction) and
//! compare against FCFS in §4.4 / Table 5. SCAN and SSTF are provided as
//! natural extensions.

use crate::disk::Pending;

/// A head-scheduling discipline: picks which queued request to serve next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First-come first-served: strict arrival order.
    Fcfs,
    /// Circular SCAN: serve requests in increasing cylinder order from the
    /// current head position, wrapping around to the lowest cylinder.
    Cscan,
    /// Elevator SCAN: sweep up, then down. The current sweep direction is
    /// part of the discipline state.
    Scan {
        /// Whether the head is currently sweeping toward higher cylinders.
        ascending: bool,
    },
    /// Shortest seek time first: nearest cylinder next.
    Sstf,
}

impl Discipline {
    /// Selects the index of the next request to serve from `queue`,
    /// with the head over cylinder `head`.
    ///
    /// Returns `None` for an empty queue. Ties are broken by arrival
    /// order (`seq`), which keeps every discipline deterministic and
    /// starvation-free for CSCAN.
    pub fn select(&mut self, queue: &[Pending], head: u64) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        match *self {
            Discipline::Fcfs => queue
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.seq, *i))
                .map(|(i, _)| i),
            Discipline::Cscan => {
                // Candidates at or ahead of the head, else wrap to lowest.
                let ahead = best_by(queue, |c| c >= head);
                ahead.or_else(|| best_by(queue, |_| true))
            }
            Discipline::Scan { ref mut ascending } => {
                let pick = if *ascending {
                    best_by(queue, |c| c >= head)
                } else {
                    best_desc_by(queue, |c| c <= head)
                };
                match pick {
                    Some(i) => Some(i),
                    None => {
                        *ascending = !*ascending;
                        if *ascending {
                            best_by(queue, |_| true)
                        } else {
                            best_desc_by(queue, |_| true)
                        }
                    }
                }
            }
            Discipline::Sstf => queue
                .iter()
                .enumerate()
                .min_by_key(|&(_, p)| (p.cylinder.abs_diff(head), p.seq))
                .map(|(i, _)| i),
        }
    }

    /// A short name for reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Discipline::Fcfs => "fcfs",
            Discipline::Cscan => "cscan",
            Discipline::Scan { .. } => "scan",
            Discipline::Sstf => "sstf",
        }
    }
}

/// Lowest-cylinder candidate satisfying `pred`, ties by arrival.
fn best_by(queue: &[Pending], pred: impl Fn(u64) -> bool) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|&(_, p)| pred(p.cylinder))
        .min_by_key(|&(_, p)| (p.cylinder, p.seq))
        .map(|(i, _)| i)
}

/// Highest-cylinder candidate satisfying `pred`, ties by arrival.
fn best_desc_by(queue: &[Pending], pred: impl Fn(u64) -> bool) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|&(_, p)| pred(p.cylinder))
        .max_by_key(|&(_, p)| (p.cylinder, u64::MAX - p.seq))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::SectorSpan;
    use parcache_types::{BlockId, Nanos};

    /// Sectors per cylinder of the HP 97560 (19 tracks of 72 sectors).
    const SPC: u64 = 1368;

    fn pending(seq: u64, cylinder: u64) -> Pending {
        Pending {
            block: BlockId(seq),
            tag: 0,
            kind: crate::disk::ReqKind::Read,
            span: SectorSpan {
                start: cylinder * SPC,
                len: 16,
            },
            cylinder,
            enqueued: Nanos::ZERO,
            seq,
        }
    }

    fn queue_with_cyls(cyls: &[u64]) -> Vec<Pending> {
        cyls.iter()
            .enumerate()
            .map(|(i, &c)| pending(i as u64, c))
            .collect()
    }

    #[test]
    fn fcfs_is_arrival_order() {
        let q = queue_with_cyls(&[500, 10, 300]);
        let mut d = Discipline::Fcfs;
        assert_eq!(d.select(&q, 0), Some(0));
    }

    #[test]
    fn cscan_serves_ahead_of_head_first() {
        let q = queue_with_cyls(&[500, 10, 300]);
        let mut d = Discipline::Cscan;
        // Head at 100: candidates ahead are 300 and 500 -> pick 300.
        assert_eq!(d.select(&q, 100), Some(2));
    }

    #[test]
    fn cscan_wraps_to_lowest() {
        let q = queue_with_cyls(&[500, 10, 300]);
        let mut d = Discipline::Cscan;
        // Head at 600: nothing ahead -> wrap to cylinder 10.
        assert_eq!(d.select(&q, 600), Some(1));
    }

    #[test]
    fn scan_reverses_at_the_edge() {
        let q = queue_with_cyls(&[500, 10]);
        let mut d = Discipline::Scan { ascending: true };
        assert_eq!(d.select(&q, 600), Some(0)); // reverses, picks 500
        assert!(matches!(d, Discipline::Scan { ascending: false }));
    }

    #[test]
    fn sstf_picks_nearest() {
        let q = queue_with_cyls(&[500, 10, 300]);
        let mut d = Discipline::Sstf;
        assert_eq!(d.select(&q, 280), Some(2));
        assert_eq!(d.select(&q, 40), Some(1));
    }

    #[test]
    fn empty_queue_selects_nothing() {
        let mut d = Discipline::Cscan;
        assert_eq!(d.select(&[], 0), None);
    }

    #[test]
    fn cscan_ties_break_by_arrival() {
        let q = vec![pending(5, 1), pending(2, 1)];
        let mut d = Discipline::Cscan;
        assert_eq!(d.select(&q, 0), Some(1));
    }

    /// The selection before cylinders were stored in the queue: the
    /// caller passed them as a second slice parallel to the queue.
    fn select_two_slice(
        d: &mut Discipline,
        queue: &[Pending],
        cylinders: &[u64],
        head: u64,
    ) -> Option<usize> {
        fn best_by(q: &[Pending], c: &[u64], pred: impl Fn(u64) -> bool) -> Option<usize> {
            q.iter()
                .enumerate()
                .filter(|&(i, _)| pred(c[i]))
                .min_by_key(|&(i, p)| (c[i], p.seq))
                .map(|(i, _)| i)
        }
        fn best_desc_by(q: &[Pending], c: &[u64], pred: impl Fn(u64) -> bool) -> Option<usize> {
            q.iter()
                .enumerate()
                .filter(|&(i, _)| pred(c[i]))
                .max_by_key(|&(i, p)| (c[i], u64::MAX - p.seq))
                .map(|(i, _)| i)
        }
        if queue.is_empty() {
            return None;
        }
        match *d {
            Discipline::Fcfs => queue
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.seq, *i))
                .map(|(i, _)| i),
            Discipline::Cscan => best_by(queue, cylinders, |c| c >= head)
                .or_else(|| best_by(queue, cylinders, |_| true)),
            Discipline::Scan { ref mut ascending } => {
                let pick = if *ascending {
                    best_by(queue, cylinders, |c| c >= head)
                } else {
                    best_desc_by(queue, cylinders, |c| c <= head)
                };
                pick.or_else(|| {
                    *ascending = !*ascending;
                    if *ascending {
                        best_by(queue, cylinders, |_| true)
                    } else {
                        best_desc_by(queue, cylinders, |_| true)
                    }
                })
            }
            Discipline::Sstf => queue
                .iter()
                .enumerate()
                .min_by_key(|&(i, p)| (cylinders[i].abs_diff(head), p.seq))
                .map(|(i, _)| i),
        }
    }

    #[test]
    fn stored_cylinders_select_as_the_two_slice_form_did() {
        // Random queues (with repeated cylinders and out-of-order
        // arrival numbers, so ties occur) drained one pick at a time
        // under every discipline, the head following each pick: the
        // stored-cylinder selection and the old parallel-slice one must
        // pick the same request and leave SCAN in the same direction.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0xc71_2026);
        for case in 0..400 {
            let n = rng.gen_range(1usize..24);
            let top = rng.gen_range(1u64..2000);
            let mut queue: Vec<Pending> = (0..n)
                .map(|_| pending(rng.gen_range(0u64..64), rng.gen_range(0..top)))
                .collect();
            let start = match case % 5 {
                0 => Discipline::Fcfs,
                1 => Discipline::Cscan,
                2 => Discipline::Scan { ascending: true },
                3 => Discipline::Scan { ascending: false },
                _ => Discipline::Sstf,
            };
            let (mut d, mut reference) = (start, start);
            let mut head = rng.gen_range(0..top);
            while !queue.is_empty() {
                let cylinders: Vec<u64> = queue.iter().map(|p| p.span.start / SPC).collect();
                let want = select_two_slice(&mut reference, &queue, &cylinders, head);
                let got = d.select(&queue, head);
                assert_eq!(got, want, "case {case}: {start:?} at head {head}");
                assert_eq!(d, reference, "case {case}: discipline state");
                let picked = queue.swap_remove(got.expect("non-empty queue"));
                head = picked.cylinder;
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Discipline::Fcfs.name(), "fcfs");
        assert_eq!(Discipline::Cscan.name(), "cscan");
        assert_eq!(Discipline::Scan { ascending: true }.name(), "scan");
        assert_eq!(Discipline::Sstf.name(), "sstf");
    }
}
