//! An array of independently accessible drives.
//!
//! Fetches on different disks execute concurrently; fetches to a single
//! disk are serialized (§2.1). The array owns the striping layout and
//! routes each logical block to its drive.

use crate::disk::{Completed, Disk, DiskStats, EnqueueOutcome, ReqKind};
use crate::layout::Layout;
use crate::model::DiskModel;
use crate::probe::DiskEvent;
use crate::sched::Discipline;
use parcache_types::{BlockId, DiskId, Nanos};

/// Sentinel in [`DiskArray::next_done`] for a drive with nothing in
/// service.
const IDLE: u64 = u64::MAX;

/// A striped array of drives.
///
/// Beside the drives it keeps their scheduling state densely: each
/// drive's next completion time and free flag, refreshed by every call
/// that changes a drive. The engine asks for the earliest completion at
/// every event and policies ask which drives are free at every decision
/// point; both read one small array instead of striding across the
/// drives.
pub struct DiskArray {
    disks: Vec<Disk>,
    layout: Layout,
    /// Per drive: the completion time of its in-service request, in
    /// nanoseconds, or [`IDLE`].
    next_done: Vec<u64>,
    /// Per drive: [`Disk::is_free`].
    free: Vec<bool>,
}

impl DiskArray {
    /// Builds an array of `n` drives, each constructed by `make_model`
    /// from its index (so per-drive fault wrappers can be applied), all
    /// using `discipline` for head scheduling.
    pub fn new(
        n: usize,
        discipline: Discipline,
        mut make_model: impl FnMut(usize) -> Box<dyn DiskModel>,
    ) -> DiskArray {
        assert!(n > 0, "an array needs at least one disk");
        DiskArray {
            disks: (0..n)
                .map(|i| Disk::new(make_model(i), discipline))
                .collect(),
            layout: Layout::striped(n),
            next_done: vec![IDLE; n],
            free: vec![true; n],
        }
    }

    /// Refreshes drive `d`'s dense scheduling state after a change.
    #[inline]
    fn refresh(&mut self, d: usize) {
        let disk = &self.disks[d];
        self.next_done[d] = disk.next_completion().map_or(IDLE, |t| {
            debug_assert_ne!(t.as_nanos(), IDLE, "completion at the idle sentinel");
            t.as_nanos()
        });
        self.free[d] = disk.is_free();
    }

    /// Number of drives.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.disks.len()
    }

    /// False for every constructible array (the constructor rejects zero
    /// drives); delegated to the drive list rather than hardcoded so the
    /// answer can never drift from [`DiskArray::len`].
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// The drive holding `block`.
    pub fn disk_of(&self, block: BlockId) -> DiskId {
        self.layout.disk_of(block)
    }

    /// Whether the given drive is free (idle with an empty queue).
    #[inline]
    pub fn is_free(&self, disk: DiskId) -> bool {
        self.free[disk.index()]
    }

    /// Queue length plus in-service count for the given drive.
    #[cfg(test)]
    pub(crate) fn load(&self, disk: DiskId) -> usize {
        self.disks[disk.index()].load()
    }

    /// Drives that are currently free, in index order. Borrows rather
    /// than allocating: policies call this at every decision point.
    #[cfg(test)]
    pub(crate) fn free_disks(&self) -> impl Iterator<Item = DiskId> + '_ {
        self.free
            .iter()
            .enumerate()
            .filter(|(_, &free)| free)
            .map(|(i, _)| DiskId(i))
    }

    /// Enqueues a fetch of `block` on its drive at time `now`, observing
    /// nothing: [`DiskArray::enqueue_observed`] for a read.
    pub fn enqueue(&mut self, now: Nanos, block: BlockId) -> EnqueueOutcome {
        self.enqueue_observed(now, block, ReqKind::Read, |_, _| {})
    }

    /// Enqueues a `kind` request for `block` on its drive at time `now`,
    /// reporting each [`DiskEvent`] (tagged with the drive it happened on)
    /// to `observe`. Rejected (with no state change) when that drive is
    /// inside an outage window.
    pub fn enqueue_observed(
        &mut self,
        now: Nanos,
        block: BlockId,
        kind: ReqKind,
        mut observe: impl FnMut(DiskId, DiskEvent),
    ) -> EnqueueOutcome {
        let disk = self.disk_of(block);
        let span = self.layout.span_of(block);
        let outcome =
            self.disks[disk.index()].enqueue(now, block, span, kind, |e| observe(disk, e));
        self.refresh(disk.index());
        outcome
    }

    /// The earliest pending completion across all drives; ties go to
    /// the lower [`DiskId`].
    #[inline]
    pub fn next_event(&self) -> Option<(Nanos, DiskId)> {
        let mut best = (IDLE, 0);
        for (d, &t) in self.next_done.iter().enumerate() {
            if t < best.0 {
                best = (t, d);
            }
        }
        (best.0 != IDLE).then_some((Nanos(best.0), DiskId(best.1)))
    }

    /// Completes the in-service request on `disk` (which must complete at
    /// exactly `now`), observing nothing; returns the finished request.
    pub fn complete(&mut self, now: Nanos, disk: DiskId) -> Completed {
        self.complete_observed(now, disk, |_, _| {})
    }

    /// [`DiskArray::complete`], reporting each [`DiskEvent`] to `observe`.
    pub fn complete_observed(
        &mut self,
        now: Nanos,
        disk: DiskId,
        mut observe: impl FnMut(DiskId, DiskEvent),
    ) -> Completed {
        let done = self.disks[disk.index()].complete(now, |e| observe(disk, e));
        self.refresh(disk.index());
        done
    }

    /// Per-drive statistics over completed requests only (see
    /// [`Disk::stats`]).
    pub fn stats(&self) -> Vec<DiskStats> {
        self.disks.iter().map(|d| d.stats()).collect()
    }

    /// Per-drive statistics as of `now`, including partial in-service
    /// busy time (see `Disk::stats_at`).
    pub fn stats_at(&self, now: Nanos) -> Vec<DiskStats> {
        self.disks.iter().map(|d| d.stats_at(now)).collect()
    }

    /// Total fetches served across all drives.
    pub fn total_served(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().served).sum()
    }

    /// Mean service (fetch) time across all drives, rounded to the
    /// nearest nanosecond (truncating toward zero silently dropped the
    /// sub-nanosecond remainder).
    pub fn avg_fetch_time(&self) -> Nanos {
        let total: Nanos = self.disks.iter().map(|d| d.stats().total_service).sum();
        total.div_rounded(self.total_served())
    }

    /// Mean per-disk utilization over `elapsed`: busy time / elapsed,
    /// averaged across drives (the paper's Tables 4 and 8 metric).
    ///
    /// Requests still in service at `elapsed` are credited with the time
    /// they have spent on the platter so far; counting only completions
    /// undercounts short traces.
    pub fn avg_utilization(&self, elapsed: Nanos) -> f64 {
        if elapsed == Nanos::ZERO {
            return 0.0;
        }
        let sum: f64 = self
            .disks
            .iter()
            .map(|d| d.stats_at(elapsed).busy.as_nanos() as f64 / elapsed.as_nanos() as f64)
            .sum();
        sum / self.disks.len() as f64
    }

    /// The block the given drive is servicing right now, if any (see
    /// [`Disk::in_service_block`]).
    #[cfg(test)]
    pub(crate) fn in_service_block(&self, disk: DiskId) -> Option<BlockId> {
        self.disks[disk.index()].in_service_block()
    }

    /// True when `block`'s drive is servicing a *read* of `block` right
    /// now — as opposed to the fetch sitting in the queue behind other
    /// work. Used for stall provenance: a wait on an in-service fetch is
    /// a late prefetch, a wait on a queued fetch is disk congestion.
    pub fn in_service(&self, block: BlockId) -> bool {
        self.disks[self.disk_of(block).index()].in_service_read() == Some(block)
    }

    /// Blocks outstanding (queued or in service) on any drive.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> Vec<BlockId> {
        self.disks.iter().flat_map(|d| d.outstanding()).collect()
    }
}

impl std::fmt::Debug for DiskArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskArray")
            .field("disks", &self.disks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformDisk;

    /// Unwraps an [`EnqueueOutcome`] that must be `Accepted` (healthy
    /// drives unless a test says otherwise).
    trait MustAccept {
        fn accepted(self);
    }
    impl MustAccept for EnqueueOutcome {
        fn accepted(self) {
            assert_eq!(self, EnqueueOutcome::Accepted);
        }
    }

    fn uniform_array(n: usize, ms: u64) -> DiskArray {
        DiskArray::new(n, Discipline::Fcfs, move |_| {
            Box::new(UniformDisk::new(Nanos::from_millis(ms)))
        })
    }

    #[test]
    fn parallel_fetches_on_different_disks() {
        let mut a = uniform_array(2, 10);
        // Blocks 0 and 1 stripe to different disks: both complete at t=10ms.
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted();
        a.enqueue(Nanos::ZERO, BlockId(1)).accepted();
        let (t1, d1) = a.next_event().unwrap();
        assert_eq!(t1, Nanos::from_millis(10));
        a.complete(t1, d1);
        let (t2, d2) = a.next_event().unwrap();
        assert_eq!(t2, Nanos::from_millis(10));
        assert_ne!(d1, d2);
    }

    #[test]
    fn same_disk_serializes() {
        let mut a = uniform_array(2, 10);
        // Blocks 0 and 2 both live on disk 0.
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted();
        a.enqueue(Nanos::ZERO, BlockId(2)).accepted();
        let (t1, d1) = a.complete_next();
        assert_eq!((t1, d1.index()), (Nanos::from_millis(10), 0));
        let (t2, _) = a.complete_next();
        assert_eq!(t2, Nanos::from_millis(20));
    }

    impl DiskArray {
        /// Test helper: pop the next completion.
        fn complete_next(&mut self) -> (Nanos, DiskId) {
            let (t, d) = self.next_event().unwrap();
            self.complete(t, d);
            (t, d)
        }
    }

    #[test]
    fn free_disks_reflect_state() {
        let mut a = uniform_array(3, 10);
        assert_eq!(a.free_disks().count(), 3);
        a.enqueue(Nanos::ZERO, BlockId(1)).accepted();
        let free: Vec<DiskId> = a.free_disks().collect();
        assert_eq!(free, vec![DiskId(0), DiskId(2)]);
        assert!(!a.is_free(DiskId(1)));
        assert_eq!(a.load(DiskId(1)), 1);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn utilization_and_fetch_time() {
        let mut a = uniform_array(2, 10);
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted();
        let (t, d) = a.next_event().unwrap();
        a.complete(t, d);
        // One disk busy 10ms of a 20ms run, the other idle: 25% average.
        let u = a.avg_utilization(Nanos::from_millis(20));
        assert!((u - 0.25).abs() < 1e-9);
        assert_eq!(a.avg_fetch_time(), Nanos::from_millis(10));
        assert_eq!(a.total_served(), 1);
    }

    #[test]
    fn utilization_counts_requests_still_in_service() {
        let mut a = uniform_array(2, 10);
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted();
        // The run "ends" at 5ms with the request half-served: the drive
        // has been busy the whole time, so utilization is 0.5 / 2 disks.
        let u = a.avg_utilization(Nanos::from_millis(5));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
        // A second request queued behind it contributes nothing yet.
        a.enqueue(Nanos::ZERO, BlockId(2)).accepted();
        let u = a.avg_utilization(Nanos::from_millis(5));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
        assert_eq!(
            a.stats_at(Nanos::from_millis(5))[0].busy,
            Nanos::from_millis(5)
        );
        assert_eq!(a.stats()[0].busy, Nanos::ZERO);
    }

    #[test]
    fn avg_fetch_time_rounds_instead_of_truncating() {
        // Drive 0 serves in 2ns, drive 1 in 1ns: one fetch on each totals
        // 3ns over 2 requests. Truncation loses the remainder (1ns); the
        // rounded mean is 2ns.
        let times = [Nanos(2), Nanos(1)];
        let mut a = DiskArray::new(2, Discipline::Fcfs, |i| {
            Box::new(UniformDisk::new(times[i]))
        });
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted(); // disk 0
        a.enqueue(Nanos::ZERO, BlockId(1)).accepted(); // disk 1
        while let Some((t, d)) = a.next_event() {
            a.complete(t, d);
        }
        assert_eq!(a.total_served(), 2);
        assert_eq!(a.avg_fetch_time(), Nanos(2));
        // No requests served: the mean is zero, not a division panic.
        let empty = uniform_array(1, 10);
        assert_eq!(empty.avg_fetch_time(), Nanos::ZERO);
    }

    #[test]
    fn outstanding_lists_queued_blocks() {
        let mut a = uniform_array(2, 10);
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted();
        a.enqueue(Nanos::ZERO, BlockId(2)).accepted();
        let out = a.outstanding();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&BlockId(0)) && out.contains(&BlockId(2)));
    }

    #[test]
    fn in_service_distinguishes_platter_from_queue() {
        let mut a = uniform_array(2, 10);
        assert_eq!(a.in_service_block(DiskId(0)), None);
        assert!(!a.in_service(BlockId(0)));
        // Blocks 0 and 2 both stripe to disk 0: the first is taken onto
        // the platter immediately, the second waits in the queue.
        a.enqueue(Nanos::ZERO, BlockId(0)).accepted();
        a.enqueue(Nanos::ZERO, BlockId(2)).accepted();
        assert_eq!(a.in_service_block(DiskId(0)), Some(BlockId(0)));
        assert!(a.in_service(BlockId(0)));
        assert!(!a.in_service(BlockId(2)), "queued, not in service");
        let (t, d) = a.next_event().unwrap();
        a.complete(t, d);
        assert!(a.in_service(BlockId(2)), "head moved on to the queue");
    }

    #[test]
    fn dense_drive_state_matches_the_drives() {
        // Random read and write enqueues (some turned away by an outage),
        // completions with media errors, and fresh arrays, over drives whose
        // service times tie across drives: after every call the dense
        // answers must equal the ones read from the drives themselves,
        // ties going to the lower drive.
        use crate::fault::{FaultPlan, FaultyDisk};
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0xd15c_a77a);
        let (mut ties, mut rejected) = (0, 0);
        for case in 0..60u64 {
            let n = rng.gen_range(1usize..=6);
            let ms: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..=3)).collect();
            let plan = FaultPlan::parse(&format!("flaky:*:0.1,outage:0:20:60,seed:{case}"))
                .expect("valid fault plan");
            let build = || {
                DiskArray::new(n, Discipline::Fcfs, |i| {
                    let base = Box::new(UniformDisk::new(Nanos::from_millis(ms[i])));
                    match plan.for_disk(i) {
                        Some(f) => Box::new(FaultyDisk::new(base, f, plan.rng_for_disk(i))),
                        None => base,
                    }
                })
            };
            let mut a = build();
            let mut now = Nanos::ZERO;
            for step in 0..300 {
                let block = BlockId(rng.gen_range(0u64..64));
                match rng.gen_range(0u64..20) {
                    0..=8 => rejected += usize::from(a.enqueue(now, block).is_rejected()),
                    9 | 10 => {
                        rejected += usize::from(
                            a.enqueue_observed(now, block, ReqKind::Write, |_, _| {})
                                .is_rejected(),
                        )
                    }
                    11..=18 => {
                        if let Some((t, d)) = a.next_event() {
                            now = t;
                            a.complete(t, d);
                        }
                    }
                    _ => {
                        a = build();
                        now = Nanos::ZERO;
                    }
                }
                let by_drive = a
                    .disks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| d.next_completion().map(|t| (t, DiskId(i))))
                    .min();
                assert_eq!(a.next_event(), by_drive, "case {case}, step {step}");
                let due = a.disks.iter().filter_map(|d| d.next_completion());
                ties +=
                    usize::from(by_drive.is_some_and(|(t, _)| due.filter(|&u| u == t).count() > 1));
                for (i, d) in a.disks.iter().enumerate() {
                    assert_eq!(
                        a.is_free(DiskId(i)),
                        d.is_free(),
                        "case {case}, step {step}"
                    );
                }
                let free: Vec<DiskId> = a.free_disks().collect();
                let want: Vec<DiskId> = (0..n)
                    .map(DiskId)
                    .filter(|&d| a.disks[d.index()].is_free())
                    .collect();
                assert_eq!(free, want, "case {case}, step {step}");
            }
        }
        assert!(ties > 0, "no two drives ever completed at once");
        assert!(rejected > 0, "no enqueue was turned away");
    }

    #[test]
    fn arrays_built_from_one_fault_plan_replay_identically() {
        use crate::fault::{FaultPlan, FaultyDisk};
        // Disk 0 flaky, disk 1 healthy: only the matching drive is
        // wrapped, exactly as the engine builds faulted arrays.
        let plan = FaultPlan::parse("flaky:0:0.5,seed:3").unwrap();
        let run = || -> Vec<DiskStats> {
            let mut a = DiskArray::new(2, Discipline::Fcfs, |i| {
                let base = Box::new(UniformDisk::new(Nanos::from_millis(2)));
                match plan.for_disk(i) {
                    Some(f) => Box::new(FaultyDisk::new(base, f, plan.rng_for_disk(i))),
                    None => base,
                }
            });
            for round in 0..16u64 {
                // Blocks 0 and 1 stripe to disks 0 and 1.
                a.enqueue(Nanos::from_millis(round * 10), BlockId(0))
                    .accepted();
                a.enqueue(Nanos::from_millis(round * 10), BlockId(1))
                    .accepted();
                while let Some((t, d)) = a.next_event() {
                    a.complete(t, d);
                }
            }
            a.stats()
        };
        let first = run();
        assert!(first[0].failed > 0, "seed 3 must hit at least one error");
        assert_eq!(first[1].failed, 0, "healthy drive must never fail");
        // Every wrapped drive's fault stream comes from the plan alone: a
        // second array built from it replays identically.
        assert_eq!(run(), first);
    }
}
