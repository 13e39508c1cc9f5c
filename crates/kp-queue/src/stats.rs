//! Lightweight operation counters.
//!
//! The paper's §4 argues that the wait-free queue's cost comes from
//! state-array bookkeeping and helping; these counters let the harness
//! and the test suite observe that machinery directly (e.g. "under
//! contention, a nonzero fraction of operations is completed by
//! helpers"). All increments are relaxed — the numbers are statistics,
//! not synchronization.
//!
//! Even relaxed, the shared `help_calls`/`appends_total` bumps are RMWs
//! on contended cache lines and perturb the very benchmarks that
//! measure helping cost. The counters are therefore behind the `stats`
//! cargo feature (on by default): with it off, each counter is a ZST,
//! `bump` compiles away, and `snapshot` returns zeros — the API shape
//! is unchanged so callers need no cfgs.

#[cfg(feature = "stats")]
use kp_sync::atomic::{AtomicU64, Ordering};

#[cfg(feature = "stats")]
use kp_sync::CachePadded;

/// One statistic cell: a padded atomic with the feature on, a ZST with
/// it off.
#[cfg(feature = "stats")]
pub(crate) type Counter = CachePadded<AtomicU64>;
#[cfg(not(feature = "stats"))]
#[derive(Default)]
pub(crate) struct Counter;

#[derive(Default)]
pub(crate) struct Stats {
    /// Completed enqueue operations (counted by the invoking thread).
    pub(crate) enqueues: Counter,
    /// Completed dequeue operations, including empty ones.
    pub(crate) dequeues: Counter,
    /// Dequeue operations that linearized on an empty queue.
    pub(crate) empty_dequeues: Counter,
    /// Every successful step-1 append (Figure 4 line 74) — Lemma 1 says
    /// exactly one per enqueue operation.
    pub(crate) appends_total: Counter,
    /// Every successful sentinel lock (Figure 6 line 135) — Lemma 2 says
    /// exactly one per successful dequeue operation.
    pub(crate) locks_total: Counter,
    /// Successful step-1 appends (Figure 4 line 74) performed by a thread
    /// other than the operation's owner.
    pub(crate) helped_appends: Counter,
    /// Successful sentinel locks (Figure 6 line 135) performed by a
    /// thread other than the operation's owner.
    pub(crate) helped_locks: Counter,
    /// `maxPhase()` scans performed (only under `PhasePolicy::MaxScan`).
    pub(crate) phase_scans: Counter,
    /// Iterations of the `help()` scan that actually called into
    /// `help_enq`/`help_deq` for a peer.
    pub(crate) help_calls: Counter,
    /// Nodes taken from the heap because no recycled node was available
    /// (see `RetireCache` / `NodePool`). Zero in steady state.
    pub(crate) node_allocs: Counter,
    /// Nodes served from a recycle cache instead of the heap.
    pub(crate) node_reuses: Counter,
    /// Operations completed entirely on the descriptor-free fast path
    /// (enqueues whose append CAS won, dequeues whose `deqTid` lock won
    /// or that linearized empty, all within the CAS-failure budget).
    pub(crate) fast_completions: Counter,
    /// Fast-path attempts that exhausted `max_fast_failures` CAS-loop
    /// iterations and fell back to the wait-free slow path.
    pub(crate) fast_exhaustions: Counter,
    /// Fast-path attempts demoted to the slow path because the periodic
    /// starvation peek observed a pending peer descriptor.
    pub(crate) fast_starvation_demotions: Counter,
    /// Abandoned-handle reaps completed (lease revoked, slot retired,
    /// participation quarantined). See DESIGN.md §13.
    pub(crate) reaps: Counter,
    /// Reaps whose victim had a pending descriptor that the reaper
    /// adopted and completed through the helping machinery.
    pub(crate) reap_adoptions: Counter,
    /// Reaps taken over from a reaper that itself went silent mid-reap.
    pub(crate) reap_takeovers: Counter,
    /// Epoch participants / hazard records force-quarantined by reaps.
    pub(crate) quarantines: Counter,
    /// Memory-pressure backpressure: nodes pushed out of a full
    /// `RetireCache` to the shared epoch collector. The queues' `stats`
    /// add the nodes their `NodePool` freed past its cap. Growth beyond
    /// the caps is degraded to reclamation work instead of unbounded
    /// caching.
    pub(crate) cache_overflows: Counter,
}

impl Stats {
    #[inline]
    pub(crate) fn bump(_counter: &Counter) {
        #[cfg(feature = "stats")]
        _counter.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(feature = "stats")]
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            enqueues: self.enqueues.load(Ordering::Relaxed),
            dequeues: self.dequeues.load(Ordering::Relaxed),
            empty_dequeues: self.empty_dequeues.load(Ordering::Relaxed),
            appends_total: self.appends_total.load(Ordering::Relaxed),
            locks_total: self.locks_total.load(Ordering::Relaxed),
            helped_appends: self.helped_appends.load(Ordering::Relaxed),
            helped_locks: self.helped_locks.load(Ordering::Relaxed),
            phase_scans: self.phase_scans.load(Ordering::Relaxed),
            help_calls: self.help_calls.load(Ordering::Relaxed),
            node_allocs: self.node_allocs.load(Ordering::Relaxed),
            node_reuses: self.node_reuses.load(Ordering::Relaxed),
            fast_completions: self.fast_completions.load(Ordering::Relaxed),
            fast_exhaustions: self.fast_exhaustions.load(Ordering::Relaxed),
            fast_starvation_demotions: self.fast_starvation_demotions.load(Ordering::Relaxed),
            reaps: self.reaps.load(Ordering::Relaxed),
            reap_adoptions: self.reap_adoptions.load(Ordering::Relaxed),
            reap_takeovers: self.reap_takeovers.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            cache_overflows: self.cache_overflows.load(Ordering::Relaxed),
        }
    }

    #[cfg(not(feature = "stats"))]
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    /// Monotonic count of values removed so far (empty dequeues carry
    /// no value, so they are subtracted out). The overload layer's
    /// drain heartbeat — three relaxed loads, no full snapshot.
    #[cfg(feature = "stats")]
    pub(crate) fn drained(&self) -> u64 {
        self.dequeues
            .load(Ordering::Relaxed)
            .saturating_sub(self.empty_dequeues.load(Ordering::Relaxed))
    }

    /// Advisory resident-value gauge: completed enqueues minus values
    /// drained. Loads the dequeue side first so a concurrent completion
    /// between the loads errs toward overcounting, never negative —
    /// exact at quiescence, stale by at most the number of in-flight
    /// operations under load.
    #[cfg(feature = "stats")]
    pub(crate) fn depth(&self) -> usize {
        let drained = self.drained();
        self.enqueues.load(Ordering::Relaxed).saturating_sub(drained) as usize
    }
}

/// A point-in-time copy of a queue's helping statistics.
///
/// All-zero when the crate is built without the `stats` feature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed enqueue operations.
    pub enqueues: u64,
    /// Completed dequeue operations (including those that found the
    /// queue empty).
    pub dequeues: u64,
    /// Dequeue operations that linearized on an empty queue.
    pub empty_dequeues: u64,
    /// Total successful step-1 appends (paper L74). Lemma 1's
    /// exactly-once property means this equals `enqueues` at
    /// quiescence — asserted by the test suite.
    pub appends_total: u64,
    /// Total successful sentinel locks (paper L135). Lemma 2's
    /// exactly-once property means this equals
    /// `dequeues - empty_dequeues` at quiescence.
    pub locks_total: u64,
    /// Enqueue linearization steps executed by a helper rather than the
    /// operation's owner.
    pub helped_appends: u64,
    /// Dequeue linearization steps executed by a helper rather than the
    /// operation's owner.
    pub helped_locks: u64,
    /// `maxPhase()` array scans performed.
    pub phase_scans: u64,
    /// Times a thread entered `help_enq`/`help_deq` on behalf of a peer.
    pub help_calls: u64,
    /// Nodes freshly heap-allocated because no recycled node was
    /// available. Zero per op in steady state with `reuse_nodes` on.
    pub node_allocs: u64,
    /// Nodes served from a recycle cache instead of the heap.
    pub node_reuses: u64,
    /// Operations completed entirely on the descriptor-free fast path.
    pub fast_completions: u64,
    /// Fast-path attempts that exhausted the CAS-failure budget and fell
    /// back to the slow path.
    pub fast_exhaustions: u64,
    /// Fast-path attempts demoted to the slow path by the starvation
    /// peek.
    pub fast_starvation_demotions: u64,
    /// Abandoned-handle reaps completed (zero unless
    /// `Config::reap_patience` is non-zero and a handle went silent).
    pub reaps: u64,
    /// Reaps that adopted and completed a victim's pending operation.
    pub reap_adoptions: u64,
    /// Reaps taken over from a reaper that itself went silent mid-reap.
    pub reap_takeovers: u64,
    /// Epoch participants / hazard records force-quarantined by reaps.
    pub quarantines: u64,
    /// Nodes that bypassed a full recycle cache/pool (memory-pressure
    /// backpressure; see DESIGN.md §13 degradation bounds).
    pub cache_overflows: u64,
}

impl StatsSnapshot {
    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.enqueues + self.dequeues
    }

    /// Fraction of fast-path *attempts* that fell back to the slow path
    /// (exhaustion or starvation demotion); 0.0 when the fast path never
    /// ran. An attempt is a completion or a fallback — slow-only
    /// operations (fast path disabled) are not attempts.
    pub fn fallback_rate(&self) -> f64 {
        let fallbacks = self.fast_exhaustions + self.fast_starvation_demotions;
        let attempts = self.fast_completions + fallbacks;
        if attempts == 0 {
            return 0.0;
        }
        fallbacks as f64 / attempts as f64
    }

    /// Fraction of operations whose linearization step was executed by a
    /// helper (0.0 when no operations ran).
    pub fn helped_fraction(&self) -> f64 {
        let ops = self.ops();
        if ops == 0 {
            return 0.0;
        }
        (self.helped_appends + self.helped_locks) as f64 / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "stats")]
    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::default();
        Stats::bump(&s.enqueues);
        Stats::bump(&s.enqueues);
        Stats::bump(&s.helped_locks);
        let snap = s.snapshot();
        assert_eq!(snap.enqueues, 2);
        assert_eq!(snap.helped_locks, 1);
        assert_eq!(snap.ops(), 2);
        assert!((snap.helped_fraction() - 0.5).abs() < 1e-12);
    }

    #[cfg(not(feature = "stats"))]
    #[test]
    fn bumps_are_noops_without_the_feature() {
        let s = Stats::default();
        Stats::bump(&s.enqueues);
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        assert_eq!(std::mem::size_of::<Stats>(), 0);
    }

    #[test]
    fn helped_fraction_empty() {
        assert_eq!(StatsSnapshot::default().helped_fraction(), 0.0);
    }

    #[test]
    fn fallback_rate_counts_both_demotion_kinds() {
        assert_eq!(StatsSnapshot::default().fallback_rate(), 0.0);
        let snap = StatsSnapshot {
            fast_completions: 6,
            fast_exhaustions: 1,
            fast_starvation_demotions: 1,
            ..StatsSnapshot::default()
        };
        assert!((snap.fallback_rate() - 0.25).abs() < 1e-12);
    }
}
