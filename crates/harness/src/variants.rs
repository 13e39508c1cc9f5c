//! The queue contenders, matching the series labels of the paper's
//! figures.

use std::time::Duration;

use kp_queue::{Config, WfQueue};
use ms_queue::{MsQueue, MsQueueHp, MutexQueue};
use queue_traits::FastPathStats;
use wcq::WcQueue;

use crate::sched::SchedPolicy;
use crate::workload;

/// A queue implementation under benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Michael & Scott lock-free queue, epoch reclamation — the paper's
    /// **LF** series.
    Lf,
    /// Michael & Scott on hazard pointers (reclamation ablation; not a
    /// paper series).
    LfHp,
    /// Kogan–Petrank, base algorithm — the paper's **base WF**.
    WfBase,
    /// Kogan–Petrank with optimization 1 — **opt WF (1)**.
    WfOpt1,
    /// Kogan–Petrank with optimization 2 — **opt WF (2)**.
    WfOpt2,
    /// Kogan–Petrank with both optimizations — **opt WF (1+2)**.
    WfOptBoth,
    /// Kogan–Petrank opt (1+2) with the bounded lock-free fast path
    /// (DESIGN.md §12; the KP 2012 fast-path/slow-path methodology).
    WfFast,
    /// wCQ bounded ring-buffer engine (DESIGN.md §14), sized so the
    /// benchmark workloads never hit the capacity wall.
    Wcq,
    /// wCQ with a deliberately small ring (2048 slots): the bounded
    /// regime, where enqueues block on a full queue.
    WcqBounded,
    /// Coarse mutex around a `VecDeque` (context baseline).
    Mutex,
}

/// Ring capacity for [`Variant::Wcq`] — large enough that the pairs and
/// 50-50 workloads never fill it.
pub const WCQ_CAPACITY: usize = 1 << 16;
/// Ring capacity for [`Variant::WcqBounded`] — small enough that the
/// workloads exercise the full-queue path (but above the 50-50 prefill
/// of 1000).
pub const WCQ_BOUNDED_CAPACITY: usize = 2048;

impl Variant {
    /// The three series of Figures 7 and 8.
    pub const FIG7: [Variant; 3] = [Variant::Lf, Variant::WfBase, Variant::WfOptBoth];

    /// The four series of Figure 9 (optimization ablation).
    pub const FIG9: [Variant; 4] = [
        Variant::WfBase,
        Variant::WfOptBoth,
        Variant::WfOpt1,
        Variant::WfOpt2,
    ];

    /// Everything, for exhaustive sweeps.
    pub const ALL: [Variant; 10] = [
        Variant::Lf,
        Variant::LfHp,
        Variant::WfBase,
        Variant::WfOpt1,
        Variant::WfOpt2,
        Variant::WfOptBoth,
        Variant::WfFast,
        Variant::Wcq,
        Variant::WcqBounded,
        Variant::Mutex,
    ];

    /// Series label, matching the paper's legends where applicable.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Lf => "LF",
            Variant::LfHp => "LF (hazard)",
            Variant::WfBase => "base WF",
            Variant::WfOpt1 => "opt WF (1)",
            Variant::WfOpt2 => "opt WF (2)",
            Variant::WfOptBoth => "opt WF (1+2)",
            Variant::WfFast => "fast WF (1+2)",
            Variant::Wcq => "wCQ",
            Variant::WcqBounded => "wCQ (bounded)",
            Variant::Mutex => "mutex",
        }
    }

    /// Parses a label or short alias.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lf" | "LF" => Some(Variant::Lf),
            "lf-hp" | "LF (hazard)" => Some(Variant::LfHp),
            "wf-base" | "base WF" | "base" => Some(Variant::WfBase),
            "wf-opt1" | "opt WF (1)" | "opt1" => Some(Variant::WfOpt1),
            "wf-opt2" | "opt WF (2)" | "opt2" => Some(Variant::WfOpt2),
            "wf-opt" | "opt WF (1+2)" | "opt" => Some(Variant::WfOptBoth),
            "wf-fast" | "fast WF (1+2)" | "fast" => Some(Variant::WfFast),
            "wcq" | "wCQ" => Some(Variant::Wcq),
            "wcq-bounded" | "wCQ (bounded)" => Some(Variant::WcqBounded),
            "mutex" => Some(Variant::Mutex),
            _ => None,
        }
    }

    /// The `Config` for wait-free variants, `None` for the baselines.
    pub fn wf_config(&self) -> Option<Config> {
        match self {
            Variant::WfBase => Some(Config::base()),
            Variant::WfOpt1 => Some(Config::opt1()),
            Variant::WfOpt2 => Some(Config::opt2()),
            Variant::WfOptBoth => Some(Config::opt_both()),
            Variant::WfFast => Some(Config::fast()),
            _ => None,
        }
    }

    /// The engine family implementing this variant — the bench JSON's
    /// self-describing `engine` field.
    pub fn engine(&self) -> &'static str {
        match self {
            Variant::Lf | Variant::LfHp => "michael-scott",
            Variant::Wcq | Variant::WcqBounded => "wcq",
            Variant::Mutex => "mutex",
            _ => "kogan-petrank",
        }
    }

    /// The fixed element capacity, `None` for unbounded engines.
    pub fn capacity(&self) -> Option<usize> {
        match self {
            Variant::Wcq => Some(WCQ_CAPACITY),
            Variant::WcqBounded => Some(WCQ_BOUNDED_CAPACITY),
            _ => None,
        }
    }

    fn wcq_queue(&self, threads: usize) -> WcQueue<u64> {
        let cap = self.capacity().expect("wcq variant");
        WcQueue::with_config(threads, wcq::Config::new().with_capacity(cap))
    }

    /// Runs the pairs benchmark (Figures 7/9) on a fresh queue.
    pub fn run_pairs(&self, threads: usize, iters: usize, sched: SchedPolicy) -> Duration {
        self.run_pairs_stats(threads, iters, sched).0
    }

    /// [`run_pairs`](Self::run_pairs) plus the merged per-handle
    /// fast-path counters (all zero for variants without a fast path).
    pub fn run_pairs_stats(
        &self,
        threads: usize,
        iters: usize,
        sched: SchedPolicy,
    ) -> (Duration, FastPathStats) {
        match self {
            Variant::Lf => workload::run_pairs_with_stats(&MsQueue::new(), threads, iters, sched),
            Variant::LfHp => {
                workload::run_pairs_with_stats(&MsQueueHp::new(), threads, iters, sched)
            }
            Variant::Wcq | Variant::WcqBounded => {
                let q = self.wcq_queue(threads);
                workload::run_pairs_with_stats(&q, threads, iters, sched)
            }
            Variant::Mutex => {
                workload::run_pairs_with_stats(&MutexQueue::new(), threads, iters, sched)
            }
            wf => {
                let cfg = wf.wf_config().expect("wait-free variant");
                let q: WfQueue<u64> = WfQueue::with_config(threads, cfg);
                workload::run_pairs_with_stats(&q, threads, iters, sched)
            }
        }
    }

    /// Runs the 50%-enqueues benchmark (Figure 8) on a fresh queue.
    pub fn run_fifty_fifty(
        &self,
        threads: usize,
        iters: usize,
        prefill: usize,
        sched: SchedPolicy,
    ) -> Duration {
        self.run_fifty_fifty_stats(threads, iters, prefill, sched).0
    }

    /// [`run_fifty_fifty`](Self::run_fifty_fifty) plus the merged
    /// per-handle fast-path counters.
    pub fn run_fifty_fifty_stats(
        &self,
        threads: usize,
        iters: usize,
        prefill: usize,
        sched: SchedPolicy,
    ) -> (Duration, FastPathStats) {
        match self {
            Variant::Lf => {
                workload::run_fifty_fifty_with_stats(&MsQueue::new(), threads, iters, prefill, sched)
            }
            Variant::LfHp => workload::run_fifty_fifty_with_stats(
                &MsQueueHp::new(),
                threads,
                iters,
                prefill,
                sched,
            ),
            Variant::Wcq | Variant::WcqBounded => {
                // +1 slot for the prefill handle, like the WF arms.
                let q = self.wcq_queue(threads + 1);
                workload::run_fifty_fifty_with_stats(&q, threads, iters, prefill, sched)
            }
            Variant::Mutex => workload::run_fifty_fifty_with_stats(
                &MutexQueue::new(),
                threads,
                iters,
                prefill,
                sched,
            ),
            wf => {
                let cfg = wf.wf_config().expect("wait-free variant");
                // +1 slot: the prefill handle coexists conceptually; it
                // is dropped before workers start, but sizing generously
                // costs one array entry.
                let q: WfQueue<u64> = WfQueue::with_config(threads + 1, cfg);
                workload::run_fifty_fifty_with_stats(&q, threads, iters, prefill, sched)
            }
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_back() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.label()), Some(v), "{v:?}");
        }
        assert_eq!(Variant::parse("nope"), None);
    }

    #[test]
    fn wf_configs_only_for_wf() {
        assert!(Variant::Lf.wf_config().is_none());
        assert!(Variant::Mutex.wf_config().is_none());
        assert_eq!(Variant::WfBase.wf_config(), Some(Config::base()));
        assert_eq!(Variant::WfOptBoth.wf_config(), Some(Config::opt_both()));
    }

    #[test]
    fn every_variant_runs_pairs() {
        for v in Variant::ALL {
            let d = v.run_pairs(2, 300, SchedPolicy::Unpinned);
            assert!(d > Duration::ZERO, "{v}");
        }
    }

    #[test]
    fn every_variant_runs_fifty_fifty() {
        for v in Variant::ALL {
            let d = v.run_fifty_fifty(2, 300, 50, SchedPolicy::Unpinned);
            assert!(d > Duration::ZERO, "{v}");
        }
    }

    #[test]
    fn engines_and_capacities_are_declared() {
        assert_eq!(Variant::Wcq.engine(), "wcq");
        assert_eq!(Variant::WcqBounded.capacity(), Some(WCQ_BOUNDED_CAPACITY));
        assert_eq!(Variant::WfOptBoth.engine(), "kogan-petrank");
        assert_eq!(Variant::WfOptBoth.capacity(), None);
        assert_eq!(Variant::Lf.engine(), "michael-scott");
        // Bounded variants must clear the 50-50 prefill of 1000.
        for v in Variant::ALL {
            if let Some(cap) = v.capacity() {
                assert!(cap > 1_000, "{v}: capacity {cap} below 50-50 prefill");
            }
        }
    }

    #[test]
    fn fast_variants_report_fast_path_stats() {
        for v in [Variant::WfFast, Variant::Wcq] {
            let (_, fp) = v.run_pairs_stats(2, 300, SchedPolicy::Unpinned);
            assert!(fp.fast_completions > 0, "{v}: fast path must run: {fp:?}");
            assert!(
                fp.fast_completions + fp.slow_ops >= 2 * 2 * 300,
                "{v}: every op is counted somewhere: {fp:?}"
            );
        }
        // Slow-path and baseline variants report all-zero counters.
        for v in [Variant::WfOptBoth, Variant::Lf, Variant::Mutex] {
            let (_, fp) = v.run_pairs_stats(2, 300, SchedPolicy::Unpinned);
            assert_eq!(fp.fast_completions, 0, "{v}");
        }
    }
}
