//! Per-handle scan state for the abandoned-handle reaper (DESIGN.md
//! §13).
//!
//! A handle with `Config::reap_patience > 0` examines one peer slot
//! after every [`TICK_STRIDE`]-th of its own completed operations (the
//! inspection reads several shared cache lines, so running it on every
//! operation costs a measurable fraction of queue throughput; striding
//! amortizes it to noise and only multiplies detection latency by the
//! same constant, which the patience contract already absorbs). A peer
//! is *frozen* when `reap_patience` consecutive examinations observe an
//! identical liveness snapshot — idpool lease generation, heartbeat, ctrl word
//! and phase for a claimed slot; lease generation alone for a slot
//! stuck mid-reap — and, on top of that, the snapshot stays unchanged
//! for `Config::reap_min_silence_ms` of wall-clock time (the op-count
//! patience alone can elapse within one routine OS preemption; see
//! [`ReapScan::frozen`]). Freezing is the reaper's only liveness oracle: a
//! live handle bumps its heartbeat on every operation (and on
//! [`keepalive`]), so it can only be declared frozen by staying silent
//! for the observer's whole patience window — the lease contract
//! (DESIGN.md §13) makes that the owner's fault, not the reaper's.
//!
//! The struct is deliberately dumb state: the decision of *what to do*
//! with a frozen slot (begin a reap, take over a stalled one) lives in
//! `WfHandle::reap_tick`, and the reap itself in `WfQueue::reap_slot`.
//!
//! [`keepalive`]: crate::WfHandle::keepalive

use crate::desc::CtrlWord;
use std::time::{Duration, Instant};

/// One liveness snapshot of a peer slot. Two equal consecutive
/// snapshots across a patience window mean the peer made no observable
/// progress of any kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Observation {
    /// The slot is leased (`SlotState::Claimed`): freezing requires the
    /// lease generation, the heartbeat, the descriptor word (version
    /// tag included, so helper-driven transitions count as progress)
    /// and the phase all to hold still.
    Claimed {
        generation: u64,
        beat: u64,
        ctrl: CtrlWord,
        phase: i64,
    },
    /// The slot is mid-reap (`SlotState::Reaping`): the reaper itself
    /// is the one being watched. Its only progress signal is the lease
    /// generation (a finished reap frees the slot; a takeover bumps the
    /// generation), so a frozen `Reaping` observation after the
    /// patience window triggers `IdPool::takeover_reap`.
    Reaping { generation: u64 },
}

/// Operations between peer-slot inspections. The freeze oracle's
/// wall-clock detection latency is `TICK_STRIDE * reap_patience`
/// observer operations; deployments pick `reap_patience` against that
/// product (DESIGN.md §13.3).
pub(crate) const TICK_STRIDE: u32 = 16;

/// Cursor + freeze detector. One per handle; not shared.
pub(crate) struct ReapScan {
    /// Peer slot currently under observation.
    cursor: usize,
    /// Last snapshot of `cursor`'s slot, if any.
    obs: Option<Observation>,
    /// Consecutive re-observations that matched `obs`.
    streak: usize,
    /// When the op-count patience was first exhausted for the current
    /// observation — start of the wall-clock silence floor. `None`
    /// until the streak reaches patience, so the hot inspection path
    /// never reads the clock.
    floor_start: Option<Instant>,
    /// Minimum wall-clock silence required *in addition to* the
    /// op-count patience before a slot may be declared frozen.
    min_silence: Duration,
    /// Countdown until the next inspection is due.
    until_due: u32,
}

impl ReapScan {
    pub(crate) fn new(start: usize, min_silence_ms: u64) -> Self {
        ReapScan {
            cursor: start,
            obs: None,
            streak: 0,
            floor_start: None,
            min_silence: Duration::from_millis(min_silence_ms),
            until_due: TICK_STRIDE,
        }
    }

    /// Cheap per-operation gate: returns `true` (and re-arms) on every
    /// [`TICK_STRIDE`]-th call; the handle skips the whole inspection
    /// otherwise. Keeps the hot path at one decrement-and-branch on
    /// handle-private state.
    #[inline]
    pub(crate) fn tick_due(&mut self) -> bool {
        self.until_due -= 1;
        if self.until_due == 0 {
            self.until_due = TICK_STRIDE;
            true
        } else {
            false
        }
    }

    /// The slot this handle is currently watching.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Moves on to the next slot, forgetting the current observation.
    pub(crate) fn advance(&mut self, n: usize) {
        self.cursor = (self.cursor + 1) % n;
        self.obs = None;
        self.streak = 0;
        self.floor_start = None;
    }

    /// Folds in a fresh snapshot of the watched slot and decides
    /// whether the slot is frozen: `patience` consecutive *unchanged*
    /// re-observations AND at least `min_silence` of wall-clock time on
    /// top of them. The wall floor exists because op-count patience
    /// alone elapses in low milliseconds on a fast queue — well inside
    /// routine OS preemption — and a falsely-reaped live handle is a
    /// soundness hazard, not just a liveness one (REVIEW: config.rs).
    /// The clock starts when the streak first *reaches* patience (not
    /// at streak start), which is strictly conservative and keeps the
    /// pre-patience inspection path free of clock reads; any observed
    /// progress resets both the streak and the clock.
    pub(crate) fn frozen(&mut self, cur: Observation, patience: usize) -> bool {
        if self.obs == Some(cur) {
            self.streak += 1;
        } else {
            self.obs = Some(cur);
            self.streak = 0;
            self.floor_start = None;
        }
        if self.streak < patience {
            return false;
        }
        if self.min_silence.is_zero() {
            return true;
        }
        match self.floor_start {
            None => {
                self.floor_start = Some(Instant::now());
                false
            }
            Some(start) => start.elapsed() >= self.min_silence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claimed(generation: u64, beat: u64) -> Observation {
        Observation::Claimed {
            generation,
            beat,
            ctrl: crate::desc::StateSlot::initial().load_ctrl(kp_sync::atomic::Ordering::Relaxed),
            phase: -1,
        }
    }

    #[test]
    fn streak_counts_only_identical_snapshots() {
        let mut scan = ReapScan::new(0, 0);
        assert!(!scan.frozen(claimed(0, 1), 2), "first look never counts");
        assert!(!scan.frozen(claimed(0, 1), 2));
        assert!(scan.frozen(claimed(0, 1), 2));
        assert!(!scan.frozen(claimed(0, 2), 2), "heartbeat progress resets");
        assert!(!scan.frozen(claimed(1, 2), 2), "new lease resets");
        assert!(!scan.frozen(claimed(1, 2), 2));
        assert!(
            !scan.frozen(Observation::Reaping { generation: 1 }, 1),
            "a state change is progress too"
        );
        assert!(scan.frozen(Observation::Reaping { generation: 1 }, 1));
    }

    #[test]
    fn wall_floor_gates_freeze_beyond_op_patience() {
        let mut scan = ReapScan::new(0, 40);
        // Op-count patience exhausted immediately…
        assert!(!scan.frozen(claimed(0, 1), 1));
        assert!(!scan.frozen(claimed(0, 1), 1), "floor clock just started");
        // …but the freeze only lands once wall time has also passed.
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(1));
            if scan.frozen(claimed(0, 1), 1) {
                break;
            }
        }
        assert!(scan.frozen(claimed(0, 1), 1), "floor elapsed, still frozen");
        // Any progress resets the wall clock along with the streak.
        assert!(!scan.frozen(claimed(0, 2), 1));
        assert!(!scan.frozen(claimed(0, 2), 1), "clock restarted by progress");
    }

    #[test]
    fn tick_gate_fires_every_stride_calls() {
        let mut scan = ReapScan::new(0, 0);
        let mut fired = 0;
        for _ in 0..(3 * TICK_STRIDE) {
            if scan.tick_due() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "exactly one inspection per stride");
    }

    #[test]
    fn advance_wraps_and_forgets() {
        let mut scan = ReapScan::new(2, 0);
        assert!(!scan.frozen(claimed(0, 0), 1));
        assert!(scan.frozen(claimed(0, 0), 1));
        scan.advance(3);
        assert_eq!(scan.cursor(), 0, "wraps modulo n");
        assert!(!scan.frozen(claimed(0, 0), 1), "observation forgotten");
    }
}
