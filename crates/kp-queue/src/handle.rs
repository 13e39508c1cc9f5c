//! The per-thread handle: operation entry points (paper Figure 4 `enq`,
//! Figure 6 `deq`), the §3.3 helping-policy dispatch, the fast-path
//! prologue, unwind recovery, handle exit and the reaper's tick.

use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

use hazard::Participant;
use idpool::{IdGuard, SlotState};
use kp_sync::atomic::Ordering;
use queue_traits::{FastPathStats, QueueHandle};

use crate::chaos_hooks::{self, inject};
use crate::config::HelpPolicy;
use crate::hazard::{H_NEXT, H_NODE};
use crate::node::{Node, FAST_ENQUEUER, NO_DEQUEUER};
use crate::pool::Stash;
use crate::queue::{FastDeq, WfQueue};
use crate::reap::{Observation, ReapScan};
use crate::stats::Stats;

/// Nodes a handle keeps per pool steal beyond the one it needs; the
/// surplus goes back to the pool node by node, for other handles'
/// refills. (Pushing it back as one chain left the pool over its cap so
/// often that the hazard scan's releases overflowed: ~10x the
/// allocations on the contended check in `alloc_regression.rs`.)
const LOCAL_CAP: usize = 32;

/// A registered thread's handle to a [`WfQueue`].
///
/// Owns a virtual thread ID (`TID` in the paper's listings) for the
/// handle's lifetime; dropping the handle returns the ID to the pool.
/// Operations take `&mut self` because a handle embodies *one* thread of
/// the algorithm — the queue itself may be shared freely.
///
/// The handle also owns the thread's hazard record (a `Participant`)
/// and a private stash of pool nodes:
/// enqueues reuse nodes that no other thread can still reach, and what
/// a dequeue-heavy thread cannot reuse itself reaches other threads'
/// enqueues through the queue's node pool — making the steady-state
/// operation path allocation-free even when producers and consumers
/// are different threads.
///
/// Dropping a handle whose operation is still pending (a panic unwound
/// out of `enqueue`/`dequeue` mid-protocol) first drives that operation
/// to completion and then publishes a fresh idle descriptor — the
/// paper's §3.3 "dummy descriptor on exit". Without this, releasing the
/// virtual ID while the descriptor still references an un-appended node
/// could wedge every other thread: a helper may append the orphaned
/// node, after which `help_finish_enq`'s descriptor identity check
/// (L91) can never pass and the tail never advances.
pub struct WfHandle<'q, T: Send> {
    queue: &'q WfQueue<T>,
    id: IdGuard<'q>,
    /// The hazard record (see `crate::hazard`). Manually dropped so exit
    /// can *leak* it when the handle was reaped: the reaper already
    /// quarantined it (slots nulled, parked for adoption), and a
    /// successor may have adopted it — running `Participant::drop` then
    /// would clobber the adopter's live hazards.
    participant: ManuallyDrop<Participant<'q>>,
    /// Nodes stolen from the queue's pool (see `crate::pool`).
    stash: Stash<Node<T>>,
    /// Next state-array index to examine under `HelpPolicy::Cyclic`.
    cursor: usize,
    /// xorshift64* state for `HelpPolicy::RandomChunk`.
    rng: u64,
    /// Fast-path CAS-failure budget; copied from the queue config,
    /// overridable per handle (see [`set_fast_path`]). `0` = slow only.
    ///
    /// [`set_fast_path`]: Self::set_fast_path
    max_fast_failures: usize,
    /// Consecutive fast-path completions since the last starvation
    /// peek (see `Config::starvation_patience`).
    fast_streak: usize,
    /// Plain (non-atomic, handle-local) fast/slow counters, so benches
    /// can report one handle's fallback rate without reading the
    /// queue-wide `Stats`.
    local_stats: FastPathStats,
    /// Panic-recovery tracker: a node allocated for the fast path that
    /// is still *private* (never published by an append CAS or a
    /// descriptor publish). If an unwind escapes the operation while
    /// this is non-null, `recover_after_unwind` reclaims it; it is
    /// nulled the instant the node becomes public.
    inflight: *mut Node<T>,
    /// True from a slow dequeue's publish until its epilogue claimed
    /// the result; lets recovery distinguish a completed-but-unclaimed
    /// word (whose value must still be taken and discarded) from an old
    /// word whose value node may long be reused.
    deq_in_flight: bool,
    /// Reaper scan state (cursor + freeze detector, DESIGN.md §13).
    reap: ReapScan,
}

// SAFETY: the raw pointers are `inflight`, a node that is by invariant
// *private* to this handle whenever it is non-null (it is cleared the
// instant the node is published), and `stash`, whose nodes left the
// pool into this handle's exclusive ownership. Moving the handle moves
// that ownership.
unsafe impl<T: Send> Send for WfHandle<'_, T> {}

impl<'q, T: Send> WfHandle<'q, T> {
    pub(crate) fn new(
        queue: &'q WfQueue<T>,
        id: IdGuard<'q>,
        participant: Participant<'q>,
    ) -> Self {
        let tid = id.id();
        let n = queue.max_threads();
        WfHandle {
            queue,
            id,
            participant: ManuallyDrop::new(participant),
            stash: Stash::new(),
            cursor: (tid + 1) % n,
            // Any nonzero seed works; derive from the slot for variety.
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((tid as u64 + 1) << 17),
            max_fast_failures: queue.config.max_fast_failures,
            fast_streak: 0,
            local_stats: FastPathStats::default(),
            inflight: ptr::null_mut(),
            deq_in_flight: false,
            reap: ReapScan::new((tid + 1) % n, queue.config.reap_min_silence_ms),
        }
    }

    /// Overrides this handle's fast-path CAS-failure budget (the queue
    /// config's `max_fast_failures` is every handle's default). `0`
    /// pins the handle to the wait-free slow path. Lets tests and
    /// benches mix fast-path and slow-only handles on one queue.
    pub fn set_fast_path(&mut self, max_fast_failures: usize) {
        self.max_fast_failures = max_fast_failures;
    }

    /// This handle's fast/slow execution counters.
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.local_stats
    }

    /// This handle's virtual thread ID (index into the `state` array).
    pub fn tid(&self) -> usize {
        self.id.id()
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q WfQueue<T> {
        self.queue
    }

    /// Objects reclaimed so far through this handle's hazard record
    /// (diagnostics; proves reclamation happens without a GC).
    pub fn reclaimed(&self) -> usize {
        self.participant.reclaimed()
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: tiny, decent-quality generator; no external
        // dependency needed in the hot path.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A node ready to carry `value`: the next one of the stash —
    /// refilled by stealing the pool whole, and then trimmed to
    /// [`LOCAL_CAP`] — else a fresh heap node.
    fn alloc_node(&mut self, value: T, tid: usize) -> *mut Node<T> {
        let q = self.queue;
        let refill = self.stash.is_empty();
        let Some(node) = self.stash.take(&q.pool) else {
            Stats::bump(&q.stats.node_allocs);
            return Node::boxed(Some(value), tid);
        };
        if refill {
            self.stash.trim(LOCAL_CAP, &q.pool);
        }
        Stats::bump(&q.stats.node_reuses);
        // SAFETY: a pooled node is exclusively ours — both disposal
        // tokens proved no other thread can still reach it. The publish that follows in the caller (a SeqCst
        // descriptor store or append CAS) releases these writes to any
        // helper that reads the node.
        unsafe {
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*node).deq_tid.store(NO_DEQUEUER, Ordering::Relaxed);
            (*node).tokens.store(0, Ordering::Relaxed);
            (*node).enq_tid = tid;
            *(*node).value.get() = Some(value);
        }
        node
    }

    /// Applies the configured helping policy for an operation running at
    /// `phase`, then drives the handle's *own* operation to completion.
    fn run_help(&mut self, phase: i64, enqueue: bool) {
        let q = self.queue;
        let tid = self.tid();
        let n = q.max_threads();
        let (start, chunk) = match q.config.help {
            // Base algorithm: the L64/L101 `help(phase)` call. The scan
            // includes our own entry, so the operation is complete when
            // it returns.
            HelpPolicy::ScanAll => return q.help_all(&mut self.participant, phase, tid),
            // §3.3 optimization 1: examine `chunk` entries starting at
            // the cyclic cursor (in addition to our own entry).
            HelpPolicy::Cyclic { chunk } => {
                let start = self.cursor;
                self.cursor = (self.cursor + chunk) % n;
                (start, chunk)
            }
            // §3.3 alternative: random chunk (probabilistic
            // wait-freedom).
            HelpPolicy::RandomChunk { chunk } => ((self.next_rand() % n as u64) as usize, chunk),
        };
        for j in 0..chunk.min(n) {
            let i = (start + j) % n;
            if i != tid {
                q.help_index(&mut self.participant, i, phase, tid);
            }
        }
        // Under the chunked policies our own entry was not visited;
        // drive our own operation to completion.
        if enqueue {
            q.help_enq(&mut self.participant, tid, phase, tid);
        } else {
            q.help_deq(&mut self.participant, tid, phase, tid);
        }
    }

    /// True when this operation must skip the fast path because a
    /// peer's descriptor has been pending while we kept winning it.
    /// Peeks one `state` slot (at the cyclic help cursor) every
    /// `starvation_patience` consecutive fast completions; on a hit the
    /// caller demotes to the slow path, whose `Cyclic` help chunk
    /// starts at that very cursor — the demotion directly helps the
    /// starved peer.
    fn starvation_peek(&mut self) -> bool {
        let q = self.queue;
        let patience = q.config.starvation_patience;
        if patience == 0 || self.fast_streak < patience {
            return false;
        }
        self.fast_streak = 0;
        // Our own slot cannot starve us. SeqCst: this read gates a
        // helping obligation, exactly like `is_still_pending` — an
        // Acquire-stale idle word would let a fast handle overlook a
        // peer pending in the SC order.
        if self.cursor != self.tid() && q.state[self.cursor].view(Ordering::SeqCst).0.pending() {
            return true;
        }
        self.cursor = (self.cursor + 1) % q.max_threads();
        false
    }

    /// Operation prologue shared by every entry point: the
    /// reaper-protocol obligations of a live owner (DESIGN.md §13).
    /// One predictable branch when the reaper is disabled.
    ///
    /// # Panics
    ///
    /// Panics if this handle's lease was revoked by a reaper — the
    /// handle was presumed dead after staying silent for a peer's whole
    /// patience window (the lease contract). The handle is poisoned;
    /// the queue itself is unharmed and the virtual ID has already been
    /// (or is being) recycled.
    #[inline]
    fn op_prologue(&mut self) {
        let q = self.queue;
        if q.config.reap_patience == 0 {
            return;
        }
        assert!(
            self.id.lease_holds(),
            "kp-queue handle reaped: the handle stayed silent past the lease \
             patience window and its virtual ID was revoked (DESIGN.md §13)"
        );
        q.state[self.tid()].bump_beat();
    }

    /// Signals liveness without performing an operation. A handle that
    /// can go quiet for long stretches (while other threads keep
    /// operating) must call this — or complete an operation — at least
    /// once per peer patience window when the queue runs with
    /// [`Config::with_reaper`](crate::Config::with_reaper), or it will
    /// be presumed dead and reaped. No-op when the reaper is disabled.
    ///
    /// # Panics
    ///
    /// Panics if the lease was already revoked (see `enqueue`).
    pub fn keepalive(&mut self) {
        self.op_prologue();
    }

    /// Runs `op` as one call of the protocol: the reaper prologue, then
    /// `op` under an unwind guard, then the reap tick.
    ///
    /// If a panic escapes from anywhere inside the protocol (including
    /// the fast path and the fast→slow demotion window), recovery
    /// completes the published operation, reclaims any still-private
    /// node, and leaves both the descriptor and the handle reusable
    /// before the panic resumes.
    #[inline]
    fn run<X>(&mut self, op: impl FnOnce(&mut Self) -> X) -> X {
        self.op_prologue();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let x = op(self);
            self.reap_tick();
            x
        }));
        match result {
            Ok(x) => x,
            Err(payload) => {
                self.recover_after_unwind();
                resume_unwind(payload);
            }
        }
    }

    /// `enq(value)`, Figure 4 L61–66, preceded by the bounded fast path
    /// when enabled (DESIGN.md §12).
    ///
    /// # Panic safety
    ///
    /// The body runs under an unwind guard: a panic escaping from
    /// inside the protocol completes the published operation, reclaims
    /// any still-private node, and leaves the handle usable before the
    /// panic resumes.
    pub fn enqueue(&mut self, value: T) {
        chaos_hooks::op_begin();
        self.run(|h| h.enqueue_op(value));
        // A killed operation never gets here: op_end is deliberately
        // skipped so its partial step count is not reported.
        chaos_hooks::op_end();
    }

    /// `deq()`, Figure 6 L98–108, preceded by the bounded fast path
    /// when enabled (DESIGN.md §12). Returns `None` where the paper
    /// throws `EmptyException`.
    ///
    /// # Panic safety
    ///
    /// Unwind-guarded exactly like [`enqueue`]: a panic escaping from
    /// inside the protocol completes (and discards the result of) the
    /// published operation before resuming, leaving the handle usable.
    ///
    /// [`enqueue`]: Self::enqueue
    pub fn dequeue(&mut self) -> Option<T> {
        chaos_hooks::op_begin();
        let result = self.run(|h| h.dequeue_op());
        chaos_hooks::op_end();
        result
    }

    /// Enqueues every value of `batch` in order (the queue is unbounded,
    /// so nothing is ever refused), paying the per-call fixed costs —
    /// reaper prologue, unwind guard, reap tick — once
    /// for the whole batch instead of once per value. Each value is
    /// still its own operation of the protocol (own fast-path attempt
    /// or phase/descriptor publish), so the per-operation wait-freedom
    /// bound is unchanged; strictly the entry/exit overhead is
    /// amortized.
    ///
    /// Returns how many values were enqueued (always `batch.len()`).
    ///
    /// # Panic safety
    ///
    /// As [`enqueue`]: an unwind from inside the protocol completes the
    /// published operation before resuming. Values of the batch not yet
    /// submitted when the panic struck are dropped with the drain.
    ///
    /// [`enqueue`]: Self::enqueue
    pub fn enqueue_batch(&mut self, batch: &mut Vec<T>) -> usize {
        let n = batch.len();
        if n == 0 {
            return 0;
        }
        self.run(|h| {
            for value in batch.drain(..) {
                // The watchdog still sees one bounded operation per
                // value — batching must not relax the O(n) step budget.
                chaos_hooks::op_begin();
                h.enqueue_op(value);
                chaos_hooks::op_end();
            }
        });
        n
    }

    /// Dequeues up to `max` immediately available values into `out`,
    /// stopping at the first empty observation; returns how many were
    /// taken. The batched twin of [`enqueue_batch`]: per-call fixed
    /// costs are paid once, and each value is still its own bounded
    /// operation.
    ///
    /// [`enqueue_batch`]: Self::enqueue_batch
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        self.run(|h| {
            let mut taken = 0;
            while taken < max {
                chaos_hooks::op_begin();
                let value = h.dequeue_op();
                chaos_hooks::op_end();
                let Some(v) = value else { break };
                out.push(v);
                taken += 1;
            }
            taken
        })
    }

    /// One enqueue, fast path first when enabled.
    fn enqueue_op(&mut self, value: T) {
        if self.max_fast_failures > 0 {
            self.enqueue_fast_first(value);
        } else {
            self.slow_enqueue(value);
        }
    }

    /// One dequeue, fast path first when enabled.
    fn dequeue_op(&mut self) -> Option<T> {
        if self.max_fast_failures > 0 {
            self.dequeue_fast_first()
        } else {
            self.slow_dequeue()
        }
    }

    /// The fast prologue and its demotion edges, kept out of line
    /// (`#[inline(never)]`) so a `max_fast_failures == 0` build path
    /// keeps the pre-fast-path code shape of `enqueue` — inlining this
    /// into the entry point measurably perturbed slow-only codegen.
    #[inline(never)]
    fn enqueue_fast_first(&mut self, value: T) {
        let q = self.queue;
        if self.starvation_peek() {
            self.local_stats.fast_starvation_demotions += 1;
            Stats::bump(&q.stats.fast_starvation_demotions);
            // Demote to the slow path, which helps the starved peer
            // (its slot is at our help cursor).
            return self.slow_enqueue(value);
        }
        let node = self.alloc_node(value, FAST_ENQUEUER);
        // Track the private node for panic recovery until it is
        // published (append CAS or descriptor publish). The tracker
        // itself is passed down so the clear is not lost if an unwind
        // escapes after the publishing CAS.
        self.inflight = node;
        let budget = Some(self.max_fast_failures);
        if q.try_fast_enqueue(&mut self.participant, node, budget, &mut self.inflight) {
            self.fast_streak += 1;
            self.local_stats.fast_completions += 1;
            Stats::bump(&q.stats.fast_completions);
            Stats::bump(&q.stats.enqueues);
            return;
        }
        // Exhausted: every append CAS failed, so the node was never
        // published — it is still exclusively ours. Rebrand it with our
        // real tid and fall back to the wait-free slow path.
        self.fast_streak = 0;
        self.local_stats.fast_exhaustions += 1;
        Stats::bump(&q.stats.fast_exhaustions);
        // SAFETY: exclusive ownership (see above); helpers only read
        // `enq_tid` after the descriptor publish below, whose SeqCst
        // store releases this write.
        unsafe { (*node).enq_tid = self.tid() };
        inject!("kp.fast.demote");
        self.local_stats.slow_ops += 1;
        let phase = q.next_phase(); // L62
        self.slow_enqueue_publish(phase, node);
    }

    /// The slow path proper: Figure 4 L61–66 with a freshly prepared
    /// node.
    fn slow_enqueue(&mut self, value: T) {
        self.local_stats.slow_ops += 1;
        let phase = self.queue.next_phase(); // L62
        // The injection point sits before the node is prepared so a
        // simulated crash here leaks nothing: the value is still a plain
        // local, dropped by the unwind.
        inject!("kp.publish");
        let node = self.alloc_node(value, self.tid());
        self.slow_enqueue_publish(phase, node);
    }

    /// L63–65: publish the prepared node's descriptor and drive the
    /// enqueue to completion (shared by the slow path proper and the
    /// fast-path demotion).
    fn slow_enqueue_publish(&mut self, phase: i64, node: *mut Node<T>) {
        let q = self.queue;
        // L63: publish the operation descriptor — an in-place slot
        // store, not an allocation (see `StateSlot::publish`).
        q.state[self.tid()].publish(phase, node as usize, true);
        // Published: from here unwind recovery completes the operation
        // through the descriptor instead of reclaiming the node.
        self.inflight = ptr::null_mut();
        self.run_help(phase, true); // L64
        q.help_finish_enq(&mut self.participant); // L65 (see the paper's L65 argument)
        Stats::bump(&q.stats.enqueues);
    }

    /// The fast prologue and its demotion edges; out of line for the
    /// same codegen reason as [`enqueue_fast_first`].
    ///
    /// [`enqueue_fast_first`]: Self::enqueue_fast_first
    #[inline(never)]
    fn dequeue_fast_first(&mut self) -> Option<T> {
        let q = self.queue;
        if self.starvation_peek() {
            self.local_stats.fast_starvation_demotions += 1;
            Stats::bump(&q.stats.fast_starvation_demotions);
            return self.slow_dequeue();
        }
        if let FastDeq::Done(result) =
            q.try_fast_dequeue(&mut self.participant, self.max_fast_failures)
        {
            self.fast_streak += 1;
            self.local_stats.fast_completions += 1;
            Stats::bump(&q.stats.fast_completions);
            Stats::bump(&q.stats.dequeues);
            return result;
        }
        self.fast_streak = 0;
        self.local_stats.fast_exhaustions += 1;
        Stats::bump(&q.stats.fast_exhaustions);
        inject!("kp.fast.demote");
        self.slow_dequeue()
    }

    /// The slow path proper: Figure 6 L98–108.
    fn slow_dequeue(&mut self) -> Option<T> {
        let q = self.queue;
        self.local_stats.slow_ops += 1;
        let phase = q.next_phase(); // L99
        inject!("kp.publish");
        // L100: publish the operation descriptor (node = null).
        q.state[self.tid()].publish(phase, 0, false);
        // From publish until the epilogue claims the result, an unwind
        // leaves a dequeue whose value must still be taken-and-dropped.
        self.deq_in_flight = true;
        self.run_help(phase, false); // L101
        q.help_finish_deq(&mut self.participant); // L102
        Stats::bump(&q.stats.dequeues);
        let result = self.read_deq_result(); // L103–107
        self.deq_in_flight = false;
        result
    }

    /// The L103–107 epilogue: our completed word names the *value node*
    /// (the sentinel's successor that the step-2 CAS handed us, see
    /// `WfQueue::help_finish_deq`), or null for an empty result.
    ///
    /// Ordering: Acquire, not SeqCst. This reads our *own* slot after
    /// our operation completed; the completing transition (ours or a
    /// helper's SeqCst CAS that our `is_still_pending` loop already
    /// observed) happens-before this load via the SeqCst loop exit, and
    /// coherence forbids reading anything older. No helping decision
    /// hangs off this read.
    ///
    /// Liveness of the value node: head cannot leave the locked
    /// sentinel before step 2, so when the step-2 CAS named the value
    /// node it was still linked, hence not retired. After that, the
    /// node cannot be released to the pool or the allocator before both
    /// disposal tokens are set, and `TOKEN_CONSUMED` is set by our own
    /// `take_value` — after the take, however long ago the operation
    /// completed.
    ///
    /// Uniqueness of the take: the step-2 CAS writes the value node into
    /// exactly one completed dequeue word (the lock on its predecessor
    /// names one owner; version tags make racing step-2 writers
    /// idempotent), and only that word's owner runs this epilogue.
    fn read_deq_result(&self) -> Option<T> {
        let q = self.queue;
        let (w, _) = q.state[self.tid()].view(Ordering::Acquire);
        debug_assert!(!w.pending(), "operation must be complete");
        debug_assert!(!w.enqueue(), "descriptor must be ours (dequeue)");
        if w.node_is_null() {
            Stats::bump(&q.stats.empty_dequeues);
            return None; // L104–105: linearized on an empty queue
        }
        // SAFETY: liveness and uniqueness per the doc comment above.
        let value = unsafe { q.take_value(w.node_ptr()) };
        // Checked in release builds on purpose: with the reaper in the
        // picture, a claim-and-discard by `WfQueue::reap_slot` racing a
        // falsely-reaped (preempted, not dead) owner's epilogue would
        // make this second take return None — that must surface as a
        // panic, never as UB. The branch is perfectly predicted.
        Some(value.expect("value already taken: deq_tid uniqueness violated"))
    }

    /// One step of the abandoned-handle reaper (DESIGN.md §13), run
    /// after every [`TICK_STRIDE`](crate::reap::TICK_STRIDE)-th
    /// completed call when `Config::reap_patience > 0`. Examines
    /// exactly one peer slot; bounded work, so the enclosing operation
    /// stays wait-free.
    fn reap_tick(&mut self) {
        let q = self.queue;
        let patience = q.config.reap_patience;
        if patience == 0 || !self.reap.tick_due() {
            return;
        }
        let tid = self.tid();
        let n = q.max_threads();
        let v = self.reap.cursor();
        if v == tid {
            return self.reap.advance(n);
        }
        let Some(view) = q.ids.inspect(v) else {
            return self.reap.advance(n);
        };
        // The liveness snapshot. For a claimed slot: lease generation
        // (slot churn), heartbeat (owner-side progress), ctrl word with
        // its version tag (helper-side progress) and phase — SeqCst
        // view: the post-freeze `reap_slot` re-reads authoritatively, so
        // Acquire would do, but this is off the hot path and SeqCst
        // keeps the audit uniform with the other descriptor reads. For
        // a slot mid-reap, the reaper itself is watched; its only
        // progress signal is the lease generation.
        let obs = match view.state {
            SlotState::Free => return self.reap.advance(n),
            SlotState::Claimed => {
                let (ctrl, phase) = q.state[v].view(Ordering::SeqCst);
                let beat = q.state[v].load_beat();
                Observation::Claimed {
                    generation: view.generation,
                    beat,
                    ctrl,
                    phase,
                }
            }
            SlotState::Reaping => Observation::Reaping {
                generation: view.generation,
            },
        };
        if !self.reap.frozen(obs, patience) {
            return;
        }
        if let Observation::Claimed { .. } = obs {
            // Frozen for our whole patience window: revoke the lease.
            // The CAS fails iff the owner (or another reaper) moved the
            // slot since our snapshot — then it was not frozen after
            // all and we just move on.
            if q.ids.begin_reap(v, view.generation) {
                q.reap_slot(&mut self.participant, v, view.generation, tid);
            }
        } else if let Some(next_generation) = q.ids.takeover_reap(v, view.generation) {
            Stats::bump(&q.stats.reap_takeovers);
            q.reap_slot(&mut self.participant, v, next_generation, tid);
        }
        self.reap.advance(n);
    }

    /// Completes this handle's own published operation the way its
    /// owner would — a dequeue's result is claimed and discarded, so
    /// conservation stays exact (it counts as consumed by the departed
    /// caller) — and drives tail and head past any node of ours (unwind
    /// recovery and handle exit).
    fn finish_own_op(&mut self) {
        let q = self.queue;
        let tid = self.tid();
        let (w, phase) = q.state[tid].view(Ordering::SeqCst);
        if w.pending() {
            if w.enqueue() {
                q.help_enq(&mut self.participant, tid, phase, tid);
            } else {
                q.help_deq(&mut self.participant, tid, phase, tid);
                q.help_finish_deq(&mut self.participant);
                drop(self.read_deq_result());
            }
        } else if !w.enqueue() && self.deq_in_flight {
            // The dequeue completed (possibly via helpers) but the
            // unwind hit before the epilogue claimed the value.
            drop(self.read_deq_result());
        }
        self.deq_in_flight = false;
        // Even when our op is no longer pending, the tail may still sit
        // *before* our appended node (we died between enqueue steps 2
        // and 3). Helpers only swing the tail while the owner's
        // descriptor still references that node (the L91 identity
        // check), so an idle descriptor may be published only once the
        // tail is past it — one help_finish_enq call guarantees that.
        // The head needs no such gate (the L150 CAS is unconditional),
        // but we drive it too so the slot is left fully quiescent.
        q.help_finish_enq(&mut self.participant);
        q.help_finish_deq(&mut self.participant);
    }

    /// Restores the handle's invariants after a panic escaped from
    /// inside an operation. On return the descriptor is idle, no node
    /// is leaked or double-owned, no stale protection is left behind (a
    /// stale hazard would exclude its node from reclamation forever),
    /// and the handle is usable.
    #[cold]
    fn recover_after_unwind(&mut self) {
        // A still-private fast-path node: never published (the append
        // CAS clears the tracker the instant it succeeds, the slow
        // publish right after the descriptor store), so we are its
        // unique owner and nothing in the queue references it.
        let inflight = std::mem::replace(&mut self.inflight, ptr::null_mut());
        if !inflight.is_null() {
            // SAFETY: unique ownership per the tracker invariant above;
            // every node is a `Box` at birth, and its value drops with
            // it.
            drop(unsafe { Box::from_raw(inflight) });
        }
        self.finish_own_op();
        self.participant.clear(H_NODE);
        self.participant.clear(H_NEXT);
        self.fast_streak = 0;
    }

    /// Begins an operation but performs **no helping**, leaving the
    /// published descriptor pending — as if the thread stalled right
    /// after the paper's L63/L100. Test infrastructure for exercising
    /// the helping mechanism deterministically; not part of the public
    /// API surface.
    #[doc(hidden)]
    pub fn begin_enqueue_unhelped(&mut self, value: T) -> PendingOp<'_, 'q, T> {
        let node = self.alloc_node(value, self.tid());
        self.begin_unhelped(node as usize, true)
    }

    /// Dequeue counterpart of [`begin_enqueue_unhelped`].
    ///
    /// [`begin_enqueue_unhelped`]: Self::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn begin_dequeue_unhelped(&mut self) -> PendingOp<'_, 'q, T> {
        self.begin_unhelped(0, false)
    }

    fn begin_unhelped(&mut self, node: usize, enqueue: bool) -> PendingOp<'_, 'q, T> {
        let phase = self.queue.next_phase();
        self.queue.state[self.tid()].publish(phase, node, enqueue);
        PendingOp {
            handle: self,
            phase,
            enqueue,
            done: false,
        }
    }

    /// Performs a fast-path append and **skips the tail swing**: the
    /// shared state a thread killed at `fast.swing_tail` leaves behind
    /// when nothing runs its unwind recovery (sudden death). The value
    /// is linearized — the append CAS is the linearization point — but
    /// the tail lags until someone's `help_finish_enq` fixes it, which
    /// makes the *next* budget-1 fast enqueue demote deterministically.
    /// Test infrastructure, like [`begin_enqueue_unhelped`].
    ///
    /// [`begin_enqueue_unhelped`]: Self::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn fast_append_unswung(&mut self, value: T) {
        self.op_prologue();
        let node = self.alloc_node(value, FAST_ENQUEUER);
        let mut untracked = ptr::null_mut();
        self.queue
            .try_fast_enqueue(&mut self.participant, node, None, &mut untracked);
    }
}

impl<T: Send> QueueHandle<T> for WfHandle<'_, T> {
    fn enqueue(&mut self, value: T) {
        WfHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        WfHandle::dequeue(self)
    }

    fn try_enqueue_batch(&mut self, batch: &mut Vec<T>) -> usize {
        WfHandle::enqueue_batch(self, batch)
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        WfHandle::dequeue_batch(self, out, max)
    }

    fn fast_path_stats(&self) -> Option<FastPathStats> {
        Some(self.local_stats)
    }
}

impl<T: Send> Drop for WfHandle<'_, T> {
    fn drop(&mut self) {
        // §3.3 "dummy descriptor on exit". The ID must not return to the
        // pool while `state[tid]` still describes an unfinished
        // operation: a successor thread reusing the slot would replace
        // the descriptor, and if a helper had meanwhile appended the
        // orphaned enqueue node, no descriptor matching it would ever
        // exist again — `help_finish_enq` could then never swing the
        // tail past it (a total wedge). So: finish our own operation
        // exactly as the owner would, discard an unclaimed dequeue
        // result, and leave a pristine descriptor behind.
        let q = self.queue;
        let tid = self.tid();
        // Exit counts as an operation under the lease protocol: signal
        // liveness first, so a reaper part-way through accumulating
        // silence against this slot restarts its patience window and
        // cannot revoke the lease from under the cleanup below. The
        // shared (RMW) bump is required here: the slot may already have
        // been reaped and re-acquired, and the owner-only load+store
        // variant could swallow the successor's concurrent increment. A
        // stale bump itself is benign — the beat is pure liveness
        // signal, and at worst delays the successor's next reap by one
        // observation.
        if q.config.reap_patience != 0 {
            q.state[tid].bump_beat_shared();
        }
        // Reaped out from under us (a lease-contract violation on our
        // side): the reaper already drove the descriptor idle and the
        // slot may belong to a successor — touching `state[tid]` or
        // `tokens[tid]` now would corrupt *their* state, and
        // `IdGuard::drop`'s release CAS fails silently on the stale
        // generation. Only our private state is still ours.
        let live = self.id.lease_holds();
        if live {
            // Retract the record's token before completing our
            // operation: a reap racing this exit then finds no token,
            // and can never quarantine a record still in use.
            q.tokens[tid].store(0, Ordering::SeqCst);
            self.finish_own_op();
            // Fresh idle descriptor (version-bumped in place): the
            // slot's next owner starts from the same state a brand-new
            // slot has, and stale helper CASes against our old words
            // keep failing.
            q.state[tid].reset();
        }
        self.stash.give_back(&q.pool);
        if live {
            // SAFETY: dropped exactly once — the reaped path leaks the
            // quarantined record on purpose, and nothing touches the
            // `ManuallyDrop` afterwards. The participant clears its
            // slots and parks leftover retirees for adoption.
            unsafe { ManuallyDrop::drop(&mut self.participant) };
        }
        // `self.id` drops after this body, releasing the virtual ID —
        // only now that the state entry is helpable and self-contained.
    }
}

/// An in-flight operation started by `begin_enqueue_unhelped` or
/// `begin_dequeue_unhelped` — the owner is "stalled" and other threads'
/// operations may complete it through helping. Test infrastructure; it
/// models one stalled thread.
#[doc(hidden)]
pub struct PendingOp<'h, 'q, T: Send> {
    handle: &'h mut WfHandle<'q, T>,
    phase: i64,
    enqueue: bool,
    done: bool,
}

impl<T: Send> PendingOp<'_, '_, T> {
    /// True while the operation has not been linearized-and-acknowledged
    /// by anyone (owner or helper).
    pub fn is_pending(&self) -> bool {
        self.handle
            .queue
            .is_still_pending(self.handle.tid(), self.phase)
    }

    /// The phase number the operation was published with.
    pub fn phase(&self) -> i64 {
        self.phase
    }

    fn complete(&mut self) -> Option<T> {
        debug_assert!(!self.done);
        self.done = true;
        let h = &mut *self.handle;
        let q = h.queue;
        let tid = h.tid();
        if self.enqueue {
            q.help_enq(&mut h.participant, tid, self.phase, tid);
            q.help_finish_enq(&mut h.participant);
            Stats::bump(&q.stats.enqueues);
            None
        } else {
            q.help_deq(&mut h.participant, tid, self.phase, tid);
            q.help_finish_deq(&mut h.participant);
            Stats::bump(&q.stats.dequeues);
            h.read_deq_result()
        }
    }

    /// Resumes the stalled owner: completes the operation (help may
    /// already have done all the work) and returns the dequeued value,
    /// if this was a dequeue.
    pub fn finish(mut self) -> Option<T> {
        self.complete()
    }

    /// Walks away without completing: the descriptor stays pending, as
    /// if the owning thread died mid-operation. The handle's exit
    /// cleanup (its `Drop`) is then responsible for the abandoned
    /// operation — this is the test hook for the §3.3 "dummy descriptor
    /// on exit" path.
    pub fn abandon(mut self) {
        self.done = true;
    }
}

impl<T: Send> Drop for PendingOp<'_, '_, T> {
    fn drop(&mut self) {
        if !self.done {
            // The operation MUST be driven to completion before the
            // handle can be reused; a dequeued value, if any, is
            // discarded.
            drop(self.complete());
        }
    }
}
