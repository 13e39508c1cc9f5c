//! The wait-free queue proper: shared structure and helping machinery
//! (paper Figures 1, 2, 4 and 6), the fast path and the reaper.
//!
//! Line references in comments (`L62`, `L74`, …) are to the paper's Java
//! listings, so the transcription can be audited side by side.
//!
//! # Descriptor representation
//!
//! Unlike the paper's Java listing, `state[tid]` is not a pointer to a
//! heap-allocated `OpDesc` but an in-place [`StateSlot`]: a packed
//! control word plus a phase word, version-tagged so helper CASes
//! holding stale views fail (see `crate::desc` for the packing and its
//! invariants). Each slot is `CachePadded` so adjacent tids' owner
//! stores and helper scans do not false-share. A descriptor needs no
//! protection of its own: it is a word, read with one atomic load, so
//! only *nodes* take hazard slots.
//!
//! # Node protection
//!
//! Every node dereference below is of a node loaded through the
//! operating handle's `Participant::protect` in slot `H_NODE` (a head
//! or tail) or covered by `Participant::set` in slot `H_NEXT` and then
//! validated by re-reading its anchor (a successor); see
//! `crate::hazard`. The arguments below therefore rest on one fact: "a
//! node is retired only after head moves off it", and a retired node is
//! reused only once a hazard scan found it uncovered (and its dequeue
//! owner took the value).
//!
//! # Memory-ordering audit
//!
//! Loads that gate helping decisions or descriptor transitions must not
//! observe stale completed words — with node recycling, a stale
//! completed word can carry the *same fields* as the current pending one
//! and trigger the no-op skip — so those reads stay SeqCst; see each
//! site, the crate docs and DESIGN.md §11.

use std::ptr;

use ::hazard::{Domain, Participant};
use idpool::IdPool;
use kp_sync::atomic::{AtomicI64, AtomicPtr, AtomicUsize, Ordering};
use kp_sync::CachePadded;
use queue_traits::{ConcurrentQueue, RegistrationError};

use crate::chaos_hooks::inject;
use crate::config::{Config, PhasePolicy};
use crate::desc::StateSlot;
use crate::handle::WfHandle;
use crate::hazard::{self, reclaim_into_pool, H_NEXT, H_NODE, POOL_CAP};
use crate::node::{Node, FAST_DEQUEUER, FAST_ENQUEUER, NO_DEQUEUER};
use crate::pool::NodePool;
use crate::stats::{Stats, StatsSnapshot};

/// The Kogan–Petrank wait-free MPMC FIFO queue, with hazard-pointer
/// reclamation (paper §3.4): both the queue operations *and* memory
/// management are wait-free.
///
/// See the [crate documentation](crate) for the algorithm overview and
/// the paper-variant table. Construct with `new` (default
/// `opt WF (1+2)` configuration) or `with_config`, then call
/// [`register`](ConcurrentQueue::register) from each participating
/// thread.
pub struct WfQueue<T> {
    pub(crate) head: CachePadded<AtomicPtr<Node<T>>>,
    pub(crate) tail: CachePadded<AtomicPtr<Node<T>>>,
    /// One reusable descriptor slot per virtual thread ID (`state` in
    /// Figure 1), padded to its own cache line.
    pub(crate) state: Box<[CachePadded<StateSlot>]>,
    /// Monotone phase source under `PhasePolicy::AtomicCounter` (§3.3).
    phase_counter: CachePadded<AtomicI64>,
    /// Virtual thread IDs (§3.3 long-lived renaming).
    pub(crate) ids: IdPool,
    /// Per-tid hazard-record token of the slot's current handle, for
    /// the reaper to quarantine a dead owner's record (DESIGN.md §13).
    /// Published at registration, retracted at exit; `0` = none.
    pub(crate) tokens: Box<[CachePadded<AtomicUsize>]>,
    pub(crate) config: Config,
    pub(crate) stats: Stats,
    /// The hazard domain (two slots per handle). Declared before `pool`
    /// so it drops first: its drop reclaims leftover retirees into the
    /// pool.
    pub(crate) domain: Domain,
    /// Reclaimed nodes, stolen by handles' enqueues. Boxed so the
    /// address the reclaim callbacks are handed survives a move of the
    /// queue.
    pub(crate) pool: Box<NodePool<Node<T>>>,
}

// SAFETY: all cross-thread traffic goes through atomics. The only
// non-atomic shared data is each node's payload (written before the
// node is published and taken exactly once by the unique dequeue owner
// — see `WfHandle::read_deq_result`) and each node's `enq_tid`
// (rewritten only while the node is exclusively owned, before
// republication — see `WfHandle::alloc_node`).
unsafe impl<T: Send> Send for WfQueue<T> {}
// SAFETY: as for Send.
unsafe impl<T: Send> Sync for WfQueue<T> {}

impl<T: Send> WfQueue<T> {
    /// Creates a queue for at most `max_threads` simultaneously
    /// registered handles, with the default (`opt WF (1+2)`) config.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, Config::default())
    }

    /// Creates a queue with an explicit algorithm [`Config`].
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero or a chunked help policy has a
    /// zero chunk.
    pub fn with_config(max_threads: usize, config: Config) -> Self {
        assert!(max_threads > 0, "max_threads must be positive");
        if let crate::HelpPolicy::Cyclic { chunk } | crate::HelpPolicy::RandomChunk { chunk } =
            config.help
        {
            assert!(chunk > 0, "help chunk must be positive");
        }
        // Queue constructor, L27–35.
        let sentinel = Node::sentinel();
        WfQueue {
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            state: (0..max_threads)
                .map(|_| CachePadded::new(StateSlot::initial()))
                .collect(),
            phase_counter: CachePadded::new(AtomicI64::new(0)),
            ids: IdPool::new(max_threads),
            tokens: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            config,
            stats: Stats::default(),
            domain: Domain::new(H_NEXT + 1),
            pool: Box::new(NodePool::new(config.reuse_nodes, POOL_CAP)),
        }
    }

    /// The configuration this queue runs with.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Maximum number of simultaneously registered handles
    /// (`NUM_THRDS` in the paper).
    pub fn max_threads(&self) -> usize {
        self.state.len()
    }

    /// A copy of the queue's helping statistics. `cache_overflows` is
    /// the shared pool's over-cap frees (counted pool-side, because
    /// hazard reclaim callbacks cannot reach `Stats`).
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            cache_overflows: self.pool.overflows(),
            ..self.stats.snapshot()
        }
    }

    /// True if the queue is observed empty: `head.next` read under a
    /// hazard held by a short-lived participant, so the sentinel cannot
    /// be reclaimed under the read however many handles run.
    ///
    /// Ordering relaxation: Acquire, not SeqCst. The result is advisory
    /// — it participates in no helping decision and no proof obligation.
    pub fn is_empty(&self) -> bool {
        let p = self.domain.enter();
        let first = p.protect(H_NODE, &self.head);
        // SAFETY: head is never null, and `first` is protected.
        unsafe { (*first).next.load(Ordering::Acquire) }.is_null()
    }

    /// Number of elements: an O(n) walk of the list. The exclusive
    /// borrow proves quiescence (no handle is registered, so nothing is
    /// unlinked or retired under the walk).
    pub fn len_approx(&mut self) -> usize {
        let mut n = 0;
        // SAFETY: exclusive access; head is never null and every linked
        // node is owned by the list.
        let mut cur = unsafe { (**self.head.get_mut()).next.load(Ordering::Relaxed) };
        while !cur.is_null() {
            n += 1;
            // SAFETY: as above.
            cur = unsafe { (*cur).next.load(Ordering::Relaxed) };
        }
        n
    }

    // ------------------------------------------------------------------
    // Auxiliary methods (Figure 2)
    // ------------------------------------------------------------------

    /// `maxPhase()`, L48–57.
    ///
    /// The phase loads stay SeqCst: this scan is the doorway of the
    /// Bakery-style phase protocol. Its wait-freedom argument (Lemma 1)
    /// needs every phase chosen before our scan started to be visible
    /// to the scan, which the SC total order gives and Acquire would
    /// not (an Acquire load may return any value not older than the
    /// last one *this* thread saw).
    pub(crate) fn max_phase(&self) -> i64 {
        Stats::bump(&self.stats.phase_scans);
        let mut max = -1;
        for slot in self.state.iter() {
            max = max.max(slot.load_phase(Ordering::SeqCst));
        }
        max
    }

    /// Phase selection: `maxPhase() + 1` (L62/L99) or the §3.3 atomic
    /// counter.
    pub(crate) fn next_phase(&self) -> i64 {
        match self.config.phase {
            PhasePolicy::MaxScan => self.max_phase() + 1,
            PhasePolicy::AtomicCounter => self.phase_counter.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// `isStillPending(tid, ph)`, L58–60.
    ///
    /// SeqCst on the ctrl load: this read gates the helping obligation.
    /// Under Acquire a helper could keep reading a stale pre-publish
    /// word for an operation that is pending in the SC order and
    /// decline to help it, undermining the bounded-helping argument
    /// (Lemma 2's "every pending op with a small enough phase gets
    /// helped").
    pub(crate) fn is_still_pending(&self, tid: usize, ph: i64) -> bool {
        let (w, phase) = self.state[tid].view(Ordering::SeqCst);
        w.pending() && phase <= ph
    }

    /// `help(phase)`, L36–47: scan the whole state array and help every
    /// pending operation no younger than `ph`.
    pub(crate) fn help_all(&self, p: &mut Participant<'_>, ph: i64, helper: usize) {
        for i in 0..self.state.len() {
            self.help_index(p, i, ph, helper);
        }
    }

    /// One iteration of the `help()` scan body (L38–45), also used by
    /// the chunked §3.3 policies. The ctrl load is SeqCst for the same
    /// helping-obligation reason as [`is_still_pending`].
    ///
    /// [`is_still_pending`]: Self::is_still_pending
    pub(crate) fn help_index(&self, p: &mut Participant<'_>, i: usize, ph: i64, helper: usize) {
        let (w, phase) = self.state[i].view(Ordering::SeqCst);
        if w.pending() && phase <= ph {
            if i != helper {
                Stats::bump(&self.stats.help_calls);
            }
            if w.enqueue() {
                self.help_enq(p, i, ph, helper);
            } else {
                self.help_deq(p, i, ph, helper);
            }
        }
    }

    /// Retires a sentinel just unlinked by a head CAS through the
    /// node's token gate, so the dequeue owner's hazard-free epilogue
    /// dereference stays safe.
    fn retire(&self, p: &mut Participant<'_>, node: *mut Node<T>) {
        let ctx = (&*self.pool as *const NodePool<Node<T>>).cast_mut().cast();
        // SAFETY: every caller is the unique winner of the head CAS that
        // unlinked `node`, so it is retired exactly once; `ctx` outlives
        // every reclaim (the pool Box drops after the domain — field
        // order above).
        unsafe { p.retire_with(node.cast(), ctx, reclaim_into_pool::<T>) };
    }

    /// Takes the value out of a completed dequeue's value node and sets
    /// the taker's token of its disposal gate (which may then release
    /// the node).
    ///
    /// # Safety
    ///
    /// `node` is allocated, and the caller is the unique taker of its
    /// value: the dequeue owner, a fast dequeuer whose lock won, or the
    /// reaper that won the retire election.
    pub(crate) unsafe fn take_value(&self, node: *mut Node<T>) -> Option<T> {
        // SAFETY: caller contract; the enqueuer's write is ordered
        // before by the release/acquire chain through the list links
        // and the descriptor word.
        let value = unsafe { (*(*node).value.get()).take() };
        // SAFETY: as above — the unique taker reports once.
        unsafe { hazard::consumed(&self.pool, node) };
        value
    }

    // ------------------------------------------------------------------
    // enqueue machinery (Figure 4)
    // ------------------------------------------------------------------

    /// `help_enq(tid, phase)`, L67–84: drive thread `tid`'s pending
    /// enqueue until it is linearized (step 1 of the scheme: append the
    /// node at the end of the list).
    pub(crate) fn help_enq(&self, p: &mut Participant<'_>, tid: usize, ph: i64, helper: usize) {
        while self.is_still_pending(tid, ph) {
            let last = p.protect(H_NODE, &self.tail); // L69
            // SAFETY: protected; tail is never null, and a node is
            // retired only after head moves off it, which cannot happen
            // while it is still the tail.
            let next = unsafe { (*last).next.load(Ordering::SeqCst) }; // L70
            if last != self.tail.load(Ordering::SeqCst) {
                continue; // L71 failed
            }
            if next.is_null() {
                // L72–74: append the owner's node. Reading the slot once
                // and using its own fields is equivalent to the paper's
                // repeated `state.get(tid)` reads: if the descriptor
                // changed, the owner's node was already appended, which
                // makes `last.next` non-null and the CAS below fail (the
                // dangling-node invariant, §3.1). Node recycling does not
                // weaken this: while `last` is protected it cannot be
                // reclaimed and reused, so its `next` is write-once
                // during the window — CAS success proves no append
                // happened since our slot read, hence the node we read
                // was never appended, retired or recycled. SeqCst keeps
                // the read coherent with the pending check above.
                let (w, phase) = self.state[tid].view(Ordering::SeqCst);
                if w.pending() && phase <= ph && w.enqueue() {
                    inject!("kp.append");
                    // SAFETY: `last` is protected.
                    let appended = unsafe {
                        (*last).next.compare_exchange(
                            ptr::null_mut(),
                            w.node_ptr(),
                            Ordering::SeqCst,
                            Ordering::Relaxed,
                        )
                    }
                    .is_ok();
                    if appended {
                        // L74 succeeded: the operation is linearized.
                        Stats::bump(&self.stats.appends_total);
                        if helper != tid {
                            Stats::bump(&self.stats.helped_appends);
                        }
                        self.help_finish_enq(p); // L75
                        return;
                    }
                }
            } else {
                // L79–80: some enqueue is in progress; finish it first.
                self.help_finish_enq(p);
            }
        }
    }

    /// `help_finish_enq()`, L85–97: steps 2 and 3 of the scheme — clear
    /// the owner's `pending` flag, then swing `tail` to the appended
    /// node.
    pub(crate) fn help_finish_enq(&self, p: &mut Participant<'_>) {
        let last = p.protect(H_NODE, &self.tail); // L86
        // SAFETY: protected, as in `help_enq`.
        let next = unsafe { (*last).next.load(Ordering::SeqCst) }; // L87
        if next.is_null() {
            return;
        }
        // Cover `next` before dereferencing: while `last` is still the
        // tail, head ≤ last < next, so `next` cannot have been retired.
        p.set(H_NEXT, next);
        if self.tail.load(Ordering::SeqCst) == last {
            // SAFETY: covered and validated above.
            let tid = unsafe { (*next).enq_tid }; // L89: owner of the dangling node
            if tid == FAST_ENQUEUER {
                // Fast-path node: there is no descriptor to complete
                // (the append CAS both linearized and acknowledged the
                // operation), so step 2 — and the L91 descriptor
                // identity check, which could never pass — is skipped.
                // The tail CAS from `last` re-validates by itself.
                inject!("kp.swing_tail");
                let _ = self
                    .tail
                    .compare_exchange(last, next, Ordering::SeqCst, Ordering::Relaxed);
            } else {
                debug_assert!(
                    tid < self.state.len(),
                    "dangling node must carry a valid enqueuer tid"
                );
                // L90. SeqCst is required here, not Acquire: with node
                // recycling an Acquire load may return an *old* completed
                // word of a previous operation that reused the same node
                // — its fields ({pending: false, enqueue, node == next})
                // equal the transition target, so `cas_ctrl`'s no-op skip
                // would report step 2 done and we would swing the tail
                // while the real current word is still pending, wedging
                // the owner. SeqCst excludes this: this load is SC-after
                // our `next` read, which is SC-after the append CAS,
                // which is SC-after the owner's publish of the *current*
                // word.
                let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
                // L91: `last` still tail and the owner's descriptor still
                // refers to the dangling node (guards against a racing
                // help_finish_enq having already completed a *different*
                // operation of the same thread).
                if self.tail.load(Ordering::SeqCst) == last && cur.node_addr() == next as usize {
                    inject!("kp.clear_pending.enq");
                    // §3.3 enhancement: skip the descriptor CAS when the
                    // flag is already off (a racing helper beat us).
                    if !self.config.validate_before_cas || cur.pending() {
                        // L92–93: step 2 — acknowledge linearization (a
                        // version-tagged in-place transition; phase kept).
                        self.state[tid].cas_ctrl(cur, next as usize, false, true);
                    }
                    inject!("kp.swing_tail");
                    // L94: step 3 — fix tail. At most one of the racing
                    // CASes succeeds; the others see tail already moved.
                    let _ =
                        self.tail
                            .compare_exchange(last, next, Ordering::SeqCst, Ordering::Relaxed);
                }
            }
        }
        p.clear(H_NEXT);
    }

    // ------------------------------------------------------------------
    // dequeue machinery (Figure 6)
    // ------------------------------------------------------------------

    /// `help_deq(tid, phase)`, L109–140: drive thread `tid`'s pending
    /// dequeue until it is linearized (either the sentinel is locked
    /// with `tid`, or the queue is observed empty).
    pub(crate) fn help_deq(&self, p: &mut Participant<'_>, tid: usize, ph: i64, helper: usize) {
        while self.is_still_pending(tid, ph) {
            let first = p.protect(H_NODE, &self.head); // L111
            let last = self.tail.load(Ordering::SeqCst); // L112
            // SAFETY: protected; head is never null.
            let next = unsafe { (*first).next.load(Ordering::SeqCst) }; // L113
            if self.head.load(Ordering::SeqCst) != first {
                continue; // L114 failed: restart
            }
            if first == last {
                // L115: queue might be empty.
                if next.is_null() {
                    // L116: queue is empty.
                    // L117: SeqCst — this read must be SC-after the
                    // emptiness observation; combined with the
                    // phase-before-ctrl publish order it guarantees we
                    // never complete a dequeue as "empty" using an
                    // emptiness observation that predates the dequeue's
                    // phase selection (the L117–119 doorway guard).
                    let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                    if self.tail.load(Ordering::SeqCst) == last && cur.pending() && phase <= ph {
                        inject!("kp.clear_pending.deq_empty");
                        // L118–120: record the empty result (node =
                        // null) and clear pending. Transition failure
                        // means another helper resolved the operation.
                        self.state[tid].cas_ctrl(cur, 0, false, false);
                    }
                } else {
                    // L122–123: an enqueue is in progress; help it first.
                    self.help_finish_enq(p);
                }
            } else {
                // L125: queue is not empty. L126: SeqCst for the same
                // helping-correctness reasons as L117/L146.
                let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                if !(cur.pending() && phase <= ph) {
                    break; // L128
                }
                // L129–134: stage 0 — point the owner's descriptor at the
                // current sentinel, so helpers racing between the empty
                // and non-empty paths agree on which node the operation
                // is about to remove.
                if self.head.load(Ordering::SeqCst) == first && cur.node_addr() != first as usize {
                    inject!("kp.bind_sentinel");
                    if !self.state[tid].cas_ctrl(cur, first as usize, true, false) {
                        continue; // L132: descriptor changed; restart
                    }
                }
                inject!("kp.lock_sentinel");
                // L135: step 1 — lock the sentinel with the owner's tid
                // (linearization point of a successful dequeue).
                // SAFETY: `first` is still protected.
                let locked = unsafe {
                    (*first).deq_tid.compare_exchange(
                        NO_DEQUEUER,
                        tid as isize,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                }
                .is_ok();
                if locked {
                    Stats::bump(&self.stats.locks_total);
                    if helper != tid {
                        Stats::bump(&self.stats.helped_locks);
                    }
                }
                // L136: complete whichever dequeue locked the sentinel.
                self.help_finish_deq(p);
            }
        }
    }

    /// `help_finish_deq()`, L141–153: steps 2 and 3 — clear the locking
    /// owner's `pending` flag, then swing `head` past the sentinel.
    ///
    /// Step 2 hands the owner its value: the completed word names `next`
    /// — the *value node*, about to become the new sentinel — instead of
    /// couriering the value through a descriptor (§3.4's suggestion; a
    /// packed word cannot carry a `T`). The owner takes the value out of
    /// that node in `WfHandle::read_deq_result`.
    pub(crate) fn help_finish_deq(&self, p: &mut Participant<'_>) {
        let first = p.protect(H_NODE, &self.head); // L142
        // SAFETY: protected.
        let next = unsafe { (*first).next.load(Ordering::SeqCst) }; // L143
        // Cover `next` before the head swing: while `first` is still the
        // head, `next` cannot have been retired (head must pass `first`
        // before it can pass `next`).
        p.set(H_NEXT, next);
        if self.head.load(Ordering::SeqCst) == first && !next.is_null() {
            // SAFETY: `first` is protected.
            let tid = unsafe { (*first).deq_tid.load(Ordering::SeqCst) }; // L144
            if tid == FAST_DEQUEUER {
                // Fast-locked sentinel: the `deqTid` CAS both linearized
                // the dequeue and made the fast dequeuer the unique value
                // taker, so step 2 is skipped. Step 3 and the
                // winner-retires rule are unchanged.
                inject!("kp.swing_head");
                self.swing_head(p, first, next);
            } else if tid != NO_DEQUEUER {
                // A locked sentinel was observed: the window between
                // dequeue steps 1 and 2.
                inject!("kp.clear_pending.deq");
                let tid = tid as usize;
                // L146: SeqCst — symmetric to the L90 argument: an
                // Acquire-stale completed word of an *older* dequeue that
                // was handed the same recycled node would no-op-skip
                // step 2 and let us swing head with the current
                // operation still pending.
                let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
                // L147. All step-2 racers compute the same `next`: they
                // all validated `first` as head while protecting it, and
                // a protected node's `next` is write-once.
                if self.head.load(Ordering::SeqCst) == first {
                    if !self.config.validate_before_cas || cur.pending() {
                        // L148–149: step 2 — acknowledge linearization
                        // and hand the owner its value node.
                        self.state[tid].cas_ctrl(cur, next as usize, false, false);
                    }
                    inject!("kp.swing_head");
                    self.swing_head(p, first, next); // L150
                }
            }
        }
        p.clear(H_NEXT);
    }

    /// Step 3 of a dequeue (L150): fix head. At most one racing CAS
    /// wins, and the winner alone retires the unlinked sentinel (§3.4's
    /// "RetireNode at the end of help_deq" point).
    fn swing_head(&self, p: &mut Participant<'_>, first: *mut Node<T>, next: *mut Node<T>) {
        if self
            .head
            .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            self.retire(p, first);
        }
    }

    // ------------------------------------------------------------------
    // abandoned-handle reaping (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Executes a reap of `victim`'s slot. The caller has already won
    /// reap rights at lease `generation` — via `IdPool::begin_reap`
    /// (fresh reap) or `IdPool::takeover_reap` (adopting a reap whose
    /// reaper itself went silent). Wait-free: every phase below is a
    /// bounded helping call or a single CAS.
    ///
    /// The sequence is: adopt the victim's pending operation through
    /// the ordinary helping machinery, drive tail/head past any node of
    /// the victim's (the L91 wedge — helpers can only swing the tail
    /// while the owner's descriptor still references the dangling node,
    /// so the slot must not be retired before the tail passed it), win
    /// the [`StateSlot::try_retire`] election, and only as the election
    /// winner perform the two destructive steps: claim-and-discard an
    /// unclaimed dequeue result, and quarantine the victim's leaked
    /// hazard record. Finally the lease is returned to the pool
    /// (`finish_reap`), making the virtual ID acquirable again.
    ///
    /// [`StateSlot::try_retire`]: crate::desc::StateSlot::try_retire
    pub(crate) fn reap_slot(
        &self,
        p: &mut Participant<'_>,
        victim: usize,
        generation: u64,
        helper: usize,
    ) {
        inject!("kp.reap.adopt");
        let (w0, phase0) = self.state[victim].view(Ordering::SeqCst);
        let was_pending = w0.pending();
        if was_pending {
            Stats::bump(&self.stats.reap_adoptions);
            if w0.enqueue() {
                self.help_enq(p, victim, phase0, helper);
            } else {
                self.help_deq(p, victim, phase0, helper);
            }
        }
        // The L91 wedge: the tail must move past any node the victim's
        // descriptor references before the descriptor may be blanked
        // (same argument as `WfHandle::drop`). Head driven for symmetry.
        self.help_finish_enq(p);
        self.help_finish_deq(p);
        inject!("kp.reap.retire");
        let w1 = self.state[victim].load_ctrl(Ordering::SeqCst);
        if w1.pending() {
            // Only reachable if the "dead" owner published a new
            // operation after its lease was revoked — a lease-contract
            // violation (DESIGN.md §13). Leave the slot alone; the
            // lease stays in `Reaping` so the id is at least not
            // handed out while the violator still uses the descriptor.
            debug_assert!(false, "victim republished after lease revocation");
            return;
        }
        if self.state[victim].try_retire(w1) {
            // Election won: we alone own the destructive steps. A
            // stalled co-reaper that read the same word loses the CAS
            // and skips both.
            if was_pending && !w1.enqueue() && !w1.node_is_null() {
                // The victim died mid-dequeue and the operation
                // completed non-empty during *this* reap. Nobody will
                // ever run the owner's epilogue: claim and discard the
                // value so conservation stays exact.
                //
                // SAFETY: `w1` names the value node the step-2 CAS handed
                // the victim during this reap (we saw the word pending),
                // so the node is allocated by the argument of
                // `WfHandle::read_deq_result`, with this reap standing in
                // for the owner's operation scope. The try_retire
                // election makes us the unique claimant.
                let value = unsafe { self.take_value(w1.node_ptr()) };
                debug_assert!(value.is_some(), "reaped dequeue result already taken");
                drop(value);
            }
            // Taken exactly once (zeroing the slot), so a later reap of
            // this slot's next lease cannot act on a stale token.
            let token = self.tokens[victim].swap(0, Ordering::SeqCst);
            // SAFETY: the lease revocation (begin_reap/takeover) poisons
            // the victim handle — its next operation panics before
            // touching the queue, and a reaped handle's exit leaks its
            // record instead of touching it — and we won the election.
            if unsafe { self.domain.quarantine(token) } {
                Stats::bump(&self.stats.quarantines);
            }
        }
        inject!("kp.reap.finish");
        if self.ids.finish_reap(victim, generation) {
            Stats::bump(&self.stats.reaps);
        }
    }

    // ------------------------------------------------------------------
    // fast path (no descriptor, no phase, no helping obligation —
    // the bounded lock-free Michael–Scott loop of the 2012
    // fast-path/slow-path methodology; see DESIGN.md §12)
    // ------------------------------------------------------------------

    /// Bounded lock-free enqueue attempt. `node` is still private to
    /// the caller and carries `enq_tid == FAST_ENQUEUER`; at most
    /// `budget` loop iterations run (the handle's — possibly
    /// per-handle-overridden — `max_fast_failures`). Returns `true` once
    /// the append CAS — the same linearization point as the slow path's
    /// L74 — succeeds. `false` means every iteration lost to a
    /// concurrent operation (each failure proves one succeeded, which
    /// bounds the loop by global progress), leaving `node` private so
    /// the caller can demote it to the slow path. With `budget` `None`
    /// the loop runs until the append lands and skips the step-3 tail
    /// swing: the test fixture behind `WfHandle::fast_append_unswung`.
    ///
    /// `inflight` is the caller's panic-recovery tracker for the
    /// private node: it is cleared the instant the append CAS publishes
    /// the node, so an unwind landing after publication (e.g. at the
    /// `fast.swing_tail` chaos site) cannot double-free it.
    pub(crate) fn try_fast_enqueue(
        &self,
        p: &mut Participant<'_>,
        node: *mut Node<T>,
        budget: Option<usize>,
        inflight: &mut *mut Node<T>,
    ) -> bool {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        for _ in 0..budget.unwrap_or(usize::MAX) {
            inject!("kp.fast.enq");
            let last = p.protect(H_NODE, &self.tail);
            // SAFETY: protected, as in `help_enq` — its `next` is
            // write-once during the window below.
            let next = unsafe { (*last).next.load(Ordering::SeqCst) };
            if self.tail.load(Ordering::SeqCst) != last {
                continue;
            }
            if !next.is_null() {
                // Tail lags behind a dangling node (fast or slow):
                // finish that enqueue first, exactly like L79–80 — this
                // keeps a slow-path append's step-2-before-step-3 order
                // intact when fast ops race it.
                self.help_finish_enq(p);
                continue;
            }
            // SAFETY: `last` is protected.
            let appended = unsafe {
                (*last).next.compare_exchange(
                    ptr::null_mut(),
                    node,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
            }
            .is_ok();
            if appended {
                // Linearized (the shared L74 append point); the node is
                // public now — recovery must not free it.
                *inflight = ptr::null_mut();
                Stats::bump(&self.stats.appends_total);
                if budget.is_none() {
                    p.clear(H_NODE);
                    return true;
                }
                inject!("kp.fast.swing_tail");
                // Step 3, best effort: any helper's help_finish_enq
                // (FAST_ENQUEUER branch) also swings the tail past us.
                let _ = self
                    .tail
                    .compare_exchange(last, node, Ordering::SeqCst, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Bounded lock-free dequeue attempt. Linearizes either empty (the
    /// Michael–Scott `head == tail && next == null` check, head-
    /// validated) or by CASing the sentinel's `deqTid` from
    /// `NO_DEQUEUER` to `FAST_DEQUEUER` — the same lock word slow-path
    /// dequeues use (L135), so the two paths serialize on the
    /// sentinel: a slow-path stage-1 lock blocks the fast path and
    /// vice versa. Lock success proves the sentinel was never dequeued
    /// and hence is still the head, making the value transfer uniquely
    /// ours.
    pub(crate) fn try_fast_dequeue(&self, p: &mut Participant<'_>, budget: usize) -> FastDeq<T> {
        for _ in 0..budget {
            inject!("kp.fast.deq");
            let first = p.protect(H_NODE, &self.head);
            let last = self.tail.load(Ordering::SeqCst);
            // SAFETY: protected; head is never null.
            let next = unsafe { (*first).next.load(Ordering::SeqCst) };
            // Cover `next` before any dereference: while `first` is
            // still the head, `next` cannot have been retired.
            p.set(H_NEXT, next);
            if self.head.load(Ordering::SeqCst) != first {
                p.clear(H_NEXT);
                continue;
            }
            if first == last {
                p.clear(H_NEXT);
                if next.is_null() {
                    // Empty: linearizes at the `next` load above (the
                    // L115–120 shape without a descriptor record).
                    Stats::bump(&self.stats.empty_dequeues);
                    return FastDeq::Done(None);
                }
                // An enqueue is mid-flight; help it land (L122–123).
                self.help_finish_enq(p);
                continue;
            }
            // SAFETY: `first` is protected.
            let locked = unsafe {
                (*first).deq_tid.compare_exchange(
                    NO_DEQUEUER,
                    FAST_DEQUEUER,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
            }
            .is_ok();
            if !locked {
                // Lost the lock to a concurrent dequeue (fast or slow):
                // complete it so head advances, then retry.
                p.clear(H_NEXT);
                self.help_finish_deq(p);
                continue;
            }
            // Step 1 won: the dequeue is linearized.
            Stats::bump(&self.stats.locks_total);
            // SAFETY: `next` is covered and was validated while `first`
            // was still the head; the lock made us the unique taker of
            // its value (a node's value is taken exactly once, by
            // whoever locks its predecessor).
            let taken = unsafe { self.take_value(next) };
            // Checked in release builds on purpose: an invariant break
            // here (e.g. a reap-path double-take) must panic, never
            // become UB. The branch is perfectly predicted.
            let value = taken.expect("fast-locked sentinel's successor must hold a value");
            inject!("kp.fast.swing_head");
            // Step 3, best effort: a helper's help_finish_deq
            // (FAST_DEQUEUER branch) also swings.
            self.swing_head(p, first, next);
            p.clear(H_NEXT);
            return FastDeq::Done(Some(value));
        }
        FastDeq::Exhausted
    }
}

/// Outcome of a bounded fast-path dequeue attempt.
pub(crate) enum FastDeq<T> {
    /// The dequeue linearized on the fast path.
    Done(Option<T>),
    /// The CAS-failure budget is exhausted; the caller falls back to
    /// the wait-free slow path.
    Exhausted,
}

impl<T: Send> ConcurrentQueue<T> for WfQueue<T> {
    type Handle<'a>
        = WfHandle<'a, T>
    where
        T: 'a;

    fn register(&self) -> Result<Self::Handle<'_>, RegistrationError> {
        match self.ids.acquire() {
            Some(id) => {
                // The record's token is published before the handle can
                // operate: if this handle dies, a reaper quarantines the
                // record through it so its hazards stop blocking
                // reclamation.
                let participant = self.domain.enter();
                self.tokens[id.id()].store(participant.record_token(), Ordering::SeqCst);
                Ok(WfHandle::new(self, id, participant))
            }
            None => Err(RegistrationError {
                capacity: self.max_threads(),
            }),
        }
    }

    fn thread_capacity(&self) -> usize {
        self.max_threads()
    }

    /// Derived from the operation counters (three relaxed loads), so
    /// it costs nothing the counters don't already.
    fn depth_hint(&self) -> Option<usize> {
        Some(self.stats.depth())
    }

    fn drained_hint(&self) -> Option<u64> {
        Some(self.stats.drained())
    }

    /// The memory-pressure signal: the pool's over-cap frees, as in
    /// `stats()`.
    fn pressure_hint(&self) -> u64 {
        self.pool.overflows()
    }
}

impl<T> Drop for WfQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: free the node list (values still resident
        // drop with their nodes; consumed ones are `None`). Descriptors
        // are in-place slot words — nothing to free. Retired nodes
        // belong to the hazard domain, pooled ones to the pool; both
        // drop after this body, in that order.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; list nodes are owned by the list.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

impl<T: Send> std::fmt::Debug for WfQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfQueue")
            .field("max_threads", &self.max_threads())
            .field("config", &self.config)
            .finish()
    }
}
