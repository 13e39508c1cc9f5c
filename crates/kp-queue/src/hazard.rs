//! The hazard-pointer backend ([`Hazard`], behind
//! [`WfQueueHp`](crate::WfQueueHp)) — the paper's §3.4, implemented in
//! full.
//!
//! Epoch reclamation matches the paper's Java presentation (which leans
//! on the GC), but it is only lock-free: one stalled thread can stall
//! *all* reclamation. §3.4 prescribes Michael's hazard pointers to make
//! memory management wait-free too. Under this backend a sentinel is
//! retired as soon as `head` passes it (end of `help_finish_deq`),
//! exactly as §3.4 wants, and a stalled thread pins at most the two
//! nodes its hazard slots cover.
//!
//! ## Descriptors are words, not objects
//!
//! `state[tid]` is an in-place packed [`StateSlot`](crate::desc::StateSlot)
//! — a version-tagged control word plus a phase word — instead of a
//! pointer to a heap `OpDesc`. For hazard pointers this is a double
//! win: the hot path stops allocating *and* the descriptor hazard slot
//! (with its protect/validate dance on every descriptor read)
//! disappears, because a one-word atomic load has no lifetime to
//! protect. Only two hazard slots per thread remain:
//!
//! | slot | protects |
//! |---|---|
//! | `H_NODE` | the `head`/`tail` node an operation is working on |
//! | `H_NEXT` | that node's successor (validated via a `head`/`tail` re-read: while the anchor is still in place, the successor cannot have been retired) |
//!
//! ## The node hand-off and the two-token gate
//!
//! §3.4 suggests couriering the dequeued *value* inside the descriptor
//! so the owner never touches retired nodes. A packed word cannot carry
//! a `T`, so the completed dequeue word instead points at the **value
//! node** (the new sentinel, `first.next`), and the owner dereferences
//! it *without* a hazard slot, made safe by a two-token disposal gate
//! on every node (`Node::tokens`): a node is released — to the reuse
//! pool or the allocator — only after (a) the hazard scan found it
//! uncovered ([`TOKEN_RECLAIM_READY`]) *and* (b) its dequeue owner took
//! the value ([`TOKEN_CONSUMED`], [`Reclaim::consumed`]). Each side sets
//! its token with an `AcqRel` `fetch_or`; whichever observes the other's
//! bit performs the release, exactly once. Since (b) is executed by the
//! owner itself, the owner's epilogue dereference can never race with
//! the node's disposal. (The epoch backend hands over the same node;
//! there the owner's pin keeps it alive instead.)
//!
//! If a thread dies between its dequeue's completion and its epilogue,
//! the value node stays in limbo: one node + one value leak per killed
//! thread, the same bounded kill-window loss the torture suite's
//! conservation check already budgets for (`allowed_missing`). A panic
//! that unwinds through `dequeue` does *not* leak — unwind recovery
//! claims the unclaimed result (see `deq_in_flight`).
//!
//! ## Node reuse
//!
//! Disposal feeds the queue's node pool (`crate::pool`), the same
//! steal-all freelist the epoch backend fills: only the admission rule
//! differs (the two-token gate here, epoch maturity there). Handles
//! allocate from a small stash refilled from the pool, making
//! steady-state operations allocation-free. With `Config::reuse_nodes`
//! off, disposal falls through to the allocator — the ablation
//! baseline.
//!
//! ## The reaper's token
//!
//! A hazard record belongs to one handle, so its token is published at
//! registration and retracted first thing at exit. A reap quarantines
//! it through [`Domain::quarantine`]: the victim's leaked record gets
//! its slots nulled and is parked for adoption, so its stale hazards
//! stop excluding nodes from reclamation. No pinned-check is needed — a
//! revoked lease means no legitimate user of the record remains.

use std::mem::ManuallyDrop;

use hazard::{Domain, Participant};
use kp_sync::atomic::{AtomicPtr, Ordering};

use crate::handle::KpHandle;
use crate::node::{Node, TOKEN_CONSUMED, TOKEN_RECLAIM_READY};
use crate::pool::{NodePool, Stash};
use crate::queue::KpQueue;
use crate::reclaim::{sites, Reclaim, Sites, H_NEXT};

/// Nodes a handle keeps per pool steal beyond the one it needs; the
/// surplus goes back to the pool node by node, for other handles'
/// refills. (Pushing it back as one chain left the pool over its cap so
/// often that the hazard scan's releases overflowed: ~10x the
/// allocations on the contended HP check in `alloc_regression.rs`.)
const LOCAL_CAP: usize = 32;

/// The hazard-pointer backend: see the module docs.
pub struct Hazard;

impl Reclaim for Hazard {
    const NAME: &'static str = "WfQueueHp";
    const SITES: Sites = sites!("kp_hp");
    /// Releases push single nodes (or, at handle exit, a stash of at
    /// most `LOCAL_CAP + 1`), so the pool stays within a stash of it.
    const POOL_CAP: usize = 256;
    type Domain = Domain;
    /// Manually dropped so exit can *leak* the record when the handle
    /// was reaped: the reaper already quarantined it (slots nulled,
    /// parked for adoption), and a successor may have adopted it —
    /// running `Participant::drop` then would clobber the adopter's
    /// live hazards.
    type Local<'q, T: 'q> = ManuallyDrop<Participant<'q>>;
    /// Hazard pointers protect per dereference, not per scope.
    type Guard = ();

    fn domain() -> Domain {
        Domain::new(H_NEXT + 1)
    }

    /// Enters the domain and publishes the record's token before the
    /// handle can operate: if this handle dies, a reaper quarantines
    /// the record through it so its hazards stop blocking reclamation.
    fn register<'q, T: Send>(q: &'q KpQueue<T, Self>, tid: usize) -> ManuallyDrop<Participant<'q>> {
        let participant = q.domain.enter();
        q.tokens[tid].store(participant.record_token(), Ordering::SeqCst);
        ManuallyDrop::new(participant)
    }

    fn pin() {}

    fn protect<T>(
        l: &ManuallyDrop<Participant<'_>>,
        slot: usize,
        src: &AtomicPtr<Node<T>>,
    ) -> *mut Node<T> {
        l.protect(slot, src)
    }

    fn hold<T>(l: &ManuallyDrop<Participant<'_>>, slot: usize, node: *mut Node<T>) {
        l.set(slot, node);
    }

    fn clear<T>(l: &ManuallyDrop<Participant<'_>>, slot: usize) {
        l.clear(slot);
    }

    /// Retires through the node's token gate, so the dequeue owner's
    /// hazard-free epilogue dereference stays safe.
    ///
    /// # Safety
    ///
    /// As for [`Reclaim::retire`].
    unsafe fn retire<T: Send>(
        q: &KpQueue<T, Self>,
        l: &mut ManuallyDrop<Participant<'_>>,
        node: *mut Node<T>,
    ) -> bool {
        let ctx = (&*q.pool as *const NodePool<Node<T>>).cast_mut().cast();
        // SAFETY: forwarded from the caller; `ctx` outlives every
        // reclaim (the pool Box drops after the domain — field order in
        // `KpQueue`).
        unsafe { l.retire_with(node.cast(), ctx, reclaim_into_pool::<T>) };
        false
    }

    /// The stash, refilled by stealing the pool whole and trimmed to
    /// [`LOCAL_CAP`] on refill.
    fn recycled<T>(
        _l: &mut ManuallyDrop<Participant<'_>>,
        stash: &mut Stash<Node<T>>,
        pool: &NodePool<Node<T>>,
    ) -> Option<*mut Node<T>> {
        let refill = stash.is_empty();
        let node = stash.take(pool)?;
        if refill {
            stash.trim(LOCAL_CAP, pool);
        }
        Some(node)
    }

    /// The owner's half of the two-token gate.
    ///
    /// # Safety
    ///
    /// As for [`Reclaim::consumed`].
    unsafe fn consumed<T: Send>(q: &KpQueue<T, Self>, node: *mut Node<T>) {
        // SAFETY: the node stays allocated until both tokens are
        // observed, and CONSUMED is set only here, once.
        let prev = unsafe { (*node).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel) };
        if prev & TOKEN_RECLAIM_READY != 0 {
            // SAFETY: both tokens observed: the scan already cleared the
            // node of hazards, so disposal is ours.
            unsafe { q.pool.release(node) };
        }
    }

    /// # Safety
    ///
    /// As for [`Reclaim::quarantine`].
    unsafe fn quarantine<T: Send>(q: &KpQueue<T, Self>, _victim: usize, token: usize) -> bool {
        // SAFETY: forwarded from the caller — a reaped handle's exit
        // leaks its record instead of touching it.
        unsafe { q.domain.quarantine(token) }
    }

    /// Retracts the record's token before the exit completes its
    /// operation: a reap racing the exit then finds no token, and can
    /// never quarantine a record still in use.
    fn leave<T: Send>(q: &KpQueue<T, Self>, tid: usize) {
        q.tokens[tid].store(0, Ordering::SeqCst);
    }

    fn release<T: Send>(
        _q: &KpQueue<T, Self>,
        l: &mut ManuallyDrop<Participant<'_>>,
        _tid: usize,
        live: bool,
    ) {
        if live {
            // SAFETY: dropped exactly once — the reaped path leaks the
            // quarantined record on purpose, and nothing touches the
            // `ManuallyDrop` afterwards. The participant clears its
            // slots and parks leftover retirees for adoption.
            unsafe { ManuallyDrop::drop(l) };
        }
    }
}

/// The disposal half of the token gate, handed to
/// `Participant::retire_with` when a sentinel is unlinked: called by
/// whichever scan finds the node uncovered by hazards.
///
/// # Safety
///
/// `ptr` is the retired `Node<T>`, `ctx` the queue's
/// `NodePool<Node<T>>`; both outlive the call (the pool is dropped
/// after the hazard domain — field order in `KpQueue`).
pub(crate) unsafe fn reclaim_into_pool<T>(ptr: *mut u8, ctx: *mut u8) {
    let node = ptr.cast::<Node<T>>();
    // SAFETY: caller contract.
    let pool = unsafe { &*ctx.cast::<NodePool<Node<T>>>() };
    // SAFETY: node is retired, so it stays allocated until both tokens
    // are observed; the fetch_or is the observation.
    let prev = unsafe {
        (*node)
            .tokens
            .fetch_or(TOKEN_RECLAIM_READY, Ordering::AcqRel)
    };
    if prev & TOKEN_CONSUMED != 0 {
        // SAFETY: both tokens set — nobody else can touch the node: the
        // scan cleared it of hazards and the owner is done with the
        // value (its fetch_or happened-before ours).
        unsafe { pool.release(node) };
    }
    // else: the dequeue owner has not consumed the value yet; its
    // CONSUMED fetch_or will observe our bit and release. If the owner
    // died mid-operation the node stays in limbo — the bounded
    // kill-window leak documented in DESIGN.md.
}

impl<T: Send> KpQueue<T, Hazard> {
    /// Approximate length (O(n); callers must be externally quiesced —
    /// there is no pin to keep a traversal safe, so this walks only
    /// when no concurrent dequeuers run; intended for tests and
    /// diagnostics).
    pub fn len_approx_quiescent(&self) -> usize {
        let mut n = 0;
        // SAFETY: quiescence contract — no concurrent retirement.
        unsafe {
            let mut cur = (*self.head.load(Ordering::SeqCst))
                .next
                .load(Ordering::SeqCst);
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next.load(Ordering::SeqCst);
            }
        }
        n
    }
}

impl<T: Send> KpHandle<'_, T, Hazard> {
    /// Objects reclaimed so far through this handle's hazard record
    /// (diagnostics; proves reclamation happens without a GC).
    pub fn reclaimed(&self) -> usize {
        self.local.reclaimed()
    }
}
