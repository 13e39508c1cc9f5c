//! Memory reclamation: the paper's §3.4 hazard pointers, implemented in
//! full.
//!
//! §3.4 prescribes Michael's hazard pointers to run the queue without a
//! GC, and it is the scheme under which memory management is wait-free
//! too: a sentinel is retired as soon as `head` passes it (end of
//! `help_finish_deq`), exactly as §3.4 wants, and a stalled thread pins
//! at most the two nodes its hazard slots cover. Each handle owns one
//! hazard `Participant` of the queue's `Domain`; the core in
//! `crate::queue` and `crate::handle` calls it directly.
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
//! | [`H_NODE`] | the `head`/`tail` node an operation is working on |
//! | [`H_NEXT`] | that node's successor (validated via a `head`/`tail` re-read: while the anchor is still in place, the successor cannot have been retired) |
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
//! uncovered ([`TOKEN_RECLAIM_READY`], [`reclaim_into_pool`]) *and* (b)
//! its dequeue owner took the value ([`TOKEN_CONSUMED`], [`consumed`]).
//! Each side sets its token with an `AcqRel` `fetch_or`; whichever
//! observes the other's bit performs the release, exactly once. Since
//! (b) is executed by the owner itself, the owner's epilogue
//! dereference can never race with the node's disposal.
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
//! Disposal feeds the queue's node pool (`crate::pool`). Handles
//! allocate from a small stash refilled from the pool, making
//! steady-state operations allocation-free. With `Config::reuse_nodes`
//! off, disposal falls through to the allocator — the ablation
//! baseline.
//!
//! Reclamation is batched: a handle scans the domain's hazards once per
//! `max(2H, 64)` retirements (`H` = total hazard slots), so one
//! operation in that many releases the whole batch into the pool.
//!
//! ## The reaper's token
//!
//! A hazard record belongs to one handle, so its token is published at
//! registration and retracted first thing at exit. A reap quarantines
//! it through `Domain::quarantine`: the victim's leaked record gets
//! its slots nulled and is parked for adoption, so its stale hazards
//! stop excluding nodes from reclamation. No pinned-check is needed — a
//! revoked lease means no legitimate user of the record remains.

use kp_sync::atomic::Ordering;

use crate::node::{Node, TOKEN_CONSUMED, TOKEN_RECLAIM_READY};
use crate::pool::NodePool;

/// Hazard slot for the head/tail node an operation works on.
pub(crate) const H_NODE: usize = 0;
/// Hazard slot for that node's successor (validated by a head/tail
/// re-read: while the anchor is still in place, the successor cannot
/// have been retired).
pub(crate) const H_NEXT: usize = 1;

/// Size bound of the queue's node pool. Releases push single nodes (or,
/// at handle exit, a stash of at most `LOCAL_CAP + 1`), so the pool
/// stays within a stash of it.
pub(crate) const POOL_CAP: usize = 256;

/// The value taker's half of the token gate: the dequeue owner (or a
/// fast dequeuer, or the reaper standing in for a dead owner) has taken
/// `node`'s value.
///
/// # Safety
///
/// `node` is the value node of a completed dequeue the caller uniquely
/// owns, and this is called once for it.
pub(crate) unsafe fn consumed<T>(pool: &NodePool<Node<T>>, node: *mut Node<T>) {
    // SAFETY: the node stays allocated until both tokens are observed,
    // and CONSUMED is set only here, once.
    let prev = unsafe { (*node).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel) };
    if prev & TOKEN_RECLAIM_READY != 0 {
        // SAFETY: both tokens observed: the scan already cleared the
        // node of hazards, so disposal is ours.
        unsafe { pool.release(node) };
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
/// after the hazard domain — field order in `WfQueue`).
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
