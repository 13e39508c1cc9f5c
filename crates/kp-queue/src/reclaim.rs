//! The reclamation seam: everything the two queue variants do
//! differently, and nothing else.
//!
//! Figures 1–6, the fast path, unwind recovery, handle exit and the
//! reaper are written once, in `crate::queue` and `crate::handle`, over
//! a [`Reclaim`] backend (the "memory tracker / base tracker" split of
//! interval-based reclamation). Two backends implement it:
//!
//! | hook | [`Epoch`](crate::epoch::Epoch) (`WfQueue`) | [`Hazard`](crate::hazard::Hazard) (`WfQueueHp`) |
//! |---|---|---|
//! | per-operation context | the epoch pin ([`Reclaim::pin`]) | the handle's hazard `Participant` |
//! | [`protect`](Reclaim::protect) a head/tail load | a plain load (the pin covers it) | hazard store + validating re-read |
//! | [`hold`](Reclaim::hold) / [`clear`](Reclaim::clear) a successor | nothing | hazard slot `H_NEXT` |
//! | [`retire`](Reclaim::retire) an unlinked sentinel | `RetireCache` maturity stage | `retire_with` + the two-token gate |
//! | [`recycled`](Reclaim::recycled) node for an enqueue | own matured cache, then stash | stash, trimmed to `LOCAL_CAP` |
//! | [`consumed`](Reclaim::consumed): the value was taken | nothing | `TOKEN_CONSUMED` `fetch_or` |
//! | reaper token | published per operation, quarantined if pinned | published at registration, quarantined |
//!
//! Both backends feed the queue's one node pool (`crate::pool`), each
//! with its own cap ([`Reclaim::POOL_CAP`]), and both hand the dequeue
//! owner its *value node* through the completed descriptor word (see
//! `KpHandle::read_deq_result` for why that is safe under either).

use kp_sync::atomic::AtomicPtr;

use crate::node::Node;
use crate::pool::{NodePool, Stash};
use crate::queue::KpQueue;

/// Hazard slot for the head/tail node an operation works on.
pub(crate) const H_NODE: usize = 0;
/// Hazard slot for that node's successor (validated by a head/tail
/// re-read: while the anchor is still in place, the successor cannot
/// have been retired).
pub(crate) const H_NEXT: usize = 1;

/// One backend's fault-injection site names (see `crate::chaos_hooks`):
/// `kp.*` under epochs, `kp_hp.*` under hazard pointers.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
pub struct Sites {
    pub(crate) publish: &'static str,
    pub(crate) append: &'static str,
    pub(crate) clear_pending_enq: &'static str,
    pub(crate) swing_tail: &'static str,
    pub(crate) bind_sentinel: &'static str,
    pub(crate) lock_sentinel: &'static str,
    pub(crate) clear_pending_deq: &'static str,
    pub(crate) clear_pending_deq_empty: &'static str,
    pub(crate) swing_head: &'static str,
    pub(crate) fast_enq: &'static str,
    pub(crate) fast_swing_tail: &'static str,
    pub(crate) fast_deq: &'static str,
    pub(crate) fast_swing_head: &'static str,
    pub(crate) fast_demote: &'static str,
    pub(crate) reap_adopt: &'static str,
    pub(crate) reap_retire: &'static str,
    pub(crate) reap_finish: &'static str,
}

/// The [`Sites`] table under one prefix.
macro_rules! sites {
    ($p:literal) => {
        $crate::reclaim::Sites {
            publish: concat!($p, ".publish"),
            append: concat!($p, ".append"),
            clear_pending_enq: concat!($p, ".clear_pending.enq"),
            swing_tail: concat!($p, ".swing_tail"),
            bind_sentinel: concat!($p, ".bind_sentinel"),
            lock_sentinel: concat!($p, ".lock_sentinel"),
            clear_pending_deq: concat!($p, ".clear_pending.deq"),
            clear_pending_deq_empty: concat!($p, ".clear_pending.deq_empty"),
            swing_head: concat!($p, ".swing_head"),
            fast_enq: concat!($p, ".fast.enq"),
            fast_swing_tail: concat!($p, ".fast.swing_tail"),
            fast_deq: concat!($p, ".fast.deq"),
            fast_swing_head: concat!($p, ".fast.swing_head"),
            fast_demote: concat!($p, ".fast.demote"),
            reap_adopt: concat!($p, ".reap.adopt"),
            reap_retire: concat!($p, ".reap.retire"),
            reap_finish: concat!($p, ".reap.finish"),
        }
    };
}
pub(crate) use sites;

/// A memory-reclamation backend for the Kogan–Petrank core.
///
/// Sealed: implemented by the crate's two backends only.
pub trait Reclaim: Sized + 'static {
    /// The queue's name in `Debug` output.
    const NAME: &'static str;
    /// Chaos-site names.
    const SITES: Sites;
    /// Size bound of the queue's node pool.
    const POOL_CAP: usize;
    /// Queue-wide reclamation state.
    type Domain: Send + Sync;
    /// Per-handle reclamation state.
    type Local<'q, T: 'q>;
    /// Held across an operation (and by a stalled `PendingOp`).
    type Guard;

    /// The queue-wide state of a new queue.
    fn domain() -> Self::Domain;

    /// The per-handle state of a handle registering as `tid`.
    fn register<'q, T: Send>(q: &'q KpQueue<T, Self>, tid: usize) -> Self::Local<'q, T>;

    /// Opens an operation's protection scope.
    fn pin() -> Self::Guard;

    /// Loads `src` (a head or tail) so that the node it names stays
    /// allocated, and un-recycled, until the scope ends or `slot` is
    /// reused.
    fn protect<T>(l: &Self::Local<'_, T>, slot: usize, src: &AtomicPtr<Node<T>>) -> *mut Node<T>;

    /// Covers `node` in `slot` *without* validating it: the caller
    /// re-reads the anchor it was loaded from before dereferencing.
    fn hold<T>(_l: &Self::Local<'_, T>, _slot: usize, _node: *mut Node<T>) {}

    /// Drops the cover of `slot`.
    fn clear<T>(_l: &Self::Local<'_, T>, _slot: usize) {}

    /// Takes over a sentinel unlinked by the L150 head CAS. Returns
    /// `true` when reuse is on but the node overflowed to plain
    /// reclamation (the memory-pressure signal).
    ///
    /// # Safety
    ///
    /// `node` is unlinked from the queue and retired exactly once (by
    /// the unique head-CAS winner).
    unsafe fn retire<T: Send>(
        q: &KpQueue<T, Self>,
        l: &mut Self::Local<'_, T>,
        node: *mut Node<T>,
    ) -> bool;

    /// A node no other thread can reach, ready for reuse, if one is at
    /// hand (without allocating).
    fn recycled<T>(
        l: &mut Self::Local<'_, T>,
        stash: &mut Stash<Node<T>>,
        pool: &NodePool<Node<T>>,
    ) -> Option<*mut Node<T>>;

    /// The dequeue owner (or the reaper standing in for it) has taken
    /// `node`'s value.
    ///
    /// # Safety
    ///
    /// `node` is the value node of a completed dequeue the caller
    /// uniquely owns, and this is called once for it.
    unsafe fn consumed<T: Send>(_q: &KpQueue<T, Self>, _node: *mut Node<T>) {}

    /// Reaper-on operation prologue: keeps the slot's participant token
    /// current.
    fn prologue<T: Send>(_q: &KpQueue<T, Self>, _l: &mut Self::Local<'_, T>, _tid: usize) {}

    /// Quarantines the participation behind a dead handle's `token`;
    /// `true` if something was quarantined.
    ///
    /// # Safety
    ///
    /// The handle's lease was revoked and the reap election won, so the
    /// participation is never legitimately used again.
    unsafe fn quarantine<T: Send>(q: &KpQueue<T, Self>, victim: usize, token: usize) -> bool;

    /// Handle exit, lease still held: runs before the handle completes
    /// its own operation.
    fn leave<T: Send>(_q: &KpQueue<T, Self>, _tid: usize) {}

    /// Handle exit, last step, after the operation scope closed. `live`
    /// is false when the handle was reaped: the slot may then belong to
    /// a successor and only private state is still the handle's.
    fn release<T: Send>(q: &KpQueue<T, Self>, l: &mut Self::Local<'_, T>, tid: usize, live: bool);
}
