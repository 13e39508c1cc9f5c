//! The epoch backend ([`Epoch`], behind [`WfQueue`](crate::WfQueue)):
//! the paper's Java presentation leans on the GC, and crossbeam-style
//! epoch reclamation is the closest non-GC stand-in — lock-free, not
//! wait-free (one stalled pin stalls all reclamation; the hazard
//! backend is the §3.4 answer).
//!
//! Every operation runs pinned ([`Reclaim::pin`]), so a head/tail load
//! needs no protection of its own: a node reachable during the pin is
//! retired, if at all, during it, and is neither freed nor recycled
//! before the pin ends.
//!
//! # The maturity stage
//!
//! Sentinels unlinked by a handle's own head swing go into its
//! `RetireCache`, tagged with the global epoch at retirement. A node
//! *matures* once the epoch has advanced two steps past its tag — the
//! same rule the collector applies before freeing
//! (`crossbeam_epoch::global_epoch`), so a matured node is one no pin
//! that could still observe it remains active. Soundness is therefore
//! inherited from the shim's free rule, not argued separately.
//!
//! Matured nodes leave the cache two ways:
//!
//! * the handle's own enqueues reuse them ([`RetireCache::pop_mature`]),
//!   which keeps a balanced thread allocation-free without touching any
//!   shared state;
//! * once the cache is half full — a thread that dequeues more than it
//!   enqueues, such as a channel consumer — its matured front run is
//!   linked into one chain and pushed onto the queue's shared
//!   [`NodePool`], where the producing threads' handles steal it, so a
//!   consumer's retirements feed the producers' enqueues instead of the
//!   epoch collector and the allocator.
//!
//! # The reaper's token
//!
//! Epoch participation is per OS thread, not per handle, so a handle
//! publishes its thread's participant token at the start of each
//! operation (reaper enabled only) and retracts it only after its exit
//! has unpinned. A reap quarantines the token only if the participant
//! is actually wedged in a pin and no live handle shares it (see
//! [`Epoch::quarantine`]).

use std::collections::VecDeque;

use crossbeam_epoch::{self as epoch, Shared};
use kp_sync::atomic::{AtomicPtr, Ordering};

use crate::node::Node;
use crate::pool::{NodePool, PoolNode, Stash};
use crate::queue::KpQueue;
use crate::reclaim::{sites, Reclaim, Sites};

/// Upper bound on cached nodes per handle; a node retired into a full
/// cache (or any node, with `Config::reuse_nodes` off) falls back to
/// the epoch collector. Sized so a balanced workload never fills it
/// while a dequeue-heavy handle cannot hoard unboundedly.
const CACHE_CAP: usize = 256;

/// Cache level from which each retirement tries to hand the matured
/// front run to the queue's pool. Below the cap, so the epoch can lag
/// for half a cache of retirements before anything overflows: flushing
/// only at the cap, a front that had not matured sent 0.2–27% of a
/// `stream` rep's retirements to the collector.
const FLUSH_AT: usize = CACHE_CAP / 2;

/// The epoch variant's pool cap: four chains' worth. A producer steals
/// the whole pool only once its stash is empty, so the pool must hold
/// what a consumer flushes meanwhile; with one chain's room, a backlog
/// swing of a few dozen messages already forced frees on one side and
/// fresh allocations on the other.
const POOL_CAP: usize = 4 * CACHE_CAP;

/// A FIFO of retired nodes, oldest (most mature) first.
pub(crate) struct RetireCache<T> {
    nodes: VecDeque<(usize, *mut Node<T>)>,
    reuse: bool,
}

// SAFETY: every cached node is unlinked from the queue and exclusively
// owned by this cache (the `push` contract); moving the cache — inside
// its handle — to another thread moves that ownership with it.
unsafe impl<T: Send> Send for RetireCache<T> {}

impl<T> RetireCache<T> {
    pub(crate) fn new(reuse: bool) -> Self {
        RetireCache {
            nodes: VecDeque::with_capacity(if reuse { CACHE_CAP } else { 0 }),
            reuse,
        }
    }

    /// Takes ownership of a node just unlinked by the L150 head CAS.
    /// From [`FLUSH_AT`] on, the matured front run moves to `pool` first.
    ///
    /// Returns `true` when the node **overflowed**: reuse is on but the
    /// cache is at [`CACHE_CAP`] — nothing matured, or the pool is full —
    /// so the node was pushed out to the epoch collector instead of
    /// cached. This is the memory-
    /// pressure backpressure signal (DESIGN.md §13) — callers count it
    /// in `Stats::cache_overflows`. A deferral with reuse disabled is
    /// the configured behaviour, not pressure, and returns `false`.
    ///
    /// # Safety
    ///
    /// Caller must own the retirement: the node is unlinked from the
    /// queue and will never be retired again (here, the winner of the
    /// L150 head CAS — exactly one thread per node).
    pub(crate) unsafe fn push(&mut self, node: *mut Node<T>, pool: &NodePool<Node<T>>) -> bool {
        if self.reuse && self.nodes.len() >= FLUSH_AT {
            self.flush_mature(pool);
        }
        if !self.reuse || self.nodes.len() == CACHE_CAP {
            // SAFETY: forwarded from the caller; the nested pin is free
            // inside the operation's own.
            unsafe { epoch::pin().defer_destroy(Shared::from(node as *const Node<T>)) };
            return self.reuse;
        }
        self.nodes.push_back((epoch::global_epoch(), node));
        false
    }

    /// Whether the front node has matured, after at most one collector
    /// nudge: a node is tagged with the epoch current at its retirement
    /// and ripens once the global epoch is two steps past it. One
    /// `advance` per check is all a pinned caller can use — its own pin
    /// blocks a second step until its next operation re-pins — so a
    /// handle's successive checks ripen its front within two of its
    /// operations. `advance` is safe (and cheap) while pinned.
    ///
    /// Our own current pin never blocks maturity: pinning happened at
    /// some epoch `p >= tag`, and `tag + 2 <= global_epoch()` already
    /// proves the global epoch moved past every pin taken at `tag` or
    /// earlier — including one of our own taken before the retirement.
    ///
    /// The nudge cannot help when a *peer* thread sits preempted inside
    /// a pin: `advance` refuses to move past an active pin at an older
    /// epoch, by design — that pin may still hold a `Shared` into a
    /// cached node. On an oversubscribed host (threads > cores) peers
    /// are routinely descheduled mid-pin for a whole timeslice, nothing
    /// matures — so nothing reaches the pool either — and enqueues
    /// correctly fall back to fresh heap nodes rather than block:
    /// reclamation is lock-free, not wait-free (§3.4). That cost is
    /// visible as `allocs_per_op` on the oversubscribed epoch rows of
    /// BENCH_PR*.json and is bounded by `alloc_regression.rs`; the HP
    /// variant pins only ≤2 nodes per stalled thread, which is why its
    /// contended rows stay allocation-free.
    fn front_matured(&self) -> bool {
        let Some(&(tag, _)) = self.nodes.front() else {
            return false;
        };
        if tag + 2 <= epoch::global_epoch() {
            return true;
        }
        epoch::advance();
        tag + 2 <= epoch::global_epoch()
    }

    /// A node no pinned thread can still observe, if one has matured.
    /// The handle's enqueues try this before the pool: a balanced
    /// thread recycles its own retirements without shared traffic.
    pub(crate) fn pop_mature(&mut self) -> Option<*mut Node<T>> {
        if self.front_matured() {
            self.nodes.pop_front().map(|(_, node)| node)
        } else {
            None
        }
    }

    /// Links the matured front run into a private chain and pushes it
    /// onto `pool` as one chain (freed there if the pool will not take
    /// it).
    fn flush_mature(&mut self, pool: &NodePool<Node<T>>) {
        if !pool.has_room() || !self.front_matured() {
            return;
        }
        let ripe = epoch::global_epoch();
        let Some((_, first)) = self.nodes.pop_front() else {
            return;
        };
        let (mut last, mut n) = (first, 1);
        while let Some(&(tag, node)) = self.nodes.front() {
            if tag + 2 > ripe {
                break;
            }
            self.nodes.pop_front();
            // SAFETY: matured cached nodes are exclusively ours; the
            // pool's Release push publishes the link.
            unsafe { (*last).set_next_free(node) };
            (last, n) = (node, n + 1);
        }
        // SAFETY: every chained node matured: no pin that could observe
        // it remains, so the chain is exclusively ours to hand over.
        unsafe { pool.push_chain(first, last, n) };
    }

    /// Hands every cached node to the collector (handle exit).
    pub(crate) fn drain(&mut self) {
        let guard = epoch::pin();
        for (_, node) in self.nodes.drain(..) {
            // SAFETY: cached nodes are unlinked and uniquely owned (the
            // `push` contract), and we are giving up reuse of them.
            unsafe { guard.defer_destroy(Shared::from(node as *const Node<T>)) };
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// The epoch backend: see the module docs.
pub struct Epoch;

/// An epoch handle's reclamation state.
pub struct EpochLocal<T> {
    /// Retired sentinels awaiting maturity.
    cache: RetireCache<T>,
    /// The participant token last published to `KpQueue::tokens`.
    token: usize,
}

impl Reclaim for Epoch {
    const NAME: &'static str = "WfQueue";
    const SITES: Sites = sites!("kp");
    const POOL_CAP: usize = POOL_CAP;
    type Domain = ();
    type Local<'q, T: 'q> = EpochLocal<T>;
    type Guard = epoch::Guard;

    fn domain() {}

    fn register<T: Send>(q: &KpQueue<T, Self>, _tid: usize) -> EpochLocal<T> {
        EpochLocal {
            cache: RetireCache::new(q.config.reuse_nodes),
            token: 0,
        }
    }

    fn pin() -> epoch::Guard {
        epoch::pin()
    }

    /// A plain load: the operation's pin covers every node it reaches.
    fn protect<T>(_l: &EpochLocal<T>, _slot: usize, src: &AtomicPtr<Node<T>>) -> *mut Node<T> {
        src.load(Ordering::SeqCst)
    }

    /// # Safety
    ///
    /// As for [`Reclaim::retire`].
    unsafe fn retire<T: Send>(
        q: &KpQueue<T, Self>,
        l: &mut EpochLocal<T>,
        node: *mut Node<T>,
    ) -> bool {
        // SAFETY: forwarded from the caller.
        unsafe { l.cache.push(node, &q.pool) }
    }

    /// Own matured retirements first (no shared traffic), then the
    /// stash, refilled by stealing the pool whole.
    fn recycled<T>(
        l: &mut EpochLocal<T>,
        stash: &mut Stash<Node<T>>,
        pool: &NodePool<Node<T>>,
    ) -> Option<*mut Node<T>> {
        l.cache.pop_mature().or_else(|| stash.take(pool))
    }

    /// Publishes this OS thread's participant token when it changed (a
    /// handle can move between threads). Runs before the operation
    /// pins, so a pinned handle's token is always visible to the
    /// publisher scan in [`quarantine`](Self::quarantine).
    fn prologue<T: Send>(q: &KpQueue<T, Self>, l: &mut EpochLocal<T>, tid: usize) {
        let token = epoch::participant_token();
        if token != l.token {
            l.token = token;
            q.tokens[tid].store(token, Ordering::SeqCst);
        }
    }

    /// Quarantines the victim's epoch participant, but only when it is
    /// actually wedged (a pin leaked at death). An unpinned participant
    /// needs nothing: a live `pin()` re-reads the global epoch, and a
    /// dead thread's TLS destructor already deregistered it.
    ///
    /// `token == participant_token()`: the victim handle last ran on
    /// *this* OS thread (participation is per thread, and several
    /// virtual ids can share one). Our own participant is pinned right
    /// now — by us, the reaper — not wedged by the dead handle;
    /// quarantining it would erase our live pin.
    ///
    /// The publisher scan generalizes that to *any* live handle sharing
    /// the victim's OS thread: a handle publishes its token (prologue)
    /// before it pins, so a handle currently inside an operation on that
    /// thread is visible in some other `tokens` slot — its pin is live,
    /// not wedged, and must not be erased. Two reapers racing on two
    /// abandoned slots that share a token cannot *both* skip: each swaps
    /// its victim's slot to 0 before scanning (SeqCst), so at least one
    /// scan runs after both swaps and finds no publisher. A double
    /// quarantine is idempotent. Residual window: a brand-new handle's
    /// first publish on the victim's thread racing this scan — see
    /// DESIGN.md §13.4 (the wall-clock reap floor makes it require a
    /// patience-window-long preemption inside a few-instruction
    /// prologue).
    ///
    /// # Safety
    ///
    /// As for [`Reclaim::quarantine`].
    unsafe fn quarantine<T: Send>(q: &KpQueue<T, Self>, victim: usize, token: usize) -> bool {
        let shared_by_live_handle = || {
            q.tokens
                .iter()
                .enumerate()
                .any(|(i, t)| i != victim && t.load(Ordering::SeqCst) == token)
        };
        token != epoch::participant_token()
            && !shared_by_live_handle()
            && epoch::participant_is_pinned(token)
            // SAFETY: forwarded from the caller; using the participant
            // from *another* queue on the same (dead by contract) thread
            // is the documented lease-contract violation (DESIGN.md §13).
            && unsafe { epoch::quarantine_participant(token) }
    }

    /// Gives the cached nodes to the collector and, when the lease
    /// still holds, retracts the token — only now, after the exit
    /// unpinned: while pinned, a reaper of another abandoned slot with
    /// the same token had to see our publication and spare our live
    /// pin; once unpinned there is nothing of ours left to protect, and
    /// clearing the slot stops a later reap of this ID's next lease from
    /// acting on a stale token.
    fn release<T: Send>(q: &KpQueue<T, Self>, l: &mut EpochLocal<T>, tid: usize, live: bool) {
        l.cache.drain();
        if live {
            q.tokens[tid].store(0, Ordering::SeqCst);
        }
    }
}

impl<T: Send> KpQueue<T, Epoch> {
    /// Approximate number of elements (O(n) walk; diagnostics only).
    ///
    /// Ordering relaxation: Acquire, not SeqCst. The result is advisory
    /// — it participates in no helping decision and no proof obligation
    /// — so all it needs is that a non-null `next` dereferences a fully
    /// initialised node, which Acquire (paired with the append CAS)
    /// provides.
    pub fn len_approx(&self) -> usize {
        let _guard = epoch::pin();
        let mut n = 0;
        // SAFETY: head is never null and reachable nodes live under the pin.
        let mut cur = unsafe {
            (*self.head.load(Ordering::Acquire))
                .next
                .load(Ordering::Acquire)
        };
        while !cur.is_null() {
            n += 1;
            // SAFETY: a non-null `next` reaches an initialised node kept
            // live by the pin — same argument as for `head` above.
            cur = unsafe { (*cur).next.load(Ordering::Acquire) };
        }
        n
    }

    /// True if the queue is observed empty.
    ///
    /// Ordering relaxation: Acquire — same advisory-only argument as
    /// [`len_approx`](Self::len_approx).
    pub fn is_empty(&self) -> bool {
        let _guard = epoch::pin();
        // SAFETY: as in `len_approx`.
        unsafe {
            (*self.head.load(Ordering::Acquire))
                .next
                .load(Ordering::Acquire)
        }
        .is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{epoch_exclusive, epoch_shared};
    use std::ptr;

    fn node(v: u32) -> *mut Node<u32> {
        Node::boxed(Some(v), 0)
    }

    #[test]
    fn nodes_mature_after_two_epoch_advances() {
        let _epoch = epoch_exclusive();
        let pool = NodePool::new(true, POOL_CAP);
        let mut cache: RetireCache<u32> = RetireCache::new(true);
        let node = node(1);
        // SAFETY: `node` is freshly leaked and unreachable from any queue.
        unsafe { cache.push(node, &pool) };
        // pop_mature itself nudges the collector; with no other pins it
        // succeeds after at most two calls (one advance each).
        let mut got = None;
        for _ in 0..3 {
            if let Some(n) = cache.pop_mature() {
                got = Some(n);
                break;
            }
        }
        let n = got.expect("node must ripen once no pin remains");
        assert_eq!(n, node);
        assert_eq!(cache.len(), 0);
        // SAFETY: popped from the cache; the test now owns it exclusively.
        unsafe { drop(Box::from_raw(n)) };
    }

    #[test]
    fn reuse_off_defers_to_the_collector() {
        let _epoch = epoch_shared();
        let pool = NodePool::new(false, POOL_CAP);
        let mut cache: RetireCache<u32> = RetireCache::new(false);
        // SAFETY: as in the test above; the collector takes ownership.
        let overflowed = unsafe { cache.push(node(2), &pool) };
        assert!(!overflowed, "reuse off is configuration, not pressure");
        assert_eq!(cache.len(), 0, "nothing cached with reuse disabled");
        assert!(cache.pop_mature().is_none());
    }

    #[test]
    fn matured_runs_move_to_the_pool_from_the_flush_level() {
        let _epoch = epoch_exclusive();
        let pool = NodePool::new(true, POOL_CAP);
        let mut cache: RetireCache<u32> = RetireCache::new(true);
        let push = |cache: &mut RetireCache<u32>| {
            // SAFETY: freshly leaked nodes, each retired once.
            unsafe { cache.push(node(0), &pool) }
        };
        for _ in 0..FLUSH_AT {
            assert!(!push(&mut cache));
        }
        assert!(
            pool.steal().is_null(),
            "nothing leaves a cache below FLUSH_AT"
        );
        assert_eq!(cache.len(), FLUSH_AT);
        // From here each retirement nudges the epoch once, so with no
        // other pins the front ripens by the second one, which hands the
        // matured run over as one chain.
        let (mut pushed, mut chain) = (FLUSH_AT, ptr::null_mut());
        for _ in 0..2 {
            assert!(!push(&mut cache), "a cache below CACHE_CAP never overflows");
            pushed += 1;
            chain = pool.steal();
            if !chain.is_null() {
                break;
            }
        }
        let mut chained = 0;
        while !chain.is_null() {
            // SAFETY: the stolen chain is exclusively the test's.
            let n = unsafe { Box::from_raw(chain) };
            chain = n.next_free();
            chained += 1;
        }
        assert!(
            chained > 0,
            "a cache past FLUSH_AT must flush once its front matures"
        );
        assert_eq!(cache.len() + chained, pushed, "every node accounted for");
        cache.drain();
    }
}
