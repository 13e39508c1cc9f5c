//! The queue-wide node freelist.
//!
//! Each queue owns one [`NodePool`]. A node enters it when either side
//! of the two-token disposal gate observes both tokens — the hazard
//! scan found the node uncovered *and* its dequeue owner took the value
//! (see `crate::hazard`) — so a pooled node is exclusively owned: no
//! thread can still reach it through the queue. Handles allocate from a private [`Stash`]
//! refilled by stealing the *whole* list, so the pool carries nodes from
//! the thread that retires them (a consumer) to the thread that needs
//! them (a producer).
//!
//! The steal-all shape makes the freelist sound without tags: a push
//! links nodes it owns (write the tail's link, then CAS the head — the
//! ABA-immune Treiber *push*), and a steal detaches the whole list with
//! one swap and walks it privately. Nothing dereferences a node still
//! reachable from the shared head, so the Treiber *pop* ABA cannot arise.

use std::ptr;

use kp_sync::atomic::{AtomicIsize, AtomicPtr, AtomicUsize, Ordering};

use crate::chaos_hooks::inject;

/// Push attempts before giving up and freeing the nodes instead. The
/// bound keeps a push wait-free (it runs inside queue operations, from
/// the hazard scan or a stash trim); losing the race this many times
/// just means other threads are filling or draining the pool, so
/// dropping our nodes costs little.
const PUSH_ATTEMPTS: usize = 8;

/// A heap node that can sit on a [`NodePool`]: it carries a free-list
/// link that is meaningful only while pooled.
pub trait PoolNode: Sized {
    fn free_link(&self) -> &AtomicPtr<Self>;

    /// The free-list link. Relaxed, like [`set_next_free`]: a link is
    /// only read by the node's current exclusive owner, and links cross
    /// threads only inside a chain published by `push_chain`'s Release
    /// CAS and taken by `steal`'s Acquire swap.
    ///
    /// [`set_next_free`]: PoolNode::set_next_free
    fn next_free(&self) -> *mut Self {
        self.free_link().load(Ordering::Relaxed)
    }

    /// Sets the free-list link of a node the caller exclusively owns.
    fn set_next_free(&self, next: *mut Self) {
        self.free_link().store(next, Ordering::Relaxed);
    }
}

/// The shared node freelist (one per queue).
pub struct NodePool<N: PoolNode> {
    /// Treiber head, linked through [`PoolNode::free_link`].
    head: AtomicPtr<N>,
    /// Approximate population (maintained racily; only bounds growth).
    /// Signed: the races in `push_chain` and `steal` only under-count,
    /// possibly below zero.
    len: AtomicIsize,
    /// Size bound: a push is admitted only while the count is below it,
    /// so the pool holds at most about this plus a chain.
    cap: usize,
    /// Nodes freed instead of pooled while reuse was *on* — the pool
    /// was at its cap or the push-contention bound tripped. The
    /// memory-pressure backpressure signal (DESIGN.md §13); folded into
    /// `StatsSnapshot::cache_overflows` by the queue's `stats`. Counted
    /// here because pushes run from reclaim callbacks that have no
    /// access to the queue's `Stats`.
    overflows: AtomicUsize,
    reuse: bool,
}

impl<N: PoolNode> NodePool<N> {
    pub(crate) fn new(reuse: bool, cap: usize) -> Self {
        NodePool {
            head: AtomicPtr::new(ptr::null_mut()),
            len: AtomicIsize::new(0),
            cap,
            overflows: AtomicUsize::new(0),
            reuse,
        }
    }

    /// Nodes freed past the cap so far (see the `overflows` field).
    pub(crate) fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed) as u64
    }

    /// Whether a push would currently be admitted (advisory: the count
    /// is approximate).
    pub(crate) fn has_room(&self) -> bool {
        self.len.load(Ordering::Relaxed) < self.cap as isize
    }

    /// Takes ownership of one node.
    ///
    /// # Safety
    ///
    /// As for [`push_chain`](Self::push_chain) with a chain of one.
    pub(crate) unsafe fn release(&self, node: *mut N) {
        // SAFETY: forwarded from the caller.
        unsafe { self.push_chain(node, node, 1) };
    }

    /// Takes ownership of a chain of `n` nodes, `first` to `last`,
    /// linked through their free-list links (`last`'s is overwritten).
    /// One bounded CAS loop publishes the whole chain; on overflow,
    /// exhausted attempts or reuse disabled the chain is freed.
    ///
    /// # Safety
    ///
    /// The caller must hold every node of the chain exclusively —
    /// unlinked from the queue and unreachable to every other thread
    /// (the two-token gate's admission rule) — and give each up only once per
    /// lifetime generation. Nodes must be `Box` allocations.
    pub(crate) unsafe fn push_chain(&self, first: *mut N, last: *mut N, n: usize) {
        if self.reuse && self.has_room() {
            // Counted before it is published, so a steal's reset racing
            // this push can only under-count (the pool then briefly
            // holds one chain past the cap). Counted after, the reset
            // could land first and leave `n` phantom nodes on the count
            // — with long chains, enough to refuse every release until
            // the next steal.
            self.len.fetch_add(n as isize, Ordering::Relaxed);
            let mut head = self.head.load(Ordering::Relaxed);
            for _ in 0..PUSH_ATTEMPTS {
                inject!("kp.pool.release");
                // SAFETY: exclusive ownership (caller contract); the
                // Release CAS below orders this write — and the chain's
                // internal links, written before the call — before the
                // chain becomes reachable from the shared head.
                unsafe { (*last).set_next_free(head) };
                match self.head.compare_exchange_weak(
                    head,
                    first,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(h) => head = h,
                }
            }
            // Out of attempts: take the count back. A steal's reset
            // between the two leaves it below zero — an under-count,
            // like the race above.
            self.len.fetch_sub(n as isize, Ordering::Relaxed);
        }
        // Overflow, contention bound hit, or reuse disabled: free. Safe
        // precisely because no stealer ever dereferences shared nodes —
        // the chain was never published, or we own it again. With reuse
        // on this is the backpressure path — count it.
        if self.reuse {
            self.overflows.fetch_add(n, Ordering::Relaxed);
        }
        let mut cur = first;
        for _ in 0..n {
            // SAFETY: exclusive ownership (caller contract); the link is
            // read before the node is freed.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next_free();
        }
    }

    /// Detaches the entire freelist and returns its head; the caller
    /// owns every node on it (linked via `next_free`, null-terminated).
    pub(crate) fn steal(&self) -> *mut N {
        // An empty pool is only read: the swap would write the head
        // line that pushes contend on.
        if !self.reuse || self.head.load(Ordering::Relaxed).is_null() {
            return ptr::null_mut();
        }
        inject!("kp.pool.steal");
        // Acquire pairs with push_chain's Release CAS: the private walk
        // that follows sees every link written before publish.
        let head = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        if !head.is_null() {
            // Racy vs concurrent pushes, which count themselves first:
            // at worst the pool briefly holds one chain more than the
            // count says. Growth stays bounded.
            self.len.store(0, Ordering::Relaxed);
        }
        head
    }
}

impl<N: PoolNode> Drop for NodePool<N> {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access in Drop; freelist nodes are owned
            // by the pool and appear nowhere else.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next_free();
        }
    }
}

/// A handle's private run of nodes stolen from the pool, linked through
/// their free-list links. Every node on it is exclusively the handle's.
pub struct Stash<N> {
    head: *mut N,
}

impl<N: PoolNode> Stash<N> {
    pub(crate) fn new() -> Self {
        Stash {
            head: ptr::null_mut(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// The next private node, stealing the whole pool when the stash is
    /// empty.
    pub(crate) fn take(&mut self, pool: &NodePool<N>) -> Option<*mut N> {
        if self.head.is_null() {
            self.head = pool.steal();
            if self.head.is_null() {
                return None;
            }
        }
        let node = self.head;
        // SAFETY: stash nodes are exclusively ours.
        self.head = unsafe { (*node).next_free() };
        Some(node)
    }

    /// Cuts the stash after `keep` (at least one) nodes and returns the
    /// rest to the pool one node at a time, so each release re-checks
    /// the cap.
    pub(crate) fn trim(&mut self, keep: usize, pool: &NodePool<N>) {
        if self.head.is_null() {
            return;
        }
        // SAFETY: stash nodes are exclusively ours; each surplus node's
        // link is read before the pool takes the node.
        unsafe {
            let mut last = self.head;
            for _ in 1..keep {
                let next = (*last).next_free();
                if next.is_null() {
                    return;
                }
                last = next;
            }
            let mut rest = (*last).next_free();
            (*last).set_next_free(ptr::null_mut());
            while !rest.is_null() {
                let node = rest;
                rest = (*node).next_free();
                pool.release(node);
            }
        }
    }

    /// Hands every stashed node back to the pool as one chain (handle
    /// exit); what the pool will not take is freed.
    pub(crate) fn give_back(&mut self, pool: &NodePool<N>) {
        let first = std::mem::replace(&mut self.head, ptr::null_mut());
        if first.is_null() {
            return;
        }
        let (mut last, mut n) = (first, 1);
        // SAFETY: stash nodes are exclusively ours.
        unsafe {
            while !(*last).next_free().is_null() {
                (last, n) = ((*last).next_free(), n + 1);
            }
            pool.push_chain(first, last, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    fn node(v: u32) -> *mut Node<u32> {
        Node::boxed(Some(v), 0)
    }

    /// Frees the null-terminated list at `cur`, returning its values.
    fn collect(mut cur: *mut Node<u32>) -> Vec<u32> {
        let mut got = Vec::new();
        while !cur.is_null() {
            // SAFETY: the list is exclusively the test's; each node is
            // freed exactly once, after its link is read.
            let n = unsafe { Box::from_raw(cur) };
            cur = n.next_free();
            got.push(n.value.into_inner().unwrap());
        }
        got
    }

    #[test]
    fn chains_and_single_nodes_push_and_steal_whole() {
        let pool = NodePool::new(true, 16);
        let (a, b, c) = (node(1), node(2), node(3));
        // SAFETY: freshly leaked nodes, linked a→b→c while private.
        unsafe {
            (*a).set_next_free(b);
            (*b).set_next_free(c);
            pool.push_chain(a, c, 3);
            pool.release(node(4));
        }
        assert_eq!(collect(pool.steal()), [4, 1, 2, 3]);
        assert!(pool.steal().is_null(), "list is empty after steal");
    }

    #[test]
    fn reuse_disabled_frees_immediately() {
        let pool = NodePool::new(false, 16);
        // SAFETY: freshly leaked; with reuse off, release frees it.
        unsafe { pool.release(node(0)) };
        assert!(pool.steal().is_null());
        assert_eq!(pool.overflows(), 0, "reuse off is not pressure");
    }

    #[test]
    fn stashes_take_the_pool_whole_and_trim_or_hand_back_the_rest() {
        let pool = NodePool::new(true, 16);
        for v in 0..10 {
            // SAFETY: freshly leaked, uniquely owned nodes.
            unsafe { pool.release(node(v)) };
        }
        let mut stash = Stash::new();
        let first = stash.take(&pool).unwrap();
        assert!(pool.steal().is_null(), "a stash takes the whole pool");
        stash.trim(3, &pool);
        assert_eq!(collect(pool.steal()).len(), 6, "10 = 1 + 3 kept + 6 back");
        let kept: Vec<_> = (0..3).map(|_| stash.take(&pool).unwrap()).collect();
        assert!(stash.take(&pool).is_none(), "stash and pool both empty");
        for n in kept.into_iter().chain([first]) {
            // SAFETY: taken from the stash, so exclusively ours.
            unsafe { pool.release(n) };
        }
        let mut whole = Stash::new();
        let n = whole.take(&pool).unwrap();
        // SAFETY: as above.
        unsafe { pool.release(n) };
        whole.give_back(&pool);
        assert_eq!(collect(pool.steal()).len(), 4, "exit hands the stash back");
    }
}
