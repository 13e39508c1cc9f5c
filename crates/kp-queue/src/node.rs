//! The linked-list node (paper Figure 1, `class Node`).

use kp_sync::atomic::{AtomicIsize, AtomicPtr, AtomicU8};
use std::cell::UnsafeCell;
use std::ptr;

use crate::pool::PoolNode;

/// `deqTid`'s "unlocked" value.
pub(crate) const NO_DEQUEUER: isize = -1;

/// `enq_tid` sentinel marking a node appended by the descriptor-free
/// fast path. Helpers reaching such a node in `help_finish_enq` must not
/// look for an owner descriptor (there is none): step 2 is skipped and
/// the tail is swung unconditionally. Distinct from `usize::MAX` (the
/// initial sentinel) so the two cases cannot be confused in debugging.
pub(crate) const FAST_ENQUEUER: usize = usize::MAX - 1;

/// `deq_tid` value a fast-path dequeue locks the sentinel with. Like
/// `FAST_ENQUEUER`, it tells `help_finish_deq` there is no descriptor to
/// complete (step 2 skipped); the head swing and sentinel retirement
/// proceed exactly as for a slow-path lock.
pub(crate) const FAST_DEQUEUER: isize = -2;

/// Set in [`Node::tokens`] by the dequeue owner once it took the value.
pub(crate) const TOKEN_CONSUMED: u8 = 1;
/// Set in [`Node::tokens`] by the hazard scan once no hazard covers the
/// retired node.
pub(crate) const TOKEN_RECLAIM_READY: u8 = 2;

/// A node of the queue's underlying singly-linked list.
///
/// Compared with the Michael–Scott node, the paper adds two fields that
/// let helpers identify *whose* operation a structural change belongs to:
///
/// * `enq_tid` — the (virtual) ID of the thread inserting this node,
///   written once at construction; helpers use it to find the owner's
///   entry in the `state` array (Figure 4, line 89).
/// * `deq_tid` — the ID of the thread whose dequeue removes this node
///   from the list, CASed from −1 exactly once (Figure 6, line 135);
///   this CAS is the linearization point of a successful dequeue.
///
/// The 64-byte alignment serves two masters: it lets the address pack
/// into a [`StateSlot`](crate::desc) ctrl word (`addr >> 6` fits the
/// 42-bit field), and it keeps recycled nodes from false-sharing.
#[repr(align(64))]
pub struct Node<T> {
    /// `None` in sentinels whose payload was already taken (and in the
    /// initial sentinel, which never had one). Taken exactly once, by
    /// the owner of the dequeue that locked this node's predecessor.
    pub(crate) value: UnsafeCell<Option<T>>,
    /// FIFO link. Null until the node's successor is appended.
    pub(crate) next: AtomicPtr<Node<T>>,
    /// Plain (non-atomic) because it is written only while the node is
    /// exclusively owned: at construction, or on reuse *before* the
    /// owner republishes it (see `WfHandle::alloc_node`). `usize::MAX`
    /// for the initial sentinel (never a dangling node, so never read).
    pub(crate) enq_tid: usize,
    pub(crate) deq_tid: AtomicIsize,
    /// The two-token disposal gate, [`TOKEN_CONSUMED`] |
    /// [`TOKEN_RECLAIM_READY`] (see `crate::hazard`).
    pub(crate) tokens: AtomicU8,
    /// Freelist link; meaningful only while the node is off the list:
    /// in the queue's `NodePool` or in a stash.
    pub(crate) free_next: AtomicPtr<Node<T>>,
}

impl<T> PoolNode for Node<T> {
    fn free_link(&self) -> &AtomicPtr<Self> {
        &self.free_next
    }
}

impl<T> Node<T> {
    /// A fresh heap node; freed with `Box::from_raw`.
    pub(crate) fn boxed(value: Option<T>, enq_tid: usize) -> *mut Self {
        Box::into_raw(Box::new(Node {
            value: UnsafeCell::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
            enq_tid,
            deq_tid: AtomicIsize::new(NO_DEQUEUER),
            tokens: AtomicU8::new(0),
            free_next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// The initial sentinel. Its `tokens` start with [`TOKEN_CONSUMED`]
    /// pre-set: a sentinel that never was a value node has no owner to
    /// consume it, so under hazard pointers the scan alone completes the
    /// gate and the node goes straight to the pool.
    pub(crate) fn sentinel() -> *mut Self {
        let node = Self::boxed(None, usize::MAX);
        // SAFETY: not yet shared.
        unsafe { (*node).tokens = AtomicU8::new(TOKEN_CONSUMED) };
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kp_sync::atomic::Ordering;

    #[test]
    fn fresh_node_is_unlocked_and_ungated() {
        let n = Node::boxed(Some(5u32), 3);
        // SAFETY: `n` is freshly leaked and exclusively owned by the test.
        unsafe {
            assert_eq!((*n).deq_tid.load(Ordering::Relaxed), NO_DEQUEUER);
            assert_eq!((*n).enq_tid, 3);
            assert_eq!((*n).tokens.load(Ordering::Relaxed), 0);
            assert_eq!((*(*n).value.get()).take(), Some(5));
            drop(Box::from_raw(n));
        }
    }

    #[test]
    fn sentinels_have_no_value_and_are_born_consumed() {
        let s: *mut Node<u32> = Node::sentinel();
        // SAFETY: `s` is freshly leaked and exclusively owned by the test.
        unsafe {
            assert!((*(*s).value.get()).is_none());
            assert_eq!((*s).enq_tid, usize::MAX);
            assert_eq!((*s).tokens.load(Ordering::Relaxed), TOKEN_CONSUMED);
            drop(Box::from_raw(s));
        }
    }

    #[test]
    fn node_alignment_matches_the_packed_word() {
        assert_eq!(std::mem::align_of::<Node<u8>>(), crate::desc::NODE_ALIGN);
        assert!(std::mem::align_of::<Node<[u64; 9]>>() >= crate::desc::NODE_ALIGN);
        // The token byte and the free-list link ride in the alignment
        // padding.
        assert_eq!(std::mem::size_of::<Node<u64>>(), 64);
    }
}
