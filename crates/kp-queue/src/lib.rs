//! The Kogan–Petrank wait-free MPMC FIFO queue (PPoPP 2011) — the
//! paper's primary contribution, transcribed from the Java listings of
//! Figures 1–6 into Rust.
//!
//! # Algorithm
//!
//! The queue extends Michael & Scott's lock-free queue with a
//! priority-based *helping* scheme:
//!
//! 1. A thread starting an operation picks a **phase** number greater
//!    than (or equal to — ties are benign) every phase picked before it,
//!    Bakery-doorway style, and publishes an operation descriptor in the
//!    shared `state` array.
//! 2. It then **helps** every thread whose descriptor is pending with a
//!    phase ≤ its own (so operations older than it are finished before it
//!    returns), and finally returns once its own descriptor is no longer
//!    pending.
//! 3. Each operation is split into **three atomic steps** so that any
//!    number of helpers can share the work without applying it twice:
//!    append-node / clear-pending / swing-tail for `enqueue`, and
//!    lock-sentinel (`deqTid` CAS) / clear-pending / swing-head for
//!    `dequeue`, with an extra descriptor-points-at-sentinel stage that
//!    resolves the empty-queue race.
//!
//! Because a thread returns only after every operation with a phase not
//! exceeding its own is linearized, each call completes in a bounded
//! number of steps regardless of scheduling: **wait-freedom**.
//!
//! # Variants
//!
//! The paper evaluates the base algorithm plus two optimizations (§3.3),
//! all expressible through [`Config`]:
//!
//! | Paper label | Constructor | Meaning |
//! |---|---|---|
//! | `base WF` | [`Config::base()`] | help all peers; phase = `maxPhase()+1` scan |
//! | `opt WF (1)` | [`Config::opt1()`] | help at most one peer per operation, cyclically |
//! | `opt WF (2)` | [`Config::opt2()`] | phase from an atomic counter |
//! | `opt WF (1+2)` | [`Config::opt_both()`] | both |
//!
//! plus [`HelpPolicy::RandomChunk`] (the paper's "random chunk" remark,
//! probabilistic wait-freedom) and the `validate_before_cas` enhancement.
//!
//! # Memory management
//!
//! The paper's base algorithm leans on the Java GC; §3.4 prescribes
//! hazard pointers for non-GC runtimes, and §3.3 recommends reusing
//! descriptor objects rather than allocating per transition. This
//! implementation follows both, so memory management is wait-free like
//! the queue operations (a stalled thread pins at most two nodes), and
//! the steady state is **allocation-free**:
//!
//! * **Descriptors are not heap objects.** Each `state[tid]` entry is a
//!   cache-padded pair of atomic words (packed
//!   pending/enqueue/node-address plus a version tag, and the phase) —
//!   see `desc.rs`. Transitions are in-place CASes that bump the
//!   version, so a helper CAS armed with a stale view fails even when
//!   node recycling makes the *fields* reappear.
//! * **Nodes are recycled.** A retired sentinel becomes reusable once
//!   both tokens of its disposal gate are set: a hazard scan found it
//!   uncovered, and its dequeue owner took the value (the completed
//!   dequeue word names this *value node*, see `hazard.rs`). Reusable
//!   nodes reach every thread's enqueues through one queue-wide node
//!   pool, so a consumer's retirements feed a producer.
//!
//! Source map: `queue.rs` (shared structure, Figures 2, 4 and 6, fast
//! path, reap), `handle.rs` (entry points, helping policies, recovery,
//! exit), `hazard.rs` (hazard slots and the disposal gate), `pool.rs`
//! (the node pool) and `desc.rs` (the packed descriptors).
//!
//! See DESIGN.md for the substitution rationale and the full
//! descriptor-memory discussion.
//!
//! # Thread identities
//!
//! `NUM_THRDS` in the paper becomes the `max_threads` constructor
//! argument. Threads acquire a slot by calling
//! [`register`](ConcurrentQueue::register),
//! which draws a virtual ID from a wait-free long-lived-renaming pool
//! (`idpool`), the relaxation §3.3 describes; dropping the handle
//! releases the slot.
//!
//! # Memory ordering
//!
//! The seed used blanket `SeqCst`, matching the Java `volatile`
//! semantics of the paper's listings. The orderings have since been
//! audited; the surprising outcome is that most hot loads must *stay*
//! SeqCst once descriptors and nodes are reused:
//!
//! | Site | Ordering | Why |
//! |---|---|---|
//! | phase scan (`max_phase`) | SeqCst | Bakery doorway: every phase chosen before the scan must be visible to it (Lemma 1) |
//! | `is_still_pending`, `help_index` gate | SeqCst | helping obligation: an Acquire-stale "not pending" would let helpers decline to help a pending op (Lemma 2) |
//! | L73 descriptor read in `help_enq` | SeqCst | single-read append argument, extended to recycling (see `queue.rs`) |
//! | L90/L146 reads in `help_finish_*` | SeqCst | with reuse, an Acquire-stale *completed* word can equal the transition target field-for-field and no-op-skip step 2, swinging tail/head while the real op is still pending |
//! | slot publish/reset/transition | SeqCst | doorway visibility + the SC chains above terminate at these stores |
//! | `is_empty` probe | Acquire | advisory diagnostic; only needs initialised-node visibility |
//! | owner's dequeue epilogue (L103–107) | Acquire | reads the thread's own completed slot; freshness follows from the SeqCst loop exit plus coherence |
//! | stats counters | Relaxed | monotone counters, no synchronisation role |
//!
//! Each relaxation (and each forced non-relaxation) is documented at
//! its site in `queue.rs`/`desc.rs` with the counterexample that pins
//! it down.
//!
//! # Example
//!
//! ```
//! use kp_queue::{Config, WfQueue};
//! use kp_queue::{ConcurrentQueue, QueueHandle};
//!
//! let q: WfQueue<u64> = WfQueue::with_config(8, Config::opt_both());
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let q = &q;
//!         s.spawn(move || {
//!             let mut h = q.register().unwrap();
//!             for i in 0..100 {
//!                 h.enqueue(t * 1000 + i);
//!             }
//!         });
//!     }
//! });
//! let mut h = q.register().unwrap();
//! let mut n = 0;
//! while h.dequeue().is_some() {
//!     n += 1;
//! }
//! assert_eq!(n, 400);
//! ```


#![warn(missing_docs)]

mod chaos_hooks;
mod config;
mod desc;
mod handle;
mod hazard;
mod node;
mod pool;
mod queue;
mod reap;
mod stats;

pub use config::{Config, HelpPolicy, PhasePolicy};
pub use handle::{PendingOp, WfHandle};
pub use queue::WfQueue;
pub use stats::StatsSnapshot;

/// The queue under its hazard-pointer name ([`WfQueue`] is the one
/// queue; it always ran hazard pointers under this name).
pub type WfQueueHp<T> = WfQueue<T>;

/// [`WfHandle`] under its hazard-pointer name.
pub type WfHpHandle<'q, T> = WfHandle<'q, T>;

/// [`PendingOp`] under its hazard-pointer name (test infrastructure).
#[doc(hidden)]
pub type PendingOpHp<'h, 'q, T> = PendingOp<'h, 'q, T>;

/// The hazard-pointer names under their module path.
pub mod hp {
    pub use crate::{PendingOpHp, WfHpHandle, WfQueueHp};
}

pub use queue_traits::{ConcurrentQueue, QueueHandle, RegistrationError};

#[cfg(test)]
mod tests;
