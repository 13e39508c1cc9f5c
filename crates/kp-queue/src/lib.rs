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
//! # One algorithm, two reclamation backends
//!
//! Figures 1–6, the §3.3 policies, the fast path (DESIGN.md §12), unwind
//! recovery, handle exit and the abandoned-handle reaper (DESIGN.md §13)
//! are written once, over a reclamation backend that supplies only what
//! differs — how a head/tail load is protected, where an unlinked
//! sentinel goes, where an enqueue finds a reusable node, and how a dead
//! handle's participation is quarantined:
//!
//! | Type | Backend | Progress of reclamation |
//! |---|---|---|
//! | [`WfQueue`] / [`WfHandle`] | epochs (crossbeam-style pins) | lock-free: one stalled pin stalls all reclamation |
//! | [`WfQueueHp`] / [`WfHpHandle`] | hazard pointers (the paper's §3.4) | wait-free: a stalled thread pins at most two nodes |
//!
//! Both run the identical protocol, including the node hand-off: a
//! completed dequeue's descriptor word names the *value node*, which
//! the owner's pin (epochs) or a two-token disposal gate (hazard
//! pointers) keeps allocated until the owner took the value.
//!
//! Source map: the core is `queue.rs` (shared structure, Figures 2, 4
//! and 6, fast path, reap) and `handle.rs` (entry points, helping
//! policies, recovery, exit); the seam is `reclaim.rs`; the backends
//! are `epoch.rs` and `hazard.rs`.
//!
//! # Memory management
//!
//! The paper's base algorithm leans on the Java GC; §3.4 discusses
//! non-GC runtimes, and §3.3 recommends reusing descriptor objects
//! rather than allocating per transition. This implementation follows
//! both through to an **allocation-free steady state**:
//!
//! * **Descriptors are not heap objects.** Each `state[tid]` entry is a
//!   cache-padded pair of atomic words (packed
//!   pending/enqueue/node-address plus a version tag, and the phase) —
//!   see `desc.rs`. Transitions are in-place CASes that bump the
//!   version, so a helper CAS armed with a stale view fails even when
//!   node recycling makes the *fields* reappear.
//! * **Nodes are recycled.** A retired sentinel becomes reusable once
//!   the backend proves no thread can still reach it: under epochs when
//!   it matures in the retiring handle's cache (`tag + 2 <=
//!   global_epoch()`, the collector's own free rule), under hazard
//!   pointers when both disposal tokens are set. Reusable nodes a
//!   thread cannot use itself (a consumer's) reach other threads'
//!   enqueues through one queue-wide node pool.
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
//! | `len_approx` / `is_empty` walks | Acquire | advisory diagnostics; only need initialised-node visibility |
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
//!
//! [crossbeam-epoch]: https://docs.rs/crossbeam-epoch

#![warn(missing_docs)]

mod chaos_hooks;
mod config;
mod desc;
mod epoch;
mod handle;
mod hazard;
mod node;
mod pool;
mod queue;
mod reap;
mod reclaim;
mod stats;

pub use config::{Config, HelpPolicy, PhasePolicy};
pub use stats::StatsSnapshot;

/// The Kogan–Petrank wait-free MPMC FIFO queue with epoch-based
/// reclamation.
///
/// See the [crate documentation](crate) for the algorithm overview and
/// the paper-variant table. Construct with `WfQueue::new` (default
/// `opt WF (1+2)` configuration) or `WfQueue::with_config`, then call
/// [`register`](ConcurrentQueue::register) from each participating
/// thread.
pub type WfQueue<T> = queue::KpQueue<T, epoch::Epoch>;

/// A registered thread's handle to a [`WfQueue`].
pub type WfHandle<'q, T> = handle::KpHandle<'q, T, epoch::Epoch>;

/// The Kogan–Petrank wait-free queue with hazard-pointer reclamation
/// (paper §3.4): both the queue operations *and* memory management are
/// wait-free. Same API and [`Config`] variants as [`WfQueue`].
pub type WfQueueHp<T> = queue::KpQueue<T, hazard::Hazard>;

/// A registered thread's handle to a [`WfQueueHp`].
pub type WfHpHandle<'q, T> = handle::KpHandle<'q, T, hazard::Hazard>;

/// A stalled operation of a [`WfHandle`] (test infrastructure).
#[doc(hidden)]
pub type PendingOp<'h, 'q, T> = handle::KpPendingOp<'h, 'q, T, epoch::Epoch>;

/// A stalled operation of a [`WfHpHandle`] (test infrastructure).
#[doc(hidden)]
pub type PendingOpHp<'h, 'q, T> = handle::KpPendingOp<'h, 'q, T, hazard::Hazard>;

/// The hazard-pointer variant under its module path.
pub mod hp {
    pub use crate::{PendingOpHp, WfHpHandle, WfQueueHp};
}

pub use queue_traits::{ConcurrentQueue, QueueHandle, RegistrationError};

#[cfg(test)]
mod tests;
