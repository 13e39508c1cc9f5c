//! Allocation regression guard: the steady-state hot path of both
//! queue variants must not touch the heap.
//!
//! The descriptor-reuse design (packed `StateSlot` words + node
//! recycling) exists to make `enqueue`/`dequeue` allocation-free after
//! warm-up. This test pins that property with a counting global
//! allocator: a regression that reintroduces an allocation per
//! operation (a boxed descriptor, an epoch-bag push, a `Vec` growth in
//! the hazard scan) fails loudly here instead of showing up as a
//! throughput mystery in the benchmarks.
//!
//! Everything runs inside ONE `#[test]` function: the allocation
//! counters are process-global, so concurrently running tests in the
//! same binary (the default harness behaviour) would make a strict
//! zero-delta assertion racy.

use std::sync::Barrier;

use kp_queue::{Config, ConcurrentQueue, QueueHandle, WfQueue, WfQueueHp};
use kp_sync::atomic::{AtomicU64, Ordering};

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

/// Operations to run before measuring: fills the node caches, matures
/// the epoch-tagged recycle queue, and sizes every internal scratch
/// buffer (hazard scan vectors, retire lists).
const WARMUP: usize = 20_000;

/// Operations inside the measured window.
const WINDOW: usize = 20_000;

fn measure<F: FnMut()>(mut op: F) -> usize {
    let before = alloc_track::total_allocs();
    for _ in 0..WINDOW {
        op();
    }
    alloc_track::total_allocs() - before
}

#[test]
fn steady_state_is_allocation_free() {
    // --- Epoch variant, single-threaded balanced pairs -------------
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both());
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert_eq!(
        allocs, 0,
        "epoch variant: {allocs} heap allocations in {WINDOW} steady-state enqueue+dequeue pairs"
    );
    drop(h);
    drop(q);

    // --- HP variant, single-threaded balanced pairs ----------------
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, Config::opt_both());
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert_eq!(
        allocs, 0,
        "HP variant: {allocs} heap allocations in {WINDOW} steady-state enqueue+dequeue pairs"
    );
    drop(h);
    drop(q);

    // --- Reuse OFF must still allocate (the guard guards something) -
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both().with_reuse(false));
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert!(
        allocs >= WINDOW,
        "with reuse disabled every enqueue should heap-allocate a node (saw {allocs})"
    );
    drop(h);
    drop(q);

    // --- Multi-threaded bounds --------------------------------------
    // The two variants give different guarantees under contention, and
    // the gap is the paper's §3.4 argument made empirical:
    //
    //  * HP: a preempted thread blocks reclamation of at most the ≤2
    //    nodes its hazard slots cover, so recycling keeps up and the
    //    allocation rate stays vanishingly small (<1% of ops).
    //  * Epoch: a thread descheduled while pinned stalls the global
    //    epoch for its whole timeslice; `pop_mature` then refuses to
    //    recycle and enqueues *correctly* fall back to fresh heap nodes
    //    rather than block (reclamation is lock-free, not wait-free).
    //    On an oversubscribed host the worst case is one allocation per
    //    enqueue — 0.5 allocs/op on balanced pairs, which is exactly
    //    the plateau the BENCH_PR3 contended epoch rows sit at (~0.44).
    //    The bound below is that ceiling plus 50% headroom for epoch-
    //    bag and scope bookkeeping: 0.75 allocs/op. Tightening it
    //    further would make the test hostage to scheduler luck.
    let threads = 4;
    let per = 10_000u64;

    let q: WfQueueHp<u64> = WfQueueHp::with_config(threads, Config::opt_both());
    let hp_allocs = contended_window_allocs(&q, threads, per);
    let total_ops = threads as u64 * per * 2;
    assert!(
        hp_allocs < total_ops / 100,
        "HP variant under contention: {hp_allocs} allocations across {total_ops} ops"
    );

    let q: WfQueue<u64> = WfQueue::with_config(threads, Config::opt_both());
    let epoch_allocs = contended_window_allocs(&q, threads, per);
    assert!(
        epoch_allocs < total_ops * 3 / 4,
        "epoch variant under contention exceeded the one-node-per-enqueue \
         ceiling plus headroom: {epoch_allocs} across {total_ops} ops"
    );

    // --- Post-contention recovery -----------------------------------
    // The contended fallback must be transient, not a ratchet: once the
    // preempted pins are gone, `pop_mature`'s advance nudges ripen the
    // cache again and the very same queue returns to the zero-alloc
    // steady state on a single thread.
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert_eq!(
        allocs, 0,
        "epoch variant did not recover the allocation-free steady state \
         after contention: {allocs} allocations in {WINDOW} pairs"
    );
    drop(h);
    drop(q);

    // --- Role split: one producer thread, one consumer thread --------
    // Nodes retire on the consumer and are needed on the producer, so
    // only the queue's shared node pool can carry them back. Without it
    // the epoch variant allocated one node per message (the consumer's
    // cache overflowed into the collector) while the HP variant's pool
    // already recycled.
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::fast());
    let epoch_rate = role_split_allocs_per_msg(&q);
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, Config::fast());
    let hp_rate = role_split_allocs_per_msg(&q);
    eprintln!("role split allocs/msg: epoch {epoch_rate:.4}, hp {hp_rate:.4}");
    assert!(
        epoch_rate < 0.25,
        "epoch variant, 1 producer + 1 consumer: {epoch_rate:.3} allocs/msg"
    );
    assert!(
        hp_rate < 0.25,
        "HP variant, 1 producer + 1 consumer: {hp_rate:.3} allocs/msg"
    );
}

/// Messages each producer may run ahead of its consumer. Bounding the
/// backlog is what makes a steady state exist: nodes still queued are
/// live and cannot be recycled by anyone.
const MAX_BACKLOG: u64 = 64;

/// One producer thread enqueues and one consumer thread dequeues
/// `WARMUP` then `WINDOW` messages; returns heap allocations per
/// message in the second phase. Both threads meet at barriers around
/// the window so spawn, registration and handle exit stay outside it.
fn role_split_allocs_per_msg<Q>(q: &Q) -> f64
where
    Q: ConcurrentQueue<u64> + Sync,
{
    let (warm, total) = (WARMUP as u64, (WARMUP + WINDOW) as u64);
    let received = AtomicU64::new(0);
    let gate = Barrier::new(3);
    let mut allocs = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().unwrap();
            for i in 0..total {
                if i == warm {
                    gate.wait(); // warm-up done
                    gate.wait(); // window opened
                }
                while i - received.load(Ordering::Acquire) >= MAX_BACKLOG {
                    std::thread::yield_now();
                }
                h.enqueue(i);
            }
            gate.wait(); // all sent
            gate.wait(); // window closed
        });
        s.spawn(|| {
            let mut h = q.register().unwrap();
            for i in 0..total {
                if i == warm {
                    gate.wait();
                    gate.wait();
                }
                let v = loop {
                    match h.dequeue() {
                        Some(v) => break v,
                        None => std::hint::spin_loop(),
                    }
                };
                assert_eq!(v, i, "single producer: FIFO");
                received.store(i + 1, Ordering::Release);
            }
            gate.wait();
            gate.wait();
        });
        gate.wait();
        let before = alloc_track::total_allocs();
        gate.wait();
        gate.wait();
        allocs = alloc_track::total_allocs() - before;
        gate.wait();
    });
    allocs as f64 / WINDOW as f64
}

/// Warm the queue with one full round, then count process-wide heap
/// allocations across a second, identical round. Thread spawn and
/// registration allocate, so the count is an over-approximation — fine
/// for the loose contended bounds above.
fn contended_window_allocs<Q>(q: &Q, threads: usize, per: u64) -> u64
where
    Q: kp_queue::ConcurrentQueue<u64> + Sync,
{
    use kp_queue::QueueHandle;
    for round in 0..2 {
        if round == 1 {
            ALLOC_MARK.store(alloc_track::total_allocs(), kp_sync::atomic::Ordering::Relaxed);
        }
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut h = q.register().unwrap();
                    for i in 0..per {
                        h.enqueue(i);
                        h.dequeue();
                    }
                });
            }
        });
    }
    (alloc_track::total_allocs() - ALLOC_MARK.load(kp_sync::atomic::Ordering::Relaxed)) as u64
}

static ALLOC_MARK: kp_sync::atomic::AtomicUsize = kp_sync::atomic::AtomicUsize::new(0);
