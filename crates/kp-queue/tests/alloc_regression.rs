//! Allocation regression guard: the queue's steady-state hot path must
//! not touch the heap.
//!
//! The descriptor-reuse design (packed `StateSlot` words + node
//! recycling) exists to make `enqueue`/`dequeue` allocation-free after
//! warm-up. This test pins that property with a counting global
//! allocator: a regression that reintroduces an allocation per
//! operation (a boxed descriptor, a `Vec` growth in the hazard scan)
//! fails loudly here instead of showing up as a throughput mystery in
//! the benchmarks.
//!
//! Everything runs inside ONE `#[test]` function: the allocation
//! counters are process-global, so concurrently running tests in the
//! same binary (the default harness behaviour) would make a strict
//! zero-delta assertion racy.

use std::sync::Barrier;

use kp_queue::{Config, ConcurrentQueue, QueueHandle, WfQueue};
use kp_sync::atomic::{AtomicU64, Ordering};

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

/// Operations to run before measuring: fills the node pool and stashes,
/// and sizes every internal scratch buffer (hazard scan vectors, retire
/// lists).
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

/// Heap allocations over `WINDOW` single-threaded enqueue+dequeue pairs
/// on `q`, after `WARMUP` pairs.
fn balanced_pairs_allocs(q: &WfQueue<u64>) -> usize {
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    })
}

#[test]
fn steady_state_is_allocation_free() {
    // --- Single-threaded balanced pairs ------------------------------
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both());
    let allocs = balanced_pairs_allocs(&q);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations in {WINDOW} steady-state enqueue+dequeue pairs"
    );
    drop(q);

    // --- Reuse OFF must still allocate (the guard guards something) -
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both().with_reuse(false));
    let allocs = balanced_pairs_allocs(&q);
    assert!(
        allocs >= WINDOW,
        "with reuse disabled every enqueue should heap-allocate a node (saw {allocs})"
    );
    drop(q);

    // --- Multi-threaded bound ----------------------------------------
    // The paper's §3.4 argument made empirical: a preempted thread
    // blocks reclamation of at most the ≤2 nodes its hazard slots cover,
    // so recycling keeps up under contention and the allocation rate
    // stays vanishingly small (<1% of ops) even on an oversubscribed
    // host.
    let threads = 4;
    let per = 10_000u64;
    let q: WfQueue<u64> = WfQueue::with_config(threads, Config::opt_both());
    let allocs = contended_window_allocs(&q, threads, per);
    let total_ops = threads as u64 * per * 2;
    assert!(
        allocs < total_ops / 100,
        "under contention: {allocs} allocations across {total_ops} ops"
    );

    // --- Post-contention recovery -----------------------------------
    // Contention must not leave a ratchet: the very same queue returns
    // to the zero-alloc steady state on a single thread.
    let allocs = balanced_pairs_allocs(&q);
    assert_eq!(
        allocs, 0,
        "no allocation-free steady state after contention: {allocs} \
         allocations in {WINDOW} pairs"
    );
    drop(q);

    // --- Role split: one producer thread, one consumer thread --------
    // Nodes retire on the consumer and are needed on the producer, so
    // only the queue's shared node pool can carry them back.
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::fast());
    let rate = role_split_allocs_per_msg(&q);
    eprintln!("role split allocs/msg: {rate:.4}");
    assert!(rate < 0.25, "1 producer + 1 consumer: {rate:.3} allocs/msg");
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
