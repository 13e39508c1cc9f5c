//! Dynamic thread populations via long-lived renaming (paper §3.3).
//!
//! The base algorithm assumes threads own fixed IDs in
//! `0..NUM_THRDS`. §3.3 relaxes this: threads may "get and release
//! (virtual) IDs from a small name space through … long-lived wait-free
//! renaming". In this implementation that is exactly what
//! `WfQueue::register` does — the `idpool` crate is the renaming
//! algorithm, and dropping a handle releases the name.
//!
//! This example runs three *generations* of short-lived worker threads
//! (more total threads than the queue has slots) against one queue,
//! demonstrating slot reuse, plus a rejected registration when a
//! generation oversubscribes on purpose.
//!
//! ```text
//! cargo run --release --example dynamic_threads
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use wfq_repro::kp_queue::{ConcurrentQueue, WfQueue};

const SLOTS: usize = 4;
const GENERATIONS: usize = 3;
const WORKERS_PER_GEN: usize = 4; // == SLOTS: each generation fills the pool
const ITEMS_PER_WORKER: usize = 5_000;

fn main() {
    let mut queue: WfQueue<u64> = WfQueue::new(SLOTS);
    let balance = AtomicU64::new(0);

    for generation in 0..GENERATIONS {
        std::thread::scope(|s| {
            for worker in 0..WORKERS_PER_GEN {
                let queue = &queue;
                let balance = &balance;
                s.spawn(move || {
                    // A fresh OS thread takes whatever virtual ID is
                    // free — IDs released by the previous generation.
                    let mut h = queue
                        .register()
                        .expect("previous generation released its slots");
                    for i in 0..ITEMS_PER_WORKER {
                        h.enqueue((generation * 1000 + worker) as u64 + i as u64);
                        if let Some(v) = h.dequeue() {
                            balance.fetch_add(v % 7, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        println!(
            "generation {generation}: {} worker threads came and went (queue len now {})",
            WORKERS_PER_GEN,
            queue.len_approx()
        );
    }

    // A 5th simultaneous registration must be rejected while 4 are held…
    let held: Vec<_> = (0..SLOTS).map(|_| queue.register().unwrap()).collect();
    match queue.register() {
        Err(e) => println!("oversubscription correctly rejected: {e}"),
        Ok(_) => unreachable!("capacity {SLOTS} exceeded"),
    }
    // …and succeed again as soon as one handle is dropped.
    drop(held);
    let again = queue.register().expect("slots recycled");
    println!(
        "slot {} reacquired after release; total ops served = {}",
        again.tid(),
        queue.stats().ops()
    );
    println!("balance (checksum): {}", balance.load(Ordering::Relaxed));
}
