//! The bounded-memory gate: wCQ under a stalled reader (ISSUE 7,
//! DESIGN.md §14.4).
//!
//! The experiment the KP engine fundamentally cannot win: register a
//! consumer, let it go silent, and keep producing. KP allocates a node
//! per enqueue, so the backlog grows the live heap without bound (the
//! reclamation schemes bound *garbage*, not *backlog*). wCQ allocated
//! its data array and both index rings at construction; a producer that
//! outruns the dead consumer hits `Full` and is rejected, so live heap
//! growth is exactly zero and steady-state operation is allocation-free.
//!
//! One `#[test]` function: the `alloc-track` counters are
//! process-global, so parallel tests in this binary would race them.

use kp_channel::{Channel, ChannelConfig, OverloadConfig, TrySendError};
use kp_queue::Config as KpConfig;
use kp_queue::{ConcurrentQueue, QueueHandle, WfQueue};
use wcq::{Config as WcqConfig, WcQueue};

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

/// Items offered while the reader stalls — far above the wCQ capacity,
/// so the cap is what stops growth, not the workload size.
const OFFERED: usize = 50_000;
const WCQ_CAPACITY: usize = 1 << 11;

/// One full stalled-reader run on a fresh ring; returns (live-byte,
/// allocation-count) deltas over the measured window. The functional
/// assertions (ring filled, order preserved on drain) stay inside.
fn wcq_stalled_reader_run() -> (isize, isize) {
    let q: WcQueue<u64> = WcQueue::with_config(2, WcqConfig::new().with_capacity(WCQ_CAPACITY));
    let _stalled_reader = q.register().unwrap();
    let mut producer = q.register().unwrap();
    // Warm: a few accepted enqueues before the mark, so lazy one-time
    // initialization (if any ever appears) is not mistaken for growth.
    for i in 0..16 {
        producer.try_enqueue(i).unwrap();
    }
    let mark_bytes = alloc_track::live_bytes() as isize;
    let mark_allocs = alloc_track::total_allocs() as isize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for i in 0..OFFERED {
        match producer.try_enqueue(16 + i as u64) {
            Ok(()) => accepted += 1,
            Err(_full) => rejected += 1,
        }
    }
    let live_delta = alloc_track::live_bytes() as isize - mark_bytes;
    let alloc_delta = alloc_track::total_allocs() as isize - mark_allocs;
    // The ring really filled: everything beyond capacity was rejected,
    // nothing was silently dropped.
    assert_eq!(accepted, WCQ_CAPACITY - 16, "accepted up to capacity");
    assert_eq!(accepted + rejected, OFFERED);
    drop(producer);

    // The stalled reader waking up drains every accepted item, in order.
    let mut reader = q.register().unwrap();
    for expect in 0..(16 + accepted) as u64 {
        assert_eq!(reader.dequeue(), Some(expect));
    }
    assert_eq!(reader.dequeue(), None);
    drop(reader);
    (live_delta, alloc_delta)
}

#[test]
fn stalled_reader_memory_is_bounded_for_wcq_not_for_kp() {
    // --- wCQ: live heap must not grow at all --------------------------
    // The process-global counters can catch one-time lazy initialization
    // from outside the queue (libtest's machinery, std internals) inside
    // the measured window; a second fresh run cannot blame it, while a
    // genuinely allocating op path fails both runs.
    let (mut live_delta, mut alloc_delta) = wcq_stalled_reader_run();
    if live_delta != 0 || alloc_delta != 0 {
        (live_delta, alloc_delta) = wcq_stalled_reader_run();
    }
    assert_eq!(live_delta, 0, "wCQ live heap grew under a stalled reader");
    assert_eq!(alloc_delta, 0, "wCQ allocated on the enqueue path");

    // --- KP engine: the same workload grows the live heap -------------
    // A node per enqueue is the design (that is what reclamation is
    // for); under a stalled reader that becomes unbounded backlog. The
    // floor asserted here is deliberately loose — one pointer-word per
    // item — reality is several words per node.
    let floor = (OFFERED * std::mem::size_of::<usize>()) as isize;

    {
        let q: WfQueue<u64> = WfQueue::with_config(2, KpConfig::opt_both());
        let _stalled_reader = q.register().unwrap();
        let mut producer = q.register().unwrap();
        let mark = alloc_track::live_bytes() as isize;
        for i in 0..OFFERED {
            producer.enqueue(i as u64);
        }
        let growth = alloc_track::live_bytes() as isize - mark;
        assert!(
            growth >= floor,
            "wf backlog should grow the heap (grew {growth}, floor {floor})"
        );
    }

    // --- KP behind the admission gate: backlog bounded by the quota ---
    // The DESIGN.md §16 claim: an unbounded engine plus a soft depth
    // quota behaves like a bounded one under a stalled consumer — the
    // gate converts enqueues into `Full` refusals once the shard holds
    // `quota` values, so live-heap growth is proportional to the quota,
    // not to the offered load, and the refusal path itself is
    // allocation-free (a gauge read and a compare, no node is built).
    {
        const QUOTA: usize = 256;
        let chan: Channel<u64, WfQueue<u64>> = Channel::kp(
            ChannelConfig::new()
                .with_shards(1)
                .with_max_senders(1)
                .with_max_receivers(1)
                .with_overload(OverloadConfig::disabled().with_depth_quota(QUOTA)),
        );
        let mut rx = chan.receiver(); // stalled: never drains during the window
        let mut tx = chan.sender();
        // Warm: a few accepted sends before the mark (first-touch lazy
        // state: the engine's first nodes, hazard record, etc.).
        for i in 0..16u64 {
            tx.try_send(i).unwrap();
        }
        let mark = alloc_track::live_bytes() as isize;
        let mut accepted = 16usize;
        let mut refused = 0usize;
        let mut refusal_alloc_mark = None::<isize>;
        for i in 16..OFFERED {
            match tx.try_send(i as u64) {
                Ok(()) => accepted += 1,
                Err(TrySendError::Full(_)) => {
                    // From the first refusal on, the shard is saturated:
                    // every further offered value must run the
                    // allocation-free refusal path.
                    refusal_alloc_mark
                        .get_or_insert_with(|| alloc_track::total_allocs() as isize);
                    refused += 1;
                }
                Err(TrySendError::Disconnected(_)) => unreachable!("receiver is live"),
            }
        }
        let growth = alloc_track::live_bytes() as isize - mark;
        assert!(refused > 0, "the quota never engaged over {OFFERED} offers");
        assert!(
            accepted <= QUOTA + 2,
            "gate admitted {accepted} values against a soft quota of {QUOTA}"
        );
        // Generous per-node budget (node + descriptor amortization);
        // the point is the bound scales with QUOTA, not with OFFERED.
        let quota_bound = (QUOTA as isize + 64) * 256;
        assert!(
            growth <= quota_bound,
            "gated backlog grew {growth} bytes (bound {quota_bound}) — \
             admission control failed to bound the live heap"
        );
        assert!(
            growth < floor / 4,
            "gated KP grew {growth}, within 4x of the ungated floor {floor}"
        );
        let refusal_allocs =
            alloc_track::total_allocs() as isize - refusal_alloc_mark.unwrap();
        assert_eq!(refusal_allocs, 0, "the refusal path allocated");

        // The stalled consumer waking: everything accepted is there, in
        // order, exactly once.
        for expect in 0..accepted as u64 {
            assert_eq!(rx.try_recv(), Ok(expect));
        }
        assert!(rx.try_recv().is_err());
    }
}
