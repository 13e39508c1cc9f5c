//! Abandoned-handle reaper suite (DESIGN.md §13), fault-model half.
//!
//! These tests simulate *sudden death* — a thread that stops without
//! running any destructor — with the `begin_*_unhelped` test hooks plus
//! `mem::forget`: the descriptor stays pending, the virtual ID stays
//! claimed, and (for the epoch variant) a leaked pin can wedge
//! reclamation, exactly the state a SIGKILLed or leaked handle leaves
//! behind. The chaos-feature torture suite (tests/torture.rs) covers
//! the *unwind* half of the fault model, where panic recovery runs.
//!
//! What must then hold with the reaper enabled:
//!
//! * survivors complete the victim's pending operation (by ordinary
//!   helping, or by the reaper's adoption when nobody helps),
//! * the victim's virtual ID becomes acquirable again,
//! * reclamation resumes (epoch: quarantine unwedges the leaked pin;
//!   HP: quarantine parks the dead hazard record for adoption),
//! * a reaped-but-still-held handle is poisoned, panicking on its next
//!   operation and dropping safely.
//!
//! No chaos feature needed: everything here is deterministic.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

use kp_queue::{Config, ConcurrentQueue, WfQueue, WfQueueHp};

/// Patience used throughout: small, so a handful of survivor
/// operations revoke a silent lease.
const PATIENCE: usize = 4;

/// Upper bound on survivor operations while waiting for a counter to
/// move; generous (reaping needs ~`n * PATIENCE` ticks).
const SPIN_OPS: usize = 200_000;

/// A fast-path-only configuration for survivors that must NOT help:
/// fast-path operations publish no phase and help nobody, so a
/// victim's pending descriptor survives until the *reaper* adopts it —
/// the only way to exercise adoption deterministically. Starvation
/// patience is pushed out of reach so the pending victim never demotes
/// the survivor to the (helping) slow path.
fn no_help_config() -> Config {
    Config::fast()
        .with_starvation_patience(usize::MAX)
        .with_reap_patience(PATIENCE)
        // No wall floor: the tests drive reaps with tiny op-count
        // patience on purpose; the production-default 1 s floor would
        // only stretch each round by a second without changing what is
        // exercised.
        .with_reap_min_silence_ms(0)
}

/// A helping (slow-path-only) configuration with the reaper on.
fn helping_config() -> Config {
    Config::opt_both()
        .with_reap_patience(PATIENCE)
        .with_reap_min_silence_ms(0) // as in `no_help_config`
}

// ---------------------------------------------------------------------
// epoch variant
// ---------------------------------------------------------------------

/// A thread dies (simulated: forgets everything) with an enqueue
/// published but unhelped. A helping survivor completes it, the reaper
/// retires the slot, and the virtual ID is acquirable again.
#[test]
fn epoch_survivors_complete_abandoned_enqueue_and_reclaim_slot() {
    let q: WfQueue<u64> = WfQueue::with_config(3, helping_config());
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().expect("victim registers");
            h.enqueue(7);
            let pending = h.begin_enqueue_unhelped(42);
            // Sudden death: no Drop for the op or the handle. (The
            // forgotten guard unpins when this thread exits — the
            // wedged-pin case is epoch_quarantine_unwedges_* below.)
            std::mem::forget(pending);
            std::mem::forget(h);
        })
        .join()
        .expect("victim thread exits cleanly");

        let mut survivor = q.register().expect("survivor registers");
        let mut drained = BTreeSet::new();
        for i in 0..SPIN_OPS {
            survivor.enqueue(1_000 + i as u64);
            if let Some(v) = survivor.dequeue() {
                drained.insert(v);
            }
            if q.stats().reaps >= 1 {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.reaps >= 1, "victim slot never reaped: {stats:?}");
        while let Some(v) = survivor.dequeue() {
            drained.insert(v);
        }
        assert!(drained.contains(&7), "victim's completed enqueue lost");
        assert!(
            drained.contains(&42),
            "victim's pending enqueue was never completed by survivors"
        );
        // The victim's virtual ID must be acquirable again: with one
        // survivor holding a slot, a 3-slot pool has exactly two left.
        let extra1 = q.register().expect("reaped slot reclaimable");
        let extra2 = q.register().expect("third slot");
        assert!(q.register().is_err(), "pool must hold exactly 3 slots");
        drop((extra1, extra2));
    });
}

/// Nobody helps (fast-path-only survivor): the reaper itself must
/// adopt the victim's pending enqueue through the helping machinery.
#[test]
fn epoch_reaper_adopts_pending_enqueue_when_nobody_helps() {
    let q: WfQueue<u64> = WfQueue::with_config(2, no_help_config());
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().expect("victim registers");
            let pending = h.begin_enqueue_unhelped(42);
            std::mem::forget(pending);
            std::mem::forget(h);
        })
        .join()
        .expect("victim thread exits cleanly");

        let mut survivor = q.register().expect("survivor registers");
        for i in 0..SPIN_OPS {
            survivor.enqueue(1_000 + i as u64);
            let stats = q.stats();
            if stats.reaps >= 1 {
                assert!(
                    stats.reap_adoptions >= 1,
                    "slot reaped but the pending op was never adopted: {stats:?}"
                );
                break;
            }
        }
        assert!(q.stats().reaps >= 1, "victim slot never reaped");
        let mut saw42 = false;
        while let Some(v) = survivor.dequeue() {
            saw42 |= v == 42;
        }
        assert!(saw42, "adopted enqueue's value never surfaced");
        drop(q.register().expect("reaped slot reclaimable"));
    });
}

/// Adoption of a pending *dequeue*: the reaper completes it and — as
/// the retire-election winner — claims and discards the result, so
/// exactly one value goes missing and none duplicate.
#[test]
fn epoch_reaper_claims_abandoned_dequeue_result() {
    let q: WfQueue<u64> = WfQueue::with_config(2, no_help_config());
    std::thread::scope(|s| {
        s.spawn(|| {
            // Pre-load through the victim itself (its slow enqueues may
            // help nobody: the queue is otherwise idle).
            let mut h = q.register().expect("victim registers");
            for v in 1..=8 {
                h.enqueue(v);
            }
            let pending = h.begin_dequeue_unhelped();
            std::mem::forget(pending);
            std::mem::forget(h);
        })
        .join()
        .expect("victim thread exits cleanly");

        let mut survivor = q.register().expect("survivor registers");
        for i in 0..SPIN_OPS {
            survivor.enqueue(1_000 + i as u64);
            if q.stats().reaps >= 1 {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.reaps >= 1, "victim slot never reaped: {stats:?}");
        assert!(stats.reap_adoptions >= 1, "dequeue never adopted: {stats:?}");
        let mut drained = BTreeSet::new();
        while let Some(v) = survivor.dequeue() {
            assert!(drained.insert(v), "duplicated value {v}");
        }
        let missing: Vec<u64> = (1..=8).filter(|v| !drained.contains(v)).collect();
        assert_eq!(
            missing.len(),
            1,
            "the adopted dequeue consumes exactly one value; missing: {missing:?}"
        );
        drop(q.register().expect("reaped slot reclaimable"));
    });
}

/// The epoch variant's stalled-reader memory bound (ISSUE satellite):
/// a leaked pin wedges the global epoch — unbounded garbage — until
/// the reaper quarantines the dead participant, after which the epoch
/// advances again. This is the degradation bound DESIGN.md §13
/// documents: wedged memory is bounded by what accumulates within one
/// patience window.
#[test]
fn epoch_quarantine_unwedges_a_dead_handles_leaked_pin() {
    // Leaked: the victim thread parks forever (a dead-but-registered
    // participant must outlive the test body).
    let q: &'static WfQueue<u64> = Box::leak(Box::new(WfQueue::with_config(2, helping_config())));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut h = q.register().expect("victim registers");
        // A completed op publishes this thread's epoch token.
        h.enqueue(1);
        let pending = h.begin_enqueue_unhelped(2);
        // Leak the PendingOp: its pinned guard never drops, so this
        // thread stays pinned at today's epoch forever.
        std::mem::forget(pending);
        std::mem::forget(h);
        tx.send(()).expect("main thread waits");
        // Parked, never exits: TLS destructors never run, exactly like
        // a thread wedged in a signal handler or leaked by an FFI host.
        loop {
            std::thread::park();
        }
    });
    rx.recv().expect("victim parked");

    // Wedged: the victim is pinned at some epoch `p`, so the global
    // epoch can never move past `p + 1`, no matter how often anyone
    // nudges the collector.
    let e0 = crossbeam_epoch::global_epoch();
    for _ in 0..64 {
        crossbeam_epoch::advance();
    }
    assert!(
        crossbeam_epoch::global_epoch() <= e0 + 1,
        "a leaked pin must wedge epoch advancement"
    );

    let mut survivor = q.register().expect("survivor registers");
    for i in 0..SPIN_OPS {
        survivor.enqueue(1_000 + i as u64);
        survivor.dequeue();
        if q.stats().quarantines >= 1 {
            break;
        }
    }
    let stats = q.stats();
    assert!(stats.reaps >= 1, "victim slot never reaped: {stats:?}");
    assert!(
        stats.quarantines >= 1,
        "wedged participant never quarantined: {stats:?}"
    );
    // Reclamation resumes: the epoch moves past the (erased) pin.
    // Bounded retry because concurrently running tests in this binary
    // pin transiently, which can defeat any single advance() call.
    let target = e0 + 3;
    for _ in 0..SPIN_OPS {
        crossbeam_epoch::advance();
        if crossbeam_epoch::global_epoch() >= target {
            break;
        }
    }
    assert!(
        crossbeam_epoch::global_epoch() >= target,
        "quarantine must unwedge epoch advancement"
    );
    drop(q.register().expect("reaped slot reclaimable"));
}

/// A reaped handle that is still held (lease-contract violation: the
/// owner was silent past the patience window but is in fact alive) is
/// poisoned — its next operation panics before touching the queue —
/// and still drops safely. Also pins down the reaper's self-token
/// guard: victim and reaper share one OS thread here, so quarantining
/// the "victim's" epoch participant would erase the *reaper's* live
/// pin; the reap must skip it.
#[test]
fn epoch_reaped_handle_is_poisoned_and_drops_safely() {
    let q: WfQueue<u64> = WfQueue::with_config(3, helping_config());
    let mut victim = q.register().expect("victim registers");
    victim.enqueue(5); // publishes this (shared!) thread's epoch token
    let mut survivor = q.register().expect("survivor registers");
    let mut drained = BTreeSet::new();
    for i in 0..SPIN_OPS {
        survivor.enqueue(1_000 + i as u64);
        if let Some(v) = survivor.dequeue() {
            drained.insert(v);
        }
        if q.stats().reaps >= 1 {
            break;
        }
    }
    let stats = q.stats();
    assert!(stats.reaps >= 1, "idle victim never reaped: {stats:?}");
    assert_eq!(
        stats.quarantines, 0,
        "the reaper quarantined its own OS thread's participant"
    );

    let err = catch_unwind(AssertUnwindSafe(|| victim.enqueue(9)))
        .expect_err("a reaped handle's next operation must panic");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .expect("lease poisoning panics with a static message");
    assert!(
        msg.contains("handle reaped"),
        "unexpected poison message: {msg}"
    );
    // Safe drop: the reaped path must not touch the (possibly
    // re-owned) slot. The successor registration below would be
    // corrupted otherwise.
    drop(victim);
    drop(survivor);
    let a = q.register().expect("slot 1");
    let b = q.register().expect("slot 2");
    let mut c = q.register().expect("reaped slot reclaimable");
    c.enqueue(77);
    drained.extend(std::iter::from_fn(|| c.dequeue()));
    assert!(drained.contains(&5), "victim's completed enqueue lost");
    assert!(drained.contains(&77), "queue unusable after reap");
    drop((a, b, c));
}

// ---------------------------------------------------------------------
// hazard-pointer variant
// ---------------------------------------------------------------------

/// HP twin of the abandoned-enqueue test, plus the HP-specific
/// reclamation claim: the dead handle's hazard record is always
/// quarantined (records are per-handle, so no self-token subtlety).
#[test]
fn hp_survivors_complete_abandoned_enqueue_and_reclaim_slot() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(3, helping_config());
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().expect("victim registers");
            h.enqueue(7);
            let pending = h.begin_enqueue_unhelped(42);
            std::mem::forget(pending);
            std::mem::forget(h);
        })
        .join()
        .expect("victim thread exits cleanly");

        let mut survivor = q.register().expect("survivor registers");
        let mut drained = BTreeSet::new();
        for i in 0..SPIN_OPS {
            survivor.enqueue(1_000 + i as u64);
            if let Some(v) = survivor.dequeue() {
                drained.insert(v);
            }
            if q.stats().reaps >= 1 {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.reaps >= 1, "victim slot never reaped: {stats:?}");
        assert!(
            stats.quarantines >= 1,
            "dead hazard record never quarantined: {stats:?}"
        );
        while let Some(v) = survivor.dequeue() {
            drained.insert(v);
        }
        assert!(drained.contains(&7), "victim's completed enqueue lost");
        assert!(
            drained.contains(&42),
            "victim's pending enqueue was never completed by survivors"
        );
        let extra1 = q.register().expect("reaped slot reclaimable");
        let extra2 = q.register().expect("third slot");
        assert!(q.register().is_err(), "pool must hold exactly 3 slots");
        drop((extra1, extra2));
    });
}

/// HP twin of the adopted-dequeue test: the reaper adopts, then closes
/// the value node's token gate by claiming-and-discarding, so the node
/// leaves limbo and exactly one value goes missing.
#[test]
fn hp_reaper_claims_abandoned_dequeue_result() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, no_help_config());
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().expect("victim registers");
            for v in 1..=8 {
                h.enqueue(v);
            }
            let pending = h.begin_dequeue_unhelped();
            std::mem::forget(pending);
            std::mem::forget(h);
        })
        .join()
        .expect("victim thread exits cleanly");

        let mut survivor = q.register().expect("survivor registers");
        for i in 0..SPIN_OPS {
            survivor.enqueue(1_000 + i as u64);
            if q.stats().reaps >= 1 {
                break;
            }
        }
        let stats = q.stats();
        assert!(stats.reaps >= 1, "victim slot never reaped: {stats:?}");
        assert!(stats.reap_adoptions >= 1, "dequeue never adopted: {stats:?}");
        let mut drained = BTreeSet::new();
        while let Some(v) = survivor.dequeue() {
            assert!(drained.insert(v), "duplicated value {v}");
        }
        let missing: Vec<u64> = (1..=8).filter(|v| !drained.contains(v)).collect();
        assert_eq!(
            missing.len(),
            1,
            "the adopted dequeue consumes exactly one value; missing: {missing:?}"
        );
        drop(q.register().expect("reaped slot reclaimable"));
    });
}

/// HP poisoning twin: reaped-but-held handle panics on its next op and
/// drops safely (the `ManuallyDrop` participant is leaked, not
/// dropped, so a successor's adopted record is never clobbered).
#[test]
fn hp_reaped_handle_is_poisoned_and_drops_safely() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(3, helping_config());
    let mut victim = q.register().expect("victim registers");
    victim.enqueue(5);
    let mut survivor = q.register().expect("survivor registers");
    let mut drained = BTreeSet::new();
    for i in 0..SPIN_OPS {
        survivor.enqueue(1_000 + i as u64);
        if let Some(v) = survivor.dequeue() {
            drained.insert(v);
        }
        if q.stats().reaps >= 1 {
            break;
        }
    }
    assert!(q.stats().reaps >= 1, "idle victim never reaped");

    let err = catch_unwind(AssertUnwindSafe(|| victim.enqueue(9)))
        .expect_err("a reaped handle's next operation must panic");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .expect("lease poisoning panics with a static message");
    assert!(
        msg.contains("handle reaped"),
        "unexpected poison message: {msg}"
    );
    drop(victim);
    drop(survivor);
    let a = q.register().expect("slot 1");
    let b = q.register().expect("slot 2");
    let mut c = q.register().expect("reaped slot reclaimable");
    c.enqueue(77);
    drained.extend(std::iter::from_fn(|| c.dequeue()));
    assert!(drained.contains(&5), "victim's completed enqueue lost");
    assert!(drained.contains(&77), "queue unusable after reap");
    drop((a, b, c));
}

/// Publisher-scan guard: a *live* handle sharing the abandoned
/// handle's OS thread publishes the same epoch token, and the reaper
/// runs on a different thread (so the self-token guard alone cannot
/// save it). The reap must complete but skip the quarantine — erasing
/// the shared participant would strip the live handle's pins and let
/// the collector free nodes it still reads.
#[test]
fn epoch_reap_spares_live_handle_sharing_victims_thread() {
    let q: WfQueue<u64> = WfQueue::with_config(3, helping_config());
    let (tx, rx) = mpsc::channel();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let q = &q;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut abandoned = q.register().expect("abandoned registers");
            abandoned.enqueue(5); // publishes this thread's epoch token
            std::mem::forget(abandoned);
            let mut live = q.register().expect("live registers");
            live.enqueue(6); // publishes the *same* token in its slot
            tx.send(()).expect("main thread waits");
            // Keep operating (and epoch-pinning) through the reap; a
            // quarantined participant here turns these dereferences
            // into use-after-free under the collector.
            let mut i = 0u64;
            while stop_rx.try_recv().is_err() {
                live.enqueue(1_000_000 + i);
                live.dequeue();
                i += 1;
            }
            drop(live);
        });
        rx.recv().expect("peer thread started");
        let mut survivor = q.register().expect("survivor registers");
        for i in 0..SPIN_OPS {
            survivor.enqueue(2_000_000 + i as u64);
            survivor.dequeue();
            if q.stats().reaps >= 1 {
                break;
            }
        }
        stop_tx.send(()).expect("peer thread still looping");
        let stats = q.stats();
        assert!(stats.reaps >= 1, "abandoned slot never reaped: {stats:?}");
        assert_eq!(
            stats.quarantines, 0,
            "quarantined a token still published by a live handle: {stats:?}"
        );
        drop(survivor);
    });
    // The reaped slot (and the live handle's, after its clean drop) is
    // reclaimable, and the queue still works.
    let a = q.register().expect("slot 1");
    let b = q.register().expect("slot 2");
    let mut c = q.register().expect("reaped slot reclaimable");
    c.enqueue(77);
    let mut drained = BTreeSet::new();
    drained.extend(std::iter::from_fn(|| c.dequeue()));
    assert!(drained.contains(&77), "queue unusable after reap");
    drop((a, b, c));
}

// ---------------------------------------------------------------------
// memory-pressure degradation (tentpole part c)
// ---------------------------------------------------------------------

/// The epoch retire cache and the queue's node pool are capped: a
/// dequeue-heavy burst past both (256 cached + 1024 pooled) spills to
/// the epoch collector and counts as backpressure in `cache_overflows`.
#[test]
fn epoch_retire_cache_overflow_is_counted() {
    let q: WfQueue<u64> = WfQueue::with_config(1, Config::opt_both());
    let mut h = q.register().expect("register");
    // Enqueue-all then dequeue-all: every dequeue retires a sentinel
    // while no enqueue drains the cache or the pool, so the burst must
    // overflow past their 1280 nodes.
    for v in 0..2_000 {
        h.enqueue(v);
    }
    for _ in 0..2_000 {
        h.dequeue().expect("value present");
    }
    let stats = q.stats();
    assert!(
        stats.cache_overflows >= 1,
        "2000 uninterrupted retirements must overflow the cache and the pool: {stats:?}"
    );
    drop(h);
}

/// Same bound for the HP shared freelist, surfaced through the same
/// counter by `WfQueueHp::stats`.
#[test]
fn hp_node_pool_overflow_is_counted() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(1, Config::opt_both());
    let mut h = q.register().expect("register");
    for v in 0..2_000 {
        h.enqueue(v);
    }
    for _ in 0..2_000 {
        h.dequeue().expect("value present");
    }
    drop(h); // handle exit flushes its local cache into the pool
    let stats = q.stats();
    assert!(
        stats.cache_overflows >= 1,
        "2000 uninterrupted retirements must overflow a 256-cap pool: {stats:?}"
    );
}
