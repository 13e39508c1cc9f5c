//! Abandoned-handle reaper suite (DESIGN.md §13), fault-model half.
//!
//! These tests simulate *sudden death* — a thread that stops without
//! running any destructor — with the `begin_*_unhelped` test hooks plus
//! `mem::forget`: the descriptor stays pending, the virtual ID stays
//! claimed, and the dead handle's hazard record stays active, exactly
//! the state a SIGKILLed or leaked handle leaves behind. The chaos-feature torture suite (tests/torture.rs) covers
//! the *unwind* half of the fault model, where panic recovery runs.
//!
//! What must then hold with the reaper enabled:
//!
//! * survivors complete the victim's pending operation (by ordinary
//!   helping, or by the reaper's adoption when nobody helps),
//! * the victim's virtual ID becomes acquirable again,
//! * reclamation resumes (quarantine parks the dead hazard record for
//!   adoption),
//! * a reaped-but-still-held handle is poisoned, panicking on its next
//!   operation and dropping safely.
//!
//! No chaos feature needed: everything here is deterministic.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// A thread dies (simulated: forgets everything) with an enqueue
/// published but unhelped. A helping survivor completes it, the reaper
/// retires the slot and quarantines the dead handle's hazard record,
/// and the virtual ID is acquirable again.
#[test]
fn hp_survivors_complete_abandoned_enqueue_and_reclaim_slot() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(3, helping_config());
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().expect("victim registers");
            h.enqueue(7);
            let pending = h.begin_enqueue_unhelped(42);
            // Sudden death: no Drop for the op or the handle.
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
fn hp_reaper_adopts_pending_enqueue_when_nobody_helps() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, no_help_config());
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
/// the retire-election winner — claims and discards the result, closing
/// the value node's token gate so the node leaves limbo: exactly one
/// value goes missing and none duplicate.
#[test]
fn hp_reaper_claims_abandoned_dequeue_result() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, no_help_config());
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

/// A reaped handle that is still held (lease-contract violation: the
/// owner was silent past the patience window but is in fact alive) is
/// poisoned — its next operation panics before touching the queue —
/// and still drops safely: its `ManuallyDrop` participant is leaked,
/// not dropped, so a successor's adopted record is never clobbered.
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
    let stats = q.stats();
    assert!(stats.reaps >= 1, "idle victim never reaped: {stats:?}");

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
// memory-pressure degradation (tentpole part c)
// ---------------------------------------------------------------------

/// The queue's node pool is capped: a dequeue-heavy burst past it frees
/// nodes instead of pooling them, and counts as backpressure in
/// `cache_overflows`.
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
    drop(h); // handle exit hands its stash back to the pool
    let stats = q.stats();
    assert!(
        stats.cache_overflows >= 1,
        "2000 uninterrupted retirements must overflow a 256-cap pool: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// variants of the abandoned-handle tests above
// ---------------------------------------------------------------------
//
// These three keep the `epoch_` names they had while the suite also ran
// an epoch-reclaimed queue. Each now covers a case the `hp_*` test of
// the same scenario does not: a death without thread exit, a dequeue
// completed by helping rather than adoption, and a poisoned dequeue.

/// The victim "dies" on the survivor's own thread, so no thread exit
/// follows the death: the dead handle's hazard record is still
/// quarantined (records belong to handles, not threads), helping
/// survivors complete its pending enqueue, and its slot is reclaimed.
#[test]
fn epoch_survivors_complete_abandoned_enqueue_and_reclaim_slot() {
    let q: WfQueue<u64> = WfQueue::with_config(3, helping_config());
    let mut h = q.register().expect("victim registers");
    h.enqueue(7);
    let pending = h.begin_enqueue_unhelped(42);
    std::mem::forget(pending);
    std::mem::forget(h);

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
    drop((extra1, extra2, survivor));
}

/// A pending *dequeue* completed by helping survivors rather than
/// adopted: the result waits in the dead owner's state until the reaper
/// claims and discards it. The dequeue was linearized before any
/// survivor operation, so the one value missing is the head, 1.
#[test]
fn epoch_reaper_claims_abandoned_dequeue_result() {
    let q: WfQueue<u64> = WfQueue::with_config(2, helping_config());
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
        let mut drained = BTreeSet::new();
        while let Some(v) = survivor.dequeue() {
            assert!(drained.insert(v), "duplicated value {v}");
        }
        let missing: Vec<u64> = (1..=8).filter(|v| !drained.contains(v)).collect();
        assert_eq!(
            missing,
            vec![1],
            "the helped dequeue consumes exactly the head value"
        );
        drop(q.register().expect("reaped slot reclaimable"));
    });
}

/// Poisoning with a fast-path (non-helping) survivor, checked on a
/// *dequeue*: the reaped handle's dequeue panics before touching the
/// queue, the handle drops safely, and its slot serves a successor.
#[test]
fn epoch_reaped_handle_is_poisoned_and_drops_safely() {
    let q: WfQueue<u64> = WfQueue::with_config(3, no_help_config());
    let mut victim = q.register().expect("victim registers");
    victim.enqueue(5);
    let mut survivor = q.register().expect("survivor registers");
    for i in 0..SPIN_OPS {
        survivor.enqueue(1_000 + i as u64);
        if q.stats().reaps >= 1 {
            break;
        }
    }
    let stats = q.stats();
    assert!(stats.reaps >= 1, "idle victim never reaped: {stats:?}");

    let err = catch_unwind(AssertUnwindSafe(|| victim.dequeue()))
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
    // The poisoned dequeue took nothing: 5 is still the head.
    assert_eq!(survivor.dequeue(), Some(5), "poisoned dequeue touched the queue");
    drop(survivor);
    let a = q.register().expect("slot 1");
    let b = q.register().expect("slot 2");
    let mut c = q.register().expect("reaped slot reclaimable");
    c.enqueue(77);
    let drained: Vec<u64> = std::iter::from_fn(|| c.dequeue()).collect();
    assert_eq!(drained.last(), Some(&77), "queue unusable after reap");
    drop((a, b, c));
}
