//! Microbenchmarks of the substrates the queue is built on: hazard
//! pointers vs epoch reclamation, the virtual-ID pool, and single-op
//! costs of every queue variant (the uncontended floor that explains
//! the figures' 1-thread column).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kp_queue::{Config, ConcurrentQueue, QueueHandle, WfQueue};
use ms_queue::{MsQueue, MsQueueHp, MutexQueue};

fn bench_single_thread_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("single_thread_pair");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    // One enqueue+dequeue pair per iteration, steady state.
    {
        let q = MsQueue::new();
        let mut h = q.register().unwrap();
        g.bench_function("LF_epoch", |b| {
            b.iter(|| {
                h.enqueue(1u64);
                criterion::black_box(h.dequeue());
            })
        });
    }
    {
        let q = MsQueueHp::new();
        let mut h = q.register().unwrap();
        g.bench_function("LF_hazard", |b| {
            b.iter(|| {
                h.enqueue(1u64);
                criterion::black_box(h.dequeue());
            })
        });
    }
    {
        let q = MutexQueue::new();
        let mut h = q.register().unwrap();
        g.bench_function("mutex", |b| {
            b.iter(|| {
                h.enqueue(1u64);
                criterion::black_box(h.dequeue());
            })
        });
    }
    for (name, cfg, slots) in [
        ("WF_base_n4", Config::base(), 4),
        ("WF_base_n16", Config::base(), 16),
        ("WF_opt_n4", Config::opt_both(), 4),
        ("WF_opt_n16", Config::opt_both(), 16),
    ] {
        // The paper's §3.3 point: the base version's uncontended cost
        // grows with NUM_THRDS (state scans), the optimized one's does
        // not — hence the n4/n16 pairs.
        let q: WfQueue<u64> = WfQueue::with_config(slots, cfg);
        let mut h = q.register().unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                h.enqueue(1u64);
                criterion::black_box(h.dequeue());
            })
        });
    }
    g.finish();
}

fn bench_hazard_protect(c: &mut Criterion) {
    use std::sync::atomic::AtomicPtr;
    let mut g = c.benchmark_group("hazard");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let domain = hazard::Domain::new(2);
    let target = AtomicPtr::new(Box::into_raw(Box::new(7u64)));
    let p = domain.enter();
    g.bench_function("protect_clear", |b| {
        b.iter(|| {
            let ptr = p.protect(0, &target);
            criterion::black_box(ptr);
            p.clear(0);
        })
    });
    g.bench_function("retire_scan_amortized", |b| {
        let mut p2 = domain.enter();
        b.iter(|| {
            // One retire per iteration; scans amortize at the threshold.
            let obj = Box::into_raw(Box::new(1u64));
            unsafe { p2.retire(obj) };
        })
    });
    g.finish();
    drop(p);
    unsafe {
        drop(Box::from_raw(
            target.swap(std::ptr::null_mut(), std::sync::atomic::Ordering::AcqRel),
        ))
    };
}

fn bench_idpool(c: &mut Criterion) {
    let mut g = c.benchmark_group("idpool");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for capacity in [8usize, 64, 512] {
        let pool = idpool::IdPool::new(capacity);
        g.bench_with_input(
            BenchmarkId::new("acquire_release", capacity),
            &pool,
            |b, pool| {
                b.iter(|| {
                    let g1 = pool.acquire().unwrap();
                    criterion::black_box(g1.id());
                })
            },
        );
    }
    g.finish();
}

fn bench_epoch_pin(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("pin", |b| {
        b.iter(|| {
            criterion::black_box(crossbeam_epoch::pin());
        })
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_single_thread_ops,
    bench_hazard_protect,
    bench_idpool,
    bench_epoch_pin
);
criterion_main!(substrates);
