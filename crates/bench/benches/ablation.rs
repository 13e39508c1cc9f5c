//! Ablations of the design choices §3.3 of the paper sketches beyond
//! the two headline optimizations:
//!
//! * `validate_before_cas` — reading the `pending` flag before the
//!   descriptor CAS in the two `help_finish_*` methods;
//! * the helping chunk size `k` (the paper fixes `k = 1`);
//! * cyclic vs random chunk selection (deterministic vs probabilistic
//!   wait-freedom);
//! * the phase-policy axis in isolation at fixed helping policy.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harness::{workload, SchedPolicy};
use kp_queue::{Config, HelpPolicy, PhasePolicy, WfQueue};

const ITERS: usize = 2_000;
const THREADS: usize = 4;

fn run_config(cfg: Config, threads: usize) -> Duration {
    let q: WfQueue<u64> = WfQueue::with_config(threads, cfg);
    workload::run_pairs(&q, threads, ITERS, SchedPolicy::Unpinned)
}

fn bench_validation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_validate_before_cas");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for (name, cfg) in [
        ("base", Config::base()),
        ("base+validate", Config::base().with_validation()),
        ("opt", Config::opt_both()),
        ("opt+validate", Config::opt_both().with_validation()),
    ] {
        g.bench_function(name, |b| {
            b.iter_custom(|n| (0..n).map(|_| run_config(cfg, THREADS)).sum());
        });
    }
    g.finish();
}

fn bench_chunk_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_help_chunk");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    let threads = 8;
    for chunk in [1usize, 2, 4, 8] {
        let cfg = Config::opt_both().with_help(HelpPolicy::Cyclic { chunk });
        g.bench_with_input(BenchmarkId::new("cyclic", chunk), &cfg, |b, cfg| {
            b.iter_custom(|n| (0..n).map(|_| run_config(*cfg, threads)).sum());
        });
    }
    g.finish();
}

fn bench_cyclic_vs_random(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_chunk_selection");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    let threads = 8;
    for (name, help) in [
        ("cyclic", HelpPolicy::Cyclic { chunk: 1 }),
        ("random", HelpPolicy::RandomChunk { chunk: 1 }),
    ] {
        let cfg = Config::opt_both().with_help(help);
        g.bench_function(name, |b| {
            b.iter_custom(|n| (0..n).map(|_| run_config(cfg, threads)).sum());
        });
    }
    g.finish();
}

fn bench_phase_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_phase_policy");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    let threads = 8;
    for (name, phase) in [
        ("max_scan", PhasePolicy::MaxScan),
        ("atomic_counter", PhasePolicy::AtomicCounter),
    ] {
        // Fix the helping policy to ScanAll so only the phase source
        // differs (this isolates optimization 2, which the paper found
        // minor but growing with the thread count).
        let cfg = Config::base().with_phase(phase);
        g.bench_function(name, |b| {
            b.iter_custom(|n| (0..n).map(|_| run_config(cfg, threads)).sum());
        });
    }
    g.finish();
}

/// The descriptor/node-reuse ablation: the allocation-free hot path
/// (packed state-slot words + recycled nodes) against the same
/// algorithm with node reuse disabled, i.e. a fresh heap node per
/// enqueue — the alloc-per-transition baseline. Alongside the timing,
/// each leg prints its measured allocation rate once (`node_allocs` /
/// `node_reuses` stats over one probe run) so the throughput numbers
/// can be read next to the allocation behaviour they come from.
fn bench_reuse_vs_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_reuse_vs_alloc");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for (name, cfg) in [
        ("reuse", Config::opt_both()),
        ("alloc", Config::opt_both().with_reuse(false)),
    ] {
        {
            let q: WfQueue<u64> = WfQueue::with_config(THREADS, cfg);
            workload::run_pairs(&q, THREADS, ITERS, SchedPolicy::Unpinned);
            let s = q.stats();
            println!(
                "{name}: probe run {} fresh node allocs, {} reuses over {} enqueues",
                s.node_allocs, s.node_reuses, s.enqueues
            );
        }
        g.bench_function(name, |b| {
            b.iter_custom(|n| (0..n).map(|_| run_config(cfg, THREADS)).sum());
        });
    }
    g.finish();
}

criterion_group!(
    ablation,
    bench_validation,
    bench_chunk_size,
    bench_cyclic_vs_random,
    bench_phase_policy,
    bench_reuse_vs_alloc
);
criterion_main!(ablation);
