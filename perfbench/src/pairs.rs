//! `pairs`: the paper's Figure 7 workload. Two threads each repeat
//! `enqueue(v); dequeue()` on an initially empty `WfQueueHp` running
//! `opt WF (1+2)` with hazard-pointer reclamation.

use std::sync::Barrier;
use std::time::Instant;

use kp_queue::{Config, StatsSnapshot, WfQueueHp};
use queue_traits::ConcurrentQueue;

use crate::trace::{self, Span, NONE};
use crate::traced::{KP, REGISTER};
use crate::value::{self, Check};
use crate::{alloc, median, quantile, Mode, Rep};

const THREADS: usize = 2;
/// Pairs per thread run before timing starts.
const WARM: u64 = 5_000;
/// Pairs per thread in the timed section of one rep.
const TIMED: u64 = 100_000;

struct Out {
    t0: Instant,
    t1: Instant,
    check: Check,
    lat_ns: Vec<u64>,
    spans: Vec<Span>,
    dropped: u64,
}

pub fn rep(seed: u64, mode: Mode) -> Rep {
    let setup = Instant::now();
    let q = WfQueueHp::<u64>::with_config(THREADS, Config::opt_both());
    let (warm, go) = (Barrier::new(THREADS + 1), Barrier::new(THREADS + 1));
    let (outs, mark, before) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                let (q, warm, go) = (&q, &warm, &go);
                s.spawn(move || worker(q, w, seed, mode, warm, go))
            })
            .collect();
        warm.wait();
        let mark = alloc::Mark::now();
        let before = q.stats();
        go.wait();
        let outs: Vec<Out> = workers
            .into_iter()
            .map(|h| h.join().expect("pairs worker panicked"))
            .collect();
        (outs, mark, before)
    });
    let after = q.stats();
    let allocs = mark.allocs_since();
    let peak = mark.peak_growth_bytes();

    let mut failed: u64 = outs.iter().map(|o| o.check.failed).sum();
    let sent = outs
        .iter()
        .fold(0u64, |a, o| a.wrapping_add(o.check.sent_sum));
    let got = outs
        .iter()
        .fold(0u64, |a, o| a.wrapping_add(o.check.got_sum));
    failed += u64::from(sent != got);
    // Every thread took as many values as it gave: the queue ends empty.
    failed += u64::from(
        q.register()
            .expect("queue has a free slot after the workers left")
            .dequeue()
            .is_some(),
    );

    let ops = THREADS as u64 * TIMED * 2;
    let first = outs.iter().map(|o| o.t0).min().expect("workers ran");
    let last = outs.iter().map(|o| o.t1).max().expect("workers ran");
    let mut rep = Rep {
        ops,
        attempted: THREADS as u64 * (WARM + TIMED) * 2,
        failed,
        setup_s: (first - setup).as_secs_f64(),
        elapsed_s: (last - first).as_secs_f64(),
        ..Rep::default()
    };
    let mut outs = outs;
    for o in &mut outs {
        rep.lat_ns.append(&mut o.lat_ns);
        rep.dropped += o.dropped;
    }
    if mode == Mode::Traced {
        rep.spans = outs.into_iter().map(|o| o.spans).collect();
        layer(&mut rep, &before, &after, allocs, peak);
    }
    rep
}

fn worker(
    q: &WfQueueHp<u64>,
    w: usize,
    seed: u64,
    mode: Mode,
    warm: &Barrier,
    go: &Barrier,
) -> Out {
    let traced = mode == Mode::Traced;
    if traced {
        trace::reserve(TIMED as usize * 2 + 1);
    }
    let reg = || q.register();
    let mut h = if traced {
        trace::span(REGISTER, reg, |r| (NONE, r.is_ok()))
    } else {
        reg()
    }
    .expect("the queue has a slot per worker");
    trace::set_recording(false);
    let mut check = Check::new(THREADS);
    let mut lat_ns = Vec::with_capacity(if mode == Mode::Latency {
        TIMED as usize * 2
    } else {
        0
    });
    let producer = w as u64;
    for seq in 0..WARM {
        let v = value::make(seed, producer, seq);
        check.sent(v);
        h.enqueue(v);
        take(&mut check, h.dequeue());
    }
    trace::set_recording(traced);
    warm.wait();
    go.wait();
    let t0 = Instant::now();
    let seqs = WARM..WARM + TIMED;
    match mode {
        Mode::Plain => {
            for seq in seqs {
                let v = value::make(seed, producer, seq);
                check.sent(v);
                h.enqueue(v);
                take(&mut check, h.dequeue());
            }
        }
        Mode::Latency => {
            for seq in seqs {
                let v = value::make(seed, producer, seq);
                check.sent(v);
                let a = Instant::now();
                h.enqueue(v);
                let b = Instant::now();
                let r = h.dequeue();
                let c = Instant::now();
                take(&mut check, r);
                lat_ns.push((b - a).as_nanos() as u64);
                lat_ns.push((c - b).as_nanos() as u64);
            }
        }
        Mode::Traced => {
            for seq in seqs {
                let v = value::make(seed, producer, seq);
                check.sent(v);
                trace::span(KP.enqueue, || h.enqueue(v), |_| (value::id(v), true));
                let r = trace::span(
                    KP.dequeue,
                    || h.dequeue(),
                    |r| (r.map_or(NONE, value::id), r.is_some()),
                );
                take(&mut check, r);
            }
        }
    }
    let t1 = Instant::now();
    let (spans, dropped) = if traced {
        trace::take()
    } else {
        (Vec::new(), 0)
    };
    Out {
        t0,
        t1,
        check,
        lat_ns,
        spans,
        dropped,
    }
}

/// Per-layer figures of one traced rep: the engine's span timings, its
/// helping counters over the timed section, and process allocations.
fn layer(rep: &mut Rep, before: &StatsSnapshot, after: &StatsSnapshot, allocs: u64, peak: u64) {
    let ops = rep.ops as f64;
    let d = crate::stats_delta(before, after);
    let enq = trace::named(&rep.spans, KP.enqueue);
    let deq = trace::named(&rep.spans, KP.dequeue);
    let reg = trace::named(&rep.spans, REGISTER);
    rep.layer = vec![
        ("kp-queue.enqueue_ns", median(&enq.durs)),
        ("kp-queue.dequeue_ns", median(&deq.durs)),
        ("kp-queue.help_calls_per_op", d.help_calls as f64 / ops),
        ("kp-queue.helped_fraction", d.helped_fraction()),
        ("kp-queue.phase_scans_per_op", d.phase_scans as f64 / ops),
        ("kp-queue.node_allocs_per_op", d.node_allocs as f64 / ops),
        (
            "kp-queue.node_reuse_ratio",
            crate::ratio(d.node_reuses, d.node_allocs + d.node_reuses),
        ),
        ("kp-queue.fast_fallback_rate", d.fallback_rate()),
        ("kp-queue.empty_polls_per_msg", deq.not_ok as f64 / ops),
        ("alloc-track.allocs_per_op", allocs as f64 / ops),
        ("alloc-track.peak_live_kb", peak as f64 / 1024.0),
        ("idpool.register_us", median(&reg.durs) / 1e3),
        ("kp-queue.enqueue_p99_ns", quantile(&enq.durs, 0.99)),
        ("kp-queue.dequeue_p99_ns", quantile(&deq.durs, 0.99)),
    ];
}

fn take(check: &mut Check, r: Option<u64>) {
    match r {
        Some(v) => check.got(v, false),
        None => check.missing(),
    }
}
