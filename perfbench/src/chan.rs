//! `stream` and `backpressure`: one producer calling `Sender::send` and
//! one consumer calling `Receiver::recv` through a one-shard channel.
//!
//! `stream` runs `Channel::kp` (unbounded) with a consumer that does no
//! work per message. `backpressure` runs `Channel::wcq` with a small
//! ring and a consumer that does a seeded amount of work per message,
//! so the producer outruns it and parks on the full ring.

use std::sync::Barrier;
use std::time::Instant;

use kp_channel::{Channel, ChannelConfig, HealthSnapshot, Sender};
use kp_queue::StatsSnapshot;
use queue_traits::ConcurrentQueue;

use crate::trace::{self, Span};
use crate::traced::{self, KP, REGISTER, WCQ};
use crate::value::{self, Check};
use crate::{alloc, median, quantile, ratio, Mode, Rep};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Stream,
    Backpressure,
}

/// Messages sent before timing starts.
const WARM: u64 = 10_000;
/// Messages in the timed section of one rep.
const MSGS: u64 = 200_000;
/// `backpressure` ring size per shard.
const WCQ_CAPACITY: usize = 256;
/// `backpressure` consumer work: xorshift rounds per message, drawn
/// from the seed uniformly in `WORK_MIN..WORK_MIN + WORK_SPAN` (mean
/// 128, which makes the producer park on about half the messages).
const WORK_MIN: u64 = 256;
const WORK_SPAN: u64 = 513;

const SEND: &str = "kp-channel.send";
const RECV: &str = "kp-channel.recv";
const WORK: &str = "consumer.work";

fn config() -> ChannelConfig {
    ChannelConfig::new()
        .with_shards(1)
        .with_max_senders(1)
        .with_max_receivers(1)
}

/// Engine counters read around the timed section of a traced rep.
#[derive(Clone, Copy, Default)]
struct Engine {
    kp: StatsSnapshot,
    wcq_resets: u64,
}

pub fn rep(kind: Kind, seed: u64, mode: Mode) -> Rep {
    let setup = Instant::now();
    let none = || Engine::default();
    match (kind, mode) {
        (Kind::Stream, Mode::Latency) => solo(&Channel::kp(config()), setup, seed),
        (Kind::Backpressure, Mode::Latency) => {
            solo(&Channel::wcq(config(), WCQ_CAPACITY), setup, seed)
        }
        (Kind::Stream, Mode::Plain) => {
            drive(&Channel::kp(config()), setup, kind, seed, mode, &none)
        }
        (Kind::Backpressure, Mode::Plain) => drive(
            &Channel::wcq(config(), WCQ_CAPACITY),
            setup,
            kind,
            seed,
            mode,
            &none,
        ),
        (Kind::Stream, Mode::Traced) => {
            let (chan, engines) = traced::kp_channel(config());
            drive(&chan, setup, kind, seed, mode, &|| Engine {
                kp: engines[0].stats(),
                ..Engine::default()
            })
        }
        (Kind::Backpressure, Mode::Traced) => {
            let (chan, engines) = traced::wcq_channel(config(), WCQ_CAPACITY);
            drive(&chan, setup, kind, seed, mode, &|| Engine {
                wcq_resets: engines[0].threshold_resets(),
                ..Engine::default()
            })
        }
    }
}

struct Out {
    t0: Instant,
    t1: Instant,
    check: Check,
    spans: Vec<Span>,
    dropped: u64,
}

fn drive<Q: ConcurrentQueue<u64>>(
    chan: &Channel<u64, Q>,
    setup: Instant,
    kind: Kind,
    seed: u64,
    mode: Mode,
    engine: &dyn Fn() -> Engine,
) -> Rep {
    let (warm, go) = (Barrier::new(3), Barrier::new(3));
    let (tx, rx, mark, health, before) = std::thread::scope(|s| {
        let tx = s.spawn(|| producer(chan, seed, mode, &warm, &go));
        let rx = s.spawn(|| consumer(chan, kind, seed, mode, &warm, &go));
        warm.wait();
        let mark = alloc::Mark::now();
        let health = chan.health_snapshot();
        let before = engine();
        go.wait();
        let tx = tx.join().expect("producer panicked");
        let rx = rx.join().expect("consumer panicked");
        (tx, rx, mark, health, before)
    });
    let allocs = mark.allocs_since();
    let peak = mark.peak_growth_bytes();
    let failed =
        tx.check.failed + rx.check.failed + u64::from(tx.check.sent_sum != rx.check.got_sum);
    let first = tx.t0.min(rx.t0);
    let mut rep = Rep {
        ops: MSGS,
        attempted: WARM + MSGS,
        failed,
        setup_s: (first - setup).as_secs_f64(),
        elapsed_s: (tx.t1.max(rx.t1) - first).as_secs_f64(),
        dropped: tx.dropped + rx.dropped,
        ..Rep::default()
    };
    if mode == Mode::Traced {
        rep.spans = vec![tx.spans, rx.spans];
        layer(
            &mut rep,
            kind,
            &health,
            &chan.health_snapshot(),
            &before,
            &engine(),
            allocs,
            peak,
        );
    }
    rep
}

/// Room for the spans one message can leave on a thread: the channel
/// call, its engine calls (a blocked send retries a refused enqueue, a
/// receive polls an empty ring), and the consumer's own work.
const SPANS_PER_MSG: usize = 4;

/// Starts tracing this thread if the rep is traced: registration is
/// recorded, the warm-up that follows is not.
fn start_trace(mode: Mode) {
    if mode == Mode::Traced {
        trace::reserve(MSGS as usize * SPANS_PER_MSG);
    }
}

fn producer<Q: ConcurrentQueue<u64>>(
    chan: &Channel<u64, Q>,
    seed: u64,
    mode: Mode,
    warm: &Barrier,
    go: &Barrier,
) -> Out {
    start_trace(mode);
    let mut tx = chan.sender();
    trace::set_recording(false);
    let mut check = Check::new(1);
    let send = |check: &mut Check, tx: &mut Sender<'_, u64, Q>, v: u64| {
        check.sent(v);
        let ok = tx.send(v).is_ok();
        if !ok {
            check.missing();
        }
        ok
    };
    for seq in 0..WARM {
        send(&mut check, &mut tx, value::make(seed, 0, seq));
    }
    trace::set_recording(mode == Mode::Traced);
    warm.wait();
    go.wait();
    let t0 = Instant::now();
    for seq in WARM..WARM + MSGS {
        let v = value::make(seed, 0, seq);
        if mode == Mode::Traced {
            let t = trace::open(SEND);
            let ok = send(&mut check, &mut tx, v);
            trace::close(t, value::id(v), ok);
        } else {
            send(&mut check, &mut tx, v);
        }
    }
    let t1 = Instant::now();
    let (spans, dropped) = if mode == Mode::Traced {
        trace::take()
    } else {
        (Vec::new(), 0)
    };
    Out {
        t0,
        t1,
        check,
        spans,
        dropped,
    }
}

fn consumer<Q: ConcurrentQueue<u64>>(
    chan: &Channel<u64, Q>,
    kind: Kind,
    seed: u64,
    mode: Mode,
    warm: &Barrier,
    go: &Barrier,
) -> Out {
    start_trace(mode);
    let mut rx = chan.receiver();
    trace::set_recording(false);
    let mut check = Check::new(1);
    let mut acc = seed | 1;
    let busy = kind == Kind::Backpressure;
    let traced = mode == Mode::Traced;
    let take = |check: &mut Check, r: Result<u64, _>, acc: &mut u64| match r {
        Ok(v) => {
            check.got(v, true);
            if busy {
                let rounds = WORK_MIN + value::mix(seed ^ value::id(v)) % WORK_SPAN;
                if traced {
                    trace::span(WORK, || work(rounds, acc), |_| (value::id(v), true));
                } else {
                    work(rounds, acc);
                }
            }
        }
        Err(kp_channel::RecvError) => check.missing(),
    };
    for _ in 0..WARM {
        let r = rx.recv();
        take(&mut check, r, &mut acc);
    }
    trace::set_recording(traced);
    warm.wait();
    go.wait();
    let t0 = Instant::now();
    for _ in 0..MSGS {
        let r = if traced {
            trace::span(
                RECV,
                || rx.recv(),
                |r| (r.map_or(trace::NONE, value::id), r.is_ok()),
            )
        } else {
            rx.recv()
        };
        take(&mut check, r, &mut acc);
    }
    let t1 = Instant::now();
    let (spans, dropped) = if traced {
        trace::take()
    } else {
        (Vec::new(), 0)
    };
    // Nothing beyond the messages sent: the next receive sees the
    // producer hang up.
    if rx.recv().is_ok() {
        check.missing();
    }
    std::hint::black_box(acc);
    Out {
        t0,
        t1,
        check,
        spans,
        dropped,
    }
}

/// Messages kept queued during the latency pass, so that every call
/// works in the middle of the queue rather than at its empty or full
/// edge (half the `backpressure` ring).
const BACKLOG: u64 = WCQ_CAPACITY as u64 / 2;

/// The latency pass: one thread sends a message and receives one over a
/// standing backlog, and each message's `send` plus `recv` is one
/// sample. With both ends on one thread no call parks, so the figure is
/// the channel's own cost per message; with two threads a call's time
/// is mostly whether it parked, which swings from run to run (see
/// NOTES.md).
fn solo<Q: ConcurrentQueue<u64>>(chan: &Channel<u64, Q>, setup: Instant, seed: u64) -> Rep {
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut tx, mut rx) = (chan.sender(), chan.receiver());
            let mut check = Check::new(1);
            let mut lat_ns = Vec::with_capacity(MSGS as usize);
            let mut send = |check: &mut Check, seq: u64| {
                let v = value::make(seed, 0, seq);
                check.sent(v);
                if tx.send(v).is_err() {
                    check.missing();
                }
            };
            let mut recv = |check: &mut Check| match rx.try_recv() {
                Ok(v) => check.got(v, true),
                Err(_) => check.missing(),
            };
            for seq in 0..BACKLOG + WARM {
                send(&mut check, seq);
                if seq >= BACKLOG {
                    recv(&mut check);
                }
            }
            let t0 = Instant::now();
            for seq in BACKLOG + WARM..BACKLOG + WARM + MSGS {
                let a = Instant::now();
                send(&mut check, seq);
                recv(&mut check);
                lat_ns.push(a.elapsed().as_nanos() as u64);
            }
            let t1 = Instant::now();
            for _ in 0..BACKLOG {
                recv(&mut check);
            }
            Rep {
                ops: MSGS,
                attempted: BACKLOG + WARM + MSGS,
                failed: check.failed + u64::from(check.sent_sum != check.got_sum),
                setup_s: (t0 - setup).as_secs_f64(),
                elapsed_s: (t1 - t0).as_secs_f64(),
                lat_ns,
                ..Rep::default()
            }
        })
        .join()
        .expect("latency thread panicked")
    })
}

/// The consumer's own per-message work: `rounds` xorshift steps.
fn work(rounds: u64, x: &mut u64) {
    for _ in 0..rounds {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
    }
}

#[allow(clippy::too_many_arguments)]
fn layer(
    rep: &mut Rep,
    kind: Kind,
    h0: &HealthSnapshot,
    h1: &HealthSnapshot,
    e0: &Engine,
    e1: &Engine,
    allocs: u64,
    peak: u64,
) {
    let msgs = rep.ops as f64;
    let send = trace::named(&rep.spans, SEND);
    let recv = trace::named(&rep.spans, RECV);
    let work = trace::named(&rep.spans, WORK);
    let reg = trace::named(&rep.spans, REGISTER);
    let (tx_parks, tx_wakes) = h1
        .shards
        .iter()
        .zip(&h0.shards)
        .fold((0, 0), |(p, w), (b, a)| {
            (p + b.tx_parks - a.tx_parks, w + b.tx_wakes - a.tx_wakes)
        });
    let rx_parks = h1.rx_parks - h0.rx_parks;
    let rx_wakes = h1.rx_wakes - h0.rx_wakes;
    let work_ns: u64 = work.durs.iter().sum();
    let recv_ns: u64 = recv.durs.iter().sum();
    let mut m = vec![
        ("kp-channel.send_ns", median(&send.durs)),
        ("kp-channel.send_p99_ns", quantile(&send.durs, 0.99)),
        ("kp-channel.recv_ns", median(&recv.durs)),
        ("kp-channel.send_self_ns", median(&send.selfs)),
        ("kp-channel.recv_self_ns", median(&recv.selfs)),
        ("kp-channel.rx_parks_per_msg", rx_parks as f64 / msgs),
        ("kp-channel.rx_wakes_per_park", ratio(rx_wakes, rx_parks)),
        ("kp-channel.tx_parks_per_msg", tx_parks as f64 / msgs),
        ("kp-channel.tx_wakes_per_park", ratio(tx_wakes, tx_parks)),
        ("consumer.busy_frac", ratio(work_ns, work_ns + recv_ns)),
        ("alloc-track.allocs_per_op", allocs as f64 / msgs),
        ("alloc-track.peak_live_kb", peak as f64 / 1024.0),
        ("idpool.register_us", median(&reg.durs) / 1e3),
    ];
    match kind {
        Kind::Stream => {
            let d = crate::stats_delta(&e0.kp, &e1.kp);
            let enq = trace::named(&rep.spans, KP.enqueue);
            let deq = trace::named(&rep.spans, KP.dequeue);
            m.extend([
                ("kp-queue.enqueue_ns", median(&enq.durs)),
                ("kp-queue.dequeue_ns", median(&deq.durs)),
                ("kp-queue.help_calls_per_op", d.help_calls as f64 / msgs),
                ("kp-queue.helped_fraction", d.helped_fraction()),
                ("kp-queue.phase_scans_per_op", d.phase_scans as f64 / msgs),
                ("kp-queue.node_allocs_per_op", d.node_allocs as f64 / msgs),
                (
                    "kp-queue.node_reuse_ratio",
                    ratio(d.node_reuses, d.node_allocs + d.node_reuses),
                ),
                ("kp-queue.fast_fallback_rate", d.fallback_rate()),
                ("kp-queue.empty_polls_per_msg", deq.not_ok as f64 / msgs),
                ("kp-queue.enqueue_p99_ns", quantile(&enq.durs, 0.99)),
                ("kp-queue.dequeue_p99_ns", quantile(&deq.durs, 0.99)),
            ]);
        }
        Kind::Backpressure => {
            let enq = trace::named(&rep.spans, WCQ.enqueue);
            let deq = trace::named(&rep.spans, WCQ.dequeue);
            m.extend([
                ("wcq.enqueue_ns", median(&enq.durs)),
                ("wcq.dequeue_ns", median(&deq.durs)),
                ("wcq.full_refusals_per_msg", enq.not_ok as f64 / msgs),
                ("wcq.empty_polls_per_msg", deq.not_ok as f64 / msgs),
                (
                    "wcq.threshold_resets_per_msg",
                    (e1.wcq_resets - e0.wcq_resets) as f64 / msgs,
                ),
            ]);
        }
    }
    rep.layer = m;
}
