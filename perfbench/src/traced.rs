//! Forwarding engine wrapper for the traced run.
//!
//! [`Traced`] implements `ConcurrentQueue`/`QueueHandle` around the
//! same engines `Channel::kp` and `Channel::wcq` build, recording a
//! span around every call the channel makes into its engine. Every
//! trait method is forwarded, the provided ones included (batch ops,
//! `thread_capacity`, the `*_hint` gauges, `fast_path_stats`), so the
//! traced channel runs the engine paths the untraced one runs; the
//! tests below check that.

use std::sync::Arc;

use kp_channel::{Channel, ChannelConfig, ShardSpec};
use queue_traits::{ConcurrentQueue, FastPathStats, QueueHandle, RegistrationError};

use crate::trace::{self, NONE};
use crate::value;

/// Span names for one engine's calls.
#[derive(Clone, Copy)]
pub struct Names {
    pub enqueue: &'static str,
    pub dequeue: &'static str,
    pub enqueue_batch: &'static str,
    pub dequeue_batch: &'static str,
}

pub const KP: Names = Names {
    enqueue: "kp-queue.enqueue",
    dequeue: "kp-queue.dequeue",
    enqueue_batch: "kp-queue.enqueue_batch",
    dequeue_batch: "kp-queue.dequeue_batch",
};

pub const WCQ: Names = Names {
    enqueue: "wcq.enqueue",
    dequeue: "wcq.dequeue",
    enqueue_batch: "wcq.enqueue_batch",
    dequeue_batch: "wcq.dequeue_batch",
};

/// Registration span: a handle's thread id comes from `idpool`.
pub const REGISTER: &str = "idpool.register";

/// An engine whose calls are traced. The engine is shared so the
/// benchmark can still read its own statistics after handing the
/// wrapper to a channel.
pub struct Traced<Q> {
    inner: Arc<Q>,
    names: Names,
}

impl<Q> Traced<Q> {
    pub fn new(inner: Arc<Q>, names: Names) -> Self {
        Traced { inner, names }
    }
}

impl<Q: ConcurrentQueue<u64>> ConcurrentQueue<u64> for Traced<Q> {
    type Handle<'a>
        = TracedHandle<Q::Handle<'a>>
    where
        Self: 'a;

    fn register(&self) -> Result<Self::Handle<'_>, RegistrationError> {
        let names = self.names;
        trace::span(REGISTER, || self.inner.register(), |r| (NONE, r.is_ok()))
            .map(|inner| TracedHandle { inner, names })
    }

    fn thread_capacity(&self) -> usize {
        self.inner.thread_capacity()
    }

    fn depth_hint(&self) -> Option<usize> {
        self.inner.depth_hint()
    }

    fn drained_hint(&self) -> Option<u64> {
        self.inner.drained_hint()
    }

    fn pressure_hint(&self) -> u64 {
        self.inner.pressure_hint()
    }

    fn capacity_hint(&self) -> Option<usize> {
        self.inner.capacity_hint()
    }
}

pub struct TracedHandle<H> {
    inner: H,
    names: Names,
}

impl<H: QueueHandle<u64>> QueueHandle<u64> for TracedHandle<H> {
    fn enqueue(&mut self, v: u64) {
        trace::span(
            self.names.enqueue,
            || self.inner.enqueue(v),
            |_| (value::id(v), true),
        )
    }

    fn dequeue(&mut self) -> Option<u64> {
        trace::span(
            self.names.dequeue,
            || self.inner.dequeue(),
            |r| (r.map_or(NONE, value::id), r.is_some()),
        )
    }

    fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
        trace::span(
            self.names.enqueue,
            || self.inner.try_enqueue(v),
            |r| (value::id(v), r.is_ok()),
        )
    }

    fn try_enqueue_batch(&mut self, batch: &mut Vec<u64>) -> usize {
        let (first, len) = (batch.first().map_or(NONE, |&v| value::id(v)), batch.len());
        trace::span(
            self.names.enqueue_batch,
            || self.inner.try_enqueue_batch(batch),
            |&n| (first, n == len),
        )
    }

    fn dequeue_batch(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        let at = out.len();
        let t = trace::open(self.names.dequeue_batch);
        let n = self.inner.dequeue_batch(out, max);
        trace::close(t, out.get(at).map_or(NONE, |&v| value::id(v)), n > 0);
        n
    }

    fn fast_path_stats(&self) -> Option<FastPathStats> {
        self.inner.fast_path_stats()
    }
}

/// A channel over traced engines, with the engines themselves, whose
/// own statistics the benchmark reads.
pub type Built<Q> = (Channel<u64, Traced<Q>>, Vec<Arc<Q>>);

fn build<Q: ConcurrentQueue<u64>>(
    cfg: ChannelConfig,
    names: Names,
    make: impl Fn(ShardSpec) -> Q,
) -> Built<Q> {
    let mut engines = Vec::new();
    let chan = Channel::with_factory(cfg, |s| {
        let q = Arc::new(make(s));
        engines.push(Arc::clone(&q));
        Traced::new(q, names)
    });
    (chan, engines)
}

/// `Channel::kp`, each shard's engine traced.
pub fn kp_channel(cfg: ChannelConfig) -> Built<kp_queue::WfQueue<u64>> {
    build(cfg, KP, |s| {
        kp_queue::WfQueue::with_config(s.threads, kp_queue::Config::fast())
    })
}

/// `Channel::wcq`, each shard's engine traced.
pub fn wcq_channel(cfg: ChannelConfig, shard_capacity: usize) -> Built<wcq::WcQueue<u64>> {
    build(cfg, WCQ, |s| {
        wcq::WcQueue::with_config(s.threads, wcq::Config::new().with_capacity(shard_capacity))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kp_channel::TryRecvError;
    use std::sync::Mutex;

    /// An engine that logs every trait method called on it and answers
    /// with values no provided method would give.
    #[derive(Default)]
    struct Probe {
        calls: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn log(&self, call: &'static str) {
            self.calls.lock().expect("probe log").push(call);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.calls.lock().expect("probe log"))
        }
    }

    struct ProbeHandle<'a>(&'a Probe);

    impl ConcurrentQueue<u64> for Probe {
        type Handle<'a> = ProbeHandle<'a>;

        fn register(&self) -> Result<ProbeHandle<'_>, RegistrationError> {
            self.log("register");
            Ok(ProbeHandle(self))
        }

        fn thread_capacity(&self) -> usize {
            self.log("thread_capacity");
            7
        }

        fn depth_hint(&self) -> Option<usize> {
            self.log("depth_hint");
            Some(11)
        }

        fn drained_hint(&self) -> Option<u64> {
            self.log("drained_hint");
            Some(13)
        }

        fn pressure_hint(&self) -> u64 {
            self.log("pressure_hint");
            17
        }

        fn capacity_hint(&self) -> Option<usize> {
            self.log("capacity_hint");
            Some(19)
        }
    }

    impl QueueHandle<u64> for ProbeHandle<'_> {
        fn enqueue(&mut self, _: u64) {
            self.0.log("enqueue");
        }

        fn dequeue(&mut self) -> Option<u64> {
            self.0.log("dequeue");
            Some(value::make(0, 0, 5))
        }

        fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
            self.0.log("try_enqueue");
            Err(v)
        }

        fn try_enqueue_batch(&mut self, batch: &mut Vec<u64>) -> usize {
            self.0.log("try_enqueue_batch");
            batch.pop();
            1
        }

        fn dequeue_batch(&mut self, out: &mut Vec<u64>, _: usize) -> usize {
            self.0.log("dequeue_batch");
            out.push(value::make(0, 0, 6));
            1
        }

        fn fast_path_stats(&self) -> Option<FastPathStats> {
            self.0.log("fast_path_stats");
            Some(FastPathStats {
                fast_completions: 23,
                ..FastPathStats::default()
            })
        }
    }

    #[test]
    fn every_trait_method_reaches_the_engine() {
        let probe = Arc::new(Probe::default());
        let q = Traced::new(Arc::clone(&probe), KP);
        trace::reserve(16);
        assert_eq!(q.thread_capacity(), 7);
        assert_eq!(q.depth_hint(), Some(11));
        assert_eq!(q.drained_hint(), Some(13));
        assert_eq!(q.pressure_hint(), 17);
        assert_eq!(q.capacity_hint(), Some(19));
        assert_eq!(
            probe.take(),
            [
                "thread_capacity",
                "depth_hint",
                "drained_hint",
                "pressure_hint",
                "capacity_hint"
            ]
        );

        let mut h = q.register().expect("probe registers");
        h.enqueue(value::make(0, 0, 1));
        assert_eq!(h.dequeue(), Some(value::make(0, 0, 5)));
        assert_eq!(h.try_enqueue(9), Err(9));
        assert_eq!(h.try_enqueue_batch(&mut vec![1, 2, 3]), 1);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 4), 1);
        assert_eq!(h.fast_path_stats().map(|s| s.fast_completions), Some(23));
        // One engine call per wrapper call: no method fell back to a
        // provided default built from the others.
        assert_eq!(
            probe.take(),
            [
                "register",
                "enqueue",
                "dequeue",
                "try_enqueue",
                "try_enqueue_batch",
                "dequeue_batch",
                "fast_path_stats"
            ]
        );

        let (spans, _) = trace::take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                REGISTER,
                KP.enqueue,
                KP.dequeue,
                KP.enqueue,
                KP.enqueue_batch,
                KP.dequeue_batch
            ]
        );
        assert_eq!(
            spans[2].id,
            value::id(value::make(0, 0, 5)),
            "a dequeue span carries the id of the value it took"
        );
        assert!(!spans[3].ok, "a refused enqueue is marked");
    }

    /// Drives a channel through sends, receives, batches, a full ring
    /// and an empty one from a single thread, logging every outcome.
    fn script<Q: ConcurrentQueue<u64>>(chan: &Channel<u64, Q>) -> Vec<String> {
        let (mut tx, mut rx) = (chan.sender(), chan.receiver());
        let mut log = Vec::new();
        for v in 0..12 {
            log.push(format!("{:?}", tx.try_send(v)));
        }
        for _ in 0..5 {
            log.push(format!("{:?}", rx.try_recv()));
        }
        let mut out = Vec::new();
        log.push(format!("{} {out:?}", rx.try_recv_batch(&mut out, 4)));
        log.push(format!("{:?}", tx.send(100)));
        log.push(format!("{:?}", tx.send_batch(101..104)));
        out.clear();
        log.push(format!("{:?} {out:?}", rx.recv_batch(&mut out, 16)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        log.push(format!("{:?}", chan.health_snapshot()));
        log
    }

    #[test]
    fn traced_channels_behave_like_the_stock_ones() {
        let cfg = ChannelConfig::new()
            .with_max_senders(1)
            .with_max_receivers(1);
        assert_eq!(script(&kp_channel(cfg).0), script(&Channel::kp(cfg)));
        let wcq = script(&Channel::wcq(cfg, 8));
        assert!(
            wcq[8].starts_with("Err(Full"),
            "the ring refuses its ninth value: {wcq:?}"
        );
        assert_eq!(script(&wcq_channel(cfg, 8).0), wcq);
    }
}
