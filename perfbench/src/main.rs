//! The repository's benchmark: three closed-loop workloads, each run
//! untraced for the end-to-end metrics or traced for the per-layer ones.
//!
//! ```text
//! perfbench --workload <pairs|stream|backpressure> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds the details (every timing's median, tail and sample count,
//! `nproc`, the `oversubscribed` flag, the error rate). The exit code
//! is 0 only when every output check passed: 1 when one failed, 2 on
//! bad arguments, 3 when the program under test hangs. `NOTES.md` says
//! why each workload exists and what each metric should move.

mod alloc;
mod chan;
mod pairs;
mod trace;
mod traced;
mod value;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use kp_queue::StatsSnapshot;

#[global_allocator]
static ALLOC: alloc::Switch = alloc::Switch;

/// Worker threads every workload runs (the main thread only waits).
const THREADS: usize = 2;
/// Reps each pass runs at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A run with no rep finished for this long is hung (a rep takes well
/// under a second).
const HUNG_AFTER: Duration = Duration::from_secs(60);
/// At most this many spans of the last traced rep are written out.
const SPANS_WRITTEN: usize = 200_000;

/// End-to-end metrics, measured untraced: name and unit. The details
/// line also gives `op_p50_ns` and `op_p99_ns`, which are no metrics
/// here because on some workloads their medians move between runs of
/// one binary by more than a bound may allow (NOTES.md).
const END_TO_END: [(&str, &str); 2] = [("throughput_mops", "Mops/s"), ("setup_s", "s")];

/// Per-layer metrics, measured traced: name and unit. A layer a
/// workload does not reach reports 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("kp-queue.enqueue_ns", "ns"),
    ("kp-queue.dequeue_ns", "ns"),
    ("kp-queue.enqueue_p99_ns", "ns"),
    ("kp-queue.dequeue_p99_ns", "ns"),
    ("kp-queue.help_calls_per_op", "calls/op"),
    ("kp-queue.helped_fraction", "ratio"),
    ("kp-queue.phase_scans_per_op", "scans/op"),
    ("kp-queue.node_allocs_per_op", "allocs/op"),
    ("kp-queue.node_reuse_ratio", "ratio"),
    ("kp-queue.fast_fallback_rate", "ratio"),
    ("kp-queue.empty_polls_per_msg", "polls/msg"),
    ("alloc-track.allocs_per_op", "allocs/op"),
    ("alloc-track.peak_live_kb", "KiB"),
    ("idpool.register_us", "us"),
    ("kp-channel.send_ns", "ns"),
    ("kp-channel.send_p99_ns", "ns"),
    ("kp-channel.recv_ns", "ns"),
    ("kp-channel.send_self_ns", "ns"),
    ("kp-channel.recv_self_ns", "ns"),
    ("kp-channel.rx_parks_per_msg", "parks/msg"),
    ("kp-channel.rx_wakes_per_park", "wakes/park"),
    ("kp-channel.tx_parks_per_msg", "parks/msg"),
    ("kp-channel.tx_wakes_per_park", "wakes/park"),
    ("wcq.enqueue_ns", "ns"),
    ("wcq.dequeue_ns", "ns"),
    ("wcq.full_refusals_per_msg", "refusals/msg"),
    ("wcq.empty_polls_per_msg", "polls/msg"),
    ("wcq.threshold_resets_per_msg", "resets/msg"),
    ("consumer.busy_frac", "ratio"),
    ("trace_overhead", "ratio"),
];

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Nothing but the workload: throughput and set-up time.
    Plain,
    /// Every operation timed on its own: per-op latency.
    Latency,
    /// Spans around every call into a layer, allocation counting on.
    Traced,
}

/// What one rep of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Operations in the timed section: engine operations for `pairs`,
    /// messages delivered for the channel workloads.
    pub ops: u64,
    /// Operations whose output was checked, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Construction, registration, thread start and warm-up, up to the
    /// first timed operation.
    pub setup_s: f64,
    /// First timed operation to last, as the workers stamp them.
    pub elapsed_s: f64,
    /// Latency samples, freed by [`Rep::settle`] once summarized.
    pub lat_ns: Vec<u64>,
    pub lat: Option<Timing>,
    pub lat_p99: f64,
    pub spans: Vec<Vec<trace::Span>>,
    pub dropped: u64,
    pub layer: Vec<(&'static str, f64)>,
}

impl Rep {
    fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed_s / 1e6
    }

    /// Summarizes the latency samples and frees them: a run holds
    /// hundreds of reps.
    fn settle(&mut self) {
        if !self.lat_ns.is_empty() {
            self.lat = Some(Timing::of(&self.lat_ns));
            self.lat_p99 = quantile(&self.lat_ns, 0.99);
            self.lat_ns = Vec::new();
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Pairs,
    Stream,
    Backpressure,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "pairs" => Some(Workload::Pairs),
            "stream" => Some(Workload::Stream),
            "backpressure" => Some(Workload::Backpressure),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Pairs => "pairs",
            Workload::Stream => "stream",
            Workload::Backpressure => "backpressure",
        }
    }

    fn rep(self, seed: u64, mode: Mode) -> Rep {
        match self {
            Workload::Pairs => pairs::rep(seed, mode),
            Workload::Stream => chan::rep(chan::Kind::Stream, seed, mode),
            Workload::Backpressure => chan::rep(chan::Kind::Backpressure, seed, mode),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <pairs|stream|backpressure> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    watchdog();
    let out = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let error_rate = ratio(out.failed, out.attempted);
    let mut detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {THREADS}, \"oversubscribed\": {}, \"error_rate\": {error_rate}, \"notes\": [",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS > nproc,
    );
    for (i, n) in out.notes.iter().enumerate() {
        let _ = write!(detail, "{}\"{n}\"", if i == 0 { "" } else { ", " });
    }
    detail.push_str("], \"timings\": {");
    for (i, (name, unit, t)) in out.timings.iter().enumerate() {
        let tail = match t.tail {
            Some((q, v)) => format!("\"tail_q\": {q}, \"tail\": {v}"),
            None => "\"tail_q\": null, \"tail\": null".into(),
        };
        let _ = write!(
            detail,
            "{}\"{name}\": {{\"unit\": \"{unit}\", \"n\": {}, \"median\": {}, {tail}}}",
            if i == 0 { "" } else { ", " },
            t.n,
            t.median
        );
    }
    detail.push_str("}, \"reps\": {");
    for (i, (name, v)) in out.per_rep.iter().enumerate() {
        let list: Vec<String> = v.iter().map(f64::to_string).collect();
        let _ = write!(
            detail,
            "{}\"{name}\": [{}]",
            if i == 0 { "" } else { ", " },
            list.join(", ")
        );
    }
    detail.push_str("}}");
    println!("{detail}");

    let mut metrics = String::new();
    for (i, (name, unit, v)) in out.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    );
    if !out.correct {
        std::process::exit(1);
    }
}

/// What a run reports.
struct RunOut {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    timings: Vec<(String, &'static str, Timing)>,
    /// Each rep's value of the end-to-end metrics, in rep order.
    per_rep: Vec<(&'static str, Vec<f64>)>,
    notes: Vec<String>,
}

/// Runs reps of `mode` until `budget` has passed and at least
/// [`MIN_REPS`] have run, or exactly `count` reps when given. Rep `i`
/// of every pass gets the same seed, so passes see the same inputs.
fn pass(w: Workload, seed: u64, mode: Mode, budget: Duration, count: Option<usize>) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let done = match count {
            Some(n) => reps.len() == n,
            None => reps.len() >= MIN_REPS && start.elapsed() >= budget,
        };
        if done {
            return reps;
        }
        // Only the last rep's spans are kept (they are written out); the
        // others have given their figures and would only take memory.
        if let Some(prev) = reps.last_mut() {
            prev.spans = Vec::new();
        }
        let mut r = w.rep(value::mix(seed ^ value::mix(reps.len() as u64)), mode);
        r.settle();
        reps.push(r);
        LAST_REP_MS.store(since_start_ms(), Ordering::Relaxed);
    }
}

/// Milliseconds from process start to the end of the latest rep.
static LAST_REP_MS: AtomicU64 = AtomicU64::new(0);

fn since_start_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Ends the process, without a result, when no rep has finished for
/// [`HUNG_AFTER`]: a channel that loses a message leaves its consumer
/// parked for good, and the run must still end. The thread is not
/// joined; it ends with the process.
fn watchdog() {
    since_start_ms();
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_secs(1));
        let idle = since_start_ms() - LAST_REP_MS.load(Ordering::Relaxed);
        if idle > HUNG_AFTER.as_millis() as u64 {
            eprintln!(
                "perfbench: no rep finished in {} s; the program under test hangs",
                idle / 1000
            );
            std::process::exit(3);
        }
    });
}

fn totals(reps: &[Rep]) -> (u64, u64) {
    reps.iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// Throughput, latency and set-up time with tracing off. Per-op latency
/// comes from a pass of its own, so timing every op does not touch the
/// throughput figure.
fn untraced_run(args: &Args) -> RunOut {
    let s = Duration::from_secs(args.seconds);
    // One rep to fault in code and heap before anything is timed.
    let warm = pass(
        args.workload,
        !args.seed,
        Mode::Plain,
        Duration::ZERO,
        Some(1),
    );
    let plain = pass(args.workload, args.seed, Mode::Plain, s / 2, None);
    let lat = pass(args.workload, args.seed, Mode::Latency, s / 2, None);

    let mops: Vec<f64> = plain.iter().map(Rep::mops).collect();
    let setup: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    let lat_t: Vec<&Timing> = lat.iter().filter_map(|r| r.lat.as_ref()).collect();
    let p50: Vec<f64> = lat_t.iter().map(|t| t.median).collect();
    let p99: Vec<f64> = lat.iter().map(|r| r.lat_p99).collect();
    // Every latency rep has as many samples, so their tails sit at one
    // percentile: the run reports the median of each over reps.
    let op = Timing {
        n: lat_t.iter().map(|t| t.n).sum(),
        median: median_f(&p50),
        tail: lat_t.first().and_then(|t| t.tail).map(|(q, _)| {
            let tails: Vec<f64> = lat_t
                .iter()
                .filter_map(|t| t.tail)
                .map(|(_, v)| v)
                .collect();
            (q, median_f(&tails))
        }),
    };

    let (a0, f0) = totals(&warm);
    let (a1, f1) = totals(&plain);
    let (a2, f2) = totals(&lat);
    let (attempted, failed) = (a0 + a1 + a2, f0 + f1 + f2);
    let values = [median_f(&mops), median_f(&setup)];
    RunOut {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        timings: vec![
            ("throughput_mops".into(), "Mops/s", Timing::of_f(&mops)),
            ("setup_s".into(), "s", Timing::of_f(&setup)),
            ("op_p50_ns".into(), "ns", Timing::of_f(&p50)),
            ("op_p99_ns".into(), "ns", Timing::of_f(&p99)),
            ("op_ns".into(), "ns", op),
        ],
        per_rep: vec![
            ("throughput_mops", mops),
            ("op_p50_ns", p50),
            ("op_p99_ns", p99),
            ("setup_s", setup),
        ],
        notes: Vec::new(),
    }
}

/// Per-layer metrics from a traced pass, then an untraced pass of the
/// same reps (same seeds) for the tracing overhead. Both passes must
/// deliver the same number of operations with the same failures.
fn traced_run(args: &Args) -> RunOut {
    let s = Duration::from_secs(args.seconds);
    alloc::set_counting(true);
    let warm = pass(
        args.workload,
        !args.seed,
        Mode::Traced,
        Duration::ZERO,
        Some(1),
    );
    let traced = pass(args.workload, args.seed, Mode::Traced, s / 2, None);
    alloc::set_counting(false);
    let plain = pass(
        args.workload,
        args.seed,
        Mode::Plain,
        Duration::ZERO,
        Some(traced.len()),
    );

    let ops = |reps: &[Rep]| reps.iter().map(|r| r.ops).sum::<u64>();
    let mops = |reps: &[Rep]| median_f(&reps.iter().map(Rep::mops).collect::<Vec<_>>());
    let (at, ft) = totals(&traced);
    let (ap, fp) = totals(&plain);
    let (aw, fw) = totals(&warm);
    let mut notes = Vec::new();
    let same = ops(&traced) == ops(&plain) && at == ap && ft == fp;
    if !same {
        notes.push(format!(
            "traced and untraced passes disagree: {} vs {} ops, {ft} vs {fp} failed",
            ops(&traced),
            ops(&plain)
        ));
    }
    let dropped: u64 = traced.iter().map(|r| r.dropped).sum();
    if dropped > 0 {
        notes.push(format!(
            "{dropped} spans dropped for room; span figures cover the rest"
        ));
    }

    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &traced {
        for &(name, v) in &r.layer {
            by_name.entry(name).or_default().push(v);
        }
    }
    let overhead = mops(&traced) / mops(&plain);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "trace_overhead" {
                overhead
            } else {
                by_name.get(name).map_or(0.0, |v| median_f(v))
            };
            (name, unit, v)
        })
        .collect();

    let mut spans: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in traced.last().map_or(&[][..], |r| &r.spans).iter().flatten() {
        spans.entry(s.name).or_default().push(s.dur());
    }
    let mut timings: Vec<(String, &str, Timing)> = spans
        .iter()
        .map(|(name, d)| (format!("span.{name}"), "ns", Timing::of(d)))
        .collect();
    timings.push((
        "throughput_mops.traced".into(),
        "Mops/s",
        Timing::of_f(&traced.iter().map(Rep::mops).collect::<Vec<_>>()),
    ));
    timings.push((
        "throughput_mops.untraced".into(),
        "Mops/s",
        Timing::of_f(&plain.iter().map(Rep::mops).collect::<Vec<_>>()),
    ));

    if let Some(last) = traced.last() {
        match write_spans(args.workload, &last.spans) {
            Ok(path) => notes.push(format!("spans of the last traced rep: {path}")),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
    }
    let failed = ft + fp + fw;
    RunOut {
        correct: failed == 0 && same,
        attempted: at + ap + aw,
        failed,
        metrics,
        timings,
        per_rep: Vec::new(),
        notes,
    }
}

fn write_spans(w: Workload, spans: &[Vec<trace::Span>]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.csv", w.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    trace::write_csv(&mut f, spans, SPANS_WRITTEN)?;
    std::io::Write::flush(&mut f)?;
    Ok(path.display().to_string())
}

/// A timing's median and its highest percentile that still has at
/// least ten samples beyond it, with the sample count.
pub struct Timing {
    n: usize,
    median: f64,
    tail: Option<(f64, f64)>,
}

impl Timing {
    fn of(v: &[u64]) -> Timing {
        Timing {
            n: v.len(),
            median: quantile(v, 0.5),
            tail: tail_q(v.len()).map(|q| (q, quantile(v, q))),
        }
    }

    fn of_f(v: &[f64]) -> Timing {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        Timing {
            n: v.len(),
            median: median_f(v),
            tail: tail_q(v.len()).map(|q| (q, s[rank(q, s.len())])),
        }
    }
}

/// The highest of the usual percentiles with at least ten of `n`
/// samples beyond it.
fn tail_q(n: usize) -> Option<f64> {
    [0.99999, 0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).round() >= 10.0)
}

/// Index of the nearest-rank `q` quantile among `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile; 0 for no samples.
pub fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    let k = rank(q, s.len());
    *s.select_nth_unstable(k).1 as f64
}

pub fn median(v: &[u64]) -> f64 {
    quantile(v, 0.5)
}

/// Median of measurements (the mean of the middle two for an even
/// count); 0 for none.
fn median_f(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The counters a traced rep reads from a KP queue, over an interval.
pub fn stats_delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        enqueues: b.enqueues - a.enqueues,
        dequeues: b.dequeues - a.dequeues,
        empty_dequeues: b.empty_dequeues - a.empty_dequeues,
        helped_appends: b.helped_appends - a.helped_appends,
        helped_locks: b.helped_locks - a.helped_locks,
        phase_scans: b.phase_scans - a.phase_scans,
        help_calls: b.help_calls - a.help_calls,
        node_allocs: b.node_allocs - a.node_allocs,
        node_reuses: b.node_reuses - a.node_reuses,
        fast_completions: b.fast_completions - a.fast_completions,
        fast_exhaustions: b.fast_exhaustions - a.fast_exhaustions,
        fast_starvation_demotions: b.fast_starvation_demotions - a.fast_starvation_demotions,
        ..StatsSnapshot::default()
    }
}
