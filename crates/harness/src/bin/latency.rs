//! Extension experiment: per-operation latency tails.
//!
//! The paper motivates wait-freedom with bounded completion time per
//! operation (real-time systems, SLAs, heterogeneous threads) but its
//! evaluation only reports total completion time. This binary measures
//! what the guarantee buys: the tail of the per-operation latency
//! distribution under oversubscription, where preempted lock-free
//! threads can stall behind the scheduler while wait-free operations
//! get finished by their helpers.

use std::path::Path;

use harness::args::{Args, BenchArgs};
use harness::latency::profile_pairs;
use harness::report::{render_table, write_csv, Series};
use harness::{SchedPolicy, Variant};
use kp_queue::WfQueue;
use ms_queue::{MsQueue, MsQueueHp, MutexQueue};

fn main() {
    let args = Args::from_env();
    let bench = BenchArgs::parse(&args);
    let sched = args
        .get("sched")
        .map(|s| {
            SchedPolicy::parse(s).unwrap_or_else(|| {
                harness::args::bad_value_exit("sched", s, "expected pinned|unpinned|yielding")
            })
        })
        .unwrap_or(SchedPolicy::Yielding);
    let threads: usize = args.get_or("threads", 2 * harness::sched::num_cores().max(4));
    let iters = bench.iters;

    println!(
        "Latency tails (pairs workload) | threads = {threads}, iters/thread = {iters}, sched = {sched}"
    );

    let variants = [
        Variant::Lf,
        Variant::LfHp,
        Variant::WfBase,
        Variant::WfOptBoth,
        Variant::Mutex,
    ];
    let mut p50 = Series::new("p50");
    let mut p99 = Series::new("p99");
    let mut p999 = Series::new("p99.9");
    let mut p9999 = Series::new("p99.99");
    let mut maxs = Series::new("max");

    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>12}  [ns]",
        "variant", "p50", "p99", "p99.9", "p99.99", "max"
    );
    for (idx, v) in variants.iter().enumerate() {
        let mut profile = match v {
            Variant::Lf => profile_pairs(&MsQueue::new(), threads, iters, sched),
            Variant::LfHp => profile_pairs(&MsQueueHp::new(), threads, iters, sched),
            Variant::Mutex => profile_pairs(&MutexQueue::new(), threads, iters, sched),
            wf => {
                let q: WfQueue<u64> =
                    WfQueue::with_config(threads, wf.wf_config().expect("wf variant"));
                profile_pairs(&q, threads, iters, sched)
            }
        };
        let q = profile.quantiles();
        println!(
            "{:>14} {:>10} {:>10} {:>10} {:>10} {:>12}",
            v.label(),
            q.p50,
            q.p99,
            q.p999,
            q.p9999,
            q.max
        );
        p50.push(idx, q.p50 as f64);
        p99.push(idx, q.p99 as f64);
        p999.push(idx, q.p999 as f64);
        p9999.push(idx, q.p9999 as f64);
        maxs.push(idx, q.max as f64);
    }
    println!("variant indices: {:?}", variants.map(|v| v.label()));

    let series = [p50, p99, p999, p9999, maxs];
    let path = Path::new(&bench.out_dir).join(format!("latency_{sched}.csv"));
    write_csv(&path, "variant_index", &series).expect("write CSV");
    print!(
        "{}",
        render_table("Latency quantiles (ns) by variant index", "variant", "ns", &series)
    );
    println!("-> {}", path.display());
}
