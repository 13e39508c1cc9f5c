//! Seed-matrix chaos driver: runs crash-and-stall torture rounds
//! against the wait-free queue and exits non-zero on any violation —
//! lost/duplicated values, an unreclaimable thread slot, or a
//! wait-freedom watchdog breach.
//!
//! Built only with `--features chaos`:
//!
//! ```text
//! cargo run --release --features chaos --bin torture -- \
//!     --seeds 1,7,42 --threads 4 --ops 20000 --stalls 12
//! ```
//!
//! Every round is derived deterministically from its seed
//! ([`FaultPlan::seeded`]), so a failing seed is a replayable repro:
//! `--seeds <bad-seed>`.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex, Once};

use chaos::{ChaosKill, FaultPlan, ThreadSel};
use harness::args::Args;
use kp_queue::{Config, ConcurrentQueue, WfQueue};

/// Sites the seeded stall plans draw from.
const SITES: &[&str] = &[
    "kp.publish",
    "kp.append",
    "kp.clear_pending.enq",
    "kp.swing_tail",
    "kp.bind_sentinel",
    "kp.lock_sentinel",
    "kp.clear_pending.deq",
    "kp.swing_head",
    "hazard.protect.validate",
    "idpool.acquire",
];

fn quiet_chaos_kills() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosKill>().is_none() {
                default(info);
            }
        }));
    });
}

/// One torture round; `$queue` builds the queue, `$kill_site` the step
/// the victim (tid 0, a consumer) dies at. Returns `Err` with a
/// description instead of panicking so the driver can keep sweeping.
macro_rules! round {
    ($queue:expr, $kill_site:literal, $seed:expr, $threads:expr, $per:expr, $stalls:expr) => {{
        let n: usize = $threads;
        let per: usize = $per;
        let producers = n / 2;
        let plan = FaultPlan::seeded($seed, SITES, n, $stalls).kill(
            $kill_site,
            ThreadSel::Id(0),
            $seed % 5,
        );
        let session = chaos::install(plan);
        let q = $queue;
        let sinks: Vec<Mutex<Vec<u64>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(n);
        let mut kills_seen = 0usize;
        let mut unexpected: Option<String> = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let q = &q;
                    let sinks = &sinks;
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut h = q.register().expect("register");
                        let tid = h.tid();
                        let _token = chaos::register_thread(tid);
                        barrier.wait();
                        if tid >= n - producers {
                            let p = tid - (n - producers);
                            for i in 0..per {
                                h.enqueue((p * per + i) as u64);
                            }
                        } else {
                            for _ in 0..(2 * per * producers) {
                                if let Some(v) = h.dequeue() {
                                    sinks[tid].lock().unwrap().push(v);
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(e) = h.join() {
                    match e.downcast_ref::<ChaosKill>() {
                        Some(k) if k.thread == 0 && k.site == $kill_site => kills_seen += 1,
                        Some(k) => {
                            unexpected = Some(format!("unplanned kill at {} (tid {})", k.site, k.thread))
                        }
                        None => unexpected = Some("worker died with a real panic".to_string()),
                    }
                }
            }
        });
        let report = session.report();
        drop(session);

        let mut outcome: Result<chaos::Report, String> = Ok(report);
        if let Some(msg) = unexpected {
            outcome = Err(msg);
        } else if kills_seen != report.kills as usize || report.kills > 1 {
            outcome = Err(format!(
                "kill accounting off: joined {kills_seen}, report {}",
                report.kills
            ));
        } else {
            // Survivors must be able to reclaim every slot, then the
            // ledger must balance up to one discarded value per kill.
            let mut survivors = Vec::new();
            for _ in 0..n {
                match q.register() {
                    Ok(h) => survivors.push(h),
                    Err(e) => {
                        outcome = Err(format!("slot not reclaimable after crash: {e:?}"));
                        break;
                    }
                }
            }
            if outcome.is_ok() {
                let mut drain = Vec::new();
                while let Some(v) = survivors[0].dequeue() {
                    drain.push(v);
                }
                drop(survivors);
                let total = producers * per;
                let mut seen: HashSet<u64> = HashSet::new();
                let mut dup_or_invented = None;
                for batch in sinks.iter().map(|m| m.lock().unwrap()) {
                    for &v in batch.iter() {
                        if v as usize >= total {
                            dup_or_invented = Some(format!("invented value {v}"));
                        } else if !seen.insert(v) {
                            dup_or_invented = Some(format!("value {v} dequeued twice"));
                        }
                    }
                }
                for &v in &drain {
                    if v as usize >= total {
                        dup_or_invented = Some(format!("invented value {v}"));
                    } else if !seen.insert(v) {
                        dup_or_invented = Some(format!("value {v} dequeued twice"));
                    }
                }
                let missing = total - seen.len();
                if let Some(msg) = dup_or_invented {
                    outcome = Err(msg);
                } else if missing > report.kills as usize {
                    outcome = Err(format!(
                        "{missing} values lost ({} kills can explain at most {})",
                        report.kills, report.kills
                    ));
                }
            }
        }
        if outcome.is_ok() {
            // Wait-freedom watchdog: linear per-op step budget.
            let budget = 400 + 200 * n as u64;
            if report.max_op_steps > budget {
                outcome = Err(format!(
                    "watchdog: worst op took {} steps, budget {budget}",
                    report.max_op_steps
                ));
            }
        }
        outcome
    }};
}

fn main() {
    quiet_chaos_kills();
    let args = Args::from_env();
    let seeds: Vec<u64> = args
        .get("seeds")
        .unwrap_or("1,7,42,1337,24181")
        .split(',')
        .map(|s| match s.trim().parse() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: bad seed {s:?} ({e})");
                std::process::exit(2);
            }
        })
        .collect();
    let threads: usize = args.get_or("threads", 4);
    let per: usize = args.get_or("ops", 20_000);
    let stalls: usize = args.get_or("stalls", 12);
    if threads < 2 {
        eprintln!("error: --threads must be at least 2");
        std::process::exit(2);
    }

    let mut failures = 0usize;
    for &seed in &seeds {
        let outcome = round!(
            WfQueue::<u64>::with_config(threads, Config::opt_both()),
            "kp.clear_pending.deq",
            seed,
            threads,
            per,
            stalls
        );
        match outcome {
            Ok(report) => println!(
                "seed {seed:>6} ok: {} ops, {} stalls, {} kills, worst op {} steps",
                report.ops, report.stalls, report.kills, report.max_op_steps
            ),
            Err(msg) => {
                failures += 1;
                eprintln!("seed {seed:>6} FAILED: {msg}");
            }
        }
    }
    if failures > 0 {
        eprintln!("torture: {failures} round(s) failed");
        std::process::exit(1);
    }
    println!("torture: all {} round(s) passed", seeds.len());
}
