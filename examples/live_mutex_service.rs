//! A mutual-exclusion *service* on the live runtime: Algorithm 3 running
//! as one instance per process on a small worker pool, over a concurrent
//! lossy transport, absorbing a client request stream — then the merged
//! trace checked against Specification 3.
//!
//! Run with: `cargo run --release --example live_mutex_service`

use std::time::Duration;

use snapstab_repro::core::spec::analyze_me_trace;
use snapstab_repro::runtime::{
    run_service, LiveConfig, MutexServiceConfig, ServiceRun, DEFAULT_WORKERS,
};

fn main() {
    let n = 8;
    let cfg = MutexServiceConfig {
        n,
        requests_per_process: 25,
        cs_duration: 0,
        live: LiveConfig {
            loss: 0.1, // fair-lossy links: every message faces a 10% coin
            seed: 42,
            jitter: Some(Duration::from_micros(200)),
            record_trace: true, // keep the merged trace for the spec check
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(60),
    };

    println!(
        "live mutex service: {n} instances on {DEFAULT_WORKERS} worker threads, \
         {} requests/process, 10% loss",
        cfg.requests_per_process
    );
    let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");

    println!(
        "served {}/{} requests in {:.2}s — {:.0} req/s, {:.0} msgs/s through the links",
        report.served,
        report.injected,
        report.wall.as_secs_f64(),
        report.requests_per_sec(),
        report.msgs_per_sec(),
    );
    if let Some((min, mean, max)) = report.latency_min_mean_max() {
        println!(
            "service latency: min {:.2} / mean {:.2} / max {:.2} ms",
            min.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        );
    }

    // The merged live trace is judged by the same executable
    // specification as simulator traces: no two genuine critical sections
    // may overlap (Correctness), every request is served (Start).
    let trace = report.trace.expect("recording was on");
    let spec = analyze_me_trace(&trace, n);
    println!(
        "Specification 3 on the merged live trace: {} CS intervals, \
         genuine overlaps: {}, all served: {}",
        spec.intervals.len(),
        spec.genuine_overlaps.len(),
        spec.all_served(),
    );
    assert!(spec.exclusivity_holds(), "mutual exclusion violated");
    assert!(spec.all_served(), "a client request was never served");
    println!("spec holds: live run is snap-stabilizing end to end");
}
