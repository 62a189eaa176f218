//! The sharded, batching mutex service on the live runtime: S independent
//! snap-stabilizing Algorithm 3 instances (one leader each) own
//! hash-partitioned slices of a resource space, and every critical-section
//! grant serves a batch of non-conflicting client requests — then the
//! grant log is audited and each shard's trace projection is checked
//! against Specification 3.
//!
//! Run with: `cargo run --release --example sharded_mutex_service`

use std::time::Duration;

use snapstab_repro::core::shard::project_shard_trace;
use snapstab_repro::core::spec::analyze_me_trace;
use snapstab_repro::runtime::{run_service, LiveConfig, ServiceRun, ShardedServiceConfig};

fn main() {
    let n = 8;
    let shards = 4;
    let cfg = ShardedServiceConfig {
        n,
        shards,
        batch: 4,
        requests_per_process: 64,
        key_space: 1 << 12,
        cs_duration: 0,
        live: LiveConfig {
            seed: 42,
            record_trace: true, // keep the merged trace for the spec checks
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(60),
    };

    println!(
        "sharded mutex service: {n} processes × {shards} shards \
         (leaders on processes 0..{shards}), batch ≤ {}, {} requests/process",
        cfg.batch, cfg.requests_per_process
    );
    let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");

    println!(
        "served {}/{} requests in {:.2}s — {:.0} req/s over {} grants \
         ({:.2} requests per grant), {:.0} msgs/s through the links",
        report.served,
        report.injected.len(),
        report.wall.as_secs_f64(),
        report.requests_per_sec(),
        report.grant_log.len(),
        report.mean_batch(),
        report.msgs_per_sec(),
    );
    for (s, served) in report.per_shard_served.iter().enumerate() {
        println!("  shard {s}: {served} requests");
    }
    if let Some([p50, p99]) = report
        .latency_quantiles(&[0.5, 0.99])
        .map(|v| <[_; 2]>::try_from(v).expect("two quantiles"))
    {
        println!(
            "service latency: p50 {:.2} ms / p99 {:.2} ms",
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
        );
    }

    // The service-level audit: every batch conflict-free, every request
    // routed to the shard its key hashes to, every injected request
    // served exactly once.
    let audit = report.audit();
    assert!(audit.holds(), "grant-log audit failed: {audit:?}");
    println!("grant-log audit holds: batches conflict-free, routing exact, no request lost");

    // Each shard is a complete snap-stabilizing ME instance: project its
    // slice of the merged trace and judge it with the same Specification 3
    // checker the unsharded service uses.
    let trace = report.trace.expect("recording was on");
    for s in 0..shards {
        let spec = analyze_me_trace(&project_shard_trace(&trace, s), n);
        assert!(
            spec.exclusivity_holds(),
            "shard {s} mutual exclusion violated"
        );
        assert!(spec.all_served(), "shard {s} lost a request");
        println!(
            "shard {s}: {} CS intervals, genuine overlaps: 0, all served",
            spec.intervals.len()
        );
    }
    println!("spec holds per shard: the sharded composition is snap-stabilizing end to end");
}
