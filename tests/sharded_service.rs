//! Sim-vs-live conformance for the sharded, batching mutex service.
//!
//! The same service layer — hash-partitioned resource keys over `S`
//! independent Algorithm 3 instances, batched grants — runs on both
//! substrates (`snapstab_core::shard::run_sim_sharded_service` in the
//! deterministic simulator, `snapstab_runtime::ShardedServiceConfig` on
//! the live runtime, either backend), and both are judged by the same executable
//! specifications:
//!
//! * every granted batch is conflict-free and routed to the right shard,
//!   and every injected request is served exactly once
//!   ([`GrantLog::audit`]);
//! * each shard's projection of the merged trace satisfies
//!   Specification 3 (no two genuine critical sections overlap, every
//!   protocol-level request served) via [`analyze_me_trace`] — the
//!   *same* checker the unsharded service uses.
//!
//! Every test self-terminates well under 60 seconds.

use std::time::Duration;

use proptest::prelude::*;
use snapstab_repro::core::shard::{project_shard_trace, run_sim_sharded_service, SimShardedConfig};
use snapstab_repro::core::spec::analyze_me_trace;
use snapstab_repro::runtime::{run_service, LiveConfig, ServiceRun, ShardedServiceConfig};

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Property: a live sharded service run — arbitrary seed, size,
    /// shard count, batch size and (small) key space — serves every
    /// injected request in conflict-free, correctly-routed batches, and
    /// every shard's trace projection satisfies Specification 3.
    #[test]
    fn live_sharded_service_conforms(
        seed in any::<u64>(),
        n in 3usize..5,
        shards in 1usize..4,
        batch in 1usize..4,
        key_tier in 0usize..2,
    ) {
        let key_space = [3u64, 64][key_tier]; // tiny spaces force conflicts
        let cfg = ShardedServiceConfig {
            n,
            shards,
            batch,
            requests_per_process: 3,
            key_space,
            cs_duration: 0,
            live: LiveConfig {
                loss: 0.1,
                seed,
                jitter: Some(Duration::from_micros(100)),
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(40),
        };
        let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
        let total = 3 * n as u64;
        prop_assert_eq!(report.served, total, "all live requests served");
        let audit = report.audit();
        prop_assert!(audit.holds(), "live grant audit failed: {:?}", audit);
        let trace = report.trace.expect("recording on by default");
        for s in 0..shards {
            let shard_trace = project_shard_trace(&trace, s);
            let me = analyze_me_trace(&shard_trace, n);
            prop_assert!(
                me.exclusivity_holds(),
                "live shard {} genuine CS overlap: {:?}",
                s,
                me.genuine_overlaps
            );
            prop_assert!(
                me.all_served(),
                "live shard {} unserved: {:?}",
                s,
                me.unserved
            );
        }
    }

    /// The simulator mirror of the same service passes the same
    /// predicates — same partition function, same batching queue, same
    /// grant log, same checkers; only the substrate differs.
    #[test]
    fn sim_sharded_service_conforms(
        seed in any::<u64>(),
        n in 3usize..5,
        shards in 1usize..4,
        batch in 1usize..4,
    ) {
        let cfg = SimShardedConfig {
            n,
            shards,
            batch,
            requests_per_process: 2,
            key_space: 4,
            seed,
            ..SimShardedConfig::default()
        };
        let report = run_sim_sharded_service(&cfg);
        let total = 2 * n as u64;
        prop_assert_eq!(report.served, total, "all sim requests served");
        let audit = report.grant_log.audit(shards, &report.injected);
        prop_assert!(audit.holds(), "sim grant audit failed: {:?}", audit);
        for s in 0..shards {
            let shard_trace = project_shard_trace(&report.trace, s);
            let me = analyze_me_trace(&shard_trace, n);
            prop_assert!(
                me.exclusivity_holds(),
                "sim shard {} genuine CS overlap: {:?}",
                s,
                me.genuine_overlaps
            );
            prop_assert!(me.all_served(), "sim shard {} unserved: {:?}", s, me.unserved);
        }
    }
}

/// A focused deterministic case: a single hot key cannot be served twice
/// in one grant, and each shard's leader really is a different process —
/// the multi-leader placement the sharded service promises.
#[test]
fn hot_key_serializes_and_leaders_are_spread() {
    let n = 3;
    let shards = 3;
    let cfg = ShardedServiceConfig {
        n,
        shards,
        batch: 4,
        requests_per_process: 4,
        key_space: 1, // every request names the same resource
        cs_duration: 0,
        live: LiveConfig {
            seed: 0xFEED,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(40),
    };
    let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
    assert_eq!(report.served, 12);
    let audit = report.audit();
    assert!(audit.holds(), "{audit:?}");
    // One key ⇒ one shard gets all traffic, and every grant carries
    // exactly one request despite batch = 4.
    for grant in report.grant_log.grants() {
        assert_eq!(grant.requests.len(), 1, "hot key must serialize");
    }
    assert_eq!(
        report.per_shard_served.iter().filter(|&&c| c > 0).count(),
        1,
        "a single key lives in a single shard"
    );
    // Leaders are spread round-robin: shard s is led by process s % n.
    // The designated leader holds the minimum identity, so it correctly
    // believes it leads from the start (other processes' beliefs converge
    // only once their own IDL waves complete, which a short run need not
    // reach on idle shards).
    for s in 0..shards {
        assert_eq!(report.processes[s % n].shard(s).my_id(), 1);
        assert!(
            report.processes[s % n].shard(s).is_leader(),
            "shard {s}'s designated leader must believe it leads"
        );
    }
}

/// The sharded service on a one-worker pool, every instance stepped in
/// turn: the per-shard capacity lanes reach `Transport::connect` on the
/// same path as on a parallel pool, so the composition needs nothing
/// special — the grant audit and each shard's Specification 3 hold.
#[test]
fn sharded_service_on_mux_audits_and_passes_per_shard_spec3() {
    let n = 4;
    let shards = 2;
    let cfg = ShardedServiceConfig {
        n,
        shards,
        batch: 2,
        requests_per_process: 4,
        key_space: 16,
        cs_duration: 0,
        live: LiveConfig {
            seed: 0x5AD,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(40),
    };
    let run = ServiceRun {
        workers: 1,
        ..ServiceRun::default()
    };
    let (report, _) = run_service(&cfg, run).expect("in-memory");
    assert_eq!(report.served, 16, "every request served on mux");
    let audit = report.audit();
    assert!(audit.holds(), "{audit:?}");
    let trace = report.trace.expect("recording on by default");
    for s in 0..shards {
        let me = analyze_me_trace(&project_shard_trace(&trace, s), n);
        assert!(
            me.exclusivity_holds(),
            "shard {s} genuine CS overlap: {:?}",
            me.genuine_overlaps
        );
        assert!(me.all_served(), "shard {s} unserved: {:?}", me.unserved);
    }
}
