//! Specification 4 acceptance for the forwarding subsystem, across every
//! substrate: ≥100 seeded simulator runs over loss ∈ {0, 0.1, 0.3} from
//! adversarial initial configurations (corrupted handshake state,
//! stale-pre-filled buffers, arbitrary channel contents), live
//! in-memory runs with stale-pre-filled buffers, proptest sim-vs-live
//! conformance on the shared deterministic workload, and a
//! skip-and-warn UDP forwarding run (`tests/udp_runtime.rs` style).
//!
//! Every trace — simulated or merged from live instance logs — is judged
//! by the *same* executable Specification 4 checker
//! ([`analyze_forwarding_trace`]): every injected payload delivered to
//! its destination exactly once with intact data, nothing lost; stale
//! pre-start flushes are reported (`spurious`/`stale_duplicates`)
//! rather than judged, and the live stale test below additionally pins
//! them to at-most-once.
//!
//! Every test self-terminates well under 60 seconds.

use std::time::Duration;

use proptest::prelude::*;
use snapstab_repro::core::forward::{run_sim_forwarding, SimForwardConfig};
use snapstab_repro::core::spec::analyze_forwarding_trace;
use snapstab_repro::net::{udp_available, UdpLoopback};
use snapstab_repro::runtime::{run_service, ForwardingServiceConfig, LiveConfig, ServiceRun};

/// Skip-and-warn guard: returns `true` (and prints a warning) when the
/// sandbox forbids UDP loopback sockets.
fn skip_without_udp(test: &str) -> bool {
    if udp_available() {
        return false;
    }
    eprintln!("warning: UDP loopback unavailable in this sandbox; skipping `{test}`");
    true
}

/// The Specification 4 acceptance sweep on the simulator: 34 seeds × 3
/// loss tiers = 102 runs, every one starting from a fully adversarial
/// initial configuration (corrupted per-hop flags and acks,
/// stale-pre-filled lanes and transfer slots, arbitrary channel
/// contents), every trace passing the checker.
#[test]
fn sim_forwarding_spec4_holds_across_seeds_and_loss() {
    for &loss in &[0.0, 0.1, 0.3] {
        for seed in 0..34 {
            let cfg = SimForwardConfig {
                n: 4,
                payloads_per_process: 2,
                buffer_cap: 2,
                loss,
                seed,
                corrupt: true,
                ..SimForwardConfig::default()
            };
            let report = run_sim_forwarding(&cfg);
            assert_eq!(
                report.delivered, 8,
                "loss {loss}, seed {seed}: every injected payload delivered"
            );
            let spec = analyze_forwarding_trace(&report.trace, cfg.n);
            assert!(spec.holds(), "loss {loss}, seed {seed}: {spec:?}");
            assert_eq!(spec.delivered.len(), 8);
        }
    }
}

/// The live counterpart: seeded runs across the same loss tiers on the
/// in-memory transport, buffers adversarially pre-filled before the
/// pool spawns, merged traces passing the same checker.
#[test]
fn live_forwarding_spec4_holds_across_seeds_and_loss() {
    for &loss in &[0.0, 0.1, 0.3] {
        for seed in 0..2 {
            let cfg = ForwardingServiceConfig {
                n: 4,
                payloads_per_process: 2,
                buffer_cap: 2,
                prefill_stale: true,
                live: LiveConfig {
                    loss,
                    seed,
                    jitter: Some(Duration::from_micros(100)),
                    ..LiveConfig::default()
                },
                time_budget: Duration::from_secs(45),
            };
            let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
            assert_eq!(
                report.delivered, 8,
                "loss {loss}, seed {seed}: every payload delivered live"
            );
            let trace = report.trace.expect("recording on by default");
            let spec = analyze_forwarding_trace(&trace, cfg.n);
            assert!(spec.holds(), "loss {loss}, seed {seed}: {spec:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    /// Property: a live forwarding run — arbitrary seed, line length and
    /// buffer capacity, lossy and jittered, stale-pre-filled buffers —
    /// delivers every injected payload and its merged trace satisfies
    /// Specification 4.
    #[test]
    fn live_forwarding_conforms(
        seed in any::<u64>(),
        n in 3usize..6,
        buffer_cap in 1usize..4,
    ) {
        let cfg = ForwardingServiceConfig {
            n,
            payloads_per_process: 2,
            buffer_cap,
            prefill_stale: true,
            live: LiveConfig {
                loss: 0.1,
                seed,
                jitter: Some(Duration::from_micros(100)),
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(40),
        };
        let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
        prop_assert_eq!(report.delivered, 2 * n as u64, "all live payloads delivered");
        let trace = report.trace.expect("recording on by default");
        let spec = analyze_forwarding_trace(&trace, n);
        prop_assert!(spec.holds(), "live spec 4 failed: {:?}", spec);
    }

    /// The simulator mirror of the same service passes the same
    /// predicate on the same deterministic workload stream
    /// (`forward_workload` keyed by the seed) — same protocol, same
    /// checker, only the substrate differs.
    #[test]
    fn sim_forwarding_conforms(
        seed in any::<u64>(),
        n in 3usize..6,
        buffer_cap in 1usize..4,
    ) {
        let cfg = SimForwardConfig {
            n,
            payloads_per_process: 2,
            buffer_cap,
            loss: 0.1,
            seed,
            corrupt: true,
            ..SimForwardConfig::default()
        };
        let report = run_sim_forwarding(&cfg);
        prop_assert_eq!(report.delivered, 2 * n as u64, "all sim payloads delivered");
        let spec = analyze_forwarding_trace(&report.trace, n);
        prop_assert!(spec.holds(), "sim spec 4 failed: {:?}", spec);
    }
}

/// Forwarding over real UDP loopback sockets: the same service, the same
/// Specification 4 checker, the kernel's datagram stack underneath —
/// skipped with a warning where the sandbox forbids sockets.
#[test]
fn udp_forwarding_spec4_holds() {
    if skip_without_udp("udp_forwarding_spec4_holds") {
        return;
    }
    for &(loss, seed) in &[(0.0, 0xF0D0u64), (0.1, 0xF0D1), (0.3, 0xF0D3)] {
        let cfg = ForwardingServiceConfig {
            n: 3,
            payloads_per_process: 2,
            buffer_cap: 2,
            prefill_stale: true,
            live: LiveConfig {
                loss,
                seed,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(45),
        };
        let udp = ServiceRun {
            transport: &UdpLoopback::new(),
            ..ServiceRun::default()
        };
        let (report, _) = run_service(&cfg, udp).expect("bind loopback sockets");
        assert_eq!(
            report.delivered, 6,
            "loss {loss}: every payload delivered over UDP"
        );
        let trace = report.trace.expect("recording on by default");
        let spec = analyze_forwarding_trace(&trace, cfg.n);
        assert!(spec.holds(), "loss {loss}: {spec:?}");
    }
}

/// Stale pre-filled entries must be flushed end-to-end at most once
/// each *when only the buffers are corrupted*: `prefill_stale` loads
/// lanes and transfer slots but leaves the hop flags idle, so every
/// stale entry's handshake starts from flag 0 and the per-hop
/// exactly-once argument covers it. (`holds()` does not judge stale
/// flushes — corrupted *mid-climb flags* can legitimately double-flush
/// a slot entry — so this test asserts `stale_duplicates` explicitly.)
#[test]
fn live_stale_flushes_are_at_most_once() {
    let cfg = ForwardingServiceConfig {
        n: 5,
        payloads_per_process: 1,
        buffer_cap: 4,
        prefill_stale: true,
        live: LiveConfig {
            seed: 0x57A1E,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(45),
    };
    let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
    assert_eq!(report.delivered, 5);
    let trace = report.trace.expect("recording on by default");
    let spec = analyze_forwarding_trace(&trace, cfg.n);
    assert!(spec.holds(), "{spec:?}");
    // Buffers-only corruption ⇒ clean handshakes ⇒ no stale id flushed
    // twice. `holds()` deliberately does not check this; assert it
    // directly.
    assert!(
        spec.stale_duplicates.is_empty(),
        "clean-flag stale entries must flush at most once: {:?}",
        spec.stale_duplicates
    );
    // Whatever was flushed spuriously is visible in both the report and
    // the spec analysis.
    assert!(
        spec.spurious >= report.spurious as usize,
        "trace sees at least the collected flushes \
         (some may still be buffered at stop): {} < {}",
        spec.spurious,
        report.spurious
    );
}
