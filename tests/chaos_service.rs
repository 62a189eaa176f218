//! Chaos conformance: seeded transient-fault injection against *live*
//! mid-flight service runs — instance state corruption, crash/restart
//! storms, link partitions and drop storms — with the supervised
//! self-healing runtime, judged by the epoch-segmented executable
//! specifications (`analyze_me_epochs` / `analyze_forwarding_epochs`).
//!
//! The sweeps below fire **well over 200 seeded mid-run fault bursts**
//! across fault mixes × loss tiers × transports (each test counts its
//! bursts and asserts the tally), and every run must produce a clean
//! per-epoch Specification 3/4 verdict with zero manual intervention:
//! the supervisor alone detects and heals every crashed or wedged
//! instance, and the engine alone heals every partition and drop storm.
//!
//! UDP variants skip with a warning — like `tests/udp_runtime.rs` —
//! when the sandbox forbids socket creation.
//!
//! Runs are sized for a single-core CI runner: tiny fleets, short quiet
//! periods, two bursts per plan; the whole file stays well under the CI
//! chaos step's 4-minute hard timeout.

use std::time::Duration;

use snapstab_repro::core::spec::{analyze_forwarding_epochs, analyze_me_epochs};
use snapstab_repro::net::{udp_available, UdpLoopback};
use snapstab_repro::runtime::service::Msg;
use snapstab_repro::runtime::{
    run_service, ChaosMix, ChaosPlan, ChaosReport, ForwardingServiceConfig, InMemory, LiveConfig,
    MutexServiceConfig, ServiceApp, ServiceRun, Transport,
};

const MIXES: [ChaosMix; 5] = [
    ChaosMix::Corrupt,
    ChaosMix::Crash,
    ChaosMix::Partition,
    ChaosMix::Storm,
    ChaosMix::All,
];

/// Runs `app` on the default pool over `transport` under `plan`.
fn under_chaos<A: ServiceApp>(
    app: A,
    transport: &dyn Transport<Msg<A>>,
    plan: &ChaosPlan,
) -> (A::Report, ChaosReport) {
    let run = ServiceRun {
        transport,
        chaos: Some(plan),
        ..ServiceRun::default()
    };
    let (report, chaos) =
        run_service(app, run).expect("transport setup (UDP runs are guarded by `udp_available`)");
    (report, chaos.expect("chaos plan was given"))
}

/// Skip-and-warn guard: returns `true` (and prints a warning) when the
/// sandbox forbids UDP loopback sockets.
fn skip_without_udp(test: &str) -> bool {
    if udp_available() {
        return false;
    }
    eprintln!("warning: UDP loopback unavailable in this sandbox; skipping `{test}`");
    true
}

/// A small two-burst plan: every burst lands mid-run even on a slow
/// single-core box, and a full sweep of them stays inside CI budgets.
fn small_plan(mix: ChaosMix, seed: u64) -> ChaosPlan {
    ChaosPlan {
        bursts: 2,
        quiet: Duration::from_millis(15),
        disruption: Duration::from_millis(15),
        ..ChaosPlan::profile(mix, seed)
    }
}

fn mutex_cfg(n: usize, loss: f64, seed: u64) -> MutexServiceConfig {
    MutexServiceConfig {
        n,
        requests_per_process: 6,
        cs_duration: 0,
        live: LiveConfig {
            loss,
            seed,
            record_trace: true,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(30),
    }
}

fn forwarding_cfg(n: usize, loss: f64, seed: u64) -> ForwardingServiceConfig {
    ForwardingServiceConfig {
        n,
        payloads_per_process: 3,
        buffer_cap: 4,
        prefill_stale: true,
        live: LiveConfig {
            loss,
            seed,
            record_trace: true,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(30),
    }
}

/// One mutex chaos run on the given transport; asserts the full
/// robustness contract and returns the number of bursts fired.
fn mutex_chaos_run(
    transport: &dyn Transport<snapstab_repro::core::me::MeMsg>,
    mix: ChaosMix,
    loss: f64,
    seed: u64,
) -> u64 {
    let n = 3;
    let cfg = mutex_cfg(n, loss, seed);
    let plan = small_plan(mix, seed);
    let (report, chaos) = under_chaos(&cfg, transport, &plan);
    let label = format!("mix {} loss {loss} seed {seed}", mix.as_str());
    assert_eq!(
        report.served,
        cfg.requests_per_process * n as u64,
        "every client request must be served despite the chaos ({label})"
    );
    assert_eq!(
        chaos.bursts_fired, plan.bursts,
        "every planned burst must land mid-run ({label})"
    );
    let trace = report.trace.as_ref().expect("chaos runs record the trace");
    let epochs = analyze_me_epochs(trace, n, &chaos.fault_steps);
    assert!(
        epochs.holds(),
        "per-epoch Specification 3 must hold ({label}): {epochs:?}"
    );
    assert_eq!(
        epochs.epochs_checked(),
        chaos.fault_steps.len() + 1,
        "one epoch per authoritative corruption mark, plus the initial one"
    );
    u64::from(chaos.bursts_fired)
}

/// One forwarding chaos run; corrupted payloads may legitimately be
/// voided at fault boundaries (classified as interrupted), so the
/// pass/fail signal is the per-epoch Specification 4 verdict, not the
/// raw delivery count.
fn forwarding_chaos_run(
    transport: &dyn Transport<snapstab_repro::core::forward::ForwardMsg>,
    mix: ChaosMix,
    loss: f64,
    seed: u64,
) -> u64 {
    let n = 3;
    let cfg = forwarding_cfg(n, loss, seed);
    let plan = small_plan(mix, seed);
    let (report, chaos) = under_chaos(&cfg, transport, &plan);
    let label = format!("mix {} loss {loss} seed {seed}", mix.as_str());
    assert_eq!(chaos.bursts_fired, plan.bursts, "{label}");
    let trace = report.trace.as_ref().expect("chaos runs record the trace");
    let epochs = analyze_forwarding_epochs(trace, n, &chaos.fault_steps);
    assert!(
        epochs.holds(),
        "per-epoch Specification 4 must hold ({label}): forged {:?}, epochs {}",
        epochs.forged_marks,
        epochs.epochs_checked(),
    );
    u64::from(chaos.bursts_fired)
}

/// The headline sweep: every fault mix × loss tier × 5 seeds over the
/// in-memory transport — 75 runs, 150 seeded mid-run fault bursts, all
/// served in full with clean per-epoch verdicts.
#[test]
fn mutex_chaos_inmem_sweep() {
    let mut bursts = 0;
    for mix in MIXES {
        for loss in [0.0, 0.1, 0.3] {
            for seed in 1..=5u64 {
                bursts += mutex_chaos_run(&InMemory, mix, loss, 0xC0DE ^ (seed << 8));
            }
        }
    }
    assert_eq!(bursts, 150, "5 mixes × 3 loss tiers × 5 seeds × 2 bursts");
}

/// Forwarding under every fault mix × two loss tiers × 2 seeds — the
/// non-mutex workload's epoch verdicts (Specification 4) under the same
/// chaos engine.
#[test]
fn forwarding_chaos_inmem_sweep() {
    let mut bursts = 0;
    for mix in MIXES {
        for loss in [0.0, 0.1] {
            for seed in [7u64, 8] {
                bursts += forwarding_chaos_run(&InMemory, mix, loss, seed);
            }
        }
    }
    assert_eq!(bursts, 40, "5 mixes × 2 loss tiers × 2 seeds × 2 bursts");
}

/// The same chaos engine degrading *real UDP sockets*: `ChaosTransport`
/// sits above the backend, so partitions and drop storms hit the
/// datagram path exactly as they hit the in-memory lanes.
#[test]
fn mutex_chaos_udp_sweep() {
    if skip_without_udp("mutex_chaos_udp_sweep") {
        return;
    }
    let mut bursts = 0;
    for mix in MIXES {
        for seed in [11u64, 12] {
            bursts += mutex_chaos_run(&UdpLoopback::new(), mix, 0.0, seed);
        }
    }
    assert_eq!(bursts, 20, "5 mixes × 2 seeds × 2 bursts");
}

/// Forwarding over UDP under the combined (`all`) mix.
#[test]
fn forwarding_chaos_udp_pair() {
    if skip_without_udp("forwarding_chaos_udp_pair") {
        return;
    }
    let mut bursts = 0;
    for seed in [21u64, 22] {
        bursts += forwarding_chaos_run(&UdpLoopback::new(), ChaosMix::All, 0.0, seed);
    }
    assert_eq!(bursts, 4);
}

/// Crash storms specifically: every crash the engine lands must be
/// detected and healed by the supervisor alone (with adversarially
/// corrupted restart state), never by the test.
#[test]
fn supervisor_heals_every_crash_without_manual_intervention() {
    for seed in 31..=34u64 {
        let n = 3;
        let cfg = mutex_cfg(n, 0.0, seed);
        let plan = ChaosPlan {
            bursts: 3,
            quiet: Duration::from_millis(20),
            disruption: Duration::from_millis(15),
            ..ChaosPlan::profile(ChaosMix::Crash, seed)
        };
        let (report, chaos) = under_chaos(&cfg, &InMemory, &plan);
        assert_eq!(report.served, cfg.requests_per_process * n as u64);
        assert!(chaos.crashes > 0, "the crash mix must actually crash");
        assert!(
            !chaos.interventions.is_empty(),
            "every crash must be healed by a recorded supervisor intervention"
        );
        // Corrupt restarts leave authoritative fault marks; the epoch
        // checker must vouch for every one of them.
        let trace = report.trace.as_ref().expect("recorded");
        let epochs = analyze_me_epochs(trace, n, &chaos.fault_steps);
        assert!(epochs.holds(), "seed {seed}: {epochs:?}");
        assert_eq!(epochs.epochs_checked(), chaos.fault_steps.len() + 1);
    }
}

/// In-flight requests at fault boundaries are *classified* (interrupted),
/// not silently excused: across a corruption-heavy sweep the totals add
/// up — every injected request is either served in some epoch or
/// explicitly interrupted by a fault.
#[test]
fn interrupted_requests_are_classified_not_excused() {
    let mut interrupted = 0;
    for seed in 41..=46u64 {
        let n = 3;
        // A workload that outlasts the fault schedule, and a tight burst
        // cadence: corruptions land while requests are in flight.
        let cfg = MutexServiceConfig {
            requests_per_process: 12,
            ..mutex_cfg(n, 0.0, seed)
        };
        let plan = ChaosPlan {
            bursts: 3,
            quiet: Duration::from_millis(6),
            ..small_plan(ChaosMix::Corrupt, seed)
        };
        let (report, chaos) = under_chaos(&cfg, &InMemory, &plan);
        let trace = report.trace.as_ref().expect("recorded");
        let epochs = analyze_me_epochs(trace, n, &chaos.fault_steps);
        assert!(epochs.holds(), "seed {seed}");
        // Every request marker lands in exactly one epoch and is either
        // served there or classified interrupted at its closing fault —
        // nothing vanishes from the books.
        assert!(
            epochs.served_total() + epochs.interrupted_total() >= report.injected as usize,
            "seed {seed}: served {} + interrupted {} must cover the {} injected requests",
            epochs.served_total(),
            epochs.interrupted_total(),
            report.injected,
        );
        interrupted += epochs.interrupted_total();
    }
    // Corruption bursts land mid-request often enough that the sweep
    // must classify at least one in-flight request as interrupted —
    // otherwise the boundary classification is dead code.
    assert!(
        interrupted > 0,
        "a corruption-heavy sweep must interrupt some in-flight request"
    );
}
