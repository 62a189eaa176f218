//! Cross-backend conformance: the event-driven multiplexed runtime
//! (`MuxRunner`, N protocol instances over a small worker pool) is
//! equivalent to the thread-per-process backend (`LiveRunner`) under the
//! executable specifications — the same seeded workload driven through
//! both backends yields merged traces that the *same* Specification 3/4
//! checkers accept, with matching service totals.
//!
//! On top of the pairwise proptests, this file holds the scale
//! regressions the thread backend cannot reach — a seeded live PIF wave
//! at n = 1024 judged by Specification 1, and an n = 256 mutex run
//! judged by Specification 3 — and the chaos-on-mux sweep: seeded fault
//! bursts against the mux backend healed with zero manual intervention,
//! judged by the epoch-segmented Specification 3.
//!
//! The scale tests calibrate first on a mid-size wave and skip with a
//! warning when the box is too slow to finish inside the CI step's
//! 4-minute hard timeout (the same convention as the UDP skip guards).

use std::time::{Duration, Instant};

use proptest::prelude::*;
use snapstab_repro::core::pif::{PifApp, PifProcess};
use snapstab_repro::core::request::RequestState;
use snapstab_repro::core::spec::{
    analyze_forwarding_trace, analyze_me_epochs, analyze_me_trace, check_pif_wave,
};
use snapstab_repro::runtime::{
    run_forwarding_service, run_forwarding_service_mux, run_mutex_service,
    run_mutex_service_chaos_mux_on, run_mutex_service_mux, ChaosMix, ChaosPlan,
    ForwardingServiceConfig, InMemory, LiveConfig, MutexServiceConfig, MuxRunner, RuntimeBackend,
    TraceDetail,
};
use snapstab_repro::sim::ProcessId;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Echoes a fixed per-process feedback value (the same app shape as
/// `tests/live_runtime.rs`).
#[derive(Clone, Debug)]
struct Echo(u32);

impl PifApp<u32, u32> for Echo {
    fn on_broadcast(&mut self, _from: ProcessId, _data: &u32) -> u32 {
        self.0
    }
    fn on_feedback(&mut self, _from: ProcessId, _data: &u32) {}
}

type Proc = PifProcess<u32, u32, Echo>;

fn pif_fleet(n: usize) -> Vec<Proc> {
    (0..n)
        .map(|i| PifProcess::with_initial_f(p(i), n, 0, 0, Echo(100 + i as u32)))
        .collect()
}

/// One seeded PIF wave on the mux backend; asserts Specification 1 on
/// the merged trace and returns the wall-clock time to decision.
fn mux_pif_wave(n: usize, workers: usize, loss: f64, seed: u64, timeout: Duration) -> Duration {
    let cfg = LiveConfig {
        loss,
        seed,
        ..LiveConfig::default()
    };
    let started = Instant::now();
    let mut runner =
        MuxRunner::spawn_with_drivers(pif_fleet(n), (0..n).map(|_| None).collect(), cfg, workers);
    let payload = 7 + seed as u32;
    let request_step = runner.with_process_ctx(p(0), move |proc: &mut Proc, scribe| {
        let step = scribe.mark("request");
        assert!(proc.request_broadcast(payload));
        step
    });
    let decided = runner.wait_until(
        p(0),
        |proc: &Proc| proc.request() == RequestState::Done,
        timeout,
    );
    assert!(
        decided,
        "mux wave must decide (n={n}, workers={workers}, loss={loss}, seed={seed})"
    );
    let wall = started.elapsed();
    let report = runner.stop();
    let verdict = check_pif_wave(
        &report.trace,
        p(0),
        n,
        request_step,
        &payload,
        |q| 100 + q.index() as u32,
        |e| Some(e),
    );
    assert!(
        verdict.holds(),
        "mux Spec 1 verdict failed (n={n}, loss={loss}, seed={seed}): {verdict:?}"
    );
    wall
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property: the same seeded mutex workload driven through the
    /// thread backend and the mux backend yields two merged traces the
    /// same Specification 3 checker accepts, with identical service
    /// totals — the backends are interchangeable under the spec.
    #[test]
    fn mutex_backends_agree_under_spec3(
        seed in any::<u64>(),
        n in 3usize..5,
        loss_tier in 0usize..3,
    ) {
        let loss = [0.0, 0.1, 0.3][loss_tier];
        let cfg = MutexServiceConfig {
            n,
            requests_per_process: 2,
            cs_duration: 0,
            live: LiveConfig {
                loss,
                seed,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(40),
        };
        let total = 2 * n as u64;

        let threads = run_mutex_service(&cfg);
        let mux = run_mutex_service_mux(&cfg, 2);
        prop_assert_eq!(threads.served, total, "threads backend serves all");
        prop_assert_eq!(mux.served, total, "mux backend serves all");
        prop_assert_eq!(threads.injected, mux.injected, "same workload injected");

        for (backend, report) in [("threads", &threads), ("mux", &mux)] {
            let trace = report.trace.as_ref().expect("recording on");
            let me = analyze_me_trace(trace, n);
            prop_assert!(
                me.exclusivity_holds(),
                "{} genuine CS overlap: {:?}", backend, me.genuine_overlaps
            );
            prop_assert!(me.all_served(), "{} unserved: {:?}", backend, me.unserved);
            prop_assert_eq!(me.served.len(), total as usize, "{} served set", backend);
            // Link-counter sanity holds identically on both backends:
            // nothing delivered that was never enqueued, nothing
            // enqueued that was never sent.
            let links = &report.stats.links;
            prop_assert!(links.sends >= links.enqueued, "{} sends", backend);
            prop_assert!(links.enqueued >= links.delivered, "{} enqueued", backend);
            prop_assert!(links.delivered > 0, "{} delivered nothing", backend);
        }
    }

    /// Property: the forwarding service — adversarially stale-pre-filled
    /// buffers, arbitrary seed and loss tier — delivers every payload on
    /// both backends and both merged traces pass Specification 4.
    #[test]
    fn forwarding_backends_agree_under_spec4(
        seed in any::<u64>(),
        loss_tier in 0usize..2,
    ) {
        let loss = [0.0, 0.1][loss_tier];
        let n = 3;
        let cfg = ForwardingServiceConfig {
            n,
            payloads_per_process: 2,
            buffer_cap: 4,
            prefill_stale: true,
            live: LiveConfig {
                loss,
                seed,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(40),
        };
        let total = 2 * n as u64;

        let threads = run_forwarding_service(&cfg);
        let mux = run_forwarding_service_mux(&cfg, 2);
        prop_assert_eq!(threads.delivered, total, "threads backend delivers all");
        prop_assert_eq!(mux.delivered, total, "mux backend delivers all");

        for (backend, report) in [("threads", &threads), ("mux", &mux)] {
            let trace = report.trace.as_ref().expect("recording on");
            let spec = analyze_forwarding_trace(trace, n);
            prop_assert!(
                spec.holds(),
                "{} Spec 4 failed: lost {:?}, duplicates {:?}, corrupt {:?}, spurious {}",
                backend, spec.lost, spec.duplicate_ids, spec.corrupt_deliveries, spec.spurious
            );
        }
    }
}

/// Mid-size calibration wave: decides whether this box can finish the
/// n = 1024 scale regression inside the CI step's 4-minute budget.
/// Returns `None` (after printing a warning) when it cannot.
fn calibrate(test: &str) -> Option<Duration> {
    let calib = mux_pif_wave(64, 4, 0.0, 0xCA11B, Duration::from_secs(60));
    // The n = 1024 wave moves ~16× the messages of the n = 64 one
    // through the same pool; a box that needs more than 10s here
    // cannot finish the big wave inside the CI budget.
    if calib > Duration::from_secs(10) {
        eprintln!(
            "warning: under-provisioned box (n=64 mux wave took {calib:?}); skipping `{test}`"
        );
        return None;
    }
    Some(calib)
}

/// The scale regression the thread backend cannot reach: a seeded live
/// PIF wave across 1024 protocol instances on a 4-worker pool, judged by
/// the *unchanged* Specification 1 checker on the merged trace.
#[test]
fn mux_pif_wave_at_n_1024_passes_spec1() {
    if calibrate("mux_pif_wave_at_n_1024_passes_spec1").is_none() {
        return;
    }
    let wall = mux_pif_wave(1024, 4, 0.0, 0xB16, Duration::from_secs(150));
    eprintln!("n=1024 mux PIF wave decided in {wall:?}");
}

/// One mutex service run on the mux backend with a *spec-detail* trace
/// (markers and spec-relevant protocol events only — all Specification
/// 3 reads, and the only recording mode whose trace stays proportional
/// to protocol decisions rather than the leader's continuous wave
/// traffic at scale).
///
/// Specification 3's safety half — exclusivity — is asserted
/// unconditionally on whatever the run produced. Completeness (every
/// request served) is asserted only when the run finished inside its
/// budget: a budget-capped partial run means the box is too slow for
/// this n (skip material, returns `None`), while a run that stalls
/// *with budget to spare* is a genuine liveness failure and panics.
/// A completed run returns its wall clock.
fn mux_mutex_spec3_run(n: usize, budget: Duration) -> Option<Duration> {
    let cfg = MutexServiceConfig {
        n,
        requests_per_process: 1,
        cs_duration: 0,
        live: LiveConfig {
            seed: 0x256 + n as u64,
            detail: TraceDetail::Spec,
            ..LiveConfig::default()
        },
        time_budget: budget,
    };
    let report = run_mutex_service_mux(&cfg, 4);
    let trace = report.trace.as_ref().expect("recording on");
    let me = analyze_me_trace(trace, n);
    assert!(
        me.exclusivity_holds(),
        "genuine CS overlap at n={n}: {:?}",
        me.genuine_overlaps
    );
    if report.served < n as u64 {
        assert!(
            report.wall >= budget.mul_f64(0.9),
            "mux mutex service stalled at n={n}: served {}/{n} with budget to spare",
            report.served
        );
        eprintln!(
            "warning: under-provisioned box (served {}/{n} inside {budget:?} at n={n})",
            report.served
        );
        return None;
    }
    assert!(me.all_served(), "unserved at n={n}: {:?}", me.unserved);
    Some(report.wall)
}

/// A 256-instance mutex service run on the mux backend — four times past
/// the thread backend's practical ceiling — judged by Specification 3.
/// The n = 64 stage is a full Specification 3 check in its own right
/// and doubles as the provisioning probe: a box (or an unoptimized
/// debug build) the probe already saturates skips the n = 256 stage
/// with a warning instead of flaking; exclusivity is still asserted on
/// every trace this test produces.
#[test]
fn mux_mutex_service_at_n_256_passes_spec3() {
    // The single-leader rotation costs ~n² per full pass over the
    // requesters, so a probe the box cannot clear briskly predicts an
    // n = 256 stage far past the CI budget — skip before burning it.
    let Some(w64) = mux_mutex_spec3_run(64, Duration::from_secs(45)) else {
        eprintln!("skipping the n=256 stage");
        return;
    };
    if w64 > Duration::from_secs(4) {
        eprintln!(
            "warning: under-provisioned box (n=64 mux mutex probe took {w64:?}); \
             skipping the n=256 stage"
        );
        return;
    }
    match mux_mutex_spec3_run(256, Duration::from_secs(120)) {
        Some(w256) => eprintln!("n=256 mux mutex run served all in {w256:?}"),
        None => eprintln!("n=256 stage budget-capped; exclusivity checked on the partial trace"),
    }
}

/// Chaos on the mux backend: seeded `all`-mix fault bursts — state
/// corruption of *instances* (not threads), crash storms healed by the
/// supervisor's per-instance activity watchdog, partitions, drop
/// storms — against a running mux service, judged per epoch by
/// Specification 3 with zero manual intervention.
#[test]
fn mux_chaos_all_mix_passes_epoch_spec3() {
    let n = 3;
    let mut bursts = 0u32;
    for seed in 1..=4u64 {
        let cfg = MutexServiceConfig {
            n,
            requests_per_process: 6,
            cs_duration: 0,
            live: LiveConfig {
                loss: 0.0,
                seed,
                record_trace: true,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(30),
        };
        let plan = ChaosPlan {
            bursts: 2,
            quiet: Duration::from_millis(15),
            disruption: Duration::from_millis(15),
            ..ChaosPlan::profile(ChaosMix::All, seed)
        };
        let (report, chaos) =
            run_mutex_service_chaos_mux_on(&cfg, 2, &InMemory, &plan).expect("in-mem");
        assert_eq!(
            report.served,
            cfg.requests_per_process * n as u64,
            "every request served despite chaos on mux (seed {seed})"
        );
        assert_eq!(
            chaos.bursts_fired, plan.bursts,
            "every planned burst lands mid-run (seed {seed})"
        );
        let trace = report.trace.as_ref().expect("chaos runs record the trace");
        let epochs = analyze_me_epochs(trace, n, &chaos.fault_steps);
        assert!(
            epochs.holds(),
            "per-epoch Spec 3 must hold on mux (seed {seed}): {epochs:?}"
        );
        assert_eq!(
            epochs.epochs_checked(),
            chaos.fault_steps.len() + 1,
            "one epoch per authoritative corruption mark, plus the initial one"
        );
        bursts += chaos.bursts_fired;
    }
    assert_eq!(bursts, 8, "4 seeds × 2 bursts");
}

/// Instance-level fault targeting: `crash` marks an *instance* inert
/// while its pool worker keeps running its siblings, and `restart`
/// re-enqueues it — the wave blocked by the crash completes only after
/// the restart, on a single-worker pool hosting all instances.
#[test]
fn mux_instance_crash_is_independent_of_workers() {
    let n = 4;
    let mut runner = MuxRunner::spawn(pif_fleet(n), LiveConfig::default(), 1);
    assert!(runner.crash(p(2)), "first crash reports true");
    runner.with_process(p(0), |m: &mut Proc| assert!(m.request_broadcast(9)));
    // The wave needs P2's feedback; with P2 crashed it must not decide.
    let decided = runner.wait_until(
        p(0),
        |m: &Proc| m.request() == RequestState::Done,
        Duration::from_millis(300),
    );
    assert!(!decided, "wave must block while an instance is crashed");
    assert!(runner.restart(p(2)), "restart reports true");
    assert!(
        runner.wait_until(
            p(0),
            |m: &Proc| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ),
        "wave must decide after the instance restarts"
    );
    let report = runner.stop();
    let markers: Vec<&str> = report.trace.markers().map(|(_, _, l)| l).collect();
    assert!(markers.contains(&"crash") && markers.contains(&"restart"));
}

/// The UDP transport follows the in-memory dynamics: the same seeded
/// mutex service (n = 8, one pool worker, traced) over `InMemory` and
/// over `UdpLoopback` serves everything and passes Specification 3 on
/// both, and pays the same number of enqueued messages per served
/// request to within 5 %. A frame flushed later than the end of the
/// quantum that staged it lets A2 duplicates into queues the receiver
/// has already emptied and reads +83 % here; a record that enters a
/// link without waking its receiver stalls the run on the sweep.
#[test]
fn udp_mux_mutex_service_matches_in_memory_messages_per_request() {
    use snapstab_repro::net::{udp_available, UdpLoopback};
    use snapstab_repro::runtime::{run_mutex_service_mux_on, ServiceReport, Transport};

    let cfg = MutexServiceConfig {
        n: 8,
        requests_per_process: 200,
        cs_duration: 0,
        live: LiveConfig {
            seed: 0x0D9,
            detail: TraceDetail::Spec,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(60),
    };
    let run = |transport: &dyn Transport<_>| -> ServiceReport {
        let report = run_mutex_service_mux_on(&cfg, 1, transport).expect("transport setup");
        assert_eq!(report.served, 1600, "every request served");
        let me = analyze_me_trace(report.trace.as_ref().expect("recording on"), cfg.n);
        assert!(me.exclusivity_holds(), "{:?}", me.genuine_overlaps);
        assert!(me.all_served(), "{:?}", me.unserved);
        report
    };
    let per_request = |r: &ServiceReport| r.stats.links.enqueued as f64 / r.served as f64;

    let memory = per_request(&run(&InMemory));
    if !udp_available() {
        eprintln!(
            "warning: UDP loopback unavailable in this sandbox; skipping the UDP half of \
             `udp_mux_mutex_service_matches_in_memory_messages_per_request`"
        );
        return;
    }
    let udp = per_request(&run(&UdpLoopback::new()));
    eprintln!("enqueued messages per request: {udp:.1} over UDP, {memory:.1} in memory");
    assert!(
        (udp / memory - 1.0).abs() <= 0.05,
        "enqueued messages per request: {udp:.1} over UDP, {memory:.1} in memory"
    );
}
