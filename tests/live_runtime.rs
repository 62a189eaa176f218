//! Live-vs-sim conformance: the executable specifications of
//! `snapstab_core::spec` accept merged traces of *live* runs on the
//! worker pool exactly as they accept simulated ones, across seeds and
//! loss rates — plus a crash/restart stress over a lossy transport.
//!
//! Every test here self-terminates well under 60 seconds: waits are
//! bounded, and a bound miss is a failure, not a hang.

use std::time::Duration;

use proptest::prelude::*;
use snapstab_repro::core::me::{MeConfig, MeProcess};
use snapstab_repro::core::pif::{PifApp, PifProcess};
use snapstab_repro::core::request::RequestState;
use snapstab_repro::core::spec::{analyze_me_trace, check_pif_wave};
use snapstab_repro::runtime::{
    run_service, LiveConfig, MutexServiceConfig, MuxRunner, ServiceRun, DEFAULT_WORKERS,
};
use snapstab_repro::sim::{
    Capacity, LossModel, NetworkBuilder, ProcessId, RandomScheduler, Runner,
};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Echoes a fixed per-process feedback value (the same app shape as the
/// PIF unit tests, duplicated here because that one is `cfg(test)`).
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

/// One live PIF wave under the given loss; returns whether Specification 1
/// held on the merged trace.
fn live_pif_wave_holds(n: usize, loss: f64, seed: u64) -> bool {
    let cfg = LiveConfig {
        loss,
        seed,
        jitter: Some(Duration::from_micros(200)),
        ..LiveConfig::default()
    };
    let mut runner = MuxRunner::spawn(pif_fleet(n), cfg, DEFAULT_WORKERS);
    let payload = 7 + seed as u32;
    let request_step = runner.with_process_ctx(p(0), move |proc: &mut Proc, scribe| {
        let step = scribe.mark("request");
        assert!(proc.request_broadcast(payload));
        step
    });
    let decided = runner.wait_until(
        p(0),
        |proc: &Proc| proc.request() == RequestState::Done,
        Duration::from_secs(30),
    );
    assert!(
        decided,
        "live wave must decide (n={n}, loss={loss}, seed={seed})"
    );
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
        "live Spec 1 verdict failed (n={n}, loss={loss}, seed={seed}): {verdict:?}"
    );
    verdict.holds()
}

/// The same wave in the deterministic simulator; returns whether
/// Specification 1 held.
fn sim_pif_wave_holds(n: usize, loss: f64, seed: u64) -> bool {
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(pif_fleet(n), network, RandomScheduler::new(), seed);
    if loss > 0.0 {
        runner.set_loss(LossModel::probabilistic(loss));
    }
    let payload = 7 + seed as u32;
    runner.mark(p(0), "request");
    let request_step = runner.step_count();
    assert!(runner.process_mut(p(0)).request_broadcast(payload));
    runner
        .run_until(2_000_000, |r| {
            r.process(p(0)).request() == RequestState::Done
        })
        .expect("sim wave runs");
    let verdict = check_pif_wave(
        runner.trace(),
        p(0),
        n,
        request_step,
        &payload,
        |q| 100 + q.index() as u32,
        |e| Some(e),
    );
    verdict.holds()
}

/// The acceptance sweep: ≥100 seeded live runs across loss ∈ {0, 0.1,
/// 0.3}, every merged trace passing the Specification 1 checker, and the
/// matching simulator run passing the *same* predicate.
#[test]
fn live_pif_waves_satisfy_spec_across_seeds_and_loss() {
    let mut runs = 0;
    for &loss in &[0.0, 0.1, 0.3] {
        for seed in 0..34 {
            assert!(live_pif_wave_holds(3, loss, seed));
            runs += 1;
        }
        // The simulator agrees on the predicate for a sample of the seeds
        // (conformance: same checker, same verdict).
        for seed in 0..4 {
            assert!(
                sim_pif_wave_holds(3, loss, seed),
                "sim spec1 loss={loss} seed={seed}"
            );
        }
    }
    assert!(
        runs >= 100,
        "acceptance requires at least 100 live runs, got {runs}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property: a live mutual-exclusion service run — arbitrary seed,
    /// size and loss tier — yields a merged trace on which Specification 3
    /// holds (no two genuine critical sections overlap, every request
    /// served), exactly as a seeded simulator run of the same protocol
    /// does.
    #[test]
    fn live_me_service_trace_satisfies_spec3(
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
                jitter: Some(Duration::from_micros(100)),
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(40),
        };
        let (report, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
        let total = 2 * n as u64;
        prop_assert_eq!(report.served, total, "all live requests served");
        let trace = report.trace.expect("recording on");
        let me = analyze_me_trace(&trace, n);
        prop_assert!(
            me.exclusivity_holds(),
            "live genuine CS overlap: {:?}",
            me.genuine_overlaps
        );
        prop_assert!(me.all_served(), "unserved in live trace: {:?}", me.unserved);
        prop_assert_eq!(me.served.len(), total as usize);

        // The simulator run of the same fleet passes the same predicates.
        let processes: Vec<MeProcess> = (0..n)
            .map(|i| MeProcess::with_config(p(i), n, 100 + i as u64, MeConfig::default()))
            .collect();
        let network = NetworkBuilder::new(n).capacity(Capacity::Bounded(1)).build();
        let mut sim = Runner::new(processes, network, RandomScheduler::new(), seed);
        if loss > 0.0 {
            sim.set_loss(LossModel::probabilistic(loss));
        }
        let mut pending = vec![2u32; n];
        let mut executed = 0u64;
        while executed < 400_000 && pending.iter().any(|&r| r > 0) {
            executed += sim.run_steps(500).expect("sim run").steps;
            for (i, left) in pending.iter_mut().enumerate() {
                if *left > 0 && sim.process(p(i)).request() == RequestState::Done {
                    sim.mark(p(i), "request");
                    sim.process_mut(p(i)).request_cs();
                    *left -= 1;
                }
            }
        }
        // Let the last injected requests drain.
        let _ = sim.run_until(2_000_000, |r| {
            (0..n).all(|i| r.process(p(i)).request() == RequestState::Done)
        });
        let sim_report = analyze_me_trace(sim.trace(), n);
        prop_assert!(sim_report.exclusivity_holds(), "sim genuine CS overlap");
        prop_assert!(sim_report.all_served(), "sim unserved: {:?}", sim_report.unserved);
    }
}

/// Stress: a lossy jittered transport, one instance crashed mid-run and
/// restarted — the snap-stabilizing service serves every request and the
/// merged trace still satisfies mutual exclusion.
#[test]
fn lossy_crash_restart_stress_serves_everyone() {
    let n = 4;
    let processes: Vec<MeProcess> = (0..n)
        .map(|i| MeProcess::with_config(p(i), n, 100 + i as u64, MeConfig::default()))
        .collect();
    let cfg = LiveConfig {
        loss: 0.1,
        seed: 0xDEAD,
        jitter: Some(Duration::from_micros(100)),
        ..LiveConfig::default()
    };
    let mut runner = MuxRunner::spawn(processes, cfg, DEFAULT_WORKERS);

    // First round of requests at every process.
    for i in 0..n {
        runner.with_process_ctx(p(i), |m: &mut MeProcess, scribe| {
            scribe.mark("request");
            assert!(m.request_cs());
        });
    }
    // Crash instance 2 mid-protocol; traffic keeps flowing among the
    // others, its inbox backlogs against the capacity bound.
    runner.crash(p(2));
    std::thread::sleep(Duration::from_millis(30));
    runner.restart(p(2));

    for i in 0..n {
        assert!(
            runner.wait_until(
                p(i),
                |m: &MeProcess| m.request() == RequestState::Done,
                Duration::from_secs(40),
            ),
            "request at P{i} must be served despite loss and the crash/restart"
        );
    }
    let report = runner.stop();
    let me = analyze_me_trace(&report.trace, n);
    assert!(
        me.exclusivity_holds(),
        "genuine CS overlap under crash/restart: {:?}",
        me.genuine_overlaps
    );
    assert!(me.all_served(), "unserved: {:?}", me.unserved);
    assert!(report.stats.links.lost_in_transit > 0, "loss was active");
    let markers: Vec<&str> = report.trace.markers().map(|(_, _, l)| l).collect();
    assert!(markers.contains(&"crash") && markers.contains(&"restart"));
}

/// The live runtime honours the §4 drop-on-full rule: with capacity-1
/// links and a flood of retransmissions, drops happen and the protocol
/// still decides (losses on a fair-lossy link are semantically harmless).
#[test]
fn drop_on_full_is_live_and_harmless() {
    let mut runner = MuxRunner::spawn(pif_fleet(3), LiveConfig::default(), DEFAULT_WORKERS);
    runner.with_process(p(0), |m: &mut Proc| assert!(m.request_broadcast(5)));
    assert!(runner.wait_until(
        p(0),
        |m: &Proc| m.request() == RequestState::Done,
        Duration::from_secs(30),
    ));
    let report = runner.stop();
    assert!(
        report.stats.links.sends >= report.stats.links.enqueued,
        "sends {} < enqueued {}",
        report.stats.links.sends,
        report.stats.links.enqueued
    );
}
