// Index loops over parallel per-process arrays read clearer than enumerate here.
#![allow(clippy::needless_range_loop)]
//! Cross-crate integration tests: mutual exclusion (Algorithm 3) end to
//! end, plus the contrast with the self-stabilizing token ring.

use snapstab_repro::baselines::token_ring::{TokenRingProcess, TrEvent};
use snapstab_repro::baselines::util::{count_overlaps, extract_cs_intervals};
use snapstab_repro::core::me::{MeConfig, MeProcess, ValueMode};
use snapstab_repro::core::request::RequestState;
use snapstab_repro::core::spec::analyze_me_trace;
use snapstab_repro::sim::{
    Capacity, CorruptionPlan, LossModel, NetworkBuilder, ProcessId, RandomScheduler, Runner, SimRng,
};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn me_system(n: usize, cs_duration: u64, seed: u64) -> Runner<MeProcess, RandomScheduler> {
    let config = MeConfig {
        cs_duration,
        value_mode: ValueMode::Corrected,
        ..MeConfig::default()
    };
    // Unsorted ids; the leader is the process with the smallest.
    let ids: Vec<u64> = (0..n)
        .map(|i| ((i * 7919 + 13) % 1000) as u64 + 1)
        .collect();
    let processes = (0..n)
        .map(|i| MeProcess::with_config(p(i), n, ids[i], config))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    Runner::new(processes, network, RandomScheduler::new(), seed)
}

/// Drives a request workload and returns the ME report.
fn workload(
    runner: &mut Runner<MeProcess, RandomScheduler>,
    budget: u64,
    request_prob: f64,
    rng: &mut SimRng,
) -> snapstab_repro::core::spec::MeReport {
    let n = runner.n();
    let mut executed = 0;
    while executed < budget {
        executed += runner.run_steps(400).expect("run").steps;
        for i in 0..n {
            if runner.process(p(i)).request() == RequestState::Done && rng.gen_bool(request_prob) {
                runner.mark(p(i), "request");
                assert!(runner.process_mut(p(i)).request_cs());
            }
        }
    }
    analyze_me_trace(runner.trace(), n)
}

#[test]
fn exclusivity_from_many_corrupted_starts() {
    for seed in 0..6 {
        let mut runner = me_system(3, 0, seed);
        let mut rng = SimRng::seed_from(seed + 500);
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        let report = workload(&mut runner, 60_000, 0.02, &mut rng);
        assert!(
            report.exclusivity_holds(),
            "seed {seed}: {:?}",
            report.genuine_overlaps
        );
        assert!(
            !report.served.is_empty(),
            "seed {seed}: some request must be served"
        );
    }
}

#[test]
fn exclusivity_with_duration_and_loss() {
    for seed in 0..4 {
        let mut runner = me_system(4, 4, seed);
        runner.set_loss(LossModel::probabilistic(0.15));
        let mut rng = SimRng::seed_from(seed + 900);
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        let report = workload(&mut runner, 120_000, 0.02, &mut rng);
        assert!(report.exclusivity_holds(), "seed {seed}");
    }
}

#[test]
fn every_request_is_eventually_served() {
    let mut runner = me_system(3, 0, 42);
    let mut rng = SimRng::seed_from(1);
    CorruptionPlan::full().apply(&mut runner, &mut rng);
    // One request per process, injected when possible; then a generous
    // drain.
    let mut to_request = [true; 3];
    let mut executed = 0;
    while executed < 600_000 && to_request.iter().any(|&b| b) {
        executed += runner.run_steps(300).expect("run").steps;
        for i in 0..3 {
            if to_request[i] && runner.process(p(i)).request() == RequestState::Done {
                runner.mark(p(i), "request");
                assert!(runner.process_mut(p(i)).request_cs());
                to_request[i] = false;
            }
        }
    }
    runner
        .run_until(2_000_000, |r| {
            (0..3).all(|i| r.process(p(i)).request() == RequestState::Done)
        })
        .expect("all served");
    let report = analyze_me_trace(runner.trace(), 3);
    assert_eq!(report.served.len(), 3);
    assert!(report.all_served());
    assert!(report.exclusivity_holds());
}

#[test]
fn leader_rotation_is_fair_over_long_runs() {
    let mut runner = me_system(3, 0, 17);
    runner.run_steps(150_000).expect("run");
    // Every process won (entered the winner branch) at least once: count
    // phase-zero cycles and leader advances as proxies.
    let advances: Vec<u64> = (0..3)
        .map(|i| runner.process(p(i)).counters().value_advances)
        .collect();
    assert!(
        advances.iter().sum::<u64>() > 5,
        "the favour pointer must rotate: {advances:?}"
    );
    for i in 0..3 {
        assert!(
            runner.process(p(i)).counters().phase_zero_visits > 3,
            "P{i} must keep cycling (Lemma 10)"
        );
    }
}

#[test]
fn token_ring_overlaps_but_me_does_not_on_same_corruption_seeds() {
    let mut ring_overlap_seeds = 0;
    for seed in 0..12 {
        // Token ring from corrupted state.
        let n = 4;
        let ring_procs: Vec<TokenRingProcess> = (0..n)
            .map(|i| TokenRingProcess::new(p(i), n, 5, 2))
            .collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        let mut ring = Runner::new(ring_procs, network, RandomScheduler::new(), seed);
        let mut rng = SimRng::seed_from(seed);
        for i in 0..n {
            use snapstab_repro::sim::Protocol as _;
            ring.process_mut(p(i)).corrupt(&mut rng);
        }
        ring.run_steps(25_000).expect("run");
        let intervals = extract_cs_intervals(
            ring.trace(),
            n,
            |e| matches!(e, TrEvent::CsEnter),
            |e| matches!(e, TrEvent::CsExit),
        );
        if count_overlaps(&intervals) > 0 {
            ring_overlap_seeds += 1;
        }

        // Algorithm 3 with the same corruption seed and CS duration.
        let mut me = me_system(n, 2, seed);
        let mut rng = SimRng::seed_from(seed);
        CorruptionPlan::full().apply(&mut me, &mut rng);
        let report = workload(&mut me, 25_000, 0.02, &mut rng);
        assert!(
            report.exclusivity_holds(),
            "seed {seed}: ME must stay exclusive"
        );
    }
    assert!(
        ring_overlap_seeds > 0,
        "the self-stabilizing ring must overlap on some corrupted start"
    );
}

#[test]
fn paper_literal_value_mode_starves() {
    let config = MeConfig {
        cs_duration: 0,
        value_mode: ValueMode::PaperLiteral,
        ..MeConfig::default()
    };
    let n = 3;
    let processes: Vec<MeProcess> = (0..n)
        .map(|i| MeProcess::with_config(p(i), n, 10 + i as u64, config))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), 3);
    runner.run_steps(80_000).expect("warmup");
    // The pointer is dead at n; a new request is never served.
    assert_eq!(runner.process(p(0)).value(), n, "dead favour value reached");
    assert!(runner.process_mut(p(2)).request_cs());
    runner.run_steps(200_000).expect("run");
    assert_eq!(
        runner.process(p(2)).request(),
        RequestState::In,
        "the literal mod (n+1) arithmetic starves the requester (D2 erratum)"
    );
}

/// A `request` marked between two moves belongs to the next move: the
/// `Served` of an earlier request, pushed by the move just executed,
/// must not serve it. Markers-first ordering would put a marker stamped
/// with the executed move's step before that move's `Served`, and the
/// request would read a latency of 0 steps. A busy workload (requests
/// re-issued as soon as one is served) marks many requests right after a
/// `Served`.
#[test]
fn request_marked_after_a_served_is_not_served_by_it() {
    for seed in 0..36 {
        let mut runner = me_system(3, 2, seed);
        let mut rng = SimRng::seed_from(seed + 500);
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        let report = workload(&mut runner, 60_000, 0.5, &mut rng);
        assert!(report.served.len() > 20, "seed {seed}: a busy workload");
        for (q, req, srv) in &report.served {
            assert!(
                srv > req,
                "seed {seed}: {q:?}'s request marked at step {req} served by step {srv}"
            );
        }
    }
}
