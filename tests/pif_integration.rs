//! Cross-crate integration tests: the snap-stabilizing PIF (Algorithm 1)
//! on the full simulator, under both schedulers, loss, and arbitrary
//! initial configurations.

use snapstab_repro::core::pif::{PifApp, PifEvent, PifMsg, PifProcess};
use snapstab_repro::core::request::RequestState;
use snapstab_repro::core::spec::{channels_flushed, check_bare_pif_wave};
use snapstab_repro::sim::{
    Capacity, CorruptionPlan, LossModel, NetworkBuilder, ProcessId, RandomScheduler, RoundRobin,
    Runner, Scheduler, SimRng,
};

#[derive(Clone, Debug)]
struct Tagger {
    tag: u32,
    brd_log: Vec<u32>,
}

impl PifApp<u32, u32> for Tagger {
    fn on_broadcast(&mut self, _from: ProcessId, data: &u32) -> u32 {
        self.brd_log.push(*data);
        self.tag
    }
    fn on_feedback(&mut self, _from: ProcessId, _data: &u32) {}
}

type Proc = PifProcess<u32, u32, Tagger>;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn make(i: usize, n: usize) -> Proc {
    PifProcess::with_initial_f(
        p(i),
        n,
        0,
        0,
        Tagger {
            tag: 100 + i as u32,
            brd_log: vec![],
        },
    )
}

fn wave_spec_holds<S: Scheduler>(mut runner: Runner<Proc, S>, n: usize) {
    let initiator = p(0);
    let _ = runner.run_until(500_000, |r| {
        r.process(initiator).request() == RequestState::Done
    });
    let req_step = runner.step_count();
    runner.mark(initiator, "request");
    assert!(runner.process_mut(initiator).request_broadcast(7));
    runner
        .run_until(3_000_000, |r| {
            r.process(initiator).request() == RequestState::Done
        })
        .expect("wave decides");
    let verdict = check_bare_pif_wave(runner.trace(), initiator, n, req_step, &7, |q| {
        100 + q.index() as u32
    });
    assert!(verdict.holds(), "{verdict:?}");
}

#[test]
fn spec1_holds_under_round_robin_from_corruption() {
    for n in [2usize, 3, 6] {
        for seed in 0..5 {
            let processes = (0..n).map(|i| make(i, n)).collect();
            let network = NetworkBuilder::new(n)
                .capacity(Capacity::Bounded(1))
                .build();
            let mut runner = Runner::new(processes, network, RoundRobin::new(), seed);
            let mut rng = SimRng::seed_from(seed * 31 + n as u64);
            CorruptionPlan::full().apply(&mut runner, &mut rng);
            wave_spec_holds(runner, n);
        }
    }
}

#[test]
fn spec1_holds_under_random_scheduler_with_loss() {
    for seed in 0..5 {
        let n = 4;
        let processes = (0..n).map(|i| make(i, n)).collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        let mut runner = Runner::new(processes, network, RandomScheduler::new(), seed);
        runner.set_loss(LossModel::probabilistic(0.25));
        let mut rng = SimRng::seed_from(seed + 1_000);
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        wave_spec_holds(runner, n);
    }
}

#[test]
fn spec1_holds_at_larger_channel_capacity() {
    // Deviation D6 (ARCHITECTURE.md §11): the protocol also works at
    // known capacity c > 1.
    for cap in [2usize, 4] {
        let n = 3;
        let processes = (0..n).map(|i| make(i, n)).collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(cap))
            .build();
        let mut runner = Runner::new(processes, network, RandomScheduler::new(), 3);
        let mut rng = SimRng::seed_from(cap as u64);
        CorruptionPlan {
            corrupt_processes: true,
            corrupt_channels: true,
            max_preload_per_channel: cap,
        }
        .apply(&mut runner, &mut rng);
        wave_spec_holds(runner, n);
    }
}

#[test]
fn property1_flushes_initiators_channels() {
    const JUNK: u32 = 0xDEAD;
    for seed in 0..10 {
        let n = 3;
        let processes = (0..n).map(|i| make(i, n)).collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        let mut runner = Runner::new(processes, network, RandomScheduler::new(), seed);
        let mut rng = SimRng::seed_from(seed);
        // Junk in every channel incident to the initiator.
        let links: Vec<_> = runner.network().links().collect();
        for (f, t) in links {
            if f == p(0) || t == p(0) {
                let flag = snapstab_repro::core::flag::Flag::new(rng.gen_range(0..5) as u8);
                runner
                    .network_mut()
                    .channel_mut(f, t)
                    .unwrap()
                    .set_contents([PifMsg {
                        broadcast: JUNK,
                        feedback: JUNK,
                        sender_state: flag,
                        echoed_state: flag,
                    }]);
            }
        }
        runner.process_mut(p(0)).request_broadcast(5);
        runner
            .run_until(1_000_000, |r| {
                r.process(p(0)).request() == RequestState::Done
            })
            .expect("wave decides");
        assert!(
            channels_flushed(runner.network(), p(0), |m: &PifMsg<u32, u32>| m.broadcast
                == JUNK),
            "seed {seed}: Property 1"
        );
    }
}

#[test]
fn back_to_back_waves_each_satisfy_spec() {
    let n = 3;
    let processes = (0..n).map(|i| make(i, n)).collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), 9);
    for wave in 0..5u32 {
        let req_step = runner.step_count();
        assert!(runner.process_mut(p(0)).request_broadcast(wave));
        runner
            .run_until(1_000_000, |r| {
                r.process(p(0)).request() == RequestState::Done
            })
            .expect("wave decides");
        let verdict = check_bare_pif_wave(runner.trace(), p(0), n, req_step, &wave, |q| {
            100 + q.index() as u32
        });
        assert!(verdict.holds(), "wave {wave}: {verdict:?}");
    }
    // Every peer saw the five broadcasts in order.
    for i in 1..n {
        assert_eq!(runner.process(p(i)).app().brd_log, vec![0, 1, 2, 3, 4]);
    }
}

#[test]
fn all_initiators_concurrently_still_satisfy_spec() {
    let n = 4;
    let processes = (0..n).map(|i| make(i, n)).collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), 5);
    for i in 0..n {
        assert!(runner.process_mut(p(i)).request_broadcast(10 + i as u32));
    }
    runner
        .run_until(3_000_000, |r| {
            (0..n).all(|i| r.process(p(i)).request() == RequestState::Done)
        })
        .expect("all waves decide");
    for i in 0..n {
        let verdict = check_bare_pif_wave(runner.trace(), p(i), n, 0, &(10 + i as u32), |q| {
            100 + q.index() as u32
        });
        assert!(verdict.holds(), "initiator {i}: {verdict:?}");
    }
}

#[test]
fn mid_run_fault_burst_next_wave_still_correct() {
    let n = 3;
    let processes = (0..n).map(|i| make(i, n)).collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), 11);
    let mut rng = SimRng::seed_from(77);
    for round in 0..4 {
        // Fault burst mid-run.
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        let _ = runner.run_until(1_000_000, |r| {
            r.process(p(0)).request() == RequestState::Done
        });
        let req_step = runner.step_count();
        assert!(runner.process_mut(p(0)).request_broadcast(round));
        runner
            .run_until(1_000_000, |r| {
                r.process(p(0)).request() == RequestState::Done
            })
            .expect("wave decides");
        let verdict = check_bare_pif_wave(runner.trace(), p(0), n, req_step, &round, |q| {
            100 + q.index() as u32
        });
        assert!(verdict.holds(), "round {round}: {verdict:?}");
    }
}

#[test]
fn trace_events_are_well_ordered() {
    let n = 3;
    let processes = (0..n).map(|i| make(i, n)).collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RoundRobin::new(), 2);
    runner.process_mut(p(0)).request_broadcast(1);
    runner
        .run_until(1_000_000, |r| {
            r.process(p(0)).request() == RequestState::Done
        })
        .expect("wave decides");
    // Steps never decrease along the trace.
    let steps: Vec<u64> = runner.trace().iter().map(|te| te.step).collect();
    assert!(steps.windows(2).all(|w| w[0] <= w[1]));
    // Started precedes every ReceiveFck which precede Decided.
    let events: Vec<&PifEvent<u32, u32>> = runner
        .trace()
        .protocol_events_of(p(0))
        .map(|(_, e)| e)
        .collect();
    let started = events
        .iter()
        .position(|e| matches!(e, PifEvent::Started))
        .unwrap();
    let decided = events
        .iter()
        .position(|e| matches!(e, PifEvent::Decided))
        .unwrap();
    for (i, e) in events.iter().enumerate() {
        if matches!(e, PifEvent::ReceiveFck { .. }) {
            assert!(started < i && i < decided);
        }
    }
}
