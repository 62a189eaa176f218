//! Observability conformance: live monitored service runs — a
//! snap-stabilizing snapshot monitor sharing the service's transport —
//! judged by executable Specification 5 (`analyze_snapshot_trace`),
//! plus crafted adversarial traces proving the spec *rejects* what it
//! must: fabricated cuts, torn cuts, values from crashed processes,
//! causally inconsistent cuts.
//!
//! Live sweeps cover loss ∈ {0, 0.1, 0.3} × {inmem, udp} (UDP variants
//! skip with a warning when the sandbox forbids sockets, like
//! `tests/udp_runtime.rs`) and monitor-under-chaos runs where the
//! composite process — service *and* monitor plane — is corrupted,
//! crashed and partitioned mid-flight. Sized for a single-core CI
//! runner under the monitor step's 4-minute timeout.

use std::time::Duration;

use snapstab_repro::core::probe::{MonitorEvent, ProbeDigest};
use snapstab_repro::core::spec::{analyze_me_epochs, analyze_me_trace, analyze_snapshot_trace};
use snapstab_repro::net::{udp_available, UdpLoopback};
use snapstab_repro::runtime::service::Msg;
use snapstab_repro::runtime::{
    project_service_trace, run_service, ChaosMix, ChaosPlan, ChaosReport, ForwardingServiceConfig,
    InMemory, LiveConfig, MonitorApp, MonitorConfig, MonitoredMsg, Monitoring, MutexServiceConfig,
    ServiceRun, Transport,
};
use snapstab_repro::sim::{ProcessId, Trace, TraceEvent};

const LOSS_TIERS: [f64; 3] = [0.0, 0.1, 0.3];

/// Runs `app` monitored per `mon` on the default pool over
/// `transport`, under `plan` if given (an empty chaos report if not).
fn monitored<A: MonitorApp>(
    app: A,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<Msg<A>>>,
    plan: Option<&ChaosPlan>,
) -> (A::MonitoredReport, ChaosReport) {
    let run = ServiceRun {
        transport,
        chaos: plan,
        ..ServiceRun::default()
    };
    let (report, chaos) = run_service(Monitoring::new(app, mon), run).expect("transport spawns");
    (report, chaos.unwrap_or_default())
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

fn mutex_cfg(n: usize, loss: f64, seed: u64) -> MutexServiceConfig {
    MutexServiceConfig {
        n,
        requests_per_process: 4,
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

fn fast_monitor() -> MonitorConfig {
    MonitorConfig {
        interval: Duration::from_millis(5),
        ..MonitorConfig::default()
    }
}

/// One monitored mutex run on the given transport: all requests served,
/// at least one cut decided, Specification 5 holds, and the projected
/// service trace still satisfies Specification 3.
fn monitored_mutex_conformance(
    transport: &dyn Transport<
        snapstab_repro::runtime::MonitoredMsg<snapstab_repro::core::me::MeMsg>,
    >,
    loss: f64,
    seed: u64,
) {
    let n = 3;
    let cfg = mutex_cfg(n, loss, seed);
    let (report, _) = monitored(&cfg, &fast_monitor(), transport, None);
    let total = cfg.requests_per_process * n as u64;
    assert_eq!(
        report.served, total,
        "loss {loss} seed {seed}: monitoring must not eat requests"
    );
    assert!(
        !report.monitor.cuts.is_empty(),
        "loss {loss} seed {seed}: at least one cut must decide"
    );
    let trace = report.trace.as_ref().expect("recording on");
    let spec = analyze_snapshot_trace(trace, n, &[]);
    assert!(spec.holds(), "loss {loss} seed {seed}: {spec:?}");
    assert_eq!(
        spec.cuts_decided(),
        report.monitor.cuts.len(),
        "every surfaced cut appears in the trace verdict"
    );
    let service = project_service_trace(trace);
    let me = analyze_me_trace(&service, n);
    assert!(
        me.exclusivity_holds(),
        "loss {loss}: {:?}",
        me.genuine_overlaps
    );
    assert!(me.all_served(), "loss {loss}: {:?}", me.unserved);
}

#[test]
fn monitored_mutex_inmem_across_loss_tiers() {
    for (k, &loss) in LOSS_TIERS.iter().enumerate() {
        monitored_mutex_conformance(&InMemory, loss, 40 + k as u64);
    }
}

#[test]
fn monitored_mutex_udp_across_loss_tiers() {
    if skip_without_udp("monitored_mutex_udp_across_loss_tiers") {
        return;
    }
    for (k, &loss) in LOSS_TIERS.iter().enumerate() {
        monitored_mutex_conformance(&UdpLoopback::new(), loss, 50 + k as u64);
    }
}

#[test]
fn monitored_forwarding_inmem_with_stale_prefill() {
    let n = 3;
    let cfg = forwarding_cfg(n, 0.1, 61);
    let (report, _) = monitored(&cfg, &fast_monitor(), &InMemory, None);
    assert_eq!(report.delivered, cfg.payloads_per_process * n as u64);
    assert!(!report.monitor.cuts.is_empty());
    let trace = report.trace.as_ref().expect("recording on");
    let spec = analyze_snapshot_trace(trace, n, &[]);
    assert!(spec.holds(), "{spec:?}");
}

/// Monitor under chaos: the composite process is corrupted, crashed and
/// partitioned mid-run. Spec 5 must hold with the report's
/// authoritative fault steps (interrupted cuts exempt but classified,
/// refusals allowed, fabrication never), and some cuts must still land.
#[test]
fn monitored_mutex_under_chaos_all_mixes() {
    for (k, mix) in [ChaosMix::Corrupt, ChaosMix::Crash, ChaosMix::All]
        .into_iter()
        .enumerate()
    {
        let n = 3;
        let seed = 70 + k as u64;
        let cfg = mutex_cfg(n, 0.0, seed);
        let plan = ChaosPlan {
            bursts: 2,
            quiet: Duration::from_millis(15),
            disruption: Duration::from_millis(15),
            ..ChaosPlan::profile(mix, seed)
        };
        let (report, chaos) = monitored(&cfg, &fast_monitor(), &InMemory, Some(&plan));
        assert_eq!(chaos.bursts_fired, 2, "{mix:?}");
        assert_eq!(
            report.served,
            cfg.requests_per_process * n as u64,
            "{mix:?}: chaos must not eat requests"
        );
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, n, &chaos.fault_steps);
        assert!(spec.holds(), "{mix:?}: {spec:?}");
        assert!(
            spec.cuts_decided() > 0,
            "{mix:?}: monitoring must survive the bursts"
        );
        let service = project_service_trace(trace);
        let epochs = analyze_me_epochs(&service, n, &chaos.fault_steps);
        assert!(epochs.holds(), "{mix:?}: {epochs:?}");
    }
}

#[test]
fn monitored_forwarding_under_chaos() {
    let n = 3;
    let cfg = forwarding_cfg(n, 0.0, 83);
    let plan = ChaosPlan {
        bursts: 2,
        quiet: Duration::from_millis(15),
        disruption: Duration::from_millis(15),
        ..ChaosPlan::profile(ChaosMix::All, 83)
    };
    let (report, chaos) = monitored(&cfg, &fast_monitor(), &InMemory, Some(&plan));
    assert_eq!(chaos.bursts_fired, 2);
    let trace = report.trace.as_ref().expect("recording on");
    let spec = analyze_snapshot_trace(trace, n, &chaos.fault_steps);
    assert!(spec.holds(), "{spec:?}");
}

// ---------------------------------------------------------------------
// Crafted adversarial traces: Specification 5 must REJECT these. The
// unit tests in `core::spec` cover the checker's internals; these prove
// the public contract end-to-end through the integration surface.
// ---------------------------------------------------------------------

type STrace = Trace<(), MonitorEvent>;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn digest(proc_: usize, served: u64) -> ProbeDigest {
    ProbeDigest {
        proc: proc_ as u16,
        served,
        ..ProbeDigest::default()
    }
}

fn push_started(t: &mut STrace, step: u64, init: usize, cut: u64) {
    t.push(
        step,
        TraceEvent::Protocol {
            p: p(init),
            event: MonitorEvent::CutStarted { cut },
        },
    );
}

fn push_decided(t: &mut STrace, step: u64, init: usize, cut: u64, values: Vec<ProbeDigest>) {
    t.push(
        step,
        TraceEvent::Protocol {
            p: p(init),
            event: MonitorEvent::CutDecided { cut, values },
        },
    );
}

#[test]
fn crafted_fabricated_cut_rejected() {
    // A decision with no matching wave: corrupted monitor state may
    // refuse cuts, never mint them.
    let mut t = STrace::new();
    push_decided(
        &mut t,
        10,
        0,
        3,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(!spec.holds());
    assert_eq!(spec.fabricated, vec![(p(0), 3)]);
}

#[test]
fn crafted_torn_cut_rejected() {
    // Two values claiming the same process (and none for another): the
    // wave's one-value-per-live-process promise is torn.
    let mut t = STrace::new();
    push_started(&mut t, 5, 0, 0);
    push_decided(
        &mut t,
        9,
        0,
        0,
        vec![digest(0, 0), digest(1, 0), digest(1, 0)],
    );
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(!spec.holds());
    assert_eq!(spec.torn, vec![(p(0), 0)]);
}

#[test]
fn crafted_value_from_crashed_process_rejected() {
    // Process 2 is crashed for the wave's whole span, yet the cut
    // reports a value for it — inconsistent with the live set.
    let mut t = STrace::new();
    t.push_marker(2, p(2), "crash");
    push_started(&mut t, 5, 0, 0);
    push_decided(
        &mut t,
        9,
        0,
        0,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    t.push_marker(12, p(2), "restart");
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(!spec.holds());
    assert_eq!(spec.crashed_values, vec![(p(0), 0, p(2))]);
}

#[test]
fn crafted_causally_inconsistent_cut_rejected() {
    // The service trace shows p1's first serve at step 20, after the
    // wave decided — but the cut claims p1 had already served one.
    // A cut may not report a request as both unserved in the merged
    // order and already granted inside the cut.
    let mut t = STrace::new();
    push_started(&mut t, 5, 0, 0);
    push_decided(
        &mut t,
        9,
        0,
        0,
        vec![digest(0, 0), digest(1, 1), digest(2, 0)],
    );
    t.push_marker(20, p(1), "served");
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(!spec.holds());
    assert_eq!(spec.causal_violations, vec![(p(0), 0, p(1))]);
}

#[test]
fn crafted_cross_initiator_forgery_rejected() {
    // p0 opens wave 3; a corrupted monitor at p1 decides "its" cut 3.
    // The decision must be judged against p1's own ledger — which never
    // opened wave 3 — so it is fabricated at p1, and p0's genuine wave
    // stays pending. Cross-initiator attribution may never launder a
    // forged cut through another ledger's open wave.
    let mut t = STrace::new();
    push_started(&mut t, 5, 0, 3);
    push_decided(
        &mut t,
        9,
        1,
        3,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(!spec.holds());
    assert_eq!(spec.fabricated, vec![(p(1), 3)]);
    assert_eq!(spec.pending, vec![(p(0), 3)]);
    assert_eq!(spec.cuts_of(p(1)), 0);
}

#[test]
fn crafted_interleaved_waves_deciding_out_of_order_accepted() {
    // Two initiators with overlapping waves deciding in the opposite
    // order they started — legal: each ledger pairs its own ids, and
    // concurrent §4.1 waves are independent.
    let mut t = STrace::new();
    push_started(&mut t, 2, 0, 0);
    push_started(&mut t, 3, 1, 0);
    push_decided(
        &mut t,
        6,
        1,
        0,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    push_started(&mut t, 7, 1, 1);
    push_decided(
        &mut t,
        8,
        0,
        0,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    push_decided(
        &mut t,
        10,
        1,
        1,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(spec.holds(), "{spec:?}");
    assert_eq!(spec.initiators(), vec![p(0), p(1)]);
    assert_eq!(spec.cuts_of(p(0)), 1);
    assert_eq!(spec.cuts_of(p(1)), 2);
    // Decision order in the report follows the merged trace, not the
    // start order.
    let order: Vec<(usize, u64)> = spec
        .cuts
        .iter()
        .map(|c| (c.initiator.index(), c.cut))
        .collect();
    assert_eq!(order, vec![(1, 0), (0, 0), (1, 1)]);
}

#[test]
fn crafted_refusal_streaks_accounted_per_ledger() {
    // p0 refuses 0,1 then decides 2; p1 refuses 0,1,2 unbroken. Streaks
    // are per-ledger signals — exactly what the telemetry refusal-streak
    // alert thresholds.
    let mut t = STrace::new();
    let mut step = 1;
    for cut in 0..2u64 {
        push_started(&mut t, step, 0, cut);
        t.push(
            step + 1,
            TraceEvent::Protocol {
                p: p(0),
                event: MonitorEvent::CutRefused { cut },
            },
        );
        step += 2;
    }
    push_started(&mut t, step, 0, 2);
    push_decided(
        &mut t,
        step + 1,
        0,
        2,
        vec![digest(0, 0), digest(1, 0), digest(2, 0)],
    );
    step += 2;
    for cut in 0..3u64 {
        push_started(&mut t, step, 1, cut);
        t.push(
            step + 1,
            TraceEvent::Protocol {
                p: p(1),
                event: MonitorEvent::CutRefused { cut },
            },
        );
        step += 2;
    }
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(spec.holds(), "refusals are always legal: {spec:?}");
    assert_eq!(spec.refused_of(p(0)), 2);
    assert_eq!(spec.refused_of(p(1)), 3);
    assert_eq!(spec.max_refusal_streak_of(p(0)), 2);
    assert_eq!(spec.max_refusal_streak_of(p(1)), 3);
}

#[test]
fn crafted_consistent_trace_accepted_and_refusal_is_legal() {
    // The dual: a well-formed wave whose values agree with the
    // surrounding serve markers passes, and an explicit refusal is
    // never a violation.
    let mut t = STrace::new();
    t.push_marker(3, p(1), "served");
    push_started(&mut t, 5, 0, 0);
    push_decided(
        &mut t,
        9,
        0,
        0,
        vec![digest(0, 0), digest(1, 1), digest(2, 0)],
    );
    push_started(&mut t, 12, 0, 1);
    t.push(
        14,
        TraceEvent::Protocol {
            p: p(0),
            event: MonitorEvent::CutRefused { cut: 1 },
        },
    );
    let spec = analyze_snapshot_trace(&t, 3, &[]);
    assert!(spec.holds(), "{spec:?}");
    assert_eq!(spec.cuts_decided(), 1);
    assert_eq!(spec.refused, vec![(p(0), 1)]);
}
