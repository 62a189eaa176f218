//! Telemetry pipeline conformance: the snapshot monitor composed with
//! the *multiplexed* runtime backend, judged by executable
//! Specification 5 across loss tiers × chaos mixes; multi-initiator
//! runs whose decided cuts are attributed per requesting ledger; cut
//! differencing through `telemetry::Series`; and threshold alerts
//! recorded as `alert:` marks in the same merged trace the spec judges.
//!
//! Sized for a single-core CI runner under the telemetry step's
//! 4-minute timeout.

use std::time::Duration;

use snapstab_repro::core::spec::{analyze_me_epochs, analyze_snapshot_trace};
use snapstab_repro::runtime::{
    alert_marks, project_service_trace, run_service, AlertConfig, AlertKind, ChaosMix, ChaosPlan,
    ChaosReport, LiveConfig, MonitorConfig, MonitoredMutexReport, Monitoring, MutexServiceConfig,
    Series, ServiceRun,
};

const LOSS_TIERS: [f64; 3] = [0.0, 0.1, 0.3];
const WORKERS: usize = 2;

/// The mutex service monitored per `mon` on a `WORKERS`-thread mux pool,
/// in memory, under `plan` if given (an empty chaos report if not).
fn monitored_mux(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    plan: Option<&ChaosPlan>,
) -> (MonitoredMutexReport, ChaosReport) {
    let run = ServiceRun {
        workers: WORKERS,
        chaos: plan,
        ..ServiceRun::default()
    };
    let (report, chaos) = run_service(Monitoring::new(cfg, mon), run).expect("in-memory spawns");
    (report, chaos.unwrap_or_default())
}

fn mutex_cfg(n: usize, loss: f64, seed: u64) -> MutexServiceConfig {
    MutexServiceConfig {
        n,
        requests_per_process: 3,
        cs_duration: 0,
        live: LiveConfig {
            loss,
            seed,
            record_trace: true,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(60),
    }
}

fn fast_monitor(initiators: usize) -> MonitorConfig {
    MonitorConfig {
        interval: Duration::from_millis(5),
        initiators,
        ..MonitorConfig::default()
    }
}

/// Monitored mutex on the mux pool across loss tiers: all requests
/// served, at least one cut spans the multiplexed instances, and the
/// merged trace passes Specification 5 with zero fabrications.
#[test]
fn monitored_mux_across_loss_tiers() {
    for (k, &loss) in LOSS_TIERS.iter().enumerate() {
        let n = 4;
        let cfg = mutex_cfg(n, loss, 90 + k as u64);
        let (report, _) = monitored_mux(&cfg, &fast_monitor(1), None);
        assert_eq!(
            report.served,
            cfg.requests_per_process * n as u64,
            "loss {loss}: monitoring must not eat requests"
        );
        assert!(!report.monitor.cuts.is_empty(), "loss {loss}: no cuts");
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, n, &[]);
        assert!(spec.holds(), "loss {loss}: {spec:?}");
        assert!(spec.fabricated.is_empty());
        assert_eq!(spec.cuts_decided(), report.monitor.cuts.len());
    }
}

/// K = 2 initiators on the mux pool: every decided cut is attributed
/// to the ledger that requested it, the per-initiator tallies from the
/// live report agree with the spec verdict's, and `Series` differences
/// each ledger's chain independently.
#[test]
fn monitored_mux_multi_initiator_attribution_and_series() {
    let n = 4;
    let cfg = mutex_cfg(n, 0.1, 97);
    let mon = fast_monitor(2);
    let (report, _) = monitored_mux(&cfg, &mon, None);
    assert_eq!(report.served, cfg.requests_per_process * n as u64);
    assert_eq!(report.monitor.initiators, 2);
    assert!(!report.monitor.cuts.is_empty());

    let trace = report.trace.as_ref().expect("recording on");
    let spec = analyze_snapshot_trace(trace, n, &[]);
    assert!(spec.holds(), "{spec:?}");
    for stats in report.monitor.per_initiator() {
        assert_eq!(
            spec.cuts_of(stats.initiator),
            stats.cuts as usize,
            "ledger {:?}: live tally vs trace verdict",
            stats.initiator
        );
        assert_eq!(spec.refused_of(stats.initiator), stats.refused as usize);
    }

    // Differencing runs per ledger: the first point of each chain has
    // no predecessor (zero rates), later points difference against the
    // same initiator's previous cut only.
    let mut series = Series::default();
    let mut firsts = 0;
    let mut last_cut = [None::<u64>; 2];
    for cut in &report.monitor.cuts {
        let point = series.observe(cut);
        assert_eq!(point.initiator, cut.initiator);
        assert_eq!(point.served_total, cut.served_total());
        let slot = &mut last_cut[cut.initiator.index()];
        if slot.is_none() {
            assert_eq!(point.served_per_sec, 0.0, "first point of a chain");
            firsts += 1;
        }
        assert!(slot.is_none_or(|prev| prev < cut.cut));
        *slot = Some(cut.cut);
        let line = point.json_line();
        assert!(line.starts_with("{\"type\":\"cut\",\"initiator\":"));
    }
    assert!(
        (1..=2).contains(&firsts),
        "one chain head per active ledger"
    );
}

/// Monitor-on-mux under chaos: the composite instances are corrupted,
/// crashed and partitioned while multiplexed over the worker pool.
/// Spec 5 must hold with the authoritative fault steps, and the
/// projected service trace must satisfy Spec 3 per epoch.
#[test]
fn monitored_mux_under_chaos_all_mixes() {
    for (k, mix) in [ChaosMix::Corrupt, ChaosMix::Crash, ChaosMix::All]
        .into_iter()
        .enumerate()
    {
        let n = 4;
        let seed = 110 + k as u64;
        let cfg = mutex_cfg(n, 0.0, seed);
        let plan = ChaosPlan {
            bursts: 2,
            quiet: Duration::from_millis(15),
            disruption: Duration::from_millis(15),
            ..ChaosPlan::profile(mix, seed)
        };
        let (report, chaos) = monitored_mux(&cfg, &fast_monitor(1), Some(&plan));
        assert_eq!(chaos.bursts_fired, 2, "{mix:?}");
        assert_eq!(
            report.served,
            cfg.requests_per_process * n as u64,
            "{mix:?}: chaos must not eat requests"
        );
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, n, &chaos.fault_steps);
        assert!(spec.holds(), "{mix:?}: {spec:?}");
        assert!(spec.cuts_decided() > 0, "{mix:?}: cuts must survive");
        let service = project_service_trace(trace);
        let epochs = analyze_me_epochs(&service, n, &chaos.fault_steps);
        assert!(epochs.holds(), "{mix:?}: {epochs:?}");
    }
}

/// The refusal-streak alert demo: repeated corruption bursts scramble
/// the monitor ledger and in-flight collections faster than the 1 ms
/// cut schedule can land clean waves, so the honest outcome — refuse,
/// never fabricate — arrives in streaks. The alert must fire, be
/// recorded as an `alert:` mark in the merged trace (where it is
/// ignored by — and so cannot break — Specification 5), and agree with
/// the spec's own per-ledger streak accounting.
#[test]
fn refusal_streak_alert_fires_under_chaos_and_lands_in_trace() {
    let n = 3;
    let seed = 131;
    let mut cfg = MutexServiceConfig {
        requests_per_process: 30,
        ..mutex_cfg(n, 0.3, seed)
    };
    // Delivery jitter stretches every wave past the cut schedule, so a
    // corrupted ledger meets several request attempts before it heals.
    cfg.live.jitter = Some(Duration::from_millis(2));
    let mon = MonitorConfig {
        interval: Duration::from_millis(1),
        initiators: 1,
        alerts: AlertConfig {
            refusal_streak: 2,
            ..AlertConfig::default()
        },
    };
    let plan = ChaosPlan {
        bursts: 8,
        quiet: Duration::from_millis(5),
        disruption: Duration::from_millis(12),
        ..ChaosPlan::profile(ChaosMix::Corrupt, seed)
    };
    let (report, chaos) = monitored_mux(&cfg, &mon, Some(&plan));
    assert_eq!(
        report.served,
        cfg.requests_per_process * n as u64,
        "alerting must not eat requests"
    );
    let streak_alerts: Vec<_> = report
        .monitor
        .alerts
        .iter()
        .filter(|a| a.kind == AlertKind::RefusalStreak)
        .collect();
    assert!(
        !streak_alerts.is_empty(),
        "a 1ms schedule under corruption chaos must out-pace the waves \
         (refused {} times)",
        report.monitor.refused
    );

    let trace = report.trace.as_ref().expect("recording on");
    let marks = alert_marks(trace);
    for alert in &streak_alerts {
        assert!(
            marks
                .iter()
                .any(|(_, p, label)| { *p == alert.initiator && *label == alert.mark() }),
            "alert {alert:?} must be recorded in the merged trace"
        );
    }

    // The alerted streak really happened, per the spec's own ledger
    // accounting — and alert marks don't perturb the verdict.
    let spec = analyze_snapshot_trace(trace, n, &chaos.fault_steps);
    assert!(spec.holds(), "{spec:?}");
    let first = streak_alerts[0];
    assert!(
        spec.max_refusal_streak_of(first.initiator) >= first.streak as usize,
        "trace shows streak >= {}, alert claims {}",
        spec.max_refusal_streak_of(first.initiator),
        first.streak
    );
}
