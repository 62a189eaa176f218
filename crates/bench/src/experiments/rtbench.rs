//! **Q6 — live-runtime service throughput, single-leader and sharded.**
//!
//! Drives the `snapstab-runtime` services — Algorithm 3 (and the
//! forwarding layer), one instance per process on the runtime's worker
//! pool, over the concurrent lossy transport — with a saturating client
//! request stream, and reports end-to-end requests/sec, grants/sec and
//! transport msgs/sec. Every row runs on a [`DEFAULT_WORKERS`] pool
//! unless it records its own `workers`. Every sweep runs through the one
//! driver, [`run_service`].
//!
//! `BENCH_RUNTIME.json` is one [`Schema`], [`SCHEMA`]: seven sections of
//! [`Row`]s, written, parsed and rendered by [`crate::row`]. In emission
//! order:
//!
//! * `results` — the baseline `n × loss` sweep
//!   ([`MutexServiceConfig`]: one leader, one request per grant);
//! * `sharded` — the `shards × batch` sweep ([`ShardedServiceConfig`]:
//!   `S` leaders over hash-partitioned resource keys, up to `batch`
//!   non-conflicting requests per grant), including a shallow-vs-deep
//!   client-queue pair at `n = 64`;
//! * `udp` — the single-leader service over the in-memory transport and
//!   over UDP loopback sockets (`snapstab-net`), side by side;
//! * `forwarding` — the `n × loss` sweep of the snap-stabilizing
//!   forwarding service ([`ForwardingServiceConfig`], every run starting
//!   from stale-pre-filled buffers; `served` counts payloads delivered),
//!   plus an in-memory-vs-UDP pair.
//!
//!   These four share one field list: the measured configuration, its
//!   counts, the rates derived from them and the latency mean/p50/p99;
//! * `chaos` — the single-leader service under every seeded fault mix
//!   ([`ChaosPlan`]) with the supervised self-healing runtime, in memory
//!   and over UDP: recovery time (fault burst to next completion) p50/p99,
//!   supervisor interventions and the epochs the per-epoch Specification 3
//!   checker judged. Every row asserts the verdict holds before it exists;
//! * `observability` — the single-leader service with the snapshot
//!   monitor ([`Monitoring`]) against an identically-configured
//!   unmonitored baseline: overhead in req/s and p99, cut rate and
//!   staleness, cuts per initiator. A trace-recorded audit run at the
//!   same configuration must pass Specification 5 before the row exists;
//! * `mux` — the single-leader service at `n ∈ {256, 1024}` on a
//!   4-worker pool.

use std::time::Duration;

use snapstab_core::spec::{analyze_me_epochs, analyze_snapshot_trace};
use snapstab_net::{UdpLoopback, Wire};
use snapstab_runtime::service::Msg;
use snapstab_runtime::{
    run_service, ChaosMix, ChaosPlan, ChaosReport, ForwardingServiceConfig, InMemory, LiveConfig,
    MonitorConfig, Monitoring, MutexServiceConfig, ServiceApp, ServiceRun, ShardedServiceConfig,
    TraceDetail, Transport, DEFAULT_WORKERS,
};

use crate::row::{self, Field, Kind, Row, Schema, Section};
use crate::stats::Summary;

/// The transport backend a row was measured on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RtTransport {
    /// The in-process `LiveLink` transport (`snapstab_runtime::InMemory`).
    InMem,
    /// Real UDP loopback sockets (`snapstab_net::UdpLoopback`).
    Udp,
}

impl RtTransport {
    /// Runs `app` over this transport on a `workers`-thread pool, under
    /// `chaos` if given.
    fn run<A: ServiceApp>(
        self,
        app: A,
        workers: usize,
        chaos: Option<&ChaosPlan>,
    ) -> (A::Report, Option<ChaosReport>)
    where
        Msg<A>: Wire,
    {
        let udp;
        let transport: &dyn Transport<Msg<A>> = match self {
            RtTransport::InMem => &InMemory,
            RtTransport::Udp => {
                udp = UdpLoopback::new();
                &udp
            }
        };
        run_service(
            app,
            ServiceRun {
                workers,
                transport,
                chaos,
            },
        )
        .expect("transport setup (guard UDP rows with `udp_available`)")
    }

    /// The JSON tag of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            RtTransport::InMem => "inmem",
            RtTransport::Udp => "udp",
        }
    }
}

const N: Field = Field::col("n", Kind::Int, "n");
const TRANSPORT: Field = Field::col("transport", Kind::Tag(&["inmem", "udp"]), "transport");
const WORKERS: Field = Field::col("workers", Kind::Int, "workers");
const LOSS: Field = Field::col("loss", Kind::Real(None), "loss");
const INJECTED: Field = Field::json("injected", Kind::Int);
const SERVED: Field = Field::col("served", Kind::Int, "served");
const MSGS: Field = Field::json("msgs", Kind::Int);
const WALL: Field = Field::json("wall_ns", Kind::Nanos);
/// Rates per second of wall clock.
const RATE: Kind = Kind::Real(Some(1));
const REQUEST_RATE: Field = Field::col("requests_per_sec", RATE, "req/s");
const MSG_RATE: Field = Field::col("msgs_per_sec", RATE, "msgs/s");
const MEAN: Field = Field::col("mean_latency_ns", Kind::Nanos, "mean ms");
const P50: Field = Field::col("p50_latency_ns", Kind::Nanos, "p50 ms");
const P99: Field = Field::col("p99_latency_ns", Kind::Nanos, "p99 ms");

/// The row of the four service sections.
const SERVICE: &[Field] = &[
    N,
    TRANSPORT,
    LOSS,
    Field::col("shards", Kind::Int, "shards"),
    Field::col("batch", Kind::Int, "batch"),
    INJECTED,
    SERVED,
    Field::json("grants", Kind::Int),
    Field::json("cs_entries", Kind::Int),
    MSGS,
    WALL,
    REQUEST_RATE,
    Field::col("grants_per_sec", RATE, "grants/s"),
    MSG_RATE,
    MEAN,
    P50,
    P99,
];

const CHAOS: &[Field] = &[
    N,
    TRANSPORT,
    Field::col("mix", Kind::Tag(&ChaosMix::NAMES), "mix"),
    LOSS,
    Field::col("bursts", Kind::Int, "bursts"),
    Field::col("faults", Kind::Int, "faults"),
    Field::col("interventions", Kind::Int, "healed"),
    Field::col("epochs", Kind::Int, "epochs"),
    SERVED,
    REQUEST_RATE,
    Field::col("recovery_p50_ns", Kind::Nanos, "rec p50 ms"),
    Field::col("recovery_p99_ns", Kind::Nanos, "rec p99 ms"),
    WALL,
];

const OBSERVABILITY: &[Field] = &[
    N,
    TRANSPORT,
    WORKERS,
    Field::col("initiators", Kind::Int, "inits"),
    Field::col("interval_ms", Kind::Int, "ival ms"),
    INJECTED,
    Field::json("base_served", Kind::Int),
    Field::col("mon_served", Kind::Int, "served"),
    Field::json("base_wall_ns", Kind::Nanos),
    Field::json("mon_wall_ns", Kind::Nanos),
    Field::col("base_requests_per_sec", RATE, "base req/s"),
    Field::col("mon_requests_per_sec", RATE, "mon req/s"),
    Field::col("overhead_pct", Kind::Real(Some(2)), "ovh %"),
    Field::col("base_p99_latency_ns", Kind::Nanos, "base p99 ms"),
    Field::col("mon_p99_latency_ns", Kind::Nanos, "mon p99 ms"),
    Field::col("cuts", Kind::Int, "cuts"),
    Field::col("cuts_per_sec", Kind::Real(Some(2)), "cuts/s"),
    Field::col("refused", Kind::Int, "refused"),
    Field::col("mean_staleness_ns", Kind::Nanos, "stale ms"),
    Field::json("per_initiator_cuts", Kind::Ints),
];

const MUX: &[Field] = &[
    N,
    WORKERS,
    LOSS,
    INJECTED,
    SERVED,
    MSGS,
    WALL,
    REQUEST_RATE,
    MSG_RATE,
    MEAN,
    P50,
    P99,
];

/// The schema of `BENCH_RUNTIME.json`.
pub const SCHEMA: Schema = Schema {
    experiment: "live_runtime_mutex_service",
    unit: "requests_per_sec",
    sections: &[
        Section {
            key: "results",
            title: "baseline (single leader, one request per grant)",
            fields: SERVICE,
        },
        Section {
            key: "sharded",
            title: "sharded multi-leader service with request batching",
            fields: SERVICE,
        },
        Section {
            key: "udp",
            title: "transport comparison (single leader, in-memory vs UDP loopback)",
            fields: SERVICE,
        },
        Section {
            key: "forwarding",
            title: "forwarding service (stale-pre-filled buffers; served = payloads delivered end-to-end)",
            fields: SERVICE,
        },
        Section {
            key: "chaos",
            title: "chaos engine + supervised self-healing (per-epoch spec verdicts all hold; rec = fault burst to next completion)",
            fields: CHAOS,
        },
        Section {
            key: "observability",
            title: "observability (snapshot monitor off vs on, same transport and workload; every cut judged by Specification 5)",
            fields: OBSERVABILITY,
        },
        Section {
            key: "mux",
            title: "scale (single leader, sustained over the budget)",
            fields: MUX,
        },
    ],
    total_served: true,
};

/// A sweep's per-row time budget: `full_secs` on a full run, 20 s on a
/// smoke run.
fn budget(fast: bool, full_secs: u64) -> Duration {
    Duration::from_secs(if fast { 20 } else { full_secs })
}

/// `count` per second of `wall`.
fn per_sec(count: u64, wall: Duration) -> f64 {
    count as f64 / (wall.as_nanos() as f64 / 1e9)
}

/// Summarizes a latency sample into `(mean, p50, p99)` nanoseconds.
fn latency_stats(latencies: &[Duration]) -> (u64, u64, u64) {
    if latencies.is_empty() {
        return (0, 0, 0);
    }
    let s = Summary::of(latencies.iter().map(|d| d.as_nanos() as f64));
    (s.mean as u64, s.p50 as u64, s.p99 as u64)
}

/// Completes a service row that already holds its configuration and its
/// `served` and `grants` counts: adds the transport messages, the wall
/// clock, the rates derived from them and the latency distribution.
fn finish_service(row: Row, msgs: u64, wall: Duration, latencies: &[Duration]) -> Row {
    let (mean, p50, p99) = latency_stats(latencies);
    let requests = per_sec(row.int("served"), wall);
    let grants = per_sec(row.int("grants"), wall);
    row.with("msgs", msgs)
        .with("wall_ns", wall)
        .with("requests_per_sec", requests)
        .with("grants_per_sec", grants)
        .with("msgs_per_sec", per_sec(msgs, wall))
        .with("mean_latency_ns", mean)
        .with("p50_latency_ns", p50)
        .with("p99_latency_ns", p99)
}

/// The configuration cells every service row starts from.
fn service_config(n: usize, transport: RtTransport, workers: usize, loss: f64) -> Row {
    Row::default()
        .with("n", n)
        .with("transport", transport.as_str())
        .with("workers", workers)
        .with("loss", loss)
        .with("shards", 1usize)
        .with("batch", 1usize)
}

/// Measures one single-leader, unbatched configuration on a
/// `workers`-thread pool: `requests_per_process` client requests per
/// process on the given transport backend, stopping early at `budget`.
pub fn measure(
    n: usize,
    transport: RtTransport,
    workers: usize,
    loss: f64,
    requests_per_process: u64,
    budget: Duration,
    seed: u64,
) -> Row {
    let cfg = MutexServiceConfig {
        n,
        requests_per_process,
        cs_duration: 0,
        live: LiveConfig {
            loss,
            seed,
            record_trace: false,
            ..LiveConfig::default()
        },
        time_budget: budget,
    };
    let (report, _) = transport.run(&cfg, workers, None);
    let row = service_config(n, transport, workers, loss)
        .with("injected", report.injected)
        .with("served", report.served)
        .with("grants", report.served) // one grant per request
        .with("cs_entries", report.cs_entries);
    finish_service(
        row,
        report.stats.links.enqueued,
        report.wall,
        &report.latencies,
    )
}

/// Measures one sharded, batching configuration (in-memory transport).
/// A non-zero `queue_depth` replaces `requests_per_process` with
/// per-shard client queues starting `≈ queue_depth` deep.
#[allow(clippy::too_many_arguments)]
pub fn measure_sharded(
    n: usize,
    loss: f64,
    shards: usize,
    batch: usize,
    requests_per_process: u64,
    queue_depth: u64,
    budget: Duration,
    seed: u64,
) -> Row {
    let cfg = ShardedServiceConfig {
        n,
        shards,
        batch,
        requests_per_process,
        key_space: 1 << 16,
        cs_duration: 0,
        live: LiveConfig {
            loss,
            seed,
            record_trace: false,
            ..LiveConfig::default()
        },
        time_budget: budget,
    };
    let cfg = if queue_depth > 0 {
        cfg.with_queue_depth(queue_depth)
    } else {
        cfg
    };
    let (report, _) = RtTransport::InMem.run(&cfg, DEFAULT_WORKERS, None);
    let cs_entries: u64 = report
        .processes
        .iter()
        .map(|m| {
            (0..m.shard_count())
                .map(|s| m.shard(s).counters().cs_entries)
                .sum::<u64>()
        })
        .sum();
    let row = service_config(n, RtTransport::InMem, DEFAULT_WORKERS, loss)
        .with("shards", shards)
        .with("batch", batch)
        .with("injected", report.injected.len())
        .with("served", report.served)
        .with("grants", report.grant_log.len())
        .with("cs_entries", cs_entries);
    finish_service(
        row,
        report.stats.links.enqueued,
        report.wall,
        &report.latencies,
    )
}

/// Runs the baseline sweep: `n ∈ {8, 16, 32, 64}` × `loss ∈ {0, 0.1,
/// 0.3}` (`--fast`: a smoke-sized subset so CI can exercise the binary).
pub fn sweep(fast: bool) -> Vec<Row> {
    let (sizes, losses): (&[usize], &[f64]) = if fast {
        (&[4, 8], &[0.0, 0.1])
    } else {
        (&[8, 16, 32, 64], &[0.0, 0.1, 0.3])
    };
    let mut results = Vec::new();
    for &n in sizes {
        for &loss in losses {
            // Size the request queues so the full sweep comfortably
            // clears 10⁵ end-to-end requests in total: throughput is
            // bounded by the leader's Value rotation (one CS grant per
            // favoured-process cycle), so the per-process queue shrinks
            // as n and loss grow.
            let per_process: u64 = if fast {
                5
            } else {
                let base: u64 = match n {
                    8 => 6_000,
                    16 => 1_000,
                    32 => 150,
                    _ => 40,
                };
                let factor = if loss == 0.0 {
                    1.0
                } else if loss < 0.2 {
                    0.35
                } else {
                    0.2
                };
                ((base as f64 * factor) as u64).max(10)
            };
            let budget = budget(fast, 150);
            results.push(measure(
                n,
                RtTransport::InMem,
                DEFAULT_WORKERS,
                loss,
                per_process,
                budget,
                0xC0FFEE ^ n as u64,
            ));
        }
    }
    results
}

/// Runs the transport sweep: the single-leader service at
/// `n ∈ {8, 16, 32}`, loss 0, over the in-memory transport and over UDP
/// loopback, side by side (`--fast`: one `n = 4` pair). Returns an empty
/// sweep — with a warning — when the environment forbids UDP sockets, so
/// the binary still completes in restricted sandboxes.
pub fn sweep_udp(fast: bool) -> Vec<Row> {
    if !snapstab_net::udp_available() {
        eprintln!("warning: UDP loopback unavailable in this sandbox; skipping the udp sweep");
        return Vec::new();
    }
    let grid: &[(usize, u64)] = if fast {
        &[(4, 5)]
    } else {
        // Sized for ~15–60s per row at the PR 2 baseline rates.
        &[(8, 2_000), (16, 300), (32, 60)]
    };
    let budget = budget(fast, 120);
    let mut results = Vec::new();
    for &(n, per_process) in grid {
        for transport in [RtTransport::InMem, RtTransport::Udp] {
            results.push(measure(
                n,
                transport,
                DEFAULT_WORKERS,
                0.0,
                per_process,
                budget,
                0x0DD5 ^ n as u64,
            ));
        }
    }
    results
}

/// Measures one forwarding configuration: `payloads_per_process` client
/// payloads per process over the given transport backend, every run
/// starting from adversarially stale-pre-filled buffers. In the row,
/// `served` (and `grants`) is the end-to-end delivered-payload count and
/// `cs_entries` is 0 — forwarding has no critical sections.
pub fn measure_forwarding(
    n: usize,
    transport: RtTransport,
    loss: f64,
    payloads_per_process: u64,
    budget: Duration,
    seed: u64,
) -> Row {
    let cfg = ForwardingServiceConfig {
        n,
        payloads_per_process,
        buffer_cap: 4,
        prefill_stale: true,
        live: LiveConfig {
            loss,
            seed,
            record_trace: false,
            ..LiveConfig::default()
        },
        time_budget: budget,
    };
    let (report, _) = transport.run(&cfg, DEFAULT_WORKERS, None);
    let row = service_config(n, transport, DEFAULT_WORKERS, loss)
        .with("injected", report.injected)
        .with("served", report.delivered)
        .with("grants", report.delivered)
        .with("cs_entries", 0u64);
    finish_service(
        row,
        report.stats.links.enqueued,
        report.wall,
        &report.latencies,
    )
}

/// Runs the forwarding sweep: `n ∈ {8, 16, 32}` × `loss ∈ {0, 0.1,
/// 0.3}` in-memory, plus an in-memory-vs-UDP pair at `n = 8` when the
/// sandbox allows sockets (`--fast`: one tiny in-memory pair). Every
/// run starts from stale-pre-filled buffers; the conformance tests
/// assert the same configurations pass Specification 4.
pub fn sweep_forwarding(fast: bool) -> Vec<Row> {
    let grid: &[(usize, f64)] = if fast {
        &[(4, 0.0), (4, 0.1)]
    } else {
        &[
            (8, 0.0),
            (8, 0.1),
            (8, 0.3),
            (16, 0.0),
            (16, 0.1),
            (16, 0.3),
            (32, 0.0),
            (32, 0.1),
            (32, 0.3),
        ]
    };
    let budget = budget(fast, 120);
    let mut results = Vec::new();
    for &(n, loss) in grid {
        let per_process: u64 = if fast {
            4
        } else {
            // Hop-local transfers parallelize along the line, so the
            // delivered rate falls much more slowly with n than the
            // single-leader mutex service; sized for ~15–60s per row.
            let base: u64 = match n {
                8 => 3_000,
                16 => 1_500,
                _ => 700,
            };
            let factor = if loss == 0.0 {
                1.0
            } else if loss < 0.2 {
                0.5
            } else {
                0.25
            };
            ((base as f64 * factor) as u64).max(10)
        };
        results.push(measure_forwarding(
            n,
            RtTransport::InMem,
            loss,
            per_process,
            budget,
            0xF0D ^ n as u64,
        ));
    }
    if !fast {
        if snapstab_net::udp_available() {
            for transport in [RtTransport::InMem, RtTransport::Udp] {
                results.push(measure_forwarding(
                    8, transport, 0.0, 400, budget, 0xF0D_0DD5,
                ));
            }
        } else {
            eprintln!(
                "warning: UDP loopback unavailable in this sandbox; \
                 skipping the forwarding udp pair"
            );
        }
    }
    results
}

/// The expected single-leader req/s at `n` (the PR 2 baseline), used only
/// to size the sharded sweep's request queues.
fn baseline_reqs_per_sec(n: usize) -> f64 {
    match n {
        0..=8 => 950.0,
        9..=16 => 296.0,
        17..=32 => 106.0,
        _ => 34.0,
    }
}

/// Runs the sharded `shards × batch` sweep (loss 0). The full grid
/// focuses on `n = 32` — the point where the baseline collapses to ~106
/// req/s — plus `n ∈ {8, 64}` spot checks of the best configuration, and
/// a shallow-vs-deep client-queue pair at `n = 64` (the last grid entry
/// re-runs `(64, 4, 4)` with `queue_depth = 32`, attacking the
/// batch-efficiency collapse the ROADMAP recorded for shallow queues).
pub fn sweep_sharded(fast: bool) -> Vec<Row> {
    // `(n, shards, batch, queue_depth)`; depth 0 = default request sizing.
    let grid: &[(usize, usize, usize, u64)] = if fast {
        &[(4, 2, 2, 0)]
    } else {
        &[
            (32, 1, 1, 0), // in-sweep re-measure of the baseline point
            (32, 1, 8, 0), // batching alone
            (32, 4, 1, 0), // sharding alone
            (32, 2, 4, 0),
            (32, 4, 4, 0),
            (32, 4, 8, 0),
            (32, 8, 8, 0),
            (8, 4, 4, 0),
            (64, 4, 4, 0),  // shallow queues: ~4 requests per shard queue
            (64, 4, 4, 32), // deep queues: the before/after pair
        ]
    };
    let mut results = Vec::new();
    for &(n, shards, batch, queue_depth) in grid {
        let per_process: u64 = if fast {
            4
        } else {
            // Pessimistic sizing: assume sharding halves the per-grant
            // rate and batching multiplies it; target ~15s per row.
            let expected = baseline_reqs_per_sec(n) * batch as f64 * 0.5;
            (((expected * 15.0) / n as f64).ceil() as u64).max(10)
        };
        let budget = budget(fast, 90);
        let seed = 0xBA7C4 ^ (n as u64) ^ ((shards as u64) << 8) ^ ((batch as u64) << 16);
        results.push(measure_sharded(
            n,
            0.0,
            shards,
            batch,
            per_process,
            queue_depth,
            budget,
            seed,
        ));
    }
    results
}

/// Runs the scale sweep: the single-leader service at `n ∈ {256, 1024}`
/// on a 4-worker pool (`--fast`: one tiny `n = 4` row on the default
/// pool).
pub fn sweep_mux(fast: bool) -> Vec<Row> {
    // `(n, workers, requests_per_process, seed)`. The leader's Value
    // rotation is O(n) messages per grant, so the per-process queue
    // shrinks as n grows. Both full rows deliberately overfill the
    // budget and saturate the service for the full 150s, so their
    // `served`/`wall` ratio is a *sustained* throughput measurement
    // (`served` < `injected` is expected there, not an error).
    let grid: &[(usize, usize, u64, u64)] = if fast {
        &[(4, DEFAULT_WORKERS, 5, 0x30C)]
    } else {
        &[(256, 4, 6, 0x30C ^ 256), (1024, 4, 2, 0x30C ^ 1024)]
    };
    grid.iter()
        .map(|&(n, workers, per_process, seed)| {
            let budget = budget(fast, 150);
            measure(
                n,
                RtTransport::InMem,
                workers,
                0.0,
                per_process,
                budget,
                seed,
            )
        })
        .collect()
}

/// Measures one chaos configuration: `requests_per_process` client
/// requests per process while a seeded plan of `bursts` fault bursts
/// (profile of `mix`, reshaped to `quiet`/`disruption`) fires against
/// the live run, the supervisor healing crashed and wedged workers with
/// corrupted state. The merged trace is segmented at the authoritative
/// fault steps and judged per epoch; a failed verdict panics — a chaos
/// row that violates the paper's specification must never be committed.
#[allow(clippy::too_many_arguments)]
pub fn measure_chaos(
    n: usize,
    transport: RtTransport,
    mix: ChaosMix,
    loss: f64,
    requests_per_process: u64,
    quiet: Duration,
    disruption: Duration,
    budget: Duration,
    seed: u64,
) -> Row {
    let cfg = MutexServiceConfig {
        n,
        requests_per_process,
        cs_duration: 0,
        live: LiveConfig {
            loss,
            seed,
            record_trace: true,
            ..LiveConfig::default()
        },
        time_budget: budget,
    };
    let plan = ChaosPlan {
        quiet,
        disruption,
        ..ChaosPlan::profile(mix, seed)
    };
    let (report, chaos) = transport.run(&cfg, DEFAULT_WORKERS, Some(&plan));
    let chaos = chaos.expect("chaos plan was given");
    let trace = report.trace.as_ref().expect("chaos rows record the trace");
    let epochs = analyze_me_epochs(trace, n, &chaos.fault_steps);
    assert!(
        epochs.holds(),
        "per-epoch Specification 3 FAILED under `{}` chaos (n = {n}, {}, seed {seed})",
        mix.as_str(),
        transport.as_str(),
    );
    let recovery = |q: f64| {
        chaos
            .recovery_quantile(q)
            .expect("every burst must be followed by a completion")
    };
    Row::default()
        .with("n", n)
        .with("transport", transport.as_str())
        .with("mix", mix.as_str())
        .with("loss", loss)
        .with("bursts", u64::from(chaos.bursts_fired))
        .with("faults", chaos.fault_steps.len())
        .with("interventions", chaos.interventions.len())
        .with("epochs", epochs.epochs_checked())
        .with("served", report.served)
        .with("requests_per_sec", per_sec(report.served, report.wall))
        .with("recovery_p50_ns", recovery(0.5))
        .with("recovery_p99_ns", recovery(0.99))
        .with("wall_ns", report.wall)
}

/// Runs the chaos sweep: every fault mix at `n = 8`, loss 0, over the
/// in-memory transport, plus the same five mixes over UDP loopback when
/// the sandbox allows sockets (`--fast`: one tiny in-memory `all`-mix
/// row). Workloads are sized so client requests outlast the fault
/// schedule — every burst lands mid-run and every row records a finite
/// recovery-time distribution.
pub fn sweep_chaos(fast: bool) -> Vec<Row> {
    const MIXES: [ChaosMix; 5] = [
        ChaosMix::Corrupt,
        ChaosMix::Crash,
        ChaosMix::Partition,
        ChaosMix::Storm,
        ChaosMix::All,
    ];
    if fast {
        // 3 bursts × 30 ms quiet: 40 requests per process finished before
        // the first burst on a fast host, leaving no recovery sample; the
        // pool serves n = 3 at several thousand req/s.
        return vec![measure_chaos(
            3,
            RtTransport::InMem,
            ChaosMix::All,
            0.0,
            1_500,
            Duration::from_millis(30),
            Duration::from_millis(20),
            Duration::from_secs(60),
            0xC405,
        )];
    }
    // `(transport, requests_per_process, quiet_ms, disruption_ms, seed)`.
    // ~2 000 req/s at n = 8 under the `all` mix in memory; 3 bursts ×
    // 200ms quiet ≈ 0.8s of schedule, so 400 × 8 = 3200 requests (~1.6s)
    // outlast it.
    let mut grid = vec![(RtTransport::InMem, 400, 200, 100, 0xC405)];
    if snapstab_net::udp_available() {
        grid.push((RtTransport::Udp, 150, 250, 120, 0xC405_0DD5));
    } else {
        eprintln!(
            "warning: UDP loopback unavailable in this sandbox; \
             skipping the chaos udp rows"
        );
    }
    let mut rows = Vec::new();
    for (transport, per_process, quiet, disruption, seed) in grid {
        for (i, mix) in MIXES.into_iter().enumerate() {
            rows.push(measure_chaos(
                8,
                transport,
                mix,
                0.0,
                per_process,
                Duration::from_millis(quiet),
                Duration::from_millis(disruption),
                Duration::from_secs(150),
                seed ^ ((i as u64) << 4),
            ));
        }
    }
    rows
}

/// Interleaved samples per observability pair: the committed halves are
/// the median-by-wall-clock runs. A single off/on shot on a one-core
/// box sees scheduler noise of ±20% — larger than the effect the row
/// measures — and can even come out negative; three alternating
/// samples with a median pick make the committed overhead a property of
/// the monitor, not of which half drew the unlucky time slice.
const OBS_SAMPLES: usize = 3;

/// Measures one observability pair: `requests_per_process` client
/// requests per process, once unmonitored and once with the snapshot
/// monitor cutting every `interval`, on the same transport backend and
/// seed — sampled `OBS_SAMPLES` times in alternation, committing the
/// median-by-wall run of each half. The pairs run with trace recording
/// *off*, like every other committed throughput row — at full size the
/// recorder (one event per message, ~700 k msgs/s at n = 8) dominates
/// the wall clock and its allocation pressure swamps the monitor's
/// cost, which is the number this row exists to isolate. The
/// Specification 5 gate runs separately: a shorter monitored run at
/// the *same* configuration with the trace on at `TraceDetail::Spec`
/// (a full-detail trace of the n ≥ 64 rows outgrows memory), every
/// decided cut judged; a failed verdict — or a cut count disagreeing with what the
/// harness collected — panics, so a configuration producing
/// inconsistent cuts can never land in the committed artifact.
///
/// The overhead is the monitored half's loss of req/s as a percentage
/// of the baseline's (negative when scheduling noise makes the monitored
/// half faster); the cut rate is per second of monitored wall time.
#[allow(clippy::too_many_arguments)]
pub fn measure_observability(
    n: usize,
    transport: RtTransport,
    workers: usize,
    initiators: usize,
    interval: Duration,
    requests_per_process: u64,
    budget: Duration,
    seed: u64,
) -> Row {
    let cfg = |record_trace: bool, rpp: u64| MutexServiceConfig {
        n,
        requests_per_process: rpp,
        cs_duration: 0,
        live: LiveConfig {
            loss: 0.0,
            seed,
            record_trace,
            detail: TraceDetail::Spec,
            ..LiveConfig::default()
        },
        time_budget: budget,
    };
    let mon_cfg = MonitorConfig {
        interval,
        initiators,
        ..MonitorConfig::default()
    };
    let run_base = |cfg: &MutexServiceConfig| transport.run(cfg, workers, None).0;
    let run_mon = |cfg: &MutexServiceConfig| {
        transport
            .run(Monitoring::new(cfg, &mon_cfg), workers, None)
            .0
    };
    let pair_cfg = cfg(false, requests_per_process);
    let mut bases = Vec::with_capacity(OBS_SAMPLES);
    let mut mons = Vec::with_capacity(OBS_SAMPLES);
    for _ in 0..OBS_SAMPLES {
        bases.push(run_base(&pair_cfg));
        mons.push(run_mon(&pair_cfg));
    }
    bases.sort_by_key(|r| r.wall);
    mons.sort_by_key(|r| r.wall);
    let base = &bases[OBS_SAMPLES / 2];
    let mon = &mons[OBS_SAMPLES / 2];
    // The audit run shrinks with n: recording one event per message at
    // mux scale would blow the budget, and the gate needs enough waves
    // to judge, not the full committed workload.
    let audit_rpp = (requests_per_process / 4)
        .clamp(10, 400)
        .min((800 / n as u64).max(3));
    let audit = run_mon(&cfg(true, audit_rpp));
    let trace = audit
        .trace
        .as_ref()
        .expect("the audit run records the trace");
    let spec = analyze_snapshot_trace(trace, n, &[]);
    assert!(
        spec.holds(),
        "Specification 5 FAILED for the monitored audit run (n = {n}, {}, {workers} workers, seed {seed}): {spec:?}",
        transport.as_str(),
    );
    assert_eq!(
        spec.cuts_decided(),
        audit.monitor.cuts.len(),
        "harness cut count disagrees with the trace's decided cuts"
    );
    assert!(
        !audit.monitor.cuts.is_empty(),
        "the audit run must decide at least one cut to judge"
    );
    // With concurrent initiators, the trace verdict must also agree on
    // who requested what: a cut credited to the wrong ledger would
    // surface as a fabrication at that process.
    for stats in audit.monitor.per_initiator() {
        assert_eq!(
            spec.cuts_of(stats.initiator),
            stats.cuts as usize,
            "ledger {:?}: harness attribution disagrees with the trace",
            stats.initiator,
        );
        assert_eq!(spec.refused_of(stats.initiator), stats.refused as usize);
    }
    let base_rate = per_sec(base.served, base.wall);
    let mon_rate = per_sec(mon.served, mon.wall);
    let overhead = if base_rate == 0.0 {
        0.0
    } else {
        (base_rate - mon_rate) / base_rate * 100.0
    };
    let cuts = mon.monitor.cuts.len();
    Row::default()
        .with("n", n)
        .with("transport", transport.as_str())
        .with("workers", workers)
        .with("initiators", initiators)
        .with("interval_ms", interval.as_millis() as u64)
        .with("injected", base.injected)
        .with("base_served", base.served)
        .with("mon_served", mon.served)
        .with("base_wall_ns", base.wall)
        .with("mon_wall_ns", mon.wall)
        .with("base_requests_per_sec", base_rate)
        .with("mon_requests_per_sec", mon_rate)
        .with("overhead_pct", overhead)
        .with("base_p99_latency_ns", latency_stats(&base.latencies).2)
        .with("mon_p99_latency_ns", latency_stats(&mon.latencies).2)
        .with("cuts", cuts)
        .with("cuts_per_sec", per_sec(cuts as u64, mon.wall))
        .with("refused", mon.monitor.refused)
        .with(
            "mean_staleness_ns",
            mon.monitor.mean_staleness().unwrap_or_default(),
        )
        .with(
            "per_initiator_cuts",
            mon.monitor
                .per_initiator()
                .iter()
                .map(|s| s.cuts)
                .collect::<Vec<u64>>(),
        )
}

/// Runs the observability sweep: monitor-off-vs-on pairs at
/// `n ∈ {8, 16}` on the default pool — the `n = 8`, 100 ms-interval row
/// is the committed acceptance point (≥ 1 cut/s sustained, < 10% req/s
/// overhead), with a 4×-denser 25 ms row at the same workload and an
/// `n = 16` spot check — plus pairs at `n ∈ {64, 256}` on a 4-worker
/// pool and a `K = 2` concurrent-initiator row at `n = 64` whose decided
/// cuts are attributed per requesting ledger (`--fast`: one tiny pair
/// and one tiny `K = 2` pair). Full-size rows below `n = 64` assert the
/// ≥ 1 cut/s floor; larger rows assert at least one decided cut — at
/// `n = 256` the budget truncates the workload, so the pair measures
/// sustained rates, not completion.
pub fn sweep_observability(fast: bool) -> Vec<Row> {
    // `(n, workers, initiators, interval_ms, requests_per_process)`.
    let grid: &[(usize, usize, usize, u64, u64)] = if fast {
        &[
            (4, DEFAULT_WORKERS, 1, 20, 5),
            (4, DEFAULT_WORKERS, 2, 20, 3),
        ]
    } else {
        &[
            (8, DEFAULT_WORKERS, 1, 100, 1_200),
            (8, DEFAULT_WORKERS, 1, 25, 1_200),
            (16, DEFAULT_WORKERS, 1, 100, 300),
            (64, 4, 1, 100, 12),
            (64, 4, 2, 100, 12),
            (256, 4, 1, 200, 1),
        ]
    };
    let budget = budget(fast, 60);
    let mut rows = Vec::new();
    for &(n, workers, initiators, interval_ms, per_process) in grid {
        let row = measure_observability(
            n,
            RtTransport::InMem,
            workers,
            initiators,
            Duration::from_millis(interval_ms),
            per_process,
            budget,
            0x0B5E ^ n as u64 ^ ((initiators as u64) << 32),
        );
        if !fast {
            let cuts_per_sec = row.real("cuts_per_sec");
            if n < 64 {
                assert!(
                    cuts_per_sec >= 1.0,
                    "monitored run at n = {n} decided only {cuts_per_sec:.2} cuts/s (< 1)",
                );
            } else {
                assert!(
                    row.int("cuts") >= 1,
                    "monitored run at n = {n} decided no cuts"
                );
            }
        }
        rows.push(row);
    }
    rows
}

/// Measures every section of [`SCHEMA`], in its order.
pub fn sweeps(fast: bool) -> Vec<Vec<Row>> {
    vec![
        sweep(fast),
        sweep_sharded(fast),
        sweep_udp(fast),
        sweep_forwarding(fast),
        sweep_chaos(fast),
        sweep_observability(fast),
        sweep_mux(fast),
    ]
}

/// Renders measured sections as the repo's standard ASCII tables.
pub fn render(sections: &[Vec<Row>]) -> String {
    format!(
        "=== Q6: live-runtime services (one instance per process, {DEFAULT_WORKERS}-worker pool unless a row says otherwise) ===\n{}",
        row::render(&SCHEMA, sections)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::stepbench;
    use crate::jsonv::{self, Value};
    use crate::row::{from_json, to_json, validate_roundtrip, Cell};

    /// Two requests per process at `n = 3`, loss 0.
    fn tiny(transport: RtTransport, workers: usize) -> Row {
        measure(3, transport, workers, 0.0, 2, Duration::from_secs(30), 1)
    }

    #[test]
    fn measure_serves_requests() {
        let r = tiny(RtTransport::InMem, DEFAULT_WORKERS);
        assert_eq!(r.int("n"), 3);
        assert_eq!(r.int("served"), 6);
        assert_eq!((r.int("shards"), r.int("batch")), (1, 1));
        assert_eq!(r.get("transport"), Some(&Cell::Tag("inmem")));
        assert!(r.real("requests_per_sec") > 0.0);
        assert!(r.real("msgs_per_sec") > 0.0);
        assert!(r.int("p50_latency_ns") <= r.int("p99_latency_ns"));
    }

    #[test]
    fn measure_udp_serves_requests() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let r = tiny(RtTransport::Udp, DEFAULT_WORKERS);
        assert_eq!(r.int("served"), 6);
        assert_eq!(r.get("transport"), Some(&Cell::Tag("udp")));
        assert!(r.real("requests_per_sec") > 0.0);
    }

    #[test]
    fn measure_sharded_serves_and_batches() {
        let r = measure_sharded(3, 0.0, 2, 2, 4, 0, Duration::from_secs(40), 2);
        assert_eq!(r.int("served"), 12, "all requests served");
        let grants = r.int("grants");
        assert!((6..=12).contains(&grants), "at most 2 requests per grant");
        assert!(r.real("requests_per_sec") >= r.real("grants_per_sec"));
        assert!(r.int("p50_latency_ns") <= r.int("p99_latency_ns"));
    }

    #[test]
    fn measure_sharded_queue_depth_sizes_the_workload() {
        // queue_depth 3 × 2 shards × 3 processes = 18 requests, not 4×3.
        let r = measure_sharded(3, 0.0, 2, 2, 4, 3, Duration::from_secs(40), 2);
        assert_eq!(r.int("injected"), 18);
        assert_eq!(r.int("served"), 18);
    }

    #[test]
    fn measure_forwarding_delivers_payloads() {
        let r = measure_forwarding(3, RtTransport::InMem, 0.0, 2, Duration::from_secs(30), 1);
        assert_eq!(r.int("n"), 3);
        assert_eq!(r.int("served"), 6, "all payloads delivered");
        assert_eq!(
            r.int("cs_entries"),
            0,
            "forwarding has no critical sections"
        );
        assert_eq!((r.int("shards"), r.int("batch")), (1, 1));
        assert!(r.real("requests_per_sec") > 0.0);
        assert!(r.real("msgs_per_sec") > 0.0);
        assert!(r.int("p50_latency_ns") <= r.int("p99_latency_ns"));
    }

    #[test]
    fn measure_forwarding_udp_delivers_payloads() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let r = measure_forwarding(3, RtTransport::Udp, 0.0, 2, Duration::from_secs(30), 1);
        assert_eq!(r.int("served"), 6);
        assert_eq!(r.get("transport"), Some(&Cell::Tag("udp")));
    }

    /// A row of `section` with a distinct, well-typed value in every
    /// field: the `i`-th field holds `10 + i` (reals `10 + i + 0.5`,
    /// lists `[10 + i, 1]`, tags the first valid one).
    fn sample(section: &Section) -> Row {
        section
            .fields
            .iter()
            .enumerate()
            .fold(Row::default(), |row, (i, f)| {
                let v = 10 + i as u64;
                let cell = match f.kind {
                    Kind::Tag(valid) => Cell::Tag(valid[0]),
                    Kind::Int | Kind::Nanos => Cell::Int(v),
                    Kind::Real(_) => Cell::Real(v as f64 + 0.5),
                    Kind::Ints => Cell::Ints(vec![v, 1]),
                };
                row.with(f.key, cell)
            })
    }

    /// One sample row in every section (`only`: in that section alone).
    fn samples(only: Option<usize>) -> Vec<Vec<Row>> {
        SCHEMA
            .sections
            .iter()
            .enumerate()
            .map(|(i, s)| match only {
                Some(o) if o != i => vec![],
                _ => vec![sample(s)],
            })
            .collect()
    }

    #[test]
    fn json_shape_and_roundtrip() {
        let rows = samples(None);
        let j = to_json(&SCHEMA, &rows);
        assert!(j.starts_with("{\n  \"experiment\": \"live_runtime_mutex_service\",\n"));
        for s in SCHEMA.sections {
            assert!(j.contains(&format!("\n  \"{}\": [\n    {{\"n\": 10, ", s.key)));
        }
        assert!(j.contains("\"transport\": \"inmem\""));
        assert!(j.contains("\"mix\": \"corrupt\""));
        assert!(j.contains("\"loss\": 12.5, "));
        assert!(j.contains("\"requests_per_sec\": 21.5, "));
        assert!(j.contains("\"overhead_pct\": 22.50, "));
        assert!(j.contains("\"per_initiator_cuts\": [29, 1]}"));
        // 4 service rows × 16 + chaos 18 + observability 16 + 17 + mux 14.
        assert!(j.ends_with("  ],\n  \"total_served\": 129\n}\n"));
        assert_eq!(from_json(&SCHEMA, &j), Ok(rows));
        validate_roundtrip(&SCHEMA, &j).expect("round-trips");
    }

    /// Sections whose drift has a test of its own; the service sections
    /// share `from_json_rejects_field_drift`.
    const OWN_DRIFT_TESTS: [&str; 3] = ["chaos", "observability", "mux"];

    /// Every field of section `key` (which must hold each of `fields`):
    /// drift in the document is rejected with an error that names what
    /// drifted, a changed value reaches the parsed rows (so it cannot
    /// round-trip back to the measured document), and a value spelled
    /// other than the writer spells it fails the byte round trip.
    fn assert_rejects_drift(key: &str, fields: &[&str]) {
        let i = SCHEMA
            .sections
            .iter()
            .position(|s| s.key == key)
            .unwrap_or_else(|| panic!("no `{key}` section"));
        let section = &SCHEMA.sections[i];
        for field in fields {
            assert!(
                section.fields.iter().any(|f| f.key == *field),
                "{key} has no `{field}`"
            );
        }
        let rows = samples(Some(i));
        let row = &rows[i][0];
        let good = to_json(&SCHEMA, &rows);
        let err = |doc: &str| from_json(&SCHEMA, doc).expect_err(doc);
        let (head, tail) = good
            .split_once(&format!("  \"{key}\": [\n"))
            .expect("section present");
        let gone = format!("{head}{}", tail.split_once("  ],\n").expect("closes").1);
        assert!(err(&gone).contains(&format!("missing `{key}` array")));
        let total = jsonv::parse(&good)
            .unwrap()
            .get("total_served")
            .and_then(Value::as_num);
        let total = format!("\"total_served\": {}", total.expect("a total") as u64);
        assert!(err(&good.replace(&total, &format!("{total}1"))).contains("total_served"));
        for f in section.fields {
            let field = f.key;
            let text = f.show(row, false);
            let at = |value: &str| {
                let was = format!("\"{field}\": {text}");
                assert_eq!(good.matches(&was).count(), 1, "{was}");
                good.replace(&was, &format!("\"{field}\": {value}"))
            };
            let e = err(&good.replace(&format!("\"{field}\": "), "\"renamed\": "));
            assert!(
                e.contains(&format!("{key}[0]: missing field `{field}`")),
                "{e}"
            );
            let (changed, spelling) = match f.kind {
                Kind::Tag(valid) => {
                    let e = err(&at("\"meteor\""));
                    assert!(e.contains("`meteor`") && e.contains(valid[1]), "{e}");
                    let e = err(&at("3"));
                    assert!(e.contains(&format!("`{field}` is not a string")), "{e}");
                    (format!("\"{}\"", valid[1]), None)
                }
                Kind::Int | Kind::Nanos => ("9".to_string(), Some(format!("{text}.0"))),
                Kind::Real(_) => ("1.5".to_string(), Some(format!("{text}0"))),
                Kind::Ints => {
                    let e = err(&at(&text.replacen('[', "[\"", 1).replacen(',', "\",", 1)));
                    assert!(e.contains(&format!("`{field}` is not a number")), "{e}");
                    ("[7, 1]".to_string(), Some(text.replacen(", ", ".0, ", 1)))
                }
            };
            if let Some(spelling) = spelling {
                let e = err(&at(&format!("\"{text}\"")));
                assert!(e.contains(&format!("`{field}` is not a")), "{e}");
                let e = validate_roundtrip(&SCHEMA, &at(&spelling)).expect_err(field);
                assert!(e.contains(&spelling), "{e}");
            }
            match from_json(&SCHEMA, &at(&changed)) {
                Err(e) if row::SERVED_KEYS.contains(&field) => {
                    assert!(e.contains("total_served"), "{e}");
                }
                parsed => assert_ne!(
                    parsed.unwrap_or_else(|e| panic!("{key}.{field}: {e}")),
                    rows,
                    "{key}.{field}: the change must reach the rows"
                ),
            }
        }
    }

    #[test]
    fn from_json_rejects_field_drift() {
        let shared = SCHEMA
            .sections
            .iter()
            .filter(|s| !OWN_DRIFT_TESTS.contains(&s.key));
        for section in shared {
            assert_rejects_drift(section.key, &["transport", "served", "p99_latency_ns"]);
        }
    }

    #[test]
    fn from_json_rejects_chaos_drift() {
        assert_rejects_drift("chaos", &["mix", "recovery_p99_ns", "interventions"]);
    }

    #[test]
    fn from_json_rejects_observability_drift() {
        assert_rejects_drift(
            "observability",
            &[
                "transport",
                "cuts",
                "mean_staleness_ns",
                "per_initiator_cuts",
            ],
        );
    }

    #[test]
    fn from_json_rejects_mux_drift() {
        assert_rejects_drift("mux", &["workers", "served"]);
    }

    #[test]
    fn render_includes_every_table() {
        let out = render(&samples(None));
        for s in SCHEMA.sections {
            assert!(out.contains(&format!("\n{}:\n", s.title)), "{}", s.title);
        }
        for column in [
            "transport",
            "p99 ms",
            "corrupt",
            "rec p99 ms",
            "cuts/s",
            "stale ms",
            "inits",
        ] {
            assert!(out.contains(column), "{column}");
        }
        assert!(out.contains("2-worker pool"));
        assert!(out.contains("total requests served end-to-end: 129"));
    }

    /// The committed trajectories parse under their schemas and re-emit
    /// byte for byte: a schema change that forgets to regenerate them
    /// fails here. `BENCH_RUNTIME.json` holds at least 10⁵ served
    /// requests and baseline, observability and mux rows.
    #[test]
    fn committed_trajectories_reemit_byte_for_byte() {
        let read = |name: &str| {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let steps = read("BENCH_STEPLOOP.json");
        validate_roundtrip(&stepbench::SCHEMA, &steps).expect("BENCH_STEPLOOP.json");
        let doc = read("BENCH_RUNTIME.json");
        validate_roundtrip(&SCHEMA, &doc).expect("BENCH_RUNTIME.json");
        let sections = from_json(&SCHEMA, &doc).expect("parses");
        for key in ["results", "observability", "mux"] {
            let i = SCHEMA.sections.iter().position(|s| s.key == key).unwrap();
            assert!(!sections[i].is_empty(), "{key}");
        }
        let total = jsonv::parse(&doc)
            .unwrap()
            .get("total_served")
            .and_then(Value::as_num);
        assert!(total >= Some(100_000.0), "{total:?} requests served");
    }

    #[test]
    fn measure_observability_pairs_and_judges_cuts() {
        // A tiny live pair: both halves must serve everything, the
        // phase-zero schedule must land at least one cut, and
        // `measure_observability` asserts the Specification 5 verdict
        // before returning.
        let r = measure_observability(
            3,
            RtTransport::InMem,
            1,
            1,
            Duration::from_millis(5),
            3,
            Duration::from_secs(30),
            0x0B5E,
        );
        assert_eq!(r.int("injected"), 9);
        assert_eq!(r.int("base_served"), 9);
        assert_eq!(r.int("mon_served"), 9, "monitoring must not drop requests");
        assert!(
            r.int("cuts") >= 1,
            "a 5ms interval must land at least one cut"
        );
        assert!(r.real("cuts_per_sec") > 0.0);
        assert!(r.real("base_requests_per_sec") > 0.0);
        assert!(r.real("mon_requests_per_sec") > 0.0);
        assert_eq!(
            r.get("per_initiator_cuts"),
            Some(&Cell::Ints(vec![r.int("cuts")]))
        );
    }

    #[test]
    fn measure_observability_mux_multi_initiator_attributes_cuts() {
        // The monitor on a two-worker pool, two concurrent initiators:
        // the audit inside `measure_observability` gates on
        // Specification 5 *and* per-ledger attribution before the row
        // can exist.
        let r = measure_observability(
            4,
            RtTransport::InMem,
            2,
            2,
            Duration::from_millis(5),
            3,
            Duration::from_secs(30),
            0x0B5E ^ 4,
        );
        assert_eq!((r.int("workers"), r.int("initiators")), (2, 2));
        assert_eq!(r.int("base_served"), 12);
        assert_eq!(r.int("mon_served"), 12, "monitoring must not drop requests");
        assert!(r.int("cuts") >= 1);
        let Some(Cell::Ints(per_initiator)) = r.get("per_initiator_cuts") else {
            panic!("no per-initiator cuts");
        };
        assert_eq!(per_initiator.len(), 2);
        assert_eq!(per_initiator.iter().sum::<u64>(), r.int("cuts"));
    }

    /// The CLI's `--metrics-out` stream and its final `monitor metrics:`
    /// block share one schema (`SeriesPoint::json_line`,
    /// `Alert::json_line`, `summary_json_line`). Every line must parse
    /// back through the bench's own JSON reader with the stable tags and
    /// numeric fields intact — schema drift fails here, not in a
    /// downstream dashboard.
    #[test]
    fn telemetry_stream_lines_roundtrip_through_jsonv() {
        use snapstab_runtime::{summary_json_line, Alert, AlertKind, Series};
        let cfg = MutexServiceConfig {
            n: 3,
            requests_per_process: 2,
            cs_duration: 0,
            live: LiveConfig {
                seed: 7,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(30),
        };
        let mon = MonitorConfig {
            interval: Duration::from_millis(5),
            ..MonitorConfig::default()
        };
        let (report, _) =
            run_service(Monitoring::new(&cfg, &mon), ServiceRun::default()).expect("inmem spawns");
        assert!(!report.monitor.cuts.is_empty(), "need cuts to serialize");
        let mut series = Series::default();
        for cut in &report.monitor.cuts {
            let v = jsonv::parse(&series.observe(cut).json_line()).expect("cut line parses");
            assert_eq!(v.get("type").and_then(Value::as_str), Some("cut"));
            for field in [
                "initiator",
                "cut",
                "step",
                "at_ms",
                "staleness_ms",
                "served_total",
                "queue_total",
                "in_flight_total",
                "in_transit_total",
                "served_per_sec",
                "queue_delta",
                "in_flight_delta",
                "loss_rate",
            ] {
                assert!(
                    matches!(v.get(field), Some(Value::Num(_))),
                    "cut line field `{field}` missing or not a number"
                );
            }
            assert_eq!(
                v.get("cut").and_then(Value::as_num),
                Some(cut.cut as f64),
                "cut id survives the round trip"
            );
        }
        let summary = summary_json_line(mon.interval, &report.monitor, 123.4);
        let v = jsonv::parse(&summary).expect("summary line parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("summary"));
        assert_eq!(v.get("interval_ms").and_then(Value::as_num), Some(5.0));
        assert_eq!(
            v.get("cuts").and_then(Value::as_num),
            Some(report.monitor.cuts.len() as f64)
        );
        for field in [
            "initiators",
            "cuts_per_sec",
            "refused",
            "mean_staleness_ms",
            "work_per_sec",
            "alerts",
        ] {
            assert!(
                matches!(v.get(field), Some(Value::Num(_))),
                "summary field `{field}` missing or not a number"
            );
        }
        let alert = Alert {
            kind: AlertKind::RefusalStreak,
            initiator: snapstab_sim::ProcessId::new(0),
            cut: 9,
            streak: 3,
            value: 3,
        };
        let v = jsonv::parse(&alert.json_line()).expect("alert line parses");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("alert"));
        assert_eq!(
            v.get("kind").and_then(Value::as_str),
            Some("refusal-streak")
        );
        assert_eq!(v.get("streak").and_then(Value::as_num), Some(3.0));
    }

    /// Both pool shapes — one worker serializing every instance, two
    /// stepping them in parallel — serve the same workload and record
    /// their pool size.
    #[test]
    fn measure_mux_serves_on_both_backends() {
        for workers in [1, 2] {
            let m = tiny(RtTransport::InMem, workers);
            assert_eq!(m.int("served"), 6);
            assert_eq!(m.int("workers"), workers as u64);
            assert!(m.real("requests_per_sec") > 0.0);
            assert!(m.int("p50_latency_ns") <= m.int("p99_latency_ns"));
        }
    }

    #[test]
    fn measure_chaos_recovers_and_reports_finite_quantiles() {
        // A tiny live chaos row: every burst must land mid-run, the
        // per-epoch verdict must hold (measure_chaos asserts it), and
        // the recovery distribution must be finite and non-empty. The
        // workload must outlast the 75 ms schedule: the pool serves
        // n = 3 at several thousand req/s.
        let r = measure_chaos(
            3,
            RtTransport::InMem,
            ChaosMix::All,
            0.0,
            1_000,
            Duration::from_millis(25),
            Duration::from_millis(15),
            Duration::from_secs(60),
            0xC405,
        );
        assert_eq!(
            r.int("served"),
            3_000,
            "all requests served despite the chaos"
        );
        assert_eq!(r.int("bursts"), 3, "every planned burst fired mid-run");
        assert_eq!(r.int("epochs"), r.int("faults") + 1);
        assert!(r.int("recovery_p50_ns") > 0);
        assert!(r.int("recovery_p50_ns") <= r.int("recovery_p99_ns"));
    }
}
