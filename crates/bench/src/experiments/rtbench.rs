//! **Q6 — live-runtime mutex-service throughput, single-leader and
//! sharded.**
//!
//! Drives the `snapstab-runtime` mutex services — Algorithm 3, one
//! instance per process on the runtime's worker pool, over the concurrent
//! lossy transport — with a saturating client request stream, and reports
//! end-to-end requests/sec, grants/sec and transport msgs/sec. Every row
//! runs on a [`DEFAULT_WORKERS`] pool unless it records its own
//! `workers`.
//!
//! Seven sweeps feed `BENCH_RUNTIME.json`:
//!
//! * the **baseline** `n × loss` sweep
//!   ([`MutexServiceConfig`]: one leader, one request
//!   per grant) — the protocol-bound curve PR 2 committed;
//! * the **sharded** `shards × batch` sweep
//!   ([`ShardedServiceConfig`]: `S` leaders over
//!   hash-partitioned resource keys, up to `batch` non-conflicting
//!   requests per grant) — the curve that multiplies it — including a
//!   shallow-vs-deep client-queue pair at `n = 64` (the `queue_depth`
//!   lever);
//! * the **udp** transport sweep: the same single-leader service at
//!   `n ∈ {8, 16, 32}` over the in-memory transport and over real UDP
//!   loopback sockets (`snapstab-net`), side by side, so the cost of
//!   crossing the kernel's datagram stack is a committed number. Every
//!   row carries a `transport` tag;
//! * the **forwarding** `n × loss` sweep
//!   ([`ForwardingServiceConfig`]: the snap-stabilizing message
//!   forwarding protocol, every run starting from adversarially
//!   stale-pre-filled buffers) — end-to-end payload delivery, the first
//!   non-mutex workload in the artifact — plus an in-memory-vs-UDP pair
//!   (rows tagged by `transport` like the udp sweep);
//! * the **chaos** sweep ([`ChaosPlan`]): the
//!   single-leader service under every seeded fault mix
//!   (`corrupt`, `crash`, `partition`, `storm`, `all`) with the
//!   supervised self-healing runtime, over the in-memory transport and
//!   over UDP loopback. Each row commits the *recovery time* — fault
//!   burst to next end-to-end completion — as p50/p99, plus the
//!   supervisor intervention count and the number of trace epochs the
//!   per-epoch Specification 3 checker judged (every row asserts the
//!   verdict holds before it can land in the artifact);
//! * the **observability** sweep
//!   ([`Monitoring`]): the single-leader service
//!   with the snap-stabilizing snapshot monitor riding the same
//!   transport, against an identically-configured unmonitored baseline
//!   (three interleaved samples per pair, median-by-wall halves
//!   committed). Each row commits the monitoring overhead (req/s and
//!   p99 latency, monitor off vs on), the cut rate and the mean cut
//!   staleness, and
//!   is gated by a trace-recorded audit run at the same configuration
//!   whose every decided cut must pass executable Specification 5
//!   (`analyze_snapshot_trace`) before the row can land in the artifact;
//! * the **mux** scale sweep: the single-leader service at
//!   `n ∈ {256, 1024}` on a 4-worker pool, each row carrying its pool
//!   size.
//!
//! Every sweep runs through the one driver, [`run_service`].
//!
//! Every row serializes the latency *distribution* (mean, p50, p99), not
//! just the mean, and the emitted JSON is parsed back through the bench's
//! own schema ([`from_json`]) before it can land in the committed
//! artifact — field drift fails the binary, not the next PR.

use std::time::Duration;

use snapstab_core::spec::{analyze_me_epochs, analyze_snapshot_trace};
use snapstab_net::{UdpLoopback, Wire};
use snapstab_runtime::service::Msg;
use snapstab_runtime::{
    run_service, ChaosMix, ChaosPlan, ChaosReport, ForwardingServiceConfig, InMemory, LiveConfig,
    MonitorConfig, Monitoring, MutexServiceConfig, ServiceApp, ServiceRun, ShardedServiceConfig,
    TraceDetail, Transport, DEFAULT_WORKERS,
};

use crate::jsonv::{self, Value};
use crate::stats::Summary;
use crate::table::Table;

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

    /// Parses a JSON tag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inmem" => Some(RtTransport::InMem),
            "udp" => Some(RtTransport::Udp),
            _ => None,
        }
    }
}

/// One measured configuration (baseline rows have `shards == batch == 1`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RtResult {
    /// System size (protocol instances).
    pub n: usize,
    /// The transport backend the row was measured on.
    pub transport: RtTransport,
    /// In-transit loss probability.
    pub loss: f64,
    /// Independent protocol instances (leaders).
    pub shards: usize,
    /// Maximum client requests per critical-section grant.
    pub batch: usize,
    /// Requests injected into the service.
    pub injected: u64,
    /// Requests served end-to-end.
    pub served: u64,
    /// Critical-section grants performed.
    pub grants: u64,
    /// Critical-section entries summed over all processes and shards.
    pub cs_entries: u64,
    /// Transport messages enqueued.
    pub msgs: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u128,
    /// Mean service latency in nanoseconds (0 if nothing served).
    pub mean_latency_ns: u128,
    /// Median service latency in nanoseconds.
    pub p50_latency_ns: u128,
    /// 99th-percentile service latency in nanoseconds.
    pub p99_latency_ns: u128,
}

impl RtResult {
    /// Served requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        self.served as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Critical-section grants per second.
    pub fn grants_per_sec(&self) -> f64 {
        self.grants as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Transport messages per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.msgs as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Mean requests served per grant (the realized batch factor).
    pub fn mean_batch(&self) -> f64 {
        if self.grants == 0 {
            0.0
        } else {
            self.served as f64 / self.grants as f64
        }
    }
}

/// Summarizes a latency sample into `(mean, p50, p99)` nanoseconds.
fn latency_stats(latencies: &[Duration]) -> (u128, u128, u128) {
    if latencies.is_empty() {
        return (0, 0, 0);
    }
    let s = Summary::of(latencies.iter().map(|d| d.as_nanos() as f64));
    (s.mean as u128, s.p50 as u128, s.p99 as u128)
}

/// Measures one baseline (single-leader, unbatched) configuration:
/// `requests_per_process` client requests per process on the given
/// transport backend, stopping early at `budget`.
pub fn measure(
    n: usize,
    transport: RtTransport,
    loss: f64,
    requests_per_process: u64,
    budget: Duration,
    seed: u64,
) -> RtResult {
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
    let (report, _) = transport.run(&cfg, DEFAULT_WORKERS, None);
    let (mean_latency_ns, p50_latency_ns, p99_latency_ns) = latency_stats(&report.latencies);
    RtResult {
        n,
        transport,
        loss,
        shards: 1,
        batch: 1,
        injected: report.injected,
        served: report.served,
        grants: report.served, // one grant per request in the baseline
        cs_entries: report.cs_entries,
        msgs: report.stats.links.enqueued,
        wall_ns: report.wall.as_nanos(),
        mean_latency_ns,
        p50_latency_ns,
        p99_latency_ns,
    }
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
) -> RtResult {
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
    let cs_entries = report
        .processes
        .iter()
        .map(|m| {
            (0..m.shard_count())
                .map(|s| m.shard(s).counters().cs_entries)
                .sum::<u64>()
        })
        .sum();
    let (mean_latency_ns, p50_latency_ns, p99_latency_ns) = latency_stats(&report.latencies);
    RtResult {
        n,
        transport: RtTransport::InMem,
        loss,
        shards,
        batch,
        injected: report.injected.len() as u64,
        served: report.served,
        grants: report.grant_log.len() as u64,
        cs_entries,
        msgs: report.stats.links.enqueued,
        wall_ns: report.wall.as_nanos(),
        mean_latency_ns,
        p50_latency_ns,
        p99_latency_ns,
    }
}

/// Runs the baseline sweep: `n ∈ {8, 16, 32, 64}` × `loss ∈ {0, 0.1,
/// 0.3}` (`--fast`: a smoke-sized subset so CI can exercise the binary).
pub fn sweep(fast: bool) -> Vec<RtResult> {
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
            let budget = if fast {
                Duration::from_secs(20)
            } else {
                Duration::from_secs(150)
            };
            results.push(measure(
                n,
                RtTransport::InMem,
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
pub fn sweep_udp(fast: bool) -> Vec<RtResult> {
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
    let budget = if fast {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(120)
    };
    let mut results = Vec::new();
    for &(n, per_process) in grid {
        for transport in [RtTransport::InMem, RtTransport::Udp] {
            results.push(measure(
                n,
                transport,
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
/// starting from adversarially stale-pre-filled buffers. In the
/// [`struct@RtResult`] row, `served` (and `grants`) is the end-to-end
/// delivered-payload count and `cs_entries` is 0 — forwarding has no
/// critical sections.
pub fn measure_forwarding(
    n: usize,
    transport: RtTransport,
    loss: f64,
    payloads_per_process: u64,
    budget: Duration,
    seed: u64,
) -> RtResult {
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
    let (mean_latency_ns, p50_latency_ns, p99_latency_ns) = latency_stats(&report.latencies);
    RtResult {
        n,
        transport,
        loss,
        shards: 1,
        batch: 1,
        injected: report.injected,
        served: report.delivered,
        grants: report.delivered,
        cs_entries: 0,
        msgs: report.stats.links.enqueued,
        wall_ns: report.wall.as_nanos(),
        mean_latency_ns,
        p50_latency_ns,
        p99_latency_ns,
    }
}

/// Runs the forwarding sweep: `n ∈ {8, 16, 32}` × `loss ∈ {0, 0.1,
/// 0.3}` in-memory, plus an in-memory-vs-UDP pair at `n = 8` when the
/// sandbox allows sockets (`--fast`: one tiny in-memory pair). Every
/// run starts from stale-pre-filled buffers; the conformance tests
/// assert the same configurations pass Specification 4.
pub fn sweep_forwarding(fast: bool) -> Vec<RtResult> {
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
    let budget = if fast {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(120)
    };
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
pub fn sweep_sharded(fast: bool) -> Vec<RtResult> {
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
        let budget = if fast {
            Duration::from_secs(20)
        } else {
            Duration::from_secs(90)
        };
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

/// One measured scale configuration: the single-leader mutex service on
/// a `workers`-thread pool, in-memory transport.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MuxResult {
    /// System size (protocol instances).
    pub n: usize,
    /// Pool worker threads running the instances.
    pub workers: usize,
    /// In-transit loss probability.
    pub loss: f64,
    /// Requests injected into the service.
    pub injected: u64,
    /// Requests served end-to-end.
    pub served: u64,
    /// Transport messages enqueued.
    pub msgs: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u128,
    /// Mean service latency in nanoseconds (0 if nothing served).
    pub mean_latency_ns: u128,
    /// Median service latency in nanoseconds.
    pub p50_latency_ns: u128,
    /// 99th-percentile service latency in nanoseconds.
    pub p99_latency_ns: u128,
}

impl MuxResult {
    /// Served requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        self.served as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Transport messages per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.msgs as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Measures one scale configuration: `requests_per_process` client
/// requests per process on a `workers`-thread pool (in-memory
/// transport), stopping early at `budget`.
pub fn measure_mux(
    n: usize,
    workers: usize,
    loss: f64,
    requests_per_process: u64,
    budget: Duration,
    seed: u64,
) -> MuxResult {
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
    let (report, _) = RtTransport::InMem.run(&cfg, workers, None);
    let (mean_latency_ns, p50_latency_ns, p99_latency_ns) = latency_stats(&report.latencies);
    MuxResult {
        n,
        workers,
        loss,
        injected: report.injected,
        served: report.served,
        msgs: report.stats.links.enqueued,
        wall_ns: report.wall.as_nanos(),
        mean_latency_ns,
        p50_latency_ns,
        p99_latency_ns,
    }
}

/// Runs the scale sweep: the single-leader service at `n ∈ {256, 1024}`
/// on a 4-worker pool (`--fast`: one tiny `n = 4` row on the default
/// pool).
pub fn sweep_mux(fast: bool) -> Vec<MuxResult> {
    let budget = if fast {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(150)
    };
    if fast {
        return vec![measure_mux(4, DEFAULT_WORKERS, 0.0, 5, budget, 0x30C)];
    }
    // The leader's Value rotation is O(n) messages per grant, so the
    // per-process queue shrinks as n grows. Both rows deliberately
    // overfill the budget and saturate the service for the full 150s,
    // so their `served`/`wall` ratio is a *sustained* throughput
    // measurement (`served` < `injected` is expected there, not an
    // error).
    [(256usize, 6u64), (1024, 2)]
        .into_iter()
        .map(|(n, per_process)| measure_mux(n, 4, 0.0, per_process, budget, 0x30C ^ n as u64))
        .collect()
}

/// One measured chaos configuration: the single-leader mutex service
/// under a seeded [`ChaosPlan`] of fault bursts, with the supervised
/// self-healing runtime, judged per epoch by executable Specification 3.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChaosRow {
    /// System size (protocol instances).
    pub n: usize,
    /// The transport backend the row was measured on.
    pub transport: RtTransport,
    /// The fault mix the chaos plan drew bursts from.
    pub mix: ChaosMix,
    /// Background in-transit loss probability (chaos drops come on top).
    pub loss: f64,
    /// Fault bursts the engine fired mid-run.
    pub bursts: u64,
    /// Authoritative state-corruption fault marks (epoch boundaries).
    pub faults: u64,
    /// Supervisor interventions (crashed/wedged workers healed).
    pub interventions: u64,
    /// Trace epochs the per-epoch checker judged (`faults + 1`).
    pub epochs: u64,
    /// Requests served end-to-end despite the chaos.
    pub served: u64,
    /// Median fault-burst-to-next-completion recovery time (ns).
    pub recovery_p50_ns: u128,
    /// 99th-percentile recovery time (ns).
    pub recovery_p99_ns: u128,
    /// Wall-clock nanoseconds.
    pub wall_ns: u128,
}

impl ChaosRow {
    /// Served requests per second (under chaos).
    pub fn requests_per_sec(&self) -> f64 {
        self.served as f64 / (self.wall_ns as f64 / 1e9)
    }
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
) -> ChaosRow {
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
            .as_nanos()
    };
    ChaosRow {
        n,
        transport,
        mix,
        loss,
        bursts: u64::from(chaos.bursts_fired),
        faults: chaos.fault_steps.len() as u64,
        interventions: chaos.interventions.len() as u64,
        epochs: epochs.epochs_checked() as u64,
        served: report.served,
        recovery_p50_ns: recovery(0.5),
        recovery_p99_ns: recovery(0.99),
        wall_ns: report.wall.as_nanos(),
    }
}

/// Runs the chaos sweep: every fault mix at `n = 8`, loss 0, over the
/// in-memory transport, plus the same five mixes over UDP loopback when
/// the sandbox allows sockets (`--fast`: one tiny in-memory `all`-mix
/// row). Workloads are sized so client requests outlast the fault
/// schedule — every burst lands mid-run and every row records a finite
/// recovery-time distribution.
pub fn sweep_chaos(fast: bool) -> Vec<ChaosRow> {
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
    let mut rows = Vec::new();
    for (i, mix) in MIXES.into_iter().enumerate() {
        // ~2 000 req/s at n = 8 under the `all` mix; 3 bursts × 200ms
        // quiet ≈ 0.8s of schedule, so 400 × 8 = 3200 requests (~1.6s)
        // outlast it.
        rows.push(measure_chaos(
            8,
            RtTransport::InMem,
            mix,
            0.0,
            400,
            Duration::from_millis(200),
            Duration::from_millis(100),
            Duration::from_secs(150),
            0xC405 ^ ((i as u64) << 4),
        ));
    }
    if snapstab_net::udp_available() {
        for (i, mix) in MIXES.into_iter().enumerate() {
            rows.push(measure_chaos(
                8,
                RtTransport::Udp,
                mix,
                0.0,
                150,
                Duration::from_millis(250),
                Duration::from_millis(120),
                Duration::from_secs(150),
                0xC405_0DD5 ^ ((i as u64) << 4),
            ));
        }
    } else {
        eprintln!(
            "warning: UDP loopback unavailable in this sandbox; \
             skipping the chaos udp rows"
        );
    }
    rows
}

/// One measured observability configuration: the single-leader mutex
/// service with the snapshot monitor on, against an
/// identically-configured unmonitored baseline (same transport, seed
/// and workload, trace recording off on both halves — the overhead
/// columns isolate the monitor's cost, nothing else's; each half is
/// the median of `OBS_SAMPLES` interleaved runs). A separate
/// trace-recorded audit run at the same configuration gates the row on
/// Specification 5.
#[derive(Clone, PartialEq, Debug)]
pub struct ObservabilityRow {
    /// System size (protocol instances).
    pub n: usize,
    /// The transport backend both halves of the pair ran on.
    pub transport: RtTransport,
    /// Pool worker threads running the instances.
    pub workers: u64,
    /// Concurrent snapshot initiators, each on its own single-flight
    /// ledger and independent schedule.
    pub initiators: u64,
    /// Monitor cut interval in milliseconds.
    pub interval_ms: u64,
    /// Requests injected (identical in both halves).
    pub injected: u64,
    /// Requests served by the unmonitored baseline.
    pub base_served: u64,
    /// Requests served with the monitor on.
    pub mon_served: u64,
    /// Baseline wall-clock nanoseconds.
    pub base_wall_ns: u128,
    /// Monitored wall-clock nanoseconds.
    pub mon_wall_ns: u128,
    /// Baseline 99th-percentile service latency (ns).
    pub base_p99_latency_ns: u128,
    /// Monitored 99th-percentile service latency (ns).
    pub mon_p99_latency_ns: u128,
    /// Consistent cuts the monitor decided (every one judged by
    /// Specification 5 before this row can exist).
    pub cuts: u64,
    /// Snapshot waves refused (corrupted monitor state — never
    /// fabricated into a cut).
    pub refused: u64,
    /// Mean wall-clock lag from cut request to the decided cut
    /// surfacing at the harness (0 when no cut decided).
    pub mean_staleness_ns: u128,
    /// Decided cuts attributed to each initiator's ledger, in
    /// initiator order (sums to `cuts`).
    pub per_initiator_cuts: Vec<u64>,
}

impl ObservabilityRow {
    /// Baseline served requests per second (monitor off).
    pub fn base_requests_per_sec(&self) -> f64 {
        self.base_served as f64 / (self.base_wall_ns as f64 / 1e9)
    }

    /// Served requests per second with the monitor on.
    pub fn mon_requests_per_sec(&self) -> f64 {
        self.mon_served as f64 / (self.mon_wall_ns as f64 / 1e9)
    }

    /// Monitoring overhead as a percentage of baseline req/s (negative
    /// when scheduling noise makes the monitored half faster).
    pub fn overhead_pct(&self) -> f64 {
        let base = self.base_requests_per_sec();
        if base == 0.0 {
            0.0
        } else {
            (base - self.mon_requests_per_sec()) / base * 100.0
        }
    }

    /// Consistent cuts decided per second of monitored wall time.
    pub fn cuts_per_sec(&self) -> f64 {
        self.cuts as f64 / (self.mon_wall_ns as f64 / 1e9)
    }
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
) -> ObservabilityRow {
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
    let (_, _, base_p99) = latency_stats(&base.latencies);
    let (_, _, mon_p99) = latency_stats(&mon.latencies);
    ObservabilityRow {
        n,
        transport,
        workers: workers as u64,
        initiators: initiators as u64,
        interval_ms: interval.as_millis() as u64,
        injected: base.injected,
        base_served: base.served,
        mon_served: mon.served,
        base_wall_ns: base.wall.as_nanos(),
        mon_wall_ns: mon.wall.as_nanos(),
        base_p99_latency_ns: base_p99,
        mon_p99_latency_ns: mon_p99,
        cuts: mon.monitor.cuts.len() as u64,
        refused: mon.monitor.refused,
        mean_staleness_ns: mon.monitor.mean_staleness().map_or(0, |d| d.as_nanos()),
        per_initiator_cuts: mon.monitor.per_initiator().iter().map(|s| s.cuts).collect(),
    }
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
pub fn sweep_observability(fast: bool) -> Vec<ObservabilityRow> {
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
    let budget = if fast {
        Duration::from_secs(20)
    } else {
        Duration::from_secs(60)
    };
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
            if n < 64 {
                assert!(
                    row.cuts_per_sec() >= 1.0,
                    "monitored run at n = {n} decided only {:.2} cuts/s (< 1)",
                    row.cuts_per_sec(),
                );
            } else {
                assert!(row.cuts >= 1, "monitored run at n = {n} decided no cuts");
            }
        }
        rows.push(row);
    }
    rows
}

fn push_rows(table: &mut Table, results: &[RtResult]) {
    for r in results {
        table.row(&[
            r.n.to_string(),
            r.transport.as_str().to_string(),
            format!("{:.1}", r.loss),
            r.shards.to_string(),
            r.batch.to_string(),
            r.served.to_string(),
            format!("{:.0}", r.requests_per_sec()),
            format!("{:.0}", r.grants_per_sec()),
            format!("{:.2}", r.mean_batch()),
            format!("{:.0}", r.msgs_per_sec()),
            format!("{:.2}", r.mean_latency_ns as f64 / 1e6),
            format!("{:.2}", r.p50_latency_ns as f64 / 1e6),
            format!("{:.2}", r.p99_latency_ns as f64 / 1e6),
        ]);
    }
}

const COLUMNS: [&str; 13] = [
    "n",
    "transport",
    "loss",
    "shards",
    "batch",
    "served",
    "req/s",
    "grants/s",
    "batch eff",
    "msgs/s",
    "mean ms",
    "p50 ms",
    "p99 ms",
];

const CHAOS_COLUMNS: [&str; 11] = [
    "n",
    "transport",
    "mix",
    "served",
    "req/s",
    "bursts",
    "faults",
    "healed",
    "epochs",
    "rec p50 ms",
    "rec p99 ms",
];

const OBS_COLUMNS: [&str; 15] = [
    "n",
    "transport",
    "workers",
    "inits",
    "ival ms",
    "served",
    "base req/s",
    "mon req/s",
    "ovh %",
    "base p99 ms",
    "mon p99 ms",
    "cuts",
    "cuts/s",
    "stale ms",
    "refused",
];

fn push_obs_rows(table: &mut Table, rows: &[ObservabilityRow]) {
    for r in rows {
        table.row(&[
            r.n.to_string(),
            r.transport.as_str().to_string(),
            r.workers.to_string(),
            r.initiators.to_string(),
            r.interval_ms.to_string(),
            r.mon_served.to_string(),
            format!("{:.0}", r.base_requests_per_sec()),
            format!("{:.0}", r.mon_requests_per_sec()),
            format!("{:.1}", r.overhead_pct()),
            format!("{:.2}", r.base_p99_latency_ns as f64 / 1e6),
            format!("{:.2}", r.mon_p99_latency_ns as f64 / 1e6),
            r.cuts.to_string(),
            format!("{:.1}", r.cuts_per_sec()),
            format!("{:.2}", r.mean_staleness_ns as f64 / 1e6),
            r.refused.to_string(),
        ]);
    }
}

const MUX_COLUMNS: [&str; 9] = [
    "n", "workers", "loss", "served", "req/s", "msgs/s", "mean ms", "p50 ms", "p99 ms",
];

fn push_mux_rows(table: &mut Table, rows: &[MuxResult]) {
    for r in rows {
        table.row(&[
            r.n.to_string(),
            r.workers.to_string(),
            format!("{:.1}", r.loss),
            r.served.to_string(),
            format!("{:.0}", r.requests_per_sec()),
            format!("{:.0}", r.msgs_per_sec()),
            format!("{:.2}", r.mean_latency_ns as f64 / 1e6),
            format!("{:.2}", r.p50_latency_ns as f64 / 1e6),
            format!("{:.2}", r.p99_latency_ns as f64 / 1e6),
        ]);
    }
}

fn push_chaos_rows(table: &mut Table, rows: &[ChaosRow]) {
    for r in rows {
        table.row(&[
            r.n.to_string(),
            r.transport.as_str().to_string(),
            r.mix.as_str().to_string(),
            r.served.to_string(),
            format!("{:.0}", r.requests_per_sec()),
            r.bursts.to_string(),
            r.faults.to_string(),
            r.interventions.to_string(),
            r.epochs.to_string(),
            format!("{:.2}", r.recovery_p50_ns as f64 / 1e6),
            format!("{:.2}", r.recovery_p99_ns as f64 / 1e6),
        ]);
    }
}

/// Renders all seven sweeps as the repo's standard ASCII tables.
#[allow(clippy::too_many_arguments)]
pub fn render(
    baseline: &[RtResult],
    sharded: &[RtResult],
    udp: &[RtResult],
    forwarding: &[RtResult],
    chaos: &[ChaosRow],
    observability: &[ObservabilityRow],
    mux: &[MuxResult],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Q6: live-runtime services (one instance per process, {DEFAULT_WORKERS}-worker pool unless a row says otherwise) ===\n\n"
    ));
    out.push_str("baseline (single leader, one request per grant):\n");
    let mut table = Table::new(&COLUMNS);
    push_rows(&mut table, baseline);
    out.push_str(&table.render());
    if !sharded.is_empty() {
        out.push_str("\nsharded multi-leader service with request batching:\n");
        let mut table = Table::new(&COLUMNS);
        push_rows(&mut table, sharded);
        out.push_str(&table.render());
    }
    if !udp.is_empty() {
        out.push_str("\ntransport comparison (single leader, in-memory vs UDP loopback):\n");
        let mut table = Table::new(&COLUMNS);
        push_rows(&mut table, udp);
        out.push_str(&table.render());
    }
    if !forwarding.is_empty() {
        out.push_str(
            "\nforwarding service (stale-pre-filled buffers; served = \
             payloads delivered end-to-end):\n",
        );
        let mut table = Table::new(&COLUMNS);
        push_rows(&mut table, forwarding);
        out.push_str(&table.render());
    }
    if !chaos.is_empty() {
        out.push_str(
            "\nchaos engine + supervised self-healing (per-epoch spec \
             verdicts all hold; rec = fault burst to next completion):\n",
        );
        let mut table = Table::new(&CHAOS_COLUMNS);
        push_chaos_rows(&mut table, chaos);
        out.push_str(&table.render());
    }
    if !observability.is_empty() {
        out.push_str(
            "\nobservability (snapshot monitor off vs on, same transport and \
             workload; every cut judged by Specification 5):\n",
        );
        let mut table = Table::new(&OBS_COLUMNS);
        push_obs_rows(&mut table, observability);
        out.push_str(&table.render());
    }
    if !mux.is_empty() {
        out.push_str("\nscale (single leader, sustained over the budget):\n");
        let mut table = Table::new(&MUX_COLUMNS);
        push_mux_rows(&mut table, mux);
        out.push_str(&table.render());
    }
    let total: u64 = baseline
        .iter()
        .chain(sharded)
        .chain(udp)
        .chain(forwarding)
        .map(|r| r.served)
        .chain(chaos.iter().map(|r| r.served))
        .chain(observability.iter().map(|r| r.base_served + r.mon_served))
        .chain(mux.iter().map(|r| r.served))
        .sum();
    out.push_str(&format!("\ntotal requests served end-to-end: {total}\n"));
    out
}

/// Measures all seven sweeps and renders them.
pub fn run(fast: bool) -> String {
    render(
        &sweep(fast),
        &sweep_sharded(fast),
        &sweep_udp(fast),
        &sweep_forwarding(fast),
        &sweep_chaos(fast),
        &sweep_observability(fast),
        &sweep_mux(fast),
    )
}

fn row_json(r: &RtResult) -> String {
    format!(
        "{{\"n\": {}, \"transport\": \"{}\", \"loss\": {}, \"shards\": {}, \"batch\": {}, \"injected\": {}, \"served\": {}, \"grants\": {}, \"cs_entries\": {}, \"msgs\": {}, \"wall_ns\": {}, \"requests_per_sec\": {:.1}, \"grants_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}, \"mean_latency_ns\": {}, \"p50_latency_ns\": {}, \"p99_latency_ns\": {}}}",
        r.n,
        r.transport.as_str(),
        r.loss,
        r.shards,
        r.batch,
        r.injected,
        r.served,
        r.grants,
        r.cs_entries,
        r.msgs,
        r.wall_ns,
        r.requests_per_sec(),
        r.grants_per_sec(),
        r.msgs_per_sec(),
        r.mean_latency_ns,
        r.p50_latency_ns,
        r.p99_latency_ns,
    )
}

fn chaos_row_json(r: &ChaosRow) -> String {
    format!(
        "{{\"n\": {}, \"transport\": \"{}\", \"mix\": \"{}\", \"loss\": {}, \"bursts\": {}, \"faults\": {}, \"interventions\": {}, \"epochs\": {}, \"served\": {}, \"requests_per_sec\": {:.1}, \"recovery_p50_ns\": {}, \"recovery_p99_ns\": {}, \"wall_ns\": {}}}",
        r.n,
        r.transport.as_str(),
        r.mix.as_str(),
        r.loss,
        r.bursts,
        r.faults,
        r.interventions,
        r.epochs,
        r.served,
        r.requests_per_sec(),
        r.recovery_p50_ns,
        r.recovery_p99_ns,
        r.wall_ns,
    )
}

fn obs_row_json(r: &ObservabilityRow) -> String {
    let per_initiator = r
        .per_initiator_cuts
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"n\": {}, \"transport\": \"{}\", \"workers\": {}, \"initiators\": {}, \"interval_ms\": {}, \"injected\": {}, \"base_served\": {}, \"mon_served\": {}, \"base_wall_ns\": {}, \"mon_wall_ns\": {}, \"base_requests_per_sec\": {:.1}, \"mon_requests_per_sec\": {:.1}, \"overhead_pct\": {:.2}, \"base_p99_latency_ns\": {}, \"mon_p99_latency_ns\": {}, \"cuts\": {}, \"cuts_per_sec\": {:.2}, \"refused\": {}, \"mean_staleness_ns\": {}, \"per_initiator_cuts\": [{per_initiator}]}}",
        r.n,
        r.transport.as_str(),
        r.workers,
        r.initiators,
        r.interval_ms,
        r.injected,
        r.base_served,
        r.mon_served,
        r.base_wall_ns,
        r.mon_wall_ns,
        r.base_requests_per_sec(),
        r.mon_requests_per_sec(),
        r.overhead_pct(),
        r.base_p99_latency_ns,
        r.mon_p99_latency_ns,
        r.cuts,
        r.cuts_per_sec(),
        r.refused,
        r.mean_staleness_ns,
    )
}

fn mux_row_json(r: &MuxResult) -> String {
    format!(
        "{{\"n\": {}, \"workers\": {}, \"loss\": {}, \"injected\": {}, \"served\": {}, \"msgs\": {}, \"wall_ns\": {}, \"requests_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}, \"mean_latency_ns\": {}, \"p50_latency_ns\": {}, \"p99_latency_ns\": {}}}",
        r.n,
        r.workers,
        r.loss,
        r.injected,
        r.served,
        r.msgs,
        r.wall_ns,
        r.requests_per_sec(),
        r.msgs_per_sec(),
        r.mean_latency_ns,
        r.p50_latency_ns,
        r.p99_latency_ns,
    )
}

/// All seven sweeps as a JSON document (hand-rolled: the workspace is
/// offline and carries no serde), shaped like `BENCH_STEPLOOP.json`.
/// Validate with [`from_json`] before committing.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    baseline: &[RtResult],
    sharded: &[RtResult],
    udp: &[RtResult],
    forwarding: &[RtResult],
    chaos: &[ChaosRow],
    observability: &[ObservabilityRow],
    mux: &[MuxResult],
) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"live_runtime_mutex_service\",\n  \"unit\": \"requests_per_sec\",\n  \"results\": [\n",
    );
    let push_array = |out: &mut String, rows: &[RtResult]| {
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", row_json(r), sep));
        }
    };
    push_array(&mut out, baseline);
    out.push_str("  ],\n  \"sharded\": [\n");
    push_array(&mut out, sharded);
    out.push_str("  ],\n  \"udp\": [\n");
    push_array(&mut out, udp);
    out.push_str("  ],\n  \"forwarding\": [\n");
    push_array(&mut out, forwarding);
    out.push_str("  ],\n  \"chaos\": [\n");
    for (i, r) in chaos.iter().enumerate() {
        let sep = if i + 1 < chaos.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", chaos_row_json(r), sep));
    }
    out.push_str("  ],\n  \"observability\": [\n");
    for (i, r) in observability.iter().enumerate() {
        let sep = if i + 1 < observability.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", obs_row_json(r), sep));
    }
    out.push_str("  ],\n  \"mux\": [\n");
    for (i, r) in mux.iter().enumerate() {
        let sep = if i + 1 < mux.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", mux_row_json(r), sep));
    }
    let total: u64 = baseline
        .iter()
        .chain(sharded)
        .chain(udp)
        .chain(forwarding)
        .map(|r| r.served)
        .chain(chaos.iter().map(|r| r.served))
        .chain(observability.iter().map(|r| r.base_served + r.mon_served))
        .chain(mux.iter().map(|r| r.served))
        .sum();
    out.push_str(&format!("  ],\n  \"total_served\": {total}\n}}\n"));
    out
}

/// The source (non-derived) numeric fields of one JSON row, in emission
/// order — the schema the round-trip check enforces.
const ROW_FIELDS: [&str; 16] = [
    "n",
    "loss",
    "shards",
    "batch",
    "injected",
    "served",
    "grants",
    "cs_entries",
    "msgs",
    "wall_ns",
    "requests_per_sec",
    "grants_per_sec",
    "msgs_per_sec",
    "mean_latency_ns",
    "p50_latency_ns",
    "p99_latency_ns",
];

fn row_from_value(row: &Value) -> Result<RtResult, String> {
    for field in ROW_FIELDS {
        match row.get(field) {
            Some(Value::Num(_)) => {}
            Some(_) => return Err(format!("field `{field}` is not a number")),
            None => return Err(format!("missing field `{field}`")),
        }
    }
    let transport = match row.get("transport") {
        Some(Value::Str(s)) => {
            RtTransport::parse(s).ok_or_else(|| format!("unknown `transport` tag `{s}`"))?
        }
        Some(_) => return Err("field `transport` is not a string".into()),
        None => return Err("missing field `transport`".into()),
    };
    let num = |field: &str| row.get(field).and_then(Value::as_num).expect("checked");
    Ok(RtResult {
        n: num("n") as usize,
        transport,
        loss: num("loss"),
        shards: num("shards") as usize,
        batch: num("batch") as usize,
        injected: num("injected") as u64,
        served: num("served") as u64,
        grants: num("grants") as u64,
        cs_entries: num("cs_entries") as u64,
        msgs: num("msgs") as u64,
        wall_ns: num("wall_ns") as u128,
        mean_latency_ns: num("mean_latency_ns") as u128,
        p50_latency_ns: num("p50_latency_ns") as u128,
        p99_latency_ns: num("p99_latency_ns") as u128,
    })
}

/// The source (non-derived) numeric fields of one chaos JSON row, in
/// emission order — the schema the round-trip check enforces. `transport`
/// and `mix` ride alongside as string tags.
const CHAOS_ROW_FIELDS: [&str; 10] = [
    "n",
    "loss",
    "bursts",
    "faults",
    "interventions",
    "epochs",
    "served",
    "recovery_p50_ns",
    "recovery_p99_ns",
    "wall_ns",
];

fn chaos_row_from_value(row: &Value) -> Result<ChaosRow, String> {
    for field in CHAOS_ROW_FIELDS {
        match row.get(field) {
            Some(Value::Num(_)) => {}
            Some(_) => return Err(format!("field `{field}` is not a number")),
            None => return Err(format!("missing field `{field}`")),
        }
    }
    let transport = match row.get("transport") {
        Some(Value::Str(s)) => {
            RtTransport::parse(s).ok_or_else(|| format!("unknown `transport` tag `{s}`"))?
        }
        Some(_) => return Err("field `transport` is not a string".into()),
        None => return Err("missing field `transport`".into()),
    };
    let mix = match row.get("mix") {
        Some(Value::Str(s)) => ChaosMix::parse(s).ok_or_else(|| {
            format!(
                "unknown `mix` tag `{s}` (valid: {})",
                ChaosMix::NAMES.join(", ")
            )
        })?,
        Some(_) => return Err("field `mix` is not a string".into()),
        None => return Err("missing field `mix`".into()),
    };
    let num = |field: &str| row.get(field).and_then(Value::as_num).expect("checked");
    Ok(ChaosRow {
        n: num("n") as usize,
        transport,
        mix,
        loss: num("loss"),
        bursts: num("bursts") as u64,
        faults: num("faults") as u64,
        interventions: num("interventions") as u64,
        epochs: num("epochs") as u64,
        served: num("served") as u64,
        recovery_p50_ns: num("recovery_p50_ns") as u128,
        recovery_p99_ns: num("recovery_p99_ns") as u128,
        wall_ns: num("wall_ns") as u128,
    })
}

/// The source (non-derived) numeric fields of one observability JSON
/// row, in emission order — the schema the round-trip check enforces.
/// `transport` rides alongside as a string tag, `per_initiator_cuts` as
/// an array of numbers.
const OBS_ROW_FIELDS: [&str; 18] = [
    "n",
    "workers",
    "initiators",
    "interval_ms",
    "injected",
    "base_served",
    "mon_served",
    "base_wall_ns",
    "mon_wall_ns",
    "base_requests_per_sec",
    "mon_requests_per_sec",
    "overhead_pct",
    "base_p99_latency_ns",
    "mon_p99_latency_ns",
    "cuts",
    "cuts_per_sec",
    "refused",
    "mean_staleness_ns",
];

fn obs_row_from_value(row: &Value) -> Result<ObservabilityRow, String> {
    for field in OBS_ROW_FIELDS {
        match row.get(field) {
            Some(Value::Num(_)) => {}
            Some(_) => return Err(format!("field `{field}` is not a number")),
            None => return Err(format!("missing field `{field}`")),
        }
    }
    let transport = match row.get("transport") {
        Some(Value::Str(s)) => {
            RtTransport::parse(s).ok_or_else(|| format!("unknown `transport` tag `{s}`"))?
        }
        Some(_) => return Err("field `transport` is not a string".into()),
        None => return Err("missing field `transport`".into()),
    };
    let per_initiator_cuts = match row.get("per_initiator_cuts") {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_num()
                    .map(|x| x as u64)
                    .ok_or_else(|| "`per_initiator_cuts` entry is not a number".to_string())
            })
            .collect::<Result<Vec<u64>, String>>()?,
        Some(_) => return Err("field `per_initiator_cuts` is not an array".into()),
        None => return Err("missing field `per_initiator_cuts`".into()),
    };
    let num = |field: &str| row.get(field).and_then(Value::as_num).expect("checked");
    Ok(ObservabilityRow {
        n: num("n") as usize,
        transport,
        workers: num("workers") as u64,
        initiators: num("initiators") as u64,
        interval_ms: num("interval_ms") as u64,
        injected: num("injected") as u64,
        base_served: num("base_served") as u64,
        mon_served: num("mon_served") as u64,
        base_wall_ns: num("base_wall_ns") as u128,
        mon_wall_ns: num("mon_wall_ns") as u128,
        base_p99_latency_ns: num("base_p99_latency_ns") as u128,
        mon_p99_latency_ns: num("mon_p99_latency_ns") as u128,
        cuts: num("cuts") as u64,
        refused: num("refused") as u64,
        mean_staleness_ns: num("mean_staleness_ns") as u128,
        per_initiator_cuts,
    })
}

/// The source (non-derived) numeric fields of one mux JSON row, in
/// emission order — the schema the round-trip check enforces.
const MUX_ROW_FIELDS: [&str; 12] = [
    "n",
    "workers",
    "loss",
    "injected",
    "served",
    "msgs",
    "wall_ns",
    "requests_per_sec",
    "msgs_per_sec",
    "mean_latency_ns",
    "p50_latency_ns",
    "p99_latency_ns",
];

fn mux_row_from_value(row: &Value) -> Result<MuxResult, String> {
    for field in MUX_ROW_FIELDS {
        match row.get(field) {
            Some(Value::Num(_)) => {}
            Some(_) => return Err(format!("field `{field}` is not a number")),
            None => return Err(format!("missing field `{field}`")),
        }
    }
    let num = |field: &str| row.get(field).and_then(Value::as_num).expect("checked");
    Ok(MuxResult {
        n: num("n") as usize,
        workers: num("workers") as usize,
        loss: num("loss"),
        injected: num("injected") as u64,
        served: num("served") as u64,
        msgs: num("msgs") as u64,
        wall_ns: num("wall_ns") as u128,
        mean_latency_ns: num("mean_latency_ns") as u128,
        p50_latency_ns: num("p50_latency_ns") as u128,
        p99_latency_ns: num("p99_latency_ns") as u128,
    })
}

/// Parses a `BENCH_RUNTIME.json` document back through the bench's own
/// schema: `(baseline rows, sharded rows, udp rows, forwarding rows,
/// chaos rows, observability rows, mux rows, total_served)`.
/// Every row must carry every field of [`struct@RtResult`] (chaos rows:
/// every field of [`struct@ChaosRow`]; observability rows: every field
/// of [`struct@ObservabilityRow`]): the numeric source fields (plus
/// the derived rates) as numbers and the `transport`/`mix` tags as known
/// strings; anything missing, extra-typed or structurally off is an
/// error — including a pre-chaos-era document without the `chaos` array,
/// a pre-monitor-era document without the `observability` array, or a
/// pre-mux-era document without the `mux` array.
/// `from_json(to_json(b, s, u, f, c, o, m))` reproduces
/// `b`/`s`/`u`/`f`/`c`/`o`/`m` exactly (derived rates are recomputed
/// from the source fields).
#[allow(clippy::type_complexity)]
pub fn from_json(
    doc: &str,
) -> Result<
    (
        Vec<RtResult>,
        Vec<RtResult>,
        Vec<RtResult>,
        Vec<RtResult>,
        Vec<ChaosRow>,
        Vec<ObservabilityRow>,
        Vec<MuxResult>,
        u64,
    ),
    String,
> {
    let value = jsonv::parse(doc)?;
    if value.get("experiment").and_then(Value::as_str) != Some("live_runtime_mutex_service") {
        return Err("wrong or missing `experiment` tag".into());
    }
    if value.get("unit").and_then(Value::as_str).is_none() {
        return Err("missing `unit`".into());
    }
    let rows = |key: &str| -> Result<Vec<RtResult>, String> {
        value
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing `{key}` array"))?
            .iter()
            .enumerate()
            .map(|(i, row)| row_from_value(row).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    };
    let baseline = rows("results")?;
    let sharded = rows("sharded")?;
    let udp = rows("udp")?;
    let forwarding = rows("forwarding")?;
    let chaos: Vec<ChaosRow> = value
        .get("chaos")
        .and_then(Value::as_arr)
        .ok_or("missing `chaos` array")?
        .iter()
        .enumerate()
        .map(|(i, row)| chaos_row_from_value(row).map_err(|e| format!("chaos[{i}]: {e}")))
        .collect::<Result<_, _>>()?;
    let observability: Vec<ObservabilityRow> = value
        .get("observability")
        .and_then(Value::as_arr)
        .ok_or("missing `observability` array")?
        .iter()
        .enumerate()
        .map(|(i, row)| obs_row_from_value(row).map_err(|e| format!("observability[{i}]: {e}")))
        .collect::<Result<_, _>>()?;
    let mux: Vec<MuxResult> = value
        .get("mux")
        .and_then(Value::as_arr)
        .ok_or("missing `mux` array")?
        .iter()
        .enumerate()
        .map(|(i, row)| mux_row_from_value(row).map_err(|e| format!("mux[{i}]: {e}")))
        .collect::<Result<_, _>>()?;
    let total = value
        .get("total_served")
        .and_then(Value::as_num)
        .ok_or("missing `total_served`")? as u64;
    let served: u64 = baseline
        .iter()
        .chain(&sharded)
        .chain(&udp)
        .chain(&forwarding)
        .map(|r| r.served)
        .chain(chaos.iter().map(|r| r.served))
        .chain(observability.iter().map(|r| r.base_served + r.mon_served))
        .chain(mux.iter().map(|r| r.served))
        .sum();
    if total != served {
        return Err(format!(
            "total_served {total} disagrees with the rows' sum {served}"
        ));
    }
    Ok((
        baseline,
        sharded,
        udp,
        forwarding,
        chaos,
        observability,
        mux,
        total,
    ))
}

/// Validates that a document emitted by [`to_json`] round-trips through
/// [`from_json`] to exactly the in-memory results. This is what
/// `exp_rtbench` runs before writing `BENCH_RUNTIME.json`, so schema
/// drift fails the binary instead of landing in the committed artifact.
#[allow(clippy::too_many_arguments)]
pub fn validate_roundtrip(
    doc: &str,
    baseline: &[RtResult],
    sharded: &[RtResult],
    udp: &[RtResult],
    forwarding: &[RtResult],
    chaos: &[ChaosRow],
    observability: &[ObservabilityRow],
    mux: &[MuxResult],
) -> Result<(), String> {
    let (b, s, u, f, c, o, m, _) = from_json(doc)?;
    if b != baseline {
        return Err("baseline rows did not round-trip".into());
    }
    if s != sharded {
        return Err("sharded rows did not round-trip".into());
    }
    if u != udp {
        return Err("udp rows did not round-trip".into());
    }
    if f != forwarding {
        return Err("forwarding rows did not round-trip".into());
    }
    if c != chaos {
        return Err("chaos rows did not round-trip".into());
    }
    if o != observability {
        return Err("observability rows did not round-trip".into());
    }
    if m != mux {
        return Err("mux rows did not round-trip".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_serves_requests() {
        let r = measure(3, RtTransport::InMem, 0.0, 2, Duration::from_secs(30), 1);
        assert_eq!(r.n, 3);
        assert_eq!(r.served, 6);
        assert_eq!((r.shards, r.batch), (1, 1));
        assert_eq!(r.transport, RtTransport::InMem);
        assert!(r.requests_per_sec() > 0.0);
        assert!(r.msgs_per_sec() > 0.0);
        assert!(r.p50_latency_ns <= r.p99_latency_ns);
    }

    #[test]
    fn measure_udp_serves_requests() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let r = measure(3, RtTransport::Udp, 0.0, 2, Duration::from_secs(30), 1);
        assert_eq!(r.served, 6);
        assert_eq!(r.transport, RtTransport::Udp);
        assert!(r.requests_per_sec() > 0.0);
    }

    #[test]
    fn measure_sharded_serves_and_batches() {
        let r = measure_sharded(3, 0.0, 2, 2, 4, 0, Duration::from_secs(40), 2);
        assert_eq!(r.served, 12, "all requests served");
        assert!(r.grants >= 6, "at most 2 requests per grant");
        assert!(r.grants <= 12);
        assert!(r.mean_batch() >= 1.0 && r.mean_batch() <= 2.0);
        assert!(r.p50_latency_ns <= r.p99_latency_ns);
    }

    #[test]
    fn measure_sharded_queue_depth_sizes_the_workload() {
        // queue_depth 3 × 2 shards × 3 processes = 18 requests, not 4×3.
        let r = measure_sharded(3, 0.0, 2, 2, 4, 3, Duration::from_secs(40), 2);
        assert_eq!(r.injected, 18);
        assert_eq!(r.served, 18);
    }

    fn sample_row(n: usize, shards: usize, batch: usize) -> RtResult {
        RtResult {
            n,
            transport: RtTransport::InMem,
            loss: 0.1,
            shards,
            batch,
            injected: 10,
            served: 10,
            grants: 5,
            cs_entries: 10,
            msgs: 1000,
            wall_ns: 1_000_000,
            mean_latency_ns: 5_000,
            p50_latency_ns: 4_000,
            p99_latency_ns: 9_000,
        }
    }

    fn sample_udp_row(n: usize) -> RtResult {
        RtResult {
            transport: RtTransport::Udp,
            ..sample_row(n, 1, 1)
        }
    }

    fn sample_forwarding_row(n: usize) -> RtResult {
        RtResult {
            cs_entries: 0,
            ..sample_row(n, 1, 1)
        }
    }

    fn sample_chaos_row(n: usize, mix: ChaosMix) -> ChaosRow {
        ChaosRow {
            n,
            transport: RtTransport::InMem,
            mix,
            loss: 0.0,
            bursts: 3,
            faults: 5,
            interventions: 2,
            epochs: 6,
            served: 10,
            recovery_p50_ns: 2_000_000,
            recovery_p99_ns: 7_000_000,
            wall_ns: 1_000_000,
        }
    }

    fn sample_mux_row(n: usize) -> MuxResult {
        MuxResult {
            n,
            workers: 4,
            loss: 0.0,
            injected: 10,
            served: 10,
            msgs: 1000,
            wall_ns: 1_000_000,
            mean_latency_ns: 5_000,
            p50_latency_ns: 4_000,
            p99_latency_ns: 9_000,
        }
    }

    fn sample_obs_row(n: usize, interval_ms: u64) -> ObservabilityRow {
        ObservabilityRow {
            n,
            transport: RtTransport::InMem,
            workers: 2,
            initiators: 1,
            interval_ms,
            injected: 10,
            base_served: 10,
            mon_served: 10,
            base_wall_ns: 1_000_000,
            mon_wall_ns: 1_100_000,
            base_p99_latency_ns: 9_000,
            mon_p99_latency_ns: 11_000,
            cuts: 4,
            refused: 1,
            mean_staleness_ns: 450_000,
            per_initiator_cuts: vec![4],
        }
    }

    fn sample_obs_mux_row(n: usize, initiators: usize) -> ObservabilityRow {
        ObservabilityRow {
            workers: 4,
            initiators: initiators as u64,
            cuts: 4,
            per_initiator_cuts: match initiators {
                2 => vec![3, 1],
                _ => vec![4],
            },
            ..sample_obs_row(n, 100)
        }
    }

    #[test]
    fn measure_forwarding_delivers_payloads() {
        let r = measure_forwarding(3, RtTransport::InMem, 0.0, 2, Duration::from_secs(30), 1);
        assert_eq!(r.n, 3);
        assert_eq!(r.served, 6, "all payloads delivered");
        assert_eq!(r.cs_entries, 0, "forwarding has no critical sections");
        assert_eq!((r.shards, r.batch), (1, 1));
        assert!(r.requests_per_sec() > 0.0);
        assert!(r.msgs_per_sec() > 0.0);
        assert!(r.p50_latency_ns <= r.p99_latency_ns);
    }

    #[test]
    fn measure_forwarding_udp_delivers_payloads() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let r = measure_forwarding(3, RtTransport::Udp, 0.0, 2, Duration::from_secs(30), 1);
        assert_eq!(r.served, 6);
        assert_eq!(r.transport, RtTransport::Udp);
    }

    #[test]
    fn json_shape_and_roundtrip() {
        let baseline = vec![sample_row(8, 1, 1)];
        let sharded = vec![sample_row(32, 4, 4), sample_row(32, 8, 8)];
        let udp = vec![sample_row(8, 1, 1), sample_udp_row(8)];
        let forwarding = vec![sample_forwarding_row(8), sample_forwarding_row(16)];
        let chaos = vec![
            sample_chaos_row(8, ChaosMix::Corrupt),
            ChaosRow {
                transport: RtTransport::Udp,
                ..sample_chaos_row(8, ChaosMix::All)
            },
        ];
        let obs = vec![
            sample_obs_row(8, 100),
            sample_obs_row(16, 25),
            sample_obs_mux_row(64, 2),
        ];
        let mux = vec![sample_mux_row(256), sample_mux_row(1024)];
        let j = to_json(&baseline, &sharded, &udp, &forwarding, &chaos, &obs, &mux);
        assert!(j.contains("live_runtime_mutex_service"));
        assert!(j.contains("\"p99_latency_ns\": 9000"));
        assert!(j.contains("\"transport\": \"inmem\""));
        assert!(j.contains("\"transport\": \"udp\""));
        assert!(j.contains("\"forwarding\": ["));
        assert!(j.contains("\"chaos\": ["));
        assert!(j.contains("\"mix\": \"corrupt\""));
        assert!(j.contains("\"recovery_p99_ns\": 7000000"));
        assert!(j.contains("\"observability\": ["));
        assert!(j.contains("\"interval_ms\": 100"));
        assert!(j.contains("\"mean_staleness_ns\": 450000"));
        assert!(j.contains("\"mux\": ["));
        assert!(!j.contains("\"backend\""));
        assert!(j.contains("\"workers\": 4"));
        assert!(j.contains("\"initiators\": 2"));
        assert!(j.contains("\"per_initiator_cuts\": [3, 1]"));
        assert!(j.contains("\"total_served\": 170"));
        assert!(j.trim_end().ends_with('}'));
        let (b, s, u, f, c, o, m, total) = from_json(&j).expect("parses");
        assert_eq!(b, baseline);
        assert_eq!(s, sharded);
        assert_eq!(u, udp);
        assert_eq!(f, forwarding);
        assert_eq!(c, chaos);
        assert_eq!(o, obs);
        assert_eq!(m, mux);
        assert_eq!(total, 170);
        validate_roundtrip(
            &j,
            &baseline,
            &sharded,
            &udp,
            &forwarding,
            &chaos,
            &obs,
            &mux,
        )
        .expect("round-trips");
    }

    #[test]
    fn from_json_rejects_field_drift() {
        let baseline = vec![sample_row(8, 1, 1)];
        let good = to_json(&baseline, &[], &[], &[], &[], &[], &[]);
        // Rename a field: the schema check must notice.
        let renamed = good.replace("\"p99_latency_ns\"", "\"p99\"");
        let err = from_json(&renamed).unwrap_err();
        assert!(err.contains("p99_latency_ns"), "{err}");
        // Corrupt the total: the cross-check must notice.
        let wrong_total = good.replace("\"total_served\": 10", "\"total_served\": 11");
        assert!(from_json(&wrong_total)
            .unwrap_err()
            .contains("total_served"));
        // A stringly-typed number is drift too.
        let stringly = good.replace("\"served\": 10", "\"served\": \"10\"");
        assert!(from_json(&stringly).unwrap_err().contains("not a number"));
        // So are a missing, mistyped or unknown transport tag.
        let missing_transport = good.replace("\"transport\": \"inmem\", ", "");
        assert!(from_json(&missing_transport)
            .unwrap_err()
            .contains("transport"));
        let bad_tag = good.replace("\"transport\": \"inmem\"", "\"transport\": \"tcp\"");
        assert!(from_json(&bad_tag).unwrap_err().contains("tcp"));
        let numeric_tag = good.replace("\"transport\": \"inmem\"", "\"transport\": 3");
        assert!(from_json(&numeric_tag)
            .unwrap_err()
            .contains("not a string"));
        // A document missing the udp array entirely is drift.
        let (head, tail) = good.split_once("  \"udp\"").expect("udp array present");
        let udp_tail = tail.split_once("  ],\n").expect("udp array closes").1;
        let no_udp = format!("{head}{udp_tail}");
        assert!(from_json(&no_udp).unwrap_err().contains("udp"));
        // So is a document missing the forwarding array (a PR-4-era file
        // must be regenerated, not silently accepted).
        let (head, _) = good
            .split_once("  \"forwarding\"")
            .expect("forwarding array present");
        let no_forwarding = format!("{head}  \"total_served\": 10\n}}\n");
        assert!(from_json(&no_forwarding)
            .unwrap_err()
            .contains("forwarding"));
        // And the round-trip validator catches value changes.
        let off_by_one = good.replace("\"msgs\": 1000", "\"msgs\": 1001");
        assert!(validate_roundtrip(&off_by_one, &baseline, &[], &[], &[], &[], &[], &[]).is_err());
    }

    #[test]
    fn from_json_rejects_mux_drift() {
        let baseline = vec![sample_row(8, 1, 1)];
        let mux = vec![sample_mux_row(256), sample_mux_row(1024)];
        let good = to_json(&baseline, &[], &[], &[], &[], &[], &mux);
        // A pre-mux-era document without the mux array is drift: it must
        // be regenerated, not silently accepted.
        let (head, tail) = good.split_once("  \"mux\"").expect("mux array present");
        let mux_tail = tail.split_once("  ],\n").expect("mux array closes").1;
        let no_mux = format!("{head}{mux_tail}");
        let err = from_json(&no_mux).unwrap_err();
        assert!(err.contains("mux"), "{err}");
        // A renamed, mistyped or missing workers field is drift.
        let renamed = good.replace("\"workers\"", "\"pool\"");
        assert!(from_json(&renamed).unwrap_err().contains("workers"));
        let stringly = good.replace("\"workers\": 4", "\"workers\": \"4\"");
        assert!(from_json(&stringly).unwrap_err().contains("not a number"));
        let missing = good.replace("\"workers\": 4, ", "");
        assert!(from_json(&missing).unwrap_err().contains("workers"));
        // Mux served counts toward the total cross-check.
        let wrong_total = good.replace("\"total_served\": 30", "\"total_served\": 10");
        assert!(from_json(&wrong_total)
            .unwrap_err()
            .contains("total_served"));
        // The round-trip validator catches mux value changes too.
        let off = good.replace("\"workers\": 4", "\"workers\": 8");
        assert!(
            validate_roundtrip(&off, &baseline, &[], &[], &[], &[], &[], &mux)
                .unwrap_err()
                .contains("mux")
        );
    }

    #[test]
    fn from_json_rejects_chaos_drift() {
        let baseline = vec![sample_row(8, 1, 1)];
        let chaos = vec![sample_chaos_row(8, ChaosMix::All)];
        let good = to_json(&baseline, &[], &[], &[], &chaos, &[], &[]);
        // A pre-chaos-era document without the chaos array is drift: it
        // must be regenerated, not silently accepted.
        let (head, tail) = good.split_once("  \"chaos\"").expect("chaos array present");
        let chaos_tail = tail.split_once("  ],\n").expect("chaos array closes").1;
        let no_chaos = format!("{head}{chaos_tail}");
        let err = from_json(&no_chaos).unwrap_err();
        assert!(err.contains("chaos"), "{err}");
        // A renamed recovery field is drift.
        let renamed = good.replace("\"recovery_p99_ns\"", "\"rec_p99\"");
        assert!(from_json(&renamed).unwrap_err().contains("recovery_p99_ns"));
        // An unknown, mistyped or missing fault-mix tag is drift.
        let bad_mix = good.replace("\"mix\": \"all\"", "\"mix\": \"meteor\"");
        let err = from_json(&bad_mix).unwrap_err();
        assert!(err.contains("meteor") && err.contains("corrupt"), "{err}");
        let numeric_mix = good.replace("\"mix\": \"all\"", "\"mix\": 4");
        assert!(from_json(&numeric_mix)
            .unwrap_err()
            .contains("not a string"));
        let missing_mix = good.replace("\"mix\": \"all\", ", "");
        assert!(from_json(&missing_mix).unwrap_err().contains("mix"));
        // Chaos served counts toward the total cross-check.
        let wrong_total = good.replace("\"total_served\": 20", "\"total_served\": 10");
        assert!(from_json(&wrong_total)
            .unwrap_err()
            .contains("total_served"));
        // The round-trip validator catches chaos value changes too.
        let off = good.replace("\"interventions\": 2", "\"interventions\": 3");
        assert!(
            validate_roundtrip(&off, &baseline, &[], &[], &[], &chaos, &[], &[])
                .unwrap_err()
                .contains("chaos")
        );
    }

    #[test]
    fn from_json_rejects_observability_drift() {
        let baseline = vec![sample_row(8, 1, 1)];
        let obs = vec![sample_obs_row(8, 100)];
        let good = to_json(&baseline, &[], &[], &[], &[], &obs, &[]);
        // A pre-monitor-era document without the observability array is
        // drift: it must be regenerated, not silently accepted.
        let (head, tail) = good
            .split_once("  \"observability\"")
            .expect("observability array present");
        let obs_tail = tail
            .split_once("  ],\n")
            .expect("observability array closes")
            .1;
        let no_obs = format!("{head}{obs_tail}");
        let err = from_json(&no_obs).unwrap_err();
        assert!(err.contains("observability"), "{err}");
        // A renamed staleness field is drift.
        let renamed = good.replace("\"mean_staleness_ns\"", "\"staleness\"");
        assert!(from_json(&renamed)
            .unwrap_err()
            .contains("mean_staleness_ns"));
        // A stringly-typed cut count is drift too.
        let stringly = good.replace("\"cuts\": 4", "\"cuts\": \"4\"");
        assert!(from_json(&stringly).unwrap_err().contains("not a number"));
        // So are a missing, mistyped or unknown transport tag.
        let missing_transport =
            good.replace("\"transport\": \"inmem\", \"workers\"", "\"workers\"");
        assert!(from_json(&missing_transport)
            .unwrap_err()
            .contains("transport"));
        let bad_tag = good.replace(
            "\"transport\": \"inmem\", \"workers\"",
            "\"transport\": \"tcp\", \"workers\"",
        );
        assert!(from_json(&bad_tag).unwrap_err().contains("tcp"));
        // A pre-telemetry-era row without the per-initiator attribution
        // is drift.
        let missing_attr = good.replace(", \"per_initiator_cuts\": [4]", "");
        assert!(from_json(&missing_attr)
            .unwrap_err()
            .contains("per_initiator_cuts"));
        let stringly_attr = good.replace(
            "\"per_initiator_cuts\": [4]",
            "\"per_initiator_cuts\": [\"4\"]",
        );
        assert!(from_json(&stringly_attr)
            .unwrap_err()
            .contains("not a number"));
        // Both halves of the pair count toward the total cross-check.
        let wrong_total = good.replace("\"total_served\": 30", "\"total_served\": 20");
        assert!(from_json(&wrong_total)
            .unwrap_err()
            .contains("total_served"));
        // The round-trip validator catches observability value changes.
        let off = good.replace("\"refused\": 1", "\"refused\": 2");
        assert!(
            validate_roundtrip(&off, &baseline, &[], &[], &[], &[], &obs, &[])
                .unwrap_err()
                .contains("observability")
        );
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
        assert_eq!(r.injected, 9);
        assert_eq!(r.base_served, 9);
        assert_eq!(r.mon_served, 9, "monitoring must not drop requests");
        assert!(r.cuts >= 1, "a 5ms interval must land at least one cut");
        assert!(r.cuts_per_sec() > 0.0);
        assert!(r.base_requests_per_sec() > 0.0);
        assert!(r.mon_requests_per_sec() > 0.0);
        assert_eq!(r.per_initiator_cuts.len(), 1);
        assert_eq!(r.per_initiator_cuts[0], r.cuts);
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
        assert_eq!((r.workers, r.initiators), (2, 2));
        assert_eq!(r.base_served, 12);
        assert_eq!(r.mon_served, 12, "monitoring must not drop requests");
        assert!(r.cuts >= 1);
        assert_eq!(r.per_initiator_cuts.len(), 2);
        assert_eq!(r.per_initiator_cuts.iter().sum::<u64>(), r.cuts);
    }

    #[test]
    fn render_includes_every_table() {
        let out = render(
            &[sample_row(8, 1, 1)],
            &[sample_row(32, 4, 4)],
            &[sample_row(8, 1, 1), sample_udp_row(8)],
            &[sample_forwarding_row(8)],
            &[sample_chaos_row(8, ChaosMix::Partition)],
            &[sample_obs_row(8, 100), sample_obs_mux_row(64, 2)],
            &[sample_mux_row(256), sample_mux_row(1024)],
        );
        assert!(out.contains("baseline"));
        assert!(out.contains("sharded multi-leader"));
        assert!(out.contains("transport comparison"));
        assert!(out.contains("udp"));
        assert!(out.contains("forwarding service"));
        assert!(out.contains("p99 ms"));
        assert!(out.contains("chaos engine"));
        assert!(out.contains("partition"));
        assert!(out.contains("rec p99 ms"));
        assert!(out.contains("observability"));
        assert!(out.contains("cuts/s"));
        assert!(out.contains("stale ms"));
        assert!(out.contains("inits"));
        assert!(out.contains("scale"));
        assert!(out.contains("2-worker pool"));
        assert!(out.contains("total requests served end-to-end: 120"));
    }

    /// Both pool shapes — one worker serializing every instance, two
    /// stepping them in parallel — serve the same workload and record
    /// their pool size.
    #[test]
    fn measure_mux_serves_on_both_backends() {
        for workers in [1, 2] {
            let m = measure_mux(3, workers, 0.0, 2, Duration::from_secs(30), 1);
            assert_eq!(m.served, 6);
            assert_eq!(m.workers, workers);
            assert!(m.requests_per_sec() > 0.0);
            assert!(m.p50_latency_ns <= m.p99_latency_ns);
        }
    }

    /// The committed trajectory parses under the current schema: a
    /// schema change that forgets to regenerate `BENCH_RUNTIME.json`
    /// fails here. The file holds at least 10⁵ served requests.
    #[test]
    fn committed_bench_runtime_parses_under_the_current_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_RUNTIME.json");
        let doc = std::fs::read_to_string(path).expect("BENCH_RUNTIME.json is committed");
        let (baseline, _, _, _, _, observability, mux, total) =
            from_json(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(!baseline.is_empty() && !observability.is_empty() && !mux.is_empty());
        assert!(total >= 100_000, "{total} requests served");
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
        assert_eq!(r.served, 3_000, "all requests served despite the chaos");
        assert_eq!(r.bursts, 3, "every planned burst fired mid-run");
        assert_eq!(r.epochs, r.faults + 1);
        assert!(r.recovery_p50_ns > 0);
        assert!(r.recovery_p50_ns <= r.recovery_p99_ns);
    }
}
