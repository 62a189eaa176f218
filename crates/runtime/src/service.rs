//! One way to run a live service. An *app* says what runs — the
//! protocol, one closed-loop client per process, the report it yields —
//! and a [`ServiceRun`] says how: on how many pool workers, over which
//! [`Transport`], under which [`ChaosPlan`] if any. [`run_service`] is
//! the one driver for every combination: it builds the app, wraps the
//! transport in a [`ChaosTransport`] when a plan is given, spawns the
//! [`MuxRunner`], supervises the run until the workload completes (and
//! the chaos schedule drained) or the budget expires, and hands the
//! stopped run back to the app to report.
//!
//! Three apps ship here, and [`crate::monitor::Monitoring`] wraps the
//! first and the last with a snapshot monitor:
//!
//! * [`MutexServiceConfig`] — a single-leader [`MeProcess`] mutex
//!   service. Every process's client holds a queue of critical-section
//!   requests: whenever the process's `Request` variable is `Done` and
//!   requests remain, it marks `"request"` in the log, calls
//!   `request_cs()`, and times the service latency.
//! * [`ShardedServiceConfig`] — its sharded, batching generalization.
//!   The single-leader service is protocol-bound (one grant per leader
//!   `Value` rotation); here every process hosts `S` independent
//!   protocol instances ([`ShardedMe`], leaders spread round-robin), the
//!   resource space is hash-partitioned across them
//!   ([`snapstab_core::shard::shard_of`]), and each grant serves a whole
//!   batch of non-conflicting client requests
//!   ([`snapstab_core::request::BatchQueue`]). A shared [`GrantLog`]
//!   records every batch for the service-level audit, and
//!   [`snapstab_core::shard::project_shard_trace`] slices the merged
//!   trace into per-shard traces for the Specification 3 checkers.
//! * [`ForwardingServiceConfig`] — end-to-end message forwarding
//!   ([`ForwardProcess`]) with per-process injection queues.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snapstab_core::forward::{
    forward_workload, ForwardConfig, ForwardEvent, ForwardMsg, ForwardProcess, Payload,
    STALE_ID_BIT,
};
use snapstab_core::me::{MeConfig, MeEvent, MeMsg, MeProcess};
use snapstab_core::request::{BatchQueue, ClientRequest, RequestState};
use snapstab_core::shard::{
    inject_requests, shard_marker, GrantAudit, GrantLog, ShardedMe, ShardedMeEvent, ShardedMeMsg,
};
use snapstab_sim::{ProcessId, Protocol, SimRng, Trace};

use crate::chaos::{ChaosHarness, ChaosPlan, ChaosReport, ChaosTransport, FaultPlane};
use crate::link::LaneOf;
use crate::mux::{MuxRunner, DEFAULT_WORKERS};
use crate::runner::{Driver, LinkSample, LiveConfig, LiveStats, Scribe};
use crate::transport::{InMemory, Transport};

/// How to run a service: the pool size, the transport, and an optional
/// chaos schedule. The default is [`DEFAULT_WORKERS`] workers over the
/// in-memory transport, without chaos. Every app runs under every
/// combination — here the sharded service, its per-shard capacity lanes
/// reaching the transport:
///
/// ```
/// use snapstab_core::shard::project_shard_trace;
/// use snapstab_core::spec::analyze_me_trace;
/// use snapstab_runtime::{run_service, ServiceRun, ShardedServiceConfig};
/// use std::time::Duration;
///
/// let cfg = ShardedServiceConfig {
///     n: 3,          // processes
///     shards: 2,     // independent leaders
///     batch: 2,      // max client requests per grant
///     requests_per_process: 4,
///     time_budget: Duration::from_secs(30),
///     ..ShardedServiceConfig::default()
/// };
/// let (report, _) = run_service(&cfg, ServiceRun::default()).unwrap();
/// assert_eq!(report.served, 12);
/// // The grant log audits the composition: conflict-free batches,
/// // correct shard routing, every request served exactly once; each
/// // shard's projection of the merged trace passes Specification 3.
/// assert!(report.audit().holds());
/// let trace = report.trace.unwrap();
/// for s in 0..2 {
///     assert!(analyze_me_trace(&project_shard_trace(&trace, s), 3).exclusivity_holds());
/// }
/// ```
pub struct ServiceRun<'a, M> {
    /// Pool size (at least 1).
    pub workers: usize,
    /// The message substrate ([`InMemory`], `snapstab-net`'s
    /// `UdpLoopback`, …).
    pub transport: &'a dyn Transport<M>,
    /// Mid-run fault bursts: the transport is wrapped in a
    /// [`ChaosTransport`] and a [`ChaosHarness`] injects the plan while
    /// the clients run. The run then continues until the workload is
    /// done **and** the schedule has drained, so every planned burst
    /// really lands.
    pub chaos: Option<&'a ChaosPlan>,
}

impl<M: Send + 'static> Default for ServiceRun<'_, M> {
    fn default() -> Self {
        ServiceRun {
            workers: DEFAULT_WORKERS,
            transport: &InMemory,
            chaos: None,
        }
    }
}

/// The trace capabilities a [`Client`] step gets: harness marks, plus
/// the completion hook through which a wrapping app
/// ([`crate::monitor::Monitoring`]) observes the workload. A [`Scribe`]
/// is the plain sink: it writes marks and ignores completions.
pub trait Marks {
    /// The process the client drives.
    fn me(&self) -> ProcessId;

    /// Records a harness marker under a fresh global step; returns the
    /// step.
    fn mark(&mut self, label: impl Into<String>) -> u64;

    /// Called once per request or payload, at the point it completes.
    fn completed(&mut self);
}

impl<M, E> Marks for Scribe<'_, M, E> {
    fn me(&self) -> ProcessId {
        Scribe::me(self)
    }

    fn mark(&mut self, label: impl Into<String>) -> u64 {
        Scribe::mark(self, label)
    }

    fn completed(&mut self) {}
}

/// One process's closed-loop client, run once per scheduling quantum
/// between message draining and the activation.
pub trait Client<P>: Send + 'static {
    /// Collects what completed at `proc` and injects more work. Returns
    /// whether it made progress (which keeps the process hot).
    fn step(&mut self, proc: &mut P, marks: &mut impl Marks) -> bool;
}

/// A client whose workload a monitoring digest can report.
pub trait Gauged<P> {
    /// `(queue depth, in flight)` of this client's workload.
    fn gauges(&self, proc: &P) -> (u32, u32);
}

/// The wire message type of an app's processes.
pub type Msg<A> = <<A as ServiceApp>::Proc as Protocol>::Msg;

/// What [`run_service`] hands an app once the runner has stopped.
pub struct Finished<P: Protocol> {
    /// Final process states, in id order.
    pub processes: Vec<P>,
    /// The merged trace (`None` when recording was off).
    pub trace: Option<Trace<P::Msg, P::Event>>,
    /// Aggregate runtime counters.
    pub stats: LiveStats,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Per-link counters sampled just before shutdown.
    pub link_samples: Vec<LinkSample>,
}

/// A workload [`run_service`] can run: the processes, their clients,
/// the progress the supervision loop waits on, and the report.
pub trait ServiceApp {
    /// The protocol every process runs.
    type Proc: Protocol<Msg: Send, Event: Send> + Send + 'static;
    /// The per-process client.
    type Client: Client<Self::Proc>;
    /// The supervision loop's handle on the run: the counters and logs
    /// the clients fill.
    type Tally;
    /// What a run yields.
    type Report;

    /// Transport and scheduling configuration.
    fn live(&self) -> &LiveConfig;

    /// Wall-clock budget of the run.
    fn time_budget(&self) -> Duration;

    /// Capacity lanes per link, if the app's processes share links
    /// among independent protocol instances (see
    /// [`crate::LiveLink::with_lanes`]).
    fn lanes(&self) -> Option<(usize, LaneOf<Msg<Self>>)> {
        None
    }

    /// The processes, one client per process, and the tally.
    fn build(&self) -> (Vec<Self::Proc>, Vec<Self::Client>, Self::Tally);

    /// End-to-end completions so far (chaos recovery is timed on them).
    fn completed(&self, tally: &Self::Tally) -> u64;

    /// True once the workload is done.
    fn done(&self, tally: &Self::Tally) -> bool;

    /// Run at the top of every supervision pass.
    fn poll(&mut self, _tally: &mut Self::Tally, _runner: &MuxRunner<Self::Proc>) {}

    /// Run after every chaos harness tick.
    fn chaos_ticked(&mut self, _tally: &mut Self::Tally, _harness: &mut ChaosHarness) {}

    /// Builds the report of the stopped run.
    fn finish(self, tally: Self::Tally, run: Finished<Self::Proc>) -> Self::Report;
}

/// Runs `app` the way `run` says and returns the app's report, plus the
/// [`ChaosReport`] when a plan was given (its `fault_steps` are the
/// authoritative fault marks `snapstab_core::spec::analyze_me_epochs` /
/// `analyze_forwarding_epochs` split the merged trace at). Fallible
/// because a networked transport binds OS resources; the in-memory one
/// cannot fail.
///
/// ```
/// use snapstab_core::spec::analyze_me_trace;
/// use snapstab_runtime::{run_service, MutexServiceConfig, ServiceRun};
/// use std::time::Duration;
///
/// let cfg = MutexServiceConfig {
///     n: 3,
///     requests_per_process: 2,
///     time_budget: Duration::from_secs(30),
///     ..MutexServiceConfig::default()
/// };
/// let run = ServiceRun {
///     workers: 1,
///     ..ServiceRun::default()
/// };
/// let (report, chaos) = run_service(&cfg, run).unwrap();
/// assert!(chaos.is_none());
/// assert_eq!(report.served, 6);
/// assert!(report.requests_per_sec() > 0.0);
/// // The merged live trace passes executable Specification 3.
/// assert!(analyze_me_trace(&report.trace.unwrap(), 3).exclusivity_holds());
/// ```
pub fn run_service<A: ServiceApp>(
    app: A,
    run: ServiceRun<'_, Msg<A>>,
) -> std::io::Result<(A::Report, Option<ChaosReport>)> {
    let (processes, clients, tally) = app.build();
    let n = processes.len();
    let drivers: Vec<Option<Driver<A::Proc>>> = clients
        .into_iter()
        .map(|mut client| {
            let driver: Driver<A::Proc> = Box::new(move |proc, scribe| client.step(proc, scribe));
            Some(driver)
        })
        .collect();
    let live = app.live().clone();
    let lanes = app.lanes();
    let chaos_transport = run.chaos.map(|_| ChaosTransport::new(run.transport, n));
    let transport = match &chaos_transport {
        Some(ct) => ct,
        None => run.transport,
    };
    let chaos = run.chaos.zip(chaos_transport.as_ref().map(|ct| ct.plane()));
    let runner =
        MuxRunner::spawn_with_transport(processes, drivers, live, run.workers, transport, lanes)?;
    Ok(supervise(app, tally, runner, chaos))
}

/// The supervision loop: every 2 ms, tick the chaos harness (if any)
/// until the workload is done and the schedule drained, or the budget
/// expires; then heal, sample the links while the matrix is alive, and
/// stop.
fn supervise<A: ServiceApp>(
    mut app: A,
    mut tally: A::Tally,
    mut runner: MuxRunner<A::Proc>,
    chaos: Option<(&ChaosPlan, FaultPlane)>,
) -> (A::Report, Option<ChaosReport>) {
    let mut harness =
        chaos.map(|(plan, plane)| ChaosHarness::new(plan, plane, runner.n(), app.live()));
    let deadline = Instant::now() + app.time_budget();
    loop {
        app.poll(&mut tally, &runner);
        let work_done = app.done(&tally);
        let chaos_done = harness.as_ref().is_none_or(|h| h.done(&runner));
        if (work_done && chaos_done) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        if let Some(h) = harness.as_mut() {
            // Recovery is judged on *any* end-to-end completion.
            h.tick(&mut runner, app.completed(&tally));
            app.chaos_ticked(&mut tally, h);
        }
    }
    let chaos_report = harness.map(|h| h.finish(&mut runner));
    let link_samples = runner.link_samples();
    let record = app.live().record_trace;
    let report = runner.stop();
    let finished = Finished {
        processes: report.processes,
        trace: record.then_some(report.trace),
        stats: report.stats,
        wall: report.wall,
        link_samples,
    };
    (app.finish(tally, finished), chaos_report)
}

/// The nearest-rank quantiles (each in 0.0–1.0) of a sample, if it is
/// non-empty — one sort feeds all of them.
pub fn quantiles(samples: &[Duration], qs: &[f64]) -> Option<Vec<Duration>> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    Some(
        qs.iter()
            .map(|q| v[((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize])
            .collect(),
    )
}

/// `(min, mean, max)` of a latency sample, if it is non-empty.
pub fn min_mean_max(latencies: &[Duration]) -> Option<(Duration, Duration, Duration)> {
    let min = *latencies.iter().min()?;
    let max = *latencies.iter().max()?;
    let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
    Some((min, mean, max))
}

/// Configuration of a mutex-service run — the single-leader mutex app.
#[derive(Clone, Debug)]
pub struct MutexServiceConfig {
    /// Number of processes.
    pub n: usize,
    /// Client requests queued per process.
    pub requests_per_process: u64,
    /// Critical-section duration in activations (0 = the paper's atomic
    /// CS).
    pub cs_duration: u64,
    /// Transport and scheduling configuration.
    pub live: LiveConfig,
    /// Wall-clock budget: the run stops when every request is served or
    /// this much time has passed, whichever is first.
    pub time_budget: Duration,
}

impl Default for MutexServiceConfig {
    fn default() -> Self {
        MutexServiceConfig {
            n: 4,
            requests_per_process: 10,
            cs_duration: 0,
            live: LiveConfig::default(),
            time_budget: Duration::from_secs(30),
        }
    }
}

/// Outcome of a mutex-service run.
pub struct ServiceReport {
    /// Requests handed to the protocol (`request_cs` accepted).
    pub injected: u64,
    /// Requests served end-to-end (`Request` back to `Done`).
    pub served: u64,
    /// Critical-section entries summed over all processes (includes any
    /// spurious ones from a corrupted start; equals `served` on clean
    /// starts).
    pub cs_entries: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregate runtime counters.
    pub stats: LiveStats,
    /// The merged trace (`None` when recording was off).
    pub trace: Option<Trace<MeMsg, MeEvent>>,
    /// Final process states.
    pub processes: Vec<MeProcess>,
    /// Per-request service latencies (injection to `Done`).
    pub latencies: Vec<Duration>,
    /// Per-link counters sampled just before shutdown — the same
    /// drop/reorder/in-transit table for every transport.
    pub link_samples: Vec<LinkSample>,
}

impl ServiceReport {
    /// Served requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64()
    }

    /// Critical-section entries per second.
    pub fn cs_per_sec(&self) -> f64 {
        self.cs_entries as f64 / self.wall.as_secs_f64()
    }

    /// Transport messages enqueued per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.stats.links.enqueued as f64 / self.wall.as_secs_f64()
    }

    /// `(min, mean, max)` service latency, if any request was served.
    pub fn latency_min_mean_max(&self) -> Option<(Duration, Duration, Duration)> {
        min_mean_max(&self.latencies)
    }
}

/// The mutex app's counters, filled by its clients.
pub struct MutexTally {
    total: u64,
    injected: AtomicU64,
    served: AtomicU64,
    latencies: Mutex<Vec<Duration>>,
}

impl MutexTally {
    /// `(injected, served, latencies)`, draining the latency log.
    pub(crate) fn take(&self) -> (u64, u64, Vec<Duration>) {
        (
            self.injected.load(Ordering::Relaxed),
            self.served.load(Ordering::Relaxed),
            std::mem::take(&mut *self.latencies.lock().expect("latency log")),
        )
    }
}

/// The mutex app's client: one request at a time, until its queue is
/// empty.
pub struct MutexClient {
    remaining: u64,
    outstanding: Option<Instant>,
    tally: Arc<MutexTally>,
}

impl Client<MeProcess> for MutexClient {
    fn step(&mut self, proc: &mut MeProcess, marks: &mut impl Marks) -> bool {
        let mut progressed = false;
        if let Some(since) = self.outstanding {
            if proc.request() == RequestState::Done {
                self.tally.served.fetch_add(1, Ordering::Relaxed);
                marks.completed();
                self.tally
                    .latencies
                    .lock()
                    .expect("latency log")
                    .push(since.elapsed());
                self.outstanding = None;
                progressed = true;
            }
        }
        if self.outstanding.is_none() && self.remaining > 0 && proc.request() == RequestState::Done
        {
            marks.mark("request");
            if proc.request_cs() {
                self.remaining -= 1;
                self.outstanding = Some(Instant::now());
                self.tally.injected.fetch_add(1, Ordering::Relaxed);
                progressed = true;
            }
        }
        progressed
    }
}

impl Gauged<MeProcess> for MutexClient {
    fn gauges(&self, _proc: &MeProcess) -> (u32, u32) {
        (
            self.remaining.min(u64::from(u32::MAX)) as u32,
            u32::from(self.outstanding.is_some()),
        )
    }
}

impl ServiceApp for &MutexServiceConfig {
    type Proc = MeProcess;
    type Client = MutexClient;
    type Tally = Arc<MutexTally>;
    type Report = ServiceReport;

    fn live(&self) -> &LiveConfig {
        &self.live
    }

    fn time_budget(&self) -> Duration {
        self.time_budget
    }

    fn build(&self) -> (Vec<MeProcess>, Vec<MutexClient>, Arc<MutexTally>) {
        let n = self.n;
        let config = MeConfig {
            cs_duration: self.cs_duration,
            ..MeConfig::default()
        };
        let processes = (0..n)
            .map(|i| MeProcess::with_config(ProcessId::new(i), n, 100 + i as u64, config))
            .collect();
        let tally = Arc::new(MutexTally {
            total: self.requests_per_process * n as u64,
            injected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
        });
        let clients = (0..n)
            .map(|_| MutexClient {
                remaining: self.requests_per_process,
                outstanding: None,
                tally: tally.clone(),
            })
            .collect();
        (processes, clients, tally)
    }

    fn completed(&self, tally: &Arc<MutexTally>) -> u64 {
        tally.served.load(Ordering::Relaxed)
    }

    fn done(&self, tally: &Arc<MutexTally>) -> bool {
        self.completed(tally) >= tally.total
    }

    fn finish(self, tally: Arc<MutexTally>, run: Finished<MeProcess>) -> ServiceReport {
        let cs_entries = run.processes.iter().map(|m| m.counters().cs_entries).sum();
        let (injected, served, latencies) = tally.take();
        ServiceReport {
            injected,
            served,
            cs_entries,
            wall: run.wall,
            stats: run.stats,
            trace: run.trace,
            processes: run.processes,
            latencies,
            link_samples: run.link_samples,
        }
    }
}

/// The mutex app on a `workers`-thread pool over `transport` (the repo
/// benchmark calls it by this name).
pub fn run_mutex_service_mux_on(
    cfg: &MutexServiceConfig,
    workers: usize,
    transport: &dyn Transport<MeMsg>,
) -> std::io::Result<ServiceReport> {
    run_service(cfg, on_mux(workers, transport, None)).map(|(report, _)| report)
}

/// The mutex app on a `workers`-thread pool over `transport`, under `plan` (the
/// repo benchmark calls it by this name).
pub fn run_mutex_service_chaos_mux_on(
    cfg: &MutexServiceConfig,
    workers: usize,
    transport: &dyn Transport<MeMsg>,
    plan: &ChaosPlan,
) -> std::io::Result<(ServiceReport, ChaosReport)> {
    run_service(cfg, on_mux(workers, transport, Some(plan)))
        .map(|(report, chaos)| (report, chaos.expect("chaos plan was given")))
}

/// The run the benchmark's wrappers describe.
fn on_mux<'a, M>(
    workers: usize,
    transport: &'a dyn Transport<M>,
    chaos: Option<&'a ChaosPlan>,
) -> ServiceRun<'a, M> {
    ServiceRun {
        workers,
        transport,
        chaos,
    }
}

/// Configuration of a sharded, batching mutex-service run — the
/// sharded app. Every process hosts one [`ShardedMe`] (all `S`
/// sub-instances), and the links run one capacity lane per shard. Its
/// client walks the shards every quantum: an outstanding batch whose
/// sub-instance returned to `Done` is recorded as a grant (latencies
/// timed per member), and an idle sub-instance with queued requests
/// binds the next conflict-free batch and calls `request_cs()`. With
/// `shards == 1 && batch == 1` this degenerates to exactly the mutex
/// app's behaviour.
#[derive(Clone, Debug)]
pub struct ShardedServiceConfig {
    /// Number of processes. Each hosts every shard's sub-instance.
    pub n: usize,
    /// Number of independent protocol instances (one leader each).
    pub shards: usize,
    /// Maximum client requests served per critical-section grant.
    pub batch: usize,
    /// Client requests queued per process (all injected upfront, so the
    /// batch queues stay deep until the tail of the run). Size it by
    /// target per-shard queue depth with
    /// [`ShardedServiceConfig::with_queue_depth`].
    pub requests_per_process: u64,
    /// Resource keys are drawn uniformly from `0..key_space`; small
    /// spaces force intra-batch conflicts, large ones keep batches full.
    pub key_space: u64,
    /// Critical-section duration in activations (0 = atomic CS).
    pub cs_duration: u64,
    /// Transport and scheduling configuration.
    pub live: LiveConfig,
    /// Wall-clock budget: the run stops when every request is served or
    /// this much time has passed, whichever is first.
    pub time_budget: Duration,
}

impl ShardedServiceConfig {
    /// Returns a copy whose workload gives each per-shard client queue
    /// an initial depth of `≈ depth`: every process injects
    /// `depth * shards` requests, and the uniform hash partition spreads
    /// them `≈ depth` per shard.
    ///
    /// Shallow queues starve
    /// [`snapstab_core::request::BatchQueue::take_batch`] — with ~4
    /// requests per shard queue at `n = 64` the realized batch factor
    /// collapsed to 2.93 of 8 — so deepening them is the lever for batch
    /// efficiency at large `n`. The CLI exposes this as
    /// `snapstab live --queue-depth D`.
    pub fn with_queue_depth(mut self, depth: u64) -> Self {
        self.requests_per_process = depth * self.shards as u64;
        self
    }
}

impl Default for ShardedServiceConfig {
    fn default() -> Self {
        ShardedServiceConfig {
            n: 4,
            shards: 2,
            batch: 4,
            requests_per_process: 10,
            key_space: 1 << 16,
            cs_duration: 0,
            live: LiveConfig::default(),
            time_budget: Duration::from_secs(30),
        }
    }
}

/// Outcome of a sharded service run.
pub struct ShardedReport {
    /// Every injected client request (globally unique ids) — the audit's
    /// reference set.
    pub injected: Vec<ClientRequest>,
    /// Requests served end-to-end (batch members of observed grants).
    pub served: u64,
    /// Requests served per shard.
    pub per_shard_served: Vec<u64>,
    /// The grant log: one entry per critical-section grant, carrying its
    /// batch. [`ShardedReport::audit`] checks it.
    pub grant_log: GrantLog,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregate runtime counters.
    pub stats: LiveStats,
    /// The merged sharded trace (`None` when recording was off); project
    /// per shard with [`snapstab_core::shard::project_shard_trace`].
    pub trace: Option<Trace<ShardedMeMsg, ShardedMeEvent>>,
    /// Final composite process states.
    pub processes: Vec<ShardedMe>,
    /// Per-request service latencies (batch bind to grant observation).
    pub latencies: Vec<Duration>,
    /// Per-link counters sampled just before shutdown (lanes summed per
    /// link).
    pub link_samples: Vec<LinkSample>,
}

impl ShardedReport {
    /// Served requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64()
    }

    /// Critical-section grants per second (sum over shards).
    pub fn grants_per_sec(&self) -> f64 {
        self.grant_log.len() as f64 / self.wall.as_secs_f64()
    }

    /// Transport messages enqueued per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.stats.links.enqueued as f64 / self.wall.as_secs_f64()
    }

    /// Mean requests served per grant (the realized batch factor).
    pub fn mean_batch(&self) -> f64 {
        if self.grant_log.is_empty() {
            0.0
        } else {
            self.served as f64 / self.grant_log.len() as f64
        }
    }

    /// Runs the grant-log audit: batches conflict-free, routing
    /// respected, every injected request served exactly once.
    pub fn audit(&self) -> GrantAudit {
        self.grant_log
            .audit(self.per_shard_served.len(), &self.injected)
    }

    /// The nearest-rank quantiles (each in 0.0–1.0) of the service
    /// latencies, if any request was served — one sort feeds all of them,
    /// so ask for p50 and p99 in one call.
    pub fn latency_quantiles(&self, qs: &[f64]) -> Option<Vec<Duration>> {
        quantiles(&self.latencies, qs)
    }

    /// The `q`-quantile of the service latencies; for several quantiles
    /// prefer one [`ShardedReport::latency_quantiles`] call.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        self.latency_quantiles(&[q]).map(|v| v[0])
    }

    /// `(min, mean, max)` service latency, if any request was served.
    pub fn latency_min_mean_max(&self) -> Option<(Duration, Duration, Duration)> {
        min_mean_max(&self.latencies)
    }
}

/// The sharded app's counters, filled by its clients.
pub struct ShardedTally {
    injected: Vec<ClientRequest>,
    log: Arc<GrantTally>,
}

struct GrantTally {
    served: AtomicU64,
    per_shard_served: Vec<AtomicU64>,
    grant_log: Mutex<GrantLog>,
    latencies: Mutex<Vec<Duration>>,
}

/// The sharded app's client: per shard, one outstanding batch at a
/// time, bound from that shard's queue.
pub struct ShardedClient {
    queues: Vec<BatchQueue>,
    outstanding: Vec<Option<(Instant, Vec<ClientRequest>)>>,
    log: Arc<GrantTally>,
}

impl Client<ShardedMe> for ShardedClient {
    fn step(&mut self, proc: &mut ShardedMe, marks: &mut impl Marks) -> bool {
        let mut progressed = false;
        for s in 0..proc.shard_count() {
            if proc.shard(s).request() != RequestState::Done {
                continue;
            }
            if let Some((since, batch)) = self.outstanding[s].take() {
                let step = marks.mark(shard_marker("grant", s));
                let elapsed = since.elapsed();
                {
                    let mut lat = self.log.latencies.lock().expect("latency log");
                    lat.extend(batch.iter().map(|_| elapsed));
                }
                let served = batch.len() as u64;
                self.log.served.fetch_add(served, Ordering::Relaxed);
                self.log.per_shard_served[s].fetch_add(served, Ordering::Relaxed);
                for _ in 0..served {
                    marks.completed();
                }
                self.log
                    .grant_log
                    .lock()
                    .expect("grant log")
                    .record(s, marks.me(), step, batch);
                progressed = true;
            }
            if !self.queues[s].is_empty() {
                let batch = self.queues[s].take_batch();
                marks.mark(shard_marker("request", s));
                assert!(proc.shard_mut(s).request_cs(), "sub-instance was Done");
                self.outstanding[s] = Some((Instant::now(), batch));
                progressed = true;
            }
        }
        progressed
    }
}

impl ServiceApp for &ShardedServiceConfig {
    type Proc = ShardedMe;
    type Client = ShardedClient;
    type Tally = ShardedTally;
    type Report = ShardedReport;

    fn live(&self) -> &LiveConfig {
        &self.live
    }

    fn time_budget(&self) -> Duration {
        self.time_budget
    }

    /// S shards share each directed link. A naive share would let
    /// sibling shards trigger the §4 drop-on-full rule against each
    /// other and collapse throughput into retransmission; instead the
    /// link runs one capacity lane per shard, so every instance sees
    /// exactly a capacity-`live.capacity` channel of its own.
    fn lanes(&self) -> Option<(usize, LaneOf<ShardedMeMsg>)> {
        Some((self.shards, Arc::new(|m: &ShardedMeMsg| m.shard as usize)))
    }

    fn build(&self) -> (Vec<ShardedMe>, Vec<ShardedClient>, ShardedTally) {
        let (n, shards) = (self.n, self.shards);
        // With one lane per shard, the per-instance flag domain is sized
        // by the ordinary §4 rule for the lane capacity (the default
        // `live.capacity = 1` keeps the paper's five flags).
        let me_config = MeConfig {
            cs_duration: self.cs_duration,
            flag_domain: snapstab_core::flag::FlagDomain::for_capacity(self.live.capacity.max(1)),
            ..MeConfig::default()
        };
        let processes = (0..n)
            .map(|i| ShardedMe::new(ProcessId::new(i), n, shards, me_config))
            .collect();
        // The deterministic request workload is built by the same helper
        // the simulator mirror uses (`shard::inject_requests`), so the
        // sim-vs-live conformance tests always compare identical streams.
        let (injected, queues) = inject_requests(
            n,
            self.requests_per_process,
            self.key_space,
            self.live.seed,
            shards,
            self.batch,
        );
        let log = Arc::new(GrantTally {
            served: AtomicU64::new(0),
            per_shard_served: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            grant_log: Mutex::new(GrantLog::new(shards)),
            latencies: Mutex::new(Vec::new()),
        });
        let clients = queues
            .into_iter()
            .map(|queues| ShardedClient {
                queues,
                outstanding: vec![None; shards],
                log: log.clone(),
            })
            .collect();
        (processes, clients, ShardedTally { injected, log })
    }

    fn completed(&self, tally: &ShardedTally) -> u64 {
        tally.log.served.load(Ordering::Relaxed)
    }

    fn done(&self, tally: &ShardedTally) -> bool {
        self.completed(tally) >= tally.injected.len() as u64
    }

    fn finish(self, tally: ShardedTally, run: Finished<ShardedMe>) -> ShardedReport {
        let log = &tally.log;
        ShardedReport {
            served: log.served.load(Ordering::Relaxed),
            per_shard_served: log
                .per_shard_served
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            grant_log: std::mem::take(&mut *log.grant_log.lock().expect("grant log")),
            latencies: std::mem::take(&mut *log.latencies.lock().expect("latency log")),
            injected: tally.injected,
            wall: run.wall,
            stats: run.stats,
            trace: run.trace,
            processes: run.processes,
            link_samples: run.link_samples,
        }
    }
}

/// Configuration of a forwarding-service run — the forwarding app: one
/// [`ForwardProcess`] per process of the line, a per-process injection
/// queue fed by the deterministic [`forward_workload`] stream, and
/// end-to-end delivery latencies timed from injection at the source to
/// collection at the destination.
///
/// ```
/// use snapstab_runtime::{run_service, ForwardingServiceConfig, ServiceRun};
/// use snapstab_core::spec::analyze_forwarding_trace;
/// use std::time::Duration;
///
/// let cfg = ForwardingServiceConfig {
///     n: 3,
///     payloads_per_process: 2,
///     prefill_stale: true, // adversarial initial buffers
///     time_budget: Duration::from_secs(30),
///     ..ForwardingServiceConfig::default()
/// };
/// let (report, _) = run_service(&cfg, ServiceRun::default()).unwrap();
/// assert_eq!(report.delivered, 6);
/// // The merged live trace passes executable Specification 4.
/// let spec = analyze_forwarding_trace(&report.trace.unwrap(), 3);
/// assert!(spec.holds());
/// ```
///
/// Under chaos, state corruption can destroy payloads *in flight
/// through protocol buffers*, so unlike the fault-free service a chaos
/// run may end below its delivery total when the budget expires — the
/// epoch checker (`snapstab_core::spec::analyze_forwarding_epochs`)
/// classifies those payloads as interrupted at a fault boundary rather
/// than lost.
#[derive(Clone, Debug)]
pub struct ForwardingServiceConfig {
    /// Number of processes on the line.
    pub n: usize,
    /// Client payloads injected per process (destinations drawn
    /// uniformly by the shared
    /// [`forward_workload`] stream).
    pub payloads_per_process: u64,
    /// Per-lane buffer capacity of every process.
    pub buffer_cap: usize,
    /// Start from adversarially pre-filled buffers: every process's
    /// lanes and hop slots are stuffed with distinct stale entries
    /// before the pool spawns
    /// ([`ForwardProcess::prefill_stale`]) — the
    /// arbitrary-initial-buffer configuration Specification 4 is judged
    /// against.
    pub prefill_stale: bool,
    /// Transport and scheduling configuration. The per-hop flag domain
    /// is sized from `live.capacity` by the §4 rule.
    pub live: LiveConfig,
    /// Wall-clock budget: the run stops when every genuine payload is
    /// delivered or this much time has passed, whichever is first.
    pub time_budget: Duration,
}

impl Default for ForwardingServiceConfig {
    fn default() -> Self {
        ForwardingServiceConfig {
            n: 4,
            payloads_per_process: 10,
            buffer_cap: 4,
            prefill_stale: false,
            live: LiveConfig::default(),
            time_budget: Duration::from_secs(30),
        }
    }
}

/// Outcome of a forwarding-service run.
pub struct ForwardingServiceReport {
    /// Genuine payloads handed to the protocol (`request_send`
    /// accepted).
    pub injected: u64,
    /// Genuine payloads delivered end-to-end at their destinations.
    pub delivered: u64,
    /// Spurious deliveries: stale pre-filled entries flushed end-to-end
    /// (allowed by Specification 4, at most once each).
    pub spurious: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregate runtime counters.
    pub stats: LiveStats,
    /// The merged trace (`None` when recording was off), ready for
    /// [`snapstab_core::spec::analyze_forwarding_trace`].
    pub trace: Option<Trace<ForwardMsg, ForwardEvent>>,
    /// Final process states.
    pub processes: Vec<ForwardProcess>,
    /// Per-payload end-to-end latencies (injection to delivery at the
    /// destination).
    pub latencies: Vec<Duration>,
    /// Per-link counters sampled just before shutdown — the same
    /// drop/reorder/in-transit table for every transport.
    pub link_samples: Vec<LinkSample>,
}

impl ForwardingServiceReport {
    /// Genuine payloads delivered per second.
    pub fn payloads_per_sec(&self) -> f64 {
        self.delivered as f64 / self.wall.as_secs_f64()
    }

    /// Transport messages enqueued per second.
    pub fn msgs_per_sec(&self) -> f64 {
        self.stats.links.enqueued as f64 / self.wall.as_secs_f64()
    }

    /// `(min, mean, max)` end-to-end latency, if anything was delivered.
    pub fn latency_min_mean_max(&self) -> Option<(Duration, Duration, Duration)> {
        min_mean_max(&self.latencies)
    }
}

/// The forwarding app's counters, filled by its clients.
pub struct ForwardTally {
    total: u64,
    injected: AtomicU64,
    delivered: AtomicU64,
    spurious: AtomicU64,
    /// Injection timestamps by payload id, written at the source and
    /// read at the destination (different workers).
    inject_times: Mutex<HashMap<u64, Instant>>,
    latencies: Mutex<Vec<Duration>>,
}

impl ForwardTally {
    /// `(injected, delivered, spurious, latencies)`, draining the
    /// latency log.
    pub(crate) fn take(&self) -> (u64, u64, u64, Vec<Duration>) {
        (
            self.injected.load(Ordering::Relaxed),
            self.delivered.load(Ordering::Relaxed),
            self.spurious.load(Ordering::Relaxed),
            std::mem::take(&mut *self.latencies.lock().expect("latency log")),
        )
    }
}

/// The forwarding app's client: collects deliveries, injects the next
/// queued payload whenever the process can take one.
pub struct ForwardClient {
    queue: VecDeque<Payload>,
    tally: Arc<ForwardTally>,
}

impl Client<ForwardProcess> for ForwardClient {
    fn step(&mut self, proc: &mut ForwardProcess, marks: &mut impl Marks) -> bool {
        let mut progressed = false;
        for payload in proc.take_delivered() {
            // Stale flushes complete too: a monitor's causal bound must
            // match what its gauges count.
            marks.completed();
            if payload.id & STALE_ID_BIT == 0 {
                self.tally.delivered.fetch_add(1, Ordering::Relaxed);
                let since = self
                    .tally
                    .inject_times
                    .lock()
                    .expect("timestamps")
                    .remove(&payload.id);
                if let Some(since) = since {
                    self.tally
                        .latencies
                        .lock()
                        .expect("latency log")
                        .push(since.elapsed());
                }
            } else {
                self.tally.spurious.fetch_add(1, Ordering::Relaxed);
            }
            progressed = true;
        }
        if proc.can_inject() {
            if let Some(&payload) = self.queue.front() {
                self.tally
                    .inject_times
                    .lock()
                    .expect("timestamps")
                    .insert(payload.id, Instant::now());
                assert!(proc.request_send(payload), "workload stays in domain");
                self.queue.pop_front();
                self.tally.injected.fetch_add(1, Ordering::Relaxed);
                progressed = true;
            }
        }
        progressed
    }
}

impl Gauged<ForwardProcess> for ForwardClient {
    fn gauges(&self, proc: &ForwardProcess) -> (u32, u32) {
        (
            self.queue.len().min(u32::MAX as usize) as u32,
            proc.buffered().min(u32::MAX as usize) as u32,
        )
    }
}

impl ServiceApp for &ForwardingServiceConfig {
    type Proc = ForwardProcess;
    type Client = ForwardClient;
    type Tally = Arc<ForwardTally>;
    type Report = ForwardingServiceReport;

    fn live(&self) -> &LiveConfig {
        &self.live
    }

    fn time_budget(&self) -> Duration {
        self.time_budget
    }

    fn build(&self) -> (Vec<ForwardProcess>, Vec<ForwardClient>, Arc<ForwardTally>) {
        let n = self.n;
        let config = ForwardConfig {
            buffer_cap: self.buffer_cap,
            // §4: the per-hop handshake domain is sized by the channel
            // capacity the transport enforces.
            flag_domain: snapstab_core::flag::FlagDomain::for_capacity(self.live.capacity.max(1)),
        };
        let mut processes: Vec<ForwardProcess> = (0..n)
            .map(|i| ForwardProcess::new(ProcessId::new(i), n, config))
            .collect();
        if self.prefill_stale {
            let mut rng = SimRng::seed_from(self.live.seed ^ 0x57A1_EB0F);
            for proc in &mut processes {
                proc.prefill_stale(&mut rng);
            }
        }
        let workload = forward_workload(n, self.payloads_per_process, self.live.seed);
        let tally = Arc::new(ForwardTally {
            total: workload.iter().map(|w| w.len() as u64).sum(),
            injected: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            spurious: AtomicU64::new(0),
            inject_times: Mutex::new(HashMap::new()),
            latencies: Mutex::new(Vec::new()),
        });
        let clients = workload
            .into_iter()
            .map(|stream| ForwardClient {
                queue: stream.into(),
                tally: tally.clone(),
            })
            .collect();
        (processes, clients, tally)
    }

    /// Genuine deliveries and spurious flushes alike: a corrupted run
    /// may finish below its delivery total.
    fn completed(&self, tally: &Arc<ForwardTally>) -> u64 {
        tally.delivered.load(Ordering::Relaxed) + tally.spurious.load(Ordering::Relaxed)
    }

    fn done(&self, tally: &Arc<ForwardTally>) -> bool {
        tally.delivered.load(Ordering::Relaxed) >= tally.total
    }

    fn finish(
        self,
        tally: Arc<ForwardTally>,
        run: Finished<ForwardProcess>,
    ) -> ForwardingServiceReport {
        let (injected, delivered, spurious, latencies) = tally.take();
        ForwardingServiceReport {
            injected,
            delivered,
            spurious,
            wall: run.wall,
            stats: run.stats,
            trace: run.trace,
            processes: run.processes,
            latencies,
            link_samples: run.link_samples,
        }
    }
}

/// The forwarding app on a `workers`-thread pool over `transport` (the repo
/// benchmark calls it by this name).
pub fn run_forwarding_service_mux_on(
    cfg: &ForwardingServiceConfig,
    workers: usize,
    transport: &dyn Transport<ForwardMsg>,
) -> std::io::Result<ForwardingServiceReport> {
    run_service(cfg, on_mux(workers, transport, None)).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_core::spec::analyze_me_trace;

    fn in_memory<A: ServiceApp>(app: A) -> A::Report {
        run_service(app, ServiceRun::default())
            .expect("in-memory")
            .0
    }

    #[test]
    fn small_service_serves_every_request() {
        let cfg = MutexServiceConfig {
            n: 3,
            requests_per_process: 2,
            time_budget: Duration::from_secs(45),
            ..MutexServiceConfig::default()
        };
        let report = in_memory(&cfg);
        assert_eq!(report.injected, 6, "all requests injected");
        assert_eq!(report.served, 6, "all requests served");
        assert_eq!(report.latencies.len(), 6);
        assert!(report.latency_min_mean_max().is_some());
        // The merged trace passes the Specification 3 analysis.
        let trace = report.trace.expect("recording on by default");
        let me = analyze_me_trace(&trace, cfg.n);
        assert!(
            me.exclusivity_holds(),
            "genuine CS overlaps: {:?}",
            me.genuine_overlaps
        );
        assert_eq!(me.served.len(), 6);
        assert!(me.all_served());
    }

    #[test]
    fn sharded_service_serves_audits_and_batches() {
        let cfg = ShardedServiceConfig {
            n: 3,
            shards: 2,
            batch: 3,
            requests_per_process: 6,
            key_space: 4, // small space: conflicts must be split across grants
            time_budget: Duration::from_secs(45),
            ..ShardedServiceConfig::default()
        };
        let report = in_memory(&cfg);
        assert_eq!(report.served, 18, "all requests served");
        assert_eq!(report.latencies.len(), 18);
        let audit = report.audit();
        assert!(audit.holds(), "{audit:?}");
        assert_eq!(
            report.per_shard_served.iter().sum::<u64>(),
            report.served,
            "per-shard counters add up"
        );
        assert!(report.mean_batch() >= 1.0);
        assert!(report.latency_quantile(0.5) <= report.latency_quantile(0.99));
        // Per-shard Specification 3 on the projected merged trace.
        let trace = report.trace.expect("recording on by default");
        for s in 0..cfg.shards {
            let shard_trace = snapstab_core::shard::project_shard_trace(&trace, s);
            let me = analyze_me_trace(&shard_trace, cfg.n);
            assert!(
                me.exclusivity_holds(),
                "shard {s} genuine CS overlap: {:?}",
                me.genuine_overlaps
            );
            assert!(me.all_served(), "shard {s} unserved: {:?}", me.unserved);
        }
    }

    #[test]
    fn sharded_service_with_one_shard_one_batch_degenerates() {
        let cfg = ShardedServiceConfig {
            n: 3,
            shards: 1,
            batch: 1,
            requests_per_process: 2,
            live: LiveConfig {
                record_trace: false,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(45),
            ..ShardedServiceConfig::default()
        };
        let report = in_memory(&cfg);
        assert_eq!(report.served, 6);
        assert_eq!(
            report.grant_log.len(),
            6,
            "one grant per request when batch=1"
        );
        assert!((report.mean_batch() - 1.0).abs() < 1e-9);
        assert!(report.audit().holds());
        assert!(report.trace.is_none());
    }

    #[test]
    fn queue_depth_overrides_requests_per_process() {
        let cfg = ShardedServiceConfig {
            n: 3,
            shards: 2,
            batch: 2,
            requests_per_process: 1, // overwritten by with_queue_depth
            live: LiveConfig {
                record_trace: false,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(45),
            ..ShardedServiceConfig::default()
        }
        .with_queue_depth(3);
        assert_eq!(cfg.requests_per_process, 6, "depth 3 × 2 shards");
        let report = in_memory(&cfg);
        // 3 processes × (queue_depth 3 × 2 shards) requests each.
        assert_eq!(report.injected.len(), 18);
        assert_eq!(report.served, 18);
        assert!(report.audit().holds());
    }

    #[test]
    fn forwarding_service_delivers_everything() {
        let cfg = ForwardingServiceConfig {
            n: 3,
            payloads_per_process: 3,
            time_budget: Duration::from_secs(45),
            ..ForwardingServiceConfig::default()
        };
        let report = in_memory(&cfg);
        assert_eq!(report.injected, 9);
        assert_eq!(report.delivered, 9);
        assert_eq!(report.spurious, 0, "clean start flushes nothing");
        assert_eq!(report.latencies.len(), 9);
        assert!(report.latency_min_mean_max().is_some());
        assert!(report.payloads_per_sec() > 0.0);
        let trace = report.trace.expect("recording on by default");
        let spec = snapstab_core::spec::analyze_forwarding_trace(&trace, cfg.n);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.delivered.len(), 9);
    }

    #[test]
    fn forwarding_service_with_stale_buffers_and_loss_still_holds() {
        let cfg = ForwardingServiceConfig {
            n: 4,
            payloads_per_process: 2,
            buffer_cap: 2,
            prefill_stale: true,
            live: LiveConfig {
                loss: 0.2,
                seed: 0xF0D,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(45),
        };
        let report = in_memory(&cfg);
        assert_eq!(report.delivered, 8, "all genuine payloads delivered");
        assert!(report.stats.links.lost_in_transit > 0, "loss was active");
        let trace = report.trace.expect("recording on by default");
        let spec = snapstab_core::spec::analyze_forwarding_trace(&trace, cfg.n);
        assert!(spec.holds(), "{spec:?}");
    }

    #[test]
    fn chaos_mutex_service_serves_and_epochs_hold() {
        use crate::chaos::ChaosMix;
        let cfg = MutexServiceConfig {
            n: 3,
            requests_per_process: 4,
            live: LiveConfig {
                seed: 3,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(60),
            ..MutexServiceConfig::default()
        };
        let plan = ChaosPlan {
            bursts: 2,
            quiet: Duration::from_millis(25),
            disruption: Duration::from_millis(15),
            ..ChaosPlan::profile(ChaosMix::All, 3)
        };
        let run = ServiceRun {
            chaos: Some(&plan),
            ..ServiceRun::default()
        };
        let (report, chaos) = run_service(&cfg, run).expect("in-memory");
        let chaos = chaos.expect("chaos plan was given");
        assert_eq!(report.served, 12, "every request served despite chaos");
        assert_eq!(chaos.bursts_fired, 2, "both bursts landed mid-run");
        assert!(!chaos.fault_steps.is_empty(), "corruption was injected");
        let trace = report.trace.expect("recording on by default");
        let epochs = snapstab_core::spec::analyze_me_epochs(&trace, cfg.n, &chaos.fault_steps);
        assert!(
            epochs.holds(),
            "per-epoch Specification 3 verdict: {epochs:?}"
        );
        assert_eq!(epochs.epochs_checked(), chaos.fault_steps.len() + 1);
    }

    /// At the default [`crate::TraceDetail::Spec`] each app records
    /// exactly what its specification reads — no activation, send or
    /// delivery, no PIF wave event of any shard, no forwarding relay
    /// hop — and the verdicts still hold on that trace.
    #[test]
    fn spec_detail_traces_hold_only_what_the_specs_read() {
        use snapstab_sim::TraceEvent;
        fn wire<M, E>(trace: &Trace<M, E>) -> usize {
            trace.count(|e| {
                matches!(
                    e,
                    TraceEvent::Activated { .. }
                        | TraceEvent::Sent { .. }
                        | TraceEvent::Delivered { .. }
                )
            })
        }
        let mutex = MutexServiceConfig {
            n: 3,
            requests_per_process: 2,
            time_budget: Duration::from_secs(45),
            ..MutexServiceConfig::default()
        };
        let trace = in_memory(&mutex).trace.expect("recording on");
        assert_eq!(wire(&trace), 0);
        let me = analyze_me_trace(&trace, mutex.n);
        assert!(me.exclusivity_holds() && me.all_served(), "{me:?}");
        assert_eq!(me.served.len(), 6);

        let sharded = ShardedServiceConfig {
            n: 3,
            shards: 2,
            batch: 2,
            requests_per_process: 4,
            time_budget: Duration::from_secs(45),
            ..ShardedServiceConfig::default()
        };
        let report = in_memory(&sharded);
        assert!(report.audit().holds(), "{:?}", report.audit());
        let trace = report.trace.expect("recording on");
        assert_eq!(wire(&trace), 0);
        let waves = trace.count(|e| {
            matches!(
                e,
                TraceEvent::Protocol {
                    event: ShardedMeEvent {
                        event: MeEvent::Pif(_),
                        ..
                    },
                    ..
                }
            )
        });
        assert_eq!(waves, 0, "no shard's PIF wave events are kept");
        for s in 0..sharded.shards {
            let shard_trace = snapstab_core::shard::project_shard_trace(&trace, s);
            let me = analyze_me_trace(&shard_trace, sharded.n);
            assert!(
                me.exclusivity_holds() && me.all_served(),
                "shard {s}: {me:?}"
            );
        }

        let forward = ForwardingServiceConfig {
            n: 4,
            payloads_per_process: 3,
            time_budget: Duration::from_secs(45),
            ..ForwardingServiceConfig::default()
        };
        let trace = in_memory(&forward).trace.expect("recording on");
        assert_eq!(wire(&trace), 0);
        let hops = trace.count(|e| {
            matches!(
                e,
                TraceEvent::Protocol {
                    event: ForwardEvent::Accepted { .. }
                        | ForwardEvent::Forwarded { .. }
                        | ForwardEvent::DroppedInvalid { .. },
                    ..
                }
            )
        });
        assert_eq!(hops, 0, "relay hops are not kept");
        let spec = snapstab_core::spec::analyze_forwarding_trace(&trace, forward.n);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.delivered.len(), 12);
    }

    #[test]
    fn lossy_service_still_serves() {
        let cfg = MutexServiceConfig {
            n: 3,
            requests_per_process: 1,
            live: LiveConfig {
                loss: 0.2,
                seed: 11,
                record_trace: false,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(45),
            ..MutexServiceConfig::default()
        };
        let report = in_memory(&cfg);
        assert_eq!(report.served, 3, "all requests served under 20% loss");
        assert!(report.stats.links.lost_in_transit > 0);
        assert!(report.trace.is_none());
        assert!(report.requests_per_sec() > 0.0);
        assert!(report.msgs_per_sec() > 0.0);
        assert!(report.cs_per_sec() > 0.0);
    }
}
