//! # snapstab-runtime — the paper's protocols on real OS threads
//!
//! Everything else in this reproduction runs inside the single-threaded
//! deterministic simulator (`snapstab-sim`). This crate is the *live*
//! execution substrate: the same [`Protocol`](snapstab_sim::Protocol)
//! implementations — `PifProcess`, `IdlProcess`, `MeProcess`, the apps
//! layer — run **unchanged** with one worker thread per process, joined
//! by a concurrent transport ([`LiveLink`]) that preserves the paper's
//! channel semantics:
//!
//! * **bounded capacity, silent drop-on-full** (§4): a send into a full
//!   link vanishes without notifying the sender;
//! * **FIFO order** per directed link;
//! * **seeded probabilistic loss** strictly below 1, satisfying the
//!   fair-lossy assumption (infinitely many sends ⇒ infinitely many
//!   receipts);
//! * **optional delivery-delay jitter**, widening the set of real
//!   interleavings a run explores.
//!
//! Workers reuse the simulator's [`Context`](snapstab_sim::Context) for
//! every atomic action, so protocol code cannot tell which substrate it
//! runs on. Each atomic action draws a ticket from a global atomic step
//! counter and logs its events into a per-worker
//! [`Trace`](snapstab_sim::Trace); [`LiveRunner::stop`] merges the logs
//! into one
//! step-ordered trace — a total order consistent with program order and
//! real-time causality — on which the executable specifications of
//! `snapstab_core::spec` (Safety / Correctness / Decision) judge the
//! *live* run exactly as they judge simulated ones.
//!
//! ## Quick tour
//!
//! ```
//! use snapstab_core::idl::IdlProcess;
//! use snapstab_core::request::RequestState;
//! use snapstab_runtime::{LiveConfig, LiveRunner};
//! use snapstab_sim::ProcessId;
//! use std::time::Duration;
//!
//! // Three IDs-Learning processes on three OS threads, 10% message loss.
//! let processes: Vec<IdlProcess> = (0..3)
//!     .map(|i| IdlProcess::new(ProcessId::new(i), 3, 10 + i as u64))
//!     .collect();
//! let mut runner = LiveRunner::spawn(
//!     processes,
//!     LiveConfig { loss: 0.1, seed: 42, ..LiveConfig::default() },
//! );
//! runner.with_process(ProcessId::new(0), |p: &mut IdlProcess| p.request_learning());
//! assert!(runner.wait_until(
//!     ProcessId::new(0),
//!     |p: &IdlProcess| p.request() == RequestState::Done,
//!     Duration::from_secs(30),
//! ));
//! let report = runner.stop();
//! assert_eq!(report.processes[0].idl().min_id(), 10);
//! ```
//!
//! ## The mutex service — single-leader and sharded
//!
//! [`run_mutex_service`] puts Algorithm 3 behind a client request queue:
//! every worker's driver hook injects critical-section requests as fast
//! as the protocol serves them, timing each one. `exp_rtbench` (in
//! `snapstab-bench`) and the `snapstab live` CLI subcommand drive it at
//! up to 64 threads and hundreds of thousands of requests; committed
//! throughput numbers live in `BENCH_RUNTIME.json`.
//!
//! That service is protocol-bound: one grant per leader `Value` rotation.
//! [`run_sharded_service`] multiplies the ceiling — each worker hosts `S`
//! independent protocol instances (`snapstab_core::shard::ShardedMe`,
//! leaders spread round-robin), the resource space is hash-partitioned
//! across shards, and every grant serves a batch of non-conflicting
//! client requests atomically inside one critical section:
//!
//! ```
//! use snapstab_runtime::{run_sharded_service, LiveConfig, ShardedServiceConfig};
//! use std::time::Duration;
//!
//! let report = run_sharded_service(&ShardedServiceConfig {
//!     n: 3,          // worker threads
//!     shards: 2,     // independent leaders
//!     batch: 2,      // max client requests per grant
//!     requests_per_process: 2,
//!     live: LiveConfig { seed: 7, ..LiveConfig::default() },
//!     time_budget: Duration::from_secs(30),
//!     ..ShardedServiceConfig::default()
//! });
//! assert_eq!(report.served, 6);
//! // The grant log audits the composition: conflict-free batches,
//! // correct shard routing, every request served exactly once.
//! assert!(report.audit().holds());
//! ```
//!
//! ## The forwarding service
//!
//! [`run_forwarding_service`] drives the snap-stabilizing *message
//! forwarding* protocol (`snapstab_core::forward`): every worker hosts
//! one hop of the process line, a per-process injection queue feeds
//! client payloads, and end-to-end delivery latencies are timed from
//! source to destination. Runs may start from adversarially pre-filled
//! buffers (`prefill_stale`), and the merged trace is judged by
//! executable Specification 4
//! (`snapstab_core::spec::analyze_forwarding_trace`) — the same checker
//! the simulator harness uses.
//!
//! ## Pluggable transports
//!
//! The runner is generic over its message substrate: the [`Transport`]
//! trait builds the directed [`Link`] matrix, and everything above it —
//! workers, services, trace merging, the spec checkers — is
//! backend-agnostic. [`InMemory`] (the default) wires [`LiveLink`]s;
//! `snapstab-net`'s `UdpLoopback` wires links that share one real UDP
//! socket, with the same §4 semantics enforced per record in the receive
//! path. A transport owns no thread: a `send` that cannot deliver on the
//! spot stages its message, and the workers of either backend call
//! [`Link::pump`] once per scheduling quantum to move what is staged and
//! deliver what has arrived (a no-op in memory). Pass a backend to
//! [`LiveRunner::spawn_with_transport`], [`run_mutex_service_on`] or
//! [`run_sharded_service_on`].
//!
//! ## Two backends, one seam
//!
//! Thread-per-process is faithful to the paper's model but tops out
//! around 64 processes on commodity hardware: past that, the OS spends
//! its time context-switching. The [`mux`] module adds an event-driven
//! backend — [`MuxRunner`] multiplexes N protocol *instances* over a
//! small worker pool, scheduling them through a ready queue keyed by
//! link traffic — that runs the same protocols, transports, and trace
//! stamping unchanged at n = 1024 and beyond. Everything above the
//! runner (services, chaos, the spec checkers) is written against the
//! [`RuntimeBackend`] trait, so the backends are interchangeable; the
//! cross-backend conformance suite (`tests/mux_runtime.rs`) drives the
//! same seeded workloads through both and holds their merged traces to
//! the same specifications. Mux entry points mirror the thread ones:
//! [`run_mutex_service_mux`], [`run_forwarding_service_mux`], and their
//! `_on` / chaos variants.
//!
//! ## Crash and restart
//!
//! [`LiveRunner::crash`] joins a worker's thread mid-run (its state and
//! log survive); [`LiveRunner::restart`] respawns it on a fresh thread.
//! Because the protocols are snap-stabilizing, computations started after
//! the restart satisfy their specifications immediately — the stress
//! tests in `tests/live_runtime.rs` exercise exactly that.
//!
//! ## Chaos and supervision
//!
//! The [`chaos`] module turns "from any configuration" into a live
//! experiment: a [`ChaosEngine`] walks a seeded [`ChaosPlan`] of fault
//! bursts against a running service — mid-flight state corruption,
//! crash storms, link partitions and drop storms (the latter two through
//! [`ChaosTransport`], a [`Transport`] decorator degrading in-memory and
//! UDP links identically) — while a [`Supervisor`] watchdog detects
//! crashed or wedged workers and restarts them with *adversarially
//! corrupted* state under bounded exponential backoff. The resulting
//! [`ChaosReport`] carries the authoritative fault steps at which
//! `snapstab_core::spec::analyze_me_epochs` /
//! `analyze_forwarding_epochs` segment the merged trace, requiring the
//! paper's specifications to hold per epoch. [`run_mutex_service_chaos_on`]
//! and [`run_forwarding_service_chaos_on`] package the whole loop.
//!
//! ## Observability — monitoring cuts
//!
//! The [`monitor`] module composes any service protocol with the §4.1
//! snapshot application on the *same* transport: a [`Monitored`] process
//! multiplexes service and monitor planes over [`MonitoredMsg`], and
//! each of K configured initiators ([`MonitorConfig::initiators`])
//! periodically starts a snap-stabilizing snapshot wave — on its own
//! schedule, waves overlapping freely — that collects a consistent
//! global cut of [`ProbeDigest`] values — per-process protocol-state
//! digests, queue depths, in-flight counts — plus per-link counter
//! samples ([`LinkSample`]), without pausing any worker.
//! [`run_monitored_mutex_service`] and
//! [`run_monitored_forwarding_service`] package the wiring on the
//! thread backend; [`run_monitored_mutex_service_mux`] and
//! [`run_monitored_forwarding_service_mux`] run the same composition on
//! the multiplexed pool, so one cut spans hundreds of instances. Every
//! cut in the merged trace is judged by executable Specification 5
//! (`snapstab_core::spec::analyze_snapshot_trace`), which attributes
//! each decided cut to the ledger that requested it.
//!
//! The [`telemetry`] module turns the cut stream into first-class
//! metrics: [`Series`] differences consecutive cuts per initiator into
//! rate signals (served/s, queue-depth delta, in-flight drift, link
//! loss rate), [`AlertMonitor`] raises threshold alerts — refusal
//! streaks, stalled served counters, queue runaway — recorded as
//! `alert:` trace marks so alert behavior is itself spec-checkable, and
//! stalled-served alerts feed [`ChaosHarness::suspect_all`] as an extra
//! supervisor wedge signal. Everything streams as schema-stable JSON
//! lines ([`SeriesPoint::json_line`], [`summary_json_line`]).
//!
//! [`ProbeDigest`]: snapstab_core::probe::ProbeDigest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod link;
pub mod monitor;
pub mod mux;
pub mod runner;
pub mod service;
pub mod telemetry;
pub mod transport;

pub use chaos::{
    ChaosEngine, ChaosHarness, ChaosMix, ChaosPlan, ChaosReport, ChaosTransport, FaultPlane,
    Intervention, InterventionKind, Supervisor, SupervisorConfig,
};
pub use link::{LaneOf, LinkStats, LiveLink};
pub use monitor::{
    project_service_trace, run_monitored_forwarding_service,
    run_monitored_forwarding_service_chaos_mux_on, run_monitored_forwarding_service_chaos_on,
    run_monitored_forwarding_service_mux, run_monitored_forwarding_service_mux_on,
    run_monitored_forwarding_service_mux_with, run_monitored_forwarding_service_on,
    run_monitored_forwarding_service_with, run_monitored_mutex_service,
    run_monitored_mutex_service_chaos_mux_on, run_monitored_mutex_service_chaos_on,
    run_monitored_mutex_service_mux, run_monitored_mutex_service_mux_on,
    run_monitored_mutex_service_mux_with, run_monitored_mutex_service_on,
    run_monitored_mutex_service_with, CutOutcome, InitiatorStats, LiveCut, MonitorConfig,
    MonitorReport, Monitored, MonitoredEvent, MonitoredForwardingReport, MonitoredMsg,
    MonitoredMutexReport, MonitoredState,
};
pub use mux::MuxRunner;
pub use runner::{
    Driver, LinkSample, LiveConfig, LiveReport, LiveRunner, LiveStats, RuntimeBackend, Scribe,
    TraceDetail, WorkerStats,
};
pub use service::{
    run_forwarding_service, run_forwarding_service_chaos_mux_on, run_forwarding_service_chaos_on,
    run_forwarding_service_mux, run_forwarding_service_mux_on, run_forwarding_service_on,
    run_mutex_service, run_mutex_service_chaos_mux_on, run_mutex_service_chaos_on,
    run_mutex_service_mux, run_mutex_service_mux_on, run_mutex_service_on, run_sharded_service,
    run_sharded_service_on, ForwardingServiceConfig, ForwardingServiceReport, MutexServiceConfig,
    ServiceReport, ShardedReport, ShardedServiceConfig,
};
pub use telemetry::{
    alert_marks, summary_json_line, Alert, AlertConfig, AlertKind, AlertMonitor, Series,
    SeriesPoint, ALERT_MARK_PREFIX,
};
pub use transport::{InMemory, Link, LinkMatrix, Transport};
