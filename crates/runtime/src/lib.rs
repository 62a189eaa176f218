//! # snapstab-runtime — the paper's protocols on real OS threads
//!
//! Everything else in this reproduction runs inside the single-threaded
//! deterministic simulator (`snapstab-sim`). This crate is the *live*
//! execution substrate: the same [`Protocol`](snapstab_sim::Protocol)
//! implementations — `PifProcess`, `IdlProcess`, `MeProcess`, the apps
//! layer — run **unchanged** as instances of a [`MuxRunner`], stepped by
//! a small pool of worker threads and joined by a concurrent transport
//! ([`LiveLink`]) that preserves the paper's channel semantics:
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
//! counter and logs its events into a per-instance
//! [`Trace`](snapstab_sim::Trace); [`MuxRunner::stop`] merges the logs
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
//! use snapstab_runtime::{LiveConfig, MuxRunner};
//! use snapstab_sim::ProcessId;
//! use std::time::Duration;
//!
//! // Three IDs-Learning processes on two pool workers, 10% message loss.
//! let processes: Vec<IdlProcess> = (0..3)
//!     .map(|i| IdlProcess::new(ProcessId::new(i), 3, 10 + i as u64))
//!     .collect();
//! let mut runner = MuxRunner::spawn(
//!     processes,
//!     LiveConfig { loss: 0.1, seed: 42, ..LiveConfig::default() },
//!     2,
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
//! ## One way to run a service
//!
//! Every live service is an *app* run by one driver, [`run_service`]:
//! the app says what runs (the protocol, one closed-loop client per
//! process, the report), a [`ServiceRun`] says how — the pool size, the
//! [`Transport`], an optional [`ChaosPlan`]. The axes are values, not
//! function names, so every combination composes — the monitored
//! forwarding service under chaos over UDP, say ([`ServiceRun`] shows
//! the sharded service).
//!
//! Three apps ship with the crate. [`MutexServiceConfig`] puts
//! Algorithm 3 behind a client request queue: every process's client
//! injects critical-section requests as fast as the protocol serves
//! them, timing each one. That service is protocol-bound — one grant
//! per leader `Value` rotation — and [`ShardedServiceConfig`]
//! multiplies the ceiling: each process hosts `S` independent protocol
//! instances (`snapstab_core::shard::ShardedMe`, leaders spread
//! round-robin), the resource space is hash-partitioned across shards,
//! and every grant serves a batch of non-conflicting client requests
//! atomically inside one critical section. [`ForwardingServiceConfig`]
//! drives the snap-stabilizing *message forwarding* protocol
//! (`snapstab_core::forward`): a per-process injection queue feeds
//! client payloads, end-to-end latencies are timed from source to
//! destination, runs may start from adversarially pre-filled buffers
//! (`prefill_stale`), and the merged trace is judged by executable
//! Specification 4 (`snapstab_core::spec::analyze_forwarding_trace`).
//! The `snapstab live` CLI subcommand and `exp_rtbench` (in
//! `snapstab-bench`) drive all three.
//!
//! ## Pluggable transports
//!
//! The runner is generic over its message substrate: the [`Transport`]
//! trait builds the directed [`Link`] matrix, and everything above it —
//! the pool, services, trace merging, the spec checkers — is
//! transport-agnostic. [`InMemory`] (the default) wires [`LiveLink`]s;
//! `snapstab-net`'s `UdpLoopback` wires links that share one real UDP
//! socket, with the same §4 semantics enforced per record in the receive
//! path. A transport owns no thread: a `send` that cannot deliver on the
//! spot stages its message, and the pool workers call [`Link::pump`]
//! once per scheduling quantum to move what is staged and deliver what
//! has arrived (a no-op in memory). Pass a transport as
//! [`ServiceRun::transport`] or to [`MuxRunner::spawn_with_transport`].
//!
//! ## One runtime: instances on a pool
//!
//! The paper's correctness arguments need every action to be atomic and
//! every process to be activated infinitely often — not one OS thread
//! per process. [`MuxRunner`] (the [`mux`] module) multiplexes N protocol
//! *instances* over a small worker pool, scheduling them through a ready
//! queue keyed by link traffic: the per-instance lock is the
//! atomic-action boundary, and a periodic sweep is the fairness timer.
//! It runs from n = 2 to n = 1024 and beyond. With one worker every
//! interleaving is serialized; with [`DEFAULT_WORKERS`] (two) instances
//! really run in parallel, and the conformance suite
//! (`tests/mux_runtime.rs`) drives the same seeded workloads through
//! both pool shapes and holds their merged traces to the same
//! specifications.
//!
//! ## Crash and restart
//!
//! [`MuxRunner::crash`] parks an instance mid-run, on an action boundary
//! (its state and log survive, its links backlog); [`MuxRunner::restart`]
//! makes it ready again. Because the protocols are snap-stabilizing,
//! computations started after the restart satisfy their specifications
//! immediately — the stress tests in `tests/live_runtime.rs` exercise
//! exactly that.
//!
//! ## Chaos and supervision
//!
//! The [`chaos`] module turns "from any configuration" into a live
//! experiment: a [`ChaosEngine`] walks a seeded [`ChaosPlan`] of fault
//! bursts against a running service — mid-flight state corruption,
//! crash storms, link partitions and drop storms (the latter two through
//! [`ChaosTransport`], a [`Transport`] decorator degrading in-memory and
//! UDP links identically) — while a [`Supervisor`] watchdog detects
//! crashed or wedged instances and restarts them with *adversarially
//! corrupted* state under bounded exponential backoff. The resulting
//! [`ChaosReport`] carries the authoritative fault steps at which
//! `snapstab_core::spec::analyze_me_epochs` /
//! `analyze_forwarding_epochs` segment the merged trace, requiring the
//! paper's specifications to hold per epoch. Setting
//! [`ServiceRun::chaos`] packages the whole loop for any app.
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
//! samples ([`LinkSample`]), without pausing any instance.
//! [`Monitoring`] is the app combinator: `Monitoring::new(&cfg, &mon)`
//! runs the mutex or forwarding app monitored, under chaos or not, so
//! one cut spans hundreds of instances.
//! Every cut in the merged trace is judged by executable Specification
//! 5 (`snapstab_core::spec::analyze_snapshot_trace`), which attributes
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
    project_service_trace, CutOutcome, InitiatorStats, LiveCut, MonitorApp, MonitorConfig,
    MonitorReport, Monitored, MonitoredEvent, MonitoredForwardingReport, MonitoredMsg,
    MonitoredMutexReport, MonitoredState, Monitoring,
};
pub use mux::{MuxRunner, DEFAULT_WORKERS};
pub use runner::{
    Driver, LinkSample, LiveConfig, LiveReport, LiveStats, Scribe, TraceDetail, WorkerStats,
};
pub use service::{
    run_forwarding_service_mux_on, run_mutex_service_chaos_mux_on, run_mutex_service_mux_on,
    run_service, Client, Finished, ForwardingServiceConfig, ForwardingServiceReport, Gauged, Marks,
    MutexServiceConfig, ServiceApp, ServiceReport, ServiceRun, ShardedReport, ShardedServiceConfig,
};
pub use telemetry::{
    alert_marks, summary_json_line, Alert, AlertConfig, AlertKind, AlertMonitor, Series,
    SeriesPoint, ALERT_MARK_PREFIX,
};
pub use transport::{InMemory, Link, LinkMatrix, Transport};
