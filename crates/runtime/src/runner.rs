//! `LiveRunner` — one worker thread per process, event-driven, over
//! pluggable [`Link`] transports (in-memory [`crate::LiveLink`]s by
//! default).
//!
//! Each worker owns its [`Protocol`] instance and loops: apply harness
//! commands, drain deliverable messages from its incoming links (each
//! delivery is one atomic receive action), run the driver hook, then
//! execute one activation if an internal action is enabled. Every atomic
//! action draws a ticket from one global [`AtomicU64`] step counter and
//! logs its events into a per-worker [`Trace`] under that step, so the
//! merged trace ([`Trace::merged`]) is a total order consistent with both
//! per-process program order and real-time cross-thread causality — which
//! is exactly what the executable specifications in `snapstab_core::spec`
//! need to judge a live run.
//!
//! Workers never spin: an iteration that made no progress parks with an
//! exponentially growing timeout (the timeout doubles as the
//! retransmission period under loss), and senders unpark the receiver on
//! every enqueue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snapstab_sim::{Context, ProcessId, Protocol, SimRng, Trace, TraceEvent};

use crate::link::{LaneOf, LinkStats};
use crate::transport::{InMemory, Link, LinkMatrix, Transport};

/// Construction-time configuration of a live run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Per-link bounded capacity (§4 known-bound regime; the paper's
    /// protocols are designed for 1). Unbounded capacity is deliberately
    /// not offered: Theorem 1 shows snap-stabilization is impossible
    /// there, and a live transport would also exhaust memory.
    pub capacity: usize,
    /// Per-message in-transit loss probability in `[0, 1)`.
    pub loss: f64,
    /// Optional maximum extra delivery delay, drawn uniformly per message.
    pub jitter: Option<Duration>,
    /// Seed for the per-link loss/jitter streams and per-worker RNGs.
    pub seed: u64,
    /// Record per-worker event logs for trace merging (benches switch
    /// this off to measure raw throughput).
    pub record_trace: bool,
    /// How much detail to record while `record_trace` is on — see
    /// [`TraceDetail`]. Scale runs, where a snap-stabilizing fleet
    /// retransmits millions of messages per second, drop to
    /// [`TraceDetail::Spec`] to keep the merged trace proportional to
    /// specification activity instead of wire traffic.
    pub detail: TraceDetail,
    /// Initial park timeout of an idle worker.
    pub min_backoff: Duration,
    /// Park timeout ceiling; also bounds the retransmission period under
    /// loss and the latency of a jittered delivery. On the mux backend it
    /// is the sweep period, which is the fairness timer: the longest the
    /// pool may withhold an activation from an instance that no traffic
    /// reaches, the paper's "every process is activated infinitely
    /// often". A lossless in-memory run needs it too (see
    /// [`crate::mux`], "The sweep is the fairness timer").
    pub max_backoff: Duration,
}

/// How much detail a recording run keeps in its per-worker logs — the
/// trade-off between forensic completeness and trace volume. Every
/// executable specification checker judges protocol events and markers
/// alone, so every level below [`TraceDetail::Full`] still feeds the
/// unchanged Spec 1/3/4/5 checkers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceDetail {
    /// Wire (`Sent`/`Delivered`) and protocol events: the full forensic
    /// trace (default).
    #[default]
    Full,
    /// Drop the wire events; keep every protocol event and marker.
    Protocol,
    /// Keep only markers and the protocol events the protocol flags as
    /// spec-relevant ([`Protocol::event_is_spec_relevant`]) — the
    /// minimal trace the checkers accept, proportional to protocol
    /// decisions instead of wave traffic.
    Spec,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            capacity: 1,
            loss: 0.0,
            jitter: None,
            seed: 0,
            record_trace: true,
            detail: TraceDetail::Full,
            min_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
        }
    }
}

/// Logging and stepping capabilities handed to harness closures and
/// driver hooks executing *inside* a worker: the live counterpart of the
/// runner-side accessors of the simulator.
pub struct Scribe<'a, M, E> {
    me: ProcessId,
    counter: &'a AtomicU64,
    log: &'a mut Trace<M, E>,
    record: bool,
}

impl<'a, M, E> Scribe<'a, M, E> {
    /// Assembles a scribe around a worker's log — crate-internal so every
    /// backend (thread-per-process here, the multiplexed pool in
    /// [`crate::mux`]) hands closures the exact same capability surface.
    pub(crate) fn new(
        me: ProcessId,
        counter: &'a AtomicU64,
        log: &'a mut Trace<M, E>,
        record: bool,
    ) -> Self {
        Scribe {
            me,
            counter,
            log,
            record,
        }
    }

    /// The process this scribe writes for.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Records a harness marker (e.g. `"request"`) under a fresh global
    /// step, so it is totally ordered against every protocol event.
    /// Returns the step.
    pub fn mark(&mut self, label: impl Into<String>) -> u64 {
        let step = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if self.record {
            self.log.push_marker(step, self.me, label);
        }
        step
    }

    /// The number of global atomic steps taken so far (approximate while
    /// other workers run).
    pub fn step_count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

/// A hook run once per worker-loop iteration, between message draining
/// and the activation: the injection point for client workloads (see
/// `MutexService`). Returns `true` if it made progress (keeps the worker
/// from parking this iteration).
pub type Driver<P> = Box<
    dyn FnMut(&mut P, &mut Scribe<'_, <P as Protocol>::Msg, <P as Protocol>::Event>) -> bool + Send,
>;

type WithClosure<P> =
    Box<dyn FnOnce(&mut P, &mut Scribe<'_, <P as Protocol>::Msg, <P as Protocol>::Event>) + Send>;

enum Command<P: Protocol> {
    /// Run a closure against the process, atomically with respect to its
    /// protocol actions.
    With(WithClosure<P>),
    /// Exit the worker loop, returning the worker's state.
    Stop,
}

/// Per-worker execution counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkerStats {
    /// Activations executed (one per enabled-action sweep).
    pub activations: u64,
    /// Activations in which at least one action ran.
    pub effective_activations: u64,
    /// Receive actions executed.
    pub deliveries: u64,
    /// Protocol events emitted.
    pub protocol_events: u64,
    /// Scheduling quanta executed: one drain / driver / activation pass
    /// (a `step_instance` call on the mux backend, a worker-loop
    /// iteration on the thread backend). `deliveries / quanta` is the
    /// batching a quantum achieves.
    pub quanta: u64,
}

/// What a stopped worker hands back.
struct WorkerReport<P: Protocol> {
    protocol: P,
    log: Trace<P::Msg, P::Event>,
    stats: WorkerStats,
    driver: Option<Driver<P>>,
}

/// Aggregate statistics of a live run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LiveStats {
    /// Global atomic steps executed (activations + deliveries + markers).
    pub steps: u64,
    /// Sum of the workers' counters.
    pub activations: u64,
    /// Activations in which at least one action ran.
    pub effective_activations: u64,
    /// Receive actions executed.
    pub deliveries: u64,
    /// Protocol events emitted.
    pub protocol_events: u64,
    /// Sum of the links' counters.
    pub links: LinkStats,
    /// Sum of the workers' scheduling quanta (see [`WorkerStats::quanta`]).
    pub quanta: u64,
    /// `Condvar` notifies the mux ready queue actually issued — one futex
    /// syscall each. Always 0 on the thread backend, whose links unpark
    /// their receiver directly.
    pub wakeups: u64,
}

impl LiveStats {
    /// Adds one worker's (or instance's) counters.
    pub(crate) fn absorb(&mut self, w: &WorkerStats) {
        self.activations += w.activations;
        self.effective_activations += w.effective_activations;
        self.deliveries += w.deliveries;
        self.protocol_events += w.protocol_events;
        self.quanta += w.quanta;
    }
}

/// A point-in-time observation of one directed link, taken by
/// [`LiveRunner::link_samples`] while the run is live: the cumulative
/// [`LinkStats`] counters plus the instantaneous in-transit occupancy.
/// This is the per-link half of a monitoring cut (`crate::monitor`) —
/// channel *counters* observed at sampling time, deliberately not a
/// Chandy–Lamport channel-*content* recording.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkSample {
    /// Sender side of the link.
    pub from: ProcessId,
    /// Receiver side of the link.
    pub to: ProcessId,
    /// Cumulative counters at sampling time.
    pub stats: LinkStats,
    /// Messages queued in the link right now.
    pub in_transit: usize,
}

impl LinkSample {
    /// Samples every link of a matrix, in row-major `(from, to)` order.
    pub(crate) fn all<M>(links: &LinkMatrix<M>) -> Vec<LinkSample> {
        links
            .iter()
            .flatten()
            .map(|link| LinkSample {
                from: link.from(),
                to: link.to(),
                stats: link.stats(),
                in_transit: link.len(),
            })
            .collect()
    }
}

/// Everything a finished live run yields: final process states, the
/// merged trace, and counters.
pub struct LiveReport<P: Protocol> {
    /// Final protocol states, in id order.
    pub processes: Vec<P>,
    /// The merged, step-ordered trace (empty when recording was off).
    pub trace: Trace<P::Msg, P::Event>,
    /// Aggregate counters.
    pub stats: LiveStats,
    /// Wall-clock duration from spawn to stop.
    pub wall: Duration,
}

struct Worker<P: Protocol> {
    me: ProcessId,
    n: usize,
    protocol: P,
    rng: SimRng,
    /// Incoming links, one per other process.
    incoming: Vec<Arc<dyn Link<P::Msg>>>,
    /// Outgoing links indexed by receiver (own slot `None`).
    outgoing: Vec<Option<Arc<dyn Link<P::Msg>>>>,
    commands: Receiver<Command<P>>,
    counter: Arc<AtomicU64>,
    /// Shared liveness counter, bumped on every delivery and effective
    /// activation so a supervisor can detect wedged workers from outside
    /// without round-tripping a command.
    activity: Arc<AtomicU64>,
    log: Trace<P::Msg, P::Event>,
    send_buf: Vec<(ProcessId, P::Msg)>,
    event_buf: Vec<P::Event>,
    record: bool,
    detail: TraceDetail,
    driver: Option<Driver<P>>,
    stats: WorkerStats,
    min_backoff: Duration,
    max_backoff: Duration,
}

impl<P> Worker<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
{
    fn next_step(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Commits the context-buffered sends and events of the atomic action
    /// stamped `step` — the live analogue of the simulator runner's
    /// `commit_context_effects`.
    fn commit(&mut self, step: u64) {
        for (to, msg) in self.send_buf.drain(..) {
            let link = self.outgoing[to.index()]
                .as_ref()
                .expect("protocol sent to itself or out of range");
            if self.record && self.detail == TraceDetail::Full {
                let fate = link.send(msg.clone());
                self.log.push(
                    step,
                    TraceEvent::Sent {
                        from: self.me,
                        to,
                        msg,
                        fate,
                    },
                );
            } else {
                link.send(msg);
            }
        }
        for event in self.event_buf.drain(..) {
            self.stats.protocol_events += 1;
            if self.record
                && (self.detail != TraceDetail::Spec || P::event_is_spec_relevant(&event))
            {
                self.log
                    .push(step, TraceEvent::Protocol { p: self.me, event });
            }
        }
    }

    fn run(mut self) -> WorkerReport<P> {
        let handle = std::thread::current();
        for link in &self.incoming {
            link.register_receiver(handle.clone());
        }
        let mut backoff = self.min_backoff;
        let mut rotate = 0usize;
        'main: loop {
            // Harness commands first: they are atomic steps of their own.
            let mut commanded = false;
            loop {
                match self.commands.try_recv() {
                    Ok(Command::With(f)) => {
                        let mut scribe =
                            Scribe::new(self.me, &self.counter, &mut self.log, self.record);
                        f(&mut self.protocol, &mut scribe);
                        commanded = true;
                    }
                    Ok(Command::Stop) | Err(TryRecvError::Disconnected) => break 'main,
                    Err(TryRecvError::Empty) => break,
                }
            }

            // Drain every deliverable message; each is one atomic receive
            // action. Rotate the starting link so no sender is favoured.
            self.stats.quanta += 1;
            let mut received = 0usize;
            let in_count = self.incoming.len();
            for off in 0..in_count {
                let idx = (rotate + off) % in_count;
                while let Some(msg) = self.incoming[idx].try_recv() {
                    let from = self.incoming[idx].from();
                    let step = self.next_step();
                    self.stats.deliveries += 1;
                    self.activity.fetch_add(1, Ordering::Relaxed);
                    if self.record && self.detail == TraceDetail::Full {
                        self.log.push(
                            step,
                            TraceEvent::Delivered {
                                from,
                                to: self.me,
                                msg: msg.clone(),
                            },
                        );
                    }
                    let mut ctx = Context::new(
                        self.me,
                        self.n,
                        step,
                        &mut self.rng,
                        &mut self.send_buf,
                        &mut self.event_buf,
                    );
                    self.protocol.on_receive(from, msg, &mut ctx);
                    self.commit(step);
                    received += 1;
                }
            }
            rotate = rotate.wrapping_add(1);

            // Client workload injection (e.g. the mutex service).
            let mut drove = false;
            if let Some(driver) = self.driver.as_mut() {
                let mut scribe = Scribe::new(self.me, &self.counter, &mut self.log, self.record);
                drove = driver(&mut self.protocol, &mut scribe);
            }

            // One activation sweep: all enabled internal actions, in
            // textual order, atomically — exactly `Protocol::activate`.
            if self.protocol.has_enabled_action() {
                let step = self.next_step();
                self.stats.activations += 1;
                let mut ctx = Context::new(
                    self.me,
                    self.n,
                    step,
                    &mut self.rng,
                    &mut self.send_buf,
                    &mut self.event_buf,
                );
                let acted = self.protocol.activate(&mut ctx);
                if acted {
                    self.stats.effective_activations += 1;
                    self.activity.fetch_add(1, Ordering::Relaxed);
                }
                if self.record {
                    self.log
                        .push(step, TraceEvent::Activated { p: self.me, acted });
                }
                self.commit(step);
            }

            // This iteration's output leaves here, and what has arrived
            // comes in (a no-op on in-memory links) — before the decision
            // to park, so nothing staged sleeps with its sender.
            self.incoming[0].pump();

            if received == 0 && !commanded && !drove {
                // Nothing arrived: park until a sender or the harness
                // unparks us, or the backoff elapses (the backoff is the
                // retransmission period that keeps lossy runs live).
                std::thread::park_timeout(backoff);
                backoff = (backoff * 2).min(self.max_backoff);
            } else {
                backoff = self.min_backoff;
            }
        }
        WorkerReport {
            protocol: self.protocol,
            log: self.log,
            stats: self.stats,
            driver: self.driver,
        }
    }
}

/// A live multi-threaded run: `n` worker threads, one per process, wired
/// by `n·(n−1)` [`Link`]s (in-memory [`crate::LiveLink`]s unless a
/// different [`Transport`] is given). See the crate docs for a quick
/// tour.
///
/// ```
/// use snapstab_core::idl::IdlProcess;
/// use snapstab_core::request::RequestState;
/// use snapstab_runtime::{LiveConfig, LiveRunner, RuntimeBackend};
/// use snapstab_sim::ProcessId;
/// use std::time::Duration;
///
/// let fleet: Vec<IdlProcess> = (0..3)
///     .map(|i| IdlProcess::new(ProcessId::new(i), 3, 10 + i as u64))
///     .collect();
/// let mut runner = LiveRunner::spawn(fleet, LiveConfig::default());
/// runner.with_process(ProcessId::new(0), |p: &mut IdlProcess| p.request_learning());
/// assert!(runner.wait_until(
///     ProcessId::new(0),
///     |p: &IdlProcess| p.request() == RequestState::Done,
///     Duration::from_secs(30),
/// ));
/// let report = runner.stop();
/// assert_eq!(report.processes[0].idl().min_id(), 10);
/// ```
pub struct LiveRunner<P: Protocol> {
    n: usize,
    config: LiveConfig,
    counter: Arc<AtomicU64>,
    /// Row-major `n × n` link matrix (diagonal `None`).
    links: LinkMatrix<P::Msg>,
    handles: Vec<Option<JoinHandle<WorkerReport<P>>>>,
    senders: Vec<Sender<Command<P>>>,
    /// State of workers whose thread was crashed ([`LiveRunner::crash`]),
    /// kept for [`LiveRunner::restart`] or final collection.
    parked: Vec<Option<WorkerReport<P>>>,
    /// Per-worker liveness counters (deliveries + effective activations),
    /// shared with the worker threads — see [`LiveRunner::activity`].
    activity: Vec<Arc<AtomicU64>>,
    /// Crash calls on an already-crashed worker (counted no-ops).
    crash_noops: u64,
    /// Restart calls on a live worker (counted no-ops).
    restart_noops: u64,
    started: Instant,
}

impl<P> LiveRunner<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
{
    /// Spawns one worker thread per process.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two processes are given or the configuration
    /// is out of domain (zero capacity, loss outside `[0, 1)`).
    pub fn spawn(processes: Vec<P>, config: LiveConfig) -> Self {
        let drivers = processes.iter().map(|_| None).collect();
        Self::spawn_with_transport(processes, drivers, config, &InMemory, None)
            .expect("the in-memory transport is infallible")
    }

    /// Spawns the workers over an arbitrary [`Transport`] backend — the
    /// in-memory [`InMemory`] links or real sockets (`snapstab-net`'s
    /// `UdpLoopback`). Fallible because a networked backend binds OS
    /// resources. Each process may get a driver hook run every loop
    /// iteration — how [`crate::run_service`] injects a client workload.
    /// With `lanes`, `lane_of` classifies each message into
    /// one of that many lanes and every link enforces the capacity bound
    /// (with its §4 silent drop-on-full) per lane — how the sharded
    /// service shares one link per ordered process pair among
    /// independent protocol instances.
    ///
    /// # Panics
    ///
    /// See [`LiveRunner::spawn`]; additionally if the driver list length
    /// differs from the process count.
    pub fn spawn_with_transport(
        processes: Vec<P>,
        drivers: Vec<Option<Driver<P>>>,
        config: LiveConfig,
        transport: &dyn Transport<P::Msg>,
        lanes: Option<(usize, LaneOf<P::Msg>)>,
    ) -> std::io::Result<Self> {
        let links = transport.connect(processes.len(), &config, lanes)?;
        let n = processes.len();
        assert!(
            n >= 2,
            "a message-passing system needs at least 2 processes"
        );
        assert_eq!(drivers.len(), n, "one driver slot per process");
        assert_eq!(links.len(), n * n, "transport built a full link matrix");
        let counter = Arc::new(AtomicU64::new(0));
        let mut runner = LiveRunner {
            n,
            config,
            counter,
            links,
            handles: (0..n).map(|_| None).collect(),
            senders: Vec::with_capacity(n),
            parked: (0..n).map(|_| None).collect(),
            activity: (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            crash_noops: 0,
            restart_noops: 0,
            // Placeholder; reset below once every worker is spawned, so
            // wall-clock throughput excludes thread-spawn cost.
            started: Instant::now(),
        };
        for (i, (protocol, driver)) in processes.into_iter().zip(drivers).enumerate() {
            let (tx, rx) = mpsc::channel();
            runner.senders.push(tx);
            let handle = runner.spawn_worker(
                i,
                protocol,
                Trace::new(),
                WorkerStats::default(),
                driver,
                rx,
            );
            runner.handles[i] = Some(handle);
        }
        runner.started = Instant::now();
        Ok(runner)
    }

    fn spawn_worker(
        &self,
        i: usize,
        protocol: P,
        log: Trace<P::Msg, P::Event>,
        stats: WorkerStats,
        driver: Option<Driver<P>>,
        commands: Receiver<Command<P>>,
    ) -> JoinHandle<WorkerReport<P>> {
        let me = ProcessId::new(i);
        let incoming: Vec<Arc<dyn Link<P::Msg>>> = (0..self.n)
            .filter(|&from| from != i)
            .map(|from| {
                self.links[from * self.n + i]
                    .as_ref()
                    .expect("off-diagonal")
                    .clone()
            })
            .collect();
        let outgoing: Vec<Option<Arc<dyn Link<P::Msg>>>> = (0..self.n)
            .map(|to| self.links[i * self.n + to].clone())
            .collect();
        let worker = Worker {
            me,
            n: self.n,
            protocol,
            rng: SimRng::seed_from(
                self.config.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            ),
            incoming,
            outgoing,
            commands,
            counter: self.counter.clone(),
            activity: self.activity[i].clone(),
            log,
            send_buf: Vec::new(),
            event_buf: Vec::new(),
            record: self.config.record_trace,
            detail: self.config.detail,
            driver,
            stats,
            min_backoff: self.config.min_backoff,
            max_backoff: self.config.max_backoff,
        };
        std::thread::Builder::new()
            .name(format!("snapstab-worker-{i}"))
            .spawn(move || worker.run())
            .expect("spawn worker thread")
    }
}

/// The seam between the protocol fleet and its execution substrate.
///
/// Two backends implement it: [`LiveRunner`] (one OS thread per process —
/// faithful to the paper's "each process runs on its own machine" model)
/// and [`crate::mux::MuxRunner`] (an event-driven pool multiplexing N
/// protocol *instances* over W worker threads). Everything above the
/// seam — the services in [`crate::service`], the chaos harness in
/// [`crate::chaos`], the spec checkers consuming the merged trace — is
/// written against this trait, so the two backends are interchangeable
/// and the cross-backend conformance suite (`tests/mux_runtime.rs`) can
/// drive the same seeded workload through both.
///
/// Fault injection is deliberately phrased per *process*, not per
/// thread: on the thread backend [`RuntimeBackend::crash`] kills an OS
/// thread, on the mux backend it parks an instance while its pool
/// worker keeps serving healthy neighbours — yet the observable
/// semantics (state survives, links hold backlogged messages, the
/// `"crash"`/`"restart"` markers segment the trace) are identical.
///
/// The trait has generic methods ([`RuntimeBackend::with_process_ctx`])
/// and is therefore not object-safe; consumers take `B: RuntimeBackend<P>`
/// type parameters instead of `dyn` objects.
pub trait RuntimeBackend<P: Protocol>: Send {
    /// Number of protocol instances.
    fn n(&self) -> usize;

    /// Global atomic steps executed so far.
    fn step_count(&self) -> u64;

    /// True if instance `p` is currently crashed.
    fn is_crashed(&self, p: ProcessId) -> bool;

    /// Instance `p`'s liveness counter (deliveries + effective
    /// activations), bumped by whichever worker steps it.
    fn activity(&self, p: ProcessId) -> u64;

    /// Crashes instance `p`. Idempotent counted no-op when already
    /// crashed; returns whether this call actually crashed it.
    fn crash(&mut self, p: ProcessId) -> bool;

    /// Restarts a crashed instance `p`. Idempotent counted no-op when
    /// not crashed; returns whether this call actually restarted it.
    fn restart(&mut self, p: ProcessId) -> bool;

    /// Counted [`RuntimeBackend::crash`] no-ops.
    fn crash_noops(&self) -> u64;

    /// Counted [`RuntimeBackend::restart`] no-ops.
    fn restart_noops(&self) -> u64;

    /// Samples every directed link while the run is live.
    fn link_samples(&self) -> Vec<LinkSample>;

    /// Runs a closure against process `p` with scribe access, atomically
    /// with respect to its protocol actions, and returns its result.
    fn with_process_ctx<R, F>(&mut self, p: ProcessId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut P, &mut Scribe<'_, P::Msg, P::Event>) -> R + Send + 'static;

    /// Runs a closure against process `p` and returns its result.
    fn with_process<R, F>(&mut self, p: ProcessId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut P) -> R + Send + 'static,
    {
        self.with_process_ctx(p, move |proto, _scribe| f(proto))
    }

    /// Records a harness marker at process `p` under a fresh global step.
    fn mark(&mut self, p: ProcessId, label: impl Into<String>) {
        let label = label.into();
        self.with_process_ctx(p, move |_proto, scribe| {
            scribe.mark(label);
        });
    }

    /// Polls `pred` on process `p` until it holds or `timeout` elapses.
    /// Returns whether it held.
    fn wait_until<F>(&mut self, p: ProcessId, pred: F, timeout: Duration) -> bool
    where
        F: Fn(&P) -> bool + Send + Sync + 'static,
    {
        let pred = Arc::new(pred);
        let deadline = Instant::now() + timeout;
        loop {
            let pred = pred.clone();
            if self.with_process(p, move |proto| pred(proto)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the run and merges the per-worker logs.
    fn stop(self) -> LiveReport<P>
    where
        Self: Sized;
}

impl<P> RuntimeBackend<P> for LiveRunner<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
{
    /// Number of processes.
    fn n(&self) -> usize {
        self.n
    }

    /// Global atomic steps executed so far.
    fn step_count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// True if worker `p` is currently crashed.
    fn is_crashed(&self, p: ProcessId) -> bool {
        self.parked[p.index()].is_some()
    }

    /// Worker `p`'s liveness counter: deliveries plus effective
    /// activations, bumped by the worker thread itself. A supervisor
    /// polls this to detect *wedged* workers (no effective progress
    /// within a deadline) without round-tripping a command through the
    /// worker — a wedged worker might be slow to answer one.
    fn activity(&self, p: ProcessId) -> u64 {
        self.activity[p.index()].load(Ordering::Relaxed)
    }

    /// How many [`LiveRunner::crash`] calls were no-ops (worker already
    /// crashed).
    fn crash_noops(&self) -> u64 {
        self.crash_noops
    }

    /// How many [`LiveRunner::restart`] calls were no-ops (worker not
    /// crashed).
    fn restart_noops(&self) -> u64 {
        self.restart_noops
    }

    /// Samples every directed link *while the run is live*: cumulative
    /// counters plus instantaneous in-transit occupancy, in row-major
    /// `(from, to)` order. Lock-free towards the workers beyond each
    /// link's own mutex, so sampling never pauses the fleet — this is
    /// what the monitor attaches to each decided cut.
    fn link_samples(&self) -> Vec<LinkSample> {
        LinkSample::all(&self.links)
    }

    /// Runs a closure against process `p` with scribe access, atomically
    /// with respect to its protocol actions, and returns its result. On a
    /// crashed worker the closure runs directly on the parked state.
    ///
    /// # Panics
    ///
    /// Panics if the worker thread died abnormally (panicked protocol).
    fn with_process_ctx<R, F>(&mut self, p: ProcessId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut P, &mut Scribe<'_, P::Msg, P::Event>) -> R + Send + 'static,
    {
        let i = p.index();
        if let Some(parked) = self.parked[i].as_mut() {
            let mut scribe =
                Scribe::new(p, &self.counter, &mut parked.log, self.config.record_trace);
            return f(&mut parked.protocol, &mut scribe);
        }
        let (tx, rx) = mpsc::channel();
        let cmd = Command::With(Box::new(
            move |proto: &mut P, scribe: &mut Scribe<'_, _, _>| {
                let _ = tx.send(f(proto, scribe));
            },
        ));
        self.senders[i]
            .send(cmd)
            .expect("worker command channel closed");
        if let Some(h) = self.handles[i].as_ref() {
            h.thread().unpark();
        }
        rx.recv_timeout(Duration::from_secs(30))
            .expect("worker did not answer within 30s")
    }

    /// Kills worker `p`'s thread: the live analogue of a crash failure.
    /// The process state and event log survive for [`LiveRunner::restart`];
    /// messages addressed to `p` stay in its incoming links undelivered
    /// (new sends keep hitting the capacity bound), and nothing `p` would
    /// have sent appears — exactly the simulator's crash semantics, but
    /// enforced by an actually-dead thread.
    ///
    /// Idempotent: crashing an already-crashed worker is a counted no-op
    /// ([`LiveRunner::crash_noops`]) returning `false`, so a supervisor
    /// and a chaos schedule can race without tearing the runner down.
    /// Returns `true` if the worker was actually crashed by this call.
    ///
    /// # Panics
    ///
    /// Panics only if the worker thread itself panicked (a protocol bug).
    fn crash(&mut self, p: ProcessId) -> bool {
        let i = p.index();
        let Some(handle) = self.handles[i].take() else {
            self.crash_noops += 1;
            return false;
        };
        // The worker exits on a disconnected command channel too, so a
        // failed send (it already observed Stop and dropped the receiver)
        // is fine — never panic on the race.
        let _ = self.senders[i].send(Command::Stop);
        handle.thread().unpark();
        let mut report = handle.join().expect("worker panicked");
        if self.config.record_trace {
            let step = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
            report.log.push_marker(step, p, "crash");
        }
        self.parked[i] = Some(report);
        true
    }

    /// Respawns a previously crashed worker on a fresh OS thread, resuming
    /// from its surviving process state. Its incoming links re-register
    /// the new thread for wake-ups; backlogged messages get delivered.
    ///
    /// Idempotent: restarting a never-crashed or already-restarted worker
    /// is a counted no-op ([`LiveRunner::restart_noops`]) returning
    /// `false`. Returns `true` if a thread was actually respawned.
    fn restart(&mut self, p: ProcessId) -> bool {
        let i = p.index();
        let Some(mut report) = self.parked[i].take() else {
            self.restart_noops += 1;
            return false;
        };
        if self.config.record_trace {
            let step = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
            report.log.push_marker(step, p, "restart");
        }
        let (tx, rx) = mpsc::channel();
        self.senders[i] = tx;
        let handle = self.spawn_worker(
            i,
            report.protocol,
            report.log,
            report.stats,
            report.driver,
            rx,
        );
        self.handles[i] = Some(handle);
        true
    }

    /// Stops every worker, joins the threads, and merges the per-worker
    /// logs into one step-ordered trace.
    fn stop(mut self) -> LiveReport<P> {
        for i in 0..self.n {
            if self.handles[i].is_some() {
                let _ = self.senders[i].send(Command::Stop);
            }
        }
        let mut reports: Vec<WorkerReport<P>> = Vec::with_capacity(self.n);
        for i in 0..self.n {
            if let Some(h) = self.handles[i].take() {
                h.thread().unpark();
                reports.push(h.join().expect("worker panicked"));
            } else {
                reports.push(self.parked[i].take().expect("crashed worker state"));
            }
        }
        let wall = self.started.elapsed();
        let mut stats = LiveStats {
            steps: self.counter.load(Ordering::Relaxed),
            ..LiveStats::default()
        };
        for r in &reports {
            stats.absorb(&r.stats);
        }
        for link in self.links.iter().flatten() {
            stats.links.absorb(link.stats());
        }
        let mut processes = Vec::with_capacity(self.n);
        let mut logs = Vec::with_capacity(self.n);
        for r in reports {
            processes.push(r.protocol);
            logs.push(r.log);
        }
        LiveReport {
            processes,
            trace: Trace::merged(logs),
            stats,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_core::idl::IdlProcess;
    use snapstab_core::request::RequestState;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn idl_fleet(n: usize) -> Vec<IdlProcess> {
        (0..n)
            .map(|i| IdlProcess::new(p(i), n, 10 + i as u64))
            .collect()
    }

    #[test]
    fn live_idl_wave_decides_and_learns_ids() {
        let mut r = LiveRunner::spawn(idl_fleet(4), LiveConfig::default());
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(
            r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_secs(20),
            ),
            "live IDL computation must decide"
        );
        let report = r.stop();
        let learner = &report.processes[0];
        assert_eq!(learner.idl().min_id(), 10);
        for i in 1..4 {
            assert_eq!(learner.idl().id_of(p(i)), 10 + i as u64);
        }
        assert!(report.stats.deliveries > 0);
        assert!(report.stats.links.enqueued >= report.stats.links.delivered);
    }

    #[test]
    fn merged_trace_is_step_ordered_and_causal() {
        let mut r = LiveRunner::spawn(idl_fleet(3), LiveConfig::default());
        r.mark(p(0), "request");
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(20),
        ));
        let report = r.stop();
        let steps: Vec<u64> = report.trace.iter().map(|te| te.step).collect();
        assert!(steps.windows(2).all(|w| w[0] <= w[1]), "monotone steps");
        assert!(!report.trace.is_empty());
        // Each delivery of a message follows some send of it: check counts.
        let sends = report.trace.count(|e| {
            matches!(
                e,
                TraceEvent::Sent {
                    fate: snapstab_sim::SendFate::Enqueued,
                    ..
                }
            )
        });
        let delivered = report
            .trace
            .count(|e| matches!(e, TraceEvent::Delivered { .. }));
        assert!(
            delivered <= sends,
            "{delivered} deliveries from {sends} sends"
        );
    }

    #[test]
    fn record_trace_off_keeps_stats() {
        let cfg = LiveConfig {
            record_trace: false,
            ..LiveConfig::default()
        };
        let mut r = LiveRunner::spawn(idl_fleet(3), cfg);
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(20),
        ));
        let report = r.stop();
        assert!(report.trace.is_empty());
        assert!(report.stats.deliveries > 0, "stats survive");
    }

    #[test]
    fn protocol_detail_keeps_protocol_events_only() {
        let cfg = LiveConfig {
            detail: TraceDetail::Protocol,
            ..LiveConfig::default()
        };
        let mut r = LiveRunner::spawn(idl_fleet(3), cfg);
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(20),
        ));
        let report = r.stop();
        let wire = report
            .trace
            .count(|e| matches!(e, TraceEvent::Sent { .. } | TraceEvent::Delivered { .. }));
        assert_eq!(wire, 0, "no wire events in a message-free trace");
        let protocol = report
            .trace
            .count(|e| matches!(e, TraceEvent::Protocol { .. }));
        assert!(protocol > 0, "the spec-relevant events survive");
    }

    #[test]
    fn lossy_wave_still_decides() {
        let cfg = LiveConfig {
            loss: 0.3,
            seed: 5,
            ..LiveConfig::default()
        };
        let mut r = LiveRunner::spawn(idl_fleet(3), cfg);
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(
            r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_secs(30),
            ),
            "retransmission must push the wave through 30% loss"
        );
        let report = r.stop();
        assert!(
            report.stats.links.lost_in_transit > 0,
            "loss actually happened"
        );
    }

    #[test]
    fn crash_blocks_wave_restart_unblocks_it() {
        let mut r = LiveRunner::spawn(idl_fleet(3), LiveConfig::default());
        r.crash(p(2));
        assert!(r.is_crashed(p(2)));
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        // The wave needs feedback from every process; with P2 dead it
        // cannot decide.
        assert!(
            !r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_millis(300),
            ),
            "wave must stall while a worker is crashed"
        );
        r.restart(p(2));
        assert!(!r.is_crashed(p(2)));
        assert!(
            r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_secs(30),
            ),
            "wave must complete after the restart"
        );
        let report = r.stop();
        let markers: Vec<String> = report
            .trace
            .markers()
            .map(|(_, _, l)| l.to_string())
            .collect();
        assert!(markers.contains(&"crash".to_string()));
        assert!(markers.contains(&"restart".to_string()));
    }

    #[test]
    fn stop_collects_crashed_worker_state() {
        let mut r = LiveRunner::spawn(idl_fleet(2), LiveConfig::default());
        r.crash(p(1));
        let report = r.stop();
        assert_eq!(report.processes.len(), 2);
    }

    /// Satellite regression: crash/restart are idempotent counted no-ops,
    /// never panics — a supervisor and a chaos schedule may race.
    #[test]
    fn crash_restart_idempotent_counted_noops() {
        let mut r = LiveRunner::spawn(idl_fleet(3), LiveConfig::default());
        // Restart of a never-crashed worker: no-op.
        assert!(!r.restart(p(1)));
        assert_eq!(r.restart_noops(), 1);
        // First crash acts; second is a no-op.
        assert!(r.crash(p(1)));
        assert!(!r.crash(p(1)));
        assert_eq!(r.crash_noops(), 1);
        assert!(r.is_crashed(p(1)));
        // First restart acts; second (already restarted) is a no-op.
        assert!(r.restart(p(1)));
        assert!(!r.restart(p(1)));
        assert_eq!(r.restart_noops(), 2);
        assert!(!r.is_crashed(p(1)));
        // The restarted worker is actually alive: it still answers and
        // makes protocol progress.
        r.with_process(p(1), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(1),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ));
        let report = r.stop();
        // Exactly one crash/restart marker pair despite the double calls.
        let count = |label: &str| {
            report
                .trace
                .markers()
                .filter(|(_, _, l)| *l == label)
                .count()
        };
        assert_eq!(count("crash"), 1);
        assert_eq!(count("restart"), 1);
    }

    #[test]
    fn activity_counter_tracks_worker_progress() {
        let mut r = LiveRunner::spawn(idl_fleet(3), LiveConfig::default());
        let before = r.activity(p(0));
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ));
        assert!(
            r.activity(p(0)) > before,
            "a wave must register as activity"
        );
        r.stop();
    }
}
