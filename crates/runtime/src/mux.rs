//! `MuxRunner` — the event-driven backend: N protocol instances
//! multiplexed over a small pool of worker threads.
//!
//! The thread-per-process backend ([`crate::LiveRunner`]) is faithful to
//! the paper's "one process per machine" model but collapses into
//! context-switch time-sharing long before the link layer saturates: at
//! n = 64 the OS spends more time switching threads than the protocols
//! spend exchanging messages. Yet a [`Protocol`] is already a step-driven
//! state machine — the simulator proves it — so nothing forces the
//! 1:1 thread mapping. This module runs the same instances, unchanged,
//! on `W` pool workers:
//!
//! * **Ready queue keyed by traffic.** When an instance's atomic action
//!   sends into a link, the *receiver* instance is pushed onto a shared
//!   ready queue (deduplicated by a per-instance flag) — the same
//!   incremental live-link trick as the simulator's `SystemView`. Pool
//!   workers steal ready instances and step them. A push wakes a worker
//!   only when one is asleep (see "Wake-up protocol" below).
//! * **Periodic sweep.** An idle pool re-enqueues every live instance
//!   once per [`LiveConfig::max_backoff`] — the same cadence at which an
//!   idle thread-backend worker re-polls, so retransmission behaviour
//!   under loss matches across backends. Message loss, delivery jitter
//!   and driver hooks need that time-driven re-examination, and so does
//!   the protocol itself, with no loss at all: the sweep is the pool's
//!   rendering of the paper's "every process is activated infinitely
//!   often" (see "The sweep is the fairness timer" below).
//! * **Same stamping, same checkers.** Every atomic action draws its
//!   ticket from the identical global step counter and logs into a
//!   per-instance [`Trace`]; [`MuxRunner::stop`] merges them exactly as
//!   the thread backend does, so Spec 1/3/4/5 judge a mux run unchanged.
//! * **Instance-level faults.** [`MuxRunner::crash`] parks an *instance*
//!   (its worker keeps serving healthy neighbours) rather than killing a
//!   thread, with the same observable semantics — state and log survive,
//!   links hold backlogged messages, `"crash"`/`"restart"` markers
//!   segment the trace — so the chaos harness drives both backends
//!   through one seam ([`crate::RuntimeBackend`]).
//!
//! An instance is stepped under its own mutex, which *is* the atomic
//! action boundary: the lock ordering is instance → ready-queue only, so
//! the pool cannot deadlock, and a harness closure
//! ([`MuxRunner::with_process_ctx`]) simply takes the lock — no command
//! channels, no 30-second timeouts.
//!
//! # Wake-up protocol
//!
//! A message is never stranded in a link, although most pushes onto the
//! ready queue issue no `Condvar` notify and most link polls take no
//! lock:
//!
//! * **Who may skip the notify.** `ReadyState::sleepers` counts the
//!   workers inside `Condvar::wait_timeout`; it is incremented before the
//!   wait and decremented after it, both under the `ready` mutex. A push
//!   reads it under the same mutex. `sleepers == 0` therefore means every
//!   worker is running and will look at the queue, under the mutex, before
//!   it can sleep — it will find the push — so the futex syscall is
//!   skipped. `sleepers > 0` notifies exactly as before.
//! * **Every `Enqueued` send is followed by `enqueue(to)`.** A send the
//!   transport destroyed (`LostFull`, `LostInTransit`) put nothing in a
//!   link, so its receiver is not woken.
//! * **A staging transport wakes from its pump.** A transport whose
//!   `send` only stages (UDP: the record enters the link when some
//!   worker's [`Link::pump`](crate::Link::pump) reads it back from the
//!   socket) answers `Enqueued` before the message is anywhere a
//!   receiver could find it, so the `enqueue(to)` above may run the
//!   receiver too early. `spawn_with_transport` therefore registers, on
//!   every incoming link of instance `i`, a waker that calls
//!   `enqueue(i)`; the link runs it after every record its queue
//!   accepts, outside its locks. "A message entering a link is followed
//!   by a wake-up of its receiver" thus holds for every transport, and
//!   every quantum ends with one `pump` (after the instance lock is
//!   released, before the self re-enqueue), so what a quantum staged is
//!   in its links before any other instance is stepped by this worker.
//! * **A stale "empty" poll is harmless.** [`crate::LiveLink`] polls an
//!   atomic mirror of its queue length without the link lock. If the
//!   receiver misses a concurrent push, the sender's `enqueue(to)` that
//!   follows either pushes the receiver (its `queued` flag was already
//!   cleared; the ready mutex then orders the link push before the
//!   receiver's next poll) or finds `queued` still set — then the
//!   receiver's `queued.swap(false, AcqRel)` in `next_ready` comes later
//!   in the flag's modification order, reads from the sender's
//!   `swap(true, AcqRel)` (or an RMW after it in the same release
//!   sequence), and so acquires the link push before it polls.
//!
//! # The sweep is the fairness timer
//!
//! An instance is re-enqueued by traffic: a message entering one of its
//! links, or its own quantum having received or driven something. An
//! activation alone does not keep it hot — that is what keeps an idle
//! fleet quiet — so an instance gets exactly *one* activation after its
//! last receive. The protocols need more. The paper's model activates
//! every process infinitely often, and the end of a wave spends that
//! assumption: in Algorithm 3, PIF's A2 decides (no send), the IDL layer
//! then notes the decision (no send), and only the next activation
//! advances the phase and broadcasts. The deliveries that complete a
//! wave carry a complete sender flag and so draw no reply
//! (`PifCore::handle_receive` replies only while the neighbor is still
//! waving); when every process completes its wave on such messages at
//! about the same time, the links drain, every instance holds an enabled
//! action, and nothing is left to enqueue anyone.
//!
//! Measured at PR 18's parent with `max_backoff = 5 s`, loss 0, **in
//! memory**, n = 4, 2 workers, 100 requests per process: 2 of 80 and 3 of
//! 60 seeded runs stalled for a full sweep period, and a probe at the
//! sweep found, every time, all sixteen links empty, the other worker
//! asleep, and all four processes with `pif.request = Done`, every flag
//! complete and `idl.request = Done` — decided, one activation short of
//! their next wave. No message was lost and no retransmission was
//! pending. With the default 2 ms period the stall is invisible; with the
//! sweep removed it would be permanent. The sweep is therefore not only a
//! loss timer, and `max_backoff` bounds how long the pool may withhold an
//! activation the model promises.
//!
//! ```
//! use snapstab_core::idl::IdlProcess;
//! use snapstab_core::request::RequestState;
//! use snapstab_runtime::{LiveConfig, MuxRunner, RuntimeBackend};
//! use snapstab_sim::ProcessId;
//! use std::time::Duration;
//!
//! // Eight IDs-Learning instances on two pool workers.
//! let fleet: Vec<IdlProcess> = (0..8)
//!     .map(|i| IdlProcess::new(ProcessId::new(i), 8, 10 + i as u64))
//!     .collect();
//! let mut runner = MuxRunner::spawn(fleet, LiveConfig::default(), 2);
//! runner.with_process(ProcessId::new(0), |p: &mut IdlProcess| p.request_learning());
//! assert!(runner.wait_until(
//!     ProcessId::new(0),
//!     |p: &IdlProcess| p.request() == RequestState::Done,
//!     Duration::from_secs(30),
//! ));
//! let report = runner.stop();
//! assert_eq!(report.processes[0].idl().min_id(), 10);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snapstab_sim::{Context, ProcessId, Protocol, SendFate, SimRng, Trace, TraceEvent};

use crate::runner::{
    Driver, LinkSample, LiveConfig, LiveReport, LiveStats, RuntimeBackend, Scribe, TraceDetail,
    WorkerStats,
};
use crate::transport::{InMemory, LinkMatrix, Transport};

/// Everything one instance owns, guarded by its slot's mutex. Holding
/// this lock *is* executing (or suspending) the instance's atomic
/// actions.
struct InstanceCore<P: Protocol> {
    protocol: P,
    rng: SimRng,
    log: Trace<P::Msg, P::Event>,
    send_buf: Vec<(ProcessId, P::Msg)>,
    event_buf: Vec<P::Event>,
    stats: WorkerStats,
    driver: Option<Driver<P>>,
    /// Rotates the incoming-link drain origin so no sender is favoured —
    /// the same fairness device as the thread backend's worker loop.
    rotate: usize,
}

/// One protocol instance's slot in the pool.
struct InstanceSlot<P: Protocol> {
    core: Mutex<InstanceCore<P>>,
    /// True while the instance sits in the ready queue (dedup flag).
    queued: AtomicBool,
    /// True while the instance is crashed: workers skip it, the sweep
    /// does not enqueue it, its links hold backlog.
    crashed: AtomicBool,
    /// Liveness counter (deliveries + effective activations) for the
    /// supervisor's wedge detection — per *instance*, not per thread.
    activity: AtomicU64,
}

/// State shared between the pool workers and the runner handle.
struct MuxShared<P: Protocol> {
    n: usize,
    record: bool,
    detail: TraceDetail,
    counter: Arc<AtomicU64>,
    slots: Vec<InstanceSlot<P>>,
    /// Row-major `n × n` link matrix (diagonal `None`).
    links: LinkMatrix<P::Msg>,
    ready: Mutex<ReadyState>,
    available: Condvar,
    stop: AtomicBool,
    sweep_period: Duration,
}

struct ReadyState {
    queue: VecDeque<usize>,
    last_sweep: Instant,
    /// Workers currently inside `Condvar::wait_timeout`. Only ever
    /// changed under the `ready` mutex, so a push that reads 0 knows no
    /// worker can miss it — see the module docs' wake-up protocol.
    sleepers: usize,
    /// `Condvar` notifies issued by pushes (one futex syscall each).
    wakeups: u64,
}

impl<P> MuxShared<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
{
    fn next_step(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Pushes instance `i` onto the ready queue unless it is already
    /// there or crashed, waking one pool worker if any is asleep.
    fn enqueue(&self, i: usize) {
        let slot = &self.slots[i];
        if slot.crashed.load(Ordering::Acquire) {
            return;
        }
        if slot.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut st = self.ready.lock().expect("ready queue poisoned");
        st.queue.push_back(i);
        let wake = st.sleepers > 0;
        st.wakeups += u64::from(wake);
        drop(st);
        if wake {
            self.available.notify_one();
        }
    }

    /// Blocks until an instance is ready (or the pool is stopping).
    /// An empty queue past the sweep deadline re-enqueues every live
    /// instance — the pool's analogue of the thread backend's park
    /// timeout, covering jittered deliveries, driver polling,
    /// retransmission pacing under loss, and the activations the model
    /// owes an instance no traffic reaches (module docs, "The sweep is
    /// the fairness timer").
    fn next_ready(&self) -> Option<usize> {
        let mut st = self.ready.lock().expect("ready queue poisoned");
        loop {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(i) = st.queue.pop_front() {
                // An RMW, not a store: it reads from the last
                // `enqueue(i)`, acquiring the link push that preceded it.
                self.slots[i].queued.swap(false, Ordering::AcqRel);
                return Some(i);
            }
            let since = st.last_sweep.elapsed();
            if since >= self.sweep_period {
                st.last_sweep = Instant::now();
                for (i, slot) in self.slots.iter().enumerate() {
                    if !slot.crashed.load(Ordering::Acquire)
                        && !slot.queued.swap(true, Ordering::AcqRel)
                    {
                        st.queue.push_back(i);
                    }
                }
                continue;
            }
            st.sleepers += 1;
            let (guard, _) = self
                .available
                .wait_timeout(st, self.sweep_period - since)
                .expect("ready queue poisoned");
            st = guard;
            st.sleepers -= 1;
        }
    }

    /// Commits the context-buffered sends and events of the atomic
    /// action stamped `step` — identical bookkeeping to the thread
    /// backend's `Worker::commit`, plus the ready-queue fast path: each
    /// receiver of an enqueued message becomes ready immediately. A send
    /// the transport destroyed entered no link and wakes nobody.
    fn commit(&self, i: usize, core: &mut InstanceCore<P>, step: u64) {
        let me = ProcessId::new(i);
        for (to, msg) in core.send_buf.drain(..) {
            let link = self.links[i * self.n + to.index()]
                .as_ref()
                .expect("protocol sent to itself or out of range");
            let fate = if self.record && self.detail == TraceDetail::Full {
                let fate = link.send(msg.clone());
                core.log.push(
                    step,
                    TraceEvent::Sent {
                        from: me,
                        to,
                        msg,
                        fate,
                    },
                );
                fate
            } else {
                link.send(msg)
            };
            // Harmless when the transport delayed the message: the
            // receiver steps, finds nothing, and goes quiet again.
            if fate == SendFate::Enqueued {
                self.enqueue(to.index());
            }
        }
        for event in core.event_buf.drain(..) {
            core.stats.protocol_events += 1;
            if self.record
                && (self.detail != TraceDetail::Spec || P::event_is_spec_relevant(&event))
            {
                core.log.push(step, TraceEvent::Protocol { p: me, event });
            }
        }
    }

    /// One scheduling quantum of instance `i`: drain deliverable
    /// messages (each one an atomic receive action), run the driver
    /// hook, then one activation sweep — the exact loop body of the
    /// thread backend's worker, under the instance lock instead of on a
    /// dedicated thread. Re-enqueues itself only when it made receive or
    /// driver progress, mirroring the thread backend's backoff-reset
    /// rule (an activation alone does not keep an instance hot).
    fn step_instance(&self, i: usize) {
        let slot = &self.slots[i];
        let mut guard = slot.core.lock().expect("instance poisoned");
        if slot.crashed.load(Ordering::Acquire) {
            return;
        }
        let core = &mut *guard;
        let me = ProcessId::new(i);
        core.stats.quanta += 1;

        let mut received = 0u64;
        let in_count = self.n - 1;
        for off in 0..in_count {
            let from = incoming_origin(i, (core.rotate + off) % in_count);
            let link = self.links[from * self.n + i]
                .as_ref()
                .expect("off-diagonal");
            while let Some(msg) = link.try_recv() {
                let step = self.next_step();
                if self.record && self.detail == TraceDetail::Full {
                    core.log.push(
                        step,
                        TraceEvent::Delivered {
                            from: ProcessId::new(from),
                            to: me,
                            msg: msg.clone(),
                        },
                    );
                }
                let mut ctx = Context::new(
                    me,
                    self.n,
                    step,
                    &mut core.rng,
                    &mut core.send_buf,
                    &mut core.event_buf,
                );
                core.protocol
                    .on_receive(ProcessId::new(from), msg, &mut ctx);
                self.commit(i, core, step);
                received += 1;
            }
        }
        core.rotate = core.rotate.wrapping_add(1);
        core.stats.deliveries += received;
        // One read-modify-write per quantum: the supervisor only compares
        // the counter for progress.
        let mut active = received;

        let mut drove = false;
        if let Some(mut driver) = core.driver.take() {
            let mut scribe = Scribe::new(me, &self.counter, &mut core.log, self.record);
            drove = driver(&mut core.protocol, &mut scribe);
            core.driver = Some(driver);
        }

        if core.protocol.has_enabled_action() {
            let step = self.next_step();
            core.stats.activations += 1;
            let mut ctx = Context::new(
                me,
                self.n,
                step,
                &mut core.rng,
                &mut core.send_buf,
                &mut core.event_buf,
            );
            let acted = core.protocol.activate(&mut ctx);
            if acted {
                core.stats.effective_activations += 1;
                active += 1;
            }
            if self.record {
                core.log.push(step, TraceEvent::Activated { p: me, acted });
            }
            self.commit(i, core, step);
        }
        if active > 0 {
            slot.activity.fetch_add(active, Ordering::Relaxed);
        }

        drop(guard);
        // The quantum's output leaves here, and what has arrived comes in
        // (a no-op on in-memory links). Any link reaches the transport.
        self.links[i * self.n + incoming_origin(i, 0)]
            .as_ref()
            .expect("off-diagonal")
            .pump();
        if received > 0 || drove {
            self.enqueue(i);
        }
    }

    fn worker_loop(&self) {
        while let Some(i) = self.next_ready() {
            self.step_instance(i);
        }
    }
}

/// Maps the `k`-th incoming slot of instance `i` back to the sender
/// index (the thread backend materialises this as its `incoming` vec).
fn incoming_origin(i: usize, k: usize) -> usize {
    if k < i {
        k
    } else {
        k + 1
    }
}

/// The event-driven multiplexed runtime: `n` protocol instances stepped
/// by `workers` pool threads over the same [`Transport`]-built link
/// matrix as [`crate::LiveRunner`]. See the module docs for the design
/// and the crate docs for where it sits in the reproduction.
pub struct MuxRunner<P: Protocol> {
    shared: Arc<MuxShared<P>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    crash_noops: u64,
    restart_noops: u64,
    started: Instant,
}

impl<P: Protocol> Drop for MuxRunner<P> {
    fn drop(&mut self) {
        // Parity with the thread backend's channel-disconnect exit: a
        // dropped runner releases its pool instead of leaking spinning
        // sweeps. `stop` already joined the handles by the time it drops
        // `self`, so this second signal is an idempotent no-op there.
        self.shared.stop.store(true, Ordering::Release);
        self.shared.available.notify_all();
    }
}

impl<P> MuxRunner<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
{
    /// Spawns `workers` pool threads multiplexing the given instances
    /// over in-memory links.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two processes or zero workers are given, or
    /// the configuration is out of domain (zero capacity, loss outside
    /// `[0, 1)`).
    pub fn spawn(processes: Vec<P>, config: LiveConfig, workers: usize) -> Self {
        let drivers = processes.iter().map(|_| None).collect();
        Self::spawn_with_drivers(processes, drivers, config, workers)
    }

    /// Like [`MuxRunner::spawn`], with an optional driver hook per
    /// instance run every scheduling quantum (client workload
    /// injection).
    pub fn spawn_with_drivers(
        processes: Vec<P>,
        drivers: Vec<Option<Driver<P>>>,
        config: LiveConfig,
        workers: usize,
    ) -> Self {
        Self::spawn_with_transport(processes, drivers, config, workers, &InMemory)
            .expect("the in-memory transport is infallible")
    }

    /// Spawns the pool over an arbitrary [`Transport`] backend —
    /// in-memory links or real sockets run unchanged, exactly as under
    /// the thread backend. Fallible because a networked backend binds OS
    /// resources.
    ///
    /// # Panics
    ///
    /// See [`MuxRunner::spawn`]; additionally if the driver list length
    /// differs from the process count.
    pub fn spawn_with_transport(
        processes: Vec<P>,
        drivers: Vec<Option<Driver<P>>>,
        config: LiveConfig,
        workers: usize,
        transport: &dyn Transport<P::Msg>,
    ) -> std::io::Result<Self> {
        let n = processes.len();
        assert!(
            n >= 2,
            "a message-passing system needs at least 2 processes"
        );
        assert!(workers >= 1, "the pool needs at least one worker");
        assert_eq!(drivers.len(), n, "one driver slot per process");
        let links = transport.connect(n, &config, None)?;
        assert_eq!(links.len(), n * n, "transport built a full link matrix");
        let counter = Arc::new(AtomicU64::new(0));
        let slots: Vec<InstanceSlot<P>> = processes
            .into_iter()
            .zip(drivers)
            .enumerate()
            .map(|(i, (protocol, driver))| InstanceSlot {
                core: Mutex::new(InstanceCore {
                    protocol,
                    rng: SimRng::seed_from(
                        config.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                    ),
                    log: Trace::new(),
                    send_buf: Vec::new(),
                    event_buf: Vec::new(),
                    stats: WorkerStats::default(),
                    driver,
                    rotate: 0,
                }),
                // Born queued: the spawn-time sweep below enqueues every
                // instance, so protocols with initially enabled actions
                // (or adversarial initial state) run without waiting for
                // traffic.
                queued: AtomicBool::new(true),
                crashed: AtomicBool::new(false),
                activity: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(MuxShared {
            n,
            record: config.record_trace,
            detail: config.detail,
            counter,
            slots,
            links,
            ready: Mutex::new(ReadyState {
                queue: (0..n).collect(),
                last_sweep: Instant::now(),
                sleepers: 0,
                wakeups: 0,
            }),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            sweep_period: config.max_backoff,
        });
        // A transport whose `send` only stages cannot be followed by
        // `commit`'s `enqueue(to)`: the message enters the link later,
        // inside some worker's `pump`. Its links wake the receiver from
        // there. `Weak`, because the links live inside `shared`.
        for i in 0..n {
            let pool = Arc::downgrade(&shared);
            let waker: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
                if let Some(pool) = pool.upgrade() {
                    pool.enqueue(i);
                }
            });
            for from in (0..n).filter(|&from| from != i) {
                shared.links[from * n + i]
                    .as_ref()
                    .expect("off-diagonal")
                    .register_waker(waker.clone());
            }
        }
        let handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("snapstab-mux-{w}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker thread")
            })
            .collect();
        Ok(MuxRunner {
            shared,
            handles,
            workers,
            crash_noops: 0,
            restart_noops: 0,
            started: Instant::now(),
        })
    }

    /// Number of pool worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn push_marker(&self, p: ProcessId, core: &mut InstanceCore<P>, label: &str) {
        if self.shared.record {
            let step = self.shared.next_step();
            core.log.push_marker(step, p, label);
        }
    }
}

impl<P> RuntimeBackend<P> for MuxRunner<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
{
    fn n(&self) -> usize {
        self.shared.n
    }

    fn step_count(&self) -> u64 {
        self.shared.counter.load(Ordering::Relaxed)
    }

    fn is_crashed(&self, p: ProcessId) -> bool {
        self.shared.slots[p.index()].crashed.load(Ordering::Acquire)
    }

    fn activity(&self, p: ProcessId) -> u64 {
        self.shared.slots[p.index()]
            .activity
            .load(Ordering::Relaxed)
    }

    /// Parks instance `p`: the instance-level analogue of a crash
    /// failure. Setting the flag and then taking the instance lock waits
    /// for any in-flight atomic action to finish, so the crash lands on
    /// an action boundary — exactly where the thread backend's joined
    /// thread stops. Workers skip the instance; its links hold backlog.
    fn crash(&mut self, p: ProcessId) -> bool {
        let slot = &self.shared.slots[p.index()];
        if slot.crashed.swap(true, Ordering::AcqRel) {
            self.crash_noops += 1;
            return false;
        }
        let mut core = slot.core.lock().expect("instance poisoned");
        self.push_marker(p, &mut core, "crash");
        true
    }

    /// Unparks a crashed instance and makes it ready immediately, so it
    /// drains any backlog its links accumulated.
    fn restart(&mut self, p: ProcessId) -> bool {
        let slot = &self.shared.slots[p.index()];
        if !slot.crashed.load(Ordering::Acquire) {
            self.restart_noops += 1;
            return false;
        }
        {
            let mut core = slot.core.lock().expect("instance poisoned");
            self.push_marker(p, &mut core, "restart");
        }
        slot.crashed.store(false, Ordering::Release);
        self.shared.enqueue(p.index());
        true
    }

    fn crash_noops(&self) -> u64 {
        self.crash_noops
    }

    fn restart_noops(&self) -> u64 {
        self.restart_noops
    }

    fn link_samples(&self) -> Vec<LinkSample> {
        self.shared
            .links
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

    /// Runs a closure against instance `p` under its lock — atomic with
    /// respect to its protocol actions by construction, crashed or not
    /// (a crashed instance's state is directly accessible, like the
    /// thread backend's parked state). No command round-trip, no
    /// timeout.
    fn with_process_ctx<R, F>(&mut self, p: ProcessId, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut P, &mut Scribe<'_, P::Msg, P::Event>) -> R + Send + 'static,
    {
        let i = p.index();
        let slot = &self.shared.slots[i];
        let out = {
            let mut guard = slot.core.lock().expect("instance poisoned");
            let core = &mut *guard;
            let mut scribe =
                Scribe::new(p, &self.shared.counter, &mut core.log, self.shared.record);
            f(&mut core.protocol, &mut scribe)
        };
        // The closure may have enabled actions (e.g. a client request):
        // make the instance ready rather than waiting for the sweep.
        self.shared.enqueue(i);
        out
    }

    /// Stops the pool, joins the workers, and merges the per-instance
    /// logs into one step-ordered trace — the same [`LiveReport`] shape
    /// as the thread backend, so every spec checker runs unchanged.
    fn stop(mut self) -> LiveReport<P> {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            h.join().expect("pool worker panicked");
        }
        let wall = self.started.elapsed();
        let shared = self.shared.clone();
        drop(self);
        let shared = match Arc::try_unwrap(shared) {
            Ok(shared) => shared,
            Err(_) => unreachable!("workers joined and the handle dropped"),
        };
        let mut stats = LiveStats {
            steps: shared.counter.load(Ordering::Relaxed),
            wakeups: shared
                .ready
                .into_inner()
                .expect("ready queue poisoned")
                .wakeups,
            ..LiveStats::default()
        };
        for link in shared.links.iter().flatten() {
            stats.links.absorb(link.stats());
        }
        let mut processes = Vec::with_capacity(shared.n);
        let mut logs = Vec::with_capacity(shared.n);
        for slot in shared.slots {
            let core = slot.core.into_inner().expect("instance poisoned");
            stats.activations += core.stats.activations;
            stats.effective_activations += core.stats.effective_activations;
            stats.deliveries += core.stats.deliveries;
            stats.protocol_events += core.stats.protocol_events;
            stats.quanta += core.stats.quanta;
            processes.push(core.protocol);
            logs.push(core.log);
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
    fn mux_idl_wave_decides_and_learns_ids() {
        let mut r = MuxRunner::spawn(idl_fleet(8), LiveConfig::default(), 2);
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(
            r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_secs(20),
            ),
            "mux IDL computation must decide"
        );
        let report = r.stop();
        let learner = &report.processes[0];
        assert_eq!(learner.idl().min_id(), 10);
        for i in 1..8 {
            assert_eq!(learner.idl().id_of(p(i)), 10 + i as u64);
        }
        assert!(report.stats.deliveries > 0);
    }

    #[test]
    fn mux_merged_trace_is_step_ordered_and_causal() {
        let mut r = MuxRunner::spawn(idl_fleet(5), LiveConfig::default(), 2);
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
        let sends = report.trace.count(|e| {
            matches!(
                e,
                TraceEvent::Sent {
                    fate: SendFate::Enqueued,
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
    fn mux_lossy_wave_still_decides() {
        let cfg = LiveConfig {
            loss: 0.3,
            seed: 5,
            ..LiveConfig::default()
        };
        let mut r = MuxRunner::spawn(idl_fleet(4), cfg, 2);
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(
            r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_secs(30),
            ),
            "the sweep's retransmission pacing must push the wave through 30% loss"
        );
        let report = r.stop();
        assert!(report.stats.links.lost_in_transit > 0, "loss happened");
    }

    #[test]
    fn mux_crash_blocks_wave_restart_unblocks_it() {
        let mut r = MuxRunner::spawn(idl_fleet(3), LiveConfig::default(), 2);
        r.crash(p(2));
        assert!(r.is_crashed(p(2)));
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(
            !r.wait_until(
                p(0),
                |m: &IdlProcess| m.request() == RequestState::Done,
                Duration::from_millis(300),
            ),
            "wave must stall while an instance is crashed"
        );
        r.restart(p(2));
        assert!(!r.is_crashed(p(2)));
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ));
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
    fn mux_crash_restart_idempotent_counted_noops() {
        let mut r = MuxRunner::spawn(idl_fleet(3), LiveConfig::default(), 1);
        assert!(!r.restart(p(1)));
        assert_eq!(RuntimeBackend::restart_noops(&r), 1);
        assert!(r.crash(p(1)));
        assert!(!r.crash(p(1)));
        assert_eq!(RuntimeBackend::crash_noops(&r), 1);
        assert!(r.is_crashed(p(1)));
        assert!(r.restart(p(1)));
        assert!(!r.restart(p(1)));
        assert_eq!(RuntimeBackend::restart_noops(&r), 2);
        assert!(!r.is_crashed(p(1)));
        r.with_process(p(1), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(1),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ));
        let report = r.stop();
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
    fn mux_single_worker_hosts_many_instances() {
        // One pool thread stepping 16 instances: the degenerate schedule
        // that maximises interleaving through one worker.
        let mut r = MuxRunner::spawn(idl_fleet(16), LiveConfig::default(), 1);
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ));
        let report = r.stop();
        assert_eq!(report.processes[0].idl().min_id(), 10);
    }

    /// Polls the ready queue until every pool worker is inside
    /// `wait_timeout` with nothing queued — the pool is asleep and only a
    /// notify (or the sweep deadline) can move it.
    fn wait_asleep(r: &MuxRunner<IdlProcess>, within: Duration) -> bool {
        let deadline = Instant::now() + within;
        loop {
            {
                let st = r.shared.ready.lock().expect("ready queue poisoned");
                if st.sleepers == r.workers && st.queue.is_empty() {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A push that finds a sleeper must notify it: with the sweep 5 s
    /// away, a wave requested on a sleeping pool has to run to completion
    /// — and the pool fall asleep again with an empty queue — on wake-ups
    /// alone. A skipped notify leaves the request queued under sleeping
    /// workers and trips the 1 s bound.
    #[test]
    fn mux_sleeping_pool_is_woken_without_the_sweep() {
        for workers in [2, 1] {
            let cfg = LiveConfig {
                max_backoff: Duration::from_secs(5),
                ..LiveConfig::default()
            };
            let mut r = MuxRunner::spawn(idl_fleet(8), cfg, workers);
            assert!(
                wait_asleep(&r, Duration::from_secs(2)),
                "an idle pool must fall asleep ({workers} worker(s))"
            );
            let before = r.step_count();
            r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
            assert!(
                wait_asleep(&r, Duration::from_secs(1)),
                "the wave must drain on wake-ups alone ({workers} worker(s))"
            );
            assert!(r.step_count() > before);
            let report = r.stop();
            assert_eq!(report.processes[0].request(), RequestState::Done);
            assert!(report.stats.wakeups >= 1, "the request's push notified");
            assert!(report.stats.quanta >= report.stats.activations);
        }
    }

    #[test]
    fn mux_activity_counter_tracks_instance_progress() {
        let mut r = MuxRunner::spawn(idl_fleet(3), LiveConfig::default(), 2);
        let before = RuntimeBackend::activity(&r, p(0));
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(30),
        ));
        assert!(
            RuntimeBackend::activity(&r, p(0)) > before,
            "a wave must register as instance activity"
        );
        r.stop();
    }
}
