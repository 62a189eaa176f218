//! `runtime::monitor` — live observability via snap-stabilizing
//! snapshot waves.
//!
//! A [`Monitored<P>`] process runs the paper's §4.1 PIF-based snapshot
//! ([`snapstab_apps::SnapshotProcess`]) *alongside* a service protocol
//! `P` on the same transport: every wire message is a
//! [`MonitoredMsg`] (service or monitor plane), and the composite is
//! itself a [`Protocol`], so the runtime, the supervisor and the chaos
//! engine drive it unchanged. [`Monitoring`] is the app
//! combinator that wraps the mutex or forwarding app this way for
//! [`crate::run_service`]. Each initiator's client periodically
//! requests a cut ([`Monitored::request_cut`]); one snapshot wave then
//! collects a [`ProbeDigest`] per process — a digest of the live
//! service state plus the instrumentation gauges each process's client
//! maintains — **without pausing any instance**: digests are captured inside the
//! ordinary atomic receive actions of the wave's broadcast, exactly
//! where the paper's snapshot reads its value. The §4.1 protocol lets
//! any process initiate, so [`MonitorConfig::initiators`] may run K
//! concurrent wave schedules; every decided cut is attributed to the
//! ledger that requested it.
//!
//! Each decided cut is stamped into the merged trace as a
//! [`MonitorEvent`] and judged post-hoc by executable Specification 5
//! ([`snapstab_core::spec::analyze_snapshot_trace`]): one value per
//! live process, causal consistency with the surrounding service
//! trace, and refusal — never fabrication — of cuts from corrupted
//! monitor state. Because the §4.1 snapshot collects *values*, not
//! channel contents, the per-link half of a cut is sampled as counters
//! ([`crate::LinkSample`]) rather than recorded Chandy–Lamport style.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snapstab_apps::{SnapQuery, SnapshotProcess, SnapshotState};
use snapstab_core::forward::ForwardProcess;
use snapstab_core::me::{MeEvent, MeMsg, MeProcess};
use snapstab_core::pif::PifMsg;
use snapstab_core::probe::{state_digest, MonitorEvent, MonitorEventView, ProbeDigest};
use snapstab_core::request::RequestState;
use snapstab_sim::{Context, ProcessId, Protocol, SimRng, Trace, TraceEvent};

use crate::chaos::ChaosHarness;
use crate::mux::MuxRunner;
use crate::runner::{LinkSample, LiveConfig, LiveStats};
use crate::service::{
    quantiles, Client, Finished, ForwardTally, ForwardingServiceConfig, Gauged, Marks,
    MutexServiceConfig, MutexTally, ServiceApp,
};
use crate::telemetry::{Alert, AlertConfig, AlertKind, AlertMonitor};

/// Wire message of a monitored service: the service plane carries the
/// wrapped protocol's own messages, the monitor plane the snapshot
/// wave's PIF handshake. One transport, two multiplexed protocols.
#[derive(Clone, PartialEq, Debug)]
pub enum MonitoredMsg<M> {
    /// A message of the wrapped service protocol.
    Service(M),
    /// A message of the monitoring snapshot instance.
    Monitor(PifMsg<SnapQuery, ProbeDigest>),
}

/// Trace event of a monitored service: the wrapped protocol's events
/// interleaved with the monitor's cut-level [`MonitorEvent`]s. The
/// embedded snapshot's own low-level events are deliberately dropped —
/// Specification 5 judges cuts, and the service checkers judge the
/// service projection ([`project_service_trace`]).
#[derive(Clone, PartialEq, Debug)]
pub enum MonitoredEvent<E> {
    /// An event of the wrapped service protocol.
    Service(E),
    /// A cut-level event of the monitor.
    Monitor(MonitorEvent),
}

impl<E> MonitorEventView for MonitoredEvent<E> {
    fn as_monitor(&self) -> Option<&MonitorEvent> {
        match self {
            MonitoredEvent::Monitor(m) => Some(m),
            MonitoredEvent::Service(_) => None,
        }
    }
}

/// The state projection of a [`Monitored`] process (both planes).
#[derive(Clone, PartialEq, Debug)]
pub struct MonitoredState<S> {
    /// The wrapped service protocol's state.
    pub service: S,
    /// The monitoring snapshot instance's state.
    pub monitor: SnapshotState<ProbeDigest>,
}

/// What one requested cut came to — drained by the initiator's driver
/// via [`Monitored::take_cuts`].
#[derive(Clone, PartialEq, Debug)]
pub enum CutOutcome {
    /// The wave decided; `values[i]` is process `i`'s digest.
    Decided {
        /// Requester-assigned wave id.
        cut: u64,
        /// Global step of the decision.
        step: u64,
        /// The validated global cut.
        values: Vec<ProbeDigest>,
    },
    /// The wave was refused: the monitor's request state was corrupted
    /// at start, or the collected vector failed local validation. Never
    /// silently dropped — refusal is the honest outcome.
    Refused {
        /// Requester-assigned wave id.
        cut: u64,
    },
}

/// A service protocol `P` composed with a monitoring snapshot instance
/// on the same transport. See the module docs for the contract.
///
/// The cut ledger (`pending`/`in_cut`/`finished`) and the gauges are
/// *requester-side* state — like the driver closures, they are never
/// corrupted by [`Protocol::corrupt`]; only the two protocol planes
/// are. That asymmetry is what lets Specification 5 demand
/// refuse-never-fabricate: a corrupted monitor can lose a wave (the
/// ledger then refuses it) but cannot mint a decision the ledger never
/// requested.
#[derive(Clone, Debug)]
pub struct Monitored<P: Protocol> {
    service: P,
    monitor: SnapshotProcess<ProbeDigest>,
    me: ProcessId,
    n: usize,
    queue_depth: u32,
    in_flight: u32,
    served: u64,
    /// Cut requested by the driver, not yet handed to the monitor.
    pending: Option<u64>,
    /// Cut whose wave is in progress.
    in_cut: Option<u64>,
    /// Next requester-assigned cut id.
    next_cut: u64,
    /// Outcomes awaiting [`Monitored::take_cuts`].
    finished: Vec<CutOutcome>,
    /// Reusable inner-context buffers: the wrapper runs both planes
    /// against these on every activation and receive ([`plane`]).
    scratch_sends: Vec<(ProcessId, P::Msg)>,
    scratch_events: Vec<P::Event>,
    scratch_msends: Vec<(ProcessId, PifMsg<SnapQuery, ProbeDigest>)>,
    scratch_mevents: Vec<snapstab_apps::SnapshotEvent<ProbeDigest>>,
}

impl<P: Protocol> Monitored<P> {
    /// Wraps `service` with a monitoring instance.
    pub fn new(me: ProcessId, n: usize, service: P) -> Self {
        let digest = ProbeDigest {
            proc: me.index() as u16,
            ..ProbeDigest::default()
        };
        Monitored {
            service,
            monitor: SnapshotProcess::new(me, n, digest),
            me,
            n,
            queue_depth: 0,
            in_flight: 0,
            served: 0,
            pending: None,
            in_cut: None,
            next_cut: 0,
            finished: Vec::new(),
            scratch_sends: Vec::new(),
            scratch_events: Vec::new(),
            scratch_msends: Vec::new(),
            scratch_mevents: Vec::new(),
        }
    }

    /// The wrapped service protocol.
    pub fn service(&self) -> &P {
        &self.service
    }

    /// The wrapped service protocol, mutably (driver workload hooks).
    pub fn service_mut(&mut self) -> &mut P {
        &mut self.service
    }

    /// Updates the instrumentation gauges the next digest will carry.
    /// Drivers call this every iteration so a wave passing through
    /// observes current workload facts (queue depth, in-flight work,
    /// requests served so far at this process).
    pub fn set_gauges(&mut self, queue_depth: u32, in_flight: u32, served: u64) {
        self.queue_depth = queue_depth;
        self.in_flight = in_flight;
        self.served = served;
    }

    /// Requests a monitoring cut; returns its id, or `None` while one
    /// is already pending or in progress (at most one wave per
    /// initiator at a time).
    pub fn request_cut(&mut self) -> Option<u64> {
        if self.pending.is_some() || self.in_cut.is_some() {
            return None;
        }
        let cut = self.next_cut;
        self.next_cut += 1;
        self.pending = Some(cut);
        Some(cut)
    }

    /// Drains the finished cut outcomes (decisions and refusals).
    pub fn take_cuts(&mut self) -> Vec<CutOutcome> {
        std::mem::take(&mut self.finished)
    }

    /// Re-captures this process's digest from the live service state
    /// and current gauges, so the value the snapshot answers (or the
    /// initiator contributes) is fresh at capture time.
    fn refresh_digest(&mut self) {
        self.monitor.set_value(ProbeDigest {
            proc: self.me.index() as u16,
            state_hash: state_digest(&self.service.snapshot()),
            queue_depth: self.queue_depth,
            in_flight: self.in_flight,
            served: self.served,
        });
    }

    /// The collected vector if it passes local validation: full arity
    /// and each slot claimed by the right process. A corrupted
    /// collection fails here and the cut is refused — never published.
    fn validated_vector(&self) -> Option<Vec<ProbeDigest>> {
        let values = self.monitor.snapshot_vector()?;
        (values.len() == self.n && values.iter().enumerate().all(|(i, v)| v.proc as usize == i))
            .then_some(values)
    }
}

/// Runs one plane's atomic step against an inner context over that
/// plane's scratch buffers, then puts its sends on the wire through
/// `wrap` and its events through `emit` (`None` drops one). The buffers
/// are drained, not dropped: the hot path must not pay a heap allocation
/// per step just because a monitor rides along.
fn plane<PM, PE, M, E, R>(
    (me, n, ctx): (ProcessId, usize, &mut Context<'_, M, E>),
    (sends, events): (&mut Vec<(ProcessId, PM)>, &mut Vec<PE>),
    step: impl FnOnce(&mut Context<'_, PM, PE>) -> R,
    wrap: impl Fn(PM) -> M,
    emit: impl Fn(PE) -> Option<E>,
) -> R {
    let result = step(&mut Context::new(
        me,
        n,
        ctx.step(),
        ctx.rng(),
        sends,
        events,
    ));
    for (to, m) in sends.drain(..) {
        ctx.send(to, wrap(m));
    }
    for e in events.drain(..).filter_map(emit) {
        ctx.emit(e);
    }
    result
}

impl<P> Protocol for Monitored<P>
where
    P: Protocol,
{
    type Msg = MonitoredMsg<P::Msg>;
    type Event = MonitoredEvent<P::Event>;
    type State = MonitoredState<P::State>;

    fn activate(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) -> bool {
        let (me, n) = (self.me, self.n);
        let mut acted = plane(
            (me, n, ctx),
            (&mut self.scratch_sends, &mut self.scratch_events),
            |inner| self.service.activate(inner),
            MonitoredMsg::Service,
            |e| Some(MonitoredEvent::Service(e)),
        );

        // Hand a driver-requested cut to the monitor. `request_snapshot`
        // refuses while the monitor's request variable is corrupted
        // mid-computation (`Wait`/`In`) — the cut is then refused, not
        // forced: fabrication is structurally impossible from here.
        if let Some(cut) = self.pending.take() {
            self.refresh_digest();
            if self.monitor.request_snapshot() {
                self.in_cut = Some(cut);
                ctx.emit(MonitoredEvent::Monitor(MonitorEvent::CutStarted { cut }));
            } else {
                self.finished.push(CutOutcome::Refused { cut });
                ctx.emit(MonitoredEvent::Monitor(MonitorEvent::CutRefused { cut }));
            }
            acted = true;
        }

        // Monitor plane: drive the snapshot instance. Its own low-level
        // events are dropped (cut-level events are emitted by this
        // wrapper); its sends go out on the monitor plane.
        acted |= plane(
            (me, n, ctx),
            (&mut self.scratch_msends, &mut self.scratch_mevents),
            |inner| self.monitor.activate(inner),
            MonitoredMsg::Monitor,
            |_| None,
        );

        // Decision: the ledger vouches for the wave, the collection is
        // locally validated, and only then is a cut published.
        if let Some(cut) = self.in_cut {
            if self.monitor.request() == RequestState::Done {
                match self.validated_vector() {
                    Some(values) => {
                        ctx.emit(MonitoredEvent::Monitor(MonitorEvent::CutDecided {
                            cut,
                            values: values.clone(),
                        }));
                        self.finished.push(CutOutcome::Decided {
                            cut,
                            step: ctx.step(),
                            values,
                        });
                    }
                    None => {
                        ctx.emit(MonitoredEvent::Monitor(MonitorEvent::CutRefused { cut }));
                        self.finished.push(CutOutcome::Refused { cut });
                    }
                }
                self.in_cut = None;
                acted = true;
            }
        }
        acted
    }

    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        let (me, n) = (self.me, self.n);
        match msg {
            MonitoredMsg::Service(m) => plane(
                (me, n, ctx),
                (&mut self.scratch_sends, &mut self.scratch_events),
                |inner| self.service.on_receive(from, m, inner),
                MonitoredMsg::Service,
                |e| Some(MonitoredEvent::Service(e)),
            ),
            MonitoredMsg::Monitor(m) => {
                // Capture-on-receive: the digest a passing wave reads is
                // refreshed *inside* this atomic receive action, so the
                // answered value reflects the service state at exactly
                // this step — the paper's §4.1 read point.
                self.refresh_digest();
                plane(
                    (me, n, ctx),
                    (&mut self.scratch_msends, &mut self.scratch_mevents),
                    |inner| self.monitor.on_receive(from, m, inner),
                    MonitoredMsg::Monitor,
                    |_| None,
                )
            }
        }
    }

    fn has_enabled_action(&self) -> bool {
        self.service.has_enabled_action()
            || self.monitor.has_enabled_action()
            || self.pending.is_some()
            || (self.in_cut.is_some() && self.monitor.request() == RequestState::Done)
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        // Both protocol planes are fair game; the requester-side cut
        // ledger and gauges are harness state (see the type docs).
        self.service.corrupt(rng);
        self.monitor.corrupt(rng);
    }

    fn snapshot(&self) -> Self::State {
        MonitoredState {
            service: self.service.snapshot(),
            monitor: self.monitor.snapshot(),
        }
    }

    fn restore(&mut self, s: Self::State) {
        self.service.restore(s.service);
        self.monitor.restore(s.monitor);
    }

    /// The service plane's own relevance rule; every cut event, which
    /// Specification 5 reads.
    fn event_is_spec_relevant(event: &Self::Event) -> bool {
        match event {
            MonitoredEvent::Service(e) => P::event_is_spec_relevant(e),
            MonitoredEvent::Monitor(_) => true,
        }
    }
}

/// Projects a monitored run's merged trace onto the service plane:
/// service events unwrapped, monitor cut events dropped, everything
/// else (activations, sends, deliveries, markers) kept verbatim. The
/// result feeds the service-level checkers — e.g.
/// `snapstab_core::spec::analyze_me_epochs` over a monitored mutex run
/// — which are generic over the message type, so the wire messages
/// stay wrapped.
pub fn project_service_trace<M, E>(
    trace: &Trace<MonitoredMsg<M>, MonitoredEvent<E>>,
) -> Trace<MonitoredMsg<M>, E>
where
    M: Clone,
    E: Clone,
{
    let mut out = Trace::new();
    for te in trace.iter() {
        let event = match &te.event {
            TraceEvent::Protocol { p, event } => match event {
                MonitoredEvent::Service(e) => TraceEvent::Protocol {
                    p: *p,
                    event: e.clone(),
                },
                MonitoredEvent::Monitor(_) => continue,
            },
            TraceEvent::Activated { p, acted } => TraceEvent::Activated {
                p: *p,
                acted: *acted,
            },
            TraceEvent::Sent {
                from,
                to,
                msg,
                fate,
            } => TraceEvent::Sent {
                from: *from,
                to: *to,
                msg: msg.clone(),
                fate: *fate,
            },
            TraceEvent::Delivered { from, to, msg } => TraceEvent::Delivered {
                from: *from,
                to: *to,
                msg: msg.clone(),
            },
            TraceEvent::Corrupted { p } => TraceEvent::Corrupted { p: *p },
            TraceEvent::Marker { p, label } => TraceEvent::Marker {
                p: *p,
                label: label.clone(),
            },
        };
        out.push(te.step, event);
    }
    out
}

/// Configuration of the monitoring side of a monitored service run.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Target period between cut requests at each initiator.
    pub interval: Duration,
    /// How many initiators run concurrent snapshot waves: processes
    /// `0..initiators`, each on its own schedule (phase-staggered by
    /// `interval * i / K` so the waves desynchronize). The §4.1
    /// protocol lets any process initiate; every initiator keeps its
    /// own single-flight cut ledger, and Specification 5 attributes
    /// each decided cut to the ledger that requested it.
    pub initiators: usize,
    /// Alert thresholds evaluated on each initiator's cut chain.
    pub alerts: AlertConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_millis(100),
            initiators: 1,
            alerts: AlertConfig::default(),
        }
    }
}

/// One cut observed live: the decided values plus the harness-side
/// measurements attached when the cut surfaced.
#[derive(Clone, Debug)]
pub struct LiveCut {
    /// Requester-assigned wave id (per initiator).
    pub cut: u64,
    /// The initiator whose ledger requested this cut.
    pub initiator: ProcessId,
    /// Global step of the decision.
    pub step: u64,
    /// `values[i]` is process `i`'s digest.
    pub values: Vec<ProbeDigest>,
    /// Wall-clock time from the cut request to the moment the decided
    /// cut surfaced at the harness — how stale a cut is by the time an
    /// operator sees it.
    pub staleness: Duration,
    /// Wall-clock offset from run start when the cut surfaced — the
    /// time axis `telemetry::Series` differences against.
    pub at: Duration,
    /// Per-link counters sampled when the cut surfaced (drops,
    /// `lost_reorder`, in-transit) — the channel half of the cut.
    pub links: Vec<LinkSample>,
}

impl LiveCut {
    /// Sum of the per-process `served` gauges in this cut.
    pub fn served_total(&self) -> u64 {
        self.values.iter().map(|v| v.served).sum()
    }

    /// Sum of the per-process queue-depth gauges in this cut.
    pub fn queue_total(&self) -> u64 {
        self.values.iter().map(|v| u64::from(v.queue_depth)).sum()
    }

    /// Sum of the per-process in-flight gauges in this cut.
    pub fn in_flight_total(&self) -> u64 {
        self.values.iter().map(|v| u64::from(v.in_flight)).sum()
    }

    /// Messages currently in transit, summed over all links.
    pub fn in_transit_total(&self) -> u64 {
        self.links.iter().map(|l| l.in_transit as u64).sum()
    }
}

/// One initiator's share of a monitored run's outcome.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InitiatorStats {
    /// The initiating process.
    pub initiator: ProcessId,
    /// Cuts this initiator's ledger decided.
    pub cuts: u64,
    /// Waves this initiator's ledger refused.
    pub refused: u64,
}

/// The monitoring half of a monitored run's outcome.
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// Every decided cut, in decision order (cuts from concurrent
    /// initiators interleave; each carries its `initiator`).
    pub cuts: Vec<LiveCut>,
    /// Waves refused across all initiators (corrupted monitor state or
    /// failed validation).
    pub refused: u64,
    /// Refusals per initiator (`refused_by[i]` is initiator `i`'s).
    pub refused_by: Vec<u64>,
    /// How many initiators ran concurrent wave schedules.
    pub initiators: usize,
    /// Alerts fired by the initiators' threshold monitors, in firing
    /// order (each is also a trace mark under
    /// [`crate::telemetry::ALERT_MARK_PREFIX`]).
    pub alerts: Vec<Alert>,
    /// Wall-clock duration of the run (denominator for cut rates).
    pub wall: Duration,
}

impl MonitorReport {
    /// Decided cuts per second, all initiators combined.
    pub fn cuts_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.cuts.len() as f64 / self.wall.as_secs_f64()
        }
    }

    /// Decided cuts per second on one initiator's chain.
    pub fn cuts_per_sec_of(&self, initiator: ProcessId) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.cuts
                .iter()
                .filter(|c| c.initiator == initiator)
                .count() as f64
                / self.wall.as_secs_f64()
        }
    }

    /// Per-initiator cut/refusal attribution, in initiator order.
    pub fn per_initiator(&self) -> Vec<InitiatorStats> {
        (0..self.initiators)
            .map(|i| InitiatorStats {
                initiator: ProcessId::new(i),
                cuts: self
                    .cuts
                    .iter()
                    .filter(|c| c.initiator.index() == i)
                    .count() as u64,
                refused: self.refused_by.get(i).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Mean cut staleness, if any cut decided.
    pub fn mean_staleness(&self) -> Option<Duration> {
        if self.cuts.is_empty() {
            return None;
        }
        Some(self.cuts.iter().map(|c| c.staleness).sum::<Duration>() / self.cuts.len() as u32)
    }
}

/// Outcome of a monitored mutex-service run: the service-side counters
/// of [`crate::ServiceReport`] plus the [`MonitorReport`].
pub struct MonitoredMutexReport {
    /// Requests handed to the protocol.
    pub injected: u64,
    /// Requests served end-to-end.
    pub served: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregate runtime counters.
    pub stats: LiveStats,
    /// The merged composite trace (`None` when recording was off) —
    /// feed it to `analyze_snapshot_trace` directly and to the service
    /// checkers via [`project_service_trace`].
    pub trace: Option<Trace<MonitoredMsg<MeMsg>, MonitoredEvent<MeEvent>>>,
    /// Per-request service latencies.
    pub latencies: Vec<Duration>,
    /// Per-link counters sampled just before shutdown (same table as
    /// the unmonitored services).
    pub link_samples: Vec<LinkSample>,
    /// The monitoring half.
    pub monitor: MonitorReport,
}

impl MonitoredMutexReport {
    /// Served requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64()
    }

    /// Nearest-rank latency quantiles (each in 0.0–1.0), if any request
    /// was served.
    pub fn latency_quantiles(&self, qs: &[f64]) -> Option<Vec<Duration>> {
        quantiles(&self.latencies, qs)
    }
}

/// Outcome of a monitored forwarding-service run.
pub struct MonitoredForwardingReport {
    /// Genuine payloads handed to the protocol.
    pub injected: u64,
    /// Genuine payloads delivered end-to-end.
    pub delivered: u64,
    /// Stale pre-filled entries flushed end-to-end.
    pub spurious: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Aggregate runtime counters.
    pub stats: LiveStats,
    /// The merged composite trace (`None` when recording was off).
    pub trace: Option<
        Trace<
            MonitoredMsg<snapstab_core::forward::ForwardMsg>,
            MonitoredEvent<snapstab_core::forward::ForwardEvent>,
        >,
    >,
    /// Per-payload end-to-end latencies.
    pub latencies: Vec<Duration>,
    /// Per-link counters sampled just before shutdown (same table as
    /// the unmonitored services).
    pub link_samples: Vec<LinkSample>,
    /// The monitoring half.
    pub monitor: MonitorReport,
}

impl MonitoredForwardingReport {
    /// Genuine payloads delivered per second.
    pub fn payloads_per_sec(&self) -> f64 {
        self.delivered as f64 / self.wall.as_secs_f64()
    }
}
/// Shared plumbing of the monitoring clients: the per-initiator cut
/// schedules and the feed the supervision loop drains. `requested_at`
/// lives here (not in the clients) so the post-stop drain can still
/// timestamp the staleness of a cut that decided after its initiator
/// client's last pass; with K concurrent initiators each ledger needs
/// its own request-time slot.
struct MonitorFeed {
    started: Instant,
    cuts: Mutex<Vec<LiveCut>>,
    refused: AtomicU64,
    refused_by: Vec<AtomicU64>,
    /// Whether each ledger has decided a wave yet, taken or refused.
    settled: Vec<AtomicBool>,
    requested_at: Vec<Mutex<Option<Instant>>>,
    alerts: Mutex<Vec<Alert>>,
}

impl MonitorFeed {
    fn new(n: usize) -> Self {
        MonitorFeed {
            started: Instant::now(),
            cuts: Mutex::new(Vec::new()),
            refused: AtomicU64::new(0),
            refused_by: (0..n).map(|_| AtomicU64::new(0)).collect(),
            settled: (0..n).map(|_| AtomicBool::new(false)).collect(),
            requested_at: (0..n).map(|_| Mutex::new(None)).collect(),
            alerts: Mutex::new(Vec::new()),
        }
    }
}

/// Books one finished outcome of `initiator`'s ledger into the feed:
/// a decision becomes a [`LiveCut`] stamped with its staleness
/// (request to drain) and run offset; a refusal clears the request
/// slot and counts against the initiator.
fn record_outcome(feed: &MonitorFeed, initiator: ProcessId, outcome: CutOutcome) {
    feed.settled[initiator.index()].store(true, Ordering::Relaxed);
    match outcome {
        CutOutcome::Decided { cut, step, values } => {
            let staleness = feed.requested_at[initiator.index()]
                .lock()
                .expect("requested_at")
                .take()
                .map(|t| t.elapsed())
                .unwrap_or_default();
            feed.cuts.lock().expect("cut feed").push(LiveCut {
                cut,
                initiator,
                step,
                values,
                staleness,
                at: feed.started.elapsed(),
                links: Vec::new(),
            });
        }
        CutOutcome::Refused { .. } => {
            feed.requested_at[initiator.index()]
                .lock()
                .expect("requested_at")
                .take();
            feed.refused.fetch_add(1, Ordering::Relaxed);
            feed.refused_by[initiator.index()].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Drains newly surfaced cuts from the feed, attaches `links` to each,
/// reports them to `on_cut`, and appends them to `cuts`.
fn flush_feed(
    feed: &MonitorFeed,
    links: &[LinkSample],
    cuts: &mut Vec<LiveCut>,
    on_cut: &mut Option<&mut dyn FnMut(&LiveCut)>,
) {
    let fresh: Vec<LiveCut> = {
        let mut feed = feed.cuts.lock().expect("cut feed");
        feed.drain(..).collect()
    };
    for mut cut in fresh {
        cut.links = links.to_vec();
        if let Some(cb) = on_cut.as_mut() {
            cb(&cut);
        }
        cuts.push(cut);
    }
}

/// One initiator's cut schedule and alert thresholds, run by its
/// client.
struct Initiator {
    me: ProcessId,
    feed: Arc<MonitorFeed>,
    interval: Duration,
    next_due: Instant,
    alerts: AlertMonitor,
}

impl Initiator {
    /// Requests cuts on the interval, drains outcomes, timestamps
    /// staleness, and runs the alert thresholds — a fired alert is
    /// stamped into the trace *by this client, inside the run* (so
    /// alert behavior is part of what the specifications judge) and
    /// pushed to the feed for the supervision loop. Returns whether it
    /// progressed. Link samples are attached loop-side (the client runs
    /// inside an atomic action and has no view of the link matrix).
    fn drive<P: Protocol>(&mut self, proc: &mut Monitored<P>, marks: &mut impl Marks) -> bool {
        let mut progressed = false;
        for outcome in proc.take_cuts() {
            let fired: Vec<Alert> = match &outcome {
                CutOutcome::Decided { cut, values, .. } => {
                    let served: u64 = values.iter().map(|v| v.served).sum();
                    let queue: u64 = values.iter().map(|v| u64::from(v.queue_depth)).sum();
                    self.alerts.on_decided(*cut, served, queue)
                }
                CutOutcome::Refused { cut } => self.alerts.on_refused(*cut).into_iter().collect(),
            };
            record_outcome(&self.feed, self.me, outcome);
            for alert in fired {
                marks.mark(alert.mark());
                self.feed.alerts.lock().expect("alert feed").push(alert);
            }
            progressed = true;
        }
        let now = Instant::now();
        if now >= self.next_due && proc.request_cut().is_some() {
            *self.feed.requested_at[self.me.index()]
                .lock()
                .expect("requested_at") = Some(now);
            self.next_due = now + self.interval;
            progressed = true;
        }
        progressed
    }
}

/// The monitored sink: a completion also writes the `"served"` marker —
/// what Specification 5's causal check bounds the cut gauges against —
/// and counts toward the process's `served` gauge.
struct Served<'s, K> {
    marks: &'s mut K,
    served: &'s mut u64,
}

impl<K: Marks> Marks for Served<'_, K> {
    fn me(&self) -> ProcessId {
        self.marks.me()
    }

    fn mark(&mut self, label: impl Into<String>) -> u64 {
        self.marks.mark(label)
    }

    fn completed(&mut self) {
        *self.served += 1;
        self.marks.mark("served");
    }
}

/// A [`Monitoring`] client: the wrapped app's client on the service
/// plane, then the digest gauges, then — at an initiator — the cut
/// schedule.
pub struct MonitorClient<C> {
    inner: C,
    /// Requests or payloads completed at this process.
    served: u64,
    initiator: Option<Initiator>,
}

impl<P: Protocol, C: Client<P> + Gauged<P>> Client<Monitored<P>> for MonitorClient<C> {
    fn step(&mut self, proc: &mut Monitored<P>, marks: &mut impl Marks) -> bool {
        let mut sink = Served {
            marks: &mut *marks,
            served: &mut self.served,
        };
        let mut progressed = self.inner.step(proc.service_mut(), &mut sink);
        let (queue, in_flight) = self.inner.gauges(proc.service());
        proc.set_gauges(queue, in_flight, self.served);
        if let Some(initiator) = self.initiator.as_mut() {
            progressed |= initiator.drive(proc, marks);
        }
        progressed
    }
}

/// A [`Monitoring`] run's tally: the wrapped app's, plus the cut feed
/// and the cuts surfaced so far.
pub struct MonitorTally<T> {
    inner: T,
    feed: Arc<MonitorFeed>,
    cuts: Vec<LiveCut>,
    alerts_fed: usize,
}

/// An app [`Monitoring`] can wrap: its clients report gauges, and it
/// knows its monitored report.
pub trait MonitorApp: ServiceApp<Client: Gauged<<Self as ServiceApp>::Proc>> {
    /// What a monitored run yields.
    type MonitoredReport;

    /// Builds the monitored report of the stopped run.
    fn finish_monitored(
        self,
        tally: Self::Tally,
        run: Finished<Monitored<Self::Proc>>,
        monitor: MonitorReport,
    ) -> Self::MonitoredReport;
}

impl MonitorApp for &MutexServiceConfig {
    type MonitoredReport = MonitoredMutexReport;

    fn finish_monitored(
        self,
        tally: Arc<MutexTally>,
        run: Finished<Monitored<MeProcess>>,
        monitor: MonitorReport,
    ) -> MonitoredMutexReport {
        let (injected, served, latencies) = tally.take();
        MonitoredMutexReport {
            injected,
            served,
            wall: run.wall,
            stats: run.stats,
            trace: run.trace,
            latencies,
            link_samples: run.link_samples,
            monitor,
        }
    }
}

impl MonitorApp for &ForwardingServiceConfig {
    type MonitoredReport = MonitoredForwardingReport;

    fn finish_monitored(
        self,
        tally: Arc<ForwardTally>,
        run: Finished<Monitored<ForwardProcess>>,
        monitor: MonitorReport,
    ) -> MonitoredForwardingReport {
        let (injected, delivered, spurious, latencies) = tally.take();
        MonitoredForwardingReport {
            injected,
            delivered,
            spurious,
            wall: run.wall,
            stats: run.stats,
            trace: run.trace,
            latencies,
            link_samples: run.link_samples,
            monitor,
        }
    }
}

/// The snapshot monitor as an app combinator: runs `app` with a
/// [`Monitored`] composite per process on the same transport, under
/// chaos or not, like any other app. Every completion writes
/// a `"served"` marker; each of the [`MonitorConfig::initiators`]
/// requests cuts on its schedule; decided cuts surface with the link
/// samples of the moment, through `on_cut` as they do, and in the
/// report's [`MonitorReport`]. The run ends once the work is done and
/// every initiator has decided at least one wave. One consistent cut
/// spans every instance — digests are captured inside the same atomic
/// per-instance step the scheduler serializes. Under chaos the
/// composite (service *and* monitor plane) is corrupted, crashed and
/// partitioned like any process, and stalled-served alerts mark every
/// instance suspect for the supervisor.
///
/// ```
/// use snapstab_core::spec::{analyze_forwarding_trace, analyze_snapshot_trace};
/// use snapstab_runtime::{
///     project_service_trace, run_service, ForwardingServiceConfig, LiveCut, MonitorConfig,
///     Monitoring, ServiceRun,
/// };
/// use std::time::Duration;
///
/// let cfg = ForwardingServiceConfig {
///     n: 3,
///     payloads_per_process: 20,
///     time_budget: Duration::from_secs(30),
///     ..ForwardingServiceConfig::default()
/// };
/// let mon = MonitorConfig {
///     interval: Duration::from_millis(5),
///     ..MonitorConfig::default()
/// };
/// let mut streamed = 0;
/// let mut count = |_: &LiveCut| streamed += 1;
/// let app = Monitoring {
///     app: &cfg,
///     mon: &mon,
///     on_cut: Some(&mut count),
/// };
/// let (report, _) = run_service(app, ServiceRun::default()).unwrap();
/// assert_eq!(report.delivered, 60);
/// assert_eq!(streamed, report.monitor.cuts.len());
/// // Every decided cut passes Specification 5, the service plane
/// // Specification 4.
/// let trace = report.trace.unwrap();
/// assert!(analyze_snapshot_trace(&trace, 3, &[]).holds());
/// assert!(analyze_forwarding_trace(&project_service_trace(&trace), 3).holds());
/// ```
pub struct Monitoring<'a, A> {
    /// The wrapped app.
    pub app: A,
    /// Cut interval, initiators, alert thresholds.
    pub mon: &'a MonitorConfig,
    /// Called as each decided cut surfaces (the CLI's streaming
    /// summaries).
    pub on_cut: Option<&'a mut dyn FnMut(&LiveCut)>,
}

impl<'a, A> Monitoring<'a, A> {
    /// `app` monitored per `mon`, without a cut callback.
    pub fn new(app: A, mon: &'a MonitorConfig) -> Self {
        Monitoring {
            app,
            mon,
            on_cut: None,
        }
    }
}

impl<A: MonitorApp> ServiceApp for Monitoring<'_, A> {
    type Proc = Monitored<A::Proc>;
    type Client = MonitorClient<A::Client>;
    type Tally = MonitorTally<A::Tally>;
    type Report = A::MonitoredReport;

    fn live(&self) -> &LiveConfig {
        self.app.live()
    }

    fn time_budget(&self) -> Duration {
        self.app.time_budget()
    }

    fn build(&self) -> (Vec<Self::Proc>, Vec<Self::Client>, Self::Tally) {
        let (services, clients, inner) = self.app.build();
        let n = services.len();
        let k = self.mon.initiators;
        assert!(k >= 1 && k <= n, "1 ≤ initiators ≤ n");
        let feed = Arc::new(MonitorFeed::new(n));
        let processes = services
            .into_iter()
            .enumerate()
            .map(|(i, service)| Monitored::new(ProcessId::new(i), n, service))
            .collect();
        let interval = self.mon.interval;
        let clients = clients
            .into_iter()
            .enumerate()
            .map(|(i, inner)| MonitorClient {
                inner,
                served: 0,
                // Initiator `i`'s schedule is phase-offset by `i/K` of an
                // interval so concurrent waves desynchronize; with one
                // initiator this is the phase-zero schedule (first cut on
                // the first client pass, subsequent ones every
                // `interval`).
                initiator: (i < k).then(|| Initiator {
                    me: ProcessId::new(i),
                    feed: feed.clone(),
                    interval,
                    next_due: Instant::now() + interval.mul_f64(i as f64 / k as f64),
                    alerts: AlertMonitor::new(ProcessId::new(i), self.mon.alerts),
                }),
            })
            .collect();
        let tally = MonitorTally {
            inner,
            feed,
            cuts: Vec::new(),
            alerts_fed: 0,
        };
        (processes, clients, tally)
    }

    fn completed(&self, tally: &Self::Tally) -> u64 {
        self.app.completed(&tally.inner)
    }

    /// The work is done **and** every initiator's ledger has decided at
    /// least one wave, taken or refused. Initiator `i` first asks for a
    /// cut `interval·i/K` into the run, so a run that stopped with the
    /// work would end before the later ledgers report anything; the time
    /// budget still bounds the wait.
    fn done(&self, tally: &Self::Tally) -> bool {
        self.app.done(&tally.inner)
            && tally.feed.settled[..self.mon.initiators]
                .iter()
                .all(|s| s.load(Ordering::Relaxed))
    }

    /// Surfaces newly decided cuts with the current link samples.
    fn poll(&mut self, tally: &mut Self::Tally, runner: &MuxRunner<Self::Proc>) {
        if tally.feed.cuts.lock().expect("cut feed").is_empty() {
            return;
        }
        let links = runner.link_samples();
        flush_feed(&tally.feed, &links, &mut tally.cuts, &mut self.on_cut);
    }

    /// Feeds newly fired stalled-served alerts to the supervisor as a
    /// wedge signal: the whole service showing zero progress across
    /// consecutive consistent cuts (with work queued) marks every instance
    /// suspect, so the watchdog recycles any that show no fresh activity
    /// by its next pass instead of waiting out the full wedge deadline.
    fn chaos_ticked(&mut self, tally: &mut Self::Tally, harness: &mut ChaosHarness) {
        let alerts = tally.feed.alerts.lock().expect("alert feed");
        let stalled = alerts[tally.alerts_fed.min(alerts.len())..]
            .iter()
            .any(|a| a.kind == AlertKind::StalledServed);
        tally.alerts_fed = alerts.len();
        drop(alerts);
        if stalled {
            harness.suspect_all();
        }
    }

    /// Post-stop drain: a wave can decide after the initiator client's
    /// last pass, leaving its outcome in the `Monitored` ledger (or a
    /// client can feed a cut after the loop's last poll). The trace
    /// records those decisions, so the report must collect them too —
    /// drain the returned protocol states, then flush the feed with the
    /// final link table as every late cut's channel half.
    fn finish(mut self, mut tally: Self::Tally, mut run: Finished<Self::Proc>) -> Self::Report {
        for (i, proc) in run.processes.iter_mut().enumerate() {
            for outcome in proc.take_cuts() {
                record_outcome(&tally.feed, ProcessId::new(i), outcome);
            }
        }
        flush_feed(
            &tally.feed,
            &run.link_samples,
            &mut tally.cuts,
            &mut self.on_cut,
        );
        let feed = &tally.feed;
        let initiators = self.mon.initiators;
        let monitor = MonitorReport {
            cuts: tally.cuts,
            refused: feed.refused.load(Ordering::Relaxed),
            refused_by: feed
                .refused_by
                .iter()
                .take(initiators)
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            initiators,
            alerts: std::mem::take(&mut *feed.alerts.lock().expect("alert feed")),
            wall: run.wall,
        };
        self.app.finish_monitored(tally.inner, run, monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::service::{run_service, ServiceRun};
    use snapstab_core::me::MeConfig;
    use snapstab_core::spec::{analyze_me_epochs, analyze_me_trace, analyze_snapshot_trace};

    fn mutex_cfg(n: usize) -> MutexServiceConfig {
        MutexServiceConfig {
            n,
            requests_per_process: 3,
            cs_duration: 0,
            live: LiveConfig::default(),
            time_budget: Duration::from_secs(45),
        }
    }

    fn fast_monitor() -> MonitorConfig {
        MonitorConfig {
            interval: Duration::from_millis(5),
            ..MonitorConfig::default()
        }
    }

    fn monitored<A: MonitorApp>(app: A, mon: &MonitorConfig, workers: usize) -> A::MonitoredReport {
        let run = ServiceRun {
            workers,
            ..ServiceRun::default()
        };
        run_service(Monitoring::new(app, mon), run)
            .expect("in-memory")
            .0
    }

    #[test]
    fn monitored_mutex_serves_and_cuts_pass_spec5() {
        let cfg = mutex_cfg(3);
        let report = monitored(&cfg, &fast_monitor(), 1);
        assert_eq!(report.served, 9, "monitoring must not eat requests");
        assert!(
            !report.monitor.cuts.is_empty(),
            "a 5ms interval must land at least one cut"
        );
        assert!(report.monitor.cuts_per_sec() > 0.0);
        for cut in &report.monitor.cuts {
            assert_eq!(cut.values.len(), 3, "one digest per process");
            assert_eq!(cut.links.len(), 6, "n(n-1) directed link samples");
        }
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(
            spec.cuts_decided(),
            report.monitor.cuts.len(),
            "every live cut appears in the trace verdict"
        );
        // Gauge sanity: the final cut's served total is at most the
        // workload (and grows over the run).
        let last = report.monitor.cuts.last().unwrap();
        assert!(last.served_total() <= 9);
    }

    #[test]
    fn monitored_trace_projects_to_clean_service_trace() {
        let cfg = mutex_cfg(3);
        let report = monitored(&cfg, &fast_monitor(), 1);
        let trace = report.trace.as_ref().expect("recording on");
        let service = project_service_trace(trace);
        let me = analyze_me_trace(&service, cfg.n);
        assert!(me.exclusivity_holds(), "{:?}", me.genuine_overlaps);
        assert!(me.all_served(), "unserved: {:?}", me.unserved);
        assert_eq!(me.served.len(), 9);
        // Projection preserves the full step count minus monitor events.
        assert!(service.iter().count() <= trace.iter().count());
    }

    #[test]
    fn monitored_mutex_under_chaos_holds_spec5_per_epoch_spec3() {
        use crate::chaos::ChaosMix;
        let cfg = MutexServiceConfig {
            requests_per_process: 4,
            live: LiveConfig {
                seed: 7,
                ..LiveConfig::default()
            },
            time_budget: Duration::from_secs(60),
            ..mutex_cfg(3)
        };
        let plan = ChaosPlan {
            bursts: 2,
            quiet: Duration::from_millis(20),
            disruption: Duration::from_millis(15),
            ..ChaosPlan::profile(ChaosMix::All, 7)
        };
        let mon = fast_monitor();
        let run = ServiceRun {
            chaos: Some(&plan),
            ..ServiceRun::default()
        };
        let (report, chaos) = run_service(Monitoring::new(&cfg, &mon), run).expect("in-memory");
        let chaos = chaos.expect("chaos plan was given");
        assert_eq!(report.served, 12, "chaos must not eat requests");
        assert_eq!(chaos.bursts_fired, 2);
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &chaos.fault_steps);
        assert!(spec.holds(), "Spec 5 under chaos: {spec:?}");
        let service = project_service_trace(trace);
        let epochs = analyze_me_epochs(&service, cfg.n, &chaos.fault_steps);
        assert!(epochs.holds(), "projected epochs: {epochs:?}");
    }

    #[test]
    fn monitored_forwarding_delivers_and_cuts_pass_spec5() {
        // Enough payloads that serving spans several monitor intervals:
        // the run stops once all are delivered, and a two-payload run
        // could end before its first cut wave decided.
        let cfg = ForwardingServiceConfig {
            n: 3,
            payloads_per_process: 40,
            buffer_cap: 4,
            prefill_stale: false,
            live: LiveConfig::default(),
            time_budget: Duration::from_secs(45),
        };
        let report = monitored(&cfg, &fast_monitor(), 1);
        assert_eq!(report.delivered, 120);
        assert!(!report.monitor.cuts.is_empty());
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
    }

    #[test]
    fn multi_initiator_cuts_attributed_per_ledger() {
        let cfg = mutex_cfg(3);
        let mon = MonitorConfig {
            initiators: 2,
            ..fast_monitor()
        };
        let report = monitored(&cfg, &mon, 1);
        assert_eq!(report.served, 9, "extra initiators must not eat requests");
        assert_eq!(report.monitor.initiators, 2);
        assert!(
            !report.monitor.cuts.is_empty(),
            "two 5ms schedules must land at least one cut"
        );
        for cut in &report.monitor.cuts {
            assert!(
                cut.initiator.index() < 2,
                "cut {} attributed to non-initiator {:?}",
                cut.cut,
                cut.initiator
            );
        }
        let per = report.monitor.per_initiator();
        assert_eq!(per.len(), 2);
        let cuts_sum: u64 = per.iter().map(|s| s.cuts).sum();
        assert_eq!(cuts_sum as usize, report.monitor.cuts.len());
        let refused_sum: u64 = per.iter().map(|s| s.refused).sum();
        assert_eq!(refused_sum, report.monitor.refused);
        // Per-initiator ledgers are independent: each one's cut ids are
        // strictly increasing in trace order.
        for init in 0..2 {
            let ids: Vec<u64> = report
                .monitor
                .cuts
                .iter()
                .filter(|c| c.initiator.index() == init)
                .map(|c| c.cut)
                .collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "ledger {init}: {ids:?}"
            );
        }
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.cuts_decided(), report.monitor.cuts.len());
    }

    #[test]
    fn monitored_mutex_on_mux_passes_spec5() {
        let cfg = mutex_cfg(4);
        let report = monitored(&cfg, &fast_monitor(), 2);
        assert_eq!(report.served, 12, "monitoring must not eat requests");
        assert!(
            !report.monitor.cuts.is_empty(),
            "a cut must span the multiplexed instances"
        );
        for cut in &report.monitor.cuts {
            assert_eq!(cut.values.len(), 4, "one digest per instance");
        }
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.cuts_decided(), report.monitor.cuts.len());
    }

    #[test]
    fn monitored_forwarding_on_mux_passes_spec5() {
        let cfg = ForwardingServiceConfig {
            n: 3,
            payloads_per_process: 2,
            buffer_cap: 4,
            prefill_stale: false,
            live: LiveConfig::default(),
            time_budget: Duration::from_secs(45),
        };
        let report = monitored(&cfg, &fast_monitor(), 2);
        assert_eq!(report.delivered, 6);
        assert!(!report.monitor.cuts.is_empty());
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
    }

    /// A run whose work finishes long before the later initiators' first
    /// due times (`interval·i/K`) still waits until every ledger has
    /// decided a wave, so each one reports a cut or a refusal.
    #[test]
    fn every_initiator_decides_before_a_short_run_ends() {
        let cfg = MutexServiceConfig {
            requests_per_process: 1,
            ..mutex_cfg(3)
        };
        let mon = MonitorConfig {
            interval: Duration::from_millis(300),
            initiators: 3,
            ..MonitorConfig::default()
        };
        let report = monitored(&cfg, &mon, 2);
        assert_eq!(report.served, 3);
        let per = report.monitor.per_initiator();
        assert_eq!(per.len(), 3);
        for stats in &per {
            assert!(stats.cuts + stats.refused >= 1, "{per:?}");
        }
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
    }

    /// A `TraceDetail::Spec` recording of a monitored run keeps what
    /// Specification 5 reads — every cut event and marker — and drops
    /// the service plane's wave events, as the unmonitored service does.
    #[test]
    fn spec_detail_monitored_trace_passes_spec5_without_wave_events() {
        let cfg = MutexServiceConfig {
            live: LiveConfig {
                detail: crate::TraceDetail::Spec,
                ..LiveConfig::default()
            },
            ..mutex_cfg(3)
        };
        let report = monitored(&cfg, &fast_monitor(), 2);
        assert_eq!(report.served, 9);
        let trace = report.trace.as_ref().expect("recording on");
        let waves = trace.count(|e| {
            matches!(
                e,
                TraceEvent::Protocol {
                    event: MonitoredEvent::Service(MeEvent::Pif(_)),
                    ..
                }
            )
        });
        assert_eq!(waves, 0, "the service plane's wave events are dropped");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.cuts_decided(), report.monitor.cuts.len());
        assert!(spec.cuts_decided() >= 1);
    }

    #[test]
    fn cut_ledger_is_single_flight() {
        let me = ProcessId::new(0);
        let svc = MeProcess::with_config(me, 2, 100, MeConfig::default());
        let mut m = Monitored::new(me, 2, svc);
        let first = m.request_cut();
        assert_eq!(first, Some(0));
        assert_eq!(m.request_cut(), None, "one wave in flight at a time");
        assert!(m.take_cuts().is_empty());
    }
}
