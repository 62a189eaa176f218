//! `runtime::monitor` — live observability via snap-stabilizing
//! snapshot waves.
//!
//! A [`Monitored<P>`] process runs the paper's §4.1 PIF-based snapshot
//! ([`snapstab_apps::SnapshotProcess`]) *alongside* a service protocol
//! `P` on the same transport: every wire message is a
//! [`MonitoredMsg`] (service or monitor plane), and the composite is
//! itself a [`Protocol`], so the existing runtime backends — the
//! thread-per-process [`crate::LiveRunner`] and the multiplexed
//! [`crate::MuxRunner`], through the [`RuntimeBackend`] seam — plus
//! the supervisor and chaos engine drive it unchanged. Each
//! initiator's driver periodically requests a cut
//! ([`Monitored::request_cut`]); one snapshot wave then collects a
//! [`ProbeDigest`] per process — a digest of the live service state
//! plus the instrumentation gauges each worker's driver maintains —
//! **without pausing any worker**: digests are captured inside the
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snapstab_apps::{SnapQuery, SnapshotProcess, SnapshotState};
use snapstab_core::forward::{forward_workload, ForwardConfig, ForwardProcess, STALE_ID_BIT};
use snapstab_core::me::{MeConfig, MeEvent, MeMsg, MeProcess};
use snapstab_core::pif::PifMsg;
use snapstab_core::probe::{state_digest, MonitorEvent, MonitorEventView, ProbeDigest};
use snapstab_core::request::RequestState;
use snapstab_sim::{Context, ProcessId, Protocol, SimRng, Trace, TraceEvent};

use crate::chaos::{ChaosHarness, ChaosPlan, ChaosReport, ChaosTransport};
use crate::runner::{Driver, LinkSample, LiveConfig, LiveStats, RuntimeBackend, Scribe};
use crate::service::{spawn_mux, spawn_threads, ForwardingServiceConfig, MutexServiceConfig};
use crate::telemetry::{Alert, AlertConfig, AlertKind, AlertMonitor};
use crate::transport::{InMemory, Transport};

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
    /// against these on every activation and receive, and the hot path
    /// (millions of service messages per second) must not pay a heap
    /// allocation per step just because a monitor rides along. Always
    /// drained before a call returns.
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

impl<P> Protocol for Monitored<P>
where
    P: Protocol,
{
    type Msg = MonitoredMsg<P::Msg>;
    type Event = MonitoredEvent<P::Event>;
    type State = MonitoredState<P::State>;

    fn activate(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) -> bool {
        let mut acted = false;

        // Service plane: run the wrapped protocol against an inner
        // context, then translate its sends/events onto the wire.
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut events = std::mem::take(&mut self.scratch_events);
        {
            let mut inner = Context::new(
                self.me,
                self.n,
                ctx.step(),
                ctx.rng(),
                &mut sends,
                &mut events,
            );
            acted |= self.service.activate(&mut inner);
        }
        for (to, m) in sends.drain(..) {
            ctx.send(to, MonitoredMsg::Service(m));
        }
        for e in events.drain(..) {
            ctx.emit(MonitoredEvent::Service(e));
        }
        self.scratch_sends = sends;
        self.scratch_events = events;

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
        let mut msends = std::mem::take(&mut self.scratch_msends);
        let mut mevents = std::mem::take(&mut self.scratch_mevents);
        {
            let mut inner = Context::new(
                self.me,
                self.n,
                ctx.step(),
                ctx.rng(),
                &mut msends,
                &mut mevents,
            );
            acted |= self.monitor.activate(&mut inner);
        }
        for (to, m) in msends.drain(..) {
            ctx.send(to, MonitoredMsg::Monitor(m));
        }
        mevents.clear();
        self.scratch_msends = msends;
        self.scratch_mevents = mevents;

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
        match msg {
            MonitoredMsg::Service(m) => {
                let mut sends = std::mem::take(&mut self.scratch_sends);
                let mut events = std::mem::take(&mut self.scratch_events);
                {
                    let mut inner = Context::new(
                        self.me,
                        self.n,
                        ctx.step(),
                        ctx.rng(),
                        &mut sends,
                        &mut events,
                    );
                    self.service.on_receive(from, m, &mut inner);
                }
                for (to, m) in sends.drain(..) {
                    ctx.send(to, MonitoredMsg::Service(m));
                }
                for e in events.drain(..) {
                    ctx.emit(MonitoredEvent::Service(e));
                }
                self.scratch_sends = sends;
                self.scratch_events = events;
            }
            MonitoredMsg::Monitor(m) => {
                // Capture-on-receive: the digest a passing wave reads is
                // refreshed *inside* this atomic receive action, so the
                // answered value reflects the service state at exactly
                // this step — the paper's §4.1 read point.
                self.refresh_digest();
                let mut msends = std::mem::take(&mut self.scratch_msends);
                let mut mevents = std::mem::take(&mut self.scratch_mevents);
                {
                    let mut inner = Context::new(
                        self.me,
                        self.n,
                        ctx.step(),
                        ctx.rng(),
                        &mut msends,
                        &mut mevents,
                    );
                    self.monitor.on_receive(from, m, &mut inner);
                }
                for (to, m) in msends.drain(..) {
                    ctx.send(to, MonitoredMsg::Monitor(m));
                }
                mevents.clear();
                self.scratch_msends = msends;
                self.scratch_mevents = mevents;
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

fn quantiles(latencies: &[Duration], qs: &[f64]) -> Option<Vec<Duration>> {
    if latencies.is_empty() {
        return None;
    }
    let mut v = latencies.to_vec();
    v.sort_unstable();
    Some(
        qs.iter()
            .map(|q| v[((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize])
            .collect(),
    )
}

/// Shared plumbing of the monitoring drivers: the per-initiator cut
/// schedules and the feed the harness loop drains. `requested_at`
/// lives here (not in the driver closures) so the post-stop drain can
/// still timestamp the staleness of a cut that decided after its
/// initiator driver's last pass; with K concurrent initiators each
/// ledger needs its own request-time slot.
struct MonitorFeed {
    started: Instant,
    cuts: Mutex<Vec<LiveCut>>,
    refused: AtomicU64,
    refused_by: Vec<AtomicU64>,
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

/// Moves finished cut outcomes out of the `Monitored` ledger into the
/// feed. Returns whether anything moved. Called post-stop on the
/// protocol states the stopped runner hands back (the in-run path is
/// [`drive_monitor`], which additionally evaluates alerts).
fn drain_outcomes<P: Protocol>(
    proc: &mut Monitored<P>,
    feed: &MonitorFeed,
    initiator: ProcessId,
) -> bool {
    let mut progressed = false;
    for outcome in proc.take_cuts() {
        record_outcome(feed, initiator, outcome);
        progressed = true;
    }
    progressed
}

/// Builds the monitoring half of an initiator's driver hook: requests
/// cuts on the interval, drains outcomes, timestamps staleness, and
/// runs the alert thresholds — a fired alert is stamped into the trace
/// *by this driver, inside the run* (so alert behavior is part of what
/// the specifications judge) and pushed to the feed for the harness.
/// Returns whether it progressed. Link samples are attached
/// harness-side (the driver runs inside a worker and has no view of
/// the link matrix).
fn drive_monitor<P: Protocol>(
    proc: &mut Monitored<P>,
    scribe: &mut Scribe<'_, MonitoredMsg<P::Msg>, MonitoredEvent<P::Event>>,
    feed: &MonitorFeed,
    initiator: ProcessId,
    interval: Duration,
    next_due: &mut Instant,
    alerts: &mut AlertMonitor,
) -> bool {
    let mut progressed = false;
    for outcome in proc.take_cuts() {
        let fired: Vec<Alert> = match &outcome {
            CutOutcome::Decided { cut, values, .. } => {
                let served: u64 = values.iter().map(|v| v.served).sum();
                let queue: u64 = values.iter().map(|v| u64::from(v.queue_depth)).sum();
                alerts.on_decided(*cut, served, queue)
            }
            CutOutcome::Refused { cut } => alerts.on_refused(*cut).into_iter().collect(),
        };
        record_outcome(feed, initiator, outcome);
        for alert in fired {
            scribe.mark(alert.mark());
            feed.alerts.lock().expect("alert feed").push(alert);
        }
        progressed = true;
    }
    let now = Instant::now();
    if now >= *next_due && proc.request_cut().is_some() {
        *feed.requested_at[initiator.index()]
            .lock()
            .expect("requested_at") = Some(now);
        *next_due = now + interval;
        progressed = true;
    }
    progressed
}

/// Drains the feed, attaches `links` to each cut, reports them to
/// `on_cut`, and appends them to `cuts`.
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

/// Drains newly surfaced cuts from the feed, attaches the current link
/// samples, reports them to `on_cut`, and appends them to `cuts`.
/// Generic over the runtime backend: the thread-per-process
/// [`LiveRunner`](crate::LiveRunner) and the multiplexed
/// [`MuxRunner`](crate::MuxRunner) expose the same link table through
/// the [`RuntimeBackend`] seam.
fn absorb_cuts<P, B>(
    runner: &B,
    feed: &MonitorFeed,
    cuts: &mut Vec<LiveCut>,
    on_cut: &mut Option<&mut dyn FnMut(&LiveCut)>,
) where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Event: Send,
    B: RuntimeBackend<P>,
{
    if feed.cuts.lock().expect("cut feed").is_empty() {
        return;
    }
    let links = runner.link_samples();
    flush_feed(feed, &links, cuts, on_cut);
}

/// Feeds newly fired stalled-served alerts to the chaos supervisor as
/// a wedge signal: the whole service showing zero progress across
/// consecutive consistent cuts (with work queued) marks every worker
/// suspect, so the watchdog recycles any that show no fresh activity
/// by its next pass instead of waiting out the full wedge deadline.
/// Returns the new alert-feed cursor.
fn feed_wedge_alerts(feed: &MonitorFeed, harness: &mut ChaosHarness, seen: usize) -> usize {
    let alerts = feed.alerts.lock().expect("alert feed");
    let stalled = alerts[seen.min(alerts.len())..]
        .iter()
        .any(|a| a.kind == AlertKind::StalledServed);
    let len = alerts.len();
    drop(alerts);
    if stalled {
        harness.suspect_all();
    }
    len
}

/// Assembles the [`MonitorReport`] from the drained feed.
fn monitor_report(
    feed: &MonitorFeed,
    cuts: Vec<LiveCut>,
    initiators: usize,
    wall: Duration,
) -> MonitorReport {
    MonitorReport {
        cuts,
        refused: feed.refused.load(Ordering::Relaxed),
        refused_by: feed
            .refused_by
            .iter()
            .take(initiators)
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        initiators,
        alerts: std::mem::take(&mut *feed.alerts.lock().expect("alert feed")),
        wall,
    }
}

/// Runs the mutex service with a monitoring instance alongside, over
/// the in-memory transport.
///
/// ```
/// use snapstab_runtime::{run_monitored_mutex_service, MonitorConfig, MutexServiceConfig};
/// use snapstab_core::spec::analyze_snapshot_trace;
/// use std::time::Duration;
///
/// let cfg = MutexServiceConfig {
///     n: 3,
///     requests_per_process: 2,
///     time_budget: Duration::from_secs(30),
///     ..MutexServiceConfig::default()
/// };
/// let mon = MonitorConfig {
///     interval: Duration::from_millis(5),
///     ..MonitorConfig::default()
/// };
/// let report = run_monitored_mutex_service(&cfg, &mon);
/// assert_eq!(report.served, 6);
/// let spec = analyze_snapshot_trace(&report.trace.unwrap(), 3, &[]);
/// assert!(spec.holds());
/// ```
pub fn run_monitored_mutex_service(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
) -> MonitoredMutexReport {
    run_monitored_mutex_service_on(cfg, mon, &InMemory)
        .expect("the in-memory transport is infallible")
}

/// [`run_monitored_mutex_service`] over an arbitrary [`Transport`].
pub fn run_monitored_mutex_service_on(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
) -> std::io::Result<MonitoredMutexReport> {
    monitored_mutex_impl(cfg, mon, transport, None, &mut None, spawn_threads).map(|(r, _)| r)
}

/// [`run_monitored_mutex_service`] on the [`crate::MuxRunner`]
/// backend: the same composite processes multiplexed over a
/// `workers`-thread pool, in-memory links. One consistent cut spans
/// every instance — digests are captured inside the same atomic
/// per-instance step the mux scheduler serializes, so scaling the
/// instance count past the thread backend's ceiling does not weaken
/// the cut's §4.1 semantics.
pub fn run_monitored_mutex_service_mux(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
) -> MonitoredMutexReport {
    run_monitored_mutex_service_mux_on(cfg, mon, workers, &InMemory)
        .expect("the in-memory transport is infallible")
}

/// [`run_monitored_mutex_service_mux`] over an arbitrary [`Transport`].
pub fn run_monitored_mutex_service_mux_on(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
) -> std::io::Result<MonitoredMutexReport> {
    monitored_mutex_impl(cfg, mon, transport, None, &mut None, spawn_mux(workers)).map(|(r, _)| r)
}

/// [`run_monitored_mutex_service_on`] under a live chaos schedule: the
/// composite process (service *and* monitor plane) is corrupted,
/// crashed and partitioned mid-run; Specification 5 must still hold on
/// the merged trace with the report's authoritative fault steps.
pub fn run_monitored_mutex_service_chaos_on(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
    plan: &ChaosPlan,
) -> std::io::Result<(MonitoredMutexReport, ChaosReport)> {
    monitored_mutex_impl(cfg, mon, transport, Some(plan), &mut None, spawn_threads)
        .map(|(r, c)| (r, c.expect("chaos plan was given")))
}

/// [`run_monitored_mutex_service_chaos_on`] on the mux backend.
pub fn run_monitored_mutex_service_chaos_mux_on(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
    plan: &ChaosPlan,
) -> std::io::Result<(MonitoredMutexReport, ChaosReport)> {
    monitored_mutex_impl(
        cfg,
        mon,
        transport,
        Some(plan),
        &mut None,
        spawn_mux(workers),
    )
    .map(|(r, c)| (r, c.expect("chaos plan was given")))
}

/// The full-control variant: optional chaos plan plus an `on_cut`
/// callback invoked as each decided cut surfaces (the CLI's streaming
/// summaries).
pub fn run_monitored_mutex_service_with(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
    plan: Option<&ChaosPlan>,
    mut on_cut: Option<&mut dyn FnMut(&LiveCut)>,
) -> std::io::Result<(MonitoredMutexReport, Option<ChaosReport>)> {
    monitored_mutex_impl(cfg, mon, transport, plan, &mut on_cut, spawn_threads)
}

/// [`run_monitored_mutex_service_with`] on the mux backend.
pub fn run_monitored_mutex_service_mux_with(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
    plan: Option<&ChaosPlan>,
    mut on_cut: Option<&mut dyn FnMut(&LiveCut)>,
) -> std::io::Result<(MonitoredMutexReport, Option<ChaosReport>)> {
    monitored_mutex_impl(cfg, mon, transport, plan, &mut on_cut, spawn_mux(workers))
}

fn monitored_mutex_impl<B>(
    cfg: &MutexServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<MeMsg>>,
    plan: Option<&ChaosPlan>,
    on_cut: &mut Option<&mut dyn FnMut(&LiveCut)>,
    spawn: impl FnOnce(
        Vec<Monitored<MeProcess>>,
        Vec<Option<Driver<Monitored<MeProcess>>>>,
        LiveConfig,
        &dyn Transport<MonitoredMsg<MeMsg>>,
    ) -> std::io::Result<B>,
) -> std::io::Result<(MonitoredMutexReport, Option<ChaosReport>)>
where
    B: RuntimeBackend<Monitored<MeProcess>>,
{
    let n = cfg.n;
    assert!(
        mon.initiators >= 1 && mon.initiators <= n,
        "1 ≤ initiators ≤ n"
    );
    let processes: Vec<Monitored<MeProcess>> = (0..n)
        .map(|i| {
            let me = ProcessId::new(i);
            let service = MeProcess::with_config(
                me,
                n,
                100 + i as u64,
                MeConfig {
                    cs_duration: cfg.cs_duration,
                    ..MeConfig::default()
                },
            );
            Monitored::new(me, n, service)
        })
        .collect();

    let total = cfg.requests_per_process * n as u64;
    let injected = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let feed = Arc::new(MonitorFeed::new(n));

    let drivers: Vec<Option<Driver<Monitored<MeProcess>>>> = (0..n)
        .map(|i| {
            let mut remaining = cfg.requests_per_process;
            let mut outstanding: Option<Instant> = None;
            let mut served_here: u64 = 0;
            let injected = injected.clone();
            let served = served.clone();
            let latencies = latencies.clone();
            let is_initiator = i < mon.initiators;
            let me_id = ProcessId::new(i);
            let interval = mon.interval;
            let feed = feed.clone();
            let mut alert_mon = AlertMonitor::new(me_id, mon.alerts);
            // Initiator `i`'s schedule is phase-offset by `i/K` of an
            // interval so concurrent waves desynchronize; with one
            // initiator this is the phase-zero schedule (first cut on
            // the first driver pass, subsequent ones every `interval`).
            let mut next_due = Instant::now() + interval.mul_f64(i as f64 / mon.initiators as f64);
            let hook: Driver<Monitored<MeProcess>> = Box::new(move |proc, scribe| {
                let mut progressed = false;
                if let Some(since) = outstanding {
                    if proc.service().request() == RequestState::Done {
                        served.fetch_add(1, Ordering::Relaxed);
                        served_here += 1;
                        // The "served" marker is what Specification 5's
                        // causal check bounds the cut gauges against.
                        scribe.mark("served");
                        latencies.lock().expect("latency log").push(since.elapsed());
                        outstanding = None;
                        progressed = true;
                    }
                }
                if outstanding.is_none()
                    && remaining > 0
                    && proc.service().request() == RequestState::Done
                {
                    scribe.mark("request");
                    if proc.service_mut().request_cs() {
                        remaining -= 1;
                        outstanding = Some(Instant::now());
                        injected.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    }
                }
                proc.set_gauges(
                    remaining.min(u64::from(u32::MAX)) as u32,
                    u32::from(outstanding.is_some()),
                    served_here,
                );
                if is_initiator {
                    progressed |= drive_monitor(
                        proc,
                        scribe,
                        &feed,
                        me_id,
                        interval,
                        &mut next_due,
                        &mut alert_mon,
                    );
                }
                progressed
            });
            Some(hook)
        })
        .collect();

    let record = cfg.live.record_trace;
    let chaos_transport = plan.map(|_| ChaosTransport::new(transport, n));
    let mut runner = match &chaos_transport {
        Some(ct) => spawn(processes, drivers, cfg.live.clone(), ct)?,
        None => spawn(processes, drivers, cfg.live.clone(), transport)?,
    };
    let mut harness = plan.map(|p| {
        let plane = chaos_transport.as_ref().expect("wrapped above").plane();
        ChaosHarness::new(p, plane, n, &cfg.live)
    });
    let mut cuts: Vec<LiveCut> = Vec::new();
    let mut alerts_fed = 0;
    let deadline = Instant::now() + cfg.time_budget;
    loop {
        absorb_cuts(&runner, &feed, &mut cuts, on_cut);
        let work_done = served.load(Ordering::Relaxed) >= total;
        let chaos_done = harness.as_ref().is_none_or(|h| h.done(&runner));
        if (work_done && chaos_done) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        if let Some(h) = harness.as_mut() {
            h.tick(&mut runner, served.load(Ordering::Relaxed));
            alerts_fed = feed_wedge_alerts(&feed, h, alerts_fed);
        }
    }
    let chaos_report = harness.map(|h| h.finish(&mut runner));
    // Sample the link table while the matrix is still alive; cuts
    // surfacing from here on get this final table as their channel half.
    let link_samples = runner.link_samples();
    let mut report = runner.stop();
    // Post-stop drain: a wave can decide after the initiator driver's
    // last pass, leaving its outcome in the `Monitored` ledger (or a
    // driver can feed a cut after the harness's last poll). The trace
    // records those decisions, so the harness must collect them too —
    // drain the returned protocol states, then flush the feed.
    for (i, proc) in report.processes.iter_mut().enumerate() {
        drain_outcomes(proc, &feed, ProcessId::new(i));
    }
    flush_feed(&feed, &link_samples, &mut cuts, on_cut);

    let latencies = std::mem::take(&mut *latencies.lock().expect("latency log"));
    let monitor = monitor_report(&feed, cuts, mon.initiators, report.wall);
    Ok((
        MonitoredMutexReport {
            injected: injected.load(Ordering::Relaxed),
            served: served.load(Ordering::Relaxed),
            wall: report.wall,
            stats: report.stats,
            trace: record.then_some(report.trace),
            latencies,
            link_samples,
            monitor,
        },
        chaos_report,
    ))
}

/// Runs the forwarding service with a monitoring instance alongside,
/// over the in-memory transport.
pub fn run_monitored_forwarding_service(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
) -> MonitoredForwardingReport {
    run_monitored_forwarding_service_on(cfg, mon, &InMemory)
        .expect("the in-memory transport is infallible")
}

/// [`run_monitored_forwarding_service`] over an arbitrary [`Transport`].
pub fn run_monitored_forwarding_service_on(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
) -> std::io::Result<MonitoredForwardingReport> {
    monitored_forwarding_impl(cfg, mon, transport, None, &mut None, spawn_threads).map(|(r, _)| r)
}

/// [`run_monitored_forwarding_service`] on the [`crate::MuxRunner`]
/// backend with a `workers`-thread pool, in-memory links.
pub fn run_monitored_forwarding_service_mux(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
) -> MonitoredForwardingReport {
    run_monitored_forwarding_service_mux_on(cfg, mon, workers, &InMemory)
        .expect("the in-memory transport is infallible")
}

/// [`run_monitored_forwarding_service_mux`] over an arbitrary
/// [`Transport`].
pub fn run_monitored_forwarding_service_mux_on(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
) -> std::io::Result<MonitoredForwardingReport> {
    monitored_forwarding_impl(cfg, mon, transport, None, &mut None, spawn_mux(workers))
        .map(|(r, _)| r)
}

/// [`run_monitored_forwarding_service_on`] under a live chaos schedule.
pub fn run_monitored_forwarding_service_chaos_on(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
    plan: &ChaosPlan,
) -> std::io::Result<(MonitoredForwardingReport, ChaosReport)> {
    monitored_forwarding_impl(cfg, mon, transport, Some(plan), &mut None, spawn_threads)
        .map(|(r, c)| (r, c.expect("chaos plan was given")))
}

/// [`run_monitored_forwarding_service_chaos_on`] on the mux backend.
pub fn run_monitored_forwarding_service_chaos_mux_on(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
    plan: &ChaosPlan,
) -> std::io::Result<(MonitoredForwardingReport, ChaosReport)> {
    monitored_forwarding_impl(
        cfg,
        mon,
        transport,
        Some(plan),
        &mut None,
        spawn_mux(workers),
    )
    .map(|(r, c)| (r, c.expect("chaos plan was given")))
}

/// The full-control variant with an `on_cut` streaming callback.
pub fn run_monitored_forwarding_service_with(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
    plan: Option<&ChaosPlan>,
    mut on_cut: Option<&mut dyn FnMut(&LiveCut)>,
) -> std::io::Result<(MonitoredForwardingReport, Option<ChaosReport>)> {
    monitored_forwarding_impl(cfg, mon, transport, plan, &mut on_cut, spawn_threads)
}

/// [`run_monitored_forwarding_service_with`] on the mux backend.
pub fn run_monitored_forwarding_service_mux_with(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    workers: usize,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
    plan: Option<&ChaosPlan>,
    mut on_cut: Option<&mut dyn FnMut(&LiveCut)>,
) -> std::io::Result<(MonitoredForwardingReport, Option<ChaosReport>)> {
    monitored_forwarding_impl(cfg, mon, transport, plan, &mut on_cut, spawn_mux(workers))
}

fn monitored_forwarding_impl<B>(
    cfg: &ForwardingServiceConfig,
    mon: &MonitorConfig,
    transport: &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
    plan: Option<&ChaosPlan>,
    on_cut: &mut Option<&mut dyn FnMut(&LiveCut)>,
    spawn: impl FnOnce(
        Vec<Monitored<ForwardProcess>>,
        Vec<Option<Driver<Monitored<ForwardProcess>>>>,
        LiveConfig,
        &dyn Transport<MonitoredMsg<snapstab_core::forward::ForwardMsg>>,
    ) -> std::io::Result<B>,
) -> std::io::Result<(MonitoredForwardingReport, Option<ChaosReport>)>
where
    B: RuntimeBackend<Monitored<ForwardProcess>>,
{
    let n = cfg.n;
    assert!(
        mon.initiators >= 1 && mon.initiators <= n,
        "1 ≤ initiators ≤ n"
    );
    let config = ForwardConfig {
        buffer_cap: cfg.buffer_cap,
        flag_domain: snapstab_core::flag::FlagDomain::for_capacity(cfg.live.capacity.max(1)),
    };
    let mut services: Vec<ForwardProcess> = (0..n)
        .map(|i| ForwardProcess::new(ProcessId::new(i), n, config))
        .collect();
    if cfg.prefill_stale {
        let mut rng = SimRng::seed_from(cfg.live.seed ^ 0x57A1_EB0F);
        for proc in &mut services {
            proc.prefill_stale(&mut rng);
        }
    }
    let processes: Vec<Monitored<ForwardProcess>> = services
        .into_iter()
        .enumerate()
        .map(|(i, svc)| Monitored::new(ProcessId::new(i), n, svc))
        .collect();

    let workload = forward_workload(n, cfg.payloads_per_process, cfg.live.seed);
    let total: u64 = workload.iter().map(|w| w.len() as u64).sum();
    let injected = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));
    let spurious = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let inject_times: Arc<Mutex<std::collections::HashMap<u64, Instant>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    let feed = Arc::new(MonitorFeed::new(n));

    let drivers: Vec<Option<Driver<Monitored<ForwardProcess>>>> = workload
        .into_iter()
        .enumerate()
        .map(|(i, stream)| {
            let mut queue: VecDeque<_> = stream.into();
            let mut collected_here: u64 = 0;
            let injected = injected.clone();
            let delivered = delivered.clone();
            let spurious = spurious.clone();
            let inject_times = inject_times.clone();
            let latencies = latencies.clone();
            let is_initiator = i < mon.initiators;
            let me_id = ProcessId::new(i);
            let interval = mon.interval;
            let feed = feed.clone();
            let mut alert_mon = AlertMonitor::new(me_id, mon.alerts);
            // Initiator `i`'s schedule is phase-offset by `i/K` of an
            // interval (see the mutex impl).
            let mut next_due = Instant::now() + interval.mul_f64(i as f64 / mon.initiators as f64);
            let hook: Driver<Monitored<ForwardProcess>> = Box::new(move |proc, scribe| {
                let mut progressed = false;
                for payload in proc.service_mut().take_delivered() {
                    // Every end-to-end collection counts for the gauge
                    // and gets a "served" marker — stale flushes too, so
                    // the cut's causal bound matches what it counts.
                    collected_here += 1;
                    scribe.mark("served");
                    if payload.id & STALE_ID_BIT == 0 {
                        delivered.fetch_add(1, Ordering::Relaxed);
                        let since = inject_times.lock().expect("timestamps").remove(&payload.id);
                        if let Some(since) = since {
                            latencies.lock().expect("latency log").push(since.elapsed());
                        }
                    } else {
                        spurious.fetch_add(1, Ordering::Relaxed);
                    }
                    progressed = true;
                }
                if proc.service().can_inject() {
                    if let Some(&payload) = queue.front() {
                        inject_times
                            .lock()
                            .expect("timestamps")
                            .insert(payload.id, Instant::now());
                        assert!(
                            proc.service_mut().request_send(payload),
                            "workload stays in domain"
                        );
                        queue.pop_front();
                        injected.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    }
                }
                let buffered = proc.service().buffered().min(u32::MAX as usize) as u32;
                proc.set_gauges(
                    queue.len().min(u32::MAX as usize) as u32,
                    buffered,
                    collected_here,
                );
                if is_initiator {
                    progressed |= drive_monitor(
                        proc,
                        scribe,
                        &feed,
                        me_id,
                        interval,
                        &mut next_due,
                        &mut alert_mon,
                    );
                }
                progressed
            });
            Some(hook)
        })
        .collect();

    let record = cfg.live.record_trace;
    let chaos_transport = plan.map(|_| ChaosTransport::new(transport, n));
    let mut runner = match &chaos_transport {
        Some(ct) => spawn(processes, drivers, cfg.live.clone(), ct)?,
        None => spawn(processes, drivers, cfg.live.clone(), transport)?,
    };
    let mut harness = plan.map(|p| {
        let plane = chaos_transport.as_ref().expect("wrapped above").plane();
        ChaosHarness::new(p, plane, n, &cfg.live)
    });
    let mut cuts: Vec<LiveCut> = Vec::new();
    let mut alerts_fed = 0;
    let deadline = Instant::now() + cfg.time_budget;
    loop {
        absorb_cuts(&runner, &feed, &mut cuts, on_cut);
        let completed = delivered.load(Ordering::Relaxed) + spurious.load(Ordering::Relaxed);
        let work_done = delivered.load(Ordering::Relaxed) >= total;
        let chaos_done = harness.as_ref().is_none_or(|h| h.done(&runner));
        if (work_done && chaos_done) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        if let Some(h) = harness.as_mut() {
            h.tick(&mut runner, completed);
            alerts_fed = feed_wedge_alerts(&feed, h, alerts_fed);
        }
    }
    let chaos_report = harness.map(|h| h.finish(&mut runner));
    // Sample the link table while the matrix is still alive; cuts
    // surfacing from here on get this final table as their channel half.
    let link_samples = runner.link_samples();
    let mut report = runner.stop();
    // Post-stop drain: a wave can decide after the initiator driver's
    // last pass, leaving its outcome in the `Monitored` ledger (or a
    // driver can feed a cut after the harness's last poll). The trace
    // records those decisions, so the harness must collect them too —
    // drain the returned protocol states, then flush the feed.
    for (i, proc) in report.processes.iter_mut().enumerate() {
        drain_outcomes(proc, &feed, ProcessId::new(i));
    }
    flush_feed(&feed, &link_samples, &mut cuts, on_cut);

    let latencies = std::mem::take(&mut *latencies.lock().expect("latency log"));
    let monitor = monitor_report(&feed, cuts, mon.initiators, report.wall);
    Ok((
        MonitoredForwardingReport {
            injected: injected.load(Ordering::Relaxed),
            delivered: delivered.load(Ordering::Relaxed),
            spurious: spurious.load(Ordering::Relaxed),
            wall: report.wall,
            stats: report.stats,
            trace: record.then_some(report.trace),
            latencies,
            link_samples,
            monitor,
        },
        chaos_report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LiveConfig;
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

    #[test]
    fn monitored_mutex_serves_and_cuts_pass_spec5() {
        let cfg = mutex_cfg(3);
        let report = run_monitored_mutex_service(&cfg, &fast_monitor());
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
        let report = run_monitored_mutex_service(&cfg, &fast_monitor());
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
        let (report, chaos) =
            run_monitored_mutex_service_chaos_on(&cfg, &fast_monitor(), &InMemory, &plan)
                .expect("in-memory");
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
        let report = run_monitored_forwarding_service(&cfg, &fast_monitor());
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
        let report = run_monitored_mutex_service(&cfg, &mon);
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
        let report = run_monitored_mutex_service_mux(&cfg, &fast_monitor(), 2);
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
        let report = run_monitored_forwarding_service_mux(&cfg, &fast_monitor(), 2);
        assert_eq!(report.delivered, 6);
        assert!(!report.monitor.cuts.is_empty());
        let trace = report.trace.as_ref().expect("recording on");
        let spec = analyze_snapshot_trace(trace, cfg.n, &[]);
        assert!(spec.holds(), "{spec:?}");
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
