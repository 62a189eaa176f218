//! The live chaos engine and the self-healing supervisor.
//!
//! Snap-stabilization (Definition 1) promises the specification from
//! *any* configuration — which includes configurations a transient fault
//! creates **mid-run**, not just corrupted starts. This module makes that
//! claim executable against a *running* service:
//!
//! * [`ChaosPlan`] — a seeded schedule of fault bursts with quiet
//!   periods, grouped into named mixes ([`ChaosMix`]).
//! * [`ChaosEngine`] — injects the bursts into a live backend (any
//!   [`RuntimeBackend`]: the thread-per-process [`crate::LiveRunner`] or
//!   the multiplexed [`crate::MuxRunner`]): worker **state corruption**
//!   (the [`Protocol::corrupt`] hook run atomically against a paused
//!   instance, marked `chaos:corrupt`), **crash storms**
//!   ([`RuntimeBackend::crash`] — a dead thread on one backend, a parked
//!   instance on the other, healed by the supervisor either way),
//!   **link partitions** with heal cycles and **drop storms**, both
//!   pushed through [`FaultPlane`] wrappers around the [`Transport`]
//!   abstraction so in-memory lanes and UDP sockets degrade identically.
//! * [`Supervisor`] — the watchdog: detects crashed workers and *wedged*
//!   ones (no effective activations within a deadline, read from the
//!   per-instance [`RuntimeBackend::activity`] counter), restarts them
//!   with **adversarially corrupted** state (marked
//!   `chaos:restart-corrupt` — a restart is a transient fault, and a
//!   snap-stabilizing protocol must not care), under bounded exponential
//!   backoff reusing the
//!   [`LiveConfig::min_backoff`]/[`LiveConfig::max_backoff`] knobs.
//! * [`ChaosHarness`] — engine + supervisor + recovery-time bookkeeping,
//!   driven from a service poll loop; [`ChaosHarness::finish`] yields the
//!   [`ChaosReport`] whose `fault_steps` are the *authoritative* fault
//!   marks that `snapstab_core::spec::analyze_me_epochs` /
//!   `analyze_forwarding_epochs` split the merged trace at.
//!
//! Every fault the engine or supervisor injects draws a global step and a
//! `chaos:`-prefixed marker; the epoch checkers reject any such marker
//! *not* vouched for by the report (forged fault marks), so the chaos
//! machinery cannot be abused to excuse genuine violations.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use snapstab_sim::{ProcessId, Protocol, SendFate, SimRng};

use crate::link::{LaneOf, LinkStats};
use crate::runner::{LiveConfig, RuntimeBackend};
use crate::transport::{link_seed, Link, LinkMatrix, Transport};

/// Salt mixed into the runtime seed for the per-link chaos-drop RNG
/// streams, so they are independent of the transport's own loss streams.
const CHAOS_LINK_SALT: u64 = 0x5EED_0C4A_0D15_EA5E;

/// Salt for the supervisor's adversarial-restart RNG stream.
const SUPERVISOR_SALT: u64 = 0xBAD5_EED5_0F0F_5157;

/// Basis points per unit probability (the drop knob's fixed-point scale).
const BP_SCALE: u64 = 10_000;

/// A named fault mix: which burst kinds a [`ChaosPlan`] rotates through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosMix {
    /// Mid-run worker state corruption only.
    Corrupt,
    /// Crash storms only (healed by the supervisor's corrupted restarts).
    Crash,
    /// Link partition / heal cycles only.
    Partition,
    /// Link drop storms only.
    Storm,
    /// All of the above, round-robin.
    All,
}

impl ChaosMix {
    /// Every valid profile name, in display order — the CLI's `--chaos`
    /// contract lists exactly these.
    pub const NAMES: [&'static str; 5] = ["corrupt", "crash", "partition", "storm", "all"];

    /// Parses a profile name (the CLI's `--chaos` argument).
    pub fn parse(name: &str) -> Option<ChaosMix> {
        match name {
            "corrupt" => Some(ChaosMix::Corrupt),
            "crash" => Some(ChaosMix::Crash),
            "partition" => Some(ChaosMix::Partition),
            "storm" => Some(ChaosMix::Storm),
            "all" => Some(ChaosMix::All),
            _ => None,
        }
    }

    /// The profile's name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChaosMix::Corrupt => "corrupt",
            ChaosMix::Crash => "crash",
            ChaosMix::Partition => "partition",
            ChaosMix::Storm => "storm",
            ChaosMix::All => "all",
        }
    }

    /// The burst kinds this mix rotates through.
    fn kinds(&self) -> &'static [BurstKind] {
        match self {
            ChaosMix::Corrupt => &[BurstKind::Corrupt],
            ChaosMix::Crash => &[BurstKind::Crash],
            ChaosMix::Partition => &[BurstKind::Partition],
            ChaosMix::Storm => &[BurstKind::Storm],
            ChaosMix::All => &[
                BurstKind::Corrupt,
                BurstKind::Crash,
                BurstKind::Partition,
                BurstKind::Storm,
            ],
        }
    }
}

/// One kind of fault burst.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BurstKind {
    /// Corrupt the variables of a random subset of workers.
    Corrupt,
    /// Crash a random subset of workers.
    Crash,
    /// Cut the links across a random bipartition for the disruption
    /// window, then heal.
    Partition,
    /// Raise every link's drop probability for the disruption window,
    /// then calm.
    Storm,
}

/// A seeded schedule of fault bursts with quiet periods.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Which fault kinds to inject.
    pub mix: ChaosMix,
    /// Number of bursts to fire.
    pub bursts: u32,
    /// Quiet period before the first burst and between bursts.
    pub quiet: Duration,
    /// How long a partition or storm lasts before healing.
    pub disruption: Duration,
    /// Extra per-message drop probability during a storm, in `[0, 1]`.
    /// May reach 1 — a total outage is a *transient* violation of the
    /// fair-loss assumption, restored when the storm calms.
    pub storm_drop: f64,
    /// Seed of the burst schedule, target choices and corruption draws.
    pub seed: u64,
}

impl ChaosPlan {
    /// The default profile for a mix: 3 bursts, 300 ms quiet periods,
    /// 150 ms disruptions, 80% storm drop — what `snapstab live --chaos`
    /// runs.
    pub fn profile(mix: ChaosMix, seed: u64) -> Self {
        ChaosPlan {
            mix,
            bursts: 3,
            quiet: Duration::from_millis(300),
            disruption: Duration::from_millis(150),
            storm_drop: 0.8,
            seed,
        }
    }
}

/// Mutable fault state of one directed link.
#[derive(Default)]
struct LinkFault {
    /// Partitioned: every send is destroyed.
    cut: AtomicBool,
    /// Extra in-transit drop probability in basis points (storms).
    drop_bp: AtomicU32,
    /// Messages this wrapper destroyed (partition + storm drops).
    dropped: AtomicU64,
}

/// Shared handle to the fault state of every link of a topology — the
/// chaos engine's control surface over a [`ChaosTransport`]. Cloning is
/// cheap and every clone controls the same links.
#[derive(Clone)]
pub struct FaultPlane {
    n: usize,
    faults: Arc<Vec<LinkFault>>,
}

impl FaultPlane {
    /// A healthy plane for an `n`-process topology.
    pub fn new(n: usize) -> Self {
        FaultPlane {
            n,
            faults: Arc::new((0..n * n).map(|_| LinkFault::default()).collect()),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    fn fault(&self, from: ProcessId, to: ProcessId) -> &LinkFault {
        &self.faults[from.index() * self.n + to.index()]
    }

    /// Cuts (or restores) the directed link `from → to`.
    pub fn set_cut(&self, from: ProcessId, to: ProcessId, cut: bool) {
        self.fault(from, to).cut.store(cut, Ordering::Relaxed);
    }

    /// True if the directed link `from → to` is currently cut.
    pub fn is_cut(&self, from: ProcessId, to: ProcessId) -> bool {
        self.fault(from, to).cut.load(Ordering::Relaxed)
    }

    /// Cuts every link crossing the bipartition (`side[i]` names `i`'s
    /// side), both directions. Links within a side are untouched.
    pub fn partition(&self, side: &[bool]) {
        assert_eq!(side.len(), self.n, "one side bit per process");
        for from in 0..self.n {
            for to in 0..self.n {
                if from != to && side[from] != side[to] {
                    self.set_cut(ProcessId::new(from), ProcessId::new(to), true);
                }
            }
        }
    }

    /// Restores every cut link.
    pub fn heal(&self) {
        for f in self.faults.iter() {
            f.cut.store(false, Ordering::Relaxed);
        }
    }

    /// Raises every link's extra drop probability to `prob` (clamped to
    /// `[0, 1]`).
    pub fn storm(&self, prob: f64) {
        let bp = ((prob.clamp(0.0, 1.0) * BP_SCALE as f64) as u32).min(BP_SCALE as u32);
        for f in self.faults.iter() {
            f.drop_bp.store(bp, Ordering::Relaxed);
        }
    }

    /// Clears every link's extra drop probability.
    pub fn calm(&self) {
        for f in self.faults.iter() {
            f.drop_bp.store(0, Ordering::Relaxed);
        }
    }

    /// Total messages destroyed by partitions and storms so far.
    pub fn chaos_drops(&self) -> u64 {
        self.faults
            .iter()
            .map(|f| f.dropped.load(Ordering::Relaxed))
            .sum()
    }
}

/// A [`Link`] wrapper consulting a [`FaultPlane`] on every send: cut
/// links and storm drops destroy the message *before* it reaches the
/// inner backend, so an in-memory lane and a UDP socket degrade
/// identically. Destroyed messages are [`SendFate::LostInTransit`] — the
/// sender learns nothing, exactly the §4 fair-loss story, just with a
/// temporarily unfair adversary.
struct FaultLink<M> {
    inner: Arc<dyn Link<M>>,
    plane: FaultPlane,
    /// xorshift state for the storm-drop rolls (racy updates are fine —
    /// this stream only needs to be noise, reproducibility comes from
    /// the seeded schedule, not from per-message interleaving).
    rng: AtomicU64,
}

impl<M> FaultLink<M> {
    fn roll(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x
    }
}

impl<M: Send + 'static> Link<M> for FaultLink<M> {
    fn from(&self) -> ProcessId {
        self.inner.from()
    }

    fn to(&self) -> ProcessId {
        self.inner.to()
    }

    fn register_receiver(&self, receiver: Thread) {
        self.inner.register_receiver(receiver);
    }

    fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.inner.register_waker(waker);
    }

    fn pump(&self) {
        self.inner.pump();
    }

    fn send(&self, msg: M) -> SendFate {
        let fault = self.plane.fault(self.inner.from(), self.inner.to());
        let bp = fault.drop_bp.load(Ordering::Relaxed) as u64;
        if fault.cut.load(Ordering::Relaxed) || (bp > 0 && self.roll() % BP_SCALE < bp) {
            fault.dropped.fetch_add(1, Ordering::Relaxed);
            return SendFate::LostInTransit;
        }
        self.inner.send(msg)
    }

    fn try_recv(&self) -> Option<M> {
        self.inner.try_recv()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> LinkStats {
        // The inner backend never saw the destroyed sends; account for
        // them here so the run's aggregate counters stay truthful.
        let mut s = self.inner.stats();
        let dropped = self
            .plane
            .fault(self.inner.from(), self.inner.to())
            .dropped
            .load(Ordering::Relaxed);
        s.sends += dropped;
        s.lost_in_transit += dropped;
        s
    }
}

/// A [`Transport`] decorator wrapping every link of an inner backend in a
/// fault injector controlled by one shared [`FaultPlane`] — the
/// degradation path is identical for [`crate::InMemory`] and UDP
/// backends because it sits *above* them.
pub struct ChaosTransport<'a, M> {
    inner: &'a dyn Transport<M>,
    plane: FaultPlane,
}

impl<'a, M: Send + 'static> ChaosTransport<'a, M> {
    /// Wraps `inner` for an `n`-process topology.
    pub fn new(inner: &'a dyn Transport<M>, n: usize) -> Self {
        ChaosTransport {
            inner,
            plane: FaultPlane::new(n),
        }
    }

    /// A control handle over the wrapped links.
    pub fn plane(&self) -> FaultPlane {
        self.plane.clone()
    }
}

impl<M: Send + 'static> Transport<M> for ChaosTransport<'_, M> {
    fn connect(
        &self,
        n: usize,
        config: &LiveConfig,
        lanes: Option<(usize, LaneOf<M>)>,
    ) -> std::io::Result<LinkMatrix<M>> {
        assert_eq!(n, self.plane.n, "plane sized for a different topology");
        let inner = self.inner.connect(n, config, lanes)?;
        Ok(inner
            .into_iter()
            .map(|slot| {
                slot.map(|link| {
                    let seed = link_seed(config.seed ^ CHAOS_LINK_SALT, link.from(), link.to());
                    let wrapped: Arc<dyn Link<M>> = Arc::new(FaultLink {
                        inner: link,
                        plane: self.plane.clone(),
                        rng: AtomicU64::new(seed | 1),
                    });
                    wrapped
                })
            })
            .collect())
    }
}

/// Why the supervisor intervened on a worker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterventionKind {
    /// The worker's thread was dead (crashed by the chaos engine or the
    /// harness).
    RestartCrashed,
    /// The worker was alive but wedged: no effective activations within
    /// the watchdog deadline. It was crashed and respawned.
    RestartWedged,
}

/// One supervisor intervention, recorded for the run report (the restart
/// itself also leaves `crash`/`restart`/`chaos:restart-corrupt` marks in
/// the trace).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Intervention {
    /// The healed worker.
    pub p: ProcessId,
    /// What the watchdog saw.
    pub kind: InterventionKind,
    /// The global step of the adversarial corruption applied before the
    /// restart (or the current step count, when corruption is off).
    pub step: u64,
}

/// Configuration of the [`Supervisor`] watchdog.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// A live worker with no effective activations for this long is
    /// declared wedged and recycled.
    pub wedge_deadline: Duration,
    /// Initial restart backoff (bounds how fast a crash-looping worker
    /// is respawned). Reused from [`LiveConfig::min_backoff`].
    pub min_backoff: Duration,
    /// Restart backoff ceiling. Reused from [`LiveConfig::max_backoff`].
    pub max_backoff: Duration,
    /// Restart with adversarially corrupted state (the default): a
    /// restart is a transient fault, and snap-stabilization must hold
    /// from whatever configuration it leaves behind.
    pub corrupt_restarts: bool,
    /// Seed of the adversarial-restart corruption stream.
    pub seed: u64,
}

impl SupervisorConfig {
    /// Derives the watchdog configuration from a run's [`LiveConfig`]:
    /// backoff knobs reused as restart backoff, a 1 s wedge deadline,
    /// corrupted restarts on.
    pub fn from_live(live: &LiveConfig) -> Self {
        SupervisorConfig {
            wedge_deadline: Duration::from_secs(1),
            min_backoff: live.min_backoff,
            max_backoff: live.max_backoff,
            corrupt_restarts: true,
            seed: live.seed ^ SUPERVISOR_SALT,
        }
    }
}

/// Per-worker watchdog state.
struct WorkerWatch {
    last_activity: u64,
    last_progress: Instant,
    backoff: Duration,
    next_restart: Instant,
}

/// The self-healing watchdog: polls every worker for crashes and wedges
/// and restarts offenders with adversarially corrupted state under
/// bounded exponential backoff. Drive it from a poll loop via
/// [`Supervisor::tick`]; it owns no thread — the loop's cadence is the
/// watchdog's resolution.
pub struct Supervisor {
    cfg: SupervisorConfig,
    rng: SimRng,
    watches: Vec<WorkerWatch>,
    interventions: Vec<Intervention>,
    fault_steps: Vec<u64>,
}

impl Supervisor {
    /// A watchdog for `n` workers.
    pub fn new(n: usize, cfg: SupervisorConfig) -> Self {
        let now = Instant::now();
        let min = cfg.min_backoff;
        Supervisor {
            rng: SimRng::seed_from(cfg.seed),
            watches: (0..n)
                .map(|_| WorkerWatch {
                    last_activity: 0,
                    last_progress: now,
                    backoff: min,
                    next_restart: now,
                })
                .collect(),
            interventions: Vec::new(),
            fault_steps: Vec::new(),
            cfg,
        }
    }

    /// Every intervention so far, chronological.
    pub fn interventions(&self) -> &[Intervention] {
        &self.interventions
    }

    /// Global steps of the adversarial corruptions this supervisor
    /// applied — authoritative fault marks for the epoch checkers.
    pub fn fault_steps(&self) -> &[u64] {
        &self.fault_steps
    }

    /// One watchdog pass: restarts crashed workers whose backoff has
    /// elapsed and recycles wedged ones. Returns the number of
    /// interventions made.
    ///
    /// Generic over the execution backend: on the thread-per-process
    /// runner "crashed" means a dead OS thread, on the mux pool it means
    /// a parked instance — either way the wedge detector reads the same
    /// per-instance activity counter.
    pub fn tick<P, B>(&mut self, runner: &mut B) -> usize
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        let now = Instant::now();
        let mut healed = 0;
        for i in 0..self.watches.len() {
            let p = ProcessId::new(i);
            if runner.is_crashed(p) {
                if now >= self.watches[i].next_restart {
                    self.heal(runner, p, InterventionKind::RestartCrashed, now);
                    healed += 1;
                }
            } else {
                let activity = runner.activity(p);
                let watch = &mut self.watches[i];
                if activity != watch.last_activity {
                    watch.last_activity = activity;
                    watch.last_progress = now;
                    watch.backoff = self.cfg.min_backoff;
                } else if now.duration_since(watch.last_progress) >= self.cfg.wedge_deadline {
                    // Wedged: alive but making no effective progress.
                    runner.crash(p);
                    self.heal(runner, p, InterventionKind::RestartWedged, now);
                    healed += 1;
                }
            }
        }
        healed
    }

    /// Heals one crashed worker immediately (ignoring backoff) — used by
    /// [`ChaosHarness::finish`] to leave the system fully healed.
    pub fn force_heal<P, B>(&mut self, runner: &mut B, p: ProcessId)
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        if runner.is_crashed(p) {
            self.heal(runner, p, InterventionKind::RestartCrashed, Instant::now());
        }
    }

    /// Flags one worker as suspected-wedged from an *external* signal:
    /// backdates its progress deadline so the next [`Supervisor::tick`]
    /// recycles it — unless the worker shows fresh activity first, which
    /// clears the suspicion through the ordinary activity check. The
    /// telemetry pipeline feeds stalled-served alerts
    /// (`snapstab_runtime::telemetry::AlertKind::StalledServed`) through
    /// here, turning monitoring cuts into an additional wedge signal.
    pub fn suspect(&mut self, p: ProcessId) {
        if let Some(past) = Instant::now().checked_sub(self.cfg.wedge_deadline) {
            self.watches[p.index()].last_progress = past;
        }
    }

    /// [`Supervisor::suspect`] applied to every watched worker — for
    /// alert sources (like a stalled global served counter) that cannot
    /// name the culprit.
    pub fn suspect_all(&mut self) {
        for i in 0..self.watches.len() {
            self.suspect(ProcessId::new(i));
        }
    }

    fn heal<P, B>(&mut self, runner: &mut B, p: ProcessId, kind: InterventionKind, now: Instant)
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        let step = if self.cfg.corrupt_restarts {
            // The worker is crashed, so this runs directly on the parked
            // state: corrupt it *before* the new thread sees it, and
            // vouch for the fault mark.
            let mut rng = SimRng::seed_from(self.rng.gen_u64());
            let step = runner.with_process_ctx(p, move |proc, scribe| {
                let step = scribe.mark("chaos:restart-corrupt");
                proc.corrupt(&mut rng);
                step
            });
            self.fault_steps.push(step);
            step
        } else {
            runner.step_count()
        };
        runner.restart(p);
        self.interventions.push(Intervention { p, kind, step });
        let watch = &mut self.watches[p.index()];
        watch.next_restart = now + watch.backoff;
        watch.backoff = (watch.backoff * 2).min(self.cfg.max_backoff);
        watch.last_progress = now;
        watch.last_activity = runner.activity(p);
    }
}

/// What a chaos run did to the system — fault bookkeeping for reports,
/// benches and the epoch-segmented spec checkers.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Global steps of every state corruption (engine bursts and
    /// supervisor restarts) — the *authoritative* fault marks; pass them
    /// to `analyze_me_epochs` / `analyze_forwarding_epochs`.
    pub fault_steps: Vec<u64>,
    /// Bursts actually fired.
    pub bursts_fired: u32,
    /// Workers corrupted by corrupt bursts.
    pub corruptions: u64,
    /// Workers crashed by crash bursts.
    pub crashes: u64,
    /// Partition bursts fired.
    pub partitions: u64,
    /// Storm bursts fired.
    pub storms: u64,
    /// Every supervisor intervention.
    pub interventions: Vec<Intervention>,
    /// Messages destroyed by partitions and storms.
    pub chaos_drops: u64,
    /// Per burst (in firing order, where observed): time from the burst
    /// to the next end-to-end completion — grant or delivery — the
    /// service reported. A burst so late that nothing completes after it
    /// contributes no sample.
    pub recovery: Vec<Duration>,
}

impl ChaosReport {
    /// The `q`-quantile (`0 ≤ q ≤ 1`, nearest-rank) of the recovery
    /// times, or `None` if no burst had a completion after it.
    pub fn recovery_quantile(&self, q: f64) -> Option<Duration> {
        if self.recovery.is_empty() {
            return None;
        }
        let mut sorted = self.recovery.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx.min(sorted.len() - 1)])
    }
}

/// The burst injector: walks a [`ChaosPlan`]'s schedule against a live
/// runner. Services normally drive it through [`ChaosHarness`]; it is
/// public for custom harnesses.
pub struct ChaosEngine {
    plan: ChaosPlan,
    plane: FaultPlane,
    n: usize,
    rng: SimRng,
    next_burst: Instant,
    kind_cursor: usize,
    heal_at: Option<Instant>,
    calm_at: Option<Instant>,
    fault_steps: Vec<u64>,
    bursts_fired: u32,
    corruptions: u64,
    crashes: u64,
    partitions: u64,
    storms: u64,
}

impl ChaosEngine {
    /// An engine for `n` workers over the given fault plane.
    pub fn new(plan: ChaosPlan, plane: FaultPlane, n: usize) -> Self {
        assert_eq!(plane.n(), n, "plane sized for a different topology");
        ChaosEngine {
            rng: SimRng::seed_from(plan.seed),
            next_burst: Instant::now() + plan.quiet,
            plan,
            plane,
            n,
            kind_cursor: 0,
            heal_at: None,
            calm_at: None,
            fault_steps: Vec::new(),
            bursts_fired: 0,
            corruptions: 0,
            crashes: 0,
            partitions: 0,
            storms: 0,
        }
    }

    /// Global steps of the engine's state corruptions so far.
    pub fn fault_steps(&self) -> &[u64] {
        &self.fault_steps
    }

    /// True once every burst has fired and every disruption has healed.
    pub fn done(&self) -> bool {
        self.bursts_fired >= self.plan.bursts && self.heal_at.is_none() && self.calm_at.is_none()
    }

    /// Heals any active partition/storm immediately.
    pub fn heal_now(&mut self) {
        self.plane.heal();
        self.plane.calm();
        self.heal_at = None;
        self.calm_at = None;
    }

    /// One scheduler pass: heals expired disruptions and fires the next
    /// burst when its quiet period has elapsed. Returns `true` if a
    /// burst fired.
    pub fn tick<P, B>(&mut self, runner: &mut B) -> bool
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        let now = Instant::now();
        if self.heal_at.is_some_and(|t| now >= t) {
            self.plane.heal();
            self.heal_at = None;
            runner.mark(ProcessId::new(0), "link:heal");
        }
        if self.calm_at.is_some_and(|t| now >= t) {
            self.plane.calm();
            self.calm_at = None;
            runner.mark(ProcessId::new(0), "link:calm");
        }
        if self.bursts_fired < self.plan.bursts && now >= self.next_burst {
            self.fire(runner, now);
            self.next_burst = now + self.plan.quiet;
            return true;
        }
        false
    }

    /// Draws `k` distinct process ids.
    fn pick(&mut self, k: usize) -> Vec<ProcessId> {
        let mut ids: Vec<usize> = (0..self.n).collect();
        // Partial Fisher–Yates: the first k slots end up uniform.
        for i in 0..k.min(self.n) {
            let j = i + self.rng.gen_range(0..self.n - i);
            ids.swap(i, j);
        }
        ids.truncate(k.min(self.n));
        ids.into_iter().map(ProcessId::new).collect()
    }

    fn fire<P, B>(&mut self, runner: &mut B, now: Instant)
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        let kinds = self.plan.mix.kinds();
        let kind = kinds[self.kind_cursor % kinds.len()];
        self.kind_cursor += 1;
        self.bursts_fired += 1;
        match kind {
            BurstKind::Corrupt => {
                let k = 1 + self.rng.gen_range(0..self.n);
                for p in self.pick(k) {
                    let mut rng = SimRng::seed_from(self.rng.gen_u64());
                    // Atomic w.r.t. the worker's protocol actions: the
                    // live rendering of a transient fault. Crashed
                    // workers are corrupted in their parked state.
                    let step = runner.with_process_ctx(p, move |proc, scribe| {
                        let step = scribe.mark("chaos:corrupt");
                        proc.corrupt(&mut rng);
                        step
                    });
                    self.fault_steps.push(step);
                    self.corruptions += 1;
                }
            }
            BurstKind::Crash => {
                // At most half the fleet per burst; the supervisor's
                // corrupted restarts bring them back.
                let k = 1 + self.rng.gen_range(0..self.n.div_ceil(2));
                for p in self.pick(k) {
                    if runner.crash(p) {
                        self.crashes += 1;
                    }
                }
            }
            BurstKind::Partition => {
                let mut side = vec![false; self.n];
                for s in side.iter_mut() {
                    *s = self.rng.gen_bool(0.5);
                }
                // Force both sides nonempty so links actually cut.
                let a = self.rng.gen_range(0..self.n);
                let b = (a + 1 + self.rng.gen_range(0..self.n - 1)) % self.n;
                side[a] = true;
                side[b] = false;
                self.plane.partition(&side);
                self.heal_at = Some(now + self.plan.disruption);
                self.partitions += 1;
                runner.mark(ProcessId::new(0), "link:partition");
            }
            BurstKind::Storm => {
                self.plane.storm(self.plan.storm_drop);
                self.calm_at = Some(now + self.plan.disruption);
                self.storms += 1;
                runner.mark(ProcessId::new(0), "link:storm");
            }
        }
    }
}

/// Engine + supervisor + recovery-time bookkeeping, packaged for a
/// service poll loop:
///
/// ```ignore
/// let chaos_t = ChaosTransport::new(&InMemory, n);
/// let plane = chaos_t.plane();
/// let mut runner = LiveRunner::spawn_with_transport(procs, drivers, cfg, &chaos_t)?;
/// let mut harness = ChaosHarness::new(&plan, plane, n, &cfg);
/// while !(done && harness.done(&runner)) {
///     std::thread::sleep(Duration::from_millis(2));
///     harness.tick(&mut runner, served_so_far);
/// }
/// let chaos_report = harness.finish(&mut runner);
/// ```
pub struct ChaosHarness {
    engine: ChaosEngine,
    supervisor: Supervisor,
    /// `(burst instant, completions at burst time)` awaiting recovery.
    pending_recovery: Vec<(Instant, u64)>,
    recovery: Vec<Duration>,
}

impl ChaosHarness {
    /// A harness for `n` workers: engine from `plan`, supervisor derived
    /// from the run's [`LiveConfig`] (1 s wedge deadline, corrupted
    /// restarts, backoff from the config's knobs).
    pub fn new(plan: &ChaosPlan, plane: FaultPlane, n: usize, live: &LiveConfig) -> Self {
        ChaosHarness {
            engine: ChaosEngine::new(plan.clone(), plane, n),
            supervisor: Supervisor::new(n, SupervisorConfig::from_live(live)),
            pending_recovery: Vec::new(),
            recovery: Vec::new(),
        }
    }

    /// One pass: resolve recovery samples against the service's
    /// completion counter (`completed` = grants or deliveries so far),
    /// run the engine's schedule, run the watchdog.
    pub fn tick<P, B>(&mut self, runner: &mut B, completed: u64)
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        let now = Instant::now();
        let mut i = 0;
        while i < self.pending_recovery.len() {
            let (at, snapshot) = self.pending_recovery[i];
            if completed > snapshot {
                self.recovery.push(now.duration_since(at));
                self.pending_recovery.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if self.engine.tick(runner) {
            self.pending_recovery.push((Instant::now(), completed));
        }
        self.supervisor.tick(runner);
    }

    /// Marks every worker suspected-wedged (see [`Supervisor::suspect`]):
    /// the next [`ChaosHarness::tick`] recycles any worker that shows no
    /// fresh activity by then. The monitored services call this when the
    /// telemetry plane raises a stalled-served alert.
    pub fn suspect_all(&mut self) {
        self.supervisor.suspect_all();
    }

    /// True once the schedule is exhausted, every disruption healed and
    /// every worker alive — the poll loop should run until this *and*
    /// its own completion condition hold, so every planned fault really
    /// lands mid-run.
    pub fn done<P, B>(&self, runner: &B) -> bool
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        self.engine.done() && (0..self.engine.n).all(|i| !runner.is_crashed(ProcessId::new(i)))
    }

    /// Heals everything (plane and crashed workers) and assembles the
    /// [`ChaosReport`]. Call right after the poll loop, before the
    /// backend's `stop`.
    pub fn finish<P, B>(mut self, runner: &mut B) -> ChaosReport
    where
        P: Protocol + Send + 'static,
        P::Msg: Send,
        P::Event: Send,
        B: RuntimeBackend<P>,
    {
        self.engine.heal_now();
        for i in 0..self.engine.n {
            self.supervisor.force_heal(runner, ProcessId::new(i));
        }
        let mut fault_steps = self.engine.fault_steps.clone();
        fault_steps.extend_from_slice(self.supervisor.fault_steps());
        fault_steps.sort_unstable();
        fault_steps.dedup();
        ChaosReport {
            fault_steps,
            bursts_fired: self.engine.bursts_fired,
            corruptions: self.engine.corruptions,
            crashes: self.engine.crashes,
            partitions: self.engine.partitions,
            storms: self.engine.storms,
            interventions: self.supervisor.interventions.clone(),
            chaos_drops: self.engine.plane.chaos_drops(),
            recovery: self.recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LiveRunner;
    use crate::transport::InMemory;
    use snapstab_core::idl::IdlProcess;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn chaos_mix_parse_round_trips() {
        for name in ChaosMix::NAMES {
            assert_eq!(ChaosMix::parse(name).expect("valid").as_str(), name);
        }
        assert!(ChaosMix::parse("explode").is_none());
    }

    #[test]
    fn fault_link_cut_destroys_sends_and_heal_restores() {
        let cfg = LiveConfig {
            capacity: 8,
            ..LiveConfig::default()
        };
        let chaos = ChaosTransport::new(&InMemory, 2);
        let plane = chaos.plane();
        let links = Transport::<u32>::connect(&chaos, 2, &cfg, None).expect("infallible");
        let link = links[1].as_ref().expect("0 -> 1");

        assert_eq!(link.send(1), SendFate::Enqueued);
        plane.set_cut(p(0), p(1), true);
        assert!(plane.is_cut(p(0), p(1)));
        assert_eq!(link.send(2), SendFate::LostInTransit, "cut link destroys");
        plane.heal();
        assert_eq!(link.send(3), SendFate::Enqueued);

        assert_eq!(link.try_recv(), Some(1));
        assert_eq!(link.try_recv(), Some(3), "nothing of the cut send");
        assert_eq!(plane.chaos_drops(), 1);
        // The wrapper's stats account for the destroyed send.
        let stats = link.stats();
        assert_eq!(stats.sends, 3);
        assert_eq!(stats.lost_in_transit, 1);
    }

    #[test]
    fn storm_at_full_probability_drops_everything() {
        let cfg = LiveConfig::default();
        let chaos = ChaosTransport::new(&InMemory, 2);
        let plane = chaos.plane();
        let links = Transport::<u32>::connect(&chaos, 2, &cfg, None).expect("infallible");
        let link = links[1].as_ref().expect("0 -> 1");
        plane.storm(1.0);
        for k in 0..10 {
            assert_eq!(link.send(k), SendFate::LostInTransit);
        }
        plane.calm();
        assert_eq!(link.send(99), SendFate::Enqueued);
        assert_eq!(plane.chaos_drops(), 10);
    }

    #[test]
    fn partition_cuts_only_crossing_links() {
        let plane = FaultPlane::new(3);
        plane.partition(&[true, false, true]);
        assert!(plane.is_cut(p(0), p(1)));
        assert!(plane.is_cut(p(1), p(0)));
        assert!(plane.is_cut(p(1), p(2)));
        assert!(!plane.is_cut(p(0), p(2)), "same side survives");
        plane.heal();
        assert!(!plane.is_cut(p(0), p(1)));
    }

    fn idl_fleet(n: usize) -> Vec<IdlProcess> {
        (0..n)
            .map(|i| IdlProcess::new(p(i), n, 10 + i as u64))
            .collect()
    }

    #[test]
    fn supervisor_heals_crashed_worker_with_corrupted_state() {
        let cfg = LiveConfig::default();
        let mut runner = LiveRunner::spawn(idl_fleet(3), cfg.clone());
        let mut sup = Supervisor::new(3, SupervisorConfig::from_live(&cfg));
        runner.crash(p(1));
        assert!(runner.is_crashed(p(1)));
        // Backoff starts at min_backoff (µs scale); one short sleep is
        // plenty.
        std::thread::sleep(Duration::from_millis(5));
        let healed = sup.tick(&mut runner);
        assert_eq!(healed, 1);
        assert!(!runner.is_crashed(p(1)));
        assert_eq!(sup.interventions().len(), 1);
        assert_eq!(
            sup.interventions()[0].kind,
            InterventionKind::RestartCrashed
        );
        assert_eq!(
            sup.fault_steps().len(),
            1,
            "adversarial restart recorded as an authoritative fault"
        );
        let report = runner.stop();
        let labels: Vec<&str> = report.trace.markers().map(|(_, _, l)| l).collect();
        assert!(labels.contains(&"chaos:restart-corrupt"));
        assert!(labels.contains(&"restart"));
    }

    #[test]
    fn supervisor_detects_wedged_idle_worker() {
        // An idle IDL fleet makes no effective progress: with a tiny
        // wedge deadline the watchdog must recycle every worker.
        let cfg = LiveConfig::default();
        let mut runner = LiveRunner::spawn(idl_fleet(2), cfg.clone());
        let mut sup = Supervisor::new(
            2,
            SupervisorConfig {
                wedge_deadline: Duration::from_millis(20),
                ..SupervisorConfig::from_live(&cfg)
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut healed = 0;
        while healed == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            healed = sup.tick(&mut runner);
        }
        assert!(healed > 0, "watchdog never fired");
        assert!(sup
            .interventions()
            .iter()
            .any(|iv| iv.kind == InterventionKind::RestartWedged));
        assert!(!runner.is_crashed(p(0)));
        assert!(!runner.is_crashed(p(1)));
        runner.stop();
    }

    #[test]
    fn recovery_quantiles_nearest_rank() {
        let report = ChaosReport {
            recovery: vec![
                Duration::from_millis(10),
                Duration::from_millis(30),
                Duration::from_millis(20),
            ],
            ..ChaosReport::default()
        };
        assert_eq!(
            report.recovery_quantile(0.5),
            Some(Duration::from_millis(20))
        );
        assert_eq!(
            report.recovery_quantile(0.99),
            Some(Duration::from_millis(30))
        );
        assert_eq!(
            report.recovery_quantile(0.0),
            Some(Duration::from_millis(10))
        );
        assert_eq!(ChaosReport::default().recovery_quantile(0.5), None);
    }

    #[test]
    fn engine_fires_planned_bursts_and_heals() {
        let cfg = LiveConfig {
            seed: 7,
            ..LiveConfig::default()
        };
        let chaos = ChaosTransport::new(&InMemory, 3);
        let plane = chaos.plane();
        let mut runner = LiveRunner::spawn_with_transport(
            idl_fleet(3),
            vec![None, None, None],
            cfg.clone(),
            &chaos,
        )
        .expect("in-memory");
        let plan = ChaosPlan {
            bursts: 4,
            quiet: Duration::from_millis(10),
            disruption: Duration::from_millis(10),
            ..ChaosPlan::profile(ChaosMix::All, 7)
        };
        let mut harness = ChaosHarness::new(&plan, plane, 3, &cfg);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !harness.done(&runner) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
            harness.tick(&mut runner, 0);
        }
        assert!(harness.done(&runner), "schedule must drain");
        let report = harness.finish(&mut runner);
        assert_eq!(report.bursts_fired, 4, "all four kinds fired");
        assert!(report.corruptions >= 1);
        assert!(report.crashes >= 1);
        assert_eq!(report.partitions, 1);
        assert_eq!(report.storms, 1);
        assert!(!report.fault_steps.is_empty());
        assert!(
            !report.interventions.is_empty(),
            "the supervisor healed the crash burst"
        );
        let live = runner.stop();
        // Every chaos-prefixed marker in the trace is vouched for.
        let chaos_marks: Vec<u64> = live
            .trace
            .markers()
            .filter(|(_, _, l)| l.starts_with("chaos:"))
            .map(|(s, _, _)| s)
            .collect();
        for s in chaos_marks {
            assert!(report.fault_steps.contains(&s), "unvouched mark at {s}");
        }
    }
}
