//! The five workloads. Each function runs one **repeat**: one call into
//! the product's public surface with a fixed amount of work, every client
//! in a closed loop (one client per process, one outstanding request
//! each), followed by the output checks. README.md records why each
//! workload exists and which product items it pins.

use std::io;
use std::time::{Duration, Instant};

use snapstab_core::me::{MeConfig, MeEvent, MeMsg, MeProcess};
use snapstab_core::request::RequestState;
use snapstab_core::spec::{analyze_forwarding_trace, analyze_me_epochs, analyze_me_trace};
use snapstab_net::{udp_available, UdpLoopback};
use snapstab_runtime::{
    run_forwarding_service_mux_on, run_mutex_service_chaos_mux_on, run_mutex_service_mux_on,
    ChaosMix, ChaosPlan, ChaosReport, ForwardingServiceConfig, InMemory, LiveConfig, LiveStats,
    MutexServiceConfig, ServiceReport, TraceDetail, Transport,
};
use snapstab_sim::{Capacity, NetworkBuilder, ProcessId, RandomScheduler, Runner, Trace};

use crate::stats::quantile;

/// The run length the per-repeat sizes below were fitted to: ten repeats
/// of about 2 s fit in it at seed speed. Other `--seconds` values scale
/// the sizes linearly.
pub const NOMINAL_SECONDS: f64 = 22.0;

/// One mux pool worker: with more, the numbers on a shared ≤ 2-core box
/// measure the scheduler's placement, not the program.
const WORKERS: usize = 1;

/// A repeat that outlives this is cut short by the service and fails the
/// `served == requested` check.
const REPEAT_BUDGET: Duration = Duration::from_secs(60);

/// Simulator steps between two polls of the closed-loop clients; small
/// against the ~10⁵ steps a request waits, large against a timer read.
const SIM_CHUNK: u64 = 256;

/// Requests per process of the *traced* simulator repeat (≈ 100 in all).
const SIM_TRACED_PER_PROCESS: u64 = 6;

const CHAOS_BURSTS: u32 = 6;
const CHAOS_QUIET: Duration = Duration::from_millis(100);
const CHAOS_DISRUPTION: Duration = Duration::from_millis(50);

/// How long the chaos fault schedule lasts; the work should outlast it at
/// least twice, so most requests are served between and after faults.
pub const CHAOS_SCHEDULE: Duration = Duration::from_millis(
    CHAOS_BURSTS as u64 * (CHAOS_QUIET.as_millis() + CHAOS_DISRUPTION.as_millis()) as u64,
);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MutexSimN16,
    MutexMuxN32,
    ForwardMuxN8,
    MutexUdpN8,
    MutexChaosN8,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MutexSimN16,
        Workload::MutexMuxN32,
        Workload::ForwardMuxN8,
        Workload::MutexUdpN8,
        Workload::MutexChaosN8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MutexSimN16 => "mutex_sim_n16",
            Workload::MutexMuxN32 => "mutex_mux_n32",
            Workload::ForwardMuxN8 => "forward_mux_n8",
            Workload::MutexUdpN8 => "mutex_udp_n8",
            Workload::MutexChaosN8 => "mutex_chaos_n8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn n(self) -> usize {
        match self {
            Workload::MutexSimN16 => 16,
            Workload::MutexMuxN32 => 32,
            Workload::ForwardMuxN8 | Workload::MutexUdpN8 | Workload::MutexChaosN8 => 8,
        }
    }

    /// Requests (payloads) per process in one repeat at
    /// [`NOMINAL_SECONDS`], sized from pinned runs on the seed commit so
    /// a repeat takes about 2 s. Re-sizing is a benchmark-only change.
    fn nominal_per_process(self) -> u64 {
        match self {
            Workload::MutexSimN16 => 61,
            Workload::MutexMuxN32 => 38,
            Workload::ForwardMuxN8 => 37_500,
            Workload::MutexUdpN8 => 61,
            Workload::MutexChaosN8 => 2_000,
        }
    }

    /// Requests per process in one repeat of a `seconds`-long run.
    pub fn per_process(self, seconds: f64) -> u64 {
        let scaled = self.nominal_per_process() as f64 * seconds / NOMINAL_SECONDS;
        (scaled.round() as u64).max(1)
    }

    /// The size of a *traced* repeat. Two workloads are verified at a
    /// reduced size because their traces are large: a full-detail
    /// simulator trace holds ~24 k entries per request, and the forwarding
    /// workload's 300 k payloads leave ~20 spec events each (0.75 GB).
    pub fn traced_per_process(self, per_process: u64) -> u64 {
        match self {
            Workload::MutexSimN16 => per_process.min(SIM_TRACED_PER_PROCESS),
            Workload::ForwardMuxN8 => (per_process / 10).max(1),
            _ => per_process,
        }
    }

    /// The repeat variants a traced run cycles through. The chaos
    /// workload's plain repeat already records and is judged, so it is
    /// its own traced sample and is paired with a recording-off repeat.
    pub fn traced_cycle(self) -> &'static [Variant] {
        match self {
            Workload::MutexChaosN8 => &[Variant::Plain, Variant::RecordOff],
            _ => &[Variant::Plain, Variant::Traced],
        }
    }

    /// Why the workload cannot run here, if it cannot.
    pub fn unavailable(self) -> Option<&'static str> {
        (self == Workload::MutexUdpN8 && !udp_available())
            .then_some("UDP loopback sockets are not available here")
    }
}

/// How one repeat is run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// As the end-to-end numbers are measured: recording off, except on
    /// the chaos workload, whose verdict needs the trace.
    Plain,
    /// Recording on at `TraceDetail::Spec` (full detail in the
    /// simulator) and the Spec 3/4 analyzers run over the trace.
    Traced,
    /// The chaos workload with recording off — no verdict, only the
    /// price of recording.
    RecordOff,
}

/// Product counters of one repeat, folded from `LiveStats` / `SimStats`.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub steps: u64,
    pub activations: u64,
    pub deliveries: u64,
    pub events: u64,
    pub cs_entries: u64,
    pub sends: u64,
    pub enqueued: u64,
    pub lost_full: u64,
    pub lost_reorder: u64,
}

impl Counts {
    fn from_live(stats: &LiveStats, cs_entries: u64) -> Counts {
        Counts {
            steps: stats.steps,
            activations: stats.activations,
            deliveries: stats.deliveries,
            events: stats.protocol_events,
            cs_entries,
            sends: stats.links.sends,
            enqueued: stats.links.enqueued,
            lost_full: stats.links.lost_full,
            lost_reorder: stats.links.lost_reorder,
        }
    }
}

/// Simulator-only measurements of a repeat.
#[derive(Clone, Copy, Debug)]
pub struct SimSteps {
    /// Time spent inside `Runner::run_steps`.
    pub stepping: Duration,
    /// Request latency in simulator steps.
    pub p50_steps: u64,
    pub p95_steps: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Analyzer {
    Me,
    Epochs,
    Forwarding,
}

/// One timed pass of a spec analyzer over a repeat's whole trace
/// (`Repeat::trace_events` entries).
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerPass {
    pub analyzer: Analyzer,
    pub took: Duration,
}

/// Everything one repeat yields.
pub struct Repeat {
    pub requested: u64,
    pub served: u64,
    /// Requests inside a spec-violating verdict.
    pub violating: u64,
    /// The output checks that failed, in words; empty when all hold.
    pub failures: Vec<String>,
    /// When the product call began.
    pub started: Instant,
    /// Wall time from `started` until the call had returned and the
    /// transport was dropped (simulator: until the last step).
    pub call: Duration,
    /// The serving window inside it, as the product reports it.
    pub window: Duration,
    /// The tail of `call` after the product call returned: dropping the
    /// transport — the only part of teardown visible from outside, and
    /// nothing in the simulator.
    pub teardown: Duration,
    /// Request latencies, sorted.
    pub latencies: Vec<Duration>,
    pub counts: Counts,
    pub sim: Option<SimSteps>,
    pub chaos: Option<ChaosReport>,
    pub trace_events: u64,
    pub passes: Vec<AnalyzerPass>,
}

/// The instants and spans of one product call, as seen from outside.
struct Timing {
    started: Instant,
    call: Duration,
    window: Duration,
    teardown: Duration,
}

impl Repeat {
    /// A repeat as the product call left it, with the one check every
    /// workload shares already made; `sim`, `chaos` and the verdict
    /// fields are filled in by the workload.
    fn new(
        requested: u64,
        served: u64,
        timing: Timing,
        mut latencies: Vec<Duration>,
        counts: Counts,
    ) -> Repeat {
        latencies.sort_unstable();
        let mut repeat = Repeat {
            requested,
            served,
            violating: 0,
            failures: Vec::new(),
            started: timing.started,
            call: timing.call,
            window: timing.window,
            teardown: timing.teardown,
            latencies,
            counts,
            sim: None,
            chaos: None,
            trace_events: 0,
            passes: Vec::new(),
        };
        repeat.check(
            served == requested,
            format!("served {served} of {requested} requested"),
        );
        repeat
    }

    pub fn req_per_s(&self) -> f64 {
        self.served as f64 / self.window.as_secs_f64()
    }

    /// The `q`-quantile of the request latencies in milliseconds; 0 when
    /// nothing was served (the output checks fail the run on their own).
    pub fn latency_ms(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        quantile(&self.latencies, q).as_secs_f64() * 1e3
    }

    pub fn msgs_per_req(&self) -> f64 {
        self.counts.enqueued as f64 / self.served.max(1) as f64
    }

    /// Call wall minus serving window: building processes, connecting and
    /// dropping the transport, spawning, joining and merging (simulator:
    /// building the processes, the network and the `Runner`).
    pub fn setup(&self) -> Duration {
        self.call.saturating_sub(self.window)
    }

    pub fn verify(&self) -> Duration {
        self.passes.iter().map(|p| p.took).sum()
    }

    fn check(&mut self, holds: bool, what: String) {
        if !holds {
            self.failures.push(what);
        }
    }
}

/// Runs one repeat of `workload` with `per_process` requests per process
/// ([`Workload::traced_per_process`] of them when the repeat is traced).
pub fn run(
    workload: Workload,
    variant: Variant,
    per_process: u64,
    seed: u64,
) -> io::Result<Repeat> {
    let n = workload.n();
    let per_process = if variant == Variant::Traced {
        workload.traced_per_process(per_process)
    } else {
        per_process
    };
    match workload {
        Workload::MutexSimN16 => Ok(mutex_sim(n, per_process, seed, variant)),
        Workload::MutexMuxN32 => mutex_live(n, per_process, seed, variant, InMemory, false),
        Workload::ForwardMuxN8 => forward_live(n, per_process, seed, variant),
        Workload::MutexUdpN8 => {
            mutex_live(n, per_process, seed, variant, UdpLoopback::new(), false)
        }
        Workload::MutexChaosN8 => mutex_live(n, per_process, seed, variant, InMemory, true),
    }
}

fn live_config(seed: u64, record: bool) -> LiveConfig {
    LiveConfig {
        seed,
        record_trace: record,
        detail: TraceDetail::Spec,
        ..LiveConfig::default()
    }
}

/// `MeProcess` × n under `snapstab_sim::Runner` + `RandomScheduler`: the
/// same client loop as the live mutex service's driver hook, polled every
/// [`SIM_CHUNK`] steps. Everything is seeded, so its counts repeat exactly.
fn mutex_sim(n: usize, per_process: u64, seed: u64, variant: Variant) -> Repeat {
    let record = variant == Variant::Traced;
    let requested = per_process * n as u64;

    let started = Instant::now();
    let processes: Vec<MeProcess> = (0..n)
        .map(|i| MeProcess::with_config(ProcessId::new(i), n, 100 + i as u64, MeConfig::default()))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), seed);
    runner.set_record_trace(record);
    let built = Instant::now();

    let mut remaining = vec![per_process; n];
    let mut outstanding: Vec<Option<(Instant, u64)>> = vec![None; n];
    let mut latencies = Vec::with_capacity(requested as usize);
    let mut latencies_steps = Vec::with_capacity(requested as usize);
    let mut served = 0u64;
    let mut stepping = Duration::ZERO;
    let deadline = built + REPEAT_BUDGET;
    // A client that sees its request served issues the next one a chunk
    // later, never at the same step: the simulator stamps a marker with
    // the step just executed, and Spec 3 reads a `request` marker that
    // shares a step with the previous request's `Served` event as
    // preceding it.
    let mut issue = |runner: &mut Runner<MeProcess, RandomScheduler>,
                     outstanding: &mut [Option<(Instant, u64)>]| {
        for i in 0..n {
            let p = ProcessId::new(i);
            if outstanding[i].is_none()
                && remaining[i] > 0
                && runner.process(p).request() == RequestState::Done
            {
                runner.mark(p, "request");
                if runner.process_mut(p).request_cs() {
                    remaining[i] -= 1;
                    outstanding[i] = Some((Instant::now(), runner.step_count()));
                }
            }
        }
    };
    issue(&mut runner, &mut outstanding);
    loop {
        for (i, slot) in outstanding.iter_mut().enumerate() {
            if let Some((since, step)) = *slot {
                if runner.process(ProcessId::new(i)).request() == RequestState::Done {
                    served += 1;
                    latencies.push(since.elapsed());
                    latencies_steps.push(runner.step_count() - step);
                    *slot = None;
                }
            }
        }
        let before = Instant::now();
        if served >= requested || before >= deadline {
            break;
        }
        runner
            .run_steps(SIM_CHUNK)
            .expect("a random scheduler never rejects a step");
        stepping += before.elapsed();
        issue(&mut runner, &mut outstanding);
    }
    let window = built.elapsed();
    // The call ends here: the simulator has no teardown of its own, and
    // dropping the `Runner` takes 15 or 50 µs by the state of the heap,
    // which would swamp the ~10 µs of set-up.
    let timing = Timing {
        started,
        call: started.elapsed(),
        window,
        teardown: Duration::ZERO,
    };

    let stats = runner.stats();
    let cs_entries = runner
        .processes()
        .iter()
        .map(|m| m.counters().cs_entries)
        .sum();
    let trace = record.then(|| runner.take_trace());
    drop(runner);

    latencies_steps.sort_unstable();
    let counts = Counts {
        steps: stats.steps,
        activations: stats.activations,
        deliveries: stats.deliveries,
        events: stats.protocol_events,
        cs_entries,
        sends: stats.sends_attempted,
        enqueued: stats.sends_enqueued,
        lost_full: stats.lost_full,
        lost_reorder: 0,
    };
    let mut repeat = Repeat::new(requested, served, timing, latencies, counts);
    repeat.sim = (!latencies_steps.is_empty()).then(|| SimSteps {
        stepping,
        p50_steps: quantile(&latencies_steps, 0.5),
        p95_steps: quantile(&latencies_steps, 0.95),
    });
    check_clean_cs(&mut repeat);
    if let Some(trace) = trace {
        judge_mutex(&mut repeat, &trace, n, None);
    }
    repeat
}

/// The live mutex service on the mux backend, over `transport`, clean or
/// under the chaos schedule. The transport is taken by value so that
/// dropping it (UDP: closing sockets, joining demux threads) falls inside
/// the timed call.
fn mutex_live(
    n: usize,
    per_process: u64,
    seed: u64,
    variant: Variant,
    transport: impl Transport<MeMsg>,
    chaos: bool,
) -> io::Result<Repeat> {
    let record = match variant {
        Variant::Plain => chaos,
        Variant::Traced => true,
        Variant::RecordOff => false,
    };
    let cfg = MutexServiceConfig {
        n,
        requests_per_process: per_process,
        live: live_config(seed, record),
        time_budget: REPEAT_BUDGET,
        ..MutexServiceConfig::default()
    };
    let started = Instant::now();
    let (report, chaos_report) = if chaos {
        let plan = ChaosPlan {
            bursts: CHAOS_BURSTS,
            quiet: CHAOS_QUIET,
            disruption: CHAOS_DISRUPTION,
            ..ChaosPlan::profile(ChaosMix::All, seed)
        };
        let (report, chaos_report) =
            run_mutex_service_chaos_mux_on(&cfg, WORKERS, &transport, &plan)?;
        (report, Some(chaos_report))
    } else {
        (run_mutex_service_mux_on(&cfg, WORKERS, &transport)?, None)
    };
    let returned = Instant::now();
    drop(transport);
    let teardown = returned.elapsed();

    let ServiceReport {
        served,
        cs_entries,
        wall,
        stats,
        trace,
        latencies,
        ..
    } = report;
    let mut repeat = Repeat::new(
        per_process * n as u64,
        served,
        Timing {
            started,
            call: started.elapsed(),
            window: wall,
            teardown,
        },
        latencies,
        Counts::from_live(&stats, cs_entries),
    );
    repeat.chaos = chaos_report;
    if !chaos {
        check_clean_cs(&mut repeat);
    }
    if let Some(trace) = trace {
        let faults = repeat.chaos.as_ref().map(|c| c.fault_steps.clone());
        judge_mutex(&mut repeat, &trace, n, faults.as_deref());
    }
    Ok(repeat)
}

/// The live forwarding service on the mux backend, in memory.
fn forward_live(n: usize, per_process: u64, seed: u64, variant: Variant) -> io::Result<Repeat> {
    let cfg = ForwardingServiceConfig {
        n,
        payloads_per_process: per_process,
        live: live_config(seed, variant == Variant::Traced),
        time_budget: REPEAT_BUDGET,
        ..ForwardingServiceConfig::default()
    };
    let started = Instant::now();
    let report = run_forwarding_service_mux_on(&cfg, WORKERS, &InMemory)?;
    let call = started.elapsed();

    let mut repeat = Repeat::new(
        per_process * n as u64,
        report.delivered,
        Timing {
            started,
            call,
            window: report.wall,
            teardown: Duration::ZERO,
        },
        report.latencies,
        Counts::from_live(&report.stats, 0),
    );
    let (injected, spurious) = (report.injected, report.spurious);
    repeat.check(
        report.delivered == injected && spurious == 0,
        format!(
            "forwarding delivered {} of {injected} injected, {spurious} spurious",
            report.delivered
        ),
    );
    if let Some(trace) = report.trace {
        repeat.trace_events = trace.len() as u64;
        let began = Instant::now();
        let verdict = analyze_forwarding_trace(&trace, n);
        push_pass(&mut repeat, Analyzer::Forwarding, began);
        repeat.violating = (verdict.lost.len()
            + verdict.duplicate_ids.len()
            + verdict.corrupt_deliveries.len()) as u64;
        repeat.check(
            verdict.holds() && verdict.delivered.len() as u64 == repeat.requested,
            format!(
                "Spec 4: {} delivered, {} lost, {} duplicated, {} corrupt",
                verdict.delivered.len(),
                verdict.lost.len(),
                verdict.duplicate_ids.len(),
                verdict.corrupt_deliveries.len()
            ),
        );
    }
    Ok(repeat)
}

fn check_clean_cs(repeat: &mut Repeat) {
    let (cs, served) = (repeat.counts.cs_entries, repeat.served);
    repeat.check(
        cs == served,
        format!("{cs} critical-section entries for {served} served requests on a clean start"),
    );
}

fn push_pass(repeat: &mut Repeat, analyzer: Analyzer, began: Instant) {
    repeat.passes.push(AnalyzerPass {
        analyzer,
        took: began.elapsed(),
    });
}

/// Judges a mutex trace: by the epoch-segmented Spec 3 at the chaos
/// run's `faults`, or — on a clean run — by that (one epoch) and by the
/// plain Spec 3, so both analyzers are timed on the same trace.
fn judge_mutex(
    repeat: &mut Repeat,
    trace: &Trace<MeMsg, MeEvent>,
    n: usize,
    faults: Option<&[u64]>,
) {
    repeat.trace_events = trace.len() as u64;
    let began = Instant::now();
    let verdict = analyze_me_epochs(trace, n, faults.unwrap_or(&[]));
    push_pass(repeat, Analyzer::Epochs, began);
    repeat.violating = verdict.forged_marks.len() as u64
        + verdict
            .epochs
            .iter()
            .map(|e| (e.report.unserved.len() + e.report.genuine_overlaps.len()) as u64)
            .sum::<u64>();
    repeat.check(
        verdict.holds(),
        format!(
            "epoch-segmented Spec 3 does not hold over {} epochs ({} requests in violation)",
            verdict.epochs_checked(),
            repeat.violating
        ),
    );
    if faults.is_none() {
        let began = Instant::now();
        let report = analyze_me_trace(trace, n);
        push_pass(repeat, Analyzer::Me, began);
        repeat.check(
            report.exclusivity_holds()
                && report.all_served()
                && report.served.len() as u64 == repeat.requested,
            format!(
                "Spec 3: {} served, {} unserved, {} genuine overlaps",
                report.served.len(),
                report.unserved.len(),
                report.genuine_overlaps.len()
            ),
        );
    }
}
