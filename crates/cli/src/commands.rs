//! The CLI subcommands: run a protocol from a (optionally corrupted)
//! start and report what happened.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use snapstab_core::forward::ForwardEvent;
use snapstab_core::idl::IdlProcess;
use snapstab_core::me::{MeConfig, MeEvent, MeProcess, ValueMode};
use snapstab_core::probe::MonitorEventView;
use snapstab_core::request::RequestState;
use snapstab_core::shard::project_shard_trace;
use snapstab_core::spec::{
    analyze_forwarding_epochs, analyze_forwarding_trace, analyze_me_epochs, analyze_me_trace,
    analyze_snapshot_trace, check_idl_result,
};
use snapstab_impossibility::DoubleWinDemo;
use snapstab_net::{UdpLoopback, Wire};
use snapstab_runtime::service::{min_mean_max, quantiles, Msg};
use snapstab_runtime::{
    project_service_trace, run_service, summary_json_line, Alert, AlertConfig, ChaosMix, ChaosPlan,
    ChaosReport, ForwardingServiceConfig, ForwardingServiceReport, InMemory, LinkSample, LinkStats,
    LiveConfig, LiveStats, MonitorConfig, MonitorReport, MonitoredForwardingReport,
    MonitoredMutexReport, Monitoring, MutexServiceConfig, Series, ServiceApp, ServiceReport,
    ServiceRun, ShardedReport, ShardedServiceConfig, Transport, DEFAULT_WORKERS,
};
use snapstab_sim::{
    Capacity, CorruptionPlan, LossModel, Message, NetworkBuilder, ProcessId, RandomScheduler,
    Runner, SimRng, Trace,
};

use crate::args::Args;

/// The usage text.
pub const USAGE: &str = "\
snapstab — explore the snap-stabilizing protocols of Delaet et al. (2008)

USAGE: snapstab <command> [options]

COMMANDS
  idl            one IDs-Learning computation (Algorithm 2, simulated)
  me             a mutual-exclusion workload (Algorithm 3, simulated)
  live           a service on the live runtime: the n processes
                 multiplexed over a small worker-thread pool and a
                 concurrent lossy transport
                 (--app mutex: the mutual-exclusion service;
                  --app forward: snap-stabilizing message forwarding)
  impossibility  the Theorem 1 construction and replay
  help           this text

COMMON OPTIONS
  --n <int>      number of processes        (default 4)
  --seed <int>   deterministic seed         (default 1)
  --loss <f64>   per-message loss rate      (default 0.0)
  --corrupt      start from an arbitrary (corrupted) configuration
  --trace        print the execution timeline / service log

COMMAND OPTIONS
  me:            --steps <int> (default 60000), --requests <int> (default 3),
                 --cs-duration <int> (default 0)
  live:          --app {mutex|forward} (default mutex),
                 --requests <int> per process (default 50),
                 --cs-duration <int> (default 0), --budget-secs <int>
                 (default 60), --check (record + spec-check the trace),
                 --transport {inmem|udp} (default inmem; udp runs the
                 same protocol over real UDP loopback sockets),
                 --workers <int> (default 2): worker-pool size; one
                 worker serializes every instance, two or more step
                 instances in parallel,
                 --chaos {corrupt|crash|partition|storm|all}: inject a
                 seeded schedule of mid-run transient faults (state
                 corruption, crash storms healed by the supervisor with
                 adversarially corrupted restarts, link partitions, drop
                 storms); implies --check, with the spec judged per
                 fault-delimited epoch (not with --shards/--batch),
                 --shards <int> (default 1) and --batch <int> (default 1):
                 with either > 1, runs the sharded multi-leader service
                 with request batching (--key-space <int>, default 65536);
                 --queue-depth <int> (default 0): when set, runs the
                 sharded service with each per-shard client queue
                 starting ~that deep instead of --requests;
                 --monitor: run a snap-stabilizing snapshot monitor
                 alongside the service on the same transport — periodic
                 global cuts (state digests, queue depths, in-flight
                 counts, link counters) without pausing any process; prints
                 per-cut summaries and a final JSON metrics block;
                 with --check, the cuts are judged by Specification 5
                 (not with --shards/--batch/--queue-depth);
                 --monitor-interval <ms> (default 100, implies
                 --monitor): target period between cuts, a positive
                 integer of milliseconds;
                 --initiators <int> (default 1, implies --monitor):
                 concurrent snapshot initiators, each running its own
                 single-flight ledger on an independent schedule;
                 1 <= K <= n, and each decided cut is attributed to the
                 ledger that requested it;
                 --metrics-out <path|-> (implies --monitor): emit the
                 telemetry stream — schema-stable JSON lines, one per
                 decided cut (type: cut), per threshold alert (type:
                 alert), plus a final type: summary line — to a file,
                 or inline with `-`;
                 --jitter <ms> (default 0): uniform random per-delivery
                 delay up to that many milliseconds — stretches waves
                 under loss (the refusal-streak alert demo needs it);
                 --alert-refusal-streak <int> (default 3, implies
                 --monitor): fire an alert after that many consecutive
                 refused cuts on one ledger — surfaced in the report
                 and recorded as an `alert:` mark in the merged trace;
                 forward only: --buffer <int> (default 4) per-lane
                 buffer capacity, --stale (adversarially pre-fill every
                 buffer with stale entries before starting)
  impossibility: --cs-duration <int> (default 8)
";

/// A report (or usage error) and the process exit code.
type Outcome = (String, i32);

/// The exit-2 usage error: `msg`, then the usage text.
fn usage(msg: impl Display) -> Outcome {
    (format!("{msg}\n\n{USAGE}"), 2)
}

/// `--key` parsed as `T`, `default` when absent, or a usage error
/// naming the flag and its value.
fn flag<T: FromStr>(args: &Args, key: &str, default: T) -> Result<T, Outcome>
where
    T::Err: Display,
{
    args.get_or(key, default).map_err(usage)
}

/// Runs the `idl` subcommand; returns the report text.
pub fn cmd_idl(args: &Args) -> Result<String, Outcome> {
    let n: usize = flag(args, "n", 4)?;
    let seed: u64 = flag(args, "seed", 1)?;
    let loss: f64 = flag(args, "loss", 0.0)?;
    let ids: Vec<u64> = (0..n)
        .map(|i| 1 + ((7919 * (i as u64 + seed)) % 9973))
        .collect();

    let processes: Vec<IdlProcess> = (0..n)
        .map(|i| IdlProcess::new(ProcessId::new(i), n, ids[i]))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), seed);
    if loss > 0.0 {
        runner.set_loss(LossModel::probabilistic(loss));
    }
    let mut out = format!("IDs-Learning: n={n}, ids={ids:?}, loss={loss}, seed={seed}\n");
    if args.has("corrupt") {
        let mut rng = SimRng::seed_from(seed ^ 0xC0);
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        out.push_str("corrupted every variable and channel\n");
    }
    let learner = ProcessId::new(0);
    let _ = runner.run_until(1_000_000, |r| {
        r.process(learner).request() == RequestState::Done
    });
    runner.process_mut(learner).request_learning();
    let before = runner.step_count();
    runner
        .run_until(5_000_000, |r| {
            r.process(learner).request() == RequestState::Done
        })
        .expect("computation decides");
    let verdict = check_idl_result(runner.process(learner).idl(), learner, &ids, true, true);
    out.push_str(&format!(
        "decided in {} steps; minID = {} (true {}); spec holds: {}\n",
        runner.step_count() - before,
        runner.process(learner).idl().min_id(),
        ids.iter().min().unwrap(),
        verdict.holds(),
    ));
    if args.has("trace") {
        out.push_str(&snapstab_sim::render_timeline(
            runner.trace(),
            n,
            &snapstab_sim::RenderOptions::default(),
        ));
    }
    Ok(out)
}

/// Runs the `me` subcommand; returns the report text.
pub fn cmd_me(args: &Args) -> Result<String, Outcome> {
    let n: usize = flag(args, "n", 4)?;
    let seed: u64 = flag(args, "seed", 1)?;
    let loss: f64 = flag(args, "loss", 0.0)?;
    let steps: u64 = flag(args, "steps", 60_000)?;
    let requests: u32 = flag(args, "requests", 3)?;
    let cs_duration: u64 = flag(args, "cs-duration", 0)?;

    let config = MeConfig {
        cs_duration,
        value_mode: ValueMode::Corrected,
        ..MeConfig::default()
    };
    let processes: Vec<MeProcess> = (0..n)
        .map(|i| MeProcess::with_config(ProcessId::new(i), n, 100 + i as u64, config))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), seed);
    if loss > 0.0 {
        runner.set_loss(LossModel::probabilistic(loss));
    }
    let mut out = format!(
        "Mutual exclusion: n={n}, loss={loss}, cs_duration={cs_duration}, \
         {requests} request(s) per process, budget {steps} steps\n"
    );
    let mut rng = SimRng::seed_from(seed ^ 0xE1);
    if args.has("corrupt") {
        CorruptionPlan::full().apply(&mut runner, &mut rng);
        out.push_str("corrupted every variable and channel\n");
    }
    let mut pending = vec![requests; n];
    let mut executed = 0;
    while executed < steps {
        executed += runner.run_steps(300).expect("run").steps;
        for (i, left) in pending.iter_mut().enumerate() {
            let p = ProcessId::new(i);
            if *left > 0 && runner.process(p).request() == RequestState::Done {
                runner.mark(p, "request");
                runner.process_mut(p).request_cs();
                *left -= 1;
            }
        }
    }
    let report = analyze_me_trace(runner.trace(), n);
    out.push_str(&format!(
        "served {} request(s); genuine CS overlaps: {}; spurious overlaps: {}\n",
        report.served.len(),
        report.genuine_overlaps.len(),
        report.spurious_overlaps.len(),
    ));
    let lat = report.latencies();
    if !lat.is_empty() {
        out.push_str(&format!(
            "service latency: min {} / max {} steps\n",
            lat.iter().min().unwrap(),
            lat.iter().max().unwrap(),
        ));
    }
    if args.has("trace") {
        for (p, req, srv) in &report.served {
            out.push_str(&format!("  {p}: requested @{req}, served @{srv}\n"));
        }
    }
    Ok(out)
}

/// The valid `--transport` backends, listed in the exit-2 error message.
const TRANSPORTS: [&str; 2] = ["inmem", "udp"];

/// The valid `--app` workloads of the `live` subcommand, listed in the
/// exit-2 error message (same convention as `--transport`).
const APPS: [&str; 2] = ["mutex", "forward"];

/// The workload of a `live` run: `--app`, with `--shards`, `--batch` or
/// `--queue-depth` selecting the sharded variant of the mutex service
/// (which keeps its `--queue-depth` for the header).
enum App {
    Mutex(MutexServiceConfig),
    Forward(ForwardingServiceConfig),
    Sharded(ShardedServiceConfig, u64),
}

/// The `--transport` of a `live` run. An enum rather than a boxed
/// [`Transport`], because the report reads the UDP backend's frame
/// counters after the run.
enum Net {
    InMem(InMemory),
    Udp(UdpLoopback),
}

impl Net {
    fn transport<M: Wire + Send + 'static>(&self) -> &dyn Transport<M> {
        match self {
            Net::InMem(t) => t,
            Net::Udp(t) => t,
        }
    }

    /// The UDP transport's frame counters — how many records shared a
    /// `send_to`, and every way a frame or record was lost outside the
    /// link counters. Empty for the in-memory transport.
    fn framing_line(&self) -> String {
        let Net::Udp(udp) = self else {
            return String::new();
        };
        let f = udp.frame_stats();
        format!(
            "udp framing: {} frame(s) sent carrying {} record(s), {:.2} records per \
             frame, largest {} bytes; {} received; errors: {} refused frame(s), \
             {} rejected record(s), {} foreign frame(s)\n",
            f.frames_sent,
            f.records_sent,
            f.records_sent as f64 / f.frames_sent.max(1) as f64,
            f.max_frame_bytes,
            f.frames_received,
            f.send_errors,
            f.records_rejected,
            f.frames_foreign,
        )
    }
}

/// Where `--metrics-out` streams the telemetry JSON lines: inline with
/// the report (`-`) or to a file.
enum MetricsOut {
    Inline,
    File(std::path::PathBuf),
}

/// A parsed `live` command line: the app, the run, what to print.
struct Live {
    n: usize,
    seed: u64,
    loss: f64,
    requests: u64,
    budget_secs: u64,
    trace: bool,
    app: App,
    transport: String,
    net: Net,
    workers: usize,
    chaos: Option<ChaosMix>,
    monitor: Option<MonitorConfig>,
    metrics_out: Option<MetricsOut>,
}

impl Live {
    /// Parses and validates every `live` flag; an invalid one is an
    /// exit-2 usage error naming it and, where the set is closed, the
    /// valid values.
    fn parse(args: &Args) -> Result<Live, Outcome> {
        let forward = match flag(args, "app", "mutex".to_string())?.as_str() {
            "mutex" => false,
            "forward" => true,
            other => {
                return Err(usage(format!(
                    "unknown --app `{other}`: valid values are {}",
                    APPS.join(", ")
                )))
            }
        };
        let n = flag(args, "n", 4)?;
        if args.get_raw("runtime").is_some() || args.has("runtime") {
            return Err(usage(
                "--runtime was removed: every run is on the worker pool; size it with --workers",
            ));
        }
        let workers = match flag(args, "workers", DEFAULT_WORKERS)? {
            0 => {
                return Err(usage(
                    "invalid --workers 0: the pool needs at least one worker",
                ))
            }
            workers => workers,
        };
        let chaos = parse_chaos(args)?;
        let monitor = parse_monitor(args, n)?;
        let metrics_out = parse_metrics_out(args)?;
        let (seed, loss, requests) = (
            flag(args, "seed", 1)?,
            flag(args, "loss", 0.0)?,
            flag(args, "requests", 50)?,
        );
        let live = LiveConfig {
            loss,
            seed,
            jitter: Some(Duration::from_millis(flag(args, "jitter", 0)?)).filter(|j| !j.is_zero()),
            // --chaos implies recording: the epoch verdicts need the
            // merged trace.
            record_trace: args.has("check") || chaos.is_some(),
            ..LiveConfig::default()
        };
        let budget_secs = flag(args, "budget-secs", 60)?;
        let time_budget = Duration::from_secs(budget_secs);
        let cs_duration = flag(args, "cs-duration", 0)?;
        let (shards, batch, queue_depth) = (
            flag(args, "shards", 1)?,
            flag(args, "batch", 1)?,
            flag(args, "queue-depth", 0)?,
        );
        let app = if forward {
            let buffer_cap = flag(args, "buffer", 4)?;
            if buffer_cap == 0 {
                return Err(usage("invalid --buffer 0: lanes need at least one slot"));
            }
            App::Forward(ForwardingServiceConfig {
                n,
                payloads_per_process: requests,
                buffer_cap,
                prefill_stale: args.has("stale"),
                live,
                time_budget,
            })
        } else if shards > 1 || batch > 1 || queue_depth > 0 {
            // --queue-depth sizes per-shard client queues, so (like
            // --shards and --batch) it selects the sharded service — a
            // 1-shard, batch-1 sharded run degenerates to the plain
            // service, and the flag is never silently ignored.
            for (set, name) in [(chaos.is_some(), "chaos"), (monitor.is_some(), "monitor")] {
                if set {
                    return Err(usage(format!(
                        "--{name} is not supported with the sharded service \
                         (--shards/--batch/--queue-depth)"
                    )));
                }
            }
            let cfg = ShardedServiceConfig {
                n,
                shards,
                batch,
                requests_per_process: requests,
                key_space: flag(args, "key-space", 1 << 16)?,
                cs_duration,
                live,
                time_budget,
            };
            // --queue-depth D sizes the workload by target per-shard
            // queue depth instead of --requests.
            match queue_depth {
                0 => App::Sharded(cfg, 0),
                depth => App::Sharded(cfg.with_queue_depth(depth), depth),
            }
        } else {
            App::Mutex(MutexServiceConfig {
                n,
                requests_per_process: requests,
                cs_duration,
                live,
                time_budget,
            })
        };
        let transport = flag(args, "transport", "inmem".to_string())?;
        let net = match transport.as_str() {
            "inmem" => Net::InMem(InMemory),
            "udp" => Net::Udp(UdpLoopback::new()),
            other => {
                return Err(usage(format!(
                    "unknown --transport `{other}`: valid values are {}",
                    TRANSPORTS.join(", ")
                )))
            }
        };
        Ok(Live {
            n,
            seed,
            loss,
            requests,
            budget_secs,
            trace: args.has("trace"),
            app,
            transport,
            net,
            workers,
            chaos,
            monitor,
            metrics_out,
        })
    }

    /// The requested workload. Reports compare against it, not against
    /// the injected count: the clients inject lazily, so a budget-capped
    /// run has injected ≈ served and would otherwise read (and exit) as
    /// complete.
    fn total(&self) -> u64 {
        self.requests * self.n as u64
    }

    /// What one unit of the workload is called.
    fn noun(&self) -> &'static str {
        match self.app {
            App::Forward(_) => "payload",
            _ => "request",
        }
    }

    /// The report's first line: what runs, on what, for how long.
    fn header(&self) -> String {
        let runtime = format!("n={} instances on {} mux worker(s)", self.n, self.workers);
        let per_process = format!("{} {}(s) per process", self.requests, self.noun());
        let (name, before_loss, after_loss) = match &self.app {
            App::Mutex(_) => ("mutex", String::new(), per_process),
            App::Forward(cfg) => (
                "forwarding",
                String::new(),
                format!(
                    "{per_process}, buffer cap {}{}",
                    cfg.buffer_cap,
                    if cfg.prefill_stale {
                        ", stale-pre-filled buffers"
                    } else {
                        ""
                    }
                ),
            ),
            App::Sharded(cfg, depth) => (
                "sharded mutex",
                format!(
                    "{} shard(s) (one leader each), batch≤{}, ",
                    cfg.shards, cfg.batch
                ),
                match depth {
                    0 => per_process,
                    depth => format!("queue depth {depth} per shard"),
                },
            ),
        };
        let (monitored, cuts) = match &self.monitor {
            Some(mon) => (
                "monitored ",
                format!(
                    ", {} initiator(s), cut interval {}ms",
                    mon.initiators,
                    mon.interval.as_millis()
                ),
            ),
            None => ("", String::new()),
        };
        format!(
            "Live {monitored}{name} service: {runtime} ({} transport), {before_loss}loss={}, \
             {after_loss}{cuts}, budget {}s\n",
            self.transport, self.loss, self.budget_secs
        )
    }
}

/// Runs the `live` subcommand: one app on the live runtime. Returns the
/// report text and an exit code — non-zero when the workload fell short
/// within the budget or (under `--check`) a specification verdict
/// fails, so scripts and CI can gate on a live regression.
pub fn cmd_live(args: &Args) -> Outcome {
    let live = match Live::parse(args) {
        Ok(live) => live,
        Err(usage) => return usage,
    };
    match (&live.app, &live.monitor) {
        (App::Mutex(cfg), Some(mon)) => launch(&live, Monitoring::new(cfg, mon)),
        (App::Mutex(cfg), None) => launch(&live, cfg),
        (App::Forward(cfg), Some(mon)) => launch(&live, Monitoring::new(cfg, mon)),
        (App::Forward(cfg), None) => launch(&live, cfg),
        (App::Sharded(cfg, _), _) => launch(&live, cfg),
    }
}

/// Runs `app` the way `live` says and renders its report — the one
/// place the `live` subcommand reaches the runtime, and its one report
/// path.
fn launch<A>(live: &Live, app: A) -> Outcome
where
    A: ServiceApp,
    A::Report: Rendered,
    Msg<A>: Wire,
{
    let mut out = live.header();
    let plan = live.chaos.map(|mix| ChaosPlan::profile(mix, live.seed));
    let run = ServiceRun {
        workers: live.workers,
        transport: live.net.transport(),
        chaos: plan.as_ref(),
    };
    let (report, chaos) = match run_service(app, run) {
        Ok(done) => done,
        Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
    };
    let common = report.common();
    let monitor = report.monitor().zip(live.monitor.as_ref());
    out.push_str(&report.summary(live.total()));
    if let Some((m, mon)) = monitor {
        out.push_str(&format!(
            "; {} cut(s) decided ({:.1} cuts/s), {} refused\n",
            m.cuts.len(),
            m.cuts_per_sec(),
            m.refused
        ));
        monitor_lines(&mut out, m, mon);
    } else {
        out.push('\n');
    }
    out.push_str(&link_counters_line(&common.stats.links));
    out.push_str(&mux_scheduling_line(common.stats, common.completed));
    out.push_str(&live.net.framing_line());
    out.push_str(&per_link_table(common.links));
    report.detail(&mut out);
    if let (Some(mix), Some(c)) = (live.chaos, &chaos) {
        out.push_str(&chaos_summary(mix, c));
    }
    if let (Some((min, mean, max)), Some(q)) = (
        min_mean_max(common.latencies),
        quantiles(common.latencies, &[0.5, 0.99]),
    ) {
        out.push_str(&format!(
            "{} latency: min {:.2} / mean {:.2} / p50 {:.2} / p99 {:.2} / max {:.2} ms\n",
            if let App::Forward(_) = live.app {
                "end-to-end"
            } else {
                "service"
            },
            ms(min),
            ms(mean),
            ms(q[0]),
            ms(q[1]),
            ms(max),
        ));
    }
    let mut ok = report.verdicts(live, chaos.as_ref(), &mut out);
    if let Some((m, mon)) = monitor {
        let rate = common.completed as f64 / common.wall.as_secs_f64();
        let summary = summary_json_line(mon.interval, m, rate);
        if let Some(target) = &live.metrics_out {
            let mut series = Series::default();
            let mut lines: Vec<String> = m
                .cuts
                .iter()
                .map(|cut| series.observe(cut).json_line())
                .collect();
            lines.extend(m.alerts.iter().map(Alert::json_line));
            lines.push(summary.clone());
            ok &= deliver_metrics(&mut out, target, &lines);
        }
        // The same schema-stable summary line the telemetry stream ends
        // with, so the report block and `--metrics-out` cannot drift.
        out.push_str(&format!("monitor metrics: {summary}\n"));
    }
    if live.trace {
        for (i, lat) in common.latencies.iter().take(20).enumerate() {
            out.push_str(&format!("  {} {i}: {:.2} ms\n", live.noun(), ms(*lat)));
        }
    }
    (out, i32::from(!ok))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The parts of a report every `live` run prints.
struct Common<'r> {
    /// Requests served or payloads delivered.
    completed: u64,
    wall: Duration,
    stats: &'r LiveStats,
    links: &'r [LinkSample],
    latencies: &'r [Duration],
}

/// What the one `live` renderer reads from a report.
trait Rendered {
    fn common(&self) -> Common<'_>;

    /// The result line (without its newline): what completed, how fast.
    fn summary(&self, total: u64) -> String;

    /// The monitoring half of a monitored run.
    fn monitor(&self) -> Option<&MonitorReport> {
        None
    }

    /// Lines only this app prints.
    fn detail(&self, _out: &mut String) {}

    /// Prints the verdict lines — every specification the recorded
    /// trace is judged by — and returns whether they hold and the
    /// workload completed.
    fn verdicts(&self, live: &Live, chaos: Option<&ChaosReport>, out: &mut String) -> bool;
}

impl Rendered for ServiceReport {
    fn common(&self) -> Common<'_> {
        Common {
            completed: self.served,
            wall: self.wall,
            stats: &self.stats,
            links: &self.link_samples,
            latencies: &self.latencies,
        }
    }

    fn summary(&self, total: u64) -> String {
        format!(
            "served {}/{total} requests in {:.2}s: {:.0} req/s, {:.0} CS/s, {:.0} msgs/s",
            self.served,
            self.wall.as_secs_f64(),
            self.requests_per_sec(),
            self.cs_per_sec(),
            self.msgs_per_sec(),
        )
    }

    fn verdicts(&self, live: &Live, chaos: Option<&ChaosReport>, out: &mut String) -> bool {
        let spec = self
            .trace
            .as_ref()
            .is_none_or(|trace| spec3(trace, live.n, chaos, None, out));
        spec && self.served >= live.total()
    }
}

impl Rendered for ForwardingServiceReport {
    fn common(&self) -> Common<'_> {
        Common {
            completed: self.delivered,
            wall: self.wall,
            stats: &self.stats,
            links: &self.link_samples,
            latencies: &self.latencies,
        }
    }

    fn summary(&self, total: u64) -> String {
        format!(
            "delivered {}/{total} payloads in {:.2}s: {:.0} payloads/s, {:.0} msgs/s, \
             {} spurious stale flush(es)",
            self.delivered,
            self.wall.as_secs_f64(),
            self.payloads_per_sec(),
            self.msgs_per_sec(),
            self.spurious,
        )
    }

    /// Under chaos, state corruption may destroy payloads in flight
    /// through protocol buffers; the epoch verdict (which classifies
    /// them as interrupted at a fault boundary) is the pass/fail signal,
    /// not the raw delivery count.
    fn verdicts(&self, live: &Live, chaos: Option<&ChaosReport>, out: &mut String) -> bool {
        let spec = self
            .trace
            .as_ref()
            .is_none_or(|trace| spec4(trace, live.n, chaos, None, out));
        spec && (chaos.is_some() || self.delivered >= live.total())
    }
}

impl Rendered for ShardedReport {
    fn common(&self) -> Common<'_> {
        Common {
            completed: self.served,
            wall: self.wall,
            stats: &self.stats,
            links: &self.link_samples,
            latencies: &self.latencies,
        }
    }

    /// Against the injected total, which `--queue-depth` sizes.
    fn summary(&self, _total: u64) -> String {
        format!(
            "served {}/{} requests in {:.2}s: {:.0} req/s over {} grants \
             ({:.0} grants/s, {:.2} requests per grant), {:.0} msgs/s",
            self.served,
            self.injected.len(),
            self.wall.as_secs_f64(),
            self.requests_per_sec(),
            self.grant_log.len(),
            self.grants_per_sec(),
            self.mean_batch(),
            self.msgs_per_sec(),
        )
    }

    fn detail(&self, out: &mut String) {
        for (s, served) in self.per_shard_served.iter().enumerate() {
            out.push_str(&format!("  shard {s}: {served} request(s) served\n"));
        }
    }

    /// The grant-log audit, then Specification 3 on each shard's
    /// projection of the merged trace.
    fn verdicts(&self, live: &Live, chaos: Option<&ChaosReport>, out: &mut String) -> bool {
        let audit = self.audit();
        out.push_str(&format!(
            "grant-log audit: conflict-free batches: {}; routing respected: {}; \
             served exactly once: {}\n",
            audit.conflicting_grants.is_empty(),
            audit.misrouted_grants.is_empty(),
            audit.unserved_ids.is_empty()
                && audit.duplicate_ids.is_empty()
                && audit.unknown_ids.is_empty(),
        ));
        let mut ok = audit.holds() && self.served as usize >= self.injected.len();
        if let Some(trace) = &self.trace {
            for s in 0..self.per_shard_served.len() {
                let on = format!("shard {s}'s projected trace");
                ok &= spec3(
                    &project_shard_trace(trace, s),
                    live.n,
                    chaos,
                    Some(&on),
                    out,
                );
            }
        }
        ok
    }
}

impl Rendered for MonitoredMutexReport {
    fn common(&self) -> Common<'_> {
        Common {
            completed: self.served,
            wall: self.wall,
            stats: &self.stats,
            links: &self.link_samples,
            latencies: &self.latencies,
        }
    }

    fn summary(&self, total: u64) -> String {
        format!(
            "served {}/{total} requests in {:.2}s: {:.0} req/s",
            self.served,
            self.wall.as_secs_f64(),
            self.requests_per_sec(),
        )
    }

    fn monitor(&self) -> Option<&MonitorReport> {
        Some(&self.monitor)
    }

    /// Specification 5 on the cuts, Specification 3 on the projected
    /// service trace.
    fn verdicts(&self, live: &Live, chaos: Option<&ChaosReport>, out: &mut String) -> bool {
        let spec = self.trace.as_ref().is_none_or(|trace| {
            let on = Some("the projected service trace");
            let service = project_service_trace(trace);
            spec5(trace, live.n, chaos, out) & spec3(&service, live.n, chaos, on, out)
        });
        spec && self.served >= live.total()
    }
}

impl Rendered for MonitoredForwardingReport {
    fn common(&self) -> Common<'_> {
        Common {
            completed: self.delivered,
            wall: self.wall,
            stats: &self.stats,
            links: &self.link_samples,
            latencies: &self.latencies,
        }
    }

    fn summary(&self, total: u64) -> String {
        format!(
            "delivered {}/{total} payloads in {:.2}s: {:.0} payloads/s, {} spurious stale \
             flush(es)",
            self.delivered,
            self.wall.as_secs_f64(),
            self.payloads_per_sec(),
            self.spurious,
        )
    }

    fn monitor(&self) -> Option<&MonitorReport> {
        Some(&self.monitor)
    }

    /// Specification 5 on the cuts, Specification 4 on the projected
    /// service trace; chaos voids the delivery count as for the
    /// unmonitored service.
    fn verdicts(&self, live: &Live, chaos: Option<&ChaosReport>, out: &mut String) -> bool {
        let spec = self.trace.as_ref().is_none_or(|trace| {
            let on = Some("the projected service trace");
            let service = project_service_trace(trace);
            spec5(trace, live.n, chaos, out) & spec4(&service, live.n, chaos, on, out)
        });
        spec && (chaos.is_some() || self.delivered >= live.total())
    }
}

/// The trace a verdict line names: the merged live trace unless `on`
/// names a projection.
const MERGED: &str = "the merged live trace";

/// Specification 3 on a mutex trace — per fault epoch under chaos —
/// as one verdict line; returns whether it holds.
fn spec3<M: Message>(
    trace: &Trace<M, MeEvent>,
    n: usize,
    chaos: Option<&ChaosReport>,
    on: Option<&str>,
    out: &mut String,
) -> bool {
    match chaos {
        Some(c) => {
            let e = analyze_me_epochs(trace, n, &c.fault_steps);
            out.push_str(&format!(
                "spec 3 per epoch{}: {} epoch(s), {} served, {} interrupted at fault \
                 boundaries, {} forged fault mark(s); holds: {}\n",
                on.map(|on| format!(" ({on})")).unwrap_or_default(),
                e.epochs_checked(),
                e.served_total(),
                e.interrupted_total(),
                e.forged_marks.len(),
                e.holds(),
            ));
            e.holds()
        }
        None => {
            let s = analyze_me_trace(trace, n);
            out.push_str(&format!(
                "spec 3 on {}: genuine CS overlaps: {}; spurious: {}; exclusivity holds: {}\n",
                on.unwrap_or(MERGED),
                s.genuine_overlaps.len(),
                s.spurious_overlaps.len(),
                s.exclusivity_holds(),
            ));
            s.exclusivity_holds()
        }
    }
}

/// Specification 4 on a forwarding trace — per fault epoch under chaos
/// — as one verdict line; returns whether it holds.
fn spec4<M: Message>(
    trace: &Trace<M, ForwardEvent>,
    n: usize,
    chaos: Option<&ChaosReport>,
    on: Option<&str>,
    out: &mut String,
) -> bool {
    match chaos {
        Some(c) => {
            let e = analyze_forwarding_epochs(trace, n, &c.fault_steps);
            out.push_str(&format!(
                "spec 4 per epoch{}: {} epoch(s), {} delivered, {} interrupted at fault \
                 boundaries, {} epoch-crossing, {} forged fault mark(s); holds: {}\n",
                on.map(|on| format!(" ({on})")).unwrap_or_default(),
                e.epochs_checked(),
                e.delivered_total(),
                e.interrupted_total(),
                e.crossing.len(),
                e.forged_marks.len(),
                e.holds(),
            ));
            e.holds()
        }
        None => {
            let s = analyze_forwarding_trace(trace, n);
            out.push_str(&format!(
                "spec 4 on {}: lost: {}; duplicated ids: {}; corrupt deliveries: {}; \
                 spurious: {}; holds: {}\n",
                on.unwrap_or(MERGED),
                s.lost.len(),
                s.duplicate_ids.len(),
                s.corrupt_deliveries.len(),
                s.spurious,
                s.holds(),
            ));
            s.holds()
        }
    }
}

/// Specification 5 on a monitored run's merged trace, as one verdict
/// line; returns whether it holds.
fn spec5<M, E>(trace: &Trace<M, E>, n: usize, chaos: Option<&ChaosReport>, out: &mut String) -> bool
where
    M: Message,
    E: MonitorEventView + Clone + std::fmt::Debug + PartialEq + 'static,
{
    let faults = chaos.map_or(&[][..], |c| &c.fault_steps);
    let spec = analyze_snapshot_trace(trace, n, faults);
    out.push_str(&format!(
        "spec 5 on the merged trace: {} cut(s) decided ({} clean, {} \
         interrupted at faults), {} refused, {} pending; fabricated: {}, \
         torn: {}, crashed values: {}, causal violations: {}; holds: {}\n",
        spec.cuts_decided(),
        spec.clean_cuts(),
        spec.interrupted_total(),
        spec.refused.len(),
        spec.pending.len(),
        spec.fabricated.len(),
        spec.torn.len(),
        spec.crashed_values.len(),
        spec.causal_violations.len(),
        spec.holds(),
    ));
    spec.holds()
}

/// Resolves `--chaos` to a fault-mix profile: `Ok(None)` when absent, an
/// exit-2 usage error listing the valid set for an unknown (or missing)
/// profile — the same contract as `--transport` / `--app`.
fn parse_chaos(args: &Args) -> Result<Option<ChaosMix>, Outcome> {
    let valid = ChaosMix::NAMES.join(", ");
    match args.get_raw("chaos") {
        None if args.has("chaos") => Err(usage(format!(
            "missing --chaos profile: valid values are {valid}"
        ))),
        None => Ok(None),
        Some(raw) => ChaosMix::parse(raw)
            .map(Some)
            .ok_or_else(|| usage(format!("unknown --chaos `{raw}`: valid values are {valid}"))),
    }
}

/// `--key` as an integer in `range`, `default` when absent, or the
/// exit-2 usage error listing the `valid` values — a bare `--key` is
/// missing its `noun`, never silently the default.
fn bounded(
    args: &Args,
    key: &str,
    noun: &str,
    default: u64,
    range: std::ops::RangeInclusive<u64>,
    valid: &str,
) -> Result<u64, Outcome> {
    match args.get_raw(key) {
        None if args.has(key) => Err(usage(format!(
            "missing --{key} {noun}: valid values are {valid}"
        ))),
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|v| range.contains(v))
            .ok_or_else(|| usage(format!("invalid --{key} `{raw}`: valid values are {valid}"))),
    }
}

/// Resolves the monitor flags to a monitor configuration: `Ok(None)`
/// when monitoring is off, an exit-2 usage error for an invalid value.
/// Any monitor flag implies `--monitor` (never silently ignored, the
/// `--queue-depth` precedent).
fn parse_monitor(args: &Args, n: usize) -> Result<Option<MonitorConfig>, Outcome> {
    let implied = [
        "monitor-interval",
        "initiators",
        "alert-refusal-streak",
        "metrics-out",
    ];
    let monitoring = args.has("monitor")
        || implied
            .iter()
            .any(|key| args.has(key) || args.get_raw(key).is_some());
    if !monitoring {
        return Ok(None);
    }
    let interval_ms = bounded(
        args,
        "monitor-interval",
        "period",
        100,
        1..=u64::MAX,
        "positive integers (milliseconds between cuts)",
    )?;
    let initiators = bounded(
        args,
        "initiators",
        "count",
        1,
        1..=n as u64,
        &format!("integers in 1..=n (here 1..={n}, concurrent snapshot initiators)"),
    )?;
    let refusal_streak = bounded(
        args,
        "alert-refusal-streak",
        "threshold",
        AlertConfig::default().refusal_streak,
        1..=u64::MAX,
        "positive integers (consecutive refusals on one ledger before the alert fires)",
    )?;
    Ok(Some(MonitorConfig {
        interval: Duration::from_millis(interval_ms),
        initiators: initiators as usize,
        alerts: AlertConfig {
            refusal_streak,
            ..AlertConfig::default()
        },
    }))
}

/// Resolves `--metrics-out` (implies `--monitor`): `-` streams the
/// schema-stable JSON lines inline with the report, any other value is
/// a file path. A bare switch is an exit-2 usage error listing the
/// valid form.
fn parse_metrics_out(args: &Args) -> Result<Option<MetricsOut>, Outcome> {
    match args.get_raw("metrics-out") {
        Some("-") => Ok(Some(MetricsOut::Inline)),
        Some(path) => Ok(Some(MetricsOut::File(path.into()))),
        None if args.has("metrics-out") => Err(usage(
            "missing --metrics-out target: valid values are a file path, or `-` to stream \
             the JSON lines inline with the report",
        )),
        None => Ok(None),
    }
}

/// Delivers the collected telemetry JSON lines to the `--metrics-out`
/// target: appended verbatim to the report for `-`, written to the file
/// otherwise (noted in the report either way). Returns whether the
/// lines were delivered.
fn deliver_metrics(out: &mut String, target: &MetricsOut, lines: &[String]) -> bool {
    match target {
        MetricsOut::Inline => {
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
            true
        }
        MetricsOut::File(path) => {
            let mut body = lines.join("\n");
            body.push('\n');
            match std::fs::write(path, body) {
                Ok(()) => {
                    out.push_str(&format!(
                        "telemetry: {} JSON line(s) written to {}\n",
                        lines.len(),
                        path.display()
                    ));
                    true
                }
                Err(e) => {
                    out.push_str(&format!(
                        "telemetry: failed to write {}: {e}\n",
                        path.display()
                    ));
                    false
                }
            }
        }
    }
}

/// The monitoring block of a monitored run: one summary line per
/// decided cut (bounded), the per-initiator split when there are
/// several, and the alerts raised (bounded) — matching the `alert:`
/// marks recorded in the merged trace.
fn monitor_lines(out: &mut String, m: &MonitorReport, mon: &MonitorConfig) {
    const CUTS_SHOWN: usize = 20;
    const ALERTS_SHOWN: usize = 10;
    for cut in m.cuts.iter().take(CUTS_SHOWN) {
        out.push_str(&format!(
            "  cut #{} (initiator {}) @step {}: served {}, queued {}, {} in flight, \
             {} in transit, staleness {:.2} ms\n",
            cut.cut,
            cut.initiator.index(),
            cut.step,
            cut.served_total(),
            cut.queue_total(),
            cut.in_flight_total(),
            cut.in_transit_total(),
            ms(cut.staleness),
        ));
    }
    if m.cuts.len() > CUTS_SHOWN {
        out.push_str(&format!(
            "  ... {} more cut(s) elided\n",
            m.cuts.len() - CUTS_SHOWN
        ));
    }
    if mon.initiators > 1 {
        for s in m.per_initiator() {
            out.push_str(&format!(
                "  initiator {}: {} cut(s) ({:.1} cuts/s), {} refused\n",
                s.initiator.index(),
                s.cuts,
                m.cuts_per_sec_of(s.initiator),
                s.refused,
            ));
        }
    }
    if !m.alerts.is_empty() {
        out.push_str(&format!("alerts: {} raised\n", m.alerts.len()));
        for a in m.alerts.iter().take(ALERTS_SHOWN) {
            out.push_str(&format!("  {}\n", a.mark()));
        }
        if m.alerts.len() > ALERTS_SHOWN {
            out.push_str(&format!(
                "  ... {} more alert(s) elided\n",
                m.alerts.len() - ALERTS_SHOWN
            ));
        }
    }
}

/// The per-link half of the counter report: one row per directed link,
/// identical for every transport backend (the in-memory matrix and the
/// UDP loopback expose the same [`LinkSample`]s). Zero-activity links
/// are elided to keep the table proportional to the traffic, not to n².
fn per_link_table(samples: &[LinkSample]) -> String {
    let mut out = String::from("per-link counters (drops full/transit/reorder, in transit):\n");
    let mut shown = 0;
    for s in samples {
        if s.stats.sends == 0 && s.in_transit == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {}->{}: {} sends, {} delivered; drops {}/{}/{}; {} in transit\n",
            s.from.index(),
            s.to.index(),
            s.stats.sends,
            s.stats.delivered,
            s.stats.lost_full,
            s.stats.lost_in_transit,
            s.stats.lost_reorder,
            s.in_transit,
        ));
        shown += 1;
    }
    if shown == 0 {
        out.push_str("  (no link traffic)\n");
    }
    out
}

/// The transport's aggregate link counters, printed in every `live`
/// report so degradation (drop-on-full, in-transit loss, UDP reorder,
/// chaos drops) is visible without reading the trace.
fn link_counters_line(links: &LinkStats) -> String {
    format!(
        "link counters: {} sends, {} enqueued, {} delivered; lost: {} full, \
         {} in transit, {} reorder\n",
        links.sends,
        links.enqueued,
        links.delivered,
        links.lost_full,
        links.lost_in_transit,
        links.lost_reorder,
    )
}

/// The mux pool's scheduling counters: how many deliveries a quantum
/// batches and how many `Condvar` notifies (futex syscalls) a completed
/// request or payload cost.
fn mux_scheduling_line(stats: &LiveStats, completed: u64) -> String {
    format!(
        "mux scheduling: {} quanta, {:.2} deliveries per quantum; {} wake-up \
         syscall(s), {:.2} per served request\n",
        stats.quanta,
        stats.deliveries as f64 / stats.quanta.max(1) as f64,
        stats.wakeups,
        stats.wakeups as f64 / completed.max(1) as f64,
    )
}

/// The chaos summary and recovery quantiles of a run's [`ChaosReport`].
fn chaos_summary(mix: ChaosMix, c: &ChaosReport) -> String {
    let mut out = format!(
        "chaos ({} profile): {} burst(s) — {} corruption(s), {} crash(es), \
         {} partition(s), {} storm(s); {} message(s) destroyed; \
         {} supervisor intervention(s)\n",
        mix.as_str(),
        c.bursts_fired,
        c.corruptions,
        c.crashes,
        c.partitions,
        c.storms,
        c.chaos_drops,
        c.interventions.len(),
    );
    if let (Some(p50), Some(p99)) = (c.recovery_quantile(0.5), c.recovery_quantile(0.99)) {
        out.push_str(&format!(
            "recovery time (burst to next completion): p50 {:.2} / p99 {:.2} ms\n",
            ms(p50),
            ms(p99),
        ));
    }
    out
}

/// Runs the `impossibility` subcommand; returns the report text.
pub fn cmd_impossibility(args: &Args) -> Result<String, Outcome> {
    let n: usize = flag(args, "n", 3)?;
    let seed: u64 = flag(args, "seed", 0xD0)?;
    let cs_duration: u64 = flag(args, "cs-duration", 8)?;
    let demo = DoubleWinDemo {
        n,
        a: ProcessId::new(1),
        b: ProcessId::new(2),
        cs_duration,
        seed,
        max_steps: 4_000_000,
    };
    let outcome = demo.run(&[1, 2, 4, 8, 16]).expect("demo runs");
    let mut out = format!(
        "Theorem 1 construction: n={n}, cs_duration={cs_duration}, seed={seed}\n\
         gamma_0 needs up to {} messages per channel ({} total, sent by nobody)\n",
        outcome.max_channel_load, outcome.total_preloaded
    );
    for (cap, feasible) in &outcome.feasibility {
        match cap {
            Some(c) => out.push_str(&format!(
                "  capacity {c:>2}: gamma_0 {}\n",
                if *feasible {
                    "exists"
                } else {
                    "does NOT exist"
                }
            )),
            None => out.push_str(&format!(
                "  unbounded  : gamma_0 {}\n",
                if *feasible {
                    "exists"
                } else {
                    "does NOT exist"
                }
            )),
        }
    }
    out.push_str(&format!(
        "replay on unbounded channels: bad factor reached = {} (step {:?}), \
         genuine CS overlaps = {}\n",
        outcome.replay.violated(),
        outcome.replay.bad_factor_step,
        outcome.report.genuine_overlaps.len(),
    ));
    Ok(out)
}

/// Dispatches a parsed command line; returns the report text and the
/// process exit code (non-zero for an unknown subcommand or an invalid
/// flag, so scripts and CI notice typos instead of silently getting the
/// usage text).
pub fn dispatch(args: &Args) -> Outcome {
    if args.has("help") {
        return (USAGE.to_string(), 0);
    }
    let report = match args.command.as_deref() {
        Some("idl") => cmd_idl(args),
        Some("me") => cmd_me(args),
        Some("live") => return cmd_live(args),
        Some("impossibility") => cmd_impossibility(args),
        Some("help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => return usage(format!("unknown command `{other}`")),
    };
    report.map_or_else(|usage| usage, |out| (out, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn idl_reports_success() {
        let out = cmd_idl(&parse("idl --n 3 --seed 5")).expect("valid flags");
        assert!(out.contains("spec holds: true"), "{out}");
    }

    #[test]
    fn idl_corrupted_still_succeeds() {
        let out = cmd_idl(&parse("idl --n 3 --seed 6 --corrupt --loss 0.2")).expect("valid flags");
        assert!(out.contains("spec holds: true"), "{out}");
    }

    #[test]
    fn me_serves_and_stays_exclusive() {
        let out =
            cmd_me(&parse("me --n 3 --steps 80000 --requests 1 --corrupt")).expect("valid flags");
        assert!(out.contains("genuine CS overlaps: 0"), "{out}");
    }

    #[test]
    fn impossibility_reports_dichotomy() {
        let out = cmd_impossibility(&parse("impossibility --n 3")).expect("valid flags");
        assert!(out.contains("bad factor reached = true"), "{out}");
        assert!(out.contains("does NOT exist"), "{out}");
    }

    #[test]
    fn live_serves_and_reports_throughput() {
        let (out, code) = cmd_live(&parse("live --n 3 --requests 2 --check --budget-secs 40"));
        assert!(out.contains("served 6/6"), "{out}");
        assert!(out.contains("exclusivity holds: true"), "{out}");
        assert_eq!(code, 0, "healthy run exits 0");
    }

    #[test]
    fn live_sharded_serves_audits_and_exits_zero() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --shards 2 --batch 2 --requests 4 --key-space 4 --check --budget-secs 40",
        ));
        assert!(out.contains("2 shard(s)"), "{out}");
        assert!(out.contains("served 12/12"), "{out}");
        assert!(out.contains("conflict-free batches: true"), "{out}");
        assert!(out.contains("spec 3 on shard 1"), "{out}");
        assert!(!out.contains("exclusivity holds: false"), "{out}");
        assert_eq!(code, 0, "healthy sharded run exits 0:\n{out}");
    }

    #[test]
    fn live_batch_flag_alone_selects_sharded_path() {
        let (out, code) = cmd_live(&parse("live --n 3 --batch 3 --requests 3 --budget-secs 40"));
        assert!(out.contains("1 shard(s)"), "{out}");
        assert!(out.contains("batch≤3"), "{out}");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn live_unknown_transport_exits_2_and_lists_valid_set() {
        let (out, code) = cmd_live(&parse("live --n 3 --transport carrier-pigeon"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(
            out.contains("unknown --transport `carrier-pigeon`"),
            "{out}"
        );
        assert!(out.contains("valid values are inmem, udp"), "{out}");
        assert!(out.contains("USAGE"), "{out}");
        // The sharded path applies the same validation.
        let (out, code) = cmd_live(&parse("live --n 3 --shards 2 --transport tcp"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("valid values are inmem, udp"), "{out}");
    }

    /// The removed `--runtime` flag fails loudly, with any value, so an
    /// old script does not silently run something else.
    #[test]
    fn live_runtime_flag_exits_2() {
        for line in [
            "live --n 3 --runtime mux",
            "live --n 3 --runtime threads",
            "live --app forward --n 3 --runtime mux --workers 2",
            "live --n 3 --runtime",
        ] {
            let (out, code) = cmd_live(&parse(line));
            assert_eq!(code, 2, "`{line}`:\n{out}");
            assert!(out.contains("--runtime was removed"), "`{line}`:\n{out}");
            assert!(out.contains("USAGE"), "`{line}`:\n{out}");
        }
    }

    /// `--workers` has one default, the runtime's, and the usage text
    /// states it.
    #[test]
    fn live_workers_default_is_the_runtime_default() {
        assert!(
            USAGE.contains(&format!("--workers <int> (default {DEFAULT_WORKERS})")),
            "{USAGE}"
        );
        let (out, code) = cmd_live(&parse("live --n 3 --requests 1 --budget-secs 40"));
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains(&format!("n=3 instances on {DEFAULT_WORKERS} mux worker(s)")),
            "{out}"
        );
    }

    #[test]
    fn live_mux_runtime_serves_and_checks() {
        let (out, code) = cmd_live(&parse(
            "live --n 4 --workers 2 --requests 2 --check --budget-secs 40",
        ));
        assert!(out.contains("n=4 instances on 2 mux worker(s)"), "{out}");
        assert!(out.contains("served 8/8"), "{out}");
        assert!(out.contains("exclusivity holds: true"), "{out}");
        assert_eq!(code, 0, "healthy mux run exits 0:\n{out}");
    }

    #[test]
    fn live_mux_forward_delivers_and_checks_spec4() {
        let (out, code) = cmd_live(&parse(
            "live --app forward --n 3 --workers 2 --requests 2 \
             --check --budget-secs 40",
        ));
        assert!(out.contains("n=3 instances on 2 mux worker(s)"), "{out}");
        assert!(out.contains("delivered 6/6"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy mux forwarding run exits 0:\n{out}");
    }

    #[test]
    fn live_mux_rejects_sharded_and_zero_workers() {
        // Sharded runs on the pool like every other app.
        let (out, code) = cmd_live(&parse(
            "live --n 3 --shards 2 --workers 1 --check --budget-secs 40",
        ));
        assert_eq!(code, 0, "sharded on the pool serves and checks:\n{out}");
        assert!(out.contains("n=3 instances on 1 mux worker(s)"), "{out}");
        assert!(out.contains("spec 3 on shard 1"), "{out}");
        let (out, code) = cmd_live(&parse("live --n 3 --workers 0"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("invalid --workers 0"), "{out}");
    }

    #[test]
    fn live_monitored_mux_serves_cuts_and_checks_spec5() {
        let (out, code) = cmd_live(&parse(
            "live --n 4 --workers 2 --requests 2 --monitor \
             --monitor-interval 5 --check --budget-secs 40",
        ));
        assert!(out.contains("mux worker(s)"), "{out}");
        assert!(out.contains("served 8/8"), "{out}");
        assert!(out.contains("spec 5 on the merged trace"), "{out}");
        assert!(out.contains("fabricated: 0"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy monitored mux run exits 0:\n{out}");
    }

    #[test]
    fn live_multi_initiator_attributes_cuts_per_ledger() {
        let (out, code) = cmd_live(&parse(
            "live --n 4 --workers 2 --requests 2 --initiators 2 \
             --monitor-interval 5 --check --budget-secs 40",
        ));
        assert!(out.contains("2 initiator(s)"), "{out}");
        assert!(out.contains("initiator 0:"), "{out}");
        assert!(out.contains("initiator 1:"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "{out}");
    }

    /// The acceptance demo: a seeded corruption-chaos run whose
    /// refusal-streak alert fires, lands as an `alert:` mark in the
    /// merged trace (where `--check` judges Spec 5 around it), and is
    /// surfaced in the report. `--jitter` stretches every wave past the
    /// 1 ms cut schedule so the seeded bursts meet waves in flight;
    /// threshold 1 keeps the demo robust to scheduler timing (the
    /// refusals are seeded, their adjacency is not).
    #[test]
    fn live_chaos_refusal_streak_alert_fires_and_is_surfaced() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 30 --loss 0.3 --jitter 2 \
             --workers 2 --monitor-interval 1 --alert-refusal-streak 1 \
             --chaos corrupt --seed 131 --check --budget-secs 60",
        ));
        assert!(out.contains("alerts:"), "{out}");
        assert!(out.contains("alert:refusal-streak initiator=0"), "{out}");
        assert!(out.contains("spec 5 on the merged trace"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "alerting must not fail the run:\n{out}");
    }

    #[test]
    fn live_invalid_alert_refusal_streak_exits_2_and_lists_valid_form() {
        for bad in ["0", "many"] {
            let (out, code) = cmd_live(&parse(&format!("live --n 3 --alert-refusal-streak {bad}")));
            assert_eq!(code, 2, "usage errors exit 2:\n{out}");
            assert!(
                out.contains(&format!("invalid --alert-refusal-streak `{bad}`")),
                "{out}"
            );
            assert!(out.contains("positive integers"), "{out}");
            assert!(out.contains("USAGE"), "{out}");
        }
        let (out, code) = cmd_live(&parse("live --n 3 --alert-refusal-streak --check"));
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("missing --alert-refusal-streak threshold"),
            "{out}"
        );
    }

    #[test]
    fn live_invalid_initiators_exits_2_and_lists_valid_form() {
        for bad in ["0", "nope", "9"] {
            let (out, code) = cmd_live(&parse(&format!("live --n 3 --initiators {bad}")));
            assert_eq!(code, 2, "usage errors exit 2:\n{out}");
            assert!(
                out.contains(&format!("invalid --initiators `{bad}`")),
                "{out}"
            );
            assert!(out.contains("valid values are integers in 1..=n"), "{out}");
            assert!(out.contains("USAGE"), "{out}");
        }
        let (out, code) = cmd_live(&parse("live --n 3 --initiators --check"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("missing --initiators count"), "{out}");
    }

    #[test]
    fn live_metrics_out_inline_streams_schema_stable_lines() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 2 --monitor-interval 5 --metrics-out - \
             --budget-secs 40",
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("{\"type\":\"cut\",\"initiator\":"), "{out}");
        assert!(
            out.contains("{\"type\":\"summary\",\"interval_ms\":5"),
            "{out}"
        );
    }

    #[test]
    fn live_metrics_out_bare_flag_exits_2() {
        let (out, code) = cmd_live(&parse("live --n 3 --metrics-out --check"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("missing --metrics-out target"), "{out}");
        assert!(out.contains("USAGE"), "{out}");
    }

    #[test]
    fn live_metrics_out_writes_file() {
        let dir = std::env::temp_dir().join(format!("snapstab-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.jsonl");
        let (out, code) = cmd_live(&parse(&format!(
            "live --n 3 --requests 2 --monitor-interval 5 --metrics-out {} \
             --budget-secs 40",
            path.display()
        )));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("telemetry:"), "{out}");
        let body = std::fs::read_to_string(&path).expect("metrics file written");
        assert!(body.contains("{\"type\":\"cut\""), "{body}");
        assert!(body
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"type\":\"summary\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_unknown_app_exits_2_and_lists_valid_set() {
        let (out, code) = cmd_live(&parse("live --n 3 --app carrier-pigeon"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("unknown --app `carrier-pigeon`"), "{out}");
        assert!(out.contains("valid values are mutex, forward"), "{out}");
        assert!(out.contains("USAGE"), "{out}");
    }

    #[test]
    fn live_forward_delivers_and_checks_spec4() {
        let (out, code) = cmd_live(&parse(
            "live --app forward --n 3 --requests 2 --stale --check --budget-secs 40",
        ));
        assert!(out.contains("Live forwarding service"), "{out}");
        assert!(out.contains("stale-pre-filled buffers"), "{out}");
        assert!(out.contains("delivered 6/6"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy forwarding run exits 0:\n{out}");
    }

    #[test]
    fn live_forward_zero_buffer_exits_2() {
        let (out, code) = cmd_live(&parse("live --app forward --n 3 --buffer 0"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("invalid --buffer 0"), "{out}");
        assert!(out.contains("USAGE"), "{out}");
    }

    #[test]
    fn live_forward_validates_transport_too() {
        let (out, code) = cmd_live(&parse("live --app forward --n 3 --transport tcp"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("valid values are inmem, udp"), "{out}");
    }

    #[test]
    fn live_forward_udp_transport_delivers() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let (out, code) = cmd_live(&parse(
            "live --app forward --n 3 --requests 1 --transport udp --check --budget-secs 40",
        ));
        assert!(out.contains("udp transport"), "{out}");
        assert!(out.contains("delivered 3/3"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy UDP forwarding run exits 0:\n{out}");
    }

    #[test]
    fn live_udp_transport_serves_and_checks() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 2 --transport udp --check --budget-secs 40",
        ));
        assert!(out.contains("udp transport"), "{out}");
        assert!(out.contains("served 6/6"), "{out}");
        assert!(out.contains("exclusivity holds: true"), "{out}");
        assert_eq!(code, 0, "healthy UDP run exits 0:\n{out}");
    }

    /// Every report a UDP run can produce carries exactly one
    /// `udp framing:` line, with at least one record per frame; an
    /// in-memory run carries none.
    #[test]
    fn live_udp_reports_print_one_framing_line() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        for flags in [
            "",
            "--workers 1",
            "--shards 2",
            "--monitor --monitor-interval 5",
            "--app forward",
            "--app forward --monitor --monitor-interval 5",
        ] {
            let (out, code) = cmd_live(&parse(&format!(
                "live --n 3 --requests 2 --transport udp --budget-secs 40 {flags}"
            )));
            assert_eq!(code, 0, "`{flags}`:\n{out}");
            let lines: Vec<&str> = out.lines().filter(|l| l.contains("udp framing:")).collect();
            assert_eq!(lines.len(), 1, "`{flags}`:\n{out}");
            assert!(
                !lines[0].contains(" 0 frame(s) sent"),
                "`{flags}`: {}",
                lines[0]
            );
            assert!(
                lines[0].contains("errors: 0 refused frame(s)"),
                "{}",
                lines[0]
            );
        }
        let (out, _) = cmd_live(&parse("live --n 3 --requests 2"));
        assert!(!out.contains("udp framing:"), "{out}");
    }

    #[test]
    fn live_queue_depth_sizes_the_sharded_workload() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --shards 2 --batch 2 --queue-depth 2 --key-space 64 --budget-secs 40",
        ));
        assert!(out.contains("queue depth 2 per shard"), "{out}");
        // 3 processes × (2 shards × depth 2) = 12 requests.
        assert!(out.contains("served 12/12"), "{out}");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn live_queue_depth_alone_selects_sharded_path() {
        // Never silently ignored: without --shards/--batch the flag still
        // drives a (1-shard) sharded run sized by the depth.
        let (out, code) = cmd_live(&parse("live --n 3 --queue-depth 2 --budget-secs 40"));
        assert!(out.contains("1 shard(s)"), "{out}");
        assert!(out.contains("queue depth 2 per shard"), "{out}");
        assert!(out.contains("served 6/6"), "{out}");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn live_unknown_chaos_exits_2_and_lists_valid_set() {
        let (out, code) = cmd_live(&parse("live --n 3 --chaos gremlins"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("unknown --chaos `gremlins`"), "{out}");
        assert!(
            out.contains("valid values are corrupt, crash, partition, storm, all"),
            "{out}"
        );
        assert!(out.contains("USAGE"), "{out}");
        // A bare `--chaos` switch (no profile) gets the same treatment.
        let (out, code) = cmd_live(&parse("live --n 3 --chaos"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("missing --chaos profile"), "{out}");
        // The forwarding app applies the same validation.
        let (out, code) = cmd_live(&parse("live --app forward --n 3 --chaos gremlins"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown --chaos `gremlins`"), "{out}");
    }

    #[test]
    fn live_chaos_with_sharded_flags_exits_2() {
        let (out, code) = cmd_live(&parse("live --n 3 --shards 2 --chaos all"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("--chaos is not supported"), "{out}");
    }

    #[test]
    fn live_reports_link_counters() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 1 --loss 0.2 --budget-secs 40",
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("link counters:"), "{out}");
        assert!(out.contains("in transit"), "{out}");
        assert!(out.contains("reorder"), "{out}");
        // The per-link table is printed for every transport backend.
        assert!(out.contains("per-link counters"), "{out}");
        assert!(out.contains("0->1:"), "{out}");
    }

    #[test]
    fn live_monitored_serves_cuts_and_checks_spec5() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 2 --monitor --monitor-interval 5 --check --budget-secs 40",
        ));
        assert!(out.contains("Live monitored mutex service"), "{out}");
        assert!(out.contains("served 6/6"), "{out}");
        assert!(out.contains("cut #0"), "{out}");
        assert!(out.contains("spec 5 on the merged trace"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert!(out.contains("exclusivity holds: true"), "{out}");
        assert!(
            out.contains("monitor metrics: {\"type\":\"summary\",\"interval_ms\":5"),
            "{out}"
        );
        assert!(out.contains("per-link counters"), "{out}");
        assert_eq!(code, 0, "healthy monitored run exits 0:\n{out}");
    }

    #[test]
    fn live_monitor_interval_alone_implies_monitor() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 1 --monitor-interval 10 --budget-secs 40",
        ));
        assert!(out.contains("Live monitored mutex service"), "{out}");
        assert!(out.contains("cut interval 10ms"), "{out}");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn live_invalid_monitor_interval_exits_2_and_lists_valid_input() {
        for bad in ["0", "fast", "-5", "2.5"] {
            let (out, code) = cmd_live(&parse(&format!(
                "live --n 3 --monitor --monitor-interval {bad}"
            )));
            assert_eq!(code, 2, "usage errors exit 2 for `{bad}`:\n{out}");
            assert!(
                out.contains(&format!("invalid --monitor-interval `{bad}`")),
                "{out}"
            );
            assert!(out.contains("positive integers"), "{out}");
            assert!(out.contains("USAGE"), "{out}");
        }
    }

    #[test]
    fn live_monitor_with_sharded_flags_exits_2() {
        let (out, code) = cmd_live(&parse("live --n 3 --shards 2 --monitor"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("--monitor is not supported"), "{out}");
    }

    #[test]
    fn live_monitored_chaos_run_holds_spec5() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 3 --monitor --monitor-interval 5 --chaos all \
             --seed 9 --budget-secs 60",
        ));
        assert!(out.contains("chaos (all profile):"), "{out}");
        assert!(out.contains("spec 5 on the merged trace"), "{out}");
        assert!(out.contains("spec 3 per epoch"), "{out}");
        assert!(!out.contains("holds: false"), "{out}");
        assert_eq!(code, 0, "healthy monitored chaos run exits 0:\n{out}");
    }

    #[test]
    fn live_monitored_forward_delivers_and_checks() {
        let (out, code) = cmd_live(&parse(
            "live --app forward --n 3 --requests 2 --monitor --monitor-interval 5 \
             --check --budget-secs 40",
        ));
        assert!(out.contains("Live monitored forwarding service"), "{out}");
        assert!(out.contains("delivered 6/6"), "{out}");
        assert!(out.contains("spec 5 on the merged trace"), "{out}");
        assert!(
            out.contains("spec 4 on the projected service trace"),
            "{out}"
        );
        assert!(!out.contains("holds: false"), "{out}");
        assert!(out.contains("monitor metrics:"), "{out}");
        assert_eq!(code, 0, "healthy monitored forwarding run exits 0:\n{out}");
    }

    #[test]
    fn live_monitored_udp_serves_and_checks() {
        if !snapstab_net::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 2 --monitor --monitor-interval 5 --transport udp \
             --check --budget-secs 40",
        ));
        assert!(out.contains("udp transport"), "{out}");
        assert!(out.contains("served 6/6"), "{out}");
        assert!(out.contains("spec 5 on the merged trace"), "{out}");
        assert!(!out.contains("holds: false"), "{out}");
        assert!(out.contains("per-link counters"), "{out}");
        assert_eq!(code, 0, "healthy monitored UDP run exits 0:\n{out}");
    }

    #[test]
    fn live_chaos_run_serves_and_reports_epochs() {
        let (out, code) = cmd_live(&parse(
            "live --n 3 --requests 3 --chaos all --seed 9 --budget-secs 60",
        ));
        assert!(out.contains("chaos (all profile):"), "{out}");
        assert!(out.contains("served 9/9"), "{out}");
        // --chaos implies --check: the epoch verdict is always printed.
        assert!(out.contains("spec 3 per epoch:"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy chaos run exits 0:\n{out}");
    }

    #[test]
    fn live_forward_chaos_run_reports_epochs() {
        let (out, code) = cmd_live(&parse(
            "live --app forward --n 3 --requests 2 --chaos partition --seed 4 --budget-secs 60",
        ));
        assert!(out.contains("chaos (partition profile):"), "{out}");
        assert!(out.contains("spec 4 per epoch:"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy forwarding chaos run exits 0:\n{out}");
    }

    /// One composition table for the one `live` report path: every app ×
    /// chaos × monitor combination, plus sharded, in memory at n = 3.
    /// Every row exits 0 and renders one link-counter line, one per-link
    /// table, one scheduling line, and only verdicts that hold.
    #[test]
    fn live_composition_table_renders_every_row_alike() {
        let mut rows = Vec::new();
        for app in ["mutex", "forward"] {
            for chaos in ["", "--chaos all"] {
                for monitor in ["", "--monitor --monitor-interval 5"] {
                    rows.push(format!("--app {app} {chaos} {monitor}"));
                }
            }
        }
        rows.push("--shards 2 --batch 2".to_string());
        for row in rows {
            let (out, code) = cmd_live(&parse(&format!(
                "live --n 3 --requests 2 --workers 2 --check --budget-secs 40 {row}"
            )));
            assert_eq!(code, 0, "`{row}`:\n{out}");
            let count = |needle: &str| out.lines().filter(|l| l.contains(needle)).count();
            assert_eq!(count("link counters:"), 1, "`{row}`:\n{out}");
            assert_eq!(count("per-link counters"), 1, "`{row}`:\n{out}");
            assert_eq!(count("mux scheduling:"), 1, "`{row}`:\n{out}");
            let verdicts: Vec<&str> = out.lines().filter(|l| l.contains("holds:")).collect();
            assert!(!verdicts.is_empty(), "`{row}`:\n{out}");
            assert!(
                verdicts.iter().all(|l| l.contains("holds: true")),
                "`{row}`:\n{out}"
            );
        }
    }

    /// A flag value that does not parse is a usage error on every
    /// subcommand: exit 2, the flag and its value named, then the usage
    /// text — never a panic.
    fn assert_bad_value_exits_2(line: &str, named: &str) {
        let (out, code) = dispatch(&parse(line));
        assert_eq!(code, 2, "`{line}`:\n{out}");
        assert!(out.contains(named), "`{line}`:\n{out}");
        assert!(out.contains("USAGE"), "`{line}`:\n{out}");
    }

    #[test]
    fn idl_bad_value_exits_2() {
        assert_bad_value_exits_2("idl --n abc", "invalid --n `abc`");
        assert_bad_value_exits_2("idl --loss lots", "invalid --loss `lots`");
    }

    #[test]
    fn me_bad_value_exits_2() {
        assert_bad_value_exits_2("me --steps -1", "invalid --steps `-1`");
    }

    #[test]
    fn live_bad_value_exits_2() {
        assert_bad_value_exits_2("live --n abc", "invalid --n `abc`");
        assert_bad_value_exits_2("live --requests 2.5", "invalid --requests `2.5`");
        assert_bad_value_exits_2("live --app forward --buffer x", "invalid --buffer `x`");
    }

    #[test]
    fn impossibility_bad_value_exits_2() {
        assert_bad_value_exits_2(
            "impossibility --cs-duration many",
            "invalid --cs-duration `many`",
        );
    }

    #[test]
    fn dispatch_routes() {
        let (out, code) = dispatch(&parse("help"));
        assert!(out.contains("USAGE") && code == 0);
        let (out, code) = dispatch(&parse(""));
        assert!(out.contains("USAGE") && code == 0);
        let (out, code) = dispatch(&parse("--help"));
        assert!(out.contains("USAGE") && code == 0);
        let (out, code) = dispatch(&parse("bogus"));
        assert!(out.contains("unknown command") && code != 0);
    }

    #[test]
    fn usage_enumerates_every_subcommand() {
        for cmd in ["idl", "me", "live", "impossibility", "help"] {
            assert!(USAGE.contains(cmd), "usage must mention `{cmd}`");
        }
    }
}
