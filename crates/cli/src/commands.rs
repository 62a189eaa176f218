//! The CLI subcommands: run a protocol from a (optionally corrupted)
//! start and report what happened.

use snapstab_core::idl::IdlProcess;
use snapstab_core::me::{MeConfig, MeProcess, ValueMode};
use snapstab_core::request::RequestState;
use snapstab_core::spec::{analyze_me_trace, check_idl_result};
use snapstab_impossibility::DoubleWinDemo;
use snapstab_sim::{
    Capacity, CorruptionPlan, LossModel, NetworkBuilder, ProcessId, RandomScheduler, Runner, SimRng,
};

use crate::args::Args;

/// The usage text.
pub const USAGE: &str = "\
snapstab — explore the snap-stabilizing protocols of Delaet et al. (2008)

USAGE: snapstab <command> [options]

COMMANDS
  idl            one IDs-Learning computation (Algorithm 2, simulated)
  me             a mutual-exclusion workload (Algorithm 3, simulated)
  live           a service on the live runtime: one OS thread per
                 process over a concurrent lossy transport
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
                 --runtime {threads|mux} (default threads: one OS thread
                 per process; mux multiplexes the n protocol instances
                 over an event-driven worker pool, scaling to thousands
                 of instances; composes with --monitor — digests are
                 captured inside the same atomic per-instance step; not
                 with --shards/--batch/--queue-depth),
                 --workers <int> (default 4): mux worker-pool size,
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
                 counts, link counters) without pausing workers; prints
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

/// Runs the `idl` subcommand; returns the report text.
pub fn cmd_idl(args: &Args) -> String {
    let n: usize = args.get_or("n", 4);
    let seed: u64 = args.get_or("seed", 1);
    let loss: f64 = args.get_or("loss", 0.0);
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
    out
}

/// Runs the `me` subcommand; returns the report text.
pub fn cmd_me(args: &Args) -> String {
    let n: usize = args.get_or("n", 4);
    let seed: u64 = args.get_or("seed", 1);
    let loss: f64 = args.get_or("loss", 0.0);
    let steps: u64 = args.get_or("steps", 60_000);
    let requests: u32 = args.get_or("requests", 3);
    let cs_duration: u64 = args.get_or("cs-duration", 0);

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
    out
}

/// Runs the `live` subcommand: the mutual-exclusion service on the live
/// multi-threaded runtime. Returns the report text and an exit code —
/// non-zero when requests went unserved within the budget or (under
/// `--check`) the merged trace violates Specification 3, so scripts and
/// CI can gate on a live regression.
/// The flags shared by both `live` variants, parsed once so their
/// defaults cannot diverge.
struct LiveFlags {
    n: usize,
    seed: u64,
    loss: f64,
    jitter_ms: u64,
    requests: u64,
    cs_duration: u64,
    budget_secs: u64,
    check: bool,
    shards: usize,
    batch: usize,
    queue_depth: u64,
    transport: String,
    runtime: String,
    workers: usize,
}

impl LiveFlags {
    fn parse(args: &Args) -> Self {
        LiveFlags {
            n: args.get_or("n", 4),
            seed: args.get_or("seed", 1),
            loss: args.get_or("loss", 0.0),
            jitter_ms: args.get_or("jitter", 0),
            requests: args.get_or("requests", 50),
            cs_duration: args.get_or("cs-duration", 0),
            budget_secs: args.get_or("budget-secs", 60),
            check: args.has("check"),
            shards: args.get_or("shards", 1),
            batch: args.get_or("batch", 1),
            queue_depth: args.get_or("queue-depth", 0),
            transport: args.get_or("transport", "inmem".to_string()),
            runtime: args.get_or("runtime", "threads".to_string()),
            workers: args.get_or("workers", 4),
        }
    }
}

/// `--jitter MS` as the runtime's optional per-delivery delay (0 = off).
fn jitter(ms: u64) -> Option<std::time::Duration> {
    (ms > 0).then(|| std::time::Duration::from_millis(ms))
}

/// The valid `--transport` backends, listed in the exit-2 error message.
const TRANSPORTS: [&str; 2] = ["inmem", "udp"];

/// The valid `--app` workloads of the `live` subcommand, listed in the
/// exit-2 error message (same convention as `--transport`).
const APPS: [&str; 2] = ["mutex", "forward"];

/// The valid `--runtime` backends of the `live` subcommand, listed in
/// the exit-2 error message (same convention as `--transport`).
const RUNTIMES: [&str; 2] = ["threads", "mux"];

/// Validates `--runtime` plus its `--workers` pool size, or an exit-2
/// usage error matching the `--transport` precedent. Returns `true`
/// when the event-driven mux backend was selected.
fn parse_runtime(name: &str, workers: usize) -> Result<bool, (String, i32)> {
    match name {
        "threads" => Ok(false),
        "mux" if workers == 0 => Err((
            format!("invalid --workers 0: the mux pool needs at least one worker\n\n{USAGE}"),
            2,
        )),
        "mux" => Ok(true),
        other => Err((
            format!(
                "unknown --runtime `{other}`: valid values are {}\n\n{USAGE}",
                RUNTIMES.join(", ")
            ),
            2,
        )),
    }
}

/// Validates `--app`, or an exit-2 usage error matching the
/// `--transport` precedent.
fn parse_app(name: &str) -> Result<&str, (String, i32)> {
    if APPS.contains(&name) {
        Ok(name)
    } else {
        Err((
            format!(
                "unknown --app `{name}`: valid values are {}\n\n{USAGE}",
                APPS.join(", ")
            ),
            2,
        ))
    }
}

/// Resolves `--chaos` to a fault-mix profile: `Ok(None)` when absent, an
/// exit-2 usage error listing the valid set for an unknown (or missing)
/// profile — the same contract as `parse_transport` / `--app`.
fn parse_chaos(args: &Args) -> Result<Option<snapstab_runtime::ChaosMix>, (String, i32)> {
    use snapstab_runtime::ChaosMix;
    let raw = args.get_or("chaos", String::new());
    if raw.is_empty() {
        if args.has("chaos") {
            return Err((
                format!(
                    "missing --chaos profile: valid values are {}\n\n{USAGE}",
                    ChaosMix::NAMES.join(", ")
                ),
                2,
            ));
        }
        return Ok(None);
    }
    match ChaosMix::parse(&raw) {
        Some(mix) => Ok(Some(mix)),
        None => Err((
            format!(
                "unknown --chaos `{raw}`: valid values are {}\n\n{USAGE}",
                ChaosMix::NAMES.join(", ")
            ),
            2,
        )),
    }
}

/// Resolves `--monitor` / `--monitor-interval` to a monitor
/// configuration: `Ok(None)` when monitoring is off, an exit-2 usage
/// error for an invalid interval (zero or non-numeric), listing the
/// valid input — the same contract as `parse_transport`. Passing
/// `--monitor-interval` alone implies `--monitor` (never silently
/// ignored, the `--queue-depth` precedent).
fn parse_monitor(
    args: &Args,
    n: usize,
) -> Result<Option<snapstab_runtime::MonitorConfig>, (String, i32)> {
    let raw = args.get_raw("monitor-interval");
    let raw_initiators = args.get_raw("initiators");
    let raw_streak = args.get_raw("alert-refusal-streak");
    let monitoring = args.has("monitor")
        || raw.is_some()
        || raw_initiators.is_some()
        || args.has("initiators")
        || raw_streak.is_some()
        || args.has("alert-refusal-streak")
        || args.has("metrics-out")
        || args.get_raw("metrics-out").is_some();
    if !monitoring {
        return Ok(None);
    }
    let interval_ms = match raw {
        None => 100,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) if ms > 0 => ms,
            _ => {
                return Err((
                    format!(
                        "invalid --monitor-interval `{raw}`: valid values are \
                         positive integers (milliseconds between cuts)\n\n{USAGE}"
                    ),
                    2,
                ))
            }
        },
    };
    let initiators = match raw_initiators {
        None if args.has("initiators") => {
            return Err((
                format!(
                    "missing --initiators count: valid values are integers \
                     in 1..=n (concurrent snapshot initiators)\n\n{USAGE}"
                ),
                2,
            ))
        }
        None => 1,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k >= 1 && k <= n => k,
            _ => {
                return Err((
                    format!(
                        "invalid --initiators `{raw}`: valid values are \
                         integers in 1..=n (here 1..={n}, concurrent \
                         snapshot initiators)\n\n{USAGE}"
                    ),
                    2,
                ))
            }
        },
    };
    let refusal_streak = match raw_streak {
        None if args.has("alert-refusal-streak") => {
            return Err((
                format!(
                    "missing --alert-refusal-streak threshold: valid values \
                     are positive integers (consecutive refusals on one \
                     ledger before the alert fires)\n\n{USAGE}"
                ),
                2,
            ))
        }
        None => snapstab_runtime::AlertConfig::default().refusal_streak,
        Some(raw) => match raw.parse::<u64>() {
            Ok(k) if k >= 1 => k,
            _ => {
                return Err((
                    format!(
                        "invalid --alert-refusal-streak `{raw}`: valid values \
                         are positive integers (consecutive refusals on one \
                         ledger before the alert fires)\n\n{USAGE}"
                    ),
                    2,
                ))
            }
        },
    };
    Ok(Some(snapstab_runtime::MonitorConfig {
        interval: std::time::Duration::from_millis(interval_ms),
        initiators,
        alerts: snapstab_runtime::AlertConfig {
            refusal_streak,
            ..snapstab_runtime::AlertConfig::default()
        },
    }))
}

/// Where `--metrics-out` streams the telemetry JSON lines: inline with
/// the report (`-`) or appended to a file.
enum MetricsOut {
    Inline,
    File(std::path::PathBuf),
}

/// Resolves `--metrics-out` (implies `--monitor`): `-` streams the
/// schema-stable JSON lines inline with the report, any other value is
/// a file path. A bare switch is an exit-2 usage error listing the
/// valid form (the `parse_transport` precedent).
fn parse_metrics_out(args: &Args) -> Result<Option<MetricsOut>, (String, i32)> {
    if let Some(raw) = args.get_raw("metrics-out") {
        if raw == "-" {
            return Ok(Some(MetricsOut::Inline));
        }
        return Ok(Some(MetricsOut::File(std::path::PathBuf::from(raw))));
    }
    if args.has("metrics-out") {
        return Err((
            format!(
                "missing --metrics-out target: valid values are a file \
                 path, or `-` to stream the JSON lines inline with the \
                 report\n\n{USAGE}"
            ),
            2,
        ));
    }
    Ok(None)
}

/// Delivers the collected telemetry JSON lines to the `--metrics-out`
/// target: appended verbatim to the report for `-`, written to the file
/// otherwise (noted in the report either way).
fn deliver_metrics(out: &mut String, target: &MetricsOut, lines: &[String]) -> Option<i32> {
    match target {
        MetricsOut::Inline => {
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
            None
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
                    None
                }
                Err(e) => {
                    out.push_str(&format!(
                        "telemetry: failed to write {}: {e}\n",
                        path.display()
                    ));
                    Some(1)
                }
            }
        }
    }
}

/// The per-link half of the counter report: one row per directed link,
/// identical for every transport backend (the in-memory matrix and the
/// UDP loopback expose the same [`snapstab_runtime::LinkSample`]s).
/// Zero-activity links are elided to keep the table proportional to the
/// traffic, not to n².
fn per_link_table(samples: &[snapstab_runtime::LinkSample]) -> String {
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
fn link_counters_line(links: &snapstab_runtime::LinkStats) -> String {
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

/// The chaos summary and recovery quantiles of a run's
/// [`ChaosReport`](snapstab_runtime::ChaosReport).
/// The mux pool's scheduling counters: how many deliveries a quantum
/// batches and how many `Condvar` notifies (futex syscalls) a served
/// request cost.
fn mux_scheduling_line(stats: &snapstab_runtime::LiveStats, served: u64) -> String {
    format!(
        "mux scheduling: {} quanta, {:.2} deliveries per quantum; {} wake-up \
         syscall(s), {:.2} per served request\n",
        stats.quanta,
        stats.deliveries as f64 / stats.quanta.max(1) as f64,
        stats.wakeups,
        stats.wakeups as f64 / served.max(1) as f64,
    )
}

fn chaos_summary(mix: snapstab_runtime::ChaosMix, c: &snapstab_runtime::ChaosReport) -> String {
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
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
        ));
    }
    out
}

/// The `--transport` backend of a `live` run. An enum rather than a boxed
/// [`Transport`](snapstab_runtime::Transport), because the report reads
/// the UDP backend's frame counters after the run.
enum Backend {
    InMem(snapstab_runtime::InMemory),
    Udp(snapstab_net::UdpLoopback),
}

impl Backend {
    fn transport<M: snapstab_net::Wire + Send + 'static>(
        &self,
    ) -> &dyn snapstab_runtime::Transport<M> {
        match self {
            Backend::InMem(t) => t,
            Backend::Udp(t) => t,
        }
    }

    /// The UDP transport's frame counters — how many records shared a
    /// `send_to`, and every way a frame or record was lost outside the
    /// link counters. Empty for the in-memory transport.
    fn framing_line(&self) -> String {
        let Backend::Udp(udp) = self else {
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

/// Resolves `--transport` to a backend object, or an exit-2 usage error
/// (matching the unknown-subcommand convention).
fn parse_transport(name: &str) -> Result<Backend, (String, i32)> {
    match name {
        "inmem" => Ok(Backend::InMem(snapstab_runtime::InMemory)),
        "udp" => Ok(Backend::Udp(snapstab_net::UdpLoopback::new())),
        other => Err((
            format!(
                "unknown --transport `{other}`: valid values are {}\n\n{USAGE}",
                TRANSPORTS.join(", ")
            ),
            2,
        )),
    }
}

pub fn cmd_live(args: &Args) -> (String, i32) {
    use snapstab_runtime::{LiveConfig, MutexServiceConfig};
    match parse_app(&args.get_or("app", "mutex".to_string())) {
        Ok("forward") => return cmd_live_forward(args),
        Ok(_) => {}
        Err(err) => return err,
    }
    let LiveFlags {
        n,
        seed,
        loss,
        jitter_ms,
        requests,
        cs_duration,
        budget_secs,
        check,
        shards,
        batch,
        queue_depth,
        transport,
        runtime,
        workers,
    } = LiveFlags::parse(args);
    let mux = match parse_runtime(&runtime, workers) {
        Ok(m) => m,
        Err(err) => return err,
    };
    let chaos = match parse_chaos(args) {
        Ok(c) => c,
        Err(err) => return err,
    };
    let monitor = match parse_monitor(args, n) {
        Ok(m) => m,
        Err(err) => return err,
    };
    let metrics_out = match parse_metrics_out(args) {
        Ok(m) => m,
        Err(err) => return err,
    };
    // --queue-depth sizes per-shard client queues, so (like --shards and
    // --batch) it selects the sharded service — a 1-shard, batch-1
    // sharded run degenerates to the plain service, and the flag is
    // never silently ignored.
    if shards > 1 || batch > 1 || queue_depth > 0 {
        if chaos.is_some() {
            return (
                format!(
                    "--chaos is not supported with the sharded service \
                     (--shards/--batch/--queue-depth)\n\n{USAGE}"
                ),
                2,
            );
        }
        if monitor.is_some() {
            return (
                format!(
                    "--monitor is not supported with the sharded service \
                     (--shards/--batch/--queue-depth)\n\n{USAGE}"
                ),
                2,
            );
        }
        if mux {
            return (
                format!(
                    "--runtime mux is not supported with the sharded service \
                     (--shards/--batch/--queue-depth)\n\n{USAGE}"
                ),
                2,
            );
        }
        return cmd_live_sharded(args);
    }
    if let Some(mon) = monitor {
        let mux_workers = mux.then_some(workers);
        return cmd_live_monitored_mutex(args, &mon, chaos, mux_workers, metrics_out);
    }
    let backend = match parse_transport(&transport) {
        Ok(b) => b,
        Err(err) => return err,
    };

    let cfg = MutexServiceConfig {
        n,
        requests_per_process: requests,
        cs_duration,
        live: LiveConfig {
            loss,
            seed,
            jitter: jitter(jitter_ms),
            // --chaos implies recording: the epoch verdicts need the
            // merged trace.
            record_trace: check || chaos.is_some(),
            ..LiveConfig::default()
        },
        time_budget: std::time::Duration::from_secs(budget_secs),
    };
    let runtime_desc = if mux {
        format!("n={n} instances on {workers} mux worker(s)")
    } else {
        format!("n={n} worker threads")
    };
    let mut out = format!(
        "Live mutex service: {runtime_desc} ({transport} transport), \
         loss={loss}, {requests} request(s) per process, budget {budget_secs}s\n"
    );
    let plan = chaos.map(|mix| snapstab_runtime::ChaosPlan::profile(mix, seed));
    let (report, chaos_report) = match (&plan, mux) {
        (Some(p), false) => {
            match snapstab_runtime::run_mutex_service_chaos_on(&cfg, backend.transport(), p) {
                Ok((report, c)) => (report, Some(c)),
                Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
            }
        }
        (Some(p), true) => {
            match snapstab_runtime::run_mutex_service_chaos_mux_on(
                &cfg,
                workers,
                backend.transport(),
                p,
            ) {
                Ok((report, c)) => (report, Some(c)),
                Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
            }
        }
        (None, false) => match snapstab_runtime::run_mutex_service_on(&cfg, backend.transport()) {
            Ok(report) => (report, None),
            Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
        },
        (None, true) => {
            match snapstab_runtime::run_mutex_service_mux_on(&cfg, workers, backend.transport()) {
                Ok(report) => (report, None),
                Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
            }
        }
    };
    // Compare against the *requested* total, not `report.injected`: the
    // drivers inject lazily, so a budget-capped run has injected ≈ served
    // and would otherwise read (and exit) as complete.
    let total = requests * n as u64;
    out.push_str(&format!(
        "served {}/{} requests in {:.2}s: {:.0} req/s, {:.0} CS/s, {:.0} msgs/s\n",
        report.served,
        total,
        report.wall.as_secs_f64(),
        report.requests_per_sec(),
        report.cs_per_sec(),
        report.msgs_per_sec(),
    ));
    out.push_str(&link_counters_line(&report.stats.links));
    if mux {
        out.push_str(&mux_scheduling_line(&report.stats, report.served));
    }
    out.push_str(&backend.framing_line());
    out.push_str(&per_link_table(&report.link_samples));
    if let (Some(mix), Some(c)) = (chaos, &chaos_report) {
        out.push_str(&chaos_summary(mix, c));
    }
    if let Some((min, mean, max)) = report.latency_min_mean_max() {
        out.push_str(&format!(
            "service latency: min {:.2} / mean {:.2} / max {:.2} ms\n",
            min.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        ));
    }
    let mut failed = report.served < total;
    if let Some(trace) = &report.trace {
        if let Some(c) = &chaos_report {
            let epochs = snapstab_core::spec::analyze_me_epochs(trace, n, &c.fault_steps);
            out.push_str(&format!(
                "spec 3 per epoch: {} epoch(s), {} served, {} interrupted at \
                 fault boundaries, {} forged fault mark(s); holds: {}\n",
                epochs.epochs_checked(),
                epochs.served_total(),
                epochs.interrupted_total(),
                epochs.forged_marks.len(),
                epochs.holds(),
            ));
            failed |= !epochs.holds();
        } else {
            let spec = analyze_me_trace(trace, n);
            out.push_str(&format!(
                "spec 3 on the merged live trace: genuine CS overlaps: {}; \
                 spurious: {}; exclusivity holds: {}\n",
                spec.genuine_overlaps.len(),
                spec.spurious_overlaps.len(),
                spec.exclusivity_holds(),
            ));
            failed |= !spec.exclusivity_holds();
        }
    }
    if args.has("trace") {
        for (i, lat) in report.latencies.iter().take(20).enumerate() {
            out.push_str(&format!(
                "  request {i}: {:.2} ms\n",
                lat.as_secs_f64() * 1e3
            ));
        }
    }
    (out, i32::from(failed))
}

/// Renders the streamed per-cut summary lines (bounded) into the report.
fn cut_summary_lines(out: &mut String, cut_lines: &[String]) {
    const SHOWN: usize = 20;
    for line in cut_lines.iter().take(SHOWN) {
        out.push_str(line);
    }
    if cut_lines.len() > SHOWN {
        out.push_str(&format!(
            "  ... {} more cut(s) elided\n",
            cut_lines.len() - SHOWN
        ));
    }
}

/// The Specification 5 verdict line for a monitored run's merged trace.
fn spec5_line(spec: &snapstab_core::spec::SnapshotReport) -> String {
    format!(
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
    )
}

/// The final machine-readable metrics block of a monitored run — the
/// same schema-stable summary line the telemetry stream ends with
/// (`snapstab_runtime::summary_json_line`), so the ad-hoc CLI block and
/// `--metrics-out` cannot drift apart.
fn monitor_metrics_json(
    mon: &snapstab_runtime::MonitorConfig,
    m: &snapstab_runtime::MonitorReport,
    work_per_sec: f64,
) -> String {
    format!(
        "monitor metrics: {}\n",
        snapstab_runtime::summary_json_line(mon.interval, m, work_per_sec)
    )
}

/// Renders the alerts a monitored run raised (bounded), matching the
/// `alert:` marks recorded in the merged trace.
fn alert_lines(out: &mut String, alerts: &[snapstab_runtime::Alert]) {
    if alerts.is_empty() {
        return;
    }
    const SHOWN: usize = 10;
    out.push_str(&format!("alerts: {} raised\n", alerts.len()));
    for a in alerts.iter().take(SHOWN) {
        out.push_str(&format!("  {}\n", a.mark()));
    }
    if alerts.len() > SHOWN {
        out.push_str(&format!(
            "  ... {} more alert(s) elided\n",
            alerts.len() - SHOWN
        ));
    }
}

/// Describes the runtime a monitored service runs on (header line).
fn monitored_runtime_desc(n: usize, mux_workers: Option<usize>) -> String {
    match mux_workers {
        Some(w) => format!("n={n} instances on {w} mux worker(s)"),
        None => format!("n={n} worker threads"),
    }
}

/// The monitored variant of the mutex `live` subcommand (`--monitor`):
/// the mutual-exclusion service composed with a snap-stabilizing
/// snapshot monitor on the same transport. Streams one summary line per
/// decided cut, appends a JSON metrics block, and — when the trace is
/// recorded — judges the cuts by Specification 5 and the projected
/// service trace by Specification 3 (per fault epoch under `--chaos`).
fn cmd_live_monitored_mutex(
    args: &Args,
    mon: &snapstab_runtime::MonitorConfig,
    chaos: Option<snapstab_runtime::ChaosMix>,
    mux_workers: Option<usize>,
    metrics_out: Option<MetricsOut>,
) -> (String, i32) {
    use snapstab_core::spec::analyze_snapshot_trace;
    use snapstab_runtime::{LiveConfig, MutexServiceConfig};
    let LiveFlags {
        n,
        seed,
        loss,
        jitter_ms,
        requests,
        cs_duration,
        budget_secs,
        check,
        transport,
        ..
    } = LiveFlags::parse(args);
    let backend = match parse_transport(&transport) {
        Ok(b) => b,
        Err(err) => return err,
    };
    let cfg = MutexServiceConfig {
        n,
        requests_per_process: requests,
        cs_duration,
        live: LiveConfig {
            loss,
            seed,
            jitter: jitter(jitter_ms),
            record_trace: check || chaos.is_some(),
            ..LiveConfig::default()
        },
        time_budget: std::time::Duration::from_secs(budget_secs),
    };
    let mut out = format!(
        "Live monitored mutex service: {} ({transport} transport), \
         loss={loss}, {requests} request(s) per process, {} initiator(s), \
         cut interval {}ms, budget {budget_secs}s\n",
        monitored_runtime_desc(n, mux_workers),
        mon.initiators,
        mon.interval.as_millis(),
    );
    let plan = chaos.map(|mix| snapstab_runtime::ChaosPlan::profile(mix, seed));
    let mut cut_lines: Vec<String> = Vec::new();
    let mut series = snapstab_runtime::Series::default();
    let mut metrics_lines: Vec<String> = Vec::new();
    let mut on_cut = |cut: &snapstab_runtime::LiveCut| {
        cut_lines.push(format!(
            "  cut #{} (initiator {}) @step {}: served {}, queued {}, \
             {} in transit, staleness {:.2} ms\n",
            cut.cut,
            cut.initiator.index(),
            cut.step,
            cut.served_total(),
            cut.queue_total(),
            cut.in_transit_total(),
            cut.staleness.as_secs_f64() * 1e3,
        ));
        metrics_lines.push(series.observe(cut).json_line());
    };
    let run = match mux_workers {
        Some(workers) => snapstab_runtime::run_monitored_mutex_service_mux_with(
            &cfg,
            mon,
            workers,
            backend.transport(),
            plan.as_ref(),
            Some(&mut on_cut),
        ),
        None => snapstab_runtime::run_monitored_mutex_service_with(
            &cfg,
            mon,
            backend.transport(),
            plan.as_ref(),
            Some(&mut on_cut),
        ),
    };
    let (report, chaos_report) = match run {
        Ok(r) => r,
        Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
    };
    let total = requests * n as u64;
    out.push_str(&format!(
        "served {}/{} requests in {:.2}s: {:.0} req/s; {} cut(s) decided \
         ({:.1} cuts/s), {} refused\n",
        report.served,
        total,
        report.wall.as_secs_f64(),
        report.requests_per_sec(),
        report.monitor.cuts.len(),
        report.monitor.cuts_per_sec(),
        report.monitor.refused,
    ));
    cut_summary_lines(&mut out, &cut_lines);
    if mon.initiators > 1 {
        for s in report.monitor.per_initiator() {
            out.push_str(&format!(
                "  initiator {}: {} cut(s) ({:.1} cuts/s), {} refused\n",
                s.initiator.index(),
                s.cuts,
                report.monitor.cuts_per_sec_of(s.initiator),
                s.refused,
            ));
        }
    }
    alert_lines(&mut out, &report.monitor.alerts);
    out.push_str(&link_counters_line(&report.stats.links));
    if mux_workers.is_some() {
        out.push_str(&mux_scheduling_line(&report.stats, report.served));
    }
    out.push_str(&backend.framing_line());
    out.push_str(&per_link_table(&report.link_samples));
    if let (Some(mix), Some(c)) = (chaos, &chaos_report) {
        out.push_str(&chaos_summary(mix, c));
    }
    if let Some([p50, p99]) = report
        .latency_quantiles(&[0.5, 0.99])
        .map(|v| <[_; 2]>::try_from(v).expect("two quantiles"))
    {
        out.push_str(&format!(
            "service latency: p50 {:.2} / p99 {:.2} ms\n",
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
        ));
    }
    let mut failed = report.served < total;
    if let Some(trace) = &report.trace {
        let faults: Vec<u64> = chaos_report
            .as_ref()
            .map(|c| c.fault_steps.clone())
            .unwrap_or_default();
        let spec5 = analyze_snapshot_trace(trace, n, &faults);
        out.push_str(&spec5_line(&spec5));
        failed |= !spec5.holds();
        let service = snapstab_runtime::project_service_trace(trace);
        if let Some(c) = &chaos_report {
            let epochs = snapstab_core::spec::analyze_me_epochs(&service, n, &c.fault_steps);
            out.push_str(&format!(
                "spec 3 per epoch (projected service trace): {} epoch(s), \
                 {} served, {} interrupted; holds: {}\n",
                epochs.epochs_checked(),
                epochs.served_total(),
                epochs.interrupted_total(),
                epochs.holds(),
            ));
            failed |= !epochs.holds();
        } else {
            let spec = analyze_me_trace(&service, n);
            out.push_str(&format!(
                "spec 3 on the projected service trace: genuine CS overlaps: \
                 {}; exclusivity holds: {}\n",
                spec.genuine_overlaps.len(),
                spec.exclusivity_holds(),
            ));
            failed |= !spec.exclusivity_holds();
        }
    }
    if let Some(target) = &metrics_out {
        for a in &report.monitor.alerts {
            metrics_lines.push(a.json_line());
        }
        metrics_lines.push(snapstab_runtime::summary_json_line(
            mon.interval,
            &report.monitor,
            report.requests_per_sec(),
        ));
        failed |= deliver_metrics(&mut out, target, &metrics_lines).is_some();
    }
    out.push_str(&monitor_metrics_json(
        mon,
        &report.monitor,
        report.requests_per_sec(),
    ));
    (out, i32::from(failed))
}

/// The monitored variant of the forwarding `live` subcommand
/// (`--app forward --monitor`), mirroring [`cmd_live_monitored_mutex`]
/// with Specification 4 judging the projected service trace.
fn cmd_live_monitored_forward(
    args: &Args,
    mon: &snapstab_runtime::MonitorConfig,
    chaos: Option<snapstab_runtime::ChaosMix>,
    mux_workers: Option<usize>,
    metrics_out: Option<MetricsOut>,
) -> (String, i32) {
    use snapstab_core::spec::analyze_snapshot_trace;
    use snapstab_runtime::{ForwardingServiceConfig, LiveConfig};
    let LiveFlags {
        n,
        seed,
        loss,
        jitter_ms,
        requests: payloads,
        budget_secs,
        check,
        transport,
        ..
    } = LiveFlags::parse(args);
    let buffer_cap: usize = args.get_or("buffer", 4);
    if buffer_cap == 0 {
        return (
            format!("invalid --buffer 0: lanes need at least one slot\n\n{USAGE}"),
            2,
        );
    }
    let stale = args.has("stale");
    let backend = match parse_transport(&transport) {
        Ok(b) => b,
        Err(err) => return err,
    };
    let cfg = ForwardingServiceConfig {
        n,
        payloads_per_process: payloads,
        buffer_cap,
        prefill_stale: stale,
        live: LiveConfig {
            loss,
            seed,
            jitter: jitter(jitter_ms),
            record_trace: check || chaos.is_some(),
            ..LiveConfig::default()
        },
        time_budget: std::time::Duration::from_secs(budget_secs),
    };
    let mut out = format!(
        "Live monitored forwarding service: {} ({transport} \
         transport), loss={loss}, {payloads} payload(s) per process, {} \
         initiator(s), cut interval {}ms, budget {budget_secs}s\n",
        monitored_runtime_desc(n, mux_workers),
        mon.initiators,
        mon.interval.as_millis(),
    );
    let plan = chaos.map(|mix| snapstab_runtime::ChaosPlan::profile(mix, seed));
    let mut cut_lines: Vec<String> = Vec::new();
    let mut series = snapstab_runtime::Series::default();
    let mut metrics_lines: Vec<String> = Vec::new();
    let mut on_cut = |cut: &snapstab_runtime::LiveCut| {
        cut_lines.push(format!(
            "  cut #{} (initiator {}) @step {}: collected {}, queued {}, \
             buffered {}, {} in transit, staleness {:.2} ms\n",
            cut.cut,
            cut.initiator.index(),
            cut.step,
            cut.served_total(),
            cut.queue_total(),
            cut.values
                .iter()
                .map(|v| u64::from(v.in_flight))
                .sum::<u64>(),
            cut.in_transit_total(),
            cut.staleness.as_secs_f64() * 1e3,
        ));
        metrics_lines.push(series.observe(cut).json_line());
    };
    let run = match mux_workers {
        Some(workers) => snapstab_runtime::run_monitored_forwarding_service_mux_with(
            &cfg,
            mon,
            workers,
            backend.transport(),
            plan.as_ref(),
            Some(&mut on_cut),
        ),
        None => snapstab_runtime::run_monitored_forwarding_service_with(
            &cfg,
            mon,
            backend.transport(),
            plan.as_ref(),
            Some(&mut on_cut),
        ),
    };
    let (report, chaos_report) = match run {
        Ok(r) => r,
        Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
    };
    let total = payloads * n as u64;
    out.push_str(&format!(
        "delivered {}/{} payloads in {:.2}s: {:.0} payloads/s, {} spurious \
         stale flush(es); {} cut(s) decided ({:.1} cuts/s), {} refused\n",
        report.delivered,
        total,
        report.wall.as_secs_f64(),
        report.payloads_per_sec(),
        report.spurious,
        report.monitor.cuts.len(),
        report.monitor.cuts_per_sec(),
        report.monitor.refused,
    ));
    cut_summary_lines(&mut out, &cut_lines);
    if mon.initiators > 1 {
        for s in report.monitor.per_initiator() {
            out.push_str(&format!(
                "  initiator {}: {} cut(s) ({:.1} cuts/s), {} refused\n",
                s.initiator.index(),
                s.cuts,
                report.monitor.cuts_per_sec_of(s.initiator),
                s.refused,
            ));
        }
    }
    alert_lines(&mut out, &report.monitor.alerts);
    out.push_str(&link_counters_line(&report.stats.links));
    if mux_workers.is_some() {
        out.push_str(&mux_scheduling_line(&report.stats, report.delivered));
    }
    out.push_str(&backend.framing_line());
    out.push_str(&per_link_table(&report.link_samples));
    if let (Some(mix), Some(c)) = (chaos, &chaos_report) {
        out.push_str(&chaos_summary(mix, c));
    }
    // Chaos may destroy in-flight payloads; the epoch verdict is then the
    // pass/fail signal (matching the unmonitored forwarding path).
    let mut failed = chaos_report.is_none() && report.delivered < total;
    if let Some(trace) = &report.trace {
        let faults: Vec<u64> = chaos_report
            .as_ref()
            .map(|c| c.fault_steps.clone())
            .unwrap_or_default();
        let spec5 = analyze_snapshot_trace(trace, n, &faults);
        out.push_str(&spec5_line(&spec5));
        failed |= !spec5.holds();
        let service = snapstab_runtime::project_service_trace(trace);
        if let Some(c) = &chaos_report {
            let epochs =
                snapstab_core::spec::analyze_forwarding_epochs(&service, n, &c.fault_steps);
            out.push_str(&format!(
                "spec 4 per epoch (projected service trace): {} epoch(s), \
                 {} delivered, {} interrupted; holds: {}\n",
                epochs.epochs_checked(),
                epochs.delivered_total(),
                epochs.interrupted_total(),
                epochs.holds(),
            ));
            failed |= !epochs.holds();
        } else {
            let spec = snapstab_core::spec::analyze_forwarding_trace(&service, n);
            out.push_str(&format!(
                "spec 4 on the projected service trace: lost: {}; duplicated \
                 ids: {}; corrupt deliveries: {}; holds: {}\n",
                spec.lost.len(),
                spec.duplicate_ids.len(),
                spec.corrupt_deliveries.len(),
                spec.holds(),
            ));
            failed |= !spec.holds();
        }
    }
    if let Some(target) = &metrics_out {
        for a in &report.monitor.alerts {
            metrics_lines.push(a.json_line());
        }
        metrics_lines.push(snapstab_runtime::summary_json_line(
            mon.interval,
            &report.monitor,
            report.payloads_per_sec(),
        ));
        failed |= deliver_metrics(&mut out, target, &metrics_lines).is_some();
    }
    out.push_str(&monitor_metrics_json(
        mon,
        &report.monitor,
        report.payloads_per_sec(),
    ));
    (out, i32::from(failed))
}

/// The sharded variant of the `live` subcommand: S independent leaders
/// over hash-partitioned resource keys, batched grants, grant-log audit —
/// and, under `--check`, per-shard Specification 3 on the merged trace.
fn cmd_live_sharded(args: &Args) -> (String, i32) {
    use snapstab_core::shard::project_shard_trace;
    use snapstab_runtime::{LiveConfig, ShardedServiceConfig};
    let LiveFlags {
        n,
        seed,
        loss,
        jitter_ms,
        requests,
        cs_duration,
        budget_secs,
        check,
        shards,
        batch,
        queue_depth,
        transport,
        ..
    } = LiveFlags::parse(args);
    let key_space: u64 = args.get_or("key-space", 1 << 16);
    let backend = match parse_transport(&transport) {
        Ok(b) => b,
        Err(err) => return err,
    };

    let cfg = ShardedServiceConfig {
        n,
        shards,
        batch,
        requests_per_process: requests,
        key_space,
        cs_duration,
        live: LiveConfig {
            loss,
            seed,
            jitter: jitter(jitter_ms),
            record_trace: check,
            ..LiveConfig::default()
        },
        time_budget: std::time::Duration::from_secs(budget_secs),
    };
    // --queue-depth D sizes the workload by target per-shard queue depth
    // instead of --requests.
    let cfg = if queue_depth > 0 {
        cfg.with_queue_depth(queue_depth)
    } else {
        cfg
    };
    let workload = if queue_depth > 0 {
        format!("queue depth {queue_depth} per shard")
    } else {
        format!("{requests} request(s) per process")
    };
    let mut out = format!(
        "Live sharded mutex service: n={n} worker threads ({transport} \
         transport), {shards} shard(s) (one leader each), batch≤{batch}, \
         loss={loss}, {workload}, budget {budget_secs}s\n"
    );
    let report = match snapstab_runtime::run_sharded_service_on(&cfg, backend.transport()) {
        Ok(report) => report,
        Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
    };
    out.push_str(&format!(
        "served {}/{} requests in {:.2}s: {:.0} req/s over {} grants \
         ({:.0} grants/s, {:.2} requests per grant), {:.0} msgs/s\n",
        report.served,
        report.injected.len(),
        report.wall.as_secs_f64(),
        report.requests_per_sec(),
        report.grant_log.len(),
        report.grants_per_sec(),
        report.mean_batch(),
        report.msgs_per_sec(),
    ));
    out.push_str(&link_counters_line(&report.stats.links));
    out.push_str(&backend.framing_line());
    for (s, served) in report.per_shard_served.iter().enumerate() {
        out.push_str(&format!("  shard {s}: {served} request(s) served\n"));
    }
    if let (Some((min, mean, max)), Some([p50, p99])) = (
        report.latency_min_mean_max(),
        report
            .latency_quantiles(&[0.5, 0.99])
            .map(|v| <[_; 2]>::try_from(v).expect("two quantiles")),
    ) {
        out.push_str(&format!(
            "service latency: min {:.2} / mean {:.2} / p50 {:.2} / p99 {:.2} / max {:.2} ms\n",
            min.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        ));
    }
    let audit = report.audit();
    out.push_str(&format!(
        "grant-log audit: conflict-free batches: {}; routing respected: {}; \
         served exactly once: {}\n",
        audit.conflicting_grants.is_empty(),
        audit.misrouted_grants.is_empty(),
        audit.unserved_ids.is_empty()
            && audit.duplicate_ids.is_empty()
            && audit.unknown_ids.is_empty(),
    ));
    let mut failed = (report.served as usize) < report.injected.len() || !audit.holds();
    if let Some(trace) = &report.trace {
        for s in 0..shards {
            let spec = analyze_me_trace(&project_shard_trace(trace, s), n);
            out.push_str(&format!(
                "spec 3 on shard {s}'s projected trace: genuine CS overlaps: {}; \
                 exclusivity holds: {}\n",
                spec.genuine_overlaps.len(),
                spec.exclusivity_holds(),
            ));
            failed |= !spec.exclusivity_holds();
        }
    }
    (out, i32::from(failed))
}

/// The forwarding variant of the `live` subcommand
/// (`--app forward`): the snap-stabilizing message-forwarding service —
/// payload delivery under loss and (with `--stale`) adversarially
/// pre-filled buffers — judged, under `--check`, by executable
/// Specification 4 on the merged trace.
fn cmd_live_forward(args: &Args) -> (String, i32) {
    use snapstab_core::spec::analyze_forwarding_trace;
    use snapstab_runtime::{ForwardingServiceConfig, LiveConfig};
    // The shared flags come from the same parse as the mutex variants,
    // so their defaults cannot diverge; `--requests` doubles as the
    // per-process payload count.
    let LiveFlags {
        n,
        seed,
        loss,
        jitter_ms,
        requests: payloads,
        budget_secs,
        check,
        transport,
        runtime,
        workers,
        ..
    } = LiveFlags::parse(args);
    let mux = match parse_runtime(&runtime, workers) {
        Ok(m) => m,
        Err(err) => return err,
    };
    let buffer_cap: usize = args.get_or("buffer", 4);
    if buffer_cap == 0 {
        return (
            format!("invalid --buffer 0: lanes need at least one slot\n\n{USAGE}"),
            2,
        );
    }
    let stale = args.has("stale");
    let chaos = match parse_chaos(args) {
        Ok(c) => c,
        Err(err) => return err,
    };
    match parse_monitor(args, n) {
        Ok(Some(mon)) => {
            let metrics_out = match parse_metrics_out(args) {
                Ok(m) => m,
                Err(err) => return err,
            };
            let mux_workers = mux.then_some(workers);
            return cmd_live_monitored_forward(args, &mon, chaos, mux_workers, metrics_out);
        }
        Ok(None) => {}
        Err(err) => return err,
    }
    let backend = match parse_transport(&transport) {
        Ok(b) => b,
        Err(err) => return err,
    };

    let cfg = ForwardingServiceConfig {
        n,
        payloads_per_process: payloads,
        buffer_cap,
        prefill_stale: stale,
        live: LiveConfig {
            loss,
            seed,
            jitter: jitter(jitter_ms),
            // --chaos implies recording: the epoch verdicts need the
            // merged trace.
            record_trace: check || chaos.is_some(),
            ..LiveConfig::default()
        },
        time_budget: std::time::Duration::from_secs(budget_secs),
    };
    let runtime_desc = if mux {
        format!("n={n} instances on {workers} mux worker(s)")
    } else {
        format!("n={n} worker threads")
    };
    let mut out = format!(
        "Live forwarding service: {runtime_desc} ({transport} transport), \
         loss={loss}, {payloads} payload(s) per process, buffer cap {buffer_cap}\
         {}, budget {budget_secs}s\n",
        if stale {
            ", stale-pre-filled buffers"
        } else {
            ""
        }
    );
    let plan = chaos.map(|mix| snapstab_runtime::ChaosPlan::profile(mix, seed));
    let (report, chaos_report) = match (&plan, mux) {
        (Some(p), false) => {
            match snapstab_runtime::run_forwarding_service_chaos_on(&cfg, backend.transport(), p) {
                Ok((report, c)) => (report, Some(c)),
                Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
            }
        }
        (Some(p), true) => match snapstab_runtime::run_forwarding_service_chaos_mux_on(
            &cfg,
            workers,
            backend.transport(),
            p,
        ) {
            Ok((report, c)) => (report, Some(c)),
            Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
        },
        (None, false) => {
            match snapstab_runtime::run_forwarding_service_on(&cfg, backend.transport()) {
                Ok(report) => (report, None),
                Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
            }
        }
        (None, true) => {
            match snapstab_runtime::run_forwarding_service_mux_on(
                &cfg,
                workers,
                backend.transport(),
            ) {
                Ok(report) => (report, None),
                Err(e) => return (format!("{out}transport setup failed: {e}\n"), 1),
            }
        }
    };
    let total = payloads * n as u64;
    out.push_str(&format!(
        "delivered {}/{} payloads in {:.2}s: {:.0} payloads/s, {:.0} msgs/s, \
         {} spurious stale flush(es)\n",
        report.delivered,
        total,
        report.wall.as_secs_f64(),
        report.payloads_per_sec(),
        report.msgs_per_sec(),
        report.spurious,
    ));
    out.push_str(&link_counters_line(&report.stats.links));
    if mux {
        out.push_str(&mux_scheduling_line(&report.stats, report.delivered));
    }
    out.push_str(&backend.framing_line());
    out.push_str(&per_link_table(&report.link_samples));
    if let (Some(mix), Some(c)) = (chaos, &chaos_report) {
        out.push_str(&chaos_summary(mix, c));
    }
    if let Some((min, mean, max)) = report.latency_min_mean_max() {
        out.push_str(&format!(
            "end-to-end latency: min {:.2} / mean {:.2} / max {:.2} ms\n",
            min.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        ));
    }
    // Under chaos, state corruption may destroy payloads in flight
    // through protocol buffers; the epoch verdict (which classifies them
    // as interrupted at a fault boundary) is the pass/fail signal, not
    // the raw delivery count.
    let mut failed = chaos_report.is_none() && report.delivered < total;
    if let Some(trace) = &report.trace {
        if let Some(c) = &chaos_report {
            let epochs = snapstab_core::spec::analyze_forwarding_epochs(trace, n, &c.fault_steps);
            out.push_str(&format!(
                "spec 4 per epoch: {} epoch(s), {} delivered, {} interrupted at \
                 fault boundaries, {} epoch-crossing, {} forged fault mark(s); \
                 holds: {}\n",
                epochs.epochs_checked(),
                epochs.delivered_total(),
                epochs.interrupted_total(),
                epochs.crossing.len(),
                epochs.forged_marks.len(),
                epochs.holds(),
            ));
            failed |= !epochs.holds();
        } else {
            let spec = analyze_forwarding_trace(trace, n);
            out.push_str(&format!(
                "spec 4 on the merged live trace: lost: {}; duplicated ids: {}; \
                 corrupt deliveries: {}; spurious: {}; holds: {}\n",
                spec.lost.len(),
                spec.duplicate_ids.len(),
                spec.corrupt_deliveries.len(),
                spec.spurious,
                spec.holds(),
            ));
            failed |= !spec.holds();
        }
    }
    if args.has("trace") {
        for (i, lat) in report.latencies.iter().take(20).enumerate() {
            out.push_str(&format!(
                "  payload {i}: {:.2} ms\n",
                lat.as_secs_f64() * 1e3
            ));
        }
    }
    (out, i32::from(failed))
}

/// Runs the `impossibility` subcommand; returns the report text.
pub fn cmd_impossibility(args: &Args) -> String {
    let n: usize = args.get_or("n", 3);
    let seed: u64 = args.get_or("seed", 0xD0);
    let cs_duration: u64 = args.get_or("cs-duration", 8);
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
    out
}

/// Dispatches a parsed command line; returns the report text and the
/// process exit code (non-zero for an unknown subcommand, so scripts and
/// CI notice typos instead of silently getting the usage text).
pub fn dispatch(args: &Args) -> (String, i32) {
    if args.has("help") {
        return (USAGE.to_string(), 0);
    }
    match args.command.as_deref() {
        Some("idl") => (cmd_idl(args), 0),
        Some("me") => (cmd_me(args), 0),
        Some("live") => cmd_live(args),
        Some("impossibility") => (cmd_impossibility(args), 0),
        Some("help") | Some("-h") | None => (USAGE.to_string(), 0),
        Some(other) => (format!("unknown command `{other}`\n\n{USAGE}"), 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn idl_reports_success() {
        let out = cmd_idl(&parse("idl --n 3 --seed 5"));
        assert!(out.contains("spec holds: true"), "{out}");
    }

    #[test]
    fn idl_corrupted_still_succeeds() {
        let out = cmd_idl(&parse("idl --n 3 --seed 6 --corrupt --loss 0.2"));
        assert!(out.contains("spec holds: true"), "{out}");
    }

    #[test]
    fn me_serves_and_stays_exclusive() {
        let out = cmd_me(&parse("me --n 3 --steps 80000 --requests 1 --corrupt"));
        assert!(out.contains("genuine CS overlaps: 0"), "{out}");
    }

    #[test]
    fn impossibility_reports_dichotomy() {
        let out = cmd_impossibility(&parse("impossibility --n 3"));
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

    #[test]
    fn live_unknown_runtime_exits_2_and_lists_valid_set() {
        let (out, code) = cmd_live(&parse("live --n 3 --runtime fibers"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("unknown --runtime `fibers`"), "{out}");
        assert!(out.contains("valid values are threads, mux"), "{out}");
        assert!(out.contains("USAGE"), "{out}");
        // The forwarding app applies the same validation.
        let (out, code) = cmd_live(&parse("live --app forward --n 3 --runtime fibers"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown --runtime `fibers`"), "{out}");
    }

    #[test]
    fn live_mux_runtime_serves_and_checks() {
        let (out, code) = cmd_live(&parse(
            "live --n 4 --runtime mux --workers 2 --requests 2 --check --budget-secs 40",
        ));
        assert!(out.contains("n=4 instances on 2 mux worker(s)"), "{out}");
        assert!(out.contains("served 8/8"), "{out}");
        assert!(out.contains("exclusivity holds: true"), "{out}");
        assert_eq!(code, 0, "healthy mux run exits 0:\n{out}");
    }

    #[test]
    fn live_mux_forward_delivers_and_checks_spec4() {
        let (out, code) = cmd_live(&parse(
            "live --app forward --n 3 --runtime mux --workers 2 --requests 2 \
             --check --budget-secs 40",
        ));
        assert!(out.contains("n=3 instances on 2 mux worker(s)"), "{out}");
        assert!(out.contains("delivered 6/6"), "{out}");
        assert!(out.contains("holds: true"), "{out}");
        assert_eq!(code, 0, "healthy mux forwarding run exits 0:\n{out}");
    }

    #[test]
    fn live_mux_rejects_sharded_and_zero_workers() {
        let (out, code) = cmd_live(&parse("live --n 3 --runtime mux --shards 2"));
        assert_eq!(code, 2, "usage errors exit 2:\n{out}");
        assert!(out.contains("--runtime mux is not supported"), "{out}");
        let (out, code) = cmd_live(&parse("live --n 3 --runtime mux --workers 0"));
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("invalid --workers 0"), "{out}");
    }

    #[test]
    fn live_monitored_mux_serves_cuts_and_checks_spec5() {
        let (out, code) = cmd_live(&parse(
            "live --n 4 --runtime mux --workers 2 --requests 2 --monitor \
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
            "live --n 4 --runtime mux --workers 2 --requests 2 --initiators 2 \
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
            "live --n 3 --requests 30 --loss 0.3 --jitter 2 --runtime mux \
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
            "--runtime mux --workers 1",
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
