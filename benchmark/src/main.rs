//! The repo benchmark: one invocation runs one workload for `--seconds`,
//! checks its outputs, prints every metric as `name value unit`, and ends
//! with the one-line JSON result `BENCHMARK.json`'s contract asks for.
//!
//! `--trace 0` prints the end-to-end metrics, measured with recording and
//! spans off. `--trace 1` prints the per-layer metrics from a separate
//! run that alternates plain and recorded repeats under the span recorder
//! and writes the spans to `benchmark/out/trace-<workload>.json`.
//!
//! Run it through `run.sh`, which builds it and pins it to one CPU.

mod micro;
mod spans;
mod stats;
mod workloads;

use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use micro::Micro;
use spans::Recorder;
use stats::{median, spread_pct, typical};
use workloads::{Analyzer, Counts, Repeat, Variant, Workload, CHAOS_SCHEDULE};

const USAGE: &str = "usage: snapstab-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--trace <0|1>]
workloads: mutex_sim_n16 mutex_mux_n32 forward_mux_n8 mutex_udp_n8 mutex_chaos_n8";

/// The seed every committed number is measured with. README.md names a
/// second one, reserved for verifying a claim on inputs it was not
/// developed against.
const DEFAULT_SEED: u64 = 20_080_818;

/// Timed cycles an untraced run makes even when they overrun `--seconds`.
const MIN_CYCLES: usize = 3;

/// The warm-up repeat's size as a share of a timed repeat's.
const WARM_UP_SHARE: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = workloads::NOMINAL_SECONDS;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let parsed = Workload::parse(&value);
                workload = Some(parsed.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Where the traced run writes its spans, relative to the repo root
/// (`run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

/// Runs the workload and prints the result; `Ok(false)` when an output
/// check failed.
fn run(args: &Args) -> io::Result<bool> {
    let workload = args.workload;
    let pinned = pinned();
    if !pinned {
        eprintln!(
            "benchmark: warning: running UNPINNED — these numbers are not comparable with pinned ones"
        );
    }
    let per_process = workload.per_process(args.seconds);
    if let Some(reason) = workload.unavailable() {
        // Skipped, not measured: every request of one repeat counts as failed.
        let requested = per_process * workload.n() as u64;
        eprintln!("benchmark: {} skipped: {reason}", workload.name());
        println!("skipped {reason}");
        println!("fail_share 1 ratio");
        let metrics = if args.trace {
            per_layer(workload, &[], &[], &[], &Micro::default(), pinned)
        } else {
            end_to_end(&[])
        };
        println!("{}", result_json(false, requested, requested, &metrics));
        return Ok(false);
    }
    let warm_up = workload.per_process(args.seconds * WARM_UP_SHARE);
    workloads::run(workload, Variant::Plain, warm_up, args.seed)?;

    let plain_only = [Variant::Plain];
    let (cycle, min_cycles) = if args.trace {
        (workload.traced_cycle(), 1)
    } else {
        (&plain_only[..], MIN_CYCLES)
    };
    let mut rec = args.trace.then(Recorder::new);
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut repeats: Vec<(Variant, Repeat)> = Vec::new();
    let mut cycles = 0;
    loop {
        let cycle_began = Instant::now();
        for &variant in cycle {
            let repeat = workloads::run(workload, variant, per_process, args.seed)?;
            if let Some(rec) = rec.as_mut() {
                record_spans(rec, &repeat, repeats.len() as u32);
            }
            repeats.push((variant, repeat));
        }
        cycles += 1;
        // Start another cycle only if one as long as the last still fits.
        if cycles >= min_cycles && began.elapsed() + cycle_began.elapsed() > budget {
            break;
        }
    }

    let of = |v: Variant| -> Vec<&Repeat> {
        repeats
            .iter()
            .filter(|(variant, _)| *variant == v)
            .map(|(_, r)| r)
            .collect()
    };
    let plain = of(Variant::Plain);

    let mut failures: Vec<String> = repeats
        .iter()
        .enumerate()
        .flat_map(|(i, (variant, r))| {
            r.failures
                .iter()
                .map(move |f| format!("repeat {i} ({variant:?}): {f}"))
        })
        .collect();
    if workload == Workload::MutexSimN16 {
        failures.extend(sim_repeats_differ(&plain));
    }

    let metrics = match rec.as_mut() {
        None => end_to_end(&plain),
        Some(rec) => {
            let micro = micro::run(args.seed, rec, repeats.len() as u32)?;
            let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
            rec.write_json(workload.name(), &path)?;
            println!("spans {}", path.display());
            // The chaos workload's plain repeats are its traced sample.
            let (base, traced) = if workload == Workload::MutexChaosN8 {
                (of(Variant::RecordOff), of(Variant::Plain))
            } else {
                (of(Variant::Plain), of(Variant::Traced))
            };
            per_layer(workload, &plain, &base, &traced, &micro, pinned)
        }
    };

    let attempted: u64 = repeats.iter().map(|(_, r)| r.requested).sum();
    let failed: u64 = repeats
        .iter()
        .map(|(_, r)| (r.requested - r.served.min(r.requested) + r.violating).min(r.requested))
        .sum();

    println!(
        "workload {} seed {} repeats {} requests_per_repeat {}",
        workload.name(),
        args.seed,
        repeats.len(),
        per_process * workload.n() as u64
    );
    // Shows at a glance whether the host changed speed during the run,
    // and what `typical` had to choose from.
    let by_repeat = |f: &dyn Fn(&Repeat) -> f64| -> String {
        let values: Vec<String> = plain.iter().map(|r| format!("{:.4}", f(r))).collect();
        values.join(" ")
    };
    println!("req_per_s_by_repeat {}", by_repeat(&Repeat::req_per_s));
    println!("p50_ms_by_repeat {}", by_repeat(&|r| r.latency_ms(0.5)));
    println!("p95_ms_by_repeat {}", by_repeat(&|r| r.latency_ms(0.95)));
    let short = plain
        .iter()
        .filter(|r| r.window < Duration::from_secs(1))
        .count();
    if short > 0 {
        println!("short_repeat {short} count");
        eprintln!("benchmark: warning: {short} repeats took under 1 s; re-size the workload");
    }
    if workload == Workload::MutexChaosN8 && plain.iter().any(|r| r.window < 2 * CHAOS_SCHEDULE) {
        eprintln!(
            "benchmark: warning: the work did not outlast the {CHAOS_SCHEDULE:?} fault schedule twice"
        );
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("fail_share {} ratio", failed as f64 / attempted as f64);
    for f in &failures {
        eprintln!("benchmark: output check failed: {f}");
    }
    let correct = failures.is_empty() && failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// True when this process may run on exactly one CPU, as `run.sh` leaves
/// it under `taskset`.
fn pinned() -> bool {
    proc_status("Cpus_allowed_list:").is_some_and(|cpus| !cpus.contains([',', '-']))
}

/// The value of one `/proc/self/status` line, where `/proc` has it.
fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(key))?;
    Some(value.trim().to_string())
}

/// The one-line JSON object the driver reads from the last line of stdout.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// `repeat > {setup, serve, teardown, verify}` from what a repeat shows
/// from outside. Set-up is everything in the product call that is not its
/// serving window (the product's own joining and merging included, which
/// cannot be told apart from here), laid out before the window; teardown
/// is dropping the transport after the call returned.
fn record_spans(rec: &mut Recorder, r: &Repeat, id: u32) {
    let call_end = r.started + r.call;
    let torn_down = call_end - r.teardown;
    let serving = torn_down - r.window.min(r.call - r.teardown);
    let parent = Some(rec.add("repeat", r.started, call_end + r.verify(), None, id));
    rec.add("setup", r.started, serving, parent, id);
    rec.add("serve", serving, torn_down, parent, id);
    rec.add("teardown", torn_down, call_end, parent, id);
    rec.add("verify", call_end, call_end + r.verify(), parent, id);
}

/// The simulator workload is deterministic: every repeat of one seed must
/// yield the same counts, or a count-based claim means nothing.
fn sim_repeats_differ(plain: &[&Repeat]) -> Option<String> {
    let key = |r: &Repeat| {
        let sim = r.sim.expect("the simulator workload reports its steps");
        (
            r.served,
            r.counts.enqueued,
            r.counts.steps,
            sim.p50_steps,
            sim.p95_steps,
        )
    };
    let first = key(plain[0]);
    plain.iter().any(|r| key(r) != first).then(|| {
        format!(
            "simulator counts differ between repeats of one seed: {:?}",
            plain.iter().map(|r| key(r)).collect::<Vec<_>>()
        )
    })
}

fn med(repeats: &[&Repeat], f: impl Fn(&Repeat) -> f64) -> f64 {
    if repeats.is_empty() {
        return 0.0;
    }
    median(&repeats.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a user of the system sees. The three timings are the typical
/// per-repeat value ([`stats::typical`]): the host speeds up and stalls
/// for seconds at a time, and the repeats it left alone agree with each
/// other. The two others are medians over the timed repeats.
fn end_to_end(plain: &[&Repeat]) -> Vec<Metric> {
    let typ = |f: &dyn Fn(&Repeat) -> f64| {
        if plain.is_empty() {
            return 0.0;
        }
        typical(&plain.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    vec![
        metric("req_per_s", typ(&Repeat::req_per_s), "1/s"),
        metric("p50_ms", typ(&|r| r.latency_ms(0.5)), "ms"),
        metric("p95_ms", typ(&|r| r.latency_ms(0.95)), "ms"),
        metric("msgs_per_req", med(plain, Repeat::msgs_per_req), "count"),
        metric("setup_s", med(plain, |r| r.setup().as_secs_f64()), "s"),
    ]
}

/// The layer ledger, all taken from outside: public counters and timed
/// calls into public functions. A metric that does not apply to the
/// workload reads 0.
fn per_layer(
    workload: Workload,
    plain: &[&Repeat],
    base: &[&Repeat],
    traced: &[&Repeat],
    micro: &Micro,
    pinned: bool,
) -> Vec<Metric> {
    let sim = workload == Workload::MutexSimN16;
    let udp = workload == Workload::MutexUdpN8;
    let per_req = |f: fn(&Counts) -> u64| med(plain, |r| ratio(f(&r.counts), r.served));
    // A live-only (or sim-only) figure, 0 on the other side.
    let live = |f: &dyn Fn(&Repeat) -> f64| if sim { 0.0 } else { med(plain, f) };
    let simulated = |f: &dyn Fn(&Repeat, workloads::SimSteps) -> f64| {
        med(plain, |r| r.sim.map_or(0.0, |s| f(r, s)))
    };
    // The share of the serving window that `ns` per message accounts for.
    let share = |applies: bool, ns: f64| {
        if applies {
            med(plain, |r| {
                r.counts.enqueued as f64 * ns / (r.window.as_secs_f64() * 1e9)
            })
        } else {
            0.0
        }
    };
    let chaos = |f: &dyn Fn(&snapstab_runtime::ChaosReport, &Repeat) -> f64| {
        med(plain, |r| r.chaos.as_ref().map_or(0.0, |c| f(c, r)))
    };
    let events_per_s = |analyzer: Analyzer| {
        let (events, took) = traced
            .iter()
            .flat_map(|r| r.passes.iter().map(move |p| (r.trace_events, p)))
            .filter(|(_, p)| p.analyzer == analyzer)
            .fold((0u64, Duration::ZERO), |(e, t), (events, p)| {
                (e + events, t + p.took)
            });
        if took.is_zero() {
            0.0
        } else {
            events as f64 / took.as_secs_f64()
        }
    };
    // What tracing costs: `base` repeats record nothing, `traced` ones
    // record during their serving window and are judged after it.
    let overhead_pct = |rate: &dyn Fn(&Repeat) -> f64| {
        let (off, on) = (med(base, rate), med(traced, rate));
        if off > 0.0 {
            100.0 * (off - on) / off
        } else {
            0.0
        }
    };

    vec![
        metric(
            "core.activations_per_req",
            per_req(|c| c.activations),
            "count",
        ),
        metric(
            "core.deliveries_per_req",
            per_req(|c| c.deliveries),
            "count",
        ),
        metric("core.events_per_req", per_req(|c| c.events), "count"),
        metric("core.cs_per_req", per_req(|c| c.cs_entries), "count"),
        metric(
            "sim.ns_per_step",
            simulated(&|r, s| s.stepping.as_secs_f64() * 1e9 / r.counts.steps.max(1) as f64),
            "ns",
        ),
        metric(
            "sim.steps_per_req",
            simulated(&|r, _| ratio(r.counts.steps, r.served)),
            "count",
        ),
        metric(
            "sim.p50_steps",
            simulated(&|_, s| s.p50_steps as f64),
            "count",
        ),
        metric(
            "sim.p95_steps",
            simulated(&|_, s| s.p95_steps as f64),
            "count",
        ),
        metric(
            "sim.enqueue_ratio",
            simulated(&|r, _| ratio(r.counts.enqueued, r.counts.sends)),
            "ratio",
        ),
        metric(
            "runtime.us_per_activation",
            live(&|r| r.window.as_secs_f64() * 1e6 / r.counts.activations.max(1) as f64),
            "us",
        ),
        metric(
            "runtime.ns_per_msg",
            live(&|r| r.window.as_secs_f64() * 1e9 / r.counts.enqueued.max(1) as f64),
            "ns",
        ),
        metric(
            "runtime.lost_full_ratio",
            live(&|r| ratio(r.counts.lost_full, r.counts.sends)),
            "ratio",
        ),
        metric("runtime.teardown_ms", live(&|r| ms(r.teardown)), "ms"),
        metric("runtime.link_ns", micro.link_ns, "ns"),
        metric(
            "runtime.link_share",
            share(!sim && !udp, micro.link_ns),
            "ratio",
        ),
        metric(
            "chaos.recovery_p50_ms",
            chaos(&|c, _| c.recovery_quantile(0.5).map_or(0.0, ms)),
            "ms",
        ),
        metric(
            "chaos.recovery_max_ms",
            chaos(&|c, _| c.recovery_quantile(1.0).map_or(0.0, ms)),
            "ms",
        ),
        metric(
            "chaos.faults",
            chaos(&|c, _| c.fault_steps.len() as f64),
            "count",
        ),
        metric(
            "chaos.interventions",
            chaos(&|c, _| c.interventions.len() as f64),
            "count",
        ),
        metric(
            "chaos.drops_per_req",
            chaos(&|c, r| ratio(c.chaos_drops, r.served)),
            "count",
        ),
        metric("net.encode_ns", micro.encode_ns, "ns"),
        metric("net.decode_ns", micro.decode_ns, "ns"),
        metric("net.udp_link_ns", micro.udp_link_ns, "ns"),
        metric(
            "net.codec_share",
            share(udp, micro.encode_ns + micro.decode_ns),
            "ratio",
        ),
        metric("net.udp_share", share(udp, micro.udp_link_ns), "ratio"),
        metric("net.connect_ms", micro.udp_connect_ms, "ms"),
        metric(
            "net.lost_reorder_ratio",
            live(&|r| ratio(r.counts.lost_reorder, r.counts.sends)),
            "ratio",
        ),
        metric(
            "trace.events_per_req",
            med(traced, |r| ratio(r.trace_events, r.served)),
            "count",
        ),
        metric(
            "trace.record_overhead_pct",
            overhead_pct(&Repeat::req_per_s),
            "%",
        ),
        metric("trace.peak_rss_mb", peak_rss_mb(), "MB"),
        metric("spec.me_events_per_s", events_per_s(Analyzer::Me), "1/s"),
        metric(
            "spec.epochs_events_per_s",
            events_per_s(Analyzer::Epochs),
            "1/s",
        ),
        metric(
            "spec.fwd_events_per_s",
            events_per_s(Analyzer::Forwarding),
            "1/s",
        ),
        metric(
            "spec.verdict_us_per_req",
            med(traced, |r| {
                r.verify().as_secs_f64() * 1e6 / r.served.max(1) as f64
            }),
            "us",
        ),
        metric(
            "bench.repeat_spread_pct",
            spread_pct(&plain.iter().map(|r| r.req_per_s()).collect::<Vec<_>>()),
            "%",
        ),
        metric(
            "bench.trace_overhead_pct",
            overhead_pct(&|r| r.served as f64 / (r.call + r.verify()).as_secs_f64()),
            "%",
        ),
        metric("bench.pinned", f64::from(u8::from(pinned)), "count"),
    ]
}

/// Peak resident set of this process so far (`VmHWM`), 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must name the same metrics with
    /// the same units, and the same workloads.
    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let e2e = end_to_end(&[]);
        let layers = per_layer(
            Workload::MutexMuxN32,
            &[],
            &[],
            &[],
            &Micro::default(),
            true,
        );
        for m in e2e.iter().chain(&layers) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\":").count(),
            e2e.len() + layers.len(),
            "BENCHMARK.json names a metric the binary does not print"
        );
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
        assert_eq!(json.matches("\"why\":").count(), Workload::ALL.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 10, 0, &[metric("req_per_s", 1.5, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"req_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
    }
}
