//! The snap-stabilizing message-forwarding service, end to end: client
//! payloads routed hop-by-hop along the process line through bounded
//! buffers, every hop transfer validated by the paper's flag handshake —
//! starting from buffers adversarially pre-filled with stale entries.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example forwarding_service
//! ```

use std::time::Duration;

use snapstab_repro::core::spec::analyze_forwarding_trace;
use snapstab_repro::net::{udp_available, UdpLoopback};
use snapstab_repro::runtime::{run_service, ForwardingServiceConfig, LiveConfig, ServiceRun};

fn report(tag: &str, n: usize, r: &snapstab_repro::runtime::ForwardingServiceReport) {
    println!(
        "[{tag}] delivered {}/{} payloads in {:.2}s ({:.0} payloads/s, {:.0} msgs/s), \
         {} stale flush(es)",
        r.delivered,
        r.injected,
        r.wall.as_secs_f64(),
        r.payloads_per_sec(),
        r.msgs_per_sec(),
        r.spurious,
    );
    if let Some((min, mean, max)) = r.latency_min_mean_max() {
        println!(
            "[{tag}] end-to-end latency: min {:.2} / mean {:.2} / max {:.2} ms",
            min.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        );
    }
    let spec = analyze_forwarding_trace(r.trace.as_ref().expect("trace recorded"), n);
    println!(
        "[{tag}] Specification 4: lost {}, duplicated {}, corrupt {}, spurious {} -> holds: {}",
        spec.lost.len(),
        spec.duplicate_ids.len(),
        spec.corrupt_deliveries.len(),
        spec.spurious,
        spec.holds(),
    );
    assert!(spec.holds(), "{spec:?}");
}

fn main() {
    let n = 5;
    // Adversarial start: every process's lanes and transfer slots are
    // stuffed with stale entries before the workers spawn, and 10% of
    // messages are lost in transit. The first injected payload is still
    // delivered exactly once — that is snap-stabilization.
    let cfg = ForwardingServiceConfig {
        n,
        payloads_per_process: 20,
        buffer_cap: 4,
        prefill_stale: true,
        live: LiveConfig {
            loss: 0.1,
            seed: 7,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(60),
    };
    let (r, _) = run_service(&cfg, ServiceRun::default()).expect("in-memory");
    report("inmem", n, &r);

    // The same service over real UDP datagram sockets, where the sandbox
    // allows them.
    if udp_available() {
        let udp_cfg = ForwardingServiceConfig {
            payloads_per_process: 5,
            ..cfg
        };
        let run = ServiceRun {
            transport: &UdpLoopback::new(),
            ..ServiceRun::default()
        };
        let (r, _) = run_service(&udp_cfg, run).expect("bind loopback sockets");
        report("udp", n, &r);
    } else {
        println!("[udp] UDP loopback unavailable in this sandbox; skipping");
    }
}
