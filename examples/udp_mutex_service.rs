//! The same mutual-exclusion service — but every message crosses a real
//! UDP socket: Algorithm 3 on one OS thread per process over the loopback
//! interface (`snapstab-net`), each worker's output coalesced into one
//! frame per loop iteration, with the paper's §4 channel semantics
//! enforced per record in the receive path, judged by the unchanged
//! Specification 3 checker.
//!
//! Run with: `cargo run --release --example udp_mutex_service`

use std::time::Duration;

use snapstab_repro::core::spec::analyze_me_trace;
use snapstab_repro::net::{udp_available, UdpLoopback};
use snapstab_repro::runtime::{run_mutex_service_on, LiveConfig, MutexServiceConfig};

fn main() {
    if !udp_available() {
        eprintln!("this environment forbids UDP loopback sockets; nothing to demo");
        return;
    }
    let n = 8;
    let cfg = MutexServiceConfig {
        n,
        requests_per_process: 25,
        cs_duration: 0,
        live: LiveConfig {
            loss: 0.1, // injected on top of whatever the kernel loses
            seed: 42,
            record_trace: true, // keep the merged trace for the spec check
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(60),
    };

    println!(
        "UDP mutex service: {n} worker threads, {} requests/process, 10% injected loss",
        cfg.requests_per_process
    );
    // The transport object runs nothing (the workers move the frames);
    // it is kept to read the topology's frame counters after the run.
    let transport = UdpLoopback::new();
    let report = run_mutex_service_on(&cfg, &transport).expect("bind the loopback socket");
    let frames = transport.frame_stats();

    let wall = report.wall.as_secs_f64();
    println!(
        "served {}/{} requests in {wall:.2}s — {:.0} req/s; {:.0} records/s through the socket \
         in {:.0} frames/s ({:.1} records per datagram)",
        report.served,
        report.injected,
        report.requests_per_sec(),
        frames.records_sent as f64 / wall,
        frames.frames_sent as f64 / wall,
        frames.records_sent as f64 / frames.frames_sent.max(1) as f64,
    );
    let links = report.stats.links;
    println!(
        "link counters: {} sends, {} delivered, {} lost in transit, {} dropped on full lanes, {} dropped to keep FIFO",
        links.sends, links.delivered, links.lost_in_transit, links.lost_full, links.lost_reorder,
    );

    // The same executable specification that judges simulated and
    // in-memory live runs judges the UDP run.
    let trace = report.trace.expect("recording was on");
    let me = analyze_me_trace(&trace, n);
    println!(
        "Specification 3 on the merged trace: exclusivity holds = {}, {} of {} served",
        me.exclusivity_holds(),
        me.served.len(),
        report.injected,
    );
    assert!(me.exclusivity_holds() && me.all_served());
    println!("the UDP run satisfies the paper's mutual-exclusion specification");
}
