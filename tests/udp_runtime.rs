//! Transport conformance for the UDP backend: seeded PIF waves and the
//! mutex/sharded services over UDP loopback pass the *same* executable
//! specification checkers as the in-memory live runtime
//! (`tests/live_runtime.rs`), plus direct datagram-level checks that the
//! receive path enforces the paper's §4 channel semantics (FIFO by
//! dropping out-of-order/duplicate datagrams; bounded capacity with
//! silent, counted drop-on-full).
//!
//! Environments that forbid socket creation (some sandboxes) are
//! detected with `udp_available()`: every test then skips with a warning
//! instead of failing, so CI stays meaningful on both kinds of runner.
//!
//! Every test self-terminates well under 60 seconds: waits are bounded,
//! and a bound miss is a failure, not a hang.

use std::time::{Duration, Instant};

use snapstab_repro::core::request::RequestState;
use snapstab_repro::core::spec::{analyze_me_trace, check_pif_wave};
use snapstab_repro::net::wire::{encode_datagram, Header};
use snapstab_repro::net::{udp_available, UdpLoopback};
use snapstab_repro::runtime::{
    run_mutex_service_on, run_sharded_service_on, Link, LiveConfig, LiveRunner, MutexServiceConfig,
    ShardedServiceConfig, Transport,
};
use snapstab_repro::sim::ProcessId;

/// Skip-and-warn guard: returns `true` (and prints a warning) when the
/// sandbox forbids UDP loopback sockets.
fn skip_without_udp(test: &str) -> bool {
    if udp_available() {
        return false;
    }
    eprintln!("warning: UDP loopback unavailable in this sandbox; skipping `{test}`");
    true
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Echoes a fixed per-process feedback value (the same app shape as
/// `tests/live_runtime.rs`).
#[derive(Clone, Debug)]
struct Echo(u32);

impl snapstab_repro::core::pif::PifApp<u32, u32> for Echo {
    fn on_broadcast(&mut self, _from: ProcessId, _data: &u32) -> u32 {
        self.0
    }
    fn on_feedback(&mut self, _from: ProcessId, _data: &u32) {}
}

type Proc = snapstab_repro::core::pif::PifProcess<u32, u32, Echo>;

fn pif_fleet(n: usize) -> Vec<Proc> {
    (0..n)
        .map(|i| {
            snapstab_repro::core::pif::PifProcess::with_initial_f(
                p(i),
                n,
                0,
                0,
                Echo(100 + i as u32),
            )
        })
        .collect()
}

/// One PIF wave over UDP loopback; asserts Specification 1 on the merged
/// trace — the same predicate, verbatim, as the in-memory live tests.
fn udp_pif_wave_holds(n: usize, loss: f64, seed: u64) {
    let cfg = LiveConfig {
        loss,
        seed,
        jitter: Some(Duration::from_micros(200)),
        ..LiveConfig::default()
    };
    let transport = UdpLoopback::new();
    let drivers = (0..n).map(|_| None).collect();
    let mut runner = LiveRunner::spawn_with_transport(pif_fleet(n), drivers, cfg, &transport)
        .expect("bind loopback sockets");
    let payload = 7 + seed as u32;
    let request_step = runner.with_process_ctx(p(0), move |proc: &mut Proc, scribe| {
        let step = scribe.mark("request");
        assert!(proc.request_broadcast(payload));
        step
    });
    let decided = runner.wait_until(
        p(0),
        |proc: &Proc| proc.request() == RequestState::Done,
        Duration::from_secs(30),
    );
    assert!(
        decided,
        "UDP wave must decide (n={n}, loss={loss}, seed={seed})"
    );
    let report = runner.stop();
    let verdict = check_pif_wave(
        &report.trace,
        p(0),
        n,
        request_step,
        &payload,
        |q| 100 + q.index() as u32,
        |e| Some(e),
    );
    assert!(
        verdict.holds(),
        "UDP Spec 1 verdict failed (n={n}, loss={loss}, seed={seed}): {verdict:?}"
    );
}

/// Seeded PIF waves across loss tiers, every merged trace passing the
/// Specification 1 checker — the UDP counterpart of the in-memory
/// acceptance sweep.
#[test]
fn udp_pif_waves_satisfy_spec_across_seeds_and_loss() {
    if skip_without_udp("udp_pif_waves_satisfy_spec_across_seeds_and_loss") {
        return;
    }
    for &loss in &[0.0, 0.1, 0.3] {
        for seed in 0..6 {
            udp_pif_wave_holds(3, loss, seed);
        }
    }
}

/// A seeded mutex-service run over UDP loopback completes and its merged
/// trace passes the unchanged Specification 3 checker.
#[test]
fn udp_mutex_service_trace_satisfies_spec3() {
    if skip_without_udp("udp_mutex_service_trace_satisfies_spec3") {
        return;
    }
    let cfg = MutexServiceConfig {
        n: 3,
        requests_per_process: 2,
        live: LiveConfig {
            seed: 0xD06,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(45),
        ..MutexServiceConfig::default()
    };
    let report = run_mutex_service_on(&cfg, &UdpLoopback::new()).expect("bind loopback sockets");
    assert_eq!(report.served, 6, "all requests served over UDP");
    let trace = report.trace.expect("recording on by default");
    let me = analyze_me_trace(&trace, cfg.n);
    assert!(
        me.exclusivity_holds(),
        "genuine CS overlaps over UDP: {:?}",
        me.genuine_overlaps
    );
    assert!(me.all_served(), "unserved over UDP: {:?}", me.unserved);
    assert_eq!(me.served.len(), 6);
}

/// A lossy mutex-service run over UDP still serves everything: the
/// worker retransmission backoff pushes requests through both the
/// injected loss and any real datagram loss.
#[test]
fn udp_lossy_mutex_service_still_serves() {
    if skip_without_udp("udp_lossy_mutex_service_still_serves") {
        return;
    }
    let cfg = MutexServiceConfig {
        n: 3,
        requests_per_process: 1,
        live: LiveConfig {
            loss: 0.2,
            seed: 0x10_55,
            record_trace: false,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(45),
        ..MutexServiceConfig::default()
    };
    let report = run_mutex_service_on(&cfg, &UdpLoopback::new()).expect("bind loopback sockets");
    assert_eq!(report.served, 3, "all requests served under 20% loss");
    assert!(report.stats.links.lost_in_transit > 0, "loss was active");
}

/// The sharded, batching service over UDP loopback: grant-log audit holds
/// and each shard's projected trace passes Specification 3 — identical
/// predicates to `tests/sharded_service.rs`.
#[test]
fn udp_sharded_service_audits_and_passes_per_shard_spec3() {
    if skip_without_udp("udp_sharded_service_audits_and_passes_per_shard_spec3") {
        return;
    }
    let cfg = ShardedServiceConfig {
        n: 3,
        shards: 2,
        batch: 3,
        requests_per_process: 6,
        key_space: 4, // small space: conflicts must split across grants
        live: LiveConfig {
            seed: 0x5AD,
            ..LiveConfig::default()
        },
        time_budget: Duration::from_secs(45),
        ..ShardedServiceConfig::default()
    };
    let report = run_sharded_service_on(&cfg, &UdpLoopback::new()).expect("bind loopback sockets");
    assert_eq!(report.served, 18, "all requests served over UDP");
    let audit = report.audit();
    assert!(audit.holds(), "{audit:?}");
    let trace = report.trace.expect("recording on by default");
    for s in 0..cfg.shards {
        let shard_trace = snapstab_repro::core::shard::project_shard_trace(&trace, s);
        let me = analyze_me_trace(&shard_trace, cfg.n);
        assert!(
            me.exclusivity_holds(),
            "shard {s} genuine CS overlap over UDP: {:?}",
            me.genuine_overlaps
        );
        assert!(me.all_served(), "shard {s} unserved: {:?}", me.unserved);
    }
}

/// Polls a link until its stats satisfy `pred` or the deadline passes.
fn wait_stats<F>(
    link: &std::sync::Arc<dyn Link<u32>>,
    pred: F,
) -> snapstab_repro::runtime::LinkStats
where
    F: Fn(&snapstab_repro::runtime::LinkStats) -> bool,
{
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = link.stats();
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "stats never converged: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Out-of-order and duplicate datagrams are dropped in the receive path
/// (FIFO and duplication-freedom restored by the sequence-number guard),
/// and the drops are counted per link.
#[test]
fn out_of_order_and_duplicate_datagrams_are_dropped() {
    if skip_without_udp("out_of_order_and_duplicate_datagrams_are_dropped") {
        return;
    }
    let transport = UdpLoopback::new();
    let cfg = LiveConfig {
        capacity: 8, // roomy: this test is about ordering, not capacity
        ..LiveConfig::default()
    };
    let links = Transport::<u32>::connect(&transport, 2, &cfg, None).expect("bind");
    let link = links[1].as_ref().expect("0 -> 1").clone();
    let to_addr = transport.endpoint_addrs()[1];

    // Craft raw datagrams on the link 0 -> 1, playing an adversarial
    // network. They must leave process 0's *genuine* socket — the demux
    // ignores datagrams whose source does not match the claimed sender.
    let socket = transport.endpoint_socket(0);
    let mut buf = Vec::new();
    let mut inject = |seq: u64, value: u32| {
        let header = Header {
            from: 0,
            to: 1,
            lane: 0,
            seq,
        };
        encode_datagram(header, &value, &mut buf);
        socket.send_to(&buf, to_addr).expect("inject datagram");
        // Keep kernel-side ordering deterministic on loopback.
        std::thread::sleep(Duration::from_millis(2));
    };
    inject(1, 10);
    inject(3, 30); // seq 2 "lost in the network": accepted, FIFO intact
    inject(2, 20); // late straggler: must be dropped
    inject(3, 30); // duplicate: must be dropped

    let stats = wait_stats(&link, |s| s.enqueued + s.lost_reorder >= 4);
    assert_eq!(stats.enqueued, 2, "exactly the in-order datagrams entered");
    assert_eq!(stats.lost_reorder, 2, "straggler + duplicate counted");
    assert_eq!(stats.lost_full, 0);
    // Delivery order is the accepted sequence order: FIFO preserved.
    assert_eq!(link.try_recv(), Some(10));
    assert_eq!(link.try_recv(), Some(30));
    assert_eq!(link.try_recv(), None);
}

/// A spoofed datagram from a foreign socket — claiming to be process 0
/// but not sent from its socket — is ignored entirely: it neither
/// delivers nor advances the FIFO sequence guard (a stray `seq` near
/// `u64::MAX` would otherwise deafen the link forever, making its loss
/// probability 1 and breaking the fair-loss assumption).
#[test]
fn spoofed_datagrams_from_foreign_sockets_are_ignored() {
    if skip_without_udp("spoofed_datagrams_from_foreign_sockets_are_ignored") {
        return;
    }
    let transport = UdpLoopback::new();
    let links =
        Transport::<u32>::connect(&transport, 2, &LiveConfig::default(), None).expect("bind");
    let link = links[1].as_ref().expect("0 -> 1").clone();
    let to_addr = transport.endpoint_addrs()[1];

    // An attacker/stale-test socket forges a huge sequence number.
    let foreign = std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("bind foreign socket");
    let mut buf = Vec::new();
    let header = Header {
        from: 0,
        to: 1,
        lane: 0,
        seq: u64::MAX,
    };
    encode_datagram(header, &99u32, &mut buf);
    foreign
        .send_to(&buf, to_addr)
        .expect("send spoofed datagram");
    std::thread::sleep(Duration::from_millis(20));
    let stats = link.stats();
    assert_eq!(
        (stats.enqueued, stats.lost_reorder),
        (0, 0),
        "spoofed datagram must not touch the link at all"
    );

    // The genuine link still works: its own seq 1 is delivered.
    assert_eq!(link.send(7), snapstab_repro::sim::SendFate::Enqueued);
    let stats = wait_stats(&link, |s| s.enqueued >= 1);
    assert_eq!(stats.lost_reorder, 0);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(m) = link.try_recv() {
            assert_eq!(m, 7);
            break;
        }
        assert!(Instant::now() < deadline, "genuine datagram never arrived");
        std::thread::yield_now();
    }
}

/// A datagram arriving at a full lane is dropped *silently* — the sender
/// saw `Enqueued` for every send — and the drop is counted (§4).
#[test]
fn drop_on_full_is_silent_and_counted() {
    if skip_without_udp("drop_on_full_is_silent_and_counted") {
        return;
    }
    let transport = UdpLoopback::new();
    let cfg = LiveConfig {
        capacity: 1,
        ..LiveConfig::default()
    };
    let links = Transport::<u32>::connect(&transport, 2, &cfg, None).expect("bind");
    let link = links[1].as_ref().expect("0 -> 1").clone();

    // Three sends without the receiver draining: the sender cannot tell
    // them apart (all fates are local `Enqueued`), but only one fits the
    // capacity-1 lane.
    for value in [42u32, 43, 44] {
        assert_eq!(
            link.send(value),
            snapstab_repro::sim::SendFate::Enqueued,
            "a remote drop must stay silent at the sender"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = wait_stats(&link, |s| s.enqueued + s.lost_full >= 3);
    assert_eq!(stats.sends, 3);
    assert_eq!(stats.enqueued, 1, "one message fits the capacity-1 lane");
    assert_eq!(stats.lost_full, 2, "the overflow is counted, not reported");
    assert_eq!(stats.lost_reorder, 0);
    assert_eq!(link.try_recv(), Some(42));
    assert_eq!(link.try_recv(), None, "dropped messages are gone");
}

use snapstab_repro::sim::SendFate;

/// Connects a bare `n`-process `u32` topology: no runtime, so nothing
/// pumps but the links themselves.
fn bare_links(
    transport: &UdpLoopback,
    n: usize,
    cfg: &LiveConfig,
) -> Vec<Option<std::sync::Arc<dyn Link<u32>>>> {
    Transport::<u32>::connect(transport, n, cfg, None).expect("bind")
}

/// Polls a bare link until it delivers or the deadline passes — `try_recv`
/// only, so whatever moves the frame is the link's own doing.
fn recv_bare(link: &std::sync::Arc<dyn Link<u32>>) -> u32 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(m) = link.try_recv() {
            return m;
        }
        assert!(Instant::now() < deadline, "staged record never arrived");
        std::thread::yield_now();
    }
}

/// The bare-link contract: a `send` followed by `try_recv` delivers with
/// no `pump`, `stats` or `len` call in between — the empty poll sees the
/// link's own unjudged record and moves the frame itself.
#[test]
fn send_then_try_recv_needs_no_pump() {
    if skip_without_udp("send_then_try_recv_needs_no_pump") {
        return;
    }
    let transport = UdpLoopback::new();
    let links = bare_links(&transport, 2, &LiveConfig::default());
    let link = links[1].as_ref().expect("0 -> 1");
    for value in [7u32, 8, 9] {
        assert_eq!(link.send(value), SendFate::Enqueued);
        assert_eq!(recv_bare(link), value);
    }
    let frames = transport.frame_stats();
    assert_eq!((frames.frames_sent, frames.records_sent), (3, 3));
}

/// §4 capacity is enforced per record *inside* a frame: k sends staged
/// before any poll travel as one datagram, and at the capacity-1 lane
/// the first is accepted and the other k − 1 are dropped, silently (every
/// fate was `Enqueued`) and counted.
#[test]
fn k_sends_in_one_frame_meet_capacity_record_by_record() {
    if skip_without_udp("k_sends_in_one_frame_meet_capacity_record_by_record") {
        return;
    }
    const K: u32 = 5;
    let transport = UdpLoopback::new();
    let links = bare_links(&transport, 2, &LiveConfig::default());
    let link = links[1].as_ref().expect("0 -> 1").clone();
    for value in 0..K {
        assert_eq!(
            link.send(100 + value),
            SendFate::Enqueued,
            "a drop at the receive half must stay silent at the sender"
        );
    }
    let stats = wait_stats(&link, |s| s.enqueued + s.lost_full >= u64::from(K));
    assert_eq!(stats.sends, u64::from(K));
    assert_eq!(stats.enqueued, 1, "one record fits the capacity-1 lane");
    assert_eq!(stats.lost_full, u64::from(K) - 1);
    assert_eq!(stats.lost_reorder, 0);
    assert_eq!(link.try_recv(), Some(100), "the head of the frame got in");
    assert_eq!(link.try_recv(), None);
    let frames = transport.frame_stats();
    assert_eq!(
        (frames.frames_sent, frames.records_sent),
        (1, u64::from(K)),
        "the k records shared one frame"
    );
}

/// Two links interleaved in one frame keep independent sequence spaces
/// and each stays FIFO: nothing is taken for a reorder of the other.
#[test]
fn links_sharing_a_frame_keep_their_own_seq_and_fifo() {
    if skip_without_udp("links_sharing_a_frame_keep_their_own_seq_and_fifo") {
        return;
    }
    let transport = UdpLoopback::new();
    let cfg = LiveConfig {
        capacity: 8,
        ..LiveConfig::default()
    };
    let links = bare_links(&transport, 3, &cfg);
    let a = links[1].as_ref().expect("0 -> 1").clone();
    let b = links[2 * 3].as_ref().expect("2 -> 0").clone();
    for i in 0..4u32 {
        a.send(10 + i);
        b.send(20 + i);
    }
    let stats_a = wait_stats(&a, |s| s.enqueued >= 4);
    let stats_b = wait_stats(&b, |s| s.enqueued >= 4);
    assert_eq!((stats_a.lost_reorder, stats_b.lost_reorder), (0, 0));
    assert_eq!((stats_a.lost_full, stats_b.lost_full), (0, 0));
    for i in 0..4u32 {
        assert_eq!(a.try_recv(), Some(10 + i));
        assert_eq!(b.try_recv(), Some(20 + i));
    }
    assert_eq!((a.try_recv(), b.try_recv()), (None, None));
    let frames = transport.frame_stats();
    assert_eq!((frames.frames_sent, frames.records_sent), (1, 8));
}

/// Staging more than one frame's budget sends the full frame first: the
/// records arrive in several frames, none larger than an Ethernet
/// payload, in order and all of them.
#[test]
fn staging_past_the_frame_budget_splits_into_frames() {
    if skip_without_udp("staging_past_the_frame_budget_splits_into_frames") {
        return;
    }
    const SENDS: u32 = 200; // 20 bytes a record: ~73 fit one frame
    let transport = UdpLoopback::new();
    let cfg = LiveConfig {
        capacity: usize::MAX,
        ..LiveConfig::default()
    };
    let links = bare_links(&transport, 2, &cfg);
    let link = links[1].as_ref().expect("0 -> 1").clone();
    for i in 0..SENDS {
        link.send(i);
    }
    let stats = wait_stats(&link, |s| s.enqueued >= u64::from(SENDS));
    assert_eq!((stats.lost_full, stats.lost_reorder), (0, 0));
    let frames = transport.frame_stats();
    assert!(frames.frames_sent >= 2, "{frames:?}");
    assert!(frames.max_frame_bytes <= 1472, "{frames:?}");
    assert_eq!(frames.records_sent, u64::from(SENDS));
    assert_eq!(frames.frames_received, frames.frames_sent);
    assert_eq!((frames.send_errors, frames.records_rejected), (0, 0));
    for i in 0..SENDS {
        assert_eq!(link.try_recv(), Some(i));
    }
}

/// The injected-loss draw still precedes staging: `loss = 0.3`, seed 7
/// loses exactly the sends it lost when every message was its own
/// datagram (the list is the parent commit's), and a lost send stages
/// nothing.
#[test]
fn seeded_loss_keeps_its_fate_stream_and_stages_nothing_for_a_lost_send() {
    if skip_without_udp("seeded_loss_keeps_its_fate_stream_and_stages_nothing_for_a_lost_send") {
        return;
    }
    const LOST: [u32; 54] = [
        4, 11, 12, 16, 17, 23, 25, 30, 31, 36, 41, 42, 48, 55, 64, 65, 66, 68, 69, 73, 75, 76, 79,
        80, 90, 95, 96, 100, 103, 104, 107, 109, 116, 117, 121, 132, 135, 136, 138, 142, 151, 152,
        155, 157, 158, 159, 169, 172, 173, 176, 180, 185, 188, 191,
    ];
    let transport = UdpLoopback::new();
    let cfg = LiveConfig {
        loss: 0.3,
        seed: 7,
        capacity: usize::MAX,
        ..LiveConfig::default()
    };
    let links = bare_links(&transport, 2, &cfg);
    let link = links[1].as_ref().expect("0 -> 1").clone();
    let lost: Vec<u32> = (0..200u32)
        .filter(|&i| link.send(i) == SendFate::LostInTransit)
        .collect();
    assert_eq!(lost, LOST);
    let survivors = 200 - LOST.len() as u64;
    let stats = wait_stats(&link, |s| s.enqueued >= survivors);
    assert_eq!(stats.lost_in_transit, LOST.len() as u64);
    assert_eq!(transport.frame_stats().records_sent, survivors);
    // What was not lost arrives in send order.
    let arrived: Vec<u32> = std::iter::from_fn(|| link.try_recv()).collect();
    let expected: Vec<u32> = (0..200).filter(|i| !LOST.contains(i)).collect();
    assert_eq!(arrived, expected);
}
