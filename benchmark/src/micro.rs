//! Micro spans of the traced run: the per-message primitives under the
//! live workloads, timed in isolation on seeded `MeMsg` values so their
//! share of a serving window can be estimated from outside.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use snapstab_core::me::MeMsg;
use snapstab_net::wire::{decode_exact, encode_datagram, Header, HEADER_LEN};
use snapstab_net::{udp_available, UdpLoopback};
use snapstab_runtime::{InMemory, Link, LiveConfig, Transport};
use snapstab_sim::{ArbitraryState, SimRng};

use crate::spans::Recorder;

/// In-memory operations per micro span (each takes tens of ns).
const MEMORY_OPS: usize = 400_000;
/// Datagram round trips of the UDP micro span (each takes a few µs).
const UDP_OPS: usize = 20_000;
/// Size of the in-memory link matrix the link span cycles over.
const LINK_N: usize = 8;

/// Nanoseconds per operation of each primitive.
#[derive(Default)]
pub struct Micro {
    /// `Link::send` + `try_recv` on an `InMemory` link matrix.
    pub link_ns: f64,
    /// `encode_datagram` of one `MeMsg`.
    pub encode_ns: f64,
    /// `decode_exact` of one `MeMsg` payload.
    pub decode_ns: f64,
    /// `send` to `try_recv` on a `UdpLoopback` link, the demux thread's
    /// wake-up included; 0 where UDP sockets are unavailable.
    pub udp_link_ns: f64,
    /// Connecting a `UdpLoopback` matrix of [`LINK_N`] processes (binding
    /// sockets, starting demux threads), in milliseconds; 0 likewise.
    pub udp_connect_ms: f64,
}

pub fn run(seed: u64, rec: &mut Recorder, repeat: u32) -> io::Result<Micro> {
    let mut rng = SimRng::seed_from(seed);
    let msgs: Vec<MeMsg> = (0..64).map(|_| MeMsg::arbitrary(&mut rng)).collect();
    let config = LiveConfig {
        seed,
        ..LiveConfig::default()
    };

    let matrix = Transport::<MeMsg>::connect(&InMemory, LINK_N, &config, None)?;
    let links: Vec<&dyn Link<MeMsg>> = matrix.iter().flatten().map(|l| l.as_ref()).collect();
    let link_ns = rec.time("micro.link", None, repeat, || {
        per_op_ns(MEMORY_OPS, |i| {
            let link = links[i % links.len()];
            black_box(link.send(msgs[i % msgs.len()].clone()));
            black_box(link.try_recv());
        })
    });

    let mut buf = Vec::with_capacity(64);
    let encode_ns = rec.time("micro.encode", None, repeat, || {
        per_op_ns(MEMORY_OPS, |i| {
            encode_datagram(header(i as u64), black_box(&msgs[i % msgs.len()]), &mut buf);
            black_box(&buf);
        })
    });

    let payloads: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            encode_datagram(header(1), m, &mut buf);
            buf[HEADER_LEN..].to_vec()
        })
        .collect();
    let decode_ns = rec.time("micro.decode", None, repeat, || {
        per_op_ns(MEMORY_OPS, |i| {
            black_box(decode_exact::<MeMsg>(black_box(
                &payloads[i % payloads.len()],
            )));
        })
    });

    let (udp_link_ns, udp_connect_ms) = if udp_available() {
        let udp = UdpLoopback::new();
        let began = Instant::now();
        let matrix = rec.time("micro.udp_connect", None, repeat, || {
            Transport::<MeMsg>::connect(&udp, LINK_N, &config, None)
        })?;
        let udp_connect_ms = began.elapsed().as_secs_f64() * 1e3;
        let link = matrix[1].as_ref().expect("the 0 -> 1 link is off-diagonal");
        link.register_receiver(std::thread::current());
        let udp_link_ns = rec.time("micro.udp_link", None, repeat, || {
            per_op_ns(UDP_OPS, |i| {
                link.send(msgs[i % msgs.len()].clone());
                // Loopback may drop a datagram; give up on it after a
                // while instead of waiting forever.
                let deadline = Instant::now() + Duration::from_millis(100);
                while link.try_recv().is_none() && Instant::now() < deadline {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            })
        });
        (udp_link_ns, udp_connect_ms)
    } else {
        (0.0, 0.0)
    };

    Ok(Micro {
        link_ns,
        encode_ns,
        decode_ns,
        udp_link_ns,
        udp_connect_ms,
    })
}

fn header(seq: u64) -> Header {
    Header {
        from: 0,
        to: 1,
        lane: 0,
        seq,
    }
}

fn per_op_ns(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    for i in 0..ops {
        op(i);
    }
    began.elapsed().as_secs_f64() * 1e9 / ops as f64
}
