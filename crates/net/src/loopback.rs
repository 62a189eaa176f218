//! [`UdpLoopback`] — the orchestration layer: binds **one** UDP socket on
//! `127.0.0.1` per connected topology and wires the full `n × n`
//! [`UdpLink`] matrix onto the hub that owns it.
//!
//! This is the single-host ("loopback") deployment of the transport: all
//! `n` processes live in one OS process and share the socket, but every
//! message crosses the kernel's UDP stack and the host's loopback
//! interface — real syscalls, real finite buffers — coalesced with the
//! rest of its scheduling quantum's output into one frame (see
//! [`crate::link`]). A multi-host deployment would give each host a hub
//! with remote peer addresses; the `Protocol`-facing surface is identical.

use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};

use snapstab_runtime::{LaneOf, Link, LinkMatrix, LiveConfig, Transport};
use snapstab_sim::ProcessId;

use crate::link::{FrameCounters, FrameStats, Hub, UdpLink};
use crate::wire::Wire;

/// What [`UdpLoopback`] remembers of its most recent `connect`.
struct Connected {
    n: usize,
    socket: Arc<UdpSocket>,
    addr: SocketAddr,
    frames: Arc<FrameCounters>,
}

/// A UDP transport over `127.0.0.1`: implements [`Transport`] by binding
/// one ephemeral socket per `connect` and handing out links that share
/// it.
///
/// The object runs nothing — no thread, no timer: the links share their
/// hub among themselves and the runtime's workers move the frames. What
/// the transport keeps is a handle on the most recent topology's socket
/// and frame counters, for tests that inject raw datagrams and reports
/// that print [`FrameStats`].
///
/// ```
/// use snapstab_net::UdpLoopback;
/// use snapstab_runtime::{run_mutex_service_on, LiveConfig, MutexServiceConfig};
/// use std::time::Duration;
///
/// # if !snapstab_net::udp_available() { return; } // skip in socketless sandboxes
/// // Three workers exchanging Algorithm 3 messages through a real socket.
/// let transport = UdpLoopback::new();
/// let report = run_mutex_service_on(
///     &MutexServiceConfig {
///         n: 3,
///         requests_per_process: 1,
///         time_budget: Duration::from_secs(30),
///         ..MutexServiceConfig::default()
///     },
///     &transport,
/// )
/// .expect("bind the loopback socket");
/// assert_eq!(report.served, 3);
/// // Every staged record left in some frame, usually several to a frame.
/// let frames = transport.frame_stats();
/// assert!(frames.frames_sent >= 1 && frames.records_sent >= frames.frames_sent);
/// ```
#[derive(Default)]
pub struct UdpLoopback {
    last: Mutex<Option<Connected>>,
}

impl UdpLoopback {
    /// Creates a transport with no socket bound yet; each
    /// [`Transport::connect`] call binds a fresh one.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_last<R: Default>(&self, f: impl FnOnce(&Connected) -> R) -> R {
        let last = self.last.lock().expect("last connect poisoned");
        last.as_ref().map(f).unwrap_or_default()
    }

    /// The address every process of the most recent [`Transport::connect`]
    /// receives on, once per process: all `n` entries are the hub's one
    /// socket. Empty before the first call.
    pub fn endpoint_addrs(&self) -> Vec<SocketAddr> {
        self.with_last(|c| vec![c.addr; c.n])
    }

    /// The socket process `i` of the most recent connect sends from — the
    /// hub's one socket, whatever `i` — the handle raw-datagram tests
    /// send crafted frames *from*, playing a misbehaving network. The
    /// pump drops frames from any other source address unparsed, so
    /// crafted traffic must leave the genuine socket.
    ///
    /// # Panics
    ///
    /// Panics before the first connect, or if `i` is not a process of it.
    pub fn endpoint_socket(&self, i: usize) -> Arc<UdpSocket> {
        let last = self.last.lock().expect("last connect poisoned");
        let connected = last.as_ref().expect("no topology connected yet");
        assert!(i < connected.n, "process {i} of {}", connected.n);
        connected.socket.clone()
    }

    /// The frame counters of the most recent [`Transport::connect`]'s
    /// topology, live: frames and records sent, frames received, what was
    /// rejected and why. All zero before the first call.
    pub fn frame_stats(&self) -> FrameStats {
        self.with_last(|c| c.frames.snapshot())
    }
}

/// True if this environment lets us bind (and talk over) UDP loopback
/// sockets — the guard the UDP tests use to *skip-and-warn* inside
/// sandboxes that forbid socket creation.
pub fn udp_available() -> bool {
    let Ok(a) = UdpSocket::bind(("127.0.0.1", 0)) else {
        return false;
    };
    let Ok(b) = UdpSocket::bind(("127.0.0.1", 0)) else {
        return false;
    };
    let Ok(addr) = b.local_addr() else {
        return false;
    };
    a.send_to(&[0xD5], addr).is_ok()
}

impl<M: Wire + Send + 'static> Transport<M> for UdpLoopback {
    fn connect(
        &self,
        n: usize,
        config: &LiveConfig,
        lanes: Option<(usize, LaneOf<M>)>,
    ) -> std::io::Result<LinkMatrix<M>> {
        let (lane_count, lane_of) = match lanes {
            Some((count, f)) => (count, Some(f)),
            None => (1, None),
        };
        let hub = Arc::new(Hub::bind(n, config, lane_count)?);
        *self.last.lock().expect("last connect poisoned") = Some(Connected {
            n,
            socket: hub.socket.clone(),
            addr: hub.addr,
            frames: hub.counters.clone(),
        });
        let mut matrix: LinkMatrix<M> = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                matrix.push((from != to).then(|| {
                    let link: Arc<dyn Link<M>> = Arc::new(UdpLink::new(
                        hub.clone(),
                        ProcessId::new(from),
                        ProcessId::new(to),
                        config,
                        lane_count,
                        lane_of.clone(),
                    ));
                    link
                }));
            }
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_sim::SendFate;
    use std::time::{Duration, Instant};

    fn recv_within<M>(link: &Arc<dyn Link<M>>, secs: u64) -> Option<M> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            if let Some(m) = link.try_recv() {
                return Some(m);
            }
            std::thread::yield_now();
        }
        None
    }

    #[test]
    fn connect_builds_a_working_matrix() {
        if !udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let transport = UdpLoopback::new();
        let links =
            Transport::<u32>::connect(&transport, 3, &LiveConfig::default(), None).expect("bind");
        assert_eq!(links.len(), 9);
        assert_eq!(transport.endpoint_addrs().len(), 3);
        // Every directed pair carries a message.
        for from in 0..3usize {
            for to in 0..3usize {
                let Some(link) = links[from * 3 + to].as_ref() else {
                    assert_eq!(from, to);
                    continue;
                };
                let payload = (from * 10 + to) as u32;
                assert_eq!(link.send(payload), SendFate::Enqueued);
                assert_eq!(recv_within(link, 5), Some(payload), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn seeded_injected_loss_is_reproducible() {
        if !udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return;
        }
        let run = |seed: u64| {
            let transport = UdpLoopback::new();
            let cfg = LiveConfig {
                loss: 0.3,
                seed,
                capacity: usize::MAX,
                ..LiveConfig::default()
            };
            let links = Transport::<u32>::connect(&transport, 2, &cfg, None).expect("bind");
            let link = links[1].as_ref().expect("0 -> 1");
            let mut fates = Vec::new();
            for i in 0..200 {
                fates.push(link.send(i) == SendFate::LostInTransit);
            }
            let lost = fates.iter().filter(|&&l| l).count();
            assert!((20..=100).contains(&lost), "lost {lost} of 200");
            fates
        };
        assert_eq!(run(7), run(7), "same seed, same injected-loss stream");
        assert_ne!(run(7), run(8), "different seed, different stream");
    }
}
