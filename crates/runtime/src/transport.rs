//! The pluggable transport abstraction: what [`crate::MuxRunner`] needs
//! from a message substrate, extracted from [`LiveLink`].
//!
//! A *transport* wires a fully connected topology of `n` processes: for
//! every ordered pair `(from, to)` it produces one directed [`Link`]
//! carrying the paper's §4 channel semantics — FIFO order, bounded
//! capacity with *silent* drop-on-full, fair loss strictly below 1 — plus
//! the runtime's operational surface (per-link counters, receiver
//! wake-up, optional capacity lanes for the sharded service).
//!
//! Two backends implement it:
//!
//! * [`InMemory`] (this crate) — the original [`LiveLink`] path: a
//!   `Mutex`-guarded queue per directed pair, loss and jitter injected by
//!   a seeded per-link RNG. [`crate::MuxRunner::spawn`] and
//!   [`crate::ServiceRun::default`] use it.
//! * `UdpLoopback` (`snapstab-net`) — a real UDP datagram socket, one
//!   per topology: the kernel supplies loss, duplication and finite
//!   buffering for free, and the receive path *enforces* the paper's
//!   semantics per record (FIFO by dropping out-of-order/duplicate
//!   records, per-lane capacity with silent drop-on-full). Its `send`
//!   only stages; the workers move the bytes through [`Link::pump`].
//!
//! ```
//! use snapstab_runtime::{InMemory, Link, LiveConfig, Transport};
//! use snapstab_sim::{ProcessId, SendFate};
//!
//! // Wire a 3-process topology by hand and talk over one link.
//! let transport = InMemory;
//! let links = Transport::<u32>::connect(&transport, 3, &LiveConfig::default(), None).unwrap();
//! let link = links[0 * 3 + 1].as_ref().expect("off-diagonal");
//! assert_eq!(link.send(7), SendFate::Enqueued);
//! assert_eq!(link.try_recv(), Some(7));
//! assert_eq!(link.stats().delivered, 1);
//! ```

use std::sync::Arc;
use std::thread::Thread;

use snapstab_sim::{ProcessId, SendFate};

use crate::link::{LaneOf, LinkStats, LiveLink};
use crate::runner::LiveConfig;

/// Mixes a link's endpoints into the runtime seed, giving every directed
/// link an independent, reproducible RNG stream.
///
/// Every backend derives its per-link loss/jitter streams from this one
/// formula (each further splitting or interleaving streams in its own
/// way), so a given `(backend, config)` pair replays the same injected
/// loss/jitter decisions run after run. Streams are *not* identical
/// across backends — only reproducible within each.
pub fn link_seed(seed: u64, from: ProcessId, to: ProcessId) -> u64 {
    seed ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Asserts the channel-parameter domain of the model, shared by every
/// backend: capacity at least 1 (§4 requires every channel to carry at
/// least one message), loss strictly below 1 (fairness), at least one
/// lane.
pub fn assert_channel_domain(capacity: usize, loss: f64, lanes: usize) {
    assert!(capacity >= 1, "channel capacity must be at least 1");
    assert!(
        (0.0..1.0).contains(&loss),
        "loss probability must be in [0,1) to preserve fairness, got {loss}"
    );
    assert!(lanes >= 1, "a link needs at least one lane");
}

/// One concurrent directed FIFO channel with the paper's §4 semantics —
/// the interface [`crate::MuxRunner`]'s pool drives, extracted from
/// [`LiveLink`].
///
/// Implementations must be thread-safe: the worker stepping the sender
/// calls [`Link::send`] while the one stepping the receiver calls
/// [`Link::try_recv`] (and, for socket backends, any worker's
/// [`Link::pump`] feeds the queue).
pub trait Link<M>: Send + Sync {
    /// Sender side of the link.
    fn from(&self) -> ProcessId;

    /// Receiver side of the link.
    fn to(&self) -> ProcessId;

    /// Offers a message. The transport may destroy it (fair loss) or
    /// silently drop it on a full lane (§4); the sender is never told
    /// beyond the returned [`SendFate`] — and a networked backend cannot
    /// even observe a remote drop, so its fate is a *local* judgment
    /// (e.g. `Enqueued` = handed to the socket). Never blocks beyond a
    /// short critical section.
    fn send(&self, msg: M) -> SendFate;

    /// Removes and returns the head message if one is deliverable now.
    fn try_recv(&self) -> Option<M>;

    /// Number of messages currently queued for delivery.
    fn len(&self) -> usize;

    /// True if nothing is queued for delivery.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the cumulative counters.
    fn stats(&self) -> LinkStats;

    /// Moves whatever the link's transport has buffered, in both
    /// directions, for **every** link of the topology: sends what `send`
    /// staged and delivers what has arrived. The runtime calls it once
    /// per scheduling quantum, on any one link. A transport whose `send`
    /// puts the message in the link itself — [`LiveLink`] — has nothing
    /// to move.
    fn pump(&self) {}

    /// Registers a callback run after every message this link's queue
    /// accepts, outside the link's locks — for a transport whose `send`
    /// returns before the message is in the link, so the sender cannot
    /// wake the receiver itself. The runtime registers its ready-queue
    /// push on every incoming link of every instance.
    fn register_waker(&self, _waker: Arc<dyn Fn() + Send + Sync>) {}
}

impl<M: 'static> dyn Link<M> {
    /// Unparks `receiver` wherever [`Link::register_waker`]'s callback
    /// runs — for code that waits on a bare link from a plain thread, such
    /// as the repo benchmark's UDP micro span. A link whose `send` puts
    /// the message in the queue itself ([`LiveLink`]) runs no callback.
    pub fn register_receiver(&self, receiver: Thread) {
        self.register_waker(Arc::new(move || receiver.unpark()));
    }
}

/// The full directed link matrix of a fully connected `n`-process
/// topology, row-major with `None` on the diagonal: slot `from * n + to`
/// holds the link `from → to`.
pub type LinkMatrix<M> = Vec<Option<Arc<dyn Link<M>>>>;

/// A factory wiring the fully connected topology over some substrate.
///
/// `connect` is fallible because real backends bind OS resources (e.g.
/// UDP sockets); [`InMemory`] never fails. When `lanes` is given, every
/// link enforces the §4 capacity bound *per lane* (see
/// [`LiveLink::with_lanes`]) — this is how the sharded service keeps
/// sibling shards from dropping each other's messages.
pub trait Transport<M> {
    /// Builds the `n × n` link matrix (diagonal `None`) for the given
    /// runtime configuration.
    fn connect(
        &self,
        n: usize,
        config: &LiveConfig,
        lanes: Option<(usize, LaneOf<M>)>,
    ) -> std::io::Result<LinkMatrix<M>>;
}

/// The in-process transport: one [`LiveLink`] per ordered pair, exactly
/// as the pre-[`Transport`] runtime wired them. Infallible; loss and
/// jitter are injected by seeded per-link RNG streams.
#[derive(Clone, Copy, Debug, Default)]
pub struct InMemory;

impl<M: Send + 'static> Transport<M> for InMemory {
    fn connect(
        &self,
        n: usize,
        config: &LiveConfig,
        lanes: Option<(usize, LaneOf<M>)>,
    ) -> std::io::Result<LinkMatrix<M>> {
        let mut links: LinkMatrix<M> = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                links.push((from != to).then(|| {
                    let link: Arc<dyn Link<M>> = Arc::new(match &lanes {
                        None => LiveLink::new(
                            ProcessId::new(from),
                            ProcessId::new(to),
                            config.capacity,
                            config.loss,
                            config.jitter,
                            config.seed,
                        ),
                        Some((lanes, lane_of)) => LiveLink::with_lanes(
                            ProcessId::new(from),
                            ProcessId::new(to),
                            config.capacity,
                            config.loss,
                            config.jitter,
                            config.seed,
                            *lanes,
                            lane_of.clone(),
                        ),
                    });
                    link
                }));
            }
        }
        Ok(links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_builds_a_full_matrix() {
        let cfg = LiveConfig::default();
        let links = Transport::<u32>::connect(&InMemory, 3, &cfg, None).expect("infallible");
        assert_eq!(links.len(), 9);
        for from in 0..3 {
            for to in 0..3 {
                let slot = &links[from * 3 + to];
                if from == to {
                    assert!(slot.is_none(), "diagonal must be empty");
                } else {
                    let link = slot.as_ref().expect("off-diagonal");
                    assert_eq!(link.from(), ProcessId::new(from));
                    assert_eq!(link.to(), ProcessId::new(to));
                    assert!(link.is_empty());
                }
            }
        }
    }

    #[test]
    fn in_memory_links_behave_like_live_links() {
        let cfg = LiveConfig {
            capacity: 1,
            ..LiveConfig::default()
        };
        let links = Transport::<u32>::connect(&InMemory, 2, &cfg, None).expect("infallible");
        let link = links[1].as_ref().expect("0 -> 1");
        assert_eq!(link.send(5), SendFate::Enqueued);
        assert_eq!(link.send(6), SendFate::LostFull, "silent §4 drop");
        assert_eq!(link.len(), 1);
        assert_eq!(link.try_recv(), Some(5));
        assert_eq!(link.try_recv(), None);
        let stats = link.stats();
        assert_eq!((stats.sends, stats.lost_full, stats.delivered), (2, 1, 1));
        assert_eq!(stats.lost_reorder, 0, "in-memory links never reorder");
    }

    #[test]
    fn in_memory_respects_lanes() {
        let cfg = LiveConfig {
            capacity: 1,
            ..LiveConfig::default()
        };
        let lane_of: LaneOf<u32> = Arc::new(|m: &u32| (*m % 2) as usize);
        let links =
            Transport::<u32>::connect(&InMemory, 2, &cfg, Some((2, lane_of))).expect("infallible");
        let link = links[1].as_ref().expect("0 -> 1");
        assert_eq!(link.send(2), SendFate::Enqueued); // lane 0
        assert_eq!(link.send(3), SendFate::Enqueued); // lane 1
        assert_eq!(link.send(4), SendFate::LostFull); // lane 0 full
    }
}
