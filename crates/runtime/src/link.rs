//! `LiveLink` — one concurrent directed FIFO channel with the paper's
//! semantics.
//!
//! A live link is the thread-safe counterpart of the simulator's
//! [`snapstab_sim::Channel`]: bounded capacity with the §4 silent
//! drop-on-full rule, FIFO delivery order, seeded probabilistic in-transit
//! loss (the paper's fair-lossy channels: loss probability is strictly
//! below 1, so infinitely many sends imply infinitely many receipts), and
//! an optional uniform delivery-delay jitter that widens the set of real
//! interleavings a run explores.
//!
//! The queue lives behind a [`Mutex`]; the receiving worker parks when it
//! has nothing to do and the link unparks it on every successful enqueue,
//! so delivery latency is bounded by a thread wake-up, not a poll
//! interval. An atomic mirror of the queue length lets the two outcomes
//! that change nothing — polling an empty link, offering to a full one —
//! skip the mutex (see [`LiveLink`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use snapstab_sim::{ProcessId, SendFate, SimRng};

/// Classifies messages into capacity lanes — see [`LiveLink::with_lanes`].
pub type LaneOf<M> = Arc<dyn Fn(&M) -> usize + Send + Sync>;

/// Cumulative counters of one directed link.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Send attempts offered to the link.
    pub sends: u64,
    /// Messages that entered the queue.
    pub enqueued: u64,
    /// Messages lost to the §4 drop-on-full rule.
    pub lost_full: u64,
    /// Messages lost in transit by the loss model.
    pub lost_in_transit: u64,
    /// Messages dropped by a networked receiver to preserve FIFO order:
    /// out-of-order or duplicate datagrams (always 0 for [`LiveLink`],
    /// whose queue cannot reorder).
    pub lost_reorder: u64,
    /// Messages handed to the receiver.
    pub delivered: u64,
}

impl LinkStats {
    /// Folds another link's counters into this one.
    pub fn absorb(&mut self, other: LinkStats) {
        self.sends += other.sends;
        self.enqueued += other.enqueued;
        self.lost_full += other.lost_full;
        self.lost_in_transit += other.lost_in_transit;
        self.lost_reorder += other.lost_reorder;
        self.delivered += other.delivered;
    }
}

struct LinkInner<M> {
    /// In-flight messages with the instant they become deliverable
    /// (`None` = immediately) and the lane they occupy.
    queue: VecDeque<(M, Option<Instant>, usize)>,
    /// Current occupancy per lane; the §4 capacity bound is enforced
    /// against the message's lane, not the whole queue.
    lane_len: Vec<usize>,
    /// Per-link loss/jitter stream, seeded from the runtime seed and the
    /// link's endpoints, so the sequence of loss decisions on a link is
    /// reproducible regardless of thread timing.
    rng: SimRng,
    stats: LinkStats,
    /// The receiving worker's thread, unparked on enqueue. Re-registered
    /// on worker restart.
    receiver: Option<Thread>,
}

/// A concurrent directed FIFO channel `from → to` with bounded capacity,
/// drop-on-full, seeded probabilistic loss and optional delivery jitter.
///
/// ```
/// use snapstab_runtime::LiveLink;
/// use snapstab_sim::{ProcessId, SendFate};
///
/// // A capacity-2 lossless link: FIFO, with the §4 silent drop-on-full.
/// let link: LiveLink<u32> = LiveLink::new(ProcessId::new(0), ProcessId::new(1), 2, 0.0, None, 42);
/// assert_eq!(link.send(10), SendFate::Enqueued);
/// assert_eq!(link.send(20), SendFate::Enqueued);
/// assert_eq!(link.send(30), SendFate::LostFull); // the sender is not told
/// assert_eq!(link.try_recv(), Some(10));
/// assert_eq!(link.try_recv(), Some(20));
/// assert_eq!(link.try_recv(), None);
/// assert_eq!(link.stats().lost_full, 1);
/// ```
///
/// # The occupancy mirror
///
/// `occupancy` mirrors `queue.len()`. It is stored with `Release` while
/// the queue mutex is held (on every push and pop), so each value it
/// ever holds was the true length at the moment of the store, and it is
/// loaded with `Acquire` *without* the mutex by the two paths that would
/// otherwise lock only to find nothing to do:
///
/// * [`LiveLink::try_recv`] returns `None` when the mirror reads 0.
/// * [`LiveLink::send`] on a single-lane link with `loss == 0.0` returns
///   [`SendFate::LostFull`] when the mirror reads `>= capacity`, counting
///   the drop in an atomic that [`LiveLink::stats`] folds into `sends`
///   and `lost_full`. A link with `loss > 0.0` or several lanes always
///   takes the mutex, so the per-link seeded RNG draws exactly as before
///   (the loss draw precedes the capacity check) and lanes are judged by
///   their own occupancy.
///
/// Both unlocked outcomes linearise. A load can only be *stale* — return
/// a length an already finished push or pop has replaced — when nothing
/// orders that push or pop before the load; otherwise the `Release` store
/// is visible to the `Acquire` load through that ordering.
///
/// * A stale "full" is therefore a send ordered immediately **before**
///   the concurrent pop: the queue really was full then, and §4 drops it.
/// * A stale "empty" is a poll ordered immediately **before** the
///   concurrent push. The poller is not stranded, because every sender
///   follows an `Enqueued` send with a wake-up of the receiver that
///   synchronises with it: this link unparks the registered receiver
///   thread (`unpark` → `park` synchronise), and the mux backend pushes
///   the receiver onto its ready queue (`MuxShared::enqueue`). The poll
///   that follows the wake-up sees the message.
pub struct LiveLink<M> {
    from: ProcessId,
    to: ProcessId,
    /// Capacity **per lane** (single-lane links: the plain §4 capacity).
    capacity: usize,
    loss: f64,
    jitter: Option<Duration>,
    /// Maps a message to its lane; `None` = everything in lane 0.
    lane_of: Option<LaneOf<M>>,
    lanes: usize,
    /// `queue.len()`, written under the `inner` lock — see the type docs.
    occupancy: AtomicUsize,
    /// Drops taken on the unlocked full path; a statistic, so `Relaxed`.
    unlocked_lost_full: AtomicU64,
    inner: Mutex<LinkInner<M>>,
}

impl<M> LiveLink<M> {
    /// Creates an empty link.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (the model requires every channel to
    /// carry at least one message) or `loss` is outside `[0, 1)` (loss
    /// probability 1 would violate the paper's fairness assumption).
    pub fn new(
        from: ProcessId,
        to: ProcessId,
        capacity: usize,
        loss: f64,
        jitter: Option<Duration>,
        seed: u64,
    ) -> Self {
        Self::build(from, to, capacity, loss, jitter, seed, 1, None)
    }

    /// Creates an empty **multi-lane** link: one FIFO queue shared by
    /// `lanes` message classes, with the §4 capacity bound (and its
    /// silent drop-on-full) enforced *per lane*. `lane_of` classifies
    /// each message; out-of-range lanes clamp to the last lane.
    ///
    /// This is how the sharded mutex service shares one physical link per
    /// ordered process pair among `S` independent protocol instances:
    /// every instance sees exactly a capacity-`capacity` channel of its
    /// own (so the paper's flag-domain sizing still applies per
    /// instance), while delivery order stays FIFO overall — and therefore
    /// FIFO within each lane.
    ///
    /// # Panics
    ///
    /// As [`LiveLink::new`]; additionally if `lanes` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn with_lanes(
        from: ProcessId,
        to: ProcessId,
        capacity: usize,
        loss: f64,
        jitter: Option<Duration>,
        seed: u64,
        lanes: usize,
        lane_of: LaneOf<M>,
    ) -> Self {
        Self::build(from, to, capacity, loss, jitter, seed, lanes, Some(lane_of))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        from: ProcessId,
        to: ProcessId,
        capacity: usize,
        loss: f64,
        jitter: Option<Duration>,
        seed: u64,
        lanes: usize,
        lane_of: Option<LaneOf<M>>,
    ) -> Self {
        crate::transport::assert_channel_domain(capacity, loss, lanes);
        let link_seed = crate::transport::link_seed(seed, from, to);
        LiveLink {
            from,
            to,
            capacity,
            loss,
            jitter,
            lane_of,
            lanes,
            occupancy: AtomicUsize::new(0),
            unlocked_lost_full: AtomicU64::new(0),
            inner: Mutex::new(LinkInner {
                queue: VecDeque::with_capacity((capacity * lanes).min(64)),
                lane_len: vec![0; lanes],
                rng: SimRng::seed_from(link_seed),
                stats: LinkStats::default(),
                receiver: None,
            }),
        }
    }

    /// Sender side of the link.
    pub fn from(&self) -> ProcessId {
        self.from
    }

    /// Receiver side of the link.
    pub fn to(&self) -> ProcessId {
        self.to
    }

    /// Registers (or replaces, after a worker restart) the receiving
    /// thread to unpark on enqueue.
    pub fn register_receiver(&self, receiver: Thread) {
        self.inner.lock().expect("link poisoned").receiver = Some(receiver);
    }

    /// Offers a message: the loss model may destroy it in transit, a full
    /// queue silently drops it (§4), otherwise it is enqueued (with a
    /// jittered ready instant when configured) and the receiver is
    /// unparked. Never blocks beyond the queue mutex, and a lossless
    /// single-lane link that is full does not take it at all.
    pub fn send(&self, msg: M) -> SendFate {
        if self.lanes == 1
            && self.loss == 0.0
            && self.occupancy.load(Ordering::Acquire) >= self.capacity
        {
            self.unlocked_lost_full.fetch_add(1, Ordering::Relaxed);
            return SendFate::LostFull;
        }
        let lane = self
            .lane_of
            .as_ref()
            .map(|f| f(&msg).min(self.lanes - 1))
            .unwrap_or(0);
        let wake;
        let fate;
        {
            let mut inner = self.inner.lock().expect("link poisoned");
            inner.stats.sends += 1;
            if self.loss > 0.0 && inner.rng.gen_bool(self.loss) {
                inner.stats.lost_in_transit += 1;
                return SendFate::LostInTransit;
            }
            if inner.lane_len[lane] >= self.capacity {
                inner.stats.lost_full += 1;
                return SendFate::LostFull;
            }
            let ready = self.jitter.map(|j| {
                let span = j.as_nanos().max(1) as usize;
                Instant::now() + Duration::from_nanos(inner.rng.gen_range(0..span) as u64)
            });
            inner.queue.push_back((msg, ready, lane));
            self.occupancy.store(inner.queue.len(), Ordering::Release);
            inner.lane_len[lane] += 1;
            inner.stats.enqueued += 1;
            wake = inner.receiver.clone();
            fate = SendFate::Enqueued;
        }
        if let Some(t) = wake {
            t.unpark();
        }
        fate
    }

    /// Removes and returns the head message if one is present and its
    /// jittered ready instant has passed. An empty link costs one load.
    pub fn try_recv(&self) -> Option<M> {
        if self.occupancy.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut inner = self.inner.lock().expect("link poisoned");
        match inner.queue.front() {
            None => None,
            Some((_, Some(ready), _)) if Instant::now() < *ready => None,
            Some(_) => {
                let (m, _, lane) = inner.queue.pop_front().expect("front checked");
                self.occupancy.store(inner.queue.len(), Ordering::Release);
                inner.lane_len[lane] -= 1;
                inner.stats.delivered += 1;
                Some(m)
            }
        }
    }

    /// Number of messages currently in flight.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("link poisoned").queue.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the cumulative counters.
    pub fn stats(&self) -> LinkStats {
        let mut stats = self.inner.lock().expect("link poisoned").stats;
        let unlocked = self.unlocked_lost_full.load(Ordering::Relaxed);
        stats.sends += unlocked;
        stats.lost_full += unlocked;
        stats
    }
}

/// `LiveLink` is the in-memory [`Link`](crate::Link) backend — every
/// trait method forwards to the inherent one.
impl<M: Send> crate::transport::Link<M> for LiveLink<M> {
    fn from(&self) -> ProcessId {
        self.from
    }

    fn to(&self) -> ProcessId {
        self.to
    }

    fn register_receiver(&self, receiver: Thread) {
        LiveLink::register_receiver(self, receiver);
    }

    fn send(&self, msg: M) -> SendFate {
        LiveLink::send(self, msg)
    }

    fn try_recv(&self) -> Option<M> {
        LiveLink::try_recv(self)
    }

    fn len(&self) -> usize {
        LiveLink::len(self)
    }

    fn stats(&self) -> LinkStats {
        LiveLink::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fifo_order_and_drop_on_full() {
        let link: LiveLink<u32> = LiveLink::new(p(0), p(1), 2, 0.0, None, 7);
        assert_eq!(link.send(1), SendFate::Enqueued);
        assert_eq!(link.send(2), SendFate::Enqueued);
        assert_eq!(link.send(3), SendFate::LostFull, "silent drop on full");
        assert_eq!(link.try_recv(), Some(1));
        assert_eq!(link.try_recv(), Some(2));
        assert_eq!(link.try_recv(), None);
        let s = link.stats();
        assert_eq!(
            (s.sends, s.enqueued, s.lost_full, s.delivered),
            (3, 2, 1, 2)
        );
    }

    #[test]
    fn probabilistic_loss_is_roughly_p_and_seeded() {
        let run = |seed| {
            let link: LiveLink<u32> = LiveLink::new(p(0), p(1), usize::MAX, 0.3, None, seed);
            for i in 0..10_000 {
                let _ = link.send(i);
                let _ = link.try_recv();
            }
            link.stats().lost_in_transit
        };
        let lost = run(1);
        assert!((2_500..3_500).contains(&lost), "lost {lost} of 10000");
        assert_eq!(lost, run(1), "same seed, same loss sequence");
        assert_ne!(lost, run(2), "different seed, different sequence");
    }

    #[test]
    fn jitter_delays_delivery_but_not_forever() {
        let link: LiveLink<u32> =
            LiveLink::new(p(0), p(1), 1, 0.0, Some(Duration::from_millis(2)), 3);
        assert_eq!(link.send(9), SendFate::Enqueued);
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            if let Some(m) = link.try_recv() {
                assert_eq!(m, 9);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "jittered message never became ready"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn lanes_enforce_capacity_independently_and_keep_fifo() {
        // Two lanes of capacity 1: even lane for even payloads.
        let lane_of: super::LaneOf<u32> = Arc::new(|m: &u32| (*m % 2) as usize);
        let link: LiveLink<u32> = LiveLink::with_lanes(p(0), p(1), 1, 0.0, None, 5, 2, lane_of);
        assert_eq!(link.send(2), SendFate::Enqueued); // lane 0
        assert_eq!(link.send(3), SendFate::Enqueued); // lane 1: not blocked by lane 0
        assert_eq!(link.send(4), SendFate::LostFull, "lane 0 is full");
        assert_eq!(link.send(5), SendFate::LostFull, "lane 1 is full");
        assert_eq!(link.len(), 2);
        // Global FIFO: lane 0's message went in first.
        assert_eq!(link.try_recv(), Some(2));
        // Its slot is free again while lane 1 still holds its message.
        assert_eq!(link.send(6), SendFate::Enqueued);
        assert_eq!(link.send(7), SendFate::LostFull);
        assert_eq!(link.try_recv(), Some(3));
        assert_eq!(link.try_recv(), Some(6));
        assert_eq!(link.try_recv(), None);
        let s = link.stats();
        assert_eq!((s.enqueued, s.lost_full, s.delivered), (3, 3, 3));
    }

    #[test]
    fn out_of_range_lane_clamps() {
        let lane_of: super::LaneOf<u32> = Arc::new(|m: &u32| *m as usize);
        let link: LiveLink<u32> = LiveLink::with_lanes(p(0), p(1), 1, 0.0, None, 5, 2, lane_of);
        assert_eq!(link.send(99), SendFate::Enqueued, "clamped to lane 1");
        assert_eq!(link.send(1), SendFate::LostFull, "lane 1 occupied");
        assert_eq!(link.try_recv(), Some(99));
    }

    /// A sender thread offers `0..SENDS` while a receiver thread drains,
    /// both released by one barrier, so the unlocked empty and full
    /// outcomes race the locked push and pop. Checks the counter
    /// identities, FIFO order and the capacity bound; returns the
    /// counters for case-specific pins.
    fn hammer(link: &LiveLink<u32>) -> LinkStats {
        const SENDS: u32 = 20_000;
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut received = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for i in 0..SENDS {
                    let _ = link.send(i);
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            loop {
                // Read before draining: a send cannot follow a `true`.
                let finished = done.load(Ordering::Acquire);
                assert!(link.len() <= link.capacity, "occupancy above capacity");
                while let Some(m) = link.try_recv() {
                    received.push(m);
                }
                if finished {
                    break;
                }
            }
        });
        let s = link.stats();
        assert_eq!(s.sends, u64::from(SENDS));
        assert_eq!(s.sends, s.enqueued + s.lost_full + s.lost_in_transit);
        assert_eq!(s.delivered + link.len() as u64, s.enqueued);
        assert_eq!(received.len() as u64, s.delivered);
        assert!(received.windows(2).all(|w| w[0] < w[1]), "FIFO order");
        s
    }

    #[test]
    fn concurrent_accounting_holds_on_the_unlocked_paths() {
        for capacity in [1, 3] {
            let link: LiveLink<u32> = LiveLink::new(p(0), p(1), capacity, 0.0, None, 1);
            let s = hammer(&link);
            assert_eq!(s.lost_in_transit, 0);
        }
    }

    #[test]
    fn lossy_link_draws_once_per_send_even_when_full() {
        // The loss draw precedes the capacity check, so the number of
        // in-transit losses among 20 000 sends is a function of the seed
        // alone, whatever the interleaving: the value below is what the
        // always-locked link produced. A full lossy link that returned
        // `LostFull` without drawing would come out lower.
        let link: LiveLink<u32> = LiveLink::new(p(0), p(1), 1, 0.3, None, 1);
        let s = hammer(&link);
        assert_eq!(s.lost_in_transit, 6_102);
    }

    #[test]
    fn zero_capacity_rejected() {
        let r = std::panic::catch_unwind(|| LiveLink::<u8>::new(p(0), p(1), 0, 0.0, None, 0));
        assert!(r.is_err());
    }

    #[test]
    fn full_loss_rejected() {
        let r = std::panic::catch_unwind(|| LiveLink::<u8>::new(p(0), p(1), 1, 1.0, None, 0));
        assert!(r.is_err());
    }
}
