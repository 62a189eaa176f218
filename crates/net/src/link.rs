//! [`UdpLink`] — one directed link whose messages cross a UDP socket, with
//! the paper's §4 channel semantics enforced in the receive path — and the
//! `Hub` its topology shares: one socket, one frame being staged, and the
//! receive half of every link.
//!
//! UDP already *is* most of the paper's computational model: datagrams
//! are lost, duplicated and reordered by the network, and kernel socket
//! buffers are finite. What UDP does not promise — FIFO order and a
//! *known* per-link capacity bound — the receive path enforces, record by
//! record:
//!
//! | §4 property | mechanism |
//! |---|---|
//! | FIFO, duplication-free | per-link sequence numbers; a record whose `seq` is not strictly greater than the last one judged is dropped (`lost_reorder`) |
//! | bounded capacity, silent drop-on-full | a bounded per-lane delivery queue; a record arriving at a full lane is dropped and counted (`lost_full`), the sender learns nothing |
//! | fair loss (probability < 1) | the network's own loss, plus a seeded injected stream on the send side for reproducible experiments (`lost_in_transit`) |
//! | eventual delivery | the runtime's periodic sweep keeps re-activating every process, so retransmissions keep coming; a fair-lossy link delivers infinitely often |
//!
//! # I/O model: stage, then pump
//!
//! No thread belongs to the transport. [`UdpLink::send`] *stages* its
//! record — header and payload appended to the hub's frame — and
//! [`Link::pump`] *moves*: it sends the staged frame as one datagram to
//! the hub's own address, then reads the socket until it would block,
//! splitting every frame back into records and handing each to the
//! receive half of the link named in its header. The runtimes call `pump`
//! once per scheduling quantum, so a quantum's output (nine or ten
//! records on the n = 8 mutex service) costs one `send_to` and one
//! `recv_from` instead of one of each per message. A frame never exceeds
//! `FRAME_BUDGET` bytes; staging past it sends the full frame first.
//!
//! A link used with no runtime still works: [`UdpLink::try_recv`] on an
//! empty queue pumps when — and only when — this link has sent records
//! its own receive half has not judged yet, and [`UdpLink::stats`] and
//! [`UdpLink::len`] pump before they read.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use snapstab_runtime::{LaneOf, Link, LinkStats, LiveConfig};
use snapstab_sim::{ProcessId, SendFate, SimRng};

use crate::wire::{decode_datagram, encode_record, Header, Wire, WireReader};

/// Upper bound on a frame: the UDP payload of one 1 500-byte Ethernet
/// packet, so a frame is never fragmented on a real link either. (One
/// record larger than this would travel alone; no message type the
/// protocols exchange comes near it.)
pub(crate) const FRAME_BUDGET: usize = 1472;

/// Receive buffer of a pump: larger than any frame this crate sends. A
/// longer datagram is foreign; the kernel truncates it and its cut record
/// fails to parse.
const RECV_BUF: usize = 2048;

/// Cumulative frame-level counters of one connected topology — what
/// [`LinkStats`] cannot see, because a frame carries many links' records.
/// Read them with [`UdpLoopback::frame_stats`](crate::UdpLoopback::frame_stats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FrameStats {
    /// Frames handed to the socket (one `send_to` each).
    pub frames_sent: u64,
    /// Records those frames carried; `records_sent / frames_sent` is the
    /// messages-per-syscall the coalescing achieves.
    pub records_sent: u64,
    /// Frames read from the socket that came from the hub's own address.
    pub frames_received: u64,
    /// Records that did not parse or named no link of the topology. Each
    /// one also discards the rest of its frame (fair loss), which is not
    /// counted: its length is unknowable.
    pub records_rejected: u64,
    /// Datagrams from any other source address, dropped unparsed.
    pub frames_foreign: u64,
    /// Frames the kernel refused. Every record in one was already
    /// answered `Enqueued`, so no [`LinkStats`] counter shows the loss.
    pub send_errors: u64,
    /// Size of the largest frame sent, in bytes.
    pub max_frame_bytes: u64,
}

/// [`FrameStats`] as the hub updates it. Statistics that publish no other
/// data, hence `Relaxed` throughout.
#[derive(Default)]
pub(crate) struct FrameCounters {
    frames_sent: AtomicU64,
    records_sent: AtomicU64,
    frames_received: AtomicU64,
    records_rejected: AtomicU64,
    frames_foreign: AtomicU64,
    send_errors: AtomicU64,
    max_frame_bytes: AtomicU64,
}

impl FrameCounters {
    pub(crate) fn snapshot(&self) -> FrameStats {
        FrameStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            records_sent: self.records_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            records_rejected: self.records_rejected.load(Ordering::Relaxed),
            frames_foreign: self.frames_foreign.load(Ordering::Relaxed),
            send_errors: self.send_errors.load(Ordering::Relaxed),
            max_frame_bytes: self.max_frame_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The frame under construction.
#[derive(Default)]
struct Stage {
    frame: Vec<u8>,
    records: u64,
}

/// What one connected topology shares: the socket, the frame being
/// staged, and the `n × n` table of receive halves. Links hold an `Arc`
/// of it and nothing in it points back at a link.
///
/// Lock order: a link's send lock → `stage`; `rx` → `stage`; `rx` → one
/// inbox. No path holds two inboxes, or an inbox and `stage`.
pub(crate) struct Hub<M> {
    /// Bound on `127.0.0.1:0`, non-blocking; frames go to its own `addr`.
    pub(crate) socket: Arc<UdpSocket>,
    pub(crate) addr: SocketAddr,
    n: usize,
    /// Held across `send_to`, so frames leave in the order they were
    /// filled and a link's records reach the wire in `seq` order.
    stage: Mutex<Stage>,
    /// The pump's receive buffer. Holding it *is* pumping: one at a time.
    rx: Mutex<Vec<u8>>,
    /// Row-major, slot `from * n + to`, `None` on the diagonal.
    inboxes: Vec<Option<Inbox<M>>>,
    pub(crate) counters: Arc<FrameCounters>,
}

impl<M: Wire> Hub<M> {
    /// Binds the socket and builds every receive half.
    ///
    /// # Panics
    ///
    /// As the in-memory link: zero `capacity`, `loss` outside `[0, 1)`
    /// or zero `lanes` are out of the model's domain.
    pub(crate) fn bind(n: usize, config: &LiveConfig, lanes: usize) -> std::io::Result<Self> {
        snapstab_runtime::transport::assert_channel_domain(config.capacity, config.loss, lanes);
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let inboxes = (0..n * n)
            .map(|slot| {
                let (from, to) = (slot / n, slot % n);
                (from != to)
                    .then(|| Inbox::new(ProcessId::new(from), ProcessId::new(to), config, lanes))
            })
            .collect();
        Ok(Hub {
            socket: Arc::new(socket),
            addr,
            n,
            stage: Mutex::new(Stage::default()),
            rx: Mutex::new(vec![0; RECV_BUF]),
            inboxes,
            counters: Arc::default(),
        })
    }

    /// Appends one record to the frame. A record that would push the
    /// frame past [`FRAME_BUDGET`] sends what was staged before it first.
    fn stage(&self, header: Header, msg: &M) {
        let mut stage = self.stage.lock().expect("stage poisoned");
        let start = stage.frame.len();
        encode_record(header, msg, &mut stage.frame);
        if stage.frame.len() > FRAME_BUDGET {
            self.flush(&mut stage, start);
        }
        stage.records += 1;
    }

    /// Sends the first `upto` staged bytes — every record counted so far —
    /// as one frame: one `send_to`, with its counters. A frame the kernel
    /// refuses is gone: its records were answered `Enqueued`, and fair
    /// loss absorbs them.
    fn flush(&self, stage: &mut Stage, upto: usize) {
        if upto == 0 {
            return;
        }
        let records = std::mem::take(&mut stage.records);
        let c = &self.counters;
        match self.socket.send_to(&stage.frame[..upto], self.addr) {
            Ok(_) => {
                c.frames_sent.fetch_add(1, Ordering::Relaxed);
                c.records_sent.fetch_add(records, Ordering::Relaxed);
                c.max_frame_bytes.fetch_max(upto as u64, Ordering::Relaxed);
            }
            Err(_) => {
                c.send_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        stage.frame.drain(..upto);
    }

    /// Sends the staged frame, if any, then reads the socket until it
    /// would block, delivering every record into its link's queue.
    pub(crate) fn pump(&self) {
        let mut rx = self.rx.lock().expect("pump poisoned");
        {
            let mut stage = self.stage.lock().expect("stage poisoned");
            let staged = stage.frame.len();
            self.flush(&mut stage, staged);
        }
        loop {
            match self.socket.recv_from(&mut rx[..]) {
                // Only the hub's own socket may feed its links: a stray
                // datagram from another topology (ephemeral port reuse)
                // or a stale test could otherwise advance a FIFO guard —
                // `seq = u64::MAX` would deafen a link forever, turning
                // its loss probability into 1.
                Ok((_, src)) if src != self.addr => {
                    self.counters.frames_foreign.fetch_add(1, Ordering::Relaxed);
                }
                Ok((len, _)) => {
                    self.counters
                        .frames_received
                        .fetch_add(1, Ordering::Relaxed);
                    self.deliver_frame(&rx[..len]);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // `WouldBlock`: drained. Anything else is the socket's
                // problem, not this caller's; the next pump asks again.
                Err(_) => return,
            }
        }
    }

    /// Splits a frame into records and delivers each. The first record
    /// that does not parse, or names no link, discards the rest of the
    /// frame: where the next record starts is unknowable, and a
    /// fair-lossy channel may lose anything. Records before it stand.
    pub(crate) fn deliver_frame(&self, mut frame: &[u8]) {
        while !frame.is_empty() {
            let Some((inbox, header, msg, used)) = self.parse_record(frame) else {
                self.counters
                    .records_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return;
            };
            inbox.accept(header, msg);
            frame = &frame[used..];
        }
    }

    /// Parses the record at the head of `frame` — before any link state
    /// is touched, so malformed input advances no FIFO guard.
    fn parse_record(&self, frame: &[u8]) -> Option<(&Inbox<M>, Header, M, usize)> {
        let (header, tail) = decode_datagram(frame)?;
        let (from, to) = (header.from as usize, header.to as usize);
        if from >= self.n || to >= self.n {
            return None;
        }
        let inbox = self.inboxes[from * self.n + to].as_ref()?;
        let mut reader = WireReader::new(tail);
        let msg = M::decode(&mut reader)?;
        Some((inbox, header, msg, frame.len() - reader.remaining()))
    }
}

/// The receive half of one directed link: the bounded delivery queue and
/// the FIFO guard, fed by whichever thread pumps.
///
/// # The two mirrors
///
/// `occupancy` mirrors `queue.len()` and `judged` mirrors `last_seq`,
/// exactly as [`LiveLink`](snapstab_runtime::LiveLink)'s occupancy
/// mirror: stored with `Release` while the state lock is held, loaded
/// with `Acquire` without it, so every value read was true at its store.
/// An empty poll costs those loads and no lock. A load can be stale only
/// against a concurrent `accept`; a stale "empty" is then a poll ordered
/// just before that push, and the receiver is not stranded because every
/// accepted record is followed, outside the lock, by the registered
/// waker (the runtime's ready-queue push, whose mutex orders the push
/// before the receiver's next poll).
struct Inbox<M> {
    /// Capacity **per lane**, as in the in-memory link.
    capacity: usize,
    lanes: usize,
    jitter: Option<Duration>,
    /// `queue.len()` — see the type docs.
    occupancy: AtomicUsize,
    /// `last_seq` — see the type docs.
    judged: AtomicU64,
    state: Mutex<RecvState<M>>,
}

struct RecvState<M> {
    /// Deliverable messages with their jittered ready instant (`None` =
    /// immediately) and the lane they occupy.
    queue: VecDeque<(M, Option<Instant>, usize)>,
    /// Current occupancy per lane; the §4 capacity bound is enforced
    /// against the record's lane.
    lane_len: Vec<usize>,
    /// Highest sequence number judged so far, accepted or dropped on a
    /// full lane (0 = none; `seq` starts at 1). Anything not strictly
    /// above it is dropped.
    last_seq: u64,
    /// Per-link jitter stream (receive side).
    rng: SimRng,
    /// Run after every accepted record (the runtime's ready-queue push).
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
    enqueued: u64,
    lost_full: u64,
    lost_reorder: u64,
    delivered: u64,
}

impl<M> Inbox<M> {
    fn new(from: ProcessId, to: ProcessId, config: &LiveConfig, lanes: usize) -> Self {
        let seed = snapstab_runtime::transport::link_seed(config.seed, from, to);
        Inbox {
            capacity: config.capacity,
            lanes,
            jitter: config.jitter,
            occupancy: AtomicUsize::new(0),
            judged: AtomicU64::new(0),
            state: Mutex::new(RecvState {
                queue: VecDeque::new(),
                lane_len: vec![0; lanes],
                last_seq: 0,
                rng: SimRng::seed_from(seed ^ RECV_STREAM),
                waker: None,
                enqueued: 0,
                lost_full: 0,
                lost_reorder: 0,
                delivered: 0,
            }),
        }
    }

    /// Judges one parsed record by the §4 rules and, if it is accepted,
    /// wakes the receiver — outside the lock.
    fn accept(&self, header: Header, msg: M) {
        let lane = (header.lane as usize).min(self.lanes - 1);
        let waker;
        {
            let mut st = self.state.lock().expect("recv state poisoned");
            if header.seq <= st.last_seq {
                // Out-of-order or duplicated by the network: dropping it
                // keeps the link FIFO and duplication-free (the drop
                // itself is fair loss).
                st.lost_reorder += 1;
                return;
            }
            st.last_seq = header.seq;
            self.judged.store(header.seq, Ordering::Release);
            if st.lane_len[lane] >= self.capacity {
                // §4 silent drop-on-full; the sender is not told.
                st.lost_full += 1;
                return;
            }
            let ready = self.jitter.map(|j| {
                let span = j.as_nanos().max(1) as usize;
                Instant::now() + Duration::from_nanos(st.rng.gen_range(0..span) as u64)
            });
            st.queue.push_back((msg, ready, lane));
            self.occupancy.store(st.queue.len(), Ordering::Release);
            st.lane_len[lane] += 1;
            st.enqueued += 1;
            waker = st.waker.clone();
        }
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// The transports share one per-link seed formula, split here into
/// independent send (loss) and receive (jitter) streams.
const SEND_STREAM: u64 = 0x5E4D_0000_0000_0001;
const RECV_STREAM: u64 = 0x4ECF_0000_0000_0002;

/// Send-side state: the sequence counter and the seeded injected-loss
/// stream.
struct SendState {
    seq: u64,
    rng: SimRng,
    sends: u64,
    lost_in_transit: u64,
}

/// One directed UDP link `from → to`: the send half, plus a handle on the
/// hub that holds its receive half.
///
/// Constructed by [`UdpLoopback`](crate::UdpLoopback); drive it through
/// the [`Link`] trait. Under a runtime the workers pump once per
/// scheduling quantum; a bare link pumps for itself:
///
/// ```
/// use snapstab_net::UdpLoopback;
/// use snapstab_runtime::{Link, LiveConfig, Transport};
/// use snapstab_sim::SendFate;
/// use std::time::{Duration, Instant};
///
/// # if !snapstab_net::udp_available() { return; } // skip in socketless sandboxes
/// let transport = UdpLoopback::new();
/// let links = Transport::<u32>::connect(&transport, 2, &LiveConfig::default(), None)
///     .expect("bind the loopback socket");
/// let link = links[0 * 2 + 1].as_ref().expect("link 0 -> 1");
/// assert_eq!(link.send(42), SendFate::Enqueued); // staged in the hub's frame
/// let deadline = Instant::now() + Duration::from_secs(5);
/// loop {
///     // The empty poll sees this link's own unjudged record and pumps:
///     // the frame crosses the socket and comes back as a delivery.
///     if let Some(msg) = link.try_recv() {
///         assert_eq!(msg, 42);
///         break;
///     }
///     assert!(Instant::now() < deadline, "frame never arrived");
///     std::thread::yield_now();
/// }
/// assert_eq!(link.stats().delivered, 1);
/// assert_eq!(transport.frame_stats().frames_sent, 1);
/// ```
pub struct UdpLink<M> {
    from: ProcessId,
    to: ProcessId,
    /// This link's slot in the hub's inbox table.
    slot: usize,
    lanes: usize,
    lane_of: Option<LaneOf<M>>,
    loss: f64,
    hub: Arc<Hub<M>>,
    /// Mirrors `SendState::seq`: `Release` store under the send lock once
    /// the record is staged, `Acquire` load by the empty poll, which
    /// compares it with the inbox's `judged`.
    staged: AtomicU64,
    send: Mutex<SendState>,
}

impl<M: Wire> UdpLink<M> {
    /// Creates the send half of `from → to` on `hub`, which already holds
    /// the receive half.
    pub(crate) fn new(
        hub: Arc<Hub<M>>,
        from: ProcessId,
        to: ProcessId,
        config: &LiveConfig,
        lanes: usize,
        lane_of: Option<LaneOf<M>>,
    ) -> Self {
        let seed = snapstab_runtime::transport::link_seed(config.seed, from, to);
        UdpLink {
            from,
            to,
            slot: from.index() * hub.n + to.index(),
            lanes,
            lane_of,
            loss: config.loss,
            hub,
            staged: AtomicU64::new(0),
            send: Mutex::new(SendState {
                seq: 0,
                rng: SimRng::seed_from(seed ^ SEND_STREAM),
                sends: 0,
                lost_in_transit: 0,
            }),
        }
    }

    fn inbox(&self) -> &Inbox<M> {
        self.hub.inboxes[self.slot]
            .as_ref()
            .expect("a link is off-diagonal")
    }
}

impl<M: Wire + Send> Link<M> for UdpLink<M> {
    fn from(&self) -> ProcessId {
        self.from
    }

    fn to(&self) -> ProcessId {
        self.to
    }

    fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.inbox()
            .state
            .lock()
            .expect("recv state poisoned")
            .waker = Some(waker);
    }

    fn pump(&self) {
        self.hub.pump();
    }

    /// Stages the message in the hub's frame. The returned fate is the
    /// sender's *local* knowledge: `Enqueued` means the record will leave
    /// with the next frame — a drop-on-full at the receive half stays
    /// silent, exactly as §4 demands, and so does a frame the kernel
    /// refuses ([`FrameStats::send_errors`]). Only the seeded
    /// injected-loss stream, drawn before anything is staged, answers
    /// `LostInTransit`.
    fn send(&self, msg: M) -> SendFate {
        let lane = self
            .lane_of
            .as_ref()
            .map(|f| f(&msg).min(self.lanes - 1))
            .unwrap_or(0);
        let mut send = self.send.lock().expect("send state poisoned");
        send.sends += 1;
        if self.loss > 0.0 && send.rng.gen_bool(self.loss) {
            send.lost_in_transit += 1;
            return SendFate::LostInTransit;
        }
        send.seq += 1;
        let header = Header {
            from: self.from.index() as u16,
            to: self.to.index() as u16,
            lane: lane as u16,
            seq: send.seq,
        };
        // Staged under the send lock: this link's records enter the frame
        // in `seq` order.
        self.hub.stage(header, &msg);
        self.staged.store(send.seq, Ordering::Release);
        SendFate::Enqueued
    }

    /// Removes and returns the head message if one is deliverable now. An
    /// empty queue costs two or three loads — unless this link has staged
    /// records its receive half has not judged, which are then pumped
    /// through the socket first. Records staged by *other* links do not
    /// count: inside a quantum they are the replies to earlier receives,
    /// and the quantum's own pump carries them.
    fn try_recv(&self) -> Option<M> {
        let inbox = self.inbox();
        if inbox.occupancy.load(Ordering::Acquire) == 0 {
            if self.staged.load(Ordering::Acquire) <= inbox.judged.load(Ordering::Acquire) {
                return None;
            }
            self.hub.pump();
            if inbox.occupancy.load(Ordering::Acquire) == 0 {
                return None;
            }
        }
        let mut st = inbox.state.lock().expect("recv state poisoned");
        match st.queue.front() {
            None => None,
            Some((_, Some(ready), _)) if Instant::now() < *ready => None,
            Some(_) => {
                let (m, _, lane) = st.queue.pop_front().expect("front checked");
                inbox.occupancy.store(st.queue.len(), Ordering::Release);
                st.lane_len[lane] -= 1;
                st.delivered += 1;
                Some(m)
            }
        }
    }

    fn len(&self) -> usize {
        self.hub.pump();
        self.inbox()
            .state
            .lock()
            .expect("recv state poisoned")
            .queue
            .len()
    }

    fn stats(&self) -> LinkStats {
        self.hub.pump();
        let send = self.send.lock().expect("send state poisoned");
        let recv = self.inbox().state.lock().expect("recv state poisoned");
        LinkStats {
            sends: send.sends,
            enqueued: recv.enqueued,
            lost_full: recv.lost_full,
            lost_in_transit: send.lost_in_transit,
            lost_reorder: recv.lost_reorder,
            delivered: recv.delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_datagram, HEADER_LEN, MAGIC, VERSION};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    const N: usize = 3;

    /// A bound hub of [`N`] processes carrying `u32`s, or `None` (with a
    /// warning) where the sandbox forbids sockets.
    fn hub(capacity: usize) -> Option<Arc<Hub<u32>>> {
        if !crate::udp_available() {
            eprintln!("warning: UDP loopback unavailable in this sandbox; skipping");
            return None;
        }
        let config = LiveConfig {
            capacity,
            ..LiveConfig::default()
        };
        Some(Arc::new(Hub::bind(N, &config, 1).expect("bind")))
    }

    fn link(hub: &Arc<Hub<u32>>, from: usize, to: usize) -> UdpLink<u32> {
        let config = LiveConfig::default();
        UdpLink::new(
            hub.clone(),
            ProcessId::new(from),
            ProcessId::new(to),
            &config,
            1,
            None,
        )
    }

    fn record(from: u16, to: u16, seq: u64, value: u32) -> Vec<u8> {
        let header = Header {
            from,
            to,
            lane: 0,
            seq,
        };
        let mut buf = Vec::new();
        encode_datagram(header, &value, &mut buf);
        buf
    }

    /// What the receive halves counted and hold, read without pumping:
    /// `(enqueued, lost_reorder, lost_full)` summed over every link.
    fn judged(hub: &Hub<u32>) -> (u64, u64, u64) {
        hub.inboxes.iter().flatten().fold((0, 0, 0), |acc, inbox| {
            let st = inbox.state.lock().expect("recv state poisoned");
            (
                acc.0 + st.enqueued,
                acc.1 + st.lost_reorder,
                acc.2 + st.lost_full,
            )
        })
    }

    fn queued(hub: &Hub<u32>, from: usize, to: usize) -> Vec<u32> {
        let inbox = hub.inboxes[from * N + to].as_ref().expect("off-diagonal");
        let st = inbox.state.lock().expect("recv state poisoned");
        st.queue.iter().map(|(m, _, _)| *m).collect()
    }

    /// The test's own reading of a frame: how many whole in-range `u32`
    /// records stand at its head, and whether anything follows them.
    fn whole_records(mut frame: &[u8]) -> (u64, bool) {
        let mut records = 0;
        while !frame.is_empty() {
            let Some((h, tail)) = decode_datagram(frame) else {
                return (records, true);
            };
            let in_range = (h.from as usize) < N && (h.to as usize) < N && h.from != h.to;
            if !in_range || tail.len() < 4 {
                return (records, true);
            }
            records += 1;
            frame = &tail[4..];
        }
        (records, false)
    }

    proptest! {
        /// Hostile input: arbitrary bytes — raw, or forced to begin like
        /// a record so the parser is reached — never panic, and move a
        /// link's counters only by the whole in-range records at the
        /// head of the frame.
        #[test]
        fn arbitrary_bytes_move_no_counter_without_a_whole_record(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..96),
            shape in 0usize..4,
        ) {
            let Some(hub) = hub(usize::MAX) else { return Ok(()); };
            let forced: [&[u8]; 4] = [&[], &[MAGIC], &[MAGIC, VERSION], &[MAGIC, VERSION, 1, 0, 2, 0]];
            for (b, f) in bytes.iter_mut().zip(forced[shape]) {
                *b = *f;
            }
            let (records, rest) = whole_records(&bytes);
            hub.deliver_frame(&bytes);
            let (enqueued, lost_reorder, lost_full) = judged(&hub);
            prop_assert_eq!(enqueued + lost_reorder, records);
            prop_assert_eq!(lost_full, 0);
            prop_assert_eq!(hub.counters.snapshot().records_rejected, u64::from(rest));
        }
    }

    /// A valid three-record frame cut at every byte offset delivers the
    /// records that are whole, and only those.
    #[test]
    fn truncated_frame_delivers_its_complete_record_prefix() {
        let records = [
            record(0, 1, 1, 10),
            record(1, 2, 1, 20),
            record(0, 1, 2, 30),
        ];
        let frame = records.concat();
        let ends: Vec<usize> = records
            .iter()
            .scan(0, |end, r| {
                *end += r.len();
                Some(*end)
            })
            .collect();
        for cut in 0..=frame.len() {
            let Some(hub) = hub(8) else { return };
            hub.deliver_frame(&frame[..cut]);
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let (expect_01, expect_12): (&[u32], &[u32]) = match whole {
                0 => (&[], &[]),
                1 => (&[10], &[]),
                2 => (&[10], &[20]),
                _ => (&[10, 30], &[20]),
            };
            assert_eq!(queued(&hub, 0, 1), expect_01, "cut at {cut}");
            assert_eq!(queued(&hub, 1, 2), expect_12, "cut at {cut}");
            assert_eq!(judged(&hub), (whole as u64, 0, 0), "cut at {cut}");
            let on_boundary = cut == 0 || ends.contains(&cut);
            assert_eq!(
                hub.counters.snapshot().records_rejected,
                u64::from(!on_boundary),
                "cut at {cut}"
            );
        }
    }

    /// A record that does not parse discards the rest of its frame, valid
    /// records included; the ones before it stand.
    #[test]
    fn bad_magic_mid_frame_keeps_the_first_record_only() {
        let Some(hub) = hub(8) else { return };
        let mut middle = record(1, 2, 1, 20);
        middle[0] = !MAGIC;
        let frame = [record(0, 1, 1, 10), middle, record(2, 0, 1, 30)].concat();
        hub.deliver_frame(&frame);
        assert_eq!(queued(&hub, 0, 1), [10]);
        assert_eq!(queued(&hub, 1, 2), [] as [u32; 0]);
        assert_eq!(queued(&hub, 2, 0), [] as [u32; 0]);
        assert_eq!(judged(&hub), (1, 0, 0));
        assert_eq!(hub.counters.snapshot().records_rejected, 1);
        // The discarded records advanced no FIFO guard: seq 1 is still new.
        hub.deliver_frame(&record(2, 0, 1, 31));
        assert_eq!(queued(&hub, 2, 0), [31]);
    }

    /// Format compatibility: a frame of one record is byte for byte the
    /// datagram `encode_datagram` produces.
    #[test]
    fn one_record_frame_is_the_old_datagram() {
        let Some(hub) = hub(1) else { return };
        let link = link(&hub, 2, 0);
        assert_eq!(link.send(0xDEAD_BEEF), SendFate::Enqueued);
        let staged = hub.stage.lock().expect("stage poisoned").frame.clone();
        assert_eq!(staged, record(2, 0, 1, 0xDEAD_BEEF));
        assert_eq!(staged.len(), HEADER_LEN + 4);
    }

    /// The waker fires after every accepted record and after nothing
    /// else: not for a record dropped on a full lane, dropped to keep
    /// FIFO, or arriving from a foreign socket. `register_receiver` is
    /// that waker with an unpark.
    #[test]
    fn wake_ups_follow_accepted_records_only() {
        let Some(hub) = hub(1) else { return };
        let link = link(&hub, 0, 1);

        let woken = Arc::new(AtomicUsize::new(0));
        let counter = woken.clone();
        link.register_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));

        hub.deliver_frame(&record(0, 1, 1, 10)); // accepted
        assert_eq!(woken.load(Ordering::SeqCst), 1);

        hub.deliver_frame(&record(0, 1, 2, 20)); // the lane is full
        hub.deliver_frame(&record(0, 1, 2, 20)); // duplicate
        hub.deliver_frame(&record(0, 1, 1, 10)); // straggler
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).expect("bind foreign socket");
        foreign
            .send_to(&record(0, 1, 9, 90), hub.addr)
            .expect("send foreign frame");
        let deadline = Instant::now() + Duration::from_secs(10);
        while hub.counters.snapshot().frames_foreign == 0 {
            assert!(Instant::now() < deadline, "foreign frame never arrived");
            hub.pump();
        }
        assert_eq!(judged(&hub), (1, 2, 1));
        assert_eq!(woken.load(Ordering::SeqCst), 1, "a dropped record woke");

        assert_eq!(link.try_recv(), Some(10));
        hub.deliver_frame(&record(0, 1, 3, 30)); // accepted
        assert_eq!(woken.load(Ordering::SeqCst), 2);
        assert_eq!(link.try_recv(), Some(30));

        // The receiver parks, reports each return from `park`, and parks
        // again; `park` only returns for an `unpark`.
        let (parked_tx, parked_rx) = mpsc::channel();
        let receiver = std::thread::spawn(move || loop {
            std::thread::park();
            if parked_tx.send(()).is_err() {
                return;
            }
        });
        (&link as &dyn Link<u32>).register_receiver(receiver.thread().clone());
        hub.deliver_frame(&record(0, 1, 4, 40)); // accepted
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an accepted record unparks the receiver");
        assert_eq!(
            woken.load(Ordering::SeqCst),
            2,
            "the receiver replaced the waker"
        );

        // Let the receiver thread go: its next report finds no channel.
        drop(parked_rx);
        receiver.thread().unpark();
        receiver.join().expect("receiver thread");
    }
}
