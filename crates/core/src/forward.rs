//! Snap-stabilizing end-to-end message forwarding — the communication
//! *application* the snap-stabilization literature builds on top of this
//! paper (Cournier–Dubois–Villain's *Snap-Stabilizing Linear Message
//! Forwarding* and the tree-topology follow-up, both in PAPERS.md).
//!
//! A client at process `src` injects a [`Payload`] addressed to `dst`;
//! the protocol routes it hop by hop along the process line (`i → i+1`
//! toward larger indices, `i → i-1` toward smaller) through bounded
//! per-process message buffers, and must deliver it to `dst` **exactly
//! once** — no duplication, no loss of accepted payloads — starting from
//! *any* initial configuration: arbitrary handshake flags, arbitrary
//! channel contents, and buffers adversarially pre-filled with stale
//! entries. That end-to-end promise is executable Specification 4
//! ([`crate::spec::analyze_forwarding_trace`]).
//!
//! ## Why each hop is a PIF handshake
//!
//! The dangerous moves in message forwarding are the *copy* (receiver
//! takes the payload into its buffer) and the *erase* (sender frees its
//! buffer slot). A stale acknowledgment must not trigger an erase (that
//! loses the payload) and a replayed transfer must not trigger a second
//! copy (that duplicates it). Both are exactly the problem Algorithm 1
//! solves per neighbor: this module runs the paper's five-valued flag
//! handshake (generalized to `2c + 3` values for capacity-`c` channels,
//! [`crate::flag::FlagDomain::for_capacity`]) **per directed hop**:
//!
//! * the receiver copies the payload at the `receive-brd` edge — the
//!   first sight of the sender's flag at the broadcast value — and
//!   stores its acknowledgment ([`HopAck`]) in the same atomic action,
//!   exactly as `PifCore` stores `F-Mes[q]` (the Lemma 5 argument);
//! * the sender erases only at the `receive-fck` edge — the flag
//!   completing its climb — and only if the acknowledgment names the
//!   payload being transferred; any mismatch (stale ack, receiver-full
//!   refusal) restarts the handshake instead.
//!
//! Theorem 2's counting argument then guarantees per-hop exactly-once:
//! stale artifacts can drive at most `2c + 1` of the `2c + 2` required
//! flag increments, so the completing acknowledgment causally depends on
//! the started transfer.
//!
//! ## Why the bounded buffers cannot deadlock
//!
//! Each process keeps two direction *lanes* of capacity
//! [`ForwardConfig::buffer_cap`]: the up lane holds payloads routed
//! toward larger indices, the down lane toward smaller. Traffic never
//! changes direction (a payload accepted at `i` with `dst > i` rides the
//! up lane, and only entries whose destination lies strictly beyond the
//! next hop are ever re-buffered), so the buffer-wait graph is acyclic:
//! the up lane at `n-2` drains unconditionally (process `n-1` *delivers*
//! — delivery consumes no buffer slot), which frees the up lane at
//! `n-3`, and so on by induction; symmetrically for the down lanes.
//! The direction domain is enforced at **both** ends of a hop: a
//! corrupted lane entry violating its lane's domain (`dst ≤ me` in an
//! up lane) is dropped at transfer-start, and a *wrong-way* offer — a
//! stale entry planted in a neighbor's transfer slot that would be
//! routed straight back where it came from — is accepted-and-flushed at
//! the receiver instead of re-buffered. Without the second check a
//! single misdirected slot entry can knit the two lane systems into a
//! buffer-wait cycle and deadlock the line (caught by the live bench at
//! scale; `wrong_way_slot_garbage_cannot_deadlock_the_line` is the
//! regression).
//!
//! ## Stale entries
//!
//! Specification 4's delivery guarantee attaches at the
//! [`ForwardEvent::Injected`] event — the forwarding analogue of the
//! paper's footnote-1 genuine requests. An injected payload's hop
//! handshakes always *start from flag 0* (injection, transfer-start and
//! every restart reset the flag), which is the precondition of
//! Theorem 2's counting argument. Entries already sitting in buffers,
//! transfer slots or channels at start carry no such guarantee: they
//! are flushed toward their destinations (or dropped when
//! out-of-domain), and a transfer *slot* corrupted next to a mid-climb
//! flag can even complete its handshake on stale increments, restart,
//! and flush its stale payload twice — the checker reports such cases
//! (`stale_duplicates`) without failing the verdict. The adversarial
//! generators here stamp stale entries with [`STALE_ID_BIT`] so checker
//! and benchmarks can always tell guaranteed traffic from flushed
//! garbage (the forwarding papers' copy-counting reading: one stale
//! buffer cell = one message copy).

use std::collections::VecDeque;

use snapstab_sim::{
    ArbitraryState, Capacity, Context, LossModel, NetworkBuilder, ProcessId, Protocol,
    RandomScheduler, Runner, SimRng, Trace,
};

use crate::flag::{Flag, FlagDomain};

/// Ids with this bit set mark *stale* payloads planted by the
/// adversarial generators ([`ForwardProcess::prefill_stale`],
/// [`Payload::arbitrary`]); genuine injections ([`payload_id`]) keep it
/// clear, so spurious deliveries of flushed garbage are distinguishable
/// from guaranteed traffic.
pub const STALE_ID_BIT: u64 = 1 << 63;

/// The globally unique id of the `k`-th payload injected at process
/// `src` ([`STALE_ID_BIT`] clear).
pub fn payload_id(src: usize, k: u64) -> u64 {
    assert!(k < (1 << 32), "per-process injection counter overflow");
    ((src as u64) << 32) | k
}

/// One client message in flight: source, destination, unique id, data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Payload {
    /// Injecting process index.
    pub src: u16,
    /// Destination process index.
    pub dst: u16,
    /// Globally unique id ([`payload_id`] for genuine injections; the
    /// [`STALE_ID_BIT`] space for adversarial stale entries).
    pub id: u64,
    /// Opaque client data.
    pub data: u64,
}

impl ArbitraryState for Payload {
    /// Arbitrary *stale* payload: endpoints drawn from a small fixed
    /// range (`ArbitraryState` cannot see the system size; for `n < 12`
    /// this yields a mix of in- and out-of-range destinations, and
    /// [`ForwardProcess::prefill_stale`] — which does know `n` — forces
    /// out-of-range coverage at every size) and an id in the
    /// [`STALE_ID_BIT`] space — distinct stale copies carry distinct
    /// ids with overwhelming probability, matching the forwarding
    /// papers' one-copy-per-cell message model.
    fn arbitrary(rng: &mut SimRng) -> Self {
        Payload {
            src: rng.gen_range(0..12) as u16,
            dst: rng.gen_range(0..12) as u16,
            id: STALE_ID_BIT | rng.gen_u64(),
            data: rng.gen_u64(),
        }
    }
}

/// The receiver-side acknowledgment of a hop transfer, stored per
/// incoming hop and echoed in every outgoing message on that hop — the
/// forwarding analogue of `F-Mes[q]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HopAck {
    /// The named payload was copied (buffered or delivered); the sender
    /// may erase it.
    Accepted(u64),
    /// The receiver's lane was full (or the offer carried no payload);
    /// the sender must keep the payload and retry.
    Refused,
}

impl ArbitraryState for HopAck {
    fn arbitrary(rng: &mut SimRng) -> Self {
        if rng.gen_bool(0.5) {
            HopAck::Accepted(rng.gen_u64())
        } else {
            HopAck::Refused
        }
    }
}

/// The single message type of the forwarding protocol, one per directed
/// hop — structurally a [`crate::pif::PifMsg`] whose broadcast is the
/// offered payload and whose feedback is the hop acknowledgment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForwardMsg {
    /// The payload the sender is currently transferring on this hop
    /// (`B-Mes`), if any.
    pub payload: Option<Payload>,
    /// The sender's acknowledgment for the *reverse* transfer on this
    /// neighbor pair (`F-Mes[receiver]`).
    pub ack: HopAck,
    /// The sender's handshake flag toward the receiver
    /// (`State_sender[receiver]`).
    pub sender_state: Flag,
    /// The receiver's flag as last seen by the sender
    /// (`NeigState_sender[receiver]`), the echo driving increments.
    pub echoed_state: Flag,
}

impl ArbitraryState for ForwardMsg {
    fn arbitrary(rng: &mut SimRng) -> Self {
        ForwardMsg {
            payload: rng.gen_bool(0.7).then(|| Payload::arbitrary(rng)),
            ack: HopAck::arbitrary(rng),
            sender_state: Flag::arbitrary(rng),
            echoed_state: Flag::arbitrary(rng),
        }
    }
}

/// Protocol-level events of a forwarding process, consumed by the
/// Specification 4 checker ([`crate::spec::analyze_forwarding_trace`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForwardEvent {
    /// A client payload entered the system at its source — the point
    /// where Specification 4's exactly-once guarantee attaches.
    Injected {
        /// The injected payload.
        payload: Payload,
    },
    /// A payload was copied into this process's lane from a neighbor
    /// (one relay hop).
    Accepted {
        /// The relayed payload.
        payload: Payload,
        /// The offering neighbor.
        from: ProcessId,
    },
    /// The neighbor confirmed the copy; this process erased its slot.
    Forwarded {
        /// The transferred payload.
        payload: Payload,
        /// The accepting neighbor.
        to: ProcessId,
    },
    /// A payload reached its destination — Specification 4's delivery
    /// event.
    Delivered {
        /// The delivered payload.
        payload: Payload,
        /// The last-hop neighbor.
        from: ProcessId,
    },
    /// A stale entry with an out-of-domain destination was flushed.
    DroppedInvalid {
        /// The dropped entry.
        payload: Payload,
    },
}

/// Construction-time configuration of a forwarding process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForwardConfig {
    /// Capacity of each direction lane (bounded per-process buffering).
    pub buffer_cap: usize,
    /// Flag domain of the per-hop handshakes. Channels of capacity `c`
    /// need [`FlagDomain::for_capacity`]`(c)`; the default is the
    /// paper's five values (single-message channels).
    pub flag_domain: FlagDomain,
}

impl Default for ForwardConfig {
    fn default() -> Self {
        ForwardConfig {
            buffer_cap: 4,
            flag_domain: FlagDomain::PAPER,
        }
    }
}

/// Instrumentation counters; not protocol state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ForwardCounters {
    /// Client payloads injected (the [`ForwardEvent::Injected`] count).
    pub injected: u64,
    /// Payloads copied in from a neighbor (relay hops).
    pub accepted: u64,
    /// Transfers confirmed and erased (per-hop completions).
    pub forwarded: u64,
    /// Payloads delivered at this destination.
    pub delivered: u64,
    /// Offers refused because the lane was full.
    pub refused_full: u64,
    /// Handshakes restarted (refused or stale acknowledgment).
    pub restarts: u64,
    /// Out-of-domain stale entries flushed.
    pub dropped_invalid: u64,
}

/// One directed hop's handshake state (sender role toward the neighbor,
/// plus the acknowledgment owed for the reverse direction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Hop {
    /// The payload being transferred to this neighbor, if any.
    outgoing: Option<Payload>,
    /// `State[q]` — this process's handshake flag toward the neighbor.
    state: Flag,
    /// `NeigState[q]` — the neighbor's flag as last received.
    neig_state: Flag,
    /// The acknowledgment for the neighbor's transfers toward us,
    /// computed at our `receive-brd` edge and echoed in every message.
    ack: HopAck,
}

impl Hop {
    fn idle(domain: FlagDomain) -> Self {
        Hop {
            outgoing: None,
            state: domain.max(),
            neig_state: domain.max(),
            ack: HopAck::Refused,
        }
    }
}

/// The two routing directions of the process line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    /// Toward larger indices (`me + 1`).
    Up,
    /// Toward smaller indices (`me - 1`).
    Down,
}

impl Direction {
    const BOTH: [Direction; 2] = [Direction::Up, Direction::Down];

    fn index(self) -> usize {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
        }
    }
}

/// One hop's state projection: `(outgoing, state, neig_state, ack)`.
pub type HopSnapshot = (Option<Payload>, Flag, Flag, HopAck);

/// The state projection of a forwarding process (per-hop flags and
/// slots, lane contents, the pending client request).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ForwardState {
    /// Pending client injection (the user-side request slot).
    pub pending: Option<Payload>,
    /// Lane contents, `[up, down]`, front first.
    pub lanes: [Vec<Payload>; 2],
    /// Per-direction hop state `[up, down]`; `None` where the line
    /// ends.
    pub hops: [Option<HopSnapshot>; 2],
}

/// One process of the snap-stabilizing forwarding protocol.
///
/// See the module docs for the mechanism; [`run_sim_forwarding`] for the
/// simulator harness and `snapstab_runtime::ForwardingServiceConfig` for
/// the live front-end.
#[derive(Clone, Debug)]
pub struct ForwardProcess {
    me: ProcessId,
    n: usize,
    config: ForwardConfig,
    /// The client's one-slot injection request (Hypothesis 1 discipline:
    /// at most one outstanding injection per process).
    pending: Option<Payload>,
    /// Direction lanes `[up, down]`, bounded by `config.buffer_cap`.
    lanes: [VecDeque<Payload>; 2],
    /// Hop handshakes `[up, down]`; `None` where the line ends.
    hops: [Option<Hop>; 2],
    /// Delivered payloads awaiting collection by the application — an
    /// inbox, not protocol state.
    delivered: Vec<Payload>,
    counters: ForwardCounters,
}

impl ForwardProcess {
    /// Creates a correctly-initialized (quiescent) process.
    ///
    /// # Panics
    ///
    /// Panics if the system has fewer than two processes or the buffer
    /// capacity is zero.
    pub fn new(me: ProcessId, n: usize, config: ForwardConfig) -> Self {
        assert!(n >= 2, "a forwarding line needs at least two processes");
        assert!(config.buffer_cap >= 1, "lanes need at least one slot");
        let domain = config.flag_domain;
        ForwardProcess {
            me,
            n,
            config,
            pending: None,
            lanes: [VecDeque::new(), VecDeque::new()],
            hops: [
                (me.index() + 1 < n).then(|| Hop::idle(domain)),
                (me.index() > 0).then(|| Hop::idle(domain)),
            ],
            delivered: Vec::new(),
            counters: ForwardCounters::default(),
        }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration.
    pub fn config(&self) -> ForwardConfig {
        self.config
    }

    /// Instrumentation counters.
    pub fn counters(&self) -> ForwardCounters {
        self.counters
    }

    /// True if a new client injection would be accepted now (no pending
    /// injection — the Hypothesis 1 user discipline).
    pub fn can_inject(&self) -> bool {
        self.pending.is_none()
    }

    /// Externally requests the injection of `payload`. Refused (returning
    /// `false`, payload untouched) while a previous injection is pending
    /// or the destination is not another process of this system.
    pub fn request_send(&mut self, payload: Payload) -> bool {
        let dst = payload.dst as usize;
        if self.pending.is_some() || dst == self.me.index() || dst >= self.n {
            return false;
        }
        self.pending = Some(payload);
        true
    }

    /// Drains the inbox of payloads delivered at this process.
    pub fn take_delivered(&mut self) -> Vec<Payload> {
        std::mem::take(&mut self.delivered)
    }

    /// Number of payloads buffered in the direction lanes (stale entries
    /// included).
    pub fn buffered(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Adversarially pre-fills both lanes (and hop slots) with distinct
    /// stale entries — the arbitrary-initial-buffer configuration
    /// Specification 4 is judged against. About half the entries carry
    /// in-domain destinations (they will be flushed end-to-end as
    /// spurious deliveries), the rest are out-of-domain garbage the
    /// protocol must drop without wedging.
    pub fn prefill_stale(&mut self, rng: &mut SimRng) {
        // `Payload::arbitrary` draws endpoints from a fixed small range
        // (it cannot see `n`); re-aiming a quarter of the entries just
        // past the line keeps the out-of-domain drop path exercised at
        // every system size.
        let n = self.n;
        let stale = |rng: &mut SimRng| {
            let mut m = Payload::arbitrary(rng);
            if rng.gen_bool(0.25) {
                m.dst = (n + rng.gen_range(0..4)) as u16;
            }
            m
        };
        for lane in &mut self.lanes {
            lane.clear();
            for _ in 0..rng.gen_range(0..self.config.buffer_cap + 1) {
                lane.push_back(stale(rng));
            }
        }
        for hop in self.hops.iter_mut().flatten() {
            if rng.gen_bool(0.5) {
                hop.outgoing = Some(stale(rng));
            }
        }
    }

    /// The direction that routes `dst` from this process, or `None` for
    /// an out-of-domain destination (`dst == me` included: a payload for
    /// `me` is delivered, never routed).
    fn direction_of(&self, dst: usize) -> Option<Direction> {
        if dst >= self.n || dst == self.me.index() {
            None
        } else if dst > self.me.index() {
            Some(Direction::Up)
        } else {
            Some(Direction::Down)
        }
    }

    fn neighbor(&self, d: Direction) -> ProcessId {
        match d {
            Direction::Up => ProcessId::new(self.me.index() + 1),
            Direction::Down => ProcessId::new(self.me.index() - 1),
        }
    }

    /// The direction `from` sits in, if `from` is a line neighbor.
    fn direction_from(&self, from: ProcessId) -> Option<Direction> {
        if from.index() == self.me.index() + 1 {
            Some(Direction::Up)
        } else if self.me.index() > 0 && from.index() == self.me.index() - 1 {
            Some(Direction::Down)
        } else {
            None
        }
    }

    /// The current wire message on hop `d` (everything this process has
    /// to say to that neighbor, like `PifCore::wave_message`).
    fn hop_message(&self, d: Direction) -> ForwardMsg {
        let hop = self.hops[d.index()].as_ref().expect("hop exists");
        ForwardMsg {
            payload: hop.outgoing,
            ack: hop.ack,
            sender_state: hop.state,
            echoed_state: hop.neig_state,
        }
    }

    /// The injection action: a pending client payload enters its
    /// direction lane when a slot is free.
    fn action_inject(&mut self, ctx: &mut Context<'_, ForwardMsg, ForwardEvent>) -> bool {
        let Some(payload) = self.pending else {
            return false;
        };
        let Some(d) = self.direction_of(payload.dst as usize) else {
            // Unreachable through `request_send`; a corrupted pending
            // slot is flushed like any other stale entry.
            self.pending = None;
            self.counters.dropped_invalid += 1;
            ctx.emit(ForwardEvent::DroppedInvalid { payload });
            return true;
        };
        if self.lanes[d.index()].len() >= self.config.buffer_cap {
            return false;
        }
        self.lanes[d.index()].push_back(payload);
        self.pending = None;
        self.counters.injected += 1;
        ctx.emit(ForwardEvent::Injected { payload });
        true
    }

    /// The transfer-start action for direction `d`: pop the lane front
    /// into the free hop slot (dropping out-of-domain stale entries) and
    /// reset the handshake.
    fn action_start_transfer(
        &mut self,
        d: Direction,
        ctx: &mut Context<'_, ForwardMsg, ForwardEvent>,
    ) -> bool {
        let has_hop = self.hops[d.index()].is_some();
        let mut acted = false;
        // A lane on a line end (or holding wrong-direction garbage) can
        // only contain stale entries; flush them so the deadlock-freedom
        // induction never waits on garbage.
        while let Some(&front) = self.lanes[d.index()].front() {
            let valid = self.direction_of(front.dst as usize) == Some(d) && has_hop;
            if valid {
                break;
            }
            self.lanes[d.index()].pop_front();
            self.counters.dropped_invalid += 1;
            ctx.emit(ForwardEvent::DroppedInvalid { payload: front });
            acted = true;
        }
        let Some(hop) = self.hops[d.index()].as_mut() else {
            return acted;
        };
        if hop.outgoing.is_none() {
            if let Some(payload) = self.lanes[d.index()].pop_front() {
                hop.outgoing = Some(payload);
                hop.state = Flag::ZERO;
                acted = true;
            }
        }
        acted
    }

    /// The retransmission action for direction `d` (Algorithm 1's A2
    /// shape): while a transfer is in progress, restart a
    /// corruption-completed handshake and offer the payload again.
    fn action_retransmit(
        &mut self,
        d: Direction,
        ctx: &mut Context<'_, ForwardMsg, ForwardEvent>,
    ) -> bool {
        let domain = self.config.flag_domain;
        let Some(hop) = self.hops[d.index()].as_mut() else {
            return false;
        };
        if hop.outgoing.is_none() {
            return false;
        }
        if hop.state.is_complete(domain) {
            // Only an arbitrary initial configuration can park a loaded
            // slot on a complete flag; restart the handshake.
            hop.state = Flag::ZERO;
            self.counters.restarts += 1;
        }
        let to = self.neighbor(d);
        let msg = self.hop_message(d);
        ctx.send(to, msg);
        true
    }

    /// The receive action for a message arriving on hop `d` — the
    /// pairwise Algorithm 1 A3, with copy-at-brd and erase-at-fck.
    fn handle_hop_receive(
        &mut self,
        d: Direction,
        from: ProcessId,
        msg: ForwardMsg,
        ctx: &mut Context<'_, ForwardMsg, ForwardEvent>,
    ) {
        let domain = self.config.flag_domain;
        let cap = self.config.buffer_cap;
        let me = self.me.index();
        // Defensive clamp, as in `PifCore::handle_receive`: forged
        // initial messages may carry out-of-domain flags.
        let sender_state = domain.clamp(msg.sender_state);
        let echoed_state = domain.clamp(msg.echoed_state);

        // receive-brd: first sight of the neighbor's flag at the
        // broadcast value — the unique copy point of this transfer. The
        // acknowledgment is computed and stored in the same atomic
        // action (the Lemma 5 discipline), so the reply sent below
        // already carries it.
        let brd = {
            let hop = self.hops[d.index()].as_ref().expect("receiving hop");
            hop.neig_state != domain.broadcast_value() && sender_state == domain.broadcast_value()
        };
        if brd {
            let ack = match msg.payload {
                None => HopAck::Refused,
                Some(payload) if payload.dst as usize == me => {
                    self.delivered.push(payload);
                    self.counters.delivered += 1;
                    ctx.emit(ForwardEvent::Delivered { payload, from });
                    HopAck::Accepted(payload.id)
                }
                Some(payload) => match self.direction_of(payload.dst as usize) {
                    None => {
                        // Out-of-domain garbage: accept (so the sender
                        // erases it) and flush.
                        self.counters.dropped_invalid += 1;
                        ctx.emit(ForwardEvent::DroppedInvalid { payload });
                        HopAck::Accepted(payload.id)
                    }
                    // Wrong-way garbage: the payload would be routed
                    // straight back where it came from. Only a stale
                    // entry planted in the neighbor's transfer slot can
                    // travel against its direction (genuine traffic is
                    // direction-checked at injection and transfer-start),
                    // and re-buffering it would let buffer-wait cycles
                    // form across the two lane systems — the one way the
                    // acyclicity argument can break. Accept (freeing the
                    // sender's slot) and flush.
                    Some(route) if route == d => {
                        self.counters.dropped_invalid += 1;
                        ctx.emit(ForwardEvent::DroppedInvalid { payload });
                        HopAck::Accepted(payload.id)
                    }
                    Some(route) => {
                        if self.lanes[route.index()].len() < cap {
                            self.lanes[route.index()].push_back(payload);
                            self.counters.accepted += 1;
                            ctx.emit(ForwardEvent::Accepted { payload, from });
                            HopAck::Accepted(payload.id)
                        } else {
                            self.counters.refused_full += 1;
                            HopAck::Refused
                        }
                    }
                },
            };
            self.hops[d.index()].as_mut().expect("receiving hop").ack = ack;
        }

        let hop = self.hops[d.index()].as_mut().expect("receiving hop");
        hop.neig_state = sender_state;

        // Echo check: increment `State[q]` when the neighbor echoes it;
        // at completion, erase-or-restart — the unique erase point.
        if hop.state == echoed_state && !hop.state.is_complete(domain) {
            hop.state = hop.state.incremented(domain);
            if hop.state.is_complete(domain) {
                if let Some(out) = hop.outgoing {
                    if msg.ack == HopAck::Accepted(out.id) {
                        hop.outgoing = None;
                        self.counters.forwarded += 1;
                        ctx.emit(ForwardEvent::Forwarded {
                            payload: out,
                            to: from,
                        });
                    } else {
                        // Refused (receiver full) or a stale ack that
                        // cannot name this transfer: keep the payload,
                        // run a fresh handshake.
                        hop.state = Flag::ZERO;
                        self.counters.restarts += 1;
                    }
                }
            }
        }

        // Reply while the neighbor is still waving (its own climb needs
        // our echoes); a complete sender flag needs no answer, which is
        // what lets the protocol quiesce.
        if !sender_state.is_complete(domain) {
            let reply = self.hop_message(d);
            ctx.send(from, reply);
        }
    }
}

impl Protocol for ForwardProcess {
    type Msg = ForwardMsg;
    type Event = ForwardEvent;
    type State = ForwardState;

    fn activate(&mut self, ctx: &mut Context<'_, ForwardMsg, ForwardEvent>) -> bool {
        let mut acted = self.action_inject(ctx);
        for d in Direction::BOTH {
            acted |= self.action_start_transfer(d, ctx);
            acted |= self.action_retransmit(d, ctx);
        }
        acted
    }

    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: ForwardMsg,
        ctx: &mut Context<'_, ForwardMsg, ForwardEvent>,
    ) {
        // Messages from off-line processes can only be initial-channel
        // garbage (the protocol never sends on those links); dropping
        // them is the §4-faithful reaction.
        if let Some(d) = self.direction_from(from) {
            self.handle_hop_receive(d, from, msg, ctx);
        }
    }

    fn has_enabled_action(&self) -> bool {
        self.pending.is_some()
            || self.lanes.iter().any(|l| !l.is_empty())
            || self.hops.iter().flatten().any(|h| h.outgoing.is_some())
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        // The pending slot is the user-side request variable (Hypothesis
        // 1): like `MeProcess`'s CS occupancy, transient faults do not
        // forge client intent — Specification 4's guarantee attaches at
        // the Injected event, and stale traffic is modeled by the lane,
        // slot and channel corruption below.
        self.pending = None;
        let domain = self.config.flag_domain;
        self.prefill_stale(rng);
        for hop in self.hops.iter_mut().flatten() {
            hop.state = domain.arbitrary_flag(rng);
            hop.neig_state = domain.arbitrary_flag(rng);
            hop.ack = HopAck::arbitrary(rng);
        }
    }

    fn snapshot(&self) -> ForwardState {
        ForwardState {
            pending: self.pending,
            lanes: [
                self.lanes[0].iter().copied().collect(),
                self.lanes[1].iter().copied().collect(),
            ],
            hops: [0, 1].map(|i| {
                self.hops[i]
                    .as_ref()
                    .map(|h| (h.outgoing, h.state, h.neig_state, h.ack))
            }),
        }
    }

    fn restore(&mut self, state: ForwardState) {
        self.pending = state.pending;
        for (lane, contents) in self.lanes.iter_mut().zip(state.lanes) {
            lane.clear();
            lane.extend(contents);
        }
        for (hop, snap) in self.hops.iter_mut().zip(state.hops) {
            match (hop, snap) {
                (Some(h), Some((outgoing, s, ns, ack))) => {
                    h.outgoing = outgoing;
                    h.state = s;
                    h.neig_state = ns;
                    h.ack = ack;
                }
                (None, None) => {}
                _ => panic!("hop topology mismatch in restored state"),
            }
        }
    }

    /// Specification 4 reads injections and deliveries only; relay hops,
    /// transfers and stale-entry drops are per-hop traffic.
    fn event_is_spec_relevant(event: &ForwardEvent) -> bool {
        matches!(
            event,
            ForwardEvent::Injected { .. } | ForwardEvent::Delivered { .. }
        )
    }
}

/// The deterministic client workload both forwarding substrates share:
/// `payloads_per_process` payloads per process, destinations drawn
/// uniformly among the *other* processes, ids from [`payload_id`]. The
/// sim-vs-live conformance tests rest on both substrates injecting this
/// same stream.
pub fn forward_workload(n: usize, payloads_per_process: u64, seed: u64) -> Vec<Vec<Payload>> {
    let mut rng = SimRng::seed_from(seed ^ 0xF0D_1CE);
    (0..n)
        .map(|i| {
            (0..payloads_per_process)
                .map(|k| {
                    let mut dst = rng.gen_range(0..n - 1);
                    if dst >= i {
                        dst += 1;
                    }
                    Payload {
                        src: i as u16,
                        dst: dst as u16,
                        id: payload_id(i, k),
                        data: rng.gen_u64(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Configuration of a simulated forwarding run ([`run_sim_forwarding`]).
#[derive(Clone, Copy, Debug)]
pub struct SimForwardConfig {
    /// Number of processes on the line.
    pub n: usize,
    /// Client payloads injected per process.
    pub payloads_per_process: u64,
    /// Per-lane buffer capacity.
    pub buffer_cap: usize,
    /// Per-message in-transit loss probability in `[0, 1)`.
    pub loss: f64,
    /// Scheduler / workload / adversary seed.
    pub seed: u64,
    /// Start from an adversarial initial configuration: corrupted
    /// handshake state, stale-pre-filled lanes and hop slots, arbitrary
    /// channel contents.
    pub corrupt: bool,
    /// Step budget; the run stops early once every injected payload is
    /// delivered.
    pub max_steps: u64,
}

impl Default for SimForwardConfig {
    fn default() -> Self {
        SimForwardConfig {
            n: 4,
            payloads_per_process: 3,
            buffer_cap: 4,
            loss: 0.0,
            seed: 1,
            corrupt: false,
            max_steps: 4_000_000,
        }
    }
}

/// Outcome of a simulated forwarding run.
#[derive(Clone, Debug)]
pub struct SimForwardReport {
    /// Every genuine payload the workload asked to inject.
    pub workload: Vec<Payload>,
    /// Payloads injected within the budget (equals the workload on a
    /// completed run).
    pub injected: u64,
    /// Genuine (workload) payloads collected from destination inboxes.
    pub delivered: u64,
    /// Spurious deliveries (stale pre-start entries flushed end-to-end);
    /// allowed by Specification 4, reported for visibility.
    pub spurious: u64,
    /// The trace, ready for
    /// [`crate::spec::analyze_forwarding_trace`].
    pub trace: Trace<ForwardMsg, ForwardEvent>,
    /// Steps executed.
    pub steps: u64,
}

/// Runs the forwarding protocol in the deterministic simulator — the
/// mirror of `snapstab_runtime::ForwardingServiceConfig`, and the harness
/// behind the Specification 4 acceptance sweeps.
///
/// ```
/// use snapstab_core::forward::{run_sim_forwarding, SimForwardConfig};
/// use snapstab_core::spec::analyze_forwarding_trace;
///
/// let cfg = SimForwardConfig { n: 4, seed: 7, corrupt: true, ..SimForwardConfig::default() };
/// let report = run_sim_forwarding(&cfg);
/// assert_eq!(report.delivered, 12, "3 payloads × 4 processes");
/// let spec = analyze_forwarding_trace(&report.trace, 4);
/// assert!(spec.holds(), "{spec:?}");
/// ```
pub fn run_sim_forwarding(cfg: &SimForwardConfig) -> SimForwardReport {
    let config = ForwardConfig {
        buffer_cap: cfg.buffer_cap,
        flag_domain: FlagDomain::PAPER, // capacity-1 simulator channels
    };
    let processes: Vec<ForwardProcess> = (0..cfg.n)
        .map(|i| ForwardProcess::new(ProcessId::new(i), cfg.n, config))
        .collect();
    let network = NetworkBuilder::new(cfg.n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RandomScheduler::new(), cfg.seed);
    if cfg.loss > 0.0 {
        runner.set_loss(LossModel::probabilistic(cfg.loss));
    }
    if cfg.corrupt {
        let mut rng = SimRng::seed_from(cfg.seed ^ 0xF0E_BAD);
        snapstab_sim::CorruptionPlan::full().apply(&mut runner, &mut rng);
    }

    let workload = forward_workload(cfg.n, cfg.payloads_per_process, cfg.seed);
    let all: Vec<Payload> = workload.iter().flatten().copied().collect();
    let total = all.len() as u64;
    let mut queues: Vec<VecDeque<Payload>> = workload.into_iter().map(VecDeque::from).collect();

    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut spurious = 0u64;
    let mut executed = 0u64;
    while delivered < total && executed < cfg.max_steps {
        executed += runner.run_steps(500).expect("sim forwarding run").steps;
        for (i, queue) in queues.iter_mut().enumerate() {
            let p = ProcessId::new(i);
            for payload in runner.process_mut(p).take_delivered() {
                if payload.id & STALE_ID_BIT == 0 {
                    delivered += 1;
                } else {
                    spurious += 1;
                }
            }
            if runner.process(p).can_inject() {
                if let Some(payload) = queue.pop_front() {
                    assert!(runner.process_mut(p).request_send(payload));
                    injected += 1;
                }
            }
        }
    }
    SimForwardReport {
        workload: all,
        injected,
        delivered,
        spurious,
        trace: runner.take_trace(),
        steps: executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::analyze_forwarding_trace;
    use snapstab_sim::{Capacity, Move, NetworkBuilder, RoundRobin, Runner};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn payload(src: usize, dst: usize, id: u64) -> Payload {
        Payload {
            src: src as u16,
            dst: dst as u16,
            id,
            data: 0xDA7A_0000 + id,
        }
    }

    fn system(n: usize) -> Runner<ForwardProcess, RoundRobin> {
        let processes = (0..n)
            .map(|i| ForwardProcess::new(p(i), n, ForwardConfig::default()))
            .collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        Runner::new(processes, network, RoundRobin::new(), 42)
    }

    #[test]
    fn initial_state_is_quiescent() {
        let r = system(3);
        assert!(r.is_quiescent());
        assert!(r.process(p(0)).can_inject());
        assert_eq!(r.process(p(1)).buffered(), 0);
    }

    #[test]
    fn line_ends_have_one_hop() {
        let r = system(3);
        assert!(r.process(p(0)).hops[0].is_some(), "P0 has an up hop");
        assert!(r.process(p(0)).hops[1].is_none(), "P0 has no down hop");
        assert!(r.process(p(2)).hops[0].is_none(), "P2 has no up hop");
        assert!(r.process(p(2)).hops[1].is_some(), "P2 has a down hop");
        assert!(r.process(p(1)).hops.iter().all(Option::is_some));
    }

    #[test]
    fn request_send_enforces_discipline_and_domain() {
        let mut r = system(3);
        assert!(!r.process_mut(p(0)).request_send(payload(0, 0, 1)), "self");
        assert!(!r.process_mut(p(0)).request_send(payload(0, 9, 1)), "range");
        assert!(r.process_mut(p(0)).request_send(payload(0, 2, 1)));
        assert!(
            !r.process_mut(p(0)).request_send(payload(0, 1, 2)),
            "one outstanding injection per process"
        );
    }

    #[test]
    fn single_hop_transfer_delivers_exactly_once() {
        let mut r = system(2);
        r.process_mut(p(0)).request_send(payload(0, 1, 7));
        // Quiescence: the transfer confirms, the slot erases, and nothing
        // is left to say.
        let out = r.run_until_quiescent(10_000).unwrap();
        assert!(out.is_quiescent());
        assert_eq!(r.process_mut(p(1)).take_delivered(), vec![payload(0, 1, 7)]);
        assert_eq!(r.process(p(0)).counters().forwarded, 1, "slot erased");
        assert_eq!(r.process(p(1)).counters().delivered, 1);
    }

    #[test]
    fn multi_hop_relay_crosses_the_line() {
        let mut r = system(4);
        r.process_mut(p(0)).request_send(payload(0, 3, 1));
        let out = r.run_until_quiescent(100_000).unwrap();
        assert!(out.is_quiescent());
        // Two relays (P1, P2), three hop completions (P0, P1, P2).
        assert_eq!(r.process(p(1)).counters().accepted, 1);
        assert_eq!(r.process(p(2)).counters().accepted, 1);
        for i in 0..3 {
            assert_eq!(r.process(p(i)).counters().forwarded, 1, "P{i}");
        }
        assert_eq!(r.process_mut(p(3)).take_delivered(), vec![payload(0, 3, 1)]);
    }

    #[test]
    fn downward_traffic_uses_the_down_lane() {
        let mut r = system(3);
        r.process_mut(p(2)).request_send(payload(2, 0, 5));
        r.run_until(100_000, |r| r.process(p(0)).counters().delivered == 1)
            .unwrap();
        assert_eq!(r.process(p(1)).counters().accepted, 1);
        assert_eq!(r.process_mut(p(0)).take_delivered(), vec![payload(2, 0, 5)]);
    }

    #[test]
    fn full_lane_refuses_then_drains() {
        // Capacity-1 lanes; P1's up lane *and* its outgoing slot start
        // occupied by traffic for P3, so P0's concurrent offer must be
        // refused at least once, retried, and still delivered — the
        // bounded-buffer backpressure path, with no payload lost.
        let config = ForwardConfig {
            buffer_cap: 1,
            flag_domain: FlagDomain::PAPER,
        };
        let n = 4;
        let processes = (0..n)
            .map(|i| ForwardProcess::new(p(i), n, config))
            .collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        let mut r = Runner::new(processes, network, RoundRobin::new(), 7);
        // Four payloads already in the P1/P2 pipeline: P1's lane cannot
        // free before two chained downstream handshakes complete, which
        // is strictly slower than P0's single climb to the copy point.
        let mut expect = vec![payload(0, 3, payload_id(0, 0))];
        for i in [1usize, 2] {
            let queued = payload(i, 3, payload_id(i, 0));
            let in_slot = payload(i, 3, payload_id(i, 1));
            expect.extend([queued, in_slot]);
            let proc = r.process_mut(p(i));
            proc.lanes[0].push_back(queued);
            let hop = proc.hops[0].as_mut().unwrap();
            hop.outgoing = Some(in_slot);
            hop.state = Flag::ZERO;
        }
        r.process_mut(p(0))
            .request_send(payload(0, 3, payload_id(0, 0)));
        let out = r.run_until_quiescent(200_000).unwrap();
        assert!(out.is_quiescent());
        let refusals: u64 = (0..n)
            .map(|i| r.process(p(i)).counters().refused_full)
            .sum();
        let restarts: u64 = (0..n).map(|i| r.process(p(i)).counters().restarts).sum();
        assert_eq!(refusals, restarts, "every refusal restarts a handshake");
        assert!(
            r.process(p(1)).counters().refused_full > 0,
            "P1's full lane must refuse P0 at least once: {:?}",
            r.process(p(1)).counters()
        );
        let mut got = r.process_mut(p(3)).take_delivered();
        got.sort_unstable_by_key(|m| m.id);
        expect.sort_unstable_by_key(|m| m.id);
        assert_eq!(got, expect, "backpressure must not lose payloads");
        let spec = analyze_forwarding_trace(r.trace(), n);
        assert!(spec.holds(), "{spec:?}");
    }

    /// Regression for a live-bench deadlock: a stale payload planted in
    /// a transfer *slot* pointing against its own routing direction
    /// (here: a down-hop slot holding up-bound traffic) used to be
    /// re-buffered at the receiver, knitting the up and down lane
    /// systems into a buffer-wait cycle under saturation. It must
    /// instead be accepted-and-flushed, freeing the sender's slot, with
    /// every genuine payload still delivered.
    #[test]
    fn wrong_way_slot_garbage_cannot_deadlock_the_line() {
        let config = ForwardConfig {
            buffer_cap: 1,
            flag_domain: FlagDomain::PAPER,
        };
        let n = 3;
        let processes = (0..n)
            .map(|i| ForwardProcess::new(p(i), n, config))
            .collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        let mut r = Runner::new(processes, network, RoundRobin::new(), 5);
        // P0's capacity-1 up lane is full of genuine up traffic, and
        // P1's *down* slot offers P0 an up-bound stale payload — the
        // wrong way. Re-buffering it at P0 would wait on P0's full up
        // lane, which waits on P1's lane system, which the stale slot
        // keeps busy: the cycle.
        let wrong_way = payload(1, 2, STALE_ID_BIT | 7);
        {
            let proc = r.process_mut(p(1));
            let hop = proc.hops[Direction::Down.index()].as_mut().unwrap();
            hop.outgoing = Some(wrong_way);
            hop.state = Flag::ZERO;
        }
        r.process_mut(p(0)).lanes[0].push_back(payload(0, 2, payload_id(0, 0)));
        let out = r.run_until_quiescent(200_000).unwrap();
        assert!(out.is_quiescent(), "the line must not wedge");
        assert_eq!(
            r.process(p(0)).counters().dropped_invalid,
            1,
            "the wrong-way offer is flushed at P0: {:?}",
            r.process(p(0)).counters()
        );
        assert_eq!(
            r.process(p(1)).counters().forwarded,
            2,
            "P1's slot freed (stale flush) and the genuine relay ran"
        );
        assert_eq!(
            r.process_mut(p(2)).take_delivered(),
            vec![payload(0, 2, payload_id(0, 0))],
            "the genuine payload still crosses the line exactly once"
        );
        let spec = analyze_forwarding_trace(r.trace(), n);
        assert!(spec.holds(), "{spec:?}");
    }

    #[test]
    fn stale_lane_entry_with_invalid_destination_is_flushed() {
        let mut r = system(3);
        // Plant garbage: P1's up lane holds an entry destined below it.
        let junk = payload(0, 0, STALE_ID_BIT | 9);
        r.process_mut(p(1)).lanes[0].push_back(junk);
        r.execute_move(Move::Activate(p(1))).unwrap();
        assert_eq!(r.process(p(1)).buffered(), 0, "garbage flushed");
        assert_eq!(r.process(p(1)).counters().dropped_invalid, 1);
        let dropped: Vec<_> = r
            .trace()
            .protocol_events_of(p(1))
            .filter(|(_, e)| matches!(e, ForwardEvent::DroppedInvalid { .. }))
            .collect();
        assert_eq!(dropped.len(), 1);
    }

    #[test]
    fn stale_in_domain_entry_is_delivered_at_most_once() {
        let mut r = system(3);
        let stale = payload(0, 2, STALE_ID_BIT | 4);
        r.process_mut(p(0)).lanes[0].push_back(stale);
        let out = r.run_until_quiescent(200_000).unwrap();
        assert!(out.is_quiescent());
        assert_eq!(r.process_mut(p(2)).take_delivered(), vec![stale]);
        let spec = analyze_forwarding_trace(r.trace(), 3);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.spurious, 1, "stale flush is spurious, not genuine");
    }

    #[test]
    fn forged_completion_cannot_erase_the_payload() {
        // Pre-load the reply channel with a forged "handshake complete +
        // accepted" message. The five-valued climb must not let it erase
        // P0's slot: delivery still happens exactly once, at P1.
        let mut r = system(2);
        let m = payload(0, 1, 3);
        r.network_mut()
            .channel_mut(p(1), p(0))
            .unwrap()
            .preload([ForwardMsg {
                payload: None,
                ack: HopAck::Accepted(m.id),
                sender_state: FlagDomain::PAPER.max(),
                echoed_state: Flag::new(3),
            }]);
        r.process_mut(p(0)).request_send(m);
        r.run_until(100_000, |r| r.process(p(1)).counters().delivered == 1)
            .unwrap();
        let spec = analyze_forwarding_trace(r.trace(), 2);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(r.process_mut(p(1)).take_delivered(), vec![m]);
    }

    #[test]
    fn corrupt_clears_pending_and_respects_domains() {
        let mut proc = ForwardProcess::new(p(1), 3, ForwardConfig::default());
        let mut rng = SimRng::seed_from(11);
        for _ in 0..50 {
            proc.corrupt(&mut rng);
            assert!(proc.pending.is_none(), "no forged client intent");
            assert!(proc.buffered() <= 2 * proc.config.buffer_cap);
            for hop in proc.hops.iter().flatten() {
                assert!(hop.state.value() <= 4);
                assert!(hop.neig_state.value() <= 4);
                if let Some(out) = hop.outgoing {
                    assert!(out.id & STALE_ID_BIT != 0, "stale slots marked stale");
                }
            }
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut proc = ForwardProcess::new(p(1), 3, ForwardConfig::default());
        let mut rng = SimRng::seed_from(21);
        proc.corrupt(&mut rng);
        let snap = proc.snapshot();
        proc.corrupt(&mut rng);
        proc.restore(snap.clone());
        assert_eq!(proc.snapshot(), snap);
    }

    #[test]
    fn off_line_garbage_messages_are_ignored() {
        let mut r = system(4);
        // The protocol never uses the 0 -> 3 link; preloaded garbage
        // there must be consumed without any reaction.
        r.network_mut()
            .channel_mut(p(0), p(3))
            .unwrap()
            .preload([ForwardMsg {
                payload: Some(payload(0, 3, STALE_ID_BIT | 1)),
                ack: HopAck::Refused,
                sender_state: Flag::new(3),
                echoed_state: Flag::new(0),
            }]);
        r.execute_move(Move::Deliver {
            from: p(0),
            to: p(3),
        })
        .unwrap();
        assert_eq!(r.process(p(3)).counters().delivered, 0);
        assert_eq!(r.process(p(3)).counters().accepted, 0);
        assert!(r.network().is_quiescent() || r.network().messages_in_flight() == 0);
    }

    #[test]
    fn workload_is_deterministic_and_in_domain() {
        let a = forward_workload(5, 4, 9);
        let b = forward_workload(5, 4, 9);
        assert_eq!(a, b, "same seed, same stream");
        for (i, stream) in a.iter().enumerate() {
            assert_eq!(stream.len(), 4);
            for (k, m) in stream.iter().enumerate() {
                assert_eq!(m.src as usize, i);
                assert_ne!(m.dst as usize, i, "no self-addressed payloads");
                assert!((m.dst as usize) < 5);
                assert_eq!(m.id, payload_id(i, k as u64));
                assert_eq!(m.id & STALE_ID_BIT, 0, "genuine ids are not stale");
            }
        }
        assert_ne!(forward_workload(5, 4, 10), a, "seed matters");
    }

    #[test]
    fn sim_forwarding_clean_run_satisfies_spec4() {
        let cfg = SimForwardConfig {
            n: 5,
            payloads_per_process: 4,
            seed: 3,
            ..SimForwardConfig::default()
        };
        let report = run_sim_forwarding(&cfg);
        assert_eq!(report.injected, 20);
        assert_eq!(report.delivered, 20);
        assert_eq!(report.spurious, 0);
        let spec = analyze_forwarding_trace(&report.trace, cfg.n);
        assert!(spec.holds(), "{spec:?}");
        assert_eq!(spec.injected.len(), 20);
        assert!(spec.latencies().iter().all(|&l| l > 0));
    }

    #[test]
    fn sim_forwarding_corrupted_runs_satisfy_spec4() {
        for seed in 0..8 {
            let cfg = SimForwardConfig {
                n: 4,
                payloads_per_process: 3,
                buffer_cap: 2,
                loss: 0.1,
                seed,
                corrupt: true,
                ..SimForwardConfig::default()
            };
            let report = run_sim_forwarding(&cfg);
            assert_eq!(report.delivered, 12, "seed {seed}: all delivered");
            let spec = analyze_forwarding_trace(&report.trace, cfg.n);
            assert!(spec.holds(), "seed {seed}: {spec:?}");
        }
    }

    #[test]
    fn arbitrary_payloads_are_stale_marked() {
        let mut rng = SimRng::seed_from(0);
        for _ in 0..100 {
            let m = Payload::arbitrary(&mut rng);
            assert!(m.id & STALE_ID_BIT != 0);
        }
    }
}
