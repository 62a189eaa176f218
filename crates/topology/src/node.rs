//! The tree-structured PIF node: hop-by-hop wave propagation with
//! aggregated feedback over an arbitrary tree topology.
//!
//! ## Protocol
//!
//! A wave started at a root `r` must (1) deliver its payload to every
//! process and (2) return to `r` an aggregate (defined by a
//! [`TreeAggregate`]) over every process's contribution — Specification 1
//! lifted from the complete graph to a tree.
//!
//! Every directed tree edge runs the per-edge handshake of
//! [`crate::link`]: Algorithm 1's flag discipline, so the per-edge
//! causality of Lemma 4 holds verbatim. The composition:
//!
//! * the root force-starts a probe wave to each neighbor;
//! * when a node's responder fires `receive-brd` for a probe from `w`
//!   (necessarily genuine once the probe's wave was started, by Lemma 4),
//!   it resets its **relay context** for parent `w`: stores the payload,
//!   computes its own contribution, and force-starts probe waves to its
//!   remaining neighbors;
//! * a relay attaches its feedback — the aggregate over its subtree —
//!   only when all child waves completed; until then the responder
//!   *withholds* the broadcast-trigger echo and the parent retransmits;
//! * the root decides when all neighbor waves completed.
//!
//! ## Why this stays snap-stabilizing (informal; X2 in ARCHITECTURE.md §11)
//!
//! Safety is per-edge Lemma 4 plus one observation: the `receive-brd` that
//! resets the relay context fires *before* any broadcast-trigger echo can
//! flow on that edge (Lemma 4 guarantees `NeigState ≠ trigger` when the
//! started wave's flag reaches the trigger), so corrupted contexts and
//! corrupted attached feedback can never reach a started wave's
//! completion. Liveness: leaves attach feedback immediately, so by
//! induction on subtree height every probe wave terminates; corrupted
//! relay bookkeeping is **reconciled** on every activation (a relay
//! waiting on a child re-queues the child's wave if it is missing), so
//! even never-started computations terminate.
//!
//! The flat protocol needs `Θ(n)` messages per wave on the complete
//! graph; the tree wave needs `Θ(n)` messages on `n − 1` edges but pays
//! latency proportional to the tree depth — `exp_topology` measures the
//! trade.

use snapstab_core::flag::{Flag, FlagDomain};
use snapstab_core::request::RequestState;
use snapstab_sim::{ArbitraryState, Context, ProcessId, Protocol, SimRng, Topology};

use crate::link::{ProbeOutcome, ProbeUnit, ResponderUnit};

/// The aggregation an application runs over the tree.
pub trait TreeAggregate<B, V> {
    /// This process's own contribution to a wave carrying `payload`.
    fn local(&mut self, me: ProcessId, payload: &B) -> V;
    /// Combines an accumulator with one child subtree's aggregate.
    fn combine(&mut self, acc: V, child: V) -> V;
}

/// Messages of the tree protocol: each directed edge carries probes of its
/// own handshake and replies to the opposite handshake.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TreeMsg<B, V> {
    /// A probe of the sender's link wave toward the receiver.
    Probe {
        /// The wave payload.
        payload: B,
        /// The sender's handshake flag.
        sender_state: Flag,
    },
    /// A reply to the receiver's link wave.
    Reply {
        /// The echoed flag.
        echoed: Flag,
        /// The attached feedback (`None` while only pre-trigger echoes
        /// flow).
        feedback: Option<V>,
    },
}

impl<B: ArbitraryState, V: ArbitraryState> ArbitraryState for TreeMsg<B, V> {
    fn arbitrary(rng: &mut SimRng) -> Self {
        if rng.gen_range(0..2) == 0 {
            TreeMsg::Probe {
                payload: B::arbitrary(rng),
                sender_state: Flag::arbitrary(rng),
            }
        } else {
            TreeMsg::Reply {
                echoed: Flag::arbitrary(rng),
                feedback: if rng.gen_range(0..2) == 0 {
                    None
                } else {
                    Some(V::arbitrary(rng))
                },
            }
        }
    }
}

/// Protocol events, consumed by the tree-wave specification checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TreeEvent<B, V> {
    /// The root's starting action ran (`Request`: `Wait → In`).
    RootStarted,
    /// The root decided; `result` is the tree-wide aggregate.
    RootDecided {
        /// The aggregate over every process.
        result: V,
    },
    /// `receive-brd` fired: a wave from neighbor `from` delivered
    /// `payload` to this process.
    WaveReceived {
        /// The parent edge of the wave.
        from: ProcessId,
        /// The delivered payload.
        payload: B,
    },
    /// This process's subtree aggregate for parent `from` became ready.
    SubtreeReady {
        /// The parent edge.
        parent: ProcessId,
        /// The subtree aggregate.
        value: V,
    },
}

/// Who a link's current probe wave belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LinkUser {
    /// The root wave of this process.
    Root,
    /// A relay of the wave received from this parent neighbor.
    Relay(ProcessId),
}

/// A relay context: the in-progress re-broadcast of a wave received from
/// one parent neighbor.
#[derive(Clone, PartialEq, Eq, Debug)]
struct RelayCtx<B, V> {
    payload: B,
    waiting: Vec<ProcessId>,
    acc: V,
}

/// The state projection of a tree node (every variable).
#[derive(Clone, PartialEq, Debug)]
pub struct TreeNodeState<B, V> {
    /// Root request variable.
    pub request: RequestState,
    /// Root wave payload.
    pub root_payload: B,
    /// Neighbors whose root-wave links are still incomplete.
    pub root_waiting: Vec<ProcessId>,
    /// Root accumulator.
    pub root_acc: Option<V>,
    /// Per-neighbor probe variables `(request, flag, payload)`.
    pub probes: Vec<(RequestState, Flag, B)>,
    /// Per-neighbor responder variables `(neig_state, feedback)`.
    pub resps: Vec<(Flag, Option<V>)>,
    /// Per-link current wave owner (`None` = idle); encoded as
    /// `Option<Option<ProcessId>>`: `Some(None)` = root, `Some(Some(w))` =
    /// relay of parent `w`.
    pub users: Vec<Option<Option<ProcessId>>>,
    /// Per-link queued wave owners.
    pub queues: Vec<Vec<Option<ProcessId>>>,
    /// Per-parent relay contexts `(payload, waiting, acc)`.
    pub relays: Vec<Option<(B, Vec<ProcessId>, V)>>,
}

/// A process of the tree PIF protocol.
#[derive(Clone, Debug)]
pub struct TreePifNode<B, V, A> {
    me: ProcessId,
    neighbors: Vec<ProcessId>,
    domain: FlagDomain,
    app: A,
    request: RequestState,
    root_payload: B,
    root_waiting: Vec<ProcessId>,
    root_acc: Option<V>,
    probes: Vec<ProbeUnit<B>>,
    resps: Vec<ResponderUnit<V>>,
    users: Vec<Option<LinkUser>>,
    queues: Vec<Vec<LinkUser>>,
    relays: Vec<Option<RelayCtx<B, V>>>,
}

impl<B, V, A> TreePifNode<B, V, A>
where
    B: Clone + std::fmt::Debug + PartialEq + 'static,
    V: Clone + std::fmt::Debug + PartialEq + 'static,
    A: TreeAggregate<B, V>,
{
    /// Creates a node for process `me` of `topology` (its constant
    /// neighbor set is read off the graph), with flag domain sized for
    /// single-message channels.
    ///
    /// # Panics
    ///
    /// Panics if `me` has no neighbors in `topology`.
    pub fn new(me: ProcessId, topology: &Topology, idle_payload: B, app: A) -> Self {
        Self::with_domain(me, topology, idle_payload, app, FlagDomain::PAPER)
    }

    /// Creates a node with an explicit flag domain (bounded-capacity
    /// deployments use [`FlagDomain::for_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `me` has no neighbors in `topology`.
    pub fn with_domain(
        me: ProcessId,
        topology: &Topology,
        idle_payload: B,
        app: A,
        domain: FlagDomain,
    ) -> Self {
        let neighbors = topology.neighbors(me);
        assert!(
            !neighbors.is_empty(),
            "process {me:?} is isolated in the topology"
        );
        let deg = neighbors.len();
        TreePifNode {
            me,
            neighbors,
            domain,
            app,
            request: RequestState::Done,
            root_payload: idle_payload.clone(),
            root_waiting: Vec::new(),
            root_acc: None,
            probes: (0..deg)
                .map(|_| ProbeUnit::new(domain, idle_payload.clone()))
                .collect(),
            resps: (0..deg).map(|_| ResponderUnit::new(domain)).collect(),
            users: vec![None; deg],
            queues: vec![Vec::new(); deg],
            relays: vec![None; deg],
        }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The (constant) neighbor set.
    pub fn neighbors(&self) -> &[ProcessId] {
        &self.neighbors
    }

    /// Current root request state.
    pub fn request(&self) -> RequestState {
        self.request
    }

    /// The root result (meaningful right after a decision).
    pub fn result(&self) -> Option<&V> {
        self.root_acc.as_ref()
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Externally requests a root wave of `payload`; refused while a wave
    /// is pending or running.
    pub fn request_wave(&mut self, payload: B) -> bool {
        if self.request.accepts_request() {
            self.root_payload = payload;
            self.request = RequestState::Wait;
            true
        } else {
            false
        }
    }

    fn pos(&self, w: ProcessId) -> Option<usize> {
        self.neighbors.iter().position(|&q| q == w)
    }

    /// True if `user`'s wave on link `i` is still wanted.
    fn user_is_live(&self, i: usize, user: LinkUser) -> bool {
        let child = self.neighbors[i];
        match user {
            LinkUser::Root => {
                self.request == RequestState::In && self.root_waiting.contains(&child)
            }
            LinkUser::Relay(par) => self
                .pos(par)
                .and_then(|pi| self.relays[pi].as_ref())
                .is_some_and(|ctx| ctx.waiting.contains(&child)),
        }
    }

    fn user_payload(&self, user: LinkUser) -> Option<B> {
        match user {
            LinkUser::Root => Some(self.root_payload.clone()),
            LinkUser::Relay(par) => self
                .pos(par)
                .and_then(|pi| self.relays[pi].as_ref())
                .map(|ctx| ctx.payload.clone()),
        }
    }

    /// Ensures `user`'s wave toward neighbor index `i` is running or
    /// queued (the self-healing reconciliation step).
    fn ensure_user(&mut self, i: usize, user: LinkUser) {
        if self.users[i] == Some(user) || self.queues[i].contains(&user) {
            return;
        }
        self.queues[i].push(user);
    }

    /// Starts the next queued live wave on an idle link, repairing the
    /// corruption-only wedge (`In` with a complete flag) first.
    fn dispatch(&mut self, i: usize) {
        if self.probes[i].is_wedged() {
            // A transient fault froze this link wave. Restart it if its
            // owner still wants it; abandon it otherwise.
            match self.users[i] {
                Some(user) if self.user_is_live(i, user) => {
                    if let Some(payload) = self.user_payload(user) {
                        self.probes[i].force_start(payload);
                    } else {
                        self.probes[i].abort();
                        self.users[i] = None;
                    }
                }
                _ => {
                    self.probes[i].abort();
                    self.users[i] = None;
                }
            }
        }
        if self.users[i].is_some() && self.probes[i].is_busy() {
            return;
        }
        // A completed or ownerless probe frees the link.
        if !self.probes[i].is_busy() {
            self.users[i] = None;
        }
        while self.users[i].is_none() {
            let Some(user) = (!self.queues[i].is_empty()).then(|| self.queues[i].remove(0)) else {
                return;
            };
            if !self.user_is_live(i, user) {
                continue; // stale queue entry (corruption or superseded wave)
            }
            let Some(payload) = self.user_payload(user) else {
                continue;
            };
            self.probes[i].force_start(payload);
            self.users[i] = Some(user);
        }
    }

    /// A probe wave on link `i` completed with feedback `v`: credit the
    /// owner.
    // The suggested match-guard collapse would change which arm handles a
    // completed probe whose root conditions fail (fall-through vs no-op),
    // so the nested `if` stays.
    #[allow(clippy::collapsible_match)]
    fn credit(&mut self, i: usize, v: V, ctx: &mut Context<'_, TreeMsg<B, V>, TreeEvent<B, V>>) {
        let child = self.neighbors[i];
        match self.users[i].take() {
            Some(LinkUser::Root) => {
                if self.request == RequestState::In && self.root_waiting.contains(&child) {
                    self.root_waiting.retain(|&q| q != child);
                    let acc = self.root_acc.take();
                    self.root_acc = Some(match acc {
                        Some(a) => self.app.combine(a, v),
                        None => v, // corrupted accumulator: keep going
                    });
                }
            }
            Some(LinkUser::Relay(par)) => {
                if let Some(pi) = self.pos(par) {
                    let ready = if let Some(relay) = self.relays[pi].as_mut() {
                        if relay.waiting.contains(&child) {
                            relay.waiting.retain(|&q| q != child);
                            let acc = relay.acc.clone();
                            relay.acc = self.app.combine(acc, v);
                        }
                        relay.waiting.is_empty()
                    } else {
                        false
                    };
                    if ready {
                        let relay = self.relays[pi].take().expect("checked above");
                        self.resps[pi].set_feedback(relay.acc.clone());
                        ctx.emit(TreeEvent::SubtreeReady {
                            parent: par,
                            value: relay.acc,
                        });
                    }
                }
            }
            None => {} // ownerless completion (corrupted bookkeeping)
        }
    }
}

impl<B, V, A> Protocol for TreePifNode<B, V, A>
where
    B: Clone + std::fmt::Debug + PartialEq + ArbitraryState + 'static,
    V: Clone + std::fmt::Debug + PartialEq + ArbitraryState + 'static,
    A: TreeAggregate<B, V> + Clone + std::fmt::Debug + 'static,
{
    type Msg = TreeMsg<B, V>;
    type Event = TreeEvent<B, V>;
    type State = TreeNodeState<B, V>;

    fn activate(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) -> bool {
        let mut acted = false;

        // A1: the root starting action.
        if self.request == RequestState::Wait {
            self.request = RequestState::In;
            self.root_waiting = self.neighbors.clone();
            self.root_acc = Some(self.app.local(self.me, &self.root_payload.clone()));
            // Supersede any stale Root-owned probe left over from an
            // earlier (possibly never-started) computation: the fresh
            // wave must carry the fresh payload, not be adopted onto a
            // leftover handshake.
            let payload = self.root_payload.clone();
            for i in 0..self.probes.len() {
                if self.users[i] == Some(LinkUser::Root) {
                    self.probes[i].force_start(payload.clone());
                }
            }
            ctx.emit(TreeEvent::RootStarted);
            acted = true;
        }

        // Reconciliation: every wanted wave is running or queued.
        if self.request == RequestState::In {
            for w in self.root_waiting.clone() {
                if let Some(i) = self.pos(w) {
                    self.ensure_user(i, LinkUser::Root);
                }
            }
        }
        for pi in 0..self.relays.len() {
            if let Some(waiting) = self.relays[pi].as_ref().map(|r| r.waiting.clone()) {
                let par = self.neighbors[pi];
                if waiting.is_empty() {
                    // A context with nothing left to wait for (a corrupted
                    // state — the genuine path finalizes in `credit`):
                    // finalize it now, or the parent's probe would stall
                    // at the trigger flag forever.
                    let relay = self.relays[pi].take().expect("checked above");
                    self.resps[pi].set_feedback(relay.acc.clone());
                    ctx.emit(TreeEvent::SubtreeReady {
                        parent: par,
                        value: relay.acc,
                    });
                    acted = true;
                    continue;
                }
                for c in waiting {
                    if let Some(i) = self.pos(c) {
                        self.ensure_user(i, LinkUser::Relay(par));
                    }
                }
            }
        }

        // Dispatch and retransmit (A2 per link).
        for i in 0..self.probes.len() {
            self.dispatch(i);
            if let Some((payload, s)) = self.probes[i].tick() {
                ctx.send(
                    self.neighbors[i],
                    TreeMsg::Probe {
                        payload,
                        sender_state: s,
                    },
                );
                acted = true;
            }
        }

        // Root decision.
        if self.request == RequestState::In && self.root_waiting.is_empty() {
            self.request = RequestState::Done;
            let result = match self.root_acc.clone() {
                Some(v) => v,
                // A corrupted In-state with no accumulator: decide with
                // the local contribution (no guarantee owed — the wave
                // was never started).
                None => self.app.local(self.me, &self.root_payload.clone()),
            };
            self.root_acc = Some(result.clone());
            ctx.emit(TreeEvent::RootDecided { result });
            acted = true;
        }

        acted
    }

    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        let Some(i) = self.pos(from) else {
            return; // not a topology neighbor: ignore (junk channel)
        };
        match msg {
            TreeMsg::Probe {
                payload,
                sender_state,
            } => {
                let receipt = self.resps[i].on_probe(sender_state);
                let no_ctx_to_ready = self.relays[i].is_none()
                    && self.resps[i].feedback().is_none()
                    && sender_state == self.domain.broadcast_value();
                if receipt.brd_fired || no_ctx_to_ready {
                    // (Re)start the relay for this parent. `brd_fired` is
                    // the genuine path; `no_ctx_to_ready` repairs corrupted
                    // states where the echo would otherwise be withheld
                    // forever (Termination for never-started waves).
                    if receipt.brd_fired {
                        ctx.emit(TreeEvent::WaveReceived {
                            from,
                            payload: payload.clone(),
                        });
                    }
                    let acc = self.app.local(self.me, &payload);
                    let children: Vec<ProcessId> = self
                        .neighbors
                        .iter()
                        .copied()
                        .filter(|&q| q != from)
                        .collect();
                    if children.is_empty() {
                        self.resps[i].set_feedback(acc.clone());
                        ctx.emit(TreeEvent::SubtreeReady {
                            parent: from,
                            value: acc,
                        });
                        self.relays[i] = None;
                    } else {
                        // Supersede any wave this parent had running.
                        for (ci, &c) in self.neighbors.clone().iter().enumerate() {
                            if c == from {
                                continue;
                            }
                            if self.users[ci] == Some(LinkUser::Relay(from)) {
                                self.probes[ci].force_start(payload.clone());
                            }
                        }
                        self.relays[i] = Some(RelayCtx {
                            payload,
                            waiting: children.clone(),
                            acc,
                        });
                        for c in children {
                            if let Some(ci) = self.pos(c) {
                                self.ensure_user(ci, LinkUser::Relay(from));
                                self.dispatch(ci);
                                if let Some((pl, s)) = self.probes[ci].tick() {
                                    ctx.send(
                                        self.neighbors[ci],
                                        TreeMsg::Probe {
                                            payload: pl,
                                            sender_state: s,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                if let Some((echoed, feedback)) = {
                    // Re-read the feedback: a leaf just attached it above.
                    if receipt.reply.is_some() {
                        receipt.reply
                    } else if sender_state == self.domain.broadcast_value()
                        && !sender_state.is_complete(self.domain)
                    {
                        self.resps[i]
                            .feedback()
                            .cloned()
                            .map(|f| (sender_state, Some(f)))
                    } else {
                        None
                    }
                } {
                    ctx.send(from, TreeMsg::Reply { echoed, feedback });
                }
            }
            TreeMsg::Reply { echoed, feedback } => {
                match self.probes[i].on_reply(echoed, feedback) {
                    ProbeOutcome::Completed(v) => {
                        self.credit(i, v, ctx);
                        self.dispatch(i);
                        if let Some((pl, s)) = self.probes[i].tick() {
                            ctx.send(
                                from,
                                TreeMsg::Probe {
                                    payload: pl,
                                    sender_state: s,
                                },
                            );
                        }
                    }
                    ProbeOutcome::Advanced | ProbeOutcome::Ignored => {}
                }
            }
        }
    }

    fn has_enabled_action(&self) -> bool {
        self.request != RequestState::Done
            || self.probes.iter().any(|p| p.is_busy())
            || self.queues.iter().any(|q| !q.is_empty())
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        let deg = self.neighbors.len();
        let rand_neighbor = |rng: &mut SimRng, nb: &[ProcessId]| nb[rng.gen_range(0..nb.len())];
        let rand_subset = |rng: &mut SimRng, nb: &[ProcessId]| -> Vec<ProcessId> {
            nb.iter()
                .copied()
                .filter(|_| rng.gen_range(0..2) == 0)
                .collect()
        };
        self.request = RequestState::arbitrary(rng);
        self.root_payload = B::arbitrary(rng);
        self.root_waiting = rand_subset(rng, &self.neighbors.clone());
        self.root_acc = if rng.gen_range(0..2) == 0 {
            None
        } else {
            Some(V::arbitrary(rng))
        };
        for i in 0..deg {
            let mut probe = ProbeUnit::new(self.domain, B::arbitrary(rng));
            probe.corrupt_flags(
                RequestState::arbitrary(rng),
                self.domain.arbitrary_flag(rng),
            );
            self.probes[i] = probe;
            let fb = if rng.gen_range(0..2) == 0 {
                None
            } else {
                Some(V::arbitrary(rng))
            };
            self.resps[i].corrupt(self.domain.arbitrary_flag(rng), fb);
            self.users[i] = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(LinkUser::Root),
                _ => Some(LinkUser::Relay(rand_neighbor(rng, &self.neighbors.clone()))),
            };
            self.queues[i] = (0..rng.gen_range(0..3))
                .map(|_| {
                    if rng.gen_range(0..2) == 0 {
                        LinkUser::Root
                    } else {
                        LinkUser::Relay(rand_neighbor(rng, &self.neighbors.clone()))
                    }
                })
                .collect();
            self.relays[i] = if rng.gen_range(0..2) == 0 {
                None
            } else {
                Some(RelayCtx {
                    payload: B::arbitrary(rng),
                    waiting: rand_subset(rng, &self.neighbors.clone()),
                    acc: V::arbitrary(rng),
                })
            };
        }
    }

    fn snapshot(&self) -> Self::State {
        TreeNodeState {
            request: self.request,
            root_payload: self.root_payload.clone(),
            root_waiting: self.root_waiting.clone(),
            root_acc: self.root_acc.clone(),
            probes: self
                .probes
                .iter()
                .map(|p| (p.request(), p.state(), p.payload().clone()))
                .collect(),
            resps: self
                .resps
                .iter()
                .map(|r| (r.neig_state(), r.feedback().cloned()))
                .collect(),
            users: self
                .users
                .iter()
                .map(|u| {
                    u.map(|u| match u {
                        LinkUser::Root => None,
                        LinkUser::Relay(w) => Some(w),
                    })
                })
                .collect(),
            queues: self
                .queues
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|u| match u {
                            LinkUser::Root => None,
                            LinkUser::Relay(w) => Some(*w),
                        })
                        .collect()
                })
                .collect(),
            relays: self
                .relays
                .iter()
                .map(|r| {
                    r.as_ref()
                        .map(|c| (c.payload.clone(), c.waiting.clone(), c.acc.clone()))
                })
                .collect(),
        }
    }

    fn restore(&mut self, state: Self::State) {
        let decode = |u: Option<ProcessId>| match u {
            None => LinkUser::Root,
            Some(w) => LinkUser::Relay(w),
        };
        self.request = state.request;
        self.root_payload = state.root_payload;
        self.root_waiting = state.root_waiting;
        self.root_acc = state.root_acc;
        for (i, (req, flag, payload)) in state.probes.into_iter().enumerate() {
            let mut probe = ProbeUnit::new(self.domain, payload);
            probe.corrupt_flags(req, flag);
            self.probes[i] = probe;
        }
        for (i, (ns, fb)) in state.resps.into_iter().enumerate() {
            self.resps[i].corrupt(ns, fb);
        }
        for (i, u) in state.users.into_iter().enumerate() {
            self.users[i] = u.map(decode);
        }
        for (i, q) in state.queues.into_iter().enumerate() {
            self.queues[i] = q.into_iter().map(decode).collect();
        }
        for (i, r) in state.relays.into_iter().enumerate() {
            self.relays[i] = r.map(|(payload, waiting, acc)| RelayCtx {
                payload,
                waiting,
                acc,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{Count, MinId};
    use snapstab_sim::{Capacity, NetworkBuilder, RandomScheduler, RoundRobin, Runner, Scheduler};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    type CountNode = TreePifNode<u8, u64, Count>;

    fn count_system<S: Scheduler>(
        topo: &Topology,
        scheduler: S,
        seed: u64,
    ) -> Runner<CountNode, S> {
        let n = topo.n();
        let processes = (0..n)
            .map(|i| TreePifNode::new(p(i), topo, 0u8, Count))
            .collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        Runner::new(processes, network, scheduler, seed)
    }

    fn run_wave<S: Scheduler>(runner: &mut Runner<CountNode, S>, root: ProcessId) -> u64 {
        assert!(runner.process_mut(root).request_wave(7));
        runner
            .run_until(2_000_000, |r| {
                r.process(root).request() == RequestState::Done
            })
            .expect("wave decides");
        assert_eq!(runner.process(root).request(), RequestState::Done);
        *runner.process(root).result().expect("result present")
    }

    #[test]
    fn clean_count_wave_on_a_path() {
        let topo = Topology::path(5);
        let mut runner = count_system(&topo, RoundRobin::new(), 1);
        assert_eq!(run_wave(&mut runner, p(0)), 5);
    }

    #[test]
    fn clean_count_wave_from_an_interior_root() {
        let topo = Topology::path(6);
        let mut runner = count_system(&topo, RoundRobin::new(), 2);
        assert_eq!(run_wave(&mut runner, p(3)), 6);
    }

    #[test]
    fn clean_count_wave_on_star_and_binary_tree() {
        for topo in [Topology::star(7), Topology::binary_tree(7)] {
            let mut runner = count_system(&topo, RoundRobin::new(), 3);
            assert_eq!(run_wave(&mut runner, p(0)), 7);
        }
    }

    #[test]
    fn min_id_wave_elects_the_leader() {
        let topo = Topology::binary_tree(6);
        let ids = [40u64, 10, 30, 77, 5, 60];
        let processes: Vec<TreePifNode<u8, u64, MinId>> = (0..6)
            .map(|i| TreePifNode::new(p(i), &topo, 0u8, MinId { my_id: ids[i] }))
            .collect();
        let network = NetworkBuilder::new(6)
            .capacity(Capacity::Bounded(1))
            .build();
        let mut runner = Runner::new(processes, network, RoundRobin::new(), 4);
        assert!(runner.process_mut(p(2)).request_wave(1));
        runner
            .run_until(2_000_000, |r| {
                r.process(p(2)).request() == RequestState::Done
            })
            .expect("wave decides");
        assert_eq!(runner.process(p(2)).result(), Some(&5));
    }

    #[test]
    fn wave_completes_under_loss() {
        let topo = Topology::path(4);
        let mut runner = count_system(&topo, RandomScheduler::new(), 5);
        runner.set_loss(snapstab_sim::LossModel::probabilistic(0.25));
        assert_eq!(run_wave(&mut runner, p(0)), 4);
    }

    #[test]
    fn corrupted_start_still_serves_the_first_request() {
        for seed in 0..6 {
            let topo = Topology::binary_tree(5);
            let mut runner = count_system(&topo, RandomScheduler::new(), seed);
            let mut rng = SimRng::seed_from(seed + 100);
            snapstab_sim::CorruptionPlan::full().apply(&mut runner, &mut rng);
            // Drain corrupted computations first.
            let _ = runner.run_until(500_000, |r| r.process(p(0)).request() != RequestState::Wait);
            if runner.process(p(0)).request() != RequestState::Done {
                runner
                    .run_until(2_000_000, |r| {
                        r.process(p(0)).request() == RequestState::Done
                    })
                    .expect("corrupted wave drains");
            }
            assert_eq!(run_wave(&mut runner, p(0)), 5, "seed {seed}");
        }
    }

    #[test]
    fn concurrent_roots_both_decide_exactly() {
        let topo = Topology::path(5);
        let mut runner = count_system(&topo, RandomScheduler::new(), 9);
        assert!(runner.process_mut(p(0)).request_wave(1));
        assert!(runner.process_mut(p(4)).request_wave(2));
        runner
            .run_until(4_000_000, |r| {
                r.process(p(0)).request() == RequestState::Done
                    && r.process(p(4)).request() == RequestState::Done
            })
            .expect("both waves decide");
        assert_eq!(runner.process(p(0)).result(), Some(&5));
        assert_eq!(runner.process(p(4)).result(), Some(&5));
    }

    #[test]
    fn spanning_tree_runs_on_non_tree_graphs() {
        let ring = Topology::ring(6);
        let tree = ring.bfs_spanning_tree(p(0));
        assert!(tree.is_tree());
        let mut runner = count_system(&tree, RoundRobin::new(), 11);
        assert_eq!(run_wave(&mut runner, p(0)), 6);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let topo = Topology::star(4);
        let mut node: CountNode = TreePifNode::new(p(0), &topo, 0u8, Count);
        let mut rng = SimRng::seed_from(42);
        node.corrupt(&mut rng);
        let snap = node.snapshot();
        let mut other: CountNode = TreePifNode::new(p(0), &topo, 0u8, Count);
        other.restore(snap.clone());
        assert_eq!(other.snapshot(), snap);
    }

    #[test]
    fn junk_from_non_neighbors_is_ignored() {
        let topo = Topology::path(3); // 0 - 1 - 2: 0 and 2 not adjacent
        let mut runner = count_system(&topo, RoundRobin::new(), 13);
        runner
            .network_mut()
            .channel_mut(p(2), p(0))
            .unwrap()
            .preload([TreeMsg::Probe {
                payload: 9u8,
                sender_state: Flag::new(3),
            }]);
        assert_eq!(run_wave(&mut runner, p(0)), 3);
    }

    #[test]
    fn request_refused_while_busy() {
        let topo = Topology::path(3);
        let mut runner = count_system(&topo, RoundRobin::new(), 14);
        assert!(runner.process_mut(p(0)).request_wave(1));
        assert!(
            !runner.process_mut(p(0)).request_wave(2),
            "pending wave refuses"
        );
    }

    #[test]
    fn empty_waiting_relay_context_finalizes() {
        // Regression: a corrupted relay context with an empty waiting list
        // must finalize (attach feedback) at the next activation, or a
        // parent's probe stalls at the trigger flag forever (found by the
        // X2 sweep, binary_tree(7), seed 38).
        let topo = Topology::path(3);
        let mut node: CountNode = TreePifNode::new(p(1), &topo, 0u8, Count);
        let mut rng = SimRng::seed_from(0);
        // Hand-craft the corrupted state: relay ctx for parent 0 with
        // nothing to wait for and no feedback attached.
        node.corrupt(&mut rng);
        let mut s = node.snapshot();
        s.request = RequestState::Done;
        s.relays = vec![Some((7u8, vec![], 2u64)), None];
        s.resps = vec![(Flag::new(3), None), (Flag::new(4), None)];
        s.users = vec![None, None];
        s.queues = vec![vec![], vec![]];
        s.probes = vec![
            (RequestState::Done, Flag::new(4), 0),
            (RequestState::Done, Flag::new(4), 0),
        ];
        node.restore(s);

        let mut rng2 = SimRng::seed_from(1);
        let mut sends = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::new(p(1), 3, 0, &mut rng2, &mut sends, &mut events);
        node.activate(&mut ctx);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TreeEvent::SubtreeReady { .. })),
            "the empty context finalized: {events:?}"
        );
        let s = node.snapshot();
        assert_eq!(s.relays[0], None, "context cleared");
        assert_eq!(s.resps[0].1, Some(2), "feedback attached");
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn isolated_process_rejected() {
        let topo = Topology::from_edges(3, &[(0, 1)]); // 2 is isolated
        let _: CountNode = TreePifNode::new(p(2), &topo, 0, Count);
    }
}
