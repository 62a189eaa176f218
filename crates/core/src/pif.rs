//! Algorithm 1 — the snap-stabilizing PIF protocol.
//!
//! Propagation of Information with Feedback (also called Wave Propagation):
//! when requested, an initiator `p` broadcasts a message to every other
//! process and collects one acknowledgment from each; the computation ends
//! with a *decision* that takes exactly those acknowledgments into account.
//!
//! The protocol keeps, per neighbor `q`, a handshake flag `State_p[q]`
//! that climbs `0 → 4`; `p` repeatedly sends
//! `⟨PIF, B-Mes_p, F-Mes_p[q], State_p[q], NeigState_p[q]⟩` to `q` and
//! increments `State_p[q]` only on receiving a message from `q` echoing the
//! current value. The `receive-brd` event fires at `q` when it first sees
//! `sender_state = 3`; the `receive-fck` event fires at `p` when
//! `State_p[q]` reaches `4`. The five-valued domain defeats the (at most)
//! one stale message per channel direction plus the stale `NeigState`
//! value that an arbitrary initial configuration can hide (Figure 1 shows
//! the tight case).
//!
//! ## Composition
//!
//! Upper layers (IDL, ME) embed a [`PifCore`] and implement [`PifApp`];
//! the `receive-brd` upcall **synchronously** computes the feedback to
//! store in `F-Mes[q]`, within the same atomic receive action — this is
//! what makes the first `sender_state = 3` reply already carry the correct
//! acknowledgment (used in the proof of Lemma 5). Standalone use goes
//! through [`PifProcess`].

use snapstab_sim::{neighbors, ArbitraryState, Context, PerNeighbor, ProcessId, Protocol, SimRng};

use crate::flag::{Flag, FlagDomain};
use crate::request::RequestState;

/// The single message type of the protocol (the paper: "we use a single
/// message type, noted `PIF`").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PifMsg<B, F> {
    /// `B-Mes` of the sender: the data being broadcast.
    pub broadcast: B,
    /// `F-Mes[receiver]` of the sender: the feedback for the receiver's own
    /// broadcast.
    pub feedback: F,
    /// `State_sender[receiver]`: the sender's handshake flag toward the
    /// receiver.
    pub sender_state: Flag,
    /// `NeigState_sender[receiver]`: the receiver's flag as last seen by
    /// the sender (the echo that drives increments).
    pub echoed_state: Flag,
}

impl<B: ArbitraryState, F: ArbitraryState> ArbitraryState for PifMsg<B, F> {
    fn arbitrary(rng: &mut SimRng) -> Self {
        PifMsg {
            broadcast: B::arbitrary(rng),
            feedback: F::arbitrary(rng),
            sender_state: Flag::arbitrary(rng),
            echoed_state: Flag::arbitrary(rng),
        }
    }
}

/// Protocol-level events of a PIF instance, recorded in the trace and
/// consumed by the Specification 1 checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PifEvent<B, F> {
    /// Action A1 executed: `Request` switched `Wait → In` and all flags
    /// were reset (the *starting action*).
    Started,
    /// Action A2 found every flag at 4: `Request` switched `In → Done`
    /// (the *decision*).
    Decided,
    /// The `receive-brd⟨B⟩ from q` event: this process first saw the
    /// neighbor's flag at 3 for the current wave.
    ReceiveBrd {
        /// The broadcasting neighbor.
        from: ProcessId,
        /// The broadcast data.
        data: B,
    },
    /// The `receive-fck⟨F⟩ from q` event: `State[q]` switched `3 → 4`.
    ReceiveFck {
        /// The acknowledging neighbor.
        from: ProcessId,
        /// The feedback data.
        data: F,
    },
}

/// The application layer above a PIF instance.
///
/// `on_broadcast` is the `receive-brd` handler: it must return the
/// feedback value, which the core stores in `F-Mes[from]` *within the same
/// atomic step* (the reply sent at the end of the receive action already
/// carries it). `on_feedback` is the `receive-fck` handler.
pub trait PifApp<B, F> {
    /// Handles `receive-brd⟨data⟩ from from`; returns the feedback to store
    /// in `F-Mes[from]`.
    fn on_broadcast(&mut self, from: ProcessId, data: &B) -> F;

    /// Handles `receive-fck⟨data⟩ from from`.
    fn on_feedback(&mut self, from: ProcessId, data: &F);
}

/// The state projection `φ_p` of a PIF instance: every local variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PifState<B, F> {
    /// The request variable.
    pub request: RequestState,
    /// The broadcast data `B-Mes`.
    pub b_mes: B,
    /// Per-neighbor feedback data `F-Mes[q]` (own slot unused).
    pub f_mes: Vec<F>,
    /// Per-neighbor handshake flags `State[q]` (own slot unused).
    pub state: Vec<Flag>,
    /// Per-neighbor flag views `NeigState[q]` (own slot unused).
    pub neig_state: Vec<Flag>,
}

/// Algorithm 1's variables and actions for one process.
///
/// Generic over the broadcast data type `B` and feedback data type `F`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PifCore<B, F> {
    me: ProcessId,
    n: usize,
    domain: FlagDomain,
    request: RequestState,
    b_mes: B,
    f_mes: PerNeighbor<F>,
    state: PerNeighbor<Flag>,
    neig_state: PerNeighbor<Flag>,
}

impl<B, F> PifCore<B, F>
where
    B: Clone + std::fmt::Debug + PartialEq + 'static,
    F: Clone + std::fmt::Debug + PartialEq + 'static,
{
    /// Creates a correctly-initialized instance (`Request = Done`, all
    /// flags at the completion value, quiescent). Snap-stabilization of
    /// course does not depend on this initialization; tests corrupt it.
    pub fn new(me: ProcessId, n: usize, initial_b: B, initial_f: F) -> Self {
        Self::with_domain(me, n, initial_b, initial_f, FlagDomain::PAPER)
    }

    /// Creates an instance over a non-standard flag domain (the A1
    /// minimality ablation; everything else uses [`FlagDomain::PAPER`]).
    pub fn with_domain(
        me: ProcessId,
        n: usize,
        initial_b: B,
        initial_f: F,
        domain: FlagDomain,
    ) -> Self {
        PifCore {
            me,
            n,
            domain,
            request: RequestState::Done,
            b_mes: initial_b,
            f_mes: PerNeighbor::new(me, n, initial_f),
            state: PerNeighbor::new(me, n, domain.max()),
            neig_state: PerNeighbor::new(me, n, domain.max()),
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

    /// The flag domain in use.
    pub fn domain(&self) -> FlagDomain {
        self.domain
    }

    /// Current request state.
    pub fn request(&self) -> RequestState {
        self.request
    }

    /// The broadcast data `B-Mes`.
    pub fn b_mes(&self) -> &B {
        &self.b_mes
    }

    /// Sets the broadcast data (done by the user/upper layer right before
    /// requesting a wave).
    pub fn set_b_mes(&mut self, b: B) {
        self.b_mes = b;
    }

    /// The handshake flag `State[q]`.
    pub fn state_of(&self, q: ProcessId) -> Flag {
        *self.state.get(q)
    }

    /// The neighbor-flag view `NeigState[q]`.
    pub fn neig_state_of(&self, q: ProcessId) -> Flag {
        *self.neig_state.get(q)
    }

    /// The stored feedback `F-Mes[q]`.
    pub fn f_mes_of(&self, q: ProcessId) -> &F {
        self.f_mes.get(q)
    }

    /// Externally requests a wave broadcasting `b` (`Request ← Wait`).
    /// Refused (returning `false`) while a computation is pending or in
    /// progress, per the paper's user discipline.
    pub fn request_broadcast(&mut self, b: B) -> bool {
        if self.request.accepts_request() {
            self.b_mes = b;
            self.request = RequestState::Wait;
            true
        } else {
            false
        }
    }

    /// **Upper-layer start** (`PIF.Request_p ← Wait` as written in
    /// Algorithms 2 and 3): unconditionally overwrites the request
    /// variable. An in-progress (necessarily non-started, by the layer's
    /// own sequencing) computation is abandoned and a fresh wave begins.
    pub fn force_request(&mut self, b: B) {
        self.b_mes = b;
        self.request = RequestState::Wait;
    }

    fn wave_message(&self, q: ProcessId) -> PifMsg<B, F> {
        PifMsg {
            broadcast: self.b_mes.clone(),
            feedback: self.f_mes.get(q).clone(),
            sender_state: *self.state.get(q),
            echoed_state: *self.neig_state.get(q),
        }
    }

    /// Action A1 (the starting action): `Request = Wait → Request ← In`,
    /// reset every `State[q]` to 0. Returns true if it executed.
    pub fn action_a1<E>(&mut self, ctx: &mut Context<'_, PifMsg<B, F>, E>) -> bool
    where
        E: From<PifEvent<B, F>>,
    {
        if self.request != RequestState::Wait {
            return false;
        }
        self.request = RequestState::In;
        self.state.fill_with(|_| Flag::ZERO);
        ctx.emit(PifEvent::Started.into());
        true
    }

    /// Action A2: while `Request = In`, either decide (all flags complete)
    /// or retransmit to every neighbor whose flag is not complete. Returns
    /// true if it executed.
    pub fn action_a2<E>(&mut self, ctx: &mut Context<'_, PifMsg<B, F>, E>) -> bool
    where
        E: From<PifEvent<B, F>>,
    {
        if self.request != RequestState::In {
            return false;
        }
        let domain = self.domain;
        if self.state.all(|s| s.is_complete(domain)) {
            self.request = RequestState::Done;
            ctx.emit(PifEvent::Decided.into());
        } else {
            // Increasing id order, the order of `PerNeighbor::iter`.
            for q in neighbors(self.me, self.n) {
                if !self.state.get(q).is_complete(domain) {
                    ctx.send(q, self.wave_message(q));
                }
            }
        }
        true
    }

    /// Runs the internal actions in textual order (A1 then A2). Returns
    /// true if any executed.
    pub fn activate<E>(&mut self, ctx: &mut Context<'_, PifMsg<B, F>, E>) -> bool
    where
        E: From<PifEvent<B, F>>,
    {
        let a1 = self.action_a1(ctx);
        let a2 = self.action_a2(ctx);
        a1 || a2
    }

    /// Action A3 (the receive action), with the application's `receive-brd`
    /// and `receive-fck` handlers invoked synchronously.
    pub fn handle_receive<E, A>(
        &mut self,
        from: ProcessId,
        msg: PifMsg<B, F>,
        app: &mut A,
        ctx: &mut Context<'_, PifMsg<B, F>, E>,
    ) where
        E: From<PifEvent<B, F>>,
        A: PifApp<B, F> + ?Sized,
    {
        let domain = self.domain;
        // Defensive clamp: in-domain by construction for protocol-generated
        // messages; forged initial messages are clamped (DESIGN.md D6 note).
        let sender_state = domain.clamp(msg.sender_state);
        let echoed_state = domain.clamp(msg.echoed_state);

        // receive-brd: first sight of the neighbor's flag at `max - 1`.
        if *self.neig_state.get(from) != domain.broadcast_value()
            && sender_state == domain.broadcast_value()
        {
            let feedback = app.on_broadcast(from, &msg.broadcast);
            self.f_mes.set(from, feedback);
            ctx.emit(
                PifEvent::ReceiveBrd {
                    from,
                    data: msg.broadcast.clone(),
                }
                .into(),
            );
        }

        self.neig_state.set(from, sender_state);

        // Echo check: increment `State[from]` when the neighbor echoes it.
        if *self.state.get(from) == echoed_state && !self.state.get(from).is_complete(domain) {
            let next = self.state.get(from).incremented(domain);
            self.state.set(from, next);
            if next.is_complete(domain) {
                app.on_feedback(from, &msg.feedback);
                ctx.emit(
                    PifEvent::ReceiveFck {
                        from,
                        data: msg.feedback.clone(),
                    }
                    .into(),
                );
            }
        }

        // Reply while the neighbor is still waving.
        if !sender_state.is_complete(domain) {
            let reply = self.wave_message(from);
            ctx.send(from, reply);
        }
    }

    /// True if A1 or A2 is enabled.
    pub fn has_enabled_action(&self) -> bool {
        matches!(self.request, RequestState::Wait | RequestState::In)
    }

    /// The state projection.
    pub fn snapshot(&self) -> PifState<B, F> {
        PifState {
            request: self.request,
            b_mes: self.b_mes.clone(),
            f_mes: (0..self.n)
                .map(|i| {
                    if i == self.me.index() {
                        self.b_dummy_f()
                    } else {
                        self.f_mes.get(ProcessId::new(i)).clone()
                    }
                })
                .collect(),
            state: (0..self.n)
                .map(|i| {
                    if i == self.me.index() {
                        Flag::ZERO
                    } else {
                        *self.state.get(ProcessId::new(i))
                    }
                })
                .collect(),
            neig_state: (0..self.n)
                .map(|i| {
                    if i == self.me.index() {
                        Flag::ZERO
                    } else {
                        *self.neig_state.get(ProcessId::new(i))
                    }
                })
                .collect(),
        }
    }

    fn b_dummy_f(&self) -> F {
        // The owner's own F slot is never meaningful; reuse any neighbor's
        // value (n >= 2 guarantees one exists).
        self.f_mes
            .iter()
            .next()
            .map(|(_, f)| f.clone())
            .expect("system has at least two processes")
    }

    /// Restores a state projection.
    pub fn restore(&mut self, s: PifState<B, F>) {
        assert_eq!(s.f_mes.len(), self.n, "state projection size mismatch");
        self.request = s.request;
        self.b_mes = s.b_mes;
        for i in 0..self.n {
            if i != self.me.index() {
                let q = ProcessId::new(i);
                self.f_mes.set(q, s.f_mes[i].clone());
                self.state.set(q, s.state[i]);
                self.neig_state.set(q, s.neig_state[i]);
            }
        }
    }
}

impl<B, F> PifCore<B, F>
where
    B: Clone + std::fmt::Debug + PartialEq + ArbitraryState + 'static,
    F: Clone + std::fmt::Debug + PartialEq + ArbitraryState + 'static,
{
    /// Overwrites every variable with an arbitrary in-domain value
    /// (transient fault / arbitrary initial configuration).
    pub fn corrupt(&mut self, rng: &mut SimRng) {
        self.request = RequestState::arbitrary(rng);
        self.b_mes = B::arbitrary(rng);
        let domain = self.domain;
        self.f_mes.fill_with(|_| F::arbitrary(rng));
        self.state.fill_with(|_| domain.arbitrary_flag(rng));
        self.neig_state.fill_with(|_| domain.arbitrary_flag(rng));
    }
}

/// A standalone PIF process: a [`PifCore`] plus an owned application.
///
/// The application's state is auxiliary to the protocol: [`Protocol::corrupt`]
/// corrupts the protocol variables (the app decides separately what fault
/// injection means for it), and the state projection covers the protocol
/// variables.
#[derive(Clone, Debug)]
pub struct PifProcess<B, F, A> {
    core: PifCore<B, F>,
    app: A,
}

impl<B, F, A> PifProcess<B, F, A>
where
    B: Clone + std::fmt::Debug + PartialEq + 'static,
    F: Clone + std::fmt::Debug + PartialEq + 'static,
    A: PifApp<B, F>,
{
    /// Creates a standalone PIF process.
    pub fn new(me: ProcessId, n: usize, initial_b: B, app: A) -> Self
    where
        F: Default,
    {
        PifProcess {
            core: PifCore::new(me, n, initial_b, F::default()),
            app,
        }
    }

    /// Creates a standalone PIF process with an explicit initial feedback
    /// value (for `F` without `Default`).
    pub fn with_initial_f(me: ProcessId, n: usize, initial_b: B, initial_f: F, app: A) -> Self {
        PifProcess {
            core: PifCore::new(me, n, initial_b, initial_f),
            app,
        }
    }

    /// Creates a standalone PIF process over a non-standard flag domain
    /// (the A1 minimality ablation).
    pub fn with_domain(
        me: ProcessId,
        n: usize,
        initial_b: B,
        initial_f: F,
        domain: crate::flag::FlagDomain,
        app: A,
    ) -> Self {
        PifProcess {
            core: PifCore::with_domain(me, n, initial_b, initial_f, domain),
            app,
        }
    }

    /// Creates a standalone PIF process sized for channels of capacity
    /// `capacity`: the flag domain gets `2·capacity + 3` values (the §4
    /// "arbitrary but known bounded capacity" extension — see
    /// [`crate::capacity`] for the tightness analysis). `capacity = 1`
    /// yields the paper's protocol exactly.
    pub fn for_capacity(
        me: ProcessId,
        n: usize,
        initial_b: B,
        initial_f: F,
        capacity: usize,
        app: A,
    ) -> Self {
        Self::with_domain(
            me,
            n,
            initial_b,
            initial_f,
            crate::flag::FlagDomain::for_capacity(capacity),
            app,
        )
    }

    /// The protocol core.
    pub fn core(&self) -> &PifCore<B, F> {
        &self.core
    }

    /// Exclusive access to the protocol core (tests, adversarial setup).
    pub fn core_mut(&mut self) -> &mut PifCore<B, F> {
        &mut self.core
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Exclusive access to the application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Externally requests a wave broadcasting `b`; refused while a
    /// computation is pending or running.
    pub fn request_broadcast(&mut self, b: B) -> bool {
        self.core.request_broadcast(b)
    }

    /// Current request state.
    pub fn request(&self) -> RequestState {
        self.core.request()
    }
}

impl<B, F, A> Protocol for PifProcess<B, F, A>
where
    B: Clone + std::fmt::Debug + PartialEq + ArbitraryState + 'static,
    F: Clone + std::fmt::Debug + PartialEq + ArbitraryState + 'static,
    A: PifApp<B, F> + std::fmt::Debug,
{
    type Msg = PifMsg<B, F>;
    type Event = PifEvent<B, F>;
    type State = PifState<B, F>;

    fn activate(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) -> bool {
        self.core.activate(ctx)
    }

    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    ) {
        self.core.handle_receive(from, msg, &mut self.app, ctx);
    }

    fn has_enabled_action(&self) -> bool {
        self.core.has_enabled_action()
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.core.corrupt(rng);
    }

    fn snapshot(&self) -> Self::State {
        self.core.snapshot()
    }

    fn restore(&mut self, state: Self::State) {
        self.core.restore(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_sim::{Capacity, Move, NetworkBuilder, RoundRobin, Runner};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Echoes a fixed feedback value; records what it saw.
    #[derive(Clone, Debug)]
    struct Echo {
        value: u32,
        brd_seen: Vec<(ProcessId, u32)>,
        fck_seen: Vec<(ProcessId, u32)>,
    }

    impl Echo {
        fn new(value: u32) -> Self {
            Echo {
                value,
                brd_seen: Vec::new(),
                fck_seen: Vec::new(),
            }
        }
    }

    impl PifApp<u32, u32> for Echo {
        fn on_broadcast(&mut self, from: ProcessId, data: &u32) -> u32 {
            self.brd_seen.push((from, *data));
            self.value
        }
        fn on_feedback(&mut self, from: ProcessId, data: &u32) {
            self.fck_seen.push((from, *data));
        }
    }

    type Proc = PifProcess<u32, u32, Echo>;

    fn system(n: usize) -> Runner<Proc, RoundRobin> {
        let processes: Vec<Proc> = (0..n)
            .map(|i| PifProcess::new(p(i), n, 0, Echo::new(100 + i as u32)))
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
        assert_eq!(r.process(p(0)).request(), RequestState::Done);
    }

    #[test]
    fn request_switches_wait_then_start_runs_a1_a2() {
        let mut r = system(2);
        assert!(r.process_mut(p(0)).request_broadcast(7));
        assert_eq!(r.process(p(0)).request(), RequestState::Wait);
        assert!(
            !r.process_mut(p(0)).request_broadcast(8),
            "second request refused"
        );
        r.execute_move(Move::Activate(p(0))).unwrap();
        assert_eq!(r.process(p(0)).request(), RequestState::In);
        assert_eq!(r.process(p(0)).core().state_of(p(1)), Flag::ZERO);
        // A2 ran in the same activation: one message is in flight.
        assert_eq!(r.network().messages_in_flight(), 1);
    }

    /// The clean two-process handshake, traced step by step: four
    /// round-trips, `receive-brd` at the peer on the 3-flagged message,
    /// `receive-fck` at the initiator on its echo.
    #[test]
    fn two_process_wave_handshake_exact_steps() {
        let mut r = system(2);
        r.process_mut(p(0)).request_broadcast(7);
        let deliver_01 = Move::Deliver {
            from: p(0),
            to: p(1),
        };
        let deliver_10 = Move::Deliver {
            from: p(1),
            to: p(0),
        };

        for round in 0u8..4 {
            r.execute_move(Move::Activate(p(0))).unwrap(); // A1 (first round) + A2 send
            r.execute_move(deliver_01).unwrap(); // q receives, replies
            r.execute_move(deliver_10).unwrap(); // p receives echo, increments
            assert_eq!(
                r.process(p(0)).core().state_of(p(1)),
                Flag::new(round + 1),
                "round {round}"
            );
        }
        assert_eq!(r.process(p(0)).core().state_of(p(1)), Flag::new(4));
        // Decision on the next activation.
        r.execute_move(Move::Activate(p(0))).unwrap();
        assert_eq!(r.process(p(0)).request(), RequestState::Done);

        // The peer saw exactly one receive-brd with the right data.
        assert_eq!(r.process(p(1)).app().brd_seen, vec![(p(0), 7)]);
        // The initiator saw exactly one receive-fck carrying the app value.
        assert_eq!(r.process(p(0)).app().fck_seen, vec![(p(1), 101)]);
        assert!(r.is_quiescent(), "no messages or enabled actions remain");
    }

    #[test]
    fn wave_completes_under_round_robin() {
        let mut r = system(4);
        r.process_mut(p(2)).request_broadcast(55);
        let out = r
            .run_until(100_000, |r| r.process(p(2)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(out.stopped, snapstab_sim::StopCondition::Predicate);
        // Everyone but the initiator saw the broadcast exactly once.
        for i in [0usize, 1, 3] {
            assert_eq!(r.process(p(i)).app().brd_seen, vec![(p(2), 55)]);
        }
        // The initiator collected all three feedbacks.
        let mut fck = r.process(p(2)).app().fck_seen.clone();
        fck.sort();
        assert_eq!(fck, vec![(p(0), 100), (p(1), 101), (p(3), 103)]);
    }

    #[test]
    fn wave_completes_from_corrupted_configuration() {
        for seed in 0..20 {
            let mut r = system(3);
            let mut rng = SimRng::seed_from(seed);
            snapstab_sim::CorruptionPlan::full().apply(&mut r, &mut rng);
            // Wait for the (possibly corrupted-In) computation to flush out.
            let _ = r.run_until(100_000, |r| r.process(p(0)).request() == RequestState::Done);
            // Clear app observation logs so we assert on post-request events
            // only (the corrupted computation legitimately delivers garbage;
            // snap-stabilization promises nothing about it).
            for i in 0..3 {
                r.process_mut(p(i)).app_mut().brd_seen.clear();
                r.process_mut(p(i)).app_mut().fck_seen.clear();
            }
            r.process_mut(p(0)).core_mut().force_request(9);
            let out = r
                .run_until(200_000, |r| r.process(p(0)).request() == RequestState::Done)
                .unwrap();
            assert_eq!(
                out.stopped,
                snapstab_sim::StopCondition::Predicate,
                "seed {seed}: wave must terminate"
            );
            // Correctness: both peers got the broadcast with the right data
            // after the genuine start.
            for i in [1usize, 2] {
                assert!(
                    r.process(p(i)).app().brd_seen.contains(&(p(0), 9)),
                    "seed {seed}: P{i} must receive the genuine broadcast"
                );
            }
            // Decision: the last feedback events at p are the app values.
            for (from, val) in r.process(p(0)).app().fck_seen.iter() {
                let expected = 100 + from.index() as u32;
                assert_eq!(*val, expected, "seed {seed}: feedback from {from}");
            }
        }
    }

    #[test]
    fn non_started_corrupted_computation_terminates() {
        // Request = In with arbitrary flags, nothing in flight: A2 keeps
        // retransmitting until the handshake completes, then decides.
        let mut r = system(2);
        let mut rng = SimRng::seed_from(3);
        r.process_mut(p(0)).core_mut().corrupt(&mut rng);
        // Force the interesting case.
        let snap = r.process(p(0)).core().snapshot();
        let mut s = snap.clone();
        s.request = RequestState::In;
        s.state = vec![Flag::ZERO, Flag::new(2)];
        r.process_mut(p(0)).core_mut().restore(s);
        let out = r
            .run_until(100_000, |r| r.process(p(0)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(out.stopped, snapstab_sim::StopCondition::Predicate);
    }

    #[test]
    fn stale_messages_cannot_complete_wave_alone() {
        // Pre-load the channel q -> p with one forged echo. After p starts,
        // the forged message can advance State once, but completion still
        // requires genuine round trips, so the data delivered by
        // receive-fck is the peer's app value, not the forged one.
        let mut r = system(2);
        r.network_mut()
            .channel_mut(p(1), p(0))
            .unwrap()
            .preload([PifMsg {
                broadcast: 666,
                feedback: 666,
                sender_state: Flag::new(4),
                echoed_state: Flag::new(0),
            }]);
        r.process_mut(p(0)).request_broadcast(7);
        r.run_until(100_000, |r| r.process(p(0)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(r.process(p(0)).app().fck_seen, vec![(p(1), 101)]);
    }

    #[test]
    fn receive_brd_fires_once_per_wave() {
        let mut r = system(2);
        r.process_mut(p(0)).request_broadcast(1);
        r.run_until(100_000, |r| r.process(p(0)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(r.process(p(1)).app().brd_seen.len(), 1);
        // Second wave: exactly one more.
        r.process_mut(p(0)).request_broadcast(2);
        r.run_until(100_000, |r| r.process(p(0)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(r.process(p(1)).app().brd_seen, vec![(p(0), 1), (p(0), 2)]);
    }

    #[test]
    fn quiescence_after_wave() {
        // "after receiving a message with the value pState = 3, p increments
        // State to 4 and stops sending messages until the next request" —
        // if requests stop, the system eventually contains no message.
        let mut r = system(3);
        r.process_mut(p(0)).request_broadcast(3);
        let out = r.run_until_quiescent(100_000).unwrap();
        assert!(out.is_quiescent());
        assert_eq!(r.network().messages_in_flight(), 0);
    }

    #[test]
    fn events_match_app_observations() {
        let mut r = system(2);
        r.process_mut(p(0)).request_broadcast(7);
        r.run_until_quiescent(100_000).unwrap();
        let trace = r.trace();
        let started: Vec<_> = trace
            .protocol_events_of(p(0))
            .filter(|(_, e)| matches!(e, PifEvent::Started))
            .collect();
        assert_eq!(started.len(), 1);
        let decided: Vec<_> = trace
            .protocol_events_of(p(0))
            .filter(|(_, e)| matches!(e, PifEvent::Decided))
            .collect();
        assert_eq!(decided.len(), 1);
        assert!(started[0].0 < decided[0].0, "start precedes decision");
        let fck: Vec<_> = trace
            .protocol_events_of(p(0))
            .filter(|(_, e)| matches!(e, PifEvent::ReceiveFck { .. }))
            .collect();
        assert_eq!(fck.len(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut r = system(3);
        let mut rng = SimRng::seed_from(17);
        r.process_mut(p(1)).core_mut().corrupt(&mut rng);
        let snap = r.process(p(1)).core().snapshot();
        r.process_mut(p(1)).core_mut().corrupt(&mut rng);
        r.process_mut(p(1)).core_mut().restore(snap.clone());
        assert_eq!(r.process(p(1)).core().snapshot(), snap);
    }

    #[test]
    fn corrupt_keeps_flags_in_domain() {
        let mut r = system(3);
        let mut rng = SimRng::seed_from(23);
        for _ in 0..50 {
            r.process_mut(p(0)).core_mut().corrupt(&mut rng);
            for q in [p(1), p(2)] {
                assert!(r.process(p(0)).core().state_of(q).value() <= 4);
                assert!(r.process(p(0)).core().neig_state_of(q).value() <= 4);
            }
        }
    }

    #[test]
    fn arbitrary_message_is_in_domain() {
        let mut rng = SimRng::seed_from(0);
        for _ in 0..100 {
            let m: PifMsg<u32, u32> = PifMsg::arbitrary(&mut rng);
            assert!(m.sender_state.value() <= 4);
            assert!(m.echoed_state.value() <= 4);
        }
    }

    #[test]
    fn forged_out_of_domain_flags_are_clamped() {
        let mut r = system(2);
        r.network_mut()
            .channel_mut(p(1), p(0))
            .unwrap()
            .preload([PifMsg {
                broadcast: 0,
                feedback: 0,
                sender_state: Flag::new(200),
                echoed_state: Flag::new(200),
            }]);
        r.execute_move(Move::Deliver {
            from: p(1),
            to: p(0),
        })
        .unwrap();
        assert!(r.process(p(0)).core().neig_state_of(p(1)).value() <= 4);
    }

    #[test]
    fn concurrent_waves_both_complete() {
        let mut r = system(3);
        r.process_mut(p(0)).request_broadcast(10);
        r.process_mut(p(1)).request_broadcast(11);
        r.run_until(300_000, |r| {
            r.process(p(0)).request() == RequestState::Done
                && r.process(p(1)).request() == RequestState::Done
        })
        .unwrap();
        assert!(r.process(p(1)).app().brd_seen.contains(&(p(0), 10)));
        assert!(r.process(p(0)).app().brd_seen.contains(&(p(1), 11)));
        assert!(r.process(p(2)).app().brd_seen.contains(&(p(0), 10)));
        assert!(r.process(p(2)).app().brd_seen.contains(&(p(1), 11)));
    }
}
