//! Algorithm 3 — the snap-stabilizing mutual exclusion protocol.
//!
//! The process with the smallest identity — the *leader* — arbitrates
//! access to the critical section through a `Value` pointer designating the
//! currently favoured process (Definition 7). Every process perpetually
//! cycles through five phases:
//!
//! * **Phase 0** (A0): start an IDs-Learning computation; take a pending
//!   request into account (`Request`: `Wait → In`).
//! * **Phase 1** (A1): when IDL decides, broadcast `ASK` — every process
//!   answers `YES` iff its `Value` designates the asker (A5); only the
//!   leader's answer will matter.
//! * **Phase 2** (A2): when the `ASK` wave decides, a winner broadcasts
//!   `EXIT`, forcing every other process back to phase 0 (A6) so that no
//!   stale belief of privilege survives.
//! * **Phase 3** (A3): when the `EXIT` wave decides, the winner executes
//!   the critical section (if requesting), then releases: the leader
//!   advances its own `Value`; a non-leader broadcasts `EXITCS`, on whose
//!   receipt the leader advances `Value` (A7).
//! * **Phase 4** (A4): when the last wave decides, return to phase 0.
//!
//! Snap-stabilizing for Specification 3 (Theorem 4): from any initial
//! configuration, every *requesting* process enters the critical section in
//! finite time (Start) and executes it alone (Correctness).
//!
//! Throughput of a *service* built on this protocol is bounded by the
//! leader's `Value` rotation — one critical-section grant per favoured
//! process per rotation step. The [`crate::shard`] module multiplies that
//! ceiling without touching the protocol: independent instances (one
//! leader each) own hash-partitioned slices of the resource space, and
//! each grant serves a whole batch of non-conflicting client requests
//! ([`crate::request::BatchQueue`]).
//!
//! ## Deviations (registered in ARCHITECTURE.md §11)
//!
//! * **D1** — the critical section may be given a duration
//!   ([`MeConfig::cs_duration`]) instead of being atomic inside A3; the
//!   leader-favour argument of Lemma 8 is insensitive to this, and the
//!   Theorem 1 reproduction needs overlapping CS intervals to exhibit.
//!   The default (0) is the paper-faithful atomic CS.
//! * **D2** — `Value` is a process index in `0..n`, "favour self" is
//!   `Value = me`, and the release increment is modulo `n`
//!   ([`ValueMode::Corrected`]). The paper's literal `mod (n+1)` is
//!   available as [`ValueMode::PaperLiteral`] and demonstrably livelocks
//!   (experiment A2).

use snapstab_sim::{ArbitraryState, Context, PerNeighbor, ProcessId, Protocol, SimRng};

use crate::idl::{Id, IdlCore, IdlState};
use crate::pif::{PifApp, PifCore, PifEvent, PifMsg, PifState};
use crate::request::RequestState;

/// Broadcast contents of the mutual-exclusion protocol's PIF waves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MeBroadcast {
    /// The IDs-Learning query (Algorithm 2 embedded in phase 0).
    Idl,
    /// "Which process is favoured?" (phase 1).
    Ask,
    /// "Everyone restart to phase 0" (phase 2, winner only).
    Exit,
    /// "I release the critical section" (phase 3, non-leader winner).
    ExitCs,
}

impl ArbitraryState for MeBroadcast {
    fn arbitrary(rng: &mut SimRng) -> Self {
        match rng.gen_range(0..4) {
            0 => MeBroadcast::Idl,
            1 => MeBroadcast::Ask,
            2 => MeBroadcast::Exit,
            _ => MeBroadcast::ExitCs,
        }
    }
}

/// Feedback contents of the mutual-exclusion protocol's PIF waves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MeFeedback {
    /// Identity reply to an [`MeBroadcast::Idl`] query.
    Id(Id),
    /// "My `Value` designates you" — reply to `ASK` (A5).
    Yes,
    /// "My `Value` designates someone else" — reply to `ASK` (A5).
    No,
    /// Neutral acknowledgment of `EXIT` / `EXITCS` (A6, A7).
    Ok,
}

impl ArbitraryState for MeFeedback {
    fn arbitrary(rng: &mut SimRng) -> Self {
        match rng.gen_range(0..4) {
            0 => MeFeedback::Id(Id::arbitrary(rng)),
            1 => MeFeedback::Yes,
            2 => MeFeedback::No,
            _ => MeFeedback::Ok,
        }
    }
}

/// The message type of the composed protocol: plain PIF messages over
/// [`MeBroadcast`] / [`MeFeedback`].
pub type MeMsg = PifMsg<MeBroadcast, MeFeedback>;

/// Protocol-level events of the mutual-exclusion protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MeEvent {
    /// A0 took a pending request into account (`Request`: `Wait → In`).
    Started,
    /// The process entered the critical section (in A3).
    CsEnter,
    /// The process left the critical section.
    CsExit,
    /// `Request` switched `In → Done`: the request is served.
    Served,
    /// An event of the shared PIF instance.
    Pif(PifEvent<MeBroadcast, MeFeedback>),
}

impl From<PifEvent<MeBroadcast, MeFeedback>> for MeEvent {
    fn from(e: PifEvent<MeBroadcast, MeFeedback>) -> Self {
        MeEvent::Pif(e)
    }
}

/// How the `Value` pointer advances on release (deviation D2,
/// ARCHITECTURE.md §11).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ValueMode {
    /// `Value ← (Value + 1) mod n`: every value of the domain favours some
    /// process, so the pointer rotates fairly (the erratum reading).
    #[default]
    Corrected,
    /// `Value ← (Value + 1) mod (n + 1)`, literally as printed: the value
    /// `n` favours nobody and, once reached, is never released — a
    /// livelock. Kept for the A2 ablation experiment.
    PaperLiteral,
}

/// Construction-time configuration of a mutual-exclusion process.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MeConfig {
    /// Critical-section duration in activations: `0` is the paper's atomic
    /// CS; `k > 0` keeps the process inside the CS for `k` activations
    /// (deviation D1), which is what lets CS intervals overlap in the
    /// Theorem 1 reproduction.
    pub cs_duration: u64,
    /// Release-increment arithmetic (deviation D2).
    pub value_mode: ValueMode,
    /// Flag domain of the shared PIF. Default: the paper's five values
    /// (single-message channels). Systems with channels of capacity `c`
    /// must use [`crate::flag::FlagDomain::for_capacity`] — see
    /// [`crate::capacity`].
    pub flag_domain: crate::flag::FlagDomain,
}

/// Instrumentation counters (Lemmas 10 and 11); not protocol state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MeCounters {
    /// Visits to phase 0 (A4 wrap-arounds plus A6 resets) — Lemma 10.
    pub phase_zero_visits: u64,
    /// Advances of this process's `Value` pointer — Lemma 11 (meaningful
    /// at the leader).
    pub value_advances: u64,
    /// Critical-section executions.
    pub cs_entries: u64,
    /// `EXIT`-induced phase resets (A6 executions).
    pub exit_resets: u64,
}

/// Everything in a mutual-exclusion process except the shared PIF — split
/// out so the PIF's receive upcalls can borrow it mutably alongside the
/// PIF core.
#[derive(Clone, PartialEq, Eq, Debug)]
struct MeVars {
    me: ProcessId,
    n: usize,
    my_id: Id,
    config: MeConfig,
    request: RequestState,
    /// `Phase_p ∈ {0..4}`.
    phase: u8,
    /// The favour pointer, as a process index (D2). Domain `{0..n-1}`;
    /// only [`ValueMode::PaperLiteral`] can push it to `n`.
    value: usize,
    /// `Privileges_p[q]`: the recorded `YES`/`NO` answers.
    privileges: PerNeighbor<bool>,
    /// The embedded IDs-Learning layer.
    idl: IdlCore,
    /// Remaining CS activations (duration mode); `None` when outside the CS.
    in_cs: Option<u64>,
    counters: MeCounters,
}

impl MeVars {
    fn value_modulus(&self) -> usize {
        match self.config.value_mode {
            ValueMode::Corrected => self.n,
            ValueMode::PaperLiteral => self.n + 1,
        }
    }

    fn advance_value(&mut self) {
        self.value = (self.value + 1) % self.value_modulus();
        self.counters.value_advances += 1;
    }

    /// Definition 7 — does this process favour `q`?
    fn favours(&self, q: ProcessId) -> bool {
        self.value == q.index()
    }
}

impl PifApp<MeBroadcast, MeFeedback> for MeVars {
    fn on_broadcast(&mut self, from: ProcessId, data: &MeBroadcast) -> MeFeedback {
        match data {
            // IDL A3: feed back our identity.
            MeBroadcast::Idl => MeFeedback::Id(self.idl.broadcast_reply()),
            // A5: YES iff our Value designates the asker.
            MeBroadcast::Ask => {
                if self.favours(from) {
                    MeFeedback::Yes
                } else {
                    MeFeedback::No
                }
            }
            // A6: restart to phase 0.
            MeBroadcast::Exit => {
                if self.phase != 0 {
                    self.counters.phase_zero_visits += 1;
                }
                self.phase = 0;
                self.counters.exit_resets += 1;
                MeFeedback::Ok
            }
            // A7: the favoured process released; advance the pointer.
            MeBroadcast::ExitCs => {
                if self.favours(from) {
                    self.advance_value();
                }
                MeFeedback::Ok
            }
        }
    }

    fn on_feedback(&mut self, from: ProcessId, data: &MeFeedback) {
        match data {
            // IDL A4.
            MeFeedback::Id(qid) => self.idl.on_feedback_id(from, *qid),
            // A8 / A9.
            MeFeedback::Yes => self.privileges.set(from, true),
            MeFeedback::No => self.privileges.set(from, false),
            // A10: do nothing.
            MeFeedback::Ok => {}
        }
    }
}

/// The state projection of a mutual-exclusion process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MeState {
    /// The request variable.
    pub request: RequestState,
    /// The phase (`0..=4`).
    pub phase: u8,
    /// The favour pointer.
    pub value: usize,
    /// Recorded `YES`/`NO` answers (own slot unused).
    pub privileges: Vec<bool>,
    /// Remaining CS activations.
    pub in_cs: Option<u64>,
    /// The embedded IDL state.
    pub idl: IdlState,
    /// The shared PIF state.
    pub pif: PifState<MeBroadcast, MeFeedback>,
}

/// A mutual-exclusion process (Algorithm 3).
#[derive(Clone, Debug)]
pub struct MeProcess {
    pif: PifCore<MeBroadcast, MeFeedback>,
    vars: MeVars,
}

impl MeProcess {
    /// Creates a correctly-initialized process with identity `my_id` and
    /// the default configuration (atomic CS, corrected arithmetic).
    pub fn new(me: ProcessId, n: usize, my_id: Id) -> Self {
        Self::with_config(me, n, my_id, MeConfig::default())
    }

    /// Creates a process sized for channels of capacity `capacity`
    /// (`2·capacity + 3` flag values in the shared PIF — see
    /// [`crate::capacity`]); default configuration otherwise.
    pub fn for_capacity(me: ProcessId, n: usize, my_id: Id, capacity: usize) -> Self {
        Self::with_config(
            me,
            n,
            my_id,
            MeConfig {
                flag_domain: crate::flag::FlagDomain::for_capacity(capacity),
                ..MeConfig::default()
            },
        )
    }

    /// Creates a process with an explicit configuration.
    pub fn with_config(me: ProcessId, n: usize, my_id: Id, config: MeConfig) -> Self {
        MeProcess {
            pif: PifCore::with_domain(me, n, MeBroadcast::Idl, MeFeedback::Ok, config.flag_domain),
            vars: MeVars {
                me,
                n,
                my_id,
                config,
                request: RequestState::Done,
                phase: 0,
                value: 0,
                privileges: PerNeighbor::new(me, n, false),
                idl: IdlCore::new(me, n, my_id),
                in_cs: None,
                counters: MeCounters::default(),
            },
        }
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.vars.me
    }

    /// This process's constant identity.
    pub fn my_id(&self) -> Id {
        self.vars.my_id
    }

    /// Current request state.
    pub fn request(&self) -> RequestState {
        self.vars.request
    }

    /// Current phase.
    pub fn phase(&self) -> u8 {
        self.vars.phase
    }

    /// Current favour pointer.
    pub fn value(&self) -> usize {
        self.vars.value
    }

    /// True while the process executes the critical section (duration
    /// mode).
    pub fn is_in_cs(&self) -> bool {
        self.vars.in_cs.is_some()
    }

    /// The embedded IDs-Learning layer.
    pub fn idl(&self) -> &IdlCore {
        &self.vars.idl
    }

    /// The shared PIF instance.
    pub fn pif(&self) -> &PifCore<MeBroadcast, MeFeedback> {
        &self.pif
    }

    /// Instrumentation counters (Lemmas 10–11).
    pub fn counters(&self) -> MeCounters {
        self.vars.counters
    }

    /// Externally requests the critical section; refused while a request is
    /// pending or being served.
    ///
    /// One accepted request buys one critical-section grant. A service
    /// that wants more than one client operation per grant batches them
    /// *outside* the protocol — see [`crate::request::BatchQueue`] and the
    /// sharded, batching service layer in [`crate::shard`].
    pub fn request_cs(&mut self) -> bool {
        self.vars.request.try_request()
    }

    /// True if this process currently believes it is the leader: its own
    /// identity equals the minimum identity its IDs-Learning layer knows.
    /// On a correctly-initialized fleet whose IDL waves have run, exactly
    /// one process per instance answers `true`; the sharded service
    /// ([`crate::shard`]) uses this to report leader placement per shard.
    pub fn is_leader(&self) -> bool {
        self.is_leader_by_idl()
    }

    /// The `Winner(p)` predicate: this process is the leader favouring
    /// itself, or some recorded `YES` came from the process it believes is
    /// the leader.
    pub fn winner(&self) -> bool {
        let leader_self =
            self.vars.idl.min_id() == self.vars.my_id && self.vars.value == self.vars.me.index();
        let privileged = self
            .vars
            .privileges
            .iter()
            .any(|(q, &priv_q)| priv_q && self.vars.idl.id_of(q) == self.vars.idl.min_id());
        leader_self || privileged
    }

    fn is_leader_by_idl(&self) -> bool {
        self.vars.idl.min_id() == self.vars.my_id
    }

    /// The release step at the end of A3: the leader advances its own
    /// pointer ("Value ← 1" generalized to "next after self"); a
    /// non-leader broadcasts `EXITCS`.
    fn release(&mut self) {
        if self.is_leader_by_idl() {
            self.vars.value = (self.vars.me.index() + 1) % self.vars.value_modulus();
            self.vars.counters.value_advances += 1;
        } else {
            self.pif.force_request(MeBroadcast::ExitCs);
        }
    }

    /// Continuation of A3 while inside a non-atomic CS (deviation D1).
    fn cs_tick(&mut self, ctx: &mut Context<'_, MeMsg, MeEvent>) -> bool {
        match self.vars.in_cs {
            None => false,
            Some(remaining) if remaining > 1 => {
                self.vars.in_cs = Some(remaining - 1);
                true
            }
            Some(_) => {
                self.vars.in_cs = None;
                ctx.emit(MeEvent::CsExit);
                self.vars.request = RequestState::Done;
                ctx.emit(MeEvent::Served);
                self.release();
                self.vars.phase = 4;
                true
            }
        }
    }

    /// A0: phase 0 — start IDL, take a pending request into account.
    fn action_a0(&mut self, ctx: &mut Context<'_, MeMsg, MeEvent>) -> bool {
        if self.vars.phase != 0 {
            return false;
        }
        self.vars.idl.force_request();
        if self.vars.request == RequestState::Wait {
            self.vars.request = RequestState::In;
            ctx.emit(MeEvent::Started);
        }
        self.vars.phase = 1;
        true
    }

    /// A1: phase 1 — when IDL decided, broadcast `ASK`.
    fn action_a1(&mut self) -> bool {
        if self.vars.phase != 1 || self.vars.idl.request() != RequestState::Done {
            return false;
        }
        self.pif.force_request(MeBroadcast::Ask);
        self.vars.phase = 2;
        true
    }

    /// A2: phase 2 — when the `ASK` wave decided, a winner broadcasts
    /// `EXIT`.
    fn action_a2(&mut self) -> bool {
        if self.vars.phase != 2 || self.pif.request() != RequestState::Done {
            return false;
        }
        if self.winner() {
            self.pif.force_request(MeBroadcast::Exit);
        }
        self.vars.phase = 3;
        true
    }

    /// A3: phase 3 — when the `EXIT` wave decided, a winner executes the
    /// CS (if requesting) and releases.
    fn action_a3(&mut self, ctx: &mut Context<'_, MeMsg, MeEvent>) -> bool {
        if self.vars.phase != 3
            || self.pif.request() != RequestState::Done
            || self.vars.in_cs.is_some()
        {
            return false;
        }
        if self.winner() {
            if self.vars.request == RequestState::In {
                ctx.emit(MeEvent::CsEnter);
                self.vars.counters.cs_entries += 1;
                if self.vars.config.cs_duration > 0 {
                    // Suspend inside the CS; cs_tick completes A3 later.
                    self.vars.in_cs = Some(self.vars.config.cs_duration);
                    return true;
                }
                ctx.emit(MeEvent::CsExit);
                self.vars.request = RequestState::Done;
                ctx.emit(MeEvent::Served);
            }
            self.release();
        }
        self.vars.phase = 4;
        true
    }

    /// A4: phase 4 — when the last wave decided, wrap to phase 0.
    fn action_a4(&mut self) -> bool {
        if self.vars.phase != 4 || self.pif.request() != RequestState::Done {
            return false;
        }
        self.vars.phase = 0;
        self.vars.counters.phase_zero_visits += 1;
        true
    }
}

impl Protocol for MeProcess {
    type Msg = MeMsg;
    type Event = MeEvent;
    type State = MeState;

    fn activate(&mut self, ctx: &mut Context<'_, MeMsg, MeEvent>) -> bool {
        let mut acted = false;
        // CS continuation first: a process inside the CS does nothing else
        // internally until it leaves.
        acted |= self.cs_tick(ctx);
        if self.vars.in_cs.is_none() {
            acted |= self.action_a0(ctx);
            acted |= self.action_a1();
            acted |= self.action_a2();
            acted |= self.action_a3(ctx);
            acted |= self.action_a4();
            // The embedded IDL layer (Algorithm 2's A1/A2 over the shared
            // PIF).
            if self.vars.idl.action_a1(&mut self.pif, MeBroadcast::Idl) {
                acted = true;
            }
            if self.vars.idl.action_a2(&self.pif) {
                acted = true;
            }
        }
        // The shared PIF's own internal actions.
        acted |= self.pif.activate(ctx);
        acted
    }

    fn on_receive(&mut self, from: ProcessId, msg: MeMsg, ctx: &mut Context<'_, MeMsg, MeEvent>) {
        self.pif.handle_receive(from, msg, &mut self.vars, ctx);
    }

    fn has_enabled_action(&self) -> bool {
        if self.vars.in_cs.is_some() {
            return true;
        }
        let phase_enabled = match self.vars.phase {
            0 => true,
            1 => self.vars.idl.request() == RequestState::Done,
            2..=4 => self.pif.request() == RequestState::Done,
            _ => true, // corrupted out-of-range phase: treat as enabled (A4-like wrap)
        };
        phase_enabled
            || self.vars.idl.has_enabled_action(&self.pif)
            || self.pif.has_enabled_action()
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.vars.request = RequestState::arbitrary(rng);
        self.vars.phase = rng.gen_range(0..5) as u8;
        // Declared domain {0..n-1} — arbitrary within it (D2).
        self.vars.value = rng.gen_range(0..self.vars.n);
        self.vars.privileges.fill_with(|_| bool::arbitrary(rng));
        // Transient faults do not teleport a process into the middle of its
        // critical section (D1): CS occupancy is application state.
        self.vars.in_cs = None;
        self.vars.idl.corrupt(rng);
        self.pif.corrupt(rng);
    }

    fn snapshot(&self) -> MeState {
        MeState {
            request: self.vars.request,
            phase: self.vars.phase,
            value: self.vars.value,
            privileges: (0..self.vars.n)
                .map(|i| i != self.vars.me.index() && *self.vars.privileges.get(ProcessId::new(i)))
                .collect(),
            in_cs: self.vars.in_cs,
            idl: self.vars.idl.snapshot(),
            pif: self.pif.snapshot(),
        }
    }

    fn restore(&mut self, state: MeState) {
        assert_eq!(state.privileges.len(), self.vars.n, "state size mismatch");
        self.vars.request = state.request;
        self.vars.phase = state.phase;
        self.vars.value = state.value;
        for i in 0..self.vars.n {
            if i != self.vars.me.index() {
                self.vars
                    .privileges
                    .set(ProcessId::new(i), state.privileges[i]);
            }
        }
        self.vars.in_cs = state.in_cs;
        self.vars.idl.restore(state.idl);
        self.pif.restore(state.pif);
    }

    /// Specification 3 reads `Started`/`CsEnter`/`CsExit`/`Served`
    /// only; the wrapped PIF instance's wave events are per-delivery
    /// noise at scale (the leader runs waves continuously), so
    /// spec-detail traces drop them.
    fn event_is_spec_relevant(event: &MeEvent) -> bool {
        !matches!(event, MeEvent::Pif(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapstab_sim::{
        Capacity, CorruptionPlan, NetworkBuilder, RandomScheduler, RoundRobin, Runner, Scheduler,
    };

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Distinct ids; P1 is the leader in a 3+-process system.
    fn ids(n: usize) -> Vec<Id> {
        (0..n)
            .map(|i| if i == 1 { 5 } else { 100 + i as Id })
            .collect()
    }

    fn system_with<S: Scheduler>(
        n: usize,
        config: MeConfig,
        sched: S,
        seed: u64,
    ) -> Runner<MeProcess, S> {
        let idv = ids(n);
        let processes = (0..n)
            .map(|i| MeProcess::with_config(p(i), n, idv[i], config))
            .collect();
        let network = NetworkBuilder::new(n)
            .capacity(Capacity::Bounded(1))
            .build();
        Runner::new(processes, network, sched, seed)
    }

    fn system(n: usize) -> Runner<MeProcess, RoundRobin> {
        system_with(n, MeConfig::default(), RoundRobin::new(), 9)
    }

    #[test]
    fn phases_cycle_perpetually() {
        let mut r = system(3);
        r.run_steps(20_000).unwrap();
        for i in 0..3 {
            assert!(
                r.process(p(i)).counters().phase_zero_visits > 3,
                "P{i} should cycle through phase 0 repeatedly (Lemma 10)"
            );
        }
    }

    #[test]
    fn leader_value_rotates() {
        let mut r = system(3);
        r.run_steps(40_000).unwrap();
        // Lemma 11: the leader's Value advances infinitely often.
        assert!(
            r.process(p(1)).counters().value_advances > 2,
            "leader Value must rotate, got {:?}",
            r.process(p(1)).counters()
        );
    }

    #[test]
    fn requesting_process_is_served() {
        let mut r = system(3);
        assert!(r.process_mut(p(2)).request_cs());
        let out = r
            .run_until(500_000, |r| r.process(p(2)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(out.stopped, snapstab_sim::StopCondition::Predicate);
        assert_eq!(r.process(p(2)).counters().cs_entries, 1);
    }

    #[test]
    fn leader_itself_is_served() {
        let mut r = system(3);
        assert!(r.process_mut(p(1)).request_cs());
        let out = r
            .run_until(500_000, |r| r.process(p(1)).request() == RequestState::Done)
            .unwrap();
        assert_eq!(out.stopped, snapstab_sim::StopCondition::Predicate);
        assert_eq!(r.process(p(1)).counters().cs_entries, 1);
    }

    #[test]
    fn all_requesting_processes_served_from_corruption() {
        for seed in 0..10 {
            let mut r = system_with(3, MeConfig::default(), RandomScheduler::new(), seed);
            let mut rng = SimRng::seed_from(seed + 1000);
            CorruptionPlan::full().apply(&mut r, &mut rng);
            // Genuine requests at every process (overwrite corrupted
            // request variables to model the external user's Wait).
            for i in 0..3 {
                r.process_mut(p(i)).vars.request = RequestState::Wait;
                r.mark(p(i), "request");
            }
            let out = r
                .run_until(2_000_000, |r| {
                    (0..3).all(|i| r.process(p(i)).request() == RequestState::Done)
                })
                .unwrap();
            assert_eq!(
                out.stopped,
                snapstab_sim::StopCondition::Predicate,
                "seed {seed}: every requesting process must be served (Start)"
            );
        }
    }

    #[test]
    fn cs_entries_only_while_request_in() {
        // A process that never requests never emits CsEnter from a clean
        // configuration.
        let mut r = system(3);
        r.run_steps(30_000).unwrap();
        for i in 0..3 {
            assert_eq!(
                r.process(p(i)).counters().cs_entries,
                0,
                "P{i} entered CS without requesting"
            );
        }
    }

    #[test]
    fn is_leader_tracks_idl_minimum() {
        let mut proc = MeProcess::new(p(0), 3, 5);
        // Fresh IDL state knows only its own id, so P0 believes it leads.
        assert!(proc.is_leader());
        // Learning a smaller id elsewhere revokes the belief.
        proc.vars.idl.on_feedback_id(p(1), 1);
        assert!(!proc.is_leader());
    }

    #[test]
    fn winner_predicate_leader_self() {
        let mut proc = MeProcess::new(p(0), 3, 1);
        // idl.min_id == my_id == 1 after init; value == me.index() == 0.
        assert!(proc.winner());
        proc.vars.value = 2;
        assert!(!proc.winner());
    }

    #[test]
    fn winner_predicate_privileged_by_leader() {
        let mut proc = MeProcess::new(p(2), 3, 100);
        // Learn that P0 is the leader (id 1), then record its YES.
        proc.vars.idl.on_feedback_id(p(0), 1);
        proc.vars.idl.on_feedback_id(p(1), 50);
        assert!(!proc.winner());
        proc.vars.privileges.set(p(0), true);
        assert!(proc.winner());
        // A YES from a non-leader does not make a winner.
        proc.vars.privileges.set(p(0), false);
        proc.vars.privileges.set(p(1), true);
        assert!(!proc.winner());
    }

    #[test]
    fn ask_answered_by_value() {
        let mut proc = MeProcess::new(p(0), 3, 7);
        proc.vars.value = 2;
        assert_eq!(
            proc.vars.on_broadcast(p(2), &MeBroadcast::Ask),
            MeFeedback::Yes
        );
        assert_eq!(
            proc.vars.on_broadcast(p(1), &MeBroadcast::Ask),
            MeFeedback::No
        );
    }

    #[test]
    fn exit_resets_phase() {
        let mut proc = MeProcess::new(p(0), 3, 7);
        proc.vars.phase = 3;
        assert_eq!(
            proc.vars.on_broadcast(p(1), &MeBroadcast::Exit),
            MeFeedback::Ok
        );
        assert_eq!(proc.vars.phase, 0);
        assert_eq!(proc.vars.counters.exit_resets, 1);
    }

    #[test]
    fn exitcs_advances_value_only_for_favoured() {
        let mut proc = MeProcess::new(p(0), 3, 7);
        proc.vars.value = 1;
        proc.vars.on_broadcast(p(2), &MeBroadcast::ExitCs);
        assert_eq!(proc.vars.value, 1, "non-favoured release ignored");
        proc.vars.on_broadcast(p(1), &MeBroadcast::ExitCs);
        assert_eq!(proc.vars.value, 2, "favoured release advances (mod n)");
        // Wrap-around: value 2 -> 0 in a 3-process corrected system.
        proc.vars.on_broadcast(p(2), &MeBroadcast::ExitCs);
        assert_eq!(proc.vars.value, 0);
    }

    #[test]
    fn paper_literal_mode_can_reach_favour_nobody() {
        let config = MeConfig {
            cs_duration: 0,
            value_mode: ValueMode::PaperLiteral,
            ..MeConfig::default()
        };
        let mut proc = MeProcess::with_config(p(0), 3, 7, config);
        proc.vars.value = 2;
        proc.vars.on_broadcast(p(2), &MeBroadcast::ExitCs);
        assert_eq!(proc.vars.value, 3, "mod (n+1) reaches the dead value n");
        // Nobody is favoured now; no ASK can be answered YES and no EXITCS
        // can advance the pointer.
        for q in [p(1), p(2)] {
            assert_eq!(proc.vars.on_broadcast(q, &MeBroadcast::Ask), MeFeedback::No);
            proc.vars.on_broadcast(q, &MeBroadcast::ExitCs);
            assert_eq!(proc.vars.value, 3);
        }
    }

    #[test]
    fn feedback_updates_privileges_and_ids() {
        let mut proc = MeProcess::new(p(0), 3, 7);
        proc.vars.on_feedback(p(1), &MeFeedback::Yes);
        assert!(*proc.vars.privileges.get(p(1)));
        proc.vars.on_feedback(p(1), &MeFeedback::No);
        assert!(!*proc.vars.privileges.get(p(1)));
        proc.vars.on_feedback(p(2), &MeFeedback::Id(3));
        assert_eq!(proc.idl().id_of(p(2)), 3);
        assert_eq!(proc.idl().min_id(), 3);
        proc.vars.on_feedback(p(2), &MeFeedback::Ok); // no-op
    }

    #[test]
    fn cs_duration_keeps_process_in_cs() {
        let config = MeConfig {
            cs_duration: 3,
            value_mode: ValueMode::Corrected,
            ..MeConfig::default()
        };
        let mut r = system_with(3, config, RoundRobin::new(), 4);
        r.process_mut(p(1)).request_cs();
        r.run_until(500_000, |r| r.process(p(1)).is_in_cs())
            .unwrap();
        assert!(r.process(p(1)).is_in_cs());
        // The process leaves the CS after its duration elapses and is served.
        r.run_until(500_000, |r| r.process(p(1)).request() == RequestState::Done)
            .unwrap();
        assert!(!r.process(p(1)).is_in_cs());
        assert_eq!(r.process(p(1)).counters().cs_entries, 1);
    }

    #[test]
    fn corruption_respects_domains_and_constants() {
        let mut proc = MeProcess::new(p(0), 4, 77);
        let mut rng = SimRng::seed_from(8);
        for _ in 0..50 {
            proc.corrupt(&mut rng);
            assert!(proc.phase() <= 4);
            assert!(proc.value() < 4, "declared domain {{0..n-1}}");
            assert_eq!(proc.my_id(), 77, "identity is a constant");
            assert!(!proc.is_in_cs(), "faults do not create CS occupancy (D1)");
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut proc = MeProcess::new(p(2), 3, 9);
        let mut rng = SimRng::seed_from(21);
        proc.corrupt(&mut rng);
        let snap = proc.snapshot();
        proc.corrupt(&mut rng);
        proc.restore(snap.clone());
        assert_eq!(proc.snapshot(), snap);
    }

    #[test]
    fn arbitrary_broadcast_and_feedback_cover_variants() {
        let mut rng = SimRng::seed_from(0);
        let mut b_seen = std::collections::HashSet::new();
        let mut f_seen = std::collections::HashSet::new();
        for _ in 0..200 {
            b_seen.insert(format!("{:?}", MeBroadcast::arbitrary(&mut rng)));
            f_seen.insert(std::mem::discriminant(&MeFeedback::arbitrary(&mut rng)));
        }
        assert_eq!(b_seen.len(), 4);
        assert_eq!(f_seen.len(), 4);
    }

    #[test]
    fn served_event_follows_cs_enter() {
        let mut r = system(3);
        r.process_mut(p(0)).request_cs();
        r.run_until(500_000, |r| r.process(p(0)).request() == RequestState::Done)
            .unwrap();
        let events: Vec<_> = r
            .trace()
            .protocol_events_of(p(0))
            .map(|(_, e)| e.clone())
            .collect();
        let enter = events.iter().position(|e| matches!(e, MeEvent::CsEnter));
        let exit = events.iter().position(|e| matches!(e, MeEvent::CsExit));
        let served = events.iter().position(|e| matches!(e, MeEvent::Served));
        let started = events.iter().position(|e| matches!(e, MeEvent::Started));
        assert!(started < enter, "A0 precedes CS entry");
        assert!(enter < exit && exit <= served, "enter < exit <= served");
    }
}
