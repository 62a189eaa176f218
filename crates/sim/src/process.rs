//! The guarded-action process model.
//!
//! The paper (§2) describes a protocol as "a collection of actions" of the
//! form `⟨label⟩ :: ⟨guard⟩ → ⟨statement⟩`, where a guard is a boolean
//! expression over the process variables and/or an input message, executed
//! atomically, and "when several actions are simultaneously enabled at a
//! process p, all these actions are sequentially executed following the
//! order of their appearance in the text of the protocol".
//!
//! [`Protocol`] captures exactly this:
//!
//! * [`Protocol::activate`] runs all enabled *internal* actions (guards over
//!   variables only) in textual order, atomically — one simulator step;
//! * [`Protocol::on_receive`] runs the *receive* actions (guards over an
//!   input message) for one delivered message — one simulator step;
//! * [`Protocol::has_enabled_action`] reports whether any internal guard is
//!   true (quiescence detection and scheduler fairness);
//! * [`Protocol::corrupt`] overwrites every *variable* with an arbitrary
//!   value of its domain (transient faults / arbitrary initial
//!   configurations; constants such as `n` and process IDs are preserved,
//!   deviation D5);
//! * [`Protocol::snapshot`] / [`Protocol::restore`] expose the state
//!   projection `φ_p(γ)` of Definition 3, used by the Theorem 1 machinery
//!   to build abstract configurations.

use std::fmt;

use crate::context::Context;
use crate::id::ProcessId;
use crate::rng::SimRng;

/// Marker trait for message types carried by the simulator.
///
/// Blanket-implemented: any clonable, debuggable, comparable, `'static`
/// type qualifies.
pub trait Message: Clone + fmt::Debug + PartialEq + 'static {}

impl<T: Clone + fmt::Debug + PartialEq + 'static> Message for T {}

/// A deterministic guarded-action process (paper §2).
///
/// Implementations hold the process's local variables; the simulator owns
/// the channels and drives the two entry points. All sends and
/// protocol-level events go through the [`Context`].
pub trait Protocol {
    /// Message type exchanged by this protocol.
    type Msg: Message;
    /// Protocol-level events recorded in the trace (e.g. `receive-brd`,
    /// CS entry). Used by specification checkers.
    type Event: Clone + fmt::Debug + PartialEq + 'static;
    /// The state projection `φ_p(γ)`: a value capturing every local
    /// variable (but no channel content).
    type State: Clone + fmt::Debug + PartialEq + 'static;

    /// Executes every enabled internal action in textual order, atomically.
    /// Returns `true` if at least one action executed.
    fn activate(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>) -> bool;

    /// Executes the receive actions for a message delivered from `from`,
    /// atomically.
    fn on_receive(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    );

    /// True if some internal action is currently enabled.
    fn has_enabled_action(&self) -> bool;

    /// Overwrites every local *variable* with an arbitrary value of its
    /// domain. Constants (process id, `n`) are preserved.
    fn corrupt(&mut self, rng: &mut SimRng);

    /// The state projection of this process: every local variable.
    fn snapshot(&self) -> Self::State;

    /// Restores a previously captured state projection.
    fn restore(&mut self, state: Self::State);

    /// True if `event` is consumed by an executable specification
    /// checker. Everything is relevant by default; protocols that emit
    /// high-volume events the checkers skip (e.g. the mutex layer's
    /// per-wave PIF events, or forwarding's per-hop relays) override
    /// this so live runs record a trace proportional to specification
    /// activity instead of wave traffic — see the live runtime's
    /// default `TraceDetail::Spec`.
    fn event_is_spec_relevant(_event: &Self::Event) -> bool {
        true
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A tiny ping-counting protocol used by the simulator's own tests.

    use super::*;

    /// Messages of [`PingProcess`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum PingMsg {
        /// A ping carrying a payload.
        Ping(u32),
    }

    /// Events of [`PingProcess`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum PingEvent {
        /// A ping was received with this payload.
        Got(u32),
    }

    /// A process that sends `budget` pings to its successor (mod n) and
    /// counts the pings it receives.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct PingProcess {
        pub me: ProcessId,
        pub n: usize,
        pub budget: u32,
        pub received: Vec<u32>,
    }

    impl PingProcess {
        pub fn new(me: ProcessId, n: usize, budget: u32) -> Self {
            PingProcess {
                me,
                n,
                budget,
                received: Vec::new(),
            }
        }

        fn successor(&self) -> ProcessId {
            ProcessId::new((self.me.index() + 1) % self.n)
        }
    }

    impl Protocol for PingProcess {
        type Msg = PingMsg;
        type Event = PingEvent;
        type State = (u32, Vec<u32>);

        fn activate(&mut self, ctx: &mut Context<'_, PingMsg, PingEvent>) -> bool {
            if self.budget > 0 {
                let payload = self.budget;
                self.budget -= 1;
                ctx.send(self.successor(), PingMsg::Ping(payload));
                true
            } else {
                false
            }
        }

        fn on_receive(
            &mut self,
            _from: ProcessId,
            msg: PingMsg,
            ctx: &mut Context<'_, PingMsg, PingEvent>,
        ) {
            let PingMsg::Ping(v) = msg;
            self.received.push(v);
            ctx.emit(PingEvent::Got(v));
        }

        fn has_enabled_action(&self) -> bool {
            self.budget > 0
        }

        fn corrupt(&mut self, rng: &mut SimRng) {
            self.budget = rng.gen_range(0..8) as u32;
            self.received.clear();
        }

        fn snapshot(&self) -> (u32, Vec<u32>) {
            (self.budget, self.received.clone())
        }

        fn restore(&mut self, state: (u32, Vec<u32>)) {
            self.budget = state.0;
            self.received = state.1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn ping_process_activation_consumes_budget() {
        let mut p = PingProcess::new(ProcessId::new(0), 2, 2);
        let mut rng = SimRng::seed_from(0);
        let mut sends = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::new(ProcessId::new(0), 2, 0, &mut rng, &mut sends, &mut events);
        assert!(p.has_enabled_action());
        assert!(p.activate(&mut ctx));
        assert!(p.activate(&mut ctx));
        assert!(!p.activate(&mut ctx));
        assert!(!p.has_enabled_action());
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[0], (ProcessId::new(1), PingMsg::Ping(2)));
    }

    #[test]
    fn ping_process_receive_records_and_emits() {
        let mut p = PingProcess::new(ProcessId::new(1), 2, 0);
        let mut rng = SimRng::seed_from(0);
        let mut sends = Vec::new();
        let mut events = Vec::new();
        let mut ctx = Context::new(ProcessId::new(1), 2, 5, &mut rng, &mut sends, &mut events);
        p.on_receive(ProcessId::new(0), PingMsg::Ping(9), &mut ctx);
        assert_eq!(p.received, vec![9]);
        assert_eq!(events, vec![PingEvent::Got(9)]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut p = PingProcess::new(ProcessId::new(0), 3, 4);
        p.received.push(1);
        let snap = p.snapshot();
        let mut rng = SimRng::seed_from(7);
        p.corrupt(&mut rng);
        p.restore(snap);
        assert_eq!(p.budget, 4);
        assert_eq!(p.received, vec![1]);
    }
}
