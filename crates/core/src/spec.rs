//! Executable specifications: trace predicates for Specifications 1–5 and
//! Property 1.
//!
//! The paper defines a specification as "a predicate defined on the
//! executions"; snap-stabilization (Definition 1) demands that *every*
//! execution from *every* initial configuration satisfies it. This module
//! turns each specification into a checkable verdict over the typed traces
//! produced by `snapstab-sim` and the live runtime, so the experiment
//! harness can evaluate thousands of corrupted-start executions
//! mechanically.
//!
//! Specifications 1–3 are the paper's own (PIF, IDs-Learning, mutual
//! exclusion). **Specification 4** is this repo's executable rendering of
//! the snap-stabilizing *message forwarding* specification from the
//! follow-up literature (see [`crate::forward`]): every payload injected
//! after the protocol starts is delivered to its destination exactly
//! once — no duplication, no loss of accepted payloads — even when the
//! initial buffers were adversarially pre-filled with stale entries.
//! **Specification 5** judges the monitoring cuts of a live run.
//!
//! # One walk
//!
//! Every trace analyzer reads the trace once. It takes the trace's
//! markers and protocol events in *step order* — a stable sort by
//! `(step, markers first)` — and walks that view once, with its
//! per-process state in vectors indexed by process. Markers going first
//! is the tie rule every Specification 3 verdict has been pinned under.
//! A live marker draws a step of its own, so the rule only decides
//! simulator traces, where `Runner::mark` stamps a marker with the step
//! of the move just executed: a `request` marked there is judged before
//! that move's events. The stable sort also orders crafted traces that
//! are not globally chronological, and keeps the trace order of entries
//! that share a step and a kind. An entry naming a process outside
//! `0..n` never touches the per-process state.
//!
//! The epoch analyzers ([`analyze_me_epochs`],
//! [`analyze_forwarding_epochs`]) walk the same view with a cursor over
//! the sorted fault steps: the first entry whose step reaches the next
//! fault closes the current epoch and opens the next one. Forged fault
//! marks are collected in the same walk. [`analyze_me_trace`] and
//! [`analyze_forwarding_trace`] are that walk with no faults.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::take;

use snapstab_sim::{Message, Network, ProcessId, Trace, TraceEvent};

use crate::forward::{ForwardEvent, Payload};
use crate::idl::IdlCore;
use crate::me::MeEvent;
use crate::pif::{PifEvent, PifMsg};
use crate::probe::{MonitorEvent, MonitorEventView, ProbeDigest};

/// One entry of the step-ordered view: a marker or a protocol event,
/// with the process it names.
enum Seen<'a, E> {
    Marker(ProcessId, &'a str),
    Event(ProcessId, &'a E),
}

/// The markers and protocol events of `trace` in step order, markers
/// first within a step (see the module doc); every other entry kind is
/// left out.
fn step_ordered<M, E>(trace: &Trace<M, E>) -> Vec<(u64, Seen<'_, E>)> {
    let mut view: Vec<(u64, Seen<'_, E>)> = trace
        .iter()
        .filter_map(|te| match &te.event {
            TraceEvent::Marker { p, label } => Some((te.step, Seen::Marker(*p, label.as_str()))),
            TraceEvent::Protocol { p, event } => Some((te.step, Seen::Event(*p, event))),
            _ => None,
        })
        .collect();
    view.sort_by_key(|(step, seen)| (*step, matches!(seen, Seen::Event(..))));
    view
}

/// Verdict of the Specification 1 (PIF-Execution) checker for one
/// requested wave.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PifVerdict {
    /// Start: the requested broadcast was started (A1 executed after the
    /// request).
    pub started: bool,
    /// Termination: the started computation decided.
    pub decided: bool,
    /// Correctness (broadcast half): every other process generated
    /// `receive-brd` with the broadcast data during the computation.
    pub broadcasts_received: bool,
    /// Correctness (feedback half): the initiator generated `receive-fck`
    /// from every other process with that process's expected feedback.
    pub feedbacks_received: bool,
    /// Decision: the decision took exactly the `n − 1` acknowledgments of
    /// the last broadcast into account — one `receive-fck` per neighbor
    /// between start and decision, all carrying expected data.
    pub decision_exact: bool,
    /// Step at which the wave started, if it did.
    pub start_step: Option<u64>,
    /// Step at which the wave decided, if it did.
    pub decision_step: Option<u64>,
}

impl PifVerdict {
    /// True if every property of Specification 1 holds for this wave.
    pub fn holds(&self) -> bool {
        self.started
            && self.decided
            && self.broadcasts_received
            && self.feedbacks_received
            && self.decision_exact
    }

    /// Steps from start to decision, if both occurred.
    pub fn wave_steps(&self) -> Option<u64> {
        Some(self.decision_step? - self.start_step?)
    }
}

/// Checks Specification 1 for a wave requested at `initiator` at
/// `request_step`, over a trace whose event type `E` embeds PIF events
/// (extracted by `as_pif`; use the identity for bare [`PifEvent`] traces).
///
/// `expected_b` is the broadcast data of the requested wave and
/// `expected_f(q)` the feedback process `q` is expected to produce.
///
/// The wave starts at the initiator's first `Started` at or after
/// `request_step` and decides at its first `Decided` after that; the
/// correctness checks read the `receive-brd` and `receive-fck` events
/// stamped inside `(start, decision]`. The walk stops past the decision.
pub fn check_pif_wave<M, E, B, F>(
    trace: &Trace<M, E>,
    initiator: ProcessId,
    n: usize,
    request_step: u64,
    expected_b: &B,
    mut expected_f: impl FnMut(ProcessId) -> F,
    mut as_pif: impl FnMut(&E) -> Option<&PifEvent<B, F>>,
) -> PifVerdict
where
    M: Message,
    E: Clone + std::fmt::Debug + PartialEq,
    B: Clone + std::fmt::Debug + PartialEq,
    F: Clone + std::fmt::Debug + PartialEq,
{
    let mut start_step = None;
    let mut decision_step = None;
    // Per process: a receive-brd of the requested data from the
    // initiator inside (start, decision].
    let mut brd = BTreeSet::new();
    // receive-fck events at the initiator inside (start, decision].
    let mut fcks: Vec<(ProcessId, F)> = Vec::new();
    for (step, seen) in step_ordered(trace) {
        let Seen::Event(q, e) = seen else { continue };
        if decision_step.is_some_and(|d| step > d) {
            break;
        }
        let Some(start) = start_step else {
            if q == initiator && step >= request_step {
                if let Some(PifEvent::Started) = as_pif(e) {
                    start_step = Some(step);
                }
            }
            continue;
        };
        if step <= start {
            continue;
        }
        match as_pif(e) {
            Some(PifEvent::ReceiveBrd { from, data })
                if *from == initiator && data == expected_b =>
            {
                brd.insert(q.index());
            }
            Some(PifEvent::ReceiveFck { from, data }) if q == initiator => {
                fcks.push((*from, data.clone()));
            }
            Some(PifEvent::Decided) if q == initiator => decision_step = Some(step),
            _ => {}
        }
    }

    // The correctness checks judge decided waves only.
    let decided = decision_step.is_some();
    let others = || (0..n).filter(|&i| i != initiator.index());
    let broadcasts_received = decided && others().all(|i| brd.contains(&i));
    let feedbacks_received = decided
        && others().all(|i| {
            let q = ProcessId::new(i);
            let want = expected_f(q);
            fcks.iter().any(|(from, data)| *from == q && *data == want)
        });
    let froms: BTreeSet<usize> = fcks.iter().map(|(from, _)| from.index()).collect();
    PifVerdict {
        started: start_step.is_some(),
        decided,
        broadcasts_received,
        feedbacks_received,
        decision_exact: feedbacks_received && fcks.len() == n - 1 && froms.len() == n - 1,
        start_step,
        decision_step,
    }
}

/// Convenience wrapper of [`check_pif_wave`] for traces of the standalone
/// PIF process (event type = [`PifEvent`]).
pub fn check_bare_pif_wave<B, F>(
    trace: &Trace<PifMsg<B, F>, PifEvent<B, F>>,
    initiator: ProcessId,
    n: usize,
    request_step: u64,
    expected_b: &B,
    expected_f: impl FnMut(ProcessId) -> F,
) -> PifVerdict
where
    B: Clone + std::fmt::Debug + PartialEq + 'static,
    F: Clone + std::fmt::Debug + PartialEq + 'static,
{
    check_pif_wave(
        trace,
        initiator,
        n,
        request_step,
        expected_b,
        expected_f,
        |e| Some(e),
    )
}

/// Verdict of the Specification 2 (IDs-Learning-Execution) checker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IdlVerdict {
    /// Start: the computation started after the request.
    pub started: bool,
    /// Termination: the computation decided.
    pub decided: bool,
    /// Correctness: `minID` equals the true minimum at the decision.
    pub min_id_correct: bool,
    /// Correctness: `ID-Tab[q]` equals `ID_q` for every neighbor.
    pub id_tab_correct: bool,
}

impl IdlVerdict {
    /// True if every property of Specification 2 holds.
    pub fn holds(&self) -> bool {
        self.started && self.decided && self.min_id_correct && self.id_tab_correct
    }
}

/// Checks Specification 2 against the learner's final [`IdlCore`] state:
/// `true_ids[i]` must be the identity of process `i`.
pub fn check_idl_result(
    core: &IdlCore,
    me: ProcessId,
    true_ids: &[crate::idl::Id],
    started: bool,
    decided: bool,
) -> IdlVerdict {
    let true_min = *true_ids.iter().min().expect("non-empty system");
    IdlVerdict {
        started,
        decided,
        min_id_correct: core.min_id() == true_min,
        id_tab_correct: (0..true_ids.len())
            .filter(|&i| i != me.index())
            .all(|i| core.id_of(ProcessId::new(i)) == true_ids[i]),
    }
}

/// One critical-section execution interval extracted from a trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CsInterval {
    /// The executing process.
    pub p: ProcessId,
    /// Step of `CsEnter`.
    pub enter: u64,
    /// Step of `CsExit` (equal to `enter` for the paper's atomic CS).
    pub exit: u64,
    /// True if this CS execution served a *genuine* external request: a
    /// `request` marker, then A0's `Started`, with no `Served` in between.
    /// Footnote 1 of the paper: only genuine executions carry guarantees.
    pub genuine: bool,
}

impl CsInterval {
    /// Closed-interval overlap test.
    pub fn overlaps(&self, other: &CsInterval) -> bool {
        self.enter.max(other.enter) <= self.exit.min(other.exit)
    }
}

/// Report of the Specification 3 (ME-Execution) analysis of a trace.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MeReport {
    /// Every CS interval, chronological by entry (ties by process id).
    pub intervals: Vec<CsInterval>,
    /// Pairs of *genuine* intervals that overlap — Correctness violations
    /// (must be empty for a snap-stabilizing protocol).
    pub genuine_overlaps: Vec<(CsInterval, CsInterval)>,
    /// Overlapping pairs involving at least one non-genuine interval —
    /// allowed by the specification (footnote 1), reported for visibility.
    pub spurious_overlaps: Vec<(CsInterval, CsInterval)>,
    /// `(process, request step, service step)` for every served request.
    pub served: Vec<(ProcessId, u64, u64)>,
    /// `(process, request step)` of requests not served within the trace —
    /// Start violations if the run budget was generous.
    pub unserved: Vec<(ProcessId, u64)>,
}

impl MeReport {
    /// True if no two genuine CS executions overlapped.
    pub fn exclusivity_holds(&self) -> bool {
        self.genuine_overlaps.is_empty()
    }

    /// True if every observed request was served.
    pub fn all_served(&self) -> bool {
        self.unserved.is_empty()
    }

    /// Service latencies in steps.
    pub fn latencies(&self) -> Vec<u64> {
        self.served.iter().map(|(_, req, srv)| srv - req).collect()
    }
}

/// A specification's state in the one walk, cut into fault epochs by
/// [`walk_epochs`].
trait EpochJudge<E> {
    /// One epoch's verdict.
    type Epoch;
    /// Reads the next entry of the current epoch.
    fn see(&mut self, step: u64, seen: Seen<'_, E>);
    /// Ends the epoch that opened at step `start` and returns its
    /// verdict; `last` is false when a fault closed it. The next entry
    /// opens a fresh epoch.
    fn close(&mut self, start: u64, last: bool) -> Self::Epoch;
}

/// Walks the step-ordered view of `trace` once with a cursor over the
/// sorted, deduplicated fault steps. The first entry whose step reaches
/// the next fault closes the current epoch, so the fault mark itself and
/// everything stamped after it are judged in the new epoch. Returns the
/// verdicts of all `faults.len() + 1` epochs and the forged fault marks,
/// sorted by step and process.
fn walk_epochs<M, E, J: EpochJudge<E>>(
    trace: &Trace<M, E>,
    faults: &[u64],
    judge: &mut J,
) -> (Vec<J::Epoch>, Vec<ForgedMark>) {
    let mut epochs = Vec::with_capacity(faults.len() + 1);
    let mut forged = Vec::new();
    let mut start = 0;
    for (step, seen) in step_ordered(trace) {
        while let Some(&fault) = faults.get(epochs.len()).filter(|&&f| f <= step) {
            epochs.push(judge.close(start, false));
            start = fault;
        }
        forged.extend(forged_mark(step, &seen, faults));
        judge.see(step, seen);
    }
    for &fault in &faults[epochs.len()..] {
        epochs.push(judge.close(start, false));
        start = fault;
    }
    epochs.push(judge.close(start, true));
    forged.sort_by_key(|(q, step, _)| (*step, q.index()));
    (epochs, forged)
}

/// Spec 3's state of one process while an epoch is walked.
#[derive(Clone, Copy, Default)]
struct MeProc {
    /// Step of the latest `request` marker not yet served.
    pending: Option<u64>,
    /// A `Started` followed that request.
    started_genuine: bool,
    /// A CS entered and not yet exited, its exit still at its entry.
    open: Option<CsInterval>,
}

/// Specification 3 in the one walk.
struct MeJudge {
    procs: Vec<MeProc>,
    report: MeReport,
}

impl EpochJudge<MeEvent> for MeJudge {
    type Epoch = MeEpochVerdict;

    fn see(&mut self, step: u64, seen: Seen<'_, MeEvent>) {
        let (Seen::Marker(p, "request") | Seen::Event(p, _)) = seen else {
            return;
        };
        let Some(st) = self.procs.get_mut(p.index()) else {
            return;
        };
        match seen {
            Seen::Marker(..) => {
                st.pending = Some(step);
                st.started_genuine = false;
            }
            Seen::Event(_, MeEvent::Started) => st.started_genuine |= st.pending.is_some(),
            Seen::Event(_, MeEvent::CsEnter) => {
                st.open = Some(CsInterval {
                    p,
                    enter: step,
                    exit: step,
                    genuine: st.started_genuine,
                });
            }
            Seen::Event(_, MeEvent::CsExit) => {
                if let Some(iv) = st.open.take() {
                    self.report.intervals.push(CsInterval { exit: step, ..iv });
                }
            }
            Seen::Event(_, MeEvent::Served) => {
                if let Some(req) = st.pending.take() {
                    self.report.served.push((p, req, step));
                }
                st.started_genuine = false;
            }
            Seen::Event(_, MeEvent::Pif(_)) => {}
        }
    }

    fn close(&mut self, start: u64, last: bool) -> MeEpochVerdict {
        let mut r = take(&mut self.report);
        for (i, st) in self.procs.iter_mut().enumerate() {
            let st = take(st);
            // The epoch ended mid-CS: the interval closes at its entry.
            r.intervals.extend(st.open);
            r.unserved
                .extend(st.pending.map(|req| (ProcessId::new(i), req)));
        }
        // The walk interleaves processes; the report lists them by id.
        r.served.sort_by_key(|(p, ..)| p.index());
        r.intervals.sort_by_key(|iv| (iv.enter, iv.p.index()));
        // Sorted by entry, so the first interval entering after `a`
        // exits ends `a`'s overlap candidates.
        for (i, a) in r.intervals.iter().enumerate() {
            for b in r.intervals[i + 1..]
                .iter()
                .take_while(|b| b.enter <= a.exit)
            {
                if a.p != b.p && a.overlaps(b) {
                    if a.genuine && b.genuine {
                        r.genuine_overlaps.push((*a, *b));
                    } else {
                        r.spurious_overlaps.push((*a, *b));
                    }
                }
            }
        }
        let interrupted = if last { vec![] } else { take(&mut r.unserved) };
        MeEpochVerdict {
            start,
            report: r,
            interrupted,
        }
    }
}

/// Analyzes a mutual-exclusion trace for Specification 3: extracts CS
/// intervals, classifies them genuine/spurious, finds overlaps and service
/// latencies. Requests are recognized by `request` markers
/// ([`snapstab_sim::Runner::mark`] with label `"request"`).
pub fn analyze_me_trace<M: Message>(trace: &Trace<M, MeEvent>, n: usize) -> MeReport {
    let mut report = analyze_me_epochs(trace, n, &[]);
    report.epochs.pop().expect("one epoch").report
}

/// Report of the Specification 4 (Forwarding-Execution) analysis of a
/// trace — see [`analyze_forwarding_trace`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ForwardingReport {
    /// Every injection observed: `(step, payload)`, chronological. The
    /// exactly-once guarantee attaches to these.
    pub injected: Vec<(u64, Payload)>,
    /// `(payload, injection step, delivery step)` for every injected
    /// payload delivered correctly.
    pub delivered: Vec<(Payload, u64, u64)>,
    /// Injected payloads never delivered within the trace — **loss**
    /// violations (if the run budget was generous).
    pub lost: Vec<Payload>,
    /// Injected ids delivered more than once — **duplication**
    /// violations. The exactly-once guarantee covers injected payloads
    /// (their hop handshakes always start from flag 0, so Theorem 2's
    /// stale-increment budget protects both the copy and the erase);
    /// the adversarial generators in [`crate::forward`] stamp stale
    /// copies with pairwise-distinct [`crate::forward::STALE_ID_BIT`]
    /// ids, so an id can never be both.
    pub duplicate_ids: Vec<u64>,
    /// Never-injected (stale) ids flushed to a destination more than
    /// once. A transfer slot corrupted to a non-zero flag mid-handshake
    /// can complete on stale increments and restart, re-offering its
    /// stale payload — the window footnote 1 leaves open for
    /// non-genuine computations. Reported for visibility; not a
    /// violation.
    pub stale_duplicates: Vec<u64>,
    /// Deliveries claiming an injected id but corrupting it: wrong
    /// process (≠ `payload.dst`), wrong endpoints, or wrong data —
    /// **integrity** violations.
    pub corrupt_deliveries: Vec<Payload>,
    /// Deliveries of never-injected ids (stale pre-start entries flushed
    /// end-to-end). Allowed — at most once each — and reported for
    /// visibility.
    pub spurious: usize,
}

impl ForwardingReport {
    /// True if every property of Specification 4 holds: every injected
    /// payload delivered exactly once at its destination with intact
    /// data — i.e. no [`ForwardingReport::lost`], no
    /// [`ForwardingReport::duplicate_ids`], no
    /// [`ForwardingReport::corrupt_deliveries`]. Stale pre-start
    /// entries are *not* judged here: their flushes land in
    /// [`ForwardingReport::spurious`] /
    /// [`ForwardingReport::stale_duplicates`] for the caller to
    /// inspect.
    pub fn holds(&self) -> bool {
        self.lost.is_empty() && self.duplicate_ids.is_empty() && self.corrupt_deliveries.is_empty()
    }

    /// End-to-end latencies (injection step to delivery step) of the
    /// correctly delivered payloads.
    pub fn latencies(&self) -> Vec<u64> {
        self.delivered
            .iter()
            .map(|(_, inj, del)| del - inj)
            .collect()
    }
}

/// Specification 4 in the one walk: collects one epoch's injections and
/// deliveries, and across epochs the ids delivered after a fault that
/// followed their injection.
#[derive(Default)]
struct ForwardJudge {
    n: usize,
    /// Index of the epoch being walked.
    epoch: usize,
    injected: Vec<(u64, Payload)>,
    /// `(step, delivering process, payload)` of every delivery.
    deliveries: Vec<(u64, ProcessId, Payload)>,
    /// Epoch of each id's first injection.
    inject_epoch: HashMap<u64, usize>,
    crossing: BTreeSet<u64>,
}

impl EpochJudge<ForwardEvent> for ForwardJudge {
    type Epoch = ForwardingEpochVerdict;

    fn see(&mut self, step: u64, seen: Seen<'_, ForwardEvent>) {
        match seen {
            Seen::Event(_, ForwardEvent::Injected { payload }) => {
                self.inject_epoch.entry(payload.id).or_insert(self.epoch);
                self.injected.push((step, *payload));
            }
            Seen::Event(p, ForwardEvent::Delivered { payload, .. }) => {
                let first = self.inject_epoch.get(&payload.id);
                if first.is_some_and(|&k| k < self.epoch) {
                    self.crossing.insert(payload.id);
                }
                self.deliveries.push((step, p, *payload));
            }
            _ => {}
        }
    }

    fn close(&mut self, start: u64, last: bool) -> ForwardingEpochVerdict {
        self.epoch += 1;
        let mut r = ForwardingReport {
            injected: take(&mut self.injected),
            ..ForwardingReport::default()
        };
        // An injection naming endpoints outside the system is itself an
        // integrity violation — `ForwardProcess::request_send` never
        // admits one, so only a forged trace can contain it. Like every
        // other checker in this module, the reaction is a failing
        // verdict, never a panic.
        r.corrupt_deliveries.extend(
            r.injected
                .iter()
                .map(|&(_, m)| m)
                .filter(|m| m.src as usize >= self.n || m.dst as usize >= self.n),
        );
        // Ordered maps, so every list below comes out sorted by id; the
        // last injection of an id is the one judged.
        let injected: BTreeMap<u64, (u64, Payload)> = r
            .injected
            .iter()
            .map(|&(step, m)| (m.id, (step, m)))
            .collect();
        let mut per_id: BTreeMap<u64, Vec<(u64, ProcessId, Payload)>> = BTreeMap::new();
        for d in self.deliveries.drain(..) {
            per_id.entry(d.2.id).or_default().push(d);
        }
        for (id, ds) in &per_id {
            let Some(&(step, m)) = injected.get(id) else {
                r.spurious += ds.len();
                if ds.len() > 1 {
                    r.stale_duplicates.push(*id);
                }
                continue;
            };
            if ds.len() > 1 {
                r.duplicate_ids.push(*id);
            }
            for &(del_step, at, got) in ds {
                if at.index() == m.dst as usize && got == m && del_step > step {
                    r.delivered.push((m, step, del_step));
                } else {
                    r.corrupt_deliveries.push(got);
                }
            }
        }
        r.lost = injected
            .into_values()
            .filter(|(_, m)| !per_id.contains_key(&m.id))
            .map(|(_, m)| m)
            .collect();
        r.corrupt_deliveries
            .sort_unstable_by_key(|m| (m.id, m.data, m.src, m.dst));
        let interrupted = if last { vec![] } else { take(&mut r.lost) };
        ForwardingEpochVerdict {
            start,
            report: r,
            interrupted,
        }
    }
}

/// Analyzes a forwarding trace for Specification 4.
///
/// Injections are recognized by [`ForwardEvent::Injected`] (the protocol
/// emits it only for payloads accepted from the client *after* the
/// protocol started — the forwarding analogue of footnote 1's genuine
/// requests) and deliveries by [`ForwardEvent::Delivered`]. The verdict
/// demands, for every injected payload: exactly one delivery of its id,
/// at the destination process, carrying the injected endpoints and data,
/// at a step past the injection. Deliveries of never-injected ids are
/// the flushing of stale pre-start entries — allowed, and counted
/// (multiple flushes of one stale id land in
/// [`ForwardingReport::stale_duplicates`], also without failing the
/// verdict: the guarantee attaches at injection, footnote-1 style).
pub fn analyze_forwarding_trace<M: Message>(
    trace: &Trace<M, ForwardEvent>,
    n: usize,
) -> ForwardingReport {
    let mut report = analyze_forwarding_epochs(trace, n, &[]);
    report.epochs.pop().expect("one epoch").report
}

/// The marker-label prefix reserved for *authoritative* transient-fault
/// injections (mid-run state corruption by the chaos engine or the
/// supervisor's adversarial restarts). The epoch analyzers cut traces at
/// these marks; any marker carrying this prefix at a step the harness did
/// not vouch for is a *forged* fault mark and fails the epoch verdict —
/// otherwise a buggy protocol could excuse its violations by planting
/// fault marks around them.
pub const CHAOS_MARK_PREFIX: &str = "chaos:";

/// Sorted, deduplicated copy of an authoritative fault-step list.
fn normalize_faults(faults: &[u64]) -> Vec<u64> {
    let mut f = faults.to_vec();
    f.sort_unstable();
    f.dedup();
    f
}

/// `(process, step, label)` of a forged fault mark.
type ForgedMark = (ProcessId, u64, String);

/// A marker carrying [`CHAOS_MARK_PREFIX`] at a step *not* in the sorted
/// authoritative fault list is a forged fault mark.
fn forged_mark<E>(step: u64, seen: &Seen<'_, E>, faults: &[u64]) -> Option<ForgedMark> {
    match *seen {
        Seen::Marker(q, label)
            if label.starts_with(CHAOS_MARK_PREFIX) && faults.binary_search(&step).is_err() =>
        {
            Some((q, step, label.to_string()))
        }
        _ => None,
    }
}

/// One epoch's Specification 3 verdict — see [`analyze_me_epochs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MeEpochVerdict {
    /// First step of the epoch: 0, or the fault step that opened it.
    pub start: u64,
    /// The plain Specification 3 report over this epoch's entries.
    /// In non-final epochs its `unserved` list has been emptied into
    /// [`MeEpochVerdict::interrupted`].
    pub report: MeReport,
    /// Requests pending when the epoch's closing fault landed: in-flight
    /// at a fault boundary, so footnote 1 voids their guarantee. They are
    /// *classified* here — visible, counted — rather than silently
    /// excused, exactly like stale forwarding entries.
    pub interrupted: Vec<(ProcessId, u64)>,
}

/// Epoch-segmented Specification 3 verdict — see [`analyze_me_epochs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MeEpochReport {
    /// Per-epoch verdicts, chronological; always at least one.
    pub epochs: Vec<MeEpochVerdict>,
    /// `(process, step, label)` of chaos-prefixed markers at steps the
    /// harness did not vouch for. Non-empty ⇒ the trace is untrustworthy
    /// and the verdict fails.
    pub forged_marks: Vec<(ProcessId, u64, String)>,
}

impl MeEpochReport {
    /// True if the epoch-segmented Specification 3 holds: no forged fault
    /// marks, and within every epoch no two genuine CS executions overlap
    /// and every request *started in that epoch and not interrupted by
    /// its closing fault* was served in it.
    pub fn holds(&self) -> bool {
        self.forged_marks.is_empty()
            && self
                .epochs
                .iter()
                .all(|e| e.report.exclusivity_holds() && e.report.all_served())
    }

    /// Number of epochs judged.
    pub fn epochs_checked(&self) -> usize {
        self.epochs.len()
    }

    /// Requests served across all epochs.
    pub fn served_total(&self) -> usize {
        self.epochs.iter().map(|e| e.report.served.len()).sum()
    }

    /// Requests interrupted at fault boundaries across all epochs.
    pub fn interrupted_total(&self) -> usize {
        self.epochs.iter().map(|e| e.interrupted.len()).sum()
    }
}

/// Epoch-segmented Specification 3: cuts the trace into *fault epochs* at
/// the authoritative fault steps and judges each epoch as
/// [`analyze_me_trace`] would. Epoch `k` holds every entry whose step is
/// at least the `k`-th fault step and below the next one; with no faults
/// the whole trace is one epoch.
///
/// This is the executable rendering of the paper's footnote-1 semantics
/// extended to faults landing mid-run: guarantees re-attach to every
/// request started after the last transient fault, so each epoch is
/// judged as a fresh snap-stabilizing run whose "arbitrary initial
/// configuration" is whatever the fault left behind. Requests in flight
/// when a fault lands are reclassified from `unserved` to
/// [`MeEpochVerdict::interrupted`] (classified, not excused — footnote 1
/// voids only *their* guarantee). A CS interval crossing a boundary is
/// judged non-genuine in the new epoch (its request marker belongs to the
/// old one), so it can never mask a post-fault exclusivity violation.
/// Chaos-prefixed markers not in `faults` are collected as
/// [`MeEpochReport::forged_marks`] and fail the verdict.
pub fn analyze_me_epochs<M: Message>(
    trace: &Trace<M, MeEvent>,
    n: usize,
    faults: &[u64],
) -> MeEpochReport {
    let mut judge = MeJudge {
        procs: vec![MeProc::default(); n],
        report: MeReport::default(),
    };
    let (epochs, forged_marks) = walk_epochs(trace, &normalize_faults(faults), &mut judge);
    MeEpochReport {
        epochs,
        forged_marks,
    }
}

/// One epoch's Specification 4 verdict — see
/// [`analyze_forwarding_epochs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ForwardingEpochVerdict {
    /// First step of the epoch: 0, or the fault step that opened it.
    pub start: u64,
    /// The plain Specification 4 report over this epoch's entries. In
    /// non-final epochs its `lost` list has been emptied into
    /// [`ForwardingEpochVerdict::interrupted`].
    pub report: ForwardingReport,
    /// Payloads injected in this epoch but still in flight when its
    /// closing fault landed — classified, not silently excused.
    pub interrupted: Vec<Payload>,
}

/// Epoch-segmented Specification 4 verdict — see
/// [`analyze_forwarding_epochs`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ForwardingEpochReport {
    /// Per-epoch verdicts, chronological; always at least one.
    pub epochs: Vec<ForwardingEpochVerdict>,
    /// Forged chaos marks (see [`MeEpochReport::forged_marks`]).
    pub forged_marks: Vec<(ProcessId, u64, String)>,
    /// Ids injected in one epoch and delivered in a *later* one: the
    /// fault between voids their exactly-once guarantee (their deliveries
    /// land in the later epoch's `spurious`/`stale_duplicates` counts),
    /// but they are classified here so boundary-crossers stay visible.
    pub crossing: Vec<u64>,
}

impl ForwardingEpochReport {
    /// True if the epoch-segmented Specification 4 holds: no forged fault
    /// marks, and within every epoch no duplicated injected id, no
    /// corrupted delivery, and every payload injected after the epoch's
    /// opening fault and not interrupted by its closing one delivered in
    /// it.
    pub fn holds(&self) -> bool {
        self.forged_marks.is_empty()
            && self.epochs.iter().all(|e| {
                e.report.duplicate_ids.is_empty()
                    && e.report.corrupt_deliveries.is_empty()
                    && e.report.lost.is_empty()
            })
    }

    /// Number of epochs judged.
    pub fn epochs_checked(&self) -> usize {
        self.epochs.len()
    }

    /// Payloads delivered intact within their own epoch, across epochs.
    pub fn delivered_total(&self) -> usize {
        self.epochs.iter().map(|e| e.report.delivered.len()).sum()
    }

    /// Payloads interrupted at fault boundaries across all epochs.
    pub fn interrupted_total(&self) -> usize {
        self.epochs.iter().map(|e| e.interrupted.len()).sum()
    }
}

/// Epoch-segmented Specification 4: cuts the trace at the authoritative
/// fault steps, as [`analyze_me_epochs`] does, and judges each epoch as
/// [`analyze_forwarding_trace`] would. Payloads injected after the last
/// fault of an epoch must be delivered exactly once within it; payloads
/// in flight at a fault boundary are reclassified from `lost` to
/// [`ForwardingEpochVerdict::interrupted`], and deliveries of pre-fault
/// ids landing after the fault are classified in
/// [`ForwardingEpochReport::crossing`]. Forged chaos marks fail the
/// verdict.
pub fn analyze_forwarding_epochs<M: Message>(
    trace: &Trace<M, ForwardEvent>,
    n: usize,
    faults: &[u64],
) -> ForwardingEpochReport {
    let mut judge = ForwardJudge {
        n,
        ..ForwardJudge::default()
    };
    let (epochs, forged_marks) = walk_epochs(trace, &normalize_faults(faults), &mut judge);
    ForwardingEpochReport {
        epochs,
        forged_marks,
        crossing: judge.crossing.into_iter().collect(),
    }
}

/// Property 1: after a complete PIF from `p`, no initial-configuration
/// message survives in the channels from and to `p`. `is_junk` identifies
/// the pre-loaded messages (tests use sentinel payloads).
pub fn channels_flushed<M: Message>(
    network: &Network<M>,
    p: ProcessId,
    mut is_junk: impl FnMut(&M) -> bool,
) -> bool {
    for i in 0..network.n() {
        if i == p.index() {
            continue;
        }
        let q = ProcessId::new(i);
        for (a, b) in [(p, q), (q, p)] {
            let ch = network.channel(a, b).expect("valid link");
            if ch.iter().any(&mut is_junk) {
                return false;
            }
        }
    }
    true
}

/// One decided monitoring cut extracted from a trace — see
/// [`analyze_snapshot_trace`] (Specification 5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotCut {
    /// The process whose monitor initiated the wave.
    pub initiator: ProcessId,
    /// Requester-assigned wave id (from the matching `CutStarted`).
    pub cut: u64,
    /// Step of the matching [`MonitorEvent::CutStarted`].
    pub started: u64,
    /// Step of the [`MonitorEvent::CutDecided`].
    pub decided: u64,
    /// The collected global cut, `values[i]` reported by process `i`.
    pub values: Vec<ProbeDigest>,
    /// True when an authoritative fault step lands inside
    /// `started..=decided`: footnote 1 voids this cut's consistency
    /// guarantee, so the causal and liveness checks are skipped for it
    /// (classified, not excused — it stays visible in the report).
    pub interrupted: bool,
}

/// Specification 5 verdict — see [`analyze_snapshot_trace`].
///
/// Decided cuts land in [`SnapshotReport::cuts`]; refused and pending
/// waves are *recorded* (they are always legal — a corrupted monitor
/// must refuse rather than invent a cut) while the four violation lists
/// plus forged fault marks fail [`SnapshotReport::holds`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SnapshotReport {
    /// Every decided cut, in decision order.
    pub cuts: Vec<SnapshotCut>,
    /// `(initiator, cut)` waves explicitly refused. Always legal.
    pub refused: Vec<(ProcessId, u64)>,
    /// `(initiator, cut)` waves started but still undecided at trace
    /// end. Always legal (the run simply stopped first).
    pub pending: Vec<(ProcessId, u64)>,
    /// `(initiator, cut)` decisions with **no matching earlier start**
    /// (or a second decision for an already-consumed wave): a cut the
    /// monitor fabricated out of corrupted state instead of refusing.
    pub fabricated: Vec<(ProcessId, u64)>,
    /// `(initiator, cut)` decided cuts that do not report **exactly one
    /// value per process** (wrong arity, or `values[i].proc != i` —
    /// which covers two values for one process at the cost of a
    /// missing one).
    pub torn: Vec<(ProcessId, u64)>,
    /// `(initiator, cut, reporter)` values in clean cuts attributed to
    /// a process that was crashed for the wave's **entire** interval —
    /// a dead process cannot have answered, so the value is invented.
    pub crashed_values: Vec<(ProcessId, u64, ProcessId)>,
    /// `(initiator, cut, reporter)` values in clean cuts whose `served`
    /// gauge is causally impossible against the surrounding service
    /// trace: below the reporter's `"served"`-marker count before the
    /// wave started, or above its count at decision. The former is the
    /// "unserved at p / already granted earlier in merged order"
    /// inconsistency; the latter reports a serve from the future.
    pub causal_violations: Vec<(ProcessId, u64, ProcessId)>,
    /// Chaos-prefixed markers at steps the harness did not vouch for —
    /// same trust rule as the epoch checkers ([`CHAOS_MARK_PREFIX`]).
    pub forged_marks: Vec<(ProcessId, u64, String)>,
}

impl SnapshotReport {
    /// True if Specification 5 holds: no fabricated or torn cuts, no
    /// values from crashed processes, no causal violations, and no
    /// forged fault marks. Refused and pending waves never fail it.
    pub fn holds(&self) -> bool {
        self.fabricated.is_empty()
            && self.torn.is_empty()
            && self.crashed_values.is_empty()
            && self.causal_violations.is_empty()
            && self.forged_marks.is_empty()
    }

    /// Number of decided cuts (clean and interrupted).
    pub fn cuts_decided(&self) -> usize {
        self.cuts.len()
    }

    /// Decided cuts whose interval contained no authoritative fault.
    pub fn clean_cuts(&self) -> usize {
        self.cuts.iter().filter(|c| !c.interrupted).count()
    }

    /// Decided cuts voided by a mid-wave fault (classified, not hidden).
    pub fn interrupted_total(&self) -> usize {
        self.cuts.iter().filter(|c| c.interrupted).count()
    }

    /// Decided cuts attributed to `initiator`'s ledger.
    pub fn cuts_of(&self, initiator: ProcessId) -> usize {
        self.cuts
            .iter()
            .filter(|c| c.initiator == initiator)
            .count()
    }

    /// Refused waves attributed to `initiator`'s ledger.
    pub fn refused_of(&self, initiator: ProcessId) -> usize {
        self.refused
            .iter()
            .filter(|&&(p, _)| p == initiator)
            .count()
    }

    /// Every initiator with at least one wave in the trace — decided,
    /// refused, or pending — ascending by process id. In a K-initiator
    /// run this recovers which ledgers were actually active.
    pub fn initiators(&self) -> Vec<ProcessId> {
        let mut ids: Vec<ProcessId> = self
            .cuts
            .iter()
            .map(|c| c.initiator)
            .chain(self.refused.iter().map(|&(p, _)| p))
            .chain(self.pending.iter().map(|&(p, _)| p))
            .collect();
        ids.sort_by_key(|p| p.index());
        ids.dedup();
        ids
    }

    /// Longest run of consecutive refusals on `initiator`'s ledger, in
    /// request (cut-id) order — cut ids are requester-assigned and
    /// monotone per ledger, so this is the order the waves were asked
    /// in. This is the signal the runtime's telemetry refusal-streak
    /// alert thresholds; pending waves neither extend nor reset a run.
    pub fn max_refusal_streak_of(&self, initiator: ProcessId) -> usize {
        let mut outcomes: Vec<(u64, bool)> = self
            .refused
            .iter()
            .filter(|&&(p, _)| p == initiator)
            .map(|&(_, c)| (c, true))
            .chain(
                self.cuts
                    .iter()
                    .filter(|c| c.initiator == initiator)
                    .map(|c| (c.cut, false)),
            )
            .collect();
        outcomes.sort_unstable_by_key(|&(c, _)| c);
        let (mut best, mut run) = (0usize, 0usize);
        for (_, refused) in outcomes {
            if refused {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }
}

/// Spec 5's state of one process during the walk.
#[derive(Clone, Default)]
struct SnapshotProc {
    /// `(crash, restart)` steps of its `"crash"`/`"restart"` marker
    /// windows; an open window ends at `u64::MAX`.
    crashes: Vec<(u64, u64)>,
    /// Steps of its `"served"` markers, ascending.
    serves: Vec<u64>,
    /// Its open waves as an initiator: cut id → start step.
    open_waves: BTreeMap<u64, u64>,
}

/// **Specification 5** (observability): judges the monitoring cuts a
/// live run's merged trace contains. Works over any event type that
/// embeds [`MonitorEvent`] via [`MonitorEventView`] — the runtime's
/// composite `MonitoredEvent<E>`, or bare [`MonitorEvent`] in crafted
/// adversarial traces.
///
/// Per initiator, waves are paired by id: a `CutStarted` opens the
/// wave, and the matching `CutDecided`/`CutRefused` consumes it. The
/// checks, in the order they gate each other:
///
/// 1. **No fabrication** — a decision with no open matching wave (or a
///    duplicate decision) is [`SnapshotReport::fabricated`]. Corrupted
///    monitor state may *refuse* a wave; it may never invent one.
/// 2. **One value per live process** — every decided cut must carry
///    exactly `n` values with `values[i].proc == i`, else it is
///    [`SnapshotReport::torn`]. Checked even on interrupted cuts: the
///    monitor locally validates collections before deciding, so a
///    malformed vector is always a monitor bug, never a fault artifact.
/// 3. **No values from the dead** — on clean cuts, a value from a
///    process whose `"crash"`/`"restart"` marker window covers the
///    whole wave interval is [`SnapshotReport::crashed_values`].
/// 4. **Causal consistency** — on clean cuts, each reporter's `served`
///    gauge must lie between that process's `"served"`-marker count
///    just before the wave started and its count at decision
///    (responder digests are captured at broadcast-receive time, which
///    falls inside the interval). A cut reporting a request as still
///    unserved at `p` after the merged trace shows it granted — or as
///    served before it happened — is [`SnapshotReport::causal_violations`].
///
/// Cuts whose interval `started..=decided` contains an authoritative
/// fault step are marked [`SnapshotCut::interrupted`] and exempted from
/// checks 3–4 (footnote-1 semantics, exactly like the epoch checkers);
/// forged chaos marks fail the verdict on the same trust rule.
///
/// Every check runs in the one walk, at the decision: markers go first
/// within a step, so every `"served"` and `"restart"` marker stamped at
/// or before the decision step has been read, and a crash still open
/// then covers the rest of the wave.
pub fn analyze_snapshot_trace<M, E>(trace: &Trace<M, E>, n: usize, faults: &[u64]) -> SnapshotReport
where
    M: Message,
    E: MonitorEventView + Clone + std::fmt::Debug + PartialEq + 'static,
{
    let faults = normalize_faults(faults);
    let mut report = SnapshotReport::default();
    let mut procs = vec![SnapshotProc::default(); n];
    let mut forged = Vec::new();
    for (step, seen) in step_ordered(trace) {
        forged.extend(forged_mark(step, &seen, &faults));
        match seen {
            // The runtime's standard markers: "crash"/"restart" from the
            // harness, "served" from the service drivers.
            Seen::Marker(q, label) => {
                let Some(st) = procs.get_mut(q.index()) else {
                    continue;
                };
                let open = st.crashes.last_mut().filter(|w| w.1 == u64::MAX);
                match label {
                    "crash" if open.is_none() => st.crashes.push((step, u64::MAX)),
                    "restart" => {
                        if let Some(w) = open {
                            w.1 = step;
                        }
                    }
                    "served" => st.serves.push(step),
                    _ => {}
                }
            }
            Seen::Event(p, e) => {
                let Some(st) = procs.get_mut(p.index()) else {
                    continue;
                };
                let Some(me) = e.as_monitor() else { continue };
                match me {
                    MonitorEvent::CutStarted { cut } => {
                        st.open_waves.insert(*cut, step);
                    }
                    MonitorEvent::CutRefused { cut } => {
                        st.open_waves.remove(cut);
                        report.refused.push((p, *cut));
                    }
                    MonitorEvent::CutDecided { cut, values } => {
                        let Some(started) = st.open_waves.remove(cut) else {
                            report.fabricated.push((p, *cut));
                            continue;
                        };
                        let interrupted = faults.iter().any(|f| (started..=step).contains(f));
                        let well_formed = values.len() == n
                            && values.iter().enumerate().all(|(j, v)| v.proc as usize == j);
                        if !well_formed {
                            report.torn.push((p, *cut));
                        }
                        if well_formed && !interrupted {
                            for (j, (v, q)) in values.iter().zip(&procs).enumerate() {
                                if q.crashes.iter().any(|&(c, r)| c <= started && step <= r) {
                                    report.crashed_values.push((p, *cut, ProcessId::new(j)));
                                    continue;
                                }
                                let lo = q.serves.partition_point(|&s| s < started) as u64;
                                let hi = q.serves.partition_point(|&s| s <= step) as u64;
                                if v.served < lo || v.served > hi {
                                    report.causal_violations.push((p, *cut, ProcessId::new(j)));
                                }
                            }
                        }
                        report.cuts.push(SnapshotCut {
                            initiator: p,
                            cut: *cut,
                            started,
                            decided: step,
                            values: values.clone(),
                            interrupted,
                        });
                    }
                }
            }
        }
    }
    // The walk interleaves initiators; the report lists them by id.
    report.refused.sort_by_key(|(p, _)| p.index());
    report.fabricated.sort_by_key(|(p, _)| p.index());
    report.torn.sort_by_key(|(p, _)| p.index());
    report.crashed_values.sort_by_key(|(p, ..)| p.index());
    report.causal_violations.sort_by_key(|(p, ..)| p.index());
    for (i, st) in procs.into_iter().enumerate() {
        let p = ProcessId::new(i);
        report
            .pending
            .extend(st.open_waves.into_keys().map(|c| (p, c)));
    }
    report
        .cuts
        .sort_by_key(|c| (c.decided, c.initiator.index(), c.cut));
    forged.sort_by_key(|(q, step, _)| (*step, q.index()));
    report.forged_marks = forged;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::ForwardMsg;
    use snapstab_sim::TraceEvent;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    type PTrace = Trace<PifMsg<u32, u32>, PifEvent<u32, u32>>;

    /// Hand-builds the trace of a perfect 2-process wave and checks the
    /// verdict.
    #[test]
    fn pif_verdict_happy_path() {
        let mut t = PTrace::new();
        t.push_marker(0, p(0), "request");
        t.push(
            1,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Started,
            },
        );
        t.push(
            5,
            TraceEvent::Protocol {
                p: p(1),
                event: PifEvent::ReceiveBrd {
                    from: p(0),
                    data: 7,
                },
            },
        );
        t.push(
            6,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::ReceiveFck {
                    from: p(1),
                    data: 101,
                },
            },
        );
        t.push(
            7,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Decided,
            },
        );
        let v = check_bare_pif_wave(&t, p(0), 2, 0, &7, |_| 101);
        assert!(v.holds(), "{v:?}");
        assert_eq!(v.wave_steps(), Some(6));
    }

    #[test]
    fn pif_verdict_detects_missing_broadcast() {
        let mut t = PTrace::new();
        t.push(
            1,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Started,
            },
        );
        t.push(
            6,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::ReceiveFck {
                    from: p(1),
                    data: 101,
                },
            },
        );
        t.push(
            7,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Decided,
            },
        );
        let v = check_bare_pif_wave(&t, p(0), 2, 0, &7, |_| 101);
        assert!(!v.broadcasts_received);
        assert!(!v.holds());
    }

    #[test]
    fn pif_verdict_detects_wrong_feedback_data() {
        let mut t = PTrace::new();
        t.push(
            1,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Started,
            },
        );
        t.push(
            2,
            TraceEvent::Protocol {
                p: p(1),
                event: PifEvent::ReceiveBrd {
                    from: p(0),
                    data: 7,
                },
            },
        );
        t.push(
            3,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::ReceiveFck {
                    from: p(1),
                    data: 666,
                },
            },
        );
        t.push(
            4,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Decided,
            },
        );
        let v = check_bare_pif_wave(&t, p(0), 2, 0, &7, |_| 101);
        assert!(!v.feedbacks_received);
        assert!(!v.decision_exact);
    }

    #[test]
    fn pif_verdict_detects_duplicate_feedbacks() {
        let mut t = PTrace::new();
        t.push(
            1,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Started,
            },
        );
        for q in [1usize, 2] {
            t.push(
                2 + q as u64,
                TraceEvent::Protocol {
                    p: p(q),
                    event: PifEvent::ReceiveBrd {
                        from: p(0),
                        data: 7,
                    },
                },
            );
        }
        for (s, from) in [(5, 1usize), (6, 2), (7, 1)] {
            t.push(
                s,
                TraceEvent::Protocol {
                    p: p(0),
                    event: PifEvent::ReceiveFck {
                        from: p(from),
                        data: 101,
                    },
                },
            );
        }
        t.push(
            9,
            TraceEvent::Protocol {
                p: p(0),
                event: PifEvent::Decided,
            },
        );
        let v = check_bare_pif_wave(&t, p(0), 3, 0, &7, |_| 101);
        assert!(v.feedbacks_received);
        assert!(!v.decision_exact, "three fck events for two neighbors");
    }

    #[test]
    fn pif_verdict_unstarted() {
        let t = PTrace::new();
        let v = check_bare_pif_wave(&t, p(0), 2, 0, &7, |_| 101);
        assert!(!v.started && !v.holds());
    }

    #[test]
    fn idl_verdict_checks_values() {
        let mut core = IdlCore::new(p(0), 3, 30);
        core.on_feedback_id(p(1), 10);
        core.on_feedback_id(p(2), 20);
        let v = check_idl_result(&core, p(0), &[30, 10, 20], true, true);
        assert!(v.holds());
        let v = check_idl_result(&core, p(0), &[30, 11, 20], true, true);
        assert!(!v.id_tab_correct);
        let mut wrong = IdlCore::new(p(0), 3, 30);
        wrong.on_feedback_id(p(1), 10);
        wrong.on_feedback_id(p(2), 20);
        let v = check_idl_result(&wrong, p(0), &[30, 10, 5], true, true);
        assert!(!v.min_id_correct);
    }

    #[test]
    fn cs_interval_overlap_geometry() {
        let a = CsInterval {
            p: p(0),
            enter: 5,
            exit: 9,
            genuine: true,
        };
        let b = CsInterval {
            p: p(1),
            enter: 9,
            exit: 12,
            genuine: true,
        };
        let c = CsInterval {
            p: p(2),
            enter: 10,
            exit: 10,
            genuine: true,
        };
        assert!(a.overlaps(&b), "shared endpoint counts");
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    type MTrace = Trace<crate::me::MeMsg, MeEvent>;

    #[test]
    fn me_report_classifies_genuine_and_spurious() {
        let mut t = MTrace::new();
        // P0: genuine request -> started -> CS [10, 12] -> served.
        t.push_marker(1, p(0), "request");
        t.push(
            2,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::Started,
            },
        );
        t.push(
            10,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::CsEnter,
            },
        );
        t.push(
            12,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::CsExit,
            },
        );
        t.push(
            12,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::Served,
            },
        );
        // P1: spurious CS (no request, corrupted Request=In) at [11, 11].
        t.push(
            11,
            TraceEvent::Protocol {
                p: p(1),
                event: MeEvent::CsEnter,
            },
        );
        t.push(
            11,
            TraceEvent::Protocol {
                p: p(1),
                event: MeEvent::CsExit,
            },
        );
        let r = analyze_me_trace(&t, 3);
        assert_eq!(r.intervals.len(), 2);
        assert!(r.exclusivity_holds(), "spurious overlap is not a violation");
        assert_eq!(r.spurious_overlaps.len(), 1);
        assert_eq!(r.served, vec![(p(0), 1, 12)]);
        assert!(r.all_served());
        assert_eq!(r.latencies(), vec![11]);
    }

    #[test]
    fn me_report_flags_genuine_overlap() {
        let mut t = MTrace::new();
        for (i, enter, exit) in [(0usize, 10u64, 14u64), (1, 12, 13)] {
            t.push_marker(1, p(i), "request");
            t.push(
                2,
                TraceEvent::Protocol {
                    p: p(i),
                    event: MeEvent::Started,
                },
            );
            t.push(
                enter,
                TraceEvent::Protocol {
                    p: p(i),
                    event: MeEvent::CsEnter,
                },
            );
            t.push(
                exit,
                TraceEvent::Protocol {
                    p: p(i),
                    event: MeEvent::CsExit,
                },
            );
            t.push(
                exit,
                TraceEvent::Protocol {
                    p: p(i),
                    event: MeEvent::Served,
                },
            );
        }
        let r = analyze_me_trace(&t, 2);
        assert_eq!(r.genuine_overlaps.len(), 1);
        assert!(!r.exclusivity_holds());
    }

    #[test]
    fn me_report_tracks_unserved() {
        let mut t = MTrace::new();
        t.push_marker(3, p(1), "request");
        let r = analyze_me_trace(&t, 2);
        assert_eq!(r.unserved, vec![(p(1), 3)]);
        assert!(!r.all_served());
    }

    #[test]
    fn me_report_closes_interval_at_trace_end() {
        let mut t = MTrace::new();
        t.push(
            4,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::CsEnter,
            },
        );
        let r = analyze_me_trace(&t, 1);
        assert_eq!(r.intervals.len(), 1);
        assert_eq!(r.intervals[0].exit, 4);
        assert!(!r.intervals[0].genuine);
    }

    /// Markers go first within a step: a `request` marker pushed after
    /// a `Started` of the same step — the order the simulator's
    /// `Runner::mark` leaves, since a marker takes the step of the move
    /// before it — is still judged before it, so the CS is genuine.
    #[test]
    fn me_request_marker_is_judged_before_events_of_its_step() {
        let mut t = MTrace::new();
        t.push(
            5,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::Started,
            },
        );
        t.push_marker(5, p(0), "request");
        for event in [MeEvent::CsEnter, MeEvent::CsExit, MeEvent::Served] {
            t.push(6, TraceEvent::Protocol { p: p(0), event });
        }
        let r = analyze_me_trace(&t, 1);
        assert_eq!(r.intervals.len(), 1);
        assert!(r.intervals[0].genuine, "{r:?}");
        assert_eq!(r.served, vec![(p(0), 5, 6)]);
    }

    /// Intervals entering at the same step are listed by process id,
    /// whatever order the trace closes them in, and their overlap pairs
    /// follow that order.
    #[test]
    fn me_intervals_entering_at_one_step_are_listed_by_process() {
        let mut t = MTrace::new();
        for i in [2usize, 1, 0] {
            t.push(
                10,
                TraceEvent::Protocol {
                    p: p(i),
                    event: MeEvent::CsEnter,
                },
            );
        }
        for (i, exit) in [(2usize, 11u64), (1, 12), (0, 13)] {
            t.push(
                exit,
                TraceEvent::Protocol {
                    p: p(i),
                    event: MeEvent::CsExit,
                },
            );
        }
        let r = analyze_me_trace(&t, 3);
        let order: Vec<usize> = r.intervals.iter().map(|iv| iv.p.index()).collect();
        assert_eq!(order, vec![0, 1, 2]);
        let pairs: Vec<(usize, usize)> = r
            .spurious_overlaps
            .iter()
            .map(|(a, b)| (a.p.index(), b.p.index()))
            .collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    type FTrace = Trace<ForwardMsg, ForwardEvent>;

    fn fwd_payload(src: usize, dst: usize, id: u64) -> Payload {
        Payload {
            src: src as u16,
            dst: dst as u16,
            id,
            data: 0xF00D_0000 + id,
        }
    }

    fn push_injected(t: &mut FTrace, step: u64, m: Payload) {
        t.push(
            step,
            TraceEvent::Protocol {
                p: p(m.src as usize),
                event: ForwardEvent::Injected { payload: m },
            },
        );
    }

    fn push_delivered(t: &mut FTrace, step: u64, at: usize, m: Payload) {
        t.push(
            step,
            TraceEvent::Protocol {
                p: p(at),
                event: ForwardEvent::Delivered {
                    payload: m,
                    from: p(if at > 0 { at - 1 } else { at + 1 }),
                },
            },
        );
    }

    /// Hand-builds the trace of a perfect two-payload run and checks the
    /// verdict, including latencies.
    #[test]
    fn forwarding_verdict_happy_path() {
        let mut t = FTrace::new();
        let a = fwd_payload(0, 2, 1);
        let b = fwd_payload(2, 0, 2);
        push_injected(&mut t, 1, a);
        push_injected(&mut t, 2, b);
        push_delivered(&mut t, 9, 2, a);
        push_delivered(&mut t, 12, 0, b);
        let r = analyze_forwarding_trace(&t, 3);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.injected.len(), 2);
        assert_eq!(r.delivered.len(), 2);
        assert_eq!(r.latencies(), vec![8, 10]);
        assert_eq!(r.spurious, 0);
    }

    /// A duplicated delivery of an injected payload must be rejected.
    #[test]
    fn forwarding_verdict_rejects_duplicated_delivery() {
        let mut t = FTrace::new();
        let m = fwd_payload(0, 2, 7);
        push_injected(&mut t, 1, m);
        push_delivered(&mut t, 5, 2, m);
        push_delivered(&mut t, 9, 2, m);
        let r = analyze_forwarding_trace(&t, 3);
        assert_eq!(r.duplicate_ids, vec![7]);
        assert!(!r.holds());
    }

    /// A lost accepted payload (injected, never delivered) must be
    /// rejected.
    #[test]
    fn forwarding_verdict_rejects_lost_payload() {
        let mut t = FTrace::new();
        let m = fwd_payload(1, 0, 3);
        push_injected(&mut t, 4, m);
        let r = analyze_forwarding_trace(&t, 3);
        assert_eq!(r.lost, vec![m]);
        assert!(!r.holds());
    }

    /// A stale pre-filled buffer entry masquerading as an injected
    /// payload — same id, corrupted data — must be rejected; and even a
    /// purely stale id flushed twice is a duplication violation.
    #[test]
    fn forwarding_verdict_rejects_stale_prefilled_entry() {
        // Forged data under a genuine id.
        let mut t = FTrace::new();
        let m = fwd_payload(0, 2, 5);
        push_injected(&mut t, 1, m);
        push_delivered(&mut t, 6, 2, Payload { data: 0xBAD, ..m });
        let r = analyze_forwarding_trace(&t, 3);
        assert_eq!(r.corrupt_deliveries.len(), 1);
        assert!(!r.holds());

        // A stale id (never injected) flushed twice: reported as a stale
        // duplicate but not a violation — the guarantee attaches at
        // injection (footnote 1), and injected handshakes always start
        // from flag 0 where Theorem 2's budget protects them.
        let mut t = FTrace::new();
        let stale = fwd_payload(0, 2, crate::forward::STALE_ID_BIT | 9);
        push_delivered(&mut t, 3, 2, stale);
        push_delivered(&mut t, 8, 2, stale);
        let r = analyze_forwarding_trace(&t, 3);
        assert_eq!(r.stale_duplicates, vec![stale.id]);
        assert!(r.duplicate_ids.is_empty());
        assert!(r.holds(), "{r:?}");

        // Delivered once: spurious, allowed.
        let mut t = FTrace::new();
        push_delivered(&mut t, 3, 2, stale);
        let r = analyze_forwarding_trace(&t, 3);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.spurious, 1);
        assert!(r.stale_duplicates.is_empty());
    }

    /// An injection naming endpoints outside the system yields a
    /// failing verdict — not a panic — matching every other checker's
    /// contract.
    #[test]
    fn forwarding_verdict_rejects_out_of_system_injection() {
        let mut t = FTrace::new();
        let m = Payload {
            src: 99,
            dst: 1,
            id: 13,
            data: 0,
        };
        t.push(
            1,
            TraceEvent::Protocol {
                p: p(0),
                event: ForwardEvent::Injected { payload: m },
            },
        );
        push_delivered(&mut t, 5, 1, m);
        let r = analyze_forwarding_trace(&t, 3);
        assert!(!r.holds(), "{r:?}");
        assert!(r.corrupt_deliveries.contains(&m));
    }

    /// Delivery at the wrong process, or "delivered" before injection
    /// (a causality forgery), is an integrity violation.
    #[test]
    fn forwarding_verdict_rejects_misdelivery_and_time_travel() {
        let mut t = FTrace::new();
        let m = fwd_payload(0, 2, 11);
        push_injected(&mut t, 4, m);
        push_delivered(&mut t, 9, 1, m); // wrong process
        let r = analyze_forwarding_trace(&t, 3);
        assert_eq!(r.corrupt_deliveries.len(), 1);
        assert!(!r.holds());

        let mut t = FTrace::new();
        push_delivered(&mut t, 2, 2, m); // before the injection
        push_injected(&mut t, 4, m);
        let r = analyze_forwarding_trace(&t, 3);
        assert!(!r.holds(), "{r:?}");
    }

    /// Pushes the full genuine service pattern for one request at `p_i`:
    /// request marker, Started, CS `[enter, enter]`, Served.
    fn push_served_request(t: &mut MTrace, p_i: usize, req: u64, enter: u64) {
        t.push_marker(req, p(p_i), "request");
        for (step, event) in [
            (req + 1, MeEvent::Started),
            (enter, MeEvent::CsEnter),
            (enter, MeEvent::CsExit),
            (enter, MeEvent::Served),
        ] {
            t.push(step, TraceEvent::Protocol { p: p(p_i), event });
        }
    }

    /// An entry stamped exactly at a fault step is judged in the epoch
    /// that fault opens, by both epoch analyzers; with no faults the
    /// whole trace is one epoch.
    #[test]
    fn epochs_open_at_fault_step() {
        let mut t = MTrace::new();
        t.push_marker(3, p(0), "request");
        t.push_marker(5, p(1), "chaos:corrupt");
        t.push_marker(5, p(1), "request");
        t.push_marker(7, p(0), "request");
        let r = analyze_me_epochs(&t, 2, &[5]);
        assert_eq!(r.epochs_checked(), 2);
        assert_eq!(r.epochs[0].interrupted, vec![(p(0), 3)], "pre-fault only");
        assert_eq!(r.epochs[1].start, 5);
        assert_eq!(r.epochs[1].report.unserved, vec![(p(0), 7), (p(1), 5)]);
        assert_eq!(analyze_me_epochs(&t, 2, &[]).epochs_checked(), 1);

        let mut t = FTrace::new();
        let (a, b) = (fwd_payload(0, 2, 1), fwd_payload(1, 2, 2));
        push_injected(&mut t, 3, a);
        t.push_marker(5, p(1), "chaos:corrupt");
        push_injected(&mut t, 5, b);
        let r = analyze_forwarding_epochs(&t, 3, &[5]);
        assert_eq!(r.epochs_checked(), 2);
        assert_eq!(r.epochs[0].interrupted, vec![a], "pre-fault only");
        assert_eq!(r.epochs[1].start, 5);
        assert_eq!(r.epochs[1].report.injected, vec![(5, b)]);
        assert_eq!(analyze_forwarding_epochs(&t, 3, &[]).epochs_checked(), 1);
    }

    /// Fault mid-wave: the pre-fault request is classified `interrupted`
    /// (exempt from the epoch verdict), and the post-fault epoch is
    /// judged on its own.
    #[test]
    fn me_epochs_classify_prefault_request_as_interrupted() {
        let mut t = MTrace::new();
        // P0's request is in flight when the fault lands at step 10 —
        // never served.
        t.push_marker(4, p(0), "request");
        t.push(
            5,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::Started,
            },
        );
        t.push_marker(10, p(1), "chaos:corrupt");
        // P1's post-fault request runs the full genuine pattern.
        push_served_request(&mut t, 1, 12, 20);
        let r = analyze_me_epochs(&t, 2, &[10]);
        assert_eq!(r.epochs_checked(), 2);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.epochs[0].interrupted, vec![(p(0), 4)]);
        assert!(r.epochs[0].report.unserved.is_empty(), "moved, not kept");
        assert_eq!(r.epochs[1].start, 10);
        assert_eq!(r.served_total(), 1);
        assert_eq!(r.interrupted_total(), 1);
        // The same trace WITHOUT epoch segmentation fails: the plain
        // checker has no license to excuse the interrupted request.
        assert!(!analyze_me_trace(&t, 2).all_served());
    }

    /// A post-fault violation is NOT excused by the fault: two genuine
    /// overlapping CS executions inside the new epoch still fail.
    #[test]
    fn me_epochs_post_fault_violation_still_fails() {
        let mut t = MTrace::new();
        t.push_marker(5, p(0), "chaos:corrupt");
        // Both requests start after the fault; their CS intervals overlap.
        for (i, req, enter) in [(0usize, 10u64, 20u64), (1, 11, 20)] {
            push_served_request(&mut t, i, req, enter);
        }
        let r = analyze_me_epochs(&t, 2, &[5]);
        assert!(!r.holds());
        assert_eq!(r.epochs[1].report.genuine_overlaps.len(), 1);
        assert!(r.forged_marks.is_empty());
    }

    /// A CS interval crossing the fault boundary is non-genuine in the
    /// new epoch (its request belongs to the old one) — it cannot mask a
    /// violation, and it cannot count as service of the old request.
    #[test]
    fn me_epochs_boundary_crossing_interval_is_not_genuine() {
        let mut t = MTrace::new();
        t.push_marker(2, p(0), "request");
        t.push(
            3,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::Started,
            },
        );
        t.push(
            4,
            TraceEvent::Protocol {
                p: p(0),
                event: MeEvent::CsEnter,
            },
        );
        t.push_marker(6, p(1), "chaos:corrupt");
        // Exit + Served land after the fault.
        for event in [MeEvent::CsExit, MeEvent::Served] {
            t.push(8, TraceEvent::Protocol { p: p(0), event });
        }
        let r = analyze_me_epochs(&t, 2, &[6]);
        assert!(r.holds(), "{r:?}");
        // Old epoch: the request is interrupted, its interval closed at
        // the boundary. New epoch: no genuine interval, no served.
        assert_eq!(r.epochs[0].interrupted, vec![(p(0), 2)]);
        assert!(r.epochs[1].report.intervals.iter().all(|iv| !iv.genuine));
        assert_eq!(r.served_total(), 0);
    }

    /// Forged fault marks — chaos-prefixed markers at steps the harness
    /// did not vouch for — fail the verdict even on an otherwise clean
    /// trace.
    #[test]
    fn me_epochs_reject_forged_fault_marks() {
        let mut t = MTrace::new();
        push_served_request(&mut t, 0, 2, 8);
        // A protocol (or adversary) planting its own fault mark to buy an
        // excuse: not in the authoritative list.
        t.push_marker(5, p(0), "chaos:corrupt");
        let r = analyze_me_epochs(&t, 1, &[]);
        assert!(!r.holds());
        assert_eq!(r.forged_marks.len(), 1);
        assert_eq!(r.forged_marks[0].1, 5);
        // The same mark, vouched for, is fine.
        assert!(analyze_me_epochs(&t, 1, &[5]).holds());
        // Non-chaos markers are never forged marks.
        let mut clean = MTrace::new();
        push_served_request(&mut clean, 0, 2, 8);
        clean.push_marker(5, p(0), "crash");
        assert!(analyze_me_epochs(&clean, 1, &[]).holds());
    }

    #[test]
    fn me_epochs_with_no_faults_match_plain_checker() {
        let mut t = MTrace::new();
        push_served_request(&mut t, 0, 2, 8);
        push_served_request(&mut t, 1, 3, 12);
        let plain = analyze_me_trace(&t, 2);
        let epochs = analyze_me_epochs(&t, 2, &[]);
        assert_eq!(epochs.epochs_checked(), 1);
        assert_eq!(epochs.epochs[0].report, plain);
        assert!(epochs.holds());
    }

    /// Forwarding: a payload in flight at the fault boundary is
    /// interrupted; its post-fault delivery is classified `crossing`; a
    /// post-fault injected payload still gets the strict verdict.
    #[test]
    fn forwarding_epochs_classify_interrupted_and_crossing() {
        let mut t = FTrace::new();
        let a = fwd_payload(0, 2, 1); // in flight at the fault
        let b = fwd_payload(2, 0, 2); // injected + delivered post-fault
        push_injected(&mut t, 2, a);
        t.push_marker(5, p(1), "chaos:corrupt");
        push_injected(&mut t, 6, b);
        push_delivered(&mut t, 8, 2, a); // crosses the boundary
        push_delivered(&mut t, 9, 0, b);
        let r = analyze_forwarding_epochs(&t, 3, &[5]);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.epochs_checked(), 2);
        assert_eq!(r.epochs[0].interrupted, vec![a]);
        assert_eq!(r.crossing, vec![1]);
        assert_eq!(r.delivered_total(), 1, "only b counts in-epoch");
        // Without segmentation the same trace is simply clean (a was
        // delivered) — segmentation is *stricter* bookkeeping, looser
        // only about what the fault itself voided.
        assert!(analyze_forwarding_trace(&t, 3).holds());
    }

    /// A post-fault duplicate delivery of a post-fault injection still
    /// fails: the fault cannot excuse violations inside the new epoch.
    #[test]
    fn forwarding_epochs_post_fault_duplicate_fails() {
        let mut t = FTrace::new();
        t.push_marker(3, p(0), "chaos:corrupt");
        let m = fwd_payload(0, 2, 7);
        push_injected(&mut t, 4, m);
        push_delivered(&mut t, 6, 2, m);
        push_delivered(&mut t, 8, 2, m);
        let r = analyze_forwarding_epochs(&t, 3, &[3]);
        assert!(!r.holds());
        assert_eq!(r.epochs[1].report.duplicate_ids, vec![7]);
    }

    /// Forwarding: a lost payload in the FINAL epoch is a real loss —
    /// only a closing fault excuses in-flight payloads.
    #[test]
    fn forwarding_epochs_final_epoch_loss_fails() {
        let mut t = FTrace::new();
        t.push_marker(3, p(0), "chaos:corrupt");
        push_injected(&mut t, 5, fwd_payload(0, 2, 9));
        let r = analyze_forwarding_epochs(&t, 3, &[3]);
        assert!(!r.holds());
        assert_eq!(r.epochs[1].report.lost.len(), 1);
        assert_eq!(r.interrupted_total(), 0);
    }

    #[test]
    fn forwarding_epochs_reject_forged_marks() {
        let mut t = FTrace::new();
        let m = fwd_payload(0, 2, 4);
        push_injected(&mut t, 1, m);
        push_delivered(&mut t, 3, 2, m);
        t.push_marker(2, p(1), "chaos:restart-corrupt");
        let r = analyze_forwarding_epochs(&t, 3, &[]);
        assert!(!r.holds());
        assert_eq!(r.forged_marks.len(), 1);
        assert!(analyze_forwarding_epochs(&t, 3, &[2]).holds());
    }

    #[test]
    fn flush_checker_sees_junk() {
        use snapstab_sim::{Capacity, NetworkBuilder};
        let mut net: Network<u32> = NetworkBuilder::new(3)
            .capacity(Capacity::Bounded(1))
            .build();
        assert!(channels_flushed(&net, p(0), |m| *m == 666));
        net.channel_mut(p(1), p(0)).unwrap().preload([666]);
        assert!(!channels_flushed(&net, p(0), |m| *m == 666));
        // Junk on a link not incident to p is invisible to p's property.
        net.channel_mut(p(1), p(0)).unwrap().clear();
        net.channel_mut(p(1), p(2)).unwrap().preload([666]);
        assert!(channels_flushed(&net, p(0), |m| *m == 666));
    }

    // ---- Specification 5: crafted adversarial monitoring traces ----

    type STrace = Trace<(), MonitorEvent>;

    fn digest(proc_: usize, served: u64) -> ProbeDigest {
        ProbeDigest {
            proc: proc_ as u16,
            served,
            ..ProbeDigest::default()
        }
    }

    fn push_cut_started(t: &mut STrace, step: u64, init: usize, cut: u64) {
        t.push(
            step,
            TraceEvent::Protocol {
                p: p(init),
                event: MonitorEvent::CutStarted { cut },
            },
        );
    }

    fn push_cut_decided(
        t: &mut STrace,
        step: u64,
        init: usize,
        cut: u64,
        values: Vec<ProbeDigest>,
    ) {
        t.push(
            step,
            TraceEvent::Protocol {
                p: p(init),
                event: MonitorEvent::CutDecided { cut, values },
            },
        );
    }

    /// A clean wave at p0 over n=3 with causally possible values holds.
    #[test]
    fn snapshot_verdict_happy_path() {
        let mut t = STrace::new();
        t.push_marker(1, p(1), "served"); // before the wave: lo = 1 at p1
        push_cut_started(&mut t, 2, 0, 0);
        t.push_marker(4, p(2), "served"); // inside the wave: 0 or 1 legal at p2
        push_cut_decided(
            &mut t,
            6,
            0,
            0,
            vec![digest(0, 0), digest(1, 1), digest(2, 0)],
        );
        let r = analyze_snapshot_trace(&t, 3, &[]);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.cuts_decided(), 1);
        assert_eq!(r.clean_cuts(), 1);
        assert_eq!(r.cuts[0].started, 2);
        assert_eq!(r.cuts[0].decided, 6);
    }

    /// A decision with no matching started wave is fabricated, as is a
    /// duplicate decision for an already-consumed wave id.
    #[test]
    fn snapshot_rejects_fabricated_cut() {
        let mut t = STrace::new();
        push_cut_decided(&mut t, 4, 0, 7, vec![digest(0, 0), digest(1, 0)]);
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!r.holds());
        assert_eq!(r.fabricated, vec![(p(0), 7)]);

        let mut t = STrace::new();
        push_cut_started(&mut t, 1, 0, 3);
        push_cut_decided(&mut t, 2, 0, 3, vec![digest(0, 0), digest(1, 0)]);
        push_cut_decided(&mut t, 5, 0, 3, vec![digest(0, 0), digest(1, 0)]);
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!r.holds());
        assert_eq!(r.fabricated, vec![(p(0), 3)]);
        assert_eq!(r.cuts_decided(), 1, "the first decision is legitimate");
    }

    /// Torn cuts — wrong arity, or two values claiming one process (and
    /// hence a missing one) — are rejected even when a fault interrupts
    /// the wave: malformed vectors are monitor bugs, never fault debris.
    #[test]
    fn snapshot_rejects_torn_cut() {
        // Two values for p0, none for p1.
        let mut t = STrace::new();
        push_cut_started(&mut t, 1, 0, 0);
        push_cut_decided(&mut t, 4, 0, 0, vec![digest(0, 0), digest(0, 0)]);
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!r.holds());
        assert_eq!(r.torn, vec![(p(0), 0)]);

        // Wrong arity: n-1 values.
        let mut t = STrace::new();
        push_cut_started(&mut t, 1, 1, 9);
        push_cut_decided(&mut t, 4, 1, 9, vec![digest(0, 0)]);
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert_eq!(r.torn, vec![(p(1), 9)]);

        // Still torn when a vouched fault lands mid-wave.
        let mut t = STrace::new();
        push_cut_started(&mut t, 1, 0, 0);
        t.push_marker(2, p(1), "chaos:corrupt");
        push_cut_decided(&mut t, 4, 0, 0, vec![digest(0, 0), digest(0, 0)]);
        let r = analyze_snapshot_trace(&t, 2, &[2]);
        assert!(!r.holds());
        assert_eq!(r.torn, vec![(p(0), 0)]);
        assert_eq!(r.interrupted_total(), 1);
    }

    /// A clean cut may not report a value from a process that was
    /// crashed for the wave's entire interval.
    #[test]
    fn snapshot_rejects_value_from_crashed_process() {
        let mut t = STrace::new();
        t.push_marker(0, p(1), "crash");
        push_cut_started(&mut t, 2, 0, 0);
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 0)]);
        t.push_marker(9, p(1), "restart"); // restarts only after the wave
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!r.holds());
        assert_eq!(r.crashed_values, vec![(p(0), 0, p(1))]);

        // A process that restarts *during* the wave can have answered.
        let mut t = STrace::new();
        t.push_marker(0, p(1), "crash");
        push_cut_started(&mut t, 2, 0, 0);
        t.push_marker(4, p(1), "restart");
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 0)]);
        assert!(analyze_snapshot_trace(&t, 2, &[]).holds());
    }

    /// Causal consistency: a cut may not report a serve count below
    /// what the merged trace shows granted before the wave began
    /// (unserved-at-p vs already-granted-at-q), nor one from the future.
    #[test]
    fn snapshot_rejects_causally_inconsistent_cut() {
        // p1 served twice before the wave, but the cut claims 1.
        let mut t = STrace::new();
        t.push_marker(1, p(1), "served");
        t.push_marker(2, p(1), "served");
        push_cut_started(&mut t, 3, 0, 0);
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 1)]);
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!r.holds());
        assert_eq!(r.causal_violations, vec![(p(0), 0, p(1))]);

        // A serve that only happens after decision cannot be in the cut.
        let mut t = STrace::new();
        push_cut_started(&mut t, 3, 0, 0);
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 1)]);
        t.push_marker(8, p(1), "served");
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!r.holds());
        assert_eq!(r.causal_violations, vec![(p(0), 0, p(1))]);

        // But the same value is legal when that serve lands mid-wave.
        let mut t = STrace::new();
        push_cut_started(&mut t, 3, 0, 0);
        t.push_marker(4, p(1), "served");
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 1)]);
        assert!(analyze_snapshot_trace(&t, 2, &[]).holds());
    }

    /// Refusals and still-pending waves are recorded, never violations:
    /// refusal is the *required* behaviour for corrupted monitor state.
    #[test]
    fn snapshot_allows_refusal_and_pending() {
        let mut t = STrace::new();
        push_cut_started(&mut t, 1, 0, 0);
        t.push(
            3,
            TraceEvent::Protocol {
                p: p(0),
                event: MonitorEvent::CutRefused { cut: 0 },
            },
        );
        push_cut_started(&mut t, 5, 0, 1); // pending at trace end
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.refused, vec![(p(0), 0)]);
        assert_eq!(r.pending, vec![(p(0), 1)]);
        assert_eq!(r.cuts_decided(), 0);
    }

    /// A vouched mid-wave fault exempts the cut from the causal checks
    /// (classified interrupted), but the same garbage fails a clean run.
    #[test]
    fn snapshot_interrupted_cut_is_exempt_but_classified() {
        let build = |with_fault: bool| {
            let mut t = STrace::new();
            push_cut_started(&mut t, 2, 0, 0);
            if with_fault {
                t.push_marker(4, p(1), "chaos:corrupt");
            }
            // served=5 with no "served" markers anywhere: impossible
            // unless the wave was interrupted.
            push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 5)]);
            t
        };
        let clean = analyze_snapshot_trace(&build(false), 2, &[]);
        assert!(!clean.holds());
        assert_eq!(clean.causal_violations.len(), 1);

        let faulted = analyze_snapshot_trace(&build(true), 2, &[4]);
        assert!(faulted.holds(), "{faulted:?}");
        assert_eq!(faulted.interrupted_total(), 1);
        assert_eq!(faulted.clean_cuts(), 0);
    }

    /// The same forged-mark trust rule as the epoch checkers: a
    /// chaos-prefixed marker the harness did not vouch for fails Spec 5.
    #[test]
    fn snapshot_rejects_forged_marks() {
        let mut t = STrace::new();
        push_cut_started(&mut t, 2, 0, 0);
        t.push_marker(4, p(1), "chaos:corrupt");
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 0)]);
        let forged = analyze_snapshot_trace(&t, 2, &[]);
        assert!(!forged.holds());
        assert_eq!(forged.forged_marks.len(), 1);
        assert!(analyze_snapshot_trace(&t, 2, &[4]).holds());
    }

    fn push_cut_refused(t: &mut STrace, step: u64, init: usize, cut: u64) {
        t.push(
            step,
            TraceEvent::Protocol {
                p: p(init),
                event: MonitorEvent::CutRefused { cut },
            },
        );
    }

    /// Two initiators with overlapping waves: each decided cut lands on
    /// the ledger that requested it, and the per-initiator accessors
    /// recover the split.
    #[test]
    fn snapshot_attributes_cuts_per_initiator() {
        let mut t = STrace::new();
        push_cut_started(&mut t, 1, 0, 0);
        push_cut_started(&mut t, 2, 1, 0); // overlapping wave, other ledger
        push_cut_decided(&mut t, 4, 0, 0, vec![digest(0, 0), digest(1, 0)]);
        push_cut_decided(&mut t, 5, 1, 0, vec![digest(0, 0), digest(1, 0)]);
        push_cut_started(&mut t, 6, 1, 1);
        push_cut_refused(&mut t, 7, 1, 1);
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.initiators(), vec![p(0), p(1)]);
        assert_eq!(r.cuts_of(p(0)), 1);
        assert_eq!(r.cuts_of(p(1)), 1);
        assert_eq!(r.refused_of(p(0)), 0);
        assert_eq!(r.refused_of(p(1)), 1);
    }

    /// Refusal streaks run per ledger in cut-id order; a decision on
    /// the same ledger resets the run, other ledgers never touch it.
    #[test]
    fn snapshot_refusal_streak_is_per_ledger() {
        let mut t = STrace::new();
        // p0: refuse 0, refuse 1, decide 2, refuse 3 → max streak 2.
        for cut in 0..2u64 {
            push_cut_started(&mut t, 1 + 2 * cut, 0, cut);
            push_cut_refused(&mut t, 2 + 2 * cut, 0, cut);
        }
        push_cut_started(&mut t, 10, 0, 2);
        push_cut_decided(&mut t, 11, 0, 2, vec![digest(0, 0), digest(1, 0)]);
        push_cut_started(&mut t, 12, 0, 3);
        push_cut_refused(&mut t, 13, 0, 3);
        // p1: one long unbroken streak of 3.
        for cut in 0..3u64 {
            push_cut_started(&mut t, 20 + 2 * cut, 1, cut);
            push_cut_refused(&mut t, 21 + 2 * cut, 1, cut);
        }
        let r = analyze_snapshot_trace(&t, 2, &[]);
        assert!(r.holds(), "{r:?}");
        assert_eq!(r.max_refusal_streak_of(p(0)), 2);
        assert_eq!(r.max_refusal_streak_of(p(1)), 3);
        assert_eq!(r.max_refusal_streak_of(ProcessId::new(5)), 0);
    }

    // ---- Hostile traces: processes outside 0..n, steps out of order ----

    /// Spec 1 ignores events at processes outside `0..n` — except a
    /// `receive-fck` the initiator logs, which still counts against an
    /// exact decision — and reads an out-of-order trace by step.
    #[test]
    fn hostile_pif_trace_neither_panics_nor_changes_the_verdict() {
        let mut t = PTrace::new();
        let at = |t: &mut PTrace, step: u64, q: usize, event: PifEvent<u32, u32>| {
            t.push(step, TraceEvent::Protocol { p: p(q), event });
        };
        at(&mut t, 9, 0, PifEvent::Decided);
        at(
            &mut t,
            4,
            1,
            PifEvent::ReceiveBrd {
                from: p(0),
                data: 7,
            },
        );
        at(&mut t, 3, 7, PifEvent::Started);
        at(
            &mut t,
            4,
            7,
            PifEvent::ReceiveBrd {
                from: p(0),
                data: 7,
            },
        );
        t.push_marker(1, p(9), "request");
        at(&mut t, 2, 0, PifEvent::Started);
        at(
            &mut t,
            6,
            0,
            PifEvent::ReceiveFck {
                from: p(1),
                data: 101,
            },
        );
        at(&mut t, 5, 7, PifEvent::Decided);
        let v = check_bare_pif_wave(&t, p(0), 2, 0, &7, |_| 101);
        let clean = PifVerdict {
            started: true,
            decided: true,
            broadcasts_received: true,
            feedbacks_received: true,
            decision_exact: true,
            start_step: Some(2),
            decision_step: Some(9),
        };
        assert_eq!(v, clean);
        at(
            &mut t,
            7,
            0,
            PifEvent::ReceiveFck {
                from: p(7),
                data: 101,
            },
        );
        let v = check_bare_pif_wave(&t, p(0), 2, 0, &7, |_| 101);
        let inexact = PifVerdict {
            decision_exact: false,
            ..clean
        };
        assert_eq!(v, inexact);
    }

    /// Two served requests pushed out of step order, plus a request and
    /// a CS at process 4 of a 2-process system, and fault marks at
    /// processes 7 and 8: the out-of-range entries are ignored by the
    /// per-process state, but an unvouched fault mark is forged wherever
    /// it points.
    fn hostile_me_trace() -> MTrace {
        let mut t = MTrace::new();
        push_served_request(&mut t, 1, 6, 12);
        t.push_marker(1, p(4), "request");
        push_served_request(&mut t, 0, 2, 8);
        t.push(
            9,
            TraceEvent::Protocol {
                p: p(4),
                event: MeEvent::CsEnter,
            },
        );
        t.push_marker(4, p(8), "chaos:forged");
        t.push_marker(3, p(7), "chaos:corrupt");
        t
    }

    #[test]
    fn hostile_me_trace_neither_panics_nor_changes_the_verdict() {
        let iv = |i: usize, step: u64, genuine: bool| CsInterval {
            p: p(i),
            enter: step,
            exit: step,
            genuine,
        };
        let r = analyze_me_trace(&hostile_me_trace(), 2);
        let want = MeReport {
            intervals: vec![iv(0, 8, true), iv(1, 12, true)],
            served: vec![(p(0), 2, 8), (p(1), 6, 12)],
            ..MeReport::default()
        };
        assert_eq!(r, want);

        let r = analyze_me_epochs(&hostile_me_trace(), 2, &[10, 3, 10]);
        let epoch =
            |start: u64, report: MeReport, interrupted: Vec<(ProcessId, u64)>| MeEpochVerdict {
                start,
                report,
                interrupted,
            };
        let want = MeEpochReport {
            epochs: vec![
                epoch(0, MeReport::default(), vec![(p(0), 2)]),
                epoch(
                    3,
                    MeReport {
                        intervals: vec![iv(0, 8, false)],
                        ..MeReport::default()
                    },
                    vec![(p(1), 6)],
                ),
                epoch(
                    10,
                    MeReport {
                        intervals: vec![iv(1, 12, false)],
                        ..MeReport::default()
                    },
                    vec![],
                ),
            ],
            forged_marks: vec![(p(8), 4, "chaos:forged".to_string())],
        };
        assert_eq!(r, want);
    }

    /// Deliveries pushed before the injections they answer, one of them
    /// at process 5 of a 3-process system, an injection from process 6,
    /// and a fault mark at process 9.
    fn hostile_forwarding_trace() -> (FTrace, Payload, Payload) {
        let mut t = FTrace::new();
        let a = fwd_payload(0, 2, 1);
        let b = fwd_payload(6, 1, 2);
        push_delivered(&mut t, 9, 2, a);
        push_delivered(&mut t, 7, 5, a);
        t.push_marker(6, p(9), "chaos:forged");
        push_injected(&mut t, 2, a);
        push_injected(&mut t, 4, b);
        (t, a, b)
    }

    #[test]
    fn hostile_forwarding_trace_neither_panics_nor_changes_the_verdict() {
        let (t, a, b) = hostile_forwarding_trace();
        let r = analyze_forwarding_trace(&t, 3);
        let want = ForwardingReport {
            injected: vec![(2, a), (4, b)],
            delivered: vec![(a, 2, 9)],
            lost: vec![b],
            duplicate_ids: vec![1],
            corrupt_deliveries: vec![a, b],
            ..ForwardingReport::default()
        };
        assert_eq!(r, want);

        let r = analyze_forwarding_epochs(&t, 3, &[5]);
        let want = ForwardingEpochReport {
            epochs: vec![
                ForwardingEpochVerdict {
                    start: 0,
                    report: ForwardingReport {
                        injected: vec![(2, a), (4, b)],
                        corrupt_deliveries: vec![b],
                        ..ForwardingReport::default()
                    },
                    interrupted: vec![a, b],
                },
                ForwardingEpochVerdict {
                    start: 5,
                    report: ForwardingReport {
                        stale_duplicates: vec![1],
                        spurious: 2,
                        ..ForwardingReport::default()
                    },
                    interrupted: vec![],
                },
            ],
            forged_marks: vec![(p(9), 6, "chaos:forged".to_string())],
            crossing: vec![1],
        };
        assert_eq!(r, want);
    }

    /// A wave, a crash and a serve at processes 3 and 4 of a 2-process
    /// system, a fault mark at process 5, and markers pushed after the
    /// events they precede.
    #[test]
    fn hostile_snapshot_trace_neither_panics_nor_changes_the_verdict() {
        let mut t = STrace::new();
        push_cut_started(&mut t, 2, 0, 0);
        push_cut_decided(&mut t, 6, 0, 0, vec![digest(0, 0), digest(1, 1)]);
        push_cut_started(&mut t, 1, 3, 0);
        t.push_marker(0, p(4), "crash");
        t.push_marker(2, p(4), "served");
        push_cut_decided(&mut t, 4, 3, 0, vec![digest(3, 9)]);
        t.push_marker(1, p(1), "served");
        t.push_marker(3, p(5), "chaos:forged");
        let r = analyze_snapshot_trace(&t, 2, &[]);
        let want = SnapshotReport {
            cuts: vec![SnapshotCut {
                initiator: p(0),
                cut: 0,
                started: 2,
                decided: 6,
                values: vec![digest(0, 0), digest(1, 1)],
                interrupted: false,
            }],
            forged_marks: vec![(p(5), 3, "chaos:forged".to_string())],
            ..SnapshotReport::default()
        };
        assert_eq!(r, want);
    }
}
