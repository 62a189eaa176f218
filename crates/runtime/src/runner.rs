//! What every live run shares, whichever way it is driven: its
//! [`LiveConfig`], the [`Scribe`] handed to code running inside an
//! atomic action, the per-instance and aggregate counters, and the
//! [`LiveReport`] a stopped run yields. The runner itself is
//! [`crate::MuxRunner`].
//!
//! Every atomic action draws a ticket from one global [`AtomicU64`] step
//! counter and logs its events into a per-instance [`Trace`] under that
//! step, so the merged trace ([`Trace::merged`]) is a total order
//! consistent with both per-process program order and real-time
//! cross-thread causality — which is exactly what the executable
//! specifications in `snapstab_core::spec` need to judge a live run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use snapstab_sim::{ProcessId, Protocol, Trace};

use crate::link::LinkStats;
use crate::transport::LinkMatrix;

/// Construction-time configuration of a live run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Per-link bounded capacity (§4 known-bound regime; the paper's
    /// protocols are designed for 1). Unbounded capacity is deliberately
    /// not offered: Theorem 1 shows snap-stabilization is impossible
    /// there, and a live transport would also exhaust memory.
    pub capacity: usize,
    /// Per-message in-transit loss probability in `[0, 1)`.
    pub loss: f64,
    /// Optional maximum extra delivery delay, drawn uniformly per message.
    pub jitter: Option<Duration>,
    /// Seed for the per-link loss/jitter streams and per-instance RNGs.
    pub seed: u64,
    /// Record per-instance event logs for trace merging (benches switch
    /// this off to measure raw throughput).
    pub record_trace: bool,
    /// How much detail to record while `record_trace` is on — see
    /// [`TraceDetail`]. Scale runs, where a snap-stabilizing fleet
    /// retransmits millions of messages per second, drop to
    /// [`TraceDetail::Spec`] to keep the merged trace proportional to
    /// specification activity instead of wire traffic.
    pub detail: TraceDetail,
    /// The sweep period, which is the fairness timer: the longest the
    /// pool may withhold an activation from an instance that no traffic
    /// reaches, the paper's "every process is activated infinitely
    /// often". It also bounds the retransmission period under loss and
    /// the latency of a jittered delivery. A lossless in-memory run needs
    /// it too (see [`crate::mux`], "The sweep is the fairness timer").
    pub max_backoff: Duration,
}

/// How much detail a recording run keeps in its per-instance logs — the
/// trade-off between forensic completeness and trace volume. Every
/// executable specification checker judges protocol events and markers
/// alone, so every level below [`TraceDetail::Full`] still feeds the
/// unchanged Spec 1/3/4/5 checkers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceDetail {
    /// Wire (`Sent`/`Delivered`) and protocol events: the full forensic
    /// trace (default).
    #[default]
    Full,
    /// Keep only markers and the protocol events the protocol flags as
    /// spec-relevant ([`Protocol::event_is_spec_relevant`]) — the
    /// minimal trace the checkers accept, proportional to protocol
    /// decisions instead of wave traffic.
    Spec,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            capacity: 1,
            loss: 0.0,
            jitter: None,
            seed: 0,
            record_trace: true,
            detail: TraceDetail::Full,
            max_backoff: Duration::from_millis(2),
        }
    }
}

/// Logging and stepping capabilities handed to harness closures and
/// driver hooks executing *inside* an atomic action: the live counterpart of the
/// runner-side accessors of the simulator.
pub struct Scribe<'a, M, E> {
    me: ProcessId,
    counter: &'a AtomicU64,
    log: &'a mut Trace<M, E>,
    record: bool,
}

impl<'a, M, E> Scribe<'a, M, E> {
    /// Assembles a scribe around an instance's log — crate-internal, so
    /// client code only ever receives one from the runner.
    pub(crate) fn new(
        me: ProcessId,
        counter: &'a AtomicU64,
        log: &'a mut Trace<M, E>,
        record: bool,
    ) -> Self {
        Scribe {
            me,
            counter,
            log,
            record,
        }
    }

    /// The process this scribe writes for.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Records a harness marker (e.g. `"request"`) under a fresh global
    /// step, so it is totally ordered against every protocol event.
    /// Returns the step.
    pub fn mark(&mut self, label: impl Into<String>) -> u64 {
        let step = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if self.record {
            self.log.push_marker(step, self.me, label);
        }
        step
    }

    /// The number of global atomic steps taken so far (approximate while
    /// other workers run).
    pub fn step_count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

/// A hook run once per scheduling quantum, between message draining and
/// the activation: the injection point for client workloads (see
/// [`crate::run_service`]). Returns `true` if it made progress, which
/// keeps the instance on the ready queue.
pub type Driver<P> = Box<
    dyn FnMut(&mut P, &mut Scribe<'_, <P as Protocol>::Msg, <P as Protocol>::Event>) -> bool + Send,
>;

/// Per-instance execution counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkerStats {
    /// Activations executed (one per enabled-action sweep).
    pub activations: u64,
    /// Activations in which at least one action ran.
    pub effective_activations: u64,
    /// Receive actions executed.
    pub deliveries: u64,
    /// Protocol events emitted.
    pub protocol_events: u64,
    /// Scheduling quanta executed: one drain / driver / activation pass
    /// (a `step_instance` call). `deliveries / quanta` is the batching a
    /// quantum achieves.
    pub quanta: u64,
}

/// Aggregate statistics of a live run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LiveStats {
    /// Global atomic steps executed (activations + deliveries + markers).
    pub steps: u64,
    /// Sum of the instances' counters.
    pub activations: u64,
    /// Activations in which at least one action ran.
    pub effective_activations: u64,
    /// Receive actions executed.
    pub deliveries: u64,
    /// Protocol events emitted.
    pub protocol_events: u64,
    /// Sum of the links' counters.
    pub links: LinkStats,
    /// Sum of the instances' scheduling quanta (see [`WorkerStats::quanta`]).
    pub quanta: u64,
    /// `Condvar` notifies the ready queue actually issued — one futex
    /// syscall each.
    pub wakeups: u64,
}

impl LiveStats {
    /// Adds one instance's counters.
    pub(crate) fn absorb(&mut self, w: &WorkerStats) {
        self.activations += w.activations;
        self.effective_activations += w.effective_activations;
        self.deliveries += w.deliveries;
        self.protocol_events += w.protocol_events;
        self.quanta += w.quanta;
    }
}

/// A point-in-time observation of one directed link, taken by
/// [`crate::MuxRunner::link_samples`] while the run is live: the cumulative
/// [`LinkStats`] counters plus the instantaneous in-transit occupancy.
/// This is the per-link half of a monitoring cut (`crate::monitor`) —
/// channel *counters* observed at sampling time, deliberately not a
/// Chandy–Lamport channel-*content* recording.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkSample {
    /// Sender side of the link.
    pub from: ProcessId,
    /// Receiver side of the link.
    pub to: ProcessId,
    /// Cumulative counters at sampling time.
    pub stats: LinkStats,
    /// Messages queued in the link right now.
    pub in_transit: usize,
}

impl LinkSample {
    /// Samples every link of a matrix, in row-major `(from, to)` order.
    pub(crate) fn all<M>(links: &LinkMatrix<M>) -> Vec<LinkSample> {
        links
            .iter()
            .flatten()
            .map(|link| LinkSample {
                from: link.from(),
                to: link.to(),
                stats: link.stats(),
                in_transit: link.len(),
            })
            .collect()
    }
}

/// Everything a finished live run yields: final process states, the
/// merged trace, and counters.
pub struct LiveReport<P: Protocol> {
    /// Final protocol states, in id order.
    pub processes: Vec<P>,
    /// The merged, step-ordered trace (empty when recording was off).
    pub trace: Trace<P::Msg, P::Event>,
    /// Aggregate counters.
    pub stats: LiveStats,
    /// Wall-clock duration from spawn to stop.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MuxRunner;
    use snapstab_core::idl::IdlProcess;
    use snapstab_core::request::RequestState;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn idl_fleet(n: usize) -> Vec<IdlProcess> {
        (0..n)
            .map(|i| IdlProcess::new(p(i), n, 10 + i as u64))
            .collect()
    }

    #[test]
    fn record_trace_off_keeps_stats() {
        let cfg = LiveConfig {
            record_trace: false,
            ..LiveConfig::default()
        };
        let mut r = MuxRunner::spawn(idl_fleet(3), cfg, 2);
        r.mark(p(0), "request");
        r.with_process(p(0), |m: &mut IdlProcess| m.request_learning());
        assert!(r.wait_until(
            p(0),
            |m: &IdlProcess| m.request() == RequestState::Done,
            Duration::from_secs(20),
        ));
        let report = r.stop();
        assert!(report.trace.is_empty(), "not even the marker is kept");
        assert!(report.stats.deliveries > 0, "stats survive");
        assert!(report.stats.steps > 0, "the marker still drew a step");
    }

    /// A crashed instance's state is part of the report: `stop` never
    /// drops a process, crashed or not.
    #[test]
    fn stop_collects_crashed_worker_state() {
        let mut r = MuxRunner::spawn(idl_fleet(2), LiveConfig::default(), 2);
        assert!(r.crash(p(1)));
        let report = r.stop();
        assert_eq!(report.processes.len(), 2);
        let markers: Vec<&str> = report.trace.markers().map(|(_, _, l)| l).collect();
        assert_eq!(markers, ["crash"], "the crash is in the merged trace");
    }
}
