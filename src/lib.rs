//! # snapstab-repro — reproduction of *Snap-Stabilization in
//! Message-Passing Systems* (Delaët, Devismes, Nesterenko, Tixeuil, 2008)
//!
//! This meta-crate re-exports the workspace members under one roof:
//!
//! * [`sim`] — the message-passing system model of §2: guarded-action
//!   processes, FIFO bounded/unbounded lossy channels, fair and
//!   adversarial schedulers, arbitrary initial configurations;
//! * [`core`] — the paper's contribution: the snap-stabilizing PIF
//!   (Algorithm 1), IDs-Learning (Algorithm 2), and Mutual Exclusion
//!   (Algorithm 3), plus executable Specifications 1–3 and Property 1 —
//!   and the first application layer the follow-up literature built on
//!   them: snap-stabilizing end-to-end *message forwarding*
//!   (`core::forward`, judged by executable Specification 4);
//! * [`baselines`] — the §4.1 naive PIF and three self-stabilizing
//!   comparators (Afek–Brown ABP, counter flushing, Dijkstra token ring);
//! * [`impossibility`] — Theorem 1 as a program: witness recording, the
//!   adversarial configuration `γ₀`, deterministic replay to the bad
//!   factor;
//! * [`apps`] — the PIF applications the paper names in §4.1 (snapshot,
//!   leader election, reset, phase barrier, termination detection), each
//!   snap-stabilizing by construction on top of Theorem 2;
//! * [`runtime`] — the *live* execution substrate: the same protocols
//!   multiplexed over a pool of real OS threads and a pluggable
//!   concurrent transport, with merged
//!   traces the spec checkers accept, and a mutual-exclusion service
//!   front-end absorbing high-volume client request streams;
//! * [`net`] — the UDP datagram backend of the runtime's `Transport`
//!   abstraction: one socket per process, a 16-byte wire header, and the
//!   §4 channel semantics (FIFO, bounded capacity, silent drop-on-full)
//!   enforced in the receive path;
//! * [`mc`] — an exhaustive explicit-state model checker: the 2-process
//!   handshake verified over *every* initial configuration and *every*
//!   interleaving, with machine-found shortest counterexamples for every
//!   undersized flag domain (including the Figure 1 attack, rediscovered
//!   automatically);
//! * [`topology`] — the §5 open extension: tree-structured waves on
//!   general topologies, built from the paper's per-edge handshake with
//!   deferred feedback.
//!
//! The `core::capacity` module makes the §4 bounded-capacity remark
//! *tight*: channels of capacity `c` need exactly `2c + 3` flag values
//! (the paper's five are the `c = 1` instance — and demonstrably break at
//! `c = 2`).
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `snapstab-bench` for the experiment suite that regenerates every paper
//! artifact.
//!
//! ```
//! use snapstab_repro::core::idl::IdlProcess;
//! use snapstab_repro::core::harness;
//! use snapstab_repro::sim::ProcessId;
//!
//! let mut runner = harness::pif_system(3, |i| IdlProcess::new(ProcessId::new(i), 3, 10 + i as u64), 1);
//! runner.process_mut(ProcessId::new(0)).request_learning();
//! harness::run_to_decision(&mut runner, ProcessId::new(0), 100_000).unwrap();
//! assert_eq!(runner.process(ProcessId::new(0)).idl().min_id(), 10);
//! ```

#![forbid(unsafe_code)]

pub use snapstab_apps as apps;
pub use snapstab_baselines as baselines;
pub use snapstab_core as core;
pub use snapstab_impossibility as impossibility;
pub use snapstab_mc as mc;
pub use snapstab_net as net;
pub use snapstab_runtime as runtime;
pub use snapstab_sim as sim;
pub use snapstab_topology as topology;
