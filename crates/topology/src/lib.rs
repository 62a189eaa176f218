//! # snapstab-topology — snap-stabilizing waves beyond complete graphs
//!
//! The paper proves its protocols for fully-connected networks and names
//! general topologies as an open extension (§5: "it is worth investigating
//! if the results presented in this paper could be extended to more
//! general networks"). This crate is that investigation, executable: a
//! **tree-structured PIF** in the same system model — bounded-capacity
//! lossy FIFO channels, arbitrary initial configurations — built from the
//! paper's own per-edge handshake.
//!
//! * [`link`] — Algorithm 1's five-valued flag discipline distilled to a
//!   single directed edge ([`link::ProbeUnit`] / [`link::ResponderUnit`]),
//!   with *deferred feedback*: the responder withholds its echo of the
//!   broadcast-trigger flag until the upper layer attaches the feedback
//!   value. Lemma 4's causality argument is per-edge and carries over
//!   verbatim (the `snapstab-mc` crate verifies the underlying handshake
//!   exhaustively).
//! * [`node`] — [`node::TreePifNode`]: waves propagate hop-by-hop down
//!   the tree and aggregates flow back up as deferred feedback;
//!   corrupted relay bookkeeping is reconciled on every activation.
//! * [`agg`] — ready-made aggregations: census ([`agg::Count`]), leader
//!   election ([`agg::MinId`]), sums and snapshots ([`agg::Gather`]).
//! * [`spec`] — Specification 1 lifted to trees, as a trace checker.
//!
//! Non-tree graphs run the protocol over a spanning tree
//! ([`snapstab_sim::Topology::bfs_spanning_tree`]); the experiment
//! `exp_topology` measures the latency/message trade against the flat
//! protocol on the complete graph.
//!
//! **Status.** Unlike the three protocols of the paper, the tree
//! composition has no published proof; ARCHITECTURE.md §11 (X2) records the safety
//! argument (per-edge Lemma 4 + feedback-reset-before-echo) and the
//! liveness argument (induction over subtree height + reconciliation),
//! and the test suite validates both against arbitrary corruption — in
//! the same way the paper's own protocols are validated here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod link;
pub mod node;
pub mod spec;

pub use agg::{Count, Gather, MinId, SumValue};
pub use link::{ProbeOutcome, ProbeReceipt, ProbeUnit, ResponderUnit};
pub use node::{TreeAggregate, TreeEvent, TreeMsg, TreeNodeState, TreePifNode};
pub use spec::{check_tree_wave, TreeWaveVerdict};
