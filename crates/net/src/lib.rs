//! # snapstab-net — the paper's channels over real UDP sockets
//!
//! The computational model of §4 — asynchronous message passing over
//! **lossy, duplicate-prone, finite-capacity** channels — is exactly what
//! UDP provides for free. This crate makes that correspondence executable:
//! a [`UdpLoopback`] transport runs any existing
//! [`Protocol`](snapstab_sim::Protocol) implementation *unchanged* over
//! real OS datagram sockets, behind the
//! [`Transport`](snapstab_runtime::Transport) abstraction extracted from
//! the in-memory runtime — and the runs are judged by the same executable
//! specifications (`snapstab_core::spec`) as simulated and in-memory live
//! runs.
//!
//! Three pieces:
//!
//! * [`wire`] — the record format: a 16-byte header (link endpoints,
//!   capacity lane, per-link sequence number) plus a compact
//!   dependency-free payload codec (the [`Wire`] trait) for every message
//!   type the protocols exchange. A datagram — a *frame* — is one or more
//!   records laid end to end;
//! * [`UdpLink`] — one directed link. `send` stages a record in the
//!   frame its topology shares; `pump`, which the runtime's workers call
//!   once per scheduling quantum, sends the frame and drains the socket.
//!   The *receive* path enforces, per record, what UDP does not promise:
//!   FIFO/duplication-freedom by dropping out-of-sequence records, and
//!   the §4 bounded capacity by silently dropping on a full lane — plus
//!   seeded injected loss and delivery jitter for reproducible
//!   experiments, with per-link counters
//!   ([`LinkStats`](snapstab_runtime::LinkStats): sent / delivered /
//!   dropped-full / dropped-reorder) and per-topology frame counters
//!   ([`FrameStats`]);
//! * [`UdpLoopback`] — the harness: binds one ephemeral socket on
//!   `127.0.0.1` per topology and wires the full link matrix onto it. It
//!   starts no thread.
//!
//! ## Running a service over UDP
//!
//! ```
//! use snapstab_net::UdpLoopback;
//! use snapstab_runtime::{run_service, MutexServiceConfig, ServiceRun};
//! use std::time::Duration;
//!
//! # if !snapstab_net::udp_available() { return; } // skip in socketless sandboxes
//! let cfg = MutexServiceConfig {
//!     n: 3,
//!     requests_per_process: 2,
//!     time_budget: Duration::from_secs(30),
//!     ..MutexServiceConfig::default()
//! };
//! let run = ServiceRun {
//!     transport: &UdpLoopback::new(),
//!     ..ServiceRun::default()
//! };
//! let (report, _) = run_service(&cfg, run).expect("bind the loopback socket");
//! assert_eq!(report.served, 6);
//! // The merged trace passes the same Specification 3 checker as
//! // simulated and in-memory live runs (see `tests/udp_runtime.rs`).
//! ```
//!
//! Environments that forbid socket creation are detected by
//! [`udp_available`]; the UDP test suites skip-and-warn instead of
//! failing there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod loopback;
pub mod wire;

pub use link::{FrameStats, UdpLink};
pub use loopback::{udp_available, UdpLoopback};
pub use wire::{Wire, WireReader};
