//! # snapstab-bench — the experiment harness
//!
//! One module (and one binary) per paper artifact:
//!
//! | id | artifact | module |
//! |----|----------|--------|
//! | F1 | Figure 1 worst case | [`experiments::fig1`] |
//! | T1 | Theorem 1 construction | [`experiments::impossibility`] |
//! | T2 + P1 | Theorem 2 / Spec 1 + Property 1 | [`experiments::pif_props`] |
//! | T3 | Theorem 3 / Spec 2 | [`experiments::idl_props`] |
//! | T4 + L1 | Theorem 4 / Spec 3 + Lemmas 10–11 | [`experiments::me_props`] |
//! | Q1 | message/step complexity | [`experiments::scaling`] |
//! | Q2 | loss resilience | [`experiments::loss`] |
//! | Q3 | naive-protocol failure modes | [`experiments::naive`] |
//! | C1 | snap- vs self-stabilization | [`experiments::baseline`] |
//! | A1 + A2 | ablations (flag domain, mod n+1) | [`experiments::ablation`] |
//! | Q5 | step-loop throughput trajectory | [`experiments::stepbench`] |
//! | Q6 | live-runtime mutex-service throughput | [`experiments::rtbench`] |
//!
//! Every experiment is deterministic given its seeds and prints an ASCII
//! table; `--bin all_experiments` runs the full suite.
//!
//! Q5 and Q6 commit JSON trajectories (`BENCH_STEPLOOP.json`,
//! `BENCH_RUNTIME.json`); both are rows of one [`row::Row`] type under a
//! `const` [`row::Schema`], written, parsed and rendered by [`row`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod jsonv;
pub mod row;
pub mod stats;
pub mod table;

pub use stats::Summary;
pub use table::Table;

/// Global "fast mode" knob: experiment binaries accept `--fast` to shrink
/// trial counts for smoke runs.
pub fn is_fast(args: &[String]) -> bool {
    args.iter().any(|a| a == "--fast")
}
