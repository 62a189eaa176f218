//! **A1 + A2 — ablations of the paper's design choices.**
//!
//! * **A1 — the five-valued flag is minimal.** Algorithm 1 is run over
//!   flag domains `{0..m}` for `m = 1..6`; for each, the full adversary
//!   space of 2-process initial configurations (hidden messages' flag
//!   fields, the peer's variables) is enumerated, counting configurations
//!   in which the initiator's decision takes a *forged* feedback into
//!   account. The count is positive for every `m < 4` and zero from the
//!   paper's `m = 4` upward.
//! * **A2 — the `mod (n+1)` erratum (deviation D2, ARCHITECTURE.md §11).** Algorithm 3 with
//!   the literal `Value ← (Value+1) mod (n+1)` reaches the value `n`,
//!   which favours nobody; from then on no request is ever served — a
//!   livelock the corrected `mod n` arithmetic cannot enter.

use snapstab_core::flag::{Flag, FlagDomain};
use snapstab_core::me::{MeConfig, MeProcess, ValueMode};
use snapstab_core::pif::{PifApp, PifMsg, PifProcess};
use snapstab_core::request::RequestState;
use snapstab_sim::{
    Capacity, Move, NetworkBuilder, ProcessId, Protocol, RoundRobin, Runner, SimRng,
};

use crate::table::Table;

#[derive(Clone, Debug)]
struct Answer(u32);

impl PifApp<u32, u32> for Answer {
    fn on_broadcast(&mut self, _from: ProcessId, _data: &u32) -> u32 {
        self.0
    }
    fn on_feedback(&mut self, _from: ProcessId, _data: &u32) {}
}

fn p0() -> ProcessId {
    ProcessId::new(0)
}
fn p1() -> ProcessId {
    ProcessId::new(1)
}

/// The adversarial schedule family: fair round-robin (empty script), the
/// Figure 1-style crafted stale drive, and seeded random delivery-heavy
/// schedules.
pub fn schedules(extra_random: u64) -> Vec<Vec<Move>> {
    let (d10, d01) = (
        Move::Deliver {
            from: p1(),
            to: p0(),
        },
        Move::Deliver {
            from: p0(),
            to: p1(),
        },
    );
    let mut all = vec![
        Vec::new(),
        vec![
            Move::Activate(p0()),
            d10,
            Move::Activate(p1()),
            d10,
            d01,
            d10,
        ],
    ];
    for seed in 0..extra_random {
        let mut rng = SimRng::seed_from(seed);
        all.push(
            (0..24)
                .map(|_| match rng.gen_range(0..6) {
                    0 => Move::Activate(p0()),
                    1 => Move::Activate(p1()),
                    2 | 3 => d10,
                    _ => d01,
                })
                .collect(),
        );
    }
    all
}

/// Runs one adversarial 2-process configuration over flag domain
/// `{0..max}` under one adversarial schedule prefix; returns `true` if the
/// started wave violated Specification 1 — the peer answered a forged
/// broadcast, or the initiator decided on a feedback that does not belong
/// to its own broadcast (the violations the five-valued flag exists to
/// prevent).
pub fn forged_decision(
    max: u8,
    msg_qp: (u8, u8),
    msg_pq: (u8, u8),
    ns_q: u8,
    state_q: u8,
    req_q: RequestState,
    script: &[Move],
) -> bool {
    const FORGED: u32 = 666;
    let domain = FlagDomain::with_max(max);
    let mk = |i: usize| {
        PifProcess::with_domain(
            ProcessId::new(i),
            2,
            0u32,
            0u32,
            domain,
            Answer(100 + i as u32),
        )
    };
    let network = NetworkBuilder::new(2)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(vec![mk(0), mk(1)], network, RoundRobin::new(), 0);

    {
        let q = runner.process_mut(p1());
        let mut s = q.core().snapshot();
        s.neig_state[0] = Flag::new(ns_q);
        s.state[0] = Flag::new(state_q);
        s.request = req_q;
        q.core_mut().restore(s);
    }
    let forge = |(ss, es): (u8, u8)| PifMsg {
        broadcast: FORGED,
        feedback: FORGED,
        sender_state: Flag::new(ss),
        echoed_state: Flag::new(es),
    };
    runner
        .network_mut()
        .channel_mut(p1(), p0())
        .unwrap()
        .preload([forge(msg_qp)]);
    runner
        .network_mut()
        .channel_mut(p0(), p1())
        .unwrap()
        .preload([forge(msg_pq)]);

    runner.mark(p0(), "request");
    let req_step = runner.step_count();
    runner.process_mut(p0()).request_broadcast(7);
    for &mv in script {
        let applicable = match mv {
            Move::Activate(p) => runner.process(p).has_enabled_action(),
            Move::Deliver { from, to } => !runner
                .network()
                .channel(from, to)
                .expect("valid link")
                .is_empty(),
        };
        if applicable {
            runner
                .execute_move(mv)
                .expect("applicable move cannot error");
        }
    }
    runner
        .run_until(500_000, |r| r.process(p0()).request() == RequestState::Done)
        .expect("wave must decide");

    // The full Specification 1 verdict: q must have answered THE broadcast
    // (data 7), and the decision must rest on exactly q's genuine feedback.
    let verdict =
        snapstab_core::spec::check_bare_pif_wave(runner.trace(), p0(), 2, req_step, &7u32, |_| {
            101u32
        });
    let _ = FORGED;
    !verdict.holds()
}

/// A1: counts forged-decision adversary configurations for one flag
/// domain. `stride > 1` samples the space.
pub fn count_forged(max: u8, stride: usize) -> (usize, usize) {
    let reqs = [RequestState::Wait, RequestState::In, RequestState::Done];
    let vals = 0..=max;
    let mut violations = 0usize;
    let mut total = 0usize;
    let mut idx = 0usize;
    for s1 in vals.clone() {
        for e1 in vals.clone() {
            for s2 in vals.clone() {
                for e2 in vals.clone() {
                    for ns in vals.clone() {
                        for sq in [0, max / 2, max] {
                            for rq in reqs {
                                idx += 1;
                                if !idx.is_multiple_of(stride) {
                                    continue;
                                }
                                total += 1;
                                let any = schedules(3).iter().any(|script| {
                                    forged_decision(max, (s1, e1), (s2, e2), ns, sq, rq, script)
                                });
                                if any {
                                    violations += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (violations, total)
}

/// A2: one run of the mutual-exclusion protocol in the given value-mode;
/// returns `(requests served, leader's final Value, n)`.
pub fn value_mode_trial(mode: ValueMode, seed: u64) -> (usize, usize, usize) {
    let n = 3;
    let config = MeConfig {
        cs_duration: 0,
        value_mode: mode,
        ..MeConfig::default()
    };
    // Ascending ids: process 0 is the leader.
    let processes: Vec<MeProcess> = (0..n)
        .map(|i| MeProcess::with_config(ProcessId::new(i), n, 10 + i as u64, config))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RoundRobin::new(), seed);

    // Warm-up: let the favour pointer rotate (in literal mode it reaches
    // the dead value n and sticks).
    runner.run_steps(60_000).expect("run cannot error");
    // Now everyone requests.
    let mut requested = 0;
    for i in 0..n {
        if runner.process_mut(ProcessId::new(i)).request_cs() {
            requested += 1;
        }
    }
    assert_eq!(requested, n, "warmed-up processes accept requests");
    runner.run_steps(400_000).expect("run cannot error");
    let served = (0..n)
        .filter(|&i| runner.process(ProcessId::new(i)).request() == RequestState::Done)
        .count();
    (served, runner.process(ProcessId::new(0)).value(), n)
}

/// Runs A1 + A2 and renders the report.
pub fn run(fast: bool) -> String {
    let mut out = String::new();
    out.push_str("=== A1: flag-domain minimality (Algorithm 1 over {0..m}) ===\n\n");
    let stride = if fast { 11 } else { 1 };
    let mut t = Table::new(&[
        "m (domain size m+1)",
        "adversary configs",
        "forged decisions",
        "safe",
    ]);
    let mut boundary_ok = true;
    for m in 1..=6u8 {
        let (viol, total) = count_forged(m, stride);
        let safe = viol == 0;
        boundary_ok &= if m < 4 { !safe } else { safe };
        t.row(&[
            format!("{m} ({})", m + 1),
            total.to_string(),
            viol.to_string(),
            safe.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nverdict: domains smaller than the paper's five values admit forged decisions; \
         five values (m = 4) and above are safe — boundary exactly at the paper's choice: {}\n\n",
        if boundary_ok {
            "CONFIRMED"
        } else {
            "NOT CONFIRMED"
        }
    ));

    out.push_str("=== A2: the `mod (n+1)` erratum (Algorithm 3, n = 3) ===\n\n");
    let mut t = Table::new(&[
        "value arithmetic",
        "requests served",
        "leader final Value",
        "livelocked",
    ]);
    for (label, mode) in [
        ("corrected: mod n", ValueMode::Corrected),
        ("paper literal: mod (n+1)", ValueMode::PaperLiteral),
    ] {
        let (served, value, n) = value_mode_trial(mode, 5);
        t.row(&[
            label.to_string(),
            format!("{served}/{n}"),
            value.to_string(),
            (value == n).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nverdict: the literal mod (n+1) drives the leader's Value to the dead value n \
         (favours nobody) and requests starve; the corrected mod n serves everyone — \
         supporting the erratum reading (deviation D2).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_domain_admits_no_forged_decision_sampled() {
        let (viol, total) = count_forged(4, 17);
        assert!(total > 20);
        assert_eq!(viol, 0, "m = 4 must be safe");
    }

    #[test]
    fn small_domains_admit_forged_decisions() {
        for m in [1u8, 2, 3] {
            let (viol, _) = count_forged(m, 5);
            assert!(viol > 0, "m = {m} must be unsafe");
        }
    }

    #[test]
    fn literal_mode_livelocks_and_corrected_serves() {
        let (served_ok, _, n) = value_mode_trial(ValueMode::Corrected, 1);
        assert_eq!(served_ok, n, "corrected arithmetic serves everyone");
        let (served_bad, value, n) = value_mode_trial(ValueMode::PaperLiteral, 1);
        assert_eq!(value, n, "literal arithmetic reaches the dead value");
        assert_eq!(served_bad, 0, "literal arithmetic starves requests");
    }
}
