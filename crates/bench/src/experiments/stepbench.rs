//! **Q5 — raw step-loop throughput of the simulator.**
//!
//! Drives a sustained IDs-Learning workload (the initiator re-requests a
//! wave whenever the previous one decides) with trace recording off, and
//! reports wall-clock nanoseconds per atomic step at several system sizes.
//! The numbers are the repo's performance trajectory: every PR that touches
//! the step loop reruns this and compares against the committed
//! `BENCH_STEPLOOP.json`.

use std::time::Instant;

use snapstab_core::idl::IdlProcess;
use snapstab_sim::{Capacity, NetworkBuilder, ProcessId, RoundRobin, Runner};

use crate::row::{self, Field, Kind, Row, Schema, Section};

/// The schema of `BENCH_STEPLOOP.json`: one row per system size.
pub const SCHEMA: Schema = Schema {
    experiment: "step_loop_throughput",
    unit: "ns_per_step",
    sections: &[Section {
        key: "results",
        title: "step-loop throughput (trace recording off)",
        fields: &[
            Field::col("n", Kind::Int, "n"),
            Field::col("steps", Kind::Int, "steps"),
            Field::col("wall_ns", Kind::Nanos, "wall ms"),
            Field::col("ns_per_step", Kind::Real(Some(2)), "ns/step"),
        ],
    }],
    total_served: false,
};

/// Runs `target_steps` atomic steps of a sustained IDL workload at size
/// `n` (trace recording off) and measures the wall time per step.
pub fn measure(n: usize, target_steps: u64, seed: u64) -> Row {
    let processes: Vec<IdlProcess> = (0..n)
        .map(|i| IdlProcess::new(ProcessId::new(i), n, 10 + i as u64))
        .collect();
    let network = NetworkBuilder::new(n)
        .capacity(Capacity::Bounded(1))
        .build();
    let mut runner = Runner::new(processes, network, RoundRobin::new(), seed);
    runner.set_record_trace(false);
    let initiator = ProcessId::new(0);
    runner.process_mut(initiator).request_learning();

    let chunk = 4_096u64.min(target_steps.max(1));
    let mut executed = 0u64;
    let start = Instant::now();
    while executed < target_steps {
        let out = runner
            .run_steps(chunk.min(target_steps - executed))
            .expect("step loop runs");
        executed += out.steps;
        if out.steps == 0 {
            // Quiescent: the wave decided — start the next one to keep the
            // workload sustained. If re-arming fails the workload is stuck;
            // stop rather than spin.
            if !runner.process_mut(initiator).request_learning() {
                break;
            }
        }
    }
    let wall = start.elapsed();
    Row::default()
        .with("n", n)
        .with("steps", executed)
        .with("wall_ns", wall)
        .with(
            "ns_per_step",
            wall.as_nanos() as f64 / executed.max(1) as f64,
        )
}

/// Runs the sweep at the standard sizes. The `n = 512` point exists to
/// watch the delta-based link resync: before it, every step that moved
/// the live-link version paid an O(live links) copy, which dominates at
/// this size.
pub fn sweep(fast: bool) -> Vec<Row> {
    let sizes: &[usize] = if fast { &[8, 32] } else { &[8, 32, 128, 512] };
    let steps = if fast { 50_000 } else { 400_000 };
    sizes.iter().map(|&n| measure(n, steps, 0xBEE5)).collect()
}

/// Renders already-measured results as the repo's standard ASCII table.
pub fn render(results: &[Row]) -> String {
    format!(
        "=== Q5: step-loop throughput ===\n{}",
        row::render(&SCHEMA, &[results.to_vec()])
    )
}

/// The sweep as a JSON document, shaped for trajectory comparison
/// across PRs.
pub fn to_json(results: &[Row]) -> String {
    row::to_json(&SCHEMA, &[results.to_vec()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_executes_requested_steps() {
        let c = measure(4, 2_000, 1);
        assert_eq!(c.int("n"), 4);
        assert!(
            c.int("steps") >= 2_000,
            "sustained workload should fill the budget, got {}",
            c.int("steps")
        );
        assert!(c.int("wall_ns") > 0);
        assert!(c.real("ns_per_step") > 0.0);
    }

    #[test]
    fn json_shape() {
        let row = Row::default()
            .with("n", 8usize)
            .with("steps", 100u64)
            .with("wall_ns", 1000u64)
            .with("ns_per_step", 10.0);
        let j = to_json(&[row]);
        assert!(j.contains(
            "    {\"n\": 8, \"steps\": 100, \"wall_ns\": 1000, \"ns_per_step\": 10.00}\n  ]\n}\n"
        ));
        assert!(j.contains("step_loop_throughput"));
        row::validate_roundtrip(&SCHEMA, &j).expect("round-trips");
    }
}
