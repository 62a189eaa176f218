//! Q6 — live-runtime service throughput sweeps (single-leader mutex
//! baseline + sharded/batched + in-memory-vs-UDP transport comparison +
//! the snap-stabilizing forwarding service + the chaos-engine recovery
//! sweep + the snapshot-monitor observability overhead pairs + the
//! n ≥ 256 scale rows); writes
//! `BENCH_RUNTIME.json` so future PRs have a live-path trajectory to
//! compare against.
//!
//! Before writing, the emitted JSON is parsed back through the bench's
//! own schema (`rtbench::validate_roundtrip`): a missing, renamed or
//! re-typed field fails the binary with exit code 1 instead of landing in
//! the committed artifact.
//!
//! Usage: `exp_rtbench [--fast|--quick] [--json PATH]` (default PATH:
//! `BENCH_RUNTIME.json` in the current directory).

use snapstab_bench::experiments::rtbench;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = snapstab_bench::is_fast(&args) || args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_RUNTIME.json".to_string());

    let baseline = rtbench::sweep(fast);
    let sharded = rtbench::sweep_sharded(fast);
    let udp = rtbench::sweep_udp(fast);
    let forwarding = rtbench::sweep_forwarding(fast);
    let chaos = rtbench::sweep_chaos(fast);
    let observability = rtbench::sweep_observability(fast);
    let mux = rtbench::sweep_mux(fast);
    if !fast && udp.is_empty() {
        // A sandbox without sockets cannot measure the udp sweep; writing
        // would silently erase the committed rows (the schema requires
        // the array, and an empty one round-trips). Refuse, like drift.
        eprintln!("\nudp sweep unavailable — not writing {json_path}: a full run must measure it");
        std::process::exit(1);
    }

    print!(
        "{}",
        rtbench::render(
            &baseline,
            &sharded,
            &udp,
            &forwarding,
            &chaos,
            &observability,
            &mux
        )
    );
    let json = rtbench::to_json(
        &baseline,
        &sharded,
        &udp,
        &forwarding,
        &chaos,
        &observability,
        &mux,
    );
    if let Err(e) = rtbench::validate_roundtrip(
        &json,
        &baseline,
        &sharded,
        &udp,
        &forwarding,
        &chaos,
        &observability,
        &mux,
    ) {
        eprintln!("\nschema validation FAILED — not writing {json_path}: {e}");
        std::process::exit(1);
    }
    println!("\nschema validation: JSON round-trips through the bench's own parser");
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
