//! Q5 — step-loop throughput sweep; writes `BENCH_STEPLOOP.json` so future
//! PRs have a wall-time-per-step trajectory to compare against.
//!
//! Usage: `exp_stepbench [--fast] [--json PATH]` (default PATH:
//! `BENCH_STEPLOOP.json` in the current directory).

use snapstab_bench::experiments::stepbench;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = snapstab_bench::is_fast(&args);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_STEPLOOP.json".to_string());

    let results = stepbench::sweep(fast);
    print!("{}", stepbench::render(&results));
    let json = stepbench::to_json(&results);
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }
}
