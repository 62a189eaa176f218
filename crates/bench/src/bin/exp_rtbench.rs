//! Q6 — live-runtime service throughput: measures every section of
//! `rtbench::SCHEMA` (baseline, sharded, udp, forwarding, chaos,
//! observability, mux), prints them as tables and writes
//! `BENCH_RUNTIME.json` so future PRs have a live-path trajectory to
//! compare against.
//!
//! Before writing, the emitted JSON is parsed back through the schema
//! and emitted again (`row::validate_roundtrip`): a document that does
//! not re-emit to the same bytes fails the binary with exit code 1
//! instead of landing in the committed artifact. A full run that leaves
//! any section empty (UDP sockets refused, say) also exits 1 without
//! writing: an empty array round-trips, and would silently erase the
//! committed rows.
//!
//! Usage: `exp_rtbench [--fast|--quick] [--json PATH]` (default PATH:
//! `BENCH_RUNTIME.json` in the current directory).

use snapstab_bench::experiments::rtbench;
use snapstab_bench::row;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = snapstab_bench::is_fast(&args) || args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_RUNTIME.json".to_string());

    let sections = rtbench::sweeps(fast);
    print!("{}", rtbench::render(&sections));
    let schema = &rtbench::SCHEMA;
    let hollow = schema
        .sections
        .iter()
        .zip(&sections)
        .find(|(_, r)| r.is_empty());
    if let Some((section, _)) = hollow.filter(|_| !fast) {
        eprintln!(
            "\n`{}` section is empty — not writing {json_path}: a full run must measure every section",
            section.key
        );
        std::process::exit(1);
    }
    let json = row::to_json(schema, &sections);
    if let Err(e) = row::validate_roundtrip(schema, &json) {
        eprintln!("\nschema validation FAILED — not writing {json_path}: {e}");
        std::process::exit(1);
    }
    println!("\nschema validation: JSON re-emits byte for byte through the bench's own parser");
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
