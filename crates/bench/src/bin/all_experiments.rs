//! Runs the entire experiment suite (indexed in the `snapstab-bench`
//! crate docs) in order.
use snapstab_bench::experiments as ex;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = snapstab_bench::is_fast(&args);
    for (name, f) in [
        ("F1", ex::fig1::run as fn(bool) -> String),
        ("T1", ex::impossibility::run),
        ("T2+P1", ex::pif_props::run),
        ("T3", ex::idl_props::run),
        ("T4+L1", ex::me_props::run),
        ("Q1", ex::scaling::run),
        ("Q2", ex::loss::run),
        ("Q3", ex::naive::run),
        ("C1", ex::baseline::run),
        ("A1+A2", ex::ablation::run),
        ("A3", ex::capacity::run),
        ("MC1", ex::modelcheck::run),
        ("X2", ex::topology::run),
        ("S12", ex::apps::run),
    ] {
        eprintln!(">>> running {name} ...");
        println!("{}", f(fast));
    }
}
