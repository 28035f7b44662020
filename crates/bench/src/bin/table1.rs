//! Regenerates Table I: benchmark circuits with original and SFLL-locked gate
//! counts.
//!
//! Usage: `cargo run -p fall-bench --release --bin table1 [--full] [--circuits N]`

use fall_bench::{format_table1, table1_rows, Scale, TABLE1_CIRCUITS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Paper
    } else {
        Scale::Scaled
    };
    let limit = args
        .iter()
        .position(|a| a == "--circuits")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(TABLE1_CIRCUITS.len());

    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Building Table I for {} circuits at {:?} scale (pass --full for paper sizes)...",
        specs.len(),
        scale
    );
    let rows = table1_rows(specs, scale);
    println!("TABLE I: Benchmark circuits (substituted, see netlist::random)");
    println!("{}", format_table1(&rows));
}
