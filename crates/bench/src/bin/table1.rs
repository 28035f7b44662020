//! Regenerates Table I: benchmark circuits with original and SFLL-locked gate
//! counts.
//!
//! Usage: `cargo run -p fall-bench --release --bin table1 [--full] [--circuits N]`

use fall_bench::{format_table1, table1_rows, PaperFlags, TABLE1_CIRCUITS};

fn main() {
    let flags = PaperFlags::from_env(&["--full", "--circuits"]);
    let scale = flags.scale();
    let limit = flags.circuits.unwrap_or(TABLE1_CIRCUITS.len());

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
