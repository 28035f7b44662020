//! Regenerates Figure 6: mean execution time of key confirmation vs the SAT
//! attack for every benchmark circuit.
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin fig6 [--full] [--circuits N] [--timeout SECS]`

use std::time::Duration;

use fall_bench::{
    fig6_rows, format_fig6, AttackRecord, HdPolicy, LockCase, PaperFlags, Runner, RunnerConfig,
    TABLE1_CIRCUITS,
};

fn main() {
    let flags = PaperFlags::from_env(&["--full", "--circuits", "--timeout"]);
    let scale = flags.scale();
    let limit = flags.circuits.unwrap_or(6);
    let timeout = flags.timeout.unwrap_or(Duration::from_secs(3));

    let runner = Runner::new(RunnerConfig {
        time_limit: timeout,
        validation_samples: 128,
    });
    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Figure 6: {} circuits, key confirmation vs SAT attack, {:?} per attack",
        specs.len(),
        timeout
    );

    let mut records: Vec<AttackRecord> = Vec::new();
    for spec in specs {
        // Mean over the locking policies, as in the paper ("mean execution
        // time ... for a particular circuit encoded with the various locking
        // algorithms and parameters").
        for policy in HdPolicy::all() {
            let case = LockCase::build(spec, policy, scale);
            eprintln!("  {} (h = {})", spec.name, case.h);
            records.push(runner.run_key_confirmation(&case));
            records.push(runner.run_sat_attack(&case));
        }
    }
    println!("FIGURE 6: mean execution times (log-scale in the paper)");
    println!("{}", format_fig6(&fig6_rows(&records)));
}
