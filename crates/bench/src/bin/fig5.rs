//! Regenerates Figure 5: execution time vs number of benchmarks solved for
//! the circuit analyses (AnalyzeUnateness / SlidingWindow / Distance2H) and
//! the SAT attack, one panel per Hamming-distance policy.
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin fig5 [--full] [--circuits N] [--timeout SECS] [--skip-sat]`

use std::time::Duration;

use fall::functional::Analysis;
use fall_bench::{
    format_fig5, AttackRecord, HdPolicy, LockCase, PaperFlags, Runner, RunnerConfig,
    TABLE1_CIRCUITS,
};

fn main() {
    let flags = PaperFlags::from_env(&["--full", "--circuits", "--timeout", "--skip-sat"]);
    let scale = flags.scale();
    let skip_sat = flags.skip_sat;
    let limit = flags.circuits.unwrap_or(6);
    let timeout = flags.timeout.unwrap_or(Duration::from_secs(3));

    let runner = Runner::new(RunnerConfig {
        time_limit: timeout,
        validation_samples: 128,
    });
    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Figure 5: {} circuits x 4 Hamming-distance policies at {:?} scale, {:?} per attack",
        specs.len(),
        scale,
        timeout
    );

    for policy in HdPolicy::all() {
        let mut records: Vec<AttackRecord> = Vec::new();
        for spec in specs {
            let case = LockCase::build(spec, policy, scale);
            eprintln!("  [{}] {} (h = {})", policy.label(), spec.name, case.h);
            match policy {
                HdPolicy::Zero => {
                    records.push(runner.run_fall(&case, Analysis::Unateness));
                }
                _ => {
                    if 4 * case.h <= case.keys {
                        records.push(runner.run_fall(&case, Analysis::Distance2H));
                    }
                    if 2 * case.h < case.keys {
                        records.push(runner.run_fall(&case, Analysis::SlidingWindow));
                    }
                }
            }
            if !skip_sat {
                records.push(runner.run_sat_attack(&case));
            }
        }
        println!("{}", format_fig5(policy.label(), &records));
    }
}
