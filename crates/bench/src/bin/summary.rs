//! Regenerates the § VI-B headline numbers: how many of the 80 locked
//! circuits the FALL attack defeats, and for how many it shortlists exactly
//! one key (oracle-less success).
//!
//! Usage:
//! `cargo run -p fall-bench --release --bin summary [--full] [--circuits N] [--timeout SECS]`

use std::time::Duration;

use fall_bench::{
    format_headline, headline, AttackRecord, HdPolicy, LockCase, PaperFlags, Runner, RunnerConfig,
    TABLE1_CIRCUITS,
};

fn main() {
    let flags = PaperFlags::from_env(&["--full", "--circuits", "--timeout"]);
    let scale = flags.scale();
    let limit = flags.circuits.unwrap_or(TABLE1_CIRCUITS.len());
    let timeout = flags.timeout.unwrap_or(Duration::from_secs(5));

    let runner = Runner::new(RunnerConfig {
        time_limit: timeout,
        validation_samples: 128,
    });
    let specs = &TABLE1_CIRCUITS[..limit.min(TABLE1_CIRCUITS.len())];
    eprintln!(
        "Summary: {} circuits x 4 policies = {} locked instances at {:?} scale",
        specs.len(),
        specs.len() * 4,
        scale
    );

    let mut records: Vec<AttackRecord> = Vec::new();
    for spec in specs {
        for policy in HdPolicy::all() {
            let case = LockCase::build(spec, policy, scale);
            let record = runner.run_combined_fall(&case);
            eprintln!(
                "  {:<8} h={:<2} keys={:<2} defeated={} unique={} shortlisted={} {:.2}s",
                spec.name,
                case.h,
                case.keys,
                record.defeated,
                record.unique_key,
                record.shortlisted,
                record.elapsed.as_secs_f64()
            );
            records.push(record);
        }
    }
    println!("SECTION VI-B headline numbers (scaled suite)");
    println!("{}", format_headline(&headline(&records)));
}
