//! Benchmarks of the structural analyses (§ III), including the
//! simulation-vs-SAT comparator-identification ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use fall::structural::{find_candidates, find_comparators, find_comparators_sat};
use locking::{LockingScheme, SfllHd};
use netlist::random::{generate, RandomCircuitSpec};
use std::time::Duration;

fn bench_structural(c: &mut Criterion) {
    let mut group = c.benchmark_group("structural_analyses");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let original = generate(&RandomCircuitSpec::new("struct_bench", 24, 6, 300));
    let locked = SfllHd::new(16, 2)
        .with_seed(1)
        .lock(&original)
        .expect("lock")
        .optimized();
    let netlist = &locked.locked;

    group.bench_function("comparator_id_simulation", |b| {
        b.iter(|| find_comparators(netlist))
    });
    group.bench_function("comparator_id_sat_ablation", |b| {
        b.iter(|| find_comparators_sat(netlist))
    });

    let comparators = find_comparators(netlist);
    group.bench_function("support_set_matching", |b| {
        b.iter(|| find_candidates(netlist, &comparators))
    });

    group.finish();
}

criterion_group!(benches, bench_structural);
criterion_main!(benches);
