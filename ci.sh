#!/usr/bin/env bash
# Local CI gate for the FALL attacks reproduction.
#
# Usage: ./ci.sh [--quick|--bench-smoke]
#   --quick        skip the release build (format/lint/test only)
#   --bench-smoke  run ONLY the benchmark smoke suite: build the bench
#                  harness in release mode, run the trimmed parallel-engine
#                  workloads plus a pipes-mode fall-dist farm smoke (clean
#                  2-worker run and a crash-requeue run, gating the
#                  dist_* counters and the dist_worker_stats_reports
#                  telemetry count) and a flight-recorder-armed SAT attack
#                  (gating the trace_* span counts and exporting the Chrome
#                  trace to BENCH_trace.json), write BENCH_parallel.json,
#                  and fail if any tracked metric regresses >20% against the
#                  checked-in baseline
#                  (crates/bench/baseline/BENCH_parallel.json — the one
#                  canonical copy; the root BENCH_parallel.json is this
#                  run's gitignored output artifact).
#                  Regenerate the baseline with:
#                    cargo run --release -p fall-bench --bin bench_smoke -- --write-baseline
#
# Everything runs offline: external dependencies are vendored as local
# API-compatible stand-ins under crates/compat/ (see crates/compat/README.md).

set -euo pipefail
cd "$(dirname "$0")"

quick=0
bench_smoke=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --bench-smoke) bench_smoke=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

if [ "$bench_smoke" -eq 1 ]; then
    echo "==> cargo run --release -p fall-bench --bin bench_smoke"
    cargo run --release -p fall-bench --bin bench_smoke -- \
        --baseline crates/bench/baseline/BENCH_parallel.json \
        --out BENCH_parallel.json \
        --trace-out BENCH_trace.json
    echo "BENCH SMOKE OK"
    exit 0
fi

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: rustdoc must build warning-free (broken intra-doc
# links, bad code fences, missing docs on public items all fail the build).
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The runnable walkthroughs under examples/ must keep compiling; they are
# documentation too (quickstart, serve_client, ...).
echo "==> cargo build --examples"
cargo build --examples

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release

    # The benchmark (fallperf/, see BENCHMARK.json) is a package of its own
    # outside the workspace, so the builds above never compile it; build it
    # here so a library API change cannot break the benchmark unseen.
    echo "==> cargo build --release --offline --manifest-path fallperf/Cargo.toml"
    cargo build --release --offline --manifest-path fallperf/Cargo.toml

    # The benchmark's own self-checks on a short traced fall_grid run:
    # same-seed rebuilds, exact counters on a re-run, validated keys, and a
    # stage-by-stage traced run that must agree with `fall_attack`.  The
    # result line is the last line of stdout and must report
    # `"correct": true`.
    echo "==> fallperf --workload fall_grid --seed 1 --seconds 1 --trace 1"
    fallperf_result=$(cargo run --release --offline --quiet \
        --manifest-path fallperf/Cargo.toml -- \
        --workload fall_grid --seed 1 --seconds 1 --trace 1 | tail -n 1)
    case "$fallperf_result" in
        *'"correct": true'*) ;;
        *)
            echo "fallperf fall_grid self-check failed: $fallperf_result" >&2
            exit 1
            ;;
    esac

    # The paper binaries are the only home of the Table I and Fig. 5/6
    # measurements: run each on a trimmed grid, then check that a
    # misspelled flag is refused (exit status 2) rather than ignored.
    echo "==> paper binaries: table1, summary, fig5, fig6 (trimmed)"
    cargo run --release -q -p fall-bench --bin table1 -- --circuits 2
    cargo run --release -q -p fall-bench --bin summary -- --circuits 1 --timeout 1
    cargo run --release -q -p fall-bench --bin fig5 -- --circuits 1 --timeout 1
    cargo run --release -q -p fall-bench --bin fig6 -- --circuits 1 --timeout 1
    bad_flag_status=0
    cargo run --release -q -p fall-bench --bin fig6 -- --timout 1 2>/dev/null ||
        bad_flag_status=$?
    if [ "$bad_flag_status" -ne 2 ]; then
        echo "fig6 --timout 1 exited $bad_flag_status, expected 2 (unknown flag)" >&2
        exit 1
    fi
fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The frame-scoped-predicate correctness story: the differential + property
# suites proving a recycled per-worker session is observationally equivalent
# to a fresh session per region.  Part of the workspace run above; re-run
# explicitly so a failure is attributed to the session-reuse machinery.
echo "==> cargo test -q --test session_reuse --test parallel_engine"
cargo test -q --test session_reuse --test parallel_engine

# The clause-arena and inprocessing correctness story: GC forced at every
# conflict must be status-identical to GC disabled, bounded variable
# elimination forced at every simplify checkpoint must be status-identical to
# elimination disabled (with reconstructed models satisfying the original
# clauses), and 100 retired predicate generations must hold variable count
# and arena bytes flat.  Also part of the workspace run; re-run explicitly so
# a failure is attributed to the arena/GC/eliminator machinery.
echo "==> cargo test -q --test gc_differential"
cargo test -q --test gc_differential

# The modern-CDCL-core unit story: LBD tier accounting, EMA restart
# forcing/blocking, adaptive strategy classification and the eliminator's
# freeze/resurrect/model-reconstruction invariants live in the sat crate's
# unit tests; re-run them explicitly so a failure is attributed to the
# solver core rather than an attack-level suite.
echo "==> cargo test -q -p sat --lib"
cargo test -q -p sat --lib

# The wide-simulation correctness story: the W-word blocked engine must match
# the scalar reference bit for bit for W in {1,2,4,8}, and the batched oracle
# transport must leave the attack trajectory untouched.
# Also part of the workspace run; re-run explicitly so a failure is
# attributed to the wide-sim machinery.
echo "==> cargo test -q --test wide_sim"
cargo test -q --test wide_sim

# The distributed-farm correctness story: pipes and TCP farms recover the
# serial key with bounded cross-process oracle traffic, a SIGKILLed or hung
# worker's lease requeues and a survivor finishes, and drain-all counters
# reproduce exactly. Also part of the workspace run; re-run explicitly so a
# failure is attributed to the fall-dist supervisor/worker machinery.
echo "==> cargo test -q -p fall-dist --test farm"
cargo test -q -p fall-dist --test farm

# The observability story: a flight-recorder-armed SAT attack must export a
# structurally valid Chrome trace document (parsed back through netshim:
# complete events only, non-negative timestamps, per-thread spans properly
# nested) whose span counts match the attack's own iteration/query counters,
# an armed oracle-less FALL attack must record its cone solves as "solve"
# spans, and a disabled recorder must record nothing. Also part of the workspace
# run; re-run explicitly so a failure is attributed to the tracing layer.
echo "==> cargo test -q -p fall-bench --test trace_validate"
cargo test -q -p fall-bench --test trace_validate

echo "CI OK"
