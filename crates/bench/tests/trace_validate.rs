//! Structural validation of the flight recorder's Chrome trace export: a
//! small SAT attack and a small oracle-less FALL attack run with tracing
//! armed, and each resulting document must be valid JSON in the trace-event
//! dialect Perfetto loads — complete (`X`) events with non-negative
//! timestamps, and per-thread spans that nest properly.  This is the trace
//! half of the CI observability gate (`ci.sh` runs this test explicitly); the
//! metric half is bench_smoke's baseline.
//!
//! Tracing state is process-global, so this lives in its own integration
//! test binary: no other test can enable the recorder or record spans while
//! this one measures.

use std::collections::BTreeMap;

use fall::attack::{fall_attack, FallAttackConfig};
use fall::oracle::SimOracle;
use fall::sat_attack::{sat_attack, SatAttackConfig};
use fall::trace;
use locking::{LockingScheme, TtLock, XorLock};
use netlist::random::{generate, RandomCircuitSpec};
use netshim::Value;

// One test function, not several: the recorder is process-global, and the
// disabled-stays-empty check below must not race an armed run on another
// test thread.
#[test]
fn chrome_trace_export_is_structurally_valid() {
    let original = generate(&RandomCircuitSpec::new("trace_validate", 12, 3, 100));
    let locked = XorLock::new(8).with_seed(3).lock(&original).expect("lock");
    let oracle = SimOracle::new(original);

    // The zero-perturbation contract's observable half: with the recorder
    // off (the default), running an attack records nothing at all.
    let untraced = sat_attack(&locked.locked, &oracle, &SatAttackConfig::default());
    assert!(untraced.is_success());
    assert_eq!(trace::phase_count("dip_iteration"), 0);
    assert!(trace::events().is_empty());

    trace::reset();
    trace::set_enabled(true);
    let result = sat_attack(&locked.locked, &oracle, &SatAttackConfig::default());
    trace::set_enabled(false);
    assert!(result.is_success(), "attack under tracing succeeds");
    assert_eq!(trace::events_dropped(), 0, "ring must not overflow");

    let by_tid = exported_spans();
    // The attack's phase structure survives the export: one span per DIP
    // round plus the final UNSAT round, one per oracle query, and the
    // solver's "solve" spans are all present.
    let count = |wanted: &str| {
        by_tid
            .values()
            .flatten()
            .filter(|(_, _, name)| name == wanted)
            .count()
    };
    assert_eq!(count("dip_iteration"), result.iterations + 1);
    assert_eq!(count("oracle_query"), result.oracle_queries);
    assert!(count("solve") > 0);
    assert_nested(by_tid);

    // The FALL attack's functional analyses and equivalence checks solve
    // through the session's cone queries, which carry "solve" spans too.
    let original = generate(&RandomCircuitSpec::new("trace_fall", 14, 3, 90));
    let locked = TtLock::new(8)
        .with_seed(12)
        .lock(&original)
        .expect("lock")
        .optimized();
    trace::reset();
    trace::set_enabled(true);
    let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
    trace::set_enabled(false);
    assert_eq!(result.best_key(), Some(&locked.key), "{result:?}");
    assert!(trace::phase_count("solve") > 0, "cone solves are traced");
    assert_eq!(trace::events_dropped(), 0, "ring must not overflow");
    assert_nested(exported_spans());
}

/// Parses the recorder's Chrome trace export and returns its spans as
/// `(ts, dur, name)` per thread id, checking each event's shape on the way.
fn exported_spans() -> BTreeMap<u64, Vec<(u64, u64, String)>> {
    let json = trace::chrome_trace_json();
    let document = Value::parse(&json).expect("trace is valid JSON");
    assert_eq!(
        document.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = document
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "the traced attack recorded events");

    // Every event is a complete ("X") event with the members Perfetto needs;
    // `as_u64` succeeding doubles as the non-negativity check.
    let mut by_tid: BTreeMap<u64, Vec<(u64, u64, String)>> = BTreeMap::new();
    for event in events {
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .expect("event name");
        assert_eq!(
            event.get("ph").and_then(Value::as_str),
            Some("X"),
            "complete events only: {event}"
        );
        assert_eq!(event.get("pid").and_then(Value::as_u64), Some(1));
        let tid = event.get("tid").and_then(Value::as_u64).expect("tid");
        let ts = event
            .get("ts")
            .and_then(Value::as_u64)
            .expect("non-negative ts");
        let dur = event
            .get("dur")
            .and_then(Value::as_u64)
            .expect("non-negative dur");
        by_tid
            .entry(tid)
            .or_default()
            .push((ts, dur, name.to_string()));
    }

    by_tid
}

/// Asserts that per-thread spans nest.
fn assert_nested(mut by_tid: BTreeMap<u64, Vec<(u64, u64, String)>>) {
    // Per-thread spans must nest: sorted by start (ties: longest first),
    // each span either starts after the enclosing one ended or lies inside
    // it.  Checkpoint events are backdated from durations the solver
    // measured itself, so a couple of microseconds of rounding slack is
    // allowed; anything beyond that is a genuine mis-nesting.
    const SLACK_US: u64 = 2;
    for (tid, spans) in &mut by_tid {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64, &str)> = Vec::new();
        for (ts, dur, name) in spans.iter() {
            let end = ts + dur;
            while let Some(&(_, open_end, _)) = stack.last() {
                if *ts >= open_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_ts, open_end, open_name)) = stack.last() {
                assert!(
                    *ts + SLACK_US >= open_ts && end <= open_end + SLACK_US,
                    "span {name} [{ts}, {end}) on tid {tid} overlaps \
                     {open_name} [{open_ts}, {open_end}) without nesting"
                );
            }
            stack.push((*ts, end, name));
        }
    }
}
