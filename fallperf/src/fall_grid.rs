//! `fall_grid`: the oracle-guided FALL attack over a seeded grid of random
//! circuits locked with TTLock and SFLL-HDh at the paper's four h-policies
//! (0, m/8, m/4, m/3).  The functional analyses and their cone solves do
//! nearly all the work; DIP loops, the oracle and the service do none.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use fall::equivalence::candidate_equals_strip_in;
use fall::functional::{analyze_unateness_in, distance_2h_in, sliding_window_in, Analysis};
use fall::key_confirmation::key_confirmation_in;
use fall::structural::{find_candidates, find_comparators, CandidateNodes};
use fall::{
    fall_attack, AttackSession, FallAttackConfig, FallStatus, KeyConfirmationConfig, SimOracle,
};
use locking::{Key, LockedCircuit, LockingScheme, SfllHd, TtLock};
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;

use fall::trace::span;

use crate::common::{
    fingerprint, histogram_secs, judge, ratio, run_stream, sub_seed, time_setup, timed_setup,
    BenchOracle, Claim, Expectation, Tally, Verdict, Watchdog,
};
use crate::{Judged, LayerMetrics, Outcome, Run, TracedPhase};

/// Circuits in a seed's pool: more than a 30 s run gets through, so a run
/// measures distinct instances, and its medians stay steady from seed to
/// seed.
const CIRCUITS: usize = 48;
/// Key width m: between the scaled suite's 14 and the paper's 64.
const KEY_BITS: usize = 15;
/// The h of each lock of a circuit, one lock seed each: the paper's four
/// h-policies (h = 0 is TTLock, the rest SFLL-HDh), weighted so that the
/// median verdict sits mid-cluster among the h = m/8 locks and the p90 tail
/// mid-cluster among the h = m/3 ones, rather than on an edge between two
/// clusters of very different cost.
const POLICIES: [usize; 10] = [
    0,
    0,
    KEY_BITS / 8,
    KEY_BITS / 8,
    KEY_BITS / 8,
    KEY_BITS / 8,
    KEY_BITS / 8,
    KEY_BITS / 4,
    KEY_BITS / 3,
    KEY_BITS / 3,
];
const LOCKS_PER_CIRCUIT: usize = POLICIES.len();
const INPUTS: usize = 24;
const OUTPUTS: usize = 6;
const GATES: usize = 150;
/// Set-up repeats before the measured phase (and as many after it).
const SETUP_REPEATS: usize = 6;
/// The tail percentile: p90, over at least 100 verdicts, so at least 10
/// samples lie beyond it.
pub const TAIL_Q: f64 = 0.90;
const MIN_VERDICTS: usize = 100;
/// Per-verdict budget, enforced through `FallAttackConfig::interrupt` and
/// the confirmation time limit.
const BUDGET: Duration = Duration::from_secs(30);

struct Instance {
    circuit: LockedCircuit,
    h: usize,
}

/// The benchmark's spans around its calls into each layer.
const STRUCTURAL_SPAN: &str = "bench_structural";
const FUNCTIONAL_SPAN: &str = "bench_functional";
const EQUIVALENCE_SPAN: &str = "bench_equivalence";
const CONFIRMATION_SPAN: &str = "bench_confirmation";

/// A fresh counting oracle for one verdict, so the pool holds no third copy
/// of each netlist.
fn oracle(instance: &Instance) -> BenchOracle<SimOracle> {
    BenchOracle::new(SimOracle::new(instance.circuit.original.clone()))
}

fn build(seed: u64) -> Result<Vec<Instance>, String> {
    let mut instances = Vec::new();
    for c in 0..CIRCUITS {
        let spec = RandomCircuitSpec::new(format!("grid{c}"), INPUTS, OUTPUTS, GATES)
            .with_seed(sub_seed(seed, 1, c as u64));
        let original = generate(&spec);
        for (p, &h) in POLICIES.iter().enumerate() {
            let lock_seed = sub_seed(seed, 2, (c * LOCKS_PER_CIRCUIT + p) as u64);
            let locked = if h == 0 {
                TtLock::new(KEY_BITS).with_seed(lock_seed).lock(&original)
            } else {
                SfllHd::new(KEY_BITS, h)
                    .with_seed(lock_seed)
                    .lock(&original)
            }
            .map_err(|e| format!("locking grid circuit {c}: {e}"))?
            .optimized();
            instances.push(Instance { circuit: locked, h });
        }
    }
    Ok(instances)
}

/// The set-up: generating, locking and optimising the pool.
fn setup(seed: u64) -> Result<(Vec<Instance>, u64), String> {
    let instances = build(seed)?;
    let print = fingerprint(instances.iter().map(|i| &i.circuit));
    Ok((instances, print))
}

/// Sets up `seed`'s pool once and drops it: its fingerprint and set-up time.
pub fn fingerprint_of(seed: u64) -> Result<(u64, f64), String> {
    let (_, print, secs) = time_setup(|| setup(seed))?;
    Ok((print, secs))
}

/// The shortlist, verdict and exact counters two runs of one instance must
/// agree on, whichever way the stages were driven; empty (not compared) when
/// the budget cut the run short.
fn signature(
    interrupted: bool,
    status: FallStatus,
    shortlist: &[Key],
    best: Option<&Key>,
    prefilter: &fall::functional::PrefilterStats,
    candidates: usize,
    queries: u64,
) -> String {
    if interrupted {
        return String::new();
    }
    let keys: Vec<String> = shortlist.iter().map(ToString::to_string).collect();
    format!(
        "{status:?} shortlist={} best={} candidates={candidates} refuted={} patterns={} sweeps={} queries={queries}",
        keys.join(","),
        best.map_or("-".to_string(), ToString::to_string),
        prefilter.total_refuted(),
        prefilter.patterns_simulated,
        prefilter.sweeps,
    )
}

fn claim(status: FallStatus, best: Option<&Key>, interrupted: bool) -> Claim {
    match (status, best) {
        _ if interrupted => Claim::Failed("budget"),
        (_, Some(key)) => Claim::Key(key.clone()),
        (FallStatus::ConfirmationFailed, None) => Claim::NoKey,
        _ => Claim::Failed("no key found"),
    }
}

fn confirmation_config() -> KeyConfirmationConfig {
    KeyConfirmationConfig {
        time_limit: Some(BUDGET),
        ..KeyConfirmationConfig::default()
    }
}

/// One verdict through the public entry point, recorder off.
fn attack(index: usize, instance: &Instance, watchdog: &Watchdog) -> Verdict {
    let mut config = FallAttackConfig::for_h(instance.h);
    config.confirmation = confirmation_config();
    let oracle = oracle(instance);
    let start = Instant::now();
    let flag = watchdog.arm(BUDGET);
    config.interrupt = Some(flag.clone());
    let result = fall_attack(&instance.circuit.locked, Some(&oracle), &config);
    watchdog.disarm();
    let secs = start.elapsed().as_secs_f64();
    let interrupted = flag.load(Ordering::SeqCst);
    let queries = oracle.counts().queries;
    Verdict {
        instance: index,
        secs,
        claim: claim(result.status, result.best_key(), interrupted),
        unique: Some(result.shortlisted_keys.len() == 1),
        oracle_queries: queries,
        signature: signature(
            interrupted,
            result.status,
            &result.shortlisted_keys,
            result.best_key(),
            &result.prefilter,
            result.num_candidates,
            queries,
        ),
        tally: Tally::default(),
    }
}

/// Maps a cube over the protected inputs to a key through the comparator
/// pairing (what `fall_attack` does internally).
fn cube_to_key(
    locked: &Netlist,
    candidates: &CandidateNodes,
    cube: &[(netlist::NodeId, bool)],
) -> Option<Key> {
    let mut bits = vec![None; locked.num_key_inputs()];
    for (&input, &key_node) in candidates
        .protected_inputs
        .iter()
        .zip(&candidates.paired_keys)
    {
        let value = cube.iter().find(|&&(id, _)| id == input).map(|&(_, v)| v)?;
        bits[locked.key_input_position(key_node)?] = Some(value);
    }
    bits.into_iter()
        .collect::<Option<Vec<bool>>>()
        .map(Key::new)
}

/// One verdict with the stages driven one by one through their public
/// functions, each call inside a benchmark span, on a session the benchmark
/// owns.  Mirrors `fall_attack`'s serial sweep call for call, so it reaches
/// the same shortlist with the same solver trajectory.
fn staged_attack(index: usize, instance: &Instance, watchdog: &Watchdog) -> Verdict {
    let locked = &instance.circuit.locked;
    let h = instance.h;
    let oracle = oracle(instance);
    let mut tally = Tally::default();
    let start = Instant::now();
    let flag = watchdog.arm(BUDGET);
    let candidates = {
        let _span = span(STRUCTURAL_SPAN);
        let comparators = find_comparators(locked);
        find_candidates(locked, &comparators)
    };
    tally.add("structural.candidates", candidates.candidates.len() as f64);

    let mut shortlist: Vec<Key> = Vec::new();
    let mut status = FallStatus::NoCandidates;
    let mut best = None;
    let mut prefilter = fall::functional::PrefilterStats::default();
    if !candidates.candidates.is_empty()
        && candidates.key_width() > 0
        && candidates.paired_keys.len() == locked.num_key_inputs()
    {
        let mut session = AttackSession::new(locked);
        session.set_interrupt(Some(flag.clone()));
        let analyses = Analysis::applicable(h, candidates.key_width());
        'sweep: for &candidate in &candidates.candidates {
            for &analysis in &analyses {
                if flag.load(Ordering::SeqCst) {
                    break 'sweep;
                }
                tally.add("functional.tasks", 1.0);
                let cube = {
                    let _span = span(FUNCTIONAL_SPAN);
                    match analysis {
                        Analysis::Unateness => analyze_unateness_in(&mut session, candidate),
                        Analysis::SlidingWindow => sliding_window_in(&mut session, candidate, h),
                        Analysis::Distance2H => distance_2h_in(&mut session, candidate, h),
                    }
                };
                let Some(cube) = cube else { continue };
                tally.add("functional.cubes", 1.0);
                tally.add("equivalence.checks", 1.0);
                let equal = {
                    let _span = span(EQUIVALENCE_SPAN);
                    candidate_equals_strip_in(&mut session, candidate, &cube, h)
                };
                if !equal {
                    continue;
                }
                tally.add("equivalence.passes", 1.0);
                if let Some(key) = cube_to_key(locked, &candidates, &cube) {
                    if !shortlist.contains(&key) {
                        shortlist.push(key);
                    }
                }
            }
        }
        status = match shortlist.len() {
            0 => FallStatus::NoKeysFound,
            1 => {
                best = shortlist.first().cloned();
                FallStatus::UniqueKey
            }
            _ => {
                let confirmation = {
                    let _span = span(CONFIRMATION_SPAN);
                    key_confirmation_in(&mut session, &oracle, &shortlist, &confirmation_config())
                };
                tally.add("dip.iterations", confirmation.iterations as f64);
                best = confirmation.key.clone();
                if best.is_some() {
                    FallStatus::ConfirmedKey
                } else {
                    FallStatus::ConfirmationFailed
                }
            }
        };
        prefilter = session.prefilter_stats();
        tally.add_session(
            &session.stats(),
            session.num_vars(),
            session.cone_encodings_built(),
        );
    }
    watchdog.disarm();
    let elapsed = start.elapsed();
    let interrupted = flag.load(Ordering::SeqCst);
    let counts = oracle.counts();
    tally.add_oracle(counts);
    tally.add(
        "functional.prefilter_refuted",
        prefilter.total_refuted() as f64,
    );
    tally.add(
        "functional.sim_patterns",
        prefilter.patterns_simulated as f64,
    );
    Verdict {
        instance: index,
        secs: elapsed.as_secs_f64(),
        claim: claim(status, best.as_ref(), interrupted),
        unique: Some(shortlist.len() == 1),
        oracle_queries: counts.queries,
        signature: signature(
            interrupted,
            status,
            &shortlist,
            best.as_ref(),
            &prefilter,
            candidates.candidates.len(),
            counts.queries,
        ),
        tally,
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (instances, setup_times, print) = timed_setup(SETUP_REPEATS, || setup(run.seed))?;
    let watchdog = Watchdog::start();

    let expected = |v: &Verdict| {
        judge(
            v,
            &Expectation {
                circuit: &instances[v.instance].circuit,
                has_key: true,
            },
        )
    };

    let phase = run_stream(
        instances.len(),
        LOCKS_PER_CIRCUIT,
        run.untraced_seconds(),
        run.min_verdicts(MIN_VERDICTS),
        |index| attack(index, &instances[index], &watchdog),
    );
    let measured = Judged::new(phase, expected);

    if !run.trace {
        let rechecked = (0..LOCKS_PER_CIRCUIT)
            .map(|index| attack(index, &instances[index], &watchdog))
            .collect();
        return Ok(Outcome {
            setup_times,
            fingerprint: print,
            measured,
            traced: None,
            rechecked,
        });
    }
    let (phase, histograms) = crate::traced(|| {
        run_stream(
            instances.len(),
            LOCKS_PER_CIRCUIT,
            run.traced_seconds(),
            0,
            |index| staged_attack(index, &instances[index], &watchdog),
        )
    });
    let n = phase.verdicts.len() as f64;
    let busy = |spans: &[&str]| histogram_secs(&histograms, spans);
    let mut metrics = LayerMetrics::from_verdicts(&phase.verdicts);
    metrics.set("structural.busy_s", busy(&[STRUCTURAL_SPAN]) / n);
    metrics.set("functional.busy_s", busy(&[FUNCTIONAL_SPAN]) / n);
    metrics.set("equivalence.busy_s", busy(&[EQUIVALENCE_SPAN]) / n);
    metrics.set("confirmation.busy_s", busy(&[CONFIRMATION_SPAN]) / n);
    metrics.set(
        "functional.cube_yield",
        ratio(
            metrics.get("functional.cubes"),
            metrics.get("functional.tasks"),
        ),
    );
    metrics.set(
        "equivalence.pass_frac",
        ratio(
            metrics.get("equivalence.passes"),
            metrics.get("equivalence.checks"),
        ),
    );
    let accounted = busy(&[
        STRUCTURAL_SPAN,
        FUNCTIONAL_SPAN,
        EQUIVALENCE_SPAN,
        CONFIRMATION_SPAN,
    ]);
    let attack_s: f64 = phase.verdicts.iter().map(|v| v.secs).sum();
    metrics.set("trace.unattributed_frac", 1.0 - ratio(accounted, attack_s));
    Ok(Outcome {
        setup_times,
        fingerprint: print,
        measured,
        traced: Some(TracedPhase {
            judged: Judged::new(phase, expected),
            histograms,
            metrics,
        }),
        rechecked: Vec::new(),
    })
}
