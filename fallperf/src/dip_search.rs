//! `dip_search`: oracle-guided DIP loops.  The SAT attack and key
//! confirmation (FALL-style shortlists plus decoys) run on small-key
//! SFLL-HD, TTLock and XOR instances, and the partitioned parallel search runs
//! at `nproc` workers on the SAT-resilient ones.  Solver search over a
//! growing formula, per-DIP key-cone encoding, oracle access and the region
//! pool do the work; structural and functional code does none.

use std::time::{Duration, Instant};

use fall::key_confirmation::key_confirmation_in;
use fall::sat_attack::sat_attack_in;
use fall::{
    parallel_partitioned_key_search, AttackSession, KeyConfirmationConfig, SatAttackConfig,
    SatAttackStatus, SimOracle,
};
use locking::{Key, LockedCircuit, LockingScheme, SfllHd, TtLock, XorLock};
use netlist::analysis::support;
use netlist::random::{generate, RandomCircuitSpec};
use netlist::Netlist;

use fall::trace::span;

use crate::common::{
    fingerprint, histogram_secs, judge, neighbour_key, ratio, run_stream, sub_seed, time_setup,
    timed_setup, BenchOracle, Claim, Expectation, Rng, Tally, Verdict,
};
use crate::{Judged, LayerMetrics, Outcome, Run, TracedPhase};

/// Circuits in a seed's pool (more than a 30 s run gets through); each is
/// locked three ways, giving eleven tasks.
const CIRCUITS: usize = 240;
const TASKS_PER_CIRCUIT: usize = 11;
const INPUTS: usize = 12;
const OUTPUTS: usize = 4;
const GATES: usize = 200;
/// Key width of the SAT-resilient locks.
const RESILIENT_BITS: usize = 6;
const XOR_BITS: usize = 10;
/// Key-space regions of the parallel search: `2^PARTITION_BITS`.
const PARTITION_BITS: usize = 2;
/// Decoys per shortlist.
const DECOYS: usize = 2;
/// Set-up repeats before the measured phase (and as many after it).
const SETUP_REPEATS: usize = 6;
/// The tail percentile: p90, over at least 100 verdicts.
pub const TAIL_Q: f64 = 0.90;
const MIN_VERDICTS: usize = 100;
/// Words of 64 random patterns that [`is_wrong`] simulates.
const VALIDATION_WORDS: usize = 16;
/// Per-verdict budget, enforced through each entry point's `time_limit`.
const BUDGET: Duration = Duration::from_secs(30);

enum Task {
    Sat,
    Confirm { shortlist: Vec<Key>, has_key: bool },
    Parallel,
}

struct Instances {
    locks: Vec<LockedCircuit>,
    /// `(lock index, task)`, in the order a run measures them.
    tasks: Vec<(usize, Task)>,
}

/// Whether `decoy` is a wrong key.  Cube-stripping locks have exactly one
/// correct key.  An XOR-locked decoy must visibly corrupt the circuit: some
/// of 1024 seeded random patterns, simulated 64 at a time, tells it from the
/// original.
fn is_wrong(circuit: &LockedCircuit, decoy: &Key) -> bool {
    if !circuit.protected_inputs.is_empty() {
        return true;
    }
    let mut rng = Rng::new(0x5EED_CAFE);
    let keys: Vec<u64> = decoy
        .bits()
        .iter()
        .map(|&b| if b { !0 } else { 0 })
        .collect();
    (0..VALIDATION_WORDS).any(|_| {
        let inputs: Vec<u64> = (0..circuit.original.num_inputs())
            .map(|_| rng.next_u64())
            .collect();
        circuit.original.evaluate_words(&inputs, &[])
            != circuit.locked.evaluate_words(&inputs, &keys)
    })
}

/// `count` distinct FALL-style decoys: wrong keys one or two bits away from
/// the secret key, flipping only key bits some output depends on.  `None`
/// when the lock has too few such bits to yield them (XOR gates on logic that
/// reaches no output).
fn decoys(circuit: &LockedCircuit, count: usize, rng: &mut Rng) -> Option<Vec<Key>> {
    let locked = &circuit.locked;
    let mut live: Vec<usize> = locked
        .outputs()
        .iter()
        .flat_map(|&(_, output)| support(locked, output).keys)
        .filter_map(|key_input| locked.key_input_position(key_input))
        .collect();
    live.sort_unstable();
    live.dedup();
    let mut keys: Vec<Key> = Vec::new();
    for _ in 0..64 {
        if keys.len() == count {
            return Some(keys);
        }
        let decoy = neighbour_key(&circuit.key, &live, 1 + rng.below(2), rng);
        if decoy != circuit.key && !keys.contains(&decoy) && is_wrong(circuit, &decoy) {
            keys.push(decoy);
        }
    }
    None
}

/// Locks `original` with scheme 0 (SFLL-HD1), 1 (TTLock) or 2 (XOR), and
/// draws its two shortlists.  A lock whose key bits barely reach an output
/// is re-drawn with the next lock seed.
fn lock(
    original: &Netlist,
    seed: u64,
    c: usize,
    scheme: usize,
    rng: &mut Rng,
) -> Option<(LockedCircuit, Vec<Key>, Vec<Key>)> {
    (0..8).find_map(|attempt| {
        let lock_seed = sub_seed(seed, 5, (((c * 3 + scheme) as u64) << 8) | attempt);
        let circuit = match scheme {
            0 => SfllHd::new(RESILIENT_BITS, 1)
                .with_seed(lock_seed)
                .lock(original),
            1 => TtLock::new(RESILIENT_BITS)
                .with_seed(lock_seed)
                .lock(original),
            _ => XorLock::new(XOR_BITS).with_seed(lock_seed).lock(original),
        }
        .ok()?
        .optimized();
        let mut hit = decoys(&circuit, DECOYS, rng)?;
        hit.insert(rng.below(DECOYS + 1), circuit.key.clone());
        let miss = decoys(&circuit, DECOYS + 1, rng)?;
        Some((circuit, hit, miss))
    })
}

fn build(seed: u64) -> Result<Instances, String> {
    let mut locks = Vec::new();
    let mut tasks = Vec::new();
    let mut rng = Rng::new(sub_seed(seed, 3, 0));
    for c in 0..CIRCUITS {
        let spec = RandomCircuitSpec::new(format!("dip{c}"), INPUTS, OUTPUTS, GATES)
            .with_seed(sub_seed(seed, 4, c as u64));
        let original = generate(&spec);
        for scheme in 0..3 {
            let (circuit, hit, miss) = lock(&original, seed, c, scheme, &mut rng)
                .ok_or_else(|| format!("no usable lock of dip circuit {c}, scheme {scheme}"))?;
            let index = locks.len();
            tasks.push((index, Task::Sat));
            tasks.push((
                index,
                Task::Confirm {
                    shortlist: hit,
                    has_key: true,
                },
            ));
            tasks.push((
                index,
                Task::Confirm {
                    shortlist: miss,
                    has_key: false,
                },
            ));
            // SFLL-HD and TTLock are the SAT-resilient locks.
            if scheme < 2 {
                tasks.push((index, Task::Parallel));
            }
            locks.push(circuit);
        }
    }
    debug_assert_eq!(tasks.len(), CIRCUITS * TASKS_PER_CIRCUIT);
    Ok(Instances { locks, tasks })
}

/// The set-up: generating, locking and optimising the pool and drawing its
/// shortlists.
fn setup(seed: u64) -> Result<(Instances, u64), String> {
    let instances = build(seed)?;
    let print = fingerprint(instances.locks.iter());
    Ok((instances, print))
}

/// Sets up `seed`'s pool once and drops it: its fingerprint and set-up time.
pub fn fingerprint_of(seed: u64) -> Result<(u64, f64), String> {
    let (_, print, secs) = time_setup(|| setup(seed))?;
    Ok((print, secs))
}

fn key_text(key: Option<&Key>) -> String {
    key.map_or("-".to_string(), ToString::to_string)
}

/// The benchmark's spans around its calls into each layer.
const SAT_ATTACK_SPAN: &str = "bench_sat_attack";
const CONFIRMATION_SPAN: &str = "bench_confirmation";
const PARALLEL_SPAN: &str = "bench_parallel";

/// One verdict, each layer call inside a benchmark span (inert while the
/// recorder is off).
fn verdict(index: usize, instances: &Instances, workers: usize) -> Verdict {
    let (lock_index, task) = &instances.tasks[index];
    let lock = &instances.locks[*lock_index];
    let locked = &lock.locked;
    let confirmation = KeyConfirmationConfig {
        time_limit: Some(BUDGET),
        ..KeyConfirmationConfig::default()
    };
    // A fresh counting oracle per verdict: the pool keeps no oracle copies.
    let oracle = BenchOracle::new(SimOracle::new(lock.original.clone()));
    let mut tally = Tally::default();
    let start = Instant::now();
    let (claim, signature) = match task {
        Task::Sat => {
            let mut session = AttackSession::new(locked);
            let config = SatAttackConfig::with_time_limit(BUDGET);
            let result = {
                let _span = span(SAT_ATTACK_SPAN);
                sat_attack_in(&mut session, &oracle, &config)
            };
            let stats = session.stats();
            tally.add_session(&stats, session.num_vars(), session.cone_encodings_built());
            tally.add("dip.iterations", result.iterations as f64);
            let claim = match (result.status, &result.key) {
                (SatAttackStatus::Success, Some(key)) => Claim::Key(key.clone()),
                (SatAttackStatus::Inconsistent, _) => Claim::Failed("inconsistent oracle"),
                _ => Claim::Failed("budget"),
            };
            let signature = format!(
                "sat dips={} queries={} conflicts={} decisions={} propagations={} key={}",
                result.iterations,
                result.oracle_queries,
                stats.conflicts,
                stats.decisions,
                stats.propagations,
                key_text(result.key.as_ref())
            );
            (claim, signature)
        }
        Task::Confirm { shortlist, .. } => {
            let mut session = AttackSession::new(locked);
            let result = {
                let _span = span(CONFIRMATION_SPAN);
                key_confirmation_in(&mut session, &oracle, shortlist, &confirmation)
            };
            let stats = session.stats();
            tally.add_session(&stats, session.num_vars(), session.cone_encodings_built());
            tally.add("dip.iterations", result.iterations as f64);
            let claim = match (&result.key, result.completed) {
                (_, false) => Claim::Failed("budget"),
                (Some(key), true) => Claim::Key(key.clone()),
                (None, true) => Claim::NoKey,
            };
            let signature = format!(
                "confirm dips={} queries={} conflicts={} decisions={} propagations={} key={}",
                result.iterations,
                result.oracle_queries,
                stats.conflicts,
                stats.decisions,
                stats.propagations,
                key_text(result.key.as_ref())
            );
            (claim, signature)
        }
        Task::Parallel => {
            let result = {
                let _span = span(PARALLEL_SPAN);
                parallel_partitioned_key_search(
                    locked,
                    &oracle,
                    PARTITION_BITS,
                    workers,
                    &confirmation,
                )
            };
            tally.add_session(&result.solver_stats, 0, result.cone_encodings_built as u64);
            tally.add("dip.iterations", result.iterations as f64);
            tally.add("parallel.unique_queries", result.oracle_queries as f64);
            tally.add("parallel.cache_hits", result.cache_hits as f64);
            tally.add("parallel.sessions", result.sessions_created as f64);
            let claim = match (&result.key, result.completed) {
                (_, false) => Claim::Failed("budget"),
                (Some(key), true) => Claim::Key(key.clone()),
                (None, true) => Claim::NoKey,
            };
            // Worker interleaving makes the counts vary; only the key is exact.
            (
                claim,
                format!("parallel key={}", key_text(result.key.as_ref())),
            )
        }
    };
    let secs = start.elapsed().as_secs_f64();
    let counts = oracle.counts();
    tally.add_oracle(counts);
    Verdict {
        instance: index,
        secs,
        claim,
        unique: None,
        oracle_queries: counts.queries,
        signature,
        tally,
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (instances, setup_times, print) = timed_setup(SETUP_REPEATS, || setup(run.seed))?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let expectations: Vec<Expectation> = instances
        .tasks
        .iter()
        .map(|(lock, task)| Expectation {
            circuit: &instances.locks[*lock],
            has_key: !matches!(task, Task::Confirm { has_key: false, .. }),
        })
        .collect();

    let expected = |v: &Verdict| judge(v, &expectations[v.instance]);

    let phase = run_stream(
        instances.tasks.len(),
        TASKS_PER_CIRCUIT,
        run.untraced_seconds(),
        run.min_verdicts(MIN_VERDICTS),
        |index| verdict(index, &instances, workers),
    );
    let measured = Judged::new(phase, expected);

    if !run.trace {
        let rechecked = (0..TASKS_PER_CIRCUIT)
            .map(|index| verdict(index, &instances, workers))
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
            instances.tasks.len(),
            TASKS_PER_CIRCUIT,
            run.traced_seconds(),
            0,
            |index| verdict(index, &instances, workers),
        )
    });
    let n = phase.verdicts.len() as f64;
    let busy = |spans: &[&str]| histogram_secs(&histograms, spans);
    let mut metrics = LayerMetrics::from_verdicts(&phase.verdicts);
    metrics.set("sat_attack.busy_s", busy(&[SAT_ATTACK_SPAN]) / n);
    metrics.set("confirmation.busy_s", busy(&[CONFIRMATION_SPAN]) / n);
    let (hits, unique) = (
        metrics.get("parallel.cache_hits"),
        metrics.get("parallel.unique_queries"),
    );
    metrics.set("parallel.cache_hit_frac", ratio(hits, hits + unique));
    let accounted = busy(&[SAT_ATTACK_SPAN, CONFIRMATION_SPAN, PARALLEL_SPAN]);
    metrics.set(
        "trace.unattributed_frac",
        1.0 - ratio(accounted, phase.elapsed),
    );
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
