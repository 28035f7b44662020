//! Measurement plumbing shared by the workloads: the seeded generator, the
//! per-verdict budget timer, the counting oracle wrapper, key validation,
//! the set-up timing and the phase/verdict bookkeeping.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fall::trace::{span, PhaseHistogram};
use fall::Oracle;
use locking::{Key, LockedCircuit};
use sat::SolverStats;

/// Random patterns per key validation.  Cube-stripping locks corrupt only a
/// sliver of the input space, so validation also demands the exact secret
/// key for them (see [`key_is_correct`]).
const VALIDATION_SAMPLES: usize = 1024;

/// SplitMix64: a tiny, fully specified generator, so the same `--seed`
/// yields the same instances on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent sub-seed for one instance of a workload.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng =
        Rng::new(seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}

/// A key at Hamming distance `distance` from `key`, flipping distinct bits
/// among `positions`: the shape of the spurious keys the functional analyses
/// emit.
pub fn neighbour_key(key: &Key, positions: &[usize], distance: usize, rng: &mut Rng) -> Key {
    let mut bits = key.bits().to_vec();
    let mut flipped = Vec::new();
    while flipped.len() < distance.min(positions.len()) {
        let i = positions[rng.below(positions.len())];
        if !flipped.contains(&i) {
            flipped.push(i);
            bits[i] = !bits[i];
        }
    }
    Key::new(bits)
}

/// The oracle-free check of a returned key: random simulation against the
/// original netlist.  Cube-stripping schemes (TTLock, SFLL-HDh with
/// `h < m/2`) have exactly one correct key, and a wrong one corrupts too few
/// patterns for random simulation to see, so for them the key must also be
/// the secret one.
pub fn key_is_correct(circuit: &LockedCircuit, key: &Key) -> bool {
    key.len() == circuit.key.len()
        && (circuit.protected_inputs.is_empty() || *key == circuit.key)
        && circuit.key_is_functionally_correct(key, VALIDATION_SAMPLES, 0x5EED_CAFE)
}

/// Fingerprint of a set of locked instances (netlists and keys), for the
/// seed self-checks.
pub fn fingerprint<'a>(circuits: impl IntoIterator<Item = &'a LockedCircuit>) -> u64 {
    let mut hasher = DefaultHasher::new();
    for circuit in circuits {
        netlist::bench_format::write(&circuit.locked).hash(&mut hasher);
        circuit.key.bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// A single timer thread that fires a per-verdict interrupt flag once its
/// budget runs out.  The attacks see only the flag, through their public
/// `interrupt` knob.
pub struct Watchdog {
    shared: Arc<(Mutex<WatchState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

struct WatchState {
    deadline: Option<Instant>,
    flag: Arc<AtomicBool>,
    stop: bool,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let shared = Arc::new((
            Mutex::new(WatchState {
                deadline: None,
                flag: Arc::new(AtomicBool::new(false)),
                stop: false,
            }),
            Condvar::new(),
        ));
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (lock, wake) = &*shared;
                let mut state = lock.lock().expect("watchdog lock");
                while !state.stop {
                    state = match state.deadline {
                        None => wake.wait(state).expect("watchdog lock"),
                        Some(deadline) => {
                            let now = Instant::now();
                            if now >= deadline {
                                state.flag.store(true, Ordering::SeqCst);
                                state.deadline = None;
                                state
                            } else {
                                wake.wait_timeout(state, deadline - now)
                                    .expect("watchdog lock")
                                    .0
                            }
                        }
                    };
                }
            })
        };
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// Arms a fresh flag that flips to `true` after `budget`.
    pub fn arm(&self, budget: Duration) -> Arc<AtomicBool> {
        let flag = Arc::new(AtomicBool::new(false));
        let (lock, wake) = &*self.shared;
        let mut state = lock.lock().expect("watchdog lock");
        state.deadline = Some(Instant::now() + budget);
        state.flag = Arc::clone(&flag);
        wake.notify_one();
        flag
    }

    /// Cancels the pending deadline.
    pub fn disarm(&self) {
        let (lock, wake) = &*self.shared;
        lock.lock().expect("watchdog lock").deadline = None;
        wake.notify_one();
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, wake) = &*self.shared;
        if let Ok(mut state) = lock.lock() {
            state.stop = true;
        }
        wake.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Forwards every oracle call unchanged and counts it, inside the
/// benchmark's `bench_oracle` span.  Query counting follows
/// `fall::CountingOracle`: a word-batched call of `width` words counts
/// `width * 64` queries.
pub struct BenchOracle<O> {
    inner: O,
    queries: AtomicU64,
    batched_words: AtomicU64,
}

/// A snapshot of a [`BenchOracle`]'s counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleCounts {
    pub queries: u64,
    pub batched_words: u64,
}

impl<O: Oracle> BenchOracle<O> {
    pub fn new(inner: O) -> BenchOracle<O> {
        BenchOracle {
            inner,
            queries: AtomicU64::new(0),
            batched_words: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> OracleCounts {
        OracleCounts {
            queries: self.queries.load(Ordering::Relaxed),
            batched_words: self.batched_words.load(Ordering::Relaxed),
        }
    }
}

impl<O: Oracle> Oracle for BenchOracle<O> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let _span = span(ORACLE_SPAN);
        self.inner.query(inputs)
    }

    fn query_words(&self, inputs: &[u64], width: usize) -> Vec<u64> {
        self.queries.fetch_add(width as u64 * 64, Ordering::Relaxed);
        self.batched_words
            .fetch_add(width as u64, Ordering::Relaxed);
        let _span = span(ORACLE_SPAN);
        self.inner.query_words(inputs, width)
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
}

/// The span around every oracle call, read back as `oracle.busy_s`.
pub const ORACLE_SPAN: &str = "bench_oracle";

/// Per-layer counters of one verdict, or summed over a phase: sums and
/// maxima keyed by the per-layer metric name.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub sums: BTreeMap<&'static str, f64>,
    pub maxima: BTreeMap<&'static str, f64>,
}

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.maxima.entry(name).or_default();
        *slot = slot.max(value);
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: &Tally) {
        for (&name, &value) in &other.sums {
            self.add(name, value);
        }
        for (&name, &value) in &other.maxima {
            self.max(name, value);
        }
    }

    /// Folds one finished session into the `session.*`/`sat.*` counters.
    pub fn add_session(&mut self, stats: &SolverStats, vars: usize, cone_encodings: u64) {
        self.add("session.solves", stats.solves as f64);
        self.add("session.cone_encodings", cone_encodings as f64);
        self.max("session.vars_peak", vars as f64);
        self.add("sat.conflicts", stats.conflicts as f64);
        self.add("sat.propagations", stats.propagations as f64);
        self.add("sat.decisions", stats.decisions as f64);
        self.add("sat.reductions", stats.reductions as f64);
        self.add("sat.gc_runs", stats.gc_runs as f64);
        self.add("sat.vars_eliminated", stats.vars_eliminated as f64);
        self.max("sat.arena_peak_bytes", stats.arena_bytes as f64);
    }

    pub fn add_oracle(&mut self, counts: OracleCounts) {
        self.add("oracle.queries", counts.queries as f64);
        self.add("oracle.batched_words", counts.batched_words as f64);
    }
}

/// What an attack claimed for one verdict.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Claim {
    /// The attack returned this key.
    Key(Key),
    /// The attack proved that no candidate key is correct.
    NoKey,
    /// A budget ran out, the job was rejected, or the attack gave up.
    Failed(&'static str),
}

/// One finished verdict of the measured phase.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Index into the workload's instance (or job) table.
    pub instance: usize,
    /// Wall time of the verdict, client-observed for served jobs.
    pub secs: f64,
    pub claim: Claim,
    /// For FALL verdicts: whether exactly one key was shortlisted.
    pub unique: Option<bool>,
    pub oracle_queries: u64,
    /// Exact counters every re-run of this instance must reproduce, with the
    /// recorder on or off; empty when the run is not comparable.
    pub signature: String,
    /// The verdict's per-layer counters (summed over the traced phase).
    pub tally: Tally,
}

/// The expected outcome of one instance.
pub struct Expectation<'a> {
    pub circuit: &'a LockedCircuit,
    /// Whether some candidate key is correct (false for decoy-only
    /// shortlists, whose right verdict is "no key").
    pub has_key: bool,
}

/// A verdict judged against its expectation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgement {
    Defeated,
    /// A correct "no key" verdict.
    ProvedNoKey,
    /// Budget hit, rejection or give-up.
    Failed,
    /// A wrong key or a wrong "no key".
    Wrong,
}

pub fn judge(verdict: &Verdict, expected: &Expectation) -> Judgement {
    match (&verdict.claim, expected.has_key) {
        (Claim::Failed(_), _) => Judgement::Failed,
        (Claim::Key(key), true) if key_is_correct(expected.circuit, key) => Judgement::Defeated,
        (Claim::NoKey, false) => Judgement::ProvedNoKey,
        _ => Judgement::Wrong,
    }
}

/// The verdicts of one measured phase.
pub struct Phase {
    pub verdicts: Vec<Verdict>,
    pub elapsed: f64,
}

/// Runs verdicts `0, 1, 2, ...` over a pool of `pool` instances (wrapping
/// round should a fast machine exhaust it) until at least `seconds` have
/// elapsed and at least `min_verdicts` are in.  It stops only after a whole
/// `group`, the instances built from one circuit, so every run measures the
/// same instance mix.
pub fn run_stream(
    pool: usize,
    group: usize,
    seconds: f64,
    min_verdicts: usize,
    mut verdict: impl FnMut(usize) -> Verdict,
) -> Phase {
    let start = Instant::now();
    let mut verdicts: Vec<Verdict> = Vec::new();
    while verdicts.is_empty()
        || !verdicts.len().is_multiple_of(group)
        || start.elapsed().as_secs_f64() < seconds
        || verdicts.len() < min_verdicts
    {
        verdicts.push(verdict(verdicts.len() % pool));
    }
    Phase {
        verdicts,
        elapsed: start.elapsed().as_secs_f64(),
    }
}

/// Checks that every instance measured more than once (in this phase or the
/// other) reproduced its exact counters; returns the first mismatch.
pub fn check_signatures<'a>(verdicts: impl IntoIterator<Item = &'a Verdict>) -> Result<(), String> {
    let mut first: BTreeMap<usize, &str> = BTreeMap::new();
    for verdict in verdicts {
        if verdict.signature.is_empty() {
            continue;
        }
        match first.get(&verdict.instance) {
            None => {
                first.insert(verdict.instance, &verdict.signature);
            }
            Some(&seen) if seen != verdict.signature => {
                return Err(format!(
                    "instance {} did not reproduce its counters: {seen} vs {}",
                    verdict.instance, verdict.signature
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Busy seconds the flight recorder saw in the named spans.
pub fn histogram_secs(histograms: &[(&'static str, PhaseHistogram)], names: &[&str]) -> f64 {
    histograms
        .iter()
        .filter(|(name, _)| names.contains(name))
        .map(|(_, histogram)| histogram.total_us)
        .sum::<u64>() as f64
        * 1e-6
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Times one set-up: returns what it built, its fingerprint and its time.
pub fn time_setup<T>(
    setup: impl FnOnce() -> Result<(T, u64), String>,
) -> Result<(T, u64, f64), String> {
    let start = Instant::now();
    let (built, print) = setup()?;
    Ok((built, print, start.elapsed().as_secs_f64()))
}

/// Runs `setup` `repeats` times and returns the last result with every
/// set-up time; every repeat must build identical instances.
pub fn timed_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<(T, u64), String>,
) -> Result<(T, Vec<f64>, u64), String> {
    let mut times = Vec::new();
    let mut last: Option<(T, u64)> = None;
    for _ in 0..repeats {
        // Drop the previous build first, so only one pool is ever resident.
        let previous = last.take().map(|(_, print)| print);
        let (built, print, secs) = time_setup(&mut setup)?;
        times.push(secs);
        if previous.is_some_and(|previous| previous != print) {
            return Err("the same seed built different instances".into());
        }
        last = Some((built, print));
    }
    let (built, print) = last.ok_or("no set-up ran")?;
    Ok((built, times, print))
}
