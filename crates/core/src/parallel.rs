//! The parallel attack engine: partitioned key search on a worker pool and
//! solver portfolios.
//!
//! § VI-D of the paper observes that the key-confirmation predicate ϕ makes
//! the key space trivially partitionable: fixing the first `p` key bits
//! yields `2^p` *independent* regions, each a self-contained confirmation
//! problem.  This module dispatches those regions to a fixed pool of worker
//! threads; every **worker** owns one long-lived [`sat::Solver`]-backed
//! [`AttackSession`] for its whole lifetime — each region binds ϕ in a
//! retireable predicate generation ([`AttackSession::begin_predicate`]) that
//! is retired when the region concludes, so the circuit encodings and the
//! frame-independent learnt clauses carry over from region to region instead
//! of being rebuilt `2^p` times:
//!
//! * **Work queue, not static chunking** — regions are pulled from a shared
//!   atomic counter, so a worker that drew an easy (quickly-UNSAT) region
//!   immediately moves on while a skewed region keeps exactly one worker
//!   busy.
//! * **Shared oracle cache** — all workers query the activated chip through
//!   one [`CachingOracle`]: a sharded map that deduplicates concurrent
//!   queries, so the parallel attack issues (almost) no more real oracle
//!   queries than the serial one.  Real oracle access is the expensive,
//!   physically-limited resource in the threat model, so this matters more
//!   than raw CPU scaling.
//! * **Cancellation token** — the moment one worker confirms a key, every
//!   other solver observes the shared [`CancelToken`] at its next check
//!   point (mid-search, not just between queries) and backs out.
//!
//! [`portfolio_sat_attack`] applies the same pool to a different axis:
//! instead of splitting the key space it races N deliberately diverse
//! [`SolverConfig`]s (restart pacing, decay rates, phase polarity, random
//! branching — see [`SolverConfig::portfolio`]) on the *same* SAT-attack
//! instance and takes the first winner, the classic portfolio pattern of
//! parallel SAT solving.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use locking::Key;
use netlist::Netlist;
use sat::{SolverConfig, SolverStats};

use crate::key_confirmation::{key_confirmation_with_predicate_in, KeyConfirmationConfig};
use crate::oracle::Oracle;
use crate::sat_attack::{sat_attack_in, SatAttackConfig, SatAttackResult};
use crate::session::AttackSession;

/// A cloneable cancellation token shared by a group of workers.
///
/// Cancelling is sticky and idempotent.  Solvers observe the token through
/// [`AttackSession::set_interrupt`], so a long-running SAT query stops at its
/// next conflict/decision check point rather than at the next attack-loop
/// iteration.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation of every worker sharing this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The shared flag, in the form [`AttackSession::set_interrupt`] expects.
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Number of independently-locked shards in a [`CachingOracle`].
const ORACLE_SHARDS: usize = 16;

/// How a [`CachingOracle`] holds the oracle it deduplicates.
enum OracleRef<'o> {
    /// Borrowed for the duration of one attack run (the worker-pool case:
    /// the oracle outlives the scoped threads).
    Borrowed(&'o (dyn Oracle + Sync)),
    /// Shared ownership, for long-lived holders like the session server's
    /// target pool where no enclosing scope outlives the cache.
    Owned(Arc<dyn Oracle + Send + Sync>),
}

/// A thread-safe, deduplicating adapter around an I/O oracle.
///
/// Queries are memoized in a map sharded by input-pattern hash, so workers
/// contend on a shard only when they race on *nearby* patterns; the shard
/// lock is held across the underlying query, which guarantees each distinct
/// pattern reaches the real oracle exactly once no matter how many workers
/// ask for it concurrently.
pub struct CachingOracle<'o> {
    inner: OracleRef<'o>,
    shards: [Mutex<HashMap<Vec<bool>, Vec<bool>>>; ORACLE_SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'o> CachingOracle<'o> {
    /// Wraps a borrowed oracle in a fresh (empty) shared cache.
    pub fn new(inner: &'o (dyn Oracle + Sync)) -> CachingOracle<'o> {
        CachingOracle {
            inner: OracleRef::Borrowed(inner),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Wraps a shared (reference-counted) oracle in a fresh cache.
    ///
    /// The resulting `CachingOracle<'static>` owns its oracle, so it can live
    /// in long-running structures — the session server keeps one per
    /// registered target so every job against that target deduplicates
    /// through the same cache — instead of being scoped to one attack run.
    pub fn shared(inner: Arc<dyn Oracle + Send + Sync>) -> CachingOracle<'static> {
        CachingOracle {
            inner: OracleRef::Owned(inner),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The wrapped oracle, whichever way it is held.
    fn inner(&self) -> &(dyn Oracle + Sync) {
        match &self.inner {
            OracleRef::Borrowed(oracle) => *oracle,
            OracleRef::Owned(oracle) => oracle.as_ref(),
        }
    }

    /// Number of queries answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct patterns forwarded to the underlying oracle.
    pub fn unique_queries(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    fn shard(&self, inputs: &[bool]) -> &Mutex<HashMap<Vec<bool>, Vec<bool>>> {
        let mut hasher = DefaultHasher::new();
        inputs.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % ORACLE_SHARDS]
    }
}

impl Oracle for CachingOracle<'_> {
    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        let mut shard = self.shard(inputs).lock().expect("oracle shard poisoned");
        if let Some(outputs) = shard.get(inputs) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outputs.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A distinct phase from the attack loop's logical "oracle_query"
        // span: this one times only deduplicated access to the real oracle.
        let _span = crate::trace::span("oracle_miss");
        let outputs = self.inner().query(inputs);
        shard.insert(inputs.to_vec(), outputs.clone());
        outputs
    }

    /// Word-batched queries deduplicate *per pattern*: each of the
    /// `width * 64` patterns in the block resolves through the shard cache
    /// individually, so repeats — inside the block, across blocks, or
    /// against earlier scalar queries — never reach the real oracle twice
    /// and [`CachingOracle::unique_queries`] counts exactly the distinct
    /// patterns, whatever mix of transports the workers use.
    fn query_words(&self, inputs: &[u64], width: usize) -> Vec<u64> {
        assert!(width > 0, "batched query needs at least one word");
        assert_eq!(
            inputs.len(),
            self.num_inputs() * width,
            "batched stimulus width mismatch"
        );
        let n = self.num_inputs();
        let mut out = vec![0u64; self.num_outputs() * width];
        let mut bits = vec![false; n];
        for lane in 0..width {
            for bit in 0..64 {
                for (i, b) in bits.iter_mut().enumerate() {
                    *b = (inputs[i * width + lane] >> bit) & 1 == 1;
                }
                let outputs = self.query(&bits);
                for (o, &v) in outputs.iter().enumerate() {
                    out[o * width + lane] |= u64::from(v) << bit;
                }
            }
        }
        out
    }

    fn num_inputs(&self) -> usize {
        self.inner().num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner().num_outputs()
    }
}

/// A source of key-space region indices for a region-draining worker.
///
/// [`drain_regions`] pulls region indices from one of these until it is
/// exhausted, a key is found, or the run is cancelled.  The in-process
/// engine uses a shared atomic counter; the multi-process farm in
/// [`crate::dist`] implements the same trait over a wire protocol, so the
/// region-draining worker loop is written exactly once.
pub trait RegionSource: Sync {
    /// The next region to search, or `None` when the queue is drained (or
    /// the run is over).  May block — a distributed source waits on the
    /// supervisor's reply here.
    fn next_region(&self) -> Option<u64>;

    /// Acknowledges that `region` completed without a key.  A distributed
    /// source reports this to its supervisor so the lease can be retired;
    /// the in-process source needs no acknowledgement (regions are retired
    /// the moment they are handed out, because a thread cannot crash
    /// independently of the process).
    ///
    /// `stats` is the worker session's cumulative [`SolverStats`] snapshot at
    /// completion time.  A distributed source piggybacks it on the
    /// acknowledgement so the supervisor can maintain a farm-wide aggregate
    /// without an extra round trip; the in-process source ignores it (the
    /// pool absorbs each session's stats once, at thread exit).
    fn complete_region(&self, _region: u64, _iterations: usize, _stats: &SolverStats) {}
}

/// The in-process [`RegionSource`]: a shared atomic counter over the dense
/// region range `0..regions`.
#[derive(Debug)]
struct AtomicRegionSource {
    next: AtomicU64,
    regions: u64,
}

impl AtomicRegionSource {
    /// A source that deals out `0..regions` exactly once across all pullers.
    fn new(regions: u64) -> AtomicRegionSource {
        AtomicRegionSource {
            next: AtomicU64::new(0),
            regions,
        }
    }
}

impl RegionSource for AtomicRegionSource {
    fn next_region(&self) -> Option<u64> {
        let region = self.next.fetch_add(1, Ordering::Relaxed);
        (region < self.regions).then_some(region)
    }
}

/// Why a [`drain_regions`] call returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegionDrainOutcome {
    /// The source ran dry: every region this worker pulled completed and
    /// proved keyless.
    Drained,
    /// A region confirmed a key.
    Winner {
        /// The region whose constraints admitted the key.
        region: u64,
        /// The confirmed key.
        key: Key,
    },
    /// A region hit its iteration/time/conflict budget without concluding;
    /// mirroring the serial search, the whole run should abort as
    /// incomplete.
    Exhausted {
        /// The region whose search ran out of budget.
        region: u64,
    },
    /// The shared [`CancelToken`] fired (another worker won, or the caller
    /// aborted) before or during a region search.
    Cancelled,
}

/// What one worker did in a [`drain_regions`] call.
#[derive(Clone, Debug)]
pub struct RegionDrain {
    /// Why the drain ended.
    pub outcome: RegionDrainOutcome,
    /// Distinguishing-input iterations summed over all regions searched.
    pub iterations: usize,
    /// Regions this worker pulled (fully or partially searched).
    pub regions_searched: usize,
}

/// The region-draining worker loop, shared by the in-process pool and the
/// multi-process farm: pull regions from `source` and run key confirmation
/// for each on the worker's long-lived `session`, binding the region's
/// key-bit constraints in a retireable predicate generation.
///
/// Region `r` constrains key bit `b < partition_bits` to `(r >> b) & 1` —
/// the §VI-D partition, identical to
/// [`crate::key_confirmation::partitioned_key_search`].  Completed keyless
/// regions are acknowledged via [`RegionSource::complete_region`]; a winner
/// or a budget exhaustion ends the drain immediately (the *caller* decides
/// whether to cancel the rest of the pool).  The session must already be
/// primed and must not have a predicate generation in flight.
pub fn drain_regions(
    session: &mut AttackSession,
    oracle: &dyn Oracle,
    source: &dyn RegionSource,
    partition_bits: usize,
    config: &KeyConfirmationConfig,
    cancel: &CancelToken,
) -> RegionDrain {
    let mut iterations = 0;
    let mut regions_searched = 0;
    let outcome = loop {
        if cancel.is_cancelled() {
            break RegionDrainOutcome::Cancelled;
        }
        let Some(region) = source.next_region() else {
            break RegionDrainOutcome::Drained;
        };
        regions_searched += 1;
        let _region_span = crate::trace::span("region_drain");

        let result = key_confirmation_with_predicate_in(session, oracle, config, |s, keys| {
            for (bit, &lit) in keys.iter().enumerate().take(partition_bits) {
                let value = (region >> bit) & 1 == 1;
                s.add_clause([if value { lit } else { !lit }]);
            }
        });
        iterations += result.iterations;

        if let Some(key) = result.key {
            break RegionDrainOutcome::Winner { region, key };
        }
        if !result.completed {
            // Distinguish "the token fired and interrupted us" from a
            // genuine budget exhaustion.
            if cancel.is_cancelled() {
                break RegionDrainOutcome::Cancelled;
            }
            break RegionDrainOutcome::Exhausted { region };
        }
        let stats = session.stats();
        source.complete_region(region, result.iterations, &stats);
    };
    RegionDrain {
        outcome,
        iterations,
        regions_searched,
    }
}

/// The outcome of a [`parallel_partitioned_key_search`] run.
#[derive(Clone, Debug)]
pub struct ParallelSearchResult {
    /// The confirmed key, or `None` if no region contained one.
    pub key: Option<Key>,
    /// `true` if the search finished: either a key was confirmed or every
    /// region completed (proving no key exists).  `false` when a region hit
    /// its budgets or the partition was unenumerable.
    pub completed: bool,
    /// Distinguishing-input iterations summed across all workers.
    pub iterations: usize,
    /// Distinct patterns that reached the real oracle (cache misses).
    pub oracle_queries: usize,
    /// Oracle queries answered from the shared cache.
    pub cache_hits: usize,
    /// Regions fully or partially searched before the run ended.
    pub regions_searched: usize,
    /// Worker threads used.
    pub workers: usize,
    /// [`AttackSession`]s created over the whole run: one per worker (not one
    /// per region — regions reuse their worker's session via predicate
    /// generations).
    pub sessions_created: usize,
    /// Full circuit encodings built across all sessions: one per worker
    /// (each worker primes its session once at thread start), however many
    /// regions it went on to search.
    pub cone_encodings_built: usize,
    /// End-of-run [`SolverStats`] absorbed across every worker session:
    /// conflicts/propagations, restarts by kind, reduction rounds, tier
    /// sizes, eliminated/resurrected variables, EMA snapshots — the full
    /// counter surface, for metric export and bench gating.
    pub solver_stats: SolverStats,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// Parallel version of [`crate::key_confirmation::partitioned_key_search`]:
/// the `2^partition_bits` key-space regions are pulled from a shared work
/// queue by `workers` threads, each running key confirmation on **one
/// long-lived [`AttackSession`] per worker** (ϕ is bound and retired per
/// region via predicate generations), with a shared deduplicating oracle
/// cache and first-winner cancellation.
///
/// Each worker primes its session (full circuit encoding, key-cone sweep) at
/// thread start, so the run performs exactly `workers` session creations and
/// full encodings — deterministically, whatever the scheduler does — instead
/// of one per region.  A region whose constraints turn out contradictory
/// poisons only its own generation; the worker retires it and takes the next
/// region.
///
/// `partition_bits` is clamped to the key width; ≥ 64 effective bits returns
/// `completed: false` immediately (see the serial version for why).  One
/// worker drains the queue in the serial region order on a single session.
pub fn parallel_partitioned_key_search(
    locked: &Netlist,
    oracle: &(dyn Oracle + Sync),
    partition_bits: usize,
    workers: usize,
    config: &KeyConfirmationConfig,
) -> ParallelSearchResult {
    let start = Instant::now();
    let workers = workers.max(1);
    let partition_bits = partition_bits.min(locked.num_key_inputs());
    let empty = |completed| ParallelSearchResult {
        key: None,
        completed,
        iterations: 0,
        oracle_queries: 0,
        cache_hits: 0,
        regions_searched: 0,
        workers,
        sessions_created: 0,
        cone_encodings_built: 0,
        solver_stats: SolverStats::default(),
        elapsed: start.elapsed(),
    };
    if partition_bits >= u64::BITS as usize {
        return empty(false);
    }
    let num_regions = 1u64 << partition_bits;

    let cache = CachingOracle::new(oracle);
    let cancel = CancelToken::new();
    let source = AtomicRegionSource::new(num_regions);

    // Each worker returns what it did; the pool's totals are folded from
    // those return values once every thread has joined.
    let drains: Vec<(RegionDrain, u64, SolverStats)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // One session for this worker's whole lifetime, primed
                    // before the first region so the encoding counters are
                    // deterministic.
                    let mut session = AttackSession::new(locked);
                    session.set_interrupt(Some(cancel.as_flag()));
                    session.prime();
                    let drain = drain_regions(
                        &mut session,
                        &cache,
                        &source,
                        partition_bits,
                        config,
                        &cancel,
                    );
                    // A winner or (mirroring the serial search) a budget
                    // exhaustion anywhere ends the whole run.
                    if matches!(
                        drain.outcome,
                        RegionDrainOutcome::Winner { .. } | RegionDrainOutcome::Exhausted { .. }
                    ) {
                        cancel.cancel();
                    }
                    (drain, session.cone_encodings_built(), session.stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("parallel search worker panicked"))
            .collect()
    });

    let mut result = empty(false);
    let mut exhausted_budget = false;
    for (drain, encodings, stats) in drains {
        result.iterations += drain.iterations;
        result.regions_searched += drain.regions_searched;
        result.sessions_created += 1;
        result.cone_encodings_built += encodings as usize;
        result.solver_stats.absorb(&stats);
        match drain.outcome {
            RegionDrainOutcome::Winner { key, .. } => result.key = result.key.or(Some(key)),
            RegionDrainOutcome::Exhausted { .. } => exhausted_budget = true,
            RegionDrainOutcome::Drained | RegionDrainOutcome::Cancelled => {}
        }
    }
    result.completed = result.key.is_some()
        || (!exhausted_budget && result.regions_searched as u64 == num_regions);
    result.oracle_queries = cache.unique_queries();
    result.cache_hits = cache.hits();
    result.elapsed = start.elapsed();
    result
}

/// The outcome of a [`portfolio_sat_attack`] run.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The winning attack result (or, when nobody won, the first loser's).
    pub result: SatAttackResult,
    /// Index into the configuration slice of the racer that won.
    pub winner: Option<usize>,
    /// Racers launched.
    pub workers: usize,
    /// Distinct patterns that reached the real oracle (cache misses).
    pub oracle_queries: usize,
    /// Oracle queries answered from the shared cache.
    pub cache_hits: usize,
    /// Wall-clock time of the whole race.
    pub elapsed: Duration,
}

/// Races one SAT attack per [`SolverConfig`] on the same locked circuit and
/// returns the first success, cancelling the rest.
///
/// All racers share one [`CachingOracle`], so distinguishing inputs
/// discovered by one racer are free for the others — the portfolio costs CPU,
/// not oracle access.  When every racer fails (timeout, budget, inconsistent
/// oracle), the first failure recorded is returned with `winner: None`.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn portfolio_sat_attack(
    locked: &Netlist,
    oracle: &(dyn Oracle + Sync),
    configs: &[SolverConfig],
    attack: &SatAttackConfig,
) -> PortfolioResult {
    assert!(!configs.is_empty(), "portfolio needs at least one config");
    let start = Instant::now();
    let cache = CachingOracle::new(oracle);
    let cancel = CancelToken::new();
    let outcome: Mutex<Option<(Option<usize>, SatAttackResult)>> = Mutex::new(None);

    thread::scope(|scope| {
        for (index, solver_config) in configs.iter().enumerate() {
            let (cache, cancel, outcome) = (&cache, &cancel, &outcome);
            scope.spawn(move || {
                let mut session = AttackSession::with_config(locked, solver_config.clone());
                session.set_interrupt(Some(cancel.as_flag()));
                let result = sat_attack_in(&mut session, cache, attack);
                let mut slot = outcome.lock().expect("outcome lock poisoned");
                if result.is_success() {
                    if !matches!(&*slot, Some((Some(_), _))) {
                        *slot = Some((Some(index), result));
                        cancel.cancel();
                    }
                } else if slot.is_none() && !cancel.is_cancelled() {
                    // Remember the first genuine failure as the fallback
                    // verdict; keep racing — someone else may still win.
                    *slot = Some((None, result));
                }
            });
        }
    });

    let (winner, result) = outcome
        .into_inner()
        .expect("outcome lock poisoned")
        .expect("every racer records an outcome");
    PortfolioResult {
        result,
        winner,
        workers: configs.len(),
        oracle_queries: cache.unique_queries(),
        cache_hits: cache.hits(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_confirmation::{partitioned_key_search, KeyConfirmationConfig};
    use crate::oracle::SimOracle;
    use crate::sat_attack::SatAttackStatus;
    use locking::{LockingScheme, SfllHd, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.flag.load(Ordering::SeqCst));
    }

    #[test]
    fn caching_oracle_deduplicates_queries() {
        let nl = generate(&RandomCircuitSpec::new("cache", 6, 2, 30));
        let sim = SimOracle::new(nl.clone());
        let cache = CachingOracle::new(&sim);
        let a = vec![true, false, true, false, true, false];
        let b = vec![false; 6];
        assert_eq!(cache.query(&a), nl.evaluate(&a, &[]));
        assert_eq!(cache.query(&b), nl.evaluate(&b, &[]));
        assert_eq!(cache.query(&a), nl.evaluate(&a, &[]));
        assert_eq!(cache.unique_queries(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.num_inputs(), 6);
        assert_eq!(cache.num_outputs(), 2);
    }

    #[test]
    fn caching_oracle_dedups_batched_queries_per_pattern() {
        let nl = generate(&RandomCircuitSpec::new("cache_w", 6, 2, 30));
        let sim = SimOracle::new(nl.clone());
        let counting = crate::oracle::CountingOracle::new(sim);
        let cache = CachingOracle::new(&counting);
        // Two lanes holding the same 64 patterns: the second lane and the
        // second call must be pure cache hits.
        let mut inputs = vec![0u64; 6 * 2];
        for (i, chunk) in inputs.chunks_mut(2).enumerate() {
            let word = 0xAAAA_5555_0F0F_3C3Cu64.rotate_left(i as u32 * 7);
            chunk[0] = word;
            chunk[1] = word;
        }
        let first = cache.query_words(&inputs, 2);
        assert_eq!(first, sim_reference(&nl, &inputs, 2));
        assert!(cache.unique_queries() <= 64);
        let unique_after_first = cache.unique_queries();
        let again = cache.query_words(&inputs, 2);
        assert_eq!(again, first);
        assert_eq!(cache.unique_queries(), unique_after_first);
        // Only the distinct patterns reached the real oracle.
        assert_eq!(counting.queries(), unique_after_first);
    }

    fn sim_reference(nl: &Netlist, inputs: &[u64], width: usize) -> Vec<u64> {
        let n = nl.num_inputs();
        let mut out = vec![0u64; nl.num_outputs() * width];
        for lane in 0..width {
            for bit in 0..64 {
                let bits: Vec<bool> = (0..n)
                    .map(|i| (inputs[i * width + lane] >> bit) & 1 == 1)
                    .collect();
                for (o, &v) in nl.evaluate(&bits, &[]).iter().enumerate() {
                    out[o * width + lane] |= u64::from(v) << bit;
                }
            }
        }
        out
    }

    #[test]
    fn caching_oracle_is_consistent_under_concurrency() {
        let nl = generate(&RandomCircuitSpec::new("cache_mt", 8, 2, 40));
        let sim = SimOracle::new(nl.clone());
        let cache = CachingOracle::new(&sim);
        thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                let nl = &nl;
                scope.spawn(move || {
                    for pattern in 0..32u64 {
                        let bits = netlist::sim::pattern_to_bits(pattern ^ t, 8);
                        assert_eq!(cache.query(&bits), nl.evaluate(&bits, &[]));
                    }
                });
            }
        });
        // 4 threads × 32 overlapping patterns, but ≤ 35 distinct ones.
        assert!(cache.unique_queries() <= 35, "{}", cache.unique_queries());
        assert_eq!(cache.hits() + cache.unique_queries(), 128);
    }

    #[test]
    fn parallel_search_agrees_with_serial_across_worker_counts() {
        let original = generate(&RandomCircuitSpec::new("par_kc", 8, 2, 50));
        let locked = SfllHd::new(5, 0)
            .with_seed(2)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let config = KeyConfirmationConfig::default();
        let serial = partitioned_key_search(&locked.locked, &oracle, 2, &config);
        assert!(serial.completed);
        for workers in 1..=4 {
            let parallel =
                parallel_partitioned_key_search(&locked.locked, &oracle, 2, workers, &config);
            assert!(parallel.completed, "{workers} workers");
            let key = parallel.key.as_ref().expect("key recovered");
            assert!(
                locked.key_is_functionally_correct(key, 200, 4),
                "{workers} workers"
            );
            assert_eq!(parallel.workers, workers);
            assert!(parallel.regions_searched as u64 <= 4);
            assert_eq!(
                parallel.sessions_created, workers,
                "one session per worker, not per region"
            );
            assert_eq!(
                parallel.cone_encodings_built, workers,
                "each worker encodes the circuit exactly once"
            );
            assert!(
                parallel.solver_stats.arena_bytes > 0,
                "{workers} workers: arena footprint is reported"
            );
            assert!(
                parallel.solver_stats.recycled_vars > 0,
                "{workers} workers: retired generations recycle their variables"
            );
        }
    }

    #[test]
    fn parallel_search_reports_exhausted_key_space() {
        // An oracle for an unrelated circuit: no key in any region works.
        let original = generate(&RandomCircuitSpec::new("par_none", 8, 2, 50));
        let unrelated = generate(&RandomCircuitSpec::new("par_none2", 8, 2, 50).with_seed(7));
        let locked = XorLock::new(4).with_seed(3).lock(&original).expect("lock");
        let oracle = SimOracle::new(unrelated);
        let result = parallel_partitioned_key_search(
            &locked.locked,
            &oracle,
            2,
            2,
            &KeyConfirmationConfig::default(),
        );
        assert!(result.completed);
        assert_eq!(result.key, None);
        assert_eq!(result.regions_searched, 4);
    }

    #[test]
    fn parallel_search_guards_unenumerable_partitions() {
        let (locked, original) = crate::test_fixtures::wide_key_circuit_and_original();
        let oracle = SimOracle::new(original);
        let result = parallel_partitioned_key_search(
            &locked,
            &oracle,
            usize::MAX,
            4,
            &KeyConfirmationConfig::default(),
        );
        assert!(!result.completed);
        assert_eq!(result.key, None);
        assert_eq!(result.regions_searched, 0);
    }

    #[test]
    fn portfolio_first_winner_takes_it() {
        let original = generate(&RandomCircuitSpec::new("pf", 8, 3, 60));
        let locked = XorLock::new(6).with_seed(5).lock(&original).expect("lock");
        let oracle = SimOracle::new(original.clone());
        let outcome = portfolio_sat_attack(
            &locked.locked,
            &oracle,
            &SolverConfig::portfolio(3),
            &SatAttackConfig::default(),
        );
        assert!(outcome.result.is_success(), "{:?}", outcome.result.status);
        assert!(outcome.winner.is_some());
        assert_eq!(outcome.workers, 3);
        let key = outcome.result.key.expect("key");
        for pattern in 0..256u64 {
            let bits = netlist::sim::pattern_to_bits(pattern, 8);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
    }

    #[test]
    fn portfolio_reports_failure_when_nobody_wins() {
        let original = generate(&RandomCircuitSpec::new("pf_fail", 10, 2, 70));
        let locked = SfllHd::new(9, 0)
            .with_seed(3)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let attack = SatAttackConfig {
            max_iterations: 3,
            time_limit: None,
            conflict_budget: None,
        };
        let outcome = portfolio_sat_attack(
            &locked.locked,
            &oracle,
            &SolverConfig::portfolio(2),
            &attack,
        );
        assert!(outcome.winner.is_none());
        assert_eq!(outcome.result.status, SatAttackStatus::IterationLimit);
    }
}
