//! The oracle-guided SAT attack (Subramanyan, Ray & Malik, HOST 2015).
//!
//! This is the baseline every SAT-resilient scheme is designed against and
//! the comparison point of Figures 5 and 6.  The attack iteratively finds
//! *distinguishing input patterns* — inputs on which two key classes produce
//! different outputs — queries the oracle, and constrains the key space with
//! the observed I/O pair, until no distinguishing input remains.

use std::time::{Duration, Instant};

use locking::Key;
use netlist::Netlist;
use sat::SolveResult;

use crate::oracle::Oracle;
use crate::session::AttackSession;

/// Configuration for the SAT attack.
#[derive(Clone, Debug)]
pub struct SatAttackConfig {
    /// Abort after this many distinguishing-input iterations.
    pub max_iterations: usize,
    /// Wall-clock time limit (the paper uses 1000 s).
    pub time_limit: Option<Duration>,
    /// Conflict budget per individual SAT call; `None` means unlimited.
    pub conflict_budget: Option<u64>,
}

impl Default for SatAttackConfig {
    fn default() -> SatAttackConfig {
        SatAttackConfig {
            max_iterations: 100_000,
            time_limit: Some(Duration::from_secs(1000)),
            conflict_budget: None,
        }
    }
}

impl SatAttackConfig {
    /// A configuration with the given wall-clock time limit.
    pub fn with_time_limit(limit: Duration) -> SatAttackConfig {
        SatAttackConfig {
            time_limit: Some(limit),
            ..SatAttackConfig::default()
        }
    }
}

/// Why the SAT attack stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatAttackStatus {
    /// No distinguishing input remains; the returned key is provably correct
    /// (relative to the oracle).
    Success,
    /// The time limit or conflict budget was exhausted first.
    TimedOut,
    /// The iteration cap was reached.
    IterationLimit,
    /// The key-consistency formula became unsatisfiable, which indicates the
    /// oracle does not correspond to the locked circuit.
    Inconsistent,
}

/// The outcome of a SAT attack run.
#[derive(Clone, Debug)]
pub struct SatAttackResult {
    /// The recovered key, if the attack completed.
    pub key: Option<Key>,
    /// Termination reason.
    pub status: SatAttackStatus,
    /// Number of distinguishing-input iterations performed.
    pub iterations: usize,
    /// Number of oracle queries issued.
    pub oracle_queries: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl SatAttackResult {
    /// Returns `true` if a provably correct key was produced.
    pub fn is_success(&self) -> bool {
        self.status == SatAttackStatus::Success && self.key.is_some()
    }
}

/// Runs the SAT attack against a locked netlist using an I/O oracle.
///
/// The attack runs through one persistent [`AttackSession`]: the two
/// shared-input circuit copies are encoded once, the distinguishing-input
/// loop performs **zero** solver allocations (each iteration adds only the
/// constant-folded key cone of the observed I/O pair), and the final key is
/// extracted from the same solver after retiring the difference constraint —
/// so every learnt clause from the DIP search keeps working for the
/// extraction query.
///
/// # Panics
///
/// Panics if the oracle input width differs from the locked circuit's.
pub fn sat_attack(
    locked: &Netlist,
    oracle: &dyn Oracle,
    config: &SatAttackConfig,
) -> SatAttackResult {
    let mut session = AttackSession::new(locked);
    sat_attack_in(&mut session, oracle, config)
}

/// Runs the SAT attack through an existing session (see [`sat_attack`]).
///
/// # Panics
///
/// Panics if the oracle input width differs from the locked circuit's.
pub fn sat_attack_in(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    config: &SatAttackConfig,
) -> SatAttackResult {
    assert_eq!(
        oracle.num_inputs(),
        session.netlist().num_inputs(),
        "oracle width does not match the locked circuit"
    );
    let start = Instant::now();
    session.set_conflict_budget(config.conflict_budget);

    let mut iterations = 0usize;
    let mut oracle_queries = 0usize;

    let timed_out = |start: &Instant| {
        config
            .time_limit
            .is_some_and(|limit| start.elapsed() >= limit)
    };
    let stopped = |status, iterations, oracle_queries, elapsed| SatAttackResult {
        key: None,
        status,
        iterations,
        oracle_queries,
        elapsed,
    };

    loop {
        if iterations >= config.max_iterations {
            return stopped(
                SatAttackStatus::IterationLimit,
                iterations,
                oracle_queries,
                start.elapsed(),
            );
        }
        if timed_out(&start) {
            return stopped(
                SatAttackStatus::TimedOut,
                iterations,
                oracle_queries,
                start.elapsed(),
            );
        }
        let dip_span = crate::trace::span("dip_iteration");
        match session.find_dip() {
            SolveResult::Unknown => {
                return stopped(
                    SatAttackStatus::TimedOut,
                    iterations,
                    oracle_queries,
                    start.elapsed(),
                )
            }
            SolveResult::Unsat => break,
            SolveResult::Sat => {}
        }
        iterations += 1;
        let distinguishing_input = session.dip_inputs();
        let observed_output = {
            let _span = crate::trace::span("oracle_query");
            oracle.query(&distinguishing_input)
        };
        oracle_queries += 1;
        session.force_dip(&distinguishing_input, &observed_output);
        drop(dip_span);
    }

    // No distinguishing input remains: any key satisfying the accumulated I/O
    // constraints is functionally correct.  The difference constraint is
    // retired and `K1` — already constrained by every observed pair — is
    // extracted from the same solver.
    let (result, key) = session.extract_key();
    match result {
        SolveResult::Sat => SatAttackResult {
            key,
            status: SatAttackStatus::Success,
            iterations,
            oracle_queries,
            elapsed: start.elapsed(),
        },
        SolveResult::Unsat => stopped(
            SatAttackStatus::Inconsistent,
            iterations,
            oracle_queries,
            start.elapsed(),
        ),
        SolveResult::Unknown => stopped(
            SatAttackStatus::TimedOut,
            iterations,
            oracle_queries,
            start.elapsed(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{
        constrain_equal_const, instantiate, instantiate_sharing_inputs, instantiate_sharing_keys,
        model_key, model_values,
    };
    use crate::oracle::{CountingOracle, SimOracle};
    use locking::{LockingScheme, SfllHd, XorLock};
    use netlist::cnf::encode_any_difference;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use sat::Solver;

    /// The pre-session SAT attack: fresh solvers and full re-encoding per
    /// query, kept as the differential-testing reference for [`sat_attack`].
    fn sat_attack_fresh(
        locked: &Netlist,
        oracle: &dyn Oracle,
        config: &SatAttackConfig,
    ) -> SatAttackResult {
        assert_eq!(
            oracle.num_inputs(),
            locked.num_inputs(),
            "oracle width does not match the locked circuit"
        );
        let start = Instant::now();

        // Distinguishing-input solver: two copies sharing X, with differing outputs.
        let mut dis_solver = Solver::new();
        dis_solver.set_conflict_budget(config.conflict_budget);
        let copy1 = instantiate(locked, &mut dis_solver);
        let copy2 = instantiate_sharing_inputs(locked, &mut dis_solver, &copy1.inputs);
        let diff = encode_any_difference(&mut dis_solver, &copy1.outputs, &copy2.outputs);
        dis_solver.add_clause([diff]);

        // Key solver: accumulates C(Xd, K, Yd) constraints for the final key.
        let mut key_solver = Solver::new();
        key_solver.set_conflict_budget(config.conflict_budget);
        let key_copy = instantiate(locked, &mut key_solver);
        let key_lits = key_copy.keys.clone();

        let mut iterations = 0usize;
        let mut oracle_queries = 0usize;

        let timed_out = |start: &Instant| {
            config
                .time_limit
                .is_some_and(|limit| start.elapsed() >= limit)
        };

        loop {
            if iterations >= config.max_iterations {
                return SatAttackResult {
                    key: None,
                    status: SatAttackStatus::IterationLimit,
                    iterations,
                    oracle_queries,
                    elapsed: start.elapsed(),
                };
            }
            if timed_out(&start) {
                return SatAttackResult {
                    key: None,
                    status: SatAttackStatus::TimedOut,
                    iterations,
                    oracle_queries,
                    elapsed: start.elapsed(),
                };
            }
            match dis_solver.solve() {
                SolveResult::Unknown => {
                    return SatAttackResult {
                        key: None,
                        status: SatAttackStatus::TimedOut,
                        iterations,
                        oracle_queries,
                        elapsed: start.elapsed(),
                    }
                }
                SolveResult::Unsat => break,
                SolveResult::Sat => {}
            }
            iterations += 1;
            let distinguishing_input = model_values(&dis_solver, &copy1.inputs);
            let observed_output = oracle.query(&distinguishing_input);
            oracle_queries += 1;

            // Constrain both key copies of the distinguishing solver and the key
            // solver with the observed I/O behaviour.
            for keys in [&copy1.keys, &copy2.keys] {
                let constrained = instantiate_sharing_keys(locked, &mut dis_solver, keys);
                constrain_equal_const(&mut dis_solver, &constrained.inputs, &distinguishing_input);
                constrain_equal_const(&mut dis_solver, &constrained.outputs, &observed_output);
            }
            let key_constrained = instantiate_sharing_keys(locked, &mut key_solver, &key_lits);
            constrain_equal_const(
                &mut key_solver,
                &key_constrained.inputs,
                &distinguishing_input,
            );
            constrain_equal_const(&mut key_solver, &key_constrained.outputs, &observed_output);
        }

        // No distinguishing input remains: any key satisfying the accumulated I/O
        // constraints is functionally correct.
        match key_solver.solve() {
            SolveResult::Sat => SatAttackResult {
                key: Some(model_key(&key_solver, &key_lits)),
                status: SatAttackStatus::Success,
                iterations,
                oracle_queries,
                elapsed: start.elapsed(),
            },
            SolveResult::Unsat => SatAttackResult {
                key: None,
                status: SatAttackStatus::Inconsistent,
                iterations,
                oracle_queries,
                elapsed: start.elapsed(),
            },
            SolveResult::Unknown => SatAttackResult {
                key: None,
                status: SatAttackStatus::TimedOut,
                iterations,
                oracle_queries,
                elapsed: start.elapsed(),
            },
        }
    }

    #[test]
    fn breaks_random_xor_locking() {
        let original = generate(&RandomCircuitSpec::new("sa_xor", 8, 3, 60));
        let locked = XorLock::new(8).with_seed(5).lock(&original).expect("lock");
        let oracle = CountingOracle::new(SimOracle::new(original.clone()));
        let result = sat_attack(&locked.locked, &oracle, &SatAttackConfig::default());
        assert!(result.is_success(), "status {:?}", result.status);
        let key = result.key.expect("key");
        // The recovered key need not be bit-identical to the inserted one but
        // must be functionally correct.
        for pattern in 0..256u64 {
            let bits = pattern_to_bits(pattern, 8);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
        assert_eq!(result.oracle_queries, result.iterations);
        assert!(result.oracle_queries > 0);
    }

    #[test]
    fn needs_many_iterations_on_sfll() {
        // SFLL-HD0 with a 10-bit key: each wrong key is ruled out one
        // distinguishing input at a time, so the SAT attack needs on the
        // order of 2^10 iterations — this is the resilience property.  With a
        // small iteration cap the attack must fail.
        let original = generate(&RandomCircuitSpec::new("sa_sfll", 12, 2, 80));
        let locked = SfllHd::new(10, 0)
            .with_seed(3)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let config = SatAttackConfig {
            max_iterations: 20,
            time_limit: None,
            conflict_budget: None,
        };
        let result = sat_attack(&locked.locked, &oracle, &config);
        assert_eq!(result.status, SatAttackStatus::IterationLimit);
        assert!(result.key.is_none());
    }

    #[test]
    fn succeeds_on_small_sfll_instances_eventually() {
        // With a tiny key the SAT attack still wins — resilience is about
        // scaling, not impossibility.
        let original = generate(&RandomCircuitSpec::new("sa_small", 8, 2, 50));
        let locked = SfllHd::new(4, 0)
            .with_seed(11)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original.clone());
        let result = sat_attack(&locked.locked, &oracle, &SatAttackConfig::default());
        assert!(result.is_success());
        let key = result.key.expect("key");
        for pattern in 0..256u64 {
            let bits = pattern_to_bits(pattern, 8);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
    }

    #[test]
    fn incremental_and_fresh_attacks_agree() {
        // Differential test: both implementations must succeed and produce
        // functionally correct keys on the same instances (the recovered key
        // bits may legitimately differ when several keys are correct).
        for (seed, key_bits) in [(5u64, 4usize), (9, 5), (13, 6)] {
            let original = generate(&RandomCircuitSpec::new("sa_diff", 8, 3, 60));
            let locked = XorLock::new(key_bits)
                .with_seed(seed)
                .lock(&original)
                .expect("lock");
            let oracle = SimOracle::new(original.clone());
            let incremental = sat_attack(&locked.locked, &oracle, &SatAttackConfig::default());
            let fresh = sat_attack_fresh(&locked.locked, &oracle, &SatAttackConfig::default());
            assert!(
                incremental.is_success(),
                "incremental: {:?}",
                incremental.status
            );
            assert!(fresh.is_success(), "fresh: {:?}", fresh.status);
            for result in [&incremental, &fresh] {
                let key = result.key.as_ref().expect("key");
                for pattern in 0..256u64 {
                    let bits = pattern_to_bits(pattern, 8);
                    assert_eq!(
                        locked.locked.evaluate(&bits, key.bits()),
                        original.evaluate(&bits, &[]),
                        "seed {seed} pattern {pattern:08b}"
                    );
                }
            }
        }
    }

    #[test]
    fn inconsistent_oracle_is_detected() {
        // An oracle for a *different* circuit: the accumulated I/O pairs
        // eventually contradict the locked structure.
        let original = generate(&RandomCircuitSpec::new("sa_bad", 8, 3, 60));
        let unrelated = generate(&RandomCircuitSpec::new("sa_bad2", 8, 3, 60).with_seed(99));
        let locked = XorLock::new(4).with_seed(5).lock(&original).expect("lock");
        let oracle = SimOracle::new(unrelated);
        let result = sat_attack(&locked.locked, &oracle, &SatAttackConfig::default());
        // Either the constraints become contradictory, or a "key" survives
        // that at least matches all queried patterns; both are acceptable
        // outcomes, but a crash or hang is not.
        assert!(matches!(
            result.status,
            SatAttackStatus::Inconsistent | SatAttackStatus::Success
        ));
    }

    #[test]
    fn time_limit_is_respected() {
        let original = generate(&RandomCircuitSpec::new("sa_to", 14, 2, 100));
        let locked = SfllHd::new(12, 0)
            .with_seed(7)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let config = SatAttackConfig::with_time_limit(Duration::from_millis(50));
        let result = sat_attack(&locked.locked, &oracle, &config);
        assert!(matches!(
            result.status,
            SatAttackStatus::TimedOut | SatAttackStatus::Success
        ));
        if result.status == SatAttackStatus::TimedOut {
            assert!(result.elapsed >= Duration::from_millis(50));
        }
    }
}
