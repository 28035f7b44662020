//! Key confirmation (§ V, Algorithm 4).
//!
//! Given a predicate ϕ over keys (typically "the key is one of these
//! shortlisted values") and an I/O oracle, key confirmation either returns a
//! key satisfying ϕ that is provably correct for the oracle, or ⊥ if no key
//! in ϕ is correct.  Unlike the plain SAT attack, it distinguishes "no key in
//! ϕ is consistent" from "no distinguishing input remains", and it restricts
//! the search to ϕ, which is why it is orders of magnitude faster (Figure 6).

use std::time::{Duration, Instant};

use locking::Key;
use netlist::{Netlist, WideSim};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sat::{Lit, SolveResult, Solver};

use crate::oracle::Oracle;
use crate::session::{AttackSession, KeyVector};

/// Configuration for key confirmation.
#[derive(Clone, Debug)]
pub struct KeyConfirmationConfig {
    /// Abort after this many distinguishing-input iterations.
    pub max_iterations: usize,
    /// Wall-clock time limit.
    pub time_limit: Option<Duration>,
    /// Conflict budget per individual SAT call.
    pub conflict_budget: Option<u64>,
    /// Words of random stimulus for the word-batched shortlist prescreen:
    /// before the P/Q loop, `screen_words * 64` probe patterns are shipped to
    /// the oracle in one [`Oracle::query_words`] call and every shortlisted
    /// key whose simulated responses differ is eliminated (the mismatching
    /// probe is a concrete counterexample, so this never discards a correct
    /// key).  `0` (the default) disables the screen, leaving the query
    /// trajectory of the P/Q loop untouched.
    pub screen_words: usize,
}

impl Default for KeyConfirmationConfig {
    fn default() -> KeyConfirmationConfig {
        KeyConfirmationConfig {
            max_iterations: 100_000,
            time_limit: Some(Duration::from_secs(1000)),
            conflict_budget: None,
            screen_words: 0,
        }
    }
}

/// The outcome of a key-confirmation run.
#[derive(Clone, Debug)]
pub struct KeyConfirmationResult {
    /// The confirmed key, or `None` (⊥) if no shortlisted key is correct.
    pub key: Option<Key>,
    /// `true` if the run finished (either way) within its budgets.
    pub completed: bool,
    /// Number of distinguishing-input iterations performed.
    pub iterations: usize,
    /// Number of oracle queries issued.
    pub oracle_queries: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Runs key confirmation over an explicit shortlist of suspected keys.
///
/// This is the common case in the FALL flow: ϕ is the disjunction of the key
/// values produced by the functional analyses.  See
/// [`key_confirmation_with_predicate`] for the general form.
///
/// # Panics
///
/// Panics if the shortlist is empty or a key width does not match the locked
/// circuit.
pub fn key_confirmation(
    locked: &Netlist,
    oracle: &dyn Oracle,
    suspected_keys: &[Key],
    config: &KeyConfirmationConfig,
) -> KeyConfirmationResult {
    let mut session = AttackSession::new(locked);
    key_confirmation_in(&mut session, oracle, suspected_keys, config)
}

/// Runs key confirmation over a shortlist through an existing session (see
/// [`key_confirmation`]).
///
/// # Panics
///
/// Panics if the shortlist is empty or a key width does not match the locked
/// circuit.
pub fn key_confirmation_in(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    suspected_keys: &[Key],
    config: &KeyConfirmationConfig,
) -> KeyConfirmationResult {
    assert!(!suspected_keys.is_empty(), "shortlist must not be empty");
    for key in suspected_keys {
        assert_eq!(
            key.len(),
            session.netlist().num_key_inputs(),
            "suspected key width does not match the circuit"
        );
    }
    let start = Instant::now();
    let screened: Vec<Key>;
    let suspected_keys = if config.screen_words > 0 && suspected_keys.len() > 1 {
        screened = screen_shortlist(
            session.netlist(),
            oracle,
            suspected_keys,
            config.screen_words,
        );
        if screened.is_empty() {
            // Every shortlisted key was refuted by an explicit probe: ⊥,
            // with the counterexamples standing in for the P/Q loop's proof.
            return KeyConfirmationResult {
                key: None,
                completed: true,
                iterations: 0,
                oracle_queries: 0,
                elapsed: start.elapsed(),
            };
        }
        screened.as_slice()
    } else {
        suspected_keys
    };
    key_confirmation_with_predicate_in(session, oracle, config, |solver, key_lits| {
        add_shortlist_phi(solver, key_lits, suspected_keys);
    })
}

/// Seed of the prescreen's probe block (fixed for reproducible trajectories).
const SCREEN_SEED: u64 = 0xFA11_0BA7;

/// Word-batched shortlist prescreen: ships `words * 64` random probe
/// patterns to the oracle in one [`Oracle::query_words`] call, simulates the
/// locked circuit under each shortlisted key over the same block, and keeps
/// only the keys whose responses match everywhere.
///
/// Purely an *eliminator*: a mismatching probe is a concrete counterexample,
/// so a correct key always survives, while survivors still need the P/Q loop
/// for an actual proof of correctness.
fn screen_shortlist(locked: &Netlist, oracle: &dyn Oracle, keys: &[Key], words: usize) -> Vec<Key> {
    let mut rng = ChaCha8Rng::seed_from_u64(SCREEN_SEED);
    let probes: Vec<u64> = (0..locked.num_inputs() * words)
        .map(|_| rng.gen())
        .collect();
    let observed = oracle.query_words(&probes, words);
    let mut sim = WideSim::new(locked, words);
    let mut responses = Vec::with_capacity(locked.num_outputs() * words);
    keys.iter()
        .filter(|key| {
            let key_words: Vec<u64> = key
                .bits()
                .iter()
                .flat_map(|&b| std::iter::repeat_n(if b { !0u64 } else { 0 }, words))
                .collect();
            sim.run(locked, &probes, &key_words)
                .expect("probe block matches the circuit width");
            responses.clear();
            sim.extend_with_outputs(locked, &mut responses);
            responses == observed
        })
        .cloned()
        .collect()
}

/// Encodes ϕ(K) = OR over shortlisted keys of (K == key_j), with one
/// selector variable per shortlisted key.
///
/// Shared by the session path and the fresh baseline so the two stay
/// provably identical for differential testing.
fn add_shortlist_phi(solver: &mut Solver, key_lits: &[Lit], suspected_keys: &[Key]) {
    let selectors: Vec<Lit> = suspected_keys
        .iter()
        .map(|key| {
            let selector = Lit::positive(solver.new_var());
            for (&lit, &bit) in key_lits.iter().zip(key.bits()) {
                solver.add_clause([!selector, if bit { lit } else { !lit }]);
            }
            selector
        })
        .collect();
    solver.add_clause(selectors);
}

/// Runs key confirmation with an arbitrary key predicate ϕ.
///
/// `add_phi` receives the key-candidate solver and the literals of `K1` and
/// must add clauses constraining them; passing a no-op closure makes the
/// algorithm equivalent to the plain SAT attack (ϕ = true).
pub fn key_confirmation_with_predicate<F>(
    locked: &Netlist,
    oracle: &dyn Oracle,
    config: &KeyConfirmationConfig,
    add_phi: F,
) -> KeyConfirmationResult
where
    F: FnOnce(&mut Solver, &[Lit]),
{
    let mut session = AttackSession::new(locked);
    key_confirmation_with_predicate_in(&mut session, oracle, config, add_phi)
}

/// Session-based key confirmation with an arbitrary predicate ϕ.
///
/// The whole algorithm runs inside one persistent solver: the two-copy
/// distinguishing formula `Q` is encoded once with its difference constraint
/// scoped to an activation frame, the predicate vector `Kϕ` carries ϕ plus
/// the accumulated I/O pairs, and the `P`/`Q` queries of Algorithm 4
/// alternate on the same solver — `P` with the difference constraint dormant,
/// `Q` with it activated and `K1` assumed equal to the candidate.  Learnt
/// clauses from either query speed up the other; per-iteration I/O pairs are
/// constant-folded so only the key cone is encoded.
///
/// ϕ and the I/O pairs observed during this run live in a *predicate
/// generation* ([`AttackSession::begin_predicate`]) that is retired before
/// returning, so the same session can run any number of confirmations — the
/// parallel engine's workers confirm one key-space region after another on
/// one long-lived session this way, keeping their circuit encodings and
/// frame-independent learnt clauses throughout.
///
/// # Panics
///
/// Panics if a predicate generation is already active on `session`.
pub fn key_confirmation_with_predicate_in<F>(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    config: &KeyConfirmationConfig,
    add_phi: F,
) -> KeyConfirmationResult
where
    F: FnOnce(&mut Solver, &[Lit]),
{
    assert_eq!(
        oracle.num_inputs(),
        session.netlist().num_inputs(),
        "oracle width does not match the locked circuit"
    );
    // The clock covers the whole run — including the circuit encoding a
    // fresh session performs in begin_predicate and the ϕ encoding — so the
    // time limit and the reported elapsed keep their pre-generation meaning.
    let start = Instant::now();
    session.set_conflict_budget(config.conflict_budget);
    let _phi_keys = session.begin_predicate();
    session.add_predicate_clauses(add_phi);
    let result = confirmation_loop(session, oracle, config, start);
    session.retire_predicate();
    result
}

/// The P/Q loop of Algorithm 4, run inside an already-open generation.
fn confirmation_loop(
    session: &mut AttackSession<'_>,
    oracle: &dyn Oracle,
    config: &KeyConfirmationConfig,
    start: Instant,
) -> KeyConfirmationResult {
    let mut iterations = 0usize;
    let mut oracle_queries = 0usize;
    let unfinished =
        |key: Option<Key>, iterations, oracle_queries, elapsed| KeyConfirmationResult {
            key,
            completed: false,
            iterations,
            oracle_queries,
            elapsed,
        };

    loop {
        if iterations >= config.max_iterations
            || config
                .time_limit
                .is_some_and(|limit| start.elapsed() >= limit)
        {
            return unfinished(None, iterations, oracle_queries, start.elapsed());
        }

        // Line 6: extract a candidate key consistent with ϕ and the I/O pairs.
        let candidate = match session.candidate_key() {
            (SolveResult::Unsat, _) => {
                // ⊥: no key satisfying ϕ is consistent with the oracle.
                return KeyConfirmationResult {
                    key: None,
                    completed: true,
                    iterations,
                    oracle_queries,
                    elapsed: start.elapsed(),
                };
            }
            (SolveResult::Unknown, _) => {
                return unfinished(None, iterations, oracle_queries, start.elapsed())
            }
            (SolveResult::Sat, key) => key.expect("sat result carries a key"),
        };

        // Line 10: look for a distinguishing input with K1 fixed to the candidate.
        match session.find_dip_against(&candidate) {
            SolveResult::Unsat => {
                // No distinguishing input remains: the candidate is correct.
                return KeyConfirmationResult {
                    key: Some(candidate),
                    completed: true,
                    iterations,
                    oracle_queries,
                    elapsed: start.elapsed(),
                };
            }
            SolveResult::Unknown => {
                return unfinished(None, iterations, oracle_queries, start.elapsed())
            }
            SolveResult::Sat => {}
        }
        iterations += 1;
        let distinguishing_input = session.dip_inputs();
        let observed_output = oracle.query(&distinguishing_input);
        oracle_queries += 1;

        // Lines 15–16: add the observed I/O pair to both formulas.
        session.constrain_key_with_io(
            KeyVector::Predicate,
            &distinguishing_input,
            &observed_output,
        );
        session.constrain_key_with_io(KeyVector::B, &distinguishing_input, &observed_output);
    }
}

/// Future-work extension from § VI-D: partitions the key space into
/// `2^partition_bits` regions by fixing the first key bits and runs key
/// confirmation on each region in turn, returning the first confirmed key.
///
/// This demonstrates how ϕ can be used to parallelise the SAT attack; the
/// regions are independent and [`crate::parallel::parallel_partitioned_key_search`]
/// dispatches them to worker threads.
///
/// `partition_bits` is clamped to the key width.  Requesting 64 or more
/// effective partition bits would mean enumerating ≥ 2⁶⁴ regions (and
/// overflows the region counter), so such calls return immediately with
/// `completed: false` instead of panicking or silently wrapping.
pub fn partitioned_key_search(
    locked: &Netlist,
    oracle: &dyn Oracle,
    partition_bits: usize,
    config: &KeyConfirmationConfig,
) -> KeyConfirmationResult {
    let width = locked.num_key_inputs();
    let partition_bits = partition_bits.min(width);
    let start = Instant::now();
    if partition_bits >= u64::BITS as usize {
        return KeyConfirmationResult {
            key: None,
            completed: false,
            iterations: 0,
            oracle_queries: 0,
            elapsed: start.elapsed(),
        };
    }
    let mut total_iterations = 0usize;
    let mut total_queries = 0usize;
    for region in 0..(1u64 << partition_bits) {
        let result = key_confirmation_with_predicate(locked, oracle, config, |solver, keys| {
            for (bit, &lit) in keys.iter().enumerate().take(partition_bits) {
                let value = (region >> bit) & 1 == 1;
                solver.add_clause([if value { lit } else { !lit }]);
            }
        });
        total_iterations += result.iterations;
        total_queries += result.oracle_queries;
        if result.key.is_some() {
            return KeyConfirmationResult {
                iterations: total_iterations,
                oracle_queries: total_queries,
                elapsed: start.elapsed(),
                ..result
            };
        }
        if !result.completed {
            return KeyConfirmationResult {
                key: None,
                completed: false,
                iterations: total_iterations,
                oracle_queries: total_queries,
                elapsed: start.elapsed(),
            };
        }
    }
    KeyConfirmationResult {
        key: None,
        completed: true,
        iterations: total_iterations,
        oracle_queries: total_queries,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{
        assumptions_for, constrain_equal_const, instantiate, instantiate_sharing_inputs,
        instantiate_sharing_keys, model_key, model_values,
    };
    use crate::oracle::SimOracle;
    use locking::{LockingScheme, SfllHd, TtLock, XorLock};
    use netlist::cnf::encode_any_difference;
    use netlist::random::{generate, RandomCircuitSpec};

    /// The pre-session key confirmation: two dedicated solvers and full
    /// re-encoding per query, kept as the differential-testing reference for
    /// [`key_confirmation`].
    fn key_confirmation_fresh(
        locked: &Netlist,
        oracle: &dyn Oracle,
        suspected_keys: &[Key],
        config: &KeyConfirmationConfig,
    ) -> KeyConfirmationResult {
        assert!(!suspected_keys.is_empty(), "shortlist must not be empty");
        assert_eq!(
            oracle.num_inputs(),
            locked.num_inputs(),
            "oracle width does not match the locked circuit"
        );
        let start = Instant::now();

        // P: produces candidate keys consistent with ϕ and the observed I/O pairs.
        let mut p_solver = Solver::new();
        p_solver.set_conflict_budget(config.conflict_budget);
        let p_keys: Vec<Lit> = (0..locked.num_key_inputs())
            .map(|_| Lit::positive(p_solver.new_var()))
            .collect();
        add_shortlist_phi(&mut p_solver, &p_keys, suspected_keys);

        // Q: produces distinguishing inputs between K1 (assumed equal to the
        // candidate) and any other key K2 consistent with the observed I/O pairs.
        let mut q_solver = Solver::new();
        q_solver.set_conflict_budget(config.conflict_budget);
        let q_copy1 = instantiate(locked, &mut q_solver);
        let q_copy2 = instantiate_sharing_inputs(locked, &mut q_solver, &q_copy1.inputs);
        let diff = encode_any_difference(&mut q_solver, &q_copy1.outputs, &q_copy2.outputs);
        q_solver.add_clause([diff]);

        let mut iterations = 0usize;
        let mut oracle_queries = 0usize;
        let unfinished =
            |key: Option<Key>, iterations, oracle_queries, elapsed| KeyConfirmationResult {
                key,
                completed: false,
                iterations,
                oracle_queries,
                elapsed,
            };

        loop {
            if iterations >= config.max_iterations
                || config
                    .time_limit
                    .is_some_and(|limit| start.elapsed() >= limit)
            {
                return unfinished(None, iterations, oracle_queries, start.elapsed());
            }

            let candidate = match p_solver.solve() {
                SolveResult::Unsat => {
                    return KeyConfirmationResult {
                        key: None,
                        completed: true,
                        iterations,
                        oracle_queries,
                        elapsed: start.elapsed(),
                    };
                }
                SolveResult::Unknown => {
                    return unfinished(None, iterations, oracle_queries, start.elapsed())
                }
                SolveResult::Sat => model_key(&p_solver, &p_keys),
            };

            let assumptions = assumptions_for(&q_copy1.keys, candidate.bits());
            match q_solver.solve_with(&assumptions) {
                SolveResult::Unsat => {
                    return KeyConfirmationResult {
                        key: Some(candidate),
                        completed: true,
                        iterations,
                        oracle_queries,
                        elapsed: start.elapsed(),
                    };
                }
                SolveResult::Unknown => {
                    return unfinished(None, iterations, oracle_queries, start.elapsed())
                }
                SolveResult::Sat => {}
            }
            iterations += 1;
            let distinguishing_input = model_values(&q_solver, &q_copy1.inputs);
            let observed_output = oracle.query(&distinguishing_input);
            oracle_queries += 1;

            let p_constrained = instantiate_sharing_keys(locked, &mut p_solver, &p_keys);
            constrain_equal_const(&mut p_solver, &p_constrained.inputs, &distinguishing_input);
            constrain_equal_const(&mut p_solver, &p_constrained.outputs, &observed_output);

            let q_constrained = instantiate_sharing_keys(locked, &mut q_solver, &q_copy2.keys);
            constrain_equal_const(&mut q_solver, &q_constrained.inputs, &distinguishing_input);
            constrain_equal_const(&mut q_solver, &q_constrained.outputs, &observed_output);
        }
    }

    fn locked_sfll(h: usize) -> (netlist::Netlist, locking::LockedCircuit) {
        let original = generate(&RandomCircuitSpec::new("kc", 12, 3, 80));
        let locked = SfllHd::new(10, h)
            .with_seed(23)
            .lock(&original)
            .expect("lock");
        (original, locked)
    }

    #[test]
    fn confirms_the_correct_key_among_decoys() {
        let (original, locked) = locked_sfll(1);
        let oracle = SimOracle::new(original);
        let shortlist = vec![
            locked.key.complement(),
            Key::zeros(10),
            locked.key.clone(),
            Key::from_pattern(0x2A5, 10),
        ];
        let result = key_confirmation(
            &locked.locked,
            &oracle,
            &shortlist,
            &KeyConfirmationConfig::default(),
        );
        assert!(result.completed);
        assert_eq!(result.key, Some(locked.key.clone()));
    }

    #[test]
    fn returns_bottom_when_no_shortlisted_key_is_correct() {
        let (original, locked) = locked_sfll(0);
        let oracle = SimOracle::new(original);
        let shortlist = vec![locked.key.complement(), Key::zeros(10)];
        let result = key_confirmation(
            &locked.locked,
            &oracle,
            &shortlist,
            &KeyConfirmationConfig::default(),
        );
        assert!(result.completed);
        assert_eq!(result.key, None, "wrong guesses must be detected");
    }

    #[test]
    fn works_on_sat_resilient_ttlock_circuits() {
        let original = generate(&RandomCircuitSpec::new("kc_tt", 10, 2, 60));
        let locked = TtLock::new(8).with_seed(5).lock(&original).expect("lock");
        let oracle = SimOracle::new(original);
        let shortlist = vec![locked.key.clone(), locked.key.complement()];
        let result = key_confirmation(
            &locked.locked,
            &oracle,
            &shortlist,
            &KeyConfirmationConfig::default(),
        );
        assert!(result.completed);
        assert_eq!(result.key, Some(locked.key.clone()));
        // Point-function schemes can force many distinguishing inputs, but the
        // candidate pool itself never leaves the two-element shortlist.
        assert!(
            result.oracle_queries <= 1 << locked.key.len(),
            "used {} queries",
            result.oracle_queries
        );
    }

    #[test]
    fn predicate_true_behaves_like_the_sat_attack() {
        let original = generate(&RandomCircuitSpec::new("kc_free", 8, 2, 50));
        let locked = SfllHd::new(4, 0)
            .with_seed(9)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original.clone());
        let result = key_confirmation_with_predicate(
            &locked.locked,
            &oracle,
            &KeyConfirmationConfig::default(),
            |_, _| {},
        );
        assert!(result.completed);
        let key = result.key.expect("key recovered");
        assert!(locked.key_is_functionally_correct(&key, 200, 3));
    }

    #[test]
    fn incremental_and_fresh_confirmation_agree() {
        let (original, locked) = locked_sfll(1);
        let oracle = SimOracle::new(original);
        for shortlist in [
            vec![locked.key.clone(), locked.key.complement()],
            vec![locked.key.complement(), Key::zeros(10)],
            vec![
                Key::zeros(10),
                locked.key.clone(),
                Key::from_pattern(0x155, 10),
            ],
        ] {
            let incremental = key_confirmation(
                &locked.locked,
                &oracle,
                &shortlist,
                &KeyConfirmationConfig::default(),
            );
            let fresh = key_confirmation_fresh(
                &locked.locked,
                &oracle,
                &shortlist,
                &KeyConfirmationConfig::default(),
            );
            assert!(incremental.completed && fresh.completed);
            assert_eq!(
                incremental.key, fresh.key,
                "shortlist {shortlist:?} must confirm the same key"
            );
        }
    }

    #[test]
    fn screened_confirmation_agrees_with_unscreened() {
        let (original, locked) = locked_sfll(1);
        let oracle = SimOracle::new(original);
        let shortlist = vec![
            locked.key.complement(),
            Key::zeros(10),
            locked.key.clone(),
            Key::from_pattern(0x2A5, 10),
        ];
        let plain = key_confirmation(
            &locked.locked,
            &oracle,
            &shortlist,
            &KeyConfirmationConfig::default(),
        );
        let screened_config = KeyConfirmationConfig {
            screen_words: 4,
            ..KeyConfirmationConfig::default()
        };
        let screened = key_confirmation(&locked.locked, &oracle, &shortlist, &screened_config);
        assert!(plain.completed && screened.completed);
        assert_eq!(plain.key, screened.key);
        assert_eq!(screened.key, Some(locked.key.clone()));
    }

    #[test]
    fn screen_rejects_an_all_wrong_shortlist_without_scalar_queries() {
        // XOR locking makes every wrong key diverge on roughly half the
        // input space, so the 256 screen probes refute both decoys and the
        // P/Q loop never starts.
        let original = generate(&RandomCircuitSpec::new("kc_screen", 10, 3, 60));
        let locked = XorLock::new(8).with_seed(7).lock(&original).expect("lock");
        let oracle = SimOracle::new(original);
        let wrong_a = locked.key.complement();
        let mut bits = wrong_a.bits().to_vec();
        bits[0] = !bits[0];
        let wrong_b = Key::new(bits);
        let config = KeyConfirmationConfig {
            screen_words: 4,
            ..KeyConfirmationConfig::default()
        };
        let result = key_confirmation(&locked.locked, &oracle, &[wrong_a, wrong_b], &config);
        assert!(result.completed);
        assert_eq!(result.key, None);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.oracle_queries, 0);
    }

    #[test]
    fn partitioned_search_with_zero_bits_is_plain_confirmation() {
        let original = generate(&RandomCircuitSpec::new("kc_part0", 8, 2, 50));
        let locked = SfllHd::new(4, 0)
            .with_seed(6)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let result = partitioned_key_search(
            &locked.locked,
            &oracle,
            0,
            &KeyConfirmationConfig::default(),
        );
        assert!(result.completed);
        let key = result
            .key
            .expect("single region covers the whole key space");
        assert!(locked.key_is_functionally_correct(&key, 200, 4));
    }

    #[test]
    fn partitioned_search_with_full_width_enumerates_single_keys() {
        // partition_bits == key width: every region pins the entire key, so
        // the search degenerates to trying each key value in turn.
        let original = generate(&RandomCircuitSpec::new("kc_partw", 8, 2, 50));
        let locked = SfllHd::new(3, 0)
            .with_seed(4)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        for requested in [3usize, 10] {
            // Requests beyond the width are clamped to it.
            let result = partitioned_key_search(
                &locked.locked,
                &oracle,
                requested,
                &KeyConfirmationConfig::default(),
            );
            assert!(result.completed, "requested {requested}");
            let key = result.key.expect("key recovered");
            assert!(locked.key_is_functionally_correct(&key, 200, 4));
        }
    }

    #[test]
    fn partitioned_search_refuses_unenumerable_partitions() {
        // 64 effective partition bits would overflow `1u64 << bits`; the
        // search must return a clean unfinished result instead.
        let (locked, original) = crate::test_fixtures::wide_key_circuit_and_original();
        let oracle = SimOracle::new(original);
        for bits in [64usize, 65, usize::MAX] {
            let result =
                partitioned_key_search(&locked, &oracle, bits, &KeyConfirmationConfig::default());
            assert!(!result.completed, "bits {bits}");
            assert_eq!(result.key, None);
            assert_eq!(result.iterations, 0);
            assert_eq!(result.oracle_queries, 0);
        }
    }

    #[test]
    fn partitioned_search_finds_the_key() {
        let original = generate(&RandomCircuitSpec::new("kc_part", 8, 2, 50));
        let locked = SfllHd::new(5, 0)
            .with_seed(2)
            .lock(&original)
            .expect("lock");
        let oracle = SimOracle::new(original);
        let result = partitioned_key_search(
            &locked.locked,
            &oracle,
            2,
            &KeyConfirmationConfig::default(),
        );
        assert!(result.completed);
        let key = result.key.expect("key recovered");
        assert!(locked.key_is_functionally_correct(&key, 200, 4));
    }
}
