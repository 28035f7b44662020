//! SlidingWindow (Algorithm 2, Lemmas 2 and 3): attack on SFLL-HDh for
//! `2h < m`.
//!
//! Two satisfying assignments of the cube stripping function at Hamming
//! distance `2h` must agree with the protected cube on every position where
//! they agree with each other (Lemma 2).  The positions where the first model
//! pair disagrees are resolved by the Lemma 3 query: `F ∧ (x_j = x'_j) ∧
//! (x_j = b)` is satisfiable iff `b = k_j`.  Both halves of that query are
//! answered without asking it bit by bit:
//!
//! * **Witnesses.**  Every model of the unpinned `F ∧ (x_i = x'_i)` has
//!   `x_j = x'_j` on `m − 2h` positions, and shows the query pinned to that
//!   `x_j` satisfiable on each of them.  A handful of these cheap
//!   satisfiable solves fixes one witnessed value per disagreeing position;
//!   an unsatisfiable one, or a position witnessed with both values, is ⊥.
//! * **One certificate.**  If the candidate is equivalent to `strip_h` of
//!   the witnessed cube (§ IV-C), every "opposite value" query is
//!   unsatisfiable: two points at distance `h` from the cube and `2h` from
//!   each other have disjoint disagreement sets.  One equivalence proof thus
//!   replaces the `2h` cardinality proofs that dominate the per-bit loop.
//! * **Fallback.**  When the certificate fails, the opposite value of each
//!   position is asked pinned; anything but an unsatisfiable answer is ⊥.
//!
//! Given the same first model pair, the result equals that of asking both
//! pinned Lemma 3 queries for every disagreeing position.  When the attack
//! checks equivalence anyway (§ IV-C), that check is the certificate: the
//! attack takes the witnessed cube from [`sliding_window_witnessed_in`], so
//! the proof runs once and the fallback never runs, because a cube that
//! needs the fallback fails the check.

use netlist::{Netlist, NodeId};
use sat::SolveResult;

use super::pair::{build_hd_query, HdPairQuery};
use super::prefilter::satisfying_within_distance;
use super::CubeAssignment;
use crate::equivalence::candidate_equals_strip_in;
use crate::session::AttackSession;

/// Runs the SlidingWindow analysis on a candidate node using a throwaway
/// session.  Prefer [`sliding_window_in`] when analysing several candidates
/// of the same netlist.
pub fn sliding_window(netlist: &Netlist, candidate: NodeId, h: usize) -> Option<CubeAssignment> {
    let mut session = AttackSession::new(netlist);
    sliding_window_in(&mut session, candidate, h)
}

/// Runs the SlidingWindow analysis on a candidate node through a shared
/// attack session.
///
/// `h` is the SFLL-HD parameter the adversary knows (§ II-A).  Returns the
/// suspected protected cube, or `None` (⊥) if the node cannot be the cube
/// stripping function.  Whenever the first model pair disagrees anywhere,
/// the analysis runs [`candidate_equals_strip_in`] on the witnessed cube as
/// its certificate (see the module documentation).
pub fn sliding_window_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<CubeAssignment> {
    let witnessed = witness_cube(session, candidate, h)?;
    // Certificate step: c ≡ strip_h(cube) makes every opposite value
    // unsatisfiable at once; only when it fails are they asked one by one.
    let certified = witnessed.disagreeing.is_empty()
        || candidate_equals_strip_in(session, candidate, &witnessed.cube, h)
        || opposite_values_unsat(session, &witnessed);
    certified.then_some(witnessed.cube)
}

/// The witness step of [`sliding_window_in`] alone: a cube with every
/// disagreeing position witnessed, but not certified.
///
/// For callers that run the equivalence check (§ IV-C) on the cube anyway,
/// as `fall_attack` does: that check is the certificate.
/// [`candidate_equals_strip_in`] holds on this cube exactly when
/// [`sliding_window_in`] followed by it would, and when it fails, the
/// pinned fallback would only have produced a cube that fails it too.
pub fn sliding_window_witnessed_in(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<CubeAssignment> {
    witness_cube(session, candidate, h).map(|witnessed| witnessed.cube)
}

/// The first model pair's Lemma 3 query and the cube its witnesses fixed.
struct WitnessedCube {
    query: HdPairQuery,
    /// Positions where the first model pair disagrees.
    disagreeing: Vec<usize>,
    /// The first model on the agreeing positions, the witnessed value on
    /// the disagreeing ones.
    cube: CubeAssignment,
}

/// Witness step: each model of `F ∧ (x_i = x'_i)` shows, for every
/// disagreeing position it agrees on, that the Lemma 3 query pinned to that
/// value is satisfiable.  `None` is ⊥.
fn witness_cube(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<WitnessedCube> {
    let (query, m1, m2) = first_model_pair(session, candidate, h)?;
    let disagreeing: Vec<usize> = (0..query.inputs.len())
        .filter(|&i| m1[i] != m2[i])
        .collect();
    let mut witnessed: Vec<Option<bool>> = vec![None; query.inputs.len()];
    for &i in &disagreeing {
        if witnessed[i].is_some() {
            continue;
        }
        let mut assumptions = query.base.clone();
        assumptions.push(query.eq[i]);
        if session.check_cone_property(&assumptions) != SolveResult::Sat {
            // Both pinned queries are unsatisfiable (or the solve was
            // interrupted).
            return None;
        }
        for &j in &disagreeing {
            let value = session.value(query.x1[j]).expect("model");
            if session.value(query.x2[j]).expect("model") != value {
                continue;
            }
            match witnessed[j] {
                // Witnessed with both values: both pinned queries are
                // satisfiable.
                Some(seen) if seen != value => return None,
                _ => witnessed[j] = Some(value),
            }
        }
    }
    let cube = query
        .inputs
        .iter()
        .enumerate()
        .map(|(i, &xi)| (xi, witnessed[i].unwrap_or(m1[i])))
        .collect();
    Some(WitnessedCube {
        query,
        disagreeing,
        cube,
    })
}

/// Fallback: asks the opposite value of each disagreeing position pinned.
/// `true` only if every one of them is proved unsatisfiable; a satisfiable
/// answer is ⊥, and so is an unknown one (an interrupted solve), so that no
/// cube is returned uncertified.
fn opposite_values_unsat(session: &mut AttackSession<'_>, witnessed: &WitnessedCube) -> bool {
    let query = &witnessed.query;
    witnessed.disagreeing.iter().all(|&i| {
        let mut assumptions = query.base.clone();
        assumptions.push(query.eq[i]);
        assumptions.push(if witnessed.cube[i].1 {
            !query.x2[i]
        } else {
            query.x2[i]
        });
        session.check_cone_property(&assumptions) == SolveResult::Unsat
    })
}

/// Builds `F = c(X1) ∧ c(X2) ∧ HD(X1, X2) = 2h` for the candidate and
/// returns it with its first model pair, or `None` if `F` is refuted.
fn first_model_pair(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    h: usize,
) -> Option<(HdPairQuery, Vec<bool>, Vec<bool>)> {
    let query = build_hd_query(session, candidate, 2 * h)?;
    // Word-parallel pre-filter: two satisfying assignments further than 2h
    // apart prove the candidate is not a radius-h sphere function.
    let netlist = session.netlist();
    let within = {
        let (sim, stats) = session.wide_sim_parts();
        satisfying_within_distance(netlist, candidate, &query.inputs, 2 * h, sim, stats)
    };
    if !within {
        return None;
    }
    if session.check_cone_property(&query.base) != SolveResult::Sat {
        return None;
    }
    let model = |lits: &[sat::Lit]| -> Vec<bool> {
        lits.iter()
            .map(|&l| session.value(l).expect("model"))
            .collect()
    };
    let (m1, m2) = (model(&query.x1), model(&query.x2));
    Some((query, m1, m2))
}

/// Convenience wrapper running [`sliding_window`] on several candidates
/// through one shared session and returning the per-candidate results.
pub fn sliding_window_all(
    netlist: &Netlist,
    candidates: &[NodeId],
    h: usize,
) -> Vec<(NodeId, Option<CubeAssignment>)> {
    let mut session = AttackSession::new(netlist);
    candidates
        .iter()
        .map(|&c| (c, sliding_window_in(&mut session, c, h)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structural::{find_candidates, find_comparators};
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::analysis::support;
    use netlist::hamming::hamming_distance_equals_const;
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::strash::strash;
    use netlist::{GateKind, Netlist};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// The per-bit Lemma 3 loop: both pinned queries for every position
    /// where the first model pair disagrees.  The reference the analysis
    /// must agree with.
    fn sliding_window_per_bit_in(
        session: &mut AttackSession<'_>,
        candidate: NodeId,
        h: usize,
    ) -> Option<CubeAssignment> {
        let (query, m1, m2) = first_model_pair(session, candidate, h)?;
        let mut assignment: CubeAssignment = Vec::with_capacity(query.inputs.len());
        for i in 0..query.inputs.len() {
            let xi = query.inputs[i];
            if m1[i] == m2[i] {
                assignment.push((xi, m1[i]));
                continue;
            }
            let value_lit = |value: bool| if value { query.x2[i] } else { !query.x2[i] };
            let solve_pinned = |session: &mut AttackSession<'_>, value: bool| {
                let mut assumptions = query.base.clone();
                assumptions.push(query.eq[i]);
                assumptions.push(value_lit(value));
                session.check_cone_property(&assumptions) == SolveResult::Sat
            };
            let sat_with_m1 = solve_pinned(session, m1[i]);
            let sat_with_m2 = solve_pinned(session, m2[i]);
            match (sat_with_m1, sat_with_m2) {
                (true, false) => assignment.push((xi, m1[i])),
                (false, true) => assignment.push((xi, m2[i])),
                _ => return None,
            }
        }
        Some(assignment)
    }

    /// Builds a bare cube-stripping circuit `strip_h(cube)(X)` for testing.
    fn stripper(m: usize, cube: u64, h: usize) -> (Netlist, NodeId, Vec<NodeId>) {
        let mut nl = Netlist::new("strip");
        let xs: Vec<NodeId> = (0..m).map(|i| nl.add_input(format!("x{i}"))).collect();
        let cube_bits = pattern_to_bits(cube, m);
        let out = hamming_distance_equals_const(&mut nl, &xs, &cube_bits, h);
        nl.add_output("strip", out);
        (nl, out, xs)
    }

    #[test]
    fn recovers_cube_for_various_h() {
        for (m, cube, h) in [
            (6usize, 0b101101u64, 1usize),
            (6, 0b010011, 2),
            (8, 0xA5, 2),
        ] {
            let (nl, out, xs) = stripper(m, cube, h);
            let got = sliding_window(&nl, out, h).expect("cube recovered");
            let expected: CubeAssignment = xs
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, (cube >> i) & 1 == 1))
                .collect();
            assert_eq!(got, expected, "m={m} cube={cube:b} h={h}");
        }
    }

    #[test]
    fn recovers_cube_after_strash() {
        let (nl, _, _) = stripper(6, 0b110010, 1);
        let optimized = strash(&nl);
        let out = optimized.outputs()[0].1;
        let got = sliding_window(&optimized, out, 1).expect("cube recovered");
        let values: Vec<bool> = got.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, pattern_to_bits(0b110010, 6));
    }

    #[test]
    fn h_zero_degenerates_to_the_cube_itself() {
        let (nl, out, xs) = stripper(5, 0b10110, 0);
        let got = sliding_window(&nl, out, 0).expect("cube recovered");
        let expected: CubeAssignment = xs
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, (0b10110 >> i) & 1 == 1))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn rejects_functions_without_distance_2h_pairs() {
        // A constant-false node has no satisfying assignment at all.
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let na = nl.add_gate("na", GateKind::Not, &[a]);
        let f = nl.add_gate("f", GateKind::And, &[a, na]);
        nl.add_output("f", f);
        assert!(sliding_window(&nl, f, 1).is_none());
    }

    #[test]
    fn rejects_parity_like_functions() {
        // XOR of all inputs is satisfied at every odd-weight pattern; the
        // sliding-window queries cannot pin unique bit values, so ⊥ results.
        let mut nl = Netlist::new("parity");
        let xs: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("x{i}"))).collect();
        let f = nl.add_gate("f", GateKind::Xor, &xs);
        nl.add_output("f", f);
        assert!(sliding_window(&nl, f, 1).is_none());
    }

    #[test]
    fn batch_helper_reports_per_candidate() {
        let (nl, out, _) = stripper(5, 0b00111, 1);
        let results = sliding_window_all(&nl, &[out], 1);
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_some());
    }

    /// Runs both versions, each on a fresh session so that both see the
    /// same first model pair, on every structural candidate and two key-free
    /// outputs of a TTLock (h = 0) or SFLL-HDh lock with key width `m`, at
    /// `h − 1`, `h` and `h + 1`.  Also checks what `fall_attack` relies on:
    /// followed by the equivalence check, the witness step alone answers as
    /// the reference does.
    fn assert_lockstep(m: usize, hs: std::ops::RangeInclusive<usize>) {
        let original = generate(
            &RandomCircuitSpec::new(format!("sw_lockstep_{m}"), m + 2, 3, 25 + 3 * m)
                .with_seed(m as u64),
        );
        let (mut cubes, mut equivalent_cubes, mut checked) = (0, 0, 0);
        for h in hs {
            let seed = (m * 16 + h) as u64;
            let locked = if h == 0 {
                TtLock::new(m).with_seed(seed).lock(&original)
            } else {
                SfllHd::new(m, h).with_seed(seed).lock(&original)
            }
            .expect("lock")
            .optimized()
            .locked;
            let comparators = find_comparators(&locked);
            let mut nodes = find_candidates(&locked, &comparators).candidates;
            assert!(!nodes.is_empty(), "m={m} h={h}: no structural candidate");
            nodes.extend(
                locked
                    .outputs()
                    .iter()
                    .map(|&(_, node)| node)
                    .filter(|&node| support(&locked, node).keys.is_empty())
                    .take(2),
            );
            for node in nodes {
                for hq in h.saturating_sub(1)..=h + 1 {
                    let fast = sliding_window_in(&mut AttackSession::new(&locked), node, hq);
                    let mut session = AttackSession::new(&locked);
                    let reference = sliding_window_per_bit_in(&mut session, node, hq);
                    assert_eq!(fast, reference, "m={m} h={h} node={node:?} hq={hq}");
                    checked += 1;
                    cubes += usize::from(fast.is_some());

                    // Followed by the attack's equivalence check, the
                    // witness step alone gives the same answer.
                    let equivalent = |session: &mut AttackSession<'_>, cube: &CubeAssignment| {
                        candidate_equals_strip_in(session, node, cube, hq)
                    };
                    let reference = reference.filter(|cube| equivalent(&mut session, cube));
                    let mut session = AttackSession::new(&locked);
                    let witnessed = sliding_window_witnessed_in(&mut session, node, hq)
                        .filter(|cube| equivalent(&mut session, cube));
                    assert_eq!(witnessed, reference, "m={m} h={h} node={node:?} hq={hq}");
                    equivalent_cubes += usize::from(witnessed.is_some());
                }
            }
        }
        assert!(cubes > 0 && cubes < checked, "{cubes} cubes of {checked}");
        assert!(equivalent_cubes > 0, "no cube passed the equivalence check");
    }

    #[test]
    fn matches_the_per_bit_loop_at_m8_and_m10() {
        assert_lockstep(8, 0..=4);
        assert_lockstep(10, 0..=5);
    }

    #[test]
    fn matches_the_per_bit_loop_at_m15_up_to_h4() {
        assert_lockstep(15, 0..=4);
    }

    #[test]
    fn matches_the_per_bit_loop_at_m15_h5() {
        assert_lockstep(15, 5..=5);
    }

    #[test]
    fn matches_the_per_bit_loop_at_m15_h6_and_h7() {
        assert_lockstep(15, 6..=7);
    }

    #[test]
    fn an_interrupt_never_lets_an_uncertified_cube_through() {
        let (m, cube, h) = (8usize, 0xA5u64, 2usize);
        let (nl, out, _) = stripper(m, cube, h);
        let flag = Arc::new(AtomicBool::new(true));
        let mut session = AttackSession::new(&nl);
        session.set_interrupt(Some(flag.clone()));
        assert_eq!(sliding_window_in(&mut session, out, h), None);
        assert_eq!(sliding_window_per_bit_in(&mut session, out, h), None);

        // The interrupt fires after the witness step: the certificate and
        // every fallback query come back unknown, which is ⊥.
        flag.store(false, Ordering::Relaxed);
        let mut session = AttackSession::new(&nl);
        session.set_interrupt(Some(flag.clone()));
        let witnessed = witness_cube(&mut session, out, h).expect("witnessed");
        assert!(!witnessed.disagreeing.is_empty());
        flag.store(true, Ordering::Relaxed);
        assert!(!candidate_equals_strip_in(
            &mut session,
            out,
            &witnessed.cube,
            h
        ));
        assert!(!opposite_values_unsat(&mut session, &witnessed));
    }

    #[test]
    fn stripper_costs_at_most_two_plus_2h_solves() {
        let (m, cube, h) = (15usize, 0b101_1001_1100_0110u64, 5usize);
        let (plain, out, _) = stripper(m, cube, h);
        let strashed = strash(&plain);
        for (nl, out) in [(&plain, out), (&strashed, strashed.outputs()[0].1)] {
            let mut session = AttackSession::new(nl);
            let before = session.stats().solves;
            let got = sliding_window_in(&mut session, out, h).expect("cube recovered");
            let solves = session.stats().solves - before;
            assert!(solves <= 2 + 2 * h as u64, "{solves} solves");
            let values: Vec<bool> = got.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, pattern_to_bits(cube, m));
        }
    }
}
