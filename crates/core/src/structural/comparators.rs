//! Comparator identification (§ III-A).
//!
//! The functionality restoration unit compares each key input with one
//! circuit input.  After synthesis those comparators survive as *some* gate
//! whose support is exactly one key input and one circuit input and whose
//! function is XOR or XNOR of the two.  Finding them gives the attacker the
//! pairing between key bits and protected circuit inputs.

use netlist::analysis::support_signature;
use netlist::{Netlist, NodeId};

/// A comparator gate pairing a key input with a circuit input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Comparator {
    /// The gate computing the comparison.
    pub node: NodeId,
    /// The circuit (primary) input being compared.
    pub input: NodeId,
    /// The key input being compared.
    pub key: NodeId,
    /// `true` if the gate computes XNOR(input, key), `false` for XOR.
    pub xnor: bool,
}

/// Finds all comparator gates by exhaustive cofactor enumeration.
///
/// For every gate whose support is exactly one circuit input and one key
/// input, the gate's local function is evaluated on all four assignments of
/// that pair; gates equivalent to XOR or XNOR are reported.
///
/// The paper checks the same equivalence with SAT queries; that method is
/// kept only as a test reference, since both agree on every candidate gate.
pub fn find_comparators(netlist: &Netlist) -> Vec<Comparator> {
    candidate_pairs(netlist)
        .into_iter()
        .filter_map(|(node, input, key)| {
            classify_by_simulation(netlist, node, input, key).map(|xnor| Comparator {
                node,
                input,
                key,
                xnor,
            })
        })
        .collect()
}

/// Gates whose support is exactly {one primary input, one key input}.
fn candidate_pairs(netlist: &Netlist) -> Vec<(NodeId, NodeId, NodeId)> {
    let supports = support_signature(netlist);
    let mut result = Vec::new();
    for node in netlist.gate_ids() {
        let support = &supports[node.index()];
        if support.len() != 2 {
            continue;
        }
        let mut primary = None;
        let mut key = None;
        for &id in support {
            if netlist.is_key_input(id) {
                key = Some(id);
            } else {
                primary = Some(id);
            }
        }
        if let (Some(input), Some(key)) = (primary, key) {
            result.push((node, input, key));
        }
    }
    result
}

/// Evaluates the gate's function on the four assignments of `(input, key)`;
/// returns `Some(true)` for XNOR, `Some(false)` for XOR, `None` otherwise.
fn classify_by_simulation(
    netlist: &Netlist,
    node: NodeId,
    input: NodeId,
    key: NodeId,
) -> Option<bool> {
    let truth: Vec<bool> = [(false, false), (true, false), (false, true), (true, true)]
        .iter()
        .map(|&(iv, kv)| netlist.evaluate_node(node, &[(input, iv), (key, kv)]))
        .collect();
    if truth == [false, true, true, false] {
        Some(false) // XOR
    } else if truth == [true, false, false, true] {
        Some(true) // XNOR
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::{LockingScheme, SfllHd, TtLock};
    use netlist::cnf::{encode_cones, PinBinding};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::strash::strash;
    use netlist::GateKind;
    use sat::{SolveResult, Solver};

    /// The paper's method: finds all comparator gates with SAT-based
    /// functional equivalence checks.  [`find_comparators`] must agree with it.
    fn find_comparators_sat(netlist: &Netlist) -> Vec<Comparator> {
        candidate_pairs(netlist)
            .into_iter()
            .filter_map(|(node, input, key)| {
                classify_by_sat(netlist, node, input, key).map(|xnor| Comparator {
                    node,
                    input,
                    key,
                    xnor,
                })
            })
            .collect()
    }

    /// SAT-based variant of [`classify_by_simulation`]: checks validity of
    /// `cktfn(node) <=> input XOR key` (and the XNOR variant) with two
    /// unsatisfiability queries each.
    fn classify_by_sat(
        netlist: &Netlist,
        node: NodeId,
        input: NodeId,
        key: NodeId,
    ) -> Option<bool> {
        let mut solver = Solver::new();
        let enc = encode_cones(netlist, &mut solver, &[node], &PinBinding::default());
        let node_lit = enc.lit(node);
        let input_pos = netlist
            .inputs()
            .iter()
            .position(|&i| i == input)
            .expect("primary input");
        let key_pos = netlist
            .key_inputs()
            .iter()
            .position(|&k| k == key)
            .expect("key input");
        let x = enc.inputs[input_pos];
        let k = enc.keys[key_pos];

        // node <=> x XOR k is valid iff (node XOR (x XOR k)) is unsatisfiable.
        let is_xor = {
            let diff = xor3_lit(&mut solver, node_lit, x, k);
            solver.solve_with(&[diff]) == SolveResult::Unsat
        };
        if is_xor {
            return Some(false);
        }
        let is_xnor = {
            let diff = xor3_lit(&mut solver, !node_lit, x, k);
            solver.solve_with(&[diff]) == SolveResult::Unsat
        };
        if is_xnor {
            return Some(true);
        }
        None
    }

    /// Returns a literal equivalent to `a XOR b XOR c`.
    fn xor3_lit(solver: &mut Solver, a: sat::Lit, b: sat::Lit, c: sat::Lit) -> sat::Lit {
        let ab = xor2_lit(solver, a, b);
        xor2_lit(solver, ab, c)
    }

    fn xor2_lit(solver: &mut Solver, a: sat::Lit, b: sat::Lit) -> sat::Lit {
        let y = sat::Lit::positive(solver.new_var());
        solver.add_clause([!a, !b, !y]);
        solver.add_clause([a, b, !y]);
        solver.add_clause([a, !b, y]);
        solver.add_clause([!a, b, y]);
        y
    }

    #[test]
    fn finds_explicit_xnor_comparators() {
        let mut nl = Netlist::new("cmp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k0 = nl.add_key_input("k0");
        let k1 = nl.add_key_input("k1");
        let c0 = nl.add_gate("c0", GateKind::Xnor, &[a, k0]);
        let c1 = nl.add_gate("c1", GateKind::Xor, &[b, k1]);
        let not_cmp = nl.add_gate("nc", GateKind::And, &[a, k0]);
        let out = nl.add_gate("out", GateKind::And, &[c0, c1, not_cmp]);
        nl.add_output("out", out);

        let found = find_comparators(&nl);
        assert_eq!(found.len(), 2);
        let xnor = found.iter().find(|c| c.node == c0).expect("c0 found");
        assert!(xnor.xnor);
        assert_eq!(xnor.input, a);
        assert_eq!(xnor.key, k0);
        let xor = found.iter().find(|c| c.node == c1).expect("c1 found");
        assert!(!xor.xnor);
        assert_eq!(xor.input, b);
        assert_eq!(xor.key, k1);
    }

    #[test]
    fn sat_and_simulation_agree() {
        let original = generate(&RandomCircuitSpec::new("cmp_sat", 8, 2, 40));
        let locked = TtLock::new(6).with_seed(5).lock(&original).expect("lock");
        let optimized = strash(&locked.locked);
        let mut by_sim = find_comparators(&optimized);
        let mut by_sat = find_comparators_sat(&optimized);
        by_sim.sort_by_key(|c| c.node);
        by_sat.sort_by_key(|c| c.node);
        assert_eq!(by_sim, by_sat);
        assert!(!by_sim.is_empty());
    }

    #[test]
    fn every_key_input_is_paired_after_sfll_locking_and_strash() {
        let original = generate(&RandomCircuitSpec::new("cmp_sfll", 10, 2, 60));
        let locked = SfllHd::new(8, 1)
            .with_seed(3)
            .lock(&original)
            .expect("lock");
        let optimized = strash(&locked.locked);
        let comparators = find_comparators(&optimized);
        let mut paired_keys: Vec<NodeId> = comparators.iter().map(|c| c.key).collect();
        paired_keys.sort_unstable();
        paired_keys.dedup();
        assert_eq!(
            paired_keys.len(),
            8,
            "every key input should appear in some comparator"
        );
    }

    #[test]
    fn gates_touching_two_circuit_inputs_are_ignored() {
        let mut nl = Netlist::new("no_cmp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::Xor, &[a, b]);
        nl.add_output("g", g);
        assert!(find_comparators(&nl).is_empty());
    }
}
