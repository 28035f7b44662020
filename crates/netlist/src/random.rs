//! Seeded random combinational circuit generation.
//!
//! The original evaluation uses ISCAS'85 and MCNC benchmark circuits, which
//! are not redistributable here, so we substitute deterministic pseudo-random
//! multi-level circuits with the same interface sizes (inputs, outputs,
//! gates).  The FALL attacks never rely on the
//! semantics of the original circuit — only on the structure the locking
//! scheme adds — so this preserves the behaviour being measured.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::{GateKind, Netlist, NodeId};

/// Specification of a random benchmark circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RandomCircuitSpec {
    /// Design name.
    pub name: String,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of outputs.
    pub num_outputs: usize,
    /// Number of gates to generate.
    pub num_gates: usize,
    /// PRNG seed; the same spec always yields the same circuit.
    pub seed: u64,
}

impl RandomCircuitSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        num_inputs: usize,
        num_outputs: usize,
        num_gates: usize,
    ) -> Self {
        RandomCircuitSpec {
            name: name.into(),
            num_inputs,
            num_outputs,
            num_gates,
            seed: 0xFA11_2019,
        }
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

const GATE_CHOICES: &[GateKind] = &[
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// Generates a random combinational circuit from a specification.
///
/// The generator guarantees that:
/// * every primary input is in the transitive fanin of some gate,
/// * every declared output exists and is driven by a gate (or an input when
///   `num_gates == 0`),
/// * the circuit is a DAG of two-input gates with depth roughly logarithmic
///   in the gate count (fanins are biased towards recently created nodes).
///
/// # Panics
///
/// Panics if `num_inputs == 0` or `num_outputs == 0`.
pub fn generate(spec: &RandomCircuitSpec) -> Netlist {
    assert!(spec.num_inputs > 0, "circuit needs at least one input");
    assert!(spec.num_outputs > 0, "circuit needs at least one output");
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut nl = Netlist::new(spec.name.clone());

    let inputs: Vec<NodeId> = (0..spec.num_inputs)
        .map(|i| nl.add_input(format!("pi{i}")))
        .collect();

    let mut pool: Vec<NodeId> = inputs.clone();
    for g in 0..spec.num_gates {
        let kind = *GATE_CHOICES.choose(&mut rng).expect("non-empty");
        // The first `num_inputs` gates each consume a distinct primary input so
        // that no input is left dangling.
        let a = match inputs.get(g) {
            Some(&input) => input,
            None => pick_biased(&pool, &mut rng),
        };
        let mut b = pick_biased(&pool, &mut rng);
        if b == a {
            b = pool[rng.gen_range(0..pool.len())];
        }
        let id = if b == a {
            nl.add_gate(format!("g{g}"), GateKind::Not, &[a])
        } else {
            nl.add_gate(format!("g{g}"), kind, &[a, b])
        };
        pool.push(id);
    }

    // Outputs are driven by the deepest recently created nodes so that their
    // cones span most of the circuit.
    let drivers: Vec<NodeId> = pool.iter().rev().take(spec.num_outputs).copied().collect();
    for (i, driver) in drivers.iter().enumerate() {
        nl.add_output(format!("po{i}"), *driver);
    }
    // If there were fewer nodes than outputs, reuse drivers cyclically.
    for i in drivers.len()..spec.num_outputs {
        let driver = pool[i % pool.len()];
        nl.add_output(format!("po{i}"), driver);
    }
    nl
}

/// Picks a node with a bias towards the most recently created ones, which
/// yields deeper, more realistic circuits than uniform selection.
fn pick_biased(pool: &[NodeId], rng: &mut ChaCha8Rng) -> NodeId {
    let n = pool.len();
    // Take the maximum of two uniform draws: linear bias towards the end.
    let i = rng.gen_range(0..n).max(rng.gen_range(0..n));
    pool[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::support;

    #[test]
    fn generation_is_deterministic() {
        let spec = RandomCircuitSpec::new("det", 8, 3, 50);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.num_gates(), b.num_gates());
        for pattern in [0u64, 1, 0xAB, 0xFF] {
            let bits = crate::sim::pattern_to_bits(pattern, 8);
            assert_eq!(a.evaluate(&bits, &[]), b.evaluate(&bits, &[]));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RandomCircuitSpec::new("s", 8, 2, 60).with_seed(1));
        let b = generate(&RandomCircuitSpec::new("s", 8, 2, 60).with_seed(2));
        let mut any_difference = false;
        for pattern in 0..64u64 {
            let bits = crate::sim::pattern_to_bits(pattern, 8);
            if a.evaluate(&bits, &[]) != b.evaluate(&bits, &[]) {
                any_difference = true;
                break;
            }
        }
        assert!(
            any_difference,
            "distinct seeds should give distinct circuits"
        );
    }

    #[test]
    fn requested_sizes_are_honoured() {
        let spec = RandomCircuitSpec::new("sz", 10, 4, 120);
        let nl = generate(&spec);
        assert_eq!(nl.num_inputs(), 10);
        assert_eq!(nl.num_outputs(), 4);
        assert_eq!(nl.num_gates(), 120);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn outputs_depend_on_many_inputs() {
        let spec = RandomCircuitSpec::new("dep", 12, 2, 150);
        let nl = generate(&spec);
        let (_, driver) = nl.outputs()[0].clone();
        let s = support(&nl, driver);
        assert!(
            s.primary.len() >= 6,
            "output cone covers only {} of 12 inputs",
            s.primary.len()
        );
    }

    #[test]
    fn tiny_circuits_are_valid() {
        let nl = generate(&RandomCircuitSpec::new("tiny", 2, 1, 0));
        assert_eq!(nl.num_outputs(), 1);
        assert!(nl.validate().is_ok());
    }
}
