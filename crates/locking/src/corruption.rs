//! Output-corruption measurement.
//!
//! The defining property of SAT-resilient schemes (SARLock, Anti-SAT, TTLock,
//! SFLL-HD0) is their *low* output corruption: a wrong key corrupts only a
//! handful of input patterns, which is what starves the SAT attack of
//! distinguishing inputs.  These helpers quantify that; the scheme-baseline
//! tests check the resulting corruption ordering.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Key, LockedCircuit};

/// Fraction of sampled input patterns on which the locked circuit (under
/// `key`) disagrees with the original circuit.
///
/// # Panics
///
/// Panics if `samples == 0` or the key width does not match the locked
/// circuit.
pub fn corruption_rate(locked: &LockedCircuit, key: &Key, samples: usize, seed: u64) -> f64 {
    assert!(samples > 0, "at least one sample is required");
    assert_eq!(
        key.len(),
        locked.locked.num_key_inputs(),
        "key width does not match circuit"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = locked.original.num_inputs();
    let mut corrupted = 0usize;
    for _ in 0..samples {
        let stimulus: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        if locked.locked.evaluate(&stimulus, key.bits()) != locked.original.evaluate(&stimulus, &[])
        {
            corrupted += 1;
        }
    }
    corrupted as f64 / samples as f64
}

/// Average corruption rate over `num_keys` random wrong keys.
///
/// Keys equal to the correct key are skipped (and re-drawn), so the result
/// reflects wrong-key behaviour only.
pub fn average_wrong_key_corruption(
    locked: &LockedCircuit,
    num_keys: usize,
    samples_per_key: usize,
    seed: u64,
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let width = locked.locked.num_key_inputs();
    let mut total = 0.0;
    let mut counted = 0usize;
    while counted < num_keys {
        let key = Key::random(width, &mut rng);
        if key == locked.key {
            continue;
        }
        total += corruption_rate(locked, &key, samples_per_key, rng.gen());
        counted += 1;
    }
    total / num_keys as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockingScheme, SfllHd, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};

    #[test]
    fn correct_key_has_zero_corruption() {
        let original = generate(&RandomCircuitSpec::new("corr", 10, 2, 60));
        let locked = SfllHd::new(8, 1)
            .with_seed(2)
            .lock(&original)
            .expect("lock");
        assert_eq!(corruption_rate(&locked, &locked.key, 200, 1), 0.0);
    }

    #[test]
    fn sfll_has_much_lower_corruption_than_xor_locking() {
        let original = generate(&RandomCircuitSpec::new("corr2", 12, 3, 80));
        let sfll = SfllHd::new(10, 1)
            .with_seed(4)
            .lock(&original)
            .expect("lock");
        let xor = XorLock::new(10).with_seed(4).lock(&original).expect("lock");
        let sfll_corruption = average_wrong_key_corruption(&sfll, 5, 200, 7);
        let xor_corruption = average_wrong_key_corruption(&xor, 5, 200, 7);
        assert!(
            sfll_corruption < xor_corruption,
            "SFLL corruption {sfll_corruption} should be below XOR locking {xor_corruption}"
        );
        // SFLL-HD corrupts a vanishing fraction of the 2^12 input space.
        assert!(sfll_corruption < 0.05, "sfll corruption {sfll_corruption}");
    }

    #[test]
    #[should_panic(expected = "key width")]
    fn mismatched_key_width_panics() {
        let original = generate(&RandomCircuitSpec::new("corr3", 8, 2, 30));
        let locked = SfllHd::new(6, 0)
            .with_seed(1)
            .lock(&original)
            .expect("lock");
        let _ = corruption_rate(&locked, &Key::zeros(3), 10, 0);
    }
}
