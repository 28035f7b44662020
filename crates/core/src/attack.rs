//! The complete FALL attack pipeline (Figure 4).
//!
//! `comparator identification → support-set matching → functional analyses →
//! equivalence checking → (optional) key confirmation`.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use locking::Key;
use netlist::{Netlist, NodeId};

use crate::equivalence::candidate_equals_strip_in;
use crate::functional::{
    analyze_unateness_in, distance_2h_in, sliding_window_in, Analysis, CubeAssignment,
    PrefilterStats,
};
use crate::key_confirmation::{key_confirmation_in, KeyConfirmationConfig};
use crate::oracle::Oracle;
use crate::session::AttackSession;
use crate::structural::{find_candidates, find_comparators, CandidateNodes};

/// Configuration of the FALL attack.
#[derive(Clone, Debug)]
pub struct FallAttackConfig {
    /// The SFLL-HD parameter `h` (0 for TTLock), which the adversary knows
    /// under the threat model of § II-A.
    pub h: usize,
    /// Analyses to run per candidate; `None` selects
    /// [`Analysis::applicable`] for the observed key width.
    pub analyses: Option<Vec<Analysis>>,
    /// Verify suspected cubes with combinational equivalence checking
    /// (§ IV-C).  Disabling this is only useful for ablation studies.
    pub equivalence_check: bool,
    /// Budgets for the optional key-confirmation stage.
    pub confirmation: KeyConfirmationConfig,
    /// External cancellation flag, installed into the attack's
    /// [`AttackSession`] (see [`crate::session::AttackSession::set_interrupt`]).
    /// Once it flips to `true`, in-flight solves return at their next check
    /// point, the remaining analysis tasks are skipped, and the attack
    /// returns with whatever it had (typically [`FallStatus::NoKeysFound`] or
    /// [`FallStatus::ConfirmationFailed`]).  Used by [`crate::service`] to
    /// enforce per-job deadlines.
    pub interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl FallAttackConfig {
    /// Default configuration for a known `h`.
    pub fn for_h(h: usize) -> FallAttackConfig {
        FallAttackConfig {
            h,
            analyses: None,
            equivalence_check: true,
            confirmation: KeyConfirmationConfig::default(),
            interrupt: None,
        }
    }
}

/// How the attack concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallStatus {
    /// Exactly one key was shortlisted: the attack succeeded *without* oracle
    /// access (the 90 %-of-successes case reported in the paper).
    UniqueKey,
    /// Several keys were shortlisted and key confirmation identified the
    /// correct one using the oracle.
    ConfirmedKey,
    /// Several keys were shortlisted but no oracle was available to pick one.
    MultipleKeys,
    /// Key confirmation proved that none of the shortlisted keys is correct.
    ConfirmationFailed,
    /// The structural stages produced no candidate cube-stripper nodes.
    NoCandidates,
    /// Candidates existed but every functional analysis returned ⊥ (or the
    /// equivalence check rejected every suspected cube).
    NoKeysFound,
}

impl FallStatus {
    /// Returns `true` if the attack produced at least one credible key.
    pub fn is_success(self) -> bool {
        matches!(
            self,
            FallStatus::UniqueKey | FallStatus::ConfirmedKey | FallStatus::MultipleKeys
        )
    }
}

/// Wall-clock time spent in each stage of the pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Comparator identification (§ III-A).
    pub comparators: Duration,
    /// Support-set matching (§ III-B).
    pub support_matching: Duration,
    /// Functional analyses (§ IV-A, § IV-B).
    pub functional: Duration,
    /// Equivalence checking (§ IV-C).
    pub equivalence: Duration,
    /// Key confirmation (§ V).
    pub confirmation: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.comparators
            + self.support_matching
            + self.functional
            + self.equivalence
            + self.confirmation
    }
}

/// The outcome of a FALL attack.
#[derive(Clone, Debug)]
pub struct FallAttackResult {
    /// How the attack concluded.
    pub status: FallStatus,
    /// All distinct keys that survived the functional analyses (and the
    /// equivalence check, when enabled).
    pub shortlisted_keys: Vec<Key>,
    /// The key singled out by key confirmation, when that stage ran.
    pub confirmed_key: Option<Key>,
    /// Number of comparators identified.
    pub num_comparators: usize,
    /// Number of candidate cube-stripper nodes examined.
    pub num_candidates: usize,
    /// Suspected key width `m = |Comp|`.
    pub key_width: usize,
    /// Which analyses produced at least one surviving key.
    pub analyses_used: Vec<Analysis>,
    /// Word-parallel prefilter counters of the functional analyses (refuted
    /// polarities/candidates and simulated-pattern volume).
    pub prefilter: PrefilterStats,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl FallAttackResult {
    /// The single best key produced by the attack, if any: the confirmed key
    /// when available, otherwise the unique shortlisted key.
    pub fn best_key(&self) -> Option<&Key> {
        self.confirmed_key
            .as_ref()
            .or(match self.shortlisted_keys.as_slice() {
                [only] => Some(only),
                _ => None,
            })
    }
}

/// Runs the full FALL attack on a locked netlist.
///
/// `oracle` is only used when more than one key is shortlisted; pass `None`
/// for a purely oracle-less attack.
pub fn fall_attack(
    locked: &Netlist,
    oracle: Option<&dyn Oracle>,
    config: &FallAttackConfig,
) -> FallAttackResult {
    let mut timings = StageTimings::default();

    // Stage 1: comparator identification.
    let t = Instant::now();
    let comparators = find_comparators(locked);
    timings.comparators = t.elapsed();

    // Stage 2: support-set matching.
    let t = Instant::now();
    let candidates = find_candidates(locked, &comparators);
    timings.support_matching = t.elapsed();

    let base = |status: FallStatus, timings: StageTimings| FallAttackResult {
        status,
        shortlisted_keys: Vec::new(),
        confirmed_key: None,
        num_comparators: comparators.len(),
        num_candidates: candidates.candidates.len(),
        key_width: candidates.key_width(),
        analyses_used: Vec::new(),
        prefilter: PrefilterStats::default(),
        timings,
    };

    if candidates.candidates.is_empty()
        || candidates.key_width() == 0
        || candidates.paired_keys.len() != locked.num_key_inputs()
    {
        return base(FallStatus::NoCandidates, timings);
    }

    // Stage 3 + 4: functional analyses and equivalence checking.  One
    // persistent attack session serves every candidate, every analysis, the
    // equivalence checks and (below) the key-confirmation stage: cone
    // encodings, the input-difference vector and the popcount network are all
    // built once and shared.
    let mut session = AttackSession::new(locked);
    session.set_interrupt(config.interrupt.clone());
    let analyses = config
        .analyses
        .clone()
        .unwrap_or_else(|| Analysis::applicable(config.h, candidates.key_width()));
    let mut shortlisted: Vec<Key> = Vec::new();
    let mut analyses_used: Vec<Analysis> = Vec::new();
    'sweep: for &candidate in &candidates.candidates {
        for &analysis in &analyses {
            if externally_interrupted(config) {
                break 'sweep;
            }
            let t = Instant::now();
            let cube = run_analysis(&mut session, candidate, analysis, config.h);
            timings.functional += t.elapsed();
            let Some(cube) = cube else { continue };
            if config.equivalence_check {
                let t = Instant::now();
                let equivalent =
                    candidate_equals_strip_in(&mut session, candidate, &cube, config.h);
                timings.equivalence += t.elapsed();
                if !equivalent {
                    continue;
                }
            }
            let Some(key) = cube_to_key(locked, &candidates, &cube) else {
                continue;
            };
            if !shortlisted.contains(&key) {
                shortlisted.push(key);
            }
            if !analyses_used.contains(&analysis) {
                analyses_used.push(analysis);
            }
        }
    }

    let mut result = base(FallStatus::NoKeysFound, timings);
    result.analyses_used = analyses_used;
    result.shortlisted_keys = shortlisted;
    result.prefilter = session.prefilter_stats();

    match result.shortlisted_keys.len() {
        0 => result,
        1 => {
            result.status = FallStatus::UniqueKey;
            result
        }
        _ => match oracle {
            None => {
                result.status = FallStatus::MultipleKeys;
                result
            }
            Some(oracle) => {
                let t = Instant::now();
                let confirmation = key_confirmation_in(
                    &mut session,
                    oracle,
                    &result.shortlisted_keys,
                    &config.confirmation,
                );
                result.timings.confirmation = t.elapsed();
                match confirmation.key {
                    Some(key) => {
                        result.confirmed_key = Some(key);
                        result.status = FallStatus::ConfirmedKey;
                    }
                    None => {
                        result.status = FallStatus::ConfirmationFailed;
                    }
                }
                result
            }
        },
    }
}

/// Returns `true` once the configured external interrupt flag has fired.
fn externally_interrupted(config: &FallAttackConfig) -> bool {
    config
        .interrupt
        .as_ref()
        .is_some_and(|flag| flag.load(Ordering::Relaxed))
}

fn run_analysis(
    session: &mut AttackSession<'_>,
    candidate: NodeId,
    analysis: Analysis,
    h: usize,
) -> Option<CubeAssignment> {
    match analysis {
        Analysis::Unateness => analyze_unateness_in(session, candidate),
        Analysis::SlidingWindow => sliding_window_in(session, candidate, h),
        Analysis::Distance2H => distance_2h_in(session, candidate, h),
    }
}

/// Maps a cube assignment over protected inputs to a key over the locked
/// circuit's key inputs using the comparator pairing.
fn cube_to_key(
    locked: &Netlist,
    candidates: &CandidateNodes,
    cube: &CubeAssignment,
) -> Option<Key> {
    let mut bits = vec![None; locked.num_key_inputs()];
    for (&input, &key_node) in candidates
        .protected_inputs
        .iter()
        .zip(&candidates.paired_keys)
    {
        let value = cube.iter().find(|&&(id, _)| id == input).map(|&(_, v)| v)?;
        let key_index = locked.key_input_position(key_node)?;
        bits[key_index] = Some(value);
    }
    bits.into_iter()
        .collect::<Option<Vec<bool>>>()
        .map(Key::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimOracle;
    use locking::{LockingScheme, SfllHd, TtLock, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};

    fn original(name: &str) -> Netlist {
        generate(&RandomCircuitSpec::new(name, 14, 3, 90))
    }

    #[test]
    fn breaks_ttlock_without_an_oracle() {
        let original = original("fa_tt");
        let locked = TtLock::new(10)
            .with_seed(31)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
        assert_eq!(result.status, FallStatus::UniqueKey, "{result:?}");
        assert_eq!(result.best_key(), Some(&locked.key));
        assert!(result.num_comparators >= 10);
        assert_eq!(result.key_width, 10);
    }

    #[test]
    fn breaks_sfll_hd1_without_an_oracle() {
        let original = original("fa_hd1");
        let locked = SfllHd::new(10, 1)
            .with_seed(8)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(1));
        assert!(result.status.is_success(), "{result:?}");
        assert!(result.shortlisted_keys.contains(&locked.key));
    }

    #[test]
    fn breaks_sfll_hd2_with_each_applicable_analysis() {
        let original = original("fa_hd2");
        let locked = SfllHd::new(12, 2)
            .with_seed(19)
            .lock(&original)
            .expect("lock")
            .optimized();
        for analysis in [Analysis::Distance2H, Analysis::SlidingWindow] {
            let mut config = FallAttackConfig::for_h(2);
            config.analyses = Some(vec![analysis]);
            let result = fall_attack(&locked.locked, None, &config);
            assert!(
                result.shortlisted_keys.contains(&locked.key),
                "{analysis:?}: {result:?}"
            );
        }
    }

    #[test]
    fn key_confirmation_resolves_ambiguity() {
        // Without the equivalence check, spurious cubes can survive; with an
        // oracle the confirmation stage must still recover the correct key.
        let original = original("fa_confirm");
        let locked = SfllHd::new(9, 1)
            .with_seed(77)
            .lock(&original)
            .expect("lock")
            .optimized();
        let oracle = SimOracle::new(locked.original.clone());
        let mut config = FallAttackConfig::for_h(1);
        config.equivalence_check = false;
        let result = fall_attack(&locked.locked, Some(&oracle), &config);
        assert!(result.status.is_success(), "{result:?}");
        let best = result.best_key().expect("a key was produced");
        assert!(locked.key_is_functionally_correct(best, 256, 9));
    }

    #[test]
    fn fails_cleanly_on_non_cube_stripping_schemes() {
        // Random XOR locking has no cube stripper; the structural stages find
        // comparators (the key XORs) but no candidate matches the support, or
        // the functional stages reject everything.
        let original = original("fa_xor");
        let locked = XorLock::new(8)
            .with_seed(3)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
        assert!(
            matches!(
                result.status,
                FallStatus::NoCandidates | FallStatus::NoKeysFound
            ),
            "{result:?}"
        );
        assert!(result.shortlisted_keys.is_empty());
    }

    #[test]
    fn timings_are_recorded() {
        let original = original("fa_time");
        let locked = TtLock::new(6)
            .with_seed(1)
            .lock(&original)
            .expect("lock")
            .optimized();
        let result = fall_attack(&locked.locked, None, &FallAttackConfig::for_h(0));
        assert!(result.timings.total() > Duration::ZERO);
        assert!(result.timings.comparators > Duration::ZERO);
    }
}
