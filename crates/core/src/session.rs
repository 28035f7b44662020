//! The incremental attack session: one persistent solver plus cached circuit
//! encodings shared by every attack stage.
//!
//! Every attack in this crate used to allocate a fresh [`sat::Solver`] and
//! re-encode the locked netlist for each query.  Modern CDCL solvers win
//! precisely by keeping learnt clauses, variable activities and saved phases
//! alive across related queries, so [`AttackSession`] centralises all SAT
//! interaction behind one persistent solver per attack run:
//!
//! * **DIP machinery** — the two shared-input circuit copies of the SAT
//!   attack are encoded **once**; the "outputs differ" constraint lives in an
//!   activation frame so it can be switched off (for key extraction and the
//!   key-confirmation candidate query) or retired without losing learnt
//!   clauses.  Each observed I/O pair is added through
//!   [`netlist::cnf::encode_with_fixed_inputs`], which constant-folds all
//!   key-independent logic, so the distinguishing-input loop performs **zero
//!   solver allocations** and encodes only the key cone per iteration.
//! * **Cone machinery** — the functional analyses (unateness, sliding
//!   window, distance-2h) and the equivalence check all operate on candidate
//!   cones over two input spaces `X1`/`X2`.  The session memoizes cone
//!   encodings across queries (overlapping cones are encoded once, via
//!   [`netlist::cnf::IncrementalEncoder`]), plus one global per-position
//!   difference vector and **one** shared popcount network whose
//!   "count = k" literals serve every Hamming-distance query.  All analysis
//!   queries are pure assumption queries: after the shared structure exists,
//!   a cofactor or HD-pair check adds no clauses at all.
//! * **Predicate generations** — a key-confirmation predicate ϕ and the I/O
//!   constraints observed while it is live are scoped to a retireable
//!   *generation* ([`AttackSession::begin_predicate`] /
//!   [`AttackSession::retire_predicate`]).  Retiring a generation detaches ϕ
//!   and its I/O pairs while the circuit encodings, the `Kϕ` literal pool and
//!   every frame-independent learnt clause stay: one long-lived session can
//!   confirm an unbounded sequence of predicates — this is what lets the
//!   parallel engine keep **one session per worker** instead of one per
//!   key-space region.  A contradictory generation (an I/O pair no key can
//!   reproduce) poisons only its own frames, so a worker that draws an
//!   impossible region survives to take the next one.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use locking::Key;
use netlist::cnf::{encode_any_difference, encode_key_cone, KeyCone, Signal};
use netlist::cnf::{IncrementalEncoder, PinBinding};
use netlist::{Netlist, NodeId, WideSim, DEFAULT_WIDE_WORDS};
use sat::{FrameId, Lit, SolveResult, Solver, SolverConfig, SolverStats};

use crate::encode::{
    assumptions_for, instantiate, instantiate_sharing_inputs, model_key, model_values, CircuitCopy,
};
use crate::functional::{and2_lit, popcount_lits, xor2_lit, PrefilterStats};

/// The flight-recorder phase name of a solver maintenance checkpoint.
fn checkpoint_phase(checkpoint: sat::Checkpoint) -> &'static str {
    match checkpoint {
        sat::Checkpoint::Gc => "sat_gc",
        sat::Checkpoint::ReduceDb => "sat_reduce_db",
        sat::Checkpoint::Simplify => "sat_simplify",
        sat::Checkpoint::Eliminate => "sat_eliminate",
        sat::Checkpoint::Restart => "sat_restart",
    }
}

/// Which of the session's key-literal vectors an I/O constraint applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyVector {
    /// The first key copy `K1` of the two-copy DIP formula.
    A,
    /// The second key copy `K2` of the two-copy DIP formula.
    B,
    /// The standalone predicate key vector used by key confirmation
    /// (created by [`AttackSession::begin_predicate`]).
    Predicate,
}

/// The two shared-input circuit copies plus the scoped difference constraint.
struct DipParts {
    inputs: Vec<Lit>,
    key_a: Vec<Lit>,
    key_b: Vec<Lit>,
    /// Literal asserting "the two output vectors differ".
    diff_lit: Lit,
    /// Frame scoping the difference constraint; re-armed after retirement so
    /// a session stays usable for further DIP queries.
    diff_frame: FrameId,
    /// Frame scoping the I/O constraints on `K1`.  The SAT attack's queries
    /// activate it; the key-confirmation `Q` query must not — there `K1` is
    /// pinned to an unvetted candidate, and a leftover I/O clause would turn
    /// "candidate contradicts old observations" into a spurious Unsat, i.e.
    /// a wrong key reported as confirmed.
    io_a_frame: FrameId,
}

/// One predicate generation: the retireable scope of a confirmation run.
///
/// Everything a key-confirmation run adds — ϕ itself and the I/O-pair
/// constraints observed while the generation is live — lands in one of these
/// two frames, so [`AttackSession::retire_predicate`] detaches the whole run
/// in O(1) and [`sat::Solver::simplify`] reclaims the clauses, while the
/// permanent machinery (circuit copies, `Kϕ` pool, cone encodings, popcount,
/// miters) and every frame-independent learnt clause survive into the next
/// generation.
struct PredicateGeneration {
    /// Scope of ϕ plus the `K2`/`Kϕ` I/O constraints of this generation.
    phi_frame: FrameId,
    /// Scope of the `K1` I/O constraints of this generation (kept separate
    /// from `phi_frame` for the same reason [`DipParts::io_a_frame`] exists:
    /// the `Q` query must leave `K1`'s I/O history dormant).
    io_a_frame: FrameId,
}

/// Dual cone-analysis input spaces with shared difference/popcount networks.
struct ConeParts {
    enc1: IncrementalEncoder,
    enc2: IncrementalEncoder,
    /// `diff[i] = X1_i XOR X2_i`, built lazily per input position.
    diff: Vec<Option<Lit>>,
    /// Binary-counter sum over *all* input differences, built on first use.
    popcount: Option<Vec<Lit>>,
    /// Memoized `popcount == k` literals.
    hd_equals: BTreeMap<usize, Lit>,
    /// Memoized XOR miters keyed by normalised literal pair.
    miters: BTreeMap<(Lit, Lit), Lit>,
    /// A literal fixed to false, for degenerate constant queries.
    const_false: Option<Lit>,
}

/// One persistent solver and its cached encodings for a whole attack run.
///
/// See the [module documentation](self) for the design; see
/// [`crate::sat_attack::sat_attack`], [`mod@crate::key_confirmation`],
/// [`crate::equivalence`] and [`crate::functional`] for the attacks that run
/// through it.
pub struct AttackSession<'n> {
    netlist: &'n Netlist,
    solver: Solver,
    dip: Option<DipParts>,
    cones: Option<ConeParts>,
    /// Key-dependent node set, computed once on the first I/O constraint and
    /// reused by every later [`AttackSession::constrain_key_with_io`] /
    /// [`AttackSession::force_dip`] call.
    key_cone: Option<KeyCone>,
    /// The active predicate generation, if any.
    generation: Option<PredicateGeneration>,
    /// The `Kϕ` literal pool, allocated by the first generation and reused by
    /// every later one (all constraints on it are generation-scoped, so the
    /// variables are clean again after each retirement).
    phi_key_pool: Option<Vec<Lit>>,
    /// Number of full circuit encodings this session has built (the two-copy
    /// DIP formula and the dual cone input spaces count one each).
    full_encodings: u64,
    clauses_at_last_simplify: usize,
    /// Reusable wide-simulation scratch for the analysis prefilters,
    /// allocated on first use ([`AttackSession::wide_sim_parts`]).
    wide: Option<WideSim>,
    /// Prefilter decision counters accumulated by every analysis run through
    /// this session.
    prefilter_stats: PrefilterStats,
}

impl<'n> AttackSession<'n> {
    /// Creates an empty session for a locked netlist.  Nothing is encoded
    /// until the first query arrives.
    pub fn new(netlist: &'n Netlist) -> AttackSession<'n> {
        AttackSession::with_config(netlist, SolverConfig::default())
    }

    /// Creates an empty session whose solver uses the given search
    /// configuration (the portfolio entry point: each racer gets its own
    /// deliberately diverse configuration).
    pub fn with_config(netlist: &'n Netlist, config: SolverConfig) -> AttackSession<'n> {
        let mut solver = Solver::with_config(config);
        // Forward the solver's maintenance checkpoints (GC, reduction,
        // simplification, elimination, restarts) into the flight recorder.
        // `record_duration` is a no-op while tracing is disabled, and the
        // solver never reads a clock for search decisions, so the hook is
        // trajectory-neutral either way.
        solver.set_checkpoint_hook(Some(Box::new(|checkpoint, duration| {
            crate::trace::record_duration(checkpoint_phase(checkpoint), duration);
        })));
        AttackSession {
            netlist,
            solver,
            dip: None,
            cones: None,
            key_cone: None,
            generation: None,
            phi_key_pool: None,
            full_encodings: 0,
            clauses_at_last_simplify: 0,
            wide: None,
            prefilter_stats: PrefilterStats::default(),
        }
    }

    /// Eagerly builds the session's permanent DIP machinery: the two-copy
    /// circuit encoding and the key-dependent node set.
    ///
    /// Everything is built lazily on first use anyway; priming exists so a
    /// worker can pay the one-off encoding cost at a deterministic point
    /// (thread start) before pulling work from a queue — which also makes the
    /// [`AttackSession::cone_encodings_built`] counter deterministic for the
    /// benchmark-regression gate.
    pub fn prime(&mut self) {
        self.ensure_dip();
        if self.key_cone.is_none() {
            self.key_cone = Some(KeyCone::of(self.netlist));
        }
    }

    /// Number of full circuit encodings this session has performed: at most
    /// one two-copy DIP encoding plus one dual cone-space encoding per
    /// session, however many queries or predicate generations ran through it.
    pub fn cone_encodings_built(&self) -> u64 {
        self.full_encodings
    }

    /// Installs (or clears) a shared interrupt flag on the underlying solver.
    ///
    /// While the flag reads `true`, every SAT query returns
    /// [`SolveResult::Unknown`] at its next check point, which the attack
    /// loops surface as an unfinished (`completed: false`) result.  The
    /// parallel engine uses this to stop all workers the moment one confirms
    /// a key.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.solver.set_interrupt(flag);
    }

    /// The netlist this session attacks.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Work counters of the underlying solver, including the clause-arena
    /// footprint (`arena_bytes`/`wasted_bytes`/`gc_runs`) and the number of
    /// per-generation Tseitin variables reclaimed so far (`recycled_vars`).
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// The session's reusable wide-simulation scratch
    /// ([`DEFAULT_WIDE_WORDS`] words, allocated on first use) together with
    /// the prefilter counters — split-borrowed so an analysis can hold both
    /// while reading the netlist through the independent `&'n` reference of
    /// [`AttackSession::netlist`].
    pub fn wide_sim_parts(&mut self) -> (&mut WideSim, &mut PrefilterStats) {
        let wide = self
            .wide
            .get_or_insert_with(|| WideSim::new(self.netlist, DEFAULT_WIDE_WORDS));
        (wide, &mut self.prefilter_stats)
    }

    /// Prefilter decision counters accumulated by every analysis that ran
    /// through this session.
    pub fn prefilter_stats(&self) -> PrefilterStats {
        self.prefilter_stats
    }

    /// Number of solver variables this session has allocated.  Bounded across
    /// predicate generations: retirement releases a generation's Tseitin
    /// variables back to the solver's free list, so generation `n + 1` reuses
    /// the variables of generation `n` instead of growing the space.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Forwards to [`Solver::set_conflict_budget`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.solver.set_conflict_budget(budget);
    }

    /// Direct access to the underlying solver, for callers that add their own
    /// **permanent** clauses.  Clauses must only be added between queries (at
    /// decision level 0).
    ///
    /// Do *not* add a key-confirmation predicate ϕ this way: clauses added
    /// through the raw solver bypass the generation's frame routing, survive
    /// [`AttackSession::retire_predicate`], and would silently conjoin with
    /// every later generation's ϕ.  Use
    /// [`AttackSession::add_predicate_clauses`] for anything predicate-scoped.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Model value of a literal after a successful query.
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.solver.value(lit)
    }

    // ------------------------------------------------------------------
    // DIP machinery (SAT attack and key confirmation).
    // ------------------------------------------------------------------

    /// Marks literals as solver interface: the session references them across
    /// [`Solver::simplify`] checkpoints (models, assumptions, new clauses),
    /// so bounded variable elimination must never resolve them out.
    fn freeze_all(&mut self, lits: &[Lit]) {
        for lit in lits {
            self.solver.set_frozen(lit.var(), true);
        }
    }

    fn ensure_dip(&mut self) {
        if self.dip.is_some() {
            return;
        }
        self.full_encodings += 1;
        let copy_a: CircuitCopy = instantiate(self.netlist, &mut self.solver);
        let copy_b = instantiate_sharing_inputs(self.netlist, &mut self.solver, &copy_a.inputs);
        let diff = encode_any_difference(&mut self.solver, &copy_a.outputs, &copy_b.outputs);
        // The session's permanent interface: inputs and both key copies are
        // read from models and constrained by every later I/O pair, and the
        // difference literal is re-armed after each extract_key.
        self.freeze_all(&copy_a.inputs);
        self.freeze_all(&copy_a.keys);
        self.freeze_all(&copy_b.keys);
        self.freeze_all(&[diff]);
        let diff_frame = self.solver.push_frame();
        self.solver.add_clause_in(diff_frame, [diff]);
        let io_a_frame = self.solver.push_frame();
        self.dip = Some(DipParts {
            inputs: copy_a.inputs,
            key_a: copy_a.keys,
            key_b: copy_b.keys,
            diff_lit: diff,
            diff_frame,
            io_a_frame,
        });
    }

    /// The frame holding the difference constraint, re-arming it in a fresh
    /// frame if a previous [`AttackSession::extract_key`] retired it.
    fn diff_frame(&mut self) -> FrameId {
        let dip = self.dip.as_ref().expect("ensured by caller");
        if !self.solver.frame_retired(dip.diff_frame) {
            return dip.diff_frame;
        }
        let diff = dip.diff_lit;
        let frame = self.solver.push_frame();
        self.solver.add_clause_in(frame, [diff]);
        self.dip.as_mut().expect("ensured by caller").diff_frame = frame;
        frame
    }

    /// Literals of the first key copy `K1`.
    pub fn key_a_lits(&mut self) -> Vec<Lit> {
        self.ensure_dip();
        self.dip.as_ref().expect("just ensured").key_a.clone()
    }

    /// Opens a predicate generation and returns the `Kϕ` key vector it
    /// constrains.
    ///
    /// Key confirmation constrains `Kϕ` with ϕ and the observed I/O pairs;
    /// it is not tied to either DIP circuit copy.  Everything the generation
    /// adds — ϕ clauses ([`AttackSession::add_predicate_clauses`]) and I/O
    /// constraints ([`AttackSession::constrain_key_with_io`], on *any* key
    /// vector) — is scoped to the generation's frames and detached by
    /// [`AttackSession::retire_predicate`], after which the session is clean
    /// for the next predicate.  The `Kϕ` literals themselves are allocated
    /// once and reused by every generation.
    ///
    /// A session supports one predicate *at a time*: two live predicates
    /// would silently conjoin and could reject a shortlist containing the
    /// correct key.
    ///
    /// # Panics
    ///
    /// Panics if a generation is already active (retire it first).
    pub fn begin_predicate(&mut self) -> Vec<Lit> {
        self.ensure_dip();
        assert!(
            self.generation.is_none(),
            "a session supports one active key-confirmation predicate; \
             call retire_predicate() before beginning the next one"
        );
        if self.phi_key_pool.is_none() {
            let keys: Vec<Lit> = (0..self.netlist.num_key_inputs())
                .map(|_| Lit::positive(self.solver.new_var()))
                .collect();
            // The pool outlives every generation; keep it out of elimination.
            self.freeze_all(&keys);
            self.phi_key_pool = Some(keys);
        }
        let phi_frame = self.solver.push_frame();
        let io_a_frame = self.solver.push_frame();
        self.generation = Some(PredicateGeneration {
            phi_frame,
            io_a_frame,
        });
        self.phi_key_pool.clone().expect("just ensured")
    }

    /// Concludes the active predicate generation: retires its frames,
    /// reclaims the clause database — the retired frames' clauses become
    /// arena tombstones and a garbage collection compacts them away once
    /// enough bytes are wasted — recycles the generation's Tseitin variables
    /// (every variable allocated while a generation frame was the default
    /// clause frame returns to the solver's free list), and leaves the
    /// session ready for the next [`AttackSession::begin_predicate`].
    ///
    /// This also recovers from a *poisoned* generation (one whose I/O pairs
    /// no key can reproduce): the contradiction lives in the retired frames,
    /// so the session stays satisfiable — a parallel worker that drew a
    /// contradictory region survives to take the next one.
    ///
    /// A no-op when no generation is active.
    pub fn retire_predicate(&mut self) {
        if let Some(generation) = self.generation.take() {
            self.solver.retire_frame(generation.phi_frame);
            self.solver.retire_frame(generation.io_a_frame);
            self.solver.simplify();
            self.clauses_at_last_simplify = self.solver.num_clauses();
        }
    }

    /// Returns `true` while a predicate generation is active.
    pub fn has_active_predicate(&self) -> bool {
        self.generation.is_some()
    }

    /// Adds ϕ clauses scoped to the active generation.
    ///
    /// The closure receives the solver with the generation's ϕ frame
    /// installed as the default clause frame, plus the `Kϕ` literals — so
    /// predicate builders written against the plain [`Solver::add_clause`]
    /// API (shortlist encodings, region pinnings) are scoped without knowing
    /// about frames.  Auxiliary variables the closure allocates (shortlist
    /// selectors and the like) are tagged to the ϕ frame and *recycled* when
    /// the generation retires — do not hold on to them across
    /// [`AttackSession::retire_predicate`]: a later generation's encoding may
    /// reuse the same variable index.
    ///
    /// # Panics
    ///
    /// Panics if no generation is active.
    pub fn add_predicate_clauses<F>(&mut self, add_phi: F)
    where
        F: FnOnce(&mut Solver, &[Lit]),
    {
        let frame = self
            .generation
            .as_ref()
            .expect("begin_predicate() must be called first")
            .phi_frame;
        let keys = self.phi_key_pool.clone().expect("pool exists");
        self.solver.set_default_frame(Some(frame));
        add_phi(&mut self.solver, &keys);
        self.solver.set_default_frame(None);
    }

    fn phi_keys(&self) -> Vec<Lit> {
        assert!(
            self.generation.is_some(),
            "begin_predicate() must be called first"
        );
        self.phi_key_pool.clone().expect("pool exists")
    }

    /// Searches for a distinguishing input: shared inputs `X`, two free key
    /// copies, outputs forced to differ.  An active predicate generation's
    /// constraints (ϕ and its I/O pairs) participate in the search.
    pub fn find_dip(&mut self) -> SolveResult {
        self.ensure_dip();
        let diff = self.diff_frame();
        let io_a = self.dip.as_ref().expect("just ensured").io_a_frame;
        let mut frames = vec![diff, io_a];
        if let Some(generation) = &self.generation {
            frames.push(generation.io_a_frame);
            frames.push(generation.phi_frame);
        }
        let _span = crate::trace::span("solve");
        self.solver.solve_in(&frames, &[])
    }

    /// Searches for a distinguishing input with `K1` pinned to a candidate
    /// key (the key-confirmation `Q` query).
    ///
    /// Any I/O constraints placed on `K1` — by a previous SAT-attack run or
    /// during the current predicate generation — stay dormant here: the
    /// candidate must be judged purely against the other key copy's
    /// consistency with the observed pairs, otherwise a candidate
    /// contradicting `K1`'s old observations would be spuriously "confirmed".
    /// The generation's `K2`/`Kϕ` constraints *are* active.
    ///
    /// # Panics
    ///
    /// Panics if the key width does not match the circuit.
    pub fn find_dip_against(&mut self, candidate: &Key) -> SolveResult {
        self.ensure_dip();
        let diff = self.diff_frame();
        let key_a = self.dip.as_ref().expect("just ensured").key_a.clone();
        let assumptions = assumptions_for(&key_a, candidate.bits());
        let mut frames = vec![diff];
        if let Some(generation) = &self.generation {
            frames.push(generation.phi_frame);
        }
        let _span = crate::trace::span("solve");
        self.solver.solve_in(&frames, &assumptions)
    }

    /// The distinguishing input found by the last successful
    /// [`AttackSession::find_dip`]/[`AttackSession::find_dip_against`] call.
    ///
    /// # Panics
    ///
    /// Panics if the last query was not satisfiable.
    pub fn dip_inputs(&self) -> Vec<bool> {
        let dip = self.dip.as_ref().expect("find_dip must be called first");
        model_values(&self.solver, &dip.inputs)
    }

    /// Simulates the key-free portion of the circuit for one input pattern
    /// (key bits are irrelevant outside the key cone) and memoizes the
    /// key-dependent node set on first use.
    fn simulate_key_free(&mut self, inputs: &[bool]) -> Vec<bool> {
        if self.key_cone.is_none() {
            self.key_cone = Some(KeyCone::of(self.netlist));
        }
        let zero_keys = vec![false; self.netlist.num_key_inputs()];
        self.netlist
            .node_values(inputs, &zero_keys)
            .expect("input width mismatch")
    }

    /// Adds the observed I/O pair `C(x̂, K, ŷ)` as a constraint on one key
    /// vector.
    ///
    /// Scoping: while a predicate generation is active, the constraint —
    /// including its cone encoding — lands in the generation's frames
    /// (`K1` in the generation's I/O frame, `K2`/`Kϕ` in the ϕ frame) and is
    /// detached by [`AttackSession::retire_predicate`].  Outside a
    /// generation, `K1` constraints are scoped to the session's `K1` I/O
    /// frame (see [`AttackSession::find_dip_against`] for why) and `K2`
    /// constraints are permanent; `Kϕ` requires an active generation.
    ///
    /// Only the session's precomputed key-dependent cone is encoded
    /// ([`netlist::cnf::encode_key_cone`]); every key-free wire is read from
    /// one simulator pass instead of being re-derived by constant folding
    /// over the whole netlist.  If an output bit is key-independent and
    /// contradicts the observation, the constrained formula becomes
    /// unsatisfiable (the locked circuit cannot produce the observed
    /// behaviour under any key) — within a generation the contradiction is
    /// confined to the generation's frame.
    pub fn constrain_key_with_io(&mut self, which: KeyVector, inputs: &[bool], outputs: &[bool]) {
        let node_values = self.simulate_key_free(inputs);
        self.constrain_key_with_io_presimulated(which, &node_values, outputs);
        self.maybe_simplify();
    }

    /// Inner constraint step over an existing simulation pass, so
    /// [`AttackSession::force_dip`] folds the key cone twice but simulates
    /// only once.
    fn constrain_key_with_io_presimulated(
        &mut self,
        which: KeyVector,
        node_values: &[bool],
        outputs: &[bool],
    ) {
        self.ensure_dip();
        let dip = self.dip.as_ref().expect("just ensured");
        let (keys, frame) = match which {
            KeyVector::A => (
                dip.key_a.clone(),
                Some(match &self.generation {
                    Some(generation) => generation.io_a_frame,
                    None => dip.io_a_frame,
                }),
            ),
            KeyVector::B => (
                dip.key_b.clone(),
                self.generation.as_ref().map(|g| g.phi_frame),
            ),
            KeyVector::Predicate => (self.phi_keys(), {
                let generation = self
                    .generation
                    .as_ref()
                    .expect("begin_predicate() must be called first");
                Some(generation.phi_frame)
            }),
        };
        let cone = self.key_cone.as_ref().expect("ensured by caller");
        // Route the whole encoding — Tseitin definitions and forcing units —
        // into the chosen frame, so retirement reclaims all of it.  An
        // impossible observation becomes the frame-scoped empty clause,
        // poisoning the frame instead of the solver.
        self.solver.set_default_frame(frame);
        let signals = encode_key_cone(self.netlist, &mut self.solver, cone, node_values, &keys);
        assert_eq!(signals.len(), outputs.len(), "output width mismatch");
        for (signal, &want) in signals.iter().zip(outputs) {
            match signal {
                Signal::Const(have) if *have == want => {}
                Signal::Const(_) => {
                    // No key can reproduce the observation.
                    self.solver.add_clause([]);
                    break;
                }
                Signal::Lit(l) => self.solver.add_clause([if want { *l } else { !*l }]),
            }
        }
        self.solver.set_default_frame(None);
    }

    /// Classic SAT-attack bookkeeping: constrains both DIP key copies with
    /// the observed I/O pair.  The key-free logic is simulated once and
    /// shared by both constraint passes.
    pub fn force_dip(&mut self, inputs: &[bool], outputs: &[bool]) {
        let node_values = self.simulate_key_free(inputs);
        self.constrain_key_with_io_presimulated(KeyVector::A, &node_values, outputs);
        self.constrain_key_with_io_presimulated(KeyVector::B, &node_values, outputs);
        self.maybe_simplify();
    }

    /// Solves the predicate formula (difference constraint and `K1` I/O
    /// history dormant, generation's ϕ and I/O pairs active) and returns a
    /// candidate key from the `Kϕ` model.
    ///
    /// # Panics
    ///
    /// Panics if no predicate generation is active.
    pub fn candidate_key(&mut self) -> (SolveResult, Option<Key>) {
        let phi = self.phi_keys();
        let phi_frame = self
            .generation
            .as_ref()
            .expect("checked by phi_keys")
            .phi_frame;
        let _span = crate::trace::span("solve");
        let result = self.solver.solve_in(&[phi_frame], &[]);
        let key = (result == SolveResult::Sat).then(|| model_key(&self.solver, &phi));
        (result, key)
    }

    /// Concludes the DIP loop: retires the difference constraint, reclaims
    /// the clause database, and extracts a key consistent with every observed
    /// I/O pair from the `K1` model.
    ///
    /// The session remains usable afterwards: the next DIP query transparently
    /// re-arms the difference constraint in a fresh frame.
    ///
    /// Returns `(Unsat, None)` when the accumulated constraints are
    /// contradictory (the oracle does not match the locked circuit).
    pub fn extract_key(&mut self) -> (SolveResult, Option<Key>) {
        self.ensure_dip();
        let dip = self.dip.as_ref().expect("just ensured");
        let (frame, io_a, key_a) = (dip.diff_frame, dip.io_a_frame, dip.key_a.clone());
        if !self.solver.frame_retired(frame) {
            self.solver.retire_frame(frame);
            self.solver.simplify();
        }
        let mut frames = vec![io_a];
        if let Some(generation) = &self.generation {
            frames.push(generation.io_a_frame);
            frames.push(generation.phi_frame);
        }
        let _span = crate::trace::span("solve");
        let result = self.solver.solve_in(&frames, &[]);
        let key = (result == SolveResult::Sat).then(|| model_key(&self.solver, &key_a));
        (result, key)
    }

    fn maybe_simplify(&mut self) {
        let n = self.solver.num_clauses();
        if n > 2_000 && n > 2 * self.clauses_at_last_simplify {
            self.solver.simplify();
            self.clauses_at_last_simplify = self.solver.num_clauses();
        }
    }

    // ------------------------------------------------------------------
    // Cone machinery (functional analyses and equivalence checking).
    // ------------------------------------------------------------------

    fn ensure_cones(&mut self) {
        if self.cones.is_some() {
            return;
        }
        self.full_encodings += 1;
        let enc1 = IncrementalEncoder::new(self.netlist, &mut self.solver, &PinBinding::default());
        // The second input space is fresh; the key space is shared with the
        // first copy (analysis candidates never depend on key inputs, but a
        // shared binding keeps cone pairs aligned if they ever do).
        let enc2 = IncrementalEncoder::new(
            self.netlist,
            &mut self.solver,
            &PinBinding {
                inputs: None,
                keys: Some(enc1.keys().to_vec()),
            },
        );
        // Input and key pins of both spaces are referenced by every later
        // analysis query; the internal cone-node literals are *not* frozen —
        // elimination may chew through them, and a later re-reference pays a
        // transparent resurrection instead.
        self.freeze_all(enc1.inputs());
        self.freeze_all(enc2.inputs());
        self.freeze_all(enc1.keys());
        self.cones = Some(ConeParts {
            enc1,
            enc2,
            diff: vec![None; self.netlist.num_inputs()],
            popcount: None,
            hd_equals: BTreeMap::new(),
            miters: BTreeMap::new(),
            const_false: None,
        });
    }

    /// Encodes (memoized) the candidate cone in the first input space and
    /// returns its root literal.
    pub fn cone_lit(&mut self, root: NodeId) -> Lit {
        self.ensure_cones();
        let cones = self.cones.as_mut().expect("just ensured");
        let lit = cones.enc1.encode_cone(self.netlist, &mut self.solver, root);
        // Root literals escape to callers (assumptions, miters); freeze them.
        self.solver.set_frozen(lit.var(), true);
        lit
    }

    /// Encodes (memoized) the candidate cone in both input spaces and
    /// returns the two root literals.
    pub fn cone_pair(&mut self, root: NodeId) -> (Lit, Lit) {
        self.ensure_cones();
        let cones = self.cones.as_mut().expect("just ensured");
        let l1 = cones.enc1.encode_cone(self.netlist, &mut self.solver, root);
        let l2 = cones.enc2.encode_cone(self.netlist, &mut self.solver, root);
        self.solver.set_frozen(l1.var(), true);
        self.solver.set_frozen(l2.var(), true);
        (l1, l2)
    }

    /// The literals of primary input `position` in the two input spaces.
    pub fn input_pair(&mut self, position: usize) -> (Lit, Lit) {
        self.ensure_cones();
        let cones = self.cones.as_ref().expect("just ensured");
        (cones.enc1.inputs()[position], cones.enc2.inputs()[position])
    }

    /// A literal equivalent to `X1[position] XOR X2[position]` (memoized).
    pub fn input_diff(&mut self, position: usize) -> Lit {
        self.ensure_cones();
        let cones = self.cones.as_mut().expect("just ensured");
        if let Some(lit) = cones.diff[position] {
            return lit;
        }
        let a = cones.enc1.inputs()[position];
        let b = cones.enc2.inputs()[position];
        let lit = xor2_lit(&mut self.solver, a, b);
        self.solver.set_frozen(lit.var(), true);
        cones.diff[position] = Some(lit);
        lit
    }

    /// A literal equivalent to `X1[position] == X2[position]` (memoized).
    pub fn input_eq(&mut self, position: usize) -> Lit {
        !self.input_diff(position)
    }

    /// A literal equivalent to `HD(X1, X2) == k` over **all** primary input
    /// positions (memoized; the popcount network is built once per session
    /// and shared by every Hamming-distance query).
    ///
    /// Callers restrict the distance to a support set by assuming
    /// [`AttackSession::input_eq`] for every position outside it.
    pub fn hd_equals(&mut self, k: usize) -> Lit {
        self.ensure_cones();
        if k > self.netlist.num_inputs() {
            return self.cone_const_false();
        }
        if let Some(&lit) = self.cones.as_ref().expect("just ensured").hd_equals.get(&k) {
            return lit;
        }
        if self
            .cones
            .as_ref()
            .expect("just ensured")
            .popcount
            .is_none()
        {
            let diffs: Vec<Lit> = (0..self.netlist.num_inputs())
                .map(|i| self.input_diff(i))
                .collect();
            let sum = popcount_lits(&mut self.solver, &diffs);
            // The counter bits feed every later `HD == k` literal.
            self.freeze_all(&sum);
            self.cones.as_mut().expect("just ensured").popcount = Some(sum);
        }
        let cones = self.cones.as_mut().expect("just ensured");
        let sum = cones.popcount.clone().expect("just built");
        // AND over per-bit agreement of the counter with the constant k.
        let mut acc: Option<Lit> = None;
        for (i, &s) in sum.iter().enumerate() {
            let term = if (k >> i) & 1 == 1 { s } else { !s };
            acc = Some(match acc {
                None => term,
                Some(prev) => and2_lit(&mut self.solver, prev, term),
            });
        }
        let lit = acc.expect("popcount has at least one bit");
        self.solver.set_frozen(lit.var(), true);
        self.cones
            .as_mut()
            .expect("just ensured")
            .hd_equals
            .insert(k, lit);
        lit
    }

    /// A literal equivalent to `a XOR b` (memoized miter).
    pub fn miter(&mut self, a: Lit, b: Lit) -> Lit {
        self.ensure_cones();
        let key = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&lit) = self.cones.as_ref().expect("just ensured").miters.get(&key) {
            return lit;
        }
        let lit = xor2_lit(&mut self.solver, a, b);
        self.solver.set_frozen(lit.var(), true);
        self.cones
            .as_mut()
            .expect("just ensured")
            .miters
            .insert(key, lit);
        lit
    }

    /// Decides a cone property under assumptions — the generic analysis
    /// query.  All shared structure (cones, difference vector, popcount) is
    /// reused; the query itself adds no clauses.
    pub fn check_cone_property(&mut self, assumptions: &[Lit]) -> SolveResult {
        let _span = crate::trace::span("solve");
        self.solver.solve_with(assumptions)
    }

    fn cone_const_false(&mut self) -> Lit {
        let cones = self.cones.as_mut().expect("ensured by caller");
        if let Some(lit) = cones.const_false {
            return lit;
        }
        let lit = Lit::positive(self.solver.new_var());
        self.solver.set_frozen(lit.var(), true);
        self.solver.add_clause([!lit]);
        cones.const_false = Some(lit);
        lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locking::{LockingScheme, XorLock};
    use netlist::random::{generate, RandomCircuitSpec};
    use netlist::sim::pattern_to_bits;
    use netlist::GateKind;

    #[test]
    fn dip_loop_is_allocation_free_and_concludes() {
        let original = generate(&RandomCircuitSpec::new("sess_dip", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(3).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);

        let mut iterations = 0;
        loop {
            match session.find_dip() {
                SolveResult::Sat => {}
                SolveResult::Unsat => break,
                SolveResult::Unknown => panic!("no budget set"),
            }
            let x = session.dip_inputs();
            let y = original.evaluate(&x, &[]);
            session.force_dip(&x, &y);
            iterations += 1;
            assert!(iterations < 100, "XOR locking must converge quickly");
        }
        let (result, key) = session.extract_key();
        assert_eq!(result, SolveResult::Sat);
        let key = key.expect("sat result carries a key");
        for pattern in 0..64u64 {
            let bits = pattern_to_bits(pattern, 6);
            assert_eq!(
                locked.locked.evaluate(&bits, key.bits()),
                original.evaluate(&bits, &[]),
            );
        }
    }

    #[test]
    fn session_survives_extract_key_and_supports_further_dip_queries() {
        // Regression: extract_key retires the difference frame; a later DIP
        // query (e.g. chaining sat_attack then key_confirmation on one
        // session) must transparently re-arm it instead of panicking.
        let original = generate(&RandomCircuitSpec::new("sess_chain", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let oracle = crate::oracle::SimOracle::new(original.clone());

        let mut session = AttackSession::new(&locked.locked);
        let first = crate::sat_attack::sat_attack_in(
            &mut session,
            &oracle,
            &crate::sat_attack::SatAttackConfig::default(),
        );
        assert!(first.is_success(), "{:?}", first.status);
        let recovered = first.key.expect("key");

        // The same session can now run key confirmation: its DIP queries
        // re-arm the retired difference constraint.
        let confirmation = crate::key_confirmation::key_confirmation_in(
            &mut session,
            &oracle,
            &[recovered.clone(), recovered.complement()],
            &crate::key_confirmation::KeyConfirmationConfig::default(),
        );
        assert!(confirmation.completed);
        let confirmed = confirmation.key.expect("a correct key is in the shortlist");
        assert!(locked.key_is_functionally_correct(&confirmed, 128, 1));

        // Soundness of the chained confirmation: a shortlist containing only
        // a wrong key must be rejected even though the session's K1 carries
        // I/O constraints from the earlier SAT attack (those must stay
        // dormant in the Q query, not masquerade as "no distinguishing
        // input").
        let mut session2 = AttackSession::new(&locked.locked);
        let first2 = crate::sat_attack::sat_attack_in(
            &mut session2,
            &oracle,
            &crate::sat_attack::SatAttackConfig::default(),
        );
        let recovered2 = first2.key.expect("key");
        let wrong = recovered2.complement();
        assert!(!locked.key_is_functionally_correct(&wrong, 128, 1));
        let rejection = crate::key_confirmation::key_confirmation_in(
            &mut session2,
            &oracle,
            &[wrong],
            &crate::key_confirmation::KeyConfirmationConfig::default(),
        );
        assert!(rejection.completed);
        assert_eq!(
            rejection.key, None,
            "a wrong-only shortlist must be rejected"
        );
    }

    #[test]
    #[should_panic(expected = "retire_predicate")]
    fn overlapping_predicate_generations_are_rejected() {
        let original = generate(&RandomCircuitSpec::new("sess_phi", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);
        let _first = session.begin_predicate();
        let _second = session.begin_predicate();
    }

    #[test]
    fn retired_generations_rebind_and_reuse_the_phi_pool() {
        let original = generate(&RandomCircuitSpec::new("sess_gen", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(7).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);

        let first = session.begin_predicate();
        assert!(session.has_active_predicate());
        session.retire_predicate();
        assert!(!session.has_active_predicate());
        let second = session.begin_predicate();
        assert_eq!(first, second, "the Kϕ literal pool is reused");
        // Retiring twice is a no-op.
        session.retire_predicate();
        session.retire_predicate();
        // Generations never re-encode the circuit.
        assert_eq!(session.cone_encodings_built(), 1);
    }

    #[test]
    fn contradictory_predicate_generations_alternate_with_clean_ones() {
        // A pinned predicate that contradicts ϕ-frame I/O pairs must make the
        // candidate query Unsat for this generation only.
        let original = generate(&RandomCircuitSpec::new("sess_pin", 6, 2, 40));
        let locked = XorLock::new(4).with_seed(9).lock(&original).expect("lock");
        let mut session = AttackSession::new(&locked.locked);

        for round in 0..3 {
            // Contradictory generation: Kϕ[0] pinned both ways.
            let keys = session.begin_predicate();
            let k0 = keys[0];
            session.add_predicate_clauses(|solver, _| {
                solver.add_clause([k0]);
                solver.add_clause([!k0]);
            });
            let (result, key) = session.candidate_key();
            assert_eq!(result, SolveResult::Unsat, "round {round}");
            assert!(key.is_none());
            session.retire_predicate();

            // Clean generation on the same session: satisfiable again.
            let keys = session.begin_predicate();
            let k0 = keys[0];
            session.add_predicate_clauses(|solver, _| solver.add_clause([k0]));
            let (result, key) = session.candidate_key();
            assert_eq!(result, SolveResult::Sat, "round {round}");
            assert!(key.expect("sat carries a key").bits()[0]);
            session.retire_predicate();
        }
    }

    #[test]
    fn constrain_with_impossible_io_poisons_the_session() {
        // A circuit whose output ignores the key entirely.
        let mut nl = netlist::Netlist::new("const_out");
        let a = nl.add_input("a");
        let _k = nl.add_key_input("k");
        let g = nl.add_gate("g", GateKind::Buf, &[a]);
        nl.add_output("g", g);

        let mut session = AttackSession::new(&nl);
        // Claim the output is 1 when the input is 0: impossible for any key.
        session.constrain_key_with_io(KeyVector::A, &[false], &[true]);
        let (result, key) = session.extract_key();
        assert_eq!(result, SolveResult::Unsat);
        assert!(key.is_none());
    }

    #[test]
    fn retiring_a_poisoned_generation_unpoisons_the_session() {
        // Regression for the parallel engine's worker reuse: a generation
        // whose I/O pair is impossible (key-independent contradiction) must
        // poison only its own frames — after retire_predicate the same
        // session must serve further generations and DIP queries.
        let mut nl = netlist::Netlist::new("const_out_gen");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k");
        let g = nl.add_gate("g", GateKind::Buf, &[a]);
        let keyed = nl.add_gate("keyed", GateKind::Xor, &[a, k]);
        nl.add_output("g", g);
        nl.add_output("keyed", keyed);

        let mut session = AttackSession::new(&nl);
        let _phi = session.begin_predicate();
        // Output "g" ignores the key; claiming g(0) == 1 is impossible.
        session.constrain_key_with_io(KeyVector::Predicate, &[false], &[true, false]);
        let (result, key) = session.candidate_key();
        assert_eq!(result, SolveResult::Unsat, "poisoned generation is ⊥");
        assert!(key.is_none());
        session.retire_predicate();

        // The session survives: a clean generation with a possible pair
        // confirms a candidate, and the DIP machinery still works.
        let _phi = session.begin_predicate();
        session.constrain_key_with_io(KeyVector::Predicate, &[false], &[false, true]);
        let (result, key) = session.candidate_key();
        assert_eq!(result, SolveResult::Sat, "session must recover");
        let key = key.expect("sat carries a key");
        assert_eq!(key.bits(), &[true], "keyed(0) == 1 forces k == 1");
        session.retire_predicate();
        assert_eq!(
            session.find_dip(),
            SolveResult::Sat,
            "the xor output still distinguishes the two key copies"
        );
    }

    #[test]
    fn hd_equals_restricted_by_eq_assumptions() {
        let mut nl = netlist::Netlist::new("hd");
        for i in 0..4 {
            let x = nl.add_input(format!("x{i}"));
            nl.add_output(format!("y{i}"), x);
        }
        let mut session = AttackSession::new(&nl);
        let hd1 = session.hd_equals(1);
        // Restrict to positions {0, 1} by forcing equality elsewhere.
        let eq2 = session.input_eq(2);
        let eq3 = session.input_eq(3);
        let (x1_0, x2_0) = session.input_pair(0);
        let (x1_1, x2_1) = session.input_pair(1);
        // Exactly one difference among positions 0 and 1: force both pairs
        // equal -> contradiction with HD == 1.
        let eq0 = session.input_eq(0);
        let eq1 = session.input_eq(1);
        assert_eq!(
            session.check_cone_property(&[hd1, eq2, eq3, eq0, eq1]),
            SolveResult::Unsat
        );
        // One pair differing is satisfiable.
        assert_eq!(
            session.check_cone_property(&[hd1, eq2, eq3, eq0]),
            SolveResult::Sat
        );
        let v1 = session.value(x1_1).unwrap();
        let v2 = session.value(x2_1).unwrap();
        assert_ne!(v1, v2, "the difference must be at the free position");
        let w1 = session.value(x1_0).unwrap();
        let w2 = session.value(x2_0).unwrap();
        assert_eq!(w1, w2);
    }

    #[test]
    fn hd_equals_beyond_width_is_false() {
        let mut nl = netlist::Netlist::new("tiny");
        let a = nl.add_input("a");
        nl.add_output("y", a);
        let mut session = AttackSession::new(&nl);
        let impossible = session.hd_equals(5);
        assert_eq!(
            session.check_cone_property(&[impossible]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn cone_pair_memoizes_and_miters_are_cached() {
        let mut nl = netlist::Netlist::new("cones");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, &[a, b]);
        let h = nl.add_gate("h", GateKind::Or, &[g, a]);
        nl.add_output("h", h);

        let mut session = AttackSession::new(&nl);
        let (g1, g2) = session.cone_pair(g);
        let (h1, h2) = session.cone_pair(h);
        assert_eq!(session.cone_pair(g), (g1, g2));
        assert_eq!(session.cone_pair(h), (h1, h2));
        let m = session.miter(g1, h1);
        assert_eq!(session.miter(h1, g1), m, "miters are symmetric and cached");
    }
}
