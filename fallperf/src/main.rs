//! `fallperf`: the benchmark of the FALL attack stack.
//!
//! ```text
//! cargo run --release --manifest-path fallperf/Cargo.toml -- \
//!     --workload <fall_grid|dip_search|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Given a workload and a seed, it generates the locked instances itself
//! (`netlist::random` plus `locking`), runs them through the library's public
//! entry points, validates every returned key against the original netlist
//! and prints one JSON line: `correct`, `attempted`, `failed` and the
//! metrics.  `--trace 0` measures the end-to-end metrics with the flight
//! recorder off.  `--trace 1` measures half the time untraced and half traced
//! (recorder armed, every layer call inside a benchmark span) and prints the
//! per-layer metrics.  See `fallperf/README.md` for every metric.

mod common;
mod dip_search;
mod fall_grid;
mod serve_mix;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use common::{
    check_signatures, histogram_secs, median, peak_rss_mb, percentile, ratio, Claim, Judgement,
    Phase, Tally, Verdict, ORACLE_SPAN,
};
use fall::trace::PhaseHistogram;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("defeated_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`.  A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("unique_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("oracle_queries_per_key", "count"),
    ("structural.busy_s", "s"),
    ("structural.candidates", "count"),
    ("functional.busy_s", "s"),
    ("functional.tasks", "count"),
    ("functional.cube_yield", "ratio"),
    ("functional.prefilter_refuted", "count"),
    ("functional.sim_patterns", "count"),
    ("equivalence.busy_s", "s"),
    ("equivalence.checks", "count"),
    ("equivalence.pass_frac", "ratio"),
    ("session.solves", "count"),
    ("session.solve_s", "s"),
    ("session.cone_encodings", "count"),
    ("session.vars_peak", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.reductions", "count"),
    ("sat.gc_runs", "count"),
    ("sat.vars_eliminated", "count"),
    ("sat.arena_peak_bytes", "bytes"),
    ("sat.upkeep_s", "s"),
    ("dip.iterations", "count"),
    ("sat_attack.busy_s", "s"),
    ("confirmation.busy_s", "s"),
    ("oracle.queries", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.batched_words", "count"),
    ("parallel.unique_queries", "count"),
    ("parallel.cache_hit_frac", "ratio"),
    ("parallel.sessions", "count"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_tail_s", "s"),
    ("serve.service_p50_s", "s"),
    ("serve.service_tail_s", "s"),
    ("serve.transport_p50_s", "s"),
    ("serve.hot_busy_frac", "ratio"),
    ("serve.hot_queued_frac", "ratio"),
    ("serve.busy_rejections", "count"),
    ("serve.timeouts", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The parsed command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    fn parse(args: impl Iterator<Item = String>) -> Result<Run, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut args = args;
        while let Some(flag) = args.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|name| ["workload", "seed", "seconds", "trace"].contains(name))
                .ok_or_else(|| format!("unknown argument {flag:?}"))?;
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(name.to_string(), value);
        }
        let get = |name: &str| {
            values
                .get(name)
                .cloned()
                .ok_or_else(|| format!("missing --{name}"))
        };
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Run {
            workload: get("workload")?,
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
        })
    }

    /// The fewest verdicts the end-to-end phase may measure: enough for its
    /// tail percentile.  The traced run prints no end-to-end metric.
    pub fn min_verdicts(&self, end_to_end: usize) -> usize {
        if self.trace {
            0
        } else {
            end_to_end
        }
    }

    /// Measured time of the end-to-end (untraced) phase.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Measured time of the traced phase.
    pub fn traced_seconds(&self) -> f64 {
        self.seconds / 2.0
    }
}

/// The verdicts of one phase, judged against their expected outcomes.
pub struct Judged {
    pub phase: Phase,
    pub judgements: Vec<Judgement>,
    /// Oracle queries that reached the oracle during the phase.
    pub oracle_queries: u64,
}

impl Judged {
    pub fn new(phase: Phase, judge: impl FnMut(&Verdict) -> Judgement) -> Judged {
        let judgements = phase.verdicts.iter().map(judge).collect();
        let oracle_queries = phase.verdicts.iter().map(|v| v.oracle_queries).sum();
        Judged {
            phase,
            judgements,
            oracle_queries,
        }
    }

    fn count(&self, judgement: Judgement) -> usize {
        self.judgements.iter().filter(|&&j| j == judgement).count()
    }

    fn failed(&self) -> usize {
        self.count(Judgement::Failed) + self.count(Judgement::Wrong)
    }

    /// Times of the verdicts that ended with a key or a "no key", right or
    /// wrong; a budget hit, rejection or give-up is no verdict time.
    fn completed_secs(&self) -> Vec<f64> {
        self.phase
            .verdicts
            .iter()
            .zip(&self.judgements)
            .filter(|&(_, &judgement)| judgement != Judgement::Failed)
            .map(|(verdict, _)| verdict.secs)
            .collect()
    }
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Starts from the counters of a traced phase's verdicts: sums are
    /// reported per verdict, maxima as they are.
    pub fn from_verdicts(verdicts: &[Verdict]) -> LayerMetrics {
        let mut tally = Tally::default();
        for verdict in verdicts {
            tally.absorb(&verdict.tally);
        }
        LayerMetrics::from_tally(&tally, verdicts.len() as f64)
    }

    /// Starts from a traced phase's counters: sums are reported per verdict,
    /// maxima as they are.
    pub fn from_tally(tally: &Tally, verdicts: f64) -> LayerMetrics {
        let mut metrics = LayerMetrics::default();
        for (&name, &sum) in &tally.sums {
            metrics.set(name, sum / verdicts);
        }
        for (&name, &max) in &tally.maxima {
            metrics.set(name, max);
        }
        metrics
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs `measure` with the flight recorder armed; returns its result and
/// the recorder's phase histograms.
pub fn traced<T>(measure: impl FnOnce() -> T) -> (T, Vec<(&'static str, PhaseHistogram)>) {
    fall::trace::reset();
    fall::trace::set_enabled(true);
    let result = measure();
    fall::trace::set_enabled(false);
    (result, fall::trace::histograms())
}

/// The traced phase of a `--trace 1` run.
pub struct TracedPhase {
    pub judged: Judged,
    pub histograms: Vec<(&'static str, PhaseHistogram)>,
    pub metrics: LayerMetrics,
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Set-up times: a workload's repeats before its measured phase, and as
    /// many again after it; `setup_s` is their median.
    pub setup_times: Vec<f64>,
    /// Fingerprint of the seed's instances.
    pub fingerprint: u64,
    /// The untraced phase: the end-to-end metrics.
    pub measured: Judged,
    pub traced: Option<TracedPhase>,
    /// Verdicts re-run after the measured phase: each must reproduce the
    /// exact counters of its first run.
    pub rechecked: Vec<Verdict>,
}

/// The final result line.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let separator = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{separator}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Traced over untraced wall time, minus one, summed over the instances
/// (or jobs) both phases measured.
fn overhead(untraced: &Phase, traced: &Phase) -> f64 {
    let mut first: BTreeMap<usize, f64> = BTreeMap::new();
    for verdict in &untraced.verdicts {
        first.entry(verdict.instance).or_insert(verdict.secs);
    }
    let mut seen = std::collections::BTreeSet::new();
    let (mut before, mut after) = (0.0, 0.0);
    for verdict in &traced.verdicts {
        if let Some(&secs) = first.get(&verdict.instance) {
            if seen.insert(verdict.instance) {
                before += secs;
                after += verdict.secs;
            }
        }
    }
    ratio(after, before) - 1.0
}

fn report(run: &Run, outcome: Outcome, tail_q: f64, other_seed: u64) -> Result<Report, String> {
    let measured = &outcome.measured;
    let mut problems = Vec::new();

    // Seed self-checks: the same seed rebuilt identical instances (checked in
    // set-up), every re-measured instance reproduced its exact counters, and
    // another seed builds other instances.
    let traced_verdicts = outcome
        .traced
        .iter()
        .flat_map(|t| t.judged.phase.verdicts.iter());
    let all = measured
        .phase
        .verdicts
        .iter()
        .chain(traced_verdicts)
        .chain(&outcome.rechecked);
    if let Err(problem) = check_signatures(all) {
        problems.push(problem);
    }
    if other_seed == outcome.fingerprint {
        problems.push("a different seed built the same instances".into());
    }

    let mut attempted = measured.phase.verdicts.len();
    let mut failed = measured.failed();
    let mut wrong = measured.count(Judgement::Wrong);
    if let Some(traced) = &outcome.traced {
        attempted += traced.judged.phase.verdicts.len();
        failed += traced.judged.failed();
        wrong += traced.judged.count(Judgement::Wrong);
    }
    if wrong > 0 {
        problems.push(format!(
            "{wrong} verdicts returned a wrong key or a wrong \"no key\""
        ));
    }
    for problem in &problems {
        eprintln!("fallperf: check failed: {problem}");
    }
    let mut reasons: BTreeMap<&str, usize> = BTreeMap::new();
    let traced_verdicts = outcome
        .traced
        .iter()
        .flat_map(|t| t.judged.phase.verdicts.iter());
    for verdict in measured.phase.verdicts.iter().chain(traced_verdicts) {
        if let Claim::Failed(reason) = verdict.claim {
            *reasons.entry(reason).or_default() += 1;
        }
    }
    for (reason, count) in reasons {
        eprintln!("fallperf: {count} verdicts failed: {reason}");
    }

    let n = measured.phase.verdicts.len() as f64;
    let defeated = measured.count(Judgement::Defeated) as f64;
    let metrics = if !run.trace {
        let secs = measured.completed_secs();
        let values = [
            median(&outcome.setup_times),
            secs.len() as f64 / measured.phase.elapsed,
            median(&secs),
            percentile(&secs, tail_q),
            defeated / n,
            peak_rss_mb()?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    } else {
        let TracedPhase {
            judged: traced,
            histograms,
            metrics: mut layer,
        } = outcome.traced.ok_or("the traced phase did not run")?;
        let fall_verdicts: Vec<bool> = measured
            .phase
            .verdicts
            .iter()
            .filter_map(|v| v.unique)
            .collect();
        let unique = fall_verdicts.iter().filter(|&&u| u).count() as f64;
        layer.set("unique_frac", ratio(unique, fall_verdicts.len() as f64));
        layer.set("failed_frac", measured.failed() as f64 / n);
        layer.set(
            "oracle_queries_per_key",
            ratio(measured.oracle_queries as f64, defeated),
        );
        let per_verdict = traced.phase.verdicts.len() as f64;
        let solve_s = histogram_secs(&histograms, &["solve"]) / per_verdict;
        layer.set("session.solve_s", solve_s);
        layer.set(
            "sat.props_per_s",
            ratio(layer.get("sat.propagations"), solve_s),
        );
        layer.set(
            "oracle.busy_s",
            histogram_secs(&histograms, &[ORACLE_SPAN]) / per_verdict,
        );
        layer.set(
            "sat.upkeep_s",
            // `sat_eliminate` runs inside `sat_simplify`, so it is not added
            // again.
            histogram_secs(&histograms, &["sat_gc", "sat_reduce_db", "sat_simplify"]) / per_verdict,
        );
        layer.set(
            "trace.overhead_frac",
            overhead(&measured.phase, &traced.phase),
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer.get(name), unit))
            .collect()
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Sets the seed's instances up as many times again as the workload did
/// before its measured phase.  Bursts of host noise last seconds, so set-up
/// times taken half before and half after the phase make a steadier median.
/// Every repeat must build the same instances.
fn set_up_again(
    mut outcome: Outcome,
    fingerprint_of: fn(u64) -> Result<(u64, f64), String>,
    seed: u64,
) -> Result<Outcome, String> {
    for _ in 0..outcome.setup_times.len() {
        let (print, secs) = fingerprint_of(seed)?;
        if print != outcome.fingerprint {
            return Err("the same seed built different instances".into());
        }
        outcome.setup_times.push(secs);
    }
    Ok(outcome)
}

fn main() {
    let run = match Run::parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(problem) => {
            eprintln!("fallperf: {problem}");
            std::process::exit(2);
        }
    };
    type Workload = (
        fn(&Run) -> Result<Outcome, String>,
        fn(u64) -> Result<(u64, f64), String>,
        f64,
    );
    let (workload, fingerprint_of, tail_q): Workload = match run.workload.as_str() {
        "fall_grid" => (fall_grid::run, fall_grid::fingerprint_of, fall_grid::TAIL_Q),
        "dip_search" => (
            dip_search::run,
            dip_search::fingerprint_of,
            dip_search::TAIL_Q,
        ),
        "serve_mix" => (serve_mix::run, serve_mix::fingerprint_of, serve_mix::TAIL_Q),
        other => {
            eprintln!("fallperf: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    // The other seed's instances are built (and dropped) before this seed's
    // pool, so the peak RSS holds one pool only.
    let result = fingerprint_of(run.seed.wrapping_add(1))
        .and_then(|(other_seed, _)| Ok((workload(&run)?, other_seed)))
        .and_then(|(outcome, other_seed)| {
            let outcome = set_up_again(outcome, fingerprint_of, run.seed)?;
            report(&run, outcome, tail_q, other_seed)
        })
        .and_then(|report| report.to_json());
    match result {
        Ok(line) => println!("{line}"),
        Err(problem) => {
            eprintln!("fallperf: {problem}");
            std::process::exit(1);
        }
    }
}
