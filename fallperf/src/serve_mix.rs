//! `serve_mix`: an in-process `fall-serve` driven over the wire by `nproc`
//! closed-loop clients.  Each client sends its next job only after the
//! previous job's event arrived.  The jobs are a seeded, non-repeating mix of
//! `confirm` (distinct shortlists), `sat` and `fall` jobs over a few
//! registered targets.  Every target has a single worker, and one at a time
//! is hot and gets most of the jobs, so jobs queue on it.  This is the only workload where one session lives across
//! many jobs (clause-DB growth, frame retirement, GC and variable recycling),
//! and the only one with queueing and JSON transport on the blocking path.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fall::service::ServiceConfig;
use fall::{Oracle, SimOracle};
use fall_serve::protocol::{key_from_wire, key_to_wire};
use fall_serve::{Server, ServerConfig};
use locking::{Key, LockedCircuit, LockingScheme, SfllHd, TtLock};
use netlist::random::{generate, RandomCircuitSpec};
use netshim::{LineReader, Value};

use crate::common::{
    fingerprint, judge, median, neighbour_key, percentile, ratio, sub_seed, time_setup,
    timed_setup, BenchOracle, Claim, Expectation, Judgement, OracleCounts, Phase, Rng, Tally,
    Verdict,
};
use crate::{Judged, LayerMetrics, Outcome, Run, TracedPhase};

/// Registered targets; one at a time is hot (see [`HOT_SPELL`]).
const TARGETS: usize = 8;
const INPUTS: usize = 16;
const OUTPUTS: usize = 4;
const GATES: usize = 150;
const KEY_BITS: usize = 6;
/// Worker sessions per target: one, so jobs on the hot target queue behind
/// each other.
const WORKERS_PER_TARGET: usize = 1;
/// Set-up repeats before the measured phases (and as many after them): a
/// set-up takes a few milliseconds, so many repeats are cheap and steady the
/// median.
const SETUP_REPEATS: usize = 13;
/// Per-job budget, sent as `timeout_ms`.
const TIMEOUT_MS: u64 = 30_000;
/// The tail percentile: p95, over at least 1000 jobs.  Six runs of 15 s
/// spread 0.16 (IQR / median) in p99 against 0.11 in p95: with two
/// closed-loop clients on two cores, the slowest 1 % of jobs are the ones
/// the host's scheduling hiccups hit, whichever their kind or target.
pub const TAIL_Q: f64 = 0.95;
const MIN_VERDICTS: usize = 1000;
/// One shuffled deck of job kinds; the stream deals deck after deck, so the
/// mix is exact at every deck boundary: 10 % `sat`, 10 % `fall`, 60 %
/// `confirm` with the secret key on the shortlist and 20 % without it.
const DECK: [Deal; 20] = {
    use Deal::{ConfirmHit, ConfirmMiss, Fall, Sat};
    [
        Sat,
        Sat,
        Fall,
        Fall,
        ConfirmMiss,
        ConfirmMiss,
        ConfirmMiss,
        ConfirmMiss,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
        ConfirmHit,
    ]
};
/// Target deck: `true` deals the hot target, `false` one of the others, so
/// the hot target gets three quarters of the jobs.  With two closed-loop
/// clients its one worker is then about 80 % busy, and over half of its jobs
/// wait behind another job, against a tenth or less on the other targets
/// (the `--trace 1` run prints these figures).  At half the jobs, the hot target
/// queued no more than the others.
const TARGET_DECK: [bool; 8] = [true, true, true, true, true, true, false, false];
/// Jobs per hot spell: the hot target moves on to the next target after
/// this many jobs, so a run's times average over every target rather than
/// hang on one circuit.
const HOT_SPELL: usize = 250;
/// A job that found the worker free waits only for the hand-off, tens of
/// microseconds; one that waited at least this long queued behind another.
const QUEUED_S: f64 = 2e-4;

#[derive(Clone, Copy)]
enum Deal {
    Sat,
    Fall,
    ConfirmHit,
    ConfirmMiss,
}

fn shuffled<T: Copy>(deck: &[T], rng: &mut Rng) -> Vec<T> {
    let mut cards = deck.to_vec();
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.below(i + 1));
    }
    cards
}

struct Target {
    name: String,
    circuit: LockedCircuit,
    h: usize,
    oracle: Arc<BenchOracle<SimOracle>>,
}

fn build_targets(seed: u64) -> Result<Vec<Target>, String> {
    (0..TARGETS)
        .map(|t| {
            let spec = RandomCircuitSpec::new(format!("serve{t}"), INPUTS, OUTPUTS, GATES)
                .with_seed(sub_seed(seed, 6, t as u64));
            let original = generate(&spec);
            let lock_seed = sub_seed(seed, 7, t as u64);
            let h = t % 2;
            let circuit = if h == 0 {
                TtLock::new(KEY_BITS).with_seed(lock_seed).lock(&original)
            } else {
                SfllHd::new(KEY_BITS, h)
                    .with_seed(lock_seed)
                    .lock(&original)
            }
            .map_err(|e| format!("locking serve target {t}: {e}"))?
            .optimized();
            Ok(Target {
                name: format!("t{t}"),
                oracle: Arc::new(BenchOracle::new(SimOracle::new(circuit.original.clone()))),
                circuit,
                h,
            })
        })
        .collect()
}

/// The set-up: the targets, a started server, every target registered and
/// every worker session primed.
fn setup(seed: u64) -> Result<(Service, u64), String> {
    let service = start(seed)?;
    let print = fingerprint(service.targets.iter().map(|t| &t.circuit));
    Ok((service, print))
}

/// Sets up `seed`'s server once and stops it: its fingerprint and set-up
/// time.
pub fn fingerprint_of(seed: u64) -> Result<(u64, f64), String> {
    let (_, print, secs) = time_setup(|| setup(seed))?;
    Ok((print, secs))
}

/// A started server with its targets registered and their sessions primed.
struct Service {
    server: Server,
    targets: Vec<Target>,
}

fn metric_map(server: &Server) -> BTreeMap<String, f64> {
    server
        .service()
        .metrics()
        .into_iter()
        .map(|sample| (sample.name, sample.value))
        .collect()
}

fn start(seed: u64) -> Result<Service, String> {
    let targets = build_targets(seed)?;
    let server = Server::start(ServerConfig {
        service: ServiceConfig {
            workers_per_target: WORKERS_PER_TARGET,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting fall-serve: {e}"))?;
    for target in &targets {
        let oracle: Arc<dyn Oracle + Send + Sync> = target.oracle.clone();
        server
            .service()
            .register_target(
                &target.name,
                &target.circuit.scheme,
                target.h,
                target.circuit.locked.clone(),
                oracle,
            )
            .map_err(|e| format!("registering {}: {e:?}", target.name))?;
    }
    // Priming happens on each worker thread; wait until every session is up.
    let deadline = Instant::now() + Duration::from_secs(60);
    let sessions = (TARGETS * WORKERS_PER_TARGET) as f64;
    while metric_map(&server)
        .get("serve_sessions_created")
        .copied()
        .unwrap_or(0.0)
        < sessions
    {
        if Instant::now() > deadline {
            return Err("worker sessions did not prime within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(Service { server, targets })
}

#[derive(Clone)]
enum JobKind {
    Sat,
    Fall,
    Confirm { shortlist: Vec<Key>, has_key: bool },
}

impl JobKind {
    /// The wire name of the job kind.
    fn name(&self) -> &'static str {
        match self {
            JobKind::Sat => "sat",
            JobKind::Fall => "fall",
            JobKind::Confirm { .. } => "confirm",
        }
    }
}

struct Job {
    target: usize,
    /// Whether the target was the hot one when the job was dealt.
    hot: bool,
    kind: JobKind,
}

/// What judging a finished job needs to know about it.
struct JobRecord {
    target: usize,
    has_key: bool,
}

/// The seeded job sequence, shared by the clients: job `i` is the same for
/// a given seed whichever client draws it.  Confirm shortlists never repeat:
/// they hold 2 to 4 decoys one to three bits from the key, millions of
/// shortlists per target, far more than a run draws.
struct JobStream {
    rng: Rng,
    keys: Vec<Key>,
    /// Hashes of the `(target, shortlist)` pairs dealt so far.  A collision
    /// only skips a fresh shortlist, so a shortlist never repeats.
    seen: HashSet<u64>,
    deals: Vec<Deal>,
    targets: Vec<bool>,
    jobs: Vec<JobRecord>,
}

impl JobStream {
    fn new(seed: u64, targets: &[Target]) -> JobStream {
        JobStream {
            rng: Rng::new(sub_seed(seed, 8, 0)),
            keys: targets.iter().map(|t| t.circuit.key.clone()).collect(),
            seen: HashSet::new(),
            deals: Vec::new(),
            targets: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn next(&mut self) -> Result<(usize, Job), String> {
        let rng = &mut self.rng;
        if self.deals.is_empty() {
            self.deals = shuffled(&DECK, rng);
        }
        if self.targets.is_empty() {
            self.targets = shuffled(&TARGET_DECK, rng);
        }
        let index = self.jobs.len();
        let hot_target = index / HOT_SPELL % TARGETS;
        let hot = self.targets.pop().expect("dealt above");
        let target = if hot {
            hot_target
        } else {
            (hot_target + 1 + rng.below(TARGETS - 1)) % TARGETS
        };
        let kind = match self.deals.pop().expect("dealt above") {
            Deal::Sat => JobKind::Sat,
            Deal::Fall => JobKind::Fall,
            deal => (0..1000)
                .find_map(|_| {
                    let has_key = matches!(deal, Deal::ConfirmHit);
                    let key = &self.keys[target];
                    let positions: Vec<usize> = (0..key.len()).collect();
                    let decoys = 2 + rng.below(3);
                    let mut shortlist: Vec<Key> = Vec::new();
                    while shortlist.len() < decoys {
                        let decoy = neighbour_key(key, &positions, 1 + rng.below(3), rng);
                        if !shortlist.contains(&decoy) {
                            shortlist.push(decoy);
                        }
                    }
                    if has_key {
                        let at = rng.below(shortlist.len() + 1);
                        shortlist.insert(at, key.clone());
                    }
                    let mut hasher = DefaultHasher::new();
                    (target, &shortlist).hash(&mut hasher);
                    self.seen
                        .insert(hasher.finish())
                        .then_some(JobKind::Confirm { shortlist, has_key })
                })
                .ok_or("the job stream ran out of distinct shortlists")?,
        };
        self.jobs.push(JobRecord {
            target,
            has_key: !matches!(kind, JobKind::Confirm { has_key: false, .. }),
        });
        Ok((index, Job { target, hot, kind }))
    }
}

/// The client-observed latency of one job, split by the job event's
/// `queued_ms`/`elapsed_ms`.
#[derive(Clone, Copy)]
struct Split {
    hot: bool,
    kind: &'static str,
    queue_s: f64,
    service_s: f64,
    transport_s: f64,
}

#[derive(Default)]
struct ClientLog {
    verdicts: Vec<Verdict>,
    splits: Vec<Split>,
    iterations: u64,
    busy: u64,
    timeouts: u64,
    /// Client loop wall time, and the part of it spent waiting on a job.
    loop_s: f64,
    in_job_s: f64,
}

/// One blocking connection speaking the line-delimited JSON protocol.
struct Client {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(2 * TIMEOUT_MS)))
            .map_err(|e| format!("socket: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("socket: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        Ok(Client {
            writer,
            reader: LineReader::new(stream, 1 << 20),
        })
    }

    fn recv(&mut self) -> Result<Value, String> {
        let line = self
            .reader
            .read_line()
            .map_err(|e| format!("reading a frame: {e:?}"))?
            .ok_or("the server closed the connection")?;
        Value::parse(&line)
    }

    /// Submits one job and waits for its event; returns the acceptance
    /// error code instead when the server refused the job.
    fn run(&mut self, id: usize, target: &str, job: &Job) -> Result<Result<Value, String>, String> {
        let mut fields = vec![
            ("op", Value::from("attack")),
            ("id", Value::from(id)),
            ("target", Value::from(target)),
            ("timeout_ms", Value::from(TIMEOUT_MS)),
        ];
        fields.push(("kind", Value::from(job.kind.name())));
        if let JobKind::Confirm { shortlist, .. } = &job.kind {
            let keys = shortlist
                .iter()
                .map(|k| Value::from(key_to_wire(k)))
                .collect();
            fields.push(("shortlist", Value::Array(keys)));
        }
        netshim::write_line(&mut self.writer, &Value::object(fields).to_string())
            .map_err(|e| format!("sending a job: {e}"))?;
        // The acceptance and the job event both echo `id`; a fast job's event
        // can overtake its acceptance.
        loop {
            let frame = self.recv()?;
            if frame.get("id").and_then(Value::as_u64) != Some(id as u64) {
                continue;
            }
            if frame.get("event").and_then(Value::as_str) == Some("job") {
                return Ok(Ok(frame));
            }
            if frame.get("ok").and_then(Value::as_bool) != Some(true) {
                let code = frame
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown");
                return Ok(Err(code.to_string()));
            }
            // The server writes the acceptance and the job event as two small
            // frames on a socket that batches small writes (Nagle), so the
            // event would wait for this side's delayed ACK, about 40 ms.  A
            // blank line, which the protocol ignores, acknowledges the
            // acceptance at once.
            self.writer
                .write_all(b"\n")
                .map_err(|e| format!("acknowledging a job: {e}"))?;
        }
    }
}

fn client_loop(
    addr: SocketAddr,
    stream: &Mutex<JobStream>,
    targets: &[Target],
    seconds: f64,
    min_jobs: usize,
    issued: &AtomicUsize,
) -> Result<ClientLog, String> {
    let mut client = Client::connect(addr)?;
    let mut log = ClientLog::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || issued.load(Ordering::SeqCst) < min_jobs {
        issued.fetch_add(1, Ordering::SeqCst);
        let (index, job) = stream.lock().expect("job stream lock").next()?;
        let sent = Instant::now();
        let reply = client.run(index, &targets[job.target].name, &job)?;
        let round_trip = sent.elapsed().as_secs_f64();
        log.in_job_s += round_trip;
        let mut verdict = Verdict {
            instance: index,
            secs: round_trip,
            claim: Claim::Failed("rejected"),
            unique: None,
            oracle_queries: 0,
            signature: String::new(),
            tally: Tally::default(),
        };
        match reply {
            Err(code) => {
                if code == "busy" {
                    log.busy += 1;
                }
            }
            Ok(event) => {
                let number = |name: &str| event.get(name).and_then(Value::as_f64).unwrap_or(0.0);
                let (queue_s, service_s) = (number("queued_ms") / 1e3, number("elapsed_ms") / 1e3);
                log.splits.push(Split {
                    hot: job.hot,
                    kind: job.kind.name(),
                    queue_s,
                    service_s,
                    transport_s: round_trip - queue_s - service_s,
                });
                log.iterations += number("iterations") as u64;
                let key = event
                    .get("key")
                    .and_then(Value::as_str)
                    .map(key_from_wire)
                    .transpose()?;
                let shortlist = event
                    .get("shortlist")
                    .and_then(Value::as_array)
                    .map_or(0, <[Value]>::len);
                let fall = matches!(job.kind, JobKind::Fall);
                verdict.claim = match (event.get("status").and_then(Value::as_str), key) {
                    (Some("key_found"), Some(key)) => Claim::Key(key),
                    // A FALL job that shortlisted nothing gave up; it proved
                    // nothing.
                    (Some("no_key"), _) if fall && shortlist == 0 => Claim::Failed("no key found"),
                    (Some("no_key"), _) => Claim::NoKey,
                    (Some("timeout"), _) => {
                        log.timeouts += 1;
                        Claim::Failed("timeout")
                    }
                    _ => Claim::Failed("job failed"),
                };
                if fall {
                    verdict.unique = Some(shortlist == 1);
                }
                verdict.signature = match &verdict.claim {
                    Claim::Key(key) => format!("key={key}"),
                    Claim::NoKey => "no key".to_string(),
                    Claim::Failed(_) => String::new(),
                };
            }
        }
        log.verdicts.push(verdict);
    }
    log.loop_s = start.elapsed().as_secs_f64();
    Ok(log)
}

struct Measured {
    phase: Phase,
    log: ClientLog,
    jobs: Vec<JobRecord>,
    oracle: OracleCounts,
}

/// Runs the closed-loop clients against `service` for `seconds`.
fn measure(
    service: &Service,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
) -> Result<Measured, String> {
    let clients = std::thread::available_parallelism().map_or(1, usize::from);
    let stream = Mutex::new(JobStream::new(seed, &service.targets));
    let addr = service.server.local_addr();
    let issued = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (stream, targets, issued) = (&stream, &service.targets, &issued);
                scope.spawn(move || client_loop(addr, stream, targets, seconds, min_jobs, issued))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a client panicked".into())))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut log = ClientLog::default();
    for client in logs {
        let client = client?;
        log.verdicts.extend(client.verdicts);
        log.splits.extend(client.splits);
        log.iterations += client.iterations;
        log.busy += client.busy;
        log.timeouts += client.timeouts;
        log.loop_s += client.loop_s;
        log.in_job_s += client.in_job_s;
    }
    // Every phase runs on a fresh server, so the target oracles' counts are
    // the phase's own.
    let mut oracle = OracleCounts::default();
    for target in &service.targets {
        let counts = target.oracle.counts();
        oracle.queries += counts.queries;
        oracle.batched_words += counts.batched_words;
    }
    let jobs = stream.into_inner().expect("job stream lock").jobs;
    Ok(Measured {
        phase: Phase {
            verdicts: std::mem::take(&mut log.verdicts),
            elapsed,
        },
        log,
        jobs,
        oracle,
    })
}

fn judged(measured: Measured, targets: &[Target]) -> (Judged, ClientLog, OracleCounts) {
    let jobs = measured.jobs;
    // Thousands of jobs return the same few keys; each distinct claim is
    // validated once.
    let mut seen: HashMap<(usize, bool, Claim), Judgement> = HashMap::new();
    let mut judged = Judged::new(measured.phase, |v| {
        let job = &jobs[v.instance];
        *seen
            .entry((job.target, job.has_key, v.claim.clone()))
            .or_insert_with(|| {
                judge(
                    v,
                    &Expectation {
                        circuit: &targets[job.target].circuit,
                        has_key: job.has_key,
                    },
                )
            })
    });
    // Only queries that reach the oracle cost the attacker a chip access;
    // the server's cache answers the rest.
    judged.oracle_queries = measured.oracle.queries;
    (judged, measured.log, measured.oracle)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (service, setup_times, print) = timed_setup(SETUP_REPEATS, || setup(run.seed))?;
    let measured = measure(
        &service,
        run.seed,
        run.untraced_seconds(),
        run.min_verdicts(MIN_VERDICTS),
    )?;
    let (measured, _, _) = judged(measured, &service.targets);
    drop(service);
    let mut outcome = Outcome {
        setup_times,
        fingerprint: print,
        measured,
        traced: None,
        rechecked: Vec::new(),
    };

    if run.trace {
        // A fresh server, so both phases start from cold sessions.
        let service = start(run.seed)?;
        let (measured, histograms) =
            crate::traced(|| measure(&service, run.seed, run.traced_seconds(), 0));
        let measured = measured?;
        let server_metrics = metric_map(&service.server);
        let (traced_judged, log, oracle) = judged(measured, &service.targets);
        let server = |name: &str| server_metrics.get(name).copied().unwrap_or(0.0);
        let mut tally = Tally::default();
        tally.add_oracle(oracle);
        for (layer, name) in [
            ("session.solves", "sat_solves"),
            ("sat.conflicts", "sat_conflicts"),
            ("sat.propagations", "sat_propagations"),
            ("sat.decisions", "sat_decisions"),
            ("sat.reductions", "sat_reductions"),
            ("sat.gc_runs", "gc_runs"),
            ("sat.vars_eliminated", "sat_vars_eliminated"),
            ("functional.prefilter_refuted", "prefilter_refuted"),
            ("functional.sim_patterns", "prefilter_patterns_simulated"),
            ("parallel.unique_queries", "oracle_unique_queries"),
        ] {
            tally.add(layer, server(name));
        }
        tally.add("dip.iterations", log.iterations as f64);
        tally.add("serve.busy_rejections", log.busy as f64);
        tally.add("serve.timeouts", log.timeouts as f64);
        let mut metrics =
            LayerMetrics::from_tally(&tally, traced_judged.phase.verdicts.len() as f64);
        // Gauges of the whole pool, not sums.
        metrics.set("sat.arena_peak_bytes", server("arena_bytes"));
        metrics.set("parallel.sessions", server("serve_sessions_created"));
        metrics.set(
            "parallel.cache_hit_frac",
            ratio(
                server("oracle_cache_hits"),
                server("oracle_cache_hits") + server("oracle_unique_queries"),
            ),
        );
        let column = |pick: fn(&Split) -> f64| log.splits.iter().map(pick).collect::<Vec<f64>>();
        let (queue, service_s, transport) = (
            column(|s| s.queue_s),
            column(|s| s.service_s),
            column(|s| s.transport_s),
        );
        metrics.set("serve.queue_wait_p50_s", median(&queue));
        metrics.set("serve.queue_wait_tail_s", percentile(&queue, TAIL_Q));
        metrics.set("serve.service_p50_s", median(&service_s));
        metrics.set("serve.service_tail_s", percentile(&service_s, TAIL_Q));
        metrics.set("serve.transport_p50_s", median(&transport));
        // The hot target's single worker: how busy it was, and how many of
        // its jobs waited behind another job.
        let of = |hot: bool, pick: fn(&Split) -> f64| -> Vec<f64> {
            log.splits
                .iter()
                .filter(|s| s.hot == hot)
                .map(pick)
                .collect()
        };
        let hot_queue = of(true, |s| s.queue_s);
        let hot_service: f64 = of(true, |s| s.service_s).iter().sum();
        metrics.set(
            "serve.hot_busy_frac",
            ratio(hot_service, traced_judged.phase.elapsed),
        );
        let queued = hot_queue.iter().filter(|&&q| q >= QUEUED_S).count();
        metrics.set(
            "serve.hot_queued_frac",
            ratio(queued as f64, hot_queue.len() as f64),
        );
        let cold_queue = of(false, |s| s.queue_s);
        let cold_queued = cold_queue.iter().filter(|&&q| q >= QUEUED_S).count();
        let mut kinds = String::new();
        for kind in ["sat", "fall", "confirm"] {
            let service: Vec<f64> = log
                .splits
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.service_s)
                .collect();
            kinds += &format!(
                " {kind} {} jobs, p50 {:.2} ms;",
                service.len(),
                median(&service) * 1e3
            );
        }
        eprintln!(
            "fallperf: serve_mix hot target busy {:.2}, {:.2} of its jobs queued, queue wait \
             p50/p90 {:.3}/{:.3} ms (other targets: {:.2} queued, {:.3}/{:.3} ms); service by \
             kind:{kinds}",
            metrics.get("serve.hot_busy_frac"),
            metrics.get("serve.hot_queued_frac"),
            median(&hot_queue) * 1e3,
            percentile(&hot_queue, 0.9) * 1e3,
            ratio(cold_queued as f64, cold_queue.len() as f64),
            median(&cold_queue) * 1e3,
            percentile(&cold_queue, 0.9) * 1e3,
        );
        metrics.set(
            "trace.unattributed_frac",
            1.0 - ratio(log.in_job_s, log.loop_s),
        );
        outcome.traced = Some(TracedPhase {
            judged: traced_judged,
            histograms,
            metrics,
        });
    }
    Ok(outcome)
}
