//! Distributed key-search farm for the FALL attacks.
//!
//! `fall-dist` splits [`fall::parallel`]'s §VI-D partitioned key search
//! across OS processes: a **supervisor** owns the global region queue
//! ([`fall::dist::RegionBoard`]) and the merged cross-process oracle cache
//! ([`fall::dist::PairStore`]), and N **workers** each run one long-lived
//! primed [`fall::AttackSession`], pulling key-space regions over a
//! line-delimited JSON wire (the same `netshim` framing as `fall-serve`;
//! protocol specified in `docs/PROTOCOL.md`).  Two transports share every
//! line of supervisor and worker code:
//!
//! * **Pipes** ([`Farm::spawn`]) — workers are child processes of the
//!   supervisor speaking over stdin/stdout.  Worker processes are re-execs
//!   of the current executable: any binary that links this crate and calls
//!   [`maybe_run_worker_process`] at the top of `main` can host a farm.
//! * **TCP** ([`farm_over_tcp`] / [`connect_worker`]) — the supervisor
//!   accepts worker connections on a listener; workers are started
//!   independently (any machine) with `fall-dist __fall-dist-worker
//!   --connect HOST:PORT`.
//!
//! The protocol carries region lease/complete messages with work-stealing,
//! a network analogue of [`fall::CancelToken`] (the supervisor broadcasts
//! `cancel` on the first winner; workers bridge it into their solver's
//! interrupt flag mid-search), worker heartbeats with crash/timeout
//! detection and leased-region requeue (a region is only retired on a
//! `complete` acknowledgement), and batched oracle-cache sync (workers ship
//! newly-discovered (input, output) pairs each round-trip; the supervisor
//! merges them and piggybacks deltas on lease replies, so farm-wide unique
//! oracle queries stay bounded near the single-process count).

#![deny(missing_docs)]

pub mod protocol;
pub mod supervisor;
pub mod worker;

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fall::KeyConfirmationConfig;
use netlist::{bench_format, Netlist};

pub use supervisor::{FarmResult, Supervisor, WorkerLink};
pub use worker::{run_worker, WorkerOptions};

/// The `argv[1]` sentinel that turns a re-exec of the current executable
/// into a farm worker (see [`maybe_run_worker_process`]).
pub const WORKER_SENTINEL: &str = "__fall-dist-worker";

/// Configuration of a farm run.
#[derive(Clone, Debug)]
pub struct FarmConfig {
    /// Worker processes to run.
    pub workers: usize,
    /// Fixed key bits: the key space splits into `2^partition_bits` regions.
    /// Clamped to the key width; must stay `< 64` after clamping.
    pub partition_bits: usize,
    /// Allow a worker that drained its own share to steal from a peer's.
    /// Disable (together with `cancel_on_winner`) for runs whose per-worker
    /// region sequences must be deterministic, e.g. gated benchmarks.
    pub steal: bool,
    /// Broadcast `cancel` the moment a worker confirms a key.  Disable to
    /// drain every region regardless (deterministic counters).
    pub cancel_on_winner: bool,
    /// Per-region key-confirmation budgets, shipped to every worker.
    /// (`screen_words` is not forwarded; workers always run the plain
    /// scalar-query trajectory.)
    pub confirm: KeyConfirmationConfig,
    /// Worker heartbeat period.
    pub heartbeat: Duration,
    /// Silence longer than this kills the worker and requeues its lease.
    pub heartbeat_timeout: Duration,
    /// A single region search longer than this kills the worker and
    /// requeues its lease.
    pub lease_timeout: Duration,
    /// Maximum accepted frame length on either side.
    pub max_frame: usize,
    /// Executable to spawn pipes-mode workers from; `None` re-execs the
    /// current executable (which must call [`maybe_run_worker_process`]).
    pub worker_exe: Option<PathBuf>,
    /// Extra argv appended to worker `i`'s command line (test hooks such as
    /// `--crash-on-first-lease`); missing entries mean no extra args.
    pub worker_args: Vec<Vec<String>>,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            workers: 2,
            partition_bits: 2,
            steal: true,
            cancel_on_winner: true,
            confirm: KeyConfirmationConfig::default(),
            heartbeat: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(10),
            lease_timeout: Duration::from_secs(300),
            max_frame: 64 << 20,
            worker_exe: None,
            worker_args: Vec::new(),
        }
    }
}

/// Clamps the partition to the key width, mirroring the in-process engine.
fn effective_partition_bits(locked: &Netlist, requested: usize) -> usize {
    requested.min(locked.num_key_inputs())
}

/// A running pipes-mode farm: the supervisor plus its worker child
/// processes.
pub struct Farm {
    supervisor: Supervisor,
    children: Vec<Arc<Mutex<Child>>>,
    pids: Vec<u32>,
}

impl Farm {
    /// Spawns `config.workers` child processes and starts the supervisor
    /// over their stdin/stdout pipes.
    ///
    /// `locked` is the locked netlist under attack; `oracle` is the
    /// key-free netlist of the activated chip, which each worker simulates
    /// locally behind the farm's syncing cache.  Both are shipped to the
    /// workers as `.bench` text in their `setup` frame.
    ///
    /// # Panics
    ///
    /// Panics if the clamped partition width reaches 64 bits (an
    /// unenumerable region space — the serial and in-process engines reject
    /// it the same way).
    ///
    /// # Errors
    ///
    /// Propagates process-spawn failures.
    pub fn spawn(locked: &Netlist, oracle: &Netlist, config: &FarmConfig) -> io::Result<Farm> {
        let partition_bits = effective_partition_bits(locked, config.partition_bits);
        assert!(partition_bits < 64, "unenumerable partition");
        let exe = match &config.worker_exe {
            Some(exe) => exe.clone(),
            None => std::env::current_exe()?,
        };
        let workers = config.workers.max(1);
        let mut links = Vec::with_capacity(workers);
        let mut children = Vec::with_capacity(workers);
        let mut pids = Vec::with_capacity(workers);
        for worker in 0..workers {
            let mut command = Command::new(&exe);
            command.arg(WORKER_SENTINEL);
            command.arg("--max-frame").arg(config.max_frame.to_string());
            if let Some(extra) = config.worker_args.get(worker) {
                command.args(extra);
            }
            command
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            let mut child = command.spawn()?;
            let stdout = child.stdout.take().expect("piped stdout");
            let stdin = child.stdin.take().expect("piped stdin");
            let pid = child.id();
            let child = Arc::new(Mutex::new(child));
            let kill_handle = Arc::clone(&child);
            links.push(WorkerLink {
                reader: Box::new(stdout),
                writer: Box::new(stdin),
                kill: Box::new(move || {
                    let _ = kill_handle.lock().expect("child poisoned").kill();
                }),
                pid: Some(pid),
            });
            children.push(child);
            pids.push(pid);
        }
        let supervisor = Supervisor::start(
            links,
            bench_format::write(locked),
            bench_format::write(oracle),
            partition_bits,
            config,
        );
        Ok(Farm {
            supervisor,
            children,
            pids,
        })
    }

    /// OS process id of worker `index`.
    pub fn worker_pid(&self, index: usize) -> u32 {
        self.pids[index]
    }

    /// The region worker `index` currently holds a lease on, if any — a
    /// live view, usable while the run is in flight.
    pub fn leased_region_of(&self, index: usize) -> Option<u64> {
        self.supervisor.leased_region(index)
    }

    /// Blocks until the run concludes, reaps every child, and returns the
    /// aggregated result.
    pub fn wait(self) -> FarmResult {
        let result = self.supervisor.wait();
        for child in self.children {
            let _ = child.lock().expect("child poisoned").wait();
        }
        result
    }
}

/// Starts a TCP-mode supervisor: accepts `config.workers` worker
/// connections on `listener`, then runs the same supervisor the pipes mode
/// uses.  Workers connect with [`connect_worker`] (or
/// `fall-dist __fall-dist-worker --connect HOST:PORT`); their farm index is
/// their accept order.
///
/// # Errors
///
/// Propagates accept/clone failures while assembling the worker links.
pub fn farm_over_tcp(
    locked: &Netlist,
    oracle: &Netlist,
    listener: &TcpListener,
    config: &FarmConfig,
) -> io::Result<Supervisor> {
    let partition_bits = effective_partition_bits(locked, config.partition_bits);
    assert!(partition_bits < 64, "unenumerable partition");
    let workers = config.workers.max(1);
    let mut links = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (stream, _) = listener.accept()?;
        let reader = stream.try_clone()?;
        let kill_stream = stream.try_clone()?;
        links.push(WorkerLink {
            reader: Box::new(reader),
            writer: Box::new(stream),
            kill: Box::new(move || {
                let _ = kill_stream.shutdown(std::net::Shutdown::Both);
            }),
            pid: None,
        });
    }
    Ok(Supervisor::start(
        links,
        bench_format::write(locked),
        bench_format::write(oracle),
        partition_bits,
        config,
    ))
}

/// Runs a TCP-mode worker: connects to a [`farm_over_tcp`] supervisor and
/// drains regions until drained, cancelled, or disconnected.
///
/// # Errors
///
/// Returns connection and protocol errors as strings.
pub fn connect_worker(addr: &str, options: WorkerOptions) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|error| error.to_string())?;
    let reader = stream.try_clone().map_err(|error| error.to_string())?;
    run_worker(reader, stream, options)
}

/// Re-exec entry point for pipes-mode workers: call this at the **top** of
/// `main` in every binary that spawns a [`Farm`] (the `fall-dist` binary,
/// `bench_smoke`, test binaries).  When the process was started with
/// [`WORKER_SENTINEL`] as its first argument it runs the worker loop on
/// stdin/stdout (or the `--connect` socket) and **exits**; otherwise it
/// returns immediately.
///
/// Recognised worker flags: `--connect HOST:PORT`, `--max-frame BYTES`,
/// `--stall-first-lease-ms N`, `--crash-on-first-lease`.
pub fn maybe_run_worker_process() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some(WORKER_SENTINEL) {
        return;
    }
    let mut options = WorkerOptions::default();
    let mut connect: Option<String> = None;
    let value_of = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("fall-dist worker: {flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => connect = Some(value_of("--connect", &mut args)),
            "--max-frame" => {
                options.max_frame =
                    value_of("--max-frame", &mut args)
                        .parse()
                        .unwrap_or_else(|_| {
                            eprintln!("fall-dist worker: invalid --max-frame");
                            std::process::exit(2);
                        });
            }
            "--stall-first-lease-ms" => {
                let millis: u64 = value_of("--stall-first-lease-ms", &mut args)
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("fall-dist worker: invalid --stall-first-lease-ms");
                        std::process::exit(2);
                    });
                options.stall_first_lease = Some(Duration::from_millis(millis));
            }
            "--crash-on-first-lease" => options.crash_on_first_lease = true,
            other => {
                eprintln!("fall-dist worker: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let outcome = match connect {
        Some(addr) => connect_worker(&addr, options),
        None => run_worker(io::stdin(), io::stdout(), options),
    };
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(error) => {
            eprintln!("fall-dist worker: {error}");
            std::process::exit(1);
        }
    }
}
