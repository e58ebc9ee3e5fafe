//! Multi-process sharded clusters with a bit-equal merge.
//!
//! The fused epoch loop and incremental evaluation scale one process;
//! this module is the partitioning layer above them. A
//! [`ShardedCluster`] splits a cluster's nodes into contiguous slices and
//! runs each slice in a worker process (`shard_worker` binary or `repro
//! shard-worker`) that talks a length-prefixed frame protocol ([`frame`])
//! over its stdin/stdout. It merges the streamed per-epoch
//! [`crate::node::NodeEpochReport`]s back in node order.
//!
//! **Lifecycle.** Workers live as long as their `ShardedCluster`. The
//! first `run_epochs*` call spawns them and sends each a `Task` frame with
//! its [`ClusterBlueprint`] slice; each worker builds its nodes once. Every
//! call, the first included, then sends each worker a small `Run` frame
//! (horizon, [`EvalMode`], optional [`NodeCursor`]s, optional test fault),
//! so a GreenNFV control loop that drives a fleet as many short calls pays
//! for spawning, shipping the blueprint and building the nodes once, not
//! per call. Dropping the cluster closes the workers' stdin; they exit 0.
//!
//! **Bit-exactness.** Shard *i* of *s* over *n* nodes owns nodes
//! `[i*n/s, (i+1)*n/s)`. The batch kernel is bit-identical per lane
//! regardless of which other lanes share its batch (pinned by
//! `tests/proptests.rs`), every chain's traffic stream is self-contained
//! (seeded per chain, advanced only by its own epochs), and per-node
//! aggregation folds only that node's lanes — so a worker running a slice
//! produces, node for node and bit for bit, the reports the fused
//! single-process cluster produces for those nodes, and concatenating
//! slices in shard order *is* the fused report. `ShardedCluster::run_epochs`
//! therefore equals `Cluster::run_epochs` exactly, for any shard count
//! (`tests/shard_equivalence.rs` pins 1/2/4 across the scenario registry).
//!
//! **Failure semantics.** A worker that exits nonzero, writes garbage or a
//! truncated frame, or dies mid-stream surfaces as a structured
//! [`SimError::Shard`] naming the shard index and cause; the coordinator
//! kills and reaps the whole fleet and never merges a partial horizon. The
//! next call spawns a fresh fleet and resumes it from the last merged
//! cursors.
//!
//! **Checkpointing.** Every call's `Done` frames carry the workers'
//! cursors; the coordinator composes them in node order, so
//! [`ShardedCluster::cursors`] is a local copy of exactly what a fused
//! cluster would snapshot. [`ShardedCluster::restore_cursors`] only
//! records a snapshot; the next `Run` frames carry it to the live workers,
//! whose next epoch restages every load, so resumed runs stay
//! bit-identical.

mod blueprint;
pub mod frame;
mod protocol;

pub use blueprint::{ChainBlueprint, ClusterBlueprint, NodeBlueprint, TrafficBlueprint};
pub use protocol::{
    decode_epoch, encode_epoch, worker_main, EpochFrame, WorkerErrorReport, WorkerFault, WorkerRun,
    WorkerTask,
};

use std::io::BufReader;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::cluster::ClusterEpochReport;
use crate::error::{SimError, SimResult};
use crate::node::{NodeCursor, NodeEpochReport};
use crate::pipeline::EvalMode;

use frame::{FrameError, FrameKind};

/// Shard counts the test suite and CI matrix pin bit-equal to the fused
/// path. `tests/shard_equivalence.rs` asserts the CI YAML covers exactly
/// this list, so the two cannot drift.
pub const SUPPORTED_SHARD_COUNTS: [u32; 3] = [1, 2, 4];

/// Environment variable naming the worker command (program plus optional
/// arguments, whitespace-separated) when the `shard_worker` binary is not
/// discoverable next to the current executable.
pub const WORKER_ENV: &str = "NFV_SHARD_WORKER";

/// Contiguous node ranges for `shards` workers over `nodes` nodes: shard
/// `i` owns `[i*nodes/shards, (i+1)*nodes/shards)`. Sizes differ by at
/// most one; when `shards > nodes` the empty ranges are dropped, so 7
/// nodes over 4 shards yields sizes 1/2/2/2.
pub fn shard_ranges(nodes: usize, shards: u32) -> Vec<Range<usize>> {
    let s = (shards.max(1) as usize).min(nodes.max(1));
    (0..s)
        .map(|i| (i * nodes / s)..((i + 1) * nodes / s))
        .filter(|r| !r.is_empty())
        .collect()
}

/// How to launch one worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// Program to execute.
    pub program: PathBuf,
    /// Arguments preceding the protocol (e.g. `["shard-worker"]` for the
    /// `repro` bin's worker mode).
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// An explicit worker command.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        Self {
            program: program.into(),
            args,
        }
    }

    /// Resolves the worker command: the [`WORKER_ENV`] variable if set,
    /// otherwise a `shard_worker` binary next to the current executable or
    /// in its parent directory (which covers `target/<profile>/deps/` test
    /// binaries and `target/<profile>/examples/`).
    pub fn resolve() -> SimResult<Self> {
        if let Ok(spec) = std::env::var(WORKER_ENV) {
            let mut parts = spec.split_whitespace();
            let program = parts
                .next()
                .ok_or_else(|| SimError::NodeConfig(format!("{WORKER_ENV} is set but empty")))?;
            return Ok(Self {
                program: PathBuf::from(program),
                args: parts.map(String::from).collect(),
            });
        }
        let name = format!("shard_worker{}", std::env::consts::EXE_SUFFIX);
        let exe = std::env::current_exe()
            .map_err(|e| SimError::NodeConfig(format!("cannot locate current executable: {e}")))?;
        let mut dirs = Vec::new();
        if let Some(dir) = exe.parent() {
            dirs.push(dir.to_path_buf());
            if let Some(up) = dir.parent() {
                dirs.push(up.to_path_buf());
            }
        }
        for dir in dirs {
            let candidate = dir.join(&name);
            if candidate.is_file() {
                return Ok(Self {
                    program: candidate,
                    args: Vec::new(),
                });
            }
        }
        Err(SimError::NodeConfig(format!(
            "cannot find the `shard_worker` binary near the current executable; \
             build it (`cargo build --bin shard_worker`) or set {WORKER_ENV}=<program> [args…]"
        )))
    }
}

/// Events a worker's output stream yields to the coordinator.
enum Event {
    Epoch {
        shard: usize,
        epoch: u64,
        reports: Vec<NodeEpochReport>,
    },
    Done {
        shard: usize,
        cursors: Vec<NodeCursor>,
    },
    Failed {
        shard: usize,
        cause: String,
    },
}

/// A cluster partitioned across worker processes, drop-in shaped like
/// [`Cluster`](crate::cluster::Cluster)'s multi-epoch API: `run_epochs`
/// returns the same [`ClusterEpochReport`]s the fused in-process path
/// returns, bit for bit, and consecutive calls continue the same run.
///
/// **Lifecycle.** The first `run_epochs*` call spawns one worker per
/// shard and ships each its blueprint slice; the workers build their nodes
/// once and then serve every later call, each of which costs one small
/// `Run` frame per worker plus the streamed results. Every call's `Done`
/// frames return the workers' cursors, so [`cursors`](Self::cursors) is a
/// local copy and [`restore_cursors`](Self::restore_cursors) does no I/O:
/// the restored cursors ride the next `Run` frame.
///
/// **Failure and recovery.** A failing call kills and reaps the whole
/// fleet and returns [`SimError::Shard`]; nothing from it is merged. The
/// next call spawns a fresh fleet and resumes it from the last merged (or
/// restored) cursors.
///
/// **Drop.** Dropping the cluster closes every worker's stdin — the
/// workers' shutdown signal — reaps each within a bounded wait, and kills
/// any still running after it.
#[derive(Debug)]
pub struct ShardedCluster {
    blueprint: ClusterBlueprint,
    shards: u32,
    worker: WorkerCommand,
    /// The run's current cursors: the last merged `Done` cursors, or a
    /// restored snapshot. `None` until either exists.
    cursors: Option<Vec<NodeCursor>>,
    /// True when the live workers' state is not `cursors` (a restore since
    /// the last call, or a fleet not yet caught up), so the next `Run`
    /// frames must carry them.
    pending: bool,
    epochs_run: u64,
    faults: Vec<(u32, WorkerFault)>,
    /// The live worker processes, spawned by the first call.
    fleet: Option<Fleet>,
}

impl ShardedCluster {
    /// A sharded cluster using the auto-resolved worker command
    /// ([`WorkerCommand::resolve`]).
    pub fn new(blueprint: ClusterBlueprint, shards: u32) -> SimResult<Self> {
        Self::with_worker(blueprint, shards, WorkerCommand::resolve()?)
    }

    /// A sharded cluster with an explicit worker command. No process is
    /// spawned until the first `run_epochs*` call.
    pub fn with_worker(
        blueprint: ClusterBlueprint,
        shards: u32,
        worker: WorkerCommand,
    ) -> SimResult<Self> {
        if shards == 0 {
            return Err(SimError::NodeConfig(
                "shard count must be at least 1".into(),
            ));
        }
        Ok(Self {
            blueprint,
            shards,
            worker,
            cursors: None,
            pending: false,
            epochs_run: 0,
            faults: Vec::new(),
            fleet: None,
        })
    }

    /// Number of nodes across all shards.
    pub fn len(&self) -> usize {
        self.blueprint.len()
    }

    /// True when no nodes are described.
    pub fn is_empty(&self) -> bool {
        self.blueprint.is_empty()
    }

    /// Requested shard count (workers actually spawned is
    /// `min(shards, nodes)`; see [`shard_ranges`]).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Epochs executed so far across all calls.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// The worker command in use.
    pub fn worker(&self) -> &WorkerCommand {
        &self.worker
    }

    /// Test instrumentation: make the worker for `shard` inject `fault`
    /// into its own stream (see [`WorkerFault`]) during the next call; the
    /// `Run` frame that delivers a fault consumes it. Never used in
    /// production paths.
    pub fn inject_fault(&mut self, shard: u32, fault: WorkerFault) {
        self.faults.push((shard, fault));
    }

    /// Current per-node cursors in node order — the same snapshot a fused
    /// [`Cluster`](crate::cluster::Cluster) would produce, so checkpoints
    /// compose across process boundaries. Before any epoch has run this
    /// builds the fresh-cluster cursors from the blueprint.
    pub fn cursors(&self) -> SimResult<Vec<NodeCursor>> {
        if let Some(c) = &self.cursors {
            return Ok(c.clone());
        }
        let cluster = self.blueprint.build()?;
        (0..cluster.len())
            .map(|i| Ok(cluster.node(i)?.cursor()))
            .collect()
    }

    /// Resumes from per-node cursors (e.g. out of a checkpoint). The next
    /// `run_epochs` continues bit-identically to a fused cluster restored
    /// from the same snapshot. No I/O happens here: the next call's `Run`
    /// frames carry each worker its slice.
    pub fn restore_cursors(&mut self, cursors: Vec<NodeCursor>) -> SimResult<()> {
        if cursors.len() != self.blueprint.len() {
            return Err(SimError::NodeConfig(format!(
                "{} cursors for {} nodes",
                cursors.len(),
                self.blueprint.len()
            )));
        }
        self.epochs_run = cursors.first().map(|c| c.epochs_run).unwrap_or(0);
        self.cursors = Some(cursors);
        self.pending = true;
        Ok(())
    }

    /// Runs `epochs` lock-step epochs across the worker fleet; equivalent
    /// to [`run_epochs_eval`](Self::run_epochs_eval) with [`EvalMode::Full`].
    pub fn run_epochs(&mut self, epochs: usize) -> SimResult<Vec<ClusterEpochReport>> {
        self.run_epochs_eval(epochs, EvalMode::Full)
    }

    /// Runs `epochs` epochs, each worker using `eval` for its own epoch
    /// loop. Returns exactly what the fused
    /// [`Cluster::run_epochs_eval`](crate::cluster::Cluster::run_epochs_eval)
    /// returns for the same blueprint and history.
    pub fn run_epochs_eval(
        &mut self,
        epochs: usize,
        eval: EvalMode,
    ) -> SimResult<Vec<ClusterEpochReport>> {
        let nodes = self.blueprint.len();
        if epochs == 0 {
            return Ok(Vec::new());
        }
        if nodes == 0 {
            // Mirror the fused path: empty clusters still report empty
            // epochs.
            return Ok(vec![ClusterEpochReport { nodes: Vec::new() }; epochs]);
        }
        let (mut per_shard, done) = self.drive(epochs, eval)?;
        // Merge epoch by epoch in shard (= node) order.
        let mut out = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let mut merged = Vec::with_capacity(nodes);
            for shard_epochs in per_shard.iter_mut() {
                merged.append(&mut shard_epochs[e]);
            }
            out.push(ClusterEpochReport { nodes: merged });
        }
        self.cursors = Some(done.into_iter().flatten().collect());
        self.pending = false;
        self.epochs_run += epochs as u64;
        Ok(out)
    }

    /// Sends every live worker its `Run` frame (spawning the fleet first if
    /// none is live) and collects every epoch frame. Returns
    /// `reports[shard][epoch]` plus per-shard cursors, or the first
    /// structured failure after tearing the fleet down.
    #[allow(clippy::type_complexity)]
    fn drive(
        &mut self,
        epochs: usize,
        eval: EvalMode,
    ) -> SimResult<(Vec<Vec<Vec<NodeEpochReport>>>, Vec<Vec<NodeCursor>>)> {
        if self.fleet.is_none() {
            self.fleet = Some(Fleet::spawn(&self.worker, &self.blueprint, self.shards)?);
            // Fresh workers hold freshly built nodes.
            self.pending = self.cursors.is_some();
        }
        let fleet = self.fleet.as_mut().expect("fleet spawned above");
        let runs: Vec<WorkerRun> = fleet
            .ranges
            .iter()
            .enumerate()
            .map(|(shard, range)| {
                let fault = self
                    .faults
                    .iter()
                    .position(|(s, _)| *s as usize == shard)
                    .map(|i| self.faults.remove(i).1);
                WorkerRun {
                    epochs: epochs as u64,
                    eval,
                    cursors: match &self.cursors {
                        Some(c) if self.pending => Some(c[range.clone()].to_vec()),
                        _ => None,
                    },
                    fault,
                }
            })
            .collect();
        match fleet.run(&runs, epochs) {
            Ok(collected) => Ok(collected),
            Err((shard, cause)) => {
                let fleet = self.fleet.take().expect("fleet is live");
                Err(fleet.fail(shard, cause))
            }
        }
    }
}

/// The live worker processes of one [`ShardedCluster`].
///
/// A single-worker fleet is read inline on the calling thread — no reader
/// thread and no channel hop per epoch, which is the dominant transport
/// cost on a single core (the `shard_epoch` bench's 1.15× gate measures
/// exactly this path). A multi-worker fleet has one reader thread per
/// worker, started before any frame is written and living as long as the
/// fleet, so a stalled pipe on one shard cannot deadlock the others.
#[derive(Debug)]
struct Fleet {
    ranges: Vec<Range<usize>>,
    children: Vec<Child>,
    stream: Stream,
}

/// Where a fleet's worker output is read.
#[derive(Debug)]
enum Stream {
    Inline(BufReader<ChildStdout>),
    Threads {
        /// Behind a `Mutex` only so `ShardedCluster` stays `Sync` (a bare
        /// `Receiver` is not); the coordinator reads it through
        /// `get_mut`, never locking.
        rx: Mutex<mpsc::Receiver<Event>>,
        readers: Vec<thread::JoinHandle<()>>,
    },
}

impl Fleet {
    /// Spawns one worker per shard range and sends each its `Task` frame.
    fn spawn(worker: &WorkerCommand, blueprint: &ClusterBlueprint, shards: u32) -> SimResult<Self> {
        let ranges = shard_ranges(blueprint.len(), shards);
        let mut children = Vec::with_capacity(ranges.len());
        for shard in 0..ranges.len() {
            let spawned = Command::new(&worker.program)
                .args(&worker.args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn();
            match spawned {
                Ok(child) => children.push(child),
                Err(e) => {
                    kill_all(&mut children);
                    return Err(SimError::Shard {
                        shard: shard as u32,
                        cause: format!(
                            "failed to spawn worker `{}`: {e}",
                            worker.program.display()
                        ),
                    });
                }
            }
        }
        let mut stdouts = children
            .iter_mut()
            .map(|c| c.stdout.take().expect("stdout is piped"));
        let stream = if ranges.len() == 1 {
            let stdout = stdouts.next().expect("one worker");
            Stream::Inline(BufReader::with_capacity(READ_BUF_LEN, stdout))
        } else {
            let (tx, rx) = mpsc::channel::<Event>();
            let readers = stdouts
                .enumerate()
                .map(|(shard, stdout)| {
                    let tx = tx.clone();
                    thread::spawn(move || read_worker(shard, stdout, &tx))
                })
                .collect();
            Stream::Threads {
                rx: Mutex::new(rx),
                readers,
            }
        };
        let mut fleet = Fleet {
            ranges,
            children,
            stream,
        };
        for shard in 0..fleet.ranges.len() {
            let range = fleet.ranges[shard].clone();
            let task = WorkerTask {
                shard: shard as u32,
                blueprint: blueprint.slice(range.start, range.end)?,
            };
            if let Err(cause) = fleet.send(shard, FrameKind::Task, &frame::encode_message(&task)) {
                return Err(fleet.fail(shard, cause));
            }
        }
        Ok(fleet)
    }

    /// Writes one control frame to a worker's stdin.
    fn send(&mut self, shard: usize, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
        let stdin = self.children[shard].stdin.as_mut().expect("stdin is piped");
        frame::write_frame(stdin, kind, payload)
            .map_err(|e| format!("failed to send {kind:?} frame: {e}"))
    }

    /// One call: a `Run` frame to every worker, then every epoch and
    /// `Done` frame back. A returned error is `(shard, cause)`.
    #[allow(clippy::type_complexity)]
    fn run(
        &mut self,
        runs: &[WorkerRun],
        epochs: usize,
    ) -> Result<(Vec<Vec<Vec<NodeEpochReport>>>, Vec<Vec<NodeCursor>>), (usize, String)> {
        for (shard, run) in runs.iter().enumerate() {
            self.send(shard, FrameKind::Run, &frame::encode_message(run))
                .map_err(|cause| (shard, cause))?;
        }
        let mut collector = Collector::new(&self.ranges, epochs);
        while !collector.complete() {
            let event = match &mut self.stream {
                Stream::Inline(stdout) => next_event(0, stdout),
                Stream::Threads { rx, .. } => rx
                    .get_mut()
                    .expect("the receiver is never locked, so never poisoned")
                    .recv()
                    .unwrap_or_else(|_| Event::Failed {
                        shard: 0,
                        cause: "all worker streams closed unexpectedly".to_string(),
                    }),
            };
            collector.on_event(event)?;
        }
        Ok(collector.finish())
    }

    /// Tears the fleet down after a failure on `shard` and returns the
    /// structured error, naming the failing worker's exit status when it
    /// exits within a short grace period.
    fn fail(mut self, shard: usize, cause: String) -> SimError {
        close_stdins(&mut self.children);
        let status = reap_by(&mut self.children[shard], Instant::now() + FAIL_GRACE);
        kill_all(&mut self.children);
        let cause = match status {
            Some(st) if !st.success() => format!("{cause}; worker {st}"),
            _ => cause,
        };
        SimError::Shard {
            shard: shard as u32,
            cause,
        }
    }
}

impl Drop for Fleet {
    /// Closes every worker's stdin (their shutdown signal), reaps them
    /// within [`SHUTDOWN_GRACE`], kills any still running, and joins the
    /// reader threads, which end at their worker's end of stream.
    fn drop(&mut self) {
        close_stdins(&mut self.children);
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for child in self.children.iter_mut() {
            if reap_by(child, deadline).is_none() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        if let Stream::Threads { readers, .. } = &mut self.stream {
            for handle in readers.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// Read-side block-buffer capacity. The buffer matters: `read_frame`
/// issues small header reads, and unbuffered they each cost a syscall
/// (and, on a single core, often a worker/coordinator context-switch
/// round trip).
const READ_BUF_LEN: usize = 256 * 1024;

/// How long a failing worker gets to exit on its own so the error can
/// name its exit status.
const FAIL_GRACE: Duration = Duration::from_millis(500);

/// How long a dropped fleet's workers get to exit after their stdin
/// closes before they are killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// The coordinator's per-event state machine, shared by the inline
/// single-worker drive loop and the threaded multi-worker collect phase so
/// both enforce identical protocol checks and produce identical
/// structured-error text.
struct Collector<'a> {
    ranges: &'a [Range<usize>],
    epochs: usize,
    per_shard: Vec<Vec<Vec<NodeEpochReport>>>,
    done: Vec<Option<Vec<NodeCursor>>>,
    finished: usize,
}

impl<'a> Collector<'a> {
    fn new(ranges: &'a [Range<usize>], epochs: usize) -> Self {
        Self {
            ranges,
            epochs,
            per_shard: (0..ranges.len())
                .map(|_| Vec::with_capacity(epochs))
                .collect(),
            done: (0..ranges.len()).map(|_| None).collect(),
            finished: 0,
        }
    }

    /// True once every shard has delivered its full horizon plus cursors.
    fn complete(&self) -> bool {
        self.finished == self.ranges.len()
    }

    /// Folds one event in; a returned error is `(shard, cause)` for the
    /// [`SimError::Shard`] the coordinator raises.
    fn on_event(&mut self, event: Event) -> Result<(), (usize, String)> {
        let epochs = self.epochs;
        match event {
            Event::Epoch {
                shard,
                epoch,
                reports,
            } => {
                let got = self.per_shard[shard].len();
                if epoch != got as u64 || got >= epochs {
                    return Err((
                        shard,
                        format!("unexpected epoch frame {epoch} (have {got} of {epochs})"),
                    ));
                }
                if reports.len() != self.ranges[shard].len() {
                    return Err((
                        shard,
                        format!(
                            "epoch frame carries {} node reports for a {}-node shard",
                            reports.len(),
                            self.ranges[shard].len()
                        ),
                    ));
                }
                self.per_shard[shard].push(reports);
            }
            Event::Done { shard, cursors } => {
                if self.per_shard[shard].len() != epochs {
                    return Err((
                        shard,
                        format!(
                            "worker finished after {} of {epochs} epochs",
                            self.per_shard[shard].len()
                        ),
                    ));
                }
                if cursors.len() != self.ranges[shard].len() {
                    return Err((
                        shard,
                        format!(
                            "done frame carries {} cursors for a {}-node shard",
                            cursors.len(),
                            self.ranges[shard].len()
                        ),
                    ));
                }
                if self.done[shard].replace(cursors).is_some() {
                    return Err((shard, "duplicate done frame".to_string()));
                }
                self.finished += 1;
            }
            Event::Failed { shard, cause } => {
                let got = self.per_shard[shard].len();
                return Err((shard, format!("{cause} (after {got} of {epochs} epochs)")));
            }
        }
        Ok(())
    }

    /// Consumes the collector once [`complete`](Self::complete).
    #[allow(clippy::type_complexity)]
    fn finish(self) -> (Vec<Vec<Vec<NodeEpochReport>>>, Vec<Vec<NodeCursor>>) {
        let done = self
            .done
            .into_iter()
            .map(|c| c.expect("every shard finished"))
            .collect();
        (self.per_shard, done)
    }
}

/// Decodes one frame from a worker's stream into an [`Event`].
fn next_event<R: std::io::BufRead>(shard: usize, stdout: &mut R) -> Event {
    match frame::read_frame(stdout) {
        Ok((FrameKind::Epoch, payload)) => match protocol::decode_epoch(&payload) {
            Ok(frame) => Event::Epoch {
                shard,
                epoch: frame.epoch,
                reports: frame.reports,
            },
            Err(e) => Event::Failed {
                shard,
                cause: format!("bad epoch frame: {e}"),
            },
        },
        Ok((FrameKind::Done, payload)) => match frame::decode_seq(&payload) {
            Ok(cursors) => Event::Done { shard, cursors },
            Err(e) => Event::Failed {
                shard,
                cause: format!("bad done frame: {e}"),
            },
        },
        Ok((FrameKind::Error, payload)) => {
            let cause = match frame::decode_message::<WorkerErrorReport>(&payload) {
                Ok(report) => format!("worker reported: {}", report.message),
                Err(e) => format!("undecodable worker error frame: {e}"),
            };
            Event::Failed { shard, cause }
        }
        Ok((kind @ (FrameKind::Task | FrameKind::Run), _)) => Event::Failed {
            shard,
            cause: format!("worker sent a coordinator-only {kind:?} frame"),
        },
        Err(FrameError::CleanEof) => Event::Failed {
            shard,
            cause: "worker stream ended before completion".to_string(),
        },
        Err(e) => Event::Failed {
            shard,
            cause: e.to_string(),
        },
    }
}

/// Reader-thread loop (multi-worker fleets): decodes one worker's stream
/// into events for as long as the worker lives. Exits after the first
/// failure (which includes the end of the stream) or when the coordinator
/// hangs up the channel.
fn read_worker(shard: usize, stdout: ChildStdout, tx: &mpsc::Sender<Event>) {
    let mut stdout = BufReader::with_capacity(READ_BUF_LEN, stdout);
    loop {
        let event = next_event(shard, &mut stdout);
        let failed = matches!(event, Event::Failed { .. });
        if tx.send(event).is_err() || failed {
            return;
        }
    }
}

/// Closes every worker's stdin: end of stream tells a worker to exit.
fn close_stdins(children: &mut [Child]) {
    for child in children.iter_mut() {
        drop(child.stdin.take());
    }
}

/// Reaps `child` if it exits before `deadline`; `None` if it is still
/// running then (or cannot be polled).
fn reap_by(child: &mut Child, deadline: Instant) -> Option<ExitStatus> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_micros(200)),
            _ => return None,
        }
    }
}

fn kill_all(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        for nodes in 0..20 {
            for shards in 1..8u32 {
                let ranges = shard_ranges(nodes, shards);
                let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(covered, (0..nodes).collect::<Vec<_>>());
                assert!(ranges.iter().all(|r| !r.is_empty()));
                if nodes > 0 {
                    assert_eq!(ranges.len(), (shards as usize).min(nodes));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "balanced partition: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn uneven_partition_matches_issue_example() {
        let sizes: Vec<usize> = shard_ranges(7, 4).iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![1, 2, 2, 2]);
    }

    #[test]
    fn sharded_cluster_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<ShardedCluster>();
    }

    #[test]
    fn zero_shards_is_rejected() {
        let bp = ClusterBlueprint::new(
            crate::engine::SimTuning::default(),
            crate::engine::PlatformPolicy::greennfv(),
        );
        let err = ShardedCluster::with_worker(bp, 0, WorkerCommand::new("unused", Vec::new()))
            .unwrap_err();
        assert!(matches!(err, SimError::NodeConfig(_)));
    }
}
