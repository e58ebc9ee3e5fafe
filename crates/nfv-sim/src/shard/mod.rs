//! Multi-process sharded clusters with a bit-equal merge.
//!
//! The fused epoch loop and incremental evaluation scale one process;
//! this module is the partitioning layer above them. A
//! [`ShardedCluster`] splits a cluster's nodes into contiguous slices,
//! spawns one worker process per slice (`shard_worker` binary or `repro
//! shard-worker`), ships each worker its [`ClusterBlueprint`] slice and
//! optional [`NodeCursor`] snapshots over a length-prefixed frame protocol
//! ([`frame`]), and merges the streamed per-epoch
//! [`crate::node::NodeEpochReport`]s back in node order.
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
//! kills the remaining workers and never merges a partial horizon.
//!
//! **Checkpointing.** Workers return their final cursors in the `Done`
//! frame; the coordinator composes them in node order, so
//! [`ShardedCluster::cursors`] is exactly what a fused cluster would
//! snapshot and resumed runs stay bit-identical.

mod blueprint;
pub mod frame;
mod protocol;

pub use blueprint::{ChainBlueprint, ClusterBlueprint, NodeBlueprint, TrafficBlueprint};
pub use protocol::{
    decode_epoch, encode_epoch, worker_main, EpochFrame, WorkerErrorReport, WorkerFault, WorkerTask,
};

use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

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

/// Events a reader thread reports to the coordinator.
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
/// returns, bit for bit, and consecutive calls continue the same run (the
/// coordinator carries the cursors between calls).
#[derive(Debug)]
pub struct ShardedCluster {
    blueprint: ClusterBlueprint,
    shards: u32,
    worker: WorkerCommand,
    cursors: Option<Vec<NodeCursor>>,
    epochs_run: u64,
    faults: Vec<(u32, WorkerFault)>,
}

impl ShardedCluster {
    /// A sharded cluster using the auto-resolved worker command
    /// ([`WorkerCommand::resolve`]).
    pub fn new(blueprint: ClusterBlueprint, shards: u32) -> SimResult<Self> {
        Self::with_worker(blueprint, shards, WorkerCommand::resolve()?)
    }

    /// A sharded cluster with an explicit worker command.
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
            epochs_run: 0,
            faults: Vec::new(),
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
    /// into its own stream (see [`WorkerFault`]). Never used in
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
    /// from the same snapshot.
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
        let ranges = shard_ranges(nodes, self.shards);
        let (per_shard, done) = self.drive_workers(&ranges, epochs, eval)?;
        // Merge epoch by epoch in shard (= node) order.
        let mut per_shard = per_shard;
        let mut out = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let mut merged = Vec::with_capacity(nodes);
            for shard_epochs in per_shard.iter_mut() {
                merged.append(&mut shard_epochs[e]);
            }
            out.push(ClusterEpochReport { nodes: merged });
        }
        self.cursors = Some(done.into_iter().flatten().collect());
        self.epochs_run += epochs as u64;
        Ok(out)
    }

    /// Spawns one worker per range, feeds tasks, and collects every epoch
    /// frame. Returns `reports[shard][epoch]` plus final per-shard cursors,
    /// or the first structured failure (after killing the remaining
    /// workers). A single-worker fleet is driven inline on the calling
    /// thread — no reader thread and no channel hop per epoch — which is
    /// the dominant transport cost on a single core (the `shard_epoch`
    /// bench's 1.15× gate measures exactly this path); multi-worker fleets
    /// need one reader thread per worker so a stalled pipe on one shard
    /// cannot deadlock the others.
    #[allow(clippy::type_complexity)]
    fn drive_workers(
        &self,
        ranges: &[Range<usize>],
        epochs: usize,
        eval: EvalMode,
    ) -> SimResult<(Vec<Vec<Vec<NodeEpochReport>>>, Vec<Vec<NodeCursor>>)> {
        if ranges.len() == 1 {
            return self.drive_single_worker(ranges, epochs, eval);
        }
        let n_shards = ranges.len();
        let mut children: Vec<Child> = Vec::with_capacity(n_shards);
        let mut readers = Vec::with_capacity(n_shards);
        let (tx, rx) = mpsc::channel::<Event>();

        // Spawn phase. On any failure, kill whatever is already running.
        for (shard, range) in ranges.iter().enumerate() {
            let spawned = self.spawn_worker(shard, range.clone(), epochs, eval);
            match spawned {
                Ok((child, reader_handle)) => {
                    let tx = tx.clone();
                    readers.push(thread::spawn(move || {
                        read_worker(shard, reader_handle, &tx)
                    }));
                    children.push(child);
                }
                Err(e) => {
                    kill_all(&mut children);
                    join_all(readers);
                    return Err(e);
                }
            }
        }
        drop(tx);

        // Collect phase.
        let mut collector = Collector::new(ranges, epochs);
        let failure = loop {
            if collector.complete() {
                break None;
            }
            let event = match rx.recv() {
                Ok(ev) => ev,
                Err(_) => {
                    break Some((0, "all worker streams closed unexpectedly".to_string()));
                }
            };
            if let Err(f) = collector.on_event(event) {
                break Some(f);
            }
        };

        if let Some((shard, cause)) = failure {
            let status = wait_briefly(children.get_mut(shard));
            kill_all(&mut children);
            drop(rx);
            join_all(readers);
            let cause = match status {
                Some(st) if !st.success() => format!("{cause}; worker {st}"),
                _ => cause,
            };
            return Err(SimError::Shard {
                shard: shard as u32,
                cause,
            });
        }

        for child in children.iter_mut() {
            let _ = child.wait();
        }
        join_all(readers);
        Ok(collector.finish())
    }

    /// The single-worker drive loop: reads and merges the worker's frames
    /// inline on the calling thread. Behaviourally identical to the
    /// threaded path (same [`Collector`] state machine, same structured
    /// errors), minus the per-epoch thread wake-ups.
    #[allow(clippy::type_complexity)]
    fn drive_single_worker(
        &self,
        ranges: &[Range<usize>],
        epochs: usize,
        eval: EvalMode,
    ) -> SimResult<(Vec<Vec<Vec<NodeEpochReport>>>, Vec<Vec<NodeCursor>>)> {
        let (mut child, stdout) = self.spawn_worker(0, ranges[0].clone(), epochs, eval)?;
        let mut stdout = std::io::BufReader::with_capacity(READ_BUF_LEN, stdout);
        let mut collector = Collector::new(ranges, epochs);
        let failure = loop {
            if collector.complete() {
                break None;
            }
            if let Err(f) = collector.on_event(next_event(0, &mut stdout)) {
                break Some(f);
            }
        };

        if let Some((shard, cause)) = failure {
            let status = wait_briefly(Some(&mut child));
            kill_all(std::slice::from_mut(&mut child));
            let cause = match status {
                Some(st) if !st.success() => format!("{cause}; worker {st}"),
                _ => cause,
            };
            return Err(SimError::Shard {
                shard: shard as u32,
                cause,
            });
        }

        let _ = child.wait();
        Ok(collector.finish())
    }

    /// Spawns the worker for one shard and sends its task frame.
    fn spawn_worker(
        &self,
        shard: usize,
        range: Range<usize>,
        epochs: usize,
        eval: EvalMode,
    ) -> SimResult<(Child, std::process::ChildStdout)> {
        let fail = |cause: String| SimError::Shard {
            shard: shard as u32,
            cause,
        };
        let mut child = Command::new(&self.worker.program)
            .args(&self.worker.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                fail(format!(
                    "failed to spawn worker `{}`: {e}",
                    self.worker.program.display()
                ))
            })?;
        let task = WorkerTask {
            shard: shard as u32,
            epochs: epochs as u64,
            eval,
            blueprint: self
                .blueprint
                .slice(range.start, range.end)
                .map_err(|e| fail(e.to_string()))?,
            cursors: self
                .cursors
                .as_ref()
                .map(|c| c[range.start..range.end].to_vec()),
            fault: self
                .faults
                .iter()
                .find(|(s, _)| *s == shard as u32)
                .map(|(_, f)| *f),
        };
        let mut stdin = child.stdin.take().expect("stdin is piped");
        let sent = frame::write_frame(&mut stdin, FrameKind::Task, &frame::encode_message(&task));
        drop(stdin);
        if let Err(e) = sent {
            let _ = child.kill();
            let _ = child.wait();
            return Err(fail(format!("failed to send task frame: {e}")));
        }
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok((child, stdout))
    }
}

/// Read-side block-buffer capacity. The buffer matters: `read_frame`
/// issues small header reads, and unbuffered they each cost a syscall
/// (and, on a single core, often a worker/coordinator context-switch
/// round trip).
const READ_BUF_LEN: usize = 256 * 1024;

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
        Ok((FrameKind::Done, payload)) => match frame::decode_message(&payload) {
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
        Ok((FrameKind::Task, _)) => Event::Failed {
            shard,
            cause: "worker sent a task frame".to_string(),
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
/// into events. Exits on `Done`, on any error, or when the coordinator
/// hangs up the channel.
fn read_worker(shard: usize, stdout: std::process::ChildStdout, tx: &mpsc::Sender<Event>) {
    let mut stdout = std::io::BufReader::with_capacity(READ_BUF_LEN, stdout);
    loop {
        let event = next_event(shard, &mut stdout);
        let terminal = matches!(event, Event::Done { .. } | Event::Failed { .. });
        if tx.send(event).is_err() || terminal {
            return;
        }
    }
}

/// Gives a failing worker a short grace period to be reaped so the error
/// can name its exit status; `None` if it is still running.
fn wait_briefly(child: Option<&mut Child>) -> Option<ExitStatus> {
    let child = child?;
    for _ in 0..50 {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) => thread::sleep(Duration::from_millis(10)),
            Err(_) => return None,
        }
    }
    None
}

fn kill_all(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn join_all(readers: Vec<thread::JoinHandle<()>>) {
    for handle in readers {
        let _ = handle.join();
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
