//! Wire messages between the shard coordinator and its workers.
//!
//! A worker lives as long as its coordinator. Its first control frame is
//! one [`WorkerTask`] (shard index plus blueprint slice), from which it
//! builds its node slice once. Every `run_epochs*` call then sends one
//! small [`WorkerRun`] frame (horizon, evaluation mode, optional resume
//! cursors, optional test fault); the worker answers on stdout with one
//! `Epoch` frame per epoch and a `Done` frame carrying its current
//! [`NodeCursor`]s, flushes, and waits for the next frame. End of stdin is
//! the shutdown signal: the worker returns `Ok` and its host exits 0. A
//! failure is answered with an `Error` frame and a nonzero exit.
//!
//! Control frames use the binary [`Value`] codec in [`super::frame`]; the
//! per-epoch report frames are hot-path and use the hand-written flat codec
//! in this module instead — a fixed field walk over `f64::to_bits`
//! little-endian words, roughly two orders of magnitude cheaper than
//! building interchange trees, which is what keeps coordinator overhead
//! inside the CI perf gate (`shard_epoch/*` in `perf_check`).
//!
//! [`Value`]: serde::Value

use serde::{Deserialize, Serialize};

use crate::chainvec::ChainVec;
use crate::cluster::Cluster;
use crate::engine::{ChainEpochResult, NodeEpochResult};
use crate::error::{SimError, SimResult};
use crate::node::{NodeCursor, NodeEpochReport};
use crate::pipeline::{EvalMode, PipelineMode};
use crate::stats::ChainTelemetry;

use super::blueprint::ClusterBlueprint;
use super::frame::{self, FrameError, FrameKind};

/// Test instrumentation: a documented fault a worker injects into its own
/// output stream, so the coordinator's failure handling can be exercised
/// end-to-end with real processes. Never set outside tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkerFault {
    /// Exit with `code` (no further frames) after `epochs` epoch frames.
    ExitAfter {
        /// Epoch frames to emit before exiting.
        epochs: u64,
        /// Process exit code.
        code: i32,
    },
    /// Write bytes that are not a frame (bad magic) after `epochs` epoch
    /// frames, then exit 0.
    GarbageAfter {
        /// Epoch frames to emit before the garbage.
        epochs: u64,
    },
    /// Write a frame header whose length prefix promises more payload than
    /// is sent after `epochs` epoch frames, then exit 0.
    TruncateAfter {
        /// Epoch frames to emit before the short frame.
        epochs: u64,
    },
}

/// The first frame a worker receives: which shard it is and the blueprint
/// slice it builds its nodes from, once for its whole life.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerTask {
    /// Shard index (for error reporting).
    pub shard: u32,
    /// Blueprint slice covering exactly this shard's nodes.
    pub blueprint: ClusterBlueprint,
}

/// One `run_epochs*` call as seen by one worker: run `epochs` more epochs
/// over the nodes built from its [`WorkerTask`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerRun {
    /// Epochs to run.
    pub epochs: u64,
    /// Evaluation mode for the worker's epoch loop.
    pub eval: EvalMode,
    /// Cursors to restore before running (resume, or a respawned fleet
    /// catching up); `None` continues from the worker's own state.
    #[serde(default)]
    pub cursors: Option<Vec<NodeCursor>>,
    /// Test-only fault injection; `None` in production.
    #[serde(default)]
    pub fault: Option<WorkerFault>,
}

/// Structured failure report a worker sends before exiting nonzero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerErrorReport {
    /// Shard index the failure occurred on.
    pub shard: u32,
    /// Human-readable cause.
    pub message: String,
}

/// Decoded contents of one `Epoch` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochFrame {
    /// Zero-based epoch index within the current run.
    pub epoch: u64,
    /// Per-node reports for this shard's slice, in node order.
    pub reports: Vec<NodeEpochReport>,
}

// ---------------------------------------------------------------------------
// Flat epoch-report codec (hot path)
// ---------------------------------------------------------------------------

// Per-chain engine result: 8 f64 words.
const CHAIN_RESULT_BYTES: usize = 8 * 8;
// Per-chain telemetry: 6 f64 words.
const TELEMETRY_BYTES: usize = 6 * 8;
// Node summary tail: 4 f64 words.
const NODE_SUMMARY_BYTES: usize = 4 * 8;

fn push_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Encodes one epoch's per-node reports with the flat codec.
pub fn encode_epoch(epoch: u64, reports: &[NodeEpochReport]) -> Vec<u8> {
    let body: usize = reports
        .iter()
        .map(|r| {
            8 + r.node.chains.len() * CHAIN_RESULT_BYTES
                + NODE_SUMMARY_BYTES
                + r.telemetry.len() * TELEMETRY_BYTES
        })
        .sum();
    let mut out = Vec::with_capacity(12 + body);
    out.extend_from_slice(&epoch.to_le_bytes());
    push_u32(&mut out, reports.len() as u32);
    for report in reports {
        push_u32(&mut out, report.node.chains.len() as u32);
        for c in &report.node.chains {
            push_f64(&mut out, c.throughput_gbps);
            push_f64(&mut out, c.delivered_pps);
            push_f64(&mut out, c.loss_frac);
            push_f64(&mut out, c.miss_rate);
            push_f64(&mut out, c.llc_misses);
            push_f64(&mut out, c.cpu_util);
            push_f64(&mut out, c.busy_core_seconds);
            push_f64(&mut out, c.cycles_per_packet);
        }
        push_f64(&mut out, report.node.power_w);
        push_f64(&mut out, report.node.energy_j);
        push_f64(&mut out, report.node.utilization);
        push_f64(&mut out, report.node.powered_frac);
        push_u32(&mut out, report.telemetry.len() as u32);
        for t in &report.telemetry {
            push_f64(&mut out, t.throughput_gbps);
            push_f64(&mut out, t.energy_j);
            push_f64(&mut out, t.cpu_util);
            push_f64(&mut out, t.arrival_pps);
            push_f64(&mut out, t.miss_rate);
            push_f64(&mut out, t.loss_frac);
        }
    }
    out
}

struct FlatCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl FlatCursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn need(&self, n: usize, what: &str) -> Result<(), FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Decode(format!(
                "epoch frame ends inside {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        self.need(4, what)?;
        let b = &self.bytes[self.pos..self.pos + 4];
        self.pos += 4;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        self.need(8, what)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(le))
    }

    fn f64(&mut self, what: &str) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Count prefix checked against the bytes that must follow it.
    fn count(&mut self, item_bytes: usize, what: &str) -> Result<usize, FrameError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(item_bytes) > self.remaining() {
            return Err(FrameError::Decode(format!(
                "{what} count {n} exceeds remaining epoch payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Decodes an `Epoch` frame payload. Total: every byte stream either
/// parses or returns a structured [`FrameError::Decode`].
pub fn decode_epoch(bytes: &[u8]) -> Result<EpochFrame, FrameError> {
    let mut c = FlatCursor { bytes, pos: 0 };
    let epoch = c.u64("epoch index")?;
    let n_reports = c.count(4 + NODE_SUMMARY_BYTES + 4, "node report")?;
    let mut reports = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        let n_chains = c.count(CHAIN_RESULT_BYTES, "chain result")?;
        let mut chains = ChainVec::with_capacity(n_chains);
        for _ in 0..n_chains {
            chains.push(ChainEpochResult {
                throughput_gbps: c.f64("chain result")?,
                delivered_pps: c.f64("chain result")?,
                loss_frac: c.f64("chain result")?,
                miss_rate: c.f64("chain result")?,
                llc_misses: c.f64("chain result")?,
                cpu_util: c.f64("chain result")?,
                busy_core_seconds: c.f64("chain result")?,
                cycles_per_packet: c.f64("chain result")?,
            });
        }
        let node = NodeEpochResult {
            chains,
            power_w: c.f64("node summary")?,
            energy_j: c.f64("node summary")?,
            utilization: c.f64("node summary")?,
            powered_frac: c.f64("node summary")?,
        };
        let n_telemetry = c.count(TELEMETRY_BYTES, "telemetry")?;
        let mut telemetry = ChainVec::with_capacity(n_telemetry);
        for _ in 0..n_telemetry {
            telemetry.push(ChainTelemetry {
                throughput_gbps: c.f64("telemetry")?,
                energy_j: c.f64("telemetry")?,
                cpu_util: c.f64("telemetry")?,
                arrival_pps: c.f64("telemetry")?,
                miss_rate: c.f64("telemetry")?,
                loss_frac: c.f64("telemetry")?,
            });
        }
        reports.push(NodeEpochReport { node, telemetry });
    }
    if c.remaining() != 0 {
        return Err(FrameError::Decode(format!(
            "{} trailing bytes after epoch frame",
            c.remaining()
        )));
    }
    Ok(EpochFrame { epoch, reports })
}

// ---------------------------------------------------------------------------
// Worker main loop
// ---------------------------------------------------------------------------

fn shard_err(shard: u32, cause: impl Into<String>) -> SimError {
    SimError::Shard {
        shard,
        cause: cause.into(),
    }
}

/// Serves one worker for the life of its coordinator: reads the
/// [`WorkerTask`] from `input` and builds the node slice once, then answers
/// every [`WorkerRun`] with one `Epoch` frame per epoch and a `Done` frame
/// carrying the current cursors, flushing after each `Done`. Returns `Ok`
/// when `input` ends at a frame boundary.
///
/// On any failure — an unreadable frame, a `Run` before the `Task`, a
/// second `Task`, a frame kind only workers send, or a failing run — a
/// structured `Error` frame is written (best-effort) and the error
/// returned, so the hosting binary can exit nonzero. This is the entry
/// point behind both the `shard_worker` binary and the `repro
/// shard-worker` mode.
pub fn worker_main(
    input: &mut impl std::io::Read,
    output: &mut impl std::io::Write,
) -> SimResult<()> {
    let mut shard = 0;
    let mut cluster: Option<Cluster> = None;
    loop {
        let served = match frame::read_frame(input) {
            Err(FrameError::CleanEof) => return Ok(()),
            Err(e) => Err(shard_err(
                shard,
                format!("failed to read control frame: {e}"),
            )),
            Ok((FrameKind::Task, _)) if cluster.is_some() => {
                Err(shard_err(shard, "second task frame"))
            }
            Ok((FrameKind::Task, payload)) => frame::decode_message::<WorkerTask>(&payload)
                .map_err(|e| shard_err(shard, format!("failed to decode task: {e}")))
                .and_then(|task| {
                    shard = task.shard;
                    cluster = Some(task.blueprint.build()?);
                    Ok(())
                }),
            Ok((FrameKind::Run, payload)) => match cluster.as_mut() {
                None => Err(shard_err(shard, "run frame before any task frame")),
                Some(cluster) => frame::decode_message::<WorkerRun>(&payload)
                    .map_err(|e| shard_err(shard, format!("failed to decode run: {e}")))
                    .and_then(|run| serve_run(shard, cluster, &run, output)),
            },
            Ok((kind, _)) => Err(shard_err(
                shard,
                format!("coordinator sent a worker-only {kind:?} frame"),
            )),
        };
        if let Err(err) = served {
            let report = WorkerErrorReport {
                shard,
                message: err.to_string(),
            };
            // Best-effort: the pipe may already be gone.
            let _ = frame::write_frame(output, FrameKind::Error, &frame::encode_message(&report));
            let _ = output.flush();
            return Err(err);
        }
    }
}

/// Answers one [`WorkerRun`]: streams its epoch frames, then the `Done`
/// frame, then flushes — `write_frame` never flushes (streamed epoch frames
/// ride the caller's buffer), and the end of a run is the boundary the
/// coordinator waits on.
fn serve_run(
    shard: u32,
    cluster: &mut Cluster,
    run: &WorkerRun,
    output: &mut impl std::io::Write,
) -> SimResult<()> {
    if let Some(cursors) = &run.cursors {
        if cursors.len() != cluster.len() {
            return Err(shard_err(
                shard,
                format!(
                    "run carries {} cursors for {} nodes",
                    cursors.len(),
                    cluster.len()
                ),
            ));
        }
        for (i, cursor) in cursors.iter().enumerate() {
            cluster.node_mut(i)?.restore_cursor(cursor)?;
        }
    }
    let mut write_err: Option<FrameError> = None;
    let mut sent: u64 = 0;
    cluster.observe_epochs(
        run.epochs as usize,
        PipelineMode::Auto,
        run.eval,
        |epoch, report| {
            if write_err.is_some() {
                return;
            }
            let payload = encode_epoch(epoch as u64, &report.nodes);
            if let Err(e) = frame::write_frame(output, FrameKind::Epoch, &payload) {
                write_err = Some(e);
                return;
            }
            sent += 1;
            if let Some(fault) = run.fault {
                apply_fault(fault, sent, output);
            }
        },
    );
    if let Some(e) = write_err {
        return Err(shard_err(
            shard,
            format!("failed to write epoch frame: {e}"),
        ));
    }
    let cursors: Vec<NodeCursor> = cluster.nodes().map(|n| n.cursor()).collect();
    frame::write_frame(output, FrameKind::Done, &frame::encode_seq(&cursors))
        .map_err(|e| shard_err(shard, format!("failed to write done frame: {e}")))?;
    output
        .flush()
        .map_err(|e| shard_err(shard, format!("failed to flush done frame: {e}")))
}

/// Test instrumentation: performs the injected fault once `sent` epoch
/// frames are out, terminating the process.
fn apply_fault(fault: WorkerFault, sent: u64, output: &mut impl std::io::Write) {
    match fault {
        WorkerFault::ExitAfter { epochs, code } if sent == epochs => {
            let _ = output.flush();
            std::process::exit(code);
        }
        WorkerFault::GarbageAfter { epochs } if sent == epochs => {
            let _ = output.write_all(b"!!! not a frame: deliberate garbage !!!");
            let _ = output.flush();
            std::process::exit(0);
        }
        WorkerFault::TruncateAfter { epochs } if sent == epochs => {
            // Valid header promising 64 payload bytes; deliver only 8.
            let mut header = Vec::with_capacity(9 + 8);
            header.extend_from_slice(&super::frame::FRAME_MAGIC);
            header.push(FrameKind::Epoch.as_byte());
            header.extend_from_slice(&64u32.to_le_bytes());
            header.extend_from_slice(&[0u8; 8]);
            let _ = output.write_all(&header);
            let _ = output.flush();
            std::process::exit(0);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterEpochReport;
    use crate::shard::blueprint::tests_support::sample_blueprint;

    #[test]
    fn epoch_frames_roundtrip_bit_exactly() {
        let mut cluster = sample_blueprint(3, 7).build().unwrap();
        let report = cluster.run_epoch();
        let bytes = encode_epoch(5, &report.nodes);
        let back = decode_epoch(&bytes).unwrap();
        assert_eq!(back.epoch, 5);
        assert_eq!(back.reports, report.nodes);
    }

    #[test]
    fn epoch_decoder_rejects_corruption() {
        let mut cluster = sample_blueprint(2, 3).build().unwrap();
        let report = cluster.run_epoch();
        let bytes = encode_epoch(0, &report.nodes);
        // Every truncation point fails loudly.
        for cut in 0..bytes.len() {
            assert!(
                decode_epoch(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing bytes fail too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_epoch(&long).is_err());
        // A corrupt report count cannot drive a huge allocation.
        let mut corrupt = bytes.clone();
        corrupt[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_epoch(&corrupt).is_err());
    }

    /// Coordinator-side bytes: one control frame per message.
    fn control(frames: &[(FrameKind, Vec<u8>)]) -> Vec<u8> {
        let mut input = Vec::new();
        for (kind, payload) in frames {
            frame::write_frame(&mut input, *kind, payload).unwrap();
        }
        input
    }

    fn task(shard: u32, blueprint: &ClusterBlueprint) -> (FrameKind, Vec<u8>) {
        let task = WorkerTask {
            shard,
            blueprint: blueprint.clone(),
        };
        (FrameKind::Task, frame::encode_message(&task))
    }

    fn run(epochs: u64, eval: EvalMode, cursors: Option<Vec<NodeCursor>>) -> (FrameKind, Vec<u8>) {
        let run = WorkerRun {
            epochs,
            eval,
            cursors,
            fault: None,
        };
        (FrameKind::Run, frame::encode_message(&run))
    }

    /// Reads one horizon off a worker's output: `epochs` epoch frames,
    /// each checked against `expected`, then the closing `Done` frame's
    /// cursors.
    fn read_horizon(reader: &mut &[u8], expected: &[ClusterEpochReport]) -> Vec<NodeCursor> {
        for (e, expect) in expected.iter().enumerate() {
            let (kind, payload) = frame::read_frame(reader).unwrap();
            assert_eq!(kind, FrameKind::Epoch);
            let got = decode_epoch(&payload).unwrap();
            assert_eq!(got.epoch, e as u64);
            assert_eq!(got.reports, expect.nodes);
        }
        let (kind, payload) = frame::read_frame(reader).unwrap();
        assert_eq!(kind, FrameKind::Done);
        frame::decode_seq(&payload).unwrap()
    }

    #[test]
    fn worker_main_runs_a_task_in_process() {
        // Drive the worker loop over in-memory pipes: frames out must
        // reproduce the fused in-process epochs bit-exactly.
        let blueprint = sample_blueprint(3, 11);
        let input = control(&[task(0, &blueprint), run(4, EvalMode::Full, None)]);
        let mut output = Vec::new();
        worker_main(&mut &input[..], &mut output).unwrap();

        let mut fused = blueprint.build().unwrap();
        let expected = fused.run_epochs(4);

        let mut reader = &output[..];
        let cursors = read_horizon(&mut reader, &expected);
        assert_eq!(cursors.len(), 3);
        assert!(cursors.iter().all(|c| c.epochs_run == 4));
        assert!(matches!(
            frame::read_frame(&mut reader),
            Err(FrameError::CleanEof)
        ));
    }

    #[test]
    fn worker_main_serves_consecutive_runs_on_one_build() {
        // Task, Run(3), Run(2, Incremental), EOF: two horizons, each
        // closed by Done, bit-equal to the same calls on a fused cluster.
        let blueprint = sample_blueprint(3, 5);
        let input = control(&[
            task(0, &blueprint),
            run(3, EvalMode::Full, None),
            run(2, EvalMode::Incremental, None),
        ]);
        let mut output = Vec::new();
        worker_main(&mut &input[..], &mut output).unwrap();

        let mut fused = blueprint.build().unwrap();
        let first = fused.run_epochs(3);
        let second = fused.run_epochs_eval(2, EvalMode::Incremental);
        let fused_cursors: Vec<NodeCursor> = fused.nodes().map(|n| n.cursor()).collect();

        let mut reader = &output[..];
        let after_first = read_horizon(&mut reader, &first);
        assert!(after_first.iter().all(|c| c.epochs_run == 3));
        assert_eq!(read_horizon(&mut reader, &second), fused_cursors);
        assert!(matches!(
            frame::read_frame(&mut reader),
            Err(FrameError::CleanEof)
        ));
    }

    #[test]
    fn worker_main_reports_build_failure_as_error_frame() {
        // An unsatisfiable run (cursor count mismatch) must produce an
        // Error frame and an Err return, not a partial stream.
        let blueprint = sample_blueprint(2, 1);
        // Wrong: 0 cursors for 2 nodes.
        let input = control(&[
            task(3, &blueprint),
            run(2, EvalMode::Full, Some(Vec::new())),
        ]);
        let mut output = Vec::new();
        let err = worker_main(&mut &input[..], &mut output).unwrap_err();
        assert!(matches!(err, SimError::Shard { shard: 3, .. }));
        let (kind, payload) = frame::read_frame(&mut &output[..]).unwrap();
        assert_eq!(kind, FrameKind::Error);
        let report: WorkerErrorReport = frame::decode_message(&payload).unwrap();
        assert_eq!(report.shard, 3);
        assert!(report.message.contains("cursors"));
    }

    #[test]
    fn worker_main_rejects_garbage_task() {
        let mut output = Vec::new();
        let err = worker_main(&mut &b"not a frame"[..], &mut output).unwrap_err();
        assert!(matches!(err, SimError::Shard { .. }));
    }

    #[test]
    fn worker_main_rejects_out_of_order_frames() {
        // Each sequence must end the worker with an Error frame naming the
        // violation and an Err return; no epoch is run for the bad frame.
        let blueprint = sample_blueprint(2, 9);
        let epoch = (FrameKind::Epoch, encode_epoch(0, &[]));
        let cases = [
            (
                vec![run(1, EvalMode::Full, None)],
                "run frame before any task frame",
            ),
            (
                vec![task(1, &blueprint), task(1, &blueprint)],
                "second task frame",
            ),
            (
                vec![task(1, &blueprint), epoch.clone()],
                "coordinator sent a worker-only Epoch frame",
            ),
            (vec![epoch], "coordinator sent a worker-only Epoch frame"),
        ];
        for (frames, cause) in cases {
            let input = control(&frames);
            let mut output = Vec::new();
            let err = worker_main(&mut &input[..], &mut output).unwrap_err();
            assert!(matches!(err, SimError::Shard { .. }), "{cause}: {err}");
            assert!(err.to_string().contains(cause), "{cause}: {err}");
            let mut reader = &output[..];
            let (kind, payload) = frame::read_frame(&mut reader).unwrap();
            assert_eq!(kind, FrameKind::Error, "{cause}");
            let report: WorkerErrorReport = frame::decode_message(&payload).unwrap();
            assert!(report.message.contains(cause), "{cause}: {report:?}");
            assert!(matches!(
                frame::read_frame(&mut reader),
                Err(FrameError::CleanEof)
            ));
        }
    }
}
