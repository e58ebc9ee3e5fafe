//! Wire messages between the shard coordinator and its workers.
//!
//! One [`WorkerTask`] control frame goes down each worker's stdin; the
//! worker answers on stdout with one `Epoch` frame per epoch, then a `Done`
//! frame carrying its final [`NodeCursor`]s (or an `Error` frame plus a
//! nonzero exit). Control frames use the binary [`Value`] codec in
//! [`super::frame`]; the per-epoch report frames are hot-path and use the
//! hand-written flat codec in this module instead — a fixed field walk over
//! `f64::to_bits` little-endian words, roughly two orders of magnitude
//! cheaper than building interchange trees, which is what keeps coordinator
//! overhead inside the CI perf gate (`shard_epoch/*` in `perf_check`).

use serde::{Deserialize, Serialize};

use crate::chainvec::ChainVec;
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

/// The complete assignment sent to one worker: its blueprint slice, the
/// horizon, and optionally the cursors to resume from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerTask {
    /// Shard index (for error reporting).
    pub shard: u32,
    /// Epochs to run.
    pub epochs: u64,
    /// Evaluation mode for the worker's epoch loop.
    pub eval: EvalMode,
    /// Blueprint slice covering exactly this shard's nodes.
    pub blueprint: ClusterBlueprint,
    /// Cursors to restore before running (resume); `None` starts fresh.
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

/// Runs one worker to completion: reads the [`WorkerTask`] from `input`,
/// rebuilds the node slice, streams one `Epoch` frame per epoch to
/// `output`, and closes with a `Done` frame carrying the final cursors.
///
/// On any failure a structured `Error` frame is written (best-effort) and
/// the error returned, so the hosting binary can exit nonzero. This is the
/// entry point behind both the `shard_worker` binary and the `repro
/// shard-worker` mode.
pub fn worker_main(
    input: &mut impl std::io::Read,
    output: &mut impl std::io::Write,
) -> SimResult<()> {
    let (kind, payload) = frame::read_frame(input)
        .map_err(|e| shard_err(0, format!("failed to read task frame: {e}")))?;
    if kind != FrameKind::Task {
        return Err(shard_err(0, format!("expected task frame, got {kind:?}")));
    }
    let task: WorkerTask = frame::decode_message(&payload)
        .map_err(|e| shard_err(0, format!("failed to decode task: {e}")))?;
    let result = match run_task(&task, output) {
        Ok(()) => Ok(()),
        Err(err) => {
            let report = WorkerErrorReport {
                shard: task.shard,
                message: err.to_string(),
            };
            // Best-effort: the pipe may already be gone.
            let _ = frame::write_frame(output, FrameKind::Error, &frame::encode_message(&report));
            Err(err)
        }
    };
    // `write_frame` never flushes (streamed epoch frames ride the caller's
    // buffer); the end of the worker conversation is the flush boundary.
    let _ = output.flush();
    result
}

fn run_task(task: &WorkerTask, output: &mut impl std::io::Write) -> SimResult<()> {
    let shard = task.shard;
    let mut cluster = task.blueprint.build()?;
    if let Some(cursors) = &task.cursors {
        if cursors.len() != cluster.len() {
            return Err(shard_err(
                shard,
                format!(
                    "task carries {} cursors for {} nodes",
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
        task.epochs as usize,
        PipelineMode::Auto,
        task.eval,
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
            if let Some(fault) = task.fault {
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
    let mut cursors = Vec::with_capacity(cluster.len());
    for i in 0..cluster.len() {
        cursors.push(cluster.node(i)?.cursor());
    }
    frame::write_frame(output, FrameKind::Done, &frame::encode_message(&cursors))
        .map_err(|e| shard_err(shard, format!("failed to write done frame: {e}")))?;
    Ok(())
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

    #[test]
    fn worker_main_runs_a_task_in_process() {
        // Drive the worker loop over in-memory pipes: frames out must
        // reproduce the fused in-process epochs bit-exactly.
        let blueprint = sample_blueprint(3, 11);
        let task = WorkerTask {
            shard: 0,
            epochs: 4,
            eval: EvalMode::Full,
            blueprint: blueprint.clone(),
            cursors: None,
            fault: None,
        };
        let mut input = Vec::new();
        frame::write_frame(&mut input, FrameKind::Task, &frame::encode_message(&task)).unwrap();
        let mut output = Vec::new();
        worker_main(&mut &input[..], &mut output).unwrap();

        let mut fused = blueprint.build().unwrap();
        let expected = fused.run_epochs(4);

        let mut reader = &output[..];
        for (e, expect) in expected.iter().enumerate() {
            let (kind, payload) = frame::read_frame(&mut reader).unwrap();
            assert_eq!(kind, FrameKind::Epoch);
            let got = decode_epoch(&payload).unwrap();
            assert_eq!(got.epoch, e as u64);
            assert_eq!(got.reports, expect.nodes);
        }
        let (kind, payload) = frame::read_frame(&mut reader).unwrap();
        assert_eq!(kind, FrameKind::Done);
        let cursors: Vec<NodeCursor> = frame::decode_message(&payload).unwrap();
        assert_eq!(cursors.len(), 3);
        assert!(cursors.iter().all(|c| c.epochs_run == 4));
        assert!(matches!(
            frame::read_frame(&mut reader),
            Err(FrameError::CleanEof)
        ));
    }

    #[test]
    fn worker_main_reports_build_failure_as_error_frame() {
        // An unsatisfiable blueprint (cursor count mismatch) must produce
        // an Error frame and an Err return, not a partial stream.
        let blueprint = sample_blueprint(2, 1);
        let task = WorkerTask {
            shard: 3,
            epochs: 2,
            eval: EvalMode::Full,
            blueprint,
            cursors: Some(Vec::new()), // wrong: 0 cursors for 2 nodes
            fault: None,
        };
        let mut input = Vec::new();
        frame::write_frame(&mut input, FrameKind::Task, &frame::encode_message(&task)).unwrap();
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
}
