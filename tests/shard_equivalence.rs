//! Sharded-vs-fused bit-equality, shard failure semantics, and frame-codec
//! totality for `nfv_sim::shard`.
//!
//! CI's `shard-matrix` job runs one leg per supported shard count:
//!
//! ```text
//! cargo test -q --test shard_equivalence -- shards_<n>
//! ```
//!
//! so every `#[test]` below whose name starts with `shards_<n>_` belongs to
//! that leg; `ci_matrix_pins_supported_shard_counts` keeps the YAML matrix
//! and [`SUPPORTED_SHARD_COUNTS`] from drifting apart. The proptest legs
//! (frame decoder totality over garbage bytes) carry no `shards_` prefix
//! and run in the main build-and-test job.
//!
//! Equality throughout is exact `==` on [`ClusterEpochReport`] — every
//! `f64` in every chain result, telemetry row, and node aggregate must be
//! bit-for-bit the number the fused in-process path produces.

use greennfv::prelude::*;
use nfv_sim::prelude::*;
use nfv_sim::shard::frame;
use proptest::prelude::*;

/// The worker binary Cargo built alongside this test (root-package bins are
/// always built for root integration tests).
fn worker() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_shard_worker"), Vec::new())
}

/// Fused in-process reference run.
fn fused_reports(
    blueprint: &ClusterBlueprint,
    epochs: usize,
    eval: EvalMode,
) -> Vec<ClusterEpochReport> {
    let mut cluster = blueprint.build().expect("blueprint builds");
    cluster.run_epochs_eval(epochs, eval)
}

/// Multi-process run over the same blueprint.
fn sharded_reports(
    blueprint: &ClusterBlueprint,
    shards: u32,
    epochs: usize,
    eval: EvalMode,
) -> Vec<ClusterEpochReport> {
    let mut sharded = ShardedCluster::with_worker(blueprint.clone(), shards, worker())
        .expect("shard count is valid");
    sharded
        .run_epochs_eval(epochs, eval)
        .expect("sharded run succeeds")
}

/// Every registry scenario, sharded `shards` ways, must reproduce the fused
/// cluster's epoch reports exactly. Horizons are capped for the very large
/// fleets — bit-equality per epoch does not get more convincing with more
/// epochs, and the full horizons are already covered by `tests/scenarios.rs`.
fn registry_matches_fused(shards: u32) {
    for sc in Scenario::registry() {
        let blueprint = sc.to_blueprint().expect("registry scenario lowers");
        let epochs = if blueprint.len() > 64 {
            (sc.epochs as usize).min(2)
        } else {
            sc.epochs as usize
        };
        let fused = fused_reports(&blueprint, epochs, sc.evaluation);
        let sharded = sharded_reports(&blueprint, shards, epochs, sc.evaluation);
        assert_eq!(
            sharded, fused,
            "scenario `{}` diverged from the fused run at {shards} shard(s)",
            sc.name
        );
    }
}

#[test]
fn shards_1_registry_matches_fused() {
    registry_matches_fused(1);
}

#[test]
fn shards_2_registry_matches_fused() {
    registry_matches_fused(2);
}

#[test]
fn shards_4_registry_matches_fused() {
    registry_matches_fused(4);
}

/// A deliberately heterogeneous 7-node blueprint: mixed profiles, chain
/// shapes, chain counts, and one trace-replay tenant, so the uneven
/// 7-nodes/4-shards partition (sizes 1/2/2/2) crosses every boundary kind.
fn seven_node_blueprint() -> ClusterBlueprint {
    let mut bp = ClusterBlueprint::new(SimTuning::default(), PlatformPolicy::greennfv());
    for id in 0..7u32 {
        let profile = if id % 2 == 0 {
            NodeProfile::paper_default()
        } else {
            NodeProfile::edge_low_power()
        };
        let mut knobs = KnobSettings::default_tuned();
        // Two chains must fit the edge profile's application LLC ways.
        knobs.llc_fraction = 0.3;
        let mut chains = vec![ChainBlueprint {
            spec: if id % 3 == 0 {
                ChainSpec::canonical_three(ChainId(0))
            } else {
                ChainSpec::lightweight(ChainId(0))
            },
            knobs,
            traffic: TrafficBlueprint::Synthetic {
                flows: FlowSet::evaluation_five_flows(),
                seed: 900 + u64::from(id),
            },
        }];
        if id % 3 == 1 {
            chains.push(ChainBlueprint {
                spec: ChainSpec::lightweight(ChainId(1)),
                knobs,
                traffic: TrafficBlueprint::Replay {
                    trace: Trace::new(
                        "uneven-replay",
                        vec![TracePoint {
                            duration_s: 1800.0,
                            rate_pps: 8.0e5 + 1.0e4 * f64::from(id),
                            packet_size: 512,
                            burstiness: 1.5,
                        }],
                    )
                    .expect("valid trace"),
                    jitter_frac: 0.1,
                    seed: 7_000 + u64::from(id),
                },
            });
        }
        bp.push_node(NodeBlueprint {
            id,
            profile,
            chains,
        });
    }
    bp
}

#[test]
fn shards_4_uneven_seven_node_partition_matches_fused() {
    let sizes: Vec<usize> = shard_ranges(7, 4).iter().map(|r| r.len()).collect();
    assert_eq!(sizes, vec![1, 2, 2, 2]);
    let bp = seven_node_blueprint();
    let fused = fused_reports(&bp, 5, EvalMode::Full);
    let sharded = sharded_reports(&bp, 4, 5, EvalMode::Full);
    assert_eq!(sharded, fused, "uneven 7/4 partition diverged");
}

/// More shards than nodes: the empty ranges are dropped and the result is
/// still exactly the fused run.
#[test]
fn shards_4_with_fewer_nodes_than_shards_matches_fused() {
    let mut bp = seven_node_blueprint();
    bp.nodes.truncate(3);
    let fused = fused_reports(&bp, 4, EvalMode::Full);
    let sharded = sharded_reports(&bp, 4, 4, EvalMode::Full);
    assert_eq!(sharded, fused, "3 nodes over 4 shards diverged");
}

/// Fuzz-corpus scenarios — including the incremental-evaluation and
/// trace-replay regimes — stay bit-equal under sharding.
#[test]
fn shards_2_fuzz_corpus_incremental_and_replay_match_fused() {
    let mut scenarios = corpus(0x5EED_CAFE, 3);
    // Pin the two regimes the ISSUE calls out explicitly, whatever the
    // corpus draw above happened to produce.
    scenarios.push(fuzz_scenario_shaped(FuzzShape::DiurnalFleet, 7));
    scenarios.push(fuzz_scenario_shaped(FuzzShape::NodeFailure, 11));

    let blueprints: Vec<(String, EvalMode, u32, ClusterBlueprint)> = scenarios
        .iter()
        .map(|sc| {
            (
                sc.name.clone(),
                sc.evaluation,
                sc.epochs,
                sc.to_blueprint().expect("fuzz scenario lowers"),
            )
        })
        .collect();
    assert!(
        scenarios
            .iter()
            .any(|sc| sc.evaluation == EvalMode::Incremental),
        "corpus must cover the incremental regime"
    );
    assert!(
        blueprints
            .iter()
            .any(|(_, _, _, bp)| bp.nodes.iter().any(|n| {
                n.chains
                    .iter()
                    .any(|c| matches!(c.traffic, TrafficBlueprint::Replay { .. }))
            })),
        "corpus must cover trace replay"
    );

    for (name, eval, epochs, bp) in &blueprints {
        let epochs = (*epochs as usize).min(4);
        let fused = fused_reports(bp, epochs, *eval);
        let sharded = sharded_reports(bp, 2, epochs, *eval);
        assert_eq!(&sharded, &fused, "fuzz scenario `{name}` diverged");
    }
}

/// Consecutive `run_epochs` calls on one coordinator continue the same run:
/// the cursors carried between calls keep the stream bit-identical to a
/// single fused horizon.
#[test]
fn shards_1_consecutive_runs_continue_bit_exact() {
    let bp = seven_node_blueprint();
    let fused = fused_reports(&bp, 6, EvalMode::Full);
    let mut sharded = ShardedCluster::with_worker(bp, 1, worker()).expect("shard count is valid");
    let mut reports = sharded.run_epochs(2).expect("first segment runs");
    reports.extend(sharded.run_epochs(4).expect("second segment runs"));
    assert_eq!(reports, fused, "segmented single-shard run diverged");
    assert_eq!(sharded.epochs_run(), 6);
}

/// Checkpoint/resume composes across process boundaries *and* across shard
/// counts: cursors snapshotted from a 2-shard run restore into a fresh
/// 4-shard coordinator and the combined horizon equals one fused run.
#[test]
fn shards_2_checkpoint_resumes_into_4_shards_bit_exact() {
    let bp = seven_node_blueprint();
    let fused = fused_reports(&bp, 6, EvalMode::Full);

    let mut first = ShardedCluster::with_worker(bp.clone(), 2, worker()).expect("2 shards");
    let mut reports = first.run_epochs(2).expect("first segment runs");
    let snapshot = first.cursors().expect("cursor snapshot");
    assert_eq!(snapshot.len(), 7);

    let mut second = ShardedCluster::with_worker(bp, 4, worker()).expect("4 shards");
    second.restore_cursors(snapshot).expect("snapshot fits");
    reports.extend(second.run_epochs(4).expect("resumed segment runs"));

    assert_eq!(
        reports, fused,
        "checkpointed 2-shard -> 4-shard run diverged"
    );
    assert_eq!(second.epochs_run(), 6);
}

/// Edge cases mirror the fused path exactly: zero epochs yield no reports,
/// an empty cluster still reports (empty) epochs.
#[test]
fn shards_2_zero_epoch_and_empty_cluster_edges_match_fused() {
    let bp = seven_node_blueprint();
    let mut sharded = ShardedCluster::with_worker(bp, 2, worker()).expect("2 shards");
    assert_eq!(sharded.run_epochs(0).expect("zero epochs run"), Vec::new());

    let empty = ClusterBlueprint::new(SimTuning::default(), PlatformPolicy::greennfv());
    let fused = fused_reports(&empty, 3, EvalMode::Full);
    let sharded = sharded_reports(&empty, 2, 3, EvalMode::Full);
    assert_eq!(sharded, fused, "empty-cluster reports diverged");
    assert!(sharded.iter().all(|r| r.nodes.is_empty()));
}

/// Extracts the structured shard error or panics with the actual value.
fn expect_shard_error(result: SimResult<Vec<ClusterEpochReport>>) -> (u32, String) {
    match result {
        Err(SimError::Shard { shard, cause }) => (shard, cause),
        other => panic!("expected SimError::Shard, got {other:?}"),
    }
}

/// A worker that exits nonzero mid-horizon surfaces as a structured error
/// naming the shard, the progress point, and the exit status — and the run
/// terminates (no hang, no partial merge).
#[test]
fn shards_2_worker_exit_is_a_structured_error() {
    let bp = seven_node_blueprint();
    let mut sharded = ShardedCluster::with_worker(bp, 2, worker()).expect("2 shards");
    sharded.inject_fault(1, WorkerFault::ExitAfter { epochs: 1, code: 3 });
    let (shard, cause) = expect_shard_error(sharded.run_epochs(4));
    assert_eq!(shard, 1, "error must name the failing shard: {cause}");
    assert!(
        cause.contains("after 1 of 4 epochs"),
        "error must name the progress point: {cause}"
    );
    assert!(
        cause.contains("exit status") && cause.contains('3'),
        "error must carry the worker exit status: {cause}"
    );
}

/// A worker that emits garbage instead of a frame (bad magic) fails loud
/// with the shard index and decode cause.
#[test]
fn shards_2_garbage_frame_is_a_structured_error() {
    let bp = seven_node_blueprint();
    let mut sharded = ShardedCluster::with_worker(bp, 2, worker()).expect("2 shards");
    sharded.inject_fault(0, WorkerFault::GarbageAfter { epochs: 1 });
    let (shard, cause) = expect_shard_error(sharded.run_epochs(3));
    assert_eq!(shard, 0, "error must name the failing shard: {cause}");
    assert!(
        cause.contains("magic"),
        "garbage must be diagnosed as a framing error: {cause}"
    );
    assert!(
        cause.contains("after 1 of 3 epochs"),
        "progress point: {cause}"
    );
}

/// A worker whose stream stops mid-frame (length prefix promises more bytes
/// than arrive) is a truncation error, not a hang.
#[test]
fn shards_4_truncated_frame_is_a_structured_error() {
    let bp = seven_node_blueprint();
    let mut sharded = ShardedCluster::with_worker(bp, 4, worker()).expect("4 shards");
    sharded.inject_fault(2, WorkerFault::TruncateAfter { epochs: 1 });
    let (shard, cause) = expect_shard_error(sharded.run_epochs(3));
    assert_eq!(shard, 2, "error must name the failing shard: {cause}");
    assert!(
        cause.contains("mid-frame"),
        "short frame must be diagnosed as truncation: {cause}"
    );
}

/// A worker command that cannot even spawn fails loud with the shard index
/// and program name.
#[test]
fn shards_1_unspawnable_worker_is_a_structured_error() {
    let bp = seven_node_blueprint();
    let missing = WorkerCommand::new("/nonexistent/shard_worker_missing", Vec::new());
    let mut sharded = ShardedCluster::with_worker(bp, 1, missing).expect("shard count is valid");
    let (shard, cause) = expect_shard_error(sharded.run_epochs(2));
    assert_eq!(shard, 0);
    assert!(
        cause.contains("failed to spawn") && cause.contains("shard_worker_missing"),
        "spawn failure must name the program: {cause}"
    );
}

/// Cursors of a freshly built cluster, in node order.
fn fresh_cursors(blueprint: &ClusterBlueprint) -> Vec<NodeCursor> {
    let cluster = blueprint.build().expect("blueprint builds");
    cluster.nodes().map(|n| n.cursor()).collect()
}

/// The `shard_worker` binary behind a `/bin/sh` wrapper that appends one
/// `spawn` line to a per-test log when a worker process starts and one
/// `exit <status>` line when the worker itself exits — worker lifecycles
/// counted from outside, through the public `WorkerCommand` alone.
fn logged_worker(test: &str) -> (WorkerCommand, std::path::PathBuf) {
    let log = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}.log"));
    let _ = std::fs::remove_file(&log);
    let script = format!(
        "echo spawn >> '{log}'; \"$0\" \"$@\"; echo \"exit $?\" >> '{log}'",
        log = log.display()
    );
    let command = WorkerCommand::new(
        "/bin/sh",
        vec![
            "-c".into(),
            script,
            env!("CARGO_BIN_EXE_shard_worker").into(),
        ],
    );
    (command, log)
}

/// How many lines of the wrapper log equal `line`.
fn log_count(log: &std::path::Path, line: &str) -> usize {
    std::fs::read_to_string(log)
        .unwrap_or_default()
        .lines()
        .filter(|l| *l == line)
        .count()
}

/// A sequence of calls on one live fleet, with varying horizons and mixed
/// evaluation modes, equals the same call sequence on one fused cluster —
/// and the fleet spawns each worker exactly once across all of them.
fn live_fleet_calls_match_fused(shards: u32, test: &str) {
    let bp = seven_node_blueprint();
    let calls = [
        (2, EvalMode::Full),
        (3, EvalMode::Incremental),
        (1, EvalMode::Full),
        (4, EvalMode::Incremental),
        (2, EvalMode::Incremental),
    ];
    let mut fused = bp.build().expect("blueprint builds");
    let (worker, log) = logged_worker(test);
    let mut sharded = ShardedCluster::with_worker(bp, shards, worker).expect("valid shard count");
    for (i, (epochs, eval)) in calls.into_iter().enumerate() {
        let got = sharded.run_epochs_eval(epochs, eval).expect("call runs");
        assert_eq!(
            got,
            fused.run_epochs_eval(epochs, eval),
            "call {i} ({epochs} epochs, {eval:?}) diverged at {shards} shards"
        );
    }
    assert_eq!(sharded.epochs_run(), 12);
    assert_eq!(
        sharded.cursors().expect("cursors"),
        fused.nodes().map(|n| n.cursor()).collect::<Vec<_>>()
    );
    assert_eq!(
        log_count(&log, "spawn"),
        shards as usize,
        "one worker per shard for the fleet's whole life"
    );
}

#[test]
fn shards_2_live_fleet_consecutive_calls_match_fused() {
    live_fleet_calls_match_fused(2, "shards_2_live_fleet");
}

#[test]
fn shards_4_live_fleet_consecutive_calls_match_fused() {
    live_fleet_calls_match_fused(4, "shards_4_live_fleet");
}

/// Restoring a snapshot onto a live fleet rewinds it without a respawn:
/// the replayed epochs equal the fused run's epochs after the snapshot.
#[test]
fn shards_2_restore_onto_live_fleet_replays_bit_exact() {
    let bp = seven_node_blueprint();
    let fused = fused_reports(&bp, 5, EvalMode::Full);
    let (worker, log) = logged_worker("shards_2_restore_live");
    let mut sharded = ShardedCluster::with_worker(bp, 2, worker).expect("2 shards");
    sharded.run_epochs(2).expect("first segment runs");
    let snapshot = sharded.cursors().expect("cursor snapshot");
    sharded.run_epochs(3).expect("second segment runs");
    sharded.restore_cursors(snapshot).expect("snapshot fits");
    assert_eq!(sharded.epochs_run(), 2);
    let replay = sharded.run_epochs(3).expect("replay runs");
    assert_eq!(replay, fused[2..5], "restored live fleet diverged");
    assert_eq!(sharded.epochs_run(), 5);
    assert_eq!(log_count(&log, "spawn"), 2, "restore must not respawn");
}

/// A failed call leaves the run where the last merged call left it; the
/// next call respawns the fleet and continues bit-equal from there. The
/// injected fault is consumed by the call it breaks.
#[test]
fn shards_2_fleet_recovers_after_worker_exit() {
    let bp = seven_node_blueprint();
    let fused = fused_reports(&bp, 5, EvalMode::Full);
    let (worker, log) = logged_worker("shards_2_recovery");
    let mut sharded = ShardedCluster::with_worker(bp, 2, worker).expect("2 shards");
    let mut reports = sharded.run_epochs(2).expect("first segment runs");
    sharded.inject_fault(1, WorkerFault::ExitAfter { epochs: 1, code: 3 });
    let (shard, cause) = expect_shard_error(sharded.run_epochs(3));
    assert_eq!(shard, 1, "error must name the failing shard: {cause}");
    assert!(cause.contains("after 1 of 3 epochs"), "progress: {cause}");
    assert_eq!(sharded.epochs_run(), 2, "a failed call merges nothing");
    assert_eq!(log_count(&log, "exit 3"), 1, "the faulted worker exited");
    reports.extend(sharded.run_epochs(3).expect("respawned fleet runs"));
    assert_eq!(reports, fused, "recovered fleet diverged");
    assert_eq!(sharded.epochs_run(), 5);
    assert_eq!(
        log_count(&log, "spawn"),
        4,
        "one respawn of the whole fleet"
    );
}

/// Dropping a live fleet returns and shuts every worker down through end
/// of stdin: each worker exits 0 on its own, none is killed.
#[test]
fn shards_2_drop_shuts_workers_down_by_end_of_stream() {
    let (worker, log) = logged_worker("shards_2_drop");
    let mut sharded =
        ShardedCluster::with_worker(seven_node_blueprint(), 2, worker).expect("2 shards");
    sharded.run_epochs(2).expect("fleet runs");
    assert_eq!(log_count(&log, "exit 0"), 0, "workers outlive the call");
    drop(sharded);
    assert_eq!(log_count(&log, "spawn"), 2);
    assert_eq!(log_count(&log, "exit 0"), 2, "every worker exited 0");
}

/// The CI shard-matrix and [`SUPPORTED_SHARD_COUNTS`] pin each other: every
/// supported count has a YAML matrix entry and a test leg here, and the
/// YAML names no count this suite does not support.
#[test]
fn ci_matrix_pins_supported_shard_counts() {
    let ci_path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    let ci = std::fs::read_to_string(ci_path).expect("CI workflow exists");
    let me = include_str!("shard_equivalence.rs");
    for n in SUPPORTED_SHARD_COUNTS {
        let leg = format!("shards_{n}");
        assert!(
            ci.contains(&leg),
            "CI shard-matrix must run the `{leg}` leg"
        );
        assert!(
            me.contains(&format!("fn {leg}_")),
            "this suite must define at least one `{leg}_*` test"
        );
    }
    for n in [3u32, 5, 6, 7, 8] {
        assert!(
            !ci.contains(&format!("shards_{n}")),
            "CI names unsupported shard count {n}"
        );
    }
}

/// A real epoch payload round-trips the flat codec exactly, and re-encoding
/// the decoded frame reproduces the original bytes.
#[test]
fn epoch_frame_roundtrip_is_byte_stable() {
    let mut bp = seven_node_blueprint();
    bp.nodes.truncate(2);
    let reports = fused_reports(&bp, 1, EvalMode::Full).remove(0).nodes;
    let bytes = nfv_sim::shard::encode_epoch(9, &reports);
    let decoded = nfv_sim::shard::decode_epoch(&bytes).expect("valid payload decodes");
    assert_eq!(decoded.epoch, 9);
    assert_eq!(decoded.reports, reports);
    assert_eq!(nfv_sim::shard::encode_epoch(9, &decoded.reports), bytes);
}

proptest! {
    /// The frame reader is total over arbitrary byte streams: it returns a
    /// frame or a structured [`frame::FrameError`], never panics, and never
    /// allocates from an adversarial length prefix.
    #[test]
    fn frame_reader_survives_garbage_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut stream = &bytes[..];
        let _ = frame::read_frame(&mut stream);
    }

    /// Same totality for a stream that starts with valid magic, so the
    /// fuzz reaches the kind/length/payload stages of the decoder.
    #[test]
    fn frame_reader_survives_garbage_after_magic(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut framed = frame::FRAME_MAGIC.to_vec();
        framed.extend_from_slice(&bytes);
        let mut stream = &framed[..];
        let _ = frame::read_frame(&mut stream);
    }

    /// The flat epoch decoder is total over arbitrary payloads.
    #[test]
    fn epoch_decoder_survives_garbage_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let _ = nfv_sim::shard::decode_epoch(&bytes);
    }

    /// The value-tree decoder (task/done/error payloads) is total over
    /// arbitrary payloads.
    #[test]
    fn value_decoder_survives_garbage_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let _ = frame::decode_value(&bytes);
    }

    /// The per-item sequence decoder (done-frame cursors) is total over
    /// arbitrary payloads.
    #[test]
    fn sequence_decoder_survives_garbage_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let _ = frame::decode_seq::<NodeCursor>(&bytes);
    }

    /// Corrupting any single byte of a valid value-tree payload never
    /// panics the decoder: it decodes to something or errors cleanly.
    #[test]
    fn value_decoder_survives_single_byte_corruption(
        corrupt in (0usize..4096, 0u8..=255),
    ) {
        let task = nfv_sim::shard::WorkerTask {
            shard: 1,
            blueprint: {
                let mut bp = seven_node_blueprint();
                bp.nodes.truncate(1);
                bp
            },
        };
        let mut bytes = frame::encode_message(&task);
        let (pos, val) = corrupt;
        let pos = pos % bytes.len();
        bytes[pos] = val;
        let _ = frame::decode_message::<nfv_sim::shard::WorkerTask>(&bytes);

        let run = nfv_sim::shard::WorkerRun {
            epochs: 3,
            eval: EvalMode::Full,
            cursors: Some(fresh_cursors(&task.blueprint)),
            fault: Some(WorkerFault::ExitAfter { epochs: 1, code: 3 }),
        };
        let mut bytes = frame::encode_message(&run);
        let pos = pos % bytes.len();
        bytes[pos] = val;
        let _ = frame::decode_message::<nfv_sim::shard::WorkerRun>(&bytes);
    }
}
