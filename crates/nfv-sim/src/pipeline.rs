//! Epoch runtime: a staged generate → evaluate → aggregate loop over one
//! persistent columnar batch.
//!
//! One cluster epoch decomposes into three stages:
//!
//! 1. **generate** — advance every node's
//!    [`TrafficSource`](crate::traffic::TrafficSource) one control window
//!    and write the sampled lanes *directly into the epoch's
//!    [`ChainBatch`] columns* through a [`LaneWriter`](crate::batch::LaneWriter)
//!    (`Node::stage_epoch`), in node-index order — no staging tuples, no
//!    copy pass;
//! 2. **evaluate** — sweep the column-pass kernel over the staged lanes:
//!    every lane ([`evaluate_chain_batch_into`], refreshing a retained
//!    result buffer) under [`EvalMode::Full`], only the dirty lane groups
//!    ([`sweep_chain_batch_incremental`]) under [`EvalMode::Incremental`];
//! 3. **aggregate** — fold the lane results back into per-node reports
//!    straight from the batch's knob and arrival columns
//!    (`Node::finish_epoch_columns_into`), refilling one retained
//!    [`ClusterEpochReport`] in place, in node-index order.
//!
//! The stages run inline, one after the other, on the calling thread (the
//! kernel itself still fans out through [`crate::par`] on huge batches).
//! Every buffer in the loop — the batch, the kernel outputs, the per-node
//! lane counts, and the cluster report — is owned by the cluster's
//! `EpochPipeline` and refilled in place, so a steady-state epoch performs
//! **zero heap allocations** (`tests/alloc_steady_state.rs` pins this with
//! a counting allocator). Every epoch fuses all lanes into one batch under
//! one [`SimTuning`];
//! [`Cluster::add_node`](crate::cluster::Cluster::add_node) keeps that an
//! invariant by rejecting a node whose tuning differs from the first
//! node's.
//!
//! **Determinism.** The loop is *bit-identical* to stepping each node's
//! scalar [`Node::run_epoch`] serially:
//!
//! * every traffic RNG stream is advanced in node-index order, the same
//!   order the serial path uses, so stream positions per epoch are
//!   identical;
//! * evaluation consumes an immutable staged batch and is itself
//!   lane-deterministic for any thread count;
//! * aggregation runs strictly after the epoch's evaluation, in node order,
//!   and the column fold is bit-identical to the struct fold
//!   ([`crate::engine::aggregate_node_columns_into`]).
//!
//! `tests/proptests.rs::pipelined_epochs_equal_serial_fused` pins this over
//! random scenarios, and `tests/substrate_equivalence.rs` over the columnar
//! staging path specifically.

use serde::{Deserialize, Serialize};

use crate::batch::{
    evaluate_chain_batch_into, sweep_chain_batch_incremental, BatchOutputs, ChainBatch,
};
use crate::cluster::ClusterEpochReport;
use crate::engine::{ChainEpochResult, SimTuning};
use crate::error::SimResult;
use crate::node::{Node, NodeEpochReport};

/// How a multi-epoch run schedules its stages. There is one epoch loop, so
/// this selects nothing: [`Cluster::observe_epochs`](crate::cluster::Cluster::observe_epochs)
/// accepts and ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// The only mode: the inline stage loop.
    #[default]
    Auto,
}

/// How each epoch's staged batch is evaluated. Every mode computes
/// bit-identical results; modes differ only in how much kernel work a
/// low-churn epoch re-runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum EvalMode {
    /// Sweep every staged lane through the column-pass kernel each epoch.
    #[default]
    Full,
    /// Dirty-tracked incremental sweeps: the staged batch becomes persistent
    /// epoch state, per-epoch deltas land in place through the
    /// self-comparing column setters, and only dirty lane groups re-run the
    /// kernel — clean lanes reuse the cached outputs of the previous epoch
    /// verbatim. The first epoch of a run (or after any structural change)
    /// is a full priming sweep.
    Incremental,
}

/// The epoch loop's retained state: the persistent [`ChainBatch`], the
/// kernel outputs, the per-node lane counts, and the cluster report, so
/// repeated runs never re-allocate. Under [`EvalMode::Incremental`] the
/// batch doubles as the persistent lane state and `outputs` retains the
/// previous epoch's kernel results.
#[derive(Debug, Default)]
pub(crate) struct EpochPipeline {
    batch: ChainBatch,
    outputs: BatchOutputs,
    /// Retained full-sweep results ([`evaluate_chain_batch_into`] refreshes
    /// this in place each epoch).
    lane_results: Vec<SimResult<ChainEpochResult>>,
    /// Lanes staged per node, in node-index order.
    counts: Vec<usize>,
    /// Per-node clean verdicts for the incremental loop's current epoch.
    clean: Vec<bool>,
    /// The retained cluster report: per-node reports are refilled in place
    /// each epoch; a clean incremental node's slot is left untouched and
    /// reused verbatim (the epoch fold is pure, and a clean node's inputs
    /// this epoch are bitwise those of the last).
    report: ClusterEpochReport,
}

impl EpochPipeline {
    /// The epoch loop: runs `epochs` lock-step cluster epochs and hands each
    /// epoch's report to `observe(epoch_index, &report)` as a *borrowed
    /// view* of the retained buffer, valid for the duration of the call. In
    /// steady state (epoch 1 onwards over an unchanged cluster) an epoch
    /// performs zero heap allocations end-to-end: staging writes into
    /// persistent columns, the kernel refreshes retained outputs, and
    /// aggregation refills the retained report in place.
    ///
    /// Epoch 0 of every run restages every load, and under
    /// [`EvalMode::Incremental`] also invalidates the output cache, forcing
    /// one full priming sweep: a resumed run, a fresh cluster, or one whose
    /// chain layout changed between runs all start from the same primed
    /// state, which is how resumed-incremental stays bit-identical to
    /// uninterrupted runs. Later epochs restage over the previous window's
    /// lanes at the same positions, so unchanged loads skip their column
    /// writes; the incremental sweep then re-runs only the dirty lane
    /// groups and aggregation re-folds only nodes with a dirty lane.
    pub(crate) fn run_observed(
        &mut self,
        nodes: &mut [Node],
        epochs: usize,
        eval: EvalMode,
        mut observe: impl FnMut(usize, &ClusterEpochReport),
    ) {
        // `Cluster::add_node` keeps every node on the first node's tuning.
        let tuning = nodes
            .first()
            .map_or_else(SimTuning::default, |n| *n.tuning());
        for k in 0..epochs {
            stage(nodes, &mut self.batch, k > 0, &mut self.counts);
            let (results, clean) = match eval {
                EvalMode::Full => {
                    evaluate_chain_batch_into(&self.batch, &tuning, &mut self.lane_results);
                    (self.lane_results.as_slice(), None)
                }
                EvalMode::Incremental => {
                    // Per-node clean verdicts: read after the deltas land
                    // and before the sweep clears the flags. Skipped on the
                    // priming epoch, which recomputes (and retains) every
                    // node's report.
                    let clean = if k == 0 {
                        self.outputs.invalidate();
                        None
                    } else {
                        node_clean_into(&self.batch, &self.counts, &mut self.clean);
                        Some(self.clean.as_slice())
                    };
                    sweep_chain_batch_incremental(&mut self.batch, &tuning, &mut self.outputs);
                    (self.outputs.results(), clean)
                }
            };
            aggregate_cached_into(
                nodes,
                &self.batch,
                &self.counts,
                results,
                clean,
                &mut self.report,
            );
            observe(k, &self.report);
        }
    }
}

/// Stage 1 — generate: advance every node's traffic one control window, in
/// node-index order (the determinism anchor), writing lanes straight into
/// `batch`'s columns and recording each node's lane count. Lanes past a
/// shrunken cluster's end are truncated by the writer.
fn stage(
    nodes: &mut [Node],
    batch: &mut ChainBatch,
    reuse_clean_loads: bool,
    counts: &mut Vec<usize>,
) {
    counts.clear();
    let mut writer = batch.lane_writer(reuse_clean_loads);
    for node in nodes.iter_mut() {
        counts.push(node.stage_epoch(&mut writer));
    }
    writer.finish();
}

/// Per-node clean verdicts over a delta-staged `batch`: node `i` is clean
/// iff *none* of its lanes carries a dirty flag. Lane-level (not
/// group-level) dirtiness is the right criterion — a clean node sharing an
/// 8-lane group with a dirty neighbour re-evaluates, but to bit-identical
/// results, so its retained report stays valid.
fn node_clean_into(batch: &ChainBatch, counts: &[usize], out: &mut Vec<bool>) {
    out.clear();
    let mut lane = 0;
    for &n in counts {
        out.push((lane..lane + n).all(|i| !batch.is_dirty(i)));
        lane += n;
    }
}

/// Stage 3 — aggregate: fold lane results back into per-node reports, in
/// node-index order, refilling the retained `report` in place. Clean nodes
/// (`clean[i]` true) keep their retained report slot untouched — the epoch
/// fold is pure, and a clean node's inputs this epoch are bitwise those of
/// the last — while dirty nodes re-fold in place. `clean = None` (a full
/// sweep, the priming epoch, or a report that does not yet cover the
/// cluster) re-folds everything.
fn aggregate_cached_into(
    nodes: &mut [Node],
    batch: &ChainBatch,
    counts: &[usize],
    results: &[SimResult<ChainEpochResult>],
    clean: Option<&[bool]>,
    report: &mut ClusterEpochReport,
) {
    let cache_valid = clean.is_some() && report.nodes.len() == nodes.len();
    report
        .nodes
        .resize_with(nodes.len(), NodeEpochReport::default);
    let mut lane = 0;
    for (i, (node, &n)) in nodes.iter_mut().zip(counts).enumerate() {
        if cache_valid && clean.is_some_and(|c| c[i]) {
            // This node's lanes are bitwise-identical to the retained
            // fold's inputs; reuse the report slot without re-folding.
            node.note_cached_epoch();
        } else {
            node.finish_epoch_columns_into(
                batch,
                lane,
                &results[lane..lane + n],
                &mut report.nodes[i],
            );
        }
        lane += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainSpec;
    use crate::cluster::Cluster;
    use crate::cpu::ChainId;
    use crate::engine::{KnobSettings, PlatformPolicy};
    use crate::flow::FlowSet;

    fn testbed() -> Cluster {
        Cluster::paper_testbed(PlatformPolicy::greennfv(), 21)
    }

    #[test]
    fn multi_epoch_run_equals_serial_epoch_loop() {
        let mut pipelined = testbed();
        let mut serial = testbed();
        let got = pipelined.run_epochs(5);
        let expect: Vec<_> = (0..5).map(|_| serial.run_epoch()).collect();
        assert_eq!(got, expect, "multi-epoch run diverged from serial epochs");
    }

    #[test]
    fn step_and_run_agree() {
        let mut a = testbed();
        let mut b = testbed();
        let stepped: Vec<_> = (0..4).map(|_| a.run_epoch()).collect();
        let ran = b.run_epochs(4);
        assert_eq!(stepped, ran);
    }

    #[test]
    fn zero_epochs_and_empty_clusters_are_fine() {
        let mut c = testbed();
        assert!(c.run_epochs(0).is_empty());
        let mut empty = Cluster::new();
        let reports = empty.run_epochs(3);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.nodes.is_empty()));
    }

    #[test]
    fn streaming_matches_collected_reports() {
        let mut collected = testbed();
        let mut streamed = testbed();
        let expect = collected.run_epochs(4);
        let mut got = Vec::new();
        streamed.observe_epochs(4, PipelineMode::Auto, EvalMode::Full, |k, r| {
            got.push((k, r.clone()));
        });
        assert_eq!(got.len(), 4);
        for (k, (idx, report)) in got.into_iter().enumerate() {
            assert_eq!(idx, k, "epoch indices arrive in order");
            assert_eq!(report, expect[k]);
        }
    }

    #[test]
    fn observed_epochs_match_collected_reports() {
        // The borrowed-view loop must hand out the same reports the owning
        // API returns, for both eval modes.
        for eval in [EvalMode::Full, EvalMode::Incremental] {
            let mut collected = testbed();
            let mut observed = testbed();
            let expect = collected.run_epochs_eval(4, eval);
            let mut seen = 0;
            observed.observe_epochs(4, PipelineMode::Auto, eval, |k, r| {
                assert_eq!(r, &expect[k], "epoch {k} under {eval:?}");
                seen += 1;
            });
            assert_eq!(seen, 4);
        }
    }

    #[test]
    fn incremental_epochs_equal_serial_epochs() {
        // The dirty-tracked path must be bit-identical to per-epoch serial
        // runs.
        let mut incremental = testbed();
        let mut serial = testbed();
        let got = incremental.run_epochs_eval(6, EvalMode::Incremental);
        let expect: Vec<_> = (0..6).map(|_| serial.run_epoch()).collect();
        assert_eq!(got, expect, "diverged under Incremental");
    }

    #[test]
    fn incremental_runs_reprime_across_calls() {
        // Chunked incremental runs over one cluster must keep matching a
        // fresh serial cluster: each run's first epoch re-primes the
        // persistent buffer, so no stale lane state leaks across calls.
        let mut incremental = testbed();
        let mut serial = testbed();
        for chunk in [3usize, 1, 4] {
            let got = incremental.run_epochs_eval(chunk, EvalMode::Incremental);
            let expect: Vec<_> = (0..chunk).map(|_| serial.run_epoch()).collect();
            assert_eq!(got, expect, "chunk {chunk}");
        }
    }

    #[test]
    fn eval_mode_serde_uses_lowercase_names() {
        assert_eq!(serde_json::to_string(&EvalMode::Full).unwrap(), "\"full\"");
        assert_eq!(
            serde_json::to_string(&EvalMode::Incremental).unwrap(),
            "\"incremental\""
        );
        let back: EvalMode = serde_json::from_str("\"incremental\"").unwrap();
        assert_eq!(back, EvalMode::Incremental);
        assert_eq!(EvalMode::default(), EvalMode::Full);
    }

    #[test]
    fn buffers_are_reused_across_runs() {
        // Two runs through one cluster share the pipeline's buffers; results
        // must keep matching a fresh serial cluster (no stale-lane leaks).
        let mut pipelined = testbed();
        let mut serial = testbed();
        for chunk in [3usize, 2, 4] {
            let got = pipelined.run_epochs(chunk);
            let expect: Vec<_> = (0..chunk).map(|_| serial.run_epoch()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn runs_survive_cluster_reshapes_between_calls() {
        // Growing the cluster between runs reshapes the persistent buffers;
        // both eval modes must keep matching a fresh serial cluster.
        for eval in [EvalMode::Full, EvalMode::Incremental] {
            let mut reshaped = testbed();
            let mut serial = testbed();
            reshaped.run_epochs_eval(2, eval);
            (0..2).for_each(|_| {
                serial.run_epoch();
            });
            for (i, c) in [(0usize, ChainId(7)), (2, ChainId(8))] {
                let mut k = KnobSettings::default_tuned();
                k.llc_fraction = 0.2;
                for cluster in [&mut reshaped, &mut serial] {
                    cluster
                        .node_mut(i)
                        .unwrap()
                        .add_chain(
                            ChainSpec::lightweight(c),
                            FlowSet::evaluation_five_flows(),
                            k,
                            91 + i as u64,
                        )
                        .unwrap();
                }
            }
            let got = reshaped.run_epochs_eval(3, eval);
            let expect: Vec<_> = (0..3).map(|_| serial.run_epoch()).collect();
            assert_eq!(got, expect, "{eval:?} after reshape");
        }
    }
}
