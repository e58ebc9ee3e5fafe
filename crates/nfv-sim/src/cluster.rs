//! Multi-node testbed (the paper's six-server deployment).
//!
//! Three servers generate traffic (MoonGen) and three host NF chains; in the
//! simulator the generators live inside each hosting node's `TrafficGen`, so
//! a [`Cluster`] is the set of hosting nodes plus aggregate reporting.

use serde::{Deserialize, Serialize};

use crate::chain::ChainSpec;
use crate::cpu::ChainId;
use crate::engine::{KnobSettings, PlatformPolicy, SimTuning};
use crate::error::{SimError, SimResult};
use crate::flow::FlowSet;
use crate::node::{Node, NodeEpochReport, NodeProfile};
use crate::pipeline::{EpochPipeline, EvalMode, PipelineMode};
use crate::power::PowerModel;

/// Aggregate report over all nodes for one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterEpochReport {
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeEpochReport>,
}

impl ClusterEpochReport {
    /// Total delivered throughput across the cluster (Gbps).
    pub fn total_throughput_gbps(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.node.total_throughput_gbps())
            .sum()
    }

    /// Total energy across the cluster for the epoch (joules).
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.node.energy_j).sum()
    }

    /// Cluster-level energy efficiency (Gbps per kJ).
    pub fn energy_efficiency(&self) -> f64 {
        let e = self.total_energy_j();
        if e <= 0.0 {
            0.0
        } else {
            self.total_throughput_gbps() / (e / 1000.0)
        }
    }
}

/// A set of NF-hosting nodes evaluated in lock-step epochs.
#[derive(Default)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// The epoch loop: owns the persistent batch, so repeated epochs (and
    /// multi-epoch runs) never re-fuse or re-allocate lanes.
    pipeline: EpochPipeline,
}

impl Cluster {
    /// An empty cluster; add nodes with [`Cluster::add_node`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node (built externally, e.g. via [`Node::with_profile`]).
    ///
    /// Every node shares the first node's [`SimTuning`]: that is what lets
    /// each epoch fuse all lanes into one batch. A node with a different
    /// tuning is rejected with [`SimError::NodeConfig`] and the cluster is
    /// left unchanged.
    pub fn add_node(&mut self, node: Node) -> SimResult<()> {
        if let Some(first) = self.nodes.first() {
            if node.tuning() != first.tuning() {
                return Err(SimError::NodeConfig(format!(
                    "node {} tuning {:?} differs from the cluster's {:?}",
                    node.id(),
                    node.tuning(),
                    first.tuning()
                )));
            }
        }
        self.nodes.push(node);
        Ok(())
    }

    /// Creates a cluster of `n` identically configured nodes.
    pub fn homogeneous(
        n: usize,
        tuning: SimTuning,
        power: PowerModel,
        policy: PlatformPolicy,
    ) -> Self {
        Self {
            nodes: (0..n as u32)
                .map(|id| Node::new(id, tuning, power, policy))
                .collect(),
            pipeline: EpochPipeline::default(),
        }
    }

    /// Creates a heterogeneous cluster: one node per [`NodeProfile`], all
    /// sharing the model `tuning` and platform `policy`. Shared tuning is
    /// what lets [`Cluster::run_epoch`] fuse every node's chains into a
    /// single batched kernel call even when the hardware profiles differ.
    pub fn from_profiles(
        profiles: &[NodeProfile],
        tuning: SimTuning,
        policy: PlatformPolicy,
    ) -> SimResult<Self> {
        let nodes = profiles
            .iter()
            .enumerate()
            .map(|(id, p)| Node::with_profile(id as u32, tuning, policy, p.clone()))
            .collect::<SimResult<Vec<_>>>()?;
        Ok(Self {
            nodes,
            pipeline: EpochPipeline::default(),
        })
    }

    /// The paper's testbed: three hosting nodes, each with one 3-NF chain
    /// fed by the five-flow evaluation workload.
    pub fn paper_testbed(policy: PlatformPolicy, seed: u64) -> Self {
        let mut c = Self::homogeneous(3, SimTuning::default(), PowerModel::default(), policy);
        for (i, node) in c.nodes.iter_mut().enumerate() {
            node.add_chain(
                ChainSpec::canonical_three(ChainId(0)),
                FlowSet::evaluation_five_flows(),
                KnobSettings::default_tuned(),
                seed.wrapping_add(i as u64),
            )
            .expect("default knobs fit a fresh node");
        }
        c
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, idx: usize) -> SimResult<&mut Node> {
        let len = self.nodes.len();
        self.nodes
            .get_mut(idx)
            .ok_or_else(|| SimError::NodeConfig(format!("node {idx} out of range ({len} nodes)")))
    }

    /// Immutable access to one node.
    pub fn node(&self, idx: usize) -> SimResult<&Node> {
        self.nodes
            .get(idx)
            .ok_or_else(|| SimError::NodeConfig(format!("node {idx} out of range")))
    }

    /// Iterates over the nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Runs one epoch on every node: [`Cluster::run_epochs`] at horizon 1.
    ///
    /// All chains of all nodes are staged as lanes of one fused
    /// [`ChainBatch`](crate::batch::ChainBatch) and evaluated in a single
    /// [`evaluate_chain_batch_into`](crate::batch::evaluate_chain_batch_into)
    /// call (auto-chunked across threads for large clusters), then folded
    /// back into per-node reports in node order. The batch kernel is
    /// lane-order deterministic for any thread count, so this is
    /// bit-identical to running each node's epoch serially.
    pub fn run_epoch(&mut self) -> ClusterEpochReport {
        self.run_epochs(1).pop().expect("one epoch requested")
    }

    /// Runs `epochs` lock-step epochs through the
    /// [epoch loop](crate::pipeline), returning one report per epoch in
    /// order. The loop keeps its batch, kernel outputs and report across
    /// epochs and runs, so this is bit-identical to calling
    /// [`Cluster::run_epoch`] in a loop (proptested in `tests/proptests.rs`)
    /// without re-fusing lanes each epoch.
    pub fn run_epochs(&mut self, epochs: usize) -> Vec<ClusterEpochReport> {
        self.run_epochs_eval(epochs, EvalMode::Full)
    }

    /// [`Cluster::run_epochs`] with an explicit [`EvalMode`]: `Full`
    /// sweeps every lane every epoch, `Incremental` keeps the staged batch
    /// as persistent state and re-evaluates only lanes whose inputs changed
    /// (the first epoch of each run is always a full priming sweep, which is
    /// also what keeps resumed runs bit-identical). Results are
    /// bit-identical across modes; only the kernel work differs.
    pub fn run_epochs_eval(&mut self, epochs: usize, eval: EvalMode) -> Vec<ClusterEpochReport> {
        let mut reports = Vec::with_capacity(epochs);
        self.observe_epochs(epochs, PipelineMode::Auto, eval, |_, report| {
            reports.push(report.clone());
        });
        reports
    }

    /// Borrowed-view form of [`Cluster::run_epochs_eval`]: each epoch's
    /// report is handed to `observe(epoch_index, &report)` as a reference
    /// into the epoch loop's retained buffer, so a steady-state epoch
    /// allocates nothing at all. Use this for long scoring loops that read
    /// each report once and move on; memory stays O(1) in the horizon.
    /// `mode` selects nothing (see [`PipelineMode`]).
    pub fn observe_epochs(
        &mut self,
        epochs: usize,
        _mode: PipelineMode,
        eval: EvalMode,
        observe: impl FnMut(usize, &ClusterEpochReport),
    ) {
        self.pipeline
            .run_observed(&mut self.nodes, epochs, eval, observe);
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_three_hosting_nodes() {
        let c = Cluster::paper_testbed(PlatformPolicy::greennfv(), 1);
        assert_eq!(c.len(), 3);
        for n in c.nodes() {
            assert_eq!(n.chain_count(), 1);
        }
    }

    #[test]
    fn cluster_epoch_aggregates() {
        let mut c = Cluster::paper_testbed(PlatformPolicy::greennfv(), 1);
        let r = c.run_epoch();
        assert_eq!(r.nodes.len(), 3);
        assert!(r.total_throughput_gbps() > 0.0);
        assert!(r.total_energy_j() > 0.0);
        assert!(r.energy_efficiency() > 0.0);
        // Aggregates equal sums of parts.
        let t: f64 = r.nodes.iter().map(|n| n.node.total_throughput_gbps()).sum();
        assert!((r.total_throughput_gbps() - t).abs() < 1e-12);
    }

    #[test]
    fn node_access_bounds_checked() {
        let mut c = Cluster::paper_testbed(PlatformPolicy::greennfv(), 1);
        assert!(c.node(2).is_ok());
        assert!(c.node(3).is_err());
        assert!(c.node_mut(99).is_err());
    }

    #[test]
    fn batched_epoch_matches_per_node_epochs() {
        // One fused ChainBatch over the whole cluster must reproduce the
        // per-node path exactly (guards shard-boundary reduction drift).
        let mut fused = Cluster::paper_testbed(PlatformPolicy::greennfv(), 9);
        let mut serial = Cluster::paper_testbed(PlatformPolicy::greennfv(), 9);
        for _ in 0..3 {
            let fused_report = fused.run_epoch();
            let serial_reports: Vec<_> = (0..serial.len())
                .map(|i| serial.node_mut(i).unwrap().run_epoch())
                .collect();
            assert_eq!(fused_report.nodes, serial_reports);
        }
    }

    #[test]
    fn add_node_rejects_a_mismatched_tuning() {
        let node = |id, epoch_s| {
            let tuning = SimTuning {
                epoch_s,
                ..SimTuning::default()
            };
            Node::new(
                id,
                tuning,
                PowerModel::default(),
                PlatformPolicy::greennfv(),
            )
        };
        let mut c = Cluster::new();
        c.add_node(node(0, 30.0)).unwrap();
        c.add_node(node(1, 30.0)).unwrap();
        let err = c.add_node(node(2, 60.0)).unwrap_err();
        assert!(matches!(err, SimError::NodeConfig(_)), "{err}");
        assert_eq!(
            c.len(),
            2,
            "a rejected node must leave the cluster unchanged"
        );
        assert_eq!(c.run_epoch().nodes.len(), 2);
    }

    #[test]
    fn heterogeneous_profiles_fuse_into_one_batch() {
        // Nodes with different hardware profiles share one SimTuning, so the
        // fused path still applies — and must equal per-node serial epochs.
        let profiles = [
            NodeProfile::paper_default(),
            NodeProfile::edge_low_power(),
            NodeProfile::high_perf(),
        ];
        let build = || {
            let mut c =
                Cluster::from_profiles(&profiles, SimTuning::default(), PlatformPolicy::greennfv())
                    .unwrap();
            for i in 0..c.len() {
                let mut k = KnobSettings::default_tuned();
                k.freq_ghz = 1.6; // inside every profile's range
                c.node_mut(i)
                    .unwrap()
                    .add_chain(
                        ChainSpec::canonical_three(ChainId(0)),
                        FlowSet::evaluation_five_flows(),
                        k,
                        17 + i as u64,
                    )
                    .unwrap();
            }
            c
        };
        let mut fused = build();
        let mut serial = build();
        for _ in 0..3 {
            let fused_report = fused.run_epoch();
            let serial_reports: Vec<_> = (0..serial.len())
                .map(|i| serial.node_mut(i).unwrap().run_epoch())
                .collect();
            assert_eq!(fused_report.nodes, serial_reports);
        }
        // The profiles actually differentiate the power draw.
        let r = fused.run_epoch();
        assert_ne!(r.nodes[0].node.energy_j, r.nodes[1].node.energy_j);
        assert_ne!(r.nodes[1].node.energy_j, r.nodes[2].node.energy_j);
    }

    #[test]
    fn seeds_differentiate_nodes() {
        let mut c = Cluster::paper_testbed(PlatformPolicy::greennfv(), 7);
        let r = c.run_epoch();
        // Poisson flows differ across per-node seeds.
        let a = r.nodes[0].telemetry[0].arrival_pps;
        let b = r.nodes[1].telemetry[0].arrival_pps;
        assert_ne!(a, b);
    }
}
