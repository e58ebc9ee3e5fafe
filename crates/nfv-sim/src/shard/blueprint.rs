//! Serializable construction recipes for clusters.
//!
//! [`Node`]s are live simulation state (mbuf pools, rings, RNGs) and do not
//! serialize; what *does* serialize is the recipe that built them: profile,
//! chain specs, knobs, and seeded traffic parameters. A
//! [`ClusterBlueprint`] captures that recipe for a whole cluster so a shard
//! worker can rebuild its node slice bit-identically in another process —
//! the same construction path [`crate::cluster::Cluster`] uses, just
//! replayed from data. Combined with [`NodeCursor`](crate::node::NodeCursor)
//! snapshots, a blueprint slice plus cursors reconstructs a mid-run node
//! exactly (the same contract `Node::restore_cursor` documents).

use serde::{Deserialize, Serialize};

use crate::chain::ChainSpec;
use crate::cluster::Cluster;
use crate::engine::{KnobSettings, PlatformPolicy, SimTuning};
use crate::error::{SimError, SimResult};
use crate::flow::FlowSet;
use crate::node::{Node, NodeProfile};
use crate::traffic::{Trace, TrafficSource};

/// Recipe for one chain's traffic source: the seed and parameters, not the
/// live generator state (that travels separately as a
/// [`TrafficCursor`](crate::traffic::TrafficCursor)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficBlueprint {
    /// Seeded synthetic generation over a flow set.
    Synthetic {
        /// Flow definitions driving the generator.
        flows: FlowSet,
        /// Generator seed.
        seed: u64,
    },
    /// Deterministic trace replay with seeded jitter.
    Replay {
        /// The trace to replay.
        trace: Trace,
        /// Multiplicative jitter amplitude (fraction of the traced load).
        jitter_frac: f64,
        /// Jitter seed.
        seed: u64,
    },
}

impl TrafficBlueprint {
    /// Instantiates the live traffic source this recipe describes.
    pub fn build(&self) -> SimResult<TrafficSource> {
        match self {
            TrafficBlueprint::Synthetic { flows, seed } => {
                Ok(TrafficSource::synthetic(flows.clone(), *seed))
            }
            TrafficBlueprint::Replay {
                trace,
                jitter_frac,
                seed,
            } => TrafficSource::replay(trace.clone(), *jitter_frac, *seed),
        }
    }
}

/// Recipe for one hosted chain: spec, initial knobs, and traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainBlueprint {
    /// The chain's NF composition and identifier.
    pub spec: ChainSpec,
    /// Initial knob settings.
    pub knobs: KnobSettings,
    /// Traffic recipe feeding the chain.
    pub traffic: TrafficBlueprint,
}

/// Recipe for one node: hardware profile plus hosted chains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeBlueprint {
    /// Node identifier (kept stable across shard boundaries so worker
    /// reports carry the same ids the fused cluster would).
    pub id: u32,
    /// Hardware profile.
    pub profile: NodeProfile,
    /// Hosted chains in insertion order.
    pub chains: Vec<ChainBlueprint>,
}

impl NodeBlueprint {
    /// Builds the live node under the cluster-wide `tuning` and `policy` —
    /// the exact construction path the fused cluster uses.
    pub fn build(&self, tuning: SimTuning, policy: PlatformPolicy) -> SimResult<Node> {
        let mut node = Node::with_profile(self.id, tuning, policy, self.profile.clone())?;
        for chain in &self.chains {
            node.add_chain_with_source(chain.spec.clone(), chain.traffic.build()?, chain.knobs)?;
        }
        Ok(node)
    }
}

/// Recipe for a whole cluster: shared model tuning and platform policy plus
/// per-node blueprints, in node order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterBlueprint {
    /// Model tuning shared by every node (shared tuning is what lets the
    /// fused epoch batch all nodes' lanes together).
    pub tuning: SimTuning,
    /// Platform policy shared by every node.
    pub policy: PlatformPolicy,
    /// Per-node recipes, in node order.
    pub nodes: Vec<NodeBlueprint>,
}

impl ClusterBlueprint {
    /// An empty blueprint; add nodes with [`ClusterBlueprint::push_node`].
    pub fn new(tuning: SimTuning, policy: PlatformPolicy) -> Self {
        Self {
            tuning,
            policy,
            nodes: Vec::new(),
        }
    }

    /// Appends one node recipe.
    pub fn push_node(&mut self, node: NodeBlueprint) {
        self.nodes.push(node);
    }

    /// Number of nodes described.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are described.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A blueprint covering only nodes `[start, end)` — the slice a shard
    /// worker receives.
    pub fn slice(&self, start: usize, end: usize) -> SimResult<Self> {
        if start > end || end > self.nodes.len() {
            return Err(SimError::NodeConfig(format!(
                "blueprint slice {start}..{end} out of range ({} nodes)",
                self.nodes.len()
            )));
        }
        Ok(Self {
            tuning: self.tuning,
            policy: self.policy,
            nodes: self.nodes[start..end].to_vec(),
        })
    }

    /// Builds the live cluster this blueprint describes.
    pub fn build(&self) -> SimResult<Cluster> {
        let mut cluster = Cluster::new();
        for node in &self.nodes {
            cluster.add_node(node.build(self.tuning, self.policy)?)?;
        }
        Ok(cluster)
    }

    /// Convenience: a homogeneous blueprint of `n` nodes sharing one
    /// profile, each hosting one chain over `flows` with per-node seeds
    /// `seed + node_index`.
    pub fn homogeneous(
        n: usize,
        tuning: SimTuning,
        policy: PlatformPolicy,
        profile: NodeProfile,
        spec: ChainSpec,
        knobs: KnobSettings,
        flows: FlowSet,
        seed: u64,
    ) -> Self {
        let nodes = (0..n as u32)
            .map(|id| NodeBlueprint {
                id,
                profile: profile.clone(),
                chains: vec![ChainBlueprint {
                    spec: spec.clone(),
                    knobs,
                    traffic: TrafficBlueprint::Synthetic {
                        flows: flows.clone(),
                        seed: seed.wrapping_add(u64::from(id)),
                    },
                }],
            })
            .collect();
        Self {
            tuning,
            policy,
            nodes,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::cpu::ChainId;

    /// A small homogeneous blueprint shared by the shard unit tests.
    pub(crate) fn sample_blueprint(n: usize, seed: u64) -> ClusterBlueprint {
        ClusterBlueprint::homogeneous(
            n,
            SimTuning::default(),
            PlatformPolicy::greennfv(),
            NodeProfile::paper_default(),
            ChainSpec::canonical_three(ChainId(0)),
            KnobSettings::default_tuned(),
            FlowSet::evaluation_five_flows(),
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::sample_blueprint;
    use super::*;

    fn sample() -> ClusterBlueprint {
        sample_blueprint(3, 7)
    }

    #[test]
    fn blueprint_build_matches_direct_construction() {
        // The blueprint replays the same construction the paper testbed
        // uses, so epochs must agree bit-exactly.
        let mut from_blueprint = sample().build().unwrap();
        let mut direct = Cluster::paper_testbed(PlatformPolicy::greennfv(), 7);
        for _ in 0..3 {
            assert_eq!(from_blueprint.run_epoch(), direct.run_epoch());
        }
    }

    #[test]
    fn slice_is_range_checked() {
        let bp = sample();
        assert_eq!(bp.slice(1, 3).unwrap().len(), 2);
        assert!(bp.slice(2, 1).is_err());
        assert!(bp.slice(0, 4).is_err());
    }

    #[test]
    fn blueprint_serde_roundtrips() {
        let bp = sample();
        let v = bp.to_value();
        let back = ClusterBlueprint::from_value(&v).unwrap();
        assert_eq!(back, bp);
    }
}
