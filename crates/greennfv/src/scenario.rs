//! The scenario subsystem: serializable workload descriptors plus the legacy
//! phase-based workload schedules.
//!
//! A [`Scenario`] is a first-class, serde-serializable description of a whole
//! experiment: a set of nodes, each with a hardware [`NodeProfile`]
//! (heterogeneous clusters), each hosting one or more [`TenantSpec`]s —
//! chains with their own [`TenantSla`], knobs, and traffic ([`TrafficSpec`]:
//! synthetic flows or trace replay). [`Scenario::build_cluster`] lowers the
//! descriptor into a [`Cluster`] and [`Scenario::run`] drives it through
//! lock-step epochs — every epoch evaluates all chains of all nodes as one
//! fused batch through the column-pass engine, exactly like any other
//! cluster workload.
//!
//! [`Scenario::registry`] names the canonical scenario set. Tests
//! (`tests/scenarios.rs`), benches (`perf_micro`'s `scenario_epoch` group),
//! and the CI scenario matrix all enumerate it, so adding a scenario in one
//! place propagates everywhere; `examples/scenario_sweep.rs` runs the whole
//! registry end-to-end.
//!
//! The second half of the module keeps the original dynamic-workload
//! machinery: a [`WorkloadSchedule`] is a list of phases that swap a single
//! chain's offered flows while a [`Controller`] adapts — the "changing
//! environmental conditions" experiment of the paper.

pub mod fuzz;

use nfv_sim::prelude::*;
use serde::{Deserialize, Serialize};

use crate::controller::{Controller, EpochTrace};
use crate::report::table;
use crate::sla::{tenant_reward_scaled, Sla, TenantSla};

/// The example diurnal trace checked in at `traces/diurnal.csv`: 24 hourly
/// segments following a day/night load curve.
const DIURNAL_CSV: &str = include_str!("../../../traces/diurnal.csv");

// ---------------------------------------------------------------------------
// Scenario descriptor
// ---------------------------------------------------------------------------

/// A tenant's offered traffic: synthetic flows or trace-driven replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// Seeded synthetic generation from a flow set.
    Flows(FlowSet),
    /// Deterministic replay of a recorded trace.
    Replay {
        /// The trace to replay (cyclically).
        trace: Trace,
        /// Relative std-dev of the seeded per-window rate jitter.
        jitter_frac: f64,
    },
}

impl TrafficSpec {
    /// Builds the runtime [`TrafficSource`] for this spec.
    pub fn build_source(&self, seed: u64) -> SimResult<TrafficSource> {
        match self {
            TrafficSpec::Flows(flows) => Ok(TrafficSource::synthetic(flows.clone(), seed)),
            TrafficSpec::Replay { trace, jitter_frac } => {
                TrafficSource::replay(trace.clone(), *jitter_frac, seed)
            }
        }
    }
}

/// One tenant: a service chain with its own agreement, knobs, and traffic,
/// sharing its node's cores and cache ways with co-resident tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name for reports.
    pub name: String,
    /// NF kinds of the tenant's chain, in processing order.
    pub nfs: Vec<NfKind>,
    /// The tenant's service agreement.
    pub sla: TenantSla,
    /// Knobs the tenant's chain runs under.
    pub knobs: KnobSettings,
    /// Offered traffic.
    pub traffic: TrafficSpec,
}

/// One node of a scenario: a hardware profile plus its resident tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Hardware profile (frequency range, LLC/DDIO ways, power curve).
    pub profile: NodeProfile,
    /// Tenants sharing this node.
    pub tenants: Vec<TenantSpec>,
}

/// A complete, serializable experiment descriptor.
///
/// Serialize with [`Scenario::to_json`] / rebuild with
/// [`Scenario::from_json`]; the serde round-trip is exact (the vendored
/// `serde_json` writes shortest-round-trip floats), so a deserialized
/// scenario reproduces the original epoch results bit-for-bit — pinned by a
/// proptest in `tests/proptests.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (registry key).
    pub name: String,
    /// Control epochs [`Scenario::run`] executes.
    pub epochs: u32,
    /// Master seed; per-tenant traffic seeds derive from it.
    pub seed: u64,
    /// Cluster-wide model tuning (shared so node batches fuse).
    pub tuning: SimTuning,
    /// Platform policy on every node.
    pub policy: PlatformPolicy,
    /// How [`Scenario::run`] evaluates each epoch's fused batch: `full`
    /// sweeps every lane through the kernel every epoch; `incremental`
    /// re-runs only lanes whose sampled load or knobs changed, reusing the
    /// previous epoch's cached outputs for clean lane groups. Bit-identical
    /// either way — this is purely a cost knob for low-churn workloads.
    /// Descriptors written before this field existed parse as `full`.
    #[serde(default)]
    pub evaluation: EvalMode,
    /// Worker processes to partition the cluster across: `0` or `1` runs
    /// fused in-process; `N > 1` routes [`Scenario::run`] through
    /// [`ShardedCluster`] with contiguous node slices — bit-identical
    /// results either way (pinned by `tests/shard_equivalence.rs`).
    /// Descriptors written before this field existed parse as `0`.
    #[serde(default)]
    pub shards: u32,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
}

impl Scenario {
    /// Structural validation: at least one node, at least one tenant per
    /// node, valid profiles, chains, and traffic parameters. Capacity checks
    /// (cores, CAT ways) happen in [`Scenario::build_cluster`] where the
    /// allocators exist.
    pub fn validate(&self) -> SimResult<()> {
        if self.epochs == 0 {
            return Err(SimError::NodeConfig("scenario has zero epochs".into()));
        }
        if self.nodes.is_empty() {
            return Err(SimError::NodeConfig("scenario has no nodes".into()));
        }
        for (ni, node) in self.nodes.iter().enumerate() {
            node.profile.validate()?;
            if node.tenants.is_empty() {
                return Err(SimError::NodeConfig(format!("node {ni} has no tenants")));
            }
            // Records and summaries are keyed by (node, tenant name);
            // duplicates would silently merge two tenants' statistics.
            let mut names = std::collections::HashSet::new();
            for (ti, tenant) in node.tenants.iter().enumerate() {
                if !names.insert(tenant.name.as_str()) {
                    return Err(SimError::NodeConfig(format!(
                        "node {ni}: duplicate tenant name `{}`",
                        tenant.name
                    )));
                }
                // Chain invariants (non-empty, length cap, no duplicate NF
                // kinds) through the one validator `ChainSpec::new` applies,
                // so descriptors and direct construction cannot drift.
                let chain_check = ChainSpec {
                    id: ChainId(ti as u32),
                    nfs: tenant.nfs.clone(),
                };
                chain_check.validate().map_err(|e| {
                    SimError::ChainConfig(format!("node {ni} tenant {ti} (`{}`): {e}", tenant.name))
                })?;
                if tenant.sla.weight <= 0.0 || !tenant.sla.weight.is_finite() {
                    return Err(SimError::NodeConfig(format!(
                        "node {ni} tenant `{}`: weight {} must be finite and > 0",
                        tenant.name, tenant.sla.weight
                    )));
                }
                // Deserialized descriptors bypass the FlowSet / Trace
                // constructors, so re-check their invariants here — a
                // scenario that validates must also run without panicking.
                match &tenant.traffic {
                    TrafficSpec::Flows(flows) => {
                        if flows.is_empty() {
                            return Err(SimError::NodeConfig(format!(
                                "node {ni} tenant `{}` offers no flows",
                                tenant.name
                            )));
                        }
                        for f in flows.flows() {
                            f.validate().map_err(|e| {
                                SimError::NodeConfig(format!(
                                    "node {ni} tenant `{}`: flow {}: {e}",
                                    tenant.name, f.id
                                ))
                            })?;
                        }
                    }
                    TrafficSpec::Replay { trace, jitter_frac } => {
                        trace.validate().map_err(|e| {
                            SimError::TraceConfig(format!(
                                "node {ni} tenant `{}`: {e}",
                                tenant.name
                            ))
                        })?;
                        if !jitter_frac.is_finite() || *jitter_frac < 0.0 {
                            return Err(SimError::TraceConfig(format!(
                                "node {ni} tenant `{}`: jitter_frac {jitter_frac} invalid",
                                tenant.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The traffic seed of tenant `tenant_idx` on node `node_idx`: a stable
    /// derivation from the master seed, so scenario runs are reproducible
    /// and per-tenant generators never alias.
    pub fn tenant_seed(&self, node_idx: usize, tenant_idx: usize) -> u64 {
        self.seed
            .wrapping_add(1 + node_idx as u64 * 1009)
            .wrapping_add(tenant_idx as u64 * 9176)
    }

    /// Lowers the descriptor into a runnable [`Cluster`]: one node per
    /// [`NodeSpec`], one chain per tenant (ids in tenant order), every knob
    /// admitted through the node's validated `set_knobs` path.
    pub fn build_cluster(&self) -> SimResult<Cluster> {
        self.validate()?;
        let mut cluster = Cluster::new();
        for (ni, spec) in self.nodes.iter().enumerate() {
            let mut node =
                Node::with_profile(ni as u32, self.tuning, self.policy, spec.profile.clone())?;
            for (ti, tenant) in spec.tenants.iter().enumerate() {
                let chain = ChainSpec::new(ChainId(ti as u32), tenant.nfs.clone())?;
                let source = tenant.traffic.build_source(self.tenant_seed(ni, ti))?;
                node.add_chain_with_source(chain, source, tenant.knobs)
                    .map_err(|e| {
                        SimError::NodeConfig(format!("node {ni} tenant `{}`: {e}", tenant.name))
                    })?;
            }
            cluster.add_node(node)?;
        }
        Ok(cluster)
    }

    /// Lowers the descriptor into a [`ClusterBlueprint`] — the serializable
    /// construction recipe shard workers rebuild their node slices from.
    /// Building the whole blueprint reproduces [`Scenario::build_cluster`]
    /// exactly: same profiles, same chain ids, same
    /// [`Scenario::tenant_seed`] derivation.
    pub fn to_blueprint(&self) -> SimResult<ClusterBlueprint> {
        self.validate()?;
        let mut blueprint = ClusterBlueprint::new(self.tuning, self.policy);
        for (ni, spec) in self.nodes.iter().enumerate() {
            let mut chains = Vec::with_capacity(spec.tenants.len());
            for (ti, tenant) in spec.tenants.iter().enumerate() {
                let seed = self.tenant_seed(ni, ti);
                chains.push(ChainBlueprint {
                    spec: ChainSpec::new(ChainId(ti as u32), tenant.nfs.clone())?,
                    knobs: tenant.knobs,
                    traffic: match &tenant.traffic {
                        TrafficSpec::Flows(flows) => TrafficBlueprint::Synthetic {
                            flows: flows.clone(),
                            seed,
                        },
                        TrafficSpec::Replay { trace, jitter_frac } => TrafficBlueprint::Replay {
                            trace: trace.clone(),
                            jitter_frac: *jitter_frac,
                            seed,
                        },
                    },
                });
            }
            blueprint.push_node(NodeBlueprint {
                id: ni as u32,
                profile: spec.profile.clone(),
                chains,
            });
        }
        Ok(blueprint)
    }

    /// Builds the multi-process [`ShardedCluster`] this scenario describes,
    /// partitioning across `max(shards, 1)` workers (the worker binary is
    /// resolved via [`WorkerCommand::resolve`]).
    pub fn build_sharded(&self) -> SimResult<ShardedCluster> {
        ShardedCluster::new(self.to_blueprint()?, self.shards.max(1))
    }

    /// Runs the scenario end-to-end: `epochs` lock-step cluster epochs
    /// through the fused epoch loop ([`Cluster::observe_epochs`]) under the
    /// scenario's [`EvalMode`] — `full` sweeps every lane each epoch,
    /// `incremental` keeps the staged batch alive across epochs and re-runs
    /// only dirty lane groups — scoring every tenant per epoch against its
    /// own agreement on its own attributed energy. Bit-identical to stepping
    /// [`Cluster::run_epoch`] per epoch in either mode.
    pub fn run(&self) -> SimResult<ScenarioRunResult> {
        if self.shards > 1 {
            return self.run_sharded();
        }
        let mut cluster = self.build_cluster()?;
        let mut records = Vec::new();
        let mut cluster_t = 0.0;
        let mut cluster_e = 0.0;
        // Each report is scored from the epoch loop's retained buffer as
        // its epoch aggregates, so memory stays O(1) in the horizon.
        cluster.observe_epochs(
            self.epochs as usize,
            PipelineMode::Auto,
            self.evaluation,
            |epoch, report| {
                self.score_epoch(epoch, report, &mut records, &mut cluster_t, &mut cluster_e);
            },
        );
        Ok(self.finish_run(records, cluster_t, cluster_e))
    }

    /// The multi-process leg of [`Scenario::run`]: identical scoring over
    /// the reports a [`ShardedCluster`] merges back from its workers.
    /// Because the merge is bit-equal to the fused path, the whole
    /// [`ScenarioRunResult`] is too.
    fn run_sharded(&self) -> SimResult<ScenarioRunResult> {
        let mut cluster = self.build_sharded()?;
        let reports = cluster.run_epochs_eval(self.epochs as usize, self.evaluation)?;
        let mut records = Vec::new();
        let mut cluster_t = 0.0;
        let mut cluster_e = 0.0;
        for (epoch, report) in reports.iter().enumerate() {
            self.score_epoch(epoch, report, &mut records, &mut cluster_t, &mut cluster_e);
        }
        Ok(self.finish_run(records, cluster_t, cluster_e))
    }

    /// Scores one epoch's report into tenant records — shared verbatim by
    /// the fused and sharded run paths so they cannot drift.
    fn score_epoch(
        &self,
        epoch: usize,
        report: &ClusterEpochReport,
        records: &mut Vec<TenantEpochRecord>,
        cluster_t: &mut f64,
        cluster_e: &mut f64,
    ) {
        *cluster_t += report.total_throughput_gbps();
        *cluster_e += report.total_energy_j();
        for (ni, node_report) in report.nodes.iter().enumerate() {
            let scale = self.nodes[ni].profile.power.pmax_w * self.tuning.epoch_s;
            for (ti, tel) in node_report.telemetry.iter().enumerate() {
                let tenant = &self.nodes[ni].tenants[ti];
                records.push(TenantEpochRecord {
                    epoch: epoch as u32,
                    node: ni as u32,
                    tenant: tenant.name.clone(),
                    throughput_gbps: tel.throughput_gbps,
                    energy_j: tel.energy_j,
                    loss_frac: tel.loss_frac,
                    reward: tenant_reward_scaled(
                        &tenant.sla,
                        tel.throughput_gbps,
                        tel.energy_j,
                        tel.loss_frac,
                        scale,
                    ),
                    satisfied: tenant.sla.satisfied(
                        tel.throughput_gbps,
                        tel.energy_j,
                        tel.loss_frac,
                    ),
                });
            }
        }
    }

    fn finish_run(
        &self,
        records: Vec<TenantEpochRecord>,
        cluster_t: f64,
        cluster_e: f64,
    ) -> ScenarioRunResult {
        let tenants = self.summarize(&records);
        let epochs_f = f64::from(self.epochs.max(1));
        let mean_t = cluster_t / epochs_f;
        let mean_e = cluster_e / epochs_f;
        ScenarioRunResult {
            name: self.name.clone(),
            epochs: self.epochs,
            tenants,
            records,
            mean_throughput_gbps: mean_t,
            mean_energy_j: mean_e,
            efficiency: if mean_e > 0.0 {
                mean_t / (mean_e / 1000.0)
            } else {
                0.0
            },
        }
    }

    fn summarize(&self, records: &[TenantEpochRecord]) -> Vec<TenantSummary> {
        let mut out = Vec::new();
        for (ni, node) in self.nodes.iter().enumerate() {
            for tenant in &node.tenants {
                let rows: Vec<&TenantEpochRecord> = records
                    .iter()
                    .filter(|r| r.node == ni as u32 && r.tenant == tenant.name)
                    .collect();
                let n = rows.len().max(1) as f64;
                out.push(TenantSummary {
                    node: ni as u32,
                    tenant: tenant.name.clone(),
                    sla: tenant.sla.sla.name().to_string(),
                    mean_throughput_gbps: rows.iter().map(|r| r.throughput_gbps).sum::<f64>() / n,
                    mean_energy_j: rows.iter().map(|r| r.energy_j).sum::<f64>() / n,
                    mean_loss_frac: rows.iter().map(|r| r.loss_frac).sum::<f64>() / n,
                    mean_reward: rows.iter().map(|r| r.reward).sum::<f64>() / n,
                    satisfaction_frac: rows.iter().filter(|r| r.satisfied).count() as f64 / n,
                });
            }
        }
        out
    }

    /// Serializes the descriptor to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario serialization is infallible")
    }

    /// Rebuilds a descriptor from [`Scenario::to_json`] output.
    pub fn from_json(text: &str) -> SimResult<Self> {
        serde_json::from_str(text).map_err(|e| SimError::NodeConfig(format!("scenario JSON: {e}")))
    }

    /// Content-addressed identity of this experiment: a [`ScenarioKey`]
    /// over the canonical JSON descriptor plus the horizon and seed. Two
    /// scenarios share a key iff their descriptors serialize to identical
    /// bytes — which, because the serde round-trip is exact, means their
    /// runs are bit-identical. This is the memo key the experiment-DAG
    /// driver ([`crate::dag`]) caches whole [`Scenario::run`] results
    /// under.
    pub fn key(&self) -> ScenarioKey {
        ScenarioKey::new(self.to_json().as_bytes(), self.epochs, self.seed)
    }

    // -- the named registry ------------------------------------------------

    /// Names of the canonical scenarios, in registry order. The CI scenario
    /// matrix, `tests/scenarios.rs`, and the `scenario_epoch` benches all
    /// enumerate this list (a test pins the CI workflow against it).
    pub const NAMES: [&'static str; 13] = [
        "baseline-homogeneous",
        "hetero-3-profile",
        "two-tenant-shared-node",
        "tenant-storm",
        "diurnal-trace",
        "diurnal-low-churn",
        "mixed-trace-hetero",
        "scale-out-edge",
        "flash-crowd-replay",
        "failover-blackout",
        "throttle-edge-storm",
        "fleet-diurnal-1000",
        "sharded-fleet",
    ];

    /// The canonical scenario set, one per [`Scenario::NAMES`] entry.
    pub fn registry() -> Vec<Scenario> {
        Scenario::NAMES
            .iter()
            .map(|n| Scenario::by_name(n).expect("registry names resolve"))
            .collect()
    }

    /// Builds one canonical scenario by its [`Scenario::NAMES`] entry.
    pub fn by_name(name: &str) -> Option<Scenario> {
        match name {
            "baseline-homogeneous" => Some(Self::baseline_homogeneous()),
            "hetero-3-profile" => Some(Self::hetero_3_profile()),
            "two-tenant-shared-node" => Some(Self::two_tenant_shared_node()),
            "tenant-storm" => Some(Self::tenant_storm()),
            "diurnal-trace" => Some(Self::diurnal_trace()),
            "diurnal-low-churn" => Some(Self::diurnal_low_churn()),
            "mixed-trace-hetero" => Some(Self::mixed_trace_hetero()),
            "scale-out-edge" => Some(Self::scale_out_edge()),
            "flash-crowd-replay" => Some(Self::flash_crowd_replay()),
            "failover-blackout" => Some(Self::failover_blackout()),
            "throttle-edge-storm" => Some(Self::throttle_edge_storm()),
            "fleet-diurnal-1000" => Some(Self::fleet_diurnal_1000()),
            "sharded-fleet" => Some(Self::sharded_fleet()),
            _ => None,
        }
    }

    /// The checked-in 24 h diurnal trace (`traces/diurnal.csv`).
    pub fn diurnal_trace_data() -> Trace {
        Trace::from_csv("diurnal-24h", DIURNAL_CSV).expect("checked-in trace parses")
    }

    /// The paper's evaluation setup as a scenario: three identical nodes,
    /// one canonical chain each under the five-flow workload, EE goal.
    pub fn baseline_homogeneous() -> Scenario {
        let tenant = |name: &str| TenantSpec {
            name: name.into(),
            nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
            sla: TenantSla::new(Sla::EnergyEfficiency),
            knobs: KnobSettings::default_tuned(),
            traffic: TrafficSpec::Flows(FlowSet::evaluation_five_flows()),
        };
        Scenario {
            name: "baseline-homogeneous".into(),
            epochs: 8,
            seed: 42,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: (0..3)
                .map(|i| NodeSpec {
                    profile: NodeProfile::paper_default(),
                    tenants: vec![tenant(&format!("t{i}"))],
                })
                .collect(),
        }
    }

    /// Three different server classes side by side: the paper node, an
    /// edge-class low-power box, and a high-performance node, each under a
    /// chain and agreement matched to its role.
    pub fn hetero_3_profile() -> Scenario {
        let mut edge_knobs = KnobSettings::default_tuned();
        edge_knobs.freq_ghz = 1.5;
        let mut hot_knobs = KnobSettings::default_tuned();
        hot_knobs.freq_ghz = 2.1;
        hot_knobs.cpu = CpuAllocation {
            cores: 4,
            share: 1.0,
        };
        Scenario {
            name: "hetero-3-profile".into(),
            epochs: 8,
            seed: 43,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![
                NodeSpec {
                    profile: NodeProfile::paper_default(),
                    tenants: vec![TenantSpec {
                        name: "core".into(),
                        nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::paper_max_throughput()),
                        knobs: KnobSettings::default_tuned(),
                        traffic: TrafficSpec::Flows(FlowSet::evaluation_five_flows()),
                    }],
                },
                NodeSpec {
                    profile: NodeProfile::edge_low_power(),
                    tenants: vec![TenantSpec {
                        name: "edge".into(),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::MinEnergy {
                            throughput_floor_gbps: 1.0,
                        }),
                        knobs: edge_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![FlowSpec::poisson(0, 8.0e5, 512)])
                                .expect("static flows are valid"),
                        ),
                    }],
                },
                NodeSpec {
                    profile: NodeProfile::high_perf(),
                    tenants: vec![TenantSpec {
                        name: "heavy".into(),
                        nfs: ChainSpec::heavyweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency),
                        knobs: hot_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![
                                FlowSpec::cbr(0, 6.0e5, 1024),
                                FlowSpec::poisson(1, 1.2e6, 512),
                            ])
                            .expect("static flows are valid"),
                        ),
                    }],
                },
            ],
        }
    }

    /// Two tenants with conflicting agreements sharing one node's cores and
    /// cache ways: a throughput-hungry bulk tenant next to a loss-sensitive
    /// interactive one.
    pub fn two_tenant_shared_node() -> Scenario {
        let mut bulk_knobs = KnobSettings::default_tuned();
        bulk_knobs.cpu = CpuAllocation {
            cores: 4,
            share: 1.0,
        };
        bulk_knobs.llc_fraction = 0.5;
        bulk_knobs.batch = 128;
        let mut interactive_knobs = KnobSettings::default_tuned();
        interactive_knobs.cpu = CpuAllocation {
            cores: 2,
            share: 1.0,
        };
        interactive_knobs.llc_fraction = 0.3;
        interactive_knobs.batch = 16;
        Scenario {
            name: "two-tenant-shared-node".into(),
            epochs: 8,
            seed: 44,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![
                    TenantSpec {
                        name: "bulk".into(),
                        nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::paper_max_throughput()),
                        knobs: bulk_knobs,
                        traffic: TrafficSpec::Flows(FlowSet::evaluation_five_flows()),
                    },
                    TenantSpec {
                        name: "interactive".into(),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency)
                            .with_loss_cap(0.05)
                            .with_weight(2.0),
                        knobs: interactive_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![
                                FlowSpec::poisson(0, 4.0e5, 256),
                                FlowSpec::cbr(1, 2.0e5, 128),
                            ])
                            .expect("static flows are valid"),
                        ),
                    },
                ],
            }],
        }
    }

    /// Four bursty tenants storming one node: on/off flows with loss caps
    /// under tight way partitioning — the adversarial multi-tenant case.
    pub fn tenant_storm() -> Scenario {
        let bursty = |rate: f64, size: u32| {
            TrafficSpec::Flows(
                FlowSet::new(vec![FlowSpec {
                    id: 0,
                    rate_pps: rate,
                    packet_size: size,
                    pattern: ArrivalPattern::MarkovOnOff {
                        peak_factor: 3.0,
                        on_fraction: 0.4,
                    },
                }])
                .expect("static flows are valid"),
            )
        };
        let knobs = |cores: u32, llc: f64| KnobSettings {
            cpu: CpuAllocation { cores, share: 1.0 },
            llc_fraction: llc,
            ..KnobSettings::default_tuned()
        };
        let tenant = |name: &str, rate: f64, size: u32, cores: u32, llc: f64| TenantSpec {
            name: name.into(),
            nfs: ChainSpec::lightweight(ChainId(0)).nfs,
            sla: TenantSla::new(Sla::EnergyEfficiency).with_loss_cap(0.10),
            knobs: knobs(cores, llc),
            traffic: bursty(rate, size),
        };
        Scenario {
            name: "tenant-storm".into(),
            epochs: 10,
            seed: 45,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![
                    tenant("storm-a", 2.0e6, 256, 4, 0.25),
                    tenant("storm-b", 1.5e6, 512, 4, 0.25),
                    tenant("storm-c", 1.0e6, 128, 3, 0.2),
                    tenant("storm-d", 8.0e5, 1024, 3, 0.2),
                ],
            }],
        }
    }

    /// Long-horizon trace replay: one node replaying the checked-in 24 h
    /// diurnal trace at half-hour control epochs (48 epochs = one day).
    pub fn diurnal_trace() -> Scenario {
        let tuning = SimTuning {
            epoch_s: 1800.0,
            ..SimTuning::default()
        };
        Scenario {
            name: "diurnal-trace".into(),
            epochs: 48,
            seed: 46,
            tuning,
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![TenantSpec {
                    name: "diurnal".into(),
                    nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
                    sla: TenantSla::new(Sla::EnergyEfficiency),
                    knobs: KnobSettings::default_tuned(),
                    traffic: TrafficSpec::Replay {
                        trace: Self::diurnal_trace_data(),
                        jitter_frac: 0.05,
                    },
                }],
            }],
        }
    }

    /// The incremental-evaluation showcase: sixty-four nodes of three
    /// tenants each (192 fused lanes), where only node 0's three tenants
    /// replay the jittered diurnal trace — every other tenant sits on a
    /// zero-jitter flat plateau trace whose sampled load never moves. Under
    /// 2% of the lanes change per epoch, and the changing lanes are adjacent
    /// (lanes 0–2, all inside the first 8-lane dirty group), so
    /// `incremental` evaluation re-runs one group out of twenty-four and
    /// scatter-copies the rest from cache — the long-plateau regime the
    /// dirty tracking is for.
    pub fn diurnal_low_churn() -> Scenario {
        let tuning = SimTuning {
            epoch_s: 1800.0,
            ..SimTuning::default()
        };
        let knobs = KnobSettings {
            cpu: CpuAllocation {
                cores: 2,
                share: 1.0,
            },
            llc_fraction: 0.25,
            ..KnobSettings::default_tuned()
        };
        // A one-point trace replayed cyclically with zero jitter: the
        // sampled load is bitwise identical every window, so the lane
        // reports `Unchanged` from the second epoch on.
        let plateau = |rate_pps: f64, packet_size: u32| TrafficSpec::Replay {
            trace: Trace::new(
                "plateau",
                vec![TracePoint {
                    duration_s: 3600.0,
                    rate_pps,
                    packet_size,
                    burstiness: 1.2,
                }],
            )
            .expect("static trace is valid"),
            jitter_frac: 0.0,
        };
        let nodes = (0..64)
            .map(|ni| NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: (0..3)
                    .map(|ti| TenantSpec {
                        name: format!("n{ni}-t{ti}"),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency),
                        knobs,
                        traffic: if ni == 0 {
                            // The churn: jittered diurnal replay moves
                            // every window.
                            TrafficSpec::Replay {
                                trace: Self::diurnal_trace_data(),
                                jitter_frac: 0.05,
                            }
                        } else {
                            plateau(
                                1.5e5 + ni as f64 * 1.7e4 + ti as f64 * 4.3e4,
                                [256, 512, 1024][ti],
                            )
                        },
                    })
                    .collect(),
            })
            .collect();
        Scenario {
            name: "diurnal-low-churn".into(),
            epochs: 12,
            seed: 49,
            tuning,
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Incremental,
            nodes,
        }
    }

    /// A scale-out edge front end built from the newer NF kinds: an
    /// edge-class node running load balancer → dedup → NAT next to a
    /// monitor-only colo tenant, both under loss-capped agreements — chain
    /// diversity beyond the paper's canonical three chains.
    pub fn scale_out_edge() -> Scenario {
        let mut frontend_knobs = KnobSettings::default_tuned();
        frontend_knobs.freq_ghz = 1.6;
        frontend_knobs.llc_fraction = 0.5;
        frontend_knobs.batch = 64;
        let mut colo_knobs = KnobSettings::default_tuned();
        colo_knobs.freq_ghz = 1.6;
        colo_knobs.llc_fraction = 0.2;
        Scenario {
            name: "scale-out-edge".into(),
            epochs: 8,
            seed: 48,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![NodeSpec {
                profile: NodeProfile::edge_low_power(),
                tenants: vec![
                    TenantSpec {
                        name: "frontend".into(),
                        nfs: ChainSpec::scale_out(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency).with_loss_cap(0.15),
                        knobs: frontend_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![
                                FlowSpec::poisson(0, 9.0e5, 512),
                                FlowSpec::cbr(1, 3.0e5, 256),
                            ])
                            .expect("static flows are valid"),
                        ),
                    },
                    TenantSpec {
                        name: "colo-monitor".into(),
                        nfs: vec![NfKind::Monitor],
                        sla: TenantSla::new(Sla::MinEnergy {
                            throughput_floor_gbps: 0.2,
                        })
                        .with_weight(0.5),
                        knobs: colo_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![FlowSpec::poisson(0, 2.0e5, 512)])
                                .expect("static flows are valid"),
                        ),
                    },
                ],
            }],
        }
    }

    /// Everything at once: a heterogeneous cluster mixing trace replay and
    /// synthetic tenants under distinct agreements — the widest workload the
    /// registry exercises.
    pub fn mixed_trace_hetero() -> Scenario {
        let tuning = SimTuning {
            epoch_s: 1800.0,
            ..SimTuning::default()
        };
        let mut edge_knobs = KnobSettings::default_tuned();
        edge_knobs.freq_ghz = 1.4;
        edge_knobs.llc_fraction = 0.6;
        let mut colo_knobs = KnobSettings::default_tuned();
        colo_knobs.llc_fraction = 0.3;
        Scenario {
            name: "mixed-trace-hetero".into(),
            epochs: 16,
            seed: 47,
            tuning,
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![
                NodeSpec {
                    profile: NodeProfile::paper_default(),
                    tenants: vec![
                        TenantSpec {
                            name: "replay".into(),
                            nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
                            sla: TenantSla::new(Sla::EnergyEfficiency),
                            knobs: KnobSettings::default_tuned(),
                            traffic: TrafficSpec::Replay {
                                trace: Self::diurnal_trace_data(),
                                jitter_frac: 0.1,
                            },
                        },
                        TenantSpec {
                            name: "colo".into(),
                            nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                            sla: TenantSla::new(Sla::MinEnergy {
                                throughput_floor_gbps: 2.0,
                            })
                            .with_loss_cap(0.2),
                            knobs: colo_knobs,
                            traffic: TrafficSpec::Flows(
                                FlowSet::new(vec![FlowSpec::poisson(0, 6.0e5, 512)])
                                    .expect("static flows are valid"),
                            ),
                        },
                    ],
                },
                NodeSpec {
                    profile: NodeProfile::edge_low_power(),
                    tenants: vec![TenantSpec {
                        name: "edge".into(),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::MinEnergy {
                            throughput_floor_gbps: 0.5,
                        }),
                        knobs: edge_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![FlowSpec::cbr(0, 4.0e5, 512)])
                                .expect("static flows are valid"),
                        ),
                    }],
                },
                NodeSpec {
                    profile: NodeProfile::high_perf(),
                    tenants: vec![TenantSpec {
                        name: "heavy".into(),
                        nfs: ChainSpec::heavyweight(ChainId(0)).nfs,
                        // The paper's 2000 J cap assumes 30 s epochs; scale
                        // it to this scenario's half-hour epochs (×60).
                        sla: TenantSla::new(Sla::MaxThroughput {
                            energy_cap_j: 200_000.0,
                        }),
                        knobs: KnobSettings {
                            cpu: CpuAllocation {
                                cores: 4,
                                share: 1.0,
                            },
                            freq_ghz: 2.0,
                            ..KnobSettings::default_tuned()
                        },
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![
                                FlowSpec::cbr(0, 4.0e5, 1518),
                                FlowSpec::poisson(1, 1.0e6, 512),
                            ])
                            .expect("static flows are valid"),
                        ),
                    }],
                },
            ],
        }
    }
    // -- scenarios promoted from the fuzz corpus ---------------------------
    //
    // The four constructors below started life as `scenario::fuzz` corpus
    // members and were snapshotted by hand into explicit builders: a
    // promoted scenario must never shift when the generator's draw order
    // changes, so the registry pins the exact descriptor, not the seed.

    /// Promoted from the fuzz corpus (shape `flash-crowd`): one paper node
    /// whose main tenant replays a steady → 5× spike → recovery trace with
    /// mild jitter, next to a synthetic colo tenant. The spike occupies the
    /// middle fifth of the horizon, so it lands inside a run, not at its
    /// edges.
    pub fn flash_crowd_replay() -> Scenario {
        let epochs = 12u32;
        let epoch_s = 30.0;
        let horizon = f64::from(epochs) * epoch_s;
        let segment = |frac: f64, rate_pps: f64| TracePoint {
            duration_s: frac * horizon,
            rate_pps,
            packet_size: 512,
            burstiness: 1.6,
        };
        let mut crowd_knobs = KnobSettings::default_tuned();
        crowd_knobs.cpu = CpuAllocation {
            cores: 3,
            share: 1.0,
        };
        crowd_knobs.llc_fraction = 0.5;
        crowd_knobs.batch = 64;
        let mut colo_knobs = KnobSettings::default_tuned();
        colo_knobs.llc_fraction = 0.2;
        Scenario {
            name: "flash-crowd-replay".into(),
            epochs,
            seed: 50,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![
                    TenantSpec {
                        name: "crowd".into(),
                        nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency).with_loss_cap(0.2),
                        knobs: crowd_knobs,
                        traffic: TrafficSpec::Replay {
                            trace: Trace::new(
                                "flash",
                                vec![
                                    segment(0.4, 5.0e5),
                                    segment(0.2, 2.5e6),
                                    segment(0.4, 5.0e5),
                                ],
                            )
                            .expect("static trace is valid"),
                            jitter_frac: 0.05,
                        },
                    },
                    TenantSpec {
                        name: "colo".into(),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::MinEnergy {
                            throughput_floor_gbps: 0.2,
                        })
                        .with_weight(0.5),
                        knobs: colo_knobs,
                        traffic: TrafficSpec::Flows(
                            FlowSet::new(vec![FlowSpec::poisson(0, 3.0e5, 512)])
                                .expect("static flows are valid"),
                        ),
                    },
                ],
            }],
        }
    }

    /// Promoted from the fuzz corpus (shape `node-failure`): three paper
    /// nodes replaying the same service trace; node 1 blacks out over the
    /// middle fifth of the horizon (its rate collapses to a trickle) while
    /// the two survivors absorb a 1.5× failover surge over the same window.
    pub fn failover_blackout() -> Scenario {
        let epochs = 10u32;
        let epoch_s = 30.0;
        let horizon = f64::from(epochs) * epoch_s;
        let service = |name: &str, mid_rate: f64| {
            Trace::new(
                name,
                vec![
                    TracePoint {
                        duration_s: 0.4 * horizon,
                        rate_pps: 8.0e5,
                        packet_size: 512,
                        burstiness: 1.4,
                    },
                    TracePoint {
                        duration_s: 0.2 * horizon,
                        rate_pps: mid_rate,
                        packet_size: 512,
                        burstiness: 1.4,
                    },
                    TracePoint {
                        duration_s: 0.4 * horizon,
                        rate_pps: 8.0e5,
                        packet_size: 512,
                        burstiness: 1.4,
                    },
                ],
            )
            .expect("static trace is valid")
        };
        let nodes = (0..3)
            .map(|ni| NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![TenantSpec {
                    name: format!("svc-{ni}"),
                    nfs: ChainSpec::canonical_three(ChainId(0)).nfs,
                    sla: TenantSla::new(Sla::EnergyEfficiency),
                    knobs: KnobSettings::default_tuned(),
                    traffic: TrafficSpec::Replay {
                        trace: if ni == 1 {
                            service("blackout", 8.0e2)
                        } else {
                            service("failover", 1.2e6)
                        },
                        jitter_frac: 0.0,
                    },
                }],
            })
            .collect();
        Scenario {
            name: "failover-blackout".into(),
            epochs,
            seed: 51,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes,
        }
    }

    /// Promoted from the fuzz corpus (shapes `dvfs-throttle` × `tenant-storm`
    /// combined): an edge-class node pinned at its minimum frequency (thermal
    /// capping) while three bursty on/off tenants storm it under loss caps —
    /// the least headroom the corpus found.
    pub fn throttle_edge_storm() -> Scenario {
        let profile = NodeProfile::edge_low_power();
        let bursty = |rate: f64, size: u32, peak: f64| {
            TrafficSpec::Flows(
                FlowSet::new(vec![FlowSpec {
                    id: 0,
                    rate_pps: rate,
                    packet_size: size,
                    pattern: ArrivalPattern::MarkovOnOff {
                        peak_factor: peak,
                        on_fraction: 0.35,
                    },
                }])
                .expect("static flows are valid"),
            )
        };
        let knobs = |cores: u32, llc: f64, batch: u32| KnobSettings {
            cpu: CpuAllocation { cores, share: 1.0 },
            // The throttle: pinned to the bottom DVFS rung of the edge
            // profile regardless of load.
            freq_ghz: profile.freq_min_ghz,
            llc_fraction: llc,
            batch,
            ..KnobSettings::default_tuned()
        };
        Scenario {
            name: "throttle-edge-storm".into(),
            epochs: 10,
            seed: 52,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Full,
            nodes: vec![NodeSpec {
                profile: profile.clone(),
                tenants: vec![
                    TenantSpec {
                        name: "storm-a".into(),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency).with_loss_cap(0.15),
                        knobs: knobs(3, 0.3, 64),
                        traffic: bursty(1.8e6, 256, 3.0),
                    },
                    TenantSpec {
                        name: "storm-b".into(),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency).with_loss_cap(0.15),
                        knobs: knobs(2, 0.25, 32),
                        traffic: bursty(1.2e6, 512, 2.5),
                    },
                    TenantSpec {
                        name: "storm-c".into(),
                        nfs: vec![NfKind::Monitor, NfKind::LoadBalancer],
                        sla: TenantSla::new(Sla::EnergyEfficiency).with_loss_cap(0.1),
                        knobs: knobs(2, 0.2, 16),
                        traffic: bursty(9.0e5, 128, 2.0),
                    },
                ],
            }],
        }
    }

    /// Promoted from the fuzz corpus (shape `diurnal-fleet`, scaled to the
    /// issue's thousand-node target): a 1000-node fleet where node 0 replays
    /// the jittered diurnal trace and all 999 others sit on zero-jitter
    /// plateau replays — 0.1% lane churn per steady epoch, the largest
    /// incremental-evaluation workload in the registry.
    pub fn fleet_diurnal_1000() -> Scenario {
        let tuning = SimTuning {
            epoch_s: 1800.0,
            ..SimTuning::default()
        };
        let knobs = KnobSettings {
            cpu: CpuAllocation {
                cores: 2,
                share: 1.0,
            },
            llc_fraction: 0.4,
            ..KnobSettings::default_tuned()
        };
        let nodes = (0..1000)
            .map(|ni| NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![TenantSpec {
                    name: format!("fleet-{ni}"),
                    nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                    sla: TenantSla::new(Sla::EnergyEfficiency),
                    knobs,
                    traffic: if ni == 0 {
                        TrafficSpec::Replay {
                            trace: Self::diurnal_trace_data(),
                            jitter_frac: 0.05,
                        }
                    } else {
                        TrafficSpec::Replay {
                            trace: Trace::new(
                                "plateau",
                                vec![TracePoint {
                                    duration_s: 3600.0,
                                    rate_pps: 1.0e5 + ni as f64 * 1.1e3,
                                    packet_size: [256, 512, 1024][ni % 3],
                                    burstiness: 1.3,
                                }],
                            )
                            .expect("static trace is valid"),
                            jitter_frac: 0.0,
                        }
                    },
                }],
            })
            .collect();
        Scenario {
            name: "fleet-diurnal-1000".into(),
            epochs: 6,
            seed: 53,
            tuning,
            policy: PlatformPolicy::greennfv(),
            shards: 0,
            evaluation: EvalMode::Incremental,
            nodes,
        }
    }

    /// The multi-process showcase: six nodes alternating paper-class and
    /// edge-class profiles, synthetic and replay traffic, partitioned
    /// across two worker processes (`shards: 2`). [`Scenario::run`] spawns
    /// the workers and merges their epoch streams — bit-identical to
    /// running the same descriptor with `shards: 0`, which is exactly what
    /// `tests/shard_equivalence.rs` pins.
    pub fn sharded_fleet() -> Scenario {
        let mut knobs = KnobSettings::default_tuned();
        knobs.freq_ghz = 1.6; // inside the edge profile's capped ladder
        let nodes = (0..6)
            .map(|ni| NodeSpec {
                profile: if ni % 2 == 0 {
                    NodeProfile::paper_default()
                } else {
                    NodeProfile::edge_low_power()
                },
                tenants: vec![TenantSpec {
                    name: format!("shard-t{ni}"),
                    nfs: if ni % 2 == 0 {
                        ChainSpec::canonical_three(ChainId(0)).nfs
                    } else {
                        ChainSpec::lightweight(ChainId(0)).nfs
                    },
                    sla: TenantSla::new(Sla::EnergyEfficiency),
                    knobs,
                    traffic: if ni % 3 == 0 {
                        TrafficSpec::Replay {
                            trace: Trace::new(
                                "shard-plateau",
                                vec![TracePoint {
                                    duration_s: 3600.0,
                                    rate_pps: 9.0e5 + ni as f64 * 5.0e4,
                                    packet_size: 512,
                                    burstiness: 1.4,
                                }],
                            )
                            .expect("static trace is valid"),
                            jitter_frac: 0.08,
                        }
                    } else {
                        TrafficSpec::Flows(FlowSet::evaluation_five_flows())
                    },
                }],
            })
            .collect();
        Scenario {
            name: "sharded-fleet".into(),
            epochs: 6,
            seed: 54,
            tuning: SimTuning::default(),
            policy: PlatformPolicy::greennfv(),
            shards: 2,
            evaluation: EvalMode::Full,
            nodes,
        }
    }
}

/// One tenant's outcome in one scenario epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantEpochRecord {
    /// Epoch index.
    pub epoch: u32,
    /// Node index in the scenario.
    pub node: u32,
    /// Tenant name.
    pub tenant: String,
    /// Delivered throughput, Gbps.
    pub throughput_gbps: f64,
    /// Attributed tenant energy, joules.
    pub energy_j: f64,
    /// Fraction of offered packets lost.
    pub loss_frac: f64,
    /// Reward under the tenant's agreement.
    pub reward: f64,
    /// Whether the epoch satisfied the whole agreement.
    pub satisfied: bool,
}

/// Per-tenant aggregate over a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    /// Node index in the scenario.
    pub node: u32,
    /// Tenant name.
    pub tenant: String,
    /// Short name of the tenant's goal.
    pub sla: String,
    /// Mean delivered throughput, Gbps.
    pub mean_throughput_gbps: f64,
    /// Mean attributed energy per epoch, joules.
    pub mean_energy_j: f64,
    /// Mean loss fraction.
    pub mean_loss_frac: f64,
    /// Mean reward under the tenant's agreement.
    pub mean_reward: f64,
    /// Fraction of epochs satisfying the whole agreement.
    pub satisfaction_frac: f64,
}

/// Result of [`Scenario::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRunResult {
    /// Scenario name.
    pub name: String,
    /// Epochs executed.
    pub epochs: u32,
    /// Per-tenant aggregates, in (node, tenant) order.
    pub tenants: Vec<TenantSummary>,
    /// Full per-epoch per-tenant trace.
    pub records: Vec<TenantEpochRecord>,
    /// Mean cluster throughput per epoch, Gbps.
    pub mean_throughput_gbps: f64,
    /// Mean cluster energy per epoch, joules.
    pub mean_energy_j: f64,
    /// Cluster energy efficiency, Gbps per kJ.
    pub efficiency: f64,
}

impl ScenarioRunResult {
    /// A tenant's summary by node index and name.
    pub fn tenant(&self, node: u32, name: &str) -> Option<&TenantSummary> {
        self.tenants
            .iter()
            .find(|t| t.node == node && t.tenant == name)
    }

    /// Renders the per-tenant summary table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .tenants
            .iter()
            .map(|t| {
                vec![
                    format!("{}", t.node),
                    t.tenant.clone(),
                    t.sla.clone(),
                    format!("{:.2}", t.mean_throughput_gbps),
                    format!("{:.0}", t.mean_energy_j),
                    format!("{:.3}", t.mean_loss_frac),
                    format!("{:.0}", t.satisfaction_frac * 100.0),
                    format!("{:.2}", t.mean_reward),
                ]
            })
            .collect();
        table(
            &[
                "Node", "Tenant", "SLA", "T (Gbps)", "E (J)", "Loss", "Sat (%)", "Reward",
            ],
            &rows,
        )
    }
}

// ---------------------------------------------------------------------------
// Legacy phase-based workload schedules
// ---------------------------------------------------------------------------

/// One phase of a dynamic workload schedule.
#[derive(Debug, Clone)]
pub struct WorkloadPhase {
    /// Label for reports.
    pub label: &'static str,
    /// Flows offered during this phase.
    pub flows: FlowSet,
    /// Number of control epochs the phase lasts.
    pub epochs: u32,
}

/// A named schedule of workload phases driven against one controller (the
/// paper's "changing environmental conditions" experiment). For full
/// multi-node / multi-tenant / trace-driven descriptors see [`Scenario`].
#[derive(Debug, Clone)]
pub struct WorkloadSchedule {
    /// Schedule name.
    pub name: &'static str,
    /// Phases in order.
    pub phases: Vec<WorkloadPhase>,
}

impl WorkloadSchedule {
    /// Diurnal pattern: night trickle → morning ramp → peak → evening decay.
    pub fn diurnal() -> Self {
        let mk = |pps: f64| FlowSet::new(vec![FlowSpec::poisson(0, pps, 512)]).expect("valid");
        WorkloadSchedule {
            name: "diurnal",
            phases: vec![
                WorkloadPhase {
                    label: "night",
                    flows: mk(2.0e5),
                    epochs: 6,
                },
                WorkloadPhase {
                    label: "morning",
                    flows: mk(1.2e6),
                    epochs: 6,
                },
                WorkloadPhase {
                    label: "peak",
                    flows: mk(2.4e6),
                    epochs: 6,
                },
                WorkloadPhase {
                    label: "evening",
                    flows: mk(8.0e5),
                    epochs: 6,
                },
            ],
        }
    }

    /// Flash crowd: steady load with a sudden 4× bursty spike, then recovery.
    pub fn flash_crowd() -> Self {
        let steady = FlowSet::new(vec![FlowSpec::cbr(0, 6.0e5, 512)]).expect("valid");
        let spike = FlowSet::new(vec![FlowSpec {
            id: 0,
            rate_pps: 2.4e6,
            packet_size: 512,
            pattern: ArrivalPattern::MarkovOnOff {
                peak_factor: 2.0,
                on_fraction: 0.5,
            },
        }])
        .expect("valid");
        WorkloadSchedule {
            name: "flash-crowd",
            phases: vec![
                WorkloadPhase {
                    label: "steady",
                    flows: steady.clone(),
                    epochs: 8,
                },
                WorkloadPhase {
                    label: "spike",
                    flows: spike,
                    epochs: 6,
                },
                WorkloadPhase {
                    label: "recovery",
                    flows: steady,
                    epochs: 8,
                },
            ],
        }
    }

    /// Packet-size shift: the same bit rate delivered first in large then in
    /// tiny packets (a 10× pps increase at constant Gbps).
    pub fn packet_size_shift() -> Self {
        WorkloadSchedule {
            name: "packet-size-shift",
            phases: vec![
                WorkloadPhase {
                    label: "large-packets",
                    flows: FlowSet::new(vec![FlowSpec::cbr(0, 4.0e5, 1280)]).expect("valid"),
                    epochs: 8,
                },
                WorkloadPhase {
                    label: "small-packets",
                    flows: FlowSet::new(vec![FlowSpec::cbr(0, 4.0e6, 128)]).expect("valid"),
                    epochs: 8,
                },
            ],
        }
    }

    /// Total epochs across all phases.
    pub fn total_epochs(&self) -> u32 {
        self.phases.iter().map(|p| p.epochs).sum()
    }
}

/// Per-phase summary of a dynamic run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase label.
    pub label: String,
    /// Mean delivered throughput (Gbps).
    pub mean_throughput_gbps: f64,
    /// Mean offered load (Gbps) during the phase.
    pub offered_gbps: f64,
    /// Mean epoch energy (J).
    pub mean_energy_j: f64,
    /// Mean efficiency (Gbps/kJ).
    pub efficiency: f64,
}

/// Result of driving a controller through a workload schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleResult {
    /// Controller name.
    pub controller: String,
    /// Per-phase summaries, in order.
    pub phases: Vec<PhaseSummary>,
    /// Full epoch trace.
    pub trace: Vec<EpochTrace>,
}

impl ScheduleResult {
    /// Mean energy across the whole schedule.
    pub fn mean_energy_j(&self) -> f64 {
        if self.trace.is_empty() {
            return 0.0;
        }
        self.trace.iter().map(|t| t.energy_j).sum::<f64>() / self.trace.len() as f64
    }

    /// Phase summary by label.
    pub fn phase(&self, label: &str) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.label == label)
    }
}

/// Drives `ctrl` through `schedule`, swapping the offered flows at each
/// phase boundary (the controller keeps its state — that's the adaptation
/// being tested).
pub fn run_schedule(
    ctrl: &mut dyn Controller,
    schedule: &WorkloadSchedule,
    tuning: SimTuning,
    power: PowerModel,
    seed: u64,
) -> ScheduleResult {
    let first = &schedule.phases[0];
    let mut node = Node::new(0, tuning, power, ctrl.platform());
    let mut knobs = ctrl.initial_knobs(&first.flows);
    node.add_chain(
        ChainSpec::canonical_three(ChainId(0)),
        first.flows.clone(),
        knobs,
        seed,
    )
    .expect("initial knobs fit");
    let mut trace = Vec::with_capacity(schedule.total_epochs() as usize);
    let mut phases = Vec::with_capacity(schedule.phases.len());
    for (pi, phase) in schedule.phases.iter().enumerate() {
        if pi > 0 {
            node.set_flows(
                ChainId(0),
                phase.flows.clone(),
                seed.wrapping_add(pi as u64),
            )
            .expect("chain exists");
        }
        let start = trace.len();
        for _ in 0..phase.epochs {
            let report = node.run_epoch();
            let t = report.telemetry[0];
            trace.push(EpochTrace {
                throughput_gbps: t.throughput_gbps,
                energy_j: report.node.energy_j,
                cpu_util: t.cpu_util,
                knobs,
            });
            let next = ctrl.decide(&t, &knobs);
            if node.set_knobs(ChainId(0), next).is_ok() {
                knobs = next;
            }
        }
        let slice = &trace[start..];
        let n = slice.len().max(1) as f64;
        let mean_t = slice.iter().map(|e| e.throughput_gbps).sum::<f64>() / n;
        let mean_e = slice.iter().map(|e| e.energy_j).sum::<f64>() / n;
        phases.push(PhaseSummary {
            label: phase.label.to_string(),
            mean_throughput_gbps: mean_t,
            offered_gbps: phase.flows.total_offered_gbps(),
            mean_energy_j: mean_e,
            efficiency: if mean_e > 0.0 {
                mean_t / (mean_e / 1000.0)
            } else {
                0.0
            },
        });
    }
    ScheduleResult {
        controller: ctrl.name().to_string(),
        phases,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineController;
    use crate::eepstate::EePstateController;

    #[test]
    fn registry_resolves_every_name() {
        let reg = Scenario::registry();
        assert_eq!(reg.len(), Scenario::NAMES.len());
        for (sc, name) in reg.iter().zip(Scenario::NAMES) {
            assert_eq!(sc.name, name);
            sc.validate().expect("registry scenarios validate");
        }
        assert!(Scenario::by_name("no-such-scenario").is_none());
    }

    #[test]
    fn registry_scenarios_build_and_run() {
        for mut sc in Scenario::registry() {
            // The sharded showcase needs the worker binary built by the
            // umbrella crate; run it fused here so `cargo test -p greennfv`
            // stays self-contained. The results are bit-identical, and the
            // real multi-process path is pinned by
            // `tests/shard_equivalence.rs`.
            sc.shards = 0;
            let r = sc.run().expect("registry scenarios run");
            assert_eq!(r.epochs, sc.epochs);
            let tenants: usize = sc.nodes.iter().map(|n| n.tenants.len()).sum();
            assert_eq!(r.records.len(), tenants * sc.epochs as usize, "{}", sc.name);
            assert_eq!(r.tenants.len(), tenants);
            assert!(r.mean_throughput_gbps > 0.0, "{}", sc.name);
            assert!(r.mean_energy_j > 0.0, "{}", sc.name);
            assert!(r.efficiency > 0.0, "{}", sc.name);
            assert!(r.render().contains(&r.tenants[0].tenant));
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let sc = Scenario::two_tenant_shared_node();
        assert_eq!(sc.run().unwrap(), sc.run().unwrap());
    }

    #[test]
    fn validation_catches_structural_errors() {
        let mut sc = Scenario::baseline_homogeneous();
        sc.epochs = 0;
        assert!(sc.validate().is_err());

        let mut sc = Scenario::baseline_homogeneous();
        sc.nodes.clear();
        assert!(sc.validate().is_err());

        let mut sc = Scenario::baseline_homogeneous();
        sc.nodes[0].tenants[0].nfs.clear();
        assert!(sc.validate().is_err());

        let mut sc = Scenario::baseline_homogeneous();
        sc.nodes[0].tenants[0].sla.weight = 0.0;
        assert!(sc.validate().is_err());

        let mut sc = Scenario::baseline_homogeneous();
        sc.nodes[0].profile.ddio_ways = 99;
        assert!(sc.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicate_tenant_names_per_node() {
        // Summaries are keyed by (node, tenant name); duplicates would merge
        // two tenants' statistics silently.
        let mut sc = Scenario::two_tenant_shared_node();
        let clone_name = sc.nodes[0].tenants[0].name.clone();
        sc.nodes[0].tenants[1].name = clone_name;
        assert!(sc.validate().is_err());
        // The same name on *different* nodes is fine.
        let mut sc = Scenario::baseline_homogeneous();
        for node in &mut sc.nodes {
            node.tenants[0].name = "same".into();
        }
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn deserialized_descriptors_cannot_smuggle_invalid_traffic() {
        // serde bypasses the Trace/FlowSet constructors; validate() must
        // re-check their invariants so a parsed scenario never panics later.
        let sc = Scenario::diurnal_trace();
        let json = sc.to_json();
        let empty_points = json.replace(
            "\"points\":[{",
            "\"points\":[],\"__rest\":[{", // orphan the real points
        );
        let parsed = Scenario::from_json(&empty_points).expect("structurally valid JSON");
        assert!(parsed.validate().is_err(), "empty trace must not validate");
        assert!(
            parsed.run().is_err(),
            "and must surface as an error, not a panic"
        );

        let sc = Scenario::baseline_homogeneous();
        let bad_flow = sc
            .to_json()
            .replace("\"packet_size\":1518", "\"packet_size\":7");
        let parsed = Scenario::from_json(&bad_flow).expect("structurally valid JSON");
        assert!(
            parsed.validate().is_err(),
            "out-of-range flow must not validate"
        );
    }

    #[test]
    fn build_rejects_oversubscribed_tenants() {
        let mut sc = Scenario::two_tenant_shared_node();
        // Both tenants asking for 90% of the ways cannot fit one node.
        for t in &mut sc.nodes[0].tenants {
            t.knobs.llc_fraction = 0.9;
        }
        assert!(sc.build_cluster().is_err());
    }

    #[test]
    fn json_round_trip_preserves_descriptor_and_results() {
        for sc in [
            Scenario::two_tenant_shared_node(),
            Scenario::diurnal_trace(),
        ] {
            let json = sc.to_json();
            let back = Scenario::from_json(&json).unwrap();
            assert_eq!(back, sc);
            assert_eq!(back.run().unwrap(), sc.run().unwrap());
        }
        assert!(Scenario::from_json("{not json").is_err());
    }

    #[test]
    fn two_tenant_node_reports_both_agreements() {
        let r = Scenario::two_tenant_shared_node().run().unwrap();
        let bulk = r.tenant(0, "bulk").unwrap();
        let interactive = r.tenant(0, "interactive").unwrap();
        assert_eq!(bulk.sla, "MaxT");
        assert_eq!(interactive.sla, "EE");
        // The bulk tenant moves far more traffic and is charged more energy.
        assert!(bulk.mean_throughput_gbps > interactive.mean_throughput_gbps);
        assert!(bulk.mean_energy_j > interactive.mean_energy_j);
        assert!(r.tenant(0, "nobody").is_none());
    }

    #[test]
    fn diurnal_replay_shows_day_night_swing() {
        let r = Scenario::diurnal_trace().run().unwrap();
        // 48 half-hour epochs cover the 24 h trace: the peak-hour epochs
        // must carry far more traffic than the small-hours epochs.
        let night = r.records[4].throughput_gbps; // ~02:00
        let peak = r
            .records
            .iter()
            .map(|rec| rec.throughput_gbps)
            .fold(0.0f64, f64::max);
        assert!(peak > 3.0 * night, "peak {peak} vs night {night}");
    }

    #[test]
    fn low_churn_incremental_matches_full_evaluation() {
        // The registry's incremental scenario must be a pure cost knob:
        // flipping it to full evaluation reproduces every record exactly.
        let inc = Scenario::diurnal_low_churn();
        assert_eq!(inc.evaluation, EvalMode::Incremental);
        let mut full = inc.clone();
        full.evaluation = EvalMode::Full;
        assert_eq!(inc.run().unwrap(), full.run().unwrap());
    }

    #[test]
    fn evaluation_field_defaults_to_full_and_round_trips() {
        let sc = Scenario::diurnal_low_churn();
        let json = sc.to_json();
        assert!(json.contains("\"evaluation\":\"incremental\""));
        assert_eq!(Scenario::from_json(&json).unwrap(), sc);
        // Descriptors written before the field existed omit it entirely and
        // must parse as full evaluation.
        let legacy = json.replace("\"evaluation\":\"incremental\",", "");
        assert!(!legacy.contains("evaluation"));
        let back = Scenario::from_json(&legacy).unwrap();
        assert_eq!(back.evaluation, EvalMode::Full);
    }

    #[test]
    fn tenant_seeds_never_alias_within_registry() {
        for sc in Scenario::registry() {
            let mut seen = std::collections::HashSet::new();
            for ni in 0..sc.nodes.len() {
                for ti in 0..sc.nodes[ni].tenants.len() {
                    assert!(seen.insert(sc.tenant_seed(ni, ti)), "{}", sc.name);
                }
            }
        }
    }

    // -- legacy schedule tests ---------------------------------------------

    #[test]
    fn schedules_have_sane_phases() {
        for s in [
            WorkloadSchedule::diurnal(),
            WorkloadSchedule::flash_crowd(),
            WorkloadSchedule::packet_size_shift(),
        ] {
            assert!(!s.phases.is_empty());
            assert!(s.total_epochs() >= 10);
            for p in &s.phases {
                assert!(p.flows.total_rate_pps() > 0.0, "{}", p.label);
            }
        }
    }

    #[test]
    fn run_produces_per_phase_summaries() {
        let s = WorkloadSchedule::diurnal();
        let r = run_schedule(
            &mut BaselineController,
            &s,
            SimTuning::default(),
            PowerModel::default(),
            3,
        );
        assert_eq!(r.phases.len(), 4);
        assert_eq!(r.trace.len() as u32, s.total_epochs());
        assert!(r.phase("peak").is_some());
        assert!(r.phase("nonexistent").is_none());
    }

    #[test]
    fn peak_phase_carries_more_traffic_than_night() {
        let s = WorkloadSchedule::diurnal();
        let r = run_schedule(
            &mut EePstateController::default(),
            &s,
            SimTuning::default(),
            PowerModel::default(),
            5,
        );
        let night = r.phase("night").unwrap();
        let peak = r.phase("peak").unwrap();
        assert!(peak.mean_throughput_gbps > night.mean_throughput_gbps);
    }

    #[test]
    fn adaptive_pstate_saves_energy_at_night_vs_baseline() {
        // The DES-driven EE-Pstate drops frequency when the load falls;
        // the baseline burns max frequency around the clock.
        let s = WorkloadSchedule::diurnal();
        let base = run_schedule(
            &mut BaselineController,
            &s,
            SimTuning::default(),
            PowerModel::default(),
            7,
        );
        let ee = run_schedule(
            &mut EePstateController::default(),
            &s,
            SimTuning::default(),
            PowerModel::default(),
            7,
        );
        let b_night = base.phase("night").unwrap().mean_energy_j;
        let e_night = ee.phase("night").unwrap().mean_energy_j;
        assert!(
            e_night < 0.9 * b_night,
            "EE-Pstate at night {e_night} vs baseline {b_night}"
        );
    }

    #[test]
    fn flash_crowd_spike_is_visible_in_trace() {
        let s = WorkloadSchedule::flash_crowd();
        let r = run_schedule(
            &mut EePstateController::default(),
            &s,
            SimTuning::default(),
            PowerModel::default(),
            9,
        );
        let steady = r.phase("steady").unwrap().mean_throughput_gbps;
        // The spike is ON/OFF: whole epochs can be silent, so compare the
        // busiest spike epoch (trace[8..14] = the spike phase) to steady.
        let spike_peak = r.trace[8..14]
            .iter()
            .map(|e| e.throughput_gbps)
            .fold(0.0f64, f64::max);
        assert!(
            spike_peak > 1.2 * steady,
            "spike peak {spike_peak} vs steady {steady}"
        );
    }
}
