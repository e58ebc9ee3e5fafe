//! A simulated NFV node: cores + LLC + chains + traffic + power.
//!
//! `Node` is the façade the GreenNFV controllers drive: install chains, set
//! knobs (validated against core capacity and CAT way availability), then run
//! control epochs and read back telemetry. Hardware heterogeneity lives in
//! [`NodeProfile`]: each node carries its own DVFS frequency range, LLC way
//! count, DDIO way reservation, and power curve, so a
//! [`Cluster`](crate::cluster::Cluster) can mix server classes while every
//! node still evaluates through the shared batched engine.

use serde::{Deserialize, Serialize};

use crate::batch::{
    evaluate_chain_batch, evaluate_chain_batch_cached, evaluate_chain_batch_incremental,
    BatchOutputs, ChainBatch, LaneWriter,
};
use crate::cache::EvalCache;
use crate::chain::{ChainCost, ChainSpec, ServiceChain};
use crate::chainvec::ChainVec;
use crate::cpu::{ChainId, CoreAllocator};
use crate::dvfs::{FREQ_MAX_GHZ, FREQ_MIN_GHZ};
use crate::engine::{
    aggregate_node, aggregate_node_columns_into, aggregate_node_into, evaluate_chain,
    ChainEpochResult, ChainLoad, KnobColumns, KnobSettings, NodeEpochResult, PlatformPolicy,
    SimTuning,
};
use crate::error::{SimError, SimResult};
use crate::flow::FlowSet;
use crate::llc::{CatLlc, ClosId, LLC_WAYS};
use crate::power::PowerModel;
use crate::stats::ChainTelemetry;
use crate::traffic::{TrafficCursor, TrafficSource};

/// CLOS id reserved for DDIO.
const DDIO_CLOS: ClosId = ClosId(u32::MAX);

/// Hardware profile of one node: the per-node axes of cluster heterogeneity.
///
/// The profile constrains what knobs a node accepts (frequency range), how
/// much cache its chains can partition (LLC ways minus the DDIO
/// reservation), and how busy-time converts to watts (power curve). Model
/// *tuning* ([`SimTuning`]) stays cluster-wide so heterogeneous nodes still
/// fuse into one [`ChainBatch`] per epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeProfile {
    /// Profile name for reports and scenario descriptors.
    pub name: String,
    /// Lowest frequency this node's DVFS ladder reaches, GHz.
    pub freq_min_ghz: f64,
    /// Highest frequency this node's DVFS ladder reaches, GHz.
    pub freq_max_ghz: f64,
    /// LLC ways physically present on this node (way size is fixed at
    /// `LLC_BYTES / LLC_WAYS` = 1 MB).
    pub llc_ways: u32,
    /// Ways permanently reserved for DDIO (NIC DMA writes).
    pub ddio_ways: u32,
    /// Node power curve (idle/max watts, Eq. 4 exponent, static fraction).
    pub power: PowerModel,
}

impl Default for NodeProfile {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl NodeProfile {
    /// The paper's testbed server: dual-socket E5-2620 v4, 20-way 20 MB LLC
    /// with 2 DDIO ways, full 1.2–2.1 GHz ladder, default power curve.
    pub fn paper_default() -> Self {
        Self {
            name: "paper-default".into(),
            freq_min_ghz: FREQ_MIN_GHZ,
            freq_max_ghz: FREQ_MAX_GHZ,
            llc_ways: LLC_WAYS,
            ddio_ways: 2,
            power: PowerModel::default(),
        }
    }

    /// An edge-class low-power node: smaller 12-way LLC with a single DDIO
    /// way, frequency capped at 1.7 GHz, low idle floor.
    pub fn edge_low_power() -> Self {
        Self {
            name: "edge-low-power".into(),
            freq_min_ghz: FREQ_MIN_GHZ,
            freq_max_ghz: 1.7,
            llc_ways: 12,
            ddio_ways: 1,
            power: PowerModel {
                pidle_w: 22.0,
                pmax_w: 80.0,
                h: 1.3,
                static_fraction: 0.4,
            },
        }
    }

    /// A high-performance node: full cache, frequency floor raised to
    /// 1.5 GHz (no deep DVFS states), hotter power curve.
    pub fn high_perf() -> Self {
        Self {
            name: "high-perf".into(),
            freq_min_ghz: 1.5,
            freq_max_ghz: FREQ_MAX_GHZ,
            llc_ways: LLC_WAYS,
            ddio_ways: 2,
            power: PowerModel {
                pidle_w: 55.0,
                pmax_w: 190.0,
                h: 1.5,
                static_fraction: 0.3,
            },
        }
    }

    /// Validates profile invariants: a sane frequency sub-range of the
    /// global ladder and at least one application way next to the DDIO
    /// reservation.
    pub fn validate(&self) -> SimResult<()> {
        let bad = |reason: String| {
            Err(SimError::NodeConfig(format!(
                "profile `{}`: {reason}",
                self.name
            )))
        };
        if !(FREQ_MIN_GHZ - 1e-9..=FREQ_MAX_GHZ + 1e-9).contains(&self.freq_min_ghz)
            || !(FREQ_MIN_GHZ - 1e-9..=FREQ_MAX_GHZ + 1e-9).contains(&self.freq_max_ghz)
            || self.freq_min_ghz > self.freq_max_ghz
        {
            return bad(format!(
                "frequency range [{}, {}] outside ladder [{FREQ_MIN_GHZ}, {FREQ_MAX_GHZ}]",
                self.freq_min_ghz, self.freq_max_ghz
            ));
        }
        if self.llc_ways == 0 || self.llc_ways > LLC_WAYS {
            return bad(format!("llc_ways {} outside 1..={LLC_WAYS}", self.llc_ways));
        }
        if self.ddio_ways >= self.llc_ways {
            return bad(format!(
                "ddio_ways {} leaves no application ways of {}",
                self.ddio_ways, self.llc_ways
            ));
        }
        if self.power.pidle_w <= 0.0 || self.power.pmax_w <= self.power.pidle_w {
            return bad(format!(
                "power curve needs 0 < pidle ({}) < pmax ({})",
                self.power.pidle_w, self.power.pmax_w
            ));
        }
        Ok(())
    }
}

/// One chain hosted on a node.
struct HostedChain {
    chain: ServiceChain,
    knobs: KnobSettings,
    traffic: TrafficSource,
    /// The chain's CAT partition in bytes, cached off the allocator by
    /// [`Node::set_knobs`] (the sole path that changes a chain's ways) so
    /// the epoch loops read a field instead of rescanning way ownership.
    llc_bytes: f64,
    /// The chain's aggregate cost, folded once at admission. Sound because
    /// the node never runs packets through the hosted [`ServiceChain`]
    /// (no `process_batch` exposure), so NF state — the only thing
    /// `ServiceChain::cost` can observe changing — is frozen at build time;
    /// caching skips three virtual `NfCost` queries per chain per epoch.
    cost: ChainCost,
}

/// Serializable mutable drift of a [`Node`] relative to its construction:
/// per-chain knobs and traffic positions plus the epoch counter. Rebuild the
/// node the same way it was originally built (same profile, chains, traffic
/// specs, seeds), then [`Node::restore_cursor`] — every stream resumes
/// bit-exactly, so a resumed run equals an uninterrupted one.
///
/// Knobs are re-applied through the validated [`Node::set_knobs`] path in
/// chain order, so allocator state (cores, CAT ways) is reconstructed rather
/// than trusted from the snapshot. Restoring can only fail if an
/// *intermediate* mix of old and new allocations oversubscribes the node —
/// impossible when at most one chain's knobs drifted from construction (the
/// RL-environment pattern), and surfaced as an error otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCursor {
    /// Current knobs per hosted chain, in chain insertion order.
    pub knobs: Vec<KnobSettings>,
    /// Traffic stream positions, in chain insertion order.
    pub traffic: Vec<TrafficCursor>,
    /// Epochs executed so far.
    pub epochs_run: u64,
}

/// Reusable per-epoch sampling buffers for [`Node::run_epoch`]: after the
/// first epoch the node re-samples into these vectors, so the standalone
/// epoch loop stops allocating in the generate stage.
#[derive(Debug, Default)]
struct EpochScratch {
    knobs: Vec<KnobSettings>,
    arrivals: Vec<f64>,
    results: Vec<ChainEpochResult>,
}

/// Result of one node epoch: engine outputs plus per-chain telemetry with
/// attributed energy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeEpochReport {
    /// Raw engine result.
    pub node: NodeEpochResult,
    /// Per-chain telemetry (paper Eq. 8 state), in chain insertion order.
    /// Stored inline up to [`crate::chainvec::CHAIN_INLINE`] chains so
    /// owned reports build, clone, and drop without heap traffic.
    pub telemetry: ChainVec<ChainTelemetry>,
}

/// A simulated NFV server.
pub struct Node {
    id: u32,
    tuning: SimTuning,
    profile: NodeProfile,
    policy: PlatformPolicy,
    cores: CoreAllocator,
    llc: CatLlc,
    chains: Vec<HostedChain>,
    epochs_run: u64,
    scratch: EpochScratch,
}

impl Node {
    /// Creates a node with the given platform policy and model parameters,
    /// using the paper's default hardware profile with `power` as its curve.
    ///
    /// # Panics
    /// When the power curve is degenerate (`pidle_w <= 0` or
    /// `pmax_w <= pidle_w`) — the only part of the paper-default profile a
    /// caller can influence. Use [`Node::with_profile`] to handle the error.
    pub fn new(id: u32, tuning: SimTuning, power: PowerModel, policy: PlatformPolicy) -> Self {
        Self::with_profile(
            id,
            tuning,
            policy,
            NodeProfile {
                power,
                ..NodeProfile::paper_default()
            },
        )
        .expect("power curve must satisfy 0 < pidle_w < pmax_w")
    }

    /// Creates a node with an explicit hardware [`NodeProfile`] (the
    /// heterogeneous-cluster construction path).
    pub fn with_profile(
        id: u32,
        tuning: SimTuning,
        policy: PlatformPolicy,
        profile: NodeProfile,
    ) -> SimResult<Self> {
        profile.validate()?;
        let mut llc = CatLlc::new(profile.llc_ways);
        // Reserve the profile's DDIO share permanently.
        llc.set_allocation(DDIO_CLOS, profile.ddio_ways)
            .expect("fresh LLC has free ways");
        Ok(Self {
            id,
            cores: CoreAllocator::new(tuning.total_cores, tuning.manager_cores),
            tuning,
            profile,
            policy,
            llc,
            chains: Vec::new(),
            epochs_run: 0,
            scratch: EpochScratch::default(),
        })
    }

    /// Node with all defaults under the GreenNFV platform policy.
    pub fn default_greennfv(id: u32) -> Self {
        Self::new(
            id,
            SimTuning::default(),
            PowerModel::default(),
            PlatformPolicy::greennfv(),
        )
    }

    /// Node with all defaults under the baseline platform policy.
    pub fn default_baseline(id: u32) -> Self {
        Self::new(
            id,
            SimTuning::default(),
            PowerModel::default(),
            PlatformPolicy::baseline(),
        )
    }

    /// Node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Platform policy in force.
    pub fn policy(&self) -> PlatformPolicy {
        self.policy
    }

    /// Replaces the platform policy (used when switching controller types).
    pub fn set_policy(&mut self, policy: PlatformPolicy) {
        self.policy = policy;
    }

    /// Model tuning constants.
    pub fn tuning(&self) -> &SimTuning {
        &self.tuning
    }

    /// Power model (from the node's hardware profile).
    pub fn power_model(&self) -> &PowerModel {
        &self.profile.power
    }

    /// The node's hardware profile.
    pub fn profile(&self) -> &NodeProfile {
        &self.profile
    }

    /// Number of hosted chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Installs a chain with its offered flows and initial knobs.
    pub fn add_chain(
        &mut self,
        spec: ChainSpec,
        flows: FlowSet,
        knobs: KnobSettings,
        seed: u64,
    ) -> SimResult<()> {
        self.add_chain_with_source(spec, TrafficSource::synthetic(flows, seed), knobs)
    }

    /// Installs a chain fed by an arbitrary [`TrafficSource`] — synthetic
    /// flows or trace-driven replay — with initial knobs.
    pub fn add_chain_with_source(
        &mut self,
        spec: ChainSpec,
        source: TrafficSource,
        knobs: KnobSettings,
    ) -> SimResult<()> {
        if self.chains.iter().any(|h| h.chain.id() == spec.id) {
            return Err(SimError::NodeConfig(format!(
                "chain {:?} already hosted",
                spec.id
            )));
        }
        let id = spec.id;
        let chain = ServiceChain::build(spec);
        let cost = chain.cost();
        self.chains.push(HostedChain {
            chain,
            knobs: KnobSettings::baseline(),
            traffic: source,
            llc_bytes: 0.0,
            cost,
        });
        // Apply knobs through the validated path; roll back on failure.
        if let Err(e) = self.set_knobs(id, knobs) {
            self.chains.pop();
            return Err(e);
        }
        Ok(())
    }

    /// Validates a frequency request against the node profile's DVFS range
    /// (a sub-range of the global ladder on heterogeneous nodes).
    fn check_profile_freq(&self, freq_ghz: f64) -> SimResult<()> {
        let (lo, hi) = (self.profile.freq_min_ghz, self.profile.freq_max_ghz);
        if !(lo - 1e-9..=hi + 1e-9).contains(&freq_ghz) {
            return Err(SimError::InvalidKnob {
                knob: "freq_ghz",
                reason: format!(
                    "{freq_ghz} outside node profile `{}` range [{lo}, {hi}]",
                    self.profile.name
                ),
            });
        }
        Ok(())
    }

    /// Applies new knob settings to a chain, enforcing node-level capacity:
    /// total cores, the profile's frequency range, and total CAT ways must
    /// fit.
    pub fn set_knobs(&mut self, chain: ChainId, knobs: KnobSettings) -> SimResult<()> {
        knobs.validate()?;
        self.check_profile_freq(knobs.freq_ghz)?;
        let idx = self
            .chains
            .iter()
            .position(|h| h.chain.id() == chain)
            .ok_or_else(|| SimError::NodeConfig(format!("unknown chain {chain:?}")))?;
        // Core capacity.
        let prev_cpu = self.cores.allocation(chain);
        self.cores.assign(chain, knobs.cpu)?;
        let prev = self.llc.ways_of(ClosId(chain.0));
        let want = self.app_llc_ways(knobs.llc_fraction);
        if self.llc.set_allocation(ClosId(chain.0), want).is_err() {
            // Not enough free ways: restore both allocators and fail, so a
            // rejected request leaves no trace in capacity accounting.
            match prev_cpu {
                Some(alloc) => self
                    .cores
                    .assign(chain, alloc)
                    .expect("restoring previous core allocation"),
                None => self.cores.remove(chain),
            }
            self.llc
                .set_allocation(ClosId(chain.0), prev)
                .expect("restoring previous allocation");
            return Err(SimError::CacheAllocation(format!(
                "chain {chain:?} wants {want} ways; insufficient free ways"
            )));
        }
        self.chains[idx].knobs = knobs;
        self.chains[idx].llc_bytes = self.llc.bytes_of(ClosId(chain.0)) as f64;
        Ok(())
    }

    /// Current knobs of a chain.
    pub fn knobs(&self, chain: ChainId) -> Option<KnobSettings> {
        self.chains
            .iter()
            .find(|h| h.chain.id() == chain)
            .map(|h| h.knobs)
    }

    /// Replaces a chain's offered flows (dynamic workloads).
    pub fn set_flows(&mut self, chain: ChainId, flows: FlowSet, seed: u64) -> SimResult<()> {
        self.set_traffic(chain, TrafficSource::synthetic(flows, seed))
    }

    /// Replaces a chain's traffic source (e.g. swapping synthetic flows for
    /// trace replay mid-run).
    pub fn set_traffic(&mut self, chain: ChainId, source: TrafficSource) -> SimResult<()> {
        let h = self
            .chains
            .iter_mut()
            .find(|h| h.chain.id() == chain)
            .ok_or_else(|| SimError::NodeConfig(format!("unknown chain {chain:?}")))?;
        h.traffic = source;
        Ok(())
    }

    /// LLC bytes currently partitioned to a chain.
    pub fn llc_bytes_of(&self, chain: ChainId) -> u64 {
        self.llc.bytes_of(ClosId(chain.0))
    }

    /// CAT ways for an `llc_fraction` knob: the fraction is over the
    /// profile's non-DDIO application ways, rounded to whole ways.
    /// `set_knobs` and the what-if sweeps share this so they cannot drift.
    fn app_llc_ways(&self, llc_fraction: f64) -> u32 {
        let app_ways = self.profile.llc_ways - self.profile.ddio_ways;
        ((llc_fraction * f64::from(app_ways)).round() as u32).min(app_ways)
    }

    /// Snapshot of the node's mutable drift (knobs, traffic positions,
    /// epoch counter) for checkpointing; see [`NodeCursor`].
    pub fn cursor(&self) -> NodeCursor {
        NodeCursor {
            knobs: self.chains.iter().map(|h| h.knobs).collect(),
            traffic: self.chains.iter().map(|h| h.traffic.cursor()).collect(),
            epochs_run: self.epochs_run,
        }
    }

    /// Restores a [`Node::cursor`] snapshot onto a node rebuilt with the
    /// same construction parameters (profile, chains, traffic specs).
    pub fn restore_cursor(&mut self, cursor: &NodeCursor) -> SimResult<()> {
        if cursor.knobs.len() != self.chains.len() || cursor.traffic.len() != self.chains.len() {
            return Err(SimError::NodeConfig(format!(
                "cursor covers {} knob / {} traffic entries for {} hosted chains",
                cursor.knobs.len(),
                cursor.traffic.len(),
                self.chains.len()
            )));
        }
        let ids: Vec<ChainId> = self.chains.iter().map(|h| h.chain.id()).collect();
        for (id, knobs) in ids.iter().zip(&cursor.knobs) {
            self.set_knobs(*id, *knobs)?;
        }
        for (h, t) in self.chains.iter_mut().zip(&cursor.traffic) {
            h.traffic.restore_cursor(t)?;
        }
        self.epochs_run = cursor.epochs_run;
        Ok(())
    }

    /// Samples one control window of every chain's traffic and writes the
    /// lanes straight into a [`ChainBatch`] through `writer` — the columnar
    /// generate path: no staging tuples, no copy. Advances the traffic
    /// sources exactly as [`Self::run_epoch`] does (same draws, same
    /// order), and returns the number of lanes written.
    pub(crate) fn stage_epoch(&mut self, writer: &mut LaneWriter<'_>) -> usize {
        let epoch_s = self.tuning.epoch_s;
        let mut lanes = 0;
        for h in &mut self.chains {
            let (load, delta) = h.traffic.sample_load_delta(epoch_s);
            writer.write(&h.knobs, &h.cost, &load, delta.is_changed(), h.llc_bytes);
            lanes += 1;
        }
        lanes
    }

    /// Columnar epoch fold: folds this node's slice of the fused batch —
    /// kernel lanes `lane0 ..` plus the knob and arrival columns — into a
    /// caller-retained report, allocating nothing once `out` has grown to
    /// the node's chain count. Bit-identical to the struct fold (see
    /// [`aggregate_node_columns_into`]). Advances the epoch count.
    pub(crate) fn finish_epoch_columns_into(
        &mut self,
        batch: &ChainBatch,
        lane0: usize,
        chain_results: &[SimResult<ChainEpochResult>],
        out: &mut NodeEpochReport,
    ) {
        let lanes = lane0..lane0 + chain_results.len();
        let NodeEpochReport { node, telemetry } = out;
        aggregate_node_columns_into(
            chain_results,
            KnobColumns {
                cores: &batch.cpu_cores_col()[lanes.clone()],
                share: &batch.cpu_share_col()[lanes.clone()],
                freq_ghz: &batch.freq_ghz_col()[lanes.clone()],
            },
            &self.policy,
            &self.profile.power,
            &self.tuning,
            node,
        );
        self.fill_telemetry(&batch.arrival_pps_col()[lanes], node, telemetry);
        self.epochs_run += 1;
    }

    /// The cached-epoch bookkeeping for the incremental pipeline: the epoch
    /// fold is pure, so when every one of this node's lanes stayed
    /// bitwise-clean for a window — identical knobs, costs, partitions, and
    /// an `Unchanged` load verdict — the previous epoch's report *is* this
    /// epoch's report. The pipeline leaves its retained report untouched and
    /// only the epoch count advances here.
    pub(crate) fn note_cached_epoch(&mut self) {
        self.epochs_run += 1;
    }

    /// The epoch fold minus the `epochs_run` bump: aggregates per-chain
    /// results into a caller-owned node report and attributes node energy
    /// to chains proportional to busy core-seconds (idle floor split
    /// evenly).
    fn fold_report_into(
        &self,
        knobs: &[KnobSettings],
        arrivals: &[f64],
        chain_results: &[ChainEpochResult],
        out: &mut NodeEpochReport,
    ) {
        aggregate_node_into(
            chain_results,
            knobs,
            &self.policy,
            &self.profile.power,
            &self.tuning,
            &mut out.node,
        );
        let NodeEpochReport { node, telemetry } = out;
        self.fill_telemetry(arrivals, node, telemetry);
    }

    /// Energy attribution shared by every epoch fold: proportional to busy
    /// core-seconds, idle floor split evenly across chains. Clears and
    /// refills `telemetry` in place.
    fn fill_telemetry(
        &self,
        arrivals: &[f64],
        node: &NodeEpochResult,
        telemetry: &mut ChainVec<ChainTelemetry>,
    ) {
        let epoch_s = self.tuning.epoch_s;
        let busy_total: f64 = node.chains.iter().map(|c| c.busy_core_seconds).sum();
        let n = node.chains.len().max(1) as f64;
        let idle_energy = self.profile.power.pidle_w * epoch_s * node.powered_frac;
        let dyn_energy = (node.energy_j - idle_energy).max(0.0);
        telemetry.clear();
        telemetry.extend(node.chains.iter().zip(arrivals).map(|(c, &pps)| {
            let share = if busy_total > 0.0 {
                c.busy_core_seconds / busy_total
            } else {
                1.0 / n
            };
            ChainTelemetry {
                throughput_gbps: c.throughput_gbps,
                energy_j: idle_energy / n + dyn_energy * share,
                cpu_util: c.cpu_util,
                arrival_pps: pps,
                miss_rate: c.miss_rate,
                loss_frac: c.loss_frac,
            }
        }));
    }

    /// Runs one control epoch: samples traffic, evaluates the chains, and
    /// attributes node energy to chains proportional to busy core-seconds.
    ///
    /// A single node hosts a handful of chains — far below the threading
    /// threshold — so the lanes run through the scalar kernel directly, with
    /// sampling buffers retained across epochs (`EpochScratch`);
    /// `Cluster::run_epoch` is the layer that fuses many nodes into one
    /// [`ChainBatch`]. Both produce identical results (same kernel, same
    /// [`aggregate_node`] fold; see `cluster::tests`).
    pub fn run_epoch(&mut self) -> NodeEpochReport {
        let epoch_s = self.tuning.epoch_s;
        self.scratch.knobs.clear();
        self.scratch.arrivals.clear();
        self.scratch.results.clear();
        for h in &mut self.chains {
            let (load, _) = h.traffic.sample_load_delta(epoch_s);
            let llc_bytes = h.llc_bytes;
            self.scratch.knobs.push(h.knobs);
            self.scratch.arrivals.push(load.arrival_pps);
            self.scratch.results.push(evaluate_chain(
                &h.knobs,
                &h.cost,
                &load,
                llc_bytes,
                &self.tuning,
            ));
        }
        let mut report = NodeEpochReport::default();
        self.fold_report_into(
            &self.scratch.knobs,
            &self.scratch.arrivals,
            &self.scratch.results,
            &mut report,
        );
        self.epochs_run += 1;
        report
    }

    /// Samples one control window of `chain`'s traffic and returns the
    /// offered load. Advances the generator — the returned load is the one
    /// the next epoch would have seen. Used to feed what-if sweeps.
    pub fn sample_load(&mut self, chain: ChainId) -> SimResult<ChainLoad> {
        let epoch_s = self.tuning.epoch_s;
        let h = self
            .chains
            .iter_mut()
            .find(|h| h.chain.id() == chain)
            .ok_or_else(|| SimError::NodeConfig(format!("unknown chain {chain:?}")))?;
        Ok(h.traffic.sample_load(epoch_s))
    }

    /// What-if sweep: evaluates the whole node under each candidate knob
    /// setting for `chain`, against a fixed offered `load`, without touching
    /// the node's committed knobs, allocations, or traffic state.
    ///
    /// Every candidate is checked exactly as [`Node::set_knobs`] would check
    /// it — range validation, core capacity, CAT way availability — by
    /// replaying the assignment on throwaway clones of the allocators, so a
    /// candidate errs here iff committing it would err. Valid candidates are
    /// staged as lanes of one [`ChainBatch`] and evaluated in a single
    /// batched call; each lane is then folded into a per-candidate
    /// [`NodeEpochResult`].
    ///
    /// Restricted to single-chain nodes (the RL environments and the figure
    /// sweeps): with co-hosted chains a candidate's node-level power would
    /// need fresh loads for every other chain, which a side-effect-free
    /// sweep cannot sample.
    pub fn evaluate_candidates(
        &self,
        chain: ChainId,
        candidates: &[KnobSettings],
        load: ChainLoad,
    ) -> SimResult<Vec<SimResult<NodeEpochResult>>> {
        let (cost, admitted) = self.admit_candidates(chain, candidates)?;

        // One batched kernel call over the admitted lanes.
        let mut batch = ChainBatch::with_capacity(candidates.len());
        for (knobs, llc_bytes) in candidates.iter().zip(&admitted) {
            if let Ok(llc_bytes) = llc_bytes {
                batch.push(knobs, &cost, &load, *llc_bytes);
            }
        }
        let lane_results = evaluate_chain_batch(&batch, &self.tuning);
        Ok(self.fold_candidates(candidates, admitted, lane_results))
    }

    /// [`Node::evaluate_candidates`] through a content-addressed
    /// [`EvalCache`]: admitted lanes consult the cache first and only miss
    /// lanes enter the kernel ([`evaluate_chain_batch_cached`]). Unlike the
    /// incremental variant below — which memoizes *positionally* against
    /// one retained batch — the cache is keyed by input bits, so it is
    /// shared across nodes, grids, and runs, and survives grid reshapes.
    /// Results are bit-identical to [`Node::evaluate_candidates`].
    pub fn evaluate_candidates_cached(
        &self,
        chain: ChainId,
        candidates: &[KnobSettings],
        load: ChainLoad,
        cache: &EvalCache,
    ) -> SimResult<Vec<SimResult<NodeEpochResult>>> {
        let (cost, admitted) = self.admit_candidates(chain, candidates)?;

        let mut batch = ChainBatch::with_capacity(candidates.len());
        for (knobs, llc_bytes) in candidates.iter().zip(&admitted) {
            if let Ok(llc_bytes) = llc_bytes {
                batch.push(knobs, &cost, &load, *llc_bytes);
            }
        }
        let lane_results = evaluate_chain_batch_cached(&batch, &self.tuning, cache);
        Ok(self.fold_candidates(candidates, admitted, lane_results))
    }

    /// [`Node::evaluate_candidates`] over caller-retained sweep state: the
    /// admitted lanes are staged into `batch` through the self-comparing
    /// column setters and evaluated with the incremental kernel against
    /// `outputs`. When the candidate grid and the probed load are unchanged
    /// since the previous call (the common RL-sweep shape: a fixed action
    /// lattice probed under a CBR or plateaued load), every lane stays clean
    /// and the sweep costs zero kernel work; any changed lane re-evaluates
    /// its dirty group. Results are bit-identical to
    /// [`Node::evaluate_candidates`] either way.
    pub fn evaluate_candidates_into(
        &self,
        chain: ChainId,
        candidates: &[KnobSettings],
        load: ChainLoad,
        batch: &mut ChainBatch,
        outputs: &mut BatchOutputs,
    ) -> SimResult<Vec<SimResult<NodeEpochResult>>> {
        let (cost, admitted) = self.admit_candidates(chain, candidates)?;

        let admitted_lanes = admitted.iter().filter(|r| r.is_ok()).count();
        if batch.len() == admitted_lanes {
            // Same lane count: overwrite in place. The setters compare
            // bitwise, so an identical grid + load leaves every lane clean.
            let mut lane = 0;
            for (knobs, llc_bytes) in candidates.iter().zip(&admitted) {
                if let Ok(llc_bytes) = llc_bytes {
                    batch.set_knobs(lane, knobs);
                    batch.set_cost(lane, &cost);
                    batch.set_load(lane, &load);
                    batch.set_llc_bytes(lane, *llc_bytes);
                    lane += 1;
                }
            }
        } else {
            // Grid shape changed: rebuild (freshly pushed lanes are dirty,
            // and the length mismatch re-primes the output cache).
            batch.clear();
            for (knobs, llc_bytes) in candidates.iter().zip(&admitted) {
                if let Ok(llc_bytes) = llc_bytes {
                    batch.push(knobs, &cost, &load, *llc_bytes);
                }
            }
        }
        let lane_results = evaluate_chain_batch_incremental(batch, &self.tuning, outputs);
        Ok(self.fold_candidates(candidates, admitted, lane_results))
    }

    /// Shared admission front half of the candidate sweeps: checks the node
    /// shape and replays every candidate's assignment on throwaway allocator
    /// clones, exactly as [`Node::set_knobs`] would. Returns the hosted
    /// chain's cost and, per candidate, the CAT partition bytes it would get
    /// (or the error committing it would raise).
    fn admit_candidates(
        &self,
        chain: ChainId,
        candidates: &[KnobSettings],
    ) -> SimResult<(ChainCost, Vec<SimResult<f64>>)> {
        if self.chains.len() != 1 {
            return Err(SimError::NodeConfig(format!(
                "candidate sweep requires a single-chain node ({} chains hosted)",
                self.chains.len()
            )));
        }
        let hosted = &self.chains[0];
        if hosted.chain.id() != chain {
            return Err(SimError::NodeConfig(format!("unknown chain {chain:?}")));
        }
        let cost = hosted.chain.cost();

        // Admission-check every candidate on throwaway allocator clones.
        let admitted: Vec<SimResult<f64>> = candidates
            .iter()
            .map(|knobs| {
                knobs.validate()?;
                self.check_profile_freq(knobs.freq_ghz)?;
                let mut cores = self.cores.clone();
                cores.assign(chain, knobs.cpu)?;
                let mut llc = self.llc.clone();
                let want = self.app_llc_ways(knobs.llc_fraction);
                llc.set_allocation(ClosId(chain.0), want).map_err(|_| {
                    SimError::CacheAllocation(format!(
                        "chain {chain:?} wants {want} ways; insufficient free ways"
                    ))
                })?;
                Ok(llc.bytes_of(ClosId(chain.0)) as f64)
            })
            .collect();
        Ok((cost, admitted))
    }

    /// Shared back half of the candidate sweeps: zips the admitted lanes'
    /// kernel results back over the candidate list and folds each into a
    /// per-candidate [`NodeEpochResult`].
    fn fold_candidates(
        &self,
        candidates: &[KnobSettings],
        admitted: Vec<SimResult<f64>>,
        lane_results: Vec<SimResult<ChainEpochResult>>,
    ) -> Vec<SimResult<NodeEpochResult>> {
        let mut lane_results = lane_results.into_iter();
        candidates
            .iter()
            .zip(admitted)
            .map(|(knobs, admitted)| {
                admitted.and_then(|_| {
                    let r = lane_results
                        .next()
                        .expect("one batch lane per admitted candidate")?;
                    Ok(aggregate_node(
                        &[r],
                        std::slice::from_ref(knobs),
                        &self.policy,
                        &self.profile.power,
                        &self.tuning,
                    ))
                })
            })
            .collect()
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("chains", &self.chains.len())
            .field("epochs_run", &self.epochs_run)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::traffic::{Trace, TracePoint};

    fn eval_flows() -> FlowSet {
        FlowSet::evaluation_five_flows()
    }

    fn node_with_chain() -> Node {
        let mut n = Node::default_greennfv(0);
        n.add_chain(
            ChainSpec::canonical_three(ChainId(0)),
            eval_flows(),
            KnobSettings::default_tuned(),
            42,
        )
        .unwrap();
        n
    }

    #[test]
    fn add_chain_rejects_duplicates() {
        let mut n = node_with_chain();
        let err = n.add_chain(
            ChainSpec::canonical_three(ChainId(0)),
            eval_flows(),
            KnobSettings::default_tuned(),
            1,
        );
        assert!(err.is_err());
        assert_eq!(n.chain_count(), 1);
    }

    #[test]
    fn set_knobs_enforces_core_capacity() {
        let mut n = node_with_chain();
        let mut k = KnobSettings::default_tuned();
        k.cpu.cores = 99;
        assert!(n.set_knobs(ChainId(0), k).is_err());
        // Previous knobs survive.
        assert_eq!(n.knobs(ChainId(0)).unwrap().cpu.cores, 2);
    }

    #[test]
    fn set_knobs_enforces_cat_ways() {
        let mut n = Node::default_greennfv(0);
        let mut k = KnobSettings::default_tuned();
        k.llc_fraction = 0.9;
        n.add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .unwrap();
        let mut k2 = KnobSettings::default_tuned();
        k2.llc_fraction = 0.9; // 0.9 + 0.9 over 18 ways cannot fit
        let err = n.add_chain(ChainSpec::lightweight(ChainId(1)), eval_flows(), k2, 2);
        assert!(err.is_err());
        assert_eq!(n.chain_count(), 1, "failed add must roll back");
    }

    #[test]
    fn rejected_set_knobs_rolls_back_core_allocation() {
        // A CAT-rejected request must not leave its core assignment behind:
        // chain1's failed upgrade (cores 2→8 alongside an unsatisfiable LLC
        // ask) must not count 8 cores against chain0's later request.
        let mut n = Node::default_greennfv(0);
        let mut k0 = KnobSettings::default_tuned();
        k0.cpu.cores = 4;
        k0.llc_fraction = 0.9; // 16 of 18 app ways
        n.add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k0, 1)
            .unwrap();
        let mut k1 = KnobSettings::default_tuned();
        k1.cpu.cores = 2;
        k1.llc_fraction = 0.1; // the remaining 2 ways
        n.add_chain(ChainSpec::lightweight(ChainId(1)), eval_flows(), k1, 2)
            .unwrap();

        let mut upgrade = k1;
        upgrade.cpu.cores = 8;
        upgrade.llc_fraction = 0.9; // cannot fit next to chain0's 16 ways
        assert!(n.set_knobs(ChainId(1), upgrade).is_err());
        assert_eq!(n.knobs(ChainId(1)).unwrap(), k1, "knobs unchanged");

        // 14 NF cores: chain0 can now grow to 10 iff chain1 still holds 2.
        let mut grow = k0;
        grow.cpu.cores = 10;
        n.set_knobs(ChainId(0), grow)
            .expect("rolled-back request must not consume core capacity");
    }

    #[test]
    fn llc_bytes_follow_fraction() {
        let n = node_with_chain();
        let b = n.llc_bytes_of(ChainId(0));
        // 0.5 × 18 ways = 9 ways of 1 MB.
        assert_eq!(b, 9 * 1024 * 1024);
    }

    #[test]
    fn epoch_produces_consistent_telemetry() {
        let mut n = node_with_chain();
        let r = n.run_epoch();
        assert_eq!(r.telemetry.len(), 1);
        let t = &r.telemetry[0];
        assert!(t.throughput_gbps > 0.0);
        assert!(t.arrival_pps > 1e6);
        assert!(t.cpu_util > 0.0 && t.cpu_util <= 1.0);
        // Attributed chain energies sum to node energy.
        let sum: f64 = r.telemetry.iter().map(|t| t.energy_j).sum();
        assert!((sum - r.node.energy_j).abs() < 1e-6);
        assert_eq!(n.epochs_run(), 1);
    }

    #[test]
    fn two_chains_split_energy() {
        let mut n = Node::default_greennfv(0);
        let mut k = KnobSettings::default_tuned();
        k.llc_fraction = 0.4;
        n.add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .unwrap();
        n.add_chain(
            ChainSpec::lightweight(ChainId(1)),
            FlowSet::new(vec![FlowSpec::cbr(0, 1e5, 256)]).unwrap(),
            k,
            2,
        )
        .unwrap();
        let r = n.run_epoch();
        assert_eq!(r.telemetry.len(), 2);
        let sum: f64 = r.telemetry.iter().map(|t| t.energy_j).sum();
        assert!((sum - r.node.energy_j).abs() < 1e-6);
        // Busier chain is charged more energy.
        assert!(r.telemetry[0].energy_j > r.telemetry[1].energy_j);
    }

    #[test]
    fn candidate_sweep_matches_committed_epoch() {
        // Evaluating a candidate against a sampled load must equal actually
        // committing the knobs and running the epoch on a twin node.
        let mut sweep_node = node_with_chain();
        let mut commit_node = node_with_chain();
        let mut candidate = KnobSettings::default_tuned();
        candidate.freq_ghz = 1.3;
        candidate.batch = 96;

        let load = sweep_node.sample_load(ChainId(0)).unwrap();
        let swept = sweep_node
            .evaluate_candidates(ChainId(0), &[candidate], load)
            .unwrap();

        commit_node.set_knobs(ChainId(0), candidate).unwrap();
        let committed = commit_node.run_epoch();

        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].as_ref().unwrap(), &committed.node);
        // The sweep committed nothing.
        assert_eq!(
            sweep_node.knobs(ChainId(0)).unwrap(),
            KnobSettings::default_tuned()
        );
        assert_eq!(sweep_node.epochs_run(), 0);
    }

    #[test]
    fn candidate_sweep_flags_inadmissible_lanes() {
        let mut n = node_with_chain();
        let load = n.sample_load(ChainId(0)).unwrap();
        let good = KnobSettings::default_tuned();
        let mut bad_range = good;
        bad_range.batch = 0;
        let mut bad_cores = good;
        bad_cores.cpu.cores = 99;
        let out = n
            .evaluate_candidates(ChainId(0), &[good, bad_range, bad_cores], load)
            .unwrap();
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(bad_range.validate().unwrap_err()));
        assert!(out[2].is_err(), "oversubscribed cores must be rejected");
    }

    #[test]
    fn cached_candidate_sweep_matches_fresh_sweep() {
        // evaluate_candidates_into over retained state must equal the
        // one-shot sweep bit-for-bit, and a repeated identical sweep must
        // cost zero kernel lanes (everything clean).
        let mut n = node_with_chain();
        let load = n.sample_load(ChainId(0)).unwrap();
        let mut grid = Vec::new();
        for i in 0..10u32 {
            let mut k = KnobSettings::default_tuned();
            k.batch = 16 + i * 24;
            grid.push(k);
        }
        let mut bad = KnobSettings::default_tuned();
        bad.batch = 0;
        grid.push(bad);

        let fresh = n.evaluate_candidates(ChainId(0), &grid, load).unwrap();
        let mut batch = ChainBatch::new();
        let mut outputs = BatchOutputs::new();
        let cached = n
            .evaluate_candidates_into(ChainId(0), &grid, load, &mut batch, &mut outputs)
            .unwrap();
        assert_eq!(cached, fresh);

        // Identical grid + load again: all lanes clean, zero kernel work.
        let before = crate::engine::kernel_lanes_swept();
        let again = n
            .evaluate_candidates_into(ChainId(0), &grid, load, &mut batch, &mut outputs)
            .unwrap();
        assert_eq!(crate::engine::kernel_lanes_swept(), before);
        assert_eq!(again, fresh);

        // A changed probe load re-evaluates and still matches a fresh sweep.
        let hotter = ChainLoad {
            arrival_pps: load.arrival_pps * 1.5,
            ..load
        };
        let cached = n
            .evaluate_candidates_into(ChainId(0), &grid, hotter, &mut batch, &mut outputs)
            .unwrap();
        assert_eq!(
            cached,
            n.evaluate_candidates(ChainId(0), &grid, hotter).unwrap()
        );

        // A different grid shape rebuilds the lanes and still matches.
        let shrunk = &grid[..4];
        let cached = n
            .evaluate_candidates_into(ChainId(0), shrunk, hotter, &mut batch, &mut outputs)
            .unwrap();
        assert_eq!(
            cached,
            n.evaluate_candidates(ChainId(0), shrunk, hotter).unwrap()
        );
    }

    #[test]
    fn candidate_sweep_requires_single_chain() {
        let mut n = Node::default_greennfv(0);
        let mut k = KnobSettings::default_tuned();
        k.llc_fraction = 0.3;
        n.add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .unwrap();
        n.add_chain(ChainSpec::lightweight(ChainId(1)), eval_flows(), k, 2)
            .unwrap();
        let load = n.sample_load(ChainId(0)).unwrap();
        assert!(n.evaluate_candidates(ChainId(0), &[k], load).is_err());
    }

    #[test]
    fn deterministic_epochs_under_same_seed() {
        let mut a = node_with_chain();
        let mut b = node_with_chain();
        for _ in 0..5 {
            let ra = a.run_epoch();
            let rb = b.run_epoch();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn profile_validation_rejects_degenerate_hardware() {
        assert!(NodeProfile::paper_default().validate().is_ok());
        assert!(NodeProfile::edge_low_power().validate().is_ok());
        assert!(NodeProfile::high_perf().validate().is_ok());
        let mut p = NodeProfile::paper_default();
        p.freq_max_ghz = 3.5;
        assert!(p.validate().is_err(), "range beyond the global ladder");
        p = NodeProfile::paper_default();
        p.ddio_ways = p.llc_ways;
        assert!(p.validate().is_err(), "no application ways left");
        p = NodeProfile::paper_default();
        p.llc_ways = LLC_WAYS + 4;
        assert!(p.validate().is_err(), "more ways than the modeled LLC");
        p = NodeProfile::paper_default();
        p.power.pmax_w = p.power.pidle_w - 1.0;
        assert!(p.validate().is_err(), "inverted power curve");
    }

    #[test]
    fn default_profile_reproduces_legacy_node_exactly() {
        // `Node::new` and `with_profile(paper_default)` must be the same node.
        let mut legacy = node_with_chain();
        let mut profiled = Node::with_profile(
            0,
            SimTuning::default(),
            PlatformPolicy::greennfv(),
            NodeProfile::paper_default(),
        )
        .unwrap();
        profiled
            .add_chain(
                ChainSpec::canonical_three(ChainId(0)),
                eval_flows(),
                KnobSettings::default_tuned(),
                42,
            )
            .unwrap();
        for _ in 0..3 {
            assert_eq!(legacy.run_epoch(), profiled.run_epoch());
        }
    }

    #[test]
    fn profile_frequency_range_is_enforced() {
        let mut n = Node::with_profile(
            0,
            SimTuning::default(),
            PlatformPolicy::greennfv(),
            NodeProfile::edge_low_power(),
        )
        .unwrap();
        let mut k = KnobSettings::default_tuned();
        k.freq_ghz = 2.1; // legal globally, above the edge node's 1.7 cap
        assert!(n
            .add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .is_err());
        k.freq_ghz = 1.7;
        n.add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .unwrap();
        // The candidate sweep rejects out-of-range frequencies identically.
        let load = n.sample_load(ChainId(0)).unwrap();
        let mut hot = k;
        hot.freq_ghz = 2.0;
        let out = n.evaluate_candidates(ChainId(0), &[k, hot], load).unwrap();
        assert!(out[0].is_ok());
        assert!(out[1].is_err(), "sweep must mirror set_knobs admission");
    }

    #[test]
    fn smaller_profile_llc_shrinks_partitions() {
        let mut n = Node::with_profile(
            0,
            SimTuning::default(),
            PlatformPolicy::greennfv(),
            NodeProfile::edge_low_power(),
        )
        .unwrap();
        let mut k = KnobSettings::default_tuned();
        k.freq_ghz = 1.5;
        n.add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .unwrap();
        // 0.5 × (12 − 1) app ways rounds to 6 ways of 1 MB, vs 9 on the
        // paper node.
        assert_eq!(n.llc_bytes_of(ChainId(0)), 6 * 1024 * 1024);
        // A full-cache ask caps at the 11 application ways.
        k.llc_fraction = 1.0;
        n.set_knobs(ChainId(0), k).unwrap();
        assert_eq!(n.llc_bytes_of(ChainId(0)), 11 * 1024 * 1024);
    }

    #[test]
    fn cursor_restores_a_rebuilt_node_bit_exactly() {
        // Drive a node through knob changes and epochs, snapshot, rebuild a
        // fresh node the same way, restore — the two must produce identical
        // epoch streams from that point on.
        let mut live = node_with_chain();
        for i in 0..4 {
            let mut k = KnobSettings::default_tuned();
            k.freq_ghz = 1.3 + 0.1 * f64::from(i);
            k.batch = 32 + 16 * i as u32;
            live.set_knobs(ChainId(0), k).unwrap();
            live.run_epoch();
        }
        let cursor = live.cursor();

        let mut resumed = node_with_chain(); // same construction path
        resumed.restore_cursor(&cursor).unwrap();
        assert_eq!(resumed.epochs_run(), live.epochs_run());
        assert_eq!(resumed.knobs(ChainId(0)), live.knobs(ChainId(0)));
        for _ in 0..5 {
            assert_eq!(live.run_epoch(), resumed.run_epoch());
        }

        // Shape mismatches are rejected.
        let mut two_chains = Node::default_greennfv(0);
        let mut k = KnobSettings::default_tuned();
        k.llc_fraction = 0.3;
        two_chains
            .add_chain(ChainSpec::canonical_three(ChainId(0)), eval_flows(), k, 1)
            .unwrap();
        two_chains
            .add_chain(ChainSpec::lightweight(ChainId(1)), eval_flows(), k, 2)
            .unwrap();
        assert!(two_chains.restore_cursor(&cursor).is_err());
    }

    #[test]
    fn trace_fed_chain_runs_epochs_deterministically() {
        let trace = Trace::new(
            "step",
            vec![
                TracePoint {
                    duration_s: 30.0,
                    rate_pps: 4.0e5,
                    packet_size: 512,
                    burstiness: 1.2,
                },
                TracePoint {
                    duration_s: 30.0,
                    rate_pps: 2.4e6,
                    packet_size: 512,
                    burstiness: 1.2,
                },
            ],
        )
        .unwrap();
        let build = || {
            let mut n = Node::default_greennfv(0);
            n.add_chain_with_source(
                ChainSpec::canonical_three(ChainId(0)),
                TrafficSource::replay(trace.clone(), 0.05, 11).unwrap(),
                KnobSettings::default_tuned(),
            )
            .unwrap();
            n
        };
        let mut a = build();
        let mut b = build();
        let (ra1, rb1) = (a.run_epoch(), b.run_epoch());
        assert_eq!(ra1, rb1, "same trace + seed must be bit-identical");
        let ra2 = a.run_epoch();
        b.run_epoch();
        // The second epoch replays the trace's high-rate segment.
        assert!(
            ra2.telemetry[0].arrival_pps > 3.0 * ra1.telemetry[0].arrival_pps,
            "epoch 1 {} vs epoch 2 {}",
            ra1.telemetry[0].arrival_pps,
            ra2.telemetry[0].arrival_pps
        );
    }
}
