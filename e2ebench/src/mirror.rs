//! The traced fleet mirror: one cluster epoch rebuilt from outside the
//! crates out of the same public calls the epoch pipeline makes, with a
//! span around each layer's call.
//!
//! generate → `TrafficSource::sample_load_delta` on sources built by
//! `TrafficSpec::build_source(Scenario::tenant_seed(..))`; stage →
//! `ChainBatch::lane_writer`; sweep → `evaluate_chain_batch_into` (full) or
//! `sweep_chain_batch_incremental` (incremental); aggregate →
//! `aggregate_node_columns_into` with costs from `ServiceChain::cost` and
//! knobs and partitions from `Node::knobs` / `Node::llc_bytes_of`.
//!
//! The mirror is only worth its numbers if it computes what the shipped
//! pipeline computes: [`FleetMirror::node_outcomes`] exposes per-node energy
//! and throughput so the caller can compare them with the real cluster's
//! report for the same epoch.

use greennfv::prelude::Scenario;
use nfv_sim::prelude::*;

use crate::stats::Tracer;

/// Per-node constants of the fold.
struct MirrorNode {
    lane0: usize,
    lanes: usize,
    policy: PlatformPolicy,
    power: PowerModel,
}

pub struct FleetMirror {
    eval: EvalMode,
    tuning: SimTuning,
    nodes: Vec<MirrorNode>,
    sources: Vec<TrafficSource>,
    knobs: Vec<KnobSettings>,
    costs: Vec<ChainCost>,
    llc_bytes: Vec<f64>,
    cores: Vec<f64>,
    share: Vec<f64>,
    freq_ghz: Vec<f64>,
    loads: Vec<(ChainLoad, bool)>,
    batch: ChainBatch,
    full_results: Vec<SimResult<ChainEpochResult>>,
    outputs: BatchOutputs,
    node_dirty: Vec<bool>,
    reports: Vec<NodeEpochResult>,
    epochs: u64,
    /// Counters over every mirrored epoch.
    pub samples: u64,
    pub unchanged: u64,
    pub lanes_staged: u64,
    pub lanes_swept: u64,
}

impl FleetMirror {
    /// Mirrors `scenario` as lowered into `cluster` (a freshly built
    /// cluster of the same descriptor; only its static state is read).
    pub fn new(scenario: &Scenario, cluster: &Cluster, eval: EvalMode) -> SimResult<Self> {
        let tuning = scenario.tuning;
        let mut m = Self {
            eval,
            tuning,
            nodes: Vec::with_capacity(scenario.nodes.len()),
            sources: Vec::new(),
            knobs: Vec::new(),
            costs: Vec::new(),
            llc_bytes: Vec::new(),
            cores: Vec::new(),
            share: Vec::new(),
            freq_ghz: Vec::new(),
            loads: Vec::new(),
            batch: ChainBatch::new(),
            full_results: Vec::new(),
            outputs: BatchOutputs::new(),
            node_dirty: Vec::new(),
            reports: Vec::new(),
            epochs: 0,
            samples: 0,
            unchanged: 0,
            lanes_staged: 0,
            lanes_swept: 0,
        };
        for (ni, spec) in scenario.nodes.iter().enumerate() {
            let node = cluster.node(ni)?;
            m.nodes.push(MirrorNode {
                lane0: m.sources.len(),
                lanes: spec.tenants.len(),
                policy: node.policy(),
                power: *node.power_model(),
            });
            for (ti, tenant) in spec.tenants.iter().enumerate() {
                let id = ChainId(ti as u32);
                let knobs = node
                    .knobs(id)
                    .ok_or_else(|| SimError::NodeConfig(format!("node {ni} lacks chain {ti}")))?;
                let chain = ServiceChain::build(ChainSpec::new(id, tenant.nfs.clone())?);
                m.sources
                    .push(tenant.traffic.build_source(scenario.tenant_seed(ni, ti))?);
                m.costs.push(chain.cost());
                m.llc_bytes.push(node.llc_bytes_of(id) as f64);
                m.cores.push(f64::from(knobs.cpu.cores));
                m.share.push(knobs.cpu.share);
                m.freq_ghz.push(knobs.freq_ghz);
                m.knobs.push(knobs);
            }
        }
        m.reports = vec![NodeEpochResult::default(); m.nodes.len()];
        m.node_dirty = vec![true; m.nodes.len()];
        Ok(m)
    }

    pub fn lanes(&self) -> usize {
        self.sources.len()
    }

    /// Runs one epoch. With `detail`, each layer call gets its own span
    /// under the epoch span; without, only the epoch span is recorded (the
    /// untraced twin used to measure tracing overhead).
    pub fn epoch(&mut self, tracer: &mut Tracer, detail: bool) {
        let name = if detail {
            "mirror.epoch"
        } else {
            "mirror.epoch_untraced"
        };
        let epoch = tracer.begin(name, crate::stats::ROOT);
        let span = |t: &mut Tracer, n| {
            if detail {
                Some(t.begin(n, epoch))
            } else {
                None
            }
        };
        let close = |t: &mut Tracer, id: Option<u32>| {
            if let Some(id) = id {
                t.end(id);
            }
        };

        // Generate.
        let s = span(tracer, "traffic.generate");
        let window = self.tuning.epoch_s;
        self.loads.clear();
        for src in &mut self.sources {
            let (load, delta) = src.sample_load_delta(window);
            self.loads.push((load, delta.is_changed()));
        }
        close(tracer, s);

        // Stage.
        let s = span(tracer, "batch.stage");
        let reuse = self.eval == EvalMode::Incremental && self.epochs > 0;
        let mut writer = self.batch.lane_writer(reuse);
        for (i, (load, changed)) in self.loads.iter().enumerate() {
            writer.write(
                &self.knobs[i],
                &self.costs[i],
                load,
                *changed,
                self.llc_bytes[i],
            );
        }
        writer.finish();
        close(tracer, s);

        // Sweep.
        let s = span(tracer, "batch.sweep");
        let before = kernel_lanes_swept();
        match self.eval {
            EvalMode::Full => {
                evaluate_chain_batch_into(&self.batch, &self.tuning, &mut self.full_results);
                self.node_dirty.fill(true);
            }
            EvalMode::Incremental => {
                if self.epochs == 0 {
                    self.outputs.invalidate();
                    self.node_dirty.fill(true);
                } else {
                    for (d, n) in self.node_dirty.iter_mut().zip(&self.nodes) {
                        *d = (n.lane0..n.lane0 + n.lanes).any(|i| self.batch.is_dirty(i));
                    }
                }
                sweep_chain_batch_incremental(&mut self.batch, &self.tuning, &mut self.outputs);
            }
        }
        self.lanes_swept += kernel_lanes_swept() - before;
        close(tracer, s);

        // Aggregate: only nodes with a dirty lane re-fold (a clean node's
        // inputs are bitwise those of the last epoch).
        let s = span(tracer, "engine.aggregate");
        let results = match self.eval {
            EvalMode::Full => self.full_results.as_slice(),
            EvalMode::Incremental => self.outputs.results(),
        };
        for ((n, out), dirty) in self
            .nodes
            .iter()
            .zip(&mut self.reports)
            .zip(&self.node_dirty)
        {
            if !dirty {
                continue;
            }
            let lanes = n.lane0..n.lane0 + n.lanes;
            aggregate_node_columns_into(
                &results[lanes.clone()],
                KnobColumns {
                    cores: &self.cores[lanes.clone()],
                    share: &self.share[lanes.clone()],
                    freq_ghz: &self.freq_ghz[lanes],
                },
                &n.policy,
                &n.power,
                &self.tuning,
                out,
            );
        }
        close(tracer, s);
        tracer.end(epoch);

        let lanes = self.lanes() as u64;
        self.samples += lanes;
        self.unchanged += self.loads.iter().filter(|(_, c)| !c).count() as u64;
        self.lanes_staged += lanes;
        self.epochs += 1;
    }

    /// Per-node (energy J, throughput Gbps) of the last mirrored epoch.
    pub fn node_outcomes(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.reports
            .iter()
            .map(|r| (r.energy_j, r.total_throughput_gbps()))
    }

    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}
