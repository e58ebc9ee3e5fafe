//! The in-process fleet workloads: `fleet-full` (an ~8k-lane fleet under
//! full evaluation) and `scenario-incremental` (the registry's
//! `fleet-diurnal-1000` through `Scenario::run`).

use std::time::Instant;

use greennfv::prelude::*;
use nfv_sim::prelude::*;

use crate::mirror::FleetMirror;
use crate::report::Report;
use crate::stats::{repeat_for, timed, timed_unstolen, Samples, Tracer};
use crate::Opts;

/// SplitMix64: expands the workload seed into per-node parameters.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `fleet-full` descriptor, of the `fleet-diurnal-1000` family: every
/// node hosts one zero-jitter plateau-replay tenant (rate and packet size
/// drawn from `seed`) and one five-flow synthetic tenant.
pub fn fleet_descriptor(seed: u64, nodes: usize) -> Scenario {
    let knobs = KnobSettings {
        cpu: CpuAllocation {
            cores: 2,
            share: 1.0,
        },
        llc_fraction: 0.3,
        ..KnobSettings::default_tuned()
    };
    let nodes = (0..nodes)
        .map(|ni| {
            let h = splitmix(seed ^ (ni as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let plateau = Trace::new(
                "plateau",
                vec![TracePoint {
                    duration_s: 3600.0,
                    rate_pps: 1.0e5 + (h % 1000) as f64 * 1.1e3,
                    packet_size: [256, 512, 1024][(h >> 32) as usize % 3],
                    burstiness: 1.3,
                }],
            )
            .expect("static trace is valid");
            NodeSpec {
                profile: NodeProfile::paper_default(),
                tenants: vec![
                    TenantSpec {
                        name: format!("plateau-{ni}"),
                        nfs: ChainSpec::lightweight(ChainId(0)).nfs,
                        sla: TenantSla::new(Sla::EnergyEfficiency),
                        knobs,
                        traffic: TrafficSpec::Replay {
                            trace: plateau,
                            jitter_frac: 0.0,
                        },
                    },
                    TenantSpec {
                        name: format!("flows-{ni}"),
                        nfs: ChainSpec::canonical_three(ChainId(1)).nfs,
                        sla: TenantSla::new(Sla::MinEnergy {
                            throughput_floor_gbps: 1.0,
                        }),
                        knobs,
                        traffic: TrafficSpec::Flows(FlowSet::evaluation_five_flows()),
                    },
                ],
            }
        })
        .collect();
    Scenario {
        name: "e2e-fleet-full".into(),
        epochs: 1,
        seed,
        tuning: SimTuning {
            epoch_s: 1800.0,
            ..SimTuning::default()
        },
        policy: PlatformPolicy::greennfv(),
        evaluation: EvalMode::Full,
        shards: 0,
        nodes,
    }
}

/// The registry's `fleet-diurnal-1000` with the workload seed and an
/// extended horizon (tiny runs keep the first 40 nodes).
pub fn incremental_descriptor(seed: u64, epochs: u32, tiny: bool) -> Scenario {
    let mut s = Scenario::fleet_diurnal_1000();
    s.seed = seed;
    s.epochs = epochs;
    if tiny {
        s.nodes.truncate(40);
    }
    s
}

pub fn lanes_of(s: &Scenario) -> usize {
    s.nodes.iter().map(|n| n.tenants.len()).sum()
}

fn build(s: &Scenario) -> Result<Cluster, String> {
    s.build_cluster().map_err(|e| format!("build_cluster: {e}"))
}

/// Simulated outcomes over some epochs of a fleet: cluster throughput,
/// energy, efficiency and the share of tenant-epochs meeting their SLA.
pub fn simulated_outcomes(s: &Scenario, reports: &[ClusterEpochReport], report: &mut Report) {
    let n = reports.len().max(1) as f64;
    let gbps = reports
        .iter()
        .map(|r| r.total_throughput_gbps())
        .sum::<f64>()
        / n;
    let joules = reports.iter().map(|r| r.total_energy_j()).sum::<f64>() / n;
    let (mut met, mut total) = (0u64, 0u64);
    for r in reports {
        for (node, spec) in r.nodes.iter().zip(&s.nodes) {
            for (tel, tenant) in node.telemetry.iter().zip(&spec.tenants) {
                met += u64::from(tenant.sla.satisfied(
                    tel.throughput_gbps,
                    tel.energy_j,
                    tel.loss_frac,
                ));
                total += 1;
            }
        }
    }
    report.simulated("cluster_gbps", gbps);
    report.simulated("cluster_energy_j", joules);
    report.simulated("gbps_per_kj", gbps / (joules / 1000.0));
    report.simulated("sla_satisfaction", met as f64 / total.max(1) as f64);
}

/// A fleet checkpoint as JSON lines: one `NodeCursor` document per node.
///
/// One document per node rather than one for the whole fleet: the
/// workspace's JSON reader costs time quadratic in a document's length,
/// which puts a single 4096-node document at over a minute to read back
/// (the `train-ddpg` checkpoint, one multi-megabyte document, is where
/// that cost shows).
pub fn cursors_to_jsonl(cursors: &[NodeCursor]) -> Result<String, String> {
    let mut out = String::new();
    for c in cursors {
        out.push_str(&serde_json::to_string(c).map_err(|e| format!("cursor JSON: {e}"))?);
        out.push('\n');
    }
    Ok(out)
}

/// Reads [`cursors_to_jsonl`] output back.
pub fn cursors_from_jsonl(text: &str) -> Result<Vec<NodeCursor>, String> {
    text.lines()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("cursor JSON: {e}")))
        .collect()
}

/// Fleet checkpoint and resume, sampled a repetition at a time between the
/// workload's main calls so both see the same stretch of the run.
#[derive(Default)]
pub struct CheckpointProbe {
    json: String,
    ck: Samples,
    resume: Samples,
}

impl CheckpointProbe {
    /// One timed checkpoint (`snapshot` + JSON lines) and one timed resume
    /// (decode + `restore`), each less stolen time on the one vCPU that
    /// runs the JSON work.
    pub fn rep(
        &mut self,
        snapshot: impl FnOnce() -> Result<Vec<NodeCursor>, String>,
        restore: impl FnOnce(Vec<NodeCursor>) -> Result<(), String>,
    ) -> Result<(), String> {
        let (t, json) = timed_unstolen(1, || cursors_to_jsonl(&snapshot()?));
        self.json = json?;
        self.ck.push(t);
        let (t, restored) = timed_unstolen(1, || restore(cursors_from_jsonl(&self.json)?));
        restored?;
        self.resume.push(t);
        Ok(())
    }

    pub fn report(&self, report: &mut Report) {
        report.line(format!("checkpoint bytes = {}", self.json.len()));
        report.metric("checkpoint_s", &self.ck, 1.0);
        report.metric("resume_s", &self.resume, 1.0);
    }
}

/// A fused cluster's cursors, in node order.
fn snapshot(cluster: &Cluster) -> Result<Vec<NodeCursor>, String> {
    Ok(cluster.nodes().map(Node::cursor).collect())
}

/// Restores per-node cursors onto a cluster built from the same descriptor.
fn restore(cluster: &mut Cluster, cursors: Vec<NodeCursor>) -> Result<(), String> {
    for (i, c) in cursors.iter().enumerate() {
        let node = cluster.node_mut(i).map_err(|e| e.to_string())?;
        node.restore_cursor(c).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Per-epoch wall times of the real pipeline, read from outside: the
/// interval between consecutive observer callbacks (the first from the
/// call's start).
fn observed_epoch_times(cluster: &mut Cluster, epochs: usize, eval: EvalMode, out: &mut Samples) {
    let mut last = Instant::now();
    cluster.observe_epochs(epochs, PipelineMode::Auto, eval, |_, r| {
        std::hint::black_box(r);
        let now = Instant::now();
        out.push((now - last).as_secs_f64());
        last = now;
    });
}

// ---------------------------------------------------------------------------
// fleet-full
// ---------------------------------------------------------------------------

pub fn fleet_full(o: &Opts, report: &mut Report) -> Result<(), String> {
    let nodes = if o.tiny { 32 } else { 4096 };
    let per_call = if o.tiny { 4 } else { 16 };
    let desc = fleet_descriptor(o.seed, nodes);
    let lanes = lanes_of(&desc);
    report.line(format!(
        "size: nodes={nodes} lanes={lanes} epochs_per_call={per_call} eval=full pipeline=auto"
    ));

    let mut cluster = None;
    let setup = repeat_for(5, o.budget(1.5), || {
        cluster = None;
        let (t, c) = timed_unstolen(1, || build(&desc));
        cluster = Some(c?);
        Ok(t)
    })?;
    let mut cluster = cluster.expect("at least one set-up");
    report.metric("setup_s", &setup, 1.0);

    // Output check: a prefix of the user's call equals stepped run_epoch.
    let prefix = if o.tiny { 2 } else { 4 };
    let mut fused = Vec::new();
    cluster.observe_epochs(prefix, PipelineMode::Auto, EvalMode::Full, |_, r| {
        fused.push(r.clone())
    });
    let stepped: Vec<_> = {
        let mut c = build(&desc)?;
        (0..prefix).map(|_| c.run_epoch()).collect()
    };
    report.check(
        "observe_epochs prefix == stepped run_epoch",
        fused == stepped,
    );
    report.attempted += prefix as u64;
    simulated_outcomes(&desc, &fused, report);

    if o.trace {
        return fleet_trace(o, &desc, EvalMode::Full, o.seconds, report);
    }

    // The user's call, with a checkpoint of the running fleet resumed onto
    // a second cluster every other round.
    let mut resumed = build(&desc)?;
    let mut probe = CheckpointProbe::default();
    let mut calls = Samples::new();
    let start = Instant::now();
    while calls.len() < 4 || start.elapsed().as_secs_f64() < o.seconds {
        // `Auto` runs the overlap worker beside the calling thread.
        let (t, ()) = timed_unstolen(2, || {
            cluster.observe_epochs(per_call, PipelineMode::Auto, EvalMode::Full, |_, r| {
                std::hint::black_box(r);
            })
        });
        calls.push(t);
        report.attempted += per_call as u64;
        if calls.len().is_multiple_of(2) {
            probe.rep(|| snapshot(&cluster), |c| restore(&mut resumed, c))?;
        }
    }
    if !calls.len().is_multiple_of(2) {
        // Checkpoint the final state too, so the continuation check below
        // compares clusters at the same epoch.
        probe.rep(|| snapshot(&cluster), |c| restore(&mut resumed, c))?;
    }
    report.throughput(&calls, (lanes * per_call) as f64, per_call as f64);
    probe.report(report);
    report.check(
        "resumed fleet continues bit-equal",
        resumed.run_epoch() == cluster.run_epoch(),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// scenario-incremental
// ---------------------------------------------------------------------------

pub fn scenario_incremental(o: &Opts, report: &mut Report) -> Result<(), String> {
    let horizon = if o.tiny { 6 } else { 48 };
    let desc = incremental_descriptor(o.seed, horizon, o.tiny);
    let lanes = lanes_of(&desc);
    report.line(format!(
        "size: nodes={} lanes={lanes} epochs_per_run={horizon} eval=incremental",
        desc.nodes.len()
    ));

    let setup = repeat_for(5, o.budget(1.0), || {
        let (t, c) = timed_unstolen(1, || build(&desc));
        c.map(|_| t)
    })?;
    report.metric("setup_s", &setup, 1.0);

    // Output check: the incremental run equals the same descriptor under
    // full evaluation.
    let run = |s: &Scenario| s.run().map_err(|e| format!("Scenario::run: {e}"));
    let incremental = run(&desc)?;
    let mut full_desc = desc.clone();
    full_desc.evaluation = EvalMode::Full;
    report.check(
        "incremental run == full run",
        incremental == run(&full_desc)?,
    );
    report.attempted += u64::from(horizon);
    report.simulated("cluster_gbps", incremental.mean_throughput_gbps);
    report.simulated("cluster_energy_j", incremental.mean_energy_j);
    report.simulated("gbps_per_kj", incremental.efficiency);
    let sat = incremental
        .tenants
        .iter()
        .map(|t| t.satisfaction_frac)
        .sum::<f64>()
        / incremental.tenants.len().max(1) as f64;
    report.simulated("sla_satisfaction", sat);

    if o.trace {
        fleet_trace(
            o,
            &desc,
            EvalMode::Incremental,
            o.seconds * 2.0 / 3.0,
            report,
        )?;
        return scenario_split(&desc, o.seconds / 3.0, report);
    }

    // The user's call, with a checkpoint of a fleet that has run the
    // horizon resumed onto a second cluster every round.
    let mut ran = build(&desc)?;
    ran.observe_epochs(
        horizon as usize,
        PipelineMode::Auto,
        EvalMode::Incremental,
        |_, r| {
            std::hint::black_box(r);
        },
    );
    let mut resumed = build(&desc)?;
    let mut probe = CheckpointProbe::default();
    let mut calls = Samples::new();
    let start = Instant::now();
    while calls.len() < 4 || start.elapsed().as_secs_f64() < o.seconds {
        let (t, result) = timed_unstolen(1, || run(&desc));
        std::hint::black_box(result?);
        calls.push(t);
        report.attempted += u64::from(horizon);
        probe.rep(|| snapshot(&ran), |c| restore(&mut resumed, c))?;
    }
    report.throughput(
        &calls,
        (lanes * horizon as usize) as f64,
        f64::from(horizon),
    );
    probe.report(report);
    report.check(
        "resumed fleet continues bit-equal",
        resumed.run_epoch() == ran.run_epoch(),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// `Scenario::run` split from outside into `build_cluster`, the
/// `observe_epochs` horizon and the rest (scoring and summaries), plus the
/// share of offered lanes the kernel swept. The split's pipeline sweeps
/// inline on this thread (fewer lanes than the overlap threshold), so the
/// thread-local `kernel_lanes_swept` sees every lane.
pub fn scenario_split(desc: &Scenario, budget: f64, report: &mut Report) -> Result<(), String> {
    let lanes = lanes_of(desc) as u64;
    let epochs = desc.epochs as usize;
    let (mut build_s, mut epochs_s, mut score_s) = (Samples::new(), Samples::new(), Samples::new());
    let (mut swept, mut offered) = (0u64, 0u64);
    let start = Instant::now();
    while build_s.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let (tb, c) = timed(|| build(desc));
        let mut c = c?;
        let before = kernel_lanes_swept();
        let (te, ()) = timed(|| {
            c.observe_epochs(epochs, PipelineMode::Auto, desc.evaluation, |_, r| {
                std::hint::black_box(r);
            })
        });
        swept += kernel_lanes_swept() - before;
        offered += lanes * epochs as u64;
        let (tr, r) = timed(|| desc.run());
        std::hint::black_box(r.map_err(|e| e.to_string())?);
        build_s.push(tb);
        epochs_s.push(te);
        score_s.push(tr - tb - te);
        report.attempted += 2 * epochs as u64;
    }
    report.metric("scenario.build_s", &build_s, 1.0);
    report.metric("scenario.epochs_s", &epochs_s, 1.0);
    report.metric("scenario.score_s", &score_s, 1.0);
    report.line(format!(
        "batch.swept_frac is from {} Scenario::run horizons",
        build_s.len()
    ));
    report.value("batch.swept_frac", swept as f64 / offered as f64);
    Ok(())
}

/// The traced fleet epoch within `budget` seconds: first the real
/// pipeline's per-epoch times (untraced, read between observer callbacks),
/// then the mirror, checked epoch by epoch against a real cluster and
/// alternating epochs with and without per-layer spans.
pub fn fleet_trace(
    o: &Opts,
    desc: &Scenario,
    eval: EvalMode,
    budget: f64,
    report: &mut Report,
) -> Result<(), String> {
    let lanes = lanes_of(desc) as f64;
    let per_call = if eval == EvalMode::Full {
        16
    } else {
        desc.epochs as usize
    };
    let mut epoch_times = Samples::new();
    let start = Instant::now();
    while epoch_times.len() < 20 || start.elapsed().as_secs_f64() < budget / 2.0 {
        let mut c = build(desc)?;
        observed_epoch_times(&mut c, per_call, eval, &mut epoch_times);
        report.attempted += per_call as u64;
    }
    report.metric("pipeline.epoch_us.p50", &epoch_times, 1e6);
    let (p, tail) = epoch_times.tail().ok_or("too few epochs for a tail")?;
    report.line(format!("pipeline.epoch_us.tail is p{p}"));
    report.value("pipeline.epoch_us.tail", tail * 1e6);

    // Traced: the mirror, checked epoch by epoch against a real cluster,
    // alternating epochs with and without per-layer spans.
    let mut tracer = Tracer::new();
    let mut real = build(desc)?;
    let mut mirror = FleetMirror::new(desc, &real, eval).map_err(|e| e.to_string())?;
    let mut faithful = true;
    let start = Instant::now();
    while mirror.epochs() < 40 || start.elapsed().as_secs_f64() < budget / 2.0 {
        let detail = mirror.epochs() % 2 == 0;
        mirror.epoch(&mut tracer, detail);
        let mut ok = true;
        real.observe_epochs(1, PipelineMode::Auto, eval, |_, r| {
            ok = r
                .nodes
                .iter()
                .zip(mirror.node_outcomes())
                .all(|(n, (e, g))| n.node.energy_j == e && n.node.total_throughput_gbps() == g);
        });
        faithful &= ok;
        report.attempted += 1;
    }
    report.check(
        "mirror per-node energy and throughput == real cluster",
        faithful,
    );

    let per_lane = |name: &str| tracer.durations(name).map(|v| v / lanes);
    let generate = per_lane("traffic.generate");
    let stage = per_lane("batch.stage");
    let sweep = per_lane("batch.sweep");
    let aggregate = per_lane("engine.aggregate");
    report.metric("traffic.generate_ns_per_lane", &generate, 1e9);
    report.value(
        "traffic.unchanged_frac",
        mirror.unchanged as f64 / mirror.samples as f64,
    );
    report.metric("batch.stage_ns_per_lane", &stage, 1e9);
    report.value(
        "batch.lanes_staged",
        mirror.lanes_staged as f64 / mirror.epochs() as f64,
    );
    report.metric("batch.sweep_ns_per_lane", &sweep, 1e9);
    // A scenario split recorded afterwards replaces this with the real
    // call's share.
    report.value(
        "batch.swept_frac",
        mirror.lanes_swept as f64 / mirror.lanes_staged as f64,
    );
    report.metric("engine.aggregate_ns_per_lane", &aggregate, 1e9);
    let stages = (generate.median() + stage.median() + sweep.median() + aggregate.median()) * lanes;
    report.value("pipeline.coverage", stages / epoch_times.median());
    let traced = tracer.durations("mirror.epoch").median();
    let untraced = tracer.durations("mirror.epoch_untraced").median();
    report.line(format!(
        "tracing overhead = {:.4} (mirror epoch {traced:.6} s with spans, {untraced:.6} s without)",
        traced / untraced - 1.0
    ));
    crate::write_spans(o, &tracer, report)
}
