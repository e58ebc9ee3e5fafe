//! `fleet-sharded`: the `fleet-full` descriptor lowered to a blueprint and
//! run through `ShardedCluster` at two shards on the `repro shard-worker`
//! binary.

use std::time::Instant;

use nfv_sim::prelude::*;

use crate::fleet::{
    fleet_descriptor, fleet_trace, incremental_descriptor, lanes_of, scenario_split,
    simulated_outcomes, CheckpointProbe,
};
use crate::report::Report;
use crate::stats::{repeat_for, timed, timed_unstolen, Samples};
use crate::Opts;

/// Worker processes, each on a vCPU of its own while the workers run.
const SHARDS: u32 = 2;

fn shard_err(e: SimError) -> String {
    format!("sharded cluster: {e}")
}

/// The worker command: `<repro> shard-worker`. A missing binary is an
/// error, never a skipped workload.
fn worker(o: &Opts) -> Result<WorkerCommand, String> {
    let repro = o
        .worker
        .as_ref()
        .ok_or("fleet-sharded needs --worker <path to the built repro binary>")?;
    if !repro.is_file() {
        return Err(format!(
            "fleet-sharded: the repro shard-worker binary {} does not exist",
            repro.display()
        ));
    }
    Ok(WorkerCommand::new(repro, vec!["shard-worker".into()]))
}

pub fn fleet_sharded(o: &Opts, report: &mut Report) -> Result<(), String> {
    let worker = worker(o)?;
    let nodes = if o.tiny { 32 } else { 4096 };
    let per_call = if o.tiny { 4 } else { 16 };
    let desc = fleet_descriptor(o.seed, nodes);
    let lanes = lanes_of(&desc);
    report.line(format!(
        "size: nodes={nodes} lanes={lanes} shards={SHARDS} epochs_per_call={per_call} eval=full"
    ));

    // Set-up: descriptor → blueprint → sharded cluster → workers started
    // and through their first epoch.
    let start_cluster = || -> Result<ShardedCluster, String> {
        let bp = desc.to_blueprint().map_err(shard_err)?;
        let mut c = ShardedCluster::with_worker(bp, SHARDS, worker.clone()).map_err(shard_err)?;
        c.run_epochs(1).map_err(shard_err)?;
        Ok(c)
    };
    let mut cluster = None;
    let setup = repeat_for(5, o.budget(1.5), || {
        cluster = None;
        let (t, c) = timed_unstolen(SHARDS, start_cluster);
        cluster = Some(c?);
        Ok(t)
    })?;
    let mut cluster = cluster.expect("at least one set-up");
    report.metric("setup_s", &setup, 1.0);

    // Output check: the merged run equals the fused run of the same
    // blueprint (both have run one epoch at this point).
    let prefix = if o.tiny { 2 } else { 4 };
    let blueprint = desc.to_blueprint().map_err(shard_err)?;
    let expected = {
        let mut fused = blueprint.build().map_err(shard_err)?;
        fused.run_epochs(1);
        fused.run_epochs(prefix)
    };
    let merged = cluster.run_epochs(prefix).map_err(shard_err)?;
    report.check("sharded run == fused run", merged == expected);
    report.attempted += 1 + prefix as u64;
    simulated_outcomes(&desc, &merged, report);

    if o.trace {
        // The shard split, then the layers the workers run, traced
        // in-process on the same descriptor (the fused twin), and the
        // scenario layer on the registry's fleet-diurnal-1000.
        let third = o.seconds / 3.0;
        sharded_trace(o, third, &blueprint, &worker, report)?;
        fleet_trace(o, &desc, EvalMode::Full, third, report)?;
        let horizon = if o.tiny { 6 } else { 48 };
        return scenario_split(
            &incremental_descriptor(o.seed, horizon, o.tiny),
            third,
            report,
        );
    }

    // The user's call, with the composed cursors checkpointed and resumed
    // onto a second sharded cluster every round.
    let mut resumed =
        ShardedCluster::with_worker(blueprint, SHARDS, worker.clone()).map_err(shard_err)?;
    let mut probe = CheckpointProbe::default();
    let mut calls = Samples::new();
    let start = Instant::now();
    while calls.len() < 4 || start.elapsed().as_secs_f64() < o.seconds {
        let (t, r) = timed_unstolen(SHARDS, || cluster.run_epochs(per_call));
        std::hint::black_box(r.map_err(shard_err)?);
        calls.push(t);
        report.attempted += per_call as u64;
        probe.rep(
            || cluster.cursors().map_err(shard_err),
            |c| resumed.restore_cursors(c).map_err(shard_err),
        )?;
    }
    report.throughput(&calls, (lanes * per_call) as f64, per_call as f64);
    probe.report(report);
    let a = resumed.run_epochs(1).map_err(shard_err)?;
    let b = cluster.run_epochs(1).map_err(shard_err)?;
    report.check("resumed sharded fleet continues bit-equal", a == b);
    Ok(())
}

/// The shard layer split from outside: a one-epoch call (spawn, ship,
/// rebuild, one epoch, merge), a `per_call`-epoch call, and the same
/// call at one shard against the fused cluster.
fn sharded_trace(
    o: &Opts,
    budget: f64,
    blueprint: &ClusterBlueprint,
    worker: &WorkerCommand,
    report: &mut Report,
) -> Result<(), String> {
    let per_call = if o.tiny { 4 } else { 16 };
    let with = |shards| {
        ShardedCluster::with_worker(blueprint.clone(), shards, worker.clone()).map_err(shard_err)
    };
    let mut two = with(SHARDS)?;
    let mut one = with(1)?;
    let mut fused = blueprint.build().map_err(shard_err)?;
    let (mut spawn, mut epochs, mut ratio) = (Samples::new(), Samples::new(), Samples::new());
    let start = Instant::now();
    while ratio.len() < 5 || start.elapsed().as_secs_f64() < budget {
        let (t, r) = timed(|| two.run_epochs(1));
        r.map_err(shard_err)?;
        spawn.push(t);
        let (t, r) = timed(|| two.run_epochs(per_call));
        r.map_err(shard_err)?;
        epochs.push(t);
        let (t1, r) = timed(|| one.run_epochs(per_call));
        r.map_err(shard_err)?;
        let (tf, r) = timed(|| fused.run_epochs(per_call));
        std::hint::black_box(r);
        ratio.push(t1 / tf);
        report.attempted += 1 + 3 * per_call as u64;
    }
    report.metric("shard.spawn_s", &spawn, 1.0);
    report.metric("shard.epochs_s", &epochs, 1.0);
    report.metric("shard.overhead_ratio", &ratio, 1.0);
    Ok(())
}
