//! End-to-end checks of every named scenario in the registry.
//!
//! One test per [`Scenario::NAMES`] entry (dashes become underscores), so
//! the CI scenario-matrix job can run exactly one scenario per matrix leg —
//! `cargo test -q --test scenarios -- <scenario_name>` — and a failure names
//! the exact scenario that broke. Each scenario check verifies:
//!
//! * the descriptor validates, builds, and runs end-to-end;
//! * the fused cluster epoch (all chains of all nodes as one column-pass
//!   batch) is **bit-identical** to running every node's epoch serially —
//!   the scenario-driven face of the batch-equivalence contract;
//! * runs are deterministic under the descriptor's seed;
//! * the serde round-trip reproduces identical epoch results.
//!
//! Registry-level tests pin the name list itself and keep the GitHub
//! Actions matrix in sync with it.

use greennfv::prelude::*;
use nfv_sim::prelude::*;

/// Full per-scenario check; see the module docs for the list.
fn check_scenario(name: &str) {
    let scenario = Scenario::by_name(name).expect("registry name resolves");
    assert_eq!(scenario.name, name);
    scenario.validate().expect("registry scenario validates");

    // Fused cluster epochs == serial per-node epochs, bit for bit, for the
    // scenario's full horizon — and one multi-epoch run of the epoch loop
    // == both.
    let mut fused = scenario.build_cluster().expect("scenario builds");
    let mut serial = scenario.build_cluster().expect("scenario builds twice");
    let mut pipelined = scenario.build_cluster().expect("scenario builds thrice");
    let pipelined_reports = pipelined.run_epochs(scenario.epochs as usize);
    for epoch in 0..scenario.epochs {
        let fused_report = fused.run_epoch();
        let serial_reports: Vec<NodeEpochReport> = (0..serial.len())
            .map(|i| serial.node_mut(i).unwrap().run_epoch())
            .collect();
        assert_eq!(
            fused_report.nodes, serial_reports,
            "{name}: fused epoch {epoch} diverged from the serial path"
        );
        assert_eq!(
            pipelined_reports[epoch as usize].nodes, serial_reports,
            "{name}: pipelined epoch {epoch} diverged from the serial path"
        );
    }

    // End-to-end run: right shape, live traffic, deterministic.
    let run = scenario.run().expect("scenario runs");
    let tenants: usize = scenario.nodes.iter().map(|n| n.tenants.len()).sum();
    assert_eq!(run.records.len(), tenants * scenario.epochs as usize);
    assert_eq!(run.tenants.len(), tenants);
    assert!(run.mean_throughput_gbps > 0.0, "{name}: dead cluster");
    assert!(run.mean_energy_j > 0.0);
    for t in &run.tenants {
        assert!(
            t.mean_reward.is_finite() && (0.0..=1.0).contains(&t.satisfaction_frac),
            "{name}: tenant {} summary out of range",
            t.tenant
        );
    }
    assert_eq!(run, scenario.run().unwrap(), "{name}: nondeterministic run");

    // Serde round-trip rebuilds a scenario with identical results.
    let back = Scenario::from_json(&scenario.to_json()).expect("round-trip parses");
    assert_eq!(back, scenario, "{name}: descriptor drifted through JSON");
    assert_eq!(
        back.run().unwrap(),
        run,
        "{name}: JSON twin ran differently"
    );
}

#[test]
fn baseline_homogeneous() {
    check_scenario("baseline-homogeneous");
}

#[test]
fn hetero_3_profile() {
    check_scenario("hetero-3-profile");
    // The three profiles produce genuinely different node power draws.
    let run = Scenario::by_name("hetero-3-profile")
        .unwrap()
        .run()
        .unwrap();
    let energies: Vec<f64> = run.tenants.iter().map(|t| t.mean_energy_j).collect();
    assert!(energies[0] != energies[1] && energies[1] != energies[2]);
}

#[test]
fn two_tenant_shared_node() {
    check_scenario("two-tenant-shared-node");
    // Both tenants live on one node and are scored against distinct SLAs.
    let run = Scenario::by_name("two-tenant-shared-node")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(run.tenants.len(), 2);
    assert!(run.tenants.iter().all(|t| t.node == 0));
    assert_ne!(run.tenants[0].sla, run.tenants[1].sla);
}

#[test]
fn tenant_storm() {
    check_scenario("tenant-storm");
    // Four bursty tenants share the node; the storm must actually stress
    // someone (some loss somewhere across the run).
    let run = Scenario::by_name("tenant-storm").unwrap().run().unwrap();
    assert_eq!(run.tenants.len(), 4);
    let max_loss = run
        .records
        .iter()
        .map(|r| r.loss_frac)
        .fold(0.0f64, f64::max);
    assert!(max_loss > 0.0, "storm scenario never stressed the node");
}

#[test]
fn diurnal_trace() {
    check_scenario("diurnal-trace");
    // Replay sweeps the full day: epochs must not be load-stationary.
    let run = Scenario::by_name("diurnal-trace").unwrap().run().unwrap();
    let min_t = run
        .records
        .iter()
        .map(|r| r.throughput_gbps)
        .fold(f64::INFINITY, f64::min);
    let max_t = run
        .records
        .iter()
        .map(|r| r.throughput_gbps)
        .fold(0.0f64, f64::max);
    assert!(max_t > 3.0 * min_t, "no diurnal swing: {min_t}..{max_t}");
}

#[test]
fn diurnal_low_churn() {
    check_scenario("diurnal-low-churn");
    let scenario = Scenario::by_name("diurnal-low-churn").unwrap();
    assert_eq!(scenario.evaluation, EvalMode::Incremental);
    // The whole point of the scenario: long plateaus with under 10% of the
    // lanes changing per steady epoch (only node 0 replays jittered churn).
    let churn = scenario.nodes[0].tenants.len();
    let lanes: usize = scenario.nodes.iter().map(|n| n.tenants.len()).sum();
    assert!(churn * 10 < lanes, "churn {churn}/{lanes} is not low");
    // Incremental epochs == serial per-node epochs, bit for bit, across the
    // full horizon (check_scenario pinned the full/pipelined paths already).
    let mut incremental = scenario.build_cluster().unwrap();
    let mut serial = scenario.build_cluster().unwrap();
    let reports = incremental.run_epochs_eval(scenario.epochs as usize, EvalMode::Incremental);
    for (epoch, report) in reports.iter().enumerate() {
        let expect: Vec<NodeEpochReport> = (0..serial.len())
            .map(|i| serial.node_mut(i).unwrap().run_epoch())
            .collect();
        assert_eq!(report.nodes, expect, "incremental epoch {epoch} diverged");
    }
}

#[test]
fn mixed_trace_hetero() {
    check_scenario("mixed-trace-hetero");
    let scenario = Scenario::by_name("mixed-trace-hetero").unwrap();
    // The widest scenario really mixes the axes: >1 node profile, >1 SLA
    // kind, and both traffic specs.
    let profiles: std::collections::HashSet<&str> = scenario
        .nodes
        .iter()
        .map(|n| n.profile.name.as_str())
        .collect();
    assert!(profiles.len() >= 3);
    let has_replay = scenario
        .nodes
        .iter()
        .flat_map(|n| &n.tenants)
        .any(|t| matches!(t.traffic, TrafficSpec::Replay { .. }));
    let has_flows = scenario
        .nodes
        .iter()
        .flat_map(|n| &n.tenants)
        .any(|t| matches!(t.traffic, TrafficSpec::Flows(_)));
    assert!(has_replay && has_flows);
}

#[test]
fn scale_out_edge() {
    check_scenario("scale-out-edge");
    // The newer NF kinds really are in the chain, and the front end moves
    // traffic through them.
    let scenario = Scenario::by_name("scale-out-edge").unwrap();
    let frontend = &scenario.nodes[0].tenants[0];
    assert!(frontend.nfs.contains(&NfKind::LoadBalancer));
    assert!(frontend.nfs.contains(&NfKind::Dedup));
    let run = scenario.run().unwrap();
    assert!(run.tenant(0, "frontend").unwrap().mean_throughput_gbps > 0.0);
}

#[test]
fn flash_crowd_replay() {
    check_scenario("flash-crowd-replay");
    // Promoted from the fuzz corpus: the mid-horizon spike is really there.
    // The spike occupies the middle fifth of the horizon, so the crowd
    // tenant's busiest epoch must far exceed its steady-state opening epoch.
    let run = Scenario::by_name("flash-crowd-replay")
        .unwrap()
        .run()
        .unwrap();
    let crowd: Vec<f64> = run
        .records
        .iter()
        .filter(|r| r.tenant == "crowd")
        .map(|r| r.throughput_gbps)
        .collect();
    let steady = crowd[0];
    let peak = crowd.iter().copied().fold(0.0f64, f64::max);
    assert!(
        peak > 2.0 * steady,
        "no flash crowd: steady {steady}, peak {peak}"
    );
    // And it recovers: the final epoch is back near the opening rate.
    let last = *crowd.last().unwrap();
    assert!(last < 0.5 * peak, "no recovery: last {last}, peak {peak}");
}

#[test]
fn failover_blackout() {
    check_scenario("failover-blackout");
    // The victim node's mid-horizon epochs collapse while the survivors
    // absorb a surge over the same window.
    let run = Scenario::by_name("failover-blackout")
        .unwrap()
        .run()
        .unwrap();
    let series = |tenant: &str| -> Vec<f64> {
        run.records
            .iter()
            .filter(|r| r.tenant == tenant)
            .map(|r| r.throughput_gbps)
            .collect()
    };
    let victim = series("svc-1");
    let survivor = series("svc-0");
    let victim_min = victim.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        victim_min < 0.05 * victim[0],
        "no blackout: min {victim_min} vs steady {}",
        victim[0]
    );
    let survivor_peak = survivor.iter().copied().fold(0.0f64, f64::max);
    assert!(
        survivor_peak > 1.2 * survivor[0],
        "no failover surge: peak {survivor_peak} vs steady {}",
        survivor[0]
    );
}

#[test]
fn throttle_edge_storm() {
    check_scenario("throttle-edge-storm");
    let scenario = Scenario::by_name("throttle-edge-storm").unwrap();
    // Every tenant is pinned at the edge profile's bottom DVFS rung — the
    // throttle is structural, not a controller decision.
    let profile = &scenario.nodes[0].profile;
    for t in &scenario.nodes[0].tenants {
        assert_eq!(
            t.knobs.freq_ghz, profile.freq_min_ghz,
            "{} not throttled",
            t.name
        );
    }
    // A throttled node under a bursty storm must actually drop packets.
    let run = scenario.run().unwrap();
    let max_loss = run
        .records
        .iter()
        .map(|r| r.loss_frac)
        .fold(0.0f64, f64::max);
    assert!(max_loss > 0.0, "throttled storm never stressed the node");
}

#[test]
fn fleet_diurnal_1000() {
    check_scenario("fleet-diurnal-1000");
    let scenario = Scenario::by_name("fleet-diurnal-1000").unwrap();
    assert_eq!(scenario.nodes.len(), 1000, "the fleet is the point");
    assert_eq!(scenario.evaluation, EvalMode::Incremental);
    // Only node 0 churns; 999 plateau lanes stay clean per steady epoch.
    let churn = scenario.nodes[0].tenants.len();
    let lanes: usize = scenario.nodes.iter().map(|n| n.tenants.len()).sum();
    assert!(churn * 100 < lanes, "churn {churn}/{lanes} is not low");
    // Incremental epochs == serial per-node epochs, bit for bit, at fleet
    // scale (check_scenario pinned the full/pipelined paths already).
    let mut incremental = scenario.build_cluster().unwrap();
    let mut serial = scenario.build_cluster().unwrap();
    let reports = incremental.run_epochs_eval(scenario.epochs as usize, EvalMode::Incremental);
    for (epoch, report) in reports.iter().enumerate() {
        let expect: Vec<NodeEpochReport> = (0..serial.len())
            .map(|i| serial.node_mut(i).unwrap().run_epoch())
            .collect();
        assert_eq!(report.nodes, expect, "incremental epoch {epoch} diverged");
    }
}

#[test]
fn sharded_fleet() {
    // check_scenario exercises the real multi-process path here: the
    // descriptor carries `shards: 2`, so every `run()` inside spawns two
    // `shard_worker` processes and merges their epoch streams (the
    // determinism and JSON-twin assertions therefore hold *across* the
    // process boundary).
    check_scenario("sharded-fleet");
    let scenario = Scenario::by_name("sharded-fleet").unwrap();
    assert_eq!(scenario.shards, 2, "the multi-process path is the point");
    // Sharded run == the same descriptor run fused in-process, exactly.
    let mut fused = scenario.clone();
    fused.shards = 0;
    assert_eq!(
        scenario.run().unwrap(),
        fused.run().unwrap(),
        "sharded-fleet: worker merge diverged from the fused path"
    );
}

#[test]
fn checkpoint_resume() {
    // The scenario-matrix leg for resumable training: a short sequential
    // run checkpointed mid-flight (JSON round-trip included) must finish
    // bit-identically to an uninterrupted twin. The exhaustive version
    // lives in tests/checkpoint_resume.rs; this leg keeps the contract in
    // the per-scenario CI matrix.
    let env_cfg = EnvConfig::paper(Sla::EnergyEfficiency, 77);
    let cfg = TrainConfig::quick(8, 77);
    let uninterrupted = train_with_env_config(env_cfg.clone(), &cfg);

    let mut taken = Vec::new();
    train_resumable(env_cfg, &cfg, 4, |ck| taken.push(ck));
    let mid = taken.first().expect("checkpoint at episode 4");
    assert_eq!(mid.next_episode, 4);
    let restored = TrainCheckpoint::from_json(&mid.to_json()).expect("JSON round-trip");
    let resumed = resume_from(restored).expect("resume runs");

    assert_eq!(resumed.history, uninterrupted.history);
    assert_eq!(resumed.best_score, uninterrupted.best_score);
    assert_eq!(resumed.best_sweep, uninterrupted.best_sweep);
    assert_eq!(
        resumed.agent.export_params().actor,
        uninterrupted.agent.export_params().actor
    );
}

#[test]
fn checkpoint_resume_incremental() {
    // The incremental face of the kill/resume contract: an incremental run
    // interrupted mid-horizon and restored from serialized node cursors
    // must finish bit-identically to an uninterrupted *full-evaluation*
    // run. The cached lane state is pure memoization — never part of the
    // checkpoint — so the resumed cluster's first epoch re-primes it.
    let scenario = Scenario::by_name("diurnal-low-churn").unwrap();
    let epochs = scenario.epochs as usize;
    let kill_at = epochs / 2;

    let mut full = scenario.build_cluster().unwrap();
    let uninterrupted = full.run_epochs_eval(epochs, EvalMode::Full);

    let mut interrupted = scenario.build_cluster().unwrap();
    let mut reports = interrupted.run_epochs_eval(kill_at, EvalMode::Incremental);
    // "Kill": serialize every node's cursor, drop the live cluster.
    let cursors: Vec<String> = (0..interrupted.len())
        .map(|i| serde_json::to_string(&interrupted.node_mut(i).unwrap().cursor()).unwrap())
        .collect();
    drop(interrupted);
    // "Resume": rebuild from the descriptor, restore every stream position.
    let mut resumed = scenario.build_cluster().unwrap();
    for (i, json) in cursors.iter().enumerate() {
        let cursor: NodeCursor = serde_json::from_str(json).unwrap();
        resumed
            .node_mut(i)
            .unwrap()
            .restore_cursor(&cursor)
            .unwrap();
    }
    reports.extend(resumed.run_epochs_eval(epochs - kill_at, EvalMode::Incremental));
    assert_eq!(reports, uninterrupted);
}

#[test]
fn registry_names_are_stable_and_unique() {
    let names: std::collections::HashSet<&str> = Scenario::NAMES.iter().copied().collect();
    assert_eq!(
        names.len(),
        Scenario::NAMES.len(),
        "duplicate registry name"
    );
    assert_eq!(Scenario::registry().len(), Scenario::NAMES.len());
    // The per-scenario tests above must cover the registry one-to-one: this
    // file declares exactly one test per name (underscored).
    let this_file = include_str!("scenarios.rs");
    for name in Scenario::NAMES {
        let test_fn = format!("fn {}()", name.replace('-', "_"));
        assert!(
            this_file.contains(&test_fn),
            "registry scenario `{name}` has no dedicated test fn"
        );
    }
}

#[test]
fn ci_matrix_covers_every_scenario() {
    // The GitHub Actions scenario-matrix job enumerates the registry by
    // (underscored) name; keep the YAML in lock-step with `Scenario::NAMES`.
    let workflow = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml"),
    )
    .expect("CI workflow exists");
    for name in Scenario::NAMES {
        let matrix_entry = name.replace('-', "_");
        assert!(
            workflow.contains(&matrix_entry),
            "scenario `{name}` missing from the CI matrix (expected `{matrix_entry}` in ci.yml)"
        );
    }
}
