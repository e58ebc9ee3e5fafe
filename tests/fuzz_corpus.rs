//! Differential runs over the seeded scenario-fuzz corpus.
//!
//! `greennfv::scenario::fuzz` expands a master seed into structurally valid
//! scenarios covering five stress shapes (flash crowds, mid-horizon node
//! failures, DVFS throttling, tenant storms, diurnal fleets). This harness
//! is the corpus's consumer contract, and the CI fuzz-smoke job replays it
//! on every push with the fixed seed below:
//!
//! * every corpus member validates, builds, and reproduces from its seed;
//! * the fused cluster epoch matches running every node serially — **bit
//!   for bit** — for each member's full horizon (the batch-equivalence
//!   contract, probed far off the hand-written registry);
//! * full evaluation matches incremental evaluation bit for bit, so the
//!   dirty-lane cache can never change a result, only skip work;
//! * a proptest leg re-derives the same guarantees from arbitrary seeds.

use greennfv::prelude::*;
use nfv_sim::prelude::*;
use proptest::prelude::*;

/// Fixed master seed the CI fuzz-smoke job replays.
const CORPUS_SEED: u64 = 0x5EED_F022;

/// Corpus size: the acceptance floor is 64 seeded scenarios per CI run.
const CORPUS_N: usize = 64;

/// One epoch-by-epoch fused-vs-serial sweep (bitwise equality of every
/// node report, every epoch).
fn assert_fused_matches_serial(sc: &Scenario) {
    let mut fused = sc.build_cluster().expect("corpus scenario builds");
    let mut serial = sc.build_cluster().expect("corpus scenario builds twice");
    for epoch in 0..sc.epochs {
        let fused_report = fused.run_epoch();
        let serial_reports: Vec<NodeEpochReport> = (0..serial.len())
            .map(|i| serial.node_mut(i).unwrap().run_epoch())
            .collect();
        assert_eq!(
            fused_report.nodes, serial_reports,
            "{}: fused epoch {epoch} diverged from the serial path",
            sc.name
        );
    }
}

#[test]
fn corpus_is_deterministic_and_structurally_valid() {
    let scenarios = corpus(CORPUS_SEED, CORPUS_N);
    assert_eq!(scenarios.len(), CORPUS_N);
    assert_eq!(
        scenarios,
        corpus(CORPUS_SEED, CORPUS_N),
        "same master seed must reproduce the corpus"
    );
    let mut names = std::collections::HashSet::new();
    for sc in &scenarios {
        sc.validate()
            .unwrap_or_else(|e| panic!("{} failed validation: {e}", sc.name));
        assert!(names.insert(sc.name.clone()), "duplicate name {}", sc.name);
        // Each member also reproduces alone from its stamped seed.
        assert_eq!(
            *sc,
            fuzz_scenario(sc.seed),
            "{} is not seed-stable",
            sc.name
        );
    }
    // The corpus must exercise every shape, not cluster on a few.
    for shape in FuzzShape::ALL {
        assert!(
            scenarios.iter().any(|sc| sc.name.contains(shape.name())),
            "shape {} never appeared in the corpus",
            shape.name()
        );
    }
}

#[test]
fn corpus_fused_epochs_match_serial_bit_for_bit() {
    for sc in corpus(CORPUS_SEED, CORPUS_N) {
        assert_fused_matches_serial(&sc);
    }
}

#[test]
fn corpus_full_evaluation_matches_incremental_bit_for_bit() {
    for sc in corpus(CORPUS_SEED, CORPUS_N) {
        let mut full = sc.build_cluster().expect("corpus scenario builds");
        let mut inc = sc.build_cluster().expect("corpus scenario builds twice");
        let full_reports = full.run_epochs_eval(sc.epochs as usize, EvalMode::Full);
        let inc_reports = inc.run_epochs_eval(sc.epochs as usize, EvalMode::Incremental);
        assert_eq!(
            full_reports, inc_reports,
            "{}: incremental evaluation diverged from full",
            sc.name
        );
    }
}

#[test]
fn corpus_members_run_end_to_end_deterministically() {
    // Beyond raw epoch reports: the scored scenario run (SLA rewards,
    // per-tenant summaries) is reproducible and well-formed for a slice of
    // the corpus (the full set re-runs each scenario twice; keep it cheap).
    for sc in corpus(CORPUS_SEED, 10) {
        let run = sc.run().expect("corpus scenario runs");
        let tenants: usize = sc.nodes.iter().map(|n| n.tenants.len()).sum();
        assert_eq!(
            run.records.len(),
            tenants * sc.epochs as usize,
            "{}",
            sc.name
        );
        for t in &run.tenants {
            assert!(
                t.mean_reward.is_finite() && (0.0..=1.0).contains(&t.satisfaction_frac),
                "{}: tenant {} summary out of range",
                sc.name,
                t.tenant
            );
        }
        assert_eq!(run, sc.run().unwrap(), "{}: nondeterministic run", sc.name);
    }
}

proptest! {
    /// Any seed yields a valid, reproducible scenario whose serde twin and
    /// fused/serial epoch paths all agree bitwise (first epoch only — the
    /// fixed corpus above sweeps full horizons).
    #[test]
    fn arbitrary_seeds_yield_valid_differential_scenarios(seed in any::<u64>()) {
        let sc = fuzz_scenario(seed);
        prop_assert_eq!(&sc, &fuzz_scenario(seed), "generation must be pure");
        sc.validate().expect("fuzzed scenario validates");
        let back = Scenario::from_json(&sc.to_json()).expect("round-trip parses");
        prop_assert_eq!(&back, &sc, "descriptor drifted through JSON");

        let mut fused = sc.build_cluster().expect("fuzzed scenario builds");
        let mut serial = sc.build_cluster().expect("fuzzed scenario builds twice");
        let fused_report = fused.run_epoch();
        let serial_reports: Vec<NodeEpochReport> = (0..serial.len())
            .map(|i| serial.node_mut(i).unwrap().run_epoch())
            .collect();
        prop_assert_eq!(
            &fused_report.nodes,
            &serial_reports,
            "fused first epoch diverged from serial"
        );
    }
}
