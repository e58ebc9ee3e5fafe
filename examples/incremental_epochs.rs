//! Push-mode incremental evaluation: replays the `diurnal-low-churn`
//! registry scenario (64 nodes / 192 fused lanes, under 2% of which move
//! per epoch) under `EvalMode::Full` and `EvalMode::Incremental`, checks
//! the two report streams are bit-identical, and demonstrates that a
//! killed-and-resumed incremental run lands on exactly the same reports.
//!
//! ```text
//! cargo run --release --example incremental_epochs
//! ```

use greennfv::prelude::*;
use nfv_sim::prelude::*;
use std::time::Instant;

fn main() {
    let scenario = Scenario::by_name("diurnal-low-churn").expect("registry scenario");
    let lanes: usize = scenario.nodes.iter().map(|n| n.tenants.len()).sum();
    // A long horizon is the regime incremental evaluation exists for: the
    // mandatory full priming sweep on epoch 0 amortizes away.
    let horizon = 4 * scenario.epochs as usize;
    println!(
        "scenario `{}`: {} nodes, {} fused lanes, horizon {} epochs of {:.0} s",
        scenario.name,
        scenario.nodes.len(),
        lanes,
        horizon,
        scenario.tuning.epoch_s
    );
    println!(
        "descriptor opts in via `\"evaluation\": \"incremental\"` (parsed: {:?})",
        scenario.evaluation
    );

    // Full sweep: every lane, every epoch, through the epoch loop.
    let mut full = scenario.build_cluster().expect("scenario builds");
    let t0 = Instant::now();
    let full_reports = full.run_epochs_eval(horizon, EvalMode::Full);
    let full_dt = t0.elapsed();

    // Incremental: epoch 0 primes (full sweep + cache fill); afterwards the
    // traffic layer's bitwise `LoadDelta::Unchanged` verdicts keep the
    // plateau lanes clean, so the kernel re-runs only the dirty 8-lane
    // groups and everything else scatter-copies from the retained outputs.
    let mut inc = scenario.build_cluster().expect("scenario builds");
    let t0 = Instant::now();
    let inc_reports = inc.run_epochs_eval(horizon, EvalMode::Incremental);
    let inc_dt = t0.elapsed();

    assert_eq!(
        full_reports, inc_reports,
        "incremental evaluation must be bit-identical to the full sweep"
    );
    println!(
        "full:        {:>10.2?} for {} epochs ({} lane-evaluations)",
        full_dt,
        horizon,
        horizon * lanes
    );
    println!(
        "incremental: {:>10.2?} for the same epochs, bit-identical reports ({:.2}x)",
        inc_dt,
        inc_dt.as_secs_f64() / full_dt.as_secs_f64()
    );

    // Kill/resume: run the first third, checkpoint every node's cursor as
    // JSON, drop the cluster, rebuild from the descriptor, restore, and
    // finish. Epoch 0 of the resumed run re-primes the cache, so the tail
    // reports are bit-identical to the uninterrupted stream.
    let kill_at = horizon / 3;
    let mut first = scenario.build_cluster().expect("scenario builds");
    let mut resumed_reports = first.run_epochs_eval(kill_at, EvalMode::Incremental);
    let cursors: Vec<String> = (0..scenario.nodes.len())
        .map(|i| {
            let cursor = first.node_mut(i).expect("node index").cursor();
            serde_json::to_string(&cursor).expect("cursor serializes")
        })
        .collect();
    drop(first); // the "kill": all cached incremental state is gone

    let mut second = scenario.build_cluster().expect("scenario builds");
    for (i, json) in cursors.iter().enumerate() {
        let cursor: NodeCursor = serde_json::from_str(json).expect("cursor round-trips");
        second
            .node_mut(i)
            .expect("node index")
            .restore_cursor(&cursor)
            .expect("cursor matches the rebuilt node");
    }
    resumed_reports.extend(second.run_epochs_eval(horizon - kill_at, EvalMode::Incremental));
    assert_eq!(
        full_reports, resumed_reports,
        "killed-and-resumed incremental run must match the uninterrupted one"
    );
    println!("kill at epoch {kill_at} + cursor JSON round-trip + resume: still bit-identical");
}
