//! `repro` — regenerates every table and figure of the GreenNFV paper.
//!
//! ```text
//! repro [fig1|fig2|fig3|fig4|fig6|fig7|fig8|fig9|fig10|fig11|dag|all] [--full] [--seed N]
//! repro shard-worker
//! ```
//!
//! `--full` uses the long training budgets recorded in EXPERIMENTS.md;
//! the default quick mode finishes in well under a minute per figure.
//!
//! The fig2/fig3 grids run through the content-addressed evaluation cache
//! (`FigCache`) — bit-identical to the uncached drivers, pinned by the
//! golden snapshots — and `dag` demos the experiment-DAG driver with a
//! warm re-run served entirely from the memo.

use greennfv::prelude::*;
use greennfv_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-worker") {
        // Worker mode for `nfv_sim::shard::ShardedCluster`: build the
        // task's node slice once, answer run frames on stdin/stdout until
        // stdin ends, then exit 0. The block buffer matters: `StdoutLock`
        // is line-buffered and binary frames are full of 0x0A bytes; the
        // generous capacity batches many epoch frames per pipe write
        // (worker_main flushes after each done frame).
        let mut input = std::io::stdin().lock();
        let mut output = std::io::BufWriter::with_capacity(256 * 1024, std::io::stdout().lock());
        match nfv_sim::shard::worker_main(&mut input, &mut output) {
            Ok(()) => return,
            Err(err) => {
                eprintln!("repro shard-worker: {err}");
                std::process::exit(1);
            }
        }
    }
    let effort = if args.iter().any(|a| a == "--full") {
        Effort::Full
    } else {
        Effort::Quick
    };
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let which: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with("fig") || *a == "all" || *a == "dag")
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };
    let want = |name: &str| which.iter().any(|w| *w == name || *w == "all");

    println!("GreenNFV reproduction harness (mode: {effort:?}, seed: {seed})\n");

    if want("fig1") {
        println!("== Figure 1: LLC partitioning (two chains, 13 vs 1 Mpps) ==");
        println!("{}", render_fig1(&fig1_llc(seed)));
    }
    let figs = FigCache::default();
    if want("fig2") {
        println!("== Figure 2: CPU frequency sweep (3-NF chain, 1518 B line rate) ==");
        println!("{}", render_fig2(&fig2_freq_cached(seed, &figs)));
    }
    if want("fig3") {
        println!("== Figure 3: batch-size sweep ==");
        println!("{}", render_fig3(&fig3_batch_cached(seed, &figs)));
    }
    if want("fig4") {
        println!("== Figure 4: DMA buffer sweep (64 B vs 1518 B) ==");
        println!("{}", render_fig4(&fig4_dma(seed)));
    }
    if want("fig6") {
        println!("== Figure 6: Maximum-Throughput SLA training (cap 2000 J) ==");
        let out = train_curves(Sla::paper_max_throughput(), effort, seed);
        println!("{}", render_training(&out.history, false));
        println!("training energy: {:.0} J\n", out.training_energy_j);
    }
    if want("fig7") {
        println!("== Figure 7: Minimum-Energy SLA training (floor 7.5 Gbps) ==");
        let out = train_curves(Sla::paper_min_energy(), effort, seed);
        println!("{}", render_training(&out.history, false));
        println!("training energy: {:.0} J\n", out.training_energy_j);
    }
    if want("fig8") {
        println!("== Figure 8: Energy-Efficiency SLA training ==");
        let out = train_curves(Sla::EnergyEfficiency, effort, seed);
        println!("{}", render_training(&out.history, true));
        println!("training energy: {:.0} J\n", out.training_energy_j);
    }
    if want("fig9") {
        println!("== Figure 9: model comparison ==");
        let rep = fig9_compare(effort, seed);
        println!("{}", rep.render());
        for model in [
            "Heuristics",
            "EE-Pstate",
            "Q-Learning",
            "GreenNFV(MinE)",
            "GreenNFV(MaxT)",
            "GreenNFV(EE)",
        ] {
            if let (Some(t), Some(e)) = (
                rep.throughput_ratio(model, "Baseline"),
                rep.energy_ratio(model, "Baseline"),
            ) {
                println!(
                    "{model:>16}: {t:.2}x throughput, {:.0}% energy of baseline",
                    e * 100.0
                );
            }
        }
        println!();
    }
    if want("fig10") {
        println!("== Figure 10: fixed-SLA runtime traces (1 s ticks, 120 s) ==");
        let data = fig10_runtime(effort, seed);
        println!("-- (a) MaxTh, energy cap 110 J/tick (3.3 kJ per 30 s) --");
        println!("{}", render_trace(&data.maxt, 10));
        println!("-- (b) MinE, throughput floor 7.5 Gbps --");
        println!("{}", render_trace(&data.mine, 10));
    }
    if want("fig11") {
        println!("== Figure 11: energy saving incl. training cost (Eq. 9) ==");
        let curve = fig11_amortize(effort, seed);
        let hours: Vec<f64> = (1..=6).map(f64::from).collect();
        println!("{}", curve.render(&hours));
        println!(
            "asymptotic saving: {:.0}%; break-even after {:.2} h\n",
            curve.asymptotic_saving() * 100.0,
            curve.break_even_hours()
        );
    }
    if want("dag") {
        println!("== Experiment DAG: baseline -> ablations -> figure, content-addressed ==");
        let mut base = Scenario::by_name("two-tenant-shared-node").expect("registry name");
        base.seed = seed;
        base.epochs = base.epochs.min(12);
        let dag = ExperimentDag::new(vec![
            Experiment {
                name: "baseline".into(),
                spec: ExperimentSpec::Scenario(Box::new(base)),
            },
            Experiment {
                name: "freq-1.9".into(),
                spec: ExperimentSpec::Ablation {
                    base: "baseline".into(),
                    patch: ScenarioPatch {
                        freq_ghz: Some(1.9),
                        ..ScenarioPatch::default()
                    },
                },
            },
            Experiment {
                name: "half-load".into(),
                spec: ExperimentSpec::Ablation {
                    base: "baseline".into(),
                    patch: ScenarioPatch {
                        arrival_scale: Some(0.5),
                        ..ScenarioPatch::default()
                    },
                },
            },
            Experiment {
                name: "summary".into(),
                spec: ExperimentSpec::Figure {
                    inputs: vec!["baseline".into(), "freq-1.9".into(), "half-load".into()],
                },
            },
        ]);
        let driver = DagDriver::default();
        let cold = driver.run(&dag).expect("demo dag runs");
        println!(
            "{}",
            cold.figure("summary").expect("figure present").render()
        );
        let warm = driver.run(&dag).expect("demo dag runs");
        println!(
            "cold: {} executed; warm re-run: {} memo hits, {} executed\n",
            cold.executed(),
            warm.hits(),
            warm.executed()
        );
    }
}
