//! The GreenNFV workspace benchmark: four end-to-end workloads driven
//! through the crates' public API, each printing every metric by name with
//! its unit and checking its outputs against a path the repository pins as
//! bit-equal.
//!
//! ```text
//! e2ebench --workload <fleet-full|scenario-incremental|train-ddpg|fleet-sharded>
//!          [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//!          [--worker <repro binary>] [--trace-dir DIR]
//!          [--rustc VERSION] [--git-rev REV]
//! ```
//!
//! `BENCHMARK.json` runs `train-ddpg` and `fleet-sharded`. `fleet-full`
//! and `scenario-incremental` run the same way by hand; they are left out
//! of it because their run-to-run spread on a shared 2-core host exceeded
//! the bounds, and their layers are still traced by the `fleet-sharded`
//! traced run (the fused twin of its fleet and the registry's
//! `fleet-diurnal-1000`).
//!
//! `--trace 0` measures the end-to-end metrics with no tracing. `--trace 1`
//! is a separate run that times the calls into each layer from this
//! package's own files (spans kept in memory, written to `--trace-dir` at
//! the end) and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod fleet;
mod mirror;
mod report;
mod sharded;
mod stats;
mod train;

use std::path::PathBuf;

use report::{Report, END_TO_END, PER_LAYER};
use stats::Tracer;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20231112;

pub const WORKLOADS: [&str; 4] = [
    "fleet-full",
    "scenario-incremental",
    "train-ddpg",
    "fleet-sharded",
];

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub worker: Option<PathBuf>,
    pub trace_dir: Option<PathBuf>,
    pub rustc: String,
    pub git_rev: String,
}

impl Opts {
    /// Wall-time budget for repeating a short operation: `full` seconds at
    /// full size, none (just the minimum repetitions) at tiny size.
    pub fn budget(&self, full: f64) -> f64 {
        if self.tiny {
            0.0
        } else {
            full
        }
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        worker: None,
        trace_dir: None,
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                o.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            "--worker" => o.worker = Some(PathBuf::from(value()?)),
            "--trace-dir" => o.trace_dir = Some(PathBuf::from(value()?)),
            "--rustc" => o.rustc = value()?.clone(),
            "--git-rev" => o.git_rev = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

/// Writes the run's spans as JSON lines under `--trace-dir`, if given.
pub fn write_spans(o: &Opts, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let Some(dir) = &o.trace_dir else {
        report.line(format!(
            "spans: {} recorded, not written (no --trace-dir)",
            tracer.len()
        ));
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", o.workload, o.seed));
    std::fs::write(&path, tracer.to_json_lines())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.line(format!(
        "spans: {} written to {}",
        tracer.len(),
        path.display()
    ));
    Ok(())
}

fn run(o: &Opts) -> Result<(), String> {
    let mut report = Report::default();
    report.line(format!(
        "workload={} seed={} (default {DEFAULT_SEED}) seconds={} trace={} size={}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        if o.tiny { "tiny" } else { "full" }
    ));
    report.line(format!(
        "host: nproc={} profile={} rustc={} git_rev={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        o.rustc,
        o.git_rev
    ));
    match o.workload.as_str() {
        "fleet-full" => fleet::fleet_full(o, &mut report)?,
        "scenario-incremental" => fleet::scenario_incremental(o, &mut report)?,
        "train-ddpg" => train::train_ddpg(o, &mut report)?,
        "fleet-sharded" => sharded::fleet_sharded(o, &mut report)?,
        _ => unreachable!("workload validated by parse"),
    }
    if o.trace {
        report.print(&PER_LAYER, true)
    } else {
        let rss = stats::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
        report.value("peak_rss_mb", rss);
        report.print(&END_TO_END, false)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|o| run(&o));
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
