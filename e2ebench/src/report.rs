//! What one run reports: end-to-end or per-layer metrics, output checks,
//! host metadata and simulated outcomes, printed as human-readable lines
//! followed by a single JSON object on the last line.

use std::collections::BTreeMap;

use crate::stats::Samples;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("lane_epochs_per_s", "1/s"),
    ("env_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("checkpoint_s", "s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints, with their units. A layer a
/// workload never calls reports 0 (its work counters show why).
pub const PER_LAYER: [(&str, &str); 28] = [
    ("traffic.generate_ns_per_lane", "ns"),
    ("traffic.unchanged_frac", "ratio"),
    ("batch.stage_ns_per_lane", "ns"),
    ("batch.lanes_staged", "count"),
    ("batch.sweep_ns_per_lane", "ns"),
    ("batch.swept_frac", "ratio"),
    ("engine.aggregate_ns_per_lane", "ns"),
    ("pipeline.epoch_us.p50", "us"),
    ("pipeline.epoch_us.tail", "us"),
    ("pipeline.coverage", "ratio"),
    ("scenario.build_s", "s"),
    ("scenario.epochs_s", "s"),
    ("scenario.score_s", "s"),
    ("shard.spawn_s", "s"),
    ("shard.epochs_s", "s"),
    ("shard.overhead_ratio", "ratio"),
    ("envs.step_us", "us"),
    ("envs.steps", "count"),
    ("nn.act_us", "us"),
    ("ddpg.update_us", "us"),
    ("ddpg.td_error_us", "us"),
    ("ddpg.updates", "count"),
    ("per.push_us", "us"),
    ("per.sample_us", "us"),
    ("per.update_priorities_us", "us"),
    ("ckpt.to_json_s", "s"),
    ("ckpt.from_json_s", "s"),
    ("ckpt.bytes", "count"),
];

/// Collects one run's results.
#[derive(Debug, Default)]
pub struct Report {
    lines: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Operations attempted: epochs (or episodes) plus output checks.
    pub attempted: u64,
}

impl Report {
    /// A free-form report line (host metadata, sizes, notes).
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// A simulated outcome: a property of the simulated system, not of the
    /// host, so a change that only speeds the simulator leaves it identical.
    pub fn simulated(&mut self, name: &str, value: f64) {
        self.lines.push(format!("simulated {name} = {value}"));
    }

    /// Records a metric from samples: its median is the value, and the
    /// median, tail percentile and sample count go to the report lines.
    pub fn metric(&mut self, name: &'static str, samples: &Samples, scale: f64) {
        self.metrics.insert(name, samples.median() * scale);
        self.lines
            .push(format!("metric {name}: {}", samples.describe(scale)));
    }

    /// Records `lane_epochs_per_s` and `env_steps_per_s` from the wall
    /// times of the user's calls, each doing the same `lane_epochs` and
    /// `steps` of work: the median per-call rate, with the rates'
    /// distribution in the report lines.
    pub fn throughput(&mut self, calls: &Samples, lane_epochs: f64, steps: f64) {
        for (name, work) in [
            ("lane_epochs_per_s", lane_epochs),
            ("env_steps_per_s", steps),
        ] {
            let rates = calls.map(|t| work / t);
            self.metrics.insert(name, rates.median());
            self.lines.push(format!(
                "metric {name}: {} over {:.3} s of calls",
                rates.describe(1.0),
                calls.sum()
            ));
        }
    }

    /// Records a metric with a single value (a count, ratio or constant).
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
        self.lines.push(format!("metric {name}: {value}"));
    }

    /// Records an output check; a failed check counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        self.lines.push(format!(
            "check {name}: {}",
            if ok { "ok" } else { "MISMATCH" }
        ));
        self.attempted += 1;
        self.checks.push((name, ok));
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    /// Prints the report; the last line is the JSON result object with the
    /// metric set `names` (every name must have been recorded, or be a
    /// per-layer metric of a layer this workload does not call).
    pub fn print(
        &self,
        names: &[(&'static str, &'static str)],
        absent_is_zero: bool,
    ) -> Result<(), String> {
        for l in &self.lines {
            println!("{l}");
        }
        let failed = self.failed();
        let attempted = self.attempted.max(1);
        println!(
            "failed_frac = {} ({failed} of {attempted} operations)",
            failed as f64 / attempted as f64
        );
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if absent_is_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        );
        Ok(())
    }
}
