//! Sample summaries, the in-memory span recorder, and process probes.

use std::time::Instant;

/// A set of timing (or rate) samples summarised as a median plus the
/// highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Percentiles considered for the tail, in per mille, highest first.
const TAIL_LADDER: [usize; 4] = [999, 990, 900, 750];

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len() as f64
    }

    /// The samples with `f` applied to each.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Samples {
        Samples {
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest rank (1-based) of the `per_mille` percentile over `n`.
    fn rank(per_mille: usize, n: usize) -> usize {
        (per_mille * n).div_ceil(1000).clamp(1, n)
    }

    /// Nearest-rank percentile, given in per mille; NaN when empty.
    pub fn percentile(&self, per_mille: usize) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        v[Self::rank(per_mille, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least ten samples
    /// strictly beyond it, as (percent, value); `None` with too few samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.values.len();
        TAIL_LADDER
            .iter()
            .find(|&&p| n > 0 && n - Self::rank(p, n) >= 10)
            .map(|&p| (p as f64 / 10.0, self.percentile(p)))
    }

    /// `mean=… p50=… p99=… n=…` for the human-readable report.
    pub fn describe(&self, scale: f64) -> String {
        let mut s = format!(
            "mean={:.6} p50={:.6}",
            self.mean() * scale,
            self.median() * scale
        );
        if let Some((p, v)) = self.tail() {
            s.push_str(&format!(" p{p}={:.6}", v * scale));
        }
        s.push_str(&format!(" n={}", self.len()));
        s
    }
}

/// Samples `f` (which returns the seconds it measured) at least `min`
/// times and until `budget` seconds of wall time have passed, so short
/// operations collect enough samples for a steady median.
pub fn repeat_for(
    min: usize,
    budget: f64,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut s = Samples::new();
    while s.len() < min || start.elapsed().as_secs_f64() < budget {
        s.push(f()?);
    }
    Ok(s)
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Spans are kept until the run ends and written
/// out as JSON lines; nothing is formatted or flushed while timing.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// The root "parent" id: a span with no cause inside the benchmark.
pub const ROOT: u32 = 0;

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.secs());
        }
        s
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Seconds spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// vCPU seconds the hypervisor has withheld from this machine since boot:
/// the `steal` column of `/proc/stat` (all CPUs, in 1/100 s ticks), or 0
/// where the platform does not report it.
fn stolen_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Wall seconds spent in `f` and the vCPU seconds stolen from the machine
/// meanwhile, with its result.
pub fn timed_steal<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let before = stolen_s();
    let (t, r) = timed(f);
    (t, stolen_s() - before, r)
}

/// Seconds spent in `f`, which keeps `busy` vCPUs running, less the time
/// the hypervisor withheld from them meanwhile (the machine's stolen time,
/// shared evenly over the `busy` vCPUs), with its result.
///
/// On a shared host the stolen share of a busy vCPU swings between a few
/// percent and half of wall time over minutes, moving every wall time with
/// it; what is left is the time the program itself took. The steal counter
/// ticks every 10 ms, so time calls of at least tens of milliseconds with
/// it, and summarise many.
pub fn timed_unstolen<R>(busy: u32, f: impl FnOnce() -> R) -> (f64, R) {
    let (t, stolen, r) = timed_steal(f);
    (t - stolen / f64::from(busy), r)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_sample_counts() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.median(), 50.5);
        // 100 samples: p90 has ten beyond it, p99 only one.
        assert_eq!(s.tail(), Some((90.0, 90.0)));
        let mut few = Samples::new();
        few.push(1.0);
        assert_eq!(few.tail(), None);
    }
}
