//! Traffic generation (MoonGen substitute) and trace-driven replay.
//!
//! Generates packet arrivals for a [`FlowSet`] deterministically from a seed.
//! Two granularities are provided:
//!
//! * [`TrafficGen::next_window`] — a per-window arrival *count* sample used by
//!   the analytic epoch engine (fast path, millions of epochs per second);
//! * [`TrafficGen::generate_packets`] — concrete [`Packet`] values used by the
//!   functional data-plane tests and examples.
//!
//! Alongside the synthetic generators, [`TraceSource`] replays a recorded
//! [`Trace`] (a piecewise-constant rate/packet-size schedule, loadable from
//! CSV or any serde-backed format) with deterministic seeded jitter, so
//! long-horizon runs can be driven by real-world diurnal profiles instead of
//! stationary arrival processes. [`TrafficSource`] is the node-facing union
//! of both: every hosted chain samples its offered [`ChainLoad`] through it,
//! and the samples feed the fused batch path of
//! [`Cluster::run_epoch`](crate::cluster::Cluster::run_epoch) unchanged.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::engine::ChainLoad;
use crate::error::{SimError, SimResult};
use crate::flow::{ArrivalPattern, FlowSet, FlowSpec};
use crate::packet::{FiveTuple, Packet, MAX_PACKET_SIZE, MIN_PACKET_SIZE};

/// Whether the load sampled for a window differs from the previous window's.
///
/// Sources compare the *sampled values* bitwise, not their internal cursor
/// movement: a CBR flow set or a flat trace plateau reports
/// [`LoadDelta::Unchanged`] even though the stream advanced, which is what
/// lets the incremental batch engine skip clean lanes. `Changed` carries the
/// new arrival rate for cheap logging/telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadDelta {
    /// Bitwise-identical to the previous window's sampled load.
    Unchanged,
    /// The load changed; carries the new arrival rate in packets/second.
    Changed(f64),
}

impl LoadDelta {
    /// True iff the sampled load differs from the previous window's.
    pub fn is_changed(&self) -> bool {
        matches!(self, LoadDelta::Changed(_))
    }
}

/// Bitwise equality on sampled loads: `==` would conflate `-0.0` with `0.0`,
/// and clean-lane reuse must be reuse of the *exact* bits.
fn load_bits_eq(a: ChainLoad, b: ChainLoad) -> bool {
    a.arrival_pps.to_bits() == b.arrival_pps.to_bits()
        && a.mean_packet_size.to_bits() == b.mean_packet_size.to_bits()
        && a.burstiness.to_bits() == b.burstiness.to_bits()
}

/// Folds a freshly sampled load into the source's `last_load` memory and
/// reports whether it moved.
fn track_delta(last: &mut Option<ChainLoad>, load: ChainLoad) -> LoadDelta {
    let unchanged = last.is_some_and(|prev| load_bits_eq(prev, load));
    *last = Some(load);
    if unchanged {
        LoadDelta::Unchanged
    } else {
        LoadDelta::Changed(load.arrival_pps)
    }
}

/// Deterministic, seedable traffic generator.
#[derive(Debug)]
pub struct TrafficGen {
    flows: FlowSet,
    rng: StdRng,
    /// Per-flow ON/OFF phase for Markov flows (true = ON).
    onoff_state: Vec<bool>,
    now_ns: u64,
    /// Previous window's sampled load, for [`LoadDelta`] reporting.
    last_load: Option<ChainLoad>,
}

/// One flow's arrivals within a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowArrivals {
    /// Flow id.
    pub flow_id: u32,
    /// Packets arriving in the window.
    pub packets: f64,
    /// Packet size of this flow.
    pub packet_size: u32,
}

impl TrafficGen {
    /// Creates a generator for `flows` seeded with `seed`.
    pub fn new(flows: FlowSet, seed: u64) -> Self {
        let n = flows.len();
        Self {
            flows,
            rng: StdRng::seed_from_u64(seed),
            onoff_state: vec![true; n],
            now_ns: 0,
            last_load: None,
        }
    }

    /// The flow set being generated.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Samples per-flow arrival counts for a window of `window_s` seconds.
    ///
    /// CBR flows produce exactly rate × window packets; Poisson flows sample a
    /// (normal-approximated) Poisson count; Markov on/off flows toggle phase
    /// each window with probability matching their duty cycle and emit
    /// `peak_factor × rate` while ON.
    pub fn next_window(&mut self, window_s: f64) -> Vec<WindowArrivals> {
        let mut out = Vec::with_capacity(self.flows.len());
        // Split field borrows: the flow specs stay in place while the RNG
        // stream and ON/OFF phases advance (no per-window spec copies).
        let rng = &mut self.rng;
        let onoff = &mut self.onoff_state;
        debug_assert_eq!(self.flows.len(), onoff.len());
        for (f, on) in self.flows.flows().iter().zip(onoff.iter_mut()) {
            out.push(WindowArrivals {
                flow_id: f.id,
                packets: flow_window_packets(f, window_s, rng, on),
                packet_size: f.packet_size,
            });
        }
        self.now_ns += (window_s * 1e9) as u64;
        out
    }

    /// Total arrival rate observed for a sampled window, in packets/second.
    pub fn window_rate_pps(arrivals: &[WindowArrivals], window_s: f64) -> f64 {
        arrivals.iter().map(|a| a.packets).sum::<f64>() / window_s
    }

    /// Generates up to `max` concrete packets spread over `window_s` seconds.
    ///
    /// Used by functional tests and examples; the analytic engine uses
    /// [`Self::next_window`] instead.
    pub fn generate_packets(&mut self, window_s: f64, max: usize) -> Vec<Packet> {
        let arrivals = self.next_window(window_s);
        let total: f64 = arrivals.iter().map(|a| a.packets).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let scale = if total as usize > max {
            max as f64 / total
        } else {
            1.0
        };
        let mut pkts = Vec::new();
        let start_ns = self.now_ns.saturating_sub((window_s * 1e9) as u64);
        for a in &arrivals {
            let n = (a.packets * scale).round() as usize;
            for k in 0..n {
                let t = start_ns + ((window_s * 1e9) as u64 * k as u64) / (n.max(1) as u64);
                let tuple = FiveTuple::udp(
                    0x0a00_0000 | a.flow_id,
                    0x0b00_0000 | a.flow_id,
                    (1024 + a.flow_id as u16) % u16::MAX,
                    80,
                );
                pkts.push(Packet::new(tuple, a.packet_size, a.flow_id, t));
            }
        }
        pkts.sort_by_key(|p| p.arrival_ns);
        pkts
    }

    /// Samples one control window and folds it into the [`ChainLoad`] the
    /// epoch engine consumes: observed arrival rate over the window plus the
    /// flow set's static packet-size mix and burstiness. Advances the
    /// generator by one window.
    pub fn sample_load(&mut self, window_s: f64) -> ChainLoad {
        self.sample_load_delta(window_s).0
    }

    /// [`Self::sample_load`] plus a [`LoadDelta`] saying whether the sampled
    /// load moved since the previous window (bitwise comparison of the
    /// sampled values — CBR-only flow sets report `Unchanged` every window
    /// after the first). Advances the generator identically to
    /// `sample_load`, so mixing the two entry points never perturbs the
    /// stream.
    pub fn sample_load_delta(&mut self, window_s: f64) -> (ChainLoad, LoadDelta) {
        // The epoch engine only consumes the arrival *total*, so fold it
        // straight off the flow sweep instead of materializing the per-flow
        // window [`next_window`] builds: zero heap allocation per sample.
        // Same per-flow draws in the same order, and the `+=` fold starts at
        // 0.0 exactly like `window_rate_pps`'s iterator sum, so the result is
        // bit-identical to the former next_window → window_rate_pps chain
        // (`synthetic_sample_load_matches_manual_fold` pins this).
        let mut total = 0.0;
        let rng = &mut self.rng;
        let onoff = &mut self.onoff_state;
        debug_assert_eq!(self.flows.len(), onoff.len());
        for (f, on) in self.flows.flows().iter().zip(onoff.iter_mut()) {
            total += flow_window_packets(f, window_s, rng, on);
        }
        self.now_ns += (window_s * 1e9) as u64;
        let load = ChainLoad {
            arrival_pps: total / window_s,
            mean_packet_size: self.flows.mean_packet_size(),
            burstiness: self.flows.burstiness(),
        };
        let delta = track_delta(&mut self.last_load, load);
        (load, delta)
    }
}

/// One flow's packet count for a `window_s`-second window: CBR flows produce
/// exactly rate × window packets, Poisson flows a normal-approximated count
/// (two uniform draws), Markov ON/OFF flows toggle `on_state` with the
/// stationary probability of the other state (one draw) and emit
/// `peak_factor × rate` while ON. Shared by [`TrafficGen::next_window`] and
/// the allocation-free [`TrafficGen::sample_load_delta`] fold so the two
/// entry points consume the RNG stream identically.
#[inline]
fn flow_window_packets(f: &FlowSpec, window_s: f64, rng: &mut StdRng, on_state: &mut bool) -> f64 {
    let mean = f.rate_pps * window_s;
    match f.pattern {
        ArrivalPattern::Cbr => mean,
        ArrivalPattern::Poisson => {
            // Normal approximation N(mean, mean) is accurate for the
            // large counts seen at multi-kpps rates.
            let z = standard_normal(rng);
            (mean + z * mean.sqrt()).max(0.0)
        }
        ArrivalPattern::MarkovOnOff {
            peak_factor,
            on_fraction,
        } => {
            let on = *on_state;
            // Toggle with the stationary probability of the other state.
            let flip: f64 = rng.random();
            *on_state = if on {
                flip >= (1.0 - on_fraction) * 0.5
            } else {
                flip < on_fraction * 0.5
            };
            if on {
                mean * peak_factor
            } else {
                0.0
            }
        }
    }
}

/// One scalar Box–Muller standard normal draw: two uniforms, `std` math.
/// This is the sampling path of [`TrafficGen`] (Poisson counts) and
/// [`TraceSource`] (rate jitter).
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

// ---------------------------------------------------------------------------
// Trace-driven replay
// ---------------------------------------------------------------------------

/// One piecewise-constant segment of a recorded traffic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// How long this segment lasts, in seconds.
    pub duration_s: f64,
    /// Mean offered rate during the segment, packets per second.
    pub rate_pps: f64,
    /// Mean wire packet size during the segment, bytes (64..=1518).
    pub packet_size: u32,
    /// Peak-to-mean burstiness observed during the segment (>= 1).
    pub burstiness: f64,
}

impl TracePoint {
    /// Validates field ranges.
    pub fn validate(&self) -> SimResult<()> {
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(SimError::TraceConfig(format!(
                "duration_s {} must be finite and > 0",
                self.duration_s
            )));
        }
        if !self.rate_pps.is_finite() || self.rate_pps < 0.0 {
            return Err(SimError::TraceConfig(format!(
                "rate_pps {} must be finite and >= 0",
                self.rate_pps
            )));
        }
        if !(MIN_PACKET_SIZE..=MAX_PACKET_SIZE).contains(&self.packet_size) {
            return Err(SimError::TraceConfig(format!(
                "packet_size {} outside {MIN_PACKET_SIZE}..={MAX_PACKET_SIZE}",
                self.packet_size
            )));
        }
        if !self.burstiness.is_finite() || self.burstiness < 1.0 {
            return Err(SimError::TraceConfig(format!(
                "burstiness {} must be finite and >= 1",
                self.burstiness
            )));
        }
        Ok(())
    }
}

/// A recorded traffic trace: an ordered schedule of [`TracePoint`]s that is
/// replayed cyclically (a 24 h diurnal trace wraps around at midnight).
///
/// Traces are serde-serializable (JSON through the vendored `serde_json`)
/// and loadable from CSV via [`Trace::from_csv`]; an example diurnal trace
/// ships in `traces/diurnal.csv` at the repository root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    points: Vec<TracePoint>,
}

impl Trace {
    /// Builds a trace, validating every point.
    pub fn new(name: impl Into<String>, points: Vec<TracePoint>) -> SimResult<Self> {
        let trace = Self {
            name: name.into(),
            points,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Re-checks the trace invariants: at least one point, every point
    /// valid. [`Trace::new`] and [`Trace::from_csv`] enforce this at
    /// construction, but serde-deserialized traces bypass both — callers
    /// accepting external descriptors must re-validate.
    pub fn validate(&self) -> SimResult<()> {
        if self.points.is_empty() {
            return Err(SimError::TraceConfig("trace has no points".into()));
        }
        for (i, p) in self.points.iter().enumerate() {
            p.validate()
                .map_err(|e| SimError::TraceConfig(format!("point {i}: {e}")))?;
        }
        Ok(())
    }

    /// Parses the CSV trace format: a `duration_s,rate_pps,packet_size,burstiness`
    /// header line followed by one data row per point. Blank lines and lines
    /// starting with `#` are skipped; Windows (`\r\n`) line endings are
    /// accepted.
    ///
    /// The parser is total: **any** input — truncated rows, non-numeric or
    /// non-finite fields, out-of-range values, a missing header, an empty
    /// file — returns a [`SimError::TraceConfig`] naming the offending
    /// 1-based *file* line (comments and blanks included in the count),
    /// never a panic. A proptest in `tests/proptests.rs` feeds it garbage to
    /// keep that contract honest.
    pub fn from_csv(name: impl Into<String>, text: &str) -> SimResult<Self> {
        // Keep original line numbers through the comment/blank filter so
        // errors point at the real file line.
        let mut rows = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let (_, header) = rows
            .next()
            .ok_or_else(|| SimError::TraceConfig("empty CSV trace".into()))?;
        let expect = "duration_s,rate_pps,packet_size,burstiness";
        if header.replace(' ', "") != expect {
            return Err(SimError::TraceConfig(format!(
                "CSV header `{header}` != `{expect}`"
            )));
        }
        let mut points = Vec::new();
        for (lineno, row) in rows {
            let cols: Vec<&str> = row.split(',').map(str::trim).collect();
            if cols.len() != 4 {
                return Err(SimError::TraceConfig(format!(
                    "line {lineno}: expected 4 columns, found {}",
                    cols.len()
                )));
            }
            let parse_f = |s: &str, col: &str| -> SimResult<f64> {
                s.parse::<f64>()
                    .map_err(|_| SimError::TraceConfig(format!("line {lineno}: bad {col} `{s}`")))
            };
            let point = TracePoint {
                duration_s: parse_f(cols[0], "duration_s")?,
                rate_pps: parse_f(cols[1], "rate_pps")?,
                packet_size: cols[2].parse::<u32>().map_err(|_| {
                    SimError::TraceConfig(format!("line {lineno}: bad packet_size `{}`", cols[2]))
                })?,
                burstiness: parse_f(cols[3], "burstiness")?,
            };
            // Range-check each row where it sits, so the error names the
            // line instead of a point index the caller cannot see.
            point
                .validate()
                .map_err(|e| SimError::TraceConfig(format!("line {lineno}: {e}")))?;
            points.push(point);
        }
        Self::new(name, points)
    }

    /// Renders the trace in the [`Trace::from_csv`] format. Floats print in
    /// shortest-round-trip form, so `from_csv(to_csv(t)) == t` exactly.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "# trace: {}\nduration_s,rate_pps,packet_size,burstiness\n",
            {
                // Keep the name comment single-line even for hostile names.
                self.name.replace(['\n', '\r'], " ")
            }
        );
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{}\n",
                p.duration_s, p.rate_pps, p.packet_size, p.burstiness
            ));
        }
        out
    }

    /// Trace name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schedule points in replay order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Total scheduled duration of one replay cycle, seconds.
    pub fn total_duration_s(&self) -> f64 {
        self.points.iter().map(|p| p.duration_s).sum()
    }

    /// The point in force at time `t_s`, replaying cyclically.
    pub fn point_at(&self, t_s: f64) -> &TracePoint {
        let total = self.total_duration_s();
        let mut t = if total > 0.0 {
            t_s.rem_euclid(total)
        } else {
            0.0
        };
        for p in &self.points {
            if t < p.duration_s {
                return p;
            }
            t -= p.duration_s;
        }
        self.points.last().expect("trace validated non-empty")
    }
}

/// Replays a [`Trace`] as per-epoch offered loads with deterministic seeded
/// jitter: each sampled window draws a multiplicative Gaussian factor
/// `1 + jitter_frac · z` (clamped at 0) around the scheduled rate, so two
/// sources with the same trace and seed produce identical load sequences.
#[derive(Debug)]
pub struct TraceSource {
    trace: Trace,
    jitter_frac: f64,
    rng: StdRng,
    now_s: f64,
    /// Previous window's sampled load, for [`LoadDelta`] reporting.
    last_load: Option<ChainLoad>,
}

impl TraceSource {
    /// Creates a replay source over `trace`; `jitter_frac` is the relative
    /// standard deviation of the per-window rate jitter (0 disables it).
    pub fn new(trace: Trace, jitter_frac: f64, seed: u64) -> SimResult<Self> {
        if !jitter_frac.is_finite() || jitter_frac < 0.0 {
            return Err(SimError::TraceConfig(format!(
                "jitter_frac {jitter_frac} must be finite and >= 0"
            )));
        }
        Ok(Self {
            trace,
            jitter_frac,
            rng: StdRng::seed_from_u64(seed),
            now_s: 0.0,
            last_load: None,
        })
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current replay position in seconds (wraps at the trace length).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Samples the offered load for the next window and advances replay time.
    pub fn sample_load(&mut self, window_s: f64) -> ChainLoad {
        self.sample_load_delta(window_s).0
    }

    /// [`Self::sample_load`] plus a [`LoadDelta`]. The delta compares the
    /// *sampled values*, not cursor movement: a zero-jitter replay crossing
    /// from one trace point to another with equal rate/size/burstiness is
    /// `Unchanged`, so flat trace plateaus count as clean even though the
    /// replay clock keeps advancing. The jitter stream draws identically to
    /// `sample_load`, so mixing entry points never perturbs the RNG.
    pub fn sample_load_delta(&mut self, window_s: f64) -> (ChainLoad, LoadDelta) {
        let p = *self.trace.point_at(self.now_s);
        self.now_s += window_s;
        let jitter = if self.jitter_frac > 0.0 {
            let z = standard_normal(&mut self.rng);
            (1.0 + self.jitter_frac * z).max(0.0)
        } else {
            1.0
        };
        let load = ChainLoad {
            arrival_pps: p.rate_pps * jitter,
            mean_packet_size: f64::from(p.packet_size),
            burstiness: p.burstiness,
        };
        let delta = track_delta(&mut self.last_load, load);
        (load, delta)
    }
}

/// A chain's offered-load source: either a synthetic [`TrafficGen`] over a
/// [`FlowSet`] or trace-driven replay through a [`TraceSource`].
///
/// [`Node`](crate::node::Node) samples every hosted chain's load through
/// this union, so replayed and synthetic chains flow through the identical
/// epoch pipeline (and the fused cluster batch) with no special casing.
#[derive(Debug)]
pub enum TrafficSource {
    /// Seeded synthetic generation from a flow set.
    Synthetic(TrafficGen),
    /// Deterministic trace replay with seeded jitter.
    Replay(TraceSource),
}

impl TrafficSource {
    /// Synthetic source over `flows`.
    pub fn synthetic(flows: FlowSet, seed: u64) -> Self {
        Self::Synthetic(TrafficGen::new(flows, seed))
    }

    /// Replay source over `trace`.
    pub fn replay(trace: Trace, jitter_frac: f64, seed: u64) -> SimResult<Self> {
        Ok(Self::Replay(TraceSource::new(trace, jitter_frac, seed)?))
    }

    /// Samples the offered load for one window, advancing the source.
    pub fn sample_load(&mut self, window_s: f64) -> ChainLoad {
        self.sample_load_delta(window_s).0
    }

    /// Samples the offered load for one window plus a [`LoadDelta`] flagging
    /// whether it moved since the previous window. Advances the source
    /// identically to [`Self::sample_load`].
    pub fn sample_load_delta(&mut self, window_s: f64) -> (ChainLoad, LoadDelta) {
        match self {
            TrafficSource::Synthetic(gen) => gen.sample_load_delta(window_s),
            TrafficSource::Replay(src) => src.sample_load_delta(window_s),
        }
    }

    /// The flow set of a synthetic source (`None` for trace replay).
    pub fn flows(&self) -> Option<&FlowSet> {
        match self {
            TrafficSource::Synthetic(gen) => Some(gen.flows()),
            TrafficSource::Replay(_) => None,
        }
    }

    /// Snapshot of this source's replay position ([`TrafficCursor`]).
    pub fn cursor(&self) -> TrafficCursor {
        match self {
            TrafficSource::Synthetic(gen) => gen.cursor(),
            TrafficSource::Replay(src) => src.cursor(),
        }
    }

    /// Restores a [`TrafficCursor`] taken from a source of the same shape
    /// (same variant; for synthetic sources, same flow count). The stream
    /// resumes bit-exactly at the captured point.
    pub fn restore_cursor(&mut self, cursor: &TrafficCursor) -> SimResult<()> {
        match (self, cursor) {
            (TrafficSource::Synthetic(gen), TrafficCursor::Synthetic { .. }) => {
                gen.restore_cursor(cursor)
            }
            (TrafficSource::Replay(src), TrafficCursor::Replay { .. }) => {
                src.restore_cursor(cursor)
            }
            _ => Err(SimError::TraceConfig(
                "traffic cursor kind does not match the source (synthetic vs replay)".into(),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint cursors
// ---------------------------------------------------------------------------

/// Serializable position of a [`TrafficSource`] stream: the RNG state plus
/// the source's replay clock. Restoring a cursor resumes the offered-load
/// sequence **bit-exactly** where the snapshot was taken — the foundation of
/// the checkpoint/resume guarantee (an interrupted run must see the same
/// traffic as an uninterrupted one).
///
/// The RNG state is exposed by the vendored `rand` shim
/// (`StdRng::state`/`from_state`, a documented divergence from crates.io
/// `rand`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficCursor {
    /// Position of a synthetic [`TrafficGen`].
    Synthetic {
        /// xoshiro256++ state of the generator.
        rng: [u64; 4],
        /// Per-flow Markov ON/OFF phase.
        onoff_state: Vec<bool>,
        /// Simulated clock, nanoseconds.
        now_ns: u64,
        /// Previous window's sampled load (the [`LoadDelta`] memory), so a
        /// resumed source reports the same deltas as an uninterrupted one.
        /// Defaults to `None` for pre-delta cursors, which merely makes the
        /// first resumed window report `Changed` — still bit-exact output.
        #[serde(default)]
        last_load: Option<ChainLoad>,
    },
    /// Position of a [`TraceSource`] replay.
    Replay {
        /// xoshiro256++ state of the jitter stream.
        rng: [u64; 4],
        /// Replay clock, seconds (wraps at the trace length).
        now_s: f64,
        /// Previous window's sampled load (the [`LoadDelta`] memory).
        #[serde(default)]
        last_load: Option<ChainLoad>,
    },
}

impl TrafficGen {
    /// Snapshot of the generator's stream position.
    pub fn cursor(&self) -> TrafficCursor {
        TrafficCursor::Synthetic {
            rng: self.rng.state(),
            onoff_state: self.onoff_state.clone(),
            now_ns: self.now_ns,
            last_load: self.last_load,
        }
    }

    /// Restores a [`TrafficGen::cursor`] snapshot; the ON/OFF vector must
    /// match this generator's flow count.
    pub fn restore_cursor(&mut self, cursor: &TrafficCursor) -> SimResult<()> {
        let TrafficCursor::Synthetic {
            rng,
            onoff_state,
            now_ns,
            last_load,
        } = cursor
        else {
            return Err(SimError::TraceConfig(
                "expected a synthetic traffic cursor".into(),
            ));
        };
        if onoff_state.len() != self.flows.len() {
            return Err(SimError::TraceConfig(format!(
                "cursor has {} ON/OFF phases for {} flows",
                onoff_state.len(),
                self.flows.len()
            )));
        }
        self.rng = StdRng::from_state(*rng);
        self.onoff_state = onoff_state.clone();
        self.now_ns = *now_ns;
        self.last_load = *last_load;
        Ok(())
    }
}

impl TraceSource {
    /// Snapshot of the replay position and jitter stream.
    pub fn cursor(&self) -> TrafficCursor {
        TrafficCursor::Replay {
            rng: self.rng.state(),
            now_s: self.now_s,
            last_load: self.last_load,
        }
    }

    /// Restores a [`TraceSource::cursor`] snapshot.
    pub fn restore_cursor(&mut self, cursor: &TrafficCursor) -> SimResult<()> {
        let TrafficCursor::Replay {
            rng,
            now_s,
            last_load,
        } = cursor
        else {
            return Err(SimError::TraceConfig(
                "expected a replay traffic cursor".into(),
            ));
        };
        if !now_s.is_finite() || *now_s < 0.0 {
            return Err(SimError::TraceConfig(format!(
                "cursor replay clock {now_s} must be finite and >= 0"
            )));
        }
        self.rng = StdRng::from_state(*rng);
        self.now_s = *now_s;
        self.last_load = *last_load;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;

    fn flows(v: Vec<FlowSpec>) -> FlowSet {
        FlowSet::new(v).unwrap()
    }

    #[test]
    fn cbr_is_exact() {
        let mut g = TrafficGen::new(flows(vec![FlowSpec::cbr(0, 1000.0, 64)]), 1);
        let w = g.next_window(2.0);
        assert_eq!(w.len(), 1);
        assert!((w[0].packets - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_mean_converges() {
        let mut g = TrafficGen::new(flows(vec![FlowSpec::poisson(0, 10_000.0, 64)]), 42);
        let mut total = 0.0;
        let n = 500;
        for _ in 0..n {
            total += g.next_window(1.0)[0].packets;
        }
        let mean = total / n as f64;
        assert!((mean - 10_000.0).abs() < 100.0, "mean {mean}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let fs = flows(vec![FlowSpec::poisson(0, 5_000.0, 256)]);
        let mut a = TrafficGen::new(fs.clone(), 7);
        let mut b = TrafficGen::new(fs, 7);
        for _ in 0..10 {
            assert_eq!(a.next_window(1.0), b.next_window(1.0));
        }
    }

    #[test]
    fn onoff_duty_cycle_approximates_mean() {
        let f = FlowSpec {
            pattern: ArrivalPattern::MarkovOnOff {
                peak_factor: 2.0,
                on_fraction: 0.5,
            },
            ..FlowSpec::cbr(0, 1000.0, 64)
        };
        let mut g = TrafficGen::new(flows(vec![f]), 3);
        let mut total = 0.0;
        let n = 2000;
        for _ in 0..n {
            total += g.next_window(1.0)[0].packets;
        }
        let mean = total / n as f64;
        // peak 2000 pps half the time → mean ≈ 1000.
        assert!((mean - 1000.0).abs() < 200.0, "mean {mean}");
    }

    #[test]
    fn generated_packets_are_time_ordered_and_capped() {
        let mut g = TrafficGen::new(flows(vec![FlowSpec::cbr(0, 1e6, 64)]), 5);
        let pkts = g.generate_packets(1.0, 500);
        assert!(pkts.len() <= 500);
        assert!(!pkts.is_empty());
        assert!(pkts.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(pkts.iter().all(|p| p.size == 64 && p.flow_id == 0));
    }

    fn diurnal_like_trace() -> Trace {
        Trace::new(
            "mini-diurnal",
            vec![
                TracePoint {
                    duration_s: 60.0,
                    rate_pps: 2.0e5,
                    packet_size: 512,
                    burstiness: 1.2,
                },
                TracePoint {
                    duration_s: 60.0,
                    rate_pps: 1.6e6,
                    packet_size: 640,
                    burstiness: 1.5,
                },
                TracePoint {
                    duration_s: 60.0,
                    rate_pps: 6.0e5,
                    packet_size: 512,
                    burstiness: 1.2,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn trace_validation_rejects_bad_points() {
        assert!(Trace::new("empty", vec![]).is_err());
        let bad_size = TracePoint {
            duration_s: 1.0,
            rate_pps: 1.0,
            packet_size: 32,
            burstiness: 1.0,
        };
        assert!(Trace::new("t", vec![bad_size]).is_err());
        let bad_dur = TracePoint {
            duration_s: 0.0,
            rate_pps: 1.0,
            packet_size: 64,
            burstiness: 1.0,
        };
        assert!(Trace::new("t", vec![bad_dur]).is_err());
        let bad_burst = TracePoint {
            duration_s: 1.0,
            rate_pps: 1.0,
            packet_size: 64,
            burstiness: 0.5,
        };
        assert!(Trace::new("t", vec![bad_burst]).is_err());
    }

    #[test]
    fn trace_point_lookup_wraps() {
        let t = diurnal_like_trace();
        assert_eq!(t.total_duration_s(), 180.0);
        assert_eq!(t.point_at(0.0).rate_pps, 2.0e5);
        assert_eq!(t.point_at(90.0).rate_pps, 1.6e6);
        assert_eq!(t.point_at(179.0).rate_pps, 6.0e5);
        // Cyclic replay: one full cycle later lands on the same point.
        assert_eq!(t.point_at(180.0 + 90.0).rate_pps, 1.6e6);
    }

    #[test]
    fn csv_errors_name_the_real_file_line() {
        let csv = "\
# comment on line 1

duration_s,rate_pps,packet_size,burstiness
60,200000,512,1.2
# another comment
oops,200000,512,1.2
";
        let err = Trace::from_csv("t", csv).unwrap_err().to_string();
        assert!(err.contains("line 6"), "comments count toward lines: {err}");
        let err = Trace::from_csv("t", "duration_s,rate_pps,packet_size,burstiness\n1,2\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2") && err.contains("found 2"), "{err}");
    }

    #[test]
    fn csv_rejects_nonfinite_and_out_of_range_rows() {
        let header = "duration_s,rate_pps,packet_size,burstiness\n";
        for bad_row in [
            "NaN,1000,512,1.2",   // non-finite duration
            "60,inf,512,1.2",     // non-finite rate
            "60,1000,32,1.2",     // packet below 64B
            "60,1000,512,0.2",    // burstiness < 1
            "60,1000,-512,1.2",   // negative packet size
            "60,1000,512,1.2,99", // extra column
            "-60,1000,512,1.2",   // negative duration
        ] {
            let res = Trace::from_csv("t", &format!("{header}{bad_row}\n"));
            assert!(res.is_err(), "row `{bad_row}` must be rejected");
        }
        // CRLF input parses fine.
        let crlf = format!("{header}60,1000,512,1.2\r\n").replace('\n', "\r\n");
        assert!(Trace::from_csv("t", &crlf).is_ok());
    }

    #[test]
    fn csv_write_read_round_trips_exactly() {
        let t = diurnal_like_trace();
        assert_eq!(Trace::from_csv(t.name(), &t.to_csv()).unwrap(), t);
        // Shortest-round-trip floats survive awkward values too.
        let odd = Trace::new(
            "odd",
            vec![TracePoint {
                duration_s: 0.1 + 0.2,
                rate_pps: 1.0 / 3.0,
                packet_size: 1518,
                burstiness: 1.000000001,
            }],
        )
        .unwrap();
        assert_eq!(Trace::from_csv("odd", &odd.to_csv()).unwrap(), odd);
    }

    #[test]
    fn cursors_resume_streams_bit_exactly() {
        // Synthetic: run a twin to the snapshot point, restore, compare.
        let fs = flows(vec![
            FlowSpec::poisson(0, 5_000.0, 256),
            FlowSpec {
                pattern: ArrivalPattern::MarkovOnOff {
                    peak_factor: 2.0,
                    on_fraction: 0.5,
                },
                ..FlowSpec::cbr(1, 1000.0, 64)
            },
        ]);
        let mut live = TrafficSource::synthetic(fs.clone(), 7);
        for _ in 0..9 {
            live.sample_load(1.0);
        }
        let cursor = live.cursor();
        let mut resumed = TrafficSource::synthetic(fs.clone(), 999); // wrong seed on purpose
        resumed.restore_cursor(&cursor).unwrap();
        for _ in 0..20 {
            assert_eq!(live.sample_load(1.0), resumed.sample_load(1.0));
        }

        // Replay: same contract through the jittered trace path.
        let trace = diurnal_like_trace();
        let mut live = TrafficSource::replay(trace.clone(), 0.1, 3).unwrap();
        for _ in 0..5 {
            live.sample_load(30.0);
        }
        let cursor = live.cursor();
        let mut resumed = TrafficSource::replay(trace.clone(), 0.1, 42).unwrap();
        resumed.restore_cursor(&cursor).unwrap();
        for _ in 0..20 {
            assert_eq!(live.sample_load(30.0), resumed.sample_load(30.0));
        }

        // Mismatched cursor kinds and shapes are rejected.
        let mut synth = TrafficSource::synthetic(fs, 1);
        assert!(synth.restore_cursor(&cursor).is_err(), "replay→synthetic");
        let bad = TrafficCursor::Synthetic {
            rng: [1, 2, 3, 4],
            onoff_state: vec![true; 9],
            now_ns: 0,
            last_load: None,
        };
        assert!(synth.restore_cursor(&bad).is_err(), "flow-count mismatch");
        let mut replay = TrafficSource::replay(diurnal_like_trace(), 0.0, 1).unwrap();
        let bad_clock = TrafficCursor::Replay {
            rng: [1, 2, 3, 4],
            now_s: f64::NAN,
            last_load: None,
        };
        assert!(replay.restore_cursor(&bad_clock).is_err());
    }

    #[test]
    fn cursors_resume_delta_streams_identically() {
        // A cursor carries the LoadDelta memory: a source resumed mid-plateau
        // must report Unchanged exactly where the uninterrupted twin does.
        let trace = diurnal_like_trace();
        let mut live = TrafficSource::replay(trace.clone(), 0.0, 3).unwrap();
        live.sample_load_delta(30.0); // first window is always Changed
        let cursor = live.cursor();
        let mut resumed = TrafficSource::replay(trace, 0.0, 99).unwrap();
        resumed.restore_cursor(&cursor).unwrap();
        for _ in 0..8 {
            assert_eq!(
                live.sample_load_delta(30.0),
                resumed.sample_load_delta(30.0)
            );
        }
    }

    #[test]
    fn pre_delta_cursors_still_deserialize() {
        // Checkpoints written before `last_load` existed omit the field;
        // `#[serde(default)]` must fill in `None` (first resumed window then
        // reports Changed — conservative but bit-exact).
        let mut live = TrafficSource::synthetic(flows(vec![FlowSpec::cbr(0, 1000.0, 64)]), 7);
        live.sample_load_delta(1.0);
        use serde::{Deserialize, Serialize};
        let mut v = Serialize::to_value(&live.cursor());
        let serde::Value::Map(entries) = &mut v else {
            panic!("cursor serializes as a map");
        };
        let (_, payload) = &mut entries[0];
        let serde::Value::Map(fields) = payload else {
            panic!("cursor payload is a map");
        };
        fields.retain(|(k, _)| k != "last_load");
        let old = TrafficCursor::from_value(&v).unwrap();
        let mut resumed = TrafficSource::synthetic(flows(vec![FlowSpec::cbr(0, 1000.0, 64)]), 9);
        resumed.restore_cursor(&old).unwrap();
        let (load, delta) = resumed.sample_load_delta(1.0);
        assert_eq!(load, live.sample_load_delta(1.0).0);
        assert_eq!(delta, LoadDelta::Changed(load.arrival_pps));
    }

    #[test]
    fn cbr_flows_report_unchanged_after_first_window() {
        let mut g = TrafficGen::new(flows(vec![FlowSpec::cbr(0, 1000.0, 64)]), 1);
        let (first, d0) = g.sample_load_delta(1.0);
        assert_eq!(d0, LoadDelta::Changed(first.arrival_pps));
        for _ in 0..5 {
            let (load, delta) = g.sample_load_delta(1.0);
            assert_eq!(load, first);
            assert_eq!(delta, LoadDelta::Unchanged);
        }
        // Poisson flows keep moving.
        let mut g = TrafficGen::new(flows(vec![FlowSpec::poisson(0, 5_000.0, 256)]), 1);
        g.sample_load_delta(1.0);
        assert!(g.sample_load_delta(1.0).1.is_changed());
    }

    #[test]
    fn flat_trace_segments_count_as_clean() {
        // Two consecutive points with identical rate/size/burstiness: the
        // replay cursor moves between them, but the *sampled values* do not,
        // so windows crossing the boundary must report Unchanged.
        let flat = Trace::new(
            "flat-plateau",
            vec![
                TracePoint {
                    duration_s: 30.0,
                    rate_pps: 5.0e5,
                    packet_size: 512,
                    burstiness: 1.2,
                },
                TracePoint {
                    duration_s: 30.0,
                    rate_pps: 5.0e5,
                    packet_size: 512,
                    burstiness: 1.2,
                },
            ],
        )
        .unwrap();
        let mut src = TraceSource::new(flat, 0.0, 1).unwrap();
        assert!(src.sample_load_delta(30.0).1.is_changed());
        for _ in 0..6 {
            // Crosses point boundaries and the cyclic wrap every window.
            assert_eq!(src.sample_load_delta(30.0).1, LoadDelta::Unchanged);
        }

        // Jittered replay of the same plateau keeps changing (and keeps
        // drawing from the RNG) — dirtiness follows the sampled values.
        let mut src = TraceSource::new(diurnal_like_trace(), 0.1, 1).unwrap();
        src.sample_load_delta(30.0);
        assert!(src.sample_load_delta(30.0).1.is_changed());
    }

    #[test]
    fn mixed_sample_entry_points_share_one_stream() {
        // sample_load and sample_load_delta must advance identically.
        let fs = flows(vec![FlowSpec::poisson(0, 5_000.0, 256)]);
        let mut a = TrafficSource::synthetic(fs.clone(), 7);
        let mut b = TrafficSource::synthetic(fs, 7);
        for i in 0..10 {
            let la = if i % 2 == 0 {
                a.sample_load(1.0)
            } else {
                a.sample_load_delta(1.0).0
            };
            assert_eq!(la, b.sample_load_delta(1.0).0);
        }
    }

    #[test]
    fn cursors_serde_round_trip() {
        let src = TrafficSource::replay(diurnal_like_trace(), 0.2, 5).unwrap();
        let cursor = src.cursor();
        let json = serde_json::to_string(&cursor).unwrap();
        let back: TrafficCursor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cursor);
    }

    #[test]
    fn trace_csv_round_trip() {
        let csv = "\
# mini diurnal profile
duration_s,rate_pps,packet_size,burstiness
60,200000,512,1.2
60,1600000,640,1.5
60,600000,512,1.2
";
        let t = Trace::from_csv("mini-diurnal", csv).unwrap();
        assert_eq!(t, diurnal_like_trace());
        assert!(Trace::from_csv("bad", "wrong,header\n1,2").is_err());
        assert!(Trace::from_csv("bad", "duration_s,rate_pps,packet_size,burstiness\n1,2").is_err());
    }

    #[test]
    fn trace_replay_is_deterministic_under_seed() {
        let t = diurnal_like_trace();
        let mut a = TraceSource::new(t.clone(), 0.1, 7).unwrap();
        let mut b = TraceSource::new(t, 0.1, 7).unwrap();
        for _ in 0..12 {
            assert_eq!(a.sample_load(30.0), b.sample_load(30.0));
        }
    }

    #[test]
    fn trace_replay_follows_schedule_with_jitter_around_mean() {
        let t = diurnal_like_trace();
        // No jitter: exact schedule rates in order, wrapping after 6 windows.
        let mut src = TraceSource::new(t.clone(), 0.0, 1).unwrap();
        let rates: Vec<f64> = (0..8).map(|_| src.sample_load(30.0).arrival_pps).collect();
        assert_eq!(
            rates,
            vec![2.0e5, 2.0e5, 1.6e6, 1.6e6, 6.0e5, 6.0e5, 2.0e5, 2.0e5]
        );
        // Jitter: mean converges to the scheduled rate, samples stay >= 0.
        let mut src = TraceSource::new(t, 0.2, 3).unwrap();
        let mut acc = 0.0;
        let n = 600;
        for _ in 0..n {
            let l = src.sample_load(180.0); // full cycle per window: point 0 each time
            assert!(l.arrival_pps >= 0.0);
            acc += l.arrival_pps;
        }
        let mean = acc / n as f64;
        assert!((mean - 2.0e5).abs() < 0.05 * 2.0e5, "mean {mean}");
    }

    #[test]
    fn traffic_source_union_samples_both_paths() {
        let mut synth = TrafficSource::synthetic(flows(vec![FlowSpec::cbr(0, 1000.0, 256)]), 1);
        assert!(synth.flows().is_some());
        let l = synth.sample_load(2.0);
        assert!((l.arrival_pps - 1000.0).abs() < 1e-9);
        assert_eq!(l.mean_packet_size, 256.0);

        let mut replay = TrafficSource::replay(diurnal_like_trace(), 0.0, 1).unwrap();
        assert!(replay.flows().is_none());
        let l = replay.sample_load(30.0);
        assert_eq!(l.arrival_pps, 2.0e5);
        assert_eq!(l.mean_packet_size, 512.0);
        assert!(TrafficSource::replay(diurnal_like_trace(), -0.5, 1).is_err());
    }

    #[test]
    fn synthetic_sample_load_matches_manual_fold() {
        let fs = flows(vec![FlowSpec::poisson(0, 5_000.0, 256)]);
        let mut gen = TrafficGen::new(fs.clone(), 9);
        let mut reference = TrafficGen::new(fs.clone(), 9);
        let load = gen.sample_load(1.0);
        let window = reference.next_window(1.0);
        assert_eq!(load.arrival_pps, TrafficGen::window_rate_pps(&window, 1.0));
        assert_eq!(load.mean_packet_size, fs.mean_packet_size());
        assert_eq!(load.burstiness, fs.burstiness());
    }

    #[test]
    fn window_rate_helper() {
        let arrivals = vec![
            WindowArrivals {
                flow_id: 0,
                packets: 500.0,
                packet_size: 64,
            },
            WindowArrivals {
                flow_id: 1,
                packets: 1500.0,
                packet_size: 64,
            },
        ];
        assert!((TrafficGen::window_rate_pps(&arrivals, 2.0) - 1000.0).abs() < 1e-9);
    }
}
