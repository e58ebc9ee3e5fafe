//! Batched chain evaluation: a structure-of-arrays container of evaluation
//! lanes plus a multi-threaded sweep kernel.
//!
//! [`evaluate_chain`](crate::engine::evaluate_chain) is the hot loop of
//! every training run, bench, and cluster epoch. Callers that evaluate many
//! independent (knobs, cost, load, partition) tuples — a cluster epoch over
//! all nodes, an RL candidate sweep, a figure grid — stage them as lanes of
//! a [`ChainBatch`] and evaluate the whole batch in one call. Each lane's
//! result depends only on that lane's inputs, so the batch sweep is
//! trivially parallel; [`crate::par`] auto-chunks large batches across
//! threads while small ones run inline.
//!
//! **Fused column kernel.** The batch is evaluated in wide column sweeps
//! rather than one lane at a time: a validate pass builds the lane mask,
//! then one fused compute sweep runs the whole analytic model — the load,
//! miss-model, cycles, capacity, M/M/1/K loss, and output stages, the
//! generic `pass_*` functions of [`crate::engine`] — over the SoA columns
//! [`crate::simd::WIDTH`] lanes at a time as [`F64x8`] bundles (with a
//! scalar tail for the remainder). The loss stage runs the
//! [`crate::simd::wide_ln`]/[`crate::simd::wide_exp`] polynomial kernels
//! instead of per-lane `powf`/`ln`, and every intermediate (packet size,
//! miss rate, cycles/packet, capacity, loss) stays in registers between
//! stages instead of round-tripping through scratch columns. See
//! [`crate::simd`] for why the wide and scalar instantiations of the same
//! pass are bit-identical.
//!
//! **Equivalence contract.** A batch evaluation is *bit-identical*, lane by
//! lane, to validating the lane's knobs and calling the scalar
//! `evaluate_chain`: same values, same [`SimError`]s on invalid-knob lanes,
//! same ordering, for any thread count. The differential proptest in
//! `tests/proptests.rs`, the thread-determinism test in
//! `tests/batch_determinism.rs`, and the remainder-tail grid in
//! `tests/batch_remainder.rs` enforce the contract, so the wide-lane work
//! cannot silently drift from the scalar path.
//!
//! Columns are contiguous `Vec<f64>` lanes. Integer-valued inputs (cores,
//! DMA bytes, batch knob, state bytes, hops) are stored as `f64`; every one
//! of them is far below 2^53, so the round-trip through the column is exact
//! and the reconstructed structs are bitwise equal to what was pushed.

use crate::cache::{EvalCache, LaneKey, TuningKey};
use crate::chain::ChainCost;
use crate::cpu::CpuAllocation;
use crate::dma::{DmaBuffer, DMA_MAX_BYTES, DMA_MIN_BYTES};
use crate::dvfs::{FREQ_MAX_GHZ, FREQ_MIN_GHZ};
use crate::engine::{
    pass_capacity, pass_cycles, pass_load, pass_loss, pass_miss_rate, pass_outputs,
    ChainEpochResult, ChainLoad, KnobSettings, SimTuning, BATCH_MAX, BATCH_MIN,
};
use crate::error::{SimError, SimResult};
use crate::par;
use crate::simd::{F64x8, WideLane, WIDTH};

/// Number of input columns a lane occupies (and the number of `f64` words
/// in a [`LaneKey`] after the tuning prefix): six knob columns, five
/// chain-cost columns, three load columns, and the CAT partition bytes.
pub const LANE_COLS: usize = 15;

/// A batch of independent chain-evaluation lanes in SoA layout.
///
/// ```
/// use nfv_sim::prelude::*;
///
/// let cost = ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost();
/// let load = ChainLoad { arrival_pps: 3.5e6, mean_packet_size: 395.0, burstiness: 1.2 };
/// let tuning = SimTuning::default();
///
/// // Stage a 64-point batch-size sweep as one SoA batch...
/// let mut batch = ChainBatch::with_capacity(64);
/// for i in 0..64u32 {
///     let mut knobs = KnobSettings::default_tuned();
///     knobs.batch = 1 + i * 5;
///     batch.push(&knobs, &cost, &load, llc_partition_bytes(0.5));
/// }
/// // ...and evaluate every lane in one call (auto-threaded for big batches).
/// let results = evaluate_chain_batch(&batch, &tuning);
/// assert_eq!(results.len(), 64);
///
/// // Each lane equals the scalar path exactly.
/// let (knobs, cost, load, llc) = batch.lane(7);
/// let scalar = evaluate_chain(&knobs, &cost, &load, llc, &tuning);
/// assert_eq!(results[7].as_ref().unwrap(), &scalar);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChainBatch {
    // Knob columns.
    cpu_cores: Vec<f64>,
    cpu_share: Vec<f64>,
    freq_ghz: Vec<f64>,
    llc_fraction: Vec<f64>,
    dma_bytes: Vec<f64>,
    batch_knob: Vec<f64>,
    // Chain-cost columns.
    base_cycles_per_packet: Vec<f64>,
    cycles_per_byte: Vec<f64>,
    mem_refs_per_packet: Vec<f64>,
    state_bytes: Vec<f64>,
    hops: Vec<f64>,
    // Load columns.
    arrival_pps: Vec<f64>,
    mean_packet_size: Vec<f64>,
    burstiness: Vec<f64>,
    // CAT partition column.
    llc_bytes: Vec<f64>,
    /// Dirty mask alongside the validity mask: lane `i` is dirty when any of
    /// its column values changed since the last incremental sweep cleared
    /// it. Freshly pushed lanes start dirty; the self-comparing `set_*`
    /// mutators flip it only when a value actually moved (bitwise compare).
    dirty: Vec<bool>,
}

impl ChainBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `lanes` lanes in every column.
    pub fn with_capacity(lanes: usize) -> Self {
        Self {
            cpu_cores: Vec::with_capacity(lanes),
            cpu_share: Vec::with_capacity(lanes),
            freq_ghz: Vec::with_capacity(lanes),
            llc_fraction: Vec::with_capacity(lanes),
            dma_bytes: Vec::with_capacity(lanes),
            batch_knob: Vec::with_capacity(lanes),
            base_cycles_per_packet: Vec::with_capacity(lanes),
            cycles_per_byte: Vec::with_capacity(lanes),
            mem_refs_per_packet: Vec::with_capacity(lanes),
            state_bytes: Vec::with_capacity(lanes),
            hops: Vec::with_capacity(lanes),
            arrival_pps: Vec::with_capacity(lanes),
            mean_packet_size: Vec::with_capacity(lanes),
            burstiness: Vec::with_capacity(lanes),
            llc_bytes: Vec::with_capacity(lanes),
            dirty: Vec::with_capacity(lanes),
        }
    }

    /// Number of lanes staged.
    pub fn len(&self) -> usize {
        self.cpu_cores.len()
    }

    /// True when no lanes are staged.
    pub fn is_empty(&self) -> bool {
        self.cpu_cores.is_empty()
    }

    /// Removes all lanes, keeping column capacity for reuse.
    pub fn clear(&mut self) {
        self.cpu_cores.clear();
        self.cpu_share.clear();
        self.freq_ghz.clear();
        self.llc_fraction.clear();
        self.dma_bytes.clear();
        self.batch_knob.clear();
        self.base_cycles_per_packet.clear();
        self.cycles_per_byte.clear();
        self.mem_refs_per_packet.clear();
        self.state_bytes.clear();
        self.hops.clear();
        self.arrival_pps.clear();
        self.mean_packet_size.clear();
        self.burstiness.clear();
        self.llc_bytes.clear();
        self.dirty.clear();
    }

    /// Appends one evaluation lane.
    pub fn push(
        &mut self,
        knobs: &KnobSettings,
        cost: &ChainCost,
        load: &ChainLoad,
        llc_bytes: f64,
    ) {
        self.cpu_cores.push(f64::from(knobs.cpu.cores));
        self.cpu_share.push(knobs.cpu.share);
        self.freq_ghz.push(knobs.freq_ghz);
        self.llc_fraction.push(knobs.llc_fraction);
        self.dma_bytes.push(knobs.dma.bytes as f64);
        self.batch_knob.push(f64::from(knobs.batch));
        self.base_cycles_per_packet
            .push(cost.base_cycles_per_packet);
        self.cycles_per_byte.push(cost.cycles_per_byte);
        self.mem_refs_per_packet.push(cost.mem_refs_per_packet);
        self.state_bytes.push(cost.state_bytes as f64);
        self.hops.push(f64::from(cost.hops));
        self.arrival_pps.push(load.arrival_pps);
        self.mean_packet_size.push(load.mean_packet_size);
        self.burstiness.push(load.burstiness);
        self.llc_bytes.push(llc_bytes);
        self.dirty.push(true);
    }

    /// Appends a copy of `other`'s lane `i` (all fifteen columns, bit for
    /// bit). Used by the cached sweep to stage miss lanes into a sub-batch;
    /// the freshly pushed lane is dirty, like any push.
    ///
    /// # Panics
    /// When `i >= other.len()`.
    pub fn push_lane_from(&mut self, other: &ChainBatch, i: usize) {
        self.cpu_cores.push(other.cpu_cores[i]);
        self.cpu_share.push(other.cpu_share[i]);
        self.freq_ghz.push(other.freq_ghz[i]);
        self.llc_fraction.push(other.llc_fraction[i]);
        self.dma_bytes.push(other.dma_bytes[i]);
        self.batch_knob.push(other.batch_knob[i]);
        self.base_cycles_per_packet
            .push(other.base_cycles_per_packet[i]);
        self.cycles_per_byte.push(other.cycles_per_byte[i]);
        self.mem_refs_per_packet.push(other.mem_refs_per_packet[i]);
        self.state_bytes.push(other.state_bytes[i]);
        self.hops.push(other.hops[i]);
        self.arrival_pps.push(other.arrival_pps[i]);
        self.mean_packet_size.push(other.mean_packet_size[i]);
        self.burstiness.push(other.burstiness[i]);
        self.llc_bytes.push(other.llc_bytes[i]);
        self.dirty.push(true);
    }

    /// Canonical [`LaneKey`] of lane `i`: the tuning prefix plus the
    /// fifteen stored column bit-patterns. Identical to
    /// [`LaneKey::new`] over the structs the lane was pushed from (the
    /// column round-trip is exact; pinned in `tests/cache_equivalence.rs`).
    ///
    /// # Panics
    /// When `i >= self.len()`.
    #[must_use]
    pub fn lane_key(&self, i: usize, tuning: &TuningKey) -> LaneKey {
        let cols: [f64; LANE_COLS] = [
            self.cpu_cores[i],
            self.cpu_share[i],
            self.freq_ghz[i],
            self.llc_fraction[i],
            self.dma_bytes[i],
            self.batch_knob[i],
            self.base_cycles_per_packet[i],
            self.cycles_per_byte[i],
            self.mem_refs_per_packet[i],
            self.state_bytes[i],
            self.hops[i],
            self.arrival_pps[i],
            self.mean_packet_size[i],
            self.burstiness[i],
            self.llc_bytes[i],
        ];
        LaneKey::from_column_values(tuning, &cols)
    }

    /// Writes `v` into `col[i]` and flips the lane's dirty flag iff the bits
    /// actually changed (bitwise compare — `-0.0` vs `0.0` counts as a
    /// change, because clean lanes must reuse the *exact* prior inputs).
    #[inline]
    fn set_col(col: &mut [f64], dirty: &mut bool, i: usize, v: f64) {
        if col[i].to_bits() != v.to_bits() {
            col[i] = v;
            *dirty = true;
        }
    }

    /// Overwrites lane `i`'s knob columns, marking the lane dirty only if a
    /// value moved.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn set_knobs(&mut self, i: usize, knobs: &KnobSettings) {
        let d = &mut self.dirty[i];
        Self::set_col(&mut self.cpu_cores, d, i, f64::from(knobs.cpu.cores));
        Self::set_col(&mut self.cpu_share, d, i, knobs.cpu.share);
        Self::set_col(&mut self.freq_ghz, d, i, knobs.freq_ghz);
        Self::set_col(&mut self.llc_fraction, d, i, knobs.llc_fraction);
        Self::set_col(&mut self.dma_bytes, d, i, knobs.dma.bytes as f64);
        Self::set_col(&mut self.batch_knob, d, i, f64::from(knobs.batch));
    }

    /// Overwrites lane `i`'s chain-cost columns, marking the lane dirty only
    /// if a value moved.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn set_cost(&mut self, i: usize, cost: &ChainCost) {
        let d = &mut self.dirty[i];
        Self::set_col(
            &mut self.base_cycles_per_packet,
            d,
            i,
            cost.base_cycles_per_packet,
        );
        Self::set_col(&mut self.cycles_per_byte, d, i, cost.cycles_per_byte);
        Self::set_col(
            &mut self.mem_refs_per_packet,
            d,
            i,
            cost.mem_refs_per_packet,
        );
        Self::set_col(&mut self.state_bytes, d, i, cost.state_bytes as f64);
        Self::set_col(&mut self.hops, d, i, f64::from(cost.hops));
    }

    /// Overwrites lane `i`'s load columns, marking the lane dirty only if a
    /// value moved.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn set_load(&mut self, i: usize, load: &ChainLoad) {
        let d = &mut self.dirty[i];
        Self::set_col(&mut self.arrival_pps, d, i, load.arrival_pps);
        Self::set_col(&mut self.mean_packet_size, d, i, load.mean_packet_size);
        Self::set_col(&mut self.burstiness, d, i, load.burstiness);
    }

    /// Overwrites lane `i`'s CAT partition column, marking the lane dirty
    /// only if the value moved.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn set_llc_bytes(&mut self, i: usize, llc_bytes: f64) {
        let d = &mut self.dirty[i];
        Self::set_col(&mut self.llc_bytes, d, i, llc_bytes);
    }

    /// Drops every lane past `lanes`, keeping column capacity for reuse.
    /// No-op when the batch is already `lanes` long or shorter.
    pub(crate) fn truncate(&mut self, lanes: usize) {
        self.cpu_cores.truncate(lanes);
        self.cpu_share.truncate(lanes);
        self.freq_ghz.truncate(lanes);
        self.llc_fraction.truncate(lanes);
        self.dma_bytes.truncate(lanes);
        self.batch_knob.truncate(lanes);
        self.base_cycles_per_packet.truncate(lanes);
        self.cycles_per_byte.truncate(lanes);
        self.mem_refs_per_packet.truncate(lanes);
        self.state_bytes.truncate(lanes);
        self.hops.truncate(lanes);
        self.arrival_pps.truncate(lanes);
        self.mean_packet_size.truncate(lanes);
        self.burstiness.truncate(lanes);
        self.llc_bytes.truncate(lanes);
        self.dirty.truncate(lanes);
    }

    /// The `f64::from(cores)` knob column. The stored value is exactly what
    /// [`Self::push`]/[`Self::set_knobs`] converted, so `col[i] as u32`
    /// reconstructs the knob and `col[i]` *is* `f64::from(knobs.cpu.cores)`
    /// bit for bit — which is what lets the column aggregation fold in
    /// [`crate::engine::aggregate_node_columns_into`] match the struct fold.
    pub(crate) fn cpu_cores_col(&self) -> &[f64] {
        &self.cpu_cores
    }

    /// The per-core CPU share knob column.
    pub(crate) fn cpu_share_col(&self) -> &[f64] {
        &self.cpu_share
    }

    /// The DVFS frequency knob column (GHz).
    pub(crate) fn freq_ghz_col(&self) -> &[f64] {
        &self.freq_ghz
    }

    /// The raw offered arrival-rate load column (pps, before the kernel's
    /// NIC clamp — the clamp happens in registers inside the load pass, so
    /// this column holds exactly what the traffic source sampled).
    pub(crate) fn arrival_pps_col(&self) -> &[f64] {
        &self.arrival_pps
    }

    /// A cursor-style writer that restages the whole batch in lane order
    /// without reallocating: existing lanes are overwritten through the
    /// self-comparing `set_*` mutators (clean lanes stay clean), lanes past
    /// the previous length are pushed, and [`LaneWriter::finish`] truncates
    /// whatever the new staging did not cover. This is how the epoch
    /// pipeline writes each epoch's inputs straight into the persistent
    /// column buffers instead of building tuple vectors and copying them in.
    ///
    /// `reuse_clean_loads` lets a writer skip the load columns for lanes
    /// whose traffic source reported no change. That is only sound when the
    /// batch is the *single persistent* buffer that already holds the
    /// previous window's loads at the same lane positions (every epoch of a
    /// run after the first); pass `false` whenever the buffer may hold
    /// older or differently-laid-out values (the first epoch of a run).
    pub fn lane_writer(&mut self, reuse_clean_loads: bool) -> LaneWriter<'_> {
        LaneWriter {
            batch: self,
            cursor: 0,
            reuse_clean_loads,
        }
    }

    /// Force-marks lane `i` stale regardless of column values.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn mark_dirty(&mut self, i: usize) {
        self.dirty[i] = true;
    }

    /// Force-marks every lane stale (the next incremental sweep degenerates
    /// to a full sweep).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.fill(true);
    }

    /// Whether lane `i` is currently marked stale.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    /// Number of lanes currently marked stale.
    pub fn dirty_lanes(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Maximal contiguous lane ranges covering every dirty [`WIDTH`]-lane
    /// group (a group is dirty iff any lane in it is), clamped to the batch
    /// length. Group granularity keeps the wide kernel untouched: the sweep
    /// re-evaluates whole groups, and re-evaluating the clean lanes inside a
    /// dirty group is bit-identical to their cached outputs anyway.
    fn dirty_group_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let n = self.len();
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        let mut g = 0;
        while g * WIDTH < n {
            let start = g * WIDTH;
            let end = (start + WIDTH).min(n);
            if self.dirty[start..end].iter().any(|&d| d) {
                match ranges.last_mut() {
                    Some(last) if last.end == start => last.end = end,
                    _ => ranges.push(start..end),
                }
            }
            g += 1;
        }
        ranges
    }

    /// Clears every dirty flag (the incremental sweep just refreshed the
    /// cached outputs).
    fn clear_dirty(&mut self) {
        self.dirty.fill(false);
    }

    /// Reconstructs lane `i`'s knob settings from the columns (the part of
    /// [`Self::lane`] the validate pass needs).
    #[inline]
    fn lane_knobs(&self, i: usize) -> KnobSettings {
        KnobSettings {
            cpu: CpuAllocation {
                cores: self.cpu_cores[i] as u32,
                share: self.cpu_share[i],
            },
            freq_ghz: self.freq_ghz[i],
            llc_fraction: self.llc_fraction[i],
            dma: DmaBuffer {
                bytes: self.dma_bytes[i] as u64,
            },
            batch: self.batch_knob[i] as u32,
        }
    }

    /// Reconstructs lane `i`'s inputs from the columns. The round-trip is
    /// exact (see the module docs), so evaluating the reconstructed lane is
    /// bit-identical to evaluating the pushed structs.
    ///
    /// # Panics
    /// When `i >= self.len()`.
    #[inline]
    pub fn lane(&self, i: usize) -> (KnobSettings, ChainCost, ChainLoad, f64) {
        let knobs = self.lane_knobs(i);
        let cost = ChainCost {
            base_cycles_per_packet: self.base_cycles_per_packet[i],
            cycles_per_byte: self.cycles_per_byte[i],
            mem_refs_per_packet: self.mem_refs_per_packet[i],
            state_bytes: self.state_bytes[i] as u64,
            hops: self.hops[i] as u32,
        };
        let load = ChainLoad {
            arrival_pps: self.arrival_pps[i],
            mean_packet_size: self.mean_packet_size[i],
            burstiness: self.burstiness[i],
        };
        (knobs, cost, load, self.llc_bytes[i])
    }
}

/// Cursor-style restaging view over a [`ChainBatch`]; see
/// [`ChainBatch::lane_writer`].
///
/// ```
/// use nfv_sim::prelude::*;
///
/// let cost = ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost();
/// let load = ChainLoad { arrival_pps: 3.5e6, mean_packet_size: 395.0, burstiness: 1.2 };
/// let mut batch = ChainBatch::new();
///
/// // First staging fills the batch; a second identical staging overwrites
/// // it in place, and every lane stays clean (bitwise-equal values).
/// for _ in 0..2 {
///     let mut w = batch.lane_writer(false);
///     for _ in 0..3 {
///         w.write(&KnobSettings::default_tuned(), &cost, &load, true, 1e6);
///     }
///     w.finish();
/// }
/// assert_eq!(batch.len(), 3);
/// ```
#[derive(Debug)]
pub struct LaneWriter<'a> {
    batch: &'a mut ChainBatch,
    cursor: usize,
    reuse_clean_loads: bool,
}

impl LaneWriter<'_> {
    /// Stages the next lane: overwrites in place while the cursor is inside
    /// the batch (self-comparing setters — an unchanged lane stays clean),
    /// pushes past the end. `load_changed` is the traffic source's delta
    /// verdict for this lane; it only matters when the writer was opened
    /// with `reuse_clean_loads` (see [`ChainBatch::lane_writer`]).
    pub fn write(
        &mut self,
        knobs: &KnobSettings,
        cost: &ChainCost,
        load: &ChainLoad,
        load_changed: bool,
        llc_bytes: f64,
    ) {
        let i = self.cursor;
        if i < self.batch.len() {
            self.batch.set_knobs(i, knobs);
            self.batch.set_cost(i, cost);
            if load_changed || !self.reuse_clean_loads {
                self.batch.set_load(i, load);
            }
            self.batch.set_llc_bytes(i, llc_bytes);
        } else {
            self.batch.push(knobs, cost, load, llc_bytes);
        }
        self.cursor = i + 1;
    }

    /// Lanes staged so far.
    pub fn lanes(&self) -> usize {
        self.cursor
    }

    /// Ends the staging pass, truncating any leftover lanes from a previous,
    /// longer staging so the batch length equals the lanes written.
    pub fn finish(self) {
        let lanes = self.cursor;
        self.batch.truncate(lanes);
    }
}

/// Evaluates every lane of `batch`, auto-chunking across threads.
///
/// Lanes run through the **column-pass kernel** (see the module docs):
/// knobs are validated into a lane mask (invalid lanes carry the same
/// [`crate::error::SimError`] the scalar caller would see) and the valid
/// lanes flow through the wide-lane passes of [`crate::engine`], so results
/// are bit-identical to a scalar [`crate::engine::evaluate_chain`] loop in
/// lane order. Thread count follows [`par::auto_threads`]: small batches
/// run inline, huge ones fan out to the host's cores.
pub fn evaluate_chain_batch(
    batch: &ChainBatch,
    tuning: &SimTuning,
) -> Vec<SimResult<ChainEpochResult>> {
    evaluate_chain_batch_threads(batch, tuning, par::auto_threads(batch.len()))
}

/// [`evaluate_chain_batch`] with an explicit worker-thread count.
///
/// Each worker runs the column-pass kernel over a contiguous slice of lanes
/// (via [`par::chunked_map_ranges`]). Results — values and ordering — are
/// identical for every `threads` value; `tests/batch_determinism.rs` pins
/// that down for 1, 2, and 8.
pub fn evaluate_chain_batch_threads(
    batch: &ChainBatch,
    tuning: &SimTuning,
    threads: usize,
) -> Vec<SimResult<ChainEpochResult>> {
    if threads <= 1 {
        // No pool bookkeeping on the hot sweep.
        return eval_columns(batch, tuning, 0..batch.len());
    }
    par::chunked_map_ranges(batch.len(), threads, |r| eval_columns(batch, tuning, r))
}

/// [`evaluate_chain_batch`] into a caller-owned result buffer.
///
/// `out` is cleared and refilled in lane order; once its capacity has grown
/// to the batch size, the inline (single-thread) sweep performs **zero heap
/// allocations** — this is the steady-state entry point of the epoch
/// pipeline's full-evaluation path. Results are bit-identical to
/// [`evaluate_chain_batch`].
pub fn evaluate_chain_batch_into(
    batch: &ChainBatch,
    tuning: &SimTuning,
    out: &mut Vec<SimResult<ChainEpochResult>>,
) {
    evaluate_chain_batch_threads_into(batch, tuning, par::auto_threads(batch.len()), out);
}

/// [`evaluate_chain_batch_into`] with an explicit worker-thread count.
/// `threads <= 1` sweeps straight into `out`; the threaded path stitches
/// worker chunks and moves them into `out` (same values for every count).
pub fn evaluate_chain_batch_threads_into(
    batch: &ChainBatch,
    tuning: &SimTuning,
    threads: usize,
    out: &mut Vec<SimResult<ChainEpochResult>>,
) {
    if threads <= 1 {
        out.clear();
        eval_columns_into(batch, tuning, 0..batch.len(), out);
    } else {
        *out = par::chunked_map_ranges(batch.len(), threads, |r| eval_columns(batch, tuning, r));
    }
}

/// [`evaluate_chain_batch`] through a content-addressed [`EvalCache`].
///
/// Every lane is keyed by its exact input bit-patterns (plus the tuning;
/// see [`crate::cache`]); hit lanes take their stored result, miss lanes
/// are gathered into a sub-batch, swept by the ordinary fused column-pass
/// kernel, inserted into the cache, and scatter-merged back in lane order.
/// Bit-identical to the uncached sweep by construction — stored values
/// *are* prior kernel outputs, each lane's result depends only on its own
/// columns, and error lanes cache like any other (validation is a pure
/// function of the same columns). A fully hit batch runs zero kernel lanes
/// ([`crate::engine::kernel_lanes_swept`] pins this in the tests).
pub fn evaluate_chain_batch_cached(
    batch: &ChainBatch,
    tuning: &SimTuning,
    cache: &EvalCache,
) -> Vec<SimResult<ChainEpochResult>> {
    evaluate_chain_batch_cached_threads(batch, tuning, cache, par::auto_threads(batch.len()))
}

/// [`evaluate_chain_batch_cached`] with an explicit worker-thread count
/// for the miss sweep. Hit/miss partitioning is thread-invariant (keys are
/// computed on the calling thread) and the miss sweep inherits the batch
/// kernel's thread-count determinism, so results are identical for every
/// `threads` value.
pub fn evaluate_chain_batch_cached_threads(
    batch: &ChainBatch,
    tuning: &SimTuning,
    cache: &EvalCache,
    threads: usize,
) -> Vec<SimResult<ChainEpochResult>> {
    let tk = TuningKey::new(tuning);
    let n = batch.len();
    let mut results: Vec<Option<SimResult<ChainEpochResult>>> = vec![None; n];
    let mut miss_lanes: Vec<usize> = Vec::new();
    let mut miss_keys: Vec<LaneKey> = Vec::new();
    let mut misses = ChainBatch::new();
    for (i, slot) in results.iter_mut().enumerate() {
        let key = batch.lane_key(i, &tk);
        match cache.get(&key) {
            Some(hit) => *slot = Some(hit),
            None => {
                miss_lanes.push(i);
                miss_keys.push(key);
                misses.push_lane_from(batch, i);
            }
        }
    }
    // A fully hit batch never touches the kernel (zero lanes swept).
    if !miss_lanes.is_empty() {
        let swept = evaluate_chain_batch_threads(&misses, tuning, threads);
        for ((i, key), r) in miss_lanes.into_iter().zip(miss_keys).zip(swept) {
            cache.insert(key, r.clone());
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every lane is a hit or a swept miss"))
        .collect()
}

/// Retained outputs of a previous batch sweep: the per-lane results an
/// incremental sweep scatter-copies for clean lanes and overwrites in place
/// for dirty groups. Starts empty; the first
/// [`evaluate_chain_batch_incremental`] call over it runs a full sweep to
/// prime the cache.
#[derive(Debug, Clone, Default)]
pub struct BatchOutputs {
    results: Vec<SimResult<ChainEpochResult>>,
}

impl BatchOutputs {
    /// An empty (unprimed) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached lane results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when the cache holds no results (next incremental sweep is full).
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The cached lane-ordered results.
    pub fn results(&self) -> &[SimResult<ChainEpochResult>] {
        &self.results
    }

    /// Drops the cached results; the next incremental sweep runs full.
    pub fn invalidate(&mut self) {
        self.results.clear();
    }
}

/// Evaluates only the *dirty* lanes of `batch`, reusing `outputs` for the
/// rest, with auto-selected threading over the dirty lane count.
///
/// See [`evaluate_chain_batch_incremental_threads`] for the contract.
pub fn evaluate_chain_batch_incremental(
    batch: &mut ChainBatch,
    tuning: &SimTuning,
    outputs: &mut BatchOutputs,
) -> Vec<SimResult<ChainEpochResult>> {
    let dirty = batch.dirty_lanes();
    evaluate_chain_batch_incremental_threads(batch, tuning, outputs, par::auto_threads(dirty))
}

/// In-place form of [`evaluate_chain_batch_incremental`]: refreshes
/// `outputs` without cloning the lane results. Callers that only need a
/// borrowed view of the epoch's results — the incremental pipeline hands
/// them straight to the aggregate stage — read [`BatchOutputs::results`]
/// afterwards instead of paying a per-epoch copy of every lane.
pub fn sweep_chain_batch_incremental(
    batch: &mut ChainBatch,
    tuning: &SimTuning,
    outputs: &mut BatchOutputs,
) {
    let dirty = batch.dirty_lanes();
    sweep_chain_batch_incremental_threads(batch, tuning, outputs, par::auto_threads(dirty));
}

/// The incremental column-pass sweep: re-evaluates dirty [`WIDTH`]-lane
/// groups (a group is dirty iff any lane in it is) and scatter-copies the
/// cached result for every clean group from `outputs`, then refreshes the
/// cache in place and clears the batch's dirty flags.
///
/// **Bit-exactness.** The returned vector is bit-identical to a full
/// [`evaluate_chain_batch_threads`] sweep of the same batch, for any dirty
/// pattern and any thread count: every kernel pass is element-wise per lane,
/// so evaluating a lane range standalone produces exactly the bits a full
/// sweep would (the remainder-tail grid in `tests/batch_remainder.rs` and
/// the delta-pattern proptests in `tests/proptests.rs` pin this), and clean
/// lanes reuse their cached outputs verbatim — no float re-association
/// anywhere.
///
/// A cache whose length does not match the batch (first use, lanes
/// added/removed, explicit [`BatchOutputs::invalidate`]) triggers one full
/// sweep that primes it. `threads` fans the dirty ranges out via
/// [`par::chunked_map_ranges`] with the usual stitched-in-order determinism.
pub fn evaluate_chain_batch_incremental_threads(
    batch: &mut ChainBatch,
    tuning: &SimTuning,
    outputs: &mut BatchOutputs,
    threads: usize,
) -> Vec<SimResult<ChainEpochResult>> {
    sweep_chain_batch_incremental_threads(batch, tuning, outputs, threads);
    outputs.results.clone()
}

/// In-place form of [`evaluate_chain_batch_incremental_threads`]; see
/// [`sweep_chain_batch_incremental`].
pub fn sweep_chain_batch_incremental_threads(
    batch: &mut ChainBatch,
    tuning: &SimTuning,
    outputs: &mut BatchOutputs,
    threads: usize,
) {
    if outputs.results.len() != batch.len() {
        outputs.results = evaluate_chain_batch_threads(batch, tuning, threads);
        batch.clear_dirty();
        return;
    }
    let ranges = batch.dirty_group_ranges();
    if !ranges.is_empty() {
        // Evaluate each maximal dirty range through the same kernel a full
        // sweep uses; parallelism chunks the *range list* so workers still
        // emit lane-ordered runs that stitch deterministically.
        let fresh: Vec<(usize, Vec<SimResult<ChainEpochResult>>)> = {
            let shared: &ChainBatch = batch;
            if threads <= 1 {
                ranges
                    .iter()
                    .map(|r| (r.start, eval_columns(shared, tuning, r.clone())))
                    .collect()
            } else {
                par::chunked_map_ranges(ranges.len(), threads, |idx| {
                    ranges[idx]
                        .iter()
                        .map(|r| (r.start, eval_columns(shared, tuning, r.clone())))
                        .collect()
                })
            }
        };
        for (start, results) in fresh {
            outputs.results[start..start + results.len()].clone_from_slice(&results);
        }
        batch.clear_dirty();
    }
}

/// The column kernel: evaluates lanes `range` of `batch` by sweeping the
/// analytic model over the SoA columns.
///
/// Stage order (one sweep each):
///
/// 1. **validate** — per-lane knob validation into a mask of
///    `Option<SimError>` (the only stage that builds structs). A
///    branchless column pre-check proves the common all-valid case in one
///    cheap sweep;
/// 2. **fused compute + scatter** — one sweep runs load → miss-model →
///    cycles → capacity → M/M/1/K loss → outputs — the generic passes of
///    [`crate::engine`] — applied [`WIDTH`] lanes at a time as [`F64x8`]
///    bundles, with a scalar (`W = f64`) tail for the remainder; the same
///    generic code either way, so the split point cannot shift bits. Every
///    intermediate stays in registers between stages (storing and
///    reloading an `f64` is bit-exact, so fusing the former per-stage
///    sweeps changed no results). The loss stage runs the
///    [`crate::simd::wide_ln`]/[`crate::simd::wide_exp`] polynomial kernels
///    (via [`crate::engine::pass_loss`]) instead of per-lane `powf`/`ln`.
///    Each bundle scatters lane-ordered [`ChainEpochResult`]s with masked
///    lanes yielding their `Err`.
///
/// Masked (invalid-knob) lanes still flow through the wide arithmetic —
/// every operation is an element-wise float op, so garbage lanes cannot
/// panic or perturb their neighbours — and their outputs are discarded at
/// scatter time.
///
/// Large ranges are processed in [`BLOCK_LANES`]-sized blocks so the input
/// columns stay cache-resident between the validate and compute sweeps.
/// Because every pass is element-wise per lane, the block size — like the
/// wide/tail split and the thread-chunk boundaries — cannot shift bits.
fn eval_columns(
    batch: &ChainBatch,
    tuning: &SimTuning,
    range: std::ops::Range<usize>,
) -> Vec<SimResult<ChainEpochResult>> {
    let mut out = Vec::with_capacity(range.len());
    eval_columns_into(batch, tuning, range, &mut out);
    out
}

/// [`eval_columns`] appending into a caller-owned buffer. The lane mask
/// scratch starts empty and only ever allocates on the rare
/// cannot-prove-valid fallback, so an all-valid sweep into a buffer with
/// enough capacity performs no heap allocation at all.
fn eval_columns_into(
    batch: &ChainBatch,
    tuning: &SimTuning,
    range: std::ops::Range<usize>,
    out: &mut Vec<SimResult<ChainEpochResult>>,
) {
    out.reserve(range.len());
    let mut scratch = Scratch::default();
    let mut start = range.start;
    while start < range.end {
        let end = (start + BLOCK_LANES).min(range.end);
        eval_block(batch, tuning, start..end, &mut scratch, out);
        start = end;
    }
}

/// Lanes per kernel block: 256 lanes keep the ~15 input columns (~30 KB)
/// inside L1/L2 between the validate sweep and the fused compute sweep,
/// and still give the wide loops long runs of full [`WIDTH`] chunks.
const BLOCK_LANES: usize = 256;

/// Reusable per-block scratch carried between the validate and compute
/// sweeps: just the lane mask — the fused compute sweep keeps every
/// numeric intermediate in registers.
#[derive(Default)]
struct Scratch {
    mask: Vec<Option<SimError>>,
}

/// One [`BLOCK_LANES`]-bounded block of the column-pass kernel; see
/// [`eval_columns`] for the stage list.
/// Column-sweep twin of per-lane [`KnobSettings::validate`]: proves every
/// lane of a chunk valid with pure (branchless, autovectorizable) f64 range
/// compares, without reconstructing a single `KnobSettings`.
///
/// Returning `true` *guarantees* per-lane `validate()` would return `Ok`
/// for every lane — for arbitrary column contents, not just the
/// integer-valued ones the `push` API produces: the float→int casts in
/// `lane_knobs` truncate toward zero, so `x ∈ [MIN, MAX]` implies
/// `trunc(x) ∈ [MIN, MAX]` for the integer knobs, and the other checks are
/// literally the same comparisons `validate` performs (NaN fails them
/// here exactly as it fails there). `false` only means "could not prove
/// it": the caller re-checks per lane, so a conservative miss costs time,
/// never correctness.
fn knob_columns_all_valid(
    cores: &[f64],
    share: &[f64],
    freq: &[f64],
    llc_fraction: &[f64],
    dma_bytes: &[f64],
    batch_knob: &[f64],
) -> bool {
    let mut ok = true;
    for i in 0..cores.len() {
        ok &= (cores[i] >= 1.0)
            & (share[i] > 0.0)
            & (share[i] <= 1.0)
            & (freq[i] >= FREQ_MIN_GHZ - 1e-9)
            & (freq[i] <= FREQ_MAX_GHZ + 1e-9)
            & (llc_fraction[i] >= 0.0)
            & (llc_fraction[i] <= 1.0)
            & (dma_bytes[i] >= DMA_MIN_BYTES as f64)
            & (dma_bytes[i] <= DMA_MAX_BYTES as f64)
            & (batch_knob[i] >= f64::from(BATCH_MIN))
            & (batch_knob[i] <= f64::from(BATCH_MAX));
    }
    ok
}

fn eval_block(
    batch: &ChainBatch,
    tuning: &SimTuning,
    range: std::ops::Range<usize>,
    scratch: &mut Scratch,
    out: &mut Vec<SimResult<ChainEpochResult>>,
) {
    let n = range.len();
    if n == 0 {
        return;
    }
    crate::engine::record_kernel_lanes(n as u64);

    // Input column slices for this chunk.
    let cores = &batch.cpu_cores[range.clone()];
    let share = &batch.cpu_share[range.clone()];
    let freq = &batch.freq_ghz[range.clone()];
    let dma_bytes = &batch.dma_bytes[range.clone()];
    let batch_knob = &batch.batch_knob[range.clone()];
    let base_cpp = &batch.base_cycles_per_packet[range.clone()];
    let cyc_byte = &batch.cycles_per_byte[range.clone()];
    let mem_refs = &batch.mem_refs_per_packet[range.clone()];
    let state = &batch.state_bytes[range.clone()];
    let hops = &batch.hops[range.clone()];
    let arrival_col = &batch.arrival_pps[range.clone()];
    let mps = &batch.mean_packet_size[range.clone()];
    let burst = &batch.burstiness[range.clone()];
    let llc = &batch.llc_bytes[range.clone()];

    // Validate pass. The column pre-check proves the whole chunk valid
    // with branchless f64 range compares (the overwhelmingly common case —
    // every lane pushed through the typed `push` API is valid), and a
    // proven-valid chunk skips the mask entirely: no per-lane writes here,
    // no per-lane `take()` at scatter time. Only chunks the pre-check
    // cannot prove fall back to per-lane struct validation, which formats
    // the exact same `SimError`s as the scalar path.
    scratch.mask.clear();
    let all_valid = knob_columns_all_valid(
        cores,
        share,
        freq,
        &batch.llc_fraction[range.clone()],
        dma_bytes,
        batch_knob,
    );
    if !all_valid {
        for i in range {
            scratch.mask.push(batch.lane_knobs(i).validate().err());
        }
    }

    let mask = &mut scratch.mask;

    // Runs one pass over the whole chunk: full `WIDTH`-lane bundles first,
    // then the same generic pass one lane at a time for the remainder.
    macro_rules! sweep {
        ($pass:ident) => {{
            let main = n - n % WIDTH;
            let mut j = 0;
            while j < main {
                $pass!(F64x8, j);
                j += WIDTH;
            }
            while j < n {
                $pass!(f64, j);
                j += 1;
            }
        }};
    }

    // The whole analytic model for one bundle, intermediates in registers.
    // Masked lanes flow through like every other lane — every stage is an
    // element-wise float op, so garbage values cannot panic or perturb
    // their neighbours — and scatter their `Err` instead of the outputs.
    macro_rules! fused_pass {
        ($W:ty, $j:ident) => {{
            let (pkt, arrival) =
                pass_load::<$W>(<$W>::load(arrival_col, $j), <$W>::load(mps, $j), tuning);
            let miss = pass_miss_rate::<$W>(
                pkt,
                arrival,
                <$W>::load(batch_knob, $j),
                <$W>::load(hops, $j),
                <$W>::load(state, $j),
                <$W>::load(dma_bytes, $j),
                <$W>::load(llc, $j),
                tuning,
            );
            let cpp = pass_cycles::<$W>(
                pkt,
                miss,
                <$W>::load(batch_knob, $j),
                <$W>::load(hops, $j),
                <$W>::load(freq, $j),
                <$W>::load(base_cpp, $j),
                <$W>::load(cyc_byte, $j),
                <$W>::load(mem_refs, $j),
                tuning,
            );
            let capacity = pass_capacity::<$W>(
                cpp,
                <$W>::load(cores, $j),
                <$W>::load(share, $j),
                <$W>::load(freq, $j),
                tuning,
            );
            // M/M/1/K loss via the wide `wide_ln`/`wide_exp` polynomial
            // kernels (see `pass_loss`).
            let loss = pass_loss::<$W>(
                arrival,
                capacity,
                <$W>::load(dma_bytes, $j),
                pkt,
                <$W>::load(burst, $j),
                <$W>::load(batch_knob, $j),
            );
            let o = pass_outputs::<$W>(
                pkt,
                arrival,
                capacity,
                loss,
                miss,
                <$W>::load(mem_refs, $j),
                <$W>::load(cores, $j),
                <$W>::load(share, $j),
                tuning,
            );
            let result = |k: usize| ChainEpochResult {
                throughput_gbps: o.throughput_gbps.lane(k),
                delivered_pps: o.delivered_pps.lane(k),
                loss_frac: o.loss_frac.lane(k),
                miss_rate: miss.lane(k),
                llc_misses: o.llc_misses.lane(k),
                cpu_util: o.cpu_util.lane(k),
                busy_core_seconds: o.busy_core_seconds.lane(k),
                cycles_per_packet: cpp.lane(k),
            };
            if all_valid {
                // `Map<Range>` is `TrustedLen`, so this extend writes the
                // bundle without a per-lane capacity check.
                out.extend((0..<$W as WideLane>::LANES).map(|k| Ok(result(k))));
            } else {
                for k in 0..<$W as WideLane>::LANES {
                    out.push(match mask[$j + k].take() {
                        Some(e) => Err(e),
                        None => Ok(result(k)),
                    });
                }
            }
        }};
    }
    sweep!(fused_pass);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainSpec, ServiceChain};
    use crate::cpu::ChainId;
    use crate::engine::{evaluate_chain, llc_partition_bytes};

    fn canonical_cost() -> ChainCost {
        ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost()
    }

    fn sweep_batch(lanes: u32) -> ChainBatch {
        let cost = canonical_cost();
        let mut batch = ChainBatch::with_capacity(lanes as usize);
        for i in 0..lanes {
            let mut knobs = KnobSettings::default_tuned();
            knobs.batch = 1 + (i * 7) % 320;
            knobs.freq_ghz = 1.2 + 0.1 * f64::from(i % 10);
            let load = ChainLoad {
                arrival_pps: 1.0e6 + 5.0e4 * f64::from(i),
                mean_packet_size: 64.0 + f64::from(i % 20) * 70.0,
                burstiness: 1.0 + f64::from(i % 4) * 0.5,
            };
            batch.push(&knobs, &cost, &load, llc_partition_bytes(0.5));
        }
        batch
    }

    #[test]
    fn lane_roundtrip_is_exact() {
        let cost = canonical_cost();
        let knobs = KnobSettings::baseline();
        let load = ChainLoad {
            arrival_pps: 3.55e6,
            mean_packet_size: 395.0,
            burstiness: 1.2,
        };
        let mut batch = ChainBatch::new();
        batch.push(&knobs, &cost, &load, 1234.5);
        let (k, c, l, llc) = batch.lane(0);
        assert_eq!(k, knobs);
        assert_eq!(c, cost);
        assert_eq!(l.arrival_pps, load.arrival_pps);
        assert_eq!(l.mean_packet_size, load.mean_packet_size);
        assert_eq!(l.burstiness, load.burstiness);
        assert_eq!(llc, 1234.5);
    }

    #[test]
    fn batch_matches_scalar_loop_exactly() {
        let batch = sweep_batch(64);
        let tuning = SimTuning::default();
        let got = evaluate_chain_batch(&batch, &tuning);
        assert_eq!(got.len(), 64);
        for (i, r) in got.iter().enumerate() {
            let (knobs, cost, load, llc) = batch.lane(i);
            let expect = evaluate_chain(&knobs, &cost, &load, llc, &tuning);
            assert_eq!(r.as_ref().unwrap(), &expect, "lane {i}");
        }
    }

    #[test]
    fn invalid_lanes_carry_scalar_errors() {
        let cost = canonical_cost();
        let load = ChainLoad {
            arrival_pps: 1.0e6,
            mean_packet_size: 395.0,
            burstiness: 1.2,
        };
        let mut bad = KnobSettings::default_tuned();
        bad.batch = 0;
        let mut batch = ChainBatch::new();
        batch.push(&KnobSettings::default_tuned(), &cost, &load, 1e6);
        batch.push(&bad, &cost, &load, 1e6);
        let got = evaluate_chain_batch(&batch, &SimTuning::default());
        assert!(got[0].is_ok());
        assert_eq!(got[1], Err(bad.validate().unwrap_err()));
    }

    #[test]
    fn clear_retains_nothing() {
        let mut batch = sweep_batch(8);
        assert_eq!(batch.len(), 8);
        batch.clear();
        assert!(batch.is_empty());
        assert!(evaluate_chain_batch(&batch, &SimTuning::default()).is_empty());
    }

    #[test]
    fn setters_mark_dirty_only_on_real_change() {
        let mut batch = sweep_batch(16);
        let mut outputs = BatchOutputs::new();
        let tuning = SimTuning::default();
        evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
        assert_eq!(batch.dirty_lanes(), 0, "sweep clears the dirty mask");

        // Re-writing identical values keeps every lane clean.
        for i in 0..batch.len() {
            let (knobs, cost, load, llc) = batch.lane(i);
            batch.set_knobs(i, &knobs);
            batch.set_cost(i, &cost);
            batch.set_load(i, &load);
            batch.set_llc_bytes(i, llc);
        }
        assert_eq!(batch.dirty_lanes(), 0);

        // A single moved value dirties exactly its lane.
        let (_, _, mut load, _) = batch.lane(5);
        load.arrival_pps += 1.0;
        batch.set_load(5, &load);
        assert_eq!(batch.dirty_lanes(), 1);
        assert!(batch.is_dirty(5) && !batch.is_dirty(4));

        // -0.0 vs 0.0 is a change under the bitwise contract.
        batch.set_llc_bytes(0, 0.0);
        let before = batch.dirty_lanes();
        batch.set_llc_bytes(0, -0.0);
        assert!(batch.dirty_lanes() > before || batch.is_dirty(0));
    }

    #[test]
    fn incremental_sweep_equals_full_sweep_exactly() {
        let tuning = SimTuning::default();
        for lanes in [1u32, 7, 8, 9, 63, 65, 256, 300] {
            let mut batch = sweep_batch(lanes);
            let mut outputs = BatchOutputs::new();
            // Unprimed cache: the incremental call runs a (priming) full sweep.
            let first = evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
            assert_eq!(first, evaluate_chain_batch(&batch, &tuning));

            // Dirty a scattered subset and compare against a fresh full sweep.
            for i in (0..lanes as usize).step_by(5) {
                let (_, _, mut load, _) = batch.lane(i);
                load.arrival_pps *= 1.25;
                batch.set_load(i, &load);
            }
            let incr = evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
            assert_eq!(incr, evaluate_chain_batch(&batch, &tuning), "lanes={lanes}");
            assert_eq!(batch.dirty_lanes(), 0);

            // All-clean epoch: cached results come back verbatim.
            let again = evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
            assert_eq!(again, incr);
        }
    }

    #[test]
    fn incremental_sweep_is_thread_count_invariant() {
        let tuning = SimTuning::default();
        let reference = {
            let mut batch = sweep_batch(300);
            let mut outputs = BatchOutputs::new();
            evaluate_chain_batch_incremental_threads(&mut batch, &tuning, &mut outputs, 1);
            for i in (0..300).step_by(7) {
                let (_, _, mut load, _) = batch.lane(i);
                load.arrival_pps += 9.0e4;
                batch.set_load(i, &load);
            }
            evaluate_chain_batch_incremental_threads(&mut batch, &tuning, &mut outputs, 1)
        };
        for threads in [2usize, 8] {
            let mut batch = sweep_batch(300);
            let mut outputs = BatchOutputs::new();
            evaluate_chain_batch_incremental_threads(&mut batch, &tuning, &mut outputs, threads);
            for i in (0..300).step_by(7) {
                let (_, _, mut load, _) = batch.lane(i);
                load.arrival_pps += 9.0e4;
                batch.set_load(i, &load);
            }
            let got = evaluate_chain_batch_incremental_threads(
                &mut batch,
                &tuning,
                &mut outputs,
                threads,
            );
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn lane_count_change_invalidates_the_cache() {
        let tuning = SimTuning::default();
        let mut batch = sweep_batch(16);
        let mut outputs = BatchOutputs::new();
        evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
        batch.clear();
        for i in 0..24u32 {
            let cost = canonical_cost();
            let mut knobs = KnobSettings::default_tuned();
            knobs.batch = 1 + i;
            let load = ChainLoad {
                arrival_pps: 1.0e6,
                mean_packet_size: 400.0,
                burstiness: 1.1,
            };
            batch.push(&knobs, &cost, &load, 1e6);
        }
        let incr = evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
        assert_eq!(incr, evaluate_chain_batch(&batch, &tuning));
        assert_eq!(outputs.len(), 24);
    }

    #[test]
    fn lane_writer_matches_pushes_and_truncates() {
        let reference = sweep_batch(20);
        // Staging the same lanes through a writer equals pushing them.
        let mut staged = ChainBatch::new();
        let mut w = staged.lane_writer(false);
        for i in 0..20 {
            let (knobs, cost, load, llc) = reference.lane(i);
            w.write(&knobs, &cost, &load, true, llc);
        }
        assert_eq!(w.lanes(), 20);
        w.finish();
        let tuning = SimTuning::default();
        assert_eq!(
            evaluate_chain_batch(&staged, &tuning),
            evaluate_chain_batch(&reference, &tuning)
        );

        // Restaging a shorter epoch truncates the leftover lanes, and
        // identical values keep every surviving lane clean.
        let mut outputs = BatchOutputs::new();
        evaluate_chain_batch_incremental(&mut staged, &tuning, &mut outputs);
        assert_eq!(staged.dirty_lanes(), 0);
        let mut w = staged.lane_writer(false);
        for i in 0..12 {
            let (knobs, cost, load, llc) = reference.lane(i);
            w.write(&knobs, &cost, &load, true, llc);
        }
        w.finish();
        assert_eq!(staged.len(), 12);
        assert_eq!(staged.dirty_lanes(), 0);
    }

    #[test]
    fn lane_writer_skips_clean_loads_only_when_asked() {
        let mut batch = sweep_batch(8);
        let (knobs, cost, _, llc) = batch.lane(3);
        let stale = ChainLoad {
            arrival_pps: 9.9e9,
            mean_packet_size: 1.0,
            burstiness: 9.0,
        };
        // reuse_clean_loads + load_changed=false leaves the lane's load
        // columns untouched (the incremental steady-state contract)...
        let mut w = batch.lane_writer(true);
        for _ in 0..3 {
            let (k, c, l, b) = (knobs, cost, stale, llc);
            w.write(&k, &c, &l, false, b);
        }
        let before = batch.lane(2).2;
        assert_ne!(before.arrival_pps, stale.arrival_pps);
        // ...while a writer without the flag always writes the load.
        let mut w = batch.lane_writer(false);
        let (k, c) = (knobs, cost);
        w.write(&k, &c, &stale, false, llc);
        assert_eq!(batch.lane(0).2.arrival_pps, stale.arrival_pps);
    }

    #[test]
    fn into_eval_matches_allocating_eval() {
        let batch = sweep_batch(300);
        let tuning = SimTuning::default();
        let expect = evaluate_chain_batch(&batch, &tuning);
        let mut out = Vec::new();
        for threads in [1usize, 2, 8] {
            evaluate_chain_batch_threads_into(&batch, &tuning, threads, &mut out);
            assert_eq!(out, expect, "threads={threads}");
        }
        // Reuse across sweeps: the buffer refills in place.
        evaluate_chain_batch_into(&batch, &tuning, &mut out);
        assert_eq!(out, expect);
    }
}
