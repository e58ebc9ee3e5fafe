//! Analytic epoch engine: the performance/energy model of one node.
//!
//! Every control epoch (default 30 s) the engine converts a chain's knob
//! settings plus its offered load into throughput, loss, cache misses, CPU
//! utilization, and node-level power/energy. The model is mechanistic — each
//! term corresponds to a real effect the paper measures in §3:
//!
//! * **cycles/packet** = chain compute + per-wakeup call overhead amortized
//!   by the batch-size knob + memory-stall cycles driven by the LLC miss rate;
//! * **miss rate** = capacity misses (working set vs CAT partition)
//!   + interleave misses (tiny batches lose locality, Fig 3b)
//!   + DDIO spill (DMA buffer larger than the DDIO share, Fig 4b);
//! * **loss** = M/M/1/K blocking on the DMA/RX buffer (Fig 4a);
//! * **power** = Eq. 4 over powered cores, with poll-mode burn: pure DPDK
//!   polling keeps assigned cores at 100% regardless of load, adaptive
//!   sleep (GreenNFV's callback/poll mix) burns only a small poll fraction.
//!
//! The per-chain model is implemented once as **column passes** —
//! [`pass_load`], [`pass_miss_rate`], [`pass_cycles`], [`pass_capacity`],
//! [`pass_outputs`] — generic over [`crate::simd::WideLane`]. The scalar
//! [`evaluate_chain`] runs them one lane at a time (`f64`); the batched
//! kernel in [`crate::batch`] runs the same functions eight lanes at a time
//! ([`crate::simd::F64x8`]). Because every `WideLane` operation is
//! element-wise (see the `simd` module docs), both paths are bit-identical
//! by construction.

use serde::{Deserialize, Serialize};

use crate::chain::ChainCost;
use crate::chainvec::ChainVec;
use crate::cpu::CpuAllocation;
use crate::dma::{buffer_loss_lanes, DmaBuffer};
use crate::dvfs::{FREQ_MAX_GHZ, FREQ_MIN_GHZ};
use crate::error::{SimError, SimResult};
use crate::llc::{ddio_hit_lanes, MissModel, LLC_BYTES};
use crate::power::PowerModel;
use crate::simd::WideLane;

/// Batch-size knob bounds (packets per NF wakeup).
pub const BATCH_MIN: u32 = 1;
/// Upper bound of the batch-size knob.
pub const BATCH_MAX: u32 = 320;

/// The five control knobs GreenNFV tunes for one chain (paper Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnobSettings {
    /// CPU cores + cgroup share.
    pub cpu: CpuAllocation,
    /// Core frequency in GHz (userspace governor).
    pub freq_ghz: f64,
    /// Fraction of the (non-DDIO) LLC allocated to this chain via CAT.
    pub llc_fraction: f64,
    /// DMA / RX buffer size.
    pub dma: DmaBuffer,
    /// Packet batch size.
    pub batch: u32,
}

impl KnobSettings {
    /// Validates all knob ranges.
    pub fn validate(&self) -> SimResult<()> {
        self.cpu.validate()?;
        if !(FREQ_MIN_GHZ - 1e-9..=FREQ_MAX_GHZ + 1e-9).contains(&self.freq_ghz) {
            return Err(SimError::InvalidKnob {
                knob: "freq_ghz",
                reason: format!("{} outside [{FREQ_MIN_GHZ}, {FREQ_MAX_GHZ}]", self.freq_ghz),
            });
        }
        if !(0.0..=1.0).contains(&self.llc_fraction) {
            return Err(SimError::InvalidKnob {
                knob: "llc_fraction",
                reason: format!("{} outside [0, 1]", self.llc_fraction),
            });
        }
        self.dma.validate()?;
        if !(BATCH_MIN..=BATCH_MAX).contains(&self.batch) {
            return Err(SimError::InvalidKnob {
                knob: "batch",
                reason: format!("{} outside [{BATCH_MIN}, {BATCH_MAX}]", self.batch),
            });
        }
        Ok(())
    }

    /// The paper's untuned baseline: one shared core at the performance
    /// governor's max frequency, per-packet processing (batch 1), unmanaged
    /// LLC (small effective share under contention), small default DMA ring.
    pub fn baseline() -> Self {
        Self {
            cpu: CpuAllocation {
                cores: 3,
                share: 1.0,
            },
            freq_ghz: FREQ_MAX_GHZ,
            llc_fraction: 0.25,
            dma: DmaBuffer::from_mb(2.0),
            batch: 1,
        }
    }

    /// Sensible mid-range defaults used by the non-learning controllers.
    pub fn default_tuned() -> Self {
        Self {
            cpu: CpuAllocation {
                cores: 2,
                share: 1.0,
            },
            freq_ghz: 1.7,
            llc_fraction: 0.5,
            dma: DmaBuffer::from_mb(4.0),
            batch: 32,
        }
    }
}

/// How NF cores wait for packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PollMode {
    /// DPDK poll-mode driver: assigned cores spin at 100%.
    PurePoll,
    /// GreenNFV's callback/poll mix: cores sleep when queues are empty,
    /// burning only a small poll fraction of idle time.
    AdaptiveSleep,
}

/// Node-level platform policy, distinguishing the baseline platform from the
/// GreenNFV-managed one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformPolicy {
    /// How cores wait for work.
    pub poll_mode: PollMode,
    /// Whether unassigned cores are powered off (GreenNFV) or left in C0.
    pub idle_core_power_off: bool,
}

impl PlatformPolicy {
    /// The paper's baseline platform: pure polling, no core power management.
    pub fn baseline() -> Self {
        Self {
            poll_mode: PollMode::PurePoll,
            idle_core_power_off: false,
        }
    }

    /// GreenNFV's platform: adaptive sleep + idle core power-off.
    pub fn greennfv() -> Self {
        Self {
            poll_mode: PollMode::AdaptiveSleep,
            idle_core_power_off: true,
        }
    }
}

/// Offered load summary for one chain in one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainLoad {
    /// Aggregate packet arrival rate (pps).
    pub arrival_pps: f64,
    /// Rate-weighted mean packet size (bytes).
    pub mean_packet_size: f64,
    /// Peak-to-mean burstiness factor (>= 1).
    pub burstiness: f64,
}

/// Tunable model constants. Defaults are calibrated so the §3
/// micro-benchmarks land in the paper's ranges; see `tests/calibration.rs`.
/// `PartialEq` lets [`crate::cluster::Cluster::add_node`] keep every node on
/// one tuning, so each epoch fuses all lanes into a single
/// [`crate::batch::ChainBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTuning {
    /// DRAM access latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// LLC hit latency in nanoseconds.
    pub llc_hit_ns: f64,
    /// Cycles per NF wakeup (ring dequeue + function call), amortized by batch.
    pub per_call_cycles: f64,
    /// Interleave-miss coefficient at batch = 1 (locality loss, Fig 3b left).
    pub interleave_base: f64,
    /// Batch size at which interleave misses halve.
    pub interleave_half_batch: f64,
    /// Weight of DDIO spill on the effective miss rate.
    pub ddio_spill_weight: f64,
    /// Multi-core scaling efficiency per extra core (1.0 = linear).
    pub core_scale_eff: f64,
    /// Fraction of idle time burned by polling in AdaptiveSleep mode.
    pub adaptive_poll_burn: f64,
    /// Cores reserved for the ONVM manager's Rx/Tx threads.
    pub manager_cores: u32,
    /// Total cores per node (dual-socket E5-2620 v4 = 16).
    pub total_cores: u32,
    /// Analytic miss-rate surface parameters.
    pub miss_model: MissModel,
    /// Control epoch duration in seconds.
    pub epoch_s: f64,
    /// NIC line rate in Gbps (Intel X540 = 10 GbE); offered load is clamped.
    pub nic_gbps: f64,
    /// Working-set amplification per extra chain hop: each NF re-walks the
    /// batch, keeping more of it live in the LLC.
    pub hop_ws_amplification: f64,
    /// Hot working-set bytes per packet/s of arrival rate (flow-table
    /// entries, mbuf descriptors, DMA metadata churn). Makes high-rate flows
    /// need proportionally more LLC, the effect behind the paper's Figure 1.
    pub ws_per_pps: f64,
}

impl Default for SimTuning {
    fn default() -> Self {
        Self {
            mem_latency_ns: 70.0,
            llc_hit_ns: 8.0,
            per_call_cycles: 1200.0,
            interleave_base: 0.38,
            interleave_half_batch: 16.0,
            ddio_spill_weight: 0.06,
            core_scale_eff: 0.8,
            adaptive_poll_burn: 0.05,
            manager_cores: 2,
            total_cores: 16,
            miss_model: MissModel {
                m_min: 0.02,
                capacity_scale: 1.0,
            },
            epoch_s: 30.0,
            nic_gbps: 10.0,
            hop_ws_amplification: 0.5,
            ws_per_pps: 0.08,
        }
    }
}

impl SimTuning {
    /// Every field's exact bit pattern as little-endian words, in
    /// declaration order — the canonical prefix of every lane key in
    /// [`crate::cache`]. Lives next to the struct on purpose: adding a
    /// tuning field means extending this list, so a new field can never
    /// silently alias cache entries keyed without it.
    #[must_use]
    pub fn canonical_words(&self) -> [u64; 16] {
        [
            self.mem_latency_ns.to_bits(),
            self.llc_hit_ns.to_bits(),
            self.per_call_cycles.to_bits(),
            self.interleave_base.to_bits(),
            self.interleave_half_batch.to_bits(),
            self.ddio_spill_weight.to_bits(),
            self.core_scale_eff.to_bits(),
            self.adaptive_poll_burn.to_bits(),
            u64::from(self.manager_cores),
            u64::from(self.total_cores),
            self.miss_model.m_min.to_bits(),
            self.miss_model.capacity_scale.to_bits(),
            self.epoch_s.to_bits(),
            self.nic_gbps.to_bits(),
            self.hop_ws_amplification.to_bits(),
            self.ws_per_pps.to_bits(),
        ]
    }
}

/// Per-chain outcome of one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChainEpochResult {
    /// Delivered throughput in Gbps.
    pub throughput_gbps: f64,
    /// Delivered packet rate (pps).
    pub delivered_pps: f64,
    /// Fraction of offered packets lost (RX-buffer blocking + overload).
    pub loss_frac: f64,
    /// Effective LLC miss rate in [0, 1].
    pub miss_rate: f64,
    /// Absolute LLC misses during the epoch.
    pub llc_misses: f64,
    /// Work utilization of the chain's allocated compute in [0, 1].
    pub cpu_util: f64,
    /// Core-seconds of busy (work + poll burn) time this epoch.
    pub busy_core_seconds: f64,
    /// Modeled cycles per packet.
    pub cycles_per_packet: f64,
}

/// Node-level outcome of one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeEpochResult {
    /// Per-chain results, in input order. Stored inline up to
    /// [`crate::chainvec::CHAIN_INLINE`] chains so owned reports build,
    /// clone, and drop without heap traffic.
    pub chains: ChainVec<ChainEpochResult>,
    /// Mean node power draw (watts).
    pub power_w: f64,
    /// Node energy over the epoch (joules).
    pub energy_j: f64,
    /// Utilization over powered cores (busy / powered).
    pub utilization: f64,
    /// Fraction of cores powered on.
    pub powered_frac: f64,
}

impl NodeEpochResult {
    /// Aggregate delivered throughput in Gbps.
    pub fn total_throughput_gbps(&self) -> f64 {
        self.chains.iter().map(|c| c.throughput_gbps).sum()
    }

    /// Energy efficiency λ = throughput / energy (paper Eq. 3), in
    /// Gbps per kilojoule.
    pub fn energy_efficiency(&self) -> f64 {
        if self.energy_j <= 0.0 {
            return 0.0;
        }
        self.total_throughput_gbps() / (self.energy_j / 1000.0)
    }

    /// Energy per megapacket delivered (the paper's "Energy/MP" metric).
    pub fn energy_per_mpkt(&self) -> f64 {
        let mp: f64 = self.chains.iter().map(|c| c.delivered_pps).sum::<f64>();
        if mp <= 0.0 {
            return 0.0;
        }
        // delivered_pps × epoch = packets; energy / (packets / 1e6).
        self.energy_j / (mp / 1e6)
    }
}

// ---------------------------------------------------------------------------
// Kernel instrumentation
// ---------------------------------------------------------------------------

thread_local! {
    /// Lanes swept through the column-pass kernel by *this thread*; see
    /// [`kernel_lanes_swept`].
    static KERNEL_LANES_SWEPT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Test hook: total lanes this thread has pushed through the column-pass
/// kernel (each [`crate::batch`] kernel block adds its lane count).
///
/// Thread-local on purpose: integration tests run concurrently, and an
/// all-clean-epoch test asserting "zero kernel invocations" must not observe
/// another test's sweeps. Callers that want the counting to happen on their
/// own thread should evaluate inline (thread count 1), which is exactly what
/// a clean incremental epoch does anyway.
pub fn kernel_lanes_swept() -> u64 {
    KERNEL_LANES_SWEPT.with(std::cell::Cell::get)
}

/// Adds a kernel block's lane count to this thread's sweep counter.
pub(crate) fn record_kernel_lanes(lanes: u64) {
    KERNEL_LANES_SWEPT.with(|c| c.set(c.get() + lanes));
}

// ---------------------------------------------------------------------------
// Column passes
// ---------------------------------------------------------------------------
//
// Each pass is one stage of the analytic model, written once over
// `WideLane` so the scalar engine (W = f64) and the batched column kernel
// (W = F64x8) execute the *same* sequence of element-wise IEEE-754
// operations per lane. Keep every operation element-wise and keep the
// operation order stable: the golden snapshots and the differential
// proptest pin the results bit-for-bit.

/// Load pass: clamps the packet size to the 64 B Ethernet floor and caps the
/// offered rate at NIC line rate. Returns `(pkt_bytes, arrival_pps)`.
#[inline(always)]
pub fn pass_load<W: WideLane>(arrival_pps: W, mean_packet_size: W, tuning: &SimTuning) -> (W, W) {
    let pkt = mean_packet_size.vmax(W::splat(64.0));
    // The NIC cannot deliver more than line rate.
    let nic_pps = W::splat(tuning.nic_gbps * 1e9) / (pkt * W::splat(8.0));
    (pkt, arrival_pps.vmin(nic_pps))
}

/// Miss-model pass: capacity misses (working set vs CAT partition) +
/// interleave misses (tiny batches lose locality) + DDIO spill, clamped to
/// `[0, 1]`.
#[inline(always)]
pub fn pass_miss_rate<W: WideLane>(
    pkt: W,
    arrival_pps: W,
    batch: W,
    hops: W,
    state_bytes: W,
    dma_bytes: W,
    llc_bytes: W,
    tuning: &SimTuning,
) -> W {
    // Working set: one batch of packet data (amplified by chain hops, which
    // keep more of the batch live) plus resident NF state.
    let hop_amp = W::splat(1.0) + W::splat(tuning.hop_ws_amplification) * (hops - W::splat(1.0));
    let ws = batch * pkt * hop_amp + state_bytes + arrival_pps * W::splat(tuning.ws_per_pps);
    let m_capacity = tuning
        .miss_model
        .miss_rate_lanes(ws, llc_bytes.vmax(W::splat(1.0)));
    // Locality loss at tiny batches: every packet is fetched cold.
    // Algebraically `base / (1 + batch/half)` with numerator and
    // denominator scaled by `half`, folding two lane divisions into one
    // (`divpd` is the most expensive SSE2 instruction in the kernel).
    let m_interleave = W::splat(tuning.interleave_base * tuning.interleave_half_batch)
        / (W::splat(tuning.interleave_half_batch) + batch);
    // DDIO spill: DMA buffers beyond the DDIO share land in DRAM.
    let ddio_spill = W::splat(1.0) - ddio_hit_lanes(dma_bytes);
    (m_capacity + m_interleave + W::splat(tuning.ddio_spill_weight) * ddio_spill).clamp01()
}

/// Cycles pass: chain compute (per quantized packet byte) + per-wakeup call
/// overhead amortized by the batch knob + memory-stall cycles driven by the
/// miss rate. Returns cycles per packet.
#[inline(always)]
pub fn pass_cycles<W: WideLane>(
    pkt: W,
    miss_rate: W,
    batch: W,
    hops: W,
    freq_ghz: W,
    base_cycles_per_packet: W,
    cycles_per_byte: W,
    mem_refs_per_packet: W,
    tuning: &SimTuning,
) -> W {
    // `ChainCost::compute_cycles` quantizes the packet size to whole bytes.
    let compute = base_cycles_per_packet + cycles_per_byte * pkt.trunc_u32();
    let call_overhead = hops * W::splat(tuning.per_call_cycles) / batch;
    let stall = mem_refs_per_packet
        * (miss_rate * W::splat(tuning.mem_latency_ns)
            + (W::splat(1.0) - miss_rate) * W::splat(tuning.llc_hit_ns))
        * freq_ghz;
    compute + call_overhead + stall
}

/// Capacity pass: packets per second the chain's allocated compute can
/// service at its cycles-per-packet cost, with diminishing multi-core
/// scaling.
#[inline(always)]
pub fn pass_capacity<W: WideLane>(
    cpp: W,
    cores: W,
    share: W,
    freq_ghz: W,
    tuning: &SimTuning,
) -> W {
    let scale = W::splat(1.0) + W::splat(tuning.core_scale_eff) * (cores - W::splat(1.0));
    share * freq_ghz * W::splat(1e9) / cpp * scale
}

/// Loss pass: M/M/1/K buffer loss as a wide column pass.
///
/// A thin wrapper over [`crate::dma::buffer_loss_lanes`] so the loss stage
/// sits beside the other passes; the transcendentals come from the
/// [`crate::simd::wide_ln`]/[`crate::simd::wide_exp`] polynomial kernels, so
/// this stage — the former scalar half of kernel time — now follows the
/// same bit-equality contract as every other pass. `dma_bytes` and `batch`
/// are the integer knobs as f64 lanes.
#[inline(always)]
pub fn pass_loss<W: WideLane>(
    arrival_pps: W,
    capacity_pps: W,
    dma_bytes: W,
    pkt: W,
    burstiness: W,
    batch: W,
) -> W {
    buffer_loss_lanes(arrival_pps, capacity_pps, dma_bytes, pkt, burstiness, batch)
}

/// Per-lane outputs of [`pass_outputs`], one [`WideLane`] bundle per
/// [`ChainEpochResult`] field it computes (`miss_rate` and
/// `cycles_per_packet` come straight from the earlier passes).
#[derive(Debug, Clone, Copy)]
pub struct PassOutputs<W> {
    /// Delivered throughput in Gbps.
    pub throughput_gbps: W,
    /// Delivered packet rate (pps).
    pub delivered_pps: W,
    /// Fraction of offered packets lost.
    pub loss_frac: W,
    /// Work utilization of the allocated compute in [0, 1].
    pub cpu_util: W,
    /// Absolute LLC misses during the epoch.
    pub llc_misses: W,
    /// Core-seconds of busy (work + poll burn) time this epoch.
    pub busy_core_seconds: W,
}

/// Output pass: folds offered load, service capacity, and buffer loss into
/// the delivered-rate outputs of the epoch.
///
/// Zero-offered-load and zero-capacity lanes take the same guarded branches
/// the scalar engine takes (via [`WideLane::select_gt_zero`]), so division
/// hazards never leak into results.
#[inline(always)]
pub fn pass_outputs<W: WideLane>(
    pkt: W,
    arrival_pps: W,
    capacity_pps: W,
    buf_loss: W,
    miss_rate: W,
    mem_refs_per_packet: W,
    cores: W,
    share: W,
    tuning: &SimTuning,
) -> PassOutputs<W> {
    let accepted_pps = arrival_pps * (W::splat(1.0) - buf_loss);
    let delivered_pps = accepted_pps.vmin(capacity_pps);
    let loss_frac =
        arrival_pps.select_gt_zero(W::splat(1.0) - delivered_pps / arrival_pps, W::splat(0.0));
    // `* 8 / 1e9` folded to one constant multiply (saves a lane division).
    let throughput_gbps = delivered_pps * pkt * W::splat(8.0 / 1e9);
    let cpu_util =
        capacity_pps.select_gt_zero((delivered_pps / capacity_pps).clamp01(), W::splat(0.0));
    let llc_misses = delivered_pps * mem_refs_per_packet * miss_rate * W::splat(tuning.epoch_s);
    // Busy time: work plus poll burn on the allocated share.
    let allocated_core_seconds = cores * share * W::splat(tuning.epoch_s);
    let busy_core_seconds = allocated_core_seconds * cpu_util
        + allocated_core_seconds * (W::splat(1.0) - cpu_util) * W::splat(tuning.adaptive_poll_burn);
    PassOutputs {
        throughput_gbps,
        delivered_pps,
        loss_frac,
        cpu_util,
        llc_misses,
        busy_core_seconds,
    }
}

/// Evaluates one chain for one epoch.
///
/// `llc_bytes` is the chain's CAT partition in bytes (the node computes it
/// from the llc_fraction knobs of all chains so contention is explicit).
///
/// This is the one-lane (`W = f64`) instantiation of the column passes; the
/// batched kernel in [`crate::batch`] runs the identical passes eight lanes
/// at a time.
pub fn evaluate_chain(
    knobs: &KnobSettings,
    cost: &ChainCost,
    load: &ChainLoad,
    llc_bytes: f64,
    tuning: &SimTuning,
) -> ChainEpochResult {
    let batch = f64::from(knobs.batch);
    let hops = f64::from(cost.hops);
    let cores = f64::from(knobs.cpu.cores);

    let (pkt, arrival_pps) = pass_load(load.arrival_pps, load.mean_packet_size, tuning);
    let miss_rate = pass_miss_rate(
        pkt,
        arrival_pps,
        batch,
        hops,
        cost.state_bytes as f64,
        knobs.dma.bytes as f64,
        llc_bytes,
        tuning,
    );
    let cpp = pass_cycles(
        pkt,
        miss_rate,
        batch,
        hops,
        knobs.freq_ghz,
        cost.base_cycles_per_packet,
        cost.cycles_per_byte,
        cost.mem_refs_per_packet,
        tuning,
    );
    let capacity_pps = pass_capacity(cpp, cores, knobs.cpu.share, knobs.freq_ghz, tuning);
    let buf_loss = pass_loss(
        arrival_pps,
        capacity_pps,
        knobs.dma.bytes as f64,
        pkt,
        load.burstiness,
        f64::from(knobs.batch),
    );
    let out = pass_outputs(
        pkt,
        arrival_pps,
        capacity_pps,
        buf_loss,
        miss_rate,
        cost.mem_refs_per_packet,
        cores,
        knobs.cpu.share,
        tuning,
    );

    ChainEpochResult {
        throughput_gbps: out.throughput_gbps,
        delivered_pps: out.delivered_pps,
        loss_frac: out.loss_frac,
        miss_rate,
        llc_misses: out.llc_misses,
        cpu_util: out.cpu_util,
        busy_core_seconds: out.busy_core_seconds,
        cycles_per_packet: cpp,
    }
}

/// Evaluates a whole node (several chains) for one epoch, producing power
/// and energy from Eq. 4.
///
/// This is the scalar composition of the per-chain kernel with
/// [`aggregate_node`]; the batched callers ([`crate::cluster::Cluster`],
/// [`crate::node::Node::evaluate_candidates`]) run the same kernel through
/// [`crate::batch::evaluate_chain_batch`] and then aggregate, so both paths
/// produce identical numbers.
pub fn evaluate_node(
    configs: &[(KnobSettings, ChainCost, ChainLoad, f64)],
    policy: &PlatformPolicy,
    power: &PowerModel,
    tuning: &SimTuning,
) -> NodeEpochResult {
    let results: Vec<ChainEpochResult> = configs
        .iter()
        .map(|(knobs, cost, load, llc_bytes)| evaluate_chain(knobs, cost, load, *llc_bytes, tuning))
        .collect();
    let knobs: Vec<KnobSettings> = configs.iter().map(|(k, ..)| *k).collect();
    aggregate_node(&results, &knobs, policy, power, tuning)
}

/// Folds per-chain epoch results into the node-level outcome (power and
/// energy from Eq. 4), applying the platform policy's poll-mode burn.
///
/// `chain_results[i]` must be the evaluation of the chain whose knobs are
/// `knobs[i]`; both slices are consumed in order, so the reduction is
/// deterministic regardless of how (or on how many threads) the per-chain
/// results were computed.
///
/// # Panics
/// When the two slices differ in length.
pub fn aggregate_node(
    chain_results: &[ChainEpochResult],
    knobs: &[KnobSettings],
    policy: &PlatformPolicy,
    power: &PowerModel,
    tuning: &SimTuning,
) -> NodeEpochResult {
    let mut out = NodeEpochResult::default();
    aggregate_node_into(chain_results, knobs, policy, power, tuning, &mut out);
    out
}

/// In-place form of [`aggregate_node`]: folds into a caller-owned result so
/// the epoch path builds its report where it will live instead of moving
/// ~200-byte results through intermediate frames. Same arithmetic, same
/// bits.
///
/// # Panics
/// When the two slices differ in length.
pub fn aggregate_node_into(
    chain_results: &[ChainEpochResult],
    knobs: &[KnobSettings],
    policy: &PlatformPolicy,
    power: &PowerModel,
    tuning: &SimTuning,
    out: &mut NodeEpochResult,
) {
    assert_eq!(
        chain_results.len(),
        knobs.len(),
        "one knob set per chain result"
    );
    out.chains.clear();
    out.chains.reserve(chain_results.len());
    let mut assigned_cores = 0u32;
    let mut busy_core_seconds = 0.0;
    let mut freq_weighted = 0.0;
    let mut freq_weight = 0.0;

    for (result, knobs) in chain_results.iter().zip(knobs) {
        let mut r = *result;
        assigned_cores += knobs.cpu.cores;
        if policy.poll_mode == PollMode::PurePoll {
            // Pure PMD: the chain's allocated cores spin at 100%.
            let allocated = f64::from(knobs.cpu.cores) * knobs.cpu.share * tuning.epoch_s;
            r.busy_core_seconds = allocated;
        }
        busy_core_seconds += r.busy_core_seconds;
        freq_weighted += knobs.freq_ghz * f64::from(knobs.cpu.cores);
        freq_weight += f64::from(knobs.cpu.cores);
        out.chains.push(r);
    }

    // Manager Rx/Tx threads: spin in pure poll; track mean chain load otherwise.
    let mgr = f64::from(tuning.manager_cores);
    let mean_util = if out.chains.is_empty() {
        0.0
    } else {
        out.chains.iter().map(|c| c.cpu_util).sum::<f64>() / out.chains.len() as f64
    };
    busy_core_seconds += match policy.poll_mode {
        PollMode::PurePoll => mgr * tuning.epoch_s,
        PollMode::AdaptiveSleep => mgr * tuning.epoch_s * mean_util.max(0.05),
    };

    let powered_cores = if policy.idle_core_power_off {
        (tuning.manager_cores + assigned_cores).min(tuning.total_cores)
    } else {
        tuning.total_cores
    };
    out.powered_frac = f64::from(powered_cores) / f64::from(tuning.total_cores);
    let powered_core_seconds = f64::from(powered_cores) * tuning.epoch_s;
    out.utilization = if powered_core_seconds > 0.0 {
        (busy_core_seconds / powered_core_seconds).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mean_freq = if freq_weight > 0.0 {
        freq_weighted / freq_weight
    } else {
        FREQ_MAX_GHZ
    };

    out.power_w = power.power_w(out.utilization, mean_freq, out.powered_frac);
    out.energy_j = out.power_w * tuning.epoch_s;
}

/// Borrowed knob columns for [`aggregate_node_columns_into`]: the
/// structure-of-arrays view a [`crate::batch::ChainBatch`] exposes, so the
/// node fold can run straight off the staged lanes without rebuilding
/// [`KnobSettings`] structs.
///
/// `cores[i]` holds `f64::from(knobs.cpu.cores)` exactly (small integers are
/// exact in f64), which keeps the fold bit-identical to [`aggregate_node`].
#[derive(Debug, Clone, Copy)]
pub struct KnobColumns<'a> {
    /// Per-lane core counts, stored as exact small-integer `f64`s.
    pub cores: &'a [f64],
    /// Per-lane core share in `[0, 1]`.
    pub share: &'a [f64],
    /// Per-lane DVFS frequency in GHz.
    pub freq_ghz: &'a [f64],
}

/// Column-slice variant of [`aggregate_node`] that folds straight over the
/// batch kernel's output lanes into a reusable [`NodeEpochResult`], so the
/// steady-state epoch loop performs no per-epoch allocation once `out` has
/// grown to the node's chain count.
///
/// The arithmetic is lane-for-lane identical to [`aggregate_node`]:
/// `cores[i] as u32` recovers the exact integer core count and the f64
/// products consume the same bits, so both paths produce bit-equal results.
///
/// # Panics
/// When the column lengths disagree with `chain_results`, or when a lane is
/// an `Err` (lanes staged from node-resident knobs were already validated).
pub fn aggregate_node_columns_into(
    chain_results: &[SimResult<ChainEpochResult>],
    knobs: KnobColumns<'_>,
    policy: &PlatformPolicy,
    power: &PowerModel,
    tuning: &SimTuning,
    out: &mut NodeEpochResult,
) {
    let n = chain_results.len();
    assert_eq!(n, knobs.cores.len(), "one cores lane per chain result");
    assert_eq!(n, knobs.share.len(), "one share lane per chain result");
    assert_eq!(n, knobs.freq_ghz.len(), "one freq lane per chain result");
    out.chains.clear();
    out.chains.reserve(n);
    let mut assigned_cores = 0u32;
    let mut busy_core_seconds = 0.0;
    let mut freq_weighted = 0.0;
    let mut freq_weight = 0.0;

    for (i, result) in chain_results.iter().enumerate() {
        let mut r = *result
            .as_ref()
            .expect("staged lanes hold node-validated knobs");
        assigned_cores += knobs.cores[i] as u32;
        if policy.poll_mode == PollMode::PurePoll {
            // Pure PMD: the chain's allocated cores spin at 100%.
            let allocated = knobs.cores[i] * knobs.share[i] * tuning.epoch_s;
            r.busy_core_seconds = allocated;
        }
        busy_core_seconds += r.busy_core_seconds;
        freq_weighted += knobs.freq_ghz[i] * knobs.cores[i];
        freq_weight += knobs.cores[i];
        out.chains.push(r);
    }

    // Manager Rx/Tx threads: spin in pure poll; track mean chain load otherwise.
    let mgr = f64::from(tuning.manager_cores);
    let mean_util = if out.chains.is_empty() {
        0.0
    } else {
        out.chains.iter().map(|c| c.cpu_util).sum::<f64>() / out.chains.len() as f64
    };
    busy_core_seconds += match policy.poll_mode {
        PollMode::PurePoll => mgr * tuning.epoch_s,
        PollMode::AdaptiveSleep => mgr * tuning.epoch_s * mean_util.max(0.05),
    };

    let powered_cores = if policy.idle_core_power_off {
        (tuning.manager_cores + assigned_cores).min(tuning.total_cores)
    } else {
        tuning.total_cores
    };
    out.powered_frac = f64::from(powered_cores) / f64::from(tuning.total_cores);
    let powered_core_seconds = f64::from(powered_cores) * tuning.epoch_s;
    out.utilization = if powered_core_seconds > 0.0 {
        (busy_core_seconds / powered_core_seconds).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mean_freq = if freq_weight > 0.0 {
        freq_weighted / freq_weight
    } else {
        FREQ_MAX_GHZ
    };

    out.power_w = power.power_w(out.utilization, mean_freq, out.powered_frac);
    out.energy_j = out.power_w * tuning.epoch_s;
}

/// Convenience: the chain's CAT partition in bytes for an `llc_fraction`
/// knob, excluding the DDIO share.
pub fn llc_partition_bytes(llc_fraction: f64) -> f64 {
    llc_fraction.clamp(0.0, 1.0) * 0.9 * LLC_BYTES as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainSpec, ServiceChain};
    use crate::cpu::ChainId;

    fn canonical_cost() -> ChainCost {
        ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost()
    }

    fn load(pps: f64, size: f64) -> ChainLoad {
        ChainLoad {
            arrival_pps: pps,
            mean_packet_size: size,
            burstiness: 1.2,
        }
    }

    fn good_knobs() -> KnobSettings {
        KnobSettings {
            cpu: CpuAllocation {
                cores: 4,
                share: 1.0,
            },
            freq_ghz: 1.7,
            llc_fraction: 0.9,
            dma: DmaBuffer::from_mb(8.0),
            batch: 160,
        }
    }

    #[test]
    fn knob_validation() {
        assert!(KnobSettings::baseline().validate().is_ok());
        assert!(KnobSettings::default_tuned().validate().is_ok());
        let mut k = KnobSettings::baseline();
        k.freq_ghz = 3.0;
        assert!(k.validate().is_err());
        k = KnobSettings::baseline();
        k.batch = 0;
        assert!(k.validate().is_err());
        k = KnobSettings::baseline();
        k.llc_fraction = 1.5;
        assert!(k.validate().is_err());
    }

    #[test]
    fn tuned_knobs_beat_baseline_throughput() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let l = load(3.55e6, 395.0);
        let base = evaluate_chain(
            &KnobSettings::baseline(),
            &cost,
            &l,
            llc_partition_bytes(0.25),
            &t,
        );
        let good = evaluate_chain(&good_knobs(), &cost, &l, llc_partition_bytes(0.9), &t);
        assert!(
            good.throughput_gbps > 3.0 * base.throughput_gbps,
            "good {} vs base {}",
            good.throughput_gbps,
            base.throughput_gbps
        );
        assert!(base.throughput_gbps > 0.5, "baseline not degenerate");
    }

    #[test]
    fn throughput_monotone_in_frequency_at_saturation() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let l = load(FREQ_MAX_GHZ * 1e7, 1518.0); // heavy offered load
        let mut last = 0.0;
        for f in [1.2, 1.5, 1.8, 2.1] {
            let mut k = good_knobs();
            // One core keeps the chain CPU-bound across the whole ladder
            // (more cores would hit the 10 GbE line rate and flatten).
            k.cpu = CpuAllocation {
                cores: 1,
                share: 1.0,
            };
            k.freq_ghz = f;
            let r = evaluate_chain(&k, &cost, &l, llc_partition_bytes(0.9), &t);
            assert!(r.throughput_gbps > last, "f={f}");
            last = r.throughput_gbps;
        }
    }

    #[test]
    fn batch_sweep_has_interior_throughput_peak() {
        // Fig 3a: throughput rises with batch then falls as the LLC overflows.
        let cost = canonical_cost();
        let mut t = SimTuning::default();
        // Small partition accentuates the capacity penalty at large batches.
        t.miss_model.capacity_scale = 1.0;
        let l = load(6e6, 800.0);
        let llc = llc_partition_bytes(0.12);
        let sweep: Vec<f64> = [1u32, 8, 32, 64, 128, 200, 320]
            .iter()
            .map(|&b| {
                let mut k = good_knobs();
                // One core keeps the sweep CPU-bound (below NIC line rate) so
                // the batch trade-off is visible in delivered throughput.
                k.cpu = CpuAllocation {
                    cores: 1,
                    share: 1.0,
                };
                k.batch = b;
                evaluate_chain(&k, &cost, &l, llc, &t).throughput_gbps
            })
            .collect();
        let peak_idx = sweep
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak_idx > 0, "peak not at batch=1: {sweep:?}");
        assert!(
            peak_idx < sweep.len() - 1,
            "peak not at max batch: {sweep:?}"
        );
    }

    #[test]
    fn miss_rate_u_shape_in_batch() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let l = load(6e6, 800.0);
        let llc = llc_partition_bytes(0.12);
        let miss = |b: u32| {
            let mut k = good_knobs();
            k.batch = b;
            evaluate_chain(&k, &cost, &l, llc, &t).miss_rate
        };
        assert!(miss(1) > miss(64), "small batches lose locality");
        assert!(miss(320) > miss(64), "huge batches overflow the partition");
    }

    #[test]
    fn more_llc_means_fewer_misses_and_more_throughput() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let l = load(6e6, 500.0);
        let small = evaluate_chain(&good_knobs(), &cost, &l, llc_partition_bytes(0.1), &t);
        let big = evaluate_chain(&good_knobs(), &cost, &l, llc_partition_bytes(0.9), &t);
        assert!(big.miss_rate < small.miss_rate);
        assert!(big.throughput_gbps >= small.throughput_gbps);
    }

    #[test]
    fn dma_sweep_rises_then_energy_tail_grows() {
        // Fig 4: throughput rises with DMA size and plateaus; past the DDIO
        // share, misses (and so energy/packet) creep back up.
        let cost = canonical_cost();
        let t = SimTuning::default();
        let l = ChainLoad {
            arrival_pps: 3.2e6,
            mean_packet_size: 395.0,
            burstiness: 2.5,
        };
        let llc = llc_partition_bytes(0.8);
        let eval = |mb: f64| {
            let mut k = good_knobs();
            k.cpu = CpuAllocation {
                cores: 2,
                share: 0.9,
            };
            k.dma = DmaBuffer::from_mb(mb);
            evaluate_chain(&k, &cost, &l, llc, &t)
        };
        let tiny = eval(0.5);
        let mid = eval(8.0);
        let huge = eval(40.0);
        assert!(
            mid.throughput_gbps > tiny.throughput_gbps,
            "buffer absorbs bursts"
        );
        assert!(huge.miss_rate > mid.miss_rate, "DDIO spill at huge buffers");
    }

    #[test]
    fn node_power_within_model_bounds() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let pm = PowerModel::default();
        let cfg = vec![(
            good_knobs(),
            cost,
            load(3.55e6, 395.0),
            llc_partition_bytes(0.9),
        )];
        let r = evaluate_node(&cfg, &PlatformPolicy::greennfv(), &pm, &t);
        assert!(r.power_w >= pm.pidle_w);
        assert!(r.power_w <= pm.pmax_w);
        assert!((r.energy_j - r.power_w * t.epoch_s).abs() < 1e-9);
        assert!(r.total_throughput_gbps() > 0.0);
        assert!(r.energy_efficiency() > 0.0);
    }

    #[test]
    fn greennfv_platform_saves_energy_vs_baseline_platform() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let pm = PowerModel::default();
        let l = load(1.0e6, 395.0); // light load: poll burn dominates
        let cfg = vec![(
            KnobSettings::default_tuned(),
            cost,
            l,
            llc_partition_bytes(0.5),
        )];
        let base = evaluate_node(&cfg, &PlatformPolicy::baseline(), &pm, &t);
        let green = evaluate_node(&cfg, &PlatformPolicy::greennfv(), &pm, &t);
        assert!(
            green.energy_j < base.energy_j,
            "green {} >= base {}",
            green.energy_j,
            base.energy_j
        );
        // Same knobs → same throughput; only the platform power differs.
        assert!((green.total_throughput_gbps() - base.total_throughput_gbps()).abs() < 1e-9);
    }

    #[test]
    fn energy_per_mpkt_decreases_with_throughput() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let pm = PowerModel::default();
        let slow = evaluate_node(
            &[(
                KnobSettings::baseline(),
                cost,
                load(3.55e6, 395.0),
                llc_partition_bytes(0.25),
            )],
            &PlatformPolicy::baseline(),
            &pm,
            &t,
        );
        let fast = evaluate_node(
            &[(
                good_knobs(),
                cost,
                load(3.55e6, 395.0),
                llc_partition_bytes(0.9),
            )],
            &PlatformPolicy::greennfv(),
            &pm,
            &t,
        );
        assert!(fast.energy_per_mpkt() < slow.energy_per_mpkt());
    }

    #[test]
    fn zero_load_costs_only_idle_ish_power() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let pm = PowerModel::default();
        let r = evaluate_node(
            &[(
                KnobSettings::default_tuned(),
                cost,
                load(0.0, 395.0),
                llc_partition_bytes(0.5),
            )],
            &PlatformPolicy::greennfv(),
            &pm,
            &t,
        );
        assert_eq!(r.chains[0].throughput_gbps, 0.0);
        assert!(r.power_w < pm.pidle_w + 0.25 * (pm.pmax_w - pm.pidle_w));
    }

    #[test]
    fn column_aggregate_matches_struct_aggregate_bitwise() {
        let cost = canonical_cost();
        let t = SimTuning::default();
        let pm = PowerModel::default();
        let mut knob_sets = Vec::new();
        for (i, (cores, share, freq)) in [(4u32, 1.0, 1.7), (1, 0.5, 1.2), (2, 0.75, 2.1)]
            .into_iter()
            .enumerate()
        {
            let mut k = good_knobs();
            k.cpu = CpuAllocation { cores, share };
            k.freq_ghz = freq;
            k.llc_fraction = 0.3 + 0.2 * i as f64;
            knob_sets.push(k);
        }
        let loads = [load(3.55e6, 395.0), load(1.1e6, 820.0), load(6.4e6, 128.0)];
        let results: Vec<ChainEpochResult> = knob_sets
            .iter()
            .zip(&loads)
            .map(|(k, l)| evaluate_chain(k, &cost, l, llc_partition_bytes(k.llc_fraction), &t))
            .collect();
        let lanes: Vec<SimResult<ChainEpochResult>> = results.iter().map(|r| Ok(*r)).collect();
        let cores: Vec<f64> = knob_sets.iter().map(|k| f64::from(k.cpu.cores)).collect();
        let share: Vec<f64> = knob_sets.iter().map(|k| k.cpu.share).collect();
        let freq: Vec<f64> = knob_sets.iter().map(|k| k.freq_ghz).collect();
        for policy in [PlatformPolicy::baseline(), PlatformPolicy::greennfv()] {
            let reference = aggregate_node(&results, &knob_sets, &policy, &pm, &t);
            let mut out = NodeEpochResult::default();
            // Pre-dirty `out` so the test also covers reuse of a stale buffer.
            out.chains.push(results[0]);
            out.power_w = -1.0;
            aggregate_node_columns_into(
                &lanes,
                KnobColumns {
                    cores: &cores,
                    share: &share,
                    freq_ghz: &freq,
                },
                &policy,
                &pm,
                &t,
                &mut out,
            );
            assert_eq!(reference, out, "poll_mode {:?}", policy.poll_mode);
            assert_eq!(reference.power_w.to_bits(), out.power_w.to_bits());
            assert_eq!(reference.energy_j.to_bits(), out.energy_j.to_bits());
            assert_eq!(reference.utilization.to_bits(), out.utilization.to_bits());
        }
    }
}
