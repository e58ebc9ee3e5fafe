//! # nfv-sim — NFV platform substrate for the GreenNFV reproduction
//!
//! A from-scratch simulator of the OpenNetVM/DPDK environment the GreenNFV
//! paper (SC 2023) evaluates on: packets and mbuf pools, lock-free SPSC rings,
//! six concrete VNFs composed into service chains, a MoonGen-style traffic
//! generator, an Intel-CAT-partitioned LLC with DDIO, a DVFS ladder with
//! Linux-governor semantics, an M/M/1/K DMA/RX-buffer loss model, and the
//! nonlinear server power model of Fan et al. (the paper's Eq. 4) with a
//! simulated power meter and calibration.
//!
//! The [`engine`] module converts knob settings + offered load into the
//! throughput/energy/miss-rate surfaces the paper measures in §3; [`node`]
//! and [`cluster`] wrap it into the testbed the controllers in the
//! `greennfv` crate drive. Hot sweeps go through [`batch`]: a
//! structure-of-arrays lane container evaluated by a wide-lane column-pass
//! kernel ([`simd`]), auto-chunked across threads by [`par`] — bit-identical
//! to the scalar engine, lane by lane, for any thread count.
//!
//! ```
//! use nfv_sim::prelude::*;
//!
//! let mut node = Node::default_greennfv(0);
//! node.add_chain(
//!     ChainSpec::canonical_three(ChainId(0)),
//!     FlowSet::evaluation_five_flows(),
//!     KnobSettings::default_tuned(),
//!     42,
//! ).unwrap();
//! let report = node.run_epoch();
//! assert!(report.node.total_throughput_gbps() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod chain;
pub mod chainvec;
pub mod cluster;
pub mod cpu;
pub mod dma;
pub mod dvfs;
pub mod engine;
pub mod error;
pub mod flow;
pub mod llc;
pub mod mbuf;
pub mod nf;
pub mod node;
pub mod packet;
pub mod par;
pub mod pipeline;
pub mod power;
pub mod ring;
pub mod runtime;
pub mod shard;
pub mod simd;
pub mod stats;
pub mod traffic;

/// Common imports for simulator users.
pub mod prelude {
    pub use crate::batch::{
        evaluate_chain_batch, evaluate_chain_batch_cached, evaluate_chain_batch_cached_threads,
        evaluate_chain_batch_incremental, evaluate_chain_batch_incremental_threads,
        evaluate_chain_batch_into, evaluate_chain_batch_threads, evaluate_chain_batch_threads_into,
        sweep_chain_batch_incremental, sweep_chain_batch_incremental_threads, BatchOutputs,
        ChainBatch, LaneWriter, LANE_COLS,
    };
    pub use crate::cache::{
        CacheStats, CanonicalKey, EvalCache, LaneKey, MemoStore, ScenarioKey, TuningKey,
        DEFAULT_CACHE_BUDGET,
    };
    pub use crate::chain::{ChainCost, ChainSpec, ServiceChain};
    pub use crate::chainvec::{ChainVec, CHAIN_INLINE};
    pub use crate::cluster::{Cluster, ClusterEpochReport};
    pub use crate::cpu::{ChainId, CoreAllocator, CpuAllocation};
    pub use crate::dma::{DmaBuffer, DMA_MAX_BYTES, DMA_MIN_BYTES};
    pub use crate::dvfs::{FreqScaler, Governor, FREQ_MAX_GHZ, FREQ_MIN_GHZ, FREQ_STEP_GHZ};
    pub use crate::engine::{
        aggregate_node, aggregate_node_columns_into, aggregate_node_into, evaluate_chain,
        evaluate_node, kernel_lanes_swept, llc_partition_bytes, ChainEpochResult, ChainLoad,
        KnobColumns, KnobSettings, NodeEpochResult, PlatformPolicy, PollMode, SimTuning, BATCH_MAX,
        BATCH_MIN,
    };
    pub use crate::error::{SimError, SimResult};
    pub use crate::flow::{ArrivalPattern, FlowSet, FlowSpec};
    pub use crate::llc::{CatLlc, ClosId, MissModel, DDIO_FRACTION, LLC_BYTES, LLC_WAYS};
    pub use crate::nf::{NetworkFunction, NfCost, NfKind};
    pub use crate::node::{Node, NodeCursor, NodeEpochReport, NodeProfile};
    pub use crate::packet::{FiveTuple, Packet, PacketBatch, Protocol};
    pub use crate::pipeline::{EvalMode, PipelineMode};
    pub use crate::power::{calibrate_h, PowerMeter, PowerModel};
    pub use crate::runtime::{run_functional, FunctionalStats, RuntimeConfig};
    pub use crate::shard::{
        shard_ranges, worker_main, ChainBlueprint, ClusterBlueprint, NodeBlueprint, ShardedCluster,
        TrafficBlueprint, WorkerCommand, WorkerFault, SUPPORTED_SHARD_COUNTS,
    };
    pub use crate::simd::{F64x8, WideLane, WIDTH};
    pub use crate::stats::{ChainTelemetry, EpochHistory, Ewma, Summary};
    pub use crate::traffic::{
        standard_normal, LoadDelta, Trace, TracePoint, TraceSource, TrafficCursor, TrafficGen,
        TrafficSource, WindowArrivals,
    };
}
