//! Allocation-regression gate for the columnar epoch substrate.
//!
//! The PR-10 contract: once a run's first epoch has grown every persistent
//! buffer (batch columns, lane results, report slots, telemetry vectors),
//! steady-state epochs of the fused epoch loop perform **zero** heap
//! allocations — generation writes lanes in place through `LaneWriter`, the
//! kernel sweeps into a retained results vector, and aggregation folds the
//! batch columns into reused report storage. A counting global allocator
//! enforces this directly; any future change that reintroduces a per-epoch
//! `Vec`, `Box`, or clone on these paths fails here rather than showing up
//! as a silent bench regression.
//!
//! This file holds exactly one `#[test]`: the counter is process-global, so
//! a concurrently running second test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nfv_sim::prelude::*;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Passes through to the system allocator, counting every allocation and
/// reallocation (frees are irrelevant to the steady-state contract).
struct CountingAlloc;

// SAFETY: defers all allocation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A small cluster whose chains carry only CBR flows, so every incremental
/// epoch after the first restages identical lanes (all-clean fast path).
fn cbr_cluster(seed: u64) -> Cluster {
    let mut cluster = Cluster::new();
    for i in 0..3u32 {
        let mut node = Node::default_greennfv(i);
        for c in 0..3u32 {
            let mut knobs = KnobSettings::default_tuned();
            knobs.llc_fraction = 0.2;
            node.add_chain(
                ChainSpec::canonical_three(ChainId(c)),
                FlowSet::new(vec![FlowSpec::cbr(0, 2.0e6 + f64::from(c) * 3.5e5, 512)])
                    .expect("CBR flows validate"),
                knobs,
                seed.wrapping_add(u64::from(i * 3 + c)),
            )
            .expect("small-LLC knobs fit a fresh node");
        }
        cluster.add_node(node).expect("one shared tuning");
    }
    cluster
}

/// A full-eval cluster of 2,048 nodes × 2 chains = 4,096 lanes: the size at
/// which an earlier epoch loop spawned a kernel-sweep worker every epoch,
/// yet below `par::MIN_LANES_PER_THREAD`, so the kernel itself stays on the
/// calling thread.
fn wide_cluster(seed: u64) -> Cluster {
    let mut cluster = Cluster::homogeneous(
        2048,
        SimTuning::default(),
        PowerModel::default(),
        PlatformPolicy::greennfv(),
    );
    for i in 0..cluster.len() {
        let node = cluster.node_mut(i).expect("index in range");
        for c in 0..2u32 {
            let mut knobs = KnobSettings::default_tuned();
            knobs.llc_fraction = 0.2;
            node.add_chain(
                ChainSpec::canonical_three(ChainId(c)),
                FlowSet::evaluation_five_flows(),
                knobs,
                seed.wrapping_add(i as u64 * 2 + u64::from(c)),
            )
            .expect("small-LLC knobs fit a fresh node");
        }
    }
    cluster
}

#[test]
fn steady_state_epochs_allocate_nothing() {
    // Full fused evaluation: epoch 0 grows the batch, the lane
    // results, and the report; the counter resets inside the first observe
    // callback (after epoch 0's aggregate, before epoch 1's restage), so
    // the assertion covers staging, sweeping, and aggregating epochs 1..N.
    let mut cluster = Cluster::paper_testbed(PlatformPolicy::greennfv(), 42);
    cluster.observe_epochs(8, PipelineMode::Auto, EvalMode::Full, |k, report| {
        assert!(report.nodes.iter().all(|n| !n.node.chains.is_empty()));
        if k == 0 {
            ALLOCS.store(0, Ordering::Relaxed);
        }
    });
    let full = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        full, 0,
        "full steady-state epochs must not allocate ({full} allocations in epochs 1..8)"
    );

    // Incremental evaluation over CBR-only traffic: every post-prime epoch
    // restages bit-identical lanes, so the dirty sweep is a no-op and the
    // cached per-node reports are reused untouched. Epoch 1 is excluded
    // because it legitimately grows the pipeline's clean-node flag buffer
    // (epoch 0 takes the full-prime path that bypasses it); epochs 2..N
    // must be allocation-free.
    let mut cluster = cbr_cluster(7);
    cluster.observe_epochs(8, PipelineMode::Auto, EvalMode::Incremental, |k, report| {
        assert!(report.nodes.iter().all(|n| !n.node.chains.is_empty()));
        if k == 1 {
            ALLOCS.store(0, Ordering::Relaxed);
        }
    });
    let incremental = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        incremental, 0,
        "incremental all-clean epochs must not allocate ({incremental} allocations in epochs 2..8)"
    );

    // Full evaluation at 4,096 lanes: still one inline loop on the calling
    // thread, so epochs 1..N allocate nothing — no per-epoch worker spawn.
    let mut cluster = wide_cluster(11);
    let mut lanes = 0;
    cluster.observe_epochs(6, PipelineMode::Auto, EvalMode::Full, |k, report| {
        if k == 0 {
            lanes = report.nodes.iter().map(|n| n.telemetry.len()).sum();
            ALLOCS.store(0, Ordering::Relaxed);
        }
    });
    let wide = ALLOCS.load(Ordering::Relaxed);
    assert!(
        (4096..nfv_sim::par::MIN_LANES_PER_THREAD).contains(&lanes),
        "wide leg must stage >= 4096 lanes on a single kernel thread ({lanes} lanes)"
    );
    assert_eq!(
        wide, 0,
        "full steady-state epochs at {lanes} lanes must not allocate ({wide} allocations in epochs 1..6)"
    );
}
