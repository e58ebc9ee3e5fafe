//! Differential harness for the columnar epoch substrate (PR 10).
//!
//! The substrate replaced a tuple-staging generate path (per-node config
//! vectors copied into the batch by a fill pass) with `LaneWriter` staging
//! straight into persistent `ChainBatch` columns, and the struct-based
//! aggregate fold with `aggregate_node_columns_into` over the batch's knob
//! columns. These tests pin the whole staged pipeline — generate → stage →
//! sweep → aggregate — bit-equal to the scalar per-node reference
//! (`Node::run_epoch`), across random cluster shapes, eval modes, and
//! kernel thread counts.

use nfv_sim::prelude::*;
use proptest::prelude::*;

/// One raw chain draw: (chain-spec selector, flow-mix selector, rate, size).
type ChainRaw = (u32, u32, f64, f64);

/// Builds a random-but-valid cluster from primitive draws: up to three
/// nodes with preset profiles, each hosting 1–2 chains with varied specs,
/// flows (CBR / Poisson / Markov on-off mixes), knobs, and seeds.
fn cluster_from_raw(nodes: &[(u32, Vec<ChainRaw>)], seed: u64) -> Cluster {
    let mut cluster = Cluster::new();
    for (ni, (profile_sel, chains)) in nodes.iter().enumerate() {
        let profile = match profile_sel % 3 {
            0 => NodeProfile::paper_default(),
            1 => NodeProfile::edge_low_power(),
            _ => NodeProfile::high_perf(),
        };
        let mut node = Node::with_profile(
            ni as u32,
            SimTuning::default(),
            PlatformPolicy::greennfv(),
            profile,
        )
        .expect("preset profiles validate");
        for (ci, &(chain_sel, flow_sel, rate, size)) in chains.iter().enumerate() {
            let spec = match chain_sel % 3 {
                0 => ChainSpec::canonical_three(ChainId(ci as u32)),
                1 => ChainSpec::lightweight(ChainId(ci as u32)),
                _ => ChainSpec::heavyweight(ChainId(ci as u32)),
            };
            let pkt = (size as u32).clamp(64, 1518);
            let on_off = FlowSpec {
                pattern: ArrivalPattern::MarkovOnOff {
                    peak_factor: 3.0,
                    on_fraction: 0.4,
                },
                ..FlowSpec::cbr(1, rate, pkt)
            };
            let flows = match flow_sel % 3 {
                0 => FlowSet::new(vec![FlowSpec::cbr(0, rate, pkt)]),
                1 => FlowSet::new(vec![FlowSpec::poisson(0, rate, pkt)]),
                _ => FlowSet::new(vec![FlowSpec::cbr(0, rate * 0.5, pkt), on_off]),
            }
            .expect("generated flows are valid");
            let mut knobs = KnobSettings::default_tuned();
            knobs.freq_ghz = 1.6; // inside every preset profile range
            knobs.llc_fraction = 0.25;
            knobs.batch = 16 + (chain_sel % 3) * 48;
            node.add_chain(spec, flows, knobs, seed.wrapping_add((ni * 7 + ci) as u64))
                .expect("generated knobs fit a fresh node");
        }
        cluster.add_node(node).expect("one shared tuning");
    }
    cluster
}

proptest! {
    /// The staged columnar epoch loop equals the scalar per-node path under
    /// both eval modes, epoch by epoch, node by node, bit for bit, through
    /// the borrowed-view observer.
    #[test]
    fn staged_epochs_equal_serial_node_epochs(
        nodes in proptest::collection::vec(
            (
                0u32..3,
                proptest::collection::vec(
                    (0u32..3, 0u32..3, 1e4f64..8e6, 64.0f64..1518.0),
                    1..3,
                ),
            ),
            1..4,
        ),
        seed in 0u64..1_000_000,
        epochs in 1usize..5,
    ) {
        // Reference: each node's scalar epoch, serially, in node order.
        let mut reference = cluster_from_raw(&nodes, seed);
        let expect: Vec<Vec<NodeEpochReport>> = (0..epochs)
            .map(|_| {
                (0..reference.len())
                    .map(|i| reference.node_mut(i).unwrap().run_epoch())
                    .collect()
            })
            .collect();

        for eval in [EvalMode::Full, EvalMode::Incremental] {
            let mut staged = cluster_from_raw(&nodes, seed);
            let mut seen: Vec<(usize, Vec<NodeEpochReport>)> = Vec::new();
            staged.observe_epochs(epochs, PipelineMode::Auto, eval, |k, report| {
                seen.push((k, report.nodes.clone()));
            });
            prop_assert_eq!(seen.len(), epochs, "{:?}", eval);
            for (k, nodes) in &seen {
                prop_assert_eq!(
                    nodes, &expect[*k],
                    "epoch {} under {:?}", k, eval
                );
            }
        }
    }

    /// `LaneWriter` staging into a *reused* batch — including restaging with
    /// `reuse_clean_loads` over stale lanes and truncation from a larger
    /// previous epoch — yields a batch whose evaluation is bit-equal to a
    /// freshly pushed batch, at every thread count, through both the
    /// allocating and the buffer-reusing kernel entry points.
    #[test]
    fn lane_writer_staging_is_thread_invariant(
        lanes in proptest::collection::vec(
            (
                (0u32..6, 0.0f64..1.1, 1.0f64..2.3, -0.2f64..1.2, 0.1f64..48.0),
                (0u32..400, 1e3f64..2e7, 64.0f64..1518.0, 1.0f64..4.0),
            ),
            1..96,
        ),
        llc_frac in 0.0f64..1.0,
        extra in 0usize..8,
    ) {
        let costs = [
            ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost(),
            ServiceChain::build(ChainSpec::lightweight(ChainId(1))).cost(),
            ServiceChain::build(ChainSpec::heavyweight(ChainId(2))).cost(),
        ];
        let tuning = SimTuning::default();
        let llc_bytes = llc_partition_bytes(llc_frac);
        let lane_inputs: Vec<(KnobSettings, ChainCost, ChainLoad)> = lanes
            .iter()
            .enumerate()
            .map(|(i, ((cores, share, freq, llc, dma_mb), (b, pps, size, burst)))| {
                (
                    KnobSettings {
                        cpu: CpuAllocation { cores: *cores, share: *share },
                        freq_ghz: *freq,
                        llc_fraction: *llc,
                        dma: DmaBuffer::from_mb(*dma_mb),
                        batch: *b,
                    },
                    costs[i % costs.len()],
                    ChainLoad {
                        arrival_pps: *pps,
                        mean_packet_size: *size,
                        burstiness: *burst,
                    },
                )
            })
            .collect();

        // Reference: a freshly pushed batch, allocating evaluation.
        let mut pushed = ChainBatch::with_capacity(lane_inputs.len());
        for (knobs, cost, load) in &lane_inputs {
            pushed.push(knobs, cost, load, llc_bytes);
        }
        let reference = evaluate_chain_batch(&pushed, &tuning);

        // Staged: a batch that previously held `len + extra` junk lanes, so
        // the writer overwrites in place and truncates the tail.
        let mut staged = ChainBatch::new();
        let junk = KnobSettings::baseline();
        let junk_load = ChainLoad {
            arrival_pps: 1.0,
            mean_packet_size: 64.0,
            burstiness: 1.0,
        };
        for _ in 0..lane_inputs.len() + extra {
            staged.push(&junk, &costs[0], &junk_load, 0.0);
        }
        for reuse in [false, true] {
            let mut writer = staged.lane_writer(reuse);
            for (knobs, cost, load) in &lane_inputs {
                // `load_changed = true` forces the write even under reuse —
                // the staged lanes hold junk, not the previous window.
                writer.write(knobs, cost, load, true, llc_bytes);
            }
            writer.finish();
            prop_assert_eq!(staged.len(), pushed.len());
            let mut out = Vec::new();
            for threads in [1usize, 2, 8] {
                evaluate_chain_batch_threads_into(&staged, &tuning, threads, &mut out);
                prop_assert_eq!(&out, &reference, "threads = {}, reuse = {}", threads, reuse);
            }
        }
    }
}
