//! Property-based tests over core data structures and model invariants.

use greennfv::prelude::*;
use greennfv_rl::prelude::*;
use nfv_sim::mbuf::MbufPool;
use nfv_sim::prelude::*;
use proptest::prelude::*;

/// Raw per-tenant draw for the scenario strategies: (chain selector, SLA
/// selector, rate pps, packet size, traffic kind 0=flows / 1=trace).
type TenantRaw = (u32, u32, f64, f64, u32);

/// Builds an arbitrary-but-valid [`Scenario`] from primitive draws: up to
/// three nodes with random profiles, each hosting 1–2 tenants with random
/// chains, SLAs, and synthetic-or-replay traffic. Knobs are chosen to fit
/// every profile (frequency inside all preset ranges, modest way shares),
/// so construction never trips capacity checks and the properties exercise
/// the *evaluation* paths.
fn scenario_from_raw(nodes: &[(u32, Vec<TenantRaw>)], seed: u64, epochs: u32) -> Scenario {
    let node_specs = nodes
        .iter()
        .map(|(profile_sel, tenants)| NodeSpec {
            profile: match profile_sel % 3 {
                0 => NodeProfile::paper_default(),
                1 => NodeProfile::edge_low_power(),
                _ => NodeProfile::high_perf(),
            },
            tenants: tenants
                .iter()
                .enumerate()
                .map(|(ti, &(chain_sel, sla_sel, rate, size, kind))| {
                    let nfs = match chain_sel % 3 {
                        0 => ChainSpec::canonical_three(ChainId(0)).nfs,
                        1 => ChainSpec::lightweight(ChainId(0)).nfs,
                        _ => ChainSpec::heavyweight(ChainId(0)).nfs,
                    };
                    let sla = match sla_sel % 3 {
                        0 => TenantSla::new(Sla::EnergyEfficiency),
                        1 => TenantSla::new(Sla::paper_max_throughput()),
                        _ => TenantSla::new(Sla::MinEnergy {
                            throughput_floor_gbps: 0.5,
                        }),
                    };
                    let sla = if sla_sel % 2 == 0 {
                        sla.with_loss_cap(0.1)
                    } else {
                        sla
                    };
                    let pkt = (size as u32).clamp(64, 1518);
                    let traffic = if kind % 2 == 0 {
                        TrafficSpec::Flows(
                            FlowSet::new(vec![FlowSpec::poisson(0, rate, pkt)]).expect("valid"),
                        )
                    } else {
                        TrafficSpec::Replay {
                            trace: Trace::new(
                                "prop",
                                vec![
                                    TracePoint {
                                        duration_s: 60.0,
                                        rate_pps: rate,
                                        packet_size: pkt,
                                        burstiness: 1.3,
                                    },
                                    TracePoint {
                                        duration_s: 60.0,
                                        rate_pps: rate * 0.25,
                                        packet_size: pkt,
                                        burstiness: 1.1,
                                    },
                                ],
                            )
                            .expect("valid trace"),
                            jitter_frac: 0.05,
                        }
                    };
                    let mut knobs = KnobSettings::default_tuned();
                    knobs.freq_ghz = 1.6; // inside every preset profile range
                    knobs.llc_fraction = 0.3;
                    knobs.batch = 16 + (chain_sel % 3) * 48;
                    TenantSpec {
                        name: format!("t{ti}"),
                        nfs,
                        sla,
                        knobs,
                        traffic,
                    }
                })
                .collect(),
        })
        .collect();
    Scenario {
        name: "prop-scenario".into(),
        epochs,
        seed,
        tuning: SimTuning::default(),
        policy: PlatformPolicy::greennfv(),
        evaluation: EvalMode::Full,
        shards: 0,
        nodes: node_specs,
    }
}

proptest! {
    /// SPSC ring: any interleaving of pushes and pops preserves FIFO order
    /// and never loses or duplicates elements.
    #[test]
    fn ring_fifo_no_loss(ops in proptest::collection::vec(any::<bool>(), 1..400)) {
        let ring = nfv_sim::ring::SpscRing::with_capacity(16);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for is_push in ops {
            if is_push {
                if ring.push(next_push).is_ok() {
                    next_push += 1;
                }
            } else if let Some(v) = ring.pop() {
                prop_assert_eq!(v, next_pop, "FIFO order");
                next_pop += 1;
            }
        }
        // Drain and verify the tail.
        while let Some(v) = ring.pop() {
            prop_assert_eq!(v, next_pop);
            next_pop += 1;
        }
        prop_assert_eq!(next_pop, next_push, "no loss, no duplication");
    }

    /// Mbuf pool: interleaved alloc/free conserves capacity and never
    /// double-allocates a buffer.
    #[test]
    fn mbuf_pool_conservation(ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut pool = MbufPool::new(32, 2048);
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Ok(h) = pool.alloc() {
                    prop_assert!(!held.contains(&h), "double allocation");
                    held.push(h);
                }
            } else if let Some(h) = held.pop() {
                prop_assert!(pool.free(h).is_ok());
            }
        }
        prop_assert_eq!(pool.in_use(), held.len());
        prop_assert_eq!(pool.available() + held.len(), 32);
    }

    /// Sum tree: total always equals the sum of leaf priorities, and prefix
    /// lookup always lands on a leaf with nonzero priority (when any exists).
    #[test]
    fn sum_tree_invariants(
        updates in proptest::collection::vec((0usize..32, 0.0f64..100.0), 1..100),
        probe in 0.0f64..1.0,
    ) {
        let mut tree = SumTree::new(32);
        let mut leaves = vec![0.0f64; 32];
        for (i, p) in updates {
            tree.set(i, p);
            leaves[i] = p;
        }
        let expect: f64 = leaves.iter().sum();
        prop_assert!((tree.total() - expect).abs() < 1e-6 * expect.max(1.0));
        if expect > 0.0 {
            let idx = tree.find_prefix(probe * expect * 0.999_999);
            prop_assert!(leaves[idx] > 0.0, "prefix must land on a populated leaf");
        }
    }

    /// Action codec: any normalized action decodes to valid knobs, and
    /// encode∘decode is idempotent on the decoded point.
    #[test]
    fn action_codec_total_and_idempotent(a in proptest::collection::vec(-1.5f64..1.5, 5)) {
        let space = ActionSpace::default();
        let knobs = space.decode(&a);
        prop_assert!(knobs.validate().is_ok());
        let re = space.decode(&space.encode(&knobs));
        prop_assert!((knobs.freq_ghz - re.freq_ghz).abs() < 1e-6);
        prop_assert!((knobs.llc_fraction - re.llc_fraction).abs() < 1e-6);
        prop_assert!((knobs.cpu.effective_cores() - re.cpu.effective_cores()).abs() < 0.05);
        prop_assert_eq!(knobs.batch, re.batch);
    }

    /// Power model: bounded by [Pidle, Pmax] for all inputs; monotone in
    /// utilization.
    #[test]
    fn power_model_bounds(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0,
                          f in 1.2f64..2.1, frac in 0.0f64..1.0) {
        let m = PowerModel::default();
        let p = m.power_w(u1, f, frac);
        prop_assert!(p >= m.pidle_w - 1e-9);
        prop_assert!(p <= m.pmax_w + 1e-9);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(m.power_w(lo, f, frac) <= m.power_w(hi, f, frac) + 1e-9);
    }

    /// M/M/1/K loss: always in [0,1], monotone decreasing in buffer depth.
    #[test]
    fn mm1k_properties(rho in 0.01f64..3.0, k in 1u64..1000) {
        let l = nfv_sim::dma::mm1k_loss(rho, k);
        prop_assert!((0.0..=1.0).contains(&l));
        let deeper = nfv_sim::dma::mm1k_loss(rho, k * 2);
        prop_assert!(deeper <= l + 1e-12);
    }

    /// Miss model: output in [m_min, 1]; monotone in working set; antitone in
    /// cache size.
    #[test]
    fn miss_model_properties(ws in 0.0f64..1e9, cache in 1.0f64..1e8) {
        let m = MissModel::default();
        let r = m.miss_rate(ws, cache);
        prop_assert!(r >= m.m_min - 1e-12);
        prop_assert!(r <= 1.0);
        prop_assert!(m.miss_rate(ws * 2.0, cache) >= r - 1e-12);
        prop_assert!(m.miss_rate(ws, cache * 2.0) <= r + 1e-12);
    }

    /// Engine: any valid knob setting under any sane load produces finite,
    /// non-negative outputs with loss in [0,1] and delivered ≤ offered.
    #[test]
    fn engine_outputs_are_sane(
        a in -1.0f64..1.0, b in -1.0f64..1.0, c in -1.0f64..1.0,
        d in -1.0f64..1.0, e in -1.0f64..1.0,
        pps in 1e3f64..2e7, size in 64.0f64..1518.0, burst in 1.0f64..4.0,
    ) {
        let knobs = ActionSpace::default().decode(&[a, b, c, d, e]);
        let cost = ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost();
        let load = ChainLoad {
            arrival_pps: pps,
            mean_packet_size: size,
            burstiness: burst,
        };
        let t = SimTuning::default();
        let r = evaluate_chain(&knobs, &cost, &load, llc_partition_bytes(knobs.llc_fraction), &t);
        prop_assert!(r.throughput_gbps.is_finite() && r.throughput_gbps >= 0.0);
        prop_assert!((0.0..=1.0).contains(&r.loss_frac));
        prop_assert!((0.0..=1.0).contains(&r.miss_rate));
        prop_assert!((0.0..=1.0).contains(&r.cpu_util));
        prop_assert!(r.delivered_pps <= pps + 1e-6);
        prop_assert!(r.cycles_per_packet > 0.0);
        prop_assert!(r.throughput_gbps <= t.nic_gbps + 1e-9, "NIC line-rate cap");
    }

    /// Differential harness for the batched engine: for any lane vector —
    /// valid and invalid knobs mixed, arbitrary loads and partitions —
    /// `evaluate_chain_batch` is *exactly* equal (`==`, not approx), lane by
    /// lane, to validating and running the scalar `evaluate_chain`,
    /// including which lanes err and with which error.
    #[test]
    fn batch_is_bit_equal_to_scalar_loop(
        lanes in proptest::collection::vec(
            (
                // Knob raws: ranges straddle the legal bounds so a fraction
                // of lanes draw invalid knobs and exercise the error path.
                (0u32..6, 0.0f64..1.1, 1.0f64..2.3, -0.2f64..1.2, 0.1f64..48.0),
                // batch knob raw, load, chain-spec selector, llc partition.
                (0u32..400, 1e3f64..2e7, 64.0f64..1518.0, 1.0f64..4.0),
            ),
            1..128,
        ),
        llc_frac in 0.0f64..1.0,
    ) {
        let costs = [
            ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost(),
            ServiceChain::build(ChainSpec::lightweight(ChainId(1))).cost(),
            ServiceChain::build(ChainSpec::heavyweight(ChainId(2))).cost(),
        ];
        let tuning = SimTuning::default();
        let llc_bytes = llc_partition_bytes(llc_frac);

        let mut batch = ChainBatch::with_capacity(lanes.len());
        let mut scalar = Vec::with_capacity(lanes.len());
        for (i, ((cores, share, freq, llc, dma_mb), (b, pps, size, burst))) in
            lanes.iter().enumerate()
        {
            let knobs = KnobSettings {
                cpu: CpuAllocation { cores: *cores, share: *share },
                freq_ghz: *freq,
                llc_fraction: *llc,
                dma: DmaBuffer::from_mb(*dma_mb),
                batch: *b,
            };
            let cost = costs[i % costs.len()];
            let load = ChainLoad {
                arrival_pps: *pps,
                mean_packet_size: *size,
                burstiness: *burst,
            };
            batch.push(&knobs, &cost, &load, llc_bytes);
            // The scalar reference: validate, then run the scalar kernel.
            scalar.push(
                knobs
                    .validate()
                    .map(|()| evaluate_chain(&knobs, &cost, &load, llc_bytes, &tuning)),
            );
        }

        let got = evaluate_chain_batch(&batch, &tuning);
        prop_assert_eq!(&got, &scalar);
        // Thread count must not change values or ordering either.
        for threads in [2usize, 8] {
            let threaded = evaluate_chain_batch_threads(&batch, &tuning, threads);
            prop_assert_eq!(&threaded, &scalar, "threads = {}", threads);
        }
    }

    /// Scenario-driven extension of the differential harness: for any
    /// generated scenario — heterogeneous profiles, co-resident multi-SLA
    /// tenants, synthetic and trace-driven traffic mixed — the fused cluster
    /// epoch (all chains of all nodes staged as one column-pass batch) is
    /// *exactly* equal, node by node and epoch by epoch, to running every
    /// node's epoch through the scalar per-node path.
    #[test]
    fn scenario_driven_fused_batch_equals_serial(
        nodes in proptest::collection::vec(
            (
                0u32..3,
                proptest::collection::vec(
                    (0u32..3, 0u32..3, 1e4f64..8e6, 64.0f64..1518.0, 0u32..2),
                    1..3,
                ),
            ),
            1..4,
        ),
        seed in 0u64..1_000_000,
        epochs in 1u32..4,
    ) {
        let scenario = scenario_from_raw(&nodes, seed, epochs);
        let mut fused = scenario.build_cluster().expect("generated scenarios build");
        let mut serial = scenario.build_cluster().expect("second build");
        for epoch in 0..epochs {
            let fused_report = fused.run_epoch();
            let serial_reports: Vec<NodeEpochReport> = (0..serial.len())
                .map(|i| serial.node_mut(i).unwrap().run_epoch())
                .collect();
            prop_assert_eq!(&fused_report.nodes, &serial_reports, "epoch {}", epoch);
        }
    }

    /// Differential harness for the epoch loop: for any generated
    /// scenario, a single multi-epoch `Cluster::run_epochs` call is
    /// *exactly* equal, epoch by epoch and node by node, to stepping
    /// `Cluster::run_epoch` serially and to the per-node scalar path. Every named registry scenario gets the same check in
    /// `tests/scenarios.rs`; this covers the random space between them.
    #[test]
    fn pipelined_epochs_equal_serial_fused(
        nodes in proptest::collection::vec(
            (
                0u32..3,
                proptest::collection::vec(
                    (0u32..3, 0u32..3, 1e4f64..8e6, 64.0f64..1518.0, 0u32..2),
                    1..3,
                ),
            ),
            1..4,
        ),
        seed in 0u64..1_000_000,
        epochs in 1u32..5,
    ) {
        let scenario = scenario_from_raw(&nodes, seed, epochs);
        let mut serial = scenario.build_cluster().expect("generated scenarios build");
        let mut inline_run = scenario.build_cluster().expect("second build");

        let expect: Vec<ClusterEpochReport> =
            (0..epochs).map(|_| serial.run_epoch()).collect();
        let inline_reports = inline_run.run_epochs(epochs as usize);
        prop_assert_eq!(&inline_reports, &expect, "inline pipeline diverged");
    }

    /// Differential harness for the dirty-tracked incremental sweep at the
    /// batch level: for any lane vector (valid and invalid knobs mixed) and
    /// any delta pattern — all-clean, single lane, contiguous tenant run,
    /// all-dirty — the incremental sweep over a primed cache is *exactly*
    /// equal, lane by lane, to a full sweep of the mutated batch, at every
    /// thread count. The all-clean pattern additionally pins the sweep to
    /// zero kernel invocations.
    #[test]
    fn incremental_batch_equals_full_for_any_delta_pattern(
        lanes in proptest::collection::vec(
            (
                (0u32..6, 0.0f64..1.1, 1.0f64..2.3, -0.2f64..1.2, 0.1f64..48.0),
                (0u32..400, 1e3f64..2e7, 64.0f64..1518.0, 1.0f64..4.0),
            ),
            1..96,
        ),
        llc_frac in 0.0f64..1.0,
        pattern in 0u32..4,
        pick in 0usize..1024,
        span in 1usize..16,
        scale in 0.25f64..4.0,
    ) {
        let costs = [
            ServiceChain::build(ChainSpec::canonical_three(ChainId(0))).cost(),
            ServiceChain::build(ChainSpec::lightweight(ChainId(1))).cost(),
            ServiceChain::build(ChainSpec::heavyweight(ChainId(2))).cost(),
        ];
        let tuning = SimTuning::default();
        let llc_bytes = llc_partition_bytes(llc_frac);

        let mut batch = ChainBatch::with_capacity(lanes.len());
        let mut loads = Vec::with_capacity(lanes.len());
        for (i, ((cores, share, freq, llc, dma_mb), (b, pps, size, burst))) in
            lanes.iter().enumerate()
        {
            let knobs = KnobSettings {
                cpu: CpuAllocation { cores: *cores, share: *share },
                freq_ghz: *freq,
                llc_fraction: *llc,
                dma: DmaBuffer::from_mb(*dma_mb),
                batch: *b,
            };
            let load = ChainLoad {
                arrival_pps: *pps,
                mean_packet_size: *size,
                burstiness: *burst,
            };
            batch.push(&knobs, &costs[i % costs.len()], &load, llc_bytes);
            loads.push(load);
        }

        // Prime the cache: the first incremental sweep is by contract a full
        // sweep of the freshly pushed (all-dirty) batch.
        let mut outputs = BatchOutputs::new();
        let primed = evaluate_chain_batch_incremental(&mut batch, &tuning, &mut outputs);
        prop_assert_eq!(&primed, &evaluate_chain_batch(&batch, &tuning), "priming sweep");
        prop_assert_eq!(batch.dirty_lanes(), 0, "priming clears every dirty flag");

        // Apply one delta pattern through the self-comparing setters.
        let n = batch.len();
        match pattern {
            // All-clean: rewrite every lane with its *identical* load. The
            // bitwise compare must leave every flag clear.
            0 => {
                for (i, same) in loads.iter().enumerate().take(n) {
                    batch.set_load(i, same);
                    batch.set_llc_bytes(i, llc_bytes);
                }
                prop_assert_eq!(batch.dirty_lanes(), 0, "identical writes stay clean");
            }
            // Single lane moved.
            1 => {
                let i = pick % n;
                loads[i].arrival_pps *= scale;
                batch.set_load(i, &loads[i]);
            }
            // Contiguous run of lanes (one tenant's chains) moved.
            2 => {
                let start = pick % n;
                let end = (start + span).min(n);
                for (i, load) in loads.iter_mut().enumerate().take(end).skip(start) {
                    load.arrival_pps *= scale;
                    batch.set_load(i, load);
                }
            }
            // Everything stale at once (the degenerate-to-full case).
            _ => {
                for (i, load) in loads.iter_mut().enumerate() {
                    load.burstiness = (load.burstiness * scale).clamp(1.0, 8.0);
                    batch.set_load(i, load);
                }
                batch.mark_all_dirty();
            }
        }

        // The reference: a plain full sweep of the mutated columns (the full
        // path ignores dirty flags entirely).
        let reference = evaluate_chain_batch(&batch, &tuning);
        for threads in [1usize, 2, 8] {
            let mut b = batch.clone();
            let mut o = outputs.clone();
            let before = kernel_lanes_swept();
            let got = evaluate_chain_batch_incremental_threads(&mut b, &tuning, &mut o, threads);
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
            prop_assert_eq!(b.dirty_lanes(), 0, "sweep clears flags (threads = {})", threads);
            if pattern == 0 && threads == 1 {
                // Inline all-clean sweep: the cache answers without touching
                // the kernel at all.
                prop_assert_eq!(
                    kernel_lanes_swept(), before,
                    "all-clean sweep must invoke zero kernel lanes"
                );
            }
        }
    }

    /// Differential harness for push-mode incremental epochs: for any
    /// generated scenario, `run_epochs_eval` under `EvalMode::Incremental` is
    /// *exactly* equal, epoch by epoch and node by node, to the serial
    /// `run_epoch` path and to `EvalMode::Full` — and a run killed at an
    /// arbitrary mid-horizon epoch and resumed from per-node cursors on a
    /// freshly built cluster finishes bit-equal to the uninterrupted run.
    #[test]
    fn incremental_epochs_equal_full_serial_and_survive_resume(
        nodes in proptest::collection::vec(
            (
                0u32..3,
                proptest::collection::vec(
                    (0u32..3, 0u32..3, 1e4f64..8e6, 64.0f64..1518.0, 0u32..2),
                    1..3,
                ),
            ),
            1..4,
        ),
        seed in 0u64..1_000_000,
        epochs in 2u32..5,
        kill_raw in 0u32..16,
    ) {
        let scenario = scenario_from_raw(&nodes, seed, epochs);
        let mut serial = scenario.build_cluster().expect("generated scenarios build");
        let expect: Vec<ClusterEpochReport> =
            (0..epochs).map(|_| serial.run_epoch()).collect();

        let mut full = scenario.build_cluster().expect("full build");
        let full_reports =
            full.run_epochs_eval(epochs as usize, EvalMode::Full);
        prop_assert_eq!(&full_reports, &expect, "full evaluation diverged from serial");

        let mut incremental = scenario.build_cluster().expect("incremental build");
        let inc_reports =
            incremental.run_epochs_eval(epochs as usize, EvalMode::Incremental);
        prop_assert_eq!(&inc_reports, &expect, "incremental evaluation diverged from serial");

        // Kill at an arbitrary interior epoch, serialize every node's cursor,
        // drop the cluster, rebuild from the descriptor, restore, and finish
        // the horizon incrementally.
        let kill_at = 1 + (kill_raw as usize % (epochs as usize - 1));
        let mut interrupted = scenario.build_cluster().expect("interrupted build");
        let mut resumed_reports =
            interrupted.run_epochs_eval(kill_at, EvalMode::Incremental);
        let cursors: Vec<String> = (0..interrupted.len())
            .map(|i| {
                serde_json::to_string(&interrupted.node_mut(i).unwrap().cursor())
                    .expect("cursor serializes")
            })
            .collect();
        drop(interrupted);

        let mut resumed = scenario.build_cluster().expect("resumed build");
        for (i, json) in cursors.iter().enumerate() {
            let cursor: NodeCursor = serde_json::from_str(json).expect("cursor parses");
            resumed
                .node_mut(i)
                .unwrap()
                .restore_cursor(&cursor)
                .expect("cursor restores");
        }
        resumed_reports.extend(resumed.run_epochs_eval(epochs as usize - kill_at, EvalMode::Incremental,
        ));
        prop_assert_eq!(&resumed_reports, &expect, "killed-and-resumed run diverged");
    }

    /// The trace CSV parser is total: arbitrary garbage text never panics —
    /// it parses or reports a `SimError`. Valid traces survive a
    /// `to_csv` → `from_csv` round trip exactly.
    #[test]
    fn trace_csv_parser_is_total_and_round_trips(
        garbage in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..40),
            0..12,
        ),
        points in proptest::collection::vec(
            (1e-3f64..1e5, 0.0f64..1e8, 64u32..1519, 1.0f64..8.0),
            1..6,
        ),
    ) {
        // Garbage: arbitrary bytes per line (lossily decoded), with commas
        // and digits sprinkled in so rows often look almost-parseable.
        let lines: Vec<String> = garbage
            .iter()
            .map(|bytes| {
                bytes
                    .iter()
                    .map(|&b| match b % 7 {
                        0 => ',',
                        1 => char::from(b'0' + (b % 10)),
                        2 => '.',
                        _ => char::from(b.clamp(32, 126)),
                    })
                    .collect()
            })
            .collect();
        let text = lines.join("\n");
        let _ = Trace::from_csv("garbage", &text);
        let with_header =
            format!("duration_s,rate_pps,packet_size,burstiness\n{text}");
        let _ = Trace::from_csv("garbage-with-header", &with_header);

        // Valid traces: exact round trip through the CSV renderer.
        let trace = Trace::new(
            "prop-round-trip",
            points
                .into_iter()
                .map(|(duration_s, rate_pps, packet_size, burstiness)| TracePoint {
                    duration_s,
                    rate_pps,
                    packet_size,
                    burstiness,
                })
                .collect(),
        )
        .expect("generated points are in range");
        prop_assert_eq!(
            Trace::from_csv("prop-round-trip", &trace.to_csv()).expect("round trip parses"),
            trace
        );
    }

    /// Any scenario descriptor round-trips through serde: the deserialized
    /// twin is structurally identical and reproduces the same epoch results
    /// bit-for-bit (the vendored serde_json writes exact floats).
    #[test]
    fn scenario_serde_round_trip_preserves_epoch_results(
        nodes in proptest::collection::vec(
            (
                0u32..3,
                proptest::collection::vec(
                    (0u32..3, 0u32..3, 1e4f64..8e6, 64.0f64..1518.0, 0u32..2),
                    1..3,
                ),
            ),
            1..3,
        ),
        seed in 0u64..1_000_000,
    ) {
        let scenario = scenario_from_raw(&nodes, seed, 2);
        let json = scenario.to_json();
        let back = Scenario::from_json(&json).expect("round-trip parses");
        prop_assert_eq!(&back, &scenario);
        prop_assert_eq!(back.run().expect("twin runs"), scenario.run().expect("original runs"));
    }

    /// Rewards are finite for all SLAs and all outcomes, and satisfying
    /// outcomes never score below violating ones under the same SLA.
    #[test]
    fn reward_is_finite_and_ordered(t in 0.0f64..12.0, e in 100.0f64..6000.0) {
        for sla in [
            Sla::paper_max_throughput(),
            Sla::paper_min_energy(),
            Sla::EnergyEfficiency,
        ] {
            for shaping in [RewardShaping::Strict, RewardShaping::Shaped] {
                let r = reward(sla, shaping, t, e);
                prop_assert!(r.is_finite());
                if !sla.satisfied(t, e) {
                    prop_assert!(r <= 0.0, "violations never earn positive reward");
                }
            }
        }
    }

    /// Discretizer: encode is total and decode(encode(x)) stays within the
    /// same bin (round-trips to bin centers inside bounds).
    #[test]
    fn discretizer_roundtrip(x in proptest::collection::vec(0.0f64..1.0, 3)) {
        let d = Discretizer::new(vec![0.0; 3], vec![1.0; 3], 5);
        let idx = d.encode(&x);
        prop_assert!(idx < d.cells());
        let back = d.decode(idx);
        for (orig, dec) in x.iter().zip(&back) {
            prop_assert!((orig - dec).abs() <= 0.1 + 1e-9, "within one bin width");
        }
        prop_assert_eq!(d.encode(&back), idx, "bin centers are fixed points");
    }

    /// CAT LLC: allocations never exceed total ways and released ways are
    /// reusable.
    #[test]
    fn cat_allocation_conservation(reqs in proptest::collection::vec(0u32..12, 1..8)) {
        let mut llc = CatLlc::new(20);
        let mut assigned = 0u32;
        for (i, ways) in reqs.iter().enumerate() {
            let clos = ClosId(i as u32);
            if llc.set_allocation(clos, *ways).is_ok() {
                assigned += ways;
            }
            prop_assert!(assigned <= 20);
            prop_assert_eq!(llc.free_ways(), 20 - assigned);
        }
    }
}
