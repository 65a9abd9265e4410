//! Seeded-random equivalence suite for the incremental refinement engine:
//! after every split, [`IncrementalDegrees`] must agree with a from-scratch
//! [`DegreeMatrices::compute`], and the engine-driven Rothko must produce
//! exactly the partition the from-scratch reference stepper produces.

use qsc_core::partition::PartitionEvent;
use qsc_core::q_error::{
    DegreeMatrices, Direction, EngineSnapshot, IncrementalDegrees, RowsSnapshot,
};
use qsc_core::rothko::{Rothko, RothkoConfig, RothkoRun, SplitMean};
use qsc_core::storage::StorageMode;
use qsc_core::{stable_coloring, Partition};
use qsc_graph::{Graph, GraphBuilder, GraphDelta};
use rand::prelude::*;

/// Random graph with exactly representable weights (multiples of 0.5), so
/// incremental subtraction and from-scratch summation agree bit-for-bit.
fn random_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            // Weights in {0.5, 1.0, ..., 4.0}.
            let w = (rng.random_range(1u32..9) as f64) * 0.5;
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Apply a sequence of random (but valid) splits, cross-checking the engine
/// against the from-scratch matrices after every one.
fn check_random_splits(g: &Graph, seed: u64) {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let mut p = Partition::unit(n);
    let mut engine = IncrementalDegrees::new(g, &p);
    assert_eq!(engine.verify_against(g, &p), Ok(()));
    for _ in 0..n {
        // Pick a splittable color and eject a random non-trivial subset.
        let k = p.num_colors();
        let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
        let Some(&c) = candidates.as_slice().choose(&mut rng) else {
            break;
        };
        let members: Vec<u32> = p.members(c).to_vec();
        let pivot = members[rng.random_range(0..members.len())];
        let by_parity = rng.random::<bool>();
        let event = if by_parity {
            p.split_color(c, |v| v % 2 == pivot % 2 && v != members[0])
        } else {
            p.split_color(c, |v| v >= pivot && v != members[0])
        };
        let Some(event) = event else { continue };
        engine.apply_split(g, &p, &event);
        assert_eq!(
            engine.verify_against(g, &p),
            Ok(()),
            "engine diverged after splitting color {c} (seed {seed})"
        );
    }
    // Spot-check the error entries against the scratch matrices directly.
    let scratch = DegreeMatrices::compute(g, &p);
    for i in 0..p.num_colors() {
        for j in 0..p.num_colors() {
            assert_eq!(engine.out_error(i, j), scratch.out_error(i, j));
            assert_eq!(engine.in_error(i, j), scratch.in_error(i, j));
        }
    }
}

#[test]
fn engine_matches_scratch_on_random_undirected_graphs() {
    for seed in 0..8 {
        let g = random_graph(60, 240, false, seed);
        check_random_splits(&g, seed);
    }
}

#[test]
fn engine_matches_scratch_on_random_directed_graphs() {
    for seed in 0..8 {
        let g = random_graph(60, 240, true, seed * 31 + 7);
        check_random_splits(&g, seed);
    }
}

#[test]
fn engine_matches_scratch_on_sparse_and_dense_extremes() {
    // Nearly edgeless and nearly complete graphs stress the implicit-zero
    // handling and the touched-count bookkeeping respectively.
    for &(n, m) in &[(40usize, 10usize), (30, 800)] {
        for seed in 0..4 {
            let g = random_graph(n, m, seed % 2 == 0, seed + 100);
            check_random_splits(&g, seed);
        }
    }
}

/// The refactor must not change Rothko's output: the incremental run and
/// the from-scratch reference run share witness selection and split logic,
/// so for exactly representable weights the partitions are identical.
fn assert_runs_identical(g: &Graph, config: RothkoConfig, label: &str) {
    let incremental = Rothko::new(config.clone()).run(g);
    let reference = Rothko::new(config).run_reference(g);
    assert_eq!(
        incremental.partition.canonical_assignment(),
        reference.partition.canonical_assignment(),
        "incremental vs reference partitions diverged: {label}"
    );
    assert_eq!(incremental.iterations, reference.iterations, "{label}");
    assert_eq!(incremental.max_q_error, reference.max_q_error, "{label}");
}

#[test]
fn rothko_identical_before_and_after_refactor_fixed_seeds() {
    for seed in [1u64, 7, 23, 101] {
        let g = random_graph(80, 320, seed % 2 == 0, seed);
        assert_runs_identical(&g, RothkoConfig::with_max_colors(16), "max_colors=16");
        assert_runs_identical(&g, RothkoConfig::with_target_error(2.0), "target_error=2");
        assert_runs_identical(
            &g,
            RothkoConfig::with_max_colors(12).weights(1.0, 0.0),
            "alpha=1",
        );
        assert_runs_identical(
            &g,
            RothkoConfig::with_max_colors(12)
                .weights(1.0, 1.0)
                .split_mean(SplitMean::Geometric),
            "alpha=beta=1 geometric",
        );
    }
}

#[test]
fn rothko_engine_reaches_stability_like_reference() {
    let g = random_graph(50, 150, true, 999);
    let incremental = Rothko::new(RothkoConfig::with_target_error(0.0)).run(&g);
    let reference = Rothko::new(RothkoConfig::with_target_error(0.0)).run_reference(&g);
    assert_eq!(incremental.max_q_error, 0.0);
    assert_eq!(
        incremental.partition.canonical_assignment(),
        reference.partition.canonical_assignment()
    );
    // And both refine at least as far as the coarsest stable coloring.
    assert!(incremental.partition.num_colors() >= stable_coloring(&g).num_colors());
}

#[test]
fn engine_tracks_initial_partitions() {
    // Engines seeded from a non-trivial initial coloring stay consistent.
    let g = random_graph(40, 160, false, 4242);
    let init = Partition::from_assignment(&(0..40).map(|v| (v % 3) as u32).collect::<Vec<_>>());
    let config = RothkoConfig::with_max_colors(10).initial(init.clone());
    let incremental = Rothko::new(config.clone()).run(&g);
    let reference = Rothko::new(config).run_reference(&g);
    assert!(incremental.partition.is_refinement_of(&init));
    assert_eq!(
        incremental.partition.canonical_assignment(),
        reference.partition.canonical_assignment()
    );
}

// ---- Golden engine trace ------------------------------------------------
//
// `verify_against` compares with a 1e-9 tolerance and the cross-mode suites
// compare engines with each other, so neither sees a drift that moves every
// storage mode the same way. This trace pins the exact bits instead: one
// scripted maintenance session (splits, merging maintenance, an edge batch,
// node inserts and removals) per graph, batch size and engine, on
// non-dyadic weights, folded step by step into an FNV-1a hash of the full
// engine snapshot (accumulators, summaries, attainers, nonzero counts), the
// coloring, the witness sequence and the q-error bits.

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(u64::from(v));
        }
    }

    fn rows(&mut self, rows: &RowsSnapshot) {
        let offsets: Vec<u32> = rows.offsets.iter().map(|&o| o as u32).collect();
        self.u32s(&offsets);
        self.u32s(&rows.colors);
        self.f64s(&rows.weights);
        let dense: Vec<u32> = rows.dense.iter().map(|&d| u32::from(d)).collect();
        self.u32s(&dense);
    }

    fn snapshot(&mut self, s: &EngineSnapshot) {
        self.u64(s.n as u64);
        self.u64(s.k as u64);
        for flag in [s.symmetric, s.track_summaries, s.sparse_accum, s.promote] {
            self.u64(u64::from(flag));
        }
        self.u64(s.last_beta.to_bits());
        self.f64s(&s.dout);
        self.f64s(&s.din);
        self.rows(&s.rows_out);
        self.rows(&s.rows_in);
        for plane in [&s.out_min, &s.out_max, &s.in_min, &s.in_max] {
            self.f64s(plane);
        }
        for plane in [
            &s.out_min_arg,
            &s.out_max_arg,
            &s.in_min_arg,
            &s.in_max_arg,
            &s.out_nz,
            &s.in_nz,
        ] {
            self.u32s(plane);
        }
    }

    fn partition(&mut self, p: &Partition) {
        let colors: Vec<u32> = (0..p.num_nodes() as u32).map(|v| p.color_of(v)).collect();
        self.u32s(&colors);
    }

    fn event(&mut self, ev: &PartitionEvent) {
        match ev {
            PartitionEvent::Split(s) => {
                self.u32s(&[0, s.parent, s.child]);
                self.u32s(&s.moved_nodes);
            }
            PartitionEvent::Merge(m) => {
                self.u32s(&[1, m.winner, m.loser, m.relabeled.unwrap_or(u32::MAX)]);
            }
            other => panic!("unexpected maintenance event {other:?}"),
        }
    }
}

/// Random graph with non-dyadic weights (multiples of 0.1), so the f64
/// association of every incremental update is visible in the bits.
fn tenths_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            b.add_edge(u, v, f64::from(rng.random_range(1u32..20)) * 0.1);
        }
    }
    b.build()
}

/// The summary engine's run and a degrees-only engine mirroring every
/// partition event, each folded into its own hash.
struct Trace<'g> {
    run: RothkoRun<'g>,
    graph: Graph,
    degrees: IncrementalDegrees,
    run_hash: Fnv,
    degrees_hash: Fnv,
}

impl Trace<'_> {
    /// Hash the state of both engines after one script step.
    fn record(&mut self) {
        let engine = self.run.engine().expect("incremental run");
        self.run_hash.snapshot(&engine.snapshot());
        self.run_hash.partition(self.run.partition());
        for w in self.run.last_round_witnesses() {
            self.run_hash
                .u32s(&[w.split_color, w.other_color, u32::from(w.outgoing)]);
            self.run_hash.u64(w.error.to_bits());
        }
        self.run_hash.u64(self.run.current_error().to_bits());
        let report = engine.q_report();
        self.run_hash.f64s(&[report.max_q, report.mean_q]);
        if let Some((i, j, dir)) = report.worst_pair {
            self.run_hash
                .u32s(&[i, j, u32::from(dir == Direction::Out)]);
        }
        self.degrees_hash.snapshot(&self.degrees.snapshot());
        self.degrees_hash.partition(self.run.partition());
    }

    /// `maintain_with`, mirroring each split and merge into the
    /// degrees-only engine.
    fn maintain(&mut self) {
        let (graph, degrees, hash) = (&self.graph, &mut self.degrees, &mut self.run_hash);
        self.run.maintain_with(|p, ev| {
            hash.event(ev);
            match ev {
                PartitionEvent::Split(s) => degrees.apply_split(graph, p, s),
                PartitionEvent::Merge(m) => degrees.apply_merge(graph, p, m),
                other => panic!("unexpected maintenance event {other:?}"),
            }
        });
        self.record();
    }
}

/// Run the scripted session and return `(run hash, degrees-only hash)`.
fn golden_trace(g: &Graph, batch: usize, beta: f64, storage: StorageMode, seed: u64) -> (u64, u64) {
    let config = RothkoConfig {
        max_colors: g.num_nodes(),
        target_error: 1.0,
        alpha: beta / 2.0,
        beta,
        batch,
        coarsen: true,
        storage,
        ..Default::default()
    };
    let run = Rothko::new(config).start(g);
    let degrees = IncrementalDegrees::new_degrees_only(g, run.partition());
    let mut t = Trace {
        run,
        graph: g.clone(),
        degrees,
        run_hash: Fnv::new(),
        degrees_hash: Fnv::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    t.record();

    // Refine to the target, then coarsen inside the hysteresis band.
    t.maintain();

    // One edge batch: inserts, deletions and reweights on tenths.
    let mut delta = GraphDelta::new(t.graph.clone());
    let n = t.graph.num_nodes() as u32;
    for _ in 0..8 {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v && !delta.has_edge(u, v) {
            let w = f64::from(rng.random_range(1u32..40)) * 0.1;
            delta.insert_edge(u, v, w).unwrap();
        }
    }
    let arcs: Vec<(u32, u32, f64)> = t.graph.arcs().collect();
    for _ in 0..4 {
        let (u, v, _) = arcs[rng.random_range(0..arcs.len())];
        if delta.has_edge(u, v) {
            delta.delete_edge(u, v).unwrap();
        }
        let (u, v, _) = arcs[rng.random_range(0..arcs.len())];
        if delta.has_edge(u, v) {
            let w = f64::from(rng.random_range(1u32..40)) * 0.1;
            delta.reweight_edge(u, v, w).unwrap();
        }
    }
    let events = delta.drain_events();
    let compacted = delta.compact();
    t.degrees.apply_edge_batch(t.run.partition(), &events);
    t.run.apply_edge_batch(compacted.clone(), &events);
    t.graph = compacted;
    t.record();
    t.maintain();

    // Node churn: wired inserts and removals, mirrored step by step.
    let mut delta = GraphDelta::new(t.graph.clone());
    let (churn, compacted) =
        qsc_bench::random_node_churn(&mut delta, t.run.partition(), &mut rng, 3, 3, 3, |rng| {
            f64::from(rng.random_range(1u32..40)) * 0.1
        });
    let mut p = t.run.partition().clone();
    let first = p.num_nodes() as u32;
    for &c in &churn.inserted_colors {
        p.insert_node(c);
    }
    t.degrees
        .apply_node_inserts(&p, first, &churn.inserted_colors);
    t.degrees.apply_edge_batch(&p, &churn.edge_events);
    let removed_colors: Vec<u32> = churn.removed.iter().map(|&v| p.color_of(v)).collect();
    p.apply_node_remap(&churn.remap);
    t.degrees
        .apply_node_removals(&p, &churn.remap, &removed_colors);
    t.run.apply_node_batch(compacted.clone(), &churn);
    assert_eq!(
        p.assignment(),
        t.run.partition().assignment(),
        "mirrored node churn diverged"
    );
    t.graph = compacted;
    t.record();
    t.maintain();

    assert!(t.run.iterations() > 0, "the script must split");
    assert!(t.run.merges() > 0, "the script must merge");
    assert_eq!(
        t.degrees.verify_against(&t.graph, t.run.partition()),
        Ok(())
    );
    (t.run_hash.0, t.degrees_hash.0)
}

#[test]
fn golden_engine_trace_is_bit_stable() {
    // (label, run hash, degrees-only hash). A mismatch means the engine's
    // arithmetic, member order or tie-breaks changed; the failure prints
    // the actual hashes.
    let expected: [(&str, u64, u64); 8] = [
        (
            "undirected/batch1/dense",
            0x43af0b3143fbc327,
            0xfdb87115507dc9fb,
        ),
        (
            "undirected/batch1/sparse",
            0xac6d52e68acdb374,
            0xfdb87115507dc9fb,
        ),
        (
            "undirected/batch4/dense",
            0x467938ca5944da74,
            0x81d1d3d24451b6d4,
        ),
        (
            "undirected/batch4/sparse",
            0x86f2c28d7614495c,
            0x81d1d3d24451b6d4,
        ),
        (
            "directed/batch1/dense",
            0x6f95467cb0ba7d1f,
            0x2a36777b00883656,
        ),
        (
            "directed/batch1/sparse",
            0x1b9eeb22110a6ddb,
            0x2a36777b00883656,
        ),
        (
            "directed/batch4/dense",
            0x1fcc778c6efe7ea7,
            0x6c32e314567498a1,
        ),
        (
            "directed/batch4/sparse",
            0x881512d5fc6d5af5,
            0x6c32e314567498a1,
        ),
    ];
    let mut actual = Vec::new();
    for directed in [false, true] {
        let g = tenths_graph(90, 150, directed, 16 + u64::from(directed));
        for (batch, beta) in [(1usize, 0.0), (4, 1.0)] {
            for storage in [StorageMode::Dense, StorageMode::Sparse] {
                let label = format!(
                    "{}/batch{batch}/{}",
                    if directed { "directed" } else { "undirected" },
                    if storage == StorageMode::Dense {
                        "dense"
                    } else {
                        "sparse"
                    }
                );
                let (run, degrees) = golden_trace(&g, batch, beta, storage, 0x7ace);
                actual.push((label, run, degrees));
            }
        }
    }
    let mut mismatches = Vec::new();
    for ((label, run, degrees), (want_label, want_run, want_degrees)) in
        actual.iter().zip(expected.iter())
    {
        assert_eq!(label, want_label);
        if (*run, *degrees) != (*want_run, *want_degrees) {
            mismatches.push(format!("(\"{label}\", {run:#018x}, {degrees:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine trace drifted; actual hashes:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn node_removal_with_rounding_residue_keeps_summaries_exact() {
    // Node 0's weight into its own color is (0.1 + 0.2) + 0.3; the split
    // moves 0.1 of it to the child, and removing node 0 subtracts the rest
    // as 0.2 + 0.3 — which leaves a 1e-16 residue in a row the removal
    // assumes to be zero. The nonzero counts and extrema must still match
    // a recount over the survivors.
    let mut b = GraphBuilder::new_directed(6);
    for (u, v, w) in [
        (0, 1, 0.1),
        (0, 2, 0.2),
        (0, 3, 0.3),
        (4, 5, 1.0),
        (5, 4, 0.5),
    ] {
        b.add_edge(u, v, w);
    }
    let g = b.build();
    for mode in ["dense", "sparse", "degrees-only"] {
        let mut p = Partition::unit(6);
        let mut engine = match mode {
            "dense" => IncrementalDegrees::new_with_storage(&g, &p, StorageMode::Dense, 4),
            "sparse" => IncrementalDegrees::new_with_storage(&g, &p, StorageMode::Sparse, 4),
            _ => IncrementalDegrees::new_degrees_only(&g, &p),
        };
        let ev = p.split_color(0, |v| v == 1).unwrap();
        engine.apply_split(&g, &p, &ev);
        let mut delta = GraphDelta::new(g.clone());
        delta.remove_node(0).unwrap();
        let events = delta.drain_events();
        engine.apply_edge_batch(&p, &events);
        let removed_colors = [p.color_of(0)];
        let (compacted, remap) = delta.compact_renumber();
        p.apply_node_remap(&remap);
        engine.apply_node_removals(&p, &remap, &removed_colors);
        assert_eq!(engine.verify_against(&compacted, &p), Ok(()), "{mode}");
    }
}
