//! Storage-mode equivalence suite: `Sparse == Dense == Auto`, bit for bit.
//!
//! The incremental engine's accumulator storage (`RothkoConfig::storage` /
//! `IncrementalDegrees::new_with_storage`) is a pure representation choice
//! — dense `n × k` matrices vs tiered sparse rows must never change a
//! single observable bit. This suite pins that over mixed
//! split/merge/node-churn/edge-batch traces on dense and symmetric random
//! graphs: colorings, witness sequences, q-error bits, q-reports and
//! reduced emissions all compared across every storage mode. Weights are
//! multiples of 0.5 so all sums are exact and equalities can be required
//! bit-for-bit — except in the large-split case, which runs the chunked
//! touched accumulation on non-dyadic weights, where the modes must still
//! agree bit for bit because they share one summation order.

use qsc_core::q_error::IncrementalDegrees;
use qsc_core::reduced::quotient_matrix;
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_core::{Partition, StorageMode};
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{Graph, GraphBuilder, GraphDelta};
use rand::prelude::*;

/// Random graph with exactly representable weights (multiples of 0.5).
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
            let w = (rng.random_range(1u32..9) as f64) * 0.5;
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Random edge insert/delete/reweight batch against a live `GraphDelta`.
fn churn_batch(
    delta: &mut GraphDelta,
    edges: &mut Vec<(u32, u32)>,
    rng: &mut StdRng,
    ops: usize,
) -> Vec<EdgeEvent> {
    let n = delta.num_nodes();
    for _ in 0..ops {
        match rng.random_range(0..3u32) {
            0 => {
                for _ in 0..20 {
                    let u = rng.random_range(0..n) as u32;
                    let v = rng.random_range(0..n) as u32;
                    if !delta.has_edge(u, v) {
                        let w = (rng.random_range(1u32..9) as f64) * 0.5;
                        delta.insert_edge(u, v, w).unwrap();
                        edges.push((u, v));
                        break;
                    }
                }
            }
            1 => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                delta.delete_edge(u, v).unwrap();
            }
            _ => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges[i];
                let w = (rng.random_range(1u32..9) as f64) * 0.5;
                delta.reweight_edge(u, v, w).unwrap();
            }
        }
    }
    delta.drain_events()
}

/// Split a random color of `p` (same rule as the dynamic-graph suite).
fn random_split(p: &mut Partition, rng: &mut StdRng) -> Option<qsc_core::SplitEvent> {
    let k = p.num_colors();
    let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
    let &c = candidates.as_slice().choose(rng)?;
    let members: Vec<u32> = p.members(c).to_vec();
    let pivot = members[rng.random_range(0..members.len())];
    p.split_color(c, |v| v >= pivot && v != members[0])
}

/// All three storage-mode engine variants over one graph + partition.
fn engine_variants(g: &Graph, p: &Partition) -> Vec<(String, IncrementalDegrees)> {
    [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto]
        .into_iter()
        .map(|mode| {
            let e = IncrementalDegrees::new_with_storage(g, p, mode, p.num_colors());
            (format!("{mode:?}"), e)
        })
        .collect()
}

#[test]
fn engine_storage_modes_bit_identical_under_mixed_churn() {
    for (directed, seed) in [(false, 9u64), (true, 29)] {
        let g = random_graph(60, 260, directed, seed);
        let mut p = Partition::unit(60);
        let mut engines = engine_variants(&g, &p);
        let mut delta = GraphDelta::new(g);
        let mut edges: Vec<(u32, u32)> = delta
            .base()
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51a5);
        let mut current = delta.compact();
        for round in 0..6 {
            // Two random splits...
            for _ in 0..2 {
                if let Some(ev) = random_split(&mut p, &mut rng) {
                    for (_, e) in engines.iter_mut() {
                        e.apply_split(&current, &p, &ev);
                    }
                }
            }
            // ...an occasional merge (the relabel-last path) once enough
            // colors exist...
            if p.num_colors() >= 4 && round % 2 == 1 {
                let k = p.num_colors() as u32;
                let loser = rng.random_range(1..k);
                let winner = rng.random_range(0..loser);
                let ev = p.merge_colors(winner, loser);
                for (_, e) in engines.iter_mut() {
                    e.apply_merge(&current, &p, &ev);
                }
            }
            // ...and an edge batch.
            let events = churn_batch(&mut delta, &mut edges, &mut rng, 14);
            for (_, e) in engines.iter_mut() {
                e.apply_edge_batch(&p, &events);
            }
            current = delta.compact();
            // Every variant verifies against a fresh recomputation...
            for (name, e) in engines.iter() {
                assert_eq!(
                    e.verify_against(&current, &p),
                    Ok(()),
                    "round {round}: {name} diverged from scratch"
                );
            }
            // ...and every observable is bit-identical across variants.
            for (_, e) in engines.iter_mut() {
                e.refresh(&p, 1.0);
            }
            let (ref_name, reference) = &engines[0];
            let max_bits = reference.max_error().to_bits();
            let witness = reference.pick_witness(&p, 1.0);
            let report = reference.q_report();
            let merge = reference.pick_merge(f64::INFINITY);
            for (name, e) in engines.iter().skip(1) {
                assert_eq!(
                    e.max_error().to_bits(),
                    max_bits,
                    "round {round}: max_error bits {name} vs {ref_name}"
                );
                assert_eq!(
                    e.pick_witness(&p, 1.0),
                    witness,
                    "round {round}: witness {name} vs {ref_name}"
                );
                assert_eq!(
                    e.q_report(),
                    report,
                    "round {round}: q_report {name} vs {ref_name}"
                );
                assert_eq!(
                    e.pick_merge(f64::INFINITY),
                    merge,
                    "round {round}: merge pick {name} vs {ref_name}"
                );
            }
        }
    }
}

#[test]
fn maintained_runs_agree_across_storage_modes() {
    // Full-stack equivalence: RothkoRun (splits + coarsening merges +
    // node/edge churn + maintenance) replayed once per storage mode.
    // Colorings, split sequences, error bits and the reduced emission must
    // agree with the Dense reference at every round.
    for (directed, seed) in [(false, 13u64), (true, 43)] {
        // (label, per-round assignments, per-round error bits, per-round q).
        type Trace = (String, Vec<Vec<u32>>, Vec<u64>, Vec<f64>);
        let mut traces: Vec<Trace> = Vec::new();
        for mode in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
            let g = random_graph(110, 480, directed, seed);
            let config = RothkoConfig {
                max_colors: 55,
                target_error: 3.0,
                coarsen: true,
                storage: mode,
                ..Default::default()
            };
            let mut run = Rothko::new(config).start(&g);
            run.maintain();
            let mut delta = GraphDelta::new(g.clone());
            let mut edges: Vec<(u32, u32)> = delta
                .base()
                .edges()
                .iter()
                .map(|&(u, v, _)| (u, v))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfade);
            let mut node_rng = StdRng::seed_from_u64(seed ^ 0x0DE5);
            let mut assignments = Vec::new();
            let mut error_bits = Vec::new();
            for round in 0..4 {
                if round % 2 == 0 {
                    let events = churn_batch(&mut delta, &mut edges, &mut rng, 16);
                    let compacted = delta.compact();
                    run.apply_edge_batch(compacted, &events);
                } else {
                    let (batch, compacted) = qsc_bench::random_node_churn(
                        &mut delta,
                        run.partition(),
                        &mut node_rng,
                        4,
                        3,
                        3,
                        |rng| (rng.random_range(1u32..9) as f64) * 0.5,
                    );
                    edges = delta
                        .base()
                        .edges()
                        .iter()
                        .map(|&(u, v, _)| (u, v))
                        .collect();
                    run.apply_node_batch(compacted, &batch);
                }
                run.maintain();
                assignments.push(run.partition().canonical_assignment());
                error_bits.push(run.exact_max_error().to_bits());
            }
            // Reduced emission from the final coloring: equal colorings
            // force equal quotient matrices, which we also pin directly.
            let compacted = delta.compact();
            let q = quotient_matrix(&compacted, run.partition());
            traces.push((format!("{mode:?}"), assignments, error_bits, q));
        }
        let (ref_name, ref_assignments, ref_bits, ref_q) = traces[0].clone();
        for (name, assignments, bits, q) in traces.iter().skip(1) {
            assert_eq!(
                assignments, &ref_assignments,
                "colorings diverged: {name} vs {ref_name} (directed={directed})"
            );
            assert_eq!(
                bits, &ref_bits,
                "error bits diverged: {name} vs {ref_name} (directed={directed})"
            );
            assert_eq!(
                q, &ref_q,
                "reduced emission diverged: {name} vs {ref_name} (directed={directed})"
            );
        }
    }
}

#[test]
fn sparse_engine_capacity_growth_matches_dense() {
    // Long split sequences exercise `ensure_capacity`'s geometric regrowth
    // (dense restride vs sparse no-op) — refine all the way to the discrete
    // partition and compare every observable at each step.
    let g = random_graph(48, 200, false, 77);
    let mut p = Partition::unit(48);
    let mut dense = IncrementalDegrees::new_with_storage(&g, &p, StorageMode::Dense, 1);
    let mut sparse = IncrementalDegrees::new_with_storage(&g, &p, StorageMode::Sparse, 1);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    while let Some(ev) = random_split(&mut p, &mut rng) {
        dense.apply_split(&g, &p, &ev);
        sparse.apply_split(&g, &p, &ev);
        dense.refresh(&p, 0.0);
        sparse.refresh(&p, 0.0);
        assert_eq!(dense.max_error().to_bits(), sparse.max_error().to_bits());
        assert_eq!(dense.pick_witness(&p, 0.0), sparse.pick_witness(&p, 0.0));
    }
    assert_eq!(p.num_colors(), 48);
    assert_eq!(dense.verify_against(&g, &p), Ok(()));
    assert_eq!(sparse.verify_against(&g, &p), Ok(()));
}

#[test]
fn large_split_on_non_dyadic_weights_matches_across_modes() {
    // A split moving more than 2,048 nodes takes the chunked touched
    // accumulation, whose per-chunk partial sums fix the f64 association
    // of each neighbor's weight delta. With weights that are not exact
    // binary fractions that association shows in the bits, so Dense and
    // Sparse engines agree bit for bit only because they share it.
    for (directed, seed) in [(false, 3u64), (true, 59)] {
        let n = 5000;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = if directed {
            GraphBuilder::new_directed(n)
        } else {
            GraphBuilder::new_undirected(n)
        };
        for _ in 0..6 * n {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v, rng.random_range(1u32..30) as f64 * 0.1);
            }
        }
        let g = b.build();
        let mut p = Partition::unit(n);
        let mut dense = IncrementalDegrees::new_with_storage(&g, &p, StorageMode::Dense, 8);
        let mut sparse = IncrementalDegrees::new_with_storage(&g, &p, StorageMode::Sparse, 8);
        let half = (n / 2) as u32;
        let first = p.split_color(0, |v| v >= half).unwrap();
        assert!(
            first.moved_nodes.len() >= 2048,
            "split must take the chunked path"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4C4);
        let mut split = Some(first);
        let mut applied = 0;
        while let Some(ev) = split.take() {
            dense.apply_split(&g, &p, &ev);
            sparse.apply_split(&g, &p, &ev);
            dense.refresh(&p, 1.0);
            sparse.refresh(&p, 1.0);
            assert_eq!(dense.max_error().to_bits(), sparse.max_error().to_bits());
            assert_eq!(dense.pick_witness(&p, 1.0), sparse.pick_witness(&p, 1.0));
            assert_eq!(dense.q_report(), sparse.q_report());
            applied += 1;
            if applied < 4 {
                split = random_split(&mut p, &mut rng);
            }
        }
        assert_eq!(dense.verify_against(&g, &p), Ok(()));
        assert_eq!(sparse.verify_against(&g, &p), Ok(()));
    }
}
