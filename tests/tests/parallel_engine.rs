//! Determinism suite for the batched witness rounds and the engine's
//! witness cache: `batch = 1` must equal the default engine exactly,
//! batched rounds must respect budgets and iteration caps, match the
//! from-scratch reference stepper, and hand every split to lockstep
//! consumers; β-only refreshes must match freshly built engines and the
//! degrees-only engine's sparse rows the dense engine, bit for bit, on
//! seeded random directed and undirected graphs.

use qsc_core::q_error::IncrementalDegrees;
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_core::sweep::ColoringSweep;
use qsc_core::{Partition, ReducedDelta};
use qsc_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// Random graph with exactly representable weights (multiples of 0.5), so
/// every configuration must agree bit-for-bit.
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

/// Drive a full run, collecting the coloring, the witness sequence, and the
/// exact final error.
fn run_trace(g: &Graph, config: RothkoConfig) -> (Vec<u32>, Vec<(u32, u32, bool)>, u64) {
    let mut run = Rothko::new(config).start(g);
    let mut witnesses = Vec::new();
    while run.step() {
        for w in run.last_round_witnesses() {
            witnesses.push((w.split_color, w.other_color, w.outgoing));
        }
    }
    let err = run.exact_max_error().to_bits();
    (run.partition().canonical_assignment(), witnesses, err)
}

#[test]
fn serial_batch_one_equals_default_engine() {
    for (directed, seed) in [(false, 11u64), (true, 23)] {
        let g = random_graph(120, 500, directed, seed);
        let default_run = run_trace(&g, RothkoConfig::with_max_colors(30));
        let pinned = run_trace(&g, RothkoConfig::with_max_colors(30).batch(1));
        assert_eq!(pinned, default_run, "directed={directed} seed={seed}");
    }
}

#[test]
fn batched_rounds_respect_budgets_and_caps() {
    let g = random_graph(100, 450, false, 77);
    // run_to_budget never overshoots, even when the batch is larger than
    // the remaining budget room.
    let mut run = Rothko::new(RothkoConfig::with_max_colors(25).batch(8)).start(&g);
    assert!(run.run_to_budget(9));
    assert_eq!(run.partition().num_colors(), 9);
    assert!(run.run_to_budget(25));
    assert_eq!(run.partition().num_colors(), 25);
    // A round performs at most `batch` splits.
    let mut run = Rothko::new(RothkoConfig::with_max_colors(30).batch(4)).start(&g);
    let mut k = run.partition().num_colors();
    while run.step() {
        let added = run.partition().num_colors() - k;
        assert!((1..=4).contains(&added), "round added {added} colors");
        assert_eq!(run.last_round_events().len(), added);
        assert_eq!(run.last_round_witnesses().len(), added);
        k = run.partition().num_colors();
    }
    // max_iterations caps total splits across batched rounds.
    let config = RothkoConfig {
        max_colors: usize::MAX,
        batch: 4,
        max_iterations: Some(6),
        ..Default::default()
    };
    let coloring = Rothko::new(config).run(&g);
    assert_eq!(coloring.iterations, 6);
    assert_eq!(coloring.partition.num_colors(), 7);
}

#[test]
fn batched_rounds_match_reference_stepper() {
    // The reference (from-scratch) stepper shares per-round witness
    // selection, so batched incremental and batched reference runs must
    // produce identical refinements.
    for batch in [2usize, 4] {
        let g = random_graph(90, 400, true, 101);
        let config = RothkoConfig::with_max_colors(24).batch(batch);
        let incremental = Rothko::new(config.clone()).run(&g);
        let reference = Rothko::new(config).run_reference(&g);
        assert_eq!(
            incremental.partition.canonical_assignment(),
            reference.partition.canonical_assignment(),
            "batch={batch}"
        );
        assert_eq!(incremental.iterations, reference.iterations);
    }
}

#[test]
fn batched_sweep_delivers_every_split_in_lockstep() {
    // Multi-split rounds must still hand each event to the visitor with
    // the partition exactly one split ahead — the ReducedDelta contract.
    let g = random_graph(110, 500, true, 55);
    let mut sweep = ColoringSweep::new(&g, RothkoConfig::default().batch(4));
    let mut delta = ReducedDelta::new(&g, sweep.partition());
    let mut seen = 0usize;
    for budget in [5usize, 12, 21] {
        let cp = sweep.advance_to(budget, |p, ev| {
            assert_eq!(ev.child as usize + 1, p.num_colors());
            delta.apply_split(&g, p, ev);
            seen += 1;
        });
        assert_eq!(cp.colors, budget, "budget checkpoints land exactly");
        assert_eq!(delta.num_colors(), budget);
    }
    assert_eq!(seen, 20, "one event per added color");
    assert_eq!(delta.verify_against(&g, sweep.partition()), Ok(()));
}

#[test]
fn beta_change_keeps_max_error_valid_without_error_rescans() {
    // row_max_err is β-independent: after a β-only refresh the maximum
    // error must be unchanged and still exact, and witness picks under the
    // new β must match a freshly built engine's.
    let g = random_graph(80, 350, true, 67);
    let mut p = Partition::unit(g.num_nodes());
    let mut engine = IncrementalDegrees::new(&g, &p);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..15 {
        let k = p.num_colors();
        let Some(c) = (0..k as u32).find(|&c| p.size(c) >= 2) else {
            break;
        };
        let members: Vec<u32> = p.members(c).to_vec();
        let pivot = members[rng.random_range(0..members.len())];
        if let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) {
            engine.apply_split(&g, &p, &ev);
        }
    }
    engine.refresh(&p, 0.0);
    let err = engine.max_error();
    for beta in [1.0f64, -0.5, 2.0, 0.0] {
        engine.refresh(&p, beta);
        assert_eq!(engine.max_error().to_bits(), err.to_bits());
        let fresh = IncrementalDegrees::new(&g, &p);
        let mut fresh = fresh;
        fresh.refresh(&p, beta);
        assert_eq!(
            engine.pick_witness(&p, 1.0),
            fresh.pick_witness(&p, 1.0),
            "beta={beta}"
        );
    }
}

#[test]
fn degrees_only_sparse_rows_match_dense_summary_engine() {
    // The degrees-only engine now keeps sparse rows; its accumulator
    // values must equal the dense summary engine's bit-for-bit across a
    // refinement, on both directed and undirected graphs.
    for (directed, seed) in [(false, 31u64), (true, 43)] {
        let g = random_graph(70, 300, directed, seed);
        let mut p = Partition::unit(g.num_nodes());
        let mut dense = IncrementalDegrees::new(&g, &p);
        let mut sparse = IncrementalDegrees::new_degrees_only(&g, &p);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let k = p.num_colors();
            let Some(c) = (0..k as u32).find(|&c| p.size(c) >= 2) else {
                break;
            };
            let members: Vec<u32> = p.members(c).to_vec();
            let pivot = members[rng.random_range(0..members.len())];
            let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) else {
                continue;
            };
            dense.apply_split(&g, &p, &ev);
            sparse.apply_split(&g, &p, &ev);
            assert_eq!(sparse.verify_against(&g, &p), Ok(()));
        }
        let k = p.num_colors() as u32;
        for v in 0..g.num_nodes() as u32 {
            for c in 0..k {
                assert_eq!(
                    dense.out_degree_of(v, c).to_bits(),
                    sparse.out_degree_of(v, c).to_bits()
                );
                assert_eq!(
                    dense.in_degree_of(v, c).to_bits(),
                    sparse.in_degree_of(v, c).to_bits()
                );
            }
        }
    }
}
