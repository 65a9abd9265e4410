//! `paper_sweep`: the paper's analytics pipeline (Fig. 7) on three
//! Full-scale stand-ins — `cells` (max-flow), `supportcase10` (LP) and
//! `deezer` (centrality).
//!
//! Each input is swept warm up a budget ladder: the coloring advances
//! (`ColoringSweep::advance_to`), the reduced instance is patched
//! (`ReducedDelta` + `PatchedReducedGraph`, or `ReducedLpDelta` +
//! `PatchedReducedLp`) and solved (`WarmFlowSolver::solve`,
//! `simplex::solve_warm`, the stratified estimator
//! `approximate_with_partition`). One operation is one answered budget;
//! the first budget of a ladder also pays for building the sweep. A pass
//! runs the three ladders in turn, and whole passes repeat until the time
//! is up.
//!
//! Exact baselines (push-relabel, interior point, Brandes) are computed in
//! set-up. Every answer is checked: the flow value is an upper bound on
//! the exact max-flow (Theorem 6) within a relative 1e-9, the reduced LP
//! solves to optimality, and the Spearman ρ of the centrality estimate is
//! finite. Every pass does the same work, so the counts of each complete
//! pass must equal the first pass's — the determinism guard.

use crate::harness::{add, Counts, Meter, Outcome, Settings};
use crate::seeds;
use crate::trace::span;
use qsc_centrality::approx::{approximate_with_partition, CentralityApproxConfig};
use qsc_core::reduced::{PatchedReducedGraph, ReducedDelta};
use qsc_core::rothko::RothkoConfig;
use qsc_core::sweep::ColoringSweep;
use qsc_core::Partition;
use qsc_flow::{FlowNetwork, WarmFlowSolver};
use qsc_graph::Graph;
use qsc_lp::sweep::PatchedReducedLp;
use qsc_lp::{LpProblem, LpReductionVariant, LpStatus, ReducedLpDelta, SimplexBasis};

/// Budget ladders (colors) per task. The rungs are dense so that the
/// operations' latencies spread evenly: percentiles then fall between
/// close neighbours rather than across a gap between operation kinds.
const FLOW_LADDER: &[usize] = &[
    4, 6, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 224, 256,
];
const LP_LADDER: &[usize] = &[
    4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 448, 512,
];
const CENTRALITY_LADDER: &[usize] = &[4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32];
const TINY_LADDER: &[usize] = &[4, 6, 8, 12, 16];

/// Relative slack of the Theorem 6 upper-bound check.
const FLOW_BOUND_TOLERANCE: f64 = 1e-9;
/// Floor of the LP relative-error denominator (as in the figure binaries).
const LP_ERROR_FLOOR: f64 = 1e-9;

/// The three inputs and their exact answers.
struct Inputs {
    network: FlowNetwork,
    lp: LpProblem,
    graph: Graph,
    exact_flow: f64,
    exact_lp: f64,
    exact_centrality: Vec<f64>,
}

/// Build the inputs for `seed`. The default seed loads the
/// `qsc-datasets` stand-ins; any other seed regenerates the same
/// generator families at the same sizes with seeds derived from it.
fn inputs(settings: &Settings) -> Inputs {
    let (network, lp, graph) = if settings.seed == seeds::DEFAULT {
        let scale = if settings.tiny {
            qsc_datasets::Scale::Small
        } else {
            qsc_datasets::Scale::Full
        };
        (
            qsc_datasets::load_flow("cells", scale).expect("cells is a flow dataset"),
            qsc_datasets::load_lp("supportcase10", scale).expect("supportcase10 is an LP dataset"),
            qsc_datasets::load_graph("deezer", scale).expect("deezer is a graph dataset"),
        )
    } else {
        let s = settings.seed;
        let ((w, h), (rows, cols, types), (n, m)) = if settings.tiny {
            ((24, 20), (12, 240, 6), (800, 2))
        } else {
            ((144, 120), (300, 12_000, 15), (7_000, 3))
        };
        let (network, _) =
            qsc_flow::generators::grid_flow_network(w, h, 3.0, 0.25, seeds::derive(s, "cells"));
        let lp = qsc_lp::generators::covering_like(
            rows,
            cols,
            types,
            0.08,
            seeds::derive(s, "supportcase10"),
        );
        let graph = qsc_graph::generators::barabasi_albert(n, m, seeds::derive(s, "deezer"));
        (network, lp, graph)
    };
    let exact_flow = qsc_flow::push_relabel::max_flow(&network).value;
    let (exact, _) = qsc_lp::interior_point::solve_with(
        &lp,
        &qsc_lp::interior_point::InteriorPointConfig::default(),
    );
    assert_eq!(
        exact.status,
        LpStatus::Optimal,
        "exact LP baseline must solve"
    );
    let exact_centrality = qsc_centrality::brandes::betweenness(&graph);
    Inputs {
        network,
        lp,
        graph,
        exact_flow,
        exact_lp: exact.objective,
        exact_centrality,
    }
}

/// Accuracy sums of the counting window.
#[derive(Default)]
struct Accuracy {
    flow: Vec<f64>,
    lp: Vec<f64>,
    centrality: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[derive(Default)]
struct Pass {
    counts: Counts,
    accuracy: Accuracy,
    /// Largest engine resident bytes at the end of a ladder.
    resident_bytes: f64,
}

impl Pass {
    fn resident(&mut self, run: &qsc_core::RothkoRun<'_>) {
        if let Some(engine) = run.engine() {
            self.resident_bytes = self.resident_bytes.max(engine.resident_bytes() as f64);
        }
    }
}

fn flow_ladder(inputs: &Inputs, ladder: &[usize], meter: &mut Meter, pass: &mut Pass) {
    let network = &inputs.network;
    let graph = &network.graph;
    meter.begin();
    let (mut sweep, s_color, t_color) = span("core.build", || {
        let initial = qsc_flow::reduce::pinned_initial(network);
        let (s, t) = (
            initial.color_of(network.source),
            initial.color_of(network.sink),
        );
        let config = RothkoConfig {
            initial: Some(initial),
            ..Default::default()
        };
        (ColoringSweep::new(graph, config), s, t)
    });
    let (mut delta, mut emitter) = span("core.reduced", || {
        let mut delta = ReducedDelta::new(graph, sweep.partition());
        let emitter = PatchedReducedGraph::new(&mut delta, |i, j, sum: f64, _, _| {
            // Self-loops carry no s-t flow; clamp cancellation residue.
            if i == j {
                0.0
            } else {
                sum.max(0.0)
            }
        });
        (delta, emitter)
    });
    let mut solver = WarmFlowSolver::new();
    for (i, &budget) in ladder.iter().enumerate() {
        if i > 0 {
            meter.begin();
        }
        let mut splits = 0usize;
        span("core.refine", || {
            sweep.advance_to(budget.max(3), |p, ev| {
                splits += 1;
                span("core.reduced", || delta.apply_split(graph, p, ev));
            })
        });
        let reduced = span("core.reduced", || {
            emitter.sync(&mut delta);
            emitter.to_graph()
        });
        let result = span("flow.solve", || {
            solver.solve(&FlowNetwork::new(reduced, s_color, t_color))
        });
        meter.end();
        let exact = inputs.exact_flow;
        meter.check(
            result.value >= exact - FLOW_BOUND_TOLERANCE * exact.abs(),
            || format!("flow budget {budget}: {} below exact {exact}", result.value),
        );
        add(&mut pass.counts, "core.splits", splits as f64);
        add(&mut pass.counts, "flow.relabels", result.iterations as f64);
        pass.accuracy
            .flow
            .push(qsc_flow::reduce::relative_error(exact, result.value) - 1.0);
    }
    pass.resident(&sweep.into_run());
}

fn lp_ladder(inputs: &Inputs, ladder: &[usize], meter: &mut Meter, pass: &mut Pass) {
    let lp = &inputs.lp;
    let variant = LpReductionVariant::SqrtNormalized;
    meter.begin();
    let (graph, initial) = span("lp.graph", || qsc_lp::reduce::coloring_graph(lp));
    let mut sweep = span("core.build", || {
        ColoringSweep::new(
            &graph,
            RothkoConfig {
                initial: Some(initial),
                ..Default::default()
            },
        )
    });
    let (mut delta, mut emitter) = span("lp.reduced", || {
        let mut delta = ReducedLpDelta::new(lp);
        let emitter = PatchedReducedLp::new(&mut delta, variant);
        (delta, emitter)
    });
    let mut basis: Option<SimplexBasis> = None;
    let config = qsc_lp::SimplexConfig::default();
    for (i, &budget) in ladder.iter().enumerate() {
        if i > 0 {
            meter.begin();
        }
        let mut splits = 0usize;
        span("core.refine", || {
            sweep.advance_to(budget.max(4), |_, ev| {
                splits += 1;
                span("lp.reduced", || delta.apply_split(ev));
            })
        });
        let reduced = span("lp.reduced", || {
            emitter.sync(&mut delta);
            emitter.to_problem(&lp.name)
        });
        let had_basis = basis.is_some();
        let warm = span("lp.solve", || {
            qsc_lp::simplex::solve_warm(&reduced, &config, basis.as_ref())
        });
        meter.end();
        basis = warm.basis;
        let solution = warm.solution;
        meter.check(solution.status == LpStatus::Optimal, || {
            format!("lp budget {budget}: status {:?}", solution.status)
        });
        add(&mut pass.counts, "core.splits", splits as f64);
        add(&mut pass.counts, "lp.pivots", solution.iterations as f64);
        add(
            &mut pass.counts,
            "lp.warm_attempts",
            f64::from(u8::from(had_basis)),
        );
        add(
            &mut pass.counts,
            "lp.warm_hits",
            f64::from(u8::from(warm.warm_used)),
        );
        let exact = inputs.exact_lp;
        pass.accuracy
            .lp
            .push(((solution.objective - exact) / exact.abs().max(LP_ERROR_FLOOR)).abs());
    }
    pass.resident(&sweep.into_run());
}

/// Single-source passes the stratified estimator computes: one per
/// representative, `min(reps, |color|)` per color.
fn estimator_sources(p: &Partition, reps: usize) -> usize {
    (0..p.num_colors() as u32)
        .map(|c| p.members(c).len().min(reps))
        .sum()
}

fn centrality_ladder(inputs: &Inputs, ladder: &[usize], meter: &mut Meter, pass: &mut Pass) {
    let graph = &inputs.graph;
    meter.begin();
    let mut sweep = span("core.build", || {
        ColoringSweep::new(graph, RothkoConfig::for_centrality(usize::MAX))
    });
    for (i, &budget) in ladder.iter().enumerate() {
        if i > 0 {
            meter.begin();
        }
        let mut splits = 0usize;
        let checkpoint = span("core.refine", || {
            sweep.advance_to(budget, |_, _| splits += 1)
        });
        let config = CentralityApproxConfig::with_max_colors(budget);
        let partition = span("core.reduced", || sweep.partition().clone());
        let sources = estimator_sources(&partition, config.representatives_per_color);
        let approx = span("centrality.estimate", || {
            approximate_with_partition(graph, partition, checkpoint.max_q_error, &config)
        });
        meter.end();
        let rho = qsc_centrality::spearman(&inputs.exact_centrality, &approx.scores);
        meter.check(rho.is_finite(), || {
            format!("centrality budget {budget}: Spearman rho {rho}")
        });
        add(&mut pass.counts, "core.splits", splits as f64);
        add(&mut pass.counts, "centrality.sources", sources as f64);
        pass.accuracy.centrality.push(1.0 - rho);
    }
    pass.resident(&sweep.into_run());
}

pub fn run(settings: &Settings) -> Outcome {
    let (flow, lp, centrality) = if settings.tiny {
        (TINY_LADDER, TINY_LADDER, TINY_LADDER)
    } else {
        (FLOW_LADDER, LP_LADDER, CENTRALITY_LADDER)
    };
    let per_pass = flow.len() + lp.len() + centrality.len();
    // At least two complete passes, so the determinism guard always has
    // a pass to compare with the first.
    let mut meter = Meter::new(settings, (2 * per_pass).max(100));
    let inputs = meter.setup(settings.setup_repeats(), || inputs(settings));

    let mut resident_bytes = 0.0f64;
    let mut first: Option<(Counts, Accuracy)> = None;
    // The loop only stops between passes: every run measures whole passes.
    while meter.keep_going() {
        let mut pass = Pass::default();
        flow_ladder(&inputs, flow, &mut meter, &mut pass);
        lp_ladder(&inputs, lp, &mut meter, &mut pass);
        centrality_ladder(&inputs, centrality, &mut meter, &mut pass);
        resident_bytes = resident_bytes.max(pass.resident_bytes);
        match &first {
            None => first = Some((pass.counts, pass.accuracy)),
            Some((counts, _)) => {
                if *counts != pass.counts {
                    meter.failures.push(format!(
                        "pass counts differ from the first pass: {counts:?} vs {:?}",
                        pass.counts
                    ));
                }
            }
        }
    }
    let (mut counts, accuracy) = first.expect("the loop completes at least one pass");
    counts.insert("flow.err", mean(&accuracy.flow));
    counts.insert("lp.err", mean(&accuracy.lp));
    counts.insert("centrality.err", mean(&accuracy.centrality));
    let attempts = counts.remove("lp.warm_attempts").unwrap_or(0.0);
    let hits = counts.remove("lp.warm_hits").unwrap_or(0.0);
    counts.insert(
        "lp.warm_hit_ratio",
        if attempts > 0.0 { hits / attempts } else { 0.0 },
    );
    Outcome {
        meter,
        counts,
        resident_bytes,
    }
}
