//! Measuring how (quasi-)stable a coloring is, and maintaining that
//! measurement incrementally while a coloring is refined.
//!
//! For a coloring `P` of a weighted directed graph, the *q-error* of a pair
//! of colors `(P_i, P_j)` in the outgoing direction is
//! `max_{v ∈ P_i} w(v, P_j) − min_{v ∈ P_i} w(v, P_j)`; the incoming
//! direction is defined symmetrically over `w(P_i, v)` for `v ∈ P_j`.
//! A coloring is `q`-stable iff every such error is at most `q`, and stable
//! iff every error is exactly zero.
//!
//! Two evaluators live here:
//!
//! * [`DegreeMatrices`] — the from-scratch `O(n + m + k²)` computation, used
//!   for one-shot reports and as the ground truth the incremental engine is
//!   cross-checked against.
//! * [`IncrementalDegrees`] — the incremental refinement engine. Built once,
//!   then updated after every [`SplitEvent`] in time proportional to the
//!   edges incident to the moved nodes (plus the two affected rows), instead
//!   of rescanning the whole graph. This is what makes
//!   [`crate::rothko::Rothko`] splits `O(touched)` rather than `O(graph)`
//!   and keeps the anytime loop's per-step latency interactive (Table 6 of
//!   the paper).
//!
//! # Incremental maintenance invariants
//!
//! `IncrementalDegrees` maintains, between any two calls of
//! [`IncrementalDegrees::apply_split`]:
//!
//! 1. **Accumulators.** For every node `v` and color `j < k`:
//!    `dout[v][j] = w(v, P_j)` and `din[v][j] = w(P_j, v)` — the per-node
//!    per-color weighted degrees. Nodes with no edges into a color hold an
//!    explicit `0.0`, so min/max over a color's members needs no implicit
//!    zero bookkeeping (unlike `DegreeMatrices`, which tracks non-zero
//!    counts instead of dense rows).
//! 2. **Pair summaries.** For every ordered color pair `(i, j)`:
//!    `out_min/out_max[i][j] = min/max_{u ∈ P_i} dout[u][j]` and
//!    `in_min/in_max[i][j] = min/max_{v ∈ P_j} din[v][i]` — numerically
//!    identical to `DegreeMatrices::compute` up to floating-point
//!    associativity (exactly identical for integer-valued weights).
//! 3. **Witness rows.** Per *split-candidate* color `s`, a lazily refreshed
//!    cache row over all entries whose split color is `s` (the out-entries
//!    `(s, ·)` and in-entries `(·, s)`): the row's maximum unweighted error
//!    and its best β-weighted witness candidate. The two caches have
//!    *separate* staleness flags: a split marks error-dirty only the rows
//!    whose entries actually changed — the parent, the child, every color
//!    containing a neighbor of a moved node — while rows whose cached best
//!    merely pointed at the parent (its *size* changed, its errors did
//!    not) go best-dirty only, and a β change alone (β-weighted bests
//!    stale, row maxima β-independent) dirties no error state at all. A
//!    [`IncrementalDegrees::refresh`] + witness pick therefore costs
//!    `O(stale rows · k)`, not `O(k²)`, and
//!    [`IncrementalDegrees::max_error`] stays valid across β changes
//!    without any rescan.
//! 4. **Extremum witnesses and nonzero counts.** Every pair summary entry
//!    also tracks *which* member attains its min/max (or an explicit
//!    "unknown" sentinel) and how many members have a non-zero value.
//!    These never influence entry values — they only decide whether a
//!    one-column member rescan is needed when members change: an entry
//!    whose tracked attainer neither moved nor departed provably keeps its
//!    extremum, and a `min == 0` entry keeps its minimum while any member
//!    value stays exactly zero (the dominant case on sparse graphs, where
//!    ties at zero used to force a rescan storm). Unknown attainers fall
//!    back to the conservative value-equality heuristic.
//!
//! A split `P_c → (P_c, P_child)` updates state as follows. Accumulator
//! columns `c`/`child` change only for in/out-neighbors of the moved nodes
//! (weight conservation: `dout[u][c] + dout[u][child]` is invariant, and
//! symmetrically for `din`). Pair summaries split into three classes:
//! rows/columns of `c` and `child` over the *member* axis are rebuilt by
//! scanning the two colors' members (`O((|P_c| + |P_child|) · k)`); entries
//! `(i, c)`/`(c, j)` over *other* colors' member axes are patched from the
//! touched neighbors, falling back to a one-column rescan only when a
//! touched node was the entry's unique extremum; all remaining entries are
//! untouched by construction. Debug builds cross-check the full state
//! against `DegreeMatrices::compute` after every split
//! ([`IncrementalDegrees::verify_against`]).
//!
//! # Edge-event maintenance (dynamic graphs)
//!
//! Splits are one half of the delta vocabulary; the other is *edge churn*.
//! [`IncrementalDegrees::apply_edge_batch`] patches the same state for a
//! batch of [`EdgeEvent`]s (signed weight changes of logical edges, the
//! currency of `qsc_graph::delta::GraphDelta`) without touching the graph
//! at all: an event `(u, v, Δ)` adds `Δ` to `dout[u][color(v)]` (and to
//! `din[v][color(u)]`, or the mirrored out-entry on undirected graphs),
//! then folds the change into the affected pair-summary entry with exactly
//! the split path's machinery — inline outward extension with attainers,
//! exact lost-extremum detection via the tracked attainer, the `min == 0`
//! zero-member skip rule, and a one-column member rescan only when an
//! extremum was provably lost. Cost per batch:
//! `O(events + touched entries)` plus those rescans — the "O(endpoints'
//! colors + touched entries)" the dynamic-graph maintenance path needs.
//! Witness rows of touched entries go error-dirty, so the next
//! [`IncrementalDegrees::refresh`] re-derives `max_error` and the cached
//! bests; color sizes are untouched, so no β bookkeeping is disturbed.
//! The partition must be unchanged by the batch (`p.num_colors()` equals
//! the engine's color count): graph updates and coloring updates are
//! separate deltas, sequenced by the caller
//! (`crate::rothko::RothkoRun::apply_edge_batch` patches the engine, swaps
//! the graph, and then re-establishes the (q, k) invariant by splitting).
//!
//! # Merge and node-churn maintenance (bidirectional events)
//!
//! Splits and edge events only ever *refine* or *perturb*; two more event
//! kinds complete the bidirectional algebra:
//!
//! * **Merges** ([`IncrementalDegrees::apply_merge`]). The dual of a split:
//!   the loser color's members join the winner, accumulator columns fold
//!   (`dout[u][winner] += dout[u][loser]` for the in-neighbors of the
//!   moved members — `O(touched)`, no other node changes), entries over
//!   other colors' member axes are patched with the split path's exact
//!   lost-extremum machinery, the winner's member axis is rebuilt from the
//!   merged member list, and the last color is relabeled into the freed
//!   slot (`O(touched + k)` row/column copies). Merge *selection*
//!   ([`IncrementalDegrees::pick_merge`]) is the dual of the witness rule:
//!   among all color pairs it picks the one minimizing the **post-merge
//!   q-error bound** — exact for the merged member-axis rows
//!   (`min`/`max` over a union is the `min`/`max` of the parts) and an
//!   upper bound for the folded columns (the spread of a sum is at most
//!   the sum of the spreads) — so a maintained run can coarsen while
//!   provably staying within its error target.
//! * **Node churn** ([`IncrementalDegrees::apply_node_inserts`] /
//!   [`IncrementalDegrees::apply_node_removals`]). The accumulators are
//!   *growable* (fresh isolated nodes append all-zero rows and extend
//!   their color's pair summaries inline with explicit zero attainers) and
//!   *compactable* (after removals — legal only for isolated nodes, whose
//!   incident edges were already deleted by the preceding edge batch — the
//!   node axis is renumbered through the `GraphDelta` remap, extremum
//!   witnesses are remapped, and only the colors that lost members rebuild
//!   their member axes).
//!
//! Both paths preserve the engine-wide determinism contract: the patched
//! state equals a freshly built engine on the resulting graph/partition
//! (bit-for-bit for exactly representable weights), so maintained and
//! fresh-from-checkpoint runs pick identical witnesses *and* identical
//! merge pairs.
//!
//! # Sides
//!
//! The two error directions are the same computation over transposed data,
//! so the engine stores each direction as one `Side` value and writes every
//! maintenance step once, over a side:
//!
//! * its accumulator (invariant 1: `dout` on the out side, `din` on the in
//!   side) — an `Accum`, see "Storage tiers" below;
//! * its five summary planes (`min`, `max`, their attainers and the
//!   nonzero counts), `cap × cap` arrays in the `i * cap + j` layout of
//!   [`DegreeMatrices`], addressed by `(member, other)` color: `member` is
//!   the color whose members the entry ranges over. Out-entry `(i, j)` is
//!   `(member, other) = (i, j)` and in-entry `(i, j)` is `(j, i)`, so the
//!   out planes are member-major and the in planes other-major — one
//!   stride pair per side;
//! * the arcs along which a moved node changes other nodes' rows (in-arcs
//!   for the out side), and its per-event scratch.
//!
//! A split, merge, edge batch or node event runs its side step once per
//! stored side. Two structural specializations keep the engine lean:
//!
//! * **Symmetric graphs.** For undirected graphs the in-direction state is
//!   an exact mirror of the out-direction (`din[v] == dout[v]`,
//!   `in_min/max[i][j] == out_min/max[j][i]`, bit-for-bit, because the CSR
//!   stores both adjacency directions in ascending neighbor order), so the
//!   engine stores only the out side — half the memory and per-split work
//!   with identical results. Read through `(member, other)`, the out side
//!   *is* the in side then, so one accessor serves the mirrored reads.
//! * **Degrees-only mode** ([`IncrementalDegrees::new_degrees_only`]).
//!   Signature-based refiners (the stable coloring) read accumulator
//!   values and never ask for pair errors; this mode maintains only
//!   invariant 1 — and it does so with *sparse* per-node rows (sorted
//!   non-zero `(color, weight)` pairs) instead of dense `n × k` storage,
//!   making `apply_split` pure `O(deg(moved) · log deg)` and the whole
//!   engine `O(m)` memory, which keeps near-discrete colorings (`k → n`)
//!   affordable in both time and space.
//!
//! # Storage tiers
//!
//! A summary-tracking engine's accumulators come in two layouts, selected
//! per engine by `RothkoConfig::storage` ([`crate::storage::StorageMode`])
//! and resolved once at construction into each side's `Accum`:
//!
//! * **Dense** — an `n × cap` plane, 8 bytes per (node, color) slot.
//!   Unbeatable per probe when the plane is cache-resident: a member scan
//!   is one strided load per row.
//! * **Rows** — per-node tiered rows ([`crate::storage::RowRep`]): sorted
//!   nonzero `(color, weight)` vectors at 16 bytes per *nonzero* entry,
//!   with rows that reach half the color capacity promoted to plain slot
//!   arrays (hot rows keep dense probe cost). Degrees-only engines always
//!   use rows and never promote.
//!
//! `Accum` is the only place that tells the two apart. Its operations —
//! get, add, the split shift, the merge fold and relabel, the one- and
//! several-column member scans, the member-row fold, regrowth and node
//! compaction — perform the same arithmetic in both layouts and match the
//! layout once per loop, never per element. The scans go through
//! [`crate::kernels`]' dense and sparse gather variants, which share the
//! member-order/first-attainer fold contract, so both layouts produce
//! bit-identical colorings, witnesses and error bits
//! (`tests/tests/storage_modes.rs` pins this over mixed traces).
//!
//! Measured on the `bench_memory` BA ladder (m = 10, k = 200, engine
//! resident bytes, avg row ≈ 20 nonzeros ≈ 330 B/node sparse vs 2 KiB
//! dense):
//!
//! | n    | sparse    | dense      | reduction | step+maintain    |
//! |------|-----------|------------|-----------|------------------|
//! | 10k  | 5.1 MiB   | 21.6 MiB   | 4.2×      | ~1.6× dense      |
//! | 100k | 27 MiB    | 199 MiB    | 7.4×      | **0.4× dense**   |
//! | 1M   | 180 MiB   | 1.93 GiB*  | **11×**   | dense infeasible |
//!
//! (*analytic projection, validated within 5% against real dense engines
//! on the smaller rungs.) The wall-time crossover is why the default
//! `Auto` mode gates on projected dense footprint: below ~256 MiB the
//! dense matrix is what caches were built for and `Auto` resolves dense;
//! past it the sparse tier is both the memory wall's fix *and* faster.
//!
//! # Witness-cache profiling
//!
//! The ROADMAP asked whether a binary heap over the cached row bests beats
//! [`IncrementalDegrees::pick_witness`]'s `O(k)` scan at large `k`. The
//! `witness_cache` micro-benchmark (in `qsc-bench`) measured both on the
//! reference container (1 × 2.7 GHz core), mean per pick:
//!
//! | k      | linear scan | heapify + pop |
//! |--------|-------------|---------------|
//! | 10²    | 0.15 µs     | 2.4 µs        |
//! | 10³    | 1.5 µs      | 21 µs         |
//! | 10⁴    | 15 µs       | 200 µs        |
//!
//! The scan wins by ~13–16× at every size (and the real-engine pick at
//! `k ∈ {10², 10³}` matches the synthetic scan numbers): the α size
//! weighting depends on current color sizes, so a heap would have to be
//! rebuilt per pick, and one `O(k)` heapify plus allocation can never beat
//! one cache-friendly `O(k)` scan. The scan stays.
//!
//! # Lane-kernel hot paths
//!
//! The engine's inner loops route through [`crate::kernels`] (blocked,
//! autovectorization-friendly f64 lane work with *exact sequential scan
//! semantics* — see the module's determinism notes). On the 10k-node
//! Barabási–Albert / 200-color headline run (serial, 1 × 2.7 GHz core,
//! `bench_kernels`), the full step loop went from 0.0426 s pre-kernel to
//! 0.0320 s (1.33×); the isolated member-axis rescan kernel
//! ([`crate::kernels::fold_minmax_row`]) measures 2.4–3.4× over the
//! scalar loop it replaced. What the rewire actually changed, in
//! decreasing order of measured profit:
//!
//! * **Member-axis rescans** fold whole accumulator rows through
//!   `fold_minmax_row` (the dense scan and the sparse degrees-only rebuild
//!   share it).
//! * **Witness-row scans** at β = 0 collapse to one contiguous
//!   max-spread pass ([`crate::kernels::row_err_argmax`]) instead of the
//!   per-column weighted compare.
//! * **Final report**: [`crate::rothko::RothkoRun::finish`] reads
//!   [`IncrementalDegrees::q_report`] off the live summaries (`O(k²)`)
//!   instead of recomputing [`DegreeMatrices`] from the graph
//!   (`O(n·k + m)`) — worth ~4 ms of the 32 ms headline alone.
//! * **Parent-axis repair** batches the queued one-column rescans of one
//!   member axis into a single member pass
//!   ([`crate::kernels::scan_gather_columns`]), loading each accumulator
//!   row once instead of once per column.
//! * **Split apply** walks the touched list with explicit L1 prefetch
//!   ([`crate::kernels::prefetch_read`]) and reads the per-node deltas
//!   positionally from `touched_deltas` (collected index-parallel to the
//!   touched list) instead of re-gathering a per-node array.
//!
//! The strided entry *gather* itself (`scan_gather_column`) is memory
//! bound and gains nothing from lane form (measured 1.0×) — the wins
//! above all come from removing passes or folding them wider, not from
//! prettier arithmetic. Single-core wall-clock on the reference container
//! swings ±15 % with host load; `bench_kernels` warms the frequency
//! governor and reports best-of-5 with raw rounds recorded.

use crate::kernels;
use crate::partition::{MergeEvent, Partition, SplitEvent};
use crate::similarity::Similarity;
use crate::storage::{ResolvedStorage, RowRep, StorageMode};
use qsc_graph::delta::{EdgeEvent, NodeRemap};
use qsc_graph::{ColumnAdvice, ColumnBuf, Graph, NodeId};
use std::collections::HashMap;

/// Sentinel for "extremum attainer unknown" in the pair-summary witness
/// arrays (forces the conservative rescan heuristic for that entry).
/// Shared with the lane kernels in [`crate::kernels`].
pub(crate) use crate::kernels::NO_ARG;

/// Direction of a degree/error matrix entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Entry `(i, j)` talks about outgoing weights of nodes in `P_i` into `P_j`.
    Out,
    /// Entry `(i, j)` talks about incoming weights of nodes in `P_j` from `P_i`.
    In,
}

/// Per-color-pair degree summaries of a coloring: for every ordered pair of
/// colors `(i, j)`, the maximum, minimum and total weight from nodes of `P_i`
/// into `P_j` (outgoing view) and from `P_i` into nodes of `P_j` (incoming
/// view). This is the `U`/`L` pair of Algorithm 1.
#[derive(Clone, Debug)]
pub struct DegreeMatrices {
    /// Number of colors `k`. All matrices are `k × k`, row-major.
    pub k: usize,
    /// `out_max[i*k + j] = max_{v ∈ P_i} w(v, P_j)`.
    pub out_max: Vec<f64>,
    /// `out_min[i*k + j] = min_{v ∈ P_i} w(v, P_j)`.
    pub out_min: Vec<f64>,
    /// `in_max[i*k + j] = max_{v ∈ P_j} w(P_i, v)`.
    pub in_max: Vec<f64>,
    /// `in_min[i*k + j] = min_{v ∈ P_j} w(P_i, v)`.
    pub in_min: Vec<f64>,
    /// `sum[i*k + j] = w(P_i, P_j)`, the total weight between the colors.
    pub sum: Vec<f64>,
    /// `nonzero[i*k + j]`: number of nodes of `P_i` with non-zero weight into
    /// `P_j` (used to decide whether a pair has any edges at all).
    pub nonzero: Vec<u32>,
}

impl DegreeMatrices {
    /// Compute the degree matrices of `p` on `g`. `O(n + m + k²)` time and
    /// `O(k²)` memory.
    pub fn compute(g: &Graph, p: &Partition) -> Self {
        let n = g.num_nodes();
        assert_eq!(p.num_nodes(), n, "partition does not match graph");
        let k = p.num_colors();
        let mut out_max = vec![f64::NEG_INFINITY; k * k];
        let mut out_min = vec![f64::INFINITY; k * k];
        let mut in_max = vec![f64::NEG_INFINITY; k * k];
        let mut in_min = vec![f64::INFINITY; k * k];
        let mut sum = vec![0.0f64; k * k];
        let mut out_count = vec![0u32; k * k];
        let mut in_count = vec![0u32; k * k];

        let mut scratch = vec![0.0f64; k];
        let mut touched: Vec<u32> = Vec::with_capacity(k);

        for v in 0..n as u32 {
            let ci = p.color_of(v) as usize;
            // Outgoing.
            touched.clear();
            for (t, w) in g.out_edges(v) {
                let cj = p.color_of(t) as usize;
                if scratch[cj] == 0.0 && !touched.contains(&(cj as u32)) {
                    touched.push(cj as u32);
                }
                scratch[cj] += w;
            }
            for &cj in &touched {
                let cj = cj as usize;
                let w = scratch[cj];
                let idx = ci * k + cj;
                if w > out_max[idx] {
                    out_max[idx] = w;
                }
                if w < out_min[idx] {
                    out_min[idx] = w;
                }
                sum[idx] += w;
                out_count[idx] += 1;
                scratch[cj] = 0.0;
            }
            // Incoming.
            touched.clear();
            for (s, w) in g.in_edges(v) {
                let cj = p.color_of(s) as usize;
                if scratch[cj] == 0.0 && !touched.contains(&(cj as u32)) {
                    touched.push(cj as u32);
                }
                scratch[cj] += w;
            }
            for &cj in &touched {
                let cj = cj as usize;
                let w = scratch[cj];
                // Entry (cj, ci): weights from P_cj into node v of P_ci.
                let idx = cj * k + ci;
                if w > in_max[idx] {
                    in_max[idx] = w;
                }
                if w < in_min[idx] {
                    in_min[idx] = w;
                }
                in_count[idx] += 1;
                scratch[cj] = 0.0;
            }
        }

        // Account for nodes with zero weight towards a color: if not every
        // node of the source color touched the pair, the minimum weight is at
        // most 0 and the maximum at least 0. Pairs with no edges at all get
        // max = min = 0.
        for i in 0..k {
            let size_i = p.size(i as u32) as u32;
            for j in 0..k {
                let idx = i * k + j;
                if out_count[idx] == 0 {
                    out_max[idx] = 0.0;
                    out_min[idx] = 0.0;
                } else if out_count[idx] < size_i {
                    out_max[idx] = out_max[idx].max(0.0);
                    out_min[idx] = out_min[idx].min(0.0);
                }
                let size_j = p.size(j as u32) as u32;
                if in_count[idx] == 0 {
                    in_max[idx] = 0.0;
                    in_min[idx] = 0.0;
                } else if in_count[idx] < size_j {
                    in_max[idx] = in_max[idx].max(0.0);
                    in_min[idx] = in_min[idx].min(0.0);
                }
            }
        }

        DegreeMatrices {
            k,
            out_max,
            out_min,
            in_max,
            in_min,
            sum,
            nonzero: out_count,
        }
    }

    /// Outgoing error `U − L` at `(i, j)`.
    #[inline]
    pub fn out_error(&self, i: usize, j: usize) -> f64 {
        self.out_max[i * self.k + j] - self.out_min[i * self.k + j]
    }

    /// Incoming error at `(i, j)`.
    #[inline]
    pub fn in_error(&self, i: usize, j: usize) -> f64 {
        self.in_max[i * self.k + j] - self.in_min[i * self.k + j]
    }

    /// Outgoing *relative* error at `(i, j)`: the smallest `ε` such that all
    /// outgoing weights of `P_i` into `P_j` are pairwise `∼_ε`-similar
    /// (`ln(max/min)` for positive weights, `0` when all weights are equal,
    /// `+∞` when the weights mix zero/non-zero values or signs).
    pub fn out_relative_error(&self, i: usize, j: usize) -> f64 {
        relative_spread(self.out_min[i * self.k + j], self.out_max[i * self.k + j])
    }

    /// Incoming relative error at `(i, j)` (see [`Self::out_relative_error`]).
    pub fn in_relative_error(&self, i: usize, j: usize) -> f64 {
        relative_spread(self.in_min[i * self.k + j], self.in_max[i * self.k + j])
    }

    /// Maximum relative error over all pairs and both directions.
    pub fn max_relative_error(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.k {
            for j in 0..self.k {
                max = max
                    .max(self.out_relative_error(i, j))
                    .max(self.in_relative_error(i, j));
            }
        }
        max
    }

    /// Total weight `w(P_i, P_j)`.
    #[inline]
    pub fn pair_weight(&self, i: usize, j: usize) -> f64 {
        self.sum[i * self.k + j]
    }

    /// Maximum error over all pairs and both directions.
    pub fn max_error(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.k {
            for j in 0..self.k {
                max = max.max(self.out_error(i, j)).max(self.in_error(i, j));
            }
        }
        max
    }

    /// Mean error over pairs that have at least one edge (both directions).
    pub fn mean_error(&self) -> f64 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for i in 0..self.k {
            for j in 0..self.k {
                if self.nonzero[i * self.k + j] > 0 {
                    total += self.out_error(i, j);
                    total += self.in_error(i, j);
                    count += 2;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// The smallest `ε` such that every value in `[min, max]`-spread data is
/// pairwise `∼_ε`-similar (Sec. 3.1, ε-relative coloring).
fn relative_spread(min: f64, max: f64) -> f64 {
    if min == max {
        return 0.0;
    }
    if min <= 0.0 && max >= 0.0 && (min != 0.0 || max != 0.0) {
        // A zero together with a non-zero value (or mixed signs) can never
        // be ε-similar.
        if min == 0.0 && max == 0.0 {
            return 0.0;
        }
        return f64::INFINITY;
    }
    let (lo, hi) = (min.abs().min(max.abs()), min.abs().max(max.abs()));
    if lo == 0.0 {
        return f64::INFINITY;
    }
    (hi / lo).ln()
}

/// Maximum ε-relative error of a coloring: the smallest `ε` such that `p` is
/// an ε-relative quasi-stable coloring of `g` (possibly `+∞`).
pub fn max_relative_error(g: &Graph, p: &Partition) -> f64 {
    DegreeMatrices::compute(g, p).max_relative_error()
}

/// A compact report of the quality of a coloring.
#[derive(Clone, Debug, PartialEq)]
pub struct QErrorReport {
    /// Maximum q-error over all color pairs and both directions.
    pub max_q: f64,
    /// Mean q-error over color pairs with at least one edge.
    pub mean_q: f64,
    /// Number of colors.
    pub num_colors: usize,
    /// The pair of colors and direction attaining the maximum error.
    pub worst_pair: Option<(u32, u32, Direction)>,
}

/// Compute a [`QErrorReport`] for a coloring.
pub fn q_error_report(g: &Graph, p: &Partition) -> QErrorReport {
    let m = DegreeMatrices::compute(g, p);
    let mut max_q = 0.0f64;
    let mut worst = None;
    for i in 0..m.k {
        for j in 0..m.k {
            let eo = m.out_error(i, j);
            if eo > max_q {
                max_q = eo;
                worst = Some((i as u32, j as u32, Direction::Out));
            }
            let ei = m.in_error(i, j);
            if ei > max_q {
                max_q = ei;
                worst = Some((i as u32, j as u32, Direction::In));
            }
        }
    }
    QErrorReport {
        max_q,
        mean_q: m.mean_error(),
        num_colors: m.k,
        worst_pair: worst,
    }
}

/// Maximum q-error of the coloring: the smallest `q` for which `p` is a
/// `q`-stable coloring of `g`.
pub fn max_q_error(g: &Graph, p: &Partition) -> f64 {
    DegreeMatrices::compute(g, p).max_error()
}

/// Mean q-error of the coloring over color pairs with at least one edge.
pub fn mean_q_error(g: &Graph, p: &Partition) -> f64 {
    DegreeMatrices::compute(g, p).mean_error()
}

/// Exhaustively check Definition 1: is `p` a `∼`-quasi-stable coloring of
/// `g`? This performs pairwise similarity checks within every color (cost
/// `O(Σ_i |P_i|² · k)` in the worst case); it is intended for validation and
/// tests, not production use. For the absolute (`q`) relation prefer
/// [`max_q_error`].
pub fn is_quasi_stable<S: Similarity>(g: &Graph, p: &Partition, sim: &S) -> bool {
    let k = p.num_colors();
    let n = g.num_nodes();
    // Per node, accumulate weight to each color (out) and from each color
    // (in), then check pairwise within each color.
    for j in 0..k as u32 {
        // Outgoing weights into color j, grouped by source color.
        let mut per_node = vec![0.0f64; n];
        for &t in p.members(j) {
            for (s, w) in g.in_edges(t) {
                per_node[s as usize] += w;
            }
        }
        for i in 0..k as u32 {
            let members = p.members(i);
            for a in 0..members.len() {
                for b in (a + 1)..members.len() {
                    let u = per_node[members[a] as usize];
                    let v = per_node[members[b] as usize];
                    if !sim.similar(u, v) {
                        return false;
                    }
                }
            }
        }
        // Incoming weights from color j, grouped by target color.
        let mut per_node_in = vec![0.0f64; n];
        for &s in p.members(j) {
            for (t, w) in g.out_edges(s) {
                per_node_in[t as usize] += w;
            }
        }
        for i in 0..k as u32 {
            let members = p.members(i);
            for a in 0..members.len() {
                for b in (a + 1)..members.len() {
                    let u = per_node_in[members[a] as usize];
                    let v = per_node_in[members[b] as usize];
                    if !sim.similar(u, v) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// A witness candidate produced by [`IncrementalDegrees::pick_witness`]: the
/// color pair and direction with the largest size-weighted error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WitnessCandidate {
    /// The color whose members disagree (the one to split).
    pub split_color: u32,
    /// The color the disagreeing degrees point towards / come from.
    pub other_color: u32,
    /// `true`: members of `split_color` differ in outgoing weight into
    /// `other_color`; `false`: they differ in incoming weight from it.
    pub outgoing: bool,
    /// The unweighted q-error of the pair.
    pub error: f64,
}

/// A coarsening candidate produced by [`IncrementalDegrees::pick_merge`]:
/// the color pair whose merge has the smallest provable post-merge q-error
/// bound (the dual of the split-witness rule).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeCandidate {
    /// The surviving color (always the smaller id).
    pub winner: u32,
    /// The color to merge away.
    pub loser: u32,
    /// Upper bound on the maximum q-error of the partition after the merge
    /// (exact on the merged member-axis rows, a sum-of-spreads bound on the
    /// folded columns).
    pub bound: f64,
}

/// Read-only min/max access shared by the incremental and from-scratch
/// merge-bound computations, so both evaluate the identical operation
/// sequence (the engine/scratch pick-equivalence contract, as with witness
/// selection).
trait PairMinMax {
    /// `(min, max)` of out-entry `(i, j)`.
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64);
    /// `(min, max)` of in-entry `(i, j)`.
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64);
}

/// Upper bound on the maximum q-error after merging colors `a` and `b`
/// (`a < b`), from the pair summaries alone:
///
/// * merged member-axis rows are exact (`min`/`max` over the union of two
///   member sets is the `min`/`max` of the per-set extrema);
/// * folded columns (`dout[v][a] + dout[v][b]`) use the sum-of-spreads
///   bound `spread(x + y) <= spread(x) + spread(y)`;
/// * the merged self entry combines both rules.
///
/// Returns `f64::INFINITY` as soon as the running bound exceeds `cap`
/// (the early exit never changes which pairs pass a `<= cap` test or the
/// bound reported for passing pairs, so selections stay deterministic) —
/// this is what keeps the coarsening scans cheap: for most pairs the very
/// first columns already blow the budget.
fn merge_bound<V: PairMinMax>(view: &V, k: usize, a: usize, b: usize, cap: f64) -> f64 {
    let mut bound = 0.0f64;
    // Merged self entry (ab, ab), out: `dout[v][a] + dout[v][b]` over the
    // union — per-column union extrema, then the interval sum.
    let (aam, aax) = view.out_mm(a, a);
    let (bam, bax) = view.out_mm(b, a);
    let (abm, abx) = view.out_mm(a, b);
    let (bbm, bbx) = view.out_mm(b, b);
    bound = bound.max((aax.max(bax) + abx.max(bbx)) - (aam.min(bam) + abm.min(bbm)));
    // And the in-direction self entry.
    let (iaam, iaax) = view.in_mm(a, a);
    let (iabm, iabx) = view.in_mm(a, b);
    let (ibam, ibax) = view.in_mm(b, a);
    let (ibbm, ibbx) = view.in_mm(b, b);
    bound = bound.max((iaax.max(iabx) + ibax.max(ibbx)) - (iaam.min(iabm) + ibam.min(ibbm)));
    if bound > cap {
        return f64::INFINITY;
    }
    // Column sweep in blocks of `LANES`: the early exit coarsens to block
    // granularity, which never changes the result (the max-fold only
    // grows, and INFINITY is returned iff the final bound exceeds `cap`),
    // and the branch-free block body lets the per-column loads pipeline
    // and vectorize. The `j ∈ {a, b}` columns are masked to `0.0` instead
    // of skipped — every unmasked contribution is nonnegative (spreads and
    // sums of spreads of nonempty member sets), so `0.0` is the identity
    // under the max-fold.
    let mut j0 = 0;
    while j0 < k {
        let hi = (j0 + kernels::LANES).min(k);
        let mut block_max = 0.0f64;
        for j in j0..hi {
            // Merged row (ab, j): union member axis — exact.
            let (amn, amx) = view.out_mm(a, j);
            let (bmn, bmx) = view.out_mm(b, j);
            let mut c = amx.max(bmx) - amn.min(bmn);
            // Folded column (j, ab): per-member sums — sum of spreads.
            let (jam, jax) = view.out_mm(j, a);
            let (jbm, jbx) = view.out_mm(j, b);
            c = c.max((jax - jam) + (jbx - jbm));
            // In-direction: (j, ab) ranges over the union member axis — exact.
            let (iam, iax) = view.in_mm(j, a);
            let (ibm, ibx) = view.in_mm(j, b);
            c = c.max(iax.max(ibx) - iam.min(ibm));
            // In-direction folded source (ab, j): sums over P_j's members.
            let (ajm, ajx) = view.in_mm(a, j);
            let (bjm, bjx) = view.in_mm(b, j);
            c = c.max((ajx - ajm) + (bjx - bjm));
            let masked = if j == a || j == b { 0.0 } else { c };
            block_max = if masked > block_max {
                masked
            } else {
                block_max
            };
        }
        bound = bound.max(block_max);
        if bound > cap {
            return f64::INFINITY;
        }
        j0 = hi;
    }
    bound
}

/// Scan all color pairs for the merge with the smallest post-merge bound
/// that stays at or below `max_bound`. Ascending `(a, b)` iteration with a
/// strict improvement test keeps the lexicographically smallest pair on
/// ties — the deterministic dual of the witness tie-break. The running
/// best tightens the per-pair evaluation cap (branch-and-bound; ties at
/// the cap still evaluate fully, so the selection equals the exhaustive
/// scan's).
fn pick_merge_view<V: PairMinMax>(view: &V, k: usize, max_bound: f64) -> Option<MergeCandidate> {
    let mut best: Option<MergeCandidate> = None;
    for a in 0..k {
        for b in (a + 1)..k {
            let cap = best.as_ref().map_or(max_bound, |c| c.bound.min(max_bound));
            let bound = merge_bound(view, k, a, b, cap);
            if bound <= max_bound && best.as_ref().is_none_or(|c| bound < c.bound) {
                best = Some(MergeCandidate {
                    winner: a as u32,
                    loser: b as u32,
                    bound,
                });
            }
        }
    }
    best
}

/// Per-row best witness candidate cached by the engine (weighted by the
/// target-size exponent β only; the source-size exponent α is applied at
/// pick time because the row's own size can change without invalidating the
/// row's internal ordering).
#[derive(Clone, Copy, Debug)]
struct RowBest {
    weighted: f64,
    other: u32,
    outgoing: bool,
    error: f64,
}

/// The running patch of one pair-summary entry whose member values a batch
/// changes: its extrema at batch start (for detecting a lost extremum), the
/// rescans its changes call for, and its net zero-crossing count. Filled by
/// [`Summaries::patch`], closed by [`Summaries::settle`]; shared by the
/// split/merge color batches and the edge-batch entry records.
#[derive(Clone, Copy, Debug)]
struct EntryPatch {
    orig_min: f64,
    orig_max: f64,
    /// Whether the entry's tracked min/max attainer moved inward (or an
    /// attainer is unknown and a touched node left the batch-start
    /// extremum). Settling downgrades a flagged side to "no rescan" when
    /// the zero-count rule proves the extremum stands.
    rescan_min: bool,
    rescan_max: bool,
    /// Net change to the entry's nonzero-member count (values crossing
    /// zero).
    nz_delta: i64,
}

impl EntryPatch {
    fn fresh(orig_min: f64, orig_max: f64) -> Self {
        EntryPatch {
            orig_min,
            orig_max,
            rescan_min: false,
            rescan_max: false,
            nz_delta: 0,
        }
    }
}

/// Per-color scratch record used while applying one side of a split or
/// merge (one per color that contains a touched node): the patch of the
/// color's entry against the batch column, plus the touched members'
/// values in a split's child column.
#[derive(Clone, Copy, Debug)]
struct TouchedColor {
    color: u32,
    patch: EntryPatch,
    /// Distinct touched members of this color.
    count: usize,
    /// Touched members with a non-zero child-column value.
    child_nonzero: u32,
    /// Min/max of the touched members' accumulator values in the child
    /// column, with their attainers.
    child_min: f64,
    child_max: f64,
    child_min_arg: u32,
    child_max_arg: u32,
}

impl TouchedColor {
    fn fresh(color: u32, orig_min: f64, orig_max: f64) -> Self {
        TouchedColor {
            color,
            patch: EntryPatch::fresh(orig_min, orig_max),
            count: 0,
            child_nonzero: 0,
            child_min: f64::INFINITY,
            child_max: f64::NEG_INFINITY,
            child_min_arg: NO_ARG,
            child_max_arg: NO_ARG,
        }
    }
}

/// The per-color records of one side of a split or merge. Every record
/// patches entry `(color, other)`, where `other` is the split's parent or
/// the merge's winner.
#[derive(Clone, Debug, Default)]
struct ColorBatch {
    other: usize,
    /// Color → index into `records`. Lookups self-validate (a stored index
    /// is live only if the record there names the same color), so clearing
    /// `records` is all the reset a new batch needs.
    slot: Vec<u32>,
    records: Vec<TouchedColor>,
}

impl ColorBatch {
    fn begin(&mut self, other: usize) {
        self.other = other;
        self.records.clear();
    }

    /// Fold touched member `u` of `color` — its accumulator moved from
    /// `old` to `new` in the batch column and reads `child_val` in a
    /// split's child column — into the color's record and its entry.
    fn record(
        &mut self,
        sums: &mut Summaries,
        color: u32,
        u: NodeId,
        old: f64,
        new: f64,
        child_val: f64,
    ) {
        let idx = sums.idx(color as usize, self.other);
        let slot = self.slot[color as usize] as usize;
        let slot = if slot < self.records.len() && self.records[slot].color == color {
            slot
        } else {
            let fresh = self.records.len();
            self.slot[color as usize] = fresh as u32;
            self.records
                .push(TouchedColor::fresh(color, sums.min[idx], sums.max[idx]));
            fresh
        };
        let rec = &mut self.records[slot];
        rec.count += 1;
        if child_val != 0.0 {
            rec.child_nonzero += 1;
        }
        if child_val < rec.child_min {
            rec.child_min = child_val;
            rec.child_min_arg = u;
        }
        if child_val > rec.child_max {
            rec.child_max = child_val;
            rec.child_max_arg = u;
        }
        sums.patch(idx, &mut rec.patch, u, old, new);
    }
}

/// Per-entry scratch record of an edge batch: one per pair-summary entry
/// whose member values changed — the edge-path analogue of
/// [`TouchedColor`].
#[derive(Clone, Copy, Debug)]
struct EdgeEntryPatch {
    member: u32,
    other: u32,
    patch: EntryPatch,
}

/// Per-column aggregates of one member fold: min/max with their first
/// attainers and the nonzero count, `cap` slots each — the reusable output
/// of [`Accum::fold_members`] and [`Accum::scan_columns`].
#[derive(Clone, Debug, Default)]
struct FoldScratch {
    min: Vec<f64>,
    max: Vec<f64>,
    min_arg: Vec<u32>,
    max_arg: Vec<u32>,
    nz: Vec<u32>,
}

impl FoldScratch {
    fn resize(&mut self, len: usize) {
        self.min.resize(len, 0.0);
        self.max.resize(len, 0.0);
        self.min_arg.resize(len, NO_ARG);
        self.max_arg.resize(len, NO_ARG);
        self.nz.resize(len, 0);
    }

    fn heap_bytes(&self) -> usize {
        (self.min.capacity() + self.max.capacity()) * 8
            + (self.min_arg.capacity() + self.max_arg.capacity() + self.nz.capacity()) * 4
    }
}

/// Reads a node's arcs in one direction: [`Graph::out_arcs`] or
/// [`Graph::in_arcs`].
type Arcs = for<'g> fn(&'g Graph, NodeId) -> (&'g [NodeId], &'g [f64]);

/// How far ahead the hot loops prefetch the rows they will touch. The
/// distance covers the latency of one row's patch work; hints never change
/// results.
const PREFETCH_AHEAD: usize = 16;

/// One side's accumulator (invariant 1): per node, its weight towards
/// (out side) or from (in side) each color. The storage tier is resolved
/// once at construction; every operation performs the same arithmetic in
/// both tiers, so all maintained values are bit-identical between them.
/// Loops over many nodes match the tier once, outside the loop.
#[derive(Clone, Debug)]
enum Accum {
    /// Dense rows: `vals[v * stride + j]`, where `stride` is the engine's
    /// color capacity.
    Dense { vals: Vec<f64>, stride: usize },
    /// Tiered rows ([`RowRep`]): sorted nonzero `(color, weight)` pairs,
    /// promoted to a dense slot array once hot.
    Rows(Vec<RowRep>),
}

impl Accum {
    fn is_rows(&self) -> bool {
        matches!(self, Accum::Rows(_))
    }

    #[inline]
    fn get(&self, v: NodeId, col: u32) -> f64 {
        match self {
            Accum::Dense { vals, stride } => vals[v as usize * stride + col as usize],
            Accum::Rows(rows) => rows[v as usize].get(col),
        }
    }

    /// Add `delta` to `v`'s value in column `col`, returning `(old, new)`.
    /// `promote_k` is the tiered rows' promotion hint (see
    /// [`RowRep::add`]).
    #[inline]
    fn add(&mut self, v: NodeId, col: u32, delta: f64, promote_k: usize) -> (f64, f64) {
        match self {
            Accum::Dense { vals, stride } => {
                let slot = &mut vals[v as usize * *stride + col as usize];
                let old = *slot;
                let new = old + delta;
                *slot = new;
                (old, new)
            }
            Accum::Rows(rows) => rows[v as usize].add(col, delta, promote_k),
        }
    }

    /// The split shift: move `deltas[i]` of `touched[i]`'s weight from
    /// column `from` to the fresh column `to`, handing `f` the position,
    /// the node, its `from` value before and after, and its `to` value.
    /// The touched rows land all over a multi-megabyte accumulator in an
    /// order the hardware prefetcher cannot predict, so the loop prefetches
    /// its own future rows.
    fn split_shift_each(
        &mut self,
        touched: &[NodeId],
        deltas: &[f64],
        (from, to): (u32, u32),
        promote_k: usize,
        mut f: impl FnMut(usize, NodeId, f64, f64, f64),
    ) {
        match self {
            Accum::Dense { vals, stride } => {
                let (from, to) = (from as usize, to as usize);
                for (pos, (&u, &d)) in touched.iter().zip(deltas).enumerate() {
                    if let Some(&w) = touched.get(pos + PREFETCH_AHEAD) {
                        let wbase = w as usize * *stride;
                        kernels::prefetch_read(vals, wbase + from);
                        kernels::prefetch_read(vals, wbase + to);
                    }
                    let base = u as usize * *stride;
                    let old = vals[base + from];
                    let new = old - d;
                    vals[base + from] = new;
                    vals[base + to] += d;
                    f(pos, u, old, new, vals[base + to]);
                }
            }
            Accum::Rows(rows) => {
                for (pos, (&u, &d)) in touched.iter().zip(deltas).enumerate() {
                    // Same two-stage pipeline as the sparse gather kernels:
                    // the row struct well ahead, its heap payload closer in.
                    if let Some(&w) = touched.get(pos + PREFETCH_AHEAD) {
                        kernels::prefetch_read(rows.as_slice(), w as usize);
                    }
                    if let Some(&w) = touched.get(pos + PREFETCH_AHEAD / 2) {
                        kernels::prefetch_row_payload(&rows[w as usize], from);
                    }
                    let (old, new, to_val) = rows[u as usize].split_shift(from, to, d, promote_k);
                    f(pos, u, old, new, to_val);
                }
            }
        }
    }

    /// The merge fold: move each touched node's weight in column `from`
    /// into column `to`, recording `(node, old, new)` of the `to` column in
    /// `capture` for the nodes that held any.
    fn fold_column(
        &mut self,
        touched: &[NodeId],
        (from, to): (u32, u32),
        promote_k: usize,
        capture: &mut Vec<(NodeId, f64, f64)>,
    ) {
        capture.clear();
        match self {
            Accum::Dense { vals, stride } => {
                let (from, to) = (from as usize, to as usize);
                for &u in touched {
                    let base = u as usize * *stride;
                    let lost = vals[base + from];
                    if lost == 0.0 {
                        continue;
                    }
                    let old = vals[base + to];
                    let new = old + lost;
                    vals[base + to] = new;
                    vals[base + from] = 0.0;
                    capture.push((u, old, new));
                }
            }
            Accum::Rows(rows) => {
                for &u in touched {
                    let row = &mut rows[u as usize];
                    let lost = row.get(from);
                    if lost == 0.0 {
                        continue;
                    }
                    row.add(from, -lost, promote_k);
                    let (old, new) = row.add(to, lost, promote_k);
                    capture.push((u, old, new));
                }
            }
        }
    }

    /// The relabel: move each touched node's column `from` to column `to`,
    /// which the caller guarantees holds no weight.
    fn relabel_column(&mut self, touched: &[NodeId], from: u32, to: u32) {
        match self {
            Accum::Dense { vals, stride } => {
                for &u in touched {
                    let base = u as usize * *stride;
                    vals[base + to as usize] = vals[base + from as usize];
                    vals[base + from as usize] = 0.0;
                }
            }
            Accum::Rows(rows) => {
                for &u in touched {
                    rows[u as usize].relabel(from, to);
                }
            }
        }
    }

    /// Min/max (first attainers in member order) and nonzero count of
    /// column `col` over `members` — the one-entry rescan. Both tiers fold
    /// every member in order with the same strict compares (an absent
    /// tiered entry reads the same `+0.0` a dense row stores), so values
    /// *and* attainers agree between them.
    fn scan_column(&self, members: &[NodeId], col: u32) -> (f64, f64, u32, u32, u32) {
        match self {
            Accum::Dense { vals, stride } => {
                kernels::scan_gather_column(members, vals, *stride, col as usize)
            }
            Accum::Rows(rows) => kernels::scan_gather_column_sparse(members, rows, col),
        }
    }

    /// [`Self::scan_column`] for several columns in one member pass: slot
    /// `s` of `out` receives column `cols[s]`. Each accumulator row is
    /// loaded once for every queued column; per column this is the same
    /// member-order fold, bit for bit.
    fn scan_columns(&self, members: &[NodeId], cols: &[u32], out: &mut FoldScratch) {
        let FoldScratch {
            min,
            max,
            min_arg,
            max_arg,
            nz,
        } = out;
        match self {
            Accum::Dense { vals, stride } => kernels::scan_gather_columns(
                members, vals, *stride, cols, min, max, min_arg, max_arg, nz,
            ),
            Accum::Rows(rows) => kernels::scan_gather_columns_sparse(
                members, rows, cols, min, max, min_arg, max_arg, nz,
            ),
        }
    }

    /// Fold the rows of `members` over the columns `0..k` into `out`: one
    /// member loop through the vectorized row kernel, exactly the scalar
    /// member-order scan, bit for bit (see `kernels::fold_minmax_row`).
    /// Tiered rows fold only their stored (nonzero) entries and account for
    /// the implicit zeros afterwards with one `fold_zero_tail` pass: any
    /// column some member misses folds a 0.0 with the `NO_ARG` witness. The
    /// min/max *values* equal the dense fold's exactly; only zero-extremum
    /// attainers differ (NO_ARG instead of the first zero-valued member),
    /// which is unobservable — attainers gate rescans, never values, and
    /// NO_ARG forces the conservative rescan.
    fn fold_members(&self, members: &[NodeId], k: usize, out: &mut FoldScratch) {
        let FoldScratch {
            min,
            max,
            min_arg,
            max_arg,
            nz,
        } = out;
        min[..k].fill(f64::INFINITY);
        max[..k].fill(f64::NEG_INFINITY);
        min_arg[..k].fill(NO_ARG);
        max_arg[..k].fill(NO_ARG);
        nz[..k].fill(0);
        match self {
            Accum::Dense { vals, stride } => {
                for &u in members {
                    let row = &vals[u as usize * *stride..][..k];
                    kernels::fold_minmax_row(u, row, min, max, min_arg, max_arg, nz);
                }
            }
            Accum::Rows(rows) => {
                for &u in members {
                    let row = &rows[u as usize];
                    kernels::fold_minmax_sparse_row(u, row, k, min, max, min_arg, max_arg, nz);
                }
                let count = members.len() as u32;
                kernels::fold_zero_tail(count, k, min, max, min_arg, max_arg, nz);
            }
        }
    }

    /// `v`'s dense row over the live `k` columns; tiered rows have none.
    fn dense_row(&self, v: NodeId, k: usize) -> &[f64] {
        match self {
            Accum::Dense { vals, stride } => &vals[v as usize * stride..][..k],
            Accum::Rows(_) => {
                panic!("sparse-storage engines keep tiered rows; use out_degree_of / in_degree_of")
            }
        }
    }

    /// Grow dense rows to `new_cap` columns (see [`regrow`]). Tiered rows
    /// key entries by color and never depend on the capacity.
    fn regrow(&mut self, n: usize, new_cap: usize) {
        if let Accum::Dense { vals, stride } = self {
            regrow(vals, n, n, *stride, new_cap, 0.0);
            *stride = new_cap;
        }
    }

    /// Append all-zero rows for fresh nodes up to `n`.
    fn grow_nodes(&mut self, n: usize) {
        match self {
            Accum::Dense { vals, stride } => vals.resize(n * *stride, 0.0),
            Accum::Rows(rows) => rows.resize(n, RowRep::new()),
        }
    }

    /// The columns in which a removed node's row still holds weight.
    /// Removed nodes are isolated, so their rows are zero up to the
    /// rounding residue per-edge deletions leave on inexact weights
    /// (`(a + b) - a - b`); anything larger means a node that still had
    /// edges was removed.
    fn removed_residue(&self, remap: &NodeRemap, k: usize) -> Vec<bool> {
        let mut residue = vec![false; k];
        for v in remap.removed_old_ids() {
            for (j, r) in residue.iter_mut().enumerate() {
                let w = self.get(v, j as u32);
                debug_assert!(
                    w.abs() <= 1e-9 * (1.0 + w.abs()),
                    "removed node {v} still has weight {w} in column {j}"
                );
                *r |= w != 0.0;
            }
        }
        residue
    }

    /// Drop the removed nodes' rows; survivors keep their order.
    fn compact(&mut self, remap: &NodeRemap) {
        match self {
            Accum::Dense { vals, stride } => compact_rows(vals, remap.old_len(), *stride, remap),
            Accum::Rows(rows) => compact_sparse_rows(rows, remap),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Accum::Dense { vals, .. } => vals.capacity() * 8,
            Accum::Rows(rows) => {
                rows.capacity() * std::mem::size_of::<RowRep>()
                    + rows.iter().map(RowRep::heap_bytes).sum::<usize>()
            }
        }
    }

    /// The snapshot columns: a tight `n × k` plane for dense rows, the
    /// columnar row form for tiered ones (the other one empty).
    fn snapshot(&self, n: usize, k: usize) -> (ColumnBuf<f64>, RowsSnapshot) {
        match self {
            Accum::Dense { vals, stride } => {
                (tight(vals, n, k, *stride).into(), RowsSnapshot::default())
            }
            Accum::Rows(rows) => (Vec::new().into(), rows_snapshot(rows)),
        }
    }
}

/// One side's pair summaries (invariants 2 and 4): five `cap × cap` planes
/// in the `i * cap + j` layout of [`DegreeMatrices`], addressed by
/// `(member, other)` color through [`Self::idx`]. `member` is the color
/// whose members the entry ranges over: out-entry `(i, j)` has member `i`
/// (member-major strides `(cap, 1)`), in-entry `(i, j)` has member `j`
/// (other-major strides `(1, cap)`). Empty in degrees-only engines.
#[derive(Clone, Debug, Default)]
struct Summaries {
    /// Min/max over the member color's members of their accumulator value
    /// in the other color's column.
    min: Vec<f64>,
    max: Vec<f64>,
    /// Extremum witnesses: a member attaining `min`/`max`, or [`NO_ARG`]
    /// when unknown. Patches consult these to decide whether an entry
    /// actually lost its extremum — an exact `O(1)` test that replaces the
    /// tie-prone "value equals extremum" heuristic and its rescan storm on
    /// integer-weighted graphs. Witness choice never affects entry
    /// *values* (a rescan recomputes the same exact min/max a skipped
    /// rescan preserves), so results stay bit-identical.
    min_arg: Vec<u32>,
    max_arg: Vec<u32>,
    /// Nonzero-member counts. A `min == 0.0` entry whose count stays below
    /// the color size provably keeps its minimum when members depart — the
    /// dominant skip rule on sparse graphs, where almost every pair summary
    /// has zero-valued members.
    nz: Vec<u32>,
    member_stride: usize,
    other_stride: usize,
    /// Entries `(member, other)` queued for a member rescan (reused across
    /// events).
    rescans: Vec<(u32, u32)>,
}

impl Summaries {
    fn new(mat_cap: usize, (member_stride, other_stride): (usize, usize)) -> Self {
        let cells = mat_cap * mat_cap;
        Summaries {
            min: vec![0.0; cells],
            max: vec![0.0; cells],
            min_arg: vec![NO_ARG; cells],
            max_arg: vec![NO_ARG; cells],
            nz: vec![0; cells],
            member_stride,
            other_stride,
            rescans: Vec::new(),
        }
    }

    #[inline]
    fn idx(&self, member: usize, other: usize) -> usize {
        member * self.member_stride + other * self.other_stride
    }

    #[inline]
    fn mm(&self, member: usize, other: usize) -> (f64, f64) {
        let idx = self.idx(member, other);
        (self.min[idx], self.max[idx])
    }

    #[inline]
    fn error(&self, member: usize, other: usize) -> f64 {
        let idx = self.idx(member, other);
        self.max[idx] - self.min[idx]
    }

    /// Overwrite entry `idx` with a scan result `(min, max, min_arg,
    /// max_arg, nz)`.
    #[inline]
    fn set(&mut self, idx: usize, (mn, mx, amn, amx, nz): (f64, f64, u32, u32, u32)) {
        self.min[idx] = mn;
        self.max[idx] = mx;
        self.min_arg[idx] = amn;
        self.max_arg[idx] = amx;
        self.nz[idx] = nz;
    }

    /// Overwrite entry `idx` with slot `s` of a fold.
    fn store(&mut self, idx: usize, fold: &FoldScratch, s: usize) {
        let (mn, mx) = (fold.min[s], fold.max[s]);
        self.set(idx, (mn, mx, fold.min_arg[s], fold.max_arg[s], fold.nz[s]));
    }

    /// Reset every entry with `c` on either axis to "no edges".
    fn reset_color(&mut self, c: usize, k: usize) {
        for i in 0..k {
            for idx in [self.idx(i, c), self.idx(c, i)] {
                self.set(idx, (0.0, 0.0, NO_ARG, NO_ARG, 0));
            }
        }
    }

    /// Fold member `u`'s value change `old → new` into entry `idx`, whose
    /// batch record is `rec`: flag the extremum the move may have lost,
    /// count a zero crossing, and extend the entry outward inline with `u`
    /// as the attainer. The entry loses its extremum only when its
    /// *tracked attainer* moves strictly inward (an exact test — ties at
    /// the extremum force no rescan); an unknown attainer falls back to
    /// the conservative batch-start-extremum heuristic.
    #[inline]
    fn patch(&mut self, idx: usize, rec: &mut EntryPatch, u: NodeId, old: f64, new: f64) {
        if new < old {
            let arg = self.max_arg[idx];
            if old == rec.orig_max && (arg == NO_ARG || arg == u) {
                rec.rescan_max = true;
            }
        } else if new > old {
            let arg = self.min_arg[idx];
            if old == rec.orig_min && (arg == NO_ARG || arg == u) {
                rec.rescan_min = true;
            }
        }
        if (old == 0.0) != (new == 0.0) {
            rec.nz_delta += if new != 0.0 { 1 } else { -1 };
        }
        if new < self.min[idx] {
            self.min[idx] = new;
            self.min_arg[idx] = u;
        }
        if new > self.max[idx] {
            self.max[idx] = new;
            self.max_arg[idx] = u;
        }
    }

    /// Close one patched entry of a member color of `size` members: apply
    /// its net zero-crossing count, then queue a rescan if a flagged
    /// extremum may really be lost. A zero extremum provably stands while
    /// the entry keeps a zero-valued member; such a flagged side keeps its
    /// value but no longer knows a specific attainer.
    fn settle(&mut self, member: usize, other: usize, size: usize, patch: &EntryPatch) {
        let idx = self.idx(member, other);
        let nz = (self.nz[idx] as i64 + patch.nz_delta) as u32;
        self.nz[idx] = nz;
        let zero_member = (nz as usize) < size;
        let need = (patch.rescan_min && !(self.min[idx] == 0.0 && zero_member))
            || (patch.rescan_max && !(self.max[idx] == 0.0 && zero_member));
        if need {
            self.rescans.push((member as u32, other as u32));
        } else {
            if patch.rescan_min {
                self.min_arg[idx] = NO_ARG;
            }
            if patch.rescan_max {
                self.max_arg[idx] = NO_ARG;
            }
        }
    }

    /// Move color `from = k - 1`'s row and column into the freed slot `to`
    /// in every plane (the merge relabel). Values are copied, never
    /// recomputed, so the relabel is exact.
    fn relabel(&mut self, cap: usize, k: usize, from: usize, to: usize) {
        relabel_plane(&mut self.min, cap, k, from, to);
        relabel_plane(&mut self.max, cap, k, from, to);
        relabel_plane(&mut self.min_arg, cap, k, from, to);
        relabel_plane(&mut self.max_arg, cap, k, from, to);
        relabel_plane(&mut self.nz, cap, k, from, to);
    }

    /// Regrow every plane to `new_cap × new_cap` (see [`regrow`]).
    fn regrow(&mut self, old_cap: usize, new_cap: usize) {
        regrow(&mut self.min, old_cap, new_cap, old_cap, new_cap, 0.0);
        regrow(&mut self.max, old_cap, new_cap, old_cap, new_cap, 0.0);
        regrow(
            &mut self.min_arg,
            old_cap,
            new_cap,
            old_cap,
            new_cap,
            NO_ARG,
        );
        regrow(
            &mut self.max_arg,
            old_cap,
            new_cap,
            old_cap,
            new_cap,
            NO_ARG,
        );
        regrow(&mut self.nz, old_cap, new_cap, old_cap, new_cap, 0);
        // The unit stride stays; the capacity stride grows.
        let restride = |s: usize| if s == 1 { 1 } else { new_cap };
        self.member_stride = restride(self.member_stride);
        self.other_stride = restride(self.other_stride);
    }

    fn heap_bytes(&self) -> usize {
        (self.min.capacity() + self.max.capacity()) * 8
            + (self.min_arg.capacity() + self.max_arg.capacity() + self.nz.capacity()) * 4
    }
}

/// One direction of the engine: the accumulator, the pair summaries and the
/// per-event scratch of either the out direction (`w(v, P_j)`, entries
/// `(member, other) = (i, j)`) or the in direction (`w(P_j, v)`, entries
/// `(member, other) = (j, i)`). Every maintenance step is written once over
/// a `Side` and runs once per stored side.
#[derive(Clone, Debug)]
struct Side {
    acc: Accum,
    sums: Summaries,
    /// The reverse of the arcs a node's row sums: moving a node between
    /// colors changes the rows of its neighbors along these
    /// ([`Graph::in_arcs`] on the out side — the sources of edges into
    /// it).
    touch_arcs: Arcs,
    /// Edge-batch scratch: patched-entry records and their entry-index →
    /// record-slot map, plus the per-(node, column) combined deltas and
    /// their slot map (capacity reused across batches).
    edge_patches: Vec<EdgeEntryPatch>,
    edge_slot: HashMap<usize, usize>,
    edge_acc: Vec<(NodeId, u32, f64)>,
    edge_acc_slot: HashMap<(NodeId, u32), usize>,
    /// Merge-fold captures: `(node, old, new)` winner-column values of the
    /// touched nodes, recorded before the relabel so entry patches can run
    /// in the post-relabel id space.
    merge_capture: Vec<(NodeId, f64, f64)>,
}

/// The sides an engine stores, as `(own arcs, touch arcs, summary strides)`:
/// the out side, and on directed graphs the in side.
fn side_layouts(directed: bool, cap: usize) -> Vec<(Arcs, Arcs, (usize, usize))> {
    let mut layouts: Vec<(Arcs, Arcs, (usize, usize))> =
        vec![(Graph::out_arcs, Graph::in_arcs, (cap, 1))];
    if directed {
        layouts.push((Graph::in_arcs, Graph::out_arcs, (1, cap)));
    }
    layouts
}

impl Side {
    fn new(acc: Accum, sums: Summaries, touch_arcs: Arcs) -> Self {
        Side {
            acc,
            sums,
            touch_arcs,
            edge_patches: Vec::new(),
            edge_slot: HashMap::new(),
            edge_acc: Vec::new(),
            edge_acc_slot: HashMap::new(),
            merge_capture: Vec::new(),
        }
    }

    /// Recompute every queued entry from its member color's members
    /// (values, first attainers in member order, nonzero counts), then
    /// clear the queue. Entries sharing one member axis — the parent-axis
    /// repair always does — fold in a single member pass.
    fn flush_rescans(&mut self, p: &Partition, fold: &mut FoldScratch) {
        let mut entries = std::mem::take(&mut self.sums.rescans);
        if entries.len() >= 2 && entries.iter().all(|&(m, _)| m == entries[0].0) {
            let member = entries[0].0;
            debug_assert!(entries.len() <= fold.min.len());
            let cols: Vec<u32> = entries.iter().map(|&(_, o)| o).collect();
            self.acc.scan_columns(p.members(member), &cols, fold);
            for (s, &(_, o)) in entries.iter().enumerate() {
                let idx = self.sums.idx(member as usize, o as usize);
                self.sums.store(idx, fold, s);
            }
        } else {
            for &(m, o) in &entries {
                let idx = self.sums.idx(m as usize, o as usize);
                self.sums.set(idx, self.acc.scan_column(p.members(m), o));
            }
        }
        entries.clear();
        self.sums.rescans = entries;
    }

    /// Repair the parent's member-axis entries `(c, j)` after a split (the
    /// child's axis was rebuilt just before). Columns `c`/`child` saw their
    /// accumulator values change and are always rescanned; for every other
    /// column the values are untouched and membership only shrank, so the
    /// old extremum stands unless its tracked attainer departed to the
    /// child (with unknown attainers falling back to the conservative
    /// "child attained the parent's extremum" heuristic). Cost: `O(k)`
    /// exact checks plus `O(|parent|)` per column that actually lost an
    /// extremum.
    fn repair_parent_axis(
        &mut self,
        p: &Partition,
        (c, child): (usize, usize),
        k: usize,
        fold: &mut FoldScratch,
    ) {
        let parent_size = p.size(c as u32);
        // Whether one side of an entry lost its extremum: a zero extremum
        // stands while the entry keeps a zero-valued member (count rule,
        // checked first — the attainer may then be forgotten); otherwise
        // the tracked attainer must not have departed to the child, with
        // unknown attainers falling back to the conservative "child
        // attained it" heuristic. Returns (lost, forget_arg).
        let side_lost = |value: f64, zero_member: bool, arg: u32, fallback: bool| -> (bool, bool) {
            if value == 0.0 && zero_member {
                (false, arg != NO_ARG && p.color_of(arg) != c as u32)
            } else if arg == NO_ARG {
                (fallback, false)
            } else {
                (p.color_of(arg) != c as u32, false)
            }
        };
        let s = &mut self.sums;
        for j in 0..k {
            if j == c || j == child {
                s.rescans.push((c as u32, j as u32));
                continue;
            }
            // The parent's nonzero count over an unchanged column is the
            // old count minus what the child took.
            let idx = s.idx(c, j);
            let cidx = s.idx(child, j);
            s.nz[idx] -= s.nz[cidx];
            let zero_member = (s.nz[idx] as usize) < parent_size;
            let (min_lost, min_forget) = side_lost(
                s.min[idx],
                zero_member,
                s.min_arg[idx],
                s.min[cidx] == s.min[idx],
            );
            let (max_lost, max_forget) = side_lost(
                s.max[idx],
                zero_member,
                s.max_arg[idx],
                s.max[cidx] == s.max[idx],
            );
            if min_lost || max_lost {
                s.rescans.push((c as u32, j as u32));
            } else {
                if min_forget {
                    s.min_arg[idx] = NO_ARG;
                }
                if max_forget {
                    s.max_arg[idx] = NO_ARG;
                }
            }
        }
        self.flush_rescans(p, fold);
    }

    /// Fold one combined delta of an edge batch into the per-(node,
    /// column) list (first-touch order, so batch processing is
    /// deterministic).
    fn accumulate_edge(&mut self, u: NodeId, col: u32, delta: f64) {
        match self.edge_acc_slot.entry((u, col)) {
            std::collections::hash_map::Entry::Occupied(e) => self.edge_acc[*e.get()].2 += delta,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.edge_acc.len());
                self.edge_acc.push((u, col, delta));
            }
        }
    }

    /// Apply one combined accumulator change of an edge batch — `u`, a
    /// member of `member`, changes by `delta` in column `other` — and fold
    /// it into entry `(member, other)`'s patch record.
    fn patch_edge(&mut self, u: NodeId, (member, other): (u32, u32), delta: f64, promote_k: usize) {
        let (old, new) = self.acc.add(u, other, delta, promote_k);
        let idx = self.sums.idx(member as usize, other as usize);
        let (orig_min, orig_max) = (self.sums.min[idx], self.sums.max[idx]);
        let patches = &mut self.edge_patches;
        let slot = *self.edge_slot.entry(idx).or_insert_with(|| {
            patches.push(EdgeEntryPatch {
                member,
                other,
                patch: EntryPatch::fresh(orig_min, orig_max),
            });
            patches.len() - 1
        });
        self.sums
            .patch(idx, &mut self.edge_patches[slot].patch, u, old, new);
    }
}

/// The incremental refinement engine: degree matrices plus per-node degree
/// accumulators, kept in sync with a partition across [`SplitEvent`]s.
///
/// See the module documentation for the maintained invariants. Typical use:
///
/// ```
/// use qsc_core::q_error::{DegreeMatrices, IncrementalDegrees};
/// use qsc_core::Partition;
/// use qsc_graph::generators::karate_club;
///
/// let g = karate_club();
/// let mut p = Partition::unit(g.num_nodes());
/// let mut engine = IncrementalDegrees::new(&g, &p);
/// // Split off the high-degree nodes and update the engine in O(touched).
/// let event = p.split_color(0, |v| g.out_degree(v) > 5).unwrap();
/// engine.apply_split(&g, &p, &event);
/// assert_eq!(engine.verify_against(&g, &p), Ok(()));
/// let scratch = DegreeMatrices::compute(&g, &p);
/// assert_eq!(engine.out_error(0, 1), scratch.out_error(0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalDegrees {
    n: usize,
    k: usize,
    /// Column capacity (stride) of the dense accumulators and summary
    /// planes; grows geometrically as colors are added.
    cap: usize,
    /// The out side, then — on directed graphs only — the in side. On
    /// undirected graphs (stored as symmetric arcs) the in-direction state
    /// is an exact mirror of the out-direction, so it is not stored; see
    /// [`in_side`], the one mirrored read.
    sides: Vec<Side>,
    /// Whether pair summaries and the witness cache are maintained. The
    /// degrees-only mode (`new_degrees_only`) keeps just the accumulators,
    /// which is all signature-based refiners like the stable coloring need;
    /// it makes `apply_split` pure `O(deg(moved))` and skips the `O(k²)`
    /// matrix storage entirely.
    track_summaries: bool,
    /// β exponent used by the last [`Self::refresh`]; negative values void
    /// the best-pointed-at-parent invalidation shortcut (shrinking a target
    /// color then *grows* candidate weights), so splits dirty every row's
    /// cached best.
    last_beta: f64,
    /// Witness-row cache (see module docs, invariant 3). The two staleness
    /// flags are split because they have different triggers: `row_err_dirty`
    /// means the row's *entries* changed (max error and best both stale),
    /// while `row_best_dirty` alone means only the cached β-weighted best is
    /// stale (a color size or β itself changed) — `row_max_err` is
    /// β-independent, so a β-only rebuild skips the error bookkeeping
    /// entirely and [`Self::max_error`] stays valid across β changes.
    row_max_err: Vec<f64>,
    row_best: Vec<Option<RowBest>>,
    row_err_dirty: Vec<bool>,
    row_best_dirty: Vec<bool>,
    /// Node-stamp scratch of the chunked touched collection.
    node_stamp: Vec<u32>,
    node_delta: Vec<f64>,
    stamp_gen: u32,
    /// Packed per-node dedupe mark for the touched collection: generation
    /// stamp in the low half, index into `touched_nodes` in the high half.
    /// One cache line per probe covers both "seen this round?" and "where
    /// does its delta accumulate?", so the split hot loop can read deltas
    /// *positionally* from `touched_deltas` instead of re-gathering a
    /// per-node array.
    node_mark: Vec<u64>,
    mark_gen: u32,
    touched_nodes: Vec<NodeId>,
    /// Accumulated weight delta of `touched_nodes[i]`, index-parallel.
    touched_deltas: Vec<f64>,
    /// Per-touched-color records of the split or merge side in progress.
    batch: ColorBatch,
    /// Member-fold output of axis rebuilds and grouped rescans.
    fold: FoldScratch,
    /// Per-chunk `(node, chunk-local delta)` lists of the canonical
    /// chunked touched-collection (capacity reused across splits).
    chunk_out: Vec<Vec<(NodeId, f64)>>,
}

/// One direction's tiered accumulator rows in columnar form — the shape
/// [`IncrementalDegrees::snapshot`] emits and the checkpoint writer
/// serializes directly (per-field arrays, no per-row framing). Row `v`'s
/// nonzero `(color, weight)` entries, ascending by color, occupy
/// `offsets[v]..offsets[v + 1]` of the parallel `colors`/`weights`
/// arrays; `dense[v]` records whether the row lives in the promoted
/// dense tier. All fields are empty for engines whose accumulators are
/// dense matrices instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowsSnapshot {
    /// `n + 1` entry offsets (empty when this direction has no tiered
    /// rows).
    pub offsets: Vec<usize>,
    /// Entry colors, concatenated across rows.
    pub colors: Vec<u32>,
    /// Entry weights, index-parallel to `colors`.
    pub weights: Vec<f64>,
    /// Per-row promoted-tier flag.
    pub dense: Vec<bool>,
}

impl RowsSnapshot {
    /// Whether this direction holds any rows (false for dense-storage
    /// engines and for the in direction of symmetric engines).
    #[must_use]
    pub fn is_present(&self) -> bool {
        !self.offsets.is_empty()
    }
}

/// The engine's complete *logical* state, captured by
/// [`IncrementalDegrees::snapshot`] and restored bit-exactly by
/// [`IncrementalDegrees::from_snapshot`] — the persistence layer's view
/// of the engine.
///
/// What is **included**: the accumulators (exact `f64` bits, tight
/// `n × k` for dense engines, columnar tiered rows for sparse ones), the
/// pair-summary min/max matrices with their extremum witnesses and
/// nonzero-member counts (tight `k × k`), and the mode flags + `last_beta`.
/// The nonzero counts are semantic (they drive the dominant rescan-skip
/// rule), so they are serialized exactly rather than recomputed.
///
/// What is deliberately **excluded** (derivable, so restoring it would
/// only bloat checkpoints): the witness-row caches (`row_max_err` /
/// `row_best`), which a restored engine marks all-dirty — the next
/// [`IncrementalDegrees::refresh`] recomputes them from the summary
/// entries, a pure function, so the recomputed values are bit-identical
/// to the writer's; and every per-event scratch buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Node count.
    pub n: usize,
    /// Live color count.
    pub k: usize,
    /// Whether the graph is undirected (in-direction state omitted — it
    /// mirrors the out direction exactly; see the module docs).
    pub symmetric: bool,
    /// Whether pair summaries are maintained (false for degrees-only
    /// engines).
    pub track_summaries: bool,
    /// Whether the accumulators are tiered rows (true) or dense matrices
    /// (false).
    pub sparse_accum: bool,
    /// Whether sparse rows may promote (always `track_summaries &&
    /// sparse_accum`; recorded for validation).
    pub promote: bool,
    /// β exponent of the last refresh (voids the best-pointed-at-parent
    /// shortcut when negative; see the field docs).
    pub last_beta: f64,
    /// Dense out-accumulators, tight `n × k` row-major (empty when
    /// `sparse_accum`). A [`ColumnBuf`] so a mapped-layout checkpoint
    /// restore can hand the plane in as a borrowed view of the file;
    /// [`IncrementalDegrees::from_snapshot`] reads it exactly once.
    pub dout: ColumnBuf<f64>,
    /// Dense in-accumulators (empty when `sparse_accum` or `symmetric`).
    pub din: ColumnBuf<f64>,
    /// Tiered out rows (empty when `!sparse_accum`).
    pub rows_out: RowsSnapshot,
    /// Tiered in rows (empty when `!sparse_accum` or `symmetric`).
    pub rows_in: RowsSnapshot,
    /// Pair-summary matrices, tight `k × k` row-major (empty when
    /// `!track_summaries`; the `in_*` halves also when `symmetric`).
    pub out_min: Vec<f64>,
    /// See [`Self::out_min`].
    pub out_max: Vec<f64>,
    /// See [`Self::out_min`].
    pub in_min: Vec<f64>,
    /// See [`Self::out_min`].
    pub in_max: Vec<f64>,
    /// Extremum witnesses, tight `k × k` ([`NO_ARG`] = unknown attainer).
    pub out_min_arg: Vec<u32>,
    /// See [`Self::out_min_arg`].
    pub out_max_arg: Vec<u32>,
    /// See [`Self::out_min_arg`].
    pub in_min_arg: Vec<u32>,
    /// See [`Self::out_min_arg`].
    pub in_max_arg: Vec<u32>,
    /// Nonzero-member counts, tight `k × k`.
    pub out_nz: Vec<u32>,
    /// See [`Self::out_nz`].
    pub in_nz: Vec<u32>,
}

/// Chunk size of the canonical chunked touched-collection (see
/// [`IncrementalDegrees::collect_touched`]): moved lists at least this long
/// accumulate their per-neighbor weight deltas chunk by chunk. The value
/// fixes the f64 association of those sums, so changing it changes results
/// on non-dyadic weights.
const TOUCHED_CHUNK: usize = 2048;

/// A read-only view of both sides' pair summaries, so the witness-refresh
/// scans can read them while the caller holds the row caches mutably. On
/// symmetric graphs `inn` is the out side itself: in-entry `(i, j)` is
/// `(member, other) = (j, i)`, exactly the mirrored out-entry.
struct SummaryView<'a> {
    k: usize,
    symmetric: bool,
    out: &'a Summaries,
    inn: &'a Summaries,
}

/// The in side of an engine's stored `sides`: the in side itself on
/// directed graphs, the out side on symmetric ones — whose `(member,
/// other)` entries and accumulator rows are exactly the mirrored
/// in-direction state. The one mirrored read of the engine.
#[inline]
fn in_side(sides: &[Side]) -> &Side {
    sides.last().expect("an engine stores its out side")
}

impl<'a> SummaryView<'a> {
    fn of(sides: &'a [Side], k: usize) -> Self {
        SummaryView {
            k,
            symmetric: sides.len() == 1,
            out: &sides[0].sums,
            inn: &in_side(sides).sums,
        }
    }
}

impl PairMinMax for SummaryView<'_> {
    #[inline]
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64) {
        self.out.mm(i, j)
    }

    #[inline]
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64) {
        self.inn.mm(j, i)
    }
}

impl PairMinMax for DegreeMatrices {
    #[inline]
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64) {
        let idx = i * self.k + j;
        (self.out_min[idx], self.out_max[idx])
    }

    #[inline]
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64) {
        let idx = i * self.k + j;
        (self.in_min[idx], self.in_max[idx])
    }
}

/// The merge pick over from-scratch [`DegreeMatrices`] — the reference-mode
/// counterpart of [`IncrementalDegrees::pick_merge`], sharing the bound
/// computation operation-for-operation so the two paths select identical
/// pairs whenever the matrices are numerically identical.
pub fn pick_merge_scratch(m: &DegreeMatrices, max_bound: f64) -> Option<MergeCandidate> {
    if m.k < 2 {
        return None;
    }
    pick_merge_view(m, m.k, max_bound)
}

impl SummaryView<'_> {
    #[inline]
    fn out_error(&self, i: usize, j: usize) -> f64 {
        self.out.error(i, j)
    }

    #[inline]
    fn in_error(&self, i: usize, j: usize) -> f64 {
        self.inn.error(j, i)
    }

    /// One witness row scan: the row's maximum unweighted error and its
    /// best β-weighted candidate. This is *the* row scan — the engine's
    /// refresh and the reference stepper both route through the same
    /// operation order, which is what keeps their picks bit-identical.
    fn scan_row(&self, p: &Partition, s: usize, beta: f64) -> (f64, Option<RowBest>) {
        let splittable = p.size(s as u32) >= 2;
        // β = 0 (the default weighting) makes every candidate's weight its
        // raw error, so the whole out-side scan collapses to "max spread
        // and its first attainer" over one contiguous summary row — the
        // vectorized kernel. Same value, same attainer, same tie-breaks as
        // the general loop below (pinned by the kernel property suite).
        if beta == 0.0 {
            // The out side is member-major: row `s` is contiguous.
            let base = self.out.idx(s, 0);
            let (mut max_err, arg) = crate::kernels::row_err_argmax(
                &self.out.max[base..base + self.k],
                &self.out.min[base..base + self.k],
            );
            let mut best = if splittable && max_err > 0.0 {
                Some(RowBest {
                    weighted: max_err,
                    other: arg,
                    outgoing: true,
                    error: max_err,
                })
            } else {
                None
            };
            if !self.symmetric {
                // Directed in-side: a strided column, scanned scalar. The
                // out candidate wins weight ties, as in the general loop.
                for i in 0..self.k {
                    let e = self.in_error(i, s);
                    if e > max_err {
                        max_err = e;
                    }
                    if splittable && e > 0.0 {
                        match &best {
                            Some(b) if b.weighted >= e => {}
                            _ => {
                                best = Some(RowBest {
                                    weighted: e,
                                    other: i as u32,
                                    outgoing: false,
                                    error: e,
                                })
                            }
                        }
                    }
                }
            }
            return (max_err, best);
        }
        let mut max_err = 0.0f64;
        let mut best: Option<RowBest> = None;
        let mut consider = |weighted: f64, error: f64, other: u32, outgoing: bool| match &best {
            Some(b) if b.weighted >= weighted => {}
            _ => {
                best = Some(RowBest {
                    weighted,
                    other,
                    outgoing,
                    error,
                })
            }
        };
        for j in 0..self.k {
            let e = self.out_error(s, j);
            if e > max_err {
                max_err = e;
            }
            if splittable && e > 0.0 {
                consider(e * size_pow(p.size(j as u32), beta), e, j as u32, true);
            }
        }
        if !self.symmetric {
            // For undirected graphs the in-entries (i, s) mirror the
            // out-entries (s, i) already scanned above (equal error and
            // weight, and the out candidate wins the tie), so this loop
            // only runs for directed graphs.
            for i in 0..self.k {
                let e = self.in_error(i, s);
                if e > max_err {
                    max_err = e;
                }
                if splittable && e > 0.0 {
                    consider(e * size_pow(p.size(i as u32), beta), e, i as u32, false);
                }
            }
        }
        (max_err, best)
    }
}

impl IncrementalDegrees {
    /// Build the full engine (accumulators + pair summaries + witness
    /// cache) for partition `p` on `g` in `O(n·k + m)` time, with dense
    /// accumulator storage.
    pub fn new(g: &Graph, p: &Partition) -> Self {
        Self::with_mode(g, p, true, ResolvedStorage::Dense)
    }

    /// Build the full engine with an explicit accumulator [`StorageMode`]
    /// (the `RothkoConfig::storage` knob). `Auto` resolves here, from the
    /// graph's size and density and `color_hint` — the color budget the
    /// refinement is expected to reach (the engine pre-reserves capacity
    /// for it, so the projected dense footprint is computed against the
    /// same capacity a dense engine would actually allocate). All storage
    /// modes maintain bit-identical state — sparse storage trades access
    /// constants for `O(n + m)` instead of `O(n·k)` accumulator memory
    /// (see the "Storage tiers" module notes).
    pub fn new_with_storage(
        g: &Graph,
        p: &Partition,
        storage: StorageMode,
        color_hint: usize,
    ) -> Self {
        let n = g.num_nodes();
        let k = p.num_colors();
        let hint_cap = color_hint.clamp(k, n.max(1)).next_power_of_two().max(4);
        let dirs = if g.is_directed() { 2 } else { 1 };
        let resolved = storage.resolve(n, g.num_arcs(), hint_cap, dirs);
        Self::with_mode(g, p, true, resolved)
    }

    /// Build a degrees-only engine: per-node *sparse* accumulator rows
    /// maintained in `O(deg(moved))` per split, no `O(k²)` pair summaries
    /// or witness cache, and `O(m)` memory instead of `O(n·k)`. This is
    /// what signature-based refiners (the stable coloring) use — they read
    /// accumulator values and never ask for errors, so near-discrete
    /// colorings (`k → n`) stay affordable in both time and memory.
    pub fn new_degrees_only(g: &Graph, p: &Partition) -> Self {
        Self::with_mode(g, p, false, ResolvedStorage::Sparse)
    }

    fn with_mode(
        g: &Graph,
        p: &Partition,
        track_summaries: bool,
        storage: ResolvedStorage,
    ) -> Self {
        let n = g.num_nodes();
        assert_eq!(p.num_nodes(), n, "partition does not match graph");
        let k = p.num_colors();
        let cap = k.next_power_of_two().max(4);
        let mat_cap = if track_summaries { cap } else { 0 };
        let sparse = !track_summaries || storage == ResolvedStorage::Sparse;
        let promote_k = if track_summaries { k } else { 0 };
        // Whole-axis initialization sweeps every arc front to back; on a
        // mapped graph let the kernel stream the cold pages in ahead of
        // the scan instead of faulting them one miss at a time.
        g.advise(ColumnAdvice::Sequential);
        let sides = side_layouts(g.is_directed(), cap)
            .into_iter()
            .map(|(own_arcs, touch_arcs, strides)| {
                let acc = if sparse {
                    // Tiered rows: per node, sum the arc weights by color in
                    // arc order (a stable sort preserves that order within a
                    // color, so the sums are bit-identical to the dense
                    // accumulation) and keep the non-zero pairs; summary
                    // engines promote rows that already meet the density bar.
                    let rows = (0..n as NodeId)
                        .map(|v| {
                            let row = sparse_row_from_arcs(own_arcs(g, v), p);
                            RowRep::from_sorted(row, promote_k)
                        })
                        .collect();
                    Accum::Rows(rows)
                } else {
                    let mut vals = vec![0.0; n * cap];
                    for v in 0..n as NodeId {
                        let base = v as usize * cap;
                        let (nbrs, wts) = own_arcs(g, v);
                        for (&t, &w) in nbrs.iter().zip(wts) {
                            vals[base + p.color_of(t) as usize] += w;
                        }
                    }
                    Accum::Dense { vals, stride: cap }
                };
                Side::new(acc, Summaries::new(mat_cap, strides), touch_arcs)
            })
            .collect();
        let mut engine = Self::assemble(sides, (n, k, cap), track_summaries, 0.0);
        if track_summaries {
            // Pair summaries: scan each color's members once.
            for s in 0..k {
                engine.recompute_color_axis(p, s);
            }
        }
        engine
    }

    /// Capture the engine's complete logical state for persistence.
    ///
    /// The snapshot holds *tight* columns — `n × k` accumulators and
    /// `k × k` summaries with the capacity padding stripped — so the
    /// on-disk size tracks the live state, not the power-of-two stride.
    /// [`Self::from_snapshot`] re-pads on load; the stride itself is
    /// unobservable (it is recomputed from `k` the same way
    /// construction computes it), so round-tripping through a snapshot
    /// is bit-exact. See [`EngineSnapshot`] for what is included vs.
    /// recomputed.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        let (n, k, cap) = (self.n, self.k, self.cap);
        let plane = |padded: &[f64]| square(padded, k, cap);
        let arg_plane = |padded: &[u32]| square(padded, k, cap);
        let out = &self.sides[0];
        let absent = Summaries::default();
        let ins = self.sides.get(1).map_or(&absent, |side| &side.sums);
        let (dout, rows_out) = out.acc.snapshot(n, k);
        let (din, rows_in) = self.sides.get(1).map_or_else(
            || (Vec::new().into(), RowsSnapshot::default()),
            |side| side.acc.snapshot(n, k),
        );
        EngineSnapshot {
            n,
            k,
            symmetric: self.is_symmetric(),
            track_summaries: self.track_summaries,
            sparse_accum: out.acc.is_rows(),
            promote: self.track_summaries && out.acc.is_rows(),
            last_beta: self.last_beta,
            dout,
            din,
            rows_out,
            rows_in,
            out_min: plane(&out.sums.min),
            out_max: plane(&out.sums.max),
            in_min: plane(&ins.min),
            in_max: plane(&ins.max),
            out_min_arg: arg_plane(&out.sums.min_arg),
            out_max_arg: arg_plane(&out.sums.max_arg),
            in_min_arg: arg_plane(&ins.min_arg),
            in_max_arg: arg_plane(&ins.max_arg),
            out_nz: arg_plane(&out.sums.nz),
            in_nz: arg_plane(&ins.nz),
        }
    }

    /// Rebuild an engine from a snapshot, bit-identical to the one that
    /// produced it.
    ///
    /// The capacity stride and scratch buffers are reconstructed exactly
    /// as the engine constructor would build them; the witness-row caches
    /// start all-dirty and the first refresh recomputes them
    /// deterministically.
    ///
    /// # Panics
    /// On snapshots whose column lengths are inconsistent with their
    /// header fields. The persistence layer validates untrusted bytes
    /// before constructing a snapshot; this is a backstop against
    /// programmer error, not a parser.
    #[must_use]
    pub fn from_snapshot(snap: &EngineSnapshot) -> Self {
        let EngineSnapshot {
            n,
            k,
            symmetric,
            track_summaries,
            sparse_accum,
            promote,
            ..
        } = *snap;
        assert_eq!(
            promote,
            track_summaries && sparse_accum,
            "snapshot promote flag inconsistent with its mode flags"
        );
        let cap = k.next_power_of_two().max(4);
        let mat_cap = if track_summaries { cap } else { 0 };
        let promote_k = if promote { k } else { 0 };
        // Mapped-restore path: the planes are read exactly once below,
        // front to back — let the pages stream in ahead of the copy.
        snap.dout.advise(ColumnAdvice::Sequential);
        snap.din.advise(ColumnAdvice::Sequential);
        let accum = |plane: &ColumnBuf<f64>, rows: &RowsSnapshot| {
            if sparse_accum {
                assert!(
                    plane.is_empty(),
                    "snapshot column for absent matrix is non-empty"
                );
                Accum::Rows(rows_restore(rows, n, promote_k))
            } else {
                assert!(
                    !rows.is_present(),
                    "row snapshot present for a dense-storage engine"
                );
                let vals = pad(plane, n, k, n, cap, 0.0);
                Accum::Dense { vals, stride: cap }
            }
        };
        type Planes<'a> = (&'a [f64], &'a [f64], &'a [u32], &'a [u32], &'a [u32]);
        let sums = |(min, max, min_arg, max_arg, nz): Planes, strides: (usize, usize)| Summaries {
            min: pad(min, k, k, mat_cap, cap, 0.0),
            max: pad(max, k, k, mat_cap, cap, 0.0),
            min_arg: pad(min_arg, k, k, mat_cap, cap, NO_ARG),
            max_arg: pad(max_arg, k, k, mat_cap, cap, NO_ARG),
            nz: pad(nz, k, k, mat_cap, cap, 0),
            member_stride: strides.0,
            other_stride: strides.1,
            rescans: Vec::new(),
        };
        let columns: [(&ColumnBuf<f64>, &RowsSnapshot, Planes); 2] = [
            (
                &snap.dout,
                &snap.rows_out,
                (
                    &snap.out_min,
                    &snap.out_max,
                    &snap.out_min_arg,
                    &snap.out_max_arg,
                    &snap.out_nz,
                ),
            ),
            (
                &snap.din,
                &snap.rows_in,
                (
                    &snap.in_min,
                    &snap.in_max,
                    &snap.in_min_arg,
                    &snap.in_max_arg,
                    &snap.in_nz,
                ),
            ),
        ];
        if symmetric {
            // The in side is not stored: every in column must be empty.
            let (din, rows_in, planes) = columns[1];
            let (min, max, min_arg, max_arg, nz) = planes;
            assert!(
                din.is_empty()
                    && !rows_in.is_present()
                    && [min.len(), max.len(), min_arg.len(), max_arg.len(), nz.len()]
                        .iter()
                        .all(|&len| len == 0),
                "snapshot column for absent matrix is non-empty"
            );
        }
        let sides = side_layouts(!symmetric, cap)
            .into_iter()
            .zip(columns)
            .map(|((_, touch_arcs, strides), (plane, rows, planes))| {
                Side::new(accum(plane, rows), sums(planes, strides), touch_arcs)
            })
            .collect();
        Self::assemble(sides, (n, k, cap), track_summaries, snap.last_beta)
    }

    /// An engine over `sides` with all-dirty witness caches and fresh
    /// scratch — what construction and restore share.
    fn assemble(
        sides: Vec<Side>,
        (n, k, cap): (usize, usize, usize),
        track_summaries: bool,
        last_beta: f64,
    ) -> Self {
        let mat_cap = if track_summaries { cap } else { 0 };
        let mut engine = IncrementalDegrees {
            n,
            k,
            cap,
            sides,
            track_summaries,
            last_beta,
            row_max_err: vec![0.0; mat_cap],
            row_best: vec![None; mat_cap],
            row_err_dirty: vec![true; mat_cap],
            row_best_dirty: vec![true; mat_cap],
            node_stamp: vec![0; n],
            node_delta: vec![0.0; n],
            stamp_gen: 0,
            node_mark: vec![0; n],
            mark_gen: 0,
            touched_nodes: Vec::new(),
            touched_deltas: Vec::new(),
            batch: ColorBatch {
                slot: vec![0; mat_cap],
                ..ColorBatch::default()
            },
            fold: FoldScratch::default(),
            chunk_out: Vec::new(),
        };
        engine.fold.resize(mat_cap);
        engine
    }

    /// Promotion hint for [`RowRep::add`]: the live color count in summary
    /// engines, `0` (never promote) in degrees-only ones. Dense sides
    /// ignore it.
    #[inline]
    fn promote_k(&self) -> usize {
        if self.track_summaries {
            self.k
        } else {
            0
        }
    }

    /// Heap bytes resident in the engine's long-lived state: accumulators
    /// (dense matrices or tiered rows), pair summaries, witness caches and
    /// the per-node scratch. Reusable per-event scratch lists are included
    /// too — they are part of what the process actually keeps resident.
    /// This is the number `bench_memory` reports per storage mode.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = 0;
        for side in &self.sides {
            bytes += side.acc.heap_bytes() + side.sums.heap_bytes();
        }
        bytes += self.row_max_err.capacity() * 8
            + self.row_best.capacity() * size_of::<Option<RowBest>>()
            + self.row_err_dirty.capacity()
            + self.row_best_dirty.capacity();
        bytes += self.node_stamp.capacity() * 4
            + self.node_delta.capacity() * 8
            + self.node_mark.capacity() * 8;
        bytes += self.touched_nodes.capacity() * 4 + self.touched_deltas.capacity() * 8;
        bytes += self.batch.slot.capacity() * 4
            + self.batch.records.capacity() * size_of::<TouchedColor>();
        bytes + self.fold.heap_bytes()
    }

    /// What [`Self::resident_bytes`] would report with a *dense*
    /// accumulator tier at the current `n × cap` shape: the measured
    /// resident bytes with the accumulator tier swapped for `n · cap`
    /// `f64` slots per tracked direction. For a dense engine this is the
    /// measurement itself (within allocator slack); for a sparse engine it
    /// is the analytic dense projection `bench_memory` compares against at
    /// scales where a dense engine is deliberately never built.
    #[must_use]
    pub fn projected_dense_resident_bytes(&self) -> usize {
        let accum_now: usize = self.sides.iter().map(|s| s.acc.heap_bytes()).sum();
        let dense_accum = if self.track_summaries {
            self.n * self.cap * 8 * self.sides.len()
        } else {
            // Degrees-only engines never hold dense accumulators.
            accum_now
        };
        self.resident_bytes() - accum_now + dense_accum
    }

    /// Number of colors currently tracked.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.k
    }

    /// Pre-reserve internal capacity for a refinement expected to reach
    /// `colors` colors, so the accumulator rows and summary matrices are
    /// (re)allocated once up front instead of doubling several times during
    /// the run. Purely an allocation hint — values are unaffected.
    pub fn reserve_colors(&mut self, colors: usize) {
        self.ensure_capacity(colors.min(self.n.max(1)));
    }

    /// Whether the graph is undirected, i.e. the in-direction state mirrors
    /// the out-direction exactly (see the module docs). Consumers can skip
    /// their own in-direction work when this holds.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.sides.len() == 1
    }

    /// The maintained `w(v, P_j)` accumulator.
    #[inline]
    pub fn out_degree_of(&self, v: NodeId, color: u32) -> f64 {
        self.sides[0].acc.get(v, color)
    }

    /// The maintained `w(P_j, v)` accumulator.
    #[inline]
    pub fn in_degree_of(&self, v: NodeId, color: u32) -> f64 {
        in_side(&self.sides).acc.get(v, color)
    }

    /// The full out-degree accumulator row of `v` (length `k`). Contiguous
    /// rows exist only in dense-storage summary engines; sparse-storage and
    /// degrees-only engines keep tiered rows and panic here — read
    /// per-color values through [`Self::out_degree_of`] instead.
    #[inline]
    pub fn out_row(&self, v: NodeId) -> &[f64] {
        self.sides[0].acc.dense_row(v, self.k)
    }

    /// The full in-degree accumulator row of `v` (length `k`); see
    /// [`Self::out_row`] for the sparse-storage caveat.
    #[inline]
    pub fn in_row(&self, v: NodeId) -> &[f64] {
        in_side(&self.sides).acc.dense_row(v, self.k)
    }

    /// Outgoing error `U − L` at `(i, j)` (same convention as
    /// [`DegreeMatrices::out_error`]).
    #[inline]
    pub fn out_error(&self, i: usize, j: usize) -> f64 {
        debug_assert!(
            self.track_summaries,
            "pair summaries not tracked by this engine"
        );
        self.sides[0].sums.error(i, j)
    }

    /// Incoming error at `(i, j)` (same convention as
    /// [`DegreeMatrices::in_error`]).
    #[inline]
    pub fn in_error(&self, i: usize, j: usize) -> f64 {
        debug_assert!(
            self.track_summaries,
            "pair summaries not tracked by this engine"
        );
        in_side(&self.sides).sums.error(j, i)
    }

    /// Package the engine's pair summaries as a [`QErrorReport`] — the
    /// same scan order, tie-breaks, and mean fold as [`q_error_report`]
    /// on the synchronized graph/partition (so the two agree exactly
    /// whenever the accumulator sums are exact, e.g. on integer weights)
    /// for `O(k²)` instead of the `O(n·k + m)` matrix recomputation.
    pub fn q_report(&self) -> QErrorReport {
        assert!(
            self.track_summaries,
            "q_report requires a summary-tracking engine"
        );
        let k = self.k;
        let out = &self.sides[0].sums;
        let mut max_q = 0.0f64;
        let mut worst = None;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for i in 0..k {
            for j in 0..k {
                let eo = self.out_error(i, j);
                if eo > max_q {
                    max_q = eo;
                    worst = Some((i as u32, j as u32, Direction::Out));
                }
                let ei = self.in_error(i, j);
                if ei > max_q {
                    max_q = ei;
                    worst = Some((i as u32, j as u32, Direction::In));
                }
                if out.nz[out.idx(i, j)] > 0 {
                    total += eo;
                    total += ei;
                    count += 2;
                }
            }
        }
        QErrorReport {
            max_q,
            mean_q: if count == 0 {
                0.0
            } else {
                total / count as f64
            },
            num_colors: k,
            worst_pair: worst,
        }
    }

    /// Apply a split performed on the partition. `p` must be the partition
    /// *after* the split and `event.child` must be the next color id (splits
    /// are applied in order).
    ///
    /// Cost: `O(deg(moved) + (|parent| + |child|)·k)` plus a one-column
    /// member rescan for each pair summary that actually lost its tracked
    /// extremum attainer.
    pub fn apply_split(&mut self, g: &Graph, p: &Partition, event: &SplitEvent) {
        let c = event.parent as usize;
        let child = event.child as usize;
        assert_eq!(child, self.k, "split events must be applied in order");
        assert_eq!(
            p.num_colors(),
            self.k + 1,
            "partition out of sync with engine"
        );
        self.ensure_capacity(self.k + 1);
        self.k += 1;
        let k = self.k;
        if self.track_summaries {
            // Fresh row/column for the child: "no edges" until proven
            // otherwise.
            for side in &mut self.sides {
                side.sums.reset_color(child, k);
            }
            self.row_max_err[child] = 0.0;
            self.row_best[child] = None;
        }

        // ---- Per side: the moved nodes' neighbors along the side's touch
        // arcs (on the out side, the sources of edges into them) shift
        // accumulator mass from column `parent` to column `child`.
        let mut sides = std::mem::take(&mut self.sides);
        for side in &mut sides {
            self.collect_touched(g, &event.moved_nodes, side.touch_arcs);
            self.apply_side(side, p, c, child);
        }
        self.sides = sides;

        if self.track_summaries {
            // ---- Member axes of child and parent. The child is rebuilt
            // from its members' (now final) accumulator rows; the parent's
            // entries over unchanged columns only shrank in membership, so
            // they keep their value unless their tracked extremum attainer
            // departed to the child (then a one-column member rescan
            // re-derives it).
            self.recompute_color_axis(p, child);
            for side in &mut self.sides {
                side.repair_parent_axis(p, (c, child), k, &mut self.fold);
            }

            // ---- Witness-row invalidation: rows recomputed above changed
            // entries (error and best both stale), and any cached best that
            // pointed at the parent saw its target *size* change — its error
            // is untouched, so only the β-weighted best goes stale. A
            // negative β voids that shortcut: shrinking a target color
            // *raises* candidate weights, so stale non-best candidates can
            // overtake silently — dirty every row's best.
            self.row_err_dirty[c] = true;
            self.row_best_dirty[c] = true;
            self.row_err_dirty[child] = true;
            self.row_best_dirty[child] = true;
            if self.last_beta < 0.0 {
                self.row_best_dirty[..k].fill(true);
            } else {
                for s in 0..k {
                    if let Some(best) = &self.row_best[s] {
                        if best.other as usize == c {
                            self.row_best_dirty[s] = true;
                        }
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.verify_against(g, p),
                Ok(()),
                "incremental state diverged from scratch recomputation"
            );
        }
    }

    /// Apply one side of a split: shift every touched node's mass from the
    /// parent to the child column and, in summary engines, patch the
    /// entries over *other* colors' member axes, then settle the batch
    /// (child-column entries, lost-extremum rescans, witness-row
    /// invalidation). Degrees-only engines only shift — pure
    /// `O(deg(moved) · log deg)`. `collect_touched` must have run for this
    /// side.
    fn apply_side(&mut self, side: &mut Side, p: &Partition, c: usize, child: usize) {
        let touched = std::mem::take(&mut self.touched_nodes);
        let deltas = std::mem::take(&mut self.touched_deltas);
        let promote_k = self.promote_k();
        let columns = (c as u32, child as u32);
        if self.track_summaries {
            self.batch.begin(c);
            let colors = p.assignment();
            let (batch, sums) = (&mut self.batch, &mut side.sums);
            side.acc.split_shift_each(
                &touched,
                &deltas,
                columns,
                promote_k,
                |pos, u, old, new, child_val| {
                    if let Some(&w) = touched.get(pos + PREFETCH_AHEAD) {
                        kernels::prefetch_read(colors, w as usize);
                    }
                    let i = colors[u as usize];
                    if i as usize != c && i as usize != child {
                        // (both color axes are rebuilt afterwards)
                        batch.record(sums, i, u, old, new, child_val);
                    }
                },
            );
            self.settle_batch(side, p, Some(child));
        } else {
            side.acc
                .split_shift_each(&touched, &deltas, columns, promote_k, |_, _, _, _, _| {});
        }
        self.touched_nodes = touched;
        self.touched_deltas = deltas;
    }

    /// Close a split or merge batch on `side`: settle each touched color's
    /// entry against the batch column, install its child-column entry (a
    /// split's `child`), dirty its witness row, then run the queued rescans.
    fn settle_batch(&mut self, side: &mut Side, p: &Partition, child: Option<usize>) {
        let other = self.batch.other;
        for t in &self.batch.records {
            let i = t.color as usize;
            let size = p.size(t.color);
            side.sums.settle(i, other, size, &t.patch);
            if let Some(child) = child {
                let (mut mn, mut mx) = (t.child_min, t.child_max);
                let (mut amn, mut amx) = (t.child_min_arg, t.child_max_arg);
                if t.count < size {
                    // Some member of the color has no edges towards the
                    // child: an (unknown) attainer of weight zero.
                    if mn > 0.0 {
                        mn = 0.0;
                        amn = NO_ARG;
                    }
                    if mx < 0.0 {
                        mx = 0.0;
                        amx = NO_ARG;
                    }
                }
                let idx = side.sums.idx(i, child);
                side.sums.set(idx, (mn, mx, amn, amx, t.child_nonzero));
            }
            self.row_err_dirty[i] = true;
            self.row_best_dirty[i] = true;
        }
        side.flush_rescans(p, &mut self.fold);
    }

    /// Patch the engine for a batch of edge events — graph-free dynamic
    /// maintenance (see the module docs, "Edge-event maintenance"). `p` is
    /// the *unchanged* partition the engine is synchronized with; each
    /// event carries the signed weight delta of one logical edge
    /// (undirected events are applied to both stored arc directions,
    /// self-loops once), exactly as
    /// `qsc_graph::delta::GraphDelta::drain_events` produces them.
    ///
    /// Cost: `O(events + touched entries)` plus a one-column member rescan
    /// for each pair summary that provably lost a tracked extremum.
    /// Touched witness rows go error-dirty; call [`Self::refresh`] before
    /// the next [`Self::max_error`] / witness pick as after a split.
    pub fn apply_edge_batch(&mut self, p: &Partition, events: &[EdgeEvent]) {
        assert_eq!(p.num_nodes(), self.n, "partition does not match engine");
        assert_eq!(p.num_colors(), self.k, "partition out of sync with engine");
        if events.is_empty() {
            return;
        }
        let sides = &mut self.sides;
        if !self.track_summaries {
            // Degrees-only mode: pure sparse-row updates, O(log deg) each.
            edge_arc_changes(p, events, sides.len(), |d, u, col, delta| {
                sides[d].acc.add(u, col, delta, 0);
            });
            return;
        }
        // Combine the events into one delta per (node, column) first: the
        // entry-patch rules (inline extension + exact lost-extremum
        // detection) are sound only when each accumulator cell changes
        // exactly once per batch, as on the split path.
        for side in sides.iter_mut() {
            side.edge_acc.clear();
            side.edge_acc_slot.clear();
            side.edge_patches.clear();
            side.edge_slot.clear();
        }
        edge_arc_changes(p, events, sides.len(), |d, u, col, delta| {
            sides[d].accumulate_edge(u, col, delta);
        });
        let promote_k = self.promote_k();
        for side in &mut self.sides {
            let changes = std::mem::take(&mut side.edge_acc);
            for &(u, col, d) in &changes {
                if d != 0.0 {
                    side.patch_edge(u, (p.color_of(u), col), d, promote_k);
                }
            }
            side.edge_acc = changes;
            for rec in &side.edge_patches {
                let member = rec.member as usize;
                let size = p.size(rec.member);
                side.sums
                    .settle(member, rec.other as usize, size, &rec.patch);
                self.row_err_dirty[member] = true;
                self.row_best_dirty[member] = true;
            }
            side.flush_rescans(p, &mut self.fold);
        }
    }

    /// The best coarsening candidate: the color pair whose merge has the
    /// smallest provable post-merge q-error bound, or `None` when no pair's
    /// bound stays at or below `max_bound` (or fewer than two colors
    /// exist). `O(k³)` — intended for the maintenance path, where merges
    /// are rare; the selection is deterministic (lexicographically smallest
    /// pair on exact bound ties) and reads only the pair summaries, so
    /// maintained and freshly built engines pick identical pairs.
    pub fn pick_merge(&self, max_bound: f64) -> Option<MergeCandidate> {
        assert!(
            self.track_summaries,
            "pick_merge requires a summary-tracking engine"
        );
        if self.k < 2 {
            return None;
        }
        pick_merge_view(&SummaryView::of(&self.sides, self.k), self.k, max_bound)
    }

    /// The post-merge q-error bound of one specific pair (see
    /// [`Self::pick_merge`]); `O(k)`. Maintenance uses this to *re-validate*
    /// stale candidates against the current state before applying them, so
    /// a coarsening round pays one full `O(k³)` scan plus `O(k)` per
    /// applied merge instead of `O(k³)` per merge.
    pub fn merge_bound_pair(&self, a: u32, b: u32) -> f64 {
        assert!(
            self.track_summaries,
            "merge bounds require a summary-tracking engine"
        );
        assert!((a as usize) < self.k && (b as usize) < self.k && a < b);
        merge_bound(
            &SummaryView::of(&self.sides, self.k),
            self.k,
            a as usize,
            b as usize,
            f64::INFINITY,
        )
    }

    /// Every color pair whose post-merge bound stays at or below
    /// `max_bound`, sorted ascending by `(bound, winner, loser)` — the
    /// candidate list of one batched coarsening round.
    ///
    /// A merged pair's bound dominates each color's own cached row error
    /// (every union term contains the color's own spread), so only colors
    /// with `row_max_err <= max_bound` can participate — the scan
    /// prefilters to those in `O(k)` and pays `O(|eligible|² · k)` for the
    /// bounds, which in steady maintenance (most colors split right up to
    /// the target) is far below the naive `O(k³)`. Requires
    /// [`Self::refresh`] since the last mutation (the prefilter reads the
    /// cached row errors).
    pub fn merge_candidates(&self, max_bound: f64) -> Vec<MergeCandidate> {
        assert!(
            self.track_summaries,
            "merge candidates require a summary-tracking engine"
        );
        debug_assert!(
            self.row_err_dirty[..self.k].iter().all(|d| !d),
            "merge_candidates with dirty rows; call refresh() first"
        );
        let view = SummaryView::of(&self.sides, self.k);
        let eligible: Vec<usize> = (0..self.k)
            .filter(|&c| self.row_max_err[c] <= max_bound)
            .collect();
        let mut out = Vec::new();
        for (i, &a) in eligible.iter().enumerate() {
            for &b in &eligible[i + 1..] {
                let bound = merge_bound(&view, self.k, a, b, max_bound);
                if bound <= max_bound {
                    out.push(MergeCandidate {
                        winner: a as u32,
                        loser: b as u32,
                        bound,
                    });
                }
            }
        }
        out.sort_by(|x, y| {
            x.bound
                .partial_cmp(&y.bound)
                .expect("finite bounds")
                .then(x.winner.cmp(&y.winner))
                .then(x.loser.cmp(&y.loser))
        });
        out
    }

    /// Apply a merge performed on the partition — the dual of
    /// [`Self::apply_split`]. `p` must be the partition *after* the merge
    /// ([`Partition::merge_colors`] semantics: the loser's members joined
    /// the winner, the ex-last color was relabeled into the freed slot).
    ///
    /// Cost: `O(touched + |merged| · k + k)` — accumulator columns fold for
    /// the in/out-neighbors of the moved members, entries over other
    /// colors' member axes are patched with the split path's exact
    /// lost-extremum machinery (plus one-column rescans where an extremum
    /// was provably lost), the winner's member axis is rebuilt, and the
    /// relabel is `O(touched + k)` row/column copies.
    pub fn apply_merge(&mut self, g: &Graph, p: &Partition, event: &MergeEvent) {
        let winner = event.winner as usize;
        let loser = event.loser as usize;
        assert!(winner < loser, "merge events require winner < loser");
        assert_eq!(
            p.num_colors(),
            self.k - 1,
            "partition out of sync with engine"
        );
        let last = self.k - 1;
        debug_assert_eq!(
            event.relabeled,
            (loser != last).then_some(last as u32),
            "merge event relabel does not match the engine's color count"
        );
        let promote_k = self.promote_k();
        let mut sides = std::mem::take(&mut self.sides);
        // ---- Fold the loser column into the winner's for the nodes holding
        // weight towards the moved members (their neighbors along each
        // side's touch arcs), capturing (node, old, new) winner-column
        // values so entry patches can run after the relabel, in the final
        // id space.
        for side in &mut sides {
            self.collect_touched(g, &event.moved_nodes, side.touch_arcs);
            let columns = (loser as u32, winner as u32);
            side.acc.fold_column(
                &self.touched_nodes,
                columns,
                promote_k,
                &mut side.merge_capture,
            );
        }
        // ---- Relabel the ex-last color into the freed loser slot (no-op
        // when the loser was last), then shrink. Only the relabeled class's
        // neighbors hold non-zero values in column `last` (the merged-away
        // loser's column was zeroed by the fold); summary planes and
        // witness-row caches move wholesale — the same entries, renamed.
        if loser != last {
            for side in &mut sides {
                self.collect_touched(g, p.members(loser as u32), side.touch_arcs);
                side.acc
                    .relabel_column(&self.touched_nodes, last as u32, loser as u32);
                if self.track_summaries {
                    side.sums.relabel(self.cap, self.k, last, loser);
                }
            }
            if self.track_summaries {
                self.row_max_err[loser] = self.row_max_err[last];
                self.row_best[loser] = self.row_best[last];
                self.row_err_dirty[loser] = self.row_err_dirty[last];
                self.row_best_dirty[loser] = self.row_best_dirty[last];
            }
        }
        self.k -= 1;
        let k = self.k;

        if self.track_summaries {
            // ---- Patch entries over other colors' member axes from the
            // captured folds, now with partition and engine ids aligned.
            for side in &mut sides {
                self.batch.begin(winner);
                for &(u, old, new) in &side.merge_capture {
                    let i = p.color_of(u);
                    if i as usize != winner {
                        // (the winner's axis is rebuilt below)
                        self.batch.record(&mut side.sums, i, u, old, new, 0.0);
                    }
                }
                self.settle_batch(side, p, None);
            }
        }
        self.sides = sides;

        if self.track_summaries {
            // ---- The winner's member axis is rebuilt from the merged
            // member list.
            self.recompute_color_axis(p, winner);

            // ---- Witness bookkeeping: cached bests still name pre-merge
            // colors — the merged-away loser invalidates and the relabeled
            // ex-last renames. The winner's size *grew*, which is the
            // reverse of the split path: with any non-zero β a non-best
            // candidate targeting the winner can silently overtake an
            // untouched row's cached best (β > 0: its weight rose; β < 0:
            // the best's own weight fell), so every row's best goes stale.
            // With β = 0 the weights are size-independent and the targeted
            // invalidation suffices.
            if self.last_beta != 0.0 {
                self.row_best_dirty[..k].fill(true);
                for s in 0..k {
                    if let Some(best) = &mut self.row_best[s] {
                        if best.other as usize == last {
                            best.other = loser as u32;
                        }
                    }
                }
            } else {
                for s in 0..k {
                    if let Some(best) = &mut self.row_best[s] {
                        if best.other as usize == loser || best.other as usize == winner {
                            self.row_best_dirty[s] = true;
                        } else if best.other as usize == last {
                            best.other = loser as u32;
                        }
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.verify_against(g, p),
            Ok(()),
            "incremental merge diverged from scratch recomputation"
        );
    }

    /// Grow the node axis for freshly inserted isolated nodes. `p` is the
    /// partition *after* the inserts: nodes `first..first + colors.len()`
    /// were appended, node `first + i` to `colors[i]`. The new rows are
    /// all-zero (the nodes have no edges yet — wire them with a following
    /// edge batch), so each insert extends its color's pair summaries
    /// inline with an explicit zero attainer — no rescans, `O(k)` per
    /// inserted node.
    pub fn apply_node_inserts(&mut self, p: &Partition, first: NodeId, colors: &[u32]) {
        assert_eq!(first as usize, self.n, "node inserts must be contiguous");
        assert_eq!(
            p.num_nodes(),
            self.n + colors.len(),
            "partition out of sync with inserts"
        );
        assert_eq!(p.num_colors(), self.k, "inserts cannot change colors");
        let n_new = self.n + colors.len();
        for side in &mut self.sides {
            side.acc.grow_nodes(n_new);
        }
        self.node_stamp.resize(n_new, 0);
        self.node_delta.resize(n_new, 0.0);
        self.node_mark.resize(n_new, 0);
        self.n = n_new;
        if !self.track_summaries {
            return;
        }
        let k = self.k;
        for (i, &c) in colors.iter().enumerate() {
            let v = first + i as NodeId;
            debug_assert_eq!(p.color_of(v), c, "insert color mismatch");
            let c = c as usize;
            // Every entry over P_c's member axis gains a member with an
            // explicit zero value.
            for side in &mut self.sides {
                let s = &mut side.sums;
                for j in 0..k {
                    let idx = s.idx(c, j);
                    if 0.0 < s.min[idx] {
                        s.min[idx] = 0.0;
                        s.min_arg[idx] = v;
                    }
                    if 0.0 > s.max[idx] {
                        s.max[idx] = 0.0;
                        s.max_arg[idx] = v;
                    }
                }
            }
            self.row_err_dirty[c] = true;
            self.row_best_dirty[c] = true;
        }
        // Sizes of the inserted colors *grew* — the reverse of the split
        // path: with any non-zero β a candidate targeting a grown color
        // can overtake (β > 0) or fall behind (β < 0) an untouched row's
        // cached best, so every row's best goes stale. With β = 0 the
        // weights are size-independent and nothing needs invalidating
        // beyond the inserted colors' own rows (done above).
        if self.last_beta != 0.0 {
            self.row_best_dirty[..k].fill(true);
        }
    }

    /// Compact the node axis after removals. The removed nodes must be
    /// isolated (their incident edges deleted by a preceding
    /// [`Self::apply_edge_batch`] — their accumulator rows are zero up to
    /// rounding residue, which the repair rescans);
    /// `p` is the partition *after* the removal and renumbering
    /// ([`Partition::apply_node_remap`]), `remap` the mapping the graph
    /// compaction produced, and `removed_colors` the colors the removed
    /// nodes belonged to (any order, duplicates fine).
    ///
    /// Cost: `O(n)` row compaction + `O(k²)` witness remap + `O(k)` exact
    /// checks and the stale entries' one-column rescans per affected color.
    pub fn apply_node_removals(
        &mut self,
        p: &Partition,
        remap: &NodeRemap,
        removed_colors: &[u32],
    ) {
        assert_eq!(remap.old_len(), self.n, "remap does not match engine");
        assert_eq!(
            p.num_nodes(),
            remap.new_len(),
            "partition out of sync with removals"
        );
        assert_eq!(p.num_colors(), self.k, "removals cannot change colors");
        let n_new = remap.new_len();
        let k = self.k;
        // Per side, the columns in which a removed row kept a rounding
        // residue: the summary repair below rescans them instead of
        // assuming the departed value was zero.
        let residues: Vec<Vec<bool>> = self
            .sides
            .iter_mut()
            .map(|side| {
                let residue = side.acc.removed_residue(remap, k);
                side.acc.compact(remap);
                residue
            })
            .collect();
        self.node_stamp.clear();
        self.node_stamp.resize(n_new, 0);
        self.node_delta.clear();
        self.node_delta.resize(n_new, 0.0);
        self.node_mark.clear();
        self.node_mark.resize(n_new, 0);
        self.stamp_gen = 0;
        self.mark_gen = 0;
        self.n = n_new;
        if !self.track_summaries {
            return;
        }
        // Remap the extremum witnesses (attainers of unaffected colors are
        // survivors; attainers inside affected colors are rebuilt below,
        // so a defensive NO_ARG for a removed id is fine either way).
        let cap = self.cap;
        for side in &mut self.sides {
            for args in [&mut side.sums.min_arg, &mut side.sums.max_arg] {
                for i in 0..k {
                    for slot in &mut args[i * cap..i * cap + k] {
                        if *slot != NO_ARG {
                            *slot = remap.map(*slot).unwrap_or(NO_ARG);
                        }
                    }
                }
            }
        }
        // Only the colors that lost members can see entry values change,
        // and only in one way: the removed rows were zero outside the
        // residue columns (rescanned outright), so an entry is stale iff a
        // zero extremum just lost its last zero member (`nz == new size`).
        // Everything else keeps its value — negative minima / positive
        // maxima are attained by survivors, and a zero extremum with
        // another zero member stands (its attainer was remapped to
        // `NO_ARG` above if it was removed). `O(k)` exact checks per
        // affected color plus a one-column rescan per stale entry, instead
        // of a full member-axis rebuild.
        let mut affected: Vec<u32> = removed_colors.to_vec();
        affected.sort_unstable();
        affected.dedup();
        for (side, residue) in self.sides.iter_mut().zip(&residues) {
            let s = &mut side.sums;
            for &c in &affected {
                let size = p.size(c);
                for (j, &kept) in residue.iter().enumerate() {
                    let idx = s.idx(c as usize, j);
                    if kept
                        || (s.nz[idx] as usize) == size && (s.min[idx] == 0.0 || s.max[idx] == 0.0)
                    {
                        s.rescans.push((c, j as u32));
                    }
                }
            }
            side.flush_rescans(p, &mut self.fold);
        }
        for &c in &affected {
            self.row_err_dirty[c as usize] = true;
            self.row_best_dirty[c as usize] = true;
        }
        if self.last_beta < 0.0 {
            self.row_best_dirty[..k].fill(true);
        } else {
            for s in 0..k {
                if let Some(best) = &self.row_best[s] {
                    if affected.binary_search(&best.other).is_ok() {
                        self.row_best_dirty[s] = true;
                    }
                }
            }
        }
    }

    /// Recompute the stale witness rows. `beta` is the target-size exponent
    /// of the witness weighting (the paper's β). Rows whose *entries*
    /// changed since the last refresh rescan both their maximum error and
    /// their cached best; a β change alone only stales the cached
    /// β-weighted bests (`row_max_err` is β-independent), so a β-only
    /// rebuild skips the error bookkeeping entirely.
    pub fn refresh(&mut self, p: &Partition, beta: f64) {
        assert!(
            self.track_summaries,
            "refresh requires a summary-tracking engine"
        );
        if beta != self.last_beta {
            self.row_best_dirty[..self.k].fill(true);
            self.last_beta = beta;
        }
        let view = SummaryView::of(&self.sides, self.k);
        for s in 0..self.k {
            if !(self.row_err_dirty[s] || self.row_best_dirty[s]) {
                continue;
            }
            let (max_err, best) = view.scan_row(p, s, beta);
            if self.row_err_dirty[s] {
                self.row_max_err[s] = max_err;
                self.row_err_dirty[s] = false;
            }
            self.row_best[s] = best;
            self.row_best_dirty[s] = false;
        }
    }

    /// Maximum q-error over all pairs and directions. Requires
    /// [`Self::refresh`] since the last split (β-only staleness is fine:
    /// the row maxima are β-independent).
    pub fn max_error(&self) -> f64 {
        debug_assert!(
            self.row_err_dirty[..self.k].iter().all(|d| !d),
            "max_error called with dirty witness rows; call refresh() first"
        );
        self.row_max_err[..self.k]
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }

    /// The witness with the largest `error · |P_split|^α · |P_other|^β`
    /// weight among splittable colors (size ≥ 2), or `None` when every
    /// remaining error sits inside singleton colors or the coloring is
    /// stable. Requires [`Self::refresh`] since the last split (with the
    /// same `beta`).
    pub fn pick_witness(&self, p: &Partition, alpha: f64) -> Option<WitnessCandidate> {
        self.debug_assert_fresh();
        let mut best: Option<(f64, WitnessCandidate)> = None;
        for s in 0..self.k {
            let Some(row) = &self.row_best[s] else {
                continue;
            };
            let weighted = row.weighted * size_pow(p.size(s as u32), alpha);
            match &best {
                Some((bw, _)) if *bw >= weighted => {}
                _ => {
                    best = Some((
                        weighted,
                        WitnessCandidate {
                            split_color: s as u32,
                            other_color: row.other,
                            outgoing: row.outgoing,
                            error: row.error,
                        },
                    ))
                }
            }
        }
        best.map(|(_, w)| w)
    }

    /// The top `max_count` witnesses by `error · |P_split|^α · |P_other|^β`
    /// weight, at most one per split color (the engine caches one best
    /// candidate per row, which is exactly what makes a batch of these
    /// splits non-conflicting: distinct parents, so no split invalidates
    /// another's membership). Ordered by descending weight with ties broken
    /// towards the smaller color id; the first element equals
    /// [`Self::pick_witness`]. Requires [`Self::refresh`] since the last
    /// split (with the same `beta`).
    pub fn pick_witnesses(
        &self,
        p: &Partition,
        alpha: f64,
        max_count: usize,
    ) -> Vec<WitnessCandidate> {
        self.debug_assert_fresh();
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for s in 0..self.k {
            if let Some(row) = &self.row_best[s] {
                scored.push((row.weighted * size_pow(p.size(s as u32), alpha), s as u32));
            }
        }
        // Witness weights are finite (errors are differences of finite
        // sums), so the comparison is total.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        scored.truncate(max_count);
        scored
            .into_iter()
            .map(|(_, s)| {
                let row = self.row_best[s as usize].as_ref().expect("scored row");
                WitnessCandidate {
                    split_color: s,
                    other_color: row.other,
                    outgoing: row.outgoing,
                    error: row.error,
                }
            })
            .collect()
    }

    #[inline]
    fn debug_assert_fresh(&self) {
        debug_assert!(
            self.row_err_dirty[..self.k]
                .iter()
                .chain(self.row_best_dirty[..self.k].iter())
                .all(|d| !d),
            "witness pick with dirty rows; call refresh() first"
        );
    }

    /// Cross-check the full maintained state against a from-scratch
    /// [`DegreeMatrices::compute`] (and freshly recomputed accumulators),
    /// with a small tolerance for floating-point associativity. Returns a
    /// description of the first mismatch. Intended for tests and the debug
    /// assertion inside [`Self::apply_split`].
    pub fn verify_against(&self, g: &Graph, p: &Partition) -> Result<(), String> {
        let k = self.k;
        if p.num_colors() != k {
            return Err(format!("color count {} != engine {k}", p.num_colors()));
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        if self.track_summaries {
            let scratch = DegreeMatrices::compute(g, p);
            let view = SummaryView::of(&self.sides, k);
            for i in 0..k {
                for j in 0..k {
                    for (dir, ours, theirs) in [
                        ("out", view.out_mm(i, j), scratch.out_mm(i, j)),
                        ("in", view.in_mm(i, j), scratch.in_mm(i, j)),
                    ] {
                        for (name, ours, theirs) in
                            [("min", ours.0, theirs.0), ("max", ours.1, theirs.1)]
                        {
                            if !close(ours, theirs) {
                                return Err(format!(
                                    "{dir}_{name}[{i}][{j}]: incremental {ours} vs scratch {theirs}"
                                ));
                            }
                        }
                    }
                }
            }
            // Per stored side: tracked extremum witnesses, when known, must
            // attain their entry's value and belong to the member axis, and
            // the nonzero-member counts must match a recount from the
            // maintained accumulators (themselves verified below). The
            // counts deliberately count maintained *values*: with inexact
            // weights an incremental subtraction can leave a tiny residue
            // where a fresh sum gives an exact zero, and the zero-skip rule
            // is sound for exactly this value-based count.
            for (side, dir) in self.sides.iter().zip(["out", "in"]) {
                let s = &side.sums;
                for member in 0..k {
                    let mut counts = vec![0u32; k];
                    for &u in p.members(member as u32) {
                        for (other, count) in counts.iter_mut().enumerate() {
                            *count += u32::from(side.acc.get(u, other as u32) != 0.0);
                        }
                    }
                    for (other, &count) in counts.iter().enumerate() {
                        let idx = s.idx(member, other);
                        if s.nz[idx] != count {
                            return Err(format!(
                                "{dir}_nz[member {member}][other {other}]: incremental {} vs recounted {count}",
                                s.nz[idx]
                            ));
                        }
                        for (name, arg, val) in [
                            ("min_arg", s.min_arg[idx], s.min[idx]),
                            ("max_arg", s.max_arg[idx], s.max[idx]),
                        ] {
                            if arg == NO_ARG {
                                continue;
                            }
                            let attained = side.acc.get(arg, other as u32);
                            if p.color_of(arg) as usize != member || attained != val {
                                return Err(format!(
                                    "{dir}_{name}[member {member}][other {other}]: witness {arg} (color {}, value {attained}) does not attain {val}",
                                    p.color_of(arg)
                                ));
                            }
                        }
                    }
                }
            }
        }
        // Accumulators, recomputed fresh.
        for v in 0..self.n as NodeId {
            let mut fresh = vec![0.0f64; k];
            for (t, w) in g.out_edges(v) {
                fresh[p.color_of(t) as usize] += w;
            }
            for (j, &expected) in fresh.iter().enumerate() {
                if !close(self.out_degree_of(v, j as u32), expected) {
                    return Err(format!(
                        "dout[{v}][{j}]: incremental {} vs fresh {}",
                        self.out_degree_of(v, j as u32),
                        expected
                    ));
                }
            }
            let mut fresh = vec![0.0f64; k];
            for (s, w) in g.in_edges(v) {
                fresh[p.color_of(s) as usize] += w;
            }
            for (j, &expected) in fresh.iter().enumerate() {
                if !close(self.in_degree_of(v, j as u32), expected) {
                    return Err(format!(
                        "din[{v}][{j}]: incremental {} vs fresh {}",
                        self.in_degree_of(v, j as u32),
                        expected
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- internals ----

    /// Rebuild every pair summary indexed along color `s`'s member axis —
    /// out-entries `(s, j)` and in-entries `(j, s)` for all `j` — by
    /// folding the accumulator rows of `P_s`'s members. `O(|P_s| · k)`.
    fn recompute_color_axis(&mut self, p: &Partition, s: usize) {
        let k = self.k;
        let members = p.members(s as u32);
        for side in &mut self.sides {
            side.acc.fold_members(members, k, &mut self.fold);
            for j in 0..k {
                let idx = side.sums.idx(s, j);
                side.sums.store(idx, &self.fold, j);
            }
        }
        self.row_err_dirty[s] = true;
        self.row_best_dirty[s] = true;
    }

    /// Collect the distinct neighbors of `moved` along `arcs` into
    /// `touched_nodes`, accumulating per-neighbor weight deltas in the
    /// index-parallel `touched_deltas` (so consumers read them
    /// positionally, without a per-node gather).
    ///
    /// Moved lists of at least [`TOUCHED_CHUNK`] nodes use the *canonical
    /// chunked accumulation*: the list is cut into chunks of that fixed
    /// size, each chunk is deduped with a generation-stamped seen-bitmap
    /// into a `(node, chunk-local delta)` list, and the lists are merged in
    /// chunk order. A neighbor's global first appearance is in the earliest
    /// chunk that touches it, at that chunk's local first-touch position, so
    /// the merged touched ordering equals the serial first-appearance scan
    /// exactly. The per-neighbor weight sums, however, are grouped by chunk
    /// — which changes f64 association on non-dyadic weights — so the chunk
    /// size is part of the determinism contract: every engine (and every
    /// checkpoint restore) groups the same way. Below the threshold a single
    /// sequential scan runs, which is the one-chunk case of the same
    /// grouping.
    fn collect_touched(&mut self, g: &Graph, moved: &[NodeId], arcs: Arcs) {
        // Mapped graphs: start faulting the moved nodes' arc span in now,
        // so the batched scan below overlaps page-in with compute (no-op
        // for owned graphs).
        g.advise_arcs_will_need(moved);
        if moved.len() < TOUCHED_CHUNK {
            let gen = self.next_mark_gen();
            self.touched_nodes.clear();
            self.touched_deltas.clear();
            for &v in moved {
                let (nbrs, wts) = arcs(g, v);
                for (&u, &w) in nbrs.iter().zip(wts) {
                    self.touch(gen, u, w);
                }
            }
            return;
        }
        // Chunked: scan each chunk into its own `(node, delta)` list, then
        // merge the lists in chunk order — global first-appearance dedupe,
        // chunk-local partials added in chunk order. (The chunk scans use
        // node_stamp/node_delta as scratch; `node_mark` runs on its own
        // generation counter.)
        let chunks = moved.len().div_ceil(TOUCHED_CHUNK);
        let mut outputs = std::mem::take(&mut self.chunk_out);
        if outputs.len() < chunks {
            outputs.resize_with(chunks, Vec::new);
        }
        for (list, chunk) in outputs.iter_mut().zip(moved.chunks(TOUCHED_CHUNK)) {
            scan_chunk(
                g,
                chunk,
                arcs,
                &mut self.node_stamp,
                &mut self.stamp_gen,
                &mut self.node_delta,
                list,
            );
        }
        let gen = self.next_mark_gen();
        self.touched_nodes.clear();
        self.touched_deltas.clear();
        for list in &outputs[..chunks] {
            for &(u, d) in list {
                self.touch(gen, u, d);
            }
        }
        self.chunk_out = outputs;
    }

    /// Advance the touched-collection generation (clearing the marks when
    /// the counter wraps).
    fn next_mark_gen(&mut self) -> u32 {
        self.mark_gen = self.mark_gen.wrapping_add(1);
        if self.mark_gen == 0 {
            self.node_mark.fill(0);
            self.mark_gen = 1;
        }
        self.mark_gen
    }

    /// Add `delta` to `u`'s touched delta, appending `u` on its first touch
    /// this generation.
    #[inline]
    fn touch(&mut self, gen: u32, u: NodeId, delta: f64) {
        let m = self.node_mark[u as usize];
        if m as u32 != gen {
            self.node_mark[u as usize] = gen as u64 | ((self.touched_nodes.len() as u64) << 32);
            self.touched_nodes.push(u);
            self.touched_deltas.push(delta);
        } else {
            self.touched_deltas[(m >> 32) as usize] += delta;
        }
    }

    /// Grow the column capacity to hold `needed` colors. Capacity doubles
    /// (`next_power_of_two`), so a long split sequence pays `O(log k)`
    /// regrowths — amortized `O(1)` copies per new color, not `O(k²)` copy
    /// traffic per shortfall — and each matrix regrows straight to its
    /// final `new_rows × new_cap` footprint in one allocation + one prefix
    /// copy (see [`regrow`]). Tiered rows (degrees-only *and*
    /// sparse-storage summary engines) skip the accumulator restride
    /// entirely: colors are entry keys there, so the rows never depend on
    /// `cap`.
    fn ensure_capacity(&mut self, needed: usize) {
        if needed <= self.cap {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old_cap = self.cap;
        if self.track_summaries {
            for side in &mut self.sides {
                side.acc.regrow(self.n, new_cap);
                side.sums.regrow(old_cap, new_cap);
            }
            self.row_max_err.resize(new_cap, 0.0);
            self.row_best.resize(new_cap, None);
            self.row_err_dirty.resize(new_cap, true);
            self.row_best_dirty.resize(new_cap, true);
            self.batch.slot.resize(new_cap, u32::MAX);
            self.fold.resize(new_cap);
        }
        self.cap = new_cap;
    }
}

/// Witness selection over from-scratch [`DegreeMatrices`], mirroring the
/// engine's row-ordered scan — including its floating-point operation order
/// and first-strictly-greater tie-breaking — exactly. This is what the
/// non-incremental reference stepper ([`crate::rothko::Rothko::run_reference`])
/// uses, so the incremental and from-scratch paths pick identical witnesses
/// whenever the underlying matrices are numerically identical.
pub fn pick_witness_scratch(
    m: &DegreeMatrices,
    p: &Partition,
    alpha: f64,
    beta: f64,
) -> Option<WitnessCandidate> {
    pick_witnesses_scratch(m, p, alpha, beta, 1)
        .into_iter()
        .next()
}

/// The top-`max_count` witnesses over from-scratch [`DegreeMatrices`], at
/// most one per split color, ordered by descending weight with ties broken
/// towards the smaller color id — the reference-mode counterpart of
/// [`IncrementalDegrees::pick_witnesses`]. Because the per-row scan and the
/// cross-row ordering mirror the engine's exactly, batched reference
/// rounds pick the same candidates as batched incremental rounds whenever
/// the underlying matrices are numerically identical.
pub fn pick_witnesses_scratch(
    m: &DegreeMatrices,
    p: &Partition,
    alpha: f64,
    beta: f64,
    max_count: usize,
) -> Vec<WitnessCandidate> {
    let k = m.k;
    let mut scored: Vec<(f64, u32, RowBest)> = Vec::new();
    for s in 0..k {
        if p.size(s as u32) < 2 {
            continue;
        }
        let mut row_best: Option<RowBest> = None;
        let mut consider = |weighted: f64, error: f64, other: u32, outgoing: bool| match &row_best {
            Some(b) if b.weighted >= weighted => {}
            _ => {
                row_best = Some(RowBest {
                    weighted,
                    other,
                    outgoing,
                    error,
                })
            }
        };
        for j in 0..k {
            let e = m.out_error(s, j);
            if e > 0.0 {
                consider(e * size_pow(p.size(j as u32), beta), e, j as u32, true);
            }
        }
        for i in 0..k {
            let e = m.in_error(i, s);
            if e > 0.0 {
                consider(e * size_pow(p.size(i as u32), beta), e, i as u32, false);
            }
        }
        if let Some(row) = row_best {
            scored.push((
                row.weighted * size_pow(p.size(s as u32), alpha),
                s as u32,
                row,
            ));
        }
    }
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
    scored.truncate(max_count);
    scored
        .into_iter()
        .map(|(_, s, row)| WitnessCandidate {
            split_color: s,
            other_color: row.other,
            outgoing: row.outgoing,
            error: row.error,
        })
        .collect()
}

/// Compact a row-major node-axis matrix through a node remap: survivor
/// rows slide down in order (in place), removed rows are dropped, and the
/// vector is truncated to the new node count.
fn compact_rows(data: &mut Vec<f64>, n_old: usize, cap: usize, remap: &NodeRemap) {
    if cap == 0 {
        return;
    }
    for v in 0..n_old as NodeId {
        if let Some(nv) = remap.map(v) {
            if nv != v {
                let src = v as usize * cap;
                let dst = nv as usize * cap;
                data.copy_within(src..src + cap, dst);
            }
        }
    }
    data.truncate(remap.new_len() * cap);
}

/// Compact per-node tiered rows through a node remap (survivors keep their
/// relative order).
fn compact_sparse_rows(rows: &mut Vec<RowRep>, remap: &NodeRemap) {
    let old = std::mem::take(rows);
    *rows = old
        .into_iter()
        .enumerate()
        .filter(|&(v, _)| !remap.is_removed(v as NodeId))
        .map(|(_, r)| r)
        .collect();
}

/// Regrow a row-major matrix from `rows × old_cap` to `new_rows × new_cap`
/// columns, filling fresh cells with `fill`. One geometric allocation to
/// the final footprint (both axes at once — no intermediate copy through
/// an `old_rows × new_cap` shape), then only the old `rows × old_cap`
/// prefix of each row is copied. The fresh allocation is deliberate:
/// zero-filled matrices come from `alloc_zeroed` (lazy kernel zero pages —
/// the dominant regrowth, a 10k-row accumulator growing its column axis,
/// never writes the ~95% of the target that starts as fill), where an
/// in-place `resize` + restride would stream the whole footprint through
/// the store buffers twice.
fn regrow<T: Copy>(
    data: &mut Vec<T>,
    rows: usize,
    new_rows: usize,
    old_cap: usize,
    new_cap: usize,
    fill: T,
) {
    debug_assert!(new_cap >= old_cap && new_rows >= rows);
    debug_assert_eq!(data.len(), rows * old_cap);
    let mut grown = vec![fill; new_rows * new_cap];
    for r in 0..rows {
        grown[r * new_cap..r * new_cap + old_cap]
            .copy_from_slice(&data[r * old_cap..(r + 1) * old_cap]);
    }
    *data = grown;
}

/// Move row and column `from` of a `cap`-strided square plane to `to`
/// (diagonal handled explicitly). `from` is always the last live color, so
/// the skip set `{from, to}` splits the column range into two contiguous
/// runs — the row moves become two `copy_within` memmoves and the (strided)
/// column moves two branch-free loops.
fn relabel_plane<T: Copy>(m: &mut [T], cap: usize, k: usize, from: usize, to: usize) {
    debug_assert!(from == k - 1 && to < from);
    let diag = m[from * cap + from];
    m.copy_within(from * cap..from * cap + to, to * cap);
    m.copy_within(from * cap + to + 1..from * cap + from, to * cap + to + 1);
    for j in 0..to {
        m[j * cap + to] = m[j * cap + from];
    }
    for j in to + 1..from {
        m[j * cap + to] = m[j * cap + from];
    }
    m[to * cap + to] = diag;
}

/// The tight `rows × cols` prefix of a `stride`-strided row-major buffer.
fn tight<T: Copy>(padded: &[T], rows: usize, cols: usize, stride: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        out.extend_from_slice(&padded[r * stride..r * stride + cols]);
    }
    out
}

/// The tight `k × k` prefix of a summary plane (empty for an absent plane).
fn square<T: Copy>(padded: &[T], k: usize, cap: usize) -> Vec<T> {
    if padded.is_empty() {
        return Vec::new();
    }
    tight(padded, k, k, cap)
}

/// Re-pad a tight `rows × cols` snapshot column back into the full strided
/// buffer construction would allocate (`alloc_rows × stride`; summary
/// planes are `cap × cap`, so rows `k..cap` exist and hold background
/// values — splits that grow `k` within capacity index them before
/// writing). `alloc_rows == 0` marks an absent buffer.
fn pad<T: Copy>(
    tight: &[T],
    rows: usize,
    cols: usize,
    alloc_rows: usize,
    stride: usize,
    fill: T,
) -> Vec<T> {
    if alloc_rows == 0 {
        assert!(
            tight.is_empty(),
            "snapshot column for absent matrix is non-empty"
        );
        return Vec::new();
    }
    assert_eq!(tight.len(), rows * cols, "snapshot column length mismatch");
    let mut out = vec![fill; alloc_rows * stride];
    for r in 0..rows {
        out[r * stride..r * stride + cols].copy_from_slice(&tight[r * cols..(r + 1) * cols]);
    }
    out
}

/// Tiered rows in columnar snapshot form.
fn rows_snapshot(rows: &[RowRep]) -> RowsSnapshot {
    if rows.is_empty() {
        // An empty graph: all columns empty, `is_present` false.
        return RowsSnapshot::default();
    }
    let mut snap = RowsSnapshot {
        offsets: Vec::with_capacity(rows.len() + 1),
        colors: Vec::new(),
        weights: Vec::new(),
        dense: Vec::with_capacity(rows.len()),
    };
    snap.offsets.push(0);
    let mut buf = Vec::new();
    for row in rows {
        buf.clear();
        row.push_nonzero_entries(&mut buf);
        for &(c, w) in &buf {
            snap.colors.push(c);
            snap.weights.push(w);
        }
        snap.offsets.push(snap.colors.len());
        snap.dense.push(row.is_dense());
    }
    snap
}

/// Rebuild `n` tiered rows from their columnar snapshot form, restoring
/// each row's tier.
fn rows_restore(snap: &RowsSnapshot, n: usize, promote_k: usize) -> Vec<RowRep> {
    if !snap.is_present() {
        assert_eq!(
            n, 0,
            "row snapshot absent for a direction that needs {n} rows"
        );
        return Vec::new();
    }
    assert_eq!(
        snap.offsets.len(),
        n + 1,
        "row snapshot offsets length mismatch"
    );
    assert_eq!(
        snap.dense.len(),
        n,
        "row snapshot tier-flag length mismatch"
    );
    assert_eq!(
        *snap.offsets.last().expect("n + 1 offsets"),
        snap.colors.len(),
        "row snapshot entry count mismatch"
    );
    assert_eq!(
        snap.colors.len(),
        snap.weights.len(),
        "row snapshot column mismatch"
    );
    (0..n)
        .map(|v| {
            let (lo, hi) = (snap.offsets[v], snap.offsets[v + 1]);
            let entries: Vec<(u32, f64)> = snap.colors[lo..hi]
                .iter()
                .copied()
                .zip(snap.weights[lo..hi].iter().copied())
                .collect();
            if snap.dense[v] {
                RowRep::dense_from_sorted(&entries, promote_k)
            } else {
                RowRep::Sparse(entries)
            }
        })
        .collect()
}

/// Build one sparse accumulator row from a node's arc slices: per-color
/// weight sums in arc order (stable sort keeps same-color weights in arc
/// order, so each sum matches the dense accumulation bit-for-bit), zeros
/// dropped, sorted by color.
fn sparse_row_from_arcs((nbrs, wts): (&[NodeId], &[f64]), p: &Partition) -> Vec<(u32, f64)> {
    let mut pairs: Vec<(u32, f64)> = nbrs
        .iter()
        .zip(wts.iter())
        .map(|(&u, &w)| (p.color_of(u), w))
        .collect();
    pairs.sort_by_key(|&(c, _)| c);
    let mut row: Vec<(u32, f64)> = Vec::new();
    for (c, w) in pairs {
        match row.last_mut() {
            Some((lc, lw)) if *lc == c => *lw += w,
            _ => row.push((c, w)),
        }
    }
    row.retain(|&(_, w)| w != 0.0);
    row
}

/// Dedupe one chunk of movers' neighbors along `arcs` into `out` as
/// `(node, chunk-local delta)` pairs in first-touch order, using the
/// caller's generation-stamped scratch arrays — the per-chunk kernel of the
/// canonical chunked touched-collection.
fn scan_chunk(
    g: &Graph,
    movers: &[NodeId],
    arcs: Arcs,
    stamp: &mut [u32],
    gen: &mut u32,
    delta: &mut [f64],
    out: &mut Vec<(NodeId, f64)>,
) {
    out.clear();
    *gen = gen.wrapping_add(1);
    if *gen == 0 {
        stamp.fill(0);
        *gen = 1;
    }
    let gen = *gen;
    for &v in movers {
        let (nbrs, wts) = arcs(g, v);
        for (idx, &u) in nbrs.iter().enumerate() {
            if stamp[u as usize] != gen {
                stamp[u as usize] = gen;
                delta[u as usize] = 0.0;
                out.push((u, 0.0));
            }
            delta[u as usize] += wts[idx];
        }
    }
    for entry in out.iter_mut() {
        entry.1 = delta[entry.0 as usize];
    }
}

/// Hand `f` the accumulator changes of a batch of edge events in event
/// order, as `(side, node, column, delta)`: event `(u, v, Δ)` changes
/// `u`'s out-row at `color(v)` and `v`'s in-row at `color(u)`. With one
/// stored side (symmetric graphs) the latter is the mirrored arc's out-row,
/// and a self-loop is a single stored arc.
fn edge_arc_changes(
    p: &Partition,
    events: &[EdgeEvent],
    sides: usize,
    mut f: impl FnMut(usize, NodeId, u32, f64),
) {
    for ev in events {
        let cu = p.color_of(ev.source);
        let cv = p.color_of(ev.target);
        f(0, ev.source, cv, ev.delta);
        if sides == 2 || ev.source != ev.target {
            f(sides - 1, ev.target, cu, ev.delta);
        }
    }
}

/// `size^exponent` with the paper's convention that an exponent of zero
/// disables the weighting entirely (including for empty products).
#[inline]
pub(crate) fn size_pow(size: usize, exponent: f64) -> f64 {
    if exponent == 0.0 {
        1.0
    } else {
        (size as f64).powf(exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{Absolute, Exact};
    use qsc_graph::generators;
    use qsc_graph::GraphBuilder;

    #[test]
    fn discrete_partition_has_zero_error() {
        let g = generators::karate_club();
        let p = Partition::discrete(34);
        assert_eq!(max_q_error(&g, &p), 0.0);
        assert!(is_quasi_stable(&g, &p, &Exact));
    }

    #[test]
    fn unit_partition_error_is_degree_spread() {
        let g = generators::karate_club();
        let p = Partition::unit(34);
        // Max error = max degree - min degree = 17 - 1 = 16.
        assert_eq!(max_q_error(&g, &p), 16.0);
        assert!(!is_quasi_stable(&g, &p, &Exact));
        assert!(is_quasi_stable(&g, &p, &Absolute::new(16.0)));
        assert!(!is_quasi_stable(&g, &p, &Absolute::new(15.0)));
    }

    #[test]
    fn star_partition_errors() {
        // Star with center 0 and 4 leaves; partition {0},{1..4} is stable.
        let mut b = GraphBuilder::new_undirected(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let p = Partition::from_classes(5, vec![vec![0], vec![1, 2, 3, 4]]);
        assert_eq!(max_q_error(&g, &p), 0.0);
        // Putting the center together with leaves: error 4 - 1 = 3.
        let bad = Partition::unit(5);
        assert_eq!(max_q_error(&g, &bad), 3.0);
        let report = q_error_report(&g, &bad);
        assert_eq!(report.max_q, 3.0);
        assert_eq!(report.num_colors, 1);
        assert!(report.worst_pair.is_some());
    }

    #[test]
    fn degree_matrices_shape_and_sum() {
        let g = generators::karate_club();
        let p = Partition::from_assignment(
            &(0..34)
                .map(|v| if v < 17 { 0 } else { 1 })
                .collect::<Vec<_>>(),
        );
        let m = DegreeMatrices::compute(&g, &p);
        assert_eq!(m.k, 2);
        // Total of the sum matrix equals total arc weight.
        let total: f64 = m.sum.iter().sum();
        assert_eq!(total, g.total_weight());
        // Cross-pair sums are symmetric for undirected graphs.
        assert_eq!(m.pair_weight(0, 1), m.pair_weight(1, 0));
    }

    #[test]
    fn directed_in_out_errors_differ() {
        // 0 -> 2, 1 -> 2, 1 -> 3  with colors {0,1}, {2,3}.
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        let g = b.build();
        let p = Partition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let m = DegreeMatrices::compute(&g, &p);
        // Outgoing from color 0 to color 1: node 0 has 1, node 1 has 2 => err 1.
        assert_eq!(m.out_error(0, 1), 1.0);
        // Incoming into color 1 from color 0: node 2 has 2, node 3 has 1 => err 1.
        assert_eq!(m.in_error(0, 1), 1.0);
        // No edges inside color 0.
        assert_eq!(m.out_error(0, 0), 0.0);
        assert_eq!(max_q_error(&g, &p), 1.0);
    }

    #[test]
    fn zero_degree_nodes_counted_in_min() {
        // Color {0,1} where only node 0 has an edge to color {2}: min is 0.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 2, 5.0);
        let g = b.build();
        let p = Partition::from_classes(3, vec![vec![0, 1], vec![2]]);
        let m = DegreeMatrices::compute(&g, &p);
        assert_eq!(m.out_max[1], 5.0);
        assert_eq!(m.out_min[1], 0.0);
        assert_eq!(m.out_error(0, 1), 5.0);
    }

    #[test]
    fn mean_error_leq_max_error() {
        let g = generators::barabasi_albert(200, 3, 7);
        let p = Partition::from_assignment(&(0..200).map(|v| (v % 5) as u32).collect::<Vec<_>>());
        let report = q_error_report(&g, &p);
        assert!(report.mean_q <= report.max_q);
        assert!(report.mean_q >= 0.0);
    }

    #[test]
    fn relative_error_of_star_partition() {
        // Star with center 0 and 4 leaves, all nodes in one color: degrees
        // into the color are {4, 1, 1, 1, 1}, so the relative spread is
        // ln(4 / 1).
        let mut b = GraphBuilder::new_undirected(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let unit = Partition::unit(5);
        let m = DegreeMatrices::compute(&g, &unit);
        assert!((m.out_relative_error(0, 0) - 4.0f64.ln()).abs() < 1e-12);
        assert!((max_relative_error(&g, &unit) - 4.0f64.ln()).abs() < 1e-12);
        // The stable coloring {center}, {leaves} has zero relative error.
        let p = Partition::from_classes(5, vec![vec![0], vec![1, 2, 3, 4]]);
        assert_eq!(max_relative_error(&g, &p), 0.0);
    }

    #[test]
    fn relative_error_infinite_when_zero_mixes_with_nonzero() {
        // Node 1 has no edge into color {2}, node 0 does: zero is only
        // ε-similar to zero, so the relative error is infinite while the
        // absolute error is finite.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 2, 5.0);
        let g = b.build();
        let p = Partition::from_classes(3, vec![vec![0, 1], vec![2]]);
        assert_eq!(max_q_error(&g, &p), 5.0);
        assert!(max_relative_error(&g, &p).is_infinite());
    }

    #[test]
    fn stable_coloring_has_zero_q() {
        let g = generators::colored_regular(10, 8, 4, 2, 3);
        let p = crate::stable::stable_coloring(&g);
        assert_eq!(max_q_error(&g, &p), 0.0);
        assert_eq!(mean_q_error(&g, &p), 0.0);
    }

    /// Random graph with exactly representable weights.
    fn half_weight_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
        use rand::prelude::*;
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
                b.add_edge(u, v, (rng.random_range(1u32..9) as f64) * 0.5);
            }
        }
        b.build()
    }

    #[test]
    fn merge_matches_fresh_engine_across_modes() {
        use rand::prelude::*;
        for (directed, seed) in [(false, 3u64), (true, 19)] {
            let g = half_weight_graph(40, 160, directed, seed);
            let mut p = Partition::unit(40);
            let mut dense = IncrementalDegrees::new(&g, &p);
            let mut sparse = IncrementalDegrees::new_degrees_only(&g, &p);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            // Refine to ~8 colors, then merge random pairs back down,
            // cross-checking the full state after every merge.
            for _ in 0..7 {
                let k = p.num_colors();
                let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
                let Some(&c) = candidates.as_slice().choose(&mut rng) else {
                    break;
                };
                let members: Vec<u32> = p.members(c).to_vec();
                let pivot = members[rng.random_range(0..members.len())];
                if let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) {
                    dense.apply_split(&g, &p, &ev);
                    sparse.apply_split(&g, &p, &ev);
                }
            }
            while p.num_colors() >= 2 {
                let k = p.num_colors() as u32;
                let a = rng.random_range(0..k - 1);
                let b = rng.random_range(a + 1..k);
                let ev = p.merge_colors(a, b);
                dense.apply_merge(&g, &p, &ev);
                sparse.apply_merge(&g, &p, &ev);
                assert_eq!(dense.verify_against(&g, &p), Ok(()));
                assert_eq!(sparse.verify_against(&g, &p), Ok(()));
                // Witness state equals a freshly built engine bit-for-bit.
                dense.refresh(&p, 1.0);
                let mut fresh = IncrementalDegrees::new(&g, &p);
                fresh.refresh(&p, 1.0);
                assert_eq!(dense.max_error().to_bits(), fresh.max_error().to_bits());
                assert_eq!(dense.pick_witness(&p, 1.0), fresh.pick_witness(&p, 1.0));
                assert_eq!(
                    dense.pick_merge(f64::INFINITY),
                    fresh.pick_merge(f64::INFINITY)
                );
            }
        }
    }

    #[test]
    fn merge_bound_is_sound() {
        // The picked merge's bound must dominate the actual post-merge
        // error, and the scratch pick must agree with the engine pick.
        for (directed, seed) in [(false, 7u64), (true, 29)] {
            let g = half_weight_graph(36, 150, directed, seed);
            let mut p = Partition::unit(36);
            let mut engine = IncrementalDegrees::new(&g, &p);
            for pivot in [24u32, 12, 30, 6] {
                if let Some(ev) = p.split_color(p.color_of(pivot), |v| v >= pivot && v != 0) {
                    engine.apply_split(&g, &p, &ev);
                }
            }
            let m = DegreeMatrices::compute(&g, &p);
            assert_eq!(
                engine.pick_merge(f64::INFINITY),
                pick_merge_scratch(&m, f64::INFINITY)
            );
            let cand = engine.pick_merge(f64::INFINITY).expect("k >= 2");
            let ev = p.merge_colors(cand.winner, cand.loser);
            engine.apply_merge(&g, &p, &ev);
            let actual = max_q_error(&g, &p);
            assert!(
                actual <= cand.bound + 1e-9,
                "bound {} below actual {actual}",
                cand.bound
            );
        }
    }

    #[test]
    fn beta_weight_growth_invalidates_untouched_rows() {
        // A merge (or node insert) grows the winner's size. With β > 0 the
        // weight of candidates *targeting* the grown color rises, so an
        // untouched row's cached best — pointing elsewhere — can be
        // silently overtaken. Row A below has edges into W and X but none
        // into L, so merging L into W leaves row A untouched by the fold;
        // its best must still flip from X to the grown W.
        //
        // Nodes: A = {0, 1}, W = {2, 3}, X = {4, 5}, L = {6}.
        let mut b = GraphBuilder::new_directed(7);
        b.add_edge(0, 2, 1.5); // (A, W): error 1.5
        b.add_edge(0, 4, 1.6); // (A, X): error 1.6
        let g = b.build();
        let mut p = Partition::from_classes(7, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6]]);
        let beta = 1.0;
        let mut engine = IncrementalDegrees::new(&g, &p);
        engine.refresh(&p, beta);
        // Pre-merge best of row A: (A, X) at 1.6 · |X| = 3.2 over (A, W)
        // at 1.5 · |W| = 3.0.
        let pre = engine.pick_witness(&p, 0.0).expect("candidates exist");
        assert_eq!((pre.split_color, pre.other_color), (0, 2));
        // Merge L into W: |W| = 3, so (A, W) = 4.5 overtakes.
        let ev = p.merge_colors(1, 3);
        engine.apply_merge(&g, &p, &ev);
        engine.refresh(&p, beta);
        let mut fresh = IncrementalDegrees::new(&g, &p);
        fresh.refresh(&p, beta);
        assert_eq!(engine.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));
        let post = engine.pick_witness(&p, 0.0).expect("candidates exist");
        assert_eq!((post.split_color, post.other_color), (0, 1));

        // The node-insert path grows a color the same way.
        let mut engine = IncrementalDegrees::new(&g, &p);
        engine.refresh(&p, beta);
        let first = p.num_nodes() as u32;
        p.insert_node(1);
        engine.apply_node_inserts(&p, first, &[1]);
        engine.refresh(&p, beta);
        let mut fresh = IncrementalDegrees::new(&g2_with_node(&g), &p);
        fresh.refresh(&p, beta);
        assert_eq!(engine.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));
        let post = engine.pick_witness(&p, 0.0).expect("candidates exist");
        assert_eq!(
            (post.split_color, post.other_color),
            (0, 1),
            "the grown W must overtake X in row A's cached best"
        );
    }

    /// The test graph above with one extra isolated node appended.
    fn g2_with_node(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new_directed(g.num_nodes() + 1);
        for (u, v, w) in g.arcs() {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    #[test]
    fn node_inserts_and_removals_match_fresh_engine() {
        use qsc_graph::GraphDelta;
        for (directed, seed) in [(false, 5u64), (true, 13)] {
            let g = half_weight_graph(30, 120, directed, seed);
            let mut p = Partition::unit(30);
            let mut dense = IncrementalDegrees::new(&g, &p);
            let mut sparse = IncrementalDegrees::new_degrees_only(&g, &p);
            let ev = p.split_color(0, |v| v >= 15).unwrap();
            dense.apply_split(&g, &p, &ev);
            sparse.apply_split(&g, &p, &ev);

            let mut delta = GraphDelta::new(g);
            // Insert two nodes, wire one, remove an existing node (with its
            // edges) and the still-isolated insert.
            let a = delta.insert_node();
            let b = delta.insert_node();
            let first = a;
            p.insert_node(0);
            p.insert_node(1);
            dense.apply_node_inserts(&p, first, &[0, 1]);
            sparse.apply_node_inserts(&p, first, &[0, 1]);

            delta.insert_edge(a, 3, 1.5).unwrap();
            delta.insert_edge(5, a, 2.0).unwrap();
            let victim = 7u32;
            delta.remove_node(victim).unwrap();
            delta.remove_node(b).unwrap();
            let events = delta.drain_events();
            dense.apply_edge_batch(&p, &events);
            sparse.apply_edge_batch(&p, &events);

            let removed_colors = vec![p.color_of(victim), p.color_of(b)];
            let (compacted, remap) = delta.compact_renumber();
            p.apply_node_remap(&remap);
            dense.apply_node_removals(&p, &remap, &removed_colors);
            sparse.apply_node_removals(&p, &remap, &removed_colors);

            assert_eq!(dense.verify_against(&compacted, &p), Ok(()));
            assert_eq!(sparse.verify_against(&compacted, &p), Ok(()));
            dense.refresh(&p, 0.0);
            let mut fresh = IncrementalDegrees::new(&compacted, &p);
            fresh.refresh(&p, 0.0);
            assert_eq!(dense.max_error().to_bits(), fresh.max_error().to_bits());
            assert_eq!(dense.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));
        }
    }

    #[test]
    fn edge_batch_patches_match_compacted_recomputation() {
        use qsc_graph::GraphDelta;
        // Directed and undirected bases, a few splits, then edge batches.
        for directed in [false, true] {
            let g = {
                let mut b = if directed {
                    GraphBuilder::new_directed(8)
                } else {
                    GraphBuilder::new_undirected(8)
                };
                for (u, v, w) in [
                    (0u32, 1u32, 2.0),
                    (1, 2, 1.0),
                    (2, 3, 3.0),
                    (3, 4, 1.0),
                    (4, 5, 2.0),
                    (5, 6, 1.0),
                    (6, 7, 4.0),
                    (0, 7, 1.0),
                    (2, 5, 2.0),
                ] {
                    b.add_edge(u, v, w);
                }
                b.build()
            };
            let mut p = Partition::unit(8);
            let mut engine = IncrementalDegrees::new(&g, &p);
            let ev = p.split_color(0, |v| v >= 4).unwrap();
            engine.apply_split(&g, &p, &ev);

            let mut delta = GraphDelta::new(g);
            delta.insert_edge(0, 3, 2.5).unwrap();
            delta.delete_edge(4, 5).unwrap();
            delta.reweight_edge(6, 7, 1.5).unwrap();
            delta.insert_edge(1, 1, 2.0).unwrap(); // self-loop
            let events = delta.drain_events();
            engine.apply_edge_batch(&p, &events);
            let compacted = delta.compact();
            assert_eq!(engine.verify_against(&compacted, &p), Ok(()));
            // Witness state must agree with a freshly built engine.
            engine.refresh(&p, 0.0);
            let mut fresh = IncrementalDegrees::new(&compacted, &p);
            fresh.refresh(&p, 0.0);
            assert_eq!(engine.max_error().to_bits(), fresh.max_error().to_bits());
            assert_eq!(engine.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));

            // Degrees-only engines take the same events through sparse rows.
            let mut sparse = IncrementalDegrees::new_degrees_only(&compacted, &p);
            let mut delta2 = GraphDelta::new(compacted);
            delta2.delete_edge(0, 3).unwrap();
            delta2.insert_edge(3, 6, 1.0).unwrap();
            let events = delta2.drain_events();
            sparse.apply_edge_batch(&p, &events);
            let compacted2 = delta2.compact();
            assert_eq!(sparse.verify_against(&compacted2, &p), Ok(()));
        }
    }
}
