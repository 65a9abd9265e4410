//! Warm-started LP budget sweeps: the LP instantiation of the sweep
//! pipeline (see `qsc_core::sweep`).
//!
//! The cold path pays, per color budget, a fresh Rothko run over the
//! extended-matrix graph, an `O(nnz)` re-aggregation of `A`/`b`/`c` into
//! the reduced problem, and a from-scratch two-phase simplex solve.
//! [`sweep_lp`] instead threads one refinement through all budgets:
//!
//! * the coloring advances incrementally (`ColoringSweep`);
//! * the reduced problem's aggregate sums are patched per split in
//!   `O(nnz(moved rows/columns))` — each split moves a set of original rows
//!   (or columns) from their color's aggregate into a fresh one, so only
//!   the moved entries are touched ([`ReducedLpDelta`]);
//! * the emitted reduced problem is patched in place per checkpoint
//!   ([`PatchedReducedLp`]: only rows/columns dirtied since the last
//!   checkpoint are re-derived, `O(dirty · k)` instead of the dense
//!   `O(k·l)` re-emission);
//! * the simplex solve restarts from the previous budget's optimal basis
//!   (`solve_warm`), which stays meaningful because a split *appends* one
//!   reduced row or column while keeping all existing indices stable.
//!
//! Reduced row/column colors are numbered by first appearance at sweep
//! start plus appearance order of splits, which can differ from the cold
//! [`crate::reduce::reduce_lp`] numbering — the reduced problems are equal up to that
//! permutation, so their optima coincide (within floating-point tolerance;
//! `tests/tests/sweep_equivalence.rs` pins this down).

use crate::problem::{LpProblem, LpStatus};
use crate::reduce::{coloring_graph, LpColoringConfig, LpReductionVariant};
use crate::simplex::{self, SimplexBasis, SimplexConfig};
use qsc_core::partition::{MergeEvent, SplitEvent};
use qsc_core::rothko::RothkoConfig;
use qsc_core::sweep::ColoringSweep;
use qsc_linalg::{lanes, SparseMatrix};
use std::time::Instant;

/// One budget point of a warm-started LP sweep.
#[derive(Clone, Debug)]
pub struct LpSweepPoint {
    /// The requested color budget (extended-matrix colors, incl. the two
    /// reserved ones).
    pub budget: usize,
    /// Rows of the reduced LP at this checkpoint.
    pub rows: usize,
    /// Columns of the reduced LP at this checkpoint.
    pub cols: usize,
    /// Objective value of the reduced LP.
    pub objective: f64,
    /// Solver status of the reduced solve.
    pub status: LpStatus,
    /// Exact maximum q-error of the checkpoint coloring.
    pub max_q_error: f64,
    /// Wall-clock seconds from the start of the sweep until this budget's
    /// solution was ready (cumulative).
    pub cumulative_seconds: f64,
    /// Simplex pivots of the reduced solve.
    pub simplex_iterations: usize,
    /// Whether the reduced solve reused the previous budget's basis.
    pub warm_used: bool,
}

/// Which side of the bipartite extended matrix a global color aggregates.
#[derive(Clone, Copy, Debug)]
enum ColorKind {
    /// Reduced row with this local index.
    Row(u32),
    /// Reduced column with this local index.
    Col(u32),
    /// The pinned objective row / rhs column (never split).
    Pinned,
}

/// Public mirror of the global-color classification, exposed through
/// [`LpDeltaSnapshot`] so the persistence layer can serialize it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReducedLpColorKind {
    /// Reduced row with this local index.
    Row(u32),
    /// Reduced column with this local index.
    Col(u32),
    /// The pinned objective row / rhs column (never split).
    Pinned,
}

/// A [`ReducedLpDelta`]'s complete logical state minus the problem it
/// borrows, captured by [`ReducedLpDelta::snapshot`] and restored by
/// [`ReducedLpDelta::from_snapshot`] against the *same* [`LpProblem`]
/// (the column-major copy of `A` is rebuilt from the problem rather than
/// stored — it is redundant with it). The pending dirty rows/columns are
/// included in exact order, for the same reason as
/// `qsc_core::reduced::ReducedSnapshot`: un-drained dirtiness must
/// survive a restore or the next re-emission misses updates.
#[derive(Clone, Debug, PartialEq)]
pub struct LpDeltaSnapshot {
    /// Per original row: its reduced (local) row color.
    pub row_local: Vec<u32>,
    /// Per original column: its reduced (local) column color.
    pub col_local: Vec<u32>,
    /// Per global partition color: what it aggregates.
    pub kind_of_global: Vec<ReducedLpColorKind>,
    /// Tight row-major `num_rows × num_cols` aggregate of `A`.
    pub a_sum: Vec<f64>,
    /// Per reduced row: aggregate of `b`.
    pub b_sum: Vec<f64>,
    /// Per reduced column: aggregate of `c`.
    pub c_sum: Vec<f64>,
    /// Original rows per reduced row.
    pub row_sizes: Vec<usize>,
    /// Original columns per reduced column.
    pub col_sizes: Vec<usize>,
    /// Pending dirty reduced rows, in first-dirtied order.
    pub dirty_rows: Vec<u32>,
    /// Pending dirty reduced columns, in first-dirtied order.
    pub dirty_cols: Vec<u32>,
}

/// Incrementally maintained reduced-LP aggregates: `A`, `b`, `c` summed by
/// (row color × column color), patched per [`SplitEvent`] of the
/// extended-matrix coloring in `O(nnz(moved))`.
pub struct ReducedLpDelta<'p> {
    problem: &'p LpProblem,
    /// Per original row/column: its reduced (local) color.
    row_local: Vec<u32>,
    col_local: Vec<u32>,
    /// Per *global* partition color: what it aggregates.
    kind_of_global: Vec<ColorKind>,
    /// `a_sum[r][s] = Σ A(i,j)` over rows `i` of color `r`, columns `j` of
    /// color `s`.
    a_sum: Vec<Vec<f64>>,
    b_sum: Vec<f64>,
    c_sum: Vec<f64>,
    row_sizes: Vec<usize>,
    col_sizes: Vec<usize>,
    /// Column-major copy of `A` for column splits.
    csc: Vec<Vec<(u32, f64)>>,
    /// Reduced rows / columns whose aggregates or sizes changed since the
    /// last [`Self::take_dirty`] — a row split touches only the parent and
    /// child reduced rows, a column split only the parent and child
    /// reduced columns, so [`PatchedReducedLp`] can re-emit in
    /// `O(dirty · k)` instead of the dense `O(k·l)` sweep.
    dirty_rows: Vec<u32>,
    dirty_row_flag: Vec<bool>,
    dirty_cols: Vec<u32>,
    dirty_col_flag: Vec<bool>,
}

impl<'p> ReducedLpDelta<'p> {
    /// Build the single-color aggregates (every row in reduced row 0, every
    /// column in reduced column 0), matching the sweep's pinned initial
    /// partition.
    pub fn new(problem: &'p LpProblem) -> Self {
        let m = problem.num_rows();
        let n = problem.num_cols();
        let mut csc: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut a_total = 0.0f64;
        for (i, j, v) in problem.a.triplets() {
            csc[j as usize].push((i, v));
            a_total += v;
        }
        ReducedLpDelta {
            problem,
            row_local: vec![0; m],
            col_local: vec![0; n],
            // Global colors of the initial partition: 0 = constraint rows,
            // 1 = objective row, 2 = columns, 3 = rhs column.
            kind_of_global: vec![
                ColorKind::Row(0),
                ColorKind::Pinned,
                ColorKind::Col(0),
                ColorKind::Pinned,
            ],
            a_sum: vec![vec![a_total]],
            b_sum: vec![problem.b.iter().sum()],
            c_sum: vec![problem.c.iter().sum()],
            row_sizes: vec![m],
            col_sizes: vec![n],
            csc,
            dirty_rows: vec![0],
            dirty_row_flag: vec![true],
            dirty_cols: vec![0],
            dirty_col_flag: vec![true],
        }
    }

    /// Capture the complete logical state for persistence; see
    /// [`LpDeltaSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> LpDeltaSnapshot {
        let cols = self.col_sizes.len();
        let mut a_sum = Vec::with_capacity(self.row_sizes.len() * cols);
        for row in &self.a_sum {
            debug_assert_eq!(row.len(), cols);
            a_sum.extend_from_slice(row);
        }
        LpDeltaSnapshot {
            row_local: self.row_local.clone(),
            col_local: self.col_local.clone(),
            kind_of_global: self
                .kind_of_global
                .iter()
                .map(|k| match k {
                    ColorKind::Row(r) => ReducedLpColorKind::Row(*r),
                    ColorKind::Col(s) => ReducedLpColorKind::Col(*s),
                    ColorKind::Pinned => ReducedLpColorKind::Pinned,
                })
                .collect(),
            a_sum,
            b_sum: self.b_sum.clone(),
            c_sum: self.c_sum.clone(),
            row_sizes: self.row_sizes.clone(),
            col_sizes: self.col_sizes.clone(),
            dirty_rows: self.dirty_rows.clone(),
            dirty_cols: self.dirty_cols.clone(),
        }
    }

    /// Rebuild from a snapshot against the problem it was captured from,
    /// bit-identical to the instance that produced it. The column-major
    /// copy of `A` is re-derived from `problem` exactly as [`Self::new`]
    /// builds it.
    ///
    /// # Panics
    /// On snapshots whose dimensions disagree with each other or with
    /// `problem` (the persistence layer validates untrusted bytes before
    /// constructing a snapshot; this is a backstop).
    #[must_use]
    pub fn from_snapshot(problem: &'p LpProblem, snap: &LpDeltaSnapshot) -> Self {
        let m = problem.num_rows();
        let n = problem.num_cols();
        assert_eq!(
            snap.row_local.len(),
            m,
            "lp snapshot row map length mismatch"
        );
        assert_eq!(
            snap.col_local.len(),
            n,
            "lp snapshot column map length mismatch"
        );
        let rows = snap.row_sizes.len();
        let cols = snap.col_sizes.len();
        assert_eq!(
            snap.a_sum.len(),
            rows * cols,
            "lp snapshot aggregate length mismatch"
        );
        assert_eq!(snap.b_sum.len(), rows, "lp snapshot b length mismatch");
        assert_eq!(snap.c_sum.len(), cols, "lp snapshot c length mismatch");
        let mut csc: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (i, j, v) in problem.a.triplets() {
            csc[j as usize].push((i, v));
        }
        // Dirty ids at or past the current count are pending removal
        // markers left by merges (see `apply_merge`); they always form the
        // range `[count, count + m)` with `m <= dirty.len()`.
        let row_bound = rows + snap.dirty_rows.len();
        let mut dirty_row_flag = vec![false; row_bound];
        for &r in &snap.dirty_rows {
            assert!(
                (r as usize) < row_bound,
                "lp snapshot dirty row out of range"
            );
            dirty_row_flag[r as usize] = true;
        }
        let col_bound = cols + snap.dirty_cols.len();
        let mut dirty_col_flag = vec![false; col_bound];
        for &s in &snap.dirty_cols {
            assert!(
                (s as usize) < col_bound,
                "lp snapshot dirty column out of range"
            );
            dirty_col_flag[s as usize] = true;
        }
        ReducedLpDelta {
            problem,
            row_local: snap.row_local.clone(),
            col_local: snap.col_local.clone(),
            kind_of_global: snap
                .kind_of_global
                .iter()
                .map(|k| match k {
                    ReducedLpColorKind::Row(r) => ColorKind::Row(*r),
                    ReducedLpColorKind::Col(s) => ColorKind::Col(*s),
                    ReducedLpColorKind::Pinned => ColorKind::Pinned,
                })
                .collect(),
            a_sum: snap
                .a_sum
                .chunks(cols.max(1))
                .map(<[f64]>::to_vec)
                .collect(),
            b_sum: snap.b_sum.clone(),
            c_sum: snap.c_sum.clone(),
            row_sizes: snap.row_sizes.clone(),
            col_sizes: snap.col_sizes.clone(),
            csc,
            dirty_rows: snap.dirty_rows.clone(),
            dirty_row_flag,
            dirty_cols: snap.dirty_cols.clone(),
            dirty_col_flag,
        }
    }

    /// Take the reduced rows and columns dirtied since the last call (in
    /// first-dirtied order), clearing the dirty state.
    pub fn take_dirty(&mut self) -> (Vec<u32>, Vec<u32>) {
        for &r in &self.dirty_rows {
            self.dirty_row_flag[r as usize] = false;
        }
        for &s in &self.dirty_cols {
            self.dirty_col_flag[s as usize] = false;
        }
        (
            std::mem::take(&mut self.dirty_rows),
            std::mem::take(&mut self.dirty_cols),
        )
    }

    fn mark_dirty_row(&mut self, r: u32) {
        if self.dirty_row_flag.len() <= r as usize {
            self.dirty_row_flag.resize(r as usize + 1, false);
        }
        if !self.dirty_row_flag[r as usize] {
            self.dirty_row_flag[r as usize] = true;
            self.dirty_rows.push(r);
        }
    }

    fn mark_dirty_col(&mut self, s: u32) {
        if self.dirty_col_flag.len() <= s as usize {
            self.dirty_col_flag.resize(s as usize + 1, false);
        }
        if !self.dirty_col_flag[s as usize] {
            self.dirty_col_flag[s as usize] = true;
            self.dirty_cols.push(s);
        }
    }

    /// Rows of the reduced LP.
    pub fn num_rows(&self) -> usize {
        self.row_sizes.len()
    }

    /// Columns of the reduced LP.
    pub fn num_cols(&self) -> usize {
        self.col_sizes.len()
    }

    /// Patch the aggregates for one split of the extended-matrix coloring.
    /// Events must be applied in order. Cost: `O(nnz(moved rows/columns))`.
    pub fn apply_split(&mut self, event: &SplitEvent) {
        let m = self.problem.num_rows();
        let kind = self.kind_of_global[event.parent as usize];
        debug_assert_eq!(event.child as usize, self.kind_of_global.len());
        match kind {
            ColorKind::Row(parent) => {
                let child = self.row_sizes.len() as u32;
                self.kind_of_global.push(ColorKind::Row(child));
                let cols = self.col_sizes.len();
                self.a_sum.push(vec![0.0; cols]);
                self.b_sum.push(0.0);
                self.row_sizes.push(0);
                let p = parent as usize;
                let c = child as usize;
                for &node in &event.moved_nodes {
                    let i = node as usize; // row nodes are ids 0..m
                    debug_assert!(i < m, "row split moved a non-row node");
                    for (j, v) in self.problem.a.row(i) {
                        let s = self.col_local[j as usize] as usize;
                        self.a_sum[p][s] -= v;
                        self.a_sum[c][s] += v;
                    }
                    self.b_sum[p] -= self.problem.b[i];
                    self.b_sum[c] += self.problem.b[i];
                    self.row_local[i] = child;
                }
                self.row_sizes[p] -= event.moved_nodes.len();
                self.row_sizes[c] = event.moved_nodes.len();
                self.mark_dirty_row(parent);
                self.mark_dirty_row(child);
            }
            ColorKind::Col(parent) => {
                let child = self.col_sizes.len() as u32;
                self.kind_of_global.push(ColorKind::Col(child));
                for row in self.a_sum.iter_mut() {
                    row.push(0.0);
                }
                self.c_sum.push(0.0);
                self.col_sizes.push(0);
                let p = parent as usize;
                let c = child as usize;
                for &node in &event.moved_nodes {
                    // Column nodes are ids m+1 .. m+1+n.
                    let j = node as usize - (m + 1);
                    for &(i, v) in &self.csc[j] {
                        let r = self.row_local[i as usize] as usize;
                        self.a_sum[r][p] -= v;
                        self.a_sum[r][c] += v;
                    }
                    self.c_sum[p] -= self.problem.c[j];
                    self.c_sum[c] += self.problem.c[j];
                    self.col_local[j] = child;
                }
                self.col_sizes[p] -= event.moved_nodes.len();
                self.col_sizes[c] = event.moved_nodes.len();
                self.mark_dirty_col(parent);
                self.mark_dirty_col(child);
            }
            ColorKind::Pinned => unreachable!("pinned singleton colors are never split"),
        }
    }

    /// Patch the aggregates for one merge of the extended-matrix coloring —
    /// the dual of [`Self::apply_split`]. Both global colors must aggregate
    /// the same side of the bipartite matrix (two reduced rows or two
    /// reduced columns; merging across sides or into a pinned color is a
    /// logic error and panics). `O(k + l)`: the loser's aggregates fold
    /// into the winner's and the local/global last ids relabel into the
    /// freed slots. Dirty marks follow the `qsc_core::reduced::ReducedDelta` convention —
    /// an id at or past the new count marks a removed reduced row/column.
    pub fn apply_merge(&mut self, event: &MergeEvent) {
        let m = self.problem.num_rows();
        let kinds = (
            self.kind_of_global[event.winner as usize],
            self.kind_of_global[event.loser as usize],
        );
        // Global relabel: swap_remove is exactly "last takes the loser's
        // slot".
        debug_assert_eq!(
            event.relabeled,
            (event.loser as usize != self.kind_of_global.len() - 1)
                .then_some(self.kind_of_global.len() as u32 - 1)
        );
        self.kind_of_global.swap_remove(event.loser as usize);
        match kinds {
            (ColorKind::Row(winner), ColorKind::Row(loser)) => {
                let w = winner as usize;
                let l = loser as usize;
                let last = self.row_sizes.len() - 1;
                let folded = std::mem::take(&mut self.a_sum[l]);
                lanes::fold_add(&mut self.a_sum[w], &folded);
                self.b_sum[w] += self.b_sum[l];
                self.row_sizes[w] += self.row_sizes[l];
                for &node in &event.moved_nodes {
                    debug_assert!((node as usize) < m, "row merge moved a non-row node");
                    self.row_local[node as usize] = winner;
                }
                // Relabel local last -> l.
                self.a_sum.swap_remove(l);
                self.b_sum.swap_remove(l);
                self.row_sizes.swap_remove(l);
                if l != last {
                    for slot in self.row_local.iter_mut() {
                        if *slot == last as u32 {
                            *slot = loser;
                        }
                    }
                    // The relabeled local id keeps its global color: fix
                    // the global record that pointed at the old local last.
                    for kind in self.kind_of_global.iter_mut() {
                        if let ColorKind::Row(r) = kind {
                            if *r == last as u32 {
                                *r = loser;
                            }
                        }
                    }
                    self.mark_dirty_row(loser);
                }
                self.mark_dirty_row(winner);
                self.mark_dirty_row(last as u32);
            }
            (ColorKind::Col(winner), ColorKind::Col(loser)) => {
                let w = winner as usize;
                let l = loser as usize;
                let last = self.col_sizes.len() - 1;
                for row in self.a_sum.iter_mut() {
                    row[w] += row[l];
                    row.swap_remove(l);
                }
                self.c_sum[w] += self.c_sum[l];
                self.col_sizes[w] += self.col_sizes[l];
                for &node in &event.moved_nodes {
                    let j = node as usize - (m + 1);
                    self.col_local[j] = winner;
                }
                self.c_sum.swap_remove(l);
                self.col_sizes.swap_remove(l);
                if l != last {
                    for slot in self.col_local.iter_mut() {
                        if *slot == last as u32 {
                            *slot = loser;
                        }
                    }
                    for kind in self.kind_of_global.iter_mut() {
                        if let ColorKind::Col(s) = kind {
                            if *s == last as u32 {
                                *s = loser;
                            }
                        }
                    }
                    self.mark_dirty_col(loser);
                }
                self.mark_dirty_col(winner);
                self.mark_dirty_col(last as u32);
            }
            _ => panic!("LP merges must combine two reduced rows or two reduced columns"),
        }
    }

    /// Build the reduced problem from the maintained aggregates with the
    /// given weighting variant — `O(k·l)`, no rescan of the original LP.
    /// Same construction as [`crate::reduce::reduce_lp`], modulo the
    /// sweep's color numbering.
    pub fn reduced_problem(&self, variant: LpReductionVariant) -> LpProblem {
        let k = self.num_rows();
        let l = self.num_cols();
        let mut triplets = Vec::new();
        for r in 0..k {
            for s in 0..l {
                let scaled = self.scaled_entry(variant, r, s);
                if scaled != 0.0 {
                    triplets.push((r as u32, s as u32, scaled));
                }
            }
        }
        let b_hat: Vec<f64> = (0..k).map(|r| self.scaled_b(variant, r)).collect();
        let c_hat: Vec<f64> = (0..l).map(|s| self.scaled_c(variant, s)).collect();
        LpProblem::new(
            format!("{}-sweep-{}x{}", self.problem.name, k, l),
            SparseMatrix::from_triplets(k, l, &triplets),
            b_hat,
            c_hat,
        )
    }

    /// Scaled reduced-matrix entry `(r, s)` under `variant` (the
    /// [`Self::reduced_problem`] formula).
    fn scaled_entry(&self, variant: LpReductionVariant, r: usize, s: usize) -> f64 {
        let v = self.a_sum[r][s];
        if v == 0.0 {
            return 0.0;
        }
        match variant {
            LpReductionVariant::SqrtNormalized => {
                v / ((self.row_sizes[r] * self.col_sizes[s]) as f64).sqrt()
            }
            LpReductionVariant::GroheAverage => v / self.col_sizes[s] as f64,
        }
    }

    /// Scaled reduced rhs entry `r` under `variant`.
    fn scaled_b(&self, variant: LpReductionVariant, r: usize) -> f64 {
        match variant {
            LpReductionVariant::SqrtNormalized => self.b_sum[r] / (self.row_sizes[r] as f64).sqrt(),
            LpReductionVariant::GroheAverage => self.b_sum[r],
        }
    }

    /// Scaled reduced objective entry `s` under `variant`.
    fn scaled_c(&self, variant: LpReductionVariant, s: usize) -> f64 {
        match variant {
            LpReductionVariant::SqrtNormalized => self.c_sum[s] / (self.col_sizes[s] as f64).sqrt(),
            LpReductionVariant::GroheAverage => self.c_sum[s] / self.col_sizes[s] as f64,
        }
    }

    /// Cross-check the maintained aggregates against a from-scratch
    /// re-aggregation under the current row/column coloring.
    pub fn verify(&self) -> Result<(), String> {
        let k = self.num_rows();
        let l = self.num_cols();
        let mut a_fresh = vec![0.0f64; k * l];
        for (i, j, v) in self.problem.a.triplets() {
            a_fresh
                [self.row_local[i as usize] as usize * l + self.col_local[j as usize] as usize] +=
                v;
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        for r in 0..k {
            for s in 0..l {
                if !close(self.a_sum[r][s], a_fresh[r * l + s]) {
                    return Err(format!(
                        "a_sum[{r}][{s}]: delta {} vs scratch {}",
                        self.a_sum[r][s],
                        a_fresh[r * l + s]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The incrementally *emitted* reduced LP: the scaled sparse rows, rhs and
/// objective a [`ReducedLpDelta::reduced_problem`] call would produce,
/// patched in place per checkpoint from the delta's dirty rows/columns
/// (`O(dirty · k)`) instead of re-derived with the dense `O(k·l)` sweep —
/// the LP twin of `qsc_core::reduced::PatchedReducedGraph`. Values are
/// computed by the same formulas on the same aggregates, so the emitted
/// problem is identical to the re-derived one (entry predicate
/// `a_sum != 0`, row-major order included).
pub struct PatchedReducedLp {
    variant: LpReductionVariant,
    /// Scaled entries per reduced row, sorted by reduced column.
    rows: Vec<Vec<(u32, f64)>>,
    b_hat: Vec<f64>,
    c_hat: Vec<f64>,
}

impl PatchedReducedLp {
    /// Build the emitted instance from the delta's current aggregates
    /// (full sweep, once) and clear its dirty state.
    pub fn new(delta: &mut ReducedLpDelta<'_>, variant: LpReductionVariant) -> Self {
        delta.take_dirty();
        let k = delta.num_rows();
        let l = delta.num_cols();
        let mut emitter = PatchedReducedLp {
            variant,
            rows: Vec::with_capacity(k),
            b_hat: (0..k).map(|r| delta.scaled_b(variant, r)).collect(),
            c_hat: (0..l).map(|s| delta.scaled_c(variant, s)).collect(),
        };
        for r in 0..k {
            let row = emitter.build_row(delta, r);
            emitter.rows.push(row);
        }
        emitter
    }

    /// Re-synchronize with the delta: rebuild dirty rows (including rows
    /// of freshly split colors) and patch dirty columns in the clean rows.
    /// A dirty id at or past the current row/column count marks a reduced
    /// row/column removed by a merge: its row is dropped by the resize and
    /// its column is deleted from every clean row.
    pub fn sync(&mut self, delta: &mut ReducedLpDelta<'_>) {
        let k = delta.num_rows();
        let l = delta.num_cols();
        let (dirty_rows, dirty_cols) = delta.take_dirty();
        self.rows.resize_with(k, Vec::new);
        self.b_hat.resize(k, 0.0);
        self.c_hat.resize(l, 0.0);
        let mut row_is_dirty = vec![false; k];
        for &r in &dirty_rows {
            if (r as usize) >= k {
                continue; // removed reduced row: dropped by the resize
            }
            row_is_dirty[r as usize] = true;
            let row = self.build_row(delta, r as usize);
            self.rows[r as usize] = row;
            self.b_hat[r as usize] = delta.scaled_b(self.variant, r as usize);
        }
        for &s in &dirty_cols {
            if (s as usize) < l {
                self.c_hat[s as usize] = delta.scaled_c(self.variant, s as usize);
            }
        }
        for (r, row) in self.rows.iter_mut().enumerate() {
            if row_is_dirty[r] {
                continue;
            }
            for &s in &dirty_cols {
                let w = if (s as usize) >= l {
                    0.0 // removed reduced column: delete it
                } else {
                    delta.scaled_entry(self.variant, r, s as usize)
                };
                qsc_core::reduced::patch_sorted_row(row, s, w);
            }
        }
    }

    /// Emit the reduced problem (`O(nnz)`; same name, values and triplet
    /// order as [`ReducedLpDelta::reduced_problem`]).
    pub fn to_problem(&self, name: &str) -> LpProblem {
        let k = self.rows.len();
        let l = self.c_hat.len();
        let mut triplets = Vec::new();
        for (r, row) in self.rows.iter().enumerate() {
            for &(s, w) in row {
                triplets.push((r as u32, s, w));
            }
        }
        LpProblem::new(
            format!("{}-sweep-{}x{}", name, k, l),
            SparseMatrix::from_triplets(k, l, &triplets),
            self.b_hat.clone(),
            self.c_hat.clone(),
        )
    }

    fn build_row(&self, delta: &ReducedLpDelta<'_>, r: usize) -> Vec<(u32, f64)> {
        let l = delta.num_cols();
        let mut row = Vec::new();
        for s in 0..l {
            let w = delta.scaled_entry(self.variant, r, s);
            if w != 0.0 {
                row.push((s as u32, w));
            }
        }
        row
    }
}

/// Sweep the coloring-based LP reduction over `budgets` (non-decreasing;
/// each is clamped to at least 4 for the two reserved colors plus one row
/// and one column color), solving each reduced problem with a warm-started
/// simplex.
pub fn sweep_lp(
    problem: &LpProblem,
    budgets: &[usize],
    config: &LpColoringConfig,
    variant: LpReductionVariant,
) -> Vec<LpSweepPoint> {
    assert!(
        budgets.windows(2).all(|w| w[1] >= w[0]),
        "sweep budgets must be non-decreasing (the sweep only refines)"
    );
    let (graph, initial) = coloring_graph(problem);
    let rothko_config = RothkoConfig {
        max_colors: config.max_colors.max(4),
        target_error: config.target_error,
        alpha: config.alpha,
        beta: config.beta,
        split_mean: config.split_mean,
        initial: Some(initial),
        ..Default::default()
    };
    let mut sweep = ColoringSweep::new(&graph, rothko_config);
    let mut delta = ReducedLpDelta::new(problem);
    let mut emitter = PatchedReducedLp::new(&mut delta, variant);
    let simplex_config = SimplexConfig::default();
    let mut basis: Option<SimplexBasis> = None;
    // qsc-audit: allow(no-wallclock-in-results) -- feeds only the reported elapsed_ms metric; objectives, bases and colorings are pure functions of the instance
    let start = Instant::now();
    budgets
        .iter()
        .map(|&budget| {
            let checkpoint = sweep.advance_to(budget.max(4), |_, ev| delta.apply_split(ev));
            // Patch the emitted reduced LP in place: only rows/columns the
            // splits since the last checkpoint dirtied are re-derived.
            emitter.sync(&mut delta);
            let reduced = emitter.to_problem(&problem.name);
            let warm = simplex::solve_warm(&reduced, &simplex_config, basis.as_ref());
            basis = warm.basis;
            LpSweepPoint {
                budget,
                rows: delta.num_rows(),
                cols: delta.num_cols(),
                objective: warm.solution.objective,
                status: warm.solution.status,
                max_q_error: checkpoint.max_q_error,
                cumulative_seconds: start.elapsed().as_secs_f64(),
                simplex_iterations: warm.solution.iterations,
                warm_used: warm.warm_used,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::reduce_with_rothko;

    fn block_problem(seed: u64) -> LpProblem {
        crate::generators::block_lp(&crate::generators::BlockLpSpec {
            name: format!("sweep-block-{seed}"),
            block_rows: 3,
            block_cols: 3,
            rows_per_block: 5,
            cols_per_block: 4,
            density: 0.8,
            noise: 0.05,
            seed,
        })
    }

    #[test]
    fn sweep_objectives_match_cold_reductions() {
        let lp = block_problem(3);
        let budgets = [6usize, 10, 16, 24];
        let config = LpColoringConfig::with_max_colors(usize::MAX);
        let points = sweep_lp(&lp, &budgets, &config, LpReductionVariant::SqrtNormalized);
        assert_eq!(points.len(), budgets.len());
        for (point, &budget) in points.iter().zip(budgets.iter()) {
            let cold_reduced = reduce_with_rothko(
                &lp,
                &LpColoringConfig::with_max_colors(budget),
                LpReductionVariant::SqrtNormalized,
            );
            let cold = simplex::solve(&cold_reduced.problem);
            assert_eq!(point.rows, cold_reduced.num_rows(), "budget {budget}");
            assert_eq!(point.cols, cold_reduced.num_cols(), "budget {budget}");
            assert_eq!(point.status, cold.status, "budget {budget}");
            assert!(
                (point.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
                "budget {budget}: warm {} vs cold {}",
                point.objective,
                cold.objective
            );
        }
        // Later budgets reuse the earlier basis at least once.
        assert!(points.iter().skip(1).any(|p| p.warm_used));
    }

    #[test]
    fn delta_tracks_splits_exactly() {
        let lp = block_problem(9);
        let budgets = [5usize, 9, 15];
        let config = LpColoringConfig::with_max_colors(usize::MAX);
        let (graph, initial) = coloring_graph(&lp);
        let rothko_config = RothkoConfig {
            max_colors: usize::MAX,
            alpha: config.alpha,
            beta: config.beta,
            initial: Some(initial),
            ..Default::default()
        };
        let mut sweep = ColoringSweep::new(&graph, rothko_config);
        let mut delta = ReducedLpDelta::new(&lp);
        for &b in &budgets {
            sweep.advance_to(b, |_, ev| delta.apply_split(ev));
            assert_eq!(delta.verify(), Ok(()));
            let sizes: usize = delta.row_sizes.iter().sum();
            assert_eq!(sizes, lp.num_rows());
            let sizes: usize = delta.col_sizes.iter().sum();
            assert_eq!(sizes, lp.num_cols());
        }
    }

    #[test]
    fn merges_keep_patched_emission_identical_to_dense() {
        // Refine the extended-matrix coloring, then coarsen it back by
        // merging row colors and column colors: the patched emitted LP must
        // stay identical to the dense re-derivation at every step, and the
        // aggregates must match a from-scratch re-aggregation.
        let lp = block_problem(13);
        let (graph, initial) = coloring_graph(&lp);
        let rothko_config = RothkoConfig {
            max_colors: usize::MAX,
            initial: Some(initial),
            ..Default::default()
        };
        let mut sweep = ColoringSweep::new(&graph, rothko_config);
        let mut delta = ReducedLpDelta::new(&lp);
        sweep.advance_to(12, |_, ev| delta.apply_split(ev));
        let mut emitter = PatchedReducedLp::new(&mut delta, LpReductionVariant::SqrtNormalized);
        let mut p = sweep.partition().clone();
        // Merge compatible (same-kind, unpinned) global color pairs until
        // none are left.
        while let Some((a, b)) = mergeable_pair(&p, &lp, None) {
            let ev = p.merge_colors(a, b);
            delta.apply_merge(&ev);
            assert_eq!(delta.verify(), Ok(()));
            emitter.sync(&mut delta);
            let patched = emitter.to_problem(&lp.name);
            let dense = delta.reduced_problem(LpReductionVariant::SqrtNormalized);
            assert_eq!(patched.num_rows(), dense.num_rows());
            assert_eq!(patched.num_cols(), dense.num_cols());
            assert_eq!(patched.b, dense.b);
            assert_eq!(patched.c, dense.c);
            let pt: Vec<_> = patched.a.triplets().collect();
            let dt: Vec<_> = dense.a.triplets().collect();
            assert_eq!(pt, dt);
        }
        assert_eq!(delta.num_rows(), 1);
        assert_eq!(delta.num_cols(), 1);
    }

    /// The first pair of global colors `ReducedLpDelta` can merge: both
    /// unpinned and aggregating the same side (rows when `rows` is
    /// `Some(true)`, columns when `Some(false)`, either when `None`). Kinds
    /// mirror the delta's bookkeeping: row nodes are ids `0..m`, column
    /// nodes `m+1..m+1+n`.
    fn mergeable_pair(
        p: &qsc_core::Partition,
        lp: &LpProblem,
        rows: Option<bool>,
    ) -> Option<(u32, u32)> {
        let m = lp.num_rows();
        let kind_of = |c: u32| {
            let node = p.members(c)[0] as usize;
            if p.size(c) == 1 && (node == m || node == m + 1 + lp.num_cols()) {
                None // pinned objective row / rhs column
            } else {
                Some(node < m)
            }
        };
        let k = p.num_colors() as u32;
        (0..k)
            .flat_map(|a| ((a + 1)..k).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let kind = kind_of(a);
                kind.is_some() && kind == kind_of(b) && rows.is_none_or(|r| kind == Some(r))
            })
    }

    #[test]
    fn snapshot_after_merges_restores_pending_removal_markers() {
        // A merge marks the removed last reduced row (column) dirty — an
        // id equal to the new count. A snapshot taken before the dirty set
        // is drained must restore to the same delta.
        let lp = block_problem(13);
        let (graph, initial) = coloring_graph(&lp);
        let rothko_config = RothkoConfig {
            max_colors: usize::MAX,
            initial: Some(initial),
            ..Default::default()
        };
        let mut sweep = ColoringSweep::new(&graph, rothko_config);
        let mut delta = ReducedLpDelta::new(&lp);
        sweep.advance_to(12, |_, ev| delta.apply_split(ev));
        delta.take_dirty();
        let mut p = sweep.partition().clone();
        for rows in [true, false] {
            let (a, b) = mergeable_pair(&p, &lp, Some(rows)).expect("a mergeable pair");
            delta.apply_merge(&p.merge_colors(a, b));
        }
        let snap = delta.snapshot();
        let mut restored = ReducedLpDelta::from_snapshot(&lp, &snap);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.verify(), Ok(()));
        assert_eq!(restored.verify(), delta.verify());
        let variant = LpReductionVariant::SqrtNormalized;
        let (ours, theirs) = (
            restored.reduced_problem(variant),
            delta.reduced_problem(variant),
        );
        assert_eq!(ours.b, theirs.b);
        assert_eq!(ours.c, theirs.c);
        let ours_a: Vec<_> = ours.a.triplets().collect();
        let theirs_a: Vec<_> = theirs.a.triplets().collect();
        assert_eq!(ours_a, theirs_a);
        assert_eq!(restored.take_dirty(), delta.take_dirty());
    }

    #[test]
    fn grohe_variant_sweep_is_consistent() {
        let lp = block_problem(5);
        let points = sweep_lp(
            &lp,
            &[6, 12],
            &LpColoringConfig::with_max_colors(usize::MAX),
            LpReductionVariant::GroheAverage,
        );
        for p in &points {
            assert_eq!(p.status, LpStatus::Optimal);
            assert!(p.objective.is_finite());
        }
    }
}
