//! The dynamic write path: a colored graph under edge and node churn,
//! logged to a write-ahead store.
//!
//! [`Stack`] is the live state both `churn_wal` and `restart` start from
//! (see [`Origin`]): a colored Barabási–Albert graph maintained at a
//! q-error target, with its lockstep reduced instance.
//! Each batch is drawn through `GraphDelta` (edge deletions plus
//! insertions; every tenth batch is node churn), compacted, logged and
//! synced once, then applied (`apply_edge_batch` / `apply_node_batch`,
//! `maintain_with`, the `ReducedDelta` patch) — the order `Store`'s own
//! documentation prescribes.
//!
//! `churn_wal` times one batch per operation, with a periodic
//! `Store::checkpoint`. Batches come in periods that each start again
//! from the origin, so every period does the same work — the determinism
//! guard compares their counts. At the end of the run the store is
//! recovered and must be bit-identical to the live stack, compared by
//! canonical checkpoint bytes.

use crate::harness::{add, Counts, Meter, Outcome, Settings};
use crate::seeds::{self, Rng};
use crate::trace::span;
use qsc_core::partition::PartitionEvent;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{NodeChurnBatch, Rothko, RothkoConfig, RothkoRun, RunSnapshot};
use qsc_graph::{EdgeEvent, Graph, GraphDelta, NodeId};
use qsc_persist::checkpoint::{encode_checkpoint, CheckpointData, Layout};
use qsc_persist::{Store, StoreOptions};
use std::path::Path;

/// Sizes of the churn instance.
#[derive(Clone, Copy)]
pub struct Sizes {
    nodes: usize,
    attach: usize,
    /// The q-error the coloring is refined to and maintained at.
    target_q: f64,
    /// Edge deletions (and as many insertions) per edge batch.
    edge_ops: usize,
    /// Node insertions (and as many removals) per node batch.
    node_ops: usize,
    /// Edges wired to each inserted node.
    wire: usize,
}

impl Sizes {
    pub fn new(tiny: bool) -> Self {
        if tiny {
            Sizes {
                nodes: 2_000,
                attach: 5,
                target_q: 6.0,
                edge_ops: 20,
                node_ops: 4,
                wire: 3,
            }
        } else {
            Sizes {
                nodes: 100_000,
                attach: 5,
                target_q: 6.0,
                edge_ops: 500,
                node_ops: 50,
                wire: 5,
            }
        }
    }
}

/// Every tenth batch is node churn.
const NODE_BATCH_EVERY: usize = 10;

/// One drawn batch and the compacted graph it leads to.
pub enum Batch {
    Edge(Vec<EdgeEvent>, Graph),
    Node(NodeChurnBatch, Graph),
}

impl Batch {
    /// Events the batch logs: edge events plus node insertions and
    /// removals.
    pub fn events(&self) -> usize {
        match self {
            Batch::Edge(events, _) => events.len(),
            Batch::Node(b, _) => b.edge_events.len() + b.inserted_colors.len() + b.removed.len(),
        }
    }

    fn compacted(&self) -> &Graph {
        match self {
            Batch::Edge(_, g) | Batch::Node(_, g) => g,
        }
    }
}

/// The state a churn run starts from: a Barabási–Albert graph whose
/// coloring is refined until its q-error is at most `target_q` and then
/// maintained at that target.
///
/// On `BA(100k, 5)` q = 6 takes about 500 colors. The target is pinned
/// rather than taken from a fixed color budget because the q-error a
/// budget reaches is an extreme-value statistic: at 512 colors it ranges
/// from 6 to 9 across seeds, and maintenance work per batch with it (by
/// about ten times).
pub struct Origin {
    graph: Graph,
    config: RothkoConfig,
    snapshot: RunSnapshot,
    edges: Vec<(NodeId, NodeId)>,
    choices_seed: u64,
    sizes: Sizes,
}

impl Origin {
    pub fn build(seed: u64, sizes: Sizes) -> Origin {
        let graph = qsc_graph::generators::barabasi_albert(
            sizes.nodes,
            sizes.attach,
            seeds::derive(seed, "churn-graph"),
        );
        let config = RothkoConfig::with_target_error(sizes.target_q);
        let snapshot = {
            let mut run = Rothko::new(config.clone()).start(&graph);
            run.maintain();
            run.snapshot()
        };
        Origin {
            edges: graph.edges().iter().map(|&(u, v, _)| (u, v)).collect(),
            graph,
            config,
            snapshot,
            choices_seed: seeds::derive(seed, "churn-choices"),
            sizes,
        }
    }

    /// A live stack at the origin. Every stack draws the same batches.
    pub fn stack(&self) -> Stack {
        let run = RothkoRun::from_snapshot(self.graph.clone(), self.config.clone(), &self.snapshot);
        Stack {
            reduced: ReducedDelta::new(run.graph(), run.partition()),
            run,
            delta: GraphDelta::new(self.graph.clone()),
            edges: self.edges.clone(),
            rng: Rng::new(self.choices_seed),
            sizes: self.sizes,
            batches: 0,
        }
    }
}

/// The live stack: run, reduced instance, and the working graph the
/// batches are drawn against.
pub struct Stack {
    pub run: RothkoRun<'static>,
    pub reduced: ReducedDelta,
    delta: GraphDelta,
    /// Live edges, for drawing deletions.
    edges: Vec<(NodeId, NodeId)>,
    rng: Rng,
    sizes: Sizes,
    batches: usize,
}

impl Stack {
    /// Draw the next batch through the `GraphDelta` and compact it.
    pub fn next_batch(&mut self) -> Batch {
        self.batches += 1;
        if self.batches.is_multiple_of(NODE_BATCH_EVERY) {
            self.node_batch()
        } else {
            self.edge_batch()
        }
    }

    /// Delete `edge_ops` random edges and insert as many fresh ones.
    pub fn edge_batch(&mut self) -> Batch {
        let n = self.delta.num_nodes();
        let delta = &mut self.delta;
        for _ in 0..self.sizes.edge_ops {
            let (u, v) = self.edges.swap_remove(self.rng.below(self.edges.len()));
            span("graph.mutate", || delta.delete_edge(u, v)).expect("tracked edge exists");
        }
        for _ in 0..self.sizes.edge_ops {
            loop {
                let u = self.rng.below(n) as NodeId;
                let v = self.rng.below(n) as NodeId;
                if u != v && !span("graph.mutate", || delta.has_edge(u, v)) {
                    span("graph.mutate", || delta.insert_edge(u, v, 1.0)).expect("fresh edge");
                    self.edges.push((u, v));
                    break;
                }
            }
        }
        let events = span("graph.mutate", || delta.drain_events());
        let compacted = span("graph.compact", || delta.compact());
        Batch::Edge(events, compacted)
    }

    /// Insert `node_ops` nodes (each wired to `wire` random live nodes
    /// and colored like its first neighbor) and remove as many nodes
    /// whose colors keep at least two members.
    pub fn node_batch(&mut self) -> Batch {
        let delta = &mut self.delta;
        let p = self.run.partition();
        let n0 = delta.num_nodes();
        let mut sizes = p.sizes();
        let mut inserted_colors = Vec::new();
        for _ in 0..self.sizes.node_ops {
            let v = span("graph.mutate", || delta.insert_node());
            let mut color = None;
            for _ in 0..self.sizes.wire {
                for _ in 0..50 {
                    let t = self.rng.below(n0) as NodeId;
                    let free = span("graph.mutate", || delta.is_live(t) && !delta.has_edge(v, t));
                    if free {
                        span("graph.mutate", || delta.insert_edge(v, t, 1.0)).expect("fresh edge");
                        color.get_or_insert(p.color_of(t));
                        break;
                    }
                }
            }
            let c = color.unwrap_or(0);
            inserted_colors.push(c);
            sizes[c as usize] += 1;
        }
        let mut removed = Vec::new();
        for _ in 0..self.sizes.node_ops {
            for _ in 0..100 {
                let v = self.rng.below(n0) as NodeId;
                let c = p.color_of(v) as usize;
                if span("graph.mutate", || delta.is_live(v)) && sizes[c] >= 2 {
                    span("graph.mutate", || delta.remove_node(v)).expect("live node");
                    sizes[c] -= 1;
                    removed.push(v);
                    break;
                }
            }
        }
        let edge_events = span("graph.mutate", || {
            let events = delta.drain_events();
            delta.drain_node_events();
            events
        });
        let (compacted, remap) = span("graph.compact", || delta.compact_renumber());
        // Carry the live edge list into the renumbered id space: drop the
        // edges of removed nodes, then add the inserted nodes' edges.
        self.edges
            .retain_mut(|(u, v)| match (remap.map(*u), remap.map(*v)) {
                (Some(a), Some(b)) => {
                    (*u, *v) = (a, b);
                    true
                }
                _ => false,
            });
        for e in edge_events.iter().filter(|e| e.delta > 0.0) {
            if let (Some(a), Some(b)) = (remap.map(e.source), remap.map(e.target)) {
                self.edges.push((a, b));
            }
        }
        Batch::Node(
            NodeChurnBatch {
                inserted_colors,
                edge_events,
                removed,
                remap,
            },
            compacted,
        )
    }

    /// Apply a batch to the run and the reduced instance, then maintain.
    /// Returns the number of maintenance events (splits and merges).
    pub fn apply(&mut self, batch: Batch) -> usize {
        let run = &mut self.run;
        let reduced = &mut self.reduced;
        match batch {
            Batch::Edge(events, compacted) => {
                span("core.reduced", || {
                    reduced.apply_edge_batch(run.partition(), &events)
                });
                span("core.apply", || run.apply_edge_batch(compacted, &events));
            }
            Batch::Node(batch, compacted) => {
                // The reduced lockstep needs the pre-remap partition (the
                // batch's events speak the grown id space).
                span("core.reduced", || {
                    let mut p = run.partition().clone();
                    for &c in &batch.inserted_colors {
                        p.insert_node(c);
                        reduced.apply_node_insert(c);
                    }
                    reduced.apply_edge_batch(&p, &batch.edge_events);
                    for &v in &batch.removed {
                        reduced.apply_node_removal(p.color_of(v));
                    }
                });
                span("core.apply", || run.apply_node_batch(compacted, &batch));
            }
        }
        let graph = self.delta.base();
        span("core.maintain", || {
            run.maintain_with(|p, ev| {
                span("core.reduced", || match ev {
                    PartitionEvent::Split(s) => reduced.apply_split(graph, p, s),
                    PartitionEvent::Merge(m) => reduced.apply_merge(m),
                    PartitionEvent::NodeInsert { .. } | PartitionEvent::NodeRemove { .. } => {}
                })
            })
        })
    }

    /// Whether the run, the reduced instance and the working graph agree
    /// on the node and color counts.
    pub fn consistent(&self) -> bool {
        let p = self.run.partition();
        self.reduced.num_colors() == p.num_colors()
            && p.num_nodes() == self.delta.num_nodes()
            && self.run.graph().num_nodes() == p.num_nodes()
    }

    pub fn resident_bytes(&self) -> f64 {
        self.run.engine().map_or(0.0, |e| e.resident_bytes() as f64)
    }
}

/// Log a batch (and the maintenance that follows it) to `store`.
pub fn log(store: &mut Store, batch: &Batch) {
    match batch {
        Batch::Edge(events, _) => store.log_edge_batch(events),
        Batch::Node(b, _) => store.log_node_batch(b),
    }
    .expect("WAL append");
    store.log_maintain().expect("WAL append");
}

/// Canonical bytes of a stack: the packed checkpoint encoding with the
/// WAL coverage zeroed, so a live stack and a recovered one compare
/// byte for byte.
pub fn canonical_bytes(run: &RothkoRun<'_>, reduced: Option<&ReducedDelta>) -> Vec<u8> {
    let data = CheckpointData {
        graph: run.graph().clone(),
        config: run.config().clone(),
        run: run.snapshot(),
        reduced: reduced.map(ReducedDelta::snapshot),
        wal_seq: 0,
    };
    encode_checkpoint(&data).0
}

/// Write-path options: the benchmark syncs once per batch itself.
pub fn store_options(layout: Layout) -> StoreOptions {
    StoreOptions {
        sync_every_bytes: u64::MAX,
        layout,
        ..StoreOptions::default()
    }
}

/// Total bytes of the WAL segments in a store directory.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store directory is readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Batches between checkpoints.
const CHECKPOINT_EVERY: usize = 25;

/// Batches per period (see [`run`]): a whole number of node-batch and
/// checkpoint cycles, so every period has the same mix.
const PERIOD: usize = 50;
const _: () =
    assert!(PERIOD.is_multiple_of(NODE_BATCH_EVERY) && PERIOD.is_multiple_of(CHECKPOINT_EVERY));

pub fn run(settings: &Settings) -> Outcome {
    let mut meter = Meter::new(settings, 2 * PERIOD);
    let dir = settings.work_dir.join("churn_wal");
    let origin = meter.setup(settings.setup_repeats(), || {
        Origin::build(settings.seed, Sizes::new(settings.tiny))
    });

    let mut first: Option<Counts> = None;
    let mut last = None;
    while meter.keep_going() {
        // Every period starts again from the origin, with a fresh store:
        // the state (colors, memory) stays stationary however many
        // periods the time allows, and every period draws the same
        // batches. The rewind is not part of any operation.
        drop(last.take());
        let mut stack = origin.stack();
        let mut store = Store::create(&dir, store_options(Layout::Packed)).expect("create store");
        store
            .checkpoint(&stack.run, Some(&stack.reduced))
            .expect("initial checkpoint");
        let mut counts = Counts::new();
        let mut wal_mark = wal_bytes(&dir);
        for i in 0..PERIOD {
            meter.begin();
            let batch = stack.next_batch();
            let events = batch.events();
            let arcs = batch.compacted().num_arcs();
            span("persist.append", || log(&mut store, &batch));
            span("persist.sync", || store.sync()).expect("WAL sync");
            let wal_now = wal_bytes(&dir);
            let maintain_events = stack.apply(batch);
            // Checkpoints fall mid-cycle, so a period always ends with a
            // WAL tail that the final recovery has to replay.
            let checkpoint = i % CHECKPOINT_EVERY == CHECKPOINT_EVERY / 2;
            let checkpoint_bytes = if checkpoint {
                span("persist.checkpoint", || {
                    store.checkpoint(&stack.run, Some(&stack.reduced))
                })
                .expect("checkpoint")
                .file_bytes
            } else {
                0
            };
            meter.end();
            meter.check(stack.consistent(), || {
                format!("batch {i}: run, reduced instance and graph disagree on sizes")
            });
            add(&mut counts, "graph.compact_arcs", arcs as f64);
            add(&mut counts, "graph.events", events as f64);
            add(&mut counts, "core.maintain_events", maintain_events as f64);
            add(
                &mut counts,
                "persist.wal_bytes",
                (wal_now - wal_mark) as f64,
            );
            add(
                &mut counts,
                "persist.checkpoint_bytes",
                checkpoint_bytes as f64,
            );
            wal_mark = if checkpoint { wal_bytes(&dir) } else { wal_now };
        }
        match &first {
            None => first = Some(counts),
            Some(f) if *f != counts => {
                meter.failures.push(format!(
                    "period counts differ from the first period: {f:?} vs {counts:?}"
                ));
            }
            Some(_) => {}
        }
        last = Some((stack, store));
    }

    // Durability check: the store recovers to exactly the live stack.
    let (stack, store) = last.expect("at least one period ran");
    let resident_bytes = stack.resident_bytes();
    let live = canonical_bytes(&stack.run, Some(&stack.reduced));
    drop((stack, store));
    match Store::recover(&dir, None) {
        Ok(rec) => {
            if canonical_bytes(&rec.run, rec.reduced.as_ref()) != live {
                meter.fail_all("recovered store differs from the live stack".into());
            }
        }
        Err(e) => meter.fail_all(format!("recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut counts = first.expect("at least one period ran");
    let events = counts.remove("graph.events").unwrap_or(0.0);
    let arcs = counts["graph.compact_arcs"];
    counts.insert("graph.compact_useful_ratio", events / arcs);
    let written = counts["persist.wal_bytes"] + counts["persist.checkpoint_bytes"];
    counts.insert("persist.write_bytes_per_event", written / events);
    Outcome {
        meter,
        counts,
        resident_bytes,
    }
}
