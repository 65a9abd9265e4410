//! `restart`: the read path of the churn stack — recovery from disk.
//!
//! Set-up builds [`INSTANCES`] `churn_wal` stacks and writes each to two
//! stores, one in the packed checkpoint layout and one in the mapped
//! layout. Both get the same WAL tail after their checkpoint: an edge
//! batch, a node batch and maintenance records. The writer's canonical
//! bytes are captured before the writer is dropped.
//!
//! Each operation is one `Store::recover`, cycling through the stores
//! and alternating the two layouts, followed by a first answer from the recovered stack (the
//! reduced graph). Every recovered stack must be bit-identical to the
//! writer's, compared by canonical checkpoint bytes.

use crate::churn::{canonical_bytes, log, store_options, Origin, Sizes};
use crate::harness::{add, Counts, Meter, Outcome, Settings};
use crate::seeds;
use crate::trace::span;
use qsc_core::reduced::ReductionWeighting;
use qsc_persist::checkpoint::Layout;
use qsc_persist::Store;
use std::path::PathBuf;

/// The WAL tail after the checkpoint: an edge batch, then a node batch
/// (`true`), each followed by a maintenance record.
const TAIL: [bool; 2] = [false, true];

/// Independent stacks (graphs from different sub-seeds) per run: the
/// recovery time follows the stack's color count, which varies a little
/// from graph to graph, and each run averages over these.
const INSTANCES: usize = 4;

/// One stack written to a packed and a mapped store.
struct Pair {
    packed: PathBuf,
    mapped: PathBuf,
    /// Canonical bytes of the writer's stack at the end of the tail.
    writer: Vec<u8>,
    /// WAL records in each tail.
    records: usize,
}

fn write_pair(settings: &Settings, instance: usize) -> Pair {
    let sizes = Sizes::new(settings.tiny);
    let packed = settings.work_dir.join(format!("restart-{instance}-packed"));
    let mapped = settings.work_dir.join(format!("restart-{instance}-mapped"));
    let seed = seeds::derive(settings.seed, &format!("restart-{instance}"));
    let mut stack = Origin::build(seed, sizes).stack();
    let mut stores = [
        Store::create(&packed, store_options(Layout::Packed)).expect("create store"),
        Store::create(&mapped, store_options(Layout::MappedRaw)).expect("create store"),
    ];
    for store in &mut stores {
        store
            .checkpoint(&stack.run, Some(&stack.reduced))
            .expect("checkpoint");
    }
    let mut records = 0;
    for node in TAIL {
        let batch = if node {
            stack.node_batch()
        } else {
            stack.edge_batch()
        };
        for store in &mut stores {
            log(store, &batch);
            store.sync().expect("WAL sync");
        }
        records += 2;
        stack.apply(batch);
    }
    Pair {
        packed,
        mapped,
        writer: canonical_bytes(&stack.run, Some(&stack.reduced)),
        records,
    }
}

pub fn run(settings: &Settings) -> Outcome {
    let window = if settings.tiny { 10 } else { 100 };
    let mut meter = Meter::new(settings, window);
    let pairs = meter.setup(settings.setup_repeats(), || {
        (0..INSTANCES)
            .map(|i| write_pair(settings, i))
            .collect::<Vec<_>>()
    });

    let mut counts = Counts::new();
    let mut resident_bytes = 0.0;
    while meter.keep_going() {
        for (pair, layout) in pairs
            .iter()
            .flat_map(|p| [(p, Layout::Packed), (p, Layout::MappedRaw)])
        {
            let (dir, span_name) = match layout {
                Layout::Packed => (&pair.packed, "persist.recover_packed"),
                Layout::MappedRaw => (&pair.mapped, "persist.recover_mapped"),
            };
            let i = meter.attempted;
            meter.begin();
            let recovered = span(span_name, || Store::recover(dir, None));
            let answer = recovered.as_ref().ok().and_then(|rec| {
                let reduced = rec.reduced.as_ref()?;
                Some(span("core.reduced", || {
                    reduced.reduced_graph(ReductionWeighting::Sum)
                }))
            });
            meter.end();
            match recovered {
                Ok(rec) => {
                    let ok = answer
                        .is_some_and(|g| g.num_nodes() == rec.run.partition().num_colors())
                        && rec.replayed == pair.records
                        && canonical_bytes(&rec.run, rec.reduced.as_ref()) == pair.writer;
                    meter.check(ok, || {
                        format!("{layout:?} recovery {i} differs from the writer's stack")
                    });
                    if (i as usize) < window {
                        add(&mut counts, "persist.replayed", rec.replayed as f64);
                    }
                    resident_bytes = rec.run.engine().map_or(0.0, |e| e.resident_bytes() as f64);
                }
                Err(e) => meter.check(false, || format!("{layout:?} recovery {i} failed: {e}")),
            }
        }
    }
    for pair in &pairs {
        let _ = std::fs::remove_dir_all(&pair.packed);
        let _ = std::fs::remove_dir_all(&pair.mapped);
    }
    Outcome {
        meter,
        counts,
        resident_bytes,
    }
}
