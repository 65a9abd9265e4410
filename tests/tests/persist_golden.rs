//! Format-compatibility canary: a tiny checkpoint checked into the repo
//! must keep decoding **and** re-encoding to the exact same bytes.
//!
//! The fixture is built from a fully deterministic stack (hand-coded
//! graph, fixed config), so any byte difference means the
//! on-disk format itself changed. That is only allowed together with a
//! `CHECKPOINT_VERSION` bump and a reader for the old version — see the
//! versioning policy in the `qsc_persist` crate docs. Regenerate with
//! `QSC_REGEN_GOLDEN=1 cargo test -p qsc-tests --test persist_golden`.

use std::fs;
use std::path::PathBuf;

use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_graph::GraphBuilder;
use qsc_persist::{
    decode_checkpoint, encode_checkpoint, encode_checkpoint_with, CheckpointData, Layout,
    CHECKPOINT_VERSION, CHECKPOINT_VERSION_MAPPED,
};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden_checkpoint_v1.ckpt")
}

fn fixture_path_v2() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden_checkpoint_v2_raw.ckpt")
}

/// Deterministic miniature stack: two weighted cliques joined by a
/// bridge.
fn golden_data() -> CheckpointData {
    let mut b = GraphBuilder::new_undirected(10);
    for c in [0u32, 5] {
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge(c + i, c + j, 1.5);
            }
        }
    }
    b.add_edge(4, 5, 0.5);
    b.add_edge(0, 9, 0.5);
    let g = b.build();
    let config = RothkoConfig {
        max_colors: 6,
        target_error: 1.0,
        ..Default::default()
    };
    let mut run = Rothko::new(config.clone()).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let snap = run.snapshot();
    drop(run);
    CheckpointData {
        graph: g,
        config,
        run: snap,
        reduced: Some(reduced.snapshot()),
        wal_seq: 3,
    }
}

#[test]
fn golden_checkpoint_stays_byte_stable() {
    assert_eq!(CHECKPOINT_VERSION, 1, "version bump requires a new fixture");
    let data = golden_data();
    let (bytes, stats) = encode_checkpoint(&data);
    let path = fixture_path();
    if std::env::var_os("QSC_REGEN_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &bytes).unwrap();
    }
    let golden = fs::read(&path).expect(
        "golden fixture missing — regenerate with QSC_REGEN_GOLDEN=1 \
         cargo test -p qsc-tests --test persist_golden",
    );
    assert_eq!(
        bytes, golden,
        "checkpoint encoding diverged from the checked-in fixture: the \
         on-disk format changed. If intentional, bump CHECKPOINT_VERSION, \
         keep a reader for version 1, and regenerate the fixture."
    );
    // The checked-in bytes stay readable and round-trip losslessly.
    let decoded = decode_checkpoint(&golden).expect("fixture no longer decodes");
    assert_eq!(encode_checkpoint(&decoded).0, golden);
    assert_eq!(decoded.wal_seq, 3);
    assert_eq!(decoded.graph.num_nodes(), 10);
    assert!(stats.compression_ratio() > 1.0, "fixture should compress");
}

#[test]
fn golden_mapped_checkpoint_stays_byte_stable() {
    assert_eq!(
        CHECKPOINT_VERSION_MAPPED, 2,
        "version bump requires a new fixture"
    );
    let data = golden_data();
    let (bytes, _stats) = encode_checkpoint_with(&data, Layout::MappedRaw);
    let path = fixture_path_v2();
    if std::env::var_os("QSC_REGEN_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &bytes).unwrap();
    }
    let golden = fs::read(&path).expect(
        "golden v2 fixture missing — regenerate with QSC_REGEN_GOLDEN=1 \
         cargo test -p qsc-tests --test persist_golden",
    );
    assert_eq!(
        bytes, golden,
        "mapped-layout encoding diverged from the checked-in fixture: the \
         on-disk format changed. If intentional, bump the mapped version, \
         keep a reader for version 2, and regenerate the fixture."
    );
    // The mapped bytes decode through the owned path and re-encode
    // byte-stably in both layouts; the packed rendering of the same state
    // must match the v1 fixture exactly (layouts differ only in bytes,
    // never in meaning).
    let decoded = decode_checkpoint(&golden).expect("v2 fixture no longer decodes");
    assert_eq!(
        encode_checkpoint_with(&decoded, Layout::MappedRaw).0,
        golden
    );
    assert_eq!(
        encode_checkpoint(&decoded).0,
        fs::read(fixture_path()).expect("v1 fixture missing"),
        "v2 fixture decodes to a different state than the v1 fixture"
    );
    assert_eq!(decoded.wal_seq, 3);
    assert_eq!(decoded.graph.num_nodes(), 10);
}
