#![forbid(unsafe_code)]
//! # qsc-audit
//!
//! A self-contained, offline lint engine that mechanically enforces the
//! workspace's determinism and unsafety contracts. The compiler cannot see
//! these contracts — colorings, witness sequences, and q-error bits must be
//! bit-identical across storage modes and persist/recover
//! cycles — but their known failure modes are all *statically detectable*:
//! hash-order iteration leaking into results, f64 reductions bypassing the
//! canonical sum tree, `unsafe` sites without a written soundness argument,
//! wall-clock reads inside result-bearing code, and parsers that panic on
//! malformed bytes.
//!
//! The engine lexes every workspace `.rs` file with a small hand-rolled
//! lexer ([`lexer`] — strings, char literals, raw strings and nested
//! comments handled exactly; no external parser dependency) and runs the
//! rule set ([`rules`]) over the token stream, producing span-accurate
//! `file:line` diagnostics, an inline suppression syntax with mandatory
//! justifications, and a machine-readable JSON report ([`report`]).
//!
//! Run it as the CI leg does:
//!
//! ```text
//! cargo run -p qsc-audit -- --deny-warnings
//! ```

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::Report;
pub use rules::{lint_source, Finding, Level, RULE_IDS, RULE_SUMMARIES};

use std::path::{Path, PathBuf};

/// Directories scanned below the workspace root. `vendor/` (offline crate
/// stand-ins, to be swapped for the real crates) and build output are
/// excluded by the rules layer as well.
const SCAN_ROOTS: [&str; 3] = ["crates", "tests", "examples"];
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Recursively collect the workspace `.rs` files under `root`, sorted by
/// path so diagnostics and reports are deterministic.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audit every workspace source file under `root` and aggregate the
/// findings into a [`Report`].
pub fn audit_tree(root: &Path) -> std::io::Result<Report> {
    let files = collect_files(root)?;
    let mut report = Report {
        findings: Vec::new(),
        files_scanned: files.len(),
    };
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        report.findings.extend(rules::lint_source(&rel, &src));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
