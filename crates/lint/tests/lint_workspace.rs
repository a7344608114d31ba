//! The linter run against the real workspace: the tree must be clean
//! (no baseline entries by the end of this change), the crate graph
//! must match the declared layering, and the self-test must prove
//! every rule can still fire.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use taster_lint::graph::{layer_of, CrateGraph};
use taster_lint::{find_workspace_root, run, selftest, LintConfig};

fn workspace_root() -> std::path::PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("lint crate lives inside the workspace")
}

#[test]
fn the_workspace_is_lint_clean() {
    let report = run(&LintConfig::for_root(workspace_root())).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "scan looks truncated");
    assert!(report.crates_scanned > 10, "crate graph looks truncated");
}

#[test]
fn the_checked_in_baseline_is_empty() {
    let baseline = workspace_root().join("lint.baseline");
    let text = std::fs::read_to_string(&baseline).expect("lint.baseline is checked in");
    let live: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(
        live.is_empty(),
        "baseline should carry no entries: {live:?}"
    );
}

#[test]
fn self_test_fires_every_rule() {
    let results = selftest::self_test().expect("self-test harness runs");
    assert!(!results.is_empty());
    for r in &results {
        assert!(r.fired, "rule {} did not fire on its fixture", r.rule);
    }
}

// ----------------------------------------------------- crate graph pin

/// Pins the shape of the real workspace graph. If a crate is added,
/// removed, or re-layered, this test states the new expectation so the
/// change is a conscious one.
#[test]
fn the_workspace_graph_matches_the_declared_layering() {
    let graph = CrateGraph::load(&workspace_root());
    let names: Vec<&str> = graph.crates.keys().map(String::as_str).collect();
    assert_eq!(
        graph.crates.len(),
        14,
        "crate count changed — update LAYERS and this pin: {names:?}"
    );

    // Every non-vendor crate must sit in a declared layer.
    for node in graph.crates.values() {
        if node.vendor {
            assert!(
                layer_of(&node.name).is_none(),
                "vendor crate {} must stay outside the layering",
                node.name
            );
        } else {
            assert!(
                layer_of(&node.name).is_some(),
                "crate {} is not assigned to a layer",
                node.name
            );
        }
    }

    // Spot-pin the extremes so an accidental re-layering is loud.
    assert_eq!(layer_of("taster-domain").map(|(n, _)| n), Some(0));
    assert_eq!(layer_of("taster-sim").map(|(n, _)| n), Some(1));
    assert_eq!(layer_of("taster-lint").map(|(n, _)| n), Some(7));
    assert_eq!(layer_of("taster").map(|(n, _)| n), Some(8));
    assert_eq!(layer_of("rand"), None);

    // Every non-dev dependency edge must point strictly downward.
    for node in graph.crates.values() {
        let Some((from_layer, _)) = layer_of(&node.name) else {
            continue;
        };
        for dep in &node.deps {
            if dep.dev {
                continue;
            }
            if let Some((to_layer, _)) = layer_of(&dep.name) {
                assert!(
                    from_layer > to_layer,
                    "{} (layer {from_layer}) depends on {} (layer {to_layer})",
                    node.name,
                    dep.name
                );
            }
        }
    }
}

/// The prose docs may name only crates that exist: every whole-word
/// `taster-<name>` token in README, DESIGN and the architecture notes
/// must be a workspace crate. Tokens followed by `-` or `/` (schema
/// ids such as `taster-lint-graph/v1`, paths) are not crate names.
#[test]
fn docs_name_only_workspace_crates() {
    let root = workspace_root();
    let graph = CrateGraph::load(&root);
    let mut unknown = Vec::new();
    for doc in ["README.md", "DESIGN.md", "docs/ARCHITECTURE.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is checked in");
        for (line_no, line) in text.lines().enumerate() {
            for name in crate_tokens(line) {
                if !graph.crates.contains_key(name) {
                    unknown.push(format!("{doc}:{}: {name}", line_no + 1));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs name crates that are not in the workspace: {unknown:?}"
    );
}

/// Whole-word `taster-<name>` tokens in `line`, skipping those
/// followed by `-` or `/`.
fn crate_tokens(line: &str) -> Vec<&str> {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = line.as_bytes();
    let mut tokens = Vec::new();
    for (start, _) in line.match_indices("taster-") {
        if start > 0 && (ident(bytes[start - 1]) || bytes[start - 1] == b'-') {
            continue;
        }
        let tail = start + "taster-".len();
        let end = bytes[tail..]
            .iter()
            .position(|&b| !ident(b))
            .map_or(bytes.len(), |n| tail + n);
        if end == tail || matches!(bytes.get(end), Some(b'-' | b'/')) {
            continue;
        }
        tokens.push(&line[start..end]);
    }
    tokens
}

// -------------------------------------------------- parallel identity

/// The per-file pass fans out over `sim::par`; the merged report must
/// be byte-identical regardless of worker count.
#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let root = workspace_root();
    let render = |workers: usize| {
        let report = run(&LintConfig {
            workers,
            ..LintConfig::for_root(root.clone())
        })
        .expect("lint run succeeds");
        (report.render_text(), report.render_json())
    };
    let one = render(1);
    assert_eq!(one, render(2), "2-worker output diverged from serial");
    assert_eq!(one, render(8), "8-worker output diverged from serial");
}
