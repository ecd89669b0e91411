//! Guards the committed perf baseline `BENCH_search.json`: the perf-
//! regression gate compares fresh snapshots against this file, so a baseline
//! captured from a dirty tree (uncommitted hot-path edits) would silently
//! shift the reference point. `bench-snapshot` refuses dirty trees unless
//! `--allow-dirty` is passed and records that override in the manifest;
//! this test asserts the committed file was produced without it.

use serde_json::Value;

fn baseline() -> Value {
    let raw = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_search.json"))
        .expect("BENCH_search.json missing from repo root");
    serde_json::from_str(&raw).expect("BENCH_search.json is not valid JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("baseline missing field {key:?}"))
}

#[test]
fn committed_baseline_comes_from_a_clean_tree() {
    let doc = baseline();
    let manifest = field(&doc, "manifest");

    let describe = field(manifest, "git_describe")
        .as_str()
        .expect("manifest.git_describe is not a string");
    assert!(
        !describe.ends_with("-dirty"),
        "baseline captured from a dirty tree: git_describe = {describe:?}; \
         regenerate with `rtsads_sim bench-snapshot --out BENCH_search.json` \
         from a clean checkout"
    );

    let allow_dirty = manifest
        .get("extra")
        .and_then(|e| e.get("allow_dirty"))
        .and_then(Value::as_str)
        .unwrap_or("false");
    assert_ne!(
        allow_dirty, "true",
        "baseline was captured with --allow-dirty; regenerate from a clean tree"
    );
}

#[test]
fn committed_baseline_covers_the_canonical_points_with_profiles() {
    let doc = baseline();
    let points = field(&doc, "points").as_array().expect("points array");
    let names: Vec<&str> = points
        .iter()
        .map(|p| field(p, "name").as_str().expect("point name"))
        .collect();
    // Exactly the canonical points: a lost point escapes the gate, and an
    // extra one is a point `bench-snapshot` no longer measures.
    assert_eq!(
        names,
        [
            "deep_dive_64",
            "mixed_150x8",
            "tight_150x8",
            "sharded_1024x64"
        ],
        "baseline point set differs from the canonical points; regenerate"
    );
    // Every point carries a stage profile whose fractions cover the
    // attributed time (the bench-diff stage comparison reads these), over
    // the current stage set: no `merge` stage or walk `imbalance`, which
    // only existed while phases could split into parallel walks.
    for p in points {
        let name = field(p, "name").as_str().unwrap();
        let profile = field(p, "profile")
            .as_object()
            .unwrap_or_else(|| panic!("point {name:?} lacks a profile"));
        assert!(
            profile.iter().any(|(k, _)| k == "select"),
            "point {name:?} profile predates the select stage; regenerate"
        );
        for stale in ["merge", "imbalance"] {
            assert!(
                profile.iter().all(|(k, _)| k != stale),
                "point {name:?} profile still carries {stale:?}; regenerate"
            );
        }
        let total_ns = profile
            .iter()
            .find(|(k, _)| k == "total_ns")
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0);
        if total_ns > 0 {
            let sum: f64 = profile
                .iter()
                .filter(|(k, _)| k != "total_ns")
                .filter_map(|(_, v)| v.as_f64())
                .sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "point {name:?} stage fractions sum to {sum}, not 1.0"
            );
        }
    }
}
