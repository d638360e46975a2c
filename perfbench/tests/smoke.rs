//! Runs every workload at its smoke size, untraced and traced, and checks
//! that the summary line is correct and carries exactly the metrics
//! `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crn_workloads::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    text.parse().expect("BENCHMARK.json parses")
}

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn summary(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .last()
        .expect("a summary line")
        .parse()
        .expect("the summary line is JSON")
}

/// Every workload the binary runs; `serve_mix` is run by name only and is
/// not in `BENCHMARK.json` (see the README).
const WORKLOADS: [&str; 4] = ["grid_scale", "fig6c_scaled", "serve_mix", "cluster_stream"];

#[test]
fn every_workload_runs_correctly_and_prints_the_declared_metrics() {
    let bench = benchmark();
    for w in names(&bench, "workloads") {
        assert!(WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
    }
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut expected = names(&bench, list);
        expected.sort();
        for w in WORKLOADS {
            let s = summary(w, trace);
            assert_eq!(
                s.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w}: {s}"
            );
            assert_eq!(s.get("failed").and_then(Json::as_u64), Some(0), "{w}: {s}");
            assert!(s.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let Some(Json::Obj(metrics)) = s.get("metrics") else {
                panic!("{w}: no metrics object in {s}");
            };
            let mut got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            got.sort();
            assert_eq!(
                got, expected,
                "{w} (trace {trace}) prints other metrics than {list}"
            );
            if !trace {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    assert!(v > 0.0, "{w}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_status_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
