//! Seed plumbing: the workload seed alone determines the inputs, two seeds
//! give different inputs, and runs under either seed report the same
//! metric names and pass the correctness gate.
//!
//! Runs use the real workloads at a reduced dataset size; the minimum
//! sample counts are the benchmark's own, so run these with `--release`.

use skewbench::run::{run, RunConfig};
use skewbench::workload::{Inputs, Spec, WORKLOADS};
use std::path::PathBuf;

fn small(spec: Spec) -> Spec {
    Spec {
        n: 100,
        setup_rounds: 1,
        ..spec
    }
}

fn config(spec: Spec, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        spec: small(spec),
        seed,
        seconds: 0.1,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("skewbench-tests"),
    }
}

fn metric_names(cfg: &RunConfig) -> Vec<String> {
    let report = run(cfg).expect("run completes");
    assert!(
        report.correct(),
        "{} seed {}: gate failed: {:?}",
        cfg.spec.name,
        cfg.seed,
        report.gate.messages
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for spec in WORKLOADS.map(small) {
        let a = Inputs::generate(spec, 1).expect("inputs");
        let again = Inputs::generate(spec, 1).expect("inputs");
        let b = Inputs::generate(spec, 2).expect("inputs");
        assert_eq!(a.dataset.vectors(), again.dataset.vectors());
        assert_ne!(a.dataset.vectors(), b.dataset.vectors(), "{}", spec.name);
        let sets = |i: &Inputs| i.queries.iter().map(|q| q.set.clone()).collect::<Vec<_>>();
        assert_eq!(sets(&a), sets(&again));
        assert_ne!(sets(&a), sets(&b), "{}", spec.name);
        let ops = |i: &Inputs| {
            let mut s = i.ops();
            (0..50)
                .map(|_| format!("{:?}", s.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(&a), ops(&again));
        assert_ne!(ops(&a), ops(&b), "{}", spec.name);
    }
}

/// Names listed under `key` ("end_to_end" or "per_layer") in the
/// repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn both_seeds_emit_the_same_metrics_and_pass_the_gate() {
    for spec in WORKLOADS {
        let first = metric_names(&config(spec, 1, false));
        let second = metric_names(&config(spec, 2, false));
        assert_eq!(first, second, "{}", spec.name);
        assert_eq!(first, listed("end_to_end"), "{}", spec.name);
    }
}

#[test]
fn traced_runs_emit_the_same_layer_metrics_under_both_seeds() {
    let spec = WORKLOADS[1];
    let first = metric_names(&config(spec, 1, true));
    let second = metric_names(&config(spec, 2, true));
    assert_eq!(first, second);
    assert_eq!(first, listed("per_layer"));
}
