//! The benchmark's own checks: seeded inputs repeat, metric names are
//! well formed and match BENCHMARK.json, and a tiny run of every
//! workload passes its correctness gate on the development seed and on a
//! held-out seed.

use palo_perfbench::layers::Layers;
use palo_perfbench::{run, serve, suite, sweep, RunCfg, Scale, END_TO_END, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> RunCfg {
    RunCfg { seed, seconds: 1.0, trace, scale: Scale::Tiny }
}

#[test]
fn same_seed_same_inputs() {
    for scale in [Scale::Tiny, Scale::Full] {
        assert_eq!(
            suite::input_labels(7, scale).unwrap(),
            suite::input_labels(7, scale).unwrap()
        );
        assert_eq!(
            sweep::input_labels(7, scale).unwrap(),
            sweep::input_labels(7, scale).unwrap()
        );
        assert_eq!(serve::input_lines(7, scale), serve::input_lines(7, scale));
    }
    assert_ne!(suite::input_labels(7, Scale::Full), suite::input_labels(8, Scale::Full));
    assert_ne!(sweep::input_labels(7, Scale::Full), sweep::input_labels(8, Scale::Full));
    assert_ne!(serve::input_lines(7, Scale::Full), serve::input_lines(8, Scale::Full));
}

#[test]
fn suite_sizes_are_dealt_not_drawn() {
    // Every seed simulates the same multiset of (kernel, size).
    let multiset = |seed| {
        let mut v: Vec<String> = suite::input_labels(seed, Scale::Full)
            .unwrap()
            .into_iter()
            .map(|l| l.split_once(' ').unwrap().1.to_string())
            .collect();
        v.sort();
        v
    };
    assert_eq!(multiset(1), multiset(2));
}

#[test]
fn same_seed_same_counts() {
    let a = run("sweep-analytic", &tiny(3, false)).unwrap();
    let b = run("sweep-analytic", &tiny(3, false)).unwrap();
    // Restart count is time-driven; the cold sweep and gate rows are not.
    let per_restart = |o: &palo_perfbench::Outcome| {
        o.notes.iter().find(|m| m.name == "nests").map(|m| m.value).unwrap()
    };
    assert_eq!(per_restart(&a), per_restart(&b));
    let est = |o: &palo_perfbench::Outcome| {
        o.notes.iter().find(|m| m.name == "est_ms_geomean").map(|m| m.value.to_bits())
    };
    let c = run("suite-cold", &tiny(3, false)).unwrap();
    let d = run("suite-cold", &tiny(3, false)).unwrap();
    assert_eq!(est(&c), est(&d));
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_and_listed() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let layers = Layers::names();
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).chain(layers) {
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name} has unit {unit:?}");
        assert!(seen.insert(name.clone()), "{name} reported twice");
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks {w}");
    }
}

fn assert_passes(workload: &str, cfg: &RunCfg) {
    let out = run(workload, cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.correct(), "{workload} seed {}: {:?}", cfg.seed, out.errors);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    if cfg.trace {
        assert_eq!(names.len(), Layers::names().len());
    } else {
        assert_eq!(names, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{:?}",
            out.metrics
        );
    }
}

#[test]
fn tiny_runs_pass_their_gates() {
    for w in WORKLOADS {
        assert_passes(w, &tiny(1, false));
    }
}

#[test]
fn tiny_traced_runs_pass_their_gates() {
    for w in WORKLOADS {
        assert_passes(w, &tiny(1, true));
    }
}

/// Seed 1 is the development seed; 1009 was never used while writing the
/// benchmark, so later claims can be checked on it.
#[test]
fn held_out_seed_passes_its_gates() {
    for w in WORKLOADS {
        assert_passes(w, &tiny(1009, false));
    }
}

#[test]
fn a_non_finite_metric_is_null_and_not_correct() {
    let mut out = palo_perfbench::Outcome::default();
    out.attempt(true, String::new);
    out.metric("p50_ms", 4.5, "ms");
    assert!(out.correct());
    out.metric("p90_ms", f64::INFINITY, "ms");
    out.metric("throughput_per_s", f64::NAN, "1/s");
    assert!(!out.correct());
    let json = out.to_json();
    assert!(json.contains("\"p50_ms\": {\"value\": 4.5, \"unit\": \"ms\"}"), "{json}");
    assert!(json.contains("\"p90_ms\": {\"value\": null, \"unit\": \"ms\"}"), "{json}");
    assert!(
        json.contains("\"throughput_per_s\": {\"value\": null, \"unit\": \"1/s\"}"),
        "{json}"
    );
    assert!(json.starts_with("{\"correct\": false,"), "{json}");
}
