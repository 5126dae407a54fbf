//! Fast-mode runs of every workload through the real service: the
//! output check passes on honest replies and fails on a corrupted one,
//! and inputs are a pure function of the seed.

use perfbench::run::{run, Options};
use perfbench::workload::{Inputs, Kind};

fn fast(kind: Kind, seed: u64, trace: bool, corrupt: bool) -> Options {
    Options { kind, seed, seconds: 0.3, trace, corrupt }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`
/// (`end_to_end` or `per_layer`), in file order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let body = text.split(&format!("\"{section}\"")).nth(1).expect("the section exists");
    let body = body.split(']').next().expect("the section is a list");
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("a quoted name");
            let unit = entry.split("\"unit\": \"").nth(1).expect("a unit");
            (name.to_string(), unit.split('"').next().expect("a quoted unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_passes_the_output_check() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let report = run(&fast(kind, 101, trace, false)).expect("fast run completes");
            assert!(report.correct, "{} trace={trace}: {:#?}", kind.name(), report.lines);
            assert!(report.attempted > 0 && report.failed == 0, "{}", kind.name());
            assert!(report
                .lines
                .iter()
                .filter(|l| l.contains("output check"))
                .all(|l| l.contains("ok")));
            let printed: Vec<(String, String)> =
                report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, declared(section), "{} trace={trace}", kind.name());
            let e2e_zero = report.metrics.iter().find(|m| !trace && m.value <= 0.0);
            assert!(
                e2e_zero.is_none(),
                "{}: an end-to-end metric read 0: {e2e_zero:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn a_corrupted_reply_fails_the_output_check() {
    for kind in Kind::ALL {
        let report = run(&fast(kind, 102, false, true)).expect("fast run completes");
        assert!(!report.correct, "{}: the corrupted reply went unnoticed", kind.name());
        assert!(
            report.lines.iter().any(|l| l.contains("FAILED") && l.contains("differ")),
            "{}: {:#?}",
            kind.name(),
            report.lines
        );
        assert!(report.json().starts_with("{\"correct\": false,"));
    }
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for kind in Kind::ALL {
        let first = Inputs::generate(kind, 7);
        assert_eq!(first, Inputs::generate(kind, 7), "{}: same seed, other inputs", kind.name());
        let other = Inputs::generate(kind, 8);
        assert_ne!(first.windows, other.windows, "{}: other seed, same ids", kind.name());
        assert_eq!(first.configs, other.configs, "{}: the service config moved", kind.name());
    }
}
