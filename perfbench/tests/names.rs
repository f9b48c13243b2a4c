//! The metric tables the benchmark prints from must be exactly the
//! metrics `BENCHMARK.json` declares: a printed metric that is not
//! declared, or a declared one that is never printed, fails here.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

use waves_obs::JsonValue;

fn declared(kind: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &JsonValue, k: &str| {
        m.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    json.get(kind)
        .and_then(JsonValue::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn printed(table: metrics::Table) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    assert_eq!(printed(metrics::END_TO_END), declared("end_to_end"));
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    assert_eq!(printed(metrics::PER_LAYER), declared("per_layer"));
}

#[test]
fn a_report_prints_every_declared_metric_and_nothing_else() {
    let mut rep = metrics::Report::default();
    for (name, _, _) in metrics::END_TO_END {
        rep.set(name, 1.5);
    }
    let line = rep.to_json(metrics::END_TO_END).expect("complete report");
    let json = JsonValue::parse(&line).expect("the result line is JSON");
    let names: Vec<String> = match json.get("metrics") {
        Some(JsonValue::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("no metrics object: {other:?}"),
    };
    let want: Vec<String> = declared("end_to_end")
        .into_iter()
        .map(|(n, _, _)| n)
        .collect();
    assert_eq!(names, want);

    rep.set("core.query_ns", 1.0);
    assert!(
        rep.to_json(metrics::END_TO_END).is_err(),
        "an undeclared metric must be refused"
    );
    let mut short = metrics::Report::default();
    short.set("setup_s", 1.0);
    assert!(
        short.to_json(metrics::END_TO_END).is_err(),
        "a missing metric must be refused"
    );
}
