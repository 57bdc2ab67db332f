//! `BENCHMARK.json` and the binary must describe the same benchmark.

use ficus_bench::report::Json;
use ficus_benchmark::compare::BM_END_TO_END;
use ficus_benchmark::json::{bm_record_line, bm_result_line, BmRecord};
use ficus_benchmark::run::{bm_run, BmOptions};
use ficus_benchmark::workload::BM_WORKLOADS;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

#[test]
fn declared_workloads_and_end_to_end_metrics_match_the_harness() {
    let doc = declared();
    assert_eq!(names(&doc, "workloads"), BM_WORKLOADS);
    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(e2e.len(), BM_END_TO_END.len());
    for (declared, ours) in e2e.iter().zip(&BM_END_TO_END) {
        let text = |k: &str| declared.get(k).and_then(Json::as_str).unwrap();
        assert_eq!(text("name"), ours.name);
        assert_eq!(text("unit"), ours.unit, "{}", ours.name);
        assert_eq!(
            text("better") == "higher",
            ours.higher_is_better,
            "{}",
            ours.name
        );
        let bound = declared.get("bound").and_then(Json::as_f64).unwrap();
        assert_eq!(bound, ours.bound, "{}", ours.name);
        assert!(bound <= 0.25);
    }
    let setup = &BM_END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.higher_is_better),
        ("setup_s", "s", false)
    );
    assert!(BM_END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn a_run_prints_exactly_the_declared_metrics() {
    let doc = declared();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = bm_run(&BmOptions {
            workload: "devcycle_local".to_owned(),
            seed: 3,
            seconds: 10,
            trace,
            quick: true,
            trace_dir: None,
        })
        .unwrap();
        let printed: Vec<String> = report.metrics.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(printed, names(&doc, key), "{key}");
        let units: Vec<&str> = doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("unit").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = report.metrics.iter().map(|m| m.unit).collect();
        assert_eq!(ours, units, "{key} units");

        // The result line has exactly the contract's four keys...
        let Json::Obj(members) = Json::parse(&bm_result_line(&report)).unwrap() else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // ...and the saved record reads back.
        let record = BmRecord::bm_parse(&bm_record_line(&report)).unwrap();
        assert_eq!(record.workload, "devcycle_local");
        assert_eq!(record.traced, trace);
        assert_eq!(record.attempted, report.attempted);
        assert_eq!(record.metrics.len(), report.metrics.len());
        assert_eq!(record.script_hash, format!("{:016x}", report.script_hash));
    }
}
