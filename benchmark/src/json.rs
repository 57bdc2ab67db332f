//! A run's two JSON renderings: the one-line result the benchmark contract
//! asks for, and the fuller record `compare` reads back. Parsing reuses
//! `ficus_bench::report::Json`, the repository's dependency-free parser.

use std::collections::BTreeMap;
use std::path::Path;

use ficus_bench::report::{fmt_num, Json};

use crate::run::BmReport;

fn bm_metrics_object(report: &BmReport) -> String {
    let members: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
#[must_use]
pub fn bm_result_line(report: &BmReport) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.bm_correct(),
        report.attempted,
        report.failed,
        bm_metrics_object(report)
    )
}

/// The record saved per run for `compare`: the result plus what identifies
/// the run and what says whether it was disturbed.
#[must_use]
pub fn bm_record_line(report: &BmReport) -> String {
    let o = &report.options;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"segments\": {}, \"script_hash\": \"{:016x}\", \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"disturbed\": {}, \"wall_over_cpu\": {}, \
         \"steal_share\": {}, \"metrics\": {}}}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        report.segments,
        report.script_hash,
        report.bm_correct(),
        report.attempted,
        report.failed,
        report.bm_disturbed(),
        fmt_num(report.wall_over_cpu),
        fmt_num(report.steal_share),
        bm_metrics_object(report)
    )
}

/// One saved run, as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct BmRecord {
    /// Workload name.
    pub workload: String,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Script hash, hex.
    pub script_hash: String,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops and checks failed.
    pub failed: u64,
    /// Whether the run flagged itself as disturbed.
    pub disturbed: bool,
    /// Wall time over CPU time.
    pub wall_over_cpu: f64,
    /// Stolen share of the machine.
    pub steal_share: f64,
    /// Metric name -> value.
    pub metrics: BTreeMap<String, f64>,
}

impl BmRecord {
    /// Parses one record line.
    pub fn bm_parse(text: &str) -> Result<BmRecord, String> {
        let doc = Json::parse(text.trim())?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record lacks number `{key}`"))
        };
        let text_of = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record lacks string `{key}`"))
        };
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("record lacks `metrics`".to_owned());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` lacks a value"))?;
            metrics.insert(name.clone(), value);
        }
        Ok(BmRecord {
            workload: text_of("workload")?,
            traced: num("trace")? != 0.0,
            script_hash: text_of("script_hash")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            disturbed: doc.get("disturbed") == Some(&Json::Bool(true)),
            wall_over_cpu: num("wall_over_cpu")?,
            steal_share: num("steal_share")?,
            metrics,
        })
    }

    /// Loads every `*.json` record under `dir`, in file-name order.
    pub fn bm_load_dir(dir: &Path) -> Result<Vec<BmRecord>, String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
                BmRecord::bm_parse(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    }
}
