//! `ficus-benchmark compare <set-A> <set-B>`: the A/A and A/B judge.
//!
//! Reads two directories of saved run records and prints, one row per
//! workload x end-to-end metric, each side's median and quartiles, how much
//! worse B is than A, the bound, and a verdict: `ok`, `regressed` (B is
//! worse than A by more than the bound) or `unresolved` (either side's own
//! quartile spread is wider than the bound, so the comparison cannot tell).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::estimate::{bm_quartiles, bm_ratio};
use crate::json::BmRecord;
use crate::workload::BM_WORKLOADS;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BmEndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

const fn bm_e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> BmEndToEnd {
    BmEndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics, in report order. `BENCHMARK.json` must agree
/// (checked by `tests/contract.rs`).
pub const BM_END_TO_END: [BmEndToEnd; 11] = [
    bm_e2e("setup_s", "s", false, 0.20),
    bm_e2e("ops_per_s", "1/s", true, 0.07),
    bm_e2e("read_p50_us", "us", false, 0.07),
    bm_e2e("write_p50_us", "us", false, 0.07),
    bm_e2e("op_p99_us", "us", false, 0.15),
    bm_e2e("converge_ms_p50", "ms", false, 0.07),
    bm_e2e("write_amp", "ratio", false, 0.03),
    bm_e2e("wire_amp", "ratio", false, 0.05),
    bm_e2e("disk_reads_per_op", "ratio", false, 0.07),
    bm_e2e("rpcs_per_op", "ratio", false, 0.04),
    bm_e2e("peak_rss_mib", "MiB", false, 0.03),
];

/// The verdict on one workload x metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmVerdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A side's own spread exceeds the bound.
    Unresolved,
}

impl BmVerdict {
    fn bm_name(self) -> &'static str {
        match self {
            BmVerdict::Ok => "ok",
            BmVerdict::Regressed => "regressed",
            BmVerdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for `metric`: `(worse_by, spread, verdict)`, both
/// as shares of the respective medians.
#[must_use]
pub fn bm_judge(metric: &BmEndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, BmVerdict) {
    let (a25, a50, a75) = bm_quartiles(a);
    let (b25, b50, b75) = bm_quartiles(b);
    let share = |x: f64, of: f64| bm_ratio(x, of.abs());
    let spread = share(a75 - a25, a50).max(share(b75 - b25, b50));
    let change = share(b50 - a50, a50);
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if spread > metric.bound {
        BmVerdict::Unresolved
    } else if worse_by > metric.bound {
        BmVerdict::Regressed
    } else {
        BmVerdict::Ok
    };
    (worse_by, spread, verdict)
}

fn bm_values(set: &[BmRecord], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Renders the comparison table; the flag says whether every row is `ok`
/// and no run on either side failed an op or a check.
#[must_use]
pub fn bm_compare(a: &[BmRecord], b: &[BmRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<16} {:<18} {:>4} {:>12} {:>12} {:>12} | {:>4} {:>12} {:>12} {:>12} | {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "nA", "A.p25", "A.p50", "A.p75", "nB", "B.p25", "B.p50", "B.p75",
        "worse_by", "spread", "bound"
    );
    for workload in BM_WORKLOADS {
        for metric in &BM_END_TO_END {
            let va = bm_values(a, workload, metric.name);
            let vb = bm_values(b, workload, metric.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a25, a50, a75) = bm_quartiles(&va);
            let (b25, b50, b75) = bm_quartiles(&vb);
            let (worse_by, spread, verdict) = bm_judge(metric, &va, &vb);
            all_ok &= verdict == BmVerdict::Ok;
            let _ = writeln!(
                out,
                "{:<16} {:<18} {:>4} {:>12.4} {:>12.4} {:>12.4} | {:>4} {:>12.4} {:>12.4} {:>12.4} | {:>+8.4} {:>7.4} {:>6.3}  {}",
                workload, metric.name, va.len(), a25, a50, a75, vb.len(), b25, b50, b75,
                worse_by, spread, metric.bound, verdict.bm_name()
            );
        }
    }

    // What must repeat exactly: op-script hash, attempts and failures.
    let mut identity: BTreeMap<&str, Vec<(&str, u64, u64)>> = BTreeMap::new();
    for r in a.iter().chain(b).filter(|r| !r.traced) {
        identity.entry(r.workload.as_str()).or_default().push((
            r.script_hash.as_str(),
            r.attempted,
            r.failed,
        ));
    }
    for (workload, runs) in identity {
        let same = runs.windows(2).all(|w| w[0] == w[1]);
        let failed: u64 = runs.iter().map(|r| r.2).sum();
        all_ok &= failed == 0;
        let _ = writeln!(
            out,
            "{workload:<16} {} runs: script hash/attempted/failed {} across runs, {failed} failed ops or checks",
            runs.len(),
            if same { "identical" } else { "DIFFER (different seeds?)" },
        );
    }
    let disturbed = a.iter().chain(b).filter(|r| r.disturbed).count();
    let _ = writeln!(
        out,
        "{disturbed} runs flagged themselves disturbed (steal_share > 0.02)"
    );
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = bm_e2e("read_p50_us", "us", false, 0.07);
        let higher = bm_e2e("ops_per_s", "1/s", true, 0.07);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.10).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.90).collect();
        assert_eq!(bm_judge(&lower, &base, &base).2, BmVerdict::Ok);
        assert_eq!(bm_judge(&lower, &base, &slower).2, BmVerdict::Regressed);
        assert_eq!(bm_judge(&lower, &base, &faster).2, BmVerdict::Ok);
        assert_eq!(bm_judge(&higher, &base, &faster).2, BmVerdict::Regressed);
        assert_eq!(bm_judge(&higher, &base, &slower).2, BmVerdict::Ok);
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(bm_judge(&lower, &noisy, &base).2, BmVerdict::Unresolved);
    }
}
