//! Machine-readable experiment reports — the perf trajectory.
//!
//! Every experiment returns a [`Report`]: the human-readable [`Table`] it
//! always produced plus a [`Metrics`] set carrying the load-bearing
//! numbers (wire RPCs, bytes, disk I/Os, cache hits, ratios). The
//! `bench-report` binary serializes one `BENCH_<exp>.json` per experiment
//! and compares deterministic metrics against a committed baseline, so a
//! perf PR diffs JSON instead of re-arguing prose tables.
//!
//! Every metric is tagged with a [`Stability`] class:
//!
//! * [`Stability::Deterministic`] — produced by the simulated clock,
//!   seeded RNG, and counted I/O/RPC work: byte-stable across runs on one
//!   machine and comparable PR-over-PR. These are what `--compare` diffs,
//!   each within its per-metric tolerance band.
//! * [`Stability::Wallclock`] — timing- or RNG-stream-sensitive numbers
//!   (the E1/E4/E6 drift ROADMAP warns about): recorded for information,
//!   never compared.
//!
//! The JSON writer and parser are dependency-free by necessity — the
//! container has no crates.io, so no `serde`.

use std::fmt::Write as _;

use crate::table::Table;

/// How stable a metric is across runs and PRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Seeded / counted: byte-stable on one machine, compared PR-over-PR.
    Deterministic,
    /// Timing- or RNG-stream-sensitive: informational only, never compared.
    Wallclock,
}

impl Stability {
    /// The JSON tag for this class.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stability::Deterministic => "deterministic",
            Stability::Wallclock => "wallclock",
        }
    }

    /// Parses the JSON tag.
    #[must_use]
    pub fn parse(s: &str) -> Option<Stability> {
        match s {
            "deterministic" => Some(Stability::Deterministic),
            "wallclock" => Some(Stability::Wallclock),
            _ => None,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted name, unique within its experiment (`div4.files_pulled`).
    pub name: String,
    /// Unit label (`rpcs`, `bytes`, `ratio`, `ns/op`, ...).
    pub unit: String,
    /// Stability class (only deterministic metrics are compared).
    pub stability: Stability,
    /// Relative tolerance band for comparison: a current value passes when
    /// `|current - baseline| <= tolerance * max(|baseline|, 1)`. Zero means
    /// exact equality (the right band for raw counters).
    pub tolerance: f64,
    /// The measured value.
    pub value: f64,
}

/// The metric set one experiment produced.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Experiment id (`e1` .. `e10`).
    pub experiment: String,
    /// Experiment title (same as the table's).
    pub title: String,
    /// The metrics, in recording order.
    pub entries: Vec<Metric>,
    /// Running count of deterministic entries recorded.
    pub deterministic_count: u64,
    /// Running count of wallclock entries recorded.
    pub wallclock_count: u64,
}

impl Metrics {
    /// Creates an empty metric set.
    #[must_use]
    pub fn new(experiment: &str, title: &str) -> Metrics {
        Metrics {
            experiment: experiment.to_owned(),
            title: title.to_owned(),
            entries: Vec::new(),
            deterministic_count: 0,
            wallclock_count: 0,
        }
    }

    /// Records a deterministic metric with exact-match comparison.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — a shadowed metric would silently
    /// corrupt the trajectory.
    pub fn det(&mut self, name: &str, unit: &str, value: f64) {
        self.det_tol(name, unit, value, 0.0);
    }

    /// Records a deterministic metric with a relative tolerance band
    /// (for derived ratios; raw counters should use [`Metrics::det`]).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn det_tol(&mut self, name: &str, unit: &str, value: f64, tolerance: f64) {
        self.push(name, unit, Stability::Deterministic, tolerance, value);
        self.deterministic_count += 1;
    }

    /// Records a wallclock (informational, never compared) metric.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn wall(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, Stability::Wallclock, 0.0, value);
        self.wallclock_count += 1;
    }

    fn push(&mut self, name: &str, unit: &str, stability: Stability, tolerance: f64, value: f64) {
        assert!(
            self.get(name).is_none(),
            "Metrics::{}: duplicate metric name `{name}`",
            self.experiment
        );
        assert!(
            value.is_finite(),
            "Metrics::{}: metric `{name}` is not finite — report degenerate \
             measurements explicitly instead of recording NaN/inf",
            self.experiment
        );
        self.entries.push(Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            stability,
            tolerance,
            value,
        });
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|m| m.name == name)
    }

    /// Folds another metric set (e.g. an experiment's secondary table)
    /// into this one. Names must stay disjoint.
    ///
    /// # Panics
    ///
    /// Panics when a name from `other` already exists here.
    pub fn merge(&mut self, other: Metrics) {
        for m in other.entries {
            assert!(
                self.get(&m.name).is_none(),
                "Metrics::{}: merge would shadow `{}`",
                self.experiment,
                m.name
            );
            match m.stability {
                Stability::Deterministic => self.deterministic_count += 1,
                Stability::Wallclock => self.wallclock_count += 1,
            }
            self.entries.push(m);
        }
    }

    /// Serializes to the `BENCH_<exp>.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            (
                "metrics".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|m| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(m.name.clone())),
                                ("unit".into(), Json::Str(m.unit.clone())),
                                (
                                    "stability".into(),
                                    Json::Str(m.stability.as_str().to_owned()),
                                ),
                                ("tolerance".into(), Json::Num(m.tolerance)),
                                ("value".into(), Json::Num(m.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a `BENCH_<exp>.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn from_json(doc: &Json) -> Result<Metrics, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("missing `schema`")?;
        if schema != 1.0 {
            return Err(format!("unsupported schema version {schema}"));
        }
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("missing `experiment`")?;
        let title = doc
            .get("title")
            .and_then(Json::as_str)
            .ok_or("missing `title`")?;
        let mut out = Metrics::new(experiment, title);
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("missing `metrics` array")?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without `name`")?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}` without `unit`"))?;
            let stability = m
                .get("stability")
                .and_then(Json::as_str)
                .and_then(Stability::parse)
                .ok_or_else(|| format!("metric `{name}` without a valid `stability`"))?;
            let tolerance = m
                .get("tolerance")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` without `tolerance`"))?;
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` without `value`"))?;
            match stability {
                Stability::Deterministic => out.det_tol(name, unit, value, tolerance),
                Stability::Wallclock => out.wall(name, unit, value),
            }
        }
        Ok(out)
    }
}

/// An experiment's full output: the rendered table plus its metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// The human-readable table (what the `exp_*` binaries print).
    pub table: Table,
    /// The machine-readable metrics (what `bench-report` serializes).
    pub metrics: Metrics,
}

impl Report {
    /// Renders the table (the metrics ride alongside, untouched).
    #[must_use]
    pub fn render(&self) -> String {
        self.table.render()
    }
}

/// Lowercases and squeezes a label into a dotted-name-safe slug
/// (`"crash p=0.9"` → `"crash_p_0_9"`).
#[must_use]
pub fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_owned()
}

// ---------------------------------------------------------------------------
// Comparison against a committed baseline.
// ---------------------------------------------------------------------------

/// One deterministic metric that moved outside its tolerance band.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// The absolute band the difference had to stay within.
    pub band: f64,
}

/// Outcome of comparing one experiment's fresh metrics to its baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Experiment id.
    pub experiment: String,
    /// Deterministic metrics checked.
    pub checked: usize,
    /// Wallclock metrics present but (by design) not compared.
    pub ignored_wallclock: usize,
    /// Deterministic metrics in the baseline but absent from the fresh run.
    pub missing: Vec<String>,
    /// Fresh deterministic metrics the baseline does not know (informational
    /// — commit the regenerated baseline to adopt them).
    pub added: Vec<String>,
    /// Out-of-band differences.
    pub regressions: Vec<MetricDiff>,
}

impl Comparison {
    /// Whether the comparison passes.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.regressions.is_empty()
    }

    /// Renders the outcome, one line per problem plus a summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            let _ = writeln!(
                out,
                "bench-report: REGRESSION {}.{}: baseline {} -> current {} (allowed band +/-{})",
                self.experiment,
                d.name,
                fmt_num(d.baseline),
                fmt_num(d.current),
                fmt_num(d.band),
            );
        }
        for name in &self.missing {
            let _ = writeln!(
                out,
                "bench-report: MISSING {}.{name}: in the baseline but not produced by this run",
                self.experiment
            );
        }
        for name in &self.added {
            let _ = writeln!(
                out,
                "bench-report: new metric {}.{name} (not in baseline; commit the regenerated \
                 JSON to adopt it)",
                self.experiment
            );
        }
        let _ = writeln!(
            out,
            "bench-report: {}: {} deterministic metrics compared, {} regression(s), \
             {} missing, {} new ({} wallclock ignored)",
            self.experiment,
            self.checked,
            self.regressions.len(),
            self.missing.len(),
            self.added.len(),
            self.ignored_wallclock,
        );
        out
    }
}

/// Compares a fresh run against the committed baseline. Only deterministic
/// metrics are diffed; each must stay within the band its **baseline**
/// tolerance defines (the committed file is the gate). Wallclock metrics
/// are counted and ignored.
#[must_use]
pub fn compare(baseline: &Metrics, current: &Metrics) -> Comparison {
    let mut cmp = Comparison {
        experiment: current.experiment.clone(),
        ..Comparison::default()
    };
    for b in &baseline.entries {
        if b.stability == Stability::Wallclock {
            cmp.ignored_wallclock += 1;
            continue;
        }
        let Some(c) = current.get(&b.name) else {
            cmp.missing.push(b.name.clone());
            continue;
        };
        cmp.checked += 1;
        let band = b.tolerance * b.value.abs().max(1.0);
        if (c.value - b.value).abs() > band {
            cmp.regressions.push(MetricDiff {
                name: b.name.clone(),
                baseline: b.value,
                current: c.value,
                band,
            });
        }
    }
    for c in &current.entries {
        if c.stability == Stability::Deterministic && baseline.get(&c.name).is_none() {
            cmp.added.push(c.name.clone());
        }
    }
    cmp
}

// ---------------------------------------------------------------------------
// Dependency-free JSON (the container has no crates.io, hence no serde).
// ---------------------------------------------------------------------------

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`; integral values render without a
    /// fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document: pretty-printed, two-space indent, with
    /// scalar-only containers kept on one line (one metric per line — the
    /// shape `git diff` reads best). Deterministic: same value, same bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items.is_empty(),
            Json::Obj(members) => members
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            _ => true,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&fmt_num(*v)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                if self.is_flat() {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_escaped(out, k);
                        out.push_str(": ");
                        v.write(out, indent);
                    }
                    out.push('}');
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            src,
            at: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.at));
        }
        Ok(v)
    }
}

/// Renders a number deterministically: integral values without a fraction,
/// everything else via Rust's shortest round-trip formatting. Non-finite
/// values have no JSON representation and render as `null` (metrics reject
/// them before they get here).
#[must_use]
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    if v == v.trunc() && v.abs() < 9e15 {
        let i = v as i64;
        format!("{i}")
    } else {
        format!("{v}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.at))
        }
    }

    fn eat(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.src[self.at..].starts_with(lit) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.at) {
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
                            // Surrogates never appear in our own output;
                            // reject rather than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("non-scalar \\u escape at byte {}", self.at))?,
                            );
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = &self.src[self.at..];
                    let c = rest.chars().next().ok_or("invalid UTF-8")?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        self.src[start..self.at]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_count_their_classes_and_find_by_name() {
        let mut m = Metrics::new("eX", "demo");
        m.det("a.rpcs", "rpcs", 12.0);
        m.det_tol("a.ratio", "ratio", 5.9, 0.02);
        m.wall("a.ns", "ns/op", 10.66);
        assert_eq!(m.deterministic_count, 2);
        assert_eq!(m.wallclock_count, 1);
        assert_eq!(m.get("a.rpcs").unwrap().value, 12.0);
        assert_eq!(m.get("a.ratio").unwrap().tolerance, 0.02);
        assert!(m.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_metric_names_fail_loudly() {
        let mut m = Metrics::new("eX", "demo");
        m.det("a", "rpcs", 1.0);
        m.det("a", "rpcs", 2.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metrics_are_rejected() {
        let mut m = Metrics::new("eX", "demo");
        m.det("bad", "ratio", f64::NAN);
    }

    #[test]
    fn merge_folds_entries_and_counts() {
        let mut a = Metrics::new("e5", "main");
        a.det("div4.rpcs", "rpcs", 10.0);
        let mut b = Metrics::new("e5", "wire cost");
        b.det("b100.rpcs", "rpcs", 106.0);
        b.wall("b100.ns", "ns", 1.5);
        a.merge(b);
        assert_eq!(a.deterministic_count, 2);
        assert_eq!(a.wallclock_count, 1);
        assert!(a.get("b100.rpcs").is_some());
    }

    #[test]
    fn json_escaping_covers_quotes_backslashes_controls_and_unicode() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\u{1}§×";
        let doc = Json::Str(s.into());
        let text = doc.render();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\t"));
        assert!(text.contains("\\b"));
        assert!(text.contains("\\f"));
        assert!(text.contains("\\u0001"));
        assert!(text.contains('§'), "multi-byte text passes through raw");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [
            0.0,
            1.0,
            -1.0,
            625.0,
            0.1,
            -0.25,
            5.9,
            1.0 / 3.0,
            1e-9,
            123_456_789_012_345.0,
            f64::MAX,
        ] {
            let text = fmt_num(v);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back, v, "{v} -> {text}");
            assert_eq!(Json::parse(&text).unwrap(), Json::Num(v));
        }
        // Integral values render without a fractional part.
        assert_eq!(fmt_num(625.0), "625");
        assert_eq!(fmt_num(-3.0), "-3");
    }

    #[test]
    fn nested_objects_round_trip_through_render_and_parse() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("flag".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "metrics".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("name".into(), Json::Str("a.rpcs".into())),
                        ("value".into(), Json::Num(12.5)),
                    ]),
                    Json::Num(-7.0),
                    Json::Str("§".into()),
                ]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Rendering is stable: render(parse(render(x))) == render(x).
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "[1] x",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut m = Metrics::new("e5", "E5: §-titled experiment");
        m.det("div4.entries_shipped", "entries", 19.0);
        m.det_tol("b100.rpc_reduction", "ratio", 5.9, 0.02);
        m.wall("layers.getattr_ns", "ns/op", 10.7);
        let back = Metrics::from_json(&Json::parse(&m.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.experiment, "e5");
        assert_eq!(back.title, m.title);
        assert_eq!(back.deterministic_count, 2);
        assert_eq!(back.wallclock_count, 1);
        assert_eq!(back.get("div4.entries_shipped").unwrap().value, 19.0);
        assert_eq!(
            back.get("layers.getattr_ns").unwrap().stability,
            Stability::Wallclock
        );
    }

    #[test]
    fn from_json_reports_structural_problems() {
        let missing_schema = Json::Obj(vec![("experiment".into(), Json::Str("e1".into()))]);
        assert!(Metrics::from_json(&missing_schema).is_err());
        let bad_version = Json::parse(
            "{\"schema\": 2, \"experiment\": \"e1\", \"title\": \"t\", \"metrics\": []}",
        )
        .unwrap();
        assert!(Metrics::from_json(&bad_version)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    fn base_and_current() -> (Metrics, Metrics) {
        let mut base = Metrics::new("eX", "t");
        base.det("exact.rpcs", "rpcs", 100.0);
        base.det_tol("banded.ratio", "ratio", 4.0, 0.1);
        base.wall("drift.ns", "ns/op", 55.0);
        let mut cur = Metrics::new("eX", "t");
        cur.det("exact.rpcs", "rpcs", 100.0);
        cur.det_tol("banded.ratio", "ratio", 4.0, 0.1);
        cur.wall("drift.ns", "ns/op", 9999.0);
        (base, cur)
    }

    #[test]
    fn compare_passes_within_tolerance_and_ignores_wallclock() {
        let (base, mut cur) = base_and_current();
        // Inside the band: 0.1 * max(4, 1) = 0.4.
        cur.entries[1].value = 4.3;
        let cmp = compare(&base, &cur);
        assert!(cmp.ok(), "{}", cmp.render());
        assert_eq!(cmp.checked, 2);
        assert_eq!(cmp.ignored_wallclock, 1, "wallclock is never compared");
    }

    #[test]
    fn compare_fails_beyond_tolerance() {
        let (base, mut cur) = base_and_current();
        cur.entries[1].value = 4.5; // outside the 0.4 band
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].name, "banded.ratio");
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn compare_zero_tolerance_is_exact() {
        let (base, mut cur) = base_and_current();
        cur.entries[0].value = 101.0;
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions[0].name, "exact.rpcs");
    }

    #[test]
    fn compare_flags_missing_and_reports_added() {
        let (base, mut cur) = base_and_current();
        cur.entries.remove(0);
        cur.det("brand.new", "rpcs", 1.0);
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok(), "a vanished baseline metric must fail");
        assert_eq!(cmp.missing, ["exact.rpcs"]);
        assert_eq!(cmp.added, ["brand.new"]);
        assert!(cmp.render().contains("MISSING"));
    }

    #[test]
    fn slug_squeezes_labels() {
        assert_eq!(slug("crash p=0.9"), "crash_p_0_9");
        assert_eq!(slug("one-copy (Ficus)"), "one_copy_ficus");
        assert_eq!(slug("2-way partition"), "2_way_partition");
        assert_eq!(slug("delayed 20ms"), "delayed_20ms");
    }
}
