//! The nine project-invariant rules (see DESIGN.md §4.9 and §4.14).
//!
//! Each rule answers for one invariant an earlier PR introduced but nothing
//! enforced mechanically:
//!
//! * **R1 `hard-mount`** — every NFS client RPC rides `call_retry`; a raw
//!   `.call(` outside it silently reintroduces soft-mount semantics.
//! * **R2 `determinism`** — no wall-clock or OS entropy inside `core`,
//!   `nfs`, `net`; the chaos campaigns and seeded benches depend on it.
//! * **R3 `no-panic`** — no `unwrap`/`expect`/`panic!` on the
//!   request-serving and daemon paths; a malformed request must come back
//!   as an error, not kill the server thread.
//! * **R4 `stats-honesty`** — every counter field of the stats structs is
//!   actually maintained in crate code and read by at least one test.
//! * **R5 `wire-exhaustive`** — every `Request`/`Reply` variant appears in
//!   encode, decode, and the server dispatch.
//!
//! The graph rules (R6–R8) run over the whole-program model of
//! [`crate::graph`]; R9 (`dead-allow`) lives in the suppression engine
//! (`crate::apply_suppressions`):
//!
//! * **R6 `transitive-panic`** — no panic source (or slice index in the
//!   wire-input crates) transitively reachable from a serving, daemon, or
//!   recovery entry point, with a call-path witness.
//! * **R7 `crash-order`** — every `rename` on a commit/recovery path is
//!   dominated in its function's effect order by a sync of the data it
//!   publishes (the paper's §3.2 original-or-new guarantee).
//! * **R8 `iter-order`** — no `HashMap`/`HashSet` iteration order escapes
//!   into wire encoding, changelog order, or recon candidate order in the
//!   determinism-gated dirs, unless it drains into an order-insensitive
//!   sink on the spot.
//! * **R9 `dead-allow`** — a suppression that no longer suppresses
//!   anything is itself a violation, so suppression debt cannot rot.

use crate::graph::{index_sites, CallGraph, EffectKind};
use crate::scan::SourceFile;

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (`hard-mount`, ...).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub rel: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
    /// Call-path witness (`root → … → containing fn`), for the graph
    /// rules; empty for the token rules.
    pub witness: Vec<String>,
}

/// Rule identifiers, in R1..R9 order.
pub const RULE_IDS: [&str; 9] = [
    "hard-mount",
    "determinism",
    "no-panic",
    "stats-honesty",
    "wire-exhaustive",
    "transitive-panic",
    "crash-order",
    "iter-order",
    "dead-allow",
];

/// Lint configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Fixture mode (`--check-file`): path-based rule scoping is bypassed
    /// so a single snippet can exercise any rule.
    pub check_file_mode: bool,
}

/// Files (by `rel` suffix) on the request-serving and daemon paths (R3).
const R3_FILES: [&str; 9] = [
    "crates/nfs/src/server.rs",
    "crates/nfs/src/wire.rs",
    "crates/core/src/propagate.rs",
    "crates/core/src/recon.rs",
    "crates/core/src/health.rs",
    "crates/core/src/resolve.rs",
    "crates/core/src/resolver.rs",
    "crates/core/src/changelog.rs",
    "crates/core/src/chunks.rs",
];

/// Directories whose code must stay deterministic (R2). Benches live in
/// `crates/bench` and are exempt by construction.
const R2_DIRS: [&str; 3] = ["crates/core/src", "crates/nfs/src", "crates/net/src"];

/// The stats structs whose counters R4 audits.
const R4_STRUCTS: [&str; 9] = [
    "LogicalStats",
    "ReconStats",
    "PropagationStats",
    "LcacheStats",
    "NfsClientStats",
    "ResolveStats",
    "Metrics",
    "ChangelogStats",
    "ChunkStats",
];

/// Serving, daemon, and recovery entry points for R6 (file suffix, fn).
/// In fixture mode the file side is ignored — any fn with a root name
/// roots the analysis.
const R6_ROOTS: [(&str, &str); 11] = [
    ("crates/nfs/src/server.rs", "handle_wire"),
    ("crates/nfs/src/server.rs", "dispatch"),
    ("crates/core/src/propagate.rs", "run_propagation"),
    (
        "crates/core/src/propagate.rs",
        "run_propagation_with_health",
    ),
    ("crates/core/src/recon.rs", "reconcile_file"),
    ("crates/core/src/recon.rs", "reconcile_file_with_attrs"),
    ("crates/core/src/recon.rs", "reconcile_dir"),
    ("crates/core/src/recon.rs", "reconcile_subtree"),
    ("crates/core/src/recon.rs", "reconcile_incremental"),
    ("crates/core/src/phys.rs", "mount"),
    ("crates/core/src/phys.rs", "recover"),
];

/// Commit/recovery entry points for R7 — the fns whose rename is the
/// paper's §3.2 original-or-new commit point, plus everything they call.
const R7_ROOTS: [(&str, &str); 6] = [
    ("crates/core/src/phys.rs", "apply_patch"),
    ("crates/core/src/phys.rs", "apply_remote_version"),
    ("crates/core/src/phys.rs", "absorb_identical_version"),
    ("crates/core/src/phys.rs", "adopt_file"),
    ("crates/core/src/phys.rs", "mount"),
    ("crates/core/src/phys.rs", "recover"),
];

/// Crates whose inputs cross the wire: slice indexing there is part of
/// R6's panic surface. The ufs/vnode storage stack indexes media blocks
/// whose bounds it wrote itself and is exempt from the *index* class
/// (never from `unwrap`/`expect`/`panic!`).
const R6_INDEX_DIRS: [&str; 4] = [
    "crates/core/src",
    "crates/nfs/src",
    "crates/net/src",
    "crates/vv/src",
];

/// Runs every rule over the file set.
#[must_use]
pub fn run_all(files: &[SourceFile], cfg: Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        r1_hard_mount(f, cfg, &mut out);
        r2_determinism(f, cfg, &mut out);
        r3_no_panic(f, cfg, &mut out);
        r8_iter_order(f, cfg, &mut out);
    }
    r4_stats_honesty(files, &mut out);
    r5_wire_exhaustive(files, cfg, &mut out);
    let graph = CallGraph::build(files);
    r6_transitive_panic(files, &graph, cfg, &mut out);
    r7_crash_order(files, &graph, cfg, &mut out);
    out.sort_by(|a, b| (&a.rel, a.line).cmp(&(&b.rel, b.line)));
    out
}

/// R1: `.call(` allowed only inside `call_retry` bodies and in the server
/// (whose dispatch is the far side of the wire, not a client RPC).
fn r1_hard_mount(f: &SourceFile, cfg: Config, out: &mut Vec<Violation>) {
    if f.is_all_test() || (!cfg.check_file_mode && f.rel.ends_with("nfs/src/server.rs")) {
        return;
    }
    let allowed = f.fn_bodies("call_retry");
    for at in f.find_token(".call(") {
        if f.in_test(at) || allowed.iter().any(|&(s, e)| at >= s && at < e) {
            continue;
        }
        out.push(Violation {
            rule: "hard-mount",
            rel: f.rel.clone(),
            line: f.line_of(at),
            msg: "raw `.call(` outside `call_retry` bypasses hard-mount retry semantics \
                  (route the RPC through `call_retry`)"
                .into(),
            witness: Vec::new(),
        });
    }
}

/// R2: no wall-clock or OS entropy in the deterministic crates.
fn r2_determinism(f: &SourceFile, cfg: Config, out: &mut Vec<Violation>) {
    if !cfg.check_file_mode && !R2_DIRS.iter().any(|d| f.rel.starts_with(d)) {
        return;
    }
    if f.is_all_test() {
        return;
    }
    const BANNED: [(&str, &str); 6] = [
        ("SystemTime::now", "wall-clock time"),
        ("Instant::now", "wall-clock time"),
        ("from_entropy", "OS entropy"),
        ("thread_rng", "OS-seeded RNG"),
        ("OsRng", "OS entropy"),
        ("getrandom", "OS entropy"),
    ];
    for (tok, what) in BANNED {
        for at in f.find_token(tok) {
            if f.in_test(at) {
                continue;
            }
            out.push(Violation {
                rule: "determinism",
                rel: f.rel.clone(),
                line: f.line_of(at),
                msg: format!(
                    "`{tok}` injects {what} into a deterministic crate; use the shared \
                     simulated clock / seeded RNG instead"
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// R3: no panicking constructs on the request-serving and daemon paths.
fn r3_no_panic(f: &SourceFile, cfg: Config, out: &mut Vec<Violation>) {
    if !cfg.check_file_mode && !R3_FILES.iter().any(|p| f.rel.ends_with(p)) {
        return;
    }
    if f.is_all_test() {
        return;
    }
    const BANNED: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    for tok in BANNED {
        for at in f.find_token(tok) {
            if f.in_test(at) {
                continue;
            }
            out.push(Violation {
                rule: "no-panic",
                rel: f.rel.clone(),
                line: f.line_of(at),
                msg: format!(
                    "`{tok}` on a request-serving/daemon path can kill the server thread; \
                     return an `FsResult` error instead"
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// R4: every u64 counter in the stats structs is maintained by non-test
/// crate code (not just folded by `absorb`) and read by at least one test.
fn r4_stats_honesty(files: &[SourceFile], out: &mut Vec<Violation>) {
    // Definition ranges of the audited structs, per file — occurrences
    // inside any definition are never maintenance or test evidence.
    let def_ranges: Vec<Vec<(usize, usize)>> = files
        .iter()
        .map(|f| {
            R4_STRUCTS
                .iter()
                .filter_map(|s| f.struct_u64_fields(s).map(|(_, range)| range))
                .collect()
        })
        .collect();

    for f in files {
        for sname in R4_STRUCTS {
            let Some((fields, _)) = f.struct_u64_fields(sname) else {
                continue;
            };
            for (field, line) in fields {
                let maintained = files
                    .iter()
                    .zip(&def_ranges)
                    .any(|(g, defs)| has_maintenance(g, defs, &field));
                let tested = files
                    .iter()
                    .zip(&def_ranges)
                    .any(|(g, defs)| has_test_ref(g, defs, &field));
                if maintained && tested {
                    continue;
                }
                let mut why = Vec::new();
                if !maintained {
                    why.push("never incremented or set by non-test crate code");
                }
                if !tested {
                    why.push("never read by any test");
                }
                out.push(Violation {
                    rule: "stats-honesty",
                    rel: f.rel.clone(),
                    line,
                    msg: format!(
                        "counter `{sname}.{field}` is {} — a stats field nothing maintains \
                         or asserts is dishonest accounting",
                        why.join(" and ")
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }
}

/// A non-test line that increments or assigns the field, excluding the
/// `absorb`-style self fold (`self.f += other.f`).
fn has_maintenance(f: &SourceFile, defs: &[(usize, usize)], field: &str) -> bool {
    f.find_token(field).into_iter().any(|at| {
        if f.in_test(at) || defs.iter().any(|&(s, e)| at >= s && at < e) {
            return false;
        }
        let line = f.code_line(at);
        let squeezed: String = line.split_whitespace().collect();
        let fold = format!("self.{field}+=other.{field}");
        if squeezed.contains(&fold) {
            return false;
        }
        line.contains("+=")
            || squeezed.contains(&format!("{field}:")) // struct-literal init
            || is_assignment(line, field)
    })
}

/// A test-code line that reads (`.field`) or initializes (`field:`) it.
fn has_test_ref(f: &SourceFile, defs: &[(usize, usize)], field: &str) -> bool {
    f.find_token(field).into_iter().any(|at| {
        if !f.in_test(at) || defs.iter().any(|&(s, e)| at >= s && at < e) {
            return false;
        }
        let squeezed: String = f.code_line(at).split_whitespace().collect();
        squeezed.contains(&format!(".{field}")) || squeezed.contains(&format!("{field}:"))
    })
}

/// Whether `line` assigns through the field (`x.field = ...`, not `==`).
fn is_assignment(line: &str, field: &str) -> bool {
    let squeezed: String = line.split_whitespace().collect();
    squeezed
        .find(&format!(".{field}="))
        .is_some_and(|at| squeezed.as_bytes().get(at + field.len() + 2) != Some(&b'='))
}

/// R5: every `Request`/`Reply` variant appears in encode, decode, and the
/// server dispatch file.
fn r5_wire_exhaustive(files: &[SourceFile], cfg: Config, out: &mut Vec<Violation>) {
    // The dispatch side: any non-test file with a `fn dispatch` body.
    let dispatch_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| !f.is_all_test() && !f.fn_bodies("dispatch").is_empty())
        .collect();

    for f in files {
        let enc = f.fn_bodies("encode");
        let dec = f.fn_bodies("decode");
        if enc.is_empty() || dec.is_empty() {
            continue;
        }
        for ename in ["Request", "Reply"] {
            let Some(variants) = f.enum_variants(ename) else {
                continue;
            };
            for (variant, line) in variants {
                let tok = format!("{ename}::{variant}");
                let mut missing = Vec::new();
                let occurrences = f.find_token(&tok);
                if !occurrences
                    .iter()
                    .any(|&at| enc.iter().any(|&(s, e)| at >= s && at < e))
                {
                    missing.push("encode");
                }
                if !occurrences
                    .iter()
                    .any(|&at| dec.iter().any(|&(s, e)| at >= s && at < e))
                {
                    missing.push("decode");
                }
                // In fixture mode a dispatch side may legitimately not
                // exist; in workspace mode the server must handle every
                // variant.
                if !dispatch_files.is_empty() || !cfg.check_file_mode {
                    let dispatched = dispatch_files
                        .iter()
                        .any(|df| df.find_token(&tok).iter().any(|&at| !df.in_test(at)));
                    if !dispatched {
                        missing.push("server dispatch");
                    }
                }
                if !missing.is_empty() {
                    out.push(Violation {
                        rule: "wire-exhaustive",
                        rel: f.rel.clone(),
                        line,
                        msg: format!(
                            "wire variant `{tok}` is missing from: {} — every variant must \
                             cross the wire in both directions and be served",
                            missing.join(", ")
                        ),
                        witness: Vec::new(),
                    });
                }
            }
        }
    }
}

/// R6: no panic source transitively reachable from a serving, daemon, or
/// recovery entry point. Slice indexing counts as a panic source only in
/// the wire-input crates ([`R6_INDEX_DIRS`]); in fixture mode every file
/// is wire-input.
fn r6_transitive_panic(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: Config,
    out: &mut Vec<Violation>,
) {
    let roots = graph.roots(files, &R6_ROOTS, cfg.check_file_mode);
    let reach = graph.reach(&roots);
    for &i in reach.keys() {
        let item = &graph.fns[i];
        let file = &files[item.file];
        let witness = graph.witness(&reach, i);
        let via = witness.join(" → ");
        for eff in &item.effects {
            if let EffectKind::Panic(label) = &eff.kind {
                out.push(Violation {
                    rule: "transitive-panic",
                    rel: file.rel.clone(),
                    line: file.line_of(eff.at),
                    msg: format!(
                        "`{label}` is reachable from a serving/recovery entry point \
                         (via {via}); return an `FsResult` error instead"
                    ),
                    witness: witness.clone(),
                });
            }
        }
        if cfg.check_file_mode || R6_INDEX_DIRS.iter().any(|d| file.rel.starts_with(d)) {
            if let Some((s, e)) = item.body {
                for at in index_sites(file, s, e) {
                    out.push(Violation {
                        rule: "transitive-panic",
                        rel: file.rel.clone(),
                        line: file.line_of(at),
                        msg: format!(
                            "slice index can panic on malformed wire input and is reachable \
                             from a serving/recovery entry point (via {via}); use `.get(…)`"
                        ),
                        witness: witness.clone(),
                    });
                }
            }
        }
    }
}

/// R7: on every function reachable from a commit/recovery entry point, a
/// `rename` (the §3.2 original-or-new commit point) must not publish
/// unsynced writes — every write before it must be followed by a sync
/// first, in the function's own effect order (callee effects included via
/// their fixpoint summaries).
fn r7_crash_order(files: &[SourceFile], graph: &CallGraph, cfg: Config, out: &mut Vec<Violation>) {
    let roots = graph.roots(files, &R7_ROOTS, cfg.check_file_mode);
    let reach = graph.reach(&roots);
    let sums = graph.crash_summaries();
    for &i in reach.keys() {
        let item = &graph.fns[i];
        let file = &files[item.file];
        let witness = graph.witness(&reach, i);
        let via = witness.join(" → ");
        graph.walk_crash_order(i, &sums, |at, what| {
            out.push(Violation {
                rule: "crash-order",
                rel: file.rel.clone(),
                line: file.line_of(at),
                msg: format!(
                    "`{what}` publishes writes that are not yet synced — on a commit/recovery \
                     path (via {via}) every `rename` must be dominated by `sync_all`/`fsync` \
                     of the data it publishes (§3.2 original-or-new)"
                ),
                witness: witness.clone(),
            });
        });
    }
}

/// Iteration adaptors whose order escapes into whatever consumes them.
const R8_ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Order-insensitive sinks: when one appears within two lines of the
/// iteration, the order never escapes (re-sorted, reduced, or quantified).
const R8_SINKS: [&str; 11] = [
    "collect::<BTreeMap",
    "collect::<BTreeSet",
    "collect::<std::collections::BTree",
    ".sum(",
    ".count(",
    ".all(",
    ".any(",
    ".max",
    ".min",
    ".sort",
    ".fold(true",
];

/// R8: iteration over a `HashMap`/`HashSet` binding in the determinism
/// dirs, unless it lands in an order-insensitive sink on the spot.
fn r8_iter_order(f: &SourceFile, cfg: Config, out: &mut Vec<Violation>) {
    if !cfg.check_file_mode && !R2_DIRS.iter().any(|d| f.rel.starts_with(d)) {
        return;
    }
    if f.is_all_test() {
        return;
    }
    let names = hash_bindings(f);
    for name in &names {
        for at in f.find_token(name) {
            if f.in_test(at) {
                continue;
            }
            let Some(kind) = iteration_at(f, at, name) else {
                continue;
            };
            if sink_near(f, at) {
                continue;
            }
            out.push(Violation {
                rule: "iter-order",
                rel: f.rel.clone(),
                line: f.line_of(at),
                msg: format!(
                    "{kind} over unordered `{name}` leaks `HashMap`/`HashSet` iteration \
                     order; sort first, use a BTree container, or drain into an \
                     order-insensitive sink"
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// Names bound to a hash container in this file: `let` bindings, struct
/// fields / params typed as one (through `Arc`/`Mutex`/`RwLock`/`Box`/
/// `Option` wrappers), and bindings typed by a local `type` alias of one.
fn hash_bindings(f: &SourceFile) -> Vec<String> {
    let mut hash_types = vec!["HashMap".to_string(), "HashSet".to_string()];
    // Local aliases: `type Alias = …HashMap<…>;`
    for kw in ["type "] {
        for at in f.find_token(kw.trim()) {
            let line = f.code_line(at);
            let Some(eq) = line.find('=') else { continue };
            if !line[eq..].contains("HashMap") && !line[eq..].contains("HashSet") {
                continue;
            }
            let head = line[..eq].trim();
            if let Some(alias) = head.split_whitespace().last() {
                let alias: String = alias
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !alias.is_empty() && crate::scan::is_ident(&alias) {
                    hash_types.push(alias);
                }
            }
        }
    }

    let mut names = Vec::new();
    for ty in &hash_types {
        for at in f.find_token(ty) {
            let line = f.code_line(at);
            let Some(tok_col) = line.find(ty.as_str()) else {
                continue;
            };
            let before = &line[..tok_col];
            // `let [mut] name = HashMap::new()` / `HashMap::with_capacity`.
            if let Some(let_pos) = before.find("let ") {
                if before[let_pos..].contains('=') {
                    let mut ident = before[let_pos + 4..].trim_start();
                    ident = ident.strip_prefix("mut ").unwrap_or(ident).trim_start();
                    let name: String = ident
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    if crate::scan::is_ident(&name) {
                        names.push(name);
                        continue;
                    }
                }
            }
            // `name: [wrappers]HashMap<…>` — field, param, or typed let.
            if let Some(colon) = before.rfind(':') {
                let mut between: String = before[colon + 1..].split_whitespace().collect();
                loop {
                    let mut stripped = false;
                    for w in ["Arc<", "Mutex<", "RwLock<", "Box<", "Option<", "&mut", "&"] {
                        if let Some(rest) = between.strip_prefix(w) {
                            between = rest.to_string();
                            stripped = true;
                        }
                    }
                    // Lifetimes: `&'a HashMap<…>`.
                    if let Some(rest) = between.strip_prefix('\'') {
                        between = rest
                            .trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_')
                            .to_string();
                        stripped = true;
                    }
                    if !stripped {
                        break;
                    }
                }
                if !(between.is_empty() || between == "std::collections::") {
                    continue;
                }
                let head = before[..colon].trim_end();
                let name: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if crate::scan::is_ident(&name) {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Whether the occurrence of `name` at `at` is iterated: followed by an
/// iteration adaptor, or the subject of a `for … in` loop.
fn iteration_at(f: &SourceFile, at: usize, name: &str) -> Option<&'static str> {
    // Method-style: `name.iter()` — including a chained call broken onto
    // the next line (`name\n    .iter()`).
    let after = f.code[at + name.len()..].trim_start();
    for m in R8_ITER_METHODS {
        if after.starts_with(m) {
            return Some("iteration");
        }
    }
    let line_start = f.code_line_start(at);
    let before = &f.code[line_start..at];
    let squeezed: String = before.split_whitespace().collect();
    if before.contains("for ")
        && (squeezed.ends_with("in&") || squeezed.ends_with("in&mut") || squeezed.ends_with("in"))
    {
        return Some("`for` loop");
    }
    None
}

/// Whether an order-insensitive sink appears on the violation line or the
/// two lines after it.
fn sink_near(f: &SourceFile, at: usize) -> bool {
    let start = f.code_line_start(at);
    let mut end = start;
    let bytes = f.code.as_bytes();
    for _ in 0..3 {
        while end < bytes.len() && bytes[end] != b'\n' {
            end += 1;
        }
        if end < bytes.len() {
            end += 1;
        }
    }
    let window = &f.code[start..end];
    R8_SINKS.iter().any(|s| window.contains(s))
}
