//! bench-report — the machine-readable perf trajectory.
//!
//! Runs every experiment (e1–e13), regenerates the human-readable
//! `results/exp_*.txt` tables, and writes one `BENCH_<exp>.json` per
//! experiment plus a `BENCH_SUMMARY.json` roll-up. With `--compare <dir>`
//! it first loads the committed baseline JSON from `<dir>` and diffs every
//! deterministic metric against it within its per-metric tolerance band;
//! wallclock metrics are recorded but never compared. Any regression or
//! vanished metric exits nonzero, so CI and `scripts/verify.sh` gate on it.
//!
//! Exit codes: 0 = clean, 1 = comparison regression, 2 = usage or I/O error.

use std::path::Path;
use std::process::ExitCode;

use ficus_bench::report::{compare, Json, Metrics};
use ficus_bench::{
    e10_lcache, e11_resolve, e12_scale, e13_delta, e1_layers, e2_open_io, e3_commit,
    e4_availability, e5_reconciliation, e6_locality, e7_propagation, e8_grafting, e9_nfs_overload,
};

/// One runnable experiment: id, txt artifact name, and a producer of the
/// rendered table text plus the (merged, for two-table experiments)
/// metric set.
struct Experiment {
    id: &'static str,
    txt: &'static str,
    run: fn() -> (String, Metrics),
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "e1",
        txt: "exp_e1_layers.txt",
        run: || {
            let r = e1_layers::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e2",
        txt: "exp_e2_open_io.txt",
        run: || {
            let r = e2_open_io::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e3",
        txt: "exp_e3_commit.txt",
        run: || {
            let r = e3_commit::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e4",
        txt: "exp_e4_availability.txt",
        run: || {
            let r = e4_availability::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e5",
        txt: "exp_e5_reconciliation.txt",
        run: || {
            let main = e5_reconciliation::run();
            let wire = e5_reconciliation::run_wire_cost();
            let text = format!("{}{}", main.render(), wire.render());
            let mut m = main.metrics;
            m.merge(wire.metrics);
            (text, m)
        },
    },
    Experiment {
        id: "e6",
        txt: "exp_e6_locality.txt",
        run: || {
            let r = e6_locality::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e7",
        txt: "exp_e7_propagation.txt",
        run: || {
            let main = e7_propagation::run();
            let drain = e7_propagation::run_note_drain();
            let text = format!("{}{}", main.render(), drain.render());
            let mut m = main.metrics;
            m.merge(drain.metrics);
            (text, m)
        },
    },
    Experiment {
        id: "e8",
        txt: "exp_e8_grafting.txt",
        run: || {
            let r = e8_grafting::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e9",
        txt: "exp_e9_nfs_overload.txt",
        run: || {
            let r = e9_nfs_overload::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e10",
        txt: "exp_e10_lcache.txt",
        run: || {
            let r = e10_lcache::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e11",
        txt: "exp_e11_resolve.txt",
        run: || {
            let r = e11_resolve::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e12",
        txt: "exp_e12_scale.txt",
        run: || {
            let r = e12_scale::run();
            (r.render(), r.metrics)
        },
    },
    Experiment {
        id: "e13",
        txt: "exp_e13_delta.txt",
        run: || {
            let commit = e13_delta::run();
            let transfer = e13_delta::run_transfer();
            let text = format!("{}{}", commit.render(), transfer.render());
            let mut m = commit.metrics;
            m.merge(transfer.metrics);
            (text, m)
        },
    },
];

const USAGE: &str = "\
bench-report: run the e1-e13 experiments, write results/*.txt and BENCH_*.json,
and optionally gate on a committed baseline.

usage: bench-report [--out DIR] [--compare DIR] [--only IDS]

  --out DIR       directory for the regenerated artifacts (default: results)
  --compare DIR   load BENCH_<exp>.json baselines from DIR and fail (exit 1)
                  when any deterministic metric leaves its tolerance band;
                  a missing baseline file is a warning, not a failure
  --only IDS      comma-separated experiment ids (e.g. e3,e7); the summary
                  roll-up is only written when the full set runs
  --help          this text
";

struct Args {
    out: String,
    baseline: Option<String>,
    only: Option<Vec<String>>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut out = "results".to_owned();
    let mut baseline = None;
    let mut only = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--out" => out = argv.next().ok_or("--out needs a directory")?,
            "--compare" => baseline = Some(argv.next().ok_or("--compare needs a directory")?),
            "--only" => {
                let ids: Vec<String> = argv
                    .next()
                    .ok_or("--only needs a comma-separated id list")?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
                for id in &ids {
                    if !EXPERIMENTS.iter().any(|e| e.id == id) {
                        return Err(format!("unknown experiment id `{id}`"));
                    }
                }
                only = Some(ids);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(Args {
        out,
        baseline,
        only,
    }))
}

/// Loads one experiment's baseline metrics, distinguishing "file absent"
/// (Ok(None): warn and pass — the metric is new) from structural damage
/// (Err: the committed trajectory is corrupt, fail hard).
fn load_baseline(dir: &str, id: &str) -> Result<Option<Metrics>, String> {
    let path = Path::new(dir).join(format!("BENCH_{id}.json"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Metrics::from_json(&doc)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn write_artifact(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let Some(args) = parse_args()? else {
        print!("{USAGE}");
        return Ok(true);
    };
    let out_dir = Path::new(&args.out);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| {
            args.only
                .as_ref()
                .is_none_or(|ids| ids.iter().any(|id| id == e.id))
        })
        .collect();

    let mut all_ok = true;
    let mut summary_rows = Vec::new();
    let mut total_metrics = 0u64;
    for exp in &selected {
        eprintln!("bench-report: running {} ...", exp.id);
        let (text, metrics) = (exp.run)();

        // Load the baseline BEFORE writing: `--compare <out>` self-compares
        // against the committed file this run is about to replace.
        if let Some(dir) = &args.baseline {
            match load_baseline(dir, exp.id)? {
                None => eprintln!(
                    "bench-report: {}: no baseline BENCH_{}.json in {dir} (skipping compare)",
                    exp.id, exp.id
                ),
                Some(base) => {
                    let cmp = compare(&base, &metrics);
                    print!("{}", cmp.render());
                    all_ok &= cmp.ok();
                }
            }
        }

        write_artifact(&out_dir.join(exp.txt), &text)?;
        let json_name = format!("BENCH_{}.json", exp.id);
        write_artifact(&out_dir.join(&json_name), &metrics.to_json().render())?;

        total_metrics += metrics.deterministic_count + metrics.wallclock_count;
        summary_rows.push(Json::Obj(vec![
            ("id".into(), Json::Str(exp.id.to_owned())),
            ("file".into(), Json::Str(json_name)),
            (
                "deterministic".into(),
                Json::Num(metrics.deterministic_count as f64),
            ),
            (
                "wallclock".into(),
                Json::Num(metrics.wallclock_count as f64),
            ),
        ]));
    }

    // The roll-up describes the complete trajectory only; a partial
    // `--only` run must not shrink the committed summary.
    if selected.len() == EXPERIMENTS.len() {
        let summary = Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            ("experiments".into(), Json::Arr(summary_rows)),
            ("total_metrics".into(), Json::Num(total_metrics as f64)),
        ]);
        write_artifact(&out_dir.join("BENCH_SUMMARY.json"), &summary.render())?;
    } else {
        eprintln!("bench-report: partial run (--only), BENCH_SUMMARY.json left untouched");
    }

    Ok(all_ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench-report: FAILED — deterministic metrics regressed (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench-report: error: {e}");
            ExitCode::from(2)
        }
    }
}
