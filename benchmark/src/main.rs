//! `ficus-benchmark`: runs one workload and prints every metric by name and
//! unit, the result object last; or compares two sets of saved runs.
//!
//! ```text
//! ficus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--quick] [--save <dir>] [--trace-dir <dir>]
//! ficus-benchmark compare <set-A> <set-B>
//! ficus-benchmark list
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ficus_benchmark::compare::bm_compare;
use ficus_benchmark::json::{bm_record_line, bm_result_line, BmRecord};
use ficus_benchmark::run::{bm_run, BmOptions, BmReport};
use ficus_benchmark::workload::BM_WORKLOADS;

const BM_USAGE: &str = "usage: ficus-benchmark --workload <name> --seed <n> --seconds <s> \
--trace <0|1> [--quick] [--save <dir>] [--trace-dir <dir>]\n       \
ficus-benchmark compare <set-A> <set-B>\n       ficus-benchmark list";

/// Default seed when `--seed` is absent.
const BM_DEFAULT_SEED: u64 = 1990;

struct BmCli {
    options: BmOptions,
    save: Option<PathBuf>,
}

fn bm_parse_args(args: &[String]) -> Result<BmCli, String> {
    let mut options = BmOptions {
        workload: String::new(),
        seed: BM_DEFAULT_SEED,
        seconds: 10,
        trace: false,
        quick: false,
        trace_dir: Some(PathBuf::from("benchmark/results")),
    };
    let mut save = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            options.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{BM_USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => options.workload.clone_from(value),
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.clamp(1, 60),
            "--trace" => options.trace = number()? != 0,
            "--save" => save = Some(PathBuf::from(value)),
            "--trace-dir" => options.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`\n{BM_USAGE}")),
        }
    }
    if !BM_WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "`--workload` must be one of {BM_WORKLOADS:?}, got `{}`",
            options.workload
        ));
    }
    Ok(BmCli { options, save })
}

fn bm_print(report: &BmReport) {
    let o = &report.options;
    println!(
        "workload {} seed {} seconds {} trace {} segments {} script {:016x}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        report.segments,
        report.script_hash
    );
    for m in &report.metrics {
        println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  # {note}");
    }
    println!(
        "  ops_attempted {} ops_failed {} disturbed {}",
        report.attempted,
        report.failed,
        report.bm_disturbed()
    );
    for why in &report.failures {
        println!("  FAILED: {why}");
    }
    println!("{}", bm_result_line(report));
}

/// Saves the run's record as the next free `<workload>.<n>.json` in `dir`.
fn bm_save(dir: &Path, report: &BmReport) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let o = &report.options;
    let stem = format!("{}.t{}.s{}", o.workload, u8::from(o.trace), o.seed);
    let path = (0..)
        .map(|n| dir.join(format!("{stem}.{n:03}.json")))
        .find(|p| !p.exists())
        .ok_or("no free record name")?;
    std::fs::write(&path, bm_record_line(report) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn bm_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for w in BM_WORKLOADS {
                println!("{w}");
            }
            Ok(true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(BM_USAGE.to_owned());
            };
            let a = BmRecord::bm_load_dir(Path::new(a))?;
            let b = BmRecord::bm_load_dir(Path::new(b))?;
            let (table, ok) = bm_compare(&a, &b);
            print!("{table}");
            Ok(ok)
        }
        _ => {
            let cli = bm_parse_args(args)?;
            let report = bm_run(&cli.options)?;
            if let Some(dir) = &cli.save {
                bm_save(dir, &report)?;
            }
            bm_print(&report);
            Ok(report.bm_correct())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match bm_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ficus-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
