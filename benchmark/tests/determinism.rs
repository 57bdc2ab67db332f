//! Determinism and sizing: the properties the benchmark's comparisons rest
//! on, checked on the one-segment `--quick` variant of every workload.

use ficus_benchmark::ladder::bm_ladder;
use ficus_benchmark::run::{bm_run, BmOptions, BmReport};
use ficus_benchmark::script::{BmHash, BmStep};
use ficus_benchmark::workload::{bm_workload, BM_WORKLOADS};

/// Metrics computed from counters alone: they must repeat bit for bit.
const COUNTER_METRICS: [&str; 4] = ["write_amp", "wire_amp", "disk_reads_per_op", "rpcs_per_op"];

fn quick(workload: &str, seed: u64, trace: bool) -> BmReport {
    let report = bm_run(&BmOptions {
        workload: workload.to_owned(),
        seed,
        seconds: 10,
        trace,
        quick: true,
        trace_dir: None,
    })
    .unwrap();
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    report
}

fn hash_of(parts: &[&[BmStep]]) -> u64 {
    let mut h = BmHash::default();
    for p in parts {
        h.bm_absorb(p);
    }
    h.0
}

#[test]
fn one_seed_repeats_exactly_and_another_seed_differs() {
    for workload in BM_WORKLOADS {
        let a = quick(workload, 7, false);
        let b = quick(workload, 7, false);
        assert_eq!(a.script_hash, b.script_hash, "{workload}: op scripts");
        assert_eq!(a.attempted, b.attempted, "{workload}: attempted");
        assert_eq!(a.counters, b.counters, "{workload}: counter deltas");
        for name in COUNTER_METRICS {
            let (x, y) = (a.bm_metric(name).unwrap(), b.bm_metric(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{workload}: {name}");
            assert!(x > 0.0, "{workload}: {name} must never read 0");
        }
        let c = quick(workload, 8, false);
        assert_ne!(a.script_hash, c.script_hash, "{workload}: seed 8 vs 7");
    }
}

#[test]
fn the_full_run_and_every_ladder_rung_execute_the_generated_script() {
    for workload in BM_WORKLOADS {
        let mut generator = bm_workload(workload, 7, true).unwrap();
        let populate = generator.bm_populate();
        let warmup = generator.bm_segment();
        let measured = generator.bm_segment();

        // The full run: populate, warm-up, one measured segment.
        let report = quick(workload, 7, false);
        assert_eq!(
            report.script_hash,
            hash_of(&[&populate, &warmup, &measured]),
            "{workload}: full run"
        );

        // The ladder: populate and warm-up, on every rung.
        let spec = generator.bm_spec();
        let rungs = bm_ladder(&spec.world, &populate, &warmup, spec.client_hosts.len()).unwrap();
        assert_eq!(rungs.len(), 4);
        for rung in rungs {
            assert_eq!(
                rung.script_hash,
                hash_of(&[&populate, &warmup]),
                "{workload}: rung {}",
                rung.layer
            );
            assert!(rung.read_p50_us > 0.0 && rung.write_p50_us > 0.0);
        }
    }
}

#[test]
fn ladder_self_times_add_up_to_the_full_stacks_read_latency() {
    // ufs + phys + logical is the path of a local whole-file read; the full
    // run adds two more replicas, which a read never touches.
    let traced = quick("devcycle_local", 7, true);
    let untraced = quick("devcycle_local", 7, false);
    let ladder: f64 = ["ufs", "phys", "logical"]
        .iter()
        .map(|l| traced.bm_metric(&format!("{l}.self_us.read")).unwrap())
        .sum();
    let full = untraced.bm_metric("read_p50_us").unwrap();
    assert!(
        (ladder - full).abs() <= 0.10 * full,
        "ladder says {ladder:.2} us, the full stack {full:.2} us"
    );
    let shares: f64 = ["fg", "propagate", "recon", "resolver"]
        .iter()
        .map(|s| traced.bm_metric(&format!("{s}.share")).unwrap())
        .sum();
    assert!((shares - 1.0).abs() < 0.01, "shares sum to {shares}");
}
