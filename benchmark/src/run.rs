//! One benchmark run: set-up, measured segments, post-run checks, metrics.
//!
//! A run is `set-up x N -> measure -> verify`. Set-up (build the world,
//! populate it, settle, one unmeasured warm-up segment identical to a
//! measured one) is repeated and its median reported, because it is short
//! and a single reading of a short time is the noisiest number a run can
//! produce. The measured phase is a fixed number of segments of fixed op
//! count, so every counter repeats exactly for one seed.

use std::path::PathBuf;
use std::sync::Arc;

use ficus_repro::core::phys::vnode::PhysFs;
use ficus_repro::core::sim::FicusWorld;
use ficus_repro::net::HostId;
use ficus_repro::ufs::fsck;
use ficus_repro::vnode::syscall::Process;
use ficus_repro::vnode::{Credentials, FileSystem};

use crate::clock::{bm_peak_rss_mib, bm_process_cpu_ns, bm_thread_cpu_ns, bm_wall_ns, BmHostCpu};
use crate::counters::{bm_replica_hosts, BmCounters};
use crate::estimate::{bm_median, bm_percentile, bm_quartiles, bm_ratio, bm_sorted_us};
use crate::exec::{bm_materialize, bm_pending_conflicts, BmClient, BmSamples, BmStack};
use crate::layers::bm_layer_metrics;
use crate::model::BmModel;
use crate::script::{BmHash, BmStep};
use crate::trace::BmTrace;
use crate::workload::{bm_workload, BmWorkload};

/// Set-ups per untraced run; the median is reported.
const BM_SETUP_REPEATS: usize = 3;
/// Stolen share of the machine above which a run is marked disturbed.
const BM_STEAL_LIMIT: f64 = 0.02;
/// Process CPU may exceed driver-thread CPU by this share before the run
/// fails: the benchmark's clock is only right while one thread does all
/// the work.
const BM_THREAD_SLACK: f64 = 0.02;

/// What to run.
#[derive(Debug, Clone)]
pub struct BmOptions {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Nominal measured seconds; scales the segment count.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
    /// One small segment, one set-up: the in-tree tests' variant.
    pub quick: bool,
    /// Where the traced run writes `trace_<workload>.jsonl`; `None` keeps
    /// the spans in memory only.
    pub trace_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct BmMetric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl BmMetric {
    pub(crate) fn bm_new(name: &'static str, unit: &'static str, value: f64) -> Self {
        BmMetric { name, unit, value }
    }
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct BmReport {
    /// The options the run was made with.
    pub options: BmOptions,
    /// Measured segments.
    pub segments: usize,
    /// Foreground ops of the measured phase plus post-run checks made.
    pub attempted: u64,
    /// Of those, how many failed (set-up failures count too).
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// FNV-1a of every script executed (populate, warm-up, segments).
    pub script_hash: u64,
    /// The metrics of this run's mode: end-to-end when untraced, per-layer
    /// when traced.
    pub metrics: Vec<BmMetric>,
    /// Human-readable detail printed beside the metrics: quartiles, sample
    /// counts, diagnostics.
    pub notes: Vec<String>,
    /// Counter deltas over the measured phase.
    pub counters: BmCounters,
    /// Wall time over driver-thread CPU time for the whole run.
    pub wall_over_cpu: f64,
    /// Share of the machine's CPU ticks stolen by the hypervisor.
    pub steal_share: f64,
}

impl BmReport {
    /// Whether the hypervisor took more than 2 % of the machine during the
    /// run.
    #[must_use]
    pub fn bm_disturbed(&self) -> bool {
        self.steal_share > BM_STEAL_LIMIT
    }

    /// Whether every op and check succeeded.
    #[must_use]
    pub fn bm_correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn bm_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A stack that has been set up, with what the later phases need.
pub(crate) struct BmPrepared {
    pub workload: Box<dyn BmWorkload>,
    pub stack: BmStack,
    pub model: BmModel,
    pub hash: BmHash,
    /// CPU ns of world construction + populate + settle + warm-up.
    pub setup_ns: u64,
    /// Set-up failures.
    pub samples: BmSamples,
    /// The populate and warm-up scripts, kept when the ladder will replay
    /// them.
    pub scripts: Option<(Vec<BmStep>, Vec<BmStep>)>,
}

/// The world of a prepared full stack.
fn bm_world(stack: &BmStack) -> &FicusWorld {
    stack
        .world
        .as_ref()
        .expect("the full stack always has a world")
}

/// Builds the world for `name`, populates it, settles, and runs the
/// warm-up segment.
pub(crate) fn bm_prepare(
    name: &str,
    seed: u64,
    quick: bool,
    keep_scripts: bool,
) -> Result<BmPrepared, String> {
    let mut workload =
        bm_workload(name, seed, quick).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let populate = workload.bm_populate();
    let warmup = workload.bm_segment();
    let mut hash = BmHash::default();
    hash.bm_absorb(&populate);
    hash.bm_absorb(&warmup);

    let mut model = BmModel::default();
    let mut samples = BmSamples::default();
    let mut no_trace = None;

    let start = bm_thread_cpu_ns();
    let world = FicusWorld::new(workload.bm_spec().world.clone());
    let client_hosts = workload.bm_spec().client_hosts.clone();
    let clients = client_hosts
        .iter()
        .map(|&h| BmClient::bm_new(Arc::clone(world.logical(HostId(h))) as Arc<dyn FileSystem>))
        .collect();
    let mut stack = BmStack {
        world: Some(world),
        daemons: true,
        clients,
        client_hosts,
    };
    let mut setup_ns = bm_thread_cpu_ns() - start;
    for h in bm_world(&stack).host_ids() {
        bm_materialize(bm_world(&stack).host(h).ufs.disk());
    }

    stack.bm_run(&populate, &mut model, &mut samples, &mut no_trace);
    let start = bm_thread_cpu_ns();
    bm_world(&stack).settle();
    setup_ns += bm_thread_cpu_ns() - start;
    stack.bm_run(&warmup, &mut model, &mut samples, &mut no_trace);
    setup_ns += samples.bm_busy_ns();

    Ok(BmPrepared {
        workload,
        stack,
        model,
        hash,
        setup_ns,
        samples,
        scripts: keep_scripts.then_some((populate, warmup)),
    })
}

/// What the measured phase produced.
pub(crate) struct BmMeasured {
    pub samples: BmSamples,
    /// `segment_ops / segment_cpu_seconds`, one per segment.
    pub segment_rates: Vec<f64>,
    pub counters: BmCounters,
    pub syscalls: u64,
}

/// Runs `segments` measured segments.
pub(crate) fn bm_measure(
    p: &mut BmPrepared,
    segments: usize,
    trace: &mut Option<BmTrace>,
) -> BmMeasured {
    let client_hosts = p.stack.client_hosts.clone();
    let before = BmCounters::bm_snapshot(bm_world(&p.stack), &client_hosts);
    let syscalls_before = p.stack.bm_syscalls();
    let mut samples = BmSamples::default();
    let mut segment_rates = Vec::with_capacity(segments);
    for index in 0..segments {
        let steps = p.workload.bm_segment();
        p.hash.bm_absorb(&steps);
        if let Some(t) = trace {
            let now = BmCounters::bm_snapshot(bm_world(&p.stack), &client_hosts);
            t.bm_note(now.bm_json("segment_start", index));
        }
        let (ops, busy) = (samples.bm_ops(), samples.bm_busy_ns());
        p.stack.bm_run(&steps, &mut p.model, &mut samples, trace);
        segment_rates.push(bm_ratio(
            (samples.bm_ops() - ops) as f64,
            (samples.bm_busy_ns() - busy) as f64 / 1e9,
        ));
    }
    let after = BmCounters::bm_snapshot(bm_world(&p.stack), &client_hosts);
    if let Some(t) = trace {
        t.bm_note(after.bm_json("end", segments));
    }
    BmMeasured {
        samples,
        segment_rates,
        counters: after.bm_since(&before),
        syscalls: p.stack.bm_syscalls() - syscalls_before,
    }
}

/// Post-run checks. Returns how many were made; failures go to `samples`.
///
/// Every file, read through every replica host's physical layer, equals the
/// model; every directory lists exactly the model's names; every host's
/// storage passes `fsck`; no note and no conflict is pending.
pub(crate) fn bm_verify(p: &BmPrepared, samples: &mut BmSamples) -> u64 {
    let world = bm_world(&p.stack);
    let vol = world.root_volume();
    let mut checks = 0;
    for h in bm_replica_hosts(world) {
        let Some(phys) = world.phys(h, vol) else {
            continue;
        };
        let mut reader = Process::new(PhysFs::new(phys), Credentials::root());
        for (path, expected) in p.model.bm_files() {
            checks += 1;
            match reader.read_file(path) {
                Ok(got) if &got == expected => {}
                Ok(got) => samples.bm_fail(format!(
                    "host {}: {path} holds {} bytes that differ from the model's {}",
                    h.0,
                    got.len(),
                    expected.len()
                )),
                Err(e) => samples.bm_fail(format!("host {}: {path} unreadable: {e:?}", h.0)),
            }
        }
        for dir in p.model.bm_dirs() {
            checks += 1;
            let expected = p
                .model
                .bm_files()
                .keys()
                .filter(|f| f.rsplit_once('/').is_some_and(|(d, _)| d == dir))
                .count();
            match reader.readdir(dir) {
                Ok(entries) => {
                    let listed = entries
                        .iter()
                        .filter(|e| e.name != "." && e.name != "..")
                        .count();
                    if listed != expected {
                        samples.bm_fail(format!(
                            "host {}: {dir} lists {listed} names, the model has {expected}",
                            h.0
                        ));
                    }
                }
                Err(e) => samples.bm_fail(format!("host {}: {dir} unlistable: {e:?}", h.0)),
            }
        }
    }
    for h in world.host_ids() {
        checks += 2;
        match fsck::check(&world.host(h).ufs) {
            Ok(report) if report.is_clean() => {}
            Ok(_) => samples.bm_fail(format!("host {}: fsck found damage", h.0)),
            Err(e) => samples.bm_fail(format!("host {}: fsck failed: {e:?}", h.0)),
        }
        let pending = world.pending_notes(h);
        if pending != 0 {
            samples.bm_fail(format!("host {}: {pending} notes pending at exit", h.0));
        }
    }
    checks += 1;
    let conflicts = bm_pending_conflicts(world);
    if conflicts != 0 {
        samples.bm_fail(format!("{conflicts} conflicts pending at exit"));
    }
    checks
}

/// The end-to-end metrics of a measured phase.
pub(crate) fn bm_end_to_end(
    setups_ns: &[u64],
    m: &BmMeasured,
    notes: &mut Vec<String>,
) -> Vec<BmMetric> {
    let s = &m.samples;
    let setups: Vec<f64> = setups_ns.iter().map(|&n| n as f64 / 1e9).collect();
    let (r25, r50, r75) = bm_quartiles(&m.segment_rates);
    let reads = bm_sorted_us(&s.read_ns);
    let writes = bm_sorted_us(&s.write_ns);
    let all: Vec<u64> = s
        .read_ns
        .iter()
        .chain(&s.write_ns)
        .chain(&s.other_ns)
        .copied()
        .collect();
    let all = bm_sorted_us(&all);
    let converge: Vec<f64> = s.converge_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let ops = s.bm_ops() as f64;
    let logical_bytes = s.bytes_written as f64;
    let c = &m.counters;

    notes.push(format!(
        "setup_s: median of {} set-ups {:?}",
        setups.len(),
        setups
    ));
    notes.push(format!(
        "ops_per_s: median of {} segments, p25 {r25:.1} p75 {r75:.1}; per segment {:.0?}",
        m.segment_rates.len(),
        m.segment_rates
    ));
    notes.push(format!("converge_ms: per tick/heal, p25/p50/p75 {:.3?}", {
        let (a, b, c) = bm_quartiles(&converge);
        [a, b, c]
    }));
    notes.push(format!(
        "samples: {} reads, {} writes, {} other ops, {} ticks/heals",
        reads.len(),
        writes.len(),
        s.other_ns.len(),
        converge.len()
    ));
    vec![
        BmMetric::bm_new("setup_s", "s", bm_median(&setups)),
        BmMetric::bm_new("ops_per_s", "1/s", r50),
        BmMetric::bm_new("read_p50_us", "us", bm_percentile(&reads, 50.0)),
        BmMetric::bm_new("write_p50_us", "us", bm_percentile(&writes, 50.0)),
        BmMetric::bm_new("op_p99_us", "us", bm_percentile(&all, 99.0)),
        BmMetric::bm_new("converge_ms_p50", "ms", bm_median(&converge)),
        BmMetric::bm_new(
            "write_amp",
            "ratio",
            bm_ratio(c.ufs.disk_writes as f64 * 4096.0, logical_bytes),
        ),
        BmMetric::bm_new(
            "wire_amp",
            "ratio",
            bm_ratio(c.net.total_bytes() as f64, logical_bytes),
        ),
        BmMetric::bm_new(
            "disk_reads_per_op",
            "ratio",
            bm_ratio(c.ufs.disk_reads as f64, ops),
        ),
        BmMetric::bm_new("rpcs_per_op", "ratio", bm_ratio(c.net.rpcs as f64, ops)),
        BmMetric::bm_new("peak_rss_mib", "MiB", bm_peak_rss_mib()),
    ]
}

/// Runs the benchmark per `options`.
pub fn bm_run(options: &BmOptions) -> Result<BmReport, String> {
    let host0 = BmHostCpu::bm_read();
    let (wall0, thread0, process0) = (bm_wall_ns(), bm_thread_cpu_ns(), bm_process_cpu_ns());
    let mut notes = Vec::new();

    // Set-up, repeated; the last world built is the one measured. A traced
    // run reports no set-up time, so it sets up once per measured phase.
    let repeats = if options.trace || options.quick {
        1
    } else {
        BM_SETUP_REPEATS
    };
    let mut setups_ns = Vec::with_capacity(repeats);
    let mut prepared = None;
    for _ in 0..repeats {
        drop(prepared.take());
        let p = bm_prepare(
            &options.workload,
            options.seed,
            options.quick,
            options.trace,
        )?;
        setups_ns.push(p.setup_ns);
        prepared = Some(p);
    }
    let mut p = prepared.ok_or("no set-up ran")?;
    let segments = p
        .workload
        .bm_spec()
        .bm_segments(options.seconds, options.quick);

    let mut failures = std::mem::take(&mut p.samples);
    let (mut metrics, measured) = if options.trace {
        // The untraced twin first (same seed, same segments): its ops/s is
        // the base of `harness.trace_overhead`.
        let untraced = bm_measure(&mut p, segments, &mut None);
        let scripts = p.scripts.take();
        drop(p);
        p = bm_prepare(&options.workload, options.seed, options.quick, false)?;
        failures.bm_absorb_failures(&p.samples);
        let mut trace = Some(BmTrace::bm_with_capacity(1 << 20));
        let traced = bm_measure(&mut p, segments, &mut trace);
        let trace = trace.ok_or("trace recorder lost")?;
        let mut metrics =
            bm_layer_metrics(p.workload.bm_spec(), &traced, scripts.as_ref(), &mut notes)?;
        metrics.push(BmMetric::bm_new(
            "harness.trace_overhead",
            "ratio",
            bm_ratio(
                bm_median(&untraced.segment_rates),
                bm_median(&traced.segment_rates),
            ),
        ));
        if let Some(dir) = &options.trace_dir {
            let path = dir.join(format!("trace_{}.jsonl", options.workload));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|f| trace.bm_write(&mut std::io::BufWriter::new(f)));
            match written {
                Ok(()) => notes.push(format!(
                    "trace: {} spans in {}",
                    trace.bm_spans().len(),
                    path.display()
                )),
                Err(e) => notes.push(format!("trace: not written to {}: {e}", path.display())),
            }
        }
        (metrics, traced)
    } else {
        let measured = bm_measure(&mut p, segments, &mut None);
        let metrics = bm_end_to_end(&setups_ns, &measured, &mut notes);
        (metrics, measured)
    };
    failures.bm_absorb_failures(&measured.samples);
    let checks = bm_verify(&p, &mut failures);

    // The clocks' own health, over the whole run.
    let thread_ns = bm_thread_cpu_ns() - thread0;
    let wall_over_cpu = bm_ratio((bm_wall_ns() - wall0) as f64, thread_ns as f64);
    let process_over_thread = bm_ratio((bm_process_cpu_ns() - process0) as f64, thread_ns as f64);
    let (sys_share, steal_share) = BmHostCpu::bm_read().bm_shares_since(&host0);
    // Not in `quick` runs: the in-tree tests make those on parallel test
    // threads, whose CPU time the process clock adds up.
    if !options.quick && process_over_thread > 1.0 + BM_THREAD_SLACK {
        failures.bm_fail(format!(
            "process CPU is {process_over_thread:.3}x the driver thread's: another thread \
             is doing work the thread clock cannot see"
        ));
    }
    notes.push(format!(
        "harness: wall_over_cpu {wall_over_cpu:.3}, process_over_thread_cpu \
         {process_over_thread:.4}, sys_share {sys_share:.3}, steal_share {steal_share:.4}"
    ));
    if options.trace {
        metrics.extend([
            BmMetric::bm_new("harness.wall_over_cpu", "ratio", wall_over_cpu),
            BmMetric::bm_new("harness.sys_share", "ratio", sys_share),
            BmMetric::bm_new("harness.steal_share", "ratio", steal_share),
            BmMetric::bm_new(
                "harness.process_over_thread_cpu",
                "ratio",
                process_over_thread,
            ),
        ]);
    }

    Ok(BmReport {
        options: options.clone(),
        segments,
        attempted: measured.samples.bm_ops() + checks + 1,
        failed: failures.failed,
        failures: failures.failures,
        script_hash: p.hash.0,
        metrics,
        notes,
        counters: measured.counters,
        wall_over_cpu,
        steal_share,
    })
}
