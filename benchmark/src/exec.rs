//! Executes op scripts against a stack, from one driver thread, closed
//! loop: the next step starts only when the previous one has returned.
//!
//! A [`BmStack`] is either the full replicated world (every step runs, the
//! daemons are called synchronously at `Tick`/`Heal`) or one rung of the
//! stack-height ladder (only the foreground ops run).

use std::sync::Arc;

use bytes::Bytes;
use ficus_repro::core::propagate::PropagationStats;
use ficus_repro::core::recon::ReconStats;
use ficus_repro::core::resolve;
use ficus_repro::core::resolver::ResolveStats;
use ficus_repro::core::sim::FicusWorld;
use ficus_repro::net::HostId;
use ficus_repro::ufs::Disk;
use ficus_repro::vnode::syscall::{Fd, OpenMode, Process};
use ficus_repro::vnode::{Credentials, FileSystem, FsError, FsResult, TimeSource};

use crate::clock::bm_thread_cpu_ns;
use crate::counters::BmCounters;
use crate::model::BmModel;
use crate::script::{BmClass, BmOp, BmStep};
use crate::trace::BmTrace;

/// Runs `call`, timed on the thread CPU clock; with a recorder, as a span.
fn bm_timed<T>(
    trace: &mut Option<BmTrace>,
    name: &'static str,
    host: u32,
    parent: u32,
    call: impl FnOnce() -> T,
) -> (T, u64) {
    match trace {
        Some(t) => {
            let id = t.bm_begin(name, host, parent);
            let out = call();
            (out, t.bm_end(id))
        }
        None => {
            let start = bm_thread_cpu_ns();
            let out = call();
            (out, bm_thread_cpu_ns() - start)
        }
    }
}

/// Starts a root span (`op`, `tick`, `heal`): its id when tracing, and the
/// start time either way.
fn bm_open(trace: &mut Option<BmTrace>, name: &'static str) -> (u32, u64) {
    match trace {
        Some(t) => {
            let id = t.bm_begin(name, 0, 0);
            (id, t.bm_spans()[id as usize - 1].start_ns)
        }
        None => (0, bm_thread_cpu_ns()),
    }
}

/// Ends what [`bm_open`] started; returns the duration.
fn bm_close(trace: &mut Option<BmTrace>, span: u32, start: u64) -> u64 {
    match trace {
        Some(t) => t.bm_end(span),
        None => bm_thread_cpu_ns() - start,
    }
}

/// One client: a `Process` over the top of some stack, plus the long-lived
/// descriptor the `bigfile` ops use.
pub struct BmClient {
    proc: Process,
    fd: Option<Fd>,
    /// System calls issued so far.
    pub syscalls: u64,
}

impl BmClient {
    /// A client whose system calls enter the stack at `top`.
    #[must_use]
    pub fn bm_new(top: Arc<dyn FileSystem>) -> Self {
        BmClient {
            proc: Process::new(top, Credentials::root()),
            fd: None,
            syscalls: 0,
        }
    }

    /// One system call, as a `syscall.<call>` span when tracing.
    fn bm_sys<T>(
        &mut self,
        trace: &mut Option<BmTrace>,
        parent: u32,
        name: &'static str,
        call: impl FnOnce(&mut Process) -> FsResult<T>,
    ) -> FsResult<T> {
        self.syscalls += 1;
        match trace {
            Some(t) => {
                let id = t.bm_begin(name, 0, parent);
                let out = call(&mut self.proc);
                t.bm_end(id);
                out
            }
            None => call(&mut self.proc),
        }
    }

    fn bm_write_path(
        &mut self,
        trace: &mut Option<BmTrace>,
        parent: u32,
        path: &str,
        mode: OpenMode,
        offset: Option<u64>,
        data: &[u8],
    ) -> FsResult<()> {
        let fd = self.bm_sys(trace, parent, "syscall.open", |p| p.open(path, mode))?;
        if let Some(offset) = offset {
            self.bm_sys(trace, parent, "syscall.seek", |p| p.seek(fd, offset))?;
        }
        let wrote = self.bm_sys(trace, parent, "syscall.write", |p| p.write(fd, data));
        let closed = self.bm_sys(trace, parent, "syscall.close", |p| p.close(fd));
        if wrote? != data.len() {
            return Err(FsError::Io);
        }
        closed
    }

    /// Executes `op`; read-class ops return the bytes read, uncopied, so
    /// that checking them costs the op nothing.
    pub fn bm_exec(
        &mut self,
        op: &BmOp,
        trace: &mut Option<BmTrace>,
        parent: u32,
    ) -> FsResult<Option<Bytes>> {
        match op {
            BmOp::ReadWhole { path } => {
                let fd = self.bm_sys(trace, parent, "syscall.open", |p| {
                    p.open(path, OpenMode::Read)
                })?;
                let size = self.bm_sys(trace, parent, "syscall.fstat", |p| p.fstat(fd));
                let data = match size {
                    Ok(attr) => self.bm_sys(trace, parent, "syscall.read", |p| {
                        p.read(fd, attr.size as usize)
                    }),
                    Err(e) => Err(e),
                };
                self.bm_sys(trace, parent, "syscall.close", |p| p.close(fd))?;
                Ok(Some(data?))
            }
            BmOp::Edit { path, offset, data } => self
                .bm_write_path(
                    trace,
                    parent,
                    path,
                    OpenMode::ReadWrite,
                    Some(*offset),
                    data,
                )
                .map(|()| None),
            BmOp::Rewrite { path, data } => self
                .bm_write_path(trace, parent, path, OpenMode::CreateTruncate, None, data)
                .map(|()| None),
            BmOp::Create { path, data } => self
                .bm_write_path(trace, parent, path, OpenMode::Create, None, data)
                .map(|()| None),
            BmOp::Unlink { path } => self
                .bm_sys(trace, parent, "syscall.unlink", |p| p.unlink(path))
                .map(|()| None),
            BmOp::Mkdir { path } => self
                .bm_sys(trace, parent, "syscall.mkdir", |p| p.mkdir(path, 0o755))
                .map(|()| None),
            BmOp::Open { path } => {
                let fd = self.bm_sys(trace, parent, "syscall.open", |p| {
                    p.open(path, OpenMode::ReadWrite)
                })?;
                self.fd = Some(fd);
                Ok(None)
            }
            BmOp::Close => {
                let fd = self.fd.take().ok_or(FsError::Invalid)?;
                self.bm_sys(trace, parent, "syscall.close", |p| p.close(fd))
                    .map(|()| None)
            }
            BmOp::Pread { offset, len } => {
                let fd = self.fd.ok_or(FsError::Invalid)?;
                self.bm_sys(trace, parent, "syscall.seek", |p| p.seek(fd, *offset))?;
                self.bm_sys(trace, parent, "syscall.read", |p| p.read(fd, *len))
                    .map(Some)
            }
            BmOp::Pwrite { offset, data } => {
                let fd = self.fd.ok_or(FsError::Invalid)?;
                self.bm_sys(trace, parent, "syscall.seek", |p| p.seek(fd, *offset))?;
                let n = self.bm_sys(trace, parent, "syscall.write", |p| p.write(fd, data))?;
                if n == data.len() {
                    Ok(None)
                } else {
                    Err(FsError::Io)
                }
            }
        }
    }
}

/// What the daemons did and how long they took, summed over a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct BmDaemonTally {
    /// Tallies returned by every `run_propagation`.
    pub propagation: PropagationStats,
    /// Tallies returned by every `run_reconciliation`.
    pub recon: ReconStats,
    /// Tallies returned by every `run_resolution`.
    pub resolution: ResolveStats,
    /// `run_reconciliation` calls made.
    pub recon_passes: u64,
    /// RPCs completed inside those calls.
    pub recon_rpcs: u64,
    /// Heals converged.
    pub heals: u64,
    /// CPU ns in `deliver_notifications` + `run_propagation`.
    pub propagate_ns: u64,
    /// CPU ns in `run_reconciliation`.
    pub recon_ns: u64,
    /// CPU ns in `run_resolution`.
    pub resolver_ns: u64,
}

/// Everything measured while a script ran.
#[derive(Debug, Default, Clone)]
pub struct BmSamples {
    /// Latency of each read-class op, ns.
    pub read_ns: Vec<u64>,
    /// Latency of each write-class op, ns.
    pub write_ns: Vec<u64>,
    /// Latency of each other op, ns.
    pub other_ns: Vec<u64>,
    /// Duration of each `Tick` / `Heal`, ns.
    pub converge_ns: Vec<u64>,
    /// Logical bytes written by foreground ops.
    pub bytes_written: u64,
    /// Ops that returned an error or read the wrong bytes, plus daemon
    /// steps that left work pending.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Daemon tallies.
    pub daemons: BmDaemonTally,
}

impl BmSamples {
    /// Foreground ops executed.
    #[must_use]
    pub fn bm_ops(&self) -> u64 {
        (self.read_ns.len() + self.write_ns.len() + self.other_ns.len()) as u64
    }

    /// CPU ns spent in foreground ops.
    #[must_use]
    pub fn bm_fg_ns(&self) -> u64 {
        self.read_ns
            .iter()
            .chain(&self.write_ns)
            .chain(&self.other_ns)
            .sum()
    }

    /// CPU ns spent in foreground ops and daemon steps together.
    #[must_use]
    pub fn bm_busy_ns(&self) -> u64 {
        self.bm_fg_ns() + self.converge_ns.iter().sum::<u64>()
    }

    /// Records a failure.
    pub fn bm_fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Adds another phase's failures to this one's.
    pub fn bm_absorb_failures(&mut self, other: &BmSamples) {
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }
}

/// A stack the scripts run against.
pub struct BmStack {
    /// The replicated world, when this stack has one. Ladder rungs over a
    /// bare UFS or a bare physical layer have none.
    pub world: Option<FicusWorld>,
    /// Whether `Tick`/`Partition`/`Heal` steps run (the full stack) or are
    /// skipped (ladder rungs).
    pub daemons: bool,
    /// One client per client host of the workload, in script order.
    pub clients: Vec<BmClient>,
    /// The hosts the clients run at (empty on ladder rungs without a world).
    pub client_hosts: Vec<u32>,
}

impl BmStack {
    /// System calls issued by every client so far.
    #[must_use]
    pub fn bm_syscalls(&self) -> u64 {
        self.clients.iter().map(|c| c.syscalls).sum()
    }

    /// Runs `steps`, updating `model` and appending to `samples`.
    pub fn bm_run(
        &mut self,
        steps: &[BmStep],
        model: &mut BmModel,
        samples: &mut BmSamples,
        trace: &mut Option<BmTrace>,
    ) {
        // Ladder rungs run the foreground ops only.
        let world = self.world.as_ref().filter(|_| self.daemons);
        for step in steps {
            match (step, world) {
                (BmStep::Op { client, op }, _) => {
                    Self::bm_run_op(&mut self.clients, *client, op, model, samples, trace);
                }
                (_, None) => {}
                (BmStep::Tick, Some(world)) => {
                    bm_tick(world, samples, trace);
                    bm_snapshot_note(world, &self.client_hosts, "tick", samples, trace);
                }
                (BmStep::Partition, Some(world)) => {
                    world.partition(&[&[HostId(1)], &[HostId(2), HostId(3)]]);
                    model.bm_partition();
                }
                (BmStep::Heal, Some(world)) => {
                    bm_heal(world, model, samples, trace);
                    bm_snapshot_note(world, &self.client_hosts, "heal", samples, trace);
                }
            }
        }
    }

    fn bm_run_op(
        clients: &mut [BmClient],
        client: usize,
        op: &BmOp,
        model: &mut BmModel,
        samples: &mut BmSamples,
        trace: &mut Option<BmTrace>,
    ) {
        let Some(c) = clients.get_mut(client) else {
            samples.bm_fail(format!("no client {client}"));
            return;
        };
        let (span, start) = bm_open(trace, "op");
        let result = c.bm_exec(op, trace, span);
        let ns = bm_close(trace, span, start);
        match op.bm_class() {
            BmClass::Read => samples.read_ns.push(ns),
            BmClass::Write => samples.write_ns.push(ns),
            BmClass::Other => samples.other_ns.push(ns),
        }
        samples.bytes_written += op.bm_bytes_written();
        let expected = model.bm_apply(client, op);
        match result {
            Err(e) => samples.bm_fail(format!("{} failed: {e:?}", op.bm_name())),
            Ok(got) if got.as_deref() != expected.as_deref() => samples.bm_fail(format!(
                "{} returned {} bytes that differ from the model's {}",
                op.bm_name(),
                got.map_or(0, |g| g.len()),
                expected.map_or(0, |e| e.len()),
            )),
            Ok(_) => {}
        }
    }
}

/// Writes zeros over every block of `disk` that still reads as zeros.
///
/// The simulated disk allocates a block's memory the first time the block
/// is written, so a fresh disk makes every first write pay a host page
/// fault and the same workload speeds up by half over its first twenty
/// segments while the allocator sweeps the platter. Real platters are not
/// lazy; this makes the simulated one behave alike before timing starts.
/// Contents are unchanged (zeros over zeros), and counters are compared as
/// deltas, so nothing measured sees it. Not part of `setup_s`.
pub fn bm_materialize(disk: &Disk) {
    let geometry = disk.geometry();
    let zeros = vec![0u8; geometry.block_size as usize];
    for bno in 0..geometry.blocks {
        if disk.read_block(bno).is_ok_and(|b| b == zeros) {
            // Cannot fail: `bno` is in range and `zeros` is one block long.
            let _ = disk.write_block(bno, &zeros);
        }
    }
}

/// When tracing, records the world's counters after tick/heal number
/// `samples.converge_ns.len()`.
fn bm_snapshot_note(
    world: &FicusWorld,
    client_hosts: &[u32],
    label: &str,
    samples: &BmSamples,
    trace: &mut Option<BmTrace>,
) {
    if let Some(t) = trace {
        let now = BmCounters::bm_snapshot(world, client_hosts);
        t.bm_note(now.bm_json(label, samples.converge_ns.len()));
    }
}

/// Notes pending on any host.
fn bm_pending_notes(world: &FicusWorld) -> usize {
    world
        .host_ids()
        .into_iter()
        .map(|h| world.pending_notes(h))
        .sum()
}

/// Conflicts pending at any replica of the root volume.
#[must_use]
pub fn bm_pending_conflicts(world: &FicusWorld) -> usize {
    let vol = world.root_volume();
    world
        .host_ids()
        .into_iter()
        .filter_map(|h| world.phys(h, vol))
        .map(|p| resolve::pending(&p).map_or(1, |list| list.len()))
        .sum()
}

/// One propagation pass: deliver notifications, run the propagation daemon
/// on every host.
fn bm_propagate(
    world: &FicusWorld,
    samples: &mut BmSamples,
    trace: &mut Option<BmTrace>,
    parent: u32,
) {
    let ((), ns) = bm_timed(trace, "propagate.deliver", 0, parent, || {
        world.deliver_notifications();
    });
    samples.daemons.propagate_ns += ns;
    for h in world.host_ids() {
        let (out, ns) = bm_timed(trace, "propagate.run", h.0, parent, || {
            world.run_propagation(h)
        });
        samples.daemons.propagate_ns += ns;
        match out {
            Ok(stats) => samples.daemons.propagation.absorb(stats),
            Err(e) => samples.bm_fail(format!("run_propagation at host {} failed: {e:?}", h.0)),
        }
    }
}

/// The daemon tick after a cycle or segment: one propagation pass, which
/// must leave no note pending.
fn bm_tick(world: &FicusWorld, samples: &mut BmSamples, trace: &mut Option<BmTrace>) {
    let (span, start) = bm_open(trace, "tick");
    bm_propagate(world, samples, trace, span);
    let ns = bm_close(trace, span, start);
    samples.converge_ns.push(ns);
    let pending = bm_pending_notes(world);
    if pending != 0 {
        samples.bm_fail(format!("{pending} notes pending after a tick"));
    }
}

/// Reconciliation rounds until one changes nothing, waiting out health
/// backoff windows the way `FicusWorld::reconcile_until_quiescent` does.
fn bm_reconcile(
    world: &FicusWorld,
    samples: &mut BmSamples,
    trace: &mut Option<BmTrace>,
    parent: u32,
) {
    for _ in 0..12 {
        let mut round = ReconStats::default();
        for h in world.host_ids() {
            let rpcs = world.net().stats().rpcs;
            let (out, ns) = bm_timed(trace, "recon.pass", h.0, parent, || {
                world.run_reconciliation(h)
            });
            samples.daemons.recon_rpcs += world.net().stats().rpcs - rpcs;
            samples.daemons.recon_ns += ns;
            samples.daemons.recon_passes += 1;
            match out {
                Ok(stats) => round.absorb(stats),
                Err(e) => {
                    samples.bm_fail(format!("run_reconciliation at host {} failed: {e:?}", h.0));
                }
            }
        }
        let quiescent = round.quiescent();
        let retry = round.peers_skipped > 0 || round.peers_failed > 0;
        samples.daemons.recon.absorb(round);
        if quiescent {
            if !retry {
                return;
            }
            if let Some(t) = world.latest_health_retry(world.clock().now()) {
                world.clock().advance_to(t);
            }
        }
    }
    samples.bm_fail("reconciliation did not quiesce in 12 rounds".to_owned());
}

/// Propagation passes until no note is pending.
fn bm_drain(world: &FicusWorld, samples: &mut BmSamples, trace: &mut Option<BmTrace>, parent: u32) {
    for _ in 0..8 {
        bm_propagate(world, samples, trace, parent);
        if bm_pending_notes(world) == 0 {
            return;
        }
        if let Some(t) = world.earliest_health_retry(world.clock().now()) {
            world.clock().advance_to(t);
        }
    }
    samples.bm_fail("propagation did not drain in 8 passes".to_owned());
}

/// Heals the network and runs the daemons until every replica agrees:
/// drain propagation, reconcile to quiescence, then resolve + drain +
/// reconcile until no conflict is pending. The whole of it is one
/// convergence sample.
fn bm_heal(
    world: &FicusWorld,
    model: &mut BmModel,
    samples: &mut BmSamples,
    trace: &mut Option<BmTrace>,
) {
    let (span, start) = bm_open(trace, "heal");
    world.heal();
    bm_drain(world, samples, trace, span);
    bm_reconcile(world, samples, trace, span);
    for round in 0.. {
        if bm_pending_conflicts(world) == 0 {
            break;
        }
        if round == 32 {
            samples.bm_fail("conflicts still pending after 32 resolution rounds".to_owned());
            break;
        }
        for h in world.host_ids() {
            let (stats, ns) =
                bm_timed(trace, "resolver.run", h.0, span, || world.run_resolution(h));
            samples.daemons.resolver_ns += ns;
            samples.daemons.resolution.absorb(stats);
        }
        bm_drain(world, samples, trace, span);
        bm_reconcile(world, samples, trace, span);
    }
    let ns = bm_close(trace, span, start);
    samples.converge_ns.push(ns);
    samples.daemons.heals += 1;

    // Outside the timed region: which side won each contested file? It must
    // be one side's bytes, whole; the model then follows the winner.
    let contested = model.bm_heal();
    if contested.is_empty() {
        return;
    }
    let mut reader = Process::new(
        Arc::clone(world.logical(HostId(1))) as Arc<dyn FileSystem>,
        Credentials::root(),
    );
    for (path, candidates) in contested {
        match reader.read_file(&path) {
            Ok(actual) if candidates.contains(&actual) => model.bm_settle(&path, actual),
            Ok(_) => samples.bm_fail(format!("{path} converged to neither side's write")),
            Err(e) => samples.bm_fail(format!("{path} unreadable after heal: {e:?}")),
        }
    }
}
