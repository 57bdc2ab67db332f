//! E13 — chunked delta commit and delta propagation (DESIGN.md §4.13).
//!
//! The paper's §3.2 shadow commit rewrites the whole file, which E3 shows
//! blowing up for small updates of large files ("a significant effect if
//! the client is updating a few points in a large file"). This experiment
//! measures the machinery that removes the blow-up:
//!
//! * **Delta commit** — `apply_remote_version` over the chunked store
//!   copies only the chunks whose digests changed into free slots of the
//!   file's extent plus one new map, versus the whole-file baseline
//!   (`delta_commit: false`) rewriting every chunk. Both are reported
//!   against the **ideal** — the blocks of data that actually changed
//!   (delta) or that the file holds (whole-file): the whole-file commit
//!   must stay within 3.2× ideal and linear in file size, and a 16-chunk
//!   edit of a 16 MiB file within 200 block writes.
//! * **Delta propagation** — a two-host world pulls a small edit of a
//!   large replicated file: the puller exchanges chunk maps over the
//!   `;f;map;` control name and ships only the dirty chunks (`;f;blk;`),
//!   reusing every clean chunk it already stores. `blocks_shipped` /
//!   `blocks_reused` counters make the claim exact, for the propagation
//!   daemon and the reconciliation protocol both.
//! * **One pull, at the puller** — sixteen scattered 4 KiB edits of a
//!   16 MiB file pulled over NFS with the puller's buffer cache dropped:
//!   the disk blocks the puller reads of its own copy against the ideal
//!   (its chunk map, and nothing of the 4080 clean chunks it carries by
//!   reference), and the exchanges against the ideal of two (the map, then
//!   every dirty range at once).
//!
//! Disk blocks and chunk counters are counted in the simulated stack, so
//! every metric is deterministic.

use std::sync::Arc;

use ficus_core::access::{pull_file, VnodeAccess};
use ficus_core::ids::{ReplicaId, VolumeName, ROOT_FILE};
use ficus_core::phys::vnode::PhysFs;
use ficus_core::phys::{FicusPhysical, PhysParams};
use ficus_core::sim::{FicusWorld, WorldParams};
use ficus_net::{HostId, Network, SimClock};
use ficus_nfs::client::{NfsClientFs, NfsClientParams};
use ficus_nfs::server::NfsServer;
use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_vnode::{Credentials, FileSystem, LogicalClock, TimeSource, VnodeType};

use crate::report::{Metrics, Report};
use crate::table::{ratio_of, Table};

/// Size of the replicated file in the propagation half.
pub const PROP_FILE_SIZE: usize = 1024 * 1024;
/// Size of the edit the origin makes to it.
pub const PROP_EDIT_SIZE: usize = 64 * 1024;

/// One (file size, edit size) commit measurement.
#[derive(Debug, Clone, Copy)]
pub struct DeltaCommitCost {
    /// File size in bytes.
    pub file_size: usize,
    /// Edited bytes.
    pub update_size: usize,
    /// Disk blocks written by the delta-aware chunked commit.
    pub delta_writes: u64,
    /// Disk blocks written by the whole-file baseline commit.
    pub wholefile_writes: u64,
}

/// A volume replica on a disk of its own.
fn replica(me: u32, params: PhysParams) -> (Arc<Ufs>, Arc<FicusPhysical>) {
    let ufs = Arc::new(Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap());
    let clock: Arc<dyn TimeSource> = Arc::new(LogicalClock::new());
    let phys = FicusPhysical::create_volume(
        Arc::clone(&ufs) as Arc<dyn FileSystem>,
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(me),
        &[1, 2],
        clock,
        params,
    )
    .unwrap();
    (ufs, phys)
}

/// Disk blocks one `apply_remote_version` writes for a `k`-byte edit of an
/// `n`-byte file, with delta commit on or off.
fn commit_writes(file_size: usize, update_size: usize, delta: bool) -> u64 {
    let (ufs, phys) = replica(
        1,
        PhysParams {
            delta_commit: delta,
            ..PhysParams::default()
        },
    );
    let file = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    let mut contents = vec![1u8; file_size];
    phys.write(file, 0, &contents).unwrap();
    ufs.sync().unwrap();
    let update_at = (file_size / 2).min(file_size - update_size);
    for b in &mut contents[update_at..update_at + update_size] {
        *b = 2;
    }
    let mut new_vv = phys.file_vv(file).unwrap();
    new_vv.increment(2); // the edit originated at the (fictional) peer
    let before = ufs.disk().stats();
    phys.apply_remote_version(file, &new_vv, &contents).unwrap();
    ufs.disk().stats().since(before).writes
}

/// Measures both commit paths for one `(file_size, update_size)`.
#[must_use]
pub fn measure_commit(file_size: usize, update_size: usize) -> DeltaCommitCost {
    DeltaCommitCost {
        file_size,
        update_size,
        delta_writes: commit_writes(file_size, update_size, true),
        wholefile_writes: commit_writes(file_size, update_size, false),
    }
}

/// What the two-host pull of one small edit shipped and reused.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaPropOutcome {
    /// Chunks in the file.
    pub chunks_total: u64,
    /// Chunks the propagation daemon's pull shipped over the wire.
    pub prop_blocks_shipped: u64,
    /// Chunks the propagation daemon's pull reused locally.
    pub prop_blocks_reused: u64,
    /// Data bytes the propagation pull fetched.
    pub prop_bytes_fetched: u64,
    /// Chunks a reconciliation pull of a second edit shipped.
    pub recon_blocks_shipped: u64,
    /// Chunks that reconciliation pull reused locally.
    pub recon_blocks_reused: u64,
}

/// Host 1 holds a fully replicated [`PROP_FILE_SIZE`] file; it then edits
/// [`PROP_EDIT_SIZE`] bytes in the middle. Host 2 pulls the new version —
/// once through the propagation daemon (update notification), and, for a
/// second edit made behind the notification system's back at the physical
/// layer, through the reconciliation protocol.
#[must_use]
pub fn measure_propagation() -> DeltaPropOutcome {
    let cred = Credentials::root();
    let w = FicusWorld::new(WorldParams {
        hosts: 2,
        root_replica_hosts: vec![1, 2],
        ..WorldParams::default()
    });
    let h1 = HostId(1);
    let h2 = HostId(2);
    let v = w.logical(h1).root().create(&cred, "big", 0o644).unwrap();
    v.write(&cred, 0, &vec![7u8; PROP_FILE_SIZE]).unwrap();
    w.settle(); // host 2 adopts the whole file (first copy: no delta)

    let phys2 = w.phys(h2, w.root_volume()).unwrap();
    let file = phys2.lookup(ROOT_FILE, "big").unwrap().file;
    let mut out = DeltaPropOutcome {
        chunks_total: phys2.chunk_map(file).unwrap().chunks.len() as u64,
        ..DeltaPropOutcome::default()
    };

    // The edit, announced normally: the propagation daemon pulls it.
    v.write(&cred, PROP_FILE_SIZE as u64 / 2, &vec![9u8; PROP_EDIT_SIZE])
        .unwrap();
    w.deliver_notifications();
    for _ in 0..8 {
        let mut progress = 0;
        for h in w.host_ids() {
            let s = w.run_propagation(h).unwrap();
            progress += s.files_pulled + s.notes_taken;
            out.prop_blocks_shipped += s.blocks_shipped;
            out.prop_blocks_reused += s.blocks_reused;
            out.prop_bytes_fetched += s.bytes_fetched;
        }
        if progress == 0 {
            break;
        }
    }

    // A second edit behind the notification system's back (physical-layer
    // write, as a partition would leave it): reconciliation pulls it.
    let phys1 = w.phys(h1, w.root_volume()).unwrap();
    phys1
        .write(file, PROP_FILE_SIZE as u64 / 4, &vec![5u8; PROP_EDIT_SIZE])
        .unwrap();
    for _ in 0..4 {
        let s = w.run_reconciliation(h2).unwrap();
        out.recon_blocks_shipped += s.blocks_shipped;
        out.recon_blocks_reused += s.blocks_reused;
        if s.files_pulled == 0 && s.update_conflicts == 0 {
            break;
        }
    }
    out
}

/// Size of the file in the one-pull measurement.
pub const PULL_FILE_SIZE: usize = 16 * 1024 * 1024;
/// Dirty runs (one chunk each) in the one-pull measurement.
pub const PULL_DIRTY_RUNS: usize = 16;

/// What one delta pull cost the pulling replica.
#[derive(Debug, Clone, Copy)]
pub struct PullCost {
    /// Chunks in the file.
    pub chunks_total: u64,
    /// Chunks shipped over the wire.
    pub blocks_shipped: u64,
    /// Chunks carried by reference.
    pub blocks_reused: u64,
    /// Data bytes fetched.
    pub bytes_fetched: u64,
    /// Disk blocks the puller read of its own replica, from a cold cache.
    pub puller_disk_reads: u64,
    /// Blocks holding the puller's chunk map — the ideal for the above.
    pub map_blocks: u64,
    /// RPC round trips the pull took (ideal: two).
    pub exchanges: u64,
}

/// Replica 2 has adopted a [`PULL_FILE_SIZE`] file from replica 1, which
/// then overwrites [`PULL_DIRTY_RUNS`] chunks spread evenly over it.
/// Replica 2 pulls the new version over NFS with its buffer cache dropped.
#[must_use]
pub fn measure_pull() -> PullCost {
    let (_, origin) = replica(1, PhysParams::default());
    let (ufs, puller) = replica(2, PhysParams::default());
    let file = origin.create(ROOT_FILE, "big", VnodeType::Regular).unwrap();
    let contents = vec![7u8; PULL_FILE_SIZE];
    origin.write(file, 0, &contents).unwrap();
    let vv = origin.file_vv(file).unwrap();
    puller
        .adopt_file(ROOT_FILE, file, VnodeType::Regular, &vv, &contents)
        .unwrap();
    for run in 0..PULL_DIRTY_RUNS {
        let at = run * (PULL_FILE_SIZE / PULL_DIRTY_RUNS);
        origin.write(file, at as u64, &[9u8; 4096]).unwrap();
    }

    let net = Network::fully_connected(SimClock::new());
    NfsServer::new(PhysFs::new(origin) as Arc<dyn FileSystem>).serve(&net, HostId(1));
    let mount = NfsClientFs::mount(
        net.clone(),
        HostId(2),
        HostId(1),
        NfsClientParams::uncached(),
    )
    .unwrap();
    let remote = VnodeAccess::new(ReplicaId(1), mount.root());
    ufs.sync().unwrap();
    ufs.drop_caches().unwrap();
    let (reads, rpcs) = (ufs.disk().stats().reads, net.stats().rpcs);
    let pulled = pull_file(&remote, Some(&puller), file).unwrap();
    PullCost {
        puller_disk_reads: ufs.disk().stats().reads - reads,
        exchanges: net.stats().rpcs - rpcs,
        chunks_total: pulled.blocks_shipped + pulled.blocks_reused,
        blocks_shipped: pulled.blocks_shipped,
        blocks_reused: pulled.blocks_reused,
        bytes_fetched: pulled.bytes_fetched,
        map_blocks: puller
            .chunk_map(file)
            .unwrap()
            .encode()
            .len()
            .div_ceil(4096) as u64,
    }
}

/// Runs the delta-commit half of E13 and produces its table and metrics.
/// Every metric is a counted event in the simulated stack, so all are
/// deterministic.
#[must_use]
pub fn run() -> Report {
    let mut t = Table::new(
        "E13: chunked delta commit vs whole-file shadow (DESIGN.md §4.13)",
        &[
            "file size",
            "edit",
            "delta blk writes",
            "x ideal",
            "whole-file blk writes",
            "x ideal",
            "reduction",
        ],
    );
    let mut m = Metrics::new("e13", &t.title);
    for &(n, k) in &[
        (1024 * 1024, 4 * 1024),
        (4 * 1024 * 1024, 64 * 1024),
        (16 * 1024 * 1024, 64 * 1024),
    ] {
        let c = measure_commit(n, k);
        // Ideal: one block write per block of data the commit had to move.
        let delta_amp = c.delta_writes as f64 / data_blocks(k);
        let wholefile_amp = c.wholefile_writes as f64 / data_blocks(n);
        t.row(vec![
            human(n),
            human(k),
            c.delta_writes.to_string(),
            format!("{delta_amp:.2}x"),
            c.wholefile_writes.to_string(),
            format!("{wholefile_amp:.2}x"),
            ratio_of(c.wholefile_writes as f64, c.delta_writes as f64),
        ]);
        let key = format!("f{}_u{}", human(n), human(k));
        m.det_tol(&format!("{key}.delta_amp"), "ratio", delta_amp, 0.02);
        m.det_tol(
            &format!("{key}.wholefile_amp"),
            "ratio",
            wholefile_amp,
            0.02,
        );
        m.det(
            &format!("{key}.delta_writes"),
            "blocks",
            c.delta_writes as f64,
        );
        m.det(
            &format!("{key}.wholefile_writes"),
            "blocks",
            c.wholefile_writes as f64,
        );
        if c.delta_writes > 0 {
            m.det_tol(
                &format!("{key}.reduction_ratio"),
                "ratio",
                c.wholefile_writes as f64 / c.delta_writes as f64,
                0.02,
            );
        }
    }
    t.note("delta commit copies only digest-dirty chunks into free extent slots plus one map; the whole-file baseline rewrites every chunk");
    t.note("x ideal = block writes per 4 KiB block of data moved (edit size for delta, file size for whole-file)");
    Report {
        table: t,
        metrics: m,
    }
}

/// Runs the delta-propagation half of E13 (rendered after [`run`]'s table;
/// `bench-report` merges both metric sets under the `e13` id).
#[must_use]
pub fn run_transfer() -> Report {
    let p = measure_propagation();
    let c = measure_pull();
    let mut t2 = Table::new(
        "E13b: delta propagation of one small edit, two-host world",
        &[
            "path",
            "chunks total",
            "shipped",
            "reused",
            "bytes fetched",
            "puller blk reads",
            "x ideal",
            "exchanges",
            "x ideal",
        ],
    );
    let mut m = Metrics::new("e13", &t2.title);
    t2.row(vec![
        "propagation".into(),
        p.chunks_total.to_string(),
        p.prop_blocks_shipped.to_string(),
        p.prop_blocks_reused.to_string(),
        p.prop_bytes_fetched.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t2.row(vec![
        "reconciliation".into(),
        p.chunks_total.to_string(),
        p.recon_blocks_shipped.to_string(),
        p.recon_blocks_reused.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t2.row(vec![
        format!("one pull, {PULL_DIRTY_RUNS} runs"),
        c.chunks_total.to_string(),
        c.blocks_shipped.to_string(),
        c.blocks_reused.to_string(),
        c.bytes_fetched.to_string(),
        c.puller_disk_reads.to_string(),
        format!("{:.2}x", c.puller_disk_reads as f64 / c.map_blocks as f64),
        c.exchanges.to_string(),
        format!("{:.2}x", c.exchanges as f64 / 2.0),
    ]);
    m.det("prop.chunks_total", "chunks", p.chunks_total as f64);
    m.det(
        "prop.blocks_shipped",
        "chunks",
        p.prop_blocks_shipped as f64,
    );
    m.det("prop.blocks_reused", "chunks", p.prop_blocks_reused as f64);
    m.det("prop.bytes_fetched", "bytes", p.prop_bytes_fetched as f64);
    m.det(
        "recon.blocks_shipped",
        "chunks",
        p.recon_blocks_shipped as f64,
    );
    m.det(
        "recon.blocks_reused",
        "chunks",
        p.recon_blocks_reused as f64,
    );
    m.det(
        "prop.puller_disk_reads",
        "blocks",
        c.puller_disk_reads as f64,
    );
    m.det("prop.exchanges", "rpcs", c.exchanges as f64);
    t2.note("the peers exchange per-chunk digests over the ;f;map; control name and ship only dirty chunks via ;f;blk;");
    t2.note(&format!(
        "one pull = {PULL_DIRTY_RUNS} scattered 4 KiB edits of a {} file over NFS, puller cache dropped; ideal reads = the {} blocks of its chunk map (clean chunks are carried unread), ideal exchanges = 2 (the map, then every dirty range in one batch)",
        human(PULL_FILE_SIZE),
        c.map_blocks
    ));
    Report {
        table: t2,
        metrics: m,
    }
}

/// 4 KiB blocks holding `bytes` of data — the ideal write count.
fn data_blocks(bytes: usize) -> f64 {
    bytes.div_ceil(4096) as f64
}

fn human(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MiB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}KiB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_cost_their_data_not_their_file() {
        const MIB: usize = 1024 * 1024;
        let c1 = measure_commit(MIB, 4 * 1024);
        let c4 = measure_commit(4 * MIB, 64 * 1024);
        let c16 = measure_commit(16 * MIB, 64 * 1024);
        // Whole-file: a data block, its allocation bit and its block
        // pointer per 4 KiB and little else — within 3.2x the file's data
        // blocks, and linear in its size (within 5 %).
        assert!(
            c16.wholefile_writes as f64 <= 3.2 * data_blocks(16 * MIB),
            "16 MiB whole-file commit wrote {} blocks",
            c16.wholefile_writes
        );
        for (small, large) in [(&c1, &c4), (&c4, &c16)] {
            let growth = large.wholefile_writes as f64 / small.wholefile_writes as f64;
            assert!(
                (growth - 4.0).abs() <= 0.2,
                "4x the file must cost 4x the writes: {} -> {}",
                small.wholefile_writes,
                large.wholefile_writes
            );
        }
        // Delta: the 16 dirty chunks, one map, and a constant — not a
        // function of the 4096 chunks the file has.
        assert!(
            c16.delta_writes <= 200,
            "16-chunk delta of 16 MiB wrote {} blocks",
            c16.delta_writes
        );
        assert!(c16.wholefile_writes >= c16.delta_writes * 10);
    }

    #[test]
    fn propagation_ships_only_the_dirty_chunks() {
        let p = measure_propagation();
        assert_eq!(p.chunks_total, (PROP_FILE_SIZE / 4096) as u64);
        let dirty = (PROP_EDIT_SIZE / 4096) as u64;
        // The edit is chunk-aligned (offset and length are multiples of
        // 4 KiB), so exactly the edited chunks travel.
        assert_eq!(p.prop_blocks_shipped, dirty);
        assert_eq!(p.prop_blocks_reused, p.chunks_total - dirty);
        assert_eq!(p.prop_bytes_fetched, PROP_EDIT_SIZE as u64);
        assert_eq!(p.recon_blocks_shipped, dirty);
        assert_eq!(p.recon_blocks_reused, p.chunks_total - dirty);
    }

    #[test]
    fn a_pull_reads_its_map_not_its_file_and_takes_two_exchanges() {
        let c = measure_pull();
        assert_eq!(c.chunks_total, (PULL_FILE_SIZE / 4096) as u64);
        assert_eq!(c.blocks_shipped, PULL_DIRTY_RUNS as u64);
        assert_eq!(c.blocks_reused, c.chunks_total - c.blocks_shipped);
        assert_eq!(c.exchanges, 2, "the map, then every dirty run at once");
        // The map's blocks plus the inodes, directory and indirect blocks
        // on the way to them — nothing of the 4080 clean chunks.
        assert!(
            c.puller_disk_reads <= c.map_blocks + 8,
            "{} blocks read against a {}-block map",
            c.puller_disk_reads,
            c.map_blocks
        );
    }

    #[test]
    fn full_rewrite_keeps_delta_and_baseline_equal() {
        // When every chunk changes, the delta path degenerates to the
        // baseline: same chunks written, same map committed.
        let c = measure_commit(256 * 1024, 256 * 1024);
        assert_eq!(c.delta_writes, c.wholefile_writes);
    }
}
