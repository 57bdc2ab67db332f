//! Chunk-storage status — the operator's view of the block-map layer.
//!
//! One row per (host, root-volume replica): the demo file's chunk map
//! (chunk size, chunk count, logical size) plus the replica's cumulative
//! [`ChunkStats`] counters — chunks written and reused by delta-aware
//! shadow commits, maps committed, and what crash recovery discarded
//! (shadow maps and map-less extents; DESIGN.md §4.13). The `replctl` binary renders this over a
//! deterministic demonstration world (two hosts, a multi-chunk file, one
//! single-chunk edit propagated as a delta), so the dirty-chunk economy is
//! observable from a shell without a daemon.

use ficus_core::chunks::ChunkStats;
use ficus_core::ids::ROOT_FILE;
use ficus_core::sim::{FicusWorld, WorldParams};
use ficus_net::HostId;
use ficus_vnode::{Credentials, FileSystem};

/// Chunk-storage state of one host's root-volume replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusRow {
    /// The host.
    pub host: u32,
    /// Its replica id in the root volume.
    pub replica: u32,
    /// Chunk size (bytes) of the inspected file's map.
    pub chunk_size: u32,
    /// Number of chunks the file's committed map references.
    pub chunks: usize,
    /// Logical file size recorded by the map.
    pub size: u64,
    /// Cumulative chunk counters for the whole replica.
    pub stats: ChunkStats,
}

/// Snapshots every host's chunk-storage state for the named root-directory
/// file, in host order. Hosts where the name does not resolve are skipped.
#[must_use]
pub fn status(world: &FicusWorld, name: &str) -> Vec<StatusRow> {
    let vol = world.root_volume();
    let mut out = Vec::new();
    for h in world.host_ids() {
        let Some(phys) = world.phys(h, vol) else {
            continue;
        };
        let Ok(entry) = phys.lookup(ROOT_FILE, name) else {
            continue;
        };
        let Ok(map) = phys.chunk_map(entry.file) else {
            continue;
        };
        out.push(StatusRow {
            host: h.0,
            replica: phys.replica().0,
            chunk_size: map.chunk_size,
            chunks: map.chunks.len(),
            size: map.size,
            stats: phys.chunk_stats(),
        });
    }
    out
}

/// Renders the status table plus a per-file header line.
#[must_use]
pub fn render(world: &FicusWorld, name: &str) -> String {
    let rows = status(world, name);
    let mut out = format!("chunk maps for `{name}` ({} replicas)\n", rows.len());
    out.push_str(&format!(
        "{:<6} {:<8} {:<11} {:<7} {:<10} {:<8} {:<7} {:<5} discarded (shadows/extents)\n",
        "host", "replica", "chunk size", "chunks", "size", "written", "reused", "maps"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<6} {:<8} {:<11} {:<7} {:<10} {:<8} {:<7} {:<5} {}/{}\n",
            r.host,
            r.replica,
            r.chunk_size,
            r.chunks,
            r.size,
            r.stats.chunks_written,
            r.stats.chunks_reused,
            r.stats.maps_committed,
            r.stats.shadows_discarded,
            r.stats.extents_discarded,
        ));
    }
    out
}

/// Name of the multi-chunk file the demonstration world seeds.
pub const DEMO_FILE: &str = "blob";

/// Builds the deterministic demonstration world: two hosts sharing an
/// eight-chunk file, then a single-chunk edit at host 1 propagated to
/// host 2 — so host 2's counters show the delta economy (one chunk
/// written for the update, seven reused from the previous map).
///
/// # Panics
///
/// Panics if the fixture cannot be built (harness bug, not user input).
#[must_use]
pub fn demo_world() -> FicusWorld {
    let world = FicusWorld::new(WorldParams {
        hosts: 2,
        root_replica_hosts: vec![1, 2],
        ..WorldParams::default()
    });
    let cred = Credentials::root();
    let chunk = ficus_core::chunks::DEFAULT_CHUNK_SIZE as usize;
    let base: Vec<u8> = (0..8 * chunk).map(|i| (i % 251) as u8).collect();
    world
        .logical(HostId(1))
        .root()
        .create(&cred, DEMO_FILE, 0o644)
        .expect("create blob")
        .write(&cred, 0, &base)
        .expect("seed blob");
    world.settle();
    // One chunk's worth of new bytes in the middle: the shadow commit and
    // the propagation pull both touch exactly one chunk.
    world
        .logical(HostId(1))
        .root()
        .lookup(&cred, DEMO_FILE)
        .expect("lookup blob")
        .write(&cred, 3 * chunk as u64, &vec![0xEE; chunk])
        .expect("edit blob");
    world.settle();
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_world_rows_show_the_delta_economy() {
        let world = demo_world();
        let rows = status(&world, DEMO_FILE);
        assert_eq!(rows.len(), 2, "rows: {rows:?}");
        for r in &rows {
            assert_eq!(r.host, r.replica, "root volume: replica id = host id");
            assert_eq!(r.chunks, 8, "host {}: eight-chunk file", r.host);
            assert_eq!(r.size, 8 * u64::from(r.chunk_size));
            assert_eq!(r.stats.commit_aborts, 0);
            assert_eq!(r.stats.shadows_discarded, 0);
            assert_eq!(r.stats.extents_discarded, 0);
        }
        // Host 1 writes locally in place (no shadow commit); host 2 adopts
        // the first version whole and shadow-commits the second as a delta,
        // reusing the seven clean chunks instead of rewriting them.
        let h2 = &rows[1];
        assert!(h2.stats.maps_committed >= 1, "rows: {rows:?}");
        assert!(h2.stats.chunks_reused >= 7, "rows: {rows:?}");
        assert!(h2.stats.chunks_written < 2 * 8, "rows: {rows:?}");
    }

    #[test]
    fn both_replicas_converged_on_the_edited_bytes() {
        let world = demo_world();
        let a = crate::conflicts::read_at(&world, 1, DEMO_FILE).expect("readable");
        let b = crate::conflicts::read_at(&world, 2, DEMO_FILE).expect("readable");
        assert_eq!(a, b);
        let chunk = ficus_core::chunks::DEFAULT_CHUNK_SIZE as usize;
        assert_eq!(&a[3 * chunk..4 * chunk], &vec![0xEE; chunk][..]);
    }

    #[test]
    fn render_is_deterministic_and_shows_every_counter_column() {
        let a = render(&demo_world(), DEMO_FILE);
        let b = render(&demo_world(), DEMO_FILE);
        assert_eq!(a, b);
        assert!(
            a.contains("chunk maps for `blob` (2 replicas)"),
            "got:\n{a}"
        );
        // Two data rows under the two header lines.
        assert_eq!(a.lines().count(), 4, "got:\n{a}");
    }

    #[test]
    fn an_unknown_name_yields_no_rows() {
        let world = demo_world();
        assert_eq!(status(&world, "no-such-file"), vec![]);
    }
}
