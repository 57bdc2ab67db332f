//! One snapshot of every counter the layers publish, summed over the
//! world, so a phase's cost is a difference of two snapshots.

use ficus_repro::core::changelog::ChangelogStats;
use ficus_repro::core::chunks::ChunkStats;
use ficus_repro::core::logical::LogicalStats;
use ficus_repro::core::sim::FicusWorld;
use ficus_repro::net::{HostId, NetStats};
use ficus_repro::ufs::Ufs;
use ficus_repro::vnode::TimeSource;

/// `ufs::disk`, `ufs::cache` and `ufs::dnlc` counters of one or more hosts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BmUfsCounters {
    /// `DiskStats::reads`.
    pub disk_reads: u64,
    /// `DiskStats::writes`.
    pub disk_writes: u64,
    /// `CacheStats::hits`.
    pub cache_hits: u64,
    /// `CacheStats::misses`.
    pub cache_misses: u64,
    /// `CacheStats::writebacks`.
    pub cache_writebacks: u64,
    /// `CacheStats::evictions`.
    pub cache_evictions: u64,
    /// `DnlcStats::hits`.
    pub dnlc_hits: u64,
    /// `DnlcStats::misses`.
    pub dnlc_misses: u64,
}

impl BmUfsCounters {
    /// Reads one UFS's counters.
    #[must_use]
    pub fn bm_of(ufs: &Ufs) -> Self {
        let disk = ufs.disk().stats();
        let cache = ufs.cache().stats();
        let dnlc = ufs.dnlc().stats();
        BmUfsCounters {
            disk_reads: disk.reads,
            disk_writes: disk.writes,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_writebacks: cache.writebacks,
            cache_evictions: cache.evictions,
            dnlc_hits: dnlc.hits,
            dnlc_misses: dnlc.misses,
        }
    }

    fn bm_add(&mut self, o: &BmUfsCounters) {
        self.disk_reads += o.disk_reads;
        self.disk_writes += o.disk_writes;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_writebacks += o.cache_writebacks;
        self.cache_evictions += o.cache_evictions;
        self.dnlc_hits += o.dnlc_hits;
        self.dnlc_misses += o.dnlc_misses;
    }

    /// `self - earlier`, per field.
    #[must_use]
    pub fn bm_since(&self, e: &BmUfsCounters) -> BmUfsCounters {
        BmUfsCounters {
            disk_reads: self.disk_reads - e.disk_reads,
            disk_writes: self.disk_writes - e.disk_writes,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            cache_writebacks: self.cache_writebacks - e.cache_writebacks,
            cache_evictions: self.cache_evictions - e.cache_evictions,
            dnlc_hits: self.dnlc_hits - e.dnlc_hits,
            dnlc_misses: self.dnlc_misses - e.dnlc_misses,
        }
    }
}

/// Every published counter of a world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BmCounters {
    /// UFS counters, summed over hosts.
    pub ufs: BmUfsCounters,
    /// Disk blocks written at the clients' own hosts (the share of write
    /// traffic the update's origin pays).
    pub disk_writes_origin: u64,
    /// `NetStats`.
    pub net: NetStats,
    /// `LogicalStats`, summed over hosts.
    pub logical: LogicalStats,
    /// `ChunkStats`, summed over replicas.
    pub chunks: ChunkStats,
    /// `ChangelogStats`, summed over replicas.
    pub changelog: ChangelogStats,
    /// The simulated clock, microseconds.
    pub sim_us: u64,
}

impl BmCounters {
    /// Snapshots `world`; `client_hosts` are the hosts foreground ops enter
    /// at.
    #[must_use]
    pub fn bm_snapshot(world: &FicusWorld, client_hosts: &[u32]) -> Self {
        let mut c = BmCounters {
            net: world.net().stats(),
            sim_us: world.clock().now().0,
            ..BmCounters::default()
        };
        let vol = world.root_volume();
        for h in world.host_ids() {
            let ufs = BmUfsCounters::bm_of(&world.host(h).ufs);
            c.ufs.bm_add(&ufs);
            if client_hosts.contains(&h.0) {
                c.disk_writes_origin += ufs.disk_writes;
            }
            let l = world.logical(h).stats();
            c.logical.selections += l.selections;
            c.logical.notifications += l.notifications;
            c.logical.cache_hits += l.cache_hits;
            c.logical.cache_misses += l.cache_misses;
            c.logical.invalidations += l.invalidations;
            c.logical.rpcs_avoided += l.rpcs_avoided;
            if let Some(phys) = world.phys(h, vol) {
                c.chunks.absorb(&phys.chunk_stats());
                c.changelog.absorb(&phys.changelog_stats());
            }
        }
        c
    }

    /// `self - earlier`, per field.
    #[must_use]
    pub fn bm_since(&self, e: &BmCounters) -> BmCounters {
        BmCounters {
            ufs: self.ufs.bm_since(&e.ufs),
            disk_writes_origin: self.disk_writes_origin - e.disk_writes_origin,
            net: self.net.since(e.net),
            logical: LogicalStats {
                selections: self.logical.selections - e.logical.selections,
                notifications: self.logical.notifications - e.logical.notifications,
                autografts: 0,
                prunes: 0,
                cache_hits: self.logical.cache_hits - e.logical.cache_hits,
                cache_misses: self.logical.cache_misses - e.logical.cache_misses,
                invalidations: self.logical.invalidations - e.logical.invalidations,
                rpcs_avoided: self.logical.rpcs_avoided - e.logical.rpcs_avoided,
            },
            chunks: ChunkStats {
                chunks_written: self.chunks.chunks_written - e.chunks.chunks_written,
                chunks_reused: self.chunks.chunks_reused - e.chunks.chunks_reused,
                maps_committed: self.chunks.maps_committed - e.chunks.maps_committed,
                commit_aborts: self.chunks.commit_aborts - e.chunks.commit_aborts,
                ..ChunkStats::default()
            },
            changelog: ChangelogStats {
                log_appends: self.changelog.log_appends - e.changelog.log_appends,
                log_truncations: self.changelog.log_truncations - e.changelog.log_truncations,
                cursor_resets: self.changelog.cursor_resets - e.changelog.cursor_resets,
                full_walk_fallbacks: self.changelog.full_walk_fallbacks
                    - e.changelog.full_walk_fallbacks,
                sparse_vv_bytes_saved: 0,
            },
            sim_us: self.sim_us - e.sim_us,
        }
    }

    /// The snapshot as a JSON object (for the trace file).
    #[must_use]
    pub fn bm_json(&self, label: &str, index: usize) -> String {
        format!(
            "{{\"snapshot\":\"{label}\",\"index\":{index},\"disk_reads\":{},\
             \"disk_writes\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_writebacks\":{},\"cache_evictions\":{},\"dnlc_hits\":{},\
             \"dnlc_misses\":{},\"rpcs\":{},\"net_bytes\":{},\"datagrams_sent\":{},\
             \"selections\":{},\"notifications\":{},\"lcache_hits\":{},\
             \"lcache_misses\":{},\"chunks_written\":{},\"chunks_reused\":{},\
             \"maps_committed\":{},\"changelog_appends\":{},\"sim_us\":{}}}",
            self.ufs.disk_reads,
            self.ufs.disk_writes,
            self.ufs.cache_hits,
            self.ufs.cache_misses,
            self.ufs.cache_writebacks,
            self.ufs.cache_evictions,
            self.ufs.dnlc_hits,
            self.ufs.dnlc_misses,
            self.net.rpcs,
            self.net.total_bytes(),
            self.net.datagrams_sent,
            self.logical.selections,
            self.logical.notifications,
            self.logical.cache_hits,
            self.logical.cache_misses,
            self.chunks.chunks_written,
            self.chunks.chunks_reused,
            self.chunks.maps_committed,
            self.changelog.log_appends,
            self.sim_us,
        )
    }
}

/// The hosts of a world that store a replica of the root volume.
#[must_use]
pub fn bm_replica_hosts(world: &FicusWorld) -> Vec<HostId> {
    let vol = world.root_volume();
    world
        .host_ids()
        .into_iter()
        .filter(|&h| world.phys(h, vol).is_some())
        .collect()
}
