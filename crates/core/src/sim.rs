//! A turnkey multi-host Ficus world over the simulated network.
//!
//! [`FicusWorld`] assembles, per host: a disk, a UFS, the physical layers of
//! whatever volume replicas the host stores, an NFS server per export, the
//! update-notification datagram handler, and a logical layer — the full
//! stack of the paper's Figure 2. Examples, integration tests, and every
//! benchmark drive the system through this harness:
//!
//! ```text
//! let mut w = FicusWorld::new(WorldParams::default());   // 3 hosts, 3 replicas
//! let root = w.logical(HostId(1)).root();                // the one-copy view
//! ...
//! w.partition(&[&[HostId(1)], &[HostId(2), HostId(3)]]); // life happens
//! ...
//! w.heal();
//! w.reconcile_all();                                     // daemons catch up
//! ```
//!
//! The harness is deterministic: one shared [`SimClock`], seeded loss, no
//! wall-clock anywhere.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use ficus_net::{HostId, Network, NetworkParams, SimClock};
use ficus_nfs::client::{NfsClientFs, NfsClientParams};
use ficus_nfs::server::NfsServer;
use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_vnode::fault::{FaultControl, FaultLayer, FaultPlan};
use ficus_vnode::{FileSystem, FsError, FsResult, TimeSource, Timestamp, VnodeRef};

use crate::access::{LocalAccess, ReplicaAccess, VnodeAccess};
use crate::health::{HealthParams, PeerHealth, PeerState};
use crate::ids::{FicusFileId, ReplicaId, VolumeName};
use crate::logical::{FicusLogical, LogicalParams};
use crate::phys::vnode::PhysFs;
use crate::phys::{FicusPhysical, PhysParams, StorageLayout};
use crate::propagate::{
    run_propagation_with_health, PropagationPolicy, PropagationStats, UpdateNote, NOTE_SERVICE,
};
use crate::recon::{reconcile_incremental, reconcile_subtree, ReconStats};
use crate::resolver::{auto_resolve, DirPolicy, ResolveStats, ResolverConfig};
use crate::topology::{recon_peers, ReconTopology};
use crate::volume::Connector;

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldParams {
    /// Hosts in the world (numbered 1..=n).
    pub hosts: u32,
    /// Hosts storing replicas of the root volume (replica id = host id).
    pub root_replica_hosts: Vec<u32>,
    /// Physical-layer storage layout.
    pub layout: StorageLayout,
    /// Disk geometry per host.
    pub geometry: Geometry,
    /// Buffer-cache blocks per host.
    pub cache_blocks: usize,
    /// Network behavior.
    pub net: NetworkParams,
    /// Propagation policy used by [`FicusWorld::run_propagation`].
    pub propagation: PropagationPolicy,
    /// Logical-layer tunables.
    pub logical: LogicalParams,
    /// Per-peer health tracking (backoff gating of the propagation and
    /// reconciliation daemons). `None` reverts to the pre-health behavior:
    /// every daemon pass re-probes every peer — the measurement baseline
    /// for the bounded-RPC regression test.
    pub health: Option<HealthParams>,
    /// Interpose a dormant [`FaultLayer`] on every NFS export, controllable
    /// via [`FicusWorld::fault_control`] (chaos campaigns arm it mid-run).
    pub export_faults: bool,
    /// Automatic conflict-resolution configuration used by
    /// [`FicusWorld::run_resolution`]. `None` (the default) keeps every
    /// file conflict pending for the owner — the paper's behavior.
    pub resolver: Option<ResolverConfig>,
    /// Directory-race handling applied by every physical layer (partitioned
    /// renames, remove/update resurrection). Defaults to all-off.
    pub dir_policy: DirPolicy,
    /// Which peers one reconciliation pass engages ([`ReconTopology`]).
    /// Defaults to all-pairs — the historical O(N²) behavior.
    pub topology: ReconTopology,
    /// Whether reconciliation uses the change-log cursor protocol
    /// ([`crate::recon::reconcile_incremental`]) instead of walking the
    /// whole subtree every pass. Defaults to `false` (full walks).
    pub incremental: bool,
    /// Change-log ring capacity per volume replica.
    pub changelog_capacity: usize,
    /// Chunk size of the physical layer's per-file block maps.
    pub chunk_size: u32,
    /// Whether shadow commit writes only dirty chunks (`false` is the
    /// whole-file baseline E13 measures against).
    pub delta_commit: bool,
}

impl Default for WorldParams {
    fn default() -> Self {
        WorldParams {
            hosts: 3,
            root_replica_hosts: vec![1, 2, 3],
            layout: StorageLayout::Tree,
            geometry: Geometry::medium(),
            cache_blocks: 2048,
            net: NetworkParams::default(),
            propagation: PropagationPolicy::Immediate,
            logical: LogicalParams::default(),
            health: Some(HealthParams::default()),
            export_faults: false,
            resolver: None,
            dir_policy: DirPolicy::default(),
            topology: ReconTopology::AllPairs,
            incremental: false,
            changelog_capacity: 1024,
            chunk_size: crate::chunks::DEFAULT_CHUNK_SIZE,
            delta_commit: true,
        }
    }
}

/// Everything one host runs.
pub struct HostState {
    /// The host's UFS (also reachable through `phys.storage()`).
    pub ufs: Arc<Ufs>,
    /// Physical layers for the volume replicas stored here (shared with the
    /// host's connector and datagram handler, so volumes created later are
    /// visible everywhere).
    pub physes: Arc<Mutex<BTreeMap<VolumeName, Arc<FicusPhysical>>>>,
    /// The logical layer.
    pub logical: Arc<FicusLogical>,
    /// Per-peer health registry shared by this host's daemons (`None` when
    /// the world runs without health tracking).
    pub health: Option<Arc<PeerHealth>>,
}

/// The assembled world.
pub struct FicusWorld {
    clock: Arc<SimClock>,
    net: Network,
    params: WorldParams,
    root_vol: VolumeName,
    // BTreeMap, not HashMap: world-wide sweeps (tick, settle, audits) iterate
    // hosts and must visit them in a deterministic order for seeded runs.
    hosts: BTreeMap<HostId, HostState>,
    /// `(vol, replica) -> host` placement, shared with connectors.
    placement: Arc<Mutex<BTreeMap<(VolumeName, ReplicaId), HostId>>>,
    /// Fault controllers for the interposed export layers (only populated
    /// when `params.export_faults` is set).
    fault_controls: Mutex<HashMap<(HostId, VolumeName), Arc<FaultControl>>>,
    next_volume_id: u32,
}

/// RPC service name for a volume replica's NFS export.
fn export_service(vol: VolumeName, replica: ReplicaId) -> String {
    format!("ficus:{vol}:r{}", replica.0)
}

/// Registers `(vol, replica)`'s NFS export on `host`, optionally behind a
/// dormant [`FaultLayer`] whose controller lands in `controls`.
fn serve_export(
    net: &Network,
    host: HostId,
    vol: VolumeName,
    replica: ReplicaId,
    phys: &Arc<FicusPhysical>,
    export_faults: bool,
    controls: &Mutex<HashMap<(HostId, VolumeName), Arc<FaultControl>>>,
) {
    let mut fs = PhysFs::new(Arc::clone(phys)) as Arc<dyn FileSystem>;
    if export_faults {
        let (layer, control) = FaultLayer::new(fs, FaultPlan::none());
        controls.lock().insert((host, vol), control);
        fs = layer;
    }
    let server = NfsServer::new(fs);
    server.serve_as(net, host, &export_service(vol, replica));
}

/// The world's [`Connector`]: local physical layers directly, remote ones
/// through per-export NFS mounts (cached).
struct WorldConnector {
    host: HostId,
    net: Network,
    local: Arc<Mutex<BTreeMap<VolumeName, Arc<FicusPhysical>>>>,
    mounts: Mutex<HashMap<(VolumeName, ReplicaId), VnodeRef>>,
}

impl Connector for WorldConnector {
    fn connect(&self, vol: VolumeName, replica: ReplicaId, at_host: HostId) -> FsResult<VnodeRef> {
        // Co-resident replica: hand out the physical layer directly.
        if at_host == self.host {
            if let Some(phys) = self.local.lock().get(&vol) {
                if phys.replica() == replica {
                    return Ok(PhysFs::new(Arc::clone(phys)).root());
                }
            }
        }
        if let Some(root) = self.mounts.lock().get(&(vol, replica)) {
            // Cached mount: verify liveness cheaply.
            return Ok(root.clone());
        }
        // No reachability pre-check: the mount's Root RPC travels through
        // the network and fails with `Unreachable` itself, so attempts at
        // down peers show up honestly in `NetStats::rpcs_unreachable`.
        let client = NfsClientFs::mount_service(
            self.net.clone(),
            self.host,
            at_host,
            &export_service(vol, replica),
            // Replica state must be read fresh: the logical layer's
            // most-recent-copy selection cannot tolerate a stale attribute
            // cache (the §2.2 complaint about uncontrollable NFS caching).
            NfsClientParams::uncached(),
        )?;
        let root = client.root();
        self.mounts.lock().insert((vol, replica), root.clone());
        Ok(root)
    }

    fn local(&self, vol: VolumeName) -> Option<Arc<FicusPhysical>> {
        self.local.lock().get(&vol).cloned()
    }
}

impl FicusWorld {
    /// Builds a world per `params`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (e.g. a root replica host outside
    /// the host range) — worlds are test fixtures, not user input.
    #[must_use]
    pub fn new(params: WorldParams) -> Self {
        let clock = SimClock::new();
        let net = Network::new(Arc::clone(&clock), params.net.clone());
        let root_vol = VolumeName::new(1, 1);
        let placement: Arc<Mutex<BTreeMap<(VolumeName, ReplicaId), HostId>>> =
            Arc::new(Mutex::new(BTreeMap::new()));

        let all_root_replicas: Vec<u32> = params.root_replica_hosts.clone();
        let mut hosts = BTreeMap::new();
        let mut connectors: HashMap<HostId, Arc<WorldConnector>> = HashMap::new();
        let fault_controls: Mutex<HashMap<(HostId, VolumeName), Arc<FaultControl>>> =
            Mutex::new(HashMap::new());

        for h in 1..=params.hosts {
            let host = HostId(h);
            net.add_host(host);
            let disk = Disk::new(params.geometry);
            let ufs = Arc::new(
                Ufs::format_with_clock(
                    disk,
                    UfsParams {
                        fsid: u64::from(h),
                        cache_blocks: params.cache_blocks,
                        ..UfsParams::default()
                    },
                    Arc::clone(&clock) as Arc<dyn TimeSource>,
                )
                .expect("disk large enough for a UFS"),
            );
            let physes: Arc<Mutex<BTreeMap<VolumeName, Arc<FicusPhysical>>>> =
                Arc::new(Mutex::new(BTreeMap::new()));
            if params.root_replica_hosts.contains(&h) {
                assert!(h <= params.hosts, "replica host outside host range");
                let phys = FicusPhysical::create_volume(
                    Arc::clone(&ufs) as Arc<dyn FileSystem>,
                    &format!("{root_vol}"),
                    root_vol,
                    ReplicaId(h),
                    &all_root_replicas,
                    Arc::clone(&clock) as Arc<dyn TimeSource>,
                    PhysParams {
                        layout: params.layout,
                        fsid: 0x1C05_0000 | u64::from(h),
                        dir_policy: params.dir_policy,
                        changelog_capacity: params.changelog_capacity,
                        chunk_size: params.chunk_size,
                        delta_commit: params.delta_commit,
                    },
                )
                .expect("fresh volume replica");
                // Export it.
                serve_export(
                    &net,
                    host,
                    root_vol,
                    ReplicaId(h),
                    &phys,
                    params.export_faults,
                    &fault_controls,
                );
                placement.lock().insert((root_vol, ReplicaId(h)), host);
                physes.lock().insert(root_vol, phys);
            }

            let connector = Arc::new(WorldConnector {
                host,
                net: net.clone(),
                local: Arc::clone(&physes),
                mounts: Mutex::new(HashMap::new()),
            });
            connectors.insert(host, Arc::clone(&connector));

            let root_locations: Vec<(ReplicaId, HostId)> = params
                .root_replica_hosts
                .iter()
                .map(|&r| (ReplicaId(r), HostId(r)))
                .collect();
            let logical = FicusLogical::new(
                host,
                net.clone(),
                Arc::clone(&connector) as Arc<dyn Connector>,
                root_vol,
                root_locations,
                params.logical.clone(),
            );

            // Update-notification delivery: invalidate the logical layer's
            // cache for the noted file (the §3.2 coherence channel), then
            // route the note to the right physical layer on this host.
            {
                let connector = Arc::clone(&connector);
                let lcache = Arc::clone(logical.lcache());
                net.register_datagram(
                    host,
                    NOTE_SERVICE,
                    Arc::new(move |_from, payload| {
                        if let Ok(note) = UpdateNote::decode(payload) {
                            lcache.invalidate_file(note.volume, note.file);
                            if let Some(phys) = connector.local.lock().get(&note.volume) {
                                if phys.replica() != note.origin {
                                    phys.note_new_version(
                                        note.file,
                                        note.origin,
                                        ficus_vv::VersionVector::new(),
                                    );
                                }
                            }
                        }
                    }),
                );
            }

            // Each host gets its own registry (health is local knowledge)
            // with a host-salted seed so hosts don't jitter in lockstep.
            let health = params.health.clone().map(|p| {
                Arc::new(PeerHealth::new(HealthParams {
                    seed: p.seed.wrapping_add(u64::from(h)),
                    ..p
                }))
            });
            // Health transitions (peer → Down, peer → Healthy) flush that
            // peer's cached VVs, translations, and selections: entries
            // learned from a now-dead peer are suspect, and a recovered
            // peer may carry versions whose notes this host never saw.
            if let Some(hl) = &health {
                let lcache = Arc::clone(logical.lcache());
                hl.set_transition_listener(Arc::new(move |peer, _state| {
                    lcache.invalidate_peer(peer);
                }));
            }
            hosts.insert(
                host,
                HostState {
                    ufs,
                    physes,
                    logical,
                    health,
                },
            );
        }

        FicusWorld {
            clock,
            net,
            params,
            root_vol,
            hosts,
            placement,
            fault_controls,
            next_volume_id: 2,
        }
    }

    // --- accessors -----------------------------------------------------------

    /// The shared clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The network.
    #[must_use]
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The root volume's name.
    #[must_use]
    pub fn root_volume(&self) -> VolumeName {
        self.root_vol
    }

    /// The reconciliation topology this world was built with.
    #[must_use]
    pub fn topology(&self) -> ReconTopology {
        self.params.topology
    }

    /// Whether reconciliation passes use the incremental (change-log) path.
    #[must_use]
    pub fn incremental(&self) -> bool {
        self.params.incremental
    }

    /// One host's state.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist.
    #[must_use]
    pub fn host(&self, h: HostId) -> &HostState {
        &self.hosts[&h]
    }

    /// One host's logical layer.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist.
    #[must_use]
    pub fn logical(&self, h: HostId) -> &Arc<FicusLogical> {
        &self.hosts[&h].logical
    }

    /// All host ids.
    #[must_use]
    pub fn host_ids(&self) -> Vec<HostId> {
        let mut v: Vec<HostId> = self.hosts.keys().copied().collect();
        v.sort();
        v
    }

    /// The physical layer of `vol` on host `h`, if stored there.
    #[must_use]
    pub fn phys(&self, h: HostId, vol: VolumeName) -> Option<Arc<FicusPhysical>> {
        self.hosts
            .get(&h)
            .and_then(|hs| hs.physes.lock().get(&vol).cloned())
    }

    /// Host `h`'s peer-health registry, when the world tracks health.
    #[must_use]
    pub fn health(&self, h: HostId) -> Option<&Arc<PeerHealth>> {
        self.hosts.get(&h).and_then(|hs| hs.health.as_ref())
    }

    /// The fault controller interposed on `(h, vol)`'s NFS export (worlds
    /// built with `export_faults` only).
    #[must_use]
    pub fn fault_control(&self, h: HostId, vol: VolumeName) -> Option<Arc<FaultControl>> {
        self.fault_controls.lock().get(&(h, vol)).cloned()
    }

    /// The earliest instant after `now` at which any host's backed-off peer
    /// becomes eligible for another attempt.
    #[must_use]
    pub fn earliest_health_retry(&self, now: Timestamp) -> Option<Timestamp> {
        self.hosts
            .values()
            .filter_map(|hs| hs.health.as_ref())
            .filter_map(|h| h.earliest_retry_after(now))
            .min()
    }

    /// The instant after `now` at which every currently backed-off peer on
    /// every host is eligible again — the wait that unlocks the whole
    /// world, used by the convergence loop so one round retries everyone.
    #[must_use]
    pub fn latest_health_retry(&self, now: Timestamp) -> Option<Timestamp> {
        self.hosts
            .values()
            .filter_map(|hs| hs.health.as_ref())
            .filter_map(|h| h.latest_retry_after(now))
            .max()
    }

    // --- network control --------------------------------------------------------

    /// Partitions the network (see [`Network::partition`]).
    pub fn partition(&self, groups: &[&[HostId]]) {
        self.net.partition(groups);
    }

    /// Heals all partitions.
    pub fn heal(&self) {
        self.net.heal();
    }

    /// Delivers all in-flight datagrams (advancing the clock as needed).
    pub fn deliver_notifications(&self) -> usize {
        self.net.deliver_all()
    }

    // --- volumes ------------------------------------------------------------------

    /// Creates a new volume replicated on `replica_hosts` and grafts it at
    /// `graft_dir`/`name` in the root volume (creating the graft point at
    /// one root-volume replica; reconciliation spreads it).
    pub fn create_volume(
        &mut self,
        replica_hosts: &[u32],
        graft_dir: FicusFileId,
        name: &str,
    ) -> FsResult<VolumeName> {
        let root_vol = self.root_vol;
        self.create_volume_in(root_vol, replica_hosts, graft_dir, name)
    }

    /// Creates a new volume and grafts it inside an arbitrary `parent`
    /// volume (volumes form a DAG, §4.1).
    pub fn create_volume_in(
        &mut self,
        parent: VolumeName,
        replica_hosts: &[u32],
        graft_dir: FicusFileId,
        name: &str,
    ) -> FsResult<VolumeName> {
        let vol = VolumeName::new(1, self.next_volume_id);
        self.next_volume_id += 1;
        let all: Vec<u32> = replica_hosts.to_vec();
        for &h in replica_hosts {
            let host = HostId(h);
            let state = self.hosts.get_mut(&host).ok_or(FsError::Invalid)?;
            let phys = FicusPhysical::create_volume(
                Arc::clone(&state.ufs) as Arc<dyn FileSystem>,
                &format!("{vol}"),
                vol,
                ReplicaId(h),
                &all,
                Arc::clone(&self.clock) as Arc<dyn TimeSource>,
                PhysParams {
                    layout: self.params.layout,
                    fsid: 0x1C05_0000 | (u64::from(vol.volume.0) << 8) | u64::from(h),
                    dir_policy: self.params.dir_policy,
                    changelog_capacity: self.params.changelog_capacity,
                    chunk_size: self.params.chunk_size,
                    delta_commit: self.params.delta_commit,
                },
            )?;
            serve_export(
                &self.net,
                host,
                vol,
                ReplicaId(h),
                &phys,
                self.params.export_faults,
                &self.fault_controls,
            );
            self.placement.lock().insert((vol, ReplicaId(h)), host);
            state.physes.lock().insert(vol, Arc::clone(&phys));
        }
        // Create the graft point at any host storing the parent volume.
        let parent_host = *self
            .placement
            .lock()
            .iter()
            .find(|((v, _), _)| *v == parent)
            .map(|(_, h)| h)
            .ok_or(FsError::Invalid)?;
        let phys = self.phys(parent_host, parent).ok_or(FsError::Invalid)?;
        let graft = phys.make_graft_point(graft_dir, name, vol)?;
        for &h in replica_hosts {
            phys.graft_add_replica(graft, ReplicaId(h), h)?;
        }
        Ok(vol)
    }

    /// Adds a replica of `vol` on `host` — the §3.1 claim that "a client
    /// may change the location and quantity of file replicas whenever a
    /// file replica is available". The existing replicas are told about the
    /// newcomer, graft points gain its location, and the first
    /// reconciliation pass at `host` populates it.
    pub fn add_replica(&mut self, vol: VolumeName, host_num: u32) -> FsResult<ReplicaId> {
        let host = HostId(host_num);
        let state = self.hosts.get(&host).ok_or(FsError::Invalid)?;
        if state.physes.lock().contains_key(&vol) {
            return Err(FsError::Exists);
        }
        let new_id = ReplicaId(host_num);
        // Gather the current replica set from any existing replica.
        let (template_host, mut all) = {
            let placement = self.placement.lock();
            let (&(_, _), &h) = placement
                .iter()
                .find(|((v, _), _)| *v == vol)
                .ok_or(FsError::NoReplica)?;
            drop(placement);
            let phys = self
                .hosts
                .values()
                .find_map(|hs| hs.physes.lock().get(&vol).cloned())
                .ok_or(FsError::NoReplica)?;
            (h, phys.all_replicas())
        };
        let _ = template_host;
        all.insert(new_id.0);
        let all_vec: Vec<u32> = all.iter().copied().collect();

        let phys = FicusPhysical::create_volume(
            Arc::clone(&state.ufs) as Arc<dyn FileSystem>,
            &format!("{vol}"),
            vol,
            new_id,
            &all_vec,
            Arc::clone(&self.clock) as Arc<dyn TimeSource>,
            PhysParams {
                layout: self.params.layout,
                fsid: 0x1C05_0000 | (u64::from(vol.volume.0) << 8) | u64::from(host_num),
                dir_policy: self.params.dir_policy,
                changelog_capacity: self.params.changelog_capacity,
                chunk_size: self.params.chunk_size,
                delta_commit: self.params.delta_commit,
            },
        )?;
        serve_export(
            &self.net,
            host,
            vol,
            new_id,
            &phys,
            self.params.export_faults,
            &self.fault_controls,
        );
        self.placement.lock().insert((vol, new_id), host);
        state.physes.lock().insert(vol, Arc::clone(&phys));

        // Tell every existing replica about the newcomer.
        for hs in self.hosts.values() {
            if let Some(p) = hs.physes.lock().get(&vol) {
                p.extend_replica_set(new_id);
            }
        }
        // Root volume locations are bootstrap state on each logical layer;
        // graft points carry locations for every other volume.
        if vol == self.root_vol {
            for hs in self.hosts.values() {
                hs.logical.add_root_location(new_id, host);
            }
        } else {
            // Record the new location in every graft point naming this
            // volume (reconciliation spreads the entry).
            for hs in self.hosts.values() {
                let physes: Vec<Arc<FicusPhysical>> = hs.physes.lock().values().cloned().collect();
                for p in physes {
                    let _ = add_graft_location(&p, vol, new_id, host_num);
                }
            }
            // Cached grafts hold stale location lists; drop them so the
            // next use re-reads the graft point.
            for hs in self.hosts.values() {
                hs.logical.ungraft(vol);
            }
        }
        Ok(new_id)
    }

    /// Removes the replica of `vol` stored at `host` (the other half of
    /// §3.1's dynamic placement). The caller should reconcile first; this
    /// harness refuses to drop the last replica.
    pub fn remove_replica(&mut self, vol: VolumeName, host_num: u32) -> FsResult<()> {
        let host = HostId(host_num);
        let victim = ReplicaId(host_num);
        {
            let placement = self.placement.lock();
            let count = placement.keys().filter(|(v, _)| *v == vol).count();
            if count <= 1 {
                return Err(FsError::Perm); // never drop the last copy
            }
            if !placement.contains_key(&(vol, victim)) {
                return Err(FsError::NotFound);
            }
        }
        let state = self.hosts.get(&host).ok_or(FsError::Invalid)?;
        state.physes.lock().remove(&vol).ok_or(FsError::NotFound)?;
        self.placement.lock().remove(&(vol, victim));
        // Surviving replicas stop waiting for the departed one's knowledge.
        for hs in self.hosts.values() {
            if let Some(p) = hs.physes.lock().get(&vol) {
                p.shrink_replica_set(victim);
            }
        }
        if vol == self.root_vol {
            for hs in self.hosts.values() {
                hs.logical.remove_root_location(victim, host);
            }
        } else {
            for hs in self.hosts.values() {
                let physes: Vec<Arc<FicusPhysical>> = hs.physes.lock().values().cloned().collect();
                for p in physes {
                    let _ = remove_graft_location(&p, vol, victim, host_num);
                }
                hs.logical.ungraft(vol);
            }
        }
        Ok(())
    }

    // --- daemons ----------------------------------------------------------------------

    /// Runs the update-propagation daemon once on every physical layer of
    /// `h`.
    pub fn run_propagation(&self, h: HostId) -> FsResult<PropagationStats> {
        let state = &self.hosts[&h];
        let mut total = PropagationStats::default();
        let physes: Vec<(VolumeName, Arc<FicusPhysical>)> = state
            .physes
            .lock()
            .iter()
            .map(|(v, p)| (*v, Arc::clone(p)))
            .collect();
        for (vol, phys) in &physes {
            let vol = *vol;
            let connect = |origin: ReplicaId| -> FsResult<Box<dyn ReplicaAccess>> {
                self.access_replica(h, vol, origin)
            };
            total.absorb(run_propagation_with_health(
                phys.as_ref(),
                self.params.propagation,
                state.health.as_deref(),
                Some(state.logical.lcache().as_ref()),
                connect,
            )?);
        }
        Ok(total)
    }

    /// Runs one automatic-resolution pass on every physical layer of `h`
    /// (the post-recon/propagation daemon step). A no-op returning empty
    /// stats when the world has no resolver configured.
    pub fn run_resolution(&self, h: HostId) -> ResolveStats {
        let mut total = ResolveStats::default();
        let Some(config) = &self.params.resolver else {
            return total;
        };
        let state = &self.hosts[&h];
        let physes: Vec<Arc<FicusPhysical>> = state.physes.lock().values().cloned().collect();
        for phys in &physes {
            total.absorb(auto_resolve(
                phys.as_ref(),
                config,
                Some(state.logical.lcache().as_ref()),
            ));
        }
        total
    }

    /// Builds a [`ReplicaAccess`] from host `h` to `(vol, replica)`.
    fn access_replica(
        &self,
        from: HostId,
        vol: VolumeName,
        replica: ReplicaId,
    ) -> FsResult<Box<dyn ReplicaAccess>> {
        let at_host = *self
            .placement
            .lock()
            .get(&(vol, replica))
            .ok_or(FsError::NoReplica)?;
        if at_host == from {
            let phys = self.phys(from, vol).ok_or(FsError::NoReplica)?;
            return Ok(Box::new(LocalAccess::new(phys)));
        }
        // No reachability pre-check — see `WorldConnector::connect`.
        let client = NfsClientFs::mount_service(
            self.net.clone(),
            from,
            at_host,
            &export_service(vol, replica),
            NfsClientParams::uncached(),
        )?;
        Ok(Box::new(VnodeAccess::new(replica, client.root())))
    }

    /// Runs one subtree-reconciliation pass at host `h` for every volume
    /// replica it stores, against every *reachable* peer replica — the
    /// periodic protocol of §3.3.
    pub fn run_reconciliation(&self, h: HostId) -> FsResult<ReconStats> {
        let state = &self.hosts[&h];
        let mut total = ReconStats::default();
        let physes: Vec<(VolumeName, Arc<FicusPhysical>)> = state
            .physes
            .lock()
            .iter()
            .map(|(v, p)| (*v, Arc::clone(p)))
            .collect();
        let health = state.health.as_deref();
        for (vol, phys) in &physes {
            // The topology decides which peers this pass engages: all of
            // them (all-pairs), the ring successor, or the mesh set. The
            // candidate list is longer than the quota so a backed-off or
            // failing successor is deterministically routed around — the
            // next live replica in id order takes its place until the
            // backoff window re-opens.
            let candidates =
                recon_peers(self.params.topology, phys.replica(), &phys.all_replicas());
            let quota = self.params.topology.quota(candidates.len());
            let mut engaged = 0usize;
            for peer in candidates {
                if engaged >= quota {
                    break;
                }
                let now = self.clock.now();
                if let Some(hl) = health {
                    if !hl.should_attempt(peer, now) {
                        // Backed off: leave the peer for a later pass, no
                        // wire traffic. Not a failure.
                        total.peers_skipped += 1;
                        total.rpcs_avoided += 1;
                        continue;
                    }
                }
                match self.access_replica(h, *vol, peer) {
                    Ok(access) => match if self.params.incremental {
                        reconcile_incremental(phys.as_ref(), access.as_ref())
                    } else {
                        reconcile_subtree(phys.as_ref(), access.as_ref())
                    } {
                        Ok(out) => {
                            if let Some(hl) = health {
                                hl.record_success(peer);
                            }
                            if !out.quiescent() {
                                // The pass adopted versions or entries this
                                // host's logical layer may have cached.
                                state.logical.lcache().invalidate_volume(*vol);
                            }
                            total.absorb(out);
                            engaged += 1;
                        }
                        // A peer lost mid-pass (crash or partition while the
                        // BFS was walking) is the same as one lost up front:
                        // back off and move on; the next eligible pass
                        // finishes the subtree.
                        Err(FsError::Unreachable | FsError::TimedOut) => {
                            if let Some(hl) = health {
                                if hl.record_failure(peer, self.clock.now()) != PeerState::Down {
                                    total.peers_failed += 1;
                                }
                            }
                            continue;
                        }
                        Err(e) => return Err(e),
                    },
                    Err(FsError::Unreachable | FsError::TimedOut) => {
                        if let Some(hl) = health {
                            if hl.record_failure(peer, self.clock.now()) != PeerState::Down {
                                total.peers_failed += 1;
                            }
                        }
                        continue;
                    }
                    Err(FsError::NoReplica) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(total)
    }

    /// Runs reconciliation at every host until a full round changes nothing
    /// (or `max_rounds` passes). Returns the accumulated tallies.
    ///
    /// # Panics
    ///
    /// Panics if the replicas fail to converge within `max_rounds` — in a
    /// healed network that indicates a reconciliation bug.
    pub fn reconcile_until_quiescent(&self, max_rounds: usize) -> ReconStats {
        let mut total = ReconStats::default();
        for _ in 0..max_rounds {
            let mut round = ReconStats::default();
            for h in self.host_ids() {
                round.absorb(self.run_reconciliation(h).expect("reconciliation"));
            }
            let quiescent = round.quiescent();
            let retry_worthy = round.peers_skipped > 0 || round.peers_failed > 0;
            total.absorb(round);
            if quiescent {
                if !retry_worthy {
                    return total;
                }
                // The round changed nothing, but either backed-off peers
                // were never asked or an asked peer failed while still
                // short of `Down`. Wait until every open window has passed
                // — so the next round retries all of them at once — and go
                // again. A genuinely dead peer stops counting once its
                // failure streak reaches `Down` (`peers_failed` excludes
                // it), so the loop terminates: at most `down_after` failure
                // rounds per peer before a quiescent round stands.
                if let Some(t) = self.latest_health_retry(self.clock.now()) {
                    self.clock.advance_to(t);
                }
            }
        }
        panic!("replicas failed to converge within {max_rounds} rounds");
    }

    /// Update notifications still queued (or backed off) in `h`'s
    /// new-version caches.
    #[must_use]
    pub fn pending_notes(&self, h: HostId) -> usize {
        self.hosts[&h]
            .physes
            .lock()
            .values()
            .map(|p| p.pending_notifications())
            .sum()
    }

    /// Delivers notifications, then runs the propagation daemons until
    /// every new-version cache drains — advancing the clock past backoff
    /// windows and delayed-policy ages as needed — or `max_passes` passes
    /// elapse. Returns the accumulated tallies.
    pub fn drain_propagation(&self, max_passes: usize) -> PropagationStats {
        let mut total = PropagationStats::default();
        self.deliver_notifications();
        for _ in 0..max_passes {
            for h in self.host_ids() {
                if let Ok(s) = self.run_propagation(h) {
                    total.absorb(s);
                }
            }
            let pending: usize = self.host_ids().iter().map(|&h| self.pending_notes(h)).sum();
            if pending == 0 {
                break;
            }
            match self.earliest_health_retry(self.clock.now()) {
                Some(t) => self.clock.advance_to(t),
                None => match self.params.propagation {
                    // Notes still too young for the delayed policy: age them.
                    PropagationPolicy::Delayed(d) => {
                        self.clock.advance(d);
                    }
                    // Nothing to wait for; the leftovers need a peer that
                    // keeps failing — reconciliation will carry the data.
                    PropagationPolicy::Immediate => break,
                },
            }
        }
        total
    }

    /// Convenience: deliver notifications, run propagation everywhere, then
    /// reconcile to quiescence.
    pub fn settle(&self) -> ReconStats {
        self.deliver_notifications();
        for h in self.host_ids() {
            let _ = self.run_propagation(h);
        }
        self.reconcile_until_quiescent(12)
    }
}

/// Walks a volume replica's directories looking for graft points naming
/// `target`, adding the `(replica, host)` pair to each.
fn add_graft_location(
    phys: &Arc<FicusPhysical>,
    target: VolumeName,
    replica: ReplicaId,
    host: u32,
) -> FsResult<usize> {
    use crate::ids::{FicusFileId, ROOT_FILE};
    let mut added = 0;
    let mut queue: Vec<FicusFileId> = vec![ROOT_FILE];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(dir) = queue.pop() {
        if !seen.insert(dir) {
            continue;
        }
        let Ok(entries) = phys.dir_entries(dir) else {
            continue;
        };
        for e in entries.live() {
            match e.kind {
                ficus_vnode::VnodeType::GraftPoint if phys.graft_target(e.file) == Ok(target) => {
                    phys.graft_add_replica(e.file, replica, host)?;
                    added += 1;
                }
                k if k.is_directory_like() => queue.push(e.file),
                _ => {}
            }
        }
    }
    Ok(added)
}

/// Walks a volume replica's directories removing `(replica, host)` from
/// graft points naming `target`.
fn remove_graft_location(
    phys: &Arc<FicusPhysical>,
    target: VolumeName,
    replica: ReplicaId,
    host: u32,
) -> FsResult<usize> {
    use crate::ids::{FicusFileId, ROOT_FILE};
    let mut removed = 0;
    let mut queue: Vec<FicusFileId> = vec![ROOT_FILE];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(dir) = queue.pop() {
        if !seen.insert(dir) {
            continue;
        }
        let Ok(entries) = phys.dir_entries(dir) else {
            continue;
        };
        for e in entries.live() {
            match e.kind {
                ficus_vnode::VnodeType::GraftPoint if phys.graft_target(e.file) == Ok(target) => {
                    phys.graft_remove_replica(e.file, replica, host)?;
                    removed += 1;
                }
                k if k.is_directory_like() => queue.push(e.file),
                _ => {}
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests;
