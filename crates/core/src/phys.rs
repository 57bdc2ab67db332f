//! The Ficus physical layer (paper §2.6): file replicas over UFS.
//!
//! One [`FicusPhysical`] manages one *volume replica*: a container of file
//! replicas stored entirely within a UFS (§4.1). The storage mapping is the
//! paper's dual mapping:
//!
//! * a Ficus directory is a **UFS file** (`d`) whose content is the encoded
//!   entry set of [`crate::dirfile::FicusDir`];
//! * each object's replication attributes live in an **auxiliary UFS file**
//!   (`a` for the directory itself, `<hex>.a` for children);
//! * the Ficus file handle is encoded as a **hexadecimal string used as a
//!   UFS pathname** (`<hex>` for a file, `<hex>.d` child-directory subtree);
//! * a regular file's contents are chunked (DESIGN.md §4.13): `<hex>` holds
//!   the encoded [`ChunkMap`], whose entries index fixed-size **slots** of
//!   one extent object `<hex>.x`, so shadow commit and propagation move
//!   only dirty chunks instead of whole files (§3.2 footnote 5), a file
//!   costs three UFS names whatever its size, and reads and in-place
//!   writes touch only the map entries of the chunks they cover.
//!
//! Two layouts are provided, the ablation behind experiment E6:
//!
//! * [`StorageLayout::Tree`] — the paper's choice: "the on-disk file
//!   organization closely parallels the logical Ficus name space topology,
//!   which allows the existing UFS caching mechanisms to continue to exploit
//!   the strong directory and file reference locality".
//! * [`StorageLayout::Flat`] — everything in one UFS directory, the shape
//!   the paper blames for the Andrew prototype's "unacceptable performance"
//!   (\[19\]): the lower-level name mapping is incompatible with the locality
//!   displayed at higher levels.
//!
//! The physical layer also implements the replication machinery that must
//! live next to the data: version-vector maintenance on every update, the
//! **shadow-map atomic commit** used by update propagation (§3.2: dirty
//! chunks go into slots the committed map does not reference, the extent
//! and a new map are fsynced, then one UFS rename swaps the map reference),
//! the **new-version cache** fed by update notifications, and crash
//! recovery (discard shadow maps and map-less extents, keep originals — a
//! slot no map references is simply free).
//!
//! Everything the layer offers is also exported through the vnode interface
//! (see [`vnode`]), including the overloaded-lookup control plane of §2.3,
//! so a remote logical layer reaches it through NFS unmodified.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, ReentrantMutex, RwLock};

use ficus_vnode::{
    Credentials, FileSystem, FsError, FsResult, OpenFlags, SetAttr, TimeSource, Timestamp,
    VnodeAttr, VnodeRef, VnodeType,
};
use ficus_vv::VersionVector;

use crate::attrs::ReplAttrs;
use crate::changelog::{ChangeLog, ChangelogStats, LogSuffix};
use crate::chunks::{
    self, ChunkEntry, ChunkMap, ChunkStats, CommitPoint, MapHeader, Patch, DEFAULT_CHUNK_SIZE,
    MAP_ENTRY_LEN, MAP_HEADER_LEN,
};
use crate::conflict::{ConflictKind, ConflictLog};
use crate::dirfile::{FicusDir, FicusEntry, MergeOutcome};
use crate::ids::{EntryId, FicusFileId, ReplicaId, VolumeName, ROOT_FILE};
use crate::resolver::DirPolicy;

pub mod vnode;

/// How file replicas map onto UFS names (the E6 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageLayout {
    /// UFS directory tree parallels the Ficus name space (the paper's
    /// design).
    Tree,
    /// Every object in one flat UFS directory (the Andrew-prototype shape
    /// the paper contrasts against).
    Flat,
}

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct PhysParams {
    /// Storage layout.
    pub layout: StorageLayout,
    /// fsid reported by the exported vnode stack.
    pub fsid: u64,
    /// Directory-race handling beyond the paper's automatic entry merge.
    pub dir_policy: DirPolicy,
    /// Change-log ring size: how many committed mutations stay available
    /// for incremental reconciliation before cursors below the floor force
    /// a full-walk fallback.
    pub changelog_capacity: usize,
    /// Chunk size (bytes) of the per-file block map (DESIGN.md §4.13).
    pub chunk_size: u32,
    /// Whether shadow commit writes only dirty chunks (`true` — the repair
    /// of §3.2 footnote 5) or rewrites every chunk (`false` — the
    /// whole-file baseline E3 and E13 measure against).
    pub delta_commit: bool,
}

impl Default for PhysParams {
    fn default() -> Self {
        PhysParams {
            layout: StorageLayout::Tree,
            fsid: 0x1C05,
            dir_policy: DirPolicy::default(),
            changelog_capacity: 1024,
            chunk_size: DEFAULT_CHUNK_SIZE,
            delta_commit: true,
        }
    }
}

/// One queued update notification (§3.2's new version cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvcEntry {
    /// Replica that holds the newer version.
    pub origin: ReplicaId,
    /// The version vector advertised in the notification.
    pub vv: VersionVector,
    /// When the notification arrived (drives delayed-propagation policy).
    pub noted_at: Timestamp,
    /// Earliest instant a pull may be attempted (moved forward when a
    /// requeue follows the origin's backoff schedule).
    pub not_before: Timestamp,
}

/// Where an object's storage lives.
#[derive(Clone)]
struct Loc {
    /// UFS directory containing the object's data/aux names.
    parent_ufs: VnodeRef,
    /// For directories: the UFS directory scoping the child subtree
    /// (tree layout), or the flat base.
    own_ufs: Option<VnodeRef>,
}

/// The physical layer for one volume replica.
pub struct FicusPhysical {
    vol: VolumeName,
    me: ReplicaId,
    all_replicas: RwLock<BTreeSet<u32>>,
    storage: Arc<dyn FileSystem>,
    base: VnodeRef,
    layout: StorageLayout,
    clock: Arc<dyn TimeSource>,
    fsid: u64,
    dir_policy: DirPolicy,
    cred: Credentials,
    big: ReentrantMutex<()>,
    // BTreeMap: `has_live_reference` walks the directories in iteration
    // order and stops at the first hit, so the order decides how many
    // directory files an unlink reads — it must not follow std's
    // per-process hasher.
    index: Mutex<BTreeMap<FicusFileId, Loc>>,
    // BTreeMap: `take_due_notifications` drains in iteration order, and the
    // propagation daemon's pull order must be deterministic per seed.
    nvc: Mutex<BTreeMap<FicusFileId, NvcEntry>>,
    conflicts: ConflictLog,
    changelog: ChangeLog,
    seq: AtomicU64,
    seq_reserved: AtomicU64,
    opens: Mutex<Vec<(FicusFileId, OpenFlags, bool)>>,
    chunk_size: u32,
    delta_commit: bool,
    chunk_counters: ChunkCounters,
    crash_plan: Mutex<Option<CommitPoint>>,
    /// Files every chunk of which this mount has written or verified, so a
    /// patch may carry their clean chunks by reference unread. Never
    /// persisted: a crash can tear an in-place write, and empty is what a
    /// mount starts from.
    verified: Mutex<BTreeSet<FicusFileId>>,
}

/// Atomic counters behind [`ChunkStats`].
#[derive(Default)]
struct ChunkCounters {
    chunks_written: AtomicU64,
    chunks_reused: AtomicU64,
    maps_committed: AtomicU64,
    commit_aborts: AtomicU64,
    shadows_discarded: AtomicU64,
    extents_discarded: AtomicU64,
    shadow_discard_failures: AtomicU64,
}

impl ChunkCounters {
    fn snapshot(&self) -> ChunkStats {
        ChunkStats {
            chunks_written: self.chunks_written.load(AtomicOrdering::Relaxed),
            chunks_reused: self.chunks_reused.load(AtomicOrdering::Relaxed),
            maps_committed: self.maps_committed.load(AtomicOrdering::Relaxed),
            commit_aborts: self.commit_aborts.load(AtomicOrdering::Relaxed),
            shadows_discarded: self.shadows_discarded.load(AtomicOrdering::Relaxed),
            extents_discarded: self.extents_discarded.load(AtomicOrdering::Relaxed),
            shadow_discard_failures: self.shadow_discard_failures.load(AtomicOrdering::Relaxed),
        }
    }
}

/// Name of the directory-content file inside a directory's UFS dir.
const DIR_FILE: &str = "d";
/// Name of a directory's own auxiliary attributes file.
const DIR_AUX: &str = "a";
/// Suffix of an object's auxiliary attributes file.
const AUX_SUFFIX: &str = ".a";
/// Suffix of a child-directory UFS subtree (tree layout).
const SUBDIR_SUFFIX: &str = ".d";
/// Suffix of a shadow file (transient; discarded at recovery).
const SHADOW_SUFFIX: &str = ".s";
/// Suffix of a regular file's extent object: the fixed-size slots its
/// chunk map indexes.
const EXTENT_SUFFIX: &str = ".x";
/// Name of the sequence-reservation meta file at the volume root.
const META_FILE: &str = "meta";
/// Orphanage for conflict copies and remove/update preserves.
const ORPHANAGE: &str = "lost+found";
/// Allocation batch persisted ahead of use.
const SEQ_BATCH: u64 = 64;

impl FicusPhysical {
    /// Creates a brand-new volume replica inside `base_name` under the root
    /// of `storage`.
    pub fn create_volume(
        storage: Arc<dyn FileSystem>,
        base_name: &str,
        vol: VolumeName,
        me: ReplicaId,
        all_replicas: &[u32],
        clock: Arc<dyn TimeSource>,
        params: PhysParams,
    ) -> FsResult<Arc<Self>> {
        let cred = Credentials::root();
        let root = storage.root();
        let base = root.mkdir(&cred, base_name, 0o755)?;
        base.mkdir(&cred, ORPHANAGE, 0o755)?;
        let phys = Self::assemble(storage, base, vol, me, all_replicas, clock, params);
        // The volume root directory: empty entry set + fresh attributes
        // ("each volume replica must store a replica of the root node").
        let mut attrs = ReplAttrs::new(VnodeType::Directory);
        attrs.vv.increment(me.0);
        let scope = phys.base.clone();
        phys.write_named(&scope, DIR_FILE, &FicusDir::new().encode())?;
        phys.write_named(&scope, DIR_AUX, &attrs.encode())?;
        phys.persist_seq(SEQ_BATCH)?;
        Ok(phys)
    }

    /// Mounts an existing volume replica: rebuilds the location index,
    /// restores the id counter, and runs crash recovery (shadows are
    /// discarded so "the original replica is retained", §3.2).
    pub fn mount(
        storage: Arc<dyn FileSystem>,
        base_name: &str,
        vol: VolumeName,
        me: ReplicaId,
        all_replicas: &[u32],
        clock: Arc<dyn TimeSource>,
        params: PhysParams,
    ) -> FsResult<Arc<Self>> {
        let cred = Credentials::root();
        let base = storage.root().lookup(&cred, base_name)?;
        let phys = Self::assemble(storage, base, vol, me, all_replicas, clock, params);
        phys.recover()?;
        Ok(phys)
    }

    fn assemble(
        storage: Arc<dyn FileSystem>,
        base: VnodeRef,
        vol: VolumeName,
        me: ReplicaId,
        all_replicas: &[u32],
        clock: Arc<dyn TimeSource>,
        params: PhysParams,
    ) -> Arc<Self> {
        Arc::new(FicusPhysical {
            vol,
            me,
            all_replicas: RwLock::new(all_replicas.iter().copied().collect()),
            storage,
            base,
            layout: params.layout,
            clock,
            fsid: params.fsid,
            dir_policy: params.dir_policy,
            cred: Credentials::root(),
            big: ReentrantMutex::new(()),
            index: Mutex::new(BTreeMap::new()),
            nvc: Mutex::new(BTreeMap::new()),
            conflicts: ConflictLog::new(),
            changelog: ChangeLog::new(params.changelog_capacity),
            seq: AtomicU64::new(1),
            seq_reserved: AtomicU64::new(0),
            opens: Mutex::new(Vec::new()),
            chunk_size: params.chunk_size.max(1),
            delta_commit: params.delta_commit,
            chunk_counters: ChunkCounters::default(),
            crash_plan: Mutex::new(None),
            verified: Mutex::new(BTreeSet::new()),
        })
    }

    // --- identity --------------------------------------------------------

    /// The volume this replica belongs to.
    #[must_use]
    pub fn volume(&self) -> VolumeName {
        self.vol
    }

    /// This replica's id.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.me
    }

    /// All replica ids of the volume (a snapshot; the set is extensible,
    /// §3.1: "the number and placement of file replicas is effectively
    /// unbounded").
    #[must_use]
    pub fn all_replicas(&self) -> BTreeSet<u32> {
        self.all_replicas.read().clone()
    }

    /// Records that a new replica has joined the volume.
    ///
    /// Growing the set only makes tombstone garbage collection *stricter*
    /// (purging now also waits for the newcomer's knowledge row), so
    /// replicas may learn of the extension at different times without
    /// risking resurrection: an entry purged under the old set had its
    /// deletion processed by every replica the newcomer can copy from.
    pub fn extend_replica_set(&self, replica: ReplicaId) {
        self.all_replicas.write().insert(replica.0);
    }

    /// Records that a replica has left the volume.
    ///
    /// Shrinking the set relaxes tombstone garbage collection (the departed
    /// replica's knowledge row is no longer awaited). The caller is
    /// responsible for reconciling the departing replica first — updates
    /// only it held would otherwise be lost, which is the §3.1 rule that
    /// placement changes happen "whenever a file replica is available".
    pub fn shrink_replica_set(&self, replica: ReplicaId) {
        self.all_replicas.write().remove(&replica.0);
    }

    /// Removes a `(replica, host)` pair from a graft point (the departing
    /// replica's location entry is tombstoned like any directory entry and
    /// reconciles away everywhere).
    pub fn graft_remove_replica(
        &self,
        graft: FicusFileId,
        replica: ReplicaId,
        host: u32,
    ) -> FsResult<()> {
        let name = format!("r{}@h{}", replica.0, host);
        match self.remove(graft, &name) {
            Ok(()) | Err(FsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The conflict log.
    #[must_use]
    pub fn conflicts(&self) -> &ConflictLog {
        &self.conflicts
    }

    /// The storage (UFS) this replica lives on.
    #[must_use]
    pub fn storage(&self) -> &Arc<dyn FileSystem> {
        &self.storage
    }

    /// Exported fsid.
    #[must_use]
    pub fn fsid(&self) -> u64 {
        self.fsid
    }

    /// The time source this replica (and its daemons) run on.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn TimeSource> {
        &self.clock
    }

    /// Open/close notifications observed (most recent last). Tests and E9
    /// read this to prove the overloaded-lookup tunnel works.
    #[must_use]
    pub fn observed_opens(&self) -> Vec<(FicusFileId, OpenFlags, bool)> {
        self.opens.lock().clone()
    }

    // --- id allocation ----------------------------------------------------

    fn next_unique(&self) -> FsResult<u64> {
        let v = self.seq.fetch_add(1, AtomicOrdering::Relaxed);
        if v + 1 >= self.seq_reserved.load(AtomicOrdering::Relaxed) {
            self.persist_seq(v + 1 + SEQ_BATCH)?;
        }
        Ok(v)
    }

    fn persist_seq(&self, upto: u64) -> FsResult<()> {
        let meta = match self.base.lookup(&self.cred, META_FILE) {
            Ok(v) => v,
            Err(FsError::NotFound) => self.base.create(&self.cred, META_FILE, 0o600)?,
            Err(e) => return Err(e),
        };
        meta.write(&self.cred, 0, &upto.to_le_bytes())?;
        meta.fsync(&self.cred)?;
        self.seq_reserved.store(upto, AtomicOrdering::Relaxed);
        Ok(())
    }

    fn load_seq(&self) -> FsResult<()> {
        match self.base.lookup(&self.cred, META_FILE) {
            Ok(meta) => {
                let data = meta.read(&self.cred, 0, 8)?;
                let slice: &[u8] = data.as_ref();
                if let Ok(bytes) = <[u8; 8]>::try_from(slice) {
                    let v = u64::from_le_bytes(bytes);
                    self.seq.store(v, AtomicOrdering::Relaxed);
                    self.seq_reserved.store(v, AtomicOrdering::Relaxed);
                }
                Ok(())
            }
            Err(FsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        }
    }

    // --- storage primitives -----------------------------------------------

    /// Location of `file` (the root is implicit).
    fn loc_of(&self, file: FicusFileId) -> FsResult<Loc> {
        if file.is_root() {
            return Ok(Loc {
                parent_ufs: self.base.clone(),
                own_ufs: Some(self.base.clone()),
            });
        }
        self.index
            .lock()
            .get(&file)
            .cloned()
            .ok_or(FsError::NotFound)
    }

    /// `(scope, content name, aux name)` for a directory-like object.
    fn dir_names(&self, dir: FicusFileId, loc: &Loc) -> FsResult<(VnodeRef, String, String)> {
        match self.layout {
            StorageLayout::Tree => {
                let own = loc.own_ufs.clone().ok_or(FsError::NotDir)?;
                Ok((own, DIR_FILE.to_owned(), DIR_AUX.to_owned()))
            }
            StorageLayout::Flat => {
                if loc.own_ufs.is_none() {
                    return Err(FsError::NotDir);
                }
                if dir.is_root() {
                    Ok((self.base.clone(), DIR_FILE.to_owned(), DIR_AUX.to_owned()))
                } else {
                    Ok((
                        self.base.clone(),
                        format!("{}.dir", dir.hex()),
                        format!("{}{}", dir.hex(), AUX_SUFFIX),
                    ))
                }
            }
        }
    }

    fn read_whole(&self, dir: &VnodeRef, name: &str) -> FsResult<Vec<u8>> {
        let v = dir.lookup(&self.cred, name)?;
        let size = v.getattr(&self.cred)?.size as usize;
        Ok(v.read(&self.cred, 0, size)?.to_vec())
    }

    /// Rewrites a whole UFS file (create if missing), fsyncing it.
    ///
    /// Overwrites in place and trims the tail rather than truncating to
    /// zero first: truncate-then-rewrite would free and re-allocate every
    /// block (two synchronous bitmap writes per block), which matters for
    /// the auxiliary files rewritten on every version-vector bump.
    fn write_named(&self, dir: &VnodeRef, name: &str, data: &[u8]) -> FsResult<VnodeRef> {
        let v = match dir.lookup(&self.cred, name) {
            Ok(v) => v,
            Err(FsError::NotFound) => dir.create(&self.cred, name, 0o600)?,
            Err(e) => return Err(e),
        };
        if !data.is_empty() {
            v.write(&self.cred, 0, data)?;
        }
        v.setattr(&self.cred, &SetAttr::size(data.len() as u64))?;
        v.fsync(&self.cred)?;
        Ok(v)
    }

    // --- directory content ------------------------------------------------

    /// Loads a directory's entry set.
    pub fn dir_entries(&self, dir: FicusFileId) -> FsResult<FicusDir> {
        let _g = self.big.lock();
        let loc = self.loc_of(dir)?;
        let (scope, content, _) = self.dir_names(dir, &loc)?;
        FicusDir::decode(&self.read_whole(&scope, &content)?)
    }

    fn store_dir_entries(&self, dir: FicusFileId, d: &FicusDir) -> FsResult<()> {
        let loc = self.loc_of(dir)?;
        let (scope, content, _) = self.dir_names(dir, &loc)?;
        self.write_named(&scope, &content, &d.encode())?;
        Ok(())
    }

    // --- attributes ----------------------------------------------------------

    /// Reads the replication attributes of `file`.
    pub fn repl_attrs(&self, file: FicusFileId) -> FsResult<ReplAttrs> {
        let _g = self.big.lock();
        let loc = self.loc_of(file)?;
        let (scope, name) = self.aux_of(file, &loc)?;
        ReplAttrs::decode(&self.read_whole(&scope, &name)?)
    }

    fn aux_of(&self, file: FicusFileId, loc: &Loc) -> FsResult<(VnodeRef, String)> {
        if loc.own_ufs.is_some() {
            let (scope, _, aux) = self.dir_names(file, loc)?;
            Ok((scope, aux))
        } else {
            Ok((
                loc.parent_ufs.clone(),
                format!("{}{}", file.hex(), AUX_SUFFIX),
            ))
        }
    }

    fn write_repl_attrs(&self, file: FicusFileId, attrs: &ReplAttrs) -> FsResult<()> {
        let loc = self.loc_of(file)?;
        let (scope, name) = self.aux_of(file, &loc)?;
        self.write_named(&scope, &name, &attrs.encode())?;
        Ok(())
    }

    /// The version vector of `file`.
    pub fn file_vv(&self, file: FicusFileId) -> FsResult<VersionVector> {
        Ok(self.repl_attrs(file)?.vv)
    }

    /// Bumps the local component of `file`'s vector (one update originated
    /// here), returning the new vector.
    fn bump_vv(&self, file: FicusFileId) -> FsResult<VersionVector> {
        let mut attrs = self.repl_attrs(file)?;
        attrs.vv.increment(self.me.0);
        self.write_repl_attrs(file, &attrs)?;
        self.log_change(file, attrs.kind.is_directory_like(), &attrs.vv);
        Ok(attrs.vv)
    }

    // --- change log (incremental reconciliation's dirty set) --------------

    /// Appends one committed mutation to the volume change log.
    fn log_change(&self, file: FicusFileId, dir_like: bool, vv: &VersionVector) {
        let width = self.all_replicas.read().len();
        self.changelog.append(file, dir_like, vv, width);
    }

    /// What changed here since sequence `from` — the serving side of the
    /// recon cursor protocol (`;f;log;<hex>` on the control plane).
    #[must_use]
    pub fn changelog_suffix(&self, from: u64) -> LogSuffix {
        self.changelog.suffix(from)
    }

    /// The cursor this replica holds into `peer`'s change log.
    #[must_use]
    pub fn peer_cursor(&self, peer: ReplicaId) -> Option<u64> {
        self.changelog.cursor(peer)
    }

    /// Advances the cursor into `peer`'s change log.
    pub fn set_peer_cursor(&self, peer: ReplicaId, next: u64) {
        self.changelog.set_cursor(peer, next);
    }

    /// Every recon cursor this replica holds, in peer order.
    #[must_use]
    pub fn peer_cursors(&self) -> Vec<(ReplicaId, u64)> {
        self.changelog.cursors()
    }

    /// Records retained in the change log right now.
    #[must_use]
    pub fn changelog_len(&self) -> usize {
        self.changelog.len()
    }

    /// The sequence number the next change-log append will get.
    #[must_use]
    pub fn changelog_next_seq(&self) -> u64 {
        self.changelog.next_seq()
    }

    /// Oldest change-log sequence still retained.
    #[must_use]
    pub fn changelog_floor(&self) -> u64 {
        self.changelog.floor()
    }

    /// Counter snapshot for the change-log machinery.
    #[must_use]
    pub fn changelog_stats(&self) -> ChangelogStats {
        self.changelog.stats()
    }

    /// Records that an incremental pass lost (or never had) its cursor.
    pub fn note_cursor_reset(&self) {
        self.changelog.note_cursor_reset();
    }

    /// Records a fallback to a full subtree walk.
    pub fn note_full_walk(&self) {
        self.changelog.note_full_walk();
    }

    // --- lookup / create / remove / rename / link -----------------------------

    /// Resolves `name` in `dir` to its primary live entry.
    pub fn lookup(&self, dir: FicusFileId, name: &str) -> FsResult<FicusEntry> {
        let _g = self.big.lock();
        let d = self.dir_entries(dir)?;
        // Disambiguated conflict names resolve to their specific entry.
        if let Some((base, rest)) = name.split_once("#e") {
            if let Some((creator, seq)) = rest.split_once('.') {
                if let (Ok(c), Ok(s)) = (creator.parse::<u32>(), seq.parse::<u64>()) {
                    return d
                        .named(base)
                        .into_iter()
                        .find(|e| e.id == EntryId::new(c, s))
                        .cloned()
                        .ok_or(FsError::NotFound);
                }
            }
        }
        d.primary(name).cloned().ok_or(FsError::NotFound)
    }

    /// Creates a regular file or symlink named `name` in `dir`.
    pub fn create(&self, dir: FicusFileId, name: &str, kind: VnodeType) -> FsResult<FicusFileId> {
        let _g = self.big.lock();
        if kind.is_directory_like() {
            return Err(FsError::Invalid);
        }
        ficus_ufs::dir::check_name(name)?;
        let mut d = self.dir_entries(dir)?;
        if d.primary(name).is_some() {
            return Err(FsError::Exists);
        }
        let loc = self.loc_of(dir)?;
        let scope = match self.layout {
            StorageLayout::Tree => loc.own_ufs.clone().ok_or(FsError::NotDir)?,
            StorageLayout::Flat => self.base.clone(),
        };
        let file = FicusFileId::new(self.me.0, self.next_unique()?);
        let entry_id = EntryId::new(self.me.0, self.next_unique()?);
        // An empty file is an empty chunk map — the extent appears with
        // the first data written.
        self.write_named(
            &scope,
            &file.hex(),
            &ChunkMap::empty(self.chunk_size).encode(),
        )?;
        let mut attrs = ReplAttrs::new(kind);
        attrs.vv.increment(self.me.0);
        self.write_named(
            &scope,
            &format!("{}{}", file.hex(), AUX_SUFFIX),
            &attrs.encode(),
        )?;
        self.index.lock().insert(
            file,
            Loc {
                parent_ufs: scope,
                own_ufs: None,
            },
        );
        self.verified.lock().insert(file);
        d.insert(FicusEntry::live(name, file, kind, entry_id), self.me)?;
        self.store_dir_entries(dir, &d)?;
        self.bump_vv(dir)?;
        Ok(file)
    }

    /// Creates a directory named `name` in `dir`.
    pub fn mkdir(&self, dir: FicusFileId, name: &str) -> FsResult<FicusFileId> {
        self.make_dir_like(dir, name, VnodeType::Directory)
    }

    /// Creates a graft point named `name` in `dir` (§4.3).
    ///
    /// "The particular volume to be grafted onto a graft point is fixed when
    /// the graft point is created" — the target is recorded as a special
    /// entry inside the graft point, so it replicates and reconciles with
    /// the rest of the graft table. Populate the replica list with
    /// [`FicusPhysical::graft_add_replica`].
    pub fn make_graft_point(
        &self,
        dir: FicusFileId,
        name: &str,
        target: VolumeName,
    ) -> FsResult<FicusFileId> {
        let graft = self.make_dir_like(dir, name, VnodeType::GraftPoint)?;
        let _g = self.big.lock();
        let mut d = self.dir_entries(graft)?;
        let id = EntryId::new(self.me.0, self.next_unique()?);
        // The entry's file id is a freshly minted placeholder (these special
        // entries never carry storage); the information lives in the name.
        let placeholder = FicusFileId::new(self.me.0, self.next_unique()?);
        d.insert(
            FicusEntry::live(
                &format!("target@v{}.{}", target.allocator.0, target.volume.0),
                placeholder,
                VnodeType::Regular,
                id,
            ),
            self.me,
        )?;
        self.store_dir_entries(graft, &d)?;
        self.bump_vv(graft)?;
        Ok(graft)
    }

    /// Reads the target volume recorded in a graft point.
    pub fn graft_target(&self, graft: FicusFileId) -> FsResult<VolumeName> {
        let _g = self.big.lock();
        let d = self.dir_entries(graft)?;
        for e in d.live() {
            if let Some(rest) = e.name.strip_prefix("target@v") {
                if let Some((a, v)) = rest.split_once('.') {
                    if let (Ok(a), Ok(v)) = (a.parse(), v.parse()) {
                        return Ok(VolumeName::new(a, v));
                    }
                }
            }
        }
        Err(FsError::NotFound)
    }

    fn make_dir_like(
        &self,
        dir: FicusFileId,
        name: &str,
        kind: VnodeType,
    ) -> FsResult<FicusFileId> {
        let _g = self.big.lock();
        ficus_ufs::dir::check_name(name)?;
        let mut d = self.dir_entries(dir)?;
        if d.primary(name).is_some() {
            return Err(FsError::Exists);
        }
        let file = FicusFileId::new(self.me.0, self.next_unique()?);
        let entry_id = EntryId::new(self.me.0, self.next_unique()?);
        let mut attrs = ReplAttrs::new(kind);
        attrs.vv.increment(self.me.0);
        self.materialize_dir(dir, file, &attrs)?;
        d.insert(FicusEntry::live(name, file, kind, entry_id), self.me)?;
        self.store_dir_entries(dir, &d)?;
        self.bump_vv(dir)?;
        Ok(file)
    }

    /// Creates the storage of a new (empty) directory-like object.
    fn materialize_dir(
        &self,
        parent: FicusFileId,
        file: FicusFileId,
        attrs: &ReplAttrs,
    ) -> FsResult<()> {
        let parent_loc = self.loc_of(parent)?;
        match self.layout {
            StorageLayout::Tree => {
                let parent_own = parent_loc.own_ufs.clone().ok_or(FsError::NotDir)?;
                let own = parent_own.mkdir(
                    &self.cred,
                    &format!("{}{}", file.hex(), SUBDIR_SUFFIX),
                    0o755,
                )?;
                self.write_named(&own, DIR_FILE, &FicusDir::new().encode())?;
                self.write_named(&own, DIR_AUX, &attrs.encode())?;
                self.index.lock().insert(
                    file,
                    Loc {
                        parent_ufs: parent_own,
                        own_ufs: Some(own),
                    },
                );
            }
            StorageLayout::Flat => {
                self.write_named(
                    &self.base,
                    &format!("{}.dir", file.hex()),
                    &FicusDir::new().encode(),
                )?;
                self.write_named(
                    &self.base,
                    &format!("{}{}", file.hex(), AUX_SUFFIX),
                    &attrs.encode(),
                )?;
                self.index.lock().insert(
                    file,
                    Loc {
                        parent_ufs: self.base.clone(),
                        own_ufs: Some(self.base.clone()),
                    },
                );
            }
        }
        Ok(())
    }

    /// Removes the name `name` from `dir` (tombstones the entry). The last
    /// live reference garbage-collects storage; directories must be empty.
    pub fn remove(&self, dir: FicusFileId, name: &str) -> FsResult<()> {
        let _g = self.big.lock();
        let d = self.dir_entries(dir)?;
        let entry = d.primary(name).cloned().ok_or(FsError::NotFound)?;
        if entry.kind.is_directory_like() {
            let child = self.dir_entries(entry.file)?;
            if child.live().count() > 0 {
                return Err(FsError::NotEmpty);
            }
        }
        self.remove_entry(dir, entry)
    }

    fn remove_entry(&self, dir: FicusFileId, entry: FicusEntry) -> FsResult<()> {
        let file_vv = self.file_vv(entry.file).unwrap_or_default();
        let mut d = self.dir_entries(dir)?;
        let death = EntryId::new(self.me.0, self.next_unique()?);
        d.tombstone(entry.id, &file_vv, death, self.me)?;
        self.store_dir_entries(dir, &d)?;
        self.bump_vv(dir)?;
        if !self.has_live_reference(entry.file)? {
            self.gc_file_storage(entry.file, entry.kind)?;
        }
        Ok(())
    }

    /// Renames within the volume: tombstone the old entry, insert a fresh
    /// one for the same file id (possibly in another directory).
    pub fn rename(
        &self,
        from_dir: FicusFileId,
        from_name: &str,
        to_dir: FicusFileId,
        to_name: &str,
    ) -> FsResult<()> {
        let _g = self.big.lock();
        ficus_ufs::dir::check_name(to_name)?;
        let src = self.dir_entries(from_dir)?;
        let entry = src.primary(from_name).cloned().ok_or(FsError::NotFound)?;
        if from_dir == to_dir && from_name == to_name {
            return Ok(());
        }
        if entry.kind.is_directory_like() && self.is_descendant(entry.file, to_dir)? {
            return Err(FsError::Invalid);
        }
        let dst = self.dir_entries(to_dir)?;
        if let Some(existing) = dst.primary(to_name).cloned() {
            if existing.file == entry.file {
                return self.remove_entry(from_dir, entry);
            }
            if existing.kind.is_directory_like() != entry.kind.is_directory_like() {
                return Err(if existing.kind.is_directory_like() {
                    FsError::IsDir
                } else {
                    FsError::NotDir
                });
            }
            self.remove(to_dir, to_name)?;
        }
        let file_vv = self.file_vv(entry.file).unwrap_or_default();
        let mut src = self.dir_entries(from_dir)?;
        let death = EntryId::new(self.me.0, self.next_unique()?);
        src.tombstone(entry.id, &file_vv, death, self.me)?;
        self.store_dir_entries(from_dir, &src)?;
        self.bump_vv(from_dir)?;

        let mut dst = self.dir_entries(to_dir)?;
        let new_id = EntryId::new(self.me.0, self.next_unique()?);
        dst.insert(
            FicusEntry::live(to_name, entry.file, entry.kind, new_id),
            self.me,
        )?;
        self.store_dir_entries(to_dir, &dst)?;
        self.bump_vv(to_dir)?;
        Ok(())
    }

    /// Adds a hard link `name` in `dir` to an existing file.
    ///
    /// Unlike Unix, Ficus permits extra names for directories too — that is
    /// how partitioned renames end up after reconciliation ("Ficus
    /// directories may have more than one name", §2.5) — but a link that
    /// would make a directory its own ancestor is refused.
    pub fn link(&self, dir: FicusFileId, name: &str, file: FicusFileId) -> FsResult<()> {
        let _g = self.big.lock();
        ficus_ufs::dir::check_name(name)?;
        let attrs = self.repl_attrs(file)?;
        if attrs.kind.is_directory_like() && self.is_descendant(file, dir)? {
            return Err(FsError::Invalid);
        }
        let mut d = self.dir_entries(dir)?;
        if d.primary(name).is_some() {
            return Err(FsError::Exists);
        }
        let id = EntryId::new(self.me.0, self.next_unique()?);
        d.insert(FicusEntry::live(name, file, attrs.kind, id), self.me)?;
        self.store_dir_entries(dir, &d)?;
        self.bump_vv(dir)?;
        Ok(())
    }

    /// True when any directory in this replica still has a live entry for
    /// `file`.
    fn has_live_reference(&self, file: FicusFileId) -> FsResult<bool> {
        if self.dir_entries(ROOT_FILE)?.references(file) {
            return Ok(true);
        }
        let dirs: Vec<FicusFileId> = self
            .index
            .lock()
            .iter()
            .filter(|(_, loc)| loc.own_ufs.is_some())
            .map(|(&id, _)| id)
            .collect();
        for d in dirs {
            match self.dir_entries(d) {
                Ok(entries) if entries.references(file) => return Ok(true),
                Ok(_) | Err(FsError::NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Whether directory `maybe_inside` equals or lies under `root`.
    fn is_descendant(&self, root: FicusFileId, maybe_inside: FicusFileId) -> FsResult<bool> {
        if root == maybe_inside {
            return Ok(true);
        }
        let mut stack = vec![root];
        let mut seen = BTreeSet::new();
        while let Some(d) = stack.pop() {
            if !seen.insert(d) {
                continue;
            }
            let entries = match self.dir_entries(d) {
                Ok(e) => e,
                Err(FsError::NotFound) => continue,
                Err(e) => return Err(e),
            };
            for e in entries.live() {
                if e.kind.is_directory_like() {
                    if e.file == maybe_inside {
                        return Ok(true);
                    }
                    stack.push(e.file);
                }
            }
        }
        Ok(false)
    }

    /// Deletes the storage (data + aux) of an unreferenced file.
    fn gc_file_storage(&self, file: FicusFileId, kind: VnodeType) -> FsResult<()> {
        let Ok(loc) = self.loc_of(file) else {
            return Ok(()); // never materialized here
        };
        if kind.is_directory_like() {
            match self.layout {
                StorageLayout::Tree => {
                    let name = format!("{}{}", file.hex(), SUBDIR_SUFFIX);
                    if let Ok(own) = loc.parent_ufs.lookup(&self.cred, &name) {
                        let _ = own.remove(&self.cred, DIR_FILE);
                        let _ = own.remove(&self.cred, DIR_AUX);
                        let _ = loc.parent_ufs.rmdir(&self.cred, &name);
                    }
                }
                StorageLayout::Flat => {
                    let _ = self.base.remove(&self.cred, &format!("{}.dir", file.hex()));
                    let _ = self
                        .base
                        .remove(&self.cred, &format!("{}{}", file.hex(), AUX_SUFFIX));
                }
            }
        } else {
            // Map first: an extent without a map is debris recovery knows how
            // to discard, a map without its extent is a torn file.
            for suffix in ["", EXTENT_SUFFIX, AUX_SUFFIX] {
                let _ = loc
                    .parent_ufs
                    .remove(&self.cred, &format!("{}{suffix}", file.hex()));
            }
        }
        self.index.lock().remove(&file);
        Ok(())
    }

    // --- file data --------------------------------------------------------------

    /// Location scope of a regular file (its chunk map and chunks live in
    /// the parent's UFS directory).
    fn file_scope(&self, file: FicusFileId) -> FsResult<VnodeRef> {
        let loc = self.loc_of(file)?;
        if loc.own_ufs.is_some() {
            return Err(FsError::IsDir);
        }
        Ok(loc.parent_ufs)
    }

    /// Decodes the whole chunk map stored at `<hex>` (commit, growth,
    /// truncate and the `;f;map;` frame; reads and overwrites go by entry).
    fn load_map(&self, scope: &VnodeRef, file: FicusFileId) -> FsResult<ChunkMap> {
        ChunkMap::decode(&self.read_whole(scope, &file.hex())?)
    }

    /// Opens the chunk map at `<hex>` by its header alone, checked against
    /// the map file's length.
    fn open_map(&self, scope: &VnodeRef, file: FicusFileId) -> FsResult<(VnodeRef, MapHeader)> {
        let v = scope.lookup(&self.cred, &file.hex())?;
        let header = MapHeader::decode(&v.read(&self.cred, 0, MAP_HEADER_LEN)?)?;
        if v.getattr(&self.cred)?.size != header.file_len() {
            return Err(FsError::Io);
        }
        Ok((v, header))
    }

    /// Reads and validates entries `[first, first + n)` of an open map.
    fn read_entries(
        &self,
        map: &VnodeRef,
        header: &MapHeader,
        first: u32,
        n: u32,
    ) -> FsResult<Vec<ChunkEntry>> {
        let want = n as usize * MAP_ENTRY_LEN;
        let buf = map.read(&self.cred, chunks::entry_offset(first), want)?;
        if buf.len() != want {
            return Err(FsError::Io);
        }
        chunks::decode_entries(header, first, &buf)
    }

    /// The extent `file`'s map indexes. Writers `create` a missing one; for
    /// readers a map that promises data with no extent behind it is a torn
    /// file, not an empty one.
    fn extent(&self, scope: &VnodeRef, file: FicusFileId, create: bool) -> FsResult<VnodeRef> {
        let name = format!("{}{EXTENT_SUFFIX}", file.hex());
        match scope.lookup(&self.cred, &name) {
            Err(FsError::NotFound) if create => scope.create(&self.cred, &name, 0o600),
            Err(FsError::NotFound) => Err(FsError::Io),
            found => found,
        }
    }

    /// Concatenated bytes of the chunks `entries` describe, each contiguous
    /// run of slots read with one UFS call. A slot that yields fewer bytes
    /// than its entry promises (a torn or shrunken extent) is an error —
    /// never short or zero-filled data.
    fn read_slots(
        &self,
        extent: &VnodeRef,
        chunk_size: u32,
        entries: &[ChunkEntry],
    ) -> FsResult<Vec<u8>> {
        let mut out = Vec::with_capacity(entries.iter().map(|e| e.len as usize).sum());
        let adjacent = |a: &ChunkEntry, b: &ChunkEntry| {
            a.len == chunk_size && a.slot.checked_add(1) == Some(b.slot)
        };
        for run in entries.chunk_by(adjacent) {
            let Some(head) = run.first() else { continue };
            let want: usize = run.iter().map(|e| e.len as usize).sum();
            let at = head
                .slot
                .checked_mul(u64::from(chunk_size))
                .ok_or(FsError::Io)?;
            let got = extent.read(&self.cred, at, want)?;
            if got.len() != want {
                return Err(FsError::Io);
            }
            out.extend_from_slice(&got);
        }
        Ok(out)
    }

    /// Writes chunks of `data` (split at `chunk_size`) into extent slots:
    /// `placed` pairs a chunk index within `data` with its slot, in index
    /// order. Each run of consecutive chunks landing in consecutive slots
    /// is one UFS write (one inode update per run, not per chunk).
    fn write_slots(
        &self,
        extent: &VnodeRef,
        chunk_size: u32,
        data: &[u8],
        placed: &[(u32, u64)],
    ) -> FsResult<()> {
        let csize = chunk_size as usize;
        let adjacent =
            |a: &(u32, u64), b: &(u32, u64)| a.0 + 1 == b.0 && a.1.checked_add(1) == Some(b.1);
        for run in placed.chunk_by(adjacent) {
            let (Some(&(lo, slot)), Some(&(hi, _))) = (run.first(), run.last()) else {
                continue;
            };
            let end = ((hi as usize + 1) * csize).min(data.len());
            let bytes = data.get(lo as usize * csize..end).ok_or(FsError::Io)?;
            let at = slot.checked_mul(csize as u64).ok_or(FsError::FileTooBig)?;
            extent.write(&self.cred, at, bytes)?;
        }
        self.chunk_counters
            .chunks_written
            .fetch_add(placed.len() as u64, AtomicOrdering::Relaxed);
        Ok(())
    }

    /// Puts `data` at `offset`, growing the file to `offset + data.len()`
    /// when that lies past its end (any gap reads as zeros; empty `data`
    /// is a pure zero-extension).
    ///
    /// Chunks are rewritten in the slots they already occupy, and only the
    /// map entries of the touched chunks are read and written back. Chunks
    /// past the current end need new slots, and only the whole map can say
    /// which are free — that is the one case that decodes it.
    fn splice(
        &self,
        scope: &VnodeRef,
        file: FicusFileId,
        offset: u64,
        data: &[u8],
    ) -> FsResult<()> {
        let (mapv, header) = self.open_map(scope, file)?;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooBig)?;
        let total = header.size.max(end);
        if data.is_empty() && total == header.size {
            return Ok(());
        }
        let csize = u64::from(header.chunk_size);
        let too_big = |_| FsError::FileTooBig;
        // Chunks `[first, upto)` are touched; those past `header.count` are new.
        let first = u32::try_from(offset.min(header.size) / csize).map_err(too_big)?;
        let upto = u32::try_from((end - 1) / csize + 1).map_err(too_big)?;
        let kept = upto.min(header.count).saturating_sub(first);
        let mut window = self.read_entries(&mapv, &header, first, kept)?;
        if upto > header.count {
            let whole = mapv.read(&self.cred, 0, header.file_len() as usize)?;
            let free = ChunkMap::decode(&whole)?.free_slots();
            let fresh = (upto - first - kept) as usize;
            window.extend(free.take(fresh).map(|slot| ChunkEntry {
                slot,
                len: 0,
                digest: 0,
            }));
        }

        // The window's bytes: zeros, under the old head and tail chunks
        // where `data` does not cover them, under `data`.
        let wstart = u64::from(first) * csize;
        let wlen = (u64::from(upto) * csize).min(total) - wstart;
        let wlen = usize::try_from(wlen).map_err(too_big)?;
        let mut buf = Vec::new();
        buf.try_reserve_exact(wlen).map_err(|_| FsError::NoSpace)?;
        buf.resize(wlen, 0u8);
        let extent = self.extent(scope, file, true)?;
        for pos in BTreeSet::from([0, window.len() - 1]) {
            let Some(old) = window.get(pos).filter(|e| e.len > 0) else {
                continue;
            };
            let cstart = wstart + pos as u64 * csize;
            if offset > cstart || end < cstart + u64::from(old.len) {
                let bytes =
                    self.read_slots(&extent, header.chunk_size, std::slice::from_ref(old))?;
                let at = pos * csize as usize;
                buf.get_mut(at..at + bytes.len())
                    .ok_or(FsError::Io)?
                    .copy_from_slice(&bytes);
            }
        }
        let at = (offset - wstart) as usize;
        buf.get_mut(at..at + data.len())
            .ok_or(FsError::Io)?
            .copy_from_slice(data);

        let placed: Vec<(u32, u64)> = (0u32..).zip(window.iter().map(|e| e.slot)).collect();
        self.write_slots(&extent, header.chunk_size, &buf, &placed)?;
        for (e, piece) in window.iter_mut().zip(buf.chunks(csize as usize)) {
            e.len = piece.len() as u32;
            e.digest = chunks::digest(piece);
        }
        mapv.write(
            &self.cred,
            chunks::entry_offset(first),
            &chunks::encode_entries(&window),
        )?;
        if total != header.size {
            let count = upto.max(header.count);
            let grown = MapHeader {
                size: total,
                count,
                ..header
            };
            mapv.write(&self.cred, 0, &grown.encode())?;
        }
        mapv.fsync(&self.cred)
    }

    /// Reads file data: the header, the entries of the chunks the range
    /// covers, and those chunks' slots — nothing else of the map.
    pub fn read(&self, file: FicusFileId, offset: u64, len: usize) -> FsResult<Bytes> {
        let _g = self.big.lock();
        let scope = self.file_scope(file)?;
        let (mapv, header) = self.open_map(&scope, file)?;
        let end = header.size.min(offset.saturating_add(len as u64));
        if offset >= end {
            return Ok(Bytes::new());
        }
        let csize = u64::from(header.chunk_size);
        let first = (offset / csize) as u32;
        let last = ((end - 1) / csize) as u32;
        let entries = self.read_entries(&mapv, &header, first, last - first + 1)?;
        let extent = self.extent(&scope, file, false)?;
        let mut out = self.read_slots(&extent, header.chunk_size, &entries)?;
        let wstart = u64::from(first) * csize;
        out.truncate((end - wstart) as usize);
        out.drain(..(offset - wstart) as usize);
        Ok(Bytes::from(out))
    }

    /// Writes file data, bumping the version vector (one update originated
    /// at this replica).
    ///
    /// Local writes modify chunks in place (read-modify-write of the
    /// affected slots plus an in-place rewrite of their map entries): like
    /// direct UFS writes, they are not atomic under a crash — only
    /// *propagated* versions carry the §3.2 commit guarantee.
    pub fn write(&self, file: FicusFileId, offset: u64, data: &[u8]) -> FsResult<usize> {
        let _g = self.big.lock();
        let scope = self.file_scope(file)?;
        if !data.is_empty() {
            let spliced = self.splice(&scope, file, offset, data);
            spliced.inspect_err(|_| self.unverify(file))?;
        }
        self.bump_vv(file)?;
        Ok(data.len())
    }

    /// Truncates file data, bumping the version vector.
    pub fn truncate(&self, file: FicusFileId, size: u64) -> FsResult<()> {
        let _g = self.big.lock();
        let scope = self.file_scope(file)?;
        let resized = self.resize(&scope, file, size);
        resized.inspect_err(|_| self.unverify(file))?;
        self.bump_vv(file)?;
        Ok(())
    }

    /// An in-place update that failed may have left a slot and its map
    /// entry disagreeing: the file leaves the verified set, and the next
    /// pull checks its chunks again.
    fn unverify(&self, file: FicusFileId) {
        self.verified.lock().remove(&file);
    }

    fn resize(&self, scope: &VnodeRef, file: FicusFileId, size: u64) -> FsResult<()> {
        let mut map = self.load_map(scope, file)?;
        if size > map.size {
            self.splice(scope, file, size, &[])?;
        } else if size < map.size {
            map.chunks
                .truncate(size.div_ceil(u64::from(map.chunk_size)) as usize);
            map.size = size;
            let header = map.header();
            let tlen = header.chunk_len(header.count.saturating_sub(1));
            if let Some(tail) = map.chunks.last_mut().filter(|t| tlen < t.len) {
                let extent = self.extent(scope, file, false)?;
                let bytes = self.read_slots(&extent, map.chunk_size, std::slice::from_ref(tail))?;
                tail.len = tlen;
                tail.digest = chunks::digest(bytes.get(..tlen as usize).ok_or(FsError::Io)?);
            }
            self.write_named(scope, &file.hex(), &map.encode())?;
            // Slots past the highest one still referenced hold nothing any
            // map can reach: give their blocks back.
            let used = map.chunks.iter().map(|c| c.slot.saturating_add(1)).max();
            let keep = used.unwrap_or(0).saturating_mul(u64::from(map.chunk_size));
            match self.extent(scope, file, false) {
                Ok(extent) if keep < extent.getattr(&self.cred)?.size => {
                    extent.setattr(&self.cred, &SetAttr::size(keep))?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// UFS-level attributes of the object's storage (size, times). For a
    /// regular file the inode is the chunk map's; the size reported is the
    /// logical file size the map records.
    pub fn storage_attr(&self, file: FicusFileId) -> FsResult<VnodeAttr> {
        let _g = self.big.lock();
        let loc = self.loc_of(file)?;
        if loc.own_ufs.is_some() {
            let (scope, content, _) = self.dir_names(file, &loc)?;
            scope.lookup(&self.cred, &content)?.getattr(&self.cred)
        } else {
            let (map, header) = self.open_map(&loc.parent_ufs, file)?;
            let mut attr = map.getattr(&self.cred)?;
            attr.size = header.size;
            Ok(attr)
        }
    }

    /// The chunk map of a regular file — the delta-propagation manifest
    /// served at `;f;map;<hex>` on the control plane.
    pub fn chunk_map(&self, file: FicusFileId) -> FsResult<ChunkMap> {
        let _g = self.big.lock();
        let scope = self.file_scope(file)?;
        self.load_map(&scope, file)
    }

    /// Concatenated bytes of chunks `[start, start + count)` — served at
    /// `;f;blk;<hex>;<start>;<count>` on the control plane.
    pub fn read_chunk_range(&self, file: FicusFileId, start: u32, count: u32) -> FsResult<Vec<u8>> {
        let _g = self.big.lock();
        let scope = self.file_scope(file)?;
        let (mapv, header) = self.open_map(&scope, file)?;
        let end = start.checked_add(count).ok_or(FsError::Invalid)?;
        if end > header.count {
            return Err(FsError::Invalid);
        }
        if count == 0 {
            return Ok(Vec::new());
        }
        let entries = self.read_entries(&mapv, &header, start, count)?;
        self.read_slots(
            &self.extent(&scope, file, false)?,
            header.chunk_size,
            &entries,
        )
    }

    /// Counter snapshot for the chunked-storage machinery.
    #[must_use]
    pub fn chunk_stats(&self) -> ChunkStats {
        self.chunk_counters.snapshot()
    }

    /// Arms a one-shot injected crash at `at` inside the next chunked
    /// commit (test/chaos hook). The commit returns `FsError::Io` and
    /// leaves its debris in place, modelling power loss — recovery at the
    /// next mount must clean up.
    pub fn arm_commit_crash(&self, at: CommitPoint) {
        *self.crash_plan.lock() = Some(at);
    }

    /// Consumes an armed crash if it matches `at`.
    fn take_crash(&self, at: CommitPoint) -> bool {
        let mut plan = self.crash_plan.lock();
        if *plan == Some(at) {
            *plan = None;
            true
        } else {
            false
        }
    }

    /// Records an open notification (delivered through the overloaded
    /// lookup tunnel when NFS sits above this layer, §2.3).
    pub fn note_open(&self, file: FicusFileId, flags: OpenFlags) {
        self.opens.lock().push((file, flags, true));
    }

    /// Records a close notification.
    pub fn note_close(&self, file: FicusFileId, flags: OpenFlags) {
        self.opens.lock().push((file, flags, false));
    }

    // --- shadow commit and remote versions ----------------------------------------

    /// Atomically replaces `file`'s contents with `data`, adopting
    /// `new_vv`: the commit of [`FicusPhysical::apply_patch`] over the patch
    /// computed from the bytes — every chunk digested once, and those the
    /// committed map already holds (same index, length and digest) carried.
    pub fn apply_remote_version(
        &self,
        file: FicusFileId,
        new_vv: &VersionVector,
        data: &[u8],
    ) -> FsResult<()> {
        self.commit(file, new_vv, |old_map| {
            let map = ChunkMap::of(data, old_map.chunk_size);
            let dirty = if self.delta_commit {
                self.dirty_chunks(file, old_map, &map)
            } else {
                (0..map.chunks.len() as u32).collect()
            };
            Ok(Patch { map, dirty, data })
        })
    }

    /// Atomically replaces `file`'s contents with those `patch` describes,
    /// adopting `new_vv`, via the single-file atomic commit service of
    /// §3.2 — chunked, so only the patch's *dirty* chunks hit the disk
    /// (footnote 5's "update a few bytes of a large file" cost goes away)
    /// and its clean chunks keep their slots unread.
    ///
    /// Sequence: copy the dirty chunks into extent slots the committed map
    /// does not reference and force the extent to disk, once; write the
    /// shadow *map* (`<hex>.s`) and force it; atomically swap the map
    /// reference (UFS rename); then persist the merged attributes. A crash
    /// before the swap leaves the original map and every slot it names
    /// intact (recovery discards the shadow map; the slots the commit
    /// filled were never referenced and are simply free); a crash between
    /// swap and attribute write leaves the data newer than its recorded
    /// vector, which a later propagation pass simply repeats.
    ///
    /// A *genuine* failure mid-commit (as opposed to an injected crash)
    /// removes the shadow map before returning — a failed rename must not
    /// leak its shadow until the next recovery.
    ///
    /// The patch's builder vouches for it: each dirty piece digests to its
    /// entry, and the dirty set came from [`FicusPhysical::dirty_chunks`],
    /// which checks what it lets a patch carry. A clean index whose
    /// committed entry disagrees with the patch's map is `Stale` before
    /// anything is written.
    pub fn apply_patch(
        &self,
        file: FicusFileId,
        new_vv: &VersionVector,
        patch: Patch<'_>,
    ) -> FsResult<()> {
        self.commit(file, new_vv, |_| Ok(patch))
    }

    /// The one commit: `patch` is built against the committed map once the
    /// vectors say there is something newer to commit.
    fn commit<'a>(
        &self,
        file: FicusFileId,
        new_vv: &VersionVector,
        patch: impl FnOnce(&ChunkMap) -> FsResult<Patch<'a>>,
    ) -> FsResult<()> {
        let _g = self.big.lock();
        let mut attrs = self.repl_attrs(file)?;
        if attrs.vv.covers(new_vv) {
            return Ok(()); // nothing newer here
        }
        if attrs.vv.concurrent_with(new_vv) {
            return Err(FsError::Conflict);
        }
        let scope = self.file_scope(file)?;
        let old_map = self.load_map(&scope, file)?;
        let patch = patch(&old_map)?;
        let armed = self.crash_plan.lock().is_some();
        if let Err(e) = self.commit_chunked(&scope, file, &old_map, patch) {
            // An injected crash models power loss: leave the debris for
            // recovery to prove it cleans up. A real error cleans up here.
            let injected = armed && self.crash_plan.lock().is_none();
            if !injected {
                let _ = scope.remove(&self.cred, &format!("{}{}", file.hex(), SHADOW_SUFFIX));
                self.chunk_counters
                    .commit_aborts
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
            return Err(e);
        }
        // Every chunk the new map names was just written or is vouched for.
        self.verified.lock().insert(file);
        self.chunk_counters
            .maps_committed
            .fetch_add(1, AtomicOrdering::Relaxed);
        if self.take_crash(CommitPoint::BeforeAttrWrite) {
            return Err(FsError::Io);
        }
        attrs.vv.merge(new_vv);
        // A version that dominates a stashed divergence is its resolution
        // arriving from elsewhere: the stash is obsolete.
        self.gc_covered_stashes(file, &mut attrs)?;
        self.write_repl_attrs(file, &attrs)?;
        self.log_change(file, false, &attrs.vv);
        Ok(())
    }

    /// The data-moving half of a commit: up to and including the atomic
    /// map swap.
    fn commit_chunked(
        &self,
        scope: &VnodeRef,
        file: FicusFileId,
        old_map: &ChunkMap,
        patch: Patch<'_>,
    ) -> FsResult<()> {
        let new_map = self.place_chunks(scope, file, old_map, patch)?;
        let shadow_name = format!("{}{}", file.hex(), SHADOW_SUFFIX);
        self.write_named(scope, &shadow_name, &new_map.encode())?;
        if self.take_crash(CommitPoint::BeforeMapSwap) {
            return Err(FsError::Io);
        }
        // The atomic point: one low-level directory reference changes.
        let peer = scope.clone();
        scope.rename(&self.cred, &shadow_name, &peer, &file.hex())
    }

    /// Gives every chunk of `patch`'s map a slot in `old_map`'s extent and
    /// makes the dirty ones durable: a clean chunk keeps the slot `old_map`
    /// gives it, unread; every dirty chunk is copied into the lowest slot
    /// `old_map` does not reference, and the extent is fsynced once.
    /// Nothing `old_map` references is overwritten, so the returned map
    /// can be published or dropped freely.
    fn place_chunks(
        &self,
        scope: &VnodeRef,
        file: FicusFileId,
        old_map: &ChunkMap,
        patch: Patch<'_>,
    ) -> FsResult<ChunkMap> {
        let (mut new_map, data) = (patch.map, patch.data);
        let header = new_map.header();
        // A dirty chunk's bytes start at its position in `data` times the
        // chunk size: its index in the whole contents, or its rank among
        // the dirty chunks when only those were handed over.
        let packed = data.len() as u64 != header.size;
        let handed = |&idx: &u32| header.chunk_len(idx) as usize;
        let short = packed && patch.dirty.iter().map(handed).sum::<usize>() != data.len();
        if header.chunk_size != old_map.chunk_size || short {
            return Err(FsError::Stale);
        }
        let mut free = old_map.free_slots();
        let mut dirty = patch.dirty.iter().peekable();
        let mut placed: Vec<(u32, u64)> = Vec::new();
        for (idx, entry) in (0u32..).zip(&mut new_map.chunks) {
            if dirty.next_if_eq(&&idx).is_some() {
                entry.slot = free.next().ok_or(FsError::NoSpace)?;
                let at = if packed { placed.len() as u32 } else { idx };
                placed.push((at, entry.slot));
            } else {
                // The committed bytes are already on disk in a slot the old
                // map protects.
                let same = |e: &&ChunkEntry| e.len == entry.len && e.digest == entry.digest;
                let kept = old_map.chunks.get(idx as usize).filter(same);
                entry.slot = kept.ok_or(FsError::Stale)?.slot;
                self.chunk_counters
                    .chunks_reused
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        if dirty.next().is_some() {
            return Err(FsError::Stale); // an index past the map, or out of order
        }
        if let Some(&(at, slot)) = placed.first() {
            let extent = self.extent(scope, file, true)?;
            if self.take_crash(CommitPoint::MidChunkWrite) {
                // Power loss partway through the first dirty chunk: a torn
                // prefix sits in a slot no map references.
                let csize = old_map.chunk_size as usize;
                let torn = data.get(..at as usize * csize + csize / 2).unwrap_or(data);
                let _ = self.write_slots(&extent, old_map.chunk_size, torn, &[(at, slot)]);
                return Err(FsError::Io);
            }
            self.write_slots(&extent, old_map.chunk_size, data, &placed)?;
            extent.fsync(&self.cred)?;
        }
        Ok(new_map)
    }

    /// The chunks of `new` that `file`, whose committed map is `old`,
    /// cannot supply, ascending: those whose index, length or digest
    /// differ, plus — for a file outside the verified set — those whose
    /// stored bytes no longer digest to their entry. A crash inside an
    /// in-place `splice` or `truncate` can tear a chunk that way, and
    /// shipping it into a free slot like any other dirty chunk is what
    /// heals it. A file this mount wrote or verified whole costs no read;
    /// otherwise each would-be-clean chunk is read once, and one that
    /// cannot be read is as torn as one that reads wrong.
    #[must_use]
    pub fn dirty_chunks(&self, file: FicusFileId, old: &ChunkMap, new: &ChunkMap) -> Vec<u32> {
        let _g = self.big.lock();
        let suspect = !self.verified.lock().contains(&file);
        let scope = suspect.then(|| self.file_scope(file).ok()).flatten();
        let extent = scope.and_then(|scope| self.extent(&scope, file, false).ok());
        let sound = |e: &ChunkEntry| {
            let read = |x| self.read_slots(x, old.chunk_size, std::slice::from_ref(e));
            let held = extent.as_ref().and_then(|x| read(x).ok());
            held.is_some_and(|bytes| chunks::digest(&bytes) == e.digest)
        };
        let clean = |idx: usize, want: &ChunkEntry| {
            let same = |e: &&ChunkEntry| e.len == want.len && e.digest == want.digest;
            let kept = old.chunks.get(idx).filter(same);
            old.chunk_size == new.chunk_size && kept.is_some_and(|e| !suspect || sound(e))
        };
        let indexed = (0u32..).zip(&new.chunks);
        let dirty = indexed.filter(|&(idx, want)| !clean(idx as usize, want));
        dirty.map(|(idx, _)| idx).collect()
    }

    /// Joins `remote_vv` into a file whose remote content proved
    /// byte-identical to the local content — a false conflict in the §3.3
    /// sense (same bytes, divergent histories), so the histories merge with
    /// no new update and no owner involvement. Symmetric automatic
    /// resolutions converge through this path instead of re-conflicting.
    pub fn absorb_identical_version(
        &self,
        file: FicusFileId,
        remote_vv: &VersionVector,
    ) -> FsResult<()> {
        let _g = self.big.lock();
        let mut attrs = self.repl_attrs(file)?;
        let before = attrs.vv.clone();
        attrs.vv.merge(remote_vv);
        self.gc_covered_stashes(file, &mut attrs)?;
        self.write_repl_attrs(file, &attrs)?;
        if attrs.vv != before {
            // Only a history that actually grew is a change peers need to
            // hear about; logging no-op absorptions would keep rings busy
            // forever.
            self.log_change(file, attrs.kind.is_directory_like(), &attrs.vv);
        }
        Ok(())
    }

    /// Discards stashed conflict siblings whose reported histories the
    /// file's vector now covers (a dominating resolution arrived), clearing
    /// the conflict flag when no stash remains pending. A stash with no
    /// recorded history is never discarded — only positively-covered
    /// divergences are obsolete.
    fn gc_covered_stashes(&self, file: FicusFileId, attrs: &mut ReplAttrs) -> FsResult<()> {
        if !attrs.conflict {
            return Ok(());
        }
        let reports = self.conflicts.for_file(file);
        let mut remaining = 0usize;
        for origin in self.conflict_versions(file)? {
            let mut stash_vv = VersionVector::new();
            for r in reports.iter().filter(|r| r.other == origin) {
                stash_vv.merge(&r.vv);
            }
            if !stash_vv.is_empty() && attrs.vv.covers(&stash_vv) {
                self.discard_conflict_version(file, origin)?;
            } else {
                remaining += 1;
            }
        }
        if remaining == 0 {
            attrs.conflict = false;
        }
        Ok(())
    }

    /// Creates local storage for a regular file first seen via
    /// reconciliation (its entry arrived from a remote replica before any
    /// local data existed).
    pub fn adopt_file(
        &self,
        parent_dir: FicusFileId,
        file: FicusFileId,
        kind: VnodeType,
        vv: &VersionVector,
        data: &[u8],
    ) -> FsResult<()> {
        let _g = self.big.lock();
        if self.loc_of(file).is_ok() {
            return self.apply_remote_version(file, vv, data);
        }
        if kind.is_directory_like() {
            return Err(FsError::Invalid);
        }
        let parent_loc = self.loc_of(parent_dir)?;
        let scope = match self.layout {
            StorageLayout::Tree => parent_loc.own_ufs.clone().ok_or(FsError::NotDir)?,
            StorageLayout::Flat => self.base.clone(),
        };
        // No older version needs protecting, so the map is written in
        // place; the extent is durable before any map names it.
        let none = ChunkMap::empty(self.chunk_size);
        let map = ChunkMap::of(data, self.chunk_size);
        let dirty = (0..map.chunks.len() as u32).collect();
        let map = self.place_chunks(&scope, file, &none, Patch { map, dirty, data })?;
        self.write_named(&scope, &file.hex(), &map.encode())?;
        let attrs = ReplAttrs {
            kind,
            vv: vv.clone(),
            conflict: false,
        };
        self.write_named(
            &scope,
            &format!("{}{}", file.hex(), AUX_SUFFIX),
            &attrs.encode(),
        )?;
        self.index.lock().insert(
            file,
            Loc {
                parent_ufs: scope,
                own_ufs: None,
            },
        );
        self.verified.lock().insert(file);
        self.log_change(file, false, vv);
        Ok(())
    }

    /// Creates local storage for a directory-like object first seen via
    /// reconciliation.
    pub fn adopt_dir(
        &self,
        parent_dir: FicusFileId,
        file: FicusFileId,
        kind: VnodeType,
        vv: &VersionVector,
    ) -> FsResult<()> {
        let _g = self.big.lock();
        if self.loc_of(file).is_ok() {
            return Ok(());
        }
        if !kind.is_directory_like() {
            return Err(FsError::Invalid);
        }
        let attrs = ReplAttrs {
            kind,
            vv: vv.clone(),
            conflict: false,
        };
        self.materialize_dir(parent_dir, file, &attrs)?;
        self.log_change(file, true, vv);
        Ok(())
    }

    /// Stores a conflicting remote version beside the local one and flags
    /// the file, reporting to the owner (paper §1: "conflicting updates to
    /// ordinary files are detected and reported to the owner").
    pub fn stash_conflict_version(
        &self,
        file: FicusFileId,
        origin: ReplicaId,
        remote_vv: &VersionVector,
        data: &[u8],
    ) -> FsResult<()> {
        let _g = self.big.lock();
        let loc = self.loc_of(file)?;
        let name = format!("{}.c{}", file.hex(), origin.0);
        self.write_named(&loc.parent_ufs, &name, data)?;
        let mut attrs = self.repl_attrs(file)?;
        attrs.conflict = true;
        self.write_repl_attrs(file, &attrs)?;
        self.conflicts.report(
            self.vol,
            file,
            ConflictKind::ConcurrentUpdate,
            self.me,
            origin,
            remote_vv.clone(),
            self.clock.now(),
        );
        // The stash leaves the local history untouched, but the file's
        // replication state changed (flag + sibling) — peers pulling this
        // replica incrementally must still re-examine it.
        self.log_change(file, false, &attrs.vv);
        Ok(())
    }

    /// Reads a stashed conflict sibling (for the owner's resolution tool).
    pub fn read_conflict_version(&self, file: FicusFileId, origin: ReplicaId) -> FsResult<Bytes> {
        let _g = self.big.lock();
        let loc = self.loc_of(file)?;
        let name = format!("{}.c{}", file.hex(), origin.0);
        let v = loc.parent_ufs.lookup(&self.cred, &name)?;
        let size = v.getattr(&self.cred)?.size as usize;
        v.read(&self.cred, 0, size)
    }

    /// Lists the replicas whose conflicting versions are stashed beside
    /// `file` (the `.c<replica>` siblings).
    pub fn conflict_versions(&self, file: FicusFileId) -> FsResult<Vec<ReplicaId>> {
        let _g = self.big.lock();
        let loc = self.loc_of(file)?;
        let prefix = format!("{}.c", file.hex());
        let mut out = Vec::new();
        let mut cookie = 0;
        loop {
            let page = loc.parent_ufs.readdir(&self.cred, cookie, 64)?;
            if page.is_empty() {
                break;
            }
            let Some(last) = page.last() else { break };
            cookie = last.cookie;
            for de in page {
                if let Some(rest) = de.name.strip_prefix(&prefix) {
                    if let Ok(r) = rest.parse::<u32>() {
                        out.push(ReplicaId(r));
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Removes a stashed conflict sibling after resolution.
    pub fn discard_conflict_version(&self, file: FicusFileId, origin: ReplicaId) -> FsResult<()> {
        let _g = self.big.lock();
        let loc = self.loc_of(file)?;
        match loc
            .parent_ufs
            .remove(&self.cred, &format!("{}.c{}", file.hex(), origin.0))
        {
            Ok(()) | Err(FsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Resolves a reported update conflict in favor of the current local
    /// content: adopts the join of the vectors plus one local update, and
    /// clears the flag (what the owner's resolution tool would do).
    pub fn resolve_conflict(&self, file: FicusFileId, other_vv: &VersionVector) -> FsResult<()> {
        let _g = self.big.lock();
        let mut attrs = self.repl_attrs(file)?;
        attrs.vv.merge(other_vv);
        attrs.vv.increment(self.me.0);
        attrs.conflict = false;
        self.write_repl_attrs(file, &attrs)?;
        self.log_change(file, false, &attrs.vv);
        Ok(())
    }

    /// Moves a remove/update-conflicted file's data into the orphanage so
    /// the surviving updates stay recoverable.
    pub fn orphan_file(&self, file: FicusFileId) -> FsResult<()> {
        let _g = self.big.lock();
        let Ok(loc) = self.loc_of(file) else {
            return Ok(());
        };
        if loc.own_ufs.is_some() {
            return Ok(()); // directories are not orphaned
        }
        let orphanage = self.base.lookup(&self.cred, ORPHANAGE)?;
        // Extent, map and aux move together: orphaned data stays whole.
        for suffix in [EXTENT_SUFFIX, "", AUX_SUFFIX] {
            let name = format!("{}{suffix}", file.hex());
            let _ = loc.parent_ufs.rename(&self.cred, &name, &orphanage, &name);
        }
        self.index.lock().remove(&file);
        Ok(())
    }

    /// Lists files preserved in the orphanage.
    pub fn orphans(&self) -> FsResult<Vec<FicusFileId>> {
        let _g = self.big.lock();
        let orphanage = self.base.lookup(&self.cred, ORPHANAGE)?;
        let mut out = Vec::new();
        let mut cookie = 0;
        loop {
            let page = orphanage.readdir(&self.cred, cookie, 64)?;
            if page.is_empty() {
                break;
            }
            cookie = page.last().expect("non-empty").cookie;
            for de in page {
                if let Ok(id) = FicusFileId::from_hex(&de.name) {
                    out.push(id);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    // --- new version cache ---------------------------------------------------------

    /// Handles an update notification (§3.2: "a physical layer that receives
    /// an update notification makes an entry for the file in a new version
    /// cache").
    pub fn note_new_version(&self, file: FicusFileId, origin: ReplicaId, vv: VersionVector) {
        let mut nvc = self.nvc.lock();
        let noted_at = self.clock.now();
        match nvc.get_mut(&file) {
            Some(existing) if existing.vv.covers(&vv) => {}
            _ => {
                nvc.insert(
                    file,
                    NvcEntry {
                        origin,
                        vv,
                        noted_at,
                        not_before: noted_at,
                    },
                );
            }
        }
    }

    /// Drains cache entries noted at or before `cutoff` (propagation-daemon
    /// policy input) whose `not_before` gate has passed as of `now`. Younger
    /// or backed-off entries stay queued.
    pub fn take_due_notifications(
        &self,
        cutoff: Timestamp,
        now: Timestamp,
    ) -> Vec<(FicusFileId, NvcEntry)> {
        let mut nvc = self.nvc.lock();
        let due: Vec<FicusFileId> = nvc
            .iter()
            .filter(|(_, e)| e.noted_at <= cutoff && e.not_before <= now)
            .map(|(&f, _)| f)
            .collect();
        let mut out = Vec::with_capacity(due.len());
        for f in due {
            if let Some(entry) = nvc.remove(&f) {
                out.push((f, entry));
            }
        }
        out
    }

    /// Puts a notification back (pull failed; retry later).
    pub fn requeue_notification(&self, file: FicusFileId, entry: NvcEntry) {
        self.nvc.lock().entry(file).or_insert(entry);
    }

    /// Puts a notification back with its retry gated until `not_before`
    /// (the origin's backoff window). If a fresher note for the file raced
    /// in meanwhile, that one wins, matching [`Self::requeue_notification`].
    pub fn requeue_notification_after(
        &self,
        file: FicusFileId,
        mut entry: NvcEntry,
        not_before: Timestamp,
    ) {
        entry.not_before = not_before;
        self.nvc.lock().entry(file).or_insert(entry);
    }

    /// Current queue length.
    #[must_use]
    pub fn pending_notifications(&self) -> usize {
        self.nvc.lock().len()
    }

    // --- graft point content (§4.3) ---------------------------------------------------

    /// Records `(replica, host)` in a graft point — "conveniently maintained
    /// as directory entries", so the directory reconciliation machinery
    /// manages the replicated graft table for free (§4.3, §7).
    pub fn graft_add_replica(
        &self,
        graft: FicusFileId,
        replica: ReplicaId,
        host: u32,
    ) -> FsResult<()> {
        let _g = self.big.lock();
        let attrs = self.repl_attrs(graft)?;
        if attrs.kind != VnodeType::GraftPoint {
            return Err(FsError::Invalid);
        }
        let mut d = self.dir_entries(graft)?;
        let name = format!("r{}@h{}", replica.0, host);
        if d.primary(&name).is_some() {
            return Ok(());
        }
        let id = EntryId::new(self.me.0, self.next_unique()?);
        let placeholder = FicusFileId::new(self.me.0, self.next_unique()?);
        d.insert(
            FicusEntry::live(&name, placeholder, VnodeType::Regular, id),
            self.me,
        )?;
        self.store_dir_entries(graft, &d)?;
        self.bump_vv(graft)?;
        Ok(())
    }

    /// Reads the `(replica, host)` pairs of a graft point.
    pub fn graft_replicas(&self, graft: FicusFileId) -> FsResult<Vec<(ReplicaId, u32)>> {
        let _g = self.big.lock();
        let d = self.dir_entries(graft)?;
        let mut out = Vec::new();
        for e in d.live() {
            if let Some((r, h)) = parse_graft_entry(&e.name) {
                out.push((ReplicaId(r), h));
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    // --- directory merge (reconciliation entry point) ------------------------------------

    /// Applies one directory-reconciliation step: merge the remote entry
    /// set, persist, adopt the remote directory vector (directory updates
    /// commute once entries are merged — the automatic repair), and
    /// garbage-collect newly unreferenced files, checking each for
    /// remove/update conflicts first.
    pub fn merge_dir(
        &self,
        dir: FicusFileId,
        remote_entries: &FicusDir,
        remote_replica: ReplicaId,
        remote_dir_vv: &VersionVector,
    ) -> FsResult<MergeOutcome> {
        let _g = self.big.lock();
        let mut d = self.dir_entries(dir)?;
        let all = self.all_replicas();
        let mut out = d.merge_from(remote_entries, remote_replica, self.me, &all);
        // Partitioned-rename repair (opt-in): a rename is tombstone + fresh
        // entry, so two partitions renaming one file leave two live entries
        // for it after the merge. Collapse to the lowest entry id.
        let mut policy_changed = false;
        if self.dir_policy.collapse_renames {
            policy_changed = self.collapse_rename_aliases(&mut d, remote_replica)?;
        }
        if out.changed || policy_changed {
            self.store_dir_entries(dir, &d)?;
        }
        let mut attrs = self.repl_attrs(dir)?;
        let vv_before = attrs.vv.clone();
        attrs.vv.merge(remote_dir_vv);
        self.write_repl_attrs(dir, &attrs)?;
        let vv_grew = attrs.vv != vv_before;
        // Report retained name collisions (automatically repaired, but the
        // owner should hear about them) — once per collided file, not once
        // per reconciliation pass.
        for (name, _) in d.name_conflicts() {
            if let Some(e) = d.primary(&name) {
                let already = self
                    .conflicts
                    .for_file(e.file)
                    .iter()
                    .any(|r| r.kind == ConflictKind::NameCollision);
                if !already {
                    self.conflicts.report(
                        self.vol,
                        e.file,
                        ConflictKind::NameCollision,
                        self.me,
                        self.me,
                        VersionVector::new(),
                        self.clock.now(),
                    );
                }
            }
        }
        // Handle files whose entries this merge tombstoned.
        let mut resurrected = false;
        for suspect in &out.suspects {
            let file = suspect.file;
            if self.has_live_reference(file)? {
                continue;
            }
            match self.file_vv(file) {
                Ok(local_vv) => {
                    if suspect.deleted_vv.covers(&local_vv) {
                        let kind = self
                            .repl_attrs(file)
                            .map(|a| a.kind)
                            .unwrap_or(VnodeType::Regular);
                        self.gc_file_storage(file, kind)?;
                    } else {
                        // Local updates the deleter never saw: the
                        // remove/update conflict. Preserve and report.
                        self.conflicts.report(
                            self.vol,
                            file,
                            ConflictKind::RemoveUpdate,
                            self.me,
                            self.me,
                            local_vv,
                            self.clock.now(),
                        );
                        if self.dir_policy.resurrect_updates
                            && self.resurrect_entry(&mut d, &suspect.name, file)?
                        {
                            resurrected = true;
                        } else {
                            self.orphan_file(file)?;
                        }
                    }
                }
                Err(FsError::NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        if resurrected {
            self.store_dir_entries(dir, &d)?;
            out.changed = true;
        }
        if policy_changed || resurrected {
            // Policy edits are local updates to the directory: bump so the
            // repaired entry set propagates like any other change (the bump
            // also logs the change).
            self.bump_vv(dir)?;
        } else if out.changed || vv_grew {
            // Merges that only confirmed existing state stay out of the
            // log, or ring reconciliation would re-ship every directory
            // forever.
            self.log_change(dir, true, &attrs.vv);
        }
        Ok(out)
    }

    /// Tombstones all but the lowest-id live entry for any file with several
    /// live entries in this directory, reporting a
    /// [`ConflictKind::RenameRace`] once per file. Returns whether anything
    /// changed.
    fn collapse_rename_aliases(&self, d: &mut FicusDir, other: ReplicaId) -> FsResult<bool> {
        let mut by_file: BTreeMap<FicusFileId, Vec<EntryId>> = BTreeMap::new();
        for e in d.live() {
            by_file.entry(e.file).or_default().push(e.id);
        }
        let mut changed = false;
        for (file, mut ids) in by_file {
            if ids.len() < 2 {
                continue;
            }
            ids.sort();
            let file_vv = self.file_vv(file).unwrap_or_default();
            for loser in ids.get(1..).unwrap_or_default() {
                let death = EntryId::new(self.me.0, self.next_unique()?);
                d.tombstone(*loser, &file_vv, death, self.me)?;
                changed = true;
            }
            let already = self
                .conflicts
                .for_file(file)
                .iter()
                .any(|r| r.kind == ConflictKind::RenameRace);
            if !already {
                self.conflicts.report(
                    self.vol,
                    file,
                    ConflictKind::RenameRace,
                    self.me,
                    other,
                    file_vv,
                    self.clock.now(),
                );
            }
        }
        Ok(changed)
    }

    /// Re-links a remove/update survivor into the directory instead of the
    /// orphanage: under its tombstoned name when that name is free again,
    /// else `<name>.recovered`. Returns false (caller orphans) when both
    /// names are taken or the file's attributes are gone.
    fn resurrect_entry(&self, d: &mut FicusDir, base: &str, file: FicusFileId) -> FsResult<bool> {
        let Ok(attrs) = self.repl_attrs(file) else {
            return Ok(false);
        };
        let name = if d.primary(base).is_none() {
            base.to_owned()
        } else {
            let alt = format!("{base}.recovered");
            if d.primary(&alt).is_some() {
                return Ok(false);
            }
            alt
        };
        let id = EntryId::new(self.me.0, self.next_unique()?);
        d.insert(FicusEntry::live(&name, file, attrs.kind, id), self.me)?;
        Ok(true)
    }

    // --- recovery ------------------------------------------------------------------------

    /// Rebuilds the location index by walking the UFS storage, discards
    /// shadow maps and map-less extents, and restores the id counter.
    ///
    /// Scan-level failures (a directory that cannot be read, a subtree that
    /// cannot be entered) are hard errors — a half-built index would
    /// silently hide files. Per-name cleanup failures are counted in
    /// [`ChunkStats`] instead of aborting the mount.
    fn recover(&self) -> FsResult<()> {
        let _g = self.big.lock();
        self.load_seq()?;
        self.index.lock().clear();
        self.scan_scope(&self.base, self.layout == StorageLayout::Tree)
    }

    /// Walks one UFS directory of the volume, classifying every name
    /// structurally ([`ScanName`]) and acting per kind. `recurse` is true
    /// for the tree layout (child directories are UFS subtrees).
    fn scan_scope(&self, scope: &VnodeRef, recurse: bool) -> FsResult<()> {
        let mut extents_seen: Vec<(FicusFileId, String)> = Vec::new();
        let mut data_seen: BTreeSet<FicusFileId> = BTreeSet::new();
        let mut cookie = 0;
        loop {
            let page = scope.readdir(&self.cred, cookie, 64)?;
            let Some(last) = page.last() else { break };
            cookie = last.cookie;
            for de in page {
                match classify_scan_name(&de.name) {
                    ScanName::Meta | ScanName::Aux | ScanName::Stash | ScanName::Foreign => {}
                    ScanName::Subdir(file) => {
                        if recurse {
                            let own = scope.lookup(&self.cred, &de.name)?;
                            self.index.lock().insert(
                                file,
                                Loc {
                                    parent_ufs: scope.clone(),
                                    own_ufs: Some(own.clone()),
                                },
                            );
                            self.scan_scope(&own, recurse)?;
                        }
                    }
                    ScanName::FlatDir(file) => {
                        if !recurse {
                            self.index.lock().insert(
                                file,
                                Loc {
                                    parent_ufs: scope.clone(),
                                    own_ufs: Some(scope.clone()),
                                },
                            );
                        }
                    }
                    ScanName::Shadow => {
                        self.discard_debris(
                            scope,
                            &de.name,
                            &self.chunk_counters.shadows_discarded,
                        );
                    }
                    ScanName::Extent(file) => extents_seen.push((file, de.name)),
                    ScanName::Data(file) => {
                        data_seen.insert(file);
                        // In the flat layout a directory id's `.dir` entry
                        // wins over a stray data file of the same id.
                        self.index.lock().entry(file).or_insert(Loc {
                            parent_ufs: scope.clone(),
                            own_ufs: None,
                        });
                    }
                }
            }
        }
        // An extent whose map never appeared is a crashed adoption: no map
        // can ever reference its slots.
        for (file, name) in extents_seen {
            if !data_seen.contains(&file) {
                self.discard_debris(scope, &name, &self.chunk_counters.extents_discarded);
            }
        }
        Ok(())
    }

    /// Discards debris of a crashed commit or adoption ("the original
    /// replica is retained during recovery and the shadow discarded"),
    /// counting it in `discarded`.
    ///
    /// Debris that *cannot* be discarded is not silently ignored — it would
    /// otherwise survive every recovery unreported. The failure is counted
    /// in [`ChunkStats::shadow_discard_failures`].
    fn discard_debris(&self, scope: &VnodeRef, name: &str, discarded: &AtomicU64) {
        match scope.remove(&self.cred, name) {
            Ok(()) => {
                discarded.fetch_add(1, AtomicOrdering::Relaxed);
            }
            Err(FsError::NotFound) => {}
            Err(_) => {
                self.chunk_counters
                    .shadow_discard_failures
                    .fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
    }
}

/// What a UFS name inside a volume scope is, parsed structurally (hex file
/// id + suffix kind). Replaces the loose substring tests recovery used to
/// run (`.contains(".c")` could misfile a legal name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanName {
    /// `d`, `a`, `meta`, `lost+found`.
    Meta,
    /// `<hex>.d` — child-directory UFS subtree (tree layout).
    Subdir(FicusFileId),
    /// `<hex>.dir` — directory content file (flat layout).
    FlatDir(FicusFileId),
    /// `<hex>.a` — auxiliary attributes.
    Aux,
    /// `<hex>.s` — shadow map of a crashed commit.
    Shadow,
    /// `<hex>.c<replica>` — stashed conflict sibling.
    Stash,
    /// `<hex>.x` — the extent holding a file's chunk slots.
    Extent(FicusFileId),
    /// `<hex>` — a file's chunk map.
    Data(FicusFileId),
    /// Not a name this layer writes.
    Foreign,
}

fn classify_scan_name(name: &str) -> ScanName {
    if name == DIR_FILE || name == DIR_AUX || name == META_FILE || name == ORPHANAGE {
        return ScanName::Meta;
    }
    if let Ok(file) = FicusFileId::from_hex(name) {
        return ScanName::Data(file);
    }
    let Some((hex, suffix)) = name.split_once('.') else {
        return ScanName::Foreign;
    };
    let Ok(file) = FicusFileId::from_hex(hex) else {
        return ScanName::Foreign;
    };
    match suffix {
        "d" => ScanName::Subdir(file),
        "dir" => ScanName::FlatDir(file),
        "a" => ScanName::Aux,
        "s" => ScanName::Shadow,
        "x" => ScanName::Extent(file),
        _ => {
            if let Some(rep) = suffix.strip_prefix('c') {
                if rep.parse::<u32>().is_ok() {
                    return ScanName::Stash;
                }
            }
            ScanName::Foreign
        }
    }
}

/// Parses a graft-point entry name `r<replica>@h<host>`.
fn parse_graft_entry(name: &str) -> Option<(u32, u32)> {
    let rest = name.strip_prefix('r')?;
    let (r, h) = rest.split_once("@h")?;
    Some((r.parse().ok()?, h.parse().ok()?))
}

#[cfg(test)]
mod tests;
