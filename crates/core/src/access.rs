//! Uniform access to a volume replica, local or remote.
//!
//! The propagation daemon and the reconciliation protocol both need to read
//! a peer replica's state: directory entry sets, replication attributes, and
//! file data. When the peer is co-resident, they talk to the
//! [`FicusPhysical`] directly; when it is remote, the same questions are
//! asked through the vnode interface — via the overloaded-lookup control
//! plane (§2.3) across an NFS mount — "without having to build a transport
//! service" (§2.2). [`ReplicaAccess`] abstracts over the two so every
//! algorithm above it is written once.

use std::collections::BTreeMap;
use std::sync::Arc;

use ficus_nfs::client::NfsVnode;
use ficus_nfs::wire::{Dec, Enc};
use ficus_vnode::{Credentials, FsError, FsResult, VnodeRef};

use crate::attrs::ReplAttrs;
use crate::changelog::LogSuffix;
use crate::chunks::{self, ChunkMap};
use crate::dirfile::FicusDir;
use crate::ids::{FicusFileId, ReplicaId};
use crate::phys::FicusPhysical;

/// A directory snapshot bundled with the replication attributes of every
/// live child — everything subtree reconciliation needs to decide, per
/// child, whether any further fetch is required.
///
/// This is the payload of the `;f;dirx;<hex>` control name and the result
/// of [`ReplicaAccess::fetch_dir_with_children`]. Children whose attributes
/// cannot be read on the remote (e.g. removed between the directory read
/// and the attribute read) are simply absent from `children`; callers treat
/// absence the same way they would treat a per-file `NotFound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirWithChildren {
    /// The directory's entry set (live entries and tombstones).
    pub entries: FicusDir,
    /// The directory's own replication attributes.
    pub attrs: ReplAttrs,
    /// Replication attributes of each live child, keyed by file id.
    pub children: BTreeMap<FicusFileId, ReplAttrs>,
}

impl DirWithChildren {
    /// Reads a directory and all its live children's attributes from a
    /// co-resident physical layer.
    pub fn gather(phys: &FicusPhysical, dir: FicusFileId) -> FsResult<DirWithChildren> {
        let entries = phys.dir_entries(dir)?;
        let attrs = phys.repl_attrs(dir)?;
        let mut children = BTreeMap::new();
        for entry in entries.live() {
            if let Ok(a) = phys.repl_attrs(entry.file) {
                children.insert(entry.file, a);
            }
        }
        Ok(DirWithChildren {
            entries,
            attrs,
            children,
        })
    }

    /// Serializes for the control plane.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        // The inner encodings reject trailing bytes, so each is framed.
        e.bytes(&self.entries.encode());
        e.bytes(&self.attrs.encode());
        e.u32(self.children.len() as u32);
        for (file, attrs) in &self.children {
            e.u32(file.issuer.0);
            e.u64(file.unique);
            e.bytes(&attrs.encode());
        }
        e.finish()
    }

    /// Parses the control-plane payload.
    pub fn decode(buf: &[u8]) -> FsResult<DirWithChildren> {
        let mut d = Dec::new(buf);
        let entries = FicusDir::decode(&d.bytes()?)?;
        let attrs = ReplAttrs::decode(&d.bytes()?)?;
        let n = d.u32()? as usize;
        if n > 1 << 24 {
            return Err(FsError::Io);
        }
        let mut children = BTreeMap::new();
        for _ in 0..n {
            let issuer = ReplicaId(d.u32()?);
            let unique = d.u64()?;
            let child = ReplAttrs::decode(&d.bytes()?)?;
            children.insert(FicusFileId { issuer, unique }, child);
        }
        if !d.at_end() {
            return Err(FsError::Io);
        }
        Ok(DirWithChildren {
            entries,
            attrs,
            children,
        })
    }
}

/// Read access to one volume replica.
pub trait ReplicaAccess: Send + Sync {
    /// The replica's id.
    fn replica(&self) -> ReplicaId;

    /// Replication attributes of one file.
    fn fetch_attrs(&self, file: FicusFileId) -> FsResult<ReplAttrs>;

    /// Full contents of one regular file.
    fn fetch_data(&self, file: FicusFileId) -> FsResult<Vec<u8>>;

    /// A directory's entry set plus its own replication attributes.
    fn fetch_dir(&self, dir: FicusFileId) -> FsResult<(FicusDir, ReplAttrs)>;

    /// Replication attributes for a batch of files, one result per id in
    /// request order. Failures are per-item: an id the remote has never
    /// heard of yields `Err(NotFound)` in its slot; the call as a whole
    /// fails only when the transport does.
    ///
    /// The default asks per file; transports with a bulk primitive override
    /// this to answer the whole batch in one exchange.
    fn fetch_attrs_bulk(&self, files: &[FicusFileId]) -> FsResult<Vec<FsResult<ReplAttrs>>> {
        Ok(files.iter().map(|&f| self.fetch_attrs(f)).collect())
    }

    /// A directory's entry set and attributes plus the replication
    /// attributes of all its live children, in as few exchanges as the
    /// transport allows. See [`DirWithChildren`] for the absence semantics
    /// of the `children` map.
    fn fetch_dir_with_children(&self, dir: FicusFileId) -> FsResult<DirWithChildren> {
        let (entries, attrs) = self.fetch_dir(dir)?;
        let mut children = BTreeMap::new();
        for entry in entries.live() {
            match self.fetch_attrs(entry.file) {
                Ok(a) => {
                    children.insert(entry.file, a);
                }
                Err(FsError::NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(DirWithChildren {
            entries,
            attrs,
            children,
        })
    }

    /// The replica's change-log suffix since sequence `from` — the pulling
    /// side of the recon cursor protocol (see [`crate::changelog`]).
    fn fetch_changes(&self, from: u64) -> FsResult<LogSuffix>;

    /// The chunk map of one regular file — the per-chunk digests delta
    /// transfer compares (DESIGN.md §4.13). The default reports
    /// `Unsupported`; callers fall back to [`ReplicaAccess::fetch_data`].
    fn fetch_chunk_map(&self, file: FicusFileId) -> FsResult<ChunkMap> {
        let _ = file;
        Err(FsError::Unsupported)
    }

    /// Concatenated bytes of chunks `[start, start + count)` of one file.
    /// Same fallback contract as [`ReplicaAccess::fetch_chunk_map`].
    fn fetch_chunks(&self, file: FicusFileId, start: u32, count: u32) -> FsResult<Vec<u8>> {
        let _ = (file, start, count);
        Err(FsError::Unsupported)
    }
}

/// Files at or below this many chunks skip the delta protocol entirely:
/// one whole-file read costs no more than the map exchange would.
pub const SMALL_FILE_CHUNKS: usize = 2;

/// What one delta-aware file fetch shipped and reused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaFetch {
    /// The assembled new contents.
    pub data: Vec<u8>,
    /// Chunks pulled over the wire (zero for a whole-file fetch).
    pub blocks_shipped: u64,
    /// Chunks reused from the local replica (digest and length match).
    pub blocks_reused: u64,
    /// Bytes actually transferred (delta chunks, or the whole file).
    pub bytes_fetched: u64,
}

/// Fetches a file's new contents, shipping only changed chunks when both
/// sides speak the chunk protocol (DESIGN.md §4.13).
///
/// The local chunk map and the remote's (via `;f;map;`) are compared by
/// digest; only dirty chunks travel, coalesced into contiguous `;f;blk;`
/// range reads. Every shortcoming degrades to the whole-file fetch: a
/// file too small to bother (≤ [`SMALL_FILE_CHUNKS`] chunks), a peer that
/// does not serve maps, mismatched chunk sizes, a local replica with no
/// usable copy, or any piece — fetched or reused — whose digest disagrees
/// with the map that promised it (a torn local chunk, or a remote whose
/// map and data raced an update).
pub fn fetch_file_delta(
    access: &dyn ReplicaAccess,
    phys: &FicusPhysical,
    file: FicusFileId,
) -> FsResult<DeltaFetch> {
    if let Some(delta) = try_delta(access, phys, file) {
        return Ok(delta);
    }
    let data = access.fetch_data(file)?;
    Ok(DeltaFetch {
        bytes_fetched: data.len() as u64,
        data,
        ..DeltaFetch::default()
    })
}

/// The delta path proper; `None` means "use the whole-file fallback".
/// Errors inside the attempt are folded into `None` on purpose — if the
/// transport is genuinely down the fallback's own fetch will say so.
fn try_delta(
    access: &dyn ReplicaAccess,
    phys: &FicusPhysical,
    file: FicusFileId,
) -> Option<DeltaFetch> {
    let local = phys.chunk_map(file).ok()?;
    let remote = access.fetch_chunk_map(file).ok()?;
    if remote.chunks.len() <= SMALL_FILE_CHUNKS || remote.chunk_size != local.chunk_size {
        return None;
    }
    let dirty = chunks::dirty_indices(&local, &remote);
    let clean: Vec<u32> = (0..remote.chunks.len() as u32)
        .filter(|i| dirty.binary_search(i).is_err())
        .collect();
    // Chunk `i` of the new contents lies at `i * chunk_size` (the decoded
    // map guarantees every chunk but the last is full), so each contiguous
    // run — dirty from the wire, clean from the local replica — is one
    // read placed at its offset.
    let csize = u64::from(remote.chunk_size);
    if csize == 0 || remote.size.div_ceil(csize) != remote.chunks.len() as u64 {
        return None;
    }
    let span = |start: u32, count: u32| {
        let lo = u64::from(start) * csize;
        let hi = ((u64::from(start) + u64::from(count)) * csize).min(remote.size);
        lo as usize..hi as usize
    };
    let mut data = vec![0u8; remote.size as usize];
    let mut place = |start: u32, count: u32, buf: &[u8]| {
        let dst = data.get_mut(span(start, count))?;
        (buf.len() == dst.len()).then(|| dst.copy_from_slice(buf))
    };
    let mut bytes_fetched = 0u64;
    for (start, count) in chunks::contiguous_ranges(&dirty) {
        let buf = access.fetch_chunks(file, start, count).ok()?;
        place(start, count, &buf)?;
        bytes_fetched += buf.len() as u64;
    }
    for (start, count) in chunks::contiguous_ranges(&clean) {
        let range = span(start, count);
        let buf = phys.read(file, range.start as u64, range.len()).ok()?;
        place(start, count, &buf)?;
    }
    // Every piece — fetched or reused — must be what the remote map
    // promised: this is what catches a local chunk torn by a non-atomic
    // in-place write.
    for (entry, piece) in remote.chunks.iter().zip(data.chunks(csize as usize)) {
        if piece.len() != entry.len as usize || chunks::digest(piece) != entry.digest {
            return None;
        }
    }
    Some(DeltaFetch {
        data,
        blocks_shipped: dirty.len() as u64,
        blocks_reused: (remote.chunks.len() - dirty.len()) as u64,
        bytes_fetched,
    })
}

/// Direct access to a co-resident physical layer.
pub struct LocalAccess {
    phys: Arc<FicusPhysical>,
}

impl LocalAccess {
    /// Wraps a local physical layer.
    #[must_use]
    pub fn new(phys: Arc<FicusPhysical>) -> Self {
        LocalAccess { phys }
    }
}

impl ReplicaAccess for LocalAccess {
    fn replica(&self) -> ReplicaId {
        self.phys.replica()
    }

    fn fetch_attrs(&self, file: FicusFileId) -> FsResult<ReplAttrs> {
        self.phys.repl_attrs(file)
    }

    fn fetch_data(&self, file: FicusFileId) -> FsResult<Vec<u8>> {
        let size = self.phys.storage_attr(file)?.size as usize;
        Ok(self.phys.read(file, 0, size)?.to_vec())
    }

    fn fetch_dir(&self, dir: FicusFileId) -> FsResult<(FicusDir, ReplAttrs)> {
        let entries = self.phys.dir_entries(dir)?;
        let attrs = self.phys.repl_attrs(dir)?;
        Ok((entries, attrs))
    }

    fn fetch_dir_with_children(&self, dir: FicusFileId) -> FsResult<DirWithChildren> {
        DirWithChildren::gather(&self.phys, dir)
    }

    fn fetch_changes(&self, from: u64) -> FsResult<LogSuffix> {
        Ok(self.phys.changelog_suffix(from))
    }

    fn fetch_chunk_map(&self, file: FicusFileId) -> FsResult<ChunkMap> {
        self.phys.chunk_map(file)
    }

    fn fetch_chunks(&self, file: FicusFileId, start: u32, count: u32) -> FsResult<Vec<u8>> {
        self.phys.read_chunk_range(file, start, count)
    }
}

/// Access to a remote replica through its exported vnode root (typically an
/// NFS-client mount of the peer's physical layer).
pub struct VnodeAccess {
    replica: ReplicaId,
    root: VnodeRef,
    cred: Credentials,
    batched: bool,
}

impl VnodeAccess {
    /// Wraps the root vnode of a (possibly remote) physical-layer export.
    /// Uses the batched lookup-and-read RPC whenever the root turns out to
    /// be an NFS-client vnode.
    #[must_use]
    pub fn new(replica: ReplicaId, root: VnodeRef) -> Self {
        VnodeAccess {
            replica,
            root,
            cred: Credentials::root(),
            batched: true,
        }
    }

    /// Like [`VnodeAccess::new`] but never batches: every question costs
    /// its own lookup/getattr/read sequence. This is the pre-bulk protocol,
    /// kept as the measurement baseline and as the wire-compatibility mode
    /// for peers that predate [`Request::LookupReadMany`].
    ///
    /// [`Request::LookupReadMany`]: ficus_nfs::wire::Request::LookupReadMany
    #[must_use]
    pub fn per_file(replica: ReplicaId, root: VnodeRef) -> Self {
        VnodeAccess {
            batched: false,
            ..VnodeAccess::new(replica, root)
        }
    }

    /// Reads the whole contents of a control vnode.
    fn slurp(&self, v: &VnodeRef) -> FsResult<Vec<u8>> {
        let size = v.getattr(&self.cred)?.size as usize;
        Ok(v.read(&self.cred, 0, size)?.to_vec())
    }

    /// Resolves-and-reads a batch of control names in one RPC, when the
    /// root is an NFS-client vnode and batching is enabled. `None` means
    /// the transport has no bulk primitive and the caller must fall back
    /// to per-name lookups.
    fn bulk_read(&self, names: &[String]) -> Option<FsResult<Vec<FsResult<Vec<u8>>>>> {
        if !self.batched {
            return None;
        }
        let nfs = self.root.as_any().downcast_ref::<NfsVnode>()?;
        Some(nfs.lookup_read_many(&self.cred, names))
    }
}

impl ReplicaAccess for VnodeAccess {
    fn replica(&self) -> ReplicaId {
        self.replica
    }

    fn fetch_attrs(&self, file: FicusFileId) -> FsResult<ReplAttrs> {
        // Even a single attribute read wins from the bulk RPC: the per-file
        // path costs lookup + getattr + read (three round trips), the bulk
        // path one.
        if let Some(items) = self.bulk_read(&[format!(";f;vv;{}", file.hex())]) {
            let payload = items?.into_iter().next().ok_or(FsError::Io)??;
            return ReplAttrs::decode(&payload);
        }
        let ctl = self
            .root
            .lookup(&self.cred, &format!(";f;vv;{}", file.hex()))?;
        ReplAttrs::decode(&self.slurp(&ctl)?)
    }

    fn fetch_data(&self, file: FicusFileId) -> FsResult<Vec<u8>> {
        if let Some(items) = self.bulk_read(&[format!(";f;id;{}", file.hex())]) {
            return items?.into_iter().next().ok_or(FsError::Io)?;
        }
        let v = self
            .root
            .lookup(&self.cred, &format!(";f;id;{}", file.hex()))?;
        self.slurp(&v)
    }

    fn fetch_dir(&self, dir: FicusFileId) -> FsResult<(FicusDir, ReplAttrs)> {
        let dv = if dir.is_root() {
            self.root.clone()
        } else {
            self.root
                .lookup(&self.cred, &format!(";f;id;{}", dir.hex()))?
        };
        if !dv.kind().is_directory_like() {
            return Err(FsError::NotDir);
        }
        let entries = FicusDir::decode(&self.slurp(&dv.lookup(&self.cred, ";f;dir")?)?)?;
        let attrs = ReplAttrs::decode(&self.slurp(&dv.lookup(&self.cred, ";f;dvv")?)?)?;
        Ok((entries, attrs))
    }

    fn fetch_attrs_bulk(&self, files: &[FicusFileId]) -> FsResult<Vec<FsResult<ReplAttrs>>> {
        let names: Vec<String> = files.iter().map(|f| format!(";f;vv;{}", f.hex())).collect();
        if let Some(items) = self.bulk_read(&names) {
            return Ok(items?
                .into_iter()
                .map(|item| item.and_then(|payload| ReplAttrs::decode(&payload)))
                .collect());
        }
        Ok(files.iter().map(|&f| self.fetch_attrs(f)).collect())
    }

    fn fetch_dir_with_children(&self, dir: FicusFileId) -> FsResult<DirWithChildren> {
        if let Some(items) = self.bulk_read(&[format!(";f;dirx;{}", dir.hex())]) {
            let payload = items?.into_iter().next().ok_or(FsError::Io)??;
            return DirWithChildren::decode(&payload);
        }
        let (entries, attrs) = self.fetch_dir(dir)?;
        let mut children = BTreeMap::new();
        for entry in entries.live() {
            match self.fetch_attrs(entry.file) {
                Ok(a) => {
                    children.insert(entry.file, a);
                }
                Err(FsError::NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(DirWithChildren {
            entries,
            attrs,
            children,
        })
    }

    fn fetch_changes(&self, from: u64) -> FsResult<LogSuffix> {
        let name = format!(";f;log;{from:016x}");
        if let Some(items) = self.bulk_read(std::slice::from_ref(&name)) {
            let payload = items?.into_iter().next().ok_or(FsError::Io)??;
            return LogSuffix::decode(&payload);
        }
        let ctl = self.root.lookup(&self.cred, &name)?;
        LogSuffix::decode(&self.slurp(&ctl)?)
    }

    fn fetch_chunk_map(&self, file: FicusFileId) -> FsResult<ChunkMap> {
        let name = format!(";f;map;{}", file.hex());
        if let Some(items) = self.bulk_read(std::slice::from_ref(&name)) {
            let payload = items?.into_iter().next().ok_or(FsError::Io)??;
            return ChunkMap::decode(&payload);
        }
        let ctl = self.root.lookup(&self.cred, &name)?;
        ChunkMap::decode(&self.slurp(&ctl)?)
    }

    fn fetch_chunks(&self, file: FicusFileId, start: u32, count: u32) -> FsResult<Vec<u8>> {
        let name = format!(";f;blk;{};{start:08x};{count:08x}", file.hex());
        if let Some(items) = self.bulk_read(std::slice::from_ref(&name)) {
            return items?.into_iter().next().ok_or(FsError::Io)?;
        }
        let ctl = self.root.lookup(&self.cred, &name)?;
        self.slurp(&ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
    use ficus_vnode::measure::{MeasureLayer, Op, OpCounters};
    use ficus_vnode::{FileSystem, LogicalClock, TimeSource, VnodeType};

    use crate::ids::{VolumeName, ROOT_FILE};
    use crate::phys::vnode::PhysFs;
    use crate::phys::PhysParams;

    fn phys() -> Arc<FicusPhysical> {
        phys_replica(ReplicaId(1))
    }

    fn phys_replica(me: ReplicaId) -> Arc<FicusPhysical> {
        let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
        FicusPhysical::create_volume(
            Arc::new(ufs),
            "vol",
            VolumeName::new(1, 1),
            me,
            &[1, 2],
            Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
            PhysParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn local_and_vnode_access_agree() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, b"same view").unwrap();
        let d = p.mkdir(ROOT_FILE, "dir").unwrap();

        let local = LocalAccess::new(Arc::clone(&p));
        let via_vnode = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());

        assert_eq!(local.replica(), via_vnode.replica());
        assert_eq!(
            local.fetch_attrs(f).unwrap(),
            via_vnode.fetch_attrs(f).unwrap()
        );
        assert_eq!(
            local.fetch_data(f).unwrap(),
            via_vnode.fetch_data(f).unwrap()
        );
        let (le, la) = local.fetch_dir(ROOT_FILE).unwrap();
        let (ve, va) = via_vnode.fetch_dir(ROOT_FILE).unwrap();
        assert_eq!(le, ve);
        assert_eq!(la, va);
        let (sub_l, _) = local.fetch_dir(d).unwrap();
        let (sub_v, _) = via_vnode.fetch_dir(d).unwrap();
        assert_eq!(sub_l, sub_v);
    }

    #[test]
    fn vnode_access_missing_file() {
        let p = phys();
        let acc = VnodeAccess::new(ReplicaId(1), PhysFs::new(p).root());
        assert_eq!(
            acc.fetch_attrs(crate::ids::FicusFileId::new(9, 9))
                .unwrap_err(),
            FsError::NotFound
        );
    }

    #[test]
    fn bulk_defaults_agree_with_per_file_calls() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, b"payload").unwrap();
        let d = p.mkdir(ROOT_FILE, "dir").unwrap();
        let ghost = crate::ids::FicusFileId::new(9, 9);

        let local = LocalAccess::new(Arc::clone(&p));
        let via_vnode = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());

        for acc in [&local as &dyn ReplicaAccess, &via_vnode] {
            let batch = acc.fetch_attrs_bulk(&[f, ghost, d]).unwrap();
            assert_eq!(batch.len(), 3);
            assert_eq!(batch[0], acc.fetch_attrs(f));
            assert_eq!(batch[1], Err(FsError::NotFound));
            assert_eq!(batch[2], acc.fetch_attrs(d));

            let dx = acc.fetch_dir_with_children(ROOT_FILE).unwrap();
            let (entries, attrs) = acc.fetch_dir(ROOT_FILE).unwrap();
            assert_eq!(dx.entries, entries);
            assert_eq!(dx.attrs, attrs);
            assert_eq!(dx.children.len(), 2);
            assert_eq!(dx.children[&f], acc.fetch_attrs(f).unwrap());
            assert_eq!(dx.children[&d], acc.fetch_attrs(d).unwrap());
        }

        // A file is not a directory, batched or not.
        assert_eq!(
            local.fetch_dir_with_children(f).unwrap_err(),
            FsError::NotDir
        );
    }

    #[test]
    fn chunk_surface_agrees_local_and_vnode() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, &vec![5u8; 3 * 4096 + 17]).unwrap();

        let local = LocalAccess::new(Arc::clone(&p));
        let via_vnode = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());
        let per_file = VnodeAccess::per_file(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());

        let want_map = local.fetch_chunk_map(f).unwrap();
        assert_eq!(want_map.chunks.len(), 4);
        assert_eq!(via_vnode.fetch_chunk_map(f).unwrap(), want_map);
        assert_eq!(per_file.fetch_chunk_map(f).unwrap(), want_map);

        let want = local.fetch_chunks(f, 1, 2).unwrap();
        assert_eq!(want.len(), 2 * 4096);
        assert_eq!(via_vnode.fetch_chunks(f, 1, 2).unwrap(), want);
        assert_eq!(per_file.fetch_chunks(f, 1, 2).unwrap(), want);
        // Out-of-range requests fail identically everywhere.
        assert_eq!(local.fetch_chunks(f, 3, 2).unwrap_err(), FsError::Invalid);
        assert_eq!(
            via_vnode.fetch_chunks(f, 3, 2).unwrap_err(),
            FsError::Invalid
        );
    }

    #[test]
    fn delta_fetch_falls_back_to_whole_file() {
        let p1 = phys_replica(ReplicaId(1));
        let p2 = phys_replica(ReplicaId(2));

        // Small files skip the map exchange entirely.
        let small = p1.create(ROOT_FILE, "small", VnodeType::Regular).unwrap();
        p1.write(small, 0, b"tiny").unwrap();
        p2.adopt_file(
            ROOT_FILE,
            small,
            VnodeType::Regular,
            &p1.file_vv(small).unwrap(),
            b"tiny",
        )
        .unwrap();
        let acc = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p1)).root());
        let pulled = fetch_file_delta(&acc, &p2, small).unwrap();
        assert_eq!(pulled.data, b"tiny");
        assert_eq!(pulled.blocks_shipped, 0);
        assert_eq!(pulled.blocks_reused, 0);
        assert_eq!(pulled.bytes_fetched, 4);

        // A file the local replica has never stored also goes whole.
        let fresh = p1.create(ROOT_FILE, "fresh", VnodeType::Regular).unwrap();
        let body = vec![3u8; 5 * 4096];
        p1.write(fresh, 0, &body).unwrap();
        let pulled = fetch_file_delta(&acc, &p2, fresh).unwrap();
        assert_eq!(pulled.data, body);
        assert_eq!(pulled.blocks_shipped, 0);
        assert_eq!(pulled.bytes_fetched, body.len() as u64);

        // An access layer without the chunk protocol (trait defaults)
        // degrades the same way.
        struct NoChunks(LocalAccess);
        impl ReplicaAccess for NoChunks {
            fn replica(&self) -> ReplicaId {
                self.0.replica()
            }
            fn fetch_attrs(&self, file: FicusFileId) -> FsResult<ReplAttrs> {
                self.0.fetch_attrs(file)
            }
            fn fetch_data(&self, file: FicusFileId) -> FsResult<Vec<u8>> {
                self.0.fetch_data(file)
            }
            fn fetch_dir(&self, dir: FicusFileId) -> FsResult<(FicusDir, ReplAttrs)> {
                self.0.fetch_dir(dir)
            }
            fn fetch_changes(&self, from: u64) -> FsResult<LogSuffix> {
                self.0.fetch_changes(from)
            }
        }
        let big = p1.create(ROOT_FILE, "big", VnodeType::Regular).unwrap();
        let body = vec![4u8; 8 * 4096];
        p1.write(big, 0, &body).unwrap();
        p2.adopt_file(
            ROOT_FILE,
            big,
            VnodeType::Regular,
            &p1.file_vv(big).unwrap(),
            &body,
        )
        .unwrap();
        let legacy = NoChunks(LocalAccess::new(Arc::clone(&p1)));
        let pulled = fetch_file_delta(&legacy, &p2, big).unwrap();
        assert_eq!(pulled.data, body);
        assert_eq!(pulled.blocks_shipped, 0);
        assert_eq!(pulled.bytes_fetched, body.len() as u64);
    }

    /// Replica 1 holds a 16-chunk file replica 2 has adopted, then edits
    /// one chunk of it.
    struct DeltaPair {
        origin: Arc<FicusPhysical>,
        puller: Arc<FicusPhysical>,
        file: FicusFileId,
        /// The origin's contents after the edit.
        data: Vec<u8>,
        /// The puller's raw extent object.
        extent: VnodeRef,
        /// Vnode calls the puller's physical layer makes on its UFS.
        puller_calls: Arc<OpCounters>,
    }

    impl DeltaPair {
        fn new() -> Self {
            let origin = phys_replica(ReplicaId(1));
            let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
            let (storage, puller_calls) = MeasureLayer::new(Arc::new(ufs));
            let puller = FicusPhysical::create_volume(
                storage,
                "vol",
                VolumeName::new(1, 1),
                ReplicaId(2),
                &[1, 2],
                Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
                PhysParams::default(),
            )
            .unwrap();
            let file = origin.create(ROOT_FILE, "big", VnodeType::Regular).unwrap();
            let mut data: Vec<u8> = (0..16 * 4096u32).map(|i| (i % 241) as u8).collect();
            origin.write(file, 0, &data).unwrap();
            let vv = origin.file_vv(file).unwrap();
            puller
                .adopt_file(ROOT_FILE, file, VnodeType::Regular, &vv, &data)
                .unwrap();
            origin.write(file, 2 * 4096 + 5, &[9u8; 100]).unwrap();
            data[2 * 4096 + 5..2 * 4096 + 105].fill(9);
            let cred = Credentials::root();
            let base = puller.storage().root().lookup(&cred, "vol").unwrap();
            let extent = base.lookup(&cred, &format!("{}.x", file.hex())).unwrap();
            DeltaPair {
                origin,
                puller,
                file,
                data,
                extent,
                puller_calls,
            }
        }

        fn pull(&self) -> DeltaFetch {
            let root = PhysFs::new(Arc::clone(&self.origin)).root();
            fetch_file_delta(
                &VnodeAccess::new(ReplicaId(1), root),
                &self.puller,
                self.file,
            )
            .unwrap()
        }
    }

    #[test]
    fn delta_fetch_ships_changed_chunks_and_reads_clean_runs() {
        let pair = DeltaPair::new();
        pair.puller_calls.reset();
        let pulled = pair.pull();
        assert_eq!(pulled.data, pair.data);
        assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (1, 15));
        assert_eq!(pulled.bytes_fetched, 4096);
        // Fifteen clean chunks in two runs (0..2 and 3..16): one UFS read
        // for the local map, then header + entries + one slot run per clean
        // run — not per clean chunk.
        assert_eq!(pair.puller_calls.get(Op::Read), 1 + 2 * 3);
    }

    #[test]
    fn delta_fetch_falls_back_when_a_reused_chunk_is_torn() {
        let cred = Credentials::root();
        // A local chunk whose bytes no longer match its digest (a torn
        // in-place write): same length, so only the per-chunk verification
        // of *reused* pieces can notice.
        let pair = DeltaPair::new();
        pair.extent.write(&cred, 9 * 4096 + 17, b"torn").unwrap();
        let pulled = pair.pull();
        assert_eq!(pulled.data, pair.data, "never the torn bytes");
        assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (0, 0));
        assert_eq!(pulled.bytes_fetched, pair.data.len() as u64, "went whole");

        // A local extent that lost its tail: the clean run's read fails
        // outright, and the pull falls back the same way.
        let pair = DeltaPair::new();
        pair.extent
            .setattr(&cred, &ficus_vnode::SetAttr::size(12 * 4096))
            .unwrap();
        let pulled = pair.pull();
        assert_eq!(pulled.data, pair.data, "never zero-filled bytes");
        assert_eq!(pulled.bytes_fetched, pair.data.len() as u64, "went whole");
    }

    #[test]
    fn dir_with_children_round_trips_and_rejects_junk() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, b"x").unwrap();
        p.mkdir(ROOT_FILE, "dir").unwrap();

        let dx = DirWithChildren::gather(&p, ROOT_FILE).unwrap();
        let buf = dx.encode();
        assert_eq!(DirWithChildren::decode(&buf).unwrap(), dx);

        // Every truncation and any trailing garbage is rejected.
        for cut in 0..buf.len() {
            assert!(DirWithChildren::decode(&buf[..cut]).is_err(), "cut={cut}");
        }
        let mut long = buf;
        long.push(0);
        assert!(DirWithChildren::decode(&long).is_err());
    }
}
