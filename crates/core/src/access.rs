//! Uniform access to a volume replica, local or remote.
//!
//! The propagation daemon and the reconciliation protocol both need to read
//! a peer replica's state: directory entry sets, replication attributes, and
//! file data. Every such question is asked "through the vnode interface …
//! without having to build a transport service" (§2.2): it is a control
//! name on the overloaded-lookup control plane (§2.3), and the answer is
//! the contents of the synthetic file the name resolves to.
//! [`ReplicaAccess`] is that one transport primitive — resolve and read a
//! batch of control names — and each typed question on top of it is one
//! name format and one decode, so every algorithm above is written once,
//! whether the peer is co-resident or across an NFS mount.

use std::collections::BTreeMap;
use std::sync::Arc;

use ficus_nfs::client::NfsVnode;
use ficus_nfs::wire::{Dec, Enc};
use ficus_vnode::{Credentials, FileSystem, FsError, FsResult, VnodeRef};

use crate::attrs::ReplAttrs;
use crate::changelog::LogSuffix;
use crate::chunks::{self, ChunkMap};
use crate::dirfile::FicusDir;
use crate::ids::{FicusFileId, ReplicaId};
use crate::phys::vnode::PhysFs;
use crate::phys::FicusPhysical;

/// A directory snapshot bundled with the replication attributes of every
/// live child — everything subtree reconciliation needs to decide, per
/// child, whether any further fetch is required.
///
/// This is the payload of the `;f;dirx;<hex>` control name and the result
/// of the `dir_with_children` question. Children whose attributes
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

/// Read access to one volume replica: who it is, and the one transport
/// primitive every question about it rides.
pub trait ReplicaAccess: Send + Sync {
    /// The replica's id.
    fn replica(&self) -> ReplicaId;

    /// Resolves each control name under the replica's root and reads back
    /// the whole file it names — one result per name, in request order.
    /// Failures are per-item: a name the replica cannot resolve yields its
    /// error in its slot; the call as a whole fails only when the transport
    /// does.
    fn read_ctl(&self, names: &[String]) -> FsResult<Vec<FsResult<Vec<u8>>>>;
}

/// The questions the daemons ask a replica. Each is one control-name format
/// and one decode over [`ReplicaAccess::read_ctl`]; a single question is the
/// n = 1 batch.
impl dyn ReplicaAccess + '_ {
    fn read_one(&self, name: String) -> FsResult<Vec<u8>> {
        self.read_ctl(&[name])?.pop().ok_or(FsError::Io)?
    }

    /// Replication attributes for a batch of files, one result per id in
    /// request order: an id the replica has never heard of yields
    /// `Err(NotFound)` in its slot.
    pub fn attrs(&self, files: &[FicusFileId]) -> FsResult<Vec<FsResult<ReplAttrs>>> {
        let names: Vec<String> = files.iter().map(|f| format!(";f;vv;{}", f.hex())).collect();
        let items = self.read_ctl(&names)?;
        Ok(items
            .into_iter()
            .map(|item| ReplAttrs::decode(&item?))
            .collect())
    }

    /// A directory's entry set and attributes plus the replication
    /// attributes of all its live children. See [`DirWithChildren`] for the
    /// absence semantics of the `children` map.
    pub fn dir_with_children(&self, dir: FicusFileId) -> FsResult<DirWithChildren> {
        DirWithChildren::decode(&self.read_one(format!(";f;dirx;{}", dir.hex()))?)
    }

    /// The replica's change-log suffix since sequence `from` — the pulling
    /// side of the recon cursor protocol (see [`crate::changelog`]).
    pub fn changes(&self, from: u64) -> FsResult<LogSuffix> {
        LogSuffix::decode(&self.read_one(format!(";f;log;{from:016x}"))?)
    }

    /// The chunk map of one regular file — the per-chunk digests delta
    /// transfer compares (DESIGN.md §4.13).
    pub fn chunk_map(&self, file: FicusFileId) -> FsResult<ChunkMap> {
        ChunkMap::decode(&self.read_one(format!(";f;map;{}", file.hex()))?)
    }

    /// Concatenated bytes of chunks `[start, start + count)` of one file.
    pub fn chunks(&self, file: FicusFileId, start: u32, count: u32) -> FsResult<Vec<u8>> {
        self.read_one(format!(";f;blk;{};{start:08x};{count:08x}", file.hex()))
    }

    /// Full contents of one regular file.
    pub fn data(&self, file: FicusFileId) -> FsResult<Vec<u8>> {
        self.read_one(format!(";f;id;{}", file.hex()))
    }
}

/// Files at or below this many chunks are pulled whole. The puller learns
/// the chunk count from the remote's map, so a stored small file still
/// costs the map exchange before its one whole-file read (two exchanges
/// per pull; E7b's `rpcs / ideal` records it).
pub const SMALL_FILE_CHUNKS: usize = 2;

/// What one file pull shipped and reused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilePull {
    /// The assembled new contents.
    pub data: Vec<u8>,
    /// Chunks pulled over the wire (zero for a whole-file pull).
    pub blocks_shipped: u64,
    /// Chunks reused from the local replica (digest and length match).
    pub blocks_reused: u64,
    /// Bytes actually transferred (delta chunks, or the whole file).
    pub bytes_fetched: u64,
}

/// Pulls a file's new contents from `remote` — the one route propagation,
/// reconciliation and adoption all take (DESIGN.md §4.13).
///
/// With a local copy to build on, the local chunk map and the remote's
/// (via `;f;map;`) are compared by digest and only dirty chunks travel,
/// coalesced into contiguous `;f;blk;` range reads. Whole file is the same
/// plan with every chunk dirty, read in one `;f;id;` exchange, and it is
/// what every *content* shortcoming selects: no local copy (`local` is
/// `None` — adoption — or stores no map for the file), a file of at most
/// [`SMALL_FILE_CHUNKS`] chunks, mismatched chunk sizes, or any piece —
/// fetched or reused — whose digest disagrees with the map that promised it
/// (a torn local chunk, or a remote whose map and data raced an update).
/// A *transport* failure (`Unreachable`, `TimedOut`) ends the pull at once:
/// the link that just failed is not tried a second time.
pub fn pull_file(
    remote: &dyn ReplicaAccess,
    local: Option<&FicusPhysical>,
    file: FicusFileId,
) -> FsResult<FilePull> {
    if let Some(phys) = local {
        // Any other error is a content shortcoming: every chunk travels.
        if let done @ (Ok(_) | Err(FsError::Unreachable | FsError::TimedOut)) =
            pull_dirty_chunks(remote, phys, file)
        {
            return done;
        }
    }
    let data = remote.data(file)?;
    Ok(FilePull {
        bytes_fetched: data.len() as u64,
        data,
        ..FilePull::default()
    })
}

/// The delta plan. Any error but a transport failure means the pieces on
/// hand do not add up to the promised contents.
fn pull_dirty_chunks(
    remote: &dyn ReplicaAccess,
    phys: &FicusPhysical,
    file: FicusFileId,
) -> FsResult<FilePull> {
    let local = phys.chunk_map(file)?;
    let map = remote.chunk_map(file)?;
    // Chunk `i` of the new contents lies at `i * chunk_size` (the decoded
    // map guarantees every chunk but the last is full), so each contiguous
    // run — dirty from the wire, clean from the local replica — is one
    // read placed at its offset.
    let csize = u64::from(map.chunk_size);
    if map.chunks.len() <= SMALL_FILE_CHUNKS
        || map.chunk_size != local.chunk_size
        || csize == 0
        || map.size.div_ceil(csize) != map.chunks.len() as u64
    {
        return Err(FsError::Stale);
    }
    let dirty = chunks::dirty_indices(&local, &map);
    let clean: Vec<u32> = (0..map.chunks.len() as u32)
        .filter(|i| dirty.binary_search(i).is_err())
        .collect();
    let span = |start: u32, count: u32| {
        let lo = u64::from(start) * csize;
        let hi = ((u64::from(start) + u64::from(count)) * csize).min(map.size);
        lo as usize..hi as usize
    };
    let mut data = vec![0u8; map.size as usize];
    let mut place = |start: u32, count: u32, buf: &[u8]| {
        let dst = data.get_mut(span(start, count));
        let dst = dst.filter(|d| d.len() == buf.len()).ok_or(FsError::Stale)?;
        dst.copy_from_slice(buf);
        Ok(())
    };
    let mut bytes_fetched = 0u64;
    for (start, count) in chunks::contiguous_ranges(&dirty) {
        let buf = remote.chunks(file, start, count)?;
        place(start, count, &buf)?;
        bytes_fetched += buf.len() as u64;
    }
    for (start, count) in chunks::contiguous_ranges(&clean) {
        let range = span(start, count);
        let buf = phys.read(file, range.start as u64, range.len())?;
        place(start, count, &buf)?;
    }
    // Every piece — fetched or reused — must be what the remote map
    // promised: this is what catches a local chunk torn by a non-atomic
    // in-place write.
    for (entry, piece) in map.chunks.iter().zip(data.chunks(csize as usize)) {
        if piece.len() != entry.len as usize || chunks::digest(piece) != entry.digest {
            return Err(FsError::Stale);
        }
    }
    Ok(FilePull {
        data,
        blocks_shipped: dirty.len() as u64,
        blocks_reused: (map.chunks.len() - dirty.len()) as u64,
        bytes_fetched,
    })
}

/// Access to a replica through its exported vnode root: an NFS-client mount
/// of a remote peer's physical layer, or any other stack over one.
pub struct VnodeAccess {
    replica: ReplicaId,
    root: VnodeRef,
    cred: Credentials,
}

impl VnodeAccess {
    /// Wraps the root vnode of a (possibly remote) physical-layer export.
    #[must_use]
    pub fn new(replica: ReplicaId, root: VnodeRef) -> Self {
        VnodeAccess {
            replica,
            root,
            cred: Credentials::root(),
        }
    }

    /// Resolves one control name and reads back the whole file it names.
    fn lookup_read(&self, name: &str) -> FsResult<Vec<u8>> {
        let v = self.root.lookup(&self.cred, name)?;
        let size = v.getattr(&self.cred)?.size as usize;
        Ok(v.read(&self.cred, 0, size)?.to_vec())
    }
}

impl ReplicaAccess for VnodeAccess {
    fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// An NFS-client root answers the whole batch in one `LookupReadMany`
    /// round trip; any other root is in this process, and each name is an
    /// ordinary lookup and read.
    fn read_ctl(&self, names: &[String]) -> FsResult<Vec<FsResult<Vec<u8>>>> {
        if let Some(nfs) = self.root.as_any().downcast_ref::<NfsVnode>() {
            return nfs.lookup_read_many(&self.cred, names);
        }
        Ok(names.iter().map(|name| self.lookup_read(name)).collect())
    }
}

/// Access to a co-resident physical layer: the same control plane, asked
/// in process.
pub struct LocalAccess(VnodeAccess);

impl LocalAccess {
    /// Wraps a local physical layer.
    #[must_use]
    pub fn new(phys: Arc<FicusPhysical>) -> Self {
        LocalAccess(VnodeAccess::new(phys.replica(), PhysFs::new(phys).root()))
    }
}

impl ReplicaAccess for LocalAccess {
    fn replica(&self) -> ReplicaId {
        self.0.replica()
    }

    fn read_ctl(&self, names: &[String]) -> FsResult<Vec<FsResult<Vec<u8>>>> {
        self.0.read_ctl(names)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        phys_with(me, PhysParams::default())
    }

    fn phys_with(me: ReplicaId, params: PhysParams) -> Arc<FicusPhysical> {
        let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
        FicusPhysical::create_volume(
            Arc::new(ufs),
            "vol",
            VolumeName::new(1, 1),
            me,
            &[1, 2],
            Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
            params,
        )
        .unwrap()
    }

    /// A [`ReplicaAccess`] wrapper that records every control name asked,
    /// one entry per exchange, and can play a link that dies.
    pub(crate) struct Instrumented<A> {
        inner: A,
        exchanges: parking_lot::Mutex<Vec<Vec<String>>>,
        dies: parking_lot::Mutex<Option<(usize, FsError)>>,
    }

    impl<A: ReplicaAccess> Instrumented<A> {
        pub(crate) fn new(inner: A) -> Self {
            Instrumented {
                inner,
                exchanges: parking_lot::Mutex::new(Vec::new()),
                dies: parking_lot::Mutex::new(None),
            }
        }

        /// Every exchange from the `n`-th on (0-based) fails with `error`.
        pub(crate) fn fail_from(&self, n: usize, error: FsError) {
            *self.dies.lock() = Some((n, error));
        }

        /// Drains the log: the names of each exchange so far.
        pub(crate) fn take(&self) -> Vec<Vec<String>> {
            std::mem::take(&mut *self.exchanges.lock())
        }

        /// Drains the log: the `;f;<kind>;` prefix of each exchange's first
        /// name.
        pub(crate) fn take_prefixes(&self) -> Vec<String> {
            let prefix = |name: &String| name.split_inclusive(';').take(3).collect();
            self.take().iter().map(|names| prefix(&names[0])).collect()
        }
    }

    /// Lets a daemon own its connection while the test keeps the log.
    impl<A: ReplicaAccess> ReplicaAccess for Arc<Instrumented<A>> {
        fn replica(&self) -> ReplicaId {
            (**self).replica()
        }

        fn read_ctl(&self, names: &[String]) -> FsResult<Vec<FsResult<Vec<u8>>>> {
            (**self).read_ctl(names)
        }
    }

    impl<A: ReplicaAccess> ReplicaAccess for Instrumented<A> {
        fn replica(&self) -> ReplicaId {
            self.inner.replica()
        }

        fn read_ctl(&self, names: &[String]) -> FsResult<Vec<FsResult<Vec<u8>>>> {
            let asked = {
                let mut log = self.exchanges.lock();
                log.push(names.to_vec());
                log.len()
            };
            let dies = *self.dies.lock();
            match dies {
                Some((n, error)) if asked > n => Err(error),
                _ => self.inner.read_ctl(names),
            }
        }
    }

    #[test]
    fn every_question_gets_the_physical_layers_own_answer() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, b"same view").unwrap();
        let d = p.mkdir(ROOT_FILE, "dir").unwrap();

        let local = LocalAccess::new(Arc::clone(&p));
        let via_vnode = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());
        for acc in [&local as &dyn ReplicaAccess, &via_vnode] {
            assert_eq!(acc.replica(), p.replica());
            assert_eq!(
                acc.attrs(&[f, d]).unwrap(),
                [p.repl_attrs(f), p.repl_attrs(d)]
            );
            assert_eq!(acc.data(f).unwrap(), b"same view");
            for dir in [ROOT_FILE, d] {
                assert_eq!(
                    acc.dir_with_children(dir).unwrap(),
                    DirWithChildren::gather(&p, dir).unwrap()
                );
            }
            assert_eq!(acc.changes(0).unwrap(), p.changelog_suffix(0));
        }
    }

    #[test]
    fn vnode_access_missing_file() {
        let p = phys();
        let acc: &dyn ReplicaAccess = &VnodeAccess::new(ReplicaId(1), PhysFs::new(p).root());
        assert_eq!(
            acc.attrs(&[crate::ids::FicusFileId::new(9, 9)]).unwrap(),
            vec![Err(FsError::NotFound)]
        );
    }

    #[test]
    fn a_batch_agrees_with_its_singletons() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, b"payload").unwrap();
        let d = p.mkdir(ROOT_FILE, "dir").unwrap();
        let ghost = crate::ids::FicusFileId::new(9, 9);

        let local = LocalAccess::new(Arc::clone(&p));
        let via_vnode = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());

        for acc in [&local as &dyn ReplicaAccess, &via_vnode] {
            let one = |file| acc.attrs(&[file]).unwrap().pop().unwrap();
            let batch = acc.attrs(&[f, ghost, d]).unwrap();
            assert_eq!(batch, vec![one(f), Err(FsError::NotFound), one(d)]);
            assert_eq!(batch[0], p.repl_attrs(f));

            let dx = acc.dir_with_children(ROOT_FILE).unwrap();
            assert_eq!(dx.entries, p.dir_entries(ROOT_FILE).unwrap());
            assert_eq!(dx.attrs, p.repl_attrs(ROOT_FILE).unwrap());
            assert_eq!(dx.children.len(), 2);
            assert_eq!(dx.children[&f], one(f).unwrap());
            assert_eq!(dx.children[&d], one(d).unwrap());

            // A file is not a directory.
            assert_eq!(acc.dir_with_children(f).unwrap_err(), FsError::NotDir);
        }
    }

    #[test]
    fn chunk_surface_agrees_local_and_vnode() {
        let p = phys();
        let f = p.create(ROOT_FILE, "file", VnodeType::Regular).unwrap();
        p.write(f, 0, &vec![5u8; 3 * 4096 + 17]).unwrap();

        let local = LocalAccess::new(Arc::clone(&p));
        let via_vnode = VnodeAccess::new(ReplicaId(1), PhysFs::new(Arc::clone(&p)).root());
        let (local, via_vnode): (&dyn ReplicaAccess, &dyn ReplicaAccess) = (&local, &via_vnode);

        let want_map = p.chunk_map(f).unwrap();
        assert_eq!(want_map.chunks.len(), 4);
        assert_eq!(local.chunk_map(f).unwrap(), want_map);
        assert_eq!(via_vnode.chunk_map(f).unwrap(), want_map);

        let want = p.read_chunk_range(f, 1, 2).unwrap();
        assert_eq!(want.len(), 2 * 4096);
        assert_eq!(local.chunks(f, 1, 2).unwrap(), want);
        assert_eq!(via_vnode.chunks(f, 1, 2).unwrap(), want);
        // Out-of-range requests fail identically everywhere.
        assert_eq!(local.chunks(f, 3, 2).unwrap_err(), FsError::Invalid);
        assert_eq!(via_vnode.chunks(f, 3, 2).unwrap_err(), FsError::Invalid);
    }

    #[test]
    fn content_shortcomings_pull_the_whole_file() {
        let p1 = phys_replica(ReplicaId(1));
        let p2 = phys_replica(ReplicaId(2));
        let acc = Instrumented::new(LocalAccess::new(Arc::clone(&p1)));
        let whole = |pulled: &FilePull, body: &[u8]| {
            assert_eq!(pulled.data, body);
            assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (0, 0));
            assert_eq!(pulled.bytes_fetched, body.len() as u64);
        };

        // A stored small file: the map exchange tells the puller the chunk
        // count, then one whole-file read follows.
        let small = p1.create(ROOT_FILE, "small", VnodeType::Regular).unwrap();
        p1.write(small, 0, b"tiny").unwrap();
        let vv = p1.file_vv(small).unwrap();
        p2.adopt_file(ROOT_FILE, small, VnodeType::Regular, &vv, b"tiny")
            .unwrap();
        whole(&pull_file(&acc, Some(&p2), small).unwrap(), b"tiny");
        assert_eq!(acc.take_prefixes(), [";f;map;", ";f;id;"]);

        // A file the local replica has never stored goes whole without
        // asking for the map, whether the caller knows it (adoption) or the
        // missing local map says so.
        let fresh = p1.create(ROOT_FILE, "fresh", VnodeType::Regular).unwrap();
        let body = vec![3u8; 5 * 4096];
        p1.write(fresh, 0, &body).unwrap();
        for local in [None, Some(&*p2)] {
            whole(&pull_file(&acc, local, fresh).unwrap(), &body);
            assert_eq!(acc.take_prefixes(), [";f;id;"]);
        }

        // Replicas that chunk differently share no chunk to reuse.
        let coarse = phys_with(
            ReplicaId(2),
            PhysParams {
                chunk_size: 8192,
                ..PhysParams::default()
            },
        );
        let vv = p1.file_vv(fresh).unwrap();
        coarse
            .adopt_file(ROOT_FILE, fresh, VnodeType::Regular, &vv, &body)
            .unwrap();
        whole(&pull_file(&acc, Some(&coarse), fresh).unwrap(), &body);
        assert_eq!(acc.take_prefixes(), [";f;map;", ";f;id;"]);
    }

    #[test]
    fn a_transport_failure_ends_the_pull_at_once() {
        let pair = DeltaPair::new();
        for (dies_at, asked) in [(0, vec![";f;map;"]), (1, vec![";f;map;", ";f;blk;"])] {
            for error in [FsError::Unreachable, FsError::TimedOut] {
                let acc = Instrumented::new(LocalAccess::new(Arc::clone(&pair.origin)));
                acc.fail_from(dies_at, error);
                assert_eq!(
                    pull_file(&acc, Some(&pair.puller), pair.file).unwrap_err(),
                    error
                );
                assert_eq!(acc.take_prefixes(), asked, "no second, whole-file attempt");
            }
        }
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

        fn pull(&self) -> FilePull {
            let root = PhysFs::new(Arc::clone(&self.origin)).root();
            pull_file(
                &VnodeAccess::new(ReplicaId(1), root),
                Some(&self.puller),
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
