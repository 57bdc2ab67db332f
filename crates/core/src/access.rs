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
use crate::chunks::{self, ChunkEntry, ChunkMap};
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

    /// Concatenated bytes of each chunk range `(start, count)` of one file,
    /// one result per range: every range of a pull rides one exchange.
    pub fn chunk_ranges(
        &self,
        file: FicusFileId,
        ranges: &[(u32, u32)],
    ) -> FsResult<Vec<FsResult<Vec<u8>>>> {
        let name =
            |(start, count): &(u32, u32)| format!(";f;blk;{};{start:08x};{count:08x}", file.hex());
        self.read_ctl(&ranges.iter().map(name).collect::<Vec<_>>())
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

/// One file pull: a patch against the local copy, and what it shipped and
/// reused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilePull {
    /// The remote's chunk map — `None` when the file travelled whole:
    /// `data` is then its entire contents and `dirty` is empty.
    pub map: Option<ChunkMap>,
    /// Sorted indices of the chunks the local copy could not supply.
    pub dirty: Vec<u32>,
    /// The bytes of the `dirty` chunks back to back, each piece checked
    /// against the digest `map` promised — or the whole file.
    pub data: Vec<u8>,
    /// Chunks pulled over the wire (zero for a whole-file pull).
    pub blocks_shipped: u64,
    /// Chunks carried by reference from the local replica (digest and
    /// length match).
    pub blocks_reused: u64,
    /// Bytes actually transferred (delta chunks, or the whole file).
    pub bytes_fetched: u64,
}

impl FilePull {
    /// The full new contents: the pulled chunks laid over `base`, the
    /// contents of the local copy the pull was computed against. Only a
    /// caller that must hold the whole file (to compare or stash a
    /// conflicting version) pays for this.
    pub fn into_contents(self, base: &[u8]) -> FsResult<Vec<u8>> {
        let Some(map) = &self.map else {
            return Ok(self.data);
        };
        let mut out = base.to_vec();
        out.resize(map.size as usize, 0);
        let (header, per) = (map.header(), map.chunk_size as usize);
        for (rank, &idx) in self.dirty.iter().enumerate() {
            let len = header.chunk_len(idx) as usize;
            let src = self.data.get(rank * per..rank * per + len);
            let dst = out.get_mut(idx as usize * per..idx as usize * per + len);
            let (dst, src) = dst.zip(src).ok_or(FsError::Stale)?;
            dst.copy_from_slice(src);
        }
        Ok(out)
    }
}

/// Pulls a file's new contents from `remote` — the one route propagation,
/// reconciliation and adoption all take (DESIGN.md §4.13).
///
/// With a local copy to build on, the pull is a patch in two exchanges:
/// the remote's map (`;f;map;`) is compared by digest with the local one,
/// and every run of dirty chunks travels as a `;f;blk;` range in one batch.
/// Clean chunks are carried by reference, unread — unless the local file
/// has left this mount's verified set, in which case they are checked
/// against their digests and one that fails is one more dirty chunk
/// ([`FicusPhysical::dirty_chunks`]). Whole file is the same plan with
/// every chunk dirty, read in one `;f;id;` exchange, and it is what every
/// *content* shortcoming selects: no local copy (`local` is `None` —
/// adoption — or stores no map for the file), a file of at most
/// [`SMALL_FILE_CHUNKS`] chunks, mismatched chunk sizes, or a fetched piece
/// whose digest disagrees with the map that promised it (a remote whose
/// map and data raced an update).
/// A *transport* failure (`Unreachable`, `TimedOut`) ends the pull at once:
/// the link that just failed is not tried a second time.
pub fn pull_file(
    remote: &dyn ReplicaAccess,
    local: Option<&FicusPhysical>,
    file: FicusFileId,
) -> FsResult<FilePull> {
    // Any error but a transport failure is a content shortcoming: every
    // chunk travels.
    match local.map(|phys| pull_dirty_chunks(remote, phys, file)) {
        Some(done @ (Ok(_) | Err(FsError::Unreachable | FsError::TimedOut))) => done,
        _ => {
            let data = remote.data(file)?;
            Ok(FilePull {
                bytes_fetched: data.len() as u64,
                data,
                ..FilePull::default()
            })
        }
    }
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
    if map.chunks.len() <= SMALL_FILE_CHUNKS || map.chunk_size != local.chunk_size {
        return Err(FsError::Stale);
    }
    let dirty = phys.dirty_chunks(file, &local, &map);
    let ranges = chunks::contiguous_ranges(&dirty);
    let mut data = Vec::new();
    if !ranges.is_empty() {
        let mut pieces = remote.chunk_ranges(file, &ranges)?.into_iter();
        for &(start, count) in &ranges {
            let piece = pieces.next().ok_or(FsError::Io)??;
            // Every fetched chunk must be what the remote map promised.
            let promised = map.chunks.iter().skip(start as usize);
            let got = piece.chunks(map.chunk_size as usize);
            let sound = |(e, c): (&ChunkEntry, &[u8])| {
                c.len() == e.len as usize && chunks::digest(c) == e.digest
            };
            if got.len() != count as usize || !promised.zip(got).all(sound) {
                return Err(FsError::Stale);
            }
            data.extend_from_slice(&piece);
        }
    }
    Ok(FilePull {
        blocks_shipped: dirty.len() as u64,
        blocks_reused: (map.chunks.len() - dirty.len()) as u64,
        bytes_fetched: data.len() as u64,
        map: Some(map),
        dirty,
        data,
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
    use ficus_vnode::fault::{FaultControl, FaultLayer, FaultPlan, Schedule};
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

        // Ranges answer per item: an out-of-range one fails in its slot,
        // identically everywhere.
        let want = vec![
            Ok(p.read_chunk_range(f, 1, 2).unwrap()),
            Err(FsError::Invalid),
            Ok(p.read_chunk_range(f, 3, 1).unwrap()),
        ];
        assert_eq!(want[0].as_ref().unwrap().len(), 2 * 4096);
        let ranges = [(1, 2), (3, 2), (3, 1)];
        assert_eq!(local.chunk_ranges(f, &ranges).unwrap(), want);
        assert_eq!(via_vnode.chunk_ranges(f, &ranges).unwrap(), want);
    }

    #[test]
    fn content_shortcomings_pull_the_whole_file() {
        let p1 = phys_replica(ReplicaId(1));
        let p2 = phys_replica(ReplicaId(2));
        let acc = Instrumented::new(LocalAccess::new(Arc::clone(&p1)));
        let whole = |pulled: &FilePull, body: &[u8]| {
            assert_eq!((&pulled.map, &pulled.dirty[..]), (&None, &[][..]));
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

    #[test]
    fn a_delta_pull_is_two_exchanges_however_many_runs_are_dirty() {
        let mut pair = DeltaPair::new();
        for (at, k) in [(5, 2), (9, 3), (14, 4)] {
            pair.edit_origin(at * 4096, &[at as u8; 4096]);
            let acc = Instrumented::new(LocalAccess::new(Arc::clone(&pair.origin)));
            let pulled = pull_file(&acc, Some(&pair.puller), pair.file).unwrap();
            assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (k, 16 - k));
            let asked = acc.take();
            assert_eq!(asked.len(), 2, "the map, then every dirty run at once");
            assert!(asked[0][0].starts_with(";f;map;"));
            assert_eq!(asked[1].len(), k as usize, "one `;f;blk;` name per run");
            assert!(asked[1].iter().all(|name| name.starts_with(";f;blk;")));
        }
        // Nothing dirty (the same bytes under a newer vector): the map alone.
        let mut twin = DeltaPair::new();
        twin.edit_origin(2 * 4096 + 5, &pattern_at(2 * 4096 + 5, 100));
        let acc = Instrumented::new(LocalAccess::new(Arc::clone(&twin.origin)));
        let pulled = pull_file(&acc, Some(&twin.puller), twin.file).unwrap();
        assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (0, 16));
        assert_eq!(acc.take_prefixes(), [";f;map;"]);
    }

    /// The bytes `DeltaPair`'s file starts with at `offset`.
    fn pattern_at(offset: u32, len: u32) -> Vec<u8> {
        (offset..offset + len).map(|i| (i % 241) as u8).collect()
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
        /// Fails chosen calls of the puller's physical layer on its UFS.
        puller_faults: Arc<FaultControl>,
    }

    impl DeltaPair {
        fn new() -> Self {
            let origin = phys_replica(ReplicaId(1));
            let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
            let (faulty, puller_faults) = FaultLayer::new(Arc::new(ufs), FaultPlan::none());
            let (storage, puller_calls) = MeasureLayer::new(faulty);
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
            let data = pattern_at(0, 16 * 4096);
            origin.write(file, 0, &data).unwrap();
            let vv = origin.file_vv(file).unwrap();
            puller
                .adopt_file(ROOT_FILE, file, VnodeType::Regular, &vv, &data)
                .unwrap();
            let cred = Credentials::root();
            let base = puller.storage().root().lookup(&cred, "vol").unwrap();
            let extent = base.lookup(&cred, &format!("{}.x", file.hex())).unwrap();
            let mut pair = DeltaPair {
                origin,
                puller,
                file,
                data,
                extent,
                puller_calls,
                puller_faults,
            };
            pair.edit_origin(2 * 4096 + 5, &[9u8; 100]);
            pair
        }

        fn edit_origin(&mut self, offset: usize, bytes: &[u8]) {
            self.origin.write(self.file, offset as u64, bytes).unwrap();
            self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        }

        /// The puller crashes and comes back: a fresh mount over the same
        /// storage, which has verified nothing yet.
        fn remount_puller(&mut self) {
            self.puller = FicusPhysical::mount(
                Arc::clone(self.puller.storage()),
                "vol",
                VolumeName::new(1, 1),
                ReplicaId(2),
                &[1, 2],
                Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
                PhysParams::default(),
            )
            .unwrap();
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

        /// Commits a delta pull at the puller and checks the puller then
        /// reads exactly what the origin holds.
        fn apply(&self, pulled: &FilePull) {
            let vv = self.origin.file_vv(self.file).unwrap();
            let patch = crate::chunks::Patch {
                map: pulled.map.clone().expect("a delta pull"),
                dirty: pulled.dirty.clone(),
                data: &pulled.data,
            };
            self.puller.apply_patch(self.file, &vv, patch).unwrap();
            let got = self.puller.read(self.file, 0, self.data.len() + 1).unwrap();
            assert_eq!(&got[..], &self.data[..]);
            assert_eq!(self.puller.file_vv(self.file).unwrap(), vv);
        }

        /// Fails the `nth` call of `op` the puller makes on its storage
        /// from now on (1-based), and only that one.
        fn fail_nth(&self, op: Op, nth: u64) {
            self.puller_faults.set_plan(FaultPlan {
                ops: vec![op],
                error: FsError::Io,
                schedule: Schedule::EveryNth(self.puller_faults.matched() + nth),
            });
        }
    }

    #[test]
    fn delta_pull_ships_changed_chunks_and_leaves_clean_ones_unread() {
        let pair = DeltaPair::new();
        let before = pair.puller.read(pair.file, 0, pair.data.len()).unwrap();
        pair.puller_calls.reset();
        let pulled = pair.pull();
        assert_eq!(pulled.dirty, [2]);
        assert_eq!(pulled.data, pair.data[2 * 4096..3 * 4096]);
        assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (1, 15));
        assert_eq!(pulled.bytes_fetched, 4096);
        // The puller adopted the file on this mount, so its fifteen clean
        // chunks are known good: the only local read is the map.
        assert_eq!(pair.puller_calls.get(Op::Read), 1);
        pair.apply(&pulled);
        assert_eq!(pulled.into_contents(&before).unwrap(), pair.data);
    }

    #[test]
    fn a_chunk_torn_by_a_crash_is_one_more_dirty_chunk_and_heals() {
        let cred = Credentials::root();
        // A local chunk whose bytes no longer match its digest (a torn
        // in-place write; a tear is a crash, so the puller remounts): same
        // length, so only digesting the would-be-clean chunks can notice.
        let mut pair = DeltaPair::new();
        pair.extent.write(&cred, 9 * 4096 + 17, b"torn").unwrap();
        pair.remount_puller();
        pair.puller_calls.reset();
        let pulled = pair.pull();
        assert_eq!(pulled.dirty, [2, 9], "the edit and the tear");
        assert_eq!((pulled.blocks_shipped, pulled.blocks_reused), (2, 14));
        assert_eq!(pulled.bytes_fetched, 2 * 4096, "not the 64 KiB file");
        // The map, then each of the fifteen would-be-clean chunks.
        assert_eq!(pair.puller_calls.get(Op::Read), 1 + 15);
        pair.apply(&pulled);
        // Healed and verified: the next pull reads nothing but the map.
        pair.edit_origin(4 * 4096, b"again");
        pair.puller_calls.reset();
        assert_eq!(pair.pull().dirty, [4]);
        assert_eq!(pair.puller_calls.get(Op::Read), 1);

        // A local extent that lost its tail: the chunks past the cut cannot
        // be read at all, and travel like any other dirty chunk.
        let mut pair = DeltaPair::new();
        pair.extent
            .setattr(&cred, &ficus_vnode::SetAttr::size(12 * 4096))
            .unwrap();
        pair.remount_puller();
        let pulled = pair.pull();
        assert_eq!(pulled.dirty, [2, 12, 13, 14, 15]);
        assert_eq!(pulled.bytes_fetched, 5 * 4096);
        pair.apply(&pulled);
    }

    #[test]
    fn a_failed_in_place_update_sends_the_next_pull_back_to_verify() {
        // A write whose slot write lands and whose map-entry write fails:
        // slot 9 holds bytes its entry does not digest. No crash, no
        // remount — the failure itself drops the file from the verified set.
        let pair = DeltaPair::new();
        pair.fail_nth(Op::Write, 2);
        let lost = pair.puller.write(pair.file, 9 * 4096, &[7u8; 100]);
        assert_eq!(lost.unwrap_err(), FsError::Io);
        pair.puller_faults.set_plan(FaultPlan::none());
        let pulled = pair.pull();
        assert_eq!(pulled.dirty, [2, 9], "the mismatched chunk ships");
        pair.apply(&pulled);

        // A truncate that fails after committing its shorter map (the
        // extent trim is its second setattr) tore nothing, but nothing
        // vouches for that: the next pull digests the chunks it keeps.
        let pair = DeltaPair::new();
        pair.fail_nth(Op::Setattr, 2);
        let lost = pair.puller.truncate(pair.file, 12 * 4096);
        assert_eq!(lost.unwrap_err(), FsError::Io);
        pair.puller_faults.set_plan(FaultPlan::none());
        pair.puller_calls.reset();
        let pulled = pair.pull();
        assert_eq!(pulled.dirty, [2, 12, 13, 14, 15]);
        assert_eq!(pair.puller_calls.get(Op::Read), 1 + 11, "clean chunks read");
        pair.apply(&pulled);
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
