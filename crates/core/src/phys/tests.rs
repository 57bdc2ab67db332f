//! Physical-layer tests: dual mapping, version vectors on update, shadow
//! commit, crash recovery, graft-point content, and the exported vnode
//! interface with its control plane.

use std::sync::Arc;

use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_vnode::{
    Credentials, FileSystem, FsError, LogicalClock, OpenFlags, TimeSource, Timestamp, VnodeType,
};
use ficus_vv::VersionVector;

use crate::attrs::ReplAttrs;
use crate::conflict::ConflictKind;
use crate::dirfile::FicusDir;
use crate::ids::{FicusFileId, ReplicaId, VolumeName, ROOT_FILE};
use crate::phys::vnode::PhysFs;
use crate::phys::{FicusPhysical, PhysParams, StorageLayout};

fn clock() -> Arc<dyn TimeSource> {
    Arc::new(LogicalClock::new())
}

fn fresh(layout: StorageLayout) -> (Arc<FicusPhysical>, Ufs) {
    let disk = Disk::new(Geometry::medium());
    let ufs = Ufs::format(disk.clone(), UfsParams::default()).unwrap();
    let ufs2 = Ufs::format(disk, UfsParams::default()).unwrap();
    let phys = FicusPhysical::create_volume(
        Arc::new(ufs),
        "vol_a",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams {
            layout,
            ..PhysParams::default()
        },
    )
    .unwrap();
    (phys, ufs2)
}

fn tree() -> Arc<FicusPhysical> {
    fresh(StorageLayout::Tree).0
}

#[test]
fn create_write_read_bumps_vv() {
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        let (phys, _) = fresh(layout);
        let f = phys
            .create(ROOT_FILE, "file.txt", VnodeType::Regular)
            .unwrap();
        let vv0 = phys.file_vv(f).unwrap();
        assert_eq!(vv0.get(1), 1, "creation is the first update");
        phys.write(f, 0, b"hello").unwrap();
        let vv1 = phys.file_vv(f).unwrap();
        assert_eq!(vv1.get(1), 2);
        assert_eq!(&phys.read(f, 0, 10).unwrap()[..], b"hello");
    }
}

#[test]
fn directory_updates_bump_dir_vv() {
    let phys = tree();
    let before = phys.file_vv(ROOT_FILE).unwrap();
    phys.create(ROOT_FILE, "a", VnodeType::Regular).unwrap();
    let after = phys.file_vv(ROOT_FILE).unwrap();
    assert!(after.compare(&before) == ficus_vv::Ordering::Dominates);
}

#[test]
fn nested_directories_and_lookup() {
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        let (phys, _) = fresh(layout);
        let d1 = phys.mkdir(ROOT_FILE, "docs").unwrap();
        let d2 = phys.mkdir(d1, "papers").unwrap();
        let f = phys.create(d2, "usenix.tex", VnodeType::Regular).unwrap();
        phys.write(f, 0, b"\\title{Ficus}").unwrap();
        let e = phys.lookup(d1, "papers").unwrap();
        assert_eq!(e.file, d2);
        assert_eq!(e.kind, VnodeType::Directory);
        let e = phys.lookup(d2, "usenix.tex").unwrap();
        assert_eq!(e.file, f);
        assert_eq!(
            phys.lookup(ROOT_FILE, "nothing").unwrap_err(),
            FsError::NotFound
        );
    }
}

#[test]
fn hex_names_used_on_ufs() {
    // The dual mapping: the UFS sees hexadecimal handle names, not client
    // names (§2.6).
    let disk = Disk::new(Geometry::medium());
    let ufs = Ufs::format(disk, UfsParams::default()).unwrap();
    let ufs_fs: Arc<dyn FileSystem> = Arc::new(ufs);
    let phys = FicusPhysical::create_volume(
        Arc::clone(&ufs_fs),
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    let f = phys
        .create(ROOT_FILE, "visible-name", VnodeType::Regular)
        .unwrap();
    let cred = Credentials::root();
    let base = ufs_fs.root().lookup(&cred, "vol").unwrap();
    // The UFS name is the hex of the file id; the client name is absent.
    assert!(base.lookup(&cred, &f.hex()).is_ok());
    assert!(base.lookup(&cred, &format!("{}.a", f.hex())).is_ok());
    assert_eq!(
        base.lookup(&cred, "visible-name").unwrap_err(),
        FsError::NotFound
    );
}

#[test]
fn remove_gcs_storage_and_link_keeps_it() {
    let phys = tree();
    let f = phys.create(ROOT_FILE, "once", VnodeType::Regular).unwrap();
    let d = phys.mkdir(ROOT_FILE, "sub").unwrap();
    phys.link(d, "alias", f).unwrap();
    phys.remove(ROOT_FILE, "once").unwrap();
    // Still alive through the link.
    assert!(phys.read(f, 0, 1).is_ok());
    phys.remove(d, "alias").unwrap();
    assert_eq!(phys.read(f, 0, 1).unwrap_err(), FsError::NotFound);
}

#[test]
fn rmdir_requires_empty() {
    let phys = tree();
    let d = phys.mkdir(ROOT_FILE, "d").unwrap();
    phys.create(d, "f", VnodeType::Regular).unwrap();
    assert_eq!(phys.remove(ROOT_FILE, "d").unwrap_err(), FsError::NotEmpty);
    phys.remove(d, "f").unwrap();
    phys.remove(ROOT_FILE, "d").unwrap();
}

#[test]
fn rename_keeps_file_id_and_tombstones_old_entry() {
    let phys = tree();
    let d = phys.mkdir(ROOT_FILE, "dst").unwrap();
    let f = phys.create(ROOT_FILE, "orig", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"payload").unwrap();
    phys.rename(ROOT_FILE, "orig", d, "moved").unwrap();
    assert_eq!(
        phys.lookup(ROOT_FILE, "orig").unwrap_err(),
        FsError::NotFound
    );
    let e = phys.lookup(d, "moved").unwrap();
    assert_eq!(e.file, f, "rename preserves file identity");
    assert_eq!(&phys.read(f, 0, 10).unwrap()[..], b"payload");
    // The old directory holds a tombstone for reconciliation to ship.
    let root_dir = phys.dir_entries(ROOT_FILE).unwrap();
    assert!(root_dir.entries.iter().any(|e| e.deleted()));
}

#[test]
fn rename_into_own_descendant_rejected() {
    let phys = tree();
    let a = phys.mkdir(ROOT_FILE, "a").unwrap();
    let b = phys.mkdir(a, "b").unwrap();
    assert_eq!(
        phys.rename(ROOT_FILE, "a", b, "inside").unwrap_err(),
        FsError::Invalid
    );
}

#[test]
fn apply_remote_version_dominating_adopts() {
    let phys = tree();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"v1").unwrap();
    let mut remote_vv = phys.file_vv(f).unwrap();
    remote_vv.increment(2); // replica 2 updated on top of ours
    phys.apply_remote_version(f, &remote_vv, b"v2-from-replica-2")
        .unwrap();
    assert_eq!(&phys.read(f, 0, 100).unwrap()[..], b"v2-from-replica-2");
    assert_eq!(phys.file_vv(f).unwrap(), remote_vv);
}

#[test]
fn apply_remote_version_stale_is_noop() {
    let phys = tree();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"current").unwrap();
    let old_vv = VersionVector::single(1); // covered by ours
    phys.apply_remote_version(f, &old_vv, b"stale").unwrap();
    assert_eq!(&phys.read(f, 0, 100).unwrap()[..], b"current");
}

#[test]
fn apply_remote_version_concurrent_is_conflict() {
    let phys = tree();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"ours").unwrap();
    let foreign = VersionVector::single(2); // knows nothing of replica 1
    assert_eq!(
        phys.apply_remote_version(f, &foreign, b"theirs")
            .unwrap_err(),
        FsError::Conflict
    );
    assert_eq!(&phys.read(f, 0, 100).unwrap()[..], b"ours");
}

#[test]
fn shadow_commit_survives_crash_before_swap() {
    // Write a shadow by hand (as a propagation pull would), crash before the
    // rename, remount: the original must be intact and the shadow gone.
    let disk = Disk::new(Geometry::medium());
    let ufs = Ufs::format(disk.clone(), UfsParams::default()).unwrap();
    let ufs_fs: Arc<dyn FileSystem> = Arc::new(ufs);
    let phys = FicusPhysical::create_volume(
        Arc::clone(&ufs_fs),
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"original").unwrap();
    let cred = Credentials::root();
    let base = ufs_fs.root().lookup(&cred, "vol").unwrap();
    let shadow = base
        .create(&cred, &format!("{}.s", f.hex()), 0o600)
        .unwrap();
    shadow.write(&cred, 0, b"half-propagated").unwrap();
    shadow.fsync(&cred).unwrap();
    drop(phys);

    // Remount (recovery pass).
    let phys2 = FicusPhysical::mount(
        Arc::clone(&ufs_fs),
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    assert_eq!(&phys2.read(f, 0, 100).unwrap()[..], b"original");
    assert_eq!(
        base.lookup(&cred, &format!("{}.s", f.hex())).unwrap_err(),
        FsError::NotFound
    );
}

#[test]
fn mount_rebuilds_index_and_id_counter() {
    let disk = Disk::new(Geometry::medium());
    let ufs = Ufs::format(disk.clone(), UfsParams::default()).unwrap();
    let ufs_fs: Arc<dyn FileSystem> = Arc::new(ufs);
    let (f, d, sub_f);
    {
        let phys = FicusPhysical::create_volume(
            Arc::clone(&ufs_fs),
            "vol",
            VolumeName::new(1, 1),
            ReplicaId(1),
            &[1],
            clock(),
            PhysParams::default(),
        )
        .unwrap();
        f = phys.create(ROOT_FILE, "top", VnodeType::Regular).unwrap();
        phys.write(f, 0, b"data").unwrap();
        d = phys.mkdir(ROOT_FILE, "dir").unwrap();
        sub_f = phys.create(d, "inner", VnodeType::Regular).unwrap();
    }
    let phys = FicusPhysical::mount(
        ufs_fs,
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    assert_eq!(&phys.read(f, 0, 10).unwrap()[..], b"data");
    assert_eq!(phys.lookup(d, "inner").unwrap().file, sub_f);
    // Fresh ids must not collide with pre-mount ones.
    let g = phys.create(ROOT_FILE, "fresh", VnodeType::Regular).unwrap();
    assert_ne!(g, f);
    assert_ne!(g, sub_f);
}

#[test]
fn new_version_cache_dedups_and_times() {
    let phys = tree();
    let f = FicusFileId::new(2, 9);
    let vv1 = VersionVector::single(2);
    let mut vv2 = vv1.clone();
    vv2.increment(2);
    phys.note_new_version(f, ReplicaId(2), vv1.clone());
    phys.note_new_version(f, ReplicaId(2), vv1.clone()); // duplicate
    assert_eq!(phys.pending_notifications(), 1);
    phys.note_new_version(f, ReplicaId(2), vv2.clone()); // newer replaces
    let due = phys.take_due_notifications(Timestamp(u64::MAX), Timestamp(u64::MAX));
    assert_eq!(due.len(), 1);
    assert_eq!(due[0].1.vv, vv2);
    assert_eq!(phys.pending_notifications(), 0);
    phys.requeue_notification(f, due[0].1.clone());
    assert_eq!(phys.pending_notifications(), 1);
}

#[test]
fn graft_point_pairs_round_trip() {
    let phys = tree();
    let g = phys
        .make_graft_point(ROOT_FILE, "src", VolumeName::new(7, 9))
        .unwrap();
    assert_eq!(phys.graft_target(g).unwrap(), VolumeName::new(7, 9));
    phys.graft_add_replica(g, ReplicaId(1), 10).unwrap();
    phys.graft_add_replica(g, ReplicaId(2), 20).unwrap();
    phys.graft_add_replica(g, ReplicaId(2), 20).unwrap(); // idempotent
    assert_eq!(
        phys.graft_replicas(g).unwrap(),
        vec![(ReplicaId(1), 10), (ReplicaId(2), 20)]
    );
    // Graft points are directory-like on the wire.
    let e = phys.lookup(ROOT_FILE, "src").unwrap();
    assert_eq!(e.kind, VnodeType::GraftPoint);
    // Regular files refuse graft entries.
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    assert_eq!(
        phys.graft_add_replica(f, ReplicaId(1), 1).unwrap_err(),
        FsError::Invalid
    );
}

#[test]
fn merge_dir_applies_remote_activity() {
    // Two replicas of one volume on separate disks; ship entries by hand.
    let (a, _) = fresh(StorageLayout::Tree);
    let disk_b = Disk::new(Geometry::medium());
    let ufs_b = Ufs::format(disk_b, UfsParams::default()).unwrap();
    let b = FicusPhysical::create_volume(
        Arc::new(ufs_b),
        "vol_b",
        VolumeName::new(1, 1),
        ReplicaId(2),
        &[1, 2],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    let f = a.create(ROOT_FILE, "from-a", VnodeType::Regular).unwrap();
    a.write(f, 0, b"created at A").unwrap();
    let a_entries = a.dir_entries(ROOT_FILE).unwrap();
    let a_vv = a.file_vv(ROOT_FILE).unwrap();
    let out = b
        .merge_dir(ROOT_FILE, &a_entries, ReplicaId(1), &a_vv)
        .unwrap();
    assert_eq!(out.inserted.len(), 1);
    // B now sees the name (data arrives separately via file recon).
    assert_eq!(b.lookup(ROOT_FILE, "from-a").unwrap().file, f);
    // And B's directory vector covers A's.
    assert!(b.file_vv(ROOT_FILE).unwrap().covers(&a_vv));
}

#[test]
fn merge_dir_remove_update_conflict_orphans_file() {
    let (a, _) = fresh(StorageLayout::Tree);
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    a.write(f, 0, b"v1").unwrap();

    // Fabricate the remote view: the entry tombstoned with a vv that does
    // NOT cover a later local update.
    let mut remote = a.dir_entries(ROOT_FILE).unwrap();
    let entry_id = remote.entries[0].id;
    let vv_at_delete = a.file_vv(f).unwrap();
    remote
        .tombstone(
            entry_id,
            &vv_at_delete,
            crate::ids::EntryId::new(2, 999),
            ReplicaId(2),
        )
        .unwrap();
    // Local keeps updating after the (unseen) delete.
    a.write(f, 0, b"v2 unseen by deleter").unwrap();

    let out = a
        .merge_dir(ROOT_FILE, &remote, ReplicaId(2), &VersionVector::single(2))
        .unwrap();
    assert_eq!(out.tombstoned.len(), 1);
    assert_eq!(a.conflicts().count_kind(ConflictKind::RemoveUpdate), 1);
    assert_eq!(a.orphans().unwrap(), vec![f], "data preserved in orphanage");
}

#[test]
fn stash_and_resolve_update_conflict() {
    let phys = tree();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"ours").unwrap();
    let their_vv = VersionVector::single(2);
    phys.stash_conflict_version(f, ReplicaId(2), &their_vv, b"theirs")
        .unwrap();
    assert!(phys.repl_attrs(f).unwrap().conflict);
    assert_eq!(
        &phys.read_conflict_version(f, ReplicaId(2)).unwrap()[..],
        b"theirs"
    );
    assert_eq!(
        phys.conflicts().count_kind(ConflictKind::ConcurrentUpdate),
        1
    );
    // Owner resolves in favor of local content.
    phys.resolve_conflict(f, &their_vv).unwrap();
    let attrs = phys.repl_attrs(f).unwrap();
    assert!(!attrs.conflict);
    assert!(attrs.vv.covers(&their_vv));
}

// --- exported vnode interface ------------------------------------------------

#[test]
fn phys_vnode_basic_operations() {
    let phys = tree();
    let fs = PhysFs::new(Arc::clone(&phys));
    let cred = Credentials::root();
    let root = fs.root();
    assert_eq!(root.kind(), VnodeType::Directory);
    let f = root.create(&cred, "via-vnode", 0o644).unwrap();
    f.write(&cred, 0, b"through the interface").unwrap();
    assert_eq!(&f.read(&cred, 8, 3).unwrap()[..], b"the");
    let d = root.mkdir(&cred, "dir", 0o755).unwrap();
    let peer = fs.root();
    root.rename(&cred, "via-vnode", &peer, "renamed").unwrap();
    assert!(root.lookup(&cred, "renamed").is_ok());
    let entries = root.readdir(&cred, 0, 100).unwrap();
    let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"renamed"));
    assert!(names.contains(&"dir"));
    let _ = d;
}

#[test]
fn control_lookup_dir_returns_encoded_entries() {
    let phys = tree();
    let fs = PhysFs::new(Arc::clone(&phys));
    let cred = Credentials::root();
    let root = fs.root();
    root.create(&cred, "x", 0o644).unwrap();
    let ctl = root.lookup(&cred, ";f;dir").unwrap();
    let size = ctl.getattr(&cred).unwrap().size as usize;
    let data = ctl.read(&cred, 0, size).unwrap();
    let decoded = FicusDir::decode(&data).unwrap();
    assert_eq!(decoded.live().count(), 1);
    assert_eq!(decoded.primary("x").unwrap().name, "x");
    // Control files are read-only.
    assert_eq!(ctl.write(&cred, 0, b"no").unwrap_err(), FsError::ReadOnly);
}

#[test]
fn control_lookup_vv_and_id() {
    let phys = tree();
    let fs = PhysFs::new(Arc::clone(&phys));
    let cred = Credentials::root();
    let root = fs.root();
    let f = root.create(&cred, "x", 0o644).unwrap();
    f.write(&cred, 0, b"1").unwrap();
    let hex = phys.lookup(ROOT_FILE, "x").unwrap().file.hex();

    let ctl = root.lookup(&cred, &format!(";f;vv;{hex}")).unwrap();
    let size = ctl.getattr(&cred).unwrap().size as usize;
    let attrs = ReplAttrs::decode(&ctl.read(&cred, 0, size).unwrap()).unwrap();
    assert_eq!(attrs.vv.get(1), 2); // create + write

    let byid = root.lookup(&cred, &format!(";f;id;{hex}")).unwrap();
    assert_eq!(&byid.read(&cred, 0, 10).unwrap()[..], b"1");
}

#[test]
fn open_close_tunnel_through_control_names() {
    // The §2.3 mechanism end to end at the physical layer: open/close
    // encoded as lookup names are observed even though plain open() through
    // NFS would be swallowed.
    let phys = tree();
    let fs = PhysFs::new(Arc::clone(&phys));
    let cred = Credentials::root();
    let root = fs.root();
    root.create(&cred, "watched", 0o644).unwrap();
    let id = phys.lookup(ROOT_FILE, "watched").unwrap().file;
    let flags = OpenFlags::read_write();
    let v = root
        .lookup(&cred, &format!(";f;o;{};{}", flags.to_bits(), id.hex()))
        .unwrap();
    assert_eq!(v.fileid(), id.as_u64());
    root.lookup(&cred, &format!(";f;c;{};{}", flags.to_bits(), id.hex()))
        .unwrap();
    let opens = phys.observed_opens();
    assert_eq!(opens.len(), 2);
    assert_eq!(opens[0], (id, flags, true));
    assert_eq!(opens[1], (id, flags, false));
}

#[test]
fn name_conflicts_readdir_disambiguation() {
    // Fabricate a merged name conflict and check lookup/readdir behavior.
    let (a, _) = fresh(StorageLayout::Tree);
    let disk_b = Disk::new(Geometry::medium());
    let b = FicusPhysical::create_volume(
        Arc::new(Ufs::format(disk_b, UfsParams::default()).unwrap()),
        "vol_b",
        VolumeName::new(1, 1),
        ReplicaId(2),
        &[1, 2],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    a.create(ROOT_FILE, "same", VnodeType::Regular).unwrap();
    b.create(ROOT_FILE, "same", VnodeType::Regular).unwrap();
    let b_entries = b.dir_entries(ROOT_FILE).unwrap();
    a.merge_dir(
        ROOT_FILE,
        &b_entries,
        ReplicaId(2),
        &b.file_vv(ROOT_FILE).unwrap(),
    )
    .unwrap();

    let fs = PhysFs::new(Arc::clone(&a));
    let cred = Credentials::root();
    let root = fs.root();
    let entries = root.readdir(&cred, 0, 100).unwrap();
    let names: Vec<_> = entries.iter().map(|e| e.name.clone()).collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&"same".to_owned()));
    let suffixed = names.iter().find(|n| n.contains("#e")).unwrap().clone();
    // Both resolve by lookup.
    assert!(root.lookup(&cred, "same").is_ok());
    assert!(root.lookup(&cred, &suffixed).is_ok());
    // And a name-collision report was filed.
    assert_eq!(a.conflicts().count_kind(ConflictKind::NameCollision), 1);
}

#[test]
fn symlinks_through_phys_vnode() {
    let phys = tree();
    let fs = PhysFs::new(phys);
    let cred = Credentials::root();
    let root = fs.root();
    let ln = root.symlink(&cred, "ln", "target/path").unwrap();
    assert_eq!(ln.kind(), VnodeType::Symlink);
    assert_eq!(ln.readlink(&cred).unwrap(), "target/path");
    let back = root.lookup(&cred, "ln").unwrap();
    assert_eq!(back.readlink(&cred).unwrap(), "target/path");
}

#[test]
fn flat_and_tree_layouts_equivalent_semantics() {
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        let (phys, _) = fresh(layout);
        let d = phys.mkdir(ROOT_FILE, "d").unwrap();
        let f = phys.create(d, "f", VnodeType::Regular).unwrap();
        phys.write(f, 0, b"same behavior").unwrap();
        phys.rename(d, "f", ROOT_FILE, "g").unwrap();
        assert_eq!(&phys.read(f, 0, 20).unwrap()[..], b"same behavior");
        phys.remove(ROOT_FILE, "g").unwrap();
        assert_eq!(phys.read(f, 0, 1).unwrap_err(), FsError::NotFound);
    }
}

// --- directory-race policies and covered-stash GC -------------------------

fn fresh_with_policy(dir_policy: crate::resolver::DirPolicy) -> Arc<FicusPhysical> {
    let disk = Disk::new(Geometry::medium());
    let ufs = Ufs::format(disk, UfsParams::default()).unwrap();
    FicusPhysical::create_volume(
        Arc::new(ufs),
        "vol_a",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams {
            dir_policy,
            ..PhysParams::default()
        },
    )
    .unwrap()
}

#[test]
fn resurrect_policy_relinks_a_remove_update_survivor() {
    let a = fresh_with_policy(crate::resolver::DirPolicy {
        resurrect_updates: true,
        collapse_renames: false,
    });
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    a.write(f, 0, b"v1").unwrap();
    let mut remote = a.dir_entries(ROOT_FILE).unwrap();
    let entry_id = remote.entries[0].id;
    let vv_at_delete = a.file_vv(f).unwrap();
    remote
        .tombstone(
            entry_id,
            &vv_at_delete,
            crate::ids::EntryId::new(2, 999),
            ReplicaId(2),
        )
        .unwrap();
    a.write(f, 0, b"v2 unseen by deleter").unwrap();

    let out = a
        .merge_dir(ROOT_FILE, &remote, ReplicaId(2), &VersionVector::single(2))
        .unwrap();
    assert_eq!(out.tombstoned.len(), 1);
    // Still reported — the policy changes disposal, not detection.
    assert_eq!(a.conflicts().count_kind(ConflictKind::RemoveUpdate), 1);
    // But the survivor is back in the name space, not the orphanage.
    assert_eq!(a.orphans().unwrap(), vec![]);
    let e = a.lookup(ROOT_FILE, "f").unwrap();
    assert_eq!(e.file, f, "re-linked under its old name");
    assert_eq!(&a.read(f, 0, 32).unwrap()[..], b"v2 unseen by deleter");
}

#[test]
fn resurrect_policy_uses_recovered_suffix_when_the_name_was_retaken() {
    let a = fresh_with_policy(crate::resolver::DirPolicy {
        resurrect_updates: true,
        collapse_renames: false,
    });
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    a.write(f, 0, b"old").unwrap();
    let mut remote = a.dir_entries(ROOT_FILE).unwrap();
    let entry_id = remote.entries[0].id;
    let vv_at_delete = a.file_vv(f).unwrap();
    remote
        .tombstone(
            entry_id,
            &vv_at_delete,
            crate::ids::EntryId::new(2, 999),
            ReplicaId(2),
        )
        .unwrap();
    // The deleter then created a NEW file under the same name.
    let g = FicusFileId::new(2, 77);
    remote
        .insert(
            crate::dirfile::FicusEntry::live(
                "f",
                g,
                VnodeType::Regular,
                crate::ids::EntryId::new(2, 1000),
            ),
            ReplicaId(2),
        )
        .unwrap();
    a.write(f, 0, b"updated meanwhile").unwrap();

    a.merge_dir(ROOT_FILE, &remote, ReplicaId(2), &VersionVector::single(2))
        .unwrap();
    assert_eq!(
        a.lookup(ROOT_FILE, "f").unwrap().file,
        g,
        "new file keeps the name"
    );
    let e = a.lookup(ROOT_FILE, "f.recovered").unwrap();
    assert_eq!(e.file, f, "survivor re-linked under <name>.recovered");
    assert_eq!(a.orphans().unwrap(), vec![]);
}

#[test]
fn collapse_policy_repairs_a_partitioned_rename() {
    // Both replicas renamed "orig" concurrently: after the merge the file
    // has two live entries. The policy keeps the lowest entry id.
    let a = fresh_with_policy(crate::resolver::DirPolicy {
        resurrect_updates: false,
        collapse_renames: true,
    });
    let f = a.create(ROOT_FILE, "orig", VnodeType::Regular).unwrap();
    a.write(f, 0, b"content").unwrap();
    // Remote view: "orig" tombstoned, re-inserted as "theirs".
    let mut remote = a.dir_entries(ROOT_FILE).unwrap();
    let entry_id = remote.entries[0].id;
    let vv = a.file_vv(f).unwrap();
    remote
        .tombstone(
            entry_id,
            &vv,
            crate::ids::EntryId::new(2, 999),
            ReplicaId(2),
        )
        .unwrap();
    remote
        .insert(
            crate::dirfile::FicusEntry::live(
                "theirs",
                f,
                VnodeType::Regular,
                crate::ids::EntryId::new(2, 1000),
            ),
            ReplicaId(2),
        )
        .unwrap();
    // Local renamed it too.
    a.rename(ROOT_FILE, "orig", ROOT_FILE, "mine").unwrap();
    let mine_id = a.lookup(ROOT_FILE, "mine").unwrap().id;
    let theirs_id = crate::ids::EntryId::new(2, 1000);

    a.merge_dir(ROOT_FILE, &remote, ReplicaId(2), &VersionVector::single(2))
        .unwrap();
    let d = a.dir_entries(ROOT_FILE).unwrap();
    let live: Vec<_> = d.live().filter(|e| e.file == f).collect();
    assert_eq!(live.len(), 1, "exactly one winner");
    let winner = std::cmp::min(mine_id, theirs_id);
    assert_eq!(live[0].id, winner, "lowest entry id wins");
    assert_eq!(a.conflicts().count_kind(ConflictKind::RenameRace), 1);
    // Idempotent: merging the same remote view again changes nothing more.
    a.merge_dir(ROOT_FILE, &remote, ReplicaId(2), &VersionVector::single(2))
        .unwrap();
    assert_eq!(a.conflicts().count_kind(ConflictKind::RenameRace), 1);
    assert_eq!(
        a.dir_entries(ROOT_FILE)
            .unwrap()
            .live()
            .filter(|e| e.file == f)
            .count(),
        1
    );
}

#[test]
fn default_policy_leaves_rename_aliases_alone() {
    // Without the policy the merge keeps both names (a legal hard link).
    let a = tree();
    let f = a.create(ROOT_FILE, "orig", VnodeType::Regular).unwrap();
    let mut remote = a.dir_entries(ROOT_FILE).unwrap();
    let entry_id = remote.entries[0].id;
    let vv = a.file_vv(f).unwrap();
    remote
        .tombstone(
            entry_id,
            &vv,
            crate::ids::EntryId::new(2, 999),
            ReplicaId(2),
        )
        .unwrap();
    remote
        .insert(
            crate::dirfile::FicusEntry::live(
                "theirs",
                f,
                VnodeType::Regular,
                crate::ids::EntryId::new(2, 1000),
            ),
            ReplicaId(2),
        )
        .unwrap();
    a.rename(ROOT_FILE, "orig", ROOT_FILE, "mine").unwrap();
    a.merge_dir(ROOT_FILE, &remote, ReplicaId(2), &VersionVector::single(2))
        .unwrap();
    let d = a.dir_entries(ROOT_FILE).unwrap();
    assert_eq!(d.live().filter(|e| e.file == f).count(), 2);
    assert_eq!(a.conflicts().count_kind(ConflictKind::RenameRace), 0);
}

#[test]
fn a_dominating_version_sweeps_covered_stashes() {
    // A stashed divergence whose history the file's vector later covers is
    // an already-resolved conflict arriving from elsewhere: stash discarded,
    // flag cleared.
    let phys = tree();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"ours").unwrap();
    let mut their_vv = VersionVector::single(2);
    phys.stash_conflict_version(f, ReplicaId(2), &their_vv, b"theirs")
        .unwrap();
    assert!(phys.repl_attrs(f).unwrap().conflict);
    assert_eq!(phys.conflict_versions(f).unwrap(), vec![ReplicaId(2)]);
    // A resolution made elsewhere: joins both histories + a fresh update.
    let mut resolved_vv = phys.file_vv(f).unwrap();
    resolved_vv.merge(&their_vv);
    resolved_vv.increment(2);
    their_vv = resolved_vv.clone();
    phys.apply_remote_version(f, &their_vv, b"resolved")
        .unwrap();
    assert_eq!(&phys.read(f, 0, 16).unwrap()[..], b"resolved");
    assert!(!phys.repl_attrs(f).unwrap().conflict, "conflict swept");
    assert_eq!(phys.conflict_versions(f).unwrap(), vec![]);
}

#[test]
fn absorb_identical_version_joins_histories_without_an_update() {
    let phys = tree();
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, b"same bytes").unwrap();
    let mine = phys.file_vv(f).unwrap();
    let theirs = VersionVector::single(2);
    assert!(mine.concurrent_with(&theirs));
    phys.absorb_identical_version(f, &theirs).unwrap();
    let joined = phys.file_vv(f).unwrap();
    assert!(joined.covers(&mine) && joined.covers(&theirs));
    assert_eq!(
        joined.total(),
        mine.total() + theirs.total(),
        "no new update added"
    );
    assert_eq!(&phys.read(f, 0, 16).unwrap()[..], b"same bytes");
}

// --- chunked-commit crash matrix (DESIGN.md §4.13) --------------------------

use crate::chunks::{self, ChunkMap, CommitPoint, Patch};
use ficus_vnode::measure::{MeasureLayer, Op, OpCounters};
use ficus_vnode::VnodeRef;

/// A volume on a shared UFS handle so the test can drop the physical layer
/// and remount it (the recovery pass) over the same disk state.
fn crash_world(layout: StorageLayout) -> (Arc<dyn FileSystem>, Arc<FicusPhysical>) {
    let ufs: Arc<dyn FileSystem> =
        Arc::new(Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap());
    let phys = FicusPhysical::create_volume(
        Arc::clone(&ufs),
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams {
            layout,
            ..PhysParams::default()
        },
    )
    .unwrap();
    (ufs, phys)
}

fn remount(ufs: &Arc<dyn FileSystem>, layout: StorageLayout) -> Arc<FicusPhysical> {
    FicusPhysical::mount(
        Arc::clone(ufs),
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams {
            layout,
            ..PhysParams::default()
        },
    )
    .unwrap()
}

/// The UFS directory holding the volume root's objects (both layouts keep
/// the root directory's files there).
fn base_of(ufs: &Arc<dyn FileSystem>) -> VnodeRef {
    ufs.root().lookup(&Credentials::root(), "vol").unwrap()
}

/// The raw extent object of a root-directory file.
fn extent_of(ufs: &Arc<dyn FileSystem>, f: FicusFileId) -> VnodeRef {
    base_of(ufs)
        .lookup(&Credentials::root(), &format!("{}.x", f.hex()))
        .unwrap()
}

/// The bytes each of `map`'s slots holds on the raw extent, in map order.
fn slot_bytes(ufs: &Arc<dyn FileSystem>, f: FicusFileId, map: &ChunkMap) -> Vec<Vec<u8>> {
    let extent = extent_of(ufs, f);
    map.chunks
        .iter()
        .map(|c| {
            let at = c.slot * u64::from(map.chunk_size);
            extent
                .read(&Credentials::root(), at, c.len as usize)
                .unwrap()
                .to_vec()
        })
        .collect()
}

fn slots(map: &ChunkMap) -> Vec<u64> {
    map.chunks.iter().map(|c| c.slot).collect()
}

fn pattern(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32).map(|i| ((i ^ salt) % 251) as u8).collect()
}

#[test]
fn commit_crash_matrix_original_intact_or_new_complete() {
    // A crash at every point of the chunked commit, in both layouts, the
    // commit driven by a partial patch — the map of the new contents and
    // the one dirty chunk's bytes, as a delta pull delivers it. The §3.2
    // guarantee: after remount the file reads as the original or as
    // the complete new version — never a torn mixture. There is no debris
    // to sweep beyond the shadow map: whatever the crashed commit wrote
    // went into slots the committed map does not reference, so every slot
    // that map names is byte-identical to before the crash.
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        for at in [
            CommitPoint::MidChunkWrite,
            CommitPoint::BeforeMapSwap,
            CommitPoint::BeforeAttrWrite,
        ] {
            let (ufs, phys) = crash_world(layout);
            let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
            let original = pattern(5 * 4096, 0);
            phys.write(f, 0, &original).unwrap();
            let mut new_data = original.clone();
            new_data[4096..4200].fill(0xEE);
            let mut vv = phys.file_vv(f).unwrap();
            vv.increment(2);
            let map_before = phys.chunk_map(f).unwrap();
            let bytes_before = slot_bytes(&ufs, f, &map_before);
            let patch = Patch {
                map: ChunkMap::of(&new_data, 4096),
                dirty: vec![1],
                data: &new_data[4096..2 * 4096],
            };

            phys.arm_commit_crash(at);
            assert_eq!(
                phys.apply_patch(f, &vv, patch.clone()).unwrap_err(),
                FsError::Io,
                "{layout:?}/{at:?}: injected crash surfaces as Io"
            );
            drop(phys);

            let phys2 = remount(&ufs, layout);
            let got = phys2.read(f, 0, new_data.len() + 16).unwrap();
            let map_after = phys2.chunk_map(f).unwrap();
            let stats = phys2.chunk_stats();
            match at {
                // Crashed before the map swap: the original governs, and
                // the torn or complete dirty chunk sits past every slot the
                // map names.
                CommitPoint::MidChunkWrite | CommitPoint::BeforeMapSwap => {
                    assert_eq!(&got[..], &original[..], "{layout:?}/{at:?}");
                    assert_eq!(map_after, map_before, "{layout:?}/{at:?}");
                    let size = extent_of(&ufs, f)
                        .getattr(&Credentials::root())
                        .unwrap()
                        .size;
                    assert!(size > 5 * 4096, "{layout:?}/{at:?}: dirty chunk in slot 5");
                }
                // The swap is the commit point: past it the new version is
                // complete even though the attributes never made it out.
                CommitPoint::BeforeAttrWrite => {
                    assert_eq!(&got[..], &new_data[..], "{layout:?}/{at:?}");
                    assert_eq!(slots(&map_after), vec![0, 5, 2, 3, 4], "{layout:?}/{at:?}");
                }
            }
            // Every slot the old map named still holds the old bytes, and
            // every slot the surviving map names — carried unread or newly
            // filled — holds the bytes its entry digests.
            assert_eq!(
                slot_bytes(&ufs, f, &map_before),
                bytes_before,
                "{layout:?}/{at:?}"
            );
            for (entry, held) in map_after.chunks.iter().zip(slot_bytes(&ufs, f, &map_after)) {
                assert_eq!(chunks::digest(&held), entry.digest, "{layout:?}/{at:?}");
            }
            let shadows = u64::from(at == CommitPoint::BeforeMapSwap);
            assert_eq!(stats.shadows_discarded, shadows, "{layout:?}/{at:?}");
            assert_eq!(stats.extents_discarded, 0, "{layout:?}/{at:?}");
            assert_eq!(stats.shadow_discard_failures, 0, "{layout:?}/{at:?}");

            // The interrupted propagation simply retries and completes,
            // into the same lowest free slot.
            phys2.apply_patch(f, &vv, patch).unwrap();
            assert_eq!(
                &phys2.read(f, 0, new_data.len()).unwrap()[..],
                &new_data[..]
            );
            assert!(phys2.file_vv(f).unwrap().covers(&vv));
            let retried = phys2.chunk_map(f).unwrap();
            if at != CommitPoint::BeforeAttrWrite {
                assert_eq!(slots(&retried), vec![0, 5, 2, 3, 4], "{layout:?}/{at:?}");
            }
        }
    }
}

#[test]
fn dirty_chunks_are_changes_growth_and_for_an_unverified_file_tears() {
    let (ufs, phys) = crash_world(StorageLayout::Tree);
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    let data = pattern(2 * 4096 + 2, 3);
    phys.write(f, 0, &data).unwrap();
    let old = phys.chunk_map(f).unwrap();
    let dirty = |phys: &FicusPhysical, new: &[u8]| {
        let new = ChunkMap::of(new, 4096);
        phys.dirty_chunks(f, &old, &new)
    };
    // Identical; one chunk changed; growth (the short tail changed and a
    // chunk appeared); shrink (nothing to ship — the patch is the new
    // contents' view); chunk-size mismatch (everything).
    assert!(dirty(&phys, &data).is_empty());
    let mut new = data.clone();
    new[4096] ^= 1;
    assert_eq!(dirty(&phys, &new), [1]);
    let grown = [&data[..], &[7u8; 4096]].concat();
    assert_eq!(dirty(&phys, &grown), [2, 3]);
    assert!(dirty(&phys, &data[..4096]).is_empty());
    let coarse = ChunkMap::of(&data, 8192);
    assert_eq!(phys.dirty_chunks(f, &old, &coarse), [0, 1]);

    // This mount wrote every chunk, so it reads none of them back: a tear
    // made behind its back goes unseen until a mount that has verified
    // nothing looks — and finds exactly the torn chunk.
    extent_of(&ufs, f)
        .write(&Credentials::root(), 4096 + 9, b"torn")
        .unwrap();
    assert!(dirty(&phys, &data).is_empty());
    drop(phys);
    let phys2 = remount(&ufs, StorageLayout::Tree);
    assert_eq!(dirty(&phys2, &data), [1]);
    assert_eq!(dirty(&phys2, &new), [1], "dirty twice over is dirty once");
}

#[test]
fn genuine_commit_error_cleans_up_without_recovery() {
    // A commit that fails for a real reason (not an injected power loss)
    // discards its own shadow immediately, and the abort is counted.
    let (_ufs, phys) = crash_world(StorageLayout::Tree);
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    phys.write(f, 0, &vec![1u8; 3 * 4096]).unwrap();
    let mut vv = phys.file_vv(f).unwrap();
    vv.increment(2);
    // Concurrent vector: rejected before any storage work.
    let alien = VersionVector::single(2);
    assert_eq!(
        phys.apply_remote_version(f, &alien, b"x").unwrap_err(),
        FsError::Conflict
    );
    assert_eq!(phys.chunk_stats().commit_aborts, 0, "no storage work yet");
    // A patch that would carry a chunk the committed map does not hold (its
    // clean index 1 promises other bytes) is stale: counted, nothing moved.
    let before = phys.chunk_map(f).unwrap();
    let patch = Patch {
        map: ChunkMap::of(&[2u8; 3 * 4096], 4096),
        dirty: vec![0, 2],
        data: &[2u8; 2 * 4096],
    };
    assert_eq!(phys.apply_patch(f, &vv, patch).unwrap_err(), FsError::Stale);
    assert_eq!(phys.chunk_stats().commit_aborts, 1);
    assert_eq!(phys.chunk_map(f).unwrap(), before);
    assert!(!phys.file_vv(f).unwrap().covers(&vv));
}

#[test]
fn zero_length_commit_round_trips() {
    // An empty new version: the shadow map is a zero-chunk map written
    // through `write_named`'s empty-payload path, and every slot of the
    // old contents is free.
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        let (ufs, phys) = crash_world(layout);
        let f = phys
            .create(ROOT_FILE, "shrinks", VnodeType::Regular)
            .unwrap();
        phys.write(f, 0, &vec![9u8; 2 * 4096 + 7]).unwrap();
        let old_map = phys.chunk_map(f).unwrap();
        assert_eq!(old_map.chunks.len(), 3);
        let mut vv = phys.file_vv(f).unwrap();
        vv.increment(2);
        phys.apply_remote_version(f, &vv, b"").unwrap();

        assert_eq!(phys.read(f, 0, 64).unwrap().len(), 0);
        assert_eq!(phys.storage_attr(f).unwrap().size, 0);
        let map = phys.chunk_map(f).unwrap();
        assert_eq!((map.size, map.chunks.len()), (0, 0));

        // Survives a remount unchanged, with nothing for recovery to do.
        drop(phys);
        let phys2 = remount(&ufs, layout);
        assert_eq!(phys2.read(f, 0, 64).unwrap().len(), 0);
        let stats = phys2.chunk_stats();
        assert_eq!(stats.shadows_discarded, 0);
        assert_eq!(stats.extents_discarded, 0);
    }
}

// --- slots in one extent: shape, cost and failure ---------------------------

/// A volume over a measured UFS: the disk for block counts, the counters
/// for the vnode calls the physical layer makes on its storage.
fn measured_world() -> (Disk, Arc<OpCounters>, Arc<FicusPhysical>) {
    let disk = Disk::new(Geometry::medium());
    let ufs = Ufs::format(disk.clone(), UfsParams::default()).unwrap();
    let (storage, calls) = MeasureLayer::new(Arc::new(ufs) as Arc<dyn FileSystem>);
    let phys = FicusPhysical::create_volume(
        storage as Arc<dyn FileSystem>,
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock(),
        PhysParams::default(),
    )
    .unwrap();
    (disk, calls, phys)
}

#[test]
fn free_slots_are_taken_lowest_first() {
    let (_ufs, phys) = crash_world(StorageLayout::Tree);
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    let mut data = pattern(5 * 4096, 1);
    phys.write(f, 0, &data).unwrap();
    assert_eq!(slots(&phys.chunk_map(f).unwrap()), vec![0, 1, 2, 3, 4]);
    let mut vv = phys.file_vv(f).unwrap();

    // Two dirty chunks go past the slots the committed map holds...
    data[4096] ^= 1;
    data[3 * 4096] ^= 1;
    vv.increment(2);
    phys.apply_remote_version(f, &vv, &data).unwrap();
    assert_eq!(slots(&phys.chunk_map(f).unwrap()), vec![0, 5, 2, 6, 4]);
    // ...which frees slots 1 and 3 for the next commit, lowest first,
    // whatever order the chunks come in.
    data[4 * 4096] ^= 1;
    data[0] ^= 1;
    vv.increment(2);
    phys.apply_remote_version(f, &vv, &data).unwrap();
    assert_eq!(slots(&phys.chunk_map(f).unwrap()), vec![1, 5, 2, 6, 3]);
    // Local growth takes the lowest free slots too.
    phys.write(f, 5 * 4096, &[7u8; 4097]).unwrap();
    assert_eq!(
        slots(&phys.chunk_map(f).unwrap()),
        vec![1, 5, 2, 6, 3, 0, 4]
    );
    data.extend_from_slice(&[7u8; 4097]);
    assert_eq!(&phys.read(f, 0, data.len()).unwrap()[..], &data[..]);
}

#[test]
fn growth_truncate_and_zero_extend_round_trip_through_slots() {
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        let (ufs, phys) = crash_world(layout);
        let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
        let mut model: Vec<u8> = Vec::new();
        let check = |model: &[u8]| {
            assert_eq!(phys.storage_attr(f).unwrap().size, model.len() as u64);
            assert_eq!(&phys.read(f, 0, model.len() + 9).unwrap()[..], model);
            let map = phys.chunk_map(f).unwrap();
            assert_eq!(ChunkMap::decode(&map.encode()).unwrap(), map);
            // An unaligned read through the middle agrees with the model.
            if model.len() > 5000 {
                let got = phys.read(f, 4000, 3000).unwrap();
                assert_eq!(&got[..], &model[4000..model.len().min(7000)]);
            }
        };

        // Growth in pieces, the last one unaligned.
        for piece in [pattern(4096, 2), pattern(6000, 3), pattern(10, 4)] {
            phys.write(f, model.len() as u64, &piece).unwrap();
            model.extend_from_slice(&piece);
            check(&model);
        }
        // An overwrite inside the file rewrites chunks where they lie.
        let before = slots(&phys.chunk_map(f).unwrap());
        phys.write(f, 4090, &[0xAB; 20]).unwrap();
        model[4090..4110].fill(0xAB);
        check(&model);
        assert_eq!(slots(&phys.chunk_map(f).unwrap()), before);
        // Growth inside the tail chunk needs no new slot.
        phys.write(f, model.len() as u64 - 2, &[0xCD; 50]).unwrap();
        model.truncate(model.len() - 2);
        model.extend_from_slice(&[0xCD; 50]);
        check(&model);
        assert_eq!(slots(&phys.chunk_map(f).unwrap()), before);

        // A write past the end zero-fills the gap.
        phys.write(f, 20_000, b"island").unwrap();
        model.resize(20_000, 0);
        model.extend_from_slice(b"island");
        check(&model);
        // Truncate longer zero-extends; shorter cuts mid-chunk.
        phys.truncate(f, 30_000).unwrap();
        model.resize(30_000, 0);
        check(&model);
        phys.truncate(f, 5000).unwrap();
        model.truncate(5000);
        check(&model);
        let extent = extent_of(&ufs, f);
        assert_eq!(
            extent.getattr(&Credentials::root()).unwrap().size,
            2 * 4096,
            "slots past the last referenced one are given back"
        );
        // Regrowth over the cut reads zeros, not the bytes cut away.
        phys.truncate(f, 9000).unwrap();
        model.resize(9000, 0);
        check(&model);

        // To zero and back: the extent empties and the slots are reused
        // from the bottom.
        phys.truncate(f, 0).unwrap();
        model.clear();
        check(&model);
        assert_eq!(extent.getattr(&Credentials::root()).unwrap().size, 0);
        let rewrite = pattern(3 * 4096 + 1, 5);
        phys.write(f, 0, &rewrite).unwrap();
        model = rewrite;
        check(&model);
        assert_eq!(slots(&phys.chunk_map(f).unwrap()), vec![0, 1, 2, 3]);

        // All of it survives a remount.
        drop(phys);
        let phys2 = remount(&ufs, layout);
        assert_eq!(&phys2.read(f, 0, model.len()).unwrap()[..], &model[..]);
    }
}

#[test]
fn scope_directory_does_not_grow_with_file_size() {
    let (ufs, phys) = crash_world(StorageLayout::Tree);
    let names = |ufs: &Arc<dyn FileSystem>| {
        base_of(ufs)
            .readdir(&Credentials::root(), 0, 10_000)
            .unwrap()
            .len()
    };
    let small = phys.create(ROOT_FILE, "small", VnodeType::Regular).unwrap();
    phys.write(small, 0, b"x").unwrap();
    let with_small = names(&ufs);
    let big = phys.create(ROOT_FILE, "big", VnodeType::Regular).unwrap();
    phys.write(big, 0, &pattern(600 * 4096, 6)).unwrap();
    // Map, extent, aux — whatever the size.
    assert_eq!(names(&ufs), with_small + 3);
    // And a commit leaves no name behind.
    let mut vv = phys.file_vv(big).unwrap();
    vv.increment(2);
    phys.apply_remote_version(big, &vv, &pattern(600 * 4096, 7))
        .unwrap();
    assert_eq!(names(&ufs), with_small + 3);
}

#[test]
fn whole_file_store_is_linear_in_block_writes() {
    // Adoption writes the extent with one UFS call per contiguous slot run
    // and fsyncs it once, so the cost per MiB does not depend on the size.
    let cost = |mib: usize| {
        let (disk, calls, phys) = measured_world();
        let data = pattern(mib << 20, mib as u32);
        let before = disk.stats();
        calls.reset();
        phys.adopt_file(
            ROOT_FILE,
            FicusFileId::new(2, 1),
            VnodeType::Regular,
            &VersionVector::single(2),
            &data,
        )
        .unwrap();
        // One write for the extent, one each for the map and the aux file.
        assert_eq!(calls.get(Op::Write), 3, "{mib} MiB");
        assert_eq!(calls.get(Op::Fsync), 3, "{mib} MiB: extent, map, aux");
        disk.stats().since(before).writes as f64
    };
    let (w1, w4, w16) = (cost(1), cost(4), cost(16));
    for (small, large) in [(w1, w4), (w4, w16)] {
        let ratio = large / small;
        assert!(
            (ratio - 4.0).abs() <= 0.2,
            "4x the bytes must cost 4x the block writes within 5 %: {w1} {w4} {w16}"
        );
    }
    // Data block + allocation bitmap + block pointer per 4 KiB, and little
    // else: under 3.2x the data blocks.
    assert!(w16 <= 3.2 * 4096.0, "16 MiB store wrote {w16} blocks");
}

#[test]
fn delta_commit_costs_its_dirty_chunks_and_the_map() {
    // A k-chunk delta commit of an n-chunk file writes k data blocks, the
    // shadow map, and a constant — and makes the same handful of UFS calls
    // whatever k is: the extent is fsynced once, never per chunk.
    let n = 1024usize;
    let commit = |k: usize| {
        let (disk, calls, phys) = measured_world();
        let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
        let mut data = pattern(n * 4096, 8);
        phys.write(f, 0, &data).unwrap();
        let mut vv = phys.file_vv(f).unwrap();
        let mut cost = (0, 0, 0);
        // The first commit grows the extent by k slots; the second lands in
        // the k slots the first one freed and is the steady state measured.
        for round in 1..=2u8 {
            for chunk in 0..k {
                data[(100 + chunk) * 4096 + 5] = round;
            }
            vv.increment(2);
            phys.storage().sync().unwrap();
            let before = disk.stats();
            calls.reset();
            phys.apply_remote_version(f, &vv, &data).unwrap();
            cost = (
                disk.stats().since(before).writes,
                calls.get(Op::Fsync),
                calls.get(Op::Write),
            );
        }
        assert_eq!(&phys.read(f, 0, data.len()).unwrap()[..], &data[..]);
        cost
    };
    let (w16, fsyncs16, writes16) = commit(16);
    let (w48, fsyncs48, writes48) = commit(48);
    // Extent, shadow map, aux file.
    assert_eq!((fsyncs16, fsyncs48), (3, 3));
    // One contiguous run of dirty chunks in one contiguous run of slots.
    assert_eq!((writes16, writes48), (3, 3));
    // Each further dirty chunk costs exactly its own block.
    assert_eq!(w48 - w16, 32);
    // 1024 entries of 20 bytes are a 6-block map, each block allocated,
    // written, and its predecessor freed; the constant is the shadow's
    // create and rename in the scope directory plus the aux file.
    let map_blocks = (17 + 20 * n as u64).div_ceil(4096);
    assert!(
        w16 <= 16 + 4 * map_blocks + 32,
        "16-chunk delta wrote {w16} blocks"
    );
}

#[test]
fn torn_extent_is_an_error_never_short_data() {
    let (ufs, phys) = crash_world(StorageLayout::Tree);
    let f = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    let data = pattern(8 * 4096, 9);
    phys.write(f, 0, &data).unwrap();
    // The extent loses its last two and a half slots under a live map.
    extent_of(&ufs, f)
        .setattr(
            &Credentials::root(),
            &ficus_vnode::SetAttr::size(5 * 4096 + 2048),
        )
        .unwrap();

    // Slots still whole read normally.
    assert_eq!(&phys.read(f, 4096, 8192).unwrap()[..], &data[4096..12288]);
    // Anything touching a torn or missing slot fails — through the read
    // path, the `;f;blk;` control read, and a whole-file read alike.
    assert_eq!(phys.read(f, 5 * 4096, 10).unwrap_err(), FsError::Io);
    assert_eq!(phys.read(f, 7 * 4096, 10).unwrap_err(), FsError::Io);
    assert_eq!(phys.read(f, 0, data.len()).unwrap_err(), FsError::Io);
    assert_eq!(phys.read_chunk_range(f, 4, 2).unwrap_err(), FsError::Io);
    let cred = Credentials::root();
    let root = PhysFs::new(Arc::clone(&phys)).root();
    let blk = root.lookup(&cred, &format!(";f;blk;{};00000006;00000001", f.hex()));
    assert_eq!(blk.err(), Some(FsError::Io));
    // An overwrite that must read a torn chunk first fails too.
    assert_eq!(phys.write(f, 6 * 4096 + 1, b"x").unwrap_err(), FsError::Io);

    // A map whose extent vanished altogether is torn, not empty.
    base_of(&ufs)
        .remove(&cred, &format!("{}.x", f.hex()))
        .unwrap();
    assert_eq!(phys.read(f, 0, 10).unwrap_err(), FsError::Io);
}

#[test]
fn recovery_discards_an_extent_with_no_map() {
    for layout in [StorageLayout::Tree, StorageLayout::Flat] {
        let (ufs, phys) = crash_world(layout);
        let keep = phys.create(ROOT_FILE, "keep", VnodeType::Regular).unwrap();
        phys.write(keep, 0, &pattern(3 * 4096, 10)).unwrap();
        // An adoption that loses power while filling its extent: slots
        // written, no map yet.
        let ghost = FicusFileId::new(2, 7);
        phys.arm_commit_crash(CommitPoint::MidChunkWrite);
        let crashed = phys.adopt_file(
            ROOT_FILE,
            ghost,
            VnodeType::Regular,
            &VersionVector::single(2),
            &pattern(2 * 4096, 11),
        );
        assert_eq!(crashed.unwrap_err(), FsError::Io);
        let cred = Credentials::root();
        let extent_name = format!("{}.x", ghost.hex());
        assert!(base_of(&ufs).lookup(&cred, &extent_name).is_ok());
        drop(phys);

        let phys2 = remount(&ufs, layout);
        assert_eq!(
            base_of(&ufs).lookup(&cred, &extent_name).err(),
            Some(FsError::NotFound)
        );
        let stats = phys2.chunk_stats();
        assert_eq!(stats.extents_discarded, 1, "{layout:?}: {stats:?}");
        assert_eq!(stats.shadows_discarded, 0, "{layout:?}: {stats:?}");
        // An extent that has its map is, of course, kept.
        assert_eq!(
            &phys2.read(keep, 0, 3 * 4096).unwrap()[..],
            &pattern(3 * 4096, 10)[..]
        );
        // The adoption retries cleanly.
        phys2
            .adopt_file(
                ROOT_FILE,
                ghost,
                VnodeType::Regular,
                &VersionVector::single(2),
                &pattern(2 * 4096, 11),
            )
            .unwrap();
        assert_eq!(
            &phys2.read(ghost, 0, 2 * 4096).unwrap()[..],
            &pattern(2 * 4096, 11)[..]
        );
    }
}

#[test]
fn scan_names_classify_structurally() {
    use super::{classify_scan_name, ScanName};
    let f = FicusFileId::new(3, 0x2a);
    let hex = f.hex();
    assert_eq!(classify_scan_name(&hex), ScanName::Data(f));
    assert_eq!(classify_scan_name(&format!("{hex}.x")), ScanName::Extent(f));
    assert_eq!(classify_scan_name(&format!("{hex}.s")), ScanName::Shadow);
    assert_eq!(classify_scan_name(&format!("{hex}.a")), ScanName::Aux);
    assert_eq!(classify_scan_name(&format!("{hex}.c12")), ScanName::Stash);
    assert_eq!(classify_scan_name(&format!("{hex}.d")), ScanName::Subdir(f));
    assert_eq!(
        classify_scan_name(&format!("{hex}.dir")),
        ScanName::FlatDir(f)
    );
    // Near misses are foreign, never an extent or a stash.
    for odd in [".xx", ".cx", ".c", ".x1", ".k0000000000000001"] {
        assert_eq!(
            classify_scan_name(&format!("{hex}{odd}")),
            ScanName::Foreign,
            "{odd}"
        );
    }
}
