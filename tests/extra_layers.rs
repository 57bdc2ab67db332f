//! Integration: the paper's forecast layers (§1 — "performance monitoring,
//! user authentication and encryption") composed with the replication
//! stack, without modifying any existing layer.

use std::sync::Arc;

use ficus_repro::core::access::{LocalAccess, VnodeAccess};
use ficus_repro::core::ids::{ReplicaId, VolumeName, ROOT_FILE};
use ficus_repro::core::phys::vnode::PhysFs;
use ficus_repro::core::phys::{FicusPhysical, PhysParams};
use ficus_repro::core::recon::reconcile_subtree;
use ficus_repro::ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_repro::vnode::authz::{AuthLayer, AuthPolicy};
use ficus_repro::vnode::crypt::CryptLayer;
use ficus_repro::vnode::{Credentials, FileSystem, FsError, LogicalClock, TimeSource, VnodeType};

const KEY: u64 = 0x5EC2_E7F1;

/// Physical layer whose storage is an encryption layer over UFS: replicas
/// hold ciphertext.
fn encrypted_phys(me: u32, disk: Disk) -> (Arc<Ufs>, Arc<FicusPhysical>) {
    let ufs = Arc::new(Ufs::format(disk, UfsParams::default()).unwrap());
    let encrypted = CryptLayer::new(Arc::clone(&ufs) as Arc<dyn FileSystem>, KEY);
    let phys = FicusPhysical::create_volume(
        encrypted,
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(me),
        &[1, 2],
        Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
        PhysParams::default(),
    )
    .unwrap();
    (ufs, phys)
}

#[test]
fn replication_over_encrypted_storage() {
    // NOTE: the crypt layer enciphers every regular UFS file — which, under
    // the Ficus dual mapping, includes the directory-content and auxiliary
    // files. The physical layer cannot tell: it reads what it wrote. Only
    // someone inspecting the raw UFS sees ciphertext.
    let disk = Disk::new(Geometry::medium());
    let (raw_ufs, phys) = encrypted_phys(1, disk);
    let cred = Credentials::root();
    let f = phys
        .create(ROOT_FILE, "secret", VnodeType::Regular)
        .unwrap();
    phys.write(f, 0, b"the plans").unwrap();
    assert_eq!(&phys.read(f, 0, 100).unwrap()[..], b"the plans");

    // The bytes on the raw UFS are NOT the plaintext. Under the block-map
    // layout (DESIGN.md §4.13) `<hex>` holds the chunk map; the data lives
    // in slot 0 of the extent object `<hex>.x` — both ciphertext on disk.
    let base = raw_ufs.root().lookup(&cred, "vol").unwrap();
    let map = phys.chunk_map(f).unwrap();
    assert_eq!(map.chunks.len(), 1);
    assert_eq!(map.chunks[0].slot, 0);
    let stored = base.lookup(&cred, &format!("{}.x", f.hex())).unwrap();
    let raw = stored.read(&cred, 0, 100).unwrap();
    assert_eq!(raw.len(), 9);
    assert_ne!(&raw[..], b"the plans", "storage holds ciphertext");
    let raw_map = base
        .lookup(&cred, &f.hex())
        .unwrap()
        .read(&cred, 0, 100)
        .unwrap();
    assert_ne!(&raw_map[..9.min(raw_map.len())], b"the plans");

    // Reconciliation between two key-holding replicas works unchanged.
    let (_ufs2, phys2) = encrypted_phys(2, Disk::new(Geometry::medium()));
    reconcile_subtree(&phys2, &LocalAccess::new(Arc::clone(&phys))).unwrap();
    assert_eq!(&phys2.read(f, 0, 100).unwrap()[..], b"the plans");
}

#[test]
fn authentication_gates_a_replica_export() {
    // An AuthLayer over the physical export: only admitted principals may
    // reconcile against this replica — the wide-area trust boundary.
    let (_ufs, phys) = encrypted_phys(1, Disk::new(Geometry::medium()));
    let f = phys
        .create(ROOT_FILE, "guarded", VnodeType::Regular)
        .unwrap();
    phys.write(f, 0, b"members only").unwrap();

    let policy = AuthPolicy::new(&[]); // nobody admitted yet
    let gated = AuthLayer::new(
        PhysFs::new(Arc::clone(&phys)) as Arc<dyn FileSystem>,
        Arc::clone(&policy),
    );

    let (_u2, peer) = encrypted_phys(2, Disk::new(Geometry::medium()));
    let access = VnodeAccess::new(ReplicaId(1), gated.root());
    // Unauthenticated reconciliation is refused outright.
    assert_eq!(
        reconcile_subtree(&peer, &access).unwrap_err(),
        FsError::Perm
    );
    // Admit the daemon's identity (VnodeAccess runs as root, uid 0).
    policy.admit(0);
    let stats = reconcile_subtree(&peer, &access).unwrap();
    assert_eq!(stats.entries_inserted, 1);
    assert_eq!(&peer.read(f, 0, 100).unwrap()[..], b"members only");
}

#[test]
fn four_extra_layers_change_nothing_observable() {
    // crypt + auth + crypt⁻¹-equivalent stacking sanity: a doubly wrapped
    // stack (auth over crypt) behaves exactly like the bare stack for an
    // admitted caller — the composability claim of §7, with *stateful*
    // layers this time, not just null ones.
    let ufs = Arc::new(Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap());
    let policy = AuthPolicy::new(&[0]);
    let stack = AuthLayer::new(
        CryptLayer::new(Arc::clone(&ufs) as Arc<dyn FileSystem>, KEY),
        policy,
    );
    let cred = Credentials::root();
    let root = stack.root();
    let d = root.mkdir(&cred, "docs", 0o755).unwrap();
    let f = d.create(&cred, "a.txt", 0o644).unwrap();
    f.write(&cred, 0, b"layer cake").unwrap();
    let peer = stack.root().lookup(&cred, "docs").unwrap();
    d.rename(&cred, "a.txt", &peer, "b.txt").unwrap();
    let g = d.lookup(&cred, "b.txt").unwrap();
    assert_eq!(&g.read(&cred, 0, 100).unwrap()[..], b"layer cake");
    // And the raw storage is still ciphertext.
    let raw = ficus_repro::vnode::api::resolve(&ufs.root(), &cred, "/docs/b.txt").unwrap();
    assert_ne!(&raw.read(&cred, 0, 100).unwrap()[..], b"layer cake");
}
