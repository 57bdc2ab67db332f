//! Integration: assembling the paper's Figure-2 stack by hand, including
//! the §7 claim that layers "can indeed be transparently inserted between
//! other layers, and even surround other layers".

use std::sync::Arc;

use ficus_repro::core::access::VnodeAccess;
use ficus_repro::core::ids::{ReplicaId, VolumeName, ROOT_FILE};
use ficus_repro::core::phys::vnode::PhysFs;
use ficus_repro::core::phys::{FicusPhysical, PhysParams};
use ficus_repro::core::recon::reconcile_subtree;
use ficus_repro::net::{HostId, Network, SimClock};
use ficus_repro::nfs::client::{NfsClientFs, NfsClientParams};
use ficus_repro::nfs::server::NfsServer;
use ficus_repro::ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_repro::vnode::measure::{MeasureLayer, Op};
use ficus_repro::vnode::null::NullLayer;
use ficus_repro::vnode::{FileSystem, TimeSource, VnodeType};

fn mk_phys(clock: &Arc<SimClock>, me: u32) -> Arc<FicusPhysical> {
    let ufs = Ufs::format_with_clock(
        Disk::new(Geometry::medium()),
        UfsParams::default(),
        Arc::clone(clock) as Arc<dyn TimeSource>,
    )
    .unwrap();
    FicusPhysical::create_volume(
        Arc::new(ufs),
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(me),
        &[1, 2],
        Arc::clone(clock) as Arc<dyn TimeSource>,
        PhysParams::default(),
    )
    .unwrap()
}

#[test]
fn reconciliation_runs_across_a_real_nfs_transport() {
    // Replica 1 local, replica 2 behind a genuine NFS client/server pair on
    // the simulated network — the paper's exact deployment shape.
    let clock = SimClock::new();
    let net = Network::fully_connected(Arc::clone(&clock));
    let local = mk_phys(&clock, 1);
    let remote = mk_phys(&clock, 2);

    // Export replica 2 and mount it from host 1.
    let server = NfsServer::new(PhysFs::new(Arc::clone(&remote)) as Arc<dyn FileSystem>);
    server.serve(&net, HostId(2));
    let mount = NfsClientFs::mount(
        net.clone(),
        HostId(1),
        HostId(2),
        NfsClientParams::uncached(),
    )
    .unwrap();

    // Work happens at the remote replica.
    let f = remote
        .create(ROOT_FILE, "made-remotely", VnodeType::Regular)
        .unwrap();
    remote.write(f, 0, b"crossed the wire").unwrap();

    // Local reconciles against the remote THROUGH NFS.
    let access = VnodeAccess::new(ReplicaId(2), mount.root());
    let before = net.stats();
    let stats = reconcile_subtree(&local, &access).unwrap();
    let traffic = net.stats().since(before);

    assert_eq!(stats.entries_inserted, 1);
    assert_eq!(&local.read(f, 0, 100).unwrap()[..], b"crossed the wire");
    assert!(traffic.rpcs > 0, "the protocol really used the network");
}

#[test]
fn layers_interpose_transparently_between_nfs_and_physical() {
    // §7: insert a null layer and a measurement layer between the physical
    // layer and the NFS server; nothing above notices, and the measurement
    // layer observes the reconciliation traffic as ordinary vnode calls.
    let clock = SimClock::new();
    let net = Network::fully_connected(Arc::clone(&clock));
    let local = mk_phys(&clock, 1);
    let remote = mk_phys(&clock, 2);

    let stack: Arc<dyn FileSystem> = PhysFs::new(Arc::clone(&remote));
    let stack = NullLayer::stack(stack, 2);
    let (measured, counters) = MeasureLayer::new(stack);
    let server = NfsServer::new(measured);
    server.serve(&net, HostId(2));
    let mount = NfsClientFs::mount(
        net.clone(),
        HostId(1),
        HostId(2),
        NfsClientParams::uncached(),
    )
    .unwrap();

    let f = remote.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    remote.write(f, 0, b"layered").unwrap();

    let access = VnodeAccess::new(ReplicaId(2), mount.root());
    let stats = reconcile_subtree(&local, &access).unwrap();
    assert_eq!(stats.entries_inserted, 1);
    assert_eq!(&local.read(f, 0, 100).unwrap()[..], b"layered");
    // The interposed layer saw the control-plane lookups and data reads.
    // One lookup+read pair fetches the directory
    // (with child attributes) and another pulls the new file's data.
    assert!(counters.get(Op::Lookup) >= 2, "control lookups observed");
    assert!(counters.get(Op::Read) >= 2, "payload reads observed");
}

#[test]
fn bidirectional_nfs_reconciliation_converges_two_hosts() {
    let clock = SimClock::new();
    let net = Network::fully_connected(Arc::clone(&clock));
    let a = mk_phys(&clock, 1);
    let b = mk_phys(&clock, 2);
    for (phys, host) in [(&a, HostId(1)), (&b, HostId(2))] {
        let server = NfsServer::new(PhysFs::new(Arc::clone(phys)) as Arc<dyn FileSystem>);
        server.serve(&net, host);
    }
    let mount_b = NfsClientFs::mount(
        net.clone(),
        HostId(1),
        HostId(2),
        NfsClientParams::default(),
    )
    .unwrap();
    let mount_a = NfsClientFs::mount(
        net.clone(),
        HostId(2),
        HostId(1),
        NfsClientParams::default(),
    )
    .unwrap();

    let fa = a.create(ROOT_FILE, "from-a", VnodeType::Regular).unwrap();
    a.write(fa, 0, b"A").unwrap();
    let fb = b.create(ROOT_FILE, "from-b", VnodeType::Regular).unwrap();
    b.write(fb, 0, b"B").unwrap();

    for _ in 0..3 {
        reconcile_subtree(&a, &VnodeAccess::new(ReplicaId(2), mount_b.root())).unwrap();
        reconcile_subtree(&b, &VnodeAccess::new(ReplicaId(1), mount_a.root())).unwrap();
    }
    assert_eq!(&a.read(fb, 0, 10).unwrap()[..], b"B");
    assert_eq!(&b.read(fa, 0, 10).unwrap()[..], b"A");
}
