//! Integration: the replica-access protocol end to end — control-name
//! exchanges over a real NFS client/server pair pinned per case and checked
//! against the in-memory access, transient-failure retry, a link dying
//! mid-pull, requeue accounting across partitions, and convergence under
//! datagram loss. Companion to E5b/E7b, which measure the same exchanges
//! against ideal at scale.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use ficus_repro::core::access::{LocalAccess, ReplicaAccess, VnodeAccess};
use ficus_repro::core::ids::{ReplicaId, VolumeName, ROOT_FILE};
use ficus_repro::core::phys::vnode::PhysFs;
use ficus_repro::core::phys::{FicusPhysical, PhysParams};
use ficus_repro::core::propagate::{run_propagation, PropagationPolicy};
use ficus_repro::core::recon::{reconcile_dir, reconcile_subtree};
use ficus_repro::core::sim::{FicusWorld, WorldParams};
use ficus_repro::net::{HostId, Network, NetworkParams, SimClock};
use ficus_repro::nfs::client::{NfsClientFs, NfsClientParams};
use ficus_repro::nfs::server::NfsServer;
use ficus_repro::nfs::wire::{Reply, Request};
use ficus_repro::ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_repro::vnode::{Credentials, FileSystem, FsError, TimeSource, VnodeType};
use ficus_vv::VersionVector;

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

/// An NFS export of `remote` behind a proxy that logs the control names of
/// every exchange (one entry per `LookupReadMany` *request*; a retried
/// request is one exchange) and, once `dead` is set, times every request out.
struct LoggedExport {
    net: Network,
    log: Arc<Mutex<Vec<Vec<String>>>>,
    dead: Arc<AtomicBool>,
    /// When set, serving an attribute batch is the link's last act.
    dies_after_attrs: Arc<AtomicBool>,
}

impl LoggedExport {
    fn serve(clock: &Arc<SimClock>, remote: &Arc<FicusPhysical>) -> Self {
        let net = Network::fully_connected(Arc::clone(clock));
        let server = NfsServer::new(PhysFs::new(Arc::clone(remote)) as Arc<dyn FileSystem>);
        let log = Arc::new(Mutex::new(Vec::<Vec<String>>::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let dies_after_attrs = Arc::new(AtomicBool::new(false));
        let (log2, dead2, dies2) = (
            Arc::clone(&log),
            Arc::clone(&dead),
            Arc::clone(&dies_after_attrs),
        );
        net.register_rpc(
            HostId(2),
            "logged-nfs",
            Arc::new(move |_from, request| {
                let was_dead = dead2.load(Ordering::SeqCst);
                if let Ok((_, Request::LookupReadMany(_, names))) = Request::decode(request) {
                    if names[0].starts_with(";f;vv;") && dies2.load(Ordering::SeqCst) {
                        dead2.store(true, Ordering::SeqCst);
                    }
                    let mut log = log2.lock().unwrap();
                    if log.last() != Some(&names) {
                        log.push(names);
                    }
                }
                if was_dead {
                    return Err(FsError::TimedOut);
                }
                Ok(server.handle_wire(request))
            }),
        );
        LoggedExport {
            net,
            log,
            dead,
            dies_after_attrs,
        }
    }

    fn access(&self) -> VnodeAccess {
        let mount = NfsClientFs::mount_service(
            self.net.clone(),
            HostId(1),
            HostId(2),
            "logged-nfs",
            NfsClientParams::uncached(),
        )
        .unwrap();
        VnodeAccess::new(ReplicaId(2), mount.root())
    }

    /// Drains the log: each exchange so far as the `;f;<kind>;` prefix of
    /// its first name plus how many names it carried.
    fn take(&self) -> Vec<(String, usize)> {
        std::mem::take(&mut *self.log.lock().unwrap())
            .iter()
            .map(|names| {
                let prefix = names[0].split_inclusive(';').take(3).collect();
                (prefix, names.len())
            })
            .collect()
    }
}

fn exchange(prefix: &str) -> (String, usize) {
    (prefix.to_owned(), 1)
}

/// The same divergence reconciled through the in-memory access (the
/// reference) and over NFS: identical tallies, identical replica state, and
/// over the wire one exchange per directory plus one per adopted file.
#[test]
fn nfs_reconciliation_matches_the_in_memory_reference() {
    const FILES: usize = 30;
    let clock = SimClock::new();
    let remote = mk_phys(&clock, 2);
    for i in 0..FILES {
        let f = remote
            .create(ROOT_FILE, &format!("file-{i:02}"), VnodeType::Regular)
            .unwrap();
        remote
            .write(f, 0, format!("contents of {i}").as_bytes())
            .unwrap();
    }
    let export = LoggedExport::serve(&clock, &remote);

    let reference = mk_phys(&clock, 1);
    let want = reconcile_subtree(&reference, &LocalAccess::new(Arc::clone(&remote))).unwrap();
    assert_eq!(want.entries_inserted, FILES as u64);
    assert_eq!(want.files_pulled, FILES as u64);

    let local = mk_phys(&clock, 1);
    let before = export.net.stats();
    let got = reconcile_subtree(&local, &export.access()).unwrap();
    assert_eq!(got, want, "same tallies as the reference");
    for e in remote.dir_entries(ROOT_FILE).unwrap().live() {
        assert_eq!(local.file_vv(e.file), reference.file_vv(e.file));
        assert_eq!(local.read(e.file, 0, 100), reference.read(e.file, 0, 100));
        assert_eq!(local.read(e.file, 0, 100), remote.read(e.file, 0, 100));
    }
    assert_eq!(
        local.dir_entries(ROOT_FILE).unwrap().entries,
        reference.dir_entries(ROOT_FILE).unwrap().entries
    );

    // The mount handshake, the directory, and each adopted file: nothing else.
    assert_eq!(export.net.stats().since(before).rpcs, 1 + 1 + FILES as u64);
    let mut asked = export.take();
    assert_eq!(asked.remove(0), exchange(";f;dirx;"));
    assert_eq!(asked, vec![exchange(";f;id;"); FILES]);
    assert!(got.rpcs_saved > 0);
}

/// Exchanges per case over NFS, pinned: a directory is one `;f;dirx;`, an
/// adopted file one whole-file read, a stored file of at most two chunks
/// the map and then the whole file, and a 16-chunk file with k dirty runs
/// the map and then all k ranges in one exchange — two, whatever k is.
#[test]
fn exchanges_per_case_over_nfs() {
    let clock = SimClock::new();
    let remote = mk_phys(&clock, 2);
    let local = mk_phys(&clock, 1);
    let export = LoggedExport::serve(&clock, &remote);
    let access = export.access();

    let small = remote
        .create(ROOT_FILE, "small", VnodeType::Regular)
        .unwrap();
    remote.write(small, 0, &[1u8; 4096 + 100]).unwrap();
    let big = remote.create(ROOT_FILE, "big", VnodeType::Regular).unwrap();
    remote.write(big, 0, &[2u8; 16 * 4096]).unwrap();

    // Adoption knows there is no local copy: no map exchange.
    let stats = reconcile_dir(&local, &access, ROOT_FILE).unwrap();
    assert_eq!(stats.files_pulled, 2);
    assert_eq!(
        export.take(),
        [exchange(";f;dirx;"), exchange(";f;id;"), exchange(";f;id;")]
    );

    // A quiescent directory is its one exchange.
    assert!(reconcile_dir(&local, &access, ROOT_FILE)
        .unwrap()
        .quiescent());
    assert_eq!(export.take(), [exchange(";f;dirx;")]);

    // Stored files, updated at the remote: the small one in full, the big
    // one in k = 1, 2, 3 separate dirty runs.
    for k in 1..=3usize {
        remote.write(small, 0, &[k as u8; 10]).unwrap();
        for run in 0..k {
            remote
                .write(big, (4 * run as u64 + 1) * 4096, &[10 + k as u8; 4097])
                .unwrap();
        }
        let stats = reconcile_dir(&local, &access, ROOT_FILE).unwrap();
        assert_eq!(stats.files_pulled, 2);
        assert_eq!(
            (stats.blocks_shipped, stats.blocks_reused),
            (2 * k as u64, 16 - 2 * k as u64)
        );
        let mut want = vec![
            exchange(";f;dirx;"),
            exchange(";f;map;"),
            exchange(";f;id;"),
            exchange(";f;map;"),
        ];
        want.push((";f;blk;".to_owned(), k));
        assert_eq!(export.take(), want, "k = {k}");
        assert_eq!(
            local.read(big, 0, 16 * 4096),
            remote.read(big, 0, 16 * 4096)
        );
        assert_eq!(local.read(small, 0, 8192), remote.read(small, 0, 8192));
    }

    // n questions of one kind are still one exchange.
    let attrs = (&access as &dyn ReplicaAccess)
        .attrs(&[small, big])
        .unwrap();
    assert_eq!(attrs.len(), 2);
    assert_eq!(export.take(), [(";f;vv;".to_owned(), 2)]);
}

/// A link that dies after the attribute exchange is hit once by the pull,
/// not a second time by a whole-file attempt, and the note waits for it.
#[test]
fn a_link_dying_mid_pull_costs_one_failed_exchange_and_requeues_the_note() {
    let clock = SimClock::new();
    let remote = mk_phys(&clock, 2);
    let local = mk_phys(&clock, 1);
    let export = LoggedExport::serve(&clock, &remote);
    let f = remote.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    remote.write(f, 0, b"v1").unwrap();
    reconcile_subtree(&local, &export.access()).unwrap();
    remote.write(f, 0, b"v2").unwrap();
    local.note_new_version(f, ReplicaId(2), VersionVector::new());
    export.take();

    let connect = |_| Ok(Box::new(export.access()) as Box<dyn ReplicaAccess>);
    export.dies_after_attrs.store(true, Ordering::SeqCst);
    let stats = run_propagation(&local, PropagationPolicy::Immediate, connect).unwrap();
    assert_eq!(
        export.take(),
        [exchange(";f;vv;"), exchange(";f;map;")],
        "the dead link was not tried again for the whole file"
    );
    assert_eq!(stats.files_pulled, 0);
    assert_eq!((stats.requeued, stats.requeued_timeout), (1, 1));
    assert_eq!(local.pending_notifications(), 1, "note survives for retry");

    // The link returns; the requeued note is drained.
    export.dies_after_attrs.store(false, Ordering::SeqCst);
    export.dead.store(false, Ordering::SeqCst);
    let stats = run_propagation(&local, PropagationPolicy::Immediate, connect).unwrap();
    assert_eq!(stats.files_pulled, 1);
    assert_eq!(&local.read(f, 0, 10).unwrap()[..], b"v2");
}

/// A transient server-side timeout on the bulk RPC is absorbed by the
/// client's bounded retry; reconciliation completes on the second attempt.
#[test]
fn bulk_rpc_retries_after_transient_timeout() {
    let clock = SimClock::new();
    let net = Network::fully_connected(Arc::clone(&clock));
    let remote = mk_phys(&clock, 2);
    let f = remote.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    remote.write(f, 0, b"eventually").unwrap();

    // A proxy service that times out the FIRST bulk request, then behaves.
    let server = NfsServer::new(PhysFs::new(Arc::clone(&remote)) as Arc<dyn FileSystem>);
    let failed_once = Arc::new(AtomicBool::new(false));
    {
        let server = Arc::clone(&server);
        let failed_once = Arc::clone(&failed_once);
        net.register_rpc(
            HostId(2),
            "flaky-nfs",
            Arc::new(move |_from, request| {
                if let Ok((_, Request::LookupReadMany(..))) = Request::decode(request) {
                    if !failed_once.swap(true, Ordering::SeqCst) {
                        return Ok(Reply::encode(&Err(FsError::TimedOut)));
                    }
                }
                Ok(server.handle_wire(request))
            }),
        );
    }
    let mount = NfsClientFs::mount_service(
        net.clone(),
        HostId(1),
        HostId(2),
        "flaky-nfs",
        NfsClientParams::uncached(),
    )
    .unwrap();

    let local = mk_phys(&clock, 1);
    let stats = reconcile_subtree(&local, &VnodeAccess::new(ReplicaId(2), mount.root())).unwrap();
    assert!(
        failed_once.load(Ordering::SeqCst),
        "the fault was exercised"
    );
    assert_eq!(stats.entries_inserted, 1);
    assert_eq!(&local.read(f, 0, 100).unwrap()[..], b"eventually");
}

/// Notes that cannot reach their origin during a partition are requeued —
/// all of them, exactly once — and drained after the heal.
#[test]
fn propagation_requeues_across_a_partition_and_recovers() {
    let world = FicusWorld::new(WorldParams {
        hosts: 2,
        root_replica_hosts: vec![1, 2],
        ..WorldParams::default()
    });
    let vol = world.root_volume();
    let cred = Credentials::root();
    let root = world.logical(HostId(1)).root();
    root.create(&cred, "f", 0o644)
        .unwrap()
        .write(&cred, 0, b"v1")
        .unwrap();
    world.settle();

    // Replica 1 updates three files; replica 2 hears about them.
    let p1 = world.phys(HostId(1), vol).unwrap();
    let p2 = world.phys(HostId(2), vol).unwrap();
    let f = p1
        .dir_entries(ROOT_FILE)
        .unwrap()
        .live()
        .next()
        .unwrap()
        .file;
    p1.write(f, 0, b"v2").unwrap();
    p2.note_new_version(f, ReplicaId(1), VersionVector::new());

    // The partition lands before the daemon can pull.
    world.partition(&[&[HostId(1)], &[HostId(2)]]);
    let stats = world.run_propagation(HostId(2)).unwrap();
    assert_eq!(stats.notes_taken, 1);
    assert_eq!(stats.requeued, 1, "unreachable origin must requeue");
    assert_eq!(stats.requeued_down, 1, "partition reads as a down peer");
    assert_eq!(stats.files_pulled, 0);
    assert_eq!(p2.pending_notifications(), 1, "note survives for retry");

    // Mid-partition, subtree reconciliation at host 1 sees its own new
    // state as missing from no one — the unreachable peer is skipped, and
    // nothing is lost.
    let recon_stats = world.run_reconciliation(HostId(1)).unwrap();
    assert_eq!(recon_stats.dirs_examined, 0, "partitioned peer skipped");
    assert!(
        recon_stats.peers_failed >= 1,
        "a retry-worthy peer lost to the partition is accounted"
    );

    world.heal();

    // The failed exchange armed host 1's backoff window for replica 2:
    // the next pass holds off without wire traffic, and says so.
    let backed_off = world.run_reconciliation(HostId(1)).unwrap();
    assert!(backed_off.peers_skipped >= 1, "open window skips the peer");
    assert!(backed_off.rpcs_avoided >= 1, "each skip avoids an exchange");
    assert_eq!(backed_off.peers_failed, 0, "a skip is not a failure");
    // The failed pull armed replica 1's backoff window on host 2; until it
    // passes the daemon holds the note without touching the wire.
    let stats = world.run_propagation(HostId(2)).unwrap();
    assert_eq!(stats.notes_taken, 0, "note gated by the backoff window");
    assert_eq!(p2.pending_notifications(), 1);
    let retry_at = world
        .health(HostId(2))
        .unwrap()
        .next_attempt_at(ReplicaId(1));
    world.clock().advance_to(retry_at);
    let stats = world.run_propagation(HostId(2)).unwrap();
    assert_eq!(stats.notes_taken, 1);
    assert_eq!(stats.requeued, 0);
    assert_eq!(stats.files_pulled, 1);
    assert_eq!(&p2.read(f, 0, 10).unwrap()[..], b"v2");
    assert_eq!(p2.pending_notifications(), 0);
}

/// Divergence under datagram loss plus a mid-run partition: notifications
/// may vanish, but the periodic subtree protocol converges the replicas
/// regardless, and the accounting distinguishes "peer didn't have it yet"
/// (`remote_missing`) from real work.
#[test]
fn convergence_despite_datagram_loss_and_partition() {
    let world = FicusWorld::new(WorldParams {
        hosts: 3,
        root_replica_hosts: vec![1, 2, 3],
        net: NetworkParams {
            datagram_loss: 0.4,
            seed: 0x5EED,
            ..NetworkParams::default()
        },
        ..WorldParams::default()
    });
    let vol = world.root_volume();
    let cred = Credentials::root();

    // Activity at every host, under loss.
    for h in [1u32, 2, 3] {
        let root = world.logical(HostId(h)).root();
        let name = format!("from-{h}");
        root.create(&cred, &name, 0o644)
            .unwrap()
            .write(&cred, 0, format!("host {h} speaking").as_bytes())
            .unwrap();
    }
    world.deliver_notifications(); // some are dropped by the loss model

    // Mid-run partition: host 3 is cut off while 1 and 2 exchange state.
    world.partition(&[&[HostId(1), HostId(2)], &[HostId(3)]]);
    // Host 1 reconciles against whoever it can reach; its own new file is
    // one the reachable peer lacks, so the pass reports it missing there.
    let stats = world.run_reconciliation(HostId(1)).unwrap();
    assert!(stats.dirs_examined >= 1);
    assert!(
        stats.remote_missing >= 1,
        "host 2 does not have host 1's file yet: {stats:?}"
    );

    // More activity while split.
    world
        .logical(HostId(3))
        .root()
        .create(&cred, "during-partition", 0o644)
        .unwrap()
        .write(&cred, 0, b"isolated work")
        .unwrap();

    world.heal();
    world.settle();

    // Every replica holds every file with identical bytes.
    for name in ["from-1", "from-2", "from-3", "during-partition"] {
        let mut bodies = Vec::new();
        for h in [1u32, 2, 3] {
            let p = world.phys(HostId(h), vol).unwrap();
            let e = p
                .dir_entries(ROOT_FILE)
                .unwrap()
                .live()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("{name} missing at host {h}"))
                .clone();
            let size = p.storage_attr(e.file).unwrap().size as usize;
            bodies.push(p.read(e.file, 0, size).unwrap().to_vec());
        }
        assert_eq!(bodies[0], bodies[1], "{name} differs between hosts 1/2");
        assert_eq!(bodies[1], bodies[2], "{name} differs between hosts 2/3");
    }
}
