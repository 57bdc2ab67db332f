//! Propagation tests: notes, the new-version cache, and the daemon's two
//! policies.

use std::sync::Arc;

use ficus_net::SimClock;
use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_vnode::{FsError, TimeSource, VnodeType};
use ficus_vv::VersionVector;

use crate::access::tests::Instrumented;
use crate::access::{LocalAccess, ReplicaAccess};
use crate::conflict::ConflictKind;
use crate::health::{HealthParams, PeerHealth};
use crate::ids::{FicusFileId, ReplicaId, VolumeName, ROOT_FILE};
use crate::phys::{FicusPhysical, PhysParams};
use crate::propagate::{
    run_propagation, run_propagation_with_health, PropagationPolicy, UpdateNote,
};
use crate::recon::{reconcile_file, reconcile_subtree, FileStep, ReconStats};

fn mk_replica(me: u32, clock: &Arc<SimClock>) -> Arc<FicusPhysical> {
    let ufs = Ufs::format_with_clock(
        Disk::new(Geometry::medium()),
        UfsParams::default(),
        Arc::clone(clock) as Arc<dyn TimeSource>,
    )
    .unwrap();
    FicusPhysical::create_volume(
        Arc::new(ufs),
        &format!("vol_r{me}"),
        VolumeName::new(1, 1),
        ReplicaId(me),
        &[1, 2],
        Arc::clone(clock) as Arc<dyn TimeSource>,
        PhysParams::default(),
    )
    .unwrap()
}

fn connect_to(
    target: &Arc<FicusPhysical>,
) -> impl Fn(ReplicaId) -> Result<Box<dyn ReplicaAccess>, FsError> + '_ {
    move |r| {
        if r == target.replica() {
            Ok(Box::new(LocalAccess::new(Arc::clone(target))))
        } else {
            Err(FsError::Unreachable)
        }
    }
}

#[test]
fn note_wire_round_trip() {
    let note = UpdateNote {
        volume: VolumeName::new(3, 4),
        file: FicusFileId::new(5, 6),
        origin: ReplicaId(7),
    };
    assert_eq!(UpdateNote::decode(&note.encode()).unwrap(), note);
    assert!(UpdateNote::decode(b"junk").is_err());
}

/// One way the puller's copy can relate to the origin's when a daemon
/// looks at the file.
struct Relation {
    name: &'static str,
    /// Puts the pair in the relation (both hold the file as "base") and
    /// names the file to look at.
    arrange: fn(&Arc<FicusPhysical>, &Arc<FicusPhysical>, FicusFileId) -> FicusFileId,
    step: FileStep,
    /// Exchanges after the attribute one, by control-name prefix.
    pull: &'static [&'static str],
    /// What the puller reads from the file afterwards (`None`: no copy).
    content: Option<&'static [u8]>,
}

fn diverge(origin: &FicusPhysical, puller: &FicusPhysical, f: FicusFileId, puller_writes: &[u8]) {
    origin.write(f, 0, b"a-side").unwrap();
    puller.write(f, 0, puller_writes).unwrap();
}

const RELATIONS: [Relation; 6] = [
    Relation {
        name: "covered",
        arrange: |_, _, f| f,
        step: FileStep::Current,
        pull: &[],
        content: Some(b"base"),
    },
    Relation {
        name: "dominated",
        arrange: |origin, _, f| {
            origin.write(f, 0, b"v2").unwrap();
            f
        },
        step: FileStep::Applied,
        pull: &[";f;map;", ";f;id;"],
        content: Some(b"v2se"),
    },
    Relation {
        name: "concurrent, new",
        arrange: |origin, puller, f| {
            diverge(origin, puller, f, b"b-side");
            f
        },
        step: FileStep::Stashed,
        pull: &[";f;map;", ";f;id;"],
        content: Some(b"b-side"),
    },
    Relation {
        name: "concurrent, already reported",
        arrange: |origin, puller, f| {
            diverge(origin, puller, f, b"b-side");
            // A subtree pass beat this look to the divergence.
            reconcile_subtree(puller, &LocalAccess::new(Arc::clone(origin))).unwrap();
            f
        },
        step: FileStep::AlreadyReported,
        pull: &[],
        content: Some(b"b-side"),
    },
    Relation {
        name: "concurrent, identical bytes",
        arrange: |origin, puller, f| {
            diverge(origin, puller, f, b"a-side");
            f
        },
        step: FileStep::Absorbed,
        pull: &[";f;map;", ";f;id;"],
        content: Some(b"a-side"),
    },
    Relation {
        name: "not stored here",
        arrange: |origin, _, _| {
            let late = origin
                .create(ROOT_FILE, "late", VnodeType::Regular)
                .unwrap();
            origin.write(late, 0, b"unseen").unwrap();
            late
        },
        step: FileStep::NotStored,
        pull: &[],
        content: None,
    },
];

/// The reconciliation pass and the propagation daemon take one step per
/// file through `reconcile_file_with_attrs`: for every relation, the same
/// exchanges, the same tallies, the same replica state afterwards.
#[test]
fn both_daemons_decide_every_relation_the_same_way() {
    for rel in &RELATIONS {
        let mut tallies = Vec::new();
        for via_propagation in [false, true] {
            let what = format!("{}, via_propagation={via_propagation}", rel.name);
            let clock = SimClock::new();
            let origin = mk_replica(1, &clock);
            let puller = mk_replica(2, &clock);
            let shared = origin
                .create(ROOT_FILE, "shared", VnodeType::Regular)
                .unwrap();
            origin.write(shared, 0, b"base").unwrap();
            reconcile_subtree(&puller, &LocalAccess::new(Arc::clone(&origin))).unwrap();
            let f = (rel.arrange)(&origin, &puller, shared);

            let access = Arc::new(Instrumented::new(LocalAccess::new(Arc::clone(&origin))));
            // (files pulled, conflicts, identical merges, rpcs saved, bytes)
            let tally = if via_propagation {
                puller.note_new_version(f, ReplicaId(1), VersionVector::new());
                let connect = |_| Ok(Box::new(Arc::clone(&access)) as Box<dyn ReplicaAccess>);
                let s = run_propagation(&puller, PropagationPolicy::Immediate, connect).unwrap();
                assert_eq!(s.notes_taken, 1, "{what}");
                assert_eq!(puller.pending_notifications(), 0, "{what}: note consumed");
                assert_eq!(
                    s.already_current,
                    u64::from(rel.step == FileStep::Current),
                    "{what}"
                );
                (
                    s.files_pulled,
                    s.conflicts,
                    s.identical_merges,
                    s.rpcs_saved,
                    s.bytes_fetched,
                )
            } else {
                let mut s = ReconStats::default();
                let step = reconcile_file(&puller, &*access, f, &mut s).unwrap();
                assert_eq!(step, rel.step, "{what}");
                (
                    s.files_pulled,
                    s.update_conflicts,
                    s.identical_merges,
                    s.rpcs_saved,
                    s.bytes_fetched,
                )
            };
            let (pulled, conflicts, merges, saved) = match rel.step {
                FileStep::Applied => (1, 0, 0, 0),
                FileStep::Stashed => (0, 1, 0, 0),
                FileStep::Absorbed => (0, 0, 1, 0),
                // The data fetch a known divergence does not repeat.
                FileStep::AlreadyReported => (0, 0, 0, 1),
                _ => (0, 0, 0, 0),
            };
            assert_eq!(
                (tally.0, tally.1, tally.2, tally.3),
                (pulled, conflicts, merges, saved),
                "{what}"
            );
            assert_eq!(tally.4 > 0, !rel.pull.is_empty(), "{what}: bytes fetched");
            tallies.push(tally);

            let mut asked = access.take_prefixes();
            assert_eq!(asked.remove(0), ";f;vv;", "{what}");
            assert_eq!(asked, rel.pull, "{what}");

            match rel.content {
                Some(want) => assert_eq!(&puller.read(f, 0, 100).unwrap()[..], want, "{what}"),
                None => assert!(puller.file_vv(f).is_err(), "{what}"),
            }
            let reports = puller
                .conflicts()
                .count_kind(ConflictKind::ConcurrentUpdate);
            let stashed = matches!(rel.step, FileStep::Stashed | FileStep::AlreadyReported);
            assert_eq!(
                reports,
                usize::from(stashed),
                "{what}: reported exactly once"
            );
            if stashed {
                // Local content untouched; remote stashed; owner notified.
                assert_eq!(
                    &puller.read_conflict_version(f, ReplicaId(1)).unwrap()[..],
                    b"a-side",
                    "{what}"
                );
                assert!(puller.repl_attrs(f).unwrap().conflict, "{what}");
            }
            if rel.step == FileStep::Applied {
                assert_eq!(puller.file_vv(f).unwrap(), origin.file_vv(f).unwrap());
            }
            if rel.step == FileStep::Absorbed {
                let attrs = puller.repl_attrs(f).unwrap();
                assert!(!attrs.conflict, "{what}: no conflict flagged");
                assert!(
                    attrs.vv.covers(&origin.file_vv(f).unwrap()),
                    "{what}: histories joined in place"
                );
            }
        }
        assert_eq!(tallies[0], tallies[1], "{}: counted differently", rel.name);
    }
}

#[test]
fn delayed_policy_waits_then_coalesces() {
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();

    // A burst of updates, each notified.
    for i in 0..5 {
        a.write(f, 0, format!("burst {i}").as_bytes()).unwrap();
        b.note_new_version(f, ReplicaId(1), VersionVector::new());
    }
    // Too young: a delayed daemon leaves it queued.
    let policy = PropagationPolicy::Delayed(1_000_000);
    let stats = run_propagation(&b, policy, connect_to(&a)).unwrap();
    assert_eq!(stats.notes_taken, 0);
    assert_eq!(b.pending_notifications(), 1, "burst coalesced to one note");
    // After the delay, one pull fetches the final version.
    clock.advance(1_000_001);
    let stats = run_propagation(&b, policy, connect_to(&a)).unwrap();
    assert_eq!(stats.notes_taken, 1);
    assert_eq!(stats.files_pulled, 1);
    assert_eq!(&b.read(f, 0, 10).unwrap()[..], b"burst 4");
}

#[test]
fn unreachable_origin_requeues() {
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();
    a.write(f, 0, b"new").unwrap();
    b.note_new_version(f, ReplicaId(1), VersionVector::new());
    // No connectivity at all.
    let unreachable =
        |_r: ReplicaId| -> Result<Box<dyn ReplicaAccess>, FsError> { Err(FsError::Unreachable) };
    let stats = run_propagation(&b, PropagationPolicy::Immediate, unreachable).unwrap();
    assert_eq!(stats.requeued, 1);
    assert_eq!(b.pending_notifications(), 1);
    // Connectivity returns; the retry succeeds.
    let stats = run_propagation(&b, PropagationPolicy::Immediate, connect_to(&a)).unwrap();
    assert_eq!(stats.files_pulled, 1);
}

#[test]
fn timed_out_origin_requeues_as_transient() {
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();
    a.write(f, 0, b"new").unwrap();
    b.note_new_version(f, ReplicaId(1), VersionVector::new());
    // The origin answers, but too slowly: a timeout, not a partition.
    let too_slow =
        |_r: ReplicaId| -> Result<Box<dyn ReplicaAccess>, FsError> { Err(FsError::TimedOut) };
    let stats = run_propagation(&b, PropagationPolicy::Immediate, too_slow).unwrap();
    assert_eq!(stats.requeued, 1);
    assert_eq!(stats.requeued_timeout, 1, "timeout is the transient bucket");
    assert_eq!(stats.requeued_down, 0);
    assert_eq!(b.pending_notifications(), 1);
}

#[test]
fn backed_off_origin_is_skipped_without_wire_traffic() {
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();
    a.write(f, 0, b"new").unwrap();
    b.note_new_version(f, ReplicaId(1), VersionVector::new());
    // A previous failure armed the origin's backoff window.
    let health = PeerHealth::new(HealthParams::default());
    health.record_failure(ReplicaId(1), clock.now());
    let must_not_connect = |_r: ReplicaId| -> Result<Box<dyn ReplicaAccess>, FsError> {
        panic!("a backed-off origin must never be dialed")
    };
    let stats = run_propagation_with_health(
        &b,
        PropagationPolicy::Immediate,
        Some(&health),
        None,
        must_not_connect,
    )
    .unwrap();
    assert_eq!(stats.peers_skipped, 1, "the open window holds the origin");
    assert_eq!(stats.rpcs_avoided, 1, "one held note, one avoided dial");
    assert_eq!(stats.requeued, 0, "a skip is not a failure");
    assert_eq!(
        b.pending_notifications(),
        1,
        "the note waits for the window"
    );
}

#[test]
fn directory_note_triggers_reconciliation_step() {
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    // Both hold the root; A adds a file and the ROOT directory is notified.
    let f = a
        .create(ROOT_FILE, "brand-new", VnodeType::Regular)
        .unwrap();
    a.write(f, 0, b"hello").unwrap();
    b.note_new_version(ROOT_FILE, ReplicaId(1), VersionVector::new());
    let stats = run_propagation(&b, PropagationPolicy::Immediate, connect_to(&a)).unwrap();
    assert_eq!(stats.dirs_reconciled, 1);
    assert_eq!(&b.read(f, 0, 10).unwrap()[..], b"hello");
}

#[test]
fn directory_note_stats_include_reconciliation_work() {
    // A directory note resolves to a full reconcile_dir step; everything
    // that step pulled, inserted, and tombstoned is this daemon run's work
    // and must show up in its stats — not just the conflict count.
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let old = a.create(ROOT_FILE, "old", VnodeType::Regular).unwrap();
    a.write(old, 0, b"doomed").unwrap();
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();

    // At A: two new files appear, the old one goes away.
    let n1 = a.create(ROOT_FILE, "n1", VnodeType::Regular).unwrap();
    a.write(n1, 0, b"first").unwrap();
    let n2 = a.create(ROOT_FILE, "n2", VnodeType::Regular).unwrap();
    a.write(n2, 0, b"second").unwrap();
    a.remove(ROOT_FILE, "old").unwrap();

    b.note_new_version(ROOT_FILE, ReplicaId(1), VersionVector::new());
    let stats = run_propagation(&b, PropagationPolicy::Immediate, connect_to(&a)).unwrap();
    assert_eq!(stats.dirs_reconciled, 1);
    assert_eq!(stats.entries_inserted, 2);
    assert_eq!(stats.entries_tombstoned, 1);
    assert_eq!(stats.files_pulled, 2);
    assert_eq!(
        stats.bytes_fetched,
        (b"first".len() + b"second".len()) as u64
    );
    assert_eq!(&b.read(n1, 0, 10).unwrap()[..], b"first");
    assert_eq!(&b.read(n2, 0, 10).unwrap()[..], b"second");
    assert!(b.lookup(ROOT_FILE, "old").is_err());
}

#[test]
fn notes_from_one_origin_share_a_bulk_attribute_fetch() {
    // Three due notes from the same origin: the daemon groups them and asks
    // for all three attribute sets in one batch.
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let mut files = Vec::new();
    for i in 0..3 {
        let f = a
            .create(ROOT_FILE, &format!("f{i}"), VnodeType::Regular)
            .unwrap();
        a.write(f, 0, b"v1").unwrap();
        files.push(f);
    }
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();
    for &f in &files {
        a.write(f, 0, b"v2").unwrap();
        b.note_new_version(f, ReplicaId(1), VersionVector::new());
    }
    let stats = run_propagation(&b, PropagationPolicy::Immediate, connect_to(&a)).unwrap();
    assert_eq!(stats.notes_taken, 3);
    assert_eq!(stats.files_pulled, 3);
    assert_eq!(stats.rpcs_saved, 2, "three notes, one attribute batch");
}

#[test]
fn vanished_file_note_is_dropped() {
    let clock = SimClock::new();
    let a = mk_replica(1, &clock);
    let b = mk_replica(2, &clock);
    let f = a.create(ROOT_FILE, "brief", VnodeType::Regular).unwrap();
    reconcile_subtree(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();
    a.write(f, 0, b"v").unwrap();
    b.note_new_version(f, ReplicaId(1), VersionVector::new());
    // The file disappears at the origin before the pull.
    a.remove(ROOT_FILE, "brief").unwrap();
    let stats = run_propagation(&b, PropagationPolicy::Immediate, connect_to(&a)).unwrap();
    assert_eq!(stats.files_pulled, 0);
    assert_eq!(b.pending_notifications(), 0, "note dropped, not requeued");
}
