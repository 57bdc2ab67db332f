//! Reconciliation tests: two and three replicas diverge and converge.

use std::sync::Arc;

use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_vnode::{FileSystem, LogicalClock, TimeSource, VnodeType};

use crate::access::tests::Instrumented;
use crate::access::{LocalAccess, VnodeAccess};
use crate::conflict::ConflictKind;
use crate::ids::{FicusFileId, ReplicaId, VolumeName, ROOT_FILE};
use crate::phys::vnode::PhysFs;
use crate::phys::{FicusPhysical, PhysParams, StorageLayout};
use crate::recon::{reconcile_file, reconcile_subtree, ReconStats};

fn mk_replica(me: u32, all: &[u32]) -> Arc<FicusPhysical> {
    let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
    FicusPhysical::create_volume(
        Arc::new(ufs),
        &format!("vol_r{me}"),
        VolumeName::new(1, 1),
        ReplicaId(me),
        all,
        Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
        PhysParams::default(),
    )
    .unwrap()
}

fn pair() -> (Arc<FicusPhysical>, Arc<FicusPhysical>) {
    (mk_replica(1, &[1, 2]), mk_replica(2, &[1, 2]))
}

/// Reconciles both directions until quiescent (like the periodic daemon).
fn converge(replicas: &[&Arc<FicusPhysical>]) -> ReconStats {
    let mut total = ReconStats::default();
    for _ in 0..8 {
        let mut round = ReconStats::default();
        for local in replicas {
            for remote in replicas {
                if Arc::ptr_eq(local, remote) {
                    continue;
                }
                let access = LocalAccess::new(Arc::clone(remote));
                round.absorb(reconcile_subtree(local, &access).unwrap());
            }
        }
        let quiescent = round.quiescent();
        total.absorb(round);
        if quiescent {
            return total;
        }
    }
    panic!("replicas failed to converge within 8 rounds");
}

/// Asserts two replicas expose identical logical content.
fn assert_same_tree(a: &FicusPhysical, b: &FicusPhysical) {
    fn walk(
        p: &FicusPhysical,
        dir: FicusFileId,
        out: &mut Vec<(String, Option<Vec<u8>>)>,
        prefix: &str,
    ) {
        let d = p.dir_entries(dir).unwrap();
        let mut live: Vec<_> = d.live().cloned().collect();
        live.sort_by_key(|e| (e.name.clone(), e.id));
        for e in live {
            let path = format!("{prefix}/{}", e.name);
            if e.kind.is_directory_like() {
                out.push((path.clone(), None));
                walk(p, e.file, out, &path);
            } else {
                let size = p.storage_attr(e.file).unwrap().size as usize;
                let data = p.read(e.file, 0, size).unwrap().to_vec();
                out.push((path, Some(data)));
            }
        }
    }
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    walk(a, ROOT_FILE, &mut ta, "");
    walk(b, ROOT_FILE, &mut tb, "");
    assert_eq!(ta, tb);
}

#[test]
fn empty_replicas_are_quiescent() {
    let (a, b) = pair();
    let stats = reconcile_subtree(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
    assert!(stats.quiescent());
    assert_eq!(stats.dirs_examined, 1);
}

#[test]
fn remote_create_is_adopted_with_data() {
    let (a, b) = pair();
    let f = b.create(ROOT_FILE, "news", VnodeType::Regular).unwrap();
    b.write(f, 0, b"from b with love").unwrap();
    let stats = reconcile_subtree(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
    assert_eq!(stats.entries_inserted, 1);
    assert_eq!(stats.files_pulled, 1);
    assert_eq!(&a.read(f, 0, 100).unwrap()[..], b"from b with love");
    converge(&[&a, &b]);
    assert_same_tree(&a, &b);
}

#[test]
fn remote_subtree_is_adopted_recursively() {
    let (a, b) = pair();
    let d1 = b.mkdir(ROOT_FILE, "deep").unwrap();
    let d2 = b.mkdir(d1, "deeper").unwrap();
    let f = b.create(d2, "leaf", VnodeType::Regular).unwrap();
    b.write(f, 0, b"leaf data").unwrap();
    converge(&[&a, &b]);
    assert_eq!(a.lookup(d2, "leaf").unwrap().file, f);
    assert_eq!(&a.read(f, 0, 100).unwrap()[..], b"leaf data");
    assert_same_tree(&a, &b);
}

// The per-relation file cases (covered, dominated, concurrent and its
// variants, not stored here) are one table driven through both daemons:
// `propagate::tests::both_daemons_decide_every_relation_the_same_way`.

#[test]
fn conflict_resolution_then_propagation() {
    let (a, b) = pair();
    let f = a.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    converge(&[&a, &b]);
    a.write(f, 0, b"a!").unwrap();
    b.write(f, 0, b"b!").unwrap();
    let mut stats = ReconStats::default();
    reconcile_file(&a, &LocalAccess::new(Arc::clone(&b)), f, &mut stats).unwrap();
    assert_eq!(stats.update_conflicts, 1);
    // Owner resolves at A (keeps A's content, merges histories, +1 update).
    let b_vv = b.file_vv(f).unwrap();
    a.resolve_conflict(f, &b_vv).unwrap();
    // Now A dominates: B pulls A's resolution.
    let mut stats = ReconStats::default();
    reconcile_file(&b, &LocalAccess::new(Arc::clone(&a)), f, &mut stats).unwrap();
    assert_eq!(stats.files_pulled, 1);
    assert_eq!(&b.read(f, 0, 10).unwrap()[..], b"a!");
    assert_eq!(a.file_vv(f).unwrap(), b.file_vv(f).unwrap());
}

#[test]
fn remote_remove_is_applied_and_gc_runs() {
    let (a, b) = pair();
    let f = a.create(ROOT_FILE, "doomed", VnodeType::Regular).unwrap();
    a.write(f, 0, b"bye").unwrap();
    converge(&[&a, &b]);
    b.remove(ROOT_FILE, "doomed").unwrap();
    let stats = reconcile_subtree(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
    assert_eq!(stats.entries_tombstoned, 1);
    assert!(a.lookup(ROOT_FILE, "doomed").is_err());
    // Storage reclaimed at A (the delete covered all local updates).
    assert!(a.file_vv(f).is_err());
    let gc = converge(&[&a, &b]);
    assert_same_tree(&a, &b);
    // Tombstone fully GC'd on both replicas, and the two-phase purge is
    // accounted.
    assert!(gc.tombstones_purged >= 1, "purges must be counted");
    assert!(a.dir_entries(ROOT_FILE).unwrap().entries.is_empty());
    assert!(b.dir_entries(ROOT_FILE).unwrap().entries.is_empty());
}

#[test]
fn remove_update_conflict_preserves_data() {
    let (a, b) = pair();
    let f = a
        .create(ROOT_FILE, "contested", VnodeType::Regular)
        .unwrap();
    a.write(f, 0, b"v1").unwrap();
    converge(&[&a, &b]);
    // Partition: B removes, A updates.
    b.remove(ROOT_FILE, "contested").unwrap();
    a.write(f, 0, b"v2 that must not vanish").unwrap();
    let _ = reconcile_subtree(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
    // The name is gone (the delete wins the name space)...
    assert!(a.lookup(ROOT_FILE, "contested").is_err());
    // ...but the updated bytes survive in the orphanage, and the owner is
    // told.
    assert_eq!(a.conflicts().count_kind(ConflictKind::RemoveUpdate), 1);
    assert_eq!(a.orphans().unwrap(), vec![f]);
}

#[test]
fn concurrent_same_name_creates_survive_on_both() {
    let (a, b) = pair();
    let fa = a
        .create(ROOT_FILE, "paper.tex", VnodeType::Regular)
        .unwrap();
    a.write(fa, 0, b"version A").unwrap();
    let fb = b
        .create(ROOT_FILE, "paper.tex", VnodeType::Regular)
        .unwrap();
    b.write(fb, 0, b"version B").unwrap();
    converge(&[&a, &b]);
    // Both files exist on both replicas; primary is deterministic.
    for p in [&a, &b] {
        let d = p.dir_entries(ROOT_FILE).unwrap();
        assert_eq!(d.named("paper.tex").len(), 2);
        assert_eq!(&p.read(fa, 0, 100).unwrap()[..], b"version A");
        assert_eq!(&p.read(fb, 0, 100).unwrap()[..], b"version B");
    }
    assert_same_tree(&a, &b);
}

#[test]
fn partitioned_renames_of_directory_yield_both_names() {
    // Paper §2.5 footnote 3, end to end at the physical layer.
    let (a, b) = pair();
    let d = a.mkdir(ROOT_FILE, "proj").unwrap();
    let f = a.create(d, "notes", VnodeType::Regular).unwrap();
    a.write(f, 0, b"content").unwrap();
    converge(&[&a, &b]);
    a.rename(ROOT_FILE, "proj", ROOT_FILE, "proj-alpha")
        .unwrap();
    b.rename(ROOT_FILE, "proj", ROOT_FILE, "proj-beta").unwrap();
    converge(&[&a, &b]);
    for p in [&a, &b] {
        assert!(p.lookup(ROOT_FILE, "proj").is_err());
        assert_eq!(p.lookup(ROOT_FILE, "proj-alpha").unwrap().file, d);
        assert_eq!(p.lookup(ROOT_FILE, "proj-beta").unwrap().file, d);
        // Same directory through either name.
        assert_eq!(p.lookup(d, "notes").unwrap().file, f);
    }
    assert_same_tree(&a, &b);
}

#[test]
fn three_replicas_converge_through_pairwise_recon() {
    let a = mk_replica(1, &[1, 2, 3]);
    let b = mk_replica(2, &[1, 2, 3]);
    let c = mk_replica(3, &[1, 2, 3]);
    let fa = a.create(ROOT_FILE, "from-a", VnodeType::Regular).unwrap();
    a.write(fa, 0, b"A").unwrap();
    let fb = b.create(ROOT_FILE, "from-b", VnodeType::Regular).unwrap();
    b.write(fb, 0, b"B").unwrap();
    let dc = c.mkdir(ROOT_FILE, "from-c").unwrap();
    c.create(dc, "inner", VnodeType::Regular).unwrap();
    converge(&[&a, &b, &c]);
    assert_same_tree(&a, &b);
    assert_same_tree(&b, &c);
    for p in [&a, &b, &c] {
        assert!(p.lookup(ROOT_FILE, "from-a").is_ok());
        assert!(p.lookup(ROOT_FILE, "from-b").is_ok());
        assert!(p.lookup(ROOT_FILE, "from-c").is_ok());
    }
}

#[test]
fn reconciliation_works_through_the_vnode_interface() {
    // The same protocol with the remote accessed as a vnode stack (what
    // NFS transports): LocalAccess and VnodeAccess must be interchangeable.
    let (a, b) = pair();
    let f = b
        .create(ROOT_FILE, "via-vnode", VnodeType::Regular)
        .unwrap();
    b.write(f, 0, b"remote bytes").unwrap();
    let access = VnodeAccess::new(ReplicaId(2), PhysFs::new(Arc::clone(&b)).root());
    let stats = reconcile_subtree(&a, &access).unwrap();
    assert_eq!(stats.entries_inserted, 1);
    assert_eq!(&a.read(f, 0, 100).unwrap()[..], b"remote bytes");
}

#[test]
fn graft_points_reconcile_like_directories() {
    // §4.3/§7: graft-point replica lists are directory entries, so the
    // directory machinery replicates them with no special code.
    let (a, b) = pair();
    let target = VolumeName::new(9, 9);
    let g = a.make_graft_point(ROOT_FILE, "src", target).unwrap();
    a.graft_add_replica(g, ReplicaId(1), 10).unwrap();
    converge(&[&a, &b]);
    // B learned the graft point, its target, and the replica list.
    assert_eq!(b.graft_target(g).unwrap(), target);
    assert_eq!(b.graft_replicas(g).unwrap(), vec![(ReplicaId(1), 10)]);
    // Partitioned additions to the replica list merge cleanly.
    a.graft_add_replica(g, ReplicaId(2), 20).unwrap();
    b.graft_add_replica(g, ReplicaId(3), 30).unwrap();
    converge(&[&a, &b]);
    let pairs = a.graft_replicas(g).unwrap();
    assert_eq!(
        pairs,
        vec![(ReplicaId(1), 10), (ReplicaId(2), 20), (ReplicaId(3), 30)]
    );
    assert_eq!(b.graft_replicas(g).unwrap(), pairs);
}

#[test]
fn flat_layout_reconciles_identically() {
    let mk = |me: u32| {
        let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
        FicusPhysical::create_volume(
            Arc::new(ufs),
            &format!("flat_r{me}"),
            VolumeName::new(1, 1),
            ReplicaId(me),
            &[1, 2],
            Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
            PhysParams {
                layout: StorageLayout::Flat,
                ..PhysParams::default()
            },
        )
        .unwrap()
    };
    let a = mk(1);
    let b = mk(2);
    let d = a.mkdir(ROOT_FILE, "dir").unwrap();
    let f = a.create(d, "file", VnodeType::Regular).unwrap();
    a.write(f, 0, b"flat world").unwrap();
    converge(&[&a, &b]);
    assert_eq!(&b.read(f, 0, 100).unwrap()[..], b"flat world");
    assert_same_tree(&a, &b);
}

/// The directories a pass fetched, in order, and how many exchanges carried
/// file contents — read off the control names [`Instrumented`] logged.
fn dirs_and_data_fetches<A: crate::access::ReplicaAccess>(
    access: &Instrumented<A>,
) -> (Vec<FicusFileId>, usize) {
    let names: Vec<String> = access.take().into_iter().flatten().collect();
    let dirs = names
        .iter()
        .filter_map(|n| n.strip_prefix(";f;dirx;"))
        .map(|hex| FicusFileId::from_hex(hex).unwrap())
        .collect();
    let data = names
        .iter()
        .filter(|n| n.starts_with(";f;id;") || n.starts_with(";f;blk;"))
        .count();
    (dirs, data)
}

#[test]
fn subtree_reconciliation_visits_breadth_first() {
    // Two directories at depth 1, each with a subdirectory at depth 2. A
    // breadth-first sweep must finish depth 1 before touching depth 2 (a
    // stack-based traversal dives into one branch first).
    let (a, b) = pair();
    let d1 = b.mkdir(ROOT_FILE, "d1").unwrap();
    let d2 = b.mkdir(ROOT_FILE, "d2").unwrap();
    let d1a = b.mkdir(d1, "d1a").unwrap();
    let d2a = b.mkdir(d2, "d2a").unwrap();
    converge(&[&a, &b]);

    let access = Instrumented::new(LocalAccess::new(Arc::clone(&b)));
    reconcile_subtree(&a, &access).unwrap();

    let (visited, _) = dirs_and_data_fetches(&access);
    assert_eq!(visited.len(), 5, "each directory fetched exactly once");
    assert_eq!(visited[0], ROOT_FILE);
    let depth = |f: FicusFileId| -> usize {
        if f == ROOT_FILE {
            0
        } else if f == d1 || f == d2 {
            1
        } else {
            assert!(f == d1a || f == d2a);
            2
        }
    };
    let depths: Vec<usize> = visited.iter().map(|&f| depth(f)).collect();
    let mut sorted = depths.clone();
    sorted.sort_unstable();
    assert_eq!(
        depths, sorted,
        "visit order {visited:?} is not breadth-first"
    );
}

// ---------------------------------------------------------------------------
// Property test: random partitioned op histories against two FULL physical
// replicas (real storage, real tombstone GC), interleaved with random
// reconciliation, must always converge with no lost live files.
// ---------------------------------------------------------------------------

mod convergence_prop {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum PhysOp {
        Create(u8, u8),
        Write(u8, u8, u8),
        Remove(u8, u8),
        Rename(u8, u8, u8),
        Mkdir(u8, u8),
        Recon(u8),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<PhysOp>> {
        proptest::collection::vec(
            prop_oneof![
                (any::<u8>(), any::<u8>()).prop_map(|(r, n)| PhysOp::Create(r, n)),
                (any::<u8>(), any::<u8>(), any::<u8>())
                    .prop_map(|(r, n, b)| PhysOp::Write(r, n, b)),
                (any::<u8>(), any::<u8>()).prop_map(|(r, n)| PhysOp::Remove(r, n)),
                (any::<u8>(), any::<u8>(), any::<u8>())
                    .prop_map(|(r, a, b)| PhysOp::Rename(r, a, b)),
                (any::<u8>(), any::<u8>()).prop_map(|(r, n)| PhysOp::Mkdir(r, n)),
                any::<u8>().prop_map(PhysOp::Recon),
            ],
            0..30,
        )
    }

    fn name_of(n: u8) -> String {
        format!("n{}", n % 6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_two_phys_replicas_converge(ops in arb_ops()) {
            let a = mk_replica(1, &[1, 2]);
            let b = mk_replica(2, &[1, 2]);
            let reps = [&a, &b];
            for op in &ops {
                match op {
                    PhysOp::Create(r, n) => {
                        let p = reps[(*r as usize) % 2];
                        let _ = p.create(ROOT_FILE, &name_of(*n), VnodeType::Regular);
                    }
                    PhysOp::Write(r, n, byte) => {
                        let p = reps[(*r as usize) % 2];
                        if let Ok(e) = p.lookup(ROOT_FILE, &name_of(*n)) {
                            if !e.kind.is_directory_like() {
                                let _ = p.write(e.file, 0, &[*byte; 8]);
                            }
                        }
                    }
                    PhysOp::Remove(r, n) => {
                        let p = reps[(*r as usize) % 2];
                        let _ = p.remove(ROOT_FILE, &name_of(*n));
                    }
                    PhysOp::Rename(r, from, to) => {
                        let p = reps[(*r as usize) % 2];
                        let _ = p.rename(ROOT_FILE, &name_of(*from), ROOT_FILE, &name_of(*to));
                    }
                    PhysOp::Mkdir(r, n) => {
                        let p = reps[(*r as usize) % 2];
                        let _ = p.mkdir(ROOT_FILE, &name_of(*n));
                    }
                    PhysOp::Recon(r) => {
                        let (local, remote) = if r % 2 == 0 { (&a, &b) } else { (&b, &a) };
                        reconcile_subtree(local, &LocalAccess::new(Arc::clone(remote))).unwrap();
                    }
                }
            }
            // Drive to quiescence (bounded; panics inside converge() if the
            // protocol livelocks).
            converge(&[&a, &b]);
            // Name spaces agree exactly (entry sets, including conflict
            // disambiguation, and file bytes except concurrently-updated
            // files, whose divergence is a *reported* state).
            let da = a.dir_entries(ROOT_FILE).unwrap();
            let db = b.dir_entries(ROOT_FILE).unwrap();
            let canon = |d: &crate::dirfile::FicusDir| {
                let mut v: Vec<_> = d.entries.iter().map(|e| (e.id, e.name.clone(), e.file, e.deleted())).collect();
                v.sort();
                v
            };
            prop_assert_eq!(canon(&da), canon(&db));
            // Every live file has storage and readable attributes on BOTH
            // replicas (no dangling entries).
            for e in da.live() {
                prop_assert!(a.repl_attrs(e.file).is_ok(), "a missing {}", e.file);
                prop_assert!(b.repl_attrs(e.file).is_ok(), "b missing {}", e.file);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental (changelog-driven) reconciliation
// ---------------------------------------------------------------------------

mod incremental {
    use super::*;
    use crate::recon::reconcile_incremental;

    #[test]
    fn first_contact_falls_back_to_full_walk_without_a_reset() {
        let (a, b) = pair();
        let f = b.create(ROOT_FILE, "seed", VnodeType::Regular).unwrap();
        b.write(f, 0, b"seed bytes").unwrap();

        let stats = reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
        assert_eq!(stats.entries_inserted, 1);
        assert_eq!(stats.files_pulled, 1);
        assert_eq!(
            stats.rpcs_avoided, 0,
            "the fallback is real work, not an avoided exchange"
        );
        assert_eq!(&a.read(f, 0, 100).unwrap()[..], b"seed bytes");

        let cs = a.changelog_stats();
        assert_eq!(cs.full_walk_fallbacks, 1);
        assert_eq!(cs.cursor_resets, 0, "first contact is not a cursor reset");
        // The cursor was captured before the walk, so nothing is missed and
        // nothing is replayed.
        assert_eq!(a.peer_cursor(ReplicaId(2)), Some(b.changelog_next_seq()));
    }

    #[test]
    fn quiescent_incremental_pass_does_no_walk() {
        let (a, b) = pair();
        for i in 0..4 {
            let f = b
                .create(ROOT_FILE, &format!("f{i}"), VnodeType::Regular)
                .unwrap();
            b.write(f, 0, format!("payload {i}").as_bytes()).unwrap();
        }
        reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();

        let access = Instrumented::new(LocalAccess::new(Arc::clone(&b)));
        let stats = reconcile_incremental(&a, &access).unwrap();
        assert!(stats.quiescent());
        assert_eq!(
            stats.dirs_examined, 0,
            "no subtree walk when the log is clean"
        );
        assert_eq!(dirs_and_data_fetches(&access), (vec![], 0));
    }

    #[test]
    fn incremental_pass_touches_only_the_dirty_suffix() {
        let (a, b) = pair();
        let mut files = Vec::new();
        for i in 0..6 {
            let f = b
                .create(ROOT_FILE, &format!("f{i}"), VnodeType::Regular)
                .unwrap();
            b.write(f, 0, format!("payload {i}").as_bytes()).unwrap();
            files.push(f);
        }
        b.mkdir(ROOT_FILE, "steady").unwrap();
        reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();

        // One file goes dirty; the next pass must not re-examine the other
        // five or any directory.
        b.write(files[3], 0, b"fresh contents").unwrap();
        let access = Instrumented::new(LocalAccess::new(Arc::clone(&b)));
        let stats = reconcile_incremental(&a, &access).unwrap();
        assert_eq!(stats.files_pulled, 1);
        assert_eq!(
            dirs_and_data_fetches(&access),
            (vec![], 1),
            "a file-only dirty set must not trigger directory fetches"
        );
        assert_eq!(&a.read(files[3], 0, 100).unwrap()[..], b"fresh contents");
    }

    #[test]
    fn covered_records_are_skipped_and_counted() {
        let (a, b) = pair();
        // Establish b's cursor on a before a does anything.
        reconcile_incremental(&b, &LocalAccess::new(Arc::clone(&a))).unwrap();
        let f = b.create(ROOT_FILE, "shared", VnodeType::Regular).unwrap();
        b.write(f, 0, b"v1").unwrap();
        reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();

        // a's adoption appended to a's own log; b already covers those
        // versions, so b's next pass skips them without fetching.
        let access = Instrumented::new(LocalAccess::new(Arc::clone(&a)));
        let stats = reconcile_incremental(&b, &access).unwrap();
        assert!(stats.quiescent());
        assert!(stats.rpcs_saved >= 1, "covered records count as saved work");
        assert_eq!(dirs_and_data_fetches(&access).1, 0);
    }

    #[test]
    fn new_directory_in_the_suffix_is_adopted() {
        let (a, b) = pair();
        reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();

        let d = b.mkdir(ROOT_FILE, "fresh").unwrap();
        let f = b.create(d, "inside", VnodeType::Regular).unwrap();
        b.write(f, 0, b"nested").unwrap();

        let stats = reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
        assert!(stats.entries_inserted >= 2);
        assert_eq!(&a.read(f, 0, 100).unwrap()[..], b"nested");
        assert_same_tree(&a, &b);
    }

    #[test]
    fn log_truncation_resets_cursor_and_still_converges() {
        let mk_small = |me: u32| {
            let ufs = Ufs::format(Disk::new(Geometry::medium()), UfsParams::default()).unwrap();
            FicusPhysical::create_volume(
                Arc::new(ufs),
                &format!("small_r{me}"),
                VolumeName::new(1, 1),
                ReplicaId(me),
                &[1, 2],
                Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
                PhysParams {
                    changelog_capacity: 4,
                    ..PhysParams::default()
                },
            )
            .unwrap()
        };
        let a = mk_small(1);
        let b = mk_small(2);
        let f = b.create(ROOT_FILE, "churn", VnodeType::Regular).unwrap();
        b.write(f, 0, b"v0").unwrap();
        reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
        assert_eq!(a.changelog_stats().cursor_resets, 0);

        // Push the log past its capacity so a's cursor falls off the floor.
        for i in 0..10u8 {
            b.write(f, 0, &[b'w', i]).unwrap();
        }
        assert!(b.changelog_stats().log_truncations > 0);

        let stats = reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
        assert_eq!(stats.files_pulled, 1);
        let cs = a.changelog_stats();
        assert_eq!(
            cs.cursor_resets, 1,
            "a live cursor below the floor is a reset"
        );
        assert_eq!(cs.full_walk_fallbacks, 2);
        assert_eq!(&a.read(f, 0, 100).unwrap()[..], &[b'w', 9]);

        // The reset re-captured a fresh cursor: the next pass is incremental
        // and clean.
        let stats = reconcile_incremental(&a, &LocalAccess::new(Arc::clone(&b))).unwrap();
        assert!(stats.quiescent());
        assert_eq!(stats.dirs_examined, 0);
    }

    #[test]
    fn incremental_matches_full_walk_outcome() {
        // Same divergence reconciled both ways lands on the same tree.
        let mk_pair = || {
            let a = mk_replica(1, &[1, 2]);
            let b = mk_replica(2, &[1, 2]);
            let d = b.mkdir(ROOT_FILE, "dir").unwrap();
            let f1 = b.create(d, "one", VnodeType::Regular).unwrap();
            b.write(f1, 0, b"first").unwrap();
            let f2 = b.create(ROOT_FILE, "two", VnodeType::Regular).unwrap();
            b.write(f2, 0, b"second").unwrap();
            (a, b)
        };
        let (a1, b1) = mk_pair();
        let s_full = reconcile_subtree(&a1, &LocalAccess::new(Arc::clone(&b1))).unwrap();
        let (a2, b2) = mk_pair();
        let s_inc = reconcile_incremental(&a2, &LocalAccess::new(Arc::clone(&b2))).unwrap();
        assert_eq!(s_full.entries_inserted, s_inc.entries_inserted);
        assert_eq!(s_full.files_pulled, s_inc.files_pulled);
        assert_same_tree(&a1, &a2);
        assert_same_tree(&b1, &b2);
    }
}
