//! Integration: one script, one I/O trace.
//!
//! Determinism is load-bearing (ROADMAP standing constraints): every counted
//! metric is compared run over run, so two worlds that execute the same
//! script must issue exactly the same disk I/O — within one process as well
//! as between processes. The sharpest probe is an unlink: its search for a
//! surviving hard link walks the physical layer's location index and stops
//! at the first hit, so the index must iterate in a defined order — over a
//! hash map, how many directory files the search reads follows std's
//! per-map hasher seed.

use ficus_repro::core::sim::{FicusWorld, WorldParams};
use ficus_repro::net::HostId;
use ficus_repro::ufs::DiskStats;
use ficus_repro::vnode::{Credentials, FileSystem};

const DIRS: usize = 12;

/// Builds a world, runs a two-epoch partition/unlink/heal script over a
/// tree of hard-linked files, and returns every host's disk counters.
fn scripted_run() -> Vec<(HostId, DiskStats)> {
    let cred = Credentials::root();
    // A buffer cache far smaller than the tree, so a directory file read in
    // a different order is a different number of disk reads.
    let world = FicusWorld::new(WorldParams {
        cache_blocks: 24,
        ..WorldParams::default()
    });
    let root = world.logical(HostId(1)).root();
    let dirs: Vec<_> = (0..DIRS)
        .map(|i| root.mkdir(&cred, &format!("d{i}"), 0o755).unwrap())
        .collect();
    // Every file has a second name five directories on: unlinking either
    // name sends the physical layer looking for the other.
    for (i, dir) in dirs.iter().enumerate() {
        let f = dir.create(&cred, &format!("f{i}"), 0o644).unwrap();
        f.write(&cred, 0, format!("file {i}").as_bytes()).unwrap();
        dirs[(i + 5) % DIRS]
            .link(&cred, &f, &format!("alias{i}"))
            .unwrap();
    }
    world.settle();

    for epoch in 0..2 {
        world.partition(&[&[HostId(1)], &[HostId(2), HostId(3)]]);
        // Each side drops one name of files the other side leaves alone, so
        // the heal has unlinks to merge in both directions.
        let unlink = |host: u32, dir: usize, name: String| {
            let root = world.logical(HostId(host)).root();
            let dir = root.lookup(&cred, &format!("d{dir}")).unwrap();
            dir.remove(&cred, &name).unwrap();
        };
        for i in (epoch..DIRS).step_by(4) {
            unlink(1, i, format!("f{i}"));
            let j = i + 2;
            unlink(2, (j + 5) % DIRS, format!("alias{j}"));
        }
        world.heal();
        world.settle();
    }

    // The script did what it says: every host sees the same tree.
    let listing = |h: HostId| -> Vec<Vec<String>> {
        let root = world.logical(h).root();
        (0..DIRS)
            .map(|i| {
                let dir = root.lookup(&cred, &format!("d{i}")).unwrap();
                let mut names: Vec<String> = dir
                    .readdir(&cred, 0, 1000)
                    .unwrap()
                    .into_iter()
                    .map(|e| e.name)
                    .collect();
                names.sort();
                names
            })
            .collect()
    };
    assert_eq!(listing(HostId(1)), listing(HostId(2)));
    assert_eq!(listing(HostId(1)), listing(HostId(3)));
    assert_eq!(
        listing(HostId(1)).concat().len(),
        DIRS,
        "one name per file left"
    );

    world
        .host_ids()
        .into_iter()
        .map(|h| (h, world.host(h).ufs.disk().stats()))
        .collect()
}

#[test]
fn two_worlds_running_one_script_issue_identical_disk_io() {
    let first = scripted_run();
    assert!(first.iter().all(|(_, s)| s.reads > 0 && s.writes > 0));
    for round in 0..3 {
        assert_eq!(scripted_run(), first, "world {} diverged", round + 2);
    }
}
