//! E3 — shadow-commit cost (paper §3.2, footnote 5).
//!
//! "While its performance impact is usually small, it can have a
//! significant effect if the client is updating a few points in a large
//! file. To avoid alteration of the UFS, rewriting the entire file is
//! necessary."
//!
//! We update `k` bytes of an `n`-byte file two ways and count the disk
//! blocks written: **in-place** (what a plain UFS write does) versus
//! **whole-file shadow commit** (write the whole new contents, fsync,
//! atomic swap — the paper's §3.2 behavior, measured here with delta
//! commit *disabled*). The in-place path writes O(k / block) blocks; the
//! whole-file shadow path writes O(n / block), so the overhead ratio grows
//! with the file size and shrinks as the update approaches a full rewrite.
//! E13 measures the chunked *delta* commit that removes this blow-up.

use std::sync::Arc;

use ficus_core::ids::{ReplicaId, VolumeName, ROOT_FILE};
use ficus_core::phys::{FicusPhysical, PhysParams};
use ficus_ufs::{Disk, Geometry, Ufs, UfsParams};
use ficus_vnode::{Credentials, FileSystem, LogicalClock, TimeSource, VnodeType};

use crate::report::{Metrics, Report};
use crate::table::{ratio_of, Table};

/// One configuration's measurement.
#[derive(Debug, Clone, Copy)]
pub struct CommitCost {
    /// File size in bytes.
    pub file_size: usize,
    /// Updated bytes.
    pub update_size: usize,
    /// Disk blocks written by the in-place update (including fsync).
    pub inplace_writes: u64,
    /// Disk blocks written by the shadow commit.
    pub shadow_writes: u64,
}

/// Measures both update paths for one `(file_size, update_size)`.
#[must_use]
pub fn measure(file_size: usize, update_size: usize) -> CommitCost {
    let cred = Credentials::root();

    // In-place on a plain UFS file.
    let ufs = Ufs::format(
        Disk::new(Geometry {
            blocks: 65536,
            block_size: 4096,
        }),
        UfsParams::default(),
    )
    .unwrap();
    let f = ufs.root().create(&cred, "f", 0o644).unwrap();
    f.write(&cred, 0, &vec![1u8; file_size]).unwrap();
    ufs.sync().unwrap();
    let update_at = (file_size / 2).min(file_size - update_size);
    let before = ufs.disk().stats();
    f.write(&cred, update_at as u64, &vec![2u8; update_size])
        .unwrap();
    f.fsync(&cred).unwrap();
    let inplace_writes = ufs.disk().stats().since(before).writes;

    // Shadow commit through the physical layer.
    let ufs2 = Arc::new(
        Ufs::format(
            Disk::new(Geometry {
                blocks: 65536,
                block_size: 4096,
            }),
            UfsParams::default(),
        )
        .unwrap(),
    );
    let clock: Arc<dyn TimeSource> = Arc::new(LogicalClock::new());
    let phys = FicusPhysical::create_volume(
        Arc::clone(&ufs2) as Arc<dyn FileSystem>,
        "vol",
        VolumeName::new(1, 1),
        ReplicaId(1),
        &[1, 2],
        clock,
        PhysParams {
            // The whole-file §3.2 baseline: every chunk rewritten on
            // commit. E13 measures the delta path.
            delta_commit: false,
            ..PhysParams::default()
        },
    )
    .unwrap();
    let file = phys.create(ROOT_FILE, "f", VnodeType::Regular).unwrap();
    let mut contents = vec![1u8; file_size];
    phys.write(file, 0, &contents).unwrap();
    ufs2.sync().unwrap();
    // The propagated new version: same file with k bytes changed.
    for b in &mut contents[update_at..update_at + update_size] {
        *b = 2;
    }
    let mut new_vv = phys.file_vv(file).unwrap();
    new_vv.increment(2); // the update originated at the (fictional) peer
    let before = ufs2.disk().stats();
    phys.apply_remote_version(file, &new_vv, &contents).unwrap();
    let shadow_writes = ufs2.disk().stats().since(before).writes;

    CommitCost {
        file_size,
        update_size,
        inplace_writes,
        shadow_writes,
    }
}

/// Runs E3 and produces its table and metrics. Block writes are counted in
/// the simulated disk, so every metric is deterministic. A zero in-place
/// measurement is reported explicitly, never papered over with a
/// fabricated ratio.
#[must_use]
pub fn run() -> Report {
    let mut t = Table::new(
        "E3: update cost, in-place vs shadow commit (paper §3.2 fn 5: whole-file rewrite)",
        &[
            "file size",
            "update",
            "in-place blk writes",
            "shadow blk writes",
            "overhead",
        ],
    );
    let mut m = Metrics::new("e3", &t.title);
    for &(n, k) in &[
        (16 * 1024, 64),
        (256 * 1024, 64),
        (4 * 1024 * 1024, 64),
        (256 * 1024, 64 * 1024),
        (256 * 1024, 256 * 1024),
    ] {
        let c = measure(n, k);
        t.row(vec![
            human(n),
            human(k),
            c.inplace_writes.to_string(),
            c.shadow_writes.to_string(),
            ratio_of(c.shadow_writes as f64, c.inplace_writes as f64),
        ]);
        let key = format!("f{}_u{}", human(n), human(k));
        m.det(
            &format!("{key}.inplace_writes"),
            "blocks",
            c.inplace_writes as f64,
        );
        m.det(
            &format!("{key}.shadow_writes"),
            "blocks",
            c.shadow_writes as f64,
        );
        // The derived ratio exists only when the denominator measured
        // anything — a degenerate run must not feed the trajectory.
        if c.inplace_writes > 0 {
            m.det_tol(
                &format!("{key}.overhead_ratio"),
                "ratio",
                c.shadow_writes as f64 / c.inplace_writes as f64,
                0.02,
            );
        }
    }
    t.note(
        "paper: cost 'usually small' but 'significant if updating a few points in a large file'",
    );
    t.note("the overhead ratio grows with file size for small updates and approaches 1x for full rewrites");
    Report {
        table: t,
        metrics: m,
    }
}

fn human(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MiB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}KiB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_update_of_large_file_is_expensive_for_shadow() {
        let c = measure(1024 * 1024, 64);
        // Shadow rewrites ~256 data blocks; in-place touches a couple.
        assert!(
            c.shadow_writes > c.inplace_writes * 10,
            "shadow {} vs in-place {}",
            c.shadow_writes,
            c.inplace_writes
        );
    }

    #[test]
    fn full_rewrite_costs_converge() {
        let c = measure(128 * 1024, 128 * 1024);
        let ratio = c.shadow_writes as f64 / c.inplace_writes as f64;
        // In-place overwrites blocks the file already owns: one write per
        // 4 KiB. The shadow copies every chunk into a slot the committed
        // map does not reference — here a newly allocated one, so a data
        // block, its allocation bit and its block pointer per 4 KiB — and
        // adds one map and one rename: about 3x plus a constant, whatever
        // the file size.
        assert!(
            ratio < 5.0,
            "a full rewrite costs a small constant factor: {ratio}"
        );
    }

    #[test]
    fn shadow_commit_applies_the_data() {
        // Sanity: the measured path actually commits.
        let c = measure(16 * 1024, 64);
        assert!(c.shadow_writes >= 4, "shadow path must write data + aux");
    }
}
