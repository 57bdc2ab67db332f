//! Per-volume change log — the dirty set that makes reconciliation
//! O(changes) instead of O(files × peers).
//!
//! Every mutation a physical layer commits — local updates, versions
//! adopted from peers, conflict stashes, resolver commits, directory
//! merges that changed anything — appends one compact [`ChangeRecord`]
//! here. A reconciliation pass between two replicas then exchanges **log
//! cursors**: the puller remembers the remote's `next_seq` from its last
//! visit and asks only for the suffix since then (`;f;log;<hex>` on the
//! control plane), feeding just those files into one attribute batch. A
//! quiescent pair costs one RPC, not a subtree walk.
//!
//! The log is a bounded ring: when `capacity` is exceeded the oldest
//! records fall off and `floor` rises. A cursor below the floor means the
//! suffix is gone — the reply says [`LogSuffix::truncated`] and the caller
//! falls back to the full subtree walk (same for a replica that has never
//! visited, e.g. freshly grafted). Sequence numbers are per-replica and
//! monotonic; no wall-clock anywhere, so campaigns stay seeded-
//! deterministic.
//!
//! Records carry the file's version vector **sparsely encoded**
//! ([`ficus_vv::sparse_encode`]): at 256 replicas a 3-writer vector costs
//! 3 entries, not 256 slots, and [`ChangelogStats::sparse_vv_bytes_saved`]
//! accounts the difference against the dense baseline.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use ficus_nfs::wire::{Dec, Enc};
use ficus_vnode::{FsError, FsResult};
use ficus_vv::{dense_len, sparse_decode, sparse_encode, VersionVector};

use crate::ids::{FicusFileId, ReplicaId};

/// One committed change: which file, what kind, and the version vector the
/// replica held after the change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Position in this replica's log (monotonic, never reused).
    pub seq: u64,
    /// The changed file.
    pub file: FicusFileId,
    /// Whether the file is directory-like (reconciled via the directory
    /// protocol rather than the per-file one).
    pub dir_like: bool,
    /// The version vector after the change, for cheap covers-skipping on
    /// the pulling side.
    pub vv: VersionVector,
}

/// A reply to "what changed since sequence `from`?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSuffix {
    /// Oldest sequence number still in the log.
    pub floor: u64,
    /// The sequence number the next append will get; the puller stores it
    /// as its new cursor.
    pub next_seq: u64,
    /// True when `from` fell below `floor`: records were lost to ring
    /// truncation and the suffix is incomplete — the caller must fall back
    /// to a full subtree walk.
    pub truncated: bool,
    /// The records in `[max(from, floor), next_seq)`, ascending.
    pub records: Vec<ChangeRecord>,
}

impl LogSuffix {
    /// Serializes for the `;f;log;` control plane.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.floor);
        e.u64(self.next_seq);
        e.u8(u8::from(self.truncated));
        e.u32(self.records.len() as u32);
        for r in &self.records {
            e.u64(r.seq);
            e.u32(r.file.issuer.0);
            e.u64(r.file.unique);
            e.u8(u8::from(r.dir_like));
            e.bytes(&sparse_encode(&r.vv));
        }
        e.finish()
    }

    /// Parses the control-plane payload, rejecting truncation and trailing
    /// bytes.
    pub fn decode(buf: &[u8]) -> FsResult<LogSuffix> {
        let mut d = Dec::new(buf);
        let floor = d.u64()?;
        let next_seq = d.u64()?;
        let truncated = d.u8()? != 0;
        let n = d.u32()? as usize;
        if n > 1 << 24 {
            return Err(FsError::Io);
        }
        let mut records = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let seq = d.u64()?;
            let issuer = ReplicaId(d.u32()?);
            let unique = d.u64()?;
            let dir_like = d.u8()? != 0;
            let vv = sparse_decode(&d.bytes()?).map_err(|_| FsError::Io)?;
            records.push(ChangeRecord {
                seq,
                file: FicusFileId { issuer, unique },
                dir_like,
                vv,
            });
        }
        if !d.at_end() {
            return Err(FsError::Io);
        }
        Ok(LogSuffix {
            floor,
            next_seq,
            truncated,
            records,
        })
    }
}

/// Counters for the change-log machinery (audited by ficus-lint R4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChangelogStats {
    /// Records appended to the log.
    pub log_appends: u64,
    /// Records dropped off the ring's tail (each raises the floor).
    pub log_truncations: u64,
    /// Incremental passes whose existing cursor fell below the remote's
    /// floor and had to re-baseline (first contact is not a reset — only
    /// loss of a cursor we once held).
    pub cursor_resets: u64,
    /// Full subtree walks performed because no usable cursor existed
    /// (first contact, grafting, or a counted reset).
    pub full_walk_fallbacks: u64,
    /// Bytes the sparse version-vector encoding saved in appended records,
    /// versus one dense slot per replica-set member.
    pub sparse_vv_bytes_saved: u64,
}

impl ChangelogStats {
    /// Folds another snapshot into this one.
    pub fn absorb(&mut self, other: &ChangelogStats) {
        self.log_appends += other.log_appends;
        self.log_truncations += other.log_truncations;
        self.cursor_resets += other.cursor_resets;
        self.full_walk_fallbacks += other.full_walk_fallbacks;
        self.sparse_vv_bytes_saved += other.sparse_vv_bytes_saved;
    }
}

/// Interior state under one lock: the ring, the floor, and the per-peer
/// cursors this replica holds into *other* replicas' logs.
#[derive(Debug, Default)]
struct LogInner {
    records: std::collections::VecDeque<ChangeRecord>,
    floor: u64,
    next_seq: u64,
    cursors: BTreeMap<ReplicaId, u64>,
    stats: ChangelogStats,
}

/// The per-volume change log plus this replica's recon cursors.
#[derive(Debug)]
pub struct ChangeLog {
    capacity: usize,
    inner: Mutex<LogInner>,
}

impl ChangeLog {
    /// Creates an empty log retaining at most `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ChangeLog {
            capacity: capacity.max(1),
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Appends one record, returning its sequence number.
    /// `replica_set_width` sizes the dense baseline the byte-savings
    /// counter charges against.
    pub fn append(
        &self,
        file: FicusFileId,
        dir_like: bool,
        vv: &VersionVector,
        replica_set_width: usize,
    ) -> u64 {
        let mut g = self.inner.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        g.records.push_back(ChangeRecord {
            seq,
            file,
            dir_like,
            vv: vv.clone(),
        });
        g.stats.log_appends += 1;
        let saved = dense_len(replica_set_width).saturating_sub(sparse_encode(vv).len());
        g.stats.sparse_vv_bytes_saved += saved as u64;
        while g.records.len() > self.capacity {
            g.records.pop_front();
            g.stats.log_truncations += 1;
        }
        g.floor = g.records.front().map_or(g.next_seq, |r| r.seq);
        seq
    }

    /// Answers "what changed since `from`?" — the serving side of the
    /// cursor protocol.
    #[must_use]
    pub fn suffix(&self, from: u64) -> LogSuffix {
        let g = self.inner.lock();
        LogSuffix {
            floor: g.floor,
            next_seq: g.next_seq,
            truncated: from < g.floor,
            records: g
                .records
                .iter()
                .filter(|r| r.seq >= from)
                .cloned()
                .collect(),
        }
    }

    /// The cursor this replica holds into `peer`'s log, if any.
    #[must_use]
    pub fn cursor(&self, peer: ReplicaId) -> Option<u64> {
        self.inner.lock().cursors.get(&peer).copied()
    }

    /// Advances the cursor into `peer`'s log.
    pub fn set_cursor(&self, peer: ReplicaId, next: u64) {
        self.inner.lock().cursors.insert(peer, next);
    }

    /// Every cursor this replica holds, in peer order.
    #[must_use]
    pub fn cursors(&self) -> Vec<(ReplicaId, u64)> {
        self.inner
            .lock()
            .cursors
            .iter()
            .map(|(&p, &c)| (p, c))
            .collect()
    }

    /// Records that an incremental pass lost (or never had) its cursor.
    pub fn note_cursor_reset(&self) {
        self.inner.lock().stats.cursor_resets += 1;
    }

    /// Records a fallback to a full subtree walk.
    pub fn note_full_walk(&self) {
        self.inner.lock().stats.full_walk_fallbacks += 1;
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().records.is_empty()
    }

    /// Oldest retained sequence number.
    #[must_use]
    pub fn floor(&self) -> u64 {
        self.inner.lock().floor
    }

    /// The sequence number the next append will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> ChangelogStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u64) -> FicusFileId {
        FicusFileId::new(1, n)
    }

    #[test]
    fn appends_count_and_suffix_returns_only_the_asked_range() {
        let log = ChangeLog::new(16);
        for i in 0..5 {
            let vv = VersionVector::single(1);
            assert_eq!(log.append(fid(i), false, &vv, 8), i);
        }
        let s = log.suffix(3);
        assert_eq!(s.floor, 0);
        assert_eq!(s.next_seq, 5);
        assert!(!s.truncated);
        assert_eq!(
            s.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(log.stats().log_appends, 5);
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
    }

    #[test]
    fn overflowing_the_ring_raises_the_floor_and_marks_old_cursors_truncated() {
        let log = ChangeLog::new(3);
        for i in 0..10 {
            log.append(fid(i), false, &VersionVector::single(2), 4);
        }
        assert_eq!(log.stats().log_truncations, 7);
        assert_eq!(log.floor(), 7);
        assert_eq!(log.len(), 3);
        let stale = log.suffix(2);
        assert!(stale.truncated, "cursor 2 fell below floor 7");
        assert_eq!(stale.records.len(), 3, "still ships what it has");
        let fresh = log.suffix(8);
        assert!(!fresh.truncated);
        assert_eq!(fresh.records.len(), 2);
        // A cursor exactly at the floor is intact.
        assert!(!log.suffix(7).truncated);
    }

    #[test]
    fn cursors_are_per_peer_and_listed_in_order() {
        let log = ChangeLog::new(8);
        assert_eq!(log.cursor(ReplicaId(2)), None);
        log.set_cursor(ReplicaId(3), 7);
        log.set_cursor(ReplicaId(2), 4);
        assert_eq!(log.cursor(ReplicaId(2)), Some(4));
        assert_eq!(log.cursors(), vec![(ReplicaId(2), 4), (ReplicaId(3), 7)]);
        log.note_cursor_reset();
        log.note_full_walk();
        log.note_full_walk();
        let s = log.stats();
        assert_eq!(s.cursor_resets, 1);
        assert_eq!(s.full_walk_fallbacks, 2);
    }

    #[test]
    fn sparse_vv_savings_track_the_dense_baseline() {
        let log = ChangeLog::new(8);
        let mut vv = VersionVector::new();
        vv.set(3, 1);
        vv.set(250, 2);
        log.append(fid(1), false, &vv, 256);
        let sparse = ficus_vv::sparse_encode(&vv).len();
        assert_eq!(
            log.stats().sparse_vv_bytes_saved,
            (dense_len(256) - sparse) as u64
        );
    }

    #[test]
    fn stats_absorb_folds_every_counter() {
        let mut a = ChangelogStats {
            log_appends: 1,
            log_truncations: 2,
            cursor_resets: 3,
            full_walk_fallbacks: 4,
            sparse_vv_bytes_saved: 5,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.log_appends, 2);
        assert_eq!(a.log_truncations, 4);
        assert_eq!(a.cursor_resets, 6);
        assert_eq!(a.full_walk_fallbacks, 8);
        assert_eq!(a.sparse_vv_bytes_saved, 10);
    }

    #[test]
    fn suffix_round_trips_and_rejects_junk() {
        let log = ChangeLog::new(8);
        log.append(fid(1), true, &VersionVector::single(1), 4);
        log.append(fid(2), false, &VersionVector::single(2), 4);
        let s = log.suffix(0);
        let wire = s.encode();
        assert_eq!(LogSuffix::decode(&wire).unwrap(), s);
        for cut in 0..wire.len() {
            assert!(LogSuffix::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = wire;
        extra.push(0);
        assert!(LogSuffix::decode(&extra).is_err());
    }

    #[test]
    fn empty_log_suffix_is_clean_for_any_cursor() {
        let log = ChangeLog::new(4);
        let s = log.suffix(0);
        assert!(!s.truncated);
        assert!(s.records.is_empty());
        assert_eq!(s.next_seq, 0);
    }
}
