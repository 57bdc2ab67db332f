//! Update notification and propagation (paper §3.2).
//!
//! "When a logical layer requests a physical layer to update a file or
//! directory, an asynchronous multicast datagram is sent to all available
//! replicas informing them that a new version of a file may be obtained from
//! the replica receiving the update. Each physical layer reacts to the
//! update notification as it sees fit: it may propagate the new version
//! immediately, or wait for some later, more convenient time."
//!
//! This module defines the datagram payload, the delivery handler (which
//! feeds the physical layer's new-version cache), and the propagation
//! daemon with the two policies the paper contrasts: **immediate**
//! propagation (maximizes availability of the new version) and **delayed**
//! propagation (coalesces bursty updates, reducing propagation cost) —
//! experiment E7's axis.
//!
//! "For regular files, update propagation is simply a matter of atomically
//! replacing the contents of the local replica with those of a newer version
//! remote replica" — the shadow commit. Directory updates cannot be copied
//! ("a directory operation needs to be replayed at each replica"), so a
//! directory notification triggers one [`crate::recon::reconcile_dir`] step
//! against the origin instead.

use ficus_nfs::wire::{Dec, Enc};
use ficus_vnode::{FsError, FsResult, Timestamp};

use crate::access::ReplicaAccess;
use crate::health::PeerHealth;
use crate::ids::{FicusFileId, ReplicaId, VolumeName};
use crate::lcache::Lcache;
use crate::phys::{FicusPhysical, NvcEntry};
use crate::recon::{self, FileStep, ReconStats};

/// The datagram service name update notifications travel on.
pub const NOTE_SERVICE: &str = "ficus-note";

/// One update notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateNote {
    /// Volume of the updated file.
    pub volume: VolumeName,
    /// The updated file.
    pub file: FicusFileId,
    /// The replica holding the new version.
    pub origin: ReplicaId,
}

impl UpdateNote {
    /// Encodes the note for the wire.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.volume.allocator.0);
        e.u32(self.volume.volume.0);
        e.u32(self.file.issuer.0);
        e.u64(self.file.unique);
        e.u32(self.origin.0);
        e.finish()
    }

    /// Decodes a wire note.
    pub fn decode(buf: &[u8]) -> FsResult<Self> {
        let mut d = Dec::new(buf);
        let note = UpdateNote {
            volume: VolumeName::new(d.u32()?, d.u32()?),
            file: FicusFileId {
                issuer: ReplicaId(d.u32()?),
                unique: d.u64()?,
            },
            origin: ReplicaId(d.u32()?),
        };
        if !d.at_end() {
            return Err(FsError::Io);
        }
        Ok(note)
    }
}

/// When the daemon propagates a noted version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationPolicy {
    /// Pull as soon as the daemon runs ("enhances the availability of the
    /// new version").
    Immediate,
    /// Pull only notifications older than this many microseconds ("may
    /// reduce the overall propagation cost when updates are bursty" —
    /// younger notes wait, and a newer note for the same file replaces the
    /// older one in the cache, coalescing the burst).
    Delayed(u64),
}

/// Tallies from one daemon run (experiment E7's currency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Notifications taken from the new-version cache.
    pub notes_taken: u64,
    /// Regular-file versions pulled and committed — both direct pulls and
    /// pulls performed inside a directory reconciliation step.
    pub files_pulled: u64,
    /// Directory notifications resolved by a reconciliation step.
    pub dirs_reconciled: u64,
    /// Directory entries adopted during those reconciliation steps.
    pub entries_inserted: u64,
    /// Tombstones adopted during those reconciliation steps.
    pub entries_tombstoned: u64,
    /// Pulls skipped because the local replica already covered the remote.
    pub already_current: u64,
    /// Conflicts detected while pulling.
    pub conflicts: u64,
    /// Notifications requeued after an attempted exchange failed
    /// (`requeued_down + requeued_timeout`).
    pub requeued: u64,
    /// Of the requeues, those where the origin looked down (partition or
    /// crashed host: `Unreachable`).
    pub requeued_down: u64,
    /// Of the requeues, those that looked transient (`TimedOut` and other
    /// retriable failures).
    pub requeued_timeout: u64,
    /// Origins left untouched this pass because their health backoff window
    /// was still open. Not failures: no wire traffic happened.
    pub peers_skipped: u64,
    /// Notifications held back (without an RPC) by those skips.
    pub rpcs_avoided: u64,
    /// Per-file protocol operations answered from a bulk response instead
    /// of issued individually (see [`crate::recon::ReconStats::rpcs_saved`]).
    pub rpcs_saved: u64,
    /// File data bytes pulled from origins.
    pub bytes_fetched: u64,
    /// Concurrent versions whose fetched bytes matched the local content —
    /// false conflicts whose vectors were joined in place instead of
    /// stashing (see [`crate::recon::ReconStats::identical_merges`]).
    pub identical_merges: u64,
    /// Chunks shipped over the wire by delta-aware pulls (DESIGN.md
    /// §4.13). Whole-file pulls count zero here; their cost
    /// shows up in `bytes_fetched` alone.
    pub blocks_shipped: u64,
    /// Chunks a delta-aware pull reused from the local replica instead of
    /// fetching (digest and length matched the remote's map).
    pub blocks_reused: u64,
}

impl PropagationStats {
    /// Accumulates another run's tallies.
    pub fn absorb(&mut self, other: PropagationStats) {
        self.notes_taken += other.notes_taken;
        self.files_pulled += other.files_pulled;
        self.dirs_reconciled += other.dirs_reconciled;
        self.entries_inserted += other.entries_inserted;
        self.entries_tombstoned += other.entries_tombstoned;
        self.already_current += other.already_current;
        self.conflicts += other.conflicts;
        self.requeued += other.requeued;
        self.requeued_down += other.requeued_down;
        self.requeued_timeout += other.requeued_timeout;
        self.peers_skipped += other.peers_skipped;
        self.rpcs_avoided += other.rpcs_avoided;
        self.rpcs_saved += other.rpcs_saved;
        self.bytes_fetched += other.bytes_fetched;
        self.identical_merges += other.identical_merges;
        self.blocks_shipped += other.blocks_shipped;
        self.blocks_reused += other.blocks_reused;
    }

    /// Folds in what a reconciliation step did on this run's behalf:
    /// everything it pulled, inserted, tombstoned and reported is this
    /// daemon run's work; losing it undercounts the pass (and E7).
    fn absorb_recon(&mut self, out: &ReconStats) {
        self.files_pulled += out.files_pulled;
        self.entries_inserted += out.entries_inserted;
        self.entries_tombstoned += out.entries_tombstoned;
        self.conflicts += out.update_conflicts;
        self.rpcs_saved += out.rpcs_saved;
        self.bytes_fetched += out.bytes_fetched;
        self.identical_merges += out.identical_merges;
        self.blocks_shipped += out.blocks_shipped;
        self.blocks_reused += out.blocks_reused;
    }
}

/// Runs one pass of the propagation daemon over `phys`'s new-version cache,
/// with no peer-health gating (every due origin is attempted).
///
/// `connect` maps an origin replica id to a [`ReplicaAccess`] (or fails when
/// the partition hides it). The caller supplies it because connectivity is
/// the logical layer's knowledge, not the physical layer's.
pub fn run_propagation<F>(
    phys: &FicusPhysical,
    policy: PropagationPolicy,
    connect: F,
) -> FsResult<PropagationStats>
where
    F: Fn(ReplicaId) -> FsResult<Box<dyn ReplicaAccess>>,
{
    run_propagation_with_health(phys, policy, None, None, connect)
}

/// Requeues a whole origin group after a failed (or skipped) exchange,
/// gating the retry on the origin's backoff window when health is tracked.
fn requeue_group(
    phys: &FicusPhysical,
    health: Option<&PeerHealth>,
    origin: ReplicaId,
    notes: Vec<(FicusFileId, NvcEntry)>,
) {
    let not_before = health.map(|h| h.next_attempt_at(origin));
    for (file, entry) in notes {
        match not_before {
            Some(t) => phys.requeue_notification_after(file, entry, t),
            None => phys.requeue_notification(file, entry),
        }
    }
}

/// Records a failed exchange with `origin` (when health is tracked) and
/// classifies it in `stats` as down-looking or transient.
fn tally_failure(
    stats: &mut PropagationStats,
    health: Option<&PeerHealth>,
    origin: ReplicaId,
    now: Timestamp,
    err: &FsError,
    notes_requeued: u64,
) {
    if let Some(h) = health {
        h.record_failure(origin, now);
    }
    stats.requeued += notes_requeued;
    match err {
        FsError::Unreachable => stats.requeued_down += notes_requeued,
        _ => stats.requeued_timeout += notes_requeued,
    }
}

/// Runs one pass of the propagation daemon over `phys`'s new-version cache.
///
/// With `health` supplied, origins whose backoff window is still open are
/// skipped without wire traffic (their notes are requeued gated on the
/// window), every failed exchange arms the origin's next window, and every
/// successful bulk fetch marks the origin Healthy again.
///
/// With `lcache` supplied, every version the daemon adopts (pull, conflict
/// stash, or directory-reconciliation step) invalidates the co-resident
/// logical layer's cached entries for the affected file — the daemon
/// advances local replica state without sending a note to its own host, so
/// it is itself an invalidation source.
pub fn run_propagation_with_health<F>(
    phys: &FicusPhysical,
    policy: PropagationPolicy,
    health: Option<&PeerHealth>,
    lcache: Option<&Lcache>,
    connect: F,
) -> FsResult<PropagationStats>
where
    F: Fn(ReplicaId) -> FsResult<Box<dyn ReplicaAccess>>,
{
    let now = phys_now(phys);
    let mut stats = PropagationStats::default();
    // A note is due once it has aged past the policy's delay; early in the
    // simulation (now < delay) nothing can be due yet.
    let cutoff = match policy {
        PropagationPolicy::Immediate => now,
        PropagationPolicy::Delayed(d) => match now.0.checked_sub(d) {
            Some(t) => Timestamp(t),
            None => return Ok(stats),
        },
    };
    // Group the due notes by origin: one connection — and one bulk
    // attribute fetch — serves every note a given origin produced, instead
    // of a connect + attribute round trip per note.
    let mut by_origin: std::collections::BTreeMap<ReplicaId, Vec<(FicusFileId, NvcEntry)>> =
        std::collections::BTreeMap::new();
    for (file, entry) in phys.take_due_notifications(cutoff, now) {
        stats.notes_taken += 1;
        by_origin
            .entry(entry.origin)
            .or_default()
            .push((file, entry));
    }
    for (origin, notes) in by_origin {
        if let Some(h) = health {
            if !h.should_attempt(origin, now) {
                // Backed off: hold the notes without touching the wire.
                // Deliberately NOT `requeued` — nothing was attempted.
                stats.peers_skipped += 1;
                stats.rpcs_avoided += notes.len() as u64;
                requeue_group(phys, health, origin, notes);
                continue;
            }
        }
        let access = match connect(origin) {
            Ok(a) => a,
            Err(e) => {
                tally_failure(&mut stats, health, origin, now, &e, notes.len() as u64);
                requeue_group(phys, health, origin, notes);
                continue;
            }
        };
        let files: Vec<FicusFileId> = notes.iter().map(|(file, _)| *file).collect();
        let all_attrs = match access.attrs(&files) {
            Ok(a) => a,
            Err(e @ (FsError::Unreachable | FsError::TimedOut)) => {
                tally_failure(&mut stats, health, origin, now, &e, notes.len() as u64);
                requeue_group(phys, health, origin, notes);
                continue;
            }
            Err(e) => return Err(e),
        };
        if let Some(h) = health {
            h.record_success(origin);
        }
        // n notes answered by one batch instead of n attribute fetches.
        stats.rpcs_saved += (notes.len() - 1) as u64;
        for ((file, entry), remote_attrs) in notes.into_iter().zip(all_attrs) {
            let result = remote_attrs.and_then(|attrs| {
                propagate_one(phys, access.as_ref(), file, &attrs, lcache, &mut stats)
            });
            match result {
                Ok(()) => {}
                // The file vanished at the origin (removed), before or
                // mid-pull; reconciliation of its directory will carry the
                // tombstone. Drop the note.
                Err(FsError::NotFound) => {}
                Err(e @ (FsError::Unreachable | FsError::TimedOut)) => {
                    tally_failure(&mut stats, health, origin, now, &e, 1);
                    requeue_group(phys, health, origin, vec![(file, entry)]);
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(stats)
}

/// Pulls one noted file (or reconciles one noted directory) whose remote
/// attributes were already fetched (in bulk) by the daemon loop.
fn propagate_one(
    phys: &FicusPhysical,
    access: &dyn ReplicaAccess,
    file: FicusFileId,
    remote_attrs: &crate::attrs::ReplAttrs,
    lcache: Option<&Lcache>,
    stats: &mut PropagationStats,
) -> FsResult<()> {
    if remote_attrs.kind.is_directory_like() {
        // "Simply copying directory contents is incorrect; in a sense, a
        // directory operation needs to be replayed at each replica. In
        // Ficus, a directory reconciliation algorithm is used for this
        // purpose."
        if phys.repl_attrs(file).is_err() {
            // We don't store this directory yet; the subtree protocol will
            // adopt it from its parent.
            return Ok(());
        }
        let out = recon::reconcile_dir(phys, access, file)?;
        stats.dirs_reconciled += 1;
        stats.absorb_recon(&out);
        if let Some(lc) = lcache {
            if out.files_pulled
                + out.entries_inserted
                + out.entries_tombstoned
                + out.update_conflicts
                + out.identical_merges
                > 0
            {
                // The step may have touched files we can't enumerate here
                // (child pulls); flushing the volume is the safe coarse
                // invalidation.
                lc.invalidate_volume(phys.volume());
            }
        }
        return Ok(());
    }
    // "For regular files, update propagation is simply a matter of
    // atomically replacing the contents of the local replica with those of
    // a newer version remote replica" — the same step reconciliation takes.
    let mut out = ReconStats::default();
    let step = recon::reconcile_file_with_attrs(phys, access, file, remote_attrs, &mut out);
    stats.absorb_recon(&out);
    let step = step?;
    if step == FileStep::Current {
        stats.already_current += 1;
    }
    if let Some(lc) = lcache {
        if step.changed_state() {
            lc.invalidate_file(phys.volume(), file);
        }
    }
    Ok(())
}

/// The physical layer's current time (helper: the daemon shares its clock).
fn phys_now(phys: &FicusPhysical) -> Timestamp {
    phys.clock().now()
}

#[cfg(test)]
mod tests;
