//! Reconciliation (paper §3.3).
//!
//! "A reconciliation algorithm examines the state of two replicas,
//! determines which operations have been performed on each, selects a set of
//! operations to perform on the local replica which reflect previously
//! unseen activity at the remote replica, and then applies those operations
//! to the local replica."
//!
//! Two levels:
//!
//! * [`reconcile_dir`] — one directory: merge the remote entry set (the
//!   automatic repair), materialize storage for newly adopted children, and
//!   reconcile the *contents* of every regular file present on both sides —
//!   pulling dominated versions with the shadow commit, and detecting &
//!   reporting concurrent updates.
//! * [`reconcile_subtree`] — "executed periodically to traverse an entire
//!   subgraph (not just a single node), and reconcile the local replica
//!   against a remote replica". A breadth-first sweep from the volume root,
//!   driving [`reconcile_dir`] at every directory (graft points included —
//!   their replica lists are directory entries and ride the same machinery,
//!   §4.3).
//!
//! Reconciliation is one-directional (pull): running it at both replicas —
//! as the periodic daemon does — converges them.
//!
//! At scale, walking the whole subtree against every peer is the cost that
//! kills: O(files × peers) per sweep. [`reconcile_incremental`] replaces
//! the walk with the change-log cursor protocol (see [`crate::changelog`]):
//! ask the remote "what changed since my cursor?", feed only that dirty
//! suffix through the same per-directory and per-file machinery, and fall
//! back to the full walk only when the cursor is unusable (first contact,
//! e.g. a freshly grafted replica, or log truncation).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ficus_vnode::{FsError, FsResult};

use crate::access::{pull_file, FilePull, ReplicaAccess};
use crate::attrs::ReplAttrs;
use crate::changelog::ChangeRecord;
use crate::chunks::Patch;
use crate::dirfile::FicusEntry;
use crate::ids::{FicusFileId, ROOT_FILE};
use crate::phys::FicusPhysical;

/// Tallies from one reconciliation pass (experiment E5's currency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconStats {
    /// Directories examined.
    pub dirs_examined: u64,
    /// Live entries adopted from the remote replica.
    pub entries_inserted: u64,
    /// Tombstones adopted.
    pub entries_tombstoned: u64,
    /// Tombstones purged by two-phase GC.
    pub tombstones_purged: u64,
    /// Regular files whose newer remote contents were pulled in.
    pub files_pulled: u64,
    /// Concurrent-update conflicts detected (stashed and reported).
    pub update_conflicts: u64,
    /// Subtrees skipped because the remote replica was missing them.
    pub remote_missing: u64,
    /// Per-file protocol operations answered from a bulk response instead
    /// of issued individually: child attribute reads served by the
    /// directory snapshot, and conflict data fetches skipped because the
    /// divergence was already on file. How many wire round trips each
    /// avoided operation would have cost is the transport's business;
    /// `NetStats` measures that.
    pub rpcs_saved: u64,
    /// File data bytes pulled from the remote.
    pub bytes_fetched: u64,
    /// Peers this pass never contacted because their health backoff window
    /// was still open. Not failures: no wire traffic happened.
    pub peers_skipped: u64,
    /// Whole-pass exchanges avoided by those skips (one reconciliation
    /// attempt per skipped peer).
    pub rpcs_avoided: u64,
    /// Peer attempts that failed on the wire while the peer was still
    /// considered retry-worthy (health state short of `Down`). A scheduler
    /// seeing these on an otherwise quiescent round should wait out the
    /// backoff and try again rather than declare convergence; once the
    /// peer is `Down` its failures stop counting here.
    pub peers_failed: u64,
    /// Concurrent versions whose fetched bytes matched the local content
    /// exactly — false conflicts (same data, divergent histories): the
    /// vectors were joined in place instead of stashing a copy. Symmetric
    /// automatic resolutions converge through this counter.
    pub identical_merges: u64,
    /// Chunks shipped over the wire by delta-aware pulls (DESIGN.md
    /// §4.13). Whole-file pulls count zero here; their cost
    /// shows up in `bytes_fetched` alone.
    pub blocks_shipped: u64,
    /// Chunks a delta-aware pull reused from the local replica instead of
    /// fetching (digest and length matched the remote's map).
    pub blocks_reused: u64,
}

impl ReconStats {
    /// Accumulates another pass's tallies.
    pub fn absorb(&mut self, other: ReconStats) {
        self.dirs_examined += other.dirs_examined;
        self.entries_inserted += other.entries_inserted;
        self.entries_tombstoned += other.entries_tombstoned;
        self.tombstones_purged += other.tombstones_purged;
        self.files_pulled += other.files_pulled;
        self.update_conflicts += other.update_conflicts;
        self.remote_missing += other.remote_missing;
        self.rpcs_saved += other.rpcs_saved;
        self.bytes_fetched += other.bytes_fetched;
        self.peers_skipped += other.peers_skipped;
        self.rpcs_avoided += other.rpcs_avoided;
        self.peers_failed += other.peers_failed;
        self.identical_merges += other.identical_merges;
        self.blocks_shipped += other.blocks_shipped;
        self.blocks_reused += other.blocks_reused;
    }

    fn count_pull(&mut self, pulled: &FilePull) {
        self.bytes_fetched += pulled.bytes_fetched;
        self.blocks_shipped += pulled.blocks_shipped;
        self.blocks_reused += pulled.blocks_reused;
    }

    /// Whether the pass changed nothing (used to detect convergence).
    /// Deliberately ignores the cost counters (`rpcs_saved`,
    /// `bytes_fetched` can be non-zero on a pass that changed no state) and
    /// the skip counters (a skipped peer changed nothing *yet*; the
    /// scheduler must consult them separately before declaring the world
    /// converged — see `FicusWorld::reconcile_until_quiescent`).
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.entries_inserted == 0
            && self.entries_tombstoned == 0
            && self.tombstones_purged == 0
            && self.files_pulled == 0
            && self.update_conflicts == 0
            && self.identical_merges == 0
    }
}

/// What [`reconcile_file_with_attrs`] did with one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileStep {
    /// The remote replica does not know the file.
    RemoteMissing,
    /// This replica stores no copy; the file's entry (and its adoption)
    /// rides its parent directory's reconciliation.
    NotStored,
    /// The local history covers the remote's: nothing to do.
    Current,
    /// Concurrent histories, and this exact divergence is already on file:
    /// neither re-fetched nor re-reported.
    AlreadyReported,
    /// Concurrent histories over identical bytes — a false conflict: the
    /// vectors were joined in place.
    Absorbed,
    /// Concurrent histories: the remote version was stashed and the
    /// conflict reported to the owner; both versions preserved.
    Stashed,
    /// The remote history dominated: its version replaced the local one.
    Applied,
}

impl FileStep {
    /// Whether the step changed local replica state (what a co-resident
    /// cache must hear about).
    #[must_use]
    pub fn changed_state(self) -> bool {
        matches!(
            self,
            FileStep::Absorbed | FileStep::Stashed | FileStep::Applied
        )
    }
}

/// Reconciles the contents of one regular file against the remote replica.
///
/// Pulls when the remote history dominates, does nothing when the local one
/// does, and stashes + reports a conflict when they diverged.
pub fn reconcile_file(
    local: &FicusPhysical,
    remote: &dyn ReplicaAccess,
    file: FicusFileId,
    stats: &mut ReconStats,
) -> FsResult<FileStep> {
    match remote.attrs(&[file])?.pop().ok_or(FsError::Io)? {
        Ok(a) => reconcile_file_with_attrs(local, remote, file, &a, stats),
        Err(FsError::NotFound) => {
            stats.remote_missing += 1;
            Ok(FileStep::RemoteMissing)
        }
        Err(e) => Err(e),
    }
}

/// [`reconcile_file`] when the remote attributes are already in hand (from
/// a bulk directory or attribute fetch). The only place that compares the
/// two vectors, recognizes a divergence already on file, pulls, and then
/// applies, absorbs or stashes — both daemons decide through it.
pub fn reconcile_file_with_attrs(
    local: &FicusPhysical,
    remote: &dyn ReplicaAccess,
    file: FicusFileId,
    remote_attrs: &ReplAttrs,
    stats: &mut ReconStats,
) -> FsResult<FileStep> {
    let local_vv = match local.file_vv(file) {
        Ok(vv) => vv,
        Err(FsError::NotFound) => return Ok(FileStep::NotStored),
        Err(e) => return Err(e),
    };
    if local_vv.covers(&remote_attrs.vv) {
        return Ok(FileStep::Current);
    }
    let concurrent = local_vv.concurrent_with(&remote_attrs.vv);
    // The dedup check comes before the data fetch: a divergence that is
    // already on file costs no transfer on later passes.
    if concurrent
        && local
            .conflicts()
            .for_file(file)
            .iter()
            .any(|r| r.other == remote.replica() && r.vv == remote_attrs.vv)
    {
        stats.rpcs_saved += 1; // the data fetch we did not repeat
        return Ok(FileStep::AlreadyReported);
    }
    let pulled = pull_file(remote, Some(local), file)?;
    stats.count_pull(&pulled);
    if !concurrent {
        match pulled.map {
            Some(map) => {
                let (dirty, data) = (pulled.dirty, &pulled.data[..]);
                local.apply_patch(file, &remote_attrs.vv, Patch { map, dirty, data })?;
            }
            None => local.apply_remote_version(file, &remote_attrs.vv, &pulled.data)?,
        }
        stats.files_pulled += 1;
        return Ok(FileStep::Applied);
    }
    // Only a divergence needs the remote version whole, to compare and to
    // stash: the pulled chunks laid over the local contents.
    let size = local.storage_attr(file)?.size as usize;
    let mine = local.read(file, 0, size)?;
    let theirs = pulled.into_contents(&mine)?;
    if mine[..] == theirs[..] {
        local.absorb_identical_version(file, &remote_attrs.vv)?;
        stats.identical_merges += 1;
        return Ok(FileStep::Absorbed);
    }
    local.stash_conflict_version(file, remote.replica(), &remote_attrs.vv, &theirs)?;
    stats.update_conflicts += 1;
    Ok(FileStep::Stashed)
}

/// Reconciles one directory (entries, adopted children, file contents)
/// against the remote replica. Does not recurse.
pub fn reconcile_dir(
    local: &FicusPhysical,
    remote: &dyn ReplicaAccess,
    dir: FicusFileId,
) -> FsResult<ReconStats> {
    let mut stats = ReconStats::default();
    // One bulk fetch answers the directory's entry set, its attributes, and
    // every live child's attributes; a child absent from the map is a child
    // the remote could not describe, i.e. a per-file `NotFound`.
    let dx = match remote.dir_with_children(dir) {
        Ok(x) => x,
        Err(FsError::NotFound) => {
            stats.remote_missing += 1;
            return Ok(stats);
        }
        Err(e) => return Err(e),
    };
    stats.dirs_examined += 1;
    let out = local.merge_dir(dir, &dx.entries, remote.replica(), &dx.attrs.vv)?;
    stats.entries_inserted += out.inserted.len() as u64;
    stats.entries_tombstoned += out.tombstoned.len() as u64;
    stats.tombstones_purged += out.purged.len() as u64;

    // Storage for a regular file this replica has an entry for but no copy
    // of: the pull knows there is nothing local to build on and does not
    // probe for it.
    let adopt_file = |entry: &FicusEntry, attrs: &ReplAttrs, stats: &mut ReconStats| {
        let pulled = pull_file(remote, None, entry.file)?;
        stats.count_pull(&pulled);
        local.adopt_file(dir, entry.file, entry.kind, &attrs.vv, &pulled.data)?;
        stats.files_pulled += 1;
        Ok::<(), FsError>(())
    };

    // Materialize storage for adopted entries.
    for id in &out.inserted {
        let Some(entry) = dx.entries.find(*id) else {
            continue;
        };
        let Some(child_attrs) = dx.children.get(&entry.file) else {
            continue; // vanished at the remote since the entry was written
        };
        stats.rpcs_saved += 1; // attribute read answered by the bulk fetch
        if entry.kind.is_directory_like() {
            local.adopt_dir(dir, entry.file, entry.kind, &child_attrs.vv)?;
        } else {
            adopt_file(entry, child_attrs, &mut stats)?;
        }
    }

    // Reconcile contents of regular files present on both sides.
    let merged = local.dir_entries(dir)?;
    for entry in merged.live() {
        if entry.kind.is_directory_like() {
            continue;
        }
        let Some(attrs) = dx.children.get(&entry.file) else {
            if local.file_vv(entry.file).is_ok() {
                stats.remote_missing += 1; // local-only entry
            }
            continue;
        };
        stats.rpcs_saved += 1;
        if local.file_vv(entry.file).is_err() {
            // Entry known but storage never arrived (e.g. a previous pass
            // was interrupted): adopt now.
            adopt_file(entry, attrs, &mut stats)?;
        } else {
            reconcile_file_with_attrs(local, remote, entry.file, attrs, &mut stats)?;
        }
    }
    Ok(stats)
}

/// The periodic protocol: breadth-first reconciliation of the whole volume
/// subgraph rooted at the volume root.
pub fn reconcile_subtree(
    local: &FicusPhysical,
    remote: &dyn ReplicaAccess,
) -> FsResult<ReconStats> {
    let mut stats = ReconStats::default();
    let mut queue = VecDeque::from([ROOT_FILE]);
    let mut seen: BTreeSet<FicusFileId> = BTreeSet::new();
    while let Some(dir) = queue.pop_front() {
        if !seen.insert(dir) {
            continue; // the name space is a DAG (§2.5)
        }
        stats.absorb(reconcile_dir(local, remote, dir)?);
        let entries = local.dir_entries(dir)?;
        for e in entries.live() {
            if e.kind.is_directory_like() {
                queue.push_back(e.file);
            }
        }
    }
    Ok(stats)
}

/// O(changes) reconciliation: pull the remote's change-log suffix since
/// this replica's cursor and reconcile only the files and directories it
/// names, instead of walking the whole subtree.
///
/// Fallback rules (the only paths that pay for a full walk):
///
/// * **First contact** — no cursor for this peer yet (fresh world, or a
///   freshly grafted replica): full subtree walk, then adopt the remote's
///   `next_seq` as the cursor. The suffix is fetched *before* the walk, so
///   nothing committed before the walk can fall between cursor positions.
/// * **Cursor loss** — the remote's ring truncated past our cursor
///   ([`crate::changelog::LogSuffix::truncated`]): counted as a cursor
///   reset, then the same full walk + re-baseline.
///
/// Neither fallback touches `rpcs_avoided` — that counter is strictly the
/// scheduler's "peer skipped in backoff" currency, and double-charging it
/// here would let a graft masquerade as saved work.
///
/// The cursor only advances when the pass succeeds end to end; a wire
/// error mid-pass leaves it in place so the next pass re-pulls the same
/// records (all reconciliation steps are idempotent).
pub fn reconcile_incremental(
    local: &FicusPhysical,
    remote: &dyn ReplicaAccess,
) -> FsResult<ReconStats> {
    let peer = remote.replica();
    let cursor = local.peer_cursor(peer);
    let suffix = remote.changes(cursor.unwrap_or(0))?;
    let usable = cursor.is_some() && !suffix.truncated;
    if !usable {
        if cursor.is_some() {
            local.note_cursor_reset();
        }
        local.note_full_walk();
        let stats = reconcile_subtree(local, remote)?;
        local.set_peer_cursor(peer, suffix.next_seq);
        return Ok(stats);
    }

    let mut stats = ReconStats::default();
    // Dedup: only the newest record per file matters (its vector is the
    // remote's current one — every vector change is logged). BTreeMap keyed
    // by file, keeping the highest seq, then re-sorted by seq so parents
    // (whose mkdir preceded any child activity) reconcile before children.
    let mut newest: BTreeMap<FicusFileId, ChangeRecord> = BTreeMap::new();
    for r in suffix.records {
        newest.insert(r.file, r);
    }
    let mut dirs: Vec<&ChangeRecord> = newest.values().filter(|r| r.dir_like).collect();
    dirs.sort_by_key(|r| r.seq);
    for r in dirs {
        if local.dir_entries(r.file).is_err() {
            // The directory never reached this replica (its parent's
            // record would have adopted it) or is locally gone; either
            // way there is nothing to merge into here.
            continue;
        }
        stats.absorb(reconcile_dir(local, remote, r.file)?);
    }

    let mut files: Vec<FicusFileId> = Vec::new();
    for r in newest.values().filter(|r| !r.dir_like) {
        let Ok(local_vv) = local.file_vv(r.file) else {
            // No local storage: the file's entry (and adoption) rides its
            // parent directory's record, not the per-file path.
            continue;
        };
        if local_vv.covers(&r.vv) {
            // The logged history is already ours — the attribute fetch the
            // full walk would have issued is provably unnecessary.
            stats.rpcs_saved += 1;
            continue;
        }
        files.push(r.file);
    }
    if !files.is_empty() {
        let attrs = remote.attrs(&files)?;
        for (file, item) in files.iter().zip(attrs) {
            match item {
                Ok(a) => {
                    reconcile_file_with_attrs(local, remote, *file, &a, &mut stats)?;
                }
                Err(FsError::NotFound) => stats.remote_missing += 1,
                Err(e) => return Err(e),
            }
        }
    }
    local.set_peer_cursor(peer, suffix.next_seq);
    Ok(stats)
}

#[cfg(test)]
mod tests;
