//! Chunked replica storage: the block map over fixed-size chunks.
//!
//! The paper's shadow commit (§3.2) rewrites the *whole* file — its own
//! footnote 5 concedes the cost is "significant... if the client is
//! updating a few points in a large file". This module is the repair: a
//! regular file's replica is stored as a small **map file** (the encoded
//! [`ChunkMap`], living under the file's hex name) over one **extent
//! object** (`<hex>.x`) cut into fixed-size **slots**; each map entry names
//! the slot holding its chunk. Shadow commit then copies only the *dirty*
//! chunks into slots the committed map does not reference, fsyncs the
//! extent once, writes a new map, and atomically swaps the map reference
//! with one UFS rename — the §3.2 crash guarantee is unchanged because the
//! old map and every slot it names stay intact until the swap. A slot no
//! map references is simply free: there is no debris for recovery to sweep
//! beyond the orphaned shadow map.
//!
//! The map is a fixed 17-byte [`MapHeader`] followed by fixed 20-byte
//! entries, so the physical layer reads and rewrites *only the entries an
//! operation touches* ([`decode_entries`] validates them exactly as the
//! whole-map [`ChunkMap::decode`] does — it is the same code).
//!
//! The same map doubles as the delta-propagation manifest: peers fetch it
//! over the overloaded-lookup control plane (`;f;map;<hex>`), diff the
//! per-chunk digests against their own copy, and pull only the changed
//! chunk ranges (`;f;blk;<hex>;<start>;<count>`, every range of a pull in
//! one exchange) — a [`Patch`], whose clean chunks the store carries by
//! reference without reading them.
//!
//! This file is on the lint R3 list: the decode path serves remote
//! requests, so nothing here may panic on malformed input.

use std::collections::BTreeSet;

use ficus_nfs::wire::{Dec, Enc};
use ficus_vnode::{FsError, FsResult};

/// Default chunk size (one UFS block).
pub const DEFAULT_CHUNK_SIZE: u32 = 4096;

/// Codec version tag of the map file / wire frame.
const MAP_VERSION: u8 = 1;

/// FNV-1a 64-bit digest of a chunk's bytes. Deterministic, dependency-free,
/// and cheap — it guards against *accidental* divergence (a stale or torn
/// chunk), not an adversary, matching the trust model of the rest of the
/// wire.
#[must_use]
pub fn digest(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encoded size of a [`MapHeader`].
pub const MAP_HEADER_LEN: usize = 17;
/// Encoded size of one [`ChunkEntry`].
pub const MAP_ENTRY_LEN: usize = 20;

/// One chunk of a replica's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Index of the extent slot holding the chunk: its bytes live at
    /// `slot * chunk_size` in `<hex>.x`. Meaningful only to the replica
    /// that stores the extent — it travels in the `;f;map;` frame, and
    /// receivers ignore it.
    pub slot: u64,
    /// Bytes stored in this chunk (equal to the map's `chunk_size` for all
    /// but the last chunk).
    pub len: u32,
    /// FNV-1a 64 digest of the chunk's bytes (the delta-propagation key).
    pub digest: u64,
}

/// The block map of one regular-file replica: which chunk files, in order,
/// compose the contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMap {
    /// Chunk size this map was built with.
    pub chunk_size: u32,
    /// Logical file size in bytes.
    pub size: u64,
    /// The chunks, in file order. Invariant: `chunks.len()` equals
    /// `size.div_ceil(chunk_size)` and the entry lengths sum to `size`.
    pub chunks: Vec<ChunkEntry>,
}

impl ChunkMap {
    /// The map of an empty file (zero chunks).
    #[must_use]
    pub fn empty(chunk_size: u32) -> Self {
        ChunkMap {
            chunk_size: chunk_size.max(1),
            size: 0,
            chunks: Vec::new(),
        }
    }

    /// The map of `data` cut at `chunk_size`, every chunk digested. Slots
    /// are left at zero: placing chunks is the store's business.
    #[must_use]
    pub fn of(data: &[u8], chunk_size: u32) -> Self {
        let entry = |piece: &[u8]| ChunkEntry {
            slot: 0,
            len: piece.len() as u32,
            digest: digest(piece),
        };
        let chunk_size = chunk_size.max(1);
        ChunkMap {
            chunk_size,
            size: data.len() as u64,
            chunks: data.chunks(chunk_size as usize).map(entry).collect(),
        }
    }

    /// The fixed-size header describing this map.
    #[must_use]
    pub fn header(&self) -> MapHeader {
        MapHeader {
            chunk_size: self.chunk_size,
            size: self.size,
            count: self.chunks.len() as u32,
        }
    }

    /// Slot indices no entry references, lowest first (unbounded: past the
    /// highest referenced slot every index is free). Taking free slots in
    /// this order is what keeps slot placement deterministic per seed.
    pub fn free_slots(&self) -> impl Iterator<Item = u64> {
        let used: BTreeSet<u64> = self.chunks.iter().map(|c| c.slot).collect();
        (0u64..).filter(move |s| !used.contains(s))
    }

    /// Serializes to the map-file / wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = self.header().encode();
        buf.extend_from_slice(&encode_entries(&self.chunks));
        buf
    }

    /// Parses and validates a map. Truncated input, trailing bytes, and any
    /// shape that violates the size/chunk-count invariants are rejected —
    /// this is the frame remote peers hand us, so it must be total.
    pub fn decode(buf: &[u8]) -> FsResult<Self> {
        let (head, entries) = buf.split_at_checked(MAP_HEADER_LEN).ok_or(FsError::Io)?;
        let header = MapHeader::decode(head)?;
        if buf.len() as u64 != header.file_len() {
            return Err(FsError::Io);
        }
        let chunks = decode_entries(&header, 0, entries)?;
        Ok(ChunkMap {
            chunk_size: header.chunk_size,
            size: header.size,
            chunks,
        })
    }
}

/// The fixed-size head of a map file: enough to locate and validate any
/// entry without reading the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapHeader {
    /// Chunk size the map was built with (never zero once decoded).
    pub chunk_size: u32,
    /// Logical file size in bytes.
    pub size: u64,
    /// Number of entries; always `size.div_ceil(chunk_size)`.
    pub count: u32,
}

impl MapHeader {
    /// Serializes the [`MAP_HEADER_LEN`]-byte header.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(MAP_VERSION);
        e.u32(self.chunk_size);
        e.u64(self.size);
        e.u32(self.count);
        e.finish()
    }

    /// Parses and validates exactly [`MAP_HEADER_LEN`] bytes.
    pub fn decode(buf: &[u8]) -> FsResult<Self> {
        let mut d = Dec::new(buf);
        if d.u8()? != MAP_VERSION {
            return Err(FsError::Io);
        }
        let chunk_size = d.u32()?;
        if chunk_size == 0 {
            return Err(FsError::Io);
        }
        let size = d.u64()?;
        let count = d.u32()?;
        if u64::from(count) != size.div_ceil(u64::from(chunk_size)) || !d.at_end() {
            return Err(FsError::Io);
        }
        Ok(MapHeader {
            chunk_size,
            size,
            count,
        })
    }

    /// Total encoded length of the map this header describes.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        entry_offset(self.count)
    }

    /// Bytes chunk `idx` must hold: `chunk_size` for every chunk but the
    /// last, which holds the remainder.
    #[must_use]
    pub fn chunk_len(&self, idx: u32) -> u32 {
        let start = u64::from(idx) * u64::from(self.chunk_size);
        self.size
            .saturating_sub(start)
            .min(u64::from(self.chunk_size)) as u32
    }
}

/// A file's new contents expressed against a copy that already holds most
/// of them: the map of the new contents, and the bytes of only the chunks
/// that copy cannot supply. Every other chunk is carried by reference — the
/// store keeps its slot without reading it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patch<'a> {
    /// Map of the new contents (its entries' slots mean nothing here).
    pub map: ChunkMap,
    /// Ascending indices of the chunks whose bytes `data` supplies.
    pub dirty: Vec<u32>,
    /// Either the whole new contents, or only the `dirty` chunks back to
    /// back (what a delta pull fetched) — told apart by length, since the
    /// two layouts coincide exactly when every chunk is dirty.
    pub data: &'a [u8],
}

/// Byte offset of entry `idx` in an encoded map.
#[must_use]
pub fn entry_offset(idx: u32) -> u64 {
    MAP_HEADER_LEN as u64 + u64::from(idx) * MAP_ENTRY_LEN as u64
}

/// Serializes a run of entries ([`MAP_ENTRY_LEN`] bytes each).
#[must_use]
pub fn encode_entries(entries: &[ChunkEntry]) -> Vec<u8> {
    let mut e = Enc::new();
    for c in entries {
        e.u64(c.slot);
        e.u32(c.len);
        e.u64(c.digest);
    }
    e.finish()
}

/// Parses the run of entries starting at index `first` of the map
/// `header` describes. `buf` must hold whole entries that all lie inside
/// the map, and each must carry exactly the length its position dictates
/// (full chunks everywhere but a non-empty remainder at the tail).
pub fn decode_entries(header: &MapHeader, first: u32, buf: &[u8]) -> FsResult<Vec<ChunkEntry>> {
    let n = buf.len() / MAP_ENTRY_LEN;
    if !buf.len().is_multiple_of(MAP_ENTRY_LEN)
        || u64::from(first) + n as u64 > u64::from(header.count)
    {
        return Err(FsError::Io);
    }
    let mut d = Dec::new(buf);
    let mut out = Vec::with_capacity(n);
    for idx in first..first + n as u32 {
        let slot = d.u64()?;
        let len = d.u32()?;
        if len != header.chunk_len(idx) {
            return Err(FsError::Io);
        }
        let digest = d.u64()?;
        out.push(ChunkEntry { slot, len, digest });
    }
    Ok(out)
}

/// Collapses sorted chunk indices into `(start, count)` ranges, the unit of
/// the `;f;blk;` control fetch (one range per control name, many names per
/// bulk RPC).
#[must_use]
pub fn contiguous_ranges(indices: &[u32]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for &i in indices {
        match out.last_mut() {
            Some((start, count)) if *start + *count == i => *count += 1,
            _ => out.push((i, 1)),
        }
    }
    out
}

/// Where a chunked shadow commit can be made to crash (the chaos / recovery
/// test matrix of DESIGN.md §4.13). Armed via
/// `FicusPhysical::arm_commit_crash`; one-shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPoint {
    /// Power loss partway through writing a dirty chunk: a torn chunk sits
    /// in an extent slot no map references.
    MidChunkWrite,
    /// All dirty chunks and the shadow map are on disk, but the atomic
    /// rename has not happened: the original map still governs.
    BeforeMapSwap,
    /// The map swap committed but the merged attributes were never written:
    /// the data is newer than its recorded vector.
    BeforeAttrWrite,
}

/// Counter snapshot for the chunked-storage machinery (R4-audited).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Chunks written into extent slots (commit, adoption, and local
    /// writes).
    pub chunks_written: u64,
    /// Chunks a delta commit kept from the previous map (digest match).
    pub chunks_reused: u64,
    /// Shadow maps atomically swapped in (successful commits).
    pub maps_committed: u64,
    /// Commits unwound on an error path (shadow map discarded; the slots
    /// it filled were never referenced, so they are simply free again).
    pub commit_aborts: u64,
    /// Shadow maps discarded by crash recovery.
    pub shadows_discarded: u64,
    /// Extents with no map (a crashed adoption) discarded by crash
    /// recovery.
    pub extents_discarded: u64,
    /// Shadow maps or map-less extents recovery tried and FAILED to
    /// discard — accounted so debris surviving every recovery is visible.
    pub shadow_discard_failures: u64,
}

impl ChunkStats {
    /// Folds another snapshot into this one (multi-replica aggregation).
    pub fn absorb(&mut self, other: &ChunkStats) {
        self.chunks_written += other.chunks_written;
        self.chunks_reused += other.chunks_reused;
        self.maps_committed += other.maps_committed;
        self.commit_aborts += other.commit_aborts;
        self.shadows_discarded += other.shadows_discarded;
        self.extents_discarded += other.extents_discarded;
        self.shadow_discard_failures += other.shadow_discard_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(chunk_size: u32, pieces: &[&[u8]]) -> ChunkMap {
        let size = pieces.iter().map(|p| p.len() as u64).sum();
        ChunkMap {
            chunk_size,
            size,
            chunks: pieces
                .iter()
                .enumerate()
                .map(|(i, p)| ChunkEntry {
                    slot: 100 + i as u64,
                    len: p.len() as u32,
                    digest: digest(p),
                })
                .collect(),
        }
    }

    #[test]
    fn empty_and_full_round_trip() {
        let m = ChunkMap::empty(4096);
        assert_eq!(ChunkMap::decode(&m.encode()).unwrap(), m);
        let m = map(4, &[b"abcd", b"efgh", b"xy"]);
        assert_eq!(ChunkMap::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn truncation_fuzz_rejects_every_cut() {
        let m = map(4, &[b"abcd", b"efgh", b"xy"]);
        let buf = m.encode();
        for cut in 0..buf.len() {
            assert!(ChunkMap::decode(&buf[..cut]).is_err(), "cut={cut}");
        }
        let mut long = buf;
        long.push(0);
        assert!(ChunkMap::decode(&long).is_err(), "trailing byte accepted");
    }

    #[test]
    fn invariant_violations_rejected() {
        // Wrong version.
        let mut buf = ChunkMap::empty(4096).encode();
        buf[0] = 9;
        assert!(ChunkMap::decode(&buf).is_err());
        // Zero chunk size (`empty()` clamps, so encode the wire by hand).
        let mut e = Enc::new();
        e.u8(1);
        e.u32(0);
        e.u64(0);
        e.u32(0);
        assert!(ChunkMap::decode(&e.finish()).is_err());
        // Count/size mismatch: 2 chunks claimed for a 4-byte file at size 4.
        let good = map(4, &[b"abcd"]);
        let mut bad = good.clone();
        bad.chunks.push(bad.chunks[0]);
        assert!(ChunkMap::decode(&bad.encode()).is_err());
        // Interior short chunk.
        let mut bad = map(4, &[b"abcd", b"efgh", b"xy"]);
        bad.chunks[0].len = 3;
        assert!(ChunkMap::decode(&bad.encode()).is_err());
        // Oversized tail.
        let mut bad = map(4, &[b"abcd", b"xy"]);
        bad.chunks[1].len = 5;
        assert!(ChunkMap::decode(&bad.encode()).is_err());
    }

    proptest! {
        /// Arbitrary bytes never panic the map decoder.
        #[test]
        fn prop_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ChunkMap::decode(&bytes);
        }
    }

    #[test]
    fn entries_decode_by_index_exactly_as_the_whole_map_does() {
        let m = map(4, &[b"abcd", b"efgh", b"ijkl", b"xy"]);
        let buf = m.encode();
        let header = MapHeader::decode(&buf[..MAP_HEADER_LEN]).unwrap();
        assert_eq!(header, m.header());
        assert_eq!(header.file_len(), buf.len() as u64);
        // Any window of whole entries decodes to the same entries the
        // whole-map decode yields, and re-encodes to the same bytes.
        for first in 0..4u32 {
            for n in 0..=(4 - first) {
                let lo = entry_offset(first) as usize;
                let hi = entry_offset(first + n) as usize;
                let got = decode_entries(&header, first, &buf[lo..hi]).unwrap();
                assert_eq!(got, m.chunks[first as usize..(first + n) as usize]);
                assert_eq!(encode_entries(&got), &buf[lo..hi]);
            }
        }
        // A window past the map, a ragged window, and an entry whose length
        // disagrees with its position are all rejected.
        let tail = &buf[entry_offset(3) as usize..];
        assert!(decode_entries(&header, 4, tail).is_err(), "past the end");
        assert!(decode_entries(&header, 3, &tail[..19]).is_err(), "ragged");
        assert!(
            decode_entries(&header, 2, tail).is_err(),
            "tail len mid-map"
        );
        let full = &buf[entry_offset(0) as usize..entry_offset(1) as usize];
        assert!(
            decode_entries(&header, 3, full).is_err(),
            "full len at tail"
        );
    }

    #[test]
    fn free_slots_are_the_lowest_unreferenced_indices() {
        let mut m = map(4, &[b"abcd", b"efgh", b"xy"]);
        for (c, slot) in m.chunks.iter_mut().zip([0u64, 3, 1]) {
            c.slot = slot;
        }
        assert_eq!(m.free_slots().take(4).collect::<Vec<_>>(), vec![2, 4, 5, 6]);
        assert_eq!(
            ChunkMap::empty(4).free_slots().take(2).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn map_of_bytes_and_digest_are_stable() {
        assert_eq!(ChunkMap::of(b"", 4), ChunkMap::empty(4));
        let mut want = map(4, &[b"abcd", b"efgh", b"ij"]);
        want.chunks.iter_mut().for_each(|c| c.slot = 0);
        assert_eq!(ChunkMap::of(b"abcdefghij", 4), want);
        assert_eq!(ChunkMap::decode(&want.encode()).unwrap(), want);
        assert_eq!(digest(b"abcd"), digest(b"abcd"));
        assert_ne!(digest(b"abcd"), digest(b"abce"));
        // The FNV-1a offset basis: empty input digests to the basis.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn contiguous_ranges_collapse() {
        assert!(contiguous_ranges(&[]).is_empty());
        assert_eq!(contiguous_ranges(&[3]), vec![(3, 1)]);
        assert_eq!(
            contiguous_ranges(&[0, 1, 2, 7, 9, 10]),
            vec![(0, 3), (7, 1), (9, 2)]
        );
    }

    #[test]
    fn stats_absorb_folds_every_counter() {
        let a = ChunkStats {
            chunks_written: 1,
            chunks_reused: 2,
            maps_committed: 3,
            commit_aborts: 4,
            shadows_discarded: 5,
            extents_discarded: 6,
            shadow_discard_failures: 7,
        };
        let mut b = a;
        b.absorb(&a);
        assert_eq!(b.chunks_written, 2);
        assert_eq!(b.chunks_reused, 4);
        assert_eq!(b.maps_committed, 6);
        assert_eq!(b.commit_aborts, 8);
        assert_eq!(b.shadows_discarded, 10);
        assert_eq!(b.extents_discarded, 12);
        assert_eq!(b.shadow_discard_failures, 14);
    }
}
