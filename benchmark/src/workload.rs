//! The four workloads: what each is sized to, and the scripts it generates.
//!
//! Sizes fix the cache regime and must not change when a run is shortened:
//! `--seconds` scales only the number of measured segments (never below
//! [`BM_MIN_SEGMENTS`]); a segment's op count is a constant of the
//! workload, so every counter repeats exactly for a given seed and
//! `--seconds`.

use ficus_repro::core::resolver::{ResolutionPolicy, ResolverConfig};
use ficus_repro::core::sim::WorldParams;
use ficus_repro::ufs::Geometry;
use ficus_repro::workload::{DevTrace, TraceOp};

use crate::script::{BmOp, BmRng, BmStep};

/// Fewest measured segments a full run may have: the per-segment median
/// needs them.
pub const BM_MIN_SEGMENTS: usize = 7;

/// The workload names, in report order.
pub const BM_WORKLOADS: [&str; 4] = [
    "devcycle_local",
    "devcycle_remote",
    "bigfile",
    "partition_heal",
];

/// What the runner needs to know about a workload besides its scripts.
pub struct BmSpec {
    /// The world the full stack runs in.
    pub world: WorldParams,
    /// Host of each client, in client-index order.
    pub client_hosts: Vec<u32>,
    /// Measured segments for a 10-second run on the reference box.
    pub segments_per_10s: usize,
}

impl BmSpec {
    /// Measured segments for `--seconds`: proportional, floored at
    /// [`BM_MIN_SEGMENTS`]; `quick` (the in-tree tests) runs one.
    #[must_use]
    pub fn bm_segments(&self, seconds: u64, quick: bool) -> usize {
        if quick {
            return 1;
        }
        let scaled = (self.segments_per_10s as u64 * seconds + 5) / 10;
        (scaled as usize).max(BM_MIN_SEGMENTS)
    }
}

/// A workload: a spec plus a seeded script generator.
pub trait BmWorkload {
    /// Sizes and placement.
    fn bm_spec(&self) -> &BmSpec;
    /// The set-up script: creates every file the segments touch.
    fn bm_populate(&mut self) -> Vec<BmStep>;
    /// The next segment's script: the same amount of work every call, the
    /// seeded choices differ.
    fn bm_segment(&mut self) -> Vec<BmStep>;
}

/// Builds workload `name` for `seed`; `quick` shrinks a segment's op count
/// (file sizes and counts stay) for the in-tree tests.
#[must_use]
pub fn bm_workload(name: &str, seed: u64, quick: bool) -> Option<Box<dyn BmWorkload>> {
    match name {
        "devcycle_local" => Some(Box::new(BmDevcycle::bm_new(false, seed, quick))),
        "devcycle_remote" => Some(Box::new(BmDevcycle::bm_new(true, seed, quick))),
        "bigfile" => Some(Box::new(BmBigfile::bm_new(seed, quick))),
        "partition_heal" => Some(Box::new(BmPartitionHeal::bm_new(seed, quick))),
        _ => None,
    }
}

/// Blocks of every host's simulated disk: 128 MiB.
///
/// Half of `Geometry::medium()`. The UFS allocator sweeps the whole platter
/// whatever the data size, and every world a process builds stays resident
/// (its layers hold each other through `Arc` cycles), so the platter size
/// is what a run's memory and page-fault time scale with; 128 MiB holds
/// the largest workload's inodes and generations four times over.
pub const BM_DISK_BLOCKS: u64 = 32_768;

/// `WorldParams::default()` on the benchmark's disk geometry.
#[must_use]
pub fn bm_world_params() -> WorldParams {
    WorldParams {
        geometry: Geometry {
            blocks: BM_DISK_BLOCKS,
            block_size: 4096,
        },
        ..WorldParams::default()
    }
}

fn bm_op(client: usize, op: BmOp) -> BmStep {
    BmStep::Op { client, op }
}

// --- devcycle_local / devcycle_remote ---------------------------------------

const DEV_SOURCES: usize = 64;
const DEV_EDITS_PER_CYCLE: usize = 4;
const DEV_FILE_BYTES: usize = 8192;
const DEV_EDIT_BYTES: usize = 256;

/// The edit/build/run cycle of `workload::DevTrace` over 64 sources and 64
/// objects of 8 KiB: 1 MiB, far inside the 8 MiB per-host buffer cache.
/// `local` puts the client on a replica host; `remote` puts it on a fourth
/// host that stores nothing, so every op crosses NFS and the network.
pub struct BmDevcycle {
    spec: BmSpec,
    trace: DevTrace,
    rng: BmRng,
    cycles_per_segment: usize,
}

impl BmDevcycle {
    fn bm_new(remote: bool, seed: u64, quick: bool) -> Self {
        let world = if remote {
            WorldParams {
                hosts: 4,
                root_replica_hosts: vec![1, 2, 3],
                ..bm_world_params()
            }
        } else {
            bm_world_params()
        };
        let cycles = match (remote, quick) {
            (_, true) => 3,
            (false, false) => 100,
            (true, false) => 42,
        };
        BmDevcycle {
            spec: BmSpec {
                world,
                client_hosts: vec![if remote { 4 } else { 1 }],
                segments_per_10s: 11,
            },
            trace: DevTrace::new(DEV_SOURCES, DEV_EDITS_PER_CYCLE, seed),
            rng: BmRng::bm_new(seed ^ 0xD0_5EED),
            cycles_per_segment: cycles,
        }
    }

    fn bm_source(i: usize) -> String {
        format!("/src/s{i}.c")
    }

    fn bm_object(i: usize) -> String {
        format!("/obj/s{i}.o")
    }
}

impl BmWorkload for BmDevcycle {
    fn bm_spec(&self) -> &BmSpec {
        &self.spec
    }

    fn bm_populate(&mut self) -> Vec<BmStep> {
        let mut steps = vec![
            bm_op(
                0,
                BmOp::Mkdir {
                    path: "/src".into(),
                },
            ),
            bm_op(
                0,
                BmOp::Mkdir {
                    path: "/obj".into(),
                },
            ),
        ];
        for i in 0..DEV_SOURCES {
            for path in [Self::bm_source(i), Self::bm_object(i)] {
                let data = self.rng.bm_bytes(DEV_FILE_BYTES);
                steps.push(bm_op(0, BmOp::Create { path, data }));
            }
        }
        steps
    }

    fn bm_segment(&mut self) -> Vec<BmStep> {
        let mut steps = Vec::new();
        for _ in 0..self.cycles_per_segment {
            for op in self.trace.cycle() {
                let op = match op {
                    TraceOp::EditSource(s) => BmOp::Edit {
                        path: Self::bm_source(s),
                        offset: self
                            .rng
                            .bm_below((DEV_FILE_BYTES - DEV_EDIT_BYTES + 1) as u64),
                        data: self.rng.bm_bytes(DEV_EDIT_BYTES),
                    },
                    TraceOp::ReadSource(s) => BmOp::ReadWhole {
                        path: Self::bm_source(s),
                    },
                    TraceOp::WriteObject(s) => BmOp::Rewrite {
                        path: Self::bm_object(s),
                        data: self.rng.bm_bytes(DEV_FILE_BYTES),
                    },
                    TraceOp::ReadObject(s) => BmOp::ReadWhole {
                        path: Self::bm_object(s),
                    },
                };
                steps.push(bm_op(0, op));
            }
            steps.push(BmStep::Tick);
        }
        steps
    }
}

// --- bigfile ----------------------------------------------------------------

const BIG_PATH: &str = "/big";
const BIG_BYTES: u64 = 10 << 20;
/// Half the file, so the file is twice the per-host buffer cache.
const BIG_CACHE_BLOCKS: usize = (BIG_BYTES / 2 / 4096) as usize;
const BIG_POPULATE_CALL: usize = 64 << 10;
const BIG_READ_BYTES: usize = 4096;
const BIG_WRITE_BYTES: usize = 512;

/// One 10 MiB file (2560 chunks: twice the per-host buffer cache and two
/// and a half times the UFS name cache) under a 3:1 mix of 4 KiB reads and
/// 512 B overwrites on one open descriptor.
///
/// The size is chosen against the name cache as much as the buffer cache:
/// an op that finds its chunk's name in the 1024-entry DNLC takes ~30 us,
/// one that has to scan the 2560-entry scope directory ~200 us, and at
/// 2048 chunks the two modes split 50:50, so the *median* flipped between
/// them from seed to seed (spread 0.55). At 2560 chunks 60 % of ops miss
/// and the median sits firmly in the miss mode.
pub struct BmBigfile {
    spec: BmSpec,
    rng: BmRng,
    reads_per_segment: usize,
    writes_per_segment: usize,
}

impl BmBigfile {
    fn bm_new(seed: u64, quick: bool) -> Self {
        let (reads, writes) = if quick { (24, 8) } else { (900, 300) };
        BmBigfile {
            spec: BmSpec {
                world: WorldParams {
                    cache_blocks: BIG_CACHE_BLOCKS,
                    ..bm_world_params()
                },
                client_hosts: vec![1],
                segments_per_10s: 7,
            },
            rng: BmRng::bm_new(seed ^ 0xB16_F11E),
            reads_per_segment: reads,
            writes_per_segment: writes,
        }
    }
}

impl BmWorkload for BmBigfile {
    fn bm_spec(&self) -> &BmSpec {
        &self.spec
    }

    fn bm_populate(&mut self) -> Vec<BmStep> {
        let mut steps = vec![
            bm_op(
                0,
                BmOp::Create {
                    path: BIG_PATH.into(),
                    data: Vec::new(),
                },
            ),
            bm_op(
                0,
                BmOp::Open {
                    path: BIG_PATH.into(),
                },
            ),
        ];
        let mut offset = 0u64;
        while offset < BIG_BYTES {
            steps.push(bm_op(
                0,
                BmOp::Pwrite {
                    offset,
                    data: self.rng.bm_bytes(BIG_POPULATE_CALL),
                },
            ));
            offset += BIG_POPULATE_CALL as u64;
        }
        steps.push(bm_op(0, BmOp::Close));
        steps
    }

    fn bm_segment(&mut self) -> Vec<BmStep> {
        // An exact 3:1 mix in seeded order, so every segment does the same
        // amount of each kind of work.
        let mut is_read = vec![true; self.reads_per_segment];
        is_read.resize(self.reads_per_segment + self.writes_per_segment, false);
        self.rng.bm_shuffle(&mut is_read);

        let mut steps = vec![bm_op(
            0,
            BmOp::Open {
                path: BIG_PATH.into(),
            },
        )];
        for read in is_read {
            let op = if read {
                BmOp::Pread {
                    offset: self.rng.bm_below(BIG_BYTES / BIG_READ_BYTES as u64)
                        * BIG_READ_BYTES as u64,
                    len: BIG_READ_BYTES,
                }
            } else {
                BmOp::Pwrite {
                    offset: self.rng.bm_below(BIG_BYTES / BIG_WRITE_BYTES as u64)
                        * BIG_WRITE_BYTES as u64,
                    data: self.rng.bm_bytes(BIG_WRITE_BYTES),
                }
            };
            steps.push(bm_op(0, op));
        }
        steps.push(bm_op(0, BmOp::Close));
        steps.push(BmStep::Tick);
        steps
    }
}

// --- partition_heal ---------------------------------------------------------

const HEAL_DIRS: usize = 16;
const HEAL_FILES_PER_DIR: usize = 64;
const HEAL_FILE_BYTES: usize = 4096;
const HEAL_EDIT_BYTES: usize = 256;
const HEAL_CONTESTED: usize = 4;
const HEAL_CHURN: usize = 4;

/// Two clients on opposite sides of a partition edit disjoint halves of a
/// 1024-file tree, churn a few names, and both overwrite the same four
/// files; then the network heals and the daemons run until one-copy
/// availability has turned back into one copy.
pub struct BmPartitionHeal {
    spec: BmSpec,
    rng: BmRng,
    epochs_per_segment: usize,
    edits_per_side: usize,
    reads_per_side: usize,
    epoch: u64,
    /// Names each client created last epoch (unlinked this epoch).
    churned: [Vec<String>; 2],
}

impl BmPartitionHeal {
    fn bm_new(seed: u64, quick: bool) -> Self {
        let (epochs, edits, reads) = if quick { (1, 12, 6) } else { (2, 200, 50) };
        BmPartitionHeal {
            spec: BmSpec {
                world: WorldParams {
                    incremental: true,
                    resolver: Some(ResolverConfig::uniform(ResolutionPolicy::LastWriterWins)),
                    ..bm_world_params()
                },
                client_hosts: vec![1, 2],
                segments_per_10s: 10,
            },
            rng: BmRng::bm_new(seed ^ 0x4EA1),
            epochs_per_segment: epochs,
            edits_per_side: edits,
            reads_per_side: reads,
            epoch: 0,
            churned: [Vec::new(), Vec::new()],
        }
    }

    /// A seeded file in `client`'s half of the tree.
    fn bm_own_file(&mut self, client: usize) -> String {
        let half = HEAL_DIRS / 2;
        let dir = client * half + self.rng.bm_below(half as u64) as usize;
        let file = self.rng.bm_below(HEAL_FILES_PER_DIR as u64);
        format!("/d{dir}/f{file}")
    }

    fn bm_epoch(&mut self, steps: &mut Vec<BmStep>) {
        self.epoch += 1;
        steps.push(BmStep::Partition);
        // Name churn: each side drops what it made last epoch and makes
        // four new files.
        for client in 0..2 {
            for path in std::mem::take(&mut self.churned[client]) {
                steps.push(bm_op(client, BmOp::Unlink { path }));
            }
            for k in 0..HEAL_CHURN {
                let dir = client * (HEAL_DIRS / 2) + k;
                let path = format!("/d{dir}/n{}_{client}", self.epoch);
                steps.push(bm_op(
                    client,
                    BmOp::Create {
                        path: path.clone(),
                        data: self.rng.bm_bytes(HEAL_FILE_BYTES),
                    },
                ));
                self.churned[client].push(path);
            }
        }
        // The two clients alternate; a read every few edits.
        let read_every = (self.edits_per_side / self.reads_per_side.max(1)).max(1);
        for i in 0..self.edits_per_side {
            for client in 0..2 {
                let path = self.bm_own_file(client);
                steps.push(bm_op(
                    client,
                    BmOp::Edit {
                        path,
                        offset: self
                            .rng
                            .bm_below((HEAL_FILE_BYTES - HEAL_EDIT_BYTES + 1) as u64),
                        data: self.rng.bm_bytes(HEAL_EDIT_BYTES),
                    },
                ));
                if i % read_every == 0 {
                    let path = self.bm_own_file(client);
                    steps.push(bm_op(client, BmOp::ReadWhole { path }));
                }
            }
        }
        // True concurrent updates: both sides rewrite the same files.
        for k in 0..HEAL_CONTESTED {
            for client in 0..2 {
                steps.push(bm_op(
                    client,
                    BmOp::Rewrite {
                        path: format!("/shared/c{k}"),
                        data: self.rng.bm_bytes(HEAL_FILE_BYTES),
                    },
                ));
            }
        }
        steps.push(BmStep::Heal);
    }
}

impl BmWorkload for BmPartitionHeal {
    fn bm_spec(&self) -> &BmSpec {
        &self.spec
    }

    fn bm_populate(&mut self) -> Vec<BmStep> {
        let mut steps = Vec::new();
        for d in 0..HEAL_DIRS {
            steps.push(bm_op(
                0,
                BmOp::Mkdir {
                    path: format!("/d{d}"),
                },
            ));
            for f in 0..HEAL_FILES_PER_DIR {
                steps.push(bm_op(
                    0,
                    BmOp::Create {
                        path: format!("/d{d}/f{f}"),
                        data: self.rng.bm_bytes(HEAL_FILE_BYTES),
                    },
                ));
            }
        }
        steps.push(bm_op(
            0,
            BmOp::Mkdir {
                path: "/shared".into(),
            },
        ));
        for k in 0..HEAL_CONTESTED {
            steps.push(bm_op(
                0,
                BmOp::Create {
                    path: format!("/shared/c{k}"),
                    data: self.rng.bm_bytes(HEAL_FILE_BYTES),
                },
            ));
        }
        steps
    }

    fn bm_segment(&mut self) -> Vec<BmStep> {
        let mut steps = Vec::new();
        for _ in 0..self.epochs_per_segment {
            self.bm_epoch(&mut steps);
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::bm_op_count;

    #[test]
    fn segments_scale_with_seconds_but_never_below_the_floor() {
        let w = bm_workload("devcycle_local", 1, false).unwrap();
        assert_eq!(w.bm_spec().bm_segments(10, false), 11);
        assert_eq!(w.bm_spec().bm_segments(20, false), 22);
        assert_eq!(w.bm_spec().bm_segments(1, false), BM_MIN_SEGMENTS);
        assert_eq!(w.bm_spec().bm_segments(60, true), 1);
    }

    #[test]
    fn every_segment_has_the_same_op_count() {
        for name in ["bigfile", "partition_heal"] {
            let mut w = bm_workload(name, 9, true).unwrap();
            let a = bm_op_count(&w.bm_segment());
            let b = bm_op_count(&w.bm_segment());
            // partition_heal's first epoch has nothing to unlink yet.
            let c = bm_op_count(&w.bm_segment());
            assert_eq!(b, c, "{name}");
            assert!(a <= b, "{name}");
        }
        assert!(bm_workload("nope", 1, true).is_none());
    }
}
