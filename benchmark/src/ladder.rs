//! The stack-height ladder: the paper's own §5/§6 method for pricing a
//! layer.
//!
//! Layers below `logical` cannot be reached from outside inside a
//! `FicusWorld`, so their time comes from replaying one op script through
//! `Process` over stacks of growing height, each with a
//! `vnode::measure::MeasureLayer` on top:
//!
//! 1. a bare `Ufs`;
//! 2. `PhysFs` over a one-replica `FicusPhysical` over that kind of `Ufs`
//!    (with a second `MeasureLayer` between the two);
//! 3. a one-host, one-replica `FicusWorld` (adds `logical`);
//! 4. a two-host world whose only replica is on the other host (adds the
//!    NFS client, the wire format, the network and the NFS server).
//!
//! A layer's self time is its rung's median latency minus the rung below.

use std::sync::Arc;

use ficus_repro::core::phys::vnode::PhysFs;
use ficus_repro::core::phys::{FicusPhysical, PhysParams};
use ficus_repro::core::sim::{FicusWorld, WorldParams};
use ficus_repro::core::{ReplicaId, VolumeName};
use ficus_repro::net::HostId;
use ficus_repro::ufs::{Disk, Ufs, UfsParams};
use ficus_repro::vnode::measure::{MeasureLayer, OpCounters};
use ficus_repro::vnode::{FileSystem, LogicalClock, TimeSource};

use crate::estimate::{bm_percentile, bm_sorted_us};
use crate::exec::{bm_materialize, BmClient, BmSamples, BmStack};
use crate::model::BmModel;
use crate::script::{bm_op_count, BmHash, BmStep};

/// Names of the rungs, bottom first.
pub const BM_RUNGS: [&str; 4] = ["ufs", "phys", "logical", "nfs"];

/// What one rung measured.
#[derive(Debug, Clone)]
pub struct BmRung {
    /// Which layer this rung adds.
    pub layer: &'static str,
    /// Median latency of read-class ops, us.
    pub read_p50_us: f64,
    /// Median latency of write-class ops, us.
    pub write_p50_us: f64,
    /// Foreground ops replayed.
    pub ops: u64,
    /// Vnode calls that reached the top of the rung.
    pub top_calls: u64,
    /// Vnode calls the physical layer made into its UFS (rung 2 only).
    pub lower_calls: Option<u64>,
    /// Hash of the script the rung executed.
    pub script_hash: u64,
}

/// A UFS with the buffer cache and disk the full stack's hosts have.
fn bm_ufs(world: &WorldParams) -> Result<Arc<Ufs>, String> {
    Ufs::format(
        Disk::new(world.geometry),
        UfsParams {
            cache_blocks: world.cache_blocks,
            ..UfsParams::default()
        },
    )
    .map(|ufs| {
        bm_materialize(ufs.disk());
        Arc::new(ufs)
    })
    .map_err(|e| format!("ladder: cannot format a UFS: {e:?}"))
}

struct BmRungStack {
    /// Keeps a rung's world alive while its clients run.
    world: Option<FicusWorld>,
    top: Arc<dyn FileSystem>,
    lower: Option<Arc<OpCounters>>,
}

fn bm_build(layer: &str, params: &WorldParams) -> Result<BmRungStack, String> {
    match layer {
        "ufs" => Ok(BmRungStack {
            world: None,
            top: bm_ufs(params)? as Arc<dyn FileSystem>,
            lower: None,
        }),
        "phys" => {
            let (storage, lower) = MeasureLayer::new(bm_ufs(params)? as Arc<dyn FileSystem>);
            let phys = FicusPhysical::create_volume(
                storage as Arc<dyn FileSystem>,
                "vol",
                VolumeName::new(1, 1),
                ReplicaId(1),
                &[1],
                Arc::new(LogicalClock::new()) as Arc<dyn TimeSource>,
                PhysParams {
                    layout: params.layout,
                    dir_policy: params.dir_policy,
                    changelog_capacity: params.changelog_capacity,
                    chunk_size: params.chunk_size,
                    delta_commit: params.delta_commit,
                    ..PhysParams::default()
                },
            )
            .map_err(|e| format!("ladder: cannot create a volume: {e:?}"))?;
            Ok(BmRungStack {
                world: None,
                top: PhysFs::new(phys) as Arc<dyn FileSystem>,
                lower: Some(lower),
            })
        }
        "logical" | "nfs" => {
            let remote = layer == "nfs";
            let world = FicusWorld::new(WorldParams {
                hosts: if remote { 2 } else { 1 },
                root_replica_hosts: vec![1],
                ..params.clone()
            });
            for h in world.host_ids() {
                bm_materialize(world.host(h).ufs.disk());
            }
            let client = HostId(if remote { 2 } else { 1 });
            let top = Arc::clone(world.logical(client)) as Arc<dyn FileSystem>;
            Ok(BmRungStack {
                world: Some(world),
                top,
                lower: None,
            })
        }
        other => Err(format!("ladder: no rung `{other}`")),
    }
}

/// Replays `populate` then `segment` through rung `layer`, built to the
/// workload's `params`, with `clients` clients; measures the segment only.
pub fn bm_rung(
    layer: &'static str,
    params: &WorldParams,
    populate: &[BmStep],
    segment: &[BmStep],
    clients: usize,
) -> Result<BmRung, String> {
    let built = bm_build(layer, params)?;
    let (top, counters) = MeasureLayer::new(built.top);
    let mut stack = BmStack {
        world: built.world,
        daemons: false,
        clients: (0..clients)
            .map(|_| BmClient::bm_new(Arc::clone(&top) as Arc<dyn FileSystem>))
            .collect(),
        client_hosts: Vec::new(),
    };
    let mut model = BmModel::default();
    let mut setup = BmSamples::default();
    stack.bm_run(populate, &mut model, &mut setup, &mut None);
    counters.reset();
    if let Some(lower) = &built.lower {
        lower.reset();
    }
    let mut samples = BmSamples::default();
    stack.bm_run(segment, &mut model, &mut samples, &mut None);
    if let Some(why) = setup.failures.first().or(samples.failures.first()) {
        return Err(format!("ladder rung `{layer}`: {why}"));
    }
    let p50_us = |ns: &[u64]| bm_percentile(&bm_sorted_us(ns), 50.0);
    let mut hash = BmHash::default();
    hash.bm_absorb(populate);
    hash.bm_absorb(segment);
    Ok(BmRung {
        layer,
        read_p50_us: p50_us(&samples.read_ns),
        write_p50_us: p50_us(&samples.write_ns),
        ops: bm_op_count(segment) as u64,
        top_calls: counters.total(),
        lower_calls: built.lower.map(|l| l.total()),
        script_hash: hash.0,
    })
}

/// Every rung, bottom first.
pub fn bm_ladder(
    params: &WorldParams,
    populate: &[BmStep],
    segment: &[BmStep],
    clients: usize,
) -> Result<Vec<BmRung>, String> {
    BM_RUNGS
        .iter()
        .map(|layer| bm_rung(layer, params, populate, segment, clients))
        .collect()
}
