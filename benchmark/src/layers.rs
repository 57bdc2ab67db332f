//! The per-layer metrics of a traced run.
//!
//! Counts come from `*Stats` deltas over the measured phase, daemon times
//! from the spans around each daemon call, and the self times of the layers
//! below `logical` from the stack-height ladder. Layer names are the
//! crate/module names.

use crate::estimate::bm_ratio;
use crate::ladder::{bm_ladder, BmRung};
use crate::probe::{bm_disk_block_rw_ns, bm_vv_ns};
use crate::run::{BmMeasured, BmMetric};
use crate::script::BmStep;
use crate::workload::BmSpec;

/// Computes every per-layer metric but the harness's own. `scripts` are the populate and warm-up
/// scripts the ladder replays on stacks built to `spec`.
pub(crate) fn bm_layer_metrics(
    spec: &BmSpec,
    traced: &BmMeasured,
    scripts: Option<&(Vec<BmStep>, Vec<BmStep>)>,
    notes: &mut Vec<String>,
) -> Result<Vec<BmMetric>, String> {
    let (populate, warmup) = scripts.ok_or("the traced run kept no scripts for the ladder")?;
    let rungs = bm_ladder(&spec.world, populate, warmup, spec.client_hosts.len())?;
    let [ufs, phys, logical, nfs] = rungs.as_slice() else {
        return Err("the ladder must have four rungs".to_owned());
    };
    for r in &rungs {
        notes.push(format!(
            "ladder rung {:<8} read p50 {:>9.2} us  write p50 {:>9.2} us  \
             {} ops, {} vnode calls at the top",
            r.layer, r.read_p50_us, r.write_p50_us, r.ops, r.top_calls
        ));
    }

    let s = &traced.samples;
    let c = &traced.counters;
    let d = &s.daemons;
    let ops = s.bm_ops() as f64;
    let writes = s.write_ns.len() as f64;
    let heals = d.heals as f64;
    let per_op = |n: u64| bm_ratio(n as f64, ops);
    let per_write = |n: u64| bm_ratio(n as f64, writes);
    let per_heal = |n: u64| bm_ratio(n as f64, heals);
    let share_of = |a: u64, b: u64| bm_ratio(a as f64, (a + b) as f64);
    let per_rung_op = |calls: u64, r: &BmRung| bm_ratio(calls as f64, r.ops as f64);

    // CPU shares of the measured phase: the summed durations of the `op`
    // spans and of the spans around each daemon call.
    let (fg_ns, propagate_ns, recon_ns, resolver_ns) =
        (s.bm_fg_ns(), d.propagate_ns, d.recon_ns, d.resolver_ns);
    let busy = (fg_ns + propagate_ns + recon_ns + resolver_ns) as f64;

    let (vv_encode, vv_decode, vv_compare) = bm_vv_ns();
    let m = BmMetric::bm_new;
    Ok(vec![
        // ufs, disk
        m("ufs.self_us.read", "us", ufs.read_p50_us),
        m("ufs.self_us.write", "us", ufs.write_p50_us),
        m(
            "ufs.cache_hit_ratio",
            "ratio",
            share_of(c.ufs.cache_hits, c.ufs.cache_misses),
        ),
        m(
            "ufs.cache_writebacks_per_op",
            "ratio",
            per_op(c.ufs.cache_writebacks),
        ),
        m(
            "ufs.cache_evictions_per_op",
            "ratio",
            per_op(c.ufs.cache_evictions),
        ),
        m(
            "ufs.dnlc_hit_ratio",
            "ratio",
            share_of(c.ufs.dnlc_hits, c.ufs.dnlc_misses),
        ),
        m(
            "ufs.vnode_calls_per_op",
            "ratio",
            per_rung_op(ufs.top_calls, ufs),
        ),
        m("disk.reads_per_op", "ratio", per_op(c.ufs.disk_reads)),
        m("disk.writes_per_op", "ratio", per_op(c.ufs.disk_writes)),
        m(
            "disk.writes_origin_share",
            "ratio",
            bm_ratio(c.disk_writes_origin as f64, c.ufs.disk_writes as f64),
        ),
        m("disk.block_rw_ns", "ns", bm_disk_block_rw_ns()),
        // phys
        m(
            "phys.self_us.read",
            "us",
            phys.read_p50_us - ufs.read_p50_us,
        ),
        m(
            "phys.self_us.write",
            "us",
            phys.write_p50_us - ufs.write_p50_us,
        ),
        m(
            "phys.ufs_calls_per_op",
            "ratio",
            per_rung_op(phys.lower_calls.unwrap_or(0), phys),
        ),
        m(
            "phys.chunks_written_per_write",
            "ratio",
            per_write(c.chunks.chunks_written),
        ),
        m(
            "phys.chunks_reused_ratio",
            "ratio",
            share_of(c.chunks.chunks_reused, c.chunks.chunks_written),
        ),
        m(
            "phys.maps_committed_per_write",
            "ratio",
            per_write(c.chunks.maps_committed),
        ),
        m("phys.commit_aborts", "count", c.chunks.commit_aborts as f64),
        m(
            "phys.changelog_appends_per_write",
            "ratio",
            per_write(c.changelog.log_appends),
        ),
        m(
            "phys.changelog_truncations",
            "count",
            c.changelog.log_truncations as f64,
        ),
        m(
            "phys.cursor_resets",
            "count",
            c.changelog.cursor_resets as f64,
        ),
        m(
            "phys.full_walk_fallbacks",
            "count",
            c.changelog.full_walk_fallbacks as f64,
        ),
        // logical, vnode
        m(
            "logical.self_us.read",
            "us",
            logical.read_p50_us - phys.read_p50_us,
        ),
        m(
            "logical.self_us.write",
            "us",
            logical.write_p50_us - phys.write_p50_us,
        ),
        m(
            "logical.selections_per_op",
            "ratio",
            per_op(c.logical.selections),
        ),
        m(
            "logical.lcache_hit_ratio",
            "ratio",
            share_of(c.logical.cache_hits, c.logical.cache_misses),
        ),
        m(
            "logical.lcache_invalidations_per_write",
            "ratio",
            per_write(c.logical.invalidations),
        ),
        m(
            "logical.rpcs_avoided_per_op",
            "ratio",
            per_op(c.logical.rpcs_avoided),
        ),
        m(
            "logical.notifications_per_write",
            "ratio",
            per_write(c.logical.notifications),
        ),
        m(
            "vnode.calls_per_op",
            "ratio",
            per_rung_op(logical.top_calls, logical),
        ),
        m("vnode.syscalls_per_op", "ratio", per_op(traced.syscalls)),
        // nfs, net
        m(
            "nfs.self_us.read",
            "us",
            nfs.read_p50_us - logical.read_p50_us,
        ),
        m(
            "nfs.self_us.write",
            "us",
            nfs.write_p50_us - logical.write_p50_us,
        ),
        m(
            "nfs.bytes_per_rpc",
            "B",
            bm_ratio(
                (c.net.rpc_request_bytes + c.net.rpc_reply_bytes) as f64,
                c.net.rpcs as f64,
            ),
        ),
        m("net.rpcs_per_op", "ratio", per_op(c.net.rpcs)),
        m(
            "net.rpc_bytes_per_op",
            "B",
            per_op(c.net.rpc_request_bytes + c.net.rpc_reply_bytes),
        ),
        m(
            "net.datagrams_per_write",
            "ratio",
            per_write(c.net.datagrams_sent),
        ),
        m(
            "net.datagrams_dropped",
            "count",
            c.net.datagrams_dropped as f64,
        ),
        m(
            "net.rpcs_unreachable",
            "count",
            c.net.rpcs_unreachable as f64,
        ),
        m("net.sim_us_per_op", "us", per_op(c.sim_us)),
        // who spent the measured phase's CPU
        m("fg.share", "ratio", bm_ratio(fg_ns as f64, busy)),
        m(
            "propagate.share",
            "ratio",
            bm_ratio(propagate_ns as f64, busy),
        ),
        m("recon.share", "ratio", bm_ratio(recon_ns as f64, busy)),
        m(
            "resolver.share",
            "ratio",
            bm_ratio(resolver_ns as f64, busy),
        ),
        // propagate
        m(
            "propagate.us_per_note",
            "us",
            bm_ratio(propagate_ns as f64 / 1e3, d.propagation.notes_taken as f64),
        ),
        m(
            "propagate.notes_per_write",
            "ratio",
            per_write(d.propagation.notes_taken),
        ),
        m(
            "propagate.files_pulled_per_write",
            "ratio",
            per_write(d.propagation.files_pulled),
        ),
        m(
            "propagate.bytes_fetched_per_logical_byte",
            "ratio",
            bm_ratio(d.propagation.bytes_fetched as f64, s.bytes_written as f64),
        ),
        m(
            "propagate.blocks_shipped",
            "count",
            d.propagation.blocks_shipped as f64,
        ),
        m(
            "propagate.blocks_reused_ratio",
            "ratio",
            share_of(d.propagation.blocks_reused, d.propagation.blocks_shipped),
        ),
        m("propagate.requeued", "count", d.propagation.requeued as f64),
        // recon
        m(
            "recon.ms_per_pass",
            "ms",
            bm_ratio(recon_ns as f64 / 1e6, d.recon_passes as f64),
        ),
        m("recon.passes_per_heal", "ratio", per_heal(d.recon_passes)),
        m(
            "recon.dirs_examined_per_heal",
            "ratio",
            per_heal(d.recon.dirs_examined),
        ),
        m(
            "recon.files_pulled_per_heal",
            "ratio",
            per_heal(d.recon.files_pulled),
        ),
        m(
            "recon.bytes_fetched_per_heal",
            "B",
            per_heal(d.recon.bytes_fetched),
        ),
        m("recon.rpcs_per_heal", "ratio", per_heal(d.recon_rpcs)),
        m(
            "recon.update_conflicts_per_heal",
            "ratio",
            per_heal(d.recon.update_conflicts),
        ),
        // resolver
        m(
            "resolver.resolved_per_heal",
            "ratio",
            per_heal(d.resolution.resolved),
        ),
        m("resolver.declined", "count", d.resolution.declined as f64),
        m(
            "resolver.bytes_merged_per_heal",
            "B",
            per_heal(d.resolution.bytes_merged),
        ),
        // vv
        m("vv.encode_ns", "ns", vv_encode),
        m("vv.decode_ns", "ns", vv_decode),
        m("vv.compare_ns", "ns", vv_compare),
    ])
}
