//! Direct probes of the two leaf components no vnode stack isolates: the
//! simulated disk's block transfer and the version-vector primitives.

use std::hint::black_box;

use ficus_repro::ufs::{Disk, Geometry};
use ficus_repro::vv::{sparse_decode, sparse_encode, VersionVector};

use crate::clock::bm_thread_cpu_ns;

const BM_PROBE_ITERATIONS: u64 = 50_000;

/// Mean thread-CPU ns per call of `call` over the probe's iteration count.
fn bm_ns_per_call(mut call: impl FnMut(u64)) -> f64 {
    let start = bm_thread_cpu_ns();
    for i in 0..BM_PROBE_ITERATIONS {
        call(i);
    }
    (bm_thread_cpu_ns() - start) as f64 / BM_PROBE_ITERATIONS as f64
}

/// Mean ns of one `Disk::write_block` + `Disk::read_block` pair, halved.
#[must_use]
pub fn bm_disk_block_rw_ns() -> f64 {
    let geometry = Geometry::small();
    let disk = Disk::new(geometry);
    let block = vec![0xA5u8; geometry.block_size as usize];
    bm_ns_per_call(|i| {
        let bno = i % geometry.blocks;
        let wrote = disk.write_block(bno, black_box(&block));
        let read = disk.read_block(bno);
        black_box((wrote.is_ok(), read.map_or(0, |b| b.len())));
    }) / 2.0
}

/// Mean ns of `(sparse_encode, sparse_decode, compare)` on a three-replica
/// vector, the width every workload here uses.
#[must_use]
pub fn bm_vv_ns() -> (f64, f64, f64) {
    let a: VersionVector = [(1, 1_000), (2, 2_000), (3, 3_000)].into_iter().collect();
    let b: VersionVector = [(1, 1_000), (2, 2_001), (3, 2_999)].into_iter().collect();
    let encoded = sparse_encode(&a);
    let encode = bm_ns_per_call(|_| {
        black_box(sparse_encode(black_box(&a)));
    });
    let decode = bm_ns_per_call(|_| {
        black_box(sparse_decode(black_box(&encoded)).is_ok());
    });
    let compare = bm_ns_per_call(|_| {
        black_box(black_box(&a).compare(black_box(&b)));
    });
    (encode, decode, compare)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_times() {
        assert!(bm_disk_block_rw_ns() > 0.0);
        let (e, d, c) = bm_vv_ns();
        assert!(e > 0.0 && d > 0.0 && c > 0.0);
    }
}
