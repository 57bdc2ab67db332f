//! E1 — layer-crossing overhead (paper §6).
//!
//! "The actual cost of crossing a layer boundary is low — one additional
//! procedure call, one pointer indirection, and storage for another vnode
//! block." We stack 0..=8 transparent null layers over the do-nothing
//! [`ficus_vnode::testing::SinkFs`] and time `getattr` and `lookup` through
//! the stack; the marginal nanoseconds per added layer is the measured
//! crossing cost.

use std::sync::Arc;
use std::time::Instant;

use ficus_vnode::null::NullLayer;
use ficus_vnode::testing::SinkFs;
use ficus_vnode::Credentials;

use crate::report::{Metrics, Report};
use crate::table::Table;

/// One depth's measurement.
#[derive(Debug, Clone, Copy)]
pub struct DepthCost {
    /// Stacked null layers.
    pub depth: usize,
    /// Mean ns per `getattr`.
    pub getattr_ns: f64,
    /// Mean ns per `lookup`.
    pub lookup_ns: f64,
}

/// Times `iters` operations at each stack depth in `0..=max_depth`.
#[must_use]
pub fn measure(max_depth: usize, iters: u32) -> Vec<DepthCost> {
    let cred = Credentials::root();
    let mut out = Vec::new();
    for depth in 0..=max_depth {
        let fs = NullLayer::stack(Arc::new(SinkFs::new(1)), depth);
        let root = fs.root();
        // Warm up.
        for _ in 0..1000 {
            let _ = root.getattr(&cred);
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = std::hint::black_box(root.getattr(&cred));
        }
        let getattr_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = std::hint::black_box(root.lookup(&cred, "x"));
        }
        let lookup_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
        out.push(DepthCost {
            depth,
            getattr_ns,
            lookup_ns,
        });
    }
    out
}

/// Least-squares slope of `ys` against depth (ns per crossing).
#[must_use]
pub fn marginal_ns(costs: &[DepthCost], pick: impl Fn(&DepthCost) -> f64) -> f64 {
    let n = costs.len() as f64;
    let mean_x = costs.iter().map(|c| c.depth as f64).sum::<f64>() / n;
    let mean_y = costs.iter().map(&pick).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for c in costs {
        let dx = c.depth as f64 - mean_x;
        num += dx * (pick(c) - mean_y);
        den += dx * dx;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs E1 and produces its table and metrics. Every timing here is
/// wall-clock and therefore informational only — E1 contributes no
/// compared metrics (the drift ROADMAP warns about).
#[must_use]
pub fn run() -> Report {
    let costs = measure(8, 2_000_000);
    let mut t = Table::new(
        "E1: layer-crossing cost (paper §6: one procedure call + one pointer indirection)",
        &["null layers", "getattr ns/op", "lookup ns/op"],
    );
    let mut m = Metrics::new("e1", &t.title);
    m.det("depths_measured", "count", costs.len() as f64);
    for c in &costs {
        t.row(vec![
            c.depth.to_string(),
            format!("{:.1}", c.getattr_ns),
            format!("{:.1}", c.lookup_ns),
        ]);
        m.wall(
            &format!("depth{}.getattr_ns", c.depth),
            "ns/op",
            c.getattr_ns,
        );
        m.wall(&format!("depth{}.lookup_ns", c.depth), "ns/op", c.lookup_ns);
    }
    let g = marginal_ns(&costs, |c| c.getattr_ns);
    let l = marginal_ns(&costs, |c| c.lookup_ns);
    m.wall("marginal.getattr_ns", "ns/crossing", g);
    m.wall("marginal.lookup_ns", "ns/crossing", l);
    t.note(&format!(
        "marginal cost per crossing: getattr {g:.1} ns, lookup {l:.1} ns \
         (paper: 'low' — a dynamic call + Arc deref; lookup also allocates the vnode block)"
    ));
    Report {
        table: t,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficus_vnode::measure::{MeasureLayer, Op};
    use ficus_vnode::FileSystem;

    #[test]
    fn each_crossing_costs_exactly_one_vnode_call() {
        // The counted form of "the cost of a crossing is small and linear
        // in depth": with an observation point under every null layer (the
        // paper's §5 method), each boundary sees exactly one call per call
        // made at the top — no layer amplifies, so d layers cost d
        // crossings. The nanoseconds per crossing are `bench-report`'s
        // business (recorded as `wallclock`, never asserted).
        const CALLS: u64 = 50;
        let cred = Credentials::root();
        for depth in 0..=6 {
            let mut fs: Arc<dyn FileSystem> = Arc::new(SinkFs::new(1));
            let mut boundaries = Vec::new();
            for _ in 0..depth {
                let (probe, calls) = MeasureLayer::new(fs);
                boundaries.push(calls);
                fs = Arc::new(NullLayer::new(probe));
            }
            let root = fs.root();
            for _ in 0..CALLS {
                root.getattr(&cred).unwrap();
                root.lookup(&cred, "x").unwrap();
            }
            assert_eq!(boundaries.len(), depth);
            for calls in &boundaries {
                assert_eq!(calls.get(Op::Getattr), CALLS, "depth {depth}");
                assert_eq!(calls.get(Op::Lookup), CALLS, "depth {depth}");
                assert_eq!(calls.total(), 2 * CALLS, "depth {depth}");
            }
        }
    }

    #[test]
    fn marginal_cost_is_the_least_squares_slope() {
        let costs: Vec<DepthCost> = (0..5)
            .map(|depth| DepthCost {
                depth,
                getattr_ns: 5.0 + 2.0 * depth as f64,
                lookup_ns: 40.0,
            })
            .collect();
        assert!((marginal_ns(&costs, |c| c.getattr_ns) - 2.0).abs() < 1e-9);
        assert!(marginal_ns(&costs, |c| c.lookup_ns).abs() < 1e-9);
        assert_eq!(marginal_ns(&costs[..1], |c| c.getattr_ns), 0.0);
    }
}
