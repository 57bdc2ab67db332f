//! E7 — immediate vs delayed propagation under bursty updates (paper §3.2).
//!
//! "Rapid propagation enhances the availability of the new version of the
//! file; delayed propagation may reduce the overall propagation cost when
//! updates are bursty."
//!
//! A burst train of updates hits one file at host 1; hosts 2 and 3 run the
//! propagation daemon under a policy. We measure the **cost** (versions
//! pulled, network bytes) and the **staleness** (how long replicas lag the
//! newest version, integrated over the run). Immediate propagation pulls
//! every burst member; a delay longer than the intra-burst gap coalesces
//! each burst into one pull at the price of staleness.

use ficus_core::propagate::PropagationPolicy;
use ficus_core::sim::{FicusWorld, WorldParams};
use ficus_net::HostId;
use ficus_vnode::{Credentials, FileSystem, TimeSource};
use ficus_workload::BurstTrain;

use crate::report::{slug, Metrics, Report};
use crate::table::Table;

/// One policy's measured outcome.
#[derive(Debug, Clone, Copy)]
pub struct PropagationOutcome {
    /// Total updates applied at the origin.
    pub updates: usize,
    /// File versions pulled across all peers.
    pub pulls: u64,
    /// Network bytes spent (notifications + pulls).
    pub bytes: u64,
    /// Mean microseconds from an update to full replication, or `None`
    /// when the run applied no updates — an empty measurement has no mean
    /// and must say so rather than fabricate one.
    pub mean_staleness_us: Option<f64>,
}

/// Drives the burst workload under one policy.
#[must_use]
pub fn measure(policy: PropagationPolicy, bursts: usize, burst_len: usize) -> PropagationOutcome {
    let cred = Credentials::root();
    let w = FicusWorld::new(WorldParams {
        propagation: policy,
        ..WorldParams::default()
    });
    let h1 = HostId(1);
    let _f = w.logical(h1).root().create(&cred, "hot", 0o644).unwrap();
    w.settle();
    w.net().reset_stats();

    let train = BurstTrain {
        burst_len,
        intra_gap_us: 2_000,
        inter_gap_us: 400_000,
    };
    let stamps = train.generate(bursts, w.clock().now().0 + 1_000, 99);
    let mut pulls = 0u64;
    let mut staleness_total = 0.0f64;
    let mut updates = 0usize;
    let daemon_period = 10_000u64; // daemons tick every 10ms of sim time

    let mut next_daemon = w.clock().now().0;
    for (i, &t) in stamps.iter().enumerate() {
        // Run daemons for every tick before this update.
        while next_daemon < t {
            w.clock().advance_to(ficus_vnode::Timestamp(next_daemon));
            w.net().deliver_ready();
            for h in w.host_ids() {
                let s = w.run_propagation(h).unwrap();
                pulls += s.files_pulled;
            }
            next_daemon += daemon_period;
        }
        w.clock().advance_to(ficus_vnode::Timestamp(t));
        let v = w.logical(h1).root().lookup(&cred, "hot").unwrap();
        v.write(&cred, 0, format!("update {i}").as_bytes()).unwrap();
        updates += 1;
    }
    // Drain: run daemons until every peer is current.
    let update_end = w.clock().now().0;
    let mut fully_replicated_at = update_end;
    for _ in 0..1000 {
        w.clock().advance(daemon_period);
        w.net().deliver_ready();
        let mut pulled_now = 0;
        for h in w.host_ids() {
            let s = w.run_propagation(h).unwrap();
            pulls += s.files_pulled;
            pulled_now += s.files_pulled + s.notes_taken;
        }
        let pending: usize = w
            .host_ids()
            .into_iter()
            .filter_map(|h| w.phys(h, w.root_volume()))
            .map(|p| p.pending_notifications())
            .sum();
        if pulled_now == 0 && pending == 0 && w.net().queued() == 0 {
            break;
        }
        fully_replicated_at = w.clock().now().0;
    }
    staleness_total += (fully_replicated_at.saturating_sub(update_end)) as f64;

    let stats = w.net().stats();
    PropagationOutcome {
        updates,
        pulls,
        bytes: stats.total_bytes(),
        mean_staleness_us: if updates == 0 {
            None
        } else {
            Some(staleness_total / updates as f64)
        },
    }
}

/// Measured cost of one daemon pass draining `files` pending notes from a
/// single origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoteDrainOutcome {
    /// Notes the pass consumed.
    pub notes_taken: u64,
    /// File versions it pulled.
    pub pulls: u64,
    /// RPC calls the pass issued.
    pub rpcs: u64,
    /// Per-file protocol operations answered from bulk responses.
    pub rpcs_saved: u64,
    /// The ideal: the origin's mount handshake plus one exchange per file
    /// pulled (a note could carry everything the attribute batch learns).
    pub ideal_rpcs: u64,
}

/// Host 1 updates every file of a fully-replicated 100-file directory;
/// host 2's daemon then drains all the resulting notes in one pass,
/// grouped by origin behind one attribute batch.
#[must_use]
pub fn measure_note_drain(files: usize) -> NoteDrainOutcome {
    let cred = Credentials::root();
    let w = FicusWorld::new(WorldParams::default());
    let root = w.logical(HostId(1)).root();
    for i in 0..files {
        root.create(&cred, &format!("f{i:03}"), 0o644)
            .unwrap()
            .write(&cred, 0, b"v1")
            .unwrap();
    }
    w.settle();

    for i in 0..files {
        root.lookup(&cred, &format!("f{i:03}"))
            .unwrap()
            .write(&cred, 0, format!("v2 of {i}").as_bytes())
            .unwrap();
    }
    w.deliver_notifications();
    let before = w.net().stats();
    let stats = w.run_propagation(HostId(2)).unwrap();
    let traffic = w.net().stats().since(before);
    NoteDrainOutcome {
        notes_taken: stats.notes_taken,
        pulls: stats.files_pulled,
        rpcs: traffic.rpcs,
        rpcs_saved: stats.rpcs_saved,
        ideal_rpcs: 1 + stats.files_pulled,
    }
}

/// Runs E7b and produces its table and metrics. Every number here is a
/// counted RPC or note, so all metrics are deterministic.
#[must_use]
pub fn run_note_drain() -> Report {
    let mut t = Table::new(
        "E7b: note-drain RPCs against ideal (100 pending notes, one origin)",
        &["notes taken", "pulls", "rpcs", "rpcs saved", "rpcs / ideal"],
    );
    let mut m = Metrics::new("e7b", &t.title);
    let o = measure_note_drain(100);
    let over_ideal = o.rpcs as f64 / o.ideal_rpcs as f64;
    t.row(vec![
        o.notes_taken.to_string(),
        o.pulls.to_string(),
        o.rpcs.to_string(),
        o.rpcs_saved.to_string(),
        format!("{over_ideal:.2}"),
    ]);
    m.det("b100.batched.notes_taken", "notes", o.notes_taken as f64);
    m.det("b100.batched.pulls", "files", o.pulls as f64);
    m.det("b100.batched.rpcs", "rpcs", o.rpcs as f64);
    m.det("b100.batched.rpcs_saved", "rpcs", o.rpcs_saved as f64);
    m.det("b100.rpcs_over_ideal", "ratio", over_ideal);
    t.note(&format!(
        "ideal = {} rpcs: the origin's mount handshake + one exchange per file pulled; the pass spends one attribute batch for all its notes, then two exchanges per pull — each few-byte file asks for the chunk map before its one whole-file read",
        o.ideal_rpcs
    ));
    Report {
        table: t,
        metrics: m,
    }
}

/// Runs E7 and produces its table and metrics. Pulls and bytes are counted
/// in simulated time, so they are deterministic; the drain staleness is a
/// simulated-clock quantity and deterministic too.
#[must_use]
pub fn run() -> Report {
    let mut t = Table::new(
        "E7: propagation policy under bursty updates (paper §3.2: delay coalesces bursts)",
        &[
            "policy",
            "updates",
            "pulls/peer",
            "net KiB",
            "drain us/update",
        ],
    );
    let mut m = Metrics::new("e7", &t.title);
    let bursts = 6;
    let burst_len = 8;
    for (policy, name) in [
        (PropagationPolicy::Immediate, "immediate"),
        (PropagationPolicy::Delayed(20_000), "delayed 20ms"),
        (PropagationPolicy::Delayed(100_000), "delayed 100ms"),
    ] {
        let o = measure(policy, bursts, burst_len);
        t.row(vec![
            name.into(),
            o.updates.to_string(),
            format!("{:.1}", o.pulls as f64 / 2.0),
            (o.bytes / 1024).to_string(),
            match o.mean_staleness_us {
                Some(s) => format!("{s:.0}"),
                None => "n/a (no updates)".into(),
            },
        ]);
        let key = slug(name);
        m.det(&format!("{key}.updates"), "updates", o.updates as f64);
        m.det(&format!("{key}.pulls"), "files", o.pulls as f64);
        m.det(&format!("{key}.net_bytes"), "bytes", o.bytes as f64);
        // Recorded only when the run measured something; a degenerate run
        // reports no mean rather than a fabricated zero.
        if let Some(s) = o.mean_staleness_us {
            m.det_tol(&format!("{key}.drain_us_per_update"), "us/update", s, 0.02);
        }
    }
    t.note(
        "a delay exceeding the intra-burst gap (2ms) coalesces each 8-update burst toward one pull",
    );
    t.note("immediate propagation pulls near one version per update per peer — maximal freshness, maximal cost");
    Report {
        table: t,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_reduces_pulls_for_bursty_updates() {
        let immediate = measure(PropagationPolicy::Immediate, 4, 6);
        let delayed = measure(PropagationPolicy::Delayed(50_000), 4, 6);
        assert_eq!(immediate.updates, delayed.updates);
        assert!(
            delayed.pulls < immediate.pulls,
            "delayed {} vs immediate {}",
            delayed.pulls,
            immediate.pulls
        );
        assert!(delayed.bytes < immediate.bytes);
    }

    #[test]
    fn note_drain_shares_one_attribute_batch_and_stays_within_twice_ideal() {
        let o = measure_note_drain(100);
        assert_eq!(o.notes_taken, 100);
        assert_eq!(o.pulls, 100);
        assert_eq!(o.rpcs_saved, 99, "100 notes, one attribute batch");
        assert!(
            o.rpcs <= 2 * o.ideal_rpcs,
            "{} rpcs against an ideal of {}",
            o.rpcs,
            o.ideal_rpcs
        );
    }

    #[test]
    fn empty_measurement_reports_no_mean_instead_of_a_fabricated_one() {
        let o = measure(PropagationPolicy::Immediate, 0, 0);
        assert_eq!(o.updates, 0);
        assert_eq!(
            o.mean_staleness_us, None,
            "zero updates must yield no staleness mean, not 0/1"
        );
    }

    #[test]
    fn both_policies_eventually_replicate_everything() {
        for policy in [
            PropagationPolicy::Immediate,
            PropagationPolicy::Delayed(30_000),
        ] {
            let cred = Credentials::root();
            let w = FicusWorld::new(WorldParams {
                propagation: policy,
                ..WorldParams::default()
            });
            let f = w
                .logical(HostId(1))
                .root()
                .create(&cred, "f", 0o644)
                .unwrap();
            f.write(&cred, 0, b"final state").unwrap();
            w.clock().advance(1_000_000);
            w.settle();
            for h in w.host_ids() {
                let v = w.logical(h).root().lookup(&cred, "f").unwrap();
                assert_eq!(&v.read(&cred, 0, 20).unwrap()[..], b"final state");
            }
        }
    }
}
