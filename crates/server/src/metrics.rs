//! Server-side counters and the Prometheus exposition page.
//!
//! [`ServerMetrics`] is the service layer's own telemetry — connection
//! accounting, rate-limit and slow-query counters, per-op latency
//! histograms. [`render_metrics`] stitches it together with the
//! engine's [`DbStats`](scavenger::DbStats) exposition (including
//! per-shard I/O attribution from `Maintenance::per_shard_stats`) into
//! the single text page served on the `/metrics` HTTP listener and the
//! `Stats` wire request.

use parking_lot::Mutex;
use scavenger::Maintenance;
use scavenger_util::hist::Histogram;
use scavenger_util::metric_set;
use scavenger_util::metrics::{write_family, write_header, write_sample, Kind};
use std::time::Duration;

/// Request-op classes tracked by the per-op latency histograms.
pub const OP_LABELS: [&str; 5] = ["get", "put", "delete", "write", "scan"];

metric_set! {
    /// Point-in-time copy of the [`ServerMetrics`] counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerCounters in "server_" {
        /// Connections accepted since start.
        conns_total as connections: u64 = counter sum,
        /// Connections currently open.
        conns_active as connections_active: u64 = gauge sum,
        /// Connections refused at accept time by the connection cap.
        conns_rejected as connections_rejected: u64 = counter sum,
        /// Requests rejected by a token bucket.
        rate_limited: u64 = counter sum,
        /// Requests slower than the slow-query threshold.
        slow_queries: u64 = counter sum,
        /// Requests answered with a success frame.
        requests_ok: u64 = counter sum hand,
        /// Requests answered with an error frame.
        requests_err: u64 = counter sum hand,
        /// Pinned reads that named an unknown or expired snapshot id.
        pin_misses: u64 = counter sum,
        /// Change events delivered in ChangeChunk frames.
        cdc_events_streamed: u64 = counter sum,
    }
    /// Live counters for the service layer. All methods are lock-free or
    /// take a short histogram lock; safe to share across connection
    /// threads via `Arc`.
    #[derive(Default)]
    pub atomic ServerMetrics {
        /// Per-op latency histograms (microseconds), indexed like
        /// [`OP_LABELS`].
        latency_us: [Mutex<Histogram>; 5],
    }
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Record one request's latency under its op label. Ops outside
    /// [`OP_LABELS`] (maintenance, snapshots) are counted in
    /// `requests_ok`/`requests_err` but not histogrammed.
    pub fn record_latency(&self, op: &str, latency: Duration) {
        if let Some(idx) = OP_LABELS.iter().position(|l| *l == op) {
            self.latency_us[idx]
                .lock()
                .record(latency.as_micros() as u64);
        }
    }

    /// Snapshot one op's histogram (for rendering and tests).
    pub fn latency_snapshot(&self, op: &str) -> Option<Histogram> {
        let idx = OP_LABELS.iter().position(|l| *l == op)?;
        Some(self.latency_us[idx].lock().clone())
    }

    /// Append the service-layer series to a Prometheus page.
    pub fn render(&self, out: &mut String, pinned: usize, change_streams: usize) {
        let c = self.snapshot();
        ServerCounters::write_families(out, &[("", &c)]);
        write_family(
            out,
            "scavenger_server_requests_total",
            Kind::Counter,
            "Requests answered, by outcome.",
            [
                ("outcome=\"ok\"", c.requests_ok as f64),
                ("outcome=\"error\"", c.requests_err as f64),
            ],
        );
        write_family(
            out,
            "scavenger_server_pinned_snapshots",
            Kind::Gauge,
            "Snapshots currently held in the server pin table.",
            [("", pinned as f64)],
        );
        write_family(
            out,
            "scavenger_server_change_streams",
            Kind::Gauge,
            "Change streams currently held in the server stream table.",
            [("", change_streams as f64)],
        );

        let name = "scavenger_server_op_latency_us";
        write_header(
            out,
            name,
            Kind::Summary,
            "Per-op request latency in microseconds.",
        );
        for (idx, op) in OP_LABELS.iter().enumerate() {
            let h = self.latency_us[idx].lock();
            if h.count() == 0 {
                continue;
            }
            for (q, p) in [("0.5", 50.0), ("0.99", 99.0)] {
                write_sample(
                    out,
                    name,
                    &format!("op=\"{op}\",quantile=\"{q}\""),
                    h.percentile(p),
                );
            }
            let op_label = format!("op=\"{op}\"");
            write_sample(out, &format!("{name}_count"), &op_label, h.count() as f64);
            write_sample(out, &format!("{name}_sum"), &op_label, h.sum() as f64);
        }
    }
}

/// Render the full `/metrics` page: engine stats (aggregate, with
/// per-shard I/O attribution) and service-layer counters.
pub fn render_metrics<E: Maintenance>(
    engine: &E,
    metrics: &ServerMetrics,
    pinned: usize,
    change_streams: usize,
) -> String {
    let mut out = String::new();
    // One shard="<i>" I/O sample set per member; for an unsharded engine
    // a single shard="0" set mirroring the aggregate.
    let shards = engine.per_shard_stats();
    engine.stats().render_prometheus(&mut out, &shards);
    write_family(
        &mut out,
        "scavenger_shard_count",
        Kind::Gauge,
        "Members reporting per-shard statistics.",
        [("", shards.len() as f64)],
    );
    metrics.render(&mut out, pinned, change_streams);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn render_includes_counters_and_latency_quantiles() {
        let m = ServerMetrics::new();
        m.conns_total.store(5, Ordering::Relaxed);
        m.rate_limited.store(2, Ordering::Relaxed);
        m.record_latency("get", Duration::from_micros(100));
        m.record_latency("get", Duration::from_micros(300));
        m.cdc_events_streamed.store(7, Ordering::Relaxed);
        let mut out = String::new();
        m.render(&mut out, 3, 2);
        assert!(out.contains("scavenger_server_connections_total 5\n"));
        assert!(out.contains("scavenger_server_rate_limited_total 2\n"));
        assert!(out.contains("scavenger_server_pinned_snapshots 3\n"));
        assert!(out.contains("scavenger_server_change_streams 2\n"));
        assert!(out.contains("scavenger_server_cdc_events_streamed_total 7\n"));
        assert!(out.contains("op=\"get\",quantile=\"0.99\""));
        assert!(out.contains("scavenger_server_op_latency_us_count{op=\"get\"} 2\n"));
        // Ops never recorded are omitted rather than emitting zeros.
        assert!(!out.contains("op=\"scan\""));
    }

    #[test]
    fn unknown_op_label_is_ignored() {
        let m = ServerMetrics::new();
        m.record_latency("flush", Duration::from_micros(1));
        for op in OP_LABELS {
            assert_eq!(m.latency_snapshot(op).unwrap().count(), 0);
        }
        assert!(m.latency_snapshot("flush").is_none());
    }
}
