//! Server counters read through the public registry: each server's
//! exposition text, parsed with `uns_metrics::parse_exposition`, mapped
//! onto the benchmark's `server.*`, `reactor.*`, `wal.*` and `mesh.*`
//! names.

use crate::closed_loop::GaugeMaxima;
use crate::stats::bucket_quantile;
use std::collections::BTreeMap;
use uns_metrics::{parse_exposition, Sample};

/// Parsed samples of one deployment, per server.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    servers: Vec<Vec<Sample>>,
}

impl Counters {
    /// Parses every exposition text.
    ///
    /// # Errors
    ///
    /// The parser's error on malformed text.
    pub fn parse(texts: &[String]) -> Result<Counters, String> {
        let servers = texts.iter().map(|text| parse_exposition(text).map_err(|e| e.to_string()));
        Ok(Counters { servers: servers.collect::<Result<_, _>>()? })
    }

    /// Sum of every series named `name` (over labels and servers).
    pub fn sum(&self, name: &str) -> f64 {
        self.servers.iter().flatten().filter(|s| s.name == name).map(|s| s.value).sum()
    }

    /// Per-bucket (not cumulative) counts of histogram `name`, summed over
    /// every series of every server; index `i` is the bucket with upper
    /// bound `2^i` ns.
    pub fn histogram(&self, name: &str) -> Vec<u64> {
        let bucket = format!("{name}_bucket");
        // Cumulative counts per (server, labels other than `le`), by bucket.
        let mut series: BTreeMap<(usize, String), Vec<(usize, u64)>> = BTreeMap::new();
        let samples =
            self.servers.iter().enumerate().flat_map(|(i, s)| s.iter().map(move |s| (i, s)));
        for (server, s) in samples.filter(|(_, s)| s.name == bucket) {
            let index = match s.label("le") {
                Some("+Inf") => 64,
                Some(le) => le.parse::<u64>().map_or(0, |b| b.trailing_zeros() as usize),
                None => continue,
            };
            let key: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let cumulative = s.value_u64().unwrap_or(0);
            series.entry((server, key.join(","))).or_default().push((index, cumulative));
        }
        let mut buckets = vec![0u64; 65];
        for mut points in series.into_values() {
            points.sort_unstable();
            let mut below = 0;
            for (index, cumulative) in points {
                buckets[index] += cumulative.saturating_sub(below);
                below = cumulative;
            }
        }
        buckets
    }
}

/// The registry-derived per-layer metrics, by name, in output order.
pub fn server_metrics(counters: &Counters, gauges: &GaugeMaxima) -> Vec<(&'static str, f64)> {
    let apply = counters.histogram("uns_op_latency_nanos");
    vec![
        ("server.apply_ns_p50", bucket_quantile(&apply, 0.5).unwrap_or(0.0)),
        ("server.apply_ns_p99", bucket_quantile(&apply, 0.99).unwrap_or(0.0)),
        ("server.busy_rejections_total", counters.sum("uns_stream_busy_rejections_total")),
        ("server.queue_depth_max", gauges.queue_depth),
    ]
}

/// Connection-layer metrics of a reactor deployment.
pub fn reactor_metrics(counters: &Counters, gauges: &GaugeMaxima) -> Vec<(&'static str, f64)> {
    vec![
        ("reactor.buffered_bytes_max", gauges.buffered_bytes),
        ("reactor.rate_limited_total", counters.sum("uns_reactor_rate_limited_total")),
    ]
}

fn per_elem(counters: &Counters, name: &str) -> f64 {
    let elements = counters.sum("uns_stream_elements_total");
    if elements > 0.0 {
        counters.sum(name) / elements
    } else {
        0.0
    }
}

/// Storage counters of a durable deployment.
pub fn wal_metrics(counters: &Counters) -> Vec<(&'static str, f64)> {
    vec![
        ("wal.bytes_per_elem", per_elem(counters, "uns_stream_wal_bytes_total")),
        ("wal.compactions_total", counters.sum("uns_stream_wal_compactions_total")),
    ]
}

/// Replication counters of a mesh deployment.
pub fn mesh_metrics(counters: &Counters, gauges: &GaugeMaxima) -> Vec<(&'static str, f64)> {
    vec![
        ("mesh.replication_bytes_per_elem", per_elem(counters, "uns_replication_bytes_total")),
        ("mesh.replica_lag_records_max", gauges.replica_lag),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uns_metrics::MetricsRegistry;

    #[test]
    fn histograms_and_sums_survive_the_round_trip() {
        let registry = MetricsRegistry::new();
        let feed = registry.histogram("lat", "help", &[("op", "feed")]);
        let ingest = registry.histogram("lat", "help", &[("op", "ingest")]);
        feed.record(3); // bucket 2: (2, 4]
        feed.record(3);
        ingest.record(100); // bucket 7: (64, 128]
        registry.counter("hits_total", "help", &[("stream", "a")]).add(2);
        registry.counter("hits_total", "help", &[("stream", "b")]).add(5);
        // Two servers with identical series, as on the mesh.
        let text = registry.render();
        let counters = Counters::parse(&[text.clone(), text]).expect("registry text parses");
        let buckets = counters.histogram("lat");
        assert_eq!(buckets[2], 4);
        assert_eq!(buckets[7], 2);
        assert_eq!(buckets.iter().sum::<u64>(), 6);
        assert_eq!(counters.sum("hits_total"), 14.0);
    }
}
