//! The traced run's tables: the ledger waterfall (Melem/s and Δns/elem
//! per layer, in ledger order) and span self time per layer.

use crate::ledger::LedgerFigures;
use crate::run::Report;
use crate::trace::Trace;

/// Ledger rows: the span whose ns/elem the row shows, and its label.
const ROWS: [(&str, &str); 8] = [
    ("sketch.hash_rows", "uns-sketch hash_rows"),
    ("sketch.countmin_record_estimate", "uns-sketch CM record_and_estimate"),
    ("core.feed_batch", "uns-core feed_batch_admitted"),
    ("service.sampler_feed_batch", "uns-service ServiceSampler::feed_batch"),
    ("transport.pipe_request", "uns-service in-process pipe"),
    ("reactor.tcp_request", "uns-service reactor TCP"),
    ("mesh.unreplicated_request", "uns-service durable WAL (serve)"),
    ("mesh.replicated_request", "uns-mesh replicated R=1"),
];

/// Appends the waterfall and self-time tables to `report.lines`.
pub fn render(report: &mut Report, ledger: &LedgerFigures, trace: &Trace) {
    let lines = &mut report.lines;
    lines.push("ledger waterfall (median over interleaved rounds, one connection):".into());
    lines.push(format!("  {:<42} {:>10} {:>10} {:>12}", "layer", "ns/elem", "Melem/s", "Δns/elem"));
    let mut previous: Option<f64> = None;
    for (span, label) in ROWS {
        let Some(&ns) = ledger.ns_per_elem.get(span) else {
            lines.push(format!("  {label:<42} {:>10}", "n/a"));
            continue;
        };
        let delta = previous.map_or_else(|| "-".to_string(), |p| format!("{:+.2}", ns - p));
        lines.push(format!("  {label:<42} {ns:>10.2} {:>10.2} {delta:>12}", 1e3 / ns));
        previous = Some(ns);
    }
    for (span, label) in [
        ("core.feed", "  (reference) uns-core element-wise feed"),
        ("sketch.countsketch_record_estimate", "  (reference) CS k=250 s=10 record_and_estimate"),
    ] {
        if let Some(&ns) = ledger.ns_per_elem.get(span) {
            lines.push(format!("{label:<44} {ns:>10.2} {:>10.2}", 1e3 / ns));
        }
    }
    let codec: f64 = [
        "protocol.request_encode",
        "protocol.request_decode",
        "protocol.response_encode",
        "protocol.response_decode",
    ]
    .iter()
    .filter_map(|s| ledger.ns_per_elem.get(s))
    .sum();
    lines.push(format!("  {:<42} {codec:>10.2}", "(reference) protocol codec, both directions"));

    lines.push("span self time per layer (traced loops and ledger passes):".into());
    lines.push(format!(
        "  {:<38} {:>9} {:>11} {:>11} {:>10}",
        "span", "count", "total ms", "self ms", "self ns/el"
    ));
    for (name, layer) in trace.layer_times() {
        let per_elem = if layer.elems > 0 {
            format!("{:.2}", layer.self_ns as f64 / layer.elems as f64)
        } else {
            "-".to_string()
        };
        lines.push(format!(
            "  {name:<38} {:>9} {:>11.2} {:>11.2} {per_elem:>10}",
            layer.spans,
            layer.total_ns as f64 / 1e6,
            layer.self_ns as f64 / 1e6,
        ));
    }
}
