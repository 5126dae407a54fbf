//! The layer ledger: the workload's own inputs driven through each layer
//! in turn, from hash rows to the replicated mesh, timing the calls the
//! benchmark makes into each layer's public functions.
//!
//! Layers run in interleaved rounds (every layer once per round), each
//! pass under a time budget, so slow drift of the host spreads over all
//! layers alike. A layer's figure is the median over rounds.

use crate::closed_loop::{watch_gauges, GaugeMaxima};
use crate::deploy::{send, Client, Deployment, Tier};
use crate::stats::{median, quantile};
use crate::trace::{Span, Trace, Tracer};
use crate::workload::{Inputs, OpKind};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use uns_core::{KnowledgeFreeSampler, NodeId, NodeSampler};
use uns_service::protocol::{Request, Response, StreamConfig};
use uns_service::storage::{DirBackend, StorageBackend};
use uns_service::wal::{crc32, encode_record, FsyncPolicy, WalOpRef, WalWriter};
use uns_service::ServiceSampler;
use uns_sketch::{CountMinSketch, CountSketch, HashFamily, UniversalHash};

/// Elements one library-layer span covers: the calls are grouped so a
/// span's own cost stays far below the work it times.
const SPAN_ELEMS: usize = 4096;
/// Identifiers per WAL record of the storage layer.
const WAL_RECORD_IDS: usize = 1024;
/// Records appended between two timed fsyncs (the `EveryN(256)` policy).
const WAL_SYNC_EVERY: usize = 256;
/// Count-sketch dimensions of the Count-sketch cell (k = 250, s = 10).
const COUNT_SKETCH: (usize, usize) = (250, 10);

/// Figures of one layer: the median over rounds of each pass's summed
/// span time divided by its summed units.
#[derive(Clone, Debug, Default)]
pub struct LedgerFigures {
    /// Per span name: median ns per unit (element, record, KiB or request).
    pub ns_per_unit: BTreeMap<&'static str, f64>,
    /// Per span name: median ns per element (request tiers and codecs).
    pub ns_per_elem: BTreeMap<&'static str, f64>,
    /// Median fsync, µs.
    pub fsync_us_p50: f64,
    /// Elements admitted ÷ elements over one pass of the window from a
    /// fresh sampler: an exact count, unchanged by any optimisation.
    pub admission_ratio: f64,
    /// Exposition texts of the reactor, durable and mesh tiers.
    pub expositions: BTreeMap<&'static str, Vec<String>>,
    /// Gauge maxima seen per tier while the passes ran.
    pub gauges: BTreeMap<&'static str, GaugeMaxima>,
}

/// How a span's units are counted.
#[derive(Clone, Copy)]
enum Unit {
    Elems,
    Count,
    KiB,
}

/// The per-layer state carried across rounds.
struct Layers<'a> {
    inputs: &'a Inputs,
    window: &'a [NodeId],
    batch: usize,
    cursor: usize,
    rows: Vec<UniversalHash>,
    count_min: CountMinSketch,
    count_sketch: CountSketch,
    feed: KnowledgeFreeSampler<CountMinSketch>,
    feed_batch: KnowledgeFreeSampler<CountMinSketch>,
    service: ServiceSampler,
    wal: WalWriter,
    steps: BTreeMap<&'static str, u64>,
}

impl Layers<'_> {
    /// The next `len` ids of the window (cyclic).
    fn next(&mut self, len: usize, out: &mut Vec<NodeId>) {
        out.clear();
        while out.len() < len {
            let take = (len - out.len()).min(self.window.len() - self.cursor);
            out.extend_from_slice(&self.window[self.cursor..self.cursor + take]);
            self.cursor = (self.cursor + take) % self.window.len();
        }
    }
}

fn kf_sampler(config: &StreamConfig) -> KnowledgeFreeSampler<CountMinSketch> {
    KnowledgeFreeSampler::with_count_min_family(
        config.capacity,
        config.width,
        config.depth,
        config.seed,
        config.family,
    )
    .expect("the ledger stream's configuration is valid")
}

/// One library-layer pass: groups of `SPAN_ELEMS` ids, cut into the
/// workload's batches, until `deadline`.
fn library_pass(
    layers: &mut Layers<'_>,
    name: &'static str,
    tracer: &mut Tracer,
    parent: u64,
    deadline: Instant,
) {
    let group = SPAN_ELEMS.div_ceil(layers.batch) * layers.batch;
    let layer = LIBRARY.iter().position(|n| *n == name).expect("a library layer");
    let (mut ids, mut out, mut row_out) = (Vec::new(), Vec::new(), Vec::new());
    let mut request = 0;
    while Instant::now() < deadline {
        layers.next(group, &mut ids);
        let l = &mut *layers;
        tracer.span(name, parent, request, group as u64, || {
            for batch in ids.chunks(l.batch) {
                match layer {
                    0 => {
                        for id in batch {
                            row_out.clear();
                            UniversalHash::hash_rows(&l.rows, id.as_u64(), &mut row_out);
                            black_box(&row_out);
                        }
                    }
                    1 => {
                        for id in batch {
                            black_box(l.count_min.record_and_estimate(id.as_u64()));
                        }
                    }
                    2 => {
                        for id in batch {
                            black_box(l.count_sketch.record_and_estimate(id.as_u64()));
                        }
                    }
                    3 => {
                        for &id in batch {
                            black_box(l.feed.feed(id));
                        }
                    }
                    4 => {
                        out.clear();
                        black_box(l.feed_batch.feed_batch_admitted(batch, &mut out));
                    }
                    5 => {
                        out.clear();
                        black_box(l.service.feed_batch(batch, &mut out));
                    }
                    _ => unreachable!("LIBRARY has six layers"),
                }
            }
        });
        request += 1;
    }
}

/// The codec pass: conn 0's script encoded and decoded as requests and
/// replies, one span per direction and side for each group of requests.
fn protocol_pass(layers: &mut Layers<'_>, tracer: &mut Tracer, parent: u64, deadline: Instant) {
    let inputs = layers.inputs;
    let step = layers.steps.entry("protocol").or_insert(0);
    let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
    let mut request = 0;
    while Instant::now() < deadline {
        let (mut names, mut batches, mut replies) = (Vec::new(), Vec::new(), Vec::new());
        let mut elems = 0;
        while elems < SPAN_ELEMS as u64 {
            let op = inputs.op(0, *step);
            *step += 1;
            let ids = inputs.ids(&op, &mut scratch).to_vec();
            elems += ids.len() as u64;
            replies.push(match op.kind {
                OpKind::Ingest => Response::Ingested { position: elems, admitted: 1 },
                OpKind::Feed => {
                    Response::Fed { position: elems, admitted: 1, outputs: ids.clone() }
                }
                OpKind::Sample => Response::Sampled(Some(NodeId::new(elems))),
            });
            names.push((op.kind, inputs.names[op.stream].as_str()));
            batches.push(ids);
        }
        let mut frames: Vec<Vec<u8>> = vec![Vec::new(); names.len()];
        tracer.span("protocol.request_encode", parent, request, elems, || {
            for ((frame, &(kind, name)), ids) in frames.iter_mut().zip(&names).zip(&batches) {
                match kind {
                    OpKind::Sample => Request::Sample { name }.encode(frame),
                    _ => Request::encode_batch(frame, kind == OpKind::Feed, name, ids),
                }
            }
        });
        tracer.span("protocol.request_decode", parent, request, elems, || {
            for frame in &frames {
                match Request::decode(frame).expect("the benchmark's own frames decode") {
                    Request::Ingest { ids, .. } | Request::FeedBatch { ids, .. } => {
                        decoded.clear();
                        ids.copy_into(&mut decoded);
                        black_box(&decoded);
                    }
                    other => {
                        black_box(other);
                    }
                }
            }
        });
        tracer.span("protocol.response_encode", parent, request, elems, || {
            for (frame, reply) in frames.iter_mut().zip(&replies) {
                reply.encode(frame);
            }
        });
        tracer.span("protocol.response_decode", parent, request, elems, || {
            for frame in &frames {
                black_box(Response::decode(frame).expect("the benchmark's own frames decode"));
            }
        });
        request += 1;
    }
}

/// The storage pass: 1024-id feed records appended to a `DirBackend`
/// WAL, a timed fsync every 256 records, then an untimed reset that
/// keeps the file small; plus CRC32 over each encoded record.
fn wal_pass(
    layers: &mut Layers<'_>,
    tracer: &mut Tracer,
    parent: u64,
    deadline: Instant,
) -> Result<(), String> {
    let (mut ids, mut record) = (Vec::new(), Vec::new());
    let mut request = 0;
    while Instant::now() < deadline {
        for _ in 0..WAL_SYNC_EVERY {
            layers.next(WAL_RECORD_IDS, &mut ids);
            let wal = &mut layers.wal;
            tracer
                .span("wal.append_op", parent, request, WAL_RECORD_IDS as u64, || {
                    wal.append_op(WalOpRef::Feed(&ids))
                })
                .map_err(|e| format!("WAL append: {e}"))?;
            record.clear();
            encode_record(&mut record, WalOpRef::Feed(&ids));
            // The span's element count carries the record's bytes.
            let bytes = record.len() as u64;
            tracer.span("wal.crc32", parent, request, bytes, || black_box(crc32(&record)));
            request += 1;
        }
        let wal = &mut layers.wal;
        tracer.span("wal.fsync", parent, request, 0, || wal.sync()).map_err(|e| e.to_string())?;
        let next = layers.wal.next_seq();
        layers.wal.reset(next).map_err(|e| format!("WAL reset: {e}"))?;
    }
    Ok(())
}

/// One request-tier pass: conn 0's script over one connection.
fn tier_pass(
    layers: &mut Layers<'_>,
    name: &'static str,
    client: &mut Client,
    tracer: &mut Tracer,
    parent: u64,
    deadline: Instant,
) -> Result<(), String> {
    let inputs = layers.inputs;
    let step = layers.steps.entry(name).or_insert(inputs.setup_steps());
    let mut scratch = Vec::new();
    while Instant::now() < deadline {
        let op = inputs.op(0, *step);
        let elems = if op.kind == OpKind::Sample { 0 } else { inputs.kind.batch() as u64 };
        tracer
            .span(name, parent, *step, elems, || send(client, inputs, &op, &mut scratch, false))
            .map_err(|e| format!("{name}: {e}"))?;
        *step += 1;
    }
    Ok(())
}

/// The request tiers, thinnest first, with their span names.
const TIERS: [(Tier, &str); 4] = [
    (Tier::Pipe, "transport.pipe_request"),
    (Tier::Reactor, "reactor.tcp_request"),
    (Tier::Durable, "mesh.unreplicated_request"),
    (Tier::Mesh, "mesh.replicated_request"),
];

/// Library layers, in ledger order.
const LIBRARY: [&str; 6] = [
    "sketch.hash_rows",
    "sketch.countmin_record_estimate",
    "sketch.countsketch_record_estimate",
    "core.feed",
    "core.feed_batch",
    "service.sampler_feed_batch",
];

/// Exact admission ratio of one window pass from a fresh sampler.
fn admission_ratio(config: &StreamConfig, window: &[NodeId], batch: usize) -> f64 {
    let mut sampler = kf_sampler(config);
    let mut out = Vec::with_capacity(batch);
    let admitted: u64 = window
        .chunks(batch)
        .map(|ids| {
            out.clear();
            sampler.feed_batch_admitted(ids, &mut out)
        })
        .sum();
    admitted as f64 / window.len() as f64
}

/// Runs `rounds` interleaved rounds of every layer, each pass for
/// `pass`, recording spans into `trace`. Durable files live under `dir`.
///
/// # Errors
///
/// Any layer or tier failure.
pub fn run(
    inputs: &Inputs,
    dir: &Path,
    rounds: usize,
    pass: Duration,
    epoch: Instant,
    trace: &mut Trace,
) -> Result<LedgerFigures, String> {
    let config = inputs.configs[0];
    let window = &inputs.windows[0];
    let family = HashFamily::with_kind(config.seed, uns_sketch::HashFamilyKind::Mersenne);
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let backend = DirBackend::create(dir.join("wal")).map_err(|e| err(&e))?;
    let store = backend.open_wal("ledger").map_err(|e| err(&e))?;
    let mut layers = Layers {
        inputs,
        window,
        batch: inputs.kind.batch(),
        cursor: 0,
        rows: family.functions(config.depth, config.width as u64).map_err(|e| err(&e))?,
        count_min: CountMinSketch::with_dimensions_family(
            config.width,
            config.depth,
            config.seed,
            config.family,
        )
        .map_err(|e| err(&e))?,
        count_sketch: CountSketch::with_dimensions_family(
            COUNT_SKETCH.0,
            COUNT_SKETCH.1,
            config.seed,
            config.family,
        )
        .map_err(|e| err(&e))?,
        feed: kf_sampler(&config),
        feed_batch: kf_sampler(&config),
        service: ServiceSampler::create(&config).map_err(|e| err(&e))?,
        wal: WalWriter::create(store, 1, 0, FsyncPolicy::EveryN(u32::MAX)).map_err(|e| err(&e))?,
        steps: BTreeMap::new(),
    };
    let (mut deployments, mut clients) = (Vec::new(), Vec::new());
    for (tier, name) in TIERS {
        let (deployment, mut connected, _) = Deployment::start(tier, inputs, 1, &dir.join(name))
            .map_err(|e| format!("{name}: {e}"))?;
        deployments.push(deployment);
        clients.push(connected.remove(0));
    }
    let mut tracer = Tracer::new(epoch, 0x100);
    let done = AtomicBool::new(false);
    let watched: Vec<&Deployment> = deployments.iter().collect();
    let (result, gauges) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_gauges(&watched, &done, Duration::from_millis(10)));
        let mut result = Ok(());
        'rounds: for round in 0..rounds as u64 {
            for layer in 0..LIBRARY.len() + 2 + TIERS.len() {
                let parent = tracer.open();
                let start = tracer.now();
                let deadline = Instant::now() + pass;
                let outcome = match layer {
                    l if l < LIBRARY.len() => {
                        library_pass(&mut layers, LIBRARY[l], &mut tracer, parent, deadline);
                        Ok(())
                    }
                    l if l == LIBRARY.len() => {
                        protocol_pass(&mut layers, &mut tracer, parent, deadline);
                        Ok(())
                    }
                    l if l == LIBRARY.len() + 1 => {
                        wal_pass(&mut layers, &mut tracer, parent, deadline)
                    }
                    l => {
                        let tier = l - LIBRARY.len() - 2;
                        let (name, client) = (TIERS[tier].1, &mut clients[tier]);
                        tier_pass(&mut layers, name, client, &mut tracer, parent, deadline)
                    }
                };
                let end = tracer.now();
                tracer.record(Span {
                    name: "ledger.pass",
                    id: parent,
                    parent: 0,
                    request: round,
                    start,
                    end,
                    elems: 0,
                });
                if outcome.is_err() {
                    result = outcome;
                    break 'rounds;
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        (result, watcher.join().expect("the gauge watcher does not panic"))
    });
    let mut figures = LedgerFigures {
        admission_ratio: admission_ratio(&config, window, inputs.kind.batch()),
        ..LedgerFigures::default()
    };
    for (((_, name), deployment), (client, gauge)) in
        TIERS.iter().zip(deployments).zip(clients.into_iter().zip(gauges))
    {
        figures.expositions.insert(name, deployment.expositions());
        figures.gauges.insert(name, gauge);
        deployment.stop(vec![client]);
    }
    result?;
    let mut own = Trace::default();
    tracer.drain_into(&mut own);
    summarise(&own, &mut figures);
    trace.spans.append(&mut own.spans);
    trace.dropped += own.dropped;
    Ok(figures)
}

/// Per-pass sums of each layer's spans, reduced to medians over rounds.
fn summarise(trace: &Trace, figures: &mut LedgerFigures) {
    let mut passes: BTreeMap<(&'static str, u64), (u64, u64, u64)> = BTreeMap::new();
    let mut fsyncs = Vec::new();
    for span in &trace.spans {
        if span.name == "ledger.pass" {
            continue;
        }
        let duration = span.end.saturating_sub(span.start);
        if span.name == "wal.fsync" {
            fsyncs.push(duration as f64 / 1e3);
        }
        let entry = passes.entry((span.name, span.parent)).or_default();
        entry.0 += duration;
        entry.1 += span.elems;
        entry.2 += 1;
    }
    let mut per_unit: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut per_elem: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), (ns, elems, count)) in passes {
        let unit = match name {
            "wal.append_op" => Unit::Count,
            "wal.crc32" => Unit::KiB,
            n if TIERS.iter().any(|(_, t)| *t == n) => Unit::Count,
            _ => Unit::Elems,
        };
        let units = match unit {
            Unit::Elems => elems as f64,
            Unit::Count => count as f64,
            Unit::KiB => elems as f64 / 1024.0,
        };
        if units > 0.0 {
            per_unit.entry(name).or_default().push(ns as f64 / units);
        }
        if elems > 0 && !matches!(unit, Unit::KiB) {
            per_elem.entry(name).or_default().push(ns as f64 / elems as f64);
        }
    }
    for (name, mut values) in per_unit {
        figures.ns_per_unit.insert(name, median(&mut values).unwrap_or(0.0));
    }
    for (name, mut values) in per_elem {
        figures.ns_per_elem.insert(name, median(&mut values).unwrap_or(0.0));
    }
    figures.fsync_us_p50 = quantile(&mut fsyncs, 0.5).unwrap_or(0.0);
}
