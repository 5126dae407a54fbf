//! One benchmark run: set up, measure, check, report.

use crate::check::{check, Replayed, StreamFinal};
use crate::closed_loop::{self, watch_gauges, ConnLog, Figures, GaugeMaxima, LoopRun};
use crate::counters::{mesh_metrics, reactor_metrics, server_metrics, wal_metrics, Counters};
use crate::deploy::{Client, Deployment, Tier};
use crate::ledger::{self, LedgerFigures};
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{Inputs, Kind, CONNECTIONS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rounds of an untraced run, each on a fresh set-up; every end-to-end
/// figure is the median over rounds.
pub const ROUNDS: usize = 12;
/// Interleaved ledger rounds of a traced run.
const LEDGER_ROUNDS: usize = 5;
/// Passes per ledger round (library layers, codec, WAL, four tiers).
const LEDGER_PASSES: usize = 12;
/// Untraced and traced loop pairs of a traced run (`trace.overhead_pct`).
const OVERHEAD_PAIRS: usize = 3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Negative control: alter one feed reply before the check sees it.
    pub corrupt: bool,
}

/// A metric as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed. A request that ends in an error other
    /// than a retried `Busy` or rate-limited refusal stops its connection
    /// and fails the check.
    pub correct: bool,
    /// Requests sent by the closed loops, retries included.
    pub attempted: u64,
    /// Attempts that ended in an error or a `Busy` refusal.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (tables, sample counts, check verdicts).
    pub lines: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The tier a workload's closed loop runs over.
pub fn tier_of(kind: Kind) -> Tier {
    match kind {
        Kind::HotStream | Kind::TenantMix => Tier::Reactor,
        Kind::ReplicatedFeed => Tier::Mesh,
    }
}

/// Where runs keep their scratch files and traces: `out/` beside the
/// benchmark's sources, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A set-up: the deployment, its clients, and the set-up replies.
type Setup = (Deployment, Vec<Client>, Vec<ConnLog>);

/// How long a set-up took, seconds.
#[derive(Clone, Copy, Debug)]
struct SetupTime {
    /// By the clock.
    wall: f64,
    /// CPU time the process's threads ran for it.
    cpu: f64,
}

fn setup(kind: Kind, inputs: &Inputs, dir: &Path) -> Result<(Setup, SetupTime), String> {
    let before = closed_loop::thread_cpu_ns();
    let started = Instant::now();
    let setup = Deployment::start(tier_of(kind), inputs, CONNECTIONS, dir)
        .map_err(|e| format!("set-up: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    Ok((setup, SetupTime { wall, cpu: closed_loop::cpu_since(&before) }))
}

/// Reads each stream's final snapshot and element count through the
/// connection that owns it.
fn finals(inputs: &Inputs, clients: &mut [Client]) -> Result<Vec<StreamFinal>, String> {
    let mut finals = vec![None; inputs.names.len()];
    for (conn, client) in clients.iter_mut().enumerate() {
        for stream in inputs.owned(conn) {
            let name = &inputs.names[stream];
            let snapshot = client.snapshot(name).map_err(|e| format!("{name}: snapshot: {e}"))?;
            let stats = client.stats(name).map_err(|e| format!("{name}: stats: {e}"))?;
            finals[stream] = Some(StreamFinal { snapshot, elements: stats.pipeline.elements });
        }
    }
    Ok(finals.into_iter().map(|f| f.expect("every stream has an owner")).collect())
}

/// A measured loop, checked.
struct Checked {
    run: LoopRun,
    verdict: Result<Replayed, String>,
    expositions: Vec<String>,
    gauges: GaugeMaxima,
}

/// Runs the closed loop on a set-up, then checks its outputs (replay,
/// final snapshots, replica positions) and tears it down.
fn measure(
    opts: &Options,
    inputs: &Inputs,
    setup: Setup,
    warmup: Duration,
    seconds: Duration,
    traced: bool,
) -> Checked {
    let (deployment, mut clients, logs) = setup;
    let done = AtomicBool::new(false);
    let (run, gauges) = std::thread::scope(|scope| {
        let watcher = traced.then(|| {
            scope.spawn(|| watch_gauges(&[&deployment], &done, Duration::from_millis(10)))
        });
        let run =
            closed_loop::run(&mut clients, inputs, logs, warmup, seconds, traced, opts.corrupt);
        done.store(true, Ordering::Relaxed);
        let gauges = watcher.map_or_else(GaugeMaxima::default, |w| {
            w.join().expect("the gauge watcher does not panic")[0]
        });
        (run, gauges)
    });
    let expositions = deployment.expositions();
    let verdict = match run.failure() {
        Some(failure) => Err(failure.to_string()),
        None => finals(inputs, &mut clients).and_then(|finals| {
            let logs: Vec<&ConnLog> = run.conns.iter().collect();
            let replayed = check(inputs, &logs, &finals)?;
            deployment.check_replicas(inputs, &replayed.mutations)?;
            Ok(replayed)
        }),
    };
    deployment.stop(clients);
    Checked { run, verdict, expositions, gauges }
}

fn verdict_line(report: &mut Report, label: &str, checked: &Checked) {
    match &checked.verdict {
        Ok(replayed) => report.lines.push(format!(
            "output check ({label}): ok, {} replies equal their in-order replay; final \
             snapshots and element counts (and replica positions on the mesh) match",
            replayed.requests
        )),
        Err(err) => {
            report.correct = false;
            report.lines.push(format!("output check ({label}): FAILED — {err}"));
        }
    }
}

/// Runs one workload as `opts` asks.
///
/// # Errors
///
/// Set-up or ledger failures that leave no result to report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let inputs = Inputs::generate(opts.kind, opts.seed);
    let work =
        out_dir().join(format!("work-{}-{}-{}", opts.kind.name(), opts.seed, std::process::id()));
    let result =
        if opts.trace { traced(opts, &inputs, &work) } else { untraced(opts, &inputs, &work) };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Unmeasured warm-up before a window of `seconds`: caches fill and
/// lazy set-up finishes before timing starts.
fn warmup_for(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 20.0).min(0.25))
}

/// The untraced run: end-to-end metrics.
///
/// The window is split into [`ROUNDS`] rounds, each on a fresh set-up:
/// new server, worker, reactor and client threads, so no one placement
/// of threads on the host's CPUs decides the whole run. Each figure is
/// the median over rounds, so a noisy spell of the host that covers
/// fewer than half of them does not move it; `setup_s` is the median of
/// the rounds' set-ups, in CPU time (see the README for why).
fn untraced(opts: &Options, inputs: &Inputs, work: &Path) -> Result<Report, String> {
    let mut report = Report { correct: true, ..Report::default() };
    let mut times = Vec::with_capacity(ROUNDS);
    let mut per_round: Vec<Figures> = Vec::with_capacity(ROUNDS);
    let (mut busy, mut peak, mut replayed) = (0, 0f64, Replayed::default());
    let seconds = Duration::from_secs_f64(opts.seconds / ROUNDS as f64);
    for round in 0..ROUNDS {
        let (setup, time) = setup(opts.kind, inputs, &work.join(format!("round-{round}")))?;
        times.push(time);
        // Only the round's figures and counts are kept, so the logs of
        // earlier rounds do not add to the next round's peak memory.
        let checked = measure(opts, inputs, setup, warmup_for(opts.seconds), seconds, false);
        verdict_line(&mut report, &format!("round {}", round + 1), &checked);
        per_round.push(checked.run.figures());
        report.attempted += checked.run.attempts();
        report.failed += checked.run.errors();
        busy += checked.run.busy_retries();
        peak = peak.max(checked.run.peak_rss_mib);
        if let Ok(round) = &checked.verdict {
            replayed.merge(round);
        }
    }
    let across = |field: fn(&Figures) -> f64| {
        median(&mut per_round.iter().map(field).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup_median = |field: fn(&SetupTime) -> f64| {
        median(&mut times.iter().map(field).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let gkl = replayed.gkl_gain().unwrap_or(0.0);
    report.metric("throughput_melem_s", across(|f| f.melem_per_s), "Melem/s");
    report.metric("ops_per_s", across(|f| f.ops_per_s), "req/s");
    report.metric("gkl_gain", gkl, "ratio");
    report.metric("setup_s", setup_median(|t| t.cpu), "s");
    report.metric("peak_rss_mb", peak, "MiB");
    let fewest = per_round.iter().map(|f| f.samples).min().unwrap_or(0);
    report.lines.push(format!(
        "not gated, medians over rounds: throughput {:.3} Melem/s before the steal \
         correction; latency p50 {:.1} us, p99 {:.1} us; set-up {:.3} ms by the clock",
        across(|f| f.raw_melem_per_s),
        across(|f| f.p50_us),
        across(|f| f.p99_us),
        setup_median(|t| t.wall) * 1e3,
    ));
    report.lines.push(format!(
        "rounds: {ROUNDS}, {} round trips; each round's percentiles are taken over at least \
         {fewest} round trips ({} beyond p99{})",
        per_round.iter().map(|f| f.samples).sum::<u64>(),
        fewest / 100,
        if fewest >= 1000 { "" } else { ", FEWER THAN TEN" },
    ));
    let list = |values: &mut dyn Iterator<Item = f64>| {
        values.map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ")
    };
    for (label, field) in [
        (
            "throughput before correction per round, Melem/s",
            (|f| f.raw_melem_per_s) as fn(&Figures) -> f64,
        ),
        ("host steal per round, %", |f| f.steal_share * 100.0),
        ("throughput per round, Melem/s", |f| f.melem_per_s),
        ("p50 per round, us", |f| f.p50_us),
        ("p99 per round, us", |f| f.p99_us),
    ] {
        report.lines.push(format!("{label}: {}", list(&mut per_round.iter().map(field))));
    }
    report.lines.push(format!(
        "set-up per round, CPU ms: {}",
        list(&mut times.iter().map(|t| t.cpu * 1e3))
    ));
    report.lines.push(format!(
        "set-up per round, clock ms: {}",
        list(&mut times.iter().map(|t| t.wall * 1e3))
    ));
    report.lines.push(format!(
        "G_KL over the first {} identifiers of each stream, {} ids in, {} out",
        inputs.kind.gkl_prefix(),
        replayed.input_counts.iter().sum::<u64>(),
        replayed.output_counts.iter().sum::<u64>(),
    ));
    report.lines.push(format!(
        "requests: {} attempted, {busy} busy-retried, {} failed",
        report.attempted,
        report.failed - busy
    ));
    Ok(report)
}

/// The traced run: per-layer metrics, the waterfall, the span dump.
fn traced(opts: &Options, inputs: &Inputs, work: &Path) -> Result<Report, String> {
    let mut report = Report { correct: true, ..Report::default() };
    let epoch = Instant::now();
    let mut trace = Trace::default();
    // Time split: 40% ledger passes, 60% alternating untraced and traced
    // loops, which side goes first alternating from pair to pair.
    let pass = Duration::from_secs_f64(
        (opts.seconds * 0.4 / (LEDGER_ROUNDS * LEDGER_PASSES) as f64).max(0.005),
    );
    let ledger = ledger::run(inputs, &work.join("ledger"), LEDGER_ROUNDS, pass, epoch, &mut trace)?;
    let loop_secs = opts.seconds * 0.6 / (2 * OVERHEAD_PAIRS) as f64;
    let (share, warmup) = (Duration::from_secs_f64(loop_secs), warmup_for(loop_secs));

    let (mut melem, mut busy) = ([Vec::new(), Vec::new()], 0);
    let (mut expositions, mut gauges) = (Vec::new(), GaugeMaxima::default());
    for (index, spans) in (0..2 * OVERHEAD_PAIRS).map(|i| (i, (i + i / 2) % 2 == 1)) {
        let (setup, _) = setup(opts.kind, inputs, &work.join(format!("loop-{index}")))?;
        let mut checked = measure(opts, inputs, setup, warmup, share, spans);
        let label = format!("{} loop {}", if spans { "traced" } else { "untraced" }, index / 2 + 1);
        verdict_line(&mut report, &label, &checked);
        report.attempted += checked.run.attempts();
        report.failed += checked.run.errors();
        busy += checked.run.busy_retries();
        melem[usize::from(spans)].push(checked.run.figures().melem_per_s);
        if spans {
            trace.spans.append(&mut checked.run.trace.spans);
            trace.dropped += checked.run.trace.dropped;
            expositions.append(&mut checked.expositions);
            gauges = gauges.max(checked.gauges);
        }
    }
    let [untraced_melem, traced_melem] = melem.clone().map(|mut v| median(&mut v).unwrap_or(0.0));

    per_layer(&mut report, opts.kind, &ledger, &expositions, gauges)?;
    report.metric("client.busy_retries_total", busy as f64, "count");
    report.metric("error_rate", report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    let overhead =
        |traced: f64, untraced: f64| (untraced - traced) / untraced.max(f64::MIN_POSITIVE);
    report.metric("trace.overhead_pct", overhead(traced_melem, untraced_melem) * 100.0, "%");
    crate::waterfall::render(&mut report, &ledger, &trace);
    let list = |values: &[f64]| values.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>();
    let pairs: Vec<String> = melem[0]
        .iter()
        .zip(&melem[1])
        .map(|(u, t)| format!("{:+.1}", overhead(*t, *u) * 100.0))
        .collect();
    report.lines.push(format!(
        "closed loop, {OVERHEAD_PAIRS} interleaved pairs: median {untraced_melem:.3} Melem/s \
         untraced [{}], {traced_melem:.3} Melem/s traced [{}]; overhead per pair, %: {}",
        list(&melem[0]).join(" "),
        list(&melem[1]).join(" "),
        pairs.join(" "),
    ));
    let dump = out_dir().join(format!("trace-{}-seed{}.jsonl", opts.kind.name(), opts.seed));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&dump, trace.to_json_lines()).map_err(|e| e.to_string())?;
    report.lines.push(format!(
        "spans: {} written to {}, {} dropped",
        trace.spans.len(),
        dump.display(),
        trace.dropped
    ));
    Ok(report)
}

/// The per-layer metrics. Registry counters come from the traced loop's
/// servers where that loop exercises the layer, otherwise from the
/// ledger tier that does (the reactor tier for replicated-feed; the
/// durable and mesh tiers for the in-memory workloads).
fn per_layer(
    report: &mut Report,
    kind: Kind,
    ledger: &LedgerFigures,
    expositions: &[String],
    gauges: GaugeMaxima,
) -> Result<(), String> {
    let unit = |name: &str| ledger.ns_per_unit.get(name).copied().unwrap_or(0.0);
    for (metric, span) in [
        ("sketch.hash_rows_ns_per_elem", "sketch.hash_rows"),
        ("sketch.countmin_record_estimate_ns_per_elem", "sketch.countmin_record_estimate"),
        ("sketch.countsketch_record_estimate_ns_per_elem", "sketch.countsketch_record_estimate"),
        ("core.feed_ns_per_elem", "core.feed"),
        ("core.feed_batch_ns_per_elem", "core.feed_batch"),
    ] {
        report.metric(metric, unit(span), "ns/elem");
    }
    report.metric("core.admission_ratio", ledger.admission_ratio, "ratio");
    report.metric(
        "service.sampler_feed_batch_ns_per_elem",
        unit("service.sampler_feed_batch"),
        "ns/elem",
    );
    for (metric, span) in [
        ("protocol.request_encode_ns_per_elem", "protocol.request_encode"),
        ("protocol.request_decode_ns_per_elem", "protocol.request_decode"),
        ("protocol.response_encode_ns_per_elem", "protocol.response_encode"),
        ("protocol.response_decode_ns_per_elem", "protocol.response_decode"),
    ] {
        report.metric(metric, unit(span), "ns/elem");
    }
    report.metric("transport.pipe_request_us", unit("transport.pipe_request") / 1e3, "us");
    report.metric("reactor.tcp_request_us", unit("reactor.tcp_request") / 1e3, "us");

    let tier = tier_of(kind);
    let from = |own: bool, ledger_tier: &'static str| -> Result<(Counters, GaugeMaxima), String> {
        if own {
            Ok((Counters::parse(expositions)?, gauges))
        } else {
            let texts = ledger.expositions.get(ledger_tier).cloned().unwrap_or_default();
            Ok((
                Counters::parse(&texts)?,
                ledger.gauges.get(ledger_tier).copied().unwrap_or_default(),
            ))
        }
    };
    let (reactor, reactor_gauges) = from(tier == Tier::Reactor, "reactor.tcp_request")?;
    let (server, server_gauges) = from(true, "")?;
    let (wal, _) = from(tier == Tier::Mesh, "mesh.unreplicated_request")?;
    let (mesh, mesh_gauges) = from(tier == Tier::Mesh, "mesh.replicated_request")?;
    for (name, value) in reactor_metrics(&reactor, &reactor_gauges) {
        report.metric(name, value, if name.ends_with("bytes_max") { "bytes" } else { "count" });
    }
    for (name, value) in server_metrics(&server, &server_gauges) {
        report.metric(name, value, if name.contains("_ns_") { "ns" } else { "count" });
    }
    report.metric("wal.append_ns_per_record", unit("wal.append_op"), "ns/record");
    report.metric("wal.crc32_ns_per_kib", unit("wal.crc32"), "ns/KiB");
    report.metric("wal.fsync_us_p50", ledger.fsync_us_p50, "us");
    for (name, value) in wal_metrics(&wal) {
        report.metric(name, value, if name.ends_with("per_elem") { "bytes/elem" } else { "count" });
    }
    report.metric("mesh.unreplicated_request_us", unit("mesh.unreplicated_request") / 1e3, "us");
    report.metric("mesh.replicated_request_us", unit("mesh.replicated_request") / 1e3, "us");
    for (name, value) in mesh_metrics(&mesh, &mesh_gauges) {
        report.metric(
            name,
            value,
            if name.ends_with("per_elem") { "bytes/elem" } else { "records" },
        );
    }
    if tier != Tier::Reactor {
        report.lines.push(
            "reactor.* read from the ledger's reactor tier: this workload's mesh serves \
             thread-per-connection"
                .into(),
        );
    }
    if tier != Tier::Mesh {
        report.lines.push(
            "wal.* and mesh.* counters read from the ledger's durable and mesh tiers: this \
             workload's loop runs in memory"
                .into(),
        );
    }
    Ok(())
}
