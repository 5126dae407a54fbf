//! The closed loop: each client thread owns one connection and sends its
//! next request only after the previous reply arrived.
//!
//! What a connection keeps while it runs is bounded, so the peak-memory
//! figure reflects the service: three log-linear histograms (round trips,
//! and the identifier and request rates of consecutive groups of
//! requests), and per stream a running fingerprint chain of its replies.
//! Only the replies to hot-stream's shared stream are kept one by one
//! (their order is known only from their positions).

use crate::deploy::{send, Client, Deployment, Outcome};
use crate::stats::{digest, LogHistogram};
use crate::trace::{Span, Trace, Tracer};
use crate::workload::{Inputs, OpKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};
use uns_service::ServiceError;

/// Consecutive requests a connection's rate is read over (see
/// [`LoopRun::figures`]): two whole tenant-mix visits (ingest, feed,
/// sample), so every group carries the same number of identifiers.
pub const GROUP: u64 = 6;
/// Pause before retrying a `Busy` or rate-limited request.
const RETRY_PAUSE: Duration = Duration::from_micros(50);
/// Start of every fingerprint chain.
pub const CHAIN_START: u64 = 0x6A09_E667_F3BC_C908;

/// Extends a fingerprint chain by one reply.
pub fn chain(chain: u64, outcome: &Outcome) -> u64 {
    digest([chain, outcome.fingerprint()])
}

/// What one connection did.
#[derive(Debug)]
pub struct ConnLog {
    /// The connection's index.
    pub conn: usize,
    /// Requests answered, set-up included: the script's steps `0..steps`.
    pub steps: u64,
    /// Per stream index: the fingerprint chain of this connection's
    /// replies to it, in send order (unused for shared streams).
    pub chains: Vec<u64>,
    /// Replies to shared streams: `(position, step, fingerprint)`.
    pub positioned: Vec<(u64, u64, u64)>,
    /// Round trips completed in the timed window (first send to final
    /// reply, retries included), ns.
    pub latency: LogHistogram,
    /// Identifiers per second of each group of [`GROUP`] consecutive
    /// requests completed in the window.
    pub elem_rate: LogHistogram,
    /// Requests per second of the same groups, in thousandths.
    pub op_rate: LogHistogram,

    /// Requests sent, each retry counted.
    pub attempts: u64,
    /// Attempts answered `Busy` or rate-limited (then retried).
    pub busy: u64,
    /// Attempts that ended in any other error; the connection stops.
    pub failures: u64,
    /// The first such error.
    pub failure: Option<String>,
}

impl ConnLog {
    /// An empty log for connection `conn`.
    pub fn new(conn: usize, inputs: &Inputs) -> ConnLog {
        ConnLog {
            conn,
            steps: 0,
            chains: vec![CHAIN_START; inputs.names.len()],
            positioned: Vec::new(),
            latency: LogHistogram::default(),
            elem_rate: LogHistogram::default(),
            op_rate: LogHistogram::default(),
            attempts: 0,
            busy: 0,
            failures: 0,
            failure: None,
        }
    }

    /// Records the reply to the connection's next script step.
    pub fn record(&mut self, inputs: &Inputs, outcome: &Outcome) {
        let step = self.steps;
        let stream = inputs.op(self.conn, step).stream;
        match outcome {
            Outcome::Batch { position, .. } if inputs.shared(stream) => {
                self.positioned.push((*position, step, outcome.fingerprint()));
            }
            _ => self.chains[stream] = chain(self.chains[stream], outcome),
        }
        self.steps += 1;
    }
}

/// The loop's result.
#[derive(Debug)]
pub struct LoopRun {
    /// Per connection.
    pub conns: Vec<ConnLog>,
    /// Length of the timed window.
    pub window: Duration,
    /// Peak resident memory at the end of the window, MiB.
    pub peak_rss_mib: f64,
    /// Host steal time during the window, in clock ticks (zero where the
    /// kernel does not report it).
    pub steal: u64,
    /// Client spans (empty unless traced).
    pub trace: Trace,
}

/// End-to-end figures of a loop's timed window (see [`LoopRun::figures`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Figures {
    /// Identifiers absorbed per second, millions, at the median group
    /// rate.
    pub raw_melem_per_s: f64,
    /// The same per second the hypervisor left to the machine: divided
    /// by one minus the steal share.
    pub melem_per_s: f64,
    /// Requests completed per second, corrected in the same way.
    pub ops_per_s: f64,
    /// Median round trip, µs.
    pub p50_us: f64,
    /// 99th-percentile round trip, µs.
    pub p99_us: f64,
    /// Round trips inside the window.
    pub samples: u64,
    /// Host steal during the window, as a share of the machine's CPU time.
    pub steal_share: f64,
}

/// Clock ticks the hypervisor has stolen from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`); `None` where not reported.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Run time of each live thread of this process so far, ns, by thread
/// id (`/proc/self/task/*/schedstat`). The kernel leaves stolen time out
/// of it.
pub fn thread_cpu_ns() -> HashMap<u64, u64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return HashMap::new() };
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// CPU time this process's threads ran since `before` (a
/// [`thread_cpu_ns`] reading), seconds. Threads that ended in between
/// are left out.
pub fn cpu_since(before: &HashMap<u64, u64>) -> f64 {
    let ran: u64 = thread_cpu_ns()
        .into_iter()
        .map(|(tid, now)| now.saturating_sub(before.get(&tid).copied().unwrap_or(0)))
        .sum();
    ran as f64 / 1e9
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Ingest => "client.ingest",
        OpKind::Feed => "client.feed_batch",
        OpKind::Sample => "client.sample",
    }
}

/// The timed window: `(start, end)`.
type Window = OnceLock<(Instant, Instant)>;

/// One connection's loop until the window's end.
fn drive(
    client: &mut Client,
    inputs: &Inputs,
    window: &Window,
    barrier: &Barrier,
    mut tracer: Option<&mut Tracer>,
    corrupt: bool,
    log: &mut ConnLog,
) {
    let conn = log.conn;
    let mut scratch = Vec::with_capacity(inputs.kind.batch());
    let conn_span = tracer.as_mut().map_or(0, |t| t.open());
    let mut corrupted = !corrupt;
    barrier.wait();
    let (start, end) = *window.get().expect("the window is set before the barrier opens");
    let loop_start = tracer.as_ref().map_or(0, |t| t.now());
    // The current group: its start, requests and identifiers so far.
    let mut group: Option<(Instant, u64, u64)> = None;
    'requests: while Instant::now() < end {
        let step = log.steps;
        let op = inputs.op(conn, step);
        let corrupt_this = !corrupted && op.kind == OpKind::Feed;
        corrupted |= corrupt_this;
        let elems = if op.kind == OpKind::Sample { 0 } else { inputs.kind.batch() as u64 };
        let sent = Instant::now();
        let outcome = loop {
            log.attempts += 1;
            let started = tracer.as_ref().map_or(0, |t| t.now());
            let result = send(client, inputs, &op, &mut scratch, corrupt_this);
            if let Some(t) = tracer.as_mut() {
                let id = t.open();
                let request = ((conn as u64) << 40) | step;
                let end = t.now();
                let name = span_name(op.kind);
                t.record(Span { name, id, parent: conn_span, request, start: started, end, elems });
            }
            match result {
                Ok(outcome) => break outcome,
                Err(ServiceError::Busy | ServiceError::RateLimited(_)) => {
                    log.busy += 1;
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(err) => {
                    log.failures += 1;
                    log.failure.get_or_insert_with(|| format!("connection {conn}: {err}"));
                    break 'requests;
                }
            }
        };
        let done = Instant::now();
        if done >= start && done < end {
            log.latency.record(u64::try_from((done - sent).as_nanos()).unwrap_or(u64::MAX));
            group = match group {
                Some((from, requests, ids)) if requests + 1 == GROUP => {
                    let secs = (done - from).as_secs_f64();
                    log.elem_rate.record(((ids + elems) as f64 / secs) as u64);
                    log.op_rate.record((GROUP as f64 * 1e3 / secs) as u64);
                    Some((done, 0, 0))
                }
                Some((from, requests, ids)) => Some((from, requests + 1, ids + elems)),
                None => Some((done, 0, 0)),
            };
        }
        log.record(inputs, &outcome);
    }
    if let Some(t) = tracer {
        let span = Span {
            name: "client.connection",
            id: conn_span,
            parent: 0,
            request: (conn as u64) << 40,
            start: loop_start,
            end: t.now(),
            elems: 0,
        };
        t.record(span);
    }
}

/// Runs every connection's script for `warmup + seconds`; `logs` hold
/// the set-up replies already. With `traced`, each request is recorded
/// as a span under its connection's span; with `corrupt`, connection 0
/// alters the first feed reply it receives.
pub fn run(
    clients: &mut [Client],
    inputs: &Inputs,
    mut conns: Vec<ConnLog>,
    warmup: Duration,
    seconds: Duration,
    traced: bool,
    corrupt: bool,
) -> LoopRun {
    let epoch = Instant::now();
    let barrier = Barrier::new(clients.len() + 1);
    let mut tracers: Vec<Tracer> =
        (0..clients.len()).map(|c| Tracer::new(epoch, c as u16 + 1)).collect();
    let window = Window::new();
    let (peak, steal) = std::thread::scope(|scope| {
        for ((client, log), tracer) in
            clients.iter_mut().zip(conns.iter_mut()).zip(tracers.iter_mut())
        {
            let (barrier, window) = (&barrier, &window);
            scope.spawn(move || {
                let tracer = traced.then_some(tracer);
                let corrupt = corrupt && log.conn == 0;
                drive(client, inputs, window, barrier, tracer, corrupt, log);
            });
        }
        let start = Instant::now() + warmup;
        window.get_or_init(|| (start, start + seconds));
        barrier.wait();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let from = steal_ticks();
        std::thread::sleep((start + seconds).saturating_duration_since(Instant::now()));
        let steal = match (from, steal_ticks()) {
            (Some(from), Some(to)) => to.saturating_sub(from),
            _ => 0,
        };
        (peak_rss_mib(), steal)
    });
    let mut trace = Trace::default();
    if traced {
        for tracer in &mut tracers {
            tracer.drain_into(&mut trace);
        }
    }
    LoopRun { conns, window: seconds, peak_rss_mib: peak, steal, trace }
}

impl LoopRun {
    /// Requests sent, retries included.
    pub fn attempts(&self) -> u64 {
        self.conns.iter().map(|c| c.attempts).sum()
    }

    /// Attempts that ended in an error or a `Busy` refusal.
    pub fn errors(&self) -> u64 {
        self.conns.iter().map(|c| c.busy + c.failures).sum()
    }

    /// `Busy`/rate-limited attempts that were retried.
    pub fn busy_retries(&self) -> u64 {
        self.conns.iter().map(|c| c.busy).sum()
    }

    /// The first failure any connection hit.
    pub fn failure(&self) -> Option<&str> {
        self.conns.iter().find_map(|c| c.failure.as_deref())
    }
}

impl LoopRun {
    /// End-to-end figures of the loop's timed window.
    ///
    /// Each connection's rate is its median over groups of [`GROUP`]
    /// consecutive requests, and the loop's rate is the sum over
    /// connections. On a shared virtual host the hypervisor stalls this
    /// machine's CPUs for milliseconds at a time, and a whole-window
    /// average moves with how many stalls the window caught; the median
    /// group is the rate between stalls. Steal that lasts the whole
    /// window slows every group, so the rates are then divided by the
    /// share of the machine's CPU time the hypervisor left to it. Both
    /// corrections come from the host's record (`/proc/stat`) and the
    /// clock, never from choosing among the service's own figures.
    pub fn figures(&self) -> Figures {
        let mut latency = LogHistogram::default();
        let (mut melem, mut ops) = (0.0, 0.0);
        for conn in &self.conns {
            latency.merge(&conn.latency);
            melem += conn.elem_rate.quantile(0.5).unwrap_or(0.0) / 1e6;
            ops += conn.op_rate.quantile(0.5).unwrap_or(0.0) / 1e3;
        }
        // Steal ticks are hundredths of a CPU-second, summed over the CPUs.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let steal_share = self.steal as f64 / 100.0 / (self.window.as_secs_f64() * cpus);
        let left = 1.0 - steal_share;
        Figures {
            raw_melem_per_s: melem,
            melem_per_s: melem / left,
            ops_per_s: ops / left,
            p50_us: latency.quantile(0.5).map_or(0.0, |ns| ns / 1e3),
            p99_us: latency.quantile(0.99).map_or(0.0, |ns| ns / 1e3),
            samples: latency.count(),
            steal_share,
        }
    }
}

/// Largest gauge readings seen while a loop ran.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GaugeMaxima {
    /// Jobs queued for any one worker.
    pub queue_depth: f64,
    /// Bytes buffered across the reactor's connections.
    pub buffered_bytes: f64,
    /// Records any replica lagged its primary by.
    pub replica_lag: f64,
}

impl GaugeMaxima {
    /// The larger of each reading.
    pub fn max(self, other: GaugeMaxima) -> GaugeMaxima {
        GaugeMaxima {
            queue_depth: self.queue_depth.max(other.queue_depth),
            buffered_bytes: self.buffered_bytes.max(other.buffered_bytes),
            replica_lag: self.replica_lag.max(other.replica_lag),
        }
    }
}

/// Scrapes every deployment's exposition each `period` until `done`,
/// keeping each deployment's largest gauge readings (the registry
/// exposes gauges as current values only).
pub fn watch_gauges(
    deployments: &[&Deployment],
    done: &AtomicBool,
    period: Duration,
) -> Vec<GaugeMaxima> {
    let mut all = vec![GaugeMaxima::default(); deployments.len()];
    while !done.load(Ordering::Relaxed) {
        for (deployment, maxima) in deployments.iter().zip(all.iter_mut()) {
            for text in deployment.expositions() {
                let Ok(samples) = uns_metrics::parse_exposition(&text) else { continue };
                for s in samples {
                    let slot = match s.name.as_str() {
                        "uns_worker_queue_depth" => &mut maxima.queue_depth,
                        "uns_reactor_buffered_bytes" => &mut maxima.buffered_bytes,
                        "uns_replica_lag_records" => &mut maxima.replica_lag,
                        _ => continue,
                    };
                    *slot = slot.max(s.value);
                }
            }
        }
        std::thread::sleep(period);
    }
    all
}
