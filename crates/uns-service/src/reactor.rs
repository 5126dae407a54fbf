//! Readiness-based connection layer: one reactor thread, ten thousand
//! sockets.
//!
//! The thread-per-connection path ([`crate::server::Server::serve`]) is
//! simple and fast for tens of busy connections, but a sampling service
//! sitting inside every node of a large overlay sees the opposite shape:
//! thousands of mostly-idle peers, each sending a small batch every few
//! seconds. Ten thousand parked threads at ~8 MiB of stack reservation
//! apiece is the wrong tool. The reactor replaces them with **one**
//! thread that owns the listener and every connection socket through the
//! vendored [`epoll`] poller, reassembles frames into per-connection
//! buffers without blocking, and hands complete requests to the *same*
//! worker pool through the same bounded queues.
//!
//! What deliberately does not change:
//!
//! * **Routing** — requests go through the identical `route_prepare`
//!   rules the blocking path uses, so every reply is bit-identical to
//!   one served thread-per-connection.
//! * **Stream ownership** — one worker owns each stream; the reactor is
//!   only a different front door to the same queues, so the snapshot
//!   bit-equality and position-reconstruction exactness pins survive
//!   untouched.
//! * **Backpressure** — full worker queues still answer `Busy`
//!   immediately; nothing is buffered on the server's initiative.
//!
//! Per-connection discipline: **at most one worker-bound request is in
//! flight per connection**, and parsing pauses while it is. This
//! preserves the blocking path's reply ordering per connection (replies
//! return in request order, because there is never more than one
//! outstanding) and makes a pipelining flood self-clocking instead of
//! queue-filling. Admission control on top of that is explicit:
//!
//! * a **connection cap** — accepts beyond [`ReactorConfig::max_connections`]
//!   are answered with a `Busy` frame and closed;
//! * a **per-connection token bucket** ([`RateLimit`]) — requests beyond
//!   the budget are answered with [`ErrorCode::RateLimited`] without
//!   touching a worker, so one abusive connection degrades only itself;
//! * a **buffered-bytes ceiling** — a peer that stops reading replies has
//!   its requests paused (reads deregistered) once
//!   [`ReactorConfig::max_buffered_bytes`] of replies are pending, never
//!   buffered without bound.
//!
//! Per-connection memory (reassembly buffer + pending writes) is
//! accounted into the `uns_reactor_buffered_bytes` gauge, alongside
//! connection counts and rejection counters (see [`crate::metrics`]).
//!
//! Blocking exceptions, by design: `CreateStream`/`Restore` run their
//! existing two-phase reservation round-trip synchronously on the reactor
//! thread (streams are created once and the rollback correctness leans on
//! the synchronous protocol), and `Replicate` shipments apply through the
//! replica handler inline (mesh replication links are few and use the
//! blocking server anyway).

use crate::metrics::ReactorMetrics;
use crate::protocol::{ErrorCode, Request, Response};
use crate::server::{
    blocking_route, encode_bounded, route_prepare, try_enqueue, ReplyTo, Routed, Server,
    StreamEntry,
};
use crate::wire::MAX_FRAME_LEN;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-connection admission rate limit: a token bucket refilled at
/// [`RateLimit::per_sec`] with capacity [`RateLimit::burst`]. Each parsed
/// request spends one token; an empty bucket answers
/// [`ErrorCode::RateLimited`] without involving a worker.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained requests per second each connection may submit.
    pub per_sec: u32,
    /// Bucket capacity: how far a quiet connection may burst.
    pub burst: u32,
}

/// Tuning knobs of [`Server::serve_reactor`].
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Most connections the reactor holds open at once. An accept beyond
    /// the cap is answered with a best-effort `Busy` frame and closed —
    /// a coded refusal, not a silent drop.
    pub max_connections: usize,
    /// Per-connection admission rate limit; `None` admits everything.
    pub rate_limit: Option<RateLimit>,
    /// Per-connection ceiling on buffered reply bytes. A peer that stops
    /// reading its replies gets its *requests* paused at this point —
    /// backpressure through the socket, never unbounded buffering.
    pub max_buffered_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self { max_connections: 10_240, rate_limit: None, max_buffered_bytes: 1 << 20 }
    }
}

/// Completion handle a worker holds for a reactor-routed job: push the
/// reply into the queue, wake the reactor. Never blocks.
pub(crate) struct CompletionSender {
    conn: u64,
    completions: CompletionQueue,
    waker: Arc<epoll::Waker>,
}

impl CompletionSender {
    pub(crate) fn send(self, response: Response) {
        self.completions.lock().expect("completion queue poisoned").push((self.conn, response));
        self.waker.wake();
    }
}

type CompletionQueue = Arc<Mutex<Vec<(u64, Response)>>>;

/// Poller token of the listener.
const LISTENER: u64 = 0;
/// Poller token of the completion waker.
const WAKER: u64 = 1;
/// First connection token.
const FIRST_CONN: u64 = 2;

/// How many unparsed request bytes a connection may buffer before its
/// reads are paused. The cap is unconditional — with or without a
/// request in flight, a flood larger than this waits in the kernel
/// socket buffer, not in our memory — with one exception: a partially
/// read frame is always read to completion (bounded by
/// [`MAX_FRAME_LEN`]), because no amount of waiting makes a half-frame
/// parseable.
const READ_PAUSE_BYTES: usize = 64 * 1024;

/// How long the listener stays deregistered after an accept failure that
/// retrying cannot clear (fd exhaustion): level-triggered epoll would
/// otherwise re-report the still-queued connection on every wait and
/// hot-spin the reactor at 100% CPU.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Defensive upper bound on one poller wait; the waker is the real
/// signal for stop() and completions.
const WAIT_TIMEOUT: Duration = Duration::from_secs(1);

/// Bytes read per `read` call into the reassembly buffer. Small on
/// purpose: ten thousand idle connections each pin roughly this much.
const READ_CHUNK: usize = 2048;

/// Buffer capacity above which an idle (empty) buffer is shrunk back, so
/// one large frame does not pin its high-water mark forever.
const TRIM_CAP: usize = 16 * 1024;

/// One connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Frame reassembly: unconsumed bytes are `read_buf[read_pos..]`.
    read_buf: Vec<u8>,
    read_pos: usize,
    /// Encoded replies not yet written; unsent bytes are
    /// `write_buf[write_pos..]`.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The at-most-one worker-bound request awaiting its completion.
    inflight: Option<InFlight>,
    /// Interest currently registered with the poller.
    interest: epoll::Interest,
    /// Flush pending writes, then close (protocol violation path).
    closing: bool,
    /// Peer's read side hung up: no more requests will arrive, but a
    /// half-closing peer is still owed every buffered reply — close only
    /// once nothing is in flight and the write buffer has drained.
    eof: bool,
    /// The socket itself failed (write error, unpollable): replies are
    /// undeliverable, close immediately.
    broken: bool,
    /// Token-bucket state ([`RateLimit`]).
    tokens: f64,
    last_refill: Instant,
    /// Bytes currently accounted into the buffered-bytes gauge.
    accounted: i64,
}

/// What the reactor remembers about an in-flight request.
struct InFlight {
    entry: StreamEntry,
    /// Stats replies fold connection-side counters on completion.
    fold: bool,
}

/// Runs the reactor loop on the calling thread until [`Server::stop`].
pub(crate) fn run(server: &Server, listener: TcpListener, config: ReactorConfig) -> io::Result<()> {
    if !epoll::supported() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the readiness reactor needs the vendored epoll poller (linux x86_64/aarch64)",
        ));
    }
    listener.set_nonblocking(true)?;
    let poller = epoll::Poller::new()?;
    poller.register(&listener, LISTENER, epoll::Interest::READ)?;
    let waker = Arc::new(epoll::Waker::new(&poller, WAKER)?);
    // Register with the server so stop() reaches a reactor mid-wait; the
    // guard unregisters on every exit path.
    server.accept_wakers.lock().expect("accept waker lock poisoned").push(Arc::clone(&waker));
    let _guard = WakerGuard { server, waker: Arc::clone(&waker) };

    let rmetrics = server.metrics().reactor();
    let completions: CompletionQueue = Arc::new(Mutex::new(Vec::new()));
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut events: Vec<epoll::Event> = Vec::new();
    let mut done: Vec<(u64, Response)> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    // When set, the listener is deregistered until this instant (accept
    // backoff after fd exhaustion).
    let mut accept_resume: Option<Instant> = None;

    while !server.shutdown.load(Ordering::Relaxed) {
        // The waker is the real signal for stop() and completions; the
        // timeout is a defensive bound, not a polling cadence — unless
        // the listener is parked, in which case it must also cover the
        // re-arm deadline.
        let timeout = accept_resume.map_or(WAIT_TIMEOUT, |at| {
            at.saturating_duration_since(Instant::now()).min(WAIT_TIMEOUT)
        });
        poller.wait(&mut events, Some(timeout))?;
        waker.drain();

        if let Some(at) = accept_resume {
            if Instant::now() >= at {
                // Level-triggered: connections that queued while parked
                // make the listener readable on the very next wait.
                poller.register(&listener, LISTENER, epoll::Interest::READ)?;
                accept_resume = None;
            }
        }

        // Completions first: they free connections to resume parsing
        // frames that are already buffered (no readable event will
        // re-announce bytes we hold in userspace).
        done.clear();
        done.append(&mut completions.lock().expect("completion queue poisoned"));
        for (token, response) in done.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                // The connection died while its job was in flight; the
                // reply is dropped but pooled buffers must still recycle.
                if let Response::Fed { outputs, .. } = response {
                    server.pool.put(outputs);
                }
                continue;
            };
            let response = match conn.inflight.take() {
                Some(inflight) if inflight.fold => {
                    crate::server::fold_stats(response, &inflight.entry)
                }
                _ => response,
            };
            respond(conn, response, server);
            advance(conn, token, server, &config, &rmetrics, &completions, &waker);
            touched.push(token);
        }

        for event in &events {
            match event.token {
                LISTENER => {
                    let backoff = accept_ready(
                        server,
                        &listener,
                        &poller,
                        &config,
                        &rmetrics,
                        &mut conns,
                        &mut next_token,
                    )?;
                    if backoff {
                        // Persistent accept failure (fd exhaustion):
                        // park the listener briefly instead of spinning
                        // on a readiness we cannot act on.
                        let _ = poller.deregister(&listener);
                        accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                }
                WAKER => {}
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    if event.readable {
                        fill_read_buf(conn, &config);
                        advance(conn, token, server, &config, &rmetrics, &completions, &waker);
                    }
                    touched.push(token);
                }
            }
        }

        // Settle every touched connection once: flush writes, re-arm
        // interest, account memory, close the finished.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            let Some(conn) = conns.get_mut(&token) else { continue };
            // Flush, then re-run the parser while flushing made room
            // below the write ceiling: a connection throttled on
            // buffered replies can hold complete frames in userspace
            // that no readable event will ever re-announce, so the
            // drain itself must resume it.
            loop {
                flush(conn);
                if conn.closing
                    || conn.broken
                    || conn.inflight.is_some()
                    || pending_writes(conn) >= config.max_buffered_bytes
                {
                    break;
                }
                let before = conn.read_buf.len() - conn.read_pos;
                if before < 4 {
                    break;
                }
                advance(conn, token, server, &config, &rmetrics, &completions, &waker);
                if conn.read_buf.len() - conn.read_pos == before {
                    break; // only a partial frame left: nothing consumable
                }
            }
            trim(conn);
            account(conn, &rmetrics);
            if conn_finished(conn) {
                let conn = conns.remove(&token).expect("present above");
                close(&poller, conn, &rmetrics);
            } else {
                rearm(&poller, conn, token, &config);
            }
        }
    }

    // Orderly exit: drop every connection (sockets close; completions for
    // jobs still in flight recycle through the queue's Arc harmlessly).
    for (_, conn) in conns.drain() {
        close(&poller, conn, &rmetrics);
    }
    Ok(())
}

/// Unregisters the reactor's stop waker from the server on drop.
struct WakerGuard<'a> {
    server: &'a Server,
    waker: Arc<epoll::Waker>,
}

impl Drop for WakerGuard<'_> {
    fn drop(&mut self) {
        let mut wakers = self.server.accept_wakers.lock().expect("accept waker lock poisoned");
        wakers.retain(|registered| !Arc::ptr_eq(registered, &self.waker));
    }
}

/// Drains the listener: admit up to the cap, refuse the rest with a coded
/// `Busy` frame. Returns `true` when the caller should park the listener
/// briefly (an accept failure retrying cannot clear, e.g. fd exhaustion).
fn accept_ready(
    server: &Server,
    listener: &TcpListener,
    poller: &epoll::Poller,
    config: &ReactorConfig,
    rmetrics: &ReactorMetrics,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) -> io::Result<bool> {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            // The handshake died before we got to it: skip that one
            // connection, keep draining the queue for everyone else.
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(err) if server.shutdown.load(Ordering::Relaxed) => return Err(err),
            // Anything else — EMFILE/ENFILE fd exhaustion being the
            // realistic case — will not clear by retrying, and the
            // still-queued connection keeps the level-triggered listener
            // readable forever: back off instead of hot-spinning.
            Err(_) => return Ok(true),
        };
        if conns.len() >= config.max_connections {
            refuse(stream, rmetrics);
            continue;
        }
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if poller.register(&stream, token, epoll::Interest::READ).is_err() {
            continue;
        }
        rmetrics.accepted.inc();
        rmetrics.connections.inc();
        conns.insert(
            token,
            Conn {
                stream,
                read_buf: Vec::new(),
                read_pos: 0,
                write_buf: Vec::new(),
                write_pos: 0,
                inflight: None,
                interest: epoll::Interest::READ,
                closing: false,
                eof: false,
                broken: false,
                tokens: config.rate_limit.map_or(0.0, |limit| f64::from(limit.burst)),
                last_refill: Instant::now(),
                accounted: 0,
            },
        );
    }
}

/// Best-effort coded refusal of an over-cap accept: one `Busy` frame,
/// then the socket drops.
fn refuse(mut stream: TcpStream, rmetrics: &ReactorMetrics) {
    rmetrics.rejected.inc();
    let mut frame = Vec::new();
    Response::Busy.encode_frame(&mut frame);
    stream.set_nonblocking(true).ok();
    let _ = stream.write(&frame);
}

/// Reads everything the socket has (up to the buffered-bytes ceiling)
/// into the reassembly buffer.
fn fill_read_buf(conn: &mut Conn, config: &ReactorConfig) {
    if conn.closing || conn.eof || conn.broken {
        // A closing connection only flushes; drain-and-discard would
        // just burn cycles on a peer we are done with.
        return;
    }
    loop {
        let unparsed = conn.read_buf.len() - conn.read_pos;
        if unparsed >= READ_PAUSE_BYTES && !mid_frame(conn) {
            return; // rearm() deregisters reads until the backlog drains
        }
        if pending_writes(conn) >= config.max_buffered_bytes {
            return; // peer must drain replies before sending more
        }
        let old_len = conn.read_buf.len();
        conn.read_buf.resize(old_len + READ_CHUNK, 0);
        match conn.stream.read(&mut conn.read_buf[old_len..]) {
            Ok(0) => {
                conn.read_buf.truncate(old_len);
                conn.eof = true;
                return;
            }
            Ok(n) => {
                conn.read_buf.truncate(old_len + n);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                conn.read_buf.truncate(old_len);
                return;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {
                conn.read_buf.truncate(old_len);
            }
            Err(_) => {
                // A read *error* (reset, timeout) is a dead socket, not
                // a graceful half-close: replies are undeliverable.
                conn.read_buf.truncate(old_len);
                conn.broken = true;
                return;
            }
        }
    }
}

/// Whether the connection's unparsed bytes stop short of one complete
/// frame. Reads may not pause in this state — only more socket bytes can
/// make the frame parseable — except when the advertised length already
/// exceeds [`MAX_FRAME_LEN`], where `advance` condemns the connection
/// from the header alone.
fn mid_frame(conn: &Conn) -> bool {
    let unparsed = &conn.read_buf[conn.read_pos..];
    if unparsed.len() < 4 {
        return true;
    }
    let body_len = u32::from_le_bytes(unparsed[..4].try_into().expect("length checked")) as usize;
    body_len <= MAX_FRAME_LEN && unparsed.len() < 4 + body_len
}

/// Parses and routes every complete frame the connection has buffered,
/// stopping at a partial frame, an in-flight request, or a write ceiling.
#[allow(clippy::too_many_arguments)]
fn advance(
    conn: &mut Conn,
    token: u64,
    server: &Server,
    config: &ReactorConfig,
    rmetrics: &ReactorMetrics,
    completions: &CompletionQueue,
    waker: &Arc<epoll::Waker>,
) {
    loop {
        if conn.inflight.is_some() || conn.closing || conn.broken {
            return;
        }
        if pending_writes(conn) >= config.max_buffered_bytes {
            return;
        }
        let unparsed = &conn.read_buf[conn.read_pos..];
        if unparsed.len() < 4 {
            compact(conn);
            return;
        }
        let body_len =
            u32::from_le_bytes(unparsed[..4].try_into().expect("length checked")) as usize;
        if body_len > MAX_FRAME_LEN {
            // Framing is poisoned, exactly like the blocking path's
            // read_frame error: answer once, then close.
            let message = format!("{body_len}-byte frame exceeds the {MAX_FRAME_LEN}-byte cap");
            respond(conn, Response::Error { code: ErrorCode::Other, message }, server);
            conn.closing = true;
            return;
        }
        if unparsed.len() < 4 + body_len {
            compact(conn);
            return;
        }
        // Admission: one token per request, parsed or not. A flood is
        // answered with coded errors at memcpy speed and never reaches
        // the worker queues honest connections share.
        if let Some(limit) = config.rate_limit {
            if !admit(conn, limit) {
                conn.read_pos += 4 + body_len;
                rmetrics.rate_limited.inc();
                respond(
                    conn,
                    Response::Error {
                        code: ErrorCode::RateLimited,
                        message: format!(
                            "connection exceeded {}/s (burst {})",
                            limit.per_sec, limit.burst
                        ),
                    },
                    server,
                );
                continue;
            }
        }
        // Re-resolved per frame, like the blocking path: the mesh swaps
        // the handler around promotions while connections are live.
        let handler = server.replica_handler.lock().expect("replica handler lock poisoned").clone();
        let body = &conn.read_buf[conn.read_pos + 4..conn.read_pos + 4 + body_len];
        let routed = match Request::decode(body) {
            Ok(request) => route_prepare(
                &request,
                &server.registry,
                &server.pool,
                server.metrics(),
                handler.as_ref(),
            ),
            Err(err) => {
                conn.read_pos += 4 + body_len;
                respond(
                    conn,
                    Response::Error { code: ErrorCode::Other, message: err.to_string() },
                    server,
                );
                conn.closing = true;
                return;
            }
        };
        conn.read_pos += 4 + body_len;
        match routed {
            Routed::Immediate(response) => respond(conn, response, server),
            Routed::Blocking { replace, op } => {
                // Create/restore keep their synchronous two-phase
                // protocol; they are rare and rollback-correct this way.
                let response = blocking_route(
                    &server.registry,
                    &server.senders,
                    &server.pool,
                    server.metrics(),
                    replace,
                    op,
                );
                respond(conn, response, server);
            }
            Routed::Enqueue { entry, op, fold } => {
                let reply = ReplyTo::Reactor(CompletionSender {
                    conn: token,
                    completions: Arc::clone(completions),
                    waker: Arc::clone(waker),
                });
                match try_enqueue(
                    &server.senders,
                    &entry,
                    op,
                    &server.pool,
                    server.metrics(),
                    reply,
                ) {
                    Some(response) => respond(conn, response, server),
                    None => {
                        conn.inflight = Some(InFlight { entry, fold });
                        return;
                    }
                }
            }
        }
    }
}

/// Spends one admission token, refilling the bucket first.
fn admit(conn: &mut Conn, limit: RateLimit) -> bool {
    let now = Instant::now();
    let elapsed = now.duration_since(conn.last_refill).as_secs_f64();
    conn.last_refill = now;
    conn.tokens = (conn.tokens + elapsed * f64::from(limit.per_sec)).min(f64::from(limit.burst));
    if conn.tokens >= 1.0 {
        conn.tokens -= 1.0;
        true
    } else {
        false
    }
}

/// Encodes one reply frame onto the connection's write buffer, recycling
/// a Fed reply's pooled outputs buffer (same contract as the blocking
/// path's connection loop).
fn respond(conn: &mut Conn, response: Response, server: &Server) {
    encode_bounded(&response, &mut conn.write_buf);
    if let Response::Fed { outputs, .. } = response {
        server.pool.put(outputs);
    }
}

/// Writes pending reply bytes until the socket would block.
fn flush(conn: &mut Conn) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.broken = true;
                return;
            }
            Ok(n) => conn.write_pos += n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                return;
            }
        }
    }
    conn.write_buf.clear();
    conn.write_pos = 0;
}

/// Bytes of encoded replies not yet on the wire.
fn pending_writes(conn: &Conn) -> usize {
    conn.write_buf.len() - conn.write_pos
}

/// Drops the consumed read-buffer prefix once it dominates the buffer.
fn compact(conn: &mut Conn) {
    if conn.read_pos == conn.read_buf.len() {
        conn.read_buf.clear();
        conn.read_pos = 0;
    } else if conn.read_pos > READ_CHUNK {
        conn.read_buf.drain(..conn.read_pos);
        conn.read_pos = 0;
    }
}

/// Returns an idle connection's buffers to a small footprint, so one
/// large frame does not pin its high-water capacity across ten thousand
/// connections.
fn trim(conn: &mut Conn) {
    if conn.read_buf.capacity() > TRIM_CAP && conn.read_buf.len() - conn.read_pos < TRIM_CAP {
        conn.read_buf.drain(..conn.read_pos);
        conn.read_pos = 0;
        conn.read_buf.shrink_to(TRIM_CAP);
    }
    if conn.write_buf.capacity() > TRIM_CAP && pending_writes(conn) < TRIM_CAP {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
        conn.write_buf.shrink_to(TRIM_CAP);
    }
}

/// Re-accounts the connection's buffer memory into the shared gauge.
fn account(conn: &mut Conn, rmetrics: &ReactorMetrics) {
    let now =
        i64::try_from(conn.read_buf.capacity() + conn.write_buf.capacity()).unwrap_or(i64::MAX);
    rmetrics.buffered_bytes.add(now - conn.accounted);
    conn.accounted = now;
}

/// Whether the connection is done: the socket failed outright, or the
/// peer hung up / was condemned AND every owed reply has been flushed
/// with nothing left in flight to complete.
fn conn_finished(conn: &Conn) -> bool {
    if conn.broken {
        return true; // replies are undeliverable anyway
    }
    if conn.inflight.is_some() {
        return false;
    }
    // Read-side EOF means "no more requests", not "close now": a
    // half-closing peer (write, shutdown(WR), read replies) is still
    // owed everything buffered — exactly what the blocking path
    // delivers by writing each reply before the next read.
    if conn.eof {
        return pending_writes(conn) == 0;
    }
    conn.closing && pending_writes(conn) == 0
}

/// Re-registers the connection's poller interest to match its state:
/// reads unless paused (in-flight backlog or write ceiling), writes only
/// while replies are pending.
fn rearm(poller: &epoll::Poller, conn: &mut Conn, token: u64, config: &ReactorConfig) {
    let unparsed = conn.read_buf.len() - conn.read_pos;
    let paused = unparsed >= READ_PAUSE_BYTES && !mid_frame(conn);
    // No reads after EOF either: a hung-up fd stays level-triggered
    // readable forever and would spin the reactor while replies drain.
    let read =
        !conn.closing && !conn.eof && !paused && pending_writes(conn) < config.max_buffered_bytes;
    let want = epoll::Interest { read, write: pending_writes(conn) > 0 };
    if want.read != conn.interest.read || want.write != conn.interest.write {
        if poller.modify(&conn.stream, token, want).is_ok() {
            conn.interest = want;
        } else {
            conn.broken = true; // unpollable socket: give it up next settle
        }
    }
}

/// Deregisters and drops one connection, releasing its accounted memory.
fn close(poller: &epoll::Poller, conn: Conn, rmetrics: &ReactorMetrics) {
    let _ = poller.deregister(&conn.stream);
    rmetrics.buffered_bytes.add(-conn.accounted);
    rmetrics.connections.dec();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServiceClient;
    use crate::error::ServiceError;
    use crate::protocol::{EstimatorKind, StreamConfig};
    use crate::server::{Server, ServerConfig};
    use uns_core::NodeId;
    use uns_sketch::HashFamilyKind;

    fn stream_config() -> StreamConfig {
        StreamConfig {
            kind: EstimatorKind::CountMin,
            capacity: 8,
            width: 10,
            depth: 4,
            seed: 7,
            family: HashFamilyKind::Mersenne,
        }
    }

    fn ids(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// Spawns a reactor, runs `body` against its address, stops cleanly.
    fn with_reactor(config: ReactorConfig, body: impl FnOnce(std::net::SocketAddr, &Server)) {
        let server = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.serve_reactor(listener, config));
            body(addr, &server);
            server.stop();
            handle.join().expect("reactor thread").expect("reactor exit");
        });
    }

    #[test]
    fn reactor_serves_the_full_wire_protocol() {
        with_reactor(ReactorConfig::default(), |addr, server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("r", &stream_config()).expect("create");
            let ack = client.feed_batch("r", &ids(500)).expect("feed");
            assert_eq!(ack.outputs.len(), 500);
            assert_eq!(ack.position, 500);
            let floor = client.floor_estimate("r").expect("floor");
            let stats = client.stats("r").expect("stats");
            assert_eq!(stats.pipeline.elements, 500);
            let blob = client.snapshot("r").expect("snapshot");
            client.restore("r2", &blob).expect("restore");
            let _ = client.sample("r").expect("sample");
            assert!(client.floor_estimate("r2").expect("floor r2") == floor);
            // Unknown stream still errors through the same routing.
            assert!(matches!(
                client.stats("missing"),
                Err(ServiceError::UnknownStream(_) | ServiceError::Remote(_))
            ));
            let text = client.metrics().expect("metrics");
            assert!(text.contains("uns_reactor_connections"));
            assert_eq!(server.metrics().reactor().connections.get(), 1);
        });
    }

    #[test]
    fn reactor_reply_stream_matches_the_blocking_path_bit_for_bit() {
        // Same ops through the blocking in-process path and the reactor:
        // the snapshots must be byte-identical.
        let blocking = Server::start(ServerConfig { workers: 2, queue_depth: 16 });
        let mut reference = ServiceClient::new(blocking.connect_in_process()).expect("pipe client");
        reference.create_stream("s", &stream_config()).expect("create");
        reference.feed_batch("s", &ids(2000)).expect("feed");
        let want = reference.snapshot("s").expect("snapshot");

        with_reactor(ReactorConfig::default(), |addr, _server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("s", &stream_config()).expect("create");
            client.feed_batch("s", &ids(2000)).expect("feed");
            let got = client.snapshot("s").expect("snapshot");
            assert_eq!(got, want, "reactor transport altered the stream state");
        });
    }

    #[test]
    fn a_flood_is_rate_limited_with_coded_errors_and_recovers() {
        let config = ReactorConfig {
            rate_limit: Some(RateLimit { per_sec: 5, burst: 3 }),
            ..ReactorConfig::default()
        };
        with_reactor(config, |addr, server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("f", &stream_config()).expect("create");
            let batch = ids(16);
            let mut limited = 0;
            for _ in 0..20 {
                match client.feed_batch("f", &batch) {
                    Ok(_) => {}
                    Err(ServiceError::RateLimited(_)) => limited += 1,
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            assert!(limited > 0, "a 20-request burst against burst=3 must trip the limiter");
            assert!(server.metrics().reactor().rate_limited.get() >= u64::from(limited > 0));
            // The connection is policed, not poisoned: waiting refills
            // the bucket and the same connection works again.
            std::thread::sleep(Duration::from_millis(400));
            client.feed_batch("f", &batch).expect("recovered after backoff");
        });
    }

    #[test]
    fn pipelined_replies_beyond_the_write_ceiling_all_arrive() {
        // Regression (review finding 1): once buffered replies tripped
        // max_buffered_bytes, nothing re-ran the parser after the drain —
        // complete frames sat in read_buf forever (no socket bytes means
        // no readable event) and the connection hung. Pipeline many
        // Metrics requests (immediate replies, each larger than the tiny
        // ceiling here), stop sending, and demand every reply.
        const REQUESTS: usize = 50;
        let config = ReactorConfig { max_buffered_bytes: 1024, ..ReactorConfig::default() };
        with_reactor(config, |addr, _server| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            let mut body = Vec::new();
            Request::Metrics.encode(&mut body);
            for _ in 0..REQUESTS {
                crate::wire::write_frame(&mut stream, &body).expect("pipelined request");
            }
            let mut frame = Vec::new();
            for i in 0..REQUESTS {
                let got = crate::wire::read_frame(&mut stream, &mut frame)
                    .unwrap_or_else(|err| panic!("reply {i} never arrived: {err}"));
                assert!(got, "connection closed before reply {i}");
                assert!(matches!(
                    Response::decode(&frame).expect("reply decodes"),
                    Response::Metrics(_)
                ));
            }
        });
    }

    #[test]
    fn a_half_closing_client_receives_every_buffered_reply() {
        // Regression (review finding 2): read-side EOF closed the
        // connection even with replies still buffered, truncating the
        // tail for a legal write-all/shutdown(WR)/read-all client. Large
        // snapshot replies plus a deliberate read delay force the flush
        // to hit WouldBlock while EOF is already seen.
        const REQUESTS: usize = 40;
        with_reactor(ReactorConfig::default(), |addr, _server| {
            let mut setup =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            let big = StreamConfig { width: 4096, depth: 8, ..stream_config() };
            setup.create_stream("half", &big).expect("create");
            setup.feed_batch("half", &ids(100)).expect("feed");

            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            let mut body = Vec::new();
            Request::Snapshot { name: "half" }.encode(&mut body);
            for _ in 0..REQUESTS {
                crate::wire::write_frame(&mut stream, &body).expect("pipelined request");
            }
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
            // Let the reactor see EOF and buffer replies past the kernel
            // send buffer before we start draining.
            std::thread::sleep(Duration::from_millis(300));
            let mut frame = Vec::new();
            for i in 0..REQUESTS {
                let got = crate::wire::read_frame(&mut stream, &mut frame)
                    .unwrap_or_else(|err| panic!("reply {i} truncated after half-close: {err}"));
                assert!(got, "connection closed before reply {i}");
                assert!(matches!(
                    Response::decode(&frame).expect("reply decodes"),
                    Response::Snapshot(_)
                ));
            }
        });
    }

    #[test]
    fn a_frame_larger_than_the_read_pause_cap_still_parses() {
        // The unparsed-bytes cap is unconditional now; a single frame
        // bigger than READ_PAUSE_BYTES must still be read to completion
        // (the mid_frame exception) instead of stalling.
        with_reactor(ReactorConfig::default(), |addr, _server| {
            let mut client =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            client.create_stream("big", &stream_config()).expect("create");
            let batch = ids(20_000); // 160 KB frame, ~2.5x READ_PAUSE_BYTES
            let ack = client.feed_batch("big", &batch).expect("oversized frame feeds");
            assert_eq!(ack.outputs.len(), 20_000);
        });
    }

    #[test]
    fn accepts_beyond_the_connection_cap_are_refused_with_busy() {
        let config = ReactorConfig { max_connections: 1, ..ReactorConfig::default() };
        with_reactor(config, |addr, server| {
            let mut first =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            first.create_stream("c", &stream_config()).expect("create");
            // Second connection: refused with a coded Busy frame.
            let mut second =
                ServiceClient::new(TcpStream::connect(addr).expect("connect")).expect("client");
            match second.floor_estimate("c") {
                Err(ServiceError::Busy) | Err(ServiceError::Io(_)) => {}
                other => panic!("expected a Busy refusal, got {other:?}"),
            }
            assert_eq!(server.metrics().reactor().rejected.get(), 1);
            // The admitted connection is unaffected.
            first.feed_batch("c", &ids(10)).expect("first connection still serves");
        });
    }
}
