//! One write per frame on every blocking framing path.
//!
//! Under `TCP_NODELAY` a length prefix written on its own leaves as its
//! own segment and costs the peer an extra wake-up per message. A
//! counting `Write` wrapper pins that `write_frame`, the blocking client
//! and the thread-per-connection server's reply path each hand the
//! transport exactly one write call per frame.

use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uns_core::NodeId;
use uns_service::transport::{duplex, Transport};
use uns_service::wire::{read_frame, write_frame};
use uns_service::{
    EstimatorKind, HashFamilyKind, Server, ServerConfig, ServiceClient, StreamConfig,
};

/// Counts `write`/`write_vectored` calls; clones share the counter, the
/// way clones of one socket share the connection.
struct CountingTransport {
    inner: Box<dyn Transport>,
    writes: Arc<AtomicUsize>,
}

impl Read for CountingTransport {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.inner.read(out)
    }
}

impl Write for CountingTransport {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(data)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for CountingTransport {
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(CountingTransport {
            inner: self.inner.try_clone_transport()?,
            writes: Arc::clone(&self.writes),
        }))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

fn counting(inner: impl Transport + 'static) -> (CountingTransport, Arc<AtomicUsize>) {
    let writes = Arc::new(AtomicUsize::new(0));
    (CountingTransport { inner: Box::new(inner), writes: Arc::clone(&writes) }, writes)
}

#[test]
fn write_frame_issues_one_write_per_frame() {
    let (a, mut b) = duplex(1 << 16);
    let (mut writer, writes) = counting(a);
    for (i, body) in [&b"hello"[..], b"", &[7u8; 4000]].iter().enumerate() {
        write_frame(&mut writer, body).unwrap();
        assert_eq!(writes.load(Ordering::Relaxed), i + 1, "frame {i} took more than one write");
        let mut buf = Vec::new();
        assert!(read_frame(&mut b, &mut buf).unwrap());
        assert_eq!(buf, *body);
    }
}

#[test]
fn client_and_server_reply_path_issue_one_write_per_frame() {
    let server = Server::start(ServerConfig { workers: 1, queue_depth: 8 });
    let (client_end, server_end) = duplex(1 << 16);
    let (server_end, server_writes) = counting(server_end);
    server.handle(server_end);
    let (client_end, client_writes) = counting(client_end);
    let mut client = ServiceClient::new(client_end).unwrap();

    let config = StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 10,
        width: 10,
        depth: 5,
        seed: 3,
        family: HashFamilyKind::Mersenne,
    };
    let ids: Vec<NodeId> = (0..1024u64).map(NodeId::new).collect();
    client.create_stream("s", &config).unwrap();
    client.ingest("s", &ids).unwrap();
    assert_eq!(client.feed_batch("s", &ids).unwrap().outputs.len(), ids.len());
    client.sample("s").unwrap();
    client.floor_estimate("s").unwrap();
    client.stats("s").unwrap();
    let blob = client.snapshot("s").unwrap();
    client.restore("s", &blob).unwrap();
    client.metrics().unwrap();
    // An error reply is a frame like any other.
    assert!(client.sample("missing").is_err());
    let frames = 10;
    assert_eq!(client_writes.load(Ordering::Relaxed), frames, "client requests");
    assert_eq!(server_writes.load(Ordering::Relaxed), frames, "server replies");
}
