//! The pipelined ship path: the owning worker sends each record, appends
//! and applies it locally while the shipment is in flight, and collects
//! the replica's ack before replying.
//!
//! - A clean run leaves the replica's log byte-identical to the
//!   primary's, in both directions of a 2-node mesh.
//! - A worker panic scripted *between* the send and the ack collection
//!   leaves the replica one record ahead on an op no client saw acked.
//!   The next ship must drain the stale ack instead of reading it as its
//!   own. It then re-attaches the replica from the snapshot, and the
//!   client's position resync keeps the stream exactly-once.

mod common;

use common::{batch_ids, mesh_client, stream_config, Mesh};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use uns_mesh::{place, Membership, MeshConfig, NodeInfo, ReplicaApplier, Replicator};
use uns_service::client::ServiceClient;
use uns_service::fault::{FaultPlan, FaultSpec};
use uns_service::protocol::EstimatorKind;
use uns_service::resilient::{Delivery, ResilientClient, RetryPolicy};
use uns_service::server::{
    DurabilityConfig, ReplicaHandler, ReplicationSink, Server, ServerConfig,
};
use uns_service::storage::MemBackend;
use uns_service::wal::{parse_wal, FsyncPolicy};

const BATCH_LEN: u64 = 48;

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        retry_budget: 16,
        op_timeout: Some(Duration::from_secs(5)),
        op_deadline: None,
        jitter_seed: seed,
    }
}

fn wal_bytes(backend: &MemBackend, stream: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    backend.with_wal_bytes(stream, |b| bytes = b.clone());
    bytes
}

#[test]
fn pipelined_run_leaves_byte_identical_logs_both_ways() {
    let mesh = Mesh::start(2, &MeshConfig::default());
    let names: Vec<String> = mesh.membership.nodes().iter().map(|n| n.name.clone()).collect();
    // One stream whose primary is n0 and one whose primary is n1, so
    // each node ships to the other.
    let streams: Vec<String> = ["n0", "n1"]
        .iter()
        .map(|want| {
            (0..)
                .map(|i| format!("pipe-{i}"))
                .find(|name| place(name, &names, 1).expect("live").primary == *want)
                .expect("some name places on each node")
        })
        .collect();
    for (s, stream) in streams.iter().enumerate() {
        let mut client = mesh_client(&mesh, stream, 1, policy(s as u64));
        client.create_stream(stream, &stream_config(EstimatorKind::CountSketch)).expect("create");
        for b in 0..30 {
            match client.feed_batch(stream, &batch_ids(b, BATCH_LEN)).expect("feed") {
                Delivery::Acked(ack) => assert_eq!(ack.position, (b + 1) * BATCH_LEN),
                other => panic!("clean run lost a reply: {other:?}"),
            }
        }
        client.sample(stream).expect("sample");
        let placement = place(stream, &names, 1).expect("live");
        let primary = mesh.index_of(&placement.primary);
        let replica = mesh.index_of(&placement.replicas[0]);
        let primary_wal = wal_bytes(&mesh.backends[primary], stream);
        assert_eq!(
            primary_wal,
            wal_bytes(&mesh.backends[replica], stream),
            "{stream}: logs differ"
        );
        let parsed = parse_wal(&primary_wal);
        let header = parsed.header.expect("primary WAL header");
        assert_eq!(parsed.records.len(), 31, "{stream}: one record per acked op");
        // The ack is collected before the reply: the replica is at the
        // primary's position the moment the last reply arrives.
        assert_eq!(
            mesh.nodes[replica].applier().position(stream),
            Some((header.generation, header.base_seq + 31))
        );
        let attach = mesh.nodes[primary].replicator().attach_stats();
        assert_eq!((attach.full, attach.incremental), (1, 0), "{stream}: one attach, at create");
    }
    mesh.stop_all();
}

#[test]
fn uncollected_ack_is_drained_and_resync_stays_exactly_once() {
    let stream = "panic-cell";
    let listeners =
        [TcpListener::bind("127.0.0.1:0").unwrap(), TcpListener::bind("127.0.0.1:0").unwrap()];
    let infos: Vec<NodeInfo> = ["p", "r"]
        .iter()
        .zip(&listeners)
        .map(|(name, l)| NodeInfo { name: name.to_string(), addr: l.local_addr().unwrap() })
        .collect();
    let server_config = ServerConfig { workers: 1, queue_depth: 16 };
    let [primary_listener, replica_listener] = listeners;

    // Replica: a durable server whose handler appends shipped records.
    let replica_backend = Arc::new(MemBackend::new());
    let replica = Arc::new(
        Server::start_durable(server_config, DurabilityConfig::new(replica_backend.clone()))
            .unwrap(),
    );
    let applier = Arc::new(ReplicaApplier::new(replica_backend.clone(), FsyncPolicy::PerOp));
    replica.set_replica_handler(Some(applier.clone() as Arc<dyn ReplicaHandler>));
    let replica_loop = {
        let replica = Arc::clone(&replica);
        std::thread::spawn(move || replica.serve(replica_listener))
    };

    // Primary: a durable server under a fault plan that panics nothing
    // on its own (rate zero) — the one panic is scripted below.
    let plan = FaultPlan::new(7, FaultSpec::default());
    let primary_backend = Arc::new(MemBackend::new());
    let mut durability = DurabilityConfig::new(primary_backend.clone());
    durability.fault_plan = Some(plan.clone());
    let primary = Arc::new(Server::start_durable(server_config, durability).unwrap());
    let replicator = Arc::new(Replicator::new(
        "p",
        Arc::new(Membership::new(infos.clone())),
        1,
        primary_backend.clone(),
        Arc::clone(primary.metrics()),
        Duration::from_millis(500),
        Some(Duration::from_secs(2)),
        None,
    ));
    primary.set_replication_sink(Some(replicator.clone() as Arc<dyn ReplicationSink>));
    let primary_loop = {
        let primary = Arc::clone(&primary);
        std::thread::spawn(move || primary.serve(primary_listener))
    };

    let addr = infos[0].addr;
    let mut client = ResilientClient::new(policy(7), move || {
        let tcp = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
        tcp.set_nodelay(true).ok();
        Ok(tcp)
    });
    let config = stream_config(EstimatorKind::CountMin);
    client.create_stream(stream, &config).expect("create");
    const BATCHES: u64 = 12;
    let feed = |client: &mut ResilientClient<_, _>, b: u64| match client
        .feed_batch(stream, &batch_ids(b, BATCH_LEN))
        .expect("feed")
    {
        Delivery::Acked(ack) => assert_eq!(ack.position, (b + 1) * BATCH_LEN, "batch {b}"),
        other => panic!("batch {b}: {other:?}"),
    };
    for b in 0..5 {
        feed(&mut client, b);
    }

    // Cell 1: a panic after the record was sent, before the local append
    // — the replica logs it, the primary does not, nobody reads the ack.
    // Its sender gives up, and the next op carries *different* ids into
    // the same sequence number: had the stale ack been read as that op's,
    // the replica would skip it as already durable and keep the
    // unacknowledged batch instead.
    plan.panic_next_worker_ops(1);
    let mut bystander = ServiceClient::new(TcpStream::connect(addr).unwrap()).unwrap();
    let lost = bystander.feed_batch(stream, &batch_ids(1_000, BATCH_LEN));
    assert!(lost.is_err(), "the panicked op was acknowledged: {lost:?}");
    feed(&mut client, 5);
    // The stale ack said the replica was one ahead; it was re-attached
    // from the snapshot (a second full attach), dropping the extra record.
    let attach = replicator.attach_stats();
    assert_eq!(attach.full, 2, "the ahead replica was not re-attached: {attach:?}");

    // Cell 2: the same window under the resilient client — its position
    // resync finds the op unapplied and the retry applies it once.
    plan.panic_next_worker_ops(1);
    for b in 6..BATCHES {
        feed(&mut client, b);
    }
    assert_eq!(client.retry_stats().resyncs, 1);
    assert_eq!(replicator.attach_stats().full, 3);

    let primary_wal = wal_bytes(&primary_backend, stream);
    assert_eq!(primary_wal, wal_bytes(&replica_backend, stream), "replica log diverged");
    let parsed = parse_wal(&primary_wal);
    let header = parsed.header.expect("primary WAL header");
    // The heal after the panic may restart the log at a fresh snapshot.
    assert_eq!(
        header.base_seq + parsed.records.len() as u64,
        BATCHES,
        "one record per acked batch"
    );
    assert_eq!(applier.position(stream), Some((header.generation, BATCHES)));

    // Exactly-once: the primary's sampler equals one fed each acked batch
    // once, and never the bystander's.
    let reference = Server::start(server_config);
    let mut direct = ServiceClient::new(reference.connect_in_process()).unwrap();
    direct.create_stream(stream, &config).unwrap();
    for b in 0..BATCHES {
        direct.feed_batch(stream, &batch_ids(b, BATCH_LEN)).unwrap();
    }
    assert_eq!(client.snapshot(stream).expect("snapshot"), direct.snapshot(stream).unwrap());

    primary.stop();
    replica.stop();
    primary_loop.join().unwrap().unwrap();
    replica_loop.join().unwrap().unwrap();
}
