//! The three workloads: their streams, their seeded inputs, and the
//! request script each client connection follows.
//!
//! Inputs are generated from the run seed before anything is timed; the
//! service only ever sees the generated identifiers. Every input source
//! is a pre-generated window replayed cyclically, so the benchmark's own
//! buffers stay small and the peak-memory figure reflects the service.

use crate::stats::mix;
use uns_core::NodeId;
use uns_service::loadgen::Workload as IdShape;
use uns_service::protocol::{EstimatorKind, HashFamilyKind, StreamConfig};

/// Client connections of every workload: a closed loop of two callers.
pub const CONNECTIONS: usize = 2;
/// Worker threads of every server (set explicitly, never from the core
/// count of the host).
pub const WORKERS: usize = 2;
/// Bounded job-queue depth per worker.
pub const QUEUE_DEPTH: usize = 64;
/// Identifier population `n` of the paper's Fig. 7 experiments.
pub const DOMAIN: usize = 1000;
/// Stream length `m` of the paper's Fig. 7 experiments: the length of
/// each pre-generated input window.
pub const WINDOW: usize = 100_000;
/// Per-stream window of tenant-mix (32 streams share the memory budget).
const TENANT_WINDOW: usize = 16_384;
/// Sybil identifiers of the tenant-mix input.
const SYBILS: usize = 38;
/// Base of every stream's configuration seed.
const STREAM_SEED: u64 = 0x5EED_0F5A_3B1E;
/// Streams of tenant-mix; each connection owns half of them.
const TENANT_STREAMS: usize = 32;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One Count-Min stream fed 4096-id batches by both connections.
    HotStream,
    /// 32 small streams, mixed reads and writes of 64 ids.
    TenantMix,
    /// A durable 2-node mesh replicating 1024-id feeds both ways.
    ReplicatedFeed,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 3] = [Kind::HotStream, Kind::TenantMix, Kind::ReplicatedFeed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotStream => "hot-stream",
            Kind::TenantMix => "tenant-mix",
            Kind::ReplicatedFeed => "replicated-feed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Identifiers per `Ingest`/`FeedBatch` request.
    pub fn batch(self) -> usize {
        match self {
            Kind::HotStream => 4096,
            Kind::TenantMix => 64,
            Kind::ReplicatedFeed => 1024,
        }
    }

    /// Identifiers of each stream that G_KL is computed over: a fixed
    /// prefix, reached in a fraction of a round even on a slowed host.
    pub fn gkl_prefix(self) -> u64 {
        match self {
            Kind::HotStream => 1 << 22,
            Kind::TenantMix => 1 << 14,
            Kind::ReplicatedFeed => 1 << 20,
        }
    }
}

/// What a request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Input-only batch (write only).
    Ingest,
    /// Batch with one output per element (write plus read).
    Feed,
    /// One output draw without input (read only; it consumes a coin).
    Sample,
}

/// One request of a connection's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What the request does.
    pub kind: OpKind,
    /// Index of the target stream.
    pub stream: usize,
    /// Input window the batch is cut from.
    pub source: usize,
    /// Which batch of that window (cyclic); unused by `Sample`.
    pub chunk: u64,
}

/// A workload's streams and generated inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Stream names, by stream index.
    pub names: Vec<String>,
    /// Stream configurations, by stream index.
    pub configs: Vec<StreamConfig>,
    /// Input windows, by source index.
    pub windows: Vec<Vec<NodeId>>,
}

fn count_min(seed: u64) -> StreamConfig {
    StreamConfig {
        kind: EstimatorKind::CountMin,
        capacity: 10,
        width: 10,
        depth: 5,
        seed,
        family: HashFamilyKind::Mersenne,
    }
}

fn count_sketch(seed: u64) -> StreamConfig {
    StreamConfig { kind: EstimatorKind::CountSketch, width: 250, depth: 10, ..count_min(seed) }
}

impl Inputs {
    /// Generates the workload's inputs from `seed`: the same seed gives
    /// the same identifiers, another seed other ones. Stream
    /// configurations (hash functions and coin seeds) are fixed per
    /// workload, not drawn from `seed`: the service under test stays the
    /// same across seeds and only its traffic changes, so G_KL compares
    /// like with like (under targeted flooding a 10-column sketch's gain
    /// swings with where the hashes put the flooded ids).
    ///
    /// # Panics
    ///
    /// Never for the fixed shapes used here (non-empty domains).
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let window = |shape: IdShape, len: usize, source: u64| {
            shape.generate(len, mix(seed, 0x1000 + source)).expect("fixed shapes are valid")
        };
        let stream_seed = |stream: u64| mix(STREAM_SEED, stream);
        match kind {
            Kind::HotStream => Inputs {
                kind,
                names: vec!["hot".into()],
                configs: vec![count_min(stream_seed(0))],
                windows: (0..CONNECTIONS as u64)
                    .map(|c| window(IdShape::PeakAttack { domain: DOMAIN }, WINDOW, c))
                    .collect(),
            },
            Kind::TenantMix => {
                // Creation order assigns workers round-robin, so stream i
                // lands on worker i % 2; alternating the kind every two
                // streams gives each worker (and each connection) an even
                // share of Count-Min and Count-sketch streams.
                let configs = (0..TENANT_STREAMS as u64)
                    .map(|i| {
                        if (i / 2) % 2 == 0 {
                            count_min(stream_seed(i))
                        } else {
                            count_sketch(stream_seed(i))
                        }
                    })
                    .collect();
                Inputs {
                    kind,
                    names: (0..TENANT_STREAMS).map(|i| format!("tenant-{i:02}")).collect(),
                    configs,
                    windows: (0..TENANT_STREAMS as u64)
                        .map(|i| {
                            let shape = IdShape::Sybil { domain: DOMAIN, distinct: SYBILS };
                            window(shape, TENANT_WINDOW, i)
                        })
                        .collect(),
                }
            }
            Kind::ReplicatedFeed => Inputs {
                kind,
                names: replicated_stream_names(),
                configs: (0..CONNECTIONS as u64).map(|i| count_min(stream_seed(i))).collect(),
                windows: (0..CONNECTIONS as u64)
                    .map(|c| window(IdShape::TargetedFlooding { domain: DOMAIN }, WINDOW, c))
                    .collect(),
            },
        }
    }

    /// Streams connection `conn` owns: it creates them and reads their
    /// final state. Only hot-stream's one stream takes requests from a
    /// connection that does not own it.
    pub fn owned(&self, conn: usize) -> Vec<usize> {
        match self.kind {
            Kind::HotStream if conn == 0 => vec![0],
            Kind::HotStream => Vec::new(),
            Kind::TenantMix => {
                let per = self.names.len() / CONNECTIONS;
                (conn * per..(conn + 1) * per).collect()
            }
            Kind::ReplicatedFeed => vec![conn],
        }
    }

    /// Whether several connections send to `stream` (only hot-stream's):
    /// its replies are ordered by position, not by one send order.
    pub fn shared(&self, stream: usize) -> bool {
        self.kind == Kind::HotStream && stream == 0
    }

    /// The `step`-th request of connection `conn`'s script.
    ///
    /// * hot-stream: `FeedBatch` after `FeedBatch` into the one stream,
    ///   cut from the connection's own window;
    /// * tenant-mix: round-robin over the 16 owned streams, each visit an
    ///   `Ingest`, a `FeedBatch`, then a `Sample`;
    /// * replicated-feed: one `Sample` (its WAL record attaches the
    ///   replica during set-up), then `FeedBatch` after `FeedBatch`.
    pub fn op(&self, conn: usize, step: u64) -> Op {
        match self.kind {
            Kind::HotStream => Op { kind: OpKind::Feed, stream: 0, source: conn, chunk: step },
            Kind::TenantMix => {
                let owned = self.names.len() / CONNECTIONS;
                let visit = step / 3;
                let stream = conn * owned + (visit % owned as u64) as usize;
                let round = visit / owned as u64;
                let (kind, chunk) = match step % 3 {
                    0 => (OpKind::Ingest, 2 * round),
                    1 => (OpKind::Feed, 2 * round + 1),
                    _ => (OpKind::Sample, 0),
                };
                Op { kind, stream, source: stream, chunk }
            }
            Kind::ReplicatedFeed => match step {
                0 => Op { kind: OpKind::Sample, stream: conn, source: conn, chunk: 0 },
                _ => Op { kind: OpKind::Feed, stream: conn, source: conn, chunk: step - 1 },
            },
        }
    }

    /// Steps of a connection's script that set-up sends (before timing).
    pub fn setup_steps(&self) -> u64 {
        u64::from(self.kind == Kind::ReplicatedFeed)
    }

    /// The identifiers of `op` (empty for `Sample`), cut cyclically from
    /// its window into `scratch`.
    pub fn ids<'a>(&self, op: &Op, scratch: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        scratch.clear();
        if op.kind == OpKind::Sample {
            return scratch;
        }
        let window = &self.windows[op.source];
        let batch = self.kind.batch();
        let start = (op.chunk as usize % window.len()) * batch % window.len();
        let mut at = start;
        while scratch.len() < batch {
            let take = (batch - scratch.len()).min(window.len() - at);
            scratch.extend_from_slice(&window[at..at + take]);
            at = (at + take) % window.len();
        }
        scratch
    }
}

/// Names of the two replicated-feed streams: the first candidates whose
/// rendezvous placement puts the primary on node `n0` and on `n1`, so
/// each node is primary for one stream and replication runs both ways.
pub fn replicated_stream_names() -> Vec<String> {
    let nodes = mesh_node_names();
    (0..CONNECTIONS)
        .map(|primary| {
            (0..)
                .map(|i| format!("feed-{i}"))
                .find(|name| uns_mesh::rank(name, &nodes)[0] == nodes[primary])
                .expect("rendezvous placement reaches every node")
        })
        .collect()
}

/// Names of the replicated-feed mesh nodes.
pub fn mesh_node_names() -> Vec<String> {
    (0..CONNECTIONS).map(|i| format!("n{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_batches_wrap_around_the_window() {
        let inputs = Inputs::generate(Kind::HotStream, 1);
        let mut scratch = Vec::new();
        // Batch 24 starts at 98 304 and wraps after 1696 ids.
        let op = inputs.op(0, 24);
        let ids = inputs.ids(&op, &mut scratch).to_vec();
        let window = &inputs.windows[0];
        assert_eq!(ids.len(), 4096);
        assert_eq!(ids[0], window[24 * 4096]);
        assert_eq!(ids[1696], window[0]);
    }

    #[test]
    fn tenant_streams_split_evenly_over_kinds_connections_and_workers() {
        let inputs = Inputs::generate(Kind::TenantMix, 1);
        for conn in 0..CONNECTIONS {
            for worker in 0..WORKERS {
                let count_min = inputs
                    .owned(conn)
                    .into_iter()
                    .filter(|&s| s % WORKERS == worker)
                    .filter(|&s| inputs.configs[s].kind == EstimatorKind::CountMin)
                    .count();
                assert_eq!(count_min, 4, "conn {conn} worker {worker}");
            }
        }
        assert_eq!(inputs.op(1, 0).stream, 16);
        assert_eq!(inputs.op(1, 2).kind, OpKind::Sample);
        assert_eq!(inputs.op(0, 3 * 16 + 1).chunk, 3);
    }

    #[test]
    fn replicated_streams_have_one_primary_per_node() {
        let names = replicated_stream_names();
        let nodes = mesh_node_names();
        assert_eq!(uns_mesh::rank(&names[0], &nodes)[0], "n0");
        assert_eq!(uns_mesh::rank(&names[1], &nodes)[0], "n1");
    }
}
