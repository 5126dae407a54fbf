//! Bringing a workload's service up and down through the public API:
//! servers, listeners, client connections, streams and replicas.

use crate::closed_loop::ConnLog;
use crate::workload::{mesh_node_names, Inputs, Op, OpKind, CONNECTIONS, QUEUE_DEPTH, WORKERS};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use uns_core::NodeId;
use uns_mesh::{Membership, MeshConfig, MeshNode, NodeInfo};
use uns_service::server::{DurabilityConfig, Server, ServerConfig};
use uns_service::storage::{DirBackend, StorageBackend};
use uns_service::wal::{parse_wal, FsyncPolicy};
use uns_service::{ReactorConfig, ServiceClient, ServiceError, Transport};

/// A client connection of any tier.
pub type Client = ServiceClient<Box<dyn Transport>>;

/// Fsync policy of every durable tier.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(256);

/// The fixed server configuration of every workload.
pub fn server_config() -> ServerConfig {
    ServerConfig { workers: WORKERS, queue_depth: QUEUE_DEPTH }
}

/// How clients reach the service, from the thinnest tier to the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// In-memory server over `Server::connect_in_process` pipes.
    Pipe,
    /// In-memory server over reactor TCP (`Server::serve_reactor`).
    Reactor,
    /// `DirBackend`-durable server over `Server::serve` TCP, no replication.
    Durable,
    /// 2-node durable `MeshNode` mesh with one replica per stream.
    Mesh,
}

/// The outcome of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `Ingest`/`FeedBatch` acknowledgement; `digest` covers the outputs
    /// of a feed (0 for an ingest).
    Batch {
        /// Stream length after the batch.
        position: u64,
        /// Elements of the batch admitted into Γ.
        admitted: u64,
        /// [`crate::stats::digest`] of the output samples.
        digest: u64,
    },
    /// `Sample` reply.
    Sampled(Option<NodeId>),
}

impl Outcome {
    /// A 64-bit fingerprint of everything the reply says.
    pub fn fingerprint(&self) -> u64 {
        match *self {
            Outcome::Batch { position, admitted, digest } => {
                crate::stats::digest([position, admitted, digest])
            }
            Outcome::Sampled(sample) => {
                crate::stats::digest([u64::MAX, sample.map_or(0, |id| id.as_u64() + 1)])
            }
        }
    }
}

/// Digest of a feed reply's outputs.
pub fn outputs_digest(outputs: &[NodeId]) -> u64 {
    crate::stats::digest(outputs.iter().map(|id| id.as_u64()))
}

/// Sends `op` on `client`, cutting its ids into `scratch`. With
/// `corrupt`, a feed's first output is altered before it is digested —
/// the negative control of the output check.
///
/// # Errors
///
/// The client's error, `Busy` included.
pub fn send(
    client: &mut Client,
    inputs: &Inputs,
    op: &Op,
    scratch: &mut Vec<NodeId>,
    corrupt: bool,
) -> Result<Outcome, ServiceError> {
    let name = &inputs.names[op.stream];
    let ids = inputs.ids(op, scratch);
    Ok(match op.kind {
        OpKind::Ingest => {
            let ack = client.ingest(name, ids)?;
            Outcome::Batch { position: ack.position, admitted: ack.admitted, digest: 0 }
        }
        OpKind::Feed => {
            let mut ack = client.feed_batch(name, ids)?;
            if corrupt {
                ack.outputs[0] = NodeId::new(ack.outputs[0].as_u64() ^ 1);
            }
            let digest = outputs_digest(&ack.outputs);
            Outcome::Batch { position: ack.position, admitted: ack.admitted, digest }
        }
        OpKind::Sample => Outcome::Sampled(client.sample(name)?),
    })
}

/// A running service of one tier.
pub struct Deployment {
    tier: Tier,
    servers: Vec<Arc<Server>>,
    nodes: Vec<Arc<MeshNode>>,
    backends: Vec<Arc<DirBackend>>,
    loops: Vec<JoinHandle<std::io::Result<()>>>,
    addrs: Vec<SocketAddr>,
    dir: Option<PathBuf>,
}

fn listener() -> Result<(TcpListener, SocketAddr), ServiceError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((listener, addr))
}

fn spawn_loop(
    name: &str,
    run: impl FnOnce() -> std::io::Result<()> + Send + 'static,
) -> Result<JoinHandle<std::io::Result<()>>, ServiceError> {
    Ok(std::thread::Builder::new().name(name.into()).spawn(run)?)
}

impl Deployment {
    /// Starts `tier` (durable tiers keep their files under `dir`), opens
    /// `connections` clients, creates each connection's streams in stream
    /// order, and runs the script's set-up steps. Returns the clients and
    /// per connection a log holding the set-up replies.
    ///
    /// # Errors
    ///
    /// Any start, connect or request failure.
    pub fn start(
        tier: Tier,
        inputs: &Inputs,
        connections: usize,
        dir: &Path,
    ) -> Result<(Deployment, Vec<Client>, Vec<ConnLog>), ServiceError> {
        let mut deployment = Deployment {
            tier,
            servers: Vec::new(),
            nodes: Vec::new(),
            backends: Vec::new(),
            loops: Vec::new(),
            addrs: Vec::new(),
            dir: None,
        };
        match tier {
            Tier::Pipe => deployment.servers.push(Arc::new(Server::start(server_config()))),
            Tier::Reactor => {
                let server = Arc::new(Server::start(server_config()));
                let (listener, addr) = listener()?;
                let serving = Arc::clone(&server);
                deployment.loops.push(spawn_loop("bench-reactor", move || {
                    serving.serve_reactor(listener, ReactorConfig::default())
                })?);
                deployment.servers.push(server);
                deployment.addrs.push(addr);
            }
            Tier::Durable => {
                std::fs::create_dir_all(dir)?;
                deployment.dir = Some(dir.to_path_buf());
                let backend = Arc::new(DirBackend::create(dir.join("node"))?);
                let mut durability =
                    DurabilityConfig::new(Arc::clone(&backend) as Arc<dyn StorageBackend>);
                durability.fsync = FSYNC;
                let server = Arc::new(Server::start_durable(server_config(), durability)?);
                let (listener, addr) = listener()?;
                let serving = Arc::clone(&server);
                deployment.loops.push(spawn_loop("bench-serve", move || serving.serve(listener))?);
                deployment.servers.push(server);
                deployment.backends.push(backend);
                deployment.addrs.push(addr);
            }
            Tier::Mesh => {
                std::fs::create_dir_all(dir)?;
                deployment.dir = Some(dir.to_path_buf());
                let names = mesh_node_names();
                let mut listeners = Vec::new();
                for _ in &names {
                    let (listener, addr) = listener()?;
                    listeners.push(listener);
                    deployment.addrs.push(addr);
                }
                let infos: Vec<NodeInfo> = names
                    .iter()
                    .zip(&deployment.addrs)
                    .map(|(name, &addr)| NodeInfo { name: name.clone(), addr })
                    .collect();
                let config = MeshConfig {
                    replication: 1,
                    fsync: FSYNC,
                    server: server_config(),
                    ..MeshConfig::default()
                };
                for (name, listener) in names.iter().zip(listeners) {
                    let backend = Arc::new(DirBackend::create(dir.join(name))?);
                    // Each node owns its liveness view, as separate
                    // processes would.
                    let membership = Arc::new(Membership::new(infos.clone()));
                    let node = MeshNode::start(
                        name,
                        listener,
                        Arc::clone(&backend) as Arc<dyn StorageBackend>,
                        membership,
                        &config,
                    )?;
                    deployment.nodes.push(node);
                    deployment.backends.push(backend);
                }
            }
        }
        let mut clients = Vec::with_capacity(connections);
        for conn in 0..connections {
            // On the mesh, connection `c` creates its streams on node `c`:
            // replicated-feed's stream names make that node their primary.
            let node = if tier == Tier::Mesh { conn % deployment.nodes.len() } else { 0 };
            clients.push(deployment.connect(node)?);
        }
        let mut logs = Vec::with_capacity(connections);
        let mut scratch = Vec::new();
        for (conn, client) in clients.iter_mut().enumerate() {
            for stream in inputs.owned(conn) {
                client.create_stream(&inputs.names[stream], &inputs.configs[stream])?;
            }
            let mut log = ConnLog::new(conn, inputs);
            for step in 0..inputs.setup_steps() {
                let outcome = send(client, inputs, &inputs.op(conn, step), &mut scratch, false)?;
                log.record(inputs, &outcome);
            }
            logs.push(log);
        }
        Ok((deployment, clients, logs))
    }

    fn connect(&self, node: usize) -> Result<Client, ServiceError> {
        if self.tier == Tier::Pipe {
            return ServiceClient::new(Box::new(self.servers[0].connect_in_process()) as Box<_>);
        }
        let tcp = TcpStream::connect(self.addrs[node])?;
        tcp.set_nodelay(true)?;
        ServiceClient::new(Box::new(tcp) as Box<dyn Transport>)
    }

    /// Each server's metrics exposition text (both mesh nodes' on the
    /// mesh).
    pub fn expositions(&self) -> Vec<String> {
        let servers: Vec<&Server> = match self.tier {
            Tier::Mesh => self.nodes.iter().map(|n| n.server()).collect(),
            _ => self.servers.iter().map(|s| s.as_ref()).collect(),
        };
        servers.iter().map(|s| s.metrics().registry().render()).collect()
    }

    /// On the mesh: every stream's replica holds exactly its primary's
    /// durable position `(generation, next_seq)`, and that position
    /// counts `ops[stream]` mutating requests. Other tiers pass.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check_replicas(&self, inputs: &Inputs, ops: &[u64]) -> Result<(), String> {
        if self.tier != Tier::Mesh {
            return Ok(());
        }
        for (stream, name) in inputs.names.iter().enumerate() {
            // Streams live on their creating connection's node; with two
            // nodes and one replica, the other node holds the copy.
            let Some(owner) = (0..CONNECTIONS).find(|&c| inputs.owned(c).contains(&stream)) else {
                continue;
            };
            let primary = owner % self.nodes.len();
            let replica = (primary + 1) % self.nodes.len();
            if ops[stream] == 0 {
                continue;
            }
            let bytes = self.backends[primary]
                .open_wal(name)
                .and_then(|mut wal| wal.read_all())
                .map_err(|e| format!("{name}: reading the primary WAL failed: {e}"))?;
            let parsed = parse_wal(&bytes);
            let header =
                parsed.header.ok_or_else(|| format!("{name}: primary WAL has no header"))?;
            let primary_at = (header.generation, header.base_seq + parsed.records.len() as u64);
            if primary_at.1 != ops[stream] {
                return Err(format!(
                    "{name}: primary WAL holds {} ops, clients were acknowledged {}",
                    primary_at.1, ops[stream]
                ));
            }
            let replica_at = self.nodes[replica].applier().position(name);
            if replica_at != Some(primary_at) {
                return Err(format!(
                    "{name}: replica position {replica_at:?} differs from primary {primary_at:?}"
                ));
            }
        }
        Ok(())
    }

    /// Closes the clients, stops every server and loop thread (joining
    /// them), and deletes the durable files.
    pub fn stop(mut self, clients: Vec<Client>) {
        drop(clients);
        for server in &self.servers {
            server.stop();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        for node in &self.nodes {
            node.stop();
        }
        self.servers.clear();
        self.nodes.clear();
        self.backends.clear();
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
