//! The order-aware output check.
//!
//! No golden digest from an earlier run: on hot-stream the order in
//! which the two connections' batches reach the stream depends on the
//! scheduler. Instead every reply is replayed through an in-process
//! `ServiceSampler` built from the stream's own configuration, in the
//! order the service applied it:
//!
//! * a stream one connection owns is replayed in the order that
//!   connection sent its requests (`Sample` included — it consumes a
//!   coin), and the chain of reply fingerprints must equal the replay's;
//! * a stream several connections feed is replayed in reply-`position`
//!   order, which must tile the stream without gaps or overlaps, and
//!   each reply's fingerprint must equal its replay's.
//!
//! A fingerprint covers the reply's position, admitted count and output
//! digest (or sampled id). Afterwards each stream's `Snapshot` bytes and
//! `Stats` element count must equal the replay's.

use crate::closed_loop::{chain, ConnLog, CHAIN_START};
use crate::deploy::{outputs_digest, Outcome};
#[cfg(doc)]
use crate::workload::Kind;
use crate::workload::{Inputs, Op, OpKind};
use uns_core::NodeId;
use uns_service::ServiceSampler;

/// What the service reported about a stream after the loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamFinal {
    /// `Snapshot` reply bytes.
    pub snapshot: Vec<u8>,
    /// `Stats` reply's `pipeline.elements`.
    pub elements: u64,
}

/// What the replay reproduced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replayed {
    /// Occurrences of each identifier in the input the service absorbed,
    /// over each stream's first [`crate::workload::Kind::gkl_prefix`]
    /// identifiers.
    pub input_counts: Vec<u64>,
    /// Occurrences of each identifier among the outputs to that input.
    pub output_counts: Vec<u64>,
    /// Mutating requests (WAL records) per stream.
    pub mutations: Vec<u64>,
    /// Requests replayed.
    pub requests: u64,
}

fn bump(counts: &mut Vec<u64>, id: NodeId) {
    let id = usize::try_from(id.as_u64()).expect("identifiers of the fixed shapes fit in usize");
    if id >= counts.len() {
        counts.resize(id + 1, 0);
    }
    counts[id] += 1;
}

/// Per-stream replay state.
struct Replay {
    sampler: ServiceSampler,
    position: u64,
    chain: u64,
}

impl Replayed {
    /// Applies `op` to the stream's replay and returns the reply the
    /// service should have given.
    fn apply(
        &mut self,
        inputs: &Inputs,
        op: &Op,
        replay: &mut Replay,
        scratch: &mut Vec<NodeId>,
        out: &mut Vec<NodeId>,
    ) -> Outcome {
        let ids = inputs.ids(op, scratch);
        // G_KL counts a fixed prefix of each stream, so it does not move
        // with how far a stream got in the window.
        let counted = replay.position < inputs.kind.gkl_prefix();
        if counted {
            for &id in ids {
                bump(&mut self.input_counts, id);
            }
        }
        self.mutations[op.stream] += 1;
        self.requests += 1;
        match op.kind {
            OpKind::Ingest => {
                let admitted = replay.sampler.ingest_batch(ids);
                replay.position += ids.len() as u64;
                Outcome::Batch { position: replay.position, admitted, digest: 0 }
            }
            OpKind::Feed => {
                out.clear();
                let admitted = replay.sampler.feed_batch(ids, out);
                replay.position += ids.len() as u64;
                for &id in out.iter().filter(|_| counted) {
                    bump(&mut self.output_counts, id);
                }
                Outcome::Batch { position: replay.position, admitted, digest: outputs_digest(out) }
            }
            OpKind::Sample => {
                let sample = replay.sampler.sample();
                if let Some(id) = sample.filter(|_| counted) {
                    bump(&mut self.output_counts, id);
                }
                Outcome::Sampled(sample)
            }
        }
    }
}

/// Replays every connection's replies and compares them and each
/// stream's final state.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn check(
    inputs: &Inputs,
    logs: &[&ConnLog],
    finals: &[StreamFinal],
) -> Result<Replayed, String> {
    let streams = inputs.names.len();
    let mut replays = Vec::with_capacity(streams);
    for (config, name) in inputs.configs.iter().zip(&inputs.names) {
        let sampler =
            ServiceSampler::create(config).map_err(|e| format!("{name}: replay sampler: {e}"))?;
        replays.push(Replay { sampler, position: 0, chain: CHAIN_START });
    }
    let mut replayed = Replayed { mutations: vec![0; streams], ..Replayed::default() };
    let (mut scratch, mut out) = (Vec::new(), Vec::new());

    // Shared streams, in position order.
    let mut positioned: Vec<(u64, usize, u64, u64)> = logs
        .iter()
        .flat_map(|log| log.positioned.iter().map(|&(p, step, f)| (p, log.conn, step, f)))
        .collect();
    positioned.sort_unstable();
    for (_, conn, step, fingerprint) in positioned {
        let op = inputs.op(conn, step);
        let expected = replayed.apply(inputs, &op, &mut replays[op.stream], &mut scratch, &mut out);
        if expected.fingerprint() != fingerprint {
            return Err(format!(
                "{}: connection {conn} step {step}: the service's reply differs from the \
                 replay's {expected:?}",
                inputs.names[op.stream]
            ));
        }
    }

    // Streams with one sender, in the order it sent its requests.
    for log in logs {
        let mut touched = vec![false; streams];
        for step in 0..log.steps {
            let op = inputs.op(log.conn, step);
            if inputs.shared(op.stream) {
                continue;
            }
            let replay = &mut replays[op.stream];
            let expected = replayed.apply(inputs, &op, replay, &mut scratch, &mut out);
            replay.chain = chain(replay.chain, &expected);
            touched[op.stream] = true;
        }
        for (stream, _) in touched.iter().enumerate().filter(|(_, &t)| t) {
            if replays[stream].chain != log.chains[stream] {
                return Err(format!(
                    "{}: connection {}'s replies differ from their in-order replay",
                    inputs.names[stream], log.conn
                ));
            }
        }
    }

    let mut blob = Vec::new();
    for ((replay, last), name) in replays.iter().zip(finals).zip(&inputs.names) {
        replay.sampler.snapshot(&mut blob);
        if last.snapshot != blob {
            return Err(format!("{name}: final snapshot differs from the replay's"));
        }
        if last.elements != replay.position {
            return Err(format!(
                "{name}: Stats counts {} elements, the clients sent {}",
                last.elements, replay.position
            ));
        }
    }
    Ok(replayed)
}

impl Replayed {
    /// Adds `other`'s identifier counts (the G_KL of several rounds).
    pub fn merge(&mut self, other: &Replayed) {
        for (mine, theirs) in [
            (&mut self.input_counts, &other.input_counts),
            (&mut self.output_counts, &other.output_counts),
        ] {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.requests += other.requests;
    }

    /// The paper's G_KL: `1 - D(output ‖ uniform) / D(input ‖ uniform)`.
    ///
    /// # Errors
    ///
    /// When the input is already uniform (no gain is defined).
    pub fn gkl_gain(&self) -> Result<f64, String> {
        let len = self.input_counts.len().max(self.output_counts.len());
        let pad = |v: &[u64]| {
            let mut v = v.to_vec();
            v.resize(len, 0);
            v
        };
        uns_analysis::kl::kl_gain(&pad(&self.input_counts), &pad(&self.output_counts))
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "the input is uniform; G_KL is undefined".to_string())
    }
}
