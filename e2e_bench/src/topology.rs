//! Boots the distributed topology in this process: alpenhornd, 3 `mixd` and
//! 4 `cdnd`, every hop over loopback TCP, through each crate's public
//! `serve` function. The coordinator's `Cluster` is handed mixer and CDN
//! handles built here, so the benchmark can slide its timing shims between
//! the coordinator and the daemons.

use std::path::PathBuf;
use std::sync::Arc;

use alpenhorn::{CdnRoutedTransport, TcpTransport, Transport, TransportError};
use alpenhorn_cdn::{
    serve as cdn_serve, CdnNodeHandle, CdnNodeState, NodeClient, ShardedCdn, TcpNode,
};
use alpenhorn_coordinator::server::{serve as coordinator_serve, ServerHandle};
use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig, RateLimitPolicy, ServiceConfig};
use alpenhorn_mixd::{serve as mixd_serve, MixdHandle, MixdServer, Mixer, RemoteMixer};
use alpenhorn_storage::StorageConfig;
use alpenhorn_wire::{Request, Response};

use crate::shims::{NodeSide, Position, TracedMixer, TracedNode, TracedTransport};

/// Number of `cdnd` nodes.
pub const CDN_NODES: usize = 4;
/// Data shards per mailbox blob.
pub const DATA_SHARDS: usize = 3;
/// Parity shards per mailbox blob.
pub const PARITY_SHARDS: usize = 1;
/// WAL appends per fsync on the durable coordinator. With the
/// `StorageConfig` default of an fsync on every append, the submit p99 is
/// set by how long each fsync-waiting thread then waits for a CPU, and on a
/// shared 2-vCPU host that spread past 25% between runs. One fsync per this
/// many appends keeps every WAL write, token record and round-open
/// checkpoint in the path, while fewer than 1% of submissions wait for an
/// fsync.
pub const DURABLE_SYNC_EVERY: u32 = 1000;

/// What to boot.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The cluster configuration (noise, mailbox targets, seed).
    pub config: ClusterConfig,
    /// A data directory for a durable coordinator, or `None` for memory only.
    pub data_dir: Option<PathBuf>,
    /// Per-user daily rate-limit token budget, or `None` for no rate limit.
    pub token_budget: Option<u32>,
    /// A `cdnd` node that is down from the start.
    pub down_node: Option<usize>,
    /// Whether to put timing shims around every mixer, CDN node and client
    /// transport.
    pub shims: bool,
}

/// A client's connection: everything goes to alpenhornd over one TCP
/// connection except mailbox fetches, which go to the `cdnd` fleet.
pub struct Net(Box<dyn Transport + Send>);

impl Transport for Net {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        self.0.call(request)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.0.reset()
    }
}

/// A running deployment.
pub struct Topology {
    coordinator: ServerHandle,
    // Mix daemons have no shutdown; their connections end when the
    // coordinator's cluster is dropped.
    _mixds: Vec<MixdHandle>,
    cdnds: Vec<CdnNodeHandle>,
    data_dir: Option<PathBuf>,
    shims: bool,
}

impl Topology {
    /// Boots every daemon and wires the coordinator to them.
    pub fn boot(shape: &Shape) -> Result<Topology, String> {
        let config = shape.config.clone();
        let mixds = (0..config.num_mix_servers)
            .map(|i| mixd_serve(MixdServer::new(config.seed, i), "127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("mixd bind: {e}"))?;
        let cdnds = (0..CDN_NODES)
            .map(|_| cdn_serve(CdnNodeState::new(), "127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cdnd bind: {e}"))?;
        if let Some(down) = shape.down_node {
            cdnds[down].shutdown();
        }

        let shims = shape.shims;
        let mixer_fleet = || -> Vec<Box<dyn Mixer>> {
            mixds
                .iter()
                .enumerate()
                .map(|(hop, h)| {
                    let remote: Box<dyn Mixer> =
                        Box::new(RemoteMixer::new(h.local_addr().to_string()));
                    if shims {
                        Box::new(TracedMixer::new(remote, hop)) as Box<dyn Mixer>
                    } else {
                        remote
                    }
                })
                .collect()
        };
        let mut cluster = Cluster::new(config.clone());
        cluster.connect_remote_mixers(mixer_fleet(), mixer_fleet());
        cluster.connect_cdn_nodes(
            node_fleet(&cdnds, shims.then_some(NodeSide::Coordinator)),
            DATA_SHARDS,
            PARITY_SHARDS,
        );
        let service_config = ServiceConfig {
            rate_limit: shape
                .token_budget
                .map(|budget_per_day| RateLimitPolicy { budget_per_day }),
        };
        let service = match &shape.data_dir {
            None => CoordinatorService::with_config(cluster, service_config),
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("data dir {}: {e}", dir.display()))?;
                CoordinatorService::with_storage(
                    cluster,
                    service_config,
                    dir,
                    StorageConfig {
                        sync_every: DURABLE_SYNC_EVERY,
                        ..StorageConfig::default()
                    },
                )
                .map_err(|e| format!("durable coordinator: {e}"))?
                .0
            }
        };
        let coordinator = coordinator_serve(service, "127.0.0.1:0")
            .map_err(|e| format!("alpenhornd bind: {e}"))?;
        Ok(Topology {
            coordinator,
            _mixds: mixds,
            cdnds,
            data_dir: shape.data_dir.clone(),
            shims,
        })
    }

    /// A fresh client connection with its own CDN fleet handles.
    pub fn client_net(&self) -> Result<Net, String> {
        let tcp = TcpTransport::connect(self.coordinator.local_addr())
            .map_err(|e| format!("connect to alpenhornd: {e}"))?;
        let fleet = Arc::new(ShardedCdn::new(
            node_fleet(&self.cdnds, self.shims.then_some(NodeSide::Client)),
            DATA_SHARDS,
            PARITY_SHARDS,
        ));
        Ok(Net(if self.shims {
            Box::new(TracedTransport::new(
                CdnRoutedTransport::new(TracedTransport::new(tcp, Position::Inner), fleet),
                Position::Outer,
            ))
        } else {
            Box::new(CdnRoutedTransport::new(tcp, fleet))
        }))
    }

    /// The coordinator's data directory, for a durable deployment.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.data_dir.as_deref()
    }

    /// Stops every daemon that can be stopped and deletes the data
    /// directory. Drop every [`Net`] first: alpenhornd's connection readers
    /// end when their peers disconnect.
    pub fn shutdown(self) {
        self.coordinator.shutdown();
        for node in &self.cdnds {
            node.shutdown();
        }
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn node_fleet(cdnds: &[CdnNodeHandle], shim: Option<NodeSide>) -> Vec<Box<dyn NodeClient>> {
    cdnds
        .iter()
        .map(|h| {
            let node: Box<dyn NodeClient> = Box::new(TcpNode::new(h.local_addr().to_string()));
            match shim {
                Some(side) => Box::new(TracedNode::new(node, side)) as Box<dyn NodeClient>,
                None => node,
            }
        })
        .collect()
}

/// Total size of the regular files under `dir`, recursively (0 if absent).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
