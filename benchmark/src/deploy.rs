//! The system under test, spawned in-process through the crates' public
//! entry points: one `fmml-serve` node, or a router in front of two.

use crate::catalog::{Route, RING_SEED};
use fmml_cluster::{RouterConfig, RouterHandle};
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_serve::protocol::Frame;
use fmml_serve::{ServerConfig, ServerHandle, TcpConnector, WireCodec};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

pub struct Deployment {
    pub route: Route,
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle<TcpStream, TcpConnector>>,
}

/// Server-side counters, summed over the deployment's nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    pub replies: u64,
    pub batches: u64,
    pub busy: u64,
    pub violations: u64,
    /// Lookups and hits of the nodes' shared solution caches.
    pub cache_lookups: u64,
    pub cache_hits: u64,
    /// Largest share of the replies any one node produced.
    pub backend_share_max: f64,
    pub migrations: u64,
}

fn node_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        wire: WireCodec::Bin1,
        ..ServerConfig::default()
    }
}

impl Deployment {
    pub fn spawn(model: &Arc<TransformerImputer>, route: Route) -> Deployment {
        match route {
            Route::Direct => Deployment {
                route,
                servers: vec![fmml_serve::spawn(Arc::clone(model), node_config(2))
                    .expect("spawn fmml-serve on loopback")],
                router: None,
            },
            Route::Cluster => {
                let router = fmml_cluster::spawn(RouterConfig {
                    ring_seed: RING_SEED,
                    wire: WireCodec::Bin1,
                    ..RouterConfig::default()
                })
                .expect("spawn fmml-cluster router on loopback");
                // Same worker total as the direct node, one per shard.
                let servers: Vec<ServerHandle> = (0..2)
                    .map(|_| {
                        fmml_serve::spawn(Arc::clone(model), node_config(1))
                            .expect("spawn backend on loopback")
                    })
                    .collect();
                for (k, s) in servers.iter().enumerate() {
                    router.add_backend(
                        &format!("b{k}"),
                        TcpConnector {
                            addr: s.addr().to_string(),
                        },
                    );
                }
                Deployment {
                    route,
                    servers,
                    router: Some(router),
                }
            }
        }
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.addr(),
            None => self.servers[0].addr(),
        }
    }

    /// Sessions each node has accepted so far, in node order.
    pub fn sessions_per_node(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| match s.stats() {
                Frame::StatsReply { sessions, .. } => sessions,
                _ => 0,
            })
            .collect()
    }

    pub fn stats(&self) -> NodeStats {
        let mut out = NodeStats::default();
        let mut per_node = Vec::new();
        for s in &self.servers {
            if let Frame::StatsReply {
                replies,
                batches,
                rejected,
                violations,
                ..
            } = s.stats()
            {
                out.replies += replies;
                out.batches += batches;
                out.busy += rejected;
                out.violations += violations;
                per_node.push(replies);
            }
            if let Some(cache) = s.cache() {
                let c = cache.stats();
                out.cache_lookups += c.hits + c.misses;
                out.cache_hits += c.hits;
            }
        }
        let max = per_node.iter().copied().max().unwrap_or(0);
        out.backend_share_max = max as f64 / out.replies.max(1) as f64;
        if let Some(r) = &self.router {
            out.migrations = r.cluster_stats().0;
        }
        out
    }

    /// Stop every thread the deployment started and wait for them.
    pub fn shutdown(self) -> NodeStats {
        let stats = self.stats();
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
        stats
    }
}
