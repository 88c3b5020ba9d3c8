//! The TCP server exposing a [`SharedCoordinator`] to the network: the
//! daemon half of the `alpenhornd` deployment.
//!
//! The accept loop, connection cap, shedding, timeouts and shutdown are the
//! shared [`alpenhorn_wire::server`] loop; this module supplies the RPC
//! protocol's replies. Each connection's requests run inline on its own
//! thread through [`SharedCoordinator::handle_request_bytes`]: read-mostly
//! RPCs are served from the lock-free snapshot, submissions hit only an
//! intake shard and a verifier stripe, and exclusive RPCs serialize on the
//! service write lock, so connections run in parallel without a dispatch
//! queue in between. A shed connection gets a retryable
//! [`RpcError::Unavailable`] with the retry-after hint; an undecodable frame
//! gets [`RpcError::BadRequest`] and the connection is dropped.

use std::net::ToSocketAddrs;

use alpenhorn_wire::{Response, RpcError, Service, WireError};

pub use alpenhorn_wire::server::{ServerConfig, ServerHandle};

use crate::service::CoordinatorService;
use crate::shared::SharedCoordinator;

impl Service for SharedCoordinator {
    const NAME: &'static str = "coordinator";

    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self.handle_request_bytes(request)
    }

    fn shed_reply(&self, retry_after_ms: u32) -> Vec<u8> {
        Response::Error(RpcError::Unavailable {
            detail: "server at connection capacity; retry shortly".to_string(),
            retry_after_ms,
        })
        .encode()
    }

    fn bad_frame_reply(&self, error: &WireError) -> Vec<u8> {
        Response::Error(RpcError::BadRequest {
            detail: format!("undecodable frame: {error}"),
        })
        .encode()
    }
}

/// Serves `service` on `addr` (use port 0 for an ephemeral port), returning
/// once the listener is bound and accepting.
pub fn serve(
    service: CoordinatorService,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    serve_with_config(service, addr, ServerConfig::default())
}

/// [`serve`] with explicit timeout and shedding configuration.
pub fn serve_with_config(
    service: CoordinatorService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_shared(SharedCoordinator::new(service), addr, config)
}

/// Serves an existing [`SharedCoordinator`] — the entry point when the
/// caller (daemon, tests) also drives rounds through the same handle.
pub fn serve_shared(
    shared: SharedCoordinator,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    alpenhorn_wire::serve(shared, addr, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use alpenhorn_wire::{Frame, Request, Round};
    use std::net::TcpStream;

    fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
        Frame::write_to(stream, &request.encode()).unwrap();
        let payload = Frame::read_from(stream).unwrap();
        Response::decode(&payload).unwrap()
    }

    #[test]
    fn serves_requests_over_tcp() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(70)));
        let handle = serve(service, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        let Response::PkgKeys(keys) = roundtrip(&mut stream, &Request::GetPkgKeys) else {
            panic!("expected PKG keys");
        };
        assert_eq!(keys.len(), 3);

        // Multiple requests on one connection.
        assert!(matches!(
            roundtrip(&mut stream, &Request::GetAddFriendRoundInfo),
            Response::Error(_)
        ));
        handle.shutdown();
    }

    #[test]
    fn undecodable_frame_gets_typed_reply_then_disconnect() {
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(71)));
        let handle = serve(service, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        use std::io::Write as _;
        stream.write_all(b"XXjunk frame").unwrap();
        stream.flush().unwrap();
        let payload = Frame::read_from(&mut stream).unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error(RpcError::BadRequest { .. })
        ));
        handle.shutdown();
    }

    #[test]
    fn concurrent_connections_share_one_deployment() {
        // Many connections at once: all submissions land in the one shared
        // round.
        let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(72)));
        let handle = serve_with_config(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let onion_len = {
            let mut admin = TcpStream::connect(addr).unwrap();
            let Response::AddFriendRoundInfo(info) = roundtrip(
                &mut admin,
                &Request::BeginAddFriendRound {
                    round: Round(1),
                    expected_real: 8,
                },
            ) else {
                panic!("round opens");
            };
            info.onion_len as usize
        };

        let submitters: Vec<_> = (0..8u8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut onion = vec![0u8; onion_len];
                    onion[0] = i + 1;
                    assert_eq!(
                        roundtrip(
                            &mut stream,
                            &Request::SubmitAddFriend {
                                round: Round(1),
                                onion,
                                token: None,
                            },
                        ),
                        Response::Ack
                    );
                })
            })
            .collect();
        for t in submitters {
            t.join().unwrap();
        }

        let mut admin = TcpStream::connect(addr).unwrap();
        let Response::RoundClosed(stats) = roundtrip(
            &mut admin,
            &Request::CloseAddFriendRound { round: Round(1) },
        ) else {
            panic!("round closes");
        };
        assert_eq!(stats.client_messages, 8);
        handle.shutdown();
    }
}
