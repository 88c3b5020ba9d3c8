//! One server contract, checked against all three daemons.
//!
//! alpenhornd, mixd and cdnd run the same framed TCP loop
//! (`alpenhorn_wire::server`) with their own protocol's replies. For each
//! daemon, [`check_contract`] asserts that
//!
//! * a connection over the cap gets that protocol's typed refusal, then a
//!   close;
//! * an undecodable frame gets that protocol's typed error, then a close;
//! * `shutdown` drops an open connection at its next frame with no reply,
//!   and refuses new connections.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use alpenhorn_cdn::CdnNodeState;
use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_mixd::MixdServer;
use alpenhorn_wire::{
    CdnRequest, CdnResponse, Frame, MixerRequest, MixerResponse, Request, Response, Round,
    RoundKind, RpcError, ServerConfig, ServerHandle,
};

const RETRY_AFTER_MS: u32 = 7;

/// One served daemon plus how to read its protocol's replies.
struct Daemon {
    name: &'static str,
    handle: ServerHandle,
    /// A well-formed request payload.
    request: Vec<u8>,
    /// Whether a reply payload is the protocol's over-the-cap refusal.
    is_refusal: fn(&[u8]) -> bool,
    /// Whether a reply payload is the protocol's undecodable-frame error.
    is_bad_frame: fn(&[u8]) -> bool,
}

fn config() -> ServerConfig {
    ServerConfig {
        max_connections: 1,
        shed_retry_after_ms: RETRY_AFTER_MS,
        ..ServerConfig::default()
    }
}

fn mixer_error(reply: &[u8], needle: &str) -> bool {
    matches!(MixerResponse::decode(reply), Ok(MixerResponse::Error(d)) if d.contains(needle))
}

fn cdn_error(reply: &[u8], needle: &str) -> bool {
    matches!(CdnResponse::decode(reply), Ok(CdnResponse::Error(d)) if d.contains(needle))
}

fn daemons() -> Vec<Daemon> {
    let coordinator = CoordinatorService::new(Cluster::new(ClusterConfig::test(95)));
    vec![
        Daemon {
            name: "alpenhornd",
            handle: alpenhorn_coordinator::server::serve_with_config(
                coordinator,
                "127.0.0.1:0",
                config(),
            )
            .unwrap(),
            request: Request::GetPkgKeys.encode(),
            is_refusal: |reply| {
                matches!(
                    Response::decode(reply),
                    Ok(Response::Error(RpcError::Unavailable {
                        retry_after_ms: RETRY_AFTER_MS,
                        ..
                    }))
                )
            },
            is_bad_frame: |reply| {
                matches!(
                    Response::decode(reply),
                    Ok(Response::Error(RpcError::BadRequest { .. }))
                )
            },
        },
        Daemon {
            name: "mixd",
            handle: alpenhorn_mixd::serve_with_config(
                MixdServer::new([95; 32], 0),
                "127.0.0.1:0",
                config(),
            )
            .unwrap(),
            request: MixerRequest::BeginRound {
                protocol: RoundKind::AddFriend,
                round: Round(1),
            }
            .encode(),
            is_refusal: |reply| mixer_error(reply, "capacity"),
            is_bad_frame: |reply| mixer_error(reply, "undecodable frame"),
        },
        Daemon {
            name: "cdnd",
            handle: alpenhorn_cdn::serve_with_config(CdnNodeState::new(), "127.0.0.1:0", config())
                .unwrap(),
            request: CdnRequest::GetStats.encode(),
            is_refusal: |reply| cdn_error(reply, "capacity"),
            is_bad_frame: |reply| cdn_error(reply, "undecodable frame"),
        },
    ]
}

fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Option<Vec<u8>> {
    Frame::write_to(stream, payload).ok()?;
    Frame::read_from(stream).ok()
}

fn assert_closed(stream: &mut TcpStream, name: &str, after: &str) {
    assert!(
        Frame::read_from(stream).is_err(),
        "{name}: connection still open after {after}"
    );
}

/// A connection that got a real answer, retrying while the one slot is
/// still held by a connection the server has not yet reaped.
fn served_connection(daemon: &Daemon, addr: SocketAddr) -> TcpStream {
    for _ in 0..500 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match exchange(&mut stream, &daemon.request) {
            Some(reply) if !(daemon.is_refusal)(&reply) => return stream,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("{}: the connection slot never freed", daemon.name);
}

fn check_contract(daemon: Daemon) {
    let name = daemon.name;
    let addr = daemon.handle.local_addr();

    // Hold the single slot; the next connection is refused, typed.
    let mut first = served_connection(&daemon, addr);
    let mut over = TcpStream::connect(addr).unwrap();
    let refusal = Frame::read_from(&mut over).expect("refusal arrives");
    assert!((daemon.is_refusal)(&refusal), "{name}: untyped refusal");
    assert_closed(&mut over, name, "the refusal");

    // Exactly one header's worth of junk (nothing left unread): a typed
    // error, then a close.
    first.write_all(b"XXjunk!").unwrap();
    let reply = Frame::read_from(&mut first).expect("bad-frame reply arrives");
    assert!(
        (daemon.is_bad_frame)(&reply),
        "{name}: untyped bad-frame reply"
    );
    assert_closed(&mut first, name, "a bad frame");

    // Shutdown: the open connection's next frame goes unanswered, and the
    // listener is gone.
    let mut open = served_connection(&daemon, addr);
    daemon.handle.shutdown();
    assert_eq!(
        exchange(&mut open, &daemon.request),
        None,
        "{name}: answered after shutdown"
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "{name}: accepts after shutdown"
    );
}

#[test]
fn every_daemon_sheds_rejects_bad_frames_and_shuts_down_alike() {
    for daemon in daemons() {
        check_contract(daemon);
    }
}
