//! The one framed TCP server every daemon runs.
//!
//! alpenhornd, mixd and cdnd all answer strict request/reply RPCs carried in
//! [`Frame`]s. [`serve`] is the loop they share; a daemon supplies only a
//! [`Service`]: its payload handler plus its protocol's shed and bad-frame
//! replies.
//!
//! * The **accept loop** admits connections up to
//!   [`ServerConfig::max_connections`]. A connection over the cap gets one
//!   [`Service::shed_reply`] (carrying the retry-after hint) and is closed.
//! * Each admitted connection gets one thread that reads a frame, calls
//!   [`Service::handle`] inline and writes the reply, so per-connection
//!   ordering is the RPC order. Read and write timeouts bound how long a
//!   stalled peer can pin the thread.
//! * An undecodable frame gets [`Service::bad_frame_reply`], then the
//!   connection closes: after a framing error the stream offset can no
//!   longer be trusted.
//! * [`ServerHandle::shutdown`] stops accepting (new connects are refused)
//!   and drops every open connection at its next frame without a reply,
//!   which is what a peer of a killed daemon sees.
//!
//! Each server keeps two metrics, named after [`Service::NAME`]:
//! `{NAME}_connections_active` (gauge) and `{NAME}_connections_shed_total`.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::{Frame, FrameIoError};
use crate::error::WireError;

/// What a daemon plugs into [`serve`].
pub trait Service: Send + Sync + 'static {
    /// Prefix of the server's connection metrics.
    const NAME: &'static str;

    /// Answers one request payload with one reply payload. Undecodable
    /// payloads must get a typed error reply, never a panic.
    fn handle(&self, request: &[u8]) -> Vec<u8>;

    /// The reply a connection over the cap gets before it is closed.
    fn shed_reply(&self, retry_after_ms: u32) -> Vec<u8>;

    /// The reply to an undecodable frame, sent before the connection closes.
    fn bad_frame_reply(&self, error: &WireError) -> Vec<u8>;
}

/// Per-connection timeouts and the overload policy of one [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection waits for its next request frame before it is
    /// dropped. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a blocked reply write may stall before the connection is
    /// dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections. An accept beyond the cap is
    /// shed: the peer gets one [`Service::shed_reply`] and is disconnected.
    pub max_connections: usize,
    /// The retry-after hint (milliseconds) carried in shed replies.
    pub shed_retry_after_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 1024,
            shed_retry_after_ms: 200,
        }
    }
}

/// A handle to a running [`serve`] loop.
///
/// Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound listen address (with the OS-assigned port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the server: the listener closes, so new connects are refused,
    /// and every open connection is dropped at its next frame without a
    /// reply. Returns once the listener is closed. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop so it observes the flag and drops the
        // listener; the wake connection itself is never served.
        if TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1)).is_ok() {
            let thread = self
                .accept_thread
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take();
            if let Some(thread) = thread {
                let _ = thread.join();
            }
        }
    }
}

/// Serves `service` on `addr` (port 0 for an ephemeral port), returning
/// once the listener is bound and accepting.
pub fn serve<S: Service>(
    service: S,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        let registry = alpenhorn_obs::global();
        let active_gauge = registry.gauge(&format!("{}_connections_active", S::NAME), &[]);
        let shed = registry.counter(&format!("{}_connections_shed_total", S::NAME), &[]);
        let service = Arc::new(service);
        let active = Arc::new(AtomicUsize::new(0));
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                return; // drops the listener: connects are now refused
            }
            let Ok(stream) = stream else { continue };
            if active.load(Ordering::SeqCst) >= config.max_connections {
                shed.inc();
                shed_connection(stream, &service.shed_reply(config.shed_retry_after_ms));
                continue;
            }
            active.fetch_add(1, Ordering::SeqCst);
            active_gauge.add(1);
            let (service, active, active_gauge, stop, config) = (
                Arc::clone(&service),
                Arc::clone(&active),
                Arc::clone(&active_gauge),
                Arc::clone(&accept_stop),
                config.clone(),
            );
            std::thread::spawn(move || {
                serve_connection(stream, &*service, &config, &stop);
                active.fetch_sub(1, Ordering::SeqCst);
                active_gauge.sub(1);
            });
        }
    });
    Ok(ServerHandle {
        local_addr,
        stop,
        accept_thread: Mutex::new(Some(accept_thread)),
    })
}

/// Answers one connection over the cap with `reply`, then disconnects.
/// Best-effort: a peer that already hung up just gets dropped.
fn shed_connection(mut stream: TcpStream, reply: &[u8]) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = Frame::write_to(&mut stream, reply);
}

/// Serves one connection until the peer disconnects, stalls past the
/// timeouts, sends an undecodable frame, or the server stops.
fn serve_connection<S: Service>(
    mut stream: TcpStream,
    service: &S,
    config: &ServerConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.read_timeout);
    let _ = stream.set_write_timeout(config.write_timeout);
    loop {
        let reply = match Frame::read_from(&mut stream) {
            Ok(_) if stop.load(Ordering::SeqCst) => return,
            Ok(request) => service.handle(&request),
            // EOF, a timeout, or any other I/O failure ends the connection.
            Err(FrameIoError::Io(_)) => return,
            Err(FrameIoError::Wire(e)) => {
                let _ = Frame::write_to(&mut stream, &service.bad_frame_reply(&e));
                return;
            }
        };
        if Frame::write_to(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// The client half: connects to a daemon at `addr`, trying each resolved
/// address in turn, with Nagle off and `io_timeout` on reads and writes.
pub fn connect(
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> std::io::Result<TcpStream> {
    let mut last = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(io_timeout))?;
                stream.set_write_timeout(Some(io_timeout))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no candidates",
        )
    }))
}
