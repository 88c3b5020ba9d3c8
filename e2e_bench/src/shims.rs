//! Timing shims around the three public trait objects the system is built
//! from: the client's [`Transport`], the CDN [`NodeClient`], and the
//! coordinator's [`Mixer`]. Each forwards every call unchanged and, while
//! [`trace::enabled`], records one span per call. Client-side download bytes
//! are counted whether or not spans are recorded, because the untraced run
//! reports them.

use std::sync::atomic::{AtomicU64, Ordering};

use alpenhorn::{Transport, TransportError};
use alpenhorn_cdn::{CdnError, NodeClient};
use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixd::{MixdError, Mixer, ProcessedBatch};
use alpenhorn_mixnet::NoiseConfig;
use alpenhorn_wire::{CdnRequest, CdnResponse, Request, Response, Round, RoundKind};

use crate::topology::DATA_SHARDS;
use crate::trace::{self, AdminScope, Outcome};

/// Mailbox bytes clients have downloaded, from CDN shards or the origin.
static DOWN_BYTES: AtomicU64 = AtomicU64::new(0);

/// Mailbox bytes downloaded by clients since the last call.
pub fn take_down_bytes() -> u64 {
    DOWN_BYTES.swap(0, Ordering::SeqCst)
}

/// Which side of `CdnRoutedTransport` a [`TracedTransport`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    /// Wraps the routed transport: sees every client call, and times mailbox
    /// fetches including shard reassembly.
    Outer,
    /// Wraps the TCP connection to alpenhornd: sees only what reaches the
    /// coordinator.
    Inner,
}

/// A [`Transport`] that records one span per call.
pub struct TracedTransport<T> {
    inner: T,
    position: Position,
}

impl<T> TracedTransport<T> {
    /// Wraps `inner` at `position`.
    pub fn new(inner: T, position: Position) -> Self {
        TracedTransport { inner, position }
    }
}

fn is_fetch(request: &Request) -> bool {
    matches!(
        request,
        Request::FetchAddFriendMailbox { .. } | Request::FetchDialingMailbox { .. }
    )
}

/// The span name of a call, by where it was seen.
fn span_name(request: &Request, position: Position) -> &'static str {
    match position {
        Position::Outer if is_fetch(request) => "cdn.fetch",
        Position::Outer => "client.rpc",
        Position::Inner => match request {
            Request::Register { .. } | Request::CompleteRegistration { .. } => {
                "coordinator.register"
            }
            Request::GetAddFriendRoundInfo | Request::GetDialingRoundInfo => {
                "coordinator.round_info"
            }
            Request::ExtractIdentityKeys { .. } => "pkg.extract",
            Request::IssueRateLimitToken { .. } => "coordinator.issue_token",
            Request::SubmitAddFriend { .. } | Request::SubmitDialing { .. } => "coordinator.submit",
            Request::FetchAddFriendMailbox { .. } | Request::FetchDialingMailbox { .. } => {
                "coordinator.origin_fetch"
            }
            Request::BeginAddFriendRound { .. } | Request::BeginDialingRound { .. } => {
                "coordinator.begin"
            }
            Request::CloseAddFriendRound { .. } | Request::CloseDialingRound { .. } => {
                "coordinator.close"
            }
            _ => "coordinator.other",
        },
    }
}

fn mailbox_bytes(response: &Response) -> u64 {
    match response {
        Response::AddFriendMailbox { contents } => contents.iter().map(|c| c.len() as u64).sum(),
        Response::DialingMailbox { filter } => filter.len() as u64,
        _ => 0,
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        let position = self.position;
        let name = span_name(&request, position);
        let origin_fetch = position == Position::Inner && is_fetch(&request);
        let admin = matches!(name, "coordinator.begin" | "coordinator.close");
        let inner = &mut self.inner;
        let result = trace::in_span(
            name,
            || {
                let _scope = admin.then(AdminScope::open);
                inner.call(request)
            },
            |r| Outcome {
                bytes: r.as_ref().map(mailbox_bytes).unwrap_or(0),
                failed: !matches!(r, Ok(response) if !matches!(response, Response::Error(_))),
            },
        );
        if origin_fetch {
            if let Ok(response) = &result {
                DOWN_BYTES.fetch_add(mailbox_bytes(response), Ordering::Relaxed);
            }
        }
        result
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

/// Which end of the CDN a [`TracedNode`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSide {
    /// A client's handle, inside its `ShardedCdn` reader.
    Client,
    /// The coordinator's publishing handle.
    Coordinator,
}

/// A [`NodeClient`] that records one span per call.
pub struct TracedNode {
    inner: Box<dyn NodeClient>,
    side: NodeSide,
}

impl TracedNode {
    /// Wraps `inner` for `side`.
    pub fn new(inner: Box<dyn NodeClient>, side: NodeSide) -> Self {
        TracedNode { inner, side }
    }
}

fn shard_outcome(request: &CdnRequest, result: &Result<CdnResponse, CdnError>) -> Outcome {
    let bytes = match (request, result) {
        (_, Ok(CdnResponse::Shard { shard, .. })) => shard.len() as u64,
        (CdnRequest::PutShard { shard, .. }, Ok(_)) => shard.len() as u64,
        _ => 0,
    };
    Outcome {
        bytes,
        failed: result.is_err(),
    }
}

impl NodeClient for TracedNode {
    fn call(&mut self, request: &CdnRequest) -> Result<CdnResponse, CdnError> {
        let inner = &mut self.inner;
        match self.side {
            NodeSide::Client => {
                let name = match request {
                    CdnRequest::GetShard { index, .. } if usize::from(*index) >= DATA_SHARDS => {
                        "cdn.get_parity"
                    }
                    CdnRequest::GetShard { .. } => "cdn.get_shard",
                    _ => "cdn.client_other",
                };
                let result =
                    trace::in_span(name, || inner.call(request), |r| shard_outcome(request, r));
                if let Ok(CdnResponse::Shard { shard, .. }) = &result {
                    DOWN_BYTES.fetch_add(shard.len() as u64, Ordering::Relaxed);
                }
                result
            }
            NodeSide::Coordinator => {
                let name = match request {
                    CdnRequest::PutShard { .. } => "cdn.put_shard",
                    _ => "cdn.coordinator_other",
                };
                trace::in_server_span(name, || inner.call(request), |r| shard_outcome(request, r))
            }
        }
    }

    fn disconnect(&mut self) {
        self.inner.disconnect()
    }
}

/// Span names per chain position: `(begin, process, end)`.
pub const HOP_NAMES: [(&str, &str, &str); 3] = [
    ("mixd.h0.begin", "mixd.h0.process", "mixd.h0.end"),
    ("mixd.h1.begin", "mixd.h1.process", "mixd.h1.end"),
    ("mixd.h2.begin", "mixd.h2.process", "mixd.h2.end"),
];

/// A [`Mixer`] that records one span per call.
pub struct TracedMixer {
    inner: Box<dyn Mixer>,
    names: (&'static str, &'static str, &'static str),
}

impl TracedMixer {
    /// Wraps the handle to chain position `hop` (0-based, below 3).
    pub fn new(inner: Box<dyn Mixer>, hop: usize) -> Self {
        TracedMixer {
            inner,
            names: HOP_NAMES[hop],
        }
    }
}

fn mix_outcome<T>(result: &Result<T, MixdError>, bytes: u64) -> Outcome {
    Outcome {
        bytes,
        failed: result.is_err(),
    }
}

impl Mixer for TracedMixer {
    fn begin_round(&mut self, protocol: RoundKind, round: Round) -> Result<DhPublic, MixdError> {
        let inner = &mut self.inner;
        trace::in_server_span(
            self.names.0,
            || inner.begin_round(protocol, round),
            |r| mix_outcome(r, 0),
        )
    }

    fn process(
        &mut self,
        protocol: RoundKind,
        round: Round,
        num_mailboxes: u32,
        noise: &NoiseConfig,
        downstream: &[DhPublic],
        batch: Vec<Vec<u8>>,
    ) -> Result<ProcessedBatch, MixdError> {
        let bytes_in: u64 = batch.iter().map(|m| m.len() as u64).sum();
        let inner = &mut self.inner;
        trace::in_server_span(
            self.names.1,
            || inner.process(protocol, round, num_mailboxes, noise, downstream, batch),
            |r| mix_outcome(r, bytes_in),
        )
    }

    fn end_round(&mut self, protocol: RoundKind, round: Round) -> Result<(), MixdError> {
        let inner = &mut self.inner;
        trace::in_server_span(
            self.names.2,
            || inner.end_round(protocol, round),
            |r| mix_outcome(r, 0),
        )
    }

    fn disconnect(&mut self) {
        self.inner.disconnect()
    }
}
