//! The transport-agnostic RPC interface.
//!
//! The protocol crates depend on these two traits only. Handlers are
//! `Arc`-shared, object-safe, and return boxed futures so that both the
//! in-memory simulator and the TCP transport can drive them.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use curp_proto::message::{Request, Response};
use curp_proto::types::ServerId;

use crate::error::RpcError;

/// A boxed, sendable future — the return type of object-safe async traits.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// Drives a set of futures concurrently and collects their outputs in input
/// order (a minimal `futures::future::join_all`).
pub async fn join_all<F, T>(futs: impl IntoIterator<Item = F>) -> Vec<T>
where
    F: Future<Output = T> + Send + 'static,
    T: Send + 'static,
{
    let handles: Vec<_> = futs.into_iter().map(tokio::spawn).collect();
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await.expect("joined task panicked"));
    }
    out
}

/// Server side of a [`Request::Batch`] frame, shared by every transport:
/// the inner requests are handled independently and concurrently, and the
/// one [`Response::Batch`] reply stays in request order however the
/// handlers' completions interleave. Any other request goes straight to the
/// handler.
pub(crate) async fn dispatch(handler: &SharedHandler, from: ServerId, req: Request) -> Response {
    match req {
        Request::Batch { requests } => {
            let futs: Vec<_> = requests.into_iter().map(|r| handler.handle(from, r)).collect();
            Response::Batch { responses: join_all(futs).await }
        }
        req => handler.handle(from, req).await,
    }
}

/// Client side of a batch, shared by every transport that overrides
/// [`RpcClient::call_batch`]: `reqs` travel as ONE [`Request::Batch`]
/// message through the transport's own `call`, and the single reply is
/// unwrapped after checking it answers every request —
/// [`RpcError::BatchMismatch`] otherwise. An empty batch never reaches
/// `call`.
pub(crate) async fn call_batched<Fut>(
    to: ServerId,
    reqs: Vec<Request>,
    call: impl FnOnce(Request) -> Fut,
) -> Result<Vec<Response>, RpcError>
where
    Fut: Future<Output = Result<Response, RpcError>>,
{
    if reqs.is_empty() {
        return Ok(Vec::new());
    }
    let n = reqs.len();
    match call(Request::Batch { requests: reqs }).await? {
        Response::Batch { responses } if responses.len() == n => Ok(responses),
        _ => Err(RpcError::BatchMismatch { to }),
    }
}

/// Client half: issue a request to a server and await its response.
pub trait RpcClient: Send + Sync + 'static {
    /// Sends `req` to `to` and resolves with its response.
    ///
    /// Implementations must be safe to call concurrently from many tasks;
    /// CURP clients deliberately issue the master update and all witness
    /// records in parallel (§3.2.1).
    fn call(&self, to: ServerId, req: Request) -> BoxFuture<'static, Result<Response, RpcError>>;

    /// Sends a batch of independent requests to `to` and resolves with the
    /// positionally matched responses (`responses[i]` answers `reqs[i]`).
    ///
    /// Transports that understand [`Request::Batch`] override this with the
    /// crate's shared `call_batched` wrapper (one message out, one
    /// count-checked [`Response::Batch`] back); the default implementation
    /// issues the calls individually but concurrently, so any `RpcClient` is
    /// batchable. An empty batch resolves to an empty vector without
    /// touching the network. On `Ok`, the response count always equals the
    /// request count.
    fn call_batch(
        &self,
        to: ServerId,
        reqs: Vec<Request>,
    ) -> BoxFuture<'static, Result<Vec<Response>, RpcError>> {
        let futs: Vec<_> = reqs.into_iter().map(|r| self.call(to, r)).collect();
        Box::pin(async move { join_all(futs).await.into_iter().collect() })
    }
}

/// Server half: handle one request.
pub trait RpcHandler: Send + Sync + 'static {
    /// Processes `req` from `from` and produces a response.
    fn handle(&self, from: ServerId, req: Request) -> BoxFuture<'static, Response>;
}

/// Blanket impl so plain async closures can serve as handlers in tests.
impl<F, Fut> RpcHandler for F
where
    F: Fn(ServerId, Request) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = Response> + Send + 'static,
{
    fn handle(&self, from: ServerId, req: Request) -> BoxFuture<'static, Response> {
        Box::pin(self(from, req))
    }
}

/// An [`RpcClient`] that is shared behind an `Arc`.
pub type SharedClient = Arc<dyn RpcClient>;

/// An [`RpcHandler`] that is shared behind an `Arc`.
pub type SharedHandler = Arc<dyn RpcHandler>;

impl RpcClient for Arc<dyn RpcClient> {
    fn call(&self, to: ServerId, req: Request) -> BoxFuture<'static, Result<Response, RpcError>> {
        (**self).call(to, req)
    }

    fn call_batch(
        &self,
        to: ServerId,
        reqs: Vec<Request>,
    ) -> BoxFuture<'static, Result<Vec<Response>, RpcError>> {
        // Forward explicitly so the inner transport's batched fast path is
        // reached through `Arc<dyn RpcClient>` too (the default method would
        // otherwise silently fall back to one-call-per-request).
        (**self).call_batch(to, reqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curp_proto::types::MasterId;

    #[tokio::test]
    async fn closures_are_handlers() {
        let h: SharedHandler = Arc::new(|_from: ServerId, req: Request| async move {
            match req {
                Request::Sync { .. } => Response::SyncDone,
                _ => Response::NotOwner,
            }
        });
        assert_eq!(
            h.handle(ServerId(1), Request::Sync { master_id: MasterId(1) }).await,
            Response::SyncDone
        );
        assert_eq!(h.handle(ServerId(1), Request::GetConfig).await, Response::NotOwner);
    }
}
