//! Real TCP transport on tokio.
//!
//! Wire format: each connection carries length-prefixed frames
//! ([`curp_proto::frame`]) containing [`RpcEnvelope`]s. Requests and
//! responses are multiplexed on one connection per peer pair and correlated
//! by `corr_id`, so many RPCs can be in flight concurrently — a CURP client
//! issues its master update and witness records in parallel over independent
//! connections.
//!
//! Topology: every server binds a [`TcpServer`]; a [`TcpRouter`] maps logical
//! [`ServerId`]s to socket addresses and lends out [`RpcClient`] handles that
//! lazily open (and cache) one connection per destination.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use curp_proto::frame::{write_frame, write_frame_encoded, FrameDecoder};
use curp_proto::lockrank;
use curp_proto::message::{Request, Response, RpcEnvelope};
use curp_proto::types::ServerId;
use curp_proto::wire::{Decode, Encode};
use parking_lot::Mutex;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, oneshot};

use crate::error::RpcError;
use crate::rpc::{call_batched, dispatch, BoxFuture, RpcClient, SharedHandler};

/// Default per-RPC deadline for the TCP transport.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// A running TCP RPC server.
///
/// Dropping the handle does not stop the accept loop; call
/// [`shutdown`](TcpServer::shutdown) for a clean stop (used by the crash
/// tests and examples).
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Option<oneshot::Sender<()>>,
}

impl TcpServer {
    /// Binds `addr` and serves `handler` until shut down.
    ///
    /// `id` is the logical identity this server reports as the *source* of
    /// responses; the handler receives the peer's claimed id from the
    /// envelope-carrying connection (first frame of each connection is a
    /// hello frame carrying the peer's [`ServerId`]).
    pub async fn bind(addr: SocketAddr, handler: SharedHandler) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr).await?;
        let local_addr = listener.local_addr()?;
        let (tx, mut rx) = oneshot::channel();
        tokio::spawn(async move {
            loop {
                tokio::select! {
                    _ = &mut rx => break,
                    accepted = listener.accept() => {
                        let Ok((stream, _peer)) = accepted else { break };
                        let handler = Arc::clone(&handler);
                        tokio::spawn(async move {
                            let _ = serve_connection(stream, handler).await;
                        });
                    }
                }
            }
        });
        Ok(TcpServer { local_addr, shutdown: Some(tx) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting new connections. In-flight connections finish their
    /// current requests and then error out.
    pub fn shutdown(mut self) {
        if let Some(tx) = self.shutdown.take() {
            let _ = tx.send(());
        }
    }
}

async fn serve_connection(stream: TcpStream, handler: SharedHandler) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let (mut rd, wr) = stream.into_split();
    // The write half shares one persistent encode buffer: every response
    // frame is encoded into it under the write lock and the buffer's
    // capacity is reused across the connection's lifetime (no fresh
    // `BytesMut` per outbound frame).
    let wr = Arc::new(tokio::sync::Mutex::new((wr, BytesMut::new())));
    let mut decoder = FrameDecoder::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    // First frame identifies the peer.
    let mut peer_id: Option<ServerId> = None;
    loop {
        let n = rd.read(&mut read_buf).await?;
        if n == 0 {
            return Ok(());
        }
        decoder.push(&read_buf[..n]);
        while let Some(frame) =
            decoder.next_frame().map_err(|e| std::io::Error::other(e.to_string()))?
        {
            let Some(from) = peer_id else {
                // Hello frame: 8-byte peer id.
                let id = ServerId::from_bytes(&frame)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                peer_id = Some(id);
                continue;
            };
            // Zero-copy decode chain: the envelope's payload windows into
            // the frame, and the request's keys/values window into the
            // payload — one allocation (the read buffer) per frame.
            let env = RpcEnvelope::from_bytes_shared(frame)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            if env.is_response {
                // Servers only receive requests on inbound connections.
                continue;
            }
            let corr_id = env.corr_id;
            let req = match Request::from_bytes_shared(env.payload) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let handler = Arc::clone(&handler);
            let wr = Arc::clone(&wr);
            tokio::spawn(async move {
                // A batch frame comes back as ONE reply envelope (one write).
                let rsp = dispatch(&handler, from, req).await;
                let reply = RpcEnvelope { corr_id, is_response: true, payload: rsp.to_bytes() };
                let mut guard = wr.lock().await;
                let (wr, buf) = &mut *guard;
                buf.clear();
                write_frame_encoded(&reply, buf);
                let _ = wr.write_all(buf).await;
                // One oversized response (snapshot transfer) must not pin
                // its capacity for the connection's lifetime.
                if buf.capacity() > 1024 * 1024 {
                    *buf = BytesMut::new();
                }
            });
        }
    }
}

type Pending = Arc<Mutex<HashMap<u64, oneshot::Sender<Response>>>>;

struct Connection {
    tx: mpsc::UnboundedSender<RpcEnvelope>,
    pending: Pending,
}

struct RouterInner {
    self_id: ServerId,
    routes: Mutex<HashMap<ServerId, SocketAddr>>,
    conns: tokio::sync::Mutex<HashMap<ServerId, Arc<Connection>>>,
    next_corr: AtomicU64,
    timeout: Duration,
}

/// Maps logical server ids to socket addresses and issues RPC clients.
#[derive(Clone)]
pub struct TcpRouter {
    inner: Arc<RouterInner>,
}

impl TcpRouter {
    /// Creates a router that identifies itself as `self_id` to peers.
    pub fn new(self_id: ServerId) -> Self {
        TcpRouter {
            inner: Arc::new(RouterInner {
                self_id,
                routes: Mutex::ranked(lockrank::TCP_ROUTES, "transport.tcp.routes", HashMap::new()),
                conns: tokio::sync::Mutex::new(HashMap::new()),
                next_corr: AtomicU64::new(1),
                timeout: DEFAULT_RPC_TIMEOUT,
            }),
        }
    }

    /// Registers the address of a logical server.
    pub fn add_route(&self, id: ServerId, addr: SocketAddr) {
        self.inner.routes.lock().insert(id, addr);
    }

    /// Returns an [`RpcClient`] that dials through this router.
    pub fn client(&self) -> Arc<dyn RpcClient> {
        Arc::new(self.clone())
    }

    async fn connection(&self, to: ServerId) -> Result<Arc<Connection>, RpcError> {
        let mut conns = self.inner.conns.lock().await;
        if let Some(c) = conns.get(&to) {
            if !c.tx.is_closed() {
                return Ok(Arc::clone(c));
            }
            conns.remove(&to);
        }
        let addr =
            self.inner.routes.lock().get(&to).copied().ok_or(RpcError::Unreachable { to })?;
        let stream = TcpStream::connect(addr).await.map_err(|_| RpcError::Unreachable { to })?;
        stream.set_nodelay(true).ok();
        let (mut rd, mut wr) = stream.into_split();
        let pending: Pending =
            Arc::new(Mutex::ranked(lockrank::TCP_PENDING, "transport.tcp.pending", HashMap::new()));

        // Writer task: owns one persistent encode buffer for the life of
        // the connection — envelopes are framed into it in place (no fresh
        // `BytesMut` per outbound frame) and queued envelopes coalesce into
        // a single write. The hello frame identifying this peer is staged
        // in the buffer up front and rides out with the first payload
        // write: one packet instead of two under TCP_NODELAY.
        let (tx, mut rx) = mpsc::unbounded_channel::<RpcEnvelope>();
        let self_id = self.inner.self_id;
        tokio::spawn(async move {
            // Cap how much backlog one write coalesces (a slow peer can
            // queue arbitrarily much), and release capacity after a burst
            // so one multi-megabyte sync doesn't pin its high-water
            // allocation for the connection's lifetime.
            const COALESCE_LIMIT: usize = 256 * 1024;
            const RETAIN_LIMIT: usize = 1024 * 1024;
            let mut buf = BytesMut::new();
            write_frame(&self_id.to_bytes(), &mut buf);
            while let Some(env) = rx.recv().await {
                write_frame_encoded(&env, &mut buf);
                // Coalesce whatever else is already queued, up to the cap.
                while buf.len() < COALESCE_LIMIT {
                    let Ok(next) = rx.try_recv() else { break };
                    write_frame_encoded(&next, &mut buf);
                }
                if wr.write_all(&buf).await.is_err() {
                    break;
                }
                buf.clear();
                if buf.capacity() > RETAIN_LIMIT {
                    buf = BytesMut::new();
                }
            }
        });

        // Reader task: correlate responses.
        let pending_rd = Arc::clone(&pending);
        tokio::spawn(async move {
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            while let Ok(n) = rd.read(&mut buf).await {
                if n == 0 {
                    break;
                }
                decoder.push(&buf[..n]);
                loop {
                    let frame = match decoder.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(_) => return,
                    };
                    let Ok(env) = RpcEnvelope::from_bytes_shared(frame) else { continue };
                    if !env.is_response {
                        continue;
                    }
                    let Ok(rsp) = Response::from_bytes_shared(env.payload) else { continue };
                    if let Some(waiter) = pending_rd.lock().remove(&env.corr_id) {
                        let _ = waiter.send(rsp);
                    }
                }
            }
            // Connection died: fail all waiters by dropping their senders.
            pending_rd.lock().clear();
        });

        let conn = Arc::new(Connection { tx, pending });
        conns.insert(to, Arc::clone(&conn));
        Ok(conn)
    }

    async fn do_call(self, to: ServerId, req: Request) -> Result<Response, RpcError> {
        let conn = self.connection(to).await?;
        let corr_id = self.inner.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = oneshot::channel();
        conn.pending.lock().insert(corr_id, tx);
        let env = RpcEnvelope { corr_id, is_response: false, payload: req.to_bytes() };
        if conn.tx.send(env).is_err() {
            conn.pending.lock().remove(&corr_id);
            return Err(RpcError::ConnectionReset { to });
        }
        match tokio::time::timeout(self.inner.timeout, rx).await {
            Ok(Ok(rsp)) => Ok(rsp),
            Ok(Err(_)) => Err(RpcError::ConnectionReset { to }),
            Err(_) => {
                conn.pending.lock().remove(&corr_id);
                Err(RpcError::Timeout { to })
            }
        }
    }
}

impl RpcClient for TcpRouter {
    fn call(&self, to: ServerId, req: Request) -> BoxFuture<'static, Result<Response, RpcError>> {
        Box::pin(self.clone().do_call(to, req))
    }

    fn call_batch(
        &self,
        to: ServerId,
        reqs: Vec<Request>,
    ) -> BoxFuture<'static, Result<Vec<Response>, RpcError>> {
        // One Batch frame, one envelope, one writer-task write.
        let router = self.clone();
        Box::pin(call_batched(to, reqs, move |batch| router.do_call(to, batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curp_proto::types::MasterId;

    fn handler() -> SharedHandler {
        Arc::new(|from: ServerId, req: Request| async move {
            match req {
                Request::Sync { .. } => Response::SyncDone,
                Request::RenewLease { client } => Response::Lease {
                    client,
                    // Echo the peer id back so tests can verify the hello frame.
                    ttl_ms: from.0,
                },
                _ => Response::NotOwner,
            }
        })
    }

    #[tokio::test]
    async fn tcp_roundtrip() {
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), handler()).await.unwrap();
        let router = TcpRouter::new(ServerId(77));
        router.add_route(ServerId(1), server.local_addr());
        let client = router.client();
        let rsp = client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.unwrap();
        assert_eq!(rsp, Response::SyncDone);
        server.shutdown();
    }

    #[tokio::test]
    async fn hello_frame_identifies_peer() {
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), handler()).await.unwrap();
        let router = TcpRouter::new(ServerId(42));
        router.add_route(ServerId(1), server.local_addr());
        let rsp = router
            .client()
            .call(ServerId(1), Request::RenewLease { client: curp_proto::types::ClientId(0) })
            .await
            .unwrap();
        assert_eq!(rsp, Response::Lease { client: curp_proto::types::ClientId(0), ttl_ms: 42 });
        server.shutdown();
    }

    #[tokio::test]
    async fn concurrent_calls_multiplex_one_connection() {
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), handler()).await.unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let client = router.client();
        let mut joins = Vec::new();
        for _ in 0..100 {
            let c = Arc::clone(&client);
            joins.push(tokio::spawn(async move {
                c.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await
            }));
        }
        for j in joins {
            assert_eq!(j.await.unwrap().unwrap(), Response::SyncDone);
        }
        server.shutdown();
    }

    #[tokio::test]
    async fn batch_flushes_once_and_demuxes_out_of_order_completions() {
        use curp_proto::types::ClientId;
        use std::sync::atomic::AtomicU64;
        // Earlier requests sleep longer, so inner handlers complete in
        // reverse order; the reply must still be positionally correct.
        let arrivals = Arc::new(AtomicU64::new(0));
        let handler: SharedHandler = Arc::new(move |_from: ServerId, req: Request| {
            let order = arrivals.fetch_add(1, Ordering::Relaxed);
            async move {
                tokio::time::sleep(Duration::from_millis(40u64.saturating_sub(order * 10))).await;
                match req {
                    Request::RenewLease { client } => Response::Lease { client, ttl_ms: order },
                    _ => Response::NotOwner,
                }
            }
        });
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), handler).await.unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let reqs: Vec<Request> =
            (0..4).map(|i| Request::RenewLease { client: ClientId(i) }).collect();
        let rsps = router.client().call_batch(ServerId(1), reqs).await.unwrap();
        for (i, rsp) in rsps.iter().enumerate() {
            assert_eq!(*rsp, Response::Lease { client: ClientId(i as u64), ttl_ms: i as u64 });
        }
        server.shutdown();
    }

    #[tokio::test]
    async fn unknown_route_unreachable() {
        let router = TcpRouter::new(ServerId(7));
        let err = router
            .client()
            .call(ServerId(5), Request::Sync { master_id: MasterId(1) })
            .await
            .unwrap_err();
        assert_eq!(err, RpcError::Unreachable { to: ServerId(5) });
    }

    #[tokio::test]
    async fn reconnects_after_server_restart() {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let server = TcpServer::bind(addr, handler()).await.unwrap();
        let bound = server.local_addr();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), bound);
        let client = router.client();
        assert!(client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_ok());
        server.shutdown();
        // Give the OS a moment to tear down, then restart on the same port.
        tokio::time::sleep(Duration::from_millis(50)).await;
        let server2 = TcpServer::bind(bound, handler()).await.unwrap();
        // First call may race the dead connection; retry once.
        let mut ok = false;
        for _ in 0..20 {
            if client.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await.is_ok() {
                ok = true;
                break;
            }
            tokio::time::sleep(Duration::from_millis(20)).await;
        }
        assert!(ok, "client never reconnected");
        server2.shutdown();
    }
}
