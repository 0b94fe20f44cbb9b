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
//!
//! Per message, the work is run to completion where it arrives. A server
//! polls each request's handler in the connection's reader and writes the
//! replies of one read burst in one write; only a handler that suspends
//! becomes a task. A client connection holds one deadline timer for all
//! its calls, not one per call.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
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
use tokio::sync::{mpsc, oneshot, Notify};
use tokio::time::Instant;

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
    // Replies of handlers that suspend are written by their own tasks, so
    // the write half is shared; the reader takes it once per burst.
    let wr = Arc::new(tokio::sync::Mutex::new(wr));
    // Replies of handlers that complete on their first poll: encoded here
    // as the burst is decoded, written in one `write_all` after it.
    let mut out = BytesMut::new();
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
            // A batch frame comes back as ONE reply envelope.
            let mut rsp = dispatch(&handler, from, req);
            // Run the handler in place. One that suspends (a sync wait,
            // recovery) becomes a task, whose first poll comes after this
            // one and registers the waker that counts, so the no-op waker
            // here loses no wake-up.
            match rsp.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
                Poll::Ready(rsp) => encode_reply(corr_id, &rsp, &mut out),
                Poll::Pending => {
                    let wr = Arc::clone(&wr);
                    tokio::spawn(async move {
                        let rsp = rsp.await;
                        let mut buf = BytesMut::new();
                        encode_reply(corr_id, &rsp, &mut buf);
                        let _ = wr.lock().await.write_all(&buf).await;
                    });
                }
            }
        }
        if !out.is_empty() {
            wr.lock().await.write_all(&out).await?;
            out.clear();
            // One oversized response (snapshot transfer) must not pin its
            // capacity for the connection's lifetime.
            if out.capacity() > 1024 * 1024 {
                out = BytesMut::new();
            }
        }
    }
}

fn encode_reply(corr_id: u64, rsp: &Response, out: &mut BytesMut) {
    let reply = RpcEnvelope { corr_id, is_response: true, payload: rsp.to_bytes() };
    write_frame_encoded(&reply, out);
}

/// A call waiting for its reply.
struct Waiter {
    reply: oneshot::Sender<Result<Response, RpcError>>,
    deadline: Instant,
}

/// The calls in flight on one connection.
#[derive(Default)]
struct Calls {
    /// By `corr_id`. Ids are handed out under this table's lock and every
    /// call gets the same timeout, so the first entry is the oldest live
    /// call and has the earliest deadline.
    waiting: BTreeMap<u64, Waiter>,
    next_corr: u64,
    /// The sleeper has no deadline to wait for and waits for `wake`.
    sleeper_idle: bool,
}

/// What a connection's reader, sleeper and callers share.
struct Shared {
    calls: Mutex<Calls>,
    /// Set, under `calls`' lock, when the reader exits: no reply will come.
    /// Read without the lock only as a hint for the connection lookup;
    /// a call checks it again under the lock before it waits.
    dead: AtomicBool,
    /// Rouses the sleeper for a first call or a dead connection.
    wake: Notify,
}

struct Connection {
    tx: mpsc::UnboundedSender<RpcEnvelope>,
    shared: Arc<Shared>,
}

impl Connection {
    fn is_live(&self) -> bool {
        !self.tx.is_closed() && !self.shared.dead.load(Ordering::Acquire)
    }
}

struct Route {
    addr: SocketAddr,
    /// The cached connection, dialled on first use.
    conn: Option<Arc<Connection>>,
}

struct RouterInner {
    self_id: ServerId,
    routes: Mutex<HashMap<ServerId, Route>>,
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
                timeout: DEFAULT_RPC_TIMEOUT,
            }),
        }
    }

    /// Registers the address of a logical server.
    pub fn add_route(&self, id: ServerId, addr: SocketAddr) {
        let mut routes = self.inner.routes.lock();
        routes.entry(id).and_modify(|r| r.addr = addr).or_insert(Route { addr, conn: None });
    }

    /// Returns an [`RpcClient`] that dials through this router.
    pub fn client(&self) -> Arc<dyn RpcClient> {
        Arc::new(self.clone())
    }

    /// The live cached connection to `to`, or a new one.
    async fn connection(&self, to: ServerId) -> Result<Arc<Connection>, RpcError> {
        let addr = {
            let routes = self.inner.routes.lock();
            let route = routes.get(&to).ok_or(RpcError::Unreachable { to })?;
            match &route.conn {
                Some(c) if c.is_live() => return Ok(Arc::clone(c)),
                _ => route.addr,
            }
        };
        let conn = self.dial(to, addr).await?;
        let mut routes = self.inner.routes.lock();
        let route = routes.get_mut(&to).ok_or(RpcError::Unreachable { to })?;
        match &route.conn {
            // Another caller dialled meanwhile; ours closes as it drops.
            Some(c) if c.is_live() => Ok(Arc::clone(c)),
            _ => {
                route.conn = Some(Arc::clone(&conn));
                Ok(conn)
            }
        }
    }

    async fn dial(&self, to: ServerId, addr: SocketAddr) -> Result<Arc<Connection>, RpcError> {
        let stream = TcpStream::connect(addr).await.map_err(|_| RpcError::Unreachable { to })?;
        stream.set_nodelay(true).ok();
        let (mut rd, mut wr) = stream.into_split();
        let shared = Arc::new(Shared {
            calls: Mutex::ranked(lockrank::TCP_PENDING, "transport.tcp.pending", Calls::default()),
            dead: AtomicBool::new(false),
            wake: Notify::new(),
        });

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
        let reader = Arc::clone(&shared);
        tokio::spawn(async move {
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            'read: while let Ok(n) = rd.read(&mut buf).await {
                if n == 0 {
                    break;
                }
                decoder.push(&buf[..n]);
                loop {
                    let frame = match decoder.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(_) => break 'read,
                    };
                    let Ok(env) = RpcEnvelope::from_bytes_shared(frame) else { continue };
                    if !env.is_response {
                        continue;
                    }
                    let Ok(rsp) = Response::from_bytes_shared(env.payload) else { continue };
                    let waiter = reader.calls.lock().waiting.remove(&env.corr_id);
                    if let Some(waiter) = waiter {
                        let _ = waiter.reply.send(Ok(rsp));
                    }
                }
            }
            // Connection died: the next lookup redials, and every waiter
            // fails as its sender drops.
            let waiting = {
                let mut calls = reader.calls.lock();
                reader.dead.store(true, Ordering::Release);
                std::mem::take(&mut calls.waiting)
            };
            drop(waiting);
            reader.wake.notify_one();
        });

        tokio::spawn(expire_calls(Arc::clone(&shared), to));
        Ok(Arc::new(Connection { tx, shared }))
    }

    async fn do_call(self, to: ServerId, req: Request) -> Result<Response, RpcError> {
        let conn = self.connection(to).await?;
        let shared = &conn.shared;
        let (tx, rx) = oneshot::channel();
        let (corr_id, wake) = {
            let mut calls = shared.calls.lock();
            if shared.dead.load(Ordering::Acquire) {
                return Err(RpcError::ConnectionReset { to });
            }
            let corr_id = calls.next_corr;
            calls.next_corr += 1;
            let deadline = Instant::now() + self.inner.timeout;
            calls.waiting.insert(corr_id, Waiter { reply: tx, deadline });
            (corr_id, std::mem::take(&mut calls.sleeper_idle))
        };
        if wake {
            shared.wake.notify_one();
        }
        let env = RpcEnvelope { corr_id, is_response: false, payload: req.to_bytes() };
        if conn.tx.send(env).is_err() {
            shared.calls.lock().waiting.remove(&corr_id);
            return Err(RpcError::ConnectionReset { to });
        }
        rx.await.unwrap_or(Err(RpcError::ConnectionReset { to }))
    }
}

/// A connection's one timer: sleeps until the oldest live call's deadline
/// and fails every call that is past its own. While no call is waiting it
/// arms nothing and waits to be woken; it ends with the connection.
async fn expire_calls(shared: Arc<Shared>, to: ServerId) {
    loop {
        let mut expired = Vec::new();
        let next = {
            let mut calls = shared.calls.lock();
            if shared.dead.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            while let Some(oldest) = calls.waiting.first_entry() {
                if oldest.get().deadline > now {
                    break;
                }
                expired.push(oldest.remove());
            }
            let next = calls.waiting.first_key_value().map(|(_, w)| w.deadline);
            calls.sleeper_idle = next.is_none();
            next
        };
        for waiter in expired {
            let _ = waiter.reply.send(Err(RpcError::Timeout { to }));
        }
        match next {
            Some(deadline) => tokio::time::sleep_until(deadline).await,
            None => shared.wake.notified().await,
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

    /// Answers `Sync` once `gate` is notified; `RenewLease` at once.
    fn gated_handler(gate: Arc<Notify>) -> SharedHandler {
        Arc::new(move |_from: ServerId, req: Request| {
            let gate = Arc::clone(&gate);
            async move {
                match req {
                    Request::Sync { .. } => {
                        gate.notified().await;
                        Response::SyncDone
                    }
                    Request::RenewLease { client } => Response::Lease { client, ttl_ms: 0 },
                    _ => Response::NotOwner,
                }
            }
        })
    }

    fn lease(i: u64) -> (Request, Response) {
        let client = curp_proto::types::ClientId(i);
        (Request::RenewLease { client }, Response::Lease { client, ttl_ms: 0 })
    }

    #[tokio::test]
    async fn a_suspended_handler_is_answered_beside_ready_ones() {
        let gate = Arc::new(Notify::new());
        let server =
            TcpServer::bind("127.0.0.1:0".parse().unwrap(), gated_handler(Arc::clone(&gate)))
                .await
                .unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let client = router.client();
        let c = Arc::clone(&client);
        let suspended = tokio::spawn(async move {
            c.call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await
        });
        // Ready calls on the same connection complete while it waits.
        for i in 0..10 {
            let (req, want) = lease(i);
            assert_eq!(client.call(ServerId(1), req).await.unwrap(), want);
        }
        assert!(!suspended.is_finished());
        gate.notify_one();
        assert_eq!(suspended.await.unwrap().unwrap(), Response::SyncDone);
        server.shutdown();
    }

    #[tokio::test]
    async fn a_batch_with_a_suspended_request_stays_positional() {
        let gate = Arc::new(Notify::new());
        let server =
            TcpServer::bind("127.0.0.1:0".parse().unwrap(), gated_handler(Arc::clone(&gate)))
                .await
                .unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let (first, first_rsp) = lease(0);
        let (last, last_rsp) = lease(2);
        let reqs = vec![first, Request::Sync { master_id: MasterId(1) }, last];
        let client = router.client();
        let batch = tokio::spawn(async move { client.call_batch(ServerId(1), reqs).await });
        tokio::time::sleep(Duration::from_millis(20)).await;
        assert!(!batch.is_finished());
        gate.notify_one();
        let rsps = batch.await.unwrap().unwrap();
        assert_eq!(rsps, vec![first_rsp, Response::SyncDone, last_rsp]);
        server.shutdown();
    }

    #[tokio::test]
    async fn ready_handlers_spawn_no_task_and_arm_no_timer() {
        const CALLS: u64 = 200;
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), handler()).await.unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let client = router.client();
        let sync = || Request::Sync { master_id: MasterId(1) };
        // Set-up: the connection's tasks and its one deadline timer.
        client.call(ServerId(1), sync()).await.unwrap();
        let before = tokio::runtime::metrics();
        for _ in 0..CALLS {
            assert_eq!(client.call(ServerId(1), sync()).await.unwrap(), Response::SyncDone);
        }
        let used = tokio::runtime::metrics() - before;
        eprintln!("per call: {:.2} task polls", used.task_polls as f64 / CALLS as f64);
        assert_eq!(used.tasks_spawned, 0, "{used:?}");
        assert_eq!(used.timers_armed, 0, "{used:?}");
        server.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn an_unanswered_call_times_out_and_the_connection_lives_on() {
        // The gate is never opened: `Sync` is never answered.
        let gate = Arc::new(Notify::new());
        let server =
            TcpServer::bind("127.0.0.1:0".parse().unwrap(), gated_handler(gate)).await.unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let client = router.client();
        let conn = |r: &TcpRouter| r.inner.routes.lock()[&ServerId(1)].conn.clone().unwrap();
        let (req, want) = lease(1);
        assert_eq!(client.call(ServerId(1), req).await.unwrap(), want);
        let first = conn(&router);
        // Past the first call's deadline, with nothing waiting: the
        // sleeper goes idle and must be woken by the next call.
        tokio::time::sleep(2 * DEFAULT_RPC_TIMEOUT).await;
        let start = tokio::time::Instant::now();
        let unanswered = client.call(ServerId(1), Request::Sync { master_id: MasterId(1) });
        let err = tokio::time::timeout(2 * DEFAULT_RPC_TIMEOUT, unanswered).await;
        assert_eq!(err, Ok(Err(RpcError::Timeout { to: ServerId(1) })));
        assert_eq!(start.elapsed(), DEFAULT_RPC_TIMEOUT);
        let (req, want) = lease(2);
        assert_eq!(client.call(ServerId(1), req).await.unwrap(), want);
        assert!(Arc::ptr_eq(&first, &conn(&router)), "the call redialled");
        server.shutdown();
    }

    #[tokio::test(start_paused = true)]
    async fn a_reply_just_before_its_deadline_is_not_failed() {
        let late = DEFAULT_RPC_TIMEOUT - Duration::from_millis(1);
        let handler: SharedHandler = Arc::new(move |_from: ServerId, _req: Request| async move {
            tokio::time::sleep(late).await;
            Response::SyncDone
        });
        let server = TcpServer::bind("127.0.0.1:0".parse().unwrap(), handler).await.unwrap();
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), server.local_addr());
        let start = tokio::time::Instant::now();
        let rsp = router.client().call(ServerId(1), Request::Sync { master_id: MasterId(1) }).await;
        assert_eq!(rsp, Ok(Response::SyncDone));
        assert_eq!(start.elapsed(), late);
        server.shutdown();
    }

    #[tokio::test]
    async fn a_connection_the_peer_closed_is_redialled() {
        // Each connection: read the hello and one request, answer it, close.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            while let Ok((stream, _)) = listener.accept().await {
                let (mut rd, mut wr) = stream.into_split();
                let mut decoder = FrameDecoder::new();
                let mut buf = vec![0u8; 4096];
                let mut frames = Vec::new();
                while frames.len() < 2 {
                    let n = rd.read(&mut buf).await.unwrap();
                    decoder.push(&buf[..n]);
                    while let Some(frame) = decoder.next_frame().unwrap() {
                        frames.push(frame);
                    }
                }
                let req = RpcEnvelope::from_bytes_shared(frames.swap_remove(1)).unwrap();
                let mut out = BytesMut::new();
                encode_reply(req.corr_id, &Response::SyncDone, &mut out);
                wr.write_all(&out).await.unwrap();
            }
        });
        let router = TcpRouter::new(ServerId(7));
        router.add_route(ServerId(1), addr);
        let client = router.client();
        let sync = || Request::Sync { master_id: MasterId(1) };
        assert_eq!(client.call(ServerId(1), sync()).await, Ok(Response::SyncDone));
        // Let the client's reader see the peer's close.
        tokio::time::sleep(Duration::from_millis(20)).await;
        let start = std::time::Instant::now();
        assert_eq!(client.call(ServerId(1), sync()).await, Ok(Response::SyncDone));
        assert!(start.elapsed() < Duration::from_millis(500), "{:?}", start.elapsed());
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
