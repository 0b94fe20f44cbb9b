//! Spans recorded from outside the layers, and the ledger derived from them.
//!
//! Nothing here knows the repository's types: `cluster.rs` wraps the RPC
//! client and handler traits and reports each call as a [`Span`]. Spans stay
//! in memory while the window runs; [`Tracer::analyze`] and
//! [`Tracer::dump`] run after it.

use std::cell::Cell;
use std::collections::HashMap;
use std::future::Future;
use std::io::Write;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::task::{Context, Poll};
use std::time::Instant;

use crate::stats::{quantile, ratio};

/// Nanoseconds on the process-wide monotonic clock both threads share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span's request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    Update,
    Read,
    Sync,
    Record,
    Gc,
    BackupSync,
    Other,
}

/// Where a span was recorded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// One benchmark operation, submit to completion (driver thread).
    Op,
    /// An RPC issued by the driver's client (driver thread).
    DriverRpc,
    /// An RPC issued by a server: master to backup or witness.
    ClusterRpc,
    /// A request handled by a server.
    Handler,
}

/// The server id every workload hosts its master on.
pub const MASTER_HOST: u16 = 1;

/// One recorded interval.
///
/// Spans of one operation share its identifiers: `parent` names the [`Side::Op`]
/// span whose task issued an RPC, and `tags` carry the RIFL sequence numbers
/// (writes) or key hashes (reads) the request holds, which is how a client
/// RPC span finds its handler spans and a pipelined op finds its batch.
#[derive(Clone, Debug)]
pub struct Span {
    pub side: Side,
    pub kind: Kind,
    /// Destination server of an RPC, or the server that handled a request.
    pub host: u16,
    /// Operation id of an `Op` span; 0 otherwise.
    pub id: u32,
    /// Operation id of the op that issued this RPC; 0 when unknown.
    pub parent: u32,
    /// Encoded request plus response bytes of an RPC; 0 otherwise.
    pub bytes: u32,
    tags_at: u32,
    /// Requests the span covers: more than 1 for a `Batch` frame.
    pub n: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    tags: Vec<u64>,
}

/// Records spans while switched on, up to a fixed count.
pub struct Tracer {
    on: AtomicBool,
    cap: usize,
    next_op: AtomicU32,
    capped_at: AtomicU64,
    /// One buffer per thread, so recording never bounces a lock between
    /// cores: `[driver, cluster]`.
    bufs: [Mutex<Buf>; 2],
}

/// Spans kept per buffer: about 5 s of the fastest workload.
const SPAN_CAP: usize = 3_000_000;
/// Spans written to the dump file.
const DUMP_CAP: usize = 100_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            cap: SPAN_CAP,
            next_op: AtomicU32::new(0),
            capped_at: AtomicU64::new(u64::MAX),
            bufs: [Mutex::new(Buf::default()), Mutex::new(Buf::default())],
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Allocates an operation id, or 0 while tracing is off.
    pub fn begin_op(&self) -> u32 {
        if self.on() {
            self.next_op.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        }
    }

    /// When the span cap switched tracing off, if it did.
    pub fn capped_at(&self) -> Option<u64> {
        Some(self.capped_at.load(Ordering::Relaxed)).filter(|&t| t != u64::MAX)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        side: Side,
        kind: Kind,
        host: u16,
        (id, parent): (u32, u32),
        bytes: u32,
        tags: &[u64],
        (start, end): (u64, u64),
    ) {
        let buf = &self.bufs[matches!(side, Side::ClusterRpc | Side::Handler) as usize];
        let mut buf = buf.lock().expect("tracer buffer poisoned");
        if buf.spans.len() >= self.cap {
            if self.on.swap(false, Ordering::Relaxed) {
                self.capped_at.store(end, Ordering::Relaxed);
            }
            return;
        }
        let tags_at = buf.tags.len() as u32;
        buf.tags.extend_from_slice(tags);
        buf.spans.push(Span {
            side,
            kind,
            host,
            id,
            parent,
            bytes,
            tags_at,
            n: tags.len() as u32,
            start,
            end,
        });
    }

    fn take(&self) -> (Vec<Span>, Vec<u64>) {
        let mut spans = Vec::new();
        let mut tags = Vec::new();
        for buf in &self.bufs {
            let mut buf = buf.lock().expect("tracer buffer poisoned");
            let shift = tags.len() as u32;
            tags.append(&mut buf.tags);
            spans.extend(buf.spans.drain(..).map(|mut s| {
                s.tags_at += shift;
                s
            }));
        }
        (spans, tags)
    }

    /// Consumes the recorded spans: derives the per-layer figures over the
    /// traced interval `[from, to)` and writes the first spans to `dump`.
    pub fn finish(&self, from: u64, to: u64, dump: &std::path::Path) -> std::io::Result<Report> {
        let (spans, tags) = self.take();
        let trace = Trace { spans, tags };
        trace.dump(dump)?;
        Ok(trace.analyze(from, to.min(self.capped_at().unwrap_or(u64::MAX))))
    }
}

thread_local! {
    static CURRENT_OP: Cell<u32> = const { Cell::new(0) };
}

/// The operation whose future is being polled on this thread, or 0.
pub fn current_op() -> u32 {
    CURRENT_OP.with(Cell::get)
}

/// Marks every poll of `fut` as belonging to operation `id`, so RPCs the
/// client issues from inside it record `id` as their parent.
pub struct InOp<F> {
    pub id: u32,
    pub fut: F,
}

impl<F: Future + Unpin> Future for InOp<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let outer = CURRENT_OP.with(|c| c.replace(self.id));
        let out = Pin::new(&mut self.fut).poll(cx);
        CURRENT_OP.with(|c| c.set(outer));
        out
    }
}

/// Stamps `fut`'s first poll and its completion, and hands both to `done`
/// with the output. The first poll, not the call, starts the clock: a batch's
/// inner handler futures are all created on arrival and then run in turn.
pub struct Timed<F, D> {
    fut: F,
    start: u64,
    done: Option<D>,
}

impl<F, D> Timed<F, D> {
    pub fn new(fut: F, done: D) -> Self {
        Timed { fut, start: 0, done: Some(done) }
    }
}

impl<F, D> Future for Timed<F, D>
where
    F: Future + Unpin,
    D: FnOnce(&F::Output, u64, u64) + Unpin,
{
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        if self.start == 0 {
            self.start = now_ns().max(1);
        }
        let out = std::task::ready!(Pin::new(&mut self.fut).poll(cx));
        if let Some(done) = self.done.take() {
            done(&out, self.start, now_ns());
        }
        Poll::Ready(out)
    }
}

/// Figures derived from the spans. Times are medians in microseconds.
#[derive(Default, Debug)]
pub struct Report {
    /// Operations whose span ended inside the traced interval.
    pub ops: u64,
    /// Reads recorded, inside the interval or not.
    pub reads: u64,
    pub rtt_us_p50: f64,
    pub msgs_per_op: f64,
    pub ops_per_frame: f64,
    pub bytes_per_op: f64,
    pub client_self_us_p50: f64,
    pub rpcs_per_read: f64,
    pub master_update_us_p50: f64,
    pub master_read_us_p50: f64,
    pub master_busy_frac: f64,
    pub sync_round_us_p50: f64,
    pub witness_us_p50: f64,
    pub gc_msgs_per_op: f64,
    pub backup_sync_us_p50: f64,
    /// The write path cut into layers, see [`Ledger`].
    pub ledger: Ledger,
}

/// Where a write's latency goes: the client's own time, the transport under
/// the longest child RPC, and the longest handler among the op's RPCs.
#[derive(Default, Debug)]
pub struct Ledger {
    pub op_us: f64,
    pub client_self_us: f64,
    pub transport_us: f64,
    pub handler_us: f64,
    pub samples: usize,
}

impl Ledger {
    pub fn sum_us(&self) -> f64 {
        self.client_self_us + self.transport_us + self.handler_us
    }
}

struct Trace {
    spans: Vec<Span>,
    tags: Vec<u64>,
}

fn p50_us(v: &mut [u64]) -> f64 {
    quantile(v, 0.5) as f64 / 1e3
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

impl Trace {
    fn tags_of(&self, s: &Span) -> &[u64] {
        &self.tags[s.tags_at as usize..(s.tags_at + s.n) as usize]
    }

    fn analyze(&self, from: u64, to: u64) -> Report {
        let inside = |s: &Span| s.end >= from && s.end < to;
        // Handler spans by what they handled, to match against client RPCs.
        let mut handlers: HashMap<(u16, Kind, u64), Vec<usize>> = HashMap::new();
        // Driver RPC spans by issuing op and by carried tag, to find an op's
        // children.
        let mut by_parent: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut by_tag: HashMap<(Kind, u64), Vec<usize>> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.side {
                Side::Handler => {
                    for &t in self.tags_of(s) {
                        handlers.entry((s.host, s.kind, t)).or_default().push(i);
                    }
                }
                Side::DriverRpc if s.parent != 0 => by_parent.entry(s.parent).or_default().push(i),
                Side::DriverRpc => {
                    for &t in self.tags_of(s) {
                        by_tag.entry((s.kind, t)).or_default().push(i);
                    }
                }
                _ => {}
            }
        }

        // Server time under each driver RPC: from the first matching handler
        // span's start to the last one's end (a batch's inner requests are
        // handled back to back).
        let mut server_ns: HashMap<usize, u64> = HashMap::new();
        let mut rtt = Vec::new();
        for (i, c) in self.spans.iter().enumerate() {
            if c.side != Side::DriverRpc {
                continue;
            }
            let (mut lo, mut hi) = (u64::MAX, 0);
            for &t in self.tags_of(c) {
                let hit = handlers.get(&(c.host, c.kind, t)).and_then(|hs| {
                    hs.iter()
                        .map(|&h| &self.spans[h])
                        .find(|h| h.start >= c.start && h.end <= c.end)
                });
                if let Some(h) = hit {
                    lo = lo.min(h.start);
                    hi = hi.max(h.end);
                }
            }
            if hi > 0 {
                server_ns.insert(i, hi - lo);
                if inside(c) {
                    rtt.push(c.dur().saturating_sub(hi - lo));
                }
            }
        }

        let mut r = Report::default();
        let (mut self_ns, mut led_op, mut led_self, mut led_net, mut led_srv) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for op in self.spans.iter().filter(|s| s.side == Side::Op) {
            r.ops += inside(op) as u64;
            r.reads += (op.kind == Kind::Read) as u64;
            if op.kind != Kind::Update {
                continue;
            }
            let tag = self.tags_of(op).first().copied().unwrap_or(0);
            let children: Vec<usize> = match by_parent.get(&op.id) {
                Some(c) => c.clone(),
                None => [Kind::Update, Kind::Record]
                    .iter()
                    .filter_map(|&k| by_tag.get(&(k, tag)))
                    .flatten()
                    .copied()
                    .filter(|&c| self.spans[c].start >= op.start && self.spans[c].end <= op.end)
                    .collect(),
            };
            let Some(&longest) = children.iter().max_by_key(|&&c| self.spans[c].dur()) else {
                continue;
            };
            let mut ivs: Vec<_> =
                children.iter().map(|&c| (self.spans[c].start, self.spans[c].end)).collect();
            self_ns.push(op.dur() - covered(&mut ivs, op.start, op.end));
            let Some(&longest_srv) = server_ns.get(&longest) else { continue };
            let max_srv = children.iter().filter_map(|c| server_ns.get(c)).max().copied();
            led_op.push(op.dur());
            led_self.push(op.dur() - self.spans[longest].dur());
            led_net.push(self.spans[longest].dur().saturating_sub(longest_srv));
            led_srv.push(max_srv.unwrap_or(longest_srv));
        }
        r.ledger = Ledger {
            samples: led_op.len(),
            op_us: p50_us(&mut led_op),
            client_self_us: p50_us(&mut led_self),
            transport_us: p50_us(&mut led_net),
            handler_us: p50_us(&mut led_srv),
        };
        r.rtt_us_p50 = p50_us(&mut rtt);
        r.client_self_us_p50 = p50_us(&mut self_ns);

        let ops = r.ops as f64;
        let window = to.saturating_sub(from) as f64;
        let (mut rpcs, mut bytes, mut gcs, mut read_rpcs) = (0u64, 0u64, 0u64, 0u64);
        let (mut frames, mut framed_ops) = (0u64, 0u64);
        let mut master_busy = Vec::new();
        let mut durs: HashMap<(bool, Kind), Vec<u64>> = HashMap::new();
        for s in &self.spans {
            // Rates are taken over the traced part of the window; medians
            // and the reads' RPC count over every recorded span, which takes
            // in a write-only workload's read-back window.
            let rate = inside(s) as u64;
            match s.side {
                Side::Op => continue,
                Side::DriverRpc | Side::ClusterRpc => {
                    rpcs += rate;
                    bytes += rate * s.bytes as u64;
                    gcs += rate * (s.kind == Kind::Gc) as u64;
                    if s.side == Side::DriverRpc && matches!(s.kind, Kind::Update | Kind::Read) {
                        frames += rate;
                        framed_ops += rate * s.n as u64;
                        read_rpcs += if s.kind == Kind::Read { s.n as u64 } else { 0 };
                    }
                    if s.side == Side::ClusterRpc {
                        durs.entry((false, s.kind)).or_default().push(s.dur());
                    }
                }
                Side::Handler => {
                    if s.host == MASTER_HOST && rate == 1 {
                        master_busy.push((s.start, s.end));
                    }
                    durs.entry((true, s.kind)).or_default().push(s.dur());
                }
            }
        }
        let mut p50 = |handler, kind| durs.get_mut(&(handler, kind)).map_or(0.0, |v| p50_us(v));
        r.master_update_us_p50 = p50(true, Kind::Update);
        r.master_read_us_p50 = p50(true, Kind::Read);
        r.witness_us_p50 = p50(true, Kind::Record);
        r.backup_sync_us_p50 = p50(true, Kind::BackupSync);
        r.sync_round_us_p50 = p50(false, Kind::BackupSync);
        r.msgs_per_op = ratio(rpcs as f64, ops);
        r.bytes_per_op = ratio(bytes as f64, ops);
        r.gc_msgs_per_op = ratio(gcs as f64, ops);
        r.ops_per_frame = ratio(framed_ops as f64, frames as f64);
        r.rpcs_per_read = ratio(read_rpcs as f64, r.reads as f64);
        // Handlers that wait (a conflicting update blocks on its sync) overlap
        // the ones that run, so busy time is the union of the spans.
        r.master_busy_frac = ratio(covered(&mut master_busy, from, to) as f64, window);
        r
    }

    /// One JSON object per line: name, start, end, parent and the op's tags.
    fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(DUMP_CAP) {
            writeln!(
                out,
                "{{\"name\":\"{:?}.{:?}\",\"host\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"bytes\":{},\"tags\":{:?}}}",
                s.side,
                s.kind,
                s.host,
                s.id,
                s.parent,
                s.start,
                s.end,
                s.bytes,
                self.tags_of(s)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_write(t: &Tracer, id: u32, at: u64) {
        // op [at, at+1000): update RPC [at+50, at+950) handled [at+400, at+500),
        // record RPC [at+60, at+700) handled [at+300, at+330).
        t.record(Side::Handler, Kind::Update, 1, (0, 0), 0, &[id as u64], (at + 400, at + 500));
        t.record(Side::Handler, Kind::Record, 2, (0, 0), 0, &[id as u64], (at + 300, at + 330));
        t.record(Side::DriverRpc, Kind::Update, 1, (0, id), 100, &[id as u64], (at + 50, at + 950));
        t.record(Side::DriverRpc, Kind::Record, 2, (0, id), 80, &[id as u64], (at + 60, at + 700));
        t.record(Side::Op, Kind::Update, 0, (id, 0), 0, &[0], (at, at + 1000));
    }

    #[test]
    fn ledger_splits_a_serial_write() {
        let t = Tracer::new();
        for i in 0..3 {
            serial_write(&t, i + 1, 10_000 * (i as u64 + 1));
        }
        let (spans, tags) = t.take();
        let r = Trace { spans, tags }.analyze(0, u64::MAX);
        assert_eq!(r.ops, 3);
        assert_eq!(r.ledger.samples, 3);
        assert_eq!(r.ledger.client_self_us, 0.1);
        assert_eq!(r.ledger.transport_us, 0.8);
        assert_eq!(r.ledger.handler_us, 0.1);
        assert_eq!(r.ledger.sum_us(), r.ledger.op_us);
        assert_eq!(r.client_self_us_p50, 0.1);
        assert_eq!(r.msgs_per_op, 2.0);
        assert_eq!(r.bytes_per_op, 180.0);
        assert_eq!(r.master_update_us_p50, 0.1);
        assert_eq!(r.witness_us_p50, 0.03);
    }

    #[test]
    fn pipelined_ops_find_their_batch_by_tag() {
        let t = Tracer::new();
        t.record(Side::Handler, Kind::Update, 1, (0, 0), 0, &[7], (300, 350));
        t.record(Side::Handler, Kind::Update, 1, (0, 0), 0, &[8], (350, 420));
        t.record(Side::DriverRpc, Kind::Update, 1, (0, 0), 0, &[7, 8], (200, 800));
        t.record(Side::Op, Kind::Update, 0, (1, 0), 0, &[7], (100, 900));
        t.record(Side::Op, Kind::Update, 0, (2, 0), 0, &[8], (150, 1000));
        let (spans, tags) = t.take();
        let r = Trace { spans, tags }.analyze(0, u64::MAX);
        assert_eq!(r.ops_per_frame, 2.0);
        assert_eq!(r.ledger.samples, 2);
        assert_eq!(r.ledger.handler_us, 0.12);
        assert_eq!(r.rtt_us_p50, 0.48);
    }

    #[test]
    fn cap_switches_tracing_off() {
        let mut t = Tracer::new();
        t.cap = 1;
        t.set_on(true);
        t.record(Side::Op, Kind::Read, 0, (1, 0), 0, &[0], (0, 1));
        assert!(t.on());
        t.record(Side::Op, Kind::Read, 0, (2, 0), 0, &[0], (1, 2));
        assert!(!t.on());
        assert_eq!(t.capped_at(), Some(2));
    }

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(&mut [(0, 10), (5, 20), (30, 40)], 0, 35), 25);
    }
}
