//! The load generator: closed-loop callers on the driver thread, the book
//! of expected values they check results against, and the sliced latency
//! record the end-to-end figures come from.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{
    get, put, read_tag, ClientError, Cluster, Counters, CurpClient, KeyChooser, OpResult,
    PipelineConfig, PipelinedClient, Probe, Uniform, Zipfian,
};
use crate::spec::Workload;
use crate::stats::{quantile, quiet_quartile};
use crate::trace::{now_ns, InOp, Kind, Side};

/// Equal slices a measured window is cut into; a figure is the quiet quartile
/// ([`quiet_quartile`]) of the per-slice values.
pub const SLICES: usize = 10;
/// In a traced pass the first slices run with tracing off: their figures are
/// the untraced reference for the ledger and the tracing overhead.
pub const UNTRACED_SLICES: usize = 4;
/// Keys written before the window opens. Part of set-up.
pub const PRELOAD: u64 = 1_000;
/// Value size of every `Put` (paper §5.1).
const VALUE_LEN: usize = 100;
/// A slice's p99 needs ten samples beyond it.
const P99_FLOOR: usize = 1_000;
const P50_FLOOR: usize = 100;
const PENDING_SAMPLE_NS: u64 = 10_000_000;
const NOTES_KEPT: usize = 5;

/// Latencies of one window, by the slice their completion fell into.
pub struct Recorder {
    t0: u64,
    slice_ns: u64,
    slices: Vec<Vec<u64>>,
}

impl Recorder {
    fn new(t0: u64, window_ns: u64) -> Recorder {
        Recorder { t0, slice_ns: window_ns / SLICES as u64, slices: vec![Vec::new(); SLICES] }
    }

    /// A recorder whose window never opens: set-up and checks record nothing.
    fn idle() -> Recorder {
        Recorder::new(u64::MAX, SLICES as u64)
    }

    fn record(&mut self, start: u64, end: u64) {
        if end >= self.t0 {
            if let Some(slice) = self.slices.get_mut(((end - self.t0) / self.slice_ns) as usize) {
                slice.push(end - start);
            }
        }
    }

    pub fn slice_secs(&self) -> f64 {
        self.slice_ns as f64 / 1e9
    }

    pub fn counts(&self) -> Vec<usize> {
        self.slices.iter().map(Vec::len).collect()
    }

    pub fn samples(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Each slice's `q`-quantile in microseconds, for the reader.
    pub fn per_slice_us(&mut self, q: f64) -> Vec<f64> {
        self.slices.iter_mut().map(|s| quantile(s, q) as f64 / 1e3).collect()
    }

    /// Pooled quantiles of the whole window in microseconds, for the reader.
    pub fn ladder_us(&self, qs: &[f64]) -> Vec<f64> {
        let mut all = self.slices.concat();
        qs.iter().map(|&q| quantile(&mut all, q) as f64 / 1e3).collect()
    }

    /// The `q`-quantile in microseconds over `slices`: the quiet quartile of
    /// the per-slice quantiles, or the pooled quantile when some slice holds
    /// too few samples to support it.
    pub fn quantile_us(&mut self, q: f64, slices: Range<usize>) -> f64 {
        let floor = if q > 0.9 { P99_FLOOR } else { P50_FLOOR };
        let part = &mut self.slices[slices];
        if part.iter().all(|s| s.len() >= floor) {
            let each: Vec<f64> = part.iter_mut().map(|s| quantile(s, q) as f64 / 1e3).collect();
            quiet_quartile(&each, false)
        } else {
            quantile(&mut part.concat(), q) as f64 / 1e3
        }
    }
}

enum Job {
    Put { key: u64, value: Bytes },
    Get { key: u64 },
}

/// How a read's result is judged.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Writes may be in flight: a read may return any value some issued
    /// `Put` wrote to its key.
    Load,
    /// Nothing is in flight: a read returns the key's last acked value.
    Quiet,
}

/// What the cluster must hold, learned from acknowledgements.
struct Book {
    /// Per key, the acked `Put` with the highest `Written { version }`.
    latest: Vec<Option<(u64, Bytes)>>,
    /// Keys with an acked `Put`, in first-ack order.
    written: Vec<u64>,
    /// Every `Put` issued, by the sequence number in its value's first eight
    /// bytes. Kept only where reads run beside writes.
    issued: Option<Vec<(u64, Bytes)>>,
    /// Key plus value bytes of acked `Put`s.
    user_bytes: u64,
}

impl Book {
    fn check(
        &mut self,
        job: &Job,
        result: Result<OpResult, ClientError>,
        phase: Phase,
    ) -> Result<(), String> {
        match (job, result) {
            (Job::Put { key, value }, Ok(OpResult::Written { version })) => {
                let slot = &mut self.latest[*key as usize];
                if slot.is_none() {
                    self.written.push(*key);
                }
                if slot.as_ref().is_none_or(|(v, _)| version > *v) {
                    *slot = Some((version, value.clone()));
                }
                // `Workload::key_bytes` is "user" and the index in decimal.
                let key_len = 4 + key.checked_ilog10().map_or(1, |d| d as usize + 1);
                self.user_bytes += (key_len + value.len()) as u64;
                Ok(())
            }
            (Job::Get { key }, Ok(OpResult::Value(Some(got)))) => {
                let expected = match (&self.issued, phase) {
                    (Some(issued), Phase::Load) => got
                        .get(..8)
                        .and_then(|h| issued.get(u64::from_le_bytes(h.try_into().ok()?) as usize))
                        .filter(|(k, _)| k == key)
                        .map(|(_, v)| v),
                    _ => self.latest[*key as usize].as_ref().map(|(_, v)| v),
                };
                if expected == Some(&got) {
                    Ok(())
                } else {
                    Err(format!("read of key {key} returned a value no acked Put wrote"))
                }
            }
            (Job::Get { key }, Ok(other)) => Err(format!("read of key {key}: {other:?}")),
            (Job::Put { key, .. }, Ok(other)) => Err(format!("put of key {key}: {other:?}")),
            (_, Err(e)) => Err(e.to_string()),
        }
    }
}

/// The traced part of a window: when it ran, and the public counters and
/// thread CPU clocks at both ends.
#[derive(Default, Debug)]
pub struct TracedPart {
    pub from: u64,
    pub to: u64,
    pub before: Counters,
    pub after: Counters,
    pub driver_cpu_ns: u64,
    pub cluster_cpu_ns: u64,
    /// `Master::pending_len()` every 10 ms.
    pub pending: Vec<u64>,
    started: bool,
    done: bool,
    next_sample: u64,
}

struct Shared {
    rng: StdRng,
    chooser: Box<dyn KeyChooser>,
    read_fraction: f64,
    book: Book,
    write: Recorder,
    read: Recorder,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    traced: Option<TracedPart>,
}

impl Shared {
    fn next_put(&mut self, key: u64) -> Job {
        let mut value = vec![0u8; VALUE_LEN];
        self.rng.fill(&mut value[8..]);
        let value = match &mut self.book.issued {
            Some(issued) => {
                value[..8].copy_from_slice(&(issued.len() as u64).to_le_bytes());
                let value = Bytes::from(value);
                issued.push((key, value.clone()));
                value
            }
            None => Bytes::from(value),
        };
        Job::Put { key, value }
    }

    fn next_job(&mut self) -> Job {
        let key = self.chooser.next_key(&mut self.rng);
        if self.read_fraction > 0.0 && self.rng.gen_bool(self.read_fraction) {
            Job::Get { key }
        } else {
            self.next_put(key)
        }
    }

    fn next_readback(&mut self) -> Job {
        let i = self.rng.gen_range(0..self.book.written.len());
        Job::Get { key: self.book.written[i] }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < NOTES_KEPT {
            self.notes.push(note);
        }
    }

    fn complete(
        &mut self,
        job: Job,
        result: Result<OpResult, ClientError>,
        phase: Phase,
        at: (u64, u64),
    ) {
        self.attempted += 1;
        match self.book.check(&job, result, phase) {
            Ok(()) => match job {
                Job::Put { .. } => self.write.record(at.0, at.1),
                Job::Get { .. } => self.read.record(at.0, at.1),
            },
            Err(note) => self.fail(note),
        }
    }
}

/// Reads a thread's on-CPU nanoseconds; 0 where the kernel keeps none.
fn thread_cpu_ns(schedstat: &str) -> u64 {
    std::fs::read_to_string(schedstat)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

const OWN_SCHEDSTAT: &str = "/proc/thread-self/schedstat";

/// One client handle and the callers that share it.
pub struct Driver {
    workload: &'static Workload,
    cluster: Arc<Cluster>,
    /// `schedstat` of the thread serving the cluster, when it is not ours.
    cluster_schedstat: Option<String>,
    client: Arc<CurpClient>,
    pipeline: Arc<PipelinedClient>,
    probe: Option<Arc<Probe>>,
    shared: Mutex<Shared>,
}

/// What a finished run hands to the report.
pub struct Outcome {
    pub write: Recorder,
    pub read: Recorder,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub user_bytes: u64,
    pub traced: Option<TracedPart>,
}

/// Lengths of a run's phases in nanoseconds.
#[derive(Clone, Copy)]
pub struct Timing {
    pub warmup: u64,
    /// The measured window of the workload's own mix.
    pub window: u64,
    /// The read-back window of a write-only workload; 0 for a mixed one.
    pub readback: u64,
}

impl Timing {
    /// `seconds` of measurement: a write-only workload spends a fifth of it
    /// reading back, so that its read latency is a measured figure too.
    pub fn new(w: &Workload, seconds: f64, warmup_secs: f64) -> Timing {
        let total = (seconds * 1e9) as u64;
        let readback = if w.read_fraction > 0.0 { 0 } else { total / 5 };
        Timing { warmup: (warmup_secs * 1e9) as u64, window: total - readback, readback }
    }
}

impl Driver {
    /// Connects the client and preloads the first [`PRELOAD`] keys (all keys
    /// of a Zipfian workload are within them).
    pub async fn connect(
        workload: &'static Workload,
        seed: u64,
        cluster: Arc<Cluster>,
        cluster_schedstat: Option<String>,
        probe: Option<Arc<Probe>>,
    ) -> Result<Arc<Driver>, String> {
        let client = cluster.connect(probe.clone()).await?;
        let pipeline = PipelinedClient::new(Arc::clone(&client), PipelineConfig::default());
        let chooser: Box<dyn KeyChooser> = if workload.zipf {
            Box::new(Zipfian::ycsb(workload.keys))
        } else {
            Box::new(Uniform::new(workload.keys))
        };
        let driver = Arc::new(Driver {
            workload,
            cluster,
            cluster_schedstat,
            client,
            pipeline,
            probe,
            shared: Mutex::new(Shared {
                rng: StdRng::seed_from_u64(seed),
                chooser,
                read_fraction: workload.read_fraction,
                book: Book {
                    latest: vec![None; workload.keys as usize],
                    written: Vec::new(),
                    issued: (workload.read_fraction > 0.0).then(Vec::new),
                    user_bytes: 0,
                },
                write: Recorder::idle(),
                read: Recorder::idle(),
                attempted: 0,
                failed: 0,
                notes: Vec::new(),
                traced: None,
            }),
        });
        let mut acks = Vec::new();
        for key in 0..PRELOAD.min(workload.keys) {
            let job = driver.shared().next_put(key);
            let Job::Put { value, .. } = &job else { unreachable!() };
            let ack = driver.pipeline.submit(put(key, value.clone())).await;
            acks.push((job, ack));
        }
        for (job, ack) in acks {
            let result = match ack {
                Ok(completion) => completion.await,
                Err(e) => Err(e),
            };
            driver.shared().complete(job, result, Phase::Load, (0, 0));
        }
        Ok(driver)
    }

    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("a caller panicked")
    }

    /// Issues one operation the way the workload's callers do and waits for
    /// its completion. While tracing, the operation is a span of its own.
    async fn issue(&self, job: &Job) -> Result<OpResult, ClientError> {
        let (op, kind) = match job {
            Job::Put { key, value } => (put(*key, value.clone()), Kind::Update),
            Job::Get { key } => (get(*key), Kind::Read),
        };
        let tracer = self.probe.as_ref().map(|p| &p.tracer).filter(|t| t.on());
        let start = now_ns();
        if self.workload.pipelined {
            let read_tag = tracer.filter(|_| kind == Kind::Read).map(|_| read_tag(&op));
            let completion = self.pipeline.submit(op).await?;
            let tag = read_tag.unwrap_or(completion.rpc_id().seq);
            let result = completion.await;
            if let Some(t) = tracer {
                t.record(Side::Op, kind, 0, (t.begin_op(), 0), 0, &[tag], (start, now_ns()));
            }
            return result;
        }
        let Some(t) = tracer else {
            return match kind {
                Kind::Update => self.client.update(op).await,
                _ => self.client.read(op).await,
            };
        };
        let id = t.begin_op();
        let result = match kind {
            Kind::Update => InOp { id, fut: Box::pin(self.client.update(op)) }.await,
            _ => InOp { id, fut: Box::pin(self.client.read(op)) }.await,
        };
        t.record(Side::Op, kind, 0, (id, 0), 0, &[0], (start, now_ns()));
        result
    }

    /// Switches tracing on and off at the traced part's bounds and samples
    /// the master's pending length. Called from the callers' loops, not from
    /// a timer: the zero-latency workload never leaves the runtime idle, so
    /// its timers do not fire while the load runs.
    fn tick(&self, now: u64) {
        let Some(probe) = &self.probe else { return };
        let mut shared = self.shared();
        let Some(part) = shared.traced.as_mut().filter(|p| !p.done && now >= p.from) else {
            return;
        };
        let cpu = |part: &TracedPart| {
            let cluster = self.cluster_schedstat.as_deref().map_or(0, thread_cpu_ns);
            (thread_cpu_ns(OWN_SCHEDSTAT) - part.driver_cpu_ns, cluster - part.cluster_cpu_ns)
        };
        if !part.started {
            part.started = true;
            part.before = self.cluster.counters(&self.client);
            (part.driver_cpu_ns, part.cluster_cpu_ns) = cpu(part);
            probe.tracer.set_on(true);
        } else if now >= part.to {
            part.done = true;
            probe.tracer.set_on(false);
            part.after = self.cluster.counters(&self.client);
            (part.driver_cpu_ns, part.cluster_cpu_ns) = cpu(part);
        } else if now >= part.next_sample {
            part.next_sample = now + PENDING_SAMPLE_NS;
            part.pending.push(self.cluster.pending_len() as u64);
        }
    }

    /// Runs the workload's callers until `until`.
    async fn run_callers(self: &Arc<Self>, phase: Phase, until: u64) {
        let callers: Vec<_> = (0..self.workload.callers)
            .map(|_| {
                let driver = Arc::clone(self);
                tokio::spawn(async move {
                    loop {
                        let now = now_ns();
                        driver.tick(now);
                        if now >= until {
                            break;
                        }
                        let job = match phase {
                            Phase::Load => driver.shared().next_job(),
                            Phase::Quiet => driver.shared().next_readback(),
                        };
                        // Submit to completion: generating the job is the
                        // caller's think time, not the system's latency.
                        let start = now_ns();
                        let result = driver.issue(&job).await;
                        driver.shared().complete(job, result, phase, (start, now_ns()));
                    }
                })
            })
            .collect();
        for caller in callers {
            if caller.await.is_err() {
                self.shared().fail("a caller panicked".into());
            }
        }
    }

    /// Waits for the last sync round and its witness gc, then checks the
    /// cluster's own invariants.
    async fn quiesce(&self) {
        let deadline = now_ns() + 5_000_000_000;
        loop {
            let q = self.cluster.quiesce();
            if q.settled() {
                return;
            }
            if now_ns() > deadline {
                return self.shared().fail(format!("cluster did not quiesce: {q:?}"));
            }
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
    }

    /// Reads every written key back and compares it with the book.
    async fn read_back_all(&self) {
        let reader = PipelinedClient::new(
            Arc::clone(&self.client),
            PipelineConfig { window: 256, max_batch: 64 },
        );
        let keys = self.shared().book.written.clone();
        let mut reads = Vec::with_capacity(keys.len());
        for key in keys {
            reads.push((key, reader.submit(get(key)).await));
        }
        for (key, read) in reads {
            let result = match read {
                Ok(completion) => completion.await,
                Err(e) => Err(e),
            };
            self.shared().complete(Job::Get { key }, result, Phase::Quiet, (0, 0));
        }
    }

    /// Warm-up, the measured window, the read-back window of a write-only
    /// workload, and the correctness checks.
    pub async fn run(self: Arc<Self>, timing: Timing) -> Outcome {
        let t0 = now_ns() + timing.warmup;
        {
            let mut shared = self.shared();
            shared.write = Recorder::new(t0, timing.window);
            shared.read = Recorder::new(t0, timing.window);
            if self.probe.is_some() {
                let slice = timing.window / SLICES as u64;
                shared.traced = Some(TracedPart {
                    from: t0 + UNTRACED_SLICES as u64 * slice,
                    to: t0 + SLICES as u64 * slice,
                    ..Default::default()
                });
            }
        }
        self.run_callers(Phase::Load, t0 + timing.window).await;
        self.quiesce().await;
        if timing.readback > 0 {
            let tracer = self.probe.as_ref().map(|p| &p.tracer);
            tracer.inspect(|t| t.set_on(true));
            let t1 = now_ns();
            self.shared().read = Recorder::new(t1, timing.readback);
            self.run_callers(Phase::Quiet, t1 + timing.readback).await;
            tracer.inspect(|t| t.set_on(false));
        }
        self.read_back_all().await;
        self.quiesce().await;

        let mut shared = self.shared();
        Outcome {
            write: std::mem::replace(&mut shared.write, Recorder::idle()),
            read: std::mem::replace(&mut shared.read, Recorder::idle()),
            attempted: shared.attempted,
            failed: shared.failed,
            notes: std::mem::take(&mut shared.notes),
            user_bytes: shared.book.user_bytes,
            traced: shared.traced.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_slices_by_completion_time() {
        let mut r = Recorder::new(1_000, 100 * SLICES as u64);
        r.record(0, 999); // before the window
        r.record(900, 1_000); // first slice
        r.record(1_000, 999 + 100 * SLICES as u64); // last slice
        r.record(1_000, 1_000 + 100 * SLICES as u64); // after the window
        let mut counts = vec![0; SLICES];
        (counts[0], counts[SLICES - 1]) = (1, 1);
        assert_eq!(r.counts(), counts);
        assert_eq!(r.samples(), 2);
        // Too few samples per slice: pooled over the range.
        assert_eq!(r.quantile_us(0.5, 0..SLICES), 0.1);
    }

    #[test]
    fn book_keeps_the_highest_version_and_judges_reads() {
        let mut book = Book { latest: vec![None; 2], written: vec![], issued: None, user_bytes: 0 };
        let val = |b: u8| Bytes::from(vec![b; VALUE_LEN]);
        let put = |v| Job::Put { key: 1, value: val(v) };
        assert!(book.check(&put(7), Ok(OpResult::Written { version: 2 }), Phase::Load).is_ok());
        assert!(book.check(&put(8), Ok(OpResult::Written { version: 1 }), Phase::Load).is_ok());
        assert_eq!(book.written, vec![1]);
        let read = Job::Get { key: 1 };
        assert!(book.check(&read, Ok(OpResult::Value(Some(val(7)))), Phase::Quiet).is_ok());
        assert!(book.check(&read, Ok(OpResult::Value(Some(val(8)))), Phase::Quiet).is_err());
        assert!(book.check(&read, Ok(OpResult::Value(None)), Phase::Quiet).is_err());
    }
}
