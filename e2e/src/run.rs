//! One run of one workload: set-up, load, checks, and the figures.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tokio::runtime::Runtime;
use tokio::sync::oneshot;

use crate::cluster::{boot, Cluster, Keep, Probe, TempDir};
use crate::load::{Driver, Outcome, Recorder, Timing, SLICES, UNTRACED_SLICES};
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, quiet_quartile, ratio};
use crate::trace::{now_ns, Ledger};

/// Times set-up runs; `setup_s` is the median. Only the last one is used.
const SETUPS: usize = 9;
/// Load that runs before the window opens. The TCP transport arms a 5 s
/// timer per RPC and the vendored runtime keeps each until it expires, so the
/// timer heap, and with it every latency, keeps growing for the first 5 s.
const WARMUP_SECS: f64 = 6.0;
/// The ledger's layers must sum to the untraced p50 within this share.
const LEDGER_TOLERANCE: f64 = 0.15;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Short windows and a single set-up: checks names and plumbing, times
    /// nothing worth keeping.
    pub smoke: bool,
}

/// A run's verdict and figures, in the order `BENCHMARK.json` names them.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records a figure under a name `listed` holds; returns its unit.
    fn push(&mut self, listed: &[Metric], name: &str, v: f64) -> Result<&'static str, String> {
        let m = listed.iter().find(|m| m.name == name).ok_or(format!("unlisted metric {name}"))?;
        self.metrics.push((m.name, m.unit, v));
        Ok(m.unit)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A served cluster and the driver connected to it.
struct Session {
    driver: Arc<Driver>,
    cluster: Arc<Cluster>,
    served: Served,
}

enum Served {
    /// Loopback TCP: the cluster has a thread and a runtime of its own.
    Thread { stop: Option<oneshot::Sender<()>>, thread: Option<std::thread::JoinHandle<()>> },
    /// `MemNetwork`: servers run inside the caller's task, on the driver's thread.
    Inline(#[allow(dead_code)] Keep),
}

impl Drop for Session {
    fn drop(&mut self) {
        self.cluster.retire();
        if let Served::Thread { stop, thread } = &mut self.served {
            let _ = stop.take().map(|s| s.send(()));
            let _ = thread.take().map(|t| t.join());
        }
    }
}

/// Runs `fut` on a fresh runtime of the calling thread.
///
/// The runtime is leaked, not dropped: dropping the vendored runtime frees
/// its parked tasks in arbitrary order, and a channel sender freed that way
/// wakes its receiver's task while holding the channel's lock, which frees
/// that task and its receiver, which takes the same lock. A leaked runtime's
/// tasks are simply never polled again; the process ends soon after.
fn block_on<F: std::future::Future>(fut: F) -> Result<F::Output, String> {
    let rt: Runtime = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .map_err(|e| e.to_string())?;
    let out = rt.block_on(fut);
    std::mem::forget(rt);
    Ok(out)
}

impl Session {
    /// Boots the cluster, creates the partition, connects and preloads.
    async fn start(
        w: &'static Workload,
        seed: u64,
        data_dir: Option<PathBuf>,
        probe: Option<Arc<Probe>>,
    ) -> Result<Session, String> {
        let (cluster, served, schedstat) = if w.cluster.tcp {
            let (booted_tx, booted_rx) = std::sync::mpsc::channel();
            let (stop, stopped) = oneshot::channel::<()>();
            let (cluster_probe, failed_tx) = (probe.clone(), booted_tx.clone());
            let serve = move || {
                let schedstat = std::fs::read_link("/proc/thread-self")
                    .map(|p| format!("/proc/{}/schedstat", p.display()))
                    .unwrap_or_default();
                let booting = async {
                    match boot(w.cluster, data_dir.as_deref(), cluster_probe).await {
                        Ok((cluster, keep)) => {
                            let _ = booted_tx.send(Ok((cluster, schedstat)));
                            let _ = stopped.await;
                            drop(keep);
                        }
                        Err(e) => drop(booted_tx.send(Err(e))),
                    }
                };
                if let Err(e) = block_on(booting) {
                    let _ = failed_tx.send(Err(e));
                }
            };
            let thread = std::thread::Builder::new()
                .name("cluster".into())
                .spawn(serve)
                .map_err(|e| e.to_string())?;
            let served = Served::Thread { stop: Some(stop), thread: Some(thread) };
            let (cluster, schedstat) =
                booted_rx.recv().map_err(|_| "cluster thread died while booting")??;
            (cluster, served, Some(schedstat))
        } else {
            let (cluster, keep) = boot(w.cluster, data_dir.as_deref(), probe.clone()).await?;
            (cluster, Served::Inline(keep), None)
        };
        let cluster = Arc::new(cluster);
        let driver = Driver::connect(w, seed, Arc::clone(&cluster), schedstat, probe).await?;
        Ok(Session { driver, cluster, served })
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Completed operations per second: the quiet quartile over `slices`. Reads
/// count where they share the window with writes.
fn ops_per_sec(write: &Recorder, read: Option<&Recorder>, slices: std::ops::Range<usize>) -> f64 {
    let (w, r) = (write.counts(), read.map(Recorder::counts));
    let each: Vec<f64> = slices
        .map(|i| (w[i] + r.as_ref().map_or(0, |r| r[i])) as f64 / write.slice_secs())
        .collect();
    quiet_quartile(&each, true)
}

/// Runs `w` once and prints its figures.
pub fn run(w: &'static Workload, opt: &Options) -> Result<Run, String> {
    block_on(run_async(w, opt))?
}

async fn run_async(w: &'static Workload, opt: &Options) -> Result<Run, String> {
    let io = |e: std::io::Error| e.to_string();
    let scratch = TempDir::new("curp-e2e").map_err(io)?;
    let probe = opt.trace.then(|| Arc::new(Probe::new()));
    let setups = if opt.smoke { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut session = None;
    for i in 0..setups {
        drop(session.take());
        let last = i + 1 == setups;
        let data_dir = w.cluster.durable.then(|| scratch.path().join(format!("cluster{i}")));
        let t0 = now_ns();
        session =
            Some(Session::start(w, opt.seed, data_dir, probe.clone().filter(|_| last)).await?);
        setup_secs.push((now_ns() - t0) as f64 / 1e9);
    }
    let session = session.expect("at least one set-up");
    let timing = Timing::new(w, opt.seconds, if opt.smoke { 0.1 } else { WARMUP_SECS });
    let mut out = Arc::clone(&session.driver).run(timing).await;
    let disk_bytes = dir_bytes(&scratch.path().join(format!("cluster{}", setups - 1)));
    drop(session);

    let mixed = timing.readback == 0;
    println!(
        "# {} seed={} seconds={} trace={} callers={} ({})",
        w.name,
        opt.seed,
        opt.seconds,
        opt.trace as u8,
        w.callers,
        if w.pipelined { "pipelined, closed loop" } else { "closed loop" }
    );
    for note in &out.notes {
        println!("! {note}");
    }
    let mut run = Run { attempted: out.attempted, failed: out.failed, metrics: Vec::new() };
    match &probe {
        None => {
            let all = 0..SLICES;
            let ops = out.write.samples() + if mixed { out.read.samples() } else { 0 };
            let values = [
                ("write_p50_us", out.write.quantile_us(0.5, all.clone()), out.write.samples()),
                ("read_p50_us", out.read.quantile_us(0.5, all.clone()), out.read.samples()),
                ("ops_s", ops_per_sec(&out.write, mixed.then_some(&out.read), all.clone()), ops),
                ("setup_s", median(&setup_secs), setup_secs.len()),
            ];
            for (name, v, n) in values {
                let unit = run.push(&END_TO_END, name, v)?;
                println!("{name:<14} {v:>14.3} {unit:<4} n={n}");
            }
            let tails = [out.write.quantile_us(0.99, all.clone()), out.read.quantile_us(0.99, all)];
            println!("unbounded: write_p99_us {:.3}, read_p99_us {:.3}", tails[0], tails[1]);
            let qs = [0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
            println!("quantiles {qs:?} of the window, us:");
            println!(
                "  writes {:.0?} per slice {:?}",
                out.write.ladder_us(&qs),
                out.write.counts()
            );
            println!("  reads  {:.0?} per slice {:?}", out.read.ladder_us(&qs), out.read.counts());
            println!("  write p50 per slice {:.0?}", out.write.per_slice_us(0.5));
            println!("  write p99 per slice {:.0?}", out.write.per_slice_us(0.99));
            println!("  read p50 per slice {:.0?}", out.read.per_slice_us(0.5));
            println!("  read p99 per slice {:.0?}", out.read.per_slice_us(0.99));
        }
        Some(probe) => {
            let dump = std::env::temp_dir().join(format!("spans-{}.jsonl", w.name));
            let values =
                per_layer(w, probe, &mut out, mixed, disk_bytes, &scratch, &dump, &mut run)?;
            for (name, v) in values {
                let unit = run.push(&PER_LAYER, name, v)?;
                println!("{name:<34} {v:>14.3} {unit}");
            }
            println!("spans: {}", dump.display());
        }
    }
    println!(
        "attempted={} failed={} failed_frac={}",
        run.attempted,
        run.failed,
        ratio(run.failed as f64, run.attempted as f64)
    );
    Ok(run)
}

/// The traced pass's figures, in [`PER_LAYER`] order. Prints the ledger and
/// counts it as a failure when its layers do not add up.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: &Workload,
    probe: &Probe,
    out: &mut Outcome,
    mixed: bool,
    disk_bytes: u64,
    scratch: &TempDir,
    dump: &Path,
    run: &mut Run,
) -> Result<Vec<(&'static str, f64)>, String> {
    let io = |e: std::io::Error| e.to_string();
    let part = out.traced.take().ok_or("the traced part never started")?;
    let t = probe.tracer.finish(part.from, part.to, dump).map_err(io)?;
    let replay = probe.replay(&scratch.path().join("replay")).map_err(io)?;
    if let Some(at) = probe.tracer.capped_at() {
        println!("! span cap reached {:.2} s into the traced part", (at - part.from) as f64 / 1e9);
    }

    let (untraced, traced) = (0..UNTRACED_SLICES, UNTRACED_SLICES..SLICES);
    let read = mixed.then_some(&out.read);
    let ops_untraced = ops_per_sec(&out.write, read, untraced.clone());
    let ops_traced = ops_per_sec(&out.write, read, traced.clone());
    let count = |r: &Recorder| r.counts()[traced.clone()].iter().sum::<usize>() as f64;
    let ops = count(&out.write) + if mixed { count(&out.read) } else { 0.0 };
    let secs = (part.to - part.from) as f64 / 1e9;

    let (a, b) = (&part.before, &part.after);
    let d = |f: fn(&crate::cluster::Counters) -> u64| (f(b) - f(a)) as f64;
    let writes = d(|c| c.fast_path) + d(|c| c.synced_by_master) + d(|c| c.explicit_sync);
    let records = d(|c| c.witness_accepted) + d(|c| c.witness_rejected);
    let mut pending = part.pending.clone();

    print_ledger(w, &t.ledger, out.write.quantile_us(0.5, untraced.clone()), run);
    // Reads share the window's untraced slices only where they run beside
    // the writes; a read-back window is traced throughout.
    let read_slices = if mixed { untraced.clone() } else { 0..SLICES };
    Ok(vec![
        ("e2e.write_p99_us", out.write.quantile_us(0.99, untraced)),
        ("e2e.read_p99_us", out.read.quantile_us(0.99, read_slices)),
        ("transport.rtt_us_p50", t.rtt_us_p50),
        ("transport.msgs_per_op", t.msgs_per_op),
        ("transport.ops_per_frame", t.ops_per_frame),
        ("proto.encode_ns_per_op", replay.encode_ns_per_op),
        ("proto.decode_ns_per_op", replay.decode_ns_per_op),
        ("proto.bytes_per_op", t.bytes_per_op),
        ("core.client.fast_path_frac", ratio(d(|c| c.fast_path), writes)),
        ("core.client.synced_frac", ratio(d(|c| c.synced_by_master), writes)),
        ("core.client.explicit_sync_frac", ratio(d(|c| c.explicit_sync), writes)),
        ("core.client.restarts_per_kop", ratio(d(|c| c.restarts) * 1e3, writes)),
        ("core.client.self_us_p50", t.client_self_us_p50),
        ("core.client.rpcs_per_read", t.rpcs_per_read),
        ("core.master.handle_update_us_p50", t.master_update_us_p50),
        ("core.master.handle_read_us_p50", t.master_read_us_p50),
        ("core.master.busy_frac", t.master_busy_frac),
        ("core.master.conflict_frac", ratio(d(|c| c.conflicts), d(|c| c.updates))),
        ("core.master.ops_per_sync", ratio(d(|c| c.entries_synced), d(|c| c.syncs))),
        ("core.master.sync_round_us_p50", t.sync_round_us_p50),
        ("core.master.pending_p99", quantile(&mut pending, 0.99) as f64),
        ("witness.handle_us_p50", t.witness_us_p50),
        ("witness.record_ns_per_op", replay.witness_record_ns_per_op),
        ("witness.accept_frac", ratio(d(|c| c.witness_accepted), records)),
        ("witness.gc_msgs_per_op", t.gc_msgs_per_op),
        ("core.backup.handle_sync_us_p50", t.backup_sync_us_p50),
        ("storage.backup_apply_ns_per_op", replay.backup_apply_ns_per_op),
        ("storage.aof_sync_us_per_batch", replay.aof_sync_us_per_batch),
        ("storage.disk_bytes_per_user_byte", ratio(disk_bytes as f64, out.user_bytes as f64)),
        ("cluster.cpu_us_per_op", ratio(part.cluster_cpu_ns as f64 / 1e3, ops)),
        ("driver.cpu_us_per_op", ratio(part.driver_cpu_ns as f64 / 1e3, ops)),
        ("driver.cpu_frac", ratio(part.driver_cpu_ns as f64 / 1e9, secs)),
        ("trace.overhead_frac", 1.0 - ratio(ops_traced, ops_untraced)),
    ])
}

/// Prints where a write's time goes. On the serial TCP workloads, where one
/// op is in flight and the layers are in series, the layers must add up to
/// the untraced median.
fn print_ledger(w: &Workload, l: &Ledger, untraced_p50_us: f64, run: &mut Run) {
    println!(
        "ledger of a write ({} traced ops, p50 {:.1} us; untraced p50 {untraced_p50_us:.1} us)",
        l.samples, l.op_us
    );
    println!("  {:<34} {:>10} {:>7}", "layer", "self us", "share");
    let rows = [
        ("core.client (op minus longest RPC)", l.client_self_us),
        ("transport (RPC minus its handler)", l.transport_us),
        ("handler (longest of master, witness)", l.handler_us),
    ];
    for (layer, us) in rows {
        println!("  {layer:<34} {us:>10.1} {:>6.1}%", 100.0 * ratio(us, l.sum_us()));
    }
    let off = ratio(l.sum_us() - untraced_p50_us, untraced_p50_us);
    println!(
        "  {:<34} {:>10.1} {:>+6.1}% against the untraced p50",
        "sum",
        l.sum_us(),
        100.0 * off
    );
    if w.cluster.tcp && w.callers == 1 && off.abs() > LEDGER_TOLERANCE {
        println!("! LEDGER DOES NOT ADD UP: layers sum to {:.1} us", l.sum_us());
        run.failed += 1;
    }
}
