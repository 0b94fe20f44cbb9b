//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root is [`manifest`]'s output
//! (`e2e --manifest`); a test keeps the two equal.

use crate::cluster::ClusterSpec;

/// One traffic shape and the cluster it runs against.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Which layers it stresses or bypasses; copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub cluster: ClusterSpec,
    /// Size of the key space.
    pub keys: u64,
    /// Zipfian(0.99) key choice over a fully preloaded key space, not uniform.
    pub zipf: bool,
    /// Share of operations that are `CurpClient::read`. Write-only
    /// workloads read back in a window of their own after the writes.
    pub read_fraction: f64,
    /// Closed-loop callers sharing the one client handle.
    pub callers: usize,
    /// Callers go through `PipelinedClient` (default window 16, batch 16).
    pub pipelined: bool,
    /// Every end-to-end metric repeats within its bound from run to run on
    /// the two-core box the benchmark was written on. Only these workloads
    /// are listed in `BENCHMARK.json`; the others run the same way but what
    /// they measure (DRAM latency, fsync latency) drifts by more than any
    /// bound the manifest may state, see README.md.
    pub steady: bool,
}

const TCP3: ClusterSpec = ClusterSpec { tcp: true, replicas: 3, durable: false };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tcp_serial_write",
        why: "Fig. 5 point: one 3-way replicated update in flight over TCP; latency is two \
              reactor wake-ups, so transport and client-path changes show, witness/master/storage \
              must not",
        cluster: TCP3,
        keys: 100_000,
        zipf: false,
        read_fraction: 0.0,
        callers: 1,
        pipelined: false,
        steady: true,
    },
    Workload {
        name: "tcp_serial_write_unrep",
        why: "unreplicated baseline (f=0, no witness records): bypasses witness, backup and the \
              sync round; its gap to tcp_serial_write is CURP's overhead",
        cluster: ClusterSpec { tcp: true, replicas: 0, durable: false },
        keys: 100_000,
        zipf: false,
        read_fraction: 0.0,
        callers: 1,
        pipelined: false,
        steady: true,
    },
    Workload {
        name: "tcp_pipelined_write",
        why: "Fig. 6 throughput shape: window-16 batched updates over TCP amortise round trips, \
              so codec, witness, master and the background sync round do the work",
        cluster: TCP3,
        keys: 100_000,
        zipf: false,
        read_fraction: 0.0,
        callers: 16,
        pipelined: true,
        steady: true,
    },
    Workload {
        name: "tcp_ycsb_a_zipf",
        why: "16 callers, 50% reads, Zipfian 0.99 over 1000 keys: conflicting writes, witness \
              rejects, hot-key syncs and reads of unsynced keys, the slow paths of section 3.2",
        cluster: TCP3,
        keys: 1_000,
        zipf: true,
        read_fraction: 0.5,
        callers: 16,
        pipelined: false,
        steady: true,
    },
    Workload {
        name: "mem_pipelined_write",
        why: "zero-latency in-memory network on one thread: bypasses TCP and the codec, so it is \
              the CPU cost of client, master, 3 witnesses and 3 backups",
        cluster: ClusterSpec { tcp: false, replicas: 3, durable: false },
        keys: 100_000,
        zipf: false,
        read_fraction: 0.0,
        callers: 16,
        pipelined: true,
        steady: false,
    },
    Workload {
        name: "tcp_durable_pipelined_write",
        why: "tcp_pipelined_write with every server durable: witness journal fsync on the record \
              path and backup AOF fsync in the sync round; fsync cadence shows here only",
        cluster: ClusterSpec { tcp: true, replicas: 3, durable: true },
        keys: 100_000,
        zipf: false,
        read_fraction: 0.0,
        callers: 16,
        pipelined: true,
        steady: false,
    },
];

/// A metric's name, unit and direction; end-to-end metrics also fix the
/// share of the parent's median by which they may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: false, bound }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: true, bound }
}

/// Between runs of one binary on the two-core box this was written on, the
/// interquartile range of these reaches a tenth of their median in noisy
/// minutes (README, Steadiness), so a tighter bound would flag noise.
pub const END_TO_END: [Metric; 4] = [
    lower("write_p50_us", "us", 0.25),
    lower("read_p50_us", "us", 0.25),
    higher("ops_s", "1/s", 0.25),
    lower("setup_s", "s", 0.25),
];

pub const PER_LAYER: [Metric; 33] = [
    // Whole-system tails ride here, unbounded: on a shared two-core box a
    // p99 moves by more than the largest bound between runs of one binary.
    lower("e2e.write_p99_us", "us", 0.0),
    lower("e2e.read_p99_us", "us", 0.0),
    lower("transport.rtt_us_p50", "us", 0.0),
    lower("transport.msgs_per_op", "count", 0.0),
    higher("transport.ops_per_frame", "count", 0.0),
    lower("proto.encode_ns_per_op", "ns", 0.0),
    lower("proto.decode_ns_per_op", "ns", 0.0),
    lower("proto.bytes_per_op", "bytes", 0.0),
    higher("core.client.fast_path_frac", "frac", 0.0),
    lower("core.client.synced_frac", "frac", 0.0),
    lower("core.client.explicit_sync_frac", "frac", 0.0),
    lower("core.client.restarts_per_kop", "count", 0.0),
    lower("core.client.self_us_p50", "us", 0.0),
    lower("core.client.rpcs_per_read", "count", 0.0),
    lower("core.master.handle_update_us_p50", "us", 0.0),
    lower("core.master.handle_read_us_p50", "us", 0.0),
    lower("core.master.busy_frac", "frac", 0.0),
    lower("core.master.conflict_frac", "frac", 0.0),
    higher("core.master.ops_per_sync", "count", 0.0),
    lower("core.master.sync_round_us_p50", "us", 0.0),
    lower("core.master.pending_p99", "count", 0.0),
    lower("witness.handle_us_p50", "us", 0.0),
    lower("witness.record_ns_per_op", "ns", 0.0),
    higher("witness.accept_frac", "frac", 0.0),
    lower("witness.gc_msgs_per_op", "count", 0.0),
    lower("core.backup.handle_sync_us_p50", "us", 0.0),
    lower("storage.backup_apply_ns_per_op", "ns", 0.0),
    lower("storage.aof_sync_us_per_batch", "us", 0.0),
    lower("storage.disk_bytes_per_user_byte", "ratio", 0.0),
    lower("cluster.cpu_us_per_op", "us", 0.0),
    lower("driver.cpu_us_per_op", "us", 0.0),
    lower("driver.cpu_frac", "frac", 0.0),
    lower("trace.overhead_frac", "frac", 0.0),
];

/// Seconds one run measures, the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let better = |m: &Metric| if m.higher_is_better { "higher" } else { "lower" };
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2e\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  \
         ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(
            WORKLOADS
                .iter()
                .filter(|w| w.steady)
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m),
                    m.bound
                ))
                .collect()
        ),
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m)
                ))
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `e2e --manifest > BENCHMARK.json`");
    }

    #[test]
    fn names_and_reasons_fit_the_contract() {
        let ok = |s: &str, extra: &str| {
            s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for w in &WORKLOADS {
            assert!(ok(w.name, "_.-") && w.name.len() <= 64, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.name, "_.-") && m.name.len() <= 64, "{}", m.name);
            assert!(ok(m.unit, "_/%.-") && m.unit.len() <= 16, "{}", m.unit);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
