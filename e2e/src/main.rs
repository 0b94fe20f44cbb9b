//! `e2e`: the wall-clock CURP benchmark over loopback TCP.
//!
//! ```sh
//! cargo run --release --manifest-path e2e/Cargo.toml -- --workload tcp_serial_write --seed 1
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how to read the ledger.

mod cluster;
mod load;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use run::Options;
use spec::{Workload, END_TO_END, RUN_SECONDS, WORKLOADS};

/// Everything the benchmark writes goes under this directory of the
/// checkout: durable servers' data, replay scratch and span dumps.
const SCRATCH_ROOT: &str = ".bench_tmp";

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--repeat N] [--smoke] [--manifest]";

struct Args {
    workloads: Vec<&'static Workload>,
    options: Options,
    repeat: usize,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        options: Options { seed: 1, seconds: RUN_SECONDS as f64, trace: false, smoke: false },
        repeat: 1,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("{v} is not a number"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = WORKLOADS.iter().find(|w| w.name == name);
                args.workloads = vec![w.ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => args.options.seed = number(value("a number")?)? as u64,
            "--seconds" => args.options.seconds = number(value("a number")?)?,
            "--repeat" => args.repeat = number(value("a count")?)? as usize,
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.options.trace = v == "1",
                next => {
                    args.options.trace = true;
                    pending = next;
                }
            },
            "--smoke" => {
                args.options.smoke = true;
                args.options.seconds = 0.3;
            }
            "--manifest" => {
                print!("{}", spec::manifest());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.options.seconds > 0.0 && args.repeat > 0) {
        return Err("--seconds and --repeat must be positive".into());
    }
    Ok(Some(args))
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` cuts them.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() + 1) as f64 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(s.len() - 1);
        let hi = (lo + 1).min(s.len() - 1);
        s[lo] + (pos - lo as f64).clamp(0.0, 1.0) * (s[hi] - s[lo])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// A metric's value in a result line.
fn metric_value(json: &str, name: &str) -> Option<f64> {
    let rest = json.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    rest.split_once(',')?.0.parse().ok()
}

/// Prints min, median, max and the interquartile spread of each end-to-end
/// metric over the result lines of several runs, flagging a spread wider
/// than the metric's own bound.
fn print_spread(w: &Workload, results: &[String]) {
    println!("# {} over {} runs", w.name, results.len());
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "metric", "min", "median", "max", "iqr/med", "bound"
    );
    for m in &END_TO_END {
        let v: Vec<f64> = results.iter().filter_map(|r| metric_value(r, m.name)).collect();
        if v.len() < 2 {
            continue;
        }
        let (q1, q2, q3) = quartiles(&v);
        let spread = stats::ratio(q3 - q1, q2);
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>8.4} {:>6}{}",
            m.name,
            v.iter().copied().fold(f64::INFINITY, f64::min),
            q2,
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            spread,
            m.bound,
            if spread > m.bound && m.name != "setup_s" { "  SPREAD EXCEEDS BOUND" } else { "" }
        );
    }
}

/// Runs `w` once in a process of its own, the way the driver does, so that
/// no run inherits another's sockets, threads or heap. Returns whether the
/// run was correct and its result line.
fn run_in_child(w: &Workload, options: &Options) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe);
    child.args(["--workload", w.name, "--seed", &options.seed.to_string()]);
    child.args([
        "--seconds",
        &options.seconds.to_string(),
        "--trace",
        &(options.trace as u8).to_string(),
    ]);
    if options.smoke {
        child.arg("--smoke");
    }
    let out = child.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let result = stdout.trim_end().lines().last().unwrap_or_default().to_string();
    Ok((out.status.success(), result))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `curp_storage::TempDir` roots itself at the OS temp directory; the
    // benchmark may write only inside its checkout. Set before any thread
    // starts.
    let root = std::env::current_dir().unwrap_or_default().join(SCRATCH_ROOT);
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("e2e: cannot create {}: {e}", root.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &root);

    let mut all_correct = true;
    for w in args.workloads {
        let mut results = Vec::new();
        for i in 0..args.repeat {
            let options = Options { seed: args.options.seed + i as u64, ..args.options };
            let outcome = if args.repeat > 1 {
                run_in_child(w, &options)
            } else {
                run::run(w, &options).map(|run| {
                    println!("{}", run.json());
                    (run.correct(), run.json())
                })
            };
            match outcome {
                Ok((correct, result)) => {
                    all_correct &= correct;
                    results.push(result);
                }
                Err(e) => {
                    eprintln!("e2e: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.repeat > 1 {
            print_spread(w, &results);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::Run;
    use spec::PER_LAYER;

    fn names(run: &Run) -> Vec<&'static str> {
        run.metrics.iter().map(|m| m.0).collect()
    }

    /// Runs the in-memory workload for a moment, untraced and traced, and
    /// checks that the printed names are the ones `BENCHMARK.json` lists
    /// (`spec::tests` ties the file to the tables). Times nothing.
    #[test]
    fn smoke_run_reports_every_named_metric() {
        let root = std::env::current_dir().unwrap().join("target").join(SCRATCH_ROOT);
        std::fs::create_dir_all(&root).unwrap();
        std::env::set_var("TMPDIR", &root);
        let w = WORKLOADS.iter().find(|w| w.name == "mem_pipelined_write").unwrap();
        let mut options = Options { seed: 1, seconds: 0.3, trace: false, smoke: true };
        let run = run::run(w, &options).unwrap();
        assert!(run.correct() && run.attempted > 0);
        assert_eq!(names(&run), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(run.metrics.iter().all(|m| m.2 > 0.0), "{}", run.json());
        options.trace = true;
        let run = run::run(w, &options).unwrap();
        assert!(run.correct(), "{}", run.json());
        assert_eq!(names(&run), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = "--workload tcp_ycsb_a_zipf --seed 7 --seconds 3 --trace 1";
        let args = parse(argv.split(' ').map(String::from)).unwrap().unwrap();
        assert_eq!(args.workloads[0].name, "tcp_ycsb_a_zipf");
        assert_eq!((args.options.seed, args.options.seconds), (7, 3.0));
        assert!(args.options.trace);
        let args = parse("--trace --seed 2".split(' ').map(String::from)).unwrap().unwrap();
        assert!(args.options.trace && args.options.seed == 2 && args.workloads.len() == 6);
        assert!(parse(["--workload".to_string(), "nope".to_string()].into_iter()).is_err());
    }

    #[test]
    fn result_lines_parse_back() {
        let run = Run {
            attempted: 3,
            failed: 0,
            metrics: vec![("ops_s", "1/s", 1234.5), ("setup_s", "s", 0.25)],
        };
        assert_eq!(metric_value(&run.json(), "ops_s"), Some(1234.5));
        assert_eq!(metric_value(&run.json(), "setup_s"), Some(0.25));
        assert_eq!(metric_value(&run.json(), "write_p50_us"), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
