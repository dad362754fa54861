//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--threads <t>]
//! ```
//!
//! Workloads: `mine-dense`, `mine-wide`, `serve-read`, `serve-ingest`
//! (see `README.md` next to this package). An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) prints the
//! per-layer metrics. Every metric is printed by name with its unit,
//! then the last line is one JSON object with `correct`, `attempted`,
//! `failed` and the metrics named in `BENCHMARK.json`. Exit status is 0
//! when every output check passed, 3 when one failed, 2 on bad usage.

mod data;
mod http;
mod layers;
mod mine;
mod openloop;
mod report;
mod serve;
mod spans;
mod stats;

use data::DataSpec;
use farmer_dataset::synth::PaperDataset;
use report::RunResult;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run reports, as listed in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
];

/// The per-layer metrics every traced run reports, as listed in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("dataset.synth_s", "s"),
    ("dataset.discretize_s", "s"),
    ("core.transpose_s", "s"),
    ("core.enumerate_busy_s", "s"),
    ("core.lane_idle_s", "s"),
    ("core.merge_s", "s"),
    ("core.lower_bounds_s", "s"),
    ("minelb.calls", "count"),
    ("core.serial_tail_share", "ratio"),
    ("core.nodes", "count"),
    ("core.groups", "count"),
    ("core.nodes_per_s", "1/s"),
    ("core.deferred_groups", "count"),
    ("core.interesting_ratio", "ratio"),
    ("core.steals", "count"),
    ("core.scaling_vs_t1", "ratio"),
    ("rowset.fused_scans", "count"),
    ("rowset.fused_scan_s", "s"),
    ("store.encode_s", "s"),
    ("store.artifact_bytes", "bytes"),
    ("store.decode_s", "s"),
    ("serve.index_build_s", "s"),
    ("serve.match_us", "us"),
    ("serve.http_us", "us"),
    ("serve.connects_per_req", "ratio"),
    ("serve.shed", "count"),
    ("serve.reload_s", "s"),
    ("pipeline.apply_rows_s", "s"),
    ("pipeline.assemble_s", "s"),
    ("pipeline.publish_s", "s"),
    ("pipeline.wait_s", "s"),
    ("pipeline.remines_per_ingest", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Set-up repetitions of a mining run before its first job, after the
/// warm-up; more follow between the jobs.
pub const SETUP_REPS: usize = 3;

/// Set-up repetitions of a serve run after the warm-up. A fixed count,
/// not a time budget: every set-up mines and starts a server, and the
/// process's peak RSS grows with the repetitions (18.7 MiB after 9,
/// 28.0 MiB after 21), so a budget would tie `peak_rss_mb` to the
/// host's speed.
pub const SERVE_SETUP_REPS: usize = 7;

/// Upper limit on a mining run's set-up repetitions.
pub const MAX_SETUP_REPS: usize = 500;

/// The median of set-up repetition times after the first. The first
/// runs in a cold process — fresh heap, CPU just woken — and its time
/// swung by a quarter between otherwise equal runs, so it is a warm-up.
pub fn setup_median(times: &[f64]) -> f64 {
    stats::median(times.get(1..).filter(|t| !t.is_empty()).unwrap_or(times))
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// How long the measured phase runs, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Mining threads; never more than `host_cores`.
    pub threads: usize,
    /// `std::thread::available_parallelism`.
    pub host_cores: usize,
    /// Scratch directory for artifacts and journals (removed at exit).
    pub work_dir: PathBuf,
}

/// A workload's inputs: which data, which support threshold.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The dataset analog.
    pub data: DataSpec,
    /// Absolute minimum support.
    pub min_sup: usize,
}

/// A workload and its inputs.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// A batch mining job.
    Mine(Spec),
    /// Open-loop classify reads.
    ServeRead(Spec),
    /// Ingest beside classify reads.
    ServeIngest(Spec),
}

/// Every workload name, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["mine-dense", "mine-wide", "serve-read", "serve-ingest"];

/// The analog datasets at the CLI's defaults (`farmer synth --preset
/// <code>` uses synth seed 1 and 5% of the paper's genes; `farmer
/// discretize --method equal-depth:10`). The smoke tests shrink the
/// gene count.
fn analog(preset: PaperDataset, synth_seed: Option<u64>, tiny: bool) -> DataSpec {
    DataSpec {
        preset,
        synth_seed,
        col_scale: if tiny { 0.005 } else { 0.05 },
    }
}

/// The workload named `name`; `tiny` shrinks the inputs for the smoke
/// tests.
pub fn workload(name: &str, tiny: bool) -> Option<Workload> {
    // the artifact the pr7_serving, pr9_observability and pr10_pipeline
    // bench bins serve: the ALL analog at its preset seed, min_sup 4
    let serve = Spec {
        data: analog(PaperDataset::Leukemia, None, tiny),
        min_sup: 4,
    };
    Some(match name {
        "mine-dense" => Workload::Mine(Spec {
            data: analog(PaperDataset::Leukemia, Some(1), tiny),
            min_sup: 3,
        }),
        "mine-wide" => Workload::Mine(Spec {
            data: analog(PaperDataset::LungCancer, Some(1), tiny),
            min_sup: 9,
        }),
        "serve-read" => Workload::ServeRead(serve),
        "serve-ingest" => Workload::ServeIngest(serve),
        _ => return None,
    })
}

/// Runs one workload and returns everything it measured.
pub fn run(w: &Workload, opts: &Opts) -> RunResult {
    std::fs::create_dir_all(&opts.work_dir).expect("creating the work directory");
    let mut res = match w {
        Workload::Mine(spec) => mine::run(spec, opts),
        Workload::ServeRead(spec) => serve::run_read(spec, opts),
        Workload::ServeIngest(spec) => serve::run_ingest(spec, opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    res.lines.insert(
        0,
        format!(
            "workload={} seed={} trace={} seconds={} threads={} host_cores={} rev={}",
            opts.workload,
            opts.seed,
            u8::from(opts.trace),
            opts.seconds,
            opts.threads,
            opts.host_cores,
            revision()
        ),
    );
    res
}

/// The source revision: `git rev-parse HEAD` when the working directory
/// is a git checkout's root, else `unknown` (a plain source tree; git is
/// not asked, so nothing outside the tree is read).
fn revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Records what every run reports last — `peak_rss_mb` and
/// `error_rate` — and writes a traced run's spans. `peak_rss` is a
/// `(MiB, how)` taken earlier in the run, or `None` for VmHWM now.
pub fn finish(
    res: &mut RunResult,
    opts: &Opts,
    spans: &spans::Spans,
    peak_rss: Option<(f64, &str)>,
) {
    let (peak, how) = peak_rss.unwrap_or((report::peak_rss_mib().unwrap_or(f64::NAN), "VmHWM"));
    res.put("peak_rss_mb", "MiB", peak, how);
    res.put(
        "error_rate",
        "ratio",
        res.failed as f64 / res.attempted.max(1) as f64,
        "(failed + shed + wrong) / attempted",
    );
    if spans.enabled() {
        write_spans(spans, opts);
    }
}

/// Writes a traced run's spans next to the work directory.
fn write_spans(spans: &spans::Spans, opts: &Opts) {
    let Some(root) = opts.work_dir.parent() else {
        return;
    };
    let path = root.join(format!("{}-seed{}.spans.jsonl", opts.workload, opts.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("warning: writing spans to {}: {e}", path.display());
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--threads <t>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Opts {
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: host_cores,
        host_cores,
        work_dir: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    bad();
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--threads" => opts.threads = value.parse().unwrap_or_else(|_| bad()),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        usage("--workload is required");
    }
    if opts.threads == 0 || opts.threads > host_cores {
        usage(&format!(
            "--threads {} refused: this host has {host_cores} cores and the benchmark never \
             oversubscribes",
            opts.threads
        ));
    }
    opts.work_dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);
    let Some(w) = workload(&opts.workload, false) else {
        usage(&format!("unknown workload {:?}", opts.workload));
    };
    let res = run(&w, &opts);
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for line in &res.lines {
        println!("# {line}");
    }
    for m in &res.metrics {
        println!("metric {} = {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
    match res.result_json(wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if res.failed > 0 {
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_support::json::Json;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Json::Arr(items) = &j[key] else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let Json::Arr(ws) = &j["workloads"] else {
            panic!("workloads is not an array");
        };
        let listed: Vec<&str> = ws.iter().map(|w| w["name"].as_str().unwrap()).collect();
        assert_eq!(listed, WORKLOADS);
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(n) && stats::valid_unit(u), "{n} [{u}]");
        }
    }

    fn smoke(name: &str, trace: bool) {
        let w = workload(name, true).unwrap();
        let opts = Opts {
            workload: name.to_string(),
            seed: 7,
            seconds: 0.6,
            trace,
            threads: std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(2),
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            // spans land next to it, in the package's ignored .bench_work/
            work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join(".bench_work")
                .join(format!("smoke-{}-{name}-{trace}", std::process::id())),
        };
        let res = run(&w, &opts);
        assert_eq!(res.failed, 0, "{name}: {:#?}", res.lines);
        assert!(res.attempted >= 1);
        let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let line = res
            .result_json(wanted)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let j = Json::parse(&line).unwrap();
        for (n, u) in wanted {
            assert_eq!(j["metrics"][*n]["unit"].as_str(), Some(*u), "{name}: {n}");
            assert!(j["metrics"][*n]["value"].as_f64().is_some(), "{name}: {n}");
        }
        for m in &res.metrics {
            assert!(
                stats::valid_name(&m.name) && stats::valid_unit(m.unit),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn smoke_mine_dense() {
        smoke("mine-dense", false);
        smoke("mine-dense", true);
    }

    #[test]
    fn smoke_mine_wide() {
        smoke("mine-wide", false);
        smoke("mine-wide", true);
    }

    #[test]
    fn smoke_serve_read() {
        smoke("serve-read", false);
        smoke("serve-read", true);
    }

    #[test]
    fn smoke_serve_ingest() {
        smoke("serve-ingest", false);
        smoke("serve-ingest", true);
    }
}
