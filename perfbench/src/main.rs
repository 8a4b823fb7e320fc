//! `perfbench` — the repository's same-box benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold|sweep_latency|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! an untraced pass and a traced pass over the same operations and reports
//! the per-layer split.  Every run checks the program's outputs and exits
//! non-zero on a mismatch.  The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  See `perfbench/README.md`.

mod gen;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The end-to-end metrics every workload reports (untraced run).
pub struct EndToEnd {
    pub setup_s: f64,
    /// Per-operation latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Measured wall seconds the operations ran in.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let p = |q| stats::percentile(&self.latencies_ms, q).unwrap_or(0.0);
        vec![
            Metric {
                name: "setup_s",
                value: self.setup_s,
                unit: "s",
            },
            Metric {
                name: "p50_ms",
                value: p(0.5),
                unit: "ms",
            },
            Metric {
                name: "p90_ms",
                value: p(0.9),
                unit: "ms",
            },
            Metric {
                name: "ops_per_s",
                value: self.latencies_ms.len() as f64 / self.wall_s,
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_mb,
                unit: "MiB",
            },
        ]
    }
}

/// Every per-layer metric and its unit, in report order.
const LAYER_METRICS: [(&str, &str); 55] = [
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("workloads.trace_bytes", "B"),
    ("dag.csr_s", "s"),
    ("dag.stream_s", "s"),
    ("dag.lanes_s", "s"),
    ("dag.stream_steps", "count"),
    ("dag.lanes_bytes", "B"),
    ("experiment.build_cache_hit_ratio", "ratio"),
    ("sim.engine_s", "s"),
    ("sim.engine_pdf_s", "s"),
    ("sim.engine_ws_s", "s"),
    ("sim.seq_baseline_s", "s"),
    ("sim.ns_per_access", "ns"),
    ("sim.l1_accesses", "count"),
    ("sim.l2_accesses", "count"),
    ("sim.l3_accesses", "count"),
    ("sim.mem_fills", "count"),
    ("sim.tasks", "count"),
    ("sim.cycles", "count"),
    ("sim.batch_s", "s"),
    ("sim.batch_replay_ratio", "ratio"),
    ("sim.batch_speedup", "x"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.pdf_over_ws_l2_misses", "ratio"),
    ("experiment.record_s", "s"),
    ("experiment.encode_s", "s"),
    ("experiment.report_bytes", "B"),
    ("store.key_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.gets", "count"),
    ("store.puts", "count"),
    ("store.bytes", "B"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.frame_parse_s", "s"),
    ("serve.frame_render_s", "s"),
    ("serve.frames", "count"),
    ("serve.wire_bytes", "B"),
    ("serve.hit_ratio", "ratio"),
    ("serve.panics_caught", "count"),
    ("serve.timeouts", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.first_result_p90_ms", "ms"),
    ("runtime.fanout_s", "s"),
    ("runtime.busy_s", "s"),
    ("runtime.efficiency", "ratio"),
    ("trace.ops", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// The per-layer metrics of a traced run.  A layer the workload does not
/// exercise reports 0.  Times are self seconds per operation of the traced
/// pass; counts and bytes are per operation unless noted.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Fill the engine-side layers from a traced pass over `ops` operations.
    pub fn from_trace(lt: &layers::LayerTimes, c: &layers::Counts, ops: f64) -> Layers {
        let t = |name: &str| lt.self_s.get(name).copied().unwrap_or(0.0) / ops;
        let engine_s = t("sim.engine_pdf")
            + t("sim.engine_ws")
            + t("sim.engine_other")
            + t("sim.seq_baseline");
        let per = |v: u64| v as f64 / ops;
        let mut l = Layers::default();
        l.set("workloads.build_s", t("workloads.build"));
        l.set("dag.csr_s", t("dag.csr"));
        l.set("dag.stream_s", t("dag.stream"));
        l.set("dag.lanes_s", t("dag.lanes"));
        l.set("sim.engine_pdf_s", t("sim.engine_pdf"));
        l.set("sim.engine_ws_s", t("sim.engine_ws"));
        l.set("sim.seq_baseline_s", t("sim.seq_baseline"));
        l.set("sim.batch_s", t("sim.batch"));
        l.set("experiment.record_s", t("experiment.record"));
        l.set("experiment.encode_s", t("experiment.encode"));
        l.set("workloads.builds", per(c.builds));
        l.set("workloads.trace_bytes", per(c.trace_bytes));
        l.set("dag.stream_steps", per(c.stream_steps));
        l.set("dag.lanes_bytes", per(c.lanes_bytes));
        // Points that reused a build (from an earlier point or their batch
        // group's shared build) over all points.
        l.set(
            "experiment.build_cache_hit_ratio",
            ratio(c.points.saturating_sub(c.builds) as f64, c.points as f64),
        );
        l.set("sim.engine_s", engine_s);
        l.set(
            "sim.ns_per_access",
            ratio((engine_s + t("sim.batch")) * 1e9, per(c.l1_accesses)),
        );
        l.set("sim.l1_accesses", per(c.l1_accesses));
        l.set("sim.l2_accesses", per(c.l2_accesses));
        l.set("sim.l3_accesses", per(c.l3_accesses));
        l.set("sim.mem_fills", per(c.mem_fills));
        l.set("sim.tasks", per(c.tasks));
        l.set("sim.cycles", per(c.cycles));
        l.set(
            "sim.batch_replay_ratio",
            ratio(c.batch_replayed as f64, c.batch_configs as f64),
        );
        l.set("experiment.report_bytes", per(c.report_bytes));
        l.set("runtime.fanout_s", lt.fanout_s / ops);
        l.set("runtime.busy_s", lt.busy_s / ops);
        l.set("runtime.efficiency", ratio(lt.busy_s, c.pool_capacity_s));
        l.set("trace.ops", ops);
        l.set("trace.coverage", lt.coverage);
        l
    }

    /// Modelled cache statistics of a fixed set of records (the digest
    /// prefix): a speed-only change must leave these exactly equal.
    pub fn set_cache_stats(&mut self, records: &[ccs_experiment::RunRecord]) {
        let sum = |f: fn(&ccs_experiment::RunRecord) -> u64, sched: Option<&str>| -> f64 {
            records
                .iter()
                .filter(|r| sched.is_none_or(|s| r.scheduler == s))
                .map(f)
                .sum::<u64>() as f64
        };
        let hit = |misses: f64, accesses: f64| 1.0 - ratio(misses, accesses);
        self.set(
            "cache.l1_hit_ratio",
            hit(sum(|r| r.l1_misses, None), sum(|r| r.l1_accesses, None)),
        );
        self.set(
            "cache.l2_hit_ratio",
            hit(sum(|r| r.l2_misses, None), sum(|r| r.l2_accesses, None)),
        );
        self.set(
            "cache.pdf_over_ws_l2_misses",
            ratio(
                sum(|r| r.l2_misses, Some("pdf")),
                sum(|r| r.l2_misses, Some("ws")),
            ),
        );
    }

    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// `a / b`, or 0 when there is no base.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Print a latency percentile with its sample count (`n/a` below the
/// ten-samples-beyond rule).
pub fn print_pct(label: &str, samples: &[f64], p: f64) {
    match stats::percentile(samples, p) {
        Some(v) => println!("  {label:<24} {v:>12.3} ms   (n={})", samples.len()),
        None => println!(
            "  {label:<24} {:>12}      (n={}, needs {})",
            "n/a",
            samples.len(),
            stats::min_samples(p)
        ),
    }
}

/// Write the traced pass's spans for a trace viewer and say where.
pub fn report_trace_file(workload: &str, spans: &[trace::Span]) {
    match trace::write_chrome_trace(workload, spans) {
        Ok(path) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace file not written: {e}"),
    }
}

const WORKLOADS: [&str; 3] = ["sweep_cold", "sweep_latency", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload
            .filter(|w| WORKLOADS.contains(&w.as_str()))
            .ok_or_else(|| format!("--workload is one of {}", WORKLOADS.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space inside the working directory (the checkout), removed on
/// drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "sweep_cold" => sweep::run(sweep::Kind::Cold, args.seed, args.seconds, args.trace),
        "sweep_latency" => sweep::run(sweep::Kind::Latency, args.seed, args.seconds, args.trace),
        "serve_mixed" => match Scratch::new() {
            Ok(scratch) => serve::run(args.seed, args.seconds, args.trace, &scratch.0),
            Err(e) => {
                eprintln!("error: scratch dir: {e}");
                return ExitCode::from(2);
            }
        },
        other => unreachable!("workload {other} passed parse_args"),
    };
    for (name, ok) in &outcome.checks {
        println!("check {:<40} {}", name, if *ok { "ok" } else { "MISMATCH" });
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if outcome.correct() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
