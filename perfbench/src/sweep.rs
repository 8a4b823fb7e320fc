//! `sweep_cold` and `sweep_latency`: in-process `Experiment::run` over
//! seeded sweeps, each timed as a fresh CLI run pays it (build cache
//! cleared, report encoded).

use std::sync::Mutex;
use std::time::Instant;

use ccs_experiment::canon::fnv1a64;
use ccs_experiment::{build_cache, Experiment, Report, WorkloadSpec};
use ccs_sched::SchedulerSpec;
use ccs_sim::SimEngine;

use crate::gen::{self, SweepDef, SWEEP_SCALE};
use crate::layers::{self, Counts, RunShape};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{print_pct, report_trace_file, EndToEnd, Layers, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Latency,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "sweep_cold",
            Kind::Latency => "sweep_latency",
        }
    }

    fn shape(self) -> RunShape {
        RunShape {
            engine: match self {
                Kind::Cold => SimEngine::EventDriven,
                Kind::Latency => SimEngine::Batch,
            },
            baseline: true,
            parallelism: PARALLELISM,
        }
    }
}

/// Pool threads of every sweep (the box has two vCPUs).
const PARALLELISM: usize = 2;
/// Sweeps generated per run; a run that outpaces them starts over.
const PLANNED: usize = 1000;
/// Spec resolution is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 15;
/// A run measures at least this many sweeps, so `p90_ms` has ten beyond.
const MIN_OPS: usize = 100;
/// The simulated-statistics digest and the cache ratios cover this prefix.
const DIGEST_OPS: usize = 8;
/// Sweeps the batch-vs-event check replays under both engines.
const BATCH_CHECK_OPS: usize = 4;
/// Never measure longer than this, whatever `MIN_OPS` asks.
const HARD_CAP_S: f64 = 100.0;

/// Resolve generated sweeps into experiments: spec parsing and registry
/// lookup, design points, the sweep cross product.
fn resolve(kind: Kind, defs: &[SweepDef]) -> Vec<Experiment> {
    let shape = kind.shape();
    defs.iter()
        .map(|def| {
            let workloads: Vec<WorkloadSpec> = def
                .workloads
                .iter()
                .map(|s| WorkloadSpec::resolve(s).expect("generated workload spec resolves"))
                .collect();
            let schedulers = ["pdf", "ws"]
                .map(|s| SchedulerSpec::resolve(s).expect("built-in scheduler resolves"));
            let exp = Experiment::named(kind.name())
                .workloads(workloads)
                .configs(def.points.iter().map(|p| p.config()))
                .schedulers(schedulers)
                .scale(SWEEP_SCALE)
                .engine(shape.engine)
                .sequential_baseline(shape.baseline)
                .parallelism(shape.parallelism);
            assert!(!exp.sweep_points().is_empty());
            exp
        })
        .collect()
}

/// One untraced sweep as a CLI run pays it: cold build cache, run, encode.
fn run_untraced(exp: &Experiment) -> (String, f64) {
    build_cache::clear();
    let start = Instant::now();
    let json = exp.run().to_json();
    (json, start.elapsed().as_secs_f64())
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let defs = match kind {
        Kind::Cold => gen::cold_sweeps(seed, PLANNED),
        Kind::Latency => gen::latency_sweeps(seed, PLANNED),
    };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut plans = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        plans = resolve(kind, &defs);
        setup.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup);
    println!(
        "setup: resolved {} sweeps, median {:.6} s over {SETUP_REPS} reps",
        plans.len(),
        setup_s
    );

    // A traced run alternates each untraced sweep with its traced twin, so
    // host drift hits both sides alike.
    let tracer = Tracer::new();
    let counts = Mutex::new(Counts::default());
    let mut traced_wall = 0.0;
    let mut identical = true;
    let min_ops = if trace { DIGEST_OPS } else { MIN_OPS };
    let started = Instant::now();
    let mut lat_ms = Vec::new();
    let mut accesses = 0u64;
    let mut digested = String::new();
    let mut prefix_records = Vec::new();
    while (started.elapsed().as_secs_f64() < seconds || lat_ms.len() < min_ops)
        && started.elapsed().as_secs_f64() < HARD_CAP_S
    {
        let i = lat_ms.len();
        let plan = &plans[i % plans.len()];
        let (json, secs) = run_untraced(plan);
        lat_ms.push(secs * 1e3);
        if trace {
            build_cache::clear();
            let start = Instant::now();
            let traced =
                layers::traced_run(plan, kind.name(), kind.shape(), &tracer, i as u32, &counts);
            traced_wall += start.elapsed().as_secs_f64();
            identical &= traced == json;
        }
        if i < DIGEST_OPS || !trace {
            let report = Report::from_json(&json).expect("report JSON parses");
            accesses += report.records.iter().map(|r| r.l1_accesses).sum::<u64>();
            if i < DIGEST_OPS {
                digested.push_str(&json);
                prefix_records.extend(report.records);
            }
        }
    }
    let wall_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let ops = lat_ms.len();
    let peak_rss_mb = stats::peak_rss_mb();
    println!("measured {ops} sweeps in {wall_s:.3} s");

    let mut checks = Vec::new();
    checks.push(reference_check(kind, &plans[0]));
    let batch = (kind == Kind::Latency).then(|| batch_check(&plans[..BATCH_CHECK_OPS.min(ops)]));
    if let Some((ok, _)) = batch {
        checks.push(("batch engine == event engine".to_string(), ok));
    }
    println!(
        "digest {} {:016x} (first {DIGEST_OPS} sweeps, seed {seed})",
        kind.name(),
        fnv1a64(digested.as_bytes())
    );

    if !trace {
        let e2e = EndToEnd {
            setup_s,
            latencies_ms: lat_ms,
            wall_s,
            peak_rss_mb,
        };
        println!("end to end ({}):", kind.name());
        println!("  {:<24} {:>12.6} s", "setup_s", setup_s);
        print_pct("sweep p50 (sweep_s)", &e2e.latencies_ms, 0.5);
        print_pct("sweep p90", &e2e.latencies_ms, 0.9);
        println!(
            "  {:<24} {:>12.0} /s",
            "sim_accesses_per_s",
            accesses as f64 / wall_s
        );
        println!("  {:<24} {:>12.3} MiB", "peak_rss_mb", e2e.peak_rss_mb);
        println!("  {:<24} {:>12}", "failed_frac", 0.0);
        return Outcome {
            attempted: ops as u64,
            failed: 0,
            checks,
            metrics: e2e.metrics(),
        };
    }

    checks.push(("traced report == untraced report".to_string(), identical));
    let spans = tracer.into_spans();
    report_trace_file(kind.name(), &spans);
    let lt = layers::reduce(&spans);
    let counts = counts.into_inner().expect("counts poisoned");
    let mut l = Layers::from_trace(&lt, &counts, ops as f64);
    l.set_cache_stats(&prefix_records);
    l.set(
        "sim.batch_speedup",
        batch.map_or(0.0, |(_, speedup)| speedup),
    );
    l.set("trace.overhead_s", (traced_wall - wall_s) / ops as f64);
    l.set("trace.overhead_frac", (traced_wall - wall_s) / wall_s);
    println!(
        "traced {ops} sweeps: untraced {wall_s:.3} s, traced {traced_wall:.3} s, {} spans, coverage {:.3}",
        spans.len(),
        lt.coverage
    );
    println!("self time by span (s per sweep):");
    for (name, t) in &lt.self_s {
        println!("  {name:<28} {:>12.6}", t / ops as f64);
    }
    Outcome {
        attempted: ops as u64,
        failed: 0,
        checks,
        metrics: l.metrics(),
    }
}

/// Event engine == reference engine on the smallest point of the first
/// sweep (the reference engine is the executable specification).
fn reference_check(kind: Kind, exp: &Experiment) -> (String, bool) {
    let point = exp
        .sweep_points()
        .into_iter()
        .min_by_key(|p| p.config.num_cores)
        .expect("sweep has points");
    let one = |engine| {
        Experiment::named(kind.name())
            .workload(point.workload.clone())
            .config(point.config.clone())
            .schedulers(["pdf", "ws"])
            .scale(SWEEP_SCALE)
            .engine(engine)
            .run()
            .to_json()
    };
    let ok = one(SimEngine::EventDriven) == one(SimEngine::Reference);
    (
        format!(
            "event == reference ({}, {} cores)",
            point.workload, point.config.num_cores
        ),
        ok,
    )
}

/// Batch results == event-engine results on the same sweeps; also the
/// batch engine's speedup over the event engine on them.
fn batch_check(plans: &[Experiment]) -> (bool, f64) {
    let mut ok = true;
    let (mut batch_s, mut event_s) = (0.0, 0.0);
    for exp in plans {
        let (batch_json, b) = run_untraced(exp);
        let (event_json, e) = run_untraced(&exp.clone().engine(SimEngine::EventDriven));
        ok &= batch_json == event_json;
        batch_s += b;
        event_s += e;
    }
    let speedup = event_s / batch_s;
    println!(
        "batch check: {} sweeps, event {event_s:.3} s, batch {batch_s:.3} s, speedup {speedup:.3}",
        plans.len()
    );
    (ok, speedup)
}
