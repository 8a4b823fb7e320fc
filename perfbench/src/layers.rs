//! The traced twin of `Experiment::run`: the same public calls in the same
//! order as `Experiment::run_sweep_point` / `run_batch_group`, each wrapped
//! in a span, fanned out on the benchmark's own `ThreadPool`.  Its report
//! must be byte-identical to the untraced `Experiment::run` report.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use ccs_dag::{CacheGeometry, Computation, Dag, LineStream};
use ccs_experiment::{Experiment, Report, RunRecord, SweepPoint, WorkloadSpec};
use ccs_runtime::{join, Policy, ThreadPool};
use ccs_sched::SchedulerSpec;
use ccs_sim::{simulate_batch, simulate_with_engine, CmpConfig, SimEngine, SimResult};

use crate::trace::{self, Span, Tracer};

/// What a traced run needs beyond the `Experiment` (whose engine, baseline
/// and parallelism settings have no getters).
#[derive(Clone, Copy)]
pub struct RunShape {
    pub engine: SimEngine,
    pub baseline: bool,
    pub parallelism: usize,
}

/// Work counts gathered at the same boundaries as the spans.
#[derive(Default, Debug)]
pub struct Counts {
    pub points: u64,
    pub builds: u64,
    pub trace_bytes: u64,
    pub stream_steps: u64,
    pub lanes_bytes: u64,
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    pub l3_accesses: u64,
    pub mem_fills: u64,
    pub tasks: u64,
    pub cycles: u64,
    pub batch_configs: u64,
    pub batch_replayed: u64,
    pub report_bytes: u64,
    /// Fan-out wall × pool threads, summed (the runtime's capacity).
    pub pool_capacity_s: f64,
}

impl Counts {
    fn add_sim(&mut self, r: &SimResult) {
        self.l1_accesses += r.l1.accesses;
        self.l2_accesses += r.l2.accesses;
        self.l3_accesses += r.l3.accesses;
        self.mem_fills += r.memory.requests;
        self.tasks += r.tasks as u64;
        self.cycles += r.cycles;
    }
}

type Built = Arc<(Arc<Computation>, Arc<Dag>)>;

/// One traced operation's shared state.
struct Ctx<'a> {
    tr: &'a Tracer,
    op: u32,
    shape: RunShape,
    scale: u64,
    schedulers: Vec<SchedulerSpec>,
    /// Mirrors the process build cache within one operation (the untraced
    /// run clears that cache before each sweep).
    builds: Mutex<HashMap<(String, u64, u64, usize), Built>>,
    counts: &'a Mutex<Counts>,
}

impl Ctx<'_> {
    fn count(&self, f: impl FnOnce(&mut Counts)) {
        f(&mut self.counts.lock().expect("counts poisoned"));
    }

    fn span<R>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
        self.tr.span(name, Some(parent), self.op, f)
    }

    /// Build (or reuse, keyed like the build cache) a point's computation
    /// and CSR DAG.  Returns whether the build was fresh.
    fn build(
        &self,
        parent: u32,
        workload: &WorkloadSpec,
        l2_bytes: u64,
        cores: usize,
    ) -> (Built, bool) {
        let key = (workload.label(), self.scale, l2_bytes, cores);
        if let Some(built) = self.builds.lock().expect("build map poisoned").get(&key) {
            return (Arc::clone(built), false);
        }
        let comp = self.span("workloads.build", parent, |_| {
            workload.build(self.scale, l2_bytes, cores)
        });
        let dag = self.span("dag.csr", parent, |_| {
            Arc::new(Dag::from_computation(&comp))
        });
        self.count(|c| {
            c.builds += 1;
            c.trace_bytes += comp.trace_arena_bytes();
        });
        let built = Arc::new((comp, dag));
        let mut map = self.builds.lock().expect("build map poisoned");
        // A concurrent build of the same key: share the first one, as the
        // build cache does.
        (Arc::clone(map.entry(key).or_insert(built)), true)
    }

    /// Line stream and geometry lanes, as the experiment prebuilds them.
    fn compile(
        &self,
        parent: u32,
        comp: &Computation,
        scaled: &CmpConfig,
        fresh: bool,
    ) -> (Arc<LineStream>, u64) {
        let stream = self.span("dag.stream", parent, |_| {
            comp.line_stream(scaled.l2.line_size)
        });
        let lanes_bytes = self.span("dag.lanes", parent, |_| prebuild_lanes(&stream, scaled));
        if fresh {
            self.count(|c| {
                c.stream_steps += stream.num_steps() as u64;
                c.lanes_bytes += lanes_bytes;
            });
        }
        (stream, lanes_bytes)
    }

    fn point(&self, parent: u32, point: &SweepPoint) -> Vec<RunRecord> {
        self.span("point", parent, |me| {
            let scaled = point.config.scaled(self.scale);
            let (built, fresh) = self.build(
                me,
                &point.workload,
                scaled.l2.capacity,
                point.config.num_cores,
            );
            let (comp, dag) = (&*built.0, &*built.1);
            let (stream, lanes_bytes) = self.compile(me, comp, &scaled, fresh);
            let trace_bytes = comp.trace_arena_bytes();
            let peak = trace_bytes + stream.heap_bytes() + lanes_bytes + dag.heap_bytes();
            let sequential = self.shape.baseline.then(|| {
                self.span("sim.seq_baseline", me, |_| {
                    let mut sched = SchedulerSpec::new("pdf").build();
                    let r = simulate_with_engine(
                        comp,
                        dag,
                        &seq_config(&scaled),
                        sched.as_mut(),
                        self.shape.engine,
                    );
                    self.count(|c| c.add_sim(&r));
                    r
                })
            });
            self.count(|c| c.points += 1);
            self.schedulers
                .iter()
                .map(|spec| {
                    let result = self.span(engine_span(&spec.name), me, |_| {
                        let mut sched = spec.build();
                        simulate_with_engine(comp, dag, &scaled, sched.as_mut(), self.shape.engine)
                    });
                    self.count(|c| c.add_sim(&result));
                    self.span("experiment.record", me, |_| {
                        RunRecord::from_sim(
                            point.workload.label(),
                            spec,
                            &result,
                            sequential.as_ref(),
                        )
                        .with_footprint(trace_bytes, peak)
                    })
                })
                .collect()
        })
    }

    fn group(&self, parent: u32, points: &[SweepPoint]) -> Vec<Vec<RunRecord>> {
        self.span("group", parent, |me| {
            let head = &points[0];
            let scaled: Vec<CmpConfig> =
                points.iter().map(|p| p.config.scaled(self.scale)).collect();
            let (built, fresh) = self.build(
                me,
                &head.workload,
                scaled[0].l2.capacity,
                head.config.num_cores,
            );
            let (comp, dag) = (&*built.0, &*built.1);
            let (stream, lanes_bytes) = self.compile(me, comp, &scaled[0], fresh);
            let trace_bytes = comp.trace_arena_bytes();
            let peak = trace_bytes + stream.heap_bytes() + lanes_bytes + dag.heap_bytes();
            let batch = |configs: &[CmpConfig], spec: &SchedulerSpec| {
                let run = self.span("sim.batch", me, |_| {
                    simulate_batch(comp, dag, configs, spec)
                });
                self.count(|c| {
                    c.batch_configs += configs.len() as u64;
                    c.batch_replayed += run.replayed as u64;
                    run.results.iter().for_each(|r| c.add_sim(r));
                });
                run.results
            };
            let sequentials = self.shape.baseline.then(|| {
                let seq: Vec<CmpConfig> = scaled.iter().map(seq_config).collect();
                batch(&seq, &SchedulerSpec::new("pdf"))
            });
            let per_sched: Vec<Vec<SimResult>> = self
                .schedulers
                .iter()
                .map(|spec| batch(&scaled, spec))
                .collect();
            self.count(|c| c.points += points.len() as u64);
            let width = points.len() as u64;
            points
                .iter()
                .enumerate()
                .map(|(j, point)| {
                    self.schedulers
                        .iter()
                        .enumerate()
                        .map(|(i, spec)| {
                            self.span("experiment.record", me, |_| {
                                let seq = sequentials.as_ref().map(|s| &s[j]);
                                RunRecord::from_sim(
                                    point.workload.label(),
                                    spec,
                                    &per_sched[i][j],
                                    seq,
                                )
                                .with_footprint(trace_bytes, peak)
                                .with_batch_width(width)
                            })
                        })
                        .collect()
                })
                .collect()
        })
    }
}

fn engine_span(scheduler: &str) -> &'static str {
    match scheduler {
        "pdf" => "sim.engine_pdf",
        "ws" => "sim.engine_ws",
        _ => "sim.engine_other",
    }
}

/// The 1-core sequential-baseline twin of a scaled design point.
fn seq_config(scaled: &CmpConfig) -> CmpConfig {
    let mut seq = scaled.clone();
    seq.num_cores = 1;
    seq.clusters = 1;
    seq.name = format!("{}-seq", scaled.name);
    seq
}

/// Compile the packed set lanes the event engine looks up and return their
/// heap footprint (pair without an L3, triple with one).
fn prebuild_lanes(stream: &LineStream, config: &CmpConfig) -> u64 {
    let l1 = CacheGeometry::new(config.l1.line_size, config.l1.num_sets());
    let l2 = CacheGeometry::new(config.l2.line_size, config.l2.num_sets());
    match &config.l3 {
        Some(l3) => stream
            .geometry_triple(l1, l2, CacheGeometry::new(l3.line_size, l3.num_sets()))
            .heap_bytes(),
        None => stream.geometry_pair(l1, l2).heap_bytes(),
    }
}

/// Run `exp` (named `name`) layer by layer under op id `op` and return the
/// report JSON — what the untraced path gets from `exp.run().to_json()`.
pub fn traced_run(
    exp: &Experiment,
    name: &str,
    shape: RunShape,
    tr: &Tracer,
    op: u32,
    counts: &Mutex<Counts>,
) -> String {
    tr.span("op", None, op, |root| {
        let ctx = Ctx {
            tr,
            op,
            shape,
            scale: exp.effective_scale(),
            schedulers: exp.resolved_schedulers(),
            builds: Mutex::new(HashMap::new()),
            counts,
        };
        let records: Vec<RunRecord> = if shape.engine == SimEngine::Batch {
            let groups = exp.batch_groups();
            let per_group = fan_out_traced(&ctx, root, &groups, |g, parent| ctx.group(parent, g));
            let total: usize = groups.iter().map(Vec::len).sum();
            let mut slots: Vec<Option<Vec<RunRecord>>> = (0..total).map(|_| None).collect();
            for (group, results) in groups.iter().zip(per_group) {
                for (point, records) in group.iter().zip(results) {
                    slots[point.index] = Some(records);
                }
            }
            slots
                .into_iter()
                .flat_map(|s| s.expect("groups cover every point"))
                .collect()
        } else {
            let points = exp.sweep_points();
            fan_out_traced(&ctx, root, &points, |p, parent| ctx.point(parent, p))
                .into_iter()
                .flatten()
                .collect()
        };
        let mut report = Report::new(name, exp.effective_scale());
        report.records = records;
        let json = tr.span("experiment.encode", Some(root), op, |_| report.to_json());
        ctx.count(|c| c.report_bytes += json.len() as u64);
        json
    })
}

/// Run `items` on a fresh pool of `min(parallelism, items)` threads (or on
/// the calling thread), results in item order, inside a `runtime.fanout`
/// span.
fn fan_out_traced<T: Sync, R: Send>(
    ctx: &Ctx<'_>,
    parent: u32,
    items: &[T],
    run: impl Fn(&T, u32) -> R + Sync,
) -> Vec<R> {
    let threads = ctx.shape.parallelism.min(items.len()).max(1);
    let start = ctx.tr.now();
    let out = ctx.span("runtime.fanout", parent, |me| {
        if threads <= 1 {
            return items.iter().map(|item| run(item, me)).collect();
        }
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let pool = ThreadPool::new(threads, Policy::WorkStealing);
        pool.install(|| split(items, &mut slots, &|item: &T| run(item, me)));
        slots
            .into_iter()
            .map(|s| s.expect("every item ran"))
            .collect()
    });
    let wall = ctx.tr.now() - start;
    ctx.count(|c| c.pool_capacity_s += wall * threads as f64);
    out
}

fn split<T: Sync, R: Send>(items: &[T], slots: &mut [Option<R>], run: &(impl Fn(&T) -> R + Sync)) {
    match items.len() {
        0 => {}
        1 => slots[0] = Some(run(&items[0])),
        n => {
            let (left, right) = items.split_at(n / 2);
            let (left_out, right_out) = slots.split_at_mut(n / 2);
            join(
                || split(left, left_out, run),
                || split(right, right_out, run),
            );
        }
    }
}

/// Container spans: their self time is glue, not a layer.
const CONTAINERS: [&str; 5] = ["op", "runtime.fanout", "point", "group", "serve.request"];

/// Per-layer reduction of a traced pass.
pub struct LayerTimes {
    /// Self seconds per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed durations of point/group spans (pool busy time).
    pub busy_s: f64,
    /// Summed durations of fan-out spans.
    pub fanout_s: f64,
    /// Share of all self time that falls in layer (non-container) spans.
    pub coverage: f64,
}

pub fn reduce(spans: &[Span]) -> LayerTimes {
    let self_s = trace::self_time_by_name(spans);
    let total: f64 = self_s.values().sum();
    let layers: f64 = self_s
        .iter()
        .filter(|(name, _)| !CONTAINERS.contains(name))
        .map(|(_, t)| t)
        .sum();
    let dur = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end - s.start)
            .sum()
    };
    LayerTimes {
        busy_s: dur(&["point", "group"]),
        fanout_s: dur(&["runtime.fanout"]),
        coverage: if total > 0.0 { layers / total } else { 0.0 },
        self_s,
    }
}
