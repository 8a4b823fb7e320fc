//! `serve_mixed`: an in-process `ccs-serve` daemon on a Unix socket with a
//! fresh store, driven by two closed-loop clients over a seeded,
//! Zipf-popular request stream (mostly store hits, a steady trickle of
//! first-seen shapes).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ccs_experiment::canon::{fnv1a64, record_key};
use ccs_experiment::{build_cache, Experiment, Report, ResultStore, RunRecord, WorkloadSpec};
use ccs_sched::SchedulerSpec;
use ccs_serve::{Client, Frame, RequestState, Server, ServiceConfig, SubmitRequest};
use ccs_sim::{CmpConfig, SimEngine};

use crate::gen::{self, RequestStream, Shape, SWEEP_SCALE};
use crate::layers::{self, Counts, RunShape};
use crate::stats::{self, median, percentile};
use crate::trace::{Span, Tracer};
use crate::{print_pct, report_trace_file, EndToEnd, Layers, Outcome};

const CLIENTS: usize = 2;
/// Daemon start-ups timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;
/// Requests carry no sequential baseline: one simulation per record.
const BASELINE: bool = false;
/// The digest and the cache ratios cover this many distinct shapes.
const DIGEST_SHAPES: usize = 16;
/// The traced pass replays at most this many requests (it keeps every
/// frame, and memory must stay small).
const TRACE_REQUESTS: usize = 16_000;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

type UnixClient = Client<BufReader<UnixStream>, UnixStream>;

/// A request is a store hit when every streamed record was cached; a
/// partially cached request is a miss.
pub fn is_hit(cached: &[bool]) -> bool {
    !cached.is_empty() && cached.iter().all(|&c| c)
}

/// One completed request as the client saw it.
struct Sample {
    /// Position in the request stream.
    idx: usize,
    shape: usize,
    /// Seconds since the pass started, at submit and at `status`.
    start_s: f64,
    end_s: f64,
    accept_ms: f64,
    first_result_ms: Option<f64>,
    total_ms: f64,
    done: bool,
    cached: Vec<bool>,
    /// The reassembled report: name and scale from `accepted`, records by
    /// `seq` (kept only where the pass asked for them).
    name: String,
    scale: u64,
    records: Vec<(usize, RunRecord)>,
    /// Every frame received for the request (traced pass only).
    frames: Vec<Frame>,
}

impl Sample {
    fn report(&self) -> Report {
        let mut report = Report::new(self.name.clone(), self.scale);
        report.records = self.records.iter().map(|(_, r)| r.clone()).collect();
        report
    }
}

fn submit_request(id: String, shape: &Shape) -> SubmitRequest {
    SubmitRequest {
        id,
        name: None,
        workloads: vec![shape.workload.clone()],
        schedulers: vec!["pdf".to_string(), "ws".to_string()],
        cores: shape.cores.clone(),
        scale: SWEEP_SCALE,
        quick: false,
        engine: SimEngine::EventDriven,
        baseline: BASELINE,
        timeout_ms: None,
    }
}

/// The in-process experiment a request shape asks the daemon for.
fn shape_experiment(shape: &Shape) -> Experiment {
    let spec = WorkloadSpec::resolve(&shape.workload).expect("generated workload spec resolves");
    Experiment::named(spec.name().to_string())
        .workload(spec)
        .configs(
            shape
                .cores
                .iter()
                .map(|&c| CmpConfig::default_with_cores(c).expect("Table-2 core count")),
        )
        .schedulers(["pdf", "ws"])
        .scale(SWEEP_SCALE)
        .engine(SimEngine::EventDriven)
        .sequential_baseline(BASELINE)
        .parallelism(2)
}

/// A running daemon and its connected clients.
struct Daemon {
    thread: thread::JoinHandle<io::Result<()>>,
    clients: Vec<UnixClient>,
}

fn start_daemon(dir: &Path, tag: &str) -> io::Result<Daemon> {
    let socket: PathBuf = dir.join(format!("{tag}.sock"));
    let server = Server::start(ServiceConfig {
        store_dir: Some(dir.join(format!("store-{tag}"))),
        ..ServiceConfig::default()
    })?;
    let bound = socket.clone();
    let thread = thread::spawn(move || server.serve_unix(&bound));
    let clients = (0..CLIENTS)
        .map(|_| Client::connect_unix(&socket, CONNECT_TIMEOUT))
        .collect::<io::Result<Vec<_>>>();
    match clients {
        Ok(clients) => Ok(Daemon { thread, clients }),
        Err(e) => {
            // The accept loop only stops on a client's `shutdown`.
            if let Ok(mut c) = Client::connect_unix(&socket, CONNECT_TIMEOUT) {
                let _ = c.shutdown();
            }
            let _ = thread.join();
            Err(e)
        }
    }
}

/// Shut the daemon down and wait for it (sessions end when the clients
/// hang up; the service drains).
fn stop_daemon(mut daemon: Daemon) -> io::Result<()> {
    let sent = daemon.clients[0].shutdown();
    drop(daemon.clients);
    let served = daemon
        .thread
        .join()
        .map_err(|_| io::Error::other("daemon thread panicked"))?;
    sent.and(served)
}

/// Submit one request and read its frames to the terminal `status`.
fn one_request(
    client: &mut UnixClient,
    idx: usize,
    shape_idx: usize,
    shape: &Shape,
    pass_start: Instant,
    keep_frames: bool,
    keep_records: bool,
) -> io::Result<Sample> {
    let id = format!("r{idx}");
    let start = Instant::now();
    client.submit(submit_request(id.clone(), shape))?;
    let ms = |t: Instant| t.duration_since(start).as_secs_f64() * 1e3;
    let mut sample = Sample {
        idx,
        shape: shape_idx,
        start_s: start.duration_since(pass_start).as_secs_f64(),
        end_s: 0.0,
        accept_ms: 0.0,
        first_result_ms: None,
        total_ms: 0.0,
        done: false,
        cached: Vec::new(),
        name: String::new(),
        scale: 0,
        records: Vec::new(),
        frames: Vec::new(),
    };
    let mut errors = 0usize;
    let mut expected = 0usize;
    loop {
        let frame = client.next_frame()?;
        let now = Instant::now();
        if keep_frames {
            sample.frames.push(frame.clone());
        }
        match frame {
            Frame::Accepted {
                id: fid,
                name,
                scale,
                total,
                ..
            } if fid == id => {
                sample.accept_ms = ms(now);
                sample.name = name;
                sample.scale = scale;
                expected = total;
            }
            Frame::Result {
                id: fid,
                seq,
                cached,
                record,
                ..
            } if fid == id => {
                sample.first_result_ms.get_or_insert(ms(now));
                sample.cached.push(cached);
                if keep_records {
                    sample.records.push((seq, record));
                }
            }
            Frame::Status { id: fid, state, .. } if fid == id => {
                sample.total_ms = ms(now);
                sample.end_s = now.duration_since(pass_start).as_secs_f64();
                sample.done =
                    state == RequestState::Done && errors == 0 && sample.cached.len() == expected;
                sample.records.sort_by_key(|(seq, _)| *seq);
                return Ok(sample);
            }
            Frame::Error { id: fid, .. }
                if fid.as_deref() == Some(id.as_str()) || fid.is_none() =>
            {
                errors += 1;
                // Refused before acceptance: no `status` follows.
                if sample.name.is_empty() {
                    sample.total_ms = ms(now);
                    sample.end_s = now.duration_since(pass_start).as_secs_f64();
                    return Ok(sample);
                }
            }
            _ => {}
        }
    }
}

/// Closed-loop clients: each submits its next request only after the
/// previous one's `status`.  Runs until `budget_s` passes or `limit`
/// requests of the stream were taken.
struct Pass {
    samples: Vec<Sample>,
    /// First submit to last `status`.
    wall_s: f64,
    io_errors: usize,
}

fn drive(
    clients: &mut [UnixClient],
    stream: &RequestStream,
    universe: &[Shape],
    budget_s: f64,
    limit: usize,
    keep_frames: bool,
) -> Pass {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<Sample>, usize)> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut io_errors = 0;
                    let mut seen = HashSet::new();
                    while start.elapsed().as_secs_f64() < budget_s {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= limit {
                            break;
                        }
                        let shape = stream.get(idx);
                        // Records are kept for a shape's first request (the
                        // output check), or for all when replaying.
                        let keep_records = keep_frames || seen.insert(shape);
                        match one_request(
                            client,
                            idx,
                            shape,
                            &universe[shape],
                            start,
                            keep_frames,
                            keep_records,
                        ) {
                            Ok(sample) => samples.push(sample),
                            Err(e) => {
                                eprintln!("request r{idx}: {e}");
                                io_errors += 1;
                                break;
                            }
                        }
                    }
                    (samples, io_errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let io_errors = results.iter().map(|(_, e)| e).sum();
    let mut samples: Vec<Sample> = results.into_iter().flat_map(|(s, _)| s).collect();
    samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let first = samples
        .iter()
        .map(|s| s.start_s)
        .fold(f64::INFINITY, f64::min);
    let last = samples.iter().map(|s| s.end_s).fold(0.0, f64::max);
    Pass {
        wall_s: if samples.is_empty() {
            0.0
        } else {
            last - first
        },
        samples,
        io_errors,
    }
}

impl Pass {
    /// Wall time the pass took for its first `k` requests of the stream.
    fn wall_until(&self, k: usize) -> f64 {
        let first = self.samples.iter().filter(|s| s.idx < k);
        let start = first
            .clone()
            .map(|s| s.start_s)
            .fold(f64::INFINITY, f64::min);
        let end = first.map(|s| s.end_s).fold(0.0, f64::max);
        (end - start).max(0.0)
    }
}

/// Latency splits of one pass.
struct Split {
    all: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    first_result_miss: Vec<f64>,
    accept: Vec<f64>,
}

fn split(pass: &Pass) -> Split {
    let mut s = Split {
        all: vec![],
        hit: vec![],
        miss: vec![],
        first_result_miss: vec![],
        accept: vec![],
    };
    for sample in &pass.samples {
        s.all.push(sample.total_ms);
        s.accept.push(sample.accept_ms);
        if is_hit(&sample.cached) {
            s.hit.push(sample.total_ms);
        } else {
            s.miss.push(sample.total_ms);
            s.first_result_miss.extend(sample.first_result_ms);
        }
    }
    s
}

/// The first completed sample of each distinct shape, in stream order.
fn distinct_shapes(pass: &Pass) -> Vec<&Sample> {
    let mut first: BTreeMap<usize, &Sample> = BTreeMap::new();
    for sample in &pass.samples {
        first
            .entry(sample.shape)
            .and_modify(|s| {
                if sample.idx < s.idx {
                    *s = sample;
                }
            })
            .or_insert(sample);
    }
    let mut out: Vec<&Sample> = first.into_values().collect();
    out.sort_by_key(|s| s.idx);
    out
}

pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let universe = gen::shape_universe();
    let stream = RequestStream::new(seed);
    println!("request universe: {} shapes", universe.len());

    // Set-up: service start, store open, socket bind, client connects.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            stop_daemon(previous).expect("daemon stops cleanly");
        }
        let start = Instant::now();
        daemon = Some(start_daemon(dir, &format!("setup{rep}")).expect("daemon starts"));
        setup.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup);
    println!("setup: median {setup_s:.6} s over {SETUP_REPS} daemon start-ups");
    let mut daemon = daemon.expect("a daemon was started");

    let budget = if trace { seconds / 2.0 } else { seconds };
    let pass = drive(
        &mut daemon.clients,
        &stream,
        &universe,
        budget,
        usize::MAX,
        false,
    );
    let peak_rss_mb = stats::peak_rss_mb();
    let health = daemon.clients[0].health();
    stop_daemon(daemon).expect("daemon stops cleanly");
    let ops = pass.samples.len();
    let failed = pass.samples.iter().filter(|s| !s.done).count() + pass.io_errors;
    let lat = split(&pass);
    println!(
        "measured {ops} requests in {:.3} s: {} hits, {} misses, {failed} failed",
        pass.wall_s,
        lat.hit.len(),
        lat.miss.len()
    );

    let mut checks = vec![(format!("every request done ({ops})"), failed == 0)];
    let distinct = distinct_shapes(&pass);
    let digested: String = distinct
        .iter()
        .take(DIGEST_SHAPES)
        .map(|sample| sample.report().to_json())
        .collect();
    println!(
        "digest serve_mixed {:016x} (first {DIGEST_SHAPES} distinct shapes, seed {seed})",
        fnv1a64(digested.as_bytes())
    );
    checks.push(reference_check(&universe[stream.get(0)]));

    if !trace {
        let identical = distinct
            .iter()
            .all(|s| s.report().to_json() == shape_experiment(&universe[s.shape]).run().to_json());
        checks.push((
            format!(
                "served == in-process for {} distinct shapes",
                distinct.len()
            ),
            identical,
        ));
        let uncached_accesses: u64 = pass
            .samples
            .iter()
            .flat_map(|s| s.records.iter().zip(&s.cached))
            .filter(|(_, &cached)| !cached)
            .map(|((_, r), _)| r.l1_accesses)
            .sum();
        let e2e = EndToEnd {
            setup_s,
            latencies_ms: lat.all.clone(),
            wall_s: pass.wall_s,
            peak_rss_mb,
        };
        println!("end to end (serve_mixed, {CLIENTS} closed-loop clients):");
        println!("  {:<24} {:>12.6} s", "setup_s", setup_s);
        println!(
            "  {:<24} {:>12.3} /s   (n={ops})",
            "req_per_s",
            ops as f64 / pass.wall_s
        );
        print_pct("request p50", &lat.all, 0.5);
        print_pct("request p90", &lat.all, 0.9);
        print_pct("hit_p50_ms", &lat.hit, 0.5);
        print_pct("hit_p99_ms", &lat.hit, 0.99);
        print_pct("miss_p50_ms", &lat.miss, 0.5);
        print_pct("miss_p90_ms", &lat.miss, 0.9);
        print_pct("first_result_p90_ms", &lat.first_result_miss, 0.9);
        println!(
            "  {:<24} {:>12.0} /s",
            "sim_accesses_per_s",
            uncached_accesses as f64 / pass.wall_s
        );
        println!("  {:<24} {:>12.3} MiB", "peak_rss_mb", e2e.peak_rss_mb);
        println!(
            "  {:<24} {:>12.6}",
            "failed_frac",
            failed as f64 / ops.max(1) as f64
        );
        if let Ok(h) = &health {
            println!(
                "  health: panics_caught={} timeouts={} store_records={} store_bytes={}",
                h.panics_caught, h.timeouts, h.store_records, h.store_bytes
            );
        }
        return Outcome {
            attempted: (ops + pass.io_errors) as u64,
            failed: failed as u64,
            checks,
            metrics: e2e.metrics(),
        };
    }

    // Traced pass: a fresh daemon and store, the first requests of the
    // untraced pass again.
    let k = ops.min(TRACE_REQUESTS);
    let untraced_wall = pass.wall_until(k);
    build_cache::clear();
    let mut daemon = start_daemon(dir, "traced").expect("daemon starts");
    let traced = drive(
        &mut daemon.clients,
        &stream,
        &universe,
        f64::INFINITY,
        k,
        true,
    );
    let health = daemon.clients[0].health().expect("health query");
    stop_daemon(daemon).expect("daemon stops cleanly");
    let tracer = Tracer::new();
    for sample in &traced.samples {
        record_request_spans(&tracer, sample);
    }
    let traced_failed = traced.samples.iter().filter(|s| !s.done).count() + traced.io_errors;
    checks.push((
        format!("traced pass: every request done ({})", traced.samples.len()),
        traced_failed == 0,
    ));

    // Serve-side layer replay, then the engine layers in process.
    let replay = replay_frames(&tracer, &traced);
    let store = replay_store(&tracer, &traced, &universe, &dir.join("replay-store"));
    let counts = Mutex::new(Counts::default());
    let shape_run = RunShape {
        engine: SimEngine::EventDriven,
        baseline: BASELINE,
        parallelism: 2,
    };
    let distinct = distinct_shapes(&traced);
    let mut identical = true;
    let mut prefix_records = Vec::new();
    for (op, sample) in distinct.iter().enumerate() {
        build_cache::clear();
        let exp = shape_experiment(&universe[sample.shape]);
        let json = layers::traced_run(
            &exp,
            &sample.name,
            shape_run,
            &tracer,
            (traced.samples.len() + op) as u32,
            &counts,
        );
        identical &= json == sample.report().to_json();
        if op < DIGEST_SHAPES {
            prefix_records.extend(sample.report().records);
        }
    }
    checks.push((
        format!(
            "served == traced in-process for {} distinct shapes",
            distinct.len()
        ),
        identical,
    ));

    let spans = tracer.into_spans();
    report_trace_file("serve_mixed", &spans);
    let lt = layers::reduce(&spans);
    let counts = counts.into_inner().expect("counts poisoned");
    let k = traced.samples.len().max(1) as f64;
    let mut l = Layers::from_trace(&lt, &counts, k);
    l.set_cache_stats(&prefix_records);
    let t = |name: &str| lt.self_s.get(name).copied().unwrap_or(0.0) / k;
    l.set("store.key_s", t("store.key"));
    l.set("store.get_s", t("store.get"));
    l.set("store.put_s", t("store.put"));
    l.set("store.gets", store.gets as f64 / k);
    l.set("store.puts", store.puts as f64 / k);
    l.set("store.bytes", store.bytes as f64);
    l.set("serve.frame_parse_s", t("serve.frame_parse"));
    l.set("serve.frame_render_s", t("serve.frame_render"));
    l.set("serve.frames", replay.frames as f64 / k);
    l.set("serve.wire_bytes", replay.wire_bytes as f64 / k);
    l.set(
        "serve.accept_ms_p50",
        percentile(&lat.accept, 0.5).unwrap_or(0.0),
    );
    l.set("serve.hit_ratio", lat.hit.len() as f64 / ops.max(1) as f64);
    l.set("serve.panics_caught", health.panics_caught as f64);
    l.set("serve.timeouts", health.timeouts as f64);
    l.set("serve.hit_p50_ms", percentile(&lat.hit, 0.5).unwrap_or(0.0));
    l.set(
        "serve.hit_p99_ms",
        percentile(&lat.hit, 0.99).unwrap_or(0.0),
    );
    l.set(
        "serve.miss_p50_ms",
        percentile(&lat.miss, 0.5).unwrap_or(0.0),
    );
    l.set(
        "serve.miss_p90_ms",
        percentile(&lat.miss, 0.9).unwrap_or(0.0),
    );
    l.set(
        "serve.first_result_p90_ms",
        percentile(&lat.first_result_miss, 0.9).unwrap_or(0.0),
    );
    l.set("trace.overhead_s", (traced.wall_s - untraced_wall) / k);
    l.set(
        "trace.overhead_frac",
        (traced.wall_s - untraced_wall) / untraced_wall,
    );
    println!(
        "traced {} requests: untraced {:.3} s, traced {:.3} s; replayed {} store gets, {} puts, {} frames",
        traced.samples.len(),
        untraced_wall,
        traced.wall_s,
        store.gets,
        store.puts,
        replay.frames
    );
    println!("self time by span (s per request):");
    for (name, t) in &lt.self_s {
        println!("  {name:<28} {:>12.9}", t / k);
    }
    Outcome {
        attempted: (ops + pass.io_errors) as u64,
        failed: failed as u64,
        checks,
        metrics: l.metrics(),
    }
}

/// Client-observed spans of one request: the whole request, and within it
/// the wait for `accepted`, for the first `result`, and for the rest of
/// the stream.
fn record_request_spans(tr: &Tracer, s: &Sample) {
    let op = s.idx as u32;
    let id = tr.next_id();
    let at = |ms: f64| s.start_s + ms / 1e3;
    let thread = 0;
    tr.record(Span {
        name: "serve.request",
        id,
        parent: None,
        op,
        thread,
        start: s.start_s,
        end: s.end_s,
    });
    let first = s.first_result_ms.unwrap_or(s.total_ms);
    for (name, a, b) in [
        ("serve.wait_accept", 0.0, s.accept_ms),
        ("serve.wait_first_result", s.accept_ms, first),
        ("serve.stream", first, s.total_ms),
    ] {
        tr.record(Span {
            name,
            id: tr.next_id(),
            parent: Some(id),
            op,
            thread,
            start: at(a),
            end: at(b),
        });
    }
}

struct FrameReplay {
    frames: usize,
    wire_bytes: usize,
}

struct StoreReplay {
    gets: usize,
    puts: usize,
    bytes: u64,
}

/// Render every frame the clients received back to its wire line, then
/// parse each line, timing both.
fn replay_frames(tr: &Tracer, pass: &Pass) -> FrameReplay {
    let op = u32::MAX;
    let frames: Vec<&Frame> = pass.samples.iter().flat_map(|s| &s.frames).collect();
    let lines: Vec<String> = tr.span("serve.frame_render", None, op, |_| {
        frames.iter().map(|f| f.to_line()).collect()
    });
    let parsed = tr.span("serve.frame_parse", None, op, |_| {
        lines.iter().filter(|l| Frame::parse(l).is_ok()).count()
    });
    assert_eq!(parsed, lines.len(), "every received frame re-parses");
    FrameReplay {
        frames: frames.len(),
        wire_bytes: lines.iter().map(|l| l.len() + 1).sum(),
    }
}

/// Replay the daemon's store traffic on a fresh store: in the order the
/// requests were served, derive each record's canonical key, look it up,
/// and write it on a miss.
fn replay_store(tr: &Tracer, pass: &Pass, universe: &[Shape], dir: &Path) -> StoreReplay {
    let store = ResultStore::open(dir).expect("replay store opens");
    let mut labels: HashMap<usize, String> = HashMap::new();
    let mut schedulers: HashMap<String, SchedulerSpec> = HashMap::new();
    let op = u32::MAX;
    let (mut gets, mut puts) = (0, 0);
    for sample in &pass.samples {
        let label = labels
            .entry(sample.shape)
            .or_insert_with(|| {
                WorkloadSpec::parse(&universe[sample.shape].workload)
                    .expect("spec parses")
                    .label()
            })
            .clone();
        for (_, record) in &sample.records {
            let sched = schedulers
                .entry(record.scheduler.clone())
                .or_insert_with(|| {
                    SchedulerSpec::resolve(&record.scheduler).expect("scheduler resolves")
                })
                .clone();
            let config = CmpConfig::default_with_cores(record.cores).expect("Table-2 core count");
            let key = tr.span("store.key", None, op, |_| {
                record_key(
                    &label,
                    &config,
                    SWEEP_SCALE,
                    SimEngine::EventDriven,
                    &sched,
                    BASELINE,
                )
            });
            gets += 1;
            if tr
                .span("store.get", None, op, |_| store.get(&key))
                .is_none()
            {
                puts += 1;
                tr.span("store.put", None, op, |_| store.put(&key, record))
                    .expect("replay store write");
            }
        }
    }
    StoreReplay {
        gets,
        puts,
        bytes: store.disk_bytes(),
    }
}

/// Event engine == reference engine on one request shape.
fn reference_check(shape: &Shape) -> (String, bool) {
    let exp = shape_experiment(shape);
    let ok = exp.run().to_json() == exp.clone().engine(SimEngine::Reference).run().to_json();
    (
        format!(
            "event == reference ({} cores {:?})",
            shape.workload, shape.cores
        ),
        ok,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partially_cached_requests_are_misses() {
        assert!(is_hit(&[true, true, true]));
        assert!(!is_hit(&[true, false, true]));
        assert!(!is_hit(&[false, true]));
        assert!(!is_hit(&[false, false]));
        // A request that streamed nothing was not served from the store.
        assert!(!is_hit(&[]));
    }
}
