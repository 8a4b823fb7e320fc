//! The sweep service: validated requests in, streamed records out.
//!
//! A [`Service`] owns three things:
//!
//! * a bounded [`RequestQueue`] (the backpressure point — see
//!   [`crate::queue`]);
//! * a pool of *request workers* that pop queued requests and drive them;
//! * one shared `ccs-runtime` [`ThreadPool`] that all requests' sweep
//!   points are batched onto, so concurrent requests share the machine
//!   instead of oversubscribing it.
//!
//! Each request decomposes into [`Experiment::sweep_points`], and a
//! submit looks every point up in the persistent [`ResultStore`] (when
//! the service has one) once, on the submitting session's thread.  A
//! point is *stored* when all its records are.  A request whose points
//! are all stored is answered right there — its
//! `accepted`, `result` (`cached: true`) and `status` frames leave as one
//! message — and never reaches the queue, a worker or the pool; queue
//! backpressure and deadlines apply only to requests that need
//! simulation.  Those queue with the stored records already found: the
//! worker streams them, plus any missing point another request stored
//! while this one waited, then simulates the rest on the pool via
//! [`spawn_cancellable`](ThreadPool::spawn_cancellable) and stores each
//! completed point.  Stored records leave as the store's canonical compact
//! JSON, spliced into the frame ([`crate::protocol::write_cached_result_line`]),
//! byte-identical to a fresh run's frame (see
//! [`ccs_experiment::result_store`]), so clients cannot tell a memo hit
//! from a cold run except by the `cached` flag and the wall-clock.
//! Requests submitted with the batch engine group their missing points
//! with [`Experiment::batch_groups`] instead, so a latency sweep's points
//! share one recorded pass per group (records stay byte-identical, and the
//! canonical keys fold onto the event engine's — a batched request hits
//! the entries an event request stored, and vice versa).
//!
//! Builds are shared across requests through one service-owned
//! [`BuildCache`]: every request's experiment carries a handle to it, so
//! requests that share a build key but not store keys (the same workload
//! and cores with another scheduler list, or `baseline` toggled) reuse the
//! build and the streams and lanes compiled on it.  Its byte budget
//! ([`BUILD_CACHE_BYTES`], counted over what the entries hold) bounds the
//! whole daemon's build memory, however many workers run.
//!
//! Cancellation rides on [`CancelToken`]s: each request gets a child of the
//! service's root token.  Tripping the request token drops the request's
//! still-queued points unrun; tripping the root (drain) cancels everything.
//! The worker observes completion through channel disconnect — every point
//! closure owns a sender clone, finished or dropped — and emits the
//! terminal `status` frame with `done` or `cancelled` accordingly.
//!
//! # Failure containment (DESIGN.md §13)
//!
//! Every sweep-point closure runs under `catch_unwind`: a panicking user
//! workload converts to an `error` frame for its request (and a `failed`
//! terminal status) while the daemon, the pool worker and every other
//! request keep going.  Requests submitted with `timeout_ms` are watched by
//! a deadline thread that trips their cancel token on expiry — in-flight
//! points still stream (the partial-results contract of cancellation) and
//! the terminal status reads `timeout`.  [`Service::health`] reports
//! uptime, inflight and queue depth plus the panic/timeout counters and
//! store statistics.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccs_experiment::canon::record_keys;
use ccs_experiment::{BuildCache, Experiment, ResultStore, RunRecord, SweepPoint};
use ccs_runtime::{CancelToken, Policy, ThreadPool};
use ccs_sched::SchedulerSpec;
use ccs_sim::{CmpConfig, SimEngine};
use parking_lot::{Condvar, Mutex};

use crate::protocol::{write_cached_result_line, Frame, HealthReport, RequestState, SubmitRequest};
use crate::queue::{RequestQueue, SubmitError};
use crate::session::Outbox;

/// Budget of the build cache all requests of a [`Service`] share: the
/// heap its builds hold — trace arenas, DAGs and the streams and lanes
/// compiled on them — is kept at or below this at every insertion (see
/// [`BuildCache`]).  A quarter of the process default's
/// ([`BUDGET_BYTES`](ccs_experiment::build_cache::BUDGET_BYTES)): the
/// store answers every repeat of a record, so the daemon's builds pay off
/// only for requests that vary schedulers or `baseline` over the same
/// workload and cores — typically in quick succession — and a short LRU
/// window of recent builds serves those.
pub const BUILD_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Tuning knobs of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory of the persistent result store; `None` disables
    /// memoisation (the service's build cache still shares builds).
    pub store_dir: Option<PathBuf>,
    /// Disk budget for the result store (`--store-max-bytes`): when set,
    /// every store write evicts least-recently-used entries over budget
    /// (see [`ResultStore::open_bounded`]).  `None` grows unboundedly.
    pub store_max_bytes: Option<u64>,
    /// Maximum queued (accepted but not yet running) requests that need
    /// simulation; requests the store answers in full never queue.
    pub queue_capacity: usize,
    /// Request workers: how many requests run concurrently.
    pub workers: usize,
    /// Threads of the shared simulation pool all requests batch onto.
    pub pool_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            store_dir: None,
            store_max_bytes: None,
            queue_capacity: 32,
            workers: 2,
            pool_threads: 2,
        }
    }
}

/// A request validated and resolved, ready to submit: the output of
/// [`Service::prepare`].
pub struct PreparedRequest {
    /// The client's request id.
    pub id: String,
    /// Resolved report name.
    pub name: String,
    /// Effective scale divisor (after `quick` clamping).
    pub scale: u64,
    /// Number of sweep points.
    pub points: usize,
    /// Total records a complete run produces.
    pub total: usize,
    exp: Arc<Experiment>,
    /// The experiment's sweep points, in report order.
    sweep: Vec<SweepPoint>,
    schedulers: Vec<SchedulerSpec>,
    engine: SimEngine,
    baseline: bool,
    /// Server-side deadline, from the submit frame's `timeout_ms`.
    timeout: Option<Duration>,
}

/// One sweep point as the result store answered it at submit.
enum Lookup {
    /// Every record of the point is stored: their canonical compact JSON,
    /// in resolved-scheduler order.
    Stored(Vec<Arc<str>>),
    /// At least one record is missing: the point simulates, and its
    /// records are stored under these keys (empty without a store).
    Missing(Vec<String>),
}

/// A queued request: the prepared experiment plus its session plumbing.
struct QueuedRequest {
    prepared: PreparedRequest,
    /// Per point, what the store held at submit — the worker serves the
    /// stored points from this and looks up only the missing ones again.
    lookups: Vec<Lookup>,
    /// The request's progress-book entry (see [`ProgressBook`]).
    progress_seq: u64,
    token: CancelToken,
    reply: Outbox,
    /// Deadline registration, when the request carried `timeout_ms`.  The
    /// clock runs from submit, so queue wait counts against the deadline.
    deadline: Option<DeadlineHandle>,
    /// Dropped by the worker when the request reaches its terminal status —
    /// the session's drain counter (see [`crate::session`]).
    _pending: Option<Box<dyn std::any::Any + Send>>,
}

/// One sweep point's outcome, reported back to the worker: its records, or
/// the panic message of a failed (e.g. panicking-workload) point.
struct PointDone {
    index: usize,
    records: Result<Vec<RunRecord>, String>,
}

/// How many finished requests keep their progress entry, most recent
/// first: a `query` for an id that has fallen out of the window answers
/// "unknown request id", as for an id never submitted.
pub const FINISHED_PROGRESS_WINDOW: usize = 1024;

/// Live progress of one request, served to `query` frames.
#[derive(Clone, Copy, Default)]
struct Progress {
    completed: usize,
    total: usize,
    cached: usize,
    /// Submit sequence number, so an old id's eviction cannot remove the
    /// entry of a later request that reused the id.
    seq: u64,
}

/// Every live request's progress plus the last
/// [`FINISHED_PROGRESS_WINDOW`] finished ones.
#[derive(Default)]
struct ProgressBook {
    entries: HashMap<String, Progress>,
    /// Finished requests, oldest first, as `(id, seq)`.
    finished: VecDeque<(String, u64)>,
    next_seq: u64,
}

impl ProgressBook {
    fn start(&mut self, id: &str, total: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            id.to_string(),
            Progress {
                total,
                seq,
                ..Progress::default()
            },
        );
        seq
    }

    /// Remove `id`'s entry if it still belongs to submit `seq`.
    fn forget(&mut self, id: &str, seq: u64) {
        if self.entries.get(id).is_some_and(|p| p.seq == seq) {
            self.entries.remove(id);
        }
    }

    /// Record a request that completed as it started — answered from the
    /// store — straight into the finished window.
    fn start_finished(&mut self, id: &str, total: usize, cached: usize) {
        let seq = self.start(id, total);
        if let Some(progress) = self.entries.get_mut(id) {
            progress.completed = total;
            progress.cached = cached;
        }
        self.finish(id, seq);
    }

    /// Move a request into the finished window, evicting the oldest
    /// finished entry once the window is full.
    fn finish(&mut self, id: &str, seq: u64) {
        if self.finished.len() == FINISHED_PROGRESS_WINDOW {
            if let Some((old_id, old_seq)) = self.finished.pop_front() {
                self.forget(&old_id, old_seq);
            }
        }
        self.finished.push_back((id.to_string(), seq));
    }
}

/// One registered deadline, shared between the watcher thread and the
/// request's worker.
struct DeadlineEntry {
    when: Instant,
    token: CancelToken,
    timed_out: Arc<AtomicBool>,
    settled: Arc<AtomicBool>,
}

/// The request side of a deadline registration: observe expiry, and settle
/// the entry on drop so the watcher forgets finished requests.
struct DeadlineHandle {
    timed_out: Arc<AtomicBool>,
    settled: Arc<AtomicBool>,
}

impl DeadlineHandle {
    fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::Acquire)
    }
}

impl Drop for DeadlineHandle {
    fn drop(&mut self) {
        self.settled.store(true, Ordering::Release);
    }
}

/// The deadline thread's state: pending entries plus its wakeup machinery.
/// One watcher serves every request of the service; expiry trips the
/// request's [`CancelToken`], which reuses the whole cancellation path
/// (queued points dropped unrun, in-flight points finish and stream).
struct DeadlineWatcher {
    entries: Mutex<Vec<DeadlineEntry>>,
    wake: Condvar,
    stopped: AtomicBool,
    /// Requests terminated by expiry, for [`Service::health`].
    expired: AtomicU64,
}

impl DeadlineWatcher {
    fn new() -> DeadlineWatcher {
        DeadlineWatcher {
            entries: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            stopped: AtomicBool::new(false),
            expired: AtomicU64::new(0),
        }
    }

    fn register(&self, timeout: Duration, token: CancelToken) -> DeadlineHandle {
        let timed_out = Arc::new(AtomicBool::new(false));
        let settled = Arc::new(AtomicBool::new(false));
        self.entries.lock().push(DeadlineEntry {
            when: Instant::now() + timeout,
            token,
            timed_out: Arc::clone(&timed_out),
            settled: Arc::clone(&settled),
        });
        self.wake.notify_all();
        DeadlineHandle { timed_out, settled }
    }

    /// The watcher thread body: expire due entries, drop settled ones,
    /// sleep until the next deadline (bounded, so a settled entry or a
    /// stop request is noticed promptly even without a wakeup).
    fn run(&self) {
        let mut entries = self.entries.lock();
        while !self.stopped.load(Ordering::Acquire) {
            let now = Instant::now();
            entries.retain(|entry| {
                if entry.settled.load(Ordering::Acquire) {
                    return false;
                }
                if entry.when <= now {
                    // Mark before cancelling, so a worker that sees the
                    // cancelled token and then asks `timed_out()` cannot
                    // miss the flag.
                    entry.timed_out.store(true, Ordering::Release);
                    entry.token.cancel();
                    self.expired.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                true
            });
            let next_due = entries.iter().map(|e| e.when).min();
            let wait = match next_due {
                Some(when) => when
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(100)),
                None => Duration::from_millis(100),
            };
            self.wake
                .wait_for(&mut entries, wait.max(Duration::from_millis(1)));
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        let _entries = self.entries.lock();
        self.wake.notify_all();
    }
}

struct ServiceInner {
    queue: RequestQueue<QueuedRequest>,
    pool: ThreadPool,
    store: Option<ResultStore>,
    /// Builds shared by every request of this service (see the module
    /// docs); private to the service, so two services never share one.
    builds: Arc<BuildCache>,
    root: CancelToken,
    /// Request id → progress, inserted at submit and updated as records
    /// stream.  Entries outlive completion in a bounded window
    /// ([`FINISHED_PROGRESS_WINDOW`]) so late queries still answer; a
    /// resubmitted id overwrites its entry.
    progress: Mutex<ProgressBook>,
    deadlines: Arc<DeadlineWatcher>,
    /// Service start time, for health uptime.
    started: Instant,
    /// Requests currently being driven by a worker.
    inflight: AtomicUsize,
    /// Sweep-point panics caught by the request drivers (the pool-boundary
    /// counter, [`ThreadPool::panics_caught`], covers everything else).
    panics_caught: AtomicU64,
}

/// The daemon core: queue, workers, shared pool, result store.
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    watcher: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Service {
    /// Start a service: opens the store (if configured) and spawns the
    /// request workers and the shared simulation pool.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        let store = match &config.store_dir {
            Some(dir) => Some(ResultStore::open_bounded(dir, config.store_max_bytes)?),
            None => None,
        };
        let inner = Arc::new(ServiceInner {
            queue: RequestQueue::new(config.queue_capacity),
            pool: ThreadPool::new(config.pool_threads, Policy::WorkStealing),
            store,
            builds: Arc::new(BuildCache::with_budget(BUILD_CACHE_BYTES)),
            root: CancelToken::new(),
            progress: Mutex::new(ProgressBook::default()),
            deadlines: Arc::new(DeadlineWatcher::new()),
            started: Instant::now(),
            inflight: AtomicUsize::new(0),
            panics_caught: AtomicU64::new(0),
        });
        // A failed thread spawn (resource exhaustion) must not leak the
        // threads already started: close the queue so they exit, join,
        // and surface the error instead of panicking.
        let mut workers = Vec::with_capacity(config.workers.max(1));
        let mut spawn_all = || -> std::io::Result<thread::JoinHandle<()>> {
            for i in 0..config.workers.max(1) {
                let inner = Arc::clone(&inner);
                workers.push(
                    thread::Builder::new()
                        .name(format!("ccs-serve-worker-{i}"))
                        .spawn(move || {
                            while let Some(request) = inner.queue.pop() {
                                run_request(&inner, request);
                            }
                        })?,
                );
            }
            let deadlines = Arc::clone(&inner.deadlines);
            thread::Builder::new()
                .name("ccs-serve-deadline".to_string())
                .spawn(move || deadlines.run())
        };
        let watcher = match spawn_all() {
            Ok(watcher) => watcher,
            Err(e) => {
                inner.queue.close();
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(e);
            }
        };
        Ok(Service {
            inner,
            workers: Mutex::new(workers),
            watcher: Mutex::new(Some(watcher)),
        })
    }

    /// Validate a submit frame against the spec grammar and registries,
    /// resolving every axis.  The error string is client-facing (it becomes
    /// an `error` frame) and carries the registries' did-you-mean hints.
    pub fn prepare(&self, req: &SubmitRequest) -> Result<PreparedRequest, String> {
        if req.id.is_empty() {
            return Err("request id must not be empty".to_string());
        }
        let mut workloads = Vec::with_capacity(req.workloads.len());
        for spec in &req.workloads {
            workloads.push(ccs_experiment::WorkloadSpec::resolve(spec).map_err(|e| e.to_string())?);
        }
        let mut schedulers = Vec::with_capacity(req.schedulers.len());
        for spec in &req.schedulers {
            schedulers.push(SchedulerSpec::resolve(spec).map_err(|e| e.to_string())?);
        }
        let mut configs = Vec::with_capacity(req.cores.len());
        for &cores in &req.cores {
            configs.push(
                CmpConfig::default_with_cores(cores)
                    .ok_or_else(|| format!("no default CMP configuration with {cores} cores"))?,
            );
        }

        let name = req
            .name
            .clone()
            .unwrap_or_else(|| workloads[0].name().to_string());
        let mut exp = Experiment::named(name.clone())
            .workloads(workloads)
            .scale(req.scale)
            .quick(req.quick)
            .engine(req.engine)
            .sequential_baseline(req.baseline)
            .build_cache(Arc::clone(&self.inner.builds));
        if !schedulers.is_empty() {
            exp = exp.schedulers(schedulers);
        }
        if !configs.is_empty() {
            exp = exp.configs(configs);
        }
        let sweep = exp.sweep_points();
        let schedulers = exp.resolved_schedulers();
        Ok(PreparedRequest {
            id: req.id.clone(),
            name,
            scale: exp.effective_scale(),
            points: sweep.len(),
            total: sweep.len() * schedulers.len(),
            exp: Arc::new(exp),
            sweep,
            schedulers,
            engine: req.engine,
            baseline: req.baseline,
            timeout: req.timeout_ms.map(Duration::from_millis),
        })
    }

    /// Submit a prepared request.  Its points are looked up in the result
    /// store once, here.  A request whose every record is stored is
    /// answered on the calling thread: `accepted`, the `result` frames and
    /// the `done` status go to `reply` as one message, and the request
    /// never touches the queue or a worker — queue backpressure and the
    /// `timeout_ms` deadline apply only to requests that need simulation.
    /// Those queue, carrying the stored records already found, and fail
    /// fast when the queue is full or closed; while it is full, a request
    /// is refused at its first absent record, before any entry is read.
    /// `reply` receives every frame about the request; `pending` (if any)
    /// is dropped when the request reaches its terminal status — sessions
    /// use it as their drain counter.
    pub(crate) fn submit(
        &self,
        prepared: PreparedRequest,
        token: CancelToken,
        reply: Outbox,
        pending: Option<Box<dyn std::any::Any + Send>>,
    ) -> Result<(), SubmitError> {
        if self.inner.queue.is_closed() {
            return Err(SubmitError::Closed);
        }
        if self.inner.queue.is_full() && !self.maybe_stored(&prepared) {
            return Err(SubmitError::Full);
        }
        let lookups = self.lookup(&prepared);
        if lookups.iter().all(|l| matches!(l, Lookup::Stored(_))) {
            self.answer_from_store(&prepared, &lookups, &reply);
            return Ok(());
        }
        let id = prepared.id.clone();
        let progress_seq = self.inner.progress.lock().start(&id, prepared.total);
        // The deadline clock starts here: time spent queued counts, so a
        // request that expires before a worker reaches it terminates with
        // `timeout` and zero records.  (A queue-rejected request drops the
        // handle, which settles the watcher entry.)
        let deadline = prepared
            .timeout
            .map(|timeout| self.inner.deadlines.register(timeout, token.clone()));
        let result = self.inner.queue.submit(QueuedRequest {
            prepared,
            lookups,
            progress_seq,
            token,
            reply,
            deadline,
            _pending: pending,
        });
        if result.is_err() {
            // The queue rejected it (full or closed): no run will happen,
            // so don't leave a phantom 0/total entry behind.
            self.inner.progress.lock().forget(&id, progress_seq);
        }
        result
    }

    /// Whether the store may hold every record of `req`: probes
    /// ([`ResultStore::contains`]) in point order and stops at the first
    /// absent one, so a request the full queue is about to refuse pays no
    /// entry reads and promotes nothing.
    fn maybe_stored(&self, req: &PreparedRequest) -> bool {
        let Some(store) = &self.inner.store else {
            return false;
        };
        req.sweep
            .iter()
            .all(|point| point_keys(req, point).iter().all(|key| store.contains(key)))
    }

    /// Each sweep point of `req` as the store holds it.  A point is
    /// [`Lookup::Stored`] only when *all* its records are.
    fn lookup(&self, req: &PreparedRequest) -> Vec<Lookup> {
        let Some(store) = &self.inner.store else {
            return req
                .sweep
                .iter()
                .map(|_| Lookup::Missing(Vec::new()))
                .collect();
        };
        req.sweep
            .iter()
            .map(|point| {
                let keys = point_keys(req, point);
                match keys.iter().map(|key| store.get_json(key)).collect() {
                    Some(records) => Lookup::Stored(records),
                    None => Lookup::Missing(keys),
                }
            })
            .collect()
    }

    /// Answer a fully stored request in one message: `accepted`, every
    /// record, `status`.  The progress book records it finished before the
    /// status leaves, so a client reacting to `done` can `query` it.
    fn answer_from_store(&self, req: &PreparedRequest, lookups: &[Lookup], reply: &Outbox) {
        self.inner
            .progress
            .lock()
            .start_finished(&req.id, req.total, req.total);
        let mut burst = String::new();
        write_frame(&mut burst, &accepted(req));
        write_stored(&mut burst, req, lookups);
        write_frame(
            &mut burst,
            &Frame::Status {
                id: req.id.clone(),
                state: RequestState::Done,
                completed: req.total,
                total: req.total,
            },
        );
        reply.lines(burst);
    }

    /// Progress of a submitted request: `(completed, total, cached)`
    /// record counts, or `None` for an id the service never accepted (or
    /// that finished more than [`FINISHED_PROGRESS_WINDOW`] requests ago).
    /// Serves the protocol's `query` frame — any session may ask about any
    /// request id, without collecting its results.
    pub fn progress(&self, id: &str) -> Option<(usize, usize, usize)> {
        self.inner
            .progress
            .lock()
            .entries
            .get(id)
            .map(|p| (p.completed, p.total, p.cached))
    }

    /// Number of request ids the progress book holds (live + finished
    /// window).
    #[cfg(test)]
    pub(crate) fn progress_entries(&self) -> usize {
        self.inner.progress.lock().entries.len()
    }

    /// A child of the service's root cancel token: per-request tokens hang
    /// off this, so [`Service::shutdown`] can cancel everything at once.
    pub fn request_token(&self) -> CancelToken {
        self.inner.root.child()
    }

    /// Number of records in the store's in-memory front (0 without a store).
    pub fn store_cached_records(&self) -> usize {
        self.inner
            .store
            .as_ref()
            .map_or(0, ResultStore::cached_records)
    }

    /// A snapshot of daemon health: uptime, load, the panic and timeout
    /// counters, and store statistics.  Serves the protocol's `health`
    /// probe.
    pub fn health(&self) -> HealthReport {
        let inner = &self.inner;
        HealthReport {
            uptime_ms: inner.started.elapsed().as_millis() as u64,
            inflight: inner.inflight.load(Ordering::Relaxed),
            queue_depth: inner.queue.len(),
            panics_caught: inner.panics_caught.load(Ordering::Relaxed)
                + inner.pool.panics_caught() as u64,
            timeouts: inner.deadlines.expired.load(Ordering::Relaxed),
            store_records: self.store_cached_records(),
            store_bytes: inner.store.as_ref().map_or(0, ResultStore::disk_bytes),
        }
    }

    /// Graceful drain: stop accepting, let queued and in-flight requests
    /// finish, and join the workers (and the deadline watcher).  Idempotent.
    pub fn drain(&self) {
        self.inner.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(watcher) = self.watcher.lock().take() {
            self.inner.deadlines.stop();
            let _ = watcher.join();
        }
    }

    /// Hard stop: cancel every request (queued points are dropped, in-flight
    /// points finish), then drain.
    pub fn shutdown(&self) {
        self.inner.root.cancel();
        self.drain();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Canonical store keys of one point's records, in resolved-scheduler order.
fn point_keys(req: &PreparedRequest, point: &SweepPoint) -> Vec<String> {
    record_keys(
        &point.workload.label(),
        &point.config,
        req.scale,
        req.engine,
        &req.schedulers,
        req.baseline,
    )
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The request's `accepted` frame.
fn accepted(req: &PreparedRequest) -> Frame {
    Frame::Accepted {
        id: req.id.clone(),
        name: req.name.clone(),
        scale: req.scale,
        points: req.points,
        total: req.total,
    }
}

/// Append `frame`'s line, newline included.
fn write_frame(out: &mut String, frame: &Frame) {
    frame.write_line(out);
    out.push('\n');
}

/// Append the `result` lines of every stored point, the record text
/// spliced in; returns how many records that was.
fn write_stored(out: &mut String, req: &PreparedRequest, lookups: &[Lookup]) -> usize {
    let per_point = req.schedulers.len();
    let mut written = 0;
    for (index, lookup) in lookups.iter().enumerate() {
        let Lookup::Stored(records) = lookup else {
            continue;
        };
        for (offset, record) in records.iter().enumerate() {
            let seq = index * per_point + offset;
            write_cached_result_line(out, &req.id, seq, req.total, record);
            out.push('\n');
            written += 1;
        }
    }
    written
}

/// Drive one queued request end to end: stream its stored points, batch
/// the rest onto the pool, store fresh records, emit the terminal status.
fn run_request(inner: &Arc<ServiceInner>, request: QueuedRequest) {
    let QueuedRequest {
        prepared: req,
        mut lookups,
        progress_seq,
        token,
        reply,
        deadline,
        _pending,
    } = request;
    let total = req.total;
    let per_point = req.schedulers.len();
    inner.inflight.fetch_add(1, Ordering::Relaxed);
    let note_progress = |completed: usize, cached: usize| {
        if let Some(progress) = inner
            .progress
            .lock()
            .entries
            .get_mut(&req.id)
            .filter(|p| p.seq == progress_seq)
        {
            progress.completed = completed;
            progress.cached = cached;
        }
    };

    // `accepted` and the stored points leave as one burst — unless the
    // request was cancelled (or expired) while queued, which ends it with
    // no records.  Points missing at submit are looked up again first: a
    // request queued behind another that simulated them is served from
    // the store (a front hit under the keys already derived).  A failed
    // send means the session is gone; cancel so this request's points
    // stop consuming the pool.
    let mut burst = String::new();
    write_frame(&mut burst, &accepted(&req));
    let mut cached = 0;
    if !token.is_cancelled() {
        if let Some(store) = &inner.store {
            for lookup in &mut lookups {
                if let Lookup::Missing(keys) = lookup {
                    if let Some(records) = keys.iter().map(|key| store.get_json(key)).collect() {
                        *lookup = Lookup::Stored(records);
                    }
                }
            }
        }
        cached = write_stored(&mut burst, &req, &lookups);
    }
    if !reply.lines(burst) {
        token.cancel();
    }
    let mut completed = cached;
    if cached > 0 {
        note_progress(completed, cached);
    }
    let missing = |point: &SweepPoint| matches!(lookups[point.index], Lookup::Missing(_));

    // Launch phase: batch the missing points.  The batch engine launches
    // one pool closure per batchable *group* (its missing points share a
    // recorded pass); other engines launch one closure per point.
    let (tx, rx) = mpsc::channel::<PointDone>();
    if !token.is_cancelled() {
        if req.engine == SimEngine::Batch {
            for group in req.exp.batch_groups() {
                let fresh: Vec<SweepPoint> = group.into_iter().filter(|p| missing(p)).collect();
                if fresh.is_empty() {
                    continue;
                }
                let exp = Arc::clone(&req.exp);
                let tx = tx.clone();
                let service = Arc::clone(inner);
                inner.pool.spawn_cancellable(&token, move || {
                    // Panic isolation: a panicking workload build (user
                    // factories can panic) fails this group, not the pool
                    // worker or the daemon.
                    match panic::catch_unwind(AssertUnwindSafe(|| exp.run_batch_group(&fresh))) {
                        Ok(per_point_records) => {
                            for (point, records) in fresh.iter().zip(per_point_records) {
                                // The session may be gone; disconnect is fine.
                                let _ = tx.send(PointDone {
                                    index: point.index,
                                    records: Ok(records),
                                });
                            }
                        }
                        Err(payload) => {
                            service.panics_caught.fetch_add(1, Ordering::Relaxed);
                            let message = panic_message(payload);
                            for point in &fresh {
                                let _ = tx.send(PointDone {
                                    index: point.index,
                                    records: Err(message.clone()),
                                });
                            }
                        }
                    }
                });
            }
        } else {
            for point in req.sweep.iter().filter(|p| missing(p)) {
                let point = point.clone();
                let exp = Arc::clone(&req.exp);
                let tx = tx.clone();
                let service = Arc::clone(inner);
                inner.pool.spawn_cancellable(&token, move || {
                    let records =
                        panic::catch_unwind(AssertUnwindSafe(|| exp.run_sweep_point(&point)))
                            .map_err(|payload| {
                                service.panics_caught.fetch_add(1, Ordering::Relaxed);
                                panic_message(payload)
                            });
                    // The session may be gone; disconnect is fine either way.
                    let _ = tx.send(PointDone {
                        index: point.index,
                        records,
                    });
                });
            }
        }
    }
    drop(tx);

    // Drain phase: stream computed points as they land, memoising each;
    // a failed point becomes an `error` frame instead of records.  The
    // channel disconnects once every launched closure has either sent or
    // been dropped unrun by its cancel check — so a cancelled request
    // falls out of this loop with `completed < total`.
    let mut failed = 0usize;
    while let Ok(done) = rx.recv() {
        let records = match done.records {
            Ok(records) => records,
            Err(message) => {
                failed += 1;
                let frame = Frame::Error {
                    id: Some(req.id.clone()),
                    message: format!("sweep point {} panicked: {message}", done.index),
                };
                if !reply.frame(&frame) {
                    token.cancel();
                }
                continue;
            }
        };
        if let (Some(store), Lookup::Missing(keys)) = (&inner.store, &lookups[done.index]) {
            for (key, record) in keys.iter().zip(&records) {
                if let Err(e) = store.put(key, record) {
                    // Memoisation is best-effort: the record still streams,
                    // it just won't be served from disk next time.
                    eprintln!("ccs-serve: store write failed for request {}: {e}", req.id);
                }
            }
        }
        for (offset, record) in records.into_iter().enumerate() {
            completed += 1;
            let frame = Frame::Result {
                id: req.id.clone(),
                seq: done.index * per_point + offset,
                total,
                cached: false,
                record,
            };
            if !reply.frame(&frame) {
                token.cancel();
            }
        }
        note_progress(completed, cached);
    }

    // Terminal state, most-specific first: expiry beats plain cancellation,
    // cancellation beats failure (a cancel arriving after a panic still
    // reads as the client's cancel), failure beats done.
    let timed_out = deadline.as_ref().is_some_and(DeadlineHandle::timed_out);
    let state = if timed_out {
        RequestState::TimedOut
    } else if token.is_cancelled() {
        RequestState::Cancelled
    } else if failed > 0 || completed < total {
        RequestState::Failed
    } else {
        RequestState::Done
    };
    // Settle the books *before* publishing the terminal status: a client
    // that reacts to the status with a health probe must not see this
    // request still counted in flight.
    drop(deadline);
    inner.progress.lock().finish(&req.id, progress_seq);
    inner.inflight.fetch_sub(1, Ordering::Relaxed);
    reply.frame(&Frame::Status {
        id: req.id.clone(),
        state,
        completed,
        total,
    });
}
