//! The JSON-lines wire protocol of the sweep service.
//!
//! Every message is one JSON object on one line (a *frame*), in either
//! direction.  The vocabulary is deliberately small:
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | server → client | `hello` | greeting; carries the protocol version |
//! | client → server | `submit` | a sweep request with a client-chosen `id` |
//! | server → client | `accepted` | request validated and accepted; resolved name/scale/totals |
//! | server → client | `result` | one streamed [`RunRecord`], with its report position `seq` |
//! | server → client | `status` | terminal frame per request: `done`, `cancelled`, `timeout` or `failed` |
//! | client → server | `query` | progress probe for a submitted request |
//! | server → client | `progress` | per-request progress: `completed`/`total`/`cached`, no records |
//! | client → server | `cancel` | drop the request's queued points |
//! | client → server | `ping` / server → client `pong` | liveness |
//! | client → server | `health` | daemon health probe |
//! | server → client | `health` | health report: uptime, inflight, queue depth, fault counters, store stats |
//! | client → server | `shutdown` | drain in-flight requests, then stop |
//! | server → client | `error` | validation or protocol failure (with `id` when attributable) |
//!
//! Framing rules (the version contract, see DESIGN.md §10): unknown object
//! *fields* are ignored, unknown frame *types* are an error, and
//! [`PROTOCOL_VERSION`] only changes when one of those two rules would not
//! save an old peer.  Version 2 added the `timeout` and `failed` terminal
//! states — new values of an *existing* field, which the rules cannot save
//! an old client from — plus the (rule-covered) `health` frames and the
//! optional `timeout_ms` submit field.
//!
//! Frames parse from and render to single lines via the same offline JSON
//! layer the report format uses ([`ccs_experiment::json`]), so a `result`
//! frame's `record` member is byte-compatible with report records.  Both
//! directions are single-pass: [`Frame::write_line`] writes straight into
//! one `String`, [`Frame::parse`] pulls the fields it needs out of the line
//! with a borrowing [`Reader`] and skips the rest.  A record already
//! rendered — a result-store hit — is spliced into its frame by
//! [`write_cached_result_line`], the same bytes without a decode and re-encode.

use ccs_experiment::json::{ObjectWriter, Reader, Value, ValueWriter};
use ccs_experiment::RunRecord;
use ccs_sim::SimEngine;

/// The protocol version announced in the `hello` frame.
pub const PROTOCOL_VERSION: &str = "ccs-serve/2";

/// A parsed sweep request: the `submit` frame's payload.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    /// Client-chosen request id; echoed on every frame about this request.
    pub id: String,
    /// Experiment name; defaults to the first workload's name when absent.
    pub name: Option<String>,
    /// Workload specs (`"mergesort"`, `"heat:rows=64,cols=32"`, …).
    pub workloads: Vec<String>,
    /// Scheduler specs; empty means the PDF-and-WS default.
    pub schedulers: Vec<String>,
    /// Core counts of default design points; empty means the 8-core default.
    pub cores: Vec<usize>,
    /// Scale divisor (default 1).
    pub scale: u64,
    /// Quick mode: clamp scale to at least 256.
    pub quick: bool,
    /// Simulator engine (default event-driven).
    pub engine: SimEngine,
    /// Whether to run the 1-core sequential baseline (default true).
    pub baseline: bool,
    /// Server-side deadline in milliseconds; `None` means no deadline.
    /// Counted from acceptance (queue wait included); on expiry the request
    /// is cancelled and terminates with the `timeout` state, keeping every
    /// record streamed so far.  A request the result store holds in full
    /// is answered at acceptance, so only requests that simulate can
    /// expire.
    pub timeout_ms: Option<u64>,
}

/// Terminal state of a request, carried by the `status` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestState {
    /// Every record was produced and streamed.
    Done,
    /// The request was cancelled; only a prefix of records was streamed.
    Cancelled,
    /// The request's deadline expired; only a prefix of records was
    /// streamed.  Resubmission is idempotent (the memoised store keeps the
    /// partial results), so a retry resumes where this attempt got to.
    TimedOut,
    /// One or more sweep points failed (e.g. a panicking workload build);
    /// each failed point was reported in an `error` frame.
    Failed,
}

impl RequestState {
    fn name(self) -> &'static str {
        match self {
            RequestState::Done => "done",
            RequestState::Cancelled => "cancelled",
            RequestState::TimedOut => "timeout",
            RequestState::Failed => "failed",
        }
    }
}

/// Daemon health, carried by the server→client `health` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Requests currently executing (accepted, not yet terminal).
    pub inflight: usize,
    /// Requests queued behind the workers.
    pub queue_depth: usize,
    /// Panics caught at the service and pool boundaries since start.
    pub panics_caught: u64,
    /// Requests terminated by deadline expiry since start.
    pub timeouts: u64,
    /// Records currently memoised in the result store (0 when storeless).
    pub store_records: usize,
    /// Bytes the result store occupies on disk (0 when storeless).
    pub store_bytes: u64,
}

/// One wire frame, either direction.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Server greeting with [`PROTOCOL_VERSION`].
    Hello {
        /// The announced protocol version.
        version: String,
    },
    /// Client sweep request.
    Submit(SubmitRequest),
    /// Request validated and accepted: its results follow.
    Accepted {
        /// The request id.
        id: String,
        /// Resolved experiment name (for client-side report assembly).
        name: String,
        /// Resolved effective scale divisor.
        scale: u64,
        /// Number of sweep points.
        points: usize,
        /// Total records the request will produce when not cancelled.
        total: usize,
    },
    /// One streamed record.
    Result {
        /// The request id.
        id: String,
        /// Report position: records sorted by `seq` reproduce batch order.
        seq: usize,
        /// Total records of the request.
        total: usize,
        /// Whether this record was served from the persistent result store.
        cached: bool,
        /// The record itself, in report-JSON shape.
        record: RunRecord,
    },
    /// Terminal frame of a request.
    Status {
        /// The request id.
        id: String,
        /// `done` or `cancelled`.
        state: RequestState,
        /// Records actually streamed.
        completed: usize,
        /// Records a complete run would have streamed.
        total: usize,
    },
    /// Progress probe for a submitted request (any session may ask about
    /// any live request id).
    Query {
        /// The request id to report on.
        id: String,
    },
    /// Progress answer: how far a request has got, without streaming its
    /// records.
    Progress {
        /// The request id.
        id: String,
        /// Records streamed so far (cached + simulated).
        completed: usize,
        /// Records a complete run will stream.
        total: usize,
        /// How many of the completed records came from the result store.
        cached: usize,
    },
    /// Cancel a request's queued points.
    Cancel {
        /// The request id to cancel.
        id: String,
    },
    /// Liveness probe.
    Ping,
    /// Liveness answer.
    Pong,
    /// Daemon health probe (client → server).
    HealthQuery,
    /// Daemon health report (server → client).
    Health(HealthReport),
    /// Drain and stop the daemon.
    Shutdown,
    /// Validation or protocol failure.
    Error {
        /// The offending request id, when attributable.
        id: Option<String>,
        /// Human-readable reason.
        message: String,
    },
}

impl Frame {
    /// The server greeting.
    pub fn hello() -> Frame {
        Frame::Hello {
            version: PROTOCOL_VERSION.to_string(),
        }
    }

    /// Render the frame as one newline-free JSON line.
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(128);
        self.write_line(&mut line);
        line
    }

    /// Append the frame's newline-free JSON line to `out`, in one pass:
    /// no tree, no per-key allocation.
    pub fn write_line(&self, out: &mut String) {
        ValueWriter::compact(out).object(|f| match self {
            Frame::Hello { version } => {
                f.key("type").str("hello");
                f.key("version").str(version);
            }
            Frame::Submit(req) => {
                f.key("type").str("submit");
                f.key("id").str(&req.id);
                f.key("name").opt_str(req.name.as_deref());
                f.key("workloads").array(|a| {
                    for workload in &req.workloads {
                        a.item().str(workload);
                    }
                });
                f.key("schedulers").array(|a| {
                    for scheduler in &req.schedulers {
                        a.item().str(scheduler);
                    }
                });
                f.key("cores").array(|a| {
                    for &cores in &req.cores {
                        a.item().u64(cores as u64);
                    }
                });
                f.key("scale").u64(req.scale);
                f.key("quick").bool(req.quick);
                f.key("engine").str(req.engine.name());
                f.key("baseline").bool(req.baseline);
                f.key("timeout_ms").opt_u64(req.timeout_ms);
            }
            Frame::Accepted {
                id,
                name,
                scale,
                points,
                total,
            } => {
                f.key("type").str("accepted");
                f.key("id").str(id);
                f.key("name").str(name);
                f.key("scale").u64(*scale);
                f.key("points").u64(*points as u64);
                f.key("total").u64(*total as u64);
            }
            Frame::Result {
                id,
                seq,
                total,
                cached,
                record,
            } => {
                result_head(f, id, *seq, *total, *cached);
                f.key("record").object(|r| record.write_json(r));
            }
            Frame::Status {
                id,
                state,
                completed,
                total,
            } => {
                f.key("type").str("status");
                f.key("id").str(id);
                f.key("state").str(state.name());
                f.key("completed").u64(*completed as u64);
                f.key("total").u64(*total as u64);
            }
            Frame::Query { id } => {
                f.key("type").str("query");
                f.key("id").str(id);
            }
            Frame::Progress {
                id,
                completed,
                total,
                cached,
            } => {
                f.key("type").str("progress");
                f.key("id").str(id);
                f.key("completed").u64(*completed as u64);
                f.key("total").u64(*total as u64);
                f.key("cached").u64(*cached as u64);
            }
            Frame::Cancel { id } => {
                f.key("type").str("cancel");
                f.key("id").str(id);
            }
            Frame::Ping => f.key("type").str("ping"),
            Frame::Pong => f.key("type").str("pong"),
            Frame::HealthQuery => f.key("type").str("health"),
            Frame::Health(report) => {
                f.key("type").str("health");
                f.key("uptime_ms").u64(report.uptime_ms);
                f.key("inflight").u64(report.inflight as u64);
                f.key("queue_depth").u64(report.queue_depth as u64);
                f.key("panics_caught").u64(report.panics_caught);
                f.key("timeouts").u64(report.timeouts);
                f.key("store_records").u64(report.store_records as u64);
                f.key("store_bytes").u64(report.store_bytes);
            }
            Frame::Shutdown => f.key("type").str("shutdown"),
            Frame::Error { id, message } => {
                f.key("type").str("error");
                f.key("id").opt_str(id.as_deref());
                f.key("message").str(message);
            }
        });
    }

    /// Parse one line into a frame, in one pass over a [`Reader`].
    /// Unknown fields are ignored (forward compatibility); unknown frame
    /// types and malformed payloads are errors.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let mut reader = Reader::new(line);
        // The record is decoded in place, not skipped and re-read; its
        // shape errors wait until the frame type is known to want it.
        let mut record = None;
        let fields = reader
            .object_fields_with(
                &[
                    "type",
                    "id",
                    "seq",
                    "total",
                    "cached",
                    "name",
                    "scale",
                    "points",
                    "state",
                    "completed",
                    "version",
                    "workloads",
                    "schedulers",
                    "cores",
                    "quick",
                    "engine",
                    "baseline",
                    "timeout_ms",
                    "uptime_ms",
                    "inflight",
                    "queue_depth",
                    "panics_caught",
                    "timeouts",
                    "store_records",
                    "store_bytes",
                    "message",
                ],
                |key, reader| {
                    if key == "record" && record.is_none() {
                        record = Some(RunRecord::read_json(reader)?);
                        Ok(())
                    } else {
                        reader.skip_value()
                    }
                },
            )
            .and_then(|fields| reader.finish().map(|()| fields))
            .map_err(|e| format!("malformed frame: {e}"))?;
        let [kind, id, seq, total, cached, name, scale, points, state, completed, version, workloads, schedulers, cores, quick, engine, baseline, timeout_ms, uptime_ms, inflight, queue_depth, panics_caught, timeouts, store_records, store_bytes, message] =
            fields;
        let kind = kind
            .as_ref()
            .and_then(Value::as_str)
            .ok_or_else(|| "frame has no \"type\" field".to_string())?;
        let require_id = |id: Option<Value<'_>>| {
            id.and_then(Value::into_string)
                .ok_or_else(|| format!("{kind:?} frame has no \"id\" field"))
        };
        match kind {
            "hello" => Ok(Frame::Hello {
                version: version.and_then(Value::into_string).unwrap_or_default(),
            }),
            "submit" => {
                // Validation order: id, workloads, cores, engine, schedulers.
                let id = require_id(id)?;
                let workloads = strings(workloads, "workloads")?;
                if workloads.is_empty() {
                    return Err("submit has no workloads".to_string());
                }
                let malformed_cores = || "submit field \"cores\" must be an array of integers";
                let cores = match cores {
                    None | Some(Value::Null) => Vec::new(),
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|v| v.as_u64().map(|c| c as usize))
                        .collect::<Option<_>>()
                        .ok_or_else(malformed_cores)?,
                    Some(_) => return Err(malformed_cores().to_string()),
                };
                let engine = match engine.as_ref().and_then(Value::as_str) {
                    None => SimEngine::EventDriven,
                    Some(text) => text.parse::<SimEngine>()?,
                };
                Ok(Frame::Submit(SubmitRequest {
                    id,
                    name: name.and_then(Value::into_string),
                    workloads,
                    schedulers: strings(schedulers, "schedulers")?,
                    cores,
                    scale: scale.as_ref().and_then(Value::as_u64).unwrap_or(1),
                    quick: quick.as_ref().and_then(Value::as_bool).unwrap_or(false),
                    engine,
                    baseline: baseline.as_ref().and_then(Value::as_bool).unwrap_or(true),
                    timeout_ms: timeout_ms.as_ref().and_then(Value::as_u64),
                }))
            }
            "accepted" => Ok(Frame::Accepted {
                id: require_id(id)?,
                name: require_str(name, "name")?,
                scale: require_u64(&scale, "scale")?,
                points: require_u64(&points, "points")? as usize,
                total: require_u64(&total, "total")? as usize,
            }),
            "result" => Ok(Frame::Result {
                id: require_id(id)?,
                seq: require_u64(&seq, "seq")? as usize,
                total: require_u64(&total, "total")? as usize,
                cached: cached.as_ref().and_then(Value::as_bool).unwrap_or(false),
                record: record
                    .ok_or_else(|| "result frame has no \"record\"".to_string())?
                    .map_err(|e| format!("bad record in result frame: {e}"))?,
            }),
            "status" => Ok(Frame::Status {
                id: require_id(id)?,
                state: match require_str(state, "state")?.as_str() {
                    "done" => RequestState::Done,
                    "cancelled" => RequestState::Cancelled,
                    "timeout" => RequestState::TimedOut,
                    "failed" => RequestState::Failed,
                    other => return Err(format!("unknown request state {other:?}")),
                },
                completed: require_u64(&completed, "completed")? as usize,
                total: require_u64(&total, "total")? as usize,
            }),
            "query" => Ok(Frame::Query {
                id: require_id(id)?,
            }),
            "progress" => Ok(Frame::Progress {
                id: require_id(id)?,
                completed: require_u64(&completed, "completed")? as usize,
                total: require_u64(&total, "total")? as usize,
                cached: require_u64(&cached, "cached")? as usize,
            }),
            "cancel" => Ok(Frame::Cancel {
                id: require_id(id)?,
            }),
            "ping" => Ok(Frame::Ping),
            "pong" => Ok(Frame::Pong),
            // The probe and the report share the wire type; the report is
            // the one carrying measurements.
            "health" if uptime_ms.is_none() => Ok(Frame::HealthQuery),
            "health" => Ok(Frame::Health(HealthReport {
                uptime_ms: require_u64(&uptime_ms, "uptime_ms")?,
                inflight: require_u64(&inflight, "inflight")? as usize,
                queue_depth: require_u64(&queue_depth, "queue_depth")? as usize,
                panics_caught: require_u64(&panics_caught, "panics_caught")?,
                timeouts: require_u64(&timeouts, "timeouts")?,
                store_records: require_u64(&store_records, "store_records")? as usize,
                store_bytes: require_u64(&store_bytes, "store_bytes")?,
            })),
            "shutdown" => Ok(Frame::Shutdown),
            "error" => Ok(Frame::Error {
                id: id.and_then(Value::into_string),
                message: require_str(message, "message")?,
            }),
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

/// The members a `result` frame writes before its `record`.
fn result_head(f: &mut ObjectWriter<'_>, id: &str, seq: usize, total: usize, cached: bool) {
    f.key("type").str("result");
    f.key("id").str(id);
    f.key("seq").u64(seq as u64);
    f.key("total").u64(total as u64);
    f.key("cached").bool(cached);
}

/// Append the line of a cached `result` frame whose record is already
/// rendered as its canonical compact JSON (a result-store hit,
/// [`ResultStore::get_json`](ccs_experiment::ResultStore::get_json)):
/// byte-identical to [`Frame::write_line`] of the `Frame::Result` with
/// `cached: true` carrying the decoded record, with the record text
/// spliced in rather than decoded and re-encoded.
pub fn write_cached_result_line(
    out: &mut String,
    id: &str,
    seq: usize,
    total: usize,
    record_json: &str,
) {
    ValueWriter::compact(out).object(|f| {
        result_head(f, id, seq, total, true);
        f.key("record").raw(record_json);
    });
}

fn require_str(value: Option<Value<'_>>, key: &str) -> Result<String, String> {
    value
        .and_then(Value::into_string)
        .ok_or_else(|| format!("frame has no string field {key:?}"))
}

fn require_u64(value: &Option<Value<'_>>, key: &str) -> Result<u64, String> {
    value
        .as_ref()
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("frame has no integer field {key:?}"))
}

/// A submit list field: absent or `null` is empty, anything but an array
/// of strings is an error.
fn strings(value: Option<Value<'_>>, key: &str) -> Result<Vec<String>, String> {
    let malformed = || format!("submit field {key:?} must be an array of strings");
    match value {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .into_iter()
            .map(|v| v.into_string().ok_or_else(malformed))
            .collect(),
        Some(_) => Err(malformed()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_and_defaults_apply() {
        let line = r#"{"type":"submit","id":"r1","workloads":["mergesort","lu"]}"#;
        let Frame::Submit(req) = Frame::parse(line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.workloads, ["mergesort", "lu"]);
        assert!(req.schedulers.is_empty());
        assert!(req.cores.is_empty());
        assert_eq!(req.scale, 1);
        assert!(!req.quick);
        assert_eq!(req.engine, SimEngine::EventDriven);
        assert!(req.baseline);
        assert_eq!(req.timeout_ms, None);

        // A deadline survives the round trip.
        let timed = r#"{"type":"submit","id":"r2","workloads":["lu"],"timeout_ms":1500}"#;
        let Frame::Submit(timed) = Frame::parse(timed).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(timed.timeout_ms, Some(1500));
        let Frame::Submit(timed) = Frame::parse(&Frame::Submit(timed).to_line()).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(timed.timeout_ms, Some(1500));

        // Full rendering parses back to the same request.
        let rendered = Frame::Submit(req.clone()).to_line();
        assert!(!rendered.contains('\n'));
        let Frame::Submit(again) = Frame::parse(&rendered).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(again.workloads, req.workloads);
        assert_eq!(again.scale, req.scale);
    }

    #[test]
    fn unknown_fields_are_ignored_unknown_types_are_not() {
        let ok = r#"{"type":"ping","future-extension":[1,2,3]}"#;
        assert!(matches!(Frame::parse(ok).unwrap(), Frame::Ping));
        let bad = r#"{"type":"warp-drive"}"#;
        assert!(Frame::parse(bad)
            .unwrap_err()
            .contains("unknown frame type"));
        assert!(Frame::parse("not json").is_err());
        assert!(Frame::parse("[1,2]").unwrap_err().contains("\"type\""));
    }

    #[test]
    fn control_frames_round_trip() {
        for frame in [
            Frame::hello(),
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::Cancel {
                id: "r9".to_string(),
            },
            Frame::Error {
                id: None,
                message: "nope".to_string(),
            },
            Frame::Status {
                id: "r1".to_string(),
                state: RequestState::Cancelled,
                completed: 3,
                total: 8,
            },
            Frame::Status {
                id: "r1".to_string(),
                state: RequestState::TimedOut,
                completed: 3,
                total: 8,
            },
            Frame::Status {
                id: "r1".to_string(),
                state: RequestState::Failed,
                completed: 3,
                total: 8,
            },
            Frame::HealthQuery,
            Frame::Health(HealthReport {
                uptime_ms: 1234,
                inflight: 1,
                queue_depth: 2,
                panics_caught: 3,
                timeouts: 4,
                store_records: 5,
                store_bytes: 6789,
            }),
            Frame::Query {
                id: "r2".to_string(),
            },
            Frame::Progress {
                id: "r2".to_string(),
                completed: 5,
                total: 12,
                cached: 2,
            },
        ] {
            let line = frame.to_line();
            let parsed = Frame::parse(&line).unwrap();
            assert_eq!(line, parsed.to_line(), "round trip: {line}");
        }
        let Frame::Hello { version } = Frame::parse(&Frame::hello().to_line()).unwrap() else {
            panic!("expected hello");
        };
        assert_eq!(version, PROTOCOL_VERSION);
    }
}
