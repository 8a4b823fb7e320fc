//! One client connection: the frame loop between a stream and the service.
//!
//! A session owns the read half of a connection and a writer thread owning
//! the write half.  Every outbound frame is rendered where it is produced —
//! by the session itself (`pong`, `error`, a request answered from the
//! store) or by a service worker streaming results — and travels to that
//! writer as whole lines through one mpsc channel (an `Outbox`), so
//! frames are never interleaved mid-line however many workers stream at
//! once, and the writer only copies bytes.
//!
//! A `submit` is validated and looked up in the result store here, on the
//! session thread.  A request whose every record is stored is answered on
//! the spot: `accepted`, its `result` frames (the stored record text
//! spliced in) and `status` leave as one message, and the request never
//! queues.  Only requests that need simulation go to the service's queue
//! (see [`crate::service`]).
//!
//! Lifecycle: greet with `hello`, then read frames until EOF or `shutdown`.
//! EOF does **not** cancel outstanding requests — a one-shot client
//! (`printf '…submit…' | ccs-serve`) closes its write side immediately, and
//! its results must still stream.  Instead the session *drains*: it waits
//! until every request it submitted has reached a terminal `status` frame
//! (tracked by an RAII guard the service worker drops), then closes the
//! writer and returns whether the client asked for daemon shutdown.
//!
//! Input is hostile until parsed: lines are read through a bounded reader
//! ([`MAX_FRAME_BYTES`]) so an unterminated or gigantic line costs bounded
//! memory and earns a typed `error` frame instead of unbounded buffering,
//! and the frame parser itself never panics (fuzzed in
//! `tests/protocol_proptests.rs`).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufWriter, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use ccs_runtime::fault;
use ccs_runtime::CancelToken;
use parking_lot::{Condvar, Mutex};

use crate::protocol::Frame;
use crate::service::Service;

/// Longest inbound frame line a session accepts, in bytes.  Client→server
/// frames are tiny (a submit names a few workloads); anything larger is
/// garbage or abuse and is rejected with an `error` frame, costing the
/// session at most this much buffer.
pub const MAX_FRAME_BYTES: usize = 256 * 1024;

/// How many finished request ids a session remembers, so that a `cancel`
/// racing its request's terminal `status` is a quiet no-op rather than an
/// "unknown request id" error.
const RECENTLY_FINISHED: usize = 64;

/// The session's requests that have not yet reached terminal status: how
/// many (the drain counter) and their cancel tokens by id (what `cancel`
/// frames trip).  Both shrink as requests finish, so a long-lived session
/// holds state for its live requests plus the last [`RECENTLY_FINISHED`]
/// ids only.
struct PendingRequests {
    state: Mutex<Pending>,
    zero: Condvar,
}

#[derive(Default)]
struct Pending {
    count: usize,
    /// Live request id → (submit sequence number, cancel token).  The
    /// sequence number keeps a finished request from removing the entry of
    /// a later request that reused its id.
    tokens: HashMap<String, (u64, CancelToken)>,
    next_seq: u64,
    /// The most recently finished ids, oldest first.
    finished: VecDeque<String>,
}

impl PendingRequests {
    fn new() -> Arc<PendingRequests> {
        Arc::new(PendingRequests {
            state: Mutex::new(Pending::default()),
            zero: Condvar::new(),
        })
    }

    /// Track a submitted request until the returned guard drops.
    fn begin(self: &Arc<Self>, id: &str, token: CancelToken) -> PendingGuard {
        let mut state = self.state.lock();
        state.count += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.tokens.insert(id.to_string(), (seq, token));
        PendingGuard {
            requests: Arc::clone(self),
            id: id.to_string(),
            seq,
        }
    }

    /// Trip the cancel token of the live request `id`.  Returns `false`
    /// when the session never submitted `id` (or finished it too long ago
    /// to remember); cancelling a just-finished request is a no-op.
    fn cancel(&self, id: &str) -> bool {
        let state = self.state.lock();
        match state.tokens.get(id) {
            Some((_, token)) => {
                token.cancel();
                true
            }
            None => state.finished.iter().any(|done| done == id),
        }
    }

    fn wait_for_drain(&self) {
        let mut state = self.state.lock();
        while state.count > 0 {
            self.zero.wait(&mut state);
        }
    }
}

/// RAII drain counter: the service worker drops this when the request is
/// terminal (done, cancelled, or skipped), whatever path it took — which
/// also releases the request's cancel token.
struct PendingGuard {
    requests: Arc<PendingRequests>,
    id: String,
    seq: u64,
}

impl Drop for PendingGuard {
    fn drop(&mut self) {
        let mut state = self.requests.state.lock();
        if state
            .tokens
            .get(&self.id)
            .is_some_and(|(seq, _)| *seq == self.seq)
        {
            state.tokens.remove(&self.id);
        }
        if state.finished.len() == RECENTLY_FINISHED {
            state.finished.pop_front();
        }
        state.finished.push_back(std::mem::take(&mut self.id));
        state.count -= 1;
        if state.count == 0 {
            self.requests.zero.notify_all();
        }
    }
}

/// The outbound side of a session: rendered frame lines on their way to
/// the session's writer thread.  Each message holds one or more whole,
/// newline-terminated lines, so a burst (a request answered from the
/// store) reaches the socket as one unit.  Clones share the channel.
#[derive(Clone)]
pub(crate) struct Outbox(mpsc::Sender<String>);

impl Outbox {
    /// Render `frame` and send its line.  `false` when the session is
    /// gone.
    pub(crate) fn frame(&self, frame: &Frame) -> bool {
        let mut line = String::with_capacity(128);
        frame.write_line(&mut line);
        line.push('\n');
        self.lines(line)
    }

    /// Send pre-rendered lines, each terminated by `\n`.  `false` when the
    /// session is gone.
    pub(crate) fn lines(&self, lines: String) -> bool {
        self.0.send(lines).is_ok()
    }
}

/// Run one session over `reader`/`writer`.  Blocks until the client
/// disconnects (and the session has drained) or sends `shutdown`; returns
/// `true` when the client asked the daemon to shut down.
pub fn run(service: &Service, reader: impl BufRead, writer: impl Write + Send + 'static) -> bool {
    let (tx, rx) = mpsc::channel::<String>();
    let writer_thread = match thread::Builder::new()
        .name("ccs-serve-writer".to_string())
        .spawn(move || write_loop(writer, rx))
    {
        Ok(handle) => handle,
        Err(e) => {
            // Thread exhaustion: close this session cleanly instead of
            // taking the accept loop down with a panic.
            eprintln!("ccs-serve: failed to spawn session writer: {e}");
            return false;
        }
    };

    let shutdown = read_loop(service, reader, &Outbox(tx), &PendingRequests::new());

    // `read_loop` returns drained, so no worker holds the outbox any more
    // and the writer ends once it has written everything queued.
    let _ = writer_thread.join();
    shutdown
}

fn write_loop(writer: impl Write, rx: mpsc::Receiver<String>) {
    // Lines arrive rendered and are copied into a buffered writer, which is
    // flushed only once the queue has run dry: a burst of frames (a cached
    // sweep's results) leaves in one write, while a lone frame still goes
    // out as soon as it arrives — results stream as they complete.  A
    // write error means the client is gone; stop consuming so senders see
    // the disconnect (workers then cancel their requests).
    let mut writer = BufWriter::new(writer);
    while let Ok(mut lines) = rx.recv() {
        loop {
            // Fault-plan hook (a no-op unless a plan is installed): a
            // client on a stalled link, one delay per frame.  The
            // abrupt-close injection lives in the socket layer
            // (`server::FaultableStream`), which can actually tear the
            // connection down — merely dropping this writer would leave
            // the reader's duplicate of the socket open and both sides
            // blocked.
            if let Some(delay) = fault::session_write_delay() {
                thread::sleep(delay * lines.matches('\n').count() as u32);
            }
            if writer.write_all(lines.as_bytes()).is_err() {
                return;
            }
            match rx.try_recv() {
                Ok(next) => lines = next,
                Err(_) => break,
            }
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

/// One bounded line read: a line, an oversized line (consumed and
/// discarded past the cap), or end of input.
enum LineRead {
    Line(String),
    Oversized,
    Eof,
}

/// Read up to the next newline, buffering at most `max` bytes.  Oversized
/// lines are consumed to their end (or EOF) but not kept, so one hostile
/// line cannot take the session's memory with it.
fn read_frame_line(reader: &mut impl BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF.
            return Ok(if overflow {
                LineRead::Oversized
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(into_text(buf))
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                return Ok(if overflow || buf.len() > max {
                    LineRead::Oversized
                } else {
                    LineRead::Line(into_text(buf))
                });
            }
            None => {
                let len = chunk.len();
                if !overflow {
                    buf.extend_from_slice(chunk);
                    if buf.len() > max {
                        overflow = true;
                        buf = Vec::new();
                    }
                }
                reader.consume(len);
            }
        }
    }
}

/// A line's bytes as text, invalid UTF-8 replaced (without a copy when the
/// bytes are valid).
fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn read_loop(
    service: &Service,
    mut reader: impl BufRead,
    out: &Outbox,
    pending: &Arc<PendingRequests>,
) -> bool {
    let send = |frame: Frame| {
        out.frame(&frame);
    };
    send(Frame::hello());

    let mut shutdown = false;

    loop {
        let line = match read_frame_line(&mut reader, MAX_FRAME_BYTES) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Oversized) => {
                send(Frame::Error {
                    id: None,
                    message: format!("frame line exceeds {MAX_FRAME_BYTES} bytes"),
                });
                continue;
            }
            Ok(LineRead::Eof) => break,
            Err(_) => break, // connection error: treat as EOF
        };
        if line.trim().is_empty() {
            continue;
        }
        let frame = match Frame::parse(&line) {
            Ok(frame) => frame,
            Err(message) => {
                send(Frame::Error { id: None, message });
                continue;
            }
        };
        match frame {
            Frame::Submit(request) => {
                let id = request.id.clone();
                let prepared = match service.prepare(&request) {
                    Ok(prepared) => prepared,
                    Err(message) => {
                        send(Frame::Error {
                            id: Some(id),
                            message,
                        });
                        continue;
                    }
                };
                // Answered here when fully stored (the guard drops, and the
                // id joins the recently finished, before `submit` returns),
                // queued otherwise.
                let token = service.request_token();
                let guard = Box::new(pending.begin(&id, token.clone()));
                if let Err(e) = service.submit(prepared, token, out.clone(), Some(guard)) {
                    // The guard travelled into the rejected request and has
                    // already been dropped with it — no pending leak.
                    send(Frame::Error {
                        id: Some(id),
                        message: e.to_string(),
                    });
                }
            }
            Frame::Cancel { id } => {
                if !pending.cancel(&id) {
                    send(Frame::Error {
                        id: Some(id),
                        message: "cancel: unknown request id".to_string(),
                    });
                }
            }
            Frame::Query { id } => match service.progress(&id) {
                Some((completed, total, cached)) => send(Frame::Progress {
                    id,
                    completed,
                    total,
                    cached,
                }),
                None => send(Frame::Error {
                    id: Some(id),
                    message: "query: unknown request id".to_string(),
                }),
            },
            Frame::Ping => send(Frame::Pong),
            Frame::HealthQuery => send(Frame::Health(service.health())),
            Frame::Shutdown => {
                shutdown = true;
                break;
            }
            // Server-to-client frames arriving at the server are protocol
            // violations; answer and keep the session usable.
            other => send(Frame::Error {
                id: None,
                message: format!("unexpected frame: {}", other.to_line()),
            }),
        }
    }

    pending.wait_for_drain();
    shutdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{RequestState, SubmitRequest};
    use crate::service::{ServiceConfig, FINISHED_PROGRESS_WINDOW};
    use ccs_sim::SimEngine;

    #[test]
    fn finished_requests_release_session_and_progress_state() {
        let dir = std::env::temp_dir().join(format!("ccs-session-bounded-{}", std::process::id()));
        let requests = FINISHED_PROGRESS_WINDOW + 16;
        let service = Service::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            queue_capacity: requests,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut input = String::new();
        for i in 0..requests {
            let submit = Frame::Submit(SubmitRequest {
                id: format!("r{i}"),
                name: None,
                workloads: vec!["mergesort".to_string()],
                schedulers: vec!["pdf".to_string()],
                cores: vec![2],
                scale: 1024,
                quick: false,
                engine: SimEngine::EventDriven,
                baseline: false,
                timeout_ms: None,
            });
            input.push_str(&submit.to_line());
            input.push('\n');
        }

        // At EOF the session drains: `read_loop` returns once every
        // request has reached its terminal status.
        let (tx, rx) = mpsc::channel();
        let pending = PendingRequests::new();
        assert!(!read_loop(
            &service,
            input.as_bytes(),
            &Outbox(tx),
            &pending
        ));
        // Ids in the order their requests finished.
        let finished: Vec<String> = rx
            .iter()
            .flat_map(|lines| {
                lines
                    .lines()
                    .map(|line| Frame::parse(line).unwrap())
                    .collect::<Vec<_>>()
            })
            .filter_map(|frame| match frame {
                Frame::Status {
                    id,
                    state: RequestState::Done,
                    ..
                } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), requests);
        let (first, last) = (&finished[0], &finished[requests - 1]);

        // The session keeps no token for a finished request, and only a
        // bounded memory of recent ids.
        {
            let state = pending.state.lock();
            assert_eq!(state.count, 0);
            assert!(state.tokens.is_empty());
            assert_eq!(state.finished.len(), RECENTLY_FINISHED);
        }
        assert!(pending.cancel(last), "a just-finished id cancels quietly");
        assert!(!pending.cancel(first), "a long-finished id is unknown");

        // The service's progress book holds the finished window, no more:
        // a just-finished id still answers, the oldest ones are gone.
        assert_eq!(service.progress_entries(), FINISHED_PROGRESS_WINDOW);
        assert_eq!(
            service
                .progress(last)
                .map(|(completed, total, _)| (completed, total)),
            Some((1, 1))
        );
        assert_eq!(service.progress(first), None);
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }
}
