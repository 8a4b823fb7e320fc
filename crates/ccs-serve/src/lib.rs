//! `ccs-serve` — the persistent sweep-service daemon of the CCS
//! reproduction.
//!
//! The batch harness ([`ccs_experiment::Experiment`]) answers one question
//! per process: build the workloads, sweep the cross product, print a
//! report, exit.  Iterating on the paper's figures this way rebuilds and
//! re-simulates everything on each invocation.  This crate keeps the warm
//! state alive instead: a daemon that accepts sweep requests over a
//! JSON-lines protocol, batches their points onto one shared `ccs-runtime`
//! pool, streams records back as they complete, and memoises every finished
//! record in a persistent on-disk store — so a repeated request is served
//! from disk, byte-identical to a fresh run.
//!
//! The pieces, one module each:
//!
//! * [`protocol`] — the frame vocabulary (`submit`, `result`, `status`, …)
//!   and its single-line JSON encoding;
//! * [`queue`] — the bounded request queue (backpressure for requests that
//!   need simulation: a full queue rejects immediately rather than
//!   stalling the connection);
//! * [`service`] — the [`ResultStore`](ccs_experiment::ResultStore)
//!   lookup, workers, the shared simulation pool, the build cache all
//!   requests share, and per-request [`CancelToken`](ccs_runtime::CancelToken)s
//!   (cancel drops queued points; in-flight points finish and are kept);
//! * [`session`] — one client connection: validation through the spec
//!   grammar, frame routing, bounded-line input hardening, graceful drain
//!   on EOF.  A request the store holds in full is answered on the
//!   session's own thread, in one burst, without queueing;
//! * [`server`] — the stdio and Unix-socket front ends;
//! * [`client`] — the in-repo client, which reassembles streamed records
//!   into batch-identical [`Report`](ccs_experiment::Report)s, plus the
//!   idempotent [`run_with_retry`] helper.
//!
//! Failure containment — per-request deadlines (`timeout_ms`), panic
//! isolation at the pool boundary, the `health` frame, checksummed
//! crash-safe store entries, and the deterministic fault-injection plan
//! (`CCS_FAULT_PLAN`) that exercises all of it — is documented in
//! DESIGN.md §13.
//!
//! # Quick start (in process)
//!
//! ```
//! use ccs_serve::protocol::SubmitRequest;
//! use ccs_serve::{Client, Server, ServiceConfig};
//! use std::io::BufReader;
//! use std::os::unix::net::UnixStream;
//!
//! let server = Server::start(ServiceConfig::default()).unwrap();
//! let (daemon_side, client_side) = UnixStream::pair().unwrap();
//! let session = {
//!     let reader = BufReader::new(daemon_side.try_clone().unwrap());
//!     std::thread::spawn(move || server.serve_stream(reader, daemon_side))
//! };
//!
//! let writer = client_side.try_clone().unwrap();
//! let mut client = Client::new(BufReader::new(client_side), writer).unwrap();
//! client
//!     .submit(SubmitRequest {
//!         id: "r1".to_string(),
//!         name: None,
//!         workloads: vec!["mergesort".to_string()],
//!         schedulers: vec!["pdf".to_string(), "ws".to_string()],
//!         cores: vec![2],
//!         scale: 1024,
//!         quick: false,
//!         engine: ccs_sim::SimEngine::EventDriven,
//!         baseline: true,
//!         timeout_ms: None,
//!     })
//!     .unwrap();
//! let run = client.collect("r1").unwrap();
//! assert_eq!(run.records.len(), 2);
//! drop(client);
//! session.join().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;
pub mod session;

pub use client::{run_with_retry, Client, CollectedRecord, CollectedRun, RetryPolicy};
pub use protocol::{Frame, HealthReport, RequestState, SubmitRequest, PROTOCOL_VERSION};
pub use queue::{RequestQueue, SubmitError};
pub use server::Server;
pub use service::{Service, ServiceConfig};
pub use session::MAX_FRAME_BYTES;
